"""The stream module against numpy itself: stream.draw, the scalar
definition of numpy's default_rng((seed, index)) stream, on every branch
of numpy's routines; the array replica and its seeded states; the
finished draws and their guards.  numpy's Generator is the external
reference here; the module never builds one."""

from pathlib import Path

import numpy as np
import pytest

import tkchar.verify
from tkchar import stream
from tkchar.components import GroupParams
from tkchar.stream import GUARD, _bits
from tkchar.verify import CHUNK, SampleConfig, _stream_args, empirical_structure, summary_to_json

ORDERS = [(7, 4), (2, 3), (4, 6), (30, 45), (2, 202)]

# PCG64's 128-bit multiplier
MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _calls(rng, fraction, k_red, k_irr):
    """One draw (reducible, j, u, g) from rng: the Generator calls, in their
    order, that define every sample."""
    reducible = rng.random() < fraction
    j = int(rng.integers(0, k_red if reducible else k_irr))
    return reducible, j, rng.random(), rng.normal(size=4)


def reference(seed, index, *args):
    """numpy's own draw of the index-th sample: _calls on default_rng((seed, index))."""
    return _calls(np.random.default_rng((seed, index)), *args)


def replica(cfg, indices):
    return stream.replica(cfg.seed, indices, *_stream_args(cfg))


def check_replica(cfg, indices):
    """Every index's seeded state is numpy's PCG64 state, and its scalar
    draw, its finished draw and, on the replica's fast path, its replicated
    draw are numpy's draw bit for bit; returns the replica's fast mask."""
    args = _stream_args(cfg)
    fast, *arrays, seeded = replica(cfg, indices)
    finished = stream.draws(cfg.seed, indices, *args)
    for pos, index in enumerate(indices):
        rng = np.random.default_rng((cfg.seed, index))
        state_lo, state_hi, inc_lo, inc_hi = seeded[pos].tolist()
        assert rng.bit_generator.state["state"] == {
            "state": state_hi << 64 | state_lo,
            "inc": inc_hi << 64 | inc_lo,
        }, index
        want = _bits(*_calls(rng, *args))
        assert _bits(*stream.draw(cfg.seed, index, *args)) == want, index
        assert _bits(*(c[pos] for c in finished)) == want, index
        if fast[pos]:
            assert _bits(*(c[pos] for c in arrays)) == want, index
    return fast


@pytest.mark.parametrize("seed", [0, 1, 8, 424242, 2**31 - 1, 2**32 - 1, 2**32])
def test_replica_equals_draw(seed):
    # chunks start at zero and past it
    slow = 0
    for m, n in ORDERS:
        for fraction in (0.0, 0.25, 1.0):
            cfg = SampleConfig(params=GroupParams(m, n), seed=seed, reducible_fraction=fraction)
            for indices in (range(0, 120), range(777, 897)):
                fast = check_replica(cfg, indices)
                assert fast.mean() > 0.8, (m, n, fraction)
                slow += int((~fast).sum())
    assert slow > 0


def test_both_branches_and_no_integer_draw():
    # K == 1 draws no integer: the irreducible branch at (2, 3), the
    # reducible one at d = 1; both branches occur at fraction 0.25
    for m, n in ((2, 3), (7, 4), (4, 6)):
        cfg = SampleConfig(params=GroupParams(m, n), seed=5)
        reducible, j, u, g = stream.draws(cfg.seed, range(300), *_stream_args(cfg))
        assert reducible.any() and not reducible.all()
        if m == 2:
            assert not j[~reducible].any()
        if cfg.params.d == 1:
            assert not j[reducible].any()


@pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1])
def test_indices_across_32_bits(seed):
    # an index of 2**32 or more is two entropy words for numpy, and the
    # replica always seeds two: its fast path and its seeded states are
    # numpy's on both sides of 2**32, and with a two-word seed
    cfg = SampleConfig(params=GroupParams(4, 6), seed=seed)
    assert check_replica(cfg, range(2**32 - 3, 2**32 + 3)).any()


def pcg64_state(state, inc=1):
    """numpy's PCG64 state of (state, inc), with no buffered 32-bit half."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def outputs(before, after):
    """How many PCG64 outputs numpy's generator took from state before to
    reach state after."""
    state, inc = before["state"]["state"], before["state"]["inc"]
    for count in range(16):
        if state == after["state"]["state"]:
            return count
        state = (state * MULT + inc) % (1 << 128)
    raise AssertionError("more than 15 outputs")


def numpy_branches(seed, index, fraction, k_red, k_irr):
    """The branches numpy's own generator takes for one draw, read from how
    far each call moves its PCG64 state: integers(0, K) takes one 32-bit
    half per Lemire try, the low half of an output, then its high half; a
    normal() that takes more than one output left the ziggurat's fast path,
    into the tail in layer 0, else into the wedge, whose test accepts after
    one more output."""
    rng = np.random.default_rng((seed, index))
    bg = rng.bit_generator
    reducible = rng.random() < fraction
    k = k_red if reducible else k_irr
    before = bg.state
    rng.integers(0, k)
    halves = 2 * outputs(before, bg.state) - bg.state["has_uint32"]
    found = {f"K = {k}"} if k in (1, 2**32) else set()
    if halves >= 2:
        found.add("retry on the high half")
    if halves >= 3:
        found.add("retry on a fresh output")
    rng.random()
    probe = np.random.PCG64()
    for _ in range(4):
        before = probe.state = bg.state
        layer = int(probe.random_raw()) & 0xFF
        rng.standard_normal()
        count = outputs(before, bg.state)
        if count > 1:
            found.add("tail" if layer == 0 else "wedge accepts" if count == 2 else "wedge rejects")
    return found


# (fraction, k_red, k_irr): K = 2**31 + 1 retries on about half its draws
# and 3 * 2**30 on a quarter; K = 2**32 takes one 32-bit half as it is;
# (0.25, 8, 638) is verify's stream at (30, 45)
BRANCH_ARGS = [(0.5, 1, 2**31 + 1), (0.5, 2**32, 3 * 2**30), (0.25, 8, 638), (0.5, 2, 2**32 - 1)]


def test_draw_is_numpys_on_every_branch():
    # each index draws with the next of BRANCH_ARGS, on both sides of an
    # index of 2**32, for one- and two-word seeds
    hits = dict.fromkeys(
        ["K = 1", "K = 4294967296", "retry on the high half", "retry on a fresh output",
         "tail", "wedge accepts", "wedge rejects"], 0
    )
    for seed in (0, 1, 5, 2**32, 2**64 - 1):
        for index in [*range(800), *range(2**32 - 400, 2**32 + 400)]:
            args = BRANCH_ARGS[index % len(BRANCH_ARGS)]
            assert _bits(*stream.draw(seed, index, *args)) == _bits(*reference(seed, index, *args))
            for branch in numpy_branches(seed, index, *args):
                hits[branch] += 1
    assert all(hits.values()), hits


def test_negative_zero_gaussian():
    # a state whose third output is layer 2, sign 1 and magnitude 0: with
    # K = 1 that output is the first normal(), whose ziggurat gives -0.0,
    # and normal()'s loc + scale * x gives 0.0
    inverse = pow(MULT, -1, 1 << 128)
    state = 2 | 1 << 8  # with inc 1, a state below 2**64 is its own output
    for _ in range(3):
        state = (state - 1) * inverse % (1 << 128)
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = pcg64_state(state)
    drawn = stream._complete(state, 1, 1.0, 1, 1)
    assert _bits(*drawn) == _bits(*_calls(rng, 1.0, 1, 1))
    assert drawn[3][0].tobytes() == np.float64(0.0).tobytes()


# A draw of verify's (30, 45) stream whose integers(0, 638) retries on the
# high half of its output: 2**32 % 638 = 422, so about one irreducible draw
# in 10**7 retries, about one verify process in 850.  Found by computing the
# replica's first two outputs (stream._seeded, _step, _output) for indices
# 0 to 15,999 of seeds 0, 1, 2, ... and taking the first irreducible index
# whose low half h has h * 638 % 2**32 < 422.
RETRY_638 = (2395, 1809)


def test_retry_at_verify_30_45():
    seed, index = RETRY_638
    cfg = SampleConfig(params=GroupParams(30, 45), seed=seed)
    args = _stream_args(cfg)
    assert args == (0.25, 8, 638)
    assert numpy_branches(seed, index, *args) == {"retry on the high half"}
    want = _bits(*reference(seed, index, *args))
    assert _bits(*stream.draw(seed, index, *args)) == want
    # the chunk verify draws it in, completed from its seeded state
    assert not replica(cfg, range(CHUNK))[0][index]
    assert _bits(*(c[index] for c in stream.draws(seed, range(CHUNK), *args))) == want


def ziggurat_tables():
    """numpy's ki_double and wi_double, probed through its own generator.

    A PCG64 state whose next state has high word 0 makes the next output
    equal that state's low word u.  u = layer | sign << 8 | rabs << 9 with
    rabs = 1 returns rabs * wi[layer] = wi[layer]; ki[layer] is the least
    rabs the fast path refuses, i.e. the first that consumes a second output.
    """
    inverse = pow(MULT, -1, 1 << 128)
    bg = np.random.PCG64(0)
    gen = np.random.Generator(bg)

    def probe(u):
        start = ((u - 1) * inverse) % (1 << 128)
        bg.state = pcg64_state(start)
        x = gen.standard_normal()
        return x, bg.state["state"]["state"] == u

    ki, wi = [], []
    for layer in range(256):
        wi.append(probe(layer | 1 << 9)[0])
        accepted, refused = -1, 1 << 52
        while refused - accepted > 1:
            mid = (accepted + refused) // 2
            if probe(layer | mid << 9)[1]:
                accepted = mid
            else:
                refused = mid
        ki.append(refused)
    return ki, wi


def test_tables_are_numpys():
    ki, wi = ziggurat_tables()
    assert ki[0] == 0x000EF33D8025EF6A and ki[1] == 0
    assert stream._KI.tolist() == ki
    assert stream._WI.tobytes() == np.array(wi).tobytes()


def test_fi_table_is_numpys():
    # numpy's fi_double sits in its compiled generator module, in the 2,048
    # bytes right before wi_double.  It is read there, not recomputed:
    # exp(-x * x / 2) at the layer edges x = wi * 2**52 misses it by an ulp
    # at layer 38.
    import numpy.random._generator

    data = Path(numpy.random._generator.__file__).read_bytes()
    wi = stream._WI.tobytes()
    assert data.count(wi) == 1
    at = data.index(wi)
    assert np.array(stream._FI).tobytes() == data[at - 2048 : at]


def test_corrupted_table_raises(monkeypatch):
    # a guard index is the first fast one of the first block; corrupting the
    # layers of all its outputs changes its Gaussians, and verify refuses
    cfg = SampleConfig(params=GroupParams(4, 6), sample_count=300, seed=1)
    fast = replica(cfg, range(cfg.sample_count))[0]
    guard = int(np.flatnonzero(fast)[0])
    raw = np.random.default_rng((cfg.seed, guard)).bit_generator.random_raw(7)
    wi = stream._WI.copy()
    wi[raw & 0xFF] *= 1.5
    monkeypatch.setattr(stream, "_WI", wi)
    with pytest.raises(RuntimeError, match="default_rng"):
        empirical_structure(cfg)


@pytest.mark.parametrize("kind", ["fast", "slow"])
def test_guard_checks_every_block(monkeypatch, kind):
    # within one chunk, the first fast (slow) index of the second GUARD
    # block is guarded: a wrong value there (a wrong seeded state) makes
    # verify refuse, as a numpy release that changed the stream would
    cfg = SampleConfig(params=GroupParams(4, 6), sample_count=2 * GUARD, seed=1)
    assert cfg.sample_count <= CHUNK
    fast = replica(cfg, range(cfg.sample_count))[0]
    block = np.arange(GUARD, 2 * GUARD)
    target = int(block[fast[block] if kind == "fast" else ~fast[block]][0])
    real = stream.replica

    def corrupted(*args):
        fast, reducible, j, u, g, seeded = real(*args)
        if kind == "fast":
            u[target] = np.nextafter(u[target], 1.0)
        else:
            seeded[target, 0] ^= np.uint64(1)
        return fast, reducible, j, u, g, seeded

    monkeypatch.setattr(stream, "replica", corrupted)
    with pytest.raises(RuntimeError, match="default_rng"):
        empirical_structure(cfg)


def test_fallback_alone_gives_the_same_bytes(monkeypatch):
    # a zero ki table refuses every fast path: all of it drawn from the
    # replica's seeded states
    cfg = SampleConfig(params=GroupParams(12, 18), sample_count=600, seed=4)
    want = summary_to_json(empirical_structure(cfg))
    monkeypatch.setattr(stream, "_KI", np.zeros(256, dtype=np.uint64))
    assert not replica(cfg, range(cfg.sample_count))[0].any()
    assert summary_to_json(empirical_structure(cfg)) == want


@pytest.mark.parametrize("m, n", [(4, 6), (30, 45)])
def test_draw_calls_bounded(monkeypatch, m, n):
    # stream.draw covers only the guards: the first fast and the first slow
    # index of each GUARD block.  The count sees this process alone, so one
    # worker: with two, a worker's calls would go uncounted
    monkeypatch.setattr(tkchar.verify, "_cpus", lambda: 1)
    calls = []
    real = stream.draw

    def counted(seed, index, *args):
        calls.append(index)
        return real(seed, index, *args)

    monkeypatch.setattr(stream, "draw", counted)
    count = 20_000
    empirical_structure(SampleConfig(params=GroupParams(m, n), sample_count=count, seed=1))
    blocks = -(-count // GUARD)
    assert blocks <= len(calls) <= 2 * blocks
