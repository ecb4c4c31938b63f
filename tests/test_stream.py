"""The stream module against numpy itself: stream.draws, the one
computation of numpy's default_rng((seed, index)) stream, over ranges of
indices, on every branch of numpy's routines, with its seeded states.
numpy's Generator is the external reference here; the module never builds
one."""

from pathlib import Path

import numpy as np
import pytest

from tkchar import stream
from tkchar.components import GroupParams
from tkchar.verify import CHUNK, SampleConfig, _stream_args

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


def bits(reducible, j, u, g):
    """One index's draw with its floats as IEEE bytes, so -0.0 != 0.0."""
    return bool(reducible), int(j), np.append(u, g).tobytes()


def drawn_bits(drawn, pos):
    """bits of the draw at position pos of stream.draws' arrays."""
    return bits(*(column[pos] for column in drawn))


def check_draws(seed, indices, args):
    """Every index's seeded state is numpy's PCG64 state, and its draw in
    stream.draws over indices is numpy's draw bit for bit."""
    limbs = stream._seeded(seed, indices)
    drawn = stream.draws(seed, indices, *args)
    for pos, index in enumerate(indices):
        rng = np.random.default_rng((seed, index))
        state, inc = (sum(int(limb[pos]) << (32 * i) for i, limb in enumerate(q)) for q in limbs)
        assert rng.bit_generator.state["state"] == {"state": state, "inc": inc}, index
        assert drawn_bits(drawn, pos) == bits(*_calls(rng, *args)), index


@pytest.mark.parametrize("seed", [0, 1, 8, 424242, 2**31 - 1, 2**32 - 1, 2**32])
def test_replica_equals_draw(seed):
    # draws, the module's replica of numpy's stream, over ranges that
    # start at zero and past it
    for m, n in ORDERS:
        for fraction in (0.0, 0.25, 1.0):
            cfg = SampleConfig(params=GroupParams(m, n), seed=seed, reducible_fraction=fraction)
            for indices in (range(0, 120), range(777, 897)):
                check_draws(seed, indices, _stream_args(cfg))


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
    # module always seeds two: its seeded states and draws are numpy's on
    # both sides of 2**32, and with a two-word seed
    cfg = SampleConfig(params=GroupParams(4, 6), seed=seed)
    check_draws(seed, range(2**32 - 3, 2**32 + 3), _stream_args(cfg))


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
    # draws over ranges on both sides of an index of 2**32, for one- and
    # two-word seeds, with each of BRANCH_ARGS: every draw is numpy's, and
    # the branches numpy takes, read at the indices i with i % 4 the
    # position of the arguments, cover every branch of its routines
    hits = dict.fromkeys(
        ["K = 1", "K = 4294967296", "retry on the high half", "retry on a fresh output",
         "tail", "wedge accepts", "wedge rejects"], 0
    )
    for seed in (0, 1, 5, 2**32, 2**64 - 1):
        for i, args in enumerate(BRANCH_ARGS):
            for indices in (range(800), range(2**32 - 400, 2**32 + 400)):
                drawn = stream.draws(seed, indices, *args)
                for pos, index in enumerate(indices):
                    assert drawn_bits(drawn, pos) == bits(*reference(seed, index, *args)), index
                    if index % len(BRANCH_ARGS) == i:
                        for branch in numpy_branches(seed, index, *args):
                            hits[branch] += 1
    assert all(hits.values()), hits


def test_negative_zero_gaussian(monkeypatch):
    # a state whose third output is layer 2, sign 1 and magnitude 0: with
    # K = 1 that output is the first normal(), whose ziggurat gives -0.0,
    # and normal()'s loc + scale * x gives 0.0; the state is planted as the
    # seeded state of a range of one
    inverse = pow(MULT, -1, 1 << 128)
    state = 2 | 1 << 8  # with inc 1, a state below 2**64 is its own output
    for _ in range(3):
        state = (state - 1) * inverse % (1 << 128)
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = pcg64_state(state)

    def limbs(x):
        return [np.array([x >> (32 * i) & 0xFFFFFFFF], dtype=np.uint64) for i in range(4)]

    monkeypatch.setattr(stream, "_seeded", lambda seed, indices: (limbs(state), limbs(1)))
    drawn = stream.draws(0, range(1), 1.0, 1, 1)
    assert drawn_bits(drawn, 0) == bits(*_calls(rng, 1.0, 1, 1))
    assert drawn[3][0, 0].tobytes() == np.float64(0.0).tobytes()


# A draw of verify's (30, 45) stream whose integers(0, 638) retries on the
# high half of its output: 2**32 % 638 = 422, so about one irreducible draw
# in 10**7 retries, about one verify process in 850.  Found by computing the
# first two outputs of the seeded states (stream._seeded, _step, _output)
# for indices 0 to 15,999 of seeds 0, 1, 2, ... and taking the first
# irreducible index whose low half h has h * 638 % 2**32 < 422.
RETRY_638 = (2395, 1809)


def test_retry_at_verify_30_45():
    seed, index = RETRY_638
    cfg = SampleConfig(params=GroupParams(30, 45), seed=seed)
    args = _stream_args(cfg)
    assert args == (0.25, 8, 638)
    assert numpy_branches(seed, index, *args) == {"retry on the high half"}
    want = bits(*reference(seed, index, *args))
    # alone, and in the chunk verify draws it in
    assert drawn_bits(stream.draws(seed, range(index, index + 1), *args), 0) == want
    assert drawn_bits(stream.draws(seed, range(CHUNK), *args), index) == want


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
    assert stream._FI.tobytes() == data[at - 2048 : at]
