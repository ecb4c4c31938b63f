"""The stream module against numpy itself: the replica of numpy's
default_rng((seed, index)) stream bit for bit, its seeded states, the
finished draws and their guards."""

import numpy as np
import pytest

from tkchar import stream
from tkchar.components import GroupParams
from tkchar.stream import GUARD, _bits
from tkchar.verify import CHUNK, SampleConfig, _stream_args, empirical_structure, summary_to_json

ORDERS = [(7, 4), (2, 3), (4, 6), (30, 45), (2, 202)]


def replica(cfg, indices):
    return stream.replica(cfg.seed, indices, *_stream_args(cfg))


def draw(cfg, index):
    return stream.draw(cfg.seed, index, *_stream_args(cfg))


def check_replica(cfg, indices):
    """Every fast-path index of the replica, every index drawn from its
    seeded state (the slow ones among them) and every index of the finished
    draws is draw's draw bit for bit; returns the replica's fast mask."""
    fast, *arrays, seeded = replica(cfg, indices)
    finished = stream.draws(cfg.seed, indices, *_stream_args(cfg))
    from_seeded = stream._generator_draws(seeded, *_stream_args(cfg))
    for pos, index in enumerate(indices):
        want = _bits(*draw(cfg, index))
        assert _bits(*(c[pos] for c in finished)) == want, index
        assert _bits(*from_seeded[pos]) == want, index
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


def ziggurat_tables():
    """numpy's ki_double and wi_double, probed through its own generator.

    A PCG64 state whose next state has high word 0 makes the next output
    equal that state's low word u.  u = layer | sign << 8 | rabs << 9 with
    rabs = 1 returns rabs * wi[layer] = wi[layer]; ki[layer] is the least
    rabs the fast path refuses, i.e. the first that consumes a second output.
    """
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inverse = pow(mult, -1, 1 << 128)
    bg = np.random.PCG64(0)
    gen = np.random.Generator(bg)

    def probe(u):
        start = ((u - 1) * inverse) % (1 << 128)
        bg.state = {
            "bit_generator": "PCG64",
            "state": {"state": start, "inc": 1},
            "has_uint32": 0,
            "uinteger": 0,
        }
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
    # index of each GUARD block
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
