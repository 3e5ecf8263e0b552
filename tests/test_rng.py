"""Seed derivation and the re-keyed Philox streams."""

import sys
import threading

import numpy as np
import pytest

from softlev.rng import Stream, derive_seed, derive_seeds, generator, generators

# ---------------------------------------------------------------------------
# derive_seed: the cross-platform contract
# ---------------------------------------------------------------------------

# Literal values: a change to the label encoding or the hash breaks every
# recorded seed column and every replayed row, so it must break this test.
PINNED = [
    (0, (), 1786884285633530058),
    (0, ("grid", 0), 9092167430041253592),
    (12345, (0, 17, "call", 0), 15006993181659428697),
    (-1, ("restart", 3), 3380675570117975747),
    (2**64 + 5, ("héllo", np.int64(-2)), 12190055091371247062),
    (7, ("gaussian", "softmax", 64, 8), 11069765375570618663),
]


@pytest.mark.parametrize("seed, labels, expected", PINNED)
def test_derive_seed_pinned_values(seed, labels, expected):
    assert derive_seed(seed, *labels) == expected


def test_generator_pinned_draws():
    g = generator(9092167430041253592)
    assert g.integers(0, 2**63, size=2).tolist() == [5163402110356816597, 7544157556703236105]
    assert generator(1).random() == 0.3035680343067586


def test_derive_seed_reduces_seeds_and_int_labels_mod_2_64():
    assert derive_seed(-1, 5) == derive_seed(2**64 - 1, 5)
    assert derive_seed(3, -2) == derive_seed(3 + 2**64, 2**64 - 2)
    assert derive_seed(3, np.int32(9), np.uint64(4)) == derive_seed(3, 9, 4)


def test_derive_seed_tags_label_types():
    assert derive_seed(0, "1") != derive_seed(0, 1)
    assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")
    with pytest.raises(TypeError, match="unsupported seed label type"):
        derive_seed(0, 1.5)
    with pytest.raises(TypeError, match="unsupported seed label type"):
        list(derive_seeds(0, b"x", indices=range(1)))
    with pytest.raises(TypeError, match="unsupported seed label type"):
        list(derive_seeds(0, "x", indices=range(1), tail=(None,)))


# ---------------------------------------------------------------------------
# derive_seeds against nested derive_seed
# ---------------------------------------------------------------------------

SEEDS = [0, 17, -1, -(2**70) + 3, 2**64, 2**64 + 12345, 2**200 + 7]
PREFIXES = [(), ("gap",), (0,), (1, "x"), (np.int64(-3), "naïve", "Δ→∞"), (np.uint8(7),)]
INDICES = [range(0), range(5), range(1, 6), [-1, 2**64 + 1, np.int16(4), 0]]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("labels", PREFIXES)
def test_derive_seeds_equals_nested_derive_seed(seed, labels):
    for indices in INDICES:
        single = [derive_seed(seed, *labels, i) for i in indices]
        assert list(derive_seeds(seed, *labels, indices=indices)) == single
        for tail in [(), ("call", 0), ("ü", np.int64(2**63 - 1), -5)]:
            nested = [derive_seed(derive_seed(seed, *labels, i), *tail) for i in indices]
            assert list(derive_seeds(seed, *labels, indices=indices, tail=tail)) == nested


def test_derive_seeds_encodes_int_indices_like_derive_seed():
    # the index is encoded inline, not through the label encoder: every int
    # kind it accepts must still hash like derive_seed's int label
    indices = [*range(-5, 2000), 2**64 + 3, -(2**64) - 3, np.int64(-7), np.uint64(2**64 - 1), np.int8(3), True, False]
    for tail in (None, ("call", 0)):
        got = list(derive_seeds(11, "idx", indices=indices, tail=tail))
        if tail is None:
            assert got == [derive_seed(11, "idx", i) for i in indices]
        else:
            assert got == [derive_seed(derive_seed(11, "idx", i), *tail) for i in indices]


@pytest.mark.parametrize("index", [1.0, 2.5, np.float64(3.0), "4", None])
def test_derive_seeds_rejects_a_non_int_index(index):
    with pytest.raises(TypeError):
        list(derive_seeds(0, "idx", indices=[0, index]))
    with pytest.raises(TypeError):
        list(derive_seeds(0, "idx", indices=[index], tail=("call", 0)))


def test_derive_seeds_is_lazy_over_its_indices():
    def indices():
        yield 4
        raise RuntimeError("read past the first index")

    seeds = derive_seeds(1, "lazy", indices=indices())
    assert next(seeds) == derive_seed(1, "lazy", 4)
    with pytest.raises(RuntimeError):
        next(seeds)


# ---------------------------------------------------------------------------
# generators against generator(seed), draw for draw
# ---------------------------------------------------------------------------

STREAM_SEEDS = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64 + 3, -1, derive_seed(5, "a")]


def _draws(g):
    """Every kind of draw the package makes, interleaved, so buffered words
    and the cached 32-bit half carry from one call into the next."""
    out = []
    out.append(g.random())
    out.append(g.integers(0, 10, dtype=np.int32))  # 32-bit: leaves a half cached
    out.append(g.standard_normal(3))
    out.append(g.integers(0, 7, size=5, dtype=np.int32))
    out.append(g.binomial(40, 0.3))
    out.append(g.binomial(1000, 0.45))
    out.append(g.multinomial(100, [0.1, 0.2, 0.3, 0.4]))
    out.append(g.multinomial(5000, [0.05, 0.5, 0.45]))
    out.append(g.random((2, 3)))
    out.append(g.integers(2, 11))
    return [np.asarray(x) for x in out]


def _assert_same_draws(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def test_generators_match_generator_draw_for_draw():
    streams = generators(STREAM_SEEDS)
    for seed in STREAM_SEEDS:
        _assert_same_draws(_draws(next(streams)), _draws(generator(seed)))
    assert next(streams, None) is None


def _states_equal(a, b):
    sa, sb = a.bit_generator.state, b.bit_generator.state
    return (
        np.array_equal(sa["state"]["counter"], sb["state"]["counter"])
        and np.array_equal(sa["state"]["key"], sb["state"]["key"])
        and np.array_equal(sa["buffer"], sb["buffer"])
        and all(sa[k] == sb[k] for k in ("buffer_pos", "has_uint32", "uinteger"))
    )


def _partial_stream(seed, has_uint32):
    """Draw from a re-keyed stream so its buffer is part-used and, if asked,
    a 32-bit half is cached, then hand the stream back."""
    stream = Stream()
    g = stream.keyed(seed)
    g.random(2)
    if has_uint32:
        g.integers(0, 5, dtype=np.int32)  # splits a third word, caching half
    else:
        g.random()
    state = g.bit_generator.state
    assert state["buffer_pos"] == 3  # one of the four buffered words left
    assert state["has_uint32"] == int(has_uint32)
    return stream


@pytest.mark.parametrize("has_uint32", [False, True])
def test_rekeying_discards_a_part_used_buffer_and_cached_half(has_uint32):
    for seed in STREAM_SEEDS:
        stream = _partial_stream(derive_seed(seed, "before"), has_uint32)
        _assert_same_draws(_draws(stream.keyed(seed)), _draws(generator(seed)))


@pytest.mark.parametrize("has_uint32", [False, True])
def test_rekeying_after_binomial_setup_on_another_stream(has_uint32):
    # Generator caches the binomial set-up for the last (n, p); the cached
    # values depend on (n, p) only, never on the stream.
    stream = _partial_stream(11, has_uint32)
    before = stream.keyed(12)
    before.binomial(1000, 0.45)
    before.multinomial(5000, [0.05, 0.5, 0.45])
    if has_uint32:
        before.integers(0, 5, dtype=np.int32)
    _assert_same_draws(_draws(stream.keyed(13)), _draws(generator(13)))


def test_keyed_state_equals_a_fresh_generator_state():
    stream = _partial_stream(3, True)
    for seed in STREAM_SEEDS:
        assert _states_equal(stream.keyed(seed), generator(seed))


def test_generators_yield_one_object_per_call():
    seen = {id(g) for g in generators(range(5))}
    assert len(seen) == 1
    a, b = generators([1]), generators([1])
    assert next(a) is not next(b)


def test_generators_read_seeds_lazily():
    def seeds():
        yield 1
        raise RuntimeError("read past the first seed")

    streams = generators(seeds())
    assert next(streams).random() == generator(1).random()
    with pytest.raises(RuntimeError):
        next(streams)


def test_threads_with_their_own_generators_reproduce_generator_streams():
    seeds = [derive_seed(9, "thread", k) for k in range(300)]
    expected = [generator(s).random(7).tobytes() for s in seeds]
    results = {}
    start = threading.Barrier(4)

    def work(name):
        start.wait(timeout=30)
        out = []
        for g in generators(seeds):
            first = g.random(3)
            out.append(np.concatenate([first, g.random(4)]).tobytes())
        results[name] = out

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for out in results.values():
        assert out == expected
