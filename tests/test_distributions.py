"""DiscreteDistribution construction rules, distances, moments, sampling."""

import math

import numpy as np
import pytest

from softlev import distributions
from softlev.distributions import (
    DiscreteDistribution,
    draw,
    hellinger_sq,
    mean_under,
    normalize_probs,
    tv,
    variance_under,
)
from softlev.errors import ShapeMismatch
from softlev.rng import derive_seed, generator


def _dist(*probs):
    return DiscreteDistribution(np.array(probs, dtype=np.float64))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_sum_is_one_to_within_two_ulp_after_construction():
    # The nudge usually lands bitwise, but blocked summation can step over
    # exact 1.0; the documented contract is two ulp.
    exact = 0
    for k in range(200):
        g = generator(derive_seed(20, "sum", k))
        p = g.random(int(g.integers(1, 15))) + 1e-9
        P = DiscreteDistribution(p / p.sum())
        total = P.probs.sum()
        assert abs(total - 1.0) <= 4.5e-16
        exact += total == 1.0
    assert exact >= 190  # bitwise is still the overwhelmingly common outcome


def test_sum_is_bitwise_one_when_entries_are_exact_dyadics():
    assert DiscreteDistribution([0.25, 0.25, 0.25, 0.25]).probs.sum() == 1.0
    assert DiscreteDistribution([0.5, 0.375, 0.125]).probs.sum() == 1.0


def test_tiny_negative_entries_are_clamped():
    P = DiscreteDistribution([0.5, 0.5, -1e-13])
    assert P.probs[2] == 0.0
    assert P.probs.sum() == 1.0


def test_meaningful_negative_entries_are_rejected():
    with pytest.raises(ValueError):
        DiscreteDistribution([1.1, -0.1])


def test_sum_far_from_one_is_rejected():
    with pytest.raises(ValueError):
        DiscreteDistribution([0.6, 0.6])
    # within tolerance: renormalized instead
    P = DiscreteDistribution([0.5, 0.5 + 5e-10])
    assert P.probs.sum() == 1.0


def test_distribution_is_immutable():
    P = _dist(0.5, 0.5)
    with pytest.raises(AttributeError):
        P.probs = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        P.probs[0] = 0.9


def test_rejects_bad_shapes_and_values():
    with pytest.raises(ShapeMismatch):
        DiscreteDistribution(np.ones((2, 2)) / 4)
    with pytest.raises(ValueError):
        DiscreteDistribution([np.nan, 1.0])


# ---------------------------------------------------------------------------
# normalization of a stack, against the one-vector reference
# ---------------------------------------------------------------------------


def _ref_normalize(probs):
    """The one-vector normalization that normalize_probs replaced, verbatim."""
    p = np.array(probs, dtype=np.float64, copy=True, order="C")
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if p.min() < -1e-12:
        raise ValueError(f"negative probability {p.min()!r}")
    np.maximum(p, 0.0, out=p)
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within {1e-09}")
    p /= total
    for _ in range(3):
        resid = 1.0 - p.sum()
        if resid == 0.0:
            break
        p[int(p.argmax())] += resid
    return p


def _ref_normalize_rows(probs):
    """The per-row loop of checks and nudges that normalize_probs replaced."""
    p = np.array(probs, dtype=np.float64, order="C")
    rows = p.reshape(-1, p.shape[-1])
    low = np.minimum.reduce(rows, axis=-1)
    np.maximum(rows, 0.0, out=rows)
    total = np.add.reduce(rows, axis=-1, keepdims=True)
    for lo, (tot,) in zip(low.tolist(), total.tolist()):
        if not (lo >= -1e-12 and abs(tot - 1.0) <= 1e-9):
            raise ValueError("invalid probability vector")
    rows /= total
    for _ in range(3):
        sums = np.add.reduce(rows, axis=-1).tolist()
        if sums.count(1.0) == len(sums):
            break
        for i, t in enumerate(sums):
            if t != 1.0:
                row = rows[i]
                row[row.argmax()] += 1.0 - t
    return p


def _awkward_rows(g, k, n):
    """Rows with exact zeros, clampable negatives and sums off by up to 5e-10."""
    P = g.random((k, n)) + 1e-9
    P[g.random((k, n)) < 0.2] = 0.0
    P[:, 0] += 0.1  # no row is all zero
    P *= (1.0 + 5e-10 * (2.0 * g.random((k, 1)) - 1.0)) / P.sum(axis=-1, keepdims=True)
    P[(g.random((k, n)) < 0.1) & (P == 0.0)] = -1e-13
    return P


@pytest.mark.parametrize("n", range(1, 13))
def test_normalize_probs_rows_equal_one_vector_normalization(n):
    g = generator(derive_seed(20, "stack", n))
    P = _awkward_rows(g, 400, n)
    stacked = normalize_probs(P)
    assert stacked.shape == P.shape
    assert stacked.tobytes() == _ref_normalize_rows(P).tobytes()
    for row, out in zip(P, stacked):
        assert out.tobytes() == _ref_normalize(row).tobytes()
        assert out.tobytes() == DiscreteDistribution(row).probs.tobytes()
    # a stack of stacks is the same rows
    assert normalize_probs(P.reshape(20, 20, n)).tobytes() == stacked.tobytes()


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf, -1e-11, "sum"])
def test_normalize_probs_raises_what_the_first_bad_row_raises_alone(bad):
    P = _awkward_rows(generator(derive_seed(20, "bad")), 4, 5)
    if bad == "sum":
        P[2] *= 1.0 + 1e-8
    else:
        P[2, 1] = bad
    P[3, 2] = -1e-11 if bad is np.nan else np.nan  # a later row fails differently
    with pytest.raises(ValueError) as alone:
        _ref_normalize(P[2])
    with pytest.raises(ValueError) as stacked:
        normalize_probs(P)
    with pytest.raises(ValueError) as single:
        DiscreteDistribution(P[2])
    assert type(stacked.value) is type(single.value) is type(alone.value)
    assert str(stacked.value) == str(single.value) == str(alone.value)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_tv_examples():
    assert tv(_dist(0.3, 0.7), _dist(0.3, 0.7)) == 0.0
    assert tv(_dist(1.0, 0.0), _dist(0.0, 1.0)) == 1.0
    assert tv(_dist(0.5, 0.5), _dist(0.75, 0.25)) == pytest.approx(0.25, abs=1e-15)


def test_hellinger_sq_examples():
    assert hellinger_sq(_dist(0.3, 0.7), _dist(0.3, 0.7)) == 0.0
    assert hellinger_sq(_dist(1.0, 0.0), _dist(0.0, 1.0)) == 1.0
    assert hellinger_sq(_dist(0.5, 0.5), _dist(1.0, 0.0)) == pytest.approx(1 - math.sqrt(0.5), abs=1e-15)


def test_distances_need_matching_support():
    with pytest.raises(ShapeMismatch):
        tv(_dist(1.0), _dist(0.5, 0.5))
    with pytest.raises(ShapeMismatch):
        hellinger_sq(_dist(1.0), _dist(0.5, 0.5))


def _random_pair(g, n):
    def one():
        p = g.random(n) + 1e-12
        p[g.random(n) < 0.2] = 0.0
        if p.sum() == 0.0:
            p[0] = 1.0
        return DiscreteDistribution(p / p.sum())

    return one(), one()


def test_sandwich_symmetry_and_triangle_on_random_triples():
    for k in range(500):
        g = generator(derive_seed(21, "metric", k))
        n = int(g.integers(2, 12))
        P, Q = _random_pair(g, n)
        R, _ = _random_pair(g, n)
        h2, t = hellinger_sq(P, Q), tv(P, Q)
        assert h2 <= t + 1e-12
        assert t <= math.sqrt(2.0 * h2) + 1e-12
        assert tv(P, Q) == tv(Q, P)
        assert hellinger_sq(P, Q) == hellinger_sq(Q, P)
        assert tv(P, R) <= tv(P, Q) + tv(Q, R) + 1e-12
        assert math.sqrt(hellinger_sq(P, R)) <= (
            math.sqrt(hellinger_sq(P, Q)) + math.sqrt(hellinger_sq(Q, R)) + 1e-12
        )


def test_distances_vanish_only_on_equal_pairs():
    P = _dist(0.25, 0.25, 0.5)
    Q = _dist(0.25, 0.3, 0.45)
    assert tv(P, P) == 0.0 and hellinger_sq(P, P) == 0.0
    assert tv(P, Q) > 1e-3 and hellinger_sq(P, Q) > 1e-4


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_mean_under_examples():
    assert mean_under(_dist(0.25, 0.25, 0.25, 0.25), [1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5, abs=1e-15)
    assert mean_under(_dist(1.0, 0.0, 0.0), [7.0, -1.0, 2.0]) == 7.0


def test_mean_under_matches_direct_loop():
    g = generator(derive_seed(22, "mean"))
    p = g.random(7)
    p /= p.sum()
    P = DiscreteDistribution(p)
    v = g.standard_normal(7)
    ref = sum(P.probs[i] * v[i] for i in range(7))
    assert mean_under(P, v) == pytest.approx(ref, abs=1e-15)


def test_variance_under_examples():
    # constant vector: zero up to rounding of the weighted mean (~1e-31)
    assert abs(variance_under(_dist(0.2, 0.8), [3.0, 3.0])) <= 1e-30
    assert variance_under(_dist(0.5, 0.5), [0.0, 1.0]) == pytest.approx(0.25, abs=1e-15)


def test_variance_under_matches_alternate_formula():
    for k in range(50):
        g = generator(derive_seed(23, "var", k))
        n = int(g.integers(2, 10))
        p = g.random(n) + 1e-6
        P = DiscreteDistribution(p / p.sum())
        v = g.standard_normal(n)
        alt = mean_under(P, v * v) - mean_under(P, v) ** 2
        assert variance_under(P, v) == pytest.approx(alt, abs=1e-12)


def test_moment_shape_checks():
    with pytest.raises(ShapeMismatch):
        mean_under(_dist(0.5, 0.5), [1.0])
    with pytest.raises(ShapeMismatch):
        variance_under(_dist(0.5, 0.5), [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_draw_point_mass():
    P = _dist(0.0, 0.0, 0.0, 1.0)
    assert draw(P, 99, 5).tolist() == [3, 3, 3, 3, 3]


def test_draw_is_deterministic_per_seed():
    P = _dist(0.2, 0.3, 0.5)
    a = draw(P, 42, 1000)
    b = draw(P, 42, 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, draw(P, 43, 1000))


def test_draw_frequencies_match_probabilities():
    P = _dist(0.5, 0.5)
    out = draw(P, 7, 100_000)
    freq = (out == 0).mean()
    assert abs(freq - 0.5) < 0.01  # ~6 sigma at this count


def test_draw_edge_cases():
    P = _dist(0.5, 0.5)
    assert draw(P, 1, 0).size == 0
    assert draw(P, 1, 3).dtype == np.int64
    with pytest.raises(ValueError):
        draw(P, 1, -1)


def test_draw_clamps_to_last_index(monkeypatch):
    # u == 1.0 (or a hair above, from float noise in the cdf) must stay in range
    class Stub:
        def random(self, count):
            return np.array([0.0, 0.999, 1.0])

    monkeypatch.setattr(distributions, "generator", lambda seed: Stub())
    out = draw(_dist(0.25, 0.25, 0.5), 0, 3)
    assert out.tolist() == [0, 2, 2]
    assert out.dtype == np.int64


@pytest.mark.parametrize("n", [1, 2, 5, distributions._COUNT_MAX, distributions._COUNT_MAX + 1, 256])
def test_inverse_cdf_is_the_clamped_searchsorted(n):
    g = generator(derive_seed(5, "inverse-cdf", n))
    p = g.random(n) ** 4  # skewed, with every third outcome impossible
    p[1::3] = 0.0
    cdf = np.cumsum(p / p.sum())
    low = cdf * (1.0 - 2.0**-20)  # the last entry well below 1.0
    for c in (cdf, low):
        # uniforms at, just below and just above every entry, and above the
        # last one; alone (too few to count) and with enough random ones
        edges = np.concatenate([c, np.nextafter(c, 0.0), np.nextafter(c, 1.0), [0.0, np.nextafter(1.0, 0.0)]])
        few = edges[edges < 1.0]
        for u in (few, np.concatenate([few, g.random(distributions._COUNT_PASS * n)])):
            counted = n <= distributions._COUNT_MAX and u.size >= distributions._COUNT_PASS * (n - 1)
            for block in (u, u.reshape(-1, 1)):
                want = np.minimum(np.searchsorted(c, block, side="right"), n - 1)
                got = distributions._inverse_cdf(c, block)
                assert got.shape == want.shape and np.array_equal(got, want), n
                # the threshold count is the path that fills int8
                assert got.dtype == (np.int8 if counted else np.intp)
