"""Finite discrete distributions: exact distances, moments, seeded sampling.

Indices are 0-based throughout: a distribution on n outcomes is supported on
{0, ..., n-1}.
"""

import numpy as np

from . import _kernels
from .errors import ShapeMismatch
from .rng import generator

_NEG_TOL = 1e-12  # entries below -_NEG_TOL are rejected; above, clamped to 0
_SUM_TOL = 1e-9  # |sum - 1| beyond this is rejected rather than renormalized
# _inverse_cdf counts thresholds where n <= _COUNT_MAX and there are at least
# _COUNT_PASS uniforms per counting pass (per entry of cdf[:-1]).  Measured on
# flat, skewed and one-point laws: at the m* search's blocks (8192 // horizon
# rows by horizon) the count was faster at n <= 16 on every law, but up to
# 1.3x slower at n = 20-28 on a law with one likely outcome; below about 512
# uniforms per pass the fixed cost of a pass made it slower at every n
_COUNT_MAX = 16
_COUNT_PASS = 512


def _reject(rows, low):
    """Raise the ValueError of the first invalid vector in a 2-D stack whose
    negatives are clamped; ``low`` holds each vector's minimum before."""
    for row, lo in zip(rows, low):
        # clamping keeps NaN and +inf, and a -inf shows in lo
        if not (np.isfinite(row).all() and np.isfinite(lo)):
            raise ValueError("probabilities must be finite")
        if lo < -_NEG_TOL:
            raise ValueError(f"negative probability {lo!r}")
        total = row.sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within {_SUM_TOL}")


def _normalize(p):
    """Normalize in place the vectors along the last axis of a C-contiguous
    float64 array, and return it (see :func:`normalize_probs`).

    The checks run on the whole stack at once, and each nudge pass moves
    the largest entry of every row whose sum is not yet 1.0.
    """
    rows = p.reshape(-1, p.shape[-1])
    # np.minimum.reduce and np.add.reduce are what ndarray.min and .sum
    # call, minus a Python-level wrapper
    low = np.minimum.reduce(rows, axis=-1)
    np.maximum(rows, 0.0, out=rows)
    total = np.add.reduce(rows, axis=-1, keepdims=True)
    # NaN compares false, and an infinity leaves low or total out of range
    ok = (low >= -_NEG_TOL) & (np.abs(total[:, 0] - 1.0) <= _SUM_TOL)
    if not ok.all():
        _reject(rows, low)
    rows /= total
    for _ in range(3):
        sums = np.add.reduce(rows, axis=-1)
        off = np.flatnonzero(sums != 1.0)
        if not off.size:
            break
        rows[off, rows[off].argmax(axis=-1)] += 1.0 - sums[off]
    return p


def normalize_probs(probs) -> np.ndarray:
    """A normalized float64 copy of probability vectors along the last axis.

    Each vector has its tiny negatives clamped and anything worse rejected,
    a sum within ``1e-9`` of one renormalized, and then its largest entry
    nudged toward an exact float sum.  The nudge usually lands bitwise on
    1.0 but cannot always: numpy's blocked summation can step over it, so
    the sum is 1.0 to within 2 ulp.  The first bad vector raises the
    ``ValueError`` it raises alone.
    """
    return _normalize(np.array(probs, dtype=np.float64, order="C"))


class DiscreteDistribution:
    """An immutable probability vector whose float sum is 1.0 to within 2 ulp.

    Construction validates and normalizes the vector with
    :func:`normalize_probs`.  Within-2-ulp is the contract; both downstream
    samplers (multinomial, inverse-CDF with a clamped final bin) accept that.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = np.array(probs, dtype=np.float64, order="C")
        if p.ndim != 1 or p.size < 1:
            raise ShapeMismatch(f"probability vector must be 1-D and non-empty, got shape {p.shape}")
        _normalize(p)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

    @property
    def n(self) -> int:
        return self.probs.size

    def __repr__(self):
        return f"DiscreteDistribution(n={self.n})"


def _paired(P: DiscreteDistribution, Q: DiscreteDistribution):
    if P.n != Q.n:
        raise ShapeMismatch(f"distributions live on different supports: {P.n} vs {Q.n}")
    return P.probs, Q.probs


def tv(P: DiscreteDistribution, Q: DiscreteDistribution) -> float:
    """Total variation distance, half the l1 difference."""
    p, q = _paired(P, Q)
    _, t = _kernels.h2_tv(p, q)
    return float(t)


def hellinger_sq(P: DiscreteDistribution, Q: DiscreteDistribution) -> float:
    """Squared Hellinger distance, 1 minus the Bhattacharyya coefficient.

    Computed as half the squared l2 gap of the root-probability vectors,
    which is the same quantity without the cancellation: identical inputs
    give exactly 0.  Clamped into [0, 1].
    """
    p, q = _paired(P, Q)
    h2, _ = _kernels.h2_tv(p, q)
    return float(h2)


def sandwich_holds(h2, t):
    """Whether H^2 <= TV <= sqrt(2 H^2) holds for a pair's squared Hellinger
    distance ``h2`` and total variation ``t``, each side up to 1e-12; for
    arrays, for each pair.  A NaN fails."""
    return (h2 <= t + 1e-12) & (t <= np.sqrt(2.0 * h2) + 1e-12)


def mean_under(P: DiscreteDistribution, values) -> float:
    """Expectation of a value vector under P."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.shape != (P.n,):
        raise ShapeMismatch(f"values must have shape ({P.n},), got {v.shape}")
    return float(P.probs @ v)


def variance_under(P: DiscreteDistribution, values) -> float:
    """Variance of a value vector under P (never negative)."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.shape != (P.n,):
        raise ShapeMismatch(f"values must have shape ({P.n},), got {v.shape}")
    d = v - P.probs @ v
    return max(float(P.probs @ (d * d)), 0.0)


def _inverse_cdf(cdf, u) -> np.ndarray:
    """The outcome index of each uniform in ``u`` under the cumulative sums
    ``cdf``: index for index, ``np.minimum(np.searchsorted(cdf, u,
    side="right"), cdf.size - 1)``.

    Float noise can leave the cdf's last entry a hair below 1.0; the clamp
    puts a u above it in the last bin.  On a small support and many
    uniforms the index is the number of entries of ``cdf[:-1]`` at or
    below u, counted into int8: the cdf is nondecreasing, so that is
    searchsorted's count over the whole cdf with its last entry dropped,
    which is the clamp.  The count makes one pass over ``u`` per outcome,
    so larger supports, and fewer uniforms than pay for the passes, keep
    searchsorted's log n comparisons.  The path depends on the sizes
    alone, never on the values.
    """
    if cdf.size > _COUNT_MAX or u.size < _COUNT_PASS * (cdf.size - 1):
        idx = np.searchsorted(cdf, u, side="right")
        return np.minimum(idx, cdf.size - 1, out=idx)
    idx = np.zeros(u.shape, dtype=np.int8)
    hit = np.empty(u.shape, dtype=bool)
    for c in cdf[:-1]:
        np.greater_equal(u, c, out=hit)
        idx += hit
    return idx


def draw(P: DiscreteDistribution, seed: int, count: int) -> np.ndarray:
    """``count`` iid indices from P via inverse-CDF on a counter-based stream
    (see :func:`_inverse_cdf`).

    The same (P, seed, count) triple always reproduces the same sequence.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    cdf = np.cumsum(P.probs)
    u = generator(seed).random(count)
    return _inverse_cdf(cdf, u).astype(np.int64)
