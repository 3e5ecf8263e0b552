"""Leverage-score query model: row-scaled leverage distributions and their
first-order response to parameter perturbations.

A model is a tall matrix A (n x d, full column rank).  A query is a scale
vector s with c <= s_i^2 <= C; writing A_s = diag(s)^{-1} A, the model
answers with row index i drawn with probability equal to the i-th leverage
score of A_s divided by d.  Leverage scores are computed from a thin QR
factorization of A_s (squared row norms of the Q factor), never from an
explicit inverse of A_s^T A_s.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .distributions import DiscreteDistribution, normalize_probs
from .errors import ConstraintViolation, DomainError, RankDeficient, ShapeMismatch, ZeroLeverage
from .numerics import as_matrix, as_vector

_SLACK = 1e-12  # relative slack on the box bounds
_DEFICIENT = "scaled matrix diag(s)^{-1} A is numerically rank-deficient"


@dataclass(frozen=True)
class BoxConstraint:
    """Per-coordinate box c <= s_i^2 <= C on squared scales.

    ``lo`` is c and ``hi`` is C.  Scales themselves may be negative (the
    model only sees s_i^2), but never zero.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and 0 < self.lo <= self.hi):
            raise ValueError(f"box must satisfy 0 < lo <= hi, got lo={self.lo!r} hi={self.hi!r}")

    def check(self, s) -> np.ndarray:
        """Validate a scale vector, returning it coerced to float64."""
        s = as_vector(s, "scales")
        with np.errstate(over="ignore"):  # an s_i^2 past the float range is inf, outside the box
            sq = s * s
        if sq.min() < self.lo * (1.0 - _SLACK) or sq.max() > self.hi * (1.0 + _SLACK):
            raise ConstraintViolation(
                f"box constraint violated: s_i^2 range [{float(sq.min())!r}, {float(sq.max())!r}] "
                f"outside [{self.lo!r}, {self.hi!r}]"
            )
        return s

    def scales(self, r):
        """Scales sqrt(c + r (C - c)) of uniform draws r, whose squares are
        uniform in [c, C]."""
        return np.sqrt(self.lo + r * (self.hi - self.lo))


def _scale_vector(query, stack=False) -> np.ndarray:
    s = as_vector(query, "scales", stack)
    if np.abs(s).min() == 0.0:
        raise ConstraintViolation("scales must be nonzero")
    return s


def require_tall(A, name="leverage model"):
    """Raise ShapeMismatch unless A has at least as many rows as columns."""
    n, d = A.shape[-2:]
    if n < d:
        raise ShapeMismatch(f"{name} needs n >= d, got {n} x {d}")


def _scaled(A, query, stack=False):
    """diag(s)^{-1} A and the scales s, validated; with ``stack``, A and s
    may be stacks that broadcast against each other."""
    A = as_matrix(A, "A", stack)
    s = _scale_vector(query, stack)
    n, d = A.shape[-2:]
    if s.shape[-1] != n:
        raise ShapeMismatch(f"scale length {s.shape[-1]} does not match rows {n}")
    require_tall(A)
    return _divided(A, s, "scaled matrix diag(s)^{-1} A"), s


def _divided(A, s, name):
    """diag(s)^{-1} A; DomainError naming ``name`` when an entry overflows."""
    with np.errstate(over="ignore"):
        As = A / s[..., None]
    if not np.isfinite(As).all():
        raise DomainError(f"{name} has non-finite entries")
    return As


def _leverage_probs(As):
    probs, _, ok = _kernels.leverage_probs(As)
    if not np.all(ok):
        raise RankDeficient(_DEFICIENT)
    return probs


def leverage_pmf(A, query) -> DiscreteDistribution:
    """Exact output distribution: i-th leverage score of diag(s)^{-1} A over d."""
    As, _ = _scaled(A, query)
    return DiscreteDistribution(_leverage_probs(As))


def leverage_pmfs(A, S) -> np.ndarray:
    """Leverage distributions of diag(s)^{-1} A for a stack, from one QR call.

    ``A`` is one ``(n, d)`` matrix or a ``(k, n, d)`` stack, ``S`` one scale
    vector or a ``(k, n)`` stack; they broadcast against each other.  Row j
    of the ``(k, n)`` result is bitwise equal to
    ``leverage_pmf(A[j], S[j]).probs``, and a rank-deficient matrix anywhere
    in the stack raises ``RankDeficient`` as ``leverage_pmf`` does.
    """
    As, _ = _scaled(A, S, stack=True)
    return normalize_probs(_leverage_probs(As))


def _w_parts(A, M, query):
    As, s = _scaled(A, query)
    M = as_matrix(M, "M")
    if M.shape != As.shape:
        raise ShapeMismatch(f"M must have shape {As.shape}, got {M.shape}")
    lev, wnum, ok = _kernels.leverage_w_parts(As, _divided(M, s, "scaled direction diag(s)^{-1} M"))
    if not ok:
        raise RankDeficient(_DEFICIENT)
    return lev, wnum, As.shape[1]


def leverage_w(A, M, query) -> np.ndarray:
    """Ratio diag((I - Pi) M_s (A_s^T A_s)^{-1} A_s^T) / leverage scores.

    Pi is the projector onto the column space of A_s, and M_s = diag(s)^{-1} M.
    This is the per-row relative first-order response of the leverage
    distribution when A is perturbed toward M.
    """
    lev, wnum, _ = _w_parts(A, M, query)
    if lev.min() <= _kernels._LEV_FLOOR:
        raise ZeroLeverage(f"leverage score {lev.min():.3e} too small to divide by")
    return wnum / lev


def leverage_pmf_derivative(A, M, query) -> np.ndarray:
    """Entrywise derivative at 0 of eps -> leverage_pmf(A + eps * M, s).

    Equals 2 * diag((I - Pi) M_s (A_s^T A_s)^{-1} A_s^T) / d; the entries sum
    to zero exactly in exact arithmetic (total probability is conserved).
    """
    lev, wnum, d = _w_parts(A, M, query)
    return 2.0 * wnum / d
