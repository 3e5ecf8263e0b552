"""Closed-form distance bounds for logit gaps, extremal instances attaining
them, and the scalar quantities driving sample-complexity lower bounds.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import INDISTINGUISHABLE, DegenerateModel, DomainError, ShapeMismatch
from .numerics import as_matrix, gram, min_eigenvalue, row_gram_gap, two_to_infty_norm

_GRAM_FLOOR = 1e-12
_SAT_SLACK = 1e-9  # relative slack in BoundReport.satisfied


def lemma_h2_bound(eps: float) -> float:
    """Largest squared Hellinger distance achievable by raising any subset of
    logits by exactly ``eps``: (1 - e^{eps/4})^2 / (1 + e^{eps/2}).

    Computed via expm1 so small eps keeps full relative accuracy
    (the value behaves like eps^2 / 32 near zero); where that overflows
    (eps > 1419.6 or so), as the equal (1 - e^{-eps/4})^2 / (1 + e^{-eps/2}).
    """
    if not (eps >= 0 and math.isfinite(eps)):
        raise DomainError(f"eps must be a finite nonnegative number, got {eps!r}")
    try:
        return math.expm1(eps / 4.0) ** 2 / (1.0 + math.exp(eps / 2.0))
    except OverflowError:
        return math.expm1(-eps / 4.0) ** 2 / (1.0 + math.exp(-eps / 2.0))


def lemma_tv_bound(eps: float) -> float:
    """Largest total variation achievable by a one-sided logit gap of eps:
    tanh(eps / 4)."""
    if not (eps >= 0 and math.isfinite(eps)):
        raise DomainError(f"eps must be a finite nonnegative number, got {eps!r}")
    return math.tanh(eps / 4.0)


def extremal_pair(n: int, m: int, eps: float):
    """Logit vectors (a, b) whose softmax laws attain both gap bounds exactly.

    The first ``m`` coordinates carry total unnormalized mass e^{-eps/2}
    under a, the remaining n - m carry total mass 1; b raises the first m
    logits by eps.
    """
    if not (isinstance(n, (int, np.integer)) and isinstance(m, (int, np.integer)) and 1 <= m < n):
        raise DomainError(f"need integers 1 <= m < n, got m={m!r}, n={n!r}")
    if not (eps > 0 and math.isfinite(eps)):
        raise DomainError(f"eps must be positive and finite, got {eps!r}")
    a = np.empty(n)
    a[:m] = 0.0 - eps / 2.0 - math.log(m)  # 0.0 - x: a zero logit is +0.0
    a[m:] = 0.0 - math.log(n - m)
    b = a.copy()
    b[:m] += eps
    return a, b


def softmax_lb_quantity(A, B, energy: float):
    """(gap * E)^{-2} with gap = max row norm of A - B.

    This is the order of the number of queries any tester needs to separate
    the two softmax models under energy limit E.  Returns the
    ``INDISTINGUISHABLE`` marker when A == B exactly, and inf where the
    quantity passes the float range.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape != B.shape:
        raise ShapeMismatch(f"A and B must share a shape, got {A.shape} vs {B.shape}")
    if not (energy > 0 and math.isfinite(energy)):
        raise DomainError(f"energy must be positive and finite, got {energy!r}")
    if np.array_equal(A, B):
        return INDISTINGUISHABLE
    # A/2 - B/2 cannot overflow; with no subnormal in A - B, x is gap * E bitwise
    x = two_to_infty_norm(A / 2.0 - B / 2.0) * energy * 2.0
    try:
        return x**-2.0
    except (OverflowError, ZeroDivisionError):  # past the float range
        return math.inf


def leverage_lb_quantity(A, B, box):
    """c * lambda_min(A^T A) / (C * row-gram gap) for a leverage pair.

    Large values mean the pair is hard to distinguish anywhere in the box.
    Returns the ``INDISTINGUISHABLE`` marker when the row-wise Gram gap is
    exactly zero, and raises ``DegenerateModel`` when A^T A is numerically
    singular (the model itself is invalid then).
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape != B.shape:
        raise ShapeMismatch(f"A and B must share a shape, got {A.shape} vs {B.shape}")
    delta = min_eigenvalue(gram(A))
    if delta <= _GRAM_FLOOR:
        raise DegenerateModel(f"lambda_min(A^T A) = {delta:.3e} is numerically singular")
    eps = row_gram_gap(A, B)
    if eps == 0.0:
        return INDISTINGUISHABLE
    return box.lo * delta / (box.hi * eps)


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality: observed_value must not exceed bound_value.

    ``satisfied`` allows relative slack 1e-9 so float noise on an exactly
    tight bound does not read as a violation.
    """

    bound_name: str
    parameters: dict
    bound_value: float
    observed_value: float
    satisfied: bool = field(init=False)

    def __post_init__(self):
        ok = self.observed_value <= self.bound_value * (1.0 + _SAT_SLACK)
        object.__setattr__(self, "satisfied", bool(ok))

    @property
    def ratio(self) -> float:
        """observed / bound; inf when the bound is zero but observed is not."""
        if self.bound_value == 0.0:
            return 0.0 if self.observed_value == 0.0 else math.inf
        return self.observed_value / self.bound_value
