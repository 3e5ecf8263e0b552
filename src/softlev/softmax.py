"""Softmax query model: energy-constrained queries and their exact output law.

A model is a parameter matrix A (n rows of logit directions, d columns).  A
query is a vector x with ||x||_2 <= E; the model answers with a sample from
softmax(A x).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .distributions import DiscreteDistribution, draw, normalize_probs
from .errors import ConstraintViolation, ShapeMismatch
from .numerics import as_matrix, as_vector

_SLACK = 1.0 + 1e-12  # relative slack so projections onto the boundary pass


@dataclass(frozen=True)
class EnergyConstraint:
    """Euclidean ball constraint ||x||_2 <= limit."""

    limit: float

    def __post_init__(self):
        if not (np.isfinite(self.limit) and self.limit > 0):
            raise ValueError(f"energy limit must be positive and finite, got {self.limit!r}")
        # Norms inside the ball are sqrt(x . x); past sqrt(max float) the dot
        # overflows and the projection collapses every point to zero.
        if not math.isfinite(float(self.limit) * float(self.limit)):
            raise ValueError(f"energy limit must have a finite square, got {self.limit!r}")

    def check(self, x) -> np.ndarray:
        """Validate a query vector, returning it coerced to float64."""
        x = as_vector(x, "query")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(x))
        if norm > self.limit * _SLACK:
            if math.isinf(norm):  # x . x overflowed
                norm = math.hypot(*x.tolist())
            raise ConstraintViolation(
                f"energy constraint violated: ||x||_2 = {norm!r} exceeds limit {self.limit!r}"
            )
        return x


@dataclass(frozen=True)
class SoftmaxQuery:
    """A query vector bundled with the constraint it satisfies."""

    x: np.ndarray
    constraint: EnergyConstraint

    def __post_init__(self):
        object.__setattr__(self, "x", self.constraint.check(self.x))
        self.x.setflags(write=False)


def _query_vector(query) -> np.ndarray:
    if isinstance(query, SoftmaxQuery):
        return query.x
    return as_vector(query, "query")


def softmax_pmf(A, query) -> DiscreteDistribution:
    """Exact output distribution softmax(A x).

    Logits are shifted by their maximum before exponentiation, so inputs
    with large magnitudes neither overflow nor collapse to zero.
    """
    A = as_matrix(A, "A")
    x = _query_vector(query)
    if x.size != A.shape[1]:
        raise ShapeMismatch(f"query length {x.size} does not match parameter columns {A.shape[1]}")
    return DiscreteDistribution(_kernels.softmax_probs(A @ x))


def softmax_pmfs(logits) -> np.ndarray:
    """softmax of each row of a ``(k, n)`` logit stack, in one kernel call.

    Row j is bitwise equal to ``softmax_pmf(A_j, x_j).probs`` when
    ``logits[j]`` is ``A_j @ x_j``.
    """
    return normalize_probs(_kernels.softmax_probs(np.asarray(logits, dtype=np.float64)))


def softmax_sample(A, query, seed: int, count: int) -> np.ndarray:
    """``count`` iid outcome indices from softmax(A x), seeded."""
    return draw(softmax_pmf(A, query), seed, count)
