"""The model spec and the two model families, softmax and leverage score.

A family object owns all that differs between the two: the constraint class
and its spec-file form, the default constraint, the pmf, the optimizers and a
random feasible query.  Its methods look the pmfs and optimizers up through
this module's globals at call time, so rebinding a global (as a tracer does)
reaches every call.
"""

import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError, ShapeMismatch
from .leverage import BoxConstraint, leverage_pmf, require_tall
from .numerics import as_matrix
from .optimize import (
    max_hellinger_leverage,
    max_hellinger_leverage_each,
    max_hellinger_softmax,
    max_hellinger_softmax_each,
    max_variance_leverage,
    max_variance_softmax,
)
from .softmax import EnergyConstraint, softmax_pmf


def _parse_positive(obj, key, path):
    val = obj.get(key)
    # compared exactly, so an integer beyond the float range fails like inf
    if not isinstance(val, (int, float)) or isinstance(val, bool) or not 0 < val <= sys.float_info.max:
        raise InputFormatError(f"{path}: constraint field '{key}' must be a positive number")
    return float(val)


class _Softmax:
    """Queries x with ||x||_2 <= E; the model answers softmax(A x)."""

    constraint_type = EnergyConstraint
    tall = False  # any shape is a softmax model

    def parse_constraint(self, cobj, path):
        if set(cobj) != {"E"}:
            raise InputFormatError(f"{path}: softmax constraint must have exactly the field 'E'")
        limit = _parse_positive(cobj, "E", path)
        try:
            return EnergyConstraint(limit)
        except ValueError as exc:  # a limit whose square overflows
            raise InputFormatError(f"{path}: constraint field 'E': {exc}") from None

    def default_constraint(self, energy, box):
        return EnergyConstraint(energy)

    def pmf(self, A, query):
        return softmax_pmf(A, query)

    def max_hellinger(self, A, B, constraint, cfg):
        return max_hellinger_softmax(A, B, constraint, cfg)

    def max_hellinger_each(self, A, Bs, constraint, cfg, seeds):
        return max_hellinger_softmax_each(A, Bs, constraint, cfg, seeds)

    def max_variance(self, A, M, constraint, cfg):
        return max_variance_softmax(A, M, constraint, cfg)

    def random_query(self, g, shape, constraint):
        """A uniformly random direction, scaled onto the boundary of the ball."""
        d = shape[1]
        x = g.standard_normal(d)
        norm = float(np.linalg.norm(x))
        if norm == 0.0:
            x = np.zeros(d)
            x[0] = 1.0
            norm = 1.0
        return x * (constraint.limit / norm)


class _Leverage:
    """Scale queries s with c <= s_i^2 <= C; the model answers the leverage
    scores of diag(s)^{-1} A over d."""

    constraint_type = BoxConstraint
    tall = True  # leverage scores need at least as many rows as columns

    def parse_constraint(self, cobj, path):
        if set(cobj) != {"c", "C"}:
            raise InputFormatError(f"{path}: leverage constraint must have exactly the fields 'c' and 'C'")
        lo = _parse_positive(cobj, "c", path)
        hi = _parse_positive(cobj, "C", path)
        if lo > hi:
            raise InputFormatError(f"{path}: constraint needs c <= C, got c={lo!r} C={hi!r}")
        return BoxConstraint(lo, hi)

    def default_constraint(self, energy, box):
        return BoxConstraint(*box)

    def pmf(self, A, query):
        return leverage_pmf(A, query)

    def max_hellinger(self, A, B, constraint, cfg):
        return max_hellinger_leverage(A, B, constraint, cfg)

    def max_hellinger_each(self, A, Bs, constraint, cfg, seeds):
        return max_hellinger_leverage_each(A, Bs, constraint, cfg, seeds)

    def max_variance(self, A, M, constraint, cfg):
        return max_variance_leverage(A, M, constraint, cfg)

    def random_query(self, g, shape, constraint):
        """Scales whose squares are uniform in [c, C]."""
        lo, hi = constraint.lo, constraint.hi
        return np.sqrt(lo + g.random(shape[0]) * (hi - lo))


FAMILIES = {"softmax": _Softmax(), "leverage": _Leverage()}


def get_family(name):
    """The family object called ``name``; ValueError for any other name."""
    if not isinstance(name, str) or name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}, expected one of {tuple(FAMILIES)}")
    return FAMILIES[name]


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """One or two concrete models of a family plus their query constraint.

    ``B`` and ``M`` are both optional: sweeps need the perturbation
    direction M (B is built per grid point as A + eps * M), while pairwise
    operations use B directly, falling back to A + M when only M is given.

    ``source`` is the file the spec was loaded from, if any; the errors of
    ``pair`` and ``direction`` name it.

    Specs compare and hash by identity: two specs with equal matrices are
    distinct objects, and a field-wise ``==`` on arrays has no single truth
    value.
    """

    family: str
    A: np.ndarray
    B: np.ndarray | None
    M: np.ndarray | None
    constraint: object
    seed: int = 0
    source: str | None = None

    def __post_init__(self):
        law = get_family(self.family)
        for name in ("A", "B", "M"):
            value = getattr(self, name)
            if value is not None:
                value = as_matrix(value, f"field '{name}'")
                object.__setattr__(self, name, value)
                if value.shape != self.A.shape:
                    raise ShapeMismatch(f"field '{name}' shape {value.shape} does not match 'A' {self.A.shape}")
        if not isinstance(self.constraint, law.constraint_type):
            raise TypeError(f"{self.family} family needs a {law.constraint_type.__name__}")
        if law.tall:
            require_tall(self.A, f"field 'A': a {self.family} model")

    def _named(self, message):
        """``message`` prefixed with the spec's source file, if it has one."""
        return f"{self.source}: {message}" if self.source else message

    def pair(self):
        """(A, B) with B defaulting to A + M; ValueError naming A + M when an
        entry of it overflows."""
        if self.B is not None:
            return self.A, self.B
        if self.M is not None:
            with np.errstate(over="ignore"):
                return self.A, as_matrix(self.A + self.M, self._named("A + M"))
        raise InputFormatError(self._named("model spec has neither 'B' nor 'M'; cannot form a pair"))

    def direction(self):
        """Perturbation direction M, falling back to B - A; ValueError naming
        B - A when an entry of it overflows."""
        if self.M is not None:
            return self.M
        if self.B is not None:
            with np.errstate(over="ignore"):
                return as_matrix(self.B - self.A, self._named("B - A"))
        raise InputFormatError(self._named("model spec has neither 'M' nor 'B'; no perturbation direction"))

    def pmf(self, which: int, query):
        """Output law of A (which = 0) or of B (which = 1) at ``query``."""
        params = self.A if which == 0 else self.pair()[1]
        return FAMILIES[self.family].pmf(params, query)

    def max_hellinger(self, config=None):
        """Hellinger distance between A and B maximized over the constraint."""
        A, B = self.pair()
        return FAMILIES[self.family].max_hellinger(A, B, self.constraint, config)

    def max_variance(self, config=None):
        """The variance functional of A along the direction, maximized."""
        return FAMILIES[self.family].max_variance(self.A, self.direction(), self.constraint, config)

    def optimal_query(self, config=None):
        """Hellinger-optimal query and its H value, deterministic per config."""
        res = self.max_hellinger(config)
        return res.argmax, res.value
