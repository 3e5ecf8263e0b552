"""The model spec and the two model families, softmax and leverage score.

A family object owns all that differs between the two: the constraint class
and its spec-file form, the default constraint, the pmf, the optimizers, a
random feasible query and the local-expansion (Taylor) check, whose report
types live here too.  Its methods look the pmfs, the distance and the
optimizers up through this module's globals at call time, so rebinding a
global (as a tracer does) reaches every call.
"""

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from .distributions import hellinger_sq, variance_under
from .errors import DomainError, InputFormatError, ShapeMismatch
from .leverage import BoxConstraint, _w_parts, leverage_pmf, require_tall
from .numerics import as_matrix
from .optimize import (
    ASCENT_ERRORS,
    max_hellinger_leverage,
    max_hellinger_leverage_each,
    max_hellinger_softmax,
    max_hellinger_softmax_each,
    max_variance_leverage,
    max_variance_softmax,
)
from .softmax import EnergyConstraint, softmax_pmf

TAYLOR_EPS = (1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class TaylorRow:
    eps: float
    h2: float
    reference: float  # (1/2) eps^2 Var_P(score): the half-normalized yardstick
    ratio_half: float  # h2 / reference
    ratio_eighth: float  # h2 / ((1/8) eps^2 Var_P(score))


@dataclass(frozen=True)
class TaylorReport:
    family: str
    degenerate: bool
    query: np.ndarray | None
    rows: tuple = ()
    # both families' flags
    band_ok: bool | None = None  # ratio_half at eps = 1e-3 within (1/4) [0.9, 1.1]
    converging_eighth: bool | None = None  # |ratio_eighth - 1| shrinks from 1e-3 to 1e-4
    # softmax figures
    zratio_dev: float | None = None  # |Z ratio - (1 + eps <p, Mx>)| at eps = 1e-4
    zratio_ok: bool | None = None  # dev within 2 eps^2
    # leverage figures
    derivative_max_err: float | None = None
    derivative_sum: float | None = None
    derivative_ok: bool | None = None  # max err <= 1e-4 and |sum| <= 1e-10

    def figures(self):
        """(name, value) of every computed figure, in field order: the
        family, the degenerate flag, then the family's flags and figures."""
        return [
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if f.name not in ("query", "rows") and getattr(self, f.name) is not None
        ]

    @property
    def ok(self) -> bool:
        """Gate only exact-identity checks; measured-constant bands are reported."""
        return self.derivative_ok is not False


def _expansion(family, query, P, pmf_at, score, name, cause="the matrix entries are too big"):
    """The Taylor rows and flags of either family at ``query``.

    ``P`` is the pmf at A, ``pmf_at(eps)`` the pmf at A + eps M, and
    ``score`` the score d log p_i / d eps at eps = 0, called ``name`` in
    errors.  H^2 = (1/8) eps^2 Var_P(score) + O(eps^3), so ratio_half tends
    to 1/4 and ratio_eighth to 1.  The report is degenerate when the
    variance is 0; a variance that is not finite is a DomainError ending in
    ``cause``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        var = variance_under(P, score)
    if not math.isfinite(var):
        raise DomainError(f"Var_P({name}) is not finite; {cause}")
    if var == 0.0:
        return TaylorReport(family, True, np.asarray(query))
    rows = []
    for eps in TAYLOR_EPS:
        h2 = hellinger_sq(P, pmf_at(eps))
        ref = 0.5 * eps * eps * var
        if 0.25 * ref == 0.0:
            raise DomainError(f"(1/8) eps^2 Var_P({name}) is 0 at eps = {eps}; the direction is too small")
        rows.append(TaylorRow(eps, h2, ref, h2 / ref, h2 / (0.25 * ref)))
    by_eps = {r.eps: r for r in rows}
    band = 0.25 * 0.9 <= by_eps[1e-3].ratio_half <= 0.25 * 1.1
    converging = abs(by_eps[1e-4].ratio_eighth - 1.0) < abs(by_eps[1e-3].ratio_eighth - 1.0)
    return TaylorReport(family, False, np.asarray(query), tuple(rows), band_ok=band, converging_eighth=converging)


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

    def taylor(self, model, query):
        """``run_taylor_check`` of a softmax model at a checked query: the
        score is Mx, plus the partition-function ratio at eps = 1e-4."""
        A, M = model.A, model.direction()
        P = softmax_pmf(A, query)
        with np.errstate(over="ignore", invalid="ignore"):
            v = M @ query
        report = _expansion("softmax", query, P, lambda eps: softmax_pmf(A + eps * M, query), v, "Mx")
        if report.degenerate:
            return report
        eps = 1e-4
        with np.errstate(over="ignore", invalid="ignore"):
            zratio = float(P.probs @ np.exp(eps * v))  # Z_{A+eps M} / Z_A, exactly
        if not math.isfinite(zratio):
            raise DomainError("Z_{A+eps M} / Z_A is not finite; the matrix entries are too big")
        zdev = abs(zratio - (1.0 + eps * float(P.probs @ v)))
        return replace(report, zratio_dev=zdev, zratio_ok=zdev <= 2.0 * eps * eps)


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
        return constraint.scales(g.random(shape[0]))

    def taylor(self, model, query):
        """``run_taylor_check`` of a leverage model at a checked query: the
        score is 2 W_ii / lev_i, plus the pmf derivative against central
        differences."""
        A, M = model.A, model.direction()
        s = np.asarray(query, dtype=np.float64)
        lev, wnum, d = _w_parts(A, M, s)
        deriv = 2.0 * wnum / d  # as leverage_pmf_derivative computes it
        fd_eps = 1e-6
        fd = (leverage_pmf(A + fd_eps * M, s).probs - leverage_pmf(A - fd_eps * M, s).probs) / (2.0 * fd_eps)
        max_err, dsum = float(np.abs(deriv - fd).max()), float(deriv.sum())
        with np.errstate(all="ignore"):  # 0 / 0 on a zero row of A, unless the direction is degenerate
            score = 2.0 * wnum / lev if wnum.any() else wnum
        P, pmf_at = leverage_pmf(A, s), lambda eps: leverage_pmf(A + eps * M, s)
        cause = "a leverage score is 0 or an entry too big"
        report = _expansion("leverage", s, P, pmf_at, score, "2 W_ii / lev_i", cause)
        ok = max_err <= 1e-4 and abs(dsum) <= 1e-10
        return replace(report, derivative_max_err=max_err, derivative_sum=dsum, derivative_ok=ok)


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

    @contextmanager
    def locating(self, phase=None):
        """Re-raise an optimizer error (``ASCENT_ERRORS``, which a taylor
        check raises too) as its own class, its message prefixed by the
        spec's file and ``phase``, if given: ``SPEC: phase: message``."""
        try:
            yield
        except ASCENT_ERRORS as exc:
            raise type(exc)(self._named(f"{phase}: {exc}" if phase else str(exc))) from None

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