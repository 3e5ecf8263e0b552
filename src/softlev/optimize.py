"""Query optimizers: multi-start projected gradient ascent with finite
differences, over the energy ball (softmax queries) or the box (scale
queries, worked in u = s^{-2} coordinates where the feasible set is a box).

The objectives are cheap, low-dimensional, and smooth almost everywhere but
multimodal, so many seeded restarts with a deterministic boundary-biased
first start beat anything clever.  Results are certified lower bounds: the
reported value is the objective re-evaluated at the reported point.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _kernels
from .errors import RankDeficient, ShapeMismatch, ZeroLeverage
from .leverage import require_tall
from .numerics import as_matrix
from .rng import derive_seed, generator

_MIN_STEP = 1e-14
STEP_INIT = 0.1  # first line-search step of each restart
GRAD_EPS = 1e-6  # central finite-difference half-width
TOL = 1e-9  # stop when an accepted step improves by less


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be at least 1")


@dataclass(frozen=True)
class OptResult:
    """Outcome of one multi-start run.

    ``value`` is the objective at ``argmax`` (recomputed, not the running
    best); ``iterations_used`` counts ascent iterations summed over all
    restarts; ``converged`` reports whether the winning restart stopped on
    its own rather than hitting the iteration cap.
    """

    argmax: np.ndarray
    value: float
    iterations_used: int
    restarts_used: int
    converged: bool


def _at(F, x):
    """The stacked objective F at the single point x."""
    return float(F(x[None])[0])


def _fd_gradient(F, x, h):
    """Central differences of the stacked objective F at x, from one call of
    F on the probes x + h e_0, x - h e_0, x + h e_1, ... in that order, so a
    failing probe raises as the first one would when evaluated one by one."""
    i = np.arange(x.size)
    probes = np.repeat(x[None], 2 * x.size, axis=0)
    probes[2 * i, i] = x + h
    probes[2 * i + 1, i] = x - h
    vals = F(probes)
    return (vals[0::2] - vals[1::2]) / (2.0 * h)


def _ascend(F, project, x0, cfg):
    """Projected gradient ascent from one start; returns (x, F(x), iters, converged)."""
    x = project(np.array(x0, dtype=np.float64))
    fx = _at(F, x)
    step = STEP_INIT
    converged = False
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        g = _fd_gradient(F, x, GRAD_EPS)
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            converged = True
            break
        direction = g / gnorm
        s = step
        gain = 0.0
        accepted = False
        while s >= _MIN_STEP:
            cand = project(x + s * direction)
            fc = _at(F, cand)
            if fc > fx:
                gain = fc - fx
                x, fx = cand, fc
                step = s * 2.0
                accepted = True
                break
            s *= 0.5
        if not accepted or gain < TOL:
            converged = True
            break
    return x, fx, iters, converged


def _multistart(F, project, starts, cfg):
    """Ascend from every start; returns (x, F(x), iterations summed over all
    restarts, converged) of the best restart."""
    best = None
    total_iters = 0
    for x0 in starts:
        x, fx, iters, conv = _ascend(F, project, x0, cfg)
        total_iters += iters
        if best is None or fx > best[1]:  # strict: ties keep the earliest restart
            best = (x, fx, conv)
    x, fx, conv = best
    return x, fx, total_iters, conv


# ---------------------------------------------------------------------------
# feasible sets: objective wrapper, projector, starts, and the map from the
# point ascended to the model's query
# ---------------------------------------------------------------------------


class _Ball:
    """The energy ball ||x||_2 <= E of softmax queries, worked in x itself."""

    def __init__(self, constraint, A, gap):
        self.limit = constraint.limit
        self.gap = gap

    @staticmethod
    def objective(kernel, A, X):
        return partial(kernel, A, X)

    def project(self, x):
        norm = float(np.linalg.norm(x))
        if norm > self.limit:
            return x * (self.limit / norm)
        return x

    def starts(self, F, cfg):
        """First start: the boundary point aligned with the largest row of
        the gap/direction matrix (distances between nearby softmax models
        grow toward the boundary, and the largest row dominates).  Rest:
        uniform in the ball, seeded per restart index."""
        limit, d = self.limit, self.gap.shape[1]
        row_norms = (self.gap * self.gap).sum(axis=1)
        top = self.gap[int(row_norms.argmax())]
        if row_norms.max() > 0:
            yield top * (limit / math.sqrt(row_norms.max()))
        else:
            e0 = np.zeros(d)
            e0[0] = limit
            yield e0
        for k in range(1, cfg.restarts):
            gen = generator(derive_seed(cfg.seed, "restart", k))
            g = gen.standard_normal(d)
            gn = float(np.linalg.norm(g))
            if gn == 0.0:
                g = np.zeros(d)
                g[0] = 1.0
                gn = 1.0
            radius = limit * gen.random() ** (1.0 / d)
            yield g * (radius / gn)

    @staticmethod
    def query(x):
        return x


_STATUS_ERRORS = {
    _kernels.STATUS_RANK_DEFICIENT: (RankDeficient, "scaled matrix became numerically rank-deficient"),
    _kernels.STATUS_ZERO_LEVERAGE: (ZeroLeverage, "a leverage score vanished inside the box"),
}


class _Box:
    """The scale box c <= s_i^2 <= C of leverage queries, worked in
    u = s^{-2}, where it is the box 1/C <= u_i <= 1/c."""

    def __init__(self, constraint, A, gap):
        require_tall(A)
        self.lo, self.hi = 1.0 / constraint.hi, 1.0 / constraint.lo
        self.n = A.shape[0]

    @staticmethod
    def objective(kernel, A, X):
        """The stacked leverage objective; raises for the first row whose
        status is not OK."""

        def F(U):
            vals, status = kernel(A, X, U)
            bad = np.flatnonzero(status != _kernels.STATUS_OK)
            if bad.size:
                err, msg = _STATUS_ERRORS[int(status[bad[0]])]
                raise err(msg)
            return vals

        return F

    def project(self, u):
        return np.clip(u, self.lo, self.hi)

    def starts(self, F, cfg):
        lo, hi, n = self.lo, self.hi, self.n
        # Corner spot-checks surface rank problems before the ascent loop runs.
        F(np.array([np.full(n, lo), np.full(n, hi)]))
        yield np.full(n, 0.5 * (lo + hi))
        for k in range(1, cfg.restarts):
            gen = generator(derive_seed(cfg.seed, "restart", k))
            yield lo + gen.random(n) * (hi - lo)

    @staticmethod
    def query(u):
        """The scale vector s (positive branch) at u."""
        return 1.0 / np.sqrt(u)


def _maximize(feasible, constraint, kernel, A, X, name, config, hellinger):
    """Maximize ``_kernels.<kernel>(A, X, .)`` over the feasible set built
    from ``constraint``; with ``hellinger`` the kernel is H^2 and the value
    reported is H.  The kernel is looked up at call time, so rebinding it in
    ``_kernels`` reaches every evaluation."""
    cfg = config or OptimizerConfig()
    A = as_matrix(A, "A")
    X = as_matrix(X, name)
    if A.shape != X.shape:
        raise ShapeMismatch(f"A and {name} must share a shape, got {A.shape} vs {X.shape}")
    space = feasible(constraint, A, A - X if hellinger else X)
    F = space.objective(getattr(_kernels, kernel), A, X)
    x, _, iters, conv = _multistart(F, space.project, space.starts(F, cfg), cfg)
    value = _at(F, x)
    return OptResult(
        argmax=space.query(x),
        value=math.sqrt(max(value, 0.0)) if hellinger else value,
        iterations_used=iters,
        restarts_used=cfg.restarts,
        converged=conv,
    )


def max_hellinger_softmax(A, B, constraint, config=None) -> OptResult:
    """Maximize the Hellinger distance between softmax(A x) and softmax(B x)
    over the energy ball.  The reported value is H (not H^2)."""
    return _maximize(_Ball, constraint, "softmax_h2_objective", A, B, "B", config, hellinger=True)


def max_variance_softmax(A, M, constraint, config=None) -> OptResult:
    """Maximize Var_{softmax(A x)}(M x) over the energy ball."""
    return _maximize(_Ball, constraint, "softmax_var_objective", A, M, "M", config, hellinger=False)


def max_hellinger_leverage(A, B, box, config=None) -> OptResult:
    """Maximize the Hellinger distance between the leverage distributions of
    A and B over scale vectors in the box.  ``argmax`` is the scale vector s
    (positive branch); the value is H."""
    return _maximize(_Box, box, "leverage_h2_objective", A, B, "B", config, hellinger=True)


def max_variance_leverage(A, M, box, config=None) -> OptResult:
    """Maximize the variance of the first-order response ratio w under the
    leverage distribution, over scale vectors in the box.  ``argmax`` is s."""
    return _maximize(_Box, box, "leverage_var_objective", A, M, "M", config, hellinger=False)
