"""Query optimizers: multi-start projected gradient ascent with finite
differences, over the energy ball (softmax queries) or the box (scale
queries, worked in u = s^{-2} coordinates where the feasible set is a box).

The objectives are cheap, low-dimensional, and smooth almost everywhere but
multimodal, so many seeded restarts with a deterministic boundary-biased
first start beat anything clever.  Results are certified lower bounds: the
reported value is the objective re-evaluated at the reported point.

All restarts ascend in lockstep.  Each iteration evaluates the
central-difference probes of every live restart in one stacked objective
call.  The line search then runs in rounds: round r evaluates the next 2^r
rungs s, s/2, s/4, ... of every restart still searching, all in one stack,
and a restart stops searching at its first improving rung or once the step
falls below ``_MIN_STEP``.  Each kernel call takes at most
``_MAX_ELEMENTS`` matrix elements (rows times ``A.size``); larger stacks are
split.  Every stacked row is bitwise equal to evaluating that point alone,
so each restart follows exactly the path it follows on its own, and the
result is the one restart-by-restart ascent gives.  Errors follow that order
too: the optimizer raises for the lowest-index restart that fails, at its
first failing evaluation; a rung evaluated beyond the accepted one is
ignored.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import RankDeficient, ShapeMismatch, ZeroLeverage
from .leverage import require_tall
from .numerics import as_matrix
from .rng import derive_seeds, generators

_MIN_STEP = 1e-14
_MAX_ELEMENTS = 2**16  # matrix elements per kernel call: rows times A.size
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


_STATUS_ERRORS = {
    _kernels.STATUS_RANK_DEFICIENT: (RankDeficient, "scaled matrix became numerically rank-deficient"),
    _kernels.STATUS_ZERO_LEVERAGE: (ZeroLeverage, "a leverage score vanished inside the box"),
}


def _first_error(status):
    """The error for the first row whose status is not OK, or None."""
    bad = np.flatnonzero(status != _kernels.STATUS_OK)
    if bad.size:
        err, msg = _STATUS_ERRORS[int(status[bad[0]])]
        return err(msg)
    return None


def _capped(F, rows):
    """The stacked objective F, called on at most ``rows`` rows at a time."""

    def G(X):
        if len(X) <= rows:
            return F(X)
        parts = [F(X[i : i + rows]) for i in range(0, len(X), rows)]
        return tuple(np.concatenate(p) for p in zip(*parts))

    return G


def _probes(X, h):
    """The central-difference probes of each row x of X, restart after
    restart: x + h e_0, x - h e_0, x + h e_1, ..."""
    k, dim = X.shape
    i = np.arange(dim)
    P = np.repeat(X, 2 * dim, axis=0).reshape(k, 2 * dim, dim)
    P[:, 2 * i, i] = X + h
    P[:, 2 * i + 1, i] = X - h
    return P.reshape(k * 2 * dim, dim)


def _slopes(vals, dim, h):
    """The central differences of the objective values at ``_probes(X, h)``,
    one gradient row per row of X."""
    V = vals.reshape(-1, 2 * dim)
    return (V[:, 0::2] - V[:, 1::2]) / (2.0 * h)


def _norms(X):
    """The 2-norm of each row of X, bitwise equal to np.linalg.norm of that
    row, which is sqrt(x.dot(x)): a stacked matmul keeps that dot."""
    return np.sqrt(_kernels._dot(X, X))


def _multistart(F, project, starts, cfg):
    """Projected gradient ascent from every start, all restarts in lockstep.

    F maps a stack of points to (values, status codes).  Returns (x,
    iterations summed over all restarts, converged) of the best restart;
    strictly better wins, so ties keep the earliest.  Raises the error that
    the lowest-index failing restart meets first.
    """
    x = project(np.array(starts, dtype=np.float64))
    k, dim = x.shape
    fx, status = F(x)
    step = np.full(k, STEP_INIT)
    gain = np.zeros(k)
    direction = np.zeros_like(x)
    iters = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    failed, error = k, None  # the lowest-index restart that failed, and its error

    def survivors(rows, blocks):
        """Record the lowest-index failure among ``rows``, whose status
        codes in loop order are the rows of ``blocks``; mask of the rows
        before every failure so far."""
        nonlocal failed, error
        bad = np.flatnonzero((blocks != _kernels.STATUS_OK).any(axis=1))
        if bad.size and rows[bad[0]] < failed:
            failed, error = int(rows[bad[0]]), _first_error(blocks[bad[0]])
        return rows < failed

    live = np.arange(k)
    live = live[survivors(live, status[:, None])]
    for it in range(1, cfg.max_iters + 1):
        if not live.size:
            break
        vals, status = F(_probes(x[live], GRAD_EPS))
        keep = survivors(live, status.reshape(live.size, 2 * dim))
        live, g = live[keep], _slopes(vals, dim, GRAD_EPS)[keep]
        iters[live] = it
        gnorm = _norms(g)
        moving = gnorm != 0.0
        converged[live[~moving]] = True
        live = live[moving]
        direction[live] = g[moving] / gnorm[moving, None]

        # Line search: each round evaluates the next ``width`` rungs s, s/2,
        # ... of every searching restart, down to _MIN_STEP, in one stack;
        # a restart's first rung that fails or improves ends its search.
        accepted = np.zeros(k, dtype=bool)
        s = step.copy()  # each restart's next rung
        searching, width = live, 1
        while searching.size:
            rungs = s[searching, None] * 0.5 ** np.arange(width)
            valid = rungs >= _MIN_STEP
            at = np.full(rungs.shape, -1)  # the row of cand holding each valid rung
            at[valid] = np.arange(valid.sum())
            cand = project((x[searching, None] + rungs[:, :, None] * direction[searching, None])[valid])
            vals, status = F(cand)
            ends = np.zeros(rungs.shape, dtype=bool)
            better = vals > np.broadcast_to(fx[searching, None], rungs.shape)[valid]
            ends[valid] = (status != _kernels.STATUS_OK) | better
            col = ends.argmax(axis=1)
            first = at[np.arange(searching.size), col]
            decided = ends.any(axis=1)
            codes = np.where(decided, status[first], _kernels.STATUS_OK)
            keep = survivors(searching, codes[:, None])
            win = decided & keep & (codes == _kernels.STATUS_OK)
            r, j = searching[win], first[win]
            gain[r] = vals[j] - fx[r]
            x[r], fx[r], step[r] = cand[j], vals[j], rungs[win, col[win]] * 2.0
            accepted[r] = True
            s[searching] = rungs[:, -1] * 0.5
            searching = searching[keep & ~decided & (s[searching] >= _MIN_STEP)]
            width *= 2

        live = live[live < failed]
        stop = ~accepted[live] | (gain[live] < TOL)
        converged[live[stop]] = True
        live = live[~stop]
    if error is not None:
        raise error
    best = 0
    for r in range(1, k):
        if fx[r] > fx[best]:
            best = r
    return x[best], int(iters.sum()), bool(converged[best])


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
        """The stacked softmax objective, with an OK status for every row."""
        return lambda P: (kernel(A, X, P), np.zeros(len(P), dtype=np.int64))

    def project(self, X):
        """Each row of X, scaled back onto the ball if it lies outside."""
        norms = _norms(X)
        outside = norms > self.limit
        return X * np.divide(self.limit, norms, out=np.ones_like(norms), where=outside)[:, None]

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
        for gen in generators(derive_seeds(cfg.seed, "restart", indices=range(1, cfg.restarts))):
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


class _Box:
    """The scale box c <= s_i^2 <= C of leverage queries, worked in
    u = s^{-2}, where it is the box 1/C <= u_i <= 1/c."""

    def __init__(self, constraint, A, gap):
        require_tall(A)
        self.lo, self.hi = 1.0 / constraint.hi, 1.0 / constraint.lo
        self.n = A.shape[0]

    def objective(self, kernel, A, X):
        """The stacked leverage objective, with its status code per row.

        When the lower bound 1/C lies below GRAD_EPS, a finite-difference
        probe u - GRAD_EPS e_i can reach u_i <= 0, outside the domain u > 0.
        Such a coordinate is evaluated at the lower bound instead; every
        other coordinate is evaluated as it is."""
        lo = self.lo
        return lambda U: kernel(A, X, np.where(U > 0.0, U, lo))

    def project(self, U):
        return np.clip(U, self.lo, self.hi)

    def starts(self, F, cfg):
        lo, hi, n = self.lo, self.hi, self.n
        # Corner spot-checks surface rank problems before the ascent loop runs.
        error = _first_error(F(np.array([np.full(n, lo), np.full(n, hi)]))[1])
        if error is not None:
            raise error
        yield np.full(n, 0.5 * (lo + hi))
        for gen in generators(derive_seeds(cfg.seed, "restart", indices=range(1, cfg.restarts))):
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
    F = _capped(space.objective(getattr(_kernels, kernel), A, X), max(1, _MAX_ELEMENTS // A.size))
    x, iters, conv = _multistart(F, space.project, list(space.starts(F, cfg)), cfg)
    value = float(F(x[None])[0][0])
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
