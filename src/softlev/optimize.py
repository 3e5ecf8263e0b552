"""Query optimizers: multi-start projected gradient ascent with closed-form
gradients, over the energy ball (softmax queries) or the box (scale
queries, worked in u = s^{-2} coordinates where the feasible set is a box).

The objectives are cheap, low-dimensional, and smooth almost everywhere but
multimodal, so many seeded restarts with a deterministic boundary-biased
first start beat anything clever.  Results are certified lower bounds: the
reported value is the objective's value from the call that accepted the point.

All restarts ascend in lockstep.  Each objective kernel
(``<name>_objective`` in ``_kernels``) returns, with its values and status
codes, the gradient at every row, so a restart keeps the gradient of its
current point from the call that evaluated that point: the start
evaluation, then the line-search row it accepted.  An iteration costs only
its line search, which runs in rounds.  The first round evaluates one rung
per climbing restart, its own step s, all in one stack; on the ball nearly
every restart is decided there.  Only the restarts it leaves undecided walk
the doubling ladder: each further round evaluates their next 2, 4, 8, ...
rungs s/2, s/4, ..., in one stack, and a restart stops searching at its
first improving rung or once the step falls below ``_MIN_STEP``.  A round
with no row to evaluate makes no kernel call.  On the box, a rung that the
clip maps back onto its restart's point also ends the search, unevaluated:
it and every smaller rung would come back to that point and improve
nothing (``_multistart`` has the proof).  The ball is exempt: its
rescaling is not monotone bitwise, so its searches walk the whole ladder.
Each kernel call takes at most ``_MAX_ELEMENTS // A.size`` rows; larger
stacks are split.  Every stacked row, gradient included, is bitwise equal
to evaluating that point alone, so each restart follows exactly the path
it follows on its own, and the result is the one restart-by-restart ascent
gives.  Errors follow that order too: a restart's first failing evaluation
(a rung beyond the accepted one is ignored) ends its climb and is its one
failure code, and the optimizer raises the code of the lowest-index
restart that fails.  Failures surface only at evaluated points (the
starts, the box's corner checks and the line-search rungs), and a gradient
is used only from a point whose objective status was OK: only such a point
becomes a restart's current point.  A skipped rung that comes back to its
start is such a point, so skipping it hides no failure.

Several problems that share A and the feasible set but differ in B (or M),
such as the grid points of a sweep, ascend as one lockstep run
(``max_hellinger_softmax_each``, ``max_hellinger_leverage_each``): each
kernel row carries its own problem's B from a ``(p, n, d)`` stack, and the
bookkeeping (failures, the best restart, iterations) is kept per problem, so
every problem gets the result or error of its own run, and one failing
problem leaves the others alone.  A single ``max_*`` call is this run with
one problem.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import DomainError, RankDeficient, ShapeMismatch, ZeroLeverage
from .leverage import require_tall
from .numerics import as_matrix
from .rng import derive_seeds, generators

_MIN_STEP = 1e-14
# Rows per kernel call times A.size; the H^2 kernels stack A and B, so a
# call of theirs holds up to twice this many matrix elements.
_MAX_ELEMENTS = 2**16
STEP_INIT = 0.1  # first line-search step of each restart
# s * _LADDER[:w] is the rungs s, s/2, ..., s/2^(w-1), exactly; a round
# wider than 64 rungs (a step of at least 2^127 _MIN_STEP) builds its own.
_LADDER = 0.5 ** np.arange(64)
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

    ``value`` is the objective at ``argmax``, from the kernel call that
    accepted it; ``iterations_used`` counts ascent iterations summed over
    all restarts; ``converged`` reports whether the winning restart stopped
    on its own rather than hitting the iteration cap.
    """

    argmax: np.ndarray
    value: float
    iterations_used: int
    converged: bool


_STATUS_ERRORS = {
    _kernels.STATUS_RANK_DEFICIENT: (RankDeficient, "scaled matrix became numerically rank-deficient"),
    _kernels.STATUS_ZERO_LEVERAGE: (ZeroLeverage, "a leverage score vanished inside the box"),
    _kernels.STATUS_NON_FINITE: (DomainError, "the objective is not finite; the matrix entries are too big"),
}
ASCENT_ERRORS = tuple(err for err, _ in _STATUS_ERRORS.values())  # what a failing ascent raises


def _first_error(status):
    """The error for the first row whose status is not OK, or None."""
    bad = np.flatnonzero(status != _kernels.STATUS_OK)
    if bad.size:
        err, msg = _STATUS_ERRORS[int(status[bad[0]])]
        return err(msg)
    return None


def _capped(F, rows):
    """The stacked kernel F(X, problems), called on at most ``rows`` rows at
    a time, each part of X with the same part of ``problems``; F returns a
    tuple of arrays, each with one entry per row."""

    def G(X, problems):
        if len(X) <= rows:
            return F(X, problems)
        parts = [F(X[i : i + rows], problems[i : i + rows]) for i in range(0, len(X), rows)]
        return tuple(np.concatenate(p) for p in zip(*parts))

    return G


def _norms(X):
    """The 2-norm of each row of X, bitwise equal to np.linalg.norm of that
    row, which is sqrt(x.dot(x)): a stacked matmul keeps that dot."""
    return np.sqrt(_kernels._dot(X, X))


def _multistart(F, project, starts, owners, cfg, clips=False):
    """Projected gradient ascent from every start, all restarts in lockstep.

    Restart r belongs to problem ``owners[r]`` (non-decreasing).  F maps a
    stack of points and the problem of each to new arrays of (values,
    status codes, gradients), which the ascent may write into; a gradient
    row is read only where its status is OK.  With ``clips``, ``project``
    must be a coordinatewise clip onto a box, and a rung that it maps back
    onto its restart's point ends that restart's line search unevaluated
    (see the proof below).  Each restart's first failing evaluation ends
    its climb and is its failure code; the other restarts climb on.
    Returns a dict from each problem to (x, value at x, iterations summed
    over its restarts, converged) of its best restart; strictly better
    wins, so ties keep the earliest.  A problem with a failing restart maps
    instead to the error of its lowest-index failing restart's code.  No
    problem's restarts affect another's.

    The restarts still climbing are kept in compact arrays, by their place
    among them; a restart's point and value go back to the full arrays
    when it stops.  An iteration's line search runs in rounds.  The first
    evaluates one rung per restart, its own step s, which is at least
    2 _MIN_STEP; when every restart accepts it, its rows are the next
    iteration's state as they stand.  The restarts that it leaves undecided
    walk the doubling ladder: round r evaluates their next 2^r rungs s/2,
    s/4, ..., down to _MIN_STEP, in one stack.  A restart climbs on only if
    it accepted a rung that improved by at least TOL; one that stopped
    otherwise, or at a zero gradient, has converged.
    """
    x = project(np.array(starts, dtype=np.float64))
    k = len(x)
    owners = np.asarray(owners)
    fx, code, grad = F(x, owners)  # code[r] is restart r's status
    iters = np.zeros(k, dtype=np.int64)
    # Restart live[p] is at X[p], with value FX[p], gradient G[p] there
    # (from the call that evaluated X[p]) and next step S[p].
    live = (code == _kernels.STATUS_OK).nonzero()[0]
    X, FX, G, own = x.take(live, 0), fx.take(live), grad.take(live, 0), owners.take(live)
    S = np.full(live.size, STEP_INIT)

    def stop(places, it):
        """The restarts at ``places`` stop climbing in iteration it."""
        gone = live.take(places)
        x[gone], fx[gone], iters[gone] = X.take(places, 0), FX.take(places), it

    def settle(p, j, rung, vals, status, Gj, cand):
        """The restarts at places p ended their searches at row j of this
        round, on rungs ``rung``: a failing row ends the climb with its
        code, an improving one is accepted."""
        bad = status[j] != _kernels.STATUS_OK
        if np.count_nonzero(bad):
            code[live[p[bad]]] = status[j[bad]]
            p, j, rung = p[~bad], j[~bad], rung[~bad]
        v = vals[j]
        climbs[p] = v - FX[p] >= TOL
        X[p], FX[p], G[p], S[p] = cand[j], v, Gj[j], rung * 2.0

    for it in range(1, cfg.max_iters + 1):
        if not live.size:
            break
        gnorm = _norms(G)
        moving = gnorm != 0.0
        if np.count_nonzero(moving) < live.size:  # a zero gradient has converged
            stop((~moving).nonzero()[0], it)
            keep = moving.nonzero()[0]
            live, X, FX, G, S, own, gnorm = (a.take(keep, 0) for a in (live, X, FX, G, S, own, gnorm))
            if not live.size:
                break
        d = G / gnorm[:, None]
        climbs = np.zeros(live.size, dtype=bool)

        # First round: each restart's own step.
        cand = project(X + S[:, None] * d)
        if clips:
            # A rung that the clip maps back onto its restart's point x
            # has the value fx, bitwise (a stacked row equals the point
            # alone), and status OK (only OK restarts climb), so it
            # neither improves nor fails.  So does every smaller rung:
            # the rungs are s * 2^-k, exactly, so |fl(s' d_i)| shrinks
            # with s' and keeps its sign, fl(x_i + t) is monotone in t,
            # and the clip is monotone.  If fl(x_i + t) == x_i, every
            # smaller t of the same sign rounds to x_i too; if the clip
            # took it back to a face, every smaller t still lies beyond
            # that face.  Walking them would find none better and end the
            # search unaccepted; the first returning rung ends it here,
            # and it and the rungs after it are never evaluated.
            held = (cand != X).any(axis=1).nonzero()[0]
            cand = cand.take(held, 0)
        else:
            held = np.arange(live.size)
        searching = held[:0]  # the restarts whose first round leaves them undecided
        if held.size:
            vals, status, Gj = F(cand, own.take(held))
            ok = status == _kernels.STATUS_OK
            up = vals > FX.take(held)
            if held.size == live.size and np.count_nonzero(ok & up) == live.size:
                # every restart accepted its first rung: the round's rows are the next state
                climbs = vals - FX >= TOL
                X, FX, G, S = cand, vals, Gj, S * 2.0
            else:
                ends = ~ok | up
                j = ends.nonzero()[0]
                settle(held[j], j, S[held[j]], vals, status, Gj, cand)
                searching = held[~ends]

        # The doubling ladder: round r evaluates the next 2^r rungs s/2,
        # s/4, ... of every restart still searching, down to _MIN_STEP, in
        # one stack; a restart's first rung that fails or improves ends its
        # search.  Only the rows of restarts still searching are read, and
        # settle writes none of them.
        s = S[searching] * 0.5  # each searching restart's next rung
        width = 2
        while searching.size:
            ladder = _LADDER[:width] if width <= _LADDER.size else 0.5 ** np.arange(width)
            rungs = s[:, None] * ladder
            valid = rungs >= _MIN_STEP
            held = searching[valid.nonzero()[0]]  # the restart of each valid rung
            cand = project(X.take(held, 0) + rungs[valid][:, None] * d.take(held, 0))
            if clips:
                back = (cand == X.take(held, 0)).all(axis=1)
                home = np.zeros(rungs.shape, dtype=bool)
                home[valid] = back
                cand, held = cand[~back], held[~back]
                valid &= ~home
                if not valid.any():  # every restart still searching came back
                    break
            at = np.full(rungs.shape, -1)  # the row of cand holding each valid rung
            at[valid] = np.arange(len(cand))
            vals, status, Gj = F(cand, own.take(held))
            ends = np.zeros(rungs.shape, dtype=bool)
            ends[valid] = (status != _kernels.STATUS_OK) | (vals > FX.take(held))
            col = ends.argmax(axis=1)
            decided = ends.any(axis=1)
            i = decided.nonzero()[0]
            settle(searching[i], at[i, col[i]], rungs[i, col[i]], vals, status, Gj, cand)
            more = ~decided
            if clips:
                more &= ~home.any(axis=1)
            s = rungs[:, -1] * 0.5
            more &= s >= _MIN_STEP
            searching, s = searching[more], s[more]
            width *= 2
        if np.count_nonzero(climbs) < live.size:
            stop((~climbs).nonzero()[0], it)
            keep = climbs.nonzero()[0]
            live, X, FX, G, S, own = (a.take(keep, 0) for a in (live, X, FX, G, S, own))
    x[live], fx[live], iters[live] = X, FX, cfg.max_iters  # still climbing at the iteration cap
    converged = np.ones(k, dtype=bool)  # read only for restarts that never failed
    converged[live] = False
    best, total, failing = {}, {}, {}
    values = fx.tolist()
    for r, (q, n, c) in enumerate(zip(owners.tolist(), iters.tolist(), code.tolist())):
        total[q] = total.get(q, 0) + n
        if c != _kernels.STATUS_OK:
            failing.setdefault(q, r)
        if q not in best or values[r] > values[best[q]]:
            best[q] = r
    return {
        q: _first_error(code[failing[q], None]) if q in failing else (x[r], values[r], total[q], bool(converged[r]))
        for q, r in best.items()
    }


# ---------------------------------------------------------------------------
# feasible sets: projector, starts, and the map from the point ascended to
# the model's query
# ---------------------------------------------------------------------------


class _Ball:
    """The energy ball ||x||_2 <= E of softmax queries, worked in x itself."""

    clips = False  # the rescaling onto the ball is not monotone bitwise

    def __init__(self, constraint, A):
        self.limit = constraint.limit

    @staticmethod
    def admit(X, name):
        """Every finite X: an objective value that overflows fails its row."""

    def project(self, X):
        """Each row of X, scaled back onto the ball if it lies outside: by
        limit / norm where the norm exceeds the limit, else by limit / limit,
        which is exactly 1 (a NaN norm, which fmax skips, too)."""
        return X * (self.limit / np.fmax(_norms(X), self.limit))[:, None]

    def starts(self, F, cfg, gap):
        """First start: the boundary point aligned with the largest row of
        the gap/direction matrix ``gap`` (distances between nearby softmax
        models grow toward the boundary, and the largest row dominates).
        Rows are ranked by norm through ``_kernels._pow2_rows``, which a
        squared-norm ranking matches unless two squares are one ulp apart.
        A zero gap, or one with an infinite entry, starts on the first axis.
        Rest: uniform in the ball, seeded per restart index."""
        limit, d = self.limit, gap.shape[1]
        Y, sq, norms = _kernels._pow2_rows(gap)
        i = int(norms.argmax())
        if 0.0 < sq[i] < math.inf:
            yield Y[i] * (limit / math.sqrt(sq[i]))
        else:
            e0 = np.zeros(d)
            e0[0] = limit
            yield e0
        for gen in generators(derive_seeds(cfg.seed, "restart", indices=range(1, cfg.restarts))):
            g = gen.standard_normal(d)
            gn = math.sqrt(g.dot(g))  # np.linalg.norm(g), from the same dot product
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

    clips = True  # project is a coordinatewise clip

    def __init__(self, constraint, A):
        require_tall(A)
        self.lo, self.hi = 1.0 / constraint.hi, 1.0 / constraint.lo
        self.n, self.c = A.shape[0], constraint.lo
        self.admit(A, "A")

    def admit(self, X, name):
        """DomainError unless 1/c, d/c and max|X| sqrt(1/c) are finite: then
        X * sqrt(u) and d * u are finite for every u in the box.  A QR factor
        of such a matrix may still overflow; the leverage objectives mark
        that row ``STATUS_NON_FINITE``."""
        big = float(np.abs(X).max()) * math.sqrt(self.hi)
        if not (math.isfinite(X.shape[1] * self.hi) and math.isfinite(big)):
            raise DomainError(
                f"box bound c = {self.c!r} is too small for {name}: d/c or max|{name}| / sqrt(c) overflows"
            )

    def project(self, U):
        return np.clip(U, self.lo, self.hi)

    def starts(self, F, cfg, gap):
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


def _maximize_each(feasible, constraint, kernel, A, Xs, config, seeds):
    """Maximize ``_kernels.<kernel>_objective(A, X, .)`` for each X in
    ``Xs`` (B for an ``_h2`` kernel, whose H^2 is reported as H; else the
    direction M), problem i under ``config`` with seed ``seeds[i]``, over
    the feasible set built from ``constraint``, along the gradient that the
    kernel returns.  Every problem's restarts climb in one lockstep ascent,
    each row of a kernel call with its own problem's X.  Returns, per
    problem, its OptResult or the error its corner checks or ascent raise;
    each is what that problem gets alone.  The kernel is looked up at call
    time, so rebinding it in ``_kernels`` reaches every call."""
    hellinger = kernel.endswith("_h2")
    name = "B" if hellinger else "M"
    A = as_matrix(A, "A")
    Xs = [as_matrix(X, name) for X in Xs]
    for X in Xs:
        if A.shape != X.shape:
            raise ShapeMismatch(f"A and {name} must share a shape, got {A.shape} vs {X.shape}")
    objective = getattr(_kernels, f"{kernel}_objective")
    # One problem keeps its single X, which every row shares; several are
    # one (p, n, d) stack, indexed by each row's problem.
    stack = Xs[0] if len(Xs) == 1 else np.stack(Xs)

    def own(problems):
        return stack if stack.ndim == 2 else stack[problems]

    F = _capped(lambda P, problems: objective(A, own(problems), P), max(1, _MAX_ELEMENTS // A.size))
    space = feasible(constraint, A)
    outcomes = [None] * len(Xs)
    starts, owners = [], []
    for i, (X, seed) in enumerate(zip(Xs, seeds)):
        with np.errstate(over="ignore"):  # only the ball's first start reads the gap, which may be inf
            gap = A - X if hellinger else X
        try:
            space.admit(X, name)
            mine = list(space.starts(lambda P, i=i: F(P, np.full(len(P), i)), replace(config, seed=seed), gap))
        except (RankDeficient, ZeroLeverage, DomainError) as exc:  # X refused, or a failed corner check
            outcomes[i] = exc
            continue
        starts += mine
        owners += [i] * len(mine)
    found = _multistart(F, space.project, starts, owners, config, space.clips) if starts else {}
    for q, res in found.items():
        if not isinstance(res, Exception):
            x, value, iters, conv = res
            res = OptResult(space.query(x), math.sqrt(max(value, 0.0)) if hellinger else value, iters, conv)
        outcomes[q] = res
    return outcomes


def _maximize(feasible, constraint, kernel, A, X, config):
    """``_maximize_each`` on the one problem X: its OptResult, or its error raised."""
    config = config or OptimizerConfig()
    (result,) = _maximize_each(feasible, constraint, kernel, A, [X], config, [config.seed])
    if isinstance(result, Exception):
        raise result
    return result


def max_hellinger_softmax(A, B, constraint, config=None) -> OptResult:
    """Maximize the Hellinger distance between softmax(A x) and softmax(B x)
    over the energy ball.  The reported value is H (not H^2)."""
    return _maximize(_Ball, constraint, "softmax_h2", A, B, config)


def max_hellinger_softmax_each(A, Bs, constraint, config, seeds) -> list:
    """``max_hellinger_softmax(A, B, constraint, replace(config, seed=seed))``
    for each B in Bs and seed in seeds, all in one lockstep ascent: per B,
    the OptResult or the error that call raises."""
    return _maximize_each(_Ball, constraint, "softmax_h2", A, Bs, config, seeds)


def max_variance_softmax(A, M, constraint, config=None) -> OptResult:
    """Maximize Var_{softmax(A x)}(M x) over the energy ball."""
    return _maximize(_Ball, constraint, "softmax_var", A, M, config)


def max_hellinger_leverage(A, B, box, config=None) -> OptResult:
    """Maximize the Hellinger distance between the leverage distributions of
    A and B over scale vectors in the box.  ``argmax`` is the scale vector s
    (positive branch); the value is H."""
    return _maximize(_Box, box, "leverage_h2", A, B, config)


def max_hellinger_leverage_each(A, Bs, box, config, seeds) -> list:
    """``max_hellinger_leverage(A, B, box, replace(config, seed=seed))`` for
    each B in Bs and seed in seeds, all in one lockstep ascent: per B, the
    OptResult or the error that call raises."""
    return _maximize_each(_Box, box, "leverage_h2", A, Bs, config, seeds)


def max_variance_leverage(A, M, box, config=None) -> OptResult:
    """Maximize the variance of the first-order response ratio w under the
    leverage distribution, over scale vectors in the box.  ``argmax`` is s."""
    return _maximize(_Box, box, "leverage_var", A, M, config)
