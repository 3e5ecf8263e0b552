"""Reproducible experiment harness: epsilon sweeps with scaling-law fits,
local-expansion checks, randomized bound-falsification suites, invariance
suites, and CSV emission.

Everything is driven by a single top-level seed; per-row subseeds come from
:func:`softlev.rng.derive_seed`, and every emitted row carries the subseed
that replays it in isolation.  Output tables are byte-identical for
identical specs, including across ``threads`` settings.

A sweep runs in two phases.  First one lockstep ascent finds every grid
point's Hellinger-optimal query: all points' restarts climb together, and
each point gets the result its own ascent would give.  Then the m* searches
run, one per grid point, on ``threads`` threads; they may finish in any
order, but rows are buffered and written in grid order.

The randomized bound and invariance suites run in lockstep, a fixed block
of instances at a time.  The loop over instances only draws: each instance
takes its raw numbers from its own keyed stream, in the order a one-instance
loop would, and branches only where the draws decide whether more draws
follow.  Everything derived from the draws (scalings, masks, square roots,
sign flips, normalizations, the perturbed models) is computed once per group
of instances of equal shape, on the group's stack, with the same elementwise
operations.  The kernels work along the last axes, so rows and deviations
are bitwise those of the one-instance loop, and they come out in instance
order.  One driver, ``_evaluated``, runs this for every family given a
one-instance draw and a stacked evaluation; only the leverage envelope,
which redraws rejected instances in rounds, keeps its own loop.
"""

import json
import math
import sys
from dataclasses import astuple, dataclass, fields, replace
from functools import reduce
from itertools import chain
from pathlib import Path

import numpy as np

from . import _kernels
from .bounds import BoundReport, extremal_pair, lemma_h2_bound, lemma_tv_bound
from .distributions import normalize_probs, sandwich_holds
from .errors import InputFormatError
from .hypotest import estimate_sample_complexity
from .leverage import BoxConstraint, leverage_pmfs
from .model import FAMILIES, ModelSpec, TaylorReport, get_family
from .numerics import as_matrix
from .optimize import OptimizerConfig
from .rng import Stream, derive_seed, derive_seeds, generator, generators
from .softmax import EnergyConstraint, softmax_pmfs

# ---------------------------------------------------------------------------
# model specs and named instance generators
# ---------------------------------------------------------------------------


_SPEC_FIELDS = {"family", "A", "B", "M", "constraint", "seed"}


def _parse_matrix(doc, field, path, required=False):
    val = doc.get(field)
    if val is None:
        if required:
            raise InputFormatError(f"{path}: missing required field '{field}'")
        return None
    if not (isinstance(val, list) and val and all(isinstance(r, list) for r in val)):
        raise InputFormatError(f"{path}: field '{field}' must be a non-empty list of rows")
    width = len(val[0])
    # One C-level pass over rows of floats alone; ints (which may lie past
    # the float range), bools and the rest take the per-entry loop.
    if all(len(row) == width for row in val) and set(map(type, chain.from_iterable(val))) <= {float}:
        return np.array(val, dtype=np.float64)
    for i, row in enumerate(val):
        if len(row) != width:
            raise InputFormatError(f"{path}: field '{field}' row {i} has {len(row)} entries, expected {width}")
        for j, entry in enumerate(row):
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise InputFormatError(f"{path}: field '{field}' entry [{i}][{j}] is not a number")
            if isinstance(entry, int) and abs(entry) > sys.float_info.max:
                raise InputFormatError(f"{path}: field '{field}' entry [{i}][{j}] is too large for a float")
    return np.array(val, dtype=np.float64)


def load_model_spec(path) -> ModelSpec:
    """Parse a model-spec file (JSON syntax); diagnostics carry line/field."""
    path = str(path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: top level must be an object")
    unknown = set(doc) - _SPEC_FIELDS
    if unknown:
        raise InputFormatError(f"{path}: unknown field(s) {sorted(unknown)}")
    family = doc.get("family")
    try:
        law = get_family(family)
    except ValueError:
        names = " or ".join(map(repr, FAMILIES))
        raise InputFormatError(f"{path}: field 'family' must be {names}, got {family!r}") from None
    A = _parse_matrix(doc, "A", path, required=True)
    B = _parse_matrix(doc, "B", path)
    M = _parse_matrix(doc, "M", path)
    cobj = doc.get("constraint")
    if not isinstance(cobj, dict):
        raise InputFormatError(f"{path}: field 'constraint' must be an object")
    constraint = law.parse_constraint(cobj, path)
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InputFormatError(f"{path}: field 'seed' must be an integer")
    try:
        return ModelSpec(family, A, B, M, constraint, seed, source=path)
    except ValueError as exc:  # a shape or finiteness check, naming its field
        raise InputFormatError(f"{path}: {exc}") from exc


def gaussian_instance(family, n, d, seed=0) -> ModelSpec:
    """Standard-normal A and M with the family's default constraint."""
    g = generator(derive_seed(seed, "gaussian", family, n, d))
    A = g.standard_normal((n, d))
    M = g.standard_normal((n, d))
    return ModelSpec(family, A, None, M, get_family(family).default_constraint(), seed)


def low_mass_row_instance(n, d=2, energy=1.0) -> ModelSpec:
    """Zero logits perturbed in a single row: the n-dependent construction
    whose optimal-query H^2 decays like 1/n despite a unit row gap."""
    A = np.zeros((n, d))
    M = np.zeros((n, d))
    M[0, 0] = 1.0
    return ModelSpec("softmax", A, None, M, EnergyConstraint(energy), 0)


def padded_identity_instance(n, d) -> ModelSpec:
    """Identity block over repeated first-basis rows, in the default box: the
    leverage instance whose distinguishing power survives any scale query."""
    if n < d + 1:
        raise ValueError("padded identity needs n > d")
    A = np.zeros((n, d))
    A[:d] = np.eye(d)
    A[d:, 0] = 1.0
    return ModelSpec("leverage", A, None, None, get_family("leverage").default_constraint(), 0)


# ---------------------------------------------------------------------------
# experiment spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one epsilon sweep."""

    model: ModelSpec
    eps_grid: tuple = (0.2, 0.1, 0.05)
    trials: int = 400
    opt: OptimizerConfig = OptimizerConfig()
    seed: int = 0
    threads: int = 1
    out_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.model, ModelSpec):
            raise TypeError(f"a sweep needs a ModelSpec, got {type(self.model).__name__}")
        grid = tuple(float(e) for e in self.eps_grid)
        if not grid or not all(0.0 < e < math.inf for e in grid):
            raise ValueError(f"eps grid must be non-empty with positive finite entries, got {grid}")
        if any(a <= b for a, b in zip(grid, grid[1:])):
            raise ValueError(f"eps grid must be strictly decreasing, got {grid}")
        if self.trials < 1 or self.threads < 1:
            raise ValueError("trials and threads must be at least 1")
        if self.opt.seed != 0:  # every ascent's seed derives from self.seed
            raise ValueError(f"opt.seed must be 0, got {self.opt.seed}; set ExperimentSpec.seed instead")
        object.__setattr__(self, "eps_grid", grid)


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def fmt17(x) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(float(x), ".17g")


def _cell(val) -> str:
    """A float in fmt17 form, a flag (numpy's too) as 0 or 1, None as an
    empty cell, anything else as str."""
    if isinstance(val, (bool, np.bool_)):
        return str(int(val))
    if isinstance(val, float):
        return fmt17(val)
    return "" if val is None else str(val)


def _fmt_params(params: dict) -> str:
    return ";".join(f"{key}={_cell(params[key])}" for key in sorted(params))


def write_csv(path, header, rows, footers=()):
    """UTF-8 CSV with '#'-prefixed footer lines and '\\n' newlines; each
    cell is formatted by ``_cell``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")
        for line in footers:
            fh.write(f"# {line}\n")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    eps: float
    h2_at_opt: float
    nu: float
    m_star: int
    success_at_m: float
    seed: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    slope: float
    intercept: float
    nu: float


def _sweep_nu(model: ModelSpec, opt: OptimizerConfig, seed: int) -> float:
    with model.locating("nu"):
        return model.max_variance(replace(opt, seed=derive_seed(seed, "nu"))).value


def _point_name(spec: ExperimentSpec, index: int) -> str:
    return f"grid point {index} (eps = {spec.eps_grid[index]!r})"


def _point_pair(spec: ExperimentSpec, index: int) -> ModelSpec:
    """The pair (A, A + eps M) of grid point ``index``; ValueError naming the
    spec and the point when an entry of A + eps M overflows."""
    model = spec.model
    where = model._named(f"{_point_name(spec, index)}: A + eps M")
    with np.errstate(over="ignore"):
        B = as_matrix(model.A + spec.eps_grid[index] * model.direction(), where)
    return ModelSpec(model.family, model.A, B, None, model.constraint)


def _point_seed(spec: ExperimentSpec, index: int) -> int:
    """The optimizer seed of grid point ``index``'s ascent."""
    return derive_seed(derive_seed(spec.seed, "grid", index), "opt")


def _sweep_optima(spec: ExperimentSpec) -> list:
    """Every grid point's Hellinger ascent, all in one lockstep run: per
    point, its OptResult or the error its set-up or ascent raised."""
    model = spec.model
    optima = [None] * len(spec.eps_grid)
    points = []  # (index, B) of every point whose pair sets up
    for i in range(len(spec.eps_grid)):
        try:
            points.append((i, _point_pair(spec, i).B))
        except Exception as exc:  # noqa: BLE001 - such as A + eps M overflowing; raised by its row
            optima[i] = exc
    if points:
        seeds = [_point_seed(spec, i) for i, _ in points]
        found = get_family(model.family).max_hellinger_each(
            model.A, [B for _, B in points], model.constraint, spec.opt, seeds
        )
        for (i, _), optimum in zip(points, found):
            optima[i] = optimum
    return optima


def sweep_point(spec: ExperimentSpec, index: int, nu: float, optimum=None) -> SweepRow:
    """Compute one grid point; deterministic given (spec, index).

    The row's subseed is derive_seed(spec.seed, "grid", index); everything
    stochastic in the row flows from it, so a row can be replayed alone.
    ``optimum`` is this point's entry of ``_sweep_optima``, the OptResult
    or error of its set-up or ascent; with None the point runs its own
    ascent.
    """
    with spec.model.locating(_point_name(spec, index)):  # an ascent's error; set-up errors name the point
        if isinstance(optimum, Exception):
            raise optimum
        pair = _point_pair(spec, index)
        if optimum is None:
            optimum = pair.max_hellinger(replace(spec.opt, seed=_point_seed(spec, index)))
    eps = spec.eps_grid[index]
    row_seed = derive_seed(spec.seed, "grid", index)
    found = estimate_sample_complexity(
        pair, trials=spec.trials, seed=derive_seed(row_seed, "mstar"), query=optimum.argmax
    )
    return SweepRow(
        eps=eps, h2_at_opt=optimum.value**2, nu=nu, m_star=found.m_star, success_at_m=found.success, seed=row_seed
    )


def _fit_loglog(rows):
    if len(rows) < 2:
        return math.nan, math.nan
    xs = np.log([r.eps for r in rows])
    ys = np.log([r.m_star for r in rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def _gather_grid(spec, worker):
    """Run worker(i) over the grid with the spec's thread budget; per point,
    in grid order, its result or the error it raised."""

    def outcome(i):
        try:
            return worker(i)
        except Exception as exc:  # noqa: BLE001 - re-raised after flushing
            return exc

    points = range(len(spec.eps_grid))
    if spec.threads == 1:
        return list(map(outcome, points))
    from concurrent.futures import ThreadPoolExecutor  # costs every CLI start a few ms

    with ThreadPoolExecutor(max_workers=spec.threads) as pool:
        return list(pool.map(outcome, points))


def _write_sweep_csv(path, rows, slope, intercept):
    write_csv(
        path,
        [f.name for f in fields(SweepRow)],
        [astuple(r) for r in rows],
        footers=(
            f"fit_slope {fmt17(slope)}",
            f"fit_intercept {fmt17(intercept)}",
            f"rows_used {len(rows)}",
        ),
    )


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """m*(eps) sweep over the grid with a log-log least-squares fit.

    nu (the variance functional's sup) is computed once -- it does not
    depend on eps.  Every point's ascent runs first, in one lockstep run
    (``_sweep_optima``); the threads run only the m* searches.  On error,
    rows that completed are flushed to ``spec.out_path`` (when set) before
    the first error in grid order re-raises.
    """
    nu = _sweep_nu(spec.model, spec.opt, spec.seed)
    optima = _sweep_optima(spec)
    outcomes = _gather_grid(spec, lambda i: sweep_point(spec, i, nu, optima[i]))
    rows = [row for row in outcomes if isinstance(row, SweepRow)]
    slope, intercept = _fit_loglog(rows)
    if spec.out_path:
        _write_sweep_csv(spec.out_path, rows, slope, intercept)
    errors = [error for error in outcomes if isinstance(error, Exception)]
    if errors:
        raise errors[0]
    return SweepResult(tuple(rows), slope, intercept, nu)


# ---------------------------------------------------------------------------
# local expansion (Taylor) checks
# ---------------------------------------------------------------------------


def run_taylor_check(model: ModelSpec, seed: int, query=None) -> TaylorReport:
    """Local expansion checks at a fixed admissible query (the default one
    drawn from ``seed``), run by the family's ``taylor``: H^2 against
    (1/2) and (1/8) eps^2 Var_P(score) at each of ``TAYLOR_EPS``, plus the
    softmax partition-function ratio or the leverage pmf derivative.
    """
    law = get_family(model.family)
    if query is None:
        g = generator(derive_seed(seed, "taylor-query"))
        query = law.random_query(g, model.A.shape, model.constraint)
    model.constraint.check(query)
    with model.locating("taylor"):
        return law.taylor(model, query)


def write_taylor_csv(path, report: TaylorReport):
    rows = [astuple(r) for r in report.rows]
    footers = [f"{name} {_cell(val)}" for name, val in report.figures()]
    write_csv(path, ("eps", "h2", "half_eps2_var", "ratio_half", "ratio_eighth"), rows, footers)


# ---------------------------------------------------------------------------
# bound suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundSuiteResult:
    """Rows plus the aggregate verdicts.

    ``strict_violations`` counts failures among the exact closed-form gap
    bounds only; envelope families (measured-constant O(.) bounds) report
    ``max_ratios`` and their own satisfied flags but do not fail the suite.
    """

    rows: tuple  # BoundReport
    strict: tuple  # bool per row
    tight: tuple  # bool or None per row
    strict_violations: int
    max_ratios: dict
    monotone_ok: bool
    all_tight: bool


# Instances drawn and evaluated together, so transient memory does not grow
# with --instances.  The default 1,000 instances fit in one block; half the
# block doubles the stacked calls, costing about 10% of verify's wall time
# to save 0.1 MiB of peak RSS.
_BLOCK = 1024


def _blocks(count):
    """range(count) as consecutive ranges of at most _BLOCK indices."""
    return [range(lo, min(lo + _BLOCK, count)) for lo in range(0, count, _BLOCK)]


def _stacked(evaluate, draws):
    """Run ``evaluate`` once per group of draws whose first arrays share a
    shape, on one stack per field of the group's draws (a field of floats
    stacks to a vector).  ``evaluate`` returns a tuple of arrays with one
    value per draw; the result is one tuple of Python scalars per draw, in
    draw order."""
    groups = {}
    for i, draw in enumerate(draws):
        groups.setdefault(draw[0].shape, []).append(i)
    out = [None] * len(draws)
    for idx in groups.values():
        results = evaluate(*(np.array(field) for field in zip(*(draws[i] for i in idx))))
        for i, values in zip(idx, zip(*(r.tolist() for r in results))):
            out[i] = values
    return out


def _evaluated(seed, label, count, draw, evaluate):
    """(k, draw, values) for each instance k in range(count), in instance
    order.  The draw is ``draw(generator(derive_seed(seed, label, k)))``,
    and an instance whose draw is None is skipped; ``values`` are
    ``evaluate``'s results for the draw, from one ``_stacked`` call per
    block of ``_blocks(count)``."""
    for block in _blocks(count):
        drawn = zip(block, map(draw, generators(derive_seeds(seed, label, indices=block))))
        kept = {k: fields for k, fields in drawn if fields is not None}
        yield from zip(kept, kept.values(), _stacked(evaluate, list(kept.values())))


def _softmax_gaps(a, b):
    """H^2 and TV between softmax(a) and softmax(b) for each pair of logit
    vectors in a stack, from one ``(..., 2, n)`` softmax stack."""
    P = softmax_pmfs(np.stack([a, b], axis=-2))
    return _kernels.h2_tv(P[..., 0, :], P[..., 1, :])


def _softmax_pair(A, B, x):
    """H^2 and TV between softmax(A x) and softmax(B x)."""
    h2, t = _softmax_gaps(A @ x, B @ x)
    return float(h2), float(t)


def _logit_gaps(z, r, eps):
    """H^2, TV and the gap count m of each logit-gap instance: a = 2 z and
    b = a + eps on the m entries whose r is below 1/2."""
    a = 2.0 * z
    mask = r < 0.5
    return (*_softmax_gaps(a, a + eps[:, None] * mask), mask.sum(axis=-1))


def _gap_draw(g):
    """Logits z, uniforms r and a gap eps of one logit-gap or chain
    instance on n outcomes."""
    n = int(g.integers(2, 11))
    eps = 2.0 * float(g.random())
    return g.standard_normal(n), g.random(n), eps


def _logit_pair_rows(seed, count):
    rows = []
    for k, (z, _, eps), (h2, t, m) in _evaluated(seed, "gap", count, _gap_draw, _logit_gaps):
        p = {"eps": eps, "n": len(z), "m": m, "seed": k}
        rows.append(BoundReport("logit_gap_h2", p, lemma_h2_bound(eps), h2))
        rows.append(BoundReport("logit_gap_tv", p, lemma_tv_bound(eps), t))
    return rows


def _chain_gaps(z, r, eps):
    """H^2 and TV of each chain instance: a = 2 z and b = a + eps (2 r - 1),
    so that ||a - b||_inf <= eps."""
    a = 2.0 * z
    return _softmax_gaps(a, a + eps[:, None] * (2.0 * r - 1.0))


def _chain_rows(seed, count):
    rows = []
    for k, (z, _, eps), (h2, t) in _evaluated(seed, "chain", count, _gap_draw, _chain_gaps):
        p = {"eps": eps, "n": len(z), "seed": k}
        rows.append(BoundReport("infty_gap_h2_chain", p, lemma_h2_bound(2.0 * eps), h2))
        rows.append(BoundReport("infty_gap_tv_chain", p, 2.0 * lemma_tv_bound(eps), t))
    return rows


def _extremal_rows():
    rows = []
    for eps in (0.1, 0.5, 1.0, 2.0):
        for n in (2, 5, 10):
            for m in sorted({1, n // 2}):
                a, b = extremal_pair(n, m, eps)
                h2, t = _softmax_pair(a[:, None], b[:, None], np.ones(1))
                params = {"eps": eps, "n": n, "m": m}
                rows.append(BoundReport("extremal_h2", params, lemma_h2_bound(eps), h2))
                rows.append(BoundReport("extremal_tv", params, lemma_tv_bound(eps), t))
    return rows


def _envelope_gaps(A, D, x, xnorm, rho):
    """H^2 and TV of each softmax-envelope instance: B = A + gap D with D
    scaled to unit 2->infinity norm and gap = rho / ||x||."""
    D = D / _kernels._max_row_norm(D)[:, None, None]  # as two_to_infty_norm(D) of each
    B = A + (rho / xnorm)[:, None, None] * D
    return _softmax_gaps(_kernels._matvec(A, x), _kernels._matvec(B, x))


def _envelope_draw(g):
    """A, D, x, ||x|| and rho of one softmax-envelope instance; None when
    x is 0."""
    n = int(g.integers(2, 11))
    d = int(g.integers(1, 6))
    A = g.standard_normal((n, d))
    D = g.standard_normal((n, d))
    x = g.standard_normal(d)
    xnorm = math.sqrt(x.dot(x))  # np.linalg.norm(x), from the same dot product
    if xnorm == 0.0:
        return None
    return A, D, x, xnorm, 0.5 * float(g.random())


def _softmax_envelope_rows(seed, count):
    # H^2 <= 1.0 * (gap * ||x||)^2 whenever gap * ||x|| <= 1/2, with
    # gap the max row norm of B - A (measured envelope constant 1.0).
    rows = []
    for k, (A, *_, rho), (h2, _) in _evaluated(seed, "softmax-env", count, _envelope_draw, _envelope_gaps):
        n, d = A.shape
        p = {"rho": rho, "n": n, "d": d, "seed": k}
        rows.append(BoundReport("softmax_query_h2", p, rho * rho, h2))
    return rows


_SUITE_BOX = BoxConstraint(0.5, 2.0)  # the scale box of the leverage envelope and invariances
_ENVELOPE_QUERIES = 10  # query scales drawn per leverage envelope pair


def _envelope_ratio(gap, delta):
    box = _SUITE_BOX
    return gap * box.hi / (box.lo * delta)


def _gamma_search(A, G, delta, target):
    """gamma of each (A, G) pair in a stack such that B = A + gamma G puts
    the gap ratio (row-gram gap of A and B) C / (c delta) within 5% of the
    target, from up to 30 square-root steps starting at 1e-3; returns gamma
    and the ratio at gamma.  Every pair steps in lockstep while its search
    is live, so each takes exactly the steps it would take alone."""
    delta, target = delta.tolist(), target.tolist()
    gamma = [1e-3] * len(delta)
    live = list(range(len(delta)))
    for _ in range(30):
        if not live:
            break
        steps = np.array([gamma[i] for i in live])[:, None, None]
        gaps = _kernels.row_gram_gap(A[live], A[live] + steps * G[live])
        searching = []
        for i, gap in zip(live, gaps.tolist()):
            ratio = _envelope_ratio(gap, delta[i])
            if ratio <= 0.0 or abs(ratio - target[i]) <= 0.05 * target[i]:
                continue
            gamma[i] *= (target[i] / ratio) ** 0.5
            searching.append(i)
        live = searching
    gamma = np.array(gamma)
    gaps = _kernels.row_gram_gap(A, A + gamma[:, None, None] * G).tolist()
    return gamma, np.array([_envelope_ratio(gap, dl) for gap, dl in zip(gaps, delta)])


def _conditioning(A):
    """lambda_min(A^T A) of each matrix in a ``(k, n, d)`` stack, bitwise
    equal to ``min_eigenvalue(gram(a))`` of each matrix alone."""
    G = np.array([a.T @ a for a in A])  # one 2-D product each, as gram() takes it
    return _kernels.min_eigenvalue(np.triu(G) + np.swapaxes(np.triu(G, 1), -1, -2))


def _leverage_envelope_pairs(seed, block):
    """(A, G, gamma, R, ratio) for each index k of the block: the first of
    k's attempts that draws a well-conditioned A (lambda_min(A^T A) >= 0.05)
    and whose gamma search lands the gap ratio eps*C/(c*delta) of A and
    B = A + gamma G in (0, 0.1], with R the uniform draws of that attempt's
    query scales.  Each round draws the next attempt of every pending index
    in full (d, n, A, target, G, then R), tests the conditioning of each
    shape group as one stack, and runs the gamma searches of the accepted
    attempts in lockstep; an index whose attempt fails either test is
    redrawn at its next attempt in the next round.  Every attempt has its
    own key, so the draws a rejected attempt did not need change nothing."""
    stream = Stream()
    pending = dict.fromkeys(block, 0)  # index -> its next attempt
    pairs, failed = {}, []
    while pending:
        drawn = []
        for k, attempt in pending.items():
            if attempt == 50:
                failed.append(k)
                continue
            g = stream.keyed(derive_seed(seed, "lev-env", k, attempt))
            d = int(g.integers(1, 4))
            n = int(g.integers(d + 1, 9))
            A = g.standard_normal((n, d))
            target = 0.1 * (0.1 + 0.9 * float(g.random()))
            G = g.standard_normal((n, d))
            drawn.append((k, attempt, A, G, target, g.random((_ENVELOPE_QUERIES, n))))
        deltas = _stacked(lambda A: (_conditioning(A),), [(A,) for _, _, A, *_ in drawn])
        accepted, searches, pending = [], [], {}
        for (k, attempt, A, G, target, R), (delta,) in zip(drawn, deltas):
            if delta < 0.05:
                pending[k] = attempt + 1
            else:
                accepted.append((k, attempt, A, G, R))
                searches.append((A, G, delta, target))
        for (k, attempt, A, G, R), (gamma, ratio) in zip(accepted, _stacked(_gamma_search, searches)):
            if 0.0 < ratio <= 0.1:
                pairs[k] = (A, G, gamma, R, ratio)
            else:
                pending[k] = attempt + 1
    if failed:
        raise RuntimeError(f"could not draw a well-conditioned leverage pair for index {min(failed)}")
    return [pairs[k] for k in block]


def _worst_tv(A, G, gamma, R):
    """Largest TV between the leverage laws of A and B = A + gamma G over
    each pair's query scales sqrt(c + R (C - c)), from one QR call per
    model."""
    B = A + gamma[:, None, None] * G
    S = _SUITE_BOX.scales(R)
    _, tvs = _kernels.h2_tv(leverage_pmfs(A[:, None], S), leverage_pmfs(B[:, None], S))
    return (tvs.max(axis=-1),)


def _leverage_envelope_rows(seed, count):
    # TV <= 4 * eps C / (c delta) whenever eps C / (c delta) <= 0.1, with
    # eps the row-gram gap and delta = lambda_min(A^T A).
    rows = []
    for block in _blocks(count):
        pairs = _leverage_envelope_pairs(seed, block)
        worst = _stacked(_worst_tv, [draw for *draw, _ in pairs])
        for k, (A, *_, ratio), (tv_max,) in zip(block, pairs, worst):
            n, d = A.shape
            params = {"n": n, "d": d, "ratio": ratio, "seed": k}
            rows.append(BoundReport("leverage_tv_envelope", params, 4.0 * ratio, tv_max))
    return rows


def _low_mass_rows():
    eps, energy = 0.1, 1.0
    rows = []
    for n in (10, 100, 1000):
        model = low_mass_row_instance(n, d=2, energy=energy)
        x = np.array([energy, 0.0])  # aligned boundary query maximizes the gap
        h2, _ = _softmax_pair(model.A, model.A + eps * model.M, x)
        params = {"n": n, "eps": eps, "E": energy}
        rows.append(BoundReport("low_mass_h2", params, 2.0 * eps * eps * energy * energy / n, h2))
    return rows


_STRICT_FAMILIES = ("logit_gap_h2", "logit_gap_tv", "infty_gap_h2_chain", "infty_gap_tv_chain")
_ENVELOPE_FAMILIES = ("softmax_query_h2", "leverage_tv_envelope", "low_mass_h2")
_TIGHT_TOL = 1e-9


def _check_instances(instances):
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")


def run_bound_suite(instances: int, seed: int) -> BoundSuiteResult:
    """Randomized falsification of every closed-form bound plus the two
    model-level envelopes and the low-mass construction."""
    _check_instances(instances)
    rows = []
    rows += _logit_pair_rows(seed, instances)
    rows += _chain_rows(seed, instances)
    rows += _extremal_rows()
    rows += _softmax_envelope_rows(seed, instances)
    rows += _leverage_envelope_rows(seed, instances)
    rows += _low_mass_rows()

    strict = tuple(r.bound_name in _STRICT_FAMILIES for r in rows)
    tight = tuple(
        (abs(r.ratio - 1.0) <= _TIGHT_TOL) if r.bound_name.startswith("extremal_") else None for r in rows
    )
    violations = sum(1 for r, st in zip(rows, strict) if st and not r.satisfied)
    max_ratios = {}
    for fam in _ENVELOPE_FAMILIES:
        ratios = [r.ratio for r in rows if r.bound_name == fam]
        max_ratios[fam] = max(ratios) if ratios else math.nan
    grid = np.linspace(0.01, 4.0, 50)
    h2_vals = [lemma_h2_bound(e) for e in grid]
    tv_vals = [lemma_tv_bound(e) for e in grid]
    monotone_ok = all(x < y for x, y in zip(h2_vals, h2_vals[1:])) and all(
        x < y for x, y in zip(tv_vals, tv_vals[1:])
    )
    all_tight = all(t for t in tight if t is not None)
    return BoundSuiteResult(tuple(rows), strict, tight, violations, max_ratios, monotone_ok, all_tight)


def write_bounds_csv(path, result: BoundSuiteResult):
    cells = [
        (row.bound_name, _fmt_params(row.parameters), row.bound_value, row.observed_value, row.satisfied, st, ti)
        for row, st, ti in zip(result.rows, result.strict, result.tight)
    ]
    footers = [f"rows {len(result.rows)}", f"strict_violations {result.strict_violations}"]
    for fam in sorted(result.max_ratios):
        footers.append(f"max_ratio_{fam} {fmt17(result.max_ratios[fam])}")
    footers.append(f"monotone_ok {int(result.monotone_ok)}")
    footers.append(f"all_tight {int(result.all_tight)}")
    write_csv(
        path,
        ("bound_name", "parameters", "bound_value", "observed_value", "satisfied", "strict", "tight"),
        cells,
        footers,
    )


# ---------------------------------------------------------------------------
# invariance suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyResult:
    name: str
    instances: int
    max_deviation: float
    violations: int
    ok: bool


@dataclass(frozen=True)
class InvarianceReport:
    properties: tuple
    all_ok: bool

    def by_name(self, name):
        for prop in self.properties:
            if prop.name == name:
                return prop
        raise KeyError(name)


def _tall_matrix(g):
    d = int(g.integers(1, 5))
    n = int(g.integers(d + 1, 10))
    return g.standard_normal((n, d))


def _max_gap(P):
    """max_i |P[..., 0, i] - P[..., 1, i]| of each pair in a pmf stack."""
    return np.abs(P[..., 0, :] - P[..., 1, :]).max(axis=-1)


def _shift_draw(g):
    n, d = int(g.integers(2, 9)), int(g.integers(1, 6))
    A = g.standard_normal((n, d))
    w = g.standard_normal(d)
    x = g.standard_normal(d)
    return A, w, x


def _shift_deviation(A, w, x):
    B = A + w[..., None, :]  # A + outer(ones(n), w), whose entries are 1.0 * w_j
    return (_max_gap(softmax_pmfs(np.stack([_kernels._matvec(A, x), _kernels._matvec(B, x)], axis=-2))),)


def _right_draw(g):
    # R has condition number kappa <= 1e3: random orthogonal factors
    # around a log-uniform singular spectrum.
    A = _tall_matrix(g)
    d = A.shape[1]
    log_kappa = math.log(10.0 ** (3.0 * float(g.random())))
    return A, log_kappa, g.standard_normal((d, d)), g.standard_normal((d, d)), g.random(A.shape[0])


def _right_deviation(A, log_kappa, U, V, r):
    d = A.shape[-1]
    sing = np.exp(np.linspace(-0.5, 0.5, d) * log_kappa[:, None]) if d > 1 else np.ones((len(A), 1))
    diag = sing[..., None] * np.eye(d)  # np.diag of each spectrum
    R = np.linalg.qr(U)[0] @ diag @ np.linalg.qr(V)[0]
    return (_max_gap(leverage_pmfs(np.stack([A @ R, A], axis=-3), _SUITE_BOX.scales(r)[..., None, :])),)


def _sign_draw(g):
    A = _tall_matrix(g)
    n = A.shape[0]
    return A, g.random(n), g.random(n)


def _sign_deviation(A, r, coin):
    s = _SUITE_BOX.scales(r)
    flip = np.where(coin < 0.5, -1.0, 1.0)
    return (_max_gap(leverage_pmfs(A[..., None, :, :], np.stack([s * flip, s], axis=-2))),)


def _normalization_draw(g):
    A = _tall_matrix(g)
    return A, g.standard_normal(A.shape[1])


def _normalization_deviation(A, x):
    dev = np.abs(_kernels.softmax_probs(_kernels._matvec(A, x)).sum(axis=-1) - 1.0)
    probs, _, ok = _kernels.leverage_probs(A)
    lev_dev = np.abs(probs.sum(axis=-1) - 1.0)
    return (np.where(ok & (lev_dev > dev), lev_dev, dev),)  # max(dev, lev_dev) if ok else dev


# (property, stream label, tolerance, draw of one instance from its stream,
# deviation of each instance in a stack of draws)
_INVARIANCES = (
    ("shift_invariance", "shift", 1e-12, _shift_draw, _shift_deviation),
    ("right_invariance", "right", 1e-8, _right_draw, _right_deviation),
    ("sign_invariance", "sign", 1e-12, _sign_draw, _sign_deviation),
    ("normalization", "norm", 1e-9, _normalization_draw, _normalization_deviation),
)


def _random_distribution(g, n):
    """Weights and coins of a random distribution on n outcomes, which
    ``_distributions`` turns into the distribution.  An outcome whose coin
    falls below 0.15 is masked; if all are, one drawn at random keeps its
    weight (its coin is set to 1)."""
    weights = g.random(n)
    coins = g.random(n)
    if max(coins.tolist()) < 0.15:
        coins[int(g.integers(n))] = 1.0
    return weights, coins


def _distributions(weights, coins):
    """weights + 1e-12, zero where the coin is below 0.15, normalized to sum
    to one along the last axis."""
    p = np.where(coins < 0.15, 0.0, weights + 1e-12)
    return p / p.sum(axis=-1, keepdims=True)


def _metric_draw(g):
    n = int(g.integers(2, 12))
    P = _random_distribution(g, n)
    Q = _random_distribution(g, n)
    R = _random_distribution(g, n)
    return (*P, *Q, *R)


def _metric_distances(*draws):
    """H^2 of the five distinct ordered pairs (P, Q), (Q, P), (P, P),
    (P, R) and (Q, R) of each instance, then their TV, from one kernel call;
    ``draws`` are the weights and coins of P, Q and R."""
    weights, coins = np.stack(draws[::2], axis=1), np.stack(draws[1::2], axis=1)
    probs = normalize_probs(_distributions(weights, coins))
    P, Q, R = probs[:, 0], probs[:, 1], probs[:, 2]
    h2, t = _kernels.h2_tv(np.stack([P, Q, P, P, Q], axis=1), np.stack([Q, P, P, R, R], axis=1))
    return (*h2.T, *t.T)


def _metric_axioms(seed, count):
    sandwich_viol = 0
    triangle_viol = 0
    sym_viol = 0
    ident_dev = 0.0
    slack = 1e-12
    for _, _, distances in _evaluated(seed, "metric", count, _metric_draw, _metric_distances):
        h2_pq, h2_qp, h2_pp, h2_pr, h2_qr, tv_pq, tv_qp, tv_pp, tv_pr, tv_qr = distances
        if not sandwich_holds(h2_pq, tv_pq):
            sandwich_viol += 1
        if tv_pq != tv_qp or h2_pq != h2_qp:
            sym_viol += 1
        ident_dev = max(ident_dev, tv_pp, h2_pp)
        if tv_pr > tv_pq + tv_qr + slack:
            triangle_viol += 1
        if math.sqrt(h2_pr) > math.sqrt(h2_pq) + math.sqrt(h2_qr) + slack:
            triangle_viol += 1
    return sandwich_viol, triangle_viol, sym_viol, ident_dev


def run_invariance_suite(instances: int, seed: int) -> InvarianceReport:
    """Model symmetries and metric axioms over randomized instances."""
    _check_instances(instances)
    props = []
    for name, label, tol, draw, deviation in _INVARIANCES:
        dev = reduce(max, (dev for _, _, (dev,) in _evaluated(seed, label, instances, draw, deviation)), 0.0)
        props.append(PropertyResult(name, instances, dev, int(dev > tol), dev <= tol))
    sandwich, triangle, sym, ident = _metric_axioms(seed, instances)
    props.append(PropertyResult("metric_sandwich", instances, float(ident), sandwich, sandwich == 0))
    props.append(PropertyResult("metric_triangle", instances, float(ident), triangle, triangle == 0))
    props.append(PropertyResult("metric_symmetry", instances, 0.0, sym, sym == 0))
    return InvarianceReport(tuple(props), all(p.ok for p in props))


def write_invariance_csv(path, report: InvarianceReport):
    write_csv(
        path,
        ("property", "instances", "max_deviation", "violations", "ok"),
        [astuple(p) for p in report.properties],
        footers=(f"all_ok {int(report.all_ok)}",),
    )
