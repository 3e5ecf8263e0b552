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
of instances at a time, through one driver, ``_grouped``.  Instance k of a
family is the row of uniforms at Philox counter row k, counter word w, of
the family's key (``rng.uniform_rows``): its U, then Box-Muller pairs for
the normals that its shape group reads.  The word is 0, except for the
leverage envelope, whose attempt a is word a: each round is one pass over
the pending pairs at the next word, and a last pass reads every pair at its
accepted word.  Shapes, fields and branches are decoded by array
operations: a shape is lo + floor(span u), a field a prefix, a branch a
mask.  ``_grouped`` evaluates each group of equal shape as one stack; the
kernels work along the last axes, so every instance's values are bitwise
those it has alone.
"""

import json
import math
import sys
from dataclasses import astuple, dataclass, fields
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import _kernels
from .bounds import BoundReport, extremal_pair, lemma_h2_bound, lemma_tv_bound
from .distributions import normalize_probs, sandwich_holds
from .errors import InputFormatError
from .hypotest import estimate_sample_complexity
from .leverage import leverage_pmfs
from .model import FAMILIES, ModelSpec, TaylorReport, get_family
from .numerics import as_matrix, gram
from .optimize import OptimizerConfig
from .rng import box_muller, derive_seed, generator, uniform_rows
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


def low_mass_row_instance(n) -> ModelSpec:
    """Zero logits in two columns perturbed in a single row, under the unit
    energy limit: the n-dependent construction whose optimal-query H^2
    decays like 1/n despite a unit row gap."""
    A = np.zeros((n, 2))
    M = np.zeros((n, 2))
    M[0, 0] = 1.0
    return ModelSpec("softmax", A, None, M, EnergyConstraint(1.0), 0)


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
    restarts: int = 32  # of each ascent, whose seed derives from ``seed``
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
        if self.trials < 1 or self.restarts < 1 or self.threads < 1:
            raise ValueError("trials, restarts and threads must be at least 1")
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


def _sweep_nu(spec: ExperimentSpec) -> float:
    with spec.model.locating("nu"):
        return spec.model.max_variance(OptimizerConfig(spec.restarts, seed=derive_seed(spec.seed, "nu"))).value


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
            model.A, [B for _, B in points], model.constraint, OptimizerConfig(spec.restarts), seeds
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
            optimum = pair.max_hellinger(OptimizerConfig(spec.restarts, seed=_point_seed(spec, index)))
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
    nu = _sweep_nu(spec)
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


def _uniform_int(u, lo, hi):
    """The integer in [lo, hi) that each uniform u picks, lo + floor((hi -
    lo) u), clamped to hi - 1 so that no rounding can reach hi (for integer
    spans below 2^53 none does).  ``lo`` and ``hi`` may be arrays."""
    span = hi - lo
    return lo + np.minimum((span * u).astype(np.intp), span - 1)


def _shape_groups(S):
    """(indices, shape) of each group of equal rows of S, a ``(k, s)`` array
    of shape columns below 16, with each group's indices in order and the
    groups in order of their first index; a row holding a 0 is in none."""
    kept = np.flatnonzero(S.all(axis=-1))
    _, first, inverse = np.unique(S[kept] @ 16 ** np.arange(S.shape[1]), return_index=True, return_inverse=True)
    groups = np.split(kept[np.argsort(inverse, kind="stable")], np.cumsum(np.bincount(inverse))[:-1])
    return [(groups[j], tuple(S[kept[first[j]]].tolist())) for j in np.argsort(first)]


def _split(V, wu):
    """U, the first wu uniforms of each row of V, and Z, where Z(idx, m) is
    the first m normals of rows idx, from V's next 2 ceil(m / 2) uniforms."""
    return V[:, :wu], lambda idx, m: box_muller(V[idx, wu : wu + m + m % 2])[:, :m]


def _grouped(seed, label, rows, family, evaluate, word=0):
    """Per shape group of each block of at most ``_BLOCK`` of the instance
    indices ``rows`` (increasing ints): the indices, shape, fields and
    ``evaluate``'s values (one array per value) of its instances.
    ``family`` is (wu, wn, shape, draw): instance k is counter row k at
    counter word ``word`` (one int, or one per row) of derive_seed(seed,
    label), split by ``_split``; ``shape(U, Z)`` gives its shape columns (a
    0 skips it) and ``draw(U, Z, idx, *shape)`` the fields of instances
    idx."""
    wu, wn, shape, draw = family
    key = derive_seed(seed, label)
    rows = np.asarray(rows, dtype=np.intp)
    words = np.broadcast_to(word, rows.shape)
    for lo in range(0, len(rows), _BLOCK):
        block = rows[lo : lo + _BLOCK]
        U, Z = _split(uniform_rows(key, block, wu + wn + wn % 2, words[lo : lo + _BLOCK]), wu)
        for idx, s in _shape_groups(shape(U, Z)):
            fields = draw(U, Z, idx, *s)
            yield block[idx], s, fields, evaluate(*fields)


def _evaluated(seed, label, count, family, evaluate):
    """(k, shape, numbers) of each kept instance k of ``_grouped``, in
    instance order: its shape, then its fields that hold one number per
    instance and its values, as Python scalars."""
    out = []
    for idx, s, fields, results in _grouped(seed, label, range(count), family, evaluate):
        numbers = [f.tolist() for f in fields if f.ndim == 1] + [r.tolist() for r in results]
        out += zip(idx.tolist(), repeat(s), zip(*numbers))
    out.sort(key=itemgetter(0))
    return out


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


def _gap_shape(U, Z):
    return _uniform_int(U[:, :1], 2, 11)  # n in [2, 10]


def _gap_draw(U, Z, idx, n):
    """Logits z, uniforms r and gaps eps of logit-gap or chain instances on
    n outcomes: uniforms for n, eps and then r, normals for z."""
    return Z(idx, n), U[idx, 2 : 2 + n], 2.0 * U[idx, 1]


_GAP = (12, 10, _gap_shape, _gap_draw)


def _logit_pair_rows(seed, count):
    rows = []
    for k, (n,), (eps, h2, t, m) in _evaluated(seed, "gap", count, _GAP, _logit_gaps):
        p = {"eps": eps, "n": n, "m": m, "seed": k}
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
    for k, (n,), (eps, h2, t) in _evaluated(seed, "chain", count, _GAP, _chain_gaps):
        p = {"eps": eps, "n": n, "seed": k}
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


def _envelope_shape(U, Z):
    """n in [2, 10] and d in [1, 5] of each softmax-envelope instance; n is
    0, which skips the instance, where x, its first d normals, is 0."""
    n, d = _uniform_int(U[:, 0], 2, 11), _uniform_int(U[:, 1], 1, 6)
    x_nonzero = ((Z(slice(None), 5) != 0.0) & (np.arange(5) < d[:, None])).any(axis=-1)
    return np.stack([n * x_nonzero, d], axis=-1)


def _envelope_draw(U, Z, idx, n, d):
    """A, D, x, ||x|| and rho of softmax-envelope instances: normals for x,
    the rows of A and then those of D."""
    z = Z(idx, (2 * n + 1) * d)
    x, AD = z[:, :d], z[:, d:].reshape(-1, 2, n, d)
    return AD[:, 0], AD[:, 1], x, np.sqrt((x * x).sum(axis=-1)), 0.5 * U[idx, 2]


_ENVELOPE = (3, (2 * 10 + 1) * 5, _envelope_shape, _envelope_draw)


def _softmax_envelope_rows(seed, count):
    # H^2 <= 1.0 * (gap * ||x||)^2 whenever gap * ||x|| <= 1/2, with
    # gap the max row norm of B - A (measured envelope constant 1.0).
    rows = []
    for k, (n, d), (_, rho, h2, _) in _evaluated(seed, "softmax-env", count, _ENVELOPE, _envelope_gaps):
        p = {"rho": rho, "n": n, "d": d, "seed": k}
        rows.append(BoundReport("softmax_query_h2", p, rho * rho, h2))
    return rows


_SUITE_BOX = get_family("leverage").default_constraint()  # the scale box of the leverage envelope and invariances
_ENVELOPE_QUERIES = 10  # query scales drawn per leverage envelope pair


def _gamma_search(A, G, delta, target):
    """gamma of each (A, G) pair in a stack such that B = A + gamma G puts
    the gap ratio (row-gram gap of A and B) C / (c delta) within 5% of the
    target, from up to 30 square-root steps starting at 1e-3; returns gamma
    and the ratio at gamma.  The live pairs step together, as arrays, so
    each takes exactly the steps it would take alone: ``row_gram_gap`` is
    bitwise the same for a pair in any stack, and each step's square root
    is Python's, since numpy's does not always agree in the last bit.  A
    pair keeps the ratio it stopped at; one that used all 30 steps is
    evaluated once more at its last gamma."""
    box = _SUITE_BOX

    def ratios(live):
        gaps = _kernels.row_gram_gap(A[live], A[live] + gamma[live, None, None] * G[live])
        return gaps * box.hi / (box.lo * delta[live])

    gamma = np.full(len(delta), 1e-3)
    ratio = np.empty(len(delta))
    live = np.arange(len(delta))
    for _ in range(30):
        if not live.size:
            return gamma, ratio
        ratio[live] = r = ratios(live)
        t = target[live]
        step = ~((r <= 0.0) | (np.abs(r - t) <= 0.05 * t))  # not stopped
        live, t, r = live[step], t[step], r[step]
        gamma[live] *= [q**0.5 for q in (t / r).tolist()]
    if live.size:
        ratio[live] = ratios(live)
    return gamma, ratio


def _conditioning(A):
    """lambda_min(A^T A) of each matrix in a ``(k, n, d)`` stack, bitwise
    equal to ``min_eigenvalue(gram(a))`` of each matrix alone."""
    return _kernels.min_eigenvalue(gram(A))


def _tall_shape(U, Z, d_hi=5, n_hi=10):
    """n and d of a tall matrix: d in [1, d_hi), then n in [d + 1, n_hi)."""
    d = _uniform_int(U[:, 0], 1, d_hi)
    return np.stack([_uniform_int(U[:, 1], d + 1, n_hi), d], axis=-1)


def _attempt_draw(U, Z, idx, n, d):
    """A, G, the gap-ratio target and the uniforms R of the query scales of
    leverage-envelope attempts: uniforms for d, n, the target and then R,
    normals for the rows of A and then those of G."""
    AG = Z(idx, 2 * n * d).reshape(-1, 2, n, d)
    R = U[idx, 3 : 3 + _ENVELOPE_QUERIES * n].reshape(-1, _ENVELOPE_QUERIES, n)
    return AG[:, 0], AG[:, 1], 0.1 * (0.1 + 0.9 * U[idx, 2]), R


_ATTEMPT = (3 + _ENVELOPE_QUERIES * 8, 2 * 8 * 3, lambda U, Z: _tall_shape(U, Z, 4, 9), _attempt_draw)  # d <= 3, n <= 8


def _attempt_gaps(A, G, target, R):
    """gamma and gap ratio of each leverage-envelope attempt in a stack;
    both are NaN where A fails the conditioning test lambda_min(A^T A) >=
    0.05, and the gamma search of ``_gamma_search`` sets the rest."""
    delta = _conditioning(A)
    ok = delta >= 0.05
    gamma, ratio = np.full(len(A), math.nan), np.full(len(A), math.nan)
    gamma[ok], ratio[ok] = _gamma_search(A[ok], G[ok], delta[ok], target[ok])
    return gamma, ratio


def _worst_tv(A, G, gamma, R):
    """Largest TV between the leverage laws of A and B = A + gamma G over
    each pair's query scales sqrt(c + R (C - c)), from one QR call per
    model."""
    B = A + gamma[:, None, None] * G
    S = _SUITE_BOX.scales(R)
    _, tvs = _kernels.h2_tv(leverage_pmfs(A[:, None], S), leverage_pmfs(B[:, None], S))
    return tvs.max(axis=-1)


def _leverage_envelope_rows(seed, count):
    # TV <= 4 * eps C / (c delta) whenever eps C / (c delta) <= 0.1, with
    # eps the row-gram gap and delta = lambda_min(A^T A).  Pair k's accepted
    # attempt is its first attempt a (counter word a) whose ratio is in
    # (0, 0.1]; each round tries the pending pairs' next attempt, and one
    # last pass reads every pair at its accepted word for its TV.
    gamma, ratio, word = np.empty(count), np.empty(count), np.zeros(count, dtype=np.intp)
    pending = np.arange(count)
    for attempt in range(50):
        for idx, _, _, (g, r) in _grouped(seed, "lev-env", pending, _ATTEMPT, _attempt_gaps, attempt):
            gamma[idx], ratio[idx] = g, r
        word[pending] = attempt
        pending = pending[~((0.0 < ratio[pending]) & (ratio[pending] <= 0.1))]
        if not pending.size:
            break
    else:
        raise RuntimeError(f"could not draw a well-conditioned leverage pair for index {pending[0]}")
    rows, ratios = [None] * count, ratio.tolist()
    for idx, (n, d), (A, G, _, R), _ in _grouped(seed, "lev-env", range(count), _ATTEMPT, lambda *f: (), word):
        for k, tv_max in zip(idx.tolist(), _worst_tv(A, G, gamma[idx], R).tolist()):
            r = ratios[k]
            rows[k] = BoundReport("leverage_tv_envelope", {"n": n, "d": d, "ratio": r, "seed": k}, 4.0 * r, tv_max)
    return rows


def _low_mass_rows():
    eps = 0.1
    rows = []
    for n in (10, 100, 1000):
        model = low_mass_row_instance(n)
        energy = model.constraint.limit
        x = np.array([energy, 0.0])  # aligned boundary query maximizes the gap
        h2, _ = _softmax_pair(model.A, model.A + eps * model.M, x)
        params = {"n": n, "eps": eps, "E": energy}
        rows.append(BoundReport("low_mass_h2", params, 2.0 * eps * eps * energy * energy / n, h2))
    return rows


_TIGHT_TOL = 1e-9


def _check_instances(instances):
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")


def run_bound_suite(instances: int, seed: int) -> BoundSuiteResult:
    """Randomized falsification of every closed-form bound plus the two
    model-level envelopes and the low-mass construction.  The rows come in
    families, strict ones first, so each verdict reads only its families'
    rows, once."""
    _check_instances(instances)
    strict = _logit_pair_rows(seed, instances) + _chain_rows(seed, instances)
    extremal = _extremal_rows()
    envelopes = {
        "softmax_query_h2": _softmax_envelope_rows(seed, instances),
        "leverage_tv_envelope": _leverage_envelope_rows(seed, instances),
        "low_mass_h2": _low_mass_rows(),
    }
    rows = (*strict, *extremal, *chain.from_iterable(envelopes.values()))
    tight = [abs(r.ratio - 1.0) <= _TIGHT_TOL for r in extremal]
    others = len(rows) - len(strict) - len(extremal)
    violations = sum(not r.satisfied for r in strict)
    max_ratios = {  # a NaN ratio is the max
        fam: float(np.max([r.ratio for r in fam_rows])) if fam_rows else math.nan for fam, fam_rows in envelopes.items()
    }
    grid = np.linspace(0.01, 4.0, 50)
    curves = [[bound(e) for e in grid] for bound in (lemma_h2_bound, lemma_tv_bound)]
    monotone_ok = all(x < y for v in curves for x, y in zip(v, v[1:]))
    strict_flags = (True,) * len(strict) + (False,) * (len(extremal) + others)
    tight_flags = (None,) * len(strict) + tuple(tight) + (None,) * others
    return BoundSuiteResult(rows, strict_flags, tight_flags, violations, max_ratios, monotone_ok, all(tight))


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


def _max_gap(P):
    """max_i |P[..., 0, i] - P[..., 1, i]| of each pair in a pmf stack."""
    return np.abs(P[..., 0, :] - P[..., 1, :]).max(axis=-1)


def _shift_shape(U, Z):
    return np.stack([_uniform_int(U[:, 0], 2, 9), _uniform_int(U[:, 1], 1, 6)], axis=-1)  # n in [2, 8], d in [1, 5]


def _shift_draw(U, Z, idx, n, d):
    z = Z(idx, (n + 2) * d).reshape(-1, n + 2, d)  # the rows of A, then w and x
    return z[:, :n], z[:, n], z[:, n + 1]


def _shift_deviation(A, w, x):
    B = A + w[..., None, :]  # A + outer(ones(n), w), whose entries are 1.0 * w_j
    return (_max_gap(softmax_pmfs(np.stack([_kernels._matvec(A, x), _kernels._matvec(B, x)], axis=-2))),)


def _right_draw(U, Z, idx, n, d):
    # R has condition number kappa = 10^(3 u) <= 1e3: random orthogonal
    # factors around a log-uniform singular spectrum.  Uniforms for d, n,
    # kappa and then the scales, normals for the rows of A, U and V.
    z = Z(idx, (n + 2 * d) * d).reshape(-1, n + 2 * d, d)
    return z[:, :n], math.log(1e3) * U[idx, 2], z[:, n : n + d], z[:, n + d :], U[idx, 3 : 3 + n]


def _right_deviation(A, log_kappa, U, V, r):
    d = A.shape[-1]
    sing = np.exp(np.linspace(-0.5, 0.5, d) * log_kappa[:, None]) if d > 1 else np.ones((len(A), 1))
    diag = sing[..., None] * np.eye(d)  # np.diag of each spectrum
    R = np.linalg.qr(U)[0] @ diag @ np.linalg.qr(V)[0]
    return (_max_gap(leverage_pmfs(np.stack([A @ R, A], axis=-3), _SUITE_BOX.scales(r)[..., None, :])),)


def _sign_draw(U, Z, idx, n, d):
    r = U[idx, 2 : 2 + 2 * n].reshape(-1, 2, n)  # uniforms for d, n, the scales and then the coins
    return Z(idx, n * d).reshape(-1, n, d), r[:, 0], r[:, 1]


def _sign_deviation(A, r, coin):
    s = _SUITE_BOX.scales(r)
    flip = np.where(coin < 0.5, -1.0, 1.0)
    return (_max_gap(leverage_pmfs(A[..., None, :, :], np.stack([s * flip, s], axis=-2))),)


def _normalization_draw(U, Z, idx, n, d):
    z = Z(idx, (n + 1) * d).reshape(-1, n + 1, d)  # the rows of A, then x
    return z[:, :n], z[:, n]


def _normalization_deviation(A, x):
    dev = np.abs(_kernels.softmax_probs(_kernels._matvec(A, x)).sum(axis=-1) - 1.0)
    probs, _, ok = _kernels.leverage_probs(A)
    lev_dev = np.abs(probs.sum(axis=-1) - 1.0)
    return (np.where(ok & (lev_dev > dev), lev_dev, dev),)  # max(dev, lev_dev) if ok else dev


# (property, stream label, tolerance, family of ``_grouped``, deviation of
# each instance in a stack of fields); a tall matrix has d in [1, 4] and n
# in [d + 1, 9]
_INVARIANCES = (
    ("shift_invariance", "shift", 1e-12, (2, (8 + 2) * 5, _shift_shape, _shift_draw), _shift_deviation),
    ("right_invariance", "right", 1e-8, (3 + 9, (9 + 8) * 4, _tall_shape, _right_draw), _right_deviation),
    ("sign_invariance", "sign", 1e-12, (2 + 2 * 9, 9 * 4, _tall_shape, _sign_draw), _sign_deviation),
    ("normalization", "norm", 1e-9, (2, (9 + 1) * 4, _tall_shape, _normalization_draw), _normalization_deviation),
)


def _metric_shape(U, Z):
    return _uniform_int(U[:, :1], 2, 12)  # n in [2, 11]


def _metric_draw(U, Z, idx, n):
    """Weights and masks of P, Q and R of metric instances, as ``(k, 3, n)``
    stacks, from uniforms for n, the weights and coins of P, Q and R, and
    three to keep.  An outcome whose coin falls below 0.15 is masked; where
    all of a distribution's are, the one its keep uniform u picks,
    floor(n u), is not."""
    wc = U[idx, 1 : 1 + 6 * n].reshape(-1, 3, 2, n)
    masked = wc[:, :, 1] < 0.15
    keep = _uniform_int(U[idx, 1 + 6 * n : 4 + 6 * n], 0, n)
    masked &= ~(masked.all(axis=-1, keepdims=True) & (np.arange(n) == keep[..., None]))
    return wc[:, :, 0], masked


_METRIC = (1 + 6 * 11 + 3, 0, _metric_shape, _metric_draw)


def _metric_distances(weights, masked):
    """H^2 of the five distinct ordered pairs (P, Q), (Q, P), (P, P),
    (P, R) and (Q, R) of each instance, then their TV, from one kernel call;
    each distribution is its weights + 1e-12, zero where masked,
    normalized."""
    p = np.where(masked, 0.0, weights + 1e-12)
    probs = normalize_probs(p / p.sum(axis=-1, keepdims=True))
    P, Q, R = probs[:, 0], probs[:, 1], probs[:, 2]
    h2, t = _kernels.h2_tv(np.stack([P, Q, P, P, Q], axis=1), np.stack([Q, P, P, R, R], axis=1))
    return (*h2.T, *t.T)


def _metric_axioms(seed, count):
    """Counts of instances that break the sandwich, of triangle
    inequalities broken (two per instance: TV and Hellinger), of instances
    that break symmetry and of those whose identity distances d(P, P) are
    not both within the slack; then the largest excess lhs - rhs of the
    sandwich's sides and of the triangle inequalities, and the largest
    identity distance.  A NaN distance fails each test and figure it enters."""
    sandwich = triangle = sym = identity = 0
    slack, sides, triangles, ident = 1e-12, [], [], []
    for *_, distances in _grouped(seed, "metric", range(count), _METRIC, _metric_distances):
        h2_pq, h2_qp, h2_pp, h2_pr, h2_qr, tv_pq, tv_qp, tv_pp, tv_pr, tv_qr = distances
        tv_sum, h_sum = tv_pq + tv_qr, np.sqrt(h2_pq) + np.sqrt(h2_qr)
        sandwich += np.count_nonzero(~sandwich_holds(h2_pq, tv_pq))
        triangle += np.count_nonzero(~(tv_pr <= tv_sum + slack)) + np.count_nonzero(~(np.sqrt(h2_pr) <= h_sum + slack))
        sym += np.count_nonzero((tv_pq != tv_qp) | (h2_pq != h2_qp))
        identity += np.count_nonzero(~((tv_pp <= slack) & (h2_pp <= slack)))
        sides += (h2_pq - tv_pq, tv_pq - np.sqrt(2.0 * h2_pq))
        triangles += (tv_pr - tv_sum, np.sqrt(h2_pr) - h_sum)
        ident += (tv_pp, h2_pp)
    worst = (float(np.max(np.hstack(e))) for e in (sides, triangles, ident))
    return int(sandwich), int(triangle), int(sym), int(identity), *worst


def run_invariance_suite(instances: int, seed: int) -> InvarianceReport:
    """Model symmetries and metric axioms over randomized instances.  An
    instance violates a symmetry unless its deviation is at most the
    tolerance, so a NaN deviation counts, and it is the maximum reported."""
    _check_instances(instances)
    props = []
    for name, label, tol, family, deviation in _INVARIANCES:
        dev = np.hstack([dev for *_, (dev,) in _grouped(seed, label, range(instances), family, deviation)])
        violations = int(np.count_nonzero(~(dev <= tol)))
        props.append(PropertyResult(name, instances, float(dev.max()), violations, violations == 0))
    sandwich, triangle, sym, identity, sandwich_dev, triangle_dev, ident = _metric_axioms(seed, instances)
    props.append(PropertyResult("metric_sandwich", instances, sandwich_dev, sandwich, sandwich == 0))
    props.append(PropertyResult("metric_triangle", instances, triangle_dev, triangle, triangle == 0))
    props.append(PropertyResult("metric_symmetry", instances, 0.0, sym, sym == 0))
    props.append(PropertyResult("metric_identity", instances, ident, identity, identity == 0))
    return InvarianceReport(tuple(props), all(p.ok for p in props))


def write_invariance_csv(path, report: InvarianceReport):
    write_csv(
        path,
        ("property", "instances", "max_deviation", "violations", "ok"),
        [astuple(p) for p in report.properties],
        footers=(f"all_ok {int(report.all_ok)}",),
    )
