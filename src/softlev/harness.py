"""Reproducible experiment harness: epsilon sweeps with scaling-law fits,
local-expansion checks, randomized bound-falsification suites, invariance
suites, and CSV emission.

Everything is driven by a single top-level seed; per-row subseeds come from
:func:`softlev.rng.derive_seed`, and every emitted row carries the subseed
that replays it in isolation.  Output tables are byte-identical for
identical specs, including across ``threads`` settings: grid points may
compute in any order, but rows are buffered and written in grid order.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import _kernels
from .bounds import BoundReport, extremal_pair, lemma_h2_bound, lemma_tv_bound
from .distributions import DiscreteDistribution, hellinger_sq, tv
from .errors import InputFormatError
from .hypotest import estimate_sample_complexity, estimate_success
from .leverage import BoxConstraint, leverage_pmf, leverage_pmf_derivative, leverage_pmfs
from .model import ModelSpec, get_family
from .numerics import gram, min_eigenvalue, row_gram_gap, two_to_infty_norm
from .optimize import OptimizerConfig
from .rng import Stream, derive_seed, derive_seeds, generator, generators
from .softmax import EnergyConstraint, softmax_pmf, softmax_pmfs

TAYLOR_EPS = (1e-2, 1e-3, 1e-4)


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
    for i, row in enumerate(val):
        if len(row) != width:
            raise InputFormatError(f"{path}: field '{field}' row {i} has {len(row)} entries, expected {width}")
        for j, entry in enumerate(row):
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise InputFormatError(f"{path}: field '{field}' entry [{i}][{j}] is not a number")
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
        raise InputFormatError(f"{path}: field 'family' must be 'softmax' or 'leverage', got {family!r}") from None
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
        return ModelSpec(family, A, B, M, constraint, seed)
    except ValueError as exc:  # a shape or finiteness check, naming its field
        raise InputFormatError(f"{path}: {exc}") from exc


def gaussian_instance(family, n, d, seed=0, energy=1.0, box=(0.5, 2.0)) -> ModelSpec:
    """Standard-normal A and M with the default constraint for the family."""
    g = generator(derive_seed(seed, "gaussian", family, n, d))
    A = g.standard_normal((n, d))
    M = g.standard_normal((n, d))
    return ModelSpec(family, A, None, M, get_family(family).default_constraint(energy, box), seed)


def low_mass_row_instance(n, d=2, energy=1.0) -> ModelSpec:
    """Zero logits perturbed in a single row: the n-dependent construction
    whose optimal-query H^2 decays like 1/n despite a unit row gap."""
    A = np.zeros((n, d))
    M = np.zeros((n, d))
    M[0, 0] = 1.0
    return ModelSpec("softmax", A, None, M, EnergyConstraint(energy), 0)


def padded_identity_instance(n, d, box=(0.5, 2.0)) -> ModelSpec:
    """Identity block over repeated first-basis rows: the leverage instance
    whose distinguishing power survives arbitrary scale queries."""
    if n < d + 1:
        raise ValueError("padded identity needs n > d")
    A = np.zeros((n, d))
    A[:d] = np.eye(d)
    A[d:, 0] = 1.0
    return ModelSpec("leverage", A, None, None, BoxConstraint(*box), 0)


# ---------------------------------------------------------------------------
# experiment spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment run."""

    model: ModelSpec | None = None
    eps_grid: tuple = (0.2, 0.1, 0.05)
    trials: int = 400
    instances: int = 1000
    opt: OptimizerConfig = OptimizerConfig()
    seed: int = 0
    threads: int = 1
    out_path: str | None = None

    def __post_init__(self):
        grid = tuple(float(e) for e in self.eps_grid)
        if not grid or any(e <= 0 for e in grid):
            raise ValueError("eps grid must be non-empty with positive entries")
        if any(a <= b for a, b in zip(grid, grid[1:])):
            raise ValueError(f"eps grid must be strictly decreasing, got {grid}")
        if self.trials < 1 or self.instances < 1 or self.threads < 1:
            raise ValueError("trials, instances, and threads must be at least 1")
        object.__setattr__(self, "eps_grid", grid)


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def fmt17(x) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(float(x), ".17g")


def _fmt_params(params: dict) -> str:
    parts = []
    for key in sorted(params):
        val = params[key]
        if isinstance(val, float):
            parts.append(f"{key}={fmt17(val)}")
        else:
            parts.append(f"{key}={val}")
    return ";".join(parts)


def write_csv(path, header, rows, footers=()):
    """UTF-8 CSV with '#'-prefixed footer lines and '\\n' newlines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
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
    rows_used: int
    nu: float


_SWEEP_HEADER = ("eps", "h2_at_opt", "nu", "m_star", "success_at_m", "seed")


def _sweep_row_cells(row: SweepRow):
    return (
        fmt17(row.eps),
        fmt17(row.h2_at_opt),
        fmt17(row.nu),
        str(row.m_star),
        fmt17(row.success_at_m),
        str(row.seed),
    )


def _sweep_nu(model: ModelSpec, opt: OptimizerConfig, seed: int) -> float:
    return model.max_variance(replace(opt, seed=derive_seed(seed, "nu"))).value


def sweep_point(spec: ExperimentSpec, index: int, nu: float) -> SweepRow:
    """Compute one grid point; deterministic given (spec, index).

    The row's subseed is derive_seed(spec.seed, "grid", index); everything
    stochastic in the row flows from it, so a row can be replayed alone.
    """
    model = spec.model
    eps = spec.eps_grid[index]
    row_seed = derive_seed(spec.seed, "grid", index)
    pair = ModelSpec(model.family, model.A, model.A + eps * model.direction(), None, model.constraint)
    query, h = pair.optimal_query(replace(spec.opt, seed=derive_seed(row_seed, "opt")))
    m_star = estimate_sample_complexity(pair, trials=spec.trials, seed=derive_seed(row_seed, "mstar"), query=query)
    success = estimate_success(pair, m_star, spec.trials, derive_seed(row_seed, "success"), query=query)
    return SweepRow(eps=eps, h2_at_opt=h**2, nu=nu, m_star=m_star, success_at_m=success, seed=row_seed)


def _fit_loglog(rows):
    if len(rows) < 2:
        return math.nan, math.nan
    xs = np.log([r.eps for r in rows])
    ys = np.log([r.m_star for r in rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def _gather_grid(spec, worker):
    """Run worker(i) over the grid with the spec's thread budget; return
    (results_by_index, first_error) with results in grid order."""
    outcomes = [None] * len(spec.eps_grid)
    if spec.threads == 1:
        for i in range(len(spec.eps_grid)):
            try:
                outcomes[i] = ("ok", worker(i))
            except Exception as exc:  # noqa: BLE001 - re-raised after flushing
                outcomes[i] = ("err", exc)
    else:
        with ThreadPoolExecutor(max_workers=spec.threads) as pool:
            futures = [pool.submit(worker, i) for i in range(len(spec.eps_grid))]
            for i, fut in enumerate(futures):
                try:
                    outcomes[i] = ("ok", fut.result())
                except Exception as exc:  # noqa: BLE001
                    outcomes[i] = ("err", exc)
    rows = [payload for tag, payload in outcomes if tag == "ok"]
    first_error = next((payload for tag, payload in outcomes if tag == "err"), None)
    return rows, first_error


def _write_sweep_csv(path, rows, slope, intercept):
    write_csv(
        path,
        _SWEEP_HEADER,
        [_sweep_row_cells(r) for r in rows],
        footers=(
            f"fit_slope {fmt17(slope)}",
            f"fit_intercept {fmt17(intercept)}",
            f"rows_used {len(rows)}",
        ),
    )


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """m*(eps) sweep over the grid with a log-log least-squares fit.

    nu (the variance functional's sup) is computed once -- it does not
    depend on eps.  On error, rows that completed are flushed to
    ``spec.out_path`` (when set) before the first error re-raises.
    """
    if spec.model is None:
        raise ValueError("sweep needs a model")
    nu = _sweep_nu(spec.model, spec.opt, spec.seed)
    rows, first_error = _gather_grid(spec, lambda i: sweep_point(spec, i, nu))
    slope, intercept = _fit_loglog(rows)
    if spec.out_path:
        _write_sweep_csv(spec.out_path, rows, slope, intercept)
    if first_error is not None:
        raise first_error
    return SweepResult(tuple(rows), slope, intercept, len(rows), nu)


# ---------------------------------------------------------------------------
# local expansion (Taylor) checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaylorRow:
    eps: float
    h2: float
    reference: float  # (1/2) eps^2 Var_P(Mx): the half-normalized yardstick
    ratio_half: float  # h2 / reference
    ratio_eighth: float  # h2 / ((1/8) eps^2 Var_P(Mx))


@dataclass(frozen=True)
class TaylorReport:
    family: str
    degenerate: bool
    query: np.ndarray | None
    rows: tuple = ()
    # softmax flags
    band_ok: bool | None = None  # ratio_half at eps = 1e-3 within (1/4) [0.9, 1.1]
    converging_eighth: bool | None = None  # |ratio_eighth - 1| shrinks from 1e-3 to 1e-4
    zratio_dev: float | None = None  # |Z ratio - (1 + eps <p, Mx>)| at eps = 1e-4
    zratio_ok: bool | None = None  # dev within 2 eps^2
    # leverage figures
    derivative_max_err: float | None = None
    derivative_sum: float | None = None
    derivative_ok: bool | None = None  # max err <= 1e-4 and |sum| <= 1e-10
    coeff_empirical: float | None = None  # H^2 / eps^2 at the smallest eps
    coeff_w2: float | None = None  # sum_i W_ii^2 / (2 d^2 p_i)
    coeff_w_literal: float | None = None  # sum_i W_ii / p_i


def _run_taylor_softmax(model, query):
    A, M = model.A, model.direction()
    P = softmax_pmf(A, query)
    v = M @ query
    var = float(P.probs @ (v - P.probs @ v) ** 2)
    if var == 0.0:
        return TaylorReport(family="softmax", degenerate=True, query=np.asarray(query))
    rows = []
    for eps in TAYLOR_EPS:
        Q = softmax_pmf(A + eps * M, query)
        h2 = hellinger_sq(P, Q)
        ref = 0.5 * eps * eps * var
        rows.append(TaylorRow(eps, h2, ref, h2 / ref, h2 / (0.25 * ref)))
    by_eps = {r.eps: r for r in rows}
    band_ok = 0.25 * 0.9 <= by_eps[1e-3].ratio_half <= 0.25 * 1.1
    conv_eighth = abs(by_eps[1e-4].ratio_eighth - 1.0) < abs(by_eps[1e-3].ratio_eighth - 1.0)
    eps = 1e-4
    zratio = float(P.probs @ np.exp(eps * v))  # Z_{A+eps M} / Z_A, exactly
    zdev = abs(zratio - (1.0 + eps * float(P.probs @ v)))
    return TaylorReport(
        family="softmax",
        degenerate=False,
        query=np.asarray(query),
        rows=tuple(rows),
        band_ok=band_ok,
        converging_eighth=conv_eighth,
        zratio_dev=zdev,
        zratio_ok=zdev <= 2.0 * eps * eps,
    )


def _run_taylor_leverage(model, query):
    from . import _kernels

    A, M = model.A, model.direction()
    s = np.asarray(query, dtype=np.float64)
    deriv = leverage_pmf_derivative(A, M, s)
    fd_eps = 1e-6
    hi = leverage_pmf(A + fd_eps * M, s).probs
    lo = leverage_pmf(A - fd_eps * M, s).probs
    fd = (hi - lo) / (2.0 * fd_eps)
    max_err = float(np.abs(deriv - fd).max())
    dsum = float(deriv.sum())
    ok = max_err <= 1e-4 and abs(dsum) <= 1e-10
    lev, wnum, good = _kernels.leverage_w_parts(A / s[:, None], M / s[:, None])
    if not good:
        raise AssertionError("unreachable: pmf above succeeded")  # pragma: no cover
    d = A.shape[1]
    if float((wnum * wnum).sum()) == 0.0:
        return TaylorReport(
            family="leverage",
            degenerate=True,
            query=s,
            derivative_max_err=max_err,
            derivative_sum=dsum,
            derivative_ok=ok,
        )
    P = leverage_pmf(A, s)
    rows = []
    for eps in TAYLOR_EPS:
        h2 = hellinger_sq(P, leverage_pmf(A + eps * M, s))
        rows.append(TaylorRow(eps, h2, math.nan, math.nan, math.nan))
    p = lev / d
    coeff_emp = rows[-1].h2 / rows[-1].eps ** 2
    coeff_w2 = float((wnum * wnum / (2.0 * d * d * p)).sum())
    coeff_lit = float((wnum / p).sum())
    return TaylorReport(
        family="leverage",
        degenerate=False,
        query=s,
        rows=tuple(rows),
        derivative_max_err=max_err,
        derivative_sum=dsum,
        derivative_ok=ok,
        coeff_empirical=coeff_emp,
        coeff_w2=coeff_w2,
        coeff_w_literal=coeff_lit,
    )


def run_taylor_check(spec: ExperimentSpec, query=None) -> TaylorReport:
    """Local expansion checks at a fixed admissible query.

    softmax: tabulates r(eps) = H^2 / ((1/2) eps^2 Var_P(Mx)) at
    eps in {1e-2, 1e-3, 1e-4}, and the same ratio normalized by
    (1/8) eps^2 Var.  Since H^2 = (1/8) eps^2 Var + O(eps^3), r tends to 1/4
    and the 1/8-normalized ratio to 1: flags whether r(1e-3) lands in
    (1/4) [0.9, 1.1] and whether the deviation of the 1/8-normalized ratio
    from 1 shrinks from eps = 1e-3 to 1e-4.  Also checks the
    partition-function expansion Z_B/Z_A = 1 + eps <p, Mx> + O(eps^2) at
    eps = 1e-4.

    leverage: checks the derivative against central differences and reports
    the empirical H^2/eps^2 coefficient next to the two closed-form
    candidates, asserting neither.
    """
    if spec.model is None:
        raise ValueError("taylor check needs a model")
    model = spec.model
    if query is None:
        g = generator(derive_seed(spec.seed, "taylor-query"))
        query = get_family(model.family).random_query(g, model.A.shape, model.constraint)
    model.constraint.check(query)
    if model.family == "softmax":
        return _run_taylor_softmax(model, query)
    return _run_taylor_leverage(model, query)


def write_taylor_csv(path, report: TaylorReport):
    rows = [(fmt17(r.eps), fmt17(r.h2), fmt17(r.reference), fmt17(r.ratio_half), fmt17(r.ratio_eighth)) for r in report.rows]
    footers = [f"family {report.family}", f"degenerate {int(report.degenerate)}"]
    for name in (
        "band_ok",
        "converging_eighth",
        "zratio_dev",
        "zratio_ok",
        "derivative_max_err",
        "derivative_sum",
        "derivative_ok",
        "coeff_empirical",
        "coeff_w2",
        "coeff_w_literal",
    ):
        val = getattr(report, name)
        if val is None:
            continue
        footers.append(f"{name} {fmt17(val) if isinstance(val, float) else int(val)}")
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


def _random_distribution(g, n):
    p = g.random(n) + 1e-12
    mask = g.random(n) < 0.15
    if mask.all():
        mask[int(g.integers(n))] = False
    p[mask] = 0.0
    return DiscreteDistribution(p / p.sum())


def _softmax_pair(A, B, x):
    """H^2 and TV between softmax(A x) and softmax(B x), as one (2, n) stack."""
    h2, t = _kernels.h2_tv(*softmax_pmfs(np.stack([A @ x, B @ x])))
    return float(h2), float(t)


def _streams(seed, label, count):
    """generator(derive_seed(seed, label, k)) for k < count, as one re-keyed
    stream: each generator is valid until the next is drawn."""
    return generators(derive_seeds(seed, label, indices=range(count)))


def _logit_pair_rows(seed, count):
    rows = []
    for k, g in enumerate(_streams(seed, "gap", count)):
        n = int(g.integers(2, 11))
        eps = 2.0 * float(g.random())
        a = 2.0 * g.standard_normal(n)
        mask = g.random(n) < 0.5
        b = a + eps * mask
        h2, t = _softmax_pair(a[:, None], b[:, None], np.ones(1))
        params = {"eps": eps, "n": n, "m": int(mask.sum()), "seed": k}
        rows.append(BoundReport("logit_gap_h2", params, lemma_h2_bound(eps), h2))
        rows.append(BoundReport("logit_gap_tv", params, lemma_tv_bound(eps), t))
    return rows


def _chain_rows(seed, count):
    rows = []
    for k, g in enumerate(_streams(seed, "chain", count)):
        n = int(g.integers(2, 11))
        eps = 2.0 * float(g.random())
        a = 2.0 * g.standard_normal(n)
        b = a + eps * (2.0 * g.random(n) - 1.0)  # ||a - b||_inf <= eps
        h2, t = _softmax_pair(a[:, None], b[:, None], np.ones(1))
        params = {"eps": eps, "n": n, "seed": k}
        rows.append(BoundReport("infty_gap_h2_chain", params, lemma_h2_bound(2.0 * eps), h2))
        rows.append(BoundReport("infty_gap_tv_chain", params, 2.0 * lemma_tv_bound(eps), t))
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


def _softmax_envelope_rows(seed, count):
    # H^2 <= 1.0 * (gap * ||x||)^2 whenever gap * ||x|| <= 1/2, with
    # gap the max row norm of B - A (measured envelope constant 1.0).
    rows = []
    for k, g in enumerate(_streams(seed, "softmax-env", count)):
        n = int(g.integers(2, 11))
        d = int(g.integers(1, 6))
        A = g.standard_normal((n, d))
        D = g.standard_normal((n, d))
        D /= two_to_infty_norm(D)
        x = g.standard_normal(d)
        xnorm = float(np.linalg.norm(x))
        if xnorm == 0.0:
            continue
        rho = 0.5 * float(g.random())
        gap = rho / xnorm
        B = A + gap * D
        h2, _ = _softmax_pair(A, B, x)
        params = {"rho": rho, "n": n, "d": d, "seed": k}
        rows.append(BoundReport("softmax_query_h2", params, rho * rho, h2))
    return rows


def _leverage_envelope_pair(stream, seed, k, box):
    """One well-conditioned pair (A, B) with gap ratio eps*C/(c*delta) in
    (0, 0.1]; retries drawn instances until the conditioning floor holds.
    The returned generator is ``stream``, keyed by the accepted attempt."""
    for attempt in range(50):
        g = stream.keyed(derive_seed(seed, "lev-env", k, attempt))
        d = int(g.integers(1, 4))
        n = int(g.integers(d + 1, 9))
        A = g.standard_normal((n, d))
        delta = min_eigenvalue(gram(A))
        if delta < 0.05:
            continue
        target = 0.1 * (0.1 + 0.9 * float(g.random()))
        G = g.standard_normal((n, d))
        gamma = 1e-3
        for _ in range(30):
            ratio = row_gram_gap(A, A + gamma * G) * box.hi / (box.lo * delta)
            if ratio <= 0.0:
                break
            if abs(ratio - target) <= 0.05 * target:
                break
            gamma *= (target / ratio) ** 0.5
        B = A + gamma * G
        ratio = row_gram_gap(A, B) * box.hi / (box.lo * delta)
        if 0.0 < ratio <= 0.1:
            return g, A, B, n, d, ratio
    raise RuntimeError(f"could not draw a well-conditioned leverage pair for index {k}")  # pragma: no cover


def _leverage_envelope_rows(seed, count, queries_per_pair=10):
    # TV <= 4 * eps C / (c delta) whenever eps C / (c delta) <= 0.1, with
    # eps the row-gram gap and delta = lambda_min(A^T A).
    box = BoxConstraint(0.5, 2.0)
    stream = Stream()
    rows = []
    for k in range(count):
        g, A, B, n, d, ratio = _leverage_envelope_pair(stream, seed, k, box)
        S = np.sqrt(box.lo + g.random((queries_per_pair, n)) * (box.hi - box.lo))
        _, tvs = _kernels.h2_tv(leverage_pmfs(A, S), leverage_pmfs(B, S))
        params = {"n": n, "d": d, "ratio": ratio, "seed": k}
        rows.append(BoundReport("leverage_tv_envelope", params, 4.0 * ratio, float(tvs.max())))
    return rows


def _low_mass_rows(eps=0.1, energy=1.0):
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


def run_bound_suite(spec: ExperimentSpec) -> BoundSuiteResult:
    """Randomized falsification of every closed-form bound plus the two
    model-level envelopes and the low-mass construction."""
    rows = []
    rows += _logit_pair_rows(spec.seed, spec.instances)
    rows += _chain_rows(spec.seed, spec.instances)
    rows += _extremal_rows()
    rows += _softmax_envelope_rows(spec.seed, spec.instances)
    rows += _leverage_envelope_rows(spec.seed, spec.instances)
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
    cells = []
    for row, st, ti in zip(result.rows, result.strict, result.tight):
        cells.append(
            (
                row.bound_name,
                _fmt_params(row.parameters),
                fmt17(row.bound_value),
                fmt17(row.observed_value),
                str(int(row.satisfied)),
                str(int(st)),
                "" if ti is None else str(int(ti)),
            )
        )
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


def _shift_invariance(seed, count):
    worst = 0.0
    for g in _streams(seed, "shift", count):
        n, d = int(g.integers(2, 9)), int(g.integers(1, 6))
        A = g.standard_normal((n, d))
        w = g.standard_normal(d)
        x = g.standard_normal(d)
        B = A + np.outer(np.ones(n), w)
        P = softmax_pmfs(np.stack([A @ x, B @ x]))
        dev = float(np.abs(P[0] - P[1]).max())
        worst = max(worst, dev)
    return worst


def _right_invariance(seed, count):
    worst = 0.0
    for g in _streams(seed, "right", count):
        d = int(g.integers(1, 5))
        n = int(g.integers(d + 1, 10))
        A = g.standard_normal((n, d))
        # R with condition number capped at 1e3: random orthogonal factors
        # around a log-uniform singular spectrum.
        kappa = 10.0 ** (3.0 * float(g.random()))
        sing = np.exp(np.linspace(-0.5, 0.5, d) * math.log(kappa)) if d > 1 else np.ones(1)
        U = np.linalg.qr(g.standard_normal((d, d)))[0]
        V = np.linalg.qr(g.standard_normal((d, d)))[0]
        R = U @ np.diag(sing) @ V
        s = np.sqrt(0.5 + g.random(n) * 1.5)
        P = leverage_pmfs(np.stack([A @ R, A]), s)
        dev = float(np.abs(P[0] - P[1]).max())
        worst = max(worst, dev)
    return worst


def _sign_invariance(seed, count):
    worst = 0.0
    for g in _streams(seed, "sign", count):
        d = int(g.integers(1, 5))
        n = int(g.integers(d + 1, 10))
        A = g.standard_normal((n, d))
        s = np.sqrt(0.5 + g.random(n) * 1.5)
        flip = np.where(g.random(n) < 0.5, -1.0, 1.0)
        P = leverage_pmfs(A, np.stack([s * flip, s]))
        dev = float(np.abs(P[0] - P[1]).max())
        worst = max(worst, dev)
    return worst


def _normalization(seed, count):
    worst = 0.0
    for g in _streams(seed, "norm", count):
        d = int(g.integers(1, 5))
        n = int(g.integers(d + 1, 10))
        A = g.standard_normal((n, d))
        x = g.standard_normal(d)
        worst = max(worst, abs(float(_kernels.softmax_probs(A @ x).sum()) - 1.0))
        probs, _, ok = _kernels.leverage_probs(A)
        if ok:
            worst = max(worst, abs(float(probs.sum()) - 1.0))
    return worst


def _metric_axioms(seed, count):
    sandwich_viol = 0
    triangle_viol = 0
    sym_viol = 0
    ident_dev = 0.0
    slack = 1e-12
    for g in _streams(seed, "metric", count):
        n = int(g.integers(2, 12))
        P = _random_distribution(g, n)
        Q = _random_distribution(g, n)
        R = _random_distribution(g, n)
        h2, t = hellinger_sq(P, Q), tv(P, Q)
        if not (h2 <= t + slack and t <= math.sqrt(2.0 * h2) + slack):
            sandwich_viol += 1
        if tv(P, Q) != tv(Q, P) or hellinger_sq(P, Q) != hellinger_sq(Q, P):
            sym_viol += 1
        ident_dev = max(ident_dev, tv(P, P), hellinger_sq(P, P))
        if tv(P, R) > tv(P, Q) + tv(Q, R) + slack:
            triangle_viol += 1
        hpr = math.sqrt(hellinger_sq(P, R))
        if hpr > math.sqrt(hellinger_sq(P, Q)) + math.sqrt(hellinger_sq(Q, R)) + slack:
            triangle_viol += 1
    return sandwich_viol, triangle_viol, sym_viol, ident_dev


def run_invariance_suite(spec: ExperimentSpec) -> InvarianceReport:
    """Model symmetries and metric axioms over randomized instances."""
    count = spec.instances
    seed = spec.seed
    props = []
    dev = _shift_invariance(seed, count)
    props.append(PropertyResult("shift_invariance", count, dev, int(dev > 1e-12), dev <= 1e-12))
    dev = _right_invariance(seed, count)
    props.append(PropertyResult("right_invariance", count, dev, int(dev > 1e-8), dev <= 1e-8))
    dev = _sign_invariance(seed, count)
    props.append(PropertyResult("sign_invariance", count, dev, int(dev > 1e-12), dev <= 1e-12))
    dev = _normalization(seed, count)
    props.append(PropertyResult("normalization", count, dev, int(dev > 1e-9), dev <= 1e-9))
    sandwich, triangle, sym, ident = _metric_axioms(seed, count)
    props.append(PropertyResult("metric_sandwich", count, float(ident), sandwich, sandwich == 0))
    props.append(PropertyResult("metric_triangle", count, float(ident), triangle, triangle == 0))
    props.append(PropertyResult("metric_symmetry", count, 0.0, sym, sym == 0))
    return InvarianceReport(tuple(props), all(p.ok for p in props))


def write_invariance_csv(path, report: InvarianceReport):
    cells = [
        (p.name, str(p.instances), fmt17(p.max_deviation), str(p.violations), str(int(p.ok)))
        for p in report.properties
    ]
    write_csv(
        path,
        ("property", "instances", "max_deviation", "violations", "ok"),
        cells,
        footers=(f"all_ok {int(report.all_ok)}",),
    )
