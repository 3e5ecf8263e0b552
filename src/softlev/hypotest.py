"""Binary hypothesis testing against query oracles.

A ``ModelSpec`` names two candidate parameter matrices for one model
family; a ``ModelOracle`` hides which of the two answers queries.  The tester
picks one query (by default the Hellinger-optimal one), draws m samples, and
decides by log-likelihood ratio.  ``estimate_success`` Monte-Carlos the
worst-case success probability at one m from multinomial counts.
``estimate_sample_complexity`` draws one common block of sample sequences
per truth, the ones ``ModelOracle.sample`` would draw, and reads the
worst-case success at every m off their running log-likelihood ratios;
m* is where that curve crosses the target for the last time.  The block
starts three times as long as the central-limit prediction of m* (at most
as long as the Bhattacharyya bound) and doubles while the curve is still
below the target at its end.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, draw, hellinger_sq, mean_under, variance_under
from .errors import (
    BudgetExceeded,
    IndexOutOfRange,
    IndistinguishableError,
    ShapeMismatch,
)
from .model import ModelSpec
from .rng import Stream, derive_seed, derive_seeds, generator, generators

_LOG_FLOOR = 1e-300  # probabilities are clamped here before log
_H_FLOOR = 1e-8  # Hellinger distance below this counts as indistinguishable
_BLOCK = 1 << 12  # outcomes per block of rows in the m* search
_Z95 = 1.9599639845400536  # standard normal 97.5% quantile, for 95% intervals


class ModelOracle:
    """Black box answering queries from one of the two models in a spec.

    The hidden index is stored name-mangled and nothing in the decision path
    reads it; tests rely on that separation.
    """

    def __init__(self, spec: ModelSpec, hidden_truth: int, seed: int):
        if hidden_truth not in (0, 1):
            raise ValueError(f"hidden_truth must be 0 or 1, got {hidden_truth!r}")
        self.spec = spec
        self.seed = int(seed)
        self.queries_used = 0
        self.__truth = int(hidden_truth)
        self.__calls = 0

    def _hidden_pmf(self, query) -> DiscreteDistribution:
        return self.spec.pmf(self.__truth, query)

    def _next_seed(self) -> int:
        s = derive_seed(self.seed, "call", self.__calls)
        self.__calls += 1
        return s

    def sample(self, query, count: int) -> np.ndarray:
        """``count`` outcome indices from the hidden model's law at ``query``."""
        self.spec.constraint.check(query)
        pmf = self._hidden_pmf(query)
        out = draw(pmf, self._next_seed(), count)
        self.queries_used += count
        return out

    def sample_counts(self, query, count: int) -> np.ndarray:
        """Aggregated outcome counts of ``count`` draws (multinomial).

        Statistically equivalent to binning :meth:`sample`, and O(n) instead
        of O(count) -- the samples are exchangeable and only their counts
        enter a likelihood ratio.
        """
        self.spec.constraint.check(query)
        pmf = self._hidden_pmf(query)
        counts = generator(self._next_seed()).multinomial(count, pmf.probs)
        self.queries_used += count
        return counts


def log_likelihood_ratio(P0: DiscreteDistribution, P1: DiscreteDistribution) -> np.ndarray:
    """Per-outcome log(p0 / p1), with probabilities clamped at 1e-300.

    The clamp keeps zero-probability outcomes at a huge-but-finite penalty
    (about -/+690) instead of producing inf - inf = nan downstream.
    """
    if P0.n != P1.n:
        raise ShapeMismatch(f"distributions live on different supports: {P0.n} vs {P1.n}")
    return np.log(np.maximum(P0.probs, _LOG_FLOOR)) - np.log(np.maximum(P1.probs, _LOG_FLOOR))


def lrt_decide(samples, P0: DiscreteDistribution, P1: DiscreteDistribution):
    """Likelihood-ratio decision on a sample sequence: (decision, llr).

    decision is 0 exactly when the summed log-likelihood ratio is >= 0
    (ties go to 0).
    """
    samples = np.asarray(samples, dtype=np.int64)
    if samples.ndim != 1:
        raise ShapeMismatch("samples must be a 1-D index array")
    ratio = log_likelihood_ratio(P0, P1)
    if samples.size:
        lo, hi = int(samples.min()), int(samples.max())
        if lo < 0 or hi >= P0.n:
            raise IndexOutOfRange(f"sample index out of range [0, {P0.n}): saw {lo if lo < 0 else hi}")
    llr = float(ratio[samples].sum())
    return (0 if llr >= 0.0 else 1), llr


@dataclass(frozen=True)
class TestReport:
    decision: int
    llr: float
    m: int
    query: np.ndarray
    seed: int


def _resolve_query(spec: ModelSpec, query):
    if query is not None:
        return query
    res = spec.max_hellinger()
    if res.value <= _H_FLOOR:
        raise IndistinguishableError(
            f"models coincide at the optimal query (H = {res.value:.3e}); no test can separate them"
        )
    return res.argmax


def run_test(oracle: ModelOracle, m: int, query=None) -> TestReport:
    """One likelihood-ratio test with m samples against a live oracle.

    With ``query=None`` the Hellinger-optimal query is computed from the
    oracle's public spec (never from its hidden truth).
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    query = _resolve_query(oracle.spec, query)
    p0 = oracle.spec.pmf(0, query)
    p1 = oracle.spec.pmf(1, query)
    ratio = log_likelihood_ratio(p0, p1)
    counts = oracle.sample_counts(query, m)
    llr = float(counts @ ratio)
    return TestReport(decision=0 if llr >= 0.0 else 1, llr=llr, m=m, query=np.asarray(query), seed=oracle.seed)


def estimate_success(spec: ModelSpec, m: int, trials: int, seed: int, query=None) -> float:
    """Worst-case (over the two truths) empirical success rate of the test.

    Runs ``trials`` independent tests per truth with subseeds derived as
    (seed, truth, trial); equivalent to building a fresh ``ModelOracle`` per
    trial and calling :func:`run_test`, but with the per-trial pmf work
    hoisted out of the loop and one re-keyed stream for all trials.
    """
    if m < 1 or trials < 1:
        raise ValueError("m and trials must be at least 1")
    query = _resolve_query(spec, query)
    spec.constraint.check(query)
    p0 = spec.pmf(0, query)
    p1 = spec.pmf(1, query)
    ratio = log_likelihood_ratio(p0, p1)
    pmfs = (p0.probs, p1.probs)
    worst = 1.0
    for truth in (0, 1):
        correct = 0
        # mirrors ModelOracle._next_seed for call index 0, per trial
        seeds = derive_seeds(seed, truth, indices=range(trials), tail=("call", 0))
        for g in generators(seeds):
            counts = g.multinomial(m, pmfs[truth])
            # one dot per trial: a tie at llr = 0 decides it, so keep the
            # exact arithmetic of run_test
            llr = float(counts @ ratio)
            decision = 0 if llr >= 0.0 else 1
            correct += decision == truth
        worst = min(worst, correct / trials)
    return worst


@dataclass(frozen=True)
class SampleComplexity:
    """The result of :func:`estimate_sample_complexity`.

    ``m_star`` is the smallest m from which the worst-case success curve of
    the common block stays at or above the target up to the horizon,
    ``success`` that curve at ``m_star``, ``horizon`` the number of samples
    per trial the block held (the start horizon, doubled as often as the
    curve was still below the target at the end), and ``m_star_ci`` the
    same crossing read off the curve's 95% Wilson upper and lower bounds.
    """

    m_star: int
    success: float
    horizon: int
    m_star_ci: tuple[int, int]


def _success_curve(pmfs, ratio, trials: int, seed: int, horizon: int) -> np.ndarray:
    """Worst-case success of the likelihood-ratio test at every m in
    1..horizon, on one common block of draws per truth.

    Row k of truth t holds the ``horizon`` outcomes that
    ``ModelOracle(spec, t, derive_seed(seed, t, k)).sample(query, horizon)``
    draws, and the running sum of ``ratio`` along it gives that trial's
    log-likelihood ratio after every m.  Draws are a prefix of longer ones,
    so the curve at m does not depend on the horizon.  The rows are
    processed ``_BLOCK // horizon`` (at least one) at a time.
    """
    rows = max(1, _BLOCK // horizon)
    block = np.empty((min(rows, trials), horizon))
    correct = []
    for truth in (0, 1):
        cdf = np.cumsum(pmfs[truth].probs)
        counts = np.zeros(horizon, dtype=np.int64)
        # mirrors ModelOracle._next_seed for call index 0, per trial
        seeds = list(derive_seeds(seed, truth, indices=range(trials), tail=("call", 0)))
        keyed = Stream().keyed
        for start in range(0, trials, rows):
            u = block[: min(rows, trials - start)]
            for row, s in zip(u, seeds[start : start + rows]):
                keyed(s).random(out=row)
            # inverse-CDF as in distributions.draw
            idx = np.searchsorted(cdf, u, side="right")
            np.minimum(idx, cdf.size - 1, out=idx)
            llr = np.cumsum(ratio[idx], axis=1)
            # a tie at llr = 0 decides for truth 0, as in run_test
            counts += np.count_nonzero(llr >= 0.0 if truth == 0 else llr < 0.0, axis=0)
        correct.append(counts)
    return np.minimum(*correct) / trials


def _last_below(curve, target: float) -> int:
    """The last m (1-based) whose curve value is below target; 0 if none."""
    below = np.flatnonzero(curve < target)
    return int(below[-1]) + 1 if below.size else 0


def _clt_m_star(pmfs, ratio, target: float) -> float:
    """The central-limit prediction of m*: the m at which a normal
    approximation of the summed log-likelihood ratio reaches ``target``,
    max over the two truths of (z sigma_t / mu_t)^2 with z = Phi^-1(target)."""
    # imported here: statistics costs every CLI start about 4 ms
    from statistics import NormalDist

    z = NormalDist().inv_cdf(target)
    worst = 0.0
    for p in pmfs:
        mean = mean_under(p, ratio)
        if mean == 0.0:
            return math.inf
        worst = max(worst, (z * math.sqrt(variance_under(p, ratio)) / mean) ** 2)
    return worst


def _wilson(p, n: int):
    """95% Wilson score bounds on binomial proportions p of n trials."""
    z2n = _Z95 * _Z95 / n
    center = (p + z2n / 2.0) / (1.0 + z2n)
    half = _Z95 / (1.0 + z2n) * np.sqrt(p * (1.0 - p) / n + z2n / (4.0 * n))
    return center - half, center + half


def estimate_sample_complexity(
    spec: ModelSpec,
    target: float = 2.0 / 3.0,
    trials: int = 400,
    seed: int = 0,
    query=None,
    cap: int = 10_000_000,
) -> SampleComplexity:
    """The sample size m* at which the worst-case success reaches target.

    Draws one common ``trials`` x horizon block of outcomes per truth (see
    :func:`_success_curve`) and reads the worst-case success at every m off
    it.  m* is one past the last m whose success is below target, so the
    success stays at or above target from m* up to the horizon.  The
    horizon starts at ceil(3 m_gauss), with m_gauss the central-limit
    prediction of m* (see :func:`_clt_m_star`), but never above the
    Bhattacharyya bound ceil(ln 3 / -ln(1 - H^2)), where the test's true
    success already exceeds 2/3, nor above ``cap``; while the curve is
    still below target at the horizon, the horizon doubles.  A trial's
    draws are a prefix of longer ones, so the curve up to the horizon
    does not depend on where the horizon started; m* can only come out
    lower than a longer block would give, where the curve dips below
    target again past the horizon.  Raises ``BudgetExceeded`` when the
    doubling would pass ``cap`` and ``IndistinguishableError`` when the
    models coincide at the query.
    """
    if not (0.5 < target < 1.0):
        raise ValueError(f"target must be in (0.5, 1), got {target!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    query = _resolve_query(spec, query)
    spec.constraint.check(query)
    pmfs = (spec.pmf(0, query), spec.pmf(1, query))
    h2 = hellinger_sq(*pmfs)
    if math.sqrt(max(h2, 0.0)) <= _H_FLOOR:
        raise IndistinguishableError(
            f"models coincide at the chosen query (H^2 = {h2:.3e}); no sample size suffices"
        )
    ratio = log_likelihood_ratio(*pmfs)
    rate = -math.log1p(-h2) if h2 < 1.0 else math.inf
    bhattacharyya = math.log(3.0) / rate
    start = min(3.0 * _clt_m_star(pmfs, ratio, target), bhattacharyya)
    horizon = max(1, min(cap, math.ceil(start)))
    while True:
        curve = _success_curve(pmfs, ratio, trials, seed, horizon)
        last = _last_below(curve, target)
        if last < horizon:
            break
        if horizon >= cap:
            raise BudgetExceeded(f"sample-size search passed the cap {cap} without reaching {target}")
        horizon = min(2 * horizon, cap)
    lower, upper = _wilson(curve, trials)
    ci = (_last_below(upper, target) + 1, _last_below(lower, target) + 1)
    return SampleComplexity(m_star=last + 1, success=float(curve[last]), horizon=horizon, m_star_ci=ci)
