"""Binary hypothesis testing against query oracles.

A ``ModelSpec`` names two candidate parameter matrices for one model
family; a ``ModelOracle`` hides which of the two answers queries.  The tester
picks one query (by default the Hellinger-optimal one), draws m samples, and
decides by log-likelihood ratio.  ``estimate_success`` Monte-Carlos the
worst-case success probability and ``estimate_sample_complexity`` searches
for the smallest m that reaches a target.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, draw, hellinger_sq
from .errors import (
    BudgetExceeded,
    IndexOutOfRange,
    IndistinguishableError,
    ShapeMismatch,
)
from .model import ModelSpec
from .rng import derive_seed, generator

_LOG_FLOOR = 1e-300  # probabilities are clamped here before log
_H_FLOOR = 1e-8  # Hellinger distance below this counts as indistinguishable


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
    q, value = spec.optimal_query()
    if value <= _H_FLOOR:
        raise IndistinguishableError(
            f"models coincide at the optimal query (H = {value:.3e}); no test can separate them"
        )
    return q


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
    hoisted out of the loop.
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
        for trial in range(trials):
            # mirrors ModelOracle._next_seed for call index 0
            call_seed = derive_seed(derive_seed(seed, truth, trial), "call", 0)
            counts = generator(call_seed).multinomial(m, pmfs[truth])
            llr = float(counts @ ratio)
            decision = 0 if llr >= 0.0 else 1
            correct += decision == truth
        worst = min(worst, correct / trials)
    return worst


def estimate_sample_complexity(
    spec: ModelSpec,
    target: float = 2.0 / 3.0,
    trials: int = 400,
    seed: int = 0,
    query=None,
    cap: int = 10_000_000,
) -> int:
    """Smallest m (within resolution 1) whose worst-case success reaches target.

    Doubles m from 1 until the target is met, then bisects.  Every probe uses
    a fresh derived seed, so the search never reuses randomness between
    probes.  Raises ``BudgetExceeded`` when the doubling would pass ``cap``
    and ``IndistinguishableError`` when the models coincide at the query.
    """
    if not (0.5 < target < 1.0):
        raise ValueError(f"target must be in (0.5, 1), got {target!r}")
    query = _resolve_query(spec, query)
    h2 = hellinger_sq(spec.pmf(0, query), spec.pmf(1, query))
    if math.sqrt(max(h2, 0.0)) <= _H_FLOOR:
        raise IndistinguishableError(
            f"models coincide at the chosen query (H^2 = {h2:.3e}); no sample size suffices"
        )
    probe = 0

    def success(m):
        nonlocal probe
        rate = estimate_success(spec, m, trials, derive_seed(seed, "probe", probe), query)
        probe += 1
        return rate

    m = 1
    while success(m) < target:
        if 2 * m > cap:
            raise BudgetExceeded(f"sample-size search passed the cap {cap} without reaching {target}")
        m *= 2
    lo, hi = m // 2, m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if success(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi
