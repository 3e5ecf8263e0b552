"""Likelihood-ratio testing against hidden-model oracles."""

import importlib.resources as ir
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softlev import hypotest
from softlev.distributions import DiscreteDistribution
from softlev.errors import (
    BudgetExceeded,
    ConstraintViolation,
    IndexOutOfRange,
    IndistinguishableError,
    ShapeMismatch,
)
from softlev.hypotest import (
    ModelOracle,
    estimate_sample_complexity,
    estimate_success,
    log_likelihood_ratio,
    lrt_decide,
    run_test,
)
from softlev.leverage import BoxConstraint, leverage_pmf
from softlev.harness import ExperimentSpec, load_model_spec
from softlev.model import ModelSpec, get_family
from softlev.rng import derive_seed, generator
from softlev.softmax import EnergyConstraint, softmax_pmf

BALL = EnergyConstraint(1.0)


def _wide_pair():
    # two-outcome softmax pair with a logit gap of 2 in the first row
    return ModelSpec("softmax", np.array([[0.0], [0.0]]), np.array([[2.0], [0.0]]), None, BALL)


def _dist(*p):
    return DiscreteDistribution(np.array(p))


# ---------------------------------------------------------------------------
# specs and oracles
# ---------------------------------------------------------------------------


def test_spec_validation():
    A = np.zeros((2, 1))
    with pytest.raises(ValueError, match="family"):
        ModelSpec("gaussian", A, A, None, BALL)
    with pytest.raises(ShapeMismatch, match="'B' shape"):
        ModelSpec("softmax", A, np.zeros((3, 1)), None, BALL)
    with pytest.raises(ShapeMismatch, match="'M' shape"):
        ModelSpec("softmax", A, None, np.zeros((2, 2)), BALL)
    with pytest.raises(TypeError):
        ModelSpec("softmax", A, A, None, BoxConstraint(0.5, 2.0))
    with pytest.raises(TypeError):
        ModelSpec("leverage", np.eye(2), np.eye(2), None, BALL)
    with pytest.raises(ShapeMismatch, match="n >= d"):
        ModelSpec("leverage", np.ones((2, 3)), None, None, BoxConstraint(0.5, 2.0))
    wide = ModelSpec("softmax", np.ones((2, 3)), None, None, BALL)  # softmax has no n >= d rule
    assert wide.A.shape == (2, 3)


SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_spec_validation_property(data):
    """Construction raises exactly when B or M mismatches A in shape, the
    constraint is the other family's, or a leverage A has fewer rows than
    columns."""
    family = data.draw(st.sampled_from(["softmax", "leverage"]))
    shape = data.draw(SHAPES)
    b_shape, m_shape = (data.draw(st.none() | st.just(shape) | SHAPES) for _ in "BM")
    constraint = data.draw(st.sampled_from([BALL, BoxConstraint(0.5, 2.0)]))
    mismatch = any(s is not None and s != shape for s in (b_shape, m_shape))
    wrong_class = isinstance(constraint, EnergyConstraint) != (family == "softmax")
    wide = family == "leverage" and shape[0] < shape[1]

    def build():
        ones = [None if s is None else np.ones(s) for s in (b_shape, m_shape)]
        return ModelSpec(family, np.ones(shape), *ones, constraint)

    if mismatch or wrong_class or wide:
        with pytest.raises((ShapeMismatch, TypeError)):
            build()
    else:
        build()


def test_specs_compare_and_hash_by_identity():
    a = ModelSpec("softmax", np.eye(2), 2.0 * np.eye(2), None, BALL)
    b = ModelSpec("softmax", np.eye(2), 2.0 * np.eye(2), None, BALL)  # equal values
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
    assert a in [b, a] and a not in [b]
    assert ExperimentSpec(model=a) == ExperimentSpec(model=a)
    assert ExperimentSpec(model=a) != ExperimentSpec(model=b)
    assert hash(ExperimentSpec(model=a)) == hash(ExperimentSpec(model=a))


def test_spec_pmf_dispatches_per_branch_and_family():
    spec = _wide_pair()
    q = np.array([0.5])
    assert np.array_equal(spec.pmf(0, q).probs, softmax_pmf(spec.A, q).probs)
    assert np.array_equal(spec.pmf(1, q).probs, softmax_pmf(spec.B, q).probs)

    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    B = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    lev = ModelSpec("leverage", A, B, None, BoxConstraint(0.5, 2.0))
    s = np.array([1.0, 1.0, 1.0])
    assert np.array_equal(lev.pmf(0, s).probs, leverage_pmf(A, s).probs)
    assert np.array_equal(lev.pmf(1, s).probs, leverage_pmf(B, s).probs)
    # with only M, the second model is A + M
    only_m = ModelSpec("leverage", A, None, B - A, BoxConstraint(0.5, 2.0))
    assert np.array_equal(only_m.pmf(1, s).probs, leverage_pmf(A + (B - A), s).probs)


def test_optimal_query_is_deterministic_and_feasible():
    spec = _wide_pair()
    q1, v1 = spec.optimal_query()
    q2, v2 = spec.optimal_query()
    assert np.array_equal(q1, q2) and v1 == v2
    assert v1 > 0.1  # a gap of 2 is clearly distinguishable
    BALL.check(q1)


def test_oracle_truth_validation_and_accounting():
    spec = _wide_pair()
    with pytest.raises(ValueError):
        ModelOracle(spec, 2, seed=0)
    oracle = ModelOracle(spec, 0, seed=5)
    q = np.array([1.0])
    oracle.sample(q, 5)
    oracle.sample(q, 5)
    oracle.sample_counts(q, 7)
    assert oracle.queries_used == 17


def test_oracle_samples_depend_only_on_spec_truth_seed():
    spec = _wide_pair()
    q = np.array([1.0])
    a = ModelOracle(spec, 1, seed=9).sample(q, 200)
    b = ModelOracle(spec, 1, seed=9).sample(q, 200)
    assert np.array_equal(a, b)
    c = ModelOracle(spec, 0, seed=9).sample(q, 200)
    assert not np.array_equal(a, c)  # same stream, different law


def test_oracle_enforces_the_constraint():
    oracle = ModelOracle(_wide_pair(), 0, seed=0)
    with pytest.raises(ConstraintViolation):
        oracle.sample(np.array([2.0]), 1)


def test_sample_counts_total():
    oracle = ModelOracle(_wide_pair(), 0, seed=3)
    counts = oracle.sample_counts(np.array([1.0]), 1000)
    assert counts.sum() == 1000 and counts.shape == (2,)


# ---------------------------------------------------------------------------
# likelihood ratios
# ---------------------------------------------------------------------------


def test_llr_disjoint_supports_hit_the_clamp():
    ratio = log_likelihood_ratio(_dist(1.0, 0.0), _dist(0.0, 1.0))
    assert ratio[0] == pytest.approx(300 * math.log(10), rel=1e-12)
    assert ratio[1] == pytest.approx(-300 * math.log(10), rel=1e-12)


def test_llr_support_mismatch():
    with pytest.raises(ShapeMismatch):
        log_likelihood_ratio(_dist(1.0), _dist(0.5, 0.5))


def test_lrt_tie_goes_to_zero():
    P = _dist(0.5, 0.5)
    decision, llr = lrt_decide([0, 1, 0], P, P)
    assert decision == 0 and llr == 0.0


def test_lrt_hand_computed_value():
    P0 = _dist(0.9, 0.1)
    P1 = _dist(0.1, 0.9)
    decision, llr = lrt_decide([0, 0, 0], P0, P1)
    assert decision == 0
    assert llr == pytest.approx(3 * math.log(9.0), rel=1e-12)
    decision, llr = lrt_decide([1], P0, P1)
    assert decision == 1 and llr == pytest.approx(-math.log(9.0), rel=1e-12)
    # one of each cancels exactly; the tie rule sends it to 0
    decision, llr = lrt_decide([0, 1], P0, P1)
    assert decision == 0 and abs(llr) < 1e-12


def test_lrt_rejects_bad_samples():
    P = _dist(0.5, 0.5)
    with pytest.raises(IndexOutOfRange):
        lrt_decide([2], P, P)
    with pytest.raises(IndexOutOfRange):
        lrt_decide([-1], P, P)
    with pytest.raises(ShapeMismatch):
        lrt_decide([[0, 1]], P, P)


def test_lrt_empty_sample_is_a_tie():
    decision, llr = lrt_decide(np.array([], dtype=np.int64), _dist(0.9, 0.1), _dist(0.1, 0.9))
    assert decision == 0 and llr == 0.0


# ---------------------------------------------------------------------------
# end-to-end tests
# ---------------------------------------------------------------------------


def test_run_test_validates_m():
    oracle = ModelOracle(_wide_pair(), 0, seed=0)
    with pytest.raises(ValueError):
        run_test(oracle, 0)


def test_run_test_decides_correctly_at_large_m():
    spec = _wide_pair()
    for truth in (0, 1):
        rep = run_test(ModelOracle(spec, truth, seed=21), 200)
        assert rep.decision == truth
        assert rep.m == 200 and rep.seed == 21


def test_run_test_identical_models_explicit_query():
    A = np.array([[1.0], [0.0]])
    spec = ModelSpec("softmax", A, A.copy(), None, BALL)
    rep = run_test(ModelOracle(spec, 0, seed=0), 10, query=np.array([0.5]))
    assert rep.decision == 0 and rep.llr == 0.0


def test_run_test_identical_models_auto_query_refuses():
    A = np.array([[1.0], [0.0]])
    spec = ModelSpec("softmax", A, A.copy(), None, BALL)
    with pytest.raises(IndistinguishableError):
        run_test(ModelOracle(spec, 0, seed=0), 10)


def test_run_test_consumes_exactly_m_queries():
    oracle = ModelOracle(_wide_pair(), 0, seed=4)
    run_test(oracle, 37)
    assert oracle.queries_used == 37


# ---------------------------------------------------------------------------
# success estimation
# ---------------------------------------------------------------------------


def test_estimate_success_validation():
    spec = _wide_pair()
    with pytest.raises(ValueError):
        estimate_success(spec, 0, 10, 0)
    with pytest.raises(ValueError):
        estimate_success(spec, 1, 0, 0)


def test_estimate_success_at_large_m_is_near_one():
    assert estimate_success(_wide_pair(), 200, 300, 11) >= 0.99


def test_estimate_success_single_query_hovers_at_half():
    # At the optimal query the null law is uniform, so under truth 0 one
    # sample decides by a fair coin (ties go to 0): the truth-0 branch sits
    # at exactly 1/2 in expectation and the worst case lands just around it.
    rate = estimate_success(_wide_pair(), 1, 400, 11)
    assert 0.44 <= rate <= 0.6
    assert rate == estimate_success(_wide_pair(), 1, 400, 11)  # deterministic


def test_estimate_success_mirrors_per_trial_oracles():
    spec = _wide_pair()
    q = np.array([0.8])
    trials, m, seed = 50, 3, 17
    worst = 1.0
    for truth in (0, 1):
        correct = 0
        for trial in range(trials):
            oracle = ModelOracle(spec, truth, seed=derive_seed(seed, truth, trial))
            rep = run_test(oracle, m, query=q)
            correct += rep.decision == truth
        worst = min(worst, correct / trials)
    assert estimate_success(spec, m, trials, seed, query=q) == worst


def _ref_estimate_success(spec, m, trials, seed, query=None):
    """The per-trial loop estimate_success replaced: a new derive_seed pair
    and a new generator for every trial."""
    if m < 1 or trials < 1:
        raise ValueError("m and trials must be at least 1")
    query = hypotest._resolve_query(spec, query)
    spec.constraint.check(query)
    p0 = spec.pmf(0, query)
    p1 = spec.pmf(1, query)
    ratio = log_likelihood_ratio(p0, p1)
    pmfs = (p0.probs, p1.probs)
    worst = 1.0
    for truth in (0, 1):
        correct = 0
        for trial in range(trials):
            call_seed = derive_seed(derive_seed(seed, truth, trial), "call", 0)
            counts = generator(call_seed).multinomial(m, pmfs[truth])
            llr = float(counts @ ratio)
            decision = 0 if llr >= 0.0 else 1
            correct += decision == truth
        worst = min(worst, correct / trials)
    return worst


def _demo(family):
    return load_model_spec(str(ir.files("softlev") / "specs" / f"demo_{family}.json"))


def _demo_pair(model, eps):
    return ModelSpec(model.family, model.A, model.A + eps * model.direction(), None, model.constraint)


@pytest.mark.parametrize("family", ["softmax", "leverage"])
def test_estimate_success_equals_per_trial_generator_reference(family):
    model = _demo(family)
    pair = _demo_pair(model, 0.1)
    g = generator(derive_seed(3, "ref-query", family))
    query = get_family(family).random_query(g, model.A.shape, model.constraint)
    for seed in range(4):
        for trials in (1, 50, 400):
            for m in (1, 2, 7, 64, 1000):
                got = estimate_success(pair, m, trials, seed, query=query)
                assert got == _ref_estimate_success(pair, m, trials, seed, query=query), (seed, trials, m)


@pytest.mark.parametrize("family", ["softmax", "leverage"])
def test_sample_complexity_equals_per_trial_generator_reference(family, monkeypatch):
    # at each grid point's query, exactly as sweep_point derives it
    spec = ExperimentSpec(model=_demo(family))
    points = []
    for index, eps in enumerate(spec.eps_grid):
        row_seed = derive_seed(spec.seed, "grid", index)
        pair = _demo_pair(spec.model, eps)
        query, _ = pair.optimal_query(replace(spec.opt, seed=derive_seed(row_seed, "opt")))
        points.append((pair, query, derive_seed(row_seed, "mstar")))
    fast = [estimate_sample_complexity(p, trials=spec.trials, seed=s, query=q) for p, q, s in points]
    monkeypatch.setattr(hypotest, "estimate_success", _ref_estimate_success)
    slow = [estimate_sample_complexity(p, trials=spec.trials, seed=s, query=q) for p, q, s in points]
    assert fast == slow
    assert all(m >= 1 for m in fast)


def test_estimate_success_is_monotone_in_m_up_to_noise():
    g = generator(derive_seed(70, "mono"))
    A = g.standard_normal((4, 2))
    B = A + 0.5 * g.standard_normal((4, 2))
    spec = ModelSpec("softmax", A, B, None, BALL)
    s_small = estimate_success(spec, 2, 300, 7)
    s_large = estimate_success(spec, 8, 300, 7)
    assert s_large >= s_small - 0.06  # two Monte-Carlo standard errors


# ---------------------------------------------------------------------------
# sample-complexity search
# ---------------------------------------------------------------------------


def test_sample_complexity_target_validation():
    spec = _wide_pair()
    for bad in (0.5, 1.0, 0.3):
        with pytest.raises(ValueError):
            estimate_sample_complexity(spec, target=bad, trials=10)


def test_sample_complexity_identical_models_refuse():
    A = np.array([[1.0], [0.0]])
    spec = ModelSpec("softmax", A, A.copy(), None, BALL)
    with pytest.raises(IndistinguishableError):
        estimate_sample_complexity(spec, trials=10)
    # the explicit-query path has its own Hellinger gate
    with pytest.raises(IndistinguishableError):
        estimate_sample_complexity(spec, trials=10, query=np.array([0.5]))


def test_sample_complexity_budget_cap():
    # a hairline gap needs far more than 8 samples
    A = np.array([[0.0], [0.0]])
    B = np.array([[1e-4], [0.0]])
    spec = ModelSpec("softmax", A, B, None, BALL)
    with pytest.raises(BudgetExceeded):
        estimate_sample_complexity(spec, trials=50, cap=8)


def test_sample_complexity_quarters_when_eps_halves():
    # m* scales like eps^{-2}; with Monte-Carlo noise the measured ratio for
    # eps 0.2 -> 0.1 stays well inside [2.5, 6]
    g = generator(derive_seed(77, "halving"))
    A = g.standard_normal((5, 3))
    M = g.standard_normal((5, 3))
    ms = []
    for eps in (0.2, 0.1):
        spec = ModelSpec("softmax", A, A + eps * M, None, BALL)
        ms.append(estimate_sample_complexity(spec, trials=400, seed=5))
    assert ms[1] > ms[0]
    assert 2.5 <= ms[1] / ms[0] <= 6.0


def test_sample_complexity_is_deterministic():
    spec = _wide_pair()
    a = estimate_sample_complexity(spec, trials=60, seed=2)
    b = estimate_sample_complexity(spec, trials=60, seed=2)
    assert a == b and a >= 1
