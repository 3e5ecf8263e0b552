"""Likelihood-ratio testing against hidden-model oracles."""

import importlib.resources as ir
import math
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softlev import distributions, hypotest
from softlev.distributions import DiscreteDistribution, draw, hellinger_sq, mean_under, variance_under
from softlev.errors import BudgetExceeded, ConstraintViolation, IndistinguishableError, ShapeMismatch
from softlev.hypotest import ModelOracle, estimate_sample_complexity, estimate_success, log_likelihood_ratio
from softlev.leverage import BoxConstraint, leverage_pmf
from softlev.harness import ExperimentSpec, gaussian_instance, load_model_spec, padded_identity_instance
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


def test_max_hellinger_is_deterministic_and_feasible():
    spec = _wide_pair()
    r1, r2 = spec.max_hellinger(), spec.max_hellinger()
    assert np.array_equal(r1.argmax, r2.argmax) and r1.value == r2.value
    assert r1.value > 0.1  # a gap of 2 is clearly distinguishable
    BALL.check(r1.argmax)


def test_oracle_truth_validation_and_accounting():
    spec = _wide_pair()
    with pytest.raises(ValueError):
        ModelOracle(spec, 2, seed=0)
    oracle = ModelOracle(spec, 0, seed=5)
    q = np.array([1.0])
    oracle.sample(q, 5)
    oracle.sample(q, 5)
    third = oracle.sample(q, 7)
    assert oracle.queries_used == 17
    # call c draws with the seed derive_seed(seed, "call", c)
    assert np.array_equal(third, draw(spec.pmf(0, q), derive_seed(5, "call", 2), 7))


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


def test_lrt_hand_computed_value():
    # the test's statistic is the ratio summed over the draws: three draws
    # of outcome 0 give 3 ln 9, one of outcome 1 gives -ln 9, and one of
    # each cancels exactly
    ratio = log_likelihood_ratio(_dist(0.9, 0.1), _dist(0.1, 0.9))
    assert ratio[[0, 0, 0]].sum() == pytest.approx(3 * math.log(9.0), rel=1e-12)
    assert ratio[1] == pytest.approx(-math.log(9.0), rel=1e-12)
    assert ratio[[0, 1]].sum() == 0.0


def test_lrt_tie_goes_to_zero():
    # identical models give a zero ratio, so every test ties at llr = 0 and
    # decides for truth 0: truth 1 is never detected, at any m
    A = np.array([[1.0], [0.0]])
    spec = ModelSpec("softmax", A, A.copy(), None, BALL)
    query = np.array([0.5])
    assert estimate_success(spec, 1, 50, 0, query=query) == 0.0
    pmfs = (spec.pmf(0, query), spec.pmf(1, query))
    ratio = log_likelihood_ratio(*pmfs)
    assert not ratio.any()
    assert not hypotest._success_curve(pmfs, ratio, 50, 0, 40).any()


def test_run_test_identical_models_explicit_query():
    # a test run at a given query on identical models: the oracle's m draws
    # sum to llr = 0 exactly, the tie decides 0, and so truth 1 is missed
    A = np.array([[1.0], [0.0]])
    spec = ModelSpec("softmax", A, A.copy(), None, BALL)
    query = np.array([0.5])
    ratio = log_likelihood_ratio(spec.pmf(0, query), spec.pmf(1, query))
    for truth in (0, 1):
        oracle = ModelOracle(spec, truth, seed=0)
        assert ratio[oracle.sample(query, 10)].sum() == 0.0
        assert oracle.queries_used == 10
    assert estimate_success(spec, 10, 50, 0, query=query) == 0.0


# ---------------------------------------------------------------------------
# success estimation
# ---------------------------------------------------------------------------


def test_estimate_success_validation():
    spec = _wide_pair()
    with pytest.raises(ValueError):
        estimate_success(spec, 0, 10, 0)
    with pytest.raises(ValueError):
        estimate_success(spec, 1, 0, 0)


def test_estimate_success_identical_models_auto_query_refuses():
    A = np.array([[1.0], [0.0]])
    spec = ModelSpec("softmax", A, A.copy(), None, BALL)
    with pytest.raises(IndistinguishableError):
        estimate_success(spec, 10, 20, 0)


def test_estimate_success_at_large_m_is_near_one():
    assert estimate_success(_wide_pair(), 200, 300, 11) >= 0.99


def test_estimate_success_single_query_hovers_at_half():
    # At the optimal query the null law is uniform, so under truth 0 one
    # sample decides by a fair coin (ties go to 0): the truth-0 branch sits
    # at exactly 1/2 in expectation and the worst case lands just around it.
    rate = estimate_success(_wide_pair(), 1, 400, 11)
    assert 0.44 <= rate <= 0.6
    assert rate == estimate_success(_wide_pair(), 1, 400, 11)  # deterministic


def _ref_estimate_success(spec, m, trials, seed, query=None):
    """The per-trial loop estimate_success replaced: a new derive_seed pair
    and a new generator for every trial."""
    if m < 1 or trials < 1:
        raise ValueError("m and trials must be at least 1")
    pmfs, ratio = hypotest._pmfs_and_ratio(spec, query)
    worst = 1.0
    for truth in (0, 1):
        correct = 0
        for trial in range(trials):
            call_seed = derive_seed(derive_seed(seed, truth, trial), "call", 0)
            counts = generator(call_seed).multinomial(m, pmfs[truth].probs)
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


def _ref_success_curve(pair, query, trials, seed, horizon):
    """The worst-case success curve from one ModelOracle per trial: row k of
    truth t is that oracle's first ``sample`` call, summed with np.cumsum."""
    ratio = log_likelihood_ratio(pair.pmf(0, query), pair.pmf(1, query))
    correct = []
    for truth in (0, 1):
        counts = np.zeros(horizon, dtype=np.int64)
        for k in range(trials):
            samples = ModelOracle(pair, truth, derive_seed(seed, truth, k)).sample(query, horizon)
            llr = np.cumsum(ratio[samples])
            counts += (llr >= 0.0) if truth == 0 else (llr < 0.0)
        correct.append(counts)
    return np.minimum(*correct) / trials


def _sweep_points(family):
    """(pair, query, search seed) at each default grid point of the demo,
    exactly as sweep_point derives them."""
    spec = ExperimentSpec(model=_demo(family))
    points = []
    for index, eps in enumerate(spec.eps_grid):
        row_seed = derive_seed(spec.seed, "grid", index)
        pair = _demo_pair(spec.model, eps)
        query = pair.max_hellinger(replace(spec.opt, seed=derive_seed(row_seed, "opt"))).argmax
        points.append((eps, pair, query, derive_seed(row_seed, "mstar")))
    return points


def _curve_case(case):
    """(pair, query) of a curve test: a demo pair at eps = 0.1; a softmax
    pair one outcome past the largest support the threshold count takes; or
    the padded identity with two zero rows put in, whose zero-probability
    outcomes tie entries of both laws' cdfs.  Small horizons and few trials
    give blocks too small for the count, so each case below the size limit
    runs both lookups."""
    if case == "softmax-large-support":
        model = gaussian_instance("softmax", distributions._COUNT_MAX + 1, 3, seed=2)
    elif case == "leverage-zero-rows":
        A = np.insert(padded_identity_instance(6, 2).A, [2, 4], 0.0, axis=0)
        M = np.zeros_like(A)
        M[0, 1] = 5.0
        model = ModelSpec("leverage", A, None, M, BoxConstraint(0.5, 2.0))
    else:
        model = _demo(case)
    pair = _demo_pair(model, 0.1)
    g = generator(derive_seed(3, "ref-query", case))
    return pair, get_family(pair.family).random_query(g, model.A.shape, model.constraint)


@pytest.mark.parametrize("case", ["softmax", "leverage", "softmax-large-support", "leverage-zero-rows"])
def test_success_curve_equals_per_trial_oracle_reference(case):
    pair, query = _curve_case(case)
    pmfs = (pair.pmf(0, query), pair.pmf(1, query))
    ratio = log_likelihood_ratio(*pmfs)
    # horizons below, at and above the row block, and one row per block
    for horizon in (7, 1000, hypotest._BLOCK, hypotest._BLOCK + 3):
        for trials in (1, 50, 400):
            seed = horizon + trials
            got = hypotest._success_curve(pmfs, ratio, trials, seed, horizon)
            want = _ref_success_curve(pair, query, trials, seed, horizon)
            assert got.tobytes() == want.tobytes(), (horizon, trials)


def test_success_curve_breaks_ties_like_the_oracle():
    # mirrored laws give the ratio [r, -r] exactly, so a walk that steps
    # up and back down lands on llr = 0, which decides for truth 0
    spec = ModelSpec("softmax", np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), None, BALL)
    query = np.array([1.0])
    pmfs = (spec.pmf(0, query), spec.pmf(1, query))
    ratio = log_likelihood_ratio(*pmfs)
    assert ratio[0] == -ratio[1]
    walks = [np.cumsum(ratio[ModelOracle(spec, 0, derive_seed(4, 0, k)).sample(query, 40)]) for k in range(50)]
    assert sum((w == 0.0).any() for w in walks) >= 10
    got = hypotest._success_curve(pmfs, ratio, 50, 4, 40)
    assert got.tobytes() == _ref_success_curve(spec, query, 50, 4, 40).tobytes()


@pytest.mark.parametrize("family", ["softmax", "leverage"])
def test_sample_complexity_is_the_last_crossing_of_the_oracle_curve(family):
    for _, pair, query, seed in _sweep_points(family):
        found = estimate_sample_complexity(pair, trials=400, seed=seed, query=query)
        curve = _ref_success_curve(pair, query, 400, seed, found.horizon)
        below = np.flatnonzero(curve < 2.0 / 3.0)
        assert found.m_star == (below[-1] + 2 if below.size else 1)
        assert found.success == curve[found.m_star - 1] >= 2.0 / 3.0
        assert found.m_star <= found.horizon


def test_sample_complexity_doubles_the_horizon_past_a_late_crossing():
    # one trial per truth: at seed 11 the truth's walk is still wrong at the
    # start horizon of 3 (3 m_gauss = 2.96) and at 6, 12 and 24, and right
    # from 33 on
    spec = _wide_pair()
    query = spec.max_hellinger().argmax
    assert math.ceil(3.0 * _m_gauss(spec, query)) == 3
    found = estimate_sample_complexity(spec, trials=1, seed=11)
    assert (found.m_star, found.success, found.horizon) == (33, 1.0, 48)
    pmfs = (spec.pmf(0, query), spec.pmf(1, query))
    ratio = log_likelihood_ratio(*pmfs)
    # the shorter block is a prefix of the longer one
    long = hypotest._success_curve(pmfs, ratio, 1, 11, 48)
    assert hypotest._success_curve(pmfs, ratio, 1, 11, 12).tobytes() == long[:12].tobytes()
    assert all(long[h - 1] < 2.0 / 3.0 for h in (3, 6, 12, 24))


def _m_gauss(pair, query, target=2.0 / 3.0):
    """The CLT prediction of m*: the m at which a normal approximation of the
    summed log-likelihood ratio reaches target, worst over the two truths."""
    pmfs = (pair.pmf(0, query), pair.pmf(1, query))
    ratio = log_likelihood_ratio(*pmfs)
    z = NormalDist().inv_cdf(target)
    return max(
        (z * math.sqrt(variance_under(p, ratio)) / mean_under(p, ratio)) ** 2 for p in pmfs
    )


def _bhattacharyya_horizon(pair, query):
    h2 = hellinger_sq(pair.pmf(0, query), pair.pmf(1, query))
    return math.ceil(math.log(3.0) / -math.log1p(-h2))


def _clamped_pair():
    # truth 1 gives outcome 0 probability exp(-800) = 0, so the ratio there
    # hits the clamp (about +684) and its rare draws under truth 0 blow up
    # the CLT prediction: 3 m_gauss is about 138 against a Bhattacharyya
    # horizon of 4
    A = np.array([[math.log(1e-3)], [0.0], [-700.0]])
    B = np.array([[-800.0], [0.0], [0.0]])
    return ModelSpec("softmax", A, B, None, BALL), np.array([1.0])


@pytest.mark.parametrize("family", ["softmax", "leverage"])
def test_clt_prediction_equals_the_oracle(family):
    points = [(pair, query) for _, pair, query, _ in _sweep_points(family)]
    points += [(_wide_pair(), np.array([-1.0])), _clamped_pair()]
    for pair, query in points:
        pmfs = (pair.pmf(0, query), pair.pmf(1, query))
        for target in (0.55, 2.0 / 3.0, 0.9, 0.99):
            got = hypotest._clt_m_star(pmfs, log_likelihood_ratio(*pmfs), target)
            want = _m_gauss(pair, query, target)
            assert abs(got - want) <= 1e-12 * want, (target, got, want)


@pytest.mark.parametrize("family", ["softmax", "leverage"])
def test_sample_complexity_is_the_last_crossing_over_the_bhattacharyya_horizon(family):
    # The search stops at about 3 m_gauss; at 400 trials the curve does not
    # dip below target again before the Bhattacharyya horizon, the block the
    # search used to draw, so m* and its success are the same as that
    # block gives.
    for _, pair, query, _ in _sweep_points(family):
        full = _bhattacharyya_horizon(pair, query)
        for seed in range(6):
            found = estimate_sample_complexity(pair, trials=400, seed=seed, query=query)
            assert found.horizon < full
            curve = _ref_success_curve(pair, query, 400, seed, full)
            below = np.flatnonzero(curve < 2.0 / 3.0)
            assert found.m_star == below[-1] + 2, (seed, found)
            assert found.success == curve[found.m_star - 1]


def test_sample_complexity_never_starts_above_the_bhattacharyya_horizon(monkeypatch):
    spec, query = _clamped_pair()
    full = _bhattacharyya_horizon(spec, query)
    assert full == 4 and 3.0 * _m_gauss(spec, query) > 30 * full
    real, horizons = hypotest._success_curve, []

    def recording(pmfs, ratio, trials, seed, horizon):
        horizons.append(horizon)
        return real(pmfs, ratio, trials, seed, horizon)

    monkeypatch.setattr(hypotest, "_success_curve", recording)
    # one and two trials per truth still stop: the horizon doubles until
    # every walk is right at its end
    for trials in (1, 2, 400):
        for seed in range(8):
            horizons.clear()
            found = estimate_sample_complexity(spec, trials=trials, seed=seed, query=query)
            assert horizons == [full << i for i in range(len(horizons))]
            assert found.horizon == horizons[-1] and 1 <= found.m_star <= found.horizon
    for seed in range(8):
        for trials in (1, 2):
            found = estimate_sample_complexity(_wide_pair(), trials=trials, seed=seed)
            assert found.m_star <= found.horizon < 10_000


@pytest.mark.parametrize("family", ["softmax", "leverage"])
def test_sample_complexity_agrees_with_the_clt_and_its_interval(family):
    # m* is the last crossing, so it sits at or above the first-crossing
    # CLT figure; the band is fixed in advance, not fitted to these seeds
    for eps, pair, query, _ in _sweep_points(family):
        if eps > 0.1:
            continue
        m_gauss = _m_gauss(pair, query)
        for seed in range(6):
            found = estimate_sample_complexity(pair, trials=400, seed=seed, query=query)
            lo, hi = found.m_star_ci
            assert lo <= found.m_star <= hi <= found.horizon + 1, (eps, seed)
            assert 0.75 * m_gauss <= found.m_star <= 2.25 * m_gauss, (eps, seed, found.m_star, m_gauss)


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
        ms.append(estimate_sample_complexity(spec, trials=400, seed=5).m_star)
    assert ms[1] > ms[0]
    assert 2.5 <= ms[1] / ms[0] <= 6.0


def test_sample_complexity_is_deterministic():
    spec = _wide_pair()
    a = estimate_sample_complexity(spec, trials=60, seed=2)
    b = estimate_sample_complexity(spec, trials=60, seed=2)
    assert a == b and a.m_star >= 1
