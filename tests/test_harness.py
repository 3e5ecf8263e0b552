"""Spec files, instance generators, sweeps, expansion checks, suites, CSVs."""

import importlib.resources as ir
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from softlev import harness
from softlev.bounds import BoundReport
from softlev.distributions import hellinger_sq, tv
from softlev.errors import BudgetExceeded, IndistinguishableError, InputFormatError
from softlev.harness import (
    ExperimentSpec,
    ModelSpec,
    fmt17,
    gaussian_instance,
    load_model_spec,
    low_mass_row_instance,
    padded_identity_instance,
    run_bound_suite,
    run_invariance_suite,
    run_sweep,
    run_taylor_check,
    sweep_point,
    write_bounds_csv,
    write_csv,
    write_invariance_csv,
    write_taylor_csv,
)
from softlev.leverage import BoxConstraint, leverage_pmf
from softlev.optimize import OptimizerConfig
from softlev.rng import derive_seed, generator
from softlev.softmax import EnergyConstraint, softmax_pmf


def _write_spec(tmp_path, doc, name="model.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc) if not isinstance(doc, str) else doc, encoding="utf-8")
    return str(p)


def _valid_doc(**overrides):
    doc = {
        "family": "softmax",
        "A": [[0.0, 1.0], [1.0, 0.0]],
        "M": [[1.0, 0.0], [0.0, 0.0]],
        "constraint": {"E": 1.0},
        "seed": 7,
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------


def test_load_model_spec_round_trip(tmp_path):
    path = _write_spec(tmp_path, _valid_doc())
    model = load_model_spec(path)
    assert model.family == "softmax"
    assert np.array_equal(model.A, [[0.0, 1.0], [1.0, 0.0]])
    assert model.B is None
    assert np.array_equal(model.M, [[1.0, 0.0], [0.0, 0.0]])
    assert isinstance(model.constraint, EnergyConstraint) and model.constraint.limit == 1.0
    assert model.seed == 7


def test_load_model_spec_leverage_constraint(tmp_path):
    doc = _valid_doc(family="leverage", constraint={"c": 0.5, "C": 2.0})
    model = load_model_spec(_write_spec(tmp_path, doc))
    assert isinstance(model.constraint, BoxConstraint)
    assert (model.constraint.lo, model.constraint.hi) == (0.5, 2.0)


def test_load_model_spec_missing_file(tmp_path):
    with pytest.raises(InputFormatError, match="cannot read"):
        load_model_spec(str(tmp_path / "nope.json"))


def test_load_model_spec_syntax_error_carries_line_and_column(tmp_path):
    path = _write_spec(tmp_path, '{\n  "family": oops\n}')
    with pytest.raises(InputFormatError, match=r":2:13:"):
        load_model_spec(path)


def test_load_model_spec_top_level_must_be_object(tmp_path):
    with pytest.raises(InputFormatError, match="top level"):
        load_model_spec(_write_spec(tmp_path, "[1, 2]"))


def test_load_model_spec_unknown_fields(tmp_path):
    path = _write_spec(tmp_path, _valid_doc(extra=1))
    with pytest.raises(InputFormatError, match=r"unknown field\(s\) \['extra'\]"):
        load_model_spec(path)


def test_load_model_spec_family_validation(tmp_path):
    with pytest.raises(InputFormatError, match="'family'"):
        load_model_spec(_write_spec(tmp_path, _valid_doc(family="gaussian")))


def test_load_model_spec_matrix_diagnostics(tmp_path):
    doc = _valid_doc()
    del doc["A"]
    with pytest.raises(InputFormatError, match="missing required field 'A'"):
        load_model_spec(_write_spec(tmp_path, doc))
    with pytest.raises(InputFormatError, match="non-empty list of rows"):
        load_model_spec(_write_spec(tmp_path, _valid_doc(A=[])))
    with pytest.raises(InputFormatError, match="non-empty list of rows"):
        load_model_spec(_write_spec(tmp_path, _valid_doc(A=[1.0, 2.0])))
    with pytest.raises(InputFormatError, match="row 1 has 1 entries, expected 2"):
        load_model_spec(_write_spec(tmp_path, _valid_doc(A=[[1.0, 2.0], [3.0]])))
    with pytest.raises(InputFormatError, match=r"entry \[0\]\[1\] is not a number"):
        load_model_spec(_write_spec(tmp_path, _valid_doc(A=[[1.0, True], [0.0, 0.0]])))
    wide = _valid_doc(family="leverage", A=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], M=None, constraint={"c": 0.5, "C": 2.0})
    with pytest.raises(InputFormatError, match=r"model\.json: field 'A': a leverage model needs n >= d, got 2 x 3"):
        load_model_spec(_write_spec(tmp_path, wide))
    # JSON has no inf literal, but 1e999 parses to one
    path = _write_spec(tmp_path, '{"family": "softmax", "A": [[1e999]], "constraint": {"E": 1}}')
    with pytest.raises(InputFormatError, match="non-finite"):
        load_model_spec(path)


def test_load_model_spec_shape_cross_checks(tmp_path):
    with pytest.raises(InputFormatError, match="'B' shape"):
        load_model_spec(_write_spec(tmp_path, _valid_doc(B=[[1.0], [2.0]])))
    with pytest.raises(InputFormatError, match="'M' shape"):
        load_model_spec(_write_spec(tmp_path, _valid_doc(M=[[1.0, 2.0]])))


def test_load_model_spec_constraint_diagnostics(tmp_path):
    with pytest.raises(InputFormatError, match="must be an object"):
        load_model_spec(_write_spec(tmp_path, _valid_doc(constraint=1.0)))
    with pytest.raises(InputFormatError, match="exactly the field 'E'"):
        load_model_spec(_write_spec(tmp_path, _valid_doc(constraint={"E": 1.0, "x": 2})))
    with pytest.raises(InputFormatError, match="positive number"):
        load_model_spec(_write_spec(tmp_path, _valid_doc(constraint={"E": 0.0})))
    doc = _valid_doc(family="leverage", constraint={"c": 2.0, "C": 0.5})
    with pytest.raises(InputFormatError, match="c <= C"):
        load_model_spec(_write_spec(tmp_path, doc))
    doc = _valid_doc(family="leverage", constraint={"c": 0.5})
    with pytest.raises(InputFormatError, match="'c' and 'C'"):
        load_model_spec(_write_spec(tmp_path, doc))


def test_load_model_spec_seed_must_be_integer(tmp_path):
    with pytest.raises(InputFormatError, match="'seed'"):
        load_model_spec(_write_spec(tmp_path, _valid_doc(seed=1.5)))
    with pytest.raises(InputFormatError, match="'seed'"):
        load_model_spec(_write_spec(tmp_path, _valid_doc(seed=True)))


def test_packaged_demo_specs_load():
    for name in ("demo_softmax.json", "demo_leverage.json"):
        model = load_model_spec(str(ir.files("softlev") / "specs" / name))
        assert model.M is not None


# ---------------------------------------------------------------------------
# model-spec fallbacks and generators
# ---------------------------------------------------------------------------


def test_pair_and_direction_fallbacks():
    A = np.zeros((2, 1))
    M = np.ones((2, 1))
    B = np.full((2, 1), 2.0)
    both = ModelSpec("softmax", A, B, M, EnergyConstraint(1.0))
    assert both.pair()[1] is B
    assert both.direction() is M
    only_m = ModelSpec("softmax", A, None, M, EnergyConstraint(1.0))
    assert np.array_equal(only_m.pair()[1], A + M)
    only_b = ModelSpec("softmax", A, B, None, EnergyConstraint(1.0))
    assert np.array_equal(only_b.direction(), B - A)
    neither = ModelSpec("softmax", A, None, None, EnergyConstraint(1.0))
    with pytest.raises(InputFormatError):
        neither.pair()
    with pytest.raises(InputFormatError):
        neither.direction()


def test_gaussian_instance_is_deterministic_per_arguments():
    a = gaussian_instance("softmax", 5, 3, seed=2)
    b = gaussian_instance("softmax", 5, 3, seed=2)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.M, b.M)
    assert not np.array_equal(a.A, gaussian_instance("softmax", 5, 3, seed=3).A)
    assert not np.array_equal(a.A, a.M)
    lev = gaussian_instance("leverage", 5, 3, box=(0.25, 4.0))
    assert isinstance(lev.constraint, BoxConstraint) and lev.constraint.hi == 4.0


def test_named_instances():
    low = low_mass_row_instance(10)
    assert low.A.shape == (10, 2) and low.A.max() == 0.0
    assert low.M[0, 0] == 1.0 and np.count_nonzero(low.M) == 1
    pad = padded_identity_instance(5, 2)
    assert np.array_equal(pad.A[:2], np.eye(2)) and np.array_equal(pad.A[2:, 0], np.ones(3))
    with pytest.raises(ValueError):
        padded_identity_instance(2, 2)


def test_experiment_spec_validation():
    model = gaussian_instance("softmax", 3, 2)
    with pytest.raises(ValueError, match="grid"):
        ExperimentSpec(model=model, eps_grid=())
    with pytest.raises(ValueError, match="decreasing"):
        ExperimentSpec(model=model, eps_grid=(0.1, 0.2))
    with pytest.raises(ValueError, match="decreasing"):
        ExperimentSpec(model=model, eps_grid=(0.1, 0.1))
    with pytest.raises(ValueError, match="positive"):
        ExperimentSpec(model=model, eps_grid=(0.1, 0.0))
    with pytest.raises(ValueError):
        ExperimentSpec(model=model, trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(model=model, threads=0)
    spec = ExperimentSpec(model=model, eps_grid=[0.2, 0.1])
    assert spec.eps_grid == (0.2, 0.1)


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def test_fmt17_round_trips():
    for x in (math.pi, 1e-300, 0.1, -math.pi, 0.0, 1.0 / 3.0, 2.0**-1074):
        assert float(fmt17(x)) == x
    assert fmt17(1.0 / 3.0) == "0.33333333333333331"
    assert fmt17(float("nan")) == "nan"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [("1", "2"), ("3", "4")], footers=("note 5",))
    text = path.read_text(encoding="utf-8")
    assert text == "a,b\n1,2\n3,4\n# note 5\n"


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _small_sweep_spec(tmp_path=None, threads=1, out=None):
    model = gaussian_instance("softmax", 4, 2, seed=1)
    return ExperimentSpec(
        model=model,
        eps_grid=(0.3, 0.15),
        trials=60,
        seed=9,
        threads=threads,
        out_path=out,
    )


def test_run_sweep_rows_replay_individually():
    spec = _small_sweep_spec()
    res = run_sweep(spec)
    assert res.rows_used == 2 and len(res.rows) == 2
    replay = sweep_point(spec, 1, res.nu)
    original = res.rows[1]
    assert replay.eps == original.eps
    assert replay.h2_at_opt == original.h2_at_opt
    assert replay.m_star == original.m_star
    assert replay.success_at_m == original.success_at_m
    assert replay.seed == original.seed


def test_run_sweep_statistics_make_sense():
    res = run_sweep(_small_sweep_spec())
    assert res.rows[0].m_star < res.rows[1].m_star  # smaller eps needs more samples
    assert res.nu > 0
    for row in res.rows:
        assert 0.0 < row.h2_at_opt < 1.0
        # m_star targets 2/3; an independent re-estimate can dip a little
        assert row.success_at_m >= 0.55
    assert -4.0 < res.slope < -0.5


def test_run_sweep_is_deterministic_and_thread_count_invariant(tmp_path):
    out1 = tmp_path / "t1.csv"
    out3 = tmp_path / "t3.csv"
    r1 = run_sweep(_small_sweep_spec(out=str(out1)))
    r3 = run_sweep(_small_sweep_spec(threads=3, out=str(out3)))
    assert out1.read_bytes() == out3.read_bytes()
    for a, b in zip(r1.rows, r3.rows):
        assert (a.eps, a.h2_at_opt, a.m_star, a.success_at_m, a.seed) == (
            b.eps,
            b.h2_at_opt,
            b.m_star,
            b.success_at_m,
            b.seed,
        )


def test_sweep_csv_format(tmp_path):
    out = tmp_path / "sweep.csv"
    res = run_sweep(_small_sweep_spec(out=str(out)))
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "eps,h2_at_opt,nu,m_star,success_at_m,seed"
    assert len(lines) == 1 + 2 + 3
    first = lines[1].split(",")
    assert first[0] == fmt17(0.3)
    assert first[3] == str(res.rows[0].m_star)
    assert lines[3] == f"# fit_slope {fmt17(res.slope)}"
    assert lines[5] == "# rows_used 2"
    # no row carries wall-clock time
    assert "seconds" not in lines[0]


def test_run_sweep_single_point_grid_has_nan_fit():
    model = gaussian_instance("softmax", 4, 2, seed=1)
    spec = ExperimentSpec(model=model, eps_grid=(0.3,), trials=60, seed=9)
    res = run_sweep(spec)
    assert math.isnan(res.slope) and math.isnan(res.intercept)
    assert res.rows_used == 1


def test_run_sweep_flushes_completed_rows_before_reraising(tmp_path, monkeypatch):
    out = tmp_path / "partial.csv"
    spec = _small_sweep_spec(out=str(out))
    real = harness.estimate_sample_complexity
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 1:
            raise BudgetExceeded("synthetic cap for the flush test")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "estimate_sample_complexity", flaky)
    with pytest.raises(BudgetExceeded, match="synthetic"):
        run_sweep(spec)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len([ln for ln in lines if not ln.startswith("#") and ln != lines[0]]) == 1
    assert "# rows_used 1" in lines


def test_run_sweep_refuses_indistinguishable_directions():
    light = OptimizerConfig(restarts=4)
    # a pure shift direction never changes the softmax law
    A = np.zeros((3, 2))
    M = np.ones((3, 1)) @ np.array([[1.0, -0.5]])
    model = ModelSpec("softmax", A, None, M, EnergyConstraint(1.0), seed=0)
    spec = ExperimentSpec(model=model, eps_grid=(0.2,), trials=30, opt=light)
    with pytest.raises(IndistinguishableError):
        run_sweep(spec)
    # scaling A preserves the leverage law
    g = np.random.default_rng(0)
    A = g.standard_normal((4, 2))
    model = ModelSpec("leverage", A, None, A.copy(), BoxConstraint(0.5, 2.0), seed=0)
    spec = ExperimentSpec(model=model, eps_grid=(0.2,), trials=30, opt=light)
    with pytest.raises(IndistinguishableError):
        run_sweep(spec)


def test_run_sweep_needs_a_model():
    with pytest.raises(ValueError, match="model"):
        run_sweep(ExperimentSpec())


# ---------------------------------------------------------------------------
# expansion checks
# ---------------------------------------------------------------------------


def _two_outcome_taylor():
    model = ModelSpec(
        "softmax",
        np.zeros((2, 1)),
        None,
        np.array([[1.0], [0.0]]),
        EnergyConstraint(1.0),
        seed=0,
    )
    spec = ExperimentSpec(model=model, seed=0)
    return run_taylor_check(spec, query=np.array([1.0]))


def test_taylor_softmax_ratios_converge_to_quarter_and_one():
    rep = _two_outcome_taylor()
    assert not rep.degenerate
    by_eps = {r.eps: r for r in rep.rows}
    # the half-normalized ratio converges to 1/4, not 1
    assert by_eps[1e-3].ratio_half == pytest.approx(0.25, rel=1e-4)
    assert by_eps[1e-4].ratio_eighth == pytest.approx(1.0, abs=1e-6)
    # frozen values for this exact closed-form instance (Var = 1/4)
    assert by_eps[1e-3].ratio_half == pytest.approx(0.24999997786440037, rel=1e-9)
    assert by_eps[1e-3].ratio_eighth == pytest.approx(0.9999999114576015, rel=1e-9)
    assert rep.band_ok is True
    assert rep.converging_eighth is True
    assert rep.zratio_ok is True and rep.zratio_dev < 2e-8


def test_taylor_softmax_degenerate_direction():
    model = ModelSpec(
        "softmax",
        np.zeros((2, 1)),
        None,
        np.zeros((2, 1)),
        EnergyConstraint(1.0),
        seed=0,
    )
    rep = run_taylor_check(ExperimentSpec(model=model, seed=0))
    assert rep.degenerate and rep.rows == ()


def test_taylor_leverage_demo_coefficients():
    model = load_model_spec(str(ir.files("softlev") / "specs" / "demo_leverage.json"))
    rep = run_taylor_check(ExperimentSpec(model=model, seed=model.seed))
    assert not rep.degenerate
    assert rep.derivative_ok
    assert rep.derivative_max_err < 1e-8
    assert abs(rep.derivative_sum) < 1e-12
    # the empirical quadratic coefficient tracks the w^2 candidate ...
    assert rep.coeff_empirical == pytest.approx(rep.coeff_w2, rel=1e-3)
    # ... and is nowhere near the literal first-order sum (a signed total
    # that can even go negative, as it does for this instance)
    assert abs(rep.coeff_w_literal - rep.coeff_empirical) > 10.0 * abs(rep.coeff_empirical)


def test_taylor_leverage_zero_direction_is_degenerate():
    model = gaussian_instance("leverage", 5, 2, seed=4)
    zeroed = ModelSpec("leverage", model.A, None, np.zeros_like(model.A), model.constraint, 4)
    rep = run_taylor_check(ExperimentSpec(model=zeroed, seed=4))
    assert rep.degenerate
    assert rep.derivative_ok  # the derivative of nothing is zero, exactly


def test_taylor_default_query_is_admissible():
    # run_taylor_check validates its query against the model constraint, so
    # surviving these calls is the feasibility check
    soft = gaussian_instance("softmax", 4, 3, seed=11)
    rep = run_taylor_check(ExperimentSpec(model=soft, seed=11))
    assert rep.query.shape == (3,)
    assert float(np.linalg.norm(rep.query)) <= 1.0 + 1e-9
    lev = gaussian_instance("leverage", 5, 2, seed=11)
    rep = run_taylor_check(ExperimentSpec(model=lev, seed=11))
    assert rep.query.shape == (5,)
    assert ((rep.query**2 >= 0.5 - 1e-12) & (rep.query**2 <= 2.0 + 1e-12)).all()


# ---------------------------------------------------------------------------
# bound and invariance suites
# ---------------------------------------------------------------------------


def test_bound_suite_clean_at_scale_one():
    spec = ExperimentSpec(instances=200, seed=0)
    res = run_bound_suite(spec)
    assert res.strict_violations == 0
    assert all(r.satisfied for r in res.rows)
    assert res.all_tight and res.monotone_ok
    assert set(res.max_ratios) == {"softmax_query_h2", "leverage_tv_envelope", "low_mass_h2"}
    for fam, ratio in res.max_ratios.items():
        assert 0.0 < ratio <= 1.0 + 1e-9, fam
    assert len(res.rows) > 2 * 200 + 2 * 200 + 200 + 200


@pytest.mark.usefixtures("halved_lemma_bounds")
def test_bound_suite_detects_corrupted_bounds():
    spec = ExperimentSpec(instances=60, seed=0)
    res = run_bound_suite(spec)
    assert res.strict_violations > 0
    assert not res.all_tight


def test_invariance_suite_clean():
    spec = ExperimentSpec(instances=150, seed=0)
    rep = run_invariance_suite(spec)
    assert rep.all_ok
    names = {p.name for p in rep.properties}
    assert names == {
        "shift_invariance",
        "right_invariance",
        "sign_invariance",
        "normalization",
        "metric_sandwich",
        "metric_triangle",
        "metric_symmetry",
    }
    assert rep.by_name("shift_invariance").max_deviation <= 1e-12
    assert rep.by_name("right_invariance").max_deviation <= 1e-8
    assert all(p.instances == 150 for p in rep.properties)
    assert all(p.violations == 0 for p in rep.properties)
    with pytest.raises(KeyError):
        rep.by_name("associativity")


# ---------------------------------------------------------------------------
# stacked suites against their one-pmf-at-a-time references
# ---------------------------------------------------------------------------
#
# The suites evaluate their output distributions as stacks.  The functions
# below are the loops they replaced, kept as the oracle: one softmax_pmf or
# leverage_pmf call per model, one scale vector drawn per query, and a new
# generator per instance where the suites re-key one stream.


def _ref_softmax_pair(A, B, x):
    P, Q = softmax_pmf(A, x), softmax_pmf(B, x)
    return hellinger_sq(P, Q), tv(P, Q)


def _ref_streams(seed, label, count):
    return (generator(derive_seed(seed, label, k)) for k in range(count))


def _ref_leverage_envelope_rows(seed, count, queries_per_pair=10):
    box = BoxConstraint(0.5, 2.0)
    fresh = SimpleNamespace(keyed=generator)  # a new generator per attempt
    rows = []
    for k in range(count):
        g, A, B, n, d, ratio = harness._leverage_envelope_pair(fresh, seed, k, box)
        worst = 0.0
        for _ in range(queries_per_pair):
            s = np.sqrt(box.lo + g.random(n) * (box.hi - box.lo))
            worst = max(worst, tv(leverage_pmf(A, s), leverage_pmf(B, s)))
        params = {"n": n, "d": d, "ratio": ratio, "seed": k}
        rows.append(BoundReport("leverage_tv_envelope", params, 4.0 * ratio, worst))
    return rows


def _ref_shift_invariance(seed, count):
    worst = 0.0
    for k in range(count):
        g = generator(derive_seed(seed, "shift", k))
        n, d = int(g.integers(2, 9)), int(g.integers(1, 6))
        A = g.standard_normal((n, d))
        w = g.standard_normal(d)
        x = g.standard_normal(d)
        B = A + np.outer(np.ones(n), w)
        worst = max(worst, float(np.abs(softmax_pmf(A, x).probs - softmax_pmf(B, x).probs).max()))
    return worst


def _ref_right_invariance(seed, count):
    worst = 0.0
    for k in range(count):
        g = generator(derive_seed(seed, "right", k))
        d = int(g.integers(1, 5))
        n = int(g.integers(d + 1, 10))
        A = g.standard_normal((n, d))
        kappa = 10.0 ** (3.0 * float(g.random()))
        sing = np.exp(np.linspace(-0.5, 0.5, d) * math.log(kappa)) if d > 1 else np.ones(1)
        U = np.linalg.qr(g.standard_normal((d, d)))[0]
        V = np.linalg.qr(g.standard_normal((d, d)))[0]
        R = U @ np.diag(sing) @ V
        s = np.sqrt(0.5 + g.random(n) * 1.5)
        worst = max(worst, float(np.abs(leverage_pmf(A @ R, s).probs - leverage_pmf(A, s).probs).max()))
    return worst


def _ref_sign_invariance(seed, count):
    worst = 0.0
    for k in range(count):
        g = generator(derive_seed(seed, "sign", k))
        d = int(g.integers(1, 5))
        n = int(g.integers(d + 1, 10))
        A = g.standard_normal((n, d))
        s = np.sqrt(0.5 + g.random(n) * 1.5)
        flip = np.where(g.random(n) < 0.5, -1.0, 1.0)
        worst = max(worst, float(np.abs(leverage_pmf(A, s * flip).probs - leverage_pmf(A, s).probs).max()))
    return worst


def _bits(x):
    return np.float64(x).tobytes()


def _row_key(row):
    params = {k: _bits(v) if isinstance(v, float) else v for k, v in row.parameters.items()}
    return row.bound_name, params, _bits(row.bound_value), _bits(row.observed_value)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_bound_suite_rows_equal_per_pmf_reference(seed, monkeypatch):
    spec = ExperimentSpec(instances=50, seed=seed)
    stacked = run_bound_suite(spec).rows
    monkeypatch.setattr(harness, "_softmax_pair", _ref_softmax_pair)
    monkeypatch.setattr(harness, "_leverage_envelope_rows", _ref_leverage_envelope_rows)
    monkeypatch.setattr(harness, "_streams", _ref_streams)
    reference = run_bound_suite(spec).rows
    assert len(stacked) == len(reference) > 6 * 50
    assert [_row_key(r) for r in stacked] == [_row_key(r) for r in reference]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_invariance_suite_deviations_equal_per_pmf_reference(seed):
    rep = run_invariance_suite(ExperimentSpec(instances=50, seed=seed))
    for name, reference in [
        ("shift_invariance", _ref_shift_invariance),
        ("right_invariance", _ref_right_invariance),
        ("sign_invariance", _ref_sign_invariance),
    ]:
        assert _bits(rep.by_name(name).max_deviation) == _bits(reference(seed, 50)), name


# ---------------------------------------------------------------------------
# report CSVs
# ---------------------------------------------------------------------------


def test_taylor_csv_smoke(tmp_path):
    rep = _two_outcome_taylor()
    path = tmp_path / "taylor.csv"
    write_taylor_csv(path, rep)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "eps,h2,half_eps2_var,ratio_half,ratio_eighth"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 1 + 3
    assert "# family softmax" in lines
    assert "# band_ok 1" in lines
    assert not any(ln.startswith("# converging_half") for ln in lines)
    assert any(ln.startswith("# zratio_dev ") for ln in lines)


def test_bounds_csv_smoke(tmp_path):
    res = run_bound_suite(ExperimentSpec(instances=5, seed=0))
    path = tmp_path / "bounds.csv"
    write_bounds_csv(path, res)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bound_name,parameters,bound_value,observed_value,satisfied,strict,tight"
    assert f"# rows {len(res.rows)}" in lines
    assert "# strict_violations 0" in lines
    assert any(ln.startswith("# max_ratio_low_mass_h2 ") for ln in lines)
    # parameters cell is key=value;key=value with 17-digit floats
    first = lines[1].split(",")
    assert "eps=" in first[1] and ";" in first[1]


def test_invariance_csv_smoke(tmp_path):
    rep = run_invariance_suite(ExperimentSpec(instances=10, seed=0))
    path = tmp_path / "inv.csv"
    write_invariance_csv(path, rep)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "property,instances,max_deviation,violations,ok"
    assert lines[-1] == "# all_ok 1"
    assert len(lines) == 1 + 7 + 1
