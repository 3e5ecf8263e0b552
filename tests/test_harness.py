"""Spec files, instance generators, sweeps, expansion checks, suites, CSVs."""

import importlib.resources as ir
import json
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from softlev import _kernels, cli, harness
from softlev.bounds import BoundReport, extremal_pair, lemma_h2_bound, lemma_tv_bound
from softlev.distributions import DiscreteDistribution, hellinger_sq, tv
from softlev.errors import (
    BudgetExceeded,
    ConstraintViolation,
    IndistinguishableError,
    InputFormatError,
    RankDeficient,
)
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
from softlev.numerics import gram, min_eigenvalue, row_gram_gap, two_to_infty_norm
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
    path = _write_spec(tmp_path, _valid_doc(family="gaussian"))
    with pytest.raises(InputFormatError) as err:
        load_model_spec(path)
    assert str(err.value) == f"{path}: field 'family' must be 'softmax' or 'leverage', got 'gaussian'"


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
    # an integer beyond the float range parses exactly, and float() overflows
    huge = "1" + "0" * 400
    path = _write_spec(tmp_path, '{"family": "softmax", "A": [[1, 0], [0, -%s]], "constraint": {"E": 1}}' % huge)
    with pytest.raises(InputFormatError, match=r"model\.json: field 'A' entry \[1\]\[1\] is too large for a float"):
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
    huge = 10**400  # beyond the float range, like the 1e999 that parses to inf
    for constraint in ({"E": huge}, {"E": float("inf")}):
        with pytest.raises(InputFormatError, match="constraint field 'E' must be a positive number"):
            load_model_spec(_write_spec(tmp_path, _valid_doc(constraint=constraint)))
    for key in ("c", "C"):
        doc = _valid_doc(family="leverage", constraint={"c": 0.5, "C": 2.0, key: huge})
        with pytest.raises(InputFormatError, match=f"constraint field '{key}' must be a positive number"):
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


def test_pair_and_direction_name_the_matrix_that_overflows():
    # finite operands whose sum or difference overflows; a numpy overflow
    # warning would fail the test, since warnings are errors here
    A = np.array([[1e308, 2.0], [3.0, 4.0]])
    big = np.array([[1e308, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match=r"^A \+ M has non-finite entries$"):
        ModelSpec("softmax", A, None, big, EnergyConstraint(1.0)).pair()
    with pytest.raises(ValueError, match=r"^B - A has non-finite entries$"):
        ModelSpec("softmax", A, -big, None, EnergyConstraint(1.0)).direction()


def test_gaussian_instance_is_deterministic_per_arguments():
    a = gaussian_instance("softmax", 5, 3, seed=2)
    b = gaussian_instance("softmax", 5, 3, seed=2)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.M, b.M)
    assert not np.array_equal(a.A, gaussian_instance("softmax", 5, 3, seed=3).A)
    assert not np.array_equal(a.A, a.M)
    lev = gaussian_instance("leverage", 5, 3)
    assert isinstance(lev.constraint, BoxConstraint) and lev.constraint.hi == 2.0


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
    for grid in ((0.2, math.nan), (math.inf, 0.1)):
        with pytest.raises(ValueError, match="finite"):
            ExperimentSpec(model=model, eps_grid=grid)
    with pytest.raises(ValueError):
        ExperimentSpec(model=model, trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(model=model, threads=0)
    with pytest.raises(ValueError):
        ExperimentSpec(model=model, restarts=0)
    assert ExperimentSpec(model=model, restarts=4).restarts == 4
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
    rows = [("1", "2"), ("3", "4"), (0.1, 7), (True, np.False_), (None, np.float64(1.0 / 3.0))]
    write_csv(path, ("a", "b"), rows, footers=("note 5",))
    text = path.read_text(encoding="utf-8")
    assert text == "a,b\n1,2\n3,4\n0.10000000000000001,7\n1,0\n,0.33333333333333331\n# note 5\n"


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
    assert len(res.rows) == 2
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
    assert -4.0 < res.slope < -0.5


@pytest.mark.parametrize("name", ["small", "demo_softmax", "demo_leverage"])
def test_every_sweep_row_reaches_the_target_at_m_star(name):
    # success_at_m is the common block's curve at m*, which stays at or
    # above the target from m* on
    if name == "small":
        spec = _small_sweep_spec()
    else:
        model = load_model_spec(str(ir.files("softlev") / "specs" / f"{name}.json"))
        spec = ExperimentSpec(model=model, seed=model.seed)
    for row in run_sweep(spec).rows:
        assert row.success_at_m >= 2.0 / 3.0, row


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
    assert len(res.rows) == 1


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


_GRIDS = [(0.1,), (0.2, 0.1, 0.05), (0.3, 0.2, 0.14, 0.1, 0.07, 0.05, 0.035)]


def _demo_model(name):
    return load_model_spec(str(ir.files("softlev") / "specs" / f"{name}.json"))


def _row_cells(rows):
    return [tuple(map(harness._cell, astuple(r))) for r in rows]


@pytest.mark.parametrize("name", ["demo_softmax", "demo_leverage"])
@pytest.mark.parametrize("grid", _GRIDS, ids=len)
def test_sweep_rows_equal_each_point_replayed_alone(name, grid):
    # Phase 1 ascends every grid point in one lockstep run; each row must
    # be bitwise the row that sweep_point computes alone, ascent included,
    # on any number of threads.
    for seed in range(4):
        spec = ExperimentSpec(model=_demo_model(name), eps_grid=grid, trials=40, seed=seed)
        nu = run_sweep(spec).nu
        alone = _row_cells(sweep_point(spec, i, nu) for i in range(len(grid)))
        for threads in (1, 2, 3):
            res = run_sweep(replace(spec, threads=threads))
            assert _row_cells(res.rows) == alone, (seed, threads)


def _rank_one_at_a_tenth():
    """A leverage sweep whose B = A + eps M is the rank-one C at eps = 0.1,
    so that point's corner check raises RankDeficient, while the points at
    0.2 and 0.05 complete."""
    demo = _demo_model("demo_leverage")
    C = np.outer(generator(derive_seed(70, "rank-one")).standard_normal(6), [1.0, -0.5])
    M = 10.0 * (C - demo.A)
    return ModelSpec("leverage", demo.A, None, M, demo.constraint)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_run_sweep_reraises_a_failing_ascent_after_the_other_rows(tmp_path, monkeypatch, threads):
    spec = ExperimentSpec(model=_rank_one_at_a_tenth(), trials=40, threads=threads, out_path=str(tmp_path / "s.csv"))
    nu = harness._sweep_nu(spec)
    # the per-point loop: each point alone, its own ascent included
    rows, errors = [], []
    for i in range(len(spec.eps_grid)):
        try:
            rows.append(sweep_point(spec, i, nu))
        except Exception as exc:  # noqa: BLE001 - compared below
            errors.append(exc)
    assert len(rows) == 2 and [type(e) for e in errors] == [RankDeficient]
    # the failure comes out of the shared ascent, as that point's entry
    assert [type(o).__name__ for o in harness._sweep_optima(spec)] == ["OptResult", "RankDeficient", "OptResult"]
    harness._write_sweep_csv(tmp_path / "loop.csv", rows, *harness._fit_loglog(rows))
    calls = []
    real = harness.sweep_point

    def counted(spec, index, nu, optimum=None):
        calls.append(index)
        return real(spec, index, nu, optimum)

    monkeypatch.setattr(harness, "sweep_point", counted)
    with pytest.raises(RankDeficient) as raised:
        run_sweep(spec)
    assert str(raised.value) == str(errors[0])
    assert sorted(calls) == [0, 1, 2]
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_run_sweep_reraises_a_point_whose_pair_overflows_after_the_other_rows(tmp_path, threads):
    # At eps = 1e308 the entries of A + eps M overflow to inf, so that
    # point's pair cannot be built; the points at 0.2 and 0.1 complete.
    demo = _demo_model("demo_softmax")
    overflowing = ModelSpec("softmax", demo.A, None, 10.0 * demo.M, demo.constraint)
    spec = ExperimentSpec(
        model=overflowing, eps_grid=(1e308, 0.2, 0.1), trials=40, threads=threads, out_path=str(tmp_path / "s.csv")
    )
    with np.errstate(over="ignore"):
        optima = harness._sweep_optima(spec)
        nu = harness._sweep_nu(spec)
        rows = [sweep_point(spec, i, nu) for i in (1, 2)]
        with pytest.raises(ValueError, match="non-finite"):
            sweep_point(spec, 0, nu)
        with pytest.raises(ValueError, match="non-finite"):
            run_sweep(spec)
    assert [type(o).__name__ for o in optima] == ["ValueError", "OptResult", "OptResult"]
    harness._write_sweep_csv(tmp_path / "loop.csv", rows, *harness._fit_loglog(rows))
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_run_sweep_refuses_indistinguishable_directions():
    # a pure shift direction never changes the softmax law
    A = np.zeros((3, 2))
    M = np.ones((3, 1)) @ np.array([[1.0, -0.5]])
    model = ModelSpec("softmax", A, None, M, EnergyConstraint(1.0), seed=0)
    spec = ExperimentSpec(model=model, eps_grid=(0.2,), trials=30, restarts=4)
    with pytest.raises(IndistinguishableError):
        run_sweep(spec)
    # scaling A preserves the leverage law
    g = np.random.default_rng(0)
    A = g.standard_normal((4, 2))
    model = ModelSpec("leverage", A, None, A.copy(), BoxConstraint(0.5, 2.0), seed=0)
    spec = ExperimentSpec(model=model, eps_grid=(0.2,), trials=30, restarts=4)
    with pytest.raises(IndistinguishableError):
        run_sweep(spec)


def test_run_sweep_needs_a_model():
    # the spec describes a sweep, so it cannot be built without a model
    with pytest.raises(TypeError):
        ExperimentSpec()
    with pytest.raises(TypeError, match="ModelSpec"):
        ExperimentSpec(model=None)


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
    return run_taylor_check(model, 0, query=np.array([1.0]))


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
    rep = run_taylor_check(model, 0)
    assert rep.degenerate and rep.rows == ()


def test_taylor_leverage_demo_coefficients():
    model = load_model_spec(str(ir.files("softlev") / "specs" / "demo_leverage.json"))
    rep = run_taylor_check(model, model.seed)
    assert not rep.degenerate
    assert rep.derivative_ok
    assert rep.derivative_max_err < 1e-8
    assert abs(rep.derivative_sum) < 1e-12
    # the score is 2w with w = W_ii / lev_i, and H^2 = (1/8) eps^2 Var_P(2w)
    # + O(eps^3): the 1/8-normalized ratio tends to 1 with an O(eps) gap
    by_eps = {r.eps: r for r in rep.rows}
    for eps, gap in ((1e-2, 1e-2), (1e-3, 1e-3), (1e-4, 1e-4)):
        assert abs(by_eps[eps].ratio_eighth - 1.0) < gap
    assert rep.band_ok is True and rep.converging_eighth is True
    assert not any(name.startswith("coeff_") for name, _ in rep.figures())


def test_taylor_leverage_expansion_matches_the_score_variance():
    # the leverage twin of acceptance 05: at each instance's default query,
    # H^2 / ((1/8) eps^2 Var_P(2w)) lies in [0.9, 1.1] at eps = 1e-3, and
    # its deviation from 1 shrinks towards eps = 1e-4
    eighths = []
    for k in range(20):
        g = generator(derive_seed(0, "lev-expansion", k))
        d = int(g.integers(1, 5))
        n = int(g.integers(d + 1, 11))
        rep = run_taylor_check(gaussian_instance("leverage", n, d, seed=k), k)
        assert not rep.degenerate and rep.derivative_ok
        assert rep.band_ok and rep.converging_eighth, (k, n, d)
        eighths.append({r.eps: r for r in rep.rows}[1e-3].ratio_eighth)
    assert 0.9 <= min(eighths) and max(eighths) <= 1.1, eighths


def test_taylor_leverage_zero_direction_is_degenerate():
    model = gaussian_instance("leverage", 5, 2, seed=4)
    zeroed = ModelSpec("leverage", model.A, None, np.zeros_like(model.A), model.constraint, 4)
    rep = run_taylor_check(zeroed, 4)
    assert rep.degenerate
    assert rep.derivative_ok  # the derivative of nothing is zero, exactly


def test_taylor_leverage_zero_direction_on_a_zero_row_is_degenerate():
    # the score 2 W_ii / lev_i is 0 / 0 on the zero row, but with no
    # direction there is nothing to expand
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    rep = run_taylor_check(ModelSpec("leverage", A, None, np.zeros_like(A), BoxConstraint(0.5, 2.0)), 0)
    assert rep.degenerate and rep.rows == () and rep.derivative_ok


def test_taylor_default_query_is_admissible():
    # run_taylor_check validates its query against the model constraint, so
    # surviving these calls is the feasibility check
    soft = gaussian_instance("softmax", 4, 3, seed=11)
    rep = run_taylor_check(soft, 11)
    assert rep.query.shape == (3,)
    assert float(np.linalg.norm(rep.query)) <= 1.0 + 1e-9
    lev = gaussian_instance("leverage", 5, 2, seed=11)
    rep = run_taylor_check(lev, 11)
    assert rep.query.shape == (5,)
    assert ((rep.query**2 >= 0.5 - 1e-12) & (rep.query**2 <= 2.0 + 1e-12)).all()


@pytest.mark.parametrize(
    "family, query, message",
    [("softmax", [3.0, 0.0, 0.0], "energy"), ("leverage", [1.0, 1.0, 1.0, 1.0, 3.0], "box constraint violated")],
)
def test_taylor_rejects_an_explicit_query_outside_the_constraint(family, query, message):
    model = gaussian_instance(family, 5, 3, seed=11)
    with pytest.raises(ConstraintViolation, match=message):
        run_taylor_check(model, 11, query=np.array(query))


# ---------------------------------------------------------------------------
# bound and invariance suites
# ---------------------------------------------------------------------------


def test_bound_suite_clean_at_scale_one():
    res = run_bound_suite(200, 0)
    assert res.strict_violations == 0
    assert all(r.satisfied for r in res.rows)
    assert res.all_tight and res.monotone_ok
    assert set(res.max_ratios) == {"softmax_query_h2", "leverage_tv_envelope", "low_mass_h2"}
    for fam, ratio in res.max_ratios.items():
        assert 0.0 < ratio <= 1.0 + 1e-9, fam
    assert len(res.rows) > 2 * 200 + 2 * 200 + 200 + 200


@pytest.mark.usefixtures("halved_lemma_bounds")
def test_bound_suite_detects_corrupted_bounds():
    res = run_bound_suite(60, 0)
    assert res.strict_violations > 0
    assert not res.all_tight


def test_invariance_suite_clean():
    rep = run_invariance_suite(150, 0)
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
        "metric_identity",
    }
    assert rep.by_name("shift_invariance").max_deviation <= 1e-12
    assert rep.by_name("right_invariance").max_deviation <= 1e-8
    assert all(p.instances == 150 for p in rep.properties)
    assert all(p.violations == 0 for p in rep.properties)
    with pytest.raises(KeyError):
        rep.by_name("associativity")


# ---------------------------------------------------------------------------
# lockstep suites against their one-instance-at-a-time references
# ---------------------------------------------------------------------------
#
# The suites fill a block of instances, then decode and evaluate each group
# of equal shape as one stack.  The references below read one instance at a
# time from its own generator: a Philox keyed derive_seed(seed, label) whose
# counter starts at the instance's row, [k * stride, attempt, 0, 0], built
# here and not by rng.uniform_rows.  They make one generator call per field,
# turn uniforms into normals by their own Box-Muller, decode a shape by
# scalar arithmetic, and evaluate an instance with one softmax_pmf,
# leverage_pmf, row_gram_gap or DiscreteDistribution per model, in instance
# order.  numpy fills random(a + b) with bitwise the values of two calls of
# sizes a and b, so the fields equal the suites' decoded prefixes.


def _ref_box_muller(u):
    """Normals 2p and 2p + 1 from uniforms 2p and 2p + 1 along the last axis:
    r cos t and r sin t, with r = sqrt(-2 log(1 - u_2p)), t = 2 pi u_2p+1."""
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., 0::2]))
    t = 2.0 * np.pi * u[..., 1::2]
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1).reshape(u.shape)


def _ref_stream(seed, label, k, family, attempt=0):
    """Instance k's own generator (attempt ``attempt``'s for the leverage
    envelope): its row holds the family's wu uniforms and a pair per two of
    its wn normals, padded to whole Philox blocks of 4 uniforms."""
    wu, wn = family[:2]
    stride = -(-(wu + wn + wn % 2) // 4)
    counter = [k * stride, attempt, 0, 0]
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, label), counter=counter))


def _ref_streams(seed, label, count, family):
    return (_ref_stream(seed, label, k, family) for k in range(count))


class _RefDraws:
    """One instance's draws in the layout of its counter row: its uniform
    fields first, each from its own call, then the unused rest of its
    ``wu`` uniforms, then its normal fields, each from the Box-Muller pairs
    it needs beyond the normal a previous field left over."""

    def __init__(self, g, wu):
        self.g, self.left, self.spare = g, wu, np.empty(0)

    def uniforms(self, shape):
        self.left -= math.prod(np.atleast_1d(shape))
        return self.g.random(shape)

    def uniform(self):
        return float(self.uniforms(1)[0])

    def integer(self, lo, hi):
        span = hi - lo
        return lo + min(int(span * self.uniform()), span - 1)

    def normals(self, shape):
        self.g.random(self.left)
        self.left = 0
        m = math.prod(np.atleast_1d(shape))
        need = max(m - len(self.spare), 0)
        z = np.concatenate([self.spare, _ref_box_muller(self.g.random(need + need % 2))])
        self.spare = z[m:]
        return z[:m].reshape(shape)


def _ref_softmax_pair(A, B, x):
    P, Q = softmax_pmf(A, x), softmax_pmf(B, x)
    return hellinger_sq(P, Q), tv(P, Q)


def _ref_gap_draw(g):
    r = _RefDraws(g, 12)
    n = r.integer(2, 11)
    eps = 2.0 * r.uniform()
    u = r.uniforms(n)
    return r.normals(n), u, eps


def _ref_logit_pair_rows(seed, count):
    rows = []
    for k, g in enumerate(_ref_streams(seed, "gap", count, harness._GAP)):
        z, u, eps = _ref_gap_draw(g)
        a = 2.0 * z
        mask = u < 0.5
        b = a + eps * mask
        h2, t = _ref_softmax_pair(a[:, None], b[:, None], np.ones(1))
        params = {"eps": eps, "n": len(z), "m": int(mask.sum()), "seed": k}
        rows.append(BoundReport("logit_gap_h2", params, lemma_h2_bound(eps), h2))
        rows.append(BoundReport("logit_gap_tv", params, lemma_tv_bound(eps), t))
    return rows


def _ref_chain_rows(seed, count):
    rows = []
    for k, g in enumerate(_ref_streams(seed, "chain", count, harness._GAP)):
        z, u, eps = _ref_gap_draw(g)
        a = 2.0 * z
        b = a + eps * (2.0 * u - 1.0)
        h2, t = _ref_softmax_pair(a[:, None], b[:, None], np.ones(1))
        params = {"eps": eps, "n": len(z), "seed": k}
        rows.append(BoundReport("infty_gap_h2_chain", params, lemma_h2_bound(2.0 * eps), h2))
        rows.append(BoundReport("infty_gap_tv_chain", params, 2.0 * lemma_tv_bound(eps), t))
    return rows


def _ref_envelope_draw(g):
    r = _RefDraws(g, 3)
    n, d = r.integer(2, 11), r.integer(1, 6)
    rho = 0.5 * r.uniform()
    x = r.normals(d)
    A, D = r.normals((n, d)), r.normals((n, d))
    if not x.any():
        return None
    return A, D, x, np.sqrt((x * x).sum()), rho


def _ref_softmax_envelope_rows(seed, count):
    rows = []
    for k, g in enumerate(_ref_streams(seed, "softmax-env", count, harness._ENVELOPE)):
        drawn = _ref_envelope_draw(g)
        if drawn is None:
            continue
        A, D, x, xnorm, rho = drawn
        n, d = A.shape
        gap = rho / xnorm
        B = A + gap * (D / two_to_infty_norm(D))
        h2, _ = _ref_softmax_pair(A, B, x)
        params = {"rho": rho, "n": n, "d": d, "seed": k}
        rows.append(BoundReport("softmax_query_h2", params, rho * rho, h2))
    return rows


def _ref_attempt_draw(g):
    r = _RefDraws(g, 83)
    d = r.integer(1, 4)
    n = r.integer(d + 1, 9)
    target = 0.1 * (0.1 + 0.9 * r.uniform())
    R = r.uniforms((10, n))
    return r.normals((n, d)), r.normals((n, d)), target, R


def _ref_attempt(seed, k, attempt, box=BoxConstraint(0.5, 2.0)):
    """A, B, ratio and R of attempt (k, attempt) of the leverage envelope,
    or the test it fails: 'conditioning' or 'gamma'."""
    A, G, target, R = _ref_attempt_draw(_ref_stream(seed, "lev-env", k, harness._ATTEMPT, attempt))
    delta = min_eigenvalue(gram(A))
    if delta < 0.05:
        return "conditioning"
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
    return (A, B, ratio, R) if 0.0 < ratio <= 0.1 else "gamma"


def _ref_leverage_envelope_pair(seed, k, rejected=None):
    """The accepted attempt's number, A, B, ratio and R; each rejected
    attempt is appended to ``rejected`` as (k, attempt, reason)."""
    for attempt in range(50):
        found = _ref_attempt(seed, k, attempt)
        if not isinstance(found, str):
            return (attempt, *found)
        if rejected is not None:
            rejected.append((k, attempt, found))
    raise RuntimeError(f"could not draw a well-conditioned leverage pair for index {k}")


def _ref_leverage_envelope_rows(seed, count, rejected=None):
    box = BoxConstraint(0.5, 2.0)
    rows = []
    for k in range(count):
        _, A, B, ratio, R = _ref_leverage_envelope_pair(seed, k, rejected)
        worst = 0.0
        for r in R:
            s = np.sqrt(box.lo + r * (box.hi - box.lo))
            worst = max(worst, tv(leverage_pmf(A, s), leverage_pmf(B, s)))
        n, d = A.shape
        params = {"n": n, "d": d, "ratio": ratio, "seed": k}
        rows.append(BoundReport("leverage_tv_envelope", params, 4.0 * ratio, worst))
    return rows


def _ref_extremal_rows():
    rows = []
    for eps in (0.1, 0.5, 1.0, 2.0):
        for n in (2, 5, 10):
            for m in sorted({1, n // 2}):
                a, b = extremal_pair(n, m, eps)
                h2, t = _ref_softmax_pair(a[:, None], b[:, None], np.ones(1))
                params = {"eps": eps, "n": n, "m": m}
                rows.append(BoundReport("extremal_h2", params, lemma_h2_bound(eps), h2))
                rows.append(BoundReport("extremal_tv", params, lemma_tv_bound(eps), t))
    return rows


def _ref_low_mass_rows(eps=0.1, energy=1.0):
    rows = []
    for n in (10, 100, 1000):
        model = low_mass_row_instance(n)
        x = np.array([energy, 0.0])
        h2, _ = _ref_softmax_pair(model.A, model.A + eps * model.M, x)
        params = {"n": n, "eps": eps, "E": energy}
        rows.append(BoundReport("low_mass_h2", params, 2.0 * eps * eps * energy * energy / n, h2))
    return rows


def _ref_bound_rows(seed, count):
    return (
        _ref_logit_pair_rows(seed, count)
        + _ref_chain_rows(seed, count)
        + _ref_extremal_rows()
        + _ref_softmax_envelope_rows(seed, count)
        + _ref_leverage_envelope_rows(seed, count)
        + _ref_low_mass_rows()
    )


def _ref_shift_draw(g):
    r = _RefDraws(g, 2)
    n, d = r.integer(2, 9), r.integer(1, 6)
    return r.normals((n, d)), r.normals(d), r.normals(d)


def _ref_tall(r):
    d = r.integer(1, 5)
    return r.integer(d + 1, 10), d


def _ref_right_draw(g):
    r = _RefDraws(g, 12)
    n, d = _ref_tall(r)
    log_kappa = math.log(1e3) * r.uniform()
    u = r.uniforms(n)
    return r.normals((n, d)), log_kappa, r.normals((d, d)), r.normals((d, d)), u


def _ref_sign_draw(g):
    r = _RefDraws(g, 20)
    n, d = _ref_tall(r)
    u, coins = r.uniforms(n), r.uniforms(n)
    return r.normals((n, d)), u, coins


def _ref_normalization_draw(g):
    r = _RefDraws(g, 2)
    n, d = _ref_tall(r)
    return r.normals((n, d)), r.normals(d)


def _ref_shift_deviation(g):
    A, w, x = _ref_shift_draw(g)
    B = A + np.outer(np.ones(len(A)), w)
    return float(np.abs(softmax_pmf(A, x).probs - softmax_pmf(B, x).probs).max())


def _ref_right_deviation(g):
    A, log_kappa, U, V, u = _ref_right_draw(g)
    d = A.shape[1]
    sing = np.exp(np.linspace(-0.5, 0.5, d) * log_kappa) if d > 1 else np.ones(1)
    R = np.linalg.qr(U)[0] @ np.diag(sing) @ np.linalg.qr(V)[0]
    s = np.sqrt(0.5 + u * 1.5)
    return float(np.abs(leverage_pmf(A @ R, s).probs - leverage_pmf(A, s).probs).max())


def _ref_sign_deviation(g):
    A, u, coins = _ref_sign_draw(g)
    s = np.sqrt(0.5 + u * 1.5)
    flip = np.where(coins < 0.5, -1.0, 1.0)
    return float(np.abs(leverage_pmf(A, s * flip).probs - leverage_pmf(A, s).probs).max())


def _ref_normalization_deviation(g):
    return _ref_normalization(*_ref_normalization_draw(g))


def _ref_normalization(A, x):
    # the raw kernels: a pmf would be renormalized to within 2 ulp of one
    dev = abs(float(_kernels.softmax_probs(A @ x).sum()) - 1.0)
    probs, _, ok = _kernels.leverage_probs(A)
    return max(dev, abs(float(probs.sum()) - 1.0)) if ok else dev


_REF_DEVIATIONS = {
    "shift_invariance": _ref_shift_deviation,
    "right_invariance": _ref_right_deviation,
    "sign_invariance": _ref_sign_deviation,
    "normalization": _ref_normalization_deviation,
}


def _ref_masks(coins, keep):
    """The coin rule: an outcome whose coin is below 0.15 is masked; where
    all are, the outcome ``keep`` is not."""
    mask = coins < 0.15
    if mask.all():
        mask[keep] = False
    return mask


def _ref_metric_fields(r, n):
    """Weights and masks of P, Q and R on n outcomes, each a (3, n) array."""
    drawn = [(r.uniforms(n), r.uniforms(n)) for _ in "PQR"]
    keep = [r.integer(0, n) for _ in "PQR"]
    return np.array([w for w, _ in drawn]), np.array([_ref_masks(c, i) for (_, c), i in zip(drawn, keep)])


def _ref_metric_draw(g):
    r = _RefDraws(g, 70)
    return _ref_metric_fields(r, r.integer(2, 12))


def _ref_distributions(g):
    weights, masks = _ref_metric_draw(g)
    out = []
    for w, mask in zip(weights, masks):
        p = w + 1e-12
        p[mask] = 0.0
        out.append(DiscreteDistribution(p / p.sum()))
    return out


def _ref_metric_axioms(seed, count):
    sandwich_viol = triangle_viol = sym_viol = ident_viol = 0
    sandwich_dev = triangle_dev = -math.inf
    ident_dev = 0.0
    slack = 1e-12
    for g in _ref_streams(seed, "metric", count, harness._METRIC):
        P, Q, R = _ref_distributions(g)
        h2_pq, tv_pq = hellinger_sq(P, Q), tv(P, Q)
        h2_qp, tv_qp = hellinger_sq(Q, P), tv(Q, P)
        h2_pr, tv_pr = hellinger_sq(P, R), tv(P, R)
        h2_qr, tv_qr = hellinger_sq(Q, R), tv(Q, R)
        sandwich_dev = max(sandwich_dev, h2_pq - tv_pq, tv_pq - math.sqrt(2.0 * h2_pq))
        triangle_dev = max(
            triangle_dev, tv_pr - (tv_pq + tv_qr), math.sqrt(h2_pr) - (math.sqrt(h2_pq) + math.sqrt(h2_qr))
        )
        if not (h2_pq <= tv_pq + slack and tv_pq <= math.sqrt(2.0 * h2_pq) + slack):
            sandwich_viol += 1
        if tv_pq != tv_qp or h2_pq != h2_qp:
            sym_viol += 1
        if max(tv(P, P), hellinger_sq(P, P)) > slack:
            ident_viol += 1
        ident_dev = max(ident_dev, tv(P, P), hellinger_sq(P, P))
        if tv_pr > tv_pq + tv_qr + slack:
            triangle_viol += 1
        if math.sqrt(h2_pr) > math.sqrt(h2_pq) + math.sqrt(h2_qr) + slack:
            triangle_viol += 1
    return sandwich_viol, triangle_viol, sym_viol, ident_viol, sandwich_dev, triangle_dev, ident_dev


def _bits(x):
    return np.float64(x).tobytes()


def _row_key(row):
    params = {k: _bits(v) if isinstance(v, float) else v for k, v in row.parameters.items()}
    return row.bound_name, params, _bits(row.bound_value), _bits(row.observed_value)


def _assert_bound_rows_equal_reference(seed, count):
    rows = run_bound_suite(count, seed).rows
    reference = _ref_bound_rows(seed, count)
    assert len(rows) == len(reference) > 6 * count
    assert [_row_key(r) for r in rows] == [_row_key(r) for r in reference], count


def _assert_deviations_equal_reference(seed, count):
    rep = run_invariance_suite(count, seed)
    for name, label, _, family, deviation in harness._INVARIANCES:
        devs = [numbers[-1] for _, _, numbers in harness._evaluated(seed, label, count, family, deviation)]
        reference = [_REF_DEVIATIONS[name](g) for g in _ref_streams(seed, label, count, family)]
        assert [_bits(v) for v in devs] == [_bits(v) for v in reference], (name, count)
        assert _bits(rep.by_name(name).max_deviation) == _bits(max(reference)), (name, count)
    metric = harness._metric_axioms(seed, count)
    reference = _ref_metric_axioms(seed, count)
    assert metric[:4] == reference[:4], count
    assert [_bits(v) for v in metric[4:]] == [_bits(v) for v in reference[4:]], count
    reported = [rep.by_name(f"metric_{name}").max_deviation for name in ("sandwich", "triangle", "identity")]
    assert [_bits(v) for v in reported] == [_bits(v) for v in reference[4:]], count


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_bound_suite_rows_equal_per_pmf_reference(seed):
    for count in (1, 7, 50):  # each fits in one block
        _assert_bound_rows_equal_reference(seed, count)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_invariance_suite_deviations_equal_per_pmf_reference(seed):
    for count in (1, 7, 50):
        _assert_deviations_equal_reference(seed, count)


# Where one block ends does not depend on the seed, so one seed covers it.
def test_bound_suite_rows_equal_per_pmf_reference_across_blocks():
    _assert_bound_rows_equal_reference(0, harness._BLOCK + 88)


def test_invariance_suite_deviations_equal_per_pmf_reference_across_blocks():
    _assert_deviations_equal_reference(0, harness._BLOCK + 88)


def test_evaluated_skips_each_instance_whose_draw_is_none():
    # Random normals never give the softmax envelope an x of 0, so no suite
    # skips an instance.  Here the shape decoder gives chosen instances on
    # both sides of a block boundary a shape of 0, so they have no draw;
    # every other instance keeps the fields of its own stream, and its
    # values are evaluate's on them.
    seed, label, count = 3, "skip", harness._BLOCK + 5
    skipped = [0, 7, harness._BLOCK - 1, harness._BLOCK, count - 1]
    starts = iter(range(0, count, harness._BLOCK))  # the shape decoder sees the blocks in order

    def shape(U, Z):
        start = next(starts)
        S = harness._uniform_int(U[:, :1], 1, 4)
        S[[k - start for k in skipped if 0 <= k - start < len(U)]] = 0
        return S

    def draw(U, Z, idx, n):
        return Z(idx, n), U[idx, 1]

    def evaluate(z, c):
        return (z[:, 0] * c,)

    family = (2, 3, shape, draw)
    got = harness._evaluated(seed, label, count, family, evaluate)
    assert next(starts, None) is None
    assert [k for k, _, _ in got] == [k for k in range(count) if k not in skipped]
    for k, (n,), (c, value) in got:
        g = _ref_stream(seed, label, k, family)
        u, z = g.random(2), _ref_box_muller(g.random(4))
        assert n == 1 + min(int(3 * u[0]), 2), k
        assert (_bits(c), _bits(value)) == (_bits(u[1]), _bits(z[0] * u[1])), k


def test_normalization_deviation_ignores_a_rank_deficient_leverage_model():
    # Random instances are never rank deficient.  Here the first model's
    # zero column makes it so: its leverage scores, which sum to one ulp off
    # one, are not checked, and its zero logits give a uniform softmax.
    A = np.zeros((2, 4, 2))
    A[:, :, 0] = [1.0, 2.0, 3.0, 4.0]
    A[1, 0, 1] = 1.0
    x = np.array([[0.0, 1.0], [0.5, 1.0]])
    (devs,) = harness._normalization_deviation(A, x)
    assert [_bits(v) for v in devs] == [_bits(_ref_normalization(Ai, xi)) for Ai, xi in zip(A, x)]
    assert devs[0] == 0.0


def _masked_draws(seed, k):
    """The distributions of metric instance k, in order, whose coins all
    fell below 0.15, so that its keep uniform picks the outcome to keep."""
    u = _ref_stream(seed, "metric", k, harness._METRIC).random(70)
    n = 2 + min(int(10 * u[0]), 9)
    coins = u[1 : 1 + 6 * n].reshape(3, 2, n)[:, 1]
    return [name for name, c in zip("PQR", coins) if (c < 0.15).all()]


def test_metric_instance_whose_coins_all_mask_draws_the_index_to_keep():
    # At seed 0, instance 148's coins of Q all fall below 0.15, so the
    # outcome its keep uniform picks stays.  Every instance's ten distances,
    # evaluated as one stack with the others, equal the
    # one-distribution-at-a-time reference bitwise.
    seed, count = 0, 149
    assert [k for k in range(count) if _masked_draws(seed, k)] == [77, 113, 148]
    assert _masked_draws(seed, count - 1) == ["Q"]
    got = {}
    metric = harness._METRIC
    for idx, _, _, distances in harness._grouped(seed, "metric", range(count), metric, harness._metric_distances):
        got.update(zip(idx.tolist(), zip(*(d.tolist() for d in distances))))
    for k, g in enumerate(_ref_streams(seed, "metric", count, harness._METRIC)):
        P, Q, R = _ref_distributions(g)
        pairs = ((P, Q), (Q, P), (P, P), (P, R), (Q, R))
        want = [hellinger_sq(a, b) for a, b in pairs] + [tv(a, b) for a, b in pairs]
        assert [_bits(v) for v in got[k]] == [_bits(v) for v in want], k
    assert harness._metric_axioms(seed, count) == _ref_metric_axioms(seed, count)


def test_right_invariance_stacks_a_group_with_one_column():
    # d = 1 takes a spectrum of ones, not exp(linspace * log kappa).  At
    # seed 1 the first 50 instances hold six groups of shape (n, 1) with
    # two or more instances each; each group, as one stack, gives the
    # reference.
    seed, count = 1, 50
    _, label, _, family, deviation = harness._INVARIANCES[1]
    groups = [
        (idx, devs)
        for idx, (_, d), _, (devs,) in harness._grouped(seed, label, range(count), family, deviation)
        if d == 1 and len(idx) > 1
    ]
    assert len(groups) == 6
    for idx, devs in groups:
        reference = [_ref_right_deviation(_ref_stream(seed, label, k, family)) for k in idx.tolist()]
        assert [_bits(v) for v in devs.tolist()] == [_bits(v) for v in reference]


def test_leverage_envelope_redraws_a_missed_gamma_search_at_the_next_attempt():
    # At seed 4, pair 63's first gamma search lands outside (0, 0.1], so the
    # pair is redrawn at its next attempt in a later round; every row still
    # equals the loop's.
    rejected = []
    reference = _ref_leverage_envelope_rows(4, 150, rejected=rejected)
    assert [(k, attempt) for k, attempt, reason in rejected if reason == "gamma"] == [(63, 0)]
    rows = harness._leverage_envelope_rows(4, 150)
    assert [_row_key(r) for r in rows] == [_row_key(r) for r in reference]


def test_leverage_envelope_gives_up_after_fifty_attempts(monkeypatch):
    # Reject every conditioning test after the first: index 0 keeps its
    # first attempt at seed 0, and index 1 runs out of attempts.
    rejected = []
    _ref_leverage_envelope_pair(0, 0, rejected)
    assert rejected == []
    real, tested = harness._conditioning, []

    def ill_conditioned(A):
        deltas = np.zeros(len(A))
        if not tested:  # the first stack holds index 0's first attempt first
            deltas[0] = real(A[:1])[0]
        tested.extend(A)
        return deltas

    monkeypatch.setattr(harness, "_conditioning", ill_conditioned)
    with pytest.raises(RuntimeError, match=r"leverage pair for index 1$"):
        harness._leverage_envelope_rows(0, 3)
    assert len(tested) == 1 + 2 * 50
    monkeypatch.setattr(harness, "_conditioning", lambda A: np.zeros(len(A)))
    with pytest.raises(RuntimeError, match=r"leverage pair for index 0$"):
        harness._leverage_envelope_rows(0, 1)


def test_stacked_conditioning_equals_min_eigenvalue_of_each_gram():
    # d = 1 and 2 take the closed forms, d = 3 eigvalsh; the draws include
    # matrices that fail the 0.05 conditioning test
    g = generator(derive_seed(9, "conditioning"))
    for d in (1, 2, 3):
        for n in range(d + 1, 9):
            A = g.standard_normal((40, n, d))
            A[0] *= 0.01  # small
            A[1, :, -1] = A[1, :, 0] * (1.0 + 1e-3)  # nearly rank-deficient when d > 1
            got = harness._conditioning(A).tolist()
            want = [min_eigenvalue(gram(a)) for a in A]
            assert [_bits(v) for v in got] == [_bits(v) for v in want], (n, d)
            assert want[0] < 0.05 and max(want) >= 0.05


# ---------------------------------------------------------------------------
# decoded fills and the array gamma search against their scalar references
# ---------------------------------------------------------------------------
#
# Each instance fills one row of uniforms and one row of normals, one
# generator call each, and a suite decodes every field from those rows.
# The references above make one call per field; each decoded field must be
# bitwise theirs.

_FAMILIES = {
    family[3]: family
    for family in (harness._GAP, harness._ENVELOPE, harness._ATTEMPT, harness._METRIC)
    + tuple(row[3] for row in harness._INVARIANCES)
}


def _field_bits(fields):
    """Shape, dtype and bytes of each field of a draw (None stays None)."""
    if fields is None:
        return None
    return [(np.shape(f), np.asarray(f).dtype.str, np.asarray(f).tobytes()) for f in fields]


def _decoded(seed, label, count, draw):
    """Each kept instance's fields, by index, as ``_grouped`` decodes them
    for the family whose draw is ``draw``."""
    out = {}
    for idx, _, fields, _ in harness._grouped(seed, label, range(count), _FAMILIES[draw], lambda *fields: ()):
        out.update((k, [f[j] for f in fields]) for j, k in enumerate(idx.tolist()))
    return out


@pytest.mark.parametrize(
    "label, draw, reference",
    [
        ("softmax-env", harness._envelope_draw, _ref_envelope_draw),
        ("shift", harness._shift_draw, _ref_shift_draw),
        ("right", harness._right_draw, _ref_right_draw),
        ("sign", harness._sign_draw, _ref_sign_draw),
        ("norm", harness._normalization_draw, _ref_normalization_draw),
        ("metric", harness._metric_draw, _ref_metric_draw),
        ("gap", harness._gap_draw, _ref_gap_draw),
        ("lev-env", harness._attempt_draw, _ref_attempt_draw),
    ],
)
def test_merged_draws_equal_one_generator_call_per_array(label, draw, reference):
    # 600 instances of the family's own streams at each of two seeds: about
    # 30 ms per family.
    for seed in (0, 5):
        got = _decoded(seed, label, 600, draw)
        for k, g in enumerate(_ref_streams(seed, label, 600, _FAMILIES[draw])):
            assert _field_bits(got.get(k)) == _field_bits(reference(g)), k


def test_random_distribution_draw_equals_two_calls_including_the_all_masked_branch():
    # The metric decoder at a fixed n against two calls per distribution
    # (weights, then coins) and the keep uniforms.  Two outcomes are all
    # masked with probability 0.15^2, so at n = 2 the 600 streams take the
    # keep branch about 40 times.  About 60 ms.
    for n in (2, 3, 11):
        U = np.array([g.random(70) for g in _ref_streams(0, f"distribution-{n}", 600, harness._METRIC)])
        weights, masked = harness._metric_draw(U, None, np.arange(600), n)
        kept = 0
        for k, g in enumerate(_ref_streams(0, f"distribution-{n}", 600, harness._METRIC)):
            r = _RefDraws(g, 70)
            r.uniform()  # n's
            ref_weights, ref_masked = _ref_metric_fields(r, n)
            assert _field_bits((weights[k], masked[k])) == _field_bits((ref_weights, ref_masked)), (n, k)
            kept += sum(int(c.all()) for c in U[k, 1 : 1 + 6 * n].reshape(3, 2, n)[:, 1] < 0.15)
        if n == 2:
            assert kept > 20
        assert (masked.sum(axis=-1) < n).all()


def _ref_gamma_search(A, G, delta, target):
    """The per-pair loop the array search replaced, and the number of pairs
    that used all 30 steps."""
    box = BoxConstraint(0.5, 2.0)
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
            ratio = gap * box.hi / (box.lo * delta[i])
            if ratio <= 0.0 or abs(ratio - target[i]) <= 0.05 * target[i]:
                continue
            gamma[i] *= (target[i] / ratio) ** 0.5
            searching.append(i)
        live = searching
    gamma = np.array(gamma)
    gaps = _kernels.row_gram_gap(A, A + gamma[:, None, None] * G).tolist()
    return gamma, np.array([gap * box.hi / (box.lo * dl) for gap, dl in zip(gaps, delta)]), len(live)


def test_array_gamma_search_equals_the_per_pair_loop():
    # Envelope-like pairs stop within a few steps.  Pairs with G close to
    # c A for c < 0 have a gap that is not monotone in gamma, and with a
    # target past its first peak many of them use all 30 steps without
    # landing.  Zero directions stop at once on a zero ratio.  About 20 ms.
    g = generator(derive_seed(0, "gamma-search"))
    exhausted = 0
    for n, d in ((2, 1), (4, 2), (8, 3)):
        A = g.standard_normal((300, n, d))
        G = g.standard_normal((300, n, d))
        G[100:200] = g.uniform(-3.0, 0.0, (100, 1, 1)) * A[100:200] + 0.01 * G[100:200]
        G[200:210] = 0.0
        delta = harness._conditioning(A) + 0.05
        target = np.where(np.arange(300) < 100, 0.1 * (0.1 + 0.9 * g.random(300)), g.uniform(0.01, 50.0, 300))
        gamma, ratio = harness._gamma_search(A, G, delta, target)
        ref_gamma, ref_ratio, ref_exhausted = _ref_gamma_search(A, G, delta, target)
        assert gamma.tobytes() == ref_gamma.tobytes(), (n, d)
        assert ratio.tobytes() == ref_ratio.tobytes(), (n, d)
        exhausted += ref_exhausted
    assert exhausted > 50


# ---------------------------------------------------------------------------
# each instance alone, and the shape decoders
# ---------------------------------------------------------------------------


def _alone_row(seed, label, k, family, attempt=0):
    """Instance k's row (attempt's, for the leverage envelope) filled alone
    from its own generator, as the suites' U and Z: U holds its wu
    uniforms, and Z(idx, m) the first m normals of the rows idx."""
    wu, wn = family[:2]
    V = _ref_stream(seed, label, k, family, attempt).random((1, wu + wn + wn % 2))
    return V[:, :wu], lambda idx, m: _ref_box_muller(V[idx, wu : wu + m + m % 2])[:, :m]


def _alone(seed, label, k, family, evaluate):
    """Instance k decoded and evaluated alone, from its row filled alone:
    its shape, fields and values."""
    _, _, shape, draw = family
    U, Z = _alone_row(seed, label, k, family)
    s = tuple(shape(U, Z)[0].tolist())
    fields = draw(U, Z, np.zeros(1, dtype=np.intp), *s)
    return s, fields, evaluate(*fields)


_SUITE_FAMILIES = [
    ("gap", harness._GAP, harness._logit_gaps),
    ("chain", harness._GAP, harness._chain_gaps),
    ("softmax-env", harness._ENVELOPE, harness._envelope_gaps),
    *((label, family, deviation) for _, label, _, family, deviation in harness._INVARIANCES),
    ("metric", harness._METRIC, harness._metric_distances),
]


@pytest.mark.parametrize("label, family, evaluate", _SUITE_FAMILIES, ids=[row[0] for row in _SUITE_FAMILIES])
def test_each_instance_replays_alone_bitwise(label, family, evaluate):
    # Every instance of a 1,100-instance run, whose second block holds 76,
    # decodes and evaluates alone to bitwise the shape, fields and values
    # it has in its group.  About 0.1 s per family.
    seen = 0
    for idx, s, fields, values in harness._grouped(4, label, range(1100), family, evaluate):
        for j, k in enumerate(idx.tolist()):
            shape, alone_fields, alone_values = _alone(4, label, k, family, evaluate)
            assert shape == s, k
            assert _field_bits([f[j] for f in fields]) == _field_bits([f[0] for f in alone_fields]), k
            assert _field_bits([v[j] for v in values]) == _field_bits([v[0] for v in alone_values]), k
            seen += 1
    assert seen == 1100


def test_each_leverage_envelope_attempt_replays_alone_bitwise():
    # Each index's accepted attempt (k, attempt), found by replaying its
    # attempts alone from a Philox at its counter, gives alone its row of
    # the 1,100-instance run, and its fields, gamma and ratio are bitwise
    # those of the pass that reads every index at its accepted word; some
    # indices are accepted only at a later attempt.  About 0.5 s.
    seed, count = 4, 1100
    _, _, shape, draw = harness._ATTEMPT
    rows = harness._leverage_envelope_rows(seed, count)
    accepted = []
    for k in range(count):
        for attempt in range(50):
            U1, Z1 = _alone_row(seed, "lev-env", k, harness._ATTEMPT, attempt)
            n, d = shape(U1, Z1)[0].tolist()
            fields = draw(U1, Z1, np.zeros(1, dtype=np.intp), n, d)
            values = harness._attempt_gaps(*fields)
            if 0.0 < values[1][0] <= 0.1:
                break
        accepted.append((attempt, fields, values))
        A, G, _, R = fields
        (worst,) = harness._worst_tv(A, G, values[0], R)
        r = values[1][0].item()
        row = BoundReport("leverage_tv_envelope", {"n": n, "d": d, "ratio": r, "seed": k}, 4.0 * r, worst.item())
        assert _row_key(rows[k]) == _row_key(row), k
    words = [attempt for attempt, _, _ in accepted]
    assert sum(a > 0 for a in words) > 5
    seen = 0
    for idx, _, fields, values in harness._grouped(
        seed, "lev-env", range(count), harness._ATTEMPT, harness._attempt_gaps, words
    ):
        for j, k in enumerate(idx.tolist()):
            _, alone_fields, alone_values = accepted[k]
            assert _field_bits([f[j] for f in fields]) == _field_bits([f[0] for f in alone_fields]), k
            assert _field_bits([v[j] for v in values]) == _field_bits([v[0] for v in alone_values]), k
            seen += 1
    assert seen == count


_TOP = 1.0 - 2.0**-53  # the largest uniform numpy draws
_TALL = {(n, d) for d in range(1, 5) for n in range(d + 1, 10)}

# label, family and every shape it may take; a shape's columns are n, d
_SHAPES = [
    ("gap", harness._GAP, {(n,) for n in range(2, 11)}),
    ("softmax-env", harness._ENVELOPE, {(n, d) for n in range(2, 11) for d in range(1, 6)}),
    ("lev-env", harness._ATTEMPT, {(n, d) for d in range(1, 4) for n in range(d + 1, 9)}),
    ("shift", harness._INVARIANCES[0][3], {(n, d) for n in range(2, 9) for d in range(1, 6)}),
    ("right", harness._INVARIANCES[1][3], _TALL),
    ("sign", harness._INVARIANCES[2][3], _TALL),
    ("norm", harness._INVARIANCES[3][3], _TALL),
    ("metric", harness._METRIC, {(n,) for n in range(2, 12)}),
]


def test_shape_decoders_map_the_ends_of_the_unit_interval_to_the_ends_of_their_ranges():
    assert int(9.0 * _TOP) == 8  # (1 - 2^-53) s rounds below s for every integer span s < 2^53
    for lo, hi in ((0, 2), (2, 11), (1, 6), (3, 12)):
        assert harness._uniform_int(np.array([0.0, _TOP]), lo, hi).tolist() == [lo, hi - 1]
    for label, (wu, _, shape, _), shapes in _SHAPES:
        U = np.array([[0.0] * wu, [_TOP] * wu])
        Z = lambda idx, m: np.ones((2, m))[idx]  # noqa: E731
        assert [tuple(s) for s in shape(U, Z).tolist()] == [min(shapes), max(shapes)], label


def test_every_shape_of_each_family_appears_in_a_thousand_instances():
    # At seed 0; the leverage envelope's shapes are those of first attempts.
    for label, family, shapes in _SHAPES:
        if family is harness._ATTEMPT:
            U = np.vstack([_alone_row(0, label, k, family)[0] for k in range(1000)])
            seen = set(map(tuple, family[2](U, None).tolist()))
        else:
            seen = {s for _, s, _, _ in harness._grouped(0, label, range(1000), family, lambda *fields: ())}
        assert seen == shapes, label


# ---------------------------------------------------------------------------
# NaN and violation counts in the suites' verdicts
# ---------------------------------------------------------------------------


def _nan_in_first_of_each_group(deviation):
    """deviation, with the first instance of each stack it evaluates set to
    NaN; ``patched.stacks`` counts the stacks."""

    def patched(*stacks):
        (dev,) = deviation(*stacks)
        dev[0] = math.nan
        patched.stacks += 1
        return (dev,)

    patched.stacks = 0
    return patched


def _patched_invariance(monkeypatch, name, wrap):
    """Replace the deviation of invariance ``name`` by ``wrap`` of it;
    returns the replacement."""
    table, patched = [], None
    for prop, label, tol, draw, deviation in harness._INVARIANCES:
        if prop == name:
            deviation = patched = wrap(deviation)
        table.append((prop, label, tol, draw, deviation))
    monkeypatch.setattr(harness, "_INVARIANCES", tuple(table))
    return patched


def test_a_nan_deviation_is_a_violation_and_the_maximum(monkeypatch):
    # One NaN per shape group: Python's max(x, nan) keeps x, so a running
    # max would drop every one of them and report the finite maximum.
    patched = _patched_invariance(monkeypatch, "shift_invariance", _nan_in_first_of_each_group)
    rep = run_invariance_suite(200, 0)
    prop = rep.by_name("shift_invariance")
    assert math.isnan(prop.max_deviation)
    assert prop.violations == patched.stacks > 1
    assert not prop.ok and not rep.all_ok
    assert all(p.ok for p in rep.properties if p.name != "shift_invariance")


def test_violations_count_the_instances_past_the_tolerance(monkeypatch):
    # Two instances of the first stack deviate by 1; the others stay exact.
    def two_violators(deviation):
        def patched(*stacks):
            (dev,) = deviation(*stacks)
            if patched.first:
                dev[:2] += 1.0
                patched.first = False
            return (dev,)

        patched.first = True
        return patched

    _patched_invariance(monkeypatch, "sign_invariance", two_violators)
    prop = run_invariance_suite(100, 0).by_name("sign_invariance")
    assert prop.violations == 2 and type(prop.violations) is int
    assert prop.ok is False
    assert 1.0 <= prop.max_deviation < 1.0 + 1e-12


def test_a_nan_distance_breaks_every_metric_test_that_reads_it(monkeypatch):
    # Instance 0's ten distances are NaN: it breaks the sandwich, both
    # triangle inequalities, symmetry and identity, and its identity
    # distances are the largest.
    real = harness._metric_distances

    def patched(*draws):
        distances = real(*draws)
        if patched.first:
            for d in distances:
                d[0] = math.nan
            patched.first = False
        return distances

    patched.first = True
    monkeypatch.setattr(harness, "_metric_distances", patched)
    rep = run_invariance_suite(100, 0)
    names = ("sandwich", "triangle", "symmetry", "identity")
    assert [rep.by_name(f"metric_{p}").violations for p in names] == [1, 2, 1, 1]
    assert math.isnan(rep.by_name("metric_sandwich").max_deviation)
    assert math.isnan(rep.by_name("metric_triangle").max_deviation)
    assert not rep.all_ok


def test_a_nan_identity_distance_fails_verify(monkeypatch, capsys):
    # Only H^2(P, P) of instance 0 is NaN: the identity property counts it,
    # reports the NaN as its largest identity distance, and verify fails.
    real = harness._metric_distances

    def patched(*fields):
        distances = real(*fields)
        if patched.first:
            distances[2][0] = math.nan  # h2_pp
            patched.first = False
        return distances

    patched.first = True
    monkeypatch.setattr(harness, "_metric_distances", patched)
    rep = run_invariance_suite(100, 0)
    identity = rep.by_name("metric_identity")
    assert (identity.violations, identity.ok, rep.all_ok) == (1, False, False)
    assert math.isnan(identity.max_deviation)
    assert all(p.ok for p in rep.properties if p.name != "metric_identity")
    patched.first = True
    assert cli.main(["verify", "--suite", "invariances", "--instances", "100"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "invariances: metric_identity max_deviation=nan violations=1 ok=0" in out
    assert out[-1] == "verdict: FAIL"


def test_a_nan_triangle_side_is_a_violation(monkeypatch):
    # Only TV(P, R) of instance 0 is NaN: `tv_pr > bound` reads False on it.
    real = harness._metric_distances

    def patched(*draws):
        distances = real(*draws)
        if patched.first:
            distances[8][0] = math.nan  # tv_pr
            patched.first = False
        return distances

    patched.first = True
    monkeypatch.setattr(harness, "_metric_distances", patched)
    rep = run_invariance_suite(100, 0)
    assert rep.by_name("metric_triangle").violations == 1
    assert rep.by_name("metric_sandwich").ok and rep.by_name("metric_symmetry").ok


@pytest.mark.parametrize("where", [0, -1])
def test_a_nan_envelope_ratio_is_the_max_ratio(monkeypatch, where):
    # max([nan, 1.0]) is nan but max([1.0, nan]) is 1.0: a NaN observed
    # value must be the family's max ratio whether its row is the family's
    # first (instance 0, first of the first stack) or a later one (the last
    # of that stack).
    clean = run_bound_suite(60, 0)
    real = harness._envelope_gaps

    def patched(*fields):
        h2, t = real(*fields)
        if patched.first:
            assert len(h2) > 1
            h2[where] = math.nan
            patched.first = False
        return h2, t

    patched.first = True
    monkeypatch.setattr(harness, "_envelope_gaps", patched)
    res = run_bound_suite(60, 0)
    assert math.isnan(res.max_ratios["softmax_query_h2"])
    assert [r.bound_name for r in res.rows if not r.satisfied] == ["softmax_query_h2"]
    assert res.strict_violations == clean.strict_violations == 0
    assert res.max_ratios["leverage_tv_envelope"] == clean.max_ratios["leverage_tv_envelope"]


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
    res = run_bound_suite(5, 0)
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
    rep = run_invariance_suite(10, 0)
    path = tmp_path / "inv.csv"
    write_invariance_csv(path, rep)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "property,instances,max_deviation,violations,ok"
    assert lines[-1] == "# all_ok 1"
    assert len(lines) == 1 + 8 + 1
