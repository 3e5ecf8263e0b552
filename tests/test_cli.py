"""End-to-end checks of the command-line interface via subprocesses."""

import argparse
import json
import math
import subprocess
import sys

import pytest

from softlev import cli
from softlev.harness import fmt17, gaussian_instance


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "softlev.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def _spec_file(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _uniform_softmax_spec(tmp_path):
    doc = {"family": "softmax", "A": [[0.0], [0.0], [0.0]], "constraint": {"E": 1.0}}
    return _spec_file(tmp_path, doc)


# ---------------------------------------------------------------------------
# pmf
# ---------------------------------------------------------------------------


def test_pmf_uniform_softmax(tmp_path):
    res = run_cli("pmf", _uniform_softmax_spec(tmp_path), "--query", "0")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["0.33333333333333331"] * 3


def test_pmf_identity_leverage(tmp_path):
    doc = {"family": "leverage", "A": [[1.0, 0.0], [0.0, 1.0]], "constraint": {"c": 0.5, "C": 2.0}}
    res = run_cli("pmf", _spec_file(tmp_path, doc), "--query", "1,1")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["0.5", "0.5"]


def test_pmf_rejects_energy_violation(tmp_path):
    res = run_cli("pmf", _uniform_softmax_spec(tmp_path), "--query", "5")
    assert res.returncode == 2
    assert "energy" in res.stderr


def test_missing_spec_file_is_a_usage_error(tmp_path):
    res = run_cli("pmf", str(tmp_path / "absent.json"), "--query", "0")
    assert res.returncode == 2
    assert "cannot read" in res.stderr


def test_spec_integers_beyond_the_float_range_are_input_errors(tmp_path):
    huge = 10**400
    for doc, where in (
        ({"family": "softmax", "A": [[huge]], "constraint": {"E": 1.0}}, "field 'A' entry [0][0]"),
        ({"family": "softmax", "A": [[0.0]], "constraint": {"E": huge}}, "constraint field 'E'"),
    ):
        res = run_cli("pmf", _spec_file(tmp_path, doc), "--query", "0")
        assert res.returncode == 2
        assert where in res.stderr and "Traceback" not in res.stderr
        assert res.stdout == ""


@pytest.mark.parametrize("limit", [-1, True, "1", math.inf], ids=["negative", "bool", "string", "Infinity"])
def test_a_bad_energy_limit_names_its_location_once(tmp_path, capsys, limit):
    doc = {"family": "softmax", "A": [[1.0, 2.0], [3.0, 4.0]], "constraint": {"E": limit}}
    path = _spec_file(tmp_path, doc, "neg_E.json")
    assert cli.main(["pmf", path, "--query", "0.1,0.2"]) == 2
    assert capsys.readouterr().err == f"error: {path}: constraint field 'E' must be a positive number\n"


def test_a_derived_matrix_that_overflows_is_named(tmp_path, capsys):
    # A and M are finite, but A + M overflows in its first entry; without a
    # B, every pairwise command forms it
    doc = {"family": "softmax", "A": [[1e308, 2.0], [3.0, 4.0]], "constraint": {"E": 1.0}}
    path = _spec_file(tmp_path, dict(doc, M=[[1e308, 1.0], [1.0, 1.0]]))
    res = run_cli("distance", path, "--query", "0.1,0.2")  # stderr would carry numpy's overflow warning
    assert (res.returncode, res.stdout, res.stderr) == (2, "", f"error: {path}: A + M has non-finite entries\n")
    for argv in (["optimize", path], ["test", path, "--m", "5", "--trials", "10"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: A + M has non-finite entries\n"
    # likewise B - A, the direction that the variance ascent follows
    path = _spec_file(tmp_path, dict(doc, B=[[-1e308, 2.0], [3.0, 4.0]]))
    assert cli.main(["optimize", path, "--objective", "variance"]) == 2
    assert capsys.readouterr().err == f"error: {path}: B - A has non-finite entries\n"


def test_a_sweep_names_the_grid_point_whose_pair_overflows(tmp_path, capsys):
    # A + eps M overflows at eps = 1e240 only; the eps = 1 row still lands
    doc = {
        "family": "softmax",
        "A": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
        "M": [[1e70, 0.0], [0.0, 1e70], [1e70, -1e70]],
        "constraint": {"E": 1.0},
    }
    path = _spec_file(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", path, "--grid", "1e240,1", "--trials", "20", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: grid point 0 (eps = 1e+240): A + eps M has non-finite entries\n"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines[1:] if not line.startswith("#")] == ["1"]
    assert "# rows_used 1" in lines


def test_a_scaled_matrix_whose_squares_overflow_gets_its_pmf(tmp_path):
    # diag(s)^-1 A has entries near 4.5e161, whose squares overflow
    doc = {"family": "leverage", "A": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "constraint": {"c": 5e-324, "C": 2.0}}
    path = _spec_file(tmp_path, doc)
    res = run_cli("pmf", path, "--query", ",".join(["2.2227587494850775e-162"] * 3))
    assert (res.returncode, res.stderr) == (0, "")
    unscaled = run_cli("pmf", path, "--query", "1,1,1").stdout.splitlines()
    assert [float(p) for p in res.stdout.splitlines()] == pytest.approx([float(p) for p in unscaled], rel=1e-12)
    # a row of 1e200 beside rows of 1 is deficient under the relative rank
    # rule, as 1e13 is; the verdict comes without numpy's overflow warning
    for top in (1e13, 1e200):
        path = _spec_file(tmp_path, dict(doc, A=[[top, 0.0], [0.0, 1.0], [1.0, 1.0]], constraint={"c": 0.5, "C": 2.0}))
        res = run_cli("pmf", path, "--query", "1,1,1")
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == "error: scaled matrix diag(s)^{-1} A is numerically rank-deficient\n"


_ROWS = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
_ROWS_DIRECTION = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]


def test_a_scaled_matrix_that_overflows_is_named_not_called_deficient(tmp_path, capsys):
    # 1e300 over s_1 = 1e-10 is past the float range.  One line and exit 2;
    # a numpy warning that leaked would raise here.
    A = [[1e300, 0.0], [0.0, 1.0], [1.0, 1.0]]
    doc = {"family": "leverage", "A": A, "M": _ROWS_DIRECTION, "constraint": {"c": 1e-20, "C": 2.0}}
    path = _spec_file(tmp_path, doc)
    for command in ("pmf", "distance"):
        assert cli.main([command, path, "--query", "1e-10,1,1"]) == 2
        assert capsys.readouterr() == ("", "error: scaled matrix diag(s)^{-1} A has non-finite entries\n")
    # likewise M over s, which the taylor check forms at its query
    doc = {"family": "leverage", "A": _ROWS, "M": A, "constraint": {"c": 1e-20, "C": 1e-20}}
    path = _spec_file(tmp_path, doc)
    assert cli.main(["verify", path, "--suite", "taylor"]) == 2
    message = "taylor: scaled direction diag(s)^{-1} M has non-finite entries"
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "A, c",
    [
        ([[1e300, 0.0], [0.0, 1.0], [1.0, 1.0]], 1e-20),  # max|A| / sqrt(c) overflows
        (_ROWS, 5e-324),  # 1/c overflows
        (_ROWS, 1e-308),  # d/c overflows, though 1/c does not
    ],
    ids=["A-over-sqrt-c", "one-over-c", "d-over-c"],
)
def test_a_box_too_small_for_the_ascent_is_one_located_line(tmp_path, capsys, A, c):
    # The box is refused before any kernel runs.  One line and exit 2; a
    # numpy warning that leaked would raise here.
    doc = {"family": "leverage", "A": A, "M": _ROWS_DIRECTION, "constraint": {"c": c, "C": 2.0}}
    path = _spec_file(tmp_path, doc)
    message = f"box bound c = {c!r} is too small for A: d/c or max|A| / sqrt(c) overflows"
    for argv, phase in (
        (["optimize", path], ""),
        (["optimize", path, "--objective", "variance"], ""),
        (["test", path, "--m", "5", "--trials", "10"], ""),
        (["sweep", path, "--trials", "10", "--out", str(tmp_path / "sweep.csv")], "nu: "),
    ):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {phase}{message}\n")


@pytest.mark.parametrize(
    "M, argv, phase",
    [
        ([[6e307, 0.0], [0.0, 6e307], [1e307, 0.0]], ["optimize", "--objective", "variance"], ""),
        ([[6e307, 0.0], [0.0, 6e307], [1e307, 0.0]], ["sweep", "--trials", "20"], "nu: "),
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], ["optimize"], ""),
    ],
    ids=["variance", "sweep-nu", "hellinger"],
)
def test_an_objective_whose_factors_overflow_is_one_located_line(tmp_path, capsys, M, argv, phase):
    # The box admits A, but sqrt(1/c) A has columns whose norms pass the
    # float range, so the QR of the scaled matrix is not finite at the
    # corner u = 1/c.  That row fails as not finite, not as a vanished
    # leverage score or a rank deficiency.  One line and exit 2; a numpy
    # warning that leaked would raise here.
    A = [[6e307, 0.0], [0.0, 6e307], [6e307, 6e307]]
    path = _spec_file(tmp_path, {"family": "leverage", "A": A, "M": M, "constraint": {"c": 0.25, "C": 2.0}})
    command, *rest = argv
    if command == "sweep":
        rest += ["--out", str(tmp_path / "sweep.csv")]
    assert cli.main([command, path, *rest]) == 2
    message = "the objective is not finite; the matrix entries are too big"
    assert capsys.readouterr() == ("", f"error: {path}: {phase}{message}\n")


def test_malformed_spec_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ bad", encoding="utf-8")
    res = run_cli("pmf", str(path), "--query", "0")
    assert res.returncode == 2
    assert ":1:3:" in res.stderr


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_identical_pair_is_exactly_zero(tmp_path):
    doc = {
        "family": "softmax",
        "A": [[0.5], [1.0]],
        "B": [[0.5], [1.0]],
        "constraint": {"E": 1.0},
    }
    res = run_cli("distance", _spec_file(tmp_path, doc), "--query", "1")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["tv=0", "h2=0"]


def test_distance_requires_a_query(tmp_path):
    res = run_cli("distance", _uniform_softmax_spec(tmp_path))
    assert res.returncode == 2
    assert "needs --query" in res.stderr


def test_distance_extremal_pair_attains_both_bounds():
    res = run_cli("distance", "--lemma-a1", "--eps", "0.1", "--n", "6", "--m", "2")
    assert res.returncode == 0
    vals = dict(line.split("=") for line in res.stdout.splitlines())
    assert abs(float(vals["tv"]) - float(vals["tv_bound"])) <= 1e-10
    assert abs(float(vals["h2"]) - float(vals["h2_bound"])) <= 1e-10


def test_distance_lemma_bound_past_the_overflow_of_e_to_the_eps_over_2():
    # from eps of about 1419.6, expm1(eps/4)^2 and exp(eps/2) overflow
    res = run_cli("distance", "--lemma-a1", "--eps", "1500", "--n", "3", "--m", "1")
    assert (res.returncode, res.stderr) == (0, "")
    assert "h2_bound=1" in res.stdout.splitlines()


def test_distance_lemma_mode_requires_parameters():
    res = run_cli("distance", "--lemma-a1")
    assert res.returncode == 2
    assert "needs --eps" in res.stderr
    # each mode refuses the other's options rather than ignoring them
    lemma = ("--lemma-a1", "--eps", "1", "--n", "3", "--m", "1")
    for argv in (
        ("demo-softmax", *lemma),
        (*lemma, "--query", "0.5,-0.25,0.5"),
        ("demo-softmax", "--query", "0.5,-0.25,0.5", "--eps", "1"),
        ("demo-leverage", "--query", "1,1,1,1,1,1", "--n", "3", "--m", "1"),
    ):
        res = run_cli("distance", *argv)
        assert (res.returncode, res.stdout) == (2, ""), argv
        assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: "), argv


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_prints_one_csv_line():
    res = run_cli("optimize", "demo-softmax", "--restarts", "4", "--max-iters", "200", "--seed", "0")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 1
    cells = lines[0].split(",")
    # value, iterations, restarts, converged, then the 3-dim argmax
    assert len(cells) == 4 + 3
    assert float(cells[0]) > 0.0
    assert int(cells[1]) >= 1
    assert cells[2] == "4"
    assert cells[3] in ("0", "1")


def test_optimize_variance_objective():
    res = run_cli("optimize", "demo-softmax", "--objective", "variance", "--restarts", "4", "--seed", "0")
    assert res.returncode == 0
    assert float(res.stdout.split(",")[0]) > 0.0


def test_optimize_rejects_wide_leverage_spec(tmp_path):
    doc = {"family": "leverage", "A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "constraint": {"c": 0.5, "C": 2.0}}
    res = run_cli("optimize", _spec_file(tmp_path, doc))
    assert res.returncode == 2
    assert "field 'A': a leverage model needs n >= d, got 2 x 3" in res.stderr


def test_optimize_rejects_an_energy_limit_whose_square_overflows(tmp_path):
    doc = {"family": "softmax", "A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.5], [0.0, 1.0]], "constraint": {"E": 1e200}}
    res = run_cli("optimize", _spec_file(tmp_path, doc))
    assert res.returncode == 2
    assert "constraint field 'E'" in res.stderr and "finite square" in res.stderr
    assert res.stdout == ""
    doc["constraint"]["E"] = 1e150
    res = run_cli("optimize", _spec_file(tmp_path, doc))
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    value, *_, x0, x1 = (float(v) for v in res.stdout.split(","))
    assert value > 0.0 and math.hypot(x0, x1) > 1e149


def test_optimize_fails_where_the_ball_objective_overflows(tmp_path):
    # the first start lies along M's top row, whose squared norm overflows;
    # the squared deviations of M x overflow there, so the variance is nan
    doc = {
        "family": "softmax",
        "A": [[1.7e308, 0.0], [0.0, 1.0]],
        "M": [[1e308, 0.0], [0.0, 1.0]],
        "constraint": {"E": 1.0},
    }
    path = _spec_file(tmp_path, doc)
    res = run_cli("optimize", path, "--objective", "variance")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: {path}: the objective is not finite; the matrix entries are too big\n"


def test_optimize_forms_a_hellinger_gap_that_overflows_without_a_warning(tmp_path):
    # A - B is inf in its first entry; the first start aims along that row
    doc = {
        "family": "softmax",
        "A": [[1.7e308, 0.0], [0.0, 1.0]],
        "B": [[-1.7e308, 0.0], [0.0, 1.0]],
        "constraint": {"E": 1.0},
    }
    res = run_cli("optimize", _spec_file(tmp_path, doc))
    assert (res.returncode, res.stdout, res.stderr) == (0, "1,32,32,1,1,0\n", "")


def test_an_optimizer_error_names_the_spec_and_the_phase(tmp_path, capsys):
    # the nu ascent is the first to meet the overflowing variance
    doc = {
        "family": "softmax",
        "A": [[1.7e308, 0.0], [0.0, 1.0]],
        "M": [[1e308, 0.0], [0.0, 1.0]],
        "constraint": {"E": 1.0},
    }
    path = _spec_file(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", path, "--trials", "10", "--out", str(out)]) == 2
    message = "the objective is not finite; the matrix entries are too big"
    assert capsys.readouterr().err == f"error: {path}: nu: {message}\n"
    # A + 0.2 M has a zero second column, so grid point 0's corner check
    # fails; nu and the other points are well posed, and their rows land
    doc = {
        "family": "leverage",
        "A": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]],
        "M": [[0.0, 0.0], [0.0, -5.0], [0.0, -5.0], [1.0, 5.0]],
        "constraint": {"c": 0.5, "C": 2.0},
    }
    path = _spec_file(tmp_path, doc)
    assert cli.main(["sweep", path, "--trials", "10", "--out", str(out)]) == 2
    message = "scaled matrix became numerically rank-deficient"
    assert capsys.readouterr().err == f"error: {path}: grid point 0 (eps = 0.2): {message}\n"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines[1:] if not line.startswith("#")] == ["0.10000000000000001", "0.050000000000000003"]
    # the pair A, A + 0.2 M alone: optimize and test name only the spec
    del doc["M"]
    path = _spec_file(tmp_path, dict(doc, B=[[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.2, 0.0]]))
    for argv in (["optimize", path], ["test", path, "--m", "5", "--trials", "10"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_repeat_invocations_are_byte_identical():
    args = ("optimize", "demo-leverage", "--restarts", "4", "--seed", "1")
    assert run_cli(*args).stdout == run_cli(*args).stdout


# ---------------------------------------------------------------------------
# test (likelihood-ratio experiment)
# ---------------------------------------------------------------------------


def _separated_pair_spec(tmp_path):
    doc = {
        "family": "softmax",
        "A": [[0.0], [0.0]],
        "B": [[2.0], [0.0]],
        "constraint": {"E": 1.0},
        "seed": 5,
    }
    return _spec_file(tmp_path, doc)


def test_lrt_success_and_require_gate(tmp_path):
    spec = _separated_pair_spec(tmp_path)
    base = ("test", spec, "--m", "40", "--trials", "50", "--seed", "5")
    res = run_cli(*base)
    assert res.returncode == 0
    assert res.stdout.startswith("success=")
    success = float(res.stdout.split("=")[1])
    assert success >= 0.9
    assert run_cli(*base).stdout == res.stdout  # seeded, hence repeatable
    below = run_cli(*base, "--require", str(success - 0.01))
    assert below.returncode == 0
    assert run_cli(*base, "--require", str(success)).returncode == 0  # the gate is success < require
    # --m 10 leaves room for a --require above its success
    few = ("test", spec, "--m", "10", "--trials", "50", "--seed", "5")
    low = float(run_cli(*few).stdout.split("=")[1])
    assert low <= 0.99
    above = run_cli(*few, "--require", str(low + 0.01))
    assert above.returncode == 1


@pytest.mark.parametrize("m, code", [("9223372036854775807", 0), ("9223372036854775808", 2)])
def test_test_takes_m_up_to_the_int64_limit(capsys, m, code):
    # numpy's multinomial takes m up to 2^63 - 1; above it, one error line
    assert cli.main(["test", "demo-softmax", "--m", m, "--trials", "2"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert (out, err) == ("success=1\n", "")
    else:
        assert (out, err) == ("", f"error: m must be at most 2^63 - 1, got {m}\n")


@pytest.mark.parametrize("require", ["nan", "1.5", "-1", "inf"])
def test_test_rejects_a_require_outside_the_unit_interval(capsys, require):
    assert cli.main(["test", "demo-softmax", "--m", "20", "--require", require]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: --require ") and require.lstrip("-") in err


def test_test_prints_the_reference_success_on_both_demos(capsys):
    from test_hypotest import _demo, _ref_estimate_success

    for family in ("softmax", "leverage"):
        model = _demo(family)
        for m in (1, 20, 200):
            for seed in (0, 1):
                assert cli.main(["test", f"demo-{family}", "--m", str(m), "--seed", str(seed)]) == 0
                want = _ref_estimate_success(model, m, 400, seed)
                assert capsys.readouterr().out == f"success={fmt17(want)}\n", (family, m, seed)


def test_lrt_identical_pair_exits_1(tmp_path):
    doc = {
        "family": "softmax",
        "A": [[0.0], [1.0]],
        "B": [[0.0], [1.0]],
        "constraint": {"E": 1.0},
    }
    res = run_cli("test", _spec_file(tmp_path, doc), "--m", "10", "--trials", "20")
    assert res.returncode == 1
    assert "indistinguishable" in res.stderr


def test_test_refuses_a_query_where_the_laws_coincide(capsys):
    # x = 0 gives both models of demo-softmax the uniform law, so no m
    # separates them there, as the m* search already refuses
    assert cli.main(["test", "demo-softmax", "--m", "5", "--query", "0,0,0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: indistinguishable models: models coincide at the given query (H^2 = 0.000e+00); no test can separate them\n"


def test_box_violation_prints_plain_floats():
    res = run_cli("test", "demo-leverage", "--m", "5", "--query", "0,1,1,1,1,1")
    assert res.returncode == 2
    assert "s_i^2 range [0.0, 1.0]" in res.stderr
    assert "np.float64" not in res.stderr


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_spec_file(tmp_path):
    model = gaussian_instance("softmax", 4, 2, seed=1)
    doc = {
        "family": "softmax",
        "A": model.A.tolist(),
        "M": model.M.tolist(),
        "constraint": {"E": 1.0},
        "seed": 9,
    }
    return _spec_file(tmp_path, doc, "sweep-model.json")


def _run_sweep_cli(spec, out, threads):
    return run_cli(
        "sweep",
        spec,
        "--out",
        out,
        "--grid",
        "0.3,0.15",
        "--trials",
        "60",
        "--restarts",
        "8",
        "--threads",
        str(threads),
    )


def test_sweep_writes_csv_and_summary(tmp_path):
    spec = _sweep_spec_file(tmp_path)
    out = tmp_path / "sweep.csv"
    res = _run_sweep_cli(spec, str(out), threads=2)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == f"wrote {out}"
    assert lines[1] == "rows=2"
    assert lines[2].startswith("slope=-")
    assert lines[3].startswith("nu=")
    content = out.read_text(encoding="utf-8").splitlines()
    assert content[0] == "eps,h2_at_opt,nu,m_star,success_at_m,seed"
    assert len(content) == 6


def test_sweep_runs_on_one_thread_by_default():
    args = cli._build_parser().parse_args(["sweep", "demo-softmax", "--out", "sweep.csv"])
    assert args.threads == 1


def test_sweep_output_does_not_depend_on_thread_count(tmp_path):
    spec = _sweep_spec_file(tmp_path)
    out1, out3 = tmp_path / "t1.csv", tmp_path / "t3.csv"
    res1 = _run_sweep_cli(spec, str(out1), threads=1)
    res3 = _run_sweep_cli(spec, str(out3), threads=3)
    assert res1.returncode == 0 and res3.returncode == 0
    assert out1.read_bytes() == out3.read_bytes()
    # summaries agree apart from the path they wrote
    assert res1.stdout.splitlines()[1:] == res3.stdout.splitlines()[1:]


@pytest.mark.parametrize("grid", ["0.2,nan", "inf,0.1"])
def test_sweep_rejects_non_finite_grid_before_running(tmp_path, capsys, grid):
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "demo-softmax", "--grid", grid, "--out", str(out)]) == 2
    assert "eps grid" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_bounds_suite_passes():
    res = run_cli("verify", "--suite", "bounds", "--instances", "40")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "strict_violations=0" in lines[0]
    assert lines[-1] == "verdict: PASS"


@pytest.mark.usefixtures("halved_lemma_bounds")
def test_verify_detects_corrupted_bounds(capsys):
    # In-process, so that the fixture's corrupted bounds reach the suite.
    assert cli.main(["verify", "--suite", "bounds", "--instances", "40"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert int(lines[0].split("strict_violations=")[1]) > 0
    assert "bounds: all_tight=0 monotone_ok=1" in lines
    assert lines[-1] == "verdict: FAIL"


@pytest.mark.parametrize("suite", ["bounds", "invariances", "all"])
@pytest.mark.parametrize("instances", ["0", "-3"])
def test_verify_needs_at_least_one_instance(capsys, suite, instances):
    assert cli.main(["verify", "--suite", suite, "--instances", instances]) == 2
    captured = capsys.readouterr()
    assert "instances" in captured.err
    assert captured.out == ""


def test_verify_invariances_suite_passes():
    res = run_cli("verify", "--suite", "invariances", "--instances", "25")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len([ln for ln in lines if ln.startswith("invariances: ")]) == 8
    assert all("ok=1" in ln for ln in lines if ln.startswith("invariances: "))
    assert lines[-1] == "verdict: PASS"


def test_verify_taylor_reports_flags_for_both_demos():
    res = run_cli("verify", "--suite", "taylor")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    soft = next(ln for ln in lines if ln.startswith("taylor[softmax]"))
    lev = next(ln for ln in lines if ln.startswith("taylor[leverage]"))
    # the half-normalized ratio sits in its band around the proven 1/4
    assert "band_ok=1" in soft and "converging_half" not in soft
    assert "converging_eighth=1" in soft and "zratio_ok=1" in soft
    assert "band_ok=1" in lev and "converging_eighth=1" in lev and "derivative_ok=1" in lev
    assert lines[-1] == "verdict: PASS"


@pytest.mark.parametrize(
    "a, m, message",
    [
        # the squared deviations of M x overflow, so Var_P(Mx) is nan
        (1.7e308, 1e308, "taylor: Var_P(Mx) is not finite; the matrix entries are too big"),
        # Var_P(Mx) is finite, but exp(1e-4 M x) overflows
        (0.0, 1e100, "taylor: Z_{A+eps M} / Z_A is not finite; the matrix entries are too big"),
        # Var_P(Mx) is about 1e-320, so (1/8) eps^2 Var underflows to 0
        (0.0, 1e-160, "taylor: (1/8) eps^2 Var_P(Mx) is 0 at eps = 0.01; the direction is too small"),
    ],
    ids=["variance-overflows", "z-ratio-overflows", "variance-underflows"],
)
def test_verify_taylor_names_a_softmax_figure_out_of_range(tmp_path, capsys, a, m, message):
    # one located line and exit 2; a numpy warning that leaked would raise here
    doc = {"family": "softmax", "A": [[a, 0.0], [0.0, 1.0]], "M": [[m, 0.0], [0.0, 0.0]], "constraint": {"E": 1.0}}
    path = _spec_file(tmp_path, doc)
    assert cli.main(["verify", path, "--suite", "taylor"]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_verify_taylor_names_the_spec_of_a_leverage_error(tmp_path, capsys):
    # A + 1e-4 M keeps a 1e300 row beside O(1) ones, so its scaled matrix is
    # rank-deficient in floating point
    doc = {
        "family": "leverage",
        "A": [[1e300, 0.0], [0.0, 1.0], [1.0, 1.0]],
        "M": [[1e200, 0.0], [0.0, 1e-300], [1.0, -1.0]],
        "constraint": {"c": 0.5, "C": 2.0},
    }
    path = _spec_file(tmp_path, doc)
    assert cli.main(["verify", path, "--suite", "taylor"]) == 2
    message = "taylor: scaled matrix diag(s)^{-1} A is numerically rank-deficient"
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "a, m",
    [
        # W_ii is of order 1e308, so the score 2 W_ii / lev_i overflows
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[1e308, 0.0], [0.0, 1e308], [1e308, -1e308]]),
        # the zero row of A has lev_i = W_ii = 0, so its score is 0 / 0
        ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]], [[1.0, 2.0], [3.0, 1.0], [1.0, -1.0], [2.0, 2.0]]),
    ],
    ids=["w-squared-overflows", "zero-leverage-row"],
)
def test_verify_taylor_names_a_leverage_coefficient_out_of_range(tmp_path, capsys, a, m):
    # one located line and exit 2; a numpy warning that leaked would raise here
    doc = {"family": "leverage", "A": a, "M": m, "constraint": {"c": 0.5, "C": 2.0}}
    path = _spec_file(tmp_path, doc)
    assert cli.main(["verify", path, "--suite", "taylor"]) == 2
    message = "taylor: Var_P(2 W_ii / lev_i) is not finite; a leverage score is 0 or an entry too big"
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_verify_writes_suite_csvs(tmp_path):
    out = tmp_path / "report.csv"
    res = run_cli("verify", "--suite", "invariances", "--instances", "10", "--out", str(out))
    assert res.returncode == 0
    assert out.read_text(encoding="utf-8").splitlines()[-1] == "# all_ok 1"


# ---------------------------------------------------------------------------
# usage plumbing
# ---------------------------------------------------------------------------


def test_unknown_flag_is_a_usage_error():
    res = run_cli("pmf", "demo-softmax", "--nope")
    assert res.returncode == 2


def test_help_exits_cleanly():
    res = run_cli("--help")
    assert res.returncode == 0
    assert "pmf" in res.stdout and "verify" in res.stdout


def test_one_parser_serves_a_whole_process(capsys):
    # The parser is built once per process; every call in that process,
    # argparse's own refusal included, prints and exits as a fresh one does.
    runs = [
        ["pmf", "demo-softmax", "--query", "0.6,0,0.8"],
        ["sweep", "demo-softmax"],  # no --out: argparse exits 2
        ["optimize", "demo-softmax", "--seed", "3"],
        ["optimize", "demo-softmax"],  # the spec's seed
        ["verify", "--suite", "taylor"],
    ]
    seen = []
    for argv in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        seen.append((code, *capsys.readouterr()))
        fresh = run_cli(*argv)
        assert seen[-1] == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert seen[1][0] == 2 and seen[1][2].startswith("usage: softlev sweep")
    assert cli.main(["optimize", "demo-softmax", "--seed", "4"]) == 0  # demo-softmax's seed is 4
    assert capsys.readouterr().out == seen[3][1] != seen[2][1]


def test_two_calls_build_the_parser_once(monkeypatch, capsys):
    # Counts, not timings: building the parser costs a call about 1.5 ms.
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    for _ in range(2):
        assert cli.main(["pmf", "demo-softmax", "--query", "0.6,0,0.8"]) == 0
    assert capsys.readouterr().out.count("\n") == 10
    assert built.count("softlev") == 1
