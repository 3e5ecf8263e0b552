"""Multi-start ascent over the energy ball and the scale box.

Grid oracles: for d = 1 both leverage objectives collapse to closed forms in
u = s^{-2} (pmf_i = a_i^2 u_i / sum_k a_k^2 u_k, response ratio
w_i = m_i/a_i - tau/g), so a dense grid over the box is cheap and
independent of the ascent code.

Loop oracle: the restart-by-restart ascent that the lockstep ascent
replaced, one point per objective call, kept here to check that lockstep
returns bitwise the same result and raises the same error.  Its gradient at
each iterate comes from an objective call at that point alone, where
lockstep keeps the gradient row of the call that evaluated the point.

Gradient oracle: the central differences that the closed-form gradients
replaced, one stacked call of 2 * dim probes per point, and beside them the
probe-by-probe loop that the stacked call replaced.

Problem oracle: several problems with one A ascend as one lockstep run;
each must get bitwise the result, or the error, of its own ``max_*`` call.
"""

import importlib.resources as ir
import inspect
import itertools
import json
import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softlev import _kernels, cli, harness, optimize
from softlev.distributions import hellinger_sq, variance_under
from softlev.errors import DomainError, RankDeficient, ShapeMismatch, ZeroLeverage
from softlev.harness import ExperimentSpec, load_model_spec, padded_identity_instance
from softlev.leverage import BoxConstraint, leverage_pmf, leverage_w
from softlev.optimize import (
    _MAX_ELEMENTS,
    _MIN_STEP,
    STEP_INIT,
    TOL,
    OptimizerConfig,
    OptResult,
    _Ball,
    _Box,
    _first_error,
    _maximize_each,
    max_hellinger_leverage,
    max_hellinger_leverage_each,
    max_hellinger_softmax,
    max_hellinger_softmax_each,
    max_variance_leverage,
    max_variance_softmax,
)
from softlev.rng import derive_seed, generator
from softlev.softmax import EnergyConstraint, softmax_pmf

BALL = EnergyConstraint(1.0)
BOX = BoxConstraint(0.5, 2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)


# ---------------------------------------------------------------------------
# softmax objectives
# ---------------------------------------------------------------------------


def test_softmax_hellinger_matches_dense_grid():
    A = np.array([[0.0], [0.0]])
    B = np.array([[0.1], [0.0]])
    xs = np.linspace(-1.0, 1.0, 100_001)
    # P is uniform for every x; Q = softmax((0.1 x, 0))
    q1 = 1.0 / (1.0 + np.exp(-0.1 * xs))
    h2 = 1.0 - (np.sqrt(0.5 * q1) + np.sqrt(0.5 * (1.0 - q1)))
    grid_best = float(np.sqrt(h2.max()))
    res = max_hellinger_softmax(A, B, BALL, OptimizerConfig(restarts=8))
    assert res.value >= grid_best - 1e-9
    assert res.value == pytest.approx(grid_best, abs=1e-6)
    assert abs(res.argmax[0]) == pytest.approx(1.0, abs=1e-6)  # boundary is optimal


def test_softmax_variance_two_outcome_closed_form():
    # uniform base law, values (x, 0): variance x^2/4, maximized on the sphere
    A = np.array([[0.0], [0.0]])
    M = np.array([[1.0], [0.0]])
    res = max_variance_softmax(A, M, BALL)
    assert res.value == pytest.approx(0.25, abs=1e-10)
    assert abs(res.argmax[0]) == pytest.approx(1.0, abs=1e-6)


def test_softmax_variance_constant_direction_is_flat():
    g = generator(derive_seed(50, "flat"))
    A = g.standard_normal((3, 2))
    M = np.ones((3, 1)) @ np.array([[0.7, -0.3]])  # M x is constant across rows
    res = max_variance_softmax(A, M, BALL)
    assert res.value <= 1e-10


def test_softmax_hellinger_shifted_models_coincide():
    g = generator(derive_seed(51, "shifted"))
    A = g.standard_normal((4, 2))
    B = A + np.ones((4, 1)) @ g.standard_normal((1, 2))
    res = max_hellinger_softmax(A, B, BALL)
    assert res.value <= 1e-7


def test_softmax_hellinger_identical_models():
    g = generator(derive_seed(52, "same"))
    A = g.standard_normal((4, 2))
    res = max_hellinger_softmax(A, A.copy(), BALL)
    assert res.value == 0.0


def test_softmax_argmax_is_feasible():
    g = generator(derive_seed(53, "feas"))
    A = g.standard_normal((5, 3))
    B = A + 0.2 * g.standard_normal((5, 3))
    res = max_hellinger_softmax(A, B, BALL)
    BALL.check(res.argmax)  # must not raise
    assert float(np.linalg.norm(res.argmax)) <= 1.0 + 1e-9


def test_softmax_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        max_hellinger_softmax(np.zeros((2, 1)), np.zeros((3, 1)), BALL)
    with pytest.raises(ShapeMismatch):
        max_variance_softmax(np.zeros((2, 1)), np.zeros((2, 2)), BALL)


# ---------------------------------------------------------------------------
# leverage objectives
# ---------------------------------------------------------------------------


def _grid_u(points):
    axes = [np.linspace(0.5, 2.0, points)] * 3
    U = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return U


def test_leverage_hellinger_matches_dense_grid():
    g = generator(derive_seed(54, "lh"))
    a = g.standard_normal(3) + 2.0
    b = g.standard_normal(3) + 2.0
    U = _grid_u(50)
    pa = (a**2) * U
    pa /= pa.sum(axis=1, keepdims=True)
    pb = (b**2) * U
    pb /= pb.sum(axis=1, keepdims=True)
    h2 = 1.0 - np.sqrt(pa * pb).sum(axis=1)
    grid_best = float(np.sqrt(h2.max()))
    res = max_hellinger_leverage(a[:, None], b[:, None], BOX, OptimizerConfig(restarts=16))
    assert res.value >= grid_best - 1e-5
    assert res.value <= grid_best + 1e-3

    # tie the closed form used above to the real pmf at one grid point
    s = 1.0 / np.sqrt(U[1234])
    manual = hellinger_sq(leverage_pmf(a[:, None], s), leverage_pmf(b[:, None], s))
    assert manual == pytest.approx(h2[1234], abs=1e-12)


def test_leverage_variance_matches_dense_grid():
    g = generator(derive_seed(55, "lv"))
    a = g.standard_normal(3) + 2.0
    m = g.standard_normal(3)
    U = _grid_u(40)
    gram = ((a**2) * U).sum(axis=1)
    tau = (a * m * U).sum(axis=1)
    w = m / a - (tau / gram)[:, None]
    p = (a**2) * U
    p /= p.sum(axis=1, keepdims=True)
    mean = (p * w).sum(axis=1)
    var = (p * (w - mean[:, None]) ** 2).sum(axis=1)
    grid_best = float(var.max())
    res = max_variance_leverage(a[:, None], m[:, None], BOX, OptimizerConfig(restarts=16))
    assert res.value >= grid_best - 1e-5
    assert res.value <= grid_best + 1e-3

    # spot-check the closed form against the package's own w and variance
    s = 1.0 / np.sqrt(U[777])
    manual = variance_under(leverage_pmf(a[:, None], s), leverage_w(a[:, None], m[:, None], s))
    assert manual == pytest.approx(var[777], abs=1e-12)


def test_leverage_variance_degenerate_directions():
    g = generator(derive_seed(56, "ldeg"))
    A = g.standard_normal((4, 2))
    res = max_variance_leverage(A, A.copy(), BOX)
    assert res.value <= 1e-10
    res0 = max_variance_leverage(A, np.zeros((4, 2)), BOX)
    assert res0.value == 0.0


def test_leverage_argmax_is_a_feasible_scale_vector():
    g = generator(derive_seed(57, "lfeas"))
    A = g.standard_normal((4, 2))
    B = A + 0.3 * g.standard_normal((4, 2))
    res = max_hellinger_leverage(A, B, BOX)
    BOX.check(res.argmax)  # must not raise
    sq = res.argmax**2
    assert sq.min() >= BOX.lo - 1e-9 and sq.max() <= BOX.hi + 1e-9


def test_tiny_lower_bound_evaluates_only_inside_the_domain(tmp_path, monkeypatch, capsys):
    # With C = 1e7 the box's lower bound 1/C = 1e-7 lies just above u = 0,
    # where sqrt(u) is NaN; the suite turns that RuntimeWarning into an
    # error.  Every stack passed to a leverage objective is recorded (its
    # gradient comes from the same call): no evaluated point may have a
    # u_i <= 0.
    doc = json.loads((ir.files("softlev") / "specs" / "demo_leverage.json").read_text(encoding="utf-8"))
    doc["constraint"] = {"c": 1.0, "C": 1e7}
    path = tmp_path / "wide_box.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    lowest = {}
    for name in ("leverage_h2_objective", "leverage_var_objective"):

        def recorded(A, X, U, name=name, kernel=getattr(_kernels, name)):
            lowest.setdefault(name, []).append(U.min())
            return kernel(A, X, U)

        monkeypatch.setattr(_kernels, name, recorded)
    box = BoxConstraint(1.0, 1e7)
    for objective, kernel in (("hellinger", "leverage_h2"), ("variance", "leverage_var")):
        lowest.clear()
        assert cli.main(["optimize", str(path), "--objective", objective]) == 0
        assert sorted(lowest) == [f"{kernel}_objective"]
        assert min(min(v) for v in lowest.values()) == 1.0 / 1e7  # the corner check sits on the bound
        value, _, _, _, *s = (float(v) for v in capsys.readouterr().out.split(","))
        assert value > 0.0
        box.check(s)  # must not raise


def test_leverage_needs_at_least_as_many_rows_as_columns():
    A = np.ones((2, 3))
    with pytest.raises(ShapeMismatch, match=r"leverage model needs n >= d, got 2 x 3"):
        max_hellinger_leverage(A, A + 0.1, BOX)
    with pytest.raises(ShapeMismatch, match=r"leverage model needs n >= d, got 2 x 3"):
        max_variance_leverage(A, A, BOX)


def test_leverage_rank_deficiency_surfaces_from_corner_checks():
    A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(RankDeficient):
        max_hellinger_leverage(A, B, BOX)


def test_leverage_zero_leverage_surfaces_from_corner_checks():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    M = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ZeroLeverage):
        max_variance_leverage(A, M, BOX)


# ---------------------------------------------------------------------------
# the loop oracle: one restart after another, one point per call
# ---------------------------------------------------------------------------


def _raising(F):
    """The objective F as values only, raising for its first failing row."""

    def G(X):
        vals, status, _ = F(X)
        error = _first_error(status)
        if error is not None:
            raise error
        return vals

    return G


def _at(F, x):
    """The raising objective F at the single point x."""
    return float(F(x[None])[0])


def _project_one(space, x):
    """The single-point projection of the loop."""
    if isinstance(space, _Ball):
        norm = float(np.linalg.norm(x))
        return x * (space.limit / norm) if norm > space.limit else x
    return np.clip(x, space.lo, space.hi)


def _ascend_loop(F, grad, project, x0, cfg):
    """Projected gradient ascent from one start along the one-point gradient
    ``grad``; returns (x, F(x), iters, converged)."""
    x = project(np.array(x0, dtype=np.float64))
    fx = _at(F, x)
    step = STEP_INIT
    converged = False
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        g = grad(x[None])[0]
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            converged = True
            break
        direction = g / gnorm
        s = step
        gain = 0.0
        accepted = False
        while s >= _MIN_STEP:
            cand = project(x + s * direction)
            fc = _at(F, cand)
            if fc > fx:
                gain = fc - fx
                x, fx = cand, fc
                step = s * 2.0
                accepted = True
                break
            s *= 0.5
        if not accepted or gain < TOL:
            converged = True
            break
    return x, fx, iters, converged


def _multistart_loop(F, grad, project, starts, cfg):
    """Ascend from every start in turn; returns (x, F(x), iterations summed
    over all restarts, converged) of the best restart."""
    best = None
    total_iters = 0
    for x0 in starts:
        x, fx, iters, conv = _ascend_loop(F, grad, project, x0, cfg)
        total_iters += iters
        if best is None or fx > best[1]:  # strict: ties keep the earliest restart
            best = (x, fx, conv)
    x, fx, conv = best
    return x, fx, total_iters, conv


_SETS = {
    max_hellinger_softmax: (_Ball, "softmax_h2", True),
    max_variance_softmax: (_Ball, "softmax_var", False),
    max_hellinger_leverage: (_Box, "leverage_h2", True),
    max_variance_leverage: (_Box, "leverage_var", False),
}


def _kernel_pair(maximize, A, X):
    """The objective that ``maximize`` ascends, looked up in ``_kernels`` now
    as ``optimize._maximize`` does, and its gradient: the gradient part of
    the objective's own call at the points given."""
    kernel = _SETS[maximize][1]
    objective = partial(getattr(_kernels, f"{kernel}_objective"), A, X)

    def gradient(P):
        return objective(P)[2]

    gradient.__name__ = f"{kernel}_objective's gradient"
    return objective, gradient


def _maximize_loop(maximize, A, X, constraint, cfg):
    """What ``maximize(A, X, constraint, cfg)`` returns, by the loop."""
    feasible, _, hellinger = _SETS[maximize]
    space = feasible(constraint, A)
    objective, grad = _kernel_pair(maximize, A, X)
    F = _raising(objective)
    project = partial(_project_one, space)
    starts = space.starts(objective, cfg, A - X if hellinger else X)
    x, _, iters, conv = _multistart_loop(F, grad, project, starts, cfg)
    value = _at(F, x)
    return OptResult(
        argmax=space.query(x),
        value=math.sqrt(max(value, 0.0)) if hellinger else value,
        iterations_used=iters,
        converged=conv,
    )


def _outcome(run, *args):
    """The result of ``run(*args)`` bit for bit, or the error it raises."""
    try:
        r = run(*args)
    except (RankDeficient, ZeroLeverage, DomainError) as exc:
        return type(exc), str(exc)
    return _summary(r)


def _summary(r):
    """An OptResult bit for bit, or an error as its type and message."""
    if isinstance(r, Exception):
        return type(r), str(r)
    return r.argmax.tobytes(), float(r.value).hex(), r.iterations_used, r.converged


def _constraint(maximize):
    return BALL if _SETS[maximize][0] is _Ball else BOX


# ---------------------------------------------------------------------------
# closed-form gradients against central differences
# ---------------------------------------------------------------------------


def _probes(X, h):
    """The central-difference probes of each row x of X, row after row:
    x + h e_0, x - h e_0, x + h e_1, ..."""
    k, dim = X.shape
    i = np.arange(dim)
    P = np.repeat(X, 2 * dim, axis=0).reshape(k, 2 * dim, dim)
    P[:, 2 * i, i] = X + h
    P[:, 2 * i + 1, i] = X - h
    return P.reshape(k * 2 * dim, dim)


def _slopes(vals, dim, h):
    """The central differences of the objective values at ``_probes(X, h)``,
    one gradient row per row of X."""
    V = vals.reshape(-1, 2 * dim)
    return (V[:, 0::2] - V[:, 1::2]) / (2.0 * h)


def _fd_gradient(F, x, h):
    """Central differences of the values-only objective F at the single
    point x, all 2 * dim probes in one call."""
    return _slopes(F(_probes(x[None], h)), x.size, h)[0]


def _fd_gradient_loop(F, x, h):
    """The probe-by-probe central differences that one stacked call replaced."""
    g = np.empty_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        hi = _at(F, x)
        x[i] = orig - h
        lo = _at(F, x)
        x[i] = orig
        g[i] = (hi - lo) / (2.0 * h)
    return g


_GRAD_SHAPES = [(6, 2), (5, 3), (33, 7), (64, 8)]


def _random_shapes(count):
    """``count`` seeded shapes n x d with 1 <= d <= 8 and max(d, 2) <= n <= 64."""
    g = generator(derive_seed(62, "grad-shapes"))
    shapes = []
    for _ in range(count):
        d = int(g.integers(1, 9))
        shapes.append((int(g.integers(max(d, 2), 65)), d))
    return shapes


def _gradient_cases(n, d, seed=0):
    """(objective as values only, its gradient, point) for each of the
    four objectives on one gaussian pair, at a point inside the ball or box."""
    g = generator(derive_seed(62, "grad", n, d, seed))
    A = g.standard_normal((n, d))
    B = A + 0.1 * g.standard_normal((n, d))
    x = g.standard_normal(d)
    x *= 0.9 / float(np.linalg.norm(x))
    u = 0.5 + 1.5 * g.random(n)
    cases = []
    for maximize, point in zip(_SETS, (x, x, u, u)):
        objective, grad = _kernel_pair(maximize, A, B)
        cases.append((_raising(objective), grad, point))
    return cases


@pytest.mark.parametrize("n,d", _GRAD_SHAPES)
def test_one_call_gradient_equals_the_loop(n, d):
    for F, _, point in _gradient_cases(n, d):
        assert np.array_equal(_fd_gradient(F, point.copy(), 1e-6), _fd_gradient_loop(F, point.copy(), 1e-6))


def _assert_close_to_central_differences(F, grad, point):
    expected = _fd_gradient(F, point.copy(), 1e-6)
    got = grad(point[None])[0]
    assert np.isfinite(got).all()
    assert np.linalg.norm(got - expected) <= 1e-6 * np.linalg.norm(expected), grad.__name__


@pytest.mark.parametrize("n,d", _GRAD_SHAPES + _random_shapes(24))
def test_gradient_kernels_match_central_differences(n, d):
    for seed in range(3):
        for F, grad, point in _gradient_cases(n, d, seed):
            _assert_close_to_central_differences(F, grad, point)


def test_leverage_gradients_are_finite_for_a_zero_row():
    # A zero row of A has leverage 0 at every u: it never moves, and its
    # H^2 weight (1 - sqrt(tau_b / tau_a)) / 2 must not be divided out.
    A = padded_identity_instance(5, 2).A
    A[3] = 0.0
    B = A + 0.2 * generator(derive_seed(63, "zero-row")).standard_normal((5, 2))
    u = np.array([0.6, 1.3, 0.9, 1.7, 1.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for X, Y in ((A, B), (B, A)):
            objective, grad = _kernel_pair(max_hellinger_leverage, X, Y)
            _assert_close_to_central_differences(_raising(objective), grad, u)
        # the variance objective fails here (zero leverage); its gradient
        # is never used at such a point, but stays finite all the same
        _, status, grad = _kernels.leverage_var_objective(A, B, u[None])
        assert np.isfinite(grad).all()
        assert status.tolist() == [_kernels.STATUS_ZERO_LEVERAGE]


def test_softmax_gradients_are_finite_when_probabilities_underflow():
    # Logits 800 apart: exp(-800) underflows to 0, so p has exact zeros.
    A = np.array([[400.0, 1.0], [0.0, -1.0], [-400.0, 0.5]])
    B = np.array([[0.0, 1.0], [0.0, 0.0], [-400.0, 0.5]])
    x = np.array([1.0, 0.2])
    assert (_kernels.softmax_probs(A @ x) == 0.0).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for maximize in (max_hellinger_softmax, max_variance_softmax):
            for X, Y in ((A, B), (B, A)):
                objective, grad = _kernel_pair(maximize, X, Y)
                _assert_close_to_central_differences(_raising(objective), grad, x)


# ---------------------------------------------------------------------------
# lockstep ascent against the loop
# ---------------------------------------------------------------------------


def _gaussian_pair(maximize, n, d, seed):
    g = generator(derive_seed(64, "lockstep", n, d, seed))
    A = g.standard_normal((n, d))
    B = A + 0.1 * g.standard_normal((n, d))
    M = g.standard_normal((n, d))
    return A, B if _SETS[maximize][2] else M


_RUNS = [(restarts, iters) for restarts in (1, 2, 32) for iters in (1, 3, 10, 500)]
# Many restarts times many iterations of the loop take tens of seconds on
# the two larger shapes, so those run 500 iterations from one restart only
# and 32 restarts for one iteration only.
_RUNS_LARGE = [(1, 1), (1, 3), (1, 10), (1, 500), (2, 1), (2, 3), (2, 10), (32, 1)]


@pytest.mark.parametrize("maximize", list(_SETS), ids=lambda f: f.__name__)
@pytest.mark.parametrize("n,d", [(6, 2), (5, 3), (33, 7), (64, 8)])
def test_lockstep_equals_the_loop(maximize, n, d):
    for restarts, iters in _RUNS if n < 8 else _RUNS_LARGE:
        for seed in range(4):
            A, X = _gaussian_pair(maximize, n, d, seed)
            cfg = OptimizerConfig(restarts=restarts, max_iters=iters, seed=seed)
            expected = _outcome(_maximize_loop, maximize, A, X, _constraint(maximize), cfg)
            assert _outcome(maximize, A, X, _constraint(maximize), cfg) == expected, (restarts, iters, seed)


def test_stacked_ball_projection_equals_one_point_at_a_time():
    g = generator(derive_seed(67, "project"))
    space = _Ball(EnergyConstraint(1.5), None)
    for d in range(1, 65):
        X = g.standard_normal((64, d)) * g.uniform(0.01, 3.0, (64, 1))
        X[0] = 0.0
        X[1] = 1e200  # a norm that overflows scales the row to 0
        X[2, 0] = np.nan  # a NaN norm leaves the row as it is
        with np.errstate(over="ignore"):
            projected = space.project(X)
            for x, p in zip(X, projected):
                assert p.tobytes() == _project_one(space, x).tobytes()


def test_ball_first_start_aims_along_a_gap_whose_squares_underflow():
    # Every square of this gap underflows to 0; its top row is still
    # [0, 1e-200], and the first start aims along it, not along the first axis.
    gap = np.array([[0.0, 1e-200], [3e-201, 3e-201]])
    first = next(_Ball(EnergyConstraint(1.0), None).starts(None, OptimizerConfig(), gap))
    assert first.tolist() == [0.0, 1.0]


def _near_deficient_pair(maximize, n, rank_k, lev_k, seed):
    """The padded identity [e0; e1; e0; ...] with its e1 row scaled to
    ``rank_k * 1e-12``, so that the scaled matrix is rank-deficient once u_1
    falls far enough below the largest u_i, and its third row scaled to
    ``sqrt(lev_k * 1e-12)``, so that its leverage reaches the zero-leverage
    floor once u_2 falls far enough below the other e0 rows' u_i.  A zero
    ``rank_k`` or ``lev_k`` leaves that row unscaled."""
    A = padded_identity_instance(n, 2).A
    if rank_k:
        A[1] *= rank_k * 1e-12
    if lev_k:
        A[2] *= math.sqrt(lev_k * 1e-12)
    noise = generator(derive_seed(66, n, seed)).standard_normal((n, 2))
    return A, A + 0.5 * noise if _SETS[maximize][2] else noise


def _restart_failures(maximize, A, X, box, cfg):
    """For each start, None if its ascent alone succeeds, else the error it
    raises and the iteration it raises in (0: at the start point)."""
    space = _SETS[maximize][0](box, A)
    objective, gradient = _kernel_pair(maximize, A, X)
    iteration = 0

    def grad(U):
        nonlocal iteration
        iteration += 1  # each iteration starts with its gradient
        return gradient(U)

    failures = []
    for x0 in space.starts(objective, cfg, A):
        iteration = 0
        try:
            _ascend_loop(_raising(objective), grad, partial(_project_one, space), x0, cfg)
            failures.append(None)
        except (RankDeficient, ZeroLeverage) as exc:
            failures.append((type(exc), iteration))
    return failures


@pytest.mark.parametrize("maximize", [max_hellinger_leverage, max_variance_leverage], ids=lambda f: f.__name__)
def test_lockstep_fails_or_succeeds_as_the_loop_does(maximize):
    seen = set()
    for n, rank_k, lev_k, (lo, hi), seed in itertools.product(
        (5, 6), (0, 1.5, 2.5), (0, 5), ((0.5, 2.0), (0.25, 4.0)), range(2)
    ):
        A, X = _near_deficient_pair(maximize, n, rank_k, lev_k, seed)
        box = BoxConstraint(lo, hi)
        cfg = OptimizerConfig(restarts=8, max_iters=60, seed=seed)
        expected = _outcome(_maximize_loop, maximize, A, X, box, cfg)
        assert _outcome(maximize, A, X, box, cfg) == expected, (n, rank_k, lev_k, lo, hi, seed)
        seen.add(expected[0] if isinstance(expected[0], type) else None)
    # the cases cover success and every failure the objective can report
    assert seen == ({None, RankDeficient} if _SETS[maximize][2] else {None, RankDeficient, ZeroLeverage})


# Each case has restarts i < j that fail with different errors, j in an
# earlier iteration than i, and no restart before i fails: lockstep meets
# j's error first and must still raise i's.
@pytest.mark.parametrize(
    "maximize,n,rank_k,lev_k,box,seed",
    [
        (max_variance_leverage, 6, 1.5, 5, (0.5, 2.0), 2),
        (max_variance_leverage, 5, 1.5, 5, (0.25, 4.0), 1),
    ],
)
def test_lockstep_raises_the_first_restarts_error(maximize, n, rank_k, lev_k, box, seed):
    A, X = _near_deficient_pair(maximize, n, rank_k, lev_k, seed)
    box = BoxConstraint(*box)
    cfg = OptimizerConfig(restarts=8, max_iters=60, seed=seed)
    failures = _restart_failures(maximize, A, X, box, cfg)
    first = next(f for f in failures if f is not None)
    assert any(f is not None and f[0] is not first[0] and f[1] < first[1] for f in failures)
    expected = _outcome(_maximize_loop, maximize, A, X, box, cfg)
    assert expected[0] is first[0]
    assert _outcome(maximize, A, X, box, cfg) == expected


@pytest.mark.parametrize("maximize", [max_hellinger_leverage, max_variance_leverage], ids=lambda f: f.__name__)
def test_gradient_is_taken_only_where_the_objective_is_ok(maximize, monkeypatch):
    # A gradient is used only from a point whose status is OK.  Every
    # objective call returns a gradient row for each point, failing ones
    # included.  With those rows overwritten by NaN, a step that read one
    # would put NaN into the next points evaluated, and none may hold one;
    # every near-deficient pair must end bitwise as it does unpatched.
    # Some of them meet failing rows in their line searches, after the
    # corner checks and the starts (the first two calls).
    kernel = _SETS[maximize][1]
    original = getattr(_kernels, f"{kernel}_objective")
    poisoned = []  # per case, the failing rows of each call

    def poisoning(A, X, U):
        assert not np.isnan(U).any()
        vals, status, grad = original(A, X, U)
        bad = status != _kernels.STATUS_OK
        poisoned[-1].append(int(bad.sum()))
        grad[bad] = np.nan
        return vals, status, grad

    box = BoxConstraint(0.25, 4.0)

    def outcomes():
        found = []
        for n, rank_k, lev_k, seed in itertools.product((5, 6), (1.5, 2.5), (0, 5), range(2)):
            poisoned.append([])
            A, X = _near_deficient_pair(maximize, n, rank_k, lev_k, seed)
            found.append(_outcome(maximize, A, X, box, OptimizerConfig(restarts=8, max_iters=60, seed=seed)))
        return found

    expected = outcomes()
    monkeypatch.setattr(_kernels, f"{kernel}_objective", poisoning)
    poisoned.clear()
    assert outcomes() == expected
    failures = {RankDeficient} if _SETS[maximize][2] else {RankDeficient, ZeroLeverage}
    assert {e[0] for e in expected if isinstance(e[0], type)} == failures
    assert RankDeficient in {e[0] for e, rows in zip(expected, poisoned) if sum(rows[2:])}


def test_failing_rung_beyond_the_accepted_one_is_ignored():
    # One restart on [0, 1] from 0.5 toward the peak at 0.54.  Rung 0.6 does
    # not improve, so the next ladder holds rungs 0.55 and 0.525: 0.55
    # improves and is accepted, and 0.525 lies in a failing band that the
    # loop never evaluates in this iteration.  (The padded-identity
    # instances above fail only toward the far end of a ray, so they never
    # put a failing rung behind an accepted one.)
    statuses = []

    def F(U):
        u = U[:, 0]
        status = np.where((0.52 < u) & (u < 0.53), _kernels.STATUS_RANK_DEFICIENT, _kernels.STATUS_OK)
        statuses.extend(status)
        return -((u - 0.54) ** 2), status, -2.0 * (U - 0.54)

    def project(U):
        return np.clip(U, 0.0, 1.0)

    cfg = OptimizerConfig(restarts=1, max_iters=1)
    (x, value, iters, conv), = optimize._multistart(lambda U, _: F(U), project, [np.array([0.5])], [0], cfg).values()
    assert _kernels.STATUS_RANK_DEFICIENT in statuses
    expected = _multistart_loop(_raising(F), lambda U: F(U)[2], project, [np.array([0.5])], cfg)
    assert (x.tobytes(), value, iters, conv) == (expected[0].tobytes(), *expected[1:])
    assert x[0] == 0.55


def test_a_later_failure_of_a_higher_restart_keeps_the_first_restarts_error():
    # f(u) = u on [0, 1].  Restart 0 starts at 0.5, and its first rung 0.6
    # is rank-deficient: it fails at iteration 1.  Restart 1 climbs on from
    # 0 through 0.1 and 0.3, and its rung 0.7 has zero leverage: it fails
    # at iteration 3, with another code.  Their problem reports restart 0's
    # error, as the loop raises it; problem 1's restart from 0.9 is alone.
    statuses = []

    def F(U):
        u = U[:, 0]
        status = np.select(
            [(0.55 < u) & (u < 0.65), (0.65 < u) & (u < 0.8)],
            [_kernels.STATUS_RANK_DEFICIENT, _kernels.STATUS_ZERO_LEVERAGE],
            _kernels.STATUS_OK,
        )
        statuses.extend(status)
        return u.copy(), status, np.ones_like(U)

    def project(U):
        return np.clip(U, 0.0, 1.0)

    def grad(U):
        return F(U)[2]

    cfg = OptimizerConfig(restarts=2, max_iters=10)
    starts = [np.array([0.5]), np.array([0.0]), np.array([0.9])]
    found = optimize._multistart(lambda U, _: F(U), project, starts, [0, 0, 1], cfg)
    assert _kernels.STATUS_ZERO_LEVERAGE in statuses
    with pytest.raises(RankDeficient) as raised:
        _multistart_loop(_raising(F), grad, project, starts[:2], cfg)
    assert (type(found[0]), str(found[0])) == (RankDeficient, str(raised.value))
    x, value, iters, conv = _multistart_loop(_raising(F), grad, project, starts[2:], cfg)
    assert (found[1][0].tobytes(), *found[1][1:]) == (x.tobytes(), value, iters, conv)


def _counted_kernels(monkeypatch):
    """The list that every public kernel of ``_kernels``, patched, appends
    (kernel, rows) of each of its calls to."""
    calls = []
    for name, kernel in list(vars(_kernels).items()):
        if inspect.isfunction(kernel) and not name.startswith("_"):

            def counted(*args, name=name, kernel=kernel):
                calls.append((name, len(args[-1])))
                return kernel(*args)

            monkeypatch.setattr(_kernels, name, counted)
    return calls


def test_lockstep_work_guard(monkeypatch):
    # Counts, not timings.  On the leverage demo at the sweep's middle grid
    # point, lockstep calls no kernel but the objective: each call returns
    # the gradients of its rows, and a restart keeps the one of the point it
    # accepts, where the loop takes one gradient per restart per iteration.
    # The objective calls stay those lockstep made beside a gradient kernel:
    # 11 calls of 286 rows (the corner checks, the starts and ten line-search
    # rounds), at most a tenth of the loop's calls for at
    # most 2% more rows; and no call exceeds _MAX_ELEMENTS matrix elements.
    model = load_model_spec(str(ir.files("softlev") / "specs" / "demo_leverage.json"))
    A, B = model.A, model.A + 0.1 * model.M
    original = _kernels.leverage_h2_objective
    calls = _counted_kernels(monkeypatch)

    def counts(run, *args):
        calls.clear()
        run(*args)
        assert {name for name, _ in calls} <= {"leverage_h2_objective"}  # no gradient-only call
        return [rows for _, rows in calls]

    cfg = OptimizerConfig()
    lockstep = counts(max_hellinger_leverage, A, B, model.constraint, cfg)
    assert (len(lockstep), sum(lockstep)) == (11, 286)
    space = _Box(model.constraint, A)
    objective = _kernel_pair(max_hellinger_leverage, A, B)[0]
    gradient_rows = []

    def grad(U):  # the loop's gradient, from an uncounted objective call
        gradient_rows.append(len(U))
        return original(A, B, U)[2]

    iters = []
    loop = counts(
        lambda: iters.extend(
            _ascend_loop(_raising(objective), grad, partial(_project_one, space), x0, cfg)[2]
            for x0 in space.starts(objective, cfg, A - B)
        )
    )
    assert len(iters) == cfg.restarts and gradient_rows == [1] * sum(iters) and sum(iters) == 284
    assert 10 * len(lockstep) <= len(loop)
    assert sum(lockstep) <= 1.02 * sum(loop)
    # the box's returning rungs end their searches unevaluated
    assert 2 * sum(lockstep) <= sum(loop)
    assert max(lockstep) * A.size <= _MAX_ELEMENTS
    # 32 restarts of a 256x16 model: 32 rows are twice the cap of 16.
    A, B = _gaussian_pair(max_hellinger_leverage, 256, 16, 0)
    capped = counts(max_hellinger_leverage, A, B, BOX, OptimizerConfig(max_iters=1))
    assert capped == [2, 16, 16, 16, 16]
    assert max(capped) * A.size == _MAX_ELEMENTS


@pytest.mark.parametrize(
    "maximize,calls,rows,iterations",
    [(max_hellinger_softmax, 29, 436, 404), (max_variance_softmax, 36, 591, 559)],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_ball_lockstep_work_guard(monkeypatch, maximize, calls, rows, iterations):
    # Counts, not timings, on the ball: the softmax demo at the default
    # config, B = A + 0.1 M for the Hellinger ascent and M itself for the
    # variance.  One call evaluates the starts and one each line-search
    # round; nearly every iteration is decided in its first round, so a
    # round added or dropped moves the call count.
    model = load_model_spec(str(ir.files("softlev") / "specs" / "demo_softmax.json"))
    X = model.A + 0.1 * model.M if _SETS[maximize][2] else model.M
    made = _counted_kernels(monkeypatch)
    result = maximize(model.A, X, model.constraint, OptimizerConfig())
    assert {name for name, _ in made} == {f"{_SETS[maximize][1]}_objective"}
    assert (len(made), sum(n for _, n in made), result.iterations_used) == (calls, rows, iterations)


@pytest.mark.parametrize(
    "clips,first_rounds",
    [(True, [[0.6, 0.1, 0.3], [0.25, 0.225]]), (False, [[0.6, 0.1, 1.0, 0.3], [1.0, 1.0, 0.25, 0.225]])],
    ids=["box", "ball"],
)
def test_every_first_round_outcome_equals_the_loop(clips, first_rounds):
    # Four restarts, each its own problem, climb f(u) = -(u - 0.24)^2 along
    # +1 on [0, 1] (the box) or |u| <= 1 (the ball); 0.55 < u < 0.65 is
    # rank-deficient.  In the first iteration the restart from 0.5 fails at
    # its first rung 0.6, the one from 0 accepts its first rung 0.1, and the
    # one from 0.2 finds 0.3 no better and accepts 0.25 in the ladder's
    # first round.  The rung from 1 comes back onto 1: the box ends that
    # search unevaluated, the ball evaluates it and walks the ladder.
    points = []

    def F(U, _=None):
        u = U[:, 0]
        points.append(u.tolist())
        status = np.where((0.55 < u) & (u < 0.65), _kernels.STATUS_RANK_DEFICIENT, _kernels.STATUS_OK)
        return -((u - 0.24) ** 2), status, np.ones_like(U)

    if clips:
        project = project_one = partial(np.clip, a_min=0.0, a_max=1.0)
    else:
        ball = _Ball(EnergyConstraint(1.0), None)
        project, project_one = ball.project, partial(_project_one, ball)
    starts = [np.array([u]) for u in (0.5, 0.0, 1.0, 0.2)]
    cfg = OptimizerConfig(restarts=1, max_iters=10)
    found = optimize._multistart(F, project, starts, range(4), cfg, clips)
    assert points[0] == [0.5, 0.0, 1.0, 0.2]
    assert [len(p) for p in points[1:3]] == [len(r) for r in first_rounds]
    assert all(np.allclose(p, r) for p, r in zip(points[1:3], first_rounds))
    for q, x0 in enumerate(starts):
        try:
            expected = _multistart_loop(_raising(F), lambda U: F(U)[2], project_one, [x0], cfg)
        except RankDeficient as exc:
            assert (type(found[q]), str(found[q])) == (RankDeficient, str(exc)), q
        else:
            x, value, iters, conv = found[q]
            assert (x.tobytes(), value, iters, conv) == (expected[0].tobytes(), *expected[1:]), q


@pytest.mark.parametrize("seed", range(4))
def test_demo_sweep_ascents_equal_the_loop_where_rungs_come_back(monkeypatch, seed):
    # The demo-leverage optima sit at vertices of the box, so most line
    # searches end at a rung that the clip maps back onto its restart's
    # point.  The sweep's grid ascent and its nu ascent must still equal the
    # loop, which evaluates every rung, on at most half its objective rows.
    model = load_model_spec(str(ir.files("softlev") / "specs" / "demo_leverage.json"))
    spec = ExperimentSpec(model=model, seed=seed)
    rows = []
    for kind in ("h2", "var"):

        def counted(A, X, U, kernel=getattr(_kernels, f"leverage_{kind}_objective")):
            rows.append(len(U))
            return kernel(A, X, U)

        monkeypatch.setattr(_kernels, f"leverage_{kind}_objective", counted)

    def measured(run, *args):
        rows.clear()
        return run(*args), sum(rows)

    optima, grid_rows = measured(harness._sweep_optima, spec)
    loop_rows = 0
    for i, optimum in enumerate(optima):
        cfg = OptimizerConfig(spec.restarts, seed=harness._point_seed(spec, i))
        B = harness._point_pair(spec, i).B
        expected, n = measured(_outcome, _maximize_loop, max_hellinger_leverage, model.A, B, model.constraint, cfg)
        assert _summary(optimum) == expected, i
        loop_rows += n
    assert 2 * grid_rows <= loop_rows
    nu_cfg = OptimizerConfig(spec.restarts, seed=derive_seed(seed, "nu"))
    nu = (max_variance_leverage, model.A, model.direction(), model.constraint, nu_cfg)
    (result, nu_rows), (expected, loop_rows) = measured(_outcome, *nu), measured(_outcome, _maximize_loop, *nu)
    assert result == expected
    assert 2 * nu_rows <= loop_rows


_FACES = st.sampled_from(["lo", "hi", "above lo", "below hi", "inside"])
_DIRECTIONS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 1.0, -1.0]),
    st.floats(-1.0, 1.0, allow_subnormal=True),
)


@st.composite
def _box_rays(draw):
    """(lo, hi, x, d, s): a box, a point in it with coordinates on its faces
    or inside, a direction and a rung s >= _MIN_STEP."""
    lo = draw(st.floats(1e-3, 1e3))
    hi = lo * draw(st.sampled_from([1.0, 1.0 + 2**-52, 2.0, 16.0]))
    dim = draw(st.integers(1, 6))
    x = np.empty(dim)
    for i in range(dim):
        x[i] = {
            "lo": lo,
            "hi": hi,
            "above lo": np.nextafter(lo, np.inf),
            "below hi": np.nextafter(hi, 0.0),
            "inside": lo + draw(st.floats(0.0, 1.0)) * (hi - lo),
        }[draw(_FACES)]
    x = np.clip(x, lo, hi)
    d = np.array(draw(st.lists(_DIRECTIONS, min_size=dim, max_size=dim)))
    # rungs from the smallest evaluated to ones that leave the box
    s = draw(st.one_of(st.floats(_MIN_STEP, 1e-6), st.floats(_MIN_STEP, 1e3)))
    return lo, hi, x, d, s


@settings(max_examples=400, deadline=None)
@given(_box_rays())
def test_every_rung_below_one_the_clip_returns_comes_back_too(ray):
    # The lemma behind the box's line-search shortcut.
    lo, hi, x, d, s = ray
    if np.clip(x + s * d, lo, hi).tobytes() != x.tobytes():
        return
    for k in range(1, 61):
        assert np.clip(x + (s * 0.5**k) * d, lo, hi).tobytes() == x.tobytes(), k


# ---------------------------------------------------------------------------
# several problems in one lockstep run, against each problem's own call
# ---------------------------------------------------------------------------


def _each(maximize, A, Xs, constraint, cfg, seeds):
    """Each X's outcome when every problem ascends in one run."""
    feasible, kernel, _ = _SETS[maximize]
    return [_summary(r) for r in _maximize_each(feasible, constraint, kernel, A, Xs, cfg, seeds)]


def _alone(maximize, A, Xs, constraint, cfg, seeds):
    return [_outcome(maximize, A, X, constraint, replace(cfg, seed=seed)) for X, seed in zip(Xs, seeds)]


@pytest.mark.parametrize("maximize", list(_SETS), ids=lambda f: f.__name__)
@pytest.mark.parametrize("n,d", [(6, 2), (5, 3), (33, 7)])
def test_problems_in_one_run_get_their_own_results(maximize, n, d):
    for seed, count in itertools.product(range(4), (1, 3, 7)):
        g = generator(derive_seed(68, "each", n, d, seed))
        A = g.standard_normal((n, d))
        M = g.standard_normal((n, d))
        Xs = [A + eps * M for eps in (0.3, 0.2, 0.14, 0.1, 0.07, 0.05, 0.035)[:count]]
        if not _SETS[maximize][2]:
            Xs = [X - A for X in Xs]
        cfg = OptimizerConfig(restarts=(1, 4, 9)[seed % 3], max_iters=40)
        seeds = [derive_seed(seed, "problem", i) for i in range(count)]
        constraint = _constraint(maximize)
        expected = _alone(maximize, A, Xs, constraint, cfg, seeds)
        assert _each(maximize, A, Xs, constraint, cfg, seeds) == expected, (seed, count)


@pytest.mark.parametrize("maximize", [max_hellinger_leverage, max_variance_leverage], ids=lambda f: f.__name__)
def test_a_failing_problem_leaves_the_others_alone(maximize):
    # The near-deficient pairs of one A fail in their corner checks, in
    # their ascents or not at all; a zero B or M fails its corner check.
    seen, mixed = set(), 0
    for n, rank_k, lev_k in itertools.product((5, 6), (0, 1.5, 2.5), (0, 5)):
        Xs = [_near_deficient_pair(maximize, n, rank_k, lev_k, seed)[1] for seed in range(6)]
        A = _near_deficient_pair(maximize, n, rank_k, lev_k, 0)[0]
        Xs.insert(2, np.zeros_like(A))
        box = BoxConstraint(0.25, 4.0)
        cfg, seeds = OptimizerConfig(restarts=8, max_iters=60), range(len(Xs))
        expected = _alone(maximize, A, Xs, box, cfg, seeds)
        assert _each(maximize, A, Xs, box, cfg, seeds) == expected, (n, rank_k, lev_k)
        kinds = {e[0] if isinstance(e[0], type) else None for e in expected}
        mixed += None in kinds and len(kinds) > 1
        seen |= kinds
    assert mixed
    assert seen == ({None, RankDeficient} if _SETS[maximize][2] else {None, RankDeficient, ZeroLeverage})


@pytest.mark.parametrize("maximize", [max_hellinger_leverage, max_variance_leverage], ids=lambda f: f.__name__)
def test_a_matrix_too_big_for_the_box_fails_alone(maximize):
    # max|X| / sqrt(c) overflows for the middle problem only: it is refused
    # before its corner checks, and its neighbours ascend as on their own.
    g = generator(derive_seed(70, "box", maximize.__name__))
    A, M0, M2 = g.standard_normal((3, 5, 2))
    big = A.copy()
    big[3, 1] = -1e308
    Xs = [A + 0.1 * M0, big, A + 0.1 * M2] if _SETS[maximize][2] else [M0, big, M2]
    box = BoxConstraint(0.25, 4.0)
    cfg, seeds = OptimizerConfig(restarts=4, max_iters=30), range(3)
    expected = _alone(maximize, A, Xs, box, cfg, seeds)
    assert _each(maximize, A, Xs, box, cfg, seeds) == expected
    name = "B" if _SETS[maximize][2] else "M"
    message = f"box bound c = 0.25 is too small for {name}: d/c or max|{name}| / sqrt(c) overflows"
    assert expected[1] == (DomainError, message)
    assert not isinstance(expected[0][0], type) and not isinstance(expected[2][0], type)


@pytest.mark.parametrize(
    "each,maximize,n,d,restarts",
    [
        (max_hellinger_leverage_each, max_hellinger_leverage, 64, 8, 32),
        (max_hellinger_softmax_each, max_hellinger_softmax, 256, 16, 8),
    ],
)
def test_capped_calls_split_across_problems(monkeypatch, each, maximize, n, d, restarts):
    # 5 problems of 32 restarts hold 160 rows, above the 128 rows of a 64x8
    # call; 5 of 8 hold 40, above the 16 of a 256x16 call.  Some call must
    # be exactly full and hold rows of more than one problem.
    kernel = _SETS[maximize][1]
    g = generator(derive_seed(69, "cap", n, d))
    A = g.standard_normal((n, d))
    Bs = [A + 0.1 * g.standard_normal((n, d)) for _ in range(5)]
    cfg, seeds = OptimizerConfig(restarts=restarts, max_iters=2), range(5)
    constraint = _constraint(maximize)
    expected = _alone(maximize, A, Bs, constraint, cfg, seeds)
    calls = []
    original = getattr(_kernels, f"{kernel}_objective")

    def counted(A, B, Z):
        mixed = B.ndim == 3 and any(not np.array_equal(B[0], b) for b in B[1:])
        calls.append((len(Z), mixed))
        return original(A, B, Z)

    monkeypatch.setattr(_kernels, f"{kernel}_objective", counted)
    assert [_summary(r) for r in each(A, Bs, constraint, cfg, seeds)] == expected
    cap = _MAX_ELEMENTS // A.size
    assert max(rows for rows, _ in calls) == cap
    assert (cap, True) in calls


# ---------------------------------------------------------------------------
# run mechanics
# ---------------------------------------------------------------------------


def test_more_restarts_never_hurt():
    g = generator(derive_seed(58, "mono"))
    A = g.standard_normal((5, 3))
    B = A + 0.5 * g.standard_normal((5, 3))
    v8 = max_hellinger_softmax(A, B, BALL, OptimizerConfig(restarts=8, seed=3)).value
    v16 = max_hellinger_softmax(A, B, BALL, OptimizerConfig(restarts=16, seed=3)).value
    assert v16 >= v8  # the start set only grows


def test_larger_energy_never_hurts():
    g = generator(derive_seed(59, "energy"))
    A = g.standard_normal((4, 2))
    B = A + 0.4 * g.standard_normal((4, 2))
    v1 = max_hellinger_softmax(A, B, EnergyConstraint(1.0)).value
    v2 = max_hellinger_softmax(A, B, EnergyConstraint(2.0)).value
    assert v2 >= v1 - 1e-6


def test_runs_are_deterministic():
    g = generator(derive_seed(60, "det"))
    A = g.standard_normal((4, 2))
    B = A + 0.3 * g.standard_normal((4, 2))
    r1 = max_hellinger_softmax(A, B, BALL)
    r2 = max_hellinger_softmax(A, B, BALL)
    assert r1.value == r2.value
    assert np.array_equal(r1.argmax, r2.argmax)
    assert r1.iterations_used == r2.iterations_used


def test_result_bookkeeping():
    g = generator(derive_seed(61, "book"))
    A = g.standard_normal((3, 2))
    B = A + 0.2 * g.standard_normal((3, 2))
    cfg = OptimizerConfig(restarts=2, max_iters=3)
    res = max_hellinger_softmax(A, B, BALL, cfg)
    assert 2 <= res.iterations_used <= 2 * 3  # at least one ascent step per restart, capped at 3 each
    assert isinstance(res.converged, bool)
