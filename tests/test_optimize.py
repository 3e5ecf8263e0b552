"""Multi-start ascent over the energy ball and the scale box.

Grid oracles: for d = 1 both leverage objectives collapse to closed forms in
u = s^{-2} (pmf_i = a_i^2 u_i / sum_k a_k^2 u_k, response ratio
w_i = m_i/a_i - tau/g), so a dense grid over the box is cheap and
independent of the ascent code.
"""

import numpy as np
import pytest

from softlev import _kernels
from softlev.distributions import hellinger_sq, variance_under
from softlev.errors import RankDeficient, ShapeMismatch, ZeroLeverage
from softlev.harness import padded_identity_instance
from softlev.leverage import BoxConstraint, leverage_pmf, leverage_w
from softlev.optimize import (
    OptimizerConfig,
    _at,
    _Ball,
    _Box,
    _fd_gradient,
    max_hellinger_leverage,
    max_hellinger_softmax,
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
# one-call gradient against the probe-by-probe loop
# ---------------------------------------------------------------------------


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


@pytest.mark.parametrize("n,d", [(6, 2), (5, 3), (33, 7), (64, 8)])
def test_one_call_gradient_equals_the_loop(n, d):
    g = generator(derive_seed(62, "grad", n, d))
    A = g.standard_normal((n, d))
    B = A + 0.1 * g.standard_normal((n, d))
    x = g.standard_normal(d)
    x *= 0.9 / float(np.linalg.norm(x))
    u = 0.5 + 1.5 * g.random(n)
    objectives = [
        (_Ball.objective(_kernels.softmax_h2_objective, A, B), x),
        (_Ball.objective(_kernels.softmax_var_objective, A, B), x),
        (_Box.objective(_kernels.leverage_h2_objective, A, B), u),
        (_Box.objective(_kernels.leverage_var_objective, A, B), u),
    ]
    for F, point in objectives:
        assert np.array_equal(_fd_gradient(F, point.copy(), 1e-6), _fd_gradient_loop(F, point.copy(), 1e-6))


def _gradient_error(gradient, F, u, h):
    with pytest.raises((RankDeficient, ZeroLeverage)) as info:
        gradient(F, u.copy(), h)
    return info.type


def test_failing_probe_raises_as_the_loop_does():
    # Rows of the padded identity [e0; e1; e0; e0; e0], scaled by sqrt(u).
    # With every u_i = h, probe u - h e_i zeroes row i: for the e1 row that
    # zeroes column 1 (rank-deficient), for an e0 row it leaves a row of
    # leverage 0.  Reordering the rows decides which failure comes first.
    h = 0.25
    A = padded_identity_instance(5, 2).A
    M = generator(derive_seed(63, "probe")).standard_normal((5, 2))
    u = np.full(5, h)
    for order, expected in (([1, 0, 2, 3, 4], RankDeficient), ([0, 1, 2, 3, 4], ZeroLeverage)):
        F = _Box.objective(_kernels.leverage_var_objective, A[order], M)
        assert _gradient_error(_fd_gradient_loop, F, u, h) is expected
        assert _gradient_error(_fd_gradient, F, u, h) is expected
    # H^2 has no zero-leverage status: the first failure is the e1 row.
    F = _Box.objective(_kernels.leverage_h2_objective, A, M)
    assert _gradient_error(_fd_gradient_loop, F, u, h) is RankDeficient
    assert _gradient_error(_fd_gradient, F, u, h) is RankDeficient


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
    assert res.restarts_used == 2
    assert res.iterations_used >= 2  # at least one ascent step per restart
    assert isinstance(res.converged, bool)
