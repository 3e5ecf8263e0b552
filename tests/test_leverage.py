"""Leverage-score model: box constraint, pmf, invariances, first-order response."""

import math

import numpy as np
import pytest

from softlev.distributions import draw
from softlev.errors import ConstraintViolation, RankDeficient, ShapeMismatch, ZeroLeverage
from softlev.harness import padded_identity_instance
from softlev.leverage import (
    BoxConstraint,
    leverage_pmf,
    leverage_pmf_derivative,
    leverage_pmfs,
    leverage_w,
)
from softlev.rng import derive_seed, generator


def test_box_constraint_checks_squared_scales():
    box = BoxConstraint(0.5, 2.0)
    box.check([1.0, -1.2, math.sqrt(0.5)])  # signs are free, squares are not
    with pytest.raises(ConstraintViolation, match="box"):
        box.check([1.0, 1.5])  # 1.5^2 = 2.25 > 2
    with pytest.raises(ConstraintViolation, match="box"):
        box.check([1.0, 0.6])


def test_box_constraint_validates_bounds():
    with pytest.raises(ValueError):
        BoxConstraint(0.0, 1.0)
    with pytest.raises(ValueError):
        BoxConstraint(2.0, 1.0)


def test_zero_scale_is_rejected():
    with pytest.raises(ConstraintViolation):
        leverage_pmf(np.eye(2), [1.0, 0.0])


# ---------------------------------------------------------------------------
# pmf
# ---------------------------------------------------------------------------


def test_square_identity_gives_uniform_for_any_scales():
    for s in ([1.0, 1.0], [1.0, -1.3], [0.8, 1.4]):
        P = leverage_pmf(np.eye(2), s)
        assert np.abs(P.probs - 0.5).max() < 1e-14


def test_repeated_single_column_splits_evenly():
    P = leverage_pmf(np.array([[1.0], [1.0]]), [1.0, 1.0])
    assert np.abs(P.probs - 0.5).max() < 1e-15


def test_pmf_matches_explicit_inverse_oracle():
    g = generator(derive_seed(40, "inv"))
    A = g.standard_normal((3, 2))
    s = np.array([1.0, 1.0, math.sqrt(2.0)])
    As = A / s[:, None]
    H = As @ np.linalg.inv(As.T @ As) @ As.T  # the projector, explicitly
    assert np.abs(leverage_pmf(A, s).probs - np.diag(H) / 2.0).max() <= 1e-10


def test_pmf_output_is_normalized():
    for k in range(50):
        g = generator(derive_seed(41, "norm", k))
        d = int(g.integers(1, 5))
        n = int(g.integers(d + 1, 10))
        A = g.standard_normal((n, d))
        s = np.sqrt(0.5 + g.random(n) * 1.5)
        P = leverage_pmf(A, s)
        assert abs(P.probs.sum() - 1.0) <= 4.5e-16
        assert P.probs.min() >= 0.0


def test_rank_deficiency_raises_before_sampling():
    collinear = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    for A in (collinear, np.zeros((3, 2))):  # the zero matrix counts as deficient
        with pytest.raises(RankDeficient):
            leverage_pmf(A, [1.0, 1.0, 1.0])
        with pytest.raises(RankDeficient):
            leverage_pmfs(A, [1.0, 1.0, 1.0])


def test_pmf_of_a_matrix_whose_squared_entries_overflow():
    # The rank threshold takes the largest row norm of diag(s)^-1 A; past
    # about 1.3e154 its square overflows, and the threshold must not.
    g = generator(derive_seed(45, "huge"))
    A = g.standard_normal((6, 3))
    s = np.sqrt(0.5 + 1.5 * g.random(6))
    big = A * 2.0**600
    assert np.abs(big).max() > math.sqrt(np.finfo(np.float64).max)
    np.testing.assert_allclose(leverage_pmf(big, s).probs, leverage_pmf(A, s).probs, rtol=1e-12)
    # in a stack, the matrices whose threshold does not overflow keep it bitwise
    for row, Ai in zip(leverage_pmfs(np.stack([A, big, 2.0 * A]), s), (A, A, 2.0 * A)):
        assert row.tobytes() == leverage_pmf(Ai, s).probs.tobytes()
    # the rule is relative to the largest row norm, overflow or not: columns
    # of scales 1e13 and 1 are deficient, as are 1e200 and 1
    for top in (1e13, 1e200):
        with pytest.raises(RankDeficient):
            leverage_pmf(np.array([[top, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.ones(3))


def test_rank_verdict_of_a_matrix_whose_squares_underflow():
    # At 1e-200 every square underflows to 0, and the rank threshold, taken
    # from the largest row norm, must not: the rank-1 matrix is deficient,
    # and a full-rank one keeps its pmf.
    with pytest.raises(RankDeficient):
        leverage_pmf(1e-200 * np.array([[1.0, 2.0], [2.0, 4.0], [1.0, 2.0]]), np.ones(3))
    A = generator(derive_seed(45, "tiny")).standard_normal((6, 3))
    np.testing.assert_allclose(leverage_pmf(1e-200 * A, np.ones(6)).probs, leverage_pmf(A, np.ones(6)).probs, rtol=1e-12)


def test_pmf_shape_requirements():
    with pytest.raises(ShapeMismatch):
        leverage_pmf(np.eye(2), [1.0, 1.0, 1.0])
    with pytest.raises(ShapeMismatch):
        leverage_pmf(np.ones((2, 3)), [1.0, 1.0])  # wide matrices have no leverage law


@pytest.mark.parametrize("n,d", [(2, 1), (6, 2), (9, 3), (33, 7)])
def test_stacked_pmfs_equal_leverage_pmf_row_by_row(n, d):
    g = generator(derive_seed(44, "stack", n, d))
    A = g.standard_normal((n, d))
    S = np.sqrt(0.5 + 1.5 * g.random((10, n)))
    S[::3] *= -1.0  # signs are free
    for row, s in zip(leverage_pmfs(A, S), S):
        assert row.tobytes() == leverage_pmf(A, s).probs.tobytes()
    # a stack of matrices under one scale vector
    As = np.stack([A, A @ g.standard_normal((d, d)), 2.0 * A])
    for row, Ai in zip(leverage_pmfs(As, S[0]), As):
        assert row.tobytes() == leverage_pmf(Ai, S[0]).probs.tobytes()


def test_stacked_pmfs_raise_like_leverage_pmf():
    A = padded_identity_instance(5, 2).A
    deficient = A.copy()
    deficient[1] = 0.0  # the second identity row: rank 1
    s = np.ones(5)
    with pytest.raises(RankDeficient) as alone:
        leverage_pmf(deficient, s)
    with pytest.raises(RankDeficient) as stacked:
        leverage_pmfs(np.stack([A, deficient, A]), s)
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(ShapeMismatch):
        leverage_pmfs(A, np.ones((2, 4)))
    with pytest.raises(ShapeMismatch, match="n >= d"):
        leverage_pmfs(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ConstraintViolation, match="nonzero"):
        leverage_pmfs(A, np.array([[1.0, 1.0, 0.0, 1.0, 1.0]]))
    # non-finite input is named as such, not reported as a deficient matrix
    bad_s = np.ones((3, 5))
    bad_s[1, 2] = np.nan
    bad_A = np.stack([A, A])
    bad_A[0, 0, 0] = np.inf
    for stacked_args, alone_args in (((A, bad_s), (A, bad_s[1])), ((bad_A, s), (bad_A[0], s))):
        with pytest.raises(ValueError, match="non-finite") as alone:
            leverage_pmf(*alone_args)
        with pytest.raises(ValueError, match="non-finite") as stacked:
            leverage_pmfs(*stacked_args)
        assert str(stacked.value) == str(alone.value)


def test_right_invariance():
    """Right-multiplying by any invertible matrix preserves the column space,
    hence the pmf."""
    for k in range(100):
        g = generator(derive_seed(42, "right", k))
        d = int(g.integers(1, 5))
        n = int(g.integers(d + 1, 10))
        A = g.standard_normal((n, d))
        R = g.standard_normal((d, d)) + 3.0 * np.eye(d)
        s = np.sqrt(0.5 + g.random(n) * 1.5)
        dev = np.abs(leverage_pmf(A @ R, s).probs - leverage_pmf(A, s).probs).max()
        assert dev <= 1e-10


def test_sign_invariance():
    for k in range(100):
        g = generator(derive_seed(43, "sign", k))
        d = int(g.integers(1, 5))
        n = int(g.integers(d + 1, 10))
        A = g.standard_normal((n, d))
        s = np.sqrt(0.5 + g.random(n) * 1.5)
        flip = np.where(g.random(n) < 0.5, -1.0, 1.0)
        assert np.abs(leverage_pmf(A, s * flip).probs - leverage_pmf(A, s).probs).max() <= 1e-12


def test_sampling_determinism():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    a = draw(leverage_pmf(A, [1.0, 1.0, 1.0]), 9, 500)
    assert np.array_equal(a, draw(leverage_pmf(A, [1.0, 1.0, 1.0]), 9, 500))


def test_identity_sampling_frequencies():
    out = draw(leverage_pmf(np.eye(2), [1.0, 1.0]), 3, 20_000)
    assert abs((out == 0).mean() - 0.5) < 0.01


# ---------------------------------------------------------------------------
# first-order response
# ---------------------------------------------------------------------------


def _dense_w_oracle(A, M, s):
    As = A / s[:, None]
    Ms = M / s[:, None]
    inv = np.linalg.inv(As.T @ As)
    Pi = As @ inv @ As.T
    W = (np.eye(A.shape[0]) - Pi) @ (Ms @ inv @ As.T)
    return np.diag(W) / np.diag(Pi)


def test_w_vanishes_for_zero_and_parallel_directions():
    g = generator(derive_seed(44, "wzero"))
    A = g.standard_normal((4, 2))
    s = np.ones(4)
    assert np.abs(leverage_w(A, np.zeros((4, 2)), s)).max() == 0.0
    assert np.abs(leverage_w(A, A, s)).max() <= 1e-10  # projector annihilates its own range


def test_w_matches_dense_formula():
    for k in range(50):
        g = generator(derive_seed(45, "wdense", k))
        A = g.standard_normal((4, 2))
        M = g.standard_normal((4, 2))
        s = np.sqrt(0.5 + g.random(4) * 1.5)
        if np.abs(np.linalg.det(A.T @ A)) < 1e-3:
            continue
        assert np.abs(leverage_w(A, M, s) - _dense_w_oracle(A, M, s)).max() <= 1e-10


def test_w_refuses_zero_leverage_rows():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ZeroLeverage):
        leverage_w(A, np.ones((3, 2)), np.ones(3))


def test_derivative_of_parallel_direction_is_zero():
    g = generator(derive_seed(46, "dzero"))
    A = g.standard_normal((5, 2))
    d = leverage_pmf_derivative(A, A, np.ones(5))
    assert np.abs(d).max() <= 1e-12


def test_derivative_sums_to_zero_and_matches_central_differences():
    for k in range(20):
        g = generator(derive_seed(47, "fd", k))
        dcols = int(g.integers(1, 4))
        n = int(g.integers(dcols + 1, 9))
        A = g.standard_normal((n, dcols))
        M = g.standard_normal((n, dcols))
        s = np.sqrt(0.5 + g.random(n) * 1.5)
        deriv = leverage_pmf_derivative(A, M, s)
        assert abs(deriv.sum()) <= 1e-10
        h = 1e-6
        fd = (leverage_pmf(A + h * M, s).probs - leverage_pmf(A - h * M, s).probs) / (2 * h)
        assert np.abs(deriv - fd).max() <= 1e-4


def test_derivative_shape_checks():
    with pytest.raises(ShapeMismatch):
        leverage_pmf_derivative(np.eye(2), np.ones((3, 2)), [1.0, 1.0])
