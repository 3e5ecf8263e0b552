"""Dense-matrix helpers: gram, extremal eigenvalues, norms, row-gram gap,
and the thin-QR rank and shape checks."""

import math

import numpy as np
import pytest

from softlev import _kernels
from softlev.bounds import softmax_lb_quantity
from softlev.errors import ShapeMismatch
from softlev.leverage import leverage_pmf, require_tall
from softlev.numerics import gram, min_eigenvalue, row_gram_gap, two_to_infty_norm
from softlev.rng import derive_seed, generator


# ---------------------------------------------------------------------------
# gram
# ---------------------------------------------------------------------------


def test_gram_identity():
    assert np.array_equal(gram(np.eye(2)), np.eye(2))


def test_gram_column_of_ones():
    assert np.array_equal(gram(np.array([[1.0], [1.0]])), np.array([[2.0]]))


def test_gram_matches_triple_loop():
    g = generator(derive_seed(1, "gram"))
    A = g.standard_normal((3, 2))
    ref = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(3):
                ref[i, j] += A[k, i] * A[k, j]
    assert np.abs(gram(A) - ref).max() < 1e-12


def test_gram_is_bitwise_symmetric_and_psd():
    for k in range(50):
        g = generator(derive_seed(2, "gram-sym", k))
        A = g.standard_normal((int(g.integers(1, 9)), int(g.integers(1, 6))))
        G = gram(A)
        assert np.array_equal(G, G.T)
        assert min_eigenvalue(G) >= -1e-10


# ---------------------------------------------------------------------------
# min_eigenvalue
# ---------------------------------------------------------------------------


def test_min_eigenvalue_identity_and_diagonal():
    assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, abs=1e-14)
    assert min_eigenvalue(np.diag([2.0, 5.0])) == 2.0


def test_min_eigenvalue_planted_spectrum():
    g = generator(derive_seed(3, "planted"))
    Q = np.linalg.qr(g.standard_normal((4, 4)))[0]
    S = Q @ np.diag([0.1, 1.0, 2.0, 3.0]) @ Q.T
    S = np.triu(S) + np.triu(S, 1).T  # exact symmetry, as gram() guarantees
    assert min_eigenvalue(S) == pytest.approx(0.1, abs=1e-8)


def test_min_eigenvalue_2x2_closed_form_matches_eigensolver():
    for k in range(200):
        g = generator(derive_seed(4, "2x2", k))
        S = gram(g.standard_normal((3, 2)))
        assert min_eigenvalue(S) == pytest.approx(np.linalg.eigvalsh(S)[0], abs=1e-12)


def test_min_eigenvalue_rejects_asymmetry():
    with pytest.raises(ShapeMismatch):
        min_eigenvalue(np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]]))
    with pytest.raises(ShapeMismatch):
        min_eigenvalue(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# two_to_infty_norm
# ---------------------------------------------------------------------------


def test_two_to_infty_norm_examples():
    assert two_to_infty_norm(np.zeros((3, 2))) == 0.0
    assert two_to_infty_norm(np.array([[3.0, 4.0], [1.0, 0.0]])) == 5.0


def test_two_to_infty_norm_matches_direct_loop():
    g = generator(derive_seed(5, "n2i"))
    A = g.standard_normal((5, 3))
    ref = max(np.sqrt(sum(A[i, j] ** 2 for j in range(3))) for i in range(5))
    assert two_to_infty_norm(A) == ref


def test_two_to_infty_norm_axioms():
    for k in range(100):
        g = generator(derive_seed(6, "axioms", k))
        A = g.standard_normal((4, 3))
        B = g.standard_normal((4, 3))
        assert two_to_infty_norm(A + B) <= two_to_infty_norm(A) + two_to_infty_norm(B)
        # power-of-two scaling commutes with the square root exactly
        assert two_to_infty_norm(2.0 * A) == 2.0 * two_to_infty_norm(A)
        c = 0.7318906251
        assert two_to_infty_norm(c * A) == pytest.approx(c * two_to_infty_norm(A), rel=1e-15)


def test_two_to_infty_norm_where_squares_overflow():
    # 1e200 squared overflows, the norm does not, and nothing warns; past the
    # float range the norm is inf, again without a warning.  A matrix whose
    # squares are finite keeps the plain formula's bits, also beside an
    # overflowing one in a stack, and so do seeded stacks at every scale
    # from 1e-150 to 1e150, including those below 2^-480 that take the
    # scaled rows.
    big = np.array([[1e200, 0.0], [0.0, 1.0]])
    assert two_to_infty_norm(big) == 1e200
    assert two_to_infty_norm([[1.7e308, 1.7e308]]) == math.inf
    assert 0.99e-320 < softmax_lb_quantity([[1e160, 0.0], [0.0, 1.0]], np.zeros((2, 2)), 1.0) < 1.01e-320
    g = generator(derive_seed(6, "overflow"))
    A = g.standard_normal((2, 2))
    norms = _kernels._max_row_norm(np.stack([A, big]))
    assert norms[0].tobytes() == np.sqrt((A * A).sum(axis=-1).max()).tobytes() and norms[1] == 1e200
    for scale in (1e-150, 1e-100, 1e-50, 1.0, 1e50, 1e100, 1e150):
        X = g.standard_normal((16, 7, 5)) * scale
        plain = np.sqrt((X * X).sum(axis=-1).max(axis=-1))
        assert _kernels._max_row_norm(X).tobytes() == plain.tobytes(), scale


def test_two_to_infty_norm_where_squares_underflow():
    # Below about 1e-154 squares lose bits and below about 1e-162 they
    # vanish; the norm is still exact, down to the smallest subnormal.
    for tiny in (1e-160, 1e-200, 5e-324):
        assert two_to_infty_norm([[tiny, 0.0], [0.0, tiny]]) == tiny
        assert two_to_infty_norm([[0.0, -tiny]]) == tiny


# ---------------------------------------------------------------------------
# row_gram_gap
# ---------------------------------------------------------------------------


def test_row_gram_gap_identical_matrices():
    g = generator(derive_seed(7, "rgg0"))
    A = g.standard_normal((4, 3))
    assert row_gram_gap(A, A) == 0.0


def test_row_gram_gap_rank_one_row():
    assert row_gram_gap(np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]])) == pytest.approx(3.0, abs=1e-14)


def _row_gap_eigensolve(A, B):
    """Independent oracle: per-row full symmetric eigendecomposition."""
    total = 0.0
    for a, b in zip(A, B):
        D = np.outer(b, b) - np.outer(a, a)
        total += np.abs(np.linalg.eigvalsh(D)).max()
    return total


def test_row_gram_gap_matches_full_eigensolve():
    for k in range(100):
        g = generator(derive_seed(8, "rgg", k))
        A = g.standard_normal((4, 3))
        B = A + g.standard_normal((4, 3)) * float(g.random())
        assert row_gram_gap(A, B) == pytest.approx(_row_gap_eigensolve(A, B), abs=1e-10)


def test_row_gram_gap_handles_zero_rows():
    A = np.zeros((2, 3))
    B = np.array([[1.0, 2.0, 2.0], [0.0, 0.0, 0.0]])
    # against a zero row the difference is b b^T, whose norm is ||b||^2
    assert row_gram_gap(A, B) == pytest.approx(9.0, abs=1e-12)
    assert row_gram_gap(A, B) == row_gram_gap(B, A)


def test_row_gram_gap_is_symmetric():
    # symmetric in exact arithmetic; the closed form builds its basis from
    # the first argument, so floats can differ in the last couple of ulps
    g = generator(derive_seed(9, "rgg-sym"))
    A = g.standard_normal((5, 2))
    B = g.standard_normal((5, 2))
    assert row_gram_gap(A, B) == pytest.approx(row_gram_gap(B, A), rel=1e-13)


def test_row_gram_gap_near_parallel_rows_stay_accurate():
    # tiny perturbations are where a naive nb2 - b1^2 formula loses half its
    # digits; the residual route should track the eigensolve oracle closely
    g = generator(derive_seed(9, "rgg-near"))
    A = g.standard_normal((6, 3))
    B = A * (1.0 + 1e-9) + g.standard_normal((6, 3)) * 1e-10
    val = row_gram_gap(A, B)
    assert val == pytest.approx(_row_gap_eigensolve(A, B), abs=1e-12)
    assert val < 1e-7  # the defective formula floored near sqrt(eps)


def test_row_gram_gap_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        row_gram_gap(np.ones((2, 2)), np.ones((3, 2)))


# ---------------------------------------------------------------------------
# thin QR: the rank rule of _kernels._checked_qr and the n >= d requirement
# ---------------------------------------------------------------------------


def test_thin_qr_rejects_rank_deficiency():
    collinear = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    for A in (collinear, np.zeros((3, 2))):  # the zero matrix counts as deficient
        _, _, ok = _kernels._checked_qr(A)
        assert not ok
    Q, R, ok = _kernels._checked_qr(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 7.0]]))
    assert ok
    assert np.abs(Q @ R - np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 7.0]])).max() <= 1e-12
    _, _, oks = _kernels._checked_qr(np.stack([collinear, np.eye(3, 2)]))
    assert oks.tolist() == [False, True]


def test_thin_qr_needs_tall_input():
    with pytest.raises(ShapeMismatch):
        require_tall(np.ones((2, 3)))
    require_tall(np.ones((3, 3)))  # square is tall enough
    require_tall(np.ones((4, 3)))


def test_leverage_diagonal_via_qr_matches_explicit_inverse():
    for k in range(30):
        g = generator(derive_seed(11, "lev-diag", k))
        A = g.standard_normal((7, 3)) + 0.1
        lev_qr = 3.0 * leverage_pmf(A, np.ones(7)).probs
        H = A @ np.linalg.inv(A.T @ A) @ A.T
        assert np.abs(lev_qr - np.diag(H)).max() <= 1e-8
