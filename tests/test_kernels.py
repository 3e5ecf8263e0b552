"""Kernel edge cases, and the stacked kernels against single-point
references.

The references below are the one-point objectives and the single-matrix W
factorization that the stacked kernels replaced, kept verbatim as the
oracle: every row of a stack must be bitwise equal to them, status codes
included.  The gradients that the objectives return beside their values
have no such reference here: their rows must be bitwise equal to each point
alone, and ``tests/test_optimize.py`` checks them against central
differences.
"""

import numpy as np
import pytest

from softlev import _kernels
from softlev.harness import padded_identity_instance
from softlev.rng import derive_seed, generator

# ---------------------------------------------------------------------------
# single-point references
# ---------------------------------------------------------------------------


def _ref_softmax_h2(A, B, x):
    pa = _kernels.softmax_probs(A @ x)
    pb = _kernels.softmax_probs(B @ x)
    h2, _ = _kernels.h2_tv(pa, pb)
    return h2, _kernels.STATUS_OK


def _weighted_variance(p, v):
    mean = p @ v
    d = v - mean
    return float(p @ (d * d))


def _ref_softmax_var(A, M, x):
    p = _kernels.softmax_probs(A @ x)
    return _weighted_variance(p, M @ x), _kernels.STATUS_OK


def _ref_leverage_h2(A, B, u):
    r = np.sqrt(u)[:, None]
    pa, _, ok1 = _kernels.leverage_probs(A * r)
    pb, _, ok2 = _kernels.leverage_probs(B * r)
    if not (ok1 and ok2):
        return 0.0, _kernels.STATUS_RANK_DEFICIENT
    h2, _ = _kernels.h2_tv(pa, pb)
    return h2, _kernels.STATUS_OK


def _ref_w_parts(As, Ms):
    """Leverage scores and diag((I - Pi) Ms (As^T As)^{-1} As^T), via one QR.

    Pi is the orthogonal projector onto the column space of As.  Everything
    is assembled from the thin factor Q, so no n-by-n matrix is ever formed.
    """
    Q, R, ok = _kernels._checked_qr(As)
    if not ok:
        z = np.zeros(As.shape[0])
        return z, z, False
    F = np.linalg.solve(R.T, Ms.T).T  # Ms R^{-1} without forming the inverse
    G = Q.T @ F
    QG = Q @ G
    wnum = (F * Q).sum(axis=1) - (QG * Q).sum(axis=1)
    lev = (Q * Q).sum(axis=1)
    return lev, wnum, True


def _ref_leverage_var(A, M, u):
    r = np.sqrt(u)[:, None]
    lev, wnum, ok = _ref_w_parts(A * r, M * r)
    if not ok:
        return 0.0, _kernels.STATUS_RANK_DEFICIENT
    if lev.min() <= _kernels._LEV_FLOOR:
        return 0.0, _kernels.STATUS_ZERO_LEVERAGE
    d = A.shape[1]
    return _weighted_variance(lev / d, wnum / lev), _kernels.STATUS_OK


SOFTMAX = [
    (_kernels.softmax_h2_objective, _ref_softmax_h2),
    (_kernels.softmax_var_objective, _ref_softmax_var),
]
LEVERAGE = [
    (_kernels.leverage_h2_objective, _ref_leverage_h2),
    (_kernels.leverage_var_objective, _ref_leverage_var),
]


def _assert_rows_match(kernel, reference, A, B, Z):
    """The stack, each row alone (k = 1) and the reference agree bitwise:
    the values and status codes with the reference, the values, status
    codes and gradients with each row alone."""
    stacked = kernel(A, B, Z)
    alone = [kernel(A, B, z[None]) for z in Z]
    ref = [reference(A, B, z) for z in Z]
    assert np.array_equal(stacked[0], [r[0] for r in ref])
    assert np.array_equal(stacked[1], [r[1] for r in ref])
    for i, part in enumerate(stacked):
        assert part.tobytes() == np.concatenate([a[i] for a in alone]).tobytes()


@pytest.mark.parametrize("n,d", [(6, 2), (5, 3), (33, 7), (64, 8)])
def test_stacked_objectives_equal_single_point_references(n, d):
    g = generator(derive_seed(314, "stacked", n, d))
    A = g.standard_normal((n, d))
    B = A + 0.1 * g.standard_normal((n, d))
    k = 2 * max(n, d) + 1
    X = g.standard_normal((k, d))
    U = 0.5 + 1.5 * g.random((k, n))
    for kernel, reference in SOFTMAX:
        _assert_rows_match(kernel, reference, A, B, X)
    for kernel, reference in LEVERAGE:
        _assert_rows_match(kernel, reference, A, B, U)


OBJECTIVES = ["softmax_h2_objective", "softmax_var_objective", "leverage_h2_objective", "leverage_var_objective"]


def test_every_objective_returns_values_codes_and_gradients():
    # One contract for all four: (k,) values, (k,) status codes and a
    # (k, dim) gradient stack.  A softmax row whose logits overflow gets
    # STATUS_NON_FINITE from the kernel itself, with no RuntimeWarning.
    g = generator(derive_seed(314, "contract"))
    A = np.array([[1.0, 1.0], [-1.0, 0.5], [0.3, -2.0]])
    B = A + 0.1 * g.standard_normal(A.shape)
    X = np.array([[0.6, -0.8], [1e308, 1e308]])
    U = 0.5 + 1.5 * g.random((2, 3))
    for name, Z in zip(OBJECTIVES, (X, X, U, U)):
        values, codes, grad = getattr(_kernels, name)(A, B, Z)
        assert values.shape == codes.shape == (2,) and grad.shape == Z.shape, name
        overflows = name.startswith("softmax")  # A x overflows at the second x; no u overflows
        second = _kernels.STATUS_NON_FINITE if overflows else _kernels.STATUS_OK
        assert codes.tolist() == [_kernels.STATUS_OK, second], name


@pytest.mark.parametrize("n,d", [(6, 2), (5, 3), (33, 7), (64, 8)])
def test_stacked_gradients_equal_each_point_alone(n, d):
    # The gradient is the last part an objective returns.  The optimizer
    # keeps the row of an accepted rung, so that row must be bitwise what
    # the point's own call returns.
    g = generator(derive_seed(314, "gradient-stack", n, d))
    A = g.standard_normal((n, d))
    B = A + 0.1 * g.standard_normal((n, d))
    k = 2 * max(n, d) + 1
    X = g.standard_normal((k, d))
    U = 0.5 + 1.5 * g.random((k, n))
    for name, Z in zip(OBJECTIVES, (X, X, U, U)):
        kernel = getattr(_kernels, name)
        stacked = kernel(A, B, Z)[-1]
        assert stacked.shape == Z.shape
        for row, z in zip(stacked, Z):
            assert row.tobytes() == kernel(A, B, z[None])[-1][0].tobytes(), name


@pytest.mark.parametrize("n,d", [(6, 2), (5, 3), (33, 7), (64, 8)])
def test_per_row_matrix_stack_equals_each_problems_own_call(n, d):
    # Rows of different problems (same A, own B or M) in one call, as a
    # lockstep run over a sweep's grid makes them: each row must be bitwise
    # what its problem's own call gives, status codes included.  Problem 0's
    # B has a zero column, so its leverage rows are rank-deficient.
    g = generator(derive_seed(314, "per-row", n, d))
    A = g.standard_normal((n, d))
    Bs = A + g.standard_normal((5, n, d)) * np.array([0.05, 0.1, 0.2, 0.4, 0.8])[:, None, None]
    Bs[0, :, 0] = 0.0
    k = 3 * max(n, d) + 1
    problems = g.integers(0, len(Bs), k)
    X = g.standard_normal((k, d))
    U = 0.5 + 1.5 * g.random((k, n))
    for name, Z in zip(OBJECTIVES, (X, X, U, U)):
        kernel = getattr(_kernels, name)
        stacked = kernel(A, Bs[problems], Z)
        own = [kernel(A, Bs[q], z[None]) for q, z in zip(problems, Z)]
        for part, parts in zip(stacked, zip(*own)):
            assert part.tobytes() == np.concatenate(parts).tobytes(), name
    status = _kernels.leverage_h2_objective(A, Bs[problems], U)[1]
    assert set(status) == {_kernels.STATUS_OK, _kernels.STATUS_RANK_DEFICIENT}


def test_warmup_calls_every_gradient_kernel(monkeypatch):
    # The gradients come out of the objectives, so warmup() must call each
    # objective, and each call must return its gradient stack: otherwise the
    # lazy set-up of a gradient's matmul and solve calls would be paid
    # inside a timed run.  No gradient-only kernel is left to warm up.
    assert not [name for name in vars(_kernels) if name.endswith("_gradient")]
    called = []
    for name in OBJECTIVES:
        kernel = getattr(_kernels, name)

        def counted(A, X, Z, name=name, kernel=kernel):
            out = kernel(A, X, Z)
            called.append((name, out[-1].shape == Z.shape))
            return out

        monkeypatch.setattr(_kernels, name, counted)
    _kernels.warmup()
    assert sorted(called) == [(name, True) for name in sorted(OBJECTIVES)]


def test_stacked_leverage_statuses_match_row_by_row():
    # Rows of one stack: fine, rank-deficient (an identity row zeroed), and
    # zero leverage (a padding row zeroed, rank intact).
    A = padded_identity_instance(5, 2).A
    M = generator(derive_seed(314, "status")).standard_normal((5, 2))
    U = np.ones((3, 5))
    U[1, 1] = 0.0
    U[2, 3] = 0.0
    for kernel, reference in LEVERAGE:
        _assert_rows_match(kernel, reference, A, M, U)
    status = _kernels.leverage_var_objective(A, M, U)[1]
    assert status.tolist() == [
        _kernels.STATUS_OK,
        _kernels.STATUS_RANK_DEFICIENT,
        _kernels.STATUS_ZERO_LEVERAGE,
    ]


def test_last_axis_kernels_equal_their_rows():
    g = generator(derive_seed(314, "last-axis"))
    for n in (1, 2, 7, 8, 9, 130, 1000):
        L = 5.0 * g.standard_normal((6, n))
        P = _kernels.softmax_probs(L)
        for row, logits in zip(P, L):
            assert row.tobytes() == _kernels.softmax_probs(logits).tobytes()
        h2, t = _kernels.h2_tv(P[:3], P[3:])
        for i in range(3):
            h2_i, t_i = _kernels.h2_tv(P[i], P[3 + i])
            assert (h2[i], t[i]) == (h2_i, t_i)


@pytest.mark.parametrize("n,d", [(1, 1), (2, 3), (7, 2), (8, 3), (9, 1), (130, 5)])
def test_row_gram_gap_stack_equals_each_pair(n, d):
    g = generator(derive_seed(314, "rgg-stack", n, d))
    A = g.standard_normal((2, 5, n, d))
    B = A + g.standard_normal((2, 5, n, d)) * g.random((2, 5, 1, 1))
    A[0, 1, 0] = 0.0  # a zero row of A against a nonzero row of B
    B[0, 2] = 0.0  # a zero B
    A[1, 0], B[1, 0] = 0.0, 0.0  # both zero: an exact 0
    B[1, 1] = A[1, 1] * (1.0 + 1e-9) + g.standard_normal((n, d)) * 1e-10  # near-parallel rows
    B[1, 2] = A[1, 2]  # bitwise-equal rows: an exact 0
    gaps = _kernels.row_gram_gap(A, B)
    assert gaps.shape == (2, 5)
    for idx in np.ndindex(2, 5):
        assert gaps[idx].tobytes() == _kernels.row_gram_gap(A[idx], B[idx]).tobytes()
    assert gaps[1, 0] == gaps[1, 2] == 0.0
    assert 0.0 < gaps[1, 1] < 1e-6 * n


def test_leverage_probs_stack_equals_each_matrix():
    A = padded_identity_instance(6, 3).A
    deficient = A.copy()
    deficient[2] = 0.0
    g = generator(derive_seed(314, "lev-stack"))
    stack = np.stack([A * r for r in np.sqrt(0.5 + 1.5 * g.random((4, 6)))[:, :, None]] + [deficient])
    probs, lev, ok = _kernels.leverage_probs(stack)
    assert ok.tolist() == [True, True, True, True, False]
    for i, As in enumerate(stack):
        p1, l1, ok1 = _kernels.leverage_probs(As)
        assert probs[i].tobytes() == p1.tobytes() and lev[i].tobytes() == l1.tobytes()
        assert ok1 == ok[i]


def _assert_w_rows_match(As, Ms):
    """Each pair of a stack gives the single-matrix reference's parts bitwise,
    and so does the stack of one."""
    lev, wnum, ok = _kernels.leverage_w_parts(As, Ms)
    for idx in np.ndindex(As.shape[:-2]):
        ref_lev, ref_wnum, ref_ok = _ref_w_parts(As[idx], Ms[idx])
        alone = _kernels.leverage_w_parts(As[idx], Ms[idx])
        assert ok[idx] == ref_ok == alone[2]
        if ref_ok:
            assert lev[idx].tobytes() == alone[0].tobytes() == ref_lev.tobytes()
            assert wnum[idx].tobytes() == alone[1].tobytes() == ref_wnum.tobytes()
    return ok


@pytest.mark.parametrize("n,d", [(6, 2), (6, 3), (5, 3), (33, 7), (64, 8), (256, 16)])
def test_leverage_w_parts_stack_equals_single_matrix_reference(n, d):
    g = generator(derive_seed(314, "w-stack", n, d))
    A = g.standard_normal((n, d))
    M = g.standard_normal((n, d))
    R = np.sqrt(0.5 + 1.5 * g.random((5, n)))[:, :, None]
    _assert_w_rows_match(A * R, M * R)
    # a (2, 3, n, d) stack, and row 0 of a stack of one
    R = np.sqrt(0.5 + 1.5 * g.random((2, 3, n)))[..., None]
    _assert_w_rows_match(A * R, M * R)
    _assert_w_rows_match((A * R)[0, :1], (M * R)[0, :1])


def test_leverage_w_parts_flags_deficient_rows_and_leaves_the_rest():
    A = padded_identity_instance(6, 3).A
    g = generator(derive_seed(314, "w-deficient"))
    M = g.standard_normal((6, 3))
    R = np.sqrt(0.5 + 1.5 * g.random((5, 6)))[:, :, None]
    As, Ms = A * R, M * R
    As[1, 1] = 0.0  # zeroes the e1 row: rank 2
    As[3, :, 2] = 0.0  # zeroes column 2: rank 2
    ok = _assert_w_rows_match(As, Ms)
    assert ok.tolist() == [True, False, True, False, True]
    full = [0, 2, 4]
    lev, wnum, _ = _kernels.leverage_w_parts(As[full], Ms[full])
    mixed_lev, mixed_wnum, _ = _kernels.leverage_w_parts(As, Ms)
    assert mixed_lev[full].tobytes() == lev.tobytes()
    assert mixed_wnum[full].tobytes() == wnum.tobytes()


def test_backend_constant_is_consistent():
    assert _kernels.BACKEND == "numpy"


def test_rank_deficient_status_from_objectives():
    A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # rank 1
    ok = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    U = np.ones((1, 3))
    status = _kernels.leverage_h2_objective(A, ok, U)[1]
    assert status.tolist() == [_kernels.STATUS_RANK_DEFICIENT]
    status = _kernels.leverage_var_objective(A, ok, U)[1]
    assert status.tolist() == [_kernels.STATUS_RANK_DEFICIENT]


def test_zero_leverage_status_from_variance_objective():
    # full column rank, but the zero row has leverage exactly 0
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    M = np.ones((3, 2))
    val, status, _ = _kernels.leverage_var_objective(A, M, np.ones((1, 3)))
    assert status.tolist() == [_kernels.STATUS_ZERO_LEVERAGE]
    assert val.tolist() == [0.0]


def test_softmax_probs_is_shift_stable():
    logits = np.array([800.0, 0.0, -800.0])
    p = np.asarray(_kernels.softmax_probs(logits))
    assert np.isfinite(p).all()
    assert abs(p.sum() - 1.0) < 1e-15
    assert p[0] > 1.0 - 1e-12
