"""Hot numeric kernels, in numpy.

The four optimizer objectives (``softmax_h2_objective``,
``softmax_var_objective``, ``leverage_h2_objective``,
``leverage_var_objective``) take a stack of query points of shape
``(k, dim)`` and return ``k`` values; the leverage objectives also return
``k`` status codes.  A single point is the stack with ``k = 1``.  Every row
of a stack is bitwise equal to evaluating that point alone, because the
stacked code keeps the single-point arithmetic: matvecs are written as
``A[None] @ X[:, :, None]``, dots as stacked matmuls, QR factorizations and
solves run on ``(k, n, d)`` stacks, and sums run along the last axis.
(``X @ A.T``, ``einsum`` and ``(p * v).sum(axis=1)`` in place of ``p @ v``
reassociate and differ in the last bits.)

``softmax_probs`` and ``h2_tv`` work along the last axis, ``row_gram_gap``
sums along the last axis of a ``(..., n, d)`` stack of matrix pairs, and
``leverage_probs`` and ``leverage_w_parts`` factor a ``(..., n, d)`` stack in
one QR call, so one vector or matrix is the stack of one and every row of a
stack is bitwise equal to that row alone.  Each kernel has one
implementation, and results are bitwise deterministic.

Status codes returned by the leverage objectives:

* 0 -- fine
* 1 -- rank-deficient scaled matrix
* 2 -- a leverage score needed as divisor is numerically zero
"""

import numpy as np

BACKEND = "numpy"

_RANK_RTOL = 1e-12  # |R_kk| at or below _RANK_RTOL * max row norm => deficient
_LEV_FLOOR = 1e-12  # leverage scores at or below this cannot be divided by

STATUS_OK = 0
STATUS_RANK_DEFICIENT = 1
STATUS_ZERO_LEVERAGE = 2


# ---------------------------------------------------------------------------
# pmf, distance and helper kernels
# ---------------------------------------------------------------------------


def _softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _at_most_one(x):
    # A one-vector distance is a numpy float, which Python's min clamps for
    # a fraction of what a ufunc call costs on a scalar.
    return min(x, 1.0) if isinstance(x, float) else np.minimum(x, 1.0)


def _h2(P, Q):
    # 0.5 * sum (sqrt p - sqrt q)^2 equals 1 - sum sqrt(pq) but has no
    # cancellation: identical inputs give an exact zero and tiny distances
    # keep full relative accuracy.  A sum of squares cannot be negative, so
    # only the upper end of [0, 1] needs clamping (likewise for TV).
    # np.add.reduce is what ndarray.sum calls, minus a Python-level wrapper
    # that would cost a one-vector call more than the arithmetic does.
    r = np.sqrt(P) - np.sqrt(Q)
    return _at_most_one(0.5 * np.add.reduce(r * r, axis=-1))


# The objectives call the private names, so a caller that rebinds the public
# kernel sees only the calls made from outside this module.
softmax_probs = _softmax


def h2_tv(p, q):
    return _h2(p, q), _at_most_one(0.5 * np.add.reduce(np.abs(p - q), axis=-1))


def row_gram_gap(A, B):
    """sum_i || B_i B_i^T - A_i A_i^T ||_op over the rows of each (A, B) pair
    in a ``(..., n, d)`` stack, one value per pair."""
    # Per row, the difference b b^T - a a^T acts only on span{a, b}; its
    # operator norm is the largest |eigenvalue| of the 2x2 restriction to an
    # orthonormal basis of that span, which has a closed form.  The off-axis
    # component comes from an explicit residual b - (a.b/|a|^2) a rather than
    # nb2 - b1^2, which cancels catastrophically for near-parallel rows, and
    # the diagonal term is kept in product form so bitwise-equal rows give an
    # exact zero.
    na2 = (A * A).sum(axis=-1)
    nb2 = (B * B).sum(axis=-1)
    ab = (A * B).sum(axis=-1)
    safe = na2 > 0.0
    den = np.where(safe, na2, 1.0)
    R = B - (ab / den)[..., None] * A
    b2sq = (R * R).sum(axis=-1)
    m11 = (ab - na2) * (ab + na2) / den
    m12 = (ab / np.sqrt(den)) * np.sqrt(b2sq)
    half_tr = 0.5 * (m11 + b2sq)
    disc = np.sqrt((0.5 * (m11 - b2sq)) ** 2 + m12 * m12)
    op = np.maximum(np.abs(half_tr + disc), np.abs(half_tr - disc))
    op = np.where(safe, op, nb2)
    return op.sum(axis=-1)


def _checked_qr(As):
    """Thin QR of each matrix in a stack, and whether it is numerically full rank."""
    thresh = _RANK_RTOL * np.sqrt((As * As).sum(axis=-1).max(axis=-1))
    Q, R = np.linalg.qr(As)
    ok = np.abs(np.diagonal(R, axis1=-2, axis2=-1)).min(axis=-1) > thresh
    return Q, R, ok


# ---------------------------------------------------------------------------
# stacked objectives: row j of X (or U) is one query point
# ---------------------------------------------------------------------------


def _matvec(A, X):
    return (A[None] @ X[:, :, None])[:, :, 0]


def _dot(p, v):
    return (p[:, None, :] @ v[:, :, None])[:, 0, 0]


def _variance(p, v):
    mean = _dot(p, v)
    d = v - mean[:, None]
    return _dot(p, d * d)


def _leverage_stack(As):
    """Leverage distribution and scores of each matrix in a stack, and
    whether it is numerically full rank.  Q is squared in place and freed on
    return, so the Q factors of one stack are gone before the next stack is
    factored."""
    Q, _, ok = _checked_qr(As)
    lev = np.square(Q, out=Q).sum(axis=-1)
    return lev / As.shape[-1], lev, ok


leverage_probs = _leverage_stack


def _w_stack(As, Ms):
    """Leverage scores and diag((I - Pi) Ms (As^T As)^{-1} As^T) of each
    (As, Ms) pair in a ``(..., n, d)`` stack via one QR call, and whether
    each As is numerically full rank.

    Pi is the orthogonal projector onto the column space of As.  Everything
    is assembled from the thin factor Q, so no n-by-n matrix is ever formed.
    A deficient factor is swapped for the identity so that the stacked solve
    cannot fail; its pair's scores mean nothing.
    """
    Q, R, ok = _checked_qr(As)
    R = np.where(ok[..., None, None], R, np.eye(As.shape[-1]))
    # Ms R^{-1} without forming the inverse
    F = np.swapaxes(np.linalg.solve(np.swapaxes(R, -1, -2), np.swapaxes(Ms, -1, -2)), -1, -2)
    QG = Q @ (np.swapaxes(Q, -1, -2) @ F)
    wnum = (F * Q).sum(axis=-1) - (QG * Q).sum(axis=-1)
    lev = (Q * Q).sum(axis=-1)
    return lev, wnum, ok


leverage_w_parts = _w_stack


def softmax_h2_objective(A, B, X):
    """H^2 between softmax(A x) and softmax(B x) for each row x of X."""
    return _h2(_softmax(_matvec(A, X)), _softmax(_matvec(B, X)))


def softmax_var_objective(A, M, X):
    """Var_{softmax(A x)}(M x) for each row x of X."""
    return _variance(_softmax(_matvec(A, X)), _matvec(M, X))


def leverage_h2_objective(A, B, U):
    """H^2 between the leverage distributions of diag(sqrt(u)) A and
    diag(sqrt(u)) B for each row u of U, and a status code per row."""
    r = np.sqrt(U)[:, :, None]
    pa, _, ok_a = _leverage_stack(A * r)
    pb, _, ok_b = _leverage_stack(B * r)
    ok = ok_a & ok_b
    return np.where(ok, _h2(pa, pb), 0.0), np.where(ok, STATUS_OK, STATUS_RANK_DEFICIENT)


def leverage_var_objective(A, M, U):
    """Variance of the response ratio w = wnum / lev (see leverage_w_parts)
    under the leverage distribution of diag(sqrt(u)) A, toward M, for each
    row u of U, and a status code per row."""
    r = np.sqrt(U)[:, :, None]
    lev, wnum, ok = _w_stack(A * r, M * r)
    lev_ok = lev.min(axis=-1) > _LEV_FLOOR
    good = ok & lev_ok
    lev = np.where(good[:, None], lev, 1.0)
    status = np.where(ok, np.where(lev_ok, STATUS_OK, STATUS_ZERO_LEVERAGE), STATUS_RANK_DEFICIENT)
    return np.where(good, _variance(lev / A.shape[1], wnum / lev), 0.0), status


def warmup():
    """Call every kernel once, so that lazy set-up in numpy and LAPACK is
    done before anything is timed."""
    A = np.array([[0.3, -0.2], [0.1, 0.9], [-0.5, 0.4]])
    B = A + 0.01
    x = np.array([0.6, -0.8])
    u = np.array([0.9, 1.1, 1.0])
    p = softmax_probs(A @ x)
    q = softmax_probs(B @ x)
    h2_tv(p, q)
    row_gram_gap(A, B)
    softmax_h2_objective(A, B, x[None])
    softmax_var_objective(A, B, x[None])
    leverage_probs(A)
    leverage_w_parts(A, B)
    leverage_h2_objective(A, B, u[None])
    leverage_var_objective(A, B, u[None])
