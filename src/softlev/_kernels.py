"""Hot numeric kernels, in numpy.

The four optimizer objectives (``softmax_h2_objective``,
``softmax_var_objective``, ``leverage_h2_objective``,
``leverage_var_objective``) take a stack of query points of shape
``(k, dim)`` and return ``k`` values, ``k`` status codes, and the
``(k, dim)`` stack of their closed-form gradients.  A gradient row is built
from the softmax or the QR factors that its value already computed, and
every sum over the n rows comes from d-by-d matrices; it means something
only where the row's status is OK.  A single
point is the stack with ``k = 1``.  The second matrix (B or M) is either one
``(n, d)`` matrix shared by every row or a ``(k, n, d)`` stack holding each
row's own, so rows of different problems with the same A evaluate in one
call.  Every row of a stack, gradient included, is bitwise equal to
evaluating that point alone, because the stacked code keeps the
single-point arithmetic: matvecs are written as ``A @ X[:, :, None]``, dots
as stacked matmuls, QR factorizations and solves run on ``(k, n, d)``
stacks, and sums run along the last axis.  (``X @ A.T``, ``einsum`` and
``(p * v).sum(axis=1)`` in place of ``p @ v`` reassociate and differ in the
last bits.)

``softmax_probs`` and ``h2_tv`` work along the last axis, ``row_gram_gap``
sums along the last axis of a ``(..., n, d)`` stack of matrix pairs,
``min_eigenvalue`` takes a ``(..., d, d)`` stack of symmetric matrices, and
``leverage_probs`` and ``leverage_w_parts`` factor a ``(..., n, d)`` stack in
one QR call, so one vector or matrix is the stack of one and every row of a
stack is bitwise equal to that row alone.  Each kernel has one
implementation, and results are bitwise deterministic.  ``_pow2_rows`` owns
the row norm that survives overflow and underflow.  ``BACKEND`` and
``warmup`` serve the benchmark's report and timing.

Status codes, as the objectives return them (a softmax row gets 0 or 3):

* 0 -- fine
* 1 -- rank-deficient scaled matrix
* 2 -- a leverage score needed as divisor is numerically zero
* 3 -- a factor or the value is not finite: the entries are too big
"""

import numpy as np

BACKEND = "numpy"

_RANK_RTOL = 1e-12  # |R_kk| at or below _RANK_RTOL * max row norm => deficient
_LEV_FLOOR = 1e-12  # leverage scores at or below this cannot be divided by

STATUS_OK = 0
STATUS_RANK_DEFICIENT = 1
STATUS_ZERO_LEVERAGE = 2
STATUS_NON_FINITE = 3


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


# The objectives call _softmax, so a caller that rebinds softmax_probs sees
# only the calls made from outside this module.
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


def min_eigenvalue(S):
    """Smallest eigenvalue of each symmetric matrix in a ``(..., d, d)``
    stack: closed forms for d = 1 and 2, ``numpy.linalg.eigvalsh`` above."""
    d = S.shape[-1]
    if d == 1:
        return S[..., 0, 0]
    if d == 2:
        half_tr = 0.5 * (S[..., 0, 0] + S[..., 1, 1])
        return half_tr - np.hypot(0.5 * (S[..., 0, 0] - S[..., 1, 1]), S[..., 0, 1])
    return np.linalg.eigvalsh(S)[..., 0]


def _pow2_rows(X):
    """Each row of a ``(..., n, d)`` stack divided by the power of two 2^e at
    its largest |entry| (frexp gives a zero or inf entry e = 0), the scaled
    sums of squares, and the row norms ldexp(sqrt(sum), e): exact at any
    scale, and inf, with no warning, past the float range.  Where the plain
    squares and their sum are safe, the scaled ones keep their bits."""
    _, e = np.frexp(np.abs(X).max(axis=-1))
    Y = np.ldexp(X, -e[..., None])
    sq = (Y * Y).sum(axis=-1)
    with np.errstate(over="ignore"):
        return Y, sq, np.ldexp(np.sqrt(sq), e)


def _max_row_norm(X):
    """The largest Euclidean row norm of each matrix in a ``(..., n, d)``
    stack: the plain norm, or the ``_pow2_rows`` one where the plain norm is
    not finite (a square overflowed) or below 2^-480 (a square that counts
    may have underflowed).  The scaled form alone would cost 4-6 times as
    much on the ascent's QR stacks."""
    with np.errstate(over="ignore"):
        norm = np.sqrt((X * X).sum(axis=-1).max(axis=-1))
    redo = ~(np.isfinite(norm) & (norm >= 2.0**-480))
    return np.where(redo, _pow2_rows(X)[2].max(axis=-1), norm) if redo.any() else norm


def _checked_qr(As):
    """Thin QR of each matrix in a stack, and whether it is numerically full rank."""
    thresh = _RANK_RTOL * _max_row_norm(As)
    Q, R = np.linalg.qr(As)
    ok = np.abs(np.diagonal(R, axis1=-2, axis2=-1)).min(axis=-1) > thresh
    return Q, R, ok


# ---------------------------------------------------------------------------
# stacked objectives: row j of X (or U) is one query point
# ---------------------------------------------------------------------------


def _t(X):
    return np.swapaxes(X, -1, -2)


def _matvec(A, X):
    """A x for each row x of X; A is one matrix or one per row."""
    return (A @ X[:, :, None])[:, :, 0]


def _vecmat(A, C):
    """A^T c for each row c of C; A is one matrix or one per row."""
    return (C[:, None, :] @ A)[:, 0, :]


def _dot(p, v):
    return (p[:, None, :] @ v[:, :, None])[:, 0, 0]


def leverage_probs(As):
    """Leverage distribution and scores of each matrix in a stack, and
    whether it is numerically full rank.  Q is squared in place and freed on
    return."""
    Q, _, ok = _checked_qr(As)
    lev = np.square(Q, out=Q).sum(axis=-1)
    return lev / As.shape[-1], lev, ok


def _w_factors(As, Ms):
    """The parts of ``leverage_w_parts`` and the factors they come from: the
    thin Q of each As, F = Ms R^{-1} and S = Q^T F, then the leverage
    scores, wnum and ok.

    Pi = Q Q^T is the orthogonal projector onto the column space of As, so
    wnum = diag((I - Pi) Ms (As^T As)^{-1} As^T) = rowsum(F Q) - rowsum(Q S Q).
    A deficient factor is swapped for the identity so that the stacked solve
    cannot fail; its pair's factors and scores mean nothing.
    """
    Q, R, ok = _checked_qr(As)
    R = np.where(ok[..., None, None], R, np.eye(As.shape[-1]))
    # Ms R^{-1} without forming the inverse
    F = _t(np.linalg.solve(_t(R), _t(Ms)))
    S = _t(Q) @ F
    wnum = (F * Q).sum(axis=-1) - ((Q @ S) * Q).sum(axis=-1)
    return Q, F, S, (Q * Q).sum(axis=-1), wnum, ok


def leverage_w_parts(As, Ms):
    """Leverage scores and diag((I - Pi) Ms (As^T As)^{-1} As^T) of each
    (As, Ms) pair in a ``(..., n, d)`` stack via one QR call, and whether
    each As is numerically full rank.

    Pi is the orthogonal projector onto the column space of As.  Everything
    is assembled from the thin factor Q, so no n-by-n matrix is ever formed.
    A deficient pair's scores mean nothing.
    """
    return _w_factors(As, Ms)[3:]


# ---------------------------------------------------------------------------
# gradient parts, from the factors that the objectives' values computed
# ---------------------------------------------------------------------------


def _softmax_pull(A, p, c):
    """sum_i c_i grad_x log p_i(x) = A^T c - (sum c) A^T p, with p = softmax(A x)."""
    return _vecmat(A, c) - c.sum(axis=-1)[:, None] * _vecmat(A, p)


def _hat_weighted(Q, c):
    """sum_i c_i P_ij^2 for each j, where P = Q Q^T is the hat matrix: the
    quadratic form q_j^T (Q^T diag(c) Q) q_j, so no n-by-n matrix is formed."""
    return ((Q @ (_t(Q) @ (c[..., None] * Q))) * Q).sum(axis=-1)


def _leverage_h2_part(Q, tau, other):
    """sum_i c_i (delta_ij tau_i - P_ij^2) for each j, with c_i the partial
    derivative of H^2 in p_i = tau_i / d, which is (1 - sqrt(other_i / tau_i)) / 2.
    A row with tau_i = 0 has a zero row of Q, so P_ij = 0 for every j and
    its weight is never used; it is guarded so that it is never divided."""
    ratio = np.divide(other, tau, out=np.zeros_like(tau), where=tau > 0.0)
    c = 0.5 * (1.0 - np.sqrt(ratio))
    return c * tau - _hat_weighted(Q, c)


def _leverage_var_part(Q, F, S, lev, w, mu, delta):
    """d u_j times the gradient of the leverage variance, from the factors
    of ``_w_factors`` and the ratio w, its mean mu and delta = w - mu.

    With G = (A^T U A)^{-1} and S = A^T U M, the ratio is
    w_i = (m_i^T G a_i - a_i^T G S G a_i) / (a_i^T G a_i), and
    dG/du_j = -G a_j a_j^T G, dS/du_j = a_j m_j^T.  In the basis of the
    thin QR of diag(sqrt(u)) A, where G a_i = R^{-1} q_i / sqrt(u_i), every
    sum over i becomes a d-by-d matrix (Q^T diag(.) Q, Q^T diag(.) F, or
    S = Q^T F with F = diag(sqrt(u)) M R^{-1}), so a point costs O(n d^2).
    Under p = tau / d, the gradient is
    (delta_j^2 tau_j + q_j^T T q_j - 2 q_j^T W f_j) / (d u_j), where q_j and
    f_j are rows of Q and F, W = Q^T diag(delta) Q and
    T = Q^T diag(delta (w + mu)) Q + 2 (W (S + S^T) - Q^T diag(delta) F)."""
    Qt = _t(Q)
    W = Qt @ (delta[..., None] * Q)
    T = Qt @ ((delta * (w + mu))[..., None] * Q) + 2.0 * (W @ (S + _t(S)) - Qt @ (delta[..., None] * F))
    return delta * delta * lev + ((Q @ T) * Q).sum(axis=-1) - 2.0 * ((Q @ W) * F).sum(axis=-1)


# ---------------------------------------------------------------------------
# stacked objectives: row j of X (or U) is one query point, and row j of the
# gradient stack is the gradient there
# ---------------------------------------------------------------------------


def softmax_h2_objective(A, B, X):
    """H^2 between softmax(A x) and softmax(B x) for each row x of X, and
    its gradient.

    With p = softmax(A x), q = softmax(B x) and r = sqrt(p q), the partial
    derivative of H^2 = (sum p + sum q)/2 - sum r in log p_i is (p_i - r_i)/2,
    and likewise in log q_i.  Nothing is divided, so a p_i that underflows to
    0 is harmless; a row whose logits overflow fails, by its status code."""
    with np.errstate(over="ignore", invalid="ignore"):
        p, q = _softmax(np.stack((_matvec(A, X), _matvec(B, X))))
        r = np.sqrt(p * q)
        values = _h2(p, q)
        grad = _softmax_pull(A, p, 0.5 * (p - r)) + _softmax_pull(B, q, 0.5 * (q - r))
    return values, np.where(np.isfinite(values), STATUS_OK, STATUS_NON_FINITE), grad


def softmax_var_objective(A, M, X):
    """Var_{softmax(A x)}(M x) for each row x of X, and its gradient: with
    v = M x and delta = v - p.v, it is sum_i p_i delta_i^2 grad log p_i
    + 2 M^T (p delta).  A row whose value overflows fails, by its status code."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = _softmax(_matvec(A, X))
        v = _matvec(M, X)
        delta = v - _dot(p, v)[:, None]
        pd = p * delta
        values = _dot(p, delta * delta)
        grad = _softmax_pull(A, p, pd * delta) + 2.0 * _vecmat(M, pd)
    return values, np.where(np.isfinite(values), STATUS_OK, STATUS_NON_FINITE), grad


def leverage_h2_objective(A, B, U):
    """H^2 between the leverage distributions of diag(sqrt(u)) A and
    diag(sqrt(u)) B for each row u of U, a status code per row, and the
    gradient.

    The leverage scores tau of diag(sqrt(u)) A move as
    d tau_i / d u_j = (delta_ij tau_i - P_ij^2) / u_j, with P the hat matrix
    of diag(sqrt(u)) A; likewise for B."""
    d = A.shape[1]
    r = np.sqrt(U)[:, :, None]
    Q, _, (ok_a, ok_b) = _checked_qr(np.stack((A * r, B * r)))
    # A QR that overflowed gives scores that are not finite (the row's
    # status says so), and a u_j = 0, which no box holds, is divided by.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ta, tb = (Q * Q).sum(axis=-1)
        h2 = _h2(ta / d, tb / d)
        grad = (_leverage_h2_part(Q[0], ta, tb) + _leverage_h2_part(Q[1], tb, ta)) / (d * U)
    finite = np.isfinite(ta).all(axis=-1) & np.isfinite(tb).all(axis=-1)
    status = np.where(finite, np.where(ok_a & ok_b, STATUS_OK, STATUS_RANK_DEFICIENT), STATUS_NON_FINITE)
    return np.where(status == STATUS_OK, h2, 0.0), status, grad


def leverage_var_objective(A, M, U):
    """Variance of the response ratio w = wnum / lev (see leverage_w_parts)
    under the leverage distribution of diag(sqrt(u)) A, toward M, for each
    row u of U, a status code per row, and the gradient (see
    ``_leverage_var_part``)."""
    d = A.shape[1]
    r = np.sqrt(U)[:, :, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in leverage_h2_objective
        Q, F, S, lev, wnum, ok = _w_factors(A * r, M * r)
        finite = np.isfinite(lev).all(axis=-1) & np.isfinite(wnum).all(axis=-1)
        lev_ok = lev.min(axis=-1) > _LEV_FLOOR
        status = np.where(ok, np.where(lev_ok, STATUS_OK, STATUS_ZERO_LEVERAGE), STATUS_RANK_DEFICIENT)
        status = np.where(finite, status, STATUS_NON_FINITE)
        lev = np.where((status == STATUS_OK)[:, None], lev, 1.0)
        p = lev / d
        w = wnum / lev
        mu = _dot(p, w)[:, None]
        delta = w - mu
        value = _dot(p, delta * delta)
        grad = _leverage_var_part(Q, F, S, lev, w, mu, delta) / (d * U)
    status = np.where(np.isfinite(value) | (status != STATUS_OK), status, STATUS_NON_FINITE)
    return np.where(status == STATUS_OK, value, 0.0), status, grad


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
