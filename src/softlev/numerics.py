"""Small dense-matrix helpers: input coercion, Gram matrices, extremal
eigenvalues and norms.

Everything here operates on float64 arrays of modest size (hundreds of rows,
tens of columns); the heavy lifting is delegated to LAPACK through numpy.
"""

import numpy as np

from . import _kernels
from .errors import ShapeMismatch


def as_matrix(A, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array, or with ``stack`` a stack
    of them, validating finiteness."""
    arr = np.ascontiguousarray(A, dtype=np.float64)
    if (arr.ndim < 2 if stack else arr.ndim != 2) or arr.size < 1:
        kind = "2-D or a stack of 2-D" if stack else "2-D"
        raise ShapeMismatch(f"{name} must be {kind} with at least one row and column, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    return arr


def as_vector(x, name: str = "vector", stack: bool = False) -> np.ndarray:
    """Coerce to a C-contiguous float64 1-D array, or with ``stack`` a stack
    of them, validating finiteness."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if (arr.ndim < 1 if stack else arr.ndim != 1) or arr.size < 1:
        kind = "1-D or a stack of 1-D" if stack else "1-D"
        raise ShapeMismatch(f"{name} must be {kind} and non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    return arr


def gram(A) -> np.ndarray:
    """A^T A, symmetrized so that G[i, j] == G[j, i] holds exactly.

    Floating-point matmul does not guarantee bitwise symmetry, so the strict
    upper triangle is computed once and mirrored.
    """
    A = as_matrix(A, "A")
    G = A.T @ A
    return np.triu(G) + np.triu(G, 1).T


def min_eigenvalue(S) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    Sizes one and two use closed forms; larger matrices go through
    ``numpy.linalg.eigvalsh``.
    """
    S = as_matrix(S, "S")
    d = S.shape[0]
    if S.shape[1] != d or not np.array_equal(S, S.T):
        raise ShapeMismatch("S must be square and exactly symmetric")
    return float(_kernels.min_eigenvalue(S))


def two_to_infty_norm(A) -> float:
    """Largest Euclidean row norm, max_i ||A_i||_2, exact at any scale."""
    return float(_kernels._max_row_norm(as_matrix(A, "A")))


def row_gram_gap(A, B) -> float:
    """sum_i || B_i B_i^T - A_i A_i^T ||_op over rows.

    Each summand is the operator norm of a symmetric matrix of rank at most
    two, so it reduces to a 2x2 eigenvalue problem per row -- no d-by-d
    eigendecompositions.  Bitwise-equal inputs give an exact zero.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape != B.shape:
        raise ShapeMismatch(f"A and B must share a shape, got {A.shape} vs {B.shape}")
    return float(_kernels.row_gram_gap(A, B))

