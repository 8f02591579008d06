"""Small dense linear-algebra layer used by the training path.

Everything is plain float64 ndarrays. The three entry points cover exactly
what the trainers need: a checked matrix product, a symmetric
positive-definite solve (Cholesky), and a full-rank pseudoinverse via the
normal equations with a defining-identity self-check.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Checked dense product of two 2-D float64 matrices."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    return a @ b


def load_solver():
    """scipy's Cholesky pair ``(cho_factor, cho_solve)``, imported on first call.

    scipy.linalg is most of the import time of elmloc and only training
    solves, so importing elmloc does not import it. A process that is about
    to train calls this before it allocates its data: imported in the middle
    of a fit instead, the peak RSS of identical ``elmloc sweep`` runs landed
    on either of two values 12 MB apart, depending on whether the kernel
    backed the heap with transparent huge pages.
    """
    from scipy.linalg import cho_factor, cho_solve

    return cho_factor, cho_solve


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for symmetric positive-definite a via Cholesky."""
    a = _as_matrix(a, "a")
    b_arr = np.asarray(b, dtype=np.float64)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"a must be square, got shape {a.shape}")
    if b_arr.shape[0] != a.shape[0]:
        raise ValueError(f"b has {b_arr.shape[0]} rows, a is {a.shape[0]}x{a.shape[1]}")
    if not np.allclose(a, a.T, rtol=1e-10, atol=1e-12):
        raise LinAlgError("matrix is not symmetric")
    cho_factor, cho_solve = load_solver()
    c, lower = cho_factor(a)  # raises LinAlgError when not positive definite
    return cho_solve((c, lower), b_arr)


def pinv(a: np.ndarray, rtol: float = 1e-6) -> np.ndarray:
    """Moore-Penrose inverse of a full-rank matrix.

    Tall inputs use (A^T A)^-1 A^T, wide ones A^T (A A^T)^-1; square inputs
    take the tall route. The result is verified against A P A = A (relative
    Frobenius error <= rtol) so silent rank deficiency cannot slip through.
    """
    a = _as_matrix(a, "a")
    m, n = a.shape
    try:
        if m >= n:
            p = solve_spd(a.T @ a, a.T)
        else:
            p = solve_spd(a @ a.T, a).T
    except LinAlgError:
        raise LinAlgError(f"matrix of shape {a.shape} is rank deficient") from None
    denom = np.linalg.norm(a)
    if denom == 0.0:
        raise LinAlgError("cannot invert an all-zero matrix")
    residual = np.linalg.norm(a @ p @ a - a) / denom
    if residual > rtol:
        raise LinAlgError(
            f"pseudoinverse self-check failed (relative residual {residual:.3e}); "
            "matrix is rank deficient or too ill-conditioned"
        )
    return p
