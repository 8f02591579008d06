"""Small dense linear-algebra layer used by the training path.

Everything is plain float64 ndarrays: a checked matrix product, and a
symmetric positive-definite solve split into its two halves, a checked
Cholesky factor and two solves from that factor. ``solve_spd`` is both
halves in a row.
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


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite a.

    Its leading L x L block is the factor of a's leading L x L block, so one
    factor serves every leading block of a.
    """
    a = _as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"a must be square, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=1e-10, atol=1e-12):
        raise LinAlgError("matrix is not symmetric")
    return np.linalg.cholesky(a)  # raises LinAlgError when not positive definite


def solve_cholesky(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (low low^T) x = b for the lower factor ``low`` that ``cholesky`` made."""
    b = _as_matrix(b, "b")
    if b.shape[0] != low.shape[0]:
        raise ValueError(f"b has {b.shape[0]} rows, a is {low.shape[0]}x{low.shape[1]}")
    return np.linalg.solve(low.T, np.linalg.solve(low, b))


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for symmetric positive-definite a via Cholesky."""
    return solve_cholesky(cholesky(a), b)
