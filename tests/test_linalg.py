import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elmloc.linalg import cholesky, matmul, solve_cholesky, solve_spd


def matmul_oracle(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def gauss_jordan_inverse(a):
    """Textbook row-reduction inverse with partial pivoting."""
    n = a.shape[0]
    aug = np.hstack([a.astype(np.float64), np.eye(n)])
    for col in range(n):
        p = col + np.argmax(np.abs(aug[col:, col]))
        aug[[col, p]] = aug[[p, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def _spd(rng, n):
    r = rng.normal(size=(n, n))
    return r.T @ r + n * np.eye(n)


class TestMatmul:
    def test_against_loop_oracle(self, rng):
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 3))
        assert matmul(a, b) == pytest.approx(matmul_oracle(a, b), abs=1e-12)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_oracle_random_shapes(self, n, k, m, seed):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=(n, k)), r.normal(size=(k, m))
        assert matmul(a, b) == pytest.approx(matmul_oracle(a, b), rel=1e-10, abs=1e-10)

    def test_inner_dim_mismatch(self):
        with pytest.raises(ValueError):
            matmul(np.ones((2, 3)), np.ones((4, 2)))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            matmul(np.ones(3), np.ones((3, 2)))

    def test_nan_rejected(self):
        a = np.array([[np.nan, 1.0]])
        with pytest.raises(ValueError):
            matmul(a, np.ones((2, 1)))


class TestSolveSpd:
    def test_against_inverse_oracle(self, rng):
        a = _spd(rng, 8)
        b = rng.normal(size=(8, 3))
        expected = gauss_jordan_inverse(a) @ b
        assert solve_spd(a, b) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(st.integers(2, 10), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_residual_random_spd(self, n, seed):
        r = np.random.default_rng(seed)
        a = _spd(r, n)
        b = r.normal(size=(n, 2))
        x = solve_spd(a, b)
        assert a @ x == pytest.approx(b, rel=1e-8, abs=1e-8)

    def test_identity(self):
        b = np.arange(6.0).reshape(3, 2)
        assert solve_spd(np.eye(3), b) == pytest.approx(b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_spd(np.eye(3), np.ones((4, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, bad):
        b = np.ones((3, 2))
        b[1, 0] = bad
        with pytest.raises(ValueError, match="b contains non-finite values"):
            solve_spd(np.eye(3), b)


#: Relative (Frobenius) residual allowed when a leading block of one factor
#: solves the leading block of the system; the test matrices are well conditioned.
BLOCK_RTOL = 1e-10


class TestCholesky:
    @pytest.mark.parametrize("a, error, message", [
        (np.ones((2, 3)), ValueError, r"^a must be square, got shape \(2, 3\)$"),
        (np.array([[2.0, 1.0], [0.0, 2.0]]), np.linalg.LinAlgError, r"^matrix is not symmetric$"),
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), ValueError, r"^a contains non-finite values$"),
        (np.array([[1.0, 0.0], [0.0, -2.0]]), np.linalg.LinAlgError, None),
    ], ids=["non_square", "non_symmetric", "non_finite", "not_positive_definite"])
    def test_rejected(self, a, error, message):
        # solve_spd factors first, so it rejects each of these alike
        with pytest.raises(error, match=message):
            cholesky(a)
        with pytest.raises(error, match=message):
            solve_spd(a, np.ones((a.shape[0], 1)))

    @given(st.integers(2, 12), st.data(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_leading_block_solves_leading_system(self, n, data, seed):
        k = data.draw(st.integers(1, n), label="k")
        r = np.random.default_rng(seed)
        a = _spd(r, n)
        b = r.normal(size=(n, 3))
        x = solve_cholesky(cholesky(a)[:k, :k], b[:k])
        residual = a[:k, :k] @ x - b[:k]
        assert np.linalg.norm(residual) <= BLOCK_RTOL * np.linalg.norm(b[:k])
