import numpy as np
import pytest

from hybridcast import numcore
from hybridcast.errors import ParameterError, ShapeError, SingularityError


class TestSolveSpd:
    def test_diagonal(self):
        assert numcore.solve_spd(2.0 * np.eye(2), [2.0, 4.0]) == pytest.approx([1.0, 2.0])

    def test_identity(self, rng):
        v = rng.standard_normal(3)
        assert numcore.solve_spd(np.eye(3), v) == pytest.approx(v)

    def test_hand_elimination(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        b = np.array([2.0, 1.0])
        x = numcore.solve_spd(a, b)
        assert x == pytest.approx([0.5, 0.0])
        assert a @ x == pytest.approx(b)

    def test_not_spd(self):
        with pytest.raises(SingularityError):
            numcore.solve_spd(np.array([[1.0, 0.0], [0.0, -1.0]]), [1.0, 1.0])

    def test_not_symmetric(self):
        with pytest.raises(ShapeError):
            numcore.solve_spd(np.array([[1.0, 0.5], [0.0, 1.0]]), [1.0, 1.0])

    def test_roundtrip_random_spd(self, rng):
        for _ in range(10):
            m = rng.standard_normal((5, 5))
            a = m.T @ m + np.eye(5)
            x = rng.standard_normal(5)
            solved = numcore.solve_spd(a, a @ x)
            assert np.max(np.abs(solved - x)) <= 1e-8

    def test_residual_bound(self, rng):
        m = rng.standard_normal((6, 6))
        a = m.T @ m + np.eye(6)
        b = rng.standard_normal(6)
        x = numcore.solve_spd(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-8 * (1 + np.max(np.abs(b)))


class TestSymEigenvalues:
    def test_diagonal_sorted_descending(self):
        assert numcore.sym_eigenvalues(np.diag([3.0, 1.0, 2.0])) == pytest.approx([3.0, 2.0, 1.0])

    def test_two_by_two_hand_characteristic_polynomial(self):
        # det([[2-t,1],[1,2-t]]) = 0  =>  t in {3, 1}
        assert numcore.sym_eigenvalues([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx([3.0, 1.0])

    def test_identity(self):
        assert numcore.sym_eigenvalues(np.eye(4)) == pytest.approx(np.ones(4))

    def test_not_symmetric(self):
        with pytest.raises(ShapeError):
            numcore.sym_eigenvalues([[1.0, 2.0], [0.0, 1.0]])

    def test_trace_identity(self, rng):
        for _ in range(10):
            m = rng.standard_normal((6, 6))
            a = (m + m.T) / 2
            vals = numcore.sym_eigenvalues(a)
            assert vals.sum() == pytest.approx(np.trace(a), abs=1e-9)

    def test_gram_matrix_nonnegative(self, rng):
        x = rng.standard_normal((20, 5))
        vals = numcore.sym_eigenvalues(x.T @ x)
        assert np.all(vals >= -1e-10)


class TestRng:
    def test_sd_zero_degenerate(self):
        assert numcore.Rng(1).normal(3, mean=5.0, sd=0.0) == pytest.approx([5.0, 5.0, 5.0])

    def test_same_seed_identical(self):
        a = numcore.Rng(42).normal(100)
        b = numcore.Rng(42).normal(100)
        assert np.array_equal(a, b)

    def test_bitwise_stream_reproducibility(self):
        r1, r2 = numcore.Rng(9), numcore.Rng(9)
        for _ in range(5):
            assert np.array_equal(r1.normal(17), r2.normal(17))
            assert np.array_equal(r1.permutation(23), r2.permutation(23))

    def test_negative_sd(self):
        with pytest.raises(ParameterError):
            numcore.Rng(1).normal(3, sd=-1.0)

    def test_clt_bound(self):
        # 3 sigma band: 3 / sqrt(1e5) < 0.01
        draws = numcore.Rng(2024).normal(100_000, mean=0.0, sd=1.0)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.std(ddof=1) - 1.0) < 0.01
