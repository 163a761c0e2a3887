import numpy as np
import pytest

from hybridcast import numcore
from hybridcast.errors import ShapeError, SingularityError


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
    """numcore.generator, the seeded random source of model init, panel draws and gradcheck data."""

    def test_same_seed_identical(self):
        a = numcore.generator(42).normal(size=100)
        b = numcore.generator(42).normal(size=100)
        assert np.array_equal(a, b)

    def test_bitwise_stream_reproducibility(self):
        r1, r2 = numcore.generator(9), numcore.generator(9)
        for _ in range(5):
            assert np.array_equal(r1.normal(size=17), r2.normal(size=17))
            assert np.array_equal(r1.uniform(-1.0, 1.0, size=(2, 3)), r2.uniform(-1.0, 1.0, size=(2, 3)))
            assert np.array_equal(r1.permutation(23), r2.permutation(23))

    @pytest.mark.parametrize("seed,pcg_seed", [(0, 0), (1, 1), (31679, 31679), (2**63, 2**63), (-5, 2**64 - 5),
                                               (2**64 + 7, 7)])
    def test_seed_is_taken_modulo_2_to_the_64(self, seed, pcg_seed):
        """A seed draws what PCG64 draws from it modulo 2**64, so a negative seed is valid."""
        expected = np.random.Generator(np.random.PCG64(pcg_seed)).normal(size=8)
        assert numcore.generator(seed).normal(size=8).tobytes() == expected.tobytes()
