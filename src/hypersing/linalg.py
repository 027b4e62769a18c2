"""Dense linear algebra for the collocation systems.

Thin layer over LAPACK's partially pivoted LU factorization (through
scipy) with explicit singularity detection and a residual gate: a
solve that misses the bound takes one step of iterative refinement
with its own factors.  Every solve goes through one private core that
factors its matrix in place and takes the residual from a separate
matrix-vector product, so a caller that can re-form its matrix need
not keep a copy of it.  ``lu_solve`` hands the core a copy of its
matrix, so the caller's arrays are never modified.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

__all__ = ["SingularMatrixError", "ResidualError", "lu_solve", "residual_norm"]

_lange = scipy.linalg.get_lapack_funcs("lange", dtype=np.float64)


class SingularMatrixError(ValueError):
    """A pivot fell at or below the working-precision threshold."""


class ResidualError(ArithmeticError):
    """A solve's residual stayed over its tolerance after refinement."""


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got ndim={A.ndim}")
    return A


def _as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"vector must be 1-D, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def _max_row_sum(A: np.ndarray) -> float:
    """``||A||_inf`` by LAPACK's ``?lange``, read in A's own memory order
    so that a contiguous A is not copied: the one norm of ``A.T`` for a
    C-ordered A, else the infinity norm of A (the Fortran-ordered matrix
    every solve factors).  Raises ``ValueError`` unless the norm is
    finite: an entry that is not, or finite entries whose row sum
    overflows."""
    norm = _lange("1", A.T) if A.flags.c_contiguous else _lange("I", A)
    if not np.isfinite(norm):
        raise ValueError("matrix entries must be finite")
    return float(norm)


def _residual(matvec, x, rhs) -> float:
    return float(np.max(np.abs(matvec(x) - rhs))) if rhs.size else 0.0


def _solve_in_place(matrix: np.ndarray, rhs: np.ndarray, matvec) -> np.ndarray:
    """Gated solve of ``matrix x = rhs`` that factors ``matrix`` in place.

    ``matrix`` is a square Fortran-ordered float array, which LAPACK
    overwrites with its LU factors, so no copy of it is made.
    ``matvec(x)`` must return the product of the matrix as it was before
    the factorization with x; the residual gate and the refinement step
    use it.  The pivot threshold and the finiteness checks are taken
    before the factorization.  Raises as ``lu_solve`` does.
    """
    n = matrix.shape[0]
    rhs = _as_vector(rhs)
    norm_a = _max_row_sum(matrix)
    with warnings.catch_warnings():
        # LAPACK flags exact zero pivots with a warning; the threshold
        # test below turns those into errors.
        warnings.simplefilter("ignore")
        factors = scipy.linalg.lu_factor(matrix, overwrite_a=True, check_finite=False)
    smallest_pivot = float(np.min(np.abs(np.diag(factors[0]))))
    threshold = n * np.finfo(float).eps * norm_a
    if smallest_pivot <= threshold:
        raise SingularMatrixError(
            "matrix is singular to working precision "
            f"(pivot {smallest_pivot:.3e} <= threshold {threshold:.3e})")
    x = scipy.linalg.lu_solve(factors, rhs, check_finite=False)
    tol = 1e-9 * float(np.max(np.abs(rhs)))
    if _residual(matvec, x, rhs) > tol:
        x = x + scipy.linalg.lu_solve(factors, rhs - matvec(x), check_finite=False)
        resid = _residual(matvec, x, rhs)
        if resid > tol:
            raise ResidualError(
                f"solve residual {resid:.3e} exceeds tolerance {tol:.3e}")
    return x


def lu_solve(A, rhs) -> np.ndarray:
    """Solve ``A x = rhs`` by LU factorization with partial pivoting,
    holding the residual to ``1e-9 ||rhs||_inf``.

    A first solve that misses the bound gets one step of iterative
    refinement with the same factors.  The factorization overwrites a
    Fortran-ordered copy of A; A and rhs are left untouched.

    Parameters
    ----------
    A : (n, n) array_like
        Square matrix with finite entries.
    rhs : (n,) array_like
        Right-hand side.

    Returns
    -------
    x : (n,) ndarray

    Raises
    ------
    SingularMatrixError
        If the smallest pivot magnitude is at or below
        ``n * eps * ||A||_inf``.
    ResidualError
        If the max-norm residual still exceeds the bound after
        refinement.  It is an ``ArithmeticError``.
    ValueError
        On non-square input, dimension mismatch, non-finite entries, or
        finite entries whose row sum overflows.
    """
    A = _as_matrix(A)
    rhs = _as_vector(rhs)
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {n}x{m}")
    if rhs.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: matrix is {n}x{n}, rhs has length {rhs.shape[0]}")
    return _solve_in_place(np.array(A, order="F"), rhs, lambda x: A @ x)


def residual_norm(A, x, rhs) -> float:
    """Max-norm residual ``||A x - rhs||_inf``."""
    A = _as_matrix(A)
    _max_row_sum(A)  # refuses non-finite entries and overflowing row sums
    x = _as_vector(x)
    rhs = _as_vector(rhs)
    if A.shape[1] != x.shape[0] or A.shape[0] != rhs.shape[0]:
        raise ValueError("dimension mismatch in residual evaluation")
    return _residual(lambda v: A @ v, x, rhs)
