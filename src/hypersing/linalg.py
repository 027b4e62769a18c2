"""Dense linear algebra for the collocation systems.

Thin layer over LAPACK's partially pivoted LU factorization (through
scipy) with explicit singularity detection, an optional single step
of iterative refinement, and a residual-gated solve that refines with
its own factors when the first solve misses the bound.  Matrices and
vectors are plain float arrays; the caller's arrays are never modified.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

__all__ = ["SingularMatrixError", "lu_solve", "solve_within_residual", "residual_norm"]


class SingularMatrixError(ValueError):
    """A pivot fell at or below the working-precision threshold."""


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def _as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"vector must be 1-D, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def _factor(A, rhs):
    """Validated system plus its LU factors; refuses tiny pivots."""
    A = _as_matrix(A)
    rhs = _as_vector(rhs)
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {n}x{m}")
    if rhs.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: matrix is {n}x{n}, rhs has length {rhs.shape[0]}")
    norm_a = float(np.max(np.abs(A).sum(axis=1))) if n else 0.0
    with warnings.catch_warnings():
        # LAPACK flags exact zero pivots with a warning; the threshold
        # test below turns those into errors.
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    smallest_pivot = float(np.min(np.abs(np.diag(lu))))
    threshold = n * np.finfo(float).eps * norm_a
    if smallest_pivot <= threshold:
        raise SingularMatrixError(
            "matrix is singular to working precision "
            f"(pivot {smallest_pivot:.3e} <= threshold {threshold:.3e})")
    return A, rhs, (lu, piv)


def lu_solve(A, rhs, refine: bool = False) -> np.ndarray:
    """Solve ``A x = rhs`` by LU factorization with partial pivoting.

    Parameters
    ----------
    A : (n, n) array_like
        Square matrix with finite entries.
    rhs : (n,) array_like
        Right-hand side.
    refine : bool, optional
        Apply one step of iterative refinement with the same factors.

    Returns
    -------
    x : (n,) ndarray

    Raises
    ------
    SingularMatrixError
        If the smallest pivot magnitude is at or below
        ``n * eps * ||A||_inf``.
    ValueError
        On non-square input, dimension mismatch, or non-finite entries.
    """
    A, rhs, factors = _factor(A, rhs)
    x = scipy.linalg.lu_solve(factors, rhs, check_finite=False)
    if refine:
        x = x + scipy.linalg.lu_solve(factors, rhs - A @ x, check_finite=False)
    return x


def solve_within_residual(A, rhs) -> np.ndarray:
    """Solve ``A x = rhs`` like ``lu_solve``, holding the residual to 1e-9 ``||rhs||_inf``.

    A first solve that misses the bound gets one step of iterative
    refinement with the same factors; if the max-norm residual still
    exceeds the bound, raises ``ArithmeticError``.
    """
    A, rhs, factors = _factor(A, rhs)
    x = scipy.linalg.lu_solve(factors, rhs, check_finite=False)
    tol = 1e-9 * float(np.max(np.abs(rhs)))
    if residual_norm(A, x, rhs) > tol:
        x = x + scipy.linalg.lu_solve(factors, rhs - A @ x, check_finite=False)
        resid = residual_norm(A, x, rhs)
        if resid > tol:
            raise ArithmeticError(
                f"collocation residual {resid:.3e} exceeds tolerance {tol:.3e}")
    return x


def residual_norm(A, x, rhs) -> float:
    """Max-norm residual ``||A x - rhs||_inf``."""
    A = _as_matrix(A)
    x = _as_vector(x)
    rhs = _as_vector(rhs)
    if A.shape[1] != x.shape[0] or A.shape[0] != rhs.shape[0]:
        raise ValueError("dimension mismatch in residual evaluation")
    if rhs.size == 0:
        return 0.0
    return float(np.max(np.abs(A @ x - rhs)))
