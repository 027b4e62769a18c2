"""Dense linear algebra for the collocation systems.

Thin layer over LAPACK's partially pivoted LU factorization (through
scipy) with explicit singularity detection and a residual gate.  Every
solve goes through one private core that factors its matrix in place, in
the matrix's own precision, and takes the residual from a separate
float64 matrix-vector product, so a caller that can re-form its matrix
need not keep a copy of it.  Factors of either precision, float64 for
``lu_solve`` and float32 for the crack's folded system, are refined by
one loop until the residual is at float64 level (mixed-precision
iterative refinement: Langou et al., SC'06; Carson and Higham, SIAM J.
Sci. Comput. 2018).  ``lu_solve`` hands the core a float64 copy of its
matrix, so the caller's arrays are never modified.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg

__all__ = ["SingularMatrixError", "ResidualError", "lu_solve", "residual_norm"]

# LAPACK's ?lange and ?getrs for each precision the core factors in; ?getrs
# is called directly, as scipy.linalg.lu_solve's checks took 7 to 12 us of
# its 11 to 15 us a call at r = 100, where a solve refines twice
_PRECISIONS = [np.dtype(np.float32), np.dtype(np.float64)]
_LANGE = {dtype: scipy.linalg.get_lapack_funcs("lange", dtype=dtype) for dtype in _PRECISIONS}
_GETRS = {dtype: scipy.linalg.get_lapack_funcs("getrs", dtype=dtype) for dtype in _PRECISIONS}

# most refinement steps of any factors; float32 factors gain about four
# digits a step on the crack's folded system (cond 4.3e3 at n = 3200), which
# takes two or three from n = 241 to 6400; routes 1-3's float64 factors take one
_MAX_REFINEMENT_STEPS = 10


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
    """``||A||_inf`` by LAPACK's ``?lange`` of A's precision, read in A's
    own memory order so that a contiguous A is not copied: the one norm of
    ``A.T`` for a C-ordered A, else the infinity norm of A (the
    Fortran-ordered matrix every solve factors).  Raises ``ValueError``
    unless the norm is finite: an entry that is not, or finite entries
    whose row sum overflows."""
    lange = _LANGE[A.dtype]
    norm = lange("1", A.T) if A.flags.c_contiguous else lange("I", A)
    if not np.isfinite(norm):
        raise ValueError("matrix entries must be finite")
    return float(norm)


def _peak(v: np.ndarray) -> float:
    """``||v||_inf``, 0 for an empty v."""
    return float(np.max(np.abs(v))) if v.size else 0.0


def _solve_in_place(matrix: np.ndarray, rhs: np.ndarray, matvec) -> np.ndarray:
    """Gated solve of ``matrix x = rhs`` that factors ``matrix`` in place.

    ``matrix`` is a square Fortran-ordered float64 or float32 array, which
    LAPACK overwrites with its LU factors in that precision, so no copy of
    it is made.  ``matvec(x)`` must return the float64 product of the
    matrix as it was before the factorization, or of the float64 matrix it
    rounds, with x; the residual and the refinement use it.  The pivot
    threshold ``n * eps * ||matrix||_inf``, with the eps of the matrix's
    precision, and the finiteness checks are taken before the
    factorization.

    Each triangular solve takes its right-hand side scaled by the power of
    two that brings its max-norm into [0.5, 1), which is exact, so that a
    float32 solve neither overflows nor underflows whatever the load's
    size; a zero right-hand side is solved without the factors.  Factors
    of either precision are refined until the residual is at float64
    level, ``eps64 * ||matrix||_inf * ||x||_inf`` (a float64 LU's backward
    error without its growth factor) or under the gate if that is lower,
    or until it stops halving, for at most ``_MAX_REFINEMENT_STEPS`` steps
    of one product and one triangular solve each.  LAPACK's ``dsgesv``
    stops at ``sqrt(n)`` times that level; on the crack's folded system,
    whose norm is about 4n, that stopped at a residual of 6.5e-11 at
    n = 6400 and moved the opening by 3.3e-12 of its maximum from the float64
    solve, where this level moves it by at most 4e-14.  A solve that then
    misses the gate raises; it is not refactored in float64, as every
    crack solve whose float32 pivots pass their gate gained about four
    digits a step.

    Raises as ``lu_solve`` does; ``ResidualError`` for any residual that
    is not at most the tolerance, NaN included.
    """
    n = matrix.shape[0]
    rhs = _as_vector(rhs)
    norm_a = _max_row_sum(matrix)
    with warnings.catch_warnings():
        # LAPACK flags exact zero pivots with a warning; the threshold
        # test below turns those into errors.
        warnings.simplefilter("ignore")
        lu, pivots = scipy.linalg.lu_factor(matrix, overwrite_a=True, check_finite=False)
    smallest_pivot = float(np.min(np.abs(np.diag(lu))))
    threshold = n * float(np.finfo(matrix.dtype).eps) * norm_a
    if smallest_pivot <= threshold:
        raise SingularMatrixError(
            "matrix is singular to working precision "
            f"(pivot {smallest_pivot:.3e} <= threshold {threshold:.3e})")

    getrs = _GETRS[lu.dtype]

    def solve(v, peak):
        """The factors' solution for v, whose max-norm is ``peak``."""
        if peak == 0.0:
            return np.zeros(n)
        exponent = math.frexp(peak)[1]
        scaled = np.ldexp(v, -exponent).astype(lu.dtype, copy=False)
        x, info = getrs(lu, pivots, scaled, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal argument {-info} to LAPACK ?getrs")
        return np.ldexp(x.astype(float, copy=False), exponent)

    peak = _peak(rhs)
    tol = 1e-9 * peak
    x = solve(rhs, peak)
    residual = rhs - matvec(x)
    resid = _peak(residual)
    target = min(tol, np.finfo(float).eps * norm_a * _peak(x))
    for _ in range(_MAX_REFINEMENT_STEPS):
        if resid <= target:
            break
        x += solve(residual, resid)
        residual = rhs - matvec(x)
        last, resid = resid, _peak(residual)
        if not resid < 0.5 * last:
            break
    if not resid <= tol:
        raise ResidualError(f"solve residual {resid:.3e} exceeds tolerance {tol:.3e}")
    return x


def lu_solve(A, rhs) -> np.ndarray:
    """Solve ``A x = rhs`` by LU factorization with partial pivoting,
    holding the residual to ``1e-9 ||rhs||_inf``.

    The solve is refined with the same factors, as ``_solve_in_place``
    says, and then held to the bound.  The factorization overwrites a
    float64 Fortran-ordered copy of A; A and rhs are left untouched.  It
    stays float64 for every caller: float32 factors would refuse, by their
    pivot gate, matrices that a float64 LU solves, and only the crack's
    folded system, whose margin is known, is factored in float32.

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
    return _peak(A @ x - rhs)
