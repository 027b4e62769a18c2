"""Dense LU solve wrapper: exactness, failure modes, determinism."""

import numpy as np
import pytest

from hypersing import SingularMatrixError, lu_solve, residual_norm
from hypersing.linalg import solve_within_residual


def test_identity_solve_returns_rhs():
    rhs = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(lu_solve(np.eye(3), rhs), rhs)


def test_diagonal_solve_is_exact():
    A = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = lu_solve(A, np.array([2.0, 8.0]))
    assert np.array_equal(x, [1.0, 2.0])


def test_singular_matrix_raises_typed_error():
    with pytest.raises(SingularMatrixError):
        lu_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))
    # rank-2 3x3: third row is the sum of the first two
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [1.0, 3.0, 3.0]])
    with pytest.raises(SingularMatrixError):
        lu_solve(A, np.ones(3))
    assert issubclass(SingularMatrixError, ValueError)


def test_shape_and_finiteness_validation():
    with pytest.raises(ValueError):
        lu_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        lu_solve(np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        lu_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        lu_solve(np.eye(2), np.array([1.0, np.inf]))


def _well_conditioned(rng, n, cond):
    """Random matrix with prescribed condition number via QR factors."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sing = np.logspace(0.0, np.log10(cond), n)
    return q1 @ np.diag(sing) @ q2


def test_round_trip_residual_on_random_systems():
    rng = np.random.default_rng(20240817)
    for n in (2, 3, 7, 40, 133, 400):
        A = _well_conditioned(rng, n, 1e3)
        x_true = rng.standard_normal(n)
        rhs = A @ x_true
        x = lu_solve(A, rhs)
        scale = np.max(np.abs(rhs))
        assert residual_norm(A, x, rhs) <= 1e-9 * scale
        assert np.max(np.abs(x - x_true)) <= 1e-8 * np.max(np.abs(x_true))


def test_solver_leaves_inputs_untouched():
    rng = np.random.default_rng(7)
    A = _well_conditioned(rng, 20, 1e2)
    rhs = rng.standard_normal(20)
    A0, rhs0 = A.copy(), rhs.copy()
    lu_solve(A, rhs)
    assert np.array_equal(A, A0)
    assert np.array_equal(rhs, rhs0)


def test_repeated_solves_are_bitwise_deterministic():
    rng = np.random.default_rng(13)
    A = _well_conditioned(rng, 64, 1e4)
    rhs = rng.standard_normal(64)
    assert np.array_equal(lu_solve(A, rhs), lu_solve(A, rhs))


def test_refinement_keeps_residual_small():
    rng = np.random.default_rng(99)
    A = _well_conditioned(rng, 80, 1e6)
    rhs = rng.standard_normal(80)
    plain = lu_solve(A, rhs)
    refined = lu_solve(A, rhs, refine=True)
    scale = np.max(np.abs(rhs))
    assert residual_norm(A, refined, rhs) <= 1e-9 * scale
    assert np.max(np.abs(refined - plain)) <= 1e-8 * np.max(np.abs(plain))


def _spy_on_lapack(monkeypatch, spoil):
    """Record factorizations and solves; add ``spoil(call)`` to each solve."""
    import scipy.linalg

    factored, solved = [], []
    real_factor, real_solve = scipy.linalg.lu_factor, scipy.linalg.lu_solve

    def factor(*args, **kwargs):
        factored.append(args[0])
        return real_factor(*args, **kwargs)

    def solve(factors, b, **kwargs):
        solved.append(factors)
        return real_solve(factors, b, **kwargs) + spoil(len(solved))

    monkeypatch.setattr(scipy.linalg, "lu_factor", factor)
    monkeypatch.setattr(scipy.linalg, "lu_solve", solve)
    return factored, solved


def test_residual_gate_refines_with_the_same_factors(monkeypatch):
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    rhs = np.array([1.0, 2.0])
    clean = solve_within_residual(A, rhs)
    assert np.array_equal(clean, lu_solve(A, rhs))
    # a first solve off by 1e-3 misses the gate; one refinement step repairs it
    factored, solved = _spy_on_lapack(monkeypatch, lambda call: 1e-3 if call == 1 else 0.0)
    x = solve_within_residual(A, rhs)
    assert len(factored) == 1 and len(solved) == 2 and solved[0] is solved[1]
    assert residual_norm(A, x, rhs) <= 1e-9 * np.max(np.abs(rhs))
    assert np.max(np.abs(x - clean)) <= 1e-14


def test_residual_gate_raises_when_refinement_fails(monkeypatch):
    factored, solved = _spy_on_lapack(monkeypatch, lambda call: 1e-3)
    with pytest.raises(ArithmeticError, match="residual"):
        solve_within_residual(np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0]))
    assert len(factored) == 1 and len(solved) == 2


def test_residual_norm_hand_values():
    x = np.array([1.0, 2.0])
    A = np.eye(2)
    assert residual_norm(A, x, A @ x) == 0.0
    assert residual_norm(np.array([[1.0]]), np.array([2.0]), np.array([1.0])) == 1.0
    # A*x = (3.0, 3.0); rhs shifted in the first slot only
    A2 = np.array([[2.0, 1.0], [0.0, 3.0]])
    x2 = np.array([1.0, 1.0])
    rhs2 = np.array([3.2, 3.0])
    assert abs(residual_norm(A2, x2, rhs2) - 0.2) < 1e-15


def test_residual_norm_validates_shapes():
    with pytest.raises(ValueError):
        residual_norm(np.eye(3), np.ones(2), np.ones(3))
    with pytest.raises(ValueError):
        residual_norm(np.eye(3), np.ones(3), np.ones(4))
