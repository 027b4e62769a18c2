"""Dense LU solve wrapper: exactness, failure modes, determinism."""

import math

import numpy as np
import pytest
import scipy.linalg

from hypersing import SingularMatrixError, lu_solve, residual_norm
from hypersing.linalg import _MAX_REFINEMENT_STEPS


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


def test_infinite_entries_are_refused_by_the_norm():
    A = np.eye(3)
    A[2, 0] = np.inf
    for matrix in (A, np.asfortranarray(A), A[:, ::-1]):
        with pytest.raises(ValueError, match="entries must be finite"):
            lu_solve(matrix, np.ones(3))
        with pytest.raises(ValueError, match="entries must be finite"):
            residual_norm(matrix, np.ones(3), np.ones(3))


def test_finite_entries_whose_row_sum_overflows_are_refused():
    # every entry is finite, but a row sums to 2.4e308, past the largest double
    A = np.array([[1.2e308, 1.2e308], [0.0, 1.0]])
    for matrix in (A, np.asfortranarray(A)):
        with pytest.raises(ValueError, match="entries must be finite") as exc:
            lu_solve(matrix, np.ones(2))
        assert not isinstance(exc.value, SingularMatrixError)
        with pytest.raises(ValueError, match="entries must be finite"):
            residual_norm(matrix, np.ones(2), np.ones(2))
    # a row sum just below the largest double is a norm like any other
    B = np.array([[0.8e308, 0.8e308], [0.0, 0.8e308]])
    assert np.array_equal(lu_solve(B, np.array([1.6e308, 0.8e308])), [1.0, 1.0])
    assert residual_norm(B, np.ones(2), np.array([1.6e308, 0.8e308])) == 0.0


def test_norm_reads_either_memory_order_like_a_row_sum_scan():
    from hypersing.linalg import _max_row_sum

    rng = np.random.default_rng(7)
    A = rng.standard_normal((300, 200))
    for matrix in (A, np.asfortranarray(A), A[::2]):
        scan = float(np.max(np.abs(matrix).sum(axis=1)))
        assert abs(_max_row_sum(matrix) - scan) <= 1e-12 * scan
    assert _max_row_sum(np.zeros((0, 0))) == 0.0


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
    # the factorization overwrites a Fortran-ordered copy, whatever the
    # caller's layout, and never the caller's array
    rng = np.random.default_rng(7)
    for layout in (np.ascontiguousarray, np.asfortranarray):
        A = layout(_well_conditioned(rng, 20, 1e2))
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


def _spy_on_lapack(monkeypatch, spoil):
    """Record factorizations and the LU factors of each triangular solve
    (LAPACK's ?getrs, which the core calls directly); add ``spoil(call)``
    to each solve's answer in the caller's units.  The core solves for its
    right-hand side scaled by the power of two that ``math.frexp`` gives
    and scales the answer back, so the spy divides the spoil by it."""
    import types

    import hypersing.linalg as linalg

    factored, solved, exponents = [], [], []
    real_factor = scipy.linalg.lu_factor

    def factor(*args, **kwargs):
        factored.append(args[0])
        return real_factor(*args, **kwargs)

    def frexp(peak):
        mantissa, exponent = math.frexp(peak)
        exponents.append(exponent)
        return mantissa, exponent

    def spied(real_getrs):
        def getrs(lu, pivots, b, **kwargs):
            solved.append(lu)
            x, info = real_getrs(lu, pivots, b, **kwargs)
            return x + np.ldexp(spoil(len(solved)), -exponents[-1]), info
        return getrs

    monkeypatch.setattr(scipy.linalg, "lu_factor", factor)
    monkeypatch.setattr(linalg, "math", types.SimpleNamespace(frexp=frexp))
    for dtype, real_getrs in list(linalg._GETRS.items()):
        monkeypatch.setitem(linalg._GETRS, dtype, spied(real_getrs))
    return factored, solved


def test_residual_gate_refines_with_the_same_factors(monkeypatch):
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    rhs = np.array([1.0, 2.0])
    clean = lu_solve(A, rhs)
    assert np.max(np.abs(clean - scipy.linalg.solve(A, rhs))) <= 1e-15
    # a first solve off by 1e-3 misses the gate; one refinement step repairs it
    factored, solved = _spy_on_lapack(monkeypatch, lambda call: 1e-3 if call == 1 else 0.0)
    x = lu_solve(A, rhs)
    assert len(factored) == 1 and len(solved) == 2 and solved[0] is solved[1]
    assert residual_norm(A, x, rhs) <= 1e-9 * np.max(np.abs(rhs))
    assert np.max(np.abs(x - clean)) <= 1e-14


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_residual_gate_raises_when_refinement_fails(monkeypatch, dtype):
    # every triangular solve lands 1e-3 off whatever its right-hand side,
    # so each correction is as far off as the first solve: the residual,
    # 5e-3, does not halve, and the gate refuses it
    from hypersing.linalg import ResidualError, _solve_in_place

    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    factored, solved = _spy_on_lapack(monkeypatch, lambda call: 1e-3)
    with pytest.raises(ResidualError, match="residual 5.000e-03"):
        _solve_in_place(np.asfortranarray(A, dtype=dtype), np.array([1.0, 2.0]),
                        lambda v: A @ v)
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


def test_every_solve_route_factors_through_one_gated_lu_solve(monkeypatch):
    # lu_solve and the crack's folded solve both hand their matrix to the
    # one gated core, which factors it in place
    import hypersing.fullkernel as fullkernel
    import hypersing.linalg as linalg
    from hypersing import (CharacteristicProblem, FullProblem, Interval, MaterialParams,
                           build_grid, chebyshev_nystrom_rule, fredholm_reduce,
                           solve_characteristic, solve_crack, solve_fredholm,
                           solve_full_collocation)
    from hypersing.quadrature import PVQuadSpec

    calls = []
    real = linalg._solve_in_place

    def spy(matrix, rhs, matvec):
        calls.append((np.shape(matrix), matrix.dtype))
        return real(matrix, rhs, matvec)

    for module in (linalg, fullkernel):
        monkeypatch.setattr(module, "_solve_in_place", spy)
    iv = Interval(-1.0, 1.0)
    grid = build_grid(-1.0, 1.0, 20)
    fprime = lambda x: np.full(np.shape(x), -np.pi)
    K0 = lambda x, t: np.cos(x * t)
    # K1 = x t is an antiderivative in x of the kernel t
    problem = FullProblem(iv, lambda x, t: t + 0.0 * x, fprime, K1=lambda x, t: x * t,
                          f=lambda x: -np.pi * np.asarray(x, dtype=float))
    nodes, weights = chebyshev_nystrom_rule(iv, 12)
    material = MaterialParams(lam=1.0, mu=1.0, alpha=1.0, beta=0.8, xi=1.0, sigma0=1.0)
    runs = {
        "characteristic": lambda: solve_characteristic(CharacteristicProblem(iv, fprime), grid),
        "full": lambda: solve_full_collocation(FullProblem(iv, K0, fprime), grid),
        "crack": lambda: solve_crack(material, 1.0, 20),
        "fredholm": lambda: solve_fredholm(
            fredholm_reduce(problem, PVQuadSpec(), nodes), weights),
    }
    shapes = {}
    for name, solve in runs.items():
        calls.clear()
        solve()
        assert len(calls) == 1, name
        shapes[name] = calls[0]
    # routes 1-3 factor in float64; the crack's folded system in float32
    assert shapes == {"characteristic": ((20, 20), np.float64), "full": ((20, 20), np.float64),
                      "crack": ((10, 10), np.float32), "fredholm": ((12, 12), np.float64)}


def _core_with_a_disagreeing_matvec(delta, dtype):
    """The in-place core on A in ``dtype``, with a matvec of A + delta * ones."""
    from hypersing.linalg import _solve_in_place

    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    rhs = np.array([1.0, 2.0])
    off = A + delta
    return _solve_in_place(np.asfortranarray(A, dtype=dtype), rhs, lambda x: off @ x), off, rhs


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_in_place_core_refines_to_its_matvecs_answer(monkeypatch, dtype):
    # a matvec 1e-6 off the factored matrix misses the gate on the first
    # solve; refinement with the same factors solves to the matvec's own
    # answer at float64 level
    factored, solved = _spy_on_lapack(monkeypatch, lambda call: 0.0)
    x, off, rhs = _core_with_a_disagreeing_matvec(1e-6, dtype)
    assert len(factored) == 1 and 2 <= len(solved) <= 1 + _MAX_REFINEMENT_STEPS
    assert all(lu is solved[0] for lu in solved)
    expect = scipy.linalg.solve(off, rhs)
    assert np.max(np.abs(x - expect)) <= 4 * np.finfo(float).eps * np.max(np.abs(expect))


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
@pytest.mark.parametrize("delta, steps", ((3.0, 1), (1.0, _MAX_REFINEMENT_STEPS)))
def test_in_place_core_raises_when_its_matvec_disagrees(monkeypatch, dtype, delta, steps):
    # against a matvec delta off in every entry, each step scales the
    # residual by 5 delta / 11: by 15/11 at delta = 3, which stops the
    # refinement after one step, and by 5/11 at delta = 1, which halves it
    # for every one of the steps allowed and still misses the gate
    from hypersing.linalg import ResidualError

    factored, solved = _spy_on_lapack(monkeypatch, lambda call: 0.0)
    with pytest.raises(ResidualError, match="residual"):
        _core_with_a_disagreeing_matvec(delta, dtype)
    assert len(factored) == 1 and len(solved) == 1 + steps


def test_in_place_core_factors_its_matrix_without_a_copy(monkeypatch):
    from hypersing.linalg import _solve_in_place

    factored, _ = _spy_on_lapack(monkeypatch, lambda call: 0.0)
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    work = np.asfortranarray(A)
    x = _solve_in_place(work, np.array([1.0, 2.0]), lambda v: A @ v)
    assert len(factored) == 1 and factored[0] is work
    assert not np.array_equal(work, A)  # now holds the LU factors
    assert np.max(np.abs(x - scipy.linalg.solve(A, [1.0, 2.0]))) <= 1e-15


def _float32_system(n, cond, seed):
    """A float32 Fortran-ordered matrix, the float64 matrix it stores, and a rhs."""
    rng = np.random.default_rng(seed)
    stored = np.asfortranarray(_well_conditioned(rng, n, cond), dtype=np.float32)
    return stored, stored.astype(float), rng.standard_normal(n)


def test_float32_core_refines_to_a_float64_solve(monkeypatch):
    # the float32 factors of a matrix with condition 1e3 solve to 1e-4;
    # refinement against the float64 product of the matrix they round
    # brings the solution within 1e-13 of its float64 LU solve, in a few
    # steps, each one product and one triangular solve
    from hypersing.linalg import _solve_in_place

    for n, seed in ((7, 1), (200, 2), (400, 3)):
        work, A, rhs = _float32_system(n, 1e3, seed)
        products = []
        factored, solved = _spy_on_lapack(monkeypatch, lambda call: 0.0)
        x = _solve_in_place(work, rhs, lambda v: products.append(v) or A @ v)
        assert len(factored) == 1 and factored[0] is work and work.dtype == np.float32
        assert not np.array_equal(work, A)  # now holds the float32 LU factors
        assert 2 <= len(solved) == len(products) <= 1 + _MAX_REFINEMENT_STEPS
        expect = scipy.linalg.solve(A, rhs)
        assert np.max(np.abs(x - expect)) <= 1e-13 * np.max(np.abs(expect))
        assert residual_norm(A, x, rhs) <= 1e-14 * np.max(np.abs(A).sum(axis=1)) * np.max(
            np.abs(x))
        monkeypatch.undo()


def test_float32_pivot_threshold_uses_the_float32_epsilon():
    # a pivot of 1e-7 against a norm of 1 is singular to float32 working
    # precision (threshold 2 * 1.19e-7) and not to float64's (4.4e-16)
    from hypersing.linalg import _solve_in_place

    A = np.diag([1.0, 1e-7])
    rhs = np.array([1.0, 1.0])
    with pytest.raises(SingularMatrixError) as exc:
        _solve_in_place(np.asfortranarray(A, dtype=np.float32), rhs, lambda v: A @ v)
    threshold = 2 * np.finfo(np.float32).eps
    assert f"threshold {threshold:.3e}" in str(exc.value)
    x = _solve_in_place(np.asfortranarray(A), rhs, lambda v: A @ v)
    assert np.array_equal(x, [1.0, 1e7])


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_a_nan_residual_is_refused(dtype):
    # nan > tol is False, so a gate that tests for excess passes a NaN; the
    # gate passes only a residual that is at most its tolerance
    from hypersing.linalg import ResidualError, _solve_in_place

    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    with pytest.raises(ResidualError, match="nan"):
        _solve_in_place(np.asfortranarray(A, dtype=dtype), np.array([1.0, 2.0]),
                        lambda v: np.full(2, np.nan))
