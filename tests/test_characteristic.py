"""Collocation and explicit inversion for the dominant-singularity equation.

Closed forms used throughout: with the half-circle weight w(x) = sqrt(1-x^2)
on (-1,1), the bounded solution for load fprime = -pi*(k+1)*U_k is w*U_k,
where U_k is the second-kind Chebyshev polynomial.
"""

import numpy as np
import pytest

from hypersing import (
    CharacteristicProblem,
    Interval,
    PVQuadSpec,
    assemble_characteristic,
    build_grid,
    convergence_study,
    invert_characteristic,
    residual_norm,
    solve_characteristic,
)

IV = Interval(-1.0, 1.0)


def flat_load(x):
    return np.full(np.shape(x), -np.pi)


FLAT = CharacteristicProblem(IV, flat_load, f=lambda x: -np.pi * np.asarray(x, dtype=float))


def semicircle(x):
    return np.sqrt(1.0 - np.asarray(x, dtype=float) ** 2)


def test_one_cell_matrix_value():
    g = build_grid(0.0, 1.0, 1)
    assert np.array_equal(assemble_characteristic(g), [[-4.0]])


def test_two_cell_matrix_and_load_samples():
    g = build_grid(-1.0, 1.0, 2)
    M = assemble_characteristic(g)
    assert M[0, 0] == pytest.approx(-4.0, abs=1e-14)
    assert M[0, 1] == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert M[1, 0] == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert M[1, 1] == pytest.approx(-4.0, abs=1e-14)
    assert np.allclose(flat_load(g.colloc), [-np.pi, -np.pi])


def test_matrix_is_centro_symmetric():
    # rotating the matrix by 180 degrees must reproduce it
    M = assemble_characteristic(build_grid(-1.0, 1.0, 4))
    assert np.array_equal(M, np.flip(M))
    M2 = assemble_characteristic(build_grid(0.3, 2.7, 5))
    assert np.allclose(M2, np.flip(M2), rtol=1e-12, atol=0.0)


def test_zero_load_gives_identically_zero_solution():
    prob = CharacteristicProblem(IV, lambda x: np.zeros(np.shape(x)))
    sol = solve_characteristic(prob, build_grid(-1.0, 1.0, 30))
    assert np.array_equal(sol.values, np.zeros(30))


def test_solution_is_linear_in_the_load():
    g = build_grid(-1.0, 1.0, 60)
    p1 = CharacteristicProblem(IV, flat_load)
    p2 = CharacteristicProblem(IV, lambda x: np.cos(np.asarray(x, dtype=float)))
    combo = CharacteristicProblem(
        IV, lambda x: 2.0 * flat_load(x) - 3.0 * np.cos(np.asarray(x, dtype=float))
    )
    v = solve_characteristic(combo, g).values
    v12 = 2.0 * solve_characteristic(p1, g).values - 3.0 * solve_characteristic(p2, g).values
    assert np.max(np.abs(v - v12)) <= 1e-11 * np.max(np.abs(v12))


def test_flat_load_reproduces_semicircle_profile():
    g = build_grid(-1.0, 1.0, 100)
    sol = solve_characteristic(FLAT, g)
    err = np.abs(sol.values - semicircle(sol.points))
    # sharp square-root layer in the outermost cells, smooth error inside
    assert np.max(err[np.abs(sol.points) <= 0.9]) <= 2e-2
    assert np.max(err) <= 5e-2


def test_linear_load_matches_odd_closed_form():
    # fprime = -4*pi*x solves to 2*x*sqrt(1-x^2)
    prob = CharacteristicProblem(IV, lambda x: -4.0 * np.pi * np.asarray(x, dtype=float))
    sol = solve_characteristic(prob, build_grid(-1.0, 1.0, 100))
    got = np.interp(0.5, sol.points, sol.values)
    assert got == pytest.approx(2.0 * 0.5 * np.sqrt(0.75), abs=2e-2)


def test_samples_live_at_cell_midpoints():
    g = build_grid(-1.0, 1.0, 50)
    sol = solve_characteristic(FLAT, g)
    assert np.array_equal(sol.points, g.colloc)
    # attribution check: the same vector read at the right cell nodes is
    # visibly worse against the closed form than at the midpoints
    err_mid = np.max(np.abs(sol.values - semicircle(g.colloc)))
    err_nodes = np.max(np.abs(sol.values - semicircle(g.nodes[1:])))
    assert err_mid < err_nodes


def test_even_load_solution_has_reflection_symmetry():
    prob = CharacteristicProblem(IV, lambda x: -np.pi * np.exp(-np.asarray(x, dtype=float) ** 2))
    v = solve_characteristic(prob, build_grid(-1.0, 1.0, 80)).values
    assert np.max(np.abs(v - v[::-1])) <= 1e-11 * np.max(np.abs(v))


def test_solution_decays_into_the_endpoints():
    prev_first = prev_last = np.inf
    for n in (25, 50, 100, 200):
        g = build_grid(-1.0, 1.0, n)
        v = solve_characteristic(FLAT, g).values
        bound = 3.0 * np.sqrt(g.h * IV.width) * np.max(np.abs(v))
        first, last = abs(v[0]), abs(v[-2])
        assert first <= bound and last <= bound
        assert first < prev_first and last < prev_last
        prev_first, prev_last = first, last


def test_linear_system_residual_is_enforced():
    g = build_grid(-1.0, 1.0, 64)
    sol = solve_characteristic(FLAT, g)
    M = assemble_characteristic(g)
    rhs = flat_load(g.colloc)
    assert residual_norm(M, sol.values, rhs) <= 1e-9 * np.max(np.abs(rhs))


def test_grid_must_live_on_the_problem_interval():
    with pytest.raises(ValueError):
        solve_characteristic(FLAT, build_grid(0.0, 1.0, 10))


def test_inconsistent_antiderivative_is_rejected():
    with pytest.raises(ValueError):
        CharacteristicProblem(IV, flat_load, f=lambda x: np.asarray(x, dtype=float) ** 2)


def test_inversion_recovers_closed_forms():
    spec = PVQuadSpec(m=200)
    assert invert_characteristic(FLAT, 0.0, spec) == pytest.approx(1.0, abs=1e-10)
    for x in (-0.9, -0.5, 0.5, 0.9):
        assert invert_characteristic(FLAT, x, spec) == pytest.approx(semicircle(x), abs=1e-8)
    const = CharacteristicProblem(
        IV, lambda x: np.zeros(np.shape(x)), f=lambda x: np.full(np.shape(x), 3.0)
    )
    for x in (-0.6, 0.0, 0.8):
        assert invert_characteristic(const, x, spec) == pytest.approx(0.0, abs=1e-12)


def test_inversion_ignores_additive_constants_in_f():
    spec = PVQuadSpec(m=200)
    shifted = CharacteristicProblem(
        IV, flat_load, f=lambda x: -np.pi * np.asarray(x, dtype=float) + 7.0
    )
    for x in (-0.4, 0.1, 0.62):
        a = invert_characteristic(FLAT, x, spec)
        b = invert_characteristic(shifted, x, spec)
        assert a == pytest.approx(b, abs=1e-10)


def test_inversion_vanishes_toward_the_tips():
    spec = PVQuadSpec(m=200)
    for x in (1.0 - 1e-6, -1.0 + 1e-6):
        val = invert_characteristic(FLAT, x, spec)
        assert 1e-3 <= val <= 2e-3  # exact value sqrt(2e-6 - 1e-12)


def test_inversion_requires_f_and_interior_points():
    spec = PVQuadSpec(m=200)
    no_f = CharacteristicProblem(IV, flat_load)
    with pytest.raises(ValueError):
        invert_characteristic(no_f, 0.3, spec)
    for x in (1.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            invert_characteristic(FLAT, x, spec)


def test_inversion_and_collocation_agree_inside():
    # same equation through two unrelated algorithms
    quad = PVQuadSpec(m=200)

    def fprime(x):
        return -np.pi * (1.0 + np.asarray(x, dtype=float))

    def f(x):
        x = np.asarray(x, dtype=float)
        return -np.pi * (x + x * x / 2.0)

    def exact(x):
        x = np.asarray(x, dtype=float)
        return np.sqrt(1.0 - x * x) * (1.0 + x / 2.0)

    prob = CharacteristicProblem(IV, fprime, f=f)
    sol = solve_characteristic(prob, build_grid(-1.0, 1.0, 100))
    inside = np.abs(sol.points) <= 0.9
    for x, v in zip(sol.points[inside], sol.values[inside]):
        inv = invert_characteristic(prob, float(x), quad)
        assert inv == pytest.approx(float(exact(x)), abs=1e-8)
        assert abs(v - inv) <= 5e-2


def test_convergence_study_errors_shrink():
    rows = convergence_study(FLAT, [25, 50, 100, 200], lambda x: float(semicircle(x)))
    ns = [r[0] for r in rows]
    errs = [r[1] for r in rows]
    assert ns == [25, 50, 100, 200]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[2] <= 2e-2


def test_convergence_study_against_projected_self_is_zero():
    fine = solve_characteristic(FLAT, build_grid(-1.0, 1.0, 200))
    ref = lambda x: float(np.interp(x, fine.points, fine.values))
    rows = convergence_study(FLAT, [50, 100, 200], ref)
    assert rows[-1][1] == 0.0


def test_convergence_study_zero_load_is_exact():
    prob = CharacteristicProblem(IV, lambda x: np.zeros(np.shape(x)))
    rows = convergence_study(prob, [10, 20], lambda x: 0.0)
    assert [r[1] for r in rows] == [0.0, 0.0]


def test_convergence_study_validates_the_n_list():
    ref = lambda x: 0.0
    with pytest.raises(ValueError):
        convergence_study(FLAT, [], ref)
    with pytest.raises(ValueError):
        convergence_study(FLAT, [50, 50], ref)
    with pytest.raises(ValueError):
        convergence_study(FLAT, [100, 50], ref)
