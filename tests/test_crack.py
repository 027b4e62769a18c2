"""Porous plane-strain crack pipeline: parameter maps, symbol, kernel split,
opening profiles, tip amplitudes, porosity sweep."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import sici

from hypersing import (
    DimensionlessParams,
    Interval,
    MaterialParams,
    OscIntSpec,
    SampleSite,
    crack_symbol,
    derive_dimensionless,
    porosity_sweep,
    regular_kernel,
    solve_crack,
    stress_concentration,
    symbol_asymptotics,
)
from oracles import cosine_transform_oracle

CLASSICAL = MaterialParams(1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
POROUS = MaterialParams(1.0, 1.0, 1.0, math.sqrt(1.2), 1.0, 1.0)  # N = 0.4


def test_dimensionless_map_frozen_values():
    dp0 = derive_dimensionless(CLASSICAL)
    assert dp0.c_sq == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert dp0.porosity == 0.0
    assert dp0.coupling == 0.0
    assert dp0.len1_sq == math.inf

    dp = derive_dimensionless(MaterialParams(1.0, 1.0, 1.0, 0.6, 0.3, 1.0))
    assert dp.porosity == pytest.approx(0.4, abs=1e-14)

    dp4 = derive_dimensionless(POROUS)
    assert dp4.porosity == pytest.approx(0.4, abs=1e-14)
    assert dp4.c_sq == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_material_parameter_validation():
    with pytest.raises(ValueError):
        MaterialParams(1.0, 0.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        MaterialParams(1.0, -2.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        MaterialParams(1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        MaterialParams(1.0, 1.0, 1.0, 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        MaterialParams(1.0, 1.0, 1.0, -0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        MaterialParams(1.0, 1.0, 1.0, 0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        MaterialParams(1.0, float("nan"), 1.0, 0.0, 1.0, 1.0)
    # coupling saturates at beta^2 = xi*(lam + 2 mu)
    with pytest.raises(ValueError):
        MaterialParams(1.0, 1.0, 1.0, math.sqrt(3.0) + 1e-8, 1.0, 1.0)
    MaterialParams(1.0, 1.0, 1.0, math.sqrt(3.0) - 1e-8, 1.0, 1.0)


def test_dimensionless_parameter_validation():
    with pytest.raises(ValueError):
        DimensionlessParams(c_sq=0.0, coupling=0.0, len1_sq=1.0, len2_sq=1.0, porosity=0.0)
    with pytest.raises(ValueError):
        DimensionlessParams(c_sq=1.0, coupling=0.0, len1_sq=1.0, len2_sq=1.0, porosity=0.0)
    with pytest.raises(ValueError):
        DimensionlessParams(c_sq=0.5, coupling=0.0, len1_sq=1.0, len2_sq=1.0, porosity=1.0)
    with pytest.raises(ValueError):
        DimensionlessParams(c_sq=0.5, coupling=-0.1, len1_sq=1.0, len2_sq=1.0, porosity=0.0)


def test_symbol_vanishes_at_zero_and_is_linear_classically():
    dp0 = derive_dimensionless(CLASSICAL)
    assert crack_symbol(0.0, dp0) == 0.0
    s = np.linspace(0.0, 50.0, 101)
    line = (1.0 - dp0.c_sq) * s
    assert np.allclose(crack_symbol(s, dp0), line, rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError):
        crack_symbol(-1.0, dp0)


def test_symbol_positive_and_asymptotically_linear():
    dp = derive_dimensionless(POROUS)  # 1 - N - c^2 > 0 here
    s = np.linspace(1e-3, 400.0, 500)
    assert np.all(crack_symbol(s, dp) > 0.0)
    A, B = symbol_asymptotics(dp)
    s = np.linspace(10.0, 400.0, 200)
    gap = np.abs(crack_symbol(s, dp) / s - A)
    assert np.all(gap <= (B / A + 1.0) / s**2)


def test_asymptote_coefficients_frozen_values():
    A0, B0 = symbol_asymptotics(derive_dimensionless(CLASSICAL))
    assert A0 == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert B0 == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A, B = symbol_asymptotics(derive_dimensionless(POROUS))
    assert A == pytest.approx(0.24, abs=1e-13)
    # second coefficient from the expansion: (3/4)*N*c^2*(1-N)^2
    assert B == pytest.approx(0.036, abs=1e-12)


def test_symbol_remainder_decays_cubically():
    dp = derive_dimensionless(POROUS)
    A, B = symbol_asymptotics(dp)
    rem = lambda s: abs(float(crack_symbol(s, dp)) - A * s + B / s)
    c_est = rem(50.0) * 50.0**3
    assert np.isfinite(c_est) and c_est > 0.0
    for s in (100.0, 200.0, 400.0):
        assert rem(s) <= 3.0 * c_est / s**3 + 1e-14


def test_regular_kernel_vanishes_in_the_classical_limit():
    dp0 = derive_dimensionless(CLASSICAL)
    for x in (0.1, 0.5, 1.7):
        assert regular_kernel(x, dp0) == 0.0
    assert symbol_asymptotics(dp0)[0] == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert regular_kernel(0.33, dp0) == 0.0


def test_regular_kernel_even_and_singular_at_origin():
    dp = derive_dimensionless(POROUS)
    assert abs(regular_kernel(0.7, dp) - regular_kernel(-0.7, dp)) <= 1e-8
    with pytest.raises(ValueError):
        regular_kernel(0.0, dp)


def test_regular_kernel_self_convergence_and_quad_oracle():
    dp = derive_dimensionless(POROUS)
    val = regular_kernel(1.0, dp, OscIntSpec(s_max=800.0, panels_per_period=16))
    ref = regular_kernel(1.0, dp, OscIntSpec(s_max=2000.0, panels_per_period=32))
    assert abs(val - ref) <= 1e-6 * abs(ref)

    # independent reconstruction through adaptive quadrature
    A, B = symbol_asymptotics(dp)

    def remainder(s):
        s = np.asarray(s, dtype=float)
        return crack_symbol(s, dp) - A * s + B * s / (1.0 + s * s)

    def proxy(s):
        s = np.asarray(s, dtype=float)
        return -B * s / (1.0 + s * s)

    oracle = (
        cosine_transform_oracle(remainder, 1.0, 200.0)
        + cosine_transform_oracle(proxy, 1.0, 200.0)
        + B * float(sici(200.0)[1])
    ) / np.pi
    assert val == pytest.approx(oracle, abs=2e-6 * abs(oracle))


def test_regular_kernel_array_call_matches_scalar_calls_bitwise():
    dp = derive_dimensionless(POROUS)
    offsets = (np.arange(12) + 0.5) * 0.1
    table = regular_kernel(offsets.reshape(3, 4), dp)
    assert table.shape == (3, 4)
    assert np.array_equal(table.ravel(), [regular_kernel(float(u), dp) for u in offsets])
    assert isinstance(regular_kernel(0.35, dp), float)
    with pytest.raises(ValueError):
        regular_kernel(np.array([0.5, 0.0]), dp)


def test_symbol_asymptotics_runs_once_per_crack_solve(monkeypatch):
    import hypersing.crack as crack

    calls = []
    original = crack.symbol_asymptotics

    def counted(dp):
        calls.append(dp)
        return original(dp)

    monkeypatch.setattr(crack, "symbol_asymptotics", counted)
    solve_crack(POROUS, 1.0, 40)
    assert len(calls) == 1


def test_classical_opening_profile_and_amplitude():
    sol = solve_crack(CLASSICAL, 1.0, 200)
    x = sol.opening.points
    v = sol.opening.values
    exact = 0.75 * np.sqrt(1.0 - x * x)
    center = np.interp(0.0, x, v)
    assert abs(center - 0.75) <= 0.01 * 0.75
    inside = np.abs(x) <= 0.9
    assert np.max(np.abs(v - exact)[inside]) <= 0.01 * 0.75
    assert np.max(np.abs(v - exact)) <= 3e-2
    assert np.all(v >= 0.0)
    assert abs(sol.tip_coefficient / 0.75 - 1.0) <= 0.02
    assert stress_concentration(sol) == pytest.approx(sol.tip_coefficient / 0.75, rel=1e-12)


def test_zero_load_opening_is_identically_zero():
    quiet = MaterialParams(1.0, 1.0, 1.0, 0.0, 1.0, 0.0)
    sol = solve_crack(quiet, 1.0, 32)
    assert np.array_equal(sol.opening.values, np.zeros(32))
    with pytest.raises(ValueError):
        stress_concentration(sol)


def test_classical_opening_has_exact_reflection_symmetry():
    v = solve_crack(CLASSICAL, 1.0, 150).opening.values
    assert np.max(np.abs(v - v[::-1])) <= 1e-12 * np.max(np.abs(v))


def test_porous_opening_symmetric_positive_and_sited():
    # the difference kernel is sampled at the right cell node, which skews
    # the matrix by one half-cell; the induced asymmetry is O(h) and sits
    # well below the discretization error itself
    gaps = {}
    for n in (75, 150):
        sol = solve_crack(POROUS, 1.0, n)
        v = sol.opening.values
        gaps[n] = np.max(np.abs(v - v[::-1])) / np.max(np.abs(v))
        assert gaps[n] <= 0.1 * sol.grid.h
        assert np.all(v >= 0.0)
        assert sol.opening.site is SampleSite.COLLOC
        assert sol.grid.interval == Interval(-1.0, 1.0)
        assert sol.half_length == 1.0
    assert gaps[150] <= 0.7 * gaps[75]


def test_effective_load_agrees_between_both_reductions():
    # with A = (1-N)^2 (1-c^2) the porosity factors cancel exactly
    for mat in (CLASSICAL, POROUS, MaterialParams(2.0, 0.7, 1.3, 0.9, 0.8, 2.5)):
        dp = derive_dimensionless(mat)
        A, _ = symbol_asymptotics(dp)
        with_factors = np.pi * mat.sigma0 * (1.0 - dp.porosity) ** 2 / (2.0 * mat.mu * A)
        reduced = np.pi * mat.sigma0 / (2.0 * mat.mu * (1.0 - dp.c_sq))
        assert abs(with_factors - reduced) <= 1e-14 * abs(reduced)


def _mirror_tip_fit(sol):
    """Left-tip amplitude via the same weighted fit on the mirrored window."""
    n = sol.grid.n
    k = max(4, math.ceil(0.1 * n))
    window = slice(1, k)
    x = sol.grid.colloc[window]
    v = sol.opening.values[window]
    profile = np.sqrt(sol.half_length**2 - x * x)
    return float(np.dot(v, profile) / np.dot(profile, profile))


def test_left_and_right_tip_fits_agree():
    # exact in the classical limit; O(h) apart once the porous kernel's
    # right-node sampling breaks strict matrix symmetry
    sol = solve_crack(CLASSICAL, 1.0, 140)
    assert _mirror_tip_fit(sol) == pytest.approx(sol.tip_coefficient, abs=1e-6)
    gaps = {}
    for n in (75, 150):
        porous = solve_crack(POROUS, 1.0, n)
        gap = abs(_mirror_tip_fit(porous) - porous.tip_coefficient)
        assert gap <= 0.1 * porous.grid.h * porous.tip_coefficient
        gaps[n] = gap
    assert gaps[150] <= 0.7 * gaps[75]


def test_edge_ratio_bounded_over_fit_window():
    for mat in (CLASSICAL, POROUS):
        sol = solve_crack(mat, 1.0, 160)
        n = sol.grid.n
        k = max(4, math.ceil(0.1 * n))
        x = sol.grid.colloc[n - k : n - 1]
        ratio = sol.opening.values[n - k : n - 1] / np.sqrt(1.0 - x * x)
        assert np.all(np.isfinite(ratio))
        assert np.ptp(ratio) <= 0.2 * np.median(ratio)


def test_crack_pipeline_bitwise_deterministic():
    s1 = solve_crack(POROUS, 1.0, 80)
    s2 = solve_crack(POROUS, 1.0, 80)
    assert np.array_equal(s1.opening.values, s2.opening.values)
    assert s1.tip_coefficient == s2.tip_coefficient


def test_solver_preconditions():
    with pytest.raises(ValueError):
        solve_crack(CLASSICAL, 0.0, 50)
    with pytest.raises(ValueError):
        solve_crack(CLASSICAL, -1.0, 50)
    with pytest.raises(ValueError):
        solve_crack(CLASSICAL, 1.0, 9)
    solve_crack(CLASSICAL, 1.0, 10)


def test_porosity_sweep_rows_and_classical_anchor():
    rows = porosity_sweep(CLASSICAL, (0.0, 0.2, 0.4, 0.6), 1.0, 120)
    assert len(rows) == 4
    table = np.asarray(rows, dtype=float)
    assert np.all(np.isfinite(table))
    assert [r[0] for r in rows] == [0.0, 0.2, 0.4, 0.6]
    # opening and normalized tip both grow with porosity
    assert np.all(np.diff(table[:, 1]) > 0.0)
    assert np.all(np.diff(table[:, 2]) > 0.0)
    assert abs(table[0, 2] - 1.0) <= 0.05

    direct = solve_crack(CLASSICAL, 1.0, 120)
    center = float(np.interp(0.0, direct.opening.points, direct.opening.values))
    assert rows[0][1] == center
    assert rows[0][2] == stress_concentration(direct)


def test_porosity_sweep_repeats_identical_targets():
    rows = porosity_sweep(CLASSICAL, (0.3, 0.3), 1.0, 60)
    assert rows[0] == rows[1]


def test_porosity_sweep_validates_targets():
    with pytest.raises(ValueError):
        porosity_sweep(CLASSICAL, (0.0, 1.0), 1.0, 40)
    with pytest.raises(ValueError):
        porosity_sweep(CLASSICAL, (-0.1,), 1.0, 40)
