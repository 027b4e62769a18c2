"""Porous plane-strain crack pipeline: parameter maps, symbol, kernel split,
opening profiles, tip amplitudes, porosity sweep."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import toeplitz

from hypersing import (
    DimensionlessParams,
    Interval,
    MaterialParams,
    OscIntSpec,
    build_grid,
    crack_symbol,
    derive_dimensionless,
    porosity_sweep,
    regular_kernel,
    regular_kernel_table,
    residual_norm,
    solve_crack,
    stress_concentration,
    symbol_asymptotics,
)
from hypersing.quadrature import _halfline_cosine_tables, cosine_integral
from oracles import crack_spectral, regular_kernel_exact, regular_kernel_oracle

CLASSICAL = MaterialParams(1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
POROUS = MaterialParams(1.0, 1.0, 1.0, math.sqrt(1.2), 1.0, 1.0)  # N = 0.4


def test_dimensionless_map_frozen_values():
    assert [field.name for field in fields(DimensionlessParams)] == ["c_sq", "porosity"]
    dp0 = derive_dimensionless(CLASSICAL)
    assert dp0.c_sq == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert dp0.porosity == 0.0

    dp = derive_dimensionless(MaterialParams(1.0, 1.0, 1.0, 0.6, 0.3, 1.0))
    assert dp.porosity == pytest.approx(0.4, abs=1e-14)

    dp4 = derive_dimensionless(POROUS)
    assert dp4.porosity == pytest.approx(0.4, abs=1e-14)
    assert dp4.c_sq == pytest.approx(1.0 / 3.0, abs=1e-15)

    # each group is its closed form, bitwise
    mat = MaterialParams(0.3, 1.7, 2.0, 0.9, 0.6, 1.0)
    stiffness = mat.lam + 2.0 * mat.mu
    assert derive_dimensionless(mat) == DimensionlessParams(
        c_sq=mat.mu / stiffness, porosity=mat.beta**2 / (mat.xi * stiffness))


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
    with pytest.raises(ValueError, match="coupling number"):
        MaterialParams(1.0, 1.0, 1.0, math.sqrt(3.0) + 1e-8, 1.0, 1.0)
    MaterialParams(1.0, 1.0, 1.0, math.sqrt(3.0) - 1e-8, 1.0, 1.0)


def test_plane_strain_rule_gives_a_valid_record():
    # lam + 2 mu = 0.5 > 0 but lam + mu < 0: c^2 = 2 lies outside (0, 1)
    with pytest.raises(ValueError, match="lam \\+ mu must be positive"):
        MaterialParams(-1.5, 1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="lam \\+ mu must be positive"):
        MaterialParams(-1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    # lam + mu = 1.1e-16 > 0, but c^2 = 1 / (lam + 2 mu) rounds to 1
    with pytest.raises(ValueError, match="c_sq"):
        MaterialParams(-1.0 + 2.0**-53, 1.0, 1.0, 0.0, 1.0, 1.0)
    for lam in (-0.99, -0.5, 0.0, 1e6):
        dp = derive_dimensionless(MaterialParams(lam, 1.0, 1.0, 0.0, 1.0, 1.0))
        assert 0.0 < dp.c_sq < 1.0
    # a negative lam within the rule solves
    sol = solve_crack(MaterialParams(-0.5, 1.0, 1.0, 0.5, 1.0, 1.0), 1.0, 20)
    assert sol.tip_coefficient > 0.0


def test_dimensionless_parameter_validation():
    DimensionlessParams(c_sq=0.5, porosity=0.0)
    for c_sq, porosity in ((0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -0.1),
                           (float("nan"), 0.0), (0.5, float("nan"))):
        with pytest.raises(ValueError):
            DimensionlessParams(c_sq=c_sq, porosity=porosity)


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


def test_symbol_tail_off_its_expansion_is_refused(monkeypatch):
    import hypersing.crack as crack

    real = crack.crack_symbol
    # an extra 0.01 / s shifts the fitted decay coefficient by 0.01, 28% of 0.036
    monkeypatch.setattr(crack, "crack_symbol",
                        lambda s, dp: real(s, dp) + 0.01 / np.maximum(s, 1.0))
    with pytest.raises(ValueError, match="decay coefficient"):
        symbol_asymptotics(derive_dimensionless(POROUS))


def test_symbol_fit_rounding_at_tiny_porosity_is_accepted():
    # N = 1e-12, c^2 = 1/5: the fit's rounding error, 1.4e-11, is a hundred
    # times the closed-form decay 1.5e-13
    dp = derive_dimensionless(MaterialParams(3.0, 1.0, 1.0, math.sqrt(5e-12), 1.0, 1.0))
    assert symbol_asymptotics(dp)[1] == 0.75 * dp.porosity * dp.c_sq * (1.0 - dp.porosity) ** 2


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
    for x in (0.0025, 0.7, 1.0, 3.3, 203.4):
        assert regular_kernel(x, dp) == regular_kernel(-x, dp)
    with pytest.raises(ValueError):
        regular_kernel(0.0, dp)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            regular_kernel(bad, dp)


def test_regular_kernel_self_convergence_and_quad_oracle():
    dp = derive_dimensionless(POROUS)
    val = regular_kernel(1.0, dp, OscIntSpec(s_max=800.0))
    ref = regular_kernel(1.0, dp, OscIntSpec(s_max=2000.0))
    assert abs(val - ref) <= 1e-6 * abs(ref)

    # independent reconstruction through adaptive quadrature
    oracle = regular_kernel_oracle(1.0, dp.porosity, dp.c_sq)
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


def test_pointwise_kernel_matches_the_two_integrand_split():
    # the remainder and the proxy integrated apart, on the grid that
    # regular_kernel reads |x| from: the last of floor(|x|) + 1 half-odd offsets
    spec = OscIntSpec()
    for n_target in (0.1, 0.4, 0.6):
        dp = derive_dimensionless(_with_porosity(n_target))
        slope, decay = symbol_asymptotics(dp)
        remainder = lambda s: crack_symbol(s, dp) - slope * s + decay * s / (1.0 + s * s)
        proxy = lambda s: -decay * s / (1.0 + s * s)
        for u in (0.005, 0.3, 2.5, 40.0):
            j = math.floor(u)
            rem, prox = _halfline_cosine_tables([remainder, proxy], 2.0 * u / (2 * j + 1),
                                                j + 1, spec)[:, j]
            split = (rem + prox + decay * float(cosine_integral(spec.s_max * u))) / np.pi
            assert abs(regular_kernel(u, dp, spec) - split) <= 1e-15 * max(1.0, abs(split))


def _with_porosity(n_target, sigma0=1.0):
    # lam = mu = alpha = xi = 1, so beta^2 = 3 N
    return MaterialParams(1.0, 1.0, 1.0, math.sqrt(3.0 * n_target), 1.0, sigma0)


@pytest.mark.parametrize("half_length", (1.0, 10.0, 100.0))
def test_kernel_table_matches_quadrature_oracle(half_length):
    for n in (40, 200, 240, 3200):
        h = 2.0 * half_length / n
        for n_target in (0.1, 0.35, 0.6, 0.85):
            dp = derive_dimensionless(_with_porosity(n_target))
            table = regular_kernel_table(h, n, dp)
            assert table.shape == (n,)
            for j in (0, 1, n // 2, n - 1):
                oracle = regular_kernel_oracle((j + 0.5) * h, dp.porosity, dp.c_sq)
                assert abs(table[j] - oracle) <= 1e-9


def test_kernel_table_converges_to_the_exact_kernel():
    # the truncation at s_max, which the quadrature oracle shares, shows
    # only against the closed form: it falls like 1/s_max^2
    pytest.importorskip("mpmath")
    for half_length, n in ((1.0, 200), (10.0, 201), (100.0, 240), (1.0, 3200)):
        h = 2.0 * half_length / n
        cells = np.array([0, 1, n // 2, n - 1])
        for n_target in (0.1, 0.35, 0.6, 0.85):
            dp = derive_dimensionless(_with_porosity(n_target))
            exact = np.array([regular_kernel_exact((j + 0.5) * h, dp.porosity, dp.c_sq)
                              for j in cells])
            coarse, fine = (
                np.max(np.abs(regular_kernel_table(h, n, dp, OscIntSpec(s_max))[cells] - exact))
                for s_max in (200.0, 800.0))
            assert coarse <= 1e-7
            assert fine <= 5e-9
            assert fine <= coarse / 10.0


def test_kernel_table_matches_pointwise_kernel():
    for half_length, n, n_target in ((1.0, 200, 0.35), (10.0, 40, 0.85),
                                     (100.0, 240, 0.6), (100.0, 40, 0.1)):
        h = 2.0 * half_length / n
        dp = derive_dimensionless(_with_porosity(n_target))
        table = regular_kernel_table(h, n, dp)
        cells = np.array([0, 1, n // 2, n - 1])
        pointwise = regular_kernel((cells + 0.5) * h, dp)
        assert np.max(np.abs(table[cells] - pointwise)) <= 1e-10
    classical = derive_dimensionless(CLASSICAL)
    assert np.array_equal(regular_kernel_table(0.1, 20, classical), np.zeros(20))


def test_sign_flipped_opening_is_refused():
    # past N = 1 - c^2 = 2/3 the symbol is negative near s = 0; at b = 10 the
    # opening dips to several times its maximum below zero, at b = 5 it is
    # negative everywhere
    for half_length in (10.0, 5.0):
        with pytest.raises(ValueError, match="negative samples"):
            solve_crack(_with_porosity(0.8), half_length, 200)
    quiet = solve_crack(_with_porosity(0.8, sigma0=0.0), 10.0, 200)
    assert np.array_equal(quiet.opening.values, np.zeros(200))
    # at b = 1 the opening stays positive over the whole [0, 0.9) sweep range
    assert np.all(solve_crack(_with_porosity(0.89), 1.0, 200).opening.values > 0.0)


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


def _node_mean_indexed(grid, scale, table):
    """The kernel callable read by float index recovery at both nodes of the
    cell whose right node is t, and averaged: the reference for the view."""
    def at(x, t):
        return scale * table[np.rint(np.abs(x - t) / grid.h - 0.5).astype(int)]

    def K0(x, t):
        return (at(x, t - grid.h) + at(x, t)) / 2
    return K0


def _crack_system(n, half_length, material=POROUS):
    """Grid, node-mean kernel table and load of solve_crack's collocation system."""
    from hypersing.crack import _node_mean

    dp = derive_dimensionless(material)
    slope, _ = symbol_asymptotics(dp)
    grid = build_grid(-half_length, half_length, n)
    table = -(np.pi / slope) * regular_kernel_table(grid.h, n, dp)
    rhs = np.full(n, np.pi * material.sigma0 / (2.0 * material.mu * (1.0 - dp.c_sq)))
    return grid, _node_mean(table), rhs


def _formed_system(monkeypatch, folded, mean, load):
    """B as ``folded.solve`` forms it, before its in-place factorization,
    the B x of its residual gate, and the n cell constants it returns."""
    import hypersing.fullkernel as fullkernel

    seen, real = [], fullkernel._solve_in_place

    def spy(matrix, rhs, matvec):
        seen.append((matrix.copy(order="A"), matvec))
        return real(matrix, rhs, matvec)

    with monkeypatch.context() as patch:
        patch.setattr(fullkernel, "_solve_in_place", spy)
        phi = folded.solve(mean, load)
    [(matrix, matvec)] = seen
    return matrix, matvec, phi


def _singular_block(folded):
    """The folded finite-part block S of ``folded``, column chunk by column chunk."""
    S = np.empty((folded.r, folded.r), order="F")
    for start, stop in folded.chunks:
        folded.columns(start, stop, S.T[start:stop])
    return S


@pytest.mark.parametrize("n", (7, 8, 240))
def test_kernel_view_matches_offset_indexing_bitwise(n):
    # the kernel is the n-entry node-mean table; its Toeplitz matrix is
    # the kernel matrix, compared with float index recovery bitwise
    from hypersing.crack import _node_mean

    dp = derive_dimensionless(POROUS)
    slope, _ = symbol_asymptotics(dp)
    scale = -(np.pi / slope)
    grid = build_grid(-1.0, 1.0, n)
    table = regular_kernel_table(grid.h, n, dp)
    mean = _node_mean(scale * table)
    reference = _node_mean_indexed(grid, scale, table)
    assert mean.shape == (n,)
    kernel = toeplitz(mean)
    assert np.array_equal(kernel, reference(grid.colloc[:, None], grid.nodes[None, 1:]))


@pytest.mark.parametrize("n, half_length", ((7, 1.0), (8, 1.0), (241, 10.0)))
def test_crack_matrix_is_exactly_centro_symmetric(n, half_length):
    from hypersing.fullkernel import _HalfAngleTables, _weighted_matrix

    grid, mean, _ = _crack_system(n, half_length)
    matrix = _weighted_matrix(grid, toeplitz(mean), _HalfAngleTables(n))
    assert np.array_equal(matrix, matrix[::-1, ::-1])


@pytest.mark.parametrize("n, half_length", ((7, 1.0), (8, 1.0), (241, 10.0),
                                            (400, 1.0), (240, 100.0)))
def test_folded_solve_matches_full_lu(monkeypatch, n, half_length):
    # the folded singular part is evaluated in closed form rather than
    # summed from the full rows, so the two agree to rounding per row
    from hypersing import lu_solve
    from hypersing.fullkernel import _FoldedGrid, _HalfAngleTables, _weighted_matrix

    grid, mean, rhs = _crack_system(n, half_length)
    matrix = _weighted_matrix(grid, toeplitz(mean), _HalfAngleTables(n))
    r = n - n // 2
    folded, _, half = _formed_system(monkeypatch, _FoldedGrid(grid), mean, rhs[0])
    assert folded.flags.f_contiguous
    expect = matrix[:r, :r].copy()
    expect[:, :n - r] += matrix[:r, r:][:, ::-1]
    row_scale = np.max(np.abs(expect), axis=1, keepdims=True)
    assert np.all(np.abs(folded - expect) <= 1e-13 * row_scale)
    full = lu_solve(matrix, rhs)
    assert np.max(np.abs(half - full)) <= 1e-12 * np.max(np.abs(full))


@pytest.mark.parametrize("half_length", (1.0, 10.0, 100.0))
@pytest.mark.parametrize("n", (7, 8, 241, 400, 800))
def test_shared_singular_half_gives_the_folded_matrix_bitwise(monkeypatch, n, half_length):
    # the shared block is the folded r-by-r singular part that a folded grid
    # keeps within its budget; with no budget, each chunk is formed anew
    import hypersing.fullkernel as fullkernel
    from hypersing.fullkernel import _chunks, _FoldedGrid

    grid, mean, rhs = _crack_system(n, half_length)
    kept = _FoldedGrid(grid)
    r = n - n // 2
    assert kept.singular.shape == (r, r)
    if n >= 400:
        assert len(_chunks(r, r)) > 1
    monkeypatch.setattr(fullkernel, "_LARGE_FOLD_BYTES", 0)
    formed = _FoldedGrid(grid)
    assert formed.singular is None
    assert np.array_equal(_formed_system(monkeypatch, kept, mean, rhs[0])[0],
                          _formed_system(monkeypatch, formed, mean, rhs[0])[0])


@pytest.mark.parametrize("shared", (False, True), ids=("own", "shared"))
@pytest.mark.parametrize("n", (11, 12, 241, 1601))
def test_folded_matvec_matches_the_formed_matrix(monkeypatch, n, shared):
    # the kernel part of B x is taken by convolution with the table,
    # not from the formed columns, so the two agree to rounding; the
    # budget is set so that the grid keeps its block, or forms it anew
    import hypersing.fullkernel as fullkernel
    from hypersing.fullkernel import _FoldedGrid

    grid, mean, rhs = _crack_system(n, 1.0)
    monkeypatch.setattr(fullkernel, "_LARGE_FOLD_BYTES", (1 << 30) if shared else 0)
    folded = _FoldedGrid(grid)
    assert (folded.singular is not None) == shared
    matrix, matvec, _ = _formed_system(monkeypatch, folded, mean, rhs[0])
    x = np.random.default_rng(n).standard_normal(folded.r)
    expect = matrix @ x
    assert np.max(np.abs(matvec(x) - expect)) <= 1e-14 * np.max(np.abs(expect))


@pytest.mark.parametrize("n", (11, 1449, 1450, 3200, 3201))
def test_folded_product_matches_the_formed_block(monkeypatch, n):
    # the product by S's structure is checked at every n against S formed
    # column chunk by column chunk, on a grid that keeps no S: by the size
    # rule from n = 1449 on, and at n = 11 with the rule set to zero
    import hypersing.fullkernel as fullkernel

    if n == 11:
        monkeypatch.setattr(fullkernel, "_LARGE_FOLD_BYTES", 0)
    folded = fullkernel._FoldedGrid(build_grid(-1.0, 1.0, n))
    r = folded.r
    assert folded.singular is None
    S = _singular_block(folded)
    for x in (np.random.default_rng(n).standard_normal(r), np.ones(r),
              np.cos(np.linspace(0.0, 3.0, r))):
        expect = S @ x
        bound = 1e-14 * np.max(np.abs(S) @ np.abs(x))
        assert np.max(np.abs(folded.product(x) - expect)) <= bound


def test_residual_gate_reads_the_structured_product(monkeypatch):
    # above the budget the gate's S x comes from the grid's product alone:
    # one off by noise of 1e-6, fresh on every call so that the refinement
    # step cannot cancel it, fails the gate (tolerance 2.4e-9 here)
    import hypersing.fullkernel as fullkernel
    from hypersing.linalg import ResidualError

    real, noise = fullkernel._FoldedGrid.product, np.random.default_rng(1450)
    monkeypatch.setattr(fullkernel._FoldedGrid, "product",
                        lambda self, x: real(self, x) + 1e-6 * noise.standard_normal(x.size))
    with pytest.raises(ResidualError):
        solve_crack(POROUS, 1.0, 1450)


def test_folded_matrix_map_is_private_from_its_size_on(monkeypatch):
    # a shared anonymous map is shared memory, whose huge pages a kernel
    # may refuse whatever the advice; the matrix gets a private one
    import mmap
    import hypersing.fullkernel as fullkernel

    calls, real = [], mmap.mmap

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(fullkernel.mmap, "mmap", recorded)
    # the grid's one size rule: at r = 700 (3.7 MiB) it keeps S and B comes
    # from numpy; at r = 725 (8 r^2 bytes, just over 4 MiB) neither holds
    grid, mean, rhs = _crack_system(1400, 1.0)
    small = fullkernel._FoldedGrid(grid)
    assert not small.large and small.singular is not None
    assert _formed_system(monkeypatch, small, mean, rhs[0])[0].shape == (700, 700)
    assert calls == []
    grid, mean, rhs = _crack_system(1450, 1.0)
    large = fullkernel._FoldedGrid(grid)
    assert large.large and large.singular is None
    r = large.r
    assert r == 725
    matrix = _formed_system(monkeypatch, large, mean, rhs[0])[0]
    assert matrix.shape == (r, r) and matrix.flags.f_contiguous
    assert calls == [((-1, 8 * r * r), {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS})]


def test_shared_singular_half_is_read_only():
    from hypersing.fullkernel import _FoldedGrid

    singular = _FoldedGrid(build_grid(-1.0, 1.0, 41)).singular
    with pytest.raises(ValueError):
        singular[0, 0] = 0.0


def _folded_singular_exact(n, i):
    """Row i of the folded singular part in 40-digit arithmetic, and the
    unfolded row of n cells it is folded from, both from the antiderivative
    F of ``_HalfAngleTables`` in its plain form at every node."""
    import mpmath

    with mpmath.workdps(40):
        xi = mpmath.mpf(2 * i + 1 - n) / n
        s = mpmath.sqrt((1 - xi) * (1 + xi))

        def F(u):
            omega = mpmath.sqrt((1 - u) * (1 + u))
            return (omega / (xi - u) - mpmath.asin(u)
                    + xi * mpmath.log(abs((1 - xi * u + s * omega) / (u - xi))) / s)

        at = [F(mpmath.mpf(2 * j - n) / n) for j in range(n + 1)]
        cell = [at[j + 1] - at[j] for j in range(n)]
        r = n - n // 2
        folded = np.array([float(cell[j] + (cell[n - 1 - j] if n - 1 - j != j else 0))
                           for j in range(r)])
        return folded, np.array([float(c) for c in cell])


@pytest.mark.parametrize("n", (7, 8, 241, 3200))
def test_folded_singular_part_matches_40_digit_arithmetic(n):
    # rows at the tip, at the quarter point and at the centre; every row
    # holds the cells of both tips, folded onto each other.  The unfolded
    # rows are route 2's, from the same tables as the fold: its matrix of
    # a zero kernel is the singular part alone.
    from hypersing.fullkernel import _FoldedGrid, _HalfAngleTables, _weighted_matrix

    grid = build_grid(-1.0, 1.0, n)
    r = n - n // 2
    folded = _singular_block(_FoldedGrid(grid))
    rows = sorted({0, 1, r // 2, r - 2, r - 1} if n < 3200 else {0, r - 1})
    zero = np.broadcast_to(0.0, (n, n))
    unfolded = _weighted_matrix(grid, zero, _HalfAngleTables(n))[rows]
    summed = unfolded[:, :r].copy()
    summed[:, :n - r] += unfolded[:, r:][:, ::-1]
    for cells, row, i in zip(unfolded, summed, rows):
        exact, exact_cells = _folded_singular_exact(n, i)
        scale = np.maximum(1.0, np.abs(exact))
        assert np.all(np.abs(folded[i] - exact) <= 1e-13 * scale)
        assert np.all(np.abs(folded[i] - row) <= 5e-13 * scale)
        assert np.all(np.abs(cells - exact_cells) <= 1e-13 * np.maximum(1.0, np.abs(exact_cells)))


@pytest.mark.parametrize("n", (40, 41))
def test_mirrored_solution_passes_the_full_residual_gate(n):
    from hypersing.fullkernel import _HalfAngleTables, _weighted_matrix

    grid, mean, rhs = _crack_system(n, 1.0)
    sol = solve_crack(POROUS, 1.0, n)
    weight = np.sqrt(1.0 - grid.colloc**2)
    phi = -sol.opening.values / weight
    matrix = _weighted_matrix(grid, toeplitz(mean), _HalfAngleTables(n))
    assert residual_norm(matrix, phi, rhs) <= 1e-9 * rhs[0]


@pytest.mark.parametrize("n", (150, 151))
def test_classical_opening_equals_the_full_solve(n):
    # at zero porosity the kernel vanishes and the full matrix is the
    # singular part alone, as it was before the folded solve
    from hypersing import lu_solve
    from hypersing.fullkernel import _HalfAngleTables, _weighted_matrix

    material = MaterialParams(1.3, 0.8, 1.0, 0.0, 1.0, 1.7)
    grid, _, rhs = _crack_system(n, 2.0, material)
    tables = _HalfAngleTables(n)
    weight = grid.interval.halfwidth * tables.mid_weight
    full = -weight * lu_solve(_weighted_matrix(grid, np.zeros((n, n)), tables), rhs)
    opening = solve_crack(material, 2.0, n).opening.values
    assert np.max(np.abs(opening - full)) <= 1e-12 * np.max(full)


def test_kernel_table_handed_to_the_solve_is_left_unwritten(monkeypatch):
    import hypersing.crack as crack

    seen = []
    real = crack._FoldedGrid.solve

    def spy(folded, mean, load):
        seen.append((mean, mean.copy()))
        return real(folded, mean, load)

    monkeypatch.setattr(crack._FoldedGrid, "solve", spy)
    solve_crack(POROUS, 1.0, 41)
    [(mean, before)] = seen
    assert mean.shape == (41,)
    assert np.array_equal(mean, before)


def test_phase_period_past_int64_is_refused():
    # a scaled cell width near 1e-17 needs a cosine-rule period past int64
    with pytest.raises(ValueError, match="exceeds int64"):
        solve_crack(POROUS, 1e-16, 10)
    with pytest.raises(ValueError, match="exceeds int64"):
        regular_kernel(1e-17, derive_dimensionless(POROUS))


def test_non_finite_kernel_table_is_refused(monkeypatch):
    import hypersing.crack as crack

    real = crack._kernel_tables

    def spoiled(h, n, dps, spec):
        tables = real(h, n, dps, spec)
        tables[0, n // 3] = np.nan
        return tables

    monkeypatch.setattr(crack, "_kernel_tables", spoiled)
    assembled = []
    monkeypatch.setattr(crack._FoldedGrid, "solve", lambda *args: assembled.append(args))
    with pytest.raises(ValueError, match="non-finite"):
        solve_crack(POROUS, 1.0, 40)
    assert not assembled


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
    # the kernel is averaged over both cell nodes, so the matrix is exactly
    # centro-symmetric and the mirrored folded solution exactly symmetric
    for n in (75, 150):
        sol = solve_crack(POROUS, 1.0, n)
        v = sol.opening.values
        assert np.array_equal(v, v[::-1])
        assert np.all(v >= 0.0)
        assert np.array_equal(sol.opening.points, sol.grid.colloc)
        assert sol.grid.interval == Interval(-1.0, 1.0)
        assert sol.half_length == 1.0
    v = solve_crack(_with_porosity(0.35), 100.0, 240).opening.values
    assert np.array_equal(v, v[::-1])


def test_effective_load_agrees_between_both_reductions():
    # with A = (1-N)^2 (1-c^2) the porosity factors cancel exactly
    for mat in (CLASSICAL, POROUS, MaterialParams(2.0, 0.7, 1.3, 0.9, 0.8, 2.5)):
        dp = derive_dimensionless(mat)
        A, _ = symbol_asymptotics(dp)
        with_factors = np.pi * mat.sigma0 * (1.0 - dp.porosity) ** 2 / (2.0 * mat.mu * A)
        reduced = np.pi * mat.sigma0 / (2.0 * mat.mu * (1.0 - dp.c_sq))
        assert abs(with_factors - reduced) <= 1e-14 * abs(reduced)


def test_tip_coefficient_is_phi_of_both_end_cells(monkeypatch):
    import hypersing.crack as crack

    solved = []
    real = crack._FoldedGrid.solve
    monkeypatch.setattr(crack._FoldedGrid, "solve",
                        lambda *args: solved.append(real(*args)) or solved[-1])
    for mat, n in ((CLASSICAL, 140), (POROUS, 75), (POROUS, 150)):
        tip = solve_crack(mat, 1.0, n).tip_coefficient
        phi = -solved.pop()  # the solve's constants are the opening's, negated
        assert phi[0] == phi[-1] == tip


def test_edge_ratio_bounded_over_outer_tenth():
    for mat in (CLASSICAL, POROUS):
        sol = solve_crack(mat, 1.0, 160)
        n = sol.grid.n
        k = max(4, math.ceil(0.1 * n))
        x = sol.grid.colloc[n - k : n - 1]
        ratio = sol.opening.values[n - k : n - 1] / np.sqrt(1.0 - x * x)
        assert np.all(np.isfinite(ratio))
        assert np.ptp(ratio) <= 0.2 * np.median(ratio)


@pytest.mark.parametrize("half_length", (1.0, 10.0))
def test_spectral_reference_is_a_1_alone_without_porosity(half_length):
    centre, tip = crack_spectral(0.0, 1.0 / 3.0, half_length)
    assert centre == pytest.approx(0.75 * half_length, rel=1e-14)
    assert tip / 0.75 == pytest.approx(1.0, abs=1e-14)


def test_spectral_reference_centre_and_end_cell_tip():
    dp = derive_dimensionless(POROUS)
    centre, tip = crack_spectral(dp.porosity, dp.c_sq, 1.0)
    assert centre == pytest.approx(0.80834865, abs=5e-9)
    limit = tip / 0.75
    # the end cell converges to the spectral tip limit like 1/n
    gaps = [abs(stress_concentration(solve_crack(POROUS, 1.0, n)) - limit) for n in (200, 800)]
    assert gaps[0] <= 3e-4
    assert gaps[1] < gaps[0]


def test_alpha_scales_the_crack_by_the_internal_length():
    # l = sqrt(alpha / xi) = 2: the crack of half-length 10 is the l = 1 crack
    # of half-length 5 scaled by 2, which is exact in binary
    stiff = replace(POROUS, alpha=4.0)
    sol, unit = solve_crack(stiff, 10.0, 200), solve_crack(POROUS, 5.0, 200)
    assert np.array_equal(sol.opening.points, 2.0 * unit.opening.points)
    assert np.array_equal(sol.opening.values, 2.0 * unit.opening.values)
    assert sol.tip_coefficient == unit.tip_coefficient
    assert sol.half_length == 10.0 and sol.grid.interval == Interval(-10.0, 10.0)
    rows = porosity_sweep(replace(CLASSICAL, alpha=4.0), (0.0, 0.4), 10.0, 200)
    unit_rows = porosity_sweep(CLASSICAL, (0.0, 0.4), 5.0, 200)
    assert [(t, 2.0 * c, r) for t, c, r in unit_rows] == rows


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


def test_porosity_sweep_validates_targets(monkeypatch):
    import hypersing.crack as crack

    tabled = []
    real = crack._kernel_tables
    monkeypatch.setattr(crack, "_kernel_tables", lambda *args: tabled.append(args) or real(*args))
    # a bad target anywhere in the list is refused before any table is built
    for targets in ((0.0, 1.0), (-0.1,), (0.3, 0.5, float("nan"))):
        with pytest.raises(ValueError, match="porosity targets"):
            porosity_sweep(CLASSICAL, targets, 1.0, 40)
    for half_length, n in ((0.0, 40), (1.0, 9)):
        with pytest.raises(ValueError):
            porosity_sweep(CLASSICAL, (0.3,), half_length, n)
    assert not tabled


def test_porosity_sweep_refuses_an_empty_target_list(monkeypatch):
    import hypersing.crack as crack

    monkeypatch.setattr(crack, "_kernel_tables", None)  # refused before any table
    for targets in ((), []):
        with pytest.raises(ValueError, match="at least one target"):
            porosity_sweep(CLASSICAL, targets, 1.0, 40)


SWEEP_TARGETS = (0.0, 0.05, 0.2, 0.35, 0.5, 0.62)


@pytest.mark.parametrize("half_length, n, targets", (
    pytest.param(1.0, 200, SWEEP_TARGETS, id="1.0-200"),
    pytest.param(100.0, 240, SWEEP_TARGETS, id="100.0-240"),
    # above the size rule the shared grid forms S anew for every target;
    # three targets keep this case short
    pytest.param(1.0, 1450, SWEEP_TARGETS[1::2], id="1.0-1450")))
def test_porosity_sweep_rows_equal_single_solves_bitwise(half_length, n, targets):
    rows = porosity_sweep(CLASSICAL, targets, half_length, n)
    assert len(rows) == len(targets)
    for n_target, (got_target, center, ratio) in zip(targets, rows):
        sol = solve_crack(_with_porosity(n_target), half_length, n)
        assert got_target == n_target
        assert center == float(np.interp(0.0, sol.opening.points, sol.opening.values))
        assert ratio == stress_concentration(sol)


def test_porosity_sweep_shares_the_table_geometry(monkeypatch):
    import hypersing.crack as crack

    ci_calls, decay_checks = [], []
    real_ci, real_check = crack.cosine_integral, crack._check_cubic_decay

    def counted_ci(x):
        ci_calls.append(np.shape(x))
        return real_ci(x)

    def counted_check(F, s_max):
        decay_checks.append(F)
        return real_check(F, s_max)

    monkeypatch.setattr(crack, "cosine_integral", counted_ci)
    monkeypatch.setattr(crack, "_check_cubic_decay", counted_check)
    targets = [0.0] + [0.03 * k for k in range(1, 20)]
    rows = porosity_sweep(CLASSICAL, targets, 1.0, 200)
    assert len(rows) == 20
    assert ci_calls == [(200,)]
    # one spot check per porous target, each on its own remainder
    assert len(decay_checks) == 19 and len(set(map(id, decay_checks))) == 19


def test_porosity_sweep_memory_does_not_grow_per_target():
    import tracemalloc

    def peak(count):
        targets = list(np.linspace(0.02, 0.62, count))
        tracemalloc.start()
        try:
            porosity_sweep(CLASSICAL, targets, 1.0, 200)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # warm-up
    # the targets are transformed one at a time: 40 targets hold only their
    # n-entry tables beyond what 2 hold, not 40 transforms at once
    assert peak(40) - peak(2) <= 256 * 1024


def test_crack_solves_build_the_half_angle_tables_once_per_system(monkeypatch):
    import hypersing.fullkernel as fullkernel

    built = []
    real = fullkernel._HalfAngleTables
    monkeypatch.setattr(fullkernel, "_HalfAngleTables", lambda n: built.append(n) or real(n))
    solve_crack(POROUS, 1.0, 200)
    assert built == [200]
    built.clear()
    porosity_sweep(CLASSICAL, (0.1, 0.2, 0.3, 0.4), 1.0, 200)
    # one for the sweep's folded grid, which every target's system shares
    assert built == [200]


@pytest.mark.parametrize("n", (41, 200, 1448, 1450))
def test_folded_grid_is_built_once_per_solve_and_keeps_its_block_within_the_budget(
        monkeypatch, n):
    import hypersing.crack as crack
    import hypersing.fullkernel as fullkernel

    grids, columns_built = [], []
    real_grid, real_columns = fullkernel._FoldedGrid, fullkernel._FoldedGrid.columns
    monkeypatch.setattr(crack, "_FoldedGrid", lambda grid: grids.append(grid) or real_grid(grid))

    def counted(folded, start, stop, out):
        if folded.singular is None:  # formed in closed form, not copied from a kept S
            columns_built.append(stop - start)
        return real_columns(folded, start, stop, out)

    monkeypatch.setattr(real_grid, "columns", counted)
    # 8 r^2 bytes is just under 4 MiB at n = 1448 (r = 724) and just over
    # it at n = 1450, where each system forms its block chunk by chunk for
    # its matrix only: its residual takes S x from the block's structure
    r = n - n // 2
    kept = n <= 1448
    targets = (0.2, 0.4)
    rows = porosity_sweep(CLASSICAL, targets, 1.0, n)
    assert len(grids) == 1
    assert sum(columns_built) == (r if kept else r * len(targets))
    for n_target, center, ratio in rows:
        grids.clear()
        columns_built.clear()
        sol = solve_crack(_with_porosity(n_target), 1.0, n)
        assert len(grids) == 1
        assert sum(columns_built) == r
        assert center == float(np.interp(0.0, sol.opening.points, sol.opening.values))
        assert ratio == stress_concentration(sol)


def test_porosity_sweep_memory_is_a_single_solve_plus_the_singular_half():
    import tracemalloc

    n = 800
    r = n - n // 2

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def sweep():
        porosity_sweep(CLASSICAL, (0.2, 0.4), 1.0, n)

    def single():
        solve_crack(_with_porosity(0.4), 1.0, n)

    sweep(), single()  # warm-up
    # a single solve keeps its grid's r-by-r folded finite-part block as
    # the sweep does, so the sweep holds at most one such block more
    assert peak(sweep) <= peak(single) + 8 * r * r + 256 * 1024


def test_single_solve_memory_is_the_folded_matrix_alone(monkeypatch):
    import tracemalloc

    import hypersing.fullkernel as fullkernel

    n = 1600
    r = n - n // 2
    mapped = []
    real = fullkernel.mmap.mmap
    monkeypatch.setattr(fullkernel.mmap, "mmap",
                        lambda *args, **kwargs: mapped.append(args[1]) or real(*args, **kwargs))
    material = _with_porosity(0.35)
    solve_crack(material, 1.0, n)  # warm-up
    tracemalloc.start()
    try:
        solve_crack(material, 1.0, n)
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # B is factored in place in its own memory map, which tracemalloc does
    # not see, and nothing else of r-by-r size is formed: B and every
    # temporary together stay within 1.15 B + 1 MiB
    assert mapped == [8 * r * r] * 2
    assert 8 * r * r + traced <= 1.15 * 8 * r * r + 2**20


def test_single_solve_memory_within_the_budget_is_the_folded_matrix_and_its_block():
    import tracemalloc

    n = 1448
    r = n - n // 2
    material = _with_porosity(0.35)
    solve_crack(material, 1.0, n)  # warm-up
    tracemalloc.start()
    try:
        solve_crack(material, 1.0, n)
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 8 r^2 is just under 4 MiB, so B comes from numpy's allocator and is
    # traced, beside the grid's kept finite-part block S of the same size:
    # B, S and every temporary together stay within 2.15 B + 1 MiB
    assert traced <= 2.15 * 8 * r * r + 2**20


def test_non_finite_sweep_table_is_refused(monkeypatch):
    import hypersing.crack as crack

    real = crack._kernel_tables

    def spoiled(h, n, dps, spec):
        tables = real(h, n, dps, spec)
        tables[-1, n // 3] = np.inf
        return tables

    monkeypatch.setattr(crack, "_kernel_tables", spoiled)
    assembled = []
    real_solve = crack._FoldedGrid.solve
    monkeypatch.setattr(crack._FoldedGrid, "solve",
                        lambda *args: assembled.append(args) or real_solve(*args))
    with pytest.raises(ValueError, match="non-finite"):
        porosity_sweep(CLASSICAL, (0.2, 0.4), 1.0, 40)
    # the first target solved; the spoiled second one was refused before assembly
    assert len(assembled) == 1
