"""Full-kernel equation: direct collocation and the second-kind reduction."""

import numpy as np
import pytest

from hypersing import (
    FredholmSystem,
    FullProblem,
    Interval,
    PVQuadSpec,
    SingularMatrixError,
    assemble_full,
    build_grid,
    chebyshev_nodes,
    chebyshev_nystrom_rule,
    fredholm_reduce,
    invert_characteristic,
    nystrom_eval,
    solve_characteristic,
    solve_full_collocation,
    solve_fredholm,
)
from hypersing import CharacteristicProblem

IV = Interval(-1.0, 1.0)
SPEC = PVQuadSpec(m=200)


def flat_load(x):
    return np.full(np.shape(x), -np.pi)


def linear_f(x):
    return -np.pi * np.asarray(x, dtype=float)


def semicircle(x):
    return np.sqrt(1.0 - np.asarray(x, dtype=float) ** 2)


def kernel_zero(x, t):
    return np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape)


def cos_kernel(x, t):
    return np.cos(np.asarray(x, dtype=float) * np.asarray(t, dtype=float))


def sinc_kernel(x, t):
    # primitive of cos(x*t) in x, with the removable point t=0 filled in
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    x, t = np.broadcast_arrays(x, t)
    safe = np.where(np.abs(t) < 1e-300, 1.0, t)
    return np.where(np.abs(t) < 1e-300, x, np.sin(x * safe) / safe)


def two_path_problem():
    return FullProblem(IV, cos_kernel, flat_load, K1=sinc_kernel, f=linear_f)


def test_zero_kernel_collapses_to_characteristic_bitwise():
    # with K0 == 0 route 2 solves the characteristic equation, whose
    # constant-data solution is w(x) = sqrt((x - a)(b - x)) on any interval;
    # the weighted basis holds it exactly, edge cells included, so route 2
    # must meet route 1 and the closed form at every midpoint, on the sample
    # sites of the piecewise-constant characteristic solver
    for a, b in ((-1.0, 1.0), (0.5, 4.5)):
        iv = Interval(a, b)
        route1 = CharacteristicProblem(iv, flat_load, f=linear_f)
        for n in (25, 40, 100, 200, 400):
            g = build_grid(a, b, n)
            full = solve_full_collocation(FullProblem(iv, kernel_zero, flat_load), g)
            char = solve_characteristic(CharacteristicProblem(iv, flat_load), g)
            assert np.array_equal(full.points, g.colloc)
            assert np.array_equal(full.points, char.points)
            x = full.points
            assert np.max(np.abs(full.values - np.sqrt((x - a) * (b - x)))) <= 1e-13
            inverted = np.array([invert_characteristic(route1, p, SPEC) for p in x])
            assert np.max(np.abs(full.values - inverted)) <= 1e-13


def test_one_cell_matrix_with_unit_kernel():
    # (0,1), n=1: the finite part of w/(x-t)^2 over the whole interval is
    # F(1) - F(-1) = -pi, and K0 = 1 times W = r^2 * pi/2 = pi/8
    g = build_grid(0.0, 1.0, 1)
    one = lambda x, t: np.ones(np.broadcast(np.asarray(x), np.asarray(t)).shape)
    assert np.allclose(assemble_full(g, one), [[-7.0 * np.pi / 8.0]], rtol=0.0, atol=1e-14)


def test_two_cell_matrix_with_product_kernel():
    # hand arithmetic for (0,1), n=2, K0(x,t) = x*t.  Mapped to (-1,1) the
    # nodes are u = -1, 0, 1 and the midpoints xi = -1/2, 1/2, so s = sqrt(3)/2
    # and F(0; -+1/2) = -+(2 + ln(2 + sqrt 3)/sqrt 3), F(+-1; xi) = -+pi/2.
    # Each cell carries W = r^2 * pi/4 = pi/16; K0 is taken at the right
    # nodes t = 1/2, 1 and the midpoints x = 1/4, 3/4.
    g = build_grid(0.0, 1.0, 2)
    prod = lambda x, t: np.asarray(x, dtype=float) * np.asarray(t, dtype=float)
    M = assemble_full(g, prod)
    near = -2.0 - np.pi / 2.0 - np.log(2.0 + np.sqrt(3.0)) / np.sqrt(3.0)
    far = 2.0 - np.pi / 2.0 + np.log(2.0 + np.sqrt(3.0)) / np.sqrt(3.0)
    expect = np.array([[near + np.pi / 128.0, far + np.pi / 64.0],
                       [far + 3.0 * np.pi / 128.0, near + 3.0 * np.pi / 64.0]])
    assert np.allclose(M, expect, rtol=0.0, atol=1e-13)


def test_singular_cell_integrals_match_adaptive_quadrature():
    # off-diagonal cells are ordinary integrals of w(t)/(x - t)^2; each row
    # of finite parts sums to the whole-interval value -pi
    from scipy.integrate import quad

    a, b, n = 0.5, 3.5, 9
    g = build_grid(a, b, n)
    M = assemble_full(g, kernel_zero)
    w = lambda t: np.sqrt((t - a) * (b - t))
    for i in (0, 4, 8):
        x = g.colloc[i]
        for j in (0, 3, 8):
            if j == i:
                continue
            lo, hi = g.nodes[j], g.nodes[j + 1]
            ref, _ = quad(lambda t: w(t) / (x - t) ** 2, lo, hi, epsabs=1e-14, epsrel=1e-13)
            assert M[i, j] == pytest.approx(ref, rel=1e-11, abs=1e-13)
    assert np.allclose(M.sum(axis=1), -np.pi, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", (7, 8, 241, 3200))
def test_edge_weights_match_40_digit_arithmetic(n):
    # the basis weight sqrt(1 - u^2) on (-1, 1) at the midpoints, and its
    # integral over each cell, both read from the integer tables
    import mpmath
    from hypersing.fullkernel import _HalfAngleTables

    t = _HalfAngleTables(n)
    with mpmath.workdps(40):
        def area(k):
            u = mpmath.mpf(2 * k - n) / n
            return (u * mpmath.sqrt((1 - u) * (1 + u)) + mpmath.asin(u)) / 2

        at = [area(k) for k in range(n + 1)]
        cells = np.array([float(at[j + 1] - at[j]) for j in range(n)])
        mids = np.array([float(mpmath.sqrt(1 - (mpmath.mpf(2 * i + 1 - n) / n) ** 2))
                         for i in range(n)])
    assert np.all(np.abs(t.mid_weight - mids) <= 1e-15 * mids)
    assert np.all(np.abs(t.cell_weight - cells) <= 4e-16)
    assert np.array_equal(t.mid_weight, t.mid_weight[::-1])
    assert np.array_equal(t.cell_weight, t.cell_weight[::-1])
    assert abs(t.cell_weight.sum() - np.pi / 2) <= 1e-15


def test_weighted_matrix_is_centro_symmetric_and_block_independent(monkeypatch):
    # only the left rows i < ceil(n/2) are formed, chunk by chunk, and
    # mirrored; the middle row of an odd grid, row ceil(n/2) - 1, is the
    # last left row, so a chunk holds it alone, at its start, or as the
    # last of several rows
    import hypersing.fullkernel as fullkernel

    for n, steps in ((37, (1, 6, 5, 19)), (36, (1, 6, 5, 18))):
        g = build_grid(-2.0, 2.0, n)
        M = assemble_full(g, kernel_zero)
        assert np.array_equal(M, M[::-1, ::-1])
        r = n - n // 2
        assert fullkernel._chunks(r, n + 1) == [(0, r)]
        whole = assemble_full(g, cos_kernel)
        for step in steps:
            monkeypatch.setattr(fullkernel, "_CHUNK_ENTRIES", step * (n + 1))
            chunks = fullkernel._chunks(r, n + 1)
            assert chunks[0] == (0, step) and chunks[-1][1] == r
            if n % 2:
                start, _ = chunks[-1]
                assert (start == r - 1) == (step in (1, 6))
            assert np.array_equal(assemble_full(g, cos_kernel), whole)
            M = assemble_full(g, kernel_zero)
            assert np.array_equal(M, M[::-1, ::-1])
        monkeypatch.undo()


def test_assembly_is_the_weighted_matrix_of_the_sampled_kernel():
    from hypersing.fullkernel import _weighted_matrix
    from hypersing.quadrature import _sample

    for n in (1, 8, 37):
        g = build_grid(0.5, 3.5, n)
        samples = _sample(cos_kernel, g.colloc[:, None], g.nodes[None, 1:])
        assert np.array_equal(assemble_full(g, cos_kernel), _weighted_matrix(g, samples))


def test_kernel_values_must_be_finite():
    g = build_grid(-1.0, 1.0, 8)
    bad = lambda x, t: np.where(np.asarray(t) > 0.5, np.nan, 1.0)
    with pytest.raises(ValueError):
        assemble_full(g, bad)


def _scalar_only(fn):
    def call(*args):
        if any(np.ndim(a) for a in args):
            raise TypeError("scalars only")
        return fn(*args)
    return call


def _route3_problem(scalar):
    if not scalar:
        return two_path_problem()
    import math

    sinc = _scalar_only(lambda x, t: math.sin(x * t) / t if t != 0.0 else x)
    linear = _scalar_only(lambda x: -math.pi * x)
    return FullProblem(IV, cos_kernel, flat_load, K1=sinc, f=linear)


def _collocation_matrix(scalar):
    import math

    kernel = _scalar_only(lambda x, t: math.cos(x * t)) if scalar else cos_kernel
    return assemble_full(build_grid(-1.0, 1.0, 12), kernel)


def _reduced_system(scalar):
    system = fredholm_reduce(_route3_problem(scalar), SPEC, chebyshev_nodes(IV, 12))
    return np.column_stack([system.N1, system.f1])


def _nystrom_values(scalar):
    nodes, w = chebyshev_nystrom_rule(IV, 12)
    system = fredholm_reduce(two_path_problem(), SPEC, nodes)
    g = solve_fredholm(system, w)
    xs = np.linspace(-0.9, 0.9, 7)
    return nystrom_eval(_route3_problem(scalar), SPEC, system, w, g, xs)


@pytest.mark.parametrize(
    "build", [_collocation_matrix, _reduced_system, _nystrom_values],
    ids=["assemble_full", "fredholm_reduce", "nystrom_eval"])
def test_scalar_only_kernel_falls_back_elementwise(build):
    assert np.allclose(build(True), build(False), rtol=0.0, atol=1e-14)


def test_mismatched_kernel_pair_is_rejected():
    # K1 must differentiate to K0 in its first argument
    with pytest.raises(ValueError):
        FullProblem(IV, cos_kernel, flat_load, K1=lambda x, t: np.sin(np.asarray(x) * np.asarray(t)), f=linear_f)


def test_direct_solver_linear_in_the_load():
    g = build_grid(-1.0, 1.0, 50)
    p1 = FullProblem(IV, cos_kernel, flat_load)
    p2 = FullProblem(IV, cos_kernel, lambda x: np.asarray(x, dtype=float) ** 2)
    combo = FullProblem(
        IV, cos_kernel, lambda x: 2.0 * flat_load(x) + 0.5 * np.asarray(x, dtype=float) ** 2
    )
    v = solve_full_collocation(combo, g).values
    v12 = (
        2.0 * solve_full_collocation(p1, g).values
        + 0.5 * solve_full_collocation(p2, g).values
    )
    assert np.max(np.abs(v - v12)) <= 1e-11 * np.max(np.abs(v12))


def test_reduction_without_coupling_gives_plain_data():
    prob = FullProblem(IV, kernel_zero, flat_load, K1=kernel_zero, f=linear_f)
    nodes = chebyshev_nodes(IV, 24)
    system = fredholm_reduce(prob, SPEC, nodes)
    assert np.max(np.abs(system.N1)) == 0.0
    assert np.allclose(system.f1, semicircle(nodes), rtol=0.0, atol=1e-12)


def test_reduction_columns_carry_the_weighted_transform():
    # K1 independent of t makes every column the transform of -pi*tau
    prob = FullProblem(
        IV,
        lambda x, t: np.full(np.broadcast(np.asarray(x), np.asarray(t)).shape, -np.pi),
        lambda x: np.zeros(np.shape(x)),
        K1=lambda x, t: -np.pi * np.asarray(x, dtype=float) * np.ones_like(np.asarray(t, dtype=float)),
        f=lambda x: np.zeros(np.shape(x)),
    )
    nodes = chebyshev_nodes(IV, 16)
    system = fredholm_reduce(prob, SPEC, nodes)
    for k in range(16):
        assert np.allclose(system.N1[:, k], semicircle(nodes), rtol=0.0, atol=1e-12)


def test_reduction_requires_k1_f_and_interior_nodes():
    prob = FullProblem(IV, cos_kernel, flat_load)
    nodes = chebyshev_nodes(IV, 8)
    with pytest.raises(ValueError):
        fredholm_reduce(prob, SPEC, nodes)
    good = two_path_problem()
    with pytest.raises(ValueError):
        fredholm_reduce(good, SPEC, np.array([-1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        fredholm_reduce(good, SPEC, np.array([]))


def test_reduction_at_colliding_nodes_matches_closed_forms():
    # Nystrom nodes equal to the quadrature nodes make every row collide.
    # With pv-int T_k(t) / (w(t)(x - t)) dt = -pi U_{k-1}(x), f = T_4 and
    # K1(x, t) = T_3(x) t give f1 and N1, and the off-node data rows, exactly.
    T3 = lambda x: 4.0 * np.asarray(x, dtype=float) ** 3 - 3.0 * np.asarray(x, dtype=float)
    prob = FullProblem(
        IV,
        lambda x, t: (12.0 * np.asarray(x, dtype=float) ** 2 - 3.0) * np.asarray(t, dtype=float),
        lambda x: 32.0 * np.asarray(x, dtype=float) ** 3 - 16.0 * np.asarray(x, dtype=float),
        K1=lambda x, t: T3(x) * np.asarray(t, dtype=float),
        f=lambda x: 8.0 * np.asarray(x, dtype=float) ** 4 - 8.0 * np.asarray(x, dtype=float) ** 2 + 1.0,
    )
    nodes = chebyshev_nodes(IV, SPEC.m)
    pref = semicircle(nodes) / np.pi**2
    f1 = -np.pi * pref * (8.0 * nodes**3 - 4.0 * nodes)
    N1 = -np.pi * np.outer(pref * (4.0 * nodes**2 - 1.0), nodes)
    system = fredholm_reduce(prob, SPEC, nodes)
    assert np.max(np.abs(system.f1 - f1)) <= 1e-11
    assert np.max(np.abs(system.N1 - N1)) <= 1e-11
    _, w = chebyshev_nystrom_rule(IV, SPEC.m)
    values = np.cos(3.0 * nodes)
    got = nystrom_eval(prob, SPEC, system, w, values, nodes)
    assert np.max(np.abs(got - (f1 - N1 @ (w * values)))) <= 1e-11


def test_rank_one_system_matches_sherman_morrison():
    rng = np.random.default_rng(424242)
    nodes, w = chebyshev_nystrom_rule(IV, 24)
    u = rng.standard_normal(24)
    v = rng.standard_normal(24)
    b = rng.standard_normal(24)
    system = FredholmSystem(nodes=nodes, N1=np.outer(u, v), f1=b)
    got = solve_fredholm(system, w)
    wb = np.dot(v * w, b)
    wu = np.dot(v * w, u)
    exact = b - u * (wb / (1.0 + wu))
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_unit_negative_eigenvalue_raises_typed_error():
    nodes, w = chebyshev_nystrom_rule(IV, 12)
    ones = np.ones(12)
    N1 = -np.outer(ones, ones) / np.sum(w)
    system = FredholmSystem(nodes=nodes, N1=N1, f1=ones)
    with pytest.raises(SingularMatrixError, match="eigenvalue"):
        solve_fredholm(system, w)


def test_weights_are_validated():
    nodes, w = chebyshev_nystrom_rule(IV, 12)
    system = FredholmSystem(nodes=nodes, N1=np.zeros((12, 12)), f1=np.ones(12))
    with pytest.raises(ValueError):
        solve_fredholm(system, w[:-1])
    with pytest.raises(ValueError):
        solve_fredholm(system, -w)


def test_uncoupled_reduction_reproduces_semicircle_end_to_end():
    prob = FullProblem(IV, kernel_zero, flat_load, K1=kernel_zero, f=linear_f)
    nodes, w = chebyshev_nystrom_rule(IV, 32)
    system = fredholm_reduce(prob, SPEC, nodes)
    g = solve_fredholm(system, w)
    xs = np.linspace(-0.95, 0.95, 41)
    vals = nystrom_eval(prob, SPEC, system, w, g, xs)
    assert np.max(np.abs(vals - semicircle(xs))) <= 1e-10


def test_nystrom_interpolation_consistent_at_its_own_nodes():
    prob = two_path_problem()
    nodes, w = chebyshev_nystrom_rule(IV, 48)
    system = fredholm_reduce(prob, SPEC, nodes)
    g = solve_fredholm(system, w)
    back = nystrom_eval(prob, SPEC, system, w, g, system.nodes)
    assert np.max(np.abs(back - g)) <= 1e-10 * np.max(np.abs(g))


def test_second_kind_data_stays_smooth():
    # divided differences bounded away from the endpoint root singularity
    prob = two_path_problem()
    nodes = chebyshev_nodes(IV, 100)
    system = fredholm_reduce(prob, SPEC, nodes)
    keep = np.abs(nodes) <= 0.95
    slopes = np.abs(np.diff(system.f1[keep]) / np.diff(nodes[keep]))
    assert np.all(np.isfinite(system.f1))
    assert np.max(slopes) <= 10.0


def test_fredholm_path_linear_in_the_data():
    prob = two_path_problem()
    scaled = FullProblem(
        IV,
        cos_kernel,
        lambda x: 3.0 * flat_load(x),
        K1=sinc_kernel,
        f=lambda x: 3.0 * linear_f(x),
    )
    nodes, w = chebyshev_nystrom_rule(IV, 24)
    g1 = solve_fredholm(fredholm_reduce(prob, SPEC, nodes), w)
    g3 = solve_fredholm(fredholm_reduce(scaled, SPEC, nodes), w)
    assert np.max(np.abs(g3 - 3.0 * g1)) <= 1e-11 * np.max(np.abs(g3))


def test_two_path_agreement_at_resolved_mesh():
    # the collocation path carries an O(h) bias, so the cross-check is run
    # at a cell count where that bias sits inside the 1e-2 budget
    prob = two_path_problem()
    nodes, w = chebyshev_nystrom_rule(IV, 64)
    system = fredholm_reduce(prob, SPEC, nodes)
    gq = solve_fredholm(system, w)
    direct = solve_full_collocation(prob, build_grid(-1.0, 1.0, 400))
    inside = np.abs(direct.points) <= 0.9
    fredholm_vals = nystrom_eval(prob, SPEC, system, w, gq, direct.points[inside])
    assert np.max(np.abs(direct.values[inside] - fredholm_vals)) <= 1e-2


def test_two_path_gap_shrinks_under_mesh_refinement():
    prob = two_path_problem()
    nodes, w = chebyshev_nystrom_rule(IV, 64)
    system = fredholm_reduce(prob, SPEC, nodes)
    gq = solve_fredholm(system, w)
    gaps = []
    for n in (100, 200, 400):
        direct = solve_full_collocation(prob, build_grid(-1.0, 1.0, n))
        inside = np.abs(direct.points) <= 0.9
        ref = nystrom_eval(prob, SPEC, system, w, gq, direct.points[inside])
        gaps.append(np.max(np.abs(direct.values[inside] - ref)))
    assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
    # first-order trend: each halving of h roughly halves the gap
    assert gaps[2] <= 0.65 * gaps[1]
