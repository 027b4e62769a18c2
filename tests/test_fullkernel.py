"""Full-kernel equation: direct collocation and the second-kind reduction."""

import numpy as np
import pytest

from hypersing import (
    FredholmSystem,
    FullProblem,
    Interval,
    PVQuadSpec,
    SingularMatrixError,
    assemble_characteristic,
    assemble_full,
    build_grid,
    chebyshev_nodes,
    chebyshev_nystrom_rule,
    fredholm_reduce,
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
    g = build_grid(-1.0, 1.0, 40)
    assert np.array_equal(assemble_full(g, kernel_zero), assemble_characteristic(g))
    full = solve_full_collocation(FullProblem(IV, kernel_zero, flat_load), g)
    char = solve_characteristic(CharacteristicProblem(IV, flat_load), g)
    assert np.array_equal(full.values, char.values)
    assert full.site is char.site


def test_one_cell_matrix_with_unit_kernel():
    g = build_grid(0.0, 1.0, 1)
    one = lambda x, t: np.ones(np.broadcast(np.asarray(x), np.asarray(t)).shape)
    assert np.allclose(assemble_full(g, one), [[-3.0]], rtol=0.0, atol=1e-14)


def test_two_cell_matrix_with_product_kernel():
    # hand arithmetic for (0,1), n=2, K0(x,t) = x*t:
    # singular part rows (-8, 8/3) and (8/3, -8), plus h*K0 at the pairs
    g = build_grid(0.0, 1.0, 2)
    prod = lambda x, t: np.asarray(x, dtype=float) * np.asarray(t, dtype=float)
    M = assemble_full(g, prod)
    expect = np.array([[-7.9375, 2.0 / 3.0 + 2.125], [2.0 / 3.0 + 2.1875, -7.625]])
    assert np.allclose(M, expect, rtol=0.0, atol=1e-13)


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
