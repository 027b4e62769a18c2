"""Uniform-grid construction and sampled-function container checks."""

import numpy as np
import pytest

from hypersing import Grid, Interval, SampledFunction, build_grid


def test_two_cell_symmetric_interval():
    g = build_grid(-1.0, 1.0, 2)
    assert g.h == 1.0
    assert np.array_equal(g.nodes, [-1.0, 0.0, 1.0])
    assert np.array_equal(g.colloc, [-0.5, 0.5])


def test_single_cell_unit_interval():
    g = build_grid(0.0, 1.0, 1)
    assert np.array_equal(g.nodes, [0.0, 1.0])
    assert np.array_equal(g.colloc, [0.5])


def test_wide_interval_midpoints_are_exact():
    g = build_grid(0.0, 10.0, 5)
    assert g.h == 2.0
    assert np.array_equal(g.colloc, [1.0, 3.0, 5.0, 7.0, 9.0])


def test_nodes_follow_the_stated_construction_rule():
    # nodes must be a + j*h per index, not an accumulated sum
    rng = np.random.default_rng(91046)
    for _ in range(25):
        a = float(rng.uniform(-50.0, 50.0))
        b = a + float(rng.uniform(1e-6, 100.0))
        n = int(rng.integers(1, 900))
        g = build_grid(a, b, n)
        j = np.arange(n + 1, dtype=float)
        assert np.array_equal(g.nodes, a + j * g.h)


def test_midpoints_sit_strictly_inside_their_cells():
    rng = np.random.default_rng(5521)
    for _ in range(25):
        a = float(rng.uniform(-1e3, 1e3))
        b = a + float(rng.uniform(1e-5, 2e3))
        n = int(rng.integers(1, 500))
        g = build_grid(a, b, n)
        assert np.all(g.nodes[:-1] < g.colloc)
        assert np.all(g.colloc < g.nodes[1:])


def test_endpoints_land_on_the_interval_ends():
    for a, b, n in ((0.0, 1.0, 49), (-3.7, 11.3, 997), (-1.0, 1.0, 10**6)):
        g = build_grid(a, b, n)
        scale = max(abs(a), abs(b), b - a)
        assert g.nodes[0] == a
        assert abs(g.nodes[-1] - b) <= 4.0 * np.finfo(float).eps * scale


def test_grid_arrays_are_read_only():
    g = build_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        g.nodes[0] = 9.0
    with pytest.raises(ValueError):
        g.colloc[1] = 9.0


def test_same_inputs_give_bitwise_identical_grids():
    g1 = build_grid(-2.3, 4.1, 137)
    g2 = build_grid(-2.3, 4.1, 137)
    assert np.array_equal(g1.nodes, g2.nodes)
    assert np.array_equal(g1.colloc, g2.colloc)
    assert g1.h == g2.h


def test_rejects_bad_intervals_and_counts():
    with pytest.raises(ValueError):
        build_grid(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        build_grid(2.0, -2.0, 4)
    with pytest.raises(ValueError):
        build_grid(0.0, float("nan"), 4)
    with pytest.raises(ValueError):
        build_grid(0.0, float("inf"), 4)
    for n in (0, -3, 2.5):
        with pytest.raises(ValueError):
            build_grid(0.0, 1.0, n)


def test_interval_measures():
    iv = Interval(2.0, 5.0)
    assert iv.width == 3.0
    assert iv.midpoint == 3.5
    assert iv.halfwidth == 1.5
    assert iv.contains_strictly(3.0)
    assert not iv.contains_strictly(2.0)
    assert not iv.contains_strictly(5.0)
    with pytest.raises(ValueError):
        Interval(5.0, 2.0)


def test_sampled_function_validates_length():
    g = build_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        SampledFunction(grid=g, values=np.zeros(3))


def test_sampled_function_copies_and_freezes_values():
    g = build_grid(0.0, 1.0, 4)
    src = np.arange(4.0)
    sf = SampledFunction(grid=g, values=src)
    src[0] = 99.0
    assert sf.values[0] == 0.0
    with pytest.raises(ValueError):
        sf.values[0] = 1.0


def test_sample_points_are_cell_midpoints():
    g = build_grid(-1.0, 1.0, 8)
    at_mid = SampledFunction(grid=g, values=np.zeros(8))
    assert np.array_equal(at_mid.points, g.colloc)


def test_grid_type_is_exported():
    assert isinstance(build_grid(0.0, 1.0, 3), Grid)
