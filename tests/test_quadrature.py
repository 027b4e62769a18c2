"""Weighted Gauss-Chebyshev rules, principal-value and finite-part values,
and the truncated half-line cosine quadrature."""

import numpy as np
import pytest

from hypersing import (
    Interval,
    OscIntSpec,
    PVQuadSpec,
    TailOrder,
    chebyshev_finite_part,
    chebyshev_nodes,
    halfline_cosine_integral,
    halfline_cosine_table,
    halfline_cosine_tables,
    pv_weighted_integral,
    weighted_integral,
)
from hypersing.quadrature import _gregory_weights, cosine_integral
from oracles import (
    cosine_transform_oracle,
    finite_part_oracle,
    pv_weighted_oracle,
    weighted_oracle,
)

IV = Interval(-1.0, 1.0)
SPEC = PVQuadSpec(m=200)


def test_chebyshev_nodes_are_ascending_and_interior():
    iv = Interval(2.0, 5.0)
    for m in (1, 2, 17, 64):
        t = chebyshev_nodes(iv, m)
        assert t.shape == (m,)
        assert np.all(np.diff(t) > 0.0) or m == 1
        assert np.all((t > 2.0) & (t < 5.0))
        # first-kind nodes are symmetric about the midpoint
        assert np.max(np.abs((t + t[::-1]) / 2.0 - iv.midpoint)) <= 1e-13
    assert chebyshev_nodes(iv, 1)[0] == pytest.approx(3.5, abs=1e-15)


def test_weighted_moments_on_the_reference_interval():
    assert weighted_integral(lambda t: np.ones_like(t), IV, SPEC) == pytest.approx(np.pi, abs=1e-12)
    assert weighted_integral(lambda t: np.asarray(t), IV, SPEC) == pytest.approx(0.0, abs=1e-12)
    assert weighted_integral(lambda t: np.asarray(t) ** 2, IV, SPEC) == pytest.approx(np.pi / 2, abs=1e-12)


def test_weighted_moments_translate_to_general_intervals():
    iv = Interval(2.0, 5.0)
    # mass pi is interval independent; first moment sits at the midpoint
    assert weighted_integral(lambda t: np.ones_like(t), iv, SPEC) == pytest.approx(np.pi, abs=1e-12)
    assert weighted_integral(lambda t: np.asarray(t), iv, SPEC) == pytest.approx(3.5 * np.pi, abs=1e-11)
    second = np.pi * (3.5**2 + 1.5**2 / 2.0)
    assert weighted_integral(lambda t: np.asarray(t) ** 2, iv, SPEC) == pytest.approx(second, abs=1e-11)


def test_weighted_rule_matches_midpoint_oracle():
    val = weighted_integral(np.exp, IV, SPEC)
    assert val == pytest.approx(weighted_oracle(np.exp, -1.0, 1.0), abs=2e-6)


def test_principal_value_frozen_identities():
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    ident = lambda t: np.asarray(t, dtype=float)
    for x in (0.0, 0.3, -0.77):
        assert pv_weighted_integral(one, IV, x, SPEC) == pytest.approx(0.0, abs=1e-12)
        assert pv_weighted_integral(ident, IV, x, SPEC) == pytest.approx(-np.pi, abs=1e-12)
    sq = lambda t: np.asarray(t) ** 2
    assert pv_weighted_integral(sq, IV, 0.3, SPEC) == pytest.approx(-0.3 * np.pi, abs=1e-12)


def test_principal_value_identities_hold_off_reference_interval():
    iv = Interval(2.0, 5.0)
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    ident = lambda t: np.asarray(t, dtype=float)
    assert pv_weighted_integral(one, iv, 3.1, SPEC) == pytest.approx(0.0, abs=1e-11)
    assert pv_weighted_integral(ident, iv, 3.1, SPEC) == pytest.approx(-np.pi, abs=1e-11)


def test_principal_value_matches_independent_oracle():
    for f, x in ((np.exp, 0.3), (np.cos, -0.4)):
        rule = pv_weighted_integral(f, IV, x, SPEC)
        assert rule == pytest.approx(pv_weighted_oracle(f, -1.0, 1.0, x), abs=1e-5)
    rule = pv_weighted_integral(np.exp, Interval(2.0, 5.0), 3.1, SPEC)
    assert rule == pytest.approx(pv_weighted_oracle(np.exp, 2.0, 5.0, 3.1), abs=1e-4 * np.exp(5.0))


def test_rule_is_exact_for_low_degree_polynomials():
    # m-point rule integrates the pv integrand exactly through degree m-2
    coarse = PVQuadSpec(m=12)
    f = lambda t: np.asarray(t) ** 10
    v12 = pv_weighted_integral(f, IV, 0.37, coarse)
    v200 = pv_weighted_integral(f, IV, 0.37, SPEC)
    assert v12 == pytest.approx(v200, abs=1e-12)
    w12 = weighted_integral(f, IV, coarse)
    w40 = weighted_integral(f, IV, PVQuadSpec(m=40))
    assert w12 == pytest.approx(w40, abs=1e-13)


def test_principal_value_continuous_through_node_collision():
    nodes = chebyshev_nodes(IV, 200)
    x0 = float(nodes[137])
    at_node = pv_weighted_integral(np.exp, IV, x0, SPEC)
    nearby = pv_weighted_integral(np.exp, IV, x0 + 3e-7, SPEC)
    assert abs(at_node - nearby) <= 1e-4


def test_principal_value_antisymmetric_for_even_functions():
    for x in (0.2, 0.55, 0.9):
        left = pv_weighted_integral(np.cos, IV, -x, SPEC)
        right = pv_weighted_integral(np.cos, IV, x, SPEC)
        assert left == pytest.approx(-right, abs=1e-10)


def test_principal_value_is_deterministic():
    a = pv_weighted_integral(np.exp, IV, 0.3, SPEC)
    b = pv_weighted_integral(np.exp, IV, 0.3, SPEC)
    assert a == b


def test_finite_part_frozen_values():
    assert chebyshev_finite_part(0, 0.5) == pytest.approx(-np.pi, abs=1e-13)
    assert chebyshev_finite_part(1, 0.5) == pytest.approx(-2.0 * np.pi, abs=1e-13)
    assert chebyshev_finite_part(2, 0.0) == pytest.approx(3.0 * np.pi, abs=1e-13)


def test_finite_part_matches_difference_oracle():
    def weighted_poly(k):
        def f(t):
            t = np.asarray(t, dtype=float)
            u = {0: np.ones_like(t), 1: 2.0 * t, 2: 4.0 * t * t - 1.0}[k]
            return (1.0 - t * t) * u
        return f

    for k, x in ((0, 0.5), (1, -0.25), (2, 0.123)):
        oracle = finite_part_oracle(weighted_poly(k), -1.0, 1.0, x)
        assert chebyshev_finite_part(k, x) == pytest.approx(oracle, abs=1e-6)


def test_quadrature_input_validation():
    with pytest.raises(ValueError):
        PVQuadSpec(m=3)
    with pytest.raises(ValueError):
        PVQuadSpec(m=-2)
    with pytest.raises(ValueError):
        pv_weighted_integral(np.exp, IV, 1.5, SPEC)
    with pytest.raises(ValueError):
        pv_weighted_integral(np.exp, IV, 1.0, SPEC)
    with pytest.raises(ValueError):
        chebyshev_finite_part(-1, 0.3)
    with pytest.raises(ValueError):
        chebyshev_finite_part(1.5, 0.3)
    with pytest.raises(ValueError):
        chebyshev_finite_part(0, 1.0)


def test_other_errors_on_arrays_propagate_without_a_scalar_retry():
    calls = []

    def failing(t):
        calls.append(np.shape(t))
        raise RuntimeError("broken integrand")

    with pytest.raises(RuntimeError, match="broken integrand"):
        weighted_integral(failing, IV, SPEC)
    assert calls == [(SPEC.m,)]


def test_non_finite_samples_are_rejected():
    bad = lambda t: np.sqrt(np.asarray(t, dtype=float) - 0.5)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError):
            weighted_integral(bad, IV, SPEC)
        with pytest.raises(ValueError):
            pv_weighted_integral(bad, IV, -0.3, SPEC)


def test_halfline_transform_of_decaying_exponential():
    F = lambda s: np.exp(-np.asarray(s, dtype=float))
    spec = OscIntSpec()
    # closed form 1/(1+x^2); truncation tail is ~exp(-200)
    assert halfline_cosine_integral(F, 0.0, spec) == pytest.approx(1.0, abs=1e-7)
    assert halfline_cosine_integral(F, 1.0, spec) == pytest.approx(0.5, abs=1e-7)
    assert halfline_cosine_integral(F, 3.0, spec) == pytest.approx(0.1, abs=1e-7)
    oracle = cosine_transform_oracle(F, 1.2, 200.0)
    assert halfline_cosine_integral(F, 1.2, spec) == pytest.approx(oracle, abs=1e-8)


def test_halfline_truncation_with_no_tail_claim():
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    spec = OscIntSpec(tail=TailOrder.NONE)
    assert halfline_cosine_integral(one, 1.0, spec) == pytest.approx(np.sin(200.0), abs=1e-5)


def test_halfline_panel_refinement_converges():
    F = lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float)) ** 3
    ref = halfline_cosine_integral(F, 0.5, OscIntSpec(panels_per_period=32))
    err4 = abs(halfline_cosine_integral(F, 0.5, OscIntSpec(panels_per_period=4)) - ref)
    err8 = abs(halfline_cosine_integral(F, 0.5, OscIntSpec(panels_per_period=8)) - ref)
    assert err8 <= max(err4 / 2.0, 5e-15)


def test_halfline_rejects_undeclared_slow_decay():
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    lin = lambda s: np.asarray(s, dtype=float)
    with pytest.raises(ValueError):
        halfline_cosine_integral(one, 1.0, OscIntSpec())
    with pytest.raises(ValueError):
        halfline_cosine_integral(lin, 1.0, OscIntSpec())


def test_scalar_only_integrands_pass_the_decay_check():
    import math

    scalar = lambda s: 1.0 / (1.0 + math.pow(s, 3))
    vector = lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float) ** 3)
    spec = OscIntSpec()
    assert halfline_cosine_integral(scalar, 0.5, spec) == \
        pytest.approx(halfline_cosine_integral(vector, 0.5, spec), abs=1e-14)
    assert np.allclose(halfline_cosine_table(scalar, 0.1, 10, spec),
                       halfline_cosine_table(vector, 0.1, 10, spec), rtol=0.0, atol=1e-14)
    # a 1/s tail still fails the check when the callable only takes floats
    slow = lambda s: 1.0 / math.sqrt(1.0 + math.pow(s, 2))
    with pytest.raises(ValueError, match="decay"):
        halfline_cosine_integral(slow, 0.5, spec)
    with pytest.raises(ValueError, match="decay"):
        halfline_cosine_table(slow, 0.1, 10, spec)
    # and a tail that is not finite past s_max is refused
    blown = lambda s: np.where(np.asarray(s) > 300.0, np.inf, vector(s))
    with pytest.raises(ValueError, match="non-finite"):
        halfline_cosine_integral(blown, 0.5, spec)


def test_halfline_panel_budget_is_capped():
    F = lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float)) ** 3
    with pytest.raises(ValueError):
        halfline_cosine_integral(F, 1e9, OscIntSpec())


def test_oscillatory_spec_validation():
    with pytest.raises(ValueError):
        OscIntSpec(s_max=0.0)
    with pytest.raises(ValueError):
        OscIntSpec(s_max=float("inf"))
    with pytest.raises(ValueError):
        OscIntSpec(panels_per_period=3)


def test_gregory_end_weights_integrate_low_monomials_exactly():
    for last in (16, 23, 40):
        k = np.arange(last + 1)
        w = _gregory_weights(k, last)
        for m in range(8):
            exact = last ** (m + 1) / (m + 1)
            assert abs(np.dot(w, k.astype(float) ** m) - exact) <= 1e-14 * exact
        # degree 8 is the first the eight-point ends miss, by a fixed
        # multiple of 8! whatever the grid length
        assert abs(np.dot(w, k.astype(float) ** 8) - last**9 / 9) > 100.0
    # x = 0 and s_max = 1: the rule on the 41-step grid integrates s^7 exactly
    seventh = lambda s: np.asarray(s, dtype=float) ** 7
    spec = OscIntSpec(s_max=1.0, tail=TailOrder.NONE)
    assert halfline_cosine_integral(seventh, 0.0, spec) == pytest.approx(0.125, abs=1e-15)


def test_halfline_table_matches_the_direct_sums():
    F = lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float)) ** 3
    spec = OscIntSpec()
    # 2M = 32 (n - 1/2) residues fold the 4e4-2e5 samples when h is large;
    # at h = 0.01 the grid is shorter than one fold and is used as it is
    for h, n in ((0.8, 30), (0.07, 64), (0.01, 50), (2.5, 3)):
        table = halfline_cosine_table(F, h, n, spec)
        assert table.shape == (n,)
        # the two grids differ, and at its step bound the rule's error is
        # about 1e-10 |F(0)|, from the (x ds)^8 term of the end corrections
        direct = [halfline_cosine_integral(F, (j + 0.5) * h, spec) for j in range(n)]
        assert np.max(np.abs(table - direct)) <= 3e-10
        u = (np.arange(n) + 0.5) * h
        for j in (0, n // 2, n - 1):
            oracle = cosine_transform_oracle(F, u[j], 200.0)
            assert table[j] == pytest.approx(oracle, abs=5e-11)


TABLE_INTEGRANDS = (
    lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float)) ** 3,
    lambda s: np.exp(-np.asarray(s, dtype=float)),
    lambda s: np.asarray(s, dtype=float) / (1.0 + np.asarray(s, dtype=float) ** 2) ** 2,
)


def test_halfline_tables_rows_equal_the_one_integrand_table_bitwise():
    spec = OscIntSpec()
    for h, n in ((0.8, 30), (0.07, 64), (0.01, 50), (2.5, 3), (200.0 / 240, 240)):
        tables = halfline_cosine_tables(TABLE_INTEGRANDS, h, n, spec)
        assert tables.shape == (len(TABLE_INTEGRANDS), n)
        for row, F in zip(tables, TABLE_INTEGRANDS):
            assert np.array_equal(row, halfline_cosine_table(F, h, n, spec))
    assert halfline_cosine_tables([], 0.1, 10, spec).shape == (0, 10)
    # every integrand's declared decay is checked, not only the first one's
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    with pytest.raises(ValueError, match="decay"):
        halfline_cosine_tables([TABLE_INTEGRANDS[0], one], 0.1, 10, spec)


def test_halfline_tables_build_the_chirp_phases_once(monkeypatch):
    import hypersing.quadrature as quadrature

    calls = []
    real = quadrature._unit_phase

    def counted(m, quarter):
        calls.append(quarter)
        return real(m, quarter)

    monkeypatch.setattr(quadrature, "_unit_phase", counted)
    for count in (1, 3, 8):
        calls.clear()
        halfline_cosine_tables(TABLE_INTEGRANDS[:1] * count, 0.07, 64, OscIntSpec())
        assert len(calls) == 2


def test_halfline_table_validation():
    F = lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float)) ** 3
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    spec = OscIntSpec()
    for h in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            halfline_cosine_table(F, h, 10, spec)
    for n in (0, 2.5):
        with pytest.raises(ValueError):
            halfline_cosine_table(F, 0.1, n, spec)
    with pytest.raises(ValueError):
        halfline_cosine_table(one, 0.1, 10, spec)
    with pytest.raises(ValueError):
        halfline_cosine_table(F, 1e7, 10, spec)
    assert halfline_cosine_table(one, 0.1, 10, OscIntSpec(tail=TailOrder.NONE)) == \
        pytest.approx(np.sin(200.0 * (np.arange(10) + 0.5) * 0.1) / ((np.arange(10) + 0.5) * 0.1),
                      abs=1e-12)


def _ci_scale(x):
    # |Ci| is below 1 near x = 1 and falls like 1/x; near its zeros the
    # error is absolute, so it is measured against this envelope
    return np.minimum(1.0, 1.0 / x)


CI_POINTS = np.concatenate([np.geomspace(1e-3, 1e7, 1200), np.linspace(0.05, 60.0, 1200),
                            np.random.default_rng(3).uniform(1.5, 4.0, 300)])


def test_cosine_integral_matches_scipy():
    from scipy.special import sici

    ref = sici(CI_POINTS)[1]
    ours = cosine_integral(CI_POINTS)
    scale = np.maximum(np.abs(ref), _ci_scale(CI_POINTS))
    # scipy's own error reaches 2.7e-15 of this scale near x = 3.4
    assert np.max(np.abs(ours - ref) / scale) <= 4e-15
    away = np.abs(ref) >= _ci_scale(CI_POINTS)
    assert np.median(np.abs(ours - ref)[away] / np.abs(ref[away])) <= 1e-15
    assert cosine_integral(np.array([1.0, 2.0])).shape == (2,)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cosine_integral(bad)


def test_cosine_integral_matches_high_precision_values():
    mpmath = pytest.importorskip("mpmath")
    xs = CI_POINTS[::7]
    with mpmath.workdps(40):
        exact = np.array([float(mpmath.ci(mpmath.mpf(float(x)))) for x in xs])
    scale = np.maximum(np.abs(exact), _ci_scale(xs))
    assert np.max(np.abs(cosine_integral(xs) - exact) / scale) <= 1e-15
