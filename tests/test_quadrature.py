"""Weighted Gauss-Chebyshev rules, principal-value and finite-part values,
and the truncated half-line cosine quadrature."""

import math

import numpy as np
import pytest

from hypersing import (
    Interval,
    OscIntSpec,
    PVQuadSpec,
    chebyshev_nodes,
    chebyshev_nystrom_rule,
    pv_weighted_integral,
)
from hypersing.quadrature import (_check_cubic_decay, _gregory_weights,
                                  _halfline_cosine_tables, cosine_integral)
from oracles import (
    chebyshev_finite_part,
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


def _weighted(f, interval, m=SPEC.m):
    """``int f(t) / w(t) dt`` by route 3's m-point rule, whose weights are
    for plain-dt integrands, here f / w."""
    nodes, weights = chebyshev_nystrom_rule(interval, m)
    return float(weights @ (f(nodes) / np.sqrt((nodes - interval.a) * (interval.b - nodes))))


def test_weighted_moments_on_the_reference_interval():
    assert _weighted(np.ones_like, IV) == pytest.approx(np.pi, abs=1e-12)
    assert _weighted(lambda t: t, IV) == pytest.approx(0.0, abs=1e-12)
    assert _weighted(lambda t: t**2, IV) == pytest.approx(np.pi / 2, abs=1e-12)


def test_weighted_moments_translate_to_general_intervals():
    iv = Interval(2.0, 5.0)
    # mass pi is interval independent; first moment sits at the midpoint
    assert _weighted(np.ones_like, iv) == pytest.approx(np.pi, abs=1e-12)
    assert _weighted(lambda t: t, iv) == pytest.approx(3.5 * np.pi, abs=1e-11)
    second = np.pi * (3.5**2 + 1.5**2 / 2.0)
    assert _weighted(lambda t: t**2, iv) == pytest.approx(second, abs=1e-11)


def test_weighted_rule_matches_midpoint_oracle():
    val = _weighted(np.exp, IV)
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
    # and the weighted integral through degree 2m - 1
    assert _weighted(f, IV, 6) == pytest.approx(_weighted(f, IV, 40), abs=1e-13)


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


def test_chebyshev_u_matches_40_digit_arithmetic():
    import mpmath

    from hypersing.quadrature import _chebyshev_u

    xs = np.concatenate([np.linspace(-0.999999, 0.999999, 61),
                         np.random.default_rng(40).uniform(-1.0, 1.0, 20)])
    with mpmath.workdps(40):
        for k in range(41):
            exact = np.array([float(mpmath.chebyu(k, mpmath.mpf(x))) for x in xs])
            assert np.max(np.abs(_chebyshev_u(k, xs) - exact)) <= 4e-15 * (k + 1)
    assert _chebyshev_u(3, 0.5) == -1.0


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


def test_other_errors_on_arrays_propagate_without_a_scalar_retry():
    calls = []

    def failing(t):
        calls.append(np.shape(t))
        raise RuntimeError("broken integrand")

    with pytest.raises(RuntimeError, match="broken integrand"):
        pv_weighted_integral(failing, IV, 0.3, SPEC)
    assert calls == [(SPEC.m,)]


def test_non_finite_samples_are_rejected():
    bad = lambda t: np.sqrt(np.asarray(t, dtype=float) - 0.5)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError):
            pv_weighted_integral(bad, IV, -0.3, SPEC)


def test_halfline_transform_of_decaying_exponential():
    F = lambda s: np.exp(-np.asarray(s, dtype=float))
    spec = OscIntSpec()
    # closed form 1/(1+x^2) at the offsets 1 and 3; truncation tail is ~exp(-200)
    assert np.allclose(_halfline_cosine_tables([F], 2.0, 2, spec)[0], [0.5, 0.1],
                       rtol=0.0, atol=1e-7)
    oracle = cosine_transform_oracle(F, 1.2, 200.0)
    assert _halfline_cosine_tables([F], 2.4, 1, spec)[0, 0] == pytest.approx(oracle, abs=1e-8)


def test_halfline_truncation_with_no_tail_claim():
    # the tables themselves make no claim about the tail past s_max
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    table = _halfline_cosine_tables([one], 2.0, 1, OscIntSpec())[0, 0]
    assert table == pytest.approx(np.sin(200.0), abs=1e-5)


def test_halfline_panel_refinement_converges(monkeypatch):
    import hypersing.quadrature as quadrature

    F = lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float)) ** 3

    def at(samples_per_period):
        monkeypatch.setattr(quadrature, "_SAMPLES_PER_PERIOD", samples_per_period)
        return _halfline_cosine_tables([F], 1.0, 1, OscIntSpec())[0, 0]

    ref = at(128)
    err16, err32 = abs(at(16) - ref), abs(at(32) - ref)
    assert err32 <= max(err16 / 2.0, 5e-15)


def test_halfline_rejects_undeclared_slow_decay():
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    lin = lambda s: np.asarray(s, dtype=float)
    for F in (one, lin):
        with pytest.raises(ValueError, match="decay"):
            _check_cubic_decay(F, 200.0)
    _check_cubic_decay(lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float) ** 3), 200.0)


def test_scalar_only_integrands_pass_the_decay_check():
    import math

    scalar = lambda s: 1.0 / (1.0 + math.pow(s, 3))
    vector = lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float) ** 3)
    spec = OscIntSpec()
    _check_cubic_decay(scalar, spec.s_max)
    scalar_rows = _halfline_cosine_tables([scalar, vector], 0.1, 10, spec)
    assert np.allclose(scalar_rows[0], scalar_rows[1], rtol=0.0, atol=1e-14)
    # a 1/s tail still fails the check when the callable only takes floats
    slow = lambda s: 1.0 / math.sqrt(1.0 + math.pow(s, 2))
    with pytest.raises(ValueError, match="decay"):
        _check_cubic_decay(slow, spec.s_max)
    # and a value that is not finite, inside [0, s_max] or past it, is refused
    blown = lambda s, at=150.0: np.where(np.asarray(s) > at, np.inf, vector(s))
    with pytest.raises(ValueError, match="non-finite"):
        _halfline_cosine_tables([blown], 0.1, 10, spec)
    with pytest.raises(ValueError, match="non-finite"):
        _check_cubic_decay(lambda s: blown(s, 300.0), spec.s_max)


def test_halfline_panel_budget_is_capped():
    F = lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float)) ** 3
    # one offset at 5e8, which needs about 1e11 samples: refused before any is taken
    with pytest.raises(ValueError, match="sample count"):
        _halfline_cosine_tables([F], 1e9, 1, OscIntSpec())


def test_oscillatory_spec_validation():
    with pytest.raises(ValueError):
        OscIntSpec(s_max=0.0)
    with pytest.raises(ValueError):
        OscIntSpec(s_max=float("inf"))
    assert OscIntSpec(s_max=50).s_max == 50.0


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


def _direct_sums(F, h, n, s_max):
    """The cosine rule of ``_halfline_cosine_tables`` summed directly at each
    offset: Gregory weights on the step pi / (M h), M the smallest integer
    with 32 samples per period 2 pi / max(u_{n-1}, 8) and 16 steps over
    [0, s_max], plus the sliver to s_max on 16 steps."""
    u = (np.arange(n) + 0.5) * h
    quarter = max(math.ceil(16.0 * max(u[-1], 8.0) / h), math.ceil(16.0 * np.pi / (h * s_max)))
    ds = np.pi / (quarter * h)
    last = int(s_max // ds)
    k = np.arange(last + 1)
    s = k * ds
    total = np.cos(np.outer(u, s)) @ (ds * _gregory_weights(k, last) * F(s))
    step = (s_max - last * ds) / 16.0
    if step > 0.0:
        sub = np.arange(17)
        s = last * ds + sub * step
        total += np.cos(np.outer(u, s)) @ (step * _gregory_weights(sub, 16) * F(s))
    return total


def test_halfline_table_matches_the_direct_sums():
    F = lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float)) ** 3
    spec = OscIntSpec()
    # 2M = 32 (n - 1/2) residues fold the 4e4-2e5 samples when h is large;
    # at h = 0.01 the grid is shorter than one fold and is used as it is
    for h, n in ((0.8, 30), (0.07, 64), (0.01, 50), (2.5, 3)):
        table = _halfline_cosine_tables([F], h, n, spec)[0]
        assert table.shape == (n,)
        # the same rule on the same grid: only the summation order differs
        assert np.max(np.abs(table - _direct_sums(F, h, n, spec.s_max))) <= 5e-15
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
        tables = _halfline_cosine_tables(TABLE_INTEGRANDS, h, n, spec)
        assert tables.shape == (len(TABLE_INTEGRANDS), n)
        for row, F in zip(tables, TABLE_INTEGRANDS):
            assert np.array_equal(row, _halfline_cosine_tables([F], h, n, spec)[0])
    assert _halfline_cosine_tables([], 0.1, 10, spec).shape == (0, 10)


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
        _halfline_cosine_tables(TABLE_INTEGRANDS[:1] * count, 0.07, 64, OscIntSpec())
        assert len(calls) == 2


def test_halfline_table_validation():
    F = lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float)) ** 3
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    spec = OscIntSpec()
    for h in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _halfline_cosine_tables([F], h, 10, spec)
    for n in (0, 2.5):
        with pytest.raises(ValueError):
            _halfline_cosine_tables([F], 0.1, n, spec)
    with pytest.raises(ValueError):
        _halfline_cosine_tables([F], 1e7, 10, spec)
    u = (np.arange(10) + 0.5) * 0.1
    assert _halfline_cosine_tables([one], 0.1, 10, spec)[0] == \
        pytest.approx(np.sin(200.0 * u) / u, abs=1e-12)


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
