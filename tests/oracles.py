"""Slow, independent reference routes used to validate the fast rules.

Nothing in here shares code or algorithmic structure with the package:
the principal values come from a symmetric-exclusion midpoint rule with
analytic endpoint slivers, the finite-part values from numerically
differentiating the principal value or, for the weighted Chebyshev
polynomials, from their closed form with scipy's polynomials, and the
cosine transforms from scipy's adaptive oscillatory quadrature.
Agreement between these and the package's Chebyshev/panel rules is
therefore a genuine two-route check, not a reflection.
"""

import numpy as np
from scipy.integrate import quad

from hypersing import PVQuadSpec, pv_weighted_integral


def _endpoint_mass(a, b, lo, hi):
    # closed form of int 1/sqrt((t-a)(b-t)) dt between lo and hi
    u = lambda t: 2.0 * np.arcsin(np.sqrt((t - a) / (b - a)))
    return u(hi) - u(lo)


def pv_weighted_oracle(f, a, b, x, cells=400_000, exclude_cells=8, edge_cells=64):
    """PV integral of f(t) / (w(t) (x - t)) by brute-force exclusion.

    Midpoint rule on a uniform grid aligned so that x sits midway
    between sample points, with a symmetric exclusion ball of radius
    (exclude_cells + 1/2) h around the pole.  The ball's principal
    value reduces, by symmetry, to the odd part of phi(t) = f/w, for
    which the leading term is phi(x - eps) - phi(x + eps).  End slivers
    where 1/w is badly resolved are integrated analytically against
    the arcsine mass with the modulation frozen at the sliver's mass
    centroid.
    """
    h = (b - a) / cells
    eps = (exclude_cells + 0.5) * h
    edge = edge_cells * h

    def w(t):
        return np.sqrt((t - a) * (b - t))

    def phi(t):
        return f(t) / w(t)

    total = phi(x - eps) - phi(x + eps)   # excluded-ball principal value
    for sign, end in ((1.0, b), (-1.0, a)):
        span = sign * (end - x)
        m = int(np.floor((span - eps - edge) / h))
        if m < 1:
            raise ValueError("pole too close to an endpoint for the oracle grid")
        t = x + sign * (eps + (np.arange(m) + 0.5) * h)
        total += h * np.sum(f(t) / (w(t) * (x - t)))
        t0 = x + sign * (eps + m * h)         # sliver [t0, end] (or mirrored)
        lo, hi = (t0, end) if sign > 0 else (end, t0)
        centroid = end - sign * (hi - lo) / 3.0
        total += _endpoint_mass(a, b, lo, hi) * f(centroid) / (x - centroid)
    return float(total)


def weighted_oracle(f, a, b, cells=400_000, edge_cells=64):
    """Integral of f(t) / w(t) by midpoint rule plus analytic slivers."""
    h = (b - a) / cells
    edge = edge_cells * h
    t = a + edge + (np.arange(cells - 2 * edge_cells) + 0.5) * h
    total = h * np.sum(f(t) / np.sqrt((t - a) * (b - t)))
    total += _endpoint_mass(a, b, a, a + edge) * f(a + edge / 3.0)
    total += _endpoint_mass(a, b, b - edge, b) * f(b - edge / 3.0)
    return float(total)


def finite_part_oracle(f, a, b, x, m=400, delta=1e-5):
    """Finite part of f-weighted 1/(x-t)^2 via the derivative identity.

    Uses fp-int f(t)/(w(t)(x-t)^2) dt = -(d/dx) pv-int f(t)/(w(t)(x-t)) dt
    with a centered difference, so the only machinery shared with the
    package is the principal value itself; useful for cross-checking
    closed-form finite-part values against the PV implementation.
    """
    spec = PVQuadSpec(m=m)
    up = pv_weighted_integral(f, _interval(a, b), x + delta, spec)
    dn = pv_weighted_integral(f, _interval(a, b), x - delta, spec)
    return -(up - dn) / (2.0 * delta)


def chebyshev_finite_part(degree, x):
    """Closed-form finite part of ``sqrt(1 - t^2) U_degree(t) / (x - t)^2``
    over (-1, 1), ``-pi (degree + 1) U_degree(x)`` for |x| < 1, with scipy's
    second-kind Chebyshev polynomial."""
    from scipy.special import eval_chebyu

    return float(-np.pi * (degree + 1) * eval_chebyu(degree, x))


def _interval(a, b):
    from hypersing import Interval
    return Interval(a, b)


def cosine_transform_oracle(F, x, s_max, pieces=40):
    """Truncated cosine transform by scipy's oscillatory quadrature.

    quad's weight="cos" handles the oscillation analytically per
    subinterval; splitting [0, s_max] into pieces keeps the adaptive
    subdivision well conditioned for large s_max.
    """
    edges = np.linspace(0.0, s_max, pieces + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if x == 0.0:
            val, _ = quad(F, lo, hi, limit=200)
        else:
            val, _ = quad(F, lo, hi, weight="cos", wvar=x, limit=200)
        total += val
    return float(total)


def regular_kernel_oracle(x, porosity, c_sq, s_max=200.0):
    """The crack's regular kernel at offset x != 0, truncated at s_max, by
    scipy's adaptive oscillatory quadrature plus the cosine integral.

    Written from the formulas alone.  The symbol is

        L(s) = (s / q) [2 N c^2 s^2 (q - s) + (1 - N)(1 - N - c^2) q],

    q = sqrt(s^2 + 1 - N), with ``q - s = (1 - N) / (q + s)``; its
    expansion is ``L = slope s - decay / s + O(1/s^3)`` with
    ``slope = (1 - N)^2 (1 - c^2)`` and ``decay = (3/4) N c^2 (1 - N)^2``.
    The O(1/s^3) remainder ``L - slope s + decay s / (1 + s^2)`` and the
    proxy ``-decay s / (1 + s^2)`` are transformed apart on [0, s_max],
    and the proxy's tail past s_max adds ``decay Ci(s_max |x|)``.
    """
    from scipy.special import sici

    u = abs(float(x))
    slope = (1.0 - porosity) ** 2 * (1.0 - c_sq)
    decay = 0.75 * porosity * c_sq * (1.0 - porosity) ** 2

    def proxy(s):
        return -decay * s / (1.0 + s * s)

    def remainder(s):
        q = np.sqrt(s * s + 1.0 - porosity)
        q_minus_s = (1.0 - porosity) / (q + s)
        symbol = s / q * (2.0 * porosity * c_sq * s * s * q_minus_s
                          + (1.0 - porosity) * (1.0 - porosity - c_sq) * q)
        return symbol - slope * s - proxy(s)

    return (cosine_transform_oracle(remainder, u, s_max)
            + cosine_transform_oracle(proxy, u, s_max)
            + decay * float(sici(s_max * u)[1])) / np.pi


def regular_kernel_exact(x, porosity, c_sq):
    """The crack's regular kernel at offset x != 0 in closed form, to 40 digits.

    With ``a^2 = 1 - N`` the excess symbol ``L(s) - slope s`` equals
    ``N c^2 (2 s^3 - 2 s^4 / q - a^2 s)``, q = sqrt(s^2 + a^2), and
    ``int_0^inf cos(s x) / q ds = K0(a |x|)``, so the whole transform is

        k(x) = (N c^2 / pi) [12 / x^4 + a^2 / x^2 - 2 a^4 K0''''(a |x|)],
        K0''''(z) = K0(z) (1 + 3 / z^2) + K1(z) (2 / z + 6 / z^3),

    with no truncation.  The powers of x cancel against the Bessel
    functions' poles, which 40-digit arithmetic absorbs down to x ~ 1e-6.
    """
    import mpmath

    with mpmath.workdps(40):
        x = abs(mpmath.mpf(float(x)))
        n_p, c2 = mpmath.mpf(float(porosity)), mpmath.mpf(float(c_sq))
        a2 = 1 - n_p
        z = mpmath.sqrt(a2) * x
        k0, k1 = mpmath.besselk(0, z), mpmath.besselk(1, z)
        fourth = k0 * (1 + 3 / z**2) + k1 * (2 / z + 6 / z**3)
        return float(n_p * c2 / mpmath.pi * (12 / x**4 + a2 / x**2 - 2 * a2**2 * fourth))


def crack_spectral(porosity, c_sq, half_length, terms=15):
    """Centre opening and tip amplitude of the crack by a Chebyshev-Bessel
    Galerkin solve on the Fourier side, for sigma0 = mu = 1 and unit
    internal length.

    The opening is ``-sum_k a_k sqrt(b^2 - t^2) U_{k-1}(t / b)`` over odd
    k <= ``terms`` (Erdogan & Gupta 1972).  With ``sigma = -(pi / slope) L``
    the Galerkin matrix is

        M_lk = pi b^2 k l (-1)^((l - k)/2) int_0^inf sigma(s) J_k(bs) J_l(bs) s^-2 ds,

    whose slope part ``-pi s`` is exactly diagonal, ``-pi^2 b^2 k / 2``,
    by Weber-Schafheitlin.  Only ``sigma + pi s``, which is
    ``pi N c^2 / (1 - c^2) s (q + 2s) / (q (q + s)^2)`` with
    ``q = sqrt(s^2 + 1 - N)`` and decays like 1/s, is integrated: by
    Gauss-Legendre panels of a quarter period of ``J_k J_l`` on
    [0, s_max], past which the integrand decays like s^-4 (doubling
    s_max from 400 moves the tip at b = 1, N = 0.4 by 3e-8).  The load
    ``pi / (2 (1 - c^2))`` gives the right-hand side ``load b^2 pi / 2``
    at l = 1 alone.  Returns the centre opening ``-b sum a_k U_{k-1}(0)``
    and the tip amplitude ``-sum k a_k``.
    """
    from scipy.special import jv

    b = float(half_length)
    k = np.arange(1, terms + 1, 2)
    s_max = max(50.0, 400.0 / b, 24.0 * terms / b)
    edges = np.linspace(0.0, s_max, int(np.ceil(4.0 * b * s_max / np.pi)) + 1)
    u, w = np.polynomial.legendre.leggauss(16)
    half = np.diff(edges)[:, None] / 2.0
    s = (edges[:-1, None] + half * (u + 1.0)).ravel()
    weights = (half * w).ravel()
    q = np.sqrt(s * s + 1.0 - porosity)
    excess = np.pi * porosity * c_sq / (1.0 - c_sq) * s * (q + 2.0 * s) / (q * (q + s) ** 2)
    bessel = jv(k[:, None], b * s)
    regular = (bessel * (weights * excess / (s * s))) @ bessel.T
    sign = (-1.0) ** ((k[:, None] - k[None, :]) // 2)
    matrix = np.pi * b * b * np.outer(k, k) * sign * regular
    matrix[np.diag_indices_from(matrix)] -= np.pi**2 * b * b * k / 2.0
    rhs = np.zeros(k.size)
    rhs[0] = np.pi / (2.0 * (1.0 - c_sq)) * b * b * np.pi / 2.0
    a = np.linalg.solve(matrix, rhs)
    centre = -b * float(np.sum(a * (-1.0) ** ((k - 1) // 2)))
    return centre, -float(np.sum(k * a))
