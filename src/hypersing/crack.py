"""Plane-strain crack in an elastic medium with a scalar porosity field.

A pressurized straight crack occupying (-b, b) reduces to a
hypersingular difference-kernel equation for the crack-opening
function.  The kernel is the half-line cosine transform of a symbol
L(s) built from the material constants; L grows linearly at infinity,

    L(s) = slope * s - decay / s + O(1/s^3),

so the transform splits into the finite-part of the linear piece,
which is exactly ``-slope / (pi x^2)``, plus a regular remainder
evaluated numerically.  Dividing through by the hypersingular
coefficient puts the problem into the standard collocation form solved
by :mod:`hypersing.fullkernel`.

The kernel slope carries the factor ``(1 - N)^2`` that also appears in
the load term, so the effective right-hand side is porosity
independent; the solver asserts this cancellation numerically.  At
zero porosity the symbol is exactly linear, the remainder vanishes,
and the classical elastic crack (opening amplitude
``sigma0 * b / (2 mu (1 - c^2))``) is recovered.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .grids import Grid, SampledFunction, build_grid
from .quadrature import OscIntSpec, TailOrder, halfline_cosine_integral
from .fullkernel import FullProblem, solve_full_collocation

__all__ = [
    "MaterialParams",
    "DimensionlessParams",
    "CrackSolution",
    "derive_dimensionless",
    "crack_symbol",
    "symbol_asymptotics",
    "regular_kernel",
    "solve_crack",
    "stress_concentration",
    "porosity_sweep",
]


@dataclass(frozen=True)
class MaterialParams:
    """Physical constants of the porous elastic medium plus the load.

    ``lam`` and ``mu`` are the Lame moduli; ``alpha``, ``beta`` and
    ``xi`` are the void constants (void gradient stiffness, void-strain
    coupling, void compliance); ``sigma0`` is the remote tension on the
    crack faces.  Constructor enforces mu > 0, lam + 2 mu > 0, alpha >
    0, xi > 0, beta >= 0, sigma0 >= 0 and that the derived coupling
    number ``beta^2 / (xi (lam + 2 mu))`` stays below one.
    """

    lam: float
    mu: float
    alpha: float
    beta: float
    xi: float
    sigma0: float

    def __post_init__(self):
        fields = {name: float(getattr(self, name))
                  for name in ("lam", "mu", "alpha", "beta", "xi", "sigma0")}
        if not all(np.isfinite(v) for v in fields.values()):
            raise ValueError("material constants must be finite")
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        if self.mu <= 0.0:
            raise ValueError(f"shear modulus mu must be positive, got {self.mu!r}")
        if self.lam + 2.0 * self.mu <= 0.0:
            raise ValueError(
                f"lam + 2 mu must be positive, got {self.lam + 2.0 * self.mu!r}")
        if self.alpha <= 0.0:
            raise ValueError(f"void gradient constant alpha must be positive, got {self.alpha!r}")
        if self.xi <= 0.0:
            raise ValueError(f"void compliance xi must be positive, got {self.xi!r}")
        if self.beta < 0.0:
            raise ValueError(f"coupling constant beta must be nonnegative, got {self.beta!r}")
        if self.sigma0 < 0.0:
            raise ValueError(f"load sigma0 must be nonnegative, got {self.sigma0!r}")
        coupling_number = self.beta**2 / (self.xi * (self.lam + 2.0 * self.mu))
        if coupling_number >= 1.0:
            raise ValueError(
                f"coupling number beta^2/(xi (lam + 2 mu)) = {coupling_number:.6g} "
                "must stay below one")


@dataclass(frozen=True)
class DimensionlessParams:
    """Dimensionless groups controlling the crack kernel.

    ``c_sq`` is the shear-to-pressure modulus ratio mu / (lam + 2 mu),
    ``coupling`` the ratio beta / (lam + 2 mu), ``len1_sq = alpha/beta``
    and ``len2_sq = alpha/xi`` the squared internal lengths, and
    ``porosity`` the coupling number N in [0, 1).  At beta = 0 the
    first length diverges; ``porosity`` is always computed from the
    algebraic identity ``beta^2 / (xi (lam + 2 mu))`` which stays
    finite there.
    """

    c_sq: float
    coupling: float
    len1_sq: float
    len2_sq: float
    porosity: float

    def __post_init__(self):
        for name in ("c_sq", "coupling", "len1_sq", "len2_sq", "porosity"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.c_sq < 1.0:
            raise ValueError(f"modulus ratio c_sq must lie in (0, 1), got {self.c_sq!r}")
        if not 0.0 <= self.porosity < 1.0:
            raise ValueError(f"porosity parameter must lie in [0, 1), got {self.porosity!r}")
        if self.coupling < 0.0 or self.len2_sq <= 0.0 or self.len1_sq <= 0.0:
            raise ValueError("coupling must be >= 0 and both squared lengths positive")


def derive_dimensionless(params: MaterialParams) -> DimensionlessParams:
    """Form the dimensionless groups from physical constants.

    The coupling number is computed from the closed form
    ``beta^2 / (xi (lam + 2 mu))`` so the classical limit beta = 0 needs
    no special casing beyond the infinite first length; for beta > 0 the
    equivalent product of the length ratio and the coupling is used as a
    consistency check.
    """
    stiffness = params.lam + 2.0 * params.mu
    c_sq = params.mu / stiffness
    coupling = params.beta / stiffness
    len1_sq = params.alpha / params.beta if params.beta > 0.0 else math.inf
    len2_sq = params.alpha / params.xi
    porosity = params.beta**2 / (params.xi * stiffness)
    if params.beta > 0.0:
        alt = (len2_sq / len1_sq) * coupling
        if abs(alt - porosity) > 1e-12 + 1e-10 * porosity:
            raise ValueError(
                "inconsistent porosity parameter: length-ratio route gives "
                f"{alt!r}, closed form gives {porosity!r}")
    return DimensionlessParams(c_sq=c_sq, coupling=coupling, len1_sq=len1_sq,
                               len2_sq=len2_sq, porosity=porosity)


def crack_symbol(s, dp: DimensionlessParams):
    """Symbol L(s) of the crack operator, for s >= 0 (scalar or array).

    L(s) = (s / q) * [ 2 N c^2 s^2 (q - s) + (1 - N)(1 - N - c^2) q ],
    q = sqrt(s^2 + 1 - N).  The difference q - s is evaluated as
    (1 - N) / (q + s); the naive subtraction loses enough precision at
    large s to corrupt the O(1/s^3) remainder used by the kernel split.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0):
        raise ValueError("symbol argument must be nonnegative")
    n_p = dp.porosity
    c2 = dp.c_sq
    q = np.sqrt(s_arr * s_arr + (1.0 - n_p))
    q_minus_s = (1.0 - n_p) / (q + s_arr)
    bracket = 2.0 * n_p * c2 * s_arr * s_arr * q_minus_s \
        + (1.0 - n_p) * (1.0 - n_p - c2) * q
    out = s_arr / q * bracket
    return out if out.shape else float(out)


def _symbol_slope(dp: DimensionlessParams) -> float:
    # closed form only; the decay coefficient carries the numeric fit
    return (1.0 - dp.porosity) ** 2 * (1.0 - dp.c_sq)


def symbol_asymptotics(dp: DimensionlessParams):
    """Large-s expansion coefficients (slope, decay) of the symbol.

    ``L(s) = slope * s - decay / s + O(1/s^3)`` with

        slope = (1 - N)^2 (1 - c^2)
        decay = (3/4) N c^2 (1 - N)^2.

    The decay coefficient is cross-checked against a Richardson fit of
    ``s * (slope * s - L(s))`` at s = 50, 100, 200; if the fit strays
    by more than one percent the fitted value is used and a warning is
    issued.
    """
    n_p = dp.porosity
    slope = _symbol_slope(dp)
    decay = 0.75 * n_p * dp.c_sq * (1.0 - n_p) ** 2

    def defect(s):
        return s * (slope * s - crack_symbol(s, dp))

    b_mid, b_fine = defect(100.0), defect(200.0)
    fitted = b_fine + (b_fine - b_mid) / 3.0  # removes the 1/s^2 term
    if abs(fitted - decay) > 0.01 * max(abs(decay), 1e-9):
        warnings.warn(
            "symbol decay coefficient: closed form "
            f"{decay:.6e} disagrees with numeric fit {fitted:.6e}; using the fit",
            RuntimeWarning)
        return slope, float(fitted)
    return slope, decay


def regular_kernel(x, dp: DimensionlessParams, spec: Optional[OscIntSpec] = None):
    """Regular remainder of the crack kernel at offset x.

    The kernel is ``(1/pi) int_0^inf L(s) cos(s x) ds`` with the
    divergent linear part assigned its finite-part value
    ``-slope / (pi x^2)``.  What remains is the transform of
    ``L(s) - slope * s``, which decays only like 1/s; subtracting the
    proxy ``-decay * s / (1 + s^2)`` (same tail, vanishing at s = 0)
    leaves an O(1/s^3) integrand handled by the panel quadrature, and
    the proxy transform is added back with its own cosine-integral
    tail.  Discarded pieces are O(1/s^3) tails bounded by
    ``C / (2 s_max^2)``.

    A scalar x gives a float; an array of offsets gives an array of the
    same shape, with the symbol asymptotics computed once for all of
    them.  Each entry equals the scalar call at that offset bitwise.

    Even in x; logarithmically singular at x = 0 whenever the decay
    coefficient is nonzero, which is why the collocation grids keep all
    kernel offsets away from zero.  At zero porosity the symbol is
    exactly linear and the remainder is identically zero.
    """
    spec = spec if spec is not None else OscIntSpec()
    offsets = np.asarray(x, dtype=float)
    slope, decay = symbol_asymptotics(dp)
    if decay == 0.0:
        return 0.0 if offsets.ndim == 0 else np.zeros(offsets.shape)
    if np.any(offsets == 0.0):
        raise ValueError("regular kernel is logarithmically singular at zero offset")
    from scipy.special import sici  # loaded on first use; routes 1-3 never need it

    def remainder(s):
        s = np.asarray(s, dtype=float)
        return crack_symbol(s, dp) - slope * s + decay * s / (1.0 + s * s)

    def proxy(s):
        s = np.asarray(s, dtype=float)
        return -decay * s / (1.0 + s * s)

    proxy_spec = replace(spec, tail=TailOrder.NONE)

    def at(u):
        rem = halfline_cosine_integral(remainder, u, spec)
        prox = halfline_cosine_integral(proxy, u, proxy_spec)
        # analytic tail of the proxy past s_max: -decay * int cos(su)/s ds
        # equals the cosine integral, up to another O(1/s^3) remainder
        tail = decay * float(sici(spec.s_max * abs(float(u)))[1])
        return float((rem + prox + tail) / np.pi)

    out = np.array([at(u) for u in offsets.ravel()]).reshape(offsets.shape)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class CrackSolution:
    """Opening profile of a pressurized crack.

    ``opening`` holds the (nonnegative) crack-opening values at the
    collocation midpoints; ``tip_coefficient`` is the fitted amplitude
    C in ``opening ~ C sqrt(b^2 - x^2)`` near the tips.
    """

    grid: Grid
    opening: SampledFunction
    params: MaterialParams
    dimensionless: DimensionlessParams
    half_length: float
    tip_coefficient: float


class _OffsetKernel:
    """Difference kernel cached on the O(n) distinct grid offsets.

    On a uniform grid every collocation-node distance is a half-odd
    multiple of h, so K0(x_i - t_j) takes only n distinct magnitudes;
    evaluating the oscillatory transform once per magnitude makes the
    assembly cost linear in n rather than quadratic.
    """

    def __init__(self, h: float, scale: float, table: np.ndarray):
        self.h = h
        self.scale = scale
        self.table = np.asarray(table, dtype=float)

    def __call__(self, x, t):
        u = np.abs(np.asarray(x, dtype=float) - np.asarray(t, dtype=float))
        idx = np.rint(u / self.h - 0.5).astype(int)
        if np.any((idx < 0) | (idx >= self.table.size)):
            raise ValueError("offset outside the cached grid-offset table")
        out = self.scale * self.table[idx]
        return out if out.shape else float(out)


def _tip_window(n: int) -> int:
    # outer ten percent of the samples, but at least enough for a line fit
    return max(4, math.ceil(0.1 * n))


def _tip_amplitude(grid: Grid, values: np.ndarray, half_length: float,
                   side: int) -> float:
    """Fitted amplitude C of values ~ C * sqrt(b^2 - x^2) at one tip.

    Least-squares fit of the edge profile over the outer ten percent
    of samples, skipping the sample nearest the tip.  Minimizing
    sum (v_i - C sqrt(b^2 - x_i^2))^2 is the same as a weighted
    least-squares constant fit of the pointwise ratio with weights
    (b^2 - x_i^2); the weighting matters because the raw ratio carries
    a discretization boundary layer that the vanishing denominator
    amplifies as samples approach the tip.
    """
    n = grid.n
    k = _tip_window(n)
    if side > 0:
        window = slice(n - k, n - 1)   # midpoints x_{n-k+1} .. x_{n-1}
    else:
        window = slice(1, k)           # midpoints x_2 .. x_k
    x = grid.colloc[window]
    v = values[window]
    if x.size < 3:
        raise ValueError(f"degenerate tip fit: only {x.size} usable samples (need 3)")
    profile = np.sqrt(half_length**2 - x * x)
    return float(np.dot(v, profile) / np.dot(profile, profile))


def solve_crack(params: MaterialParams, half_length: float, n: int,
                spec: Optional[OscIntSpec] = None) -> CrackSolution:
    """Opening profile of a crack on (-b, b) under remote tension.

    Parameters
    ----------
    params : MaterialParams
    half_length : float
        Crack half-length b > 0 (in the same dimensionless length unit
        as the kernel variable).
    n : int
        Number of collocation cells, at least 10.
    spec : OscIntSpec, optional
        Resolution of the kernel transforms.

    Returns
    -------
    CrackSolution

    Notes
    -----
    Dividing the physical equation by the (negative) hypersingular
    coefficient yields the standard collocation form with the constant
    right-hand side ``pi sigma0 / (2 mu (1 - c^2))``; the porosity
    factor ``(1 - N)^2`` cancels between load and kernel slope, which
    is asserted numerically.  The raw collocation solution is the
    negative of the opening; the sign is fixed once against the
    classical limit, where the opening is
    ``sigma0 sqrt(b^2 - x^2) / (2 mu (1 - c^2))``.
    """
    half_length = float(half_length)
    if not (np.isfinite(half_length) and half_length > 0.0):
        raise ValueError(f"crack half-length must be positive, got {half_length!r}")
    if int(n) != n or n < 10:
        raise ValueError(f"crack solves need an integer n >= 10, got {n!r}")
    n = int(n)
    spec = spec if spec is not None else OscIntSpec()
    dp = derive_dimensionless(params)
    # the full asymptotics (with their fit) run once, inside regular_kernel
    slope = _symbol_slope(dp)

    n_p = dp.porosity
    rhs_raw = np.pi * (1.0 - n_p) ** 2 * params.sigma0 / (2.0 * params.mu * slope)
    rhs_reduced = np.pi * params.sigma0 / (2.0 * params.mu * (1.0 - dp.c_sq))
    if abs(rhs_raw - rhs_reduced) > 1e-13 * max(abs(rhs_reduced), 1e-300):
        raise ValueError(
            "porosity factor failed to cancel between load and kernel slope "
            f"({rhs_raw!r} vs {rhs_reduced!r})")

    grid = build_grid(-half_length, half_length, n)
    offsets = (np.arange(n) + 0.5) * grid.h
    table = regular_kernel(offsets, dp, spec)
    kernel = _OffsetKernel(h=grid.h, scale=-(np.pi / slope), table=table)

    def fprime(x):
        return np.full(np.shape(x), rhs_reduced)

    problem = FullProblem(interval=grid.interval, K0=kernel, fprime=fprime)
    raw = solve_full_collocation(problem, grid)
    opening_values = -raw.values
    opening = SampledFunction(grid=grid, values=opening_values, site=raw.site)
    tip = _tip_amplitude(grid, opening_values, half_length, side=+1)
    return CrackSolution(grid=grid, opening=opening, params=params,
                         dimensionless=dp, half_length=half_length,
                         tip_coefficient=tip)


def stress_concentration(solution: CrackSolution) -> float:
    """Tip amplitude normalized by the classical elastic value.

    Returns the right-tip fitted coefficient divided by
    ``sigma0 / (2 mu (1 - c^2))``, so the zero-porosity limit gives one.
    This ratio serves as the tip-strength proxy tracked across the
    porosity sweeps.
    """
    params = solution.params
    classical = params.sigma0 / (2.0 * params.mu * (1.0 - solution.dimensionless.c_sq))
    if classical == 0.0:
        raise ValueError("zero-load solution has no tip normalization")
    return float(solution.tip_coefficient / classical)


def porosity_sweep(base: MaterialParams, porosities: Sequence[float],
                   half_length: float, n: int,
                   spec: Optional[OscIntSpec] = None):
    """Center opening and normalized tip amplitude across porosity values.

    For each target coupling number N the constant beta is back-solved
    from ``beta = sqrt(N xi (lam + 2 mu))`` while every other constant
    of ``base`` is kept.  Returns a list of tuples
    ``(N, opening_at_center, normalized_tip_amplitude)``.
    """
    rows = []
    for n_target in porosities:
        n_target = float(n_target)
        if not 0.0 <= n_target < 1.0:
            raise ValueError(f"porosity targets must lie in [0, 1), got {n_target!r}")
        beta = math.sqrt(n_target * base.xi * (base.lam + 2.0 * base.mu))
        params = replace(base, beta=beta)
        sol = solve_crack(params, half_length, n, spec)
        opening0 = float(np.interp(0.0, sol.opening.points, sol.opening.values))
        rows.append((n_target, opening0, stress_concentration(sol)))
    return rows
