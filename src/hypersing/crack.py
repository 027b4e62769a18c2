"""Plane-strain crack in an elastic medium with a scalar porosity field.

A pressurized straight crack occupying (-b, b) reduces to a
hypersingular difference-kernel equation for the crack-opening
function.  The kernel is the half-line cosine transform of a symbol
L(s) built from the material constants; L grows linearly at infinity,

    L(s) = slope * s - decay / s + O(1/s^3),

so the transform splits into the finite-part of the linear piece,
which is exactly ``-slope / (pi x^2)``, plus a regular remainder
evaluated numerically up to ``OscIntSpec.s_max`` by one cosine rule, the
chirp-z table of :mod:`hypersing.quadrature`; the pointwise
``regular_kernel`` reads it on a grid of its own.  The O(1/s^3) decay
that bounds the discarded tail is spot-checked wherever a remainder is
transformed.  Dividing through by the hypersingular
coefficient puts the problem into the standard collocation form solved
by :mod:`hypersing.fullkernel`.  On the uniform grid every offset
between a collocation midpoint and a cell node is a half-odd multiple
of the cell width, so the regular kernel takes only n distinct values:
they are tabled once by ``regular_kernel_table``, whose material-free
pieces (the chirp-z plan of the grid, the proxy's transform and its
cosine-integral tail) a porosity sweep builds once for all its targets
before it transforms each target's remainder in turn.  Each cell samples
the kernel at both of its nodes and takes the mean, which makes the
kernel matrix a symmetric Toeplitz one, handed to the solver as its n
node-mean values.  The collocation matrix is then exactly
centro-symmetric and the load is constant, so the opening is exactly
reflection-symmetric and only the folded even half of the system, a
quarter of the matrix, is formed and factored in place; its residual
gate re-forms only the finite-part chunks.  Its finite-part block
depends only on the grid, so a sweep on a grid of n <= 1448 cells builds
it once, as one ceil(n/2)-square array (80 KB at n = 200, at most
4 MiB), adds each target's kernel to it and takes each residual from it.

The kernel slope carries the factor ``(1 - N)^2`` that also appears in
the load term, so the effective right-hand side is porosity
independent; the solver asserts this cancellation numerically.  At
zero porosity the symbol is exactly linear, the remainder vanishes,
and the classical elastic crack (opening amplitude
``sigma0 * b / (2 mu (1 - c^2))``) is recovered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .grids import Grid, SampledFunction, build_grid
from .quadrature import (OscIntSpec, cosine_integral, _check_cubic_decay,
                         _halfline_cosine_tables)
from .fullkernel import _folded_singular, _solve_folded

__all__ = [
    "MaterialParams",
    "DimensionlessParams",
    "CrackSolution",
    "derive_dimensionless",
    "crack_symbol",
    "symbol_asymptotics",
    "regular_kernel",
    "regular_kernel_table",
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

    Crack lengths are in units of the internal length ``sqrt(alpha / xi)``:
    the kernel is built with it set to one, so ``alpha`` is only validated.
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
    ``s * (slope * s - L(s))`` at s = 100 and 200, both from one array
    call of the symbol; a fit that strays by more than one percent, plus
    a floor ``1e-9 (1 - N)`` above the fit's rounding error, means the
    symbol does not follow its expansion, and raises ``ValueError``.
    """
    n_p = dp.porosity
    slope = _symbol_slope(dp)
    decay = 0.75 * n_p * dp.c_sq * (1.0 - n_p) ** 2

    s = np.array([100.0, 200.0])
    b_mid, b_fine = s * (slope * s - crack_symbol(s, dp))
    fitted = b_fine + (b_fine - b_mid) / 3.0  # removes the 1/s^2 term
    # the fit cancels terms of size (1 - N) s^2; its rounding error stayed
    # below 3e-11 (1 - N) over N in [0, 1 - 1e-9] and c^2 in [1e-6, 1 - 1e-6]
    if abs(fitted - decay) > 0.01 * abs(decay) + 1e-9 * (1.0 - n_p):
        raise ValueError(
            "symbol decay coefficient: closed form "
            f"{decay:.6e} disagrees with numeric fit {fitted:.6e}")
    return slope, decay


def _kernel_split(dp: DimensionlessParams):
    """Integrands of the regular kernel and the decay coefficient that
    scales the proxy's analytic tail.

    Returns the excess ``L(s) - slope * s``, which decays like 1/s, and
    its O(1/s^3) remainder ``excess - proxy`` with the proxy
    ``-decay * s / (1 + s^2)``.
    """
    slope, decay = symbol_asymptotics(dp)

    def excess(s):
        s = np.asarray(s, dtype=float)
        return crack_symbol(s, dp) - slope * s

    def proxy(s):
        s = np.asarray(s, dtype=float)
        return -decay * s / (1.0 + s * s)

    def remainder(s):
        return excess(s) - proxy(s)

    return excess, remainder, decay


def regular_kernel(x, dp: DimensionlessParams, spec: Optional[OscIntSpec] = None):
    """Regular remainder of the crack kernel at offset x.

    The kernel is ``(1/pi) int_0^inf L(s) cos(s x) ds`` with the
    divergent linear part assigned its finite-part value
    ``-slope / (pi x^2)``.  What remains is the transform of
    ``L(s) - slope * s``, which decays only like 1/s; subtracting the
    proxy ``-decay * s / (1 + s^2)`` (same tail, vanishing at s = 0)
    leaves an O(1/s^3) remainder, whose decay is spot-checked once per
    call.  The rule is linear, so remainder and proxy are integrated as
    their sum ``L(s) - slope * s`` on [0, s_max], by the cosine rule of
    ``regular_kernel_table`` with |x| the last of ``J + 1`` half-odd
    offsets, ``J = floor(|x|)``: a grid step of 2|x| below |x| = 1 and
    between 2/3 and 4/3 beyond, which keeps its fold period long; the
    proxy's tail past s_max is added back as the cosine integral
    ``decay * Ci(s_max |x|)``.  Discarded pieces are O(1/s^3) tails
    bounded by ``C / (2 s_max^2)``.

    A scalar x gives a float; an array of offsets gives an array of the
    same shape, with the symbol asymptotics computed once for all of
    them.  Each entry equals the scalar call at that offset bitwise.
    ``regular_kernel_table`` gives the same values, to the rule's
    accuracy, at all grid offsets of a crack solve at once.

    Exactly even in x; logarithmically singular at x = 0 whenever the
    decay coefficient is nonzero, which is why the collocation grids keep
    all kernel offsets away from zero.  At zero porosity the symbol is
    exactly linear and the remainder is identically zero.
    """
    spec = spec if spec is not None else OscIntSpec()
    offsets = np.asarray(x, dtype=float)
    excess, remainder, decay = _kernel_split(dp)
    if decay == 0.0:
        return 0.0 if offsets.ndim == 0 else np.zeros(offsets.shape)
    if not np.all(np.isfinite(offsets)):
        raise ValueError("kernel offsets must be finite")
    if np.any(offsets == 0.0):
        raise ValueError("regular kernel is logarithmically singular at zero offset")
    _check_cubic_decay(remainder, spec.s_max)

    def at(u):
        u = abs(float(u))
        j = math.floor(u)
        body = _halfline_cosine_tables([excess], 2.0 * u / (2 * j + 1), j + 1, spec)[0, j]
        # analytic tail of the proxy past s_max: -decay * int cos(su)/s ds
        # equals the cosine integral, up to another O(1/s^3) remainder
        tail = decay * float(cosine_integral(spec.s_max * u))
        return float((body + tail) / np.pi)

    out = np.array([at(u) for u in offsets.ravel()]).reshape(offsets.shape)
    return float(out) if out.ndim == 0 else out


def _proxy_shape(s):
    # the proxy per unit decay coefficient: the same for every material
    s = np.asarray(s, dtype=float)
    return -s / (1.0 + s * s)


def _kernel_tables(h: float, n: int, dps: Sequence[DimensionlessParams],
                   spec: OscIntSpec) -> np.ndarray:
    """``regular_kernel_table`` of several materials on one grid, one row each.

    Only the O(1/s^3) remainders depend on the material.  The live ones
    (nonzero decay), each spot-checked for that decay, and the
    material-free proxy shape ``-s / (1 + s^2)`` go through one
    ``_halfline_cosine_tables`` call, which builds the grid's chirp-z plan
    and sliver once and transforms the integrands one at a time;
    ``Ci(s_max u_j)`` is computed once.  Row k is then
    ``(rem_k + decay_k (shape + Ci)) / pi``, and a classical material's
    row is zero.
    """
    out = np.zeros((len(dps), int(n)))
    live, remainders, decays = [], [], []
    for k, dp in enumerate(dps):
        _, remainder, decay = _kernel_split(dp)
        if decay != 0.0:
            _check_cubic_decay(remainder, spec.s_max)
            live.append(k)
            remainders.append(remainder)
            decays.append(decay)
    if not live:
        return out
    *rems, shape = _halfline_cosine_tables(remainders + [_proxy_shape], h, n, spec)
    offsets = (np.arange(out.shape[1]) + 0.5) * h
    proxy = shape + cosine_integral(spec.s_max * offsets)
    for k, rem, decay in zip(live, rems, decays):
        out[k] = (rem + decay * proxy) / np.pi
    return out


def regular_kernel_table(h: float, n: int, dp: DimensionlessParams,
                         spec: Optional[OscIntSpec] = None) -> np.ndarray:
    """``regular_kernel`` at the n half-odd grid offsets ``(j + 1/2) h``.

    The O(1/s^3) remainder and the proxy shape ``-s / (1 + s^2)`` go
    through one ``_halfline_cosine_tables`` call, which evaluates the
    cosine rule at every offset by one FFT per integrand with one shared
    chirp-z plan, so the cost grows like the sample count plus n log n
    rather than n times the sample count.  The proxy's tail past s_max
    is the cosine integral, as in ``regular_kernel``.  Agrees with the
    pointwise ``regular_kernel``, which runs the same rule on its own
    grid, to the rule's accuracy, not bitwise: within 4e-11 for
    half-lengths 1 to 100 and n = 40 to 3200.  A porosity sweep tables
    all its targets in one such call, and each of its rows equals this
    function's value bitwise.
    """
    spec = spec if spec is not None else OscIntSpec()
    return _kernel_tables(h, n, [dp], spec)[0]


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


def _node_mean(table: np.ndarray) -> np.ndarray:
    """A difference kernel averaged over both cell nodes, per cell offset.

    With ``table[k]`` the kernel at offset ``(k + 1/2) h``, midpoint x_i
    lies ``|j - i - 1/2|`` cells from the left node of cell j and
    ``|j - i + 1/2|`` from its right node.  The mean of the two samples
    depends on ``k = |j - i|`` alone: ``table[0]`` for k = 0 and
    ``(table[k] + table[k - 1]) / 2`` beyond, so the n returned values
    are the whole of the symmetric Toeplitz kernel matrix
    ``kernel[i, j] = mean[|j - i|]``.
    """
    mean = np.empty(table.size)
    mean[0] = table[0]
    mean[1:] = 0.5 * (table[1:] + table[:-1])
    return mean


def _tip_amplitude(grid: Grid, values: np.ndarray, half_length: float) -> float:
    """Fitted amplitude C of values ~ C * sqrt(b^2 - x^2) at the right tip.

    Least-squares fit of the edge profile over the outer ten percent
    of samples, skipping the sample nearest the tip; the opening is
    exactly reflection-symmetric, so the left tip gives the same fit up
    to the order of its sums.  Minimizing
    sum (v_i - C sqrt(b^2 - x_i^2))^2 is the same as a weighted
    least-squares constant fit of the pointwise ratio with weights
    (b^2 - x_i^2); the weighting matters because the raw ratio carries
    a discretization boundary layer that the vanishing denominator
    amplifies as samples approach the tip.
    """
    n = grid.n
    # outer ten percent of the samples, but at least enough for a line fit
    k = max(4, math.ceil(0.1 * n))
    window = slice(n - k, n - 1)   # midpoints x_{n-k+1} .. x_{n-1}
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
        Crack half-length b > 0, in units of the internal length
        ``sqrt(alpha / xi)``, as are the opening's sample points.
    n : int
        Number of collocation cells, at least 10.
    spec : OscIntSpec, optional
        Resolution of the kernel transforms.

    Returns
    -------
    CrackSolution

    Raises
    ------
    ValueError
        On bad sizes, and when a positive load gives an opening with a
        negative sample: at porosities N >= 1 - c^2 the symbol is
        negative near s = 0 and the solve has no physical opening.

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

    The regular kernel enters as its n-entry offset table scaled by
    ``-pi / slope`` and averaged over the two nodes of each cell: the
    table ``mean``, whose symmetric Toeplitz matrix ``mean[|i - j|]``
    times the exact cell weight ``W_j`` is the kernel part.  That makes
    the n-by-n collocation matrix A exactly centro-symmetric, and the
    constant load is reflection-symmetric, so the solution is too: its
    first ``r = ceil(n/2)`` cell constants solve the folded system
    ``B = A[:r, :r] + A[:r, r:] J`` (J the column reversal), and the
    rest are their mirror image.  B is built chunk by chunk from the
    table and the closed-form folded finite-part block, in its own
    memory map, and factored in place, so it is the only dense array of
    the solve and its pages go back to the system when the solve
    returns.  The pivot gate runs on B before the factorization; the
    residual gate takes B x from the finite-part chunks re-formed plus
    the kernel part by convolution with the table.
    Row ``n-1-i`` of the full residual equals row i, so the gates cover
    the whole system.  The opening is exactly reflection-symmetric.
    """
    grid = _crack_grid(half_length, n)
    dp = derive_dimensionless(params)
    # the full asymptotics (with their fit) run once, inside regular_kernel_table
    return _solve_tabled(params, dp, grid, regular_kernel_table(grid.h, grid.n, dp, spec))


def _crack_grid(half_length: float, n: int) -> Grid:
    half_length = float(half_length)
    if not (np.isfinite(half_length) and half_length > 0.0):
        raise ValueError(f"crack half-length must be positive, got {half_length!r}")
    if int(n) != n or n < 10:
        raise ValueError(f"crack solves need an integer n >= 10, got {n!r}")
    return build_grid(-half_length, half_length, int(n))


def _solve_tabled(params: MaterialParams, dp: DimensionlessParams, grid: Grid,
                  kernel_table: np.ndarray,
                  singular: Optional[np.ndarray] = None) -> CrackSolution:
    """The crack solve of ``solve_crack`` from its regular-kernel offset table on.

    ``singular``, the grid's ``_folded_singular``, lets a sweep share the
    folded finite-part block across its targets; the folded matrix is the
    same bitwise with or without it.
    """
    n = grid.n
    half_length = grid.interval.b
    slope = _symbol_slope(dp)
    n_p = dp.porosity
    rhs_raw = np.pi * (1.0 - n_p) ** 2 * params.sigma0 / (2.0 * params.mu * slope)
    rhs_reduced = np.pi * params.sigma0 / (2.0 * params.mu * (1.0 - dp.c_sq))
    if abs(rhs_raw - rhs_reduced) > 1e-13 * max(abs(rhs_reduced), 1e-300):
        raise ValueError(
            "porosity factor failed to cancel between load and kernel slope "
            f"({rhs_raw!r} vs {rhs_reduced!r})")

    table = -(np.pi / slope) * kernel_table
    if not np.all(np.isfinite(table)):
        raise ValueError("crack kernel table has a non-finite value")
    raw = _solve_folded(grid, _node_mean(table), np.full(n, rhs_reduced), singular)
    opening_values = -raw.values
    if params.sigma0 > 0.0 and np.any(opening_values < 0.0):
        raise ValueError(
            f"crack opening has negative samples (min {opening_values.min():.3g}, "
            f"max {opening_values.max():.3g}) at porosity {n_p:.6g}; the symbol "
            f"turns negative near s = 0 once N >= 1 - c^2 = {1.0 - dp.c_sq:.6g}")
    opening = SampledFunction(grid=grid, values=opening_values)
    tip = _tip_amplitude(grid, opening_values, half_length)
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


# Largest shared folded finite-part block a sweep builds, r^2 floats for
# n <= 1448.  A block of unfolded rows (r by n) under the same budget,
# up to n = 1024, left a 4-target sweep's tracemalloc and RSS peaks where
# they were without it; at n = 3200 its 39 MiB took the RSS peak from
# 103 to 142 MiB for a 10% faster sweep.
_SHARED_SINGULAR_MAX_BYTES = 4 << 20


def porosity_sweep(base: MaterialParams, porosities: Sequence[float],
                   half_length: float, n: int,
                   spec: Optional[OscIntSpec] = None):
    """Center opening and normalized tip amplitude across porosity values.

    For each target coupling number N the constant beta is back-solved
    from ``beta = sqrt(N xi (lam + 2 mu))`` while every other constant
    of ``base`` is kept.  Returns a list of tuples
    ``(N, opening_at_center, normalized_tip_amplitude)``; ``half_length``
    is in units of ``sqrt(alpha / xi)``.

    Every target is checked before any work starts.  The kernel tables
    of all targets come from one ``_kernel_tables`` call, which builds
    the grid's chirp-z plan, the proxy transform and its cosine-integral
    tail once.  The folded finite-part block depends only on the grid, so
    while it fits in ``_SHARED_SINGULAR_MAX_BYTES`` (n <= 1448) it is
    built once too (``_folded_singular``), after the tables, as one
    ceil(n/2)-square array, 80 KB at n = 200; each target adds its kernel
    to it and takes its residual gate's ``S x`` from it.  On a larger
    grid each target forms it chunk by chunk.  Each target is then
    solved as ``solve_crack`` solves it, and each row equals
    ``solve_crack`` with ``stress_concentration`` at that target bitwise.
    """
    spec = spec if spec is not None else OscIntSpec()
    targets = [float(n_target) for n_target in porosities]
    for n_target in targets:
        if not 0.0 <= n_target < 1.0:
            raise ValueError(f"porosity targets must lie in [0, 1), got {n_target!r}")
    grid = _crack_grid(half_length, n)
    materials = [replace(base, beta=math.sqrt(n_target * base.xi * (base.lam + 2.0 * base.mu)))
                 for n_target in targets]
    dps = [derive_dimensionless(params) for params in materials]
    tables = _kernel_tables(grid.h, grid.n, dps, spec)
    r = grid.n - grid.n // 2
    singular = _folded_singular(grid) if 8 * r * r <= _SHARED_SINGULAR_MAX_BYTES else None
    rows = []
    for n_target, params, dp, table in zip(targets, materials, dps, tables):
        sol = _solve_tabled(params, dp, grid, table, singular)
        opening0 = float(np.interp(0.0, sol.opening.points, sol.opening.values))
        rows.append((n_target, opening0, stress_concentration(sol)))
    return rows
