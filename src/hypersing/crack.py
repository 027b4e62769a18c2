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
quarter of the matrix, is formed and factored in place, by
``fullkernel._FoldedGrid``, which also owns the system's finite-part
block: it depends only on the grid, and its docstring gives the one size
rule by which the block is kept or applied from its structure.  A sweep
builds one for all its targets.

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
from .fullkernel import _FoldedGrid

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
    crack faces.  Constructor enforces mu > 0, the plane-strain rule
    lam + mu > 0, alpha > 0, xi > 0, beta >= 0 and sigma0 >= 0, and then
    builds the record of ``derive_dimensionless``, so that every accepted
    material can be solved for: mu > 0 with lam + mu > 0 is exactly
    0 < c^2 < 1, and the record also refuses a c^2 that rounds to 0 or 1
    and a coupling number ``beta^2 / (xi (lam + 2 mu))`` of one or more.
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
        if self.lam + self.mu <= 0.0:
            raise ValueError(
                f"lam + mu must be positive (plane strain), got {self.lam + self.mu!r}")
        if self.alpha <= 0.0:
            raise ValueError(f"void gradient constant alpha must be positive, got {self.alpha!r}")
        if self.xi <= 0.0:
            raise ValueError(f"void compliance xi must be positive, got {self.xi!r}")
        if self.beta < 0.0:
            raise ValueError(f"coupling constant beta must be nonnegative, got {self.beta!r}")
        if self.sigma0 < 0.0:
            raise ValueError(f"load sigma0 must be nonnegative, got {self.sigma0!r}")
        derive_dimensionless(self)


@dataclass(frozen=True)
class DimensionlessParams:
    """The two dimensionless groups that the crack kernel reads.

    ``c_sq`` is the modulus ratio c^2 = mu / (lam + 2 mu), in (0, 1), and
    ``porosity`` the coupling number N = beta^2 / (xi (lam + 2 mu)), in
    [0, 1).  Lengths enter the solve only through the internal length
    ``sqrt(alpha / xi)``, which scales the grid.
    """

    c_sq: float
    porosity: float

    def __post_init__(self):
        for name in ("c_sq", "porosity"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.c_sq < 1.0:
            raise ValueError(f"modulus ratio c_sq must lie in (0, 1), got {self.c_sq!r}")
        if not 0.0 <= self.porosity < 1.0:
            raise ValueError(
                f"coupling number beta^2/(xi (lam + 2 mu)) must lie in [0, 1), "
                f"got {self.porosity!r}")


def derive_dimensionless(params: MaterialParams) -> DimensionlessParams:
    """The groups ``c^2 = mu / (lam + 2 mu)`` and ``N = beta^2 / (xi (lam +
    2 mu))`` of a material, each from its closed form."""
    stiffness = params.lam + 2.0 * params.mu
    return DimensionlessParams(c_sq=params.mu / stiffness,
                               porosity=params.beta**2 / (params.xi * stiffness))


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
    collocation midpoints; ``tip_coefficient`` is the amplitude C in
    ``opening ~ C sqrt(b^2 - x^2)`` at the tips.  The opening is solved
    for as ``phi sqrt(b^2 - x^2)`` with phi constant on each cell, so C
    is phi on the end cells, which are equal bitwise.
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


def solve_crack(params: MaterialParams, half_length: float, n: int,
                spec: Optional[OscIntSpec] = None) -> CrackSolution:
    """Opening profile of a crack on (-b, b) under remote tension.

    Parameters
    ----------
    params : MaterialParams
    half_length : float
        Crack half-length b > 0.
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
    The kernel depends on lengths only in units of the internal length
    ``l = sqrt(alpha / xi)``, so the cell constants phi are solved for at
    half-length b / l, and the opening is ``phi sqrt(b^2 - x^2)`` on the
    grid of (-b, b).  Dividing the physical equation by the (negative)
    hypersingular coefficient yields the standard collocation form with
    the constant right-hand side ``pi sigma0 / (2 mu (1 - c^2))``; the porosity
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
    rest are their mirror image.  ``fullkernel._FoldedGrid.solve`` forms
    B from the table and the closed-form folded finite-part block S of
    the grid, factors it in place and gates it; its class docstring gives
    the size rule by which S is kept or applied from its structure, and
    where B lives.  The gates cover the whole system, and the opening is
    exactly reflection-symmetric.
    """
    return next(_solutions([params], _crack_grids(params, half_length, n), spec))


def _crack_grids(params: MaterialParams, half_length: float, n: int):
    """The grid of the crack (-b, b), and the same grid in units of the
    internal length ``sqrt(alpha / xi)``, on which it is solved."""
    half_length = float(half_length)
    if not (np.isfinite(half_length) and half_length > 0.0):
        raise ValueError(f"crack half-length must be positive, got {half_length!r}")
    if int(n) != n or n < 10:
        raise ValueError(f"crack solves need an integer n >= 10, got {n!r}")
    length = math.sqrt(params.alpha / params.xi)
    return (build_grid(-half_length, half_length, int(n)),
            build_grid(-half_length / length, half_length / length, int(n)))


def _solutions(materials: Sequence[MaterialParams], grids, spec: Optional[OscIntSpec]):
    """The ``CrackSolution`` of ``solve_crack`` for each material in turn,
    on the ``grids`` of ``_crack_grids``.  The kernel tables of all
    materials come from one ``_kernel_tables`` call, whose transients are
    gone before the scaled grid's ``_FoldedGrid`` exists, which every
    material shares."""
    spec = spec if spec is not None else OscIntSpec()
    grid, scaled = grids
    dps = [derive_dimensionless(params) for params in materials]
    tables = _kernel_tables(scaled.h, scaled.n, dps, spec)
    folded = _FoldedGrid(scaled)
    for params, dp, kernel_table in zip(materials, dps, tables):
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
        phi = -folded.solve(_node_mean(table), rhs_reduced)
        opening_values = grid.interval.halfwidth * folded.tables.mid_weight * phi
        if params.sigma0 > 0.0 and np.any(opening_values < 0.0):
            raise ValueError(
                f"crack opening has negative samples (min {opening_values.min():.3g}, "
                f"max {opening_values.max():.3g}) at porosity {n_p:.6g}; the symbol "
                f"turns negative near s = 0 once N >= 1 - c^2 = {1.0 - dp.c_sq:.6g}")
        opening = SampledFunction(grid=grid, values=opening_values)
        yield CrackSolution(grid=grid, opening=opening, params=params,
                            dimensionless=dp, half_length=grid.interval.b,
                            tip_coefficient=float(phi[-1]))


def stress_concentration(solution: CrackSolution) -> float:
    """Tip amplitude normalized by the classical elastic value.

    Returns the tip coefficient divided by
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

    Every target is checked, and an empty list refused, before any work
    starts.  The kernel tables of all targets come from one
    ``_kernel_tables`` call, which builds the grid's chirp-z plan, the
    proxy transform and its cosine-integral tail once.  The grid's part
    of the folded system, ``_FoldedGrid``, is built once too, after the
    tables, and every target shares it, with the finite-part block it
    may keep.  ``solve_crack`` is the same sweep of one
    material, so each row equals ``solve_crack`` with
    ``stress_concentration`` at that target bitwise.
    """
    targets = [float(n_target) for n_target in porosities]
    if not targets:
        raise ValueError("porosity sweep needs at least one target")
    for n_target in targets:
        if not 0.0 <= n_target < 1.0:
            raise ValueError(f"porosity targets must lie in [0, 1), got {n_target!r}")
    grids = _crack_grids(base, half_length, n)
    materials = [replace(base, beta=math.sqrt(n_target * base.xi * (base.lam + 2.0 * base.mu)))
                 for n_target in targets]
    return [(n_target, float(np.interp(0.0, sol.opening.points, sol.opening.values)),
             stress_concentration(sol))
            for n_target, sol in zip(targets, _solutions(materials, grids, spec))]
