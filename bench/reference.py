"""Reference values and output checks that share no code with hypersing.

Everything here is written from the formulas alone: the crack symbol,
the exact elastic ellipse, the semicircle solution of the constant-data
characteristic equation, and a parser for the CLI's CSV tables.  The
regular crack kernel is checked against scipy's QAWF Fourier quadrature
rather than against any stored output of the package.

Each check returns ``None`` when it passes and a one-line description
of the failure otherwise.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

# Tolerance on the regular crack kernel.  The package's panel rule
# differs from the QAWF reference by at most 1.8e-7 over the porosities
# and offsets the workloads draw (largest at N = 0.6 and offsets below 1).
KERNEL_ABS_TOL = 1e-6
# Interior ellipse error of the classical (N = 0) crack, as a multiple of
# amplitude * h; midpoint collocation measures 0.57 at every size used.
ELLIPSE_H_FACTOR = 1.0
# Reflection asymmetry of the opening, as a multiple of h * max(opening)
# with h in units of the internal length sqrt(alpha/xi) = 1; the workloads
# measure at most 0.07.
SYMMETRY_H_FACTOR = 0.25
ROUTE1_TOL = 1e-8
CRITERION4_GAP = 1e-2


def material_groups(lam, mu, beta, xi):
    """(c^2, N) of a porous material, from their defining formulas."""
    stiffness = lam + 2.0 * mu
    return mu / stiffness, beta * beta / (xi * stiffness)


def symbol(s, porosity, c_sq):
    """Crack symbol L(s) at a scalar s >= 0, written out term by term."""
    q = math.sqrt(s * s + 1.0 - porosity)
    q_minus_s = (1.0 - porosity) / (q + s)
    return s / q * (2.0 * porosity * c_sq * s * s * q_minus_s
                    + (1.0 - porosity) * (1.0 - porosity - c_sq) * q)


def regular_kernel_reference(x, porosity, c_sq):
    """(1/pi) int_0^inf (L(s) - slope s) cos(s x) ds by QAWF quadrature."""
    # imported here so that the set-up probes, which import this module,
    # time only the package's own imports
    from scipy.integrate import IntegrationWarning, quad
    slope = (1.0 - porosity) ** 2 * (1.0 - c_sq)
    with warnings.catch_warnings():
        # QAWF flags slow cycles at some offsets; the value still agrees
        # with the package to 2e-7, and the check compares at 1e-6
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(lambda s: symbol(s, porosity, c_sq) - slope * s,
                        0.0, math.inf, weight="cos", wvar=abs(x), limlst=100)
    return value / math.pi


def check_regular_kernel(values, offsets, porosity, c_sq):
    worst = 0.0
    for value, x in zip(values, offsets):
        worst = max(worst, abs(value - regular_kernel_reference(x, porosity, c_sq)))
    if not worst <= KERNEL_ABS_TOL:
        return f"regular kernel off its QAWF reference by {worst:.3e} (tol {KERNEL_ABS_TOL:g})"
    return None


def midpoints(half_length, n):
    h = 2.0 * half_length / n
    return -half_length + (np.arange(n) + 0.5) * h


def check_profile_grid(x, half_length, n):
    if x.shape != (n,):
        return f"expected {n} opening samples, got {x.shape[0]}"
    if not np.allclose(x, midpoints(half_length, n), rtol=0.0, atol=1e-12 * half_length):
        return "opening samples are not the cell midpoints in ascending order"
    return None


def check_opening(opening, half_length, n):
    """Positive opening whose reflection error stays within an O(h) envelope."""
    h = 2.0 * half_length / n
    if not np.all(opening > 0.0):
        return f"opening is not positive (min {opening.min():.4g})"
    asym = float(np.max(np.abs(opening - opening[::-1])))
    envelope = SYMMETRY_H_FACTOR * h * float(opening.max())
    if not asym <= envelope:
        return f"reflection error {asym:.3e} exceeds the O(h) envelope {envelope:.3e}"
    return None


def classical_amplitude(lam, mu, sigma0):
    c_sq = mu / (lam + 2.0 * mu)
    return sigma0 / (2.0 * mu * (1.0 - c_sq))


def check_ellipse(x, opening, half_length, n, lam, mu, sigma0):
    """N = 0 crack against sigma0 sqrt(b^2 - x^2) / (2 mu (1 - c^2))."""
    amplitude = classical_amplitude(lam, mu, sigma0)
    h = 2.0 * half_length / n
    inside = np.abs(x) <= 0.9 * half_length
    exact = amplitude * np.sqrt(half_length**2 - x[inside] ** 2)
    err = float(np.max(np.abs(opening[inside] - exact)))
    bound = ELLIPSE_H_FACTOR * amplitude * h
    if not err <= bound:
        return f"classical crack off the exact ellipse by {err:.3e} (first-order bound {bound:.3e})"
    return None


def check_sweep(rows, targets, lam, mu, sigma0, half_length):
    """Rows in target order; center and tip rise strictly with N; N = 0 is classical."""
    if rows.shape != (len(targets), 3):
        return f"expected {len(targets)} sweep rows of 3 columns, got shape {rows.shape}"
    if not np.array_equal(rows[:, 0], np.asarray(targets, dtype=float)):
        return "sweep rows are not the porosity targets in the order given"
    ordered = rows[np.argsort(rows[:, 0])]
    if not (np.all(np.diff(ordered[:, 1]) > 0.0) and np.all(np.diff(ordered[:, 2]) > 0.0)):
        return "center opening or tip ratio does not increase strictly with N"
    zero = ordered[0]
    if zero[0] != 0.0:
        return "sweep has no N = 0 row"
    center = classical_amplitude(lam, mu, sigma0) * half_length
    if not abs(zero[1] - center) <= 0.01 * center:
        return f"N = 0 center opening {zero[1]:.6g}, expected {center:.6g} +/- 1%"
    if not abs(zero[2] - 1.0) <= 0.02:
        return f"N = 0 tip ratio {zero[2]:.6g}, expected 1 +/- 0.02"
    return None


def check_route1(values, xs, amplitude):
    exact = amplitude * np.sqrt(1.0 - np.asarray(xs) ** 2)
    err = float(np.max(np.abs(np.asarray(values) - exact)))
    if not err <= ROUTE1_TOL * amplitude:
        return f"route 1 off the semicircle by {err:.3e} (tol {ROUTE1_TOL:g} x amplitude)"
    return None


def check_two_path_convergence(gap_coarse, gap_fine):
    """A method of first order or higher shrinks the gap when cells double."""
    if not (gap_fine <= max(0.6 * gap_coarse, 1e-10) and gap_fine <= CRITERION4_GAP):
        return (f"two-path gap {gap_fine:.3e} at 400 cells against {gap_coarse:.3e} "
                "at 200 does not converge at first order")
    return None


def check_criterion4(gap_coarse):
    if not gap_coarse <= CRITERION4_GAP:
        return f"criterion 4: two-path gap {gap_coarse:.3e} at 200 cells exceeds {CRITERION4_GAP:g}"
    return None


def read_csv(path, columns):
    """Parse a CLI table written as a header line plus numeric rows."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines or lines[0].split(",") != list(columns):
        raise ValueError(f"{path}: header is not {','.join(columns)}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]],
                    dtype=float).reshape(-1, len(columns))
