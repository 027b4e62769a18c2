"""Quadrature rules used by the integral-equation solvers.

Two families:

* Gauss-Chebyshev rules for integrals against the endpoint weight
  ``1 / sqrt((t - a)(b - t))``, including Cauchy principal values
  evaluated by singularity subtraction, as one matrix over many
  evaluation points.  The subtraction rests on the
  identity that the principal value of ``1 / (w(t) (x - t))`` over the
  interval vanishes for every interior x, so subtracting ``f(x)`` from
  the numerator removes the pole without changing the integral.
* Panel-wise Gauss-Legendre quadrature for half-line cosine transforms
  ``int_0^inf F(s) cos(s x) ds`` of algebraically decaying integrands,
  with panels sized to the oscillation period.

The closed-form finite-part transform of the weighted Chebyshev
polynomials is exposed as an oracle for testing solvers built on top.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .grids import Interval

__all__ = [
    "PVQuadSpec",
    "TailOrder",
    "OscIntSpec",
    "chebyshev_nodes",
    "weighted_integral",
    "pv_weighted_integral",
    "pv_weighted_matrix",
    "chebyshev_finite_part",
    "halfline_cosine_integral",
]

# 4-point Gauss-Legendre rule inside each oscillation panel, bit for bit as
# scipy.special.roots_legendre(4).  scipy.special loads only where it is used,
# so routes 1-3 run without its resident memory (3.7 MiB with scipy 1.17).
_PANEL_RULE = (
    np.array([-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]),
    np.array([0.3478548451374538, 0.6521451548625462, 0.6521451548625462, 0.3478548451374538]),
)
_MAX_PANELS = 5_000_000
# an x this close to a quadrature node (relative to the interval width)
# switches the difference quotient to a centered derivative
_NODE_COLLISION = 1e-12


@dataclass(frozen=True)
class PVQuadSpec:
    """Node count for the weighted Chebyshev rules (m >= 4)."""

    m: int = 200

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 4:
            raise ValueError(f"quadrature needs an integer m >= 4, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))


class TailOrder(enum.Enum):
    """Declared decay of a half-line integrand beyond the truncation point."""

    NONE = "none"
    INVERSE_CUBE = "inverse_cube"


@dataclass(frozen=True)
class OscIntSpec:
    """Truncation and resolution for half-line cosine transforms.

    ``s_max`` is the truncation point, ``panels_per_period`` the number
    of Gauss panels per oscillation period ``2 pi / max(|x|, 1)``.  With
    ``tail=TailOrder.INVERSE_CUBE`` the integrand is declared to obey
    ``|F(s)| <= C / s^3`` past ``s_max``, which bounds the discarded
    tail by ``C / (2 s_max^2)``; the declaration is spot-checked by
    sampling ``F`` beyond the truncation point.
    """

    s_max: float = 200.0
    panels_per_period: int = 8
    tail: TailOrder = TailOrder.INVERSE_CUBE

    def __post_init__(self):
        if not (np.isfinite(self.s_max) and self.s_max > 0):
            raise ValueError(f"s_max must be positive and finite, got {self.s_max!r}")
        if int(self.panels_per_period) != self.panels_per_period or self.panels_per_period < 4:
            raise ValueError(
                f"panels_per_period must be an integer >= 4, got {self.panels_per_period!r}")
        object.__setattr__(self, "s_max", float(self.s_max))
        object.__setattr__(self, "panels_per_period", int(self.panels_per_period))


def _sample(f, *points) -> np.ndarray:
    """Evaluate f on broadcast arrays of points, accepting scalar-only callables.

    A callable that fails on arrays, or returns the wrong shape, is
    called once per broadcast point instead.
    """
    shape = np.broadcast_shapes(*(np.shape(p) for p in points))
    vals = None
    with np.errstate(all="ignore"):
        try:
            trial = np.asarray(f(*points), dtype=float)
            if trial.shape == shape:
                vals = trial
        except Exception:
            vals = None
    if vals is None:
        vals = np.array([float(f(*args)) for args in np.broadcast(*points)]).reshape(shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("sampled callable returned a non-finite value")
    return vals


def chebyshev_nodes(interval: Interval, m: int) -> np.ndarray:
    """First-kind Chebyshev points mapped to the interval, ascending.

    These are the natural nodes for the weight
    ``1 / sqrt((t - a)(b - t))``: the m-point rule with the uniform
    weight ``pi / m`` integrates ``f / w`` exactly for polynomial f of
    degree up to 2m - 1.
    """
    if int(m) != m or m < 1:
        raise ValueError(f"node count must be a positive integer, got {m!r}")
    k = np.arange(1, int(m) + 1, dtype=float)
    theta = (2.0 * k - 1.0) * np.pi / (2.0 * int(m))
    return interval.midpoint + interval.halfwidth * np.cos(theta[::-1])


def weighted_integral(f, interval: Interval, spec: PVQuadSpec) -> float:
    """Integral of ``f(t) / sqrt((t - a)(b - t))`` over the interval."""
    nodes = chebyshev_nodes(interval, spec.m)
    vals = _sample(f, nodes)
    return float(np.pi / spec.m * vals.sum())


def pv_weighted_matrix(sample, interval: Interval, xs, spec: PVQuadSpec) -> np.ndarray:
    """Principal values of ``f(tau) / (w(tau) (x_i - tau))`` at many points at once.

    The m-point Gauss-Chebyshev rule with singularity subtraction is one
    linear operator.  With the nodes tau_k and
    ``D_ik = (pi / m) / (x_i - tau_k)``,

        PV[f](x_i) = (D @ f(tau))_i - rowsum(D)_i * f(x_i).

    The nearest node of each row is taken out of D and its term added
    back as the difference quotient ``(f(tau_k) - f(x_i)) / (x_i - tau_k)``,
    so an x_i close to a node costs no more rounding than the scalar
    rule.  When that node collides with x_i (within 1e-12 of the
    interval width) the row subtracts ``(pi / m) f'(x_i)`` from a
    centered difference instead.

    ``sample`` maps a 1-D array of points to the finite values of f
    there, one row per point; any further axes (a column per Nystrom
    node, say) carry through, so the result has shape ``(len(xs), ...)``.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all((xs > interval.a) & (xs < interval.b)):
        raise ValueError(f"singularities must lie strictly inside ({interval.a}, {interval.b})")
    tau = chebyshev_nodes(interval, spec.m)
    weight = np.pi / spec.m
    dx = xs[:, None] - tau[None, :]
    rows = np.arange(xs.size)
    nearest = np.argmin(np.abs(dx), axis=1)
    gap = dx[rows, nearest]
    dx[rows, nearest] = np.inf
    D = weight / dx
    ftau, fx = sample(tau), sample(xs)
    row = (slice(None),) + (None,) * (fx.ndim - 1)
    out = D @ ftau - D.sum(axis=1)[row] * fx
    collide = np.abs(gap) < _NODE_COLLISION * interval.width
    apart = ~collide
    out[apart] += weight * (ftau[nearest[apart]] - fx[apart]) / gap[apart][row]
    if collide.any():
        xc = xs[collide]
        delta = np.minimum(1e-6 * interval.width,
                           0.5 * np.minimum(xc - interval.a, interval.b - xc))
        out[collide] -= weight * (sample(xc + delta) - sample(xc - delta)) / (2.0 * delta)[row]
    return out


def pv_weighted_integral(f, interval: Interval, x, spec: PVQuadSpec) -> float:
    """Principal value of ``f(t) / (w(t) (x - t))`` at one interior x.

    One row of ``pv_weighted_matrix``; exact for polynomial f of degree
    m - 2 and below.  Raises ``ValueError`` unless x lies strictly
    inside the interval and f is finite on the closed interval.
    """
    return float(pv_weighted_matrix(lambda p: _sample(f, p), interval, [float(x)], spec)[0])


def chebyshev_finite_part(degree: int, x) -> float:
    """Closed-form finite part of ``sqrt(1 - t^2) U_degree(t) / (x - t)^2``.

    The Hadamard finite-part transform of the weighted second-kind
    Chebyshev polynomial on (-1, 1) evaluates to
    ``-pi (degree + 1) U_degree(x)``; this is the reference against
    which the collocation solvers are validated.
    """
    if int(degree) != degree or degree < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {degree!r}")
    x = float(x)
    if not -1.0 < x < 1.0:
        raise ValueError(f"evaluation point must satisfy |x| < 1, got {x!r}")
    from scipy.special import eval_chebyu
    return float(-np.pi * (degree + 1) * eval_chebyu(int(degree), x))


def _check_cubic_decay(F, s_max: float) -> None:
    probe = 2.0 * s_max
    f1 = abs(float(F(s_max)))
    f2 = abs(float(F(probe)))
    if not (np.isfinite(f1) and np.isfinite(f2)):
        raise ValueError("integrand is not finite beyond the truncation point")
    # a genuine O(1/s^3) tail keeps s^3 |F(s)| roughly level; allow a
    # factor-4 rise before declaring the decay hypothesis violated
    if f2 * probe**3 > 4.0 * f1 * s_max**3 + 1e-9:
        raise ValueError(
            "integrand does not satisfy the declared 1/s^3 decay beyond "
            f"s_max={s_max} (s^3 |F| grew from {f1 * s_max**3:.3e} to {f2 * probe**3:.3e})")


def halfline_cosine_integral(F, x, spec: OscIntSpec) -> float:
    """Truncated half-line cosine transform ``int_0^s_max F(s) cos(s x) ds``.

    The range [0, s_max] is split into panels no longer than one
    ``panels_per_period``-th of the oscillation period
    ``2 pi / max(|x|, 1)`` and each panel is integrated by fixed-order
    Gauss-Legendre quadrature.  With ``tail=INVERSE_CUBE`` the discarded
    tail is bounded by ``C / (2 s_max^2)`` where C bounds ``s^3 |F(s)|``
    past the truncation point, and that decay is spot-checked.
    """
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("oscillation frequency x must be finite")
    max_len = (2.0 * np.pi / max(abs(x), 1.0)) / spec.panels_per_period
    num_panels = int(np.ceil(spec.s_max / max_len))
    if num_panels > _MAX_PANELS:
        raise ValueError(
            f"panel count {num_panels} exceeds the supported maximum; "
            "reduce s_max, panels_per_period, or |x|")
    edges = np.linspace(0.0, spec.s_max, num_panels + 1)
    gl_nodes, gl_weights = _PANEL_RULE
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * gl_nodes[None, :]).ravel()
    wts = (half[:, None] * gl_weights[None, :]).ravel()
    vals = _sample(F, pts)
    if spec.tail is TailOrder.INVERSE_CUBE:
        _check_cubic_decay(F, spec.s_max)
    return float(np.dot(wts, vals * np.cos(pts * x)))
