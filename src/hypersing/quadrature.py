"""Quadrature rules used by the integral-equation solvers.

Two families:

* Gauss-Chebyshev rules for integrals against the endpoint weight
  ``1 / sqrt((t - a)(b - t))``, including Cauchy principal values
  evaluated by singularity subtraction, as one matrix over many
  evaluation points.  The subtraction rests on the
  identity that the principal value of ``1 / (w(t) (x - t))`` over the
  interval vanishes for every interior x, so subtracting ``f(x)`` from
  the numerator removes the pole without changing the integral.
* One uniform-grid cosine rule for the crack kernel's half-line cosine
  transforms ``int_0^s_max F(s) cos(s x) ds``: the trapezoid rule with
  eight-point Gregory end corrections, on a step of at least 32 samples
  per oscillation period, evaluated at every half-odd grid offset at
  once by one chirp-z FFT whose plan is shared by every integrand on the
  same grid.  It is a private helper of :mod:`hypersing.crack`, which
  declares and checks the O(1/s^3) decay that bounds the discarded tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Interval

__all__ = [
    "PVQuadSpec",
    "OscIntSpec",
    "chebyshev_nodes",
    "pv_weighted_integral",
    "pv_weighted_matrix",
]

# Gregory end weights of the trapezoid rule, eight points at each end,
# relative to the step: exact for s^m, m < 8, on any grid of 8 or more
# steps.  The numerators are over 10! = 3628800.
_GREGORY_ENDS = np.array([1070017, 5537111, 932517, 6527875,
                          1494755, 4641093, 3349879, 3662753]) / 3628800.0
_MIN_STEPS = 16             # keeps the two corrected ends apart
# the step resolves at least cos(8 s): at small |x| the integrand's own
# scale sets the error (the crack symbol has branch points at s = +-i sqrt(1 - N))
_FREQUENCY_FLOOR = 8.0
_SAMPLES_PER_PERIOD = 32
_MAX_SAMPLES = 20_000_000
_CHUNK = 8192               # s-grid samples held in memory at once
_EULER_GAMMA = 0.5772156649015329
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


@dataclass(frozen=True)
class OscIntSpec:
    """Truncation point ``s_max`` of the crack kernel's cosine transforms.

    The cosine rule samples on a uniform grid over [0, s_max] with at
    least 32 steps per oscillation period ``2 pi / max(|x|, 8)``.  The
    integrands it is used on obey ``|F(s)| <= C / s^3`` past ``s_max``,
    which bounds the discarded tail by ``C / (2 s_max^2)``.
    """

    s_max: float = 200.0

    def __post_init__(self):
        if not (np.isfinite(self.s_max) and self.s_max > 0):
            raise ValueError(f"s_max must be positive and finite, got {self.s_max!r}")
        object.__setattr__(self, "s_max", float(self.s_max))


def _sample(f, *points) -> np.ndarray:
    """Evaluate f on broadcast arrays of points, accepting scalar-only callables.

    A callable that raises ``TypeError`` or ``ValueError`` on arrays, as
    ``math`` functions, ``float()`` and truth tests do, or that returns
    the wrong shape, is called once per broadcast point instead.  Any
    other exception propagates from the array call.
    """
    shape = np.broadcast_shapes(*(np.shape(p) for p in points))
    vals = None
    with np.errstate(all="ignore"):
        try:
            trial = np.asarray(f(*points), dtype=float)
            if trial.shape == shape:
                vals = trial
        except (TypeError, ValueError):
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


def _chebyshev_u(degree: int, x) -> np.ndarray:
    """The second-kind Chebyshev polynomial U_degree at x, elementwise, by
    the recurrence ``U_{k+1} = 2 x U_k - U_{k-1}`` from ``U_0 = 1`` and
    ``U_{-1} = 0``.  On (-1, 1), where ``|U_degree| <= degree + 1``, it is
    within ``4e-15 (degree + 1)`` of 40-digit arithmetic up to degree 40."""
    x = np.asarray(x, dtype=float)
    previous, current = np.zeros_like(x), np.ones_like(x)
    for _ in range(degree):
        previous, current = current, 2.0 * x * current - previous
    return current


def _check_cubic_decay(F, s_max: float) -> None:
    # both probes in one call; _sample falls back to scalar calls for a
    # callable that only takes floats, and refuses non-finite values
    probe = 2.0 * s_max
    f1, f2 = np.abs(_sample(F, np.array([s_max, probe])))
    # a genuine O(1/s^3) tail keeps s^3 |F(s)| roughly level; allow a
    # factor-4 rise before declaring the decay hypothesis violated
    if f2 * probe**3 > 4.0 * f1 * s_max**3 + 1e-9:
        raise ValueError(
            "integrand does not satisfy the declared 1/s^3 decay beyond "
            f"s_max={s_max} (s^3 |F| grew from {f1 * s_max**3:.3e} to {f2 * probe**3:.3e})")


def _gregory_weights(k: np.ndarray, last: int) -> np.ndarray:
    """Trapezoid-with-Gregory weights, in steps, of nodes k on the grid 0..last."""
    w = np.ones(k.size)
    head, tail = k < 8, last - k < 8
    w[head] = _GREGORY_ENDS[k[head]]
    w[tail] = _GREGORY_ENDS[last - k[tail]]
    return w


def _grid_chunks(last: int):
    """Index blocks of the grid 0..last, none longer than _CHUNK."""
    for k0 in range(0, last + 1, _CHUNK):
        yield np.arange(k0, min(k0 + _CHUNK, last + 1))


def _unit_phase(m: np.ndarray, quarter: int) -> np.ndarray:
    """exp(i pi m / (2 quarter)) for integer m, reduced exactly mod 4 quarter."""
    return np.exp(1j * (np.pi * (m % (4 * quarter)) / (2 * quarter)))


def _fft_length(minimum: int) -> int:
    """Smallest 2^a 3^b 5^c that is at least minimum."""
    best = 1 << (minimum - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < minimum:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _folded_samples(F, ds: float, last: int, period: int) -> np.ndarray:
    """Gregory-weighted samples of F on the grid 0..last, folded with
    alternating sign onto the residues mod period (the phase flips sign
    every period samples)."""
    folded = np.zeros(min(last + 1, period))
    for k in _grid_chunks(last):
        vals = _gregory_weights(k, last) * _sample(F, k * ds)
        pos = int(k[0])
        while vals.size:  # split where the phase flips sign, at multiples of 2M
            r0 = pos % period
            piece, vals = vals[:period - r0], vals[period - r0:]
            folded[r0:r0 + piece.size] += -piece if (pos // period) % 2 else piece
            pos += piece.size
    return folded


def _offset_grid(h, n) -> tuple:
    """Step h and count n as float and int, if positive, finite and whole."""
    h = float(h)
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"grid step h must be positive and finite, got {h!r}")
    if int(n) != n or n < 1:
        raise ValueError(f"offset count must be a positive integer, got {n!r}")
    return h, int(n)


def _halfline_cosine_tables(Fs, h: float, n: int, spec: OscIntSpec) -> np.ndarray:
    """``int_0^s_max F(s) cos(s u_j) ds`` at the half-odd offsets u_j = (j + 1/2) h,
    j < n, one row per integrand F of Fs.

    The trapezoid rule with eight-point Gregory end corrections on the
    step ``ds = pi / (M h)``, with the integer M the smallest that gives
    at least 32 samples per period ``2 pi / max(u_{n-1}, 8)`` and at
    least 16 steps over [0, s_max].  Then ``s_k u_j = pi k (2j + 1) / (2M)``:
    the phases repeat every 4M samples and change sign every 2M, so the
    weighted samples are folded, with alternating sign, onto at most 2M
    residues.  One Bluestein chirp-z transform
    (``r(2j+1) = r^2 + r + j^2 - (j - r)^2``, all phases as exact integers
    mod 4M) then gives every offset at once.  The sliver between the last
    grid node and s_max gets the same rule on 16 steps, summed directly.

    Everything that depends only on h, n and s_max is built once: the
    step, the sample count, the chirp-z phases and the transform of the
    chirp, and the sliver's nodes, weights and cosine matrix.  The
    integrands are then sampled, folded and transformed one at a time, so
    memory does not grow with their number beyond the K-by-n result, and
    each row is the same bitwise whatever the other integrands.  More than
    2e7 samples, or a phase period 4M past int64, raise ``ValueError``
    before any is taken; the discarded tail past s_max is the caller's.
    """
    h, n = _offset_grid(h, n)
    # M of the docstring: a quarter of the phase period, in samples
    max_step = 2.0 * np.pi / (_SAMPLES_PER_PERIOD * max((n - 0.5) * h, _FREQUENCY_FLOOR))
    h64 = np.float64(h)
    with np.errstate(divide="ignore", over="ignore"):  # inf, refused below
        quarter = float(max(np.ceil(np.pi / (h64 * max_step)),
                            np.ceil(_MIN_STEPS * np.pi / (h64 * spec.s_max))))
        ds = np.pi / (quarter * h64)
        last = np.floor(spec.s_max / ds)
    # the phases are reduced mod 4M as int64
    if not 4 * quarter <= np.iinfo(np.int64).max:
        raise ValueError(f"phase period of {4 * quarter:.3g} samples exceeds int64 "
                         f"at grid step {h:.3g} and s_max {spec.s_max:.3g}")
    if not last <= _MAX_SAMPLES:
        raise ValueError(f"sample count {last:.3g} exceeds the supported maximum; "
                         "reduce s_max or the offsets")
    quarter, last = int(quarter), int(last)
    period = 2 * quarter
    u = (np.arange(n) + 0.5) * h

    # chirp-z: sum_r folded_r exp(i pi r (2j+1) / (2M)) as a convolution
    size = min(last + 1, period)
    length = _fft_length(size + n - 1)
    m = np.arange(max(size, n))
    down = _unit_phase(-m * m, quarter)
    chirp = np.zeros(length, dtype=complex)
    chirp[:n] = down[:n]
    chirp[length - size + 1:] = down[size - 1:0:-1]
    chirp_spectrum = np.fft.fft(chirp)
    r = m[:size]
    up = _unit_phase(r * r + r, quarter)
    unchirp = down[:n].conj()
    # freed before the samples are taken: the pointwise kernel's peak memory
    del m, down, chirp, r

    s_end = last * ds
    sliver = s_end < spec.s_max
    if sliver:
        sub = np.arange(_MIN_STEPS + 1)
        step = (spec.s_max - s_end) / _MIN_STEPS
        s = s_end + sub * step
        sliver_weights = step * _gregory_weights(sub, _MIN_STEPS)
        sliver_cosines = np.cos(u[:, None] * s[None, :])

    out = np.empty((len(Fs), n))
    for row, F in zip(out, Fs):
        spectrum = np.fft.fft(_folded_samples(F, ds, last, period) * up, length)
        conv = np.fft.ifft(spectrum * chirp_spectrum)[:n]
        row[:] = ds * (unchirp * conv).real
        if sliver:
            row += sliver_cosines @ (sliver_weights * _sample(F, s))
    return out


def cosine_integral(x) -> np.ndarray:
    """Cosine integral ``Ci(x) = -int_x^inf cos(t) / t dt`` for x > 0.

    The power series ``gamma + ln x + sum_k (-x^2)^k / (2k (2k)!)`` for
    x <= 2.  Beyond, ``Ci = f sin x - g cos x`` with the auxiliary
    functions from ``exp(ix) E1(ix) = g - i f``, whose continued fraction
    ``1 / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - ...)))`` at z = ix is summed
    backward from a fixed depth of 100.  Within 1e-15 of the exact value,
    relative to ``max(|Ci(x)|, min(1, 1/x))``.
    """
    x = np.asarray(x, dtype=float)
    if np.any(~(x > 0.0)) or not np.all(np.isfinite(x)):
        raise ValueError("cosine integral needs finite positive arguments")
    out = np.empty(x.shape)
    small = x <= 2.0
    xs = x[small]
    term, series = np.ones(xs.shape), np.zeros(xs.shape)
    for k in range(1, 16):
        term = term * (-xs * xs) / ((2 * k - 1) * (2 * k))
        series += term / (2 * k)
    out[small] = _EULER_GAMMA + np.log(xs) + series
    xl = x[~small]
    z = 1j * xl
    frac = np.zeros(xl.shape, dtype=complex)
    for k in range(100, 0, -1):
        frac = k * k / (z + (2 * k + 1) - frac)
    aux = 1.0 / (z + 1.0 - frac)
    out[~small] = -aux.imag * np.sin(xl) - aux.real * np.cos(xl)
    return out
