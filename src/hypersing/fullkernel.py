"""Finite-part equation with a smooth perturbing kernel.

The full equation adds a regular kernel K0 to the characteristic one:

    fp-int g(t) / (x - t)^2 dt  +  int K0(x, t) g(t) dt  =  fprime(x).

Two solution paths are provided.  Direct collocation writes the
solution in the edge-weighted basis ``g = w * phi`` with
``w(t) = sqrt((t - a)(b - t))`` and ``phi`` constant on each cell,
collocated at the cell midpoints.  The finite-part cell integrals of
``w / (x - t)^2`` are exact (product integration against the known
square-root edge behaviour): differences of one antiderivative.  Its
grid factors, the integrals ``W_j`` of w over the cells and the values of
w at the midpoints all come from one set of integer tables, which the
full matrix's rows and the crack's folded columns both read.  The regular
part is the right-node kernel sample times ``W_j``.  A caller whose kernel is
symmetric Toeplitz, given as its n-entry table, and whose load is
reflection-symmetric (the crack solve) forms and solves only the folded
even half of the system, a quarter of the matrix, in closed form for its
finite-part part; it is factored in place, and the residual gate takes
the kernel part by convolution with the table and re-forms the rest
chunk by chunk, so no copy of it is kept.  Alternatively, when K0 has an
antiderivative K1 in its first argument (K0 = dK1/dx) and fprime has
antiderivative f, applying the inversion operator of the characteristic
equation converts the problem into a second-kind Fredholm equation

    g(x) + int N1(x, t) g(t) dt = f1(x),

with N1 and f1 the inversion operator, the one route 1 evaluates, applied
to K1 and f: ``sqrt((x - a)(b - x)) / pi^2`` times a row of one
Gauss-Chebyshev principal-value matrix (``pv_weighted_matrix``), so the
reduction and the off-node evaluation are each two matrix applications.  The Fredholm equation is
then solved by a Nystrom method on Chebyshev points.  Solving the same
problem down both paths is the strongest available end-to-end check.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import Grid, Interval, SampledFunction
from .linalg import SingularMatrixError, _solve_in_place, lu_solve
from .quadrature import PVQuadSpec, chebyshev_nodes, _sample
from .characteristic import _check_antiderivative, _invert

__all__ = [
    "FullProblem",
    "FredholmSystem",
    "assemble_full",
    "solve_full_collocation",
    "chebyshev_nystrom_rule",
    "fredholm_reduce",
    "solve_fredholm",
    "nystrom_eval",
]


@dataclass(frozen=True)
class FullProblem:
    """Kernel and right-hand side of the perturbed equation.

    ``K0`` must be continuous on the closed square.  ``K1`` (an
    antiderivative of K0 in the first argument) and ``f`` (an
    antiderivative of fprime) are optional and only required by the
    Fredholm route; when ``K1`` is given it is probed against ``K0``
    by centered finite differences.
    """

    interval: Interval
    K0: Callable[[float, float], float]
    fprime: Callable[[float], float]
    K1: Optional[Callable[[float, float], float]] = None
    f: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.K1 is not None:
            iv = self.interval
            probes = [
                (iv.midpoint - 0.45 * iv.halfwidth, iv.midpoint + 0.3 * iv.halfwidth),
                (iv.midpoint, iv.midpoint - 0.6 * iv.halfwidth),
                (iv.midpoint + 0.37 * iv.halfwidth, iv.midpoint),
            ]
            _check_antiderivative(self.K1, self.K0, probes, 1e-4 * max(1.0, iv.halfwidth),
                                  "FullProblem: K1 against K0")


# entries of one chunk of finite-part rows or folded columns, which keeps
# a chunk's temporaries in cache whatever n is; each writer allocates its
# two chunk buffers once, as fresh ones for every chunk cost a page fault
# per 4 KiB
_CHUNK_ENTRIES = 2**15


def _chunks(count: int, width: int):
    """(start, stop) ranges covering ``count`` rows of ``width`` entries
    each, at most ``_CHUNK_ENTRIES`` entries a chunk."""
    step = max(1, _CHUNK_ENTRIES // width)
    return [(start, min(start + step, count)) for start in range(0, count, step)]


class _HalfAngleTables:
    """Grid factors of the finite-part antiderivative F, built from integers.

    On (-1, 1), with ``omega = sqrt(1 - u^2)`` and ``s = sqrt(1 - xi^2)``,
    ``F(u; xi) = omega / (xi - u) - arcsin u + xi ln|(1 - xi u + s omega)
    / (u - xi)| / s`` is an antiderivative in u of ``omega / (xi - u)^2``
    whose differences are the finite-part cell integrals; ``F(1) - F(-1) =
    -pi``.  With ``u = cos a`` and ``xi = cos b`` the log argument is the
    square of ``sin((a + b)/2) / |sin((a - b)/2)|``, so at the nodes ``u_k
    = (2k - n)/n`` and midpoints ``xi_i = (2i + 1 - n)/n``, rows i < r =
    ceil(n/2), with the odd integer ``d = n (xi_i - u_k) = 2(i - k) + 1``,

        F(u_k; xi_i) = n omega_k / d - arcsin u_k + (2 xi_i / s_i)
                       * ln[(sqrt k + beta_i sqrt(n - k)) sqrt((2n - 2i - 1)/n) / sqrt|d|]

    for ``beta = sqrt((1 + xi) / (1 - xi))``: every factor is nonnegative,
    and the log argument is exactly 1 at k = n.  One table of odd integers
    ``d = 2m + 1``, m = -n .. r-1, holds ``n / d``, ``sqrt|d|`` and ``1 /
    sqrt|d|`` at m + n, for both ``n (xi_i - u_k)`` and ``n (xi_i + u_k) =
    2(i + k) + 1 - 2n``.

    They also give the basis weight: ``mid_weight``, s at all n midpoints,
    and ``cell_weight``, ``diff((u omega + arcsin u) / 2)``, the integral of
    omega over each cell, both exactly mirror-symmetric; a grid scales them
    by its half-width and its square.  ``row_scale`` is ``sqrt((2n - 2i - 1)/n)``.
    """

    def __init__(self, n: int):
        self.n = n
        self.r = r = n - n // 2
        i = np.arange(r, dtype=float)
        xi = (2.0 * i + 1.0 - n) / n
        s = np.sqrt((2.0 * i + 1.0) * (2.0 * (n - i) - 1.0)) / n
        self.mid_weight = np.concatenate([s, s[:n - r][::-1]])
        self.log_scale = 2.0 * xi / s
        self.row_scale = np.sqrt((2.0 * (n - i) - 1.0) / n)
        self.beta = np.sqrt((2.0 * i + 1.0) / (2.0 * (n - i) - 1.0))
        self.alpha = np.sqrt(i / (n - i))  # sqrt((1 + u_i) / (1 - u_i))
        k = np.arange(n + 1, dtype=float)
        self.u = (2.0 * k - n) / n
        self.omega = np.sqrt(4.0 * k * (n - k)) / n
        # arcsin u as an angle whose sine and cosine are both accurate
        self.arcsin = np.arctan2(self.u, self.omega)
        self.cell_weight = np.diff(0.5 * (self.u * self.omega + self.arcsin))
        self.root_k, self.root_rest = np.sqrt(k), np.sqrt(n - k)
        d = 2.0 * np.arange(-n, r) + 1.0
        self.inv = n / d
        self.root = np.sqrt(np.abs(d))
        self.inv_root = 1.0 / self.root


def _singular_left_rows(t: _HalfAngleTables):
    """Route 2's finite-part cell integrals ``F(u_{j+1}; xi_i) - F(u_j; xi_i)``
    on the left rows i < r of the tables ``t``.

    Returns ``rows(start, stop)``: rows start .. stop-1, a view into one of
    two buffers allocated once, valid until the next call.  Within 6e-14 of
    40-digit arithmetic relative to ``max(1, |entry|)`` at n = 3200.
    """
    n = t.n
    # entry (i, k) of a view is the odd-integer table at i - k + n
    inv = sliding_window_view(t.inv[::-1], n + 1)[::-1]
    inv_root = sliding_window_view(t.inv_root[::-1], n + 1)[::-1]
    work = np.empty((2, _chunks(t.r, n + 1)[0][1], n + 1))

    def rows(start, stop):
        at, term = work[:, :stop - start]
        i = slice(start, stop)
        np.multiply(t.beta[i, None], t.root_rest, out=at)
        at += t.root_k
        at *= t.row_scale[i, None]
        at *= inv_root[i]
        np.log(at, out=at)
        at *= t.log_scale[i, None]
        np.multiply(t.omega, inv[i], out=term)
        at += term
        at -= t.arcsin
        return np.subtract(at[:, 1:], at[:, :-1], out=term[:, :n])

    return rows


def _weighted_matrix(grid: Grid, kernel: np.ndarray) -> np.ndarray:
    """Collocation matrix from the sampled kernel ``kernel[i, j] = K0(x_i, t_j)``.

    Returns a new array, ``kernel * W`` plus the singular part; the
    kernel array itself is only read, so it may be a read-only view.
    The singular part is exactly centro-symmetric, so only the left
    half of its rows is formed, in the chunks of ``_singular_left_rows``,
    and each chunk is also added reversed into the mirrored rows; the
    middle row of an odd grid is its own mirror.  A kernel that is
    itself centro-symmetric therefore gives an exactly centro-symmetric
    matrix, whose even half ``_FoldedSystem`` forms on its own.
    """
    n = grid.n
    t = _HalfAngleTables(n)
    matrix = kernel * (grid.interval.halfwidth**2 * t.cell_weight)
    # a sampled kernel passed as a temporary is freed here, before the row
    # buffers are allocated; kept alive, it doubled the page faults of
    # repeated route-2 solves at n = 200 and 400
    del kernel
    rows, half = _singular_left_rows(t), n // 2
    for start, stop in _chunks(n - half, n + 1):
        block = rows(start, stop)
        matrix[start:stop] += block
        mirrored = block[:min(stop, half) - start]  # rows whose mirror is another row
        matrix[n - start - len(mirrored):n - start] += mirrored[::-1, ::-1]
    return matrix


def _singular_fold(t: _HalfAngleTables):
    """Columns of the folded finite-part block ``S = A[:r, :r] + A[:r, r:] J``.

    Returns ``columns(start, stop, out)``, which writes columns
    start .. stop-1 of S as the rows of ``out``, a (stop - start)-by-r
    array, for a chunk of ``_chunks(r, r)``; A is the singular part of
    ``_weighted_matrix``.  Cell n-1-j mirrors cell j and ``u_{n-k} = -u_k``,
    so entry (i, j) is ``E(u_{j+1}) - E(u_j)`` for the odd part of the F of
    ``_HalfAngleTables``

        E(u; xi) = F(u; xi) - F(-u; xi)
                 = 2 u omega / (xi^2 - u^2) - 2 arcsin u
                   + (xi / s) ln[N1 |xi + u| / (N2 |u - xi|)],

    ``N1 = 1 - xi u + s omega`` and ``N2 = 1 + xi u + s omega``, at the
    nodes u_0 .. u_{r-1} with ``E(u_r) := 0`` (u_r = 0 for even n; for odd
    n the middle column, its own mirror, is ``-E(u_{r-1})``).  In the
    tables' half-angle cotangents alpha and beta, ``N1 / N2 = ((alpha +
    beta) / (1 + alpha beta))^2``, and the factors of ``xi -+ u`` are
    Toeplitz and Hankel windows of the odd-integer table: one logarithm and
    one division an entry, within 6e-14 of 40-digit arithmetic relative to
    ``max(1, |entry|)`` at n = 3200.
    """
    n, r = t.n, t.r
    node_term = (-2.0 * t.arcsin[:r])[:, None]
    node_scale = (2.0 * t.u[:r] * t.omega[:r])[:, None]
    # entry (j, i) of a view is the odd-integer table at i - j + n, or at i + j
    gaps, spans = slice(n - r + 1, None), slice(2 * r - 1)
    inv_gap = sliding_window_view(t.inv[gaps], r)[::-1]
    inv_root_gap = sliding_window_view(t.inv_root[gaps], r)[::-1]
    inv_span = sliding_window_view(t.inv[spans], r)
    root_span = sliding_window_view(t.root[spans], r)
    work = np.empty((2, _chunks(r, r)[0][1] + 1, r))

    def columns(start, stop, out):
        j = slice(start, min(stop + 1, r))  # E at one node past the chunk
        odd, den = work[:, :j.stop - start]
        # (xi / s) ln[N1 |xi + u| / (N2 |u - xi|)] as 2 (xi / s) ln of its root
        np.add(t.alpha[j, None], t.beta, out=odd)
        np.multiply(t.alpha[j, None], t.beta, out=den)
        den += 1.0
        odd *= root_span[j]
        odd *= inv_root_gap[j]
        odd /= den
        np.log(odd, out=odd)
        odd *= t.log_scale
        np.multiply(inv_gap[j], inv_span[j], out=den)
        den *= node_scale[j]
        odd += den
        odd += node_term[j]
        np.subtract(odd[1:], odd[:-1], out=out[:len(odd) - 1])
        if stop == r:
            np.negative(odd[-1], out=out[-1])

    return columns


def _folded_singular(grid: Grid) -> np.ndarray:
    """The whole folded finite-part block S of ``_singular_fold``, r by r,
    Fortran-ordered and read-only.

    It depends only on the grid, so several kernels on one grid may
    share it; it is filled in the chunks of ``_chunks(r, r)``, as
    ``_FoldedSystem`` forms them, so a sum with it equals the one
    formed per chunk bitwise.  It costs ``8 r^2`` bytes: 80 KB at
    n = 200, 4 MiB at n = 1448.
    """
    r = grid.n - grid.n // 2
    columns = _singular_fold(_HalfAngleTables(grid.n))
    out = np.empty((r, r), order="F")
    for start, stop in _chunks(r, r):
        columns(start, stop, out.T[start:stop])
    out.setflags(write=False)
    return out


class _FoldedSystem:
    """The folded even half B of a centro-symmetric system, formed
    chunk by chunk, as often as needed.

    A is the matrix ``_weighted_matrix`` would build from the symmetric
    Toeplitz kernel ``mean[|i - j|]`` of the n-entry table ``mean``, so
    it is exactly centro-symmetric, and ``B = A[:r, :r] + A[:r, r:] J``
    with J the column reversal and ``r = ceil(n/2)``.  For a
    reflection-symmetric right-hand side the solution is symmetric too,
    ``phi_j = phi_{n-1-j}``, so its first r constants solve ``B y =
    rhs[:r]``.  A chunk of ``_chunks(r, r)`` is the folded singular part
    (``_singular_fold``, or the grid's ``_folded_singular`` when given,
    which gives the same chunk bitwise) plus the folded kernel part
    ``W_j (mean[|i - j|] + mean[n-1-i-j])``, with no mirror term in the
    middle column of an odd grid, which is its own mirror.  Column j
    reads both terms as contiguous windows of ``[mean reversed,
    mean[1:]]``, at n-1-j and at j.  Equals the fold of
    ``_weighted_matrix`` to rounding, not bitwise.
    """

    def __init__(self, grid: Grid, mean: np.ndarray, singular: Optional[np.ndarray] = None):
        self.tables = t = _HalfAngleTables(grid.n)
        self.n, self.r = n, r = t.n, t.r
        self.singular = singular
        self.weights = grid.interval.halfwidth**2 * t.cell_weight
        self.columns = _singular_fold(t) if singular is None else None
        self.chunks = _chunks(r, r)
        self.spare = np.empty((self.chunks[0][1], r))
        self.extended = np.concatenate([mean[:0:-1], mean])
        windows = sliding_window_view(self.extended, r)
        self.toeplitz, self.hankel = windows[n - r:n][::-1], windows[:n - r]

    def fill(self, start: int, stop: int, out) -> None:
        """Write columns start .. stop-1 of B as the rows of ``out``."""
        if self.singular is None:
            self.columns(start, stop, out)
        else:
            np.copyto(out, self.singular.T[start:stop])
        kernel = self.spare[:stop - start]
        np.copyto(kernel, self.toeplitz[start:stop])
        mirrored = min(stop, self.n - self.r)
        if start < mirrored:
            kernel[:mirrored - start] += self.hankel[start:mirrored]
        kernel *= self.weights[start:stop, None]
        out += kernel

    def matrix(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """B, written into ``out`` when given, else into a new array;
        Fortran-ordered, the order in which LAPACK factors in place and
        in which each chunk is one contiguous stretch."""
        if out is None:
            out = np.empty((self.r, self.r), order="F")
        for start, stop in self.chunks:
            self.fill(start, stop, out.T[start:stop])
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """B x: the kernel part as convolutions of ``W[:r] x`` with the
        table's Toeplitz and Hankel halves, plus ``S x`` with a shared
        singular block S, else the singular chunks re-formed."""
        n, r = self.n, self.r
        y = self.weights[:r] * x
        out = np.convolve(self.extended[n - r:n + r - 1], y, "valid")
        out += np.convolve(self.extended[n:], y[:n - r], "valid")[::-1]
        if self.singular is not None:
            return out + self.singular @ x
        for start, stop in self.chunks:
            chunk = self.spare[:stop - start]
            self.columns(start, stop, chunk)
            out += x[start:stop] @ chunk
        return out


# Smallest folded matrix given its own memory map; numpy's allocator
# advises huge pages from the same size on
_MAPPED_MIN_BYTES = 4 << 20


def _mapped_matrix(r: int) -> np.ndarray:
    """An r-by-r Fortran-ordered float array whose pages go back to the
    operating system as soon as it is dropped.

    From ``_MAPPED_MIN_BYTES`` on it lives in its own anonymous memory
    map, advised to use huge pages as numpy advises its large arrays:
    faulting in 20 MB of fresh 4 KiB pages took 10.6 ms against 4.0 ms
    with huge pages, on a 2-CPU x86-64 virtual machine.  A heap block
    of that size may stay resident after it is freed: once the allocator
    has freed one mapping it raises its mapping threshold, and the next
    block of the same size comes from the heap, which it keeps.  A
    smaller array comes from numpy, as a fresh map would cost more than
    the solve it serves.
    """
    nbytes = 8 * r * r
    if nbytes < _MAPPED_MIN_BYTES:
        return np.empty((r, r), order="F")
    buffer = mmap.mmap(-1, nbytes)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        try:
            buffer.madvise(mmap.MADV_HUGEPAGE)
        except OSError:  # a kernel without transparent huge pages
            pass
    return np.ndarray((r, r), dtype=float, buffer=buffer, order="F")


def _solve_folded(grid: Grid, mean: np.ndarray, rhs: np.ndarray,
                  singular: Optional[np.ndarray] = None) -> SampledFunction:
    """Route 2's weighted solve for the symmetric Toeplitz kernel ``mean[|i - j|]``, at half size.

    Forms the folded matrix B of ``_FoldedSystem`` in a
    ``_mapped_matrix`` and factors it in place, so B is the only r-by-r
    array of the solve besides a shared singular block, and its pages
    are returned when the solve returns.  ``rhs`` must be
    reflection-symmetric; the first r cell constants are solved for and
    mirrored back to all n cells.  The pivot and residual gates are
    those of ``lu_solve``, with B x taken by ``_FoldedSystem.matvec``.
    Row ``n-1-i`` of the full residual equals row i, so the gate covers
    the whole system.
    """
    n = grid.n
    r = n - n // 2
    if rhs.shape != (n,) or not np.array_equal(rhs, rhs[::-1]):
        raise ValueError("a folded system needs a reflection-symmetric right-hand side "
                         "with one entry per cell")
    system = _FoldedSystem(grid, mean, singular)
    half = _solve_in_place(system.matrix(_mapped_matrix(r)), rhs[:r], system.matvec)
    weight = grid.interval.halfwidth * system.tables.mid_weight
    return SampledFunction(grid=grid, values=weight * np.concatenate([half, half[:n - r][::-1]]))


def assemble_full(grid: Grid, K0) -> np.ndarray:
    """Collocation matrix of the perturbed equation in the weighted basis.

    The unknown on cell j is ``phi_j = g / w``, constant on the cell,
    with ``w(t) = sqrt((t - a)(b - t))``; row i collocates at the
    midpoint x_i.  Entry (i, j) is

        F(u_j; xi_i) - F(u_{j-1}; xi_i)  +  K0(x_i, t_j) * W_j,

    where the first part is the exact finite-part integral of
    ``w(t) / (x_i - t)^2`` over the cell after the affine map to
    (-1, 1), under which it is scale-free (F is that of
    ``_HalfAngleTables``), and ``W_j`` is the exact integral of w over
    cell j.  The kernel is sampled at the right node t_j, never at zero
    offset.

    The callable is sampled into one n-by-n array before the matrix
    exists, so the peak memory is the larger of the callable's own
    sampling cost and two n-by-n arrays.  The kernel callable may be
    vectorized over numpy arrays; scalar-only callables are evaluated
    entry by entry.
    """
    return _weighted_matrix(grid, _sample(K0, grid.colloc[:, None], grid.nodes[None, 1:]))


def solve_full_collocation(problem: FullProblem, grid: Grid) -> SampledFunction:
    """Solve the perturbed equation by direct collocation.

    Solves for the cell constants of ``phi = g / w`` and returns
    ``g(x_i) = w(x_i) * phi_i`` at the cell midpoints x_1 .. x_n, the
    same sample sites as ``solve_characteristic``.
    """
    if problem.interval != grid.interval:
        raise ValueError("problem and grid are built on different intervals")
    phi = lu_solve(assemble_full(grid, problem.K0), _sample(problem.fprime, grid.colloc))
    weight = grid.interval.halfwidth * _HalfAngleTables(grid.n).mid_weight
    return SampledFunction(grid=grid, values=weight * phi)


@dataclass(frozen=True, eq=False)
class FredholmSystem:
    """Discretized second-kind system: nodes, kernel matrix N1, data f1."""

    nodes: np.ndarray
    N1: np.ndarray
    f1: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        N1 = np.asarray(self.N1, dtype=float)
        f1 = np.asarray(self.f1, dtype=float)
        m = nodes.shape[0]
        if nodes.ndim != 1 or N1.shape != (m, m) or f1.shape != (m,):
            raise ValueError("inconsistent shapes in Fredholm system")
        if not (np.all(np.isfinite(N1)) and np.all(np.isfinite(f1))):
            raise ValueError("Fredholm system contains non-finite entries")
        for name, arr in (("nodes", nodes), ("N1", N1), ("f1", f1)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def chebyshev_nystrom_rule(interval: Interval, count: int):
    """Nodes and plain-dt weights for Nystrom quadrature on the interval.

    Uses the first-kind Chebyshev points with weights
    ``(pi / count) * sqrt((t - a)(b - t))``, so that integrating a
    function against dt is the Gauss-Chebyshev rule applied to
    ``f * w / w``.  This choice is exact when the integrand times the
    weight is a polynomial, which suits solutions vanishing like a
    square root at the endpoints.
    """
    nodes = chebyshev_nodes(interval, count)
    weights = (np.pi / int(count)) * np.sqrt((nodes - interval.a) * (interval.b - nodes))
    return nodes, weights


def _second_kind_rows(problem: FullProblem, spec: PVQuadSpec, xs, nodes):
    """Rows of f1 and N1 at the points xs, with N1 columns at the nodes:
    the inversion operator applied to f and to K1."""
    if problem.K1 is None or problem.f is None:
        raise ValueError("the second-kind route needs both antiderivatives K1 and f")
    iv = problem.interval
    return (_invert(lambda p: _sample(problem.f, p), iv, xs, spec),
            _invert(lambda p: _sample(problem.K1, p[:, None], nodes[None, :]), iv, xs, spec))


def fredholm_reduce(problem: FullProblem, spec: PVQuadSpec, nodes) -> FredholmSystem:
    """Reduce the full equation to second-kind form on the given nodes.

    Every entry is a weighted principal-value integral:

        N1(x, t) = pref(x) * pv-int K1(tau, t) / (w(tau)(x - tau)) dtau
        f1(x)    = pref(x) * pv-int f(tau)     / (w(tau)(x - tau)) dtau

    with ``pref(x) = sqrt((x - a)(b - x)) / pi^2``: route 1's inversion
    operator, one principal-value matrix (``pv_weighted_matrix``) applied
    to f and to K1 with a column per node.  Requires both antiderivatives
    ``K1`` and ``f`` on the problem.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size == 0:
        raise ValueError("nodes must be a nonempty 1-D array")
    f1, N1 = _second_kind_rows(problem, spec, nodes, nodes)
    return FredholmSystem(nodes=nodes, N1=N1, f1=f1)


def solve_fredholm(system: FredholmSystem, weights) -> np.ndarray:
    """Solve ``(I + N1 diag(weights)) g = f1`` for the node values of g.

    A singular Nystrom matrix means -1 is an eigenvalue of the
    discretized integral operator; this is reported as
    ``SingularMatrixError`` rather than regularized away.
    """
    weights = np.asarray(weights, dtype=float)
    m = system.nodes.size
    if weights.shape != (m,):
        raise ValueError(f"need {m} quadrature weights, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
        raise ValueError("quadrature weights must be positive and finite")
    matrix = np.eye(m) + system.N1 * weights[None, :]
    try:
        return lu_solve(matrix, system.f1)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            "Nystrom matrix I + N1 W is singular: -1 is an eigenvalue of the "
            "discretized operator at these nodes") from exc


def nystrom_eval(problem: FullProblem, spec: PVQuadSpec, system: FredholmSystem,
                 weights, values, xs) -> np.ndarray:
    """Natural Nystrom interpolant of a Fredholm solution at new points.

    Evaluates ``g(x) = f1(x) - sum_k w_k N1(x, node_k) g_k`` which is
    exactly how the discrete solution extends off its nodes; the new
    rows of N1 and f1 come from the same two principal-value matrix
    applications as ``fredholm_reduce``.
    """
    weights = np.asarray(weights, dtype=float)
    values = np.asarray(values, dtype=float)
    m = system.nodes.size
    if weights.shape != (m,) or values.shape != (m,):
        raise ValueError("weights and values must match the system nodes")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    f1, N1 = _second_kind_rows(problem, spec, xs, system.nodes)
    return f1 - N1 @ (weights * values)
