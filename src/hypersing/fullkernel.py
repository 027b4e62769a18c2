"""Finite-part equation with a smooth perturbing kernel.

The full equation adds a regular kernel K0 to the characteristic one:

    fp-int g(t) / (x - t)^2 dt  +  int K0(x, t) g(t) dt  =  fprime(x).

Two solution paths are provided.  Direct collocation writes the
solution in the edge-weighted basis ``g = w * phi`` with
``w(t) = sqrt((t - a)(b - t))`` and ``phi`` constant on each cell,
collocated at the cell midpoints.  The finite-part cell integrals of
``w / (x - t)^2`` are exact (product integration against the known
square-root edge behaviour), and the regular part is the right-node
kernel sample times the exact cell weight, ``K0(x_i, t_j) * W_j`` with
``W_j`` the integral of w over cell j.  A caller whose kernel is
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

with N1 and f1 produced by weighted principal-value integrals of K1 and
f.  Every such integral is a row of one Gauss-Chebyshev matrix
operator (``pv_weighted_matrix``), so the reduction and the off-node
evaluation are each two matrix applications.  The Fredholm equation is
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
from .quadrature import PVQuadSpec, chebyshev_nodes, pv_weighted_matrix, _sample
from .characteristic import _check_antiderivative

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


# entries of one row block of the singular part, which bounds its
# temporaries whatever n is
_BLOCK_ENTRIES = 2**18


def _row_blocks(rows: int, n: int):
    """(start, stop) row ranges covering ``rows`` rows of n + 1 node
    columns each, at most ``_BLOCK_ENTRIES`` entries a block."""
    step = max(1, _BLOCK_ENTRIES // (n + 1))
    return [(start, min(start + step, rows)) for start in range(0, rows, step)]


def _unit_cell_maps(grid: Grid):
    """Cell nodes and midpoints affinely mapped to (-1, 1).

    Built from integer ratios so that the map is exactly
    reflection-symmetric and hits both endpoints exactly.
    """
    n = grid.n
    u = (2.0 * np.arange(n + 1) - n) / n
    xi = (2.0 * np.arange(1, n + 1) - 1.0 - n) / n
    return u, xi


def _singular_rows(u, xi, arcsin_steps):
    """Finite-part cell integrals for collocation rows with ``xi <= 0``.

    Row i and cell j hold ``F(u_j; xi_i) - F(u_{j-1}; xi_i)`` with

        F(u; xi) = omega / (xi - u) - arcsin u
                   + xi * ln|(1 - xi u + s omega) / (u - xi)| / s,

    ``omega = sqrt(1 - u^2)`` and ``s = sqrt(1 - xi^2)``, an
    antiderivative in u of ``sqrt(1 - u^2) / (xi - u)^2`` whose
    differences are the finite-part integrals; ``F(1) - F(-1) = -pi``
    for every xi.  The arcsin term does not depend on xi and arrives
    as the per-column ``arcsin_steps``.  For ``xi <= 0``,
    ``1 - xi u = (1 + xi) + |xi| (1 + u)`` is a sum of nonnegative
    terms, which keeps its relative precision when both points crowd
    the left end; rows with ``xi > 0`` follow from the odd symmetry
    ``F(-u; -xi) = -F(u; xi)``.
    """
    omega = np.sqrt((1.0 - u) * (1.0 + u))
    s = np.sqrt((1.0 - xi) * (1.0 + xi))
    num = np.multiply.outer(-xi, 1.0 + u)
    num += np.multiply.outer(s, omega)
    num += (1.0 + xi)[:, None]
    gap = np.subtract.outer(xi, u)
    num /= np.abs(gap)
    np.log(num, out=num)
    num *= (xi / s)[:, None]
    num += np.divide(omega, gap, out=gap)
    out = np.diff(num, axis=1)
    out -= arcsin_steps
    return out


def _cell_parts(grid: Grid):
    """Mapped nodes u and midpoints xi, the exact cell weights ``W_j``
    and the per-cell arcsin steps of ``_singular_rows``.

    ``W_j = r^2 * [(u sqrt(1 - u^2) + arcsin u) / 2]`` across the mapped
    cell, the integral of w over cell j; exactly reflection-symmetric,
    ``W_j = W_{n-1-j}``, because u is.
    """
    u, xi = _unit_cell_maps(grid)
    arcsin_u = np.arcsin(u)
    area = 0.5 * (u * np.sqrt((1.0 - u) * (1.0 + u)) + arcsin_u)
    weights = grid.interval.halfwidth**2 * np.diff(area)
    return u, xi, weights, np.diff(arcsin_u)


def _weighted_matrix(grid: Grid, kernel: np.ndarray) -> np.ndarray:
    """Collocation matrix from the sampled kernel ``kernel[i, j] = K0(x_i, t_j)``.

    Returns a new array, ``kernel * W`` plus the singular part; the
    kernel array itself is only read, so it may be a read-only view.
    The singular part is exactly centro-symmetric, so only the left
    half of its rows is formed, in blocks of ``_row_blocks``, and each
    block is also added reversed into the mirrored rows.  A kernel that
    is itself centro-symmetric therefore gives an exactly
    centro-symmetric matrix, whose even half ``_FoldedSystem`` forms
    on its own.
    """
    n = grid.n
    u, xi, weights, arcsin_steps = _cell_parts(grid)
    matrix = kernel * weights
    # a sampled kernel passed as a temporary is freed here, before the row
    # blocks are allocated; kept alive, it doubled the page faults of
    # repeated route-2 solves at n = 200 and 400
    del kernel
    half = n // 2
    for start, stop in _row_blocks(half, n):
        block = _singular_rows(u, xi[start:stop], arcsin_steps)
        matrix[start:stop] += block
        matrix[n - stop:n - start] += block[::-1, ::-1]
    if n % 2:
        matrix[half] += _singular_rows(u, xi[half:half + 1], arcsin_steps)[0]
    return matrix


# entries of one column chunk of the folded system, which keeps a chunk's
# temporaries in cache whatever n is
_FOLD_CHUNK_ENTRIES = 2**15


def _fold_chunks(r: int):
    """(start, stop) column ranges covering r columns of r rows each, at
    most ``_FOLD_CHUNK_ENTRIES`` entries a chunk."""
    step = max(1, _FOLD_CHUNK_ENTRIES // r)
    return [(start, min(start + step, r)) for start in range(0, r, step)]


def _singular_fold(grid: Grid):
    """Columns of the folded finite-part block ``S = A[:r, :r] + A[:r, r:] J``.

    Returns ``columns(start, stop, out)``, which writes columns
    start .. stop-1 of S as the rows of ``out``, a (stop - start)-by-r
    array, for a chunk of ``_fold_chunks``.  A is the singular part of
    ``_weighted_matrix`` and ``r = ceil(n/2)``.  Cell n-1-j mirrors cell
    j, so with the antiderivative F of ``_singular_rows`` and ``u_{n-k}
    = -u_k``, entry (i, j) is ``E(u_{j+1}) - E(u_j)`` for the odd part

        E(u; xi) = F(u; xi) - F(-u; xi)
                 = 2 u omega / (xi^2 - u^2) - 2 arcsin u
                   + (xi / s) ln[N1 |xi + u| / (N2 |u - xi|)],

    ``N1 = (1 + xi) - xi (1 + u) + s omega`` and ``N2 = 1 + xi u + s omega``,
    taken at the left-half nodes u_0 .. u_{r-1} with ``E(u_r) := 0``
    (u_r = 0 for even n; for odd n this makes the middle column, whose
    cell is its own mirror, ``-E(u_{r-1})``).  With ``u = cos a`` and
    ``xi = cos b``, ``N1 = 2 sin^2((a + b)/2)`` and ``N2 = 2 cos^2((a - b)/2)``,
    so ``N1 / N2 = ((alpha + beta) / (1 + alpha beta))^2`` for the
    half-angle cotangents ``alpha = sqrt((1 + u) / (1 - u))`` and ``beta =
    sqrt((1 + xi) / (1 - xi))``, both nonnegative.  On the uniform grid
    these, omega and s come from integers without the rounding of u and
    xi, and ``xi_i - u_j = (2(i - j) + 1) / n`` and ``xi_i + u_j =
    (2(i + j) + 1 - 2n) / n``, so the factors built from them come from
    O(n) tables read as Toeplitz and Hankel views.  Each entry costs one
    logarithm and one division.  Within 6e-14 of 40-digit arithmetic
    relative to ``max(1, |entry|)`` at n = 3200.  The temporaries are
    two chunk-sized arrays allocated once, as fresh ones for every chunk
    cost a page fault per 4 KiB.
    """
    n = grid.n
    r = n - n // 2
    k = np.arange(r, dtype=float)
    u = (2.0 * k - n) / n
    omega = np.sqrt(4.0 * k * (n - k)) / n
    xi = (2.0 * k + 1.0 - n) / n
    s = np.sqrt((2.0 * k + 1.0) * (2.0 * (n - k) - 1.0)) / n
    alpha = np.sqrt(k / (n - k))[:, None]
    beta = np.sqrt((2.0 * k + 1.0) / (2.0 * (n - k) - 1.0))
    log_scale = 2.0 * xi / s
    # -2 arcsin u, as an angle whose sine and cosine are both accurate
    node_term = (-2.0 * np.arctan2(u, omega))[:, None]
    node_scale = (2.0 * u * omega)[:, None]
    # entry (j, i) of a view is the table at i - j + r - 1, or at i + j
    gap = 2.0 * np.arange(-(r - 1), r) + 1.0          # n (xi_i - u_j)
    span = 2.0 * np.arange(2 * r - 1) + 1.0 - 2.0 * n  # n (xi_i + u_j), negative
    inv_gap = sliding_window_view(n / gap, r)[::-1]
    inv_root_gap = sliding_window_view(1.0 / np.sqrt(np.abs(gap)), r)[::-1]
    inv_span = sliding_window_view(n / span, r)
    root_span = sliding_window_view(np.sqrt(-span), r)
    work = np.empty((2, _fold_chunks(r)[0][1] + 1, r))

    def columns(start, stop, out):
        j = slice(start, min(stop + 1, r))  # E at one node past the chunk
        odd, den = work[:, :j.stop - start]
        # (xi / s) ln[N1 |xi + u| / (N2 |u - xi|)] as 2 (xi / s) ln of its root
        np.add(alpha[j], beta, out=odd)
        np.multiply(alpha[j], beta, out=den)
        den += 1.0
        odd *= root_span[j]
        odd *= inv_root_gap[j]
        odd /= den
        np.log(odd, out=odd)
        odd *= log_scale
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
    share it; it is filled in the chunks of ``_fold_chunks``, as
    ``_FoldedSystem`` forms them, so a sum with it equals the one
    formed per chunk bitwise.  It costs ``8 r^2`` bytes: 80 KB at
    n = 200, 4 MiB at n = 1448.
    """
    r = grid.n - grid.n // 2
    columns = _singular_fold(grid)
    out = np.empty((r, r), order="F")
    for start, stop in _fold_chunks(r):
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
    rhs[:r]``.  A chunk of ``_fold_chunks`` is the folded singular part
    (``_singular_fold``, or the grid's ``_folded_singular`` when given,
    which gives the same chunk bitwise) plus the folded kernel part
    ``W_j (mean[|i - j|] + mean[n-1-i-j])``, with no mirror term in the
    middle column of an odd grid, which is its own mirror.  Column j
    reads both terms as contiguous windows of ``[mean reversed,
    mean[1:]]``, at n-1-j and at j.  Equals the fold of
    ``_weighted_matrix`` to rounding, not bitwise.
    """

    def __init__(self, grid: Grid, mean: np.ndarray, singular: Optional[np.ndarray] = None):
        self.n = n = grid.n
        self.r = r = n - n // 2
        self.singular = singular
        self.weights = _cell_parts(grid)[2]
        self.columns = _singular_fold(grid) if singular is None else None
        self.chunks = _fold_chunks(r)
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
    """``_solve_weighted`` for the symmetric Toeplitz kernel ``mean[|i - j|]``, at half size.

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
    return _weighted_values(grid, np.concatenate([half, half[:n - r][::-1]]))


def _weighted_values(grid: Grid, phi: np.ndarray) -> SampledFunction:
    """``g(x_i) = w(x_i) * phi_i`` at the cell midpoints."""
    _, xi = _unit_cell_maps(grid)
    weight = grid.interval.halfwidth * np.sqrt((1.0 - xi) * (1.0 + xi))
    return SampledFunction(grid=grid, values=weight * phi)


def _solve_weighted(grid: Grid, matrix: np.ndarray, rhs: np.ndarray) -> SampledFunction:
    """Solve the n-by-n weighted system for the cell constants of
    ``phi = g / w`` through ``lu_solve``, and return ``g(x_i) = w(x_i) *
    phi_i`` at the cell midpoints."""
    return _weighted_values(grid, lu_solve(matrix, rhs))


def assemble_full(grid: Grid, K0) -> np.ndarray:
    """Collocation matrix of the perturbed equation in the weighted basis.

    The unknown on cell j is ``phi_j = g / w``, constant on the cell,
    with ``w(t) = sqrt((t - a)(b - t))``; row i collocates at the
    midpoint x_i.  Entry (i, j) is

        F(u_j; xi_i) - F(u_{j-1}; xi_i)  +  K0(x_i, t_j) * W_j,

    where the first part is the exact finite-part integral of
    ``w(t) / (x_i - t)^2`` over the cell after the affine map to
    (-1, 1), under which it is scale-free (see ``_singular_rows``), and
    ``W_j`` is the exact integral of w over cell j.  The kernel is
    sampled at the right node t_j, never at zero offset.

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
    return _solve_weighted(grid, assemble_full(grid, problem.K0),
                           _sample(problem.fprime, grid.colloc))


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
    """Rows of f1 and N1 at the points xs, with N1 columns at the nodes.

    Both are the inversion operator ``sqrt((x - a)(b - x)) / pi^2``
    times a weighted principal value, one matrix application each.
    """
    if problem.K1 is None or problem.f is None:
        raise ValueError("the second-kind route needs both antiderivatives K1 and f")
    iv = problem.interval
    pv_f = pv_weighted_matrix(lambda p: _sample(problem.f, p), iv, xs, spec)
    pv_K1 = pv_weighted_matrix(lambda p: _sample(problem.K1, p[:, None], nodes[None, :]),
                               iv, xs, spec)
    pref = np.sqrt((xs - iv.a) * (iv.b - xs)) / np.pi**2
    return pref * pv_f, pref[:, None] * pv_K1


def fredholm_reduce(problem: FullProblem, spec: PVQuadSpec, nodes) -> FredholmSystem:
    """Reduce the full equation to second-kind form on the given nodes.

    Every entry is a weighted principal-value integral:

        N1(x, t) = pref(x) * pv-int K1(tau, t) / (w(tau)(x - tau)) dtau
        f1(x)    = pref(x) * pv-int f(tau)     / (w(tau)(x - tau)) dtau

    with ``pref(x) = sqrt((x - a)(b - x)) / pi^2``.  All entries come
    from two applications of one principal-value matrix
    (``pv_weighted_matrix``): one to f, one to K1 with a column per
    node.  Requires both antiderivatives ``K1`` and ``f`` on the
    problem.
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
