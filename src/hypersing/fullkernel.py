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
constant (the crack solve) forms and solves only the folded even half of
the system, a quarter of the matrix, with ``_FoldedGrid``: in closed form
for its finite-part part, which the grid keeps whole up to n = 1448 and
else forms chunk by chunk; it is stored in float32, factored in place and
refined to float64 accuracy.  The residual, which the refinement and the
gate read, forms no column of it: it takes the kernel part by convolution
with the table and the finite-part part from the kept block, or else from
the block's structure: convolutions with the grid's odd-integer tables and
a power series of rank-one terms, in a tenth of the time of forming the
block.
Alternatively, when K0 has an antiderivative K1 in its first argument
(K0 = dK1/dx) and fprime has antiderivative f, applying the inversion
operator of the characteristic equation converts the problem into a
second-kind Fredholm equation

    g(x) + int N1(x, t) g(t) dt = f1(x),

with N1 and f1 the inversion operator, the one route 1 evaluates, applied
to K1 and f: ``sqrt((x - a)(b - x)) / pi^2`` times a row of one
Gauss-Chebyshev principal-value matrix (``pv_weighted_matrix``), applied
to f and K1 stacked, so the reduction and the off-node evaluation are each
one matrix application.  The Fredholm equation is then solved by a Nystrom
method on Chebyshev points.  Solving the same problem down both paths is
the strongest available end-to-end check.
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


# entries of one chunk of a blocked pass over an array (the finite-part
# rows and the folded columns), which keeps a chunk's temporaries in cache
# whatever the array's size is; a writer that allocates its chunk buffers
# once spares the page fault per 4 KiB that fresh buffers for every chunk
# cost
_CHUNK_ENTRIES = 2**15


def _chunks(count: int, width: int):
    """(start, stop) ranges covering ``count`` rows of ``width`` entries
    each, at most ``_CHUNK_ENTRIES`` entries a chunk."""
    step = max(1, _CHUNK_ENTRIES // width)
    return [(start, min(start + step, count)) for start in range(0, count, step)]


def _weighted_matrix(grid: Grid, kernel: np.ndarray, t: _HalfAngleTables) -> np.ndarray:
    """Collocation matrix from the sampled kernel ``kernel[i, j] = K0(x_i, t_j)``
    and the grid's tables ``t``.

    Returns a new array, ``kernel * W`` plus the singular part; the
    kernel array itself is only read, so it may be a read-only view.
    The singular part, the finite-part cell integrals ``F(u_{j+1}; xi_i) -
    F(u_j; xi_i)`` of ``_HalfAngleTables``, is exactly centro-symmetric, so
    only its left rows i < r are formed, chunk by chunk in one pair of
    buffers, within 6e-14 of 40-digit arithmetic relative to ``max(1,
    |entry|)`` at n = 3200, and each chunk is also added reversed into the
    mirrored rows; the middle row of an odd grid is its own mirror.  A
    kernel that is itself centro-symmetric therefore gives an exactly
    centro-symmetric matrix, whose even half ``_FoldedGrid`` forms on its
    own.
    """
    n, r = t.n, t.r
    matrix = kernel * (grid.interval.halfwidth**2 * t.cell_weight)
    # a sampled kernel passed as a temporary is freed here, before the row
    # buffers are allocated; kept alive, it doubled the page faults of
    # repeated route-2 solves at n = 200 and 400
    del kernel
    # entry (i, k) of a view is the odd-integer table at i - k + n
    inv = sliding_window_view(t.inv[::-1], n + 1)[::-1]
    inv_root = sliding_window_view(t.inv_root[::-1], n + 1)[::-1]
    chunks, half = _chunks(r, n + 1), n // 2
    work = np.empty((2, chunks[0][1], n + 1))
    for start, stop in chunks:
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
        block = np.subtract(at[:, 1:], at[:, :-1], out=term[:, :n])
        matrix[start:stop] += block
        mirrored = block[:min(stop, half) - start]  # rows whose mirror is another row
        matrix[n - start - len(mirrored):n - start] += mirrored[::-1, ::-1]
    return matrix


# Largest z = P_k Q_i of the node rows whose log factors _FoldedGrid.product
# sums as a power series in z, at most 81 odd terms; at n = 3200 that part
# took 2.8, 1.4, 0.9 and 1.6 ms for 0.5, 0.7, 0.8 and 0.9
_SERIES_MAX_RATIO = 0.75


# S's 8 r^2 float64 bytes past which a folded grid is large (n >= 1449): it
# keeps no S (S kept at n = 3200 took a 4-target sweep from 103 to 142 MiB for
# 10% less time), and B, float32 and so 4 r^2 bytes, gets its own map, as
# numpy advises huge pages from 4 MiB on; one rule, on S, for both
_LARGE_FOLD_BYTES = 4 << 20


class _FoldedGrid:
    """The folded even half B of a centro-symmetric system on one grid:
    its finite-part block S, kept or applied from its structure, and the
    solve of B for any symmetric Toeplitz kernel.

    A is the matrix ``_weighted_matrix`` would build on the grid from the
    symmetric Toeplitz kernel ``mean[|i - j|]`` of an n-entry table
    ``mean``, so it is exactly centro-symmetric, and ``B = A[:r, :r] +
    A[:r, r:] J`` with J the column reversal and ``r = ceil(n/2)``.  For
    a constant load the solution is symmetric too, ``phi_j =
    phi_{n-1-j}``, so its first r cell constants solve ``B y = load``.  B
    is S, the same fold of the singular part of A, which depends on the
    grid alone, plus the folded kernel part ``W_j (mean[|i - j|] +
    mean[n-1-i-j])``, with no mirror term in the middle column of an odd
    grid, which is its own mirror.

    S in closed form: cell n-1-j mirrors cell j and ``u_{n-k} = -u_k``, so
    entry (i, j) is ``E(u_{j+1}) - E(u_j)`` for the odd part of the F of
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

    S x from its structure: by parts, ``S x = sum_k E(u_k) d_k`` over k <
    r, with ``d_k = x_{k-1} - x_k`` and ``x_{-1} = 0``.  The log factors of
    ``xi -+ u`` are windows of the table's ``ln sqrt|d|``, and ``2 u omega
    / (xi^2 - u^2) = omega (n / d1 - n / d2)`` for ``d1 = n (xi - u)`` and
    ``d2 = n (xi + u)``, so they are Toeplitz and Hankel products, taken as
    convolutions, and the arcsin term is one dot product.  The log of the
    cotangent ratio is ``ln tanh(a_k + b_i)`` for ``alpha = tanh a`` and
    ``beta = tanh b``, a power series in the product ``exp(-2 a_k) exp(-2
    b_i)``, rank one a term, except on the first few node rows, where that
    product nears 1 and a logarithm an entry is taken.  The product equals
    S x to within 1e-15 of ``max_i sum_j |S_ij| |x_j|`` for a smooth or
    random x at n = 3200, in 2.8 ms against 29 ms for a pass over the
    columns on a 2-CPU x86-64 virtual machine; an x that alternates in sign
    loses more to its differences d (2.3e-14 at n = 6400).

    One size rule, ``8 r^2`` bytes against ``_LARGE_FOLD_BYTES``, chooses
    between two regimes.  Unless the grid is ``large``, that is for n <=
    1448 (80 KB at n = 200, at most 4 MiB), S is formed once, in the
    chunks ``_chunks(r, r)`` of every pass over the folded columns, and
    kept read-only as ``singular``: ``columns`` adds its chunks and
    ``product`` is ``singular @ x``.  On a large grid ``singular`` is
    None, ``columns`` forms each chunk anew and ``product`` takes S x from
    the structure of S, with no pass over its columns, so that S is formed
    once a solve, into B.  A chunk is the same bitwise either way, and a
    product the same to rounding, so every kernel on one grid, in one
    solve or across a sweep, may share one of these.  ``weights`` are the
    cell weights ``W_j``.
    """

    def __init__(self, grid: Grid):
        self.tables = t = _HalfAngleTables(grid.n)
        self.n, self.r = n, r = t.n, t.r
        self.chunks = _chunks(r, r)
        self.weights = grid.interval.halfwidth**2 * t.cell_weight
        self.large = 8 * r * r > _LARGE_FOLD_BYTES
        self.node_term = (-2.0 * t.arcsin[:r])[:, None]
        self.node_scale = (2.0 * t.u[:r] * t.omega[:r])[:, None]
        # entry (j, i) of a window is the odd-integer table at i - j + n, or at i + j
        self.gaps, self.spans = gaps, spans = slice(n - r + 1, None), slice(2 * r - 1)
        self.inv_gap = sliding_window_view(t.inv[gaps], r)[::-1]
        self.inv_root_gap = sliding_window_view(t.inv_root[gaps], r)[::-1]
        self.inv_span = sliding_window_view(t.inv[spans], r)
        self.root_span = sliding_window_view(t.root[spans], r)
        self.work = np.empty((2, self.chunks[0][1] + 1, r))
        self.singular = None
        if not self.large:
            singular = np.zeros((r, r), order="F")
            for start, stop in self.chunks:
                self.columns(start, stop, singular.T[start:stop])
            singular.setflags(write=False)
            # the closed form's work buffer goes before the solves, which read S alone
            self.singular, self.work = singular, None

    def columns(self, start: int, stop: int, out: np.ndarray) -> None:
        """Add columns start .. stop-1 of S to the rows of ``out``, a
        (stop - start)-by-r float64 array, for one of ``chunks``."""
        if self.singular is not None:
            out += self.singular.T[start:stop]
            return
        t, r = self.tables, self.r
        j = slice(start, min(stop + 1, r))  # E at one node past the chunk
        odd, den = self.work[:, :j.stop - start]
        # (xi / s) ln[N1 |xi + u| / (N2 |u - xi|)] as 2 (xi / s) ln of its root
        np.add(t.alpha[j, None], t.beta, out=odd)
        np.multiply(t.alpha[j, None], t.beta, out=den)
        den += 1.0
        odd *= self.root_span[j]
        odd *= self.inv_root_gap[j]
        odd /= den
        np.log(odd, out=odd)
        odd *= t.log_scale
        np.multiply(self.inv_gap[j], self.inv_span[j], out=den)
        den *= self.node_scale[j]
        odd += den
        odd += self.node_term[j]
        cells = np.subtract(odd[1:], odd[:-1], out=den[:len(odd) - 1])
        out[:len(cells)] += cells
        if stop == r:
            out[-1] -= odd[-1]

    def product(self, x: np.ndarray) -> np.ndarray:
        """S x, as ``singular @ x`` when the grid keeps S, else from its structure."""
        if self.singular is not None:
            return self.singular @ x
        t, r, gaps, spans = self.tables, self.r, self.gaps, self.spans
        d = np.empty(r)
        d[0] = -x[0]
        np.subtract(x[:-1], x[1:], out=d[1:])
        # ln[(alpha + beta) / (1 + alpha beta)] = ln[(1 - z) / (1 + z)] for
        # z = P_k Q_i, P = (1 - alpha) / (1 + alpha) and Q the same of beta:
        # a logarithm an entry on the first rows, where z nears 1, then
        # -2 sum_m z^m / m over odd m, rank one a term, until z^m < 1e-20
        p, q = (1.0 - t.alpha) / (1.0 + t.alpha), (1.0 - t.beta) / (1.0 + t.beta)
        near = int(np.count_nonzero(p * q[0] > _SERIES_MAX_RATIO))
        out = np.zeros(r)
        for start, stop in _chunks(near, r):
            ratio, den = self.work[:, :stop - start]
            np.add(t.alpha[start:stop, None], t.beta, out=ratio)
            np.multiply(t.alpha[start:stop, None], t.beta, out=den)
            den += 1.0
            ratio /= den
            np.log(ratio, out=ratio)
            out += d[start:stop] @ ratio
        if near < r and q[0] > 0.0:
            last = int(np.log(1e-20) / np.log(p[near] * q[0])) + 1
            p_power, p_step, d_far = p[near:].copy(), p[near:] ** 2, d[near:]
            q_power, q_step = q.copy(), q * q
            for m in range(1, last + 1, 2):
                out -= (2.0 / m * (p_power @ d_far)) * q_power
                p_power *= p_step
                q_power *= q_step
        ln_root = np.log(t.root)
        out += np.correlate(ln_root[spans], d, "valid")
        out -= np.convolve(ln_root[gaps], d, "valid")
        out *= t.log_scale
        d_omega = t.omega[:r] * d
        out += np.convolve(t.inv[gaps], d_omega, "valid")
        out -= np.correlate(t.inv[spans], d_omega, "valid")
        out += self.node_term[:, 0] @ d
        return out

    def solve(self, mean: np.ndarray, load: float) -> np.ndarray:
        """The n cell constants phi of route 2's weighted solve for the
        symmetric Toeplitz kernel ``mean[|i - j|]`` and the constant load
        ``load``, at half size: the first r solve ``B y = load`` and are
        mirrored back to all n cells.

        B is formed chunk by chunk in one float64 buffer: the kernel part,
        whose column j reads both of its terms as contiguous windows of
        ``[mean reversed, mean[1:]]``, at n-1-j and at j, plus the ``columns``
        of S, rounded once to float32 into B.  In float64 it would equal the
        fold of ``_weighted_matrix`` to rounding, not bitwise.  B is a float32
        Fortran-ordered array, the order in which LAPACK factors in place and
        in which each chunk is one contiguous stretch, and it is factored in
        place, so it is the only r-by-r array of the solve besides the S the
        grid may keep, which stays float64, as the refinement needs B x to
        float64 accuracy.  The float32 factors are refined by
        ``_solve_in_place`` until the residual is at float64 level, against B
        x taken in float64 as ``product(x)`` plus the kernel part, by
        convolutions of ``W[:r] x`` with the table's Toeplitz and Hankel
        halves, so no column of B is formed; the refinement loop and the
        gate are the ones ``lu_solve`` runs.  Row ``n-1-i`` of the full
        residual equals row i, so the gates cover the whole system.

        B is well conditioned (cond 4.3e3 at n = 3200), so each refinement
        step gains about four digits, and a solve takes two or three.  The
        float32 pivot gate, ``r eps32 ||B||_inf``, holds with a margin: the
        smallest pivot over ``||B||_inf`` is 5.8e-2 against 1.2e-5 at
        n = 200, 1.44e-2 against 1.9e-4 at n = 3200 and 1.01e-2 against
        3.8e-4 at n = 6400, for N = 0.1, 0.35 and 0.6 and, at n = 3200,
        b = 1, 10 and 100.  The margin falls about threefold each time n
        doubles, so the gate would refuse B near n = 50,000, where B takes
        2.5 GB.  The float32 LU of B took 30 to 49 ms against 54 to 80 ms
        for the float64 one at n = 3200, one thread, in two measurements.

        On a ``large`` grid B lives in its own private anonymous memory
        map, advised to use huge pages as numpy advises its large arrays,
        whose pages go back to the system as soon as the solve returns.
        The map must be private: Linux backs a shared anonymous map with
        shared memory, which takes huge pages only where its own shmem
        setting allows them, and that setting is often ``never``.  Writing
        a fresh 10 MB B (n = 3200) took a median of 2,500 page faults and
        4.4-10.8 ms in a shared map against 456 faults and 1.2-2.3 ms in a
        private one, over 12 runs on a 2-CPU x86-64 virtual machine.  A heap
        block of that size may stay resident after it is freed: once the
        allocator has freed one mapping it raises its mapping threshold,
        and the next block of the same size comes from the heap, which it
        keeps.  A smaller B comes from numpy, as a fresh map would cost
        more than the solve it serves.
        """
        n, r = self.n, self.r
        part = np.empty((self.chunks[0][1], r))
        extended = np.concatenate([mean[:0:-1], mean])
        windows = sliding_window_view(extended, r)
        toeplitz, hankel = windows[n - r:n][::-1], windows[:n - r]
        if self.large:
            private = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}
                       if hasattr(mmap, "MAP_PRIVATE") else {})  # not on Windows
            buffer = mmap.mmap(-1, 4 * r * r, **private)
            if hasattr(mmap, "MADV_HUGEPAGE"):
                try:
                    buffer.madvise(mmap.MADV_HUGEPAGE)
                except OSError:  # a kernel without transparent huge pages
                    pass
            matrix = np.ndarray((r, r), dtype=np.float32, buffer=buffer, order="F")
        else:
            matrix = np.empty((r, r), dtype=np.float32, order="F")
        for start, stop in self.chunks:
            rows = part[:stop - start]
            mirrored = max(start, min(stop, n - r))
            np.add(toeplitz[start:mirrored], hankel[start:mirrored],
                   out=rows[:mirrored - start])
            rows[mirrored - start:] = toeplitz[mirrored:stop]  # an odd grid's middle column
            rows *= self.weights[start:stop, None]
            self.columns(start, stop, rows)
            matrix.T[start:stop] = rows  # the one rounding to float32
        del part, rows  # the chunk buffer goes before the factorization

        def matvec(x):
            y = self.weights[:r] * x
            out = np.convolve(extended[n - r:n + r - 1], y, "valid")
            out += np.convolve(extended[n:], y[:n - r], "valid")[::-1]
            out += self.product(x)
            return out

        half = _solve_in_place(matrix, np.full(r, load), matvec)
        return np.concatenate([half, half[:n - r][::-1]])


def solve_full_collocation(problem: FullProblem, grid: Grid) -> SampledFunction:
    """Solve the perturbed equation by direct collocation.

    Solves for the cell constants of ``phi = g / w``, with
    ``w(t) = sqrt((t - a)(b - t))``, collocated at the cell midpoints x_i.
    Entry (i, j) of the matrix is the exact finite-part integral of
    ``w(t) / (x_i - t)^2`` over cell j plus ``K0(x_i, t_j) W_j``, with
    ``W_j`` the exact integral of w over the cell and the kernel sampled
    at the right node t_j, never at zero offset, into one n-by-n array
    (a scalar-only callable entry by entry).  Returns
    ``g(x_i) = w(x_i) * phi_i`` at x_1 .. x_n, the same sample sites as
    ``solve_characteristic``; one set of the grid's tables gives both the
    matrix and w at the midpoints.
    """
    if problem.interval != grid.interval:
        raise ValueError("problem and grid are built on different intervals")
    t = _HalfAngleTables(grid.n)
    # the sampled kernel goes in as a temporary, which _weighted_matrix frees
    matrix = _weighted_matrix(
        grid, _sample(problem.K0, grid.colloc[:, None], grid.nodes[None, 1:]), t)
    phi = lu_solve(matrix, _sample(problem.fprime, grid.colloc))
    return SampledFunction(grid=grid, values=grid.interval.halfwidth * t.mid_weight * phi)


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
    the inversion operator applied once to the stacked samples
    ``[f | K1(., nodes)]``, whose first column is f1 and the rest N1."""
    if problem.K1 is None or problem.f is None:
        raise ValueError("the second-kind route needs both antiderivatives K1 and f")

    def stacked(p):
        return np.column_stack([_sample(problem.f, p),
                                _sample(problem.K1, p[:, None], nodes[None, :])])

    rows = _invert(stacked, problem.interval, xs, spec)
    return rows[:, 0], rows[:, 1:]


def fredholm_reduce(problem: FullProblem, spec: PVQuadSpec, nodes) -> FredholmSystem:
    """Reduce the full equation to second-kind form on the given nodes.

    Every entry is a weighted principal-value integral:

        N1(x, t) = pref(x) * pv-int K1(tau, t) / (w(tau)(x - tau)) dtau
        f1(x)    = pref(x) * pv-int f(tau)     / (w(tau)(x - tau)) dtau

    with ``pref(x) = sqrt((x - a)(b - x)) / pi^2``: route 1's inversion
    operator, one principal-value matrix (``pv_weighted_matrix``) applied
    once to f and K1 stacked, K1 with a column per node.  Requires both
    antiderivatives ``K1`` and ``f`` on the problem.
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
    rows of N1 and f1 come from the same single principal-value matrix
    application as ``fredholm_reduce``.
    """
    weights = np.asarray(weights, dtype=float)
    values = np.asarray(values, dtype=float)
    m = system.nodes.size
    if weights.shape != (m,) or values.shape != (m,):
        raise ValueError("weights and values must match the system nodes")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    f1, N1 = _second_kind_rows(problem, spec, xs, system.nodes)
    return f1 - N1 @ (weights * values)
