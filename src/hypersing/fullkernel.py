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
``W_j`` the integral of w over cell j.  A caller whose sampled kernel
is exactly centro-symmetric and whose load is reflection-symmetric (the
crack solve) forms and solves only the folded even half of the system,
a quarter of the matrix.  Alternatively, when K0 has an
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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grids import Grid, Interval, SampledFunction
from .linalg import SingularMatrixError, lu_solve
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
    centro-symmetric matrix, whose even half ``_folded_matrix`` forms
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


def _singular_half(grid: Grid) -> np.ndarray:
    """Rows 0 .. r-1 of the unfolded singular part, ``r = ceil(n/2)``.

    These are the finite-part rows ``_folded_matrix`` forms block by
    block; they depend only on the grid, so several kernels on one grid
    may share them.  They are filled into one preallocated r-by-n array
    in the same ``_row_blocks`` blocks, so the temporaries stay one
    block, and the array is returned read-only.  It costs ``8 r n``
    bytes: 160 KB at n = 200, 4 MiB at n = 1024.
    """
    n = grid.n
    r = n - n // 2
    u, xi, _, arcsin_steps = _cell_parts(grid)
    rows = np.empty((r, n))
    for start, stop in _row_blocks(r, n):
        rows[start:stop] = _singular_rows(u, xi[start:stop], arcsin_steps)
    rows.setflags(write=False)
    return rows


def _folded_matrix(grid: Grid, kernel, singular: Optional[np.ndarray] = None) -> np.ndarray:
    """Even half ``B = A[:r, :r] + A[:r, r:] J`` of a centro-symmetric system.

    A is the matrix ``_weighted_matrix`` would build from ``kernel``,
    which must be exactly centro-symmetric (``kernel[i, j] ==
    kernel[n-1-i, n-1-j]``, as a symmetric Toeplitz kernel is); J
    reverses columns and ``r = ceil(n/2)``.  For a reflection-symmetric
    right-hand side the solution is symmetric too, ``phi_j =
    phi_{n-1-j}``, so its first r constants solve ``B y = rhs[:r]``.
    Only rows 0 .. r-1 of the kernel are read, in blocks of
    ``_row_blocks``, each with its singular part (their midpoints lie in
    the left half).  Without ``singular`` the singular rows are formed
    per block and the returned r-by-r array is the only dense array
    formed; given the grid's ``_singular_half`` they are copied from it,
    which gives the same sum ``S + K W`` and so the same matrix bitwise.
    """
    n = grid.n
    r = n - n // 2
    u, xi, weights, arcsin_steps = _cell_parts(grid)
    folded = np.empty((r, r))
    for start, stop in _row_blocks(r, n):
        # K W goes into a fresh S in place, so a shared S is copied first.
        # Adding S into the K W temporary instead took a fresh process's
        # first call at n = 3200 to 2.6 times the page faults, and forming
        # S + K W as one expression (a third block alive at once) raised
        # that solve's RSS peak by 4.5 MiB
        rows = (singular[start:stop].copy() if singular is not None
                else _singular_rows(u, xi[start:stop], arcsin_steps))
        rows += kernel[start:stop] * weights
        folded[start:stop] = rows[:, :r]
        folded[start:stop, :n - r] += rows[:, r:][:, ::-1]
    return folded


def _solve_weighted(grid: Grid, matrix: np.ndarray, rhs: np.ndarray) -> SampledFunction:
    """Solve for the cell constants of ``phi = g / w`` and return
    ``g(x_i) = w(x_i) * phi_i`` at the cell midpoints.

    An n-by-n matrix is solved as it is.  A ``ceil(n/2)``-row one is the
    folded even half from ``_folded_matrix``: it is solved against the
    first rows of ``rhs``, which must be reflection-symmetric, and the
    constants are mirrored back to all n cells.  Either way the solve
    passes the pivot and residual gates of ``lu_solve``.
    """
    n = grid.n
    r = matrix.shape[0]
    if r == n:
        phi = lu_solve(matrix, rhs)
    else:
        if r != n - n // 2 or not np.array_equal(rhs, rhs[::-1]):
            raise ValueError("a folded system needs ceil(n/2) rows and a "
                             "reflection-symmetric right-hand side")
        half = lu_solve(matrix, rhs[:r])
        phi = np.concatenate([half, half[:n - r][::-1]])
    _, xi = _unit_cell_maps(grid)
    weight = grid.interval.halfwidth * np.sqrt((1.0 - xi) * (1.0 + xi))
    return SampledFunction(grid=grid, values=weight * phi)


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
