"""Finite-part equation with a smooth perturbing kernel.

The full equation adds a regular kernel K0 to the characteristic one:

    fp-int g(t) / (x - t)^2 dt  +  int K0(x, t) g(t) dt  =  fprime(x).

Two solution paths are provided.  Direct collocation augments the
characteristic matrix with midpoint-rule samples ``h * K0(x_i, t_j)``.
Alternatively, when K0 has an antiderivative K1 in its first argument
(K0 = dK1/dx) and fprime has antiderivative f, applying the inversion
operator of the characteristic equation converts the problem into a
second-kind Fredholm equation

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

from .grids import Grid, Interval, SampledFunction, SampleSite
from .linalg import SingularMatrixError, lu_solve, solve_within_residual
from .quadrature import PVQuadSpec, chebyshev_nodes, pv_weighted_matrix, _sample
from .characteristic import assemble_characteristic, _check_antiderivative

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


def assemble_full(grid: Grid, K0) -> np.ndarray:
    """Collocation matrix: characteristic part plus ``h * K0(x_i, t_j)``.

    With ``K0 == 0`` this reproduces the characteristic matrix bitwise.
    The kernel callable may be vectorized over numpy arrays; scalar-only
    callables are evaluated entry by entry.
    """
    base = assemble_characteristic(grid)
    vals = _sample(K0, grid.colloc[:, None], grid.nodes[None, 1:])
    return base + grid.h * vals


def solve_full_collocation(problem: FullProblem, grid: Grid) -> SampledFunction:
    """Solve the perturbed equation by direct collocation.

    Sample attribution follows ``solve_characteristic``: the returned
    values live at the cell midpoints x_1 .. x_n.
    """
    if problem.interval != grid.interval:
        raise ValueError("problem and grid are built on different intervals")
    values = solve_within_residual(assemble_full(grid, problem.K0),
                                   _sample(problem.fprime, grid.colloc))
    return SampledFunction(grid=grid, values=values, site=SampleSite.COLLOC)


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
