"""The characteristic finite-part equation on an interval.

Solves, for the solution bounded at both endpoints,

    fp-int over (a, b) of  g(t) / (x - t)^2 dt  =  fprime(x),   a < x < b,

by two independent routes: midpoint collocation on a uniform grid, and
the closed-form inversion

    g(x) = sqrt((x - a)(b - x)) / pi^2
           * pv-int of  f(t) / (w(t) (x - t)) dt

which trades the finite-part kernel for a weighted principal value of
the antiderivative f.  The two routes share no code path beyond the
grid type, so their agreement is a meaningful cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grids import Grid, Interval, SampledFunction, build_grid
from .linalg import lu_solve
from .quadrature import PVQuadSpec, pv_weighted_matrix, _sample

__all__ = [
    "CharacteristicProblem",
    "assemble_characteristic",
    "solve_characteristic",
    "invert_characteristic",
    "convergence_study",
]


def _check_antiderivative(F, dF, probes, delta: float, label: str) -> None:
    """Centered-difference check that dF differentiates F in its first argument.

    Each probe is a tuple of arguments; only the first one is stepped
    by ``delta``.
    """
    for x, *rest in probes:
        fd = (float(F(x + delta, *rest)) - float(F(x - delta, *rest))) / (2.0 * delta)
        stated = float(dF(x, *rest))
        if not np.isfinite(fd) or abs(fd - stated) > 1e-4 * (1.0 + abs(stated)):
            where = ", ".join(f"{v:.6g}" for v in (x, *rest))
            raise ValueError(
                f"{label}: supplied antiderivative disagrees with the stated "
                f"derivative at ({where}) (finite difference {fd:.6g}, stated {stated:.6g})")


@dataclass(frozen=True)
class CharacteristicProblem:
    """Right-hand side data for the characteristic equation.

    ``fprime`` drives the collocation route; the antiderivative ``f``
    is only needed by the inversion formula.  When both are supplied
    they are cross-checked by finite differences at three interior
    probe points.
    """

    interval: Interval
    fprime: Callable[[float], float]
    f: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.f is not None:
            iv = self.interval
            probes = [(iv.a + frac * iv.width,) for frac in (0.21, 0.5, 0.78)]
            _check_antiderivative(self.f, self.fprime, probes, 1e-4 * iv.width,
                                  "CharacteristicProblem")


def assemble_characteristic(grid: Grid) -> np.ndarray:
    """Collocation matrix of the finite-part kernel on a uniform grid.

    Row i collocates at the midpoint x_i; the unknown is the value of g
    on cell j, and integrating the kernel exactly over each cell gives

        entry(i, j) = 1/(x_i - t_j) - 1/(x_i - t_{j-1}).
    """
    x = grid.colloc[:, None]
    right = grid.nodes[None, 1:]
    left = grid.nodes[None, :-1]
    return 1.0 / (x - right) - 1.0 / (x - left)


def solve_characteristic(problem: CharacteristicProblem, grid: Grid) -> SampledFunction:
    """Solve the characteristic equation by collocation.

    The unknowns are the piecewise-constant cell values of g.  Each
    unknown is attributed to its cell midpoint, which is where a cell
    constant carries the function value to second order; measured
    errors there run roughly half the size of the same vector read at
    the cell end nodes.  The returned samples therefore live at the
    collocation points x_1 .. x_n.
    """
    if problem.interval != grid.interval:
        raise ValueError("problem and grid are built on different intervals")
    values = lu_solve(assemble_characteristic(grid), _sample(problem.fprime, grid.colloc))
    return SampledFunction(grid=grid, values=values)


def invert_characteristic(problem: CharacteristicProblem, x,
                          spec: PVQuadSpec) -> float:
    """Evaluate the closed-form bounded solution at one interior point.

    Requires the antiderivative ``problem.f``; raises ``ValueError``
    when it is missing or when x is not strictly inside the interval.
    """
    if problem.f is None:
        raise ValueError("inversion needs the antiderivative f, which was not supplied")
    interval = problem.interval
    x = float(x)
    if not interval.contains_strictly(x):
        raise ValueError(
            f"evaluation point x={x!r} must lie strictly inside ({interval.a}, {interval.b})")
    return float(_invert(lambda p: _sample(problem.f, p), interval, np.array([x]), spec)[0])


def _invert(sample, interval: Interval, xs: np.ndarray, spec: PVQuadSpec) -> np.ndarray:
    """The inversion operator ``sqrt((x - a)(b - x)) / pi^2`` times the
    weighted principal value of ``pv_weighted_matrix``, one row per point
    of the 1-D array xs, with any further axes of ``sample`` carried through.
    """
    pv = pv_weighted_matrix(sample, interval, xs, spec)
    weight = np.sqrt((xs - interval.a) * (interval.b - xs)) / np.pi**2
    return weight.reshape(weight.shape + (1,) * (pv.ndim - 1)) * pv


def _interior_mask(points: np.ndarray, interval: Interval) -> np.ndarray:
    # trim 5 percent of the interval width at each end
    return np.abs(points - interval.midpoint) <= 0.9 * interval.halfwidth


def convergence_study(problem: CharacteristicProblem, n_list: Sequence[int],
                      reference: Callable[[float], float]):
    """Interior max errors of the collocation solution against a reference.

    Parameters
    ----------
    problem : CharacteristicProblem
    n_list : sequence of int
        Strictly increasing cell counts.
    reference : callable
        Exact (or trusted) solution evaluated at the sample points.

    Returns
    -------
    list of (n, max_error)
        Errors are measured over sample points at least 5 percent of
        the width away from each endpoint, where the bounded solution
        is not dominated by its square-root vanishing.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) == 0:
        raise ValueError("n_list must not be empty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {n_list}")
    rows = []
    for n in n_list:
        grid = build_grid(problem.interval.a, problem.interval.b, n)
        solution = solve_characteristic(problem, grid)
        points = solution.points
        mask = _interior_mask(points, problem.interval)
        exact = _sample(reference, points[mask])
        err = float(np.max(np.abs(solution.values[mask] - exact)))
        rows.append((n, err))
    return rows
