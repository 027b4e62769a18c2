"""Interval, grid, and sampled-function types shared by all solvers.

A Grid is a uniform partition of an interval into n cells together with
the cell midpoints used as collocation points.  Nodes are generated as
a + j*h (multiply then add, never repeated addition) so that two grids
built from the same (a, b, n) are bitwise identical.  Grids never
mutate after construction; their arrays are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Interval", "Grid", "SampledFunction", "build_grid"]


@dataclass(frozen=True)
class Interval:
    """Interval (a, b) of the real line with a < b."""

    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError("interval endpoints must be finite")
        if not a < b:
            raise ValueError(f"invalid interval: need a < b, got a={a!r}, b={b!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.b - self.a)

    def contains_strictly(self, x) -> bool:
        return self.a < x < self.b


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform partition of an interval into ``n`` cells.

    Attributes
    ----------
    interval : Interval
    n : int
        Number of cells.
    h : float
        Cell width ``(b - a) / n``.
    nodes : ndarray, shape (n + 1,)
        ``nodes[j] = a + j * h`` for j = 0..n.
    colloc : ndarray, shape (n,)
        Cell midpoints ``a + (i - 1/2) * h`` for i = 1..n.  Midpoints
        never coincide with nodes, which keeps every kernel evaluation
        in the collocation systems off the diagonal singularity.
    """

    interval: Interval
    n: int
    h: float
    nodes: np.ndarray
    colloc: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.colloc.setflags(write=False)


def build_grid(a, b, n) -> Grid:
    """Build the uniform grid with ``n`` cells on (a, b).

    Raises
    ------
    ValueError
        If ``a >= b``, if ``n`` is not a positive integer, or if the
        requested resolution collapses below floating-point spacing.
    """
    interval = Interval(a, b)
    n_int = int(n)
    if n_int != n or n_int < 1:
        raise ValueError(f"number of subintervals must be a positive integer, got {n!r}")
    h = interval.width / n_int
    j = np.arange(n_int + 1, dtype=float)
    nodes = interval.a + j * h
    colloc = interval.a + (np.arange(1, n_int + 1, dtype=float) - 0.5) * h
    if not np.all(np.diff(nodes) > 0.0):
        raise ValueError("grid is too fine: nodes are not strictly increasing in float64")
    scale = max(abs(interval.a), abs(interval.b), interval.width)
    if abs(nodes[-1] - interval.b) > 4.0 * np.finfo(float).eps * scale:
        raise ValueError("grid construction lost the right endpoint to rounding")
    if not (np.all(colloc > nodes[:-1]) and np.all(colloc < nodes[1:])):
        raise ValueError("collocation points escaped their cells (rounding failure)")
    return Grid(interval=interval, n=n_int, h=h, nodes=nodes, colloc=colloc)


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Function values at the cell midpoints x_1 .. x_n of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.shape[0] != self.grid.n:
            raise ValueError(
                f"need exactly n={self.grid.n} values, got shape {vals.shape}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def points(self) -> np.ndarray:
        return self.grid.colloc
