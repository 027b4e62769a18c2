"""Solvers for hypersingular integral equations on an interval.

Three routes to the finite-part equation with a 1/(x - t)^2 kernel:
closed-form inversion of the characteristic equation, midpoint
collocation, and regularization to a second-kind Fredholm equation
solved by a Nystrom method.  On top of these the package builds the
plane-strain crack problem for a linear elastic medium carrying a
scalar void-volume-fraction field: crack-opening profiles and porosity
sweeps of the normalized tip amplitude.
"""

from .grids import Interval, Grid, SampledFunction, build_grid
from .linalg import ResidualError, SingularMatrixError, lu_solve, residual_norm
from .quadrature import (
    PVQuadSpec,
    OscIntSpec,
    chebyshev_nodes,
    pv_weighted_integral,
    pv_weighted_matrix,
)
from .characteristic import (
    CharacteristicProblem,
    assemble_characteristic,
    solve_characteristic,
    invert_characteristic,
    convergence_study,
)
from .fullkernel import (
    FullProblem,
    FredholmSystem,
    solve_full_collocation,
    chebyshev_nystrom_rule,
    fredholm_reduce,
    solve_fredholm,
    nystrom_eval,
)
from .crack import (
    MaterialParams,
    DimensionlessParams,
    CrackSolution,
    derive_dimensionless,
    crack_symbol,
    symbol_asymptotics,
    regular_kernel,
    regular_kernel_table,
    solve_crack,
    stress_concentration,
    porosity_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Interval", "Grid", "SampledFunction", "build_grid",
    "SingularMatrixError", "ResidualError", "lu_solve", "residual_norm",
    "PVQuadSpec", "OscIntSpec", "chebyshev_nodes",
    "pv_weighted_integral", "pv_weighted_matrix",
    "CharacteristicProblem", "assemble_characteristic", "solve_characteristic",
    "invert_characteristic", "convergence_study",
    "FullProblem", "FredholmSystem", "solve_full_collocation",
    "chebyshev_nystrom_rule", "fredholm_reduce", "solve_fredholm", "nystrom_eval",
    "MaterialParams", "DimensionlessParams", "CrackSolution",
    "derive_dimensionless", "crack_symbol", "symbol_asymptotics",
    "regular_kernel", "regular_kernel_table", "solve_crack", "stress_concentration",
    "porosity_sweep",
]
