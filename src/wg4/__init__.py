"""Weak Galerkin solver for fourth-order elliptic boundary value problems.

Solves (-div(kappa grad) + mu)^2 u = f with simultaneous Dirichlet and
Neumann boundary data on rectangles, using the lowest-order weak
Galerkin discretization on structured triangular meshes.
"""

from .assembly import (
    AssembledSystem,
    AssemblyError,
    CoefficientField,
    ProblemSpec,
    Region,
    assemble,
    triple_bar_norm,
)
from .errors import ErrorReport, convergence_orders, error_report
from .harness import CATALOG, run_convergence, sample_field, solve_case
from .mesh import Mesh, build_structured_mesh
from .solve import SolverConfig, SolverError, solve_spd
from .weakops import WeakFunction, project_Qh

__all__ = [
    "AssembledSystem",
    "AssemblyError",
    "CATALOG",
    "CoefficientField",
    "ErrorReport",
    "Mesh",
    "ProblemSpec",
    "Region",
    "SolverConfig",
    "SolverError",
    "WeakFunction",
    "assemble",
    "build_structured_mesh",
    "convergence_orders",
    "error_report",
    "project_Qh",
    "run_convergence",
    "sample_field",
    "solve_case",
    "solve_spd",
    "triple_bar_norm",
]

__version__ = "0.1.0"
