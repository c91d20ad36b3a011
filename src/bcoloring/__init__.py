"""Exact solvers for b-coloring, b-chromatic number, and fall coloring.

solve(problem, g, k) is the one entry point.  Its main route is a dynamic
program over rooted branch decompositions of bounded module-width; a
vertex-cover-parameterized solver, a budgeted b-vertex-first search
(bv_solver) and a brute-force oracle provide independent routes to the
same answers, and without a named route solve picks one (routes.py).
The DP's building blocks (types, signatures, merge skeletons, class
partitions) stay in their submodules.
"""

from .bcol_dp import (
    b_chromatic_number,
    compute_tables,
    solve_bcoloring,
    solve_bcoloring_witness,
)
from .decomposition import (
    RootedBranchDecomposition,
    best_decomposition,
    linear_decomposition,
    module_width,
    validate,
)
from .errors import CapacityError, InputError, StructuralError
from .fall_dp import solve_fallcoloring, solve_fallcoloring_witness
from .graph import Coloring, Graph, is_proper
from .oracle import (
    brute_force_bcoloring,
    brute_force_chi_b,
    brute_force_fallcoloring,
    is_b_coloring,
    is_fall_coloring,
)
from .routes import solve
from .vc_solver import solve_bcoloring_vc, solve_bcoloring_vc_witness

__all__ = [
    "CapacityError",
    "Coloring",
    "Graph",
    "InputError",
    "RootedBranchDecomposition",
    "StructuralError",
    "b_chromatic_number",
    "best_decomposition",
    "brute_force_bcoloring",
    "brute_force_chi_b",
    "brute_force_fallcoloring",
    "compute_tables",
    "is_b_coloring",
    "is_fall_coloring",
    "is_proper",
    "linear_decomposition",
    "module_width",
    "solve",
    "solve_bcoloring",
    "solve_bcoloring_vc",
    "solve_bcoloring_vc_witness",
    "solve_bcoloring_witness",
    "solve_fallcoloring",
    "solve_fallcoloring_witness",
    "validate",
]

__version__ = "0.1.0"
