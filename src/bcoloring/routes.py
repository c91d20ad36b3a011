"""The library's one entry point, solve, and the solver routes behind it.

solve reaches every solver through one table, ROUTES: one route per
problem and solver.  Each route decides one k: route(g, d, k, witness)
returns the answer, a witness (Coloring, frozenset of b-vertices) when
asked for and found, and the largest DP table when the route has one.
The solver builds the pair and checks it against the definition exactly
once: reconstruct_witness for the DP, _try_guess for vc, bv_solver.search
and bv_solver.fall_search for bv, the brute force for the oracle routes
and solve_fallcoloring_witness for the fall DP.  The routes pass it on
unchanged; a fall coloring's b-vertices are all its vertices.  The bcol
cw route is bcol_dp.decide itself, and bchrom runs the library's one
downward k loop, bcol_dp.chi_b, over a bcol route.

A given solver names one of the problem's ROUTES.  Without it, a given
decomposition d means cw on d (an exact one is best_decomposition's
exact-tiny); without either, every problem takes its automatic route
(_Automatic): every k is first given to the budgeted search of bv_solver
(bv), the b-vertex search for bcol and bchrom and the fall search for
fallcol; only a probe that runs out of budget builds the heuristic
decomposition, once per request, and goes to the route picked from its
width (vc or cw for b-coloring, cw for fall coloring).
"""

from __future__ import annotations

from . import bcol_dp, bv_solver, fall_dp, oracle, vc_solver
from .decomposition import RootedBranchDecomposition, best_decomposition, module_width
from .errors import CapacityError, InputError
from .graph import Graph


def _bcol_vc(g: Graph, d, k: int, witness: bool):
    found = vc_solver.solve_bcoloring_vc_witness(g, k)
    return found is not None, found if witness else None, None


def _bcol_bv(g: Graph, d, k: int, witness: bool):
    found = bv_solver.search(g, k)
    return found is not None, found if witness else None, None


def _bcol_oracle(g: Graph, d, k: int, witness: bool):
    coloring = oracle.brute_force_bcoloring(g, k)
    if coloring is None or not witness:
        return coloring is not None, None, None
    return True, (coloring, oracle.b_vertices(g, coloring)), None


def _fall(g: Graph, coloring, witness: bool):
    """A fall route's result from its fall coloring, or None."""
    found = coloring is not None and witness
    return coloring is not None, (coloring, frozenset(g.vertices())) if found else None, None


def _fall_cw(g: Graph, d: RootedBranchDecomposition, k: int, witness: bool):
    if not witness:
        return fall_dp.solve_fallcoloring(g, d, k), None, None
    return _fall(g, fall_dp.solve_fallcoloring_witness(g, d, k), True)


def _fall_bv(g: Graph, d, k: int, witness: bool):
    return _fall(g, bv_solver.fall_search(g, k), witness)


def _fall_oracle(g: Graph, d, k: int, witness: bool):
    return _fall(g, oracle.brute_force_fallcoloring(g, k), witness)


ROUTES = {
    "bcol": {"cw": bcol_dp.decide, "vc": _bcol_vc, "oracle": _bcol_oracle, "bv": _bcol_bv},
    "fallcol": {"cw": _fall_cw, "oracle": _fall_oracle, "bv": _fall_bv},
}
SOLVER_NAMES = {"cw": "cw-dp", "vc": "vc", "oracle": "oracle", "bv": "bv"}


class _Automatic:
    """The automatic route of one problem's routes.  Each probe is first
    the bv search; one that runs out of budget builds the heuristic
    decomposition, on the first such probe only, and is decided by the
    route picked for it.  solver names what decided the probes: bv while
    the search settled them all, else that route; d and width are None
    until a decomposition is built."""

    def __init__(self, routes: dict) -> None:
        self.routes = routes
        self.d = self.width = None
        self.solver = "bv"

    def __call__(self, g: Graph, d, k: int, witness: bool):
        try:
            return self.routes["bv"](g, d, k, witness)
        except CapacityError:
            pass
        if self.d is None:
            self.d, self.width = _decomposition(g, None)
            # Prefer the tractable exponent: the vertex-cover solver, where
            # the problem has one, when the decomposition is wide but the
            # cover is small, else the DP on the decomposition.
            small_cover = (
                "vc" in self.routes
                and self.width > 8
                and vc_solver.vertex_cover_within(g, 12) is not None
            )
            self.solver = "vc" if small_cover else "cw"
        return self.routes[self.solver](g, self.d, k, witness)


def _decomposition(g: Graph, d: RootedBranchDecomposition | None):
    """A request's decomposition and width: d when given, even for the
    empty graph, else the heuristic one; none for the empty graph."""
    if d is None:
        if not g.n:
            return None, None
        d = best_decomposition(g, "heuristic")
    return d, module_width(g, d)


def solve(problem: str, g: Graph, k: int | None = None, *, solver: str | None = None,
          d: RootedBranchDecomposition | None = None, witness: bool = False):
    """bcol (a b-coloring of g with k colors?), bchrom (the b-chromatic
    number, no k) or fallcol (a fall coloring with k colors?) by one of the
    problem's ROUTES, cw on a given decomposition d, else the automatic
    route.  Returns the answer, the checked witness (Coloring, b-vertices)
    when asked for and found, else None, and the stats the CLI emits, but
    wall_time_s, plus the solver that decided.  Raises InputError for a
    malformed request, CapacityError past a solver's limit or when memory
    runs out."""
    routes = ROUTES.get("bcol" if problem == "bchrom" else problem)
    if routes is None:
        raise InputError(f"unknown problem {problem!r}; choose bcol, bchrom or fallcol")
    if solver is not None and solver not in routes:
        raise InputError(f"unknown {problem} solver {solver!r}; choose from {', '.join(routes)}")
    if (k is None) != (problem == "bchrom"):
        raise InputError(f"{problem} takes no k" if k is not None else f"{problem} needs a k")
    if k is not None and k < 1:
        raise InputError(f"k must be positive, got {k}")
    if d is not None and solver not in (None, "cw"):
        raise InputError(f"--dec is for the cw solver, not --solver {solver}")
    width = None
    solver = solver or ("cw" if d is not None else None)
    try:
        if solver == "cw":
            d, width = _decomposition(g, d)
        route = routes[solver] if solver else _Automatic(routes)
        if problem == "bchrom":
            answer, found, max_table = bcol_dp.chi_b(route, g, d, witness)
        elif k <= g.n:  # no coloring has more colors than vertices
            answer, found, max_table = route(g, d, k, witness)
        else:
            answer, found, max_table = False, None, None
    except MemoryError:  # running out of memory is a refusal too
        raise CapacityError("out of memory") from None
    if solver is None:  # what the automatic route built and what decided
        d, width, solver = route.d, route.width, route.solver
    return answer, found, {
        "decomposition_nodes": None if d is None else d.node_count,
        "max_table_size": max_table,
        "module_width": width,
        "solver": SOLVER_NAMES[solver],
    }
