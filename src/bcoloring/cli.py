"""Command-line front end: file formats, solver dispatch, result emission.

Graphs are read in DIMACS edge format (`p edge <n> <m>` then exactly m
`e <u> <v>` lines, 1-indexed, `c` comments ignored).  Decompositions are
line-based: `n <id> internal <left> <right>` or `n <id> leaf <vertex>`,
first listed node is the root.  Colorings are `<vertex> <color>` lines,
1-indexed.

Results go to standard output as a JSON document with sorted keys.  Exit
codes: 0 = ran (the answer is inside the document), 2 = input error,
3 = capacity refusal.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import bcol_dp, fall_dp, oracle, vc_solver
from .decomposition import (
    RootedBranchDecomposition,
    best_decomposition,
    module_width,
    validate,
)
from .errors import CapacityError, InputError, StructuralError
from .graph import Coloring, Graph

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_CAPACITY = 3


# --- file formats -----------------------------------------------------------


def parse_graph_text(text: str) -> Graph:
    """DIMACS edge format to Graph (vertex ids shifted to 0-based)."""
    n = m = problem_line = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise InputError(f"line {lineno}: malformed problem line {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise InputError(f"line {lineno}: malformed problem line {line!r}")
            if n < 0:
                raise InputError(f"line {lineno}: negative vertex count")
            problem_line = lineno
        elif parts[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge line before problem line")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: malformed edge line {line!r}")
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise InputError(f"line {lineno}: malformed edge line {line!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"line {lineno}: vertex out of range 1..{n}")
            if u == v:
                raise InputError(f"line {lineno}: self-loop at vertex {u + 1}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"line {lineno}: duplicate edge")
            seen.add(key)
            edges.append((u, v))
        else:
            raise InputError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise InputError("missing problem line")
    if m != len(edges):
        raise InputError(
            f"line {problem_line}: problem line declares {m} edges, "
            f"but {len(edges)} edge lines follow"
        )
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph(path: str) -> Graph:
    return parse_graph_text(_read(path))


def parse_decomposition_text(text: str, g: Graph) -> RootedBranchDecomposition:
    """Decomposition file to a validated RootedBranchDecomposition."""
    entries: dict[int, tuple] = {}
    order: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != "n":
            raise InputError(f"line {lineno}: unrecognized line {line!r}")
        try:
            node_id = int(parts[1])
        except (IndexError, ValueError):
            raise InputError(f"line {lineno}: malformed node line {line!r}")
        if node_id in entries:
            raise InputError(f"line {lineno}: duplicate node id {node_id}")
        if len(parts) >= 3 and parts[2] == "internal":
            if len(parts) != 5:
                raise InputError(
                    f"line {lineno}: not binary: internal nodes take exactly two children"
                )
            try:
                entries[node_id] = ("internal", int(parts[3]), int(parts[4]))
            except ValueError:
                raise InputError(f"line {lineno}: malformed node line {line!r}")
        elif len(parts) >= 3 and parts[2] == "leaf":
            if len(parts) != 4:
                raise InputError(f"line {lineno}: malformed leaf line {line!r}")
            try:
                vertex = int(parts[3]) - 1
            except ValueError:
                raise InputError(f"line {lineno}: malformed leaf line {line!r}")
            entries[node_id] = ("leaf", vertex)
        else:
            raise InputError(f"line {lineno}: malformed node line {line!r}")
        order.append(node_id)
    if not order:
        raise InputError("decomposition file lists no nodes")
    dense = {node_id: i for i, node_id in enumerate(order)}
    children: list[tuple[int, int] | None] = [None] * len(order)
    leaf_vertex: dict[int, int] = {}
    for node_id, entry in entries.items():
        if entry[0] == "internal":
            for child in entry[1:]:
                if child not in dense:
                    raise InputError(f"node {node_id}: unknown child {child}")
            children[dense[node_id]] = (dense[entry[1]], dense[entry[2]])
        else:
            leaf_vertex[dense[node_id]] = entry[1]
    try:
        d = RootedBranchDecomposition(children, leaf_vertex, root=0)
    except StructuralError as exc:
        raise InputError(f"invalid decomposition: {exc}") from exc
    report = validate(g, d)
    if not report.ok:
        raise InputError("invalid decomposition: " + "; ".join(report.problems))
    return d


def format_decomposition(d: RootedBranchDecomposition) -> str:
    """Serialize with the root first, children before use is not required."""
    lines = []
    stack = [d.root]
    while stack:
        t = stack.pop()
        if d.is_leaf(t):
            lines.append(f"n {t} leaf {d.leaf_vertex(t) + 1}")
        else:
            left, right = d.children(t)
            lines.append(f"n {t} internal {left} {right}")
            stack.append(right)
            stack.append(left)
    return "\n".join(lines) + "\n"


def parse_decomposition(path: str, g: Graph) -> RootedBranchDecomposition:
    return parse_decomposition_text(_read(path), g)


def parse_coloring_text(text: str, g: Graph) -> Coloring:
    assignment: dict[int, int] = {}
    max_color = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: malformed coloring line {line!r}")
        try:
            v, color = int(parts[0]) - 1, int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: malformed coloring line {line!r}")
        if not (0 <= v < g.n):
            raise InputError(f"line {lineno}: vertex out of range 1..{g.n}")
        if color < 1:
            raise InputError(f"line {lineno}: colors must be positive")
        if v in assignment:
            raise InputError(f"line {lineno}: vertex {v + 1} colored twice")
        assignment[v] = color
        max_color = max(max_color, color)
    missing = [v + 1 for v in g.vertices() if v not in assignment]
    if missing:
        raise InputError(f"coloring misses vertices {missing}")
    return Coloring(tuple(assignment[v] for v in g.vertices()), max(max_color, 1))


def parse_coloring(path: str, g: Graph) -> Coloring:
    return parse_coloring_text(_read(path), g)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# --- result emission ---------------------------------------------------------


def _checked_witness(problem: str, g: Graph, coloring: Coloring, b_vertices) -> dict:
    """The witness as JSON, after the definitional check."""
    check = oracle.is_fall_coloring if problem == "fallcol" else oracle.is_b_coloring
    if not check(g, coloring):
        raise StructuralError("witness failed verification before emission")
    return {
        "coloring": [[v + 1, coloring.colors[v]] for v in range(coloring.n)],
        "b_vertices": sorted(v + 1 for v in b_vertices),
    }


def _emit(result: dict) -> None:
    print(json.dumps(result, sort_keys=True, indent=2))


def _stats(start: float, nodes=None, max_table=None, width=None) -> dict:
    return {
        "decomposition_nodes": nodes,
        "max_table_size": max_table,
        "module_width": width,
        "wall_time_s": round(time.perf_counter() - start, 6),
    }


# --- solver routes -------------------------------------------------------------
#
# Each route decides one k: route(g, d, k, witness) returns the answer, a
# witness (Coloring, b-vertices) when asked for and found, and the largest
# DP table when the route has one.


def _bcol_cw(g: Graph, d: RootedBranchDecomposition, k: int, witness: bool):
    table = bcol_dp.compute_tables(g, d, k, witness=witness)
    answer = bcol_dp.accepting_signature(k) in table.tables[d.root]
    found = None
    if answer and witness:
        found = _from_partial(g, bcol_dp.reconstruct_witness(table, g, d, k))
    return answer, found, table.max_table_size()


def _bcol_vc(g: Graph, d, k: int, witness: bool):
    if not witness:
        return vc_solver.solve_bcoloring_vc(g, k), None, None
    partial = vc_solver.solve_bcoloring_vc_witness(g, k)
    found = None if partial is None else _from_partial(g, partial)
    return partial is not None, found, None


def _bcol_oracle(g: Graph, d, k: int, witness: bool):
    coloring = oracle.brute_force_bcoloring(g, k)
    found = None
    if coloring is not None and witness:
        found = (coloring, _b_vertices_of(g, coloring))
    return coloring is not None, found, None


def _fall_cw(g: Graph, d: RootedBranchDecomposition, k: int, witness: bool):
    if not witness:
        return fall_dp.solve_fallcoloring(g, d, k), None, None
    coloring = fall_dp.solve_fallcoloring_witness(g, d, k)
    found = None if coloring is None else (coloring, g.vertices())
    return coloring is not None, found, None


def _fall_oracle(g: Graph, d, k: int, witness: bool):
    coloring = oracle.brute_force_fallcoloring(g, k)
    found = None
    if coloring is not None and witness:
        found = (coloring, g.vertices())
    return coloring is not None, found, None


ROUTES = {
    "bcol": {"cw": _bcol_cw, "vc": _bcol_vc, "oracle": _bcol_oracle},
    "fallcol": {"cw": _fall_cw, "oracle": _fall_oracle},
}


def _chi_b(solver: str, g: Graph, d: RootedBranchDecomposition | None) -> int:
    if solver == "cw":
        return bcol_dp.b_chromatic_number(g, d)
    if solver == "vc":
        probes = range(1, g.max_degree() + 2)
        return max((k for k in probes if vc_solver.solve_bcoloring_vc(g, k)), default=0)
    return oracle.brute_force_chi_b(g)


def _from_partial(g: Graph, partial: bcol_dp.PartialBColoring):
    return partial.to_coloring(g.n), partial.b_vertices


def _b_vertices_of(g: Graph, coloring: Coloring) -> list[int]:
    """One b-vertex per class of a verified b-coloring."""
    picks = []
    all_colors = set(range(1, coloring.k + 1))
    for i, cls in enumerate(coloring.classes(), start=1):
        others = all_colors - {i}
        picks.append(
            min(
                v
                for v in cls
                if others <= {coloring.colors[u] for u in g.neighbors(v)}
            )
        )
    return picks


def _load_decomposition(args, g: Graph) -> RootedBranchDecomposition:
    if args.dec:
        return parse_decomposition(args.dec, g)
    return best_decomposition(g, args.dec_effort)


def _auto_solver(problem: str, g: Graph, d: RootedBranchDecomposition | None) -> str:
    # Prefer the tractable exponent: fall back to the vertex-cover solver
    # when the decomposition is wide but the cover is small.  Fall coloring
    # has no vertex-cover solver.
    if problem != "fallcol" and d is not None and module_width(g, d) > 8:
        if vc_solver.vertex_cover_within(g, 12) is not None:
            return "vc"
    return "cw"


SOLVER_NAMES = {"cw": "cw-dp", "vc": "vc", "oracle": "oracle"}


# --- command handlers ---------------------------------------------------------


def _cmd_solve(args) -> dict:
    """bcol, bchrom and fallcol: parse the graph, check k, choose the route,
    solve, check and emit the witness, write the stats."""
    problem = args.command
    g = parse_graph(args.graph)
    k = getattr(args, "k", None)  # bchrom takes no k
    if k is not None and k < 1:
        raise InputError(f"k must be positive, got {k}")
    if problem == "bchrom" and g.n < 1:
        raise InputError("b-chromatic number needs at least one vertex")
    if problem == "fallcol" and args.solver == "vc":
        raise InputError("fall coloring has no vertex-cover solver")
    if args.dec and args.solver in ("vc", "oracle"):
        raise InputError(f"--dec is for the cw solver, not --solver {args.solver}")
    start = time.perf_counter()
    d = None
    if args.solver in (None, "cw") and g.n:
        d = _load_decomposition(args, g)
    solver = args.solver or _auto_solver(problem, g, d)
    found = max_table = None
    solved = k is None or k <= g.n  # no coloring has more colors than vertices
    if problem == "bchrom":
        answer = _chi_b(solver, g, d)
        if args.witness and answer >= 1:
            _, found, _ = ROUTES["bcol"][solver](g, d, answer, True)
    elif solved:
        answer, found, max_table = ROUTES[problem][solver](g, d, k, args.witness)
    else:
        answer = False
    if solver == "cw" and solved:
        stats = _stats(start, d.node_count, max_table, module_width(g, d))
    else:
        stats = _stats(start)
    return {
        "problem": problem,
        "k": k,
        "answer": answer,
        "solver": SOLVER_NAMES[solver],
        "witness": None if found is None else _checked_witness(problem, g, *found),
        "stats": stats,
    }


def _cmd_decompose(args) -> dict:
    g = parse_graph(args.graph)
    start = time.perf_counter()
    d = best_decomposition(g, args.effort)
    width = module_width(g, d)
    _write(args.out, format_decomposition(d))
    return {
        "problem": "decompose",
        "k": None,
        "answer": width,
        "solver": args.effort,
        "witness": None,
        "stats": _stats(start, d.node_count, None, width),
    }


def _cmd_verify(args) -> dict:
    g = parse_graph(args.graph)
    coloring = parse_coloring(args.coloring, g)
    start = time.perf_counter()
    if args.mode == "b":
        answer = oracle.is_b_coloring(g, coloring)
    else:
        answer = oracle.is_fall_coloring(g, coloring)
    return {
        "problem": "verify",
        "k": coloring.k,
        "answer": answer,
        "solver": "oracle",
        "witness": None,
        "stats": _stats(start),
    }


def _cmd_selftest(args) -> dict:
    if args.n_max < 1:
        raise InputError("--n-max must be at least 1")
    if args.n_max > oracle.DEFAULT_CAPACITY:
        raise CapacityError(
            f"selftest limited to n <= {oracle.DEFAULT_CAPACITY} by the oracle"
        )
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    rng = random.Random(args.seed)
    start = time.perf_counter()
    checks = 0
    witnesses = 0
    mismatches: list[dict] = []
    for trial in range(args.trials):
        n = rng.randint(1, args.n_max)
        p = rng.uniform(0.15, 0.85)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        d = best_decomposition(g, "heuristic")
        for k in range(1, n + 1):
            expected = oracle.brute_force_bcoloring(g, k) is not None
            got_cw = bcol_dp.solve_bcoloring(g, d, k)
            got_vc = vc_solver.solve_bcoloring_vc(g, k)
            checks += 2
            if got_cw != expected or got_vc != expected:
                mismatches.append(
                    {
                        "trial": trial,
                        "problem": "bcol",
                        "edges": edges,
                        "k": k,
                        "oracle": expected,
                        "cw": got_cw,
                        "vc": got_vc,
                    }
                )
            if expected:
                partial = bcol_dp.solve_bcoloring_witness(g, d, k)
                if partial is None or not oracle.is_b_coloring(
                    g, partial.to_coloring(g.n)
                ):
                    mismatches.append(
                        {"trial": trial, "problem": "bcol-witness", "k": k}
                    )
                witnesses += 1
            expected_fall = oracle.brute_force_fallcoloring(g, k) is not None
            got_fall = fall_dp.solve_fallcoloring(g, d, k)
            checks += 1
            if got_fall != expected_fall:
                mismatches.append(
                    {
                        "trial": trial,
                        "problem": "fallcol",
                        "edges": edges,
                        "k": k,
                        "oracle": expected_fall,
                        "cw": got_fall,
                    }
                )
    return {
        "problem": "selftest",
        "k": None,
        "answer": not mismatches,
        "solver": "all",
        "witness": None,
        "mismatches": mismatches,
        "stats": {
            "checks": checks,
            "trials": args.trials,
            "seed": args.seed,
            "witnesses_verified": witnesses,
            "wall_time_s": round(time.perf_counter() - start, 6),
        },
    }


# --- argument parsing ----------------------------------------------------------


def _add_dec_arguments(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--dec", help="decomposition file to use")
    group.add_argument(
        "--dec-effort",
        choices=["exact-tiny", "heuristic"],
        default="heuristic",
        help="how hard to search for a decomposition (default: heuristic)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcoloring",
        description="Exact b-coloring, b-chromatic number, and fall coloring solvers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("bcol", "decide b-coloring with k colors"),
        ("bchrom", "compute the b-chromatic number"),
        ("fallcol", "decide fall coloring with k colors"),
    ):
        solve = subs.add_parser(name, help=help_text)
        solve.add_argument("--graph", required=True)
        if name != "bchrom":
            solve.add_argument("--k", type=int, required=True)
        _add_dec_arguments(solve)
        solve.add_argument("--witness", action="store_true")
        solve.add_argument("--solver", choices=["cw", "vc", "oracle"])
        solve.set_defaults(handler=_cmd_solve)

    decompose = subs.add_parser("decompose", help="build and save a decomposition")
    decompose.add_argument("--graph", required=True)
    decompose.add_argument(
        "--effort", choices=["exact-tiny", "heuristic"], default="heuristic"
    )
    decompose.add_argument("--out", required=True)
    decompose.set_defaults(handler=_cmd_decompose)

    verify = subs.add_parser("verify", help="check a coloring file")
    verify.add_argument("--graph", required=True)
    verify.add_argument("--coloring", required=True)
    verify.add_argument("--mode", choices=["b", "fall"], required=True)
    verify.set_defaults(handler=_cmd_verify)

    selftest = subs.add_parser(
        "selftest", help="random sweep comparing all solvers against the oracle"
    )
    selftest.add_argument("--n-max", type=int, default=7)
    selftest.add_argument("--trials", type=int, default=25)
    selftest.add_argument("--seed", type=int, default=0)
    selftest.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (InputError, StructuralError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    _emit(result)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
