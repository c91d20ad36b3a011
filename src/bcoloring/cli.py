"""Command-line front end to routes.solve: file formats, result emission,
exit codes.

Graphs are read in DIMACS edge format (`p edge <n> <m>` then exactly m
`e <u> <v>` lines, 1-indexed, `c` comments ignored), with n at most
100,000: a larger n is a capacity refusal, made at the problem line,
before anything is built for it.  Decompositions are
line-based: `n <id> internal <left> <right>` or `n <id> leaf <vertex>`,
first listed node is the root.  Colorings are `<vertex> <color>` lines,
1-indexed.  All three formats skip blank lines and lines whose first field
starts with `c` (_records), and every file is read line by line, so a
bad line is refused, and quoted in part (_bad_line), before the rest of
the file is read.

Results go to standard output as a JSON document with sorted keys.  Exit
codes: 0 = ran (the answer is inside the document), 2 = input error,
3 = capacity refusal (a solve that runs out of memory too), 1 = a failed
self-check of the program (a RuntimeError escapes main with its
traceback).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import sys
import time
from typing import Iterable, Iterator

from . import oracle, routes
from .decomposition import (
    RootedBranchDecomposition,
    best_decomposition,
    module_width,
    validate,
)
from .errors import CapacityError, InputError, StructuralError, listed
from .graph import Coloring, Graph

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_CAPACITY = 3
# The largest vertex count a graph file may declare.
_MAX_VERTICES = 100_000
# The most characters of a bad line that its error message quotes.
_QUOTED = 80


# --- file formats -----------------------------------------------------------


def parse_graph_text(text: str) -> Graph:
    """DIMACS edge format to Graph (vertex ids shifted to 0-based).

    A problem line declaring more than _MAX_VERTICES vertices raises
    CapacityError."""
    return _parse_graph_lines(text.splitlines())


def _parse_graph_lines(lines: Iterable[str]) -> Graph:
    """parse_graph_text over its lines, consumed one at a time, so a
    refusal at a line reads nothing after it.  The edge fields are parsed
    in the loop: every request reads a graph."""
    n = m = problem_line = None
    edges: dict[tuple[int, int], tuple[int, int]] = {}  # sorted pair -> edge
    for record in _records(lines):
        lineno, line, parts = record
        kind = parts[0]
        if kind == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge line before problem line")
            try:
                _, first, second = parts
                u, v = int(first), int(second)
            except ValueError:
                raise _bad_line(record, "malformed edge") from None
            if not (0 < u <= n and 0 < v <= n):
                raise InputError(f"line {lineno}: vertex out of range 1..{n}")
            if u == v:
                raise InputError(f"line {lineno}: self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in edges:
                raise InputError(f"line {lineno}: duplicate edge")
            edges[key] = (u - 1, v - 1)
        elif kind == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate problem line")
            if parts[1:2] != ["edge"]:
                raise _bad_line(record, "malformed problem")
            try:
                _, _, vertices, count = parts
                n, m = int(vertices), int(count)
            except ValueError:
                raise _bad_line(record, "malformed problem") from None
            if n < 0:
                raise InputError(f"line {lineno}: negative vertex count")
            if n > _MAX_VERTICES:
                raise CapacityError(
                    f"line {lineno}: {n} vertices, above the limit of {_MAX_VERTICES}"
                )
            problem_line = lineno
        else:
            raise _bad_line(record, "unrecognized")
    if n is None:
        raise InputError("missing problem line")
    if m != len(edges):
        raise InputError(
            f"line {problem_line}: problem line declares {m} edges, "
            f"but {len(edges)} edge lines follow"
        )
    return Graph(n, edges.values())


def format_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph(path: str) -> Graph:
    with _file_lines(path) as lines:
        return _parse_graph_lines(lines)


def parse_decomposition_text(text: str, g: Graph) -> RootedBranchDecomposition:
    """Decomposition file to a validated RootedBranchDecomposition."""
    return _parse_decomposition_lines(text.splitlines(), g)


def _parse_decomposition_lines(lines: Iterable[str], g: Graph) -> RootedBranchDecomposition:
    entries: dict[int, tuple] = {}  # in file order: the first is the root
    for record in _records(lines):
        lineno, _, parts = record
        if parts[0] != "n":
            raise _bad_line(record, "unrecognized")
        (node_id,) = _ints(record, "node", parts[1:2], 1)
        if node_id in entries:
            raise InputError(f"line {lineno}: duplicate node id {node_id}")
        if parts[2:3] == ["internal"]:
            if len(parts) != 5:
                raise InputError(
                    f"line {lineno}: not binary: internal nodes take exactly two children"
                )
            entries[node_id] = ("internal", *_ints(record, "node", parts[3:], 2))
        elif parts[2:3] == ["leaf"]:
            (vertex,) = _ints(record, "leaf", parts[3:], 1)
            if not (0 < vertex <= g.n):
                raise InputError(f"line {lineno}: leaf vertex out of range 1..{g.n}")
            entries[node_id] = ("leaf", vertex - 1)
        else:
            raise _bad_line(record, "malformed node")
    if not entries:
        raise InputError("decomposition file lists no nodes")
    dense = {node_id: i for i, node_id in enumerate(entries)}
    children: list[tuple[int, int] | None] = [None] * len(entries)
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
    """Serialize in reverse postorder, so the root first.

    Each node's entry is read once, from the tree's own child and leaf
    maps: the postorder lists only nodes of d, so the accessors' range
    tests would never fail."""
    children, leaf_vertex = d._children, d._leaf_vertex
    lines = []
    for t in reversed(d.postorder()):
        kids = children[t]
        if kids is None:
            lines.append(f"n {t} leaf {leaf_vertex[t] + 1}")
        else:
            lines.append(f"n {t} internal {kids[0]} {kids[1]}")
    return "\n".join(lines) + "\n"


def parse_decomposition(path: str, g: Graph) -> RootedBranchDecomposition:
    with _file_lines(path) as lines:
        return _parse_decomposition_lines(lines, g)


def parse_coloring_text(text: str, g: Graph) -> Coloring:
    return _parse_coloring_lines(text.splitlines(), g)


def _parse_coloring_lines(lines: Iterable[str], g: Graph) -> Coloring:
    assignment: dict[int, int] = {}  # 1-based vertex -> color
    for record in _records(lines):
        lineno, _, parts = record
        v, color = _ints(record, "coloring", parts, 2)
        if not (1 <= v <= g.n):
            raise InputError(f"line {lineno}: vertex out of range 1..{g.n}")
        if color < 1:
            raise InputError(f"line {lineno}: colors must be positive")
        if v in assignment:
            raise InputError(f"line {lineno}: vertex {v} colored twice")
        assignment[v] = color
    missing = [v for v in range(1, g.n + 1) if v not in assignment]
    if missing:
        raise InputError(f"coloring misses vertices {listed(missing)}")
    colors = tuple(assignment[v] for v in range(1, g.n + 1))
    return Coloring(colors, max(colors, default=1))


def parse_coloring(path: str, g: Graph) -> Coloring:
    with _file_lines(path) as lines:
        return _parse_coloring_lines(lines, g)


def _records(lines: Iterable[str]) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, line, fields) of each line neither blank nor a c comment."""
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if parts and parts[0][0] != "c":
            yield lineno, line, parts


def _ints(record: tuple, kind: str, fields: list[str], count: int) -> list[int]:
    """fields as count integers, else the record is a malformed kind line."""
    if len(fields) == count:
        try:
            return [*map(int, fields)]
        except ValueError:
            pass
    raise _bad_line(record, f"malformed {kind}")


def _bad_line(record: tuple, what: str) -> InputError:
    """The error naming the record, (line number, line, ...), a `what`
    line, quoting the line stripped, cut to its first _QUOTED characters."""
    lineno, line = record[:2]
    text = line.strip()
    cut = f" (the first {_QUOTED} of {len(text)} characters)" if len(text) > _QUOTED else ""
    return InputError(f"line {lineno}: {what} line {text[:_QUOTED]!r}{cut}")


@contextlib.contextmanager
def _file_lines(path: str) -> Iterator[Iterator[str]]:
    """The lines of a UTF-8 text file, read one at a time, each file line
    split as str.splitlines splits the whole text, so line numbers match
    the text's; failing to open or decode it is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            yield (line for raw in handle for line in raw.splitlines())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text ({exc})") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# --- command handlers ---------------------------------------------------------


def _stats(start: float, d=None, max_table=None, width=None) -> dict:
    return {
        "decomposition_nodes": None if d is None else d.node_count,
        "max_table_size": max_table,
        "module_width": width,
        "wall_time_s": round(time.perf_counter() - start, 6),
    }


def _cmd_solve(args) -> dict:
    """bcol, bchrom and fallcol: parse the files, solve, emit the result."""
    g = parse_graph(args.graph)
    start = time.perf_counter()
    d = parse_decomposition(args.dec, g) if args.dec else None
    k = getattr(args, "k", None)  # bchrom takes no k
    answer, found, stats = routes.solve(
        args.command, g, k, solver=args.solver, d=d, witness=args.witness
    )
    emitted = None
    if found is not None:
        coloring, b_vertices = found
        emitted = {
            "coloring": [[v + 1, color] for v, color in enumerate(coloring.colors)],
            "b_vertices": sorted(v + 1 for v in b_vertices),
        }
    solver = stats.pop("solver")
    stats["wall_time_s"] = round(time.perf_counter() - start, 6)
    return {
        "problem": args.command,
        "k": k,
        "answer": answer,
        "solver": solver,
        "witness": emitted,
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
        "stats": _stats(start, d, None, width),
    }


def _cmd_verify(args) -> dict:
    g = parse_graph(args.graph)
    coloring = parse_coloring(args.coloring, g)
    start = time.perf_counter()
    if coloring.k > g.n:
        answer = False  # some class is empty; the checkers would build all k
    elif args.mode == "b":
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
    checks = witnesses = gave_up = 0
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
        # every k of both problems, then chi_b, on every route and the
        # automatic one; chi_b is compared with brute_force_chi_b
        requests = [(problem, k) for k in range(1, n + 1) for problem in routes.ROUTES]
        for problem, k in requests + [("bchrom", None)]:
            got = {}
            for solver in (*routes.ROUTES["bcol" if k is None else problem], None):
                if k is None and solver == "oracle":
                    continue
                try:
                    got[solver or "auto"] = routes.solve(problem, g, k, solver=solver, witness=True)
                except CapacityError:  # a budgeted route gave up
                    gave_up += 1
            witnesses += sum(found is not None for _, found, _ in got.values())
            expected = oracle.brute_force_chi_b(g) if k is None else got.pop("oracle")[0]
            for name, (answer, found, _) in got.items():
                checks += 1
                if answer != expected or (answer and found is None):
                    mismatches.append(
                        {
                            "trial": trial,
                            "problem": problem,
                            "edges": edges,
                            "k": k,
                            "oracle": expected,
                            name: answer,
                            "witness": found is not None,
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
            "gave_up": gave_up,
            "trials": args.trials,
            "seed": args.seed,
            "witnesses_verified": witnesses,
            "wall_time_s": round(time.perf_counter() - start, 6),
        },
    }


# --- argument parsing ----------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, so every main() call can share it."""
    parser = argparse.ArgumentParser(
        prog="bcoloring",
        description="Exact b-coloring, b-chromatic number, and fall coloring solvers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text, solvers in (
        ("bcol", "decide b-coloring with k colors", routes.ROUTES["bcol"]),
        ("bchrom", "compute the b-chromatic number", routes.ROUTES["bcol"]),
        ("fallcol", "decide fall coloring with k colors", routes.ROUTES["fallcol"]),
    ):
        solve = subs.add_parser(name, help=help_text)
        solve.add_argument("--graph", required=True)
        if name != "bchrom":
            solve.add_argument("--k", type=int, required=True)
        solve.add_argument("--dec", help="decomposition file to use")
        solve.add_argument("--witness", action="store_true")
        solve.add_argument("--solver", choices=list(solvers))
        solve.set_defaults(handler=_cmd_solve)

    decompose = subs.add_parser("decompose", help="build and save a decomposition")
    decompose.add_argument("--graph", required=True)
    decompose.add_argument(
        "--effort", choices=("exact-tiny", "heuristic"), default="heuristic"
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
    print(json.dumps(result, sort_keys=True, indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
