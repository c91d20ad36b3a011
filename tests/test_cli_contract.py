"""The CLI's JSON contract, pinned case by case.

Every combination of problem (bcol, bchrom, fallcol), solver route (cw, vc,
oracle, automatic) and --witness runs on a few small graphs.  Each exit
code and JSON document, minus its wall time, must equal the checked-in
expectation in cli_contract.json.  The "wide" graph has heuristic
module-width 10 and a 9-vertex cover, so the automatic route picks vc.

Regenerate the expectations, only when a change to the contract is meant:

    PYTHONPATH=src python tests/test_cli_contract.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random

import pytest

from bcoloring import Graph
from bcoloring.cli import format_graph, main

EXPECTED_PATH = pathlib.Path(__file__).with_name("cli_contract.json")


def wide_bipartite() -> Graph:
    """Cover 0..8; each of 23 outside vertices joins a random 4 of them."""
    rng = random.Random(0)
    edges = [
        (c, x) for x in range(9, 32) for c in sorted(rng.sample(range(9), 4))
    ]
    return Graph(32, edges)


# name -> (graph, k for bcol and fallcol)
GRAPHS = {
    "P4": (Graph.path(4), 3),
    "C6": (Graph.cycle(6), 3),
    "K13": (Graph.star(3), 2),
    "wide": (wide_bipartite(), 2),
}
PROBLEMS = ("bcol", "bchrom", "fallcol")
SOLVERS = ("cw", "vc", "oracle", "auto")


def case_ids() -> list[str]:
    ids = []
    for name in GRAPHS:
        for problem in PROBLEMS:
            for solver in SOLVERS:
                # chi_b of the wide graph takes seconds by vc or the
                # automatic route, too long for tier-1 (a CI step checks
                # both), and runs past 20 s by cw.
                if name == "wide" and problem == "bchrom" and solver != "oracle":
                    continue
                for witness in ("plain", "witness"):
                    ids.append(f"{problem}-{name}-{solver}-{witness}")
    return ids


def run_case(case: str, graph_dir: pathlib.Path) -> dict:
    problem, name, solver, witness = case.split("-")
    g, k = GRAPHS[name]
    path = graph_dir / f"{name}.col"
    if not path.exists():
        path.write_text(format_graph(g))
    argv = [problem, "--graph", str(path)]
    if problem != "bchrom":
        argv += ["--k", str(k)]
    if solver != "auto":
        argv += ["--solver", solver]
    if witness == "witness":
        argv.append("--witness")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    result = json.loads(out.getvalue()) if out.getvalue() else None
    if result is not None:
        del result["stats"]["wall_time_s"]
    return {"exit": code, "result": result}


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory) -> pathlib.Path:
    return tmp_path_factory.mktemp("contract")


@pytest.mark.parametrize("case", case_ids())
def test_cli_contract(case, expected, graph_dir):
    assert run_case(case, graph_dir) == expected[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        docs = {case: run_case(case, pathlib.Path(tmp)) for case in case_ids()}
    # One case per line, so a changed document shows as one changed line.
    lines = [
        f"{json.dumps(case)}: {json.dumps(docs[case], sort_keys=True)}"
        for case in sorted(docs)
    ]
    EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(docs)} cases to {EXPECTED_PATH}")
