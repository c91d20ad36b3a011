"""The library's one entry point, bcoloring.solve.

It gives what the CLI emits on every case of the CLI contract, agrees with
the brute force on every problem and route (the automatic one too, with
and without the search's budget), and refuses each malformed request with
InputError.
"""

import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcoloring import (
    CapacityError,
    Coloring,
    Graph,
    InputError,
    brute_force_bcoloring,
    brute_force_chi_b,
    brute_force_fallcoloring,
    bv_solver,
    is_b_coloring,
    is_fall_coloring,
    linear_decomposition,
    solve,
)
from bcoloring.routes import ROUTES
from helpers import random_graph
from test_cli_contract import GRAPHS, case_ids

CONTRACT = json.loads(
    (pathlib.Path(__file__).with_name("cli_contract.json")).read_text()
)


@pytest.mark.parametrize("case", case_ids())
def test_solve_gives_what_the_cli_emits(case):
    problem, name, solver, witness = case.split("-")
    g, k = GRAPHS[name]
    expected = CONTRACT[case]
    options = dict(
        solver=None if solver == "auto" else solver, witness=witness == "witness"
    )
    if problem == "bchrom":
        k = None
    if expected["exit"] != 0:
        error = {2: InputError, 3: CapacityError}[expected["exit"]]
        with pytest.raises(error):
            solve(problem, g, k, **options)
        return
    answer, found, stats = solve(problem, g, k, **options)
    emitted = None
    if found is not None:
        coloring, b_vertices = found
        emitted = {
            "coloring": [[v + 1, color] for v, color in enumerate(coloring.colors)],
            "b_vertices": sorted(v + 1 for v in b_vertices),
        }
    document = expected["result"]  # the CLI's, without its wall time
    assert (answer, emitted) == (document["answer"], document["witness"])
    assert stats.pop("solver") == document["solver"]
    assert stats == document["stats"]


def check_against_brute_force(g: Graph, solvers=lambda problem: (*ROUTES[problem], None)):
    """Every problem on solvers(problem) (by default every route and the
    automatic one, None), at every k from 1 to n + 1, against the brute
    force, witnesses included."""
    for problem, brute_force, valid in (
        ("bcol", brute_force_bcoloring, is_b_coloring),
        ("fallcol", brute_force_fallcoloring, is_fall_coloring),
    ):
        for k in range(1, g.n + 2):
            expected = brute_force(g, k) is not None
            for solver in solvers(problem):
                answer, found, _ = solve(problem, g, k, solver=solver, witness=True)
                assert answer == expected, (problem, k, solver)
                assert (found is not None) == expected, (problem, k, solver)
                if found is not None:
                    coloring, b_vertices = found
                    assert isinstance(coloring, Coloring) and coloring.k == k
                    assert valid(g, coloring), (problem, k, solver)
                    assert sorted({coloring.colors[b] for b in b_vertices}) == list(
                        range(1, k + 1)
                    )
    expected = brute_force_chi_b(g)
    for solver in solvers("bcol"):
        chi_b, found, _ = solve("bchrom", g, solver=solver, witness=True)
        assert chi_b == expected, solver
        coloring, _ = found
        assert coloring.k == chi_b and is_b_coloring(g, coloring), solver


graphs = st.builds(
    lambda n, p, seed: random_graph(random.Random(seed), n, p),
    st.integers(1, 7),
    st.floats(0.05, 0.95),
    st.integers(0, 2**32),
)


@settings(max_examples=40, deadline=None)
@given(g=graphs)
def test_every_route_agrees_with_the_brute_force(g):
    check_against_brute_force(g)


@settings(max_examples=25, deadline=None)
@given(g=graphs)
def test_automatic_fallback_agrees_with_the_brute_force(g):
    # With no budget every search that meets a dead end gives up (bv alone
    # would exit 3), so the automatic route falls back to vc or cw on the
    # heuristic decomposition.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bv_solver, "SEARCH_BUDGET", 0)
        check_against_brute_force(g, solvers=lambda problem: [None])


def test_given_decomposition_means_cw():
    g = Graph.cycle(5)
    d = linear_decomposition(g, [0, 2, 4, 1, 3])
    answer, found, stats = solve("bcol", g, 3, d=d, witness=True)
    assert answer and is_b_coloring(g, found[0])
    assert stats["solver"] == "cw-dp"
    assert stats["decomposition_nodes"] == d.node_count


def test_k_above_n_runs_no_route(monkeypatch):
    def unreachable(g, d, k, witness):
        raise AssertionError("a route ran")

    for problem in ROUTES:
        for solver in ROUTES[problem]:
            monkeypatch.setitem(ROUTES[problem], solver, unreachable)
    for problem in ROUTES:
        for solver in (*ROUTES[problem], None):
            assert solve(problem, Graph.path(3), 4, solver=solver)[:2] == (False, None)


def test_out_of_memory_is_a_capacity_refusal(monkeypatch):
    # A route that runs out of memory, picked by name, by the automatic
    # route or by chi_b's loop, ends the request with the documented
    # refusal, not a MemoryError.
    def exhausted(g, d, k, witness):
        raise MemoryError

    for problem in ROUTES:
        for solver in ROUTES[problem]:
            monkeypatch.setitem(ROUTES[problem], solver, exhausted)
    for problem, k in (("bcol", 2), ("bchrom", None), ("fallcol", 2)):
        for solver in (*ROUTES["bcol" if problem == "bchrom" else problem], None):
            with pytest.raises(CapacityError, match="^out of memory$") as caught:
                solve(problem, Graph.cycle(4), k, solver=solver, witness=True)
            assert caught.value.__cause__ is None and caught.value.__suppress_context__


@pytest.mark.parametrize(
    "problem, k, options, message",
    [
        ("bcol", 2, {"solver": "vc", "d": "given"}, "--dec is for the cw solver"),
        ("bchrom", None, {"solver": "bv", "d": "given"}, "--dec is for the cw solver"),
        ("fallcol", 2, {"solver": "oracle", "d": "given"}, "--dec is for the cw solver"),
        ("bchrom", 2, {}, "bchrom takes no k"),
        ("bcol", None, {}, "bcol needs a k"),
        ("fallcol", None, {}, "fallcol needs a k"),
        ("bcol", 0, {}, "k must be positive, got 0"),
        ("fallcol", -1, {"solver": "cw"}, "k must be positive, got -1"),
        ("chi", None, {}, "unknown problem 'chi'"),
        ("fallcol", 2, {"solver": "vc"}, "unknown fallcol solver 'vc'"),
        ("bcol", 2, {"solver": "dp"}, "unknown bcol solver 'dp'"),
    ],
)
def test_malformed_requests(problem, k, options, message):
    g = Graph.cycle(4)
    if options.get("d") == "given":
        options = dict(options, d=linear_decomposition(g, range(4)))
    with pytest.raises(InputError, match=message):
        solve(problem, g, k, **options)
