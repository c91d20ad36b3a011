"""The b-vertex-first search (bv_solver.search) and its CLI route.

Exactness is tested with the budget out of the way: at every k the answer
is the oracle's, and a witness is a b-coloring with exactly one listed
b-vertex per class.  With the budget at 0 the search gives up at its first
dead end: --solver bv exits 3, and the automatic route falls back to the
decomposition rule (tests/test_cli.py::TestCommands).
"""

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcoloring import CapacityError, Coloring, Graph, InputError, bv_solver, cli, oracle
from bcoloring.cli import ROUTES, format_graph
from helpers import random_graph
from test_cli import run


@pytest.fixture
def unbudgeted(monkeypatch):
    monkeypatch.setattr(bv_solver, "SEARCH_BUDGET", 10**9)


def check_answer(g: Graph, k: int) -> bool:
    """search agrees with the oracle at k; its witness lists one b-vertex
    per class.  Returns the answer."""
    found = bv_solver.search(g, k)
    assert (found is not None) == (oracle.brute_force_bcoloring(g, k) is not None), (g, k)
    if found is not None:
        coloring, b_vertices = found
        assert isinstance(coloring, Coloring) and coloring.k == k
        assert oracle.is_b_coloring(g, coloring)
        assert sorted(coloring.colors[b] for b in b_vertices) == list(range(1, k + 1))
        for b in b_vertices:
            seen = {coloring.colors[u] for u in g.neighbors(b)}
            assert seen >= set(range(1, k + 1)) - {coloring.colors[b]}
    return found is not None


class TestAgainstOracle:
    def test_seeded_graphs_every_k(self, unbudgeted):
        rng = random.Random(70)
        found = 0
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.9))
            for k in range(1, g.n + 1):
                found += check_answer(g, k)
        assert found >= 150

    def test_twins_and_nested_neighborhoods(self, unbudgeted):
        # K_{2,3} and its relatives: every vertex of a side is a false twin
        # of the others, and a pendant's neighborhood nests in its hub's
        # neighbors'.
        graphs = [
            Graph(5, [(u, v) for u in range(2) for v in range(2, 5)]),
            Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)]),
            Graph.star(4),
            Graph.cycle(6),
            Graph.complete(4),
            Graph.edgeless(3),
        ]
        for g in graphs:
            for k in range(1, g.n + 1):
                check_answer(g, k)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 8),
        p=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32),
        k=st.integers(1, 8),
    )
    def test_property(self, n, p, seed, k):
        g = random_graph(random.Random(seed), n, p)
        budget = bv_solver.SEARCH_BUDGET
        bv_solver.SEARCH_BUDGET = 10**9
        try:
            check_answer(g, k)
        finally:
            bv_solver.SEARCH_BUDGET = budget

    def test_k_out_of_range(self):
        g = Graph.path(3)
        assert bv_solver.search(g, 4) is None
        with pytest.raises(InputError):
            bv_solver.search(g, 0)


class TestBudget:
    def test_out_of_budget_raises(self, monkeypatch):
        # k = 1 on an edge: coloring either end 1 empties the other's domain.
        monkeypatch.setattr(bv_solver, "SEARCH_BUDGET", 0)
        with pytest.raises(CapacityError, match="budget of 0 dead ends"):
            bv_solver.search(Graph.path(2), 1)
        # no dead end at all: settled even with no budget
        assert bv_solver.search(Graph.path(2), 2) is not None

    def test_solver_bv_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bv_solver, "SEARCH_BUDGET", 0)
        path = tmp_path / "p2.col"
        path.write_text(format_graph(Graph.path(2)))
        argv = ["bcol", "--k", "1", "--graph", str(path), "--solver", "bv"]
        assert run(capsys, argv)[:2] == (3, None)

    def test_default_budget_settles_small_graphs(self):
        # The selftest sweeps draw graphs of at most 8 vertices; the search
        # settles every k of every one of these within its budget.
        rng = random.Random(71)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.9))
            for k in range(1, g.n + 1):
                bv_solver.search(g, k)


class TestResultDigest:
    """Pins search's results, witnesses and give-ups included, at the
    shipped budget: a change of choice order or of budget accounting moves
    the digest even where every answer stays the same."""

    # sha256 over 500 seeded G(n, p), n <= 12, at every k: 2,597 None,
    # 629 witnesses and 16 give-ups, recorded before vc's extension
    # became a caller of the same search.
    DIGEST = "0d9ea4a9c73b1f9097ed567b3b48e2ceb75103ad0cce1142c95bf02c39cc577a"

    def test_results_match_the_recorded_digest(self):
        rng = random.Random(72)
        h = hashlib.sha256()
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
            for k in range(1, g.n + 1):
                try:
                    found = bv_solver.search(g, k)
                except CapacityError:
                    result = "gave up"
                else:
                    result = None if found is None else (found[0].colors, sorted(found[1]))
                h.update(repr((g.edges(), k, result)).encode())
        assert h.hexdigest() == self.DIGEST


class TestRoute:
    def test_registered_for_bcol_only(self, tmp_path, capsys):
        assert ROUTES["bcol"]["bv"] is not None and "bv" not in ROUTES["fallcol"]
        path = tmp_path / "c6.col"
        path.write_text(format_graph(Graph.cycle(6)))
        dec = tmp_path / "c6.dec"
        code, _, _ = run(capsys, ["decompose", "--graph", str(path), "--out", str(dec)])
        assert code == 0
        for argv in (
            ["fallcol", "--k", "2", "--solver", "bv"],
            ["bcol", "--k", "2", "--solver", "bv", "--dec", str(dec)],
        ):
            code, result, _ = run(capsys, argv + ["--graph", str(path)])
            assert (code, result) == (2, None)
        code, result, _ = run(capsys, ["bchrom", "--graph", str(path), "--solver", "bv"])
        assert (code, result["answer"], result["solver"]) == (0, 3, "bv")
        assert result["stats"]["module_width"] is None

    def test_automatic_route_settles_by_bv(self, tmp_path, capsys):
        # Every probe settled by the search: no decomposition is built.
        path = tmp_path / "c5.col"
        path.write_text(format_graph(Graph.cycle(5)))
        for argv, answer in ((["bchrom"], 3), (["bcol", "--k", "3"], True)):
            code, result, _ = run(capsys, argv + ["--graph", str(path), "--witness"])
            assert (code, result["answer"], result["solver"]) == (0, answer, "bv")
            stats = result["stats"]
            assert stats["decomposition_nodes"] is stats["module_width"] is None
            assert stats["max_table_size"] is None

    def test_automatic_route_falls_back_once(self, tmp_path, capsys, monkeypatch):
        # With no budget, every probe of bchrom falls back; the
        # decomposition is built once for all of them.
        monkeypatch.setattr(bv_solver, "SEARCH_BUDGET", 0)
        built = []

        def counted(g, effort, search=cli.best_decomposition):
            built.append(effort)
            return search(g, effort)

        monkeypatch.setattr(cli, "best_decomposition", counted)
        g = random_graph(random.Random(1), 9, 0.4)  # chi_b 4, m(G) 5
        path = tmp_path / "g.col"
        path.write_text(format_graph(g))
        code, result, _ = run(capsys, ["bchrom", "--graph", str(path), "--witness"])
        assert code == 0 and result["solver"] == "cw-dp"
        assert built == ["heuristic"]
        assert result["answer"] < g.m_degree()  # two probes fell back
        code, reference, _ = run(capsys, ["bchrom", "--graph", str(path), "--solver", "cw"])
        assert result["answer"] == reference["answer"]
        assert result["stats"]["max_table_size"] > 0


def test_long_path_without_recursion(tmp_path, capsys):
    # bcol --k 3 --witness at the vertex cap: one explicit stack, so no
    # RecursionError, and the whole request in bounded time.
    n = 100_000
    path = tmp_path / "path.col"
    path.write_text(format_graph(Graph.path(n)))
    start = time.perf_counter()
    code, result, _ = run(capsys, ["bcol", "--graph", str(path), "--k", "3", "--witness"])
    assert time.perf_counter() - start < 30
    assert (code, result["answer"], result["solver"]) == (0, True, "bv")
    coloring = Coloring(tuple(c for _, c in result["witness"]["coloring"]), 3)
    assert oracle.is_b_coloring(Graph.path(n), coloring)
    assert len(result["witness"]["b_vertices"]) == 3


@pytest.mark.parametrize(
    "argv, answer", [(["bcol", "--k", "2"], True), (["bchrom"], 2)], ids=["bcol", "bchrom"]
)
def test_hub_last_star(tmp_path, capsys, argv, answer):
    # A 20,000-leaf star with the hub last: the automatic route settles it
    # by the search, without the decomposition search that is quadratic on
    # a hub.
    leaves = 20_000
    g = Graph(leaves + 1, [(v, leaves) for v in range(leaves)])
    path = tmp_path / "star.col"
    path.write_text(format_graph(g))
    start = time.perf_counter()
    code, result, _ = run(capsys, argv + ["--graph", str(path), "--witness"])
    assert time.perf_counter() - start < 10
    assert (code, result["answer"], result["solver"]) == (0, answer, "bv")
    coloring = Coloring(tuple(c for _, c in result["witness"]["coloring"]), 2)
    assert oracle.is_b_coloring(g, coloring)
