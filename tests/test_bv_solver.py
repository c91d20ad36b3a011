"""The b-vertex-first search (bv_solver.search), the fall search
(bv_solver.fall_search) and their CLI routes.

Exactness is tested with the budget out of the way: at every k the answer
is the oracle's, and a witness is a b-coloring with exactly one listed
b-vertex per class, or a fall coloring.  The fall search also agrees with
the fall DP on closed-form families too large for the oracle.  With the
budget at 0 a search gives up at its first dead end: --solver bv exits 3,
and the automatic route falls back to the decomposition's route.
"""

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcoloring import (
    CapacityError,
    Coloring,
    Graph,
    InputError,
    best_decomposition,
    bv_solver,
    fall_dp,
    oracle,
    routes,
)
from bcoloring.cli import format_graph
from bcoloring.routes import ROUTES
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


def check_fall(g: Graph, k: int) -> bool:
    """fall_search agrees with the oracle at k; its witness is a fall
    coloring with k colors.  Returns the answer."""
    found = bv_solver.fall_search(g, k)
    assert (found is not None) == (oracle.brute_force_fallcoloring(g, k) is not None), (g, k)
    if found is not None:
        assert isinstance(found, Coloring) and found.k == k
        assert oracle.is_fall_coloring(g, found)
    return found is not None


def rook(m: int) -> Graph:
    """K_m x K_m: cells of an m x m board, adjacent in a row or a column."""
    cells = [(i, j) for i in range(m) for j in range(m)]
    return Graph(
        m * m,
        [
            (a, b)
            for a in range(m * m)
            for b in range(a + 1, m * m)
            if cells[a][0] == cells[b][0] or cells[a][1] == cells[b][1]
        ],
    )


def hypercube(d: int) -> Graph:
    return Graph(1 << d, [(u, u | 1 << b) for u in range(1 << d) for b in range(d) if not u >> b & 1])


def multipartite(parts: tuple[int, ...]) -> Graph:
    label = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(label)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if label[u] != label[v]])


class TestFallSearch:
    def test_seeded_graphs_every_k(self, unbudgeted):
        rng = random.Random(73)
        found = 0
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.9))
            for k in range(1, g.n + 2):
                found += check_fall(g, k)
        assert found >= 80  # 87 fall colorings checked

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), p=st.floats(0.05, 0.95), seed=st.integers(0, 2**32))
    def test_property_every_k(self, n, p, seed):
        g = random_graph(random.Random(seed), n, p)
        budget = bv_solver.SEARCH_BUDGET
        bv_solver.SEARCH_BUDGET = 10**9
        try:
            for k in range(1, n + 2):
                check_fall(g, k)
        finally:
            bv_solver.SEARCH_BUDGET = budget

    # C_n has a fall k-coloring iff k = 2 and n is even or k = 3 and 3 | n;
    # K_m x K_m and a complete multipartite graph with r parts only for
    # k = m and k = r.  Of the hypercubes only the oracle's Q3 answers are
    # pinned (k = 2 and 4); Q4 is checked against the DP alone.
    @pytest.mark.parametrize(
        "g, feasible",
        [
            *((Graph.cycle(n), {k for k in (2, 3) if n % k == 0}) for n in range(30, 41)),
            (rook(3), {3}),
            (rook(4), {4}),
            (hypercube(3), {2, 4}),
            (hypercube(4), None),
            (multipartite((2, 3, 4)), {3}),
            (multipartite((2, 2, 3, 3)), {4}),
            (multipartite((1, 4)), {2}),
            (multipartite((3, 3, 3, 1)), {4}),
        ],
        ids=[*(f"C{n}" for n in range(30, 41)), "rook3", "rook4", "Q3", "Q4"]
        + ["K2-3-4", "K2-2-3-3", "K1-4", "K3-3-3-1"],
    )
    def test_closed_forms_agree_with_the_dp(self, unbudgeted, g, feasible):
        d = best_decomposition(g, "heuristic")
        ks = (2, 3) if g.max_degree() == 2 else range(1, g.min_degree() + 3)
        for k in ks:
            found = bv_solver.fall_search(g, k)
            answer = fall_dp.solve_fallcoloring(g, d, k)
            assert (found is not None) == answer, k
            assert feasible is None or answer == (k in feasible), k
            assert found is None or oracle.is_fall_coloring(g, found)

    def test_k_out_of_range(self):
        g = Graph.cycle(4)
        assert bv_solver.fall_search(g, 5) is None
        assert bv_solver.fall_search(g, 4) is None  # degree 2 < k - 1
        assert bv_solver.fall_search(Graph.edgeless(3), 1) is not None
        with pytest.raises(InputError):
            bv_solver.fall_search(g, 0)

    def test_out_of_budget(self, tmp_path, capsys, monkeypatch):
        # C_5 at k = 2: not bipartite, refuted only after dead ends.
        monkeypatch.setattr(bv_solver, "SEARCH_BUDGET", 0)
        with pytest.raises(CapacityError, match="budget of 0 dead ends"):
            bv_solver.fall_search(Graph.cycle(5), 2)
        path = tmp_path / "c5.col"
        path.write_text(format_graph(Graph.cycle(5)))
        argv = ["fallcol", "--k", "2", "--graph", str(path), "--solver", "bv"]
        assert run(capsys, argv)[:2] == (3, None)
        # The automatic route falls back to the DP on the heuristic decomposition.
        code, result, _ = run(capsys, argv[:-2])
        assert (code, result["answer"], result["solver"]) == (0, False, "cw-dp")
        assert result["stats"]["module_width"] is not None

    def test_default_budget_settles_small_graphs(self):
        # The selftest sweeps draw graphs of at most 8 vertices; the fall
        # search settles every k of every one of these within its budget.
        rng = random.Random(74)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.9))
            for k in range(1, g.n + 1):
                bv_solver.fall_search(g, k)


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
    def test_registered_for_both_problems(self, tmp_path, capsys):
        assert ROUTES["bcol"]["bv"] is not None and ROUTES["fallcol"]["bv"] is not None
        path = tmp_path / "c6.col"
        path.write_text(format_graph(Graph.cycle(6)))
        dec = tmp_path / "c6.dec"
        code, _, _ = run(capsys, ["decompose", "--graph", str(path), "--out", str(dec)])
        assert code == 0
        for argv in (["bcol", "--k", "2"], ["fallcol", "--k", "2"]):
            # bv takes no decomposition
            argv += ["--solver", "bv", "--graph", str(path)]
            code, result, _ = run(capsys, argv + ["--dec", str(dec)])
            assert (code, result) == (2, None)
            code, result, _ = run(capsys, argv + ["--witness"])
            assert (code, result["answer"], result["solver"]) == (0, True, "bv")
            assert result["stats"]["module_width"] is None
        assert result["witness"]["coloring"] == [[v, 2 - v % 2] for v in range(1, 7)]
        code, result, _ = run(capsys, ["bchrom", "--graph", str(path), "--solver", "bv"])
        assert (code, result["answer"], result["solver"]) == (0, 3, "bv")
        assert result["stats"]["module_width"] is None

    def test_automatic_route_settles_by_bv(self, tmp_path, capsys):
        # Every probe settled by the search: no decomposition is built.
        path = tmp_path / "c5.col"
        path.write_text(format_graph(Graph.cycle(5)))
        for argv, answer in (
            (["bchrom"], 3),
            (["bcol", "--k", "3"], True),
            (["fallcol", "--k", "3"], False),
        ):
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

        def counted(g, effort, search=routes.best_decomposition):
            built.append(effort)
            return search(g, effort)

        monkeypatch.setattr(routes, "best_decomposition", counted)
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
