import collections
import json
import operator
import random
import re
import time
import tracemalloc

import pytest

from bcoloring import (
    CapacityError,
    Coloring,
    Graph,
    InputError,
    best_decomposition,
    bcol_dp,
    bv_solver,
    fall_dp,
    linear_decomposition,
    module_width,
    oracle,
    routes,
    vc_solver,
)
from bcoloring.cli import (
    _MAX_VERTICES,
    build_parser,
    format_decomposition,
    format_graph,
    main,
    parse_coloring,
    parse_coloring_text,
    parse_decomposition,
    parse_decomposition_text,
    parse_graph,
    parse_graph_text,
)
from bcoloring.routes import ROUTES
from helpers import (
    graph_structure,
    outcome,
    random_graph,
    reference_exact_decomposition,
    reference_parse_graph_text,
)
from test_cli_contract import wide_bipartite

K2_COL = "p edge 2 1\ne 1 2\n"
STAR13_COL = "p edge 4 3\ne 1 2\ne 1 3\ne 1 4\n"
C5_COL = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
C6_COL = "p edge 6 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 6 1\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    result = json.loads(captured.out) if captured.out else None
    return code, result, captured.err


class TestParseGraph:
    def test_k2(self):
        assert parse_graph_text(K2_COL) == Graph.complete(2)

    def test_edgeless(self):
        assert parse_graph_text("p edge 3 0\n") == Graph.edgeless(3)

    def test_comments_ignored(self):
        assert parse_graph_text("c hello\np edge 2 1\nc mid\ne 1 2\n") == Graph.complete(2)

    def test_vertex_out_of_range(self):
        with pytest.raises(InputError, match="line 2"):
            parse_graph_text("p edge 3 1\ne 1 5\n")

    def test_self_loop(self):
        with pytest.raises(InputError, match="self-loop"):
            parse_graph_text("p edge 2 1\ne 1 1\n")

    def test_duplicate_edge(self):
        with pytest.raises(InputError, match="duplicate edge"):
            parse_graph_text("p edge 2 2\ne 1 2\ne 2 1\n")

    def test_edge_before_problem_line(self):
        with pytest.raises(InputError, match="before problem"):
            parse_graph_text("e 1 2\np edge 2 1\n")

    def test_missing_problem_line(self):
        with pytest.raises(InputError, match="missing problem"):
            parse_graph_text("c nothing here\n")

    def test_round_trip(self):
        for g in (Graph.complete(4), Graph.edgeless(3), Graph.star(5)):
            assert parse_graph_text(format_graph(g)) == g

    def test_edge_count_must_match(self):
        with pytest.raises(InputError, match="line 1: problem line declares 5 edges"):
            parse_graph_text("p edge 3 5\ne 1 2\n")
        with pytest.raises(InputError, match="line 2: problem line declares -1 edges"):
            parse_graph_text("c negative\np edge 3 -1\n")


# Line terminators: mostly newlines, some CRLF, now and then another of
# the separators str.splitlines splits at.
TERMINATORS = ["\n"] * 20 + ["\r\n"] * 6 + ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
ODD_NUMBERS = ["+2", "1_0", "-1", "0", "x", "1.0", "\u0663", "007", "2e0", ""]


def mutated_dimacs(rng: random.Random) -> str:
    """A small DIMACS text from a random graph, put through up to four
    random mutations, valid or not, joined with random field separators
    and line terminators."""
    n = rng.randint(0, 8)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4]
    rng.shuffle(pairs)
    problem = ["p", "edge", str(n), str(len(pairs))]
    lines = [problem] + [["e", *map(str, rng.choice([(u, v), (v, u)]))] for u, v in pairs]
    for _ in range(rng.randint(0, 4)):
        at = rng.randint(0, len(lines))
        edge_lines = [line for line in lines if line[:1] == ["e"] and len(line) == 3]
        kind = rng.randrange(12)
        if kind == 0:  # a blank line
            lines.insert(at, [rng.choice(["", " ", "\t"])])
        elif kind == 1:  # a comment line
            comments = [["c"], ["c", "hi"], ["cfoo", "1", "2"], ["comment", "e", "1"]]
            lines.insert(at, rng.choice(comments))
        elif kind == 2 and edge_lines:  # an odd number in an edge line
            rng.choice(edge_lines)[rng.randint(1, 2)] = rng.choice(ODD_NUMBERS + [str(n + 1)])
        elif kind == 3 and edge_lines:  # a duplicate edge, then one out of range
            lines[at:at] = [list(rng.choice(edge_lines)), ["e", "1", str(n + rng.randint(1, 3))]]
        elif kind == 4 and problem in lines:  # the problem line after the edges
            lines.remove(problem)
            lines.append(problem)
        elif kind == 5:  # a second problem line
            lines.insert(at, ["p", "edge", str(n), str(len(pairs))])
        elif kind == 6 and len(problem) == 4:  # another vertex or edge count
            counts = ODD_NUMBERS + [str(n - 1), str(n + 1), str(_MAX_VERTICES + 1)]
            problem[rng.choice([2, 3])] = rng.choice(counts)
        elif kind == 7:  # a self-loop
            lines.insert(at, ["e", *[str(rng.randint(1, n + 1))] * 2])
        elif kind == 8 and lines:  # a field too many or too few
            line = rng.choice(lines)
            if rng.random() < 0.5:
                line.append(rng.choice(["1", "x"]))
            elif len(line) > 1:
                line.pop()
        elif kind == 9:  # a line of no known kind
            unknown = [["x", "1", "2"], ["E", "1", "2"], ["P", "edge", "2", "1"]]
            lines.insert(at, rng.choice(unknown))
        elif kind == 10:  # a malformed problem line
            lines.insert(at, rng.choice([["p", "col", "3", "2"], ["p"], ["p", "edge", "3"]]))
        elif kind == 11 and lines:  # a line dropped
            del lines[rng.randrange(len(lines))]
    return joined(rng, lines)


def mutated_records(rng: random.Random, lines: list[list[str]]) -> str:
    """The fields of a decomposition or coloring file, put through up to
    four random mutations, valid or not, joined as mutated_dimacs joins."""
    for _ in range(rng.randint(0, 4)):
        at = rng.randint(0, len(lines))
        kind = rng.randrange(7)
        if kind == 0:  # a blank line
            lines.insert(at, [rng.choice(["", " ", "\t"])])
        elif kind == 1:  # a comment line
            lines.insert(at, rng.choice([["c"], ["c", "hi"], ["cfoo", "1", "2"]]))
        elif kind == 2 and lines:  # an odd value in some field
            line = rng.choice(lines)
            line[rng.randrange(len(line))] = rng.choice(ODD_NUMBERS + ["99", "leaf"])
        elif kind == 3 and lines:  # a line repeated
            lines.insert(at, list(rng.choice(lines)))
        elif kind == 4 and lines:  # a field too many or too few
            line = rng.choice(lines)
            if rng.random() < 0.5:
                line.append(rng.choice(["1", "x"]))
            elif len(line) > 1:
                line.pop()
        elif kind == 5:  # a line of no known kind
            lines.insert(at, rng.choice([["x", "1", "2"], ["N", "0", "leaf", "1"]]))
        elif kind == 6 and lines:  # a line dropped
            del lines[rng.randrange(len(lines))]
    return joined(rng, lines)


def joined(rng: random.Random, lines: list[list[str]]) -> str:
    """The lines' fields joined with random field separators, padding and
    line terminators; the last terminator is sometimes left off."""
    text = ""
    for line in lines:
        sep = rng.choice([" ", " ", "\t", "  ", " \t "])
        pad, trail = rng.choice(["", "", " ", "\t"]), rng.choice(["", "", " ", "\t"])
        text += pad + sep.join(line) + trail + rng.choice(TERMINATORS)
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")
    return text


def refusal_kind(message: str) -> str:
    """An error message with its numbers and quoted line blanked out."""
    return re.sub(r"\d+", "N", re.sub(r"'.*'|\".*\"", "'...'", message))


class TestParseGraphAgainstReference:
    """The one-loop parser against the layered one it replaced
    (helpers.reference_parse_graph_text, which checks the graph as
    Graph.__init__ did): every text gives the same graph, or the same
    exception type with the same message."""

    def test_mutated_texts(self):
        rng = random.Random(2025)
        kinds = collections.Counter()
        for _ in range(10_000):
            text = mutated_dimacs(rng)
            got = outcome(lambda t: graph_structure(parse_graph_text(t)), text)
            assert got == outcome(reference_parse_graph_text, text, _MAX_VERTICES), text
            kinds["graph" if got[0] == "ok" else refusal_kind(got[2])] += 1
        # Graphs are common, and so is every refusal the parser makes.
        assert kinds["graph"] > 2_000
        assert {kind for kind, count in kinds.items() if count >= 20} >= {
            "line N: edge line before problem line",
            "line N: vertex out of range N..N",
            "line N: self-loop at vertex N",
            "line N: duplicate edge",
            "line N: duplicate problem line",
            "line N: malformed problem line '...'",
            "line N: malformed edge line '...'",
            "line N: unrecognized line '...'",
            "line N: negative vertex count",
            "line N: N vertices, above the limit of N",
            "line N: problem line declares N edges, but N edge lines follow",
            "missing problem line",
        }, kinds

    def test_mutated_files(self, tmp_path):
        # The same kind of texts read from files, line by line as consumed.
        rng = random.Random(2026)
        for i in range(300):
            text = mutated_dimacs(rng)
            path = tmp_path / f"g{i}.col"
            path.write_bytes(text.encode())
            got = outcome(lambda p: graph_structure(parse_graph(p)), str(path))
            assert got == outcome(reference_parse_graph_text, text, _MAX_VERTICES), text


class TestParseFilesAgainstText:
    """Decomposition and coloring files, read line by line, parse as their
    texts do: the same result, or the same exception type and message."""

    @pytest.mark.parametrize("kind", ["decomposition", "coloring"])
    def test_mutated_files(self, tmp_path, kind):
        rng = random.Random(2027)
        texts, kinds = [], collections.Counter()
        for i in range(300):
            g = random_graph(rng, rng.randint(1, 6), 0.5)
            if kind == "decomposition":
                d = best_decomposition(g, "heuristic")
                lines = [line.split() for line in format_decomposition(d).splitlines()]
                parse_text, parse_file, result = parse_decomposition_text, parse_decomposition, shape
            else:
                lines = [[str(v + 1), str(rng.randint(1, 3))] for v in g.vertices()]
                rng.shuffle(lines)
                parse_text, parse_file = parse_coloring_text, parse_coloring
                result = operator.attrgetter("colors", "k")
            text = mutated_records(rng, lines)
            path = tmp_path / f"{kind}{i}.txt"
            path.write_bytes(text.encode())
            got = outcome(lambda p: result(parse_file(p, g)), str(path))
            assert got == outcome(lambda t: result(parse_text(t, g)), text), text
            texts.append(text)
            kinds["parsed" if got[0] == "ok" else refusal_kind(got[2])] += 1
        assert all(any(end in text for text in texts) for end in TERMINATORS)
        assert kinds["parsed"] >= 50 and len(kinds) >= 6, kinds


def shape(d, t=None):
    t = d.root if t is None else t
    if d.is_leaf(t):
        return ("leaf", d.leaf_vertex(t))
    left, right = d.children(t)
    return ("node", shape(d, left), shape(d, right))


class TestParseDecomposition:
    def test_k2_valid(self):
        g = Graph.complete(2)
        d = parse_decomposition_text(
            "n 0 internal 1 2\nn 1 leaf 1\nn 2 leaf 2\n", g
        )
        assert shape(d) == ("node", ("leaf", 0), ("leaf", 1))

    def test_missing_leaf(self):
        g = Graph.complete(2)
        with pytest.raises(InputError, match="leaf_map not bijective"):
            parse_decomposition_text("n 0 leaf 1\n", g)

    def test_three_children(self):
        g = Graph.complete(3)
        with pytest.raises(InputError, match="not binary"):
            parse_decomposition_text(
                "n 0 internal 1 2 3\nn 1 leaf 1\nn 2 leaf 2\nn 3 leaf 3\n", g
            )

    def test_cycle(self):
        g = Graph.complete(2)
        with pytest.raises(InputError):
            parse_decomposition_text(
                "n 0 internal 1 2\nn 1 internal 0 2\nn 2 leaf 1\n", g
            )

    def test_unknown_child(self):
        g = Graph.complete(2)
        with pytest.raises(InputError, match="unknown child"):
            parse_decomposition_text("n 0 internal 1 7\nn 1 leaf 1\n", g)

    def test_round_trip(self):
        g = Graph.path(5)
        d = linear_decomposition(g, [3, 1, 4, 0, 2])
        reparsed = parse_decomposition_text(format_decomposition(d), g)
        assert shape(reparsed) == shape(d)


class TestParseColoring:
    def test_valid(self):
        c = parse_coloring_text("1 1\n2 2\n3 1\n", Graph.path(3))
        assert c.colors == (1, 2, 1)
        assert c.k == 2

    def test_missing_vertex(self):
        with pytest.raises(InputError, match="misses"):
            parse_coloring_text("1 1\n", Graph.complete(2))

    def test_double_assignment(self):
        with pytest.raises(InputError, match="twice"):
            parse_coloring_text("1 1\n1 2\n2 1\n", Graph.complete(2))


class TestCommands:
    def test_bcol_with_witness(self, tmp_path, capsys):
        path = tmp_path / "k2.col"
        path.write_text(K2_COL)
        code, result, _ = run(
            capsys, ["bcol", "--graph", str(path), "--k", "2", "--witness"]
        )
        assert code == 0
        assert result["answer"] is True
        assert result["problem"] == "bcol"
        assert result["witness"]["coloring"] == [[1, 1], [2, 2]]
        assert result["witness"]["b_vertices"] == [1, 2]
        assert result["solver"] == "bv"

    def test_bcol_false(self, tmp_path, capsys):
        path = tmp_path / "k2.col"
        path.write_text(K2_COL)
        code, result, _ = run(capsys, ["bcol", "--graph", str(path), "--k", "1"])
        assert code == 0
        assert result["answer"] is False
        assert result["witness"] is None

    def test_bcol_k_beyond_n(self, tmp_path, capsys):
        path = tmp_path / "k2.col"
        path.write_text(K2_COL)
        argv = ["bcol", "--graph", str(path), "--k", "9"]
        code, result, _ = run(capsys, argv)
        assert code == 0
        assert result["answer"] is False
        # the automatic route ran no search and built no decomposition
        stats = result["stats"]
        assert result["solver"] == "bv"
        assert stats["decomposition_nodes"] is stats["module_width"] is None
        assert stats["max_table_size"] is None
        code, result, _ = run(capsys, argv + ["--solver", "cw"])
        assert code == 0
        assert result["answer"] is False
        # the cw route built and measured a decomposition, but ran no DP
        stats = result["stats"]
        assert (stats["decomposition_nodes"], stats["module_width"]) == (3, 1)
        assert stats["max_table_size"] is None
        path = tmp_path / "p3.col"
        path.write_text(format_graph(Graph.path(3)))
        argv = ["fallcol", "--graph", str(path), "--k", "5"]
        code, result, _ = run(capsys, argv)
        assert (code, result["answer"], result["solver"]) == (0, False, "bv")
        assert result["stats"]["decomposition_nodes"] is None
        code, result, _ = run(capsys, argv + ["--solver", "cw"])
        assert code == 0
        assert result["answer"] is False
        stats = result["stats"]
        assert stats["decomposition_nodes"] == 5
        assert stats["module_width"] is not None
        assert stats["max_table_size"] is None

    def test_bchrom_star(self, tmp_path, capsys):
        path = tmp_path / "star.col"
        path.write_text(STAR13_COL)
        code, result, _ = run(capsys, ["bchrom", "--graph", str(path)])
        assert code == 0
        assert result["answer"] == 2

    def test_fallcol_c5(self, tmp_path, capsys):
        path = tmp_path / "c5.col"
        path.write_text(C5_COL)
        code, result, _ = run(
            capsys, ["fallcol", "--graph", str(path), "--k", "3"]
        )
        assert code == 0
        assert result["answer"] is False

    def test_fallcol_witness(self, tmp_path, capsys):
        path = tmp_path / "c4.col"
        path.write_text("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
        code, result, _ = run(
            capsys, ["fallcol", "--graph", str(path), "--k", "2", "--witness"]
        )
        assert code == 0
        assert result["answer"] is True
        assert sorted(result["witness"]["b_vertices"]) == [1, 2, 3, 4]

    def test_fallcol_rejects_vc_solver(self, tmp_path, capsys):
        # fallcol's --solver takes the names of ROUTES["fallcol"] only, so
        # argparse refuses vc before anything is read; bv is the fall search.
        path = tmp_path / "c5.col"
        path.write_text(C5_COL)
        argv = ["fallcol", "--graph", str(path), "--k", "2", "--solver"]
        with pytest.raises(SystemExit) as exited:
            main(argv + ["vc"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'vc'" in captured.err
        code, result, _ = run(capsys, argv + ["bv"])
        assert (code, result["answer"], result["solver"]) == (0, False, "bv")

    def test_solvers_agree(self, tmp_path, capsys):
        path = tmp_path / "star.col"
        path.write_text(STAR13_COL)
        answers = {}
        for solver in ("cw", "vc", "oracle"):
            code, result, _ = run(
                capsys,
                ["bcol", "--graph", str(path), "--k", "2", "--solver", solver],
            )
            assert code == 0
            answers[solver] = result["answer"]
        assert answers == {"cw": True, "vc": True, "oracle": True}

    def test_decompose_and_reuse(self, tmp_path, capsys):
        graph_path = tmp_path / "c5.col"
        graph_path.write_text(C5_COL)
        dec_path = tmp_path / "c5.dec"
        code, result, _ = run(
            capsys,
            [
                "decompose",
                "--graph",
                str(graph_path),
                "--effort",
                "exact-tiny",
                "--out",
                str(dec_path),
            ],
        )
        assert code == 0
        assert result["answer"] >= 1  # the achieved module-width
        code, result, _ = run(
            capsys,
            [
                "bcol",
                "--graph",
                str(graph_path),
                "--k",
                "3",
                "--dec",
                str(dec_path),
            ],
        )
        assert code == 0
        assert result["answer"] is True

    def test_dec_without_solver_runs_cw(self, tmp_path, capsys):
        # Without a decomposition option the automatic route falls back to
        # vc on this graph (heuristic width 10, 9-vertex cover) when the
        # b-vertex search runs out; a given decomposition is run by cw.
        g = wide_bipartite()
        graph_path = tmp_path / "wide.col"
        graph_path.write_text(format_graph(g))
        dec_path = tmp_path / "wide.dec"
        code, result, _ = run(
            capsys,
            ["decompose", "--graph", str(graph_path), "--out", str(dec_path)],
        )
        assert code == 0
        assert result["answer"] == 10
        code, result, _ = run(
            capsys, ["bcol", "--graph", str(graph_path), "--k", "2", "--dec", str(dec_path)]
        )
        assert code == 0
        assert result["answer"] is True
        assert result["solver"] == "cw-dp"
        assert result["stats"]["module_width"] == 10
        assert result["stats"]["max_table_size"] is not None

    def test_bv_runs_build_no_masks(self, tmp_path, capsys, monkeypatch):
        # The b-vertex search reads neighbor sets only, so a request it
        # settles never builds the n-bit adjacency masks; a cw request does.
        built = []
        masks = Graph.adjacency_masks

        def counted(g):
            built.append(g)
            return masks(g)

        monkeypatch.setattr(Graph, "adjacency_masks", counted)
        g = Graph.path(200)
        assert bv_solver.search(g, 3) is not None and g._masks is None
        path = tmp_path / "p200.col"
        path.write_text(format_graph(g))
        graph = ["--graph", str(path), "--witness"]
        for request in (["bcol", "--k", "3"], ["bchrom"], ["bcol", "--k", "3", "--solver", "bv"]):
            code, result, _ = run(capsys, request + graph)
            assert (code, result["solver"]) == (0, "bv"), request
        assert built == []
        code, result, _ = run(capsys, ["bcol", "--k", "3", "--solver", "cw"] + graph)
        assert (code, result["answer"]) == (0, True)
        assert len(built) > 0

    def test_automatic_route_follows_its_rule(self, tmp_path, capsys, monkeypatch):
        # Without --solver, a bcol probe that the b-vertex search cannot
        # settle (here every probe: its budget is 0, and k = 1 on a graph
        # with edges meets a dead end at once) takes vc exactly when the
        # heuristic width it reports is above 8 and a cover of at most 12
        # vertices exists, over 60 seeded bipartite cover graphs (7-14
        # cover vertices, 15-30 outside vertices each joined to 2-5 of
        # them) that reach all three regions of the rule.
        monkeypatch.setattr(bv_solver, "SEARCH_BUDGET", 0)
        rng = random.Random(1)
        regions = set()
        for i in range(60):
            c, t = rng.randint(7, 14), rng.randint(15, 30)
            edges = [
                (u, x)
                for x in range(c, c + t)
                for u in sorted(rng.sample(range(c), rng.randint(2, 5)))
            ]
            g = Graph(c + t, edges)
            path = tmp_path / f"cover{i}.col"
            path.write_text(format_graph(g))
            code, result, _ = run(capsys, ["bcol", "--graph", str(path), "--k", "1"])
            assert code == 0
            width = result["stats"]["module_width"]
            small_cover = vc_solver.vertex_cover_within(g, 12) is not None
            if width <= 8:
                regions.add("narrow")
            else:
                regions.add("wide, small cover" if small_cover else "wide, large cover")
            expected = "vc" if width > 8 and small_cover else "cw-dp"
            assert result["solver"] == expected, (i, width, small_cover)
        assert regions == {"narrow", "wide, small cover", "wide, large cover"}

    def test_empty_graph(self, tmp_path, capsys):
        # bcol answers false on the empty graph, but a given --dec is read
        # and refused: no file decomposes it.  bchrom and decompose refuse
        # the graph itself.
        graph_path = tmp_path / "empty.col"
        graph_path.write_text("p edge 0 0\n")
        graph = ["--graph", str(graph_path)]
        leaf_dec, empty_dec = tmp_path / "leaf.dec", tmp_path / "empty.dec"
        leaf_dec.write_text("n 0 leaf 1\n")
        empty_dec.write_text("")
        for dec, message in ((leaf_dec, "out of range"), (empty_dec, "lists no nodes")):
            code, result, err = run(capsys, ["bcol", *graph, "--k", "1", "--dec", str(dec)])
            assert (code, result) == (2, None)
            assert message in err
        code, result, _ = run(capsys, ["bcol", *graph, "--k", "1"])
        assert code == 0
        assert result["answer"] is False
        for argv in (["bchrom"], ["decompose", "--out", str(tmp_path / "out.dec")]):
            code, result, err = run(capsys, [*argv, *graph])
            assert (code, result) == (2, None)
            assert err.startswith("input error:")

    def test_verify_modes(self, tmp_path, capsys):
        graph_path = tmp_path / "c4.col"
        graph_path.write_text("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
        coloring_path = tmp_path / "c4.sol"
        coloring_path.write_text("1 1\n2 2\n3 1\n4 2\n")
        for mode in ("b", "fall"):
            code, result, _ = run(
                capsys,
                [
                    "verify",
                    "--graph",
                    str(graph_path),
                    "--coloring",
                    str(coloring_path),
                    "--mode",
                    mode,
                ],
            )
            assert code == 0
            assert result["answer"] is True

    def test_selftest(self, capsys):
        code, result, _ = run(
            capsys, ["selftest", "--n-max", "4", "--trials", "6", "--seed", "3"]
        )
        assert code == 0
        assert result["answer"] is True
        assert result["mismatches"] == []
        assert result["stats"]["checks"] > 0

    def test_selftest_counts_give_ups(self, capsys, monkeypatch):
        # With no budget the b-vertex search gives up on some probes and
        # chi_b loops: selftest counts those calls in gave_up, exits 0 and
        # still compares every other route call, cw, vc and the fall DP
        # against the oracle.
        argv = ["selftest", "--n-max", "5", "--trials", "3"]
        code, full, _ = run(capsys, argv)
        assert (code, full["stats"]["gave_up"]) == (0, 0)
        monkeypatch.setattr(bv_solver, "SEARCH_BUDGET", 0)
        code, result, _ = run(capsys, argv)
        assert code == 0
        assert result["answer"] is True
        assert result["mismatches"] == []
        stats = result["stats"]
        assert stats["gave_up"] > 0
        assert stats["checks"] + stats["gave_up"] == full["stats"]["checks"]

    def test_verify_color_above_n(self, tmp_path, capsys):
        # A color above n leaves a class empty: false, without building a
        # class for every color up to the largest.
        graph_path = tmp_path / "k2.col"
        graph_path.write_text(K2_COL)
        coloring_path = tmp_path / "k2.sol"
        coloring_path.write_text("1 1\n2 300000\n")
        for mode in ("b", "fall"):
            argv = ["verify", "--graph", str(graph_path)]
            argv += ["--coloring", str(coloring_path), "--mode", mode]
            tracemalloc.start()
            try:
                code, result, _ = run(capsys, argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
            assert result["answer"] is False
            assert result["k"] == 300000
            assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "argv",
        [
            ["bcol", "--k", "3", "--solver", "cw"],
            ["bcol", "--k", "3"],
            ["bcol", "--k", "3", "--solver", "vc"],
            ["fallcol", "--k", "3", "--solver", "cw"],
            ["fallcol", "--k", "3"],
        ],
        ids=["bcol-cw", "bcol-bv", "bcol-vc", "fallcol-cw", "fallcol-bv"],
    )
    def test_witness_checked_once(self, tmp_path, capsys, monkeypatch, argv):
        calls = []
        # Every route checks its witness through the oracle module.
        for name in ("is_b_coloring", "is_fall_coloring"):

            def counted(g, c, checker=getattr(oracle, name)):
                calls.append(checker)
                return checker(g, c)

            monkeypatch.setattr(oracle, name, counted)
        path = tmp_path / "c6.col"
        path.write_text(C6_COL)
        code, result, _ = run(capsys, argv + ["--graph", str(path), "--witness"])
        assert code == 0
        assert result["answer"] is True
        assert result["witness"] is not None
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2, 4])
    def test_bchrom_witness_runs_one_dp_per_probe(
        self, tmp_path, capsys, monkeypatch, seed
    ):
        # k runs from m(G) down to chi_b, and the witness comes from the
        # probe at chi_b: no DP is run again for it.
        g = random_graph(random.Random(seed), 9, 0.35)
        runs = []

        def counted(*args, dp=bcol_dp._run_dp, **kwargs):
            runs.append(args[2])
            return dp(*args, **kwargs)

        monkeypatch.setattr(bcol_dp, "_run_dp", counted)
        path = tmp_path / "g.col"
        path.write_text(format_graph(g))
        argv = ["bchrom", "--graph", str(path), "--solver", "cw", "--witness"]
        code, result, _ = run(capsys, argv)
        assert code == 0
        chi_b = result["answer"]
        assert len({color for _, color in result["witness"]["coloring"]}) == chi_b
        assert runs == list(range(g.m_degree(), chi_b - 1, -1))

    @pytest.mark.parametrize(
        "module, name, problem, route, also_chi_b",
        [
            (vc_solver, "solve_bcoloring_vc_witness", "bcol", "vc", True),
            (fall_dp, "solve_fallcoloring_witness", "fallcol", "cw", False),
        ],
        ids=["bcol-vc", "fallcol-cw"],
    )
    def test_selftest_reports_lost_witness(
        self, capsys, monkeypatch, module, name, problem, route, also_chi_b
    ):
        monkeypatch.setattr(module, name, lambda *args: None)
        code, result, _ = run(
            capsys, ["selftest", "--n-max", "4", "--trials", "6", "--seed", "3"]
        )
        assert code == 0
        assert result["answer"] is False
        assert result["mismatches"]
        chi_b_records = [r for r in result["mismatches"] if r["problem"] == "bchrom"]
        # chi_b through the same route finds no k with a witness, once per trial
        assert len(chi_b_records) == (6 if also_chi_b else 0)
        for record in chi_b_records:
            assert record["oracle"] >= 1
            assert record[route] == 0
            assert record["witness"] is False
        for record in result["mismatches"]:
            if record in chi_b_records:
                continue
            assert record["problem"] == problem
            assert record["oracle"] is True
            assert record[route] is False


class TestOneRequestPath:
    """chi_b is found by one loop, bcol_dp.chi_b, and the cw decision at one
    k by one function, bcol_dp.decide, whoever asks."""

    def test_every_chi_b_goes_through_the_library_loop(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def counted(route, *args, loop=bcol_dp.chi_b, **kwargs):
            calls.append(route)
            return loop(route, *args, **kwargs)

        monkeypatch.setattr(bcol_dp, "chi_b", counted)
        g = Graph.cycle(5)
        assert bcol_dp.b_chromatic_number(g, best_decomposition(g)) == 3
        assert calls == [bcol_dp.decide]
        path = tmp_path / "c5.col"
        path.write_text(C5_COL)
        # The automatic route is a fresh routes._Automatic per request.
        automatic = "automatic"

        def named(route):
            return automatic if isinstance(route, routes._Automatic) else route

        for solver in ("cw", "vc", "oracle", "bv", None):
            calls.clear()
            argv = ["bchrom", "--graph", str(path), "--witness"]
            code, result, _ = run(capsys, argv + (["--solver", solver] if solver else []))
            assert (code, result["answer"]) == (0, 3)
            assert [named(route) for route in calls] == [
                ROUTES["bcol"][solver] if solver else automatic
            ]
        calls.clear()
        code, result, _ = run(
            capsys, ["selftest", "--n-max", "4", "--trials", "3", "--seed", "5"]
        )
        assert (code, result["answer"]) == (0, True)
        expected = [ROUTES["bcol"][name] for name in ("cw", "vc", "bv")] + [automatic]
        assert [named(route) for route in calls] == expected * 3

    def test_each_cw_decision_builds_its_tables_once(self, monkeypatch):
        built = []

        def counted(g, d, k, tables=bcol_dp._decision_tables):
            built.append(k)
            return tables(g, d, k)

        monkeypatch.setattr(bcol_dp, "_decision_tables", counted)
        g = Graph.cycle(5)
        d = best_decomposition(g)
        assert ROUTES["bcol"]["cw"] is bcol_dp.decide
        assert bcol_dp.solve_bcoloring(g, d, 3)
        assert built == [3]
        assert bcol_dp.solve_bcoloring_witness(g, d, 3) is not None
        assert built == [3, 3]
        answer, found, size = ROUTES["bcol"]["cw"](g, d, 3, True)
        assert answer and found is not None and size > 0
        assert built == [3, 3, 3]


class TestExitCodes:
    def test_out_of_memory_is_a_capacity_refusal(self, tmp_path, capsys, monkeypatch):
        # A request that runs out of memory is refused like any request
        # past a limit: exit 3, no document, and no traceback.
        def exhausted(g, d, k, witness):
            raise MemoryError

        monkeypatch.setitem(ROUTES["bcol"], "bv", exhausted)
        path = tmp_path / "k2.col"
        path.write_text(K2_COL)
        for argv in (["bcol", "--k", "2", "--solver", "bv"], ["bchrom", "--witness"]):
            code, result, err = run(capsys, argv + ["--graph", str(path)])
            assert (code, result) == (3, None), argv
            assert err == "capacity error: out of memory\n", argv

    def test_missing_file(self, capsys):
        code, result, err = run(
            capsys, ["bcol", "--graph", "/nonexistent.col", "--k", "2"]
        )
        assert code == 2
        assert result is None
        assert "input error" in err
        assert "cannot read /nonexistent.col" in err

    def test_malformed_graph(self, tmp_path, capsys):
        path = tmp_path / "bad.col"
        path.write_text("p edge 2 1\ne 1 9\n")
        code, _, err = run(capsys, ["bcol", "--graph", str(path), "--k", "1"])
        assert code == 2

    def test_oracle_capacity(self, tmp_path, capsys):
        path = tmp_path / "big.col"
        path.write_text("p edge 11 0\n")
        code, _, err = run(
            capsys,
            ["bcol", "--graph", str(path), "--k", "1", "--solver", "oracle"],
        )
        assert code == 3
        assert "capacity" in err

    def test_vertex_count_capacity(self, tmp_path, capsys):
        # A 17-byte file declaring two million vertices is refused at its
        # problem line, before a graph is built for it.
        path = tmp_path / "huge.col"
        path.write_text("p edge 2000000 0")
        argv = ["bcol", "--graph", str(path), "--k", "1"]
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, result, err = run(capsys, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert result is None
        assert "line 1: 2000000 vertices, above the limit of 100000" in err
        assert time.perf_counter() - start < 1.0
        assert peak < 2**20
        with pytest.raises(CapacityError):
            parse_graph_text("p edge 100001 0\n")

    def test_vertex_count_capacity_reads_no_further(self, tmp_path, capsys):
        # The graph file is read line by line: a problem line above the cap
        # is refused before the 10 MB of comment lines after it are read.
        path = tmp_path / "huge.col"
        with open(path, "w") as handle:
            handle.write("p edge 2000000 0\n")
            handle.writelines("c " + "x" * 97 + "\n" for _ in range(100_000))
        assert path.stat().st_size >= 10 * 10**6
        argv = ["bcol", "--graph", str(path), "--k", "1"]
        tracemalloc.start()
        try:
            code, result, err = run(capsys, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert result is None
        assert "line 1: 2000000 vertices, above the limit of 100000" in err
        assert peak < 2 * 2**20

    def test_exact_tiny_capacity(self, tmp_path, capsys):
        path = tmp_path / "big.col"
        path.write_text("p edge 9 0\n")
        code, _, _ = run(
            capsys,
            [
                "decompose",
                "--graph",
                str(path),
                "--effort",
                "exact-tiny",
                "--out",
                str(tmp_path / "out.dec"),
            ],
        )
        assert code == 3

    def test_decompose_unwritable_out(self, tmp_path, capsys):
        path = tmp_path / "c5.col"
        path.write_text(C5_COL)
        out = tmp_path / "no-such-dir" / "c5.dec"
        code, result, err = run(
            capsys, ["decompose", "--graph", str(path), "--out", str(out)]
        )
        assert code == 2
        assert result is None
        assert "cannot write" in err

    @pytest.mark.parametrize("solver", ["vc", "oracle", "bv"])
    def test_dec_needs_cw_solver(self, tmp_path, capsys, solver):
        path = tmp_path / "star.col"
        path.write_text(STAR13_COL)
        dec = str(tmp_path / "missing.dec")
        for argv in (["bchrom"], ["bcol", "--k", "2"], ["fallcol", "--k", "2"]):
            argv = argv + ["--graph", str(path), "--solver", solver, "--dec", dec]
            if solver not in ROUTES["fallcol"] and argv[0] == "fallcol":
                # Not a fallcol route: argparse refuses the choice.
                with pytest.raises(SystemExit) as exited:
                    main(argv)
                assert exited.value.code == 2
                assert capsys.readouterr().out == ""
                continue
            code, result, err = run(capsys, argv)
            assert code == 2
            assert result is None
            assert "input error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bchrom", "--dec-effort", "exact-tiny"],
            ["bcol", "--k", "2", "--dec-effort", "heuristic"],
            ["fallcol", "--k", "2", "--dec-effort", "exact-tiny"],
        ],
        ids=["bchrom", "bcol", "fallcol"],
    )
    def test_no_dec_effort_option(self, tmp_path, capsys, argv):
        # A solve's decomposition comes from --dec or the heuristic search;
        # an exact one is decompose --effort exact-tiny's, passed by --dec.
        path = tmp_path / "c5.col"
        path.write_text(C5_COL)
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--graph", str(path)])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --dec-effort" in captured.err

    @pytest.mark.parametrize("bad", ["graph", "dec", "coloring"])
    def test_non_utf8_file(self, tmp_path, capsys, bad):
        paths = {}
        for name, text in (("graph", STAR13_COL), ("dec", ""), ("coloring", "")):
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text)
        paths[bad].write_bytes(b"\xffp edge 4 3\n")
        if bad == "coloring":
            argv = ["verify", "--coloring", str(paths[bad]), "--mode", "b"]
        else:
            argv = ["bcol", "--k", "2"]
            if bad == "dec":
                argv += ["--dec", str(paths[bad])]
        code, result, err = run(capsys, argv + ["--graph", str(paths["graph"])])
        assert code == 2
        assert result is None
        assert "input error" in err
        assert f"cannot read {paths[bad]}: not UTF-8 text" in err

    def test_non_utf8_byte_far_into_graph_file(self, tmp_path, capsys):
        # The graph file is decoded as it is read: a bad byte past the
        # first read buffer is still an input error with the same message.
        path = tmp_path / "late.col"
        path.write_bytes(b"p edge 2 1\n" + b"c padding\n" * 4000 + b"\xff\ne 1 2\n")
        code, result, err = run(capsys, ["bcol", "--graph", str(path), "--k", "1"])
        assert code == 2
        assert result is None
        assert f"cannot read {path}: not UTF-8 text" in err

    @pytest.mark.parametrize("bad", ["dec", "coloring"])
    def test_bad_first_line_refused_before_a_later_bad_byte(self, tmp_path, capsys, bad):
        # Decomposition and coloring files are read line by line, as graph
        # files are: a bad first line is refused before the undecodable
        # byte after 64 KiB of comment lines is read.
        graph = tmp_path / "k2.col"
        graph.write_text(K2_COL)
        path = tmp_path / f"bad.{bad}"
        first = "n x leaf 1" if bad == "dec" else "1 x"
        padding = b"c padding\n" * (64 * 1024 // 10 + 1)
        path.write_bytes(first.encode() + b"\n" + padding + b"\xff\n")
        if bad == "dec":
            argv = ["bcol", "--k", "1", "--dec", str(path)]
            message = "line 1: malformed node line 'n x leaf 1'"
        else:
            argv = ["verify", "--coloring", str(path), "--mode", "b"]
            message = "line 1: malformed coloring line '1 x'"
        code, result, err = run(capsys, argv + ["--graph", str(graph)])
        assert (code, result) == (2, None)
        assert message in err

    @pytest.mark.parametrize("bad", ["graph", "dec", "coloring"])
    def test_long_bad_line_quoted_in_part(self, tmp_path, capsys, bad):
        # A malformed line is quoted up to a fixed length, so a huge line
        # makes a short message of the usual form.
        graph = tmp_path / "k2.col"
        graph.write_text(K2_COL)
        first, what = {
            "graph": ("p edge 2000000 0 ", "problem"),
            "dec": ("n ", "node"),
            "coloring": ("1 1 ", "coloring"),
        }[bad]
        path = tmp_path / f"long.{bad}"
        path.write_text(first + "x" * 100_000)
        argv = {
            "graph": ["bcol", "--k", "1", "--graph", str(path)],
            "dec": ["bcol", "--k", "1", "--graph", str(graph), "--dec", str(path)],
            "coloring": ["verify", "--mode", "b", "--graph", str(graph), "--coloring", str(path)],
        }[bad]
        code, result, err = run(capsys, argv)
        assert (code, result) == (2, None)
        quoted = (first + "x" * 100)[:80]
        assert f"line 1: malformed {what} line {quoted!r} (the first 80 of " in err
        assert len(err) < 300

    @pytest.mark.parametrize("bad", ["coloring", "dec"])
    def test_long_vertex_lists_cut(self, tmp_path, capsys, bad):
        # An error naming the vertices a file misses names a few of them
        # and how many there are, however many it misses.
        if bad == "coloring":
            graph = tmp_path / "edgeless.col"
            graph.write_text("p edge 100000 0\n")
            path = tmp_path / "one.sol"
            path.write_text("1 1\n")
            argv = ["verify", "--mode", "b", "--coloring", str(path)]
            message = "coloring misses vertices 2, 3, 4, 5, 6 (the first 5 of 99999)"
        else:
            graph = tmp_path / "edgeless.col"
            graph.write_text("p edge 20000 0\n")
            path = tmp_path / "short.dec"
            path.write_text(format_decomposition(linear_decomposition(Graph.edgeless(19_999), range(19_999))))
            argv = ["bcol", "--k", "1", "--dec", str(path)]
            message = "decomposition covers 19999 vertices, graph has vertices 0..19999; missing 19999"
        code, result, err = run(capsys, argv + ["--graph", str(graph)])
        assert (code, result) == (2, None)
        assert message in err
        assert len(err) < 300

    def test_graph_file_lines_numbered_as_text_lines(self, tmp_path):
        # A file is split into the lines str.splitlines gives for its text,
        # so an error names the same line whether read from a file or text.
        text = "c a\x0cc b\r\np edge 3 2\r\ne 1 2\x0b\ne 2 3\x1ce 3 9\n"
        path = tmp_path / "odd.col"
        path.write_bytes(text.encode())
        with pytest.raises(InputError, match="line 7: vertex out of range") as from_text:
            parse_graph_text(text.replace("\r\n", "\n"))
        with pytest.raises(InputError) as from_file:
            parse_graph(str(path))
        assert str(from_file.value) == str(from_text.value)

    def test_dec_leaf_out_of_range(self, tmp_path, capsys):
        # A leaf vertex outside 1..n is refused by its line, before a tree
        # (whose vertex masks would have a bit per id) is built.
        graph = tmp_path / "k2.col"
        graph.write_text(K2_COL)
        dec = tmp_path / "far.dec"
        dec.write_text(f"n 0 internal 1 2\nn 1 leaf 1\nn 2 leaf {10**6}\n")
        argv = ["bcol", "--graph", str(graph), "--k", "1", "--dec", str(dec)]
        code, result, err = run(capsys, argv)
        assert code == 2
        assert result is None
        assert "line 3: leaf vertex out of range 1..2" in err
        text = f"n 0 internal 1 2\nn 1 leaf 1\nn 2 leaf {10**9}\n"
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="line 3"):
                parse_decomposition_text(text, Graph.complete(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_selftest_capacity(self, capsys):
        code, _, _ = run(capsys, ["selftest", "--n-max", "11", "--trials", "1"])
        assert code == 3


def test_deterministic_output_modulo_timing(tmp_path, capsys):
    path = tmp_path / "star.col"
    path.write_text(STAR13_COL)
    results = []
    for _ in range(2):
        code, result, _ = run(
            capsys, ["bcol", "--graph", str(path), "--k", "2", "--witness"]
        )
        assert code == 0
        del result["stats"]["wall_time_s"]
        results.append(result)
    assert results[0] == results[1]


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main() builds its parser once per process.  A bcol, a malformed call,
    # a bchrom and a decompose run back to back give what each gives when
    # it runs first, on a freshly built parser.
    path = tmp_path / "c5.col"
    path.write_text(C5_COL)
    out = tmp_path / "c5.dec"
    calls = [
        ["bcol", "--graph", str(path), "--k", "3", "--witness"],
        ["bcol", "--graph", str(path)],  # no --k
        ["bchrom", "--graph", str(path), "--witness"],
        ["decompose", "--graph", str(path), "--out", str(out)],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        result = json.loads(captured.out) if captured.out else None
        if result is not None:
            del result["stats"]["wall_time_s"]
        written = out.read_text() if argv[0] == "decompose" else None
        return code, result, captured.err, written

    first = []
    for argv in calls:
        build_parser.cache_clear()
        first.append(outcome(argv))
    build_parser.cache_clear()
    assert [outcome(argv) for argv in calls] == first
    assert build_parser.cache_info().misses == 1
    assert [code for code, *_ in first] == [0, 2, 0, 0]


WITNESS_SOURCES = {
    "solve_bcoloring_witness": bcol_dp.solve_bcoloring_witness,
    "solve_bcoloring_vc_witness": lambda g, d, k: vc_solver.solve_bcoloring_vc_witness(
        g, k
    ),
    **{
        f"route-{name}": lambda g, d, k, route=route: route(g, d, k, True)[1]
        for name, route in ROUTES["bcol"].items()
    },
}


@pytest.mark.parametrize("source", sorted(WITNESS_SOURCES))
def test_bcoloring_witness_is_coloring_with_one_b_vertex_per_class(source):
    graphs = [
        Graph.edgeless(2),
        Graph.star(3),
        Graph.path(5),
        Graph.cycle(6),
        Graph.cycle(5),
        Graph.complete(3),
        Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
    ]
    checked = 0
    for g in graphs:
        d = best_decomposition(g, "heuristic")
        for k in range(1, g.n + 1):
            if oracle.brute_force_bcoloring(g, k) is None:
                continue
            coloring, b_vertices = WITNESS_SOURCES[source](g, d, k)
            assert isinstance(coloring, Coloring) and coloring.k == k
            assert isinstance(b_vertices, frozenset)
            assert sorted(coloring.colors[b] for b in b_vertices) == list(
                range(1, k + 1)
            )
            for b in b_vertices:
                seen = {coloring.colors[u] for u in g.neighbors(b)}
                assert seen == set(range(1, k + 1)) - {coloring.colors[b]}
            checked += 1
    assert checked == 9


class TestSelfCheckFailures:
    """A witness that fails its definitional check is a fault of the
    program, not of the input: it escapes main as a RuntimeError (exit 1
    with a traceback), never exit 2 or 3."""

    @pytest.mark.parametrize(
        "module, name, argv, message",
        [
            (
                oracle,
                "is_b_coloring",
                ["bcol", "--k", "2", "--solver", "cw", "--witness"],
                "reconstructed witness failed the b-coloring check",
            ),
            (
                oracle,
                "is_b_coloring",
                ["bcol", "--k", "2"],
                "b-vertex search witness failed the b-coloring check",
            ),
            (
                oracle,
                "is_b_coloring",
                ["bcol", "--k", "2", "--solver", "vc"],
                "completed cover guess failed the b-coloring check",
            ),
            (
                oracle,
                "is_fall_coloring",
                ["fallcol", "--k", "2", "--solver", "cw", "--witness"],
                "reconstructed witness failed the fall-coloring check",
            ),
            (
                oracle,
                "is_fall_coloring",
                ["fallcol", "--k", "2"],
                "fall search witness failed the fall-coloring check",
            ),
        ],
        ids=["bcol-cw", "bcol-bv", "bcol-vc", "fallcol-cw", "fallcol-bv"],
    )
    def test_raises_out_of_main(
        self, tmp_path, capsys, monkeypatch, module, name, argv, message
    ):
        monkeypatch.setattr(module, name, lambda g, c: False)
        path = tmp_path / "p3.col"
        path.write_text(format_graph(Graph.path(3)))
        with pytest.raises(RuntimeError, match=message) as caught:
            main(argv + ["--graph", str(path)])
        assert type(caught.value) is RuntimeError  # not a CapacityError (exit 3)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("route", ["cw", "bv", "vc"])
    def test_wrong_b_vertices_raise_out_of_main(self, tmp_path, capsys, monkeypatch, route):
        # Each route checks the b-vertices it names, not only its coloring:
        # a set that misses a class, patched in where the route builds it,
        # fails the check.
        def spoil(module, name, wrong):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args: wrong(real(*args)))

        if route == "cw":
            spoil(bcol_dp, "_realize", lambda found: (found[0], frozenset(sorted(found[1])[1:])))
            message = "reconstructed witness failed the b-vertex check"
        elif route == "bv":
            spoil(bv_solver, "_need_search", lambda found: found and (found[0], found[1][1:]))
            message = "b-vertex search witness failed the b-vertex check"
        else:
            # Each color without a guessed b-vertex takes its completer as
            # its b-vertex; a cover vertex stands in for every completer.
            spoil(
                vc_solver,
                "_cover_coloring",
                lambda facts: facts
                and facts._replace(completer=dict.fromkeys(facts.completer, min(facts.phi))),
            )
            message = "completed cover guess failed the b-vertex check"
        path = tmp_path / "p3.col"
        path.write_text(format_graph(Graph.path(3)))
        argv = ["bcol", "--k", "2", "--solver", route, "--witness", "--graph", str(path)]
        with pytest.raises(RuntimeError, match=message) as caught:
            main(argv)
        assert type(caught.value) is RuntimeError
        assert capsys.readouterr().out == ""

    def test_non_fall_witness_raises_out_of_main(self, tmp_path, capsys, monkeypatch):
        # The fall route checks its coloring with the real checker: one
        # color for every vertex, patched in where the search builds it,
        # fails the check.
        def one_color(*args, search=bv_solver._need_search, **kwargs):
            found = search(*args, **kwargs)
            return found and ([1] * len(found[0]), found[1])

        monkeypatch.setattr(bv_solver, "_need_search", one_color)
        path = tmp_path / "p3.col"
        path.write_text(format_graph(Graph.path(3)))
        argv = ["fallcol", "--k", "2", "--graph", str(path)]
        with pytest.raises(RuntimeError, match="fall search witness failed") as caught:
            main(argv)
        assert type(caught.value) is RuntimeError
        assert capsys.readouterr().out == ""


def exact_tiny_graphs():
    """Seeded graphs with n from 1 to 8, two of each size from 5 on."""
    rng = random.Random(31)
    sizes = [1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 8, 8]
    return [random_graph(rng, n, rng.uniform(0.2, 0.8)) for n in sizes]


class TestDecEffortExactTiny:
    """decompose --effort exact-tiny, passed back by --dec, gives the
    answers, witnesses and width that the library gives on
    best_decomposition(g, "exact-tiny"), at the exact width."""

    @pytest.mark.parametrize("index", range(len(exact_tiny_graphs())))
    def test_answers_and_width(self, tmp_path, capsys, index):
        g = exact_tiny_graphs()[index]
        graph_path = tmp_path / "g.col"
        graph_path.write_text(format_graph(g))
        dec_path = tmp_path / "g.dec"
        code, result, _ = run(
            capsys,
            [
                "decompose",
                "--graph",
                str(graph_path),
                "--effort",
                "exact-tiny",
                "--out",
                str(dec_path),
            ],
        )
        assert code == 0
        exact = reference_exact_decomposition(g)[1]
        assert result["answer"] == exact
        d = best_decomposition(g, "exact-tiny")
        assert module_width(g, d) == exact

        # (request, answer, coloring, b-vertices) by the library; no
        # coloring has more colors than vertices.
        chi_b, (coloring, b_vertices), _ = bcol_dp.chi_b(bcol_dp.decide, g, d, True)
        expected = [(["bchrom"], chi_b, coloring, b_vertices)]
        for k in (2, 3):
            answer, found, _ = bcol_dp.decide(g, d, k, True) if k <= g.n else (False, None, None)
            expected.append((["bcol", "--k", str(k)], answer, *(found or (None, None))))
            coloring = fall_dp.solve_fallcoloring_witness(g, d, k) if k <= g.n else None
            expected.append(
                (["fallcol", "--k", str(k)], coloring is not None, coloring, g.vertices())
            )
        for request, answer, coloring, b_vertices in expected:
            argv = request + ["--graph", str(graph_path), "--witness", "--dec", str(dec_path)]
            code, result, _ = run(capsys, argv)
            assert code == 0, request
            witness = coloring and {
                "coloring": [[v + 1, color] for v, color in enumerate(coloring.colors)],
                "b_vertices": sorted(v + 1 for v in b_vertices),
            }
            assert (result["answer"], result["witness"]) == (answer, witness), request
            assert result["solver"] == "cw-dp", request
            assert result["stats"]["module_width"] == exact, request

    @pytest.mark.parametrize(
        ("request_", "answer"),
        [(["bcol", "--k", "2"], True), (["bchrom"], 3), (["fallcol", "--k", "2"], True)],
        ids=["bcol", "bchrom", "fallcol"],
    )
    def test_nine_vertices_refused(self, tmp_path, capsys, request_, answer):
        """exact-tiny refuses 9 vertices and writes no file, so a solve
        command handed that --dec is refused as bad input; without --dec
        the command still answers on its own route."""
        path = tmp_path / "p9.col"
        path.write_text(format_graph(Graph.path(9)))
        out = tmp_path / "p9.dec"
        code, result, err = run(
            capsys,
            ["decompose", "--graph", str(path), "--effort", "exact-tiny", "--out", str(out)],
        )
        assert code == 3
        assert result is None
        assert "exact-tiny" in err
        assert not out.exists()

        code, result, _ = run(capsys, request_ + ["--graph", str(path), "--dec", str(out)])
        assert code == 2
        assert result is None
        code, result, _ = run(capsys, request_ + ["--graph", str(path)])
        assert code == 0
        assert result["answer"] == answer
