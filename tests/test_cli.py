import json

import pytest

from bcoloring import Graph, InputError, linear_decomposition
from bcoloring.cli import (
    format_decomposition,
    format_graph,
    main,
    parse_coloring_text,
    parse_decomposition_text,
    parse_graph_text,
)

K2_COL = "p edge 2 1\ne 1 2\n"
STAR13_COL = "p edge 4 3\ne 1 2\ne 1 3\ne 1 4\n"
C5_COL = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"


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
        assert result["solver"] == "cw-dp"

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
        code, result, _ = run(capsys, ["bcol", "--graph", str(path), "--k", "9"])
        assert code == 0
        assert result["answer"] is False

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
        path = tmp_path / "c5.col"
        path.write_text(C5_COL)
        code, _, err = run(
            capsys,
            ["fallcol", "--graph", str(path), "--k", "2", "--solver", "vc"],
        )
        assert code == 2
        assert "vertex-cover" in err

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


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, result, err = run(
            capsys, ["bcol", "--graph", "/nonexistent.col", "--k", "2"]
        )
        assert code == 2
        assert result is None
        assert "input error" in err

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

    @pytest.mark.parametrize("solver", ["vc", "oracle"])
    def test_dec_needs_cw_solver(self, tmp_path, capsys, solver):
        path = tmp_path / "star.col"
        path.write_text(STAR13_COL)
        dec = str(tmp_path / "missing.dec")
        for argv in (["bchrom"], ["bcol", "--k", "2"], ["fallcol", "--k", "2"]):
            code, result, err = run(
                capsys,
                argv + ["--graph", str(path), "--solver", solver, "--dec", dec],
            )
            assert code == 2
            assert result is None
            assert "input error" in err

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
