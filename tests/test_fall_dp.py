import random

import pytest

from bcoloring import (
    Graph,
    InputError,
    best_decomposition,
    brute_force_fallcoloring,
    is_fall_coloring,
    linear_decomposition,
    solve_fallcoloring,
    solve_fallcoloring_witness,
)
from bcoloring.bcol_dp import (
    CONTAINS,
    DEMAND,
    NONE,
    ClassType,
    decision_accepting,
    signature,
    type_counts,
)
from bcoloring.decomposition import _annotate
from bcoloring.fall_dp import compute_fall_tables, fall_leaf_signature
from helpers import (
    canonical_image,
    compatible,
    completable,
    enumerate_fall_signatures,
    fall_class_is_valid,
    fall_type_of_class,
    merge_type,
    nonempty_class_count,
    operator_of,
    random_graph,
)

FC = ClassType((CONTAINS,), 0)
FD = ClassType((DEMAND,), 0)
FN = ClassType((NONE,), 0)


class TestFallTypeOfClass:
    def test_leaf_own_color(self):
        g = Graph.complete(2)
        d = linear_decomposition(g, [0, 1])
        leaf = next(t for t in d.leaves() if d.leaf_vertex(t) == 0)
        assert fall_type_of_class(g, d, leaf, {0}, {0: 1}) == FC

    def test_leaf_other_color_demands(self):
        g = Graph.complete(2)
        d = linear_decomposition(g, [0, 1])
        leaf = next(t for t in d.leaves() if d.leaf_vertex(t) == 0)
        assert fall_type_of_class(g, d, leaf, set(), {0: 1}) == FD

    def test_k2_root_contains(self):
        g = Graph.complete(2)
        d = linear_decomposition(g, [0, 1])
        assert fall_type_of_class(g, d, d.root, {0}, {0: 1, 1: 2}) == FC

    def test_rejects_improper_coloring(self):
        g = Graph.complete(2)
        d = linear_decomposition(g, [0, 1])
        with pytest.raises(InputError, match="proper"):
            fall_type_of_class(g, d, d.root, {0, 1}, {0: 1, 1: 1})


class TestFallCompatibility:
    def test_k2_contains_contains_incompatible(self):
        g = Graph.complete(2)
        d = linear_decomposition(g, [0, 1])
        op = operator_of(g, d, d.root)
        assert not compatible(FC, FC, op)

    def test_k2_contains_demand_merges_to_contains(self):
        g = Graph.complete(2)
        d = linear_decomposition(g, [0, 1])
        op = operator_of(g, d, d.root)
        assert compatible(FC, FD, op)
        assert merge_type(FC, FD, op) == FC

    def test_no_h_edge_demand_stays_open(self):
        g = Graph.edgeless(2)
        d = linear_decomposition(g, [0, 1])
        op = operator_of(g, d, d.root)
        assert compatible(FD, FN, op)
        assert merge_type(FD, FN, op) == FD

    def test_merge_requires_compatibility(self):
        g = Graph.complete(2)
        d = linear_decomposition(g, [0, 1])
        op = operator_of(g, d, d.root)
        with pytest.raises(InputError):
            merge_type(FC, FC, op)


class TestLeafSignature:
    def test_counts(self):
        assert type_counts(fall_leaf_signature(3), 1) == {FC: 1, FD: 2}

    def test_k1(self):
        assert type_counts(fall_leaf_signature(1), 1) == {FC: 1}

    def test_leaf_tables_hold_exactly_one_signature(self):
        g = Graph.path(3)
        d = linear_decomposition(g, [0, 1, 2])
        table = compute_fall_tables(g, d, 2)
        for t in d.leaves():
            assert set(table.tables[t]) == {fall_leaf_signature(2)}


class TestSolveFallColoring:
    def test_c4_bipartition(self):
        g = Graph.cycle(4)
        d = best_decomposition(g, "heuristic")
        assert solve_fallcoloring(g, d, 2)

    def test_c5_never(self):
        g = Graph.cycle(5)
        d = best_decomposition(g, "heuristic")
        for k in range(1, 6):
            assert not solve_fallcoloring(g, d, k)
            assert brute_force_fallcoloring(g, k) is None

    def test_k3_three_colors(self):
        g = Graph.complete(3)
        d = best_decomposition(g, "heuristic")
        assert solve_fallcoloring(g, d, 3)

    def test_edgeless_single_color(self):
        g = Graph.edgeless(3)
        d = best_decomposition(g, "heuristic")
        assert solve_fallcoloring(g, d, 1)
        assert not solve_fallcoloring(g, d, 2)

    def test_rejects_zero_colors(self):
        g = Graph.complete(2)
        d = linear_decomposition(g, [0, 1])
        with pytest.raises(InputError):
            solve_fallcoloring(g, d, 0)


class TestAgreementWithBruteForce:
    def test_random_sweep(self):
        rng = random.Random(414)
        for _ in range(35):
            g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.1, 0.9))
            d = best_decomposition(g, "heuristic")
            for k in range(1, g.n + 1):
                expected = brute_force_fallcoloring(g, k) is not None
                assert solve_fallcoloring(g, d, k) == expected
                if expected:
                    # necessary bound: every vertex is a b-vertex
                    assert k <= g.min_degree() + 1

    def test_witnesses_pass_checker(self):
        rng = random.Random(415)
        found = 0
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.9))
            d = best_decomposition(g, "heuristic")
            for k in range(1, g.n + 1):
                witness = solve_fallcoloring_witness(g, d, k)
                if witness is not None:
                    found += 1
                    assert is_fall_coloring(g, witness)
                    assert nonempty_class_count(witness) == k
        assert found >= 10

    def test_table_semantics_small(self):
        rng = random.Random(416)
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.8))
            d = best_decomposition(g, "heuristic")
            for k in range(1, min(g.n, 3) + 1):
                table = compute_fall_tables(g, d, k)
                for t in d.postorder():
                    assert set(table.tables[t]) == enumerate_fall_signatures(
                        g, d, t, k
                    )


class TestCanonicalFall:
    """The fall decision path (canonical tables) against the reference
    compute_fall_tables and the brute force."""

    def test_decision_path_matches_reference_and_oracle(self):
        rng = random.Random(417)
        found = 0
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.2, 0.9))
            d = best_decomposition(g, "heuristic")
            ops = _annotate(g, d).operators
            for k in range(1, g.n + 1):
                reference = compute_fall_tables(g, d, k)
                canonical = compute_fall_tables(g, d, k, canonical=True)
                for t in d.postorder():
                    if not d.is_leaf(t):
                        image = canonical_image(reference.tables[t], ops[t])
                        # less the signatures holding a type the demand rule drops
                        kept = completable(image, g, d, t, k, False)
                        assert set(canonical.tables[t]) == set(kept)
                expected = signature({FC: k}, k) in reference.tables[d.root]
                accepted = decision_accepting(d, k, 0) in canonical.tables[d.root]
                assert accepted == expected
                assert expected == (brute_force_fallcoloring(g, k) is not None)
                assert solve_fallcoloring(g, d, k) == expected
                witness = solve_fallcoloring_witness(g, d, k)
                assert (witness is not None) == expected
                if witness is not None:
                    found += 1
                    assert is_fall_coloring(g, witness)
        assert found >= 10

    @pytest.mark.parametrize(
        "g, answers",
        [
            (Graph(1), {1: True}),
            (Graph(3, [(0, 1)]), {1: False, 2: False, 3: False}),
            (Graph.edgeless(3), {1: True, 2: False, 3: False}),
        ],
        ids=["one-vertex", "edge-plus-isolated", "edgeless-3"],
    )
    def test_isolated_vertices(self, g, answers):
        d = best_decomposition(g, "heuristic")
        for k, expected in answers.items():
            assert (brute_force_fallcoloring(g, k) is not None) == expected
            assert solve_fallcoloring(g, d, k) == expected
            canonical = compute_fall_tables(g, d, k, canonical=True)
            assert (decision_accepting(d, k, 0) in canonical.tables[d.root]) == expected
            witness = solve_fallcoloring_witness(g, d, k)
            assert (witness is not None) == expected
            if witness is not None:
                assert is_fall_coloring(g, witness)


class TestFallClassValidity:
    def test_uncontacted_vertex_in_met_class(self):
        # P_3 with class {0} at the root: vertex 2 (other color) has no
        # neighbor in the class, and the root class contains 0.
        g = Graph.path(3)
        d = linear_decomposition(g, [0, 1, 2])
        assert not fall_class_is_valid(g, d, d.root, {0})
        assert fall_class_is_valid(g, d, d.root, {1})
