import random

import pytest

from bcoloring import (
    Graph,
    InputError,
    b_chromatic_number,
    best_decomposition,
    brute_force_bcoloring,
    brute_force_chi_b,
    compute_tables,
    is_b_coloring,
    linear_decomposition,
    solve_bcoloring,
    solve_bcoloring_witness,
)
from bcoloring.bcol_dp import (
    CONTAINS,
    DEMAND,
    NONE,
    ClassType,
    Signature,
    accepting_signature,
    all_types,
    build_merge_skeleton,
    combine_signatures,
    compatible,
    leaf_signatures,
    merge_type,
    reconstruct_witness,
)
from bcoloring.decomposition import operator_of
from helpers import (
    enumerate_bcol_signatures,
    is_valid_class,
    random_graph,
    relabeled,
    type_of_class,
)

C0 = ClassType((CONTAINS,), 0)
C1 = ClassType((CONTAINS,), 1)
N0 = ClassType((NONE,), 0)
D0 = ClassType((DEMAND,), 0)


def k2_setup():
    g = Graph.complete(2)
    d = linear_decomposition(g, [0, 1])
    return g, d, operator_of(g, d, d.root)


class TestTypeOfClass:
    def test_leaf_colored_b_vertex(self):
        g = Graph.complete(2)
        d = linear_decomposition(g, [0, 1])
        leaf = next(t for t in d.leaves() if d.leaf_vertex(t) == 0)
        assert type_of_class(g, d, leaf, {0}, {0}) == C1

    def test_leaf_empty_class_demands(self):
        g = Graph.complete(2)
        d = linear_decomposition(g, [0, 1])
        leaf = next(t for t in d.leaves() if d.leaf_vertex(t) == 0)
        assert type_of_class(g, d, leaf, set(), {0}) == D0

    def test_four_class_configuration(self):
        # V_t = {0..3} with distinct outside neighborhoods via vertices 4, 5.
        # Green class {1, 3}; b-vertices: 0 (yellow), 1 (green), 2 (red).
        # Vertex 0's b-vertex already has the green neighbor 1, so its class
        # reports NONE; vertex 2's does not, so its class reports DEMAND.
        g = Graph(6, [(0, 1), (0, 4), (1, 4), (1, 5), (2, 5)])
        d = linear_decomposition(g, [0, 1, 2, 3, 4, 5])
        t = next(
            t for t in d.postorder() if d.vertex_set(t) == frozenset({0, 1, 2, 3})
        )
        tau = type_of_class(g, d, t, {1, 3}, {0, 1, 2})
        assert tau == ClassType((NONE, CONTAINS, DEMAND, CONTAINS), 1)

    def test_rejects_dependent_class(self):
        g, d, _ = k2_setup()
        with pytest.raises(InputError, match="independent"):
            type_of_class(g, d, d.root, {0, 1}, set())


class TestIsValidClass:
    def test_leaf_self_b_vertex(self):
        g, d, _ = k2_setup()
        leaf = d.leaves()[0]
        v = d.leaf_vertex(leaf)
        assert is_valid_class(g, d, leaf, {v}, {v})

    def test_k2_root_fulfilled(self):
        g, d, _ = k2_setup()
        assert is_valid_class(g, d, d.root, {0}, {0, 1})

    def test_p3_root_unfulfilled(self):
        g = Graph.path(3)
        d = linear_decomposition(g, [0, 1, 2])
        # c = vertex 2 is a claimed b-vertex with no neighbor in {0}.
        assert not is_valid_class(g, d, d.root, {0}, {0, 2})


class TestCompatible:
    def test_contains_contains_blocked(self):
        _, _, op = k2_setup()
        assert not compatible(C1, C1, op)
        assert not compatible(C0, C0, op)

    def test_contains_demand_allowed(self):
        _, _, op = k2_setup()
        assert compatible(C1, D0, op)

    def test_demand_demand_allowed(self):
        _, _, op = k2_setup()
        assert compatible(D0, D0, op)

    def test_two_b_vertices_blocked(self):
        _, _, op = k2_setup()
        assert not compatible(C1, ClassType((DEMAND,), 1), op)

    def test_dimension_mismatch(self):
        _, _, op = k2_setup()
        with pytest.raises(InputError):
            compatible(ClassType((NONE, NONE), 0), D0, op)

    def test_unfulfillable_demand_beside_contains(self):
        # No h-edge: a demand sharing the parent class with a CONTAINS bubble
        # can never be met, so the pair must be incompatible.
        g = Graph.path(3)
        d = linear_decomposition(g, [0, 2, 1])
        t = next(
            t for t in d.postorder() if d.vertex_set(t) == frozenset({0, 2})
        )
        op = operator_of(g, d, t)
        assert op.h_edges == frozenset()
        assert not compatible(C0, D0, op)
        with pytest.raises(InputError):
            merge_type(C0, D0, op)


class TestMergeType:
    def test_k2_contains_demand(self):
        _, _, op = k2_setup()
        assert merge_type(C1, D0, op) == C1

    def test_k2_demand_demand(self):
        _, _, op = k2_setup()
        assert merge_type(D0, D0, op) == D0

    def test_contains_dominates_without_demand(self):
        g = Graph.path(3)
        d = linear_decomposition(g, [0, 2, 1])
        t = next(
            t for t in d.postorder() if d.vertex_set(t) == frozenset({0, 2})
        )
        op = operator_of(g, d, t)
        assert merge_type(C0, N0, op) == C0
        assert merge_type(N0, C1, op) == C1

    def test_requires_compatible_pair(self):
        _, _, op = k2_setup()
        with pytest.raises(InputError):
            merge_type(C1, C1, op)


class TestMergeSoundness:
    """Random concrete classes: merging and splitting agree with the types."""

    @staticmethod
    def _sample_class(rng, g, vt):
        chosen: set[int] = set()
        for v in sorted(vt):
            if rng.random() < 0.45 and not (g.neighbors(v) & chosen):
                chosen.add(v)
        return chosen

    @staticmethod
    def _sample_b(rng, vt):
        return {v for v in vt if rng.random() < 0.35}

    def test_merge_of_valid_classes(self):
        rng = random.Random(31)
        merged = 0
        for _ in range(250):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.15, 0.85))
            d = best_decomposition(g, "heuristic")
            internals = [t for t in d.postorder() if not d.is_leaf(t)]
            t = rng.choice(internals)
            r, s = d.children(t)
            op = operator_of(g, d, t)
            cr = self._sample_class(rng, g, d.vertex_set(r))
            br = self._sample_b(rng, d.vertex_set(r))
            cs = self._sample_class(rng, g, d.vertex_set(s))
            bs = self._sample_b(rng, d.vertex_set(s))
            # partial b-colorings carry at most one b-vertex per class
            if len(cr & br) > 1 or len(cs & bs) > 1:
                continue
            if not is_valid_class(g, d, r, cr, br):
                continue
            if not is_valid_class(g, d, s, cs, bs):
                continue
            rho = type_of_class(g, d, r, cr, br)
            sigma = type_of_class(g, d, s, cs, bs)
            if not compatible(rho, sigma, op):
                continue
            merged += 1
            union, b_union = cr | cs, br | bs
            assert type_of_class(g, d, t, union, b_union) == merge_type(
                rho, sigma, op
            )
            assert is_valid_class(g, d, t, union, b_union)
        assert merged >= 30  # the sweep must actually exercise merges

    def test_split_of_valid_classes(self):
        rng = random.Random(32)
        split = 0
        for _ in range(250):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.15, 0.85))
            d = best_decomposition(g, "heuristic")
            internals = [t for t in d.postorder() if not d.is_leaf(t)]
            t = rng.choice(internals)
            r, s = d.children(t)
            op = operator_of(g, d, t)
            ct = self._sample_class(rng, g, d.vertex_set(t))
            bt = self._sample_b(rng, d.vertex_set(t))
            # partial b-colorings carry at most one b-vertex per class
            if len(ct & bt) > 1:
                continue
            if not is_valid_class(g, d, t, ct, bt):
                continue
            split += 1
            vr, vs = d.vertex_set(r), d.vertex_set(s)
            rho = type_of_class(g, d, r, ct & vr, bt & vr)
            sigma = type_of_class(g, d, s, ct & vs, bt & vs)
            assert is_valid_class(g, d, r, ct & vr, bt & vr)
            assert is_valid_class(g, d, s, ct & vs, bt & vs)
            assert compatible(rho, sigma, op)
            assert merge_type(rho, sigma, op) == type_of_class(g, d, t, ct, bt)
        assert split >= 60


class TestLeafSignatures:
    def test_k3(self):
        sig1, sig2 = leaf_signatures(3)
        assert sig1.counts() == {C0: 1, N0: 2}
        assert sig2.counts() == {C1: 1, D0: 2}

    def test_k1(self):
        sig1, sig2 = leaf_signatures(1)
        assert sig1.counts() == {C0: 1}
        assert sig2.counts() == {C1: 1}

    def test_k2(self):
        _, sig2 = leaf_signatures(2)
        assert sig2.counts() == {C1: 1, D0: 1}

    def test_rejects_zero_colors(self):
        with pytest.raises(InputError):
            leaf_signatures(0)


class TestSignature:
    def test_sum_enforced(self):
        with pytest.raises(InputError):
            Signature.from_counts({C0: 1}, 2)

    def test_zero_counts_dropped(self):
        sig = Signature.from_counts({C0: 2, N0: 0}, 2)
        assert sig.items == ((C0, 2),)
        assert sig.count(N0) == 0


class TestMergeSkeleton:
    def test_k2_root_excludes_contains_pairs(self):
        _, _, op = k2_setup()
        types = [C0, C1, N0, D0]
        skel = build_merge_skeleton(op, types, types)
        for rho, sigma, _ in skel.edges:
            assert not (rho.cdesc[0] == CONTAINS and sigma.cdesc[0] == CONTAINS)
        assert (C1, D0, C1) in skel.edges
        assert (D0, D0, D0) in skel.edges

    def test_no_h_edges_no_demands_is_complete_bipartite_up_to_bvtx(self):
        g = Graph.edgeless(2)
        d = linear_decomposition(g, [0, 1])
        op = operator_of(g, d, d.root)
        types = [N0, C0, ClassType((NONE,), 1), C1]
        skel = build_merge_skeleton(op, types, types)
        expected = sum(
            1
            for rho in types
            for sigma in types
            if rho.bvtx + sigma.bvtx <= 1
        )
        assert skel.edge_count() == expected

    def test_empty_side_has_no_edges(self):
        _, _, op = k2_setup()
        assert build_merge_skeleton(op, [], [C0]).edges == ()


class TestCombineSignatures:
    def test_k2_hand_trace(self):
        g, d, op = k2_setup()
        _, sig2 = leaf_signatures(2)
        skel = build_merge_skeleton(op, [C1, D0], [C1, D0])
        out = combine_signatures([sig2], [sig2], skel, 2)
        assert set(out) == {accepting_signature(2)}
        sig_r, sig_s, labeling = out[accepting_signature(2)]
        assert sig_r == sig2 and sig_s == sig2
        assert sorted(labeling) == [((C1, D0, C1), 1), ((D0, C1, C1), 1)]

    def test_k1_edgeless_single_vertices(self):
        g = Graph.edgeless(2)
        d = linear_decomposition(g, [0, 1])
        op = operator_of(g, d, d.root)
        sig1, sig2 = leaf_signatures(1)
        skel = build_merge_skeleton(op, [C0, C1], [C0, C1])
        out = combine_signatures([sig1, sig2], [sig1, sig2], skel, 1)
        assert set(out) == {
            Signature.from_counts({C0: 1}, 1),
            Signature.from_counts({C1: 1}, 1),
        }

    def test_empty_child_table(self):
        _, _, op = k2_setup()
        skel = build_merge_skeleton(op, [C1, D0], [C1, D0])
        assert combine_signatures([], [leaf_signatures(2)[1]], skel, 2) == {}


class TestSolveBColoring:
    def test_k2_two_colors(self):
        g, d, _ = k2_setup()
        assert solve_bcoloring(g, d, 2)

    def test_k2_one_color(self):
        g, d, _ = k2_setup()
        assert not solve_bcoloring(g, d, 1)

    def test_p3_three_colors(self):
        g = Graph.path(3)
        d = linear_decomposition(g, [0, 1, 2])
        assert not solve_bcoloring(g, d, 3)
        assert brute_force_bcoloring(g, 3) is None

    def test_single_vertex(self):
        g = Graph(1)
        d = linear_decomposition(g, [0])
        assert solve_bcoloring(g, d, 1)

    def test_k_out_of_range(self):
        g, d, _ = k2_setup()
        with pytest.raises(InputError):
            solve_bcoloring(g, d, 3)
        with pytest.raises(InputError):
            solve_bcoloring(g, d, 0)


class TestWitness:
    def test_k2(self):
        g, d, _ = k2_setup()
        witness = solve_bcoloring_witness(g, d, 2)
        assert witness.classes == ((0,), (1,))
        assert witness.b_vertices == {0, 1}

    def test_k3_bijective(self):
        g = Graph.complete(3)
        d = best_decomposition(g, "heuristic")
        witness = solve_bcoloring_witness(g, d, 3)
        assert witness.classes == ((0,), (1,), (2,))
        assert witness.b_vertices == {0, 1, 2}

    def test_star_two_colors(self):
        g = Graph.star(3)
        d = best_decomposition(g, "heuristic")
        witness = solve_bcoloring_witness(g, d, 2)
        assert set(map(frozenset, witness.classes)) == {
            frozenset({0}),
            frozenset({1, 2, 3}),
        }
        assert 0 in witness.b_vertices
        assert len(witness.b_vertices & {1, 2, 3}) == 1
        assert is_b_coloring(g, witness.to_coloring(g.n))

    def test_no_witness_for_no_instance(self):
        g, d, _ = k2_setup()
        assert solve_bcoloring_witness(g, d, 1) is None

    def test_reconstruct_requires_witness_mode(self):
        g, d, _ = k2_setup()
        table = compute_tables(g, d, 2, witness=False)
        with pytest.raises(InputError, match="witness"):
            reconstruct_witness(table, g, d, 2)


class TestBChromaticNumber:
    def test_complete(self):
        g = Graph.complete(4)
        assert b_chromatic_number(g, best_decomposition(g, "heuristic")) == 4

    def test_star(self):
        g = Graph.star(3)
        assert b_chromatic_number(g, best_decomposition(g, "heuristic")) == 2
        assert brute_force_chi_b(g) == 2

    def test_path(self):
        g = Graph.path(4)
        assert b_chromatic_number(g, best_decomposition(g, "heuristic")) == 2
        assert brute_force_chi_b(g) == 2


class TestTableInvariants:
    def test_table_semantics_small_sweep(self):
        rng = random.Random(55)
        for _ in range(12):
            g = random_graph(rng, rng.randint(1, 4), rng.uniform(0.15, 0.85))
            d = best_decomposition(g, "heuristic")
            for k in range(1, min(g.n, 3) + 1):
                table = compute_tables(g, d, k)
                for t in d.postorder():
                    assert set(table.tables[t]) == enumerate_bcol_signatures(
                        g, d, t, k
                    )

    def test_signature_sums_and_type_bound(self):
        rng = random.Random(56)
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.15, 0.85))
            d = best_decomposition(g, "heuristic")
            for k in range(1, g.n + 1):
                table = compute_tables(g, d, k)
                for t in d.postorder():
                    observed = set()
                    for sig in table.tables[t]:
                        assert sum(c for _, c in sig.items) == k
                        observed.update(sig.types())
                    from bcoloring.decomposition import equivalence_classes

                    bound = 2 * 3 ** len(equivalence_classes(g, d, t))
                    assert len(observed) <= bound

    def test_all_types_matches_bound(self):
        assert len(all_types(1)) == 6
        assert len(all_types(3)) == 54

    def test_decomposition_invariance(self):
        rng = random.Random(57)
        for _ in range(8):
            n = rng.randint(2, 6)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            order1 = list(range(n))
            order2 = list(range(n))
            rng.shuffle(order1)
            rng.shuffle(order2)
            decs = [
                linear_decomposition(g, order1),
                linear_decomposition(g, order2),
                best_decomposition(g, "exact-tiny"),
            ]
            for k in range(1, n + 1):
                assert len({solve_bcoloring(g, d, k) for d in decs}) == 1

    def test_isomorphism_invariance(self):
        rng = random.Random(58)
        for _ in range(8):
            n = rng.randint(2, 6)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabeled(g, perm)
            dg = best_decomposition(g, "heuristic")
            dh = best_decomposition(h, "heuristic")
            for k in range(1, n + 1):
                assert solve_bcoloring(g, dg, k) == solve_bcoloring(h, dh, k)
