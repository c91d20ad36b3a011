import dataclasses
import hashlib
import itertools
import random

import pytest

from bcoloring import (
    Graph,
    InputError,
    b_chromatic_number,
    best_decomposition,
    brute_force_bcoloring,
    brute_force_chi_b,
    brute_force_fallcoloring,
    compute_tables,
    is_b_coloring,
    is_fall_coloring,
    linear_decomposition,
    solve_bcoloring,
    solve_bcoloring_vc,
    solve_bcoloring_vc_witness,
    solve_bcoloring_witness,
)
from bcoloring import bcol_dp
from bcoloring.bcol_dp import (
    CONTAINS,
    DEMAND,
    NONE,
    ClassType,
    DPTable,
    MergeSkeleton,
    _combine_pair,
    _decision_tables,
    _leaf_join,
    _leaf_rows,
    _leaf_split,
    _realize,
    _run_dp,
    accepting_signature,
    build_merge_skeleton,
    combine_signatures,
    decide,
    decision_accepting,
    decode,
    encode,
    leaf_signatures,
    reconstruct_witness,
    signature,
    type_counts,
)
from bcoloring.decomposition import (
    NEIGHBOR_SCAN_LIMIT,
    NodeOperator,
    _annotate,
)
from bcoloring.fall_dp import (
    compute_fall_tables,
    fall_leaf_signature,
    solve_fallcoloring,
    solve_fallcoloring_witness,
)
from helpers import (
    all_types,
    atlas_connected_corpus,
    b_vertex_supply,
    canonical_image,
    caterpillar,
    chosen_signatures,
    compatible,
    completable,
    completion_test,
    enumerate_bcol_signatures,
    is_valid_class,
    ladder,
    merge_type,
    mirrored,
    operator_of,
    random_decomposition,
    random_graph,
    reference_leaf_join,
    reference_merge,
    reference_realize,
    neighbors_listed,
    relabeled,
    rule_facts,
    span_tree,
    type_of_class,
    unclaimed,
)

C0 = ClassType((CONTAINS,), 0)
C1 = ClassType((CONTAINS,), 1)
N0 = ClassType((NONE,), 0)
D0 = ClassType((DEMAND,), 0)


def codes(types, width=1):
    """The codes of types at a node with width classes."""
    return [encode(tau, width) for tau in types]


def decoded_edges(skel, op):
    """The skeleton's edges as (r-type, s-type, merge type) triples."""
    widths = (len(op.bubble_r), len(op.bubble_s), op.parent_class_count)
    return [
        tuple(decode(code, w) for code, w in zip(edge, widths)) for edge in skel.edges
    ]


def count_calls(monkeypatch, names):
    """A list that each call of the named bcol_dp functions appends its
    name to."""
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(bcol_dp, name, counted(name, getattr(bcol_dp, name)))
    return calls


def gated_mask(g, k):
    """The vertices of degree at least k-1, the only ones that can be
    b-vertices of a b-coloring with k colors, as a bitmask."""
    return sum(1 << v for v in g.vertices() if g.degree(v) >= k - 1)


def gated_seeds(g, k):
    """Both leaf signatures at the vertices of degree at least k-1, the
    non-b one alone elsewhere: the decision DP's seeds."""
    plain, claimed = leaf_signatures(k)
    return [(plain, claimed) if g.degree(v) >= k - 1 else (plain,) for v in g.vertices()]


def canonical_run(g, d, k, seeds, accepting):
    """The decision DP without its demand and supply rules, node by node:
    a canonical skeleton built afresh at every internal node, and, when
    accepting has b-vertex classes, the pairs that cannot bring them
    skipped by the supply count (b_vertex_supply).  The unpruned canonical
    tables the rules filter."""
    ops = _annotate(g, d).operators
    tables, skeletons = {}, {}
    for t in d.postorder():
        if d.is_leaf(t):
            tables[t] = dict.fromkeys(seeds[d.leaf_vertex(t)])
            continue
        r, s = d.children(t)
        r_types, s_types = (
            sorted({tau for sig in tables[c] for tau, _ in sig}) for c in (r, s)
        )
        skel = skeletons[t] = build_merge_skeleton(
            ops[t], r_types, s_types, canonical=True
        )
        supply = None
        if any(code & 1 for code, _ in accepting):  # b-vertex classes at the root
            supply = b_vertex_supply(g, d, t, k)
        tables[t] = combine_signatures(tables[r], tables[s], skel, k, supply)
    return DPTable(k, d.root, tables, skeletons, accepting)


def join_keys(g, d, table, suppliers):
    """The distinct (operator, r table, s table, need, overlaps, suppliers)
    keys of table's internal nodes.  Without suppliers, a reference run,
    need is 0 and the rules' facts are None; with it, a b-coloring
    decision, suppliers is the bitmask of vertices that may be b-vertices,
    need the b-vertex classes a pair must bring, and the facts are
    rule_facts'."""
    ops = _annotate(g, d).operators
    keys = set()
    for t in d.postorder():
        if not d.is_leaf(t):
            r, s = d.children(t)
            need, facts = 0, (None, None)
            if suppliers is not None:
                need = max(table.k - (suppliers & ~d.vertex_mask(t)).bit_count(), 0)
                facts = rule_facts(g, d, t, table.k, True)
            keys.add((ops[t], tuple(table.tables[r]), tuple(table.tables[s]), need, *facts))
    return keys


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
        assert type_counts(sig1, 1) == {C0: 1, N0: 2}
        assert type_counts(sig2, 1) == {C1: 1, D0: 2}

    def test_k1(self):
        sig1, sig2 = leaf_signatures(1)
        assert type_counts(sig1, 1) == {C0: 1}
        assert type_counts(sig2, 1) == {C1: 1}

    def test_k2(self):
        _, sig2 = leaf_signatures(2)
        assert type_counts(sig2, 1) == {C1: 1, D0: 1}

    def test_rejects_zero_colors(self):
        with pytest.raises(InputError):
            leaf_signatures(0)


class TestSignature:
    def test_sum_enforced(self):
        with pytest.raises(InputError):
            signature({C0: 1}, 2)

    def test_one_width_enforced(self):
        with pytest.raises(InputError, match="width"):
            signature({C0: 1, ClassType((NONE, NONE), 0): 1}, 2)

    def test_codes_order_types_of_one_width(self):
        for width in (1, 2, 3):
            types = all_types(width)
            assert sorted(types, key=lambda tau: encode(tau, width)) == sorted(types)
            assert [decode(encode(tau, width), width) for tau in types] == types

    def test_zero_counts_dropped(self):
        sig = signature({C0: 2, N0: 0}, 2)
        assert list(type_counts(sig, 1).items()) == [(C0, 2)]
        assert type_counts(sig, 1).get(N0, 0) == 0


class TestMergeSkeleton:
    def test_k2_root_excludes_contains_pairs(self):
        _, _, op = k2_setup()
        types = codes([C0, C1, N0, D0])
        edges = decoded_edges(build_merge_skeleton(op, types, types), op)
        for rho, sigma, _ in edges:
            assert not (rho.cdesc[0] == CONTAINS and sigma.cdesc[0] == CONTAINS)
        assert (C1, D0, C1) in edges
        assert (D0, D0, D0) in edges

    def test_no_h_edges_no_demands_is_complete_bipartite_up_to_bvtx(self):
        g = Graph.edgeless(2)
        d = linear_decomposition(g, [0, 1])
        op = operator_of(g, d, d.root)
        types = [N0, C0, ClassType((NONE,), 1), C1]
        skel = build_merge_skeleton(op, codes(types), codes(types))
        expected = sum(
            1
            for rho in types
            for sigma in types
            if rho.bvtx + sigma.bvtx <= 1
        )
        assert len(skel.edges) == expected

    def test_empty_side_has_no_edges(self):
        _, _, op = k2_setup()
        assert build_merge_skeleton(op, [], codes([C0])).edges == ()

    def test_rejects_a_code_wider_than_its_side(self):
        _, _, op = k2_setup()
        wide = encode(ClassType((DEMAND, NONE), 0), 2)
        with pytest.raises(InputError, match="width"):
            build_merge_skeleton(op, [wide], codes([C0]))

    def test_repeated_nodes_share_one_skeleton(self, monkeypatch):
        # A width-2 linear decomposition of a path repeats a few operators
        # and child type lists along its spine: one DP run builds each
        # distinct skeleton once, and its tables and witness equal those
        # of a node-by-node run that builds a skeleton at every node and
        # applies the same b-vertex supply bound, less the types that the
        # demand and supply rules drop (completable).
        g = Graph.path(300)
        d = linear_decomposition(g, list(g.vertices()))
        calls = []

        def counted(*args):
            calls.append(args)
            return build(*args)

        build = bcol_dp.build_merge_skeleton
        monkeypatch.setattr(bcol_dp, "build_merge_skeleton", counted)
        cached = _decision_tables(g, d, 3)
        assert len(calls) <= 40
        monkeypatch.undo()

        uncached = canonical_run(g, d, 3, gated_seeds(g, 3), cached.accepting)
        for t in d.postorder():
            expected = list(uncached.tables[t].items())
            if not d.is_leaf(t):
                kept = set(completable(uncached.tables[t], g, d, t, 3, True))
                expected = [item for item in expected if item[0] in kept]
            assert list(cached.tables[t].items()) == expected
        assert reconstruct_witness(cached, g, d) == reconstruct_witness(
            uncached, g, d
        )


class TestPlainValues:
    """Signatures are plain tuples, and a skeleton's edges are its rows."""

    def test_table_keys_are_tuples_and_edges_flatten_rows(self):
        # Every key of the decision, reference and both fall-coloring
        # tables is a plain tuple of (code, count) items, counts positive,
        # codes increasing.  Every internal node's skeleton keeps its rows
        # in child type order, its edges flatten them in order, and there
        # is one edge per pair of child types that reference_merge merges;
        # in the decision runs, into a type that completion_test keeps at
        # the node (both rules for b-coloring, the demand rule for fall).
        rng = random.Random(85)
        keys = edges = 0
        for _ in range(12):
            g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.15, 0.85))
            d = best_decomposition(g, "heuristic")
            ops = _annotate(g, d).operators
            for k in range(1, g.n + 1):
                tables = [
                    (_decision_tables(g, d, k), True),
                    (compute_tables(g, d, k), None),
                    (compute_fall_tables(g, d, k), None),
                    (compute_fall_tables(g, d, k, canonical=True), False),
                ]
                for table, b_vertices in tables:
                    for t in d.postorder():
                        for sig in table.tables[t]:
                            assert type(sig) is tuple
                            assert all(type(item) is tuple for item in sig)
                            assert all(c > 0 for _, c in sig)
                            codes_of = [code for code, _ in sig]
                            assert codes_of == sorted(set(codes_of))
                            keys += 1
                        if d.is_leaf(t):
                            continue
                        op, skel = ops[t], table.skeletons[t]
                        r_types, s_types = (
                            sorted({tau for sig in table.tables[c] for tau, _ in sig})
                            for c in d.children(t)
                        )
                        flat = tuple(
                            (rho, sigma, tau)
                            for rho, row in skel.rows.items()
                            for sigma, tau in row
                        )
                        assert skel.edges == flat
                        rows = [rho for rho in r_types if rho in skel.rows]
                        assert list(skel.rows) == rows
                        wr, ws = len(op.bubble_r), len(op.bubble_s)
                        dead = None if b_vertices is None else op.dead
                        keep = (
                            (lambda tau: True)
                            if b_vertices is None
                            else completion_test(g, d, t, k, b_vertices)
                        )
                        merges = 0
                        for rho in r_types:
                            for sigma in s_types:
                                tau = reference_merge(
                                    decode(rho, wr), decode(sigma, ws), op, dead
                                )
                                merges += tau is not None and keep(tau)
                        assert len(skel.edges) == merges
                        edges += merges
        assert keys > 2_000 and edges > 3_000


class TestMaskMerge:
    """The skeleton's mask merge, parent codes decoded, against
    reference_merge, the merge written label by label, on random operators,
    canonical and not."""

    @staticmethod
    def _random_operator(rng, wr, ws):
        parents = rng.randint(1, wr + ws)
        bubble_r = tuple(rng.randrange(parents) for _ in range(wr))
        bubble_s = tuple(rng.randrange(parents) for _ in range(ws))
        density = rng.random()
        h_edges = frozenset(
            (i, j) for i in range(wr) for j in range(ws) if rng.random() < density
        )
        op = NodeOperator(h_edges, bubble_r, bubble_s)
        dead = rng.choice([None, *range(op.parent_class_count)])
        return NodeOperator(h_edges, bubble_r, bubble_s, dead)

    @staticmethod
    def _random_types(rng, width, count):
        types = set()
        for _ in range(count):
            weights = [rng.random() for _ in range(3)]
            labels = rng.choices((NONE, CONTAINS, DEMAND), weights, k=width)
            types.add(ClassType(tuple(labels), rng.randrange(2)))
        return sorted(types)

    @staticmethod
    def _compare(op, r_types, s_types) -> int:
        """Assert both merges agree on every pair, in skeleton order, and
        return the number of compatible pairs."""
        wr, ws = len(op.bubble_r), len(op.bubble_s)
        merged = 0
        for canonical in (False, True):
            dead = op.dead if canonical else None
            expected = [
                (rho, sigma, tau)
                for rho in r_types
                for sigma in s_types
                if (tau := reference_merge(rho, sigma, op, dead)) is not None
            ]
            skel = build_merge_skeleton(
                op, codes(r_types, wr), codes(s_types, ws), canonical
            )
            assert decoded_edges(skel, op) == expected, (op, canonical)
            merged += len(expected)
        return merged

    def test_every_pair_up_to_width_3(self):
        rng = random.Random(91)
        merged = 0
        for wr, ws in itertools.product((1, 2, 3), repeat=2):
            for _ in range(6):
                op = self._random_operator(rng, wr, ws)
                merged += self._compare(op, all_types(wr), all_types(ws))
        assert merged > 20_000

    def test_sampled_types_at_width_4_to_7(self):
        rng = random.Random(92)
        merged = 0
        for _ in range(24):
            wr, ws = rng.randint(4, 7), rng.randint(4, 7)
            op = self._random_operator(rng, wr, ws)
            r_types = self._random_types(rng, wr, 30)
            s_types = self._random_types(rng, ws, 30)
            merged += self._compare(op, r_types, s_types)
        assert merged > 2_000


class TestCombineSignatures:
    def test_k2_hand_trace(self):
        g, d, op = k2_setup()
        _, sig2 = leaf_signatures(2)
        skel = build_merge_skeleton(op, codes([C1, D0]), codes([C1, D0]))
        out = combine_signatures([sig2], [sig2], skel, 2)
        assert set(out) == {accepting_signature(2)}
        sig_r, sig_s = out[accepting_signature(2)]
        assert sig_r == sig2 and sig_s == sig2
        labeling = _combine_pair(sig_r, sig_s, skel.rows, None, accepting_signature(2))
        types = [(tuple(decode(code, 1) for code in edge), x) for edge, x in labeling]
        assert sorted(types) == [((C1, D0, C1), 1), ((D0, C1, C1), 1)]

    def test_k1_edgeless_single_vertices(self):
        g = Graph.edgeless(2)
        d = linear_decomposition(g, [0, 1])
        op = operator_of(g, d, d.root)
        sig1, sig2 = leaf_signatures(1)
        skel = build_merge_skeleton(op, codes([C0, C1]), codes([C0, C1]))
        out = combine_signatures([sig1, sig2], [sig1, sig2], skel, 1)
        assert set(out) == {
            signature({C0: 1}, 1),
            signature({C1: 1}, 1),
        }

    def test_empty_child_table(self):
        _, _, op = k2_setup()
        skel = build_merge_skeleton(op, codes([C1, D0]), codes([C1, D0]))
        assert combine_signatures([], [leaf_signatures(2)[1]], skel, 2) == {}

    def test_join_is_not_recursive(self):
        # 512 distinct r-types, one class each: a join that recursed once
        # per r-type would run past the interpreter's recursion limit.
        op = NodeOperator(frozenset(), (0,) * 9, (0,))
        r_types = [
            ClassType(desc, 0) for desc in itertools.product((NONE, DEMAND), repeat=9)
        ]
        sig_r = signature(dict.fromkeys(r_types, 1), 512)
        sig_s = signature({N0: 512}, 512)
        skel = build_merge_skeleton(op, codes(r_types, 9), codes([N0]))
        out = combine_signatures([sig_r], [sig_s], skel, 512)
        assert list(out) == [signature({N0: 1, D0: 511}, 512)]


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
        # k above n answers false, as every other route does; k < 1 is an
        # input error.
        g, d, _ = k2_setup()
        assert solve_bcoloring(g, d, 3) is False
        assert solve_bcoloring_witness(g, d, 3) is None
        with pytest.raises(InputError):
            solve_bcoloring(g, d, 0)


class TestWitness:
    def test_k2(self):
        g, d, _ = k2_setup()
        coloring, b_vertices = solve_bcoloring_witness(g, d, 2)
        assert coloring.classes() == ({0}, {1})
        assert b_vertices == {0, 1}

    def test_k3_bijective(self):
        g = Graph.complete(3)
        d = best_decomposition(g, "heuristic")
        coloring, b_vertices = solve_bcoloring_witness(g, d, 3)
        assert coloring.classes() == ({0}, {1}, {2})
        assert b_vertices == {0, 1, 2}

    def test_star_two_colors(self):
        g = Graph.star(3)
        d = best_decomposition(g, "heuristic")
        coloring, b_vertices = solve_bcoloring_witness(g, d, 2)
        assert set(coloring.classes()) == {
            frozenset({0}),
            frozenset({1, 2, 3}),
        }
        assert 0 in b_vertices
        assert len(b_vertices & {1, 2, 3}) == 1
        assert is_b_coloring(g, coloring)

    def test_no_witness_for_no_instance(self):
        g, d, _ = k2_setup()
        assert solve_bcoloring_witness(g, d, 1) is None

    def test_reconstruct_refuses_a_root_without_the_accepting_signature(self):
        # The reference table decides no root signature, so replay has none
        # to start from.
        g, d, _ = k2_setup()
        table = compute_tables(g, d, 2)
        with pytest.raises(InputError, match="witness"):
            reconstruct_witness(table, g, d)

    def test_realize_refuses_a_table_without_a_root(self):
        g = Graph.cycle(6)
        d = best_decomposition(g, "heuristic")
        for table in (compute_tables(g, d, 2), compute_fall_tables(g, d, 2)):
            assert table.accepting is None
            with pytest.raises(InputError, match="witness"):
                _realize(table, d)


class TestTableRoot:
    """A table records the root signature its run decides, and only a
    decision run decides one."""

    def test_accepting_is_none_exactly_for_references(self):
        rng = random.Random(29)
        for _ in range(12):
            g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.15, 0.85))
            d = best_decomposition(g, "heuristic")
            for k in range(1, g.n + 1):
                assert compute_tables(g, d, k).accepting is None
                assert compute_fall_tables(g, d, k).accepting is None
                assert _decision_tables(g, d, k).accepting == decision_accepting(d, k)
                fall = compute_fall_tables(g, d, k, canonical=True)
                assert fall.accepting == decision_accepting(d, k, 0)


class TestBeyondN:
    """No coloring has more colors than vertices: every library route
    answers false, or None for a witness, at k = n + 1 and n + 2."""

    def test_every_route_answers_false(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.15, 0.85))
            d = best_decomposition(g, "heuristic")
            for k in (g.n + 1, g.n + 2):
                assert bcol_dp.decide(g, d, k, True) == (False, None, None)
                assert solve_bcoloring(g, d, k) is False
                assert solve_bcoloring_witness(g, d, k) is None
                assert solve_bcoloring_vc(g, k) is False
                assert solve_bcoloring_vc_witness(g, k) is None
                assert solve_fallcoloring(g, d, k) is False
                assert solve_fallcoloring_witness(g, d, k) is None
                assert brute_force_bcoloring(g, k) is None
                assert brute_force_fallcoloring(g, k) is None


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


class TestDegreeGatedTables:
    """The gated decision DP against the unpruned reference compute_tables,
    over every connected graph with n <= 6 and every k."""

    @pytest.fixture(scope="class")
    def corpus(self):
        graphs = atlas_connected_corpus(6)
        return [(g, best_decomposition(g, "heuristic")) for g in graphs]

    def test_tables_are_subsets_with_the_same_acceptance(self, corpus):
        # Each decision table is the canonical image of the gated table
        # built without canonicalisation, less the signatures with more
        # classes lacking a b-vertex than the gated vertices outside V_t,
        # less those holding a type that the demand or supply rule drops
        # (completable), and that image lies in the canonical image of the
        # reference table; leaves are neither canonicalised nor filtered.
        for g, d in corpus:
            ops = _annotate(g, d).operators
            for k in range(1, g.n + 1):
                reference = compute_tables(g, d, k)
                gated = _run_dp(g, d, k, gated_seeds(g, k))
                decision = _decision_tables(g, d, k)
                for t in d.postorder():
                    if d.is_leaf(t):
                        assert set(decision.tables[t]) == set(gated.tables[t])
                        assert set(gated.tables[t]) <= set(reference.tables[t])
                        continue
                    image = canonical_image(gated.tables[t], ops[t])
                    supply = b_vertex_supply(g, d, t, k)
                    width = ops[t].parent_class_count
                    kept = {sig for sig in image if unclaimed(sig, width) <= supply}
                    kept = set(completable(kept, g, d, t, k, True))
                    assert set(decision.tables[t]) == kept, (g.edges(), k, t)
                    assert image <= canonical_image(reference.tables[t], ops[t])
                assert (decision_accepting(d, k) in decision.tables[d.root]) == (
                    accepting_signature(k) in reference.tables[d.root]
                ), (g.edges(), k)

    def test_root_without_b_vertex_classes_skips_no_pair(self, corpus):
        # A decision run whose root has no b-vertex class keeps its tables
        # canonical, skips no pair and drops no type by the supply rule: on
        # the gated b-coloring seeds each internal table is the canonical
        # image of the gated reference run, less the signatures holding a
        # type that the demand rule drops.
        for g, d in corpus:
            ops = _annotate(g, d).operators
            for k in range(1, g.n + 1):
                gated = _run_dp(g, d, k, gated_seeds(g, k))
                bare = _run_dp(g, d, k, gated_seeds(g, k), decision_accepting(d, k, 0))
                for t in d.postorder():
                    if not d.is_leaf(t):
                        image = canonical_image(gated.tables[t], ops[t])
                        kept = set(completable(image, g, d, t, k, False))
                        assert set(bare.tables[t]) == kept, (g.edges(), k, t)

    def test_low_degree_leaves_hold_no_b_vertex(self):
        g = Graph.star(3)  # the leaves have degree 1 < k - 1 for k = 3
        d = best_decomposition(g, "heuristic")
        table = _decision_tables(g, d, 3)
        plain, claimed = leaf_signatures(3)
        for t in d.leaves():
            expected = {plain, claimed} if d.leaf_vertex(t) == 0 else {plain}
            assert set(table.tables[t]) == expected

    def test_chi_b_matches_oracle(self, corpus):
        for g, d in corpus:
            assert b_chromatic_number(g, d) == brute_force_chi_b(g), g.edges()


class TestBVertexSupply:
    """The decision DP against a node-by-node run of it without the b-vertex
    supply count and without the demand and supply rules, over random
    graphs with n <= 8 and every k."""

    def test_tables_are_the_unpruned_ones_filtered(self):
        # Each internal table is the unpruned canonical table less the
        # signatures the supply count drops and less those holding a type
        # the demand or supply rule drops, in the same order with the same
        # annotations; so witnesses and chi_b are identical.
        rng = random.Random(23)
        entries = dropped = 0
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.15, 0.85))
            d = best_decomposition(g, "heuristic")
            shapes = [d, mirrored(d)]
            if g.n <= 6:
                shapes.append(best_decomposition(g, "exact-tiny"))
            for d in shapes:
                ops = _annotate(g, d).operators
                feasible = [0]
                for k in range(1, g.n + 1):
                    # a root with no b-vertex class: canonical, no pair skipped
                    full = canonical_run(
                        g, d, k, gated_seeds(g, k), decision_accepting(d, k, 0)
                    )
                    pruned = _decision_tables(g, d, k)
                    for t in d.postorder():
                        expected = list(full.tables[t].items())
                        if not d.is_leaf(t):
                            supply = b_vertex_supply(g, d, t, k)
                            width = ops[t].parent_class_count
                            entries += len(expected)
                            kept = set(completable(full.tables[t], g, d, t, k, True))
                            expected = [
                                (sig, annotation)
                                for sig, annotation in expected
                                if unclaimed(sig, width) <= supply and sig in kept
                            ]
                            dropped += len(full.tables[t]) - len(expected)
                        assert list(pruned.tables[t].items()) == expected, (
                            g.edges(), k, t
                        )
                    if decision_accepting(d, k) in full.tables[d.root]:
                        feasible.append(k)
                        unpruned = dataclasses.replace(full, accepting=pruned.accepting)
                        assert reconstruct_witness(
                            pruned, g, d
                        ) == reconstruct_witness(unpruned, g, d)
                assert b_chromatic_number(g, d) == max(feasible), g.edges()
        assert dropped > entries // 4


class TestCompletionRules:
    """The decision DP's demand and supply rules against the canonical run
    without them and against the oracle."""

    def test_rules_drop_entries_and_never_an_answer(self):
        # Over heuristic, mirrored and exact-tiny trees of random graphs
        # with n <= 8, every k, b-coloring and fall coloring: the decision
        # tables hold fewer entries than the canonical run without the
        # rules, and every decision is the oracle's.  No b-coloring has
        # more colors than m(G) and no fall coloring more than the least
        # degree plus 1, so the oracle is asked only below those bounds.
        rng = random.Random(29)
        entries = {"b": [0, 0], "fall": [0, 0]}  # unpruned, kept
        accepted = {"b": 0, "fall": 0}
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.8))
            d = best_decomposition(g, "heuristic")
            for d in (d, mirrored(d), best_decomposition(g, "exact-tiny")):
                internal = [t for t in d.postorder() if not d.is_leaf(t)]
                for k in range(1, g.n + 1):
                    fall_seeds = [(fall_leaf_signature(k),)] * g.n
                    for problem, seeds, accepting, pruned, expected in (
                        (
                            "b",
                            gated_seeds(g, k),
                            decision_accepting(d, k),
                            _decision_tables(g, d, k),
                            k <= g.m_degree() and brute_force_bcoloring(g, k) is not None,
                        ),
                        (
                            "fall",
                            fall_seeds,
                            decision_accepting(d, k, 0),
                            compute_fall_tables(g, d, k, canonical=True),
                            k <= g.min_degree() + 1
                            and brute_force_fallcoloring(g, k) is not None,
                        ),
                    ):
                        full = canonical_run(g, d, k, seeds, accepting)
                        entries[problem][0] += sum(len(full.tables[t]) for t in internal)
                        entries[problem][1] += sum(len(pruned.tables[t]) for t in internal)
                        assert (accepting in pruned.tables[d.root]) == expected, (
                            problem, g.edges(), k
                        )
                        assert (accepting in full.tables[d.root]) == expected
                        accepted[problem] += expected
        for unpruned, kept in entries.values():
            assert kept < 0.9 * unpruned, entries
        assert accepted["b"] > 100 and accepted["fall"] > 30, accepted

    def test_hub_beyond_the_scan_limit(self):
        # A star and a fan whose hub has more neighbors than
        # NEIGHBOR_SCAN_LIMIT, hub first, last or ninth: the nodes with
        # their outside neighbors listed are those neighbors_listed names,
        # only the root when the hub comes first, and none below the hub's
        # leaf when it comes ninth.  The star's b-chromatic number is 2; on
        # both graphs the orders agree and every witness is a b-coloring.
        n = NEIGHBOR_SCAN_LIMIT + 6
        star = Graph.star(n - 1)
        fan = Graph(n, list(star.edges()) + [(i, i + 1) for i in range(1, n - 1)])
        for g in (star, fan):
            answers = []
            for order in (range(n), [*range(1, n), 0], [*range(1, 9), 0, *range(9, n)]):
                d = linear_decomposition(g, order)
                listed = _annotate(g, d).neighbors
                for t in d.postorder():
                    if not d.is_leaf(t):
                        assert (t in listed) == neighbors_listed(g, d, t)
                if order[0] == 0:  # the hub represents a class at every node but the root
                    assert set(listed) == {d.root}
                answers.append([])
                for k in range(2, 6):
                    answer, found, _ = decide(g, d, k, True)
                    answers[-1].append(answer)
                    if answer:
                        assert is_b_coloring(g, found[0]) and len(found[1]) == k
            assert answers[0] == answers[1] == answers[2]
            if g is star:
                assert answers[0] == [True, False, False, False]


class TestCanonicalDecision:
    """The decision DP's one-step leaf join and its canonical root."""

    def test_leaf_join_matches_generic_join(self, monkeypatch):
        # Every child pair with a leaf-shaped side met in DP runs over
        # graphs with n <= 8, every k, b-coloring (reference and decision)
        # and fall coloring (reference and canonical): the one-step join,
        # the generic join and the eager reference join make the same set of
        # signatures, each annotated with the pair.  For each signature,
        # the labeling replay rebuilds from the pair, and the reference's,
        # run along skeleton edges and add up to the pair and the signature.
        # Mirrored caterpillars put the leaves on the r side.
        calls = []

        def recorded(table_r, table_s, skel, k, supply=None):
            calls.append((list(table_r), list(table_s), skel, k))
            return combine(table_r, table_s, skel, k, supply)

        combine = bcol_dp.combine_signatures
        monkeypatch.setattr(bcol_dp, "combine_signatures", recorded)
        rng = random.Random(81)
        for _ in range(14):
            g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.15, 0.85))
            d = best_decomposition(g, "heuristic")
            shapes = [d, mirrored(d)]
            if g.n <= 6:
                shapes.append(best_decomposition(g, "exact-tiny"))
            for d in shapes:
                for k in range(1, g.n + 1):
                    compute_tables(g, d, k)
                    _decision_tables(g, d, k)
                    compute_fall_tables(g, d, k)
                    compute_fall_tables(g, d, k, canonical=True)

        def sums(labeling, adj):
            """The r-side, s-side and parent signatures a labeling adds up
            to, each of its steps checked to be a skeleton edge."""
            totals: tuple[dict, dict, dict] = ({}, {}, {})
            for (rho, sigma, tau), x in labeling:
                assert x > 0 and (sigma, tau) in adj[rho]
                for side, code in zip(totals, (rho, sigma, tau)):
                    side[code] = side.get(code, 0) + x
            return tuple(tuple(sorted(side.items())) for side in totals)

        pairs = {"r": 0, "s": 0}
        labelings = 0
        for table_r, table_s, skel, k in calls:
            adj = skel.rows
            for sig_r in table_r:
                for sig_s in table_s:
                    split_s, split_r = _leaf_split(sig_s), _leaf_split(sig_r)
                    if split_s is None and split_r is None:
                        continue
                    leaf_is_s = split_s is not None
                    pairs["s" if leaf_is_s else "r"] += 1
                    one_step, generic = {}, {}
                    split = split_s or split_r
                    rows = _leaf_rows(adj, split, leaf_is_s)
                    _leaf_join(sig_r, sig_s, leaf_is_s, rows, one_step)
                    _combine_pair(sig_r, sig_s, adj, generic)
                    reference = reference_leaf_join(sig_r, sig_s, adj)
                    assert set(one_step) == set(generic) == set(reference)
                    for annotations in (one_step.values(), generic.values()):
                        assert all(a == (sig_r, sig_s) for a in annotations)
                    for sig_t, (_, _, labeling) in reference.items():
                        replayed = _combine_pair(sig_r, sig_s, adj, None, sig_t)
                        assert sums(replayed, adj) == (sig_r, sig_s, sig_t)
                        assert sums(labeling, adj) == (sig_r, sig_s, sig_t)
                        labelings += 1
        assert pairs["s"] > 10_000 and pairs["r"] > 10_000
        assert labelings > 10_000

    def test_witness_tables_keep_only_child_pairs(self, monkeypatch):
        # Every table, reference or decision, b-coloring or fall coloring,
        # maps each signature to the child pair that first reached it, both
        # members keys of the child tables.  A DP joins once per distinct
        # (operator, r table, s table, need, overlaps, suppliers) key, so at
        # most once per internal node.  Replay rebuilds labelings with _combine_pair
        # alone: no combine_signatures, _leaf_join or _leaf_rows call.
        calls = count_calls(monkeypatch, ("combine_signatures", "_leaf_join", "_leaf_rows"))
        rng = random.Random(83)
        replayed = 0
        for _ in range(16):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.15, 0.85))
            d = best_decomposition(g, "heuristic")
            internal = sum(not d.is_leaf(t) for t in d.postorder())
            for k in range(1, g.n + 1):
                tables = []
                for build, suppliers in (
                    (_decision_tables, gated_mask(g, k)),
                    (compute_tables, None),
                    (compute_fall_tables, None),
                ):
                    calls.clear()
                    tables.append(build(g, d, k))
                    keys = join_keys(g, d, tables[-1], suppliers)
                    assert calls.count("combine_signatures") == len(keys) <= internal
                calls.clear()
                tables.append(compute_fall_tables(g, d, k, canonical=True))
                fall_dp_calls = sorted(calls)
                for table in tables:
                    for t in d.postorder():
                        if d.is_leaf(t):
                            continue
                        r, s = d.children(t)
                        for annotation in table.tables[t].values():
                            assert type(annotation) is tuple and len(annotation) == 2
                            sig_r, sig_s = annotation
                            assert sig_r in table.tables[r] and sig_s in table.tables[s]
                if decision_accepting(d, k) in tables[0].tables[d.root]:
                    calls.clear()
                    coloring, _ = reconstruct_witness(tables[0], g, d)
                    assert calls == [] and is_b_coloring(g, coloring)
                    replayed += 1
                calls.clear()
                fall = solve_fallcoloring_witness(g, d, k)
                if fall is not None:
                    # every call is one its canonical DP makes
                    assert sorted(calls) == fall_dp_calls
                    replayed += 1
        assert replayed > 20

    def test_root_accepts_none_with_bit(self):
        g, d, _ = k2_setup()
        root = _decision_tables(g, d, 2).tables[d.root]
        assert decision_accepting(d, 2) == signature(
            {ClassType((NONE,), 1): 2}, 2
        )
        assert decision_accepting(d, 2) in root
        assert all(
            tau.cdesc != (CONTAINS,) for sig in root for tau in type_counts(sig, 1)
        )

    def test_leaf_root_keeps_contains(self):
        g = Graph(1)
        d = linear_decomposition(g, [0])
        assert decision_accepting(d, 1) == accepting_signature(1)
        assert solve_bcoloring(g, d, 1)
        coloring, b_vertices = solve_bcoloring_witness(g, d, 1)
        assert coloring.colors == (1,) and b_vertices == {0}

    @pytest.mark.parametrize(
        "g",
        [
            Graph(4, [(0, 1), (1, 2)]),
            Graph(5, [(0, 1), (1, 2), (2, 0)]),
            Graph.edgeless(3),
        ],
        ids=["P3-plus-isolated", "K3-plus-two-isolated", "edgeless-3"],
    )
    def test_isolated_vertices(self, g):
        for effort in ("heuristic", "exact-tiny"):
            d = best_decomposition(g, effort)
            for k in range(1, g.n + 1):
                expected = brute_force_bcoloring(g, k) is not None
                assert solve_bcoloring(g, d, k) == expected, (effort, k)
                found = solve_bcoloring_witness(g, d, k)
                assert (found is not None) == expected
                if found is not None:
                    assert is_b_coloring(g, found[0])


class TestJoinReuse:
    """A DP run joins each distinct (operator, r table, s table, need) once
    and replay builds each distinct labeling once; nodes may share a table
    and a skeleton."""

    @staticmethod
    def cases():
        """(g, d, ks): seeded random graphs with n <= 8 on their heuristic,
        mirrored, random-shape and (n <= 6) exact-tiny decompositions, every
        k, and the five sparse families at n = 60 on their heuristic
        decompositions."""
        rng = random.Random(97)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.15, 0.85))
            d = best_decomposition(g, "heuristic")
            shapes = [d, mirrored(d), random_decomposition(g, rng)]
            if g.n <= 6:
                shapes.append(best_decomposition(g, "exact-tiny"))
            for d in shapes:
                yield g, d, range(1, g.n + 1)
        for g in (
            Graph.path(60),
            Graph.cycle(60),
            caterpillar(30),
            ladder(30),
            span_tree(60, random.Random(60)),
        ):
            yield g, best_decomposition(g, "heuristic"), (2, 3, 4)

    def test_every_table_is_a_fresh_join_of_its_children(self):
        # Each internal table equals, items and order, combine_signatures of
        # the node's own child tables over its skeleton, and the skeleton
        # equals one built afresh from the child type lists, in a decision
        # run less the edges whose merge type completion_test drops at the
        # node; over a thousand nodes take an earlier node's table.
        nodes = shared = 0
        for g, d, ks in self.cases():
            ops = _annotate(g, d).operators
            for k in ks:
                gated = gated_mask(g, k)
                for table, suppliers, b_vertices in (
                    (_decision_tables(g, d, k), gated, True),
                    (compute_tables(g, d, k), None, None),
                    (compute_fall_tables(g, d, k), None, None),
                    (compute_fall_tables(g, d, k, canonical=True), None, False),
                ):
                    internal = [t for t in d.postorder() if not d.is_leaf(t)]
                    shared += len(internal) - len({id(table.tables[t]) for t in internal})
                    for t in internal:
                        r, s = d.children(t)
                        supply = None
                        if suppliers is not None:
                            supply = (suppliers & ~d.vertex_mask(t)).bit_count()
                        skel = table.skeletons[t]
                        fresh = combine_signatures(
                            table.tables[r], table.tables[s], skel, k, supply
                        )
                        assert list(fresh.items()) == list(table.tables[t].items())
                        r_types, s_types = (
                            sorted({tau for sig in table.tables[c] for tau, _ in sig})
                            for c in (r, s)
                        )
                        canonical = b_vertices is not None
                        rebuilt = build_merge_skeleton(ops[t], r_types, s_types, canonical)
                        rows = rebuilt.rows
                        if canonical:
                            keep = completion_test(g, d, t, k, b_vertices)
                            width = ops[t].parent_class_count
                            rows = {
                                rho: tuple(e for e in row if keep(decode(e[1], width)))
                                for rho, row in rows.items()
                            }
                            rows = {rho: row for rho, row in rows.items() if row}
                        assert rows == skel.rows
                        nodes += 1
        assert nodes > 5_000 and shared > 1_000

    def test_shared_labelings_replay_as_unshared(self):
        # Replay (_realize, as reconstruct_witness runs it) of decision and
        # canonical fall tables, where nodes share labelings, gives the
        # witness a replay that joins at every node gives, and the witness
        # the bottom-up replay of reference_realize gives: over the cases
        # above and graphs with n = 8-10 on random shapes, k = 2-4, where
        # two replay nodes can share a skeleton and a stored pair but not
        # the chosen signature.
        def unshared(table):
            skeletons = {t: MergeSkeleton(skel.rows) for t, skel in table.skeletons.items()}
            return DPTable(table.k, table.root, table.tables, skeletons, table.accepting)

        def clashes(table, d, accepting):
            chosen = chosen_signatures(table, d, accepting)
            first, count = {}, 0
            for t in d.postorder():
                if not d.is_leaf(t):
                    key = (id(table.skeletons[t]), table.tables[t][chosen[t]])
                    count += first.setdefault(key, chosen[t]) != chosen[t]
            return count

        rng = random.Random(98)
        random_shapes = []
        for _ in range(100):
            g = random_graph(rng, rng.randint(8, 10), rng.uniform(0.15, 0.6))
            random_shapes.append((g, random_decomposition(g, rng), (2, 3, 4)))
        replayed = clashed = 0
        for g, d, ks in itertools.chain(self.cases(), random_shapes):
            for k in ks:
                for table, accepting in (
                    (_decision_tables(g, d, k), decision_accepting(d, k)),
                    (compute_fall_tables(g, d, k, canonical=True), decision_accepting(d, k, 0)),
                ):
                    if accepting in table.tables[d.root]:
                        found = _realize(table, d)
                        assert found == _realize(unshared(table), d)
                        assert found == reference_realize(table, d, accepting)
                        clashed += clashes(table, d, accepting)
                        replayed += 1
        assert replayed > 200 and clashed >= 4

    @pytest.mark.parametrize(
        "g",
        [Graph.path(200), Graph.cycle(200), ladder(100)],
        ids=["path", "cycle", "ladder"],
    )
    def test_long_sparse_graphs_join_few_times(self, g, monkeypatch):
        # Natural order, k = 3: the 199 internal nodes repeat a few join
        # keys, and the witness replay a few labelings (9-16 and 8-16 here).
        calls = count_calls(monkeypatch, ("combine_signatures", "_combine_pair"))
        d = best_decomposition(g, "heuristic")
        assert sum(not d.is_leaf(t) for t in d.postorder()) == 199
        table = _decision_tables(g, d, 3)
        assert calls.count("combine_signatures") < 40
        calls.clear()
        coloring, _ = reconstruct_witness(table, g, d)
        assert is_b_coloring(g, coloring)
        assert calls.count("_combine_pair") < 40


class TestRandomShapes:
    """The cw route on random-shape decompositions, whose joins pair two
    subtrees or put the leaf on either side, against the oracle."""

    def test_decisions_and_witnesses_match_the_oracle(self):
        # Every k is decided.  Above the m-degree m(G) no b-coloring exists
        # (test_m_degree_bounds_chi_b checks the oracle against that bound),
        # and there the oracle would spend seconds proving it on n = 8.
        rng, shapes = random.Random(91), random.Random(191)
        joins = {"leaf r": 0, "leaf s": 0, "subtrees": 0}
        for _ in range(15):
            g = random_graph(rng, rng.randint(7, 8), rng.uniform(0.2, 0.8))
            d = random_decomposition(g, shapes)
            for t in d.postorder():
                if not d.is_leaf(t):
                    r, s = (d.is_leaf(c) for c in d.children(t))
                    joins["leaf r" if r else "leaf s" if s else "subtrees"] += 1
            for k in range(1, g.n + 1):
                answer, found, _ = bcol_dp.decide(g, d, k, witness=True)
                if k <= g.m_degree():
                    expected = brute_force_bcoloring(g, k) is not None
                else:
                    expected = False
                assert answer == expected, (g.edges(), k)
                assert (found is not None) == answer
                if found is not None:
                    coloring, b_vertices = found
                    assert coloring.k == k and is_b_coloring(g, coloring)
                    for b in b_vertices:
                        seen = {coloring.colors[u] for u in g.neighbors(b)}
                        assert seen == set(range(1, k + 1)) - {coloring.colors[b]}
                    assert len({coloring.colors[b] for b in b_vertices}) == k
                if k <= 4:
                    fall = solve_fallcoloring_witness(g, d, k)
                    expected = brute_force_fallcoloring(g, k) is not None
                    assert (fall is not None) == expected, (g.edges(), k)
                    assert fall is None or is_fall_coloring(g, fall)
        assert all(joins.values()), joins


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
                        assert sum(c for _, c in sig) == k
                        observed.update(dict(sig))
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


class TestWitnessDigest:
    """Pins the witnesses, not only the answers, of the cw route."""

    @staticmethod
    def heuristic_cases():
        """60 seeded random graphs with n <= 10 and their heuristic
        decompositions."""
        rng = random.Random(1212)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.15, 0.75))
            yield g, best_decomposition(g, "heuristic")

    @staticmethod
    def replay_cases():
        """Decompositions whose replay meets other pair shapes: over 80
        seeded random graphs with n <= 10, the mirrored heuristic
        decomposition, whose leaves sit on the r side, and for n <= 6 the
        exact-tiny one, a minimum-width tree whose splits lean to the
        balanced, so some of its joins have two internal children."""
        rng = random.Random(1414)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.15, 0.75))
            yield g, mirrored(best_decomposition(g, "heuristic"))
            if g.n <= 6:
                yield g, best_decomposition(g, "exact-tiny")

    @staticmethod
    def witness_digest(cases, sizes: bool = True) -> str:
        """sha256, over cases, of bcol_dp.chi_b's chi_b, witness coloring,
        b-vertices and, if sizes, largest table, and the fall-coloring
        witness (or None) for each k <= 4."""
        h = hashlib.sha256()
        for g, d in cases:
            chi, (coloring, b_vertices), size = bcol_dp.chi_b(
                bcol_dp.decide, g, d, True
            )
            pinned = (g.edges(), chi, coloring.colors, sorted(b_vertices))
            h.update(repr(pinned + ((size,) if sizes else ())).encode())
            for k in range(1, min(g.n, 4) + 1):
                fall = solve_fallcoloring_witness(g, d, k)
                h.update(repr((k, None if fall is None else fall.colors)).encode())
        return h.hexdigest()

    # sha256 of the answers below over both case sets, recorded when the
    # decision DP's demand and supply rules shrank its tables (146cad94...
    # before, and 285b6288... before the exact-tiny search became a DP over
    # vertex subsets): a change of join order may move a witness, but never
    # an answer or a table's size, and a change of tree or of pruning may
    # move a table's size, but never an answer.
    ANSWERS_DIGEST = "cb9f98488883037cba014fbc2f652b94dd8f4b30074157d77401f2d503a79120"
    # The same without the table sizes, unchanged by that new tree.
    ANSWERS_ONLY_DIGEST = "fc14e36074da5e94bb69a7569495e0f4f78fc396111d048b2e094d78e7d5a233"

    def test_answers_match_the_recorded_digest(self):
        """The answers alone over both case sets: chi_b and the largest
        decision table, and whether a fall coloring exists for each k <= 4.
        No witness is replayed, so this digest moves only when an answer or
        a table's size does; without the sizes, only when an answer does."""
        h, answers_only = hashlib.sha256(), hashlib.sha256()
        for g, d in itertools.chain(self.heuristic_cases(), self.replay_cases()):
            chi, _, size = bcol_dp.chi_b(bcol_dp.decide, g, d)
            h.update(repr((g.edges(), chi, size)).encode())
            answers_only.update(repr((g.edges(), chi)).encode())
            for k in range(1, min(g.n, 4) + 1):
                fall = repr((k, solve_fallcoloring(g, d, k))).encode()
                h.update(fall)
                answers_only.update(fall)
        assert answers_only.hexdigest() == self.ANSWERS_ONLY_DIGEST
        assert h.hexdigest() == self.ANSWERS_DIGEST

    # sha256 of the pinned outputs, recorded when the demand and supply
    # rules shrank the largest tables, the one input that moved (50c5c4e1...
    # before, and d99ecaf6... before the one-step leaf join stopped
    # following _combine_pair's search order).
    DIGEST = "fdeaef0eea6f1ee8ba441c6ad2158a59e446419acbd1cb35c81e68f69b136cd7"

    def test_witnesses_match_the_recorded_digest(self):
        """The witness digest over heuristic_cases.

        The digest pins the witnesses as well as the answers: a change to
        the DP's join order that keeps every answer can still change a
        witness.  A change that moves the digest is a contract change;
        record the new digest and the reason in CHANGES.md.
        """
        assert self.witness_digest(self.heuristic_cases()) == self.DIGEST

    # sha256 of the pinned outputs below, recorded with ANSWERS_DIGEST
    # (1b0ff89d... before, 3681a37d... and b95ea5e9... before that).
    REPLAY_DIGEST = "4af54db9f7f796b662a3a55f4f418f8fe963a1d9889f4b0c8da04b8f33b02828"

    def test_mirrored_and_exact_tiny_witnesses_match_the_recorded_digest(self):
        """The witness digest over replay_cases."""
        assert self.witness_digest(self.replay_cases()) == self.REPLAY_DIGEST

    # The witness digests without the largest table sizes, over
    # heuristic_cases and replay_cases, recorded before the demand and
    # supply rules: a pruning that keeps every witness keeps them.
    WITNESS_ONLY_DIGEST = "0afd217ece4c1f95e520c3d9702006982feaa15b73d6cd638ee70f36e3ab5569"
    REPLAY_WITNESS_ONLY_DIGEST = (
        "517d6f8012d4c152cf5d6a01ff66ef22a148c063ac70e18d3c20534035481abd"
    )

    def test_witnesses_without_table_sizes_match_the_recorded_digests(self):
        """Both witness digests without the table sizes: they move only when
        a witness or an answer does."""
        heuristic = self.witness_digest(self.heuristic_cases(), sizes=False)
        assert heuristic == self.WITNESS_ONLY_DIGEST
        replay = self.witness_digest(self.replay_cases(), sizes=False)
        assert replay == self.REPLAY_WITNESS_ONLY_DIGEST

    def test_replay_cases_join_two_subtrees(self):
        """Replay meets joins with no leaf child: 22 of the 48 exact-tiny
        trees have a node whose two children are both internal (13 when the
        search took the first minimum-width tree of an enumeration)."""
        joined = 0
        for _, d in self.replay_cases():
            joins = [d.children(t) for t in d.postorder() if not d.is_leaf(t)]
            if any(not d.is_leaf(r) and not d.is_leaf(s) for r, s in joins):
                joined += 1
        assert joined >= 13
