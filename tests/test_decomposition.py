import random

import pytest

from bcoloring import (
    CapacityError,
    Graph,
    InputError,
    RootedBranchDecomposition,
    StructuralError,
    best_decomposition,
    linear_decomposition,
    module_width,
    validate,
)
from bcoloring.decomposition import equivalence_classes, operator_of
from helpers import random_graph


def node_with_vertices(d, wanted):
    for t in d.postorder():
        if d.vertex_set(t) == frozenset(wanted):
            return t
    raise AssertionError(f"no node covers {wanted}")


class TestEquivalenceClasses:
    def test_star_two_leaves_share_class(self):
        g = Graph.star(3)  # center 0, leaves 1..3
        d = linear_decomposition(g, [1, 2, 0, 3])
        t = node_with_vertices(d, {1, 2})
        assert equivalence_classes(g, d, t).classes == ((1, 2),)

    def test_star_center_and_leaf_split(self):
        g = Graph.star(3)
        d = linear_decomposition(g, [0, 1, 2, 3])
        t = node_with_vertices(d, {0, 1})
        assert equivalence_classes(g, d, t).classes == ((0,), (1,))

    def test_root_is_single_class(self):
        g = Graph.path(4)
        d = linear_decomposition(g, [2, 0, 3, 1])
        assert equivalence_classes(g, d, d.root).classes == ((0, 1, 2, 3),)

    def test_unknown_node(self):
        g = Graph.complete(2)
        d = linear_decomposition(g, [0, 1])
        with pytest.raises(InputError):
            equivalence_classes(g, d, 99)


class TestModuleWidth:
    def test_complete_graph_linear_is_one(self):
        g = Graph.complete(4)
        assert module_width(g, linear_decomposition(g, [0, 1, 2, 3])) == 1
        assert module_width(g, linear_decomposition(g, [2, 0, 3, 1])) == 1

    def test_single_vertex(self):
        g = Graph(1)
        assert module_width(g, linear_decomposition(g, [0])) == 1

    def test_star_center_first_is_two(self):
        g = Graph.star(3)
        assert module_width(g, linear_decomposition(g, [0, 1, 2, 3])) == 2


class TestOperatorOf:
    def test_k2_root(self):
        g = Graph.complete(2)
        d = linear_decomposition(g, [0, 1])
        op = operator_of(g, d, d.root)
        assert op.h_edges == {(0, 0)}
        assert op.bubble_r == (0,)
        assert op.bubble_s == (0,)

    def test_p3_joining_nonadjacent_leaves(self):
        g = Graph.path(3)
        d = linear_decomposition(g, [0, 2, 1])
        t = node_with_vertices(d, {0, 2})
        op = operator_of(g, d, t)
        assert op.h_edges == frozenset()
        assert op.bubble_r == (0,)
        assert op.bubble_s == (0,)
        assert equivalence_classes(g, d, t).classes == ((0, 2),)

    def test_edgeless_has_no_h_edges(self):
        g = Graph.edgeless(4)
        d = linear_decomposition(g, [0, 1, 2, 3])
        for t in d.postorder():
            if not d.is_leaf(t):
                assert operator_of(g, d, t).h_edges == frozenset()

    def test_leaf_rejected(self):
        g = Graph.complete(2)
        d = linear_decomposition(g, [0, 1])
        with pytest.raises(InputError):
            operator_of(g, d, d.leaves()[0])


class TestValidate:
    def test_correct_decomposition(self):
        g = Graph.cycle(4)
        report = validate(g, linear_decomposition(g, [0, 1, 2, 3]))
        assert report.ok
        assert report.problems == ()

    def test_missing_leaf(self):
        g = Graph.cycle(4)
        d = RootedBranchDecomposition(
            [(1, 2), None, None], {1: 0, 2: 1}, root=0
        )
        report = validate(g, d)
        assert not report.ok
        assert "leaf_map not bijective" in report.problems[0]

    def test_three_child_node_rejected(self):
        with pytest.raises(StructuralError, match="not binary"):
            RootedBranchDecomposition(
                [(1, 2, 3), None, None, None], {1: 0, 2: 1, 3: 2}, root=0
            )

    def test_cycle_rejected(self):
        with pytest.raises(StructuralError):
            RootedBranchDecomposition([(1, 2), (0, 2), None], {2: 0}, root=0)

    def test_repeated_leaf_vertex_rejected(self):
        with pytest.raises(StructuralError, match="bijective"):
            RootedBranchDecomposition([(1, 2), None, None], {1: 0, 2: 0}, root=0)


class TestLinearDecomposition:
    def test_single_vertex_root_is_leaf(self):
        d = linear_decomposition(Graph(1), [0])
        assert d.node_count == 1
        assert d.is_leaf(d.root)

    def test_two_vertices(self):
        d = linear_decomposition(Graph.complete(2), [0, 1])
        assert d.node_count == 3
        assert not d.is_leaf(d.root)
        assert all(d.is_leaf(c) for c in d.children(d.root))

    def test_four_vertices_has_three_internal_nodes(self):
        d = linear_decomposition(Graph.path(4), [0, 1, 2, 3])
        internal = [t for t in d.postorder() if not d.is_leaf(t)]
        assert len(internal) == 3

    def test_rejects_non_permutation(self):
        with pytest.raises(InputError):
            linear_decomposition(Graph.complete(3), [0, 1, 1])


class TestBestDecomposition:
    def test_complete_graph_exact_width_one(self):
        g = Graph.complete(5)
        d = best_decomposition(g, "exact-tiny")
        assert module_width(g, d) == 1

    def test_star_exact_width_at_most_two(self):
        g = Graph.star(3)
        assert module_width(g, best_decomposition(g, "exact-tiny")) <= 2

    def test_single_vertex(self):
        g = Graph(1)
        assert module_width(g, best_decomposition(g, "exact-tiny")) == 1
        assert module_width(g, best_decomposition(g, "heuristic")) == 1

    def test_exact_tiny_capacity(self):
        with pytest.raises(CapacityError):
            best_decomposition(Graph.edgeless(9), "exact-tiny")

    def test_unknown_effort(self):
        with pytest.raises(InputError):
            best_decomposition(Graph.complete(2), "luck")

    def test_exact_never_worse_than_heuristic(self):
        rng = random.Random(99)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.8))
            exact = module_width(g, best_decomposition(g, "exact-tiny"))
            heur = module_width(g, best_decomposition(g, "heuristic"))
            assert exact <= heur


class TestInvariants:
    def test_classes_partition_vertex_set(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.9))
            d = best_decomposition(g, "heuristic")
            for t in d.postorder():
                classes = equivalence_classes(g, d, t).classes
                flat = [v for cls in classes for v in cls]
                assert sorted(flat) == sorted(d.vertex_set(t))
                assert len(flat) == len(set(flat))

    def test_width_attained_and_bounds_all_nodes(self):
        rng = random.Random(8)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.9))
            d = best_decomposition(g, "heuristic")
            counts = [len(equivalence_classes(g, d, t)) for t in d.postorder()]
            assert module_width(g, d) == max(counts)

    def test_operator_reconstructs_induced_edges(self):
        # E(G_t) = E(G_r) + E(G_s) + all pairs across h-edges.
        rng = random.Random(9)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.1, 0.9))
            d = best_decomposition(g, "heuristic")
            for t in d.postorder():
                if d.is_leaf(t):
                    continue
                r, s = d.children(t)
                op = operator_of(g, d, t)
                cr = equivalence_classes(g, d, r).classes
                cs = equivalence_classes(g, d, s).classes
                cross = {
                    (min(u, v), max(u, v))
                    for i, j in op.h_edges
                    for u in cr[i]
                    for v in cs[j]
                }
                inside = lambda node: {
                    e
                    for e in g.edges()
                    if set(e) <= d.vertex_set(node)
                }
                assert inside(r) | inside(s) | cross == inside(t)

    def test_bubble_consistency(self):
        rng = random.Random(10)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.1, 0.9))
            d = best_decomposition(g, "heuristic")
            for t in d.postorder():
                if d.is_leaf(t):
                    continue
                r, s = d.children(t)
                op = operator_of(g, d, t)
                ct = equivalence_classes(g, d, t).classes
                for child, bubbles in ((r, op.bubble_r), (s, op.bubble_s)):
                    for i, cls in enumerate(equivalence_classes(g, d, child).classes):
                        assert set(cls) <= set(ct[bubbles[i]])
