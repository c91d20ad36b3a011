import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from bcoloring import bcol_dp, cli, decomposition, fall_dp
from bcoloring.decomposition import (
    _annotate,
    _greedy_order,
    equivalence_classes,
)
from helpers import (
    all_shapes,
    atlas_connected_corpus,
    caterpillar,
    frontier_greedy_order,
    ladder,
    mirrored,
    operator_of,
    outside_masks,
    random_decomposition,
    random_graph,
    reference_exact_decomposition,
    reference_greedy_order,
    reference_partition,
    reference_walk,
    relabeled,
    rule_facts,
    span_tree,
)


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

    def test_negative_leaf_vertex_rejected(self):
        with pytest.raises(StructuralError, match="bijective"):
            RootedBranchDecomposition([(1, 2), None, None], {1: 0, 2: -1}, root=0)


class TestConstructorRefusals:
    """Each structural defect, alone in its tree, refused by its message."""

    @pytest.mark.parametrize(
        "children, leaf_vertex, root, message",
        [
            ([], {}, 0, "decomposition has no nodes"),
            ([(1, 2), None, None], {1: 0, 2: 1}, 3, "root 3 out of range"),
            ([(1, 2), None, None], {1: 0}, 0, "node 2: leaf without a graph vertex"),
            (
                [(1, 2), None, None],
                {0: 2, 1: 0, 2: 1},
                0,
                "node 0: internal node mapped to a vertex",
            ),
            ([(1, 5), None, None], {1: 0}, 0, "node 0: child 5 out of range"),
            (
                [(1, 2), None, None, (1, 2), None],
                {1: 0, 2: 1, 4: 2},
                0,
                r"nodes unreachable from root: \[3, 4\]",
            ),
            ([(1, 2), (3, 4), None, None, None], {2: 0, 3: 1}, 0, "node 4: leaf without"),
        ],
        ids=[
            "no-nodes",
            "root-out-of-range",
            "leaf-without-vertex",
            "internal-mapped",
            "child-out-of-range",
            "unreachable",
            "deeper-leaf-without-vertex",
        ],
    )
    def test_refusal_message(self, children, leaf_vertex, root, message):
        with pytest.raises(StructuralError, match=message):
            RootedBranchDecomposition(children, leaf_vertex, root=root)

    @pytest.mark.parametrize(
        "children",
        [[(1, 2), (0, 2), None], [(1, 1), None], [(1, 2), (3, 3), None, None]],
        ids=["cycle", "same-child-twice", "shared-grandchild"],
    )
    def test_visited_twice(self, children):
        leaves = {t: v for v, t in enumerate(t for t, c in enumerate(children) if c is None)}
        with pytest.raises(StructuralError, match=r"not a tree \(visited twice\)"):
            RootedBranchDecomposition(children, leaves, root=0)


def shape_corpus() -> list[tuple[Graph, RootedBranchDecomposition]]:
    """240 random-shape trees over seeded graphs (n up to 12), 30 linear
    ones under shuffled orders and 20 exact-tiny ones."""
    rng = random.Random(27)
    pairs = []
    for _ in range(240):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
        pairs.append((g, random_decomposition(g, rng)))
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
        order = list(g.vertices())
        rng.shuffle(order)
        pairs.append((g, linear_decomposition(g, order)))
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.9))
        pairs.append((g, best_decomposition(g, "exact-tiny")))
    return pairs


class TestTreeShape:
    """The tree keeps its shape and one walk order; V_t is built on demand.
    Both are checked against the two-phase walk that builds every V_t."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return shape_corpus()

    def test_postorder_and_vertex_sets_match_the_reference_walk(self, corpus):
        for g, d in corpus:
            post, below = reference_walk(d)
            assert list(d.postorder()) == post
            assert sorted(post) == list(range(d.node_count))
            for t in post:
                assert d.vertex_mask(t) == below[t]
                assert d.vertex_set(t) == frozenset(
                    v for v in g.vertices() if below[t] >> v & 1
                )
            assert d.vertex_mask(d.root) == (1 << g.n) - 1

    def test_format_round_trip(self, corpus):
        for g, d in corpus:
            text = cli.format_decomposition(d)
            ids = [int(line.split()[1]) for line in text.splitlines()]
            assert ids[0] == d.root
            assert sorted(ids) == list(range(d.node_count))
            back = cli.parse_decomposition_text(text, g)
            # the parser numbers the nodes in the order they are listed
            assert back.root == 0
            for i, t in enumerate(ids):
                assert back.is_leaf(i) == d.is_leaf(t)
                if d.is_leaf(t):
                    assert back.leaf_vertex(i) == d.leaf_vertex(t)
                else:
                    assert tuple(ids[c] for c in back.children(i)) == d.children(t)
            assert [ids[i] for i in back.postorder()] == list(d.postorder())


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


class TestExactSearch:
    """exact-tiny's DP over vertex subsets against the enumeration of every
    rooted binary tree, which it replaced."""

    @staticmethod
    def check(g, shapes):
        d = best_decomposition(g, "exact-tiny")
        width = module_width(g, d)
        assert width == reference_exact_decomposition(g, shapes)[1]
        assert validate(g, d)
        assert width == _annotate(g, unrecorded(d)).width
        assert width <= module_width(g, best_decomposition(g, "heuristic"))

    def test_the_atlas(self):
        graphs = atlas_connected_corpus(6)
        assert len(graphs) == 143
        shapes = {n: all_shapes(n) for n in range(1, 7)}
        for g in graphs:
            self.check(g, shapes[g.n])

    def test_seeded_graphs(self):
        """300 graphs with n <= 7, then 5 with n = 8, where the
        enumeration tries 135,135 trees per graph."""
        rng = random.Random(2026)
        sizes = [rng.randint(1, 7) for _ in range(300)] + [8] * 5
        shapes = {n: all_shapes(n) for n in set(sizes)}
        for n in sizes:
            self.check(random_graph(rng, n, rng.uniform(0.1, 0.9)), shapes[n])


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
        rng, shapes = random.Random(8), random.Random(108)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.9))
            for d in heuristic_and_random_shape(g, shapes):
                counts = [len(equivalence_classes(g, d, t)) for t in d.postorder()]
                assert module_width(g, d) == max(counts)

    def test_operator_reconstructs_induced_edges(self):
        # E(G_t) = E(G_r) + E(G_s) + all pairs across h-edges.
        rng, shapes = random.Random(9), random.Random(109)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.1, 0.9))
            for d in heuristic_and_random_shape(g, shapes):
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
        rng, shapes = random.Random(10), random.Random(110)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.1, 0.9))
            for d in heuristic_and_random_shape(g, shapes):
                for t in d.postorder():
                    if d.is_leaf(t):
                        continue
                    r, s = d.children(t)
                    op = operator_of(g, d, t)
                    ct = equivalence_classes(g, d, t).classes
                    for child, bubbles in ((r, op.bubble_r), (s, op.bubble_s)):
                        classes = equivalence_classes(g, d, child).classes
                        for i, cls in enumerate(classes):
                            assert set(cls) <= set(ct[bubbles[i]])

    def test_dead_class(self):
        # The dead class is the one whose vertices have no neighbor outside
        # V_t, or None; the root and every node holding an isolated vertex
        # have one.
        rng, shapes = random.Random(11), random.Random(111)
        for trial in range(20):
            g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.1, 0.9))
            if trial % 2:
                g = Graph(g.n + 1, g.edges())
            for d in heuristic_and_random_shape(g, shapes):
                for t in d.postorder():
                    if d.is_leaf(t):
                        continue
                    vt = d.vertex_set(t)
                    dead = [
                        q
                        for q, cls in enumerate(equivalence_classes(g, d, t).classes)
                        if not g.neighbors(cls[0]) - vt
                    ]
                    assert operator_of(g, d, t).dead == (dead[0] if dead else None)
                    if t == d.root or any(not g.neighbors(v) for v in vt):
                        assert dead

    def test_outside_facts(self):
        # The overlaps: the nodes where some vertex outside V_t is adjacent
        # to two classes, each with the distinct masks of the classes
        # adjacent to one outside vertex.  The neighbors: each vertex
        # outside V_t with its class mask, at every node here (no hub
        # reaches the limit).  Both from equivalence_classes (rule_facts,
        # outside_masks), on the annotation of each tree and of a fresh
        # copy of it first annotated by validate, which holds the same
        # facts.  Mirrored trees put the leaves on the r side.
        rng, shapes = random.Random(12), random.Random(112)
        overlapping = 0
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.1, 0.9))
            trees = heuristic_and_random_shape(g, shapes)
            for d in (*trees, *map(mirrored, trees)):
                validated = unrecorded(d)
                assert validate(g, validated)
                expected = {}
                internal = [t for t in d.postorder() if not d.is_leaf(t)]
                for t in internal:
                    overlaps, _ = rule_facts(g, d, t, 1, False)
                    if overlaps is not None:
                        expected[t] = overlaps
                for annotation in (_annotate(g, d), _annotate(g, validated)):
                    for t in internal:
                        near = annotation.neighbors[t]
                        assert dict(near) == outside_masks(g, d, t)
                        assert len(near) == len(outside_masks(g, d, t))
                    assert annotation.overlaps == expected
                    assert set(annotation.neighbors) == set(internal)
                assert _annotate(g, validated) == _annotate(g, d)
                overlapping += len(expected)
        assert overlapping > 50

    def test_one_walk_per_graph_and_tree(self, monkeypatch):
        # validate, module_width, the reference runs, the decisions at
        # every k and the fall decision all read one walk per graph object
        # and tree, whichever of them comes first; an equal graph object
        # is walked again.
        walks = []
        original = decomposition._walk

        def counting(g, d):
            walks.append((g, d))
            return original(g, d)

        monkeypatch.setattr(decomposition, "_walk", counting)
        g = Graph.cycle(7)
        trees = [linear_decomposition(g, range(7)) for _ in range(2)]
        for validate_first, d in zip((True, False), trees):
            if validate_first:
                assert validate(g, d) and module_width(g, d) == 3
            bcol_dp.compute_tables(g, d, 2)
            fall_dp.compute_fall_tables(g, d, 2)
            for k in (1, 2, 3):
                bcol_dp.decide(g, d, k)
            for k in (2, 3):
                assert fall_dp.solve_fallcoloring_witness(g, d, k) is None
            assert validate(g, d) and module_width(g, d) == 3
        assert len(walks) == 2
        assert all(w is g and e is d for (w, e), d in zip(walks, trees))
        h = Graph(7, g.edges())
        assert module_width(h, trees[0]) == 3
        assert len(walks) == 3 and walks[2][0] is h and walks[2][1] is trees[0]


def heuristic_and_random_shape(g, rng):
    """g's heuristic decomposition, a caterpillar where one child of every
    join is a leaf, and a random-shape one, where both can be subtrees."""
    return best_decomposition(g, "heuristic"), random_decomposition(g, rng)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def blown_up(count: int, size: int, joined) -> Graph:
    """count blocks of size vertices (block i holds i*size .. i*size+size-1);
    u < v are adjacent iff joined(block of u, block of v)."""
    return Graph(
        count * size,
        [
            (u, v)
            for u, v in itertools.combinations(range(count * size), 2)
            if joined(u // size, v // size)
        ],
    )


class TestAgainstReferences:
    """The incremental greedy order and the bitmask class partitions equal
    the from-scratch references in helpers, node by node.  The cubic
    reference_greedy_order is too slow beyond n of about 120, so larger and
    denser graphs are checked against frontier_greedy_order, which scans
    every class signature at every step."""

    def check(self, g, d):
        for t in d.postorder():
            expected = reference_partition(g, d.vertex_set(t))
            assert equivalence_classes(g, d, t).classes == expected

    def test_random_graphs(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
            assert _greedy_order(g)[0] == reference_greedy_order(g)
            self.check(g, best_decomposition(g, "heuristic"))
            self.check(g, random_decomposition(g, rng))

    @pytest.mark.parametrize(
        "g",
        [
            Graph.edgeless(12),
            Graph.complete(10),
            Graph.star(9),
            complete_bipartite(4, 5),
            blown_up(3, 4, lambda i, j: i == j),
            # the two vertices of a block are twins: a blown-up path
            # (non-adjacent twins) and a blown-up co-matching (adjacent twins)
            blown_up(5, 2, lambda i, j: j == i + 1),
            blown_up(4, 2, lambda i, j: i == j or j - i > 1),
            # a path on the even vertices, the odd ones isolated
            Graph(12, [(2 * i, 2 * i + 2) for i in range(5)]),
        ],
        ids=[
            "edgeless",
            "complete",
            "star",
            "bipartite",
            "cliques",
            "false-twins",
            "true-twins",
            "isolated",
        ],
    )
    def test_tie_heavy_graphs(self, g):
        # Many candidates tie on their class count here, so the order is
        # decided by the smallest-vertex rule; relabellings move the ties.
        rng = random.Random(13)
        for trial in range(6):
            perm = list(g.vertices())
            if trial:
                rng.shuffle(perm)
            h = relabeled(g, perm)
            assert _greedy_order(h)[0] == reference_greedy_order(h)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_greedy_order_property(self, data):
        n = data.draw(st.integers(1, 14))
        pairs = list(itertools.combinations(range(n), 2))
        present = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, [e for e, keep in zip(pairs, present) if keep])
        assert _greedy_order(g)[0] == reference_greedy_order(g)

    @pytest.mark.parametrize(
        "make",
        [Graph.path, Graph.cycle, lambda n: ladder(n // 2), lambda n: caterpillar(n // 2)],
        ids=["path", "cycle", "ladder", "caterpillar"],
    )
    def test_relabelled_sparse_families(self, make):
        rng = random.Random(12)
        for n in (60, 120):
            family = make(n)
            perm = list(family.vertices())
            rng.shuffle(perm)
            g = relabeled(family, perm)
            assert _greedy_order(g)[0] == reference_greedy_order(g)
            self.check(g, best_decomposition(g, "heuristic"))

    @pytest.mark.parametrize("n", [300, 1000])
    @pytest.mark.parametrize(
        "make",
        [
            Graph.path,
            Graph.cycle,
            lambda n: ladder(n // 2),
            lambda n: caterpillar(n // 2),
            lambda n: span_tree(n, random.Random(n)),
        ],
        ids=["path", "cycle", "ladder", "caterpillar", "span-2-tree"],
    )
    def test_large_relabelled_families(self, make, n):
        family = make(n)
        perm = list(family.vertices())
        random.Random(14).shuffle(perm)
        g = relabeled(family, perm)
        order, width = _greedy_order(g)
        assert order == frontier_greedy_order(g)
        assert width == _annotate(g, linear_decomposition(g, order)).width

    @pytest.mark.parametrize(
        "g",
        [
            blown_up(10, 10, lambda i, j: j == i + 1),
            blown_up(12, 10, lambda i, j: i == j or j - i > 1),
            complete_bipartite(50, 50),
            # a path on every third vertex, the others isolated
            Graph(150, [(3 * i, 3 * i + 3) for i in range(49)]),
            # own neighbourhoods become empty, and 0 a signature, as soon
            # as a vertex's partner or center is chosen
            Graph(120, [(2 * i, 2 * i + 1) for i in range(60)]),
            Graph(120, [(10 * i, 10 * i + j) for i in range(12) for j in range(1, 10)]),
            random_graph(random.Random(15), 150, 0.5),
        ],
        ids=[
            "false-twins-100",
            "true-twins-120",
            "K50,50",
            "isolated",
            "matching",
            "stars",
            "dense-150",
        ],
    )
    def test_twins_isolated_and_dense(self, g):
        # The paths of the search that find the vertices whose own
        # neighbourhood equals a new signature: many twins share one, an
        # isolated vertex starts with the empty one, and a matched or leaf
        # vertex gets it when its partner or center is chosen.
        rng = random.Random(16)
        for trial in range(3):
            perm = list(g.vertices())
            if trial:
                rng.shuffle(perm)
            h = relabeled(g, perm)
            order, width = _greedy_order(h)
            assert order == frontier_greedy_order(h)
            assert width == _annotate(h, linear_decomposition(h, order)).width

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        p=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_greedy_order_against_frontier(self, n, p, seed):
        g = random_graph(random.Random(seed), n, p)
        assert _greedy_order(g)[0] == frontier_greedy_order(g)


def unrecorded(d: RootedBranchDecomposition) -> RootedBranchDecomposition:
    """A fresh copy of d, with no recorded width and no annotation."""
    children = [None if d.is_leaf(t) else d.children(t) for t in range(d.node_count)]
    leaves = {t: d.leaf_vertex(t) for t in d.leaves()}
    return RootedBranchDecomposition(children, leaves, root=d.root)


@pytest.fixture
def annotate_calls(monkeypatch):
    """The decompositions _annotate is called on, wherever it is called."""
    calls = []
    original = decomposition._annotate

    def counting(g, d):
        calls.append(d)
        return original(g, d)

    monkeypatch.setattr(decomposition, "_annotate", counting)
    monkeypatch.setattr(bcol_dp, "_annotate", counting)
    return calls


class TestRecordedWidth:
    """best_decomposition records the width its search measured, and
    module_width returns it for the same graph object without annotating."""

    @pytest.mark.parametrize("effort", ["heuristic", "exact-tiny"])
    def test_recorded_width_is_the_module_width(self, effort, annotate_calls):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(1, 6 if effort == "exact-tiny" else 12)
            g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            d = best_decomposition(g, effort)
            width = module_width(g, d)
            assert annotate_calls == []
            counts = [len(equivalence_classes(g, d, t)) for t in d.postorder()]
            assert width == max(counts)
            h = Graph(g.n, g.edges())
            if effort == "heuristic":
                fresh = linear_decomposition(h, _greedy_order(h)[0])
            else:
                fresh = unrecorded(d)
            assert width == _annotate(h, fresh).width

    def test_decompose_never_annotates_and_cw_annotates_once(
        self, tmp_path, capsys, annotate_calls
    ):
        g = Graph.cycle(9)
        path = tmp_path / "c9.col"
        path.write_text(cli.format_graph(g))
        argv = ["decompose", "--graph", str(path), "--out", str(tmp_path / "c9.dec")]
        assert cli.main(argv) == 0
        assert annotate_calls == []
        assert cli.main(["bcol", "--graph", str(path), "--k", "3", "--solver", "cw"]) == 0
        assert len(annotate_calls) == 1
        capsys.readouterr()

    def test_other_graph_object_is_annotated_and_validated(self, annotate_calls):
        g = Graph.cycle(6)
        d = best_decomposition(g, "heuristic")
        h = Graph(6, g.edges())
        assert module_width(h, d) == module_width(g, d)
        assert annotate_calls == [d]
        with pytest.raises(StructuralError, match="not bijective"):
            module_width(Graph.cycle(7), d)
