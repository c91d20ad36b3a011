import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcoloring import Coloring, Graph, InputError, brute_force_chi_b, is_proper
from helpers import graph_structure, outcome, random_graph, reference_graph


class TestNeighbors:
    def test_complete_graph(self):
        assert Graph.complete(3).neighbors(0) == {1, 2}

    def test_path_midpoint(self):
        assert Graph.path(3).neighbors(1) == {0, 2}

    def test_edgeless(self):
        assert Graph.edgeless(3).neighbors(2) == frozenset()

    def test_out_of_range(self):
        with pytest.raises(InputError):
            Graph.complete(3).neighbors(3)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])

    def test_degrees(self):
        g = Graph.star(3)
        assert g.max_degree() == 3
        assert g.min_degree() == 1
        assert g.degree(0) == 3


class TestConstructionAgainstReference:
    """One-pass construction against helpers.reference_graph, the checks
    and structure as they were: the same graph, or the same InputError,
    for the first offending edge in input order."""

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (1, 1), (0, 5)], "self-loop at vertex 1"),
            ([(0, 5), (1, 1)], "edge (0, 5) out of range for n=3"),
            ([(0, 1), (1, 0), (2, 2)], "duplicate edge (1, 0)"),
            ([(2, 2), (0, 1), (1, 0)], "self-loop at vertex 2"),
            ([(0, 1), (1, 2), (2, 1), (0, 3)], "duplicate edge (2, 1)"),
            ([(1, 2), (-1, 0), (1, 2)], "edge (-1, 0) out of range for n=3"),
        ],
    )
    def test_first_fault_in_input_order(self, edges, message):
        with pytest.raises(InputError) as caught:
            Graph(3, iter(edges))
        assert str(caught.value) == message
        assert outcome(reference_graph, 3, edges) == ("raised", InputError, message)

    def test_random_edge_lists(self):
        rng = random.Random(7)
        for _ in range(3_000):
            n = rng.randint(0, 9)
            edges = [(rng.randint(-1, n), rng.randint(-1, n)) for _ in range(rng.randint(0, 12))]
            if rng.random() < 0.5:  # mostly valid, faults late
                edges = [(u, v) for u, v in edges if 0 <= u < v < n]
                edges = list(dict.fromkeys(edges)) + edges[: rng.randint(0, 1)]
            expected = outcome(reference_graph, n, edges)
            assert outcome(lambda: graph_structure(Graph(n, edges))) == expected, (n, edges)


class TestAdjacencyMasks:
    """The n-bit masks are built on the first adjacency_masks() call, equal
    to masks built edge by edge, and kept."""

    def test_lazy_masks_equal_eager_ones(self):
        rng = random.Random(9)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 40), rng.uniform(0.0, 1.0))
            eager = [0] * g.n
            for u, v in g.edges():
                eager[u] |= 1 << v
                eager[v] |= 1 << u
            assert g._masks is None
            assert g.adjacency_masks() == tuple(eager)
            assert g.adjacency_masks() is g.adjacency_masks()


class TestIsProper:
    def test_k2_distinct(self):
        assert is_proper(Graph.complete(2), Coloring((1, 2), 2))

    def test_k2_same(self):
        assert not is_proper(Graph.complete(2), Coloring((1, 1), 2))

    def test_c4_alternating(self):
        assert is_proper(Graph.cycle(4), Coloring((1, 2, 1, 2), 2))

    def test_requires_total(self):
        with pytest.raises(InputError):
            is_proper(Graph.complete(3), Coloring((1, 2), 2))


graphs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda e: (min(e), max(e))
            ).filter(lambda e: e[0] != e[1]),
            max_size=n * (n - 1) // 2,
        ),
    )
).map(lambda t: Graph(t[0], sorted(t[1])))


@settings(max_examples=60, deadline=None)
@given(g=graphs, data=st.data())
def test_neighbor_symmetry(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    if u != v:
        assert (v in g.neighbors(u)) == (u in g.neighbors(v))


@settings(max_examples=60, deadline=None)
@given(g=graphs, data=st.data())
def test_is_proper_invariant_under_color_permutation(g, data):
    k = data.draw(st.integers(1, 4))
    colors = tuple(data.draw(st.integers(1, k)) for _ in range(g.n))
    perm = data.draw(st.permutations(range(1, k + 1)))
    relabel = {old: new for old, new in zip(range(1, k + 1), perm)}
    permuted = tuple(relabel[c] for c in colors)
    assert is_proper(g, Coloring(colors, k)) == is_proper(g, Coloring(permuted, k))


@settings(max_examples=60, deadline=None)
@given(g=graphs)
def test_m_degree_bounds_chi_b(g):
    assert brute_force_chi_b(g) <= g.m_degree() <= g.max_degree() + 1


class TestMDegree:
    def test_small_families(self):
        assert Graph.edgeless(3).m_degree() == 1
        assert Graph.path(4).m_degree() == 2
        assert Graph.star(3).m_degree() == 2
        assert Graph.complete(5).m_degree() == 5
        assert Graph.cycle(6).m_degree() == 3
        assert Graph(0).m_degree() == 0


class TestColoring:
    def test_classes(self):
        c = Coloring((1, 2, 1), 3)
        assert c.classes() == (frozenset({0, 2}), frozenset({1}), frozenset())

    def test_rejects_out_of_range_color(self):
        with pytest.raises(InputError):
            Coloring((0, 1), 2)
        with pytest.raises(InputError):
            Coloring((1, 3), 2)
