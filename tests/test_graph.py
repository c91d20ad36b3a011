import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcoloring import Coloring, Graph, InputError, is_proper
from bcoloring.graph import induced_subgraph, neighbors


class TestNeighbors:
    def test_complete_graph(self):
        assert neighbors(Graph.complete(3), 0) == {1, 2}

    def test_path_midpoint(self):
        assert neighbors(Graph.path(3), 1) == {0, 2}

    def test_edgeless(self):
        assert neighbors(Graph.edgeless(3), 2) == frozenset()

    def test_out_of_range(self):
        with pytest.raises(InputError):
            neighbors(Graph.complete(3), 3)


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


class TestInducedSubgraph:
    def test_complete_to_edge(self):
        sub, remap = induced_subgraph(Graph.complete(3), {0, 1})
        assert sub == Graph.complete(2)
        assert remap == {0: 0, 1: 1}

    def test_path_endpoints(self):
        sub, _ = induced_subgraph(Graph.path(4), {0, 2})
        assert sub == Graph.edgeless(2)

    def test_full_vertex_set_is_identity(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 3)])
        sub, remap = induced_subgraph(g, g.vertices())
        assert sub == g
        assert remap == {v: v for v in g.vertices()}


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
        assert (v in neighbors(g, u)) == (u in neighbors(g, v))


@settings(max_examples=60, deadline=None)
@given(g=graphs, data=st.data())
def test_is_proper_invariant_under_color_permutation(g, data):
    k = data.draw(st.integers(1, 4))
    colors = tuple(data.draw(st.integers(1, k)) for _ in range(g.n))
    perm = data.draw(st.permutations(range(1, k + 1)))
    relabel = {old: new for old, new in zip(range(1, k + 1), perm)}
    permuted = tuple(relabel[c] for c in colors)
    assert is_proper(g, Coloring(colors, k)) == is_proper(g, Coloring(permuted, k))


class TestColoring:
    def test_classes(self):
        c = Coloring((1, 2, 1), 3)
        assert c.classes() == (frozenset({0, 2}), frozenset({1}), frozenset())

    def test_rejects_out_of_range_color(self):
        with pytest.raises(InputError):
            Coloring((0, 1), 2)
        with pytest.raises(InputError):
            Coloring((1, 3), 2)
