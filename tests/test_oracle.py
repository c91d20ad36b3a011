import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcoloring import (
    CapacityError,
    Coloring,
    Graph,
    brute_force_bcoloring,
    brute_force_chi_b,
    brute_force_fallcoloring,
    is_b_coloring,
    is_fall_coloring,
    oracle,
)
from helpers import random_graph


class TestIsBColoring:
    def test_triangle_rainbow(self):
        assert is_b_coloring(Graph.complete(3), Coloring((1, 2, 3), 3))

    def test_path_rainbow_fails(self):
        # No vertex of color 1 sees color 3 in P_3.
        assert not is_b_coloring(Graph.path(3), Coloring((1, 2, 3), 3))

    def test_improper_fails(self):
        assert not is_b_coloring(Graph.complete(2), Coloring((1, 1), 1))

    def test_empty_class_fails(self):
        assert not is_b_coloring(Graph.complete(2), Coloring((1, 2), 3))


def test_is_b_vertex_set():
    # P_5 colored 1 2 3 1 2: vertices 3, 1 and 2 are the b-vertices of
    # classes 1, 2 and 3; vertex 0 (color 1) sees color 2 only.
    g, c = Graph.path(5), Coloring((1, 2, 3, 1, 2), 3)
    assert oracle.is_b_vertex_set(g, c, frozenset({1, 2, 3}))
    for b in ({0, 1, 2}, {1, 2}, {1, 2, 3, 0}, {2, 3, 4}, {1, 3}):
        assert not oracle.is_b_vertex_set(g, c, frozenset(b)), b


class TestIsFallColoring:
    def test_c4_alternating(self):
        assert is_fall_coloring(Graph.cycle(4), Coloring((1, 2, 1, 2), 2))

    def test_c6_alternating(self):
        assert is_fall_coloring(Graph.cycle(6), Coloring((1, 2, 1, 2, 1, 2), 2))

    def test_p3_two_classes(self):
        # Classes {a,c} and {b}: every vertex sees the other class.
        assert is_fall_coloring(Graph.path(3), Coloring((1, 2, 1), 2))

    def test_p4_alternating(self):
        assert is_fall_coloring(Graph.path(4), Coloring((1, 2, 1, 2), 2))

    def test_p4_improper(self):
        assert not is_fall_coloring(Graph.path(4), Coloring((1, 2, 2, 1), 2))


class TestBruteForceBColoring:
    def test_k4_returns_bijection(self):
        assert brute_force_bcoloring(Graph.complete(4), 4) == Coloring(
            (1, 2, 3, 4), 4
        )

    def test_star_three_colors_impossible(self):
        assert brute_force_bcoloring(Graph.star(3), 3) is None

    def test_p4_two_colors(self):
        witness = brute_force_bcoloring(Graph.path(4), 2)
        assert witness is not None
        assert is_b_coloring(Graph.path(4), witness)

    def test_capacity_refusal(self):
        with pytest.raises(CapacityError):
            brute_force_bcoloring(Graph.edgeless(11), 1)


class TestBruteForceChiB:
    def test_complete(self):
        assert brute_force_chi_b(Graph.complete(5)) == 5

    def test_star(self):
        assert brute_force_chi_b(Graph.star(4)) == 2

    def test_cycle_five_has_no_fall_coloring(self):
        g = Graph.cycle(5)
        assert all(
            brute_force_fallcoloring(g, k) is None for k in range(1, 6)
        )


def test_witnesses_pass_checkers_and_chi_b_bounded():
    rng = random.Random(2024)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.1, 0.9))
        assert brute_force_chi_b(g) <= g.max_degree() + 1
        for k in range(1, g.n + 1):
            witness = brute_force_bcoloring(g, k)
            if witness is not None:
                assert is_b_coloring(g, witness)
            fall = brute_force_fallcoloring(g, k)
            if fall is not None:
                assert is_fall_coloring(g, fall)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_checkers_invariant_under_color_permutation(data):
    n = data.draw(st.integers(1, 5))
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .map(lambda e: (min(e), max(e)))
            .filter(lambda e: e[0] != e[1]),
            max_size=10,
        )
    )
    g = Graph(n, sorted(edges))
    k = data.draw(st.integers(1, 4))
    colors = tuple(data.draw(st.integers(1, k)) for _ in range(n))
    perm = data.draw(st.permutations(range(1, k + 1)))
    relabel = dict(zip(range(1, k + 1), perm))
    permuted = tuple(relabel[c] for c in colors)
    c1, c2 = Coloring(colors, k), Coloring(permuted, k)
    assert is_b_coloring(g, c1) == is_b_coloring(g, c2)
    assert is_fall_coloring(g, c1) == is_fall_coloring(g, c2)
