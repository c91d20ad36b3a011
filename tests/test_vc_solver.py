import itertools
import random

from bcoloring import (
    Graph,
    brute_force_bcoloring,
    is_b_coloring,
    solve_bcoloring_vc,
    solve_bcoloring_vc_witness,
)
from bcoloring.vc_solver import cover_guesses, min_vertex_cover, small_extension_search
from helpers import random_graph


def is_cover(g, cover):
    return all(u in cover or v in cover for u, v in g.edges())


def brute_min_cover_size(g):
    for size in range(g.n + 1):
        for subset in itertools.combinations(g.vertices(), size):
            if is_cover(g, set(subset)):
                return size
    return g.n


class TestMinVertexCover:
    def test_k2(self):
        assert len(min_vertex_cover(Graph.complete(2))) == 1

    def test_star_center(self):
        assert min_vertex_cover(Graph.star(3)) == {0}

    def test_c4(self):
        assert len(min_vertex_cover(Graph.cycle(4))) == 2

    def test_edgeless(self):
        assert min_vertex_cover(Graph.edgeless(4)) == frozenset()

    def test_minimality_against_subset_brute_force(self):
        rng = random.Random(61)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.8))
            cover = min_vertex_cover(g)
            assert is_cover(g, cover)
            assert len(cover) == brute_min_cover_size(g)


class TestSolveBColoringVC:
    def test_k3_too_many_colors(self):
        # tau(K_3) = 2 and k >= tau + 2 is an immediate no.
        assert not solve_bcoloring_vc(Graph.complete(3), 5)

    def test_k2(self):
        assert solve_bcoloring_vc(Graph.complete(2), 2)

    def test_star_two_colors(self):
        assert solve_bcoloring_vc(Graph.star(3), 2)

    def test_equivalence_with_oracle(self):
        rng = random.Random(62)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.1, 0.9))
            for k in range(1, g.n + 1):
                expected = brute_force_bcoloring(g, k) is not None
                assert solve_bcoloring_vc(g, k) == expected

    def test_witnesses_pass_checker(self):
        rng = random.Random(63)
        found = 0
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.9))
            for k in range(1, g.n + 1):
                witness = solve_bcoloring_vc_witness(g, k)
                if witness is not None:
                    found += 1
                    assert is_b_coloring(g, witness.to_coloring(g.n))
        assert found >= 15


class TestCoverGuesses:
    def test_colorings_proper_and_b_vertices_distinctly_colored(self):
        g = Graph.star(3)
        cover = min_vertex_cover(g)
        guesses = list(cover_guesses(g, cover, 2))
        assert guesses  # K_{1,3} with k=2 admits guesses
        for guess in guesses:
            phi = guess.phi_map()
            assert set(phi) == set(cover)
            for u, v in g.edges():
                if u in phi and v in phi:
                    assert phi[u] != phi[v]
            b_colors = [phi[b] for b in guess.b_vertices]
            assert len(b_colors) == len(set(b_colors))

    def test_empty_guess_only_for_canonical_colorings(self):
        # Cover {0} of P_3 with k=2: colorings {0: 1} (canonical) and {0: 2};
        # only the canonical one may carry the empty b-vertex guess.
        g = Graph.path(3)
        cover = frozenset({1})
        with_empty = [
            guess.phi_map()
            for guess in cover_guesses(g, cover, 2)
            if not guess.b_vertices
        ]
        assert with_empty == [{1: 1}]


class TestSmallExtensionSearch:
    def test_no_needs(self):
        assert small_extension_search(Graph.complete(2), {}, 2) == {}

    def test_single_forced_candidate(self):
        g = Graph(3, [(0, 2), (1, 2)])
        ext = small_extension_search(g, {(0, 2): frozenset({2})}, 2)
        assert ext == {2: 2}

    def test_contradictory_needs(self):
        # Two b-vertices sharing their only candidate, which cannot take two
        # colors at once; exhaustive check on a 6-vertex instance.
        g = Graph(6, [(0, 2), (1, 2), (0, 3), (1, 4)])
        needs = {(0, 3): frozenset({2}), (1, 4): frozenset({2})}
        assert small_extension_search(g, needs, 5) is None

    def test_cross_satisfaction(self):
        # One assignment can satisfy two needs for the same color.
        g = Graph(4, [(0, 2), (1, 2), (0, 3)])
        needs = {(0, 4): frozenset({2}), (1, 4): frozenset({2})}
        ext = small_extension_search(g, needs, 5)
        assert ext == {2: 4}

    def test_extension_size_bound(self):
        rng = random.Random(64)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.8))
            k = rng.randint(2, 4)
            outside = sorted(g.vertices())[: g.n // 2]
            needs = {}
            for xj in range(min(2, g.n)):
                for ci in range(1, rng.randint(1, k)):
                    cand = frozenset(
                        v for v in g.neighbors(xj) if v in outside
                    )
                    if cand:
                        needs[(xj, ci)] = cand
            ext = small_extension_search(g, needs, k)
            if ext is not None:
                assert len(ext) <= max(k * k - k, 0)
                assert len(ext) <= len(needs)
