import hashlib
import importlib.util
import itertools
import json
import pathlib
import random
import sys
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from bcoloring import (
    Coloring,
    Graph,
    brute_force_bcoloring,
    is_b_coloring,
    solve_bcoloring_vc,
    solve_bcoloring_vc_witness,
)
from bcoloring import vc_solver
from bcoloring.cli import main
from bcoloring.vc_solver import (
    cover_guesses,
    min_vertex_cover,
    vertex_cover_within,
)
from helpers import (
    random_graph,
    reference_cover_guesses,
    reference_min_vertex_cover,
    reference_proper_cover_colorings,
    reference_try_guess,
    reference_vc_solve,
    reference_vertex_cover_within,
    relabeled,
    unfiltered_cover_guesses,
    unfiltered_vc_solve,
    unpruned_cover_guesses,
)


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


def ladder(n):
    half = n // 2
    rails = [(i, i + 1) for i in range(half - 1)]
    rails += [(half + i, half + i + 1) for i in range(half - 1)]
    return Graph(n, rails + [(i, half + i) for i in range(half)])


def grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


class TestCoverSearchAgainstReference:
    """The branch-and-bound against the recursive search rerun at every
    size limit (helpers.reference_min_vertex_cover): the same cover, as a
    set, not only of the same size."""

    def test_seeded_sweep(self):
        rng = random.Random(68)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            assert min_vertex_cover(g) == reference_min_vertex_cover(g), g.edges()

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
    def test_property(self, n, p, seed):
        g = random_graph(random.Random(seed), n, p)
        assert min_vertex_cover(g) == reference_min_vertex_cover(g)

    def test_within_limit_none_exactly_when_reference_is(self):
        rng = random.Random(69)
        for _ in range(60):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            for limit in range(g.n + 1):
                found = vertex_cover_within(g, limit)
                assert (found is None) == (
                    reference_vertex_cover_within(g, limit) is None
                ), (g.edges(), limit)
                assert found is None or len(found) <= limit


class TestCoverSearchBoundedTime:
    """Paths, cycles, ladders and a grid with covers of 50 to 101
    vertices: the cover has its closed-form size, in natural and in
    shuffled vertex order, and each search stays far below a generous time
    bound."""

    SECONDS = 5.0

    def check(self, g, size):
        perm = list(g.vertices())
        random.Random(1).shuffle(perm)
        for graph in (g, relabeled(g, perm)):
            start = time.perf_counter()
            cover = min_vertex_cover(graph)
            elapsed = time.perf_counter() - start
            assert is_cover(graph, cover) and len(cover) == size
            assert elapsed < self.SECONDS, elapsed

    def test_path_200(self):
        self.check(Graph.path(200), 100)

    def test_cycle_201(self):
        self.check(Graph.cycle(201), 101)

    def test_ladder_200(self):
        self.check(ladder(200), 100)

    def test_grid_10_by_10(self):
        self.check(grid(10, 10), 50)


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

    def test_k_above_m_degree_searches_no_guess(self, monkeypatch):
        # m(C_14) = 3: no b-coloring with 4 colors, and no cover guess is
        # tried for it.
        guesses = []

        def counted(*args, enumerate_guesses=vc_solver.cover_guesses):
            for guess in enumerate_guesses(*args):
                guesses.append(guess)
                yield guess

        monkeypatch.setattr(vc_solver, "cover_guesses", counted)
        g = Graph.cycle(14)
        assert g.m_degree() == 3
        assert solve_bcoloring_vc(g, 4) is False
        assert solve_bcoloring_vc_witness(g, 4) is None
        assert guesses == []

    def test_witnesses_pass_checker(self):
        rng = random.Random(63)
        found = 0
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.9))
            for k in range(1, g.n + 1):
                witness = solve_bcoloring_vc_witness(g, k)
                if witness is not None:
                    found += 1
                    assert is_b_coloring(g, witness[0])
        assert found >= 15


class TestResultDigest:
    """Pins the vc route's answers and witnesses: a change of enumeration
    order or of the guess a witness comes from moves the digest even where
    every answer stays the same."""

    # sha256 over 600 seeded G(n, p), n <= 10, at every k: 2,673 None and
    # 711 witnesses, recorded before the cover colorings and b-vertex
    # subsets that cannot succeed were pruned in the generators.
    DIGEST = "c5194d3520364212460d2131ef6b998a8cb9eb10c2d1d82acd0c43745d52c607"

    def test_results_match_the_recorded_digest(self):
        rng = random.Random(73)
        h = hashlib.sha256()
        for _ in range(600):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.9))
            for k in range(1, g.n + 1):
                found = solve_bcoloring_vc_witness(g, k)
                result = None if found is None else (found[0].colors, sorted(found[1]))
                h.update(repr((g.edges(), k, result)).encode())
        assert h.hexdigest() == self.DIGEST


class TestCoverGuesses:
    def test_colorings_proper_and_b_vertices_distinctly_colored(self):
        g = Graph.star(3)
        cover = min_vertex_cover(g)
        k = 2
        guesses = list(cover_guesses(g, cover, k))
        assert guesses  # K_{1,3} with k=2 admits guesses
        for facts, b_guess in guesses:
            phi = facts.phi
            assert set(phi) == set(cover)
            for u, v in g.edges():
                if u in phi and v in phi:
                    assert phi[u] != phi[v]
            b_colors = [phi[b] for b in b_guess]
            assert len(b_colors) == len(set(b_colors))
            assert facts.uncompleted <= set(b_colors)
            assert all(g.degree(b) >= k - 1 for b in b_guess)

    def test_empty_guess_only_for_canonical_colorings(self):
        # Cover {1, 2} of P_4 with k=2: colorings {1: 1, 2: 2} (canonical)
        # and {1: 2, 2: 1}; each has a completer for both colors (0 and 3),
        # so the empty b-vertex guess is admitted, on the canonical one only.
        g = Graph.path(4)
        cover = frozenset({1, 2})
        with_empty = [
            facts.phi for facts, b_guess in cover_guesses(g, cover, 2) if not b_guess
        ]
        assert with_empty == [{1: 1, 2: 2}]

    def test_one_coloring_per_renaming(self):
        # An independent 3-vertex cover with k=3: of the 27 proper colorings,
        # one per partition of the cover into color classes, Bell(3) = 5,
        # of which the 4 with at least k-1 = 2 colors are kept.
        g = Graph(6, [(0, 3), (1, 4), (2, 5)])
        kept = list(vc_solver._proper_cover_colorings(g, [0, 1, 2], 3))
        assert kept == with_enough_colors(reference_proper_cover_colorings(g, [0, 1, 2], 3), 3)
        assert len(kept) == 4

        def renamed_to_first_use(phi):
            names: dict = {}
            return tuple(names.setdefault(c, len(names) + 1) for _, c in sorted(phi.items()))

        assert len({renamed_to_first_use(phi) for phi in kept}) == 4

    def test_colorings_match_the_recursive_reference(self):
        """The explicit-stack enumeration yields the recursive one's
        colorings with at least k-1 colors in the same order, on covers
        that are not independent and on vertex sets that are not covers."""
        rng = random.Random(404)
        for _ in range(150):
            g = random_graph(rng, rng.randint(0, 7), rng.uniform(0.1, 0.8))
            cover = sorted(min_vertex_cover(g))
            some = sorted(v for v in g.vertices() if rng.random() < 0.6)
            for vertices in (cover, some):
                for k in range(1, 5):
                    ours = vc_solver._proper_cover_colorings(g, vertices, k)
                    theirs = reference_proper_cover_colorings(g, vertices, k)
                    assert list(ours) == list(with_enough_colors(theirs, k))

    def test_one_rainbow_coloring_at_cover_size_plus_one(self):
        # On the benchmark's vc pool, a k one above the cover size leaves
        # only the coloring that gives each cover vertex its own color: 28
        # colorings in all, of the 297 proper ones up to renaming.
        pool, unpruned = vc_pool(), 0
        for g, _ in pool:
            cover = sorted(min_vertex_cover(g))
            k = len(cover) + 1
            colorings = list(vc_solver._proper_cover_colorings(g, cover, k))
            assert colorings == [{v: i for i, v in enumerate(cover, 1)}], g
            unpruned += len(list(reference_proper_cover_colorings(g, cover, k)))
        assert (len(pool), unpruned) == (28, 297)

    def test_guesses_match_the_unpruned_enumeration(self):
        """cover_guesses yields exactly the (facts, guess) sequence of every
        proper cover coloring and every distinctly colored subset of the
        gated vertices, filtered by the admission test of rules (a), (b)
        and (c) (helpers.unpruned_cover_guesses)."""
        rng = random.Random(405)
        admitted = 0
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.9))
            cover = min_vertex_cover(g)
            for k in range(1, g.n + 2):
                ours = list(cover_guesses(g, cover, k))
                assert ours == list(unpruned_cover_guesses(g, cover, k)), (g, k)
                admitted += len(ours)
        assert admitted >= 800, admitted


def with_enough_colors(colorings, k):
    """The colorings that use at least k-1 colors."""
    return [phi for phi in colorings if len(set(phi.values())) >= k - 1]


def cover_guess(k, phi, edges, b_guess):
    """g, the facts of the cover coloring phi and the guess b_guess on it:
    the cover is phi's vertices, the others are outside it."""
    g = Graph(1 + max(map(max, edges)), edges)
    outside = [x for x in g.vertices() if x not in phi]
    return g, vc_solver._cover_coloring(g, outside, phi, k), frozenset(b_guess)


class TestSmallExtensionSearch:
    """Guesses built by hand, extended by _try_guess through the need
    search."""

    def test_no_needs(self):
        # Vertex 1 is forced to 2, which meets the one need of b-vertex 0.
        g, facts, b_guess = cover_guess(2, {0: 1}, [(0, 1)], {0})
        found = vc_solver._try_guess(g, facts, b_guess, 2)
        assert found == (Coloring((1, 2), 2), frozenset({0, 1}))

    def test_single_forced_candidate(self):
        # b-vertex 0 sees color 2 and misses 3, which only 4 can take; 5
        # and 6 are forced to 2 and 3 and complete those colors.
        cover = {0: 1, 1: 2, 2: 3, 3: 1}
        edges = [(0, 1), (0, 4), (2, 5), (3, 5), (1, 6), (3, 6)]
        g, facts, b_guess = cover_guess(3, cover, edges, {0})
        found = vc_solver._try_guess(g, facts, b_guess, 3)
        assert found == (Coloring((1, 2, 3, 1, 3, 2, 3), 3), frozenset({0, 5, 6}))

    def test_contradictory_needs(self):
        # b-vertices 0 and 1 miss colors 3 and 4, and 6 is the only
        # candidate of each: it cannot take both.
        cover = {0: 1, 1: 2, 2: 4, 3: 3, 4: 1, 5: 2}
        edges = [(0, 1), (0, 2), (1, 3), (0, 6), (1, 6)]
        edges += [(2, 7), (4, 7), (5, 7), (3, 8), (4, 8), (5, 8)]  # completers
        g, facts, b_guess = cover_guess(4, cover, edges, {0, 1})
        assert vc_solver._try_guess(g, facts, b_guess, 4) is None
        assert reference_try_guess(g, frozenset(cover), cover, b_guess, 4) is None

    def test_cross_satisfaction(self):
        # b-vertices 0 and 1 both miss color 3; 6, next to both, meets
        # both needs, and their other candidates 7 and 8 take their least
        # colors.
        cover = {0: 1, 1: 2, 2: 4, 3: 3, 4: 1, 5: 2}
        edges = [(0, 1), (0, 2), (1, 2), (0, 6), (1, 6), (0, 7), (1, 8)]
        edges += [(2, 9), (4, 9), (5, 9), (3, 10), (4, 10), (5, 10)]  # completers
        g, facts, b_guess = cover_guess(4, cover, edges, {0, 1})
        found = vc_solver._try_guess(g, facts, b_guess, 4)
        colors = (1, 2, 4, 3, 1, 2, 3, 2, 1, 3, 4)
        assert found == (Coloring(colors, 4), frozenset({0, 1, 9, 10}))


def cover_graph(rng, s, t):
    """s core vertices with random edges among them and t outside vertices,
    each joined to a random nonempty subset of the core, which is a cover."""
    edges = [(u, v) for u in range(s) for v in range(u + 1, s) if rng.random() < 0.5]
    for x in range(s, s + t):
        nb = [u for u in range(s) if rng.random() < 0.5] or [rng.randrange(s)]
        edges.extend((u, x) for u in nb)
    return Graph(s + t, edges)


def spider_graph(rng):
    """3-6 core vertices, edges among them at p in [0, 0.6], and 10-30
    outside vertices, each joined to 1, 2 or 3 core vertices (weights
    3:2:1): few core vertices with many outside neighbors, so need sets
    with more than k^2-k candidates."""
    s = rng.randint(3, 6)
    p = rng.uniform(0, 0.6)
    edges = [(u, v) for u in range(s) for v in range(u + 1, s) if rng.random() < p]
    t = rng.randint(10, 30)
    for x in range(s, s + t):
        degree = rng.choices((1, 2, 3), weights=(3, 2, 1))[0]
        edges.extend((u, x) for u in rng.sample(range(s), min(degree, s)))
    return Graph(s + t, edges)


def omission_reason(g, phi, b_guess, k):
    """Why cover_guesses omits the guess, from the definitions: "full" if
    some outside vertex sees all k colors on phi, else "a" if a color
    outside the guess's colors has no outside vertex seeing exactly the
    other k-1 colors, "b" if a guessed b-vertex has degree below k-1, "c"
    if two guessed b-vertices have nested open neighborhoods, else None."""
    kset = frozenset(range(1, k + 1))
    outside_sees = [
        frozenset(phi[u] for u in g.neighbors(x)) for x in g.vertices() if x not in phi
    ]
    if kset in outside_sees:
        return "full"
    if any(kset - {c} not in outside_sees for c in kset - {phi[b] for b in b_guess}):
        return "a"
    if any(g.degree(b) < k - 1 for b in b_guess):
        return "b"
    if any(
        g.neighbors(u) <= g.neighbors(v)
        for u, v in itertools.permutations(b_guess, 2)
    ):
        return "c"
    return None


class TestTryGuess:
    def test_hall_violation_is_refused(self):
        # k = 4, cover 0, 1, 2 colored 1, 2, 3; outside 3, 4, 5.  Vertices 4
        # and 5 see colors 1, 2 and 3, so both are forced to 4, and b-vertex
        # 0 still misses colors 2 and 3, each with the one candidate 3.
        g = Graph(6, [(0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (2, 5)])
        facts = vc_solver._cover_coloring(g, [3, 4, 5], {0: 1, 1: 2, 2: 3}, 4)
        assert facts.forced[4] == facts.forced[5] == 4
        assert vc_solver._try_guess(g, facts, frozenset({0}), 4) is None


def check_extension(g, facts, b_guess, k, found, expected):
    """_try_guess's result found on a guess answers as the reference's
    result expected does.  The need search may pick another witness than
    the reference's key order, so a witness is checked by its definition:
    a b-coloring that keeps phi on the cover and facts.forced wherever it
    is set, whose b-vertices include b_guess, one per color."""
    assert (found is None) == (expected is None), (g, k, b_guess)
    if found is None:
        return
    coloring, b_vertices = found
    assert is_b_coloring(g, coloring)
    assert all(coloring.colors[v] == c for v, c in facts.forced.items())
    assert b_guess <= b_vertices
    assert sorted(coloring.colors[b] for b in b_vertices) == list(range(1, k + 1))
    for b in b_vertices:
        seen = {coloring.colors[u] for u in g.neighbors(b)}
        assert seen == set(range(1, k + 1)) - {coloring.colors[b]}


def check_solve(g, k):
    """vc_solver._solve against reference_vc_solve: the same answer, and a
    witness that the first successful guess gives and check_extension
    accepts.  Returns the guess's facts and b-vertices, or None."""
    found = vc_solver._solve(g, k)
    expected = reference_vc_solve(g, k)
    for facts, b_guess in cover_guesses(g, min_vertex_cover(g), k):
        result = vc_solver._try_guess(g, facts, b_guess, k)
        if result is not None:
            assert result == found
            check_extension(g, facts, b_guess, k, found, expected)
            return facts, b_guess
    assert found is None and expected is None, (g, k)
    return None


def large_needs(g, facts, b_guess, k):
    """The needs of the guess with more than k^2-k candidates: outside
    neighbors of the b-vertex, not forced, that see no cover vertex of
    the missing color."""
    large = 0
    for b in b_guess:
        seen = {facts.forced[u] for u in g.neighbors(b) if u in facts.forced}
        for c in set(range(1, k + 1)) - seen - {facts.phi[b]}:
            candidates = [
                x
                for x in g.neighbors(b)
                if x not in facts.forced
                and c not in {facts.phi[u] for u in g.neighbors(x)}
            ]
            large += len(candidates) > k * k - k
    return large


def found_spider(seed):
    """The spider of a 6-vertex core and 30 outside vertices that the old
    recursive extension search did not finish at k = 6 for seed 357."""
    rng = random.Random(seed)
    p = rng.uniform(0, 0.6)
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if rng.random() < p]
    for x in range(6, 36):
        degree = rng.choices((1, 2, 3), weights=(3, 2, 1))[0]
        edges.extend((u, x) for u in rng.sample(range(6), degree))
    return Graph(36, edges)


def test_spider_357_at_k_6():
    # Its first admitted guess has 26 needs, every b-vertex's with
    # distinct representatives; the need search settles it at once.
    g = found_spider(357)
    start = time.perf_counter()
    found = vc_solver._solve(g, 6)
    elapsed = time.perf_counter() - start
    assert found is not None and is_b_coloring(g, found[0])
    assert elapsed < 5.0, elapsed


class TestAgainstReference:
    """The solver against the guess loop that builds every fact per guess
    and omits no guess (helpers.reference_vc_solve): the same answers and
    the same witnesses, bit for bit."""

    def test_random_graphs_every_k(self):
        rng = random.Random(65)
        found = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.9))
            for k in range(1, g.n + 1):
                expected = reference_vc_solve(g, k)
                assert solve_bcoloring_vc_witness(g, k) == expected, (g, k)
                found += expected is not None
        assert found >= 300

    def test_cover_graphs_every_k(self):
        rng = random.Random(66)
        found = 0
        for _ in range(40):
            g = cover_graph(rng, rng.randint(4, 6), rng.randint(4, 10))
            for k in range(1, g.n + 1):
                found += check_solve(g, k) is not None
        assert found >= 40

    def test_spider_graphs_large_needs(self):
        # The reference searches the small needs alone and completes the
        # large ones greedily; the solver hands every need to one search.
        large = 0
        rng = random.Random(11)
        for _ in range(150):
            g = spider_graph(rng)
            for k in (3, 4):
                guess = check_solve(g, k)
                large += guess is not None and large_needs(g, *guess, k) > 0
        assert large >= 10, large

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 9),
        p=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32),
        k=st.integers(1, 9),
    )
    def test_property(self, n, p, seed, k):
        g = random_graph(random.Random(seed), n, p)
        assert solve_bcoloring_vc_witness(g, k) == reference_vc_solve(g, k)

    def test_every_guess_and_every_refusal(self):
        # cover_guesses yields a subsequence of the reference enumeration,
        # in its order: exactly the guesses no omission reason applies to.
        # On each, the solver's extension from the per-coloring facts
        # answers as the reference does; every omitted guess fails under
        # the reference.
        rng = random.Random(67)
        omitted = {"full": 0, "a": 0, "b": 0, "c": 0}
        for i in range(60):
            if i % 2:
                g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.2, 0.8))
            else:
                g = cover_graph(rng, rng.randint(4, 5), rng.randint(3, 7))
            cover = min_vertex_cover(g)
            for k in range(1, min(g.n, len(cover) + 1) + 1):
                admitted = iter(cover_guesses(g, cover, k))
                pending = next(admitted, None)
                for phi, b_guess in reference_cover_guesses(g, cover, k):
                    expected = reference_try_guess(g, cover, phi, b_guess, k)
                    reason = omission_reason(g, phi, b_guess, k)
                    if reason is not None:
                        omitted[reason] += 1
                        assert expected is None, (g, k, phi, b_guess, reason)
                        continue
                    assert pending is not None, (g, k, phi, b_guess)
                    facts, admitted_guess = pending
                    assert (facts.phi, admitted_guess) == (phi, b_guess)
                    found = vc_solver._try_guess(g, facts, b_guess, k)
                    check_extension(g, facts, b_guess, k, found, expected)
                    pending = next(admitted, None)
                assert pending is None, (g, k, pending)
        assert omitted["a"] >= 100 and omitted["b"] >= 10 and omitted["c"] >= 10, omitted


def vc_pool():
    """The benchmark's frozen vc pool: (graph, the k its requests ask)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # its dataclasses look their module up
    spec.loader.exec_module(corpus)
    pool = []
    for i, entry in enumerate(corpus.load_pools()["vc"]):
        h = corpus.vc_pool_graph(i)
        pool.append((Graph(h.n, h.edges), sorted(map(int, entry["answers"]))))
    return pool


class TestAntichainRule:
    """Rule (c) only drops guesses that fail: the solver returns the
    witness of the guess loop that keeps them (helpers.unfiltered_vc_solve)."""

    def test_vc_pool(self, monkeypatch):
        # The benchmark's vc requests try 61 guesses without the rule and
        # 57 with it, and get the same witnesses.
        tried = []

        def counted(*args, guesses=vc_solver.cover_guesses):
            for guess in guesses(*args):
                tried.append(guess)
                yield guess

        monkeypatch.setattr(vc_solver, "cover_guesses", counted)
        unfiltered = 0
        for g, ks in vc_pool():
            for k in ks:
                expected = unfiltered_vc_solve(g, k)
                for guess in unfiltered_cover_guesses(g, min_vertex_cover(g), k):
                    unfiltered += 1
                    if vc_solver._try_guess(g, *guess, k) is not None:
                        break
                assert vc_solver._solve(g, k) == expected, (g, k)
        assert (unfiltered, len(tried)) == (61, 57)

    def test_seeded_cover_graphs(self):
        rng = random.Random(68)
        dropped = 0
        for _ in range(40):
            g = cover_graph(rng, rng.randint(4, 6), rng.randint(4, 10))
            cover = min_vertex_cover(g)
            for k in range(1, g.n + 1):
                assert vc_solver._solve(g, k) == unfiltered_vc_solve(g, k), (g, k)
                dropped += len(list(unfiltered_cover_guesses(g, cover, k))) - len(
                    list(cover_guesses(g, cover, k))
                )
        assert dropped >= 10, dropped


class TestLongPaths:
    """bcol --solver vc --k 3 on paths: almost every cover vertex is gated,
    and the guesses come without a walk over their 2^m masks."""

    def test_path_60_by_the_cli(self, tmp_path, capsys):
        # On an even path the first admitted guess colors the cover 0, 2,
        # ..., n-2 with 1 but n-2 with 2 and takes b-vertices 2 and n-2.  On
        # the 24-vertex path that is the reference's first guess that no
        # omission rule refuses; the reference would walk 2^30 masks on the
        # 60-vertex path's first cover coloring, so there the form is checked.
        def first_guess(g):
            facts, b_guess = next(cover_guesses(g, min_vertex_cover(g), 3))
            return facts.phi, b_guess

        def expected(n):
            return {v: 1 + (v == n - 2) for v in range(0, n, 2)}, {2, n - 2}

        g = Graph.path(24)
        reference = next(
            (phi, b_guess)
            for phi, b_guess in reference_cover_guesses(g, min_vertex_cover(g), 3)
            if omission_reason(g, phi, b_guess, 3) is None
        )
        assert first_guess(g) == reference == expected(24)
        assert solve_bcoloring_vc_witness(g, 3) == reference_vc_solve(g, 3)
        n = 60
        assert first_guess(Graph.path(n)) == expected(n)
        path = tmp_path / "path.dimacs"
        path.write_text(
            f"p edge {n} {n - 1}\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, n))
        )
        start = time.perf_counter()
        code = main(["bcol", "--solver", "vc", "--k", "3", "--graph", str(path)])
        elapsed = time.perf_counter() - start
        assert code == 0 and json.loads(capsys.readouterr().out)["answer"] is True
        assert elapsed < 5.0, elapsed


def test_a_thousand_vertex_cover_by_the_cli(tmp_path, capsys):
    """The cover colorings are enumerated without one stack frame per
    cover vertex: 1,000 disjoint edges have a 1,000-vertex cover."""
    m = 1000
    path = tmp_path / "matching.dimacs"
    path.write_text(
        f"p edge {2 * m} {m}\n"
        + "".join(f"e {2 * i + 1} {2 * i + 2}\n" for i in range(m))
    )
    argv = ["bcol", "--solver", "vc", "--k", "2", "--witness", "--graph", str(path)]
    assert main(argv) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["answer"] is True
    colors = dict(result["witness"]["coloring"])
    g = Graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
    assert is_b_coloring(g, Coloring(tuple(colors[v + 1] for v in g.vertices()), 2))
