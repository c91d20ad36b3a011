"""Exact b-coloring solver parameterized by the vertex cover number.

Strategy: instances with k at least two beyond the minimum cover size are
rejected outright.  Otherwise every proper coloring of the cover S is tried
together with every choice of cover vertices designated as b-vertices
(distinct colors).  Colors lacking a designated b-vertex must be completable
by a vertex outside S seeing all other colors; vertices outside S whose
neighborhood already shows k-1 colors are forced.  What remains is, for
each designated b-vertex and each color it still misses, a need set of
outside vertices able to supply that color; needs with small candidate sets
are solved exactly by a bounded backtracking search, large ones greedily
afterwards (a small extension can never exhaust them).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bcol_dp import PartialBColoring
from .errors import InputError, StructuralError
from .graph import Coloring, Graph
from .oracle import is_b_coloring

# (x_j, missing color) -> outside vertices that could take that color.
NeedSet = dict[tuple[int, int], frozenset[int]]


@dataclass(frozen=True)
class CoverGuess:
    """A proper coloring of the cover plus designated b-vertices in it."""

    phi: tuple[tuple[int, int], ...]  # (vertex, color), sorted by vertex
    b_vertices: frozenset[int]

    def phi_map(self) -> dict[int, int]:
        return dict(self.phi)


def vertex_cover_within(g: Graph, limit: int) -> frozenset[int] | None:
    """Some vertex cover of at most limit vertices, or None if none exists.

    Branches on the first uncovered edge: every cover holds one of its
    endpoints."""

    def search(remaining, budget, chosen):
        if not remaining:
            return chosen
        if budget == 0:
            return None
        u, v = remaining[0]
        for w in (u, v):
            rest = [e for e in remaining if w not in e]
            found = search(rest, budget - 1, chosen | {w})
            if found is not None:
                return found
        return None

    return search(list(g.edges()), limit, frozenset())


def min_vertex_cover(g: Graph) -> frozenset[int]:
    """A minimum vertex cover: the first size budget that admits one."""
    for size in range(g.n + 1):
        found = vertex_cover_within(g, size)
        if found is not None:
            return found
    return frozenset(range(g.n))


def small_extension_search(
    g: Graph, needs: NeedSet, k: int
) -> dict[int, int] | None:
    """A proper extension satisfying every need, coloring at most one vertex
    per need (hence at most k^2-k vertices), or None.

    needs maps (b-vertex, missing color) to the candidate vertices that may
    receive that color; candidates are assumed proper for it.  A need is
    also satisfied when an earlier assignment put its color on another
    neighbor of its b-vertex.
    """
    ordered = sorted(needs)
    ext: dict[int, int] = {}

    def dfs(idx: int):
        if idx == len(ordered):
            return dict(ext)
        xj, ci = ordered[idx]
        if any(color == ci and y in g.neighbors(xj) for y, color in ext.items()):
            return dfs(idx + 1)
        for y in sorted(needs[(xj, ci)]):
            if y in ext:
                continue
            ext[y] = ci
            result = dfs(idx + 1)
            if result is not None:
                return result
            del ext[y]
        return None

    result = dfs(0)
    assert result is None or len(result) <= max(k * k - k, 0)
    return result


def _proper_cover_colorings(g: Graph, cover: list[int], k: int):
    """All proper colorings of G[cover] with colors 1..k, lexicographically,
    each tagged with whether it is canonical under color permutation (new
    colors appear in increasing order along the cover)."""
    assignment: dict[int, int] = {}

    def extend(i: int, max_used: int, canonical: bool):
        if i == len(cover):
            yield dict(assignment), canonical
            return
        v = cover[i]
        forbidden = {assignment[u] for u in g.neighbors(v) if u in assignment}
        for color in range(1, k + 1):
            if color in forbidden:
                continue
            assignment[v] = color
            yield from extend(
                i + 1,
                max(max_used, color),
                canonical and color <= max_used + 1,
            )
            del assignment[v]

    yield from extend(0, 0, True)


def _b_vertex_guesses(cover: list[int], phi: dict[int, int], canonical: bool):
    """Subsets of the cover with pairwise distinct colors.  The empty guess
    pins no colors, so it is only tried for canonical colorings."""
    if canonical:
        yield frozenset()
    m = len(cover)
    for mask in range(1, 1 << m):
        chosen = [cover[i] for i in range(m) if mask >> i & 1]
        colors = {phi[v] for v in chosen}
        if len(colors) == len(chosen):
            yield frozenset(chosen)


def cover_guesses(g: Graph, cover: frozenset[int], k: int):
    """All (proper cover coloring, b-vertex subset) guesses, in a fixed
    order.  Guesses without designated b-vertices pin no colors, so they are
    only produced for canonical colorings."""
    cover_list = sorted(cover)
    for phi, canonical in _proper_cover_colorings(g, cover_list, k):
        for b_guess in _b_vertex_guesses(cover_list, phi, canonical):
            yield CoverGuess(phi=tuple(sorted(phi.items())), b_vertices=b_guess)


def _try_guess(
    g: Graph,
    cover_set: frozenset[int],
    guess: CoverGuess,
    k: int,
) -> tuple[Coloring, frozenset[int]] | None:
    """Extend one cover guess to a full b-coloring, or show it cannot be."""
    phi = guess.phi_map()
    b_guess = guess.b_vertices
    outside = [x for x in g.vertices() if x not in cover_set]
    kset = frozenset(range(1, k + 1))
    nb_colors = {
        x: frozenset(phi[u] for u in g.neighbors(x)) for x in outside
    }
    # No proper extension exists if some outside vertex already sees all k.
    if any(nb_colors[x] == kset for x in outside):
        return None
    # Each color without a designated b-vertex needs an outside completer
    # seeing exactly the other k-1 colors; such a vertex is forced to the
    # missing color and becomes the color's b-vertex.
    b_colors = {phi[b] for b in b_guess}
    completer: dict[int, int] = {}
    for c in sorted(kset - b_colors):
        found = [x for x in outside if nb_colors[x] == kset - {c}]
        if not found:
            return None
        completer[c] = min(found)
    colored = dict(phi)
    for x in outside:
        if len(nb_colors[x]) == k - 1:
            (missing,) = kset - nb_colors[x]
            colored[x] = missing
    # Need sets for the designated b-vertices.
    needs: NeedSet = {}
    for xj in sorted(b_guess):
        seen = {colored[u] for u in g.neighbors(xj) if u in colored}
        for ci in sorted(kset - {phi[xj]} - seen):
            cand = frozenset(
                x
                for x in g.neighbors(xj)
                if x not in cover_set
                and x not in colored
                and ci not in nb_colors[x]
            )
            if not cand:
                return None
            needs[(xj, ci)] = cand
    # Small candidate sets are searched exactly; the rest cannot run out of
    # uncolored candidates, so greedy completion below handles them.
    bound = k * k - k
    small = {key: cand for key, cand in needs.items() if len(cand) <= bound}
    ext = small_extension_search(g, small, k)
    if ext is None:
        return None
    colored.update(ext)
    for key in sorted(needs):
        if key in small:
            continue
        xj, ci = key
        if any(colored.get(u) == ci for u in g.neighbors(xj)):
            continue
        y = min(x for x in needs[key] if x not in colored)
        colored[y] = ci
    for x in outside:
        if x not in colored:
            colored[x] = min(kset - nb_colors[x])
    coloring = Coloring(tuple(colored[v] for v in g.vertices()), k)
    b_vertices = frozenset(b_guess) | frozenset(completer.values())
    if not is_b_coloring(g, coloring):
        raise StructuralError("completed cover guess failed the b-coloring check")
    return coloring, b_vertices


def _solve(g: Graph, k: int) -> tuple[Coloring, frozenset[int]] | None:
    if k < 1:
        raise InputError(f"number of colors must be positive, got {k}")
    cover = min_vertex_cover(g)
    if k >= len(cover) + 2:
        return None
    for guess in cover_guesses(g, cover, k):
        result = _try_guess(g, cover, guess, k)
        if result is not None:
            return result
    return None


def solve_bcoloring_vc(g: Graph, k: int) -> bool:
    """Does g have a b-coloring with k colors?"""
    return _solve(g, k) is not None


def solve_bcoloring_vc_witness(g: Graph, k: int) -> PartialBColoring | None:
    """A b-coloring witness with k colors, or None."""
    result = _solve(g, k)
    if result is None:
        return None
    coloring, b_vertices = result
    return PartialBColoring(
        classes=tuple(tuple(sorted(cls)) for cls in coloring.classes()),
        b_vertices=b_vertices,
    )
