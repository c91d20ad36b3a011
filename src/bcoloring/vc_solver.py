"""Exact b-coloring solver parameterized by the vertex cover number.

The cover S is the first least vertex cover in branching order, the one a
search deepening the size limit from 0 returns.  vertex_cover_within finds
it by one depth-first branch-and-bound: a node branches on its first
uncovered edge (u, v) in g.edges() order, u first, and is skipped once its
chosen vertices plus a matching of its uncovered edges reach the best
cover's size.  Every cover of those edges holds an end of each matching
edge, so a skipped subtree holds no strictly smaller cover: the first least
cover, of size tau, is reached, as no node on its way bounds above tau and
every earlier cover is larger, and is never replaced.  The matching takes a
vertex with one free neighbor first, so it is maximum, and the bound exact,
on forests.

Strategy: instances with k above the m-degree m(G), or at least two beyond
the minimum cover size, are rejected outright.  Otherwise the proper
colorings of the cover S, one per renaming of colors, are tried together
with the admitted guesses of cover vertices designated as b-vertices
(distinct colors).  Colors lacking a designated b-vertex must be
completable by a vertex outside S seeing all other colors; vertices
outside S whose neighborhood already shows k-1 colors are forced.  What
remains is, for each designated b-vertex and each color it still misses, a
need set of outside vertices able to supply that color.  One backtracking
search meets them all, the small candidate sets first and exactly, the
large ones last: a small extension can never exhaust those.

The facts that depend on the cover coloring phi alone are computed once
per phi, by _cover_coloring: the colors each outside vertex sees, the
rejection of phi when some outside vertex sees all k colors, the forced
colors, the completer of each color and the colors with none.
cover_guesses pairs them with the guesses on phi it admits, and
_try_guess extends each.  The generator omits three kinds of guess, as
their extension fails:

(a) A guess whose b-vertices' colors miss a color c that has no completer.
    The guess leaves c's b-vertex to the outside vertices, which see only
    cover colors, so the b-vertex must see exactly the other k-1 colors:
    it is a completer, and there is none.
(b) A guess with a b-vertex x_j of degree below k-1 (Irving & Manlove
    1999).  Let s be the number of colors that x_j's colored neighbors (the
    cover and the forced outside vertices) show; none shows x_j's own color,
    the cover's by properness and a forced vertex's because it sees x_j.
    x_j is left with k-1-s needs, one per missing color, each met only by
    a distinct uncolored neighbor of x_j taking that color; with at least s
    colored neighbors, x_j has at most deg(x_j) - s < k-1-s uncolored
    ones, too few.  Every candidate set of x_j lies in its neighborhood,
    so has fewer than k-1 <= k^2-k vertices and goes to the exact search,
    which must fail, if no need set is empty before it.
(c) A guess with two b-vertices u and v whose open neighborhoods are
    nested, N(u) ⊆ N(v).  Their colors a = phi(u) and b = phi(v) differ,
    so u needs a neighbor w of color b; but w lies in N(v), next to v of
    color b, so no proper extension gives u one.  Indeed the need (u, b)
    has no candidate: an outside w in N(v) sees b, and a cover vertex w
    is colored already, not b.

The rules only omit guesses the extension would fail, and the admitted
guesses come in the same relative order as in the full enumeration of
distinctly colored cover subsets, so the first successful guess, and the
witness, are the same.  Those subsets are enumerated directly, not by a
walk over all 2^m masks of the m gated cover vertices (_antichain_subsets).

The witness is the (Coloring, b-vertices) pair the first successful guess
builds: its designated b-vertices plus one completer per other color,
checked against the definition once, in _try_guess.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .graph import Coloring, Graph
from .oracle import is_b_coloring

# (x_j, missing color) -> outside vertices that could take that color.
NeedSet = dict[tuple[int, int], frozenset[int]]


def vertex_cover_within(g: Graph, limit: int) -> frozenset[int] | None:
    """The first least vertex cover in branching order, if it has at most
    limit vertices, else None: the branch-and-bound of the module docstring,
    over an explicit stack of (chosen vertices, edges they leave uncovered)."""
    best, bound = None, limit + 1  # a kept cover has fewer than bound vertices
    stack = [(frozenset(), list(g.edges()))]
    while stack:
        chosen, remaining = stack.pop()
        slack = bound - len(chosen)  # a matching this large prunes the node
        # and has at most one edge per two vertices left, so it may be skipped.
        if (g.n - len(chosen)) // 2 >= slack and _matching_size(remaining) >= slack:
            continue
        if not remaining:
            best, bound = chosen, len(chosen)
        else:
            u, v = remaining[0]
            for w in (v, u):  # u is pushed last, so it is tried first
                stack.append((chosen | {w}, [e for e in remaining if w not in e]))
    return best


def _matching_size(edges: list[tuple[int, int]]) -> int:
    """The size of a matching of edges: a vertex with one free neighbor is
    matched to it first, else the first edge in order with both ends free."""
    adj: dict[int, set[int]] = {}  # free vertex -> its free neighbors
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    leaves = [x for x, nb in adj.items() if len(nb) == 1]
    size = 0
    for u, v in edges:
        while leaves or (u in adj and v in adj):
            if leaves:
                x = leaves.pop()
                if len(adj.get(x, ())) != 1:
                    continue  # matched, or its last neighbor was
                (y,) = adj[x]
            else:
                x, y = u, v
            size += 1
            for w in (x, y):
                for z in adj.pop(w):
                    if z in adj:
                        adj[z].discard(w)
                        if len(adj[z]) == 1:
                            leaves.append(z)
    return size


def min_vertex_cover(g: Graph) -> frozenset[int]:
    """A minimum vertex cover: the first least one in branching order."""
    cover = vertex_cover_within(g, g.n)
    assert cover is not None  # the n vertices cover every edge
    return cover


def small_extension_search(
    g: Graph, needs: NeedSet, k: int
) -> dict[int, int] | None:
    """A proper extension satisfying every need, coloring at most one vertex
    per need (hence at most k^2-k vertices), or None.

    needs maps (b-vertex, missing color) to the candidate vertices that may
    receive that color; candidates are assumed proper for it.  A need is
    also satisfied when an earlier assignment put its color on another
    neighbor of its b-vertex.  Needs with at most k^2-k candidates come
    first, then the large ones, each part in key order.  From _try_guess
    (at most k(k-1) needs, candidates outside the cover) the search never
    backtracks into a large need: fewer than k^2-k vertices are colored
    when it is reached, so it has a free candidate, proper because outside
    vertices are pairwise nonadjacent and a candidate sees no cover vertex
    of its color.  A large need takes its least free candidate, if unmet.
    """
    bound = k * k - k
    ordered = sorted(needs, key=lambda key: (len(needs[key]) > bound, key))
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
    assert result is None or len(result) <= bound
    return result


def _proper_cover_colorings(g: Graph, cover: list[int], k: int):
    """The proper colorings of G[cover] with colors 1..k, one per renaming
    of colors, lexicographically: each vertex takes a color already used
    or the smallest unused one.

    Trying only these is exact, and finds the same witness as trying every
    proper coloring in lexicographic order:
    - renaming colors maps a b-coloring to a b-coloring, and a guess
      succeeds in _try_guess iff its renamed guess does: its b-vertices
      keep distinct colors, the completer and need tests are made color by
      color, and the extension search is exhaustive;
    - the coloring kept here is the lexicographically first of its
      renamings, so it and its guesses come before every other renaming's;
    - hence the first successful guess over all proper colorings already
      has a coloring kept here.
    """
    assignment: dict[int, int] = {}
    # levels[i]: the colors cover[i] has yet to try on this branch, smallest
    # last, and the largest color on cover[:i].  An explicit stack, since a
    # cover may have thousands of vertices.
    levels: list[tuple[list[int], int]] = []
    used = 0  # the largest color on cover[:len(levels)]
    while True:
        if len(levels) == len(cover):
            yield dict(assignment)
        else:
            v = cover[len(levels)]
            forbidden = {assignment[u] for u in g.neighbors(v) if u in assignment}
            top = min(k, used + 1)
            levels.append(([c for c in range(top, 0, -1) if c not in forbidden], used))
        while levels and not levels[-1][0]:
            levels.pop()
            assignment.pop(cover[len(levels)], None)
        if not levels:
            return
        colors, before = levels[-1]
        color = colors.pop()
        assignment[cover[len(levels) - 1]] = color
        used = max(before, color)


class _CoverColoring(NamedTuple):
    """What every guess on one proper cover coloring phi reads, computed
    once per phi by _cover_coloring."""

    phi: dict[int, int]
    # outside vertex -> the colors of its neighbors, all in the cover
    nb_colors: dict[int, frozenset[int]]
    # phi, plus each outside vertex seeing k-1 colors on the one it misses
    forced: dict[int, int]
    # color -> the least outside vertex seeing exactly the other k-1 colors
    completer: dict[int, int]
    # the colors with no completer
    uncompleted: frozenset[int]


def _cover_coloring(
    g: Graph, outside: list[int], phi: dict[int, int], k: int
) -> _CoverColoring | None:
    """The facts of phi, or None if some outside vertex already sees all k
    colors: then no guess on phi has a proper extension."""
    kset = frozenset(range(1, k + 1))
    nb_colors = {x: frozenset(phi[u] for u in g.neighbors(x)) for x in outside}
    forced = dict(phi)
    completer: dict[int, int] = {}
    for x, seen in nb_colors.items():
        if len(seen) == k:
            return None
        # A vertex seeing exactly the other k-1 colors is forced to the
        # missing one; the least such vertex completes that color.
        if len(seen) == k - 1:
            (missing,) = kset - seen
            forced[x] = missing
            completer.setdefault(missing, x)
    return _CoverColoring(phi, nb_colors, forced, completer, kset.difference(completer))


def cover_guesses(g: Graph, cover: frozenset[int], k: int):
    """The (facts, b-vertex subset) guesses that rules (a), (b) and (c)
    admit, in a fixed order.  For each proper coloring phi of the cover up
    to renaming that _cover_coloring does not reject: the subsets of the
    cover vertices of degree at least k-1 with pairwise distinct colors
    and pairwise non-nested open neighborhoods that show every uncompleted
    color, in increasing mask order over those vertices
    (_antichain_subsets).  A gated vertex's cover index grows with its
    gated index, so the admitted subsets keep their relative order among
    all distinctly colored cover subsets."""
    cover_list = sorted(cover)
    outside = [x for x in g.vertices() if x not in cover]
    gated = [v for v in cover_list if g.degree(v) >= k - 1]
    for phi in _proper_cover_colorings(g, cover_list, k):
        facts = _cover_coloring(g, outside, phi, k)
        # No subset of the gated vertices shows a color none of them has.
        if facts is None or not facts.uncompleted <= {phi[v] for v in gated}:
            continue
        for chosen in _antichain_subsets(g, gated, phi):
            if facts.uncompleted <= {phi[v] for v in chosen}:
                yield facts, frozenset(chosen)


def _antichain_subsets(g: Graph, vertices: list[int], phi: dict[int, int]):
    """The subsets of vertices with pairwise distinct colors and pairwise
    non-nested open neighborhoods, in increasing mask order (bit i for
    vertices[i]): the empty one, then for each vertex v, each such subset
    of the vertices before it that differ from v in color and are not
    nested with it, plus v.  A subset of a sublist keeps its place in
    mask order.  Each level drops the colors of the levels above, so it
    recurses at most k + 1 deep, and each call yields at least one
    subset."""
    yield ()
    for i, v in enumerate(vertices):
        near = g.neighbors(v)
        rest = [
            u
            for u in vertices[:i]
            if phi[u] != phi[v] and not (near <= g.neighbors(u) or g.neighbors(u) <= near)
        ]
        for chosen in _antichain_subsets(g, rest, phi):
            yield chosen + (v,)


def _try_guess(
    g: Graph, facts: _CoverColoring, b_guess: frozenset[int], k: int
) -> tuple[Coloring, frozenset[int]] | None:
    """Extend one guess that cover_guesses admits on the coloring
    facts.phi to a full b-coloring, or show it cannot be.

    A b-vertex with more open needs than the union of their candidate sets
    is refused before the search, which would refuse it too.  A need
    (x, c) is met by a neighbor y of x colored c, a distinct one per color.
    y is not colored before the search, or c would not be missing at x,
    and is proper for c, so c is not among the colors y sees: y lies in
    needs[(x, c)].  So x's needs take as many distinct vertices from the
    union of their candidate sets as there are needs.
    """
    phi = facts.phi
    kset = frozenset(range(1, k + 1))
    nb_colors = facts.nb_colors
    colored = dict(facts.forced)
    # Need sets for the designated b-vertices; the cover is colored, so an
    # uncolored neighbor is an outside vertex.
    needs: NeedSet = {}
    for xj in b_guess:
        seen = {colored[u] for u in g.neighbors(xj) if u in colored}
        missing = kset - {phi[xj]} - seen
        reach: set[int] = set()
        for ci in missing:
            cand = frozenset(
                x
                for x in g.neighbors(xj)
                if x not in colored and ci not in nb_colors[x]
            )
            if not cand:
                return None
            needs[(xj, ci)] = cand
            reach |= cand
        if len(reach) < len(missing):
            return None
    # One search meets every need, the small ones exactly; it orders them
    # itself and never backtracks into a large one.
    ext = small_extension_search(g, needs, k)
    if ext is None:
        return None
    colored.update(ext)
    for x, seen in nb_colors.items():
        if x not in colored:
            colored[x] = min(kset - seen)
    coloring = Coloring(tuple(colored[v] for v in g.vertices()), k)
    # By rule (a), each color without a designated b-vertex has a
    # completer, which becomes the color's b-vertex.
    b_colors = {phi[b] for b in b_guess}
    b_vertices = b_guess | {facts.completer[c] for c in kset - b_colors}
    if not is_b_coloring(g, coloring):
        raise RuntimeError("completed cover guess failed the b-coloring check")
    return coloring, b_vertices


def _solve(g: Graph, k: int) -> tuple[Coloring, frozenset[int]] | None:
    if k < 1:
        raise InputError(f"number of colors must be positive, got {k}")
    # The k b-vertices have degree at least k-1, so k <= m(G) (Irving &
    # Manlove 1999).
    if k > g.m_degree():
        return None
    cover = min_vertex_cover(g)
    if k >= len(cover) + 2:
        return None
    for facts, b_guess in cover_guesses(g, cover, k):
        result = _try_guess(g, facts, b_guess, k)
        if result is not None:
            return result
    return None


def solve_bcoloring_vc(g: Graph, k: int) -> bool:
    """Does g have a b-coloring with k colors?"""
    return _solve(g, k) is not None


def solve_bcoloring_vc_witness(
    g: Graph, k: int
) -> tuple[Coloring, frozenset[int]] | None:
    """A b-coloring with k colors and one b-vertex per class, checked
    against the definition, or None if none exists."""
    return _solve(g, k)
