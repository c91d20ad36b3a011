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
remains is, for each designated b-vertex, the colors it still misses, each
to be put on an outside neighbor.  bv_solver's need search, started from
the cover coloring and the forced vertices, meets them all, the need with
the fewest live candidates first, and colors the other outside vertices;
only needs with at most k^2-k candidates ever branch
(small_extension_search).

The facts that depend on the cover coloring phi alone are computed once
per phi, by _cover_coloring: the rejection of phi when some outside vertex
sees all k colors, the forced colors, the completer of each color and the
colors with none.
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
    ones, too few: the need search's first need point refutes the guess.
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

from . import bv_solver
from .errors import InputError
from .graph import Coloring, Graph
from .oracle import is_b_coloring

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
    forced = dict(phi)
    completer: dict[int, int] = {}
    for x in outside:
        seen = {phi[u] for u in g.neighbors(x)}  # all in the cover
        if len(seen) == k:
            return None
        # A vertex seeing exactly the other k-1 colors is forced to the
        # missing one; the least such vertex completes that color.
        if len(seen) == k - 1:
            (missing,) = kset - seen
            forced[x] = missing
            completer.setdefault(missing, x)
    return _CoverColoring(phi, forced, completer, kset.difference(completer))


def small_extension_search(
    g: Graph, facts: _CoverColoring, b_guess: frozenset[int], k: int
) -> list[int] | None:
    """The colors of a b-coloring extending facts.forced in which every
    vertex of b_guess is a b-vertex, vertex by vertex, or None: vc's one
    call per admitted guess into bv_solver's need search, from the start
    facts.forced, with b_guess fixed, no candidates and no budget.  The
    benchmark's tracer (bench/spans.py) counts these calls by this name.

    The search is bounded as in the paper.  Every uncolored vertex lies
    outside the cover: the outside vertices are pairwise nonadjacent and
    see only cover vertices, all colored in the start, so an assignment
    shrinks no domain, forward checking never empties one, and the third
    stage takes each vertex's least color without backtracking.  Each
    second-stage assignment meets at least one of the at most k^2-k needs,
    so with s vertices assigned and r needs open, s + r <= k^2-k.  Once
    the search picks a need with more than k^2-k candidates, it has more
    than k^2-k-s >= r live ones, and so, as the search takes the fewest
    first, does every open need.  An assignment meets the need it serves
    and takes at most one live candidate from each other need (the vertex
    it colors), so that stays true, and the first branch below meets them
    all: the search never backtracks into that need.  Hence only needs
    with at most k^2-k candidates branch, at most k^2-k deep.
    """
    found = bv_solver._need_search(g, k, facts.forced, sorted(b_guess), [], None)
    return None if found is None else found[0]


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
    facts.phi to a full b-coloring, or show it cannot be: the cover keeps
    phi, the forced outside vertices their colors, and the need search
    (small_extension_search) colors the rest so that each guessed
    b-vertex sees every other color.  By rule (a), each color without a
    guessed b-vertex has a completer, which sees the other k-1 colors in
    the cover and becomes the color's b-vertex."""
    colors = small_extension_search(g, facts, b_guess, k)
    if colors is None:
        return None
    coloring = Coloring(tuple(colors), k)
    b_colors = {facts.phi[b] for b in b_guess}
    b_vertices = b_guess | {facts.completer[c] for c in range(1, k + 1) if c not in b_colors}
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
