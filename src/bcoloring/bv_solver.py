"""Exact b-coloring by a need-driven search that places the b-vertices first.

search(g, k) decides whether g has a b-coloring with k colors, 1 <= k <= n.
Its engine, _need_search, has two callers: search, which chooses the
b-vertices itself under a budget, and vc_solver, which hands it a
precolored start (a cover coloring and the outside vertices it forces)
and the b-vertices it guessed in the cover, with no budget.  Each search
is depth-first on one explicit stack of choice points, so its depth is
never the interpreter's (a 100,000-vertex path is searched like a short
one).  It has three stages:

1. *b-vertices* (search only).  It picks b_1 < b_2 < ... < b_k among the
   candidates, in increasing order, and colors b_i with i.  The
   candidates are the vertices of degree at least k-1, keeping only the
   smallest of each class of false twins (equal open neighborhoods, keyed
   by g.neighbors(v)).  A candidate whose open neighborhood is nested with
   a chosen one's (one a subset of the other) is refused.
2. *Needs.*  A need (b, j) of a b-vertex b, j not b's color, is open
   while no neighbor of b has color j.  The search meets first the open
   need with the fewest live candidates (uncolored neighbors of b that
   may still take j), trying each in increasing order.  A b-vertex with
   more open needs than uncolored neighbors, or an open need with no live
   candidate, is a dead end.
3. *The rest.*  It list-colors every other vertex, smallest domain first
   (ties to the smaller vertex), trying its colors in increasing order,
   but never more than one color above the largest in use.

Every assignment is forward-checked: the color leaves the domain of each
uncolored neighbor, and a neighbor left with an empty domain is a dead
end.  So a complete assignment is a proper coloring that extends the
start, with all k colors (search; vc's start shows them all), in which
each b-vertex sees every color but its own.

Before its main search, search runs the third stage alone, from no color
at all, to look for any proper k-coloring.  Without one there is no
b-coloring, and refuting it once is far cheaper than refuting it again
under every b-vertex set.  Its coloring is then dropped.

The search is exact: it misses no b-coloring.
- Candidates.  A b-vertex has a neighbor in each of the k-1 other
  classes, so degree at least k-1 (Irving & Manlove 1999).  False twins u
  < v are never adjacent.  If v is the b-vertex of its class, swapping the
  colors of u and v keeps the coloring proper and leaves every vertex's
  set of neighbor colors as it was (a vertex next to one of them is next
  to both), so u becomes that class's b-vertex and no b-vertex of another
  class is lost: it could only have been u, a twin of v in another class,
  which the next rule excludes.
- Antichain.  Let u and v be b-vertices of colors a != b with
  N(u) ⊆ N(v).  u has a neighbor w of color b; w lies in N(v), next to v
  of color b, so the coloring is not proper.  Hence one b-vertex per class
  gives k pairwise non-nested open neighborhoods.
- Colors.  Renaming colors maps b-colorings to b-colorings, so the class
  of the i-th smallest chosen b-vertex may take color i.  In the third
  stage the colors above the largest in use are interchangeable, so
  trying the first of them is enough; after the first stage all k are in
  use, so this rule restricts only the proper-coloring search.
- Needs and the rest.  Let c be a b-coloring that agrees with the
  current assignment.  Each need (b, j) is met in c by a neighbor of
  color j; if that neighbor is uncolored, c gives it a color its domain
  still holds, so it is a live candidate, and the search tries every live
  candidate of the need it picks.  The third stage tries every color of
  the domain of the vertex it picks, up to the symmetry above.  So some
  branch follows c to the end, or to a b-coloring found before it.
Choice order only decides speed and which witness comes first.

Each caller checks the witness once against the definition
(oracle.is_b_coloring) before it returns it; a failed check raises
RuntimeError.

Budget.  A dead end is an assignment undone or a candidate refused.  The
searches of one call to search are allowed SEARCH_BUDGET dead ends
together; the next one raises CapacityError, so None means every choice
was exhausted.  vc's calls have no budget: its guesses bound the search
(vc_solver.small_extension_search).  Assigning a vertex v, or undoing it,
costs O(deg(v) log n): each neighbor's domain, and one heap entry per
shrunk domain, from which the third stage takes its smallest domain
lazily.  A refusal costs O(k·Δ), a choice point of the second stage
O(k·Σ deg(b)) over the b-vertices with an open need to rank those needs
(a b-vertex whose needs are all met is skipped at once, by the colors its
neighbors show), one of the others O(k) besides its heap entries.  The
first branch of a search assigns each vertex once, and every other
assignment ends undone, a dead end, so a budgeted call is
O((n + SEARCH_BUDGET)·k·Δ·log n) plus the need ranking, at most k(k-1)
rankings per assignment.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable

from . import oracle
from .errors import CapacityError, InputError
from .graph import Coloring, Graph

# The dead ends a search may meet before it gives up: about twice what
# the benchmark pools need.  Their probes take at most 122 on the
# bchrom-gnp graphs (the 54 probes from m(G) down to chi_b), 50 on the 48
# decide-mixed bcol requests and 13 on the vc pool; on 1,500 seeded
# G(n, p) graphs with n <= 10, 2 of about 8,000 probes needed more.
SEARCH_BUDGET = 256


def search(g: Graph, k: int) -> tuple[Coloring, frozenset[int]] | None:
    """A b-coloring of g with k colors and its b-vertices, one per class,
    or None if there is none.  Raises CapacityError after SEARCH_BUDGET
    dead ends, InputError for k < 1.  No search runs for k > n."""
    if k < 1:
        raise InputError(f"number of colors must be positive, got {k}")
    if k > g.n:
        return None
    twins: dict[frozenset[int], int] = {}  # neighborhood -> its least vertex
    for v in g.vertices():
        if g.degree(v) >= k - 1:
            twins.setdefault(g.neighbors(v), v)
    candidates = list(twins.values())  # increasing, as v was
    if len(candidates) < k:
        return None
    found = _need_search(g, k, {}, (), candidates, SEARCH_BUDGET)
    if found is None:
        return None
    coloring = Coloring(tuple(found[0]), k)
    if not oracle.is_b_coloring(g, coloring):
        raise RuntimeError("b-vertex search witness failed the b-coloring check")
    return coloring, frozenset(found[1])


def _need_search(
    g: Graph,
    k: int,
    start: dict[int, int],
    fixed: Iterable[int],
    candidates: list[int],
    budget: int | None,
) -> tuple[list[int], list[int]] | None:
    """The colors of a proper k-coloring extending start, vertex by vertex,
    and its b-vertices: those of fixed (colored by start) and, if
    candidates are given, k more chosen among them in the first stage,
    after the proper-coloring pre-pass.  None if the stages of the module
    docstring find none.  Raises CapacityError after budget dead ends,
    unless budget is None."""
    adj = [g.neighbors(v) for v in g.vertices()]
    position = {w: i for i, w in enumerate(candidates)}
    full = (1 << (k + 1)) - 2  # bits 1..k
    color = [0] * g.n
    forbidden = [0] * g.n  # bit c: a neighbor has color c
    # (domain size, vertex) entries, at most as large as the vertex's
    # domain while it is uncolored.
    heap: list[tuple[int, int]] = []
    chosen = list(fixed)
    # (v, the neighbors v's color was new to, the largest color in use)
    trail: list[tuple[int, list[int], int]] = []
    in_use = max(start.values(), default=0)  # the largest color in start
    dead = 0

    def begin() -> None:
        """Load start, with no choice made."""
        color[:] = forbidden[:] = [0] * g.n
        for v, c in start.items():
            color[v] = c
            for u in adj[v]:
                forbidden[u] |= 1 << c
        heap[:] = [(k - forbidden[v].bit_count(), v) for v in g.vertices() if not color[v]]
        heapq.heapify(heap)
        trail.clear()

    def assign(v: int, c: int) -> bool:
        """Color v with c, forward-checking; False if a neighbor's domain
        empties.  A colored neighbor records c too, so that a b-vertex's
        neighbor colors are forbidden[b]."""
        color[v] = c
        bit = 1 << c
        shrunk: list[int] = []
        trail.append((v, shrunk, max(c, trail[-1][2] if trail else in_use)))
        for u in adj[v]:
            if not forbidden[u] & bit:
                forbidden[u] |= bit
                shrunk.append(u)
                if not color[u]:
                    left = k - forbidden[u].bit_count()
                    if not left:
                        return False
                    heapq.heappush(heap, (left, u))
        return True

    def dead_end() -> None:
        nonlocal dead
        dead += 1
        if budget is not None and dead > budget:
            raise CapacityError(
                f"b-vertex search ran out of its budget of {budget} dead ends at k = {k}"
            )

    def undo(mark: int) -> None:
        while len(trail) > mark:
            v, shrunk, _ = trail.pop()
            keep = ~(1 << color[v])
            for u in shrunk:
                forbidden[u] &= keep
            color[v] = 0
            if chosen and chosen[-1] == v:
                chosen.pop()
            heapq.heappush(heap, (k - forbidden[v].bit_count(), v))
            dead_end()

    def choice_point():
        """The next choice point as (stage, options, fixed): a b-vertex
        choice (candidate indices, the color), a need (vertices, its color)
        or the rest (colors, the vertex).  No options is a dead end; None
        means every vertex is colored."""
        i = len(chosen)
        if candidates and i < k:
            first = position[chosen[-1]] + 1 if chosen else 0
            # leave enough candidates after it for the other b-vertices
            return "b", range(first, len(candidates) - (k - i - 1)), i + 1
        best = None  # (color, live candidates) of the need to meet first
        for b in chosen:
            open_colors = full & ~forbidden[b] & ~(1 << color[b])
            if not open_colors:
                continue
            free = [u for u in adj[b] if not color[u]]
            if open_colors.bit_count() > len(free):
                return "need", (), None
            for j in range(1, k + 1):
                if not open_colors >> j & 1:
                    continue
                live = [u for u in free if not forbidden[u] >> j & 1]
                if best is None or len(live) < len(best[1]):
                    if not live:
                        return "need", (), None
                    best = (j, live)
        if best is not None:
            return "need", sorted(best[1]), best[0]
        return rest_point()

    def rest_point():
        """The third stage's choice point, or None once every vertex is
        colored."""
        while heap:
            left, v = heap[0]
            if color[v]:
                heapq.heappop(heap)
            elif left != k - forbidden[v].bit_count():
                heapq.heapreplace(heap, (k - forbidden[v].bit_count(), v))
            else:
                mask = forbidden[v]
                top = min(k, (trail[-1][2] if trail else in_use) + 1)
                return "rest", [c for c in range(1, top + 1) if not mask >> c & 1], v
        return None

    def run(point_of) -> bool:
        """Depth-first search over the choice points point_of gives: True
        once every vertex is colored, False when it is exhausted."""
        frames: list[list] = []  # [stage, options, fixed, trail mark, next option]
        point = point_of()
        while point is not None:
            frames.append([*point, len(trail), 0])
            while frames:
                frame = frames[-1]
                stage, options, fixed, mark, index = frame
                undo(mark)
                if index == len(options):
                    frames.pop()
                    continue
                frame[4] = index + 1
                if stage == "rest":
                    v, c = fixed, options[index]
                elif stage == "need":
                    v, c = options[index], fixed
                else:
                    v, c = candidates[options[index]], fixed
                    near = adj[v]
                    if any(near <= adj[u] or adj[u] <= near for u in chosen):
                        dead_end()
                        continue
                    chosen.append(v)
                if assign(v, c):
                    break
            else:
                return False
            # Needs once met stay met down a branch: past the first choice
            # of the third stage, only the third stage is left.
            point = rest_point() if stage == "rest" else point_of()
        return True

    if candidates:
        begin()
        if not run(rest_point):
            return None  # no proper k-coloring
    begin()
    if not run(choice_point):
        return None
    return color, chosen
