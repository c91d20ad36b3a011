"""Brute-force reference solvers and definition checkers.

Everything here favors being obviously correct over being fast; the
exhaustive solvers refuse instances beyond a small capacity instead of
silently running forever.  Enumeration is in lexicographic order of the
assignment vector, and the first witness found is returned, so outputs are
deterministic and usable as frozen test fixtures.

b_vertices is the one b-vertex definition: is_b_coloring asks it whether
a coloring is a b-coloring, and the oracle route pairs a brute-force
coloring with its b-vertices through it.  is_b_vertex_set checks the
b-vertices a solver names with its witness, and _check_b_witness is the
one check the cw, vc and bv solvers make of the witness they return.
"""

from __future__ import annotations

from .errors import CapacityError, InputError
from .graph import Coloring, Graph, is_proper

DEFAULT_CAPACITY = 10


def b_vertices(g: Graph, c: Coloring) -> frozenset[int] | None:
    """The smallest b-vertex of each class of c, or None if c is not a
    b-coloring: proper, every class nonempty, and every class holding a
    vertex with neighbors in all other classes."""
    classes = c.classes()
    if not is_proper(g, c) or not all(classes):
        return None
    all_colors = set(range(1, c.k + 1))
    found = []
    for i, cls in enumerate(classes, start=1):
        others = all_colors - {i}
        for v in sorted(cls):
            if others <= {c.colors[u] for u in g.neighbors(v)}:
                found.append(v)
                break
        else:
            return None
    return frozenset(found)


def is_b_vertex_set(g: Graph, c: Coloring, b: frozenset[int]) -> bool:
    """True iff b holds c.k vertices, one per class of c, each with
    neighbors in all other classes: the b-vertices a witness names."""
    colors, all_colors = c.colors, set(range(1, c.k + 1))
    return (
        len(b) == c.k
        and {colors[v] for v in b} == all_colors
        and all(all_colors - {colors[v]} <= {colors[u] for u in g.neighbors(v)} for v in b)
    )


def is_b_coloring(g: Graph, c: Coloring) -> bool:
    """True iff c is proper, every class is nonempty, and every class
    contains a vertex with neighbors in all other classes."""
    return b_vertices(g, c) is not None


def _check_b_witness(g: Graph, c: Coloring, b: frozenset[int], what: str) -> None:
    """Raise RuntimeError, saying that what failed, unless c is a
    b-coloring of g and b its b-vertices: a fault of the program."""
    if not is_b_coloring(g, c):
        raise RuntimeError(f"{what} failed the b-coloring check")
    if not is_b_vertex_set(g, c, b):
        raise RuntimeError(f"{what} failed the b-vertex check")


def is_fall_coloring(g: Graph, c: Coloring) -> bool:
    """True iff c is proper, every class is nonempty, and every vertex has
    a neighbor in each class other than its own."""
    if not is_proper(g, c) or not all(c.classes()):
        return False
    all_colors = set(range(1, c.k + 1))
    for v in g.vertices():
        seen = {c.colors[u] for u in g.neighbors(v)}
        if not (all_colors - {c.colors[v]}) <= seen:
            return False
    return True


def _surjective_colorings(g: Graph, k: int):
    """Yield all proper colorings of g using all k colors, in lexicographic
    order of the assignment vector.

    Backtracking prunes assignments that already break properness or can no
    longer reach every color; neither prune changes the set of complete
    colorings visited.
    """
    n = g.n
    assignment = [0] * n
    adj = [sorted(g.neighbors(v)) for v in range(n)]

    def extend(v: int, used: frozenset[int]):
        if v == n:
            if len(used) == k:
                yield Coloring(tuple(assignment), k)
            return
        if k - len(used) > n - v:
            return
        forbidden = {assignment[u] for u in adj[v] if u < v}
        for color in range(1, k + 1):
            if color not in forbidden:
                assignment[v] = color
                yield from extend(v + 1, used | {color})
        assignment[v] = 0

    yield from extend(0, frozenset())


def brute_force_bcoloring(g: Graph, k: int) -> Coloring | None:
    """First b-coloring of g with k colors in lexicographic order, or None."""
    return _first_coloring(g, k, is_b_coloring)


def brute_force_fallcoloring(g: Graph, k: int) -> Coloring | None:
    """First fall coloring of g with k colors in lexicographic order, or None."""
    return _first_coloring(g, k, is_fall_coloring)


def _first_coloring(g: Graph, k: int, check) -> Coloring | None:
    """The first proper coloring c of g using all k colors with check(g, c)."""
    if g.n > DEFAULT_CAPACITY:
        raise CapacityError(
            f"brute force refused: n={g.n} exceeds capacity {DEFAULT_CAPACITY}"
        )
    if k < 1:
        raise InputError(f"number of colors must be positive, got {k}")
    return next((c for c in _surjective_colorings(g, k) if check(g, c)), None)


def brute_force_chi_b(g: Graph) -> int:
    """The b-chromatic number by probing every k in 1..max_degree+1.

    Existence of a k-b-coloring is not monotone in k, so all candidates are
    tried and the largest feasible one returned; brute_force_bcoloring
    refuses a graph above the capacity.
    """
    if g.n < 1:
        raise InputError("b-chromatic number needs at least one vertex")
    best = 0
    for k in range(1, g.max_degree() + 2):
        if brute_force_bcoloring(g, k) is not None:
            best = k
    return best
