"""Rooted branch decompositions and their per-node structure.

A rooted branch decomposition of a graph G is a rooted binary tree whose
leaves biject with V(G).  Each tree node t induces the vertex set V_t of
leaves below it; vertices of V_t are equivalent when they have the same
neighborhood outside V_t, and the module-width of the decomposition is the
maximum number of such classes over all nodes.  Each internal node carries
an operator describing which child-class pairs become fully adjacent and
how child classes merge into parent classes.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import CapacityError, InputError, StructuralError, listed
from .graph import Graph


@dataclass(frozen=True)
class ClassPartition:
    """Equivalence classes of V_t by outside neighborhood, canonically
    ordered by their minimum vertex id.

    This is the reference partition returned by equivalence_classes; the DP
    indexes classes in _annotate's order, which is the same.
    """

    classes: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class NodeOperator:
    """Per-internal-node structure over the classes of children r and s.

    h_edges lists the (r-class, s-class) index pairs whose members are all
    pairwise adjacent in G; every other cross pair has no adjacency at all.
    bubble_r[i] (resp. bubble_s[j]) is the index of the parent class that
    r-class i (s-class j) is contained in.  dead is the index of the parent's
    dead class, the one whose vertices have no neighbor outside V_t, or None
    if every vertex of V_t has one.
    """

    h_edges: frozenset[tuple[int, int]]
    bubble_r: tuple[int, ...]
    bubble_s: tuple[int, ...]
    dead: int | None = None

    @property
    def parent_class_count(self) -> int:
        return max(itertools.chain(self.bubble_r, self.bubble_s)) + 1


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Annotation:
    """What the DP reads from a decomposition of a graph: the operator of
    every internal node, the module-width (the largest class count), and
    the facts that the decision DP's demand and supply rules read
    (bcol_dp._decision_tables) about the outside neighborhoods O_q of each
    internal node's classes q.

    neighbors[t] lists each vertex w outside V_t adjacent to a class of t,
    as (w, the mask of those classes), for the nodes t such that the
    class representatives (smallest members) of t and of every ancestor
    of t have at most NEIGHBOR_SCAN_LIMIT neighbors in all; no other node
    is listed, so the parent of a listed node is listed.  overlaps[t], for
    the listed nodes where some such w is adjacent to two classes, is the
    distinct masks, in increasing order.
    """

    operators: Mapping[int, NodeOperator]
    width: int
    overlaps: Mapping[int, tuple[int, ...]]
    neighbors: Mapping[int, tuple[tuple[int, int], ...]]


def _bits(mask: int):
    """The positions of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RootedBranchDecomposition:
    """Rooted binary tree with a leaf <-> graph-vertex bijection.

    Nodes are dense ids 0..m-1.  Every node has exactly zero or two
    children; structural defects (a listed child count other than 0 or 2,
    cycles, unreachable nodes, repeated leaf vertices) are rejected at
    construction.  The check that depends on the graph -- the leaf map
    being a bijection onto V(G) -- lives in validate().
    """

    __slots__ = (
        "root",
        "_children",
        "_leaf_vertex",
        "_postorder",
        "_annotation",
        "_width",
    )

    def __init__(
        self,
        children: Sequence[tuple[int, int] | None],
        leaf_vertex: Mapping[int, int],
        root: int = 0,
    ):
        m = len(children)
        if m == 0:
            raise StructuralError("decomposition has no nodes")
        if not (0 <= root < m):
            raise StructuralError(f"root {root} out of range")
        self.root = root
        self._children = tuple(children)
        self._leaf_vertex = dict(leaf_vertex)
        self._annotation: tuple[Graph, Annotation] | None = None
        self._width: tuple[Graph, int] | None = None

        vertices = sorted(self._leaf_vertex.values())
        if len(set(vertices)) != len(vertices):
            raise StructuralError("leaf_map not bijective: repeated vertex")
        if vertices and vertices[0] < 0:
            raise StructuralError(f"leaf_map not bijective: vertex {vertices[0]}")

        # One stack preorder checks the shape.  It pushes both children, so
        # the right one pops first, and reversed it lists the left subtree,
        # then the right one, then the node: children before parents.
        order: list[int] = []
        seen = bytearray(m)
        stack = [root]
        while stack:
            t = stack.pop()
            if seen[t]:
                raise StructuralError(f"node {t}: not a tree (visited twice)")
            seen[t] = 1
            order.append(t)
            kids = self._children[t]
            if kids is None:
                if t not in self._leaf_vertex:
                    raise StructuralError(f"node {t}: leaf without a graph vertex")
                continue
            if t in self._leaf_vertex:
                raise StructuralError(f"node {t}: internal node mapped to a vertex")
            if len(kids) != 2:
                raise StructuralError(f"node {t}: not binary")
            for c in kids:
                if not (0 <= c < m):
                    raise StructuralError(f"node {t}: child {c} out of range")
            stack += kids
        if len(order) != m:
            missing = [t for t in range(m) if not seen[t]]
            raise StructuralError(f"nodes unreachable from root: {missing}")
        self._postorder = tuple(reversed(order))

    @classmethod
    def _caterpillar(cls, order: Sequence[int]) -> RootedBranchDecomposition:
        """The caterpillar whose leaves follow order along the spine, built
        field by field: its shape is valid by construction, so __init__'s
        walk and checks are skipped.  Leaves get ids 0..n-1 in spine order,
        internal nodes n..2n-2; the internal node n+j-1 covers the prefix
        order[0..j], with children the node covering order[0..j-1] (leaf 0
        for j = 1) and leaf j.  The root 2n-2 is last in the postorder 0,
        1, n, 2, n+1, ..., n-1, 2n-2."""
        n = len(order)
        d = cls.__new__(cls)
        d.root = 2 * n - 2
        d._children = (None,) * n + tuple(zip((0, *range(n, 2 * n - 2)), range(1, n)))
        d._leaf_vertex = dict(enumerate(order))
        postorder = [0] * (2 * n - 1)
        postorder[1::2] = range(1, n)
        postorder[2::2] = range(n, 2 * n - 1)
        d._postorder = tuple(postorder)
        d._annotation = d._width = None
        return d

    @property
    def node_count(self) -> int:
        return len(self._children)

    # The accessors run once per node in every pass over a decomposition,
    # so each makes its one range test inline.

    def is_leaf(self, t: int) -> bool:
        if not 0 <= t < len(self._children):
            raise InputError(f"unknown decomposition node {t}")
        return self._children[t] is None

    def children(self, t: int) -> tuple[int, int]:
        if not 0 <= t < len(self._children):
            raise InputError(f"unknown decomposition node {t}")
        kids = self._children[t]
        if kids is None:
            raise InputError(f"node {t} is a leaf")
        return kids

    def leaf_vertex(self, t: int) -> int:
        if not 0 <= t < len(self._children):
            raise InputError(f"unknown decomposition node {t}")
        if self._children[t] is not None:
            raise InputError(f"node {t} is internal")
        return self._leaf_vertex[t]

    def leaves(self) -> tuple[int, ...]:
        return tuple(t for t in self._postorder if self._children[t] is None)

    def postorder(self) -> tuple[int, ...]:
        """All nodes, children before parents; the root is last."""
        return self._postorder

    def vertex_set(self, t: int) -> frozenset[int]:
        """V_t: the graph vertices on leaves below t, found by walking t's
        subtree; the tree stores no V_t."""
        if not 0 <= t < len(self._children):
            raise InputError(f"unknown decomposition node {t}")
        below = [t]
        for u in below:  # the list grows as it is read: a breadth-first walk
            below += self._children[u] or ()
        return frozenset(self._leaf_vertex[u] for u in below if u in self._leaf_vertex)

    def vertex_mask(self, t: int) -> int:
        """V_t as a bitmask: bit v is set iff vertex v is on a leaf below t."""
        return sum(1 << v for v in self.vertex_set(t))


def equivalence_classes(
    g: Graph, d: RootedBranchDecomposition, t: int
) -> ClassPartition:
    """Partition V_t by outside-neighborhood signature, canonically ordered."""
    vt = d.vertex_mask(t)
    if vt >> g.n:
        raise StructuralError(
            f"leaf vertex {vt.bit_length() - 1} not in graph with n={g.n}"
        )
    masks = g.adjacency_masks()
    outside = ~vt
    # Vertices in increasing order, so each class is first met at its
    # minimum and the classes come out canonically ordered.
    groups: dict[int, list[int]] = {}
    for v in _bits(vt):
        groups.setdefault(masks[v] & outside, []).append(v)
    return ClassPartition(tuple(tuple(cls) for cls in groups.values()))


def _annotate(g: Graph, d: RootedBranchDecomposition) -> Annotation:
    """The Annotation of d over g; StructuralError if d is not a
    decomposition of g.  Found by _walk, then cached on d.
    """
    cached = d._annotation
    if cached is not None and cached[0] is g:
        return cached[1]
    return _walk(g, d)


# The most neighbors, in all, of the class representatives of a node whose
# outside neighbors an Annotation lists: a bound on the work and the memory
# each node may take, so that a vertex of high degree costs nothing at the
# nodes where it represents a class.
NEIGHBOR_SCAN_LIMIT = 128


def _walk(g: Graph, d: RootedBranchDecomposition) -> Annotation:
    """Annotate d over g, cache the annotation on d and return it.

    One postorder pass keeps V_t as a bitmask and only the smallest vertex
    of each class of each node, in increasing order, reads an internal
    node's classes, operator and outside facts off its children's, and
    drops a child's once its parent is built.  Graphs and decompositions
    are immutable, so the result is cached on d for this graph object,
    matched by identity (d keeps g alive): validate, module_width, the
    reference runs, the decisions and every k probe share one walk.

    This is exact, by induction from the leaves, whose one class {v} has
    representative v.  At t with children r and s, the members of an
    r-class share their neighbors outside V_r, and V_r lies in V_t, so they
    share their neighbors outside V_t (and the same for s): each child
    class lies in one class of t, t's classes are unions of child classes,
    and grouping the children's representatives by neighborhood outside
    V_t groups the child classes as t does.  The smallest vertex of a class
    of t is the smallest of the representatives of the child classes it
    unites, so scanning the representatives in increasing order meets each
    class of t first at its own smallest vertex, and the classes come out
    in the order of equivalence_classes.  The members of an r-class also
    share their neighbors in V_s, and those of an s-class theirs in V_r, so
    two classes are fully adjacent or not at all, as their representatives
    are.  The dead class is the one grouped under the empty neighborhood.

    The outside neighborhood O_q of class q is that of its representative,
    so a node's outside neighbors and their class masks are read off the
    representatives' adjacency, where the limit allows; a node over it, and
    then every node below it, is dropped from the lists after the pass,
    parents first.  The leaves below a node are consecutive in postorder
    (r's, then s's), so a vertex lies in V_t iff its leaf's position lies in
    t's range: no n-bit mask is kept per node for them.
    """
    order = [d.leaf_vertex(t) for t in d.leaves()]  # leaf vertices in postorder
    covered = sorted(order)
    if covered != list(range(g.n)):
        missing = sorted(set(range(g.n)).difference(covered))
        beyond = [v for v in covered if v >= g.n]
        raise StructuralError(
            f"leaf_map not bijective: decomposition covers {len(covered)} vertices, "
            f"graph has vertices 0..{g.n - 1}"
            + (f"; missing {listed(missing)}" if missing else "")
            + (f"; beyond the graph {listed(beyond)}" if beyond else "")
        )
    masks = g.adjacency_masks()
    adj = g._adj
    degree = list(map(len, adj))
    position = [0] * g.n  # vertex -> its leaf's place in postorder
    for p, v in enumerate(order):
        position[v] = p
    # node -> (V_t, its leaves' positions lo..hi-1, representatives)
    reps: dict[int, tuple[int, int, int, list[int]]] = {}
    operators: dict[int, NodeOperator] = {}
    overlaps: dict[int, tuple[int, ...]] = {}
    neighbors: dict[int, tuple[tuple[int, int], ...]] = {}
    width = 1
    for t in d.postorder():
        if d.is_leaf(t):
            v = d.leaf_vertex(t)
            reps[t] = (1 << v, position[v], position[v] + 1, [v])
            continue
        r, s = d.children(t)
        (vt_r, lo, _, rep_r), (vt_s, _, hi, rep_s) = reps.pop(r), reps.pop(s)
        vt = vt_r | vt_s
        outside = ~vt
        first: dict[int, int] = {}  # neighborhood outside V_t -> smallest member
        for v in sorted(rep_r + rep_s):
            first.setdefault(masks[v] & outside, v)
        index = {key: q for q, key in enumerate(first)}
        near: dict[int, int] = {}  # neighbor outside V_t -> its classes
        shared = False  # is a neighbor adjacent to two classes?
        budget = NEIGHBOR_SCAN_LIMIT
        for q, (key, v) in enumerate(first.items()):
            if key:  # the dead class has no outside neighbor
                budget -= degree[v]
                if budget < 0:
                    break
                bit = 1 << q
                for w in adj[v]:
                    if lo <= position[w] < hi:
                        continue
                    if w in near:
                        near[w] |= bit
                        shared = True
                    else:
                        near[w] = bit
        else:
            neighbors[t] = tuple(near.items())
            if shared:
                overlaps[t] = tuple(sorted(set(near.values())))
        operators[t] = NodeOperator(
            h_edges=frozenset(
                (i, j)
                for i, u in enumerate(rep_r)
                for j, v in enumerate(rep_s)
                if masks[u] >> v & 1
            ),
            bubble_r=tuple(index[masks[v] & outside] for v in rep_r),
            bubble_s=tuple(index[masks[v] & outside] for v in rep_s),
            dead=index.get(0),
        )
        reps[t] = (vt, lo, hi, list(first.values()))
        width = max(width, len(first))
    if len(neighbors) < len(operators):  # some node is over the limit
        unlisted: set[int] = set()
        for t in reversed(d.postorder()):  # parents first
            if t in operators and (t in unlisted or t not in neighbors):
                neighbors.pop(t, None)
                overlaps.pop(t, None)
                unlisted.update(d.children(t))
    annotation = Annotation(operators, width, overlaps, neighbors)
    d._annotation = (g, annotation)
    return annotation


def validate(g: Graph, d: RootedBranchDecomposition) -> ValidationReport:
    """Check that d is a decomposition of g.

    Tree shape (binary, acyclic, injective leaf map) is enforced when the
    decomposition object is built, so the one graph-dependent failure left
    is a leaf map that is not a bijection onto V(g).  Inter-class adjacency
    is all-or-nothing for every decomposition, as _annotate proves.
    """
    try:
        _annotate(g, d)
    except StructuralError as exc:
        return ValidationReport(False, (str(exc),))
    return ValidationReport(True)


def module_width(g: Graph, d: RootedBranchDecomposition) -> int:
    """max over nodes t of the class count of V_t.

    A decomposition that best_decomposition built for this graph object
    carries the width its search measured, matched by identity as
    _annotate's cache is, and that width is returned as it is.  Any other
    pair is annotated, and so validated, first.
    """
    searched = d._width
    if searched is not None and searched[0] is g:
        return searched[1]
    return _annotate(g, d).width


def linear_decomposition(g: Graph, order: Sequence[int]) -> RootedBranchDecomposition:
    """Caterpillar decomposition whose leaves follow `order` along the spine."""
    if sorted(order) != list(range(g.n)):
        raise InputError(f"order [{listed(order)}] is not a permutation of 0..{g.n - 1}")
    if g.n == 0:
        raise InputError("cannot decompose the empty graph")
    return RootedBranchDecomposition._caterpillar(order)


# --- decomposition search -------------------------------------------------

EXACT_TINY_LIMIT = 8


def _exact_decomposition(g: Graph) -> tuple[RootedBranchDecomposition, int]:
    """A decomposition of g of minimum module-width, and that width.

    A tree's width is the largest class count cls(S) over its nodes' vertex
    sets S, so the least width over S is f(S) = max(cls(S), min over splits
    S = A + B, A holding S's lowest vertex, of max(f(A), f(B))), and 1 for
    one vertex.  Proper submasks of S are smaller integers, so S is visited
    in increasing order.  Ties go to the more balanced split, then the first.
    """
    masks = g.adjacency_masks()
    full = (1 << g.n) - 1
    width = [1] * (full + 1)
    split = [0] * (full + 1)  # A of S's best split; 0 for a single vertex
    for s in range(1, full + 1):
        low = s & -s
        rest = sub = s ^ low
        best = (g.n, g.n) if rest else (1, 1)  # any split wins: f(A) <= |A| < n
        while sub:
            sub = (sub - 1) & rest
            a, b = low | sub, rest ^ sub
            key = (max(width[a], width[b]), max(a.bit_count(), b.bit_count()))
            if key < best:
                best, split[s] = key, a
        width[s] = max(len({masks[v] & ~s for v in _bits(s)}), best[0])
    # Node ids children before parents: ~S on the stack joins S = A + B
    # once both parts are built, B's subtree as the last 2|B| - 1 nodes.
    children: list[tuple[int, int] | None] = []
    leaf_vertex: dict[int, int] = {}
    stack = [full]
    while stack:
        s = stack.pop()
        t = len(children)
        if s < 0:
            children.append((t - 2 * (~s ^ split[~s]).bit_count(), t - 1))
        elif split[s]:
            stack += [~s, s ^ split[s], split[s]]
        else:
            leaf_vertex[t] = s.bit_length() - 1
            children.append(None)
    return RootedBranchDecomposition(children, leaf_vertex, t), width[full]


def _greedy_order(g: Graph) -> tuple[list[int], int]:
    """Vertex order greedily minimizing the class count of each prefix,
    ties to the smallest vertex, and the largest class count of its
    prefixes: the module-width of its linear decomposition.

    sigs maps the prefix's class signatures (neighborhoods outside it) to
    their vertices, contain[b] holds those of them with bit b set, own[v]
    = masks[v] & outside for every remaining v, and empty the remaining
    vertices of own 0.  Adding candidate v clears bit v in every
    signature, and two signatures merge only if they are s and s ^ bit(v)
    with bit v set in s, so the class count after v is |sigs| + key(v),
    where

        key(v) = fresh(v) - #{s in contain[v] : s ^ bit(v) in sigs}

    and fresh(v) = [own[v] not in sigs and own[v] | bit(v) not in sigs].
    The step takes the least (key, v); no key exceeds 1.  A lazy min-heap
    of (key, v) entries, each pushed with a key of at most 0, supplies it
    under the invariant: every remaining vertex whose key fell since its
    last entry has a fresh entry, so every remaining v of key(v) <= 0 has
    an entry of value at most key(v).  Let (e, v) be the least entry.  If
    v was chosen, it is dropped.  If key(v) > e, v's key rose: the entry
    is re-keyed and pushed back if key(v) <= 0, dropped otherwise, and the
    invariant still holds for v.  If key(v) = e, v is taken: for any
    remaining w of key(w) <= 0 with least entry (e', w), (key(w), w) >=
    (e', w) >= (e, v), and any w of key(w) = 1 > 0 >= e comes after (e, v)
    too.  If the heap runs empty, no remaining vertex has a key of at most
    0, by the invariant, so every key is 1 and the smallest remaining
    vertex is taken.  Each look at the top either ends the search or drops
    or raises an entry, so it ends.

    The invariant survives a step.  Choosing u rewrites each s in
    contain[u] to s ^ bit(u) (which merges with it if present), adds
    own[u] and clears bit u from own[w] at u's remaining neighbors w.
    Removing a signature only raises keys, so a key falls only through an
    added signature t or a changed own.  fresh(v) falls when own[v]
    changes (v is a neighbor of u), when t = own[v] or when t = own[v] |
    bit(v) (v is a bit of t).  If t = own[v] is not 0, every vertex b of
    t, such as the first of sigs[t], lies in own[v], a part of v's
    neighborhood, so v is a remaining neighbor of b whose own is t; if
    t = 0, v is in empty.  The merge
    count of v rises only with a new pair {s, s ^ bit(v)}, one member of
    which is an added t: either v is a bit of t, or t | bit(v) is in sigs
    and v is t's one-bit partner.  That superset lies in contain[b] for
    every bit b of t, so the smallest of those sets is scanned for it;
    when t = 0 it is a one-bit signature of sigs.  Every such vertex is
    re-keyed after the step and pushed if its key is at most 0.  (|sigs|
    is common to all candidates, so its change moves no key.)

    A mask removed from sigs has a chosen bit, so it never returns: each
    mask is added at most once, and 0, never removed, at most once.  A
    step costs the bits of the signatures it rewrites or adds, deg(u), for
    each added signature the degree of that first vertex and the partner
    scan of the smallest contain[b] (for 0, empty and sigs), and the
    contain sets of the vertices it re-keys, up to heap logarithms; it
    does not look at every class.
    """
    masks = g.adjacency_masks()
    adj = g._adj
    own = list(masks)
    empty = {v for v in g.vertices() if not masks[v]}
    contain: list[set[int]] = [set() for _ in range(g.n)]
    sigs: dict[int, tuple[int, ...]] = {}
    heap: list[tuple[int, int]] = []
    chosen = bytearray(g.n)
    order: list[int] = []
    low = width = 0

    def key(v: int) -> int:
        bit = 1 << v
        o = own[v]
        count = 0 if o in sigs or o | bit in sigs else 1
        for s in contain[v]:
            if s ^ bit in sigs:
                count -= 1
        return count

    for _ in range(g.n):
        while heap:
            e, u = heap[0]
            if not chosen[u]:
                now = key(u)
                if now == e:
                    break
                if now <= 0:
                    heapq.heapreplace(heap, (now, u))
                    continue
            heapq.heappop(heap)
        else:
            while chosen[low]:
                low += 1
            u = low
        order.append(u)
        chosen[u] = 1
        bit = 1 << u
        added = []  # (signature, its vertices)
        for s in contain[u]:
            t_bits = tuple(b for b in sigs.pop(s) if b != u)
            for b in t_bits:
                contain[b].remove(s)
            t = s ^ bit
            if t not in sigs:
                sigs[t] = t_bits
                added.append((t, t_bits))
                for b in t_bits:
                    contain[b].add(t)
        near = [w for w in adj[u] if not chosen[w]]  # the vertices of own[u]
        o = own[u]
        if o not in sigs:
            o_bits = sigs[o] = tuple(near)
            added.append((o, o_bits))
            for b in o_bits:
                contain[b].add(o)
        width = max(width, len(sigs))
        empty.discard(u)
        for w in near:
            own[w] ^= bit
            if not own[w]:
                empty.add(w)
        touched = set(near)
        for t, t_bits in added:
            touched.update(t_bits)
            if t:
                for w in adj[t_bits[0]]:
                    if own[w] == t and not chosen[w]:
                        touched.add(w)
                pool = min(map(contain.__getitem__, t_bits), key=len)
            else:
                touched.update(empty)
                pool = sigs
            for s in pool:
                extra = s ^ t
                if s & t == t and extra and not extra & (extra - 1):
                    touched.add(extra.bit_length() - 1)
        for v in touched:
            now = key(v)
            if now <= 0:
                heapq.heappush(heap, (now, v))
    return order, width


def best_decomposition(g: Graph, effort: str = "heuristic") -> RootedBranchDecomposition:
    """Construct a decomposition of g.

    effort="exact-tiny" returns a tree of minimum module-width, found by
    a DP over vertex subsets (n <= 8 only; see _exact_decomposition);
    effort="heuristic" returns a linear decomposition under a greedy order.
    Either search measures the module-width of what it returns, and records
    it on the decomposition for g, where module_width reads it.
    """
    if g.n == 0:
        raise InputError("cannot decompose the empty graph")
    if effort == "heuristic":
        order, width = _greedy_order(g)
        d = linear_decomposition(g, order)
        d._width = (g, width)
        return d
    if effort != "exact-tiny":
        raise InputError(f"unknown effort {effort!r}")
    if g.n > EXACT_TINY_LIMIT:
        raise CapacityError(
            f"exact-tiny search refused: n={g.n} exceeds limit {EXACT_TINY_LIMIT}"
        )
    d, width = _exact_decomposition(g)
    d._width = (g, width)
    return d
