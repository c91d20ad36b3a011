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

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import CapacityError, InputError, StructuralError
from .graph import Graph


@dataclass(frozen=True)
class ClassPartition:
    """Equivalence classes of V_t by outside neighborhood.

    Classes are canonically ordered by their minimum vertex id so that the
    index of a class is a stable, hashable handle for downstream tables.
    """

    node: int
    classes: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.classes)

    def index_of(self, v: int) -> int:
        for i, cls in enumerate(self.classes):
            if v in cls:
                return i
        raise InputError(f"vertex {v} not in any class of node {self.node}")


@dataclass(frozen=True)
class NodeOperator:
    """Per-internal-node structure over the classes of children r and s.

    h_edges lists the (r-class, s-class) index pairs whose members are all
    pairwise adjacent in G; every other cross pair has no adjacency at all.
    bubble_r[i] (resp. bubble_s[j]) is the index of the parent class that
    r-class i (s-class j) is contained in.
    """

    h_edges: frozenset[tuple[int, int]]
    bubble_r: tuple[int, ...]
    bubble_s: tuple[int, ...]

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
    every internal node, and the module-width (the largest class count)."""

    operators: Mapping[int, NodeOperator]
    width: int


class RootedBranchDecomposition:
    """Rooted binary tree with a leaf <-> graph-vertex bijection.

    Nodes are dense ids 0..m-1.  Every node has exactly zero or two
    children; structural defects (a listed child count other than 0 or 2,
    cycles, unreachable nodes, repeated leaf vertices) are rejected at
    construction.  Checks that depend on the graph -- the leaf map being
    a bijection onto V(G) and operator consistency -- live in validate().
    """

    __slots__ = (
        "root",
        "_children",
        "_leaf_vertex",
        "_postorder",
        "_below",
        "_annotation",
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

        seen: set[int] = set()
        stack = [root]
        order: list[int] = []
        while stack:
            t = stack.pop()
            if t in seen:
                raise StructuralError(f"node {t}: not a tree (visited twice)")
            seen.add(t)
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
                stack.append(c)
        if len(seen) != m:
            missing = sorted(set(range(m)) - seen)
            raise StructuralError(f"nodes unreachable from root: {missing}")

        vertices = sorted(self._leaf_vertex.values())
        if len(set(vertices)) != len(vertices):
            raise StructuralError("leaf_map not bijective: repeated vertex")

        # Iterative postorder plus V_t for every node, computed once.
        post: list[int] = []
        below: dict[int, frozenset[int]] = {}
        stack2: list[tuple[int, bool]] = [(root, False)]
        while stack2:
            t, expanded = stack2.pop()
            kids = self._children[t]
            if kids is None:
                post.append(t)
                below[t] = frozenset({self._leaf_vertex[t]})
            elif expanded:
                post.append(t)
                below[t] = below[kids[0]] | below[kids[1]]
            else:
                stack2.append((t, True))
                stack2.append((kids[1], False))
                stack2.append((kids[0], False))
        self._postorder = tuple(post)
        self._below = below

    @property
    def node_count(self) -> int:
        return len(self._children)

    def nodes(self) -> range:
        return range(len(self._children))

    def is_leaf(self, t: int) -> bool:
        self._check_node(t)
        return self._children[t] is None

    def children(self, t: int) -> tuple[int, int]:
        self._check_node(t)
        kids = self._children[t]
        if kids is None:
            raise InputError(f"node {t} is a leaf")
        return kids

    def leaf_vertex(self, t: int) -> int:
        self._check_node(t)
        if self._children[t] is not None:
            raise InputError(f"node {t} is internal")
        return self._leaf_vertex[t]

    def leaves(self) -> tuple[int, ...]:
        return tuple(t for t in self._postorder if self._children[t] is None)

    def postorder(self) -> tuple[int, ...]:
        """All nodes, children before parents; the root is last."""
        return self._postorder

    def vertex_set(self, t: int) -> frozenset[int]:
        """V_t: the graph vertices on leaves below t."""
        self._check_node(t)
        return self._below[t]

    def _check_node(self, t: int) -> None:
        if not (0 <= t < len(self._children)):
            raise InputError(f"unknown decomposition node {t}")


def _partition_by_outside(g: Graph, vt: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    outside = frozenset(g.vertices()) - vt
    groups: dict[frozenset[int], list[int]] = {}
    for v in sorted(vt):
        groups.setdefault(g.neighbors(v) & outside, []).append(v)
    return tuple(sorted((tuple(m) for m in groups.values()), key=lambda c: c[0]))


def equivalence_classes(
    g: Graph, d: RootedBranchDecomposition, t: int
) -> ClassPartition:
    """Partition V_t by outside-neighborhood signature, canonically ordered."""
    vt = d.vertex_set(t)
    for v in vt:
        if not (0 <= v < g.n):
            raise StructuralError(f"leaf vertex {v} not in graph with n={g.n}")
    return ClassPartition(node=t, classes=_partition_by_outside(g, vt))


def _operator_from_partitions(
    g: Graph,
    cp_r: ClassPartition,
    cp_s: ClassPartition,
    cp_t: ClassPartition,
) -> NodeOperator:
    h_edges = set()
    for i, qr in enumerate(cp_r.classes):
        for j, qs in enumerate(cp_s.classes):
            adjacent = sum(1 for u in qr for v in qs if g.has_edge(u, v))
            if adjacent == len(qr) * len(qs):
                h_edges.add((i, j))
            elif adjacent != 0:
                # Impossible when classes come from the true equivalence
                # relation; reaching this means graph/decomposition mismatch.
                raise StructuralError(
                    f"node {cp_t.node}: classes {qr} and {qs} are partially adjacent"
                )

    def bubbles(cp_child: ClassPartition) -> tuple[int, ...]:
        out = []
        for cls in cp_child.classes:
            target = cp_t.index_of(cls[0])
            if not set(cls) <= set(cp_t.classes[target]):
                raise StructuralError(
                    f"node {cp_t.node}: child class {cls} straddles parent classes"
                )
            out.append(target)
        return tuple(out)

    return NodeOperator(
        h_edges=frozenset(h_edges),
        bubble_r=bubbles(cp_r),
        bubble_s=bubbles(cp_s),
    )


def _annotate(g: Graph, d: RootedBranchDecomposition) -> Annotation:
    """The operators and module-width of d over g; StructuralError if d is
    not a decomposition of g.

    One postorder pass computes each node's class partition once and builds
    each internal node's operator from its children's partitions.  Graphs
    and decompositions are immutable, so the result is cached on d for this
    graph object, matched by identity (d keeps g alive): validate,
    module_width, operator_of, the DP and every k probe share it.
    """
    cached = d._annotation
    if cached is not None and cached[0] is g:
        return cached[1]
    leaf_vertices = sorted(d.vertex_set(d.root))
    if leaf_vertices != list(range(g.n)):
        raise StructuralError(
            f"leaf_map not bijective: decomposition covers {leaf_vertices}, "
            f"graph has vertices 0..{g.n - 1}"
        )
    partitions: dict[int, ClassPartition] = {}
    operators: dict[int, NodeOperator] = {}
    for t in d.postorder():
        partitions[t] = equivalence_classes(g, d, t)
        if not d.is_leaf(t):
            r, s = d.children(t)
            operators[t] = _operator_from_partitions(
                g, partitions[r], partitions[s], partitions[t]
            )
    annotation = Annotation(operators, max(len(cp) for cp in partitions.values()))
    d._annotation = (g, annotation)
    return annotation


def operator_of(g: Graph, d: RootedBranchDecomposition, t: int) -> NodeOperator:
    """The operator of internal node t: h-edges plus both bubble maps."""
    if d.is_leaf(t):
        raise InputError(f"node {t} is a leaf")
    return _annotate(g, d).operators[t]


def validate(g: Graph, d: RootedBranchDecomposition) -> ValidationReport:
    """Check that d is a decomposition of g.

    Tree shape (binary, acyclic, injective leaf map) is enforced when the
    decomposition object is built, so this checks the graph-dependent parts:
    the leaf map must be a bijection onto V(g) and every internal node's
    inter-class adjacency must be all-or-nothing.
    """
    try:
        _annotate(g, d)
    except StructuralError as exc:
        return ValidationReport(False, (str(exc),))
    return ValidationReport(True)


def module_width(g: Graph, d: RootedBranchDecomposition) -> int:
    """max over nodes t of the class count of V_t."""
    return _annotate(g, d).width


def linear_decomposition(g: Graph, order: Sequence[int]) -> RootedBranchDecomposition:
    """Caterpillar decomposition whose leaves follow `order` along the spine."""
    if sorted(order) != list(range(g.n)):
        raise InputError(f"order {list(order)} is not a permutation of 0..{g.n - 1}")
    n = g.n
    if n == 0:
        raise InputError("cannot decompose the empty graph")
    if n == 1:
        return RootedBranchDecomposition([None], {0: order[0]}, root=0)
    # Leaves get ids 0..n-1 in spine order, internal nodes n..2n-2; the
    # internal node with id n+j-1 covers the prefix order[0..j].
    children: list[tuple[int, int] | None] = [None] * (2 * n - 1)
    leaf_vertex = {i: order[i] for i in range(n)}
    children[n] = (0, 1)
    for j in range(2, n):
        children[n + j - 1] = (n + j - 2, j)
    return RootedBranchDecomposition(children, leaf_vertex, root=2 * n - 2)


# --- decomposition search -------------------------------------------------

EXACT_TINY_LIMIT = 8


def _width_of_shape(shape, adj_masks: list[int], full_mask: int, cutoff: int) -> int:
    """Module-width of a nested-tuple tree shape, via bitmask class counting.

    Stops early (returning cutoff) as soon as the running maximum reaches
    cutoff, since such a shape cannot beat the best one found so far.
    """
    best = 1  # root and leaves always have one class

    def walk(node) -> int:
        nonlocal best
        if isinstance(node, int):
            return 1 << node
        mask = walk(node[0]) | walk(node[1])
        if best < cutoff:
            outside = full_mask & ~mask
            sigs = set()
            rest = mask
            while rest:
                v_bit = rest & -rest
                rest ^= v_bit
                sigs.add(adj_masks[v_bit.bit_length() - 1] & outside)
            if len(sigs) > best:
                best = len(sigs)
        return mask

    walk(shape)
    return best


def _all_shapes(n: int):
    """All rooted binary trees with leaves labeled 0..n-1, as nested tuples.

    Trees are grown by inserting leaf i into every subtree position of each
    tree on leaves 0..i-1, which enumerates each shape exactly once."""

    def insertions(tree, leaf):
        yield (tree, leaf)
        if not isinstance(tree, int):
            left, right = tree
            for mod in insertions(left, leaf):
                yield (mod, right)
            for mod in insertions(right, leaf):
                yield (left, mod)

    shapes = [0]
    for leaf in range(1, n):
        shapes = [t for s in shapes for t in insertions(s, leaf)]
    return shapes


def _shape_to_decomposition(shape, n: int) -> RootedBranchDecomposition:
    children: list[tuple[int, int] | None] = []
    leaf_vertex: dict[int, int] = {}

    def build(node) -> int:
        if isinstance(node, int):
            children.append(None)
            leaf_vertex[len(children) - 1] = node
            return len(children) - 1
        left = build(node[0])
        right = build(node[1])
        children.append((left, right))
        return len(children) - 1

    root = build(shape)
    return RootedBranchDecomposition(children, leaf_vertex, root=root)


def _greedy_order(g: Graph) -> list[int]:
    """Vertex order greedily minimizing the class count of each prefix."""
    adj_masks = [0] * g.n
    for u, v in g.edges():
        adj_masks[u] |= 1 << v
        adj_masks[v] |= 1 << u
    full_mask = (1 << g.n) - 1
    order: list[int] = []
    prefix_mask = 0
    remaining = set(g.vertices())
    while remaining:
        best_v, best_classes = -1, g.n + 1
        for v in sorted(remaining):
            mask = prefix_mask | (1 << v)
            outside = full_mask & ~mask
            sigs = {adj_masks[u] & outside for u in order}
            sigs.add(adj_masks[v] & outside)
            if len(sigs) < best_classes:
                best_v, best_classes = v, len(sigs)
        order.append(best_v)
        prefix_mask |= 1 << best_v
        remaining.discard(best_v)
    return order


def best_decomposition(g: Graph, effort: str = "heuristic") -> RootedBranchDecomposition:
    """Construct a decomposition of g.

    effort="exact-tiny" searches all rooted binary trees and leaf
    assignments (n <= 8 only) and returns one of minimum module-width;
    effort="heuristic" returns a linear decomposition under a greedy order.
    """
    if g.n == 0:
        raise InputError("cannot decompose the empty graph")
    if effort == "heuristic":
        return linear_decomposition(g, _greedy_order(g))
    if effort != "exact-tiny":
        raise InputError(f"unknown effort {effort!r}")
    if g.n > EXACT_TINY_LIMIT:
        raise CapacityError(
            f"exact-tiny search refused: n={g.n} exceeds limit {EXACT_TINY_LIMIT}"
        )
    adj_masks = [0] * g.n
    for u, v in g.edges():
        adj_masks[u] |= 1 << v
        adj_masks[v] |= 1 << u
    full_mask = (1 << g.n) - 1
    best_shape, best_width = None, g.n + 1
    for shape in _all_shapes(g.n):
        w = _width_of_shape(shape, adj_masks, full_mask, best_width)
        if w < best_width:
            best_shape, best_width = shape, w
            if best_width == 1:
                break
    return _shape_to_decomposition(best_shape, g.n)
