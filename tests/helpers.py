"""Shared test utilities: brute-force signature enumerators and graph makers.

The enumerators here are the independent oracles for the DP table semantics:
they enumerate partial (b-)colorings of G_t directly from the definitions,
never touching the solver's merge machinery.  The decomposition references
recompute the greedy order and the class partitions from scratch, the slow
way, as differential oracles for the incremental bitmask versions;
frontier_greedy_order is the greedy order by a full scan of the class
signatures at every step, a faster oracle for larger graphs.  The class-type functions they
use (type_of_class, is_valid_class and their fall-coloring twins) are the
paper's definitions, written out directly; the solver never calls them.
canonical_image applies the decision DP's dead-class rewrite to a table,
from its definition, for comparing the canonical tables with the others;
b_vertex_supply and unclaimed give its b-vertex supply count the same way,
and completion_test and completable its demand and supply rules, and
outside_masks, neighbors_listed and rule_facts the facts those rules
read, from equivalence_classes, adjacency and degrees.
Both read signatures as ClassType counts (type_counts).  merged,
compatible, merge_type, operator_of, all_types and nonempty_class_count
are test-side views of the solver's own merge, operators and colorings,
for the unit tests that pin them; reference_merge is the merge written
label by label, the oracle for the solver's mask merge, and
reference_leaf_join the one-step join that tries every taker and builds a
labeling for every parent signature, the oracle for the set of signatures
the solver's lean join makes.  mirrored swaps the children of every node
of a decomposition, and random_decomposition builds one of random shape
(random_shape, _shape_to_decomposition), whose joins may pair two subtrees.
reference_exact_decomposition is the exact-tiny search as it was before
it became a DP over vertex subsets: every rooted binary tree over V(g)
(all_shapes), each measured by width_of_shape, the first of least width
kept; the oracle for the DP's width.
chosen_signatures and reference_realize are witness replay as it was
before it became one pass down the tree: each node's signature chosen
top-down from the stored pairs, then a bottom-up pass that builds every
class's vertex set at every node and pairs off child classes along each
labeling, the oracle for the solver's top-down _realize.
reference_cover_guesses, reference_try_guess and reference_vc_solve are the
vertex-cover solver's guess loop as it was before it computed each cover
coloring's facts once and omitted doomed guesses: every distinctly colored
cover subset on every cover coloring, each extended anew, the needs with
at most k^2-k candidates by the exact search reference_extension_search
and the larger ones greedily after it.  They are the oracle for its
answers, witnesses and omissions.  reference_vertex_cover_within and
reference_min_vertex_cover are the cover search as it was before the
branch-and-bound: a recursive search with no bound, rerun at every size
limit from 0; reference_vc_solve takes its cover from them.
reference_proper_cover_colorings is the cover coloring enumeration as a
recursive generator, one level per cover vertex, the oracle for the
solver's explicit-stack one.  unfiltered_cover_guesses and
unfiltered_vc_solve are the solver's guess loop as it was before it
omitted guesses with two nested b-vertex neighborhoods: the oracle that
the omission changes no witness.  unpruned_cover_guesses is the guess
enumeration as it was before cover colorings and b-vertex subsets that
cannot be admitted were pruned in the generators: every coloring, its
facts built per vertex as reference_cover_coloring does, and every subset
filtered by the admission test.
reference_graph and reference_parse_graph_text are Graph's construction
checks and the DIMACS parser as they were before each became one pass,
the oracle for their graphs and their error messages; graph_structure
and outcome put a result or a refusal in a form both sides share.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Iterable

from bcoloring.bcol_dp import (
    CONTAINS,
    DEMAND,
    NONE,
    ClassType,
    DPTable,
    Signature,
    _combine_pair,
    build_merge_skeleton,
    decode,
    encode,
    signature,
    type_counts,
)
from bcoloring.decomposition import (
    NEIGHBOR_SCAN_LIMIT,
    NodeOperator,
    RootedBranchDecomposition,
    _annotate,
    _bits,
    equivalence_classes,
)
from bcoloring.errors import CapacityError, InputError, StructuralError
from bcoloring.graph import Coloring, Graph
from bcoloring.oracle import is_b_coloring
from bcoloring import vc_solver

# (b-vertex, missing color) -> the outside vertices that could take that
# color, for the reference extension search.
NeedSet = dict[tuple[int, int], frozenset[int]]


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def ladder(m: int) -> Graph:
    """Two m-vertex rails, numbered rail by rail, and m rungs."""
    rails = [(i, i + 1) for i in range(m - 1)] + [(m + i, m + i + 1) for i in range(m - 1)]
    return Graph(2 * m, rails + [(i, m + i) for i in range(m)])


def caterpillar(spine: int) -> Graph:
    """A spine path with one pendant leg per spine vertex."""
    legs = [(i, spine + i) for i in range(spine)]
    return Graph(2 * spine, [(i, i + 1) for i in range(spine - 1)] + legs)


def span_tree(n: int, rng: random.Random) -> Graph:
    """A random tree where vertex i hangs from one of the two vertices
    before it."""
    return Graph(n, [(rng.randint(max(0, i - 2), i - 1), i) for i in range(1, n)])


def relabeled(g: Graph, perm: list[int]) -> Graph:
    """g with vertex v renamed to perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def mirrored(d: RootedBranchDecomposition) -> RootedBranchDecomposition:
    """d with the two children of every internal node swapped: on a
    caterpillar, the leaves move to the r side."""
    children = [
        None if d.is_leaf(t) else d.children(t)[::-1] for t in range(d.node_count)
    ]
    leaves = {t: d.leaf_vertex(t) for t in d.leaves()}
    return RootedBranchDecomposition(children, leaves, root=d.root)


def random_shape(rng: random.Random, vertices: list[int]):
    """A random rooted binary tree over the given leaves, as nested tuples."""
    if len(vertices) == 1:
        return vertices[0]
    cut = rng.randint(1, len(vertices) - 1)
    return (random_shape(rng, vertices[:cut]), random_shape(rng, vertices[cut:]))


def random_decomposition(g: Graph, rng: random.Random) -> RootedBranchDecomposition:
    """A decomposition of g of random shape over its shuffled vertices: a
    join's children may be two subtrees, and a leaf child sits on either
    side."""
    vertices = list(g.vertices())
    rng.shuffle(vertices)
    return _shape_to_decomposition(random_shape(rng, vertices))


def _shape_to_decomposition(shape) -> RootedBranchDecomposition:
    """The decomposition of a nested-tuple tree shape whose leaves are
    vertex ids."""
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


def reference_walk(d: RootedBranchDecomposition) -> tuple[list[int], dict[int, int]]:
    """The postorder and every node's V_t as a bitmask, by a two-phase
    (node, expanded) stack walk: a node is listed, and its mask is the
    union of its children's, once both children are done."""
    post: list[int] = []
    below: dict[int, int] = {}
    stack = [(d.root, False)]
    while stack:
        t, expanded = stack.pop()
        if d.is_leaf(t):
            post.append(t)
            below[t] = 1 << d.leaf_vertex(t)
        elif expanded:
            r, s = d.children(t)
            post.append(t)
            below[t] = below[r] | below[s]
        else:
            r, s = d.children(t)
            stack += [(t, True), (s, False), (r, False)]
    return post, below


# --- witness replay, as it was -------------------------------------------


def chosen_signatures(
    table: DPTable, d: RootedBranchDecomposition, accepting: Signature
) -> dict[int, Signature]:
    """Each node's signature in the replay of accepting: the root's is
    accepting, and each internal node's stored pair gives its children's."""
    chosen = {d.root: accepting}
    for t in reversed(d.postorder()):
        if not d.is_leaf(t):
            r, s = d.children(t)
            chosen[r], chosen[s] = table.tables[t][chosen[t]]
    return chosen


def reference_realize(
    table: DPTable, d: RootedBranchDecomposition, accepting: Signature
) -> tuple[Coloring, frozenset[int]]:
    """Replay accepting bottom-up into concrete classes, the oracle for
    bcol_dp._realize: a leaf pools its vertex's class and k-1 empty ones by
    type, and an internal node rebuilds a labeling of its stored pair that
    makes its chosen signature, pops one class of each child type along
    each labeling edge and pools their union under the merge type.  Returns
    the coloring, its classes numbered by smallest vertex, and the
    b-vertices."""
    if accepting not in table.tables[d.root]:
        raise InputError("accepting signature not achievable; no witness exists")
    chosen = chosen_signatures(table, d, accepting)
    realized: dict[int, tuple] = {}  # node -> (classes by type, b-vertices)
    for t in d.postorder():
        if d.is_leaf(t):
            v = d.leaf_vertex(t)
            pool = {
                tau: [frozenset({v} if decode(tau, 1).cdesc == (CONTAINS,) else ())]
                * count
                for tau, count in chosen[t]
            }
            b_vertex = encode(ClassType((CONTAINS,), 1), 1) in pool
            realized[t] = (pool, frozenset({v} if b_vertex else ()))
            continue
        (pool_r, b_r), (pool_s, b_s) = (realized[c] for c in d.children(t))
        sig_r, sig_s = table.tables[t][chosen[t]]
        labeling = _combine_pair(sig_r, sig_s, table.skeletons[t].rows, None, chosen[t])
        if labeling is None:
            raise StructuralError("witness replay: a stored pair misses its signature")
        pool: dict = {}
        for (rho, sigma, tau), x in labeling:
            for _ in range(x):
                union = pool_r[rho].pop() | pool_s[sigma].pop()
                pool.setdefault(tau, []).append(union)
        if any(pool_r.values()) or any(pool_s.values()):
            raise StructuralError("witness replay left unmatched color classes")
        realized[t] = (pool, b_r | b_s)
    pool, b = realized[d.root]
    classes = sorted((cls for group in pool.values() for cls in group), key=min)
    color = {v: i for i, cls in enumerate(classes, start=1) for v in cls}
    return Coloring(tuple(color[v] for v in range(len(color))), len(classes)), b


# --- views of the solver's type algebra, operators and colorings ---------


def merged(rho: ClassType, sigma: ClassType, op: NodeOperator) -> ClassType | None:
    """The solver's merge of one pair of child types: the parent type, or
    None if they may not merge.  Types are encoded against the operator's
    class counts, which raises InputError on a width mismatch."""
    skel = build_merge_skeleton(
        op, [encode(rho, len(op.bubble_r))], [encode(sigma, len(op.bubble_s))]
    )
    if not skel.edges:
        return None
    return decode(skel.edges[0][2], op.parent_class_count)


def compatible(rho: ClassType, sigma: ClassType, op: NodeOperator) -> bool:
    """Whether color classes of these child types may merge at this node."""
    return merged(rho, sigma, op) is not None


def merge_type(rho: ClassType, sigma: ClassType, op: NodeOperator) -> ClassType:
    """The parent type of the union of two compatible child classes."""
    tau = merged(rho, sigma, op)
    if tau is None:
        raise InputError("merge_type requires a compatible pair of types")
    return tau


def reference_merge(
    rho: ClassType, sigma: ClassType, op: NodeOperator, dead: int | None = None
) -> ClassType | None:
    """The merge of two child types, label by label from the rule, as a
    differential oracle for the solver's mask merge: the parent type, or
    None if they may not merge.

    Two CONTAINS bubbles joined by an h-edge would put adjacent vertices in
    one class, and two b-vertices cannot share a class.  A DEMAND bubble is
    fulfilled here by an h-neighbor labeled CONTAINS on the other side;
    otherwise it stays open in its parent class, which then must not get a
    CONTAINS bubble.  With dead set to the parent's dead class, the type is
    canonical there: a DEMAND on it gives None, a CONTAINS becomes NONE.
    """
    desc_r, desc_s = rho.cdesc, sigma.cdesc
    if len(desc_r) != len(op.bubble_r) or len(desc_s) != len(op.bubble_s):
        raise InputError("type width does not match operator class counts")
    if rho.bvtx + sigma.bvtx > 1:
        return None
    met_r, met_s = set(), set()
    for i, j in op.h_edges:
        if desc_r[i] == CONTAINS and desc_s[j] == CONTAINS:
            return None
        if desc_s[j] == CONTAINS:
            met_r.add(i)
        if desc_r[i] == CONTAINS:
            met_s.add(j)
    nq = op.parent_class_count
    contains_in = [False] * nq
    open_demand_in = [False] * nq
    for desc, bubble, met in (
        (desc_r, op.bubble_r, met_r),
        (desc_s, op.bubble_s, met_s),
    ):
        for i, q in enumerate(bubble):
            if desc[i] == CONTAINS:
                contains_in[q] = True
            elif desc[i] == DEMAND and i not in met:
                open_demand_in[q] = True
    if any(c and o for c, o in zip(contains_in, open_demand_in)):
        return None
    if dead is not None:
        if open_demand_in[dead]:
            return None
        contains_in[dead] = False
    cdesc = tuple(
        CONTAINS if contains_in[q] else (DEMAND if open_demand_in[q] else NONE)
        for q in range(nq)
    )
    return ClassType(cdesc, rho.bvtx + sigma.bvtx)


def reference_leaf_join(sig_r: Signature, sig_s: Signature, adj: dict) -> dict:
    """The eager one-step join of a pair with a leaf-shaped side, as a
    differential oracle for the solver's lean _leaf_join and its replay:
    each parent signature mapped to (sig_r, sig_s, labeling), a labeling of
    the pair that makes it, written as _combine_pair writes one: ((r-type,
    s-type, merge type), x) steps.  adj is a skeleton's rows: each r-type's
    (s-type, merge type) edges.  The s side is the leaf when both sides are
    leaf-shaped; a pair with neither gives {}.

    Every labeling puts the leaf's one class with a class of the other
    side, the taker, and every other class there with a zero class.  Each
    type of the other side is tried as the taker.
    """

    def split_of(sig):
        if len(sig) == 1 and sig[0][1] == 1:
            return sig[0][0], None
        if len(sig) == 2:
            (a, ca), (b, cb) = sig
            if ca == 1:
                return a, b
            if cb == 1:
                return b, a
        return None

    leaf_is_s = split_of(sig_s) is not None
    split = split_of(sig_s) if leaf_is_s else split_of(sig_r)
    if split is None:
        return {}
    one, zero = split
    other = sig_r if leaf_is_s else sig_s

    def edge(p, q):
        """The skeleton edge between other-side type p and leaf type q, or
        None."""
        rho, sigma = (p, q) if leaf_is_s else (q, p)
        tau = dict(adj.get(rho, ())).get(sigma)
        return None if tau is None else (rho, sigma, tau)

    out: dict = {}
    for taker, _ in other:
        take = edge(taker, one)
        if take is None:
            continue
        labeling = [(take, 1)]
        for p, c in other:
            rest = c - (p == taker)
            if not rest:
                continue
            step = edge(p, zero)
            if step is None:
                break
            labeling.append((step, rest))
        else:
            counts: dict = {}
            for (_, _, tau), x in labeling:
                counts[tau] = counts.get(tau, 0) + x
            out.setdefault(tuple(sorted(counts.items())), (sig_r, sig_s, tuple(labeling)))
    return out


def all_types(class_count: int) -> list[ClassType]:
    """Every possible type over class_count classes (2 * 3**class_count)."""
    return [
        ClassType(desc, b)
        for desc in itertools.product((NONE, CONTAINS, DEMAND), repeat=class_count)
        for b in (0, 1)
    ]


def operator_of(g: Graph, d: RootedBranchDecomposition, t: int) -> NodeOperator:
    """The operator of internal node t: h-edges plus both bubble maps."""
    if d.is_leaf(t):
        raise InputError(f"node {t} is a leaf")
    return _annotate(g, d).operators[t]


def nonempty_class_count(coloring: Coloring) -> int:
    return len(set(coloring.colors))


# --- definitional types of concrete color classes -----------------------


def type_of_class(
    g: Graph,
    d: RootedBranchDecomposition,
    t: int,
    class_vertices: Iterable[int],
    b_vertices: Iterable[int],
) -> ClassType:
    """The type of color class C at node t, given the partial b-vertex set B
    of the surrounding partial b-coloring.

    Per equivalence class Q of V_t: CONTAINS if C meets Q; DEMAND if C
    misses Q but some partial b-vertex in Q has no neighbor in C within
    G_t; NONE otherwise.
    """
    cset = frozenset(class_vertices)
    bset = frozenset(b_vertices)
    vt = d.vertex_set(t)
    if not cset <= vt:
        raise InputError(f"class vertices {sorted(cset - vt)} outside V_t")
    if not bset <= vt:
        raise InputError(f"b-vertices {sorted(bset - vt)} outside V_t")
    for u in cset:
        if g.neighbors(u) & cset:
            raise InputError("class is not independent")
    cp = equivalence_classes(g, d, t)
    cdesc = []
    for cls in cp.classes:
        if cset & frozenset(cls):
            cdesc.append(CONTAINS)
        elif any(
            v in bset and not (g.neighbors(v) & vt & cset) for v in cls
        ):
            cdesc.append(DEMAND)
        else:
            cdesc.append(NONE)
    return ClassType(tuple(cdesc), 1 if bset & cset else 0)


def is_valid_class(
    g: Graph,
    d: RootedBranchDecomposition,
    t: int,
    class_vertices: Iterable[int],
    b_vertices: Iterable[int],
) -> bool:
    """False iff some equivalence class both meets C and holds a partial
    b-vertex with no closed-neighborhood contact with C in G_t."""
    cset = frozenset(class_vertices)
    bset = frozenset(b_vertices)
    vt = d.vertex_set(t)
    cp = equivalence_classes(g, d, t)
    for cls in cp.classes:
        if not cset & frozenset(cls):
            continue
        for v in cls:
            if v in bset and not ((g.neighbors(v) & vt) | {v}) & cset:
                return False
    return True


def fall_type_of_class(
    g: Graph,
    d: RootedBranchDecomposition,
    t: int,
    class_vertices: Iterable[int],
    coloring: dict[int, int],
) -> ClassType:
    """The fall-type of color class C inside a proper total coloring of V_t.

    Per equivalence class Q: CONTAINS if C meets Q; DEMAND if C misses Q and
    some differently-colored vertex of Q has no neighbor in C within G_t;
    NONE otherwise.
    """
    vt = d.vertex_set(t)
    cset = frozenset(class_vertices)
    if not cset <= vt:
        raise InputError(f"class vertices {sorted(cset - vt)} outside V_t")
    if set(coloring) != set(vt):
        raise InputError("coloring must be total on V_t")
    for u in vt:
        for w in g.neighbors(u) & vt:
            if coloring[u] == coloring[w]:
                raise InputError("coloring is not proper on G_t")
    cp = equivalence_classes(g, d, t)
    cdesc = []
    for cls in cp.classes:
        if cset & frozenset(cls):
            cdesc.append(CONTAINS)
        elif any(not (g.neighbors(v) & vt & cset) for v in cls):
            # every v here has another color, since C misses Q entirely
            cdesc.append(DEMAND)
        else:
            cdesc.append(NONE)
    return ClassType(tuple(cdesc), 0)


def fall_class_is_valid(
    g: Graph,
    d: RootedBranchDecomposition,
    t: int,
    class_vertices: Iterable[int],
) -> bool:
    """False iff some equivalence class both meets C and contains a
    differently-colored vertex with no neighbor in C within G_t."""
    vt = d.vertex_set(t)
    cset = frozenset(class_vertices)
    cp = equivalence_classes(g, d, t)
    for cls in cp.classes:
        if not cset & frozenset(cls):
            continue
        for v in cls:
            if v not in cset and not (g.neighbors(v) & vt & cset):
                return False
    return True


def enumerate_bcol_signatures(g, d, t, k) -> set[Signature]:
    """All signatures of valid partial b-colorings of G_t, by brute force."""
    vt = sorted(d.vertex_set(t))
    out: set[Signature] = set()
    for assignment in itertools.product(range(1, k + 1), repeat=len(vt)):
        coloring = dict(zip(vt, assignment))
        if _improper(g, vt, coloring):
            continue
        classes = [
            frozenset(v for v in vt if coloring[v] == i) for i in range(1, k + 1)
        ]
        for picks in itertools.product(*[[None] + sorted(cls) for cls in classes]):
            bset = frozenset(p for p in picks if p is not None)
            if not all(is_valid_class(g, d, t, cls, bset) for cls in classes):
                continue
            counts: dict = {}
            for cls in classes:
                tau = type_of_class(g, d, t, cls, bset)
                counts[tau] = counts.get(tau, 0) + 1
            out.add(signature(counts, k))
    return out


def enumerate_fall_signatures(g, d, t, k) -> set[Signature]:
    """All signatures of valid partial colorings of G_t, fall style."""
    vt = sorted(d.vertex_set(t))
    out: set[Signature] = set()
    for assignment in itertools.product(range(1, k + 1), repeat=len(vt)):
        coloring = dict(zip(vt, assignment))
        if _improper(g, vt, coloring):
            continue
        classes = [
            frozenset(v for v in vt if coloring[v] == i) for i in range(1, k + 1)
        ]
        if not all(fall_class_is_valid(g, d, t, cls) for cls in classes):
            continue
        counts: dict = {}
        for cls in classes:
            tau = fall_type_of_class(g, d, t, cls, coloring)
            counts[tau] = counts.get(tau, 0) + 1
        out.add(signature(counts, k))
    return out


def canonical_image(table: Iterable[Signature], op: NodeOperator) -> set[Signature]:
    """The signatures of a table at the parent of op made canonical at its
    dead class, from the definition: drop a signature with a DEMAND there,
    rewrite CONTAINS there to NONE, and add up the counts of types that
    become equal."""
    out: set[Signature] = set()
    for sig in table:
        counts: dict = {}
        for tau, c in type_counts(sig, op.parent_class_count).items():
            label = NONE if op.dead is None else tau.cdesc[op.dead]
            if label == DEMAND:
                break
            if label == CONTAINS:
                desc = list(tau.cdesc)
                desc[op.dead] = NONE
                tau = ClassType(tuple(desc), tau.bvtx)
            counts[tau] = counts.get(tau, 0) + c
        else:
            out.add(signature(counts, sum(c for _, c in sig)))
    return out


def b_vertex_supply(g: Graph, d: RootedBranchDecomposition, t: int, k: int) -> int:
    """The number of vertices outside V_t of degree at least k-1: those that
    may still become b-vertices of the classes of G_t that lack one."""
    vt = d.vertex_set(t)
    return sum(1 for v in g.vertices() if v not in vt and g.degree(v) >= k - 1)


def unclaimed(sig: Signature, width: int) -> int:
    """The number of classes of sig, a signature at a node with width
    classes, whose b-vertex bit is 0."""
    return sum(c for tau, c in type_counts(sig, width).items() if not tau.bvtx)


def completion_test(
    g: Graph, d: RootedBranchDecomposition, t: int, k: int, b_vertices: bool
):
    """The decision DP's demand and supply rules at internal node t, from
    the definitions: a predicate that is False for a type no completion
    of G_t can satisfy.  With O_q the neighbors outside V_t of class q
    and U the union of O_q over the type's CONTAINS classes, a DEMAND on a
    class q with O_q inside U can never be met, and, when b_vertices (the
    root's classes hold b-vertices), a type without the bit can never get
    its b-vertex when every vertex outside V_t of degree at least k-1
    lies in U."""
    vt = d.vertex_set(t)
    classes = equivalence_classes(g, d, t).classes
    outside = [set(g.neighbors(cls[0])) - vt for cls in classes]
    claimers = {w for w in g.vertices() if w not in vt and g.degree(w) >= k - 1}

    def completable_type(tau: ClassType) -> bool:
        touched = set()
        for q, label in enumerate(tau.cdesc):
            if label == CONTAINS:
                touched |= outside[q]
        for q, label in enumerate(tau.cdesc):
            if label == DEMAND and outside[q] <= touched:
                return False
        return not (b_vertices and not tau.bvtx and claimers <= touched)

    return completable_type


def outside_masks(g: Graph, d: RootedBranchDecomposition, t: int) -> dict[int, int]:
    """Each vertex w outside V_t adjacent to a class of internal node t,
    mapped to the mask of the classes q with w in O_q, from
    equivalence_classes."""
    vt = d.vertex_set(t)
    masks: dict[int, int] = {}
    for q, cls in enumerate(equivalence_classes(g, d, t).classes):
        for w in g.neighbors(cls[0]) - vt:
            masks[w] = masks.get(w, 0) | 1 << q
    return masks


def neighbors_listed(g: Graph, d: RootedBranchDecomposition, t: int) -> bool:
    """Whether the decision DP lists the outside neighbors of internal node
    t: at t and at every ancestor, the smallest members of the classes
    with outside neighbors have at most NEIGHBOR_SCAN_LIMIT neighbors in
    all."""
    parent = {c: u for u in d.postorder() if not d.is_leaf(u) for c in d.children(u)}
    while True:
        vt = d.vertex_set(t)
        classes = equivalence_classes(g, d, t).classes
        scanned = sum(g.degree(cls[0]) for cls in classes if g.neighbors(cls[0]) - vt)
        if scanned > NEIGHBOR_SCAN_LIMIT:
            return False
        if t == d.root:
            return True
        t = parent[t]


def rule_facts(
    g: Graph, d: RootedBranchDecomposition, t: int, k: int, b_vertices: bool
) -> tuple:
    """The facts the decision DP's rules read at internal node t, as
    build_merge_skeleton takes them, from the definitions: (overlaps,
    suppliers), with outside_masks, both None where the node's neighbors
    are not listed (neighbors_listed).  overlaps is the distinct masks,
    sorted, when some mask has two classes, else None.  suppliers, only
    when b_vertices, is the distinct masks of the vertices outside V_t of
    degree at least k-1, sorted, or None when one of them lies in no
    O_q."""
    if not neighbors_listed(g, d, t):
        return None, None
    vt = d.vertex_set(t)
    masks = outside_masks(g, d, t)
    overlaps = None
    if any(mask & (mask - 1) for mask in masks.values()):
        overlaps = tuple(sorted(set(masks.values())))
    suppliers = None
    claimers = [w for w in g.vertices() if w not in vt and g.degree(w) >= k - 1]
    if b_vertices and all(w in masks for w in claimers):
        suppliers = tuple(sorted({masks[w] for w in claimers}))
    return overlaps, suppliers


def completable(
    table: Iterable[Signature],
    g: Graph,
    d: RootedBranchDecomposition,
    t: int,
    k: int,
    b_vertices: bool,
) -> list[Signature]:
    """The signatures of table at internal node t, in order, whose every
    type passes completion_test."""
    test = completion_test(g, d, t, k, b_vertices)
    width = len(equivalence_classes(g, d, t))
    return [sig for sig in table if all(map(test, type_counts(sig, width)))]


def _improper(g, vt, coloring) -> bool:
    return any(
        coloring[u] == coloring[w]
        for u in vt
        for w in g.neighbors(u)
        if w in coloring and u < w
    )


# --- decomposition references ---------------------------------------------


def reference_greedy_order(g: Graph) -> list[int]:
    """The greedy vertex order, recomputing for every candidate the
    outside neighborhood of every prefix vertex (cubic in n)."""
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


def frontier_greedy_order(g: Graph) -> list[int]:
    """The greedy vertex order, ties to the smallest vertex, by a scan of
    all the prefix's class signatures at every step: the search
    decomposition._greedy_order ran before it indexed the signatures by
    vertex, kept as its oracle at sizes where reference_greedy_order is too
    slow.

    sigs holds the prefix's class signatures (neighborhoods outside it) and
    own[v] = masks[v] & outside for every remaining v.  Adding candidate v
    clears bit v in every signature, and two signatures merge only if they
    are s and s ^ bit(v) with bit v set in s, so the class count after v is

        |sigs| - merges[v] + [own[v] not in sigs and own[v] | bit(v) not in sigs]

    where merges[v] counts the signatures s of sigs with bit v set and
    s ^ bit(v) in sigs; one pass over the set bits of sigs gives merges for
    every v.  A candidate outside the frontier (the union of sigs) has no
    merges and no own[v] | bit(v) in sigs: its count is |sigs| if own[v] is
    in sigs and |sigs| + 1 otherwise.  No count exceeds |sigs| + 1.  So the
    winner is the least (count, vertex) over the frontier, the smallest
    remaining vertex of each bucket own = s for s in sigs (the others of a
    bucket outside the frontier tie with it at |sigs|, and it has count at
    most |sigs|), and the smallest remaining vertex (every candidate not
    yet named counts |sigs| + 1, at least as much as it).

    Choosing u changes own only at u's remaining neighbors, each of which
    moves to the bucket of a strictly smaller mask and so never returns to
    an old one; each bucket is a lazy min-heap whose stale entries are
    dropped when met.  A step costs O(classes + set bits of sigs + deg(u))
    up to heap logarithms, not O(n * classes).
    """
    masks = g.adjacency_masks()
    own = list(masks)
    buckets: dict[int, list[int]] = {}
    for v in g.vertices():  # increasing, so every bucket starts as a heap
        buckets.setdefault(own[v], []).append(v)
    left = (1 << g.n) - 1
    sigs: set[int] = set()
    order: list[int] = []
    low = 0
    for _ in range(g.n):
        while not left >> low & 1:
            low += 1
        merges: dict[int, int] = {}
        frontier = 0
        for s in sigs:
            frontier |= s
            for v in _bits(s):
                if s ^ (1 << v) in sigs:
                    merges[v] = merges.get(v, 0) + 1
        candidates = set(_bits(frontier))
        candidates.add(low)
        for s in sigs:
            heap = buckets.get(s)
            while heap and (not left >> heap[0] & 1 or own[heap[0]] != s):
                heapq.heappop(heap)
            if heap:
                candidates.add(heap[0])
        best = None
        for v in candidates:
            o = own[v]
            fresh = o not in sigs and o | 1 << v not in sigs
            key = (len(sigs) - merges.get(v, 0) + fresh, v)
            if best is None or key < best:
                best = key
        u = best[1]
        order.append(u)
        bit = 1 << u
        left ^= bit
        sigs = {s & ~bit for s in sigs}
        sigs.add(own[u])
        for w in _bits(masks[u] & left):
            own[w] ^= bit
            heapq.heappush(buckets.setdefault(own[w], []), w)
    return order


def width_of_shape(shape, adj_masks, full_mask: int, cutoff: int) -> int:
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
            sigs = {adj_masks[v] & outside for v in _bits(mask)}
            if len(sigs) > best:
                best = len(sigs)
        return mask

    walk(shape)
    return best


def all_shapes(n: int):
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


def reference_exact_decomposition(
    g: Graph, shapes=None
) -> tuple[RootedBranchDecomposition, int]:
    """The first tree of minimum module-width among all_shapes(g.n), and
    that width: every rooted binary tree over V(g) is tried.  shapes, if
    given, is all_shapes(g.n) computed once by the caller."""
    masks = g.adjacency_masks()
    full_mask = (1 << g.n) - 1
    best_shape, best_width = None, g.n + 1
    for shape in all_shapes(g.n) if shapes is None else shapes:
        w = width_of_shape(shape, masks, full_mask, best_width)
        if w < best_width:
            best_shape, best_width = shape, w
            if best_width == 1:
                break
    return _shape_to_decomposition(best_shape), best_width


def reference_partition(g: Graph, vt: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """V_t grouped by neighborhood outside V_t, from frozensets, ordered by
    minimum vertex."""
    outside = frozenset(g.vertices()) - vt
    groups: dict[frozenset[int], list[int]] = {}
    for v in sorted(vt):
        groups.setdefault(g.neighbors(v) & outside, []).append(v)
    return tuple(sorted((tuple(m) for m in groups.values()), key=lambda c: c[0]))


def atlas_connected_corpus(max_n: int = 6) -> list[Graph]:
    """All connected graphs with 1 <= n <= max_n, up to isomorphism."""
    import networkx as nx

    corpus = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if 1 <= n <= max_n and nx.is_connected(G):
            corpus.append(Graph(n, list(G.edges())))
    return corpus


# --- graph file and construction references ----------------------------------


def reference_graph(n: int, edges) -> tuple:
    """Graph(n, edges)'s checks and structure as they were before its
    construction became one pass: (n, adjacency sets, masks, sorted edges),
    or the InputError for the first offending edge in input order."""
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise InputError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        adj[u].add(v)
        adj[v].add(u)
    masks = tuple(sum(1 << u for u in s) for s in adj)
    return n, tuple(frozenset(s) for s in adj), masks, tuple(sorted(seen))


def graph_structure(g: Graph) -> tuple:
    """g as reference_graph describes a graph."""
    return g.n, tuple(map(g.neighbors, g.vertices())), g.adjacency_masks(), g.edges()


def reference_parse_graph_text(text: str, max_vertices: int) -> tuple:
    """cli.parse_graph_text as it was before it became one loop: each line
    through a record generator and a field parser, the graph checked by
    reference_graph.  Returns reference_graph's tuple, or raises the
    parser's InputError or CapacityError."""

    def records(lines):
        for lineno, line in enumerate(lines, start=1):
            parts = line.split()
            if parts and parts[0][0] != "c":
                yield lineno, line, parts

    def bad_line(record, what):
        lineno, line, _ = record
        return InputError(f"line {lineno}: {what} line {line.strip()!r}")

    def ints(record, kind, fields, count):
        if len(fields) == count:
            try:
                return [*map(int, fields)]
            except ValueError:
                pass
        raise bad_line(record, f"malformed {kind}")

    n = m = problem_line = None
    edges: dict[tuple[int, int], tuple[int, int]] = {}
    for record in records(text.splitlines()):
        lineno, _, parts = record
        if parts[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge line before problem line")
            u, v = ints(record, "edge", parts[1:], 2)
            if not (0 < u <= n and 0 < v <= n):
                raise InputError(f"line {lineno}: vertex out of range 1..{n}")
            if u == v:
                raise InputError(f"line {lineno}: self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in edges:
                raise InputError(f"line {lineno}: duplicate edge")
            edges[key] = (u - 1, v - 1)
        elif parts[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate problem line")
            if parts[1:2] != ["edge"]:
                raise bad_line(record, "malformed problem")
            n, m = ints(record, "problem", parts[2:], 2)
            if n < 0:
                raise InputError(f"line {lineno}: negative vertex count")
            if n > max_vertices:
                raise CapacityError(
                    f"line {lineno}: {n} vertices, above the limit of {max_vertices}"
                )
            problem_line = lineno
        else:
            raise bad_line(record, "unrecognized")
    if n is None:
        raise InputError("missing problem line")
    if m != len(edges):
        raise InputError(
            f"line {problem_line}: problem line declares {m} edges, "
            f"but {len(edges)} edge lines follow"
        )
    return reference_graph(n, edges.values())


def outcome(parse, *args) -> tuple:
    """("ok", what parse returned) or ("raised", its exception type and
    message), for comparing a function with its reference."""
    try:
        return "ok", parse(*args)
    except (InputError, CapacityError) as exc:
        return "raised", type(exc), str(exc)


# --- vertex-cover solver reference -----------------------------------------


def reference_vertex_cover_within(g: Graph, limit: int) -> frozenset[int] | None:
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


def reference_min_vertex_cover(g: Graph) -> frozenset[int]:
    """A minimum vertex cover: the first size budget that admits one."""
    for size in range(g.n + 1):
        found = reference_vertex_cover_within(g, size)
        if found is not None:
            return found
    return frozenset(range(g.n))


def reference_proper_cover_colorings(g: Graph, cover: list[int], k: int):
    """The proper colorings of G[cover] with colors 1..k, one per renaming
    of colors, lexicographically: each vertex takes a color already used
    or the smallest unused one.  A recursive generator, one level per
    cover vertex."""
    assignment: dict[int, int] = {}

    def extend(i: int, max_used: int):
        if i == len(cover):
            yield dict(assignment)
            return
        v = cover[i]
        forbidden = {assignment[u] for u in g.neighbors(v) if u in assignment}
        for color in range(1, min(k, max_used + 1) + 1):
            if color in forbidden:
                continue
            assignment[v] = color
            yield from extend(i + 1, max(max_used, color))
            del assignment[v]

    yield from extend(0, 0)


def reference_b_vertex_guesses(cover: list[int], phi: dict[int, int]):
    """Subsets of the cover with pairwise distinct colors, the empty one
    first."""
    m = len(cover)
    for mask in range(1 << m):
        chosen = [cover[i] for i in range(m) if mask >> i & 1]
        colors = {phi[v] for v in chosen}
        if len(colors) == len(chosen):
            yield frozenset(chosen)


def reference_cover_guesses(g: Graph, cover: frozenset[int], k: int):
    """All (phi, b-vertex subset) guesses, phi a proper coloring of the
    cover up to renaming as a vertex -> color dict, in a fixed order."""
    cover_list = sorted(cover)
    for phi in reference_proper_cover_colorings(g, cover_list, k):
        for b_guess in reference_b_vertex_guesses(cover_list, phi):
            yield phi, b_guess


def reference_extension_search(
    g: Graph, needs: NeedSet, k: int
) -> dict[int, int] | None:
    """A proper extension satisfying every need, coloring at most one vertex
    per need, or None: a fixed-order backtracking search over the needs in
    key order, each need taking the first candidate that works.  A need is
    also satisfied when an earlier assignment put its color on another
    neighbor of its b-vertex."""
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


def reference_try_guess(
    g: Graph,
    cover_set: frozenset[int],
    phi: dict[int, int],
    b_guess: frozenset[int],
    k: int,
) -> tuple[Coloring, frozenset[int]] | None:
    """Extend one cover guess to a full b-coloring, or show it cannot be,
    rebuilding every fact of the cover coloring phi for the guess."""
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
    ext = reference_extension_search(g, small, k)
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


def reference_vc_solve(g: Graph, k: int) -> tuple[Coloring, frozenset[int]] | None:
    """vc_solver's witness search trying every guess in full, with no
    per-coloring facts and no omitted guesses."""
    if k < 1:
        raise InputError(f"number of colors must be positive, got {k}")
    # The k b-vertices have degree at least k-1, so k <= m(G) (Irving &
    # Manlove 1999).
    if k > g.m_degree():
        return None
    cover = reference_min_vertex_cover(g)
    if k >= len(cover) + 2:
        return None
    for phi, b_guess in reference_cover_guesses(g, cover, k):
        result = reference_try_guess(g, cover, phi, b_guess, k)
        if result is not None:
            return result
    return None


def _distinct_subsets(vertices: list[int], phi: dict[int, int], used=frozenset()):
    """The subsets of vertices with pairwise distinct colors, none in used,
    in increasing mask order (bit i for vertices[i])."""
    yield ()
    for i, v in enumerate(vertices):
        if phi[v] not in used:
            for rest in _distinct_subsets(vertices[:i], phi, used | {phi[v]}):
                yield rest + (v,)


def unfiltered_cover_guesses(g: Graph, cover: frozenset[int], k: int):
    """vc_solver.cover_guesses admitting guesses whose b-vertices have
    nested open neighborhoods: rules (a), (b) and (d) only."""
    cover_list = sorted(cover)
    outside = [x for x in g.vertices() if x not in cover]
    gated = [v for v in cover_list if g.degree(v) >= k - 1]
    for phi in vc_solver._proper_cover_colorings(g, cover_list, k):
        facts = vc_solver._cover_coloring(g, outside, phi, k)
        if facts is None or not facts.uncompleted <= {phi[v] for v in gated}:
            continue
        for chosen in _distinct_subsets(gated, phi):
            if facts.uncompleted <= {phi[v] for v in chosen}:
                yield facts, frozenset(chosen)


def reference_cover_coloring(
    g: Graph, outside: list[int], phi: dict[int, int], k: int
) -> vc_solver._CoverColoring | None:
    """vc_solver._cover_coloring with the colors each outside vertex sees
    as a set, built per vertex."""
    kset = frozenset(range(1, k + 1))
    forced = dict(phi)
    completer: dict[int, int] = {}
    for x in outside:
        seen = {phi[u] for u in g.neighbors(x)}
        if len(seen) == k:
            return None
        if len(seen) == k - 1:
            (missing,) = kset - seen
            forced[x] = missing
            completer.setdefault(missing, x)
    return vc_solver._CoverColoring(phi, forced, completer, kset.difference(completer))


def unpruned_cover_guesses(g: Graph, cover: frozenset[int], k: int):
    """vc_solver.cover_guesses as a filter over the full enumeration: every
    proper cover coloring up to renaming (reference_proper_cover_colorings),
    with its facts built per vertex, and every distinctly colored subset of
    the gated vertices, kept when rules (a), (b) and (c) admit it."""
    cover_list = sorted(cover)
    outside = [x for x in g.vertices() if x not in cover]
    gated = [v for v in cover_list if g.degree(v) >= k - 1]
    for phi in reference_proper_cover_colorings(g, cover_list, k):
        facts = reference_cover_coloring(g, outside, phi, k)
        if facts is None:
            continue
        for chosen in _distinct_subsets(gated, phi):
            nested = any(
                g.neighbors(u) <= g.neighbors(v) for u, v in itertools.permutations(chosen, 2)
            )
            if facts.uncompleted <= {phi[v] for v in chosen} and not nested:
                yield facts, frozenset(chosen)


def unfiltered_vc_solve(g: Graph, k: int) -> tuple[Coloring, frozenset[int]] | None:
    """vc_solver._solve over unfiltered_cover_guesses."""
    if k > g.m_degree():
        return None
    cover = vc_solver.min_vertex_cover(g)
    if k >= len(cover) + 2:
        return None
    for facts, b_guess in unfiltered_cover_guesses(g, cover, k):
        result = vc_solver._try_guess(g, facts, b_guess, k)
        if result is not None:
            return result
    return None
