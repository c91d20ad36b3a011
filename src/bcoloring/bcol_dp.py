"""Bottom-up dynamic program for b-coloring over a branch decomposition.

The state space follows the classes-of-a-node view: a color class of a
partial b-coloring of G_t is summarized by a *type* -- for each equivalence
class of V_t a label saying whether the color class intersects it
(CONTAINS), owes it a future neighbor so a pending b-vertex inside it can
complete (DEMAND), or neither (NONE) -- plus a bit recording whether the
color class already holds its designated b-vertex.  A *signature* counts
color classes per type; the table at node t holds exactly the signatures
achievable by valid partial b-colorings of G_t.

Internal nodes are combined through a *merge skeleton*: the bipartite graph
of compatible child-type pairs, each edge labeled with the resulting parent
type.  Signature combination enumerates nonnegative integer edge labelings
whose per-type sums match the child signatures; per-label sums give the
parent signature.  The enumeration is a depth-first search with
residual-count pruning, generating parent signatures directly instead of
testing candidate parent signatures one by one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .decomposition import NodeOperator, RootedBranchDecomposition, _annotate
from .errors import InputError, StructuralError
from .graph import Coloring, Graph

# Labels for how a color class relates to an equivalence class.
NONE, CONTAINS, DEMAND = 0, 1, 2


class ClassType(NamedTuple):
    """Type of a color class at a node: per-class labels plus b-vertex bit."""

    cdesc: tuple[int, ...]
    bvtx: int


@dataclass(frozen=True)
class Signature:
    """Multiset of color-class types with counts summing to k.

    Only nonzero counts are stored, sorted by type, so equal signatures have
    equal encodings and hash consistently.
    """

    items: tuple[tuple[object, int], ...]
    k: int

    @classmethod
    def from_counts(cls, counts: Mapping, k: int) -> "Signature":
        items = tuple(sorted((tau, c) for tau, c in counts.items() if c != 0))
        if any(c < 0 for _, c in items):
            raise InputError("signature counts must be nonnegative")
        if sum(c for _, c in items) != k:
            raise InputError(
                f"signature counts total {sum(c for _, c in items)}, expected {k}"
            )
        return cls(items, k)

    def count(self, tau) -> int:
        for t, c in self.items:
            if t == tau:
                return c
        return 0

    def counts(self) -> dict:
        return dict(self.items)

    def types(self) -> tuple:
        return tuple(t for t, _ in self.items)


@dataclass(frozen=True)
class MergeSkeleton:
    """Bipartite graph over child types; edges are the compatible pairs,
    labeled with their merge type."""

    left: tuple
    right: tuple
    edges: tuple  # (r-type, s-type, merge type) triples

    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class PartialBColoring:
    """A coloring of a vertex subset into classes, with designated partial
    b-vertices (at most one per class)."""

    classes: tuple[tuple[int, ...], ...]
    b_vertices: frozenset[int]

    @property
    def k(self) -> int:
        return len(self.classes)

    def to_coloring(self, n: int) -> Coloring:
        """As a total Coloring; requires the classes to cover 0..n-1."""
        colors = [0] * n
        for i, cls in enumerate(self.classes, start=1):
            for v in cls:
                colors[v] = i
        if any(c == 0 for c in colors):
            raise InputError("partial coloring is not total, cannot convert")
        return Coloring(tuple(colors), len(self.classes))


# --- compatibility and merging of types -------------------------------------


def _check_dimensions(rho: ClassType, sigma: ClassType, op: NodeOperator) -> None:
    if len(rho.cdesc) != len(op.bubble_r) or len(sigma.cdesc) != len(op.bubble_s):
        raise InputError("type width does not match operator class counts")


def _desc_compatible(
    desc_r: tuple[int, ...], desc_s: tuple[int, ...], op: NodeOperator
) -> bool:
    for i, j in op.h_edges:
        if desc_r[i] == CONTAINS and desc_s[j] == CONTAINS:
            return False
    contains_in = [False] * op.parent_class_count
    for i, q in enumerate(op.bubble_r):
        if desc_r[i] == CONTAINS:
            contains_in[q] = True
    for j, q in enumerate(op.bubble_s):
        if desc_s[j] == CONTAINS:
            contains_in[q] = True
    # A demand sharing a parent class with some CONTAINS bubble must be
    # fulfilled here, by an h-neighbor labeled CONTAINS on the other side.
    for i, q in enumerate(op.bubble_r):
        if desc_r[i] == DEMAND and contains_in[q]:
            if not any(
                (i, j) in op.h_edges and desc_s[j] == CONTAINS
                for j in range(len(desc_s))
            ):
                return False
    for j, q in enumerate(op.bubble_s):
        if desc_s[j] == DEMAND and contains_in[q]:
            if not any(
                (i, j) in op.h_edges and desc_r[i] == CONTAINS
                for i in range(len(desc_r))
            ):
                return False
    return True


def _merge_cdesc(
    desc_r: tuple[int, ...], desc_s: tuple[int, ...], op: NodeOperator
) -> tuple[int, ...]:
    nq = op.parent_class_count
    contains_in = [False] * nq
    open_demand_in = [False] * nq
    for i, q in enumerate(op.bubble_r):
        if desc_r[i] == CONTAINS:
            contains_in[q] = True
        elif desc_r[i] == DEMAND and not any(
            (i, j) in op.h_edges and desc_s[j] == CONTAINS
            for j in range(len(desc_s))
        ):
            open_demand_in[q] = True
    for j, q in enumerate(op.bubble_s):
        if desc_s[j] == CONTAINS:
            contains_in[q] = True
        elif desc_s[j] == DEMAND and not any(
            (i, j) in op.h_edges and desc_r[i] == CONTAINS
            for i in range(len(desc_r))
        ):
            open_demand_in[q] = True
    return tuple(
        CONTAINS if contains_in[q] else (DEMAND if open_demand_in[q] else NONE)
        for q in range(nq)
    )


def compatible(rho: ClassType, sigma: ClassType, op: NodeOperator) -> bool:
    """Whether color classes of these child types may merge at this node."""
    _check_dimensions(rho, sigma, op)
    if rho.bvtx + sigma.bvtx > 1:
        return False
    return _desc_compatible(rho.cdesc, sigma.cdesc, op)


def merge_type(rho: ClassType, sigma: ClassType, op: NodeOperator) -> ClassType:
    """The parent type of the union of two compatible child classes."""
    if not compatible(rho, sigma, op):
        raise InputError("merge_type requires a compatible pair of types")
    return ClassType(_merge_cdesc(rho.cdesc, sigma.cdesc, op), rho.bvtx + sigma.bvtx)


def all_types(class_count: int) -> list[ClassType]:
    """Every possible type over class_count classes (2 * 3**class_count)."""
    return [
        ClassType(desc, b)
        for desc in itertools.product((NONE, CONTAINS, DEMAND), repeat=class_count)
        for b in (0, 1)
    ]


def _build_skeleton(op, r_types, s_types, compat_fn, merge_fn) -> MergeSkeleton:
    edges = []
    for rho in r_types:
        for sigma in s_types:
            if compat_fn(rho, sigma, op):
                edges.append((rho, sigma, merge_fn(rho, sigma, op)))
    return MergeSkeleton(tuple(r_types), tuple(s_types), tuple(edges))


def build_merge_skeleton(
    op: NodeOperator, r_types: Iterable[ClassType], s_types: Iterable[ClassType]
) -> MergeSkeleton:
    """Skeleton over the given child type lists for the b-coloring merge."""

    def merge_unchecked(rho, sigma, operator):
        return ClassType(
            _merge_cdesc(rho.cdesc, sigma.cdesc, operator), rho.bvtx + sigma.bvtx
        )

    return _build_skeleton(op, list(r_types), list(s_types), compatible, merge_unchecked)


# --- signatures and their combination ---------------------------------------


def leaf_signatures(k: int) -> tuple[Signature, Signature]:
    """The two achievable signatures at a leaf: vertex not a b-vertex
    (one CONTAINS color, k-1 untouched) or vertex claimed as b-vertex
    (one CONTAINS-with-bit color, k-1 demanding colors)."""
    if k < 1:
        raise InputError(f"number of colors must be positive, got {k}")
    sig1 = Signature.from_counts(
        {ClassType((CONTAINS,), 0): 1, ClassType((NONE,), 0): k - 1}, k
    )
    sig2 = Signature.from_counts(
        {ClassType((CONTAINS,), 1): 1, ClassType((DEMAND,), 0): k - 1}, k
    )
    return sig1, sig2


def combine_signatures(
    table_r: Iterable[Signature],
    table_s: Iterable[Signature],
    skel: MergeSkeleton,
    k: int,
) -> dict[Signature, tuple]:
    """All parent signatures realizable from a child signature pair.

    Returns a map from each achievable parent signature to one realizing
    annotation (sig_r, sig_s, labeling), where the labeling lists
    ((r-type, s-type, merge type), count) entries with positive count.
    """
    adj: dict = {}
    for rho, sigma, tau in skel.edges:
        adj.setdefault(rho, []).append((sigma, tau))
    out: dict[Signature, tuple] = {}
    for sig_r in table_r:
        for sig_s in table_s:
            _combine_pair(sig_r, sig_s, adj, k, out)
    return out


def _combine_pair(sig_r, sig_s, adj, k, out) -> None:
    col_caps = dict(sig_s.items)
    rows = []
    for rho, cnt in sig_r.items:
        edges = tuple(
            (sigma, tau) for sigma, tau in adj.get(rho, ()) if sigma in col_caps
        )
        if not edges:
            return  # this type cannot pair with anything in sig_s
        rows.append((rho, cnt, edges))
    reachable = {sigma for _, _, edges in rows for sigma, _ in edges}
    if any(sigma not in reachable for sigma in col_caps):
        return
    caps = dict(col_caps)
    label_counts: dict = {}
    assignment: list = []

    def fill_row(i: int) -> None:
        if i == len(rows):
            sig_t = Signature.from_counts(label_counts, k)
            if sig_t not in out:
                out[sig_t] = (sig_r, sig_s, tuple(assignment))
            return
        rho, cnt, edges = rows[i]

        def place(j: int, remaining: int) -> None:
            if j == len(edges):
                if remaining == 0:
                    fill_row(i + 1)
                return
            sigma, tau = edges[j]
            tail = sum(caps[s2] for s2, _ in edges[j + 1 :])
            lo = remaining - tail if remaining > tail else 0
            hi = min(caps[sigma], remaining)
            for x in range(lo, hi + 1):
                if x:
                    caps[sigma] -= x
                    label_counts[tau] = label_counts.get(tau, 0) + x
                    assignment.append(((rho, sigma, tau), x))
                place(j + 1, remaining - x)
                if x:
                    caps[sigma] += x
                    if label_counts[tau] == x:
                        del label_counts[tau]
                    else:
                        label_counts[tau] -= x
                    assignment.pop()

        place(0, cnt)

    fill_row(0)


# --- the dynamic program -----------------------------------------------------


@dataclass
class DPTable:
    """Per-node achievable signature sets, optionally witness-annotated."""

    k: int
    root: int
    tables: dict[int, dict[Signature, tuple | None]]
    witness: bool

    def max_table_size(self) -> int:
        return max(len(m) for m in self.tables.values())


def _run_dp(
    g: Graph,
    d: RootedBranchDecomposition,
    k: int,
    leaf_sigs: Iterable[Signature],
    skeleton_fn,
    witness: bool,
) -> DPTable:
    if k < 1:
        raise InputError(f"number of colors must be positive, got {k}")
    ops = _annotate(g, d).operators
    leaf_table = {sig: None for sig in leaf_sigs}
    tables: dict[int, dict[Signature, tuple | None]] = {}
    for t in d.postorder():
        if d.is_leaf(t):
            tables[t] = dict(leaf_table)
            continue
        r, s = d.children(t)
        op = ops[t]
        r_types = sorted({tau for sig in tables[r] for tau, _ in sig.items})
        s_types = sorted({tau for sig in tables[s] for tau, _ in sig.items})
        skel = skeleton_fn(op, r_types, s_types)
        combined = combine_signatures(tables[r], tables[s], skel, k)
        if witness:
            tables[t] = combined
        else:
            tables[t] = dict.fromkeys(combined)
    return DPTable(k=k, root=d.root, tables=tables, witness=witness)


def compute_tables(
    g: Graph, d: RootedBranchDecomposition, k: int, witness: bool = False
) -> DPTable:
    """Run the b-coloring DP and return the full per-node tables."""
    return _run_dp(g, d, k, leaf_signatures(k), build_merge_skeleton, witness)


def accepting_signature(k: int) -> Signature:
    # At the root there is a single equivalence class, V(G); a b-coloring
    # exists iff all k classes have type (CONTAINS, with b-vertex).
    return Signature.from_counts({ClassType((CONTAINS,), 1): k}, k)


def solve_bcoloring(g: Graph, d: RootedBranchDecomposition, k: int) -> bool:
    """Does g have a b-coloring with k colors?"""
    if not (1 <= k <= g.n):
        raise InputError(f"k must be in 1..{g.n}, got {k}")
    table = compute_tables(g, d, k)
    return accepting_signature(k) in table.tables[d.root]


def _assign_top_down(table: DPTable, d: RootedBranchDecomposition, accepting):
    chosen = {d.root: accepting}
    for t in reversed(d.postorder()):
        if d.is_leaf(t):
            continue
        annot = table.tables[t].get(chosen[t])
        if annot is None:
            raise InputError(
                "witness annotations missing; solver was run without witness mode"
            )
        sig_r, sig_s, _ = annot
        r, s = d.children(t)
        chosen[r] = sig_r
        chosen[s] = sig_s
    return chosen


def _realize(
    table: DPTable,
    d: RootedBranchDecomposition,
    accepting: Signature,
    leaf_realize,
):
    """Replay stored annotations bottom-up into concrete classes.

    leaf_realize(vertex, signature, k) must return (classes, types, B) for
    a leaf; internal nodes pair off child classes along the stored edge
    labeling and take unions.
    """
    if accepting not in table.tables[d.root]:
        raise InputError("accepting signature not achievable; no witness exists")
    chosen = _assign_top_down(table, d, accepting)
    realized: dict[int, tuple] = {}
    for t in d.postorder():
        sig = chosen[t]
        if d.is_leaf(t):
            realized[t] = leaf_realize(d.leaf_vertex(t), sig, table.k)
            continue
        r, s = d.children(t)
        _, _, labeling = table.tables[t][sig]
        classes_r, types_r, b_r = realized[r]
        classes_s, types_s, b_s = realized[s]
        pool_r: dict = {}
        for idx, tau in enumerate(types_r):
            pool_r.setdefault(tau, []).append(idx)
        pool_s: dict = {}
        for idx, tau in enumerate(types_s):
            pool_s.setdefault(tau, []).append(idx)
        classes_t: list[frozenset[int]] = []
        types_t: list = []
        for (rho, sigma, tau), x in labeling:
            for _ in range(x):
                i = pool_r[rho].pop()
                j = pool_s[sigma].pop()
                classes_t.append(classes_r[i] | classes_s[j])
                types_t.append(tau)
        if any(pool_r.values()) or any(pool_s.values()):
            raise StructuralError("witness replay left unmatched color classes")
        realized[t] = (classes_t, types_t, b_r | b_s)
    return realized[d.root]


def _bcol_leaf_realize(v: int, sig: Signature, k: int):
    sig1, sig2 = leaf_signatures(k)
    if sig == sig2:
        classes = [frozenset({v})] + [frozenset()] * (k - 1)
        types = [ClassType((CONTAINS,), 1)] + [ClassType((DEMAND,), 0)] * (k - 1)
        return classes, types, frozenset({v})
    if sig == sig1:
        classes = [frozenset({v})] + [frozenset()] * (k - 1)
        types = [ClassType((CONTAINS,), 0)] + [ClassType((NONE,), 0)] * (k - 1)
        return classes, types, frozenset()
    raise StructuralError(f"unexpected leaf signature {sig}")


def reconstruct_witness(
    table: DPTable, g: Graph, d: RootedBranchDecomposition, k: int
) -> PartialBColoring:
    """Replay the accepting root signature into a concrete b-coloring."""
    if not table.witness:
        raise InputError(
            "witness annotations missing; solver was run without witness mode"
        )
    classes, _, b = _realize(table, d, accepting_signature(k), _bcol_leaf_realize)
    ordered = sorted(classes, key=lambda cls: min(cls))
    return PartialBColoring(
        classes=tuple(tuple(sorted(cls)) for cls in ordered),
        b_vertices=frozenset(b),
    )


def solve_bcoloring_witness(
    g: Graph, d: RootedBranchDecomposition, k: int
) -> PartialBColoring | None:
    """A b-coloring witness with k colors, or None if none exists.

    The returned witness is re-checked against the brute-force definition
    before being handed out.
    """
    if not (1 <= k <= g.n):
        raise InputError(f"k must be in 1..{g.n}, got {k}")
    table = compute_tables(g, d, k, witness=True)
    if accepting_signature(k) not in table.tables[d.root]:
        return None
    witness = reconstruct_witness(table, g, d, k)
    from .oracle import is_b_coloring

    if not is_b_coloring(g, witness.to_coloring(g.n)):
        raise StructuralError("reconstructed witness failed the b-coloring check")
    return witness


def b_chromatic_number(g: Graph, d: RootedBranchDecomposition) -> int:
    """The largest k admitting a b-coloring; not monotone, so every k in
    1..max_degree+1 is probed."""
    if g.n < 1:
        raise InputError("b-chromatic number needs at least one vertex")
    best = 0
    for k in range(1, g.max_degree() + 2):
        if solve_bcoloring(g, d, k):
            best = k
    return best
