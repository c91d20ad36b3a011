"""Bottom-up dynamic program for b-coloring over a branch decomposition.

The state space follows the classes-of-a-node view: a color class of a
partial b-coloring of G_t is summarized by a *type* -- for each equivalence
class of V_t a label saying whether the color class intersects it
(CONTAINS), owes it a future neighbor so a pending b-vertex inside it can
complete (DEMAND), or neither (NONE) -- plus a bit recording whether the
color class already holds its designated b-vertex.  A *signature* counts
color classes per type; the table at node t holds exactly the signatures
achievable by valid partial b-colorings of G_t.

The DP carries a type as an integer code: its labels read as a base-3
number, class 0 the most significant digit, times 2, plus the b-vertex bit
(encode, decode).  A code does not say its width, but every type in one
node's table has that node's class count, and among digit strings of one
length numeric order is lexicographic order.  So sorting codes orders
types exactly as sorting ClassType tuples does.  ClassTypes appear only at
the boundary: signature and type_counts, the leaf seeds, the accepting
signatures and the leaves of witness replay.

Internal nodes are combined through a *merge skeleton*: the bipartite graph
of compatible child-type pairs, each edge labeled with the resulting parent
type, kept as rows: each r-type's edges, which every join reads directly.
Signature combination enumerates nonnegative integer edge labelings
whose per-type sums match the child signatures; per-label sums give the
parent signature.  The enumeration is iterative: it fixes the labeling one
skeleton edge at a time and keeps each reached state (s-class counts left,
parent-type counts so far) once, so it generates parent signatures
directly, and no recursion depth depends on the skeleton.  A pair with a
leaf-shaped side (one class of one type, k-1 of another, as every leaf
signature is) needs no search: its labeling is the choice of the class
that takes the one class, and _leaf_join makes its signatures in one
step.  On a caterpillar every join has a leaf child.  A table is a set of
signatures: every table, reference or decision, maps each parent
signature to a child pair (sig_r, sig_s) that reaches it, the first one
joined; no labeling is kept in the table, and the order in which a join
meets its signatures is no part of its result.

A join is a function of the node's operator, its two child tables in
their order (their annotations never reach the parent), the b-vertex
classes a pair must bring and, in a decision, the facts its two rules
read (below); the skeleton is a function of the operator, the two child
type lists, which the tables fix, and those facts.  So _run_dp computes
each distinct join once per run and nodes that repeat one share its
skeleton and table; nothing writes to a table once built.

A run is told its leaf seeds and, for a decision, the root signature it
decides, which its table records.  compute_tables seeds every leaf with
both leaf signatures and decides nothing: the unpruned reference, whose
per-node tables are exactly the achievable signature sets.  decide (the
cw route, and solve_bcoloring and solve_bcoloring_witness through it)
runs _decision_tables, which seeds the b-vertex signature only at
vertices of degree at least k-1 and decides decision_accepting(d, k).
A decision run keeps every internal table canonical at the node's dead
class (the class with no neighbor outside V_t): a CONTAINS there becomes
NONE.  It drops every type that no completion of G_t can satisfy, read
off the outside neighborhoods O_q of the node's classes q: by the demand
rule, a type with a DEMAND on a class whose O_q lies in the union U of
the O_q of its CONTAINS classes (the dead class, whose O_q is empty,
among them); and, as the root's k classes hold b-vertices, by the supply
rule, a type without its b-vertex when every leaf outside V_t whose
seeds claim its vertex lies in U.  Both are tested once per distinct
merge type of a skeleton, on facts gathered by the one walk that
annotates d (decomposition.Annotation's overlaps and neighbors).  It
also skips each child pair that would leave more classes without a
b-vertex than there are such claiming leaves outside V_t, one comparison
per pair.  _decision_tables proves that none of these steps changes an
answer or a witness.  chi_b is the one loop over k, for
b_chromatic_number and for the CLI's bchrom on every route: it probes k
downward from the m-degree bound m(G).

A b-coloring witness is a (Coloring, b-vertices) pair with one b-vertex per
class.  _realize replays the stored annotations of the table's accepting
root into that pair in one pass down the tree, handing each class's color
to the child classes it splits into, down to the leaves; no vertex set is
built.
At each node it rebuilds a labeling of the stored child pair that makes
the chosen signature, joining the pair again with _combine_pair over the
node's skeleton, kept with the table, whatever the pair's shape, and
builds each distinct labeling (skeleton, pair, chosen signature) once per
replay.  Any such labeling will do: it splits each class of a chosen
parent type into classes of the stored child types along skeleton edges.
reconstruct_witness, the one place a DP b-coloring witness is built,
checks the pair against the definition before handing it out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import oracle
from .decomposition import (
    NodeOperator,
    RootedBranchDecomposition,
    _annotate,
    _bits,
)
from .errors import InputError
from .graph import Coloring, Graph

# Labels for how a color class relates to an equivalence class.
NONE, CONTAINS, DEMAND = 0, 1, 2


class ClassType(NamedTuple):
    """Type of a color class at a node: per-class labels plus b-vertex bit.
    The DP carries each type as its integer code (encode)."""

    cdesc: tuple[int, ...]
    bvtx: int


def encode(tau: ClassType, width: int) -> int:
    """The code of tau at a node with width classes: its labels read as a
    base-3 number, class 0 the most significant digit, times 2, plus the
    b-vertex bit.  Among types of one width, code order is ClassType
    order.  Raises InputError if tau has another width."""
    if len(tau.cdesc) != width:
        raise InputError("type width does not match operator class counts")
    code = 0
    for label in tau.cdesc:
        code = 3 * code + label
    return 2 * code + tau.bvtx


def decode(code: int, width: int) -> ClassType:
    """The type of a code at a node with width classes (encode's inverse)."""
    return ClassType(_labels(code, width), code & 1)


def _labels(code: int, width: int) -> tuple[int, ...]:
    rest, labels = code >> 1, [NONE] * width
    for i in range(width - 1, -1, -1):
        rest, labels[i] = divmod(rest, 3)
    if rest:
        raise InputError("type width does not match operator class counts")
    return tuple(labels)


# A signature is a plain tuple: its (type code, count) items, nonzero counts
# only, sorted by code.  Every signature in a node's table has its width.
Signature = tuple


def signature(counts: Mapping[ClassType, int], k: int) -> Signature:
    """The signature with these counts of types, all of one width.  Raises
    InputError on a width mismatch, a negative count, or counts that do
    not sum to k."""
    width = len(next(iter(counts)).cdesc) if counts else 0
    sig = tuple(sorted((encode(tau, width), c) for tau, c in counts.items() if c))
    if any(c < 0 for _, c in sig):
        raise InputError("signature counts must be nonnegative")
    total = sum(c for _, c in sig)
    if total != k:
        raise InputError(f"signature counts total {total}, expected {k}")
    return sig


def type_counts(sig: Signature, width: int) -> dict[ClassType, int]:
    """The count of each type of sig, decoded at a node with width classes."""
    return {decode(code, width): c for code, c in sig}


@dataclass(frozen=True)
class MergeSkeleton:
    """Bipartite graph over child type codes; edges are the compatible
    pairs, labeled with the code of their merge type.  rows maps each
    r-code that has an edge to its (s-code, merge code) edges, in the
    order of the codes given to build_merge_skeleton; both join routines
    and witness replay read the rows directly."""

    rows: dict[int, tuple[tuple[int, int], ...]]

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The (r-code, s-code, merge code) edges, row by row."""
        return tuple((rho, s, tau) for rho, row in self.rows.items() for s, tau in row)


# --- compatibility and merging of types -------------------------------------


def build_merge_skeleton(
    op: NodeOperator,
    r_types: Iterable[int],
    s_types: Iterable[int],
    canonical: bool = False,
    overlaps: Sequence[int] | None = None,
    suppliers: Sequence[int] | None = None,
) -> MergeSkeleton:
    """Skeleton over the given child type codes: one edge per compatible
    pair, labeled with the code of its merge type, made canonical at the
    node's dead class if asked (the decision DP's skeleton, see
    _decision_tables), without the merge types that no completion can
    satisfy.

    Two classes may merge unless both hold a b-vertex, or two CONTAINS
    bubbles are joined by an h-edge (adjacent vertices in one class).  A
    DEMAND bubble is fulfilled here by an h-neighbor labeled CONTAINS on
    the other side; otherwise it stays open in its parent class, which then
    must not get a CONTAINS bubble: a later neighbor of that parent class
    is adjacent to the class's vertex there too, so it can never join the
    class.  The merge type labels a parent class CONTAINS if a CONTAINS
    bubble lands in it, DEMAND if an open DEMAND does, NONE otherwise; its
    bit is the sum of the two.  Canonical at the dead class (see
    _decision_tables), a DEMAND there drops the pair and a CONTAINS there
    becomes NONE.

    The decision DP also passes the facts of its demand and supply rules
    (_decision_tables).  overlaps, the distinct masks of the node's classes
    adjacent to one outside neighbor, drops a merge type with a DEMAND on a
    class q whose every outside neighbor is adjacent to one of its CONTAINS
    classes: no mask holds q and misses them all.  It is None where the
    classes' outside neighborhoods are pairwise disjoint, where that rule
    is the test against the dead class and the type's own CONTAINS
    classes made for every pair.  suppliers, the distinct such masks of
    the claiming leaves outside V_t, drops a merge type without the bit
    whose CONTAINS classes meet every one of them; it is None where the
    rule cannot fire.

    Each code is read once into label masks (_side), so a pair costs a few
    mask operations; the parent masks of open demands are computed once
    per distinct mask, and the parent codes and both rules once per
    distinct parent (CONTAINS, DEMAND) masks.  Raises InputError if a code
    is wider than its side's class count.
    """
    r_side = _side(r_types, op.bubble_r, op.h_edges)
    s_side = _side(s_types, op.bubble_s, [(j, i) for i, j in op.h_edges])
    width = op.parent_class_count
    weight = [3 ** (width - 1 - q) for q in range(width)]  # parent digits
    dead = 1 << op.dead if canonical and op.dead is not None else 0
    up_r: dict[int, int] = {}  # open r-demands -> their parent classes
    up_s: dict[int, int] = {}
    # parent CONTAINS | DEMAND << width -> its codes by bit, None if dropped
    parents: dict[int, tuple] = {}
    rows = {}
    for rho, b_r, _, dem_r, meets_r, in_r in r_side:
        row = []
        for sigma, b_s, con_s, dem_s, meets_s, in_s in s_side:
            if b_r & b_s or meets_r & con_s:
                continue
            open_r, open_s = dem_r & ~meets_s, dem_s & ~meets_r
            demand = up_r.get(open_r)
            if demand is None:
                demand = up_r[open_r] = _lift(open_r, op.bubble_r)
            demand_s = up_s.get(open_s)
            if demand_s is None:
                demand_s = up_s[open_s] = _lift(open_s, op.bubble_s)
            demand |= demand_s
            if demand & (in_r | in_s | dead):
                continue
            contains = (in_r | in_s) & ~dead
            key = contains | demand << width
            codes = parents.get(key)
            if codes is None:
                codes = parents[key] = _parent_codes(
                    contains, demand, weight, overlaps, suppliers
                )
            tau = codes[b_r + b_s]
            if tau is not None:
                row.append((sigma, tau))
        if row:
            rows[rho] = tuple(row)
    return MergeSkeleton(rows)


def _parent_codes(contains, demand, weight, overlaps, suppliers) -> tuple:
    """The codes of the merge type with these parent CONTAINS and DEMAND
    masks, without and with the bit, each None if a rule drops it.

    Demand rule: the classes whose outside neighbors a class of this
    color may still reach are the union of the masks that miss contains;
    a DEMAND outside that union is dropped.  Supply rule: a type without
    the bit is dropped when every supplier mask meets contains."""
    if overlaps is not None:
        reach = 0
        for mask in overlaps:
            if not mask & contains:
                reach |= mask
        if demand & ~reach:
            return None, None
    code = 2 * sum(
        weight[q] * (CONTAINS if contains >> q & 1 else DEMAND)
        for q in _bits(contains | demand)
    )
    if suppliers is not None and all(mask & contains for mask in suppliers):
        return None, code + 1
    return code, code + 1


def _side(codes: Iterable[int], bubble: Sequence[int], h_edges) -> list[tuple]:
    """Each code of one child side as (code, bit, CONTAINS mask, DEMAND
    mask, meets, the parent classes its CONTAINS bubbles land in), where
    meets is the other side's classes h-adjacent to its CONTAINS classes:
    their DEMANDs it meets, and a CONTAINS there it conflicts with.
    h_edges are (this side, other side) class pairs."""
    width = len(bubble)
    adjacent = [0] * width
    for i, j in h_edges:
        adjacent[i] |= 1 << j
    out = []
    for code in codes:
        contains = demand = met = parents = 0
        for i, label in enumerate(_labels(code, width)):
            if label == CONTAINS:
                contains |= 1 << i
                met |= adjacent[i]
                parents |= 1 << bubble[i]
            elif label == DEMAND:
                demand |= 1 << i
        out.append((code, code & 1, contains, demand, met, parents))
    return out


def _lift(mask: int, bubble: Sequence[int]) -> int:
    """The parent classes of the child classes in mask."""
    lifted = 0
    for i in _bits(mask):
        lifted |= 1 << bubble[i]
    return lifted


# --- signatures and their combination ---------------------------------------


def leaf_signatures(k: int) -> tuple[Signature, Signature]:
    """The two achievable signatures at a leaf: vertex not a b-vertex
    (one CONTAINS color, k-1 untouched) or vertex claimed as b-vertex
    (one CONTAINS-with-bit color, k-1 demanding colors)."""
    if k < 1:
        raise InputError(f"number of colors must be positive, got {k}")
    sig1 = signature({ClassType((CONTAINS,), 0): 1, ClassType((NONE,), 0): k - 1}, k)
    sig2 = signature({ClassType((CONTAINS,), 1): 1, ClassType((DEMAND,), 0): k - 1}, k)
    return sig1, sig2


def combine_signatures(
    table_r: Iterable[Signature],
    table_s: Iterable[Signature],
    skel: MergeSkeleton,
    k: int,
    supply: int | None = None,
) -> dict[Signature, tuple]:
    """All parent signatures realizable from a child signature pair.

    Returns a map from each achievable parent signature to its annotation,
    a child pair (sig_r, sig_s) that reaches it, the first joined; the
    pairs of one join share one tuple.  Child pairs are joined in table
    order, both join routines reading the skeleton's rows.  A pair with a
    leaf-shaped side, as every leaf signature is, is joined in one step by
    _leaf_join (the s side is taken when both are); every other pair by
    _combine_pair.  Both give the same set of signatures.  No labeling is
    kept: witness replay joins the stored pair again with _combine_pair,
    and any labeling of the pair that makes the chosen signature serves.
    An r-side signature is split only when some s-side one is not
    leaf-shaped, the one case in which its split is read.

    With supply given, the number of vertices outside the parent's V_t that
    may still become b-vertices, a pair is skipped when its classes holding
    a b-vertex number fewer than k - supply (see _decision_tables).
    """
    need = 0 if supply is None else k - supply  # b-vertex classes a pair needs
    table_s = [
        (sig_s, _leaf_split(sig_s), _b_count(sig_s) if need > 0 else 0)
        for sig_s in table_s
    ]
    split_r_needed = any(split_s is None for _, split_s, _ in table_s)
    leaf_rows: dict[tuple, dict] = {}  # (split, leaf_is_s) -> _leaf_rows
    out: dict[Signature, tuple] = {}
    for sig_r in table_r:
        split_r = _leaf_split(sig_r) if split_r_needed else None
        short = need - _b_count(sig_r) if need > 0 else 0
        for sig_s, split_s, b_s in table_s:
            if b_s < short:
                continue
            if split_s is not None:
                split, leaf_is_s = split_s, True
            elif split_r is not None:
                split, leaf_is_s = split_r, False
            else:
                _combine_pair(sig_r, sig_s, skel.rows, out)
                continue
            key = (split, leaf_is_s)
            rows = leaf_rows.get(key)
            if rows is None:
                rows = leaf_rows[key] = _leaf_rows(skel.rows, split, leaf_is_s)
            _leaf_join(sig_r, sig_s, leaf_is_s, rows, out)
    return out


def _leaf_rows(skel_rows: dict, split: tuple, leaf_is_s: bool) -> dict:
    """For a leaf side split into (one, zero), each type p of the other side
    that has an edge to one or zero, mapped to [zero merge, one merge]: the
    merge types of p with zero and with one, each None without the edge.
    Built once per node and split."""
    one, zero = split
    merges: dict = {}
    if leaf_is_s:
        for p, row in skel_rows.items():
            for sigma, tau in row:
                if sigma == zero or sigma == one:
                    merges.setdefault(p, [None, None])[sigma == one] = tau
    else:
        for side, q in ((0, zero), (1, one)):
            for p, tau in skel_rows.get(q, ()):
                merges.setdefault(p, [None, None])[side] = tau
    return merges


def _b_count(sig: Signature) -> int:
    """The number of classes in sig that hold their b-vertex."""
    return sum(c for tau, c in sig if tau & 1)


def _leaf_split(sig: Signature) -> tuple | None:
    """(one, zero) if sig is leaf-shaped: one class of type one and the
    other k-1 of type zero (None when k = 1).  Otherwise None."""
    if len(sig) == 1:
        return (sig[0][0], None) if sig[0][1] == 1 else None
    if len(sig) == 2:
        (a, ca), (b, cb) = sig
        if ca == 1:
            return a, b
        if cb == 1:
            return b, a
    return None


def _leaf_join(sig_r, sig_s, leaf_is_s, leaf_rows, out):
    """_combine_pair for a pair with a leaf-shaped side, in one step.

    Every labeling puts the leaf side's one class with one class of the
    other side, the taker, and every other class of the other side with a
    zero class.  So a labeling is the taker's type, and its parent
    signature is the other side's classes mapped through the merge with
    zero, one taker class mapped through the merge with one instead.  A
    type with no edge to zero must be the taker; two such types, or one
    with two classes, leave no labeling.

    Takers are tried in the order of the other side's signature, and each
    new parent signature is recorded in out with the pair (sig_r, sig_s).
    No labeling is made: replay rebuilds one with _combine_pair.
    """
    other = sig_r if leaf_is_s else sig_s
    made: dict = {}  # parent-type counts with every other class put with zero
    takers = []
    forced = None
    for p, c in other:
        merges = leaf_rows.get(p)
        if merges is None:
            return  # no class can take p's classes
        zero_tau, one_tau = merges
        if zero_tau is None:
            # no zero class can take p's classes: p must take the one class
            if one_tau is None or c > 1 or forced is not None:
                return
            forced = merges
        else:
            made[zero_tau] = made.get(zero_tau, 0) + c
            if one_tau is not None:
                takers.append(merges)
    if forced is not None:
        takers = [forced]
    pair = (sig_r, sig_s)
    for zero_tau, one_tau in takers:
        counts = made.copy()
        if zero_tau is not None:
            left = counts[zero_tau] - 1
            if left:
                counts[zero_tau] = left
            else:
                del counts[zero_tau]
        counts[one_tau] = counts.get(one_tau, 0) + 1
        out.setdefault(tuple(sorted(counts.items())), pair)


def _combine_pair(sig_r, sig_s, skel_rows, out, want=None):
    """Add the parent signatures of one child signature pair to out, each
    recorded with the pair (sig_r, sig_s).  With want given, out is not
    used: return a labeling of this pair that makes want, or None.

    A labeling puts x classes of type rho with x of type sigma, making x
    parent classes of type tau, along each skeleton edge.  It is fixed one
    edge at a time: rows (r-types) in sig_r order, a row's edges in
    skeleton order, x increasing, the row's last edge taking what is left.
    A state is one tuple: the s-class counts left, then the parent-type
    counts made.  It fixes what the row has left, so two partial labelings
    in one state have the same completions, adding the same parent types:
    keeping each state once, with its first labeling, loses no signature.
    Both sides count k classes and each row places all of its own, so at
    the end every s-class is used and the positive parent-type counts sum
    to k: the parent signature, needing no check.

    With want given, the labelings are written and only those that can
    make want are searched: an edge whose merge type is not in want leaves
    its row, and x stops where a parent-type count would pass want's.
    Parent-type counts only grow, so no skipped labeling makes want, and
    every signature the pair makes that is want is still reached.
    """
    col = {sigma: j for j, (sigma, _) in enumerate(sig_s)}
    cap = None if want is None else dict(want)
    rows = []
    for rho, cnt in sig_r:
        edges = [
            (sigma, tau)
            for sigma, tau in skel_rows.get(rho, ())
            if sigma in col and (cap is None or tau in cap)
        ]
        if not edges:
            return None  # this type cannot pair with anything in sig_s
        rows.append((rho, cnt, edges))
    taus = sorted({tau for _, _, edges in rows for _, tau in edges})
    base = len(col)
    made_at = {tau: base + i for i, tau in enumerate(taus)}
    layer = {tuple(c for _, c in sig_s) + (0,) * len(taus): (0, ())}
    for rho, cnt, edges in rows:
        layer = {state: (cnt, labeling) for state, (_, labeling) in layer.items()}
        for e, (sigma, tau) in enumerate(edges):
            j, i, edge = col[sigma], made_at[tau], (rho, sigma, tau)
            last = e == len(edges) - 1
            most = None if cap is None else cap[tau]
            nxt: dict = {}
            for state, (left, labeling) in layer.items():
                have = state[j]
                top = min(have, left)
                if most is not None:
                    top = min(top, most - state[i])
                for x in range(left if last else 0, top + 1):
                    key = state if not x else (
                        state[:j] + (have - x,) + state[j + 1 : i]
                        + (state[i] + x,) + state[i + 1 :]
                    )
                    if key not in nxt:
                        step = ((edge, x),) if x and cap is not None else ()
                        nxt[key] = (left - x, labeling + step)
            layer = nxt
    pair = (sig_r, sig_s)
    for state, (_, labeling) in layer.items():
        sig_t = tuple((tau, c) for tau, c in zip(taus, state[base:]) if c)
        if want is None:
            out.setdefault(sig_t, pair)
        elif sig_t == want:
            return labeling
    return None


# --- the dynamic program -----------------------------------------------------


@dataclass
class DPTable:
    """Per-node achievable signature sets.  An internal node's table maps
    each signature to a child pair (sig_r, sig_s) that reaches it, a
    leaf's to None.  accepting is the root signature the run decides."""

    k: int
    root: int
    tables: dict[int, dict[Signature, tuple | None]]
    skeletons: dict[int, MergeSkeleton]  # internal node -> its skeleton
    accepting: Signature | None  # None for a reference run

    def max_table_size(self) -> int:
        return max(len(m) for m in self.tables.values())


def _run_dp(
    g: Graph,
    d: RootedBranchDecomposition,
    k: int,
    seeds: Sequence[Iterable[Signature]],
    accepting: Signature | None = None,
) -> DPTable:
    """The DP over d; seeds[v] lists the signatures of the leaf of vertex v.
    Without accepting, the root it decides, it is the unpruned reference.
    Otherwise every internal table is canonical at its dead class, drops
    the types of the demand rule and, when accepting has b-vertex classes,
    of the supply rule, and a node skips the child pairs that cannot bring
    those classes (all as in _decision_tables): its suppliers outside V_t,
    the leaves whose seeds claim their vertex, are counted bottom-up.

    The rules' facts at each node are as build_merge_skeleton takes them,
    None where a rule reduces to the canonical form or cannot fire, and
    only a decision run reads them, off d's one annotation (its overlaps
    and neighbors, see decomposition.Annotation): overlaps as listed, and
    suppliers, the distinct class masks of the claiming leaves outside
    V_t, read off the node's listed outside neighbors when all those
    leaves are among them.  Where a node's neighbors are not listed (its
    class representatives have too many), both facts are None: the demand
    rule is the dead-class drop there, and the supply rule is not applied.

    Each distinct join is computed once per run.  A node's table is a
    function of its operator, its two child tables as ordered signature
    tuples, need, the b-vertex classes a pair must bring, and the rules'
    facts: combine_signatures reads the child tables in order and never
    their annotations.  Its skeleton is a function of the operator, the two
    child type lists, which the child tables fix, and those facts, which
    name classes, not vertices.  So a node whose (operator, r table,
    s table, need, overlaps, suppliers) repeats takes the earlier node's
    skeleton and table, the very dict: nodes may share a table, and nothing
    writes to one once built.  Each distinct table gets an id when it is
    built, so a key holds two ids, not two tables."""
    if k < 1:
        raise InputError(f"number of colors must be positive, got {k}")
    decision = accepting is not None
    annotation = _annotate(g, d)
    ops = annotation.operators
    wanted = 0 if accepting is None else _b_count(accepting)  # root's b-vertex classes
    claims = [  # does a leaf's seed claim its vertex as a b-vertex?
        wanted and any(tau & 1 for sig in sigs for tau, _ in sig) for sigs in seeds
    ]
    total = sum(claims)
    tables: dict[int, dict[Signature, tuple | None]] = {}
    table_ids: dict[tuple, int] = {}  # each distinct table's signatures -> its id
    node_ids: dict[int, int] = {}  # node -> the id of its table
    # (op, r id, s id, need, overlaps, suppliers) -> (skeleton, table, id)
    joins: dict[tuple, tuple] = {}
    node_skeletons: dict[int, MergeSkeleton] = {}
    inside: dict[int, int] = {}  # node waiting for its parent -> suppliers in V_t
    for t in d.postorder():
        if d.is_leaf(t):
            v = d.leaf_vertex(t)
            tables[t] = dict.fromkeys(seeds[v])
            node_ids[t] = table_ids.setdefault(tuple(tables[t]), len(table_ids))
            inside[t] = claims[v]
            continue
        r, s = d.children(t)
        op = ops[t]
        inside[t] = inside.pop(r) + inside.pop(s)
        far = total - inside[t]  # claiming leaves outside V_t
        need = max(wanted - far, 0)
        overlaps = suppliers = None
        if decision:
            overlaps = annotation.overlaps.get(t)
            near = annotation.neighbors.get(t)
            if wanted and near is not None and far <= len(near):
                # the supply rule fires only if every claiming leaf outside
                # V_t is a neighbor of V_t
                masks = [mask for w, mask in near if claims[w]]
                if len(masks) == far:
                    suppliers = tuple(sorted(set(masks)))
        key = (op, node_ids[r], node_ids[s], need, overlaps, suppliers)
        join = joins.get(key)
        if join is None:
            r_types = sorted({tau for sig in tables[r] for tau, _ in sig})
            s_types = sorted({tau for sig in tables[s] for tau, _ in sig})
            skel = build_merge_skeleton(
                op, r_types, s_types, decision, overlaps, suppliers
            )
            # skips the pairs with fewer than need b-vertex classes
            table = combine_signatures(tables[r], tables[s], skel, k, k - need)
            table_id = table_ids.setdefault(tuple(table), len(table_ids))
            join = joins[key] = (skel, table, table_id)
        node_skeletons[t], tables[t], node_ids[t] = join
    return DPTable(k, d.root, tables, node_skeletons, accepting)


def compute_tables(g: Graph, d: RootedBranchDecomposition, k: int) -> DPTable:
    """Run the b-coloring DP and return the full per-node tables."""
    return _run_dp(g, d, k, [leaf_signatures(k)] * g.n)


def _decision_tables(g: Graph, d: RootedBranchDecomposition, k: int) -> DPTable:
    """The decision DP: the b-vertex leaf signature is seeded only at
    vertices of degree at least k-1, and the run decides
    decision_accepting(d, k), so every internal table is canonical at its
    dead class, drops the types that the demand and supply rules show no
    completion can satisfy, and a node skips the child pairs that leave
    more classes without a b-vertex than there are claiming leaves outside
    V_t.  Its root holds decision_accepting(d, k) exactly when
    compute_tables' root holds accepting_signature(k).

    Gating.  Each pair of child signatures is combined exactly as in the
    reference: the skeleton holds every compatible pair among the types of
    both child tables, so the pair sees the same edges.  Hence a node's
    gated table is the reference combination of a subset of its children's
    pairs, and by induction from the leaves every gated table is a subset
    of the reference table at its node; an accepting gated root gives an
    accepting reference root.  Conversely, an accepting reference root
    comes from a b-coloring with one designated b-vertex per class and no
    DEMAND left open at the root.  The reference DP derives that root
    signature from the signatures of the coloring's restrictions to each
    G_t, seeding the b-vertex signature exactly at the designated vertices.
    Each of those has neighbors in all k-1 other colors, so its degree is
    at least k-1 and it keeps that seed here; the gated DP makes the same
    derivation and accepts too.

    Canonical tables.  The dead class of an internal node t is its
    equivalence class whose vertices have no neighbor outside V_t
    (NodeOperator.dead).  A type is canonical there when its label on the
    dead class is not DEMAND and not CONTAINS; canonicalising a type drops
    it if the label is DEMAND and rewrites CONTAINS to NONE, and
    canonicalising a signature drops it if any of its types is dropped and
    maps the others.  build_merge_skeleton(canonical=True) canonicalises
    each merge type at the node, so every internal table here is the
    canonical image of the gated table that the same DP without
    canonicalisation builds.  By induction: leaves are not canonicalised,
    and at an internal node t with children r and s, canonicalising at t
    the merge of two child types gives the same result whether the child
    types were canonicalised first or not.  Two facts give that.
    - No h-edge touches a dead class: its vertices have no neighbor outside
      V_r, so none in V_s (and the same for s).  So its label takes part in
      no h-edge conflict and meets no DEMAND.
    - A child's dead class lies in t's dead class: no neighbor outside V_r
      means none outside the smaller complement of V_t.  Its label reaches
      the merge only through t's dead class, where CONTAINS and NONE give
      the same canonical result: with an open DEMAND bubbling there the
      raw merge fails and the canonical type is dropped; without one the
      label becomes NONE either way.  A DEMAND on a child's dead class is
      never met (no h-edge), so it stays open in t's dead class and the
      merge is dropped or fails either way.
    Pairings of classes are unchanged by renaming types, so the child pairs
    of the canonical tables make exactly the canonical images of the raw
    parent signatures.  Nothing accepting is lost: a DEMAND on a dead class
    is never met, and at the root, whose one class V(G) is dead, the
    reference accepts only when no DEMAND is left.

    b-vertex supply.  Write b1(sig) for the number of classes of sig whose
    b-vertex bit is 1, B for b1 of the root signature decided (k here; 0
    for fall coloring, which skips nothing), and S_t for the claiming
    leaves outside V_t, those with a bit-1 class in a seed signature (here
    the vertices of degree at least k-1).  At node t a child pair is
    skipped when B - b1(sig_r) - b1(sig_s) > |S_t|.  Every labeling pairs
    each class of one side with one class of the other, and two bit-1
    classes never merge, so every parent signature of the pair has exactly
    b1(sig_r) + b1(sig_s) bit-1 classes, and only a claiming leaf starts
    one more: no skipped pair reaches B of them at the root, where S_t is
    empty and every kept signature has B.  Each table is exactly the table
    built without skipping, filtered by the rule, in the same order and
    with the same annotations:
    - A dropped child signature only makes dropped parents.  A bit-1 class
      holds its own claimed vertex, so b1(sig_s) is at most the number of
      claiming leaves in V_s, and S_r is S_t plus those.  So
      B - b1(sig_r) > |S_r| gives B - b1(sig_r) - b1(sig_s) > |S_t|.
    - So every pair that makes a kept signature is joined here too, in the
      same relative order.  A pair's join reads only the skeleton edges
      among its own types, in their relative order, which a skeleton over
      the fewer types of the filtered child tables keeps.  Since the pair
      fixes the bit-1 count, a kept signature's first pair is the one that
      reaches it first without skipping, and replay rebuilds the same
      labeling from it.
    Answers and witnesses are therefore unchanged.

    Demand and supply rules.  At an internal node t, let O_q be the
    neighbors outside V_t of the vertices of class q: one set per class,
    by the definition of the classes, and empty for the dead class.  For a
    type with CONTAINS on the classes C, let U be the union of O_q over q in
    C.  Every vertex of U is adjacent to a vertex of this color class in
    G_t, so none of them can take its color.
    - Demand rule: a type with a DEMAND on q is dropped when O_q lies in U.
      The neighbor owed to q must lie in O_q and take this color.  The
      dead class is the case O_q empty, so this rule is the canonical drop
      of a DEMAND there, made general.
    - Supply rule, for a root whose classes hold b-vertices (not fall
      coloring): a type with bit 0 is dropped when every claiming leaf
      outside V_t lies in U.  Its b-vertex must be such a leaf of this
      color.
    Both are applied in full at the nodes whose outside neighbors the
    annotation lists (decomposition.Annotation.neighbors), and the parent
    of such a node is one of them; elsewhere only the dead-class drop is.
    "Dropped" below means dropped by a rule applied at the node.
    So no dropped type is the type at t of a color class of a coloring the
    root accepts.  A rule reads only the merge type, so build_merge_skeleton
    drops exactly the skeleton edges whose merge type is dropped; for the
    supply rule, those where neither child type carries the bit.

    Each table is the table built without the two rules, filtered: less
    the signatures holding a dropped type, in the same order and with the
    same annotations, as with the supply count.  Leaves are not filtered.
    A child signature holding a type dropped at a child makes only dropped
    parents, or none.  Say rho at r, with CONTAINS on C_r, is dropped, and
    a labeling puts a class of type rho with one of type sigma, making a
    class of type tau at t (the same with r and s swapped).
    - rho has a DEMAND on the r-class i, with O_i inside the union of the
      O_i' of r over i' in C_r.  If an s-class j meets it across the join,
      j's vertices are adjacent to i's and lie outside V_r, so in O_i, and
      one of them lies in O_i' for some i' in C_r: i' and j are joined by
      an h-edge and both are CONTAINS, so the merge is blocked.  Otherwise
      the DEMAND stays open on the parent class q of i, and O_q at t is
      O_i less V_s, inside the union of the O_i' less V_s, each of which is
      O at t of the parent class of i', a CONTAINS class of tau: tau is
      dropped, as a rule applied at r is applied at t (O_q empty is the
      dead-class drop, applied everywhere).
    - rho has bit 0, and every claiming leaf outside V_r lies in the union
      of the O_i' over i' in C_r.  If sigma has the bit, its b-vertex is a
      claiming leaf in V_s, outside V_r, so in some O_i', and its s-class is
      CONTAINS in sigma: it holds the vertex, which has a neighbor outside
      V_s, so the class is not s's dead class.  An h-edge joins that class
      and i', so the merge is blocked.  Otherwise tau has bit 0, and every
      claiming leaf outside V_t lies outside V_r, so in some O_i' less
      V_t, which is O at t of the parent class of i': tau is dropped, as
      the rule applied at r is applied at t.
    A CONTAINS made NONE on a dead class adds nothing to U, as its O_q is
    empty.  So every pair that makes a kept signature is joined here too,
    in the same relative order.  Over the skeleton without the dropped
    edges, a pair's join makes exactly its signatures that hold no dropped
    type, since a labeling makes a dropped type exactly when it uses a
    dropped edge: _leaf_join tries the same takers in order and skips those
    whose signature holds one, and in _combine_pair a parent-type count
    never falls, so the states that lead to a kept signature are met in the
    same order.  So a kept signature's first pair is the one that reaches
    it first without the rules, and replay, which reads only edges whose
    merge type is in the chosen signature, rebuilds the same labeling from
    it.  Answers and witnesses are therefore unchanged.

    The root.  Its canonical image of accepting_signature(k), k classes of
    type ((CONTAINS,), 1), is k classes of type ((NONE,), 1), and nothing
    else maps there: a class with its b-vertex bit set holds that vertex,
    so it is labeled CONTAINS at the root, never NONE.  When n = 1 the root
    is a leaf and nothing is canonicalised, so decision_accepting keeps
    CONTAINS.

    Witnesses stay sound: the tables a decision reads are the ones replay
    follows.  Replay joins each stored child pair again with _combine_pair
    over its node's skeleton, so each labeling it rebuilds is a step of the
    reference DP with its merge types canonicalised.  The skeleton edges
    hold the canonical types, which key the color lists at each node, so
    replay splits classes exactly as the reference labeling pairs them, and a
    replayed witness is a b-coloring with k colors (reconstruct_witness
    checks it against the definition before handing it out).
    """
    plain, claimed = leaf_signatures(k)
    both, alone = (plain, claimed), (plain,)
    seeds = [both if g.degree(v) >= k - 1 else alone for v in g.vertices()]
    return _run_dp(g, d, k, seeds, decision_accepting(d, k))


def accepting_signature(k: int) -> Signature:
    # At the root there is a single equivalence class, V(G); a b-coloring
    # exists iff all k classes have type (CONTAINS, with b-vertex).
    return signature({ClassType((CONTAINS,), 1): k}, k)


def decision_accepting(
    d: RootedBranchDecomposition, k: int, bvtx: int = 1
) -> Signature:
    """The signature a canonical decision root accepts: k classes of type
    ((NONE,), bvtx), bvtx 1 for b-coloring and 0 for fall coloring.  A root
    that is a leaf (n = 1) is not canonicalised and keeps CONTAINS."""
    label = CONTAINS if d.is_leaf(d.root) else NONE
    return signature({ClassType((label,), bvtx): k}, k)


def _realize(
    table: DPTable, d: RootedBranchDecomposition
) -> tuple[Coloring, frozenset[int]]:
    """Replay stored annotations in one pass from the table's accepting
    root down into a coloring, its classes numbered by smallest vertex, and
    its b-vertices.  Raises InputError if the root lacks it, or it is None.

    Each node holds the colors of its classes, listed by type, counting its
    chosen signature; the root's get distinct colors.  An internal node
    looks up its stored child pair and rebuilds a labeling of it that makes
    the signature, by _combine_pair over its skeleton's rows with the
    signature as want, whatever the pair's shape.  Along each edge (rho,
    sigma, tau) taken x times it pops x colors off its tau list and appends
    each to child r's rho list and child s's sigma list.  The stored pair
    reaches the signature, so such a labeling exists, and any one serves:
    it splits each class into classes of the edge's child types, which the
    merge rule makes valid here.  A leaf's vertex takes the color of its
    (CONTAINS,) class and is a b-vertex iff that type's bit is 1.  Nodes
    that repeat the skeleton, the pair and the signature reuse the first
    one's labeling: the join that makes it reads nothing else.
    """
    accepting = table.accepting  # never a key when None
    if accepting not in table.tables[d.root]:
        raise InputError("accepting signature not achievable; no witness exists")
    contains = encode(ClassType((CONTAINS,), 0), 1)  # + 1 at a b-vertex
    ids = iter(range(table.k))
    held = {d.root: {tau: [next(ids) for _ in range(c)] for tau, c in accepting}}
    color: dict[int, int] = {}
    b: list[int] = []
    labelings: dict[tuple, tuple] = {}  # (skeleton id, sig_r, sig_s, want) -> labeling
    for t in reversed(d.postorder()):
        lists = held.pop(t)
        if d.is_leaf(t):
            v = d.leaf_vertex(t)
            bit = contains + 1 in lists
            (color[v],) = lists[contains + bit]
            if bit:
                b.append(v)
            continue
        want = tuple(sorted((tau, len(got)) for tau, got in lists.items()))
        sig_r, sig_s = table.tables[t][want]
        skel = table.skeletons[t]
        key = (id(skel), sig_r, sig_s, want)
        labeling = labelings.get(key)
        if labeling is None:
            labeling = labelings[key] = _combine_pair(
                sig_r, sig_s, skel.rows, None, want
            )
        if labeling is None:
            raise RuntimeError("witness replay: a stored pair misses its signature")
        r, s = d.children(t)
        lists_r, lists_s = held[r], held[s] = {}, {}
        for (rho, sigma, tau), x in labeling:
            for _ in range(x):
                c = lists[tau].pop()
                lists_r.setdefault(rho, []).append(c)
                lists_s.setdefault(sigma, []).append(c)
        if any(lists.values()):
            raise RuntimeError("witness replay left color classes unplaced")
    colors = [color[v] for v in range(len(color))]
    rank = {c: i for i, c in enumerate(dict.fromkeys(colors), start=1)}
    return Coloring(tuple(rank[c] for c in colors), len(rank)), frozenset(b)


def reconstruct_witness(
    table: DPTable, g: Graph, d: RootedBranchDecomposition
) -> tuple[Coloring, frozenset[int]]:
    """Replay the accepting root signature of a decision table
    (_decision_tables) into a b-coloring and its b-vertices, one per class.
    Raises InputError if the root lacks it, or the table has none.

    This is where every DP b-coloring witness is built, and it is checked
    here, once, against the definition before it is handed out.
    """
    coloring, b = _realize(table, d)
    oracle._check_b_witness(g, coloring, b, "reconstructed witness")
    return coloring, b


def decide(g: Graph, d: RootedBranchDecomposition, k: int, witness: bool = False):
    """The cw route: does g have a b-coloring with k colors?

    Returns the answer, the witness (Coloring, b-vertices) when asked for
    and found, checked by reconstruct_witness, else None, and the largest
    decision table.  For k > n no DP runs: no coloring has more colors than
    vertices.  Raises InputError for k < 1.
    """
    if k > g.n:
        return False, None, None
    table = _decision_tables(g, d, k)
    answer = table.accepting in table.tables[d.root]
    found = reconstruct_witness(table, g, d) if answer and witness else None
    return answer, found, table.max_table_size()


def solve_bcoloring(g: Graph, d: RootedBranchDecomposition, k: int) -> bool:
    """Does g have a b-coloring with k colors?"""
    return decide(g, d, k)[0]


def solve_bcoloring_witness(
    g: Graph, d: RootedBranchDecomposition, k: int
) -> tuple[Coloring, frozenset[int]] | None:
    """A b-coloring with k colors and one b-vertex per class, checked by
    reconstruct_witness, or None if none exists."""
    return decide(g, d, k, witness=True)[1]


def chi_b(route, g: Graph, d: RootedBranchDecomposition | None, witness: bool = False):
    """The b-chromatic number, the largest k admitting a b-coloring, by one
    route: route(g, d, k, witness) decides one k, as decide does.

    Returns the largest k the route accepts (0 if it accepts none), the
    route's witness at that k when asked for, and the largest DP table over
    the probes (None on a route without tables).

    Feasibility is not monotone in k, but no k above the m-degree m(G) is
    feasible (Irving & Manlove 1999: the k b-vertices have degree at least
    k-1), and m(G) <= n.  So k is probed from m(G) down, and the first
    feasible k is the largest.
    """
    if g.n < 1:
        raise InputError("b-chromatic number needs at least one vertex")
    sizes = []
    for k in range(g.m_degree(), 0, -1):
        answer, found, size = route(g, d, k, witness)
        if size is not None:
            sizes.append(size)
        if answer:
            return k, found, max(sizes, default=None)
    return 0, None, max(sizes, default=None)


def b_chromatic_number(g: Graph, d: RootedBranchDecomposition) -> int:
    """The largest k admitting a b-coloring (chi_b by the decision DP)."""
    return chi_b(decide, g, d)[0]
