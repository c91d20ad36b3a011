"""Fall coloring (partition into independent dominating sets) decision.

Fall coloring is the b-coloring dynamic program with different seeds and a
different accepting signature.  Every vertex must be a b-vertex, so every
leaf seeds the one signature that puts its vertex in its own color: one
CONTAINS class and k-1 DEMAND classes.  DEMAND then means what fall
coloring needs, that some vertex of the equivalence class still lacks a
neighbor in the color class.  Types are the b-coloring ClassType with the
b-vertex bit always 0, which never blocks a merge (0 + 0 is not above 1),
so the merge, skeleton, signature combination and witness replay are the
b-coloring ones.  A fall coloring exists iff the reference root table
holds k classes of type (CONTAINS,) with bit 0.  compute_fall_tables
builds that reference by default; the one decision, _decide, behind
solve_fallcoloring and solve_fallcoloring_witness, asks it to decide k
classes of type (NONE,) with bit 0 (decision_accepting) instead, so its
tables are canonical and drop the types of the demand rule as in
bcol_dp._decision_tables; that root has no b-vertex class, so no pair is
skipped and the supply rule drops nothing.  Every table keeps each
signature's first child pair and its root, so a witness is replayed
(bcol_dp._realize) from the very tables the decision reads.
"""

from __future__ import annotations

from . import oracle
from .bcol_dp import (
    CONTAINS,
    DEMAND,
    ClassType,
    DPTable,
    Signature,
    _realize,
    _run_dp,
    decision_accepting,
    signature,
)
from .decomposition import RootedBranchDecomposition
from .errors import InputError
from .graph import Coloring, Graph


def fall_leaf_signature(k: int) -> Signature:
    """The only signature at a leaf: the vertex's own color holds it (and it
    must be a b-vertex), the other k-1 colors owe it a neighbor."""
    if k < 1:
        raise InputError(f"number of colors must be positive, got {k}")
    return signature(
        {ClassType((CONTAINS,), 0): 1, ClassType((DEMAND,), 0): k - 1}, k
    )


def compute_fall_tables(
    g: Graph,
    d: RootedBranchDecomposition,
    k: int,
    *,
    canonical: bool = False,
) -> DPTable:
    """The fall-coloring DP.  By default its tables are the unpruned
    reference; canonical=True gives the decision tables, which decide
    decision_accepting(d, k, 0), canonical at each node's dead class and
    less the types of the demand rule.

    The tables are sound as in bcol_dp._decision_tables: each canonical
    table is the canonical image of the reference one, less the signatures
    holding a type the demand rule drops.  DEMAND means here that a vertex
    of the class still lacks a neighbor of this color, which must lie in
    its outside neighborhood and take the color, so the rule and its
    proof read the same.  At the root, a class of type (NONE,) in the
    reference table would be an empty color class; for k >= 2 every vertex
    of another color still demands it, so its type is DEMAND, and for k = 1
    the one class holds every vertex.  So only the reference's accepting
    signature maps to the canonical one.
    """
    seeds = [(fall_leaf_signature(k),)] * g.n
    return _run_dp(g, d, k, seeds, decision_accepting(d, k, 0) if canonical else None)


def solve_fallcoloring(g: Graph, d: RootedBranchDecomposition, k: int) -> bool:
    """Does V(g) partition into k independent dominating sets?"""
    return _decide(g, d, k, witness=False)[0]


def solve_fallcoloring_witness(
    g: Graph, d: RootedBranchDecomposition, k: int
) -> Coloring | None:
    """A fall coloring with k colors, or None; re-checked before return."""
    return _decide(g, d, k, witness=True)[1]


def _refuted_by_degrees(g: Graph, k: int) -> bool:
    """True when the degrees alone rule out a fall k-coloring: every vertex
    must be a b-vertex, so its degree is at least k-1, and one color class
    is independent only in an edgeless graph.  Raises InputError for
    k < 1."""
    if k < 1:
        raise InputError(f"number of colors must be positive, got {k}")
    return k > g.min_degree() + 1 or (k == 1 and g.edge_count > 0)


def _decide(
    g: Graph, d: RootedBranchDecomposition, k: int, witness: bool
) -> tuple[bool, Coloring | None]:
    """The fall-coloring decision at k: the answer, and the witness when
    asked for and found, checked against the definition, else None."""
    if _refuted_by_degrees(g, k):
        return False, None
    table = compute_fall_tables(g, d, k, canonical=True)
    if table.accepting not in table.tables[d.root]:
        return False, None
    if not witness:
        return True, None
    coloring, _ = _realize(table, d)
    if not oracle.is_fall_coloring(g, coloring):
        raise RuntimeError("reconstructed witness failed the fall-coloring check")
    return True, coloring
