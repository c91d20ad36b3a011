"""Fall coloring (partition into independent dominating sets) decision.

Reuses the b-coloring table machinery with three changes: types drop the
b-vertex bit, a class owes a future neighbor to an equivalence class
whenever *any* vertex there lacks contact with it, and every leaf seeds the
single signature that claims its vertex as a b-vertex for its color.  The
NONE label is kept even though it could be folded away, so the merge and
signature code is shared verbatim with the b-coloring solver.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .bcol_dp import (
    CONTAINS,
    DEMAND,
    NONE,
    DPTable,
    MergeSkeleton,
    Signature,
    _build_skeleton,
    _desc_compatible,
    _merge_cdesc,
    _realize,
    _run_dp,
)
from .decomposition import NodeOperator, RootedBranchDecomposition
from .errors import InputError, StructuralError
from .graph import Coloring, Graph


class FallType(NamedTuple):
    """Type of a color class for fall coloring: per-class labels only."""

    cdesc: tuple[int, ...]


def fall_compatible(rho: FallType, sigma: FallType, op: NodeOperator) -> bool:
    """Like the b-coloring compatibility, minus the b-vertex condition."""
    if len(rho.cdesc) != len(op.bubble_r) or len(sigma.cdesc) != len(op.bubble_s):
        raise InputError("type width does not match operator class counts")
    return _desc_compatible(rho.cdesc, sigma.cdesc, op)


def fall_merge_type(rho: FallType, sigma: FallType, op: NodeOperator) -> FallType:
    if not fall_compatible(rho, sigma, op):
        raise InputError("fall_merge_type requires a compatible pair of types")
    return FallType(_merge_cdesc(rho.cdesc, sigma.cdesc, op))


def build_fall_skeleton(
    op: NodeOperator, r_types: Iterable[FallType], s_types: Iterable[FallType]
) -> MergeSkeleton:
    def merge_unchecked(rho, sigma, operator):
        return FallType(_merge_cdesc(rho.cdesc, sigma.cdesc, operator))

    return _build_skeleton(
        op, list(r_types), list(s_types), fall_compatible, merge_unchecked
    )


def fall_leaf_signature(k: int) -> Signature:
    """The only signature at a leaf: the vertex's own color holds it (and it
    must be a b-vertex), the other k-1 colors owe it a neighbor."""
    if k < 1:
        raise InputError(f"number of colors must be positive, got {k}")
    return Signature.from_counts(
        {FallType((CONTAINS,)): 1, FallType((DEMAND,)): k - 1}, k
    )


def fall_accepting_signature(k: int) -> Signature:
    return Signature.from_counts({FallType((CONTAINS,)): k}, k)


def compute_fall_tables(
    g: Graph, d: RootedBranchDecomposition, k: int, witness: bool = False
) -> DPTable:
    return _run_dp(g, d, k, (fall_leaf_signature(k),), build_fall_skeleton, witness)


def solve_fallcoloring(g: Graph, d: RootedBranchDecomposition, k: int) -> bool:
    """Does V(g) partition into k independent dominating sets?"""
    if k < 1:
        raise InputError(f"number of colors must be positive, got {k}")
    if _prune(g, k):
        return False
    table = compute_fall_tables(g, d, k)
    return fall_accepting_signature(k) in table.tables[d.root]


def _prune(g: Graph, k: int) -> bool:
    # Every vertex must be a b-vertex, so its degree is at least k-1.
    if k > g.min_degree() + 1:
        return True
    if k == 1 and g.edge_count > 0:
        return True
    return False


def _fall_leaf_realize(v: int, sig: Signature, k: int):
    if sig != fall_leaf_signature(k):
        raise StructuralError(f"unexpected fall leaf signature {sig}")
    classes = [frozenset({v})] + [frozenset()] * (k - 1)
    types = [FallType((CONTAINS,))] + [FallType((DEMAND,))] * (k - 1)
    return classes, types, frozenset()


def solve_fallcoloring_witness(
    g: Graph, d: RootedBranchDecomposition, k: int
) -> Coloring | None:
    """A fall coloring with k colors, or None; re-checked before return."""
    if k < 1:
        raise InputError(f"number of colors must be positive, got {k}")
    if _prune(g, k):
        return None
    table = compute_fall_tables(g, d, k, witness=True)
    if fall_accepting_signature(k) not in table.tables[d.root]:
        return None
    classes, _, _ = _realize(table, d, fall_accepting_signature(k), _fall_leaf_realize)
    colors = [0] * g.n
    for i, cls in enumerate(sorted(classes, key=min), start=1):
        for v in cls:
            colors[v] = i
    witness = Coloring(tuple(colors), k)
    from .oracle import is_fall_coloring

    if not is_fall_coloring(g, witness):
        raise StructuralError("reconstructed witness failed the fall-coloring check")
    return witness
