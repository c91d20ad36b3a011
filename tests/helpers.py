"""Shared test utilities: brute-force signature enumerators and graph makers.

The enumerators here are the independent oracles for the DP table semantics:
they enumerate partial (b-)colorings of G_t directly from the definitions,
never touching the solver's merge machinery.  The class-type functions they
use (type_of_class, is_valid_class and their fall-coloring twins) are the
paper's definitions, written out directly; the solver never calls them.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

from bcoloring.bcol_dp import CONTAINS, DEMAND, NONE, ClassType, Signature
from bcoloring.decomposition import RootedBranchDecomposition, equivalence_classes
from bcoloring.errors import InputError
from bcoloring.fall_dp import FallType
from bcoloring.graph import Graph


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def relabeled(g: Graph, perm: list[int]) -> Graph:
    """g with vertex v renamed to perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


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
) -> FallType:
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
    return FallType(tuple(cdesc))


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
            out.add(Signature.from_counts(counts, k))
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
        out.add(Signature.from_counts(counts, k))
    return out


def _improper(g, vt, coloring) -> bool:
    return any(
        coloring[u] == coloring[w]
        for u in vt
        for w in g.neighbors(u)
        if w in coloring and u < w
    )


def atlas_connected_corpus(max_n: int = 6) -> list[Graph]:
    """All connected graphs with 1 <= n <= max_n, up to isomorphism."""
    import networkx as nx

    corpus = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if 1 <= n <= max_n and nx.is_connected(G):
            corpus.append(Graph(n, list(G.edges())))
    return corpus
