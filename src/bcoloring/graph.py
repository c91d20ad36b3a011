"""Simple undirected graphs on dense vertex ids 0..n-1, plus colorings.

Graphs are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InputError


class Graph:
    """Immutable simple undirected graph.

    Vertices are the integers 0..n-1.  Self-loops and duplicate edges are
    rejected at construction rather than silently dropped.
    """

    __slots__ = ("n", "_adj", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        self.n = n
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
        self._adj = tuple(frozenset(s) for s in adj)
        self._edges = tuple(sorted(seen))

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> frozenset[int]:
        """The open neighborhood of v."""
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range for n={self.n}")
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as sorted (u, v) pairs with u < v."""
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def min_degree(self) -> int:
        return min((len(a) for a in self._adj), default=0)

    def induced_subgraph(self, s: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """The subgraph induced by s, together with the old->new id remap."""
        kept = sorted(set(s))
        for v in kept:
            if not (0 <= v < self.n):
                raise InputError(f"vertex {v} out of range for n={self.n}")
        remap = {old: new for new, old in enumerate(kept)}
        kept_set = set(kept)
        edges = [
            (remap[u], remap[v])
            for u, v in self._edges
            if u in kept_set and v in kept_set
        ]
        return Graph(len(kept), edges), remap

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self._edges)})"

    # Small named constructors used throughout tests and the selftest sweep.

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise InputError(f"cycle needs at least 3 vertices, got {n}")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def star(cls, leaves: int) -> "Graph":
        """K_{1,leaves} with the center at vertex 0."""
        return cls(leaves + 1, [(0, i) for i in range(1, leaves + 1)])

    @classmethod
    def edgeless(cls, n: int) -> "Graph":
        return cls(n, [])


@dataclass(frozen=True)
class Coloring:
    """A total assignment of colors 1..k to vertices 0..n-1.

    Color classes may be empty unless an operation's contract says otherwise.
    """

    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise InputError(f"number of colors must be nonnegative, got {self.k}")
        for v, c in enumerate(self.colors):
            if not (1 <= c <= self.k):
                raise InputError(f"vertex {v} has color {c} outside 1..{self.k}")

    @property
    def n(self) -> int:
        return len(self.colors)

    def classes(self) -> tuple[frozenset[int], ...]:
        """Color classes 1..k in order, empty ones included."""
        buckets: list[set[int]] = [set() for _ in range(self.k)]
        for v, c in enumerate(self.colors):
            buckets[c - 1].add(v)
        return tuple(frozenset(b) for b in buckets)

    def nonempty_class_count(self) -> int:
        return len(set(self.colors))


def neighbors(g: Graph, v: int) -> frozenset[int]:
    """N_G(v); never contains v itself."""
    return g.neighbors(v)


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff every color class is an independent set."""
    if c.n != g.n:
        raise InputError(f"coloring covers {c.n} vertices, graph has {g.n}")
    return all(c.colors[u] != c.colors[v] for u, v in g.edges())


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    return g.induced_subgraph(s)
