"""Simple undirected graphs on dense vertex ids 0..n-1, plus colorings.

Graphs are immutable after construction and safe to share between workers.
A graph holds its neighborhoods as sets; the n-bit adjacency masks that
the decomposition passes read are built on the first adjacency_masks()
call and kept, so a run that never decomposes, such as the b-vertex
search, pays no memory quadratic in n for them.
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

    __slots__ = ("n", "_adj", "_masks", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        pairs: list[tuple[int, int]] = []
        # One pass, each edge checked once, in input order: the first
        # offending edge is the one reported.
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            near = adj[u]
            if v in near:
                raise InputError(f"duplicate edge ({u}, {v})")
            near.add(v)
            adj[v].add(u)
            pairs.append((u, v) if u < v else (v, u))
        pairs.sort()
        self._adj = tuple(map(frozenset, adj))
        self._masks: tuple[int, ...] | None = None
        self._edges = tuple(pairs)

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> frozenset[int]:
        """The open neighborhood of v."""
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range for n={self.n}")
        return self._adj[v]

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighborhoods as bitmasks: bit u of entry v is set iff uv is an
        edge.  Built on the first call and kept; two threads that both
        build them get equal tuples."""
        if self._masks is None:
            self._masks = tuple(sum(1 << u for u in near) for near in self._adj)
        return self._masks

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

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

    def m_degree(self) -> int:
        """m(G): the largest i such that at least i vertices have degree at
        least i-1; an upper bound on the b-chromatic number."""
        degrees = sorted((len(a) for a in self._adj), reverse=True)
        return max((i for i, d in enumerate(degrees, 1) if d >= i - 1), default=0)

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


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff every color class is an independent set."""
    if c.n != g.n:
        raise InputError(f"coloring covers {c.n} vertices, graph has {g.n}")
    return all(c.colors[u] != c.colors[v] for u, v in g.edges())
