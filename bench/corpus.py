"""Benchmark inputs: graph families, frozen pools and per-run request lists.

Everything here is deterministic: a graph is a function of its family, its
pool index or its slot, and the run seed.  No module of the `bcoloring`
package is imported, so the inputs and their expected answers never depend
on the code being measured.

Each request records where its expected answer comes from:

* ``closed-form`` -- a known value for a structured family (cycles,
  complete multipartite graphs, rook's graphs, bipartite graphs);
* ``construction`` -- a b-coloring the benchmark builds itself (see
  ``check.three_b_coloring``), which proves that the answer is true;
* ``oracle`` / ``cw+vc`` -- values computed once by ``freeze.py`` and
  stored in ``expected/pools.json``.  A pool graph is identified by its
  index and an edge digest, so a change to a generator is detected instead
  of being checked against stale answers;
* ``emitted decomposition`` -- a decompose answer must equal the width
  that check.py recomputes from the file the request wrote.

A run uses every graph of its pools in a seeded order, so every run
measures the same mix.  Drawing a different subset of a pool per seed was
tried and rejected: one n = 10 graph can cost a quarter of a pass, so the
metrics then measured which graphs were drawn more than the program.

Only decompose inputs get a random relabelling from the seed, so that the
decomposition heuristic's label sensitivity stays visible.  Graphs that
the DP solves on a heuristic decomposition are at most reflected along
their natural order (see shift), and neither G(n,p) nor cover graphs are
relabelled: the heuristic decompositions, and the vc solver's guess order,
follow the labels, and random relabelling moved the bchrom-gnp throughput
by 10% and the decide-mixed median by 15% from seed to seed.  Answers are
invariant under relabelling, so the frozen values hold for every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
POOLS_PATH = os.path.join(HERE, "expected", "pools.json")


@dataclass(frozen=True)
class G:
    """A simple undirected graph on vertices 0..n-1 with sorted edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def dimacs(self) -> str:
        lines = [f"p edge {self.n} {len(self.edges)}"]
        lines.extend(f"e {u + 1} {v + 1}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.dimacs().encode()).hexdigest()[:16]


def graph(n: int, edges) -> G:
    return G(n, tuple(sorted((min(u, v), max(u, v)) for u, v in edges)))


def relabel(g: G, rng: random.Random) -> G:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def shift(g: G, rng: random.Random, rails: int = 1) -> G:
    """Relabel along the family's natural vertex order, which the generators
    number rail by rail: maybe reflect the order, and for ladders (two
    rails) maybe swap the rails.  The greedy decomposition heuristic keeps
    width 2-4 under these relabellings; a rotation of the order already
    raised a path's width from 2 to 3 and tripled its bcol time, and a
    random relabelling gives widths of 7-30 (see sparse_large)."""
    size = g.n // rails
    flip = rng.random() < 0.5
    swap = rails == 2 and rng.random() < 0.5

    def f(v: int) -> int:
        rail, i = divmod(v, size)
        i = size - 1 - i if flip else i
        rail = rails - 1 - rail if swap else rail
        return rail * size + i

    return graph(g.n, ((f(u), f(v)) for u, v in g.edges))


# --- families ----------------------------------------------------------------


def gnp(n: int, p: float, rng: random.Random) -> G:
    return graph(n, ((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p))


def cover_graph(s: int, t: int, rng: random.Random) -> G:
    """s core vertices with random edges among them, plus t outside vertices,
    each adjacent to a random nonempty subset of the core.  The core is a
    vertex cover, so the cover number is at most s."""
    edges = [(u, v) for u in range(s) for v in range(u + 1, s) if rng.random() < 0.5]
    for x in range(s, s + t):
        nb = [u for u in range(s) if rng.random() < 0.5] or [rng.randrange(s)]
        edges.extend((u, x) for u in nb)
    return graph(s + t, edges)


def path(n: int) -> G:
    return graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> G:
    return graph(n, ((i, (i + 1) % n) for i in range(n)))


def ladder(m: int) -> G:
    """The 2 x m grid."""
    edges = [(i, i + 1) for i in range(m - 1)]
    edges += [(m + i, m + i + 1) for i in range(m - 1)]
    edges += [(i, m + i) for i in range(m)]
    return graph(2 * m, edges)


def caterpillar(n: int, rng: random.Random) -> G:
    """A spine path with 0-2 pendant legs per spine vertex, n vertices."""
    spine = [0]
    edges = []
    v = 1
    while v < n:
        legs = rng.randint(0, 2)
        for _ in range(min(legs, n - v)):
            edges.append((spine[-1], v))
            v += 1
        if v < n:
            edges.append((spine[-1], v))
            spine.append(v)
            v += 1
    return graph(n, edges)


def span_tree(n: int, span: int, rng: random.Random) -> G:
    """A random tree where vertex i hangs from one of the span vertices
    before it, so the natural order has bounded module-width."""
    return graph(n, ((rng.randint(max(0, i - span), i - 1), i) for i in range(1, n)))


def rook(m: int) -> G:
    cells = [(i, j) for i in range(m) for j in range(m)]
    return graph(
        m * m,
        (
            (a, b)
            for a in range(len(cells))
            for b in range(a + 1, len(cells))
            if cells[a][0] == cells[b][0] or cells[a][1] == cells[b][1]
        ),
    )


def hypercube(d: int) -> G:
    return graph(1 << d, ((u, u ^ (1 << b)) for u in range(1 << d) for b in range(d) if u < u ^ (1 << b)))


def multipartite(parts) -> G:
    label = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(label)
    return graph(n, ((u, v) for u in range(n) for v in range(u + 1, n) if label[u] != label[v]))


# --- frozen pools ------------------------------------------------------------
#
# Each pool entry is generated from its own string seed, so adding entries
# never changes earlier ones.  freeze.py computes the answers.

GNP_POOL = 40  # 24 graphs with n = 9, 16 with n = 10
SMALL_POOL = 16  # n = 7 or 8, for single-k cw requests near chi_b
VC_POOL = 28  # 6 graphs with a core of 4, 22 with a core of 5


def gnp_pool_graph(i: int) -> G:
    rng = random.Random(f"bchrom-gnp/{i}")
    n = 9 if i < 24 else 10
    return gnp(n, rng.uniform(0.25, 0.45), rng)


def small_pool_graph(i: int) -> G:
    rng = random.Random(f"small-gnp/{i}")
    n = 7 if i % 2 == 0 else 8
    return gnp(n, rng.uniform(0.3, 0.5), rng)


def vc_pool_graph(i: int) -> G:
    rng = random.Random(f"vc-cover/{i}")
    s = 4 if i < 6 else 5
    return cover_graph(s, rng.randint(8, 14), rng)


POOL_GRAPHS = {
    "gnp": (GNP_POOL, gnp_pool_graph),
    "small": (SMALL_POOL, small_pool_graph),
    "vc": (VC_POOL, vc_pool_graph),
}


def load_pools() -> dict:
    """Frozen pool answers, checked against the generators' current output."""
    with open(POOLS_PATH, "r", encoding="utf-8") as handle:
        pools = json.load(handle)
    for name, (size, make) in POOL_GRAPHS.items():
        entries = pools[name]
        if len(entries) != size:
            raise ValueError(f"pool {name}: {len(entries)} frozen entries, expected {size}")
        for i, entry in enumerate(entries):
            if entry["digest"] != make(i).digest():
                raise ValueError(f"pool {name}[{i}]: generator output differs from frozen graph")
    return pools


# --- requests ------------------------------------------------------------------


@dataclass
class Request:
    """One CLI call: argv with a {graph} placeholder, plus what to expect.

    expect holds "answer" (or None for decompose, whose answer is checked
    against the emitted file), "k" for witnesses, "witness" ("b", "fall" or
    None) and "source" (where the expected answer comes from)."""

    name: str
    graph: G
    argv: list[str]
    expect: dict = field(default_factory=dict)


def _feasible(entry: dict) -> set[int]:
    return set(entry["feasible"])


def bchrom_gnp(seed: int, pools: dict) -> list[Request]:
    """bchrom --witness on every graph of the pool, in seeded order."""
    rng = random.Random(f"bchrom-gnp/run/{seed}")
    out = []
    for i, entry in enumerate(pools["gnp"]):
        chi = max(_feasible(entry))
        out.append(
            Request(
                f"gnp{i}",
                gnp_pool_graph(i),
                ["bchrom", "--graph", "{graph}", "--witness"],
                {"answer": chi, "k": chi, "witness": "b", "source": entry["source"]},
            )
        )
    rng.shuffle(out)
    return out


SPARSE_FAMILIES = ("path", "cycle", "caterpillar", "ladder", "tree")


def _sparse_graph(family: str, n: int, rng: random.Random) -> G:
    if family == "path":
        return path(n)
    if family == "cycle":
        return cycle(n)
    if family == "caterpillar":
        return caterpillar(n, rng)
    if family == "ladder":
        return ladder(n // 2)
    return span_tree(n, 2, rng)


def sparse_large(seed: int, pools: dict) -> list[Request]:
    """Per family: four decompose requests at n = 300 and one bcol --k 3 at
    n = 200, with --witness on alternate families.  Every bcol answer is
    true, proven by a b-coloring the benchmark constructs.

    decompose graphs are relabelled at random, bcol graphs only along their
    natural order (see shift): the heuristic's width on randomly relabelled
    sparse graphs makes the k = 3 DP overrun any sensible limit, while
    decompose reports that width and so keeps it visible."""
    from check import three_b_coloring

    rng = random.Random(f"sparse-large/run/{seed}")
    out = []
    for index, family in enumerate(SPARSE_FAMILIES):
        for slot in range(4):
            out.append(
                Request(
                    f"{family}300-dec{slot}",
                    relabel(_sparse_graph(family, 300, rng), rng),
                    ["decompose", "--graph", "{graph}", "--out", "{dec}"],
                    {"answer": None, "witness": None, "source": "emitted decomposition"},
                )
            )
        g = shift(_sparse_graph(family, 200, rng), rng, 2 if family == "ladder" else 1)
        if three_b_coloring(g) is None:
            raise ValueError(f"no 3-b-coloring constructed for {family}200")
        witness = index % 2 == 0
        argv = ["bcol", "--graph", "{graph}", "--k", "3"] + (["--witness"] if witness else [])
        out.append(
            Request(
                f"{family}200-bcol{'w' if witness else ''}",
                g,
                argv,
                {"answer": True, "k": 3, "witness": "b" if witness else None, "source": "construction"},
            )
        )
    rng.shuffle(out)
    return out


# (name, graph, k, answer) fall cases with closed-form answers: C_n has a
# fall k-coloring iff k = 2 and n is even or k = 3 and 3 | n; the complete
# multipartite graph with r parts and the rook's graph K_m x K_m only for
# k = r and k = m (their only independent dominating sets are the parts,
# and the m-cell partial permutations); a connected bipartite graph with at
# least one edge for k = 2.
FALL_CASES = (
    ("C30", cycle(30), 2, True),
    ("C30", cycle(30), 3, True),
    ("C32", cycle(32), 2, True),
    ("C32", cycle(32), 3, False),
    ("C33", cycle(33), 2, False),
    ("C33", cycle(33), 3, True),
    ("rook3", rook(3), 3, True),
    ("rook3", rook(3), 4, False),
    ("rook4", rook(4), 4, True),
    ("rook4", rook(4), 5, False),
    ("K2-3-4", multipartite((2, 3, 4)), 3, True),
    ("K2-3-4", multipartite((2, 3, 4)), 2, False),
    ("K2-2-3-3", multipartite((2, 2, 3, 3)), 4, True),
    ("K2-2-3-3", multipartite((2, 2, 3, 3)), 3, False),
    ("Q4", hypercube(4), 2, True),
)


def _fall_requests(rng: random.Random, pools: dict) -> list[Request]:
    q3 = pools["fall"]["Q3"]
    cases = [(name, g, k, answer, "closed-form") for name, g, k, answer in FALL_CASES]
    cases += [("Q3", hypercube(3), k, k in q3["feasible"], q3["source"]) for k in (2, 3, 4)]
    out = []
    for idx, (name, g, k, answer, source) in enumerate(cases):
        witness = answer and idx % 2 == 0
        argv = ["fallcol", "--graph", "{graph}", "--k", str(k)]
        if witness:
            argv.append("--witness")
        out.append(
            Request(
                f"fall-{name}-k{k}",
                # only along their order, as in sparse_large
                shift(g, rng),
                argv,
                {"answer": answer, "k": k, "witness": "fall" if witness else None, "source": source},
            )
        )
    return out


def decide_mixed(seed: int, pools: dict) -> list[Request]:
    """Single-k requests: vc at k = cover and cover + 1 on every cover graph,
    fall colorings of structured families, and cw b-coloring with a witness
    on every small graph at k = chi_b - 1, chi_b and chi_b + 1.  The vc
    requests that answer false enumerate every cover guess and are the
    slowest; there are enough of them to hold the tail percentile."""
    rng = random.Random(f"decide-mixed/run/{seed}")
    out = []
    for i, entry in enumerate(pools["vc"]):
        g = vc_pool_graph(i)
        for k_str, answer in sorted(entry["answers"].items()):
            out.append(
                Request(
                    f"vc{i}-k{k_str}",
                    g,
                    ["bcol", "--graph", "{graph}", "--k", k_str, "--solver", "vc"],
                    {"answer": answer, "k": int(k_str), "witness": None, "source": entry["source"]},
                )
            )
    out.extend(_fall_requests(rng, pools))
    for i, entry in enumerate(pools["small"]):
        feasible = _feasible(entry)
        chi = max(feasible)
        g = small_pool_graph(i)
        for k in range(max(2, chi - 1), min(chi + 1, g.n) + 1):
            answer = k in feasible
            out.append(
                Request(
                    f"small{i}-k{k}",
                    g,
                    ["bcol", "--graph", "{graph}", "--k", str(k), "--witness"],
                    {"answer": answer, "k": k, "witness": "b" if answer else None, "source": entry["source"]},
                )
            )
    rng.shuffle(out)
    return out


def warm_up(workload: str, pools: dict) -> Request:
    """The set-up's warm-up request: small, fixed, and of the workload's kind."""
    if workload == "bchrom-gnp":
        entry = pools["gnp"][1]
        chi = max(_feasible(entry))
        return Request(
            "warm-gnp1",
            gnp_pool_graph(1),
            ["bchrom", "--graph", "{graph}", "--witness"],
            {"answer": chi, "k": chi, "witness": "b", "source": entry["source"]},
        )
    if workload == "sparse-large":
        return Request(
            "warm-path100",
            path(100),
            ["decompose", "--graph", "{graph}", "--out", "{dec}"],
            {"answer": None, "witness": None, "source": "emitted decomposition"},
        )
    return Request(
        "warm-C30",
        cycle(30),
        ["fallcol", "--graph", "{graph}", "--k", "3", "--witness"],
        {"answer": True, "k": 3, "witness": "fall", "source": "closed-form"},
    )


WORKLOADS = {
    "bchrom-gnp": bchrom_gnp,
    "sparse-large": sparse_large,
    "decide-mixed": decide_mixed,
}
