"""Compute the frozen pool answers in expected/pools.json.

    python3 bench/freeze.py

Run it when a pool generator in corpus.py changes or a pool grows; it
recomputes only new or changed entries, at up to a minute each on one
core.  The answers come from routes that the workloads do not time:

* gnp and small pools (n <= 10): the brute-force oracle decides every k up
  to the m-degree bound m(G); larger k are infeasible because
  chi_b(G) <= m(G) (Irving & Manlove 1999).  The cw route's b-chromatic
  number must agree.
* vc pool: k = c and c + 1 for the cover number c, found here by exhaustive
  subset search.  The cw route gives the answer and the vc route must agree.
* Q3 fall colorings: the oracle for every k up to min degree + 1.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bcoloring import Graph, b_chromatic_number, best_decomposition, oracle  # noqa: E402
from bcoloring import solve_bcoloring, solve_bcoloring_vc  # noqa: E402

import corpus  # noqa: E402


def to_graph(g: corpus.G) -> Graph:
    return Graph(g.n, g.edges)


def m_degree(g: corpus.G) -> int:
    """The largest i such that g has i vertices of degree at least i - 1."""
    degrees = sorted((len(a) for a in g.adjacency()), reverse=True)
    return max((i for i in range(1, g.n + 1) if degrees[i - 1] >= i - 1), default=0)


def cover_number(g: corpus.G) -> int:
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return size
    return g.n


def oracle_entry(g: corpus.G) -> dict:
    graph = to_graph(g)
    m = m_degree(g)
    feasible = [
        k for k in range(1, m + 1) if oracle.brute_force_bcoloring(graph, k) is not None
    ]
    cw = b_chromatic_number(graph, best_decomposition(graph))
    if cw != max(feasible):
        raise SystemExit(f"cw chi_b {cw} disagrees with oracle {max(feasible)}")
    return {
        "digest": g.digest(),
        "n": g.n,
        "m_degree": m,
        "feasible": feasible,
        "source": "oracle for k <= m(G), m-degree bound above",
    }


def vc_entry(g: corpus.G) -> dict:
    graph = to_graph(g)
    c = cover_number(g)
    d = best_decomposition(graph)
    answers = {}
    for k in (c, c + 1):
        cw = solve_bcoloring(graph, d, k)
        if cw != solve_bcoloring_vc(graph, k):
            raise SystemExit(f"cw and vc disagree at k={k}")
        answers[str(k)] = cw
    return {"digest": g.digest(), "n": g.n, "cover": c, "answers": answers, "source": "cw+vc"}


def main() -> None:
    """Recompute only entries whose graph is new or changed."""
    old: dict = {}
    if os.path.exists(corpus.POOLS_PATH):
        with open(corpus.POOLS_PATH, "r", encoding="utf-8") as handle:
            old = json.load(handle)
    pools: dict = {}
    for name, (size, make) in corpus.POOL_GRAPHS.items():
        entries = []
        for i in range(size):
            start = time.perf_counter()
            g = make(i)
            previous = old.get(name, [])
            if i < len(previous) and previous[i]["digest"] == g.digest():
                entries.append(previous[i])
                continue
            entries.append(vc_entry(g) if name == "vc" else oracle_entry(g))
            print(f"{name}[{i}] n={g.n} {time.perf_counter() - start:.1f}s", flush=True)
        pools[name] = entries
    q3 = to_graph(corpus.hypercube(3))
    pools["fall"] = {
        "Q3": {
            "feasible": [
                k for k in range(1, q3.min_degree() + 2)
                if oracle.brute_force_fallcoloring(q3, k) is not None
            ],
            "source": "oracle",
        }
    }
    os.makedirs(os.path.dirname(corpus.POOLS_PATH), exist_ok=True)
    with open(corpus.POOLS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pools, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
