"""Re-measure the single-call figures quoted under "Baseline" in ROADMAP.md.

    python3 bench/roadmap_figures.py

These are one-off timings of library calls, outside the CLI and outside the
workloads, printed as a table.  They exist so that the ROADMAP figures can be
compared with the benchmark's seed baseline (see bench/README.md).  The
ROADMAP does not say which G(12, 0.3) graph it timed, so several seeded ones
are reported.  Takes about a minute.
"""

from __future__ import annotations

import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from bcoloring import Graph, best_decomposition, compute_tables, module_width  # noqa: E402
from bcoloring import solve_bcoloring_vc  # noqa: E402

import corpus  # noqa: E402


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def main() -> None:
    print(f"{'figure':44s} {'seconds':>9s}  detail")
    for seed in range(3):
        g = corpus.gnp(12, 0.3, random.Random(f"gnp12/{seed}"))
        graph = Graph(g.n, g.edges)
        d = best_decomposition(graph)
        table, seconds = timed(compute_tables, graph, d, 7)
        detail = f"w={module_width(graph, d)}, max table {table.max_table_size()}"
        print(f"{f'compute_tables G(12,0.3) seed {seed}, k=7':44s} {seconds:9.3f}  {detail}")
    for n in (400, 800):
        graph = Graph(n, corpus.path(n).edges)
        _, seconds = timed(best_decomposition, graph)
        print(f"{f'best_decomposition heuristic, path n={n}':44s} {seconds:9.3f}")
    for n in (10, 12, 14):
        graph = Graph(n, corpus.cycle(n).edges)
        answer, seconds = timed(solve_bcoloring_vc, graph, 4)
        print(f"{f'solve_bcoloring_vc C_{n}, k=4':44s} {seconds:9.3f}  answer {answer}")


if __name__ == "__main__":
    main()
