"""The machine's current speed, from a fixed pure-Python probe.

On a shared virtual machine the processor's speed drifts by 20-40% over
seconds to minutes (neighbours contend for its caches and cores), which
would swamp any change to the program.  `probe()` times a fixed mix of the
operations the solver spends its time on -- integer arithmetic, frozenset
union and intersection, sorting tuples, dict updates with tuple keys -- and
`scale()` converts a time measured between two probes into seconds at the
reference speed, at which one probe takes REFERENCE_S:

    scaled = measured * REFERENCE_S / mean(probe before, probe after)

The probe depends only on this file, so the parent commit and a change are
scaled alike.  On a machine whose speed does not drift, scaling multiplies
every time by the same constant.
"""

from __future__ import annotations

import gc
import time

# One probe's time on the 2-vCPU machine the benchmark was written on, in
# its faster phases, so that scaled seconds read close to measured ones.
REFERENCE_S = 0.006

_SETS = [frozenset(range(i % 7, i % 7 + 4)) for i in range(64)]
_PAIRS = [((i * 7919) % 1000, i % 13) for i in range(2000)]


def _arithmetic() -> int:
    total = 0
    for i in range(40000):
        total += i * i % 7
    return total


def _sets() -> int:
    total = 0
    for i in range(6000):
        a, b = _SETS[i & 63], _SETS[(i * 7) & 63]
        total += len(a | b) + len(a & b)
    return total


def _sort() -> int:
    return sorted(_PAIRS)[0][0]


def _dict() -> int:
    counts: dict = {}
    for i in range(8000):
        key = (i % 211, i % 7)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def probe() -> float:
    """Seconds one pass over the mix takes now, with the collector off so
    that the program's leftover objects do not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _arithmetic()
        _sets()
        _sort()
        _dict()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds`, measured between probes that took `before` and `after`,
    in seconds at the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
