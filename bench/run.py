"""The bcoloring benchmark: one workload, closed loop, checked answers.

    python3 bench/run.py --workload bchrom-gnp --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ./src.  One
client sends CLI requests (`bcoloring.cli.main(argv)`, in-process) one after
another, each on a DIMACS file written during set-up, and checks every JSON
answer, exit code, witness and decomposition file with check.py.

--trace 0 makes one whole pass over the run's requests and goes on with
them until --seconds have passed, and reports the end-to-end metrics.
Their times are in seconds at a reference speed (see speed.py): a speed
probe runs between requests, and each request's time is scaled by the
probes on either side of it, so the shared machine's drift in speed
cancels.  --trace 1 runs every request once untraced and once traced, so
its counts depend only on the seed and the code, and reports the
per-layer metrics and the tracing overhead in measured seconds; the spans
go to bench/out/.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 1 if
any answer is wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import check  # noqa: E402
import corpus  # noqa: E402
import speed  # noqa: E402
from spans import COUNT_METRICS, Tracer  # noqa: E402

# Per-request limit in seconds; a request that overruns it is interrupted
# and counts as failed.  BENCHMARK.json states the same values.
LIMITS = {"bchrom-gnp": 20.0, "sparse-large": 30.0, "decide-mixed": 20.0}
SETUP_REPEATS = 9
# Keeps a run well inside three minutes even if a pass becomes very slow.
HARD_STOP_S = 120.0


class Overrun(Exception):
    pass


def _on_alarm(signum, frame):
    raise Overrun()


def _import_cli():
    """A fresh import of the package, so every set-up pays the import."""
    for name in [m for m in sys.modules if m == "bcoloring" or m.startswith("bcoloring.")]:
        del sys.modules[name]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        return importlib.import_module("bcoloring.cli")
    finally:
        sys.path.pop(0)


class Call:
    """A request bound to its files in the work directory."""

    def __init__(self, req: corpus.Request, index: int, workdir: str):
        self.req = req
        self.graph_path = os.path.join(workdir, f"g{index}.col")
        self.dec_path = os.path.join(workdir, f"g{index}.dec")
        self.argv = [a.format(graph=self.graph_path, dec=self.dec_path) for a in req.argv]
        self.decompose = req.argv[0] == "decompose"


def execute(cli, call: Call, limit: float, span=contextlib.nullcontext) -> tuple[float, str | None, bool]:
    """Run one request; (seconds, problem or None, whether it overran).
    The collector runs first, untimed, so that no request pays for the
    garbage of the ones before it."""
    out = io.StringIO()
    code = None
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        with span(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(call.argv)
    except Overrun:
        return time.perf_counter() - start, f"overran the {limit:g} s limit", True
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a request that raises is a failed request
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}", False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    doc = None
    if code == 0:
        try:
            doc = json.loads(out.getvalue())
        except ValueError:
            pass
    dec_text = None
    if call.decompose and code == 0:
        with open(call.dec_path, "r", encoding="utf-8") as handle:
            dec_text = handle.read()
    return elapsed, check.result_problem(call.req, code, doc, dec_text), False


def set_up(workload: str, seed: int, workdir: str):
    """Import, build the corpus, write the graph files, one warm-up request."""
    start = time.perf_counter()
    cli = _import_cli()
    pools = corpus.load_pools()
    requests = [corpus.warm_up(workload, pools)] + corpus.WORKLOADS[workload](seed, pools)
    calls = [Call(req, i, workdir) for i, req in enumerate(requests)]
    for call in calls:
        with open(call.graph_path, "w", encoding="utf-8") as handle:
            handle.write(call.req.graph.dimacs())
    warm = calls.pop(0)
    _, problem, _ = execute(cli, warm, LIMITS[workload])
    if problem:
        raise SystemExit(f"warm-up request {warm.req.name} failed: {problem}")
    return time.perf_counter() - start, cli, calls


class Tally:
    """Outcomes of the requests run so far.  A request's time to verdict is
    its median over the times it ran, so the distribution always has one
    sample per request, however much of a second pass fits in a run."""

    def __init__(self, limit: float):
        self.limit = limit
        self.times: dict[int, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def add(self, index: int, call: Call, elapsed: float, problem: str | None, overran: bool) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            # a failed request counts as missing any latency limit
            elapsed = max(elapsed, self.limit)
            if overran:
                print(f"FAILED {call.req.name}: {problem}", file=sys.stderr)
            else:
                self.wrong.append(f"{call.req.name}: {problem}")
        self.times.setdefault(index, []).append(elapsed)

    def latencies(self) -> list[float]:
        return [statistics.median(t) for t in self.times.values()]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with
    at least ten samples beyond it; the maximum if there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def measure(cli, calls, seconds: float, limit: float) -> tuple[Tally, float]:
    """One whole pass over the requests, so that every request has a time,
    then on through the passes until --seconds have passed; the first pass
    is cut only beyond HARD_STOP_S.  Times are scaled to the reference
    speed by the probes on either side of each request."""
    tally = Tally(limit)
    start = time.perf_counter()
    before = speed.probe()
    passes = 0
    while True:
        for i, call in enumerate(calls):
            elapsed, problem, overran = execute(cli, call, limit)
            after = speed.probe()
            tally.add(i, call, speed.scale(elapsed, before, after), problem, overran)
            before = after
            wall = time.perf_counter() - start
            if wall > HARD_STOP_S or (passes and wall >= seconds):
                return tally, wall
        passes += 1
        if time.perf_counter() - start >= seconds:
            return tally, time.perf_counter() - start


def fingerprint() -> str:
    """Hash of everything the counts depend on: package, benchmark, Python."""
    digest = hashlib.sha256(sys.version.encode())
    for folder in (os.path.join(ROOT, "src", "bcoloring"), HERE, os.path.join(HERE, "expected")):
        for name in sorted(os.listdir(folder)):
            if name.endswith((".py", ".json")):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    return digest.hexdigest()


def compare_counts(workload: str, seed: int, metrics: dict) -> list[str]:
    """Differences from the last traced run of the same code and seed."""
    path = os.path.join(OUT, f"counts-{workload}-seed{seed}.json")
    current = {"fingerprint": fingerprint(), "counts": {k: metrics[k] for k in COUNT_METRICS}}
    differences = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            previous = json.load(handle)
        if previous["fingerprint"] == current["fingerprint"]:
            differences = [
                f"{k}: {previous['counts'][k]} then {v}"
                for k, v in current["counts"].items()
                if previous["counts"].get(k) != v
            ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(current, handle, indent=1, sort_keys=True)
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    limit = LIMITS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = speed.probe()
            setup_s, cli, calls = set_up(args.workload, args.seed, workdir)
            setups.append(speed.scale(setup_s, before, speed.probe()))
        # the benchmark's own objects need no more collecting
        gc.collect()
        gc.freeze()
        if args.trace:
            tally, metrics = traced(cli, calls, args, limit)
        else:
            tally, wall = measure(cli, calls, args.seconds, limit)
            metrics = end_to_end(args.workload, tally, wall, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in tally.wrong:
        print(f"WRONG {line}", file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def end_to_end(workload: str, tally: Tally, wall: float, setups: list[float]) -> dict:
    latencies = tally.latencies()
    tail_s, tail_pct, beyond = tail(latencies)
    ok_share = (tally.attempted - tally.failed) / tally.attempted
    print(
        f"{workload}: {tally.attempted} requests in {wall:.2f} s of wall time, {tally.failed} failed; "
        f"verdict_tail_s is p{tail_pct:.1f} of {len(latencies)} per-request medians ({beyond} beyond it); "
        f"setup_s is the median of {len(setups)} set-ups"
    )
    return {
        # correct answers per second of time to verdict, over one pass
        "verdicts_per_s": {"value": ok_share * len(latencies) / sum(latencies), "unit": "1/s"},
        "verdict_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "verdict_tail_s": {"value": tail_s, "unit": "s"},
        "ok_share": {"value": ok_share, "unit": "ratio"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def traced(cli, calls, args, limit: float) -> tuple[Tally, dict]:
    """Each request once untraced and once traced, back to back in
    alternating order, so that the machine's drift, which is larger than
    the overhead, cancels from their difference."""
    tracer = Tracer()
    plain, tally = Tally(limit), Tally(limit)
    untraced_s = traced_s = 0.0
    start = time.perf_counter()
    ran = []
    for i, call in enumerate(calls):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    outcome = execute(cli, call, limit, lambda: tracer.request(call.req.name))
                finally:
                    tracer.uninstall()
                tally.add(i, call, *outcome)
                traced_s += outcome[0]
            else:
                outcome = execute(cli, call, limit)
                plain.add(i, call, *outcome)
                untraced_s += outcome[0]
        ran.append(call)
        # cut only if the program became several times slower
        if time.perf_counter() - start > HARD_STOP_S - 2 * limit:
            break
    tally.wrong += plain.wrong
    tally.failed += plain.failed
    tally.attempted += plain.attempted
    fall_requests = sum(1 for c in ran if c.req.argv[0] == "fallcol")
    values = tracer.metrics(fall_requests)
    values.update(
        {
            "trace.requests": len(ran),
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
        }
    )
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl.gz"))
    differences = compare_counts(args.workload, args.seed, values)
    values["trace.counts_differing"] = len(differences)
    for line in differences:
        print(f"COUNTS DIFFER from the previous traced run: {line}", file=sys.stderr)
        tally.wrong.append(f"count {line}")
    print(
        f"{args.workload}: {len(ran)} requests, {traced_s:.2f} s traced, {untraced_s:.2f} s untraced, "
        f"overhead {traced_s - untraced_s:+.2f} s; {len(tracer.spans)} spans written to bench/out/"
    )
    return tally, {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
