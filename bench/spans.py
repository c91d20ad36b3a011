"""Spans and counts around the package's public functions, added from outside.

Tracer.install() replaces each traced function by a wrapper at every place
the package binds its name (the defining module, modules that imported it,
and the package namespace), so calls between modules and inside a module
are both seen; uninstall() puts the originals back.  The package source is
not modified.

A span is [name, parent span id, request id, start, end, attrs].  Spans are
kept in memory and written out once, by write().  A layer's self time is the
time its spans cover minus the time covered by their child spans; the
per-request root span ("request", layer cli) absorbs argument parsing,
dispatch and JSON output.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time

# Traced functions per module: those the per-layer metrics need.
# b_chromatic_number marks the k loop for bcol_dp.k_probed, and the private
# bcol_dp._annotate is traced as its own layer, annotation (class
# partitions and node operators).
TRACED = {
    "cli": ("parse_graph",),
    "decomposition": ("best_decomposition", "module_width", "equivalence_classes"),
    "bcol_dp": (
        "b_chromatic_number",
        "compute_tables",
        "build_merge_skeleton",
        "combine_signatures",
        "reconstruct_witness",
        "_annotate",
    ),
    "fall_dp": ("solve_fallcoloring", "solve_fallcoloring_witness", "compute_fall_tables"),
    "vc_solver": (
        "solve_bcoloring_vc",
        "solve_bcoloring_vc_witness",
        "min_vertex_cover",
        "small_extension_search",
    ),
    "oracle": ("is_b_coloring", "is_fall_coloring"),
}
# Generators whose yields are counted instead of timed.
COUNTED = {"vc_solver.cover_guesses": "vc_solver.guesses"}
LAYERS = ("cli", "decomposition", "annotation", "bcol_dp", "fall_dp", "vc_solver", "oracle")


def layer_of(name: str) -> str:
    if name == "bcol_dp._annotate":
        return "annotation"
    return name.split(".", 1)[0] if "." in name else "cli"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTED.values(), 0)
        self.request_names: list[str] = []
        self._stack: list[int] = []
        self._request = -1
        self._patched: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else None, self._request, time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, name: str):
        """The root span of one CLI request."""
        self._request += 1
        self.request_names.append(name)
        depth = len(self._stack)
        span = self._open("request")
        try:
            yield
        finally:
            # an interrupted request may leave inner spans on the stack
            del self._stack[depth:]
            span[4] = time.perf_counter()

    def _wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return wrapper

    def _count(self, counter: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[counter] += 1
                yield item

        return wrapper

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        package = [m for name, m in list(sys.modules.items()) if name == "bcoloring" or name.startswith("bcoloring.")]
        replace = {}
        for module_name, names in TRACED.items():
            module = sys.modules[f"bcoloring.{module_name}"]
            for fn_name in names:
                fn = getattr(module, fn_name)
                replace[id(fn)] = (fn, self._wrap(f"{module_name}.{fn_name}", fn))
        for qualified, counter in COUNTED.items():
            module_name, fn_name = qualified.split(".")
            fn = getattr(sys.modules[f"bcoloring.{module_name}"], fn_name)
            replace[id(fn)] = (fn, self._count(counter, fn))
        for module in package:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # --- results -----------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines, after a header naming the requests."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"requests": self.request_names, "counts": self.counts}) + "\n")
            for i, (name, parent, request, start, end, attrs) in enumerate(self.spans):
                record = {"id": i, "parent": parent, "request": request, "name": name, "start": start, "end": end}
                if attrs:
                    record.update(attrs)
                handle.write(json.dumps(record) + "\n")

    def metrics(self, fall_requests: int) -> dict[str, float]:
        spans = self.spans
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(spans)
        for name, parent, _, start, end, _ in spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent is not None:
                child_time[parent] += end - start
        self_time = dict.fromkeys(LAYERS, 0.0)
        for i, (name, _, _, start, end, _) in enumerate(spans):
            self_time[layer_of(name)] += (end - start) - child_time[i]
        request_time = total.get("request", 0.0)

        def attr_values(name: str, key: str) -> list:
            return [s[5][key] for s in spans if s[0] == name and s[5]]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def under(i: int, ancestor: str) -> bool:
            parent = spans[i][1]
            while parent is not None:
                if spans[parent][0] == ancestor:
                    return True
                parent = spans[parent][1]
            return False

        probes = [
            s[5]["feasible"]
            for i, s in enumerate(spans)
            if s[0] == "bcol_dp.compute_tables" and under(i, "bcol_dp.b_chromatic_number")
        ]
        combine_out = attr_values("bcol_dp.combine_signatures", "tt")
        vc_ok = sum(attr_values("vc_solver.solve_bcoloring_vc", "ok") + attr_values("vc_solver.solve_bcoloring_vc_witness", "ok"))
        out = {
            "cli.parse_graph_s": total.get("cli.parse_graph", 0.0),
            "decomposition.best_decomposition_s": total.get("decomposition.best_decomposition", 0.0),
            "decomposition.module_width_s": total.get("decomposition.module_width", 0.0),
            "decomposition.module_width_calls": calls.get("decomposition.module_width", 0),
            "decomposition.equivalence_classes_calls": calls.get("decomposition.equivalence_classes", 0),
            "decomposition.width_max": max(attr_values("decomposition.module_width", "width"), default=0),
            "bcol_dp.compute_tables_s": total.get("bcol_dp.compute_tables", 0.0),
            "bcol_dp.combine_signatures_s": total.get("bcol_dp.combine_signatures", 0.0),
            "bcol_dp.build_merge_skeleton_s": total.get("bcol_dp.build_merge_skeleton", 0.0),
            "bcol_dp.table_size_max": max(combine_out, default=0),
            "bcol_dp.table_size_total": sum(combine_out),
            "bcol_dp.skeleton_edges_total": sum(attr_values("bcol_dp.combine_signatures", "edges")),
            "bcol_dp.k_probed": len(probes),
            "bcol_dp.k_feasible_ratio": ratio(sum(probes), len(probes)),
            "bcol_dp.reconstruct_witness_s": total.get("bcol_dp.reconstruct_witness", 0.0),
            "fall_dp.solve_s": total.get("fall_dp.solve_fallcoloring", 0.0)
            + total.get("fall_dp.solve_fallcoloring_witness", 0.0),
            "fall_dp.dp_ratio": ratio(calls.get("fall_dp.compute_fall_tables", 0), fall_requests),
            "vc_solver.solve_s": total.get("vc_solver.solve_bcoloring_vc", 0.0)
            + total.get("vc_solver.solve_bcoloring_vc_witness", 0.0),
            "vc_solver.min_vertex_cover_s": total.get("vc_solver.min_vertex_cover", 0.0),
            "vc_solver.cover_size_max": max(attr_values("vc_solver.min_vertex_cover", "cover"), default=0),
            "vc_solver.guesses": self.counts["vc_solver.guesses"],
            "vc_solver.small_extension_search_calls": calls.get("vc_solver.small_extension_search", 0),
            "vc_solver.guess_success_ratio": ratio(vc_ok, self.counts["vc_solver.guesses"]),
            "oracle.verify_calls": calls.get("oracle.is_b_coloring", 0) + calls.get("oracle.is_fall_coloring", 0),
            "oracle.verify_s": total.get("oracle.is_b_coloring", 0.0) + total.get("oracle.is_fall_coloring", 0.0),
        }
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = self_time[layer]
            out[f"layer.{layer}.share"] = ratio(self_time[layer], request_time)
        out["trace.spans"] = len(spans)
        return out


def _dp_table_attrs(args, result):
    from bcoloring.bcol_dp import accepting_signature

    return {"k": result.k, "feasible": accepting_signature(result.k) in result.tables[result.root]}


# Per-span attributes, computed from the call's arguments and result after
# the span has closed, so their cost is not charged to the layer.
ATTRS = {
    "bcol_dp.combine_signatures": lambda args, result: {
        "tr": len(args[0]),
        "ts": len(args[1]),
        "edges": len(args[2].edges),
        "tt": len(result),
    },
    "bcol_dp.compute_tables": _dp_table_attrs,
    "decomposition.module_width": lambda args, result: {"width": result},
    "vc_solver.min_vertex_cover": lambda args, result: {"cover": len(result)},
    "vc_solver.solve_bcoloring_vc": lambda args, result: {"ok": result is not None and result is not False},
    "vc_solver.solve_bcoloring_vc_witness": lambda args, result: {"ok": result is not None},
}

# Counts that depend only on the inputs and the code; two traced runs of one
# commit with one seed must report them identically.
COUNT_METRICS = (
    "decomposition.module_width_calls",
    "decomposition.equivalence_classes_calls",
    "decomposition.width_max",
    "bcol_dp.table_size_max",
    "bcol_dp.table_size_total",
    "bcol_dp.skeleton_edges_total",
    "bcol_dp.k_probed",
    "bcol_dp.k_feasible_ratio",
    "fall_dp.dp_ratio",
    "vc_solver.cover_size_max",
    "vc_solver.guesses",
    "vc_solver.small_extension_search_calls",
    "vc_solver.guess_success_ratio",
    "oracle.verify_calls",
    "trace.spans",
)
