"""The benchmark's tracer binds package functions by name; keep them bound.

bench/spans.py lists, per module, the functions it wraps (TRACED) and the
generators whose yields it counts (COUNTED), and reads span attributes from
some calls' arguments and results (ATTRS).  A rename or deletion there
would only show in a traced bench run; these tests read the lists from the
file as it is, check every name against the package, and run every ATTRS
function on a real call.
"""

import importlib
import importlib.util
import inspect
import pathlib

from bcoloring import Graph, bcol_dp, best_decomposition

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_and_counted_names_are_bound():
    spans = load_spans()
    for module_name, names in spans.TRACED.items():
        module = importlib.import_module(f"bcoloring.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
    for qualified in spans.COUNTED:
        module_name, name = qualified.split(".")
        fn = getattr(importlib.import_module(f"bcoloring.{module_name}"), name, None)
        assert inspect.isgeneratorfunction(fn), qualified


def test_span_attributes_read_real_results():
    # ATTRS reads fields that the package itself does not (DPTable.k and
    # .root, MergeSkeleton.edges) and combine_signatures' positional
    # arguments.  Each ATTRS function runs here on a real call's arguments
    # and result, so a change to those fields fails here, not in a traced
    # bench run.
    spans = load_spans()
    g = Graph.cycle(6)
    d = best_decomposition(g, "heuristic")
    table = bcol_dp.compute_tables(g, d, 3)
    t = d.root
    r, s = d.children(t)
    combine_args = (list(table.tables[r]), list(table.tables[s]), table.skeletons[t], 3)
    calls = {
        "bcol_dp.combine_signatures": (
            combine_args,
            {
                "tr": len(table.tables[r]),
                "ts": len(table.tables[s]),
                "edges": sum(len(row) for row in table.skeletons[t].rows.values()),
                "tt": len(table.tables[t]),
            },
        ),
        "bcol_dp.compute_tables": ((g, d, 3), {"k": 3, "feasible": True}),
        "decomposition.module_width": ((g, d), {"width": 3}),
        "vc_solver.min_vertex_cover": ((g,), {"cover": 3}),
        "vc_solver.solve_bcoloring_vc": ((g, 3), {"ok": True}),
        "vc_solver.solve_bcoloring_vc_witness": ((g, 3), {"ok": True}),
    }
    assert set(calls) == set(spans.ATTRS)
    for name, (args, expected) in calls.items():
        module_name, fn_name = name.split(".")
        fn = getattr(importlib.import_module(f"bcoloring.{module_name}"), fn_name)
        assert spans.ATTRS[name](args, fn(*args)) == expected, name
