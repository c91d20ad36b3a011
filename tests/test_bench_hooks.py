"""The benchmark's tracer binds package functions by name; keep them bound.

bench/spans.py lists, per module, the functions it wraps (TRACED) and the
generators whose yields it counts (COUNTED).  A rename or deletion there
would only show in a traced bench run; this test reads both lists from the
file as it is and checks every name against the package.
"""

import importlib
import importlib.util
import inspect
import pathlib

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
