"""The README's library quick start runs, and each commented result holds."""

import ast
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_results():
    block = quick_start_block()
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(source, namespace)
            continue
        # An expression line ends with "# <repr of its result>", optionally
        # followed by a remark in parentheses.
        _, _, comment = lines[stmt.end_lineno - 1].partition("# ")
        result = repr(eval(source, namespace))
        assert comment == result or comment.startswith(result + " ("), source
        checked += 1
    assert checked == 7
