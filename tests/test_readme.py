"""The README's library quick start runs, and each commented result holds;
its CLI example prints the document the README shows."""

import ast
import contextlib
import io
import json
import pathlib
import shlex

from bcoloring.cli import main

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
    assert checked == 8


def cli_example() -> tuple[str, str, list[str], dict]:
    """The example's graph file name and text, its argv and its document."""
    section = README.read_text(encoding="utf-8").split("## Command-line interface", 1)[1]
    session = section.split("```sh\n$ ", 1)[1].split("```", 1)[0]
    cat, _, rest = session.partition("\n")
    file_text, _, command = rest.partition("$ ")
    document = section.split("```json\n", 1)[1].split("```", 1)[0]
    argv = shlex.split(command)
    assert cat.startswith("cat ") and argv[0] == "bcoloring"
    return cat[len("cat ") :], file_text, argv[1:], json.loads(document)


def test_cli_example_output(tmp_path, monkeypatch):
    name, file_text, argv, expected = cli_example()
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(file_text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    result = json.loads(out.getvalue())
    del result["stats"]["wall_time_s"], expected["stats"]["wall_time_s"]
    assert result == expected
