"""The README's library example runs as written and prints what it says."""

import ast
import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first fenced Python block after `heading` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_in_one_minute_runs_as_written():
    code = _python_block("## Library in one minute")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "True 0"
    assert lines[1] == "{'encryptions': 1, 'sub_calls': 1, 'zero_tests': 1}"
    assert set(ast.literal_eval(lines[2])) == {"encrypt", "combine", "zero_test"}
    # the comments beside the prints say the same
    assert "# True 0" in code
    assert f"# {lines[1]}" in code
