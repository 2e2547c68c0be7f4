"""scripts/src_lines.py counts a module's code lines without its
docstrings, comments and blank lines."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SAMPLE = '''"""A module docstring
on two lines."""

# a comment
import math  # a trailing comment leaves the line code


class Box:
    """A class docstring."""

    size = 1


def f(x):
    """A function docstring,

    with a blank line."""
    text = """a multi-line string
    that is not a docstring"""
    "a bare string after the first statement is code"
    return math.floor(x), text
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    # code: import, class, size, def, the string's two lines, the bare
    # string and return
    assert src_lines.line_counts(SAMPLE) == (21, 8)


def test_the_package_is_counted_module_by_module(capsys):
    src_lines.main([])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "total", "code"]
    assert [line.split()[0] for line in lines[1:]][-1] == "src/"
    assert "obstructions.py" in [line.split()[0] for line in lines[1:]]
