"""scripts/cli_lines.py lists the executable lines that did not run, and
splits them into raise paths and the rest."""

import ast
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_lines.py"
spec = importlib.util.spec_from_file_location("cli_lines", SCRIPT)
cli_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_lines)

SAMPLE = '''"""A module docstring."""

import math


def root(x):
    """A function docstring is no executable line."""
    if x < 0:
        raise ValueError("negative")
    try:
        y = math.sqrt(x)
    except ValueError:
        y = 0
    if y > 10:
        return None
    return y
'''

# the lines that root(4) runs, with the module's own
RAN = {1, 3, 6, 8, 10, 11, 14, 16}


def test_lines_not_run_split_into_raise_paths_and_the_rest():
    # the raise, the except clause and its body; then the early return
    assert cli_lines.missed(SAMPLE, RAN) == ([9, 12, 13], [15])
    assert cli_lines.missed(SAMPLE, RAN | {9, 12, 13, 15}) == ([], [])


def test_blank_lines_comments_and_docstrings_are_not_executable():
    code = compile(SAMPLE, "<sample>", "exec")
    assert cli_lines.executable_lines(code) == RAN | {9, 12, 13, 15}


def test_a_raise_is_a_raise_path_on_every_line_it_spans():
    tree = ast.parse("try:\n    f()\nexcept OSError:\n    g()\nraise ValueError(\n    'x'\n)\n")
    assert cli_lines.raise_lines(tree) == {3, 4, 5, 6, 7}
