"""Print the total lines and the code lines of each module of
src/graphassoc, and of src/ as a whole.

    python scripts/src_lines.py [DIR]

DIR defaults to src/graphassoc next to this script.  Code lines leave out
blank lines, comments and docstrings (a string literal that is the first
statement of a module, class or function).  A line counts as code when a
token other than a comment or a line break lies on it; a token spanning
several lines, a multi-line string, counts on each of them.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parents[1] / "src" / "graphassoc"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(text: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def line_counts(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docs = docstring_lines(text)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else DEFAULT_DIR
    rows = [(path.name, *line_counts(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("src/", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'total':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6,}  {code:>6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
