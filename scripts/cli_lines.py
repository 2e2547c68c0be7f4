"""Print the executable lines of src/graphassoc that none of the package's
own callers run: the line audit of what src/ should hold.

    python scripts/cli_lines.py

The callers are those that decide what src/ keeps:
- the command line, run in this process on each invocation of INVOCATIONS
  (every subcommand and flag, each DSL family, @file edge lists, and each
  documented usage-error exit), with `python -m graphassoc` once;
- the acceptance criteria, the test_criterion_* functions of
  tests/test_acceptance.py;
- one item of each benchmark workload of perfbench/workloads.py
  (BENCHMARK_ITEMS), through its calls and its gate.

Lines are traced with sys.settrace, set before the package is imported so
that its module-level lines count.  A line is executable when an
instruction of some code object of its module maps to it.  For each
module the script prints how many executable lines did not run, split
into raise paths (a line of a `raise` statement or of an `except`
handler) and the rest; it then lists the line numbers of the raise paths
and the text of every other line.  It exits 1 when an invocation exits
with a code other than the one listed for it, or when a criterion or a
benchmark gate fails.  Standard library only.
"""

import ast
import contextlib
import importlib.util
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphassoc"

# (exit code, argv); "{dir}" is a directory holding the files of EDGE_FILES
INVOCATIONS = (
    (0, ["--version"]),
    (0, ["--help"]),
    (0, ["classify", "--help"]),
    # classify: yes, the A and B witnesses, --eps, each DSL family, @file
    (0, ["classify", "cone^2(D2)"]),
    (0, ["classify", "K5", "--eps", "1/100", "--format", "json"]),
    (0, ["classify", "P4", "--format", "json"]),
    (0, ["classify", "C4", "--format", "json"]),
    (0, ["classify", "Kb2,3"]),
    (0, ["classify", "cone(D4)"]),
    (0, ["classify", "S5"]),
    (0, ["classify", "C6"]),
    (0, ["classify", "@{dir}/p4.txt", "--format", "json"]),
    (1, ["classify", "cone^2(D2)", "--eps", "1"]),
    (1, ["classify", "K3", "--eps", "1/0"]),
    (1, ["classify", "K3", "--eps", "abc"]),
    (1, ["classify", "D2"]),
    (1, ["classify", "X7"]),
    (1, ["classify", "P0"]),
    (1, ["classify", "P2000000"]),
    (1, ["classify", "@{dir}/missing.txt"]),
    (1, ["classify", "@{dir}/binary.txt"]),
    (1, ["classify", "@{dir}/huge.txt"]),
    (1, ["classify", "@{dir}/empty.txt"]),
    (1, ["classify", "@{dir}/header.txt"]),
    (1, ["classify", "@{dir}/bad_edge.txt"]),
    (1, ["classify", "@{dir}/loop.txt"]),
    (1, ["classify", "@{dir}/disconnected.txt"]),
    # fan: every flag, a discrete graph, and its usage errors
    (0, ["fan", "K4", "--f-vector"]),
    (0, ["fan", "P5", "--seed-order", "7", "--json-fan", "--format", "json"]),
    (0, ["fan", "D3", "--f-vector", "--format", "json"]),
    (1, ["fan", "K1"]),
    (1, ["fan", "@{dir}/disconnected.txt"]),
    (1, ["fan", "K3", "--bogus"]),
    # verify: one graph, a sweep, and each refusal
    (0, ["verify", "cone(D4)"]),
    (0, ["verify", "C5", "--format", "json"]),
    (0, ["verify", "--all-up-to", "4"]),
    (0, ["verify", "--all-up-to", "3", "--format", "json"]),
    (1, ["verify", "--all-up-to", "9"]),
    (1, ["verify", "--all-up-to", "1"]),
    (1, ["verify", "--all-up-to", "x"]),
    (1, ["verify", "K9"]),
    (1, ["verify", "K1"]),
    (1, ["verify", "D3"]),
    (1, ["verify"]),
    (1, ["verify", "K3", "--all-up-to", "3"]),
    # moduli: a graph, --weights, --max-vertices, --divisors, and each refusal
    (0, ["moduli", "S5"]),
    (0, ["moduli", "K4", "--format", "json"]),
    (0, ["moduli", "--weights", "1,1,e,e,e,e", "--max-vertices", "2"]),
    (0, ["moduli", "--weights", "1,1/2,(1+e)/2,e,e", "--format", "json"]),
    (0, ["moduli", "--weights", "1,1-3e,4e,4e,e,e", "--divisors"]),
    (0, ["moduli", "K3", "--divisors", "--format", "json"]),
    (0, ["moduli", "--weights", "1,1/2,e,e"]),
    (0, ["moduli", "--weights", "1,1,(e),e,e"]),
    (1, ["moduli"]),
    (1, ["moduli", "K3", "--weights", "1,1,e,e,e"]),
    (1, ["moduli", "--weights", "1,1,e,e,e", "--divisors", "--max-vertices", "2"]),
    (1, ["moduli", "P4"]),
    (1, ["moduli", "K1"]),
    (1, ["moduli", "--weights", "2,1,1,e"]),
    (1, ["moduli", "--weights", "1,1,,e,e,e"]),
    (1, ["moduli", "--weights", "1,1,x"]),
    (1, ["moduli", "--weights", "1,1,(1+e)/0"]),
    (1, ["moduli", "--weights", "1,1,((1+e)/2"]),
    (1, ["moduli", "--weights", "1,1,e,e,e", "--max-vertices", "0"]),
    (1, ["frobnicate"]),
)

EDGE_FILES = {
    "p4.txt": "4  # a path\n0 1\n1 2\n2 3\n",
    "huge.txt": "1000000000\n0 1\n",
    "empty.txt": "# nothing\n",
    "header.txt": "four\n",
    "bad_edge.txt": "3\n0 x\n",
    "loop.txt": "3\n0 0\n",
    "disconnected.txt": "4\n0 1\n",
}

# (workload, item id) of perfbench/workloads.py
BENCHMARK_ITEMS = (("oracle-sweep", "4v#2"), ("verify-sweep", "6v#5"),
                   ("fan-build", "S7"), ("moduli-trees", "S5"))


def executable_lines(code) -> set[int]:
    """The lines that an instruction of code, or of a code object nested in
    it, maps to."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= executable_lines(const)
    return lines


def raise_lines(tree: ast.AST) -> set[int]:
    """The lines of every `raise` statement and `except` handler."""
    return {line for node in ast.walk(tree) if isinstance(node, (ast.Raise, ast.ExceptHandler))
            for line in range(node.lineno, node.end_lineno + 1)}


def missed(source: str, ran: set[int]) -> tuple[list[int], list[int]]:
    """The executable lines of source not in ran: (raise paths, the rest)."""
    left = executable_lines(compile(source, "<source>", "exec")) - ran
    raising = raise_lines(ast.parse(source))
    return sorted(left & raising), sorted(left - raising)


def _tracer(ran: dict[str, set[int]]):
    """A sys.settrace function that adds each line run in a module of the
    package to ran[its file name]."""
    names: dict[str, str] = {}  # co_filename -> module file name, or ""

    def lines(frame, event, arg):
        if event == "line":
            ran[names[frame.f_code.co_filename]].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        filename = frame.f_code.co_filename
        name = names.get(filename)
        if name is None:
            path = Path(filename).resolve()
            name = names[filename] = path.name if path.parent == PACKAGE else ""
            if name:
                ran.setdefault(name, set())
        return lines if name else None

    return calls


def _ranges(lines: list[int]) -> str:
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"audit_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_callers() -> list[str]:
    """Run every caller; the problems found, empty when each did as listed."""
    from graphassoc.cli import main  # here, once the tracer is set

    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in EDGE_FILES.items():
            Path(tmp, name).write_text(text)
        Path(tmp, "binary.txt").write_bytes(b"\xff\xfe\x00")
        for expected, argv in INVOCATIONS:
            argv = [arg.replace("{dir}", tmp) for arg in argv]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code or 0
            if code != expected:
                problems.append(f"graphassoc {' '.join(argv)} exited {code}, expected {expected}")
    argv, sys.argv = sys.argv, ["graphassoc", "--version"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("graphassoc", run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            problems.append(f"python -m graphassoc --version exited {exc.code}")
    finally:
        sys.argv = argv

    acceptance = _load(ROOT / "tests" / "test_acceptance.py")
    capsys = type("Capsys", (), {"disabled": staticmethod(contextlib.nullcontext)})
    for name in sorted(n for n in vars(acceptance) if n.startswith("test_criterion_")):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                getattr(acceptance, name)(capsys)
        except AssertionError as exc:
            problems.append(f"{name} failed: {exc}")

    workloads = _load(ROOT / "perfbench" / "workloads.py")
    tr = _load(ROOT / "perfbench" / "tracing.py").NullTracer()
    for name, item_id in BENCHMARK_ITEMS:
        workload = workloads.WORKLOADS[name](0, tr)
        payload = dict(workload.items)[item_id]
        problems += [f"{name} {item_id}: {p}" for p in workload.gate(payload, workload.run(tr, payload))]
    return problems


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    ran: dict[str, set[int]] = {}
    sys.settrace(_tracer(ran))
    try:
        problems = run_callers()
    finally:
        sys.settrace(None)
    report = []
    print(f"{'module':<16}  {'executable':>10}  {'not run':>7}  {'raise':>5}  {'other':>5}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        raising, other = missed(source, ran.get(path.name, set()))
        total = len(executable_lines(compile(source, path.name, "exec")))
        print(f"{path.name:<16}  {total:>10}  {len(raising) + len(other):>7}  {len(raising):>5}  {len(other):>5}")
        if raising:
            report.append(f"{path.name}: raise paths not run: {_ranges(raising)}")
        text = source.splitlines()
        report += [f"{path.name}:{line}: {text[line - 1].strip()}" for line in other]
    print("\n".join(report))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
