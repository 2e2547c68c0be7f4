"""The benchmark imports its workloads' calls from the package: a name the
package drops would kill every benchmark run at import time."""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_benchmark_imports_resolve():
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    imported, missing = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "graphassoc":
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported.append(alias.name)
                if not hasattr(module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
    assert imported, "workloads.py imports nothing from graphassoc"
    assert missing == []
