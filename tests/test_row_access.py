"""The package reads model rows only through ``MipProblem.rows``.

``MipProblem.constraints`` and ``Constraint`` are dict views kept for
the benchmark's oracle and tracer. Inside ``src/fleetopt`` only
``mip/problem.py``, which defines them, may read them, and
``mip/__init__.py`` may re-export ``Constraint``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fleetopt"
OWNER = PACKAGE / "mip" / "problem.py"
REEXPORT = PACKAGE / "mip" / "__init__.py"


def row_view_reads(path):
    """``(line, what)`` for each read of the row views in one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("constraints", "Constraint"):
            yield node.lineno, f".{node.attr}"
        elif isinstance(node, ast.ImportFrom) and path != REEXPORT:
            if any(alias.name == "Constraint" for alias in node.names):
                yield node.lineno, "imports Constraint"


def test_only_the_problem_module_reads_row_views():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert OWNER in modules and len(modules) > 20
    found = [
        f"{path.relative_to(PACKAGE)}:{line}: {what}"
        for path in modules
        if path != OWNER
        for line, what in row_view_reads(path)
    ]
    assert found == []


def test_the_check_sees_a_read(tmp_path):
    module = tmp_path / "reader.py"
    module.write_text(
        "from fleetopt.mip.problem import Constraint\n"
        "def count(mip):\n"
        "    return len(mip.constraints)\n"
    )
    assert list(row_view_reads(module)) == [(1, "imports Constraint"), (3, ".constraints")]
