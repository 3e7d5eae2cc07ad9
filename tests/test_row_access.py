"""The package reads a model's rows and columns only as arrays.

Rows are read through ``MipProblem.rows`` and columns through
``names``, ``kinds``, ``lb`` and ``ub``. ``MipProblem.constraints`` and
``Constraint``, ``MipProblem.variables`` and ``Variable`` are views kept
for the benchmark's oracle, self-test and tracer. Inside
``src/fleetopt`` only ``mip/problem.py``, which defines them, may read
them, and ``mip/__init__.py`` may re-export the view classes.
"""

import ast
from pathlib import Path

import numpy as np

from fleetopt.agent.indicator import indicator_generate
from fleetopt.agent.loop import build_agent_model
from fleetopt.agent.types import AgentConfig
from fleetopt.mip.solver import fix_variables

from test_model_digests import QUERIES, world_and_forest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fleetopt"
OWNER = PACKAGE / "mip" / "problem.py"
REEXPORT = PACKAGE / "mip" / "__init__.py"
VIEWS = ("constraints", "Constraint", "variables", "Variable")
CLASSES = ("Constraint", "Variable")


def row_view_reads(path):
    """``(line, what)`` for each read of the row or column views in one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in VIEWS:
            yield node.lineno, f".{node.attr}"
        elif isinstance(node, ast.Name) and node.id in CLASSES:
            yield node.lineno, node.id
        elif isinstance(node, ast.ImportFrom) and path != REEXPORT:
            for alias in node.names:
                if alias.name in CLASSES:
                    yield node.lineno, f"imports {alias.name}"


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
        "from fleetopt.mip.problem import Constraint, Variable\n"
        "def count(mip):\n"
        "    return len(mip.constraints) + len(mip.variables)\n"
        "def first(mip):\n"
        "    return Variable(mip.names[0])\n"
    )
    assert sorted(row_view_reads(module)) == [
        (1, "imports Constraint"), (1, "imports Variable"),
        (3, ".constraints"), (3, ".variables"), (5, "Variable"),
    ]


def columns_of_views(mip):
    views = mip.variables
    return (
        [v.name for v in views], [v.kind for v in views],
        [v.lb for v in views], [v.ub for v in views],
    )


def test_the_column_views_read_the_arrays():
    """On a desk model and on a fixed copy of it, whose bounds were
    written in place, the views give the arrays' names, kinds and bounds."""
    world, forest = world_and_forest("desk")
    inst = world.instance(3)
    ast_ = indicator_generate(QUERIES[0], inst, guide="deterministic").ast
    mip, _, _ = build_agent_model(inst, forest, world.days[3].exogenous(), ast_, AgentConfig())
    names = [n for n in mip.names if n.startswith("x[")][:40]
    fixed = fix_variables(mip, dict.fromkeys(names, 0.0))
    assert not np.array_equal(fixed.ub, mip.ub)
    for model in (mip, fixed):
        assert columns_of_views(model) == (
            model.names, model.kinds.tolist(), model.lb.tolist(), model.ub.tolist()
        )
        assert all(type(v.lb) is float and type(v.kind) is str for v in model.variables)
