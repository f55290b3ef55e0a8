"""What the benchmark under ``perfbench/`` uses of the package.

The benchmark's sources are read with ``ast``, never imported or changed, so a
change that removes or renames something they use fails here rather than only
in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest
from click.testing import CliRunner

import ddirac
from ddirac import cli, oracle
from ddirac.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _constant(tree, name):
    """The literal value of the module-level assignment to `name`."""
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)]
    return ast.literal_eval(value)


def _attributes(tree, owner):
    """Every `<owner>.<name>` in the tree: the names it reads from `owner`."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == owner}


def test_benchmark_uses_only_exported_names():
    tree = _tree("workloads.py")
    # the fresh interpreter that setup_s times runs SETUP_CODE
    setup = ast.parse(_constant(_tree("run.py"), "SETUP_CODE"))
    names = _attributes(tree, "dd") | _attributes(setup, "ddirac")
    assert names and names <= set(ddirac.__all__), names - set(ddirac.__all__)
    oracle_names = _attributes(tree, "oracle")
    assert oracle_names and all(hasattr(oracle, name) for name in oracle_names)


@pytest.mark.parametrize("name", ["SOLUTION_TOL", "CROSS_TOL", "OPERATOR_EQUIV_TOL",
                                  "GREEN_TOL"])
def test_verdict_tolerances_match_the_cli(name):
    assert _constant(_tree("workloads.py"), name) == getattr(cli, name)


def test_every_traced_layer_resolves():
    for layer, names in _constant(_tree("spans.py"), "LAYERS").items():
        module = importlib.import_module(f"ddirac.{layer}")
        for name in names:
            if layer == "lattice":
                # the Cochain constructor and methods, from the class's own dict
                attr = "__init__" if name == "Cochain" else name
                assert attr in vars(module.Cochain), f"{layer}.{name}"
            else:
                assert hasattr(module, name), f"{layer}.{name}"


def test_every_workload_box_builds():
    calls = [node for node in ast.walk(_tree("workloads.py"))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "LatticeBox"]
    policies = set()
    for call in calls:
        # literal extents, and a policy written dd.BoundaryPolicy.<NAME>
        policy = [ddirac.BoundaryPolicy[arg.attr] for arg in call.args[1:]]
        ddirac.LatticeBox(ast.literal_eval(call.args[0]), *policy)
        policies.update(policy)
    # the Green-formula inputs are zero-extended
    assert ddirac.BoundaryPolicy.ZERO_EXTEND in policies


@pytest.mark.parametrize("command", _constant(_tree("run.py"), "CLI_COMMANDS"))
def test_every_timed_command_passes_with_the_benchmark_arguments(command):
    """`time_cli` counts a command that exits nonzero as a failed verdict."""
    args = [command, "--extents", "2,2,2,2", "--seed", "0"]
    if command == "verify-calculus":
        args += ["--trials", "1"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
