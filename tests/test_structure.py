"""Structure of the package: its import graph and the stage list."""

import ast
from pathlib import Path

import pytest

from sodekit.corpus import corpus_get
from sodekit.runner import COMMANDS, STAGES, run_command

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sodekit"


def import_graph(package: Path = PACKAGE) -> dict:
    """Module name -> the sodekit modules it imports, at any nesting level
    (function-level imports included); the package itself is `__init__`."""
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("sodekit."):
                        targets.add(alias.name.split(".")[1])
            elif isinstance(node, ast.ImportFrom):
                if node.level == 1 and node.module:
                    targets.add(node.module.split(".")[0])
                elif node.level == 1 or node.module == "sodekit":
                    targets.update(a.name if a.name in modules else "__init__"
                                   for a in node.names)
                elif (node.module or "").startswith("sodekit."):
                    targets.add(node.module.split(".")[1])
        graph[name] = targets & modules
    return graph


def find_cycle(graph: dict):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(name, path):
        state[name] = "open"
        for target in sorted(graph[name]):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target, path + [target])
                if cycle:
                    return cycle
        state[name] = "done"
        return None

    for name in sorted(graph):
        if name not in state:
            cycle = visit(name, [name])
            if cycle:
                return cycle
    return None


def test_import_graph_sees_function_level_imports(tmp_path):
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "a.py").write_text("def f():\n    from .b import g\n")
    (tmp_path / "b.py").write_text("from . import a\n")
    graph = import_graph(tmp_path)
    assert graph == {"__init__": set(), "a": {"b"}, "b": {"a"}}
    assert find_cycle(graph) == ["a", "b", "a"]


def test_import_graph_has_no_cycle():
    assert find_cycle(import_graph()) is None


def test_commands_run_stages_in_list_order():
    order = [name for name, _ in STAGES]
    for command in COMMANDS.values():
        positions = [order.index(name) for name in command.stages]
        assert positions == sorted(positions)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_timings_name_exactly_the_commands_stages(command):
    report, code = run_command(command, corpus_get("quadratic-demo"))
    assert code == 0
    assert list(report["timings"]) == list(COMMANDS[command].stages)
