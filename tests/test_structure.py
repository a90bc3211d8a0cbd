"""Structure of the package: its import graph, its one flow path, its one
compiled evaluator, its one sum-of-products primitive, its one cache and
the stage list."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from sodekit import analysis, ode, straighten
from sodekit.analysis import SecondOrderProblem, classify
from sodekit.corpus import corpus_get
from sodekit.expressions import compile_exprs
from sodekit.geometry import Chart, Frame, VectorField
from sodekit.parser import parse
from sodekit.runner import COMMANDS, STAGES, run_command
from sodekit.straighten import CoordinateTransform, build_normal_coordinates
from tests.conftest import INSTANCES

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


def callers(callee: str, package: Path = PACKAGE) -> set:
    """(module, outermost function or method) of every call to a name or
    attribute `callee` in the package; module-level calls have None."""
    found = set()

    def visit(node, module, owner):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == callee:
                found.add((module, owner))
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            visit(child, module, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def test_solve_ivp_caller_scan_sees_methods_and_nested_functions(tmp_path):
    (tmp_path / "a.py").write_text(
        "solve_ivp(f)\n"
        "class T:\n    def m(self):\n        def inner():\n"
        "            ode.solve_ivp(f)\n")
    assert callers("solve_ivp", tmp_path) == {("a", None), ("a", "m")}


def test_flows_are_integrated_on_one_path():
    # every flow goes through the batched integrate_flows, the numerically
    # transported fibre fields too: they are symbolic fields on a chart
    # extended by the transport matrix
    assert callers("solve_ivp") == {("straighten", "integrate_flows")}
    chart = Chart(["x", "u"], [(-1.0, 1.0), (-1.0, 1.0)])
    rep = classify(SecondOrderProblem(
        chart, VectorField(chart, [parse("u + u^2/4"), parse("0")]),
        Frame(chart, [VectorField(chart, [parse("0"), parse("1")])])))
    assert rep.adaptation.mode == "numeric"
    transform = build_normal_coordinates(rep)
    assert all(isinstance(st.fld, VectorField) for st in transform.stages)


def test_every_adaptation_mode_is_reached():
    # a mode that no registry input reaches is dead code
    modes = set()
    for make in INSTANCES.values():
        report, _ = run_command("classify", make())
        if "adaptation" in report["analysis"]:
            modes.add(report["analysis"]["adaptation"]["mode"])
    assert modes == {"identity", "normalized", "numeric"}


def test_the_transform_maps_share_one_stage_walk():
    # map_batch is the one walk, and it finds shared prefixes itself; besides
    # it only the path check and the stencil's F-flow integrate flows
    assert {owner for module, owner in callers("integrate_flows")
            if module == "straighten"} == {
        "map_batch", "_check_path_independence", "field_in_final_chart"}
    for gone in ("_stage", "_walk", "map_grid"):
        assert not hasattr(CoordinateTransform, gone)
    assert not hasattr(straighten, "_own_rows")
    # one mode: every walk carries its Jacobians
    assert list(inspect.signature(CoordinateTransform.map_batch).parameters) \
        == ["self", "params"]


def test_the_residual_stage_makes_no_second_jacobian_walk():
    # the grid, the fit nodes, the fibre check's rows and the cross-check's
    # shifted rows go through one map_batch in pushforward_residuals;
    # besides it map_batch maps only the base point, the stencils' first
    # iterate (the cross-check's Newton guesses with the fit's line rows),
    # later Newton steps, and rows that a caller of final_coords or
    # jacobian_fd has not mapped
    assert callers("map_batch") == {("straighten", "__init__"),
                                    ("straighten", "invert"),
                                    ("straighten", "final_coords"),
                                    ("straighten", "field_in_final_chart"),
                                    ("straighten", "jacobian_fd"),
                                    ("straighten", "pushforward_residuals")}


def test_the_grid_screen_inverts_no_stack():
    # the condition screen proves its bound from a determinant, and the
    # linear solves solve: straighten keeps no (K, m, m) inverse
    assert not {owner for module, owner in callers("inv")
                if module == "straighten"}


def test_every_flow_of_the_chart_is_guarded_by_its_box():
    # one box policy: no map takes a guard switch, every flow is given the
    # chart; one failure shape: the stencil returns a {row: failure} dict
    tree = ast.parse((PACKAGE / "straighten.py").read_text(encoding="utf-8"))
    switches = [node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and "guard" in [a.arg for a in node.args.args
                                + node.args.kwonlyargs]]
    assert switches == []
    flows = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "integrate_flows"]
    assert len(flows) == 3
    assert all("chart" in {kw.arg for kw in call.keywords} for call in flows)
    assert not hasattr(straighten, "StencilBatch")


def test_one_compiled_evaluator_on_stacked_points():
    assert list(inspect.signature(compile_exprs).parameters) == [
        "exprs", "coord_names"]
    execs = [path.stem for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "exec"]
    assert execs == ["expressions"]
    assert not hasattr(analysis, "eval_exact")
    with pytest.raises(ValueError):
        ode.solve_ivp(lambda t, y: (y, {}), (0.0, 1.0), np.array([1.0]))


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


MUTATORS = {"setdefault", "update", "add", "pop", "popitem", "clear",
            "discard", "remove", "__setitem__"}
CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def module_caches(package: Path = PACKAGE) -> set:
    """(module, name) of every module-level dict or set that the package
    writes to after import, and of every function-level cache decorator."""
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        containers = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            if isinstance(value, (ast.Dict, ast.Set, ast.DictComp,
                                  ast.SetComp)) or (
                    isinstance(value, ast.Call)
                    and getattr(value.func, "id", None) in ("dict", "set")):
                containers.update(t.id for t in targets
                                  if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, (ast.Store, ast.Del)):
                owner = node.value
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute) and node.func.attr in MUTATORS:
                owner = node.func.value
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = getattr(target, "id", None) or getattr(
                        target, "attr", None)
                    if name in CACHE_DECORATORS:
                        found.add((path.stem, node.name))
                continue
            else:
                continue
            if isinstance(owner, ast.Name) and owner.id in containers:
                found.add((path.stem, owner.id))
    return found


def test_cache_scan_sees_written_tables_and_cache_decorators(tmp_path):
    (tmp_path / "a.py").write_text(
        "import functools\nCONST = {1: 2}\n_seen = set()\n_by = dict()\n"
        "def f(k):\n    _seen.add(k)\n    _by[k] = CONST[k]\n"
        "@functools.lru_cache(maxsize=None)\ndef g(k):\n    return k\n")
    assert module_caches(tmp_path) == {("a", "_seen"), ("a", "_by"),
                                       ("a", "g")}


def test_the_memo_table_is_the_only_cache():
    # interned expression nodes and memoized results share one bounded table
    assert module_caches() == {("memo", "_table")}


def normalized_trees(package: Path = PACKAGE) -> list:
    """(module, line) of every call to `normalize` whose argument is a
    freshly built sum or product: a call to `Add`, `Mul` or `sum`, or a `+`,
    `-` or `*` expression."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if not (isinstance(node, ast.Call) and node.args and "normalize"
                    in (getattr(func, "id", None), getattr(func, "attr", None))):
                continue
            arg = node.args[0]
            if (isinstance(arg, ast.BinOp)
                    and isinstance(arg.op, (ast.Add, ast.Sub, ast.Mult))
                    or isinstance(arg, ast.UnaryOp)
                    and isinstance(arg.op, ast.USub)
                    or isinstance(arg, ast.Call) and getattr(
                        arg.func, "id", None) in ("Add", "Mul", "sum")):
                found.append((path.stem, node.lineno))
    return found


def test_normalized_tree_scan_sees_sums_and_products(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(a, b, c):\n"
        "    return [normalize(a + b), normalize(a - b), normalize(a * b),\n"
        "            normalize(-a), normalize(Add((a, b))),\n"
        "            expressions.normalize(Mul((a, b))),\n"
        "            normalize(sum((a, b), c)),\n"
        "            normalize(a / b), normalize(c), dot(((a, b),))]\n")
    (tmp_path / "expressions.py").write_text("x = normalize(a + b)\n")
    assert sorted(normalized_trees(tmp_path)) == [("a", 2)] * 3 + [
        ("a", 3)] * 2 + [("a", 4), ("a", 5), ("expressions", 1)]


def test_sums_of_products_are_normalized_by_dot_only():
    # dot forms a sum of products on the rational forms, so a tree built
    # anywhere, the engine included, and normalized again is work done twice
    assert normalized_trees() == []


def test_node_equality_and_hash_never_build_a_sort_key():
    tree = ast.parse((PACKAGE / "expressions.py").read_text(encoding="utf-8"))
    methods = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name in ("__eq__", "__hash__")]
    assert len(methods) == 2
    for method in methods:
        names = {getattr(node, "attr", None) or getattr(node, "id", None)
                 for node in ast.walk(method)}
        assert not names & {"key", "_key", "_struct_key"}, method.name


def test_connection_and_curvature_stages_bracket_only_frame_fields(
        monkeypatch):
    # n = 3: [F, W_i], [V_i, W_j] and [W_i, W_j] (i < j) are the only
    # brackets; everything else is scalar work on their coefficient tables
    n = 3
    names = ["x1", "x2", "x3", "y1", "y2", "y3"]
    chart = Chart(names, [(-1.0, 1.0)] * 6)
    F = VectorField(chart, [parse(c) for c in (
        "y1", "y2", "y3", "x2*y1^2 - y3 + x1", "y1*y2 - x3",
        "x1*y3^2 + y2*x2")])
    V = Frame(chart, [VectorField(chart, [parse("1" if k == i else "0")
                                          for k in range(6)])
                      for i in (3, 4, 5)])
    state = analysis.PipelineState(SecondOrderProblem(chart, F, V))
    stages = dict(analysis.STAGES)
    analysis.walk(state, [s for s in analysis.STAGES
                          if s[0] not in ("connections", "curvature",
                                          "zero_section")], {})
    calls = []
    bracket = analysis.lie_bracket
    monkeypatch.setattr(analysis, "lie_bracket",
                        lambda X, Y: calls.append(1) or bracket(X, Y))
    analysis.walk(state, [(name, stages[name])
                          for name in ("connections", "curvature")], {})
    assert state.analysis.curvature.verdict == "quadratic"
    assert 0 < len(calls) <= n + n * n + n * (n - 1) // 2
    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "covariant_derivative" not in defined


# np.setdiff1d (through np.unique), np.median, np.percentile and np.quantile
# import numpy.ma on their first call (numpy 2.4): about 10 ms spent inside
# the first straighten or report request of every process.  src/ keeps to
# boolean masks and np.sort instead.
LAZY_MA_CALLS = {"setdiff1d", "unique", "median", "percentile", "quantile"}


def numpy_attributes(package: Path = PACKAGE) -> set:
    """(module, attribute) of every `np.<attribute>` or `numpy.<attribute>`
    the package names."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.add((path.stem, node.attr))
    return found


def test_numpy_attribute_scan_sees_calls_anywhere(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\nimport numpy\n"
        "def f(a):\n    return np.median(a) + numpy.unique(a).size\n")
    assert numpy_attributes(tmp_path) == {("a", "median"), ("a", "unique")}


def test_src_calls_no_numpy_function_that_imports_numpy_ma():
    assert not {attr for _, attr in numpy_attributes()} & LAZY_MA_CALLS
