"""Outside-in tracer: wraps the public functions of every `sodekit` module.

Nothing under `src/` knows about it.  `Tracer.install()` replaces each public
function defined in a `sodekit.*` module by a wrapper, in every `sodekit`
namespace that binds it by name (so calls made inside `classify` are caught
too), wraps the public methods of `analysis.Connections` on the class, and
wraps the `solve_ivp` name bound in `sodekit.straighten`.  `uninstall()` puts
every original back, and `find_wrapped()` proves that nothing is left.

Each wrapped call records a span (name, start, end, parent, request id) in
compact arrays kept in memory; `metrics()` and `write_spans()` read them once
at the end.  A span's self time is its duration minus the time its child
spans cover and minus the tracer's own bookkeeping for those children, so the
self times of one request add up to at most the request span.

This module imports no numpy, scipy or sodekit at import time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import types
from array import array
from collections import Counter, defaultdict
from time import perf_counter

MARK = "__bench_traced__"

# Counted metrics and inclusive-time metrics reported by name.  Self times
# are reported for the functions in SELF_TIMED and, summed, for each module.
CALL_COUNTED = (
    "parser.parse", "expressions.normalize", "expressions.differentiate",
    "expressions.compile_exprs", "sampling.is_zero", "sampling.box_points",
    "geometry.lie_bracket", "geometry.decompose_in_frame",
    "geometry.frame_rank", "straighten.integrate_flow",
    "straighten.integrate_flow_with_jacobian", "straighten.solve_ivp",
    "straighten.solve_basis_ode",
)
SELF_TIMED = (
    "expressions.normalize", "expressions.differentiate",
    "expressions.compile_exprs", "sampling.is_zero", "sampling.box_points",
    "geometry.lie_bracket", "geometry.decompose_in_frame",
    "geometry.frame_rank", "straighten.integrate_flow",
    "straighten.integrate_flow_with_jacobian", "runner.run_command",
    "analysis.classify",
)
INCLUSIVE = (
    "manifest.load_manifest", "geometry.is_involutive",
    "analysis.check_regularity", "analysis.build_extended_frame",
    "analysis.check_w_involutive", "analysis.bracket_coefficients",
    "analysis.verify_bracket_integrability", "analysis.adapt_commuting_basis",
    "analysis.nijenhuis_check", "analysis.connection_tables",
    "analysis.mixed_curvature", "analysis.find_zero_section_points",
    "analysis.Connections.projector_identities",
    "analysis.Connections.vertical_flatness",
    "straighten.build_normal_coordinates", "straighten.pushforward_residuals",
    "straighten.extract_quadratic_coefficients", "straighten.solve_ivp",
    "runner.report_to_json",
)
FAILURE_COUNTED = ("straighten.integrate_flow",
                   "straighten.integrate_flow_with_jacobian")
DISTINCT_KEYED = ("expressions.normalize", "geometry.lie_bracket")
MODULES = ("parser", "manifest", "expressions", "sampling", "geometry",
           "analysis", "straighten", "runner")
VERDICTS = ("zero", "nonzero", "unknown")


def _sodekit_modules():
    return {name: mod for name, mod in sorted(sys.modules.items())
            if (name == "sodekit" or name.startswith("sodekit."))
            and mod is not None}


def find_wrapped() -> list:
    """Names of every traced wrapper still bound anywhere in sodekit."""
    found = []
    for modname, mod in _sodekit_modules().items():
        for attr, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{modname}.{attr}")
    analysis = sys.modules.get("sodekit.analysis")
    if analysis is not None:
        for attr, obj in vars(analysis.Connections).items():
            if hasattr(obj, MARK):
                found.append(f"sodekit.analysis.Connections.{attr}")
    return found


def struct_key(e):
    """`Expr.key` of `e`, computed without filling the node's key cache."""
    k = getattr(e, "_key", None)
    if k is not None:
        return k
    from sodekit import expressions as ex
    if isinstance(e, ex.Num):
        return (0, (e.value.numerator, e.value.denominator))
    if isinstance(e, ex.Sym):
        return (1, e.name)
    if isinstance(e, ex.Fn):
        return (2, e.name, struct_key(e.arg))
    if isinstance(e, ex.Pow):
        x = e.exponent
        return (3, struct_key(e.base), (x.numerator, x.denominator))
    if isinstance(e, ex.Add):
        return (4,) + tuple(struct_key(t) for t in e.terms)
    if isinstance(e, ex.Mul):
        return (5,) + tuple(struct_key(f) for f in e.factors)
    if isinstance(e, ex.Div):
        return (6, struct_key(e.num), struct_key(e.den))
    raise TypeError(f"not an expression: {e!r}")


def _field_key(fld):
    chart = fld.chart
    return (chart.names, chart.box,
            tuple(struct_key(c) for c in fld.components))


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ix = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        # wrapper cost paid inside a span on behalf of its children
        self.bookkeeping = array("d")
        self.inclusive = Counter()
        self.counters = Counter()
        self.keys = defaultdict(set)
        self._stack = [-1]
        self._request_id = -1
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name_ix: int) -> int:
        idx = len(self.start)
        self.name.append(name_ix)
        self.parent.append(self._stack[-1])
        self.request.append(self._request_id)
        self.bookkeeping.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> float:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx]

    def _intern(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    @contextlib.contextmanager
    def root(self, name: str, request_id: int):
        """A root span: one per request, or one for set-up (request -1)."""
        self._request_id = request_id
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, hooks: dict):
        tracer = self
        name_ix = self._intern(name)
        depth = [0]
        on_call, on_result = hooks.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            if on_call is not None:
                on_call(args, kwargs)
            depth[0] += 1
            idx = tracer._open(name_ix)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                dur = tracer._close(idx)
                tracer.counters[name + ".failures"] += 1
                raise
            else:
                dur = tracer._close(idx)
                if on_result is not None:
                    on_result(result)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    tracer.inclusive[name] += dur
                parent = tracer._stack[-1]
                if parent >= 0:
                    tracer.bookkeeping[parent] += (
                        perf_counter() - t_in - dur)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _hooks(self) -> dict:
        """Per span name: what to record from the arguments and the result."""
        keys = self.keys
        counters = self.counters

        def normalize_key(args, kwargs):
            keys["expressions.normalize"].add(hash(struct_key(args[0])))

        def bracket_key(args, kwargs):
            keys["geometry.lie_bracket"].add(
                hash((_field_key(args[0]), _field_key(args[1]))))

        def zero_verdict(v):
            counters["sampling.is_zero." + v.kind] += 1
            counters["sampling.is_zero.trials"] += v.trials

        def ode_result(sol):
            counters["straighten.solve_ivp.nfev"] += int(sol.nfev)

        def residual_report(rep):
            counters["residual_nodes_ok"] += rep.node_count
            counters["residual_nodes_flagged"] += rep.flagged_nodes

        return {"expressions.normalize": (normalize_key, None),
                "geometry.lie_bracket": (bracket_key, None),
                "sampling.is_zero": (None, zero_verdict),
                "straighten.solve_ivp": (None, ode_result),
                "straighten.pushforward_residuals": (None, residual_report)}

    def _patch(self, namespace, attr: str, wrapper):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def install(self):
        """Wrap every public sodekit function; call after importing sodekit."""
        modules = _sodekit_modules()
        hooks = self._hooks()
        wrappers = {}
        for modname, mod in modules.items():
            short = modname.split(".")[-1]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_")
                        and obj.__module__ == modname):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj,
                                                    hooks)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        conn = modules["sodekit.analysis"].Connections
        for attr, obj in list(vars(conn).items()):
            if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                self._patch(conn, attr, self._wrap(
                    f"analysis.Connections.{attr}", obj, hooks))
        straighten = modules["sodekit.straighten"]
        self._patch(straighten, "solve_ivp", self._wrap(
            "straighten.solve_ivp", straighten.solve_ivp, hooks))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> array:
        """Self time of every span, from the span tree."""
        covered = array("d", self.bookkeeping)
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        return array("d", (end[i] - start[i] - covered[i]
                           for i in range(len(start))))

    def request_sums(self) -> list:
        """Per request: its root span's duration and its spans' self times."""
        self_t = self.self_times()
        out = {}
        for i in range(len(self.start)):
            rid = self.request[i]
            if rid < 0:
                continue
            entry = out.setdefault(rid, {"request": rid, "s": 0.0,
                                         "self_s_sum": 0.0})
            entry["self_s_sum"] += self_t[i]
            if self.parent[i] < 0:
                entry["s"] = self.end[i] - self.start[i]
        return [out[k] for k in sorted(out)]

    def metrics(self) -> dict:
        self_t = self.self_times()
        calls = Counter()
        self_by_name = Counter()
        for i, ix in enumerate(self.name):
            calls[self.names[ix]] += 1
            self_by_name[self.names[ix]] += self_t[i]

        out = {}
        for name in CALL_COUNTED:
            out[f"{name}.calls"] = calls[name]
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = self_by_name[name]
        for name in INCLUSIVE:
            out[f"{name}.s"] = self.inclusive[name]
        for name in FAILURE_COUNTED:
            out[f"{name}.failures"] = self.counters[name + ".failures"]
        for name in DISTINCT_KEYED:
            out[f"{name}.distinct_frac"] = (
                len(self.keys[name]) / calls[name] if calls[name] else 0.0)
        for kind in VERDICTS:
            out[f"sampling.is_zero.{kind}"] = self.counters[
                "sampling.is_zero." + kind]
        out["sampling.is_zero.trials"] = self.counters["sampling.is_zero.trials"]
        out["straighten.solve_ivp.nfev"] = self.counters[
            "straighten.solve_ivp.nfev"]
        ok = self.counters["residual_nodes_ok"]
        total = ok + self.counters["residual_nodes_flagged"]
        out["straighten.residual_nodes_ok_frac"] = ok / total if total else 1.0
        module_self = Counter()
        for name, t in self_by_name.items():
            module_self[name.split(".")[0]] += t
        for module in MODULES:
            out[f"{module}.self_s"] = module_self[module]
        out["requests.s"] = sum(r["s"] for r in self.request_sums())
        return out

    def write_spans(self, path: str):
        """Write every span as one tab-separated line, gzip-compressed."""
        import gzip
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t"
                         f"{self.request[i]}\n")
