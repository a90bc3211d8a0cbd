"""The memo layer under the engine: its bound, the copies it hands out, its
chart-aware keys, the nodes it interns, and reports that do not depend on
what it holds, on its bound, on the hash seed or on threads sharing it."""

import os
import subprocess
import sys
import threading
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

import sodekit
from sodekit.corpus import corpus_get, corpus_list
from sodekit.expressions import ZERO, Num, _to_rf, normalize, syms
from sodekit.geometry import (
    Chart, VectorField, coordinate_field, decompose_in_frame, lie_bracket,
)
from sodekit import memo
from sodekit.parser import parse
from sodekit.runner import report_to_json, run_command
from sodekit.sampling import is_zero

x, y = syms("x y")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(sodekit.__file__)))

# Prints the report of one command on one corpus instance, without timings.
ALONE = """
import sys
from sodekit.corpus import corpus_get
from sodekit.runner import report_to_json, run_command
report, _ = run_command(sys.argv[1], corpus_get(sys.argv[2]))
del report["timings"]
sys.stdout.write(report_to_json(report))
"""


def report_json(command: str, name: str) -> str:
    report, _ = run_command(command, corpus_get(name))
    del report["timings"]
    return report_to_json(report)


def fresh_report_json(command: str, name: str, hash_seed: str = "0") -> str:
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed}
    done = subprocess.run([sys.executable, "-c", ALONE, command, name],
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return done.stdout


def test_memo_drops_the_oldest_entry_past_its_bound(monkeypatch):
    memo.clear()
    monkeypatch.setattr(memo, "MAX_ENTRIES", 2)
    for i in range(4):
        assert memo.put(i, str(i)) == str(i)
    assert memo.get(0) is None and memo.get(1) is None
    assert memo.get(3) == "3"
    assert memo.put(3, "again") == "3"
    assert memo.put(1, "1") == "1"
    assert memo.get(2) is None
    memo.clear()


def test_normal_forms_carry_read_only_rational_forms():
    for poly in _to_rf(normalize(parse("(x + y)^2/(1 + x^2)"))):
        with pytest.raises(TypeError):
            poly[()] = Fraction(1)


def test_memoized_verdicts_and_decompositions_are_read_only():
    plane = Chart(["x", "y"], [(-1, 1), (-1, 1)])
    verdict = is_zero(x - y, plane.probe())
    assert verdict.is_nonzero
    with pytest.raises(TypeError):
        verdict.witness["x"] = 99.0
    dec = decompose_in_frame(coordinate_field(plane, "y"),
                             [coordinate_field(plane, "x")], plane.probe())
    assert dec.failure == "not_in_span"
    with pytest.raises(TypeError):
        dec.witness["y"] = 99.0
    with pytest.raises(FrozenInstanceError):
        dec.ok = True


def test_bracket_memo_keys_on_the_chart_names():
    # the same component trees on charts with swapped coordinate order have
    # different brackets: [x*y d1, d2] is -x d1 on (x, y), -y d1 on (y, x)
    xy = Chart(["x", "y"], [(-1, 1), (-1, 1)])
    yx = Chart(["y", "x"], [(-1, 1), (-1, 1)])
    comps_x, comps_y = [x * y, ZERO], [ZERO, Num(1)]
    on_xy = lie_bracket(VectorField(xy, comps_x), VectorField(xy, comps_y))
    on_yx = lie_bracket(VectorField(yx, comps_x), VectorField(yx, comps_y))
    assert on_xy.chart is xy and on_yx.chart is yx
    assert on_xy.components == (normalize(-x), ZERO)
    assert on_yx.components == (normalize(-y), ZERO)


def test_charts_that_differ_only_in_their_box_share_one_bracket_entry():
    # the bracket's components do not depend on the box
    small = Chart(["x", "y"], [(-1, 1), (-1, 1)])
    wide = Chart(["x", "y"], [(-5, 5), (0, 3)])
    comps_x, comps_y = [x * y, ZERO], [ZERO, Num(1)]
    memo.clear()
    on_small = lie_bracket(VectorField(small, comps_x),
                           VectorField(small, comps_y))
    on_wide = lie_bracket(VectorField(wide, comps_x),
                          VectorField(wide, comps_y))
    entries = [k for k in memo._table if k[0] == "lie_bracket"]
    memo.clear()
    assert on_small.chart is small and on_wide.chart is wide
    assert on_small.components is on_wide.components
    assert len(entries) == 1


def test_charts_with_equal_names_and_box_share_one_zero_test_entry():
    # the probe is the memo key: equal charts give equal, equally hashed
    # probes; another seed or another box is another entry
    plane = Chart(["x", "y"], [(-1, 1), (-1, 1)])
    again = Chart(["x", "y"], [(-1.0, 1.0), (-1.0, 1.0)])
    wide = Chart(["x", "y"], [(-2, 1), (-1, 1)])
    assert plane.probe(3) == again.probe(3)
    assert hash(plane.probe(3)) == hash(again.probe(3))
    memo.clear()
    verdicts = [is_zero(x - y, probe) for probe in (
        plane.probe(3), again.probe(3), plane.probe(4), wide.probe(3))]
    entries = [k for k in memo._table if k[0] == "is_zero"]
    memo.clear()
    assert verdicts[0] is verdicts[1]
    assert verdicts[2] is not verdicts[0] and verdicts[3] is not verdicts[0]
    assert len(entries) == 3


def test_warm_caches_do_not_leak_into_reports():
    names = corpus_list()
    for name in names:
        for other in names:
            if other != name:
                report_json("classify", other)
        assert report_json("classify", name) == \
            fresh_report_json("classify", name), name


def test_reports_do_not_depend_on_the_hash_seed():
    reports = {fresh_report_json("report", "routh-abelian", seed)
               for seed in ("0", "1", "2")}
    assert len(reports) == 1


def test_threads_sharing_a_cold_memo_get_single_threaded_reports():
    names = ("beta-rescaled", "cubic-demo", "oscillator-scrambled",
             "quadratic-demo")
    expected = {name: report_json("classify", name) for name in names}
    memo.clear()
    results = {}
    errors = []

    def work(i):
        try:
            for k in range(len(names)):
                name = names[(i + k) % len(names)]
                results[i, name] = report_json("classify", name)
        except Exception as err:  # reported by the assertion below
            errors.append(err)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 8 * len(names)
    for (_, name), text in results.items():
        assert text == expected[name], name


def test_nodes_built_across_a_clear_are_equal():
    text = "(x + y)^2/(1 + x^2) - sin(x*y)"
    before = parse(text)
    memo.clear()
    after = parse(text)
    assert after is not before
    assert after == before and hash(after) == hash(before)
    assert normalize(before) == normalize(after)


def test_reports_do_not_depend_on_the_memo_bound(monkeypatch):
    names = corpus_list()
    expected = {name: report_json("report", name) for name in names}
    memo.clear()
    monkeypatch.setattr(memo, "MAX_ENTRIES", 64)
    for name in names:
        assert report_json("report", name) == expected[name], name
        assert len(memo._table) <= 64
    memo.clear()


def test_threads_parsing_on_a_cold_memo_get_one_object():
    texts = [f"sin(x*{k} + y)^{k}/(1 + x^2*y) - {k}*y" for k in range(40)]
    memo.clear()
    results = [None] * 8
    errors = []
    start = threading.Barrier(8, timeout=60)

    def work(i):
        try:
            start.wait()
            results[i] = [parse(text) for text in texts]
        except Exception as err:  # reported by the assertion below
            errors.append(err)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for trees in results:
        assert all(a is b for a, b in zip(trees, results[0]))
