"""Self-tests of the benchmark, on the one-request `smoke` workload.

    python3 -m pytest -q bench/tests
"""

import copy
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import outcome
import pace
import run
import tracer as tracing

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
         "--workload", "smoke", "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_emits_every_named_metric_with_a_unit():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench(trace)
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        named = {m["name"]: m["unit"] for m in spec[key]}
        assert set(result["metrics"]) == set(named)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == named[name]
            assert isinstance(metric["value"], (int, float))


def test_mismatched_expectation_raises_failed_count():
    passes = [run.run_worker("smoke", 0, "timed")]
    expected = outcome.load_expected()
    assert run.check_passes("smoke", 0, passes, expected)[:2] == (1, 0)
    tampered = copy.deepcopy(expected)
    ref = tampered["workloads"]["smoke"]["classify beta-rescaled"]
    ref["outcome"]["exit"] = 1
    attempted, failed, log = run.check_passes("smoke", 0, passes, tampered)
    assert (attempted, failed) == (1, 1)
    assert not log[0]["ok"]


def test_traced_self_times_fit_inside_the_request_span():
    traced = run.run_worker("smoke", 0, "traced")
    assert traced["left_wrapped"] == []
    assert traced["requests"]
    for req in traced["requests"]:
        assert 0.0 < req["self_s_sum"] <= req["s"]


def test_tracer_is_fully_removed():
    import sodekit.runner  # noqa: F401  (the tracer patches loaded modules)
    from sodekit import analysis, expressions, straighten

    originals = (expressions.normalize, analysis.Connections.lifts,
                 straighten.solve_ivp, analysis.normalize)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hasattr(expressions.normalize, tracing.MARK)
        assert analysis.normalize is expressions.normalize
        assert hasattr(analysis.Connections.lifts, tracing.MARK)
        assert hasattr(straighten.solve_ivp, tracing.MARK)
    finally:
        tracer.uninstall()
    assert tracing.find_wrapped() == []
    assert (expressions.normalize, analysis.Connections.lifts,
            straighten.solve_ivp, analysis.normalize) == originals


def test_pacer_runs_chunks_on_its_timer_and_stops():
    previous = signal.getsignal(signal.SIGALRM)
    with pace.Pacer() as pacer:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 20 * pace.INTERVAL_S:
            pass
    assert pacer.runs >= 5 and pacer.seconds > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_pace_factors_fall_back_to_the_pass_rate():
    nominal, few = pace.NOMINAL_CHUNK_S, run.MIN_CHUNKS
    p = {"setup_slot": [few, 4 * few * nominal],
         "pace_slots": [[few, 2 * few * nominal], [few - 1, 0.1],
                        [3 * few, 2 * few * nominal]]}
    pass_rate = (6 * few - 1) / (8 * few * nominal + 0.1)
    setup, requests = run.pace_factors(p)
    assert setup == pytest.approx(0.25)
    assert requests == pytest.approx([0.5, nominal * pass_rate, 1.5])
