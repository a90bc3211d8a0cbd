"""sodekit benchmark: closed-loop workloads through `runner.run_command`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload pass runs in a fresh
single-threaded interpreter (`worker.py`) as a closed loop: one client,
sequential requests, no think time, every instance at most once, every
manifest freshly loaded from JSON with `options.seed = N`.

`--trace 0` repeats passes while another one fits in S seconds (at least
one) and reports the end-to-end metrics over the passes:

    setup_s                  fresh interpreter to first request, in paced
                             seconds (median of passes)
    wall_paced_s             the whole request list, including report_to_json
                             (mean over passes)
    max_request_paced_s      latency of the slowest request
    geomean_request_paced_s  geometric mean of the request latencies
    peak_rss_mb              ru_maxrss of the workload process (median)

The two request metrics take each request's latency as its mean over the
passes.  On a shared machine the speed of the same code drifts by tens of
per cent in spells that last seconds to minutes, often longer than a run,
so the wall times of one run differ from the next by more than a regression
worth catching.  Paced times remove that drift.  From set-up to the last
request, `pace.Pacer` interrupts the worker every `pace.INTERVAL_S` and runs
a short fixed reference chunk.  Set-up and each request leave out those
chunks and are scaled by `pace.NOMINAL_CHUNK_S` over the chunks' mean time
inside them, or inside the whole pass for a slot that held fewer than
`MIN_CHUNKS` of them.  Paced seconds are thus the wall seconds the work
would take at the pace the chunk runs at in a fast spell of the host the
benchmark was written on.  The unpaced times are printed and recorded too.

`--trace 1` runs one untraced and one traced pass and reports the per-layer
metrics of the traced pass, plus `trace.overhead_s` (traced minus untraced
`wall_s`).

Every request's outcome is checked against `expected.json`; `failed` counts
mismatches and raised requests.  A run stamp and the full record go to
`bench/out/`; the last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import outcome
import pace
from workloads import BENCH_DIR, OUT_DIR, WORKLOADS

ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")

CHILD_TIMEOUT_S = 160.0

# Fewest reference chunks for a request to be paced by its own chunks.
MIN_CHUNKS = 10

END_TO_END = {
    "setup_s": "s", "wall_paced_s": "s", "max_request_paced_s": "s",
    "geomean_request_paced_s": "s", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, mode: str) -> dict:
    """One pass in a fresh interpreter; waits for it to end."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
         "--mode", mode, "--t-spawn", repr(t_spawn)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_stamp(seed: int, load_1min: float, versions: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES":
                 os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {**versions, "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "seed": seed, "load_1min": load_1min}


def check_passes(workload: str, seed: int, passes: list,
                 expected: dict) -> tuple:
    """(attempted, failed, log lines) over every pass of a run."""
    attempted = failed = 0
    log = []
    for p in passes:
        lines = outcome.check(workload, p["results"], seed, expected)
        attempted += len(lines)
        # A pass whose loop ran wrapped functions, or whose tracer left
        # wrappers behind, fails as a whole.
        wrapped = p.get("wrapped_in_timed_loop") or p.get("left_wrapped")
        if wrapped:
            failed += len(lines)
            log.append({"ok": False,
                        "why": f"wrapped functions in sodekit: {wrapped[:3]}"})
        else:
            failed += sum(not line["ok"] for line in lines)
        log.extend(lines)
    return attempted, failed, log


def pace_factors(p: dict) -> tuple:
    """The scale from wall seconds to paced seconds for a pass's set-up and
    for each of its requests, from the reference chunks that ran inside
    them; a slot too short to hold MIN_CHUNKS of them takes the rate of the
    whole pass."""
    slots = [p["setup_slot"], *p["pace_slots"]]
    pass_rate = sum(r for r, _ in slots) / sum(s for _, s in slots)
    factors = [pace.NOMINAL_CHUNK_S * (runs / seconds if runs >= MIN_CHUNKS
                                       else pass_rate)
               for runs, seconds in slots]
    return factors[0], factors[1:]


def request_times(passes: list, factors: list) -> dict:
    """Request-time metrics of a run; `factors` scales each pass's latencies."""
    scaled = [[lat * f for lat, f in zip(p["latencies"], fs)]
              for p, fs in zip(passes, factors)]
    latency = [statistics.fmean(lats) for lats in zip(*scaled)]
    return {
        "wall": statistics.fmean(sum(lats) for lats in scaled),
        "max_request": max(latency),
        "geomean_request": statistics.geometric_mean(latency),
    }


def timed_run(workload: str, seed: int, seconds: int) -> tuple:
    t0 = time.monotonic()
    passes = []
    while True:
        passes.append(run_worker(workload, seed, "timed"))
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(passes) > seconds:
            break
    factors = [pace_factors(p) for p in passes]
    paced = request_times(passes, [f for _, f in factors])
    unpaced = request_times(passes, [[1.0] * len(p["latencies"])
                                     for p in passes])
    unpaced["setup"] = statistics.median(p["setup_s"] for p in passes)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] * f
                                     for p, (f, _) in zip(passes, factors)),
        **{f"{name}_paced_s": value for name, value in paced.items()},
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return (passes, {f"{name}_s": value for name, value in unpaced.items()},
            {name: {"value": value, "unit": END_TO_END[name]}
             for name, value in metrics.items()})


def traced_run(workload: str, seed: int) -> tuple:
    plain = run_worker(workload, seed, "timed")
    traced = run_worker(workload, seed, "traced")
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return [plain, traced], {name: {"value": value, "unit": layer_unit(name)}
                             for name, value in layers.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sodekit", "runner.py")):
        print(f"error: no sodekit source tree at {SRC}", file=sys.stderr)
        return 2
    load_1min = os.getloadavg()[0]
    expected = outcome.load_expected()
    try:
        if args.trace:
            passes, metrics = traced_run(args.workload, args.seed)
            raw = {}
        else:
            passes, raw, metrics = timed_run(args.workload, args.seed,
                                             args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    attempted, failed, log = check_passes(args.workload, args.seed, passes,
                                          expected)
    stamp = run_stamp(args.seed, load_1min, passes[0]["versions"])
    for line in log:
        print("request", json.dumps(line, sort_keys=True))
    print("stamp", json.dumps(stamp, sort_keys=True))
    print(f"failed_frac {failed}/{attempted}")
    for name, value in raw.items():
        print(f"unpaced {name} {value!r}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"stamp": stamp, "metrics": metrics, "unpaced": raw,
                   "requests": log,
                   "passes": passes}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
