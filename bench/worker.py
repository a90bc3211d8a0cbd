"""One workload pass in a fresh interpreter: set up, run every request once.

    python3 bench/worker.py --workload NAME --seed N --mode MODE --t-spawn T

MODE is `timed` (tracing off, with the reference chunk of `pace.Pacer`
running on a timer from set-up to the last request) or `traced` (the same
loop with the outside-in tracer installed and no pacer).
`T` is the `time.monotonic()` reading the parent took just before starting
this interpreter, so `setup_s` runs from a fresh interpreter to the first
request: it covers `import sodekit.runner` and loading every manifest.
`setup_s` and each request's latency leave out the chunks that ran inside
them; `setup_slot` and `pace_slots` hold those chunks' (runs, seconds).
The source tree is found through PYTHONPATH, which the parent sets.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import time

import outcome
import pace
import tracer as tracing
from workloads import OUT_DIR, WORKLOADS, manifest_text


def _root(tracer, name: str, request_id: int):
    """The tracer's root span, or nothing when tracing is off."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.root(name, request_id)


def _run_requests(runner, requests, manifests, pacer, tracer=None) -> tuple:
    """The closed loop: one client, sequential requests, no think time."""
    results = []
    latencies = []
    slots = []
    for rid, (req, manifest) in enumerate(zip(requests, manifests)):
        runs0, seconds0 = pacer.runs, pacer.seconds
        t0 = time.perf_counter()
        try:
            with _root(tracer, "request", rid):
                report, code = runner.run_command(req.command, manifest)
                runner.report_to_json(report)
            results.append((report, code))
        except Exception as err:  # a raised request is a counted failure
            results.append(f"{type(err).__name__}: {err}")
        elapsed = time.perf_counter() - t0
        seconds = pacer.seconds - seconds0
        latencies.append(elapsed - seconds)
        slots.append((pacer.runs - runs0, seconds))
    return results, latencies, slots


def run_pass(workload: str, seed: int, mode: str, t_spawn: float) -> dict:
    requests = WORKLOADS[workload]
    pacer = pace.Pacer()
    with pacer if mode == "timed" else contextlib.nullcontext():
        import sodekit.runner as runner
        from sodekit.manifest import load_manifest_text

        tracer = None
        if mode == "traced":
            tracer = tracing.Tracer()
            tracer.install()
        with _root(tracer, "setup", -1):
            manifests = [load_manifest_text(manifest_text(r, seed))
                         for r in requests]
        setup_s = time.monotonic() - t_spawn - pacer.seconds
        setup_slot = (pacer.runs, pacer.seconds)
        # Proof that the timed loop runs the program's own functions.
        wrapped_before = tracing.find_wrapped() if tracer is None else []

        results, latencies, slots = _run_requests(runner, requests,
                                                  manifests, pacer, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_s,
        "setup_slot": setup_slot,
        "wall_s": sum(latencies),
        "latencies": latencies,
        "pace_slots": slots,
        "peak_rss_mb": rss_mb,
        "wrapped_in_timed_loop": wrapped_before,
        "results": [],
    }
    for req, res in zip(requests, results):
        if isinstance(res, str):
            out["results"].append({"label": req.label, "error": res})
        else:
            report, code = res
            out["results"].append({
                "label": req.label,
                "outcome": outcome.outcome_of(report, code),
                "digest": outcome.digest_of(report),
            })
    if tracer is not None:
        tracer.uninstall()
        out["left_wrapped"] = tracing.find_wrapped()
        out["layers"] = tracer.metrics()
        out["requests"] = tracer.request_sums()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(
            OUT_DIR, f"spans-{workload}-seed{seed}.tsv.gz"))
    import numpy
    import scipy
    out["versions"] = {"python": platform.python_version(),
                       "numpy": numpy.__version__, "scipy": scipy.__version__}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("timed", "traced"))
    ap.add_argument("--t-spawn", type=float, required=True)
    args = ap.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.mode, args.t_spawn)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
