"""Workload definitions: named request lists and the manifests they use.

A request is one library call, `runner.run_command(command, manifest)`,
followed by `runner.report_to_json`.  Every instance appears at most once in
a workload, so no request can reuse another request's work inside one
process.  Manifests are JSON texts; the benchmark seed is written into every
manifest's `options.seed`, and grid overrides go into `options` too, so the
manifest carries the whole request.

This module imports neither numpy, scipy nor sodekit at import time: the
set-up clock of a workload process covers those imports.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MANIFEST_DIR = os.path.join(BENCH_DIR, "manifests")
OUT_DIR = os.path.join(BENCH_DIR, "out")

CORPUS = ("beta-rescaled", "cubic-demo", "oscillator-scrambled",
          "quadratic-demo", "routh-abelian", "timedep-scrambled")


@dataclass(frozen=True)
class Request:
    command: str
    instance: str
    options: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.command} {self.instance}"


def _requests(command, instances):
    return [Request(command, name) for name in instances]


WORKLOADS = {
    # Symbolic layers at full load, straightening idle.  The transcendental
    # instances put opaque Fn atoms through the normal form.
    "classify-symbolic": _requests(
        "classify", CORPUS + ("osc-sin", "exp-force", "regularity-fail"),
    ),
    # Per-node variational solves; constant-field shortcut; per-call overhead.
    "straighten-grid": [
        Request("straighten", "timedep-scrambled", {"grid": 14}),
        Request("straighten", "routh-abelian", {"grid": 5}),
        Request("straighten", "oscillator-scrambled", {"grid": 30}),
    ],
    # The everyday user path at manifest defaults.
    "report-corpus": _requests("report", CORPUS),
    # Self-test workload: one cheap request, not listed in BENCHMARK.json.
    "smoke": _requests("classify", ("beta-rescaled",)),
}


def raw_manifest(instance: str) -> dict:
    """The manifest document of a bench-only or corpus instance."""
    path = os.path.join(MANIFEST_DIR, instance + ".json")
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    from sodekit.corpus import corpus_raw
    return json.loads(json.dumps(corpus_raw(instance)))


def manifest_text(request: Request, seed: int) -> str:
    """JSON text of the manifest for one request at the benchmark seed."""
    data = raw_manifest(request.instance)
    data["options"] = {**data.get("options", {}), **request.options,
                       "seed": seed}
    return json.dumps(data, sort_keys=True)
