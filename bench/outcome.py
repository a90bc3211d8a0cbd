"""Outcome checking against the outcomes recorded in `expected.json`.

An outcome is what a user acts on: the exit code, the classification, the
mixed-curvature verdict and the residual status under the manifest
tolerance.  A request fails when its outcome differs from the recorded one,
or when it raised.  The SHA-256 digest of the report body without `timings`
is informational only: last-bit float moves are allowed when documented, so a
changed digest is flagged but never counted as a failure.
"""

from __future__ import annotations

import hashlib
import json
import os

from workloads import BENCH_DIR

EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")


def outcome_of(report: dict, exit_code: int) -> dict:
    analysis = report.get("analysis") or {}
    curvature = analysis.get("mixed_curvature") or {}
    residuals = report.get("residuals") or {}
    return {
        "exit": exit_code,
        "classification": analysis.get("classification"),
        "curvature": curvature.get("verdict"),
        "residuals": residuals.get("status"),
    }


def digest_of(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "timings"}
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, results: list, seed: int, expected: dict) -> list:
    """Compare one pass's results with the recorded outcomes.

    `results` holds one dict per request with `label`, and either `outcome`
    and `digest` or `error`.  Returns one line per request for the log, with
    `ok` telling whether the outcome matched.
    """
    recorded = expected["workloads"][workload]
    lines = []
    for res in results:
        ref = recorded.get(res["label"])
        if ref is None:
            lines.append({"label": res["label"], "ok": False,
                          "why": "no recorded outcome"})
            continue
        if "error" in res:
            lines.append({"label": res["label"], "ok": False,
                          "why": f"raised {res['error']}"})
            continue
        ok = res["outcome"] == ref["outcome"]
        ref_digest = ref["digests"].get(str(seed))
        if ref_digest is None:
            digest_note = "unrecorded"
        elif ref_digest == res["digest"]:
            digest_note = "same"
        else:
            digest_note = "CHANGED"
        line = {"label": res["label"], "ok": ok,
                "digest": res["digest"][:16], "digest_vs_seed": digest_note}
        if not ok:
            line["why"] = f"outcome {res['outcome']} != {ref['outcome']}"
        lines.append(line)
    return lines
