"""Golden reports: every corpus instance under every command, compared byte
for byte with the stored report body (everything but `timings`) and exit
code.

The floats that come from the batched five-point stencil solves are the
exception: `residuals.max_crosscheck_residual`,
`residuals.max_structural_residual` and every number under
`quadratic_coefficients` except the `base` points.  A batch integrates its
members with other steps than one node alone, so these are compared within
FLOAT_TOL; everything around them stays byte for byte.

Regenerate the files (only when a report is meant to change) with

    PYTHONPATH=src python -m tests.test_golden
"""

import json
from pathlib import Path

import numpy as np
import pytest

from sodekit.corpus import corpus_get, corpus_list
from sodekit.runner import COMMANDS, report_to_json, run_command

GOLDEN = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-9
STENCIL_RESIDUALS = ("max_crosscheck_residual", "max_structural_residual")
EXIT_CODES = GOLDEN / "exit_codes.json"
CASES = [(name, command) for name in corpus_list() for command in COMMANDS]


def golden_body(name: str, command: str) -> tuple:
    report, code = run_command(command, corpus_get(name))
    report.pop("timings", None)
    return report_to_json(report), code


def golden_path(name: str, command: str) -> Path:
    return GOLDEN / f"{name}.{command}.json"


def _take_floats(node, taken: list):
    """The node with each float outside `base` lists replaced by None, the
    floats appended to `taken`."""
    if isinstance(node, dict):
        return {k: v if k == "base" else _take_floats(v, taken)
                for k, v in node.items()}
    if isinstance(node, list):
        return [_take_floats(v, taken) for v in node]
    if isinstance(node, float):
        taken.append(node)
        return None
    return node


def split_stencil_floats(body: str) -> tuple:
    """(report text with the stencil floats blanked, those floats)."""
    report = json.loads(body)
    floats = []
    residuals = report.get("residuals") or {}
    for key in STENCIL_RESIDUALS:
        if key in residuals:
            residuals[key] = _take_floats(residuals[key], floats)
    if "quadratic_coefficients" in report:
        report["quadratic_coefficients"] = _take_floats(
            report["quadratic_coefficients"], floats)
    return report_to_json(report), floats


@pytest.mark.parametrize("name,command", CASES)
def test_report_matches_golden(name, command):
    body, code = golden_body(name, command)
    got, got_floats = split_stencil_floats(body)
    want, want_floats = split_stencil_floats(
        golden_path(name, command).read_text(encoding="utf-8"))
    assert got == want
    assert np.allclose(got_floats, want_floats, rtol=0.0, atol=FLOAT_TOL)
    assert code == json.loads(EXIT_CODES.read_text())[f"{name} {command}"]


def write_goldens():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, command in CASES:
        body, codes[f"{name} {command}"] = golden_body(name, command)
        golden_path(name, command).write_text(body, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_goldens()
