"""Golden reports: every corpus instance under every command, compared byte
for byte with the stored report body (everything but `timings`) and exit
code.

Regenerate the files (only when a report is meant to change) with

    PYTHONPATH=src python -m tests.test_golden

which prints, for each file that changed, every leaf that moved (its JSON
path, old -> new) and the largest |delta| among the numeric ones.
"""

import json
from pathlib import Path

import pytest

from sodekit.corpus import corpus_get, corpus_list
from sodekit.runner import COMMANDS, report_to_json, run_command

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
CASES = [(name, command) for name in corpus_list() for command in COMMANDS]


def golden_body(name: str, command: str) -> tuple:
    report, code = run_command(command, corpus_get(name))
    report.pop("timings", None)
    return report_to_json(report), code


def golden_path(name: str, command: str) -> Path:
    return GOLDEN / f"{name}.{command}.json"


@pytest.mark.parametrize("name,command", CASES)
def test_report_matches_golden(name, command):
    body, code = golden_body(name, command)
    assert body == golden_path(name, command).read_text(encoding="utf-8")
    assert code == json.loads(EXIT_CODES.read_text())[f"{name} {command}"]


def leaves(value, path: str = "") -> dict:
    """Every leaf of a JSON value by its path, e.g. `.residuals.extent[0]`."""
    if isinstance(value, dict):
        items = ((f"{path}.{key}", v) for key, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return {path: value}
    return {p: leaf for key, v in items for p, leaf in leaves(v, key).items()}


def moved_leaves(old: str, new: str) -> list:
    """Lines naming each leaf that differs between two report bodies, old ->
    new (a leaf on one side only reads `absent` on the other), and a last
    line with the largest |delta| among the numeric leaves."""
    before, after = leaves(json.loads(old)), leaves(json.loads(new))
    lines, largest = [], 0.0
    for path in sorted(before.keys() | after.keys()):
        a, b = before.get(path, "absent"), after.get(path, "absent")
        if a == b and type(a) is type(b):
            continue
        lines.append(f"  {path}: {a!r} -> {b!r}")
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (a, b)):
            largest = max(largest, abs(b - a))
    return lines + [f"  largest |delta|: {largest:.3g}"]


def write_goldens():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, command in CASES:
        body, codes[f"{name} {command}"] = golden_body(name, command)
        path = golden_path(name, command)
        old = path.read_text(encoding="utf-8") if path.exists() else None
        if old is not None and old != body:
            print("\n".join([f"{path.name}:"] + moved_leaves(old, body)))
        path.write_text(body, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_goldens()
