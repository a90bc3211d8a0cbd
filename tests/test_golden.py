"""Golden reports: every corpus instance under every command, compared byte
for byte with the stored report body (everything but `timings`) and exit
code.

Regenerate the files (only when a report is meant to change) with

    PYTHONPATH=src python -m tests.test_golden
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


def write_goldens():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, command in CASES:
        body, codes[f"{name} {command}"] = golden_body(name, command)
        golden_path(name, command).write_text(body, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_goldens()
