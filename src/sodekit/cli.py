"""Command-line front end.

    sodekit check|classify|connection|quadratic|straighten|report \
        [manifest.json] [--corpus NAME] [--seed N] [--samples N] \
        [--grid N] [--tol X] [--extent X] [--json OUT]
    sodekit corpus [--show NAME]

Exit codes: 0 pass, 1 mathematical condition failed, 2 input error,
3 numeric failure, 4 internal error (any other exception, reported in one
line without a traceback).  A reader that closes stdout early (`| head -1`)
leaves the exit code as it is.
"""

from __future__ import annotations

import argparse
import os
import sys

from .corpus import corpus_list, corpus_raw
from .expressions import ExpressionError
from .geometry import GeometryError
from .manifest import ManifestError
from .runner import (
    EXIT_INPUT, EXIT_INTERNAL, COMMANDS, report_to_json, resolve_manifest,
    run_command,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sodekit",
        description="Decide whether a vector field is a second-order "
                    "differential equation field in disguise and construct "
                    "the normalizing coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("manifest", nargs="?", default=None,
                       help="path to a manifest JSON file")
        p.add_argument("--corpus", default=None, metavar="NAME",
                       help="use a builtin corpus instance instead of a file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--tol", dest="tolerance", type=float, default=None)
        p.add_argument("--extent", type=float, default=None)
        p.add_argument("--json", default=None, metavar="OUT",
                       help="write the machine-readable report here")
    c = sub.add_parser("corpus", help="list builtin instances")
    c.add_argument("--show", default=None, metavar="NAME",
                   help="print the named manifest as JSON")
    return parser


def _overrides(args) -> dict:
    """The option flags given, under their manifest option names."""
    keys = ("seed", "samples", "grid", "tolerance", "extent")
    return {key: getattr(args, key) for key in keys
            if getattr(args, key) is not None}


def _summary(report: dict, exit_code: int) -> str:
    """The report's summary for stdout, one line per item."""
    lines = []
    say = lines.append
    say(f"sodekit {report.get('command', '?')}: "
        f"{report.get('manifest', {}).get('name', '<manifest>')}")
    if "error" in report:
        say(f"  error: {report['error']}")
    for name, verdict in (report.get("verdicts") or {}).items():
        status = verdict.get("status")
        if status is None:
            status = "pass" if verdict.get("involutive") else "fail"
        say(f"  {name}: {status}")
    analysis = report.get("analysis")
    if analysis:
        say(f"  classification: {analysis.get('classification')}")
        if analysis.get("reason"):
            say(f"  reason: {analysis['reason']}")
        if "parameter_count" in analysis:
            say(f"  parameters: {analysis['parameter_count']}")
        pts = analysis.get("zero_section_points")
        if pts:
            pretty = ", ".join(f"{v:.6g}" for v in pts[0])
            say(f"  vertical locus point: ({pretty})"
                + (f" (+{len(pts) - 1} more)" if len(pts) > 1 else ""))
        curv = analysis.get("mixed_curvature")
        if curv:
            say(f"  quadratic verdict: {curv['verdict']}")
        suites = analysis.get("identity_suites") or []
        bad = [s for s in suites if s.get("status") != "pass"]
        say(f"  identity suites: {len(suites) - len(bad)}/{len(suites)} pass")
        for s in bad:
            say(f"    FAILED {s['identity']}: residual {s['max_residual']}")
        for warning in analysis.get("warnings") or []:
            say(f"  warning: {warning}")
    residuals = report.get("residuals")
    if residuals:
        say(f"  straighten: max structural residual "
            f"{residuals['max_structural_residual']:.3e} "
            f"({residuals.get('status', '?')}, "
            f"tolerance {residuals.get('tolerance')})")
    if "straighten_error" in report:
        say(f"  straighten error: {report['straighten_error']}")
    qc = report.get("quadratic_coefficients")
    if qc:
        say(f"  quadratic fit residual: {qc['max_fit_residual']:.3e}")
    for warning in report.get("warnings") or []:
        say(f"  warning: {warning}")
    say(f"  exit: {exit_code}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out, exit_code = _run(args)
    except Exception as err:  # the last resort: a documented code, one line
        print(f"internal error: {type(err).__name__}: "
              f"{' '.join(str(err).split())}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # a reader that closed the pipe (`| head -1`) is no error: stdout
        # goes to the null device, as the SIGPIPE note of Python's signal
        # docs shows, so the interpreter's final flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return exit_code


def _run(args) -> tuple:
    """(stdout text, exit code) of the command; errors go to stderr."""
    if args.command == "corpus":
        if not args.show:
            return "".join(f"{name}\n" for name in corpus_list()), 0
        try:
            return report_to_json(corpus_raw(args.show)), 0
        except ManifestError as err:
            print(f"error: {err}", file=sys.stderr)
            return "", EXIT_INPUT
    try:
        manifest = resolve_manifest(args.manifest, args.corpus)
        report, exit_code = run_command(args.command, manifest,
                                        _overrides(args))
    except (ManifestError, GeometryError, ExpressionError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return "", EXIT_INPUT
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report_to_json(report))
        except OSError as err:
            print(f"input error: cannot write report: {err}", file=sys.stderr)
            return "", EXIT_INPUT
    return _summary(report, exit_code), exit_code

if __name__ == "__main__":
    sys.exit(main())
