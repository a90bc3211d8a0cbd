"""Command-line front end.

    sodekit check|classify|connection|quadratic|straighten|report \
        [manifest.json] [--corpus NAME] [--seed N] [--samples N] \
        [--grid N] [--tol X] [--extent X] [--json OUT]
    sodekit corpus [--show NAME]

Exit codes: 0 pass, 1 mathematical condition failed, 2 input error,
3 numeric failure, 4 internal error (any other exception, reported in one
line without a traceback).
"""

from __future__ import annotations

import argparse
import json
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


def _summarize(report: dict, exit_code: int):
    print(f"sodekit {report.get('command', '?')}: "
          f"{report.get('manifest', {}).get('name', '<manifest>')}")
    if "error" in report:
        print(f"  error: {report['error']}")
    for name, verdict in (report.get("verdicts") or {}).items():
        status = verdict.get("status")
        if status is None:
            status = "pass" if verdict.get("involutive") else "fail"
        print(f"  {name}: {status}")
    analysis = report.get("analysis")
    if analysis:
        print(f"  classification: {analysis.get('classification')}")
        if analysis.get("reason"):
            print(f"  reason: {analysis['reason']}")
        if "parameter_count" in analysis:
            print(f"  parameters: {analysis['parameter_count']}")
        pts = analysis.get("zero_section_points")
        if pts:
            pretty = ", ".join(f"{v:.6g}" for v in pts[0])
            print(f"  vertical locus point: ({pretty})"
                  + (f" (+{len(pts) - 1} more)" if len(pts) > 1 else ""))
        curv = analysis.get("mixed_curvature")
        if curv:
            print(f"  quadratic verdict: {curv['verdict']}")
        suites = analysis.get("identity_suites") or []
        bad = [s for s in suites if s.get("status") != "pass"]
        print(f"  identity suites: {len(suites) - len(bad)}/{len(suites)} pass")
        for s in bad:
            print(f"    FAILED {s['identity']}: residual {s['max_residual']}")
        for warning in analysis.get("warnings") or []:
            print(f"  warning: {warning}")
    residuals = report.get("residuals")
    if residuals:
        print(f"  straighten: max structural residual "
              f"{residuals['max_structural_residual']:.3e} "
              f"({residuals.get('status', '?')}, "
              f"tolerance {residuals.get('tolerance')})")
    if "straighten_error" in report:
        print(f"  straighten error: {report['straighten_error']}")
    qc = report.get("quadratic_coefficients")
    if qc:
        print(f"  quadratic fit residual: {qc['max_fit_residual']:.3e}")
    for warning in report.get("warnings") or []:
        print(f"  warning: {warning}")
    print(f"  exit: {exit_code}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as err:  # the last resort: a documented code, one line
        print(f"internal error: {type(err).__name__}: "
              f"{' '.join(str(err).split())}", file=sys.stderr)
        return EXIT_INTERNAL


def _run(args) -> int:
    if args.command == "corpus":
        if args.show:
            try:
                print(json.dumps(corpus_raw(args.show), indent=2,
                                 sort_keys=True))
            except ManifestError as err:
                print(f"error: {err}", file=sys.stderr)
                return EXIT_INPUT
        else:
            for name in corpus_list():
                print(name)
        return 0
    try:
        manifest = resolve_manifest(args.manifest, args.corpus)
        report, exit_code = run_command(args.command, manifest,
                                        _overrides(args))
    except (ManifestError, GeometryError, ExpressionError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report_to_json(report))
        except OSError as err:
            print(f"input error: cannot write report: {err}", file=sys.stderr)
            return EXIT_INPUT
    _summarize(report, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
