"""Command pipelines: load a manifest, run the requested stages, assemble a
report dictionary and an exit code.

Exit codes: 0 all checks pass, 1 a mathematical condition failed, 2 input
error, 3 numeric failure.  Reports are deterministic for a fixed manifest
and seed; wall-clock timings live in their own section and are the only
nondeterministic entries.
"""

from __future__ import annotations

import json
import numbers
import time
from typing import Optional

from . import __version__
from .analysis import (
    AnalysisError, CASE2, InternalInconsistencyError, Options, OptionsError,
    SecondOrderProblem, SIGN_CONVENTIONS, classify,
)
from .geometry import Frame, FrameRankError
from .manifest import Manifest, ManifestError, load_manifest_file
from .corpus import corpus_get
from .straighten import (
    NumericFailure, build_normal_coordinates,
    extract_quadratic_coefficients, pushforward_residuals,
)

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

STRUCTURAL_TOL_DEFAULT = 1e-5
QUADRATIC_EXTRACTION_MAX_DIM = 4
MAX_GRID_NODES = 100_000


class _Timer:
    def __init__(self):
        self.marks = {}
        self._last = time.perf_counter()

    def lap(self, label: str):
        now = time.perf_counter()
        self.marks[label] = round(now - self._last, 6)
        self._last = now


def resolve_manifest(path: Optional[str], corpus_name: Optional[str]) -> Manifest:
    if (path is None) == (corpus_name is None):
        raise ManifestError(
            "give exactly one of a manifest path or --corpus <name>"
        )
    if corpus_name is not None:
        return corpus_get(corpus_name)
    return load_manifest_file(path)


def _base_report(manifest: Manifest, command: str) -> dict:
    return {
        "tool": {"name": "sodekit", "version": __version__,
                 "report_schema": 1},
        "command": command,
        "manifest": manifest.echo(),
        "conventions": dict(SIGN_CONVENTIONS),
        "timings": {},
    }


def _problem(manifest: Manifest, overrides: dict):
    try:
        opts = Options.from_mapping({**manifest.options, **overrides})
    except OptionsError as err:
        raise ManifestError(str(err)) from None
    frame = Frame(manifest.chart, manifest.frame_fields(),
                  samples=opts.samples, seed=opts.seed)
    return SecondOrderProblem(manifest.chart, manifest.vector_field(), frame,
                              opts, strict=False)


def _grid_options(manifest: Manifest, overrides: dict) -> tuple:
    """(tolerance, grid, extent) of the residual grid, None for a default
    grid or extent.  ManifestError on a value that is not a number, or on a
    grid that is not an integer >= 1 with at most MAX_GRID_NODES nodes."""
    opts = {**manifest.options, **overrides}
    grid = opts.get("grid")
    if grid is not None and not (
            isinstance(grid, numbers.Integral) and not isinstance(grid, bool)
            and 1 <= grid and int(grid) ** manifest.dim <= MAX_GRID_NODES):
        raise ManifestError(
            f"grid must be an integer >= 1 with grid^{manifest.dim} <= "
            f"{MAX_GRID_NODES}, got {grid!r}")
    extent = opts.get("extent")
    try:
        return (float(opts.get("tolerance", STRUCTURAL_TOL_DEFAULT)), grid,
                None if extent is None else float(extent))
    except (TypeError, ValueError) as err:
        raise ManifestError(f"tolerance and extent must be numbers: {err}") \
            from None


def run_check(manifest: Manifest, overrides: Optional[dict] = None) -> tuple:
    """Regularity, V-involutivity and W-involutivity verdicts."""
    overrides = overrides or {}
    report = _base_report(manifest, "check")
    timer = _Timer()
    try:
        problem = _problem(manifest, overrides)
    except FrameRankError as err:
        report["verdicts"] = {
            "v_frame_rank": {"status": "fail", "detail": str(err),
                             "rank": err.report.as_dict()},
        }
        report["timings"] = timer.marks
        return report, EXIT_MATH_FAIL
    from .analysis import (
        build_extended_frame, check_regularity, check_w_involutive,
    )

    verdicts = {"v_involutive": problem.v_involutivity.as_dict()}
    regularity = check_regularity(problem)
    verdicts["regularity"] = regularity
    timer.lap("regularity")
    if regularity["status"] == "pass" and problem.v_involutivity.ok:
        ef = build_extended_frame(problem)
        w_inv = check_w_involutive(ef)
        verdicts["w_involutive"] = w_inv.as_dict()
        timer.lap("w_involutivity")
    report["verdicts"] = verdicts
    report["timings"] = timer.marks
    ok = (problem.v_involutivity.ok
          and regularity["status"] == "pass"
          and verdicts.get("w_involutive", {}).get("involutive", False))
    return report, EXIT_OK if ok else EXIT_MATH_FAIL


class _FrameRankFailure(Exception):
    """Internal signal: the V frame is not constant full rank (exit 1)."""


def _run_classify_stage(manifest: Manifest, overrides: dict, report: dict,
                        timer: _Timer):
    try:
        problem = _problem(manifest, overrides)
    except FrameRankError as err:
        report["error"] = f"V frame is not constant full rank: {err}"
        raise _FrameRankFailure() from err
    analysis = classify(problem)
    timer.lap("classify")
    report["analysis"] = analysis.as_dict()
    return problem, analysis


def run_classify(manifest: Manifest, overrides: Optional[dict] = None) -> tuple:
    overrides = overrides or {}
    report = _base_report(manifest, "classify")
    timer = _Timer()
    problem, analysis = _run_classify_stage(manifest, overrides, report, timer)
    report["timings"] = timer.marks
    return report, EXIT_OK if analysis.ok else EXIT_MATH_FAIL


def run_connection(manifest: Manifest, overrides: Optional[dict] = None) -> tuple:
    overrides = overrides or {}
    report = _base_report(manifest, "connection")
    timer = _Timer()
    problem, analysis = _run_classify_stage(manifest, overrides, report, timer)
    report["timings"] = timer.marks
    if analysis.connection_data is None:
        return report, EXIT_MATH_FAIL
    ok = analysis.ok and analysis.identity_suites_ok()
    return report, EXIT_OK if ok else EXIT_MATH_FAIL


def run_quadratic(manifest: Manifest, overrides: Optional[dict] = None) -> tuple:
    overrides = overrides or {}
    report = _base_report(manifest, "quadratic")
    timer = _Timer()
    problem, analysis = _run_classify_stage(manifest, overrides, report, timer)
    if analysis.curvature is None:
        report["timings"] = timer.marks
        return report, EXIT_MATH_FAIL
    verdict = analysis.curvature.verdict
    if (verdict == "quadratic" and analysis.ok
            and manifest.dim <= QUADRATIC_EXTRACTION_MAX_DIM
            and (analysis.classification == CASE2
                 or analysis.zero_section_points)):
        try:
            transform = build_normal_coordinates(analysis)
            extraction = extract_quadratic_coefficients(transform)
            report["quadratic_coefficients"] = extraction
            timer.lap("extraction")
        except NumericFailure as err:
            report["warnings"] = [f"coefficient extraction failed: {err}"]
    elif verdict == "quadratic" and manifest.dim > QUADRATIC_EXTRACTION_MAX_DIM:
        report["warnings"] = [
            "coefficient extraction skipped: grid cost grows too fast above "
            f"dimension {QUADRATIC_EXTRACTION_MAX_DIM}"
        ]
    report["timings"] = timer.marks
    return report, EXIT_OK if verdict == "quadratic" else EXIT_MATH_FAIL


def _residual_stage(analysis, report: dict, timer: _Timer,
                    grid_options: tuple) -> tuple:
    """Build the transform, certify it on the residual grid and add both to
    the report; returns (transform, whether the residuals pass)."""
    tol, grid, extent = grid_options
    transform = build_normal_coordinates(analysis)
    timer.lap("build_transform")
    residuals = pushforward_residuals(transform, grid_points=grid,
                                      extent=extent)
    timer.lap("residuals")
    ok = residuals.max_structural_residual < tol
    report["transform"] = transform.metadata()
    report["residuals"] = {**residuals.as_dict(), "tolerance": tol,
                           "status": "pass" if ok else "fail"}
    return transform, ok


def run_straighten(manifest: Manifest, overrides: Optional[dict] = None) -> tuple:
    overrides = overrides or {}
    grid_options = _grid_options(manifest, overrides)
    report = _base_report(manifest, "straighten")
    timer = _Timer()
    problem, analysis = _run_classify_stage(manifest, overrides, report, timer)
    exit_code = EXIT_MATH_FAIL
    if analysis.ok:
        try:
            _, ok = _residual_stage(analysis, report, timer, grid_options)
            exit_code = EXIT_OK if ok else EXIT_MATH_FAIL
        except NumericFailure as err:
            report["error"] = str(err)
            exit_code = EXIT_NUMERIC
    report["timings"] = timer.marks
    return report, exit_code


def run_report(manifest: Manifest, overrides: Optional[dict] = None) -> tuple:
    """Union of every applicable stage in one document."""
    overrides = overrides or {}
    grid_options = _grid_options(manifest, overrides)
    report = _base_report(manifest, "report")
    timer = _Timer()
    problem, analysis = _run_classify_stage(manifest, overrides, report, timer)
    exit_code = EXIT_OK if analysis.ok else EXIT_MATH_FAIL
    if analysis.ok:
        try:
            transform, ok = _residual_stage(analysis, report, timer,
                                            grid_options)
            if not ok:
                exit_code = EXIT_MATH_FAIL
        except NumericFailure as err:
            report["straighten_error"] = str(err)
            exit_code = EXIT_NUMERIC
        if (analysis.curvature is not None
                and analysis.curvature.verdict == "quadratic"
                and manifest.dim <= QUADRATIC_EXTRACTION_MAX_DIM
                and "transform" in report):
            try:
                extraction = extract_quadratic_coefficients(transform)
                report["quadratic_coefficients"] = extraction
                timer.lap("extraction")
            except NumericFailure as err:
                report.setdefault("warnings", []).append(
                    f"coefficient extraction failed: {err}"
                )
        if not analysis.identity_suites_ok() and exit_code == EXIT_OK:
            exit_code = EXIT_MATH_FAIL
    report["timings"] = timer.marks
    return report, exit_code


RUNNERS = {
    "check": run_check,
    "classify": run_classify,
    "connection": run_connection,
    "quadratic": run_quadratic,
    "straighten": run_straighten,
    "report": run_report,
}


def _error_report(command: str, message: str) -> dict:
    return {
        "tool": {"name": "sodekit", "version": __version__,
                 "report_schema": 1},
        "command": command, "error": message, "timings": {},
    }


def run_command(command: str, manifest: Manifest,
                overrides: Optional[dict] = None) -> tuple:
    try:
        return RUNNERS[command](manifest, overrides)
    except _FrameRankFailure as err:
        return (
            _error_report(command,
                          f"V frame is not constant full rank: "
                          f"{err.__cause__}"),
            EXIT_MATH_FAIL,
        )
    except InternalInconsistencyError as err:
        return (_error_report(command, f"internal inconsistency: {err}"),
                EXIT_NUMERIC)
    except NumericFailure as err:
        return (_error_report(command, str(err)), EXIT_NUMERIC)
    except AnalysisError as err:
        return (_error_report(command, f"analysis failed: {err}"),
                EXIT_NUMERIC)


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
