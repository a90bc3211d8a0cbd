"""Command pipelines: load a manifest, walk the stages of the requested
command, assemble a report dictionary and an exit code.

The pipeline is one ordered stage list, STAGES: the recognition stages of
`analysis.STAGES`, then building the chart, certifying it on the residual
grid and extracting the quadratic force.  A command (COMMANDS) names the
stages it runs, in list order, and its exit rule.  A command that runs both
of the last two stages solves the fit's stencil in `residuals`, beside the
cross-check's, so it is timed there and `extraction` then only fits.

Exit codes: 0 all checks pass, 1 a mathematical condition failed, 2 input
error, 3 numeric failure; the CLI maps any other exception to 4.  Reports
are deterministic for a fixed manifest and seed; wall-clock timings live in
their own section, one entry per stage run, and are the only
nondeterministic entries.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple, Optional

from . import __version__
from . import analysis
from .analysis import (
    AnalysisError, CASE2, InternalInconsistencyError, Options, OptionsError,
    PipelineState, SecondOrderProblem, SIGN_CONVENTIONS, walk,
)
from .geometry import Frame, FrameRankError
from .manifest import Manifest, ManifestError, load_manifest_file
from .corpus import corpus_get
from .straighten import (
    NumericFailure, build_normal_coordinates, default_grid_points,
    extract_quadratic_coefficients, pushforward_residuals, quadratic_nodes,
)

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

QUADRATIC_EXTRACTION_MAX_DIM = 4
MAX_GRID_NODES = 100_000


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


class _Run(PipelineState):
    """The pipeline state of one command, with its report and the chart."""

    def __init__(self, command: str, problem: SecondOrderProblem,
                 report: dict):
        super().__init__(problem)
        self.command = command
        self.report = report
        self.transform = None
        self.fit_stencil = None     # the fit's stencil, solved by `residuals`
        self.residuals_ok = False
        self.numeric_failed = False

    def warn(self, message: str):
        self.report.setdefault("warnings", []).append(message)

    def chart_failed(self, err: NumericFailure):
        """A NumericFailure building or certifying the chart: exit 3, except
        for `quadratic`, which builds the chart only to fit the force."""
        self.transform = None
        if self.command == "quadratic":
            self.warn(f"coefficient extraction failed: {err}")
            return
        key = "straighten_error" if self.command == "report" else "error"
        self.report[key] = str(err)
        self.numeric_failed = True


def _extractable(run: _Run) -> bool:
    a = run.analysis
    return (a.curvature.verdict == "quadratic"
            and run.problem.m <= QUADRATIC_EXTRACTION_MAX_DIM
            and (a.classification == CASE2 or bool(a.zero_section_points)))


def _build_transform(run: _Run):
    if "residuals" in COMMANDS[run.command].stages or _extractable(run):
        try:
            run.transform = build_normal_coordinates(run.analysis)
        except NumericFailure as err:
            run.chart_failed(err)


def _residuals(run: _Run):
    if run.transform is None:
        return
    opts = run.problem.options
    fit_nodes = None
    if "extraction" in COMMANDS[run.command].stages and _extractable(run):
        fit_nodes = quadratic_nodes(run.transform)
    try:
        residuals = pushforward_residuals(run.transform, grid_points=opts.grid,
                                          extent=opts.extent,
                                          fit_nodes=fit_nodes)
    except NumericFailure as err:
        run.chart_failed(err)
        return
    run.fit_stencil = residuals.fit_stencil
    run.residuals_ok = residuals.max_structural_residual < opts.tolerance
    run.report["transform"] = run.transform.metadata()
    run.report["residuals"] = {
        **residuals.as_dict(), "tolerance": opts.tolerance,
        "status": "pass" if run.residuals_ok else "fail",
    }


def _extraction(run: _Run):
    if (run.analysis.curvature.verdict == "quadratic"
            and run.problem.m > QUADRATIC_EXTRACTION_MAX_DIM):
        run.warn("coefficient extraction skipped: grid cost grows too fast "
                 f"above dimension {QUADRATIC_EXTRACTION_MAX_DIM}")
    if run.transform is None or not _extractable(run):
        return
    try:
        run.report["quadratic_coefficients"] = \
            extract_quadratic_coefficients(run.transform, run.fit_stencil)
    except NumericFailure as err:
        run.warn(f"coefficient extraction failed: {err}")


STAGES = analysis.STAGES + (
    ("build_transform", _build_transform),
    ("residuals", _residuals),
    ("extraction", _extraction),
)


class Command(NamedTuple):
    stages: tuple                     # stage names, in STAGES order
    passes: Callable[[_Run], bool]    # exit rule: 0 if true, else 1


_RECOGNITION = tuple(name for name, _ in analysis.STAGES)
COMMANDS = {
    "check": Command(_RECOGNITION[:2],
                     lambda run: run.analysis.reason is None),
    "classify": Command(_RECOGNITION, lambda run: run.analysis.ok),
    "connection": Command(_RECOGNITION, lambda run: (
        run.analysis.ok and run.analysis.identity_suites_ok())),
    "quadratic": Command(_RECOGNITION + ("build_transform", "extraction"),
                         lambda run: (run.analysis.curvature is not None
                                      and run.analysis.curvature.verdict
                                      == "quadratic")),
    "straighten": Command(_RECOGNITION + ("build_transform", "residuals"),
                          lambda run: run.analysis.ok and run.residuals_ok),
    "report": Command(tuple(name for name, _ in STAGES), lambda run: (
        run.analysis.ok and run.residuals_ok
        and run.analysis.identity_suites_ok())),
}


def _options(manifest: Manifest, overrides: Optional[dict],
             stages: tuple) -> Options:
    """The manifest's options under the overrides.  ManifestError on a bad
    value and, for a command that certifies the chart, on a residual grid of
    more than MAX_GRID_NODES nodes or a chart too large for a default grid."""
    try:
        opts = Options.from_mapping({**manifest.options, **(overrides or {})})
    except OptionsError as err:
        raise ManifestError(str(err)) from None
    if "residuals" in stages:
        try:
            grid = opts.grid or default_grid_points(manifest.dim)
        except AnalysisError as err:
            raise ManifestError(f"{err}; give a grid (--grid)") from None
        if grid ** manifest.dim > MAX_GRID_NODES:
            raise ManifestError(
                f"option 'grid' must be an integer >= 1 with "
                f"grid^{manifest.dim} <= {MAX_GRID_NODES}, got {grid!r}")
    return opts


def run_command(command: str, manifest: Manifest,
                overrides: Optional[dict] = None) -> tuple:
    """Walk the command's stages: (report, exit code).  Options are checked
    before any work; ManifestError on a bad one."""
    stages = COMMANDS[command].stages
    opts = _options(manifest, overrides, stages)
    report = _base_report(manifest, command)
    try:
        frame = Frame(manifest.chart, manifest.frame_fields(),
                      samples=opts.samples, seed=opts.seed)
    except FrameRankError as err:
        if command == "check":
            report["verdicts"] = {"v_frame_rank": {
                "status": "fail", "detail": str(err),
                "rank": err.report.as_dict()}}
        else:
            report["error"] = f"V frame is not constant full rank: {err}"
        return report, EXIT_MATH_FAIL
    problem = SecondOrderProblem(manifest.chart, manifest.vector_field(),
                                 frame, opts)
    run = _Run(command, problem, report)
    try:
        walk(run, [stage for stage in STAGES if stage[0] in stages],
             report["timings"])
    except InternalInconsistencyError as err:
        report["error"] = f"internal inconsistency: {err}"
        return report, EXIT_NUMERIC
    except AnalysisError as err:
        report["error"] = f"analysis failed: {err}"
        return report, EXIT_NUMERIC
    if command == "check":
        report["verdicts"] = run.analysis.verdicts
    else:
        report["analysis"] = run.analysis.as_dict()
    if run.numeric_failed:
        return report, EXIT_NUMERIC
    return report, EXIT_OK if COMMANDS[command].passes(run) else \
        EXIT_MATH_FAIL


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
