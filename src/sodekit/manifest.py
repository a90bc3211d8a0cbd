"""Problem manifests: the self-describing JSON documents the CLI consumes.

A manifest carries the chart (coordinate names and sampling box), the field
F, the frame V spanning the distribution (expressions stored as grammar
strings), options and free-form metadata.  Validation errors raise
ManifestError and map to exit code 2.
"""

from __future__ import annotations

import copy
import json
import sys

from .analysis import Options, OptionsError
from .expressions import Expr, free_symbols
from .geometry import Chart, GeometryError, VectorField
from .parser import ParseError, parse
from .sampling import MAX_DIMS


class ManifestError(ValueError):
    pass


class Manifest:
    """A validated manifest: the chart, F's and the frame's component
    expressions, the options and metadata, and the document it was read
    from (`raw`)."""

    def __init__(self, name: str, chart: Chart, field_components: list,
                 frame_components: list, options: dict, metadata: dict,
                 raw: dict):
        self.name = name
        self.chart = chart
        self.field_components = field_components    # list[Expr]
        self.frame_components = frame_components    # list[list[Expr]]
        self.options = options
        self.metadata = metadata
        self.raw = raw

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def n(self) -> int:
        return len(self.frame_components)

    def vector_field(self) -> VectorField:
        return VectorField(self.chart, self.field_components)

    def frame_fields(self) -> list:
        return [VectorField(self.chart, comps)
                for comps in self.frame_components]

    def echo(self) -> dict:
        return copy.deepcopy(self.raw)


def _parse_expr(text, where: str, chart: Chart) -> Expr:
    """The expression `text` over the chart coordinates."""
    if not isinstance(text, str):
        raise ManifestError(f"{where}: expression must be a string")
    try:
        expr = parse(text)
    except ParseError as err:
        raise ManifestError(f"{where}: {err}") from err
    extra = free_symbols(expr) - set(chart.names)
    if extra:
        raise ManifestError(f"{where} uses unknown symbols {sorted(extra)}")
    return expr


def _is_interval(entry) -> bool:
    return (isinstance(entry, list) and len(entry) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and abs(v) <= sys.float_info.max for v in entry))


def load_manifest(data: dict) -> Manifest:
    if not isinstance(data, dict):
        raise ManifestError("manifest must be a JSON object")
    chart_spec = data.get("chart")
    if not isinstance(chart_spec, dict):
        raise ManifestError("manifest needs a 'chart' object")
    names = chart_spec.get("coordinates")
    box = chart_spec.get("box")
    if (not isinstance(names, list) or not names
            or not all(isinstance(n, str) for n in names)):
        raise ManifestError("chart.coordinates must be a nonempty list of "
                            "names")
    if len(names) > MAX_DIMS:
        raise ManifestError(f"chart has {len(names)} coordinates; at most "
                            f"{MAX_DIMS} are supported")
    if (not isinstance(box, list) or len(box) != len(names)
            or not all(_is_interval(entry) for entry in box)):
        raise ManifestError("chart.box must list one [lo, hi] pair of "
                            "numbers per coordinate")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ManifestError("options must be an object")
    try:
        Options.from_mapping(options)
    except OptionsError as err:
        raise ManifestError(str(err)) from None
    try:
        chart = Chart(names, box)
    except GeometryError as err:
        raise ManifestError(f"invalid chart: {err}") from err

    field_spec = data.get("field")
    comps = field_spec.get("components") if isinstance(field_spec, dict) \
        else None
    if not isinstance(comps, list) or len(comps) != chart.dim:
        raise ManifestError(
            f"manifest needs a 'field' object: field.components must list "
            f"{chart.dim} expressions"
        )
    field_exprs = [
        _parse_expr(c, f"field.components[{i}]", chart)
        for i, c in enumerate(comps)
    ]

    frame_spec = data.get("frame")
    if not isinstance(frame_spec, list) or not frame_spec:
        raise ManifestError("manifest needs a nonempty 'frame' list")
    frame_exprs = []
    for k, entry in enumerate(frame_spec):
        fcomps = entry.get("components") if isinstance(entry, dict) else entry
        if not isinstance(fcomps, list) or len(fcomps) != chart.dim:
            raise ManifestError(
                f"frame[{k}] must list {chart.dim} component expressions"
            )
        frame_exprs.append([
            _parse_expr(c, f"frame[{k}].components[{i}]", chart)
            for i, c in enumerate(fcomps)
        ])
    if 2 * len(frame_exprs) > chart.dim:
        raise ManifestError(
            f"need 2 * frame size <= chart dimension: "
            f"{2 * len(frame_exprs)} > {chart.dim}"
        )

    metadata = data.get("metadata", {})
    return Manifest(
        name=str(data.get("name", "unnamed")),
        chart=chart,
        field_components=field_exprs,
        frame_components=frame_exprs,
        options=dict(options),
        metadata=dict(metadata) if isinstance(metadata, dict) else {},
        raw=data,
    )


def load_manifest_text(text: str) -> Manifest:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ManifestError(f"manifest is not valid JSON: {err}") from err
    return load_manifest(data)


def load_manifest_file(path: str) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ManifestError(f"cannot read manifest: {err}") from err
    return load_manifest_text(text)
