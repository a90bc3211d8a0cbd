"""Charts, vector fields and frames; bracket calculus on a coordinate patch.

Everything downstream is built from four operations: the coordinate Lie
bracket, numeric rank sampling of a frame, symbolic decomposition of a field
in a frame (exact Gaussian elimination over expressions with probabilistic
zero pivot tests), and the involutivity test that combines them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .expressions import (
    Expr, NEG, Num, ZERO, compile_exprs, differentiate, dot,
    free_symbols, normalize, to_str,
)
from . import memo
from .sampling import ZeroProbe, box_points

RANK_TOL = 1e-9  # singular values below RANK_TOL * s_max count as zero


class GeometryError(ValueError):
    pass


class ChartMismatchError(GeometryError):
    pass


class FrameRankError(GeometryError):
    def __init__(self, message: str, report: "RankReport"):
        super().__init__(message)
        self.report = report


class Chart:
    """Ordered coordinate names plus the sampling box of the local patch."""

    def __init__(self, names: Sequence[str], box: Sequence):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise GeometryError("coordinate names must be unique")
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        if len(box) != len(names):
            raise GeometryError("box must give one interval per coordinate")
        for n, (lo, hi) in zip(names, box):
            if not hi > lo:
                raise GeometryError(f"degenerate box interval for '{n}'")
            if not math.isfinite(hi - lo):
                raise GeometryError(f"box interval for '{n}' is wider than "
                                    f"a float can hold")
        self.names = names
        self.name_set = frozenset(names)
        self.box = box

    @property
    def dim(self) -> int:
        return len(self.names)

    def probe(self, seed: int = 0) -> ZeroProbe:
        return ZeroProbe(self.names, self.box, seed)

    def sample(self, count: int, seed: int = 0):
        return box_points(self.box, count, seed)

    def center(self):
        return tuple(0.5 * (lo + hi) for lo, hi in self.box)

    def contains(self, point, slack: float = 0.0) -> bool:
        return all(
            lo - slack <= x <= hi + slack
            for x, (lo, hi) in zip(point, self.box)
        )

    def __eq__(self, other):
        return (isinstance(other, Chart) and self.names == other.names
                and self.box == other.box)

    def __repr__(self):
        return f"Chart({', '.join(self.names)})"


class VectorField:
    """Vector field with one component expression per chart coordinate."""

    def __init__(self, chart: Chart, components: Sequence[Expr]):
        components = tuple(components)
        if len(components) != chart.dim:
            raise GeometryError(
                f"expected {chart.dim} components, got {len(components)}"
            )
        names = chart.name_set
        if not all(free_symbols(c) <= names for c in components):
            unknown = set().union(*(free_symbols(c) for c in components))
            raise GeometryError(
                "components use symbols outside the chart: "
                f"{sorted(unknown - names)}"
            )
        self.chart = chart
        self.components = components

    def directional(self, f: Expr) -> Expr:
        """Derivative of the scalar f along this field."""
        if f == ZERO:
            return ZERO
        return dot((comp, differentiate(f, name))
                   for name, comp in zip(self.chart.names, self.components)
                   if comp != ZERO)

    def evaluator(self):
        """The compiled components on stacked points (see compile_exprs)."""
        return compile_exprs(self.components, self.chart.names)

    def at(self, point) -> np.ndarray:
        """The components at one point; raises its EvalDomainError."""
        values, errors = self.evaluator()(
            np.asarray(point, dtype=float)[:, None])
        if errors:
            raise errors[0]
        return values[:, 0]

    def combine(self, coeff: Expr, other: "VectorField",
                other_coeff: Expr) -> "VectorField":
        if other.chart != self.chart:
            raise ChartMismatchError("vector fields live on different charts")
        comps = [dot(((coeff, a), (other_coeff, b)))
                 for a, b in zip(self.components, other.components)]
        return VectorField(self.chart, comps)

    def scaled(self, factor: Expr) -> "VectorField":
        return VectorField(self.chart,
                           [dot(((factor, c),)) for c in self.components])

    def __add__(self, other):
        return self.combine(Num(1), other, Num(1))

    def __sub__(self, other):
        return self.combine(Num(1), other, Num(-1))

    def __neg__(self):
        return self.scaled(Num(-1))

    def __repr__(self):
        comps = ", ".join(to_str(c) for c in self.components)
        return f"VectorField[{comps}]"


def coordinate_field(chart: Chart, name: str) -> VectorField:
    idx = chart.names.index(name)
    comps = [Num(1) if i == idx else ZERO for i in range(chart.dim)]
    return VectorField(chart, comps)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^k = X^j dY^k/dz^j - Y^j dX^k/dz^j, normalized."""
    if X.chart != Y.chart:
        raise ChartMismatchError("lie_bracket requires a common chart")
    chart = X.chart
    key = ("lie_bracket", chart.names, X.components, Y.components)
    comps = memo.get(key)
    if comps is None:
        comps = memo.put(key, _bracket_components(X, Y))
    return VectorField(chart, comps)


def _bracket_components(X: VectorField, Y: VectorField) -> tuple:
    """dY^k/dz^j is formed only where X^j is not structurally zero, and
    dX^k/dz^j only where Y^j is not, as in `directional`."""
    xs, ys = X.components, Y.components
    return tuple(
        dot([(x, differentiate(ys[k], name))
             for x, name in zip(xs, X.chart.names) if x != ZERO]
            + [(NEG, y, differentiate(xs[k], name))
               for y, name in zip(ys, X.chart.names) if y != ZERO])
        for k in range(X.chart.dim))


@dataclass
class RankReport:
    claimed_rank: int
    sample_count: int
    ranks: list
    worst_conditioning: float
    deficient_points: list
    skipped_points: int = 0

    @property
    def constant_rank(self) -> bool:
        return not self.deficient_points

    def as_dict(self) -> dict:
        return {
            "claimed_rank": self.claimed_rank,
            "sample_count": self.sample_count,
            "worst_conditioning": self.worst_conditioning,
            "deficient_point_count": len(self.deficient_points),
            "deficient_points": [list(p) for p in self.deficient_points[:8]],
            "skipped_points": self.skipped_points,
        }


def first_domain_error(labels, chart: Chart, points, values,
                       errors) -> str:
    """Where fields first fail to evaluate: the first non-finite component
    at the first failing point, that point and the failing subexpression.
    `values` and `errors` are a compiled evaluator's output on the fields'
    stacked components at `points`; `labels` name the fields."""
    k = min(errors)
    j = int(np.flatnonzero(~np.isfinite(values[:, k]))[0])
    return (f"component {j % chart.dim} ('{chart.names[j % chart.dim]}') of "
            f"{labels[j // chart.dim]} fails at {points[k]}: {errors[k]}")


def frame_rank(fields, samples: int = 64, seed: int = 0) -> RankReport:
    """Numeric rank of the span of `fields` at quasi-random sample points of
    their chart."""
    fields = list(fields)
    if not fields:
        raise GeometryError("empty frame")
    chart = fields[0].chart
    if samples < 1:
        raise GeometryError("samples must be >= 1")
    points = chart.sample(samples, seed)
    values, errors = compile_exprs(
        [c for f in fields for c in f.components], chart.names)(
        np.array(points).T)
    kept = [k for k in range(len(points)) if k not in errors]
    if not kept:
        raise GeometryError(
            "all sample points hit evaluation domain errors: "
            + first_domain_error([f"field {i}" for i in range(len(fields))],
                                 chart, points, values, errors))
    # one matrix per kept point, with the fields' values as its columns
    matrices = values[:, kept].T.reshape(len(kept), len(fields), chart.dim)
    svals = np.linalg.svd(matrices.transpose(0, 2, 1), compute_uv=False)
    ranks = (svals > RANK_TOL * svals[:, :1]).sum(axis=1)
    # a field's scale must not decide the rank: the points that look
    # deficient are tested again with each field's largest component scaled
    # to one there (a zero field stays zero), unless every field there has
    # the same size already
    low = np.flatnonzero(ranks < len(fields))
    if low.size:
        sizes = np.abs(matrices[low]).max(axis=2, keepdims=True)
        uneven = sizes.min(axis=1)[:, 0] < sizes.max(axis=1)[:, 0]
        low, sizes = low[uneven], sizes[uneven]
    if low.size:
        unit = matrices[low] / np.where(sizes > 0, sizes, 1.0)
        sv = np.linalg.svd(unit.transpose(0, 2, 1), compute_uv=False)
        ranks[low] = np.maximum(ranks[low],
                                (sv > RANK_TOL * sv[:, :1]).sum(axis=1))
    ranks = [int(r) for r in ranks]
    full = [k for k, r in enumerate(ranks) if r == len(fields)]
    claimed = max(ranks)
    return RankReport(
        claimed_rank=claimed,
        sample_count=len(ranks),
        ranks=ranks,
        worst_conditioning=(float(svals[full, len(fields) - 1].min())
                            if full else 0.0),
        deficient_points=[points[k] for k, r in zip(kept, ranks)
                          if r < claimed],
        skipped_points=len(points) - len(kept),
    )


class Frame:
    """Ordered list of vector fields spanning a distribution.

    Validated eagerly: the frame must have constant full rank on the
    sampling box (a distribution in the strict sense).  A raw list of
    fields, whose rank is itself under investigation, is not a Frame.
    """

    def __init__(self, chart: Chart, fields: Sequence[VectorField],
                 samples: int = 64, seed: int = 0):
        fields = tuple(fields)
        for f in fields:
            if f.chart != chart:
                raise ChartMismatchError("all frame fields must share the chart")
        self.chart = chart
        self.fields = fields
        report = frame_rank(fields, samples, seed)
        if report.claimed_rank != len(fields) or not report.constant_rank:
            raise FrameRankError(
                f"frame rank {report.claimed_rank} of {len(fields)} "
                f"with {len(report.deficient_points)} deficient samples",
                report,
            )

    def __len__(self):
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __getitem__(self, i):
        return self.fields[i]


@dataclass(frozen=True)
class Decomposition:
    ok: bool
    coefficients: Optional[tuple] = None
    residual_verdicts: Optional[tuple] = None
    failure: Optional[str] = None  # "not_in_span" | "pivot_ambiguous" | "rank_deficient"
    witness: Optional[Mapping[str, float]] = None  # read-only
    diagnostic: Optional[str] = None

    @property
    def exact(self) -> bool:
        return bool(self.ok and self.residual_verdicts is not None and
                    all(v.is_zero for v in self.residual_verdicts))


def decompose_in_frame(X: VectorField, frame, probe: ZeroProbe) -> Decomposition:
    """Express X = sum c^k fr_k with Expression coefficients.

    Solves the component system by exact Gaussian elimination over
    expressions; pivots are selected by the probabilistic zero test.  The
    recombined residual is verified componentwise: a NonZero residual means
    X is not in the span (witness attached); Unknown pivots that block
    elimination are reported as ambiguity.
    """
    fields = list(frame)
    key = ("decompose_in_frame", X.chart.names, X.components,
           tuple(f.components for f in fields), probe)
    hit = memo.get(key)
    return hit if hit is not None else memo.put(
        key, _decompose(X, fields, probe))


def _decompose(X: VectorField, fields: list, probe: ZeroProbe):
    m = X.chart.dim
    k = len(fields)
    rows = [
        [fields[j].components[i] for j in range(k)] + [X.components[i]]
        for i in range(m)
    ]
    rows = [[normalize(e) for e in row] for row in rows]
    row_order = list(range(m))
    pivot_rows = []
    for col in range(k):
        pivot = None
        saw_unknown = False
        for ri in row_order:
            if ri in pivot_rows:
                continue
            entry = rows[ri][col]
            if entry == ZERO:
                continue
            verdict = probe(entry)
            if verdict.is_nonzero:
                pivot = ri
                break
            if not verdict.is_zero:
                saw_unknown = True
        if pivot is None:
            if saw_unknown:
                return Decomposition(
                    ok=False, failure="pivot_ambiguous",
                    diagnostic=f"no certifiably nonzero pivot in column {col}",
                )
            return Decomposition(
                ok=False, failure="rank_deficient",
                diagnostic=f"column {col} vanished during elimination",
            )
        pivot_rows.append(pivot)
        pivot_entry = rows[pivot][col]
        rows[pivot] = [
            normalize(e / pivot_entry) if j >= col else rows[pivot][j]
            for j, e in enumerate(rows[pivot])
        ]
        for ri in range(m):
            if ri == pivot:
                continue
            factor = rows[ri][col]
            if factor == ZERO:
                continue
            rows[ri] = [
                dot(((e,), (NEG, factor, p))) if j >= col else rows[ri][j]
                for j, (e, p) in enumerate(zip(rows[ri], rows[pivot]))
            ]
    coefficients = tuple(rows[pivot_rows[c]][k] for c in range(k))
    residual = list(X.components)
    for c, f in zip(coefficients, fields):
        residual = [dot(((r,), (NEG, c, comp)))
                    for r, comp in zip(residual, f.components)]
    verdicts = tuple(probe(r) for r in residual)
    for v in verdicts:
        if v.is_nonzero:
            return Decomposition(
                ok=False, failure="not_in_span", witness=v.witness,
                residual_verdicts=verdicts,
                diagnostic="recombination residual is nonzero",
            )
    return Decomposition(ok=True, coefficients=coefficients,
                         residual_verdicts=verdicts)


@dataclass
class InvolutivityResult:
    ok: bool
    failing_pair: Optional[tuple] = None
    witness: Optional[Mapping[str, float]] = None
    diagnostic: Optional[str] = None
    unknown_pairs: list = field(default_factory=list)

    def as_dict(self) -> dict:
        out = {"involutive": self.ok}
        if self.failing_pair is not None:
            out["failing_pair"] = list(self.failing_pair)
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        if self.diagnostic:
            out["diagnostic"] = self.diagnostic
        if self.unknown_pairs:
            out["unknown_pairs"] = [list(p) for p in self.unknown_pairs]
        return out


def is_involutive(frame, probe: ZeroProbe) -> InvolutivityResult:
    """Check closure under Lie bracket by decomposing each [fr_i, fr_j]."""
    fields = list(frame)
    unknowns = []
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            bracket = lie_bracket(fields[i], fields[j])
            if all(c == ZERO for c in bracket.components):
                continue
            dec = decompose_in_frame(bracket, fields, probe)
            if not dec.ok:
                if dec.failure == "not_in_span":
                    return InvolutivityResult(
                        ok=False, failing_pair=(i, j), witness=dec.witness,
                        diagnostic=f"[{i},{j}] leaves the span",
                    )
                return InvolutivityResult(
                    ok=False, failing_pair=(i, j), diagnostic=dec.diagnostic,
                )
            if not dec.exact:
                unknowns.append((i, j))
    return InvolutivityResult(ok=True, unknown_pairs=unknowns)
