"""Charts, vector fields and frames; bracket calculus on a coordinate patch.

Everything downstream is built from four operations: the coordinate Lie
bracket, numeric rank sampling of a frame, symbolic decomposition of a field
in a frame (exact Gaussian elimination over expressions with probabilistic
zero pivot tests), and the involutivity test that combines them.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .expressions import (
    Expr, NEG, Num, ZERO, compile_exprs, differentiate, dot,
    free_symbols, normalize, to_str,
)
from . import memo
from .sampling import ZeroProbe, box_points

RANK_TOL = 1e-9  # singular values below RANK_TOL * s_max count as zero
# the Gram screen: an estimated s_min / s_max above SCREEN_TOL proves full
# rank, and each estimate is held to a relative error of GRAM_SLACK plus the
# Gram's rounding (see `_gram_screen`)
SCREEN_TOL = 1e-6
GRAM_SLACK = 1e-10


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

    def sample(self, count: int, seed: int = 0) -> np.ndarray:
        """`count` points of the box as the rows of the shared read-only
        array of `box_points`."""
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


class RankReport(NamedTuple):
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


def first_domain_error(labels, chart: Chart, points, errors) -> str:
    """Where fields first fail to evaluate: the first failing point, the
    component its error names and the failing subexpression.  `errors` is a
    compiled evaluator's error dict on the fields' stacked components at
    `points`; `labels` name the fields."""
    k = min(errors)
    j = errors[k].index
    return (f"component {j % chart.dim} ('{chart.names[j % chart.dim]}') of "
            f"{labels[j // chart.dim]} fails at {tuple(points[k].tolist())}: "
            f"{errors[k]}")


def frame_rank(fields, samples: int = 64, seed: int = 0) -> RankReport:
    """Numeric rank of the span of `fields` at quasi-random sample points of
    their chart: at each point where every field evaluates, the rank of the
    fields' values there (`_stack_ranks`)."""
    fields = list(fields)
    if not fields:
        raise GeometryError("empty frame")
    chart = fields[0].chart
    if samples < 1:
        raise GeometryError("samples must be >= 1")
    points = chart.sample(samples, seed)
    values, errors = compile_exprs(
        [c for f in fields for c in f.components], chart.names)(points.T)
    if len(errors) == samples:
        raise GeometryError(
            "all sample points hit evaluation domain errors: "
            + first_domain_error([f"field {i}" for i in range(len(fields))],
                                 chart, points, errors))
    kept = None
    if errors:
        ok = np.ones(samples, dtype=bool)
        ok[list(errors)] = False
        kept = np.flatnonzero(ok)
        values = values[:, kept]
    ranks, worst = _stack_ranks(values.reshape(len(fields), chart.dim, -1))
    claimed = int(ranks.max())
    deficient = np.flatnonzero(ranks < claimed)
    if kept is not None:
        deficient = kept[deficient]
    return RankReport(
        claimed_rank=claimed,
        sample_count=len(ranks),
        ranks=ranks.tolist(),
        worst_conditioning=worst,
        deficient_points=list(map(tuple, points[deficient].tolist())),
        skipped_points=len(errors),
    )


def _stack_ranks(values: np.ndarray) -> tuple:
    """(ranks, worst) at K points from the finite values (k, dim, K) of k
    fields, values[i, :, j] field i at point j: the numeric rank of the
    fields at each point, and the smallest singular value at the points of
    full rank k (0.0 if none).

    Both are what np.linalg.svd gives on each point's matrix alone: a
    singular value below RANK_TOL times the largest counts as zero, and a
    point that looks deficient is tested again with each field's largest
    component scaled to one, unless every field has the same size already
    (a zero field stays zero), so a field's scale does not decide the rank.
    LAPACK's SVD runs only where it can change the result: at one point
    when the values are bitwise equal at all of them, and for one or two
    fields at the points that `_gram_screen` leaves open."""
    k, dim, count = values.shape
    values = np.ascontiguousarray(values)
    bits = values.view(np.uint64)
    if count > 1 and (bits == bits[:, :, :1]).all():
        ranks, worst = _stack_ranks(values[:, :, :1])
        return np.repeat(ranks, count), worst
    ranks = np.full(count, k)
    screen = count > 1 and k <= min(2, dim)
    rows = _gram_screen(values) if screen else np.arange(count)
    # one matrix per open point, with the fields' values as its columns
    matrices = values[:, :, rows].transpose(2, 1, 0)
    svals = np.linalg.svd(matrices, compute_uv=False)
    found = (svals > RANK_TOL * svals[:, :1]).sum(axis=1)
    low = np.flatnonzero(found < k)
    if low.size:
        sizes = np.abs(matrices[low]).max(axis=1, keepdims=True)
        uneven = sizes.min(axis=2)[:, 0] < sizes.max(axis=2)[:, 0]
        low, sizes = low[uneven], sizes[uneven]
    if low.size:
        unit = matrices[low] / np.where(sizes > 0, sizes, 1.0)
        sv = np.linalg.svd(unit, compute_uv=False)
        found[low] = np.maximum(found[low],
                                (sv > RANK_TOL * sv[:, :1]).sum(axis=1))
    ranks[rows] = found
    full = found == k
    return ranks, float(svals[full, k - 1].min()) if full.any() else 0.0


def _gram_screen(values: np.ndarray) -> np.ndarray:
    """The points whose rank or smallest singular value needs the SVD,
    from the contiguous values (k, dim, K) of k = 1 or 2 <= dim fields.

    Each point's matrix is scaled by a power of two, which is exact, to a
    largest entry in [0.5, 1), so its k x k Gram matrix neither overflows
    nor loses bits to underflow.  The Gram eigenvalues estimate s_max^2 and
    s_min^2, and each singular value estimate is held to a relative error
    of GRAM_SLACK + 64 eps cond^2, which bounds the Gram's rounding on a
    chart of up to sampling.MAX_DIMS coordinates and the SVD's own.  A
    point whose estimated s_min / s_max is above SCREEN_TOL has full rank
    beyond doubt, unless the SVD's own values may under- or overflow there;
    the other points need the SVD, and so does every sure point whose s_min
    bound reaches down to the least upper bound of them all, so the
    smallest s_min is the SVD's own value."""
    scale = np.frexp(np.abs(values).max(axis=(0, 1)))[1]
    unit = np.ldexp(values, -scale)
    a = unit[0]
    aa = (a * a).sum(axis=0)
    with np.errstate(all="ignore"):
        if len(unit) == 1:
            lmax = lmin = aa
        else:
            b = unit[1]
            bb, ab = (b * b).sum(axis=0), (a * b).sum(axis=0)
            lmax = 0.5 * (aa + bb + np.hypot(aa - bb, 2.0 * ab))
            lmin = (aa * bb - ab * ab) / lmax
        slack = GRAM_SLACK + 64 * np.finfo(float).eps * lmax / lmin
        s_min = np.ldexp(np.sqrt(lmin), scale)
        lo, hi = s_min * (1.0 - slack), s_min * (1.0 + slack)
        sure = ((lmin > SCREEN_TOL ** 2 * lmax) & (lo >= np.finfo(float).tiny)
                & (np.ldexp(np.sqrt(lmax), scale + 1) < np.inf))
    if not sure.any():
        return np.arange(len(sure))
    return np.flatnonzero(~sure | (lo <= hi[sure].min()))


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def lstsq_each(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(A[j], B[j], rcond=None)[0] for each member j of the
    stacks A (K, r, c) and B (K, r, k), bit for bit: one call of the LAPACK
    kernel that np.linalg.lstsq runs on a single matrix (it refuses a
    stack), under the same error state, so an SVD that does not converge
    raises LinAlgError and no RuntimeWarning escapes.  r and k are >= 1."""
    rcond = np.finfo(float).eps * max(A.shape[-2:])
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x, *_ = np.linalg._umath_linalg.lstsq(A, B, rcond,
                                              signature="ddd->ddid")
    return x


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


class Decomposition(NamedTuple):
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


class InvolutivityResult(NamedTuple):
    ok: bool
    failing_pair: Optional[tuple] = None
    witness: Optional[Mapping[str, float]] = None
    diagnostic: Optional[str] = None
    unknown_pairs: Sequence = ()

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
