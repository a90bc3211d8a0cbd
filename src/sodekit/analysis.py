"""Recognition pipeline for second-order behaviour of a vector field F
relative to an involutive distribution V.

Stages: regularity of the span of V together with the brackets [F, V_i];
involutivity of that span W; the mixing coefficients of [V_i, W_j] in the
{V, W} basis and their integrability identities; adaptation to a commuting
basis with [V_i, W_j] vertical; the vertical endomorphism S (S(V) = 0,
S([F,V]) = -V); horizontal/vertical projectors built from the Lie derivative
of S along F; horizontal lifts; the induced covariant derivatives; the mixed
curvature whose vanishing characterizes forces quadratic in the fibre
coordinates; and the final classification into the autonomous and
time-dependent normal-form cases.

Sign conventions used throughout (recorded in every report): W_i = [F, V_i];
S(W_i) = -V_i; the horizontal projector is (id - L_F S)/2; the vertical
covariant derivative of the basis reproduces the w-mixing coefficients with
a plus sign; first-order connection coefficients are the vertical parts of
the horizontal lifts, matching -1/2 d(force)/dy in natural coordinates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .expressions import (
    EvalDomainError, Expr, Num, ZERO, compile_exprs, differentiate, normalize,
    to_str,
)
from .geometry import (
    Chart, Decomposition, Frame, FrameRankError, GeometryError,
    InvolutivityResult, VectorField, decompose_in_frame,
    frame_rank, is_involutive, lie_bracket,
)
from .sampling import ZeroProbe, ZeroVerdict, box_points

SIGN_CONVENTIONS = {
    "w_basis": "W_i = [F, V_i]",
    "tangent_structure": "S(V_i) = 0, S(W_i) = -V_i",
    "projectors": "P_H = (id - L_F S)/2, P_V = (id + L_F S)/2",
    "vertical_derivative": "nabla_{V_i} V_j = +w_mix^k_ij V_k",
    "connection": "Gamma^i_j = vertical part of the horizontal lift h(V_j)",
    "quadratic_fit": "force^k = G^k_ij y^i y^j + P^k_i y^i + Q^k",
}

CASE1 = "case1-sode-with-parameters"
CASE2 = "case2-time-dependent"
NOT_SODE = "not-second-order"


class AnalysisError(RuntimeError):
    pass


class OptionsError(ValueError):
    """A manifest option that is unknown or has a bad value (exit code 2)."""


# options read by the runner for the residual grid rather than by Options
GRID_OPTION_KEYS = ("grid", "tolerance", "extent")


class InternalInconsistencyError(AnalysisError):
    """An identity that involutivity forces has failed; this flags an
    upstream inconsistency or sampling artifact, not a property of the
    input."""


@dataclass
class Options:
    samples: int = 200        # rank / residual sampling points
    seed: int = 0
    trials: int = 64          # zero-test trials
    zero_tol: float = 1e-10
    newton_starts: int = 16
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    @classmethod
    def from_mapping(cls, data: Optional[dict]) -> "Options":
        """Options from a manifest's `options` object.  OptionsError names an
        unknown key or a value of the wrong type or range; the residual-grid
        keys (GRID_OPTION_KEYS) pass through to the runner, which checks
        them."""
        opts = cls()
        types = {f.name: f.type for f in fields(cls)}
        for key, value in (data or {}).items():
            if key in GRID_OPTION_KEYS:
                continue
            if key not in types:
                raise OptionsError(
                    f"unknown option '{key}'; known options are "
                    f"{sorted([*types, *GRID_OPTION_KEYS])}")
            if types[key] == "int":
                low = 0 if key == "seed" else 1
                want = f"an integer >= {low}"
                ok = isinstance(value, numbers.Integral) and value >= low
            else:
                want = "a positive number"
                ok = isinstance(value, numbers.Real) and 0 < value < math.inf
            if not ok or isinstance(value, bool):
                raise OptionsError(
                    f"option '{key}' must be {want}, got {value!r}")
            setattr(opts, key, type(getattr(opts, key))(value))
        return opts


class SecondOrderProblem:
    """A vector field F and an involutive frame V on a chart, 2|V| <= dim."""

    def __init__(self, chart: Chart, F: VectorField, V: Frame,
                 options: Optional[Options] = None, strict: bool = True):
        if F.chart != chart:
            raise GeometryError("F lives on a different chart")
        self.chart = chart
        self.F = F
        self.V = V
        self.options = options or Options()
        self.n = len(V)
        self.m = chart.dim
        if 2 * self.n > self.m:
            raise GeometryError(
                f"need 2*dim(V) <= dim(M): got {2 * self.n} > {self.m}"
            )
        self.probe = chart.probe(self.options.trials, self.options.seed,
                                 self.options.zero_tol)
        self.v_involutivity = is_involutive(V, self.probe)
        if strict and not self.v_involutivity.ok:
            raise GeometryError(
                f"V is not involutive: {self.v_involutivity.diagnostic}"
            )


@dataclass
class IdentitySuite:
    """Aggregated zero-verdicts for one named identity family."""

    name: str
    verdicts: list = field(default_factory=list)

    def add(self, verdict: ZeroVerdict, label: str = ""):
        self.verdicts.append((label, verdict))

    def add_field(self, probe: ZeroProbe, X: VectorField, label: str = ""):
        for idx, comp in enumerate(X.components):
            self.add(probe(comp), f"{label}[{idx}]" if label else f"[{idx}]")

    @property
    def exact(self) -> bool:
        return all(v.is_zero for _, v in self.verdicts)

    @property
    def max_residual(self) -> float:
        vals = [v.max_residual for _, v in self.verdicts if not v.is_zero]
        return max(vals, default=0.0)

    @property
    def ok(self) -> bool:
        return (not any(v.is_nonzero for _, v in self.verdicts)
                and self.max_residual < 1e-9)

    def first_failure(self):
        for label, v in self.verdicts:
            if v.is_nonzero:
                return label, v
        return None

    def as_dict(self) -> dict:
        out = {
            "identity": self.name,
            "status": "pass" if self.ok else "fail",
            "exact": self.exact,
            "max_residual": self.max_residual,
            "checks": len(self.verdicts),
        }
        failure = self.first_failure()
        if failure:
            out["failed_check"] = failure[0]
            out["witness"] = dict(failure[1].witness)
            out["value"] = failure[1].value
        return out


class ExtendedFrame:
    """The V-basis together with W_i = [F, V_i] and the combined frame."""

    def __init__(self, problem: SecondOrderProblem,
                 vbasis: Sequence[VectorField], validate: bool = True):
        self.problem = problem
        self.chart = problem.chart
        self.vbasis = list(vbasis)
        self.wfields = [lie_bracket(problem.F, v) for v in self.vbasis]
        self.combined = Frame(
            problem.chart, self.vbasis + self.wfields,
            validate=validate, samples=problem.options.samples,
            seed=problem.options.seed,
        )
        self.probe = problem.probe

    @property
    def n(self) -> int:
        return len(self.vbasis)

    def decompose(self, X: VectorField) -> Decomposition:
        return decompose_in_frame(X, self.combined, self.probe)

    def decompose_split(self, X: VectorField):
        """Coefficients of X split as (along V, along W); error if outside."""
        dec = self.decompose(X)
        if not dec.ok:
            raise AnalysisError(
                f"field is not in the span of the combined frame: "
                f"{dec.failure} {dec.diagnostic or ''}"
            )
        n = self.n
        return dec.coefficients[:n], dec.coefficients[n:]

    def decompose_vertical(self, X: VectorField):
        dec = decompose_in_frame(X, self.vbasis, self.probe)
        if not dec.ok:
            raise AnalysisError(
                f"field is not vertical: {dec.failure} {dec.diagnostic or ''}"
            )
        return dec.coefficients

    def zero_field(self) -> VectorField:
        return VectorField(self.chart, [ZERO] * self.chart.dim)


def check_regularity(problem: SecondOrderProblem) -> dict:
    """Span of {V_i} with {[F, V_i]} must reach rank 2n at every sample."""
    wfields = [lie_bracket(problem.F, v) for v in problem.V]
    fields = list(problem.V.fields) + wfields
    report = frame_rank(fields, problem.chart,
                        problem.options.samples, problem.options.seed)
    ok = report.claimed_rank == 2 * problem.n and report.constant_rank
    out = {
        "status": "pass" if ok else "fail",
        "expected_rank": 2 * problem.n,
        "rank": report.as_dict(),
    }
    if not ok:
        out["detail"] = (
            "the span of V with [F, V] does not reach twice dim(V); "
            "some bracket direction stays inside V"
        )
    return out


def build_extended_frame(problem: SecondOrderProblem) -> ExtendedFrame:
    try:
        return ExtendedFrame(problem, list(problem.V.fields))
    except FrameRankError as err:
        raise AnalysisError(
            "combined frame lost rank after the regularity check passed; "
            f"inconsistent sampling: {err}"
        ) from err


def check_w_involutive(ef: ExtendedFrame) -> InvolutivityResult:
    """Involutivity of the combined span of the V-basis and the W-fields."""
    return is_involutive(ef.combined, ef.probe)


def check_commuting(ef: ExtendedFrame) -> IdentitySuite:
    suite = IdentitySuite("v_basis_commutes")
    for i in range(ef.n):
        for j in range(i + 1, ef.n):
            suite.add_field(ef.probe, lie_bracket(ef.vbasis[i], ef.vbasis[j]),
                            f"[V{i},V{j}]")
    return suite


@dataclass
class BracketCoefficients:
    """Coefficients of [V_i, W_j] = v^k_ij V_k + w^k_ij W_k."""

    v: list  # v[i][j][k]
    w: list  # w[i][j][k]
    symmetry: IdentitySuite

    @property
    def n(self) -> int:
        return len(self.v)

    def w_all_zero(self) -> bool:
        return all(
            c == ZERO
            for row in self.w for col in row for c in col
        )

    def as_dict(self) -> dict:
        return {
            "v_mix": [[[to_str(c) for c in col] for col in row] for row in self.v],
            "w_mix": [[[to_str(c) for c in col] for col in row] for row in self.w],
            "symmetry": self.symmetry.as_dict(),
        }


def bracket_coefficients(ef: ExtendedFrame) -> BracketCoefficients:
    """Decompose every [V_i, W_j] in the combined frame.

    With a commuting V-basis both families of coefficients are symmetric in
    the lower indices; the symmetry residuals are attached as an identity
    suite."""
    n = ef.n
    v = [[None] * n for _ in range(n)]
    w = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a, b = ef.decompose_split(lie_bracket(ef.vbasis[i], ef.wfields[j]))
            v[i][j] = [normalize(c) for c in a]
            w[i][j] = [normalize(c) for c in b]
    suite = IdentitySuite("mixing_symmetry")
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                suite.add(ef.probe(v[i][j][k] - v[j][i][k]), f"v[{i}{j}{k}]")
                suite.add(ef.probe(w[i][j][k] - w[j][i][k]), f"w[{i}{j}{k}]")
    return BracketCoefficients(v=v, w=w, symmetry=suite)


def verify_bracket_integrability(ef: ExtendedFrame,
                                 bc: BracketCoefficients) -> IdentitySuite:
    """Flatness identities of the w-mixing system.

    V_i(w^l_jk) - V_j(w^l_ik) + w^l_im w^m_jk - w^l_jm w^m_ik = 0 whenever V
    and W are involutive; a NonZero here is an internal inconsistency, not a
    property of the input."""
    n = ef.n
    suite = IdentitySuite("w_mix_integrability")
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for el in range(n):
                    expr = (ef.vbasis[i].directional(bc.w[j][k][el])
                            - ef.vbasis[j].directional(bc.w[i][k][el]))
                    for mm in range(n):
                        expr = expr + bc.w[i][mm][el] * bc.w[j][k][mm] \
                            - bc.w[j][mm][el] * bc.w[i][k][mm]
                    suite.add(ef.probe(normalize(expr)), f"[{i}{j}{k}{el}]")
    return suite


@dataclass
class AdaptationInfo:
    mode: str                       # "identity" | "symbolic" | "numeric"
    matrix: Optional[list] = None   # A[i][j] Expressions (mode != numeric)
    evaluator: Optional[Callable] = None  # z -> np matrix (mode == numeric)
    verification: Optional[IdentitySuite] = None
    diagnostic: Optional[str] = None

    def as_dict(self) -> dict:
        out = {"mode": self.mode}
        if self.matrix is not None:
            out["matrix"] = [[to_str(c) for c in row] for row in self.matrix]
        if self.verification is not None:
            out["verification"] = self.verification.as_dict()
        if self.diagnostic:
            out["diagnostic"] = self.diagnostic
        return out


def _monomials_upto(names, degree):
    """All exponent tuples over `names` with total degree <= degree."""
    out = [()]
    for name in names:
        new = []
        for mono in out:
            used = sum(e for _, e in mono)
            for e in range(degree - used + 1):
                new.append(mono + ((name, e),) if e else mono)
        out = new
    seen = []
    for mono in out:
        if mono not in seen:
            seen.append(mono)
    return seen


def _poly_ansatz_solve(vfield: VectorField, target: Expr, chart: Chart,
                       degree: int = 4):
    """Find a polynomial h with vfield(h) = target * h, h not identically 0.

    Bounded-degree linear ansatz solved exactly over rationals; returns the
    expression h or None."""
    from .expressions import Sym, _to_rf

    monos = _monomials_upto(chart.names, degree)
    if len(monos) > 220:
        return None
    coeff_syms = [Sym(f"_c{i}") for i in range(len(monos))]
    h = ZERO
    for cs, mono in zip(coeff_syms, monos):
        term = cs
        for name, e in mono:
            term = term * Pow_(Sym(name), e)
        h = h + term
    residual = normalize(vfield.directional(h) - target * h)
    p, _ = _to_rf(residual)
    coeff_names = {s.name for s in coeff_syms}
    rows: dict = {}
    for mono, coeff in p.items():
        c_part = None
        rest = []
        for atom, e in mono:
            if getattr(atom, "name", None) in coeff_names and e == 1:
                c_part = atom.name
            else:
                rest.append((atom, e))
        if c_part is None:
            return None
        rows.setdefault(tuple(rest), {})[c_part] = coeff
    if not rows:
        return None
    names = [s.name for s in coeff_syms]
    matrix = [
        [row.get(nm, Fraction(0)) for nm in names] for row in rows.values()
    ]
    null = _rational_nullspace(matrix, len(names))
    if not null:
        return None
    center = {
        name: Fraction(val)
        for name, val in chart.assignment(chart.center()).items()
    }
    for vec in null:
        h_expr = ZERO
        for c, mono in zip(vec, monos):
            if c == 0:
                continue
            term: Expr = Num(c)
            for name, e in mono:
                term = term * Pow_(Sym(name), e)
            h_expr = h_expr + term
        h_expr = normalize(h_expr)
        # the rescaling divides by h, so h must not vanish at the base point
        if eval_exact(h_expr, center) != 0:
            return h_expr
    return None


def eval_exact(e: Expr, assignment: dict) -> Fraction:
    """Exact rational evaluation; polynomial/rational trees only."""
    from .expressions import Add, Div, Mul, Num as NumNode, Pow, Sym

    if isinstance(e, NumNode):
        return e.value
    if isinstance(e, Sym):
        return Fraction(assignment[e.name])
    if isinstance(e, Add):
        total = Fraction(0)
        for t in e.terms:
            total += eval_exact(t, assignment)
        return total
    if isinstance(e, Mul):
        total = Fraction(1)
        for f in e.factors:
            total *= eval_exact(f, assignment)
        return total
    if isinstance(e, Div):
        return eval_exact(e.num, assignment) / eval_exact(e.den, assignment)
    if isinstance(e, Pow):
        if e.exponent.denominator != 1:
            raise AnalysisError("exact evaluation needs integer exponents")
        return eval_exact(e.base, assignment) ** e.exponent.numerator
    raise AnalysisError(f"exact evaluation unsupported for {type(e).__name__}")


def Pow_(base, e):
    from .expressions import Pow
    return Pow(base, e) if e != 1 else base


def _rational_nullspace(matrix, width):
    """Nullspace basis of an exact rational matrix (Gauss-Jordan)."""
    rows = [list(r) for r in matrix]
    pivots = {}
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for c, pr in pivots.items():
            vec[c] = -rows[pr][fc]
        basis.append(vec)
    return basis


def adapt_commuting_basis(ef: ExtendedFrame, bc: BracketCoefficients):
    """Re-mix the V-basis so that every [V_i, W_j] is vertical.

    Identity when the w-mixing coefficients vanish; for n = 1 a bounded
    polynomial ansatz for the scalar transport equation is attempted; any
    remaining case falls back to numeric transport along the V-flows
    (straighten.solve_basis_ode).  Returns (adapted frame, AdaptationInfo)."""
    n = ef.n
    if bc.w_all_zero():
        info = AdaptationInfo(
            mode="identity",
            matrix=[[Num(1) if i == j else ZERO for j in range(n)]
                    for i in range(n)],
            verification=_verify_adapted(ef),
        )
        return ef, info
    if n == 1:
        beta = bc.w[0][0][0]
        h = _poly_ansatz_solve(ef.vbasis[0], beta, ef.chart)
        if h is not None:
            center = {
                name: Fraction(val)
                for name, val in ef.chart.assignment(ef.chart.center()).items()
            }
            scale = eval_exact(h, center)
            a_expr = normalize(Num(scale) / h)
            new_v = ef.vbasis[0].scaled(a_expr)
            adapted = ExtendedFrame(ef.problem, [new_v])
            info = AdaptationInfo(
                mode="symbolic", matrix=[[a_expr]],
                verification=_verify_adapted(adapted),
            )
            return adapted, info
    from .straighten import (
        NumericFailure, default_cross_section, solve_basis_ode,
    )
    try:
        evaluator = solve_basis_ode(
            bc, default_cross_section(ef), ef.vbasis
        )
    except (NumericFailure, AnalysisError, EvalDomainError) as err:
        info = AdaptationInfo(
            mode="numeric", diagnostic=f"numeric transport failed: {err}"
        )
        return ef, info
    info = AdaptationInfo(mode="numeric", evaluator=evaluator)
    return ef, info


def _verify_adapted(ef: ExtendedFrame) -> IdentitySuite:
    """[V_i, W_j] must have zero W-part in the adapted basis."""
    suite = IdentitySuite("adapted_brackets_vertical")
    for i in range(ef.n):
        for j in range(ef.n):
            _, w = ef.decompose_split(
                lie_bracket(ef.vbasis[i], ef.wfields[j])
            )
            for k, c in enumerate(w):
                suite.add(ef.probe(c), f"w[{i}{j}{k}]")
    return suite


# --------------------------------------------------------------------------
# Vertical endomorphism, projectors, lifts, covariant derivatives
# --------------------------------------------------------------------------

def apply_tangent_structure(ef: ExtendedFrame, X: VectorField) -> VectorField:
    """S(X) for X = a^i V_i + b^i W_i: kills V, sends W_i to -V_i."""
    _, b = ef.decompose_split(X)
    out = ef.zero_field()
    for bi, v in zip(b, ef.vbasis):
        out = out + v.scaled(normalize(Num(-1) * bi))
    return out


def nijenhuis_check(ef: ExtendedFrame) -> IdentitySuite:
    """Nijenhuis torsion of S on all combined-frame pairs; must vanish."""
    suite = IdentitySuite("nijenhuis_torsion")
    elements = list(ef.combined.fields)
    s_of = [apply_tangent_structure(ef, e) for e in elements]
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            term1 = lie_bracket(s_of[i], s_of[j])
            term2 = apply_tangent_structure(
                ef, lie_bracket(s_of[i], elements[j])
            )
            term3 = apply_tangent_structure(
                ef, lie_bracket(elements[i], s_of[j])
            )
            torsion = term1 - term2 - term3
            suite.add_field(ef.probe, torsion, f"N[{i},{j}]")
    return suite


@dataclass
class ProjectorData:
    fw_split: list        # decomposition coefficients of [F, W_i]
    lfs_table: list       # (L_F S) applied to each combined-frame element
    identities: IdentitySuite

    def as_dict(self) -> dict:
        return {
            "lie_derivative_S": [
                [to_str(c) for c in f.components] for f in self.lfs_table
            ],
            "identities": self.identities.as_dict(),
        }


class Connections:
    """Projectors, horizontal lifts and covariant derivatives on one frame."""

    def __init__(self, ef: ExtendedFrame):
        self.ef = ef
        self.chart = ef.chart
        self.F = ef.problem.F
        # [F, W] c W is a precondition: decompose each [F, W_i]
        self.fw_dec = []
        for w in ef.wfields:
            dec = ef.decompose(lie_bracket(self.F, w))
            if not dec.ok:
                raise AnalysisError(
                    "[F, W] leaves the span of the combined frame: "
                    f"{dec.failure}"
                )
            self.fw_dec.append(dec)
        # h(V_i) = -P_H(W_i): the unique horizontal field with S-image V_i
        self.horizontal_lifts = [
            self.horizontal(w).scaled(Num(-1)) for w in ef.wfields
        ]

    def lie_derivative_s(self, X: VectorField) -> VectorField:
        """(L_F S)(X) = [F, S(X)] - S([F, X])."""
        ef = self.ef
        sx = apply_tangent_structure(ef, X)
        term1 = lie_bracket(self.F, sx)
        term2 = apply_tangent_structure(ef, lie_bracket(self.F, X))
        return term1 - term2

    def horizontal(self, X: VectorField) -> VectorField:
        half = Num(Fraction(1, 2))
        return (X - self.lie_derivative_s(X)).scaled(half)

    def vertical(self, X: VectorField) -> VectorField:
        half = Num(Fraction(1, 2))
        return (X + self.lie_derivative_s(X)).scaled(half)

    def lifts(self) -> list:
        return list(self.horizontal_lifts)

    def lift_of(self, V: VectorField) -> VectorField:
        coeffs = self.ef.decompose_vertical(V)
        out = self.ef.zero_field()
        for c, h in zip(coeffs, self.horizontal_lifts):
            out = out + h.scaled(c)
        return out

    def vertical_derivative(self, Vdir: VectorField,
                            Varg: VectorField) -> VectorField:
        """Covariant derivative of a vertical field along a vertical
        direction: S([Vdir, -W_b]) on the basis, extended by the Leibniz
        rule through the vertical decomposition of Varg."""
        ef = self.ef
        coeffs = ef.decompose_vertical(Varg)
        out = ef.zero_field()
        for c, vb, wb in zip(coeffs, ef.vbasis, ef.wfields):
            leib = Vdir.directional(c)
            out = out + vb.scaled(leib)
            base = apply_tangent_structure(
                ef, lie_bracket(Vdir, wb.scaled(Num(-1)))
            )
            out = out + base.scaled(c)
        return out

    def covariant_derivative(self, Wdir: VectorField,
                             Varg: VectorField) -> VectorField:
        """nabla_W V = P_V([P_H(W), V]) + S([P_V(W), lift(V)])."""
        ef = self.ef
        term1 = self.vertical(lie_bracket(self.horizontal(Wdir), Varg))
        term2 = apply_tangent_structure(
            ef, lie_bracket(self.vertical(Wdir), self.lift_of(Varg))
        )
        return term1 + term2

    def projector_identities(self) -> ProjectorData:
        ef = self.ef
        suite = IdentitySuite("projector_identities")
        elements = list(ef.combined.fields)
        lfs_table = [self.lie_derivative_s(e) for e in elements]
        for idx, (e, lfs_e) in enumerate(zip(elements, lfs_table)):
            twice = self.lie_derivative_s(lfs_e)
            suite.add_field(ef.probe, twice - e, f"(L_F S)^2-id[{idx}]")
            ph = self.horizontal(e)
            pv = self.vertical(e)
            suite.add_field(ef.probe, ph + pv - e, f"P_H+P_V-id[{idx}]")
            suite.add_field(ef.probe, self.horizontal(ph) - ph,
                            f"P_H idempotent[{idx}]")
            suite.add_field(ef.probe, self.vertical(pv) - pv,
                            f"P_V idempotent[{idx}]")
        for idx, v in enumerate(ef.vbasis):
            suite.add_field(ef.probe, self.vertical(v) - v, f"P_V(V{idx})-V{idx}")
            suite.add_field(ef.probe, self.horizontal(v), f"P_H(V{idx})")
        for idx, (h, v) in enumerate(zip(self.horizontal_lifts, ef.vbasis)):
            suite.add_field(ef.probe, apply_tangent_structure(ef, h) - v,
                            f"S(h{idx})-V{idx}")
            suite.add_field(ef.probe, self.vertical(h), f"P_V(h{idx})")
        return ProjectorData(fw_split=[d.coefficients for d in self.fw_dec],
                             lfs_table=lfs_table, identities=suite)

    def vertical_flatness(self) -> IdentitySuite:
        """Curvature of the vertical derivative in vertical directions."""
        ef = self.ef
        suite = IdentitySuite("vertical_flatness")
        for i in range(ef.n):
            for j in range(i + 1, ef.n):
                for k in range(ef.n):
                    r = self.vertical_derivative(
                        ef.vbasis[i],
                        self.vertical_derivative(ef.vbasis[j], ef.vbasis[k]),
                    ) - self.vertical_derivative(
                        ef.vbasis[j],
                        self.vertical_derivative(ef.vbasis[i], ef.vbasis[k]),
                    )
                    comm = lie_bracket(ef.vbasis[i], ef.vbasis[j])
                    if not all(c == ZERO for c in comm.components):
                        r = r - self.vertical_derivative(comm, ef.vbasis[k])
                    suite.add_field(ef.probe, r, f"R[{i}{j}{k}]")
        return suite


@dataclass
class ConnectionTables:
    gamma1: list          # gamma1[i][j] = Gamma^i_j
    gamma2: list          # gamma2[k][i][j] = Gamma^k_ij
    lifts: list           # horizontal lifts of the V-basis, as fields
    torsion: IdentitySuite
    gamma_symmetry: IdentitySuite

    def as_dict(self) -> dict:
        return {
            "gamma1": [[to_str(c) for c in row] for row in self.gamma1],
            "gamma2": [
                [[to_str(c) for c in col] for col in row] for row in self.gamma2
            ],
            "horizontal_lifts": [
                [to_str(c) for c in h.components] for h in self.lifts
            ],
            "torsion": self.torsion.as_dict(),
            "gamma_symmetry": self.gamma_symmetry.as_dict(),
        }


def connection_tables(conn: Connections) -> ConnectionTables:
    """First- and second-order connection coefficients with torsion checks.

    gamma1[i][j]: vertical parts of the horizontal lifts; equals
    -1/2 d(force^i)/dy^j in natural coordinates.  gamma2[k][i][j]: vertical
    coefficients of nabla_{h(V_i)} V_j; symmetric in i, j when the torsion
    vanishes (which it must)."""
    ef = conn.ef
    n = ef.n
    lifts = conn.horizontal_lifts
    gamma1 = [[None] * n for _ in range(n)]
    for j, h in enumerate(lifts):
        a, _ = ef.decompose_split(h)
        for i in range(n):
            gamma1[i][j] = normalize(a[i])
    gamma2 = [[[None] * n for _ in range(n)] for _ in range(n)]
    dv_table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            dv = conn.covariant_derivative(lifts[i], ef.vbasis[j])
            dv_table[i][j] = dv
            coeffs = ef.decompose_vertical(dv)
            for k in range(n):
                gamma2[k][i][j] = normalize(coeffs[k])
    torsion = IdentitySuite("torsion")
    gamma_sym = IdentitySuite("gamma_symmetry")
    for i in range(n):
        for j in range(i + 1, n):
            t = dv_table[i][j] - dv_table[j][i] - apply_tangent_structure(
                ef, lie_bracket(lifts[i], lifts[j])
            )
            torsion.add_field(ef.probe, t, f"T[{i}{j}]")
            for k in range(n):
                gamma_sym.add(ef.probe(gamma2[k][i][j] - gamma2[k][j][i]),
                              f"G[{k}][{i}{j}]")
    return ConnectionTables(gamma1=gamma1, gamma2=gamma2, lifts=lifts,
                            torsion=torsion, gamma_symmetry=gamma_sym)


@dataclass
class MixedCurvature:
    components: list      # components[i][j][k][l] Expressions
    verdict: str          # "quadratic" | "not_quadratic" | "inconclusive"
    witness: Optional[Mapping[str, float]] = None
    witness_component: Optional[str] = None
    witness_value: Optional[float] = None
    max_residual: float = 0.0

    def as_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "max_residual": self.max_residual,
            "components": [
                [[[to_str(c) for c in col3] for col3 in col2] for col2 in row]
                for row in self.components
            ],
        }
        if self.witness is not None:
            out["witness"] = dict(self.witness)
            out["witness_component"] = self.witness_component
            out["witness_value"] = self.witness_value
        return out


def mixed_curvature(conn: Connections) -> MixedCurvature:
    """theta(V_i, V_j)V_k via the invariant definition with lifts and the
    extended covariant derivative; zero iff the force is quadratic in the
    fibre coordinates."""
    ef = conn.ef
    n = ef.n
    lifts = conn.horizontal_lifts
    comps = [[[None] * n for _ in range(n)] for _ in range(n)]
    verdicts = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t1 = conn.covariant_derivative(
                    lifts[i], conn.covariant_derivative(ef.vbasis[j],
                                                        ef.vbasis[k])
                )
                t2 = conn.covariant_derivative(
                    ef.vbasis[j],
                    conn.covariant_derivative(lifts[i], ef.vbasis[k]),
                )
                t3 = conn.covariant_derivative(
                    lie_bracket(lifts[i], ef.vbasis[j]), ef.vbasis[k]
                )
                theta_field = t1 - t2 - t3
                coeffs = ef.decompose_vertical(theta_field)
                comps[i][j][k] = [normalize(c) for c in coeffs]
                for el, c in enumerate(comps[i][j][k]):
                    verdicts.append((f"theta^{el}_{i}{j}{k}", ef.probe(c)))
    witness = None
    wc = None
    wv = None
    max_res = 0.0
    verdict = "quadratic"
    for label, v in verdicts:
        if v.is_nonzero:
            verdict = "not_quadratic"
            witness, wc, wv = v.witness, label, v.value
            break
        if not v.is_zero:
            max_res = max(max_res, v.max_residual)
    if verdict == "quadratic" and max_res >= 1e-9:
        verdict = "inconclusive"
    return MixedCurvature(components=comps, verdict=verdict, witness=witness,
                          witness_component=wc, witness_value=wv,
                          max_residual=max_res)


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

def find_zero_section_points(ef: ExtendedFrame, b_coeffs) -> list:
    """Newton search for points where F is vertical (all b^i vanish).

    Gauss-Newton with the symbolic Jacobian from quasi-random starts,
    iterates clipped to the box; returns deduplicated points sorted
    lexicographically."""
    chart = ef.chart
    opts = ef.problem.options
    names = chart.names
    b_exprs = [normalize(b) for b in b_coeffs]
    jac_exprs = [
        [differentiate(b, nm) for nm in names] for b in b_exprs
    ]
    b_fn = compile_exprs(b_exprs, names)
    jac_fn = compile_exprs([e for row in jac_exprs for e in row], names)
    starts = box_points(chart.box, opts.newton_starts, opts.seed + 101)
    lows = np.array([lo for lo, _ in chart.box])
    highs = np.array([hi for _, hi in chart.box])
    found = []
    for start in starts:
        z = np.array(start, dtype=float)
        ok = False
        for _ in range(opts.newton_max_iter):
            try:
                bv = np.array(b_fn(tuple(z)), dtype=float)
            except EvalDomainError:
                break
            if np.max(np.abs(bv)) < opts.newton_tol:
                ok = True
                break
            try:
                jflat = jac_fn(tuple(z))
            except EvalDomainError:
                break
            J = np.array(jflat, dtype=float).reshape(len(b_exprs), len(names))
            step, *_ = np.linalg.lstsq(J, -bv, rcond=None)
            norm = float(np.max(np.abs(step)))
            if norm > 1.0:
                step = step / norm
            z = np.clip(z + step, lows, highs)
        if ok and chart.contains(tuple(z), slack=1e-9):
            found.append(tuple(float(v) for v in z))
    unique = []
    for p in sorted(found):
        if not any(max(abs(a - b) for a, b in zip(p, q)) < 1e-6
                   for q in unique):
            unique.append(p)
    return unique


@dataclass
class AnalysisReport:
    chart: Chart
    classification: str
    reason: Optional[str] = None
    verdicts: dict = field(default_factory=dict)
    identity_suites: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    extended: Optional[ExtendedFrame] = None
    connections: Optional[Connections] = None
    bracket_coeffs: Optional[BracketCoefficients] = None
    adaptation: Optional[AdaptationInfo] = None
    f_v_coefficients: Optional[tuple] = None
    f_w_coefficients: Optional[tuple] = None
    zero_section_points: list = field(default_factory=list)
    parameter_count: Optional[int] = None
    projector_data: Optional[ProjectorData] = None
    connection_data: Optional[ConnectionTables] = None
    curvature: Optional[MixedCurvature] = None
    s_of_f: Optional[VectorField] = None

    @property
    def ok(self) -> bool:
        return self.classification in (CASE1, CASE2)

    def identity_suites_ok(self) -> bool:
        return all(s.ok for s in self.identity_suites)

    def as_dict(self) -> dict:
        out = {
            "conventions": SIGN_CONVENTIONS,
            "classification": self.classification,
            "reason": self.reason,
            "verdicts": self.verdicts,
            "identity_suites": [s.as_dict() for s in self.identity_suites],
            "warnings": list(self.warnings),
        }
        if self.parameter_count is not None:
            out["parameter_count"] = self.parameter_count
            if self.classification == CASE2:
                out["extra_parameter_count"] = self.parameter_count - 1
        if self.f_w_coefficients is not None:
            out["f_w_coefficients"] = [to_str(c) for c in self.f_w_coefficients]
            out["f_v_coefficients"] = [to_str(c) for c in self.f_v_coefficients]
        if self.zero_section_points:
            out["zero_section_points"] = [list(p) for p in self.zero_section_points]
        if self.bracket_coeffs is not None:
            out["bracket_coefficients"] = self.bracket_coeffs.as_dict()
        if self.adaptation is not None:
            out["adaptation"] = self.adaptation.as_dict()
        if self.projector_data is not None:
            out["projectors"] = self.projector_data.as_dict()
        if self.connection_data is not None:
            out["connection"] = self.connection_data.as_dict()
        if self.curvature is not None:
            out["mixed_curvature"] = self.curvature.as_dict()
        if self.s_of_f is not None:
            out["s_of_f"] = [to_str(c) for c in self.s_of_f.components]
        return out


def classify(problem: SecondOrderProblem) -> AnalysisReport:
    """Run the full pipeline and decide the normal-form case."""
    report = AnalysisReport(chart=problem.chart, classification=NOT_SODE)
    report.verdicts["v_involutive"] = problem.v_involutivity.as_dict()
    if not problem.v_involutivity.ok:
        report.reason = "V is not involutive"
        return report

    regularity = check_regularity(problem)
    report.verdicts["regularity"] = regularity
    if regularity["status"] != "pass":
        report.reason = "regularity failed: [F,V] does not complement V"
        return report

    ef = build_extended_frame(problem)
    report.extended = ef

    w_inv = check_w_involutive(ef)
    report.verdicts["w_involutive"] = w_inv.as_dict()
    if not w_inv.ok:
        report.reason = "the span W of V and [F,V] is not involutive"
        return report

    commuting = check_commuting(ef)
    report.identity_suites.append(commuting)
    report.verdicts["v_basis_commutes"] = commuting.as_dict()
    if not commuting.ok:
        report.reason = (
            "the given V-basis does not commute; supply a coordinate-aligned "
            "basis of V (the connection pipeline requires one)"
        )
        return report

    bc = bracket_coefficients(ef)
    report.bracket_coeffs = bc
    report.identity_suites.append(bc.symmetry)

    integrability = verify_bracket_integrability(ef, bc)
    report.identity_suites.append(integrability)
    if any(v.is_nonzero for _, v in integrability.verdicts):
        raise InternalInconsistencyError(
            "w-mixing integrability failed although V and W are involutive; "
            "this indicates an upstream inconsistency or sampling artifact"
        )

    ef, adaptation = adapt_commuting_basis(ef, bc)
    report.extended = ef
    report.adaptation = adaptation
    if adaptation.verification is not None:
        report.identity_suites.append(adaptation.verification)

    # Decide F in W / independent of W
    f_dec = ef.decompose(problem.F)
    if f_dec.ok:
        n = ef.n
        report.f_v_coefficients = tuple(
            normalize(c) for c in f_dec.coefficients[:n]
        )
        report.f_w_coefficients = tuple(
            normalize(c) for c in f_dec.coefficients[n:]
        )
        case = CASE1
    else:
        if f_dec.failure != "not_in_span":
            report.reason = f"cannot place F relative to W: {f_dec.diagnostic}"
            return report
        full = frame_rank(
            list(ef.combined.fields) + [problem.F], problem.chart,
            problem.options.samples, problem.options.seed,
        )
        report.verdicts["f_independent_of_w"] = {
            "status": "pass" if (full.claimed_rank == 2 * ef.n + 1
                                 and full.constant_rank) else "fail",
            "rank": full.as_dict(),
            "note": "certified on the sampled box only",
        }
        if report.verdicts["f_independent_of_w"]["status"] != "pass":
            report.reason = (
                "F is neither in W nor everywhere independent of W on the "
                "sampled box (mixed case)"
            )
            return report
        case = CASE2

    try:
        conn = Connections(ef)
    except AnalysisError as err:
        report.verdicts["f_preserves_w"] = {"status": "fail",
                                            "detail": str(err)}
        report.reason = "[F, W] is not contained in W"
        return report
    report.verdicts["f_preserves_w"] = {"status": "pass"}
    report.connections = conn

    report.identity_suites.append(nijenhuis_check(ef))
    proj = conn.projector_identities()
    report.projector_data = proj
    report.identity_suites.append(proj.identities)
    report.identity_suites.append(conn.vertical_flatness())
    tables = connection_tables(conn)
    report.connection_data = tables
    report.identity_suites.append(tables.torsion)
    report.identity_suites.append(tables.gamma_symmetry)
    report.curvature = mixed_curvature(conn)
    report.s_of_f = (apply_tangent_structure(ef, problem.F)
                     if case == CASE1 else None)

    report.parameter_count = problem.m - 2 * ef.n
    if case == CASE1:
        points = find_zero_section_points(ef, report.f_w_coefficients)
        report.zero_section_points = points
        if not points:
            report.warnings.append("cross-section not found in box")
    report.classification = case
    return report
