"""Recognition pipeline for second-order behaviour of a vector field F
relative to an involutive distribution V; STAGES lists its stages.

Sign conventions used throughout (recorded in every report): W_i = [F, V_i];
S(W_i) = -V_i; the horizontal projector is (id - L_F S)/2; the vertical
covariant derivative of the basis reproduces the w-mixing coefficients with
a plus sign; first-order connection coefficients are the vertical parts of
the horizontal lifts, matching -1/2 d(force)/dy in natural coordinates.

The connection and curvature stages work on scalar tables in the frame
E = (V_1..V_n, W_1..W_n), with sums over repeated indices.  They bracket
only frame fields: [F, W_i] = p^k_i V_k + q^k_i W_k, [V_i, W_j] =
v^k_ij V_k + w^k_ij W_k, and [W_i, W_j] for its W-part omega^m_ij (i < j).
A commutator [V_i, V_j] = c^k_ij V_k that is not structurally zero is kept.
    L_F S(aV + bW) = (a + Qb)V - bW with (Qb)^k = q^k_i b^i, so
    P_H = (-Qb/2, b) and P_V = (a + Qb/2, 0);
    h_i = 1/2 q^k_i V_k - W_i and Gamma1^k_i = 1/2 q^k_i;
    Gamma2^k_ij = -1/2 V_j(q^k_i) + v^k_ji + 1/2 q^k_l w^l_ji
                  + 1/2 q^l_i c^k_lj;
    theta^m_ijk = h_i(w^m_jk) - V_j(Gamma2^m_ik) + w^l_jk Gamma2^m_il
                  - Gamma2^l_ik w^m_jl - Gamma2^l_ij w^m_lk + w^l_ji Gamma2^m_lk
                  with h_i(f) = 1/2 q^k_i V_k(f) - W_i(f);
    torsion T^m_ij = Gamma2^m_ij - Gamma2^m_ji + omega^m_ij
                     - 1/2 q^k_i w^m_kj + 1/2 q^k_j w^m_ki.
The torsion residual r enters its identity suite through the coordinate
components of r^a E_a.  The projector identities, the Nijenhuis torsion of S
and the vertical flatness hold for any tables by these formulas, so they are
checked on whole fields by the test oracle, not here.
"""

from __future__ import annotations

import itertools
import numbers
import sys
import time
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .expressions import (
    Expr, NEG, Num, ZERO, compile_exprs, differentiate, dot, normalize,
    to_str,
)
from .geometry import (
    Chart, Decomposition, Frame, GeometryError, InvolutivityResult,
    VectorField, coordinate_field, decompose_in_frame, first_domain_error,
    frame_rank, is_involutive, lie_bracket, lstsq_each,
)
from .sampling import (
    MAX_SEED, UNKNOWN_TOL, ZeroProbe, ZeroVerdict, box_points,
)

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


HALF = Num(Fraction(1, 2))


class AnalysisError(RuntimeError):
    pass


class OptionsError(ValueError):
    """A manifest option that is unknown or has a bad value (exit code 2)."""


MAX_COUNT = 10_000  # bounds `samples`, so that validated input bounds the work
# bounds the residual grid's half-width, so that [-extent, extent] is finite
MAX_EXTENT = sys.float_info.max / 4

# the Newton search for a point where F is vertical: starts, the tolerance on
# max |b^i| and the iterations per start
NEWTON_STARTS = 16
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50


class InternalInconsistencyError(AnalysisError):
    """An identity that involutivity forces has failed; this flags an
    upstream inconsistency or sampling artifact, not a property of the
    input."""


class Options:
    """The analysis options; INTEGER names each one and says whether it is
    an integer."""

    INTEGER = {"samples": True, "seed": True, "grid": True,
               "extent": False, "tolerance": False}

    def __init__(self, samples: int = 200, seed: int = 0,
                 grid: Optional[int] = None, extent: Optional[float] = None,
                 tolerance: float = 1e-5):
        self.samples = samples        # rank / residual sampling points
        self.seed = seed
        # the residual grid: nodes per axis and half-width (None: the
        # defaults of straighten.pushforward_residuals) and the structural
        # tolerance
        self.grid = grid
        self.extent = extent
        self.tolerance = tolerance

    @classmethod
    def from_mapping(cls, data: Optional[dict]) -> "Options":
        """Options from a manifest's `options` object.  OptionsError names an
        unknown key or a value of the wrong type or range."""
        opts = cls()
        for key, value in (data or {}).items():
            if key not in cls.INTEGER:
                raise OptionsError(
                    f"unknown option '{key}'; known options are "
                    f"{sorted(cls.INTEGER)}")
            integral = cls.INTEGER[key]
            if integral:
                low = 0 if key == "seed" else 1
                want = f"an integer >= {low}"
                ok = isinstance(value, numbers.Integral) and value >= low
            else:
                top = MAX_EXTENT if key == "extent" else sys.float_info.max
                want = f"a positive number at most {top!r}"
                ok = isinstance(value, numbers.Real) and 0 < value <= top
            if not ok or isinstance(value, bool):
                raise OptionsError(
                    f"option '{key}' must be {want}, got {value!r}")
            high = {"samples": MAX_COUNT, "seed": MAX_SEED}.get(key)
            if high is not None and value > high:
                raise OptionsError(
                    f"option '{key}' must be at most {high}, got {value}")
            setattr(opts, key, (int if integral else float)(value))
        return opts


class SecondOrderProblem:
    """A vector field F and a frame V on a chart, 2|V| <= dim; the
    regularity stage decides whether V is involutive."""

    def __init__(self, chart: Chart, F: VectorField, V: Frame,
                 options: Optional[Options] = None):
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
        self.probe = chart.probe(self.options.seed)


class IdentitySuite:
    """Aggregated zero-verdicts for one named identity family."""

    def __init__(self, name: str):
        self.name = name
        self.verdicts = []    # (label, ZeroVerdict), in the order added

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
                and self.max_residual < UNKNOWN_TOL)

    def as_dict(self) -> dict:
        out = {
            "identity": self.name,
            "status": "pass" if self.ok else "fail",
            "exact": self.exact,
            "max_residual": self.max_residual,
            "checks": len(self.verdicts),
        }
        for label, v in self.verdicts:
            if v.is_nonzero:
                out["failed_check"] = label
                out["witness"] = dict(v.witness)
                out["value"] = v.value
                break
        return out


class ExtendedFrame:
    """The V-basis together with W_i = [F, V_i], the commutators
    [V_i, V_j] (i < j) and the combined frame E = (V, W), a tuple of
    fields."""

    # (A, coordinate names) when the basis is V.B^-1 (normalize_v_basis)
    normalization: Optional[tuple] = None

    def __init__(self, problem: SecondOrderProblem,
                 vbasis: Sequence[VectorField]):
        self.problem = problem
        self.chart = problem.chart
        self.vbasis = list(vbasis)
        self.wfields = [lie_bracket(problem.F, v) for v in self.vbasis]
        self.commutators = {
            (i, j): lie_bracket(self.vbasis[i], self.vbasis[j])
            for i in range(self.n) for j in range(i + 1, self.n)
        }
        self.combined = tuple(self.vbasis + self.wfields)
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

    def field_of(self, coefficients) -> VectorField:
        """The field c^a E_a; a shorter list covers the leading elements."""
        pairs = list(zip(coefficients, self.combined))
        return VectorField(self.chart, [
            dot((c, f.components[idx]) for c, f in pairs)
            for idx in range(self.chart.dim)
        ])


def check_field_defined(problem: SecondOrderProblem) -> list:
    """F's and the V-basis's components at the rank samples of
    check_regularity: a GeometryError if F or the V-basis fails to evaluate
    at every one of them, else one warning naming the first failure for
    each of them that fails at some."""
    chart, opts = problem.chart, problem.options
    points = chart.sample(opts.samples, opts.seed)
    warnings = []
    for what, fields, labels in (
            ("F", [problem.F], ["F"]),
            ("the V-basis", problem.V.fields,
             [f"field {i}" for i in range(problem.n)])):
        _, errors = compile_exprs(
            [c for f in fields for c in f.components], chart.names)(points.T)
        if not errors:
            continue
        where = first_domain_error(labels, chart, points, errors)
        if len(errors) == len(points):
            raise GeometryError(
                f"all sample points hit evaluation domain errors: {where}")
        warnings.append(f"{what} fails to evaluate at {len(errors)} of "
                        f"{len(points)} sample points; the first: {where}")
    return warnings


def check_regularity(problem: SecondOrderProblem) -> dict:
    """Span of {V_i} with {[F, V_i]} must reach rank 2n at every sample.

    This is the one rank computation of that span: build_extended_frame
    does not rank it again."""
    wfields = [lie_bracket(problem.F, v) for v in problem.V]
    fields = list(problem.V.fields) + wfields
    report = frame_rank(fields, problem.options.samples, problem.options.seed)
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
    """The V-basis with W = [F, V]; its rank is check_regularity's."""
    return ExtendedFrame(problem, list(problem.V.fields))


def check_w_involutive(ef: ExtendedFrame) -> InvolutivityResult:
    """Involutivity of the combined span of the V-basis and the W-fields."""
    return is_involutive(ef.combined, ef.probe)


def check_commuting(ef: ExtendedFrame) -> IdentitySuite:
    suite = IdentitySuite("v_basis_commutes")
    for (i, j), comm in ef.commutators.items():
        suite.add_field(ef.probe, comm, f"[V{i},V{j}]")
    return suite


class BracketCoefficients(NamedTuple):
    """Coefficients of [V_i, W_j] = v^k_ij V_k + w^k_ij W_k."""

    v: list  # v[i][j][k]
    w: list  # w[i][j][k]
    symmetry: IdentitySuite

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
    vw = [[ef.decompose_split(lie_bracket(vf, wf)) for wf in ef.wfields]
          for vf in ef.vbasis]
    v = [[[normalize(c) for c in a] for a, _ in row] for row in vw]
    w = [[[normalize(c) for c in b] for _, b in row] for row in vw]
    suite = IdentitySuite("mixing_symmetry")
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                suite.add(ef.probe(v[i][j][k] - v[j][i][k]), f"v[{i}{j}{k}]")
                suite.add(ef.probe(w[i][j][k] - w[j][i][k]), f"w[{i}{j}{k}]")
    return BracketCoefficients(v=v, w=w, symmetry=suite)


def verify_bracket_integrability(ef: ExtendedFrame,
                                 bc: BracketCoefficients) -> IdentitySuite:
    """Flatness identities of the w-mixing system of the commuting basis.

    V_i(w^l_jk) - V_j(w^l_ik) + w^l_im w^m_jk - w^l_jm w^m_ik = 0 whenever V
    and W are involutive; a NonZero here is an internal inconsistency, not a
    property of the input."""
    V, w = ef.vbasis, bc.w
    suite = IdentitySuite("w_mix_integrability")
    for (i, j), k, el in itertools.product(ef.commutators, range(ef.n),
                                           range(ef.n)):
        r = dot([(V[i].directional(w[j][k][el]),),
                 (NEG, V[j].directional(w[i][k][el]))]
                + [f for b in range(ef.n) for f in (
                    (w[j][k][b], w[i][b][el]),
                    (NEG, w[i][k][b], w[j][b][el]))])
        suite.add(ef.probe(r), f"[{i}{j}{k}{el}]")
    return suite


def normalize_v_basis(ef: ExtendedFrame) -> Optional[ExtendedFrame]:
    """The basis V.B^-1 of the Frobenius theorem's proof, B the n x n block
    of V's components on the chart coordinates that carry it:
    V~_i = sum_j A[j][i] V_j with B.A = I, so V~_i is the coordinate field
    of the i-th of those coordinates and the basis commutes.  Only when V is
    carried by exactly n coordinates (the rows where some V_i component is
    not structurally zero), so that rank V = rank B at every point and the
    frame's rank samples certify det B != 0; None otherwise, when the
    elimination finds no inverse, or when V.B^-1 is V itself.  The result
    records (A, the coordinate names) as `normalization`."""
    chart, V = ef.chart, ef.vbasis
    rows = [r for r in range(chart.dim)
            if any(v.components[r] != ZERO for v in V)]
    if len(rows) != ef.n:
        return None
    # column i of A solves B.a = e_i on the chosen rows
    columns = []
    for r in rows:
        dec = decompose_in_frame(coordinate_field(chart, chart.names[r]), V,
                                 ef.probe)
        if not dec.ok:
            return None
        columns.append(dec.coefficients)
    tilde = [VectorField(chart, [dot((a, v.components[c])
                                     for a, v in zip(col, V))
                                 for c in range(chart.dim)])
             for col in columns]
    if all(t.components == v.components for t, v in zip(tilde, V)):
        return None
    normalized = ExtendedFrame(ef.problem, tilde)
    normalized.normalization = ([list(row) for row in zip(*columns)],
                                [chart.names[r] for r in rows])
    return normalized


class AdaptationInfo(NamedTuple):
    """How the commuting basis the pipeline holds is adapted, so that every
    [V_i, W_j] is vertical.

    Where the w-mixing coefficients are structurally zero the basis is
    adapted as it stands: mode "identity", or "normalized" when it is the
    given basis times B^-1 (normalize_v_basis).  Otherwise the mode is
    "numeric": the chart transports this basis along the V-flows
    (straighten.build_normal_coordinates)."""

    mode: str                       # "identity" | "normalized" | "numeric"
    matrix: Optional[list] = None   # A[j][i]: V~_i = A[j][i] V_j
    coordinates: Optional[list] = None  # the rows of B (normalized basis)

    def as_dict(self) -> dict:
        out = {"mode": self.mode}
        if self.matrix is not None:
            out["matrix"] = [[to_str(c) for c in row] for row in self.matrix]
        if self.coordinates is not None:
            out["coordinates"] = list(self.coordinates)
        return out


# --------------------------------------------------------------------------
# Connections and curvature from coefficient tables in the frame E = (V, W)
# --------------------------------------------------------------------------

class PreservationError(AnalysisError):
    """[F, W] leaves the span of the combined frame."""


class Connections:
    """L_F S, lifts and connection coefficients from the tables q[i][k]
    = q^k_i, v[i][j][k] = v^k_ij and w[i][j][k] (bc's), omega[i, j][m] and
    c[i][j][k] (module docstring).  A frame vector is the list
    (a_1..a_n, b_1..b_n)."""

    def __init__(self, ef: ExtendedFrame, bc: BracketCoefficients):
        self.ef = ef
        n = ef.n
        self.q = []
        for wf in ef.wfields:
            dec = ef.decompose(lie_bracket(ef.problem.F, wf))
            if not dec.ok:
                raise PreservationError(
                    "[F, W] leaves the span of the combined frame: "
                    f"{dec.failure}"
                )
            self.q.append([normalize(c) for c in dec.coefficients[n:]])
        self.v, self.w = bc.v, bc.w
        self.omega = {
            (i, j): [normalize(c) for c in ef.decompose_split(
                lie_bracket(ef.wfields[i], ef.wfields[j]))[1]]
            for i, j in ef.commutators
        }
        self.c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (i, j), comm in ef.commutators.items():
            if any(c != ZERO for c in comm.components):
                for k, c in enumerate(ef.decompose_vertical(comm)):
                    self.c[i][j][k] = normalize(c)
                    self.c[j][i][k] = dot(((NEG, c),))
        # h_i = 1/2 q^k_i V_k - W_i, so Gamma1^k_i = 1/2 q^k_i
        self.lift_vectors = [
            [dot(((HALF, c),)) for c in self.q[i]]
            + [NEG if k == i else ZERO for k in range(n)]
            for i in range(n)
        ]
        self.gamma1 = [[self.lift_vectors[i][k] for i in range(n)]
                       for k in range(n)]
        self.gamma2 = [[[self._gamma2(k, i, j) for j in range(n)]
                        for i in range(n)] for k in range(n)]

    def _gamma2(self, k: int, i: int, j: int) -> Expr:
        """Gamma2^k_ij, the V_k-part of P_V([h_i, V_j])."""
        n, q, w = self.ef.n, self.q, self.w
        return dot(
            [(NEG, HALF, self.ef.vbasis[j].directional(q[i][k])),
             (self.v[j][i][k],)]
            + [(HALF, q[l][k], w[j][i][l]) for l in range(n)]
            + [(HALF, q[i][l], self.c[l][j][k]) for l in range(n)]
        )

    def lie_derivative_s(self) -> list:
        """(L_F S)(E_a) for each element of the combined frame, as fields:
        V_k is fixed and W_i goes to q^k_i V_k - W_i."""
        ef, n = self.ef, self.ef.n
        return ([ef.field_of([Num(1) if k == i else ZERO for k in range(n)])
                 for i in range(n)]
                + [ef.field_of(self.q[i] + [NEG if k == i else ZERO
                                            for k in range(n)])
                   for i in range(n)])

    def lifts(self) -> list:
        """The horizontal lifts h_i of the V-basis, as fields."""
        return [self.ef.field_of(h) for h in self.lift_vectors]


class ConnectionTables(NamedTuple):
    gamma1: list          # gamma1[i][j] = Gamma^i_j
    gamma2: list          # gamma2[k][i][j] = Gamma^k_ij
    lifts: list           # horizontal lifts of the V-basis, as fields
    torsion: IdentitySuite

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
        }


def connection_tables(conn: Connections) -> ConnectionTables:
    """First- and second-order connection coefficients with the torsion check.

    gamma1[i][j]: vertical parts of the horizontal lifts; equals
    -1/2 d(force^i)/dy^j in natural coordinates.  gamma2[k][i][j]: vertical
    coefficients of nabla_{h(V_i)} V_j; symmetric in i, j only in a frame
    where omega and the q.w terms vanish.  The torsion is the check."""
    ef, n, q, w, g2 = conn.ef, conn.ef.n, conn.q, conn.w, conn.gamma2
    torsion = IdentitySuite("torsion")
    for i, j in ef.commutators:
        t = [dot([(g2[m][i][j],), (NEG, g2[m][j][i]), (conn.omega[i, j][m],)]
                 + [f for k in range(n) for f in (
                     (HALF, q[j][k], w[k][i][m]),
                     (NEG, HALF, q[i][k], w[k][j][m]))])
             for m in range(n)]
        torsion.add_field(ef.probe, ef.field_of(t), f"T[{i}{j}]")
    return ConnectionTables(gamma1=conn.gamma1, gamma2=g2,
                            lifts=conn.lifts(), torsion=torsion)


class MixedCurvature(NamedTuple):
    components: list      # components[i][j][k][l] Expressions
    verdict: str          # "quadratic" | "not_quadratic" | "inconclusive"
    witness: Optional[Mapping[str, float]] = None
    witness_component: Optional[str] = None
    witness_value: Optional[float] = None
    max_residual: float = 0.0

    @classmethod
    def from_components(cls, comps: list, probe: ZeroProbe):
        """The verdict on comps[i][j][k][m] = theta^m_ijk: the first
        certified nonzero component in index order decides not_quadratic."""
        max_res = 0.0
        for i, j, k, m in itertools.product(range(len(comps)), repeat=4):
            v = probe(comps[i][j][k][m])
            if v.is_nonzero:
                return cls(comps, "not_quadratic", v.witness,
                           f"theta^{m}_{i}{j}{k}", v.value, max_res)
            if not v.is_zero:
                max_res = max(max_res, v.max_residual)
        verdict = "quadratic" if max_res < UNKNOWN_TOL else "inconclusive"
        return cls(comps, verdict, max_residual=max_res)

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
    """theta(V_i, V_j)V_k = theta^m_ijk V_m, zero iff the force is quadratic
    in the fibre coordinates."""
    ef, n, q, w, g2 = conn.ef, conn.ef.n, conn.q, conn.w, conn.gamma2
    V, W = ef.vbasis, ef.wfields
    comps = [[[[dot([(HALF, q[i][el], V[el].directional(w[j][k][m]))
                     for el in range(n)]
                    + [(NEG, W[i].directional(w[j][k][m])),
                       (NEG, V[j].directional(g2[m][i][k]))]
                    + [f for el in range(n) for f in (
                        (w[j][k][el], g2[m][i][el]),
                        (NEG, g2[el][i][k], w[j][el][m]),
                        (NEG, g2[el][i][j], w[el][k][m]),
                        (w[j][i][el], g2[m][el][k]))])
                for m in range(n)] for k in range(n)] for j in range(n)]
             for i in range(n)]
    return MixedCurvature.from_components(comps, ef.probe)


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

def find_zero_section_points(ef: ExtendedFrame, b_coeffs) -> list:
    """Newton search for points where F is vertical (all b^i vanish).

    Gauss-Newton with the symbolic Jacobian from quasi-random starts,
    iterates clipped to the box; each iteration solves the steps of all
    live starts in one stacked least-squares call (`lstsq_each`).  Returns
    deduplicated points sorted lexicographically."""
    chart = ef.chart
    names = chart.names
    b_exprs = [normalize(b) for b in b_coeffs]
    jac_exprs = [
        [differentiate(b, nm) for nm in names] for b in b_exprs
    ]
    nb, d = len(b_exprs), len(names)
    fn = compile_exprs(b_exprs + [e for row in jac_exprs for e in row], names)
    z = np.array(box_points(chart.box, NEWTON_STARTS,
                            ef.problem.options.seed + 101), dtype=float)
    lows = np.array([lo for lo, _ in chart.box])
    highs = np.array([hi for _, hi in chart.box])
    live = np.arange(len(z))
    found = []
    for _ in range(NEWTON_MAX_ITER):
        values, _ = fn(z[live].T)
        bv = values[:nb].T
        J = values[nb:].T.reshape(len(live), nb, d)
        b_ok = np.isfinite(bv).all(axis=1)
        done = b_ok & (np.abs(bv).max(axis=1) < NEWTON_TOL)
        found.extend(live[done])
        # a start whose b or Jacobian fails to evaluate is given up
        step_ok = b_ok & ~done & np.isfinite(J).all(axis=(1, 2))
        live = live[step_ok]
        if not live.size:
            break
        step = lstsq_each(J[step_ok], -bv[step_ok][..., None])[..., 0]
        # a step longer than 1 in some coordinate is scaled down to 1
        norm = np.abs(step).max(axis=1, keepdims=True)
        step /= np.where(norm > 1.0, norm, 1.0)
        z[live] = np.clip(z[live] + step, lows, highs)
    found = [tuple(float(v) for v in z[k]) for k in found]
    return _distinct_points(p for p in found if chart.contains(p, slack=1e-9))


def _distinct_points(points) -> list:
    """The points in lexicographic order, each dropped that lies within
    1e-6 of a kept one in every coordinate.  The kept points are sorted, so
    only the last few, those within 1e-6 in the first coordinate, can be
    that close."""
    unique: list = []
    for p in sorted(points):
        near = itertools.takewhile(lambda q: p[0] - q[0] < 1e-6,
                                   reversed(unique))
        if not any(max(abs(a - b) for a, b in zip(p, q)) < 1e-6
                   for q in near):
            unique.append(p)
    return unique


class AnalysisReport:
    """What the recognition stages have found; each stage fills its part."""

    def __init__(self, classification: str):
        self.classification = classification
        self.reason: Optional[str] = None
        self.verdicts: dict = {}
        self.identity_suites: list = []
        self.warnings: list = []
        self.extended: Optional[ExtendedFrame] = None
        self.bracket_coeffs: Optional[BracketCoefficients] = None
        self.adaptation: Optional[AdaptationInfo] = None
        self.f_v_coefficients: Optional[tuple] = None
        self.f_w_coefficients: Optional[tuple] = None
        self.zero_section_points: list = []
        self.parameter_count: Optional[int] = None
        self.lie_derivative_s: Optional[list] = None  # (L_F S)(E_a), as fields
        self.connection_data: Optional[ConnectionTables] = None
        self.curvature: Optional[MixedCurvature] = None
        self.s_of_f: Optional[VectorField] = None

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
        if self.lie_derivative_s is not None:
            out["projectors"] = {"lie_derivative_S": [
                [to_str(c) for c in f.components]
                for f in self.lie_derivative_s]}
        if self.connection_data is not None:
            out["connection"] = self.connection_data.as_dict()
        if self.curvature is not None:
            out["mixed_curvature"] = self.curvature.as_dict()
        if self.s_of_f is not None:
            out["s_of_f"] = [to_str(c) for c in self.s_of_f.components]
        return out


# --------------------------------------------------------------------------
# The stage list
# --------------------------------------------------------------------------

class PipelineState:
    """What one walk of the stage list hands from stage to stage."""

    def __init__(self, problem: SecondOrderProblem):
        self.problem = problem
        self.analysis = AnalysisReport(classification=NOT_SODE)
        self.connections: Optional[Connections] = None

    @property
    def stopped(self) -> bool:
        """A stage has found that the problem is not of second order."""
        return self.analysis.reason is not None


def _regularity(state: PipelineState):
    problem, report = state.problem, state.analysis
    report.warnings.extend(check_field_defined(problem))
    v_involutivity = is_involutive(problem.V, problem.probe)
    report.verdicts["v_involutive"] = v_involutivity.as_dict()
    if not v_involutivity.ok:
        report.reason = "V is not involutive"
        return
    regularity = check_regularity(problem)
    report.verdicts["regularity"] = regularity
    if regularity["status"] != "pass":
        report.reason = "regularity failed: [F,V] does not complement V"
        return
    report.extended = build_extended_frame(problem)


def _w_involutivity(state: PipelineState):
    report = state.analysis
    w_inv = check_w_involutive(report.extended)
    report.verdicts["w_involutive"] = w_inv.as_dict()
    if not w_inv.ok:
        report.reason = "the span W of V and [F,V] is not involutive"


def _brackets(state: PipelineState):
    """The commuting suite and the mixing coefficients of the V-basis, and
    how it is adapted (AdaptationInfo); a basis that does not commute or is
    not adapted is first replaced by V.B^-1 where normalize_v_basis
    applies."""
    report = state.analysis
    ef = report.extended
    commuting = check_commuting(ef)
    bc = bracket_coefficients(ef) if commuting.ok else None
    if bc is None or not bc.w_all_zero():
        normalized = normalize_v_basis(ef)
        if normalized is not None:
            ef = report.extended = normalized
            commuting = check_commuting(ef)
            bc = bracket_coefficients(ef) if commuting.ok else None
    report.identity_suites.append(commuting)
    report.verdicts["v_basis_commutes"] = commuting.as_dict()
    if not commuting.ok:
        report.reason = (
            "the given V-basis does not commute; supply a coordinate-aligned "
            "basis of V (the connection pipeline requires one)"
        )
        return
    report.bracket_coeffs = bc
    report.identity_suites.append(bc.symmetry)
    integrability = verify_bracket_integrability(ef, bc)
    report.identity_suites.append(integrability)
    if any(v.is_nonzero for _, v in integrability.verdicts):
        raise InternalInconsistencyError(
            "w-mixing integrability failed although V and W are involutive; "
            "this indicates an upstream inconsistency or sampling artifact"
        )
    matrix, coordinates = ef.normalization or (None, None)
    if not bc.w_all_zero():
        report.adaptation = AdaptationInfo("numeric", matrix, coordinates)
    elif matrix is not None:
        report.adaptation = AdaptationInfo("normalized", matrix, coordinates)
    else:
        report.adaptation = AdaptationInfo("identity", [
            [Num(1) if i == j else ZERO for j in range(ef.n)]
            for i in range(ef.n)])


def _placement(state: PipelineState):
    """F in W (case 1, with its coefficients) or independent of W (case 2)."""
    problem, report = state.problem, state.analysis
    ef = report.extended
    f_dec = ef.decompose(problem.F)
    if f_dec.ok:
        report.f_v_coefficients = tuple(
            normalize(c) for c in f_dec.coefficients[:ef.n]
        )
        report.f_w_coefficients = tuple(
            normalize(c) for c in f_dec.coefficients[ef.n:]
        )
        return
    if f_dec.failure != "not_in_span":
        report.reason = f"cannot place F relative to W: {f_dec.diagnostic}"
        return
    full = frame_rank(ef.combined + (problem.F,), problem.options.samples,
                      problem.options.seed)
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


def _connections(state: PipelineState):
    report = state.analysis
    ef = report.extended
    try:
        conn = Connections(ef, report.bracket_coeffs)
    except PreservationError as err:
        report.verdicts["f_preserves_w"] = {"status": "fail",
                                            "detail": str(err)}
        report.reason = "[F, W] is not contained in W"
        return
    report.verdicts["f_preserves_w"] = {"status": "pass"}
    state.connections = conn
    report.lie_derivative_s = conn.lie_derivative_s()
    tables = connection_tables(conn)
    report.connection_data = tables
    report.identity_suites.append(tables.torsion)


def _curvature(state: PipelineState):
    state.analysis.curvature = mixed_curvature(state.connections)


def _zero_section(state: PipelineState):
    """Classify; in case 1 also S(F) and the Newton search for a point
    where F is vertical."""
    problem, report = state.problem, state.analysis
    ef = report.extended
    report.parameter_count = problem.m - 2 * ef.n
    if report.f_w_coefficients is None:
        report.classification = CASE2
        return
    # S(F) = -b^i V_i for F = a^i V_i + b^i W_i
    report.s_of_f = ef.field_of([dot(((NEG, b),))
                                 for b in report.f_w_coefficients])
    report.zero_section_points = find_zero_section_points(
        ef, report.f_w_coefficients)
    if not report.zero_section_points:
        report.warnings.append("cross-section not found in box")
    report.classification = CASE1


# The recognition stages in pipeline order; the runner appends the
# straightening stages.  A stage calls the pipeline functions through this
# module's names, so wrapping a module attribute reaches the calls.
STAGES = (
    ("regularity", _regularity),
    ("w_involutivity", _w_involutivity),
    ("brackets", _brackets),
    ("placement", _placement),
    ("connections", _connections),
    ("curvature", _curvature),
    ("zero_section", _zero_section),
)


def walk(state: PipelineState, stages, timings: dict):
    """Run (name, stage) pairs in order until the state is stopped, and
    record each finished stage's wall time in seconds under its name."""
    for name, stage in stages:
        start = time.perf_counter()
        stage(state)
        timings[name] = round(time.perf_counter() - start, 6)
        if state.stopped:
            return


def classify(problem: SecondOrderProblem) -> AnalysisReport:
    """Run the recognition stages and decide the normal-form case."""
    state = PipelineState(problem)
    walk(state, STAGES, {})
    return state.analysis
