"""Field-level connection formulas: the oracle for the table-based
`connections` and `curvature` stages of `sodekit.analysis`.

Every quantity here is built from whole vector fields, with Lie brackets and
frame decompositions, as the invariant definitions read: the vertical
endomorphism S, its Lie derivative L_F S, the projectors, the horizontal
lifts, the vertical and the extended covariant derivatives, and from them
the connection tables and the mixed curvature.  It shares only the report
record classes with the stages, so a report section built here and one built
from the coefficient tables must print the same.

The Nijenhuis torsion of S, the projector identities and the vertical
flatness are checked here only: on the coefficient tables they hold by
construction, but on whole fields they test the frame, the brackets and the
decompositions the tables come from.
"""

from fractions import Fraction

from sodekit.analysis import (
    ConnectionTables, ExtendedFrame, IdentitySuite, MixedCurvature,
)
from sodekit.expressions import Num, ZERO, normalize, to_str
from sodekit.geometry import VectorField, lie_bracket


def zero_field(ef: ExtendedFrame) -> VectorField:
    return VectorField(ef.chart, [ZERO] * ef.chart.dim)


def apply_tangent_structure(ef: ExtendedFrame, X: VectorField) -> VectorField:
    """S(X) for X = a^i V_i + b^i W_i: kills V, sends W_i to -V_i."""
    _, b = ef.decompose_split(X)
    out = zero_field(ef)
    for bi, v in zip(b, ef.vbasis):
        out = out + v.scaled(normalize(Num(-1) * bi))
    return out


def nijenhuis_check(ef: ExtendedFrame) -> IdentitySuite:
    """Nijenhuis torsion of S on all combined-frame pairs; must vanish."""
    suite = IdentitySuite("nijenhuis_torsion")
    elements = list(ef.combined)
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


class FieldConnections:
    """Projectors, horizontal lifts and covariant derivatives on one frame,
    each evaluated on whole vector fields."""

    def __init__(self, ef: ExtendedFrame):
        self.ef = ef
        self.F = ef.problem.F
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
        out = zero_field(self.ef)
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
        out = zero_field(ef)
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

    def projector_identities(self) -> IdentitySuite:
        ef = self.ef
        suite = IdentitySuite("projector_identities")
        elements = list(ef.combined)
        for idx, e in enumerate(elements):
            lfs_e = self.lie_derivative_s(e)
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
        return suite

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


def connection_tables(conn: FieldConnections) -> ConnectionTables:
    """gamma1 from the vertical parts of the lifts, gamma2 from the vertical
    coefficients of nabla_{h(V_i)} V_j, torsion from the field definition."""
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
    for i in range(n):
        for j in range(i + 1, n):
            t = dv_table[i][j] - dv_table[j][i] - apply_tangent_structure(
                ef, lie_bracket(lifts[i], lifts[j])
            )
            torsion.add_field(ef.probe, t, f"T[{i}{j}]")
    return ConnectionTables(gamma1=gamma1, gamma2=gamma2, lifts=lifts,
                            torsion=torsion)


def mixed_curvature(conn: FieldConnections) -> MixedCurvature:
    """theta(V_i, V_j)V_k from the invariant definition
    nabla_{h_i} nabla_{V_j} V_k - nabla_{V_j} nabla_{h_i} V_k
    - nabla_{[h_i, V_j]} V_k."""
    ef = conn.ef
    n = ef.n
    lifts = conn.horizontal_lifts
    comps = [[[None] * n for _ in range(n)] for _ in range(n)]
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
                coeffs = ef.decompose_vertical(t1 - t2 - t3)
                comps[i][j][k] = [normalize(c) for c in coeffs]
    return MixedCurvature.from_components(comps, ef.probe)


def sections(ef: ExtendedFrame) -> dict:
    """The printed `projectors`, `connection` and `mixed_curvature` sections
    and the oracle-only identity suites, all from the fields."""
    conn = FieldConnections(ef)
    return {
        "nijenhuis_torsion": nijenhuis_check(ef).as_dict(),
        "projector_identities": conn.projector_identities().as_dict(),
        "vertical_flatness": conn.vertical_flatness().as_dict(),
        "projectors": {"lie_derivative_S": [
            [to_str(c) for c in conn.lie_derivative_s(e).components]
            for e in ef.combined]},
        "connection": connection_tables(conn).as_dict(),
        "mixed_curvature": mixed_curvature(conn).as_dict(),
    }
