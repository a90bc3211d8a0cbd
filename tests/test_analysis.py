import json
import random
from fractions import Fraction

import numpy as np
import pytest

from sodekit import analysis
from sodekit.expressions import (
    Num, Sym, ZERO, compile_exprs, differentiate, normalize, syms, to_str,
)
from sodekit.geometry import (
    Chart, Frame, VectorField, coordinate_field, lie_bracket,
)
from sodekit.analysis import (
    CASE1, CASE2, NOT_SODE, Connections, IdentitySuite, MixedCurvature,
    Options, SecondOrderProblem, bracket_coefficients, build_extended_frame,
    check_regularity, classify, mixed_curvature, normalize_v_basis,
    verify_bracket_integrability,
)
from sodekit.parser import parse
from sodekit.corpus import corpus_get
from sodekit.sampling import box_points
from tests import connection_oracle
from tests.connection_oracle import FieldConnections, apply_tangent_structure
from tests.conftest import INSTANCES, make_manifest, random_polynomial

x, y = syms("x y")


def make_problem(chart, F_comps, V_comps_list, **kw):
    F = VectorField(chart, [parse(c) if isinstance(c, str) else c
                            for c in F_comps])
    fields = [
        VectorField(chart, [parse(c) if isinstance(c, str) else c
                            for c in comps])
        for comps in V_comps_list
    ]
    return SecondOrderProblem(chart, F, Frame(chart, fields), **kw)


@pytest.fixture
def plane():
    return Chart(["x", "y"], [(-1.2, 1.2), (-1.2, 1.2)])


@pytest.fixture
def natural(plane):
    return make_problem(plane, ["y", "x*y^2 + y"], [["0", "1"]])


def field_is_zero(ef, X):
    return all(normalize(c) == ZERO for c in X.components)


# -- regularity ---------------------------------------------------------------

def test_regularity_passes_for_sode_shape(natural):
    assert check_regularity(natural)["status"] == "pass"


def test_regularity_fails_when_bracket_stays_vertical(plane):
    prob = make_problem(plane, ["x", "0"], [["0", "1"]])
    res = check_regularity(prob)
    assert res["status"] == "fail"
    assert res["rank"]["claimed_rank"] < 2


def test_regularity_routh():
    m = corpus_get("routh-abelian")
    prob = SecondOrderProblem(m.chart, m.vector_field(),
                              Frame(m.chart, m.frame_fields()))
    assert check_regularity(prob)["status"] == "pass"


# -- mixing coefficients ------------------------------------------------------

def test_mixing_coefficients_natural_chart(natural):
    # independent oracle: [dy, -dx - f_y dy] = -f_yy dy, so the vertical
    # coefficient is -f_yy and the w-part vanishes; f = x*y^2 + y
    ef = build_extended_frame(natural)
    bc = bracket_coefficients(ef)
    f_yy = normalize(differentiate(differentiate(parse("x*y^2 + y"), "y"), "y"))
    assert normalize(bc.v[0][0][0] + f_yy) == ZERO
    assert bc.w[0][0][0] == ZERO
    assert bc.symmetry.ok


def test_mixing_coefficients_rescaled_basis(plane):
    # hand check: with V = (1+y^2) dy and F = y dx, [V, W] = 2y W
    prob = make_problem(plane, ["y", "0"], [["0", "1 + y^2"]])
    ef = build_extended_frame(prob)
    bc = bracket_coefficients(ef)
    assert normalize(bc.w[0][0][0] - 2 * y) == ZERO
    assert bc.v[0][0][0] == ZERO


def test_mixing_vanishes_for_linear_fibre_dependence(plane):
    prob = make_problem(plane, ["y", "3*y + x"], [["0", "1"]])
    ef = build_extended_frame(prob)
    bc = bracket_coefficients(ef)
    assert bc.w_all_zero()
    assert bc.v[0][0][0] == ZERO


def test_integrability_trivial_for_single_field(plane):
    prob = make_problem(plane, ["y", "x*y^3"], [["0", "1"]])
    ef = build_extended_frame(prob)
    bc = bracket_coefficients(ef)
    suite = verify_bracket_integrability(ef, bc)
    assert suite.ok and suite.exact


def test_integrability_routh():
    m = corpus_get("routh-abelian")
    prob = SecondOrderProblem(m.chart, m.vector_field(),
                              Frame(m.chart, m.frame_fields()))
    ef = build_extended_frame(prob)
    bc = bracket_coefficients(ef)
    suite = verify_bracket_integrability(ef, bc)
    assert suite.ok and suite.exact


# -- basis adaptation ---------------------------------------------------------

def test_adaptation_closed_form(plane):
    # V = (1 + y^2) dy is normalized to V.B^-1 = dy, whose brackets with W
    # are vertical: the matrix is the closed form 1/(1 + y^2)
    rep = classify(make_problem(plane, ["y", "0"], [["0", "1 + y^2"]]))
    info = rep.adaptation
    assert info.mode == "normalized" and info.coordinates == ["y"]
    oracle = normalize(parse("1/(1 + y^2)"))
    assert normalize(info.matrix[0][0] - oracle) == ZERO
    # recovered basis is the plain coordinate field
    assert rep.extended.vbasis[0].components == (ZERO, Num(1))
    assert rep.bracket_coeffs.w_all_zero()


def test_normalization_inverts_the_block_of_v(plane):
    # V.B^-1 for a transcendental block, and for a block that does not
    # commute: both are the coordinate fields of the rows that carry V
    ch = Chart(["x1", "x2", "y1", "y2"], [(-1.0, 1.0)] * 4)
    for chart, F, V in ((plane, ["y", "0"], [["0", "exp(y)"]]),
                        (ch, ["y1", "y2", "-x1", "-x2"],
                         [["0", "0", "1", "y2"], ["0", "0", "0", "1"]])):
        ef = build_extended_frame(make_problem(chart, F, V))
        normalized = normalize_v_basis(ef)
        matrix, coordinates = normalized.normalization
        assert coordinates == list(chart.names[-ef.n:])
        for i, v in enumerate(normalized.vbasis):
            assert v.components == coordinate_field(
                chart, coordinates[i]).components
        assert classify(make_problem(chart, F, V)).adaptation.mode \
            == "normalized"
    assert [[to_str(c) for c in row] for row in matrix] == [["1", "0"],
                                                            ["(-1)*y2", "1"]]
    # a basis carried by more rows than its size is left to the caller, and
    # so is one that normalization would not change
    wide = build_extended_frame(make_problem(
        ch, ["y1", "y2", "-x1", "-x2"],
        [["1", "0", "1", "y2"], ["0", "0", "0", "1"]]))
    assert normalize_v_basis(wide) is None
    assert normalize_v_basis(build_extended_frame(make_problem(
        plane, ["y + y^2/4", "0"], [["0", "1"]]))) is None


def test_adaptation_identity_when_mixing_vanishes(natural):
    rep = classify(natural)
    info = rep.adaptation
    assert info.mode == "identity"
    assert info.matrix == [[Num(1)]] and info.coordinates is None
    assert rep.bracket_coeffs.w_all_zero()


def test_adaptation_numeric_fallback_for_a_reparametrized_fibre(plane):
    # V = du for y = u + u^2/4 commutes but is not adapted, and V.B^-1 is V
    # itself, so the adaptation goes numeric; the chart's u-flow is A V with
    # the transported scalar A = 2/(2 + u) carried as a third coordinate,
    # one from u = 0
    import numpy as np
    from sodekit.straighten import build_normal_coordinates, integrate_flows
    chart = Chart(["x", "u"], [(-1.0, 1.0), (-1.0, 1.0)])
    rep = classify(make_problem(chart, ["u + u^2/4", "0"], [["0", "1"]]))
    assert rep.classification == CASE1
    assert rep.adaptation.mode == "numeric"
    assert rep.adaptation.matrix is None
    u_flow = build_normal_coordinates(rep).stages[-1].fld
    ends, _, failures = integrate_flows(
        u_flow, [(0.0, 0.0, 1.0), (0.3, 0.0, 1.0)], [0.5, -0.7], chart=chart)
    assert not failures
    for _, u_end, a in ends:
        assert abs(a - 2.0 / (2.0 + u_end)) < 1e-8
        assert abs(u_flow.at((0.0, u_end, a))[1] - a) < 1e-12
    assert rep.identity_suites_ok()
    # rescaled by 1 + u^2, the basis is normalized back to du, and the
    # transport starts from there
    info = classify(make_problem(chart, ["u + u^2/4", "0"],
                                 [["0", "1 + u^2"]])).adaptation
    assert info.mode == "numeric" and info.coordinates == ["u"]
    assert to_str(info.matrix[0][0]) == "1/(u^2 + 1)"


class Injected(Exception):
    """An error no stage handles; it must reach the caller."""


def test_newton_search_lets_unrelated_evaluator_errors_through(
        natural, monkeypatch):
    import sodekit.analysis as analysis
    rep = classify(natural)
    assert rep.zero_section_points

    def failing(exprs, names):
        def run(point):
            raise Injected("compiled evaluator")
        return run

    monkeypatch.setattr(analysis, "compile_exprs", failing)
    with pytest.raises(Injected):
        analysis.find_zero_section_points(rep.extended, rep.f_w_coefficients)


def pairwise_distinct(points):
    unique = []
    for p in sorted(points):
        if not any(max(abs(a - b) for a, b in zip(p, q)) < 1e-6
                   for q in unique):
            unique.append(p)
    return unique


def test_distinct_points_match_the_pairwise_loop():
    from sodekit.analysis import _distinct_points
    rng = random.Random(11)
    clustered = [(c + rng.uniform(-2e-6, 2e-6), d + rng.uniform(-2e-6, 2e-6))
                 for c, d in [(0.1, 0.2), (0.1, 0.9), (-0.5, 0.0)]
                 for _ in range(40)]
    # equal first coordinates, only the second one tells them apart
    tied = [(0.25, rng.choice([0.0, 1e-7, 5e-7, 3e-6, 0.5])) for _ in range(60)]
    # 0.9e-6 apart: each close to its neighbours, not to the whole chain
    chained = [(k * 0.9e-6, 0.0) for k in range(30)] + \
        [(k * 0.9e-6, k * 0.9e-6) for k in range(30)]
    spread = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(200)]
    for points in (clustered, tied, chained, spread,
                   clustered + tied + chained + spread, []):
        want = pairwise_distinct(points)
        assert _distinct_points(points) == want
        assert _distinct_points(reversed(points)) == want
    assert 1 < len(pairwise_distinct(chained)) < len(chained)


def replayed_newton_search(ef, b_coeffs):
    """The Newton search replayed one start at a time, each step its own
    np.linalg.lstsq: a start stops when it converges or fails to evaluate,
    and a step longer than 1 in some coordinate is scaled down to 1."""
    chart = ef.chart
    b_exprs = [normalize(b) for b in b_coeffs]
    nb, d = len(b_exprs), chart.dim
    fn = compile_exprs(b_exprs + [differentiate(b, nm) for b in b_exprs
                                  for nm in chart.names], chart.names)
    lows, highs = np.array(chart.box, dtype=float).T
    found = []
    for z in np.array(box_points(chart.box, analysis.NEWTON_STARTS,
                                 ef.problem.options.seed + 101), dtype=float):
        for _ in range(analysis.NEWTON_MAX_ITER):
            values = fn(z[:, None])[0][:, 0]
            bv, J = values[:nb], values[nb:].reshape(nb, d)
            if not np.isfinite(bv).all():
                break
            if np.abs(bv).max() < analysis.NEWTON_TOL:
                found.append(tuple(float(v) for v in z))
                break
            if not np.isfinite(J).all():
                break
            step = np.linalg.lstsq(J, -bv, rcond=None)[0]
            norm = float(np.max(np.abs(step)))
            if norm > 1.0:
                step = step / norm
            z = np.clip(z + step, lows, highs)
    return analysis._distinct_points(
        p for p in found if chart.contains(p, slack=1e-9))


def classify_manifest(manifest):
    """The classification of a manifest under its own options."""
    opts = Options.from_mapping(manifest.options)
    frame = Frame(manifest.chart, manifest.frame_fields(),
                  samples=opts.samples, seed=opts.seed)
    return classify(SecondOrderProblem(manifest.chart,
                                       manifest.vector_field(), frame, opts))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_the_stacked_newton_search_replays_one_start_at_a_time(name):
    rep = classify_manifest(INSTANCES[name]())
    if rep.f_w_coefficients is None:
        # case 2, or the recognition stopped first: no Newton search
        assert rep.classification != CASE1
        return
    ef, b_coeffs = rep.extended, rep.f_w_coefficients
    points = analysis.find_zero_section_points(ef, b_coeffs)
    assert points == replayed_newton_search(ef, b_coeffs)
    assert points == rep.zero_section_points


def test_the_stacked_newton_search_replays_a_field_never_vertical():
    # b = -y - 2 has no root in the box: every start runs every step
    rep = classify_manifest(make_manifest(
        "never-vertical", ["x", "y"], ["y + 2", "x"], [["0", "1"]]))
    assert [to_str(b) for b in rep.f_w_coefficients] == ["-y - 2"]
    assert replayed_newton_search(rep.extended, rep.f_w_coefficients) == []
    assert rep.zero_section_points == []


def test_the_stacked_newton_search_replays_a_root_of_lost_rank(natural):
    # b = (x - y)^2: the Jacobian vanishes on the line of roots, so the
    # steps shrink by half and each start stops at its own point
    ef = classify(natural).extended
    b_coeffs = [parse("(x - y)^2")]
    points = analysis.find_zero_section_points(ef, b_coeffs)
    assert len(points) > 1
    assert points == replayed_newton_search(ef, b_coeffs)


def test_adaptation_identity_routh():
    m = corpus_get("routh-abelian")
    rep = classify(SecondOrderProblem(m.chart, m.vector_field(),
                                      Frame(m.chart, m.frame_fields())))
    info = rep.adaptation
    assert info.mode == "identity" and info.coordinates is None
    assert rep.bracket_coeffs.w_all_zero()


# -- vertical endomorphism ----------------------------------------------------

def test_tangent_structure_kills_v_and_flips_w(natural):
    ef = build_extended_frame(natural)
    for i, v in enumerate(ef.vbasis):
        assert field_is_zero(ef, apply_tangent_structure(ef, v))
    for i, w in enumerate(ef.wfields):
        sw = apply_tangent_structure(ef, w)
        assert field_is_zero(ef, sw + ef.vbasis[i])


def test_tangent_structure_squares_to_zero(natural):
    ef = build_extended_frame(natural)
    for e in ef.combined:
        twice = apply_tangent_structure(ef, apply_tangent_structure(ef, e))
        assert field_is_zero(ef, twice)


def test_s_of_f_is_fibre_dilation_field(natural):
    # hand derivation: F = -y W_1 + (f - y f_y) V_1, so S(F) = y V_1
    ef = build_extended_frame(natural)
    sf = apply_tangent_structure(ef, natural.F)
    assert field_is_zero(ef, sf - ef.vbasis[0].scaled(y))


def test_nijenhuis_vanishes(natural):
    ef = build_extended_frame(natural)
    suite = connection_oracle.nijenhuis_check(ef)
    assert suite.ok and suite.exact


def test_nijenhuis_vanishes_routh():
    m = corpus_get("routh-abelian")
    prob = SecondOrderProblem(m.chart, m.vector_field(),
                              Frame(m.chart, m.frame_fields()))
    ef = build_extended_frame(prob)
    suite = connection_oracle.nijenhuis_check(ef)
    assert suite.ok and suite.exact


# -- projectors and lifts -----------------------------------------------------

def test_projector_actions_on_basis(natural):
    ef = build_extended_frame(natural)
    suite = FieldConnections(ef).projector_identities()
    assert suite.ok and suite.exact


def test_horizontal_projection_of_w(natural):
    # hand check: (L_F S)(W_1) = -W_1 - f_y V_1, so P_H(W_1) = W_1 + f_y/2 V_1
    ef = build_extended_frame(natural)
    conn = FieldConnections(ef)
    f_y = differentiate(parse("x*y^2 + y"), "y")
    lfs_w = conn.lie_derivative_s(ef.wfields[0])
    expected = ef.wfields[0].scaled(Num(-1)) - ef.vbasis[0].scaled(f_y)
    assert field_is_zero(ef, lfs_w - expected)
    ph_w = conn.horizontal(ef.wfields[0])
    expected_ph = ef.wfields[0] + ef.vbasis[0].scaled(
        normalize(f_y * Num(Fraction(1, 2))))
    assert field_is_zero(ef, ph_w - expected_ph)


def test_lift_in_natural_chart(natural):
    # h(dy) = dx + (f_y/2) dy
    ef = build_extended_frame(natural)
    conn = Connections(ef, bracket_coefficients(ef))
    h = conn.lifts()[0]
    f_y = differentiate(parse("x*y^2 + y"), "y")
    expected = VectorField(
        ef.chart, [Num(1), normalize(f_y * Num(Fraction(1, 2)))]
    )
    assert field_is_zero(ef, h - expected)


def test_lift_flat_force(plane):
    prob = make_problem(plane, ["y", "0"], [["0", "1"]])
    ef = build_extended_frame(prob)
    conn = Connections(ef, bracket_coefficients(ef))
    h = conn.lifts()[0]
    assert field_is_zero(ef, h - coordinate_field(plane, "x"))


def test_lift_routh_matches_connection_coefficients():
    # h(dv_i) = dx_i - Gamma^j_i dv_j with Gamma from the fibre-linear force
    m = corpus_get("routh-abelian")
    prob = SecondOrderProblem(m.chart, m.vector_field(),
                              Frame(m.chart, m.frame_fields()))
    ef = build_extended_frame(prob)
    conn = Connections(ef, bracket_coefficients(ef))
    mu = Sym("mu")
    half = Num(Fraction(1, 2))
    # Gamma^2_1 = -1/2 d(-v1 mu)/dv1 = mu/2, so h(dv1) = dx1 - mu/2 dv2
    expected0 = VectorField(m.chart, [Num(1), ZERO, ZERO,
                                      normalize(Num(-1) * half * mu), ZERO])
    assert field_is_zero(ef, conn.lifts()[0] - expected0)
    expected1 = VectorField(m.chart, [ZERO, Num(1),
                                      normalize(half * mu), ZERO, ZERO])
    assert field_is_zero(ef, conn.lifts()[1] - expected1)


def test_lie_derivative_s_squares_to_identity(natural):
    ef = build_extended_frame(natural)
    conn = FieldConnections(ef)
    for e in ef.combined:
        twice = conn.lie_derivative_s(conn.lie_derivative_s(e))
        assert field_is_zero(ef, twice - e)


# -- covariant derivatives ----------------------------------------------------

def test_vertical_derivative_vanishes_for_adapted_basis(natural):
    ef = build_extended_frame(natural)
    conn = FieldConnections(ef)
    d = conn.vertical_derivative(ef.vbasis[0], ef.vbasis[0])
    assert field_is_zero(ef, d)


def test_vertical_derivative_rescaled_basis_sign_convention(plane):
    # nabla_V V = +w_mix * V for the rescaled basis (adopted sign; the
    # w-mixing coefficient is 2y here)
    prob = make_problem(plane, ["y", "0"], [["0", "1 + y^2"]])
    ef = build_extended_frame(prob)
    conn = FieldConnections(ef)
    d = conn.vertical_derivative(ef.vbasis[0], ef.vbasis[0])
    expected = ef.vbasis[0].scaled(normalize(2 * y))
    assert field_is_zero(ef, d - expected)


def test_vertical_derivative_leibniz(natural):
    rng = random.Random(21)
    ef = build_extended_frame(natural)
    conn = FieldConnections(ef)
    for _ in range(4):
        f = random_polynomial(rng, ef.chart.names, degree=2, terms=2)
        V = ef.vbasis[0]
        lhs = conn.vertical_derivative(V, V.scaled(f))
        rhs = (conn.vertical_derivative(V, V).scaled(f)
               + V.scaled(V.directional(f)))
        assert field_is_zero(ef, lhs - rhs)


def test_extended_derivative_tensorial_in_direction(natural):
    rng = random.Random(22)
    ef = build_extended_frame(natural)
    conn = FieldConnections(ef)
    W = ef.wfields[0]
    V = ef.vbasis[0]
    for _ in range(3):
        f = random_polynomial(rng, ef.chart.names, degree=2, terms=2)
        lhs = conn.covariant_derivative(W.scaled(f), V)
        rhs = conn.covariant_derivative(W, V).scaled(f)
        assert field_is_zero(ef, lhs - rhs)


def test_extended_derivative_leibniz_in_argument(natural):
    rng = random.Random(23)
    ef = build_extended_frame(natural)
    conn = FieldConnections(ef)
    W = ef.wfields[0]
    V = ef.vbasis[0]
    for _ in range(3):
        f = random_polynomial(rng, ef.chart.names, degree=2, terms=2)
        lhs = conn.covariant_derivative(W, V.scaled(f))
        rhs = (conn.covariant_derivative(W, V).scaled(f)
               + V.scaled(W.directional(f)))
        assert field_is_zero(ef, lhs - rhs)


def test_extended_matches_vertical_for_vertical_directions(natural):
    ef = build_extended_frame(natural)
    conn = FieldConnections(ef)
    lhs = conn.covariant_derivative(ef.vbasis[0], ef.vbasis[0])
    rhs = conn.vertical_derivative(ef.vbasis[0], ef.vbasis[0])
    assert field_is_zero(ef, lhs - rhs)


def test_extended_is_bracket_for_projectable_horizontal(natural):
    # the lift h is projectable here ([h, V] stays vertical), so
    # nabla_h V = [h, V]
    ef = build_extended_frame(natural)
    conn = FieldConnections(ef)
    h = conn.lifts()[0]
    V = ef.vbasis[0]
    bracket = lie_bracket(h, V)
    assert field_is_zero(ef, conn.covariant_derivative(h, V) - bracket)


# -- mixed curvature ----------------------------------------------------------

def test_curvature_zero_for_quadratic_force(plane):
    prob = make_problem(plane, ["y", "x*y^2 - y + 1"], [["0", "1"]])
    ef = build_extended_frame(prob)
    curv = mixed_curvature(Connections(ef, bracket_coefficients(ef)))
    assert curv.verdict == "quadratic"
    assert all(c == ZERO for c in curv.components[0][0][0])


def test_curvature_nonzero_for_cubic_force(plane):
    prob = make_problem(plane, ["y", "y^3"], [["0", "1"]])
    ef = build_extended_frame(prob)
    curv = mixed_curvature(Connections(ef, bracket_coefficients(ef)))
    assert curv.verdict == "not_quadratic"
    assert curv.witness is not None
    assert abs(curv.witness_value) > 0.1
    # hand value: the single component is f_yyy / 2 = 3
    assert normalize(curv.components[0][0][0][0] - Num(3)) == ZERO


def test_curvature_zero_for_free_motion(plane):
    prob = make_problem(plane, ["y", "0"], [["0", "1"]])
    ef = build_extended_frame(prob)
    curv = mixed_curvature(Connections(ef, bracket_coefficients(ef)))
    assert curv.verdict == "quadratic"


# -- classification -----------------------------------------------------------

def test_classify_oscillator_case1_locus_on_parabola():
    m = corpus_get("oscillator-scrambled")
    prob = SecondOrderProblem(m.chart, m.vector_field(),
                              Frame(m.chart, m.frame_fields()))
    rep = classify(prob)
    assert rep.classification == CASE1
    assert rep.parameter_count == 0
    assert rep.zero_section_points
    for p in rep.zero_section_points:
        assert abs(p[1] - p[0] ** 2) < 1e-8


def test_classify_timedep_case2():
    m = corpus_get("timedep-scrambled")
    prob = SecondOrderProblem(m.chart, m.vector_field(),
                              Frame(m.chart, m.frame_fields()))
    rep = classify(prob)
    assert rep.classification == CASE2
    assert rep.parameter_count == 1
    assert rep.verdicts["f_independent_of_w"]["status"] == "pass"


def test_classify_rejects_vertical_bracket(plane):
    prob = make_problem(plane, ["x", "0"], [["0", "1"]])
    rep = classify(prob)
    assert rep.classification == NOT_SODE
    assert "regularity" in rep.reason


def test_classify_rejects_noninvolutive_w():
    # V = {dy} on R^4 with F = y dq1 + y^2 dq2: [V, [F, V]] leaves the span
    ch = Chart(["q1", "q2", "q3", "y"], [(-1, 1)] * 4)
    F = VectorField(ch, [Sym("y"), parse("y^2"), ZERO, ZERO])
    prob = SecondOrderProblem(ch, F, Frame(ch, [coordinate_field(ch, "y")]))
    # independent check that the failure is real
    W1 = lie_bracket(F, coordinate_field(ch, "y"))
    vw = lie_bracket(coordinate_field(ch, "y"), W1)
    assert normalize(vw.components[1]) != ZERO  # dq2 component survives
    rep = classify(prob)
    assert rep.classification == NOT_SODE
    assert "not involutive" in rep.reason


def test_an_unknown_that_evaluated_no_point_never_counts_as_zero():
    # log(-1 - x^2) is undefined on the whole box: the verdict is Unknown
    # with the largest relative residual, so neither the suite nor the
    # mixed curvature may pass on it
    probe = Chart(["x", "y"], [(-1, 1), (-1, 1)]).probe()
    verdict = probe(parse("log(-1 - x^2)"))
    assert verdict.kind == "unknown" and verdict.max_residual == 1.0
    suite = IdentitySuite("undefined")
    suite.add(verdict)
    assert not suite.ok and suite.as_dict()["status"] == "fail"
    comps = [[[[parse("log(-1 - x^2)")]]]]
    assert MixedCurvature.from_components(comps, probe).verdict == \
        "inconclusive"


def test_classify_mixed_case_detected_by_rank():
    # F has a t-component that is numerically negligible on the box, so F is
    # neither decomposable in W nor of full rank together with it
    ch = Chart(["t", "x", "y"], [(-1e-12, 1e-12), (-1, 1), (-1, 1)])
    F = VectorField(ch, [Sym("t"), Sym("y"), ZERO])
    prob = SecondOrderProblem(ch, F, Frame(ch, [coordinate_field(ch, "y")]))
    rep = classify(prob)
    assert rep.classification == NOT_SODE
    assert "mixed" in rep.reason


def test_classification_invariant_under_scramble():
    # the same dynamics before and after a polynomial diffeomorphism get the
    # same verdict
    plain_osc = Chart(["x", "u"], [(-1.5, 1.5), (-1.5, 1.5)])
    F_plain = VectorField(plain_osc, [Sym("u"), normalize(-Sym("x"))])
    rep_plain = classify(SecondOrderProblem(
        plain_osc, F_plain, Frame(plain_osc, [coordinate_field(plain_osc, "u")])
    ))
    m = corpus_get("oscillator-scrambled")
    rep_scrambled = classify(SecondOrderProblem(
        m.chart, m.vector_field(), Frame(m.chart, m.frame_fields())
    ))
    assert rep_plain.classification == rep_scrambled.classification == CASE1

    plain_td = Chart(["t", "x", "y"], [(-1, 1)] * 3)
    F_td = VectorField(plain_td, [Num(1), Sym("y"),
                                  normalize(Sym("t") - Sym("x"))])
    rep_td = classify(SecondOrderProblem(
        plain_td, F_td, Frame(plain_td, [coordinate_field(plain_td, "y")])
    ))
    m2 = corpus_get("timedep-scrambled")
    rep_td_s = classify(SecondOrderProblem(
        m2.chart, m2.vector_field(), Frame(m2.chart, m2.frame_fields())
    ))
    assert rep_td.classification == rep_td_s.classification == CASE2


def test_random_shear_preserves_classification_and_quadratic_verdict():
    # push a random second-order field through a random polynomial shear
    # z1 = x, z2 = y + p(x); both the case verdict and the quadratic-type
    # verdict are coordinate-free and must survive
    rng = random.Random(90210)
    for _ in range(4):
        monos = [
            (rng.randint(-3, 3), rng.randint(0, 2), rng.randint(0, 3))
            for _ in range(3)
        ]

        def force(xe, ye, monos=monos):
            out = normalize(Num(0))
            for c, e1, e2 in monos:
                term = Num(c)
                if e1:
                    term = term * xe ** e1
                if e2:
                    term = term * ye ** e2
                out = out + term
            return normalize(out)

        plain = Chart(["x", "y"], [(-1.1, 1.1), (-1.1, 1.1)])
        xs, ys = Sym("x"), Sym("y")
        rep_plain = classify(SecondOrderProblem(
            plain, VectorField(plain, [ys, force(xs, ys)]),
            Frame(plain, [coordinate_field(plain, "y")]),
        ))
        z1, z2 = Sym("z1"), Sym("z2")
        p_expr = normalize(
            Num(rng.randint(-2, 2)) * z1 + Num(rng.randint(-1, 1)) * z1 ** 2
        )
        p_prime = differentiate(p_expr, "z1")
        ye = normalize(z2 - p_expr)
        chz = Chart(["z1", "z2"], [(-1.1, 1.1), (-2.5, 2.5)])
        rep_shear = classify(SecondOrderProblem(
            chz,
            VectorField(chz, [ye, normalize(force(z1, ye) + p_prime * ye)]),
            Frame(chz, [coordinate_field(chz, "z2")]),
        ))
        assert rep_shear.classification == rep_plain.classification == CASE1
        assert rep_shear.curvature.verdict == rep_plain.curvature.verdict
        assert rep_shear.identity_suites_ok()


def test_mixing_transformation_law():
    # recompute the w-mixing after V -> A V and compare with the
    # transformation law  w~ A = V(A) + A^2 w  (scalar case)
    plane = Chart(["x", "y"], [(-1.2, 1.2), (-1.2, 1.2)])
    probe = plane.probe()
    F = VectorField(plane, [Sym("y"), parse("x*y^2 + y")])
    V = coordinate_field(plane, "y")
    prob = SecondOrderProblem(plane, F, Frame(plane, [V]))
    bc = bracket_coefficients(build_extended_frame(prob))
    w_plain = bc.w[0][0][0]
    for a_text in ["1 + y^2", "2 + x^2 + y^4"]:
        A = parse(a_text)
        prob_t = SecondOrderProblem(
            plane, F, Frame(plane, [V.scaled(A)])
        )
        bc_t = bracket_coefficients(build_extended_frame(prob_t))
        w_tilde = bc_t.w[0][0][0]
        law = normalize(
            w_tilde * A - (V.scaled(A).directional(A) + A * A * w_plain)
        )
        assert probe(law).is_zero


def test_torsion_routh():
    m = corpus_get("routh-abelian")
    prob = SecondOrderProblem(m.chart, m.vector_field(),
                              Frame(m.chart, m.frame_fields()))
    rep = classify(prob)
    assert rep.connection_data.torsion.exact
    # Gamma^1_2 = -1/2 d(v2 mu)/dv2 ... cross coefficients carry mu/2
    g1 = rep.connection_data.gamma1
    assert normalize(g1[0][1] + Num(Fraction(1, 2)) * Sym("mu")) == ZERO
    assert normalize(g1[1][0] - Num(Fraction(1, 2)) * Sym("mu")) == ZERO


def test_identity_suites_exact_on_polynomial_instances():
    for name in ("oscillator-scrambled", "quadratic-demo", "beta-rescaled"):
        m = corpus_get(name)
        prob = SecondOrderProblem(m.chart, m.vector_field(),
                                  Frame(m.chart, m.frame_fields()))
        rep = classify(prob)
        assert rep.ok
        assert rep.identity_suites_ok()
        assert all(s.exact for s in rep.identity_suites), name


# -- table-based stages against the field-level oracle ------------------------

ORACLE_SUITES = ("nijenhuis_torsion", "projector_identities",
                 "vertical_flatness")

@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_table_stages_print_what_the_field_oracle_prints(name):
    rep = classify_manifest(INSTANCES[name]())
    if rep.connection_data is None:
        # the recognition stopped first: no stage output to compare
        assert name == "regularity-fail" and rep.reason
        assert rep.lie_derivative_s is None and rep.curvature is None
        return
    printed = rep.as_dict()
    oracle = connection_oracle.sections(rep.extended)
    for suite in ORACLE_SUITES:
        assert oracle[suite]["status"] == "pass", suite
        assert oracle[suite]["exact"], suite
    for section in ("projectors", "connection", "mixed_curvature"):
        assert (json.dumps(printed[section], sort_keys=True)
                == json.dumps(oracle[section], sort_keys=True)), section


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_the_printed_suites_per_adaptation_mode(name):
    # the suites that hold by construction on the tables are the oracle's,
    # and so is the adapted basis: it is adapted by construction
    rep = classify_manifest(INSTANCES[name]())
    if rep.adaptation is None:
        assert name == "regularity-fail"
        return
    assert [s.name for s in rep.identity_suites] == [
        "v_basis_commutes", "mixing_symmetry", "w_mix_integrability",
        "torsion"]


def test_commutator_zero_only_by_sampling_stays_in_the_tables():
    # [V_1, V_2] vanishes on the box, but only the sampled test says so: its
    # V-decomposition must enter the tables, not be dropped (V is carried by
    # three rows, so it is not normalized)
    m = make_manifest("sampled-commutator", ["x1", "x2", "y1", "y2"],
                      ["y1", "y2", "-x1", "-x2"],
                      [["1", "0", "1", "0"],
                       ["0", "0", "0", "exp(log(1 + y1^2)) - y1^2"]])
    rep = classify(SecondOrderProblem(m.chart, m.vector_field(),
                                      Frame(m.chart, m.frame_fields())))
    commutes = rep.identity_suites[0]
    assert commutes.name == "v_basis_commutes"
    assert commutes.ok and not commutes.exact
    conn = Connections(rep.extended, rep.bracket_coeffs)
    assert conn.c[0][1][1] != ZERO
    assert normalize(conn.c[0][1][1] + conn.c[1][0][1]) == ZERO
    assert rep.identity_suites_ok()
    assert rep.curvature.verdict == "quadratic"
