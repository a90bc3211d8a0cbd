import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from sodekit.expressions import Num, Sym, ZERO, normalize, syms
from sodekit.geometry import Chart, Frame, VectorField, coordinate_field
from sodekit.analysis import (
    CASE1, CASE2, SecondOrderProblem, bracket_coefficients,
    build_extended_frame, classify,
)
from sodekit.parser import parse
from sodekit import straighten
from sodekit.corpus import corpus_get
from sodekit.runner import EXIT_NUMERIC, run_command
from sodekit.straighten import (
    NumericFailure, build_normal_coordinates, integrate_flows,
    pushforward_residuals, transported_fibre_fields,
)
from tests.conftest import INSTANCES, make_manifest, values_at

x, y = syms("x y")


def classify_corpus(name):
    m = INSTANCES[name]()
    prob = SecondOrderProblem(m.chart, m.vector_field(),
                              Frame(m.chart, m.frame_fields()))
    return classify(prob)


# -- flows ---------------------------------------------------------------------

def flow(fld, z, s, chart=None, with_jacobian=False):
    """The flow of fld from one point as a batch of one member: its end (and
    Jacobian, `with_jacobian`), its failure raised."""
    ends, jac, failures = integrate_flows(fld, [z], [s], with_jacobian, chart)
    if failures:
        raise failures[0]
    return (ends[0], jac[0]) if with_jacobian else ends[0]


def test_translation_flow():
    ch = Chart(["x", "y"], [(-2, 2), (-2, 2)])
    end = flow(coordinate_field(ch, "x"), (0.0, 0.0), 1.0)
    assert np.allclose(end, [1.0, 0.0], atol=1e-12)


def test_rotation_quarter_turn():
    ch = Chart(["x", "y"], [(-2, 2), (-2, 2)])
    rot = VectorField(ch, [y, normalize(-x)])
    end = flow(rot, (1.0, 0.0), math.pi / 2)
    assert np.max(np.abs(end - np.array([0.0, -1.0]))) < 1e-8


def test_flow_reversibility():
    ch = Chart(["x", "y"], [(-2, 2), (-2, 2)])
    fld = VectorField(ch, [y, parse("x*y - 1")])
    z = np.array([0.3, 0.7])
    there = flow(fld, z, 0.8)
    back = flow(fld, there, -0.8)
    assert np.max(np.abs(back - z)) < 1e-8


def test_flow_group_law_on_corpus_fields():
    from sodekit.corpus import corpus_list
    for name in corpus_list():
        m = corpus_get(name)
        F = m.vector_field()
        z = np.array([lo + 0.55 * (hi - lo) for lo, hi in m.chart.box])
        base = flow(F, z, 0.0)
        assert np.max(np.abs(base - z)) == 0.0
        one_hop = flow(F, z, 0.5)
        two_hops = flow(F, flow(F, z, 0.2), 0.3)
        assert np.max(np.abs(one_hop - two_hops)) < 1e-9, name
        back = flow(F, one_hop, -0.5)
        assert np.max(np.abs(back - z)) < 1e-9, name


def test_variational_jacobian_rotation():
    ch = Chart(["x", "y"], [(-2, 2), (-2, 2)])
    rot = VectorField(ch, [y, normalize(-x)])
    _, J = flow(rot, (1.0, 0.0), math.pi / 2, with_jacobian=True)
    assert np.max(np.abs(J - np.array([[0.0, 1.0], [-1.0, 0.0]]))) < 1e-8


def test_flow_domain_error_reports_last_point():
    ch = Chart(["x"], [(0.01, 1.0)])
    fld = VectorField(ch, [normalize(Num(-1) / Sym("x"))])
    with pytest.raises(NumericFailure) as err:
        flow(fld, (0.5,), 1.0)
    assert err.value.last_point is not None


def test_flow_box_exit_rejected_with_chart_guard():
    ch = Chart(["x", "y"], [(-1, 1), (-1, 1)])
    fld = coordinate_field(ch, "x")
    with pytest.raises(NumericFailure):
        flow(fld, (0.0, 0.0), 5.0, chart=ch)


# -- closed-form flows -------------------------------------------------------------

def count_solves(monkeypatch):
    """The number of solve_ivp calls made from now on, as a growing list."""
    calls = []
    real = straighten.solve_ivp
    monkeypatch.setattr(straighten, "solve_ivp",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


def integrated(monkeypatch, fld, z, s, with_jacobian=False, chart=None):
    """integrate_flows with the closed form switched off: DOP853 for every
    field."""
    with monkeypatch.context() as patch:
        patch.setattr(straighten, "_lie_series", lambda _fld: None)
        return integrate_flows(fld, z, s, with_jacobian, chart)


@pytest.mark.parametrize("name", ["oscillator-scrambled", "timedep-scrambled"])
def test_polynomial_stages_flow_in_closed_form_as_dop853_does(monkeypatch,
                                                              name):
    # the x1 stage has X^3 z = 0: its flow is quadratic in s
    tr = build_normal_coordinates(classify_corpus(name))
    fld = tr.stages[tr.param_names.index("x1")].fld
    order, _, _ = straighten._lie_series(fld)
    assert order == 2
    rng = np.random.default_rng(3)
    z = tr.z0 + rng.uniform(-0.2, 0.2, (6, tr.m))
    s = rng.uniform(-0.35, 0.35, 6)
    solves = count_solves(monkeypatch)
    ends, J, failures = integrate_flows(fld, z, s, True, tr.chart)
    assert solves == [] and failures == {}
    want_ends, want_J, _ = integrated(monkeypatch, fld, z, s, True, tr.chart)
    assert solves == [1]
    assert np.max(np.abs(ends - want_ends)) < 1e-9
    assert np.max(np.abs(J - want_J)) < 1e-9
    # without Jacobians the ends are the same bits
    alone, _, _ = integrate_flows(fld, z, s, chart=tr.chart)
    assert np.array_equal(alone, ends)


def test_a_field_whose_series_does_not_end_is_integrated(monkeypatch):
    tr = timedep_transform()
    assert tr.param_names[0] == "t1" and tr.stages[0].fld is tr.F
    assert straighten._lie_series(tr.F) is None
    solves = count_solves(monkeypatch)
    z = np.repeat(tr.z0[None], 3, axis=0)
    ends, J, failures = integrate_flows(tr.F, z, [0.1, -0.2, 0.3], True,
                                        tr.chart)
    assert solves == [1] and failures == {}
    # the time coordinate of F = (1, ...) moves by s exactly, up to rounding
    assert np.allclose(ends[:, 0], tr.z0[0] + np.array([0.1, -0.2, 0.3]),
                       atol=1e-12)


def test_a_constant_stage_is_a_translation_to_the_last_bit(monkeypatch):
    ch = Chart(["x", "y"], [(-2, 2), (-2, 2)])
    c = np.array([0.3, -1.7])
    fld = VectorField(ch, [Num(0.3), Num(-1.7)])
    assert straighten._lie_series(fld)[0] == 1
    z = np.array([[0.1, 0.2], [-0.5, 0.25], [1.0, -1.0]])
    s = np.array([0.7, 0.0, -0.35])
    solves = count_solves(monkeypatch)
    ends, J, failures = integrate_flows(fld, z, s, True, ch)
    assert solves == [] and failures == {}
    want = z + s[:, None] * c
    want[1] = z[1]                  # a member that does not move
    assert ends.tobytes() == want.tobytes()
    assert J.tobytes() == np.tile(np.eye(2), (3, 1, 1)).tobytes()
    # the zero field (X z = 0, no terms) moves nothing
    still = VectorField(ch, [ZERO, ZERO])
    assert straighten._lie_series(still)[0] == 0
    ends, J, _ = integrate_flows(still, z, s, True, ch)
    assert ends.tobytes() == z.tobytes()
    assert J.tobytes() == np.tile(np.eye(2), (3, 1, 1)).tobytes()


def test_a_pole_of_a_closed_form_field_fails_its_member_alone(monkeypatch):
    # X = (0, 1/x): X^2 z = 0, so y moves by s/x; at x = 0 the field has no
    # value, and the member there fails as it does in the integrator
    ch = Chart(["x", "y"], [(-1, 1), (-1, 1)])
    fld = VectorField(ch, [ZERO, parse("1/x")])
    assert straighten._lie_series(fld)[0] == 1
    z = np.array([[0.5, 0.1], [0.0, 0.2], [-0.4, 0.3]])
    s = np.array([0.2, 0.2, 0.2])
    for with_jacobian in (False, True):
        ends, J, failures = integrate_flows(fld, z, s, with_jacobian, ch)
        _, _, want = integrated(monkeypatch, fld, z, s, with_jacobian, ch)
        assert list(failures) == list(want) == [1]
        assert str(failures[1]) == str(want[1]) == (
            ("variational flow" if with_jacobian else "flow")
            + " hit a domain error: division by zero in '1/x'")
        assert failures[1].last_point == (0.0, 0.2)
        assert np.isnan(ends[1]).all()
        assert np.array_equal(ends[[0, 2]], [[0.5, 0.1 + 0.2 / 0.5],
                                             [-0.4, 0.3 + 0.2 / -0.4]])
        if with_jacobian:
            assert np.isnan(J[1]).all()
            assert np.array_equal(J[0], [[1.0, 0.0], [-0.2 / 0.25, 1.0]])


def test_a_closed_form_member_that_leaves_the_box_fails_alone(monkeypatch):
    tr = build_normal_coordinates(classify_corpus("oscillator-scrambled"))
    fld = tr.stages[0].fld
    assert straighten._lie_series(fld) is not None
    z = np.repeat(tr.z0[None], 3, axis=0)
    s = np.array([0.2, 40.0, -0.2])
    for with_jacobian in (False, True):
        ends, J, failures = integrate_flows(fld, z, s, with_jacobian,
                                            tr.chart)
        _, _, want = integrated(monkeypatch, fld, z, s, with_jacobian,
                                tr.chart)
        assert list(failures) == list(want) == [1]
        assert str(failures[1]) == str(want[1]) == \
            "flow left the sampling box (beyond the allowed slack)"
        assert np.isnan(ends[1]).all() and np.isfinite(ends[[0, 2]]).all()


def test_the_lie_series_is_bounded_and_tried_once(monkeypatch):
    ch = Chart(["x", "y", "w"], [(-1, 1)] * 3)
    # X^3 z = 0: closed form; X^4 z = 0 but X^3 z != 0: beyond LIE_DEPTH
    assert straighten.LIE_DEPTH == 3
    assert straighten._lie_series(
        VectorField(ch, [parse("1"), parse("x"), ZERO]))[0] == 2
    deep = VectorField(ch, [parse("1"), parse("x"), parse("x^2")])
    assert straighten._lie_series(deep) is None
    # X^2 z = 0, but X z holds more than LIE_TERMS terms: the next level is
    # not formed
    wide = VectorField(ch, [ZERO, ZERO, parse(" + ".join(
        f"x^{k}*y" for k in range(straighten.LIE_TERMS + 1)))])
    directional = []
    real = VectorField.directional
    monkeypatch.setattr(VectorField, "directional", lambda self, f: (
        directional.append(1) or real(self, f)))
    assert straighten._lie_series(wide) is None
    assert directional == []
    # a failed attempt is paid once, and the last allowed level is formed
    # only up to its first component that does not vanish: X^2 z = (w, x, y)
    # whole, then X^3 z_1 = x
    other = VectorField(ch, [parse("y"), parse("w"), parse("x")])
    assert straighten._lie_series(other) is None
    tried = len(directional)
    assert tried == 3 + 1
    assert straighten._lie_series(other) is None
    assert len(directional) == tried


# -- numeric basis transport ----------------------------------------------------

def transported(fld, z, s):
    """(chart block, transport matrix) at the end of the flow of a
    transported fibre field from (z, identity) over s."""
    n = math.isqrt(fld.chart.dim - len(z))
    end = flow(fld, tuple(z) + tuple(np.eye(n).ravel()), s)
    return end[:len(z)], end[len(z):].reshape(n, n)


def test_transport_identity_when_mixing_vanishes():
    rep = classify_corpus("quadratic-demo")
    fields = transported_fibre_fields(rep.extended, rep.bracket_coeffs.w)
    for z in [(0.2, 0.4), (-0.5, 0.9), (0.8, -1.0)]:
        _, A = transported(fields[0], z, 0.3)
        assert np.max(np.abs(A - np.eye(1))) < 1e-10


def test_transport_matches_closed_form():
    # V = (1+y^2) dy, F = y dx: the transported scalar is 1/(1+y^2)
    plane = Chart(["x", "y"], [(-1.2, 1.2), (-1.2, 1.2)])
    prob = SecondOrderProblem(
        plane, VectorField(plane, [y, ZERO]),
        Frame(plane, [VectorField(plane, [ZERO, parse("1 + y^2")])]),
    )
    ef = build_extended_frame(prob)
    fld, = transported_fibre_fields(ef, bracket_coefficients(ef).w)
    for x0, s in [(0.0, 0.5), (0.7, -0.8), (-0.3, 1.1)]:
        z, A = transported(fld, (x0, 0.0), s)
        want = 1.0 / (1.0 + z[1] ** 2)
        assert abs(A[0, 0] - want) < 1e-8


def test_transport_identity_routh():
    rep = classify_corpus("routh-abelian")
    fields = transported_fibre_fields(rep.extended, rep.bracket_coeffs.w)
    z = (0.3, -0.2, 0.5, 0.1, 1.0)
    for fld in fields:
        _, A = transported(fld, z, 0.2)
        assert np.max(np.abs(A - np.eye(2))) < 1e-10


# -- transforms -----------------------------------------------------------------

def mapped(tr, params):
    """The point of one parameter row, its failure raised."""
    z, _, failures = tr.map_batch([params])
    if failures:
        raise failures[0]
    return z[0]


def stencil(tr, node):
    """(F in the final chart, final coordinates) at one node, its failure
    raised."""
    values, final, failures = tr.field_in_final_chart([node])
    if failures:
        raise failures[0]
    return values[0], final[0]


def test_unscrambled_sode_transform_is_translation():
    plane = Chart(["x", "y"], [(-1.2, 1.2), (-1.2, 1.2)])
    prob = SecondOrderProblem(
        plane, VectorField(plane, [y, parse("x*y^2 - y + 1")]),
        Frame(plane, [coordinate_field(plane, "y")]),
    )
    rep = classify(prob)
    tr = build_normal_coordinates(rep)
    z0 = tr.z0
    for params in [(0.1, 0.2), (-0.3, 0.4), (0.25, -0.45)]:
        got = mapped(tr, params)
        assert np.max(np.abs(got - (z0 + np.array(params)))) < 1e-9


def test_oscillator_transform_against_inverse_scramble():
    rep = classify_corpus("oscillator-scrambled")
    tr = build_normal_coordinates(rep)
    # the constructed x coordinate is the plain x shifted by the base point,
    # and the constructed fibre coordinate is the plain velocity
    x0 = tr.z0[0]
    for params in [(0.2, 0.3), (-0.4, 0.5), (0.45, -0.35)]:
        z = mapped(tr, params)
        x_true, u_true = z[0], z[1] - z[0] ** 2
        fin, fc = stencil(tr, params)
        assert abs((x_true - x0) - fc[0]) < 1e-8
        assert abs(u_true - fc[1]) < 1e-8
        assert abs(fin[0] - fc[1]) < 1e-7          # xdot = y
        assert abs(fin[1] - (-x_true)) < 1e-7      # force from the oracle


def test_oscillator_residuals_on_grid():
    rep = classify_corpus("oscillator-scrambled")
    tr = build_normal_coordinates(rep)
    res = pushforward_residuals(tr, grid_points=10)
    assert res.node_count == 100
    assert res.max_structural_residual < 1e-6
    assert res.max_jacobian_gap < 1e-5
    assert res.fibre_min_sv > 1e-6
    assert res.flagged_nodes == 0


def test_jacobian_routes_agree_on_every_grid_node():
    rep = classify_corpus("oscillator-scrambled")
    tr = build_normal_coordinates(rep)
    nodes = grid(10, ext=0.5, m=2)
    _, J, failures = tr.map_batch(nodes)
    assert not failures
    Jfd, fd_failures = tr.jacobian_fd(nodes)
    assert not fd_failures
    for Jv, Jf in zip(J, Jfd):
        scale = max(1.0, float(np.max(np.abs(Jv))))
        assert float(np.max(np.abs(Jv - Jf))) / scale < 1e-5


def test_timedep_residuals_and_time_row():
    rep = classify_corpus("timedep-scrambled")
    tr = build_normal_coordinates(rep)
    res = pushforward_residuals(tr, grid_points=6)
    assert res.max_structural_residual < 1e-6
    fin, fc = stencil(tr, [0.15, -0.2, 0.1])
    assert abs(fin[0] - 1.0) < 1e-6               # time flows at unit rate
    assert abs(fin[1] - fc[2]) < 1e-6             # xdot = y


def test_time_dependent_with_extra_parameter():
    # dt + y dx - x dy with a spectator coordinate p, pushed through the
    # shear (t, p, x, y) -> (t, p + t^2, x + p^2, y); the constructed chart
    # needs one slice direction beyond the flow-time coordinate
    ch = Chart(["s1", "s2", "s3", "s4"], [(-1, 1)] * 4)
    X = "(s3 - (s2 - s1^2)^2)"
    F = VectorField(ch, [
        parse("1"),
        parse("2*s1"),
        parse("s4"),
        parse(f"-{X}"),
    ])
    prob = SecondOrderProblem(ch, F, Frame(ch, [coordinate_field(ch, "s4")]))
    rep = classify(prob)
    assert rep.classification == CASE2
    assert rep.parameter_count == 2
    tr = build_normal_coordinates(rep)
    assert tr.param_names[:2] == ["t2", "t1"]  # extra slice applied innermost
    res = pushforward_residuals(tr, grid_points=4)
    assert res.max_structural_residual < 1e-6
    fin, fc = stencil(tr, [0.2, 0.1, -0.15, 0.25])
    assert abs(fin[0]) < 1e-6          # spectator parameter never moves
    assert abs(fin[1] - 1.0) < 1e-6    # time flows at unit rate
    assert abs(fin[2] - fc[3]) < 1e-6


def test_routh_parameter_row_is_static():
    rep = classify_corpus("routh-abelian")
    tr = build_normal_coordinates(rep)
    res = pushforward_residuals(tr, grid_points=3)
    assert res.max_t_residual < 1e-8   # mu never moves
    assert res.max_structural_residual < 1e-6


def test_fibre_coefficients_decrease_linearly_along_fibres():
    # V_i(b^j) = -delta^j_i in the adapted basis: evaluating the W-part
    # coefficients of F along a fibre flow is linear in the fibre time
    from sodekit.expressions import compile_exprs
    for name in ("oscillator-scrambled", "routh-abelian"):
        rep = classify_corpus(name)
        ef = rep.extended
        chart = ef.chart
        b_fn = compile_exprs([normalize(b) for b in rep.f_w_coefficients],
                             chart.names)
        z = np.array(chart.center())
        if name == "routh-abelian":
            z = np.array([0.2, -0.1, 0.3, 0.4, 1.0])
        b0 = values_at(b_fn, z)
        for i, v in enumerate(ef.vbasis):
            for s in (0.2, -0.35):
                moved = flow(v, z, s)
                bs = values_at(b_fn, moved)
                expected = b0.copy()
                expected[i] -= s
                assert np.max(np.abs(bs - expected)) < 1e-6


def test_straighten_then_analyze_idempotence():
    # sample the final-chart force on a grid, fit a polynomial surrogate,
    # and classify the surrogate dynamics: the verdict must be reproduced
    rep = classify_corpus("oscillator-scrambled")
    tr = build_normal_coordinates(rep)
    axis = np.linspace(-0.4, 0.4, 5)
    values, final, failures = tr.field_in_final_chart(
        list(itertools.product(axis, repeat=2)))
    assert len(values) == 25 and failures == {}
    rows, rhs = [], []
    for fin, (xx, yy) in zip(values, final):
        rows.append([1.0, xx, yy, xx * xx, xx * yy, yy * yy])
        rhs.append(fin[1])
    coeffs, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    fit_residual = float(np.max(np.abs(np.array(rows) @ coeffs - rhs)))
    assert fit_residual < 1e-6
    names = ["1", "x", "y", "x^2", "x*y", "y^2"]
    from fractions import Fraction
    terms = " + ".join(
        f"({Fraction(c).limit_denominator(10**6)})*{n}"
        for c, n in zip(coeffs, names) if abs(c) > 1e-7
    )
    plane = Chart(["x", "y"], [(-0.4, 0.4), (-0.4, 0.4)])
    surrogate = SecondOrderProblem(
        plane, VectorField(plane, [y, parse(terms)]),
        Frame(plane, [coordinate_field(plane, "y")]),
    )
    rep2 = classify(surrogate)
    assert rep2.classification == rep.classification == CASE1


def reparam_fibre(names=("x", "u")):
    """V = du, F = (u + u^2/4) dx on [-1, 1]^2: the fibre coordinate is
    y = u + u^2/4, and normalization leaves du as it is."""
    ch = Chart(list(names), [(-1.0, 1.0), (-1.0, 1.0)])
    fibre = Sym(names[1])
    prob = SecondOrderProblem(
        ch, VectorField(ch, [fibre + fibre * fibre / 4, ZERO]),
        Frame(ch, [coordinate_field(ch, names[1])]),
    )
    rep = classify(prob)
    assert rep.adaptation.mode == "numeric"
    return rep


def test_straighten_through_numeric_adaptation():
    # full pipeline over a basis that needs the transport: the fibre flows
    # carry the transported basis matrix as extra coordinates
    tr = build_normal_coordinates(reparam_fibre())
    assert len(tr.metadata()["base_point"]) == 2
    residuals = pushforward_residuals(tr)
    assert residuals.grid_shape == (10, 10)
    assert residuals.flagged_nodes == 0
    assert residuals.max_structural_residual < 1e-5   # the default tolerance
    params = [(0.15, 0.2), (-0.2, -0.3)]
    z, J, failures = tr.map_batch(params)
    assert not failures
    assert (np.linalg.cond(J) < 1e3).all()
    final, _, _, failures = tr.final_coords(params)
    assert not failures
    # the pushforward of F = (u + u^2/4) d/dx, solved here from map_batch's
    # (z, J)
    f = np.array([[p[1] + p[1] ** 2 / 4, 0.0] for p in z])
    v = np.linalg.solve(J, f[..., None])[..., 0]
    assert np.max(np.abs(v[:, 0] - final[:, 1])) < 1e-12  # definitionally equal
    assert tr.fibre_jacobian_min_sv(np.zeros(2)) > 1e-6


def test_transport_coordinates_never_clash_with_the_chart():
    # the chart takes the first-choice name of the transport entry a^1_1
    tr = build_normal_coordinates(reparam_fibre(("x", "a11")))
    extended = tr.stages[-1].fld.chart.names
    assert extended[:2] == ("x", "a11") and len(set(extended)) == 3
    assert pushforward_residuals(tr).max_structural_residual < 1e-5


def reparam_fibre_pair():
    """n = 2: V = (du1, du2), F = (u1 + u1^2/4, u2 + u1*u2/4, 0, 0), with
    w^k_ij != 0 for i != j."""
    rep = classify_corpus("reparam-fibre-pair")
    assert rep.adaptation.mode == "numeric"
    assert rep.bracket_coeffs.w[0][1][1] != ZERO
    return rep


def test_numeric_adaptation_with_two_fibre_directions():
    tr = build_normal_coordinates(reparam_fibre_pair())
    residuals = pushforward_residuals(tr, grid_points=3)
    assert residuals.flagged_nodes == 0
    assert residuals.max_structural_residual < 1e-5


def test_path_dependent_transport_is_a_numeric_failure():
    # spoiled mixing coefficients: the transported fields no longer commute
    rep = reparam_fibre_pair()
    rep.bracket_coeffs.w[0][1][0] = Num(1)
    with pytest.raises(NumericFailure, match="path dependent"):
        build_normal_coordinates(rep)


def test_straighten_requires_locus_point():
    ch = Chart(["x", "y"], [(-1, 1), (2.0, 3.0)])  # fibre box excludes y = 0
    prob = SecondOrderProblem(
        ch, VectorField(ch, [y, ZERO]),
        Frame(ch, [coordinate_field(ch, "y")]),
    )
    rep = classify(prob)
    assert rep.classification == CASE1
    assert not rep.zero_section_points
    assert "cross-section not found in box" in rep.warnings
    with pytest.raises(NumericFailure, match="cross-section"):
        build_normal_coordinates(rep)


# -- the grid walk ----------------------------------------------------------------

def timedep_transform():
    return build_normal_coordinates(classify_corpus("timedep-scrambled"))


def count_members(monkeypatch, tr):
    """Count the members and calls of integrate_flows per stage of tr:
    returns the two lists, filled as the transform's maps run."""
    stage_of = {id(st.fld): k for k, st in enumerate(tr.stages)}
    members = [0] * tr.m
    calls = [0] * tr.m
    real = straighten.integrate_flows

    def counting(fld, z, s, *args, **kwargs):
        members[stage_of[id(fld)]] += len(z)
        calls[stage_of[id(fld)]] += 1
        return real(fld, z, s, *args, **kwargs)

    monkeypatch.setattr(straighten, "integrate_flows", counting)
    return members, calls


def grid(g, ext=0.3, m=3):
    """The nodes of the grid of g points per axis on [-ext, ext]^m, C order."""
    return straighten._mesh([np.linspace(-ext, ext, g)] * m)


def test_grid_loop_integrates_each_stage_once_per_prefix(monkeypatch):
    tr = timedep_transform()
    g, m = 6, tr.m
    nodes = grid(g)
    members, calls = count_members(monkeypatch, tr)
    z, J, failures = tr.map_batch(nodes)
    assert len(z) == g ** m
    assert members == [g ** (k + 1) for k in range(m)]
    assert calls == [-(-g ** (k + 1) // straighten.FLOW_ROWS)
                     for k in range(m)]
    monkeypatch.undo()
    # the order of the rows changes nothing: reversed, they share the same
    # prefixes; and a row maps as it does alone
    zr, Jr, reversed_failures = tr.map_batch(nodes[::-1])
    assert failures == reversed_failures == {}
    assert np.array_equal(z, zr[::-1]) and np.array_equal(J, Jr[::-1])
    for k in range(0, g ** m, 37):
        zk, Jk, _ = tr.map_batch(nodes[k:k + 1])
        assert np.array_equal(z[k], zk[0]) and np.array_equal(J[k], Jk[0])


def test_rows_that_share_a_prefix_share_its_flows(monkeypatch):
    # rows in no particular order: shared prefixes, an exact duplicate, a
    # prefix whose flow leaves the box (|x1| = 5 on the box [-1, 1]^3) and a
    # row whose last flow alone leaves it
    tr = timedep_transform()
    rows = np.array([
        [0.1, -0.2, 0.3],
        [0.1, -0.2, -0.1],     # shares (0.1, -0.2) with row 0
        [0.1, 5.0, 0.2],       # its stage-1 flow leaves the box
        [-0.2, -0.2, 0.3],     # x1 of row 0 after another t1: no sharing
        [0.1, 5.0, -0.3],      # shares the failing prefix of row 2
        [0.1, -0.2, 0.3],      # row 0 again
        [0.1, -0.2, 5.0],      # its last flow leaves the box
        [0.1, 0.25, 0.0],      # shares (0.1,) only
    ])
    members, _ = count_members(monkeypatch, tr)
    z, J, failures = tr.map_batch(rows)
    monkeypatch.undo()
    # stage 0 flows t1 = 0.1 and -0.2; stage 1 the four distinct (t1, x1);
    # the last stage one member per row whose prefix did not fail
    assert members == [2, 4, len(rows) - 2]
    assert sorted(failures) == [2, 4, 6]
    assert failures[2] is failures[4]
    for k, row in enumerate(rows):
        zk, Jk, alone = tr.map_batch(row[None])
        if k in failures:
            assert list(alone) == [0]
            assert str(alone[0]) == str(failures[k]) == \
                "flow left the sampling box (beyond the allowed slack)"
            assert np.isnan(z[k]).all() and np.isnan(J[k]).all()
        else:
            assert alone == {}
            assert np.array_equal(z[k], zk[0]) and np.array_equal(J[k], Jk[0])
    assert np.array_equal(z[5], z[0]) and np.array_equal(J[5], J[0])


def inject_failures(monkeypatch, fld, rows_of_call):
    """Make the Jacobian-carrying integrate_flows calls of `fld` fail at
    rows_of_call[c], the rows of the c-th such call; returns the sizes of
    those calls."""
    sizes = []
    real = straighten.integrate_flows

    def flaky(f, z, s, *args, **kwargs):
        ends, jac, failures = real(f, z, s, *args, **kwargs)
        if f is fld and jac is not None:
            for row in rows_of_call.get(len(sizes), ()):
                failures[row] = NumericFailure("injected")
                ends[row] = jac[row] = np.nan
            sizes.append(len(z))
        return ends, jac, failures

    monkeypatch.setattr(straighten, "integrate_flows", flaky)
    return sizes


def test_a_failing_prefix_flags_exactly_its_nodes(monkeypatch):
    tr = timedep_transform()
    g, m = 6, tr.m
    nodes = grid(g)
    want_z, want_J, _ = tr.map_batch(nodes)
    prefix, child = 2, 4     # the stage-1 prefix (axis[2], axis[4]) fails
    # stage 1 is one call whose rows are the prefixes in C order
    stage_1_calls = inject_failures(monkeypatch, tr.stages[1].fld,
                                    {0: [prefix * g + child]})
    z, J, failures = tr.map_batch(nodes)
    assert stage_1_calls == [g * g]
    span = g ** (m - 2)
    first = (prefix * g + child) * span
    flagged = list(range(first, first + span))
    assert sorted(failures) == flagged
    assert {str(err) for err in failures.values()} == {"injected"}
    assert np.isnan(z[flagged]).all() and np.isnan(J[flagged]).all()
    kept = np.setdiff1d(np.arange(g ** m), flagged)
    assert np.array_equal(z[kept], want_z[kept])
    assert np.array_equal(J[kept], want_J[kept])
    monkeypatch.undo()
    # in the residual walk the cross-check's shifted rows add prefixes of
    # their own, so the failing member is told by its start and its time
    axis = np.linspace(-0.3, 0.3, g)
    start, _, _ = integrate_flows(tr.stages[0].fld, tr.start[None],
                                  [axis[prefix]], chart=tr.chart)
    real = straighten.integrate_flows

    def flaky(fld, z, s, *args, **kwargs):
        ends, jac, failures = real(fld, z, s, *args, **kwargs)
        if fld is tr.stages[1].fld:
            hit = (z == start).all(axis=1) & (s == axis[child])
            for row in np.flatnonzero(hit):
                failures[int(row)] = NumericFailure("injected")
                ends[row] = jac[row] = np.nan
        return ends, jac, failures

    monkeypatch.setattr(straighten, "integrate_flows", flaky)
    res = pushforward_residuals(tr, grid_points=g, extent=0.3)
    assert res.flagged_nodes == span
    assert res.node_count == g ** m - span


def test_a_level_that_fails_as_a_whole_is_a_numeric_failure(monkeypatch):
    # every member of stage 0's guarded calls of more than one member fails
    # (the transform's own one-row map at its base point does not; stage 0
    # is F, but no cross-check F-flow is reached once the grid has failed);
    # an even g puts no 0 on the axis, so every member moves
    tr = timedep_transform()
    g, m = 4, tr.m
    stage_0 = tr.stages[0].fld.components
    real = straighten.integrate_flows

    def flaky(fld, z, s, with_jacobian=False, chart=None):
        ends, jac, failures = real(fld, z, s, with_jacobian, chart)
        if fld.components == stage_0 and chart is not None and len(z) > 1:
            for row in range(len(z)):
                failures[row] = NumericFailure("injected")
                ends[row] = np.nan
        return ends, jac, failures

    monkeypatch.setattr(straighten, "integrate_flows", flaky)
    z, J, failures = tr.map_batch(grid(g))
    assert sorted(failures) == list(range(g ** m))
    assert {str(err) for err in failures.values()} == {"injected"}
    assert np.isnan(z).all() and np.isnan(J).all()
    with pytest.raises(NumericFailure,
                       match="^every grid node was flagged or failed$"):
        pushforward_residuals(tr, grid_points=g, extent=0.3)
    report, code = run_command("straighten", corpus_get("timedep-scrambled"),
                               {"grid": g})
    assert code == EXIT_NUMERIC
    assert report["error"] == "every grid node was flagged or failed"


def test_no_grid_call_holds_more_than_flow_rows(monkeypatch):
    # g = 11: the last level's 1331 members span two calls, and the two
    # members either side of the boundary between them fail
    tr = timedep_transform()
    g, m, cap = 11, tr.m, straighten.FLOW_ROWS
    nodes = grid(g)
    want_z, want_J, _ = tr.map_batch(nodes)
    sizes = []
    real = straighten.integrate_flows

    def counting(fld, z, s, *args, **kwargs):
        sizes.append(len(z))
        return real(fld, z, s, *args, **kwargs)

    monkeypatch.setattr(straighten, "integrate_flows", counting)
    last_calls = inject_failures(monkeypatch, tr.stages[-1].fld,
                                 {0: [cap - 1], 1: [0]})
    z, J, failures = tr.map_batch(nodes)
    assert max(sizes) <= cap
    assert last_calls == [cap, g ** m - cap]
    assert sorted(failures) == [cap - 1, cap]
    kept = np.setdiff1d(np.arange(g ** m), [cap - 1, cap])
    assert np.isnan(z[[cap - 1, cap]]).all()
    assert np.array_equal(z[kept], want_z[kept])
    assert np.array_equal(J[kept], want_J[kept])


def test_residual_grid_memory_stays_bounded():
    # 5^6 nodes of the sheared n = 3 instance: the level walk holds at most
    # FLOW_ROWS members' integrator state at once
    manifest = INSTANCES["n3-sheared"]()
    tr = build_normal_coordinates(classify(SecondOrderProblem(
        manifest.chart, manifest.vector_field(),
        Frame(manifest.chart, manifest.frame_fields()))))
    tracemalloc.start()
    try:
        res = pushforward_residuals(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.grid_shape == (5,) * 6 and res.flagged_nodes == 0
    assert peak < 32 * 2 ** 20


def test_threads_sharing_a_transform_get_single_threaded_residuals():
    tr = timedep_transform()
    expected = pushforward_residuals(tr, grid_points=6).as_dict()
    results = {}
    errors = []

    def work(i):
        try:
            results[i] = pushforward_residuals(tr, grid_points=6).as_dict()
        except Exception as err:  # reported by the assertion below
            errors.append(err)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 8
    assert all(got == expected for got in results.values())


# -- batched stencil -------------------------------------------------------------

def log_force_transform():
    # F = (y, log(x + 2)) is defined only for x > -2; the transform is a
    # translation of the plane, so a node's point is z0 + params
    plane = Chart(["x", "y"], [(-1.2, 1.2), (-1.2, 1.2)])
    prob = SecondOrderProblem(
        plane, VectorField(plane, [y, parse("log(x + 2)")]),
        Frame(plane, [coordinate_field(plane, "y")]),
    )
    return build_normal_coordinates(classify(prob))


def test_one_node_stencil_agrees_with_the_node_inside_a_batch():
    tr = timedep_transform()
    nodes = np.array([[0.15, -0.2, 0.1], [-0.1, 0.25, -0.2], [0.0, 0.1, 0.3]])
    values, final, failures = tr.field_in_final_chart(nodes)
    assert failures == {}
    for k, node in enumerate(nodes):
        fin, fc = stencil(tr, node)
        assert np.max(np.abs(fin - values[k])) < 1e-9
        assert np.max(np.abs(fc - final[k])) < 1e-9
        alone_values, alone_final, _ = tr.field_in_final_chart(node[None])
        assert np.array_equal(alone_values[0], values[k])
        assert np.array_equal(alone_final[0], final[k])


def test_failing_members_are_flagged_and_spoil_no_other_member():
    tr = log_force_transform()
    x0 = tr.z0[0]
    good = np.array([[0.1, 0.2], [-0.3, 0.1], [0.2, -0.3]])
    nodes = np.array([
        good[0],
        [6.0, 0.0],                # leaves the box in the node's own map
        good[1],
        [-2.5 - x0, 0.3],          # log of a negative value at the node
        good[2],
        [-1.999 - x0, -0.3],       # crosses x = -2 along the stencil flow
    ])
    values, final, failures = tr.field_in_final_chart(nodes)
    assert [str(failures[k]) if k in failures else None
            for k in range(len(nodes))] == [
        None,
        "flow left the sampling box (beyond the allowed slack)",
        None,
        "field hit a domain error: log of a nonpositive value in "
        "'log(x + 2)'",
        None,
        "flow hit a domain error: log of a nonpositive value in "
        "'log(x + 2)'",
    ]
    assert np.isnan(values[1::2]).all()
    alone_values, alone_final, _ = tr.field_in_final_chart(good)
    assert np.array_equal(values[::2], alone_values)
    assert np.array_equal(final[::2], alone_final)
    with pytest.raises(NumericFailure, match="log of a nonpositive value"):
        stencil(tr, nodes[3])


# -- report's shared stencil ------------------------------------------------------

def stencil_targets(tr, node):
    """The points of M that Newton's method inverts for the stencil of one
    node: the ends of the F-flow from the node's point."""
    z, _, _ = tr.map_batch([node])
    shifts = straighten.STENCIL_STEP * np.array([-2.0, -1.0, 1.0, 2.0])
    ends, _, _ = integrate_flows(tr.F, np.repeat(z, 4, axis=0), shifts,
                                 chart=tr.chart)
    return ends


def fail_inversions(monkeypatch, targets):
    """Make CoordinateTransform.invert fail each member whose target is one
    of `targets`; returns the number of such members per call."""
    hits = []
    real = straighten.CoordinateTransform.invert

    def flaky(self, z_targets, guesses, mapped=None):
        params, z, J, failures = real(self, z_targets, guesses, mapped)
        hit = (np.abs(z_targets[:, None] - targets[None]) < 1e-9).all(
            axis=2).any(axis=1)
        for k in np.flatnonzero(hit):
            failures[int(k)] = NumericFailure("injected")
            params[k] = z[k] = J[k] = np.nan
        hits.append(int(hit.sum()))
        return params, z, J, failures

    monkeypatch.setattr(straighten.CoordinateTransform, "invert", flaky)
    return hits


def test_report_inverts_all_its_stencil_points_at_once(monkeypatch):
    # the cross-check's points, in one call; the fit's straight-line
    # stencil inverts nothing
    sizes = []
    real = straighten.CoordinateTransform.invert

    def counting(self, z_targets, guesses, mapped=None):
        sizes.append(len(z_targets))
        return real(self, z_targets, guesses, mapped)

    monkeypatch.setattr(straighten.CoordinateTransform, "invert", counting)
    report, code = run_command("report", corpus_get("timedep-scrambled"))
    assert code == 0 and "quadratic_coefficients" in report
    assert sizes == [4 * report["residuals"]["crosscheck_nodes"]]
    sizes.clear()
    report, code = run_command("quadratic", corpus_get("timedep-scrambled"))
    assert code == 0 and "quadratic_coefficients" in report
    assert sizes == [0]


def test_the_cross_check_starts_from_the_grid_walk(monkeypatch):
    # the fit nodes ride in the grid walk, after the grid and before the
    # fibre check's rows and the cross-check candidates' shifted rows; the
    # next walk maps the cross-check's Newton guesses and the fit's line
    # rows, and no later walk (the Newton steps) receives a fit node, a
    # line row or a cross-checked grid node
    tr = timedep_transform()
    g, ext = 10, 0.3
    fit = straighten.quadratic_nodes(tr)
    batches = []
    real_batch = straighten.CoordinateTransform.map_batch

    def recording_batch(self, params):
        batches.append(np.array(params, dtype=float).reshape(-1, self.m))
        return real_batch(self, params)

    monkeypatch.setattr(straighten.CoordinateTransform, "map_batch",
                        recording_batch)
    res = pushforward_residuals(tr, grid_points=g, extent=ext, fit_nodes=fit)
    nodes = grid(g, ext)
    picked = nodes[::len(nodes) // straighten.CROSSCHECK_CAP]
    assert res.crosscheck_nodes == len(picked)
    assert np.array_equal(batches[0], np.concatenate(
        [nodes, fit, tr.fibre_rows(np.zeros(tr.m)),
         straighten.fd_rows(picked)]))
    guesses = 4 * len(picked)
    assert len(batches[1]) == guesses + 4 * len(fit)
    line = batches[1][guesses:]
    rows = np.concatenate(batches[2:])
    for walked in (picked, fit, line):
        assert not (rows[:, None] == walked[None]).all(axis=2).any()
    monkeypatch.undo()
    # the line rows p + s v, v the field in the parameter chart at p
    _, _, v, _ = tr.final_coords(fit)
    s = straighten.STENCIL_STEP * np.array([-2.0, -1.0, 1.0, 2.0])
    assert np.array_equal(line.reshape(len(fit), 4, tr.m),
                          fit[:, None] + s[:, None] * v[:, None])
    values, final, failures = res.fit_stencil
    assert failures == {}
    alone_values, alone_final, _ = tr.field_in_final_chart(fit, fit=len(fit))
    assert np.array_equal(values, alone_values)
    assert np.array_equal(final, alone_final)


def test_the_shifted_rows_of_the_grid_walk_give_jacobian_fd_alone(
        monkeypatch):
    # the finite-difference Jacobians of the cross-checked nodes come from
    # their shifted rows in the grid walk, bit for bit as jacobian_fd
    # walking them on its own
    tr = timedep_transform()
    seen = []
    real = straighten.CoordinateTransform.jacobian_fd

    def recording(self, nodes, mapped=None):
        out = real(self, nodes, mapped)
        seen.append((np.array(nodes), mapped is not None, out))
        return out

    monkeypatch.setattr(straighten.CoordinateTransform, "jacobian_fd",
                        recording)
    res = pushforward_residuals(tr, grid_points=10, extent=0.3)
    monkeypatch.undo()
    [(nodes, from_walk, (Jf, failures))] = seen
    assert from_walk and failures == {}
    assert len(nodes) == res.crosscheck_nodes > 1
    alone, alone_failures = tr.jacobian_fd(nodes)
    assert alone_failures == {}
    assert np.array_equal(Jf, alone)


def test_each_extra_row_of_the_grid_walk_is_mapped_as_alone():
    # extra rows follow the g^m grid nodes in one walk, sharing prefixes with
    # them where they can; a row whose fibre flow leaves the box (|s3| > 3 on
    # the box [-1, 1]^3) fails alone
    tr = timedep_transform()
    g = 4
    nodes = grid(g)
    rows = np.concatenate([straighten.quadratic_nodes(tr)[::7],
                           [[0.1, -0.2, 5.0]],
                           tr.fibre_rows(np.zeros(tr.m))])
    bad = len(rows) - 2 * tr.n - 1
    want_z, want_J, _ = tr.map_batch(nodes)
    alone_z, alone_J, alone_failures = tr.map_batch(rows)
    z, J, failures = tr.map_batch(np.concatenate([nodes, rows]))
    assert len(z) == g ** tr.m + len(rows)
    assert list(failures) == [g ** tr.m + bad]
    assert list(alone_failures) == [bad]
    assert str(failures[g ** tr.m + bad]) == str(alone_failures[bad]) == \
        "flow left the sampling box (beyond the allowed slack)"
    assert np.array_equal(z[:g ** tr.m], want_z)
    assert np.array_equal(J[:g ** tr.m], want_J)
    assert np.isnan(z[g ** tr.m + bad]).all()
    assert np.isnan(J[g ** tr.m + bad]).all()
    kept = [k for k in range(len(rows)) if k != bad]
    assert np.array_equal(z[g ** tr.m:][kept], alone_z[kept])
    assert np.array_equal(J[g ** tr.m:][kept], alone_J[kept])


@pytest.mark.parametrize("name, calls", [("timedep-scrambled", 4),
                                         ("oscillator-scrambled", 1)])
def test_the_residual_stage_walks_its_jacobian_rows_once(monkeypatch, name,
                                                         calls):
    # one walk for grid, fit, fibre and shifted rows: report makes as many
    # solve_ivp calls as straighten, which fits nothing.  Only the stages
    # whose Lie series does not end call it: t1 = F of timedep, once per
    # walk (the grid walk and two Newton walks, the fit's line rows riding
    # in the first), and, in both, the stencil's F-flow
    counts = count_solves(monkeypatch)
    for command in ("report", "straighten"):
        counts.clear()
        _, code = run_command(command, corpus_get(name))
        assert code == 0
        assert len(counts) == calls, command


def line_rows(tr, node):
    """The rows of the straight-line stencil of one fit node: node + s v,
    v the field in the parameter chart at the node."""
    _, _, v, _ = tr.final_coords([node])
    shifts = straighten.STENCIL_STEP * np.array([-2.0, -1.0, 1.0, 2.0])
    return node + shifts[:, None] * v


def fail_rows(monkeypatch, rows):
    """Make CoordinateTransform.map_batch fail each parameter row that is one
    of `rows`; returns the number of such rows per call."""
    hits = []
    real = straighten.CoordinateTransform.map_batch

    def flaky(self, params):
        z, J, failures = real(self, params)
        hit = (np.abs(np.asarray(params)[:, None] - rows[None]) < 1e-9).all(
            axis=2).any(axis=1)
        for k in np.flatnonzero(hit):
            failures[int(k)] = NumericFailure("injected")
            z[k] = J[k] = np.nan
        hits.append(int(hit.sum()))
        return z, J, failures

    monkeypatch.setattr(straighten.CoordinateTransform, "map_batch", flaky)
    return hits


def test_a_failing_fit_node_fails_the_fit_alone(monkeypatch):
    manifest = corpus_get("timedep-scrambled")
    clean, _ = run_command("report", manifest)
    tr = timedep_transform()
    node = straighten.quadratic_nodes(tr)[7]     # (-ext, 0, 0): no grid node
    hits = fail_rows(monkeypatch, line_rows(tr, node))
    report, code = run_command("report", manifest)
    # the walks: the base point, the grid, then the line rows, which ride in
    # the cross-check's first Newton walk; quadratic maps the fit nodes, then
    # their line rows
    assert hits[:3] == [0, 0, 4] and sum(hits) == 4
    hits.clear()
    alone, _ = run_command("quadratic", manifest)
    assert hits == [0, 0, 4]
    assert report["warnings"] == alone["warnings"] == [
        "coefficient extraction failed: injected"]
    assert "quadratic_coefficients" not in report
    assert report["residuals"] == clean["residuals"]
    assert code == 0


def test_a_failing_cross_check_node_leaves_the_fit_alone(monkeypatch):
    manifest = corpus_get("timedep-scrambled")
    clean, _ = run_command("report", manifest)
    tr = timedep_transform()
    g, ext = 10, clean["residuals"]["extent"][0]
    axis = np.linspace(-ext, ext, g)
    # the second cross-checked node, grid index 1000 // CROSSCHECK_CAP = 83:
    # no fit node
    node = axis[[0, 8, 3]]
    hits = fail_inversions(monkeypatch, stencil_targets(tr, node))
    report, _ = run_command("report", manifest)
    assert hits == [4]
    assert report["quadratic_coefficients"] == clean["quadratic_coefficients"]
    assert report["residuals"]["crosscheck_nodes"] == \
        clean["residuals"]["crosscheck_nodes"] - 1
    assert "warnings" not in report


def test_the_fit_recovers_the_known_force_of_quadratic_demo():
    # F = (y, x y^2 - y + 1), V = d/dy: the chart translates by the base
    # point, so in the normal chart the force is G ytilde^2 + P ytilde + Q
    # with G = x, the base parameter plus the base point's x, P = -1, Q = 1
    tr = build_normal_coordinates(classify_corpus("quadratic-demo"))
    out = straighten.extract_quadratic_coefficients(tr)
    assert len(out["per_base_node"]) == 3
    for entry in out["per_base_node"]:
        G = entry["quadratic"]["G[0][00]"]
        assert abs(G - entry["base"][0] - tr.z0[0]) < 1e-10
        assert abs(entry["linear"]["P[0][0]"] + 1.0) < 1e-10
        assert abs(entry["constant"]["Q[0]"] - 1.0) < 1e-10
    assert out["max_fit_residual"] < 1e-12


def test_extraction_reports_the_first_failing_node(monkeypatch):
    tr = timedep_transform()
    real = tr.map_batch
    calls = []

    def flaky(params):
        z, J, failures = real(params)
        calls.append(len(params))
        if len(calls) == 1:     # the nodes' own maps: node 7 fails here
            failures[7] = NumericFailure("node 7 failed first in time")
        elif len(calls) == 2:   # the line rows: node 3 fails
            failures[4 * 3] = NumericFailure("node 3 failed in its stencil")
        for k in failures:
            z[k] = np.nan
            J[k] = np.nan
        return z, J, failures

    monkeypatch.setattr(tr, "map_batch", flaky)
    with pytest.raises(NumericFailure, match="node 3 failed in its stencil"):
        straighten.extract_quadratic_coefficients(tr)


def test_extraction_integrates_each_stage_once_per_walk(monkeypatch):
    # two walks, the fit nodes and then their line rows: no F-flow and no
    # Newton step, so only t1 = F, the one stage whose Lie series does not
    # end, calls solve_ivp, once per walk
    tr = timedep_transform()
    solves = []
    maps = []
    real_solve = straighten.solve_ivp
    real_map = tr.map_batch

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    def counting_map(*args, **kwargs):
        maps.append(len(args[0]))
        return real_map(*args, **kwargs)

    monkeypatch.setattr(straighten, "solve_ivp", counting_solve)
    monkeypatch.setattr(tr, "map_batch", counting_map)
    out = straighten.extract_quadratic_coefficients(tr)
    assert len(out["per_base_node"]) == 9
    nodes = len(straighten.quadratic_nodes(tr))
    assert maps == [nodes, 4 * nodes]
    integrated = [st for st in tr.stages
                  if straighten._lie_series(st.fld) is None]
    assert len(solves) == len(maps) * len(integrated) == 2


def test_jacobian_fd_integrates_each_stage_once(monkeypatch):
    tr = timedep_transform()
    nodes = np.array([[0.15, -0.2, 0.1], [-0.1, 0.25, -0.2], [0.05, 0.1, 0.3]])
    h = straighten.FD_STEP

    def flow_map(params):   # each row alone; the states of its flows,
        z = tr.z0           # stage 0 without a Jacobian, as in the walk
        for k, (st, s) in enumerate(zip(tr.stages, params)):
            out = flow(st.fld, z, s, chart=tr.chart, with_jacobian=k > 0)
            z = out[0] if k > 0 else out
        return z

    want = np.array([(flow_map(nodes[0] + h * e) - flow_map(nodes[0] - h * e))
                     / (2 * h) for e in np.eye(tr.m)]).T
    alone = [tr.jacobian_fd(node[None])[0][0] for node in nodes]
    members = []
    real = straighten.solve_ivp

    def counting(fun, t_span, y0, **kwargs):
        members.append(len(y0))
        return real(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(straighten, "solve_ivp", counting)
    got, failures = tr.jacobian_fd(nodes)
    assert not failures
    # the 2m shifted rows of a node: node +- h e_j; at stage k < m - 1 they
    # share 2k + 3 distinct prefixes (the node's own and its +- h shifts up
    # to k), the last stage has one member per row, and only stages whose
    # Lie series does not end reach solve_ivp.  The rows are mapped with
    # their Jacobians, as in the residual walk, and the quotient reads only
    # the points
    flowing = [k for k, st in enumerate(tr.stages)
               if straighten._lie_series(st.fld) is None]
    assert 0 < len(flowing) <= len(tr.stages)
    assert members == [len(nodes) * (2 * k + 3 if k < tr.m - 1 else 2 * tr.m)
                       for k in flowing]
    assert all(np.array_equal(got[k], alone[k]) for k in range(len(nodes)))
    assert np.array_equal(got[0], want)
    _, Jv, _ = tr.map_batch(nodes)
    assert np.max(np.abs(got - Jv)) < 1e-8


def test_stage_0_flows_without_variational_equations(monkeypatch):
    # stage 0 flows from the fixed start, so no walk integrates its flow
    # Jacobian: each of its solve_ivp calls carries L-wide states, and its
    # points are those of the plain flow, bit for bit
    tr = timedep_transform()
    L = len(tr.start)
    stage_0 = tr.stages[0].fld
    assert straighten._lie_series(stage_0) is None
    walked, widths = [], []
    field_of_call = []
    real_flows, real_solve = straighten.integrate_flows, straighten.solve_ivp

    def recording(fld, z, s, with_jacobian=False, chart=None):
        field_of_call.append(fld)
        out = real_flows(fld, z, s, with_jacobian, chart)
        if fld is stage_0 and chart is tr.chart:
            walked.append((np.array(z), np.array(s), with_jacobian, out[0]))
        return out

    def solving(fun, t_span, y0, **kwargs):
        if field_of_call[-1] is stage_0:
            widths.append(np.shape(y0)[1])
        return real_solve(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(straighten, "integrate_flows", recording)
    monkeypatch.setattr(straighten, "solve_ivp", solving)
    pushforward_residuals(tr, grid_points=4, extent=0.3,
                          fit_nodes=straighten.quadratic_nodes(tr))
    monkeypatch.undo()
    # the grid walk, the cross-check's F-flow and its two Newton walks
    assert len(widths) == 4 and set(widths) == {L}
    walks = [call for call in walked if (call[0] == tr.start).all()]
    assert len(walks) == 3
    for z, s, with_jacobian, ends in walks:
        assert not with_jacobian
        alone, _, failures = integrate_flows(stage_0, z, s)
        assert not failures and np.array_equal(ends, alone)


# the pendulum in the fibre coordinate u of y = u + u^2/4: a numeric
# adaptation whose first flow, the x-stage, is integrated
WALK_INSTANCES = {**INSTANCES, "reparam-pendulum": lambda: make_manifest(
    "reparam-pendulum", ["x", "u"], ["u + u^2/4", "-sin(x)/(1 + u/2)"],
    [["0", "1"]])}


@pytest.mark.parametrize("name",
                         ["timedep-scrambled", "osc-sin", "reparam-pendulum"])
def test_walk_jacobian_agrees_with_finite_differences(name):
    # the instances whose stage 0 is integrated: its column is the field at
    # the stage's end, and the later stages' variational equations carry it
    m = WALK_INSTANCES[name]()
    tr = build_normal_coordinates(classify(SecondOrderProblem(
        m.chart, m.vector_field(), Frame(m.chart, m.frame_fields()))))
    assert straighten._lie_series(tr.stages[0].fld) is None
    nodes = straighten._mesh(
        [np.linspace(-0.5, 0.5, 2) * straighten.default_extent(tr.chart)]
        * tr.m)
    _, J, failures = tr.map_batch(nodes)
    Jf, fd_failures = tr.jacobian_fd(nodes)
    assert not failures and not fd_failures
    assert np.max(np.abs(J - Jf)) < 1e-8


def test_a_failing_shifted_row_drops_only_its_node(monkeypatch):
    tr = build_normal_coordinates(classify_corpus("oscillator-scrambled"))
    nodes = np.array([[0.1, 0.2], [-0.3, 0.1], [0.2, -0.3]])
    want, _ = tr.jacobian_fd(nodes)
    full = pushforward_residuals(tr, grid_points=10)
    # the second shifted row of the second node fails, alone and in the
    # grid walk (the second cross-checked node there)
    fail_rows(monkeypatch, straighten.fd_rows(nodes)[[2 * tr.m + 1]])
    got, failures = tr.jacobian_fd(nodes)
    assert list(failures) == [1] and str(failures[1]) == "injected"
    assert np.isnan(got[1]).all()
    assert np.array_equal(got[[0, 2]], want[[0, 2]])
    monkeypatch.undo()
    grid_nodes = grid(10, straighten.default_extent(tr.chart), tr.m)
    second = grid_nodes[len(grid_nodes) // straighten.CROSSCHECK_CAP]
    fail_rows(monkeypatch, straighten.fd_rows(second[None])[[1]])
    res = pushforward_residuals(tr, grid_points=10)
    assert full.crosscheck_nodes > 1
    assert res.crosscheck_nodes == full.crosscheck_nodes - 1
    assert res.max_jacobian_gap <= full.max_jacobian_gap
    assert res.max_crosscheck_residual == full.max_crosscheck_residual


def test_median_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in range(1, 40):
        values = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-12, 3)
        assert straighten._median(values).hex() == \
            float(np.median(values)).hex()
    assert math.isnan(straighten._median(np.array([0.5, np.nan, 0.25])))


def test_a_straighten_run_imports_no_numpy_ma():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = ("import sys\n"
            "from sodekit.cli import main\n"
            "code = main(['straighten', '--corpus', 'timedep-scrambled'])\n"
            "print(code, 'numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False"


def stack_with_conditions(conds, m=3, seed=0):
    """Matrices U diag(s) V^T with random orthogonal U, V and singular values
    from 1 down to 1/c, one for each condition number c."""
    rng = np.random.default_rng(seed)
    out = []
    for c in conds:
        U, _ = np.linalg.qr(rng.standard_normal((m, m)))
        V, _ = np.linalg.qr(rng.standard_normal((m, m)))
        out.append(U @ np.diag(np.geomspace(1.0, 1.0 / c, m)) @ V.T)
    return np.array(out)


def cond_mask(J):
    """np.linalg.cond(J[k]) <= COND_LIMIT member by member, False where the
    SVD does not converge (a NaN entry)."""
    mask = []
    for matrix in J:
        try:
            mask.append(bool(np.linalg.cond(matrix) <= straighten.COND_LIMIT))
        except np.linalg.LinAlgError:
            mask.append(False)
    return np.array(mask)


def test_well_conditioned_flags_as_cond_does(monkeypatch):
    conds = [1.0, 0.4e8, 0.6e8, 0.99e8, 1.01e8, 1e12, 10.0]
    J = stack_with_conditions(conds)
    singular = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
    with_nan = np.eye(3)
    with_nan[1, 2] = np.nan
    mixed = np.concatenate([J, [singular, with_nan]])
    want = cond_mask(mixed)
    assert want.tolist() == [True] * 4 + [False] * 2 + [True, False, False]
    assert np.array_equal(straighten._well_conditioned(mixed), want)
    assert np.array_equal(straighten._well_conditioned(J), cond_mask(J))
    # a long stack: the singular and the NaN member spoil no other member
    long = np.concatenate([
        stack_with_conditions(10.0 ** np.linspace(0, 12, 2 * 1024), seed=1),
        mixed, stack_with_conditions([3.0] * 50, seed=2)])
    assert np.array_equal(straighten._well_conditioned(long), cond_mask(long))
    # what the determinant bound cannot clear goes to the SVD, without a
    # RuntimeWarning: 1e-70 I6, whose determinant underflows to 0 (a NaN
    # bound), and 1e110 I3, whose determinant and power overflow (inf/inf);
    # both have condition 1.  The identity beside each clears by the bound.
    edge = [np.array([1e-70 * np.eye(6), np.eye(6)]),
            np.array([1e110 * np.eye(3), 2 * np.eye(3)])]
    assert [cond_mask(stack).tolist() for stack in edge] == [[True, True]] * 2
    svd_rows = []
    real = np.linalg.cond

    def counting(x, *args, **kwargs):
        svd_rows.append(len(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting)
    for stack in edge:
        svd_rows.clear()
        assert straighten._well_conditioned(stack).tolist() == [True, True]
        assert svd_rows == [1]


def test_grid_nodes_are_flagged_without_an_svd(monkeypatch):
    rows = []
    real = np.linalg.cond

    def counting(x, *args, **kwargs):
        rows.append(1 if np.ndim(x) == 2 else len(x))
        return real(x, *args, **kwargs)

    for name, g in (("timedep-scrambled", 14), ("routh-abelian", 5)):
        tr = build_normal_coordinates(classify_corpus(name))
        monkeypatch.setattr(np.linalg, "cond", counting)
        res = pushforward_residuals(tr, grid_points=g)
        monkeypatch.undo()
        assert res.flagged_nodes == 0 and res.node_count == g ** tr.m
        assert rows == []


def test_solve_each_bisects_to_its_singular_members(monkeypatch):
    rng = np.random.default_rng(5)
    K, m = 4096, 3
    A = rng.standard_normal((K, m, m)) + 4 * np.eye(m)
    b = rng.standard_normal((K, m))
    singular = [17, 2048, 4000]
    A[singular] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]
    points = rng.standard_normal((K, m))
    # the member-by-member loop it replaces
    want = np.full_like(b, np.nan)
    for k in range(K):
        if k not in singular:
            want[k] = np.linalg.solve(A[k], b[k])
    calls = []
    real = np.linalg.solve

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    x, failures = straighten._solve_each(A, b, "singular", points)
    monkeypatch.undo()
    assert np.array_equal(x, want, equal_nan=True)
    assert list(failures) == singular
    assert all(str(err) == "singular" and err.last_point == tuple(points[k])
               for k, err in failures.items())
    # each singular member costs one failing solve per level of halving
    assert len(calls) <= 1 + 2 * len(singular) * math.ceil(math.log2(K))
    x, failures = straighten._solve_each(A[:5], b[:5], "singular", points)
    assert failures == {} and np.array_equal(x, want[:5])
