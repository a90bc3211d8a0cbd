import itertools
import math

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
from sodekit.straighten import (
    CrossSection, NumericFailure, build_normal_coordinates,
    default_cross_section, integrate_flow, integrate_flow_with_jacobian,
    pushforward_residuals, solve_basis_ode,
)

x, y = syms("x y")


def classify_corpus(name):
    m = corpus_get(name)
    prob = SecondOrderProblem(m.chart, m.vector_field(),
                              Frame(m.chart, m.frame_fields()))
    return classify(prob)


# -- flows ---------------------------------------------------------------------

def test_translation_flow():
    ch = Chart(["x", "y"], [(-2, 2), (-2, 2)])
    end = integrate_flow(coordinate_field(ch, "x"), (0.0, 0.0), 1.0)
    assert np.allclose(end, [1.0, 0.0], atol=1e-12)


def test_rotation_quarter_turn():
    ch = Chart(["x", "y"], [(-2, 2), (-2, 2)])
    rot = VectorField(ch, [y, normalize(-x)])
    end = integrate_flow(rot, (1.0, 0.0), math.pi / 2)
    assert np.max(np.abs(end - np.array([0.0, -1.0]))) < 1e-8


def test_flow_reversibility():
    ch = Chart(["x", "y"], [(-2, 2), (-2, 2)])
    fld = VectorField(ch, [y, parse("x*y - 1")])
    z = np.array([0.3, 0.7])
    there = integrate_flow(fld, z, 0.8)
    back = integrate_flow(fld, there, -0.8)
    assert np.max(np.abs(back - z)) < 1e-8


def test_flow_group_law_on_corpus_fields():
    from sodekit.corpus import corpus_list
    for name in corpus_list():
        m = corpus_get(name)
        F = m.vector_field()
        z = np.array([lo + 0.55 * (hi - lo) for lo, hi in m.chart.box])
        base = integrate_flow(F, z, 0.0)
        assert np.max(np.abs(base - z)) == 0.0
        one_hop = integrate_flow(F, z, 0.5)
        two_hops = integrate_flow(F, integrate_flow(F, z, 0.2), 0.3)
        assert np.max(np.abs(one_hop - two_hops)) < 1e-9, name
        back = integrate_flow(F, one_hop, -0.5)
        assert np.max(np.abs(back - z)) < 1e-9, name


def test_variational_jacobian_rotation():
    ch = Chart(["x", "y"], [(-2, 2), (-2, 2)])
    rot = VectorField(ch, [y, normalize(-x)])
    _, J = integrate_flow_with_jacobian(rot, (1.0, 0.0), math.pi / 2)
    assert np.max(np.abs(J - np.array([[0.0, 1.0], [-1.0, 0.0]]))) < 1e-8


def test_flow_domain_error_reports_last_point():
    ch = Chart(["x"], [(0.01, 1.0)])
    fld = VectorField(ch, [normalize(Num(-1) / Sym("x"))])
    with pytest.raises(NumericFailure) as err:
        integrate_flow(fld, (0.5,), 1.0)
    assert err.value.last_point is not None


def test_flow_box_exit_rejected_with_chart_guard():
    ch = Chart(["x", "y"], [(-1, 1), (-1, 1)])
    fld = coordinate_field(ch, "x")
    with pytest.raises(NumericFailure):
        integrate_flow(fld, (0.0, 0.0), 5.0, chart=ch)


# -- numeric basis transport ----------------------------------------------------

def test_transport_identity_when_mixing_vanishes():
    rep = classify_corpus("quadratic-demo")
    ef = rep.extended
    bc = rep.bracket_coeffs
    A = solve_basis_ode(bc, default_cross_section(ef), ef.vbasis)
    for z in [(0.2, 0.4), (-0.5, 0.9), (0.8, -1.0)]:
        assert np.max(np.abs(A(z) - np.eye(1))) < 1e-10


def test_transport_matches_closed_form():
    # V = (1+y^2) dy, F = y dx: the transported scalar is 1/(1+y^2)
    plane = Chart(["x", "y"], [(-1.2, 1.2), (-1.2, 1.2)])
    prob = SecondOrderProblem(
        plane, VectorField(plane, [y, ZERO]),
        Frame(plane, [VectorField(plane, [ZERO, parse("1 + y^2")])]),
    )
    ef = build_extended_frame(prob)
    bc = bracket_coefficients(ef)
    section = CrossSection(base_point=(0.0, 0.0),
                           directions=np.array([[1.0], [0.0]]))
    A = solve_basis_ode(bc, section, ef.vbasis)
    for z in [(0.0, 0.5), (0.7, -0.8), (-0.3, 1.1)]:
        want = 1.0 / (1.0 + z[1] ** 2)
        assert abs(A(z)[0, 0] - want) < 1e-8


def test_transport_identity_routh():
    rep = classify_corpus("routh-abelian")
    ef = rep.extended
    bc = rep.bracket_coeffs
    A = solve_basis_ode(bc, default_cross_section(ef), ef.vbasis)
    z = (0.3, -0.2, 0.5, 0.1, 1.0)
    assert np.max(np.abs(A(z) - np.eye(2))) < 1e-10


# -- transforms -----------------------------------------------------------------

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
        got = tr.map_params(np.array(params))
        assert np.max(np.abs(got - (z0 + np.array(params)))) < 1e-9


def test_oscillator_transform_against_inverse_scramble():
    rep = classify_corpus("oscillator-scrambled")
    tr = build_normal_coordinates(rep)
    # the constructed x coordinate is the plain x shifted by the base point,
    # and the constructed fibre coordinate is the plain velocity
    x0 = tr.z0[0]
    for params in [(0.2, 0.3), (-0.4, 0.5), (0.45, -0.35)]:
        z = tr.map_params(np.array(params))
        x_true, u_true = z[0], z[1] - z[0] ** 2
        fc = tr.final_coords(np.array(params))
        assert abs((x_true - x0) - fc[0]) < 1e-8
        assert abs(u_true - fc[1]) < 1e-8
        fin = tr.field_in_final_chart(np.array(params))
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
    for xv in np.linspace(-0.5, 0.5, 10):
        for yv in np.linspace(-0.5, 0.5, 10):
            node = np.array([xv, yv])
            _, Jv = tr.map_with_jacobian(node)
            Jf = tr.jacobian_fd(node)
            scale = max(1.0, float(np.max(np.abs(Jv))))
            assert float(np.max(np.abs(Jv - Jf))) / scale < 1e-5


def test_timedep_residuals_and_time_row():
    rep = classify_corpus("timedep-scrambled")
    tr = build_normal_coordinates(rep)
    res = pushforward_residuals(tr, grid_points=6)
    assert res.max_structural_residual < 1e-6
    node = np.array([0.15, -0.2, 0.1])
    fin = tr.field_in_final_chart(node)
    assert abs(fin[0] - 1.0) < 1e-6               # time flows at unit rate
    assert abs(fin[1] - tr.final_coords(node)[2]) < 1e-6  # xdot = y


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
    node = np.array([0.2, 0.1, -0.15, 0.25])
    fin = tr.field_in_final_chart(node)
    assert abs(fin[0]) < 1e-6          # spectator parameter never moves
    assert abs(fin[1] - 1.0) < 1e-6    # time flows at unit rate
    assert abs(fin[2] - tr.final_coords(node)[3]) < 1e-6


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
        b0 = np.array(b_fn(tuple(z)))
        for i, v in enumerate(ef.vbasis):
            for s in (0.2, -0.35):
                moved = integrate_flow(v, z, s)
                bs = np.array(b_fn(tuple(moved)))
                expected = b0.copy()
                expected[i] -= s
                assert np.max(np.abs(bs - expected)) < 1e-6


def test_straighten_then_analyze_idempotence():
    # sample the final-chart force on a grid, fit a polynomial surrogate,
    # and classify the surrogate dynamics: the verdict must be reproduced
    rep = classify_corpus("oscillator-scrambled")
    tr = build_normal_coordinates(rep)
    xs = np.linspace(-0.4, 0.4, 5)
    ys = np.linspace(-0.4, 0.4, 5)
    rows, rhs = [], []
    for xv in xs:
        for yv in ys:
            fin = tr.field_in_final_chart(np.array([xv, yv]))
            fc = tr.final_coords(np.array([xv, yv]))
            xx, yy = fc[0], fc[1]
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


def test_straighten_through_numeric_adaptation():
    # full pipeline over a transcendental basis rescaling: the fibre flows
    # use the numerically transported basis (slow per node, so only a few
    # nodes are checked rather than a grid)
    from sodekit.expressions import exp as exp_
    ch = Chart(["x", "y"], [(-1.0, 1.0), (-1.0, 1.0)])
    prob = SecondOrderProblem(
        ch, VectorField(ch, [y, ZERO]),
        Frame(ch, [VectorField(ch, [ZERO, exp_(y)])]),
    )
    rep = classify(prob)
    assert rep.adaptation.mode == "numeric"
    tr = build_normal_coordinates(rep)
    for params in [(0.15, 0.2), (-0.2, -0.3)]:
        v, cond = tr.pushforward_components(np.array(params))
        assert cond < 1e3
        ytilde = tr.final_coords(np.array(params))[1]
        assert abs(v[0] - ytilde) < 1e-12  # definitionally equal
    assert tr.fibre_jacobian_min_sv(np.zeros(2)) > 1e-6


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


# -- stage state of the transform ----------------------------------------------

def timedep_transform():
    return build_normal_coordinates(classify_corpus("timedep-scrambled"))


def assert_same_maps(got, want):
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_stage_state_gives_the_same_maps_in_any_order():
    axis = np.linspace(-0.3, 0.3, 3)
    nodes = [np.array(p) for p in itertools.product(axis, repeat=3)]
    in_c_order = timedep_transform()
    want = [in_c_order.map_with_jacobian(node) for node in nodes]
    shuffled = timedep_transform()
    for i in np.random.default_rng(0).permutation(len(nodes)):
        assert_same_maps(shuffled.map_with_jacobian(nodes[i]), want[i])


def test_changing_a_returned_map_leaves_the_stage_state_alone():
    tr, fresh = timedep_transform(), timedep_transform()
    node = np.array([0.1, -0.2, 0.15])
    z, J = tr.map_with_jacobian(node)
    z[:] = 7.0
    J[:] = 7.0
    for params in (node, node + [0, 0, 0.1], node + [0, 0.1, 0]):
        assert_same_maps(tr.map_with_jacobian(params),
                         fresh.map_with_jacobian(params))


def test_a_failing_stage_leaves_no_stale_state(monkeypatch):
    tr, fresh = timedep_transform(), timedep_transform()
    bad = 0.25
    real = straighten.integrate_flow_with_jacobian

    def flaky(fld, z, s, settings=straighten.DEFAULT_SETTINGS):
        if fld is tr.stages[1].fld and s == bad:
            raise NumericFailure("injected")
        return real(fld, z, s, settings)

    monkeypatch.setattr(straighten, "integrate_flow_with_jacobian", flaky)
    tr.map_with_jacobian([0.1, 0.2, 0.3])
    for params in ([0.1, bad, 0.3], [0.1, bad, -0.3]):
        with pytest.raises(NumericFailure, match="injected"):
            tr.map_with_jacobian(params)
    for params in ([0.1, 0.2, 0.3], [0.1, 0.2, -0.1], [0.1, -0.2, 0.3],
                   [-0.1, 0.2, 0.3]):
        assert_same_maps(tr.map_with_jacobian(params),
                         fresh.map_with_jacobian(params))


def test_grid_loop_integrates_each_stage_once_per_prefix(monkeypatch):
    tr = timedep_transform()
    m = tr.m
    sizes = []
    real = straighten.solve_ivp

    def counting(fun, t_span, y0, **kwargs):
        sizes.append(len(y0))
        return real(fun, t_span, y0, **kwargs)

    def skip_crosscheck(params):
        raise NumericFailure("cross-check left out")

    monkeypatch.setattr(straighten, "solve_ivp", counting)
    monkeypatch.setattr(tr, "field_in_final_chart", skip_crosscheck)
    monkeypatch.setattr(tr, "fibre_jacobian_min_sv", lambda params: 1.0)
    res = pushforward_residuals(tr, grid_points=6)
    assert res.node_count == 6 ** 3 and res.crosscheck_nodes == 0
    assert sizes.count(m + m * m) <= 6 + 6 ** 2


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
    batch = tr.field_in_final_chart(nodes)
    assert batch.failures == [None] * len(nodes)
    for k, node in enumerate(nodes):
        assert np.max(np.abs(tr.field_in_final_chart(node)
                             - batch.values[k])) < 1e-9
        assert np.max(np.abs(tr.final_coords(node) - batch.final[k])) < 1e-9


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
    batch = tr.field_in_final_chart(nodes)
    assert [str(err) if err else None for err in batch.failures] == [
        None,
        "flow left the sampling box (beyond the allowed slack)",
        None,
        "field hit a domain error: log of a nonpositive value in "
        "'log(x + 2)'",
        None,
        "flow hit a domain error: log of a nonpositive value in "
        "'log(x + 2)'",
    ]
    assert np.isnan(batch.values[1::2]).all()
    alone = tr.field_in_final_chart(good)
    assert np.max(np.abs(batch.values[::2] - alone.values)) < 1e-12
    assert np.array_equal(batch.final[::2], alone.final)
    with pytest.raises(NumericFailure, match="log of a nonpositive value"):
        tr.field_in_final_chart(nodes[3])


def test_extraction_reports_the_first_failing_node(monkeypatch):
    tr = timedep_transform()
    real = tr.map_batch
    injected = {"done": False}

    def flaky(params, guard=False):
        z, J, failures = real(params, guard)
        if guard:      # the nodes' own maps: node 7 fails here
            failures[7] = NumericFailure("node 7 failed first in time")
        elif not injected["done"]:   # the first Newton step: node 3 fails
            injected["done"] = True
            failures[4 * 3] = NumericFailure("node 3 failed in its stencil")
        for k in failures:
            z[k] = np.nan
            J[k] = np.nan
        return z, J, failures

    monkeypatch.setattr(tr, "map_batch", flaky)
    with pytest.raises(NumericFailure, match="node 3 failed in its stencil"):
        straighten.extract_quadratic_coefficients(tr)


def test_extraction_integrates_each_stage_once_per_newton_step(monkeypatch):
    tr = timedep_transform()
    solves = []
    maps = []
    real_solve = straighten.solve_ivp
    real_map = tr.map_batch

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    def counting_map(*args, **kwargs):
        maps.append(1)
        return real_map(*args, **kwargs)

    monkeypatch.setattr(straighten, "solve_ivp", counting_solve)
    monkeypatch.setattr(tr, "map_batch", counting_map)
    out = straighten.extract_quadratic_coefficients(tr)
    assert len(out["per_base_node"]) == 9
    newton_iterations = len(maps) - 1     # the first map is the nodes' own
    assert 0 < len(solves) <= (newton_iterations + 2) * len(tr.stages)
