"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import numpy as np

from sodekit.expressions import (
    ZERO, compile_exprs, evaluate, normalize, syms,
)
from sodekit.geometry import Chart, Frame, VectorField, coordinate_field
from sodekit.analysis import (
    CASE1, CASE2, SecondOrderProblem, bracket_coefficients,
    build_extended_frame, check_regularity, classify,
)
from sodekit.parser import parse
from sodekit.corpus import corpus_get, corpus_list
from sodekit.runner import report_to_json, run_command
from sodekit.sampling import box_points
from sodekit.straighten import (
    build_normal_coordinates, integrate_flows, pushforward_residuals,
    transported_fibre_fields,
)
from tests.conftest import euler_lagrange_reduced_field
from tests.connection_oracle import (
    FieldConnections, apply_tangent_structure, nijenhuis_check,
)

x, y = syms("x y")

REQUIRED_SUITES = (
    "w_mix_integrability",   # flatness identities of the mixing system
    "nijenhuis_torsion",     # from the field oracle
    "projector_identities",  # from the field oracle; includes (L_F S)^2 = id,
                             # P_H + P_V = id and projector idempotence
    "torsion",
)


def _finish(num: int, name: str, failures: list, elapsed: float, limit: float):
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE-{num} {name}: {status} "
          f"({elapsed:.1f}s / limit {limit:.0f}s)")
    assert not failures, f"criterion {num} ({name}): {failures}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s"


def _corpus_problem(name):
    m = corpus_get(name)
    return SecondOrderProblem(m.chart, m.vector_field(),
                              Frame(m.chart, m.frame_fields()))


def test_criterion_1_identity_suite():
    start = time.perf_counter()
    failures = []
    for name in corpus_list():
        rep = classify(_corpus_problem(name))
        if not rep.ok:
            failures.append(f"{name}: classification {rep.classification}")
            continue
        suites = {s.name: s for s in rep.identity_suites}
        # on the coefficient tables these hold by construction, so they are
        # checked on whole fields
        for suite in (nijenhuis_check(rep.extended),
                      FieldConnections(rep.extended).projector_identities()):
            suites[suite.name] = suite
        for wanted in REQUIRED_SUITES:
            suite = suites.get(wanted)
            if suite is None:
                failures.append(f"{name}: suite {wanted} missing")
            elif not suite.ok:
                failures.append(f"{name}: suite {wanted} failed "
                                f"(residual {suite.max_residual})")
            elif not suite.exact:
                # every corpus instance is rational, so the verdicts must be
                # structural zeros, not merely small residuals
                failures.append(f"{name}: suite {wanted} not exact")
    _finish(1, "identity-suite", failures, time.perf_counter() - start, 30.0)


def test_criterion_2_regularity_discrimination():
    start = time.perf_counter()
    failures = []
    plane = Chart(["x", "y"], [(-1.2, 1.2), (-1.2, 1.2)])
    good = SecondOrderProblem(
        plane, VectorField(plane, [y, parse("x*y^2 + y")]),
        Frame(plane, [coordinate_field(plane, "y")]),
    )
    if check_regularity(good)["status"] != "pass":
        failures.append("the second-order shape failed the span condition")
    bad = SecondOrderProblem(
        plane, VectorField(plane, [x, ZERO]),
        Frame(plane, [coordinate_field(plane, "y")]),
    )
    verdict = check_regularity(bad)
    if verdict["status"] != "fail":
        failures.append("x d/dx went undetected")
    if verdict["rank"]["claimed_rank"] >= 2:
        failures.append("witness rank missing")
    _finish(2, "regularity-discrimination", failures,
            time.perf_counter() - start, 1.0)


def test_criterion_3_basis_adaptation_oracle():
    start = time.perf_counter()
    failures = []
    plane = Chart(["x", "y"], [(-1.2, 1.2), (-1.2, 1.2)])
    prob = SecondOrderProblem(
        plane, VectorField(plane, [y, ZERO]),
        Frame(plane, [VectorField(plane, [ZERO, parse("1 + y^2")])]),
    )
    # the normalization V.B^-1 of the given basis V = (1 + y^2) dy
    rep = classify(prob)
    info = rep.adaptation
    a_fn = compile_exprs([info.matrix[0][0]], plane.names)
    points = box_points(plane.box, 64, seed=11)
    values, errors = a_fn(np.array(points).T)
    if errors:
        failures.append(f"normalizing rescaling fails at {len(errors)} points")
    for pt, a in zip(points, values[0]):
        want = 1.0 / (1.0 + pt[1] ** 2)
        if abs(a - want) >= 1e-8:
            failures.append(f"normalizing rescaling off at {pt}")
            break
    # the numeric transport of the given basis: the entry a carried along
    # the adapted fibre flow from (x, 0, 1)
    ef = build_extended_frame(prob)
    bc = bracket_coefficients(ef)
    carried, = transported_fibre_fields(ef, bc.w)
    ends, _, errs = integrate_flows(
        carried, [(0.3, 0.0, 1.0), (-0.8, 0.0, 1.0), (1.0, 0.0, 1.0)],
        [0.6, -0.9, 1.1])
    if errs:
        failures.append(f"numeric transport fails for {len(errs)} flows")
    for end in ends:
        want = 1.0 / (1.0 + end[1] ** 2)
        if abs(end[2] - want) >= 1e-8:
            failures.append(f"numeric transport off at {end[:2]}")
    if not (info.mode == "normalized" and rep.bracket_coeffs.w_all_zero()):
        failures.append("adapted brackets are not vertical")
    _finish(3, "basis-adaptation", failures, time.perf_counter() - start, 5.0)


def test_criterion_4_round_trip_autonomous():
    start = time.perf_counter()
    failures = []
    m = corpus_get("oscillator-scrambled")
    rep = classify(SecondOrderProblem(m.chart, m.vector_field(),
                                      Frame(m.chart, m.frame_fields())))
    if rep.classification != CASE1:
        failures.append(f"classified {rep.classification}")
    transform = build_normal_coordinates(rep)
    residuals = pushforward_residuals(transform, grid_points=10)
    if residuals.node_count != 100:
        failures.append("grid is not 10x10")
    if not residuals.max_structural_residual < 1e-6:
        failures.append(
            f"structural residual {residuals.max_structural_residual:.2e}"
        )
    inverse = [parse(t) for t in m.metadata["scramble"]["inverse"]]
    plain_force = parse(m.metadata["scramble"]["plain_field"][1])
    plain_names = m.metadata["scramble"]["plain_chart"]
    worst = 0.0
    axis = np.linspace(-0.5, 0.5, 10)
    nodes = np.array([[xv, yv] for xv in axis for yv in axis])
    points, _, map_failures = transform.map_batch(nodes)
    if map_failures:
        failures.append(f"map_batch failed at {sorted(map_failures)}")
    values, _, stencil_failures = transform.field_in_final_chart(nodes)
    if stencil_failures:
        failures.append("stencil failed at a checked node")
    for z, fin in zip(points, values):
        zmap = dict(zip(m.chart.names, z))
        plain_point = {
            n: evaluate(e, zmap) for n, e in zip(plain_names, inverse)
        }
        expected = evaluate(plain_force, plain_point)
        worst = max(worst, abs(fin[1] - expected))
    if not worst < 1e-5:
        failures.append(f"force mismatch {worst:.2e} vs the inverse-map oracle")
    _finish(4, "round-trip-autonomous", failures,
            time.perf_counter() - start, 60.0)


def test_criterion_5_round_trip_time_dependent():
    start = time.perf_counter()
    failures = []
    m = corpus_get("timedep-scrambled")
    rep = classify(SecondOrderProblem(m.chart, m.vector_field(),
                                      Frame(m.chart, m.frame_fields())))
    if rep.classification != CASE2:
        failures.append(f"classified {rep.classification}")
    transform = build_normal_coordinates(rep)
    residuals = pushforward_residuals(transform, grid_points=10)
    if not residuals.max_structural_residual < 1e-6:
        failures.append(
            f"structural residual {residuals.max_structural_residual:.2e}"
        )
    # spot-check the full component pattern (1, y, force) independently
    nodes = [[0.2, 0.1, -0.1], [-0.25, 0.3, 0.2]]
    values, finals, stencil_failures = transform.field_in_final_chart(nodes)
    if stencil_failures:
        failures.append("stencil failed at a checked node")
    for node, fin, final in zip(nodes, values, finals):
        if abs(fin[0] - 1.0) > 1e-6 or abs(fin[1] - final[2]) > 1e-6:
            failures.append(f"component pattern broken at {node}")
    _finish(5, "round-trip-time-dependent", failures,
            time.perf_counter() - start, 60.0)


def test_criterion_6_quadratic_criterion():
    start = time.perf_counter()
    failures = []
    rep_q = classify(_corpus_problem("quadratic-demo"))
    if rep_q.curvature.verdict != "quadratic":
        failures.append("quadratic-demo misjudged")
    if not all(
        c == ZERO
        for row in rep_q.curvature.components
        for col in row for cell in col for c in cell
    ):
        failures.append("quadratic-demo curvature is not a structural zero")
    rep_c = classify(_corpus_problem("cubic-demo"))
    if rep_c.curvature.verdict != "not_quadratic":
        failures.append("cubic-demo misjudged")
    elif not (rep_c.curvature.witness is not None
              and abs(rep_c.curvature.witness_value) > 0.1):
        failures.append("cubic-demo witness too small")
    _finish(6, "quadratic-criterion", failures,
            time.perf_counter() - start, 5.0)


def test_criterion_7_reduced_lagrangian_corpus():
    start = time.perf_counter()
    failures = []
    m = corpus_get("routh-abelian")
    rep = classify(SecondOrderProblem(m.chart, m.vector_field(),
                                      Frame(m.chart, m.frame_fields())))
    if rep.classification != CASE1:
        failures.append(f"classified {rep.classification}")
    if rep.parameter_count != 1:
        failures.append(f"parameter count {rep.parameter_count}")
    if normalize(m.field_components[4]) != ZERO:
        failures.append("momentum component of the field is not structurally 0")
    if rep.curvature.verdict != "quadratic":
        failures.append("quadratic verdict missing")
    oracle = euler_lagrange_reduced_field(m)
    shipped = [normalize(c) for c in m.field_components]
    points = np.array(box_points(m.chart.box, 100, seed=17)).T
    a, a_errors = compile_exprs(oracle, m.chart.names)(points)
    b, b_errors = compile_exprs(shipped, m.chart.names)(points)
    if a_errors or b_errors:
        failures.append("Euler-Lagrange fields fail to evaluate")
    worst = float(np.max(np.abs(a - b)))
    if not worst < 1e-8:
        failures.append(f"Euler-Lagrange oracle disagrees by {worst:.2e}")
    _finish(7, "reduced-lagrangian-corpus", failures,
            time.perf_counter() - start, 60.0)


def test_criterion_8_tangent_structure_on_the_field():
    start = time.perf_counter()
    failures = []
    plane = Chart(["x", "y"], [(-1.2, 1.2), (-1.2, 1.2)])
    prob = SecondOrderProblem(
        plane, VectorField(plane, [y, parse("x*y^2 - y + 1")]),
        Frame(plane, [coordinate_field(plane, "y")]),
    )
    dilation = VectorField(plane, [ZERO, y])
    for source, sf in (
            ("stage", classify(prob).s_of_f),
            ("field oracle",
             apply_tangent_structure(build_extended_frame(prob), prob.F))):
        residual = sf - dilation
        if not all(normalize(c) == ZERO for c in residual.components):
            failures.append(
                f"{source}: S(F) is not the fibre dilation field y d/dy")
    _finish(8, "tangent-structure-action", failures,
            time.perf_counter() - start, 1.0)


def test_criterion_9_deterministic_reports():
    start = time.perf_counter()
    failures = []
    for name in ("oscillator-scrambled", "routh-abelian"):
        manifest = corpus_get(name)
        r1, c1 = run_command("report", manifest)
        r2, c2 = run_command("report", manifest)
        del r1["timings"], r2["timings"]
        if report_to_json(r1).encode() != report_to_json(r2).encode():
            failures.append(f"{name}: reports differ byte-wise")
        if c1 != c2:
            failures.append(f"{name}: exit codes differ")
    _finish(9, "deterministic-reports", failures,
            time.perf_counter() - start, 120.0)
