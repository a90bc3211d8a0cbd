import random

import numpy as np
import pytest

from sodekit import geometry
from sodekit.expressions import Num, Sym, ZERO, differentiate, normalize, syms
from sodekit.geometry import (
    Chart, ChartMismatchError, Frame, FrameRankError, GeometryError,
    VectorField, coordinate_field, decompose_in_frame, frame_rank,
    is_involutive, lie_bracket,
)
from sodekit.parser import parse
from tests.conftest import random_polynomial, random_vector_field, values_at

x, y = syms("x y")


@pytest.fixture
def plane():
    return Chart(["x", "y"], [(-1.5, 1.5), (-1.5, 1.5)])


def test_chart_validation():
    with pytest.raises(GeometryError):
        Chart(["x", "x"], [(-1, 1), (-1, 1)])
    with pytest.raises(GeometryError):
        Chart(["x", "y"], [(-1, 1), (2, 2)])


def test_a_chart_carries_no_seed(plane):
    # the seed reaches sampling only as an argument, 0 when left out
    assert not hasattr(plane, "seed")
    with pytest.raises(TypeError):
        Chart(["x"], [(-1, 1)], seed=1)
    assert plane.sample(8) == plane.sample(8, 0) != plane.sample(8, 1)
    assert plane.probe().seed == 0


def test_bracket_of_shift_fields(plane):
    dy = coordinate_field(plane, "y")
    b = lie_bracket(dy, VectorField(plane, [y, ZERO]))
    assert b.components == (Num(1), ZERO)


def test_bracket_against_coordinate_formula(plane):
    f = parse("x*y^2 + y")
    F = VectorField(plane, [y, f])
    dy = coordinate_field(plane, "y")
    got = lie_bracket(F, dy)
    # [y dx + f dy, dy] = -dx - f_y dy, read off the coordinate formula
    from sodekit.expressions import differentiate
    expected = (normalize(Num(-1)), normalize(-differentiate(f, "y")))
    assert got.components == expected


def test_bracket_antisymmetry_diagonal(plane):
    X = VectorField(plane, [y * y, x * y])
    assert lie_bracket(X, X).components == (ZERO, ZERO)


def test_bracket_differentiates_only_along_nonzero_components(plane):
    # an API-built log(x - x) has no derivative; the zero field never asks
    # for it, as its directional derivative would not
    from sodekit.expressions import log
    X = VectorField(plane, [ZERO, ZERO])
    Y = VectorField(plane, [log(x - x), ZERO])
    assert lie_bracket(X, Y).components == (ZERO, ZERO)
    assert X.directional(Y.components[0]) == ZERO


def test_bracket_chart_mismatch(plane):
    other = Chart(["x", "y"], [(-2, 2), (-2, 2)])
    with pytest.raises(ChartMismatchError):
        lie_bracket(coordinate_field(plane, "x"),
                    coordinate_field(other, "y"))


def test_jacobi_identity_random_fields(plane):
    rng = random.Random(11)
    probe = plane.probe()
    for _ in range(6):
        X = random_vector_field(rng, plane)
        Y = random_vector_field(rng, plane)
        Z = random_vector_field(rng, plane)
        total = (lie_bracket(lie_bracket(X, Y), Z)
                 + lie_bracket(lie_bracket(Y, Z), X)
                 + lie_bracket(lie_bracket(Z, X), Y))
        assert all(normalize(c) == ZERO for c in total.components)


def test_leibniz_rule_random_scalar(plane):
    rng = random.Random(12)
    for _ in range(6):
        X = random_vector_field(rng, plane)
        Y = random_vector_field(rng, plane)
        f = random_polynomial(rng, plane.names)
        lhs = lie_bracket(X, Y.scaled(f))
        rhs = Y.scaled(X.directional(f)) + lie_bracket(X, Y).scaled(f)
        assert all(normalize(c) == ZERO
                   for c in (lhs - rhs).components)


def test_directional_differentiates_along_nonzero_components_only(
        plane, monkeypatch):
    # a derivative along a zero component would be formed and then dropped
    calls = []

    def recorded(f, name):
        calls.append(name)
        return differentiate(f, name)

    monkeypatch.setattr(geometry, "differentiate", recorded)
    f = parse("sin(x*y) + x^3*y")
    assert VectorField(plane, [ZERO, x]).directional(f) == normalize(
        parse("x*(x*cos(x*y) + x^3)"))
    assert calls == ["y"]


def test_frame_rank_full(plane):
    f = parse("x*y^2 + y")
    F = VectorField(plane, [y, f])
    dy = coordinate_field(plane, "y")
    W1 = lie_bracket(F, dy)
    report = frame_rank([dy, W1], plane, samples=64, seed=1)
    assert report.claimed_rank == 2
    assert report.constant_rank
    assert report.worst_conditioning > 0


def test_frame_rank_degenerate_pair(plane):
    dx = coordinate_field(plane, "x")
    report = frame_rank([dx, dx.scaled(x)], plane, samples=64, seed=1)
    assert report.claimed_rank == 1


def test_frame_rank_matches_a_loop_over_the_points(plane):
    F = VectorField(plane, [y, parse("x*y^2 + y")])
    dy = coordinate_field(plane, "y")
    fields = [dy, lie_bracket(F, dy), dy.scaled(parse("x - y"))]
    for frame in (fields[:2], fields[1:], fields):
        report = frame_rank(frame, plane, samples=32, seed=4)
        ranks, worst = [], np.inf
        for pt in plane.sample(32, 4):
            svals = np.linalg.svd(np.array([f.at(pt) for f in frame]).T,
                                  compute_uv=False)
            ranks.append(int((svals > 1e-9 * svals[0]).sum()))
            if ranks[-1] == len(frame):
                worst = min(worst, svals[-1])
        assert report.ranks == ranks
        assert report.worst_conditioning == (
            worst if np.isfinite(worst) else 0.0)


@pytest.mark.parametrize("force", ["1000000*y^2", "(x+y)^14"])
def test_frame_rank_does_not_depend_on_a_fields_scale(force):
    # det(dy, [F, dy]) = 1 everywhere, though |[F, dy]| reaches 1e5 or more
    square = Chart(["x", "y"], [(-1, 1), (-1, 1)])
    F = VectorField(square, [y, parse(force)])
    dy = coordinate_field(square, "y")
    W = lie_bracket(F, dy)
    report = frame_rank([dy, W], square)
    assert report.claimed_rank == 2 and report.constant_rank
    scaled = frame_rank([dy.scaled(Num(10 ** 12)), W], square)
    assert scaled.ranks == report.ranks
    # a zero field stays deficient, whatever the other's scale
    zero = frame_rank([W, VectorField(square, [ZERO, ZERO])], square)
    assert zero.claimed_rank == 1 and zero.constant_rank


def test_frame_rank_skips_points_with_non_finite_values():
    # exp(700*x)*exp(700*y) overflows to inf where x + y > 1.014
    square = Chart(["x", "y"], [(-1, 1), (-1, 1)])
    report = frame_rank([VectorField(square, [parse("exp(700*x)*exp(700*y)"),
                                              Num(1)]),
                         VectorField(square, [ZERO, Num(1)])], square)
    assert report.skipped_points == 10
    assert report.sample_count == 54
    assert report.claimed_rank == 2


def test_frame_rank_scrambled_oscillator_combined():
    # independent oracle: push u dx - x du through z1 = x, z2 = u + x^2 and
    # compare numerically with the corpus components
    chz = Chart(["z1", "z2"], [(-1.5, 1.5), (-1.5, 1.5)])
    F = VectorField(chz, [parse("z2 - z1^2"),
                          parse("-z1 + 2*z1*(z2 - z1^2)")])
    rng = random.Random(5)
    for _ in range(25):
        xv, uv = rng.uniform(-1, 1), rng.uniform(-1, 1)
        z = (xv, uv + xv * xv)
        jac = np.array([[1.0, 0.0], [2 * xv, 1.0]])
        pushed = jac @ np.array([uv, -xv])
        assert np.allclose(F.at(z), pushed, atol=1e-12)
    V = coordinate_field(chz, "z2")
    W1 = lie_bracket(F, V)
    report = frame_rank([V, W1], chz, samples=200, seed=0)
    assert report.claimed_rank == 2
    assert report.sample_count == 200
    assert report.constant_rank


def test_frame_eager_validation(plane):
    dx = coordinate_field(plane, "x")
    with pytest.raises(FrameRankError):
        Frame(plane, [dx, dx.scaled(x)])
    Frame(plane, [dx, dx.scaled(x)], validate=False)  # raw frames allowed


def test_decompose_in_frame_basis(plane):
    probe = plane.probe()
    dx = coordinate_field(plane, "x")
    dy = coordinate_field(plane, "y")
    dec = decompose_in_frame(dx, Frame(plane, [dx, dy]), probe)
    assert dec.ok and dec.exact
    assert dec.coefficients == (Num(1), ZERO)


def test_decompose_in_frame_w_element(plane):
    probe = plane.probe()
    f = parse("x*y^2 + y")
    F = VectorField(plane, [y, f])
    dy = coordinate_field(plane, "y")
    W1 = lie_bracket(F, dy)
    dec = decompose_in_frame(W1, Frame(plane, [dy, W1]), probe)
    assert dec.ok
    assert dec.coefficients == (ZERO, Num(1))


def test_decompose_not_in_span_gives_witness(plane):
    probe = plane.probe()
    dx = coordinate_field(plane, "x")
    dy = coordinate_field(plane, "y")
    dec = decompose_in_frame(dy, [dx], probe)
    assert not dec.ok
    assert dec.failure == "not_in_span"
    assert dec.witness is not None


def test_decompose_pivot_ambiguity_diagnostic(plane):
    # the only candidate pivot is a transcendental identity the zero test
    # cannot certify either way
    from sodekit.expressions import cos, sin
    probe = plane.probe()
    ghost = VectorField(plane, [sin(x) ** 2 + cos(x) ** 2 - 1, ZERO])
    dec = decompose_in_frame(coordinate_field(plane, "x"), [ghost], probe)
    assert not dec.ok
    assert dec.failure == "pivot_ambiguous"
    assert "column 0" in dec.diagnostic


def test_decompose_recombination_random(plane):
    rng = random.Random(77)
    probe = plane.probe()
    dx = coordinate_field(plane, "x")
    dy = coordinate_field(plane, "y")
    frame = Frame(plane, [dx + dy.scaled(x), dy])
    for _ in range(5):
        c1 = random_polynomial(rng, plane.names, degree=2, terms=2)
        c2 = random_polynomial(rng, plane.names, degree=2, terms=2)
        X = frame[0].scaled(c1) + frame[1].scaled(c2)
        dec = decompose_in_frame(X, frame, probe)
        assert dec.ok
        assert normalize(dec.coefficients[0] - c1) == ZERO
        assert normalize(dec.coefficients[1] - c2) == ZERO


def test_decompose_agrees_with_numeric_least_squares(plane):
    # independent route: solve the component system numerically at sample
    # points and compare with the evaluated symbolic coefficients
    from sodekit.expressions import compile_exprs
    rng = random.Random(404)
    probe = plane.probe()
    f = parse("x*y^2 + y")
    F = VectorField(plane, [Sym("y"), f])
    dy = coordinate_field(plane, "y")
    frame = Frame(plane, [dy, lie_bracket(F, dy)])
    X = frame[0].scaled(parse("x - y^2")) + frame[1].scaled(parse("1 + x*y"))
    dec = decompose_in_frame(X, frame, probe)
    assert dec.ok
    coeff_fn = compile_exprs([normalize(c) for c in dec.coefficients],
                             plane.names)
    for _ in range(20):
        pt = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        A = np.array([fld.at(pt) for fld in frame.fields]).T
        sol, *_ = np.linalg.lstsq(A, X.at(pt), rcond=None)
        assert np.max(np.abs(values_at(coeff_fn, pt) - sol)) < 1e-9


def test_frame_rank_invariant_under_constant_remix(plane):
    f = parse("x*y^2 + y")
    F = VectorField(plane, [y, f])
    dy = coordinate_field(plane, "y")
    W1 = lie_bracket(F, dy)
    base = frame_rank([dy, W1], plane, samples=64, seed=9)
    mixed_fields = [
        dy.combine(Num(2), W1, Num(3)),
        dy.combine(Num(1), W1, Num(-1)),
    ]
    mixed = frame_rank(mixed_fields, plane, samples=64, seed=9)
    assert base.claimed_rank == mixed.claimed_rank
    assert base.ranks == mixed.ranks


def test_involutive_coordinate_fields():
    ch = Chart(["y1", "y2"], [(-1, 1), (-1, 1)])
    res = is_involutive([coordinate_field(ch, "y1"),
                         coordinate_field(ch, "y2")], ch.probe())
    assert res.ok


def test_contact_distribution_not_involutive():
    ch = Chart(["x", "y", "z"], [(-1, 1)] * 3)
    dx = coordinate_field(ch, "x")
    X = VectorField(ch, [ZERO, Num(1), Sym("x")])
    res = is_involutive([dx, X], ch.probe())
    assert not res.ok
    assert res.failing_pair == (0, 1)
    assert res.witness is not None


def test_full_tangent_frame_trivially_involutive():
    chz = Chart(["z1", "z2"], [(-1.5, 1.5), (-1.5, 1.5)])
    F = VectorField(chz, [parse("z2 - z1^2"),
                          parse("-z1 + 2*z1*(z2 - z1^2)")])
    V = coordinate_field(chz, "z2")
    W1 = lie_bracket(F, V)
    res = is_involutive(Frame(chz, [V, W1]), chz.probe())
    assert res.ok
