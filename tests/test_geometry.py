import random

import numpy as np
import pytest

from sodekit import geometry
from sodekit.expressions import (
    EvalDomainError, Num, Sym, ZERO, differentiate, normalize, syms,
)
from sodekit.geometry import (
    Chart, ChartMismatchError, Frame, FrameRankError, GeometryError,
    VectorField, coordinate_field, decompose_in_frame, frame_rank,
    is_involutive, lie_bracket, lstsq_each,
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
    # every sample of a box wider than the float range would be inf
    with pytest.raises(GeometryError, match="for 'x' is wider than a float"):
        Chart(["x", "y"], [(-1e308, 1e308), (-1, 1)])


def test_a_chart_carries_no_seed(plane):
    # the seed reaches sampling only as an argument, 0 when left out
    assert not hasattr(plane, "seed")
    with pytest.raises(TypeError):
        Chart(["x"], [(-1, 1)], seed=1)
    assert plane.sample(8).tolist() == plane.sample(8, 0).tolist() \
        != plane.sample(8, 1).tolist()
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
    report = frame_rank([dy, W1], samples=64, seed=1)
    assert report.claimed_rank == 2
    assert report.constant_rank
    assert report.worst_conditioning > 0


def test_frame_rank_degenerate_pair(plane):
    dx = coordinate_field(plane, "x")
    report = frame_rank([dx, dx.scaled(x)], samples=64, seed=1)
    assert report.claimed_rank == 1


def test_frame_rank_matches_a_loop_over_the_points(plane):
    F = VectorField(plane, [y, parse("x*y^2 + y")])
    dy = coordinate_field(plane, "y")
    fields = [dy, lie_bracket(F, dy), dy.scaled(parse("x - y"))]
    for frame in (fields[:2], fields[1:], fields):
        report = frame_rank(frame, samples=32, seed=4)
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


def reference_point_rank(M):
    """(rank, smallest singular value) of one matrix M with the fields as
    its rows: the rank taken again with each field scaled to largest
    component one where it looks deficient and the fields' sizes differ."""
    svals = np.linalg.svd(M.T, compute_uv=False)
    rank = int((svals > 1e-9 * svals[0]).sum())
    sizes = np.abs(M).max(axis=1)
    if rank < len(M) and sizes.min() < sizes.max():
        unit = M / np.where(sizes > 0, sizes, 1.0)[:, None]
        sv = np.linalg.svd(unit.T, compute_uv=False)
        rank = max(rank, int((sv > 1e-9 * sv[0]).sum()))
    return rank, svals[-1]


def reference_frame_rank(fields, samples, seed):
    """frame_rank's report as a loop over the points (reference_point_rank
    at each); a point where a field fails to evaluate is skipped."""
    ranks, kept, worst = [], [], np.inf
    for pt in fields[0].chart.sample(samples, seed).tolist():
        try:
            M = np.array([f.at(pt) for f in fields])
        except EvalDomainError:
            continue
        rank, s_min = reference_point_rank(M)
        if rank == len(fields):
            worst = min(worst, s_min)
        ranks.append(rank)
        kept.append(tuple(pt))
    claimed = max(ranks)
    return (ranks, claimed, float(worst) if np.isfinite(worst) else 0.0,
            [p for p, r in zip(kept, ranks) if r < claimed],
            samples - len(kept))


@pytest.mark.parametrize("first,skipped,deficient", [
    (["1", "0"], 0, 145), (["log(x)", "1"], 100, 73)])
def test_frame_rank_matches_a_reference_loop_with_skips_and_deficits(
        first, skipped, deficient):
    # exp(-10000*x^2) underflows to exactly 0 away from x = 0, so the second
    # field vanishes there; log(x) has no value on the left half of the box
    square = Chart(["x", "y"], [(-1, 1), (-1, 1)])
    fields = [VectorField(square, [parse(c) for c in first]),
              VectorField(square, [ZERO, parse("exp(-10000*x^2)")])]
    report = frame_rank(fields, samples=200, seed=0)
    ranks, claimed, worst, points, skips = reference_frame_rank(
        fields, 200, 0)
    assert report.ranks == ranks
    assert report.claimed_rank == claimed == 2
    assert report.worst_conditioning == worst
    assert report.deficient_points == points
    assert report.skipped_points == skips == skipped
    assert len(report.deficient_points) == deficient
    # Python ints and tuples of Python floats, as the report's JSON needs
    assert type(report.claimed_rank) is int
    assert all(type(r) is int for r in report.ranks)
    assert all(type(p) is tuple and all(type(v) is float for v in p)
               for p in report.deficient_points)
    assert type(report.worst_conditioning) is float


@pytest.mark.parametrize("force", ["1000000*y^2", "(x+y)^14"])
def test_frame_rank_does_not_depend_on_a_fields_scale(force):
    # det(dy, [F, dy]) = 1 everywhere, though |[F, dy]| reaches 1e5 or more
    square = Chart(["x", "y"], [(-1, 1), (-1, 1)])
    F = VectorField(square, [y, parse(force)])
    dy = coordinate_field(square, "y")
    W = lie_bracket(F, dy)
    report = frame_rank([dy, W])
    assert report.claimed_rank == 2 and report.constant_rank
    scaled = frame_rank([dy.scaled(Num(10 ** 12)), W])
    assert scaled.ranks == report.ranks
    # a zero field stays deficient, whatever the other's scale
    zero = frame_rank([W, VectorField(square, [ZERO, ZERO])])
    assert zero.claimed_rank == 1 and zero.constant_rank


def rank_stacks():
    """Stacks (K, k, dim) of matrices, the fields as rows, on which the
    screens of _stack_ranks decide: by name."""
    rng = np.random.default_rng(38)

    def shuffled(stack):
        return np.ascontiguousarray(stack[rng.permutation(len(stack))])

    def with_singular_values(s_max, s_min, dim=3):
        # V diag(s) U^T for random orthonormal U (dim x 2) and V (2 x 2)
        u = np.linalg.qr(rng.standard_normal((len(s_min), dim, 2)))[0]
        v = np.linalg.qr(rng.standard_normal((len(s_min), 2, 2)))[0]
        return np.einsum("kjr,kr,kir->kji", v, np.stack([s_max, s_min], 1), u)

    base = rng.standard_normal((2, 5))
    turns = rng.uniform(0, 2 * np.pi, 40)
    rotations = np.stack([np.stack([np.cos(turns), np.sin(turns)], 1),
                          np.stack([-np.sin(turns), np.cos(turns)], 1)], 1)
    stacks = {
        "constant pair": np.repeat(base[None], 50, axis=0),
        "constant field": np.repeat(base[None, :1], 50, axis=0),
        "constant deficient pair": np.repeat(base[None, [0, 0]], 50, axis=0),
        "constant triple": np.repeat(
            rng.standard_normal((1, 3, 4)), 50, axis=0),
        # equal singular values in many bit patterns
        "tied rotations": rotations,
        "tied copies": shuffled(np.concatenate(
            [base[None], base[None, ::-1], -base[None], base[None, :, ::-1]]
            * 10)),
        "tied scaled copies": shuffled(
            base[None] * (1 + 1e-6 * np.arange(60))[:, None, None]),
        "tied s_min": with_singular_values(rng.uniform(1.5, 3.0, 40),
                                           np.ones(40)),
        # s_min 1e-6 apart in random bases, and 1e-9 apart at condition
        # 1e4: only the screen's error bound keeps the smallest
        "close s_min": with_singular_values(
            rng.uniform(1.5, 3.0, 100), 1 + 1e-6 * rng.permutation(100)),
        "close s_min, ill-conditioned": with_singular_values(
            rng.uniform(1e4, 3e4, 100), 1 + 1e-9 * rng.permutation(100)),
        # near-parallel pairs, s_min / s_max either side of the screen's
        # 1e-6 and the rank's 1e-9
        "near parallel": with_singular_values(np.ones(42), np.repeat(
            [1e-6 * (1 - 1e-3), 1e-6, 1e-6 * (1 + 1e-3),
             1e-9 * (1 - 1e-3), 1e-9 * (1 + 1e-3), 1e-4, 1e-12], 6)),
        "zero columns": np.where(rng.random((40, 2, 3)) < 0.4, 0.0,
                                 rng.standard_normal((40, 2, 3))),
        "zero fields": np.concatenate([
            np.zeros((5, 2, 3)),
            np.concatenate([np.zeros((5, 1, 3)),
                            rng.standard_normal((5, 1, 3))], 1),
            np.concatenate([rng.standard_normal((5, 1, 3)),
                            np.zeros((5, 1, 3))], 1)]),
        "one field with zeros": np.where(
            rng.random((40, 1, 3)) < 0.5, 0.0,
            rng.standard_normal((40, 1, 3))),
        # fields 2^32 apart: the retest with unit fields decides
        "uneven sizes": rng.standard_normal((40, 2, 3))
        * np.array([2.0 ** -16, 2.0 ** 16])[None, :, None],
        "triples": rng.standard_normal((40, 3, 4)),
    }
    for name in list(stacks):
        stack = stacks[name]
        stacks[name + ", all 2^1000"] = np.ldexp(stack, 1000)
        stacks[name + ", all 2^-1000"] = np.ldexp(stack, -1000)
        stacks[name + ", each 2^+-1000"] = np.ldexp(
            stack, rng.integers(-1000, 1001, (len(stack), 1, 1)))
        # near 1e-80, the Gram determinants would be subnormal unscaled
        stacks[name + ", all 2^-268"] = np.ldexp(stack, -268)
    return stacks


@pytest.mark.parametrize("name", sorted(rank_stacks()))
def test_stack_ranks_match_the_per_point_reference(name):
    stack = rank_stacks()[name]
    ranks, worst = geometry._stack_ranks(stack.transpose(1, 2, 0))
    reference = [reference_point_rank(M) for M in stack]
    assert ranks.tolist() == [rank for rank, _ in reference]
    full = [s_min for rank, s_min in reference if rank == stack.shape[1]]
    assert np.float64(worst).tobytes() == np.float64(
        min(full, default=0.0)).tobytes()


def test_frame_rank_sends_only_undecided_rows_to_the_svd(monkeypatch, plane):
    rows = []

    def counting_svd(a, *args, **kwargs):
        rows.append(len(a))
        return svd(a, *args, **kwargs)

    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    dx, dy = coordinate_field(plane, "x"), coordinate_field(plane, "y")
    # a constant frame: one matrix decomposed for all 200 points
    assert frame_rank([dx, dy], samples=200).constant_rank
    assert frame_rank([dy], samples=200).constant_rank
    assert rows == [1, 1]
    # a smooth pair: the Gram screen leaves the rows near the smallest s_min
    rows.clear()
    F = VectorField(plane, [y, parse("x*y^2 + y")])
    report = frame_rank([dy, lie_bracket(F, dy)], samples=200)
    assert report.constant_rank and report.sample_count == 200
    assert len(rows) == 1 and rows[0] <= 5


def test_frame_rank_skips_points_with_non_finite_values():
    # exp(700*x)*exp(700*y) overflows to inf where x + y > 1.014
    square = Chart(["x", "y"], [(-1, 1), (-1, 1)])
    report = frame_rank([VectorField(square, [parse("exp(700*x)*exp(700*y)"),
                                              Num(1)]),
                         VectorField(square, [ZERO, Num(1)])])
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
    report = frame_rank([V, W1], samples=200, seed=0)
    assert report.claimed_rank == 2
    assert report.sample_count == 200
    assert report.constant_rank


def test_frame_eager_validation(plane):
    dx = coordinate_field(plane, "x")
    with pytest.raises(FrameRankError):
        Frame(plane, [dx, dx.scaled(x)])


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



def lstsq_stacks():
    """(kind, A, B) stacks of least-squares problems, seeded: the Newton
    search's wide shapes, the quadratic fit's tall ones, square ones, rank
    deficient ones and all-zero members."""
    rng = np.random.default_rng(34)
    shapes = {"wide": [(1, 2), (2, 4), (3, 7)], "tall": [(9, 5), (25, 9)],
              "square": [(3, 3), (6, 6)]}
    for kind, dims in shapes.items():
        for r, c in dims:
            for k in (1, 3):
                yield (f"{kind} {r}x{c}x{k}", rng.standard_normal((6, r, c)),
                       rng.standard_normal((6, r, k)))
    for r, c in [(3, 7), (9, 5), (4, 4)]:
        A = rng.standard_normal((6, r, c))
        A[:, -1] = A[:, 0]
        yield f"repeated row {r}x{c}", A, rng.standard_normal((6, r, 2))
        A = rng.standard_normal((6, r, c))
        A[:, :, 1] = 0.0
        yield f"zero column {r}x{c}", A, rng.standard_normal((6, r, 2))
        A, B = rng.standard_normal((6, r, c)), rng.standard_normal((6, r, 2))
        A[[1, 4]] = 0.0
        B[1] = 0.0
        yield f"all-zero members {r}x{c}", A, B


def test_lstsq_each_is_lstsq_on_each_member_bit_for_bit():
    kinds = set()
    for kind, A, B in lstsq_stacks():
        want = np.stack([np.linalg.lstsq(a, b, rcond=None)[0]
                         for a, b in zip(A, B)])
        got = lstsq_each(A, B)
        assert got.shape == want.shape and got.dtype == want.dtype, kind
        assert got.tobytes() == want.tobytes(), kind
        kinds.add(kind.split()[0])
    assert kinds == {"wide", "tall", "square", "repeated", "zero", "all-zero"}
    assert lstsq_each(np.zeros((0, 2, 4)), np.zeros((0, 2, 1))).shape == (
        0, 4, 1)


def test_lstsq_each_raises_where_lstsq_raises():
    A = np.random.default_rng(5).standard_normal((3, 4, 2))
    A[1, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(A[1], np.ones(4), rcond=None)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        lstsq_each(A, np.ones((3, 4, 1)))

def test_frame_rank_invariant_under_constant_remix(plane):
    f = parse("x*y^2 + y")
    F = VectorField(plane, [y, f])
    dy = coordinate_field(plane, "y")
    W1 = lie_bracket(F, dy)
    base = frame_rank([dy, W1], samples=64, seed=9)
    mixed_fields = [
        dy.combine(Num(2), W1, Num(3)),
        dy.combine(Num(1), W1, Num(-1)),
    ]
    mixed = frame_rank(mixed_fields, samples=64, seed=9)
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
