"""Shared fixtures: standard problem instances, the registry of manifests
every command must handle, a seeded random expression generator, the zero
test replayed point by point, and the independent Euler-Lagrange oracle for
the reduced Lagrangian corpus instance."""

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sodekit.corpus import corpus_get, corpus_list
from sodekit.expressions import (
    Add, EvalDomainError, Expr, Num, Sym, ZERO, _poly_tree, _to_rf, cos,
    differentiate, evaluate, exp, free_symbols, log, normalize, sin,
)
from sodekit.geometry import Chart, Frame, VectorField, coordinate_field
from sodekit.manifest import load_manifest, load_manifest_file
from sodekit.parser import parse
from sodekit.sampling import TRIALS, ZERO_TOL, _jittered, box_points

BENCH_MANIFESTS = Path(__file__).resolve().parent.parent / "bench" / "manifests"
N3_FORCE = ["y1", "y2", "y3", "x2*y1^2 - y3 + x1", "y1*y2 - x3",
            "x1*y3^2 + y2*x2"]


def _unit(i, m=6):
    return ["1" if k == i else "0" for k in range(m)]


def make_manifest(name, coords, field, frame, options=None):
    """A manifest on the box [-1, 1]^m from component strings."""
    return load_manifest({
        "name": name,
        "chart": {"coordinates": coords, "box": [[-1, 1]] * len(coords)},
        "field": {"components": field},
        "frame": [{"components": comps} for comps in frame],
        "options": options or {},
    })


# every manifest the commands are held to, by name: a few hand-built problems,
# the corpus and the bench manifests (regularity-fail is the one that stops)
INSTANCES = {
    "n3": lambda: make_manifest(
        "n3", ["x1", "x2", "x3", "y1", "y2", "y3"], N3_FORCE,
        [_unit(3), _unit(4), _unit(5)]),
    # [W_i, W_j] has a W-part, so Gamma2 is not symmetric in this frame
    "n3-sheared": lambda: make_manifest(
        "n3-sheared", ["x1", "x2", "x3", "y1", "y2", "y3"], N3_FORCE,
        [_unit(3), ["0", "0", "0", "x1", "1", "0"],
         ["0", "0", "0", "0", "x2", "1"]]),
    # transcendental rescalings of d/dy, w != 0: normalized to V.B^-1
    "numeric-exp": lambda: make_manifest(
        "numeric-exp", ["x", "y"], ["y", "0"], [["0", "exp(y)"]]),
    "numeric-exp-xy": lambda: make_manifest(
        "numeric-exp-xy", ["x", "y"], ["y", "x*y^3 + y^2"],
        [["0", "exp(x*y)"]]),
    # d/du for the fibre coordinates y = (u1, u2*exp(u1)): n = 2 with
    # w^k_ij != 0 for i != j, normalized by the full 2 x 2 block B^-1
    "n2-curved-fibre": lambda: make_manifest(
        "n2-curved-fibre", ["x1", "x2", "y1", "y2"],
        ["y1", "y2", "x2*y1^2 - x1", "y1*y2 - x2"],
        [["0", "0", "1", "y2"], ["0", "0", "0", "exp(y1)"]]),
    # a reparametrized fibre y = u + u^2/4: the coordinate basis d/du has
    # w != 0 and normalization leaves it as it is, so the adaptation is
    # numeric, the general expansion of every formula
    "reparam-fibre": lambda: make_manifest(
        "reparam-fibre", ["x", "u"], ["u + u^2/4", "0"], [["0", "1"]]),
    # n = 2 with w^k_ij != 0 for i != j, transported numerically; a coarse
    # grid, since every residual node flows the transport matrix
    "reparam-fibre-pair": lambda: make_manifest(
        "reparam-fibre-pair", ["x1", "x2", "u1", "u2"],
        ["u1 + u1^2/4", "u2 + u1*u2/4", "0", "0"],
        [["0", "0", "1", "0"], ["0", "0", "0", "1"]], {"grid": 4}),
    **{name: (lambda name=name: corpus_get(name)) for name in corpus_list()},
    **{path.stem: (lambda path=path: load_manifest_file(str(path)))
       for path in sorted(BENCH_MANIFESTS.glob("*.json"))},
}


@pytest.fixture
def plane():
    return Chart(["x", "y"], [(-1.2, 1.2), (-1.2, 1.2)])


@pytest.fixture
def natural_sode(plane):
    """F = y dx + f dy with f = x*y^2 + y; V = {dy}."""
    F = VectorField(plane, [Sym("y"), parse("x*y^2 + y")])
    V = Frame(plane, [coordinate_field(plane, "y")])
    return plane, F, V


def values_at(fn, point) -> np.ndarray:
    """A compiled evaluator's values at one point, its domain error raised."""
    values, errors = fn(np.asarray(point, dtype=float)[:, None])
    if errors:
        raise errors[0]
    return values[:, 0]


def random_polynomial(rng: random.Random, names, degree: int = 3,
                      terms: int = 4) -> Expr:
    """Small random polynomial with integer coefficients in [-4, 4]."""
    expr = Num(rng.randint(-2, 2))
    for _ in range(terms):
        coeff = rng.randint(-4, 4)
        if coeff == 0:
            continue
        term = Num(coeff)
        for name in names:
            e = rng.randint(0, degree)
            if e:
                term = term * Sym(name) ** e
        expr = expr + term
    return expr


def random_elementary(rng: random.Random, names, depth: int = 2) -> Expr:
    """Random expression over `names` mixing exp, log, sin and cos with
    integer and fractional powers, built on small random polynomials; log
    and the fractional powers take arguments 1 + a^2."""
    a = random_polynomial(rng, names, degree=2, terms=3)
    if depth == 0:
        return a
    inner = random_elementary(rng, names, depth - 1)
    positive = 1 + inner * inner
    kind = rng.randrange(6)
    if kind == 0:
        return exp(inner / 4) * a
    if kind == 1:
        return log(positive) + a
    if kind == 2:
        return sin(inner) * a
    if kind == 3:
        return cos(inner) - a
    if kind == 4:
        return positive ** Fraction(rng.choice([1, -1, 5]),
                                    rng.choice([2, 3])) + a
    return inner ** rng.randint(2, 4) - a


def random_vector_field(rng: random.Random, chart: Chart,
                        degree: int = 2) -> VectorField:
    comps = [
        random_polynomial(rng, chart.names, degree=degree, terms=3)
        for _ in chart.names
    ]
    return VectorField(chart, comps)


def euler_lagrange_reduced_field(manifest):
    """Independent derivation of the reduced field from the Lagrangian data.

    Applies to kinetic-type reduced Lagrangians with identity fibre metric,
    no fibre/group cross terms and group-diagonal metric (asserted below):
    the fibre force is d l/d x^i plus the curvature coupling of the momenta,
    the momenta themselves are conserved.  Returns component Expressions in
    the manifest chart order (base, fibre, momenta)."""
    red = manifest.metadata["reduction"]
    lag = parse(red["lagrangian"])
    xs = red["base_coordinates"]
    vs = red["fibre_coordinates"]
    ws = red["group_coordinates"]
    mus = red["momentum_names"]
    K = red["curvature"]  # K[p][i][k] expression strings
    for i, vi in enumerate(vs):
        for j, vj in enumerate(vs):
            want = Num(1 if i == j else 0)
            assert normalize(
                differentiate(differentiate(lag, vi), vj) - want
            ) == ZERO, "oracle needs an identity fibre metric"
        for wp in ws:
            assert normalize(
                differentiate(differentiate(lag, wp), vi)
            ) == ZERO, "oracle needs no fibre/group cross terms"
    for p, wp in enumerate(ws):
        # momentum map dl/dw^p must invert to w^p = mu_p
        assert normalize(differentiate(lag, wp) - Sym(wp)) == ZERO, \
            "oracle needs a group-diagonal unit metric"
    forces = []
    for i, (xi, vi) in enumerate(zip(xs, vs)):
        expr = differentiate(lag, xi)
        assert not (free_symbols(expr) & set(ws)), \
            "oracle needs base force independent of the group coordinates"
        for p in range(len(ws)):
            for k in range(len(vs)):
                expr = expr + parse(K[p][i][k]) * Sym(vs[k]) * Sym(mus[p])
        forces.append(normalize(expr))
    return [Sym(v) for v in vs] + forces + [ZERO] * len(mus)


def walk_trial_points(e, probe):
    """The zero test replayed one point at a time by `evaluate`, one term of
    the canonical numerator at a time: the verdict's kind, its witness point
    (None unless nonzero), the points used with the numerator's value there
    (a failed point is retried at its jittered point) and the number of
    points skipped because both failed or gave a non-finite term.  The walk
    stops at the witness."""
    p, _ = _to_rf(e)
    if not p:
        return "zero", None, [], 0
    numerator = _poly_tree(p)
    terms = numerator.terms if isinstance(numerator, Add) else (numerator,)
    used, skipped = [], 0
    for point in box_points(probe.box, TRIALS, probe.seed):
        for pt in (point, _jittered(point, probe.box)):
            try:
                values = [evaluate(t, dict(zip(probe.names, pt)))
                          for t in terms]
            except EvalDomainError:
                continue
            if all(math.isfinite(v) for v in values):
                break
        else:
            skipped += 1
            continue
        total = scale = 0.0
        for v in values:  # in order, as `evaluate` sums an Add
            total += v
            scale += abs(v)
        used.append((pt, total))
        if abs(total) > ZERO_TOL * scale:
            return "nonzero", pt, used, skipped
    return "unknown", None, used, skipped


def first_point_edge(probe):
    """log(c - x) or log(x - c) on a chart whose x runs over [-1, 1], with c
    1/1000 from the x of the probe's first trial point toward 0: the
    argument is negative at that point and positive at its jittered retry,
    which moves 2/1000 toward 0."""
    x0 = Fraction(box_points(probe.box, TRIALS, probe.seed)[0][0])
    x = Sym("x")
    if x0 > 0:
        return log(Num(x0 - Fraction(1, 1000)) - x)
    return log(x - Num(x0 + Fraction(1, 1000)))
