"""Shared fixtures: standard problem instances, a seeded random expression
generator, and the independent Euler-Lagrange oracle for the reduced
Lagrangian corpus instance."""

import random
from fractions import Fraction

import numpy as np
import pytest

from sodekit.expressions import (
    Expr, Num, Sym, ZERO, cos, differentiate, exp, free_symbols, log,
    normalize, sin,
)
from sodekit.geometry import Chart, Frame, VectorField, coordinate_field
from sodekit.parser import parse


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
