import random
from fractions import Fraction

import pytest

from sodekit.expressions import (
    EvalDomainError, Fn, MissingSymbolError, Num, Pow,
    ZERO, compile_exprs, cos, differentiate, evaluate, exp, log,
    normalize, sin, syms, to_str,
)
from sodekit.parser import parse
from sodekit.sampling import is_zero
from tests.conftest import random_polynomial

x, y = syms("x y")
BOX = {"x": (-1.0, 1.0), "y": (-1.0, 1.0)}


# -- normalize ---------------------------------------------------------------

def test_normalize_cancels_binomial():
    assert normalize((x + y) ** 2 - x ** 2 - 2 * x * y - y ** 2) == ZERO


def test_normalize_commutativity():
    assert normalize(x * y - y * x) == ZERO


def test_normalize_collects_repeated_function_atoms():
    e = normalize(exp(x) * exp(x))
    assert e == Pow(Fn("exp", x), 2)


def test_normalize_idempotent_random():
    rng = random.Random(7)
    for _ in range(50):
        e = random_polynomial(rng, ["x", "y"], degree=3)
        if rng.random() < 0.4:
            e = e / (Num(1) + x ** 2)
        if rng.random() < 0.2:
            e = e * sin(x) + cos(y)
        once = normalize(e)
        assert normalize(once) == once


def test_normalize_reduces_exact_quotients():
    assert normalize((x ** 2 - 1) / (x - 1)) == normalize(x + 1)
    assert normalize((2 * y ** 3 + 2 * y) / (1 + y ** 2)) == normalize(2 * y)


def test_normalize_is_semantic_noop():
    rng = random.Random(99)
    for _ in range(100):
        e = random_polynomial(rng, ["x", "y"], degree=3)
        if rng.random() < 0.3:
            e = e / (Num(3) + x ** 2 + y ** 2)
        a = {"x": rng.uniform(-1, 1), "y": rng.uniform(-1, 1)}
        v1 = evaluate(e, a)
        v2 = evaluate(normalize(e), a)
        assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))


def test_rational_constants_stay_exact():
    e = differentiate(Num(Fraction(1, 3)) * x ** 2, "x")
    assert e == normalize(Num(Fraction(2, 3)) * x)
    # a third of a third, exactly
    assert normalize(Num(Fraction(1, 3)) * Num(Fraction(1, 3))) \
        == Num(Fraction(1, 9))


def test_fractional_powers_combine_on_bare_symbols():
    assert normalize(Pow(x, Fraction(1, 2)) * Pow(x, Fraction(1, 2))) == x
    # composite bases stay opaque: sqrt(x^2) is not x
    e = normalize(Pow(normalize(x ** 2), Fraction(1, 2)))
    assert e != x


# -- differentiate -----------------------------------------------------------

def test_differentiate_examples():
    assert differentiate(y ** 2 + x * y, "y") == normalize(2 * y + x)
    assert differentiate(exp(x) * y, "x") == normalize(exp(x) * y)
    assert differentiate(1 + y ** 2, "y") == normalize(2 * y)


def test_differentiate_quotient_and_chain():
    e = differentiate(sin(x ** 2), "x")
    a = {"x": 0.3}
    import math
    assert abs(evaluate(e, a) - 2 * 0.3 * math.cos(0.09)) < 1e-14
    q = differentiate(x / (1 + y ** 2), "y")
    assert normalize(q - (-2 * x * y) / (1 + y ** 2) ** 2) == ZERO


def test_derivative_matches_finite_difference():
    rng = random.Random(123)
    h = 1e-6
    for _ in range(40):
        e = random_polynomial(rng, ["x", "y"], degree=4)
        d = differentiate(e, "x")
        a = {"x": rng.uniform(-1, 1), "y": rng.uniform(-1, 1)}
        up = evaluate(e, {**a, "x": a["x"] + h})
        dn = evaluate(e, {**a, "x": a["x"] - h})
        fd = (up - dn) / (2 * h)
        dv = evaluate(d, a)
        assert abs(dv - fd) <= 1e-6 * max(1.0, abs(dv))


# -- evaluate ----------------------------------------------------------------

def test_evaluate_examples():
    assert evaluate(parse("y^2 + x*y"), {"x": 1, "y": 2}) == 6.0
    assert evaluate(parse("1/(1 + y^2)"), {"y": 0}) == 1.0


def test_evaluate_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/x"), {"x": 0})
    with pytest.raises(EvalDomainError):
        evaluate(parse("log(x)"), {"x": -1})
    with pytest.raises(MissingSymbolError):
        evaluate(parse("x + y"), {"x": 1})


def test_evaluate_deterministic_bitwise():
    e = normalize(parse("(x + y)^3/(1 + x^2) - sin(x*y)"))
    a = {"x": 0.123456, "y": -0.654321}
    first = evaluate(e, a)
    assert all(evaluate(e, a) == first for _ in range(5))


def test_compiled_matches_tree_eval():
    e = normalize(parse("(x + y)^3/(1 + x^2) - sin(x*y) + exp(y)^2"))
    fn = compile_exprs([e], ["x", "y"])
    for pt in [(0.1, 0.2), (-0.7, 0.4), (0.55, -0.91)]:
        assert fn(pt)[0] == evaluate(e, dict(zip(("x", "y"), pt)))


def test_compiled_domain_error_names_the_failing_component():
    fn = compile_exprs([x, log(y)], ["x", "y"])
    with pytest.raises(EvalDomainError) as info:
        fn((1.0, -1.0))
    assert info.value.subtree == log(y)
    assert "in 'log(y)'" in str(info.value)
    huge = normalize(y * 10 ** 400)
    with pytest.raises(EvalDomainError) as info:
        compile_exprs([x, huge], ["x", "y"])((1.0, 1.0))
    assert info.value.subtree == Num(10 ** 400)


# -- is_zero -----------------------------------------------------------------

def test_is_zero_structural():
    v = is_zero((x + y) ** 2 - x ** 2 - 2 * x * y - y ** 2, BOX)
    assert v.kind == "zero"


def test_is_zero_nonzero_with_witness():
    v = is_zero(x - y, BOX, trials=32, seed=5)
    assert v.kind == "nonzero"
    assert v.witness is not None
    assert abs(v.witness["x"] - v.witness["y"]) > 0
    assert v.value != 0


def test_is_zero_pythagorean_identity_unknown_with_tiny_residual():
    v = is_zero(sin(x) ** 2 + cos(x) ** 2 - 1, BOX)
    assert v.kind == "unknown"
    assert v.max_residual < 1e-12


def test_is_zero_never_zero_when_witness_exists():
    rng = random.Random(31337)
    for seed in range(20):
        e = random_polynomial(rng, ["x", "y"], degree=3)
        if normalize(e) == ZERO:
            continue
        v1 = is_zero(e, BOX, trials=32, seed=seed)
        v2 = is_zero(e, BOX, trials=32, seed=seed)
        assert v1.kind == v2.kind  # deterministic under a fixed seed
        assert v1.kind != "zero"   # zero is reserved for structural zeros


def test_is_zero_deterministic_witness():
    v1 = is_zero(x * y - Num(Fraction(1, 7)), BOX, trials=16, seed=3)
    v2 = is_zero(x * y - Num(Fraction(1, 7)), BOX, trials=16, seed=3)
    assert v1.witness == v2.witness


def test_is_zero_all_domain_errors_is_unknown():
    e = parse("log(-1 - x^2)")  # never evaluable on the box
    v = is_zero(e, BOX, trials=8, seed=0)
    assert v.kind == "unknown"
    assert "domain errors" in (v.diagnostic or "")


def test_printing_round_trips_canonical_forms():
    rng = random.Random(4)
    for _ in range(30):
        e = normalize(random_polynomial(rng, ["x", "y"], degree=3))
        assert normalize(parse(to_str(e))) == e
