import functools
import operator
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sodekit import memo
from sodekit.corpus import corpus_get, corpus_list
from sodekit.expressions import (
    Add, Div, EvalDomainError, ExpressionError, Fn, MissingSymbolError, Mul, Num, Pow, Sym,
    ZERO, _P_ONE, _children, _domain_error, _lower, _qdiv, _reduce_rf, _to_rf,
    compile_exprs, cos, differentiate,
    evaluate, exp, log, normalize, sin, syms, to_str,
)
from sodekit.geometry import Chart
from sodekit.manifest import load_manifest_file
from sodekit.parser import parse
from sodekit.runner import run_command
from sodekit.sampling import (
    _PRIMES, _jittered, _splitmix64, box_points, is_zero, unit_points,
)
from sodekit.straighten import _variational_evaluator
from tests.conftest import (
    first_point_edge, random_elementary, random_polynomial,
    walk_trial_points,
)

x, y = syms("x y")
PLANE = Chart(["x", "y"], [(-1, 1), (-1, 1)])


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


def test_log_of_zero_is_named_when_differentiated():
    # an API-built tree is not checked by the parser; its derivative u'/u
    # would divide by zero, and the error names the log instead
    with pytest.raises(ExpressionError, match=(
            r"^log of an expression that normalizes to zero: 'log\(x - x\)'$")):
        differentiate(log(x - x) + y, "x")
    assert differentiate(log(x) + y, "x") == normalize(1 / x)


def test_normalize_reduces_exact_quotients():
    assert normalize((x ** 2 - 1) / (x - 1)) == normalize(x + 1)
    assert normalize((2 * y ** 3 + 2 * y) / (1 + y ** 2)) == normalize(2 * y)


def test_exact_quotients_cancel_with_negative_exponents():
    e = parse("(6*y/x^3)*(9*x^2 + 30*x + 25)/(9*x^2 + 30*x + 25)")
    assert to_str(normalize(e)) == "6*x^(-3)*y"
    assert to_str(differentiate(parse("(x + 5/3)^(-2) + 3*y^2/x^3"),
                                "y")) == "6*x^(-3)*y"
    # negative exponents in the divisor, and on the other side (q / p)
    assert to_str(normalize(parse("(x^2 - 1)/(x^(-1) + 1)"))) == "x^2 - x"
    assert to_str(normalize(parse("(x^(-1) + 1)/(x + 1)"))) == "x^(-1)"
    e = parse("(x^2 + 1)/(x^(-1)*(x^2 + 1) + x^(-2)*(x^2 + 1))")
    assert normalize(e) == normalize(1 / (x ** -1 + x ** -2))
    # a multi-term denominator's negative exponents are cleared on both sides
    assert normalize(parse("1/(x^(-1) + x^(-2))")) == \
        normalize(parse("x^2/(x + 1)"))
    assert normalize(parse("(x^2 + 1)/(1 + x^(-1))")) == \
        normalize(parse("(x^3 + x)/(x + 1)"))
    # the clearing monomial is canonical even where it stands alone (the
    # dividend's constant term, a unit quotient term): equal forms are ==
    e = parse("(x^2 + 3*x + 2)/(x*y)/(x + 2)")
    assert normalize(e) == normalize(parse("1/y + 1/(x*y)"))
    assert normalize(e - parse("1/y + 1/(x*y)")) == ZERO


def test_exact_quotients_with_negative_exponents_are_canonical():
    rng = random.Random(28)
    for _ in range(60):
        r = sum((rng.choice([-3, -1, 1, 2]) * x ** rng.randint(-2, 2)
                 * y ** rng.randint(-2, 2) for _ in range(3)), ZERO)
        s = random_polynomial(rng, ["x", "y"], degree=2, terms=3)
        if normalize(s) == ZERO or normalize(r) == ZERO:
            continue
        for form in (normalize(r * s / s), normalize(r * s) / normalize(s)):
            p, q = _to_rf(normalize(form))
            assert all(list(mon) == sorted(mon, key=lambda pair: pair[0].key)
                       for poly in (p, q) for mon in poly)
            assert normalize(form - r) == ZERO


def test_normal_form_ignores_a_monomial_on_both_sides():
    # negative exponents in the numerator are cleared with the denominator's
    a = normalize(parse("(x^(-1) + y)/(x + y)"))
    assert a == normalize(parse("(1 + x*y)/(x^2 + x*y)"))
    assert to_str(a) == "(x*y + 1)/(x^2 + x*y)"
    rng = random.Random(30)

    def laurent(terms):
        return sum((rng.choice([-3, -1, 1, 2]) * x ** rng.randint(-2, 2)
                    * y ** rng.randint(-2, 2) for _ in range(terms)), ZERO)

    checked = 0
    for _ in range(80):
        r, s = laurent(rng.randint(2, 3)), laurent(rng.randint(2, 3))
        if normalize(r) == ZERO or normalize(s) == ZERO:
            continue
        m1, m2 = laurent(1), laurent(1)
        assert normalize(r * m1 / (s * m1)) == normalize(r * m2 / (s * m2))
        checked += 1
    assert checked > 50


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


def test_integer_exponents_are_ints_and_printed_forms_stay():
    root_squared = normalize(parse("x^(1/2)*x^(1/2)"))
    assert str(root_squared) == "x"
    exps = [e for mon in root_squared._rf[0] for _, e in mon]
    assert exps == [1] and all(type(e) is int for e in exps)
    root = normalize(parse("x^(2/4)"))
    assert str(root) == "x^(1/2)"
    ((_, half),), = root._rf[0]
    assert type(half) is Fraction and half == Fraction(1, 2)
    for text in ("(2^(1/2))^2", "2^(1/2)*2^(1/2)"):
        assert str(normalize(parse(text))) == "(2^(1/2))^2"


# -- coefficient type --------------------------------------------------------

def is_canonical_coefficient(c) -> bool:
    """An int, or a Fraction that is not integral; never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_normal_form_coefficients_are_ints_unless_truly_fractional():
    bench = Path(__file__).resolve().parent.parent / "bench" / "manifests"
    manifests = [corpus_get(name) for name in corpus_list()] + [
        load_manifest_file(str(path)) for path in sorted(bench.glob("*.json"))]
    assert len(manifests) == 9
    memo.clear()
    for manifest in manifests:
        run_command("classify", manifest)
    forms = [v for v in list(memo._table.values())
             if getattr(v, "_rf", None) is not None]
    assert len(forms) > 100
    kinds = set()
    for form in forms:
        for poly in form._rf:
            for c in poly.values():
                assert is_canonical_coefficient(c), (str(form), c)
                kinds.add(type(c))
    assert kinds == {int, Fraction}


def test_qdiv_is_exact_and_int_when_integral():
    half, third = Fraction(1, 2), Fraction(1, 3)
    for a, b, want in ((6, 3, 2), (6, -3, -2), (-6, 3, -2), (0, -5, 0),
                       (3, 3 * half, 2), (4 * third, 2 * third, 2),
                       (-3 * half, half, -3)):
        got = _qdiv(a, b)
        assert got == want and type(got) is int, (a, b)
    for a, b, want in ((7, 2, 7 * half), (7, -2, -7 * half),
                       (-1, 3, -third), (1, 2 * third, 3 * half),
                       (half, 2, half / 2), (half, -3, -half * third)):
        got = _qdiv(a, b)
        assert got == want and is_canonical_coefficient(got), (a, b)
    with pytest.raises(ZeroDivisionError):
        _qdiv(1, 0)


def test_tree_constants_and_exponents_follow_the_number_policy():
    assert type(Num(3).value) is int
    assert Num(Fraction(6, 2)) is Num(3)
    assert Num(3.0) is Num(3) and type(Num(-2.0).value) is int
    assert Num(0.5).value == Fraction(1, 2)
    assert type(Num(0.5).value) is Fraction
    assert type(Pow(x, 2).exponent) is int
    assert Pow(x, Fraction(4, 2)) is Pow(x, 2) is Pow(x, Num(2))
    assert Pow(x, Fraction(1, 2)).exponent == Fraction(1, 2)
    assert str(Num(Fraction(-3, 4))) == "-3/4" and str(Pow(x, 2)) == "x^2"
    with pytest.raises(TypeError):
        Num("1")


def test_unit_denominator_pair_is_returned_as_is():
    p, q = _to_rf(parse("3*x^2 - x*y/2 + 1"))
    assert q == _P_ONE
    out = _reduce_rf(p, q)
    assert out[0] is p and out[1] is q


# -- interning ---------------------------------------------------------------

def test_equal_trees_built_apart_are_one_object():
    assert Add((x, y)) is Add((x, y))
    assert parse("x*y + sin(x)") is parse("x*y + sin(x)")
    first = (x + y) ** 2 / (1 + x) - Fn("exp", y)
    second = (x + y) ** 2 / (1 + x) - Fn("exp", y)
    assert first is second
    assert normalize(first) is normalize(second)


def test_hash_equality_and_memo_lookups_build_no_sort_key():
    fresh = Sym("sort_key_probe")
    tree = Add((Mul((fresh, x)), Num(Fraction(1, 7919))))
    other = Add((Mul((fresh, x)), Num(Fraction(1, 7919))))
    assert tree == other and hash(tree) == hash(other)
    memo.get(("normalize", tree))
    for node in (fresh, tree, tree.terms[0], tree.terms[1]):
        assert not hasattr(node, "_key")
    assert tree.key == (4, (5, (1, "sort_key_probe"), (1, "x")),
                        (0, (1, 7919)))


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
    points = [(0.1, 0.2), (-0.7, 0.4), (0.55, -0.91)]
    values, errors = fn(np.array(points).T)
    assert not errors
    for k, pt in enumerate(points):
        assert values[0, k] == evaluate(e, dict(zip(("x", "y"), pt)))


def test_compiled_domain_error_names_the_failing_component():
    fn = compile_exprs([x, log(y)], ["x", "y"])
    values, errors = fn(np.array([[1.0, 1.0], [2.0, -1.0]]))
    assert list(errors) == [1] and values[0, 0] == 1.0
    assert errors[1].subtree == log(y)
    assert "in 'log(y)'" in str(errors[1])
    huge = normalize(y * 10 ** 400)
    _, errors = compile_exprs([x, huge], ["x", "y"])(np.array([[1.0], [1.0]]))
    assert errors[0].subtree == Num(10 ** 400)


def test_compiled_fast_path_leaves_the_column_scan_its_cases():
    fn = compile_exprs([x, x * y], ["x", "y"])
    # finite values whose sum of squares overflows: no failure
    values, errors = fn(np.array([[1e308, 1e308, 2.0], [1.0, 1.0, 3.0]]))
    assert errors == {} and np.isfinite(values).all()
    assert fn(np.array([[0.5, -0.25], [1.0, 2.0]]))[1] == {}
    # a column holding inf or NaN is named as before, by the same error
    fn = compile_exprs([x, log(y)], ["x", "y"])
    points = np.array([[1.0, np.inf, np.nan, 1.0], [2.0, 1.0, 1.0, -1.0]])
    values, errors = fn(points)
    assert {k: (err.subtree, str(err)) for k, err in errors.items()} == {
        1: (x, "non-finite value in 'x'"),
        2: (x, "non-finite value in 'x'"),
        3: (log(y), "log of a nonpositive value in 'log(y)'")}
    assert values[1, 0] == np.log(2.0)


@pytest.mark.parametrize("K", [1, 7, 64])
def test_compiled_columns_do_not_depend_on_the_batch(K):
    rng = random.Random(2024)
    exprs = [random_elementary(rng, ["x", "y"]) for _ in range(24)]
    text = " ".join(to_str(e) for e in exprs)
    assert all(f in text for f in ("exp(", "log(", "sin(", "cos(", "^("))
    fn = compile_exprs(exprs, ["x", "y"])
    points = np.random.default_rng(K).uniform(-1.0, 1.0, size=(2, K))
    values, errors = fn(points)
    assert not errors
    for k in range(K):
        alone, _ = fn(points[:, k:k + 1])
        assert values[:, k].tobytes() == alone[:, 0].tobytes()


def corpus_evaluators():
    """Every (exprs, names) compiled while straightening the corpus, and the
    variational right-hand side of each corpus field F (straightening
    compiles one only for an integrated stage after the first)."""
    memo.clear()
    for name in corpus_list():
        assert run_command("straighten", corpus_get(name))[1] == 0
        _variational_evaluator(corpus_get(name).vector_field())
    return [key[1:] for key in list(memo._table)
            if isinstance(key, tuple) and key[0] == "compile_exprs"]


def wrap_exprs():
    """x wrapped 10 times, alternately in (...)*y and sin(...) + 1, with its
    two derivatives."""
    text = "x"
    for i in range(10):
        text = f"({text})*y" if i % 2 == 0 else f"sin({text}) + 1"
    e = normalize(parse(text))
    return (e, differentiate(e, "x"), differentiate(e, "y")), ("x", "y")


def tree_fold(exprs, names, points):
    """`compile_exprs`'s (values, errors), built without the op program:
    each tree folded on its own, a node used twice computed twice, with
    the operator and numpy functions the program is to apply in the same
    order, and the error dict formed from those values."""
    rows = dict(zip(names, points))

    def value(e):
        if isinstance(e, Num):
            q = e.value
            return q.numerator if q.denominator == 1 else \
                operator.truediv(q.numerator, q.denominator)
        if isinstance(e, Sym):
            return rows[e.name]
        if isinstance(e, (Add, Mul)):
            fold = operator.add if isinstance(e, Add) else operator.mul
            return functools.reduce(fold, map(value, _children(e)))
        if isinstance(e, Div):
            return operator.truediv(value(e.num), value(e.den))
        if isinstance(e, Pow):
            q = e.exponent
            return operator.pow(value(e.base), q.numerator) \
                if q.denominator == 1 else np.power(value(e.base), float(q))
        return {"exp": np.exp, "log": np.log, "sin": np.sin,
                "cos": np.cos}[e.name](value(e.arg))

    out = np.empty((len(exprs), points.shape[1]))
    try:
        with np.errstate(all="ignore"):
            for row, e in enumerate(exprs):
                out[row] = value(e)
    except (ZeroDivisionError, ValueError, OverflowError):
        out[:] = np.nan
    bad = (~np.isfinite(out).all(axis=0)).nonzero()[0]
    return out, {int(k): _domain_error(tuple(exprs), tuple(names),
                                       points[:, k], out[:, k]) for k in bad}


def assert_matches_tree_fold(exprs, names, points):
    values, errors = compile_exprs(exprs, names)(points)
    ref_values, ref_errors = tree_fold(exprs, names, points)
    assert values.tobytes() == ref_values.tobytes()
    assert {k: (type(err), err.subtree, str(err))
            for k, err in errors.items()} == \
        {k: (type(err), err.subtree, str(err))
         for k, err in ref_errors.items()}
    return errors


def test_op_program_gives_each_trees_fold_bits():
    rng = np.random.default_rng(3)
    for exprs, names in corpus_evaluators() + [wrap_exprs()]:
        points = rng.uniform(-1.5, 1.5, size=(len(names), 40))
        assert_matches_tree_fold(exprs, names, points)
    # a domain error in one column, and a failing constant subexpression
    # shared by both components
    bad = Pow(Num(0), -1)
    points = np.array([[1.0, 1.0, 0.5], [2.0, -1.0, 0.0]])
    shared_log = log(y) * x
    errors = assert_matches_tree_fold(
        [shared_log + y, shared_log * shared_log, x], ["x", "y"], points)
    assert sorted(errors) == [1, 2]
    errors = assert_matches_tree_fold(
        [x * bad + y, y * bad], ["x", "y"], points)
    assert sorted(errors) == [0, 1, 2]
    assert "zero raised to a negative power" in str(errors[0])


def fold_positions(e) -> int:
    """The operations computing node e from its operands' values."""
    if isinstance(e, (Add, Mul)):
        return len(_children(e)) - 1
    if isinstance(e, Num):
        return int(e.value.denominator != 1)   # p/q is one true division
    return int(not isinstance(e, Sym))


def test_the_op_program_computes_each_node_once():
    shared = 0
    for exprs, names in [wrap_exprs()] + corpus_evaluators():
        registers, steps, outputs = _lower(tuple(exprs), tuple(names))
        nodes, stack, tree_steps = set(), list(exprs), 0
        while stack:
            e = stack.pop()
            tree_steps += fold_positions(e)
            nodes.add(e)
            stack.extend(_children(e))
        assert len(steps) == sum(map(fold_positions, nodes))
        shared += len(steps) < tree_steps
        # each step fills its own empty register from ones filled before
        filled = set(range(len(names))) | {
            len(names) + i for i, v in enumerate(registers) if v is not None}
        for k, _, i, j in steps:
            assert k not in filled and {i, j} - {None} <= filled
            filled.add(k)
        assert len(filled) == len(names) + len(registers)
        assert len(outputs) == len(exprs) and set(outputs) <= filled
    assert shared > 1


# -- is_zero -----------------------------------------------------------------

def test_is_zero_structural():
    v = is_zero((x + y) ** 2 - x ** 2 - 2 * x * y - y ** 2, PLANE.probe())
    assert v.kind == "zero"


def test_is_zero_nonzero_with_witness():
    v = is_zero(x - y, PLANE.probe(5))
    assert v.kind == "nonzero"
    assert v.witness is not None
    assert abs(v.witness["x"] - v.witness["y"]) > 0
    assert v.value != 0


def test_is_zero_pythagorean_identity_unknown_with_tiny_residual():
    v = is_zero(sin(x) ** 2 + cos(x) ** 2 - 1, PLANE.probe())
    assert v.kind == "unknown"
    assert v.max_residual < 1e-12


def test_is_zero_never_zero_when_witness_exists():
    rng = random.Random(31337)
    for seed in range(20):
        e = random_polynomial(rng, ["x", "y"], degree=3)
        if normalize(e) == ZERO:
            continue
        v1 = is_zero(e, PLANE.probe(seed))
        v2 = is_zero(e, PLANE.probe(seed))
        assert v1.kind == v2.kind  # deterministic under a fixed seed
        assert v1.kind != "zero"   # zero is reserved for structural zeros


def test_is_zero_deterministic_witness():
    v1 = is_zero(x * y - Num(Fraction(1, 7)), PLANE.probe(3))
    v2 = is_zero(x * y - Num(Fraction(1, 7)), PLANE.probe(3))
    assert v1.witness == v2.witness


def test_is_zero_all_domain_errors_is_unknown():
    e = parse("log(-1 - x^2)")  # never evaluable on the box
    v = is_zero(e, PLANE.probe(0))
    assert v.kind == "unknown"
    assert "domain errors" in (v.diagnostic or "")


def test_is_zero_counts_non_finite_values_as_domain_errors():
    # exp(700*x)*exp(700*y) overflows to inf where x + y > 1.014, and the
    # zero factor turns inf into a NaN residual
    e = normalize(parse(
        "exp(700*x)*exp(700*y)*(sin(x)^2 + cos(x)^2 - 1)"))
    v = is_zero(e, PLANE.probe())
    assert v.kind == "unknown"
    assert v.diagnostic == "10 of 64 trial points skipped"
    assert v.max_residual < 1e-12


def scalar_unit_points(count, dims, seed) -> np.ndarray:
    """The shifted Halton points, one coordinate of one point at a time by
    the scalar radical inverse."""
    state = (seed * 0x9E3779B97F4A7C15 + 0x1234567) & 0xFFFFFFFFFFFFFFFF
    shifts = []
    for _ in range(dims):
        state, u = _splitmix64(state)
        shifts.append(u)
    points = []
    for i in range(1, count + 1):
        point = []
        for base, shift in zip(_PRIMES, shifts):
            h, f, k = 0.0, 1.0, i
            while k > 0:
                f /= base
                h += f * (k % base)
                k //= base
            point.append((h + shift) % 1.0)
        points.append(point)
    return np.array(points)


@pytest.mark.parametrize("seed", [0, 25, 2**40 + 7])
def test_unit_points_match_the_scalar_halton_bit_for_bit(seed):
    want = scalar_unit_points(1000, 16, seed)
    counts = (range(1, 1001) if seed == 0
              else (1, 2, 3, 10, 99, 100, 500, 999, 1000))
    for count in counts:
        for dims in (1, 16):
            got = unit_points(count, dims, seed)
            assert got.tobytes() == want[:count, :dims].tobytes()
    box = [(-1.5, 2.0), (0.25, 0.75), (-3, 1)]
    assert box_points(box, 300, seed) == [
        tuple(lo + u * (hi - lo) for u, (lo, hi) in zip(point, box))
        for point in want[:300, :3].tolist()]


def test_is_zero_takes_the_witness_from_a_jittered_point():
    e = first_point_edge(PLANE.probe()) * y
    v = is_zero(e, PLANE.probe())
    kind, witness, used, _ = walk_trial_points(e, PLANE.probe())
    first = box_points(PLANE.box, 64, 0)[0]
    assert used[0][0] == witness == _jittered(first, PLANE.box)
    assert v.kind == kind == "nonzero"
    assert tuple(v.witness.values()) == witness
    assert v.value == pytest.approx(used[0][1], rel=1e-12)
    assert v.diagnostic is None


def test_is_zero_counts_the_points_that_fail_after_the_retry():
    e = first_point_edge(PLANE.probe()) * (sin(y) ** 2 + cos(y) ** 2 - 1)
    v = is_zero(e, PLANE.probe())
    kind, _, used, skipped = walk_trial_points(e, PLANE.probe())
    assert skipped == 17 and len(used) == 64 - 17
    assert v.kind == kind == "unknown"
    assert v.diagnostic == "17 of 64 trial points skipped"


def test_printing_round_trips_canonical_forms():
    rng = random.Random(4)
    for _ in range(30):
        e = normalize(random_polynomial(rng, ["x", "y"], degree=3))
        assert normalize(parse(to_str(e))) == e
