import random
from fractions import Fraction

import pytest

from sodekit.expressions import (
    Add, Fn, Mul, Num, Pow, Sym, evaluate, free_symbols, normalize,
    to_str,
)
from sodekit.parser import ParseError, parse
from tests.conftest import random_polynomial


def test_sum_of_power_and_product():
    e = parse("y^2 + x*y")
    assert isinstance(e, Add)
    assert e.terms[0] == Pow(Sym("y"), 2)
    assert e.terms[1] == Mul((Sym("x"), Sym("y")))


def test_function_product():
    e = parse("exp(x)*sin(y)")
    assert isinstance(e, Mul)
    assert e.factors[0] == Fn("exp", Sym("x"))
    assert e.factors[1] == Fn("sin", Sym("y"))


def test_zero_denominator_exponent_rejected():
    with pytest.raises(ParseError):
        parse("y^(1/0)")


@pytest.mark.parametrize("text,divisor,column", [
    ("1/(x - x)", "x - x", 2),
    ("y + x/(2*y - y - y)*3", "2*y - y - y", 6),
    ("(x*y - y*x)^-2", "x*y - y*x", 12),
    ("x/(1/2 - 0.5)", "1/2 - 0.5", 2),
])
def test_division_by_a_zero_normal_form_rejected(text, divisor, column):
    # no value anywhere: the divisor, or the base of a negative power, is
    # folded at parse time and the error names it, as parsed, and the
    # operator
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.message == (
        f"division by an expression that normalizes to zero: "
        f"'{parse(divisor)}'")
    assert (err.value.line, err.value.column) == (1, column)


def test_nonzero_divisors_parse():
    assert parse("1/(x - y)") is not None
    assert parse("(x - x + 1)^-1") is not None


def test_nonconstant_exponent_rejected():
    with pytest.raises(ParseError, match="rational constant"):
        parse("x^y")


def test_constant_exponent_folds():
    assert parse("x^(3-1)") == Pow(Sym("x"), 2)
    assert parse("x^-2") == Pow(Sym("x"), -2)
    assert parse("x^(1/2)") == Pow(Sym("x"), Fraction(1, 2))


def test_unknown_symbols_are_free():
    e = parse("alpha_3 * q0")
    assert free_symbols(e) == {"alpha_3", "q0"}


def test_unknown_function_rejected():
    with pytest.raises(ParseError, match="unsupported function"):
        parse("tan(x)")


def test_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse("x +\n* y")
    assert err.value.line == 2
    assert err.value.column == 1


@pytest.mark.parametrize("text,message,location", [
    ("x + 1.", "malformed number", (1, 5)),
    ("x $ y", "unexpected character '$'", (1, 3)),
    ("sin(x", "expected ')'", (1, 6)),
    ("x +", "unexpected end of input", (1, 4)),
])
def test_syntax_errors_carry_message_and_location(text, message, location):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == \
        f"{message} (line {location[0]}, column {location[1]})"
    assert (err.value.line, err.value.column) == location


def test_unary_plus_is_the_identity():
    assert parse("+x") == parse("x")
    assert parse("y - +x") == parse("y - x")


@pytest.mark.parametrize("text", [
    "(" * 3000 + "x" + ")" * 3000,
    "-" * 3000 + "x",
    "2^" * 3000 + "2",
    "*".join(["x"] * 3000),
    "exp(" * 101 + "x" + ")" * 101,
])
def test_nesting_beyond_the_limit_rejected(text):
    with pytest.raises(ParseError, match="nested deeper than 100 levels"):
        parse(text)


def test_nesting_up_to_the_limit_parses():
    text = "sin(" * 99 + "x" + ")" * 99
    assert to_str(normalize(parse(text))) == text


def test_leftover_tokens_rejected():
    with pytest.raises(ParseError):
        parse("x y")


def test_an_unreadable_number_is_a_parse_error():
    # int() reads at most 4300 digits by default, and not every character
    # str.isdigit() accepts is a digit it reads
    for text, column in [("x + " + "1" * 4400, 5), ("0." + "1" * 5000, 1),
                         ("y*3\u00b2", 3)]:
        with pytest.raises(ParseError, match="unreadable number") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (1, column)
    assert parse("9" * 4300) == Num(10 ** 4300 - 1)


def test_decimals_are_exact_rationals():
    assert parse("0.5") == Num(Fraction(1, 2))
    assert parse("2.25") == Num(Fraction(9, 4))


def test_rationals_via_division_stay_exact():
    assert normalize(parse("1/3 + 1/3 + 1/3")) == Num(1)


def test_precedence_and_unary_minus():
    assert normalize(parse("-x^2")) == normalize(-(Sym("x") ** 2))
    assert normalize(parse("1/2*x")) == normalize(Num(Fraction(1, 2)) * Sym("x"))
    assert normalize(parse("2 - -3")) == Num(5)
    assert normalize(parse("x - y - z")) == normalize(
        Sym("x") - Sym("y") - Sym("z")
    )


def test_round_trip_random_polynomials():
    rng = random.Random(20240817)
    for _ in range(60):
        e = random_polynomial(rng, ["x", "y", "w"])
        again = parse(to_str(normalize(e)))
        assert normalize(again) == normalize(e)


def test_round_trip_with_functions_and_quotients():
    texts = [
        "exp(x)*sin(y) - cos(x*y)/(1 + y^2)",
        "log(1 + x^2) + x^(1/2)",
        "(x + y)^3/(x - y) - 7/3",
    ]
    assignment = {"x": 0.37, "y": 0.21}
    for text in texts:
        e = parse(text)
        again = parse(to_str(normalize(e)))
        assert abs(evaluate(again, assignment)
                   - evaluate(e, assignment)) < 1e-12
