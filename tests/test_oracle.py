"""Independent oracle for the memoized engine: `normalize` and
`differentiate` on random small rational trees, checked against sympy."""

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sodekit.expressions import (  # noqa: E402
    Add, Div, ExpressionError, Mul, Num, Pow, Sym, _rf_to_tree, _to_rf,
    differentiate, normalize,
)

NAMES = ("x", "y")

leaves = st.one_of(
    st.sampled_from(NAMES).map(Sym),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).map(Num),
)


def _branches(children):
    terms = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        terms.map(Add),
        terms.map(Mul),
        st.builds(Div, children, children),
        st.builds(Pow, children, st.integers(min_value=-2, max_value=3)),
    )


trees = st.recursive(leaves, _branches, max_leaves=10)


def to_sympy(e):
    if isinstance(e, Num):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Sym):
        return sympy.Symbol(e.name)
    if isinstance(e, Add):
        return sympy.Add(*[to_sympy(t) for t in e.terms])
    if isinstance(e, Mul):
        return sympy.Mul(*[to_sympy(f) for f in e.factors])
    if isinstance(e, Div):
        return to_sympy(e.num) / to_sympy(e.den)
    if isinstance(e, Pow):
        q = e.exponent
        return to_sympy(e.base) ** sympy.Rational(q.numerator, q.denominator)
    raise TypeError(f"not a rational tree: {e!r}")


def rebuilt(e):
    """A structurally equal copy of e made of new nodes."""
    if isinstance(e, Num):
        return Num(e.value)
    if isinstance(e, Sym):
        return Sym(e.name)
    if isinstance(e, Add):
        return Add(rebuilt(t) for t in e.terms)
    if isinstance(e, Mul):
        return Mul(rebuilt(f) for f in e.factors)
    if isinstance(e, Div):
        return Div(rebuilt(e.num), rebuilt(e.den))
    return Pow(rebuilt(e.base), e.exponent)


def same_function(a, b) -> bool:
    return sympy.simplify(a - b) == 0


ORACLE = settings(max_examples=150, deadline=None, database=None,
                  derandomize=True)


@ORACLE
@given(trees)
def test_normalize_agrees_with_sympy_and_its_own_memo(e):
    try:
        got = normalize(e)
    except ExpressionError:  # a denominator that is identically zero
        return
    assert same_function(to_sympy(got), to_sympy(e))
    copy = rebuilt(e)
    assert normalize(copy) == got
    # computed from new nodes without the memo, the input and the normal
    # form itself both give that normal form back
    assert _rf_to_tree(_to_rf(rebuilt(e))) == got
    assert _rf_to_tree(_to_rf(rebuilt(got))) == got


@ORACLE
@given(trees, st.sampled_from(NAMES))
def test_differentiate_agrees_with_sympy(e, name):
    try:
        got = differentiate(e, name)
    except ExpressionError:
        return
    assert same_function(to_sympy(got),
                         sympy.diff(to_sympy(e), sympy.Symbol(name)))
