"""Independent oracle for the memoized engine: `normalize` on random small
rational trees and `differentiate` on random polynomial, rational and
elementary trees (the term rule, the quotient rule and the chain rule),
checked against sympy; the sums of products formed on rational forms
(`dot`, `lie_bracket`), checked against the normal forms of their trees; and
the zero test's array walk, checked against a replay one point at a time."""

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sodekit.expressions import (  # noqa: E402
    Add, Div, ExpressionError, Fn, FUNCTIONS, Mul, Num, Pow, Sym,
    _rf_to_tree, _to_rf, differentiate, dot, normalize,
)
from sodekit.geometry import Chart, lie_bracket  # noqa: E402
from sodekit.parser import parse  # noqa: E402
from sodekit.sampling import TRIALS, is_zero  # noqa: E402
from tests.conftest import (  # noqa: E402
    INSTANCES, first_point_edge, walk_trial_points,
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
    return getattr(sympy, e.name)(to_sympy(e.arg))


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


def _elementary_branches(children):
    """The rational branches, fractional powers and the functions."""
    return st.one_of(
        _branches(children),
        st.builds(Pow, children,
                  st.fractions(min_value=-2, max_value=2, max_denominator=3)),
        st.builds(Fn, st.sampled_from(FUNCTIONS), children),
    )


def _polynomial_branches(children):
    terms = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(terms.map(Add), terms.map(Mul), st.builds(
        Pow, children, st.integers(min_value=1, max_value=2)))


polynomials = st.recursive(leaves, _polynomial_branches, max_leaves=8)
elementary = st.recursive(leaves, _elementary_branches, max_leaves=8)
inputs = st.one_of(polynomials, trees, elementary)


@ORACLE
@given(inputs, st.sampled_from(NAMES))
def test_differentiate_agrees_with_sympy(e, name):
    try:
        got = differentiate(e, name)
    except ExpressionError:
        return
    assert same_function(to_sympy(got),
                         sympy.diff(to_sympy(e), sympy.Symbol(name)))


@pytest.mark.parametrize("text", [
    "x*y/(y - 2)", "(x + y)/(x - y^2) + x^2", "sin(x)/(1 + x*cos(y))",
    "exp(1/(1 + x^2))", "log(x^2 + y^2 + 1)*y", "(x^2 + y)^(1/2)",
    "x^(1/3)*log(x) + 1/(x^(2/3) + y)"])
def test_quotient_and_chain_rules_agree_with_sympy(text):
    e = parse(text)
    for name in NAMES:
        assert same_function(to_sympy(differentiate(e, name)),
                             sympy.diff(to_sympy(e), sympy.Symbol(name)))


def test_differentiate_normalizes_before_the_product_rule():
    # 0^0 is 1: a product-rule tree would form 0 * 0^(-1) and divide by zero
    assert differentiate(Pow(Num(0), 0) * Sym("x"), "x") == Num(1)


def outcome(fn, *args):
    """fn's value, or the type and message of the ExpressionError it
    raises (a denominator or log argument that normalizes to zero)."""
    try:
        return fn(*args)
    except ExpressionError as err:
        return (ExpressionError, str(err))


def normal_or_raw(e):
    """e's normal form, as the callers pass factors, or e itself when it
    has none."""
    got = outcome(normalize, e)
    return e if type(got) is tuple else got


# sums of products with their factors already normal, as the callers pass
# them, or raw trees
products = st.lists(st.lists(st.one_of(inputs, inputs.map(normal_or_raw)),
                             min_size=1, max_size=3).map(tuple),
                    min_size=0, max_size=3)


def tree_sum(ps):
    """The normal form of the sum's tree; a product with a literal zero
    factor is left out unevaluated, as `dot` documents."""
    return normalize(Add(tuple(Mul(f) for f in ps if Num(0) not in f)))


@ORACLE
@given(products)
def test_dot_is_the_normal_form_of_its_tree(ps):
    want = outcome(tree_sum, ps)
    got = outcome(dot, ps)
    assert got is want or (type(got) is tuple and got == want)


def tree_bracket(X, Y) -> tuple:
    """[X, Y]^k = X^j dY^k/dz^j - Y^j dX^k/dz^j as one normalized tree."""
    return tuple(
        normalize(sum((X.components[j] * differentiate(Y.components[k], n)
                       - Y.components[j] * differentiate(X.components[k], n)
                       for j, n in enumerate(X.chart.names)), Num(0)))
        for k in range(X.chart.dim))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_lie_bracket_is_the_normal_form_of_its_tree(name):
    manifest = INSTANCES[name]()
    F, V = manifest.vector_field(), manifest.frame_fields()
    pairs = [(F, v) for v in V] + [(v, u) for v in V for u in V]
    pairs += [(F, lie_bracket(F, v)) for v in V]
    for X, Y in pairs:
        got = lie_bracket(X, Y).components
        assert all(a is b for a, b in zip(got, tree_bracket(X, Y)))


# random polynomials on [-1, 1]^2 times a factor that fails on part of the
# box, on all of it (log(x - 1)), at the first trial point but not at its
# jittered retry (EDGE), or overflows near a corner, and a factor that
# vanishes without being a structural zero
EDGE = "edge"
monomials = st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                      st.integers(0, 2), st.integers(0, 2)).map(
    lambda t: "{}*x^{}*y^{}".format(*t))
domains = st.sampled_from([
    "1", "exp(x*y)", "log(x + 1/2)", "log(x - 99/100)", "log(x - 1)",
    "exp(700*x)*exp(700*y)", EDGE])
vanishing = st.sampled_from(["1", "(sin(y)^2 + cos(y)^2 - 1)"])
PLANE = Chart(["x", "y"], [(-1, 1), (-1, 1)])


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(st.lists(monomials, min_size=1, max_size=4), domains, vanishing,
       st.integers(0, 3))
def test_the_zero_test_replays_one_point_at_a_time(poly, domain, factor, seed):
    probe = PLANE.probe(seed)
    e = parse(f"({' + '.join(poly)})*{factor}") * (
        first_point_edge(probe) if domain == EDGE else parse(domain))
    v = is_zero(e, probe)
    kind, witness, used, skipped = walk_trial_points(e, probe)
    assert v.kind == kind
    if kind == "nonzero":
        assert tuple(v.witness.values()) == witness
        assert v.value == pytest.approx(used[-1][1], rel=1e-12)
    if kind == "unknown":
        assert len(used) + skipped == TRIALS
        assert v.diagnostic == (
            "all trial points hit evaluation domain errors" if not used
            else f"{skipped} of {TRIALS} trial points skipped" if skipped
            else None)
        assert (v.max_residual == 1.0) == (not used)
