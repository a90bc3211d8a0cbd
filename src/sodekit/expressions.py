"""Symbolic scalar expressions over chart coordinates.

Self-contained expression engine: immutable, hash-consed trees built from
exact rational constants, free symbols, sums, products, rational powers,
quotients and the elementary functions exp/log/sin/cos.  The centrepiece is
`normalize`, which brings the polynomial/rational part of any expression to
an expanded-and-collected form (exact rational arithmetic throughout).  The
form is canonical for polynomials, so polynomial identities are decided
structurally.  A quotient is reduced by monomials and exact division only:
a common polynomial factor of another kind is not cancelled, so two equal
rational functions may normalize apart.  Transcendental subexpressions are
treated as opaque atoms with sorted, constant-folded arguments.

Floats never enter a tree: decimal literals are converted to exact rationals
at construction time.  Floats appear only when a tree is evaluated: by
`evaluate`, the reference interpreter on one point, or by the evaluator
`compile_exprs` builds, which runs an op program on stacked columns of
points.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from . import memo

# An exact rational, an int unless truly fractional: coefficients and
# exponents of the canonical rational form.
Number = Union[int, Fraction]

FUNCTIONS = ("cos", "exp", "log", "sin")


class ExpressionError(ValueError):
    """Malformed expression (e.g. division by a literal zero)."""


class MissingSymbolError(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self):
        return f"assignment does not cover symbol '{self.name}'"


class EvalDomainError(ArithmeticError):
    """Numeric domain failure, reported with the offending subtree; `index`
    is the failing expression's place in a compiled list (`_domain_error`)."""

    def __init__(self, subtree: "Expr", reason: str, index=None):
        super().__init__(f"{reason} in '{subtree}'")
        self.subtree, self.reason, self.index = subtree, reason, index


def _as_number(value) -> Number:
    """An int, Fraction or float as an exact Number: an int unless truly
    fractional."""
    if type(value) is int:
        return value
    if not isinstance(value, (int, Fraction, float)):
        raise TypeError(f"not a rational constant: {value!r}")
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


class Expr:
    """Immutable, hash-consed expression node; arithmetic operators build raw
    trees.

    Each node class builds itself in `__new__` and interns the node in the
    memo under its intern key `_ikey`: a type tag and the node's children
    objects.  So equal trees built apart are the same object while the memo
    holds them, `hash` is the intern key's hash, computed once, and `==` is
    identity, with a shallow intern-key comparison for a node the memo's
    bound has dropped.  `key` is the structural sort key of the canonical
    term order, built lazily and cached.  A normal form carries its rational
    form (read-only) in `_rf`."""

    __slots__ = ("_ikey", "_hash", "_key", "_rf")

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def _struct_key(self):
        raise NotImplementedError

    @property
    def key(self):
        """Structural sort key; total order on all nodes."""
        try:
            return self._key
        except AttributeError:
            k = self._struct_key()
            object.__setattr__(self, "_key", k)
            return k

    def __eq__(self, other):
        return self is other or (isinstance(other, Expr)
                                 and self._hash == other._hash
                                 and self._ikey == other._ikey)

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        return Add((self, _coerce(other)))

    def __radd__(self, other):
        return Add((_coerce(other), self))

    def __sub__(self, other):
        return Add((self, Mul((Num(-1), _coerce(other)))))

    def __rsub__(self, other):
        return Add((_coerce(other), Mul((Num(-1), self))))

    def __mul__(self, other):
        return Mul((self, _coerce(other)))

    def __rmul__(self, other):
        return Mul((_coerce(other), self))

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __pow__(self, exponent):
        return Pow(self, exponent)

    def __neg__(self):
        return Mul((Num(-1), self))

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"

    def __str__(self):
        return to_str(self)


def _interned(cls, ikey: tuple, *fields) -> Expr:
    """The node of class cls the memo holds under ikey, or a new one with
    the given slot values, stored there."""
    node = memo.get(ikey)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
        object.__setattr__(node, "_ikey", ikey)
        object.__setattr__(node, "_hash", hash(ikey))
        node = memo.put(ikey, node)
    return node


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Num(value)


class Num(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        v = _as_number(value)
        return _interned(cls, (0, v.numerator, v.denominator), v)

    def _struct_key(self):
        return (0, (self.value.numerator, self.value.denominator))


class Sym(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _interned(cls, (1, name), name)

    def _struct_key(self):
        return (1, self.name)


class Fn(Expr):
    __slots__ = ("name", "arg")

    def __new__(cls, name: str, arg: Expr):
        if name not in FUNCTIONS:
            raise ExpressionError(f"unsupported function '{name}'")
        return _interned(cls, (2, name, arg), name, arg)

    def _struct_key(self):
        return (2, self.name, self.arg.key)


class Pow(Expr):
    """Power with an exact rational exponent (the only supported kind)."""

    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent):
        if isinstance(exponent, Num):
            exponent = exponent.value
        e = _as_number(exponent)
        return _interned(cls, (3, base, e.numerator, e.denominator), base, e)

    def _struct_key(self):
        e = self.exponent
        return (3, self.base.key, (e.numerator, e.denominator))


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: Iterable[Expr]):
        terms = tuple(terms)
        return _interned(cls, (4, terms), terms)

    def _struct_key(self):
        return (4,) + tuple(t.key for t in self.terms)


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: Iterable[Expr]):
        factors = tuple(factors)
        return _interned(cls, (5, factors), factors)

    def _struct_key(self):
        return (5,) + tuple(f.key for f in self.factors)


class Div(Expr):
    __slots__ = ("num", "den")

    def __new__(cls, num: Expr, den: Expr):
        return _interned(cls, (6, num, den), num, den)

    def _struct_key(self):
        return (6, self.num.key, self.den.key)


ZERO = Num(0)
ONE = Num(1)
NEG = Num(-1)


def syms(names: str) -> tuple:
    return tuple(Sym(n) for n in names.replace(",", " ").split())


def exp(arg) -> Fn:
    return Fn("exp", _coerce(arg))


def log(arg) -> Fn:
    return Fn("log", _coerce(arg))


def sin(arg) -> Fn:
    return Fn("sin", _coerce(arg))


def cos(arg) -> Fn:
    return Fn("cos", _coerce(arg))


def free_symbols(e: Expr) -> frozenset:
    """Names of the symbols in e.  Memoized."""
    key = ("free_symbols", e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out: set = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            out.add(node.name)
        else:
            stack.extend(_children(node))
    return memo.put(key, frozenset(out))


def _children(e: Expr) -> tuple:
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Div):
        return (e.num, e.den)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Fn):
        return (e.arg,)
    return ()


# --------------------------------------------------------------------------
# Canonical rational form.
#
# A polynomial is a dict {monomial: coefficient}; a monomial is a sorted
# tuple of (atom, exponent) pairs with nonzero exponents.  Coefficients and
# exponents alike are Numbers: an int unless truly fractional (then a
# Fraction with denominator > 1), so the common integer case runs on int
# arithmetic.  Every coefficient division goes through `_qdiv`; a bare `/`
# on two ints would give a float.  Atoms are symbols, function applications
# (with normalized arguments) or opaque fractional powers of composite
# bases.  A rational form is a (num, den) polynomial pair with a canonically
# normalized denominator.  `_low(*polys)` is the monomial of each atom's
# least exponent over all terms, and `_reduce_rf` divides it out of a pair
# in two parts: its positive part before the exact-division attempts, which
# divide each side by its own `_low`, and its negative part after them.  So
# a multi-term denominator and its numerator have no negative exponent and
# no monomial factor common to all their terms.
# --------------------------------------------------------------------------

Monomial = tuple
Poly = dict

_P_ONE: Poly = {(): 1}
_UNIT = MappingProxyType(dict(_P_ONE))   # the unit denominator of every _rf


def _qdiv(a: Number, b: Number) -> Number:
    """Exact quotient a / b of two coefficients, an int when integral."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _mon_key(mon: Monomial):
    return (sum(e for _, e in mon), tuple((a.key, e) for a, e in mon))


def _monomial(pairs) -> Monomial:
    """The monomial of (atom, exponent) pairs on distinct atoms, in the
    canonical order that `_mon_mul` keeps."""
    return tuple(sorted(pairs, key=lambda pair: (pair[0].key, pair[1])))


def _mon_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict = {}
    order: list = []
    for atom, e in m1 + m2:
        if atom in exps:
            exps[atom] += e
        else:
            exps[atom] = e
            order.append(atom)
    out = []
    for a in order:
        e = exps[a]
        if e:
            out.append((a, e.numerator if e.denominator == 1 else e))
    out.sort(key=lambda p: (p[0].key, p[1]))
    return tuple(out)


def _poly_add_term(p: Poly, mon: Monomial, coeff: Number):
    cur = p.get(mon)
    if cur is not None:
        coeff += cur
        if not coeff:
            del p[mon]
            return
    elif not coeff:
        return
    p[mon] = (coeff if type(coeff) is int or coeff.denominator != 1
              else coeff.numerator)


def _poly_add(p1: Poly, p2: Poly) -> Poly:
    out = dict(p1)
    for mon, c in p2.items():
        _poly_add_term(out, mon, c)
    return out


def _poly_mul(p1: Poly, p2: Poly) -> Poly:
    """The product; a unit operand returns the other as is."""
    if not p1 or not p2:
        return {}
    if len(p1) == 1 and p1.get(()) == 1:
        return p2
    if len(p2) == 1 and p2.get(()) == 1:
        return p1
    out: Poly = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            _poly_add_term(out, _mon_mul(m1, m2), c1 * c2)
    return out


def _poly_pow(p: Poly, k: int) -> Poly:
    result = dict(_P_ONE)
    base = p
    while k:
        if k & 1:
            result = _poly_mul(result, base)
        base = _poly_mul(base, base) if k > 1 else base
        k >>= 1
    return result


def _poly_scale(p: Poly, c: Number) -> Poly:
    if c == 1:
        return p
    out: Poly = {}
    for m, v in p.items():
        _poly_add_term(out, m, v * c)
    return out


def _leading(p: Poly):
    return max(p.items(), key=lambda kv: _mon_key(kv[0]))


def _is_plain_poly(p: Poly) -> bool:
    return all(e.denominator == 1 for mon in p for _, e in mon)


def _mon_quotient(mon: Monomial, div: Monomial):
    """mon / div with nonnegative exponents, or None."""
    dexp = dict(div)
    out = []
    for atom, e in mon:
        d = dexp.pop(atom, None)
        if d is None:
            out.append((atom, e))
        else:
            if d > e:
                return None
            if e - d != 0:
                out.append((atom, e - d))
    if dexp:
        return None
    return tuple(out)


def _low(*polys: Poly) -> Monomial:
    """The monomial of each atom's least exponent over every term of the
    polys, a term without the atom counting as 0."""
    mons = [dict(mon) for poly in polys for mon in poly]
    lows = ((a, min(m.get(a, 0) for m in mons)) for a in set().union(*mons))
    return _monomial((a, e) for a, e in lows if e)


def _inv(mon: Monomial) -> Monomial:
    return tuple((a, -e) for a, e in mon)


def _poly_mon(p: Poly, mon: Monomial) -> Poly:
    """p times the canonical monomial mon."""
    return {_mon_mul(m, mon): c for m, c in p.items()} if mon else p


def _try_exact_division(p: Poly, q: Poly):
    """Quotient of p by q when the division is exact, else None.

    Standard multivariate long division in the graded order of p/Mp by
    q/Mq, Mp and Mq each side's own `_low` monomial, the quotient then
    multiplied by Mp/Mq; only attempted when p/Mp and q/Mq are plain
    polynomials (integer exponents, none negative)."""
    mp, mq = _low(p), _low(q)
    p, q = _poly_mon(p, _inv(mp)), _poly_mon(q, _inv(mq))
    if not (_is_plain_poly(p) and _is_plain_poly(q)):
        return None
    qmon, qc = _leading(q)
    quotient: Poly = {}
    rem = dict(p)
    max_steps = 4 * (len(p) + len(q)) + 16
    steps = 0
    while rem:
        steps += 1
        if steps > max_steps:
            return None
        rmon, rc = _leading(rem)
        factor_mon = _mon_quotient(rmon, qmon)
        if factor_mon is None:
            return None
        factor_c = _qdiv(rc, qc)
        _poly_add_term(quotient, factor_mon, factor_c)
        for m2, c2 in q.items():
            _poly_add_term(rem, _mon_mul(factor_mon, m2), -factor_c * c2)
    return _poly_mon(quotient, _mon_mul(mp, _inv(mq)))


def _reduce_rf(p: Poly, q: Poly):
    """Canonicalize a (num, den) pair.  No polynomial gcd is attempted:
    a one-term denominator is folded into the numerator; otherwise the
    positive part of `_low(p, q)` is stripped from both sides, the pair
    drops its denominator when one side exactly divides the other, the
    negative part of the same `_low(p, q)` is cleared from both sides, and
    the denominator is made content-free with a positive leading
    coefficient.  So the result is the same for p*M/(q*M), M any monomial.

    A unit denominator {(): 1} is already canonical: the pair is returned as
    is, the same dict objects, so no caller may mutate a result."""
    if not q:
        raise ExpressionError("division by an expression that normalizes to zero")
    if not p:
        return {}, dict(_P_ONE)
    if len(q) == 1:
        ((qmon, qc),) = q.items()
        if not qmon and qc == 1:
            return p, q
        return _poly_scale(_poly_mon(p, _inv(qmon)), _qdiv(1, qc)), \
            dict(_P_ONE)
    low = _low(p, q)
    strip = tuple((a, -e) for a, e in low if e > 0)
    p, q = _poly_mon(p, strip), _poly_mon(q, strip)
    exact = _try_exact_division(p, q)
    if exact is not None:
        return exact, dict(_P_ONE)
    if len(p) > 1:  # q divided by a monomial is exact, and reduces nothing
        exact = _try_exact_division(q, p)
        if exact is not None:
            return _reduce_rf(dict(_P_ONE), exact)
    # clear the negative exponents of both sides with one monomial
    clear = tuple((a, -e) for a, e in low if e < 0)
    p, q = _poly_mon(p, clear), _poly_mon(q, clear)
    # content/sign normalization of the denominator
    content = 0
    for c in q.values():
        content = _qdiv(math.gcd(content.numerator * c.denominator,
                                 c.numerator * content.denominator),
                        content.denominator * c.denominator)
    lead = _leading(q)[1]
    if lead < 0:
        content = -content
    inv = _qdiv(1, content)
    return _poly_scale(p, inv), _poly_scale(q, inv)


def _rf_add(a, b):
    pa, qa = a
    pb, qb = b
    if qa == qb:
        return _reduce_rf(_poly_add(pa, pb), qa)
    return _reduce_rf(
        _poly_add(_poly_mul(pa, qb), _poly_mul(pb, qa)), _poly_mul(qa, qb)
    )


def _rf_mul(a, b):
    pa, qa = a
    pb, qb = b
    return _reduce_rf(_poly_mul(pa, pb), _poly_mul(qa, qb))


def _rf_pow_int(a, k: int):
    pa, qa = a
    if k >= 0:
        return _reduce_rf(_poly_pow(pa, k), _poly_pow(qa, k))
    return _reduce_rf(_poly_pow(qa, -k), _poly_pow(pa, -k))


_FOLDS = {("exp", 0): 1, ("log", 1): 0, ("sin", 0): 0, ("cos", 0): 1}


def _atom_rf(atom: Expr):
    return {((atom, 1),): 1}, dict(_P_ONE)


def _to_rf(e: Expr):
    rf = getattr(e, "_rf", None)
    if rf is not None:
        return rf
    if isinstance(e, Num):
        v = e.value
        if v == 0:
            return {}, dict(_P_ONE)
        return {(): v}, dict(_P_ONE)
    if isinstance(e, Sym):
        return _atom_rf(e)
    if isinstance(e, Add):
        rf = ({}, dict(_P_ONE))
        for t in e.terms:
            rf = _rf_add(rf, _to_rf(t))
        return rf
    if isinstance(e, Mul):
        rf = (dict(_P_ONE), dict(_P_ONE))
        for f in e.factors:
            rf = _rf_mul(rf, _to_rf(f))
        return rf
    if isinstance(e, Div):
        pn, qn = _to_rf(e.num)
        pd, qd = _to_rf(e.den)
        if not pd:
            raise ExpressionError("division by an expression that normalizes to zero")
        return _reduce_rf(_poly_mul(pn, qd), _poly_mul(qn, pd))
    if isinstance(e, Fn):
        arg = normalize(e.arg)
        if isinstance(arg, Num):
            if e.name == "log" and arg == ZERO:  # du/u would divide by 0
                raise ExpressionError(f"log of an expression that normalizes "
                                      f"to zero: '{e}'")
            fold = _FOLDS.get((e.name, arg.value))
            if fold is not None:
                return _to_rf(Num(fold))
        return _atom_rf(Fn(e.name, arg))
    if isinstance(e, Pow):
        q = e.exponent
        if q == 0:
            return dict(_P_ONE), dict(_P_ONE)
        if q.denominator == 1:
            return _rf_pow_int(_to_rf(e.base), q.numerator)
        rb = _to_rf(e.base)
        pb, qb = rb
        if qb == _P_ONE and len(pb) == 1:
            ((mon, c),) = pb.items()
            if c == 1 and len(mon) == 1 and mon[0][1] == 1:
                # bare atom: exponents combine exactly
                atom = mon[0][0]
                return {((atom, q),): 1}, dict(_P_ONE)
        # composite base: keep the radical opaque (no exponent laws applied)
        atom = Pow(_rf_to_tree(rb), q)
        return _atom_rf(atom)
    raise TypeError(f"unknown node {e!r}")


def _term_tree(mon: Monomial, coeff: Number) -> Expr:
    factors = []
    if coeff != 1 or not mon:
        factors.append(Num(coeff))
    for atom, e in mon:
        factors.append(atom if e == 1 else Pow(atom, e))
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


def _poly_tree(p: Poly) -> Expr:
    if not p:
        return ZERO
    terms = sorted(p.items(), key=lambda kv: _mon_key(kv[0]), reverse=True)
    trees = [_term_tree(m, c) for m, c in terms]
    if len(trees) == 1:
        return trees[0]
    return Add(tuple(trees))


def _rf_to_tree(rf) -> Expr:
    p, q = rf
    if q == _P_ONE:
        return _poly_tree(p)
    return Div(_poly_tree(p), _poly_tree(q))


def normalize(e: Expr) -> Expr:
    """Canonical form; idempotent, and zero iff the result is the literal 0.
    Memoized; a normal tree is returned as is."""
    if getattr(e, "_rf", None) is not None:
        return e
    key = ("normalize", e)
    hit = memo.get(key)
    return hit if hit is not None else memo.put(key, _attach_rf(*_to_rf(e)))


def _attach_rf(p: Poly, q: Poly) -> Expr:
    """The normal tree of the canonical pair (p, q), carrying it read-only."""
    out = _rf_to_tree((p, q))
    if getattr(out, "_rf", None) is None:
        object.__setattr__(out, "_rf", (MappingProxyType(dict(p)), _UNIT
                                        if q == _P_ONE else
                                        MappingProxyType(dict(q))))
    return out


def dot(products) -> Expr:
    """Normal form of a sum of products, each a tuple of factors; a product
    with a ZERO factor is skipped.  The sum is formed on the factors'
    rational forms and only the result is interned.  While every product is
    a polynomial (unit denominators) its terms are added in place; from the
    first product with a rational factor on, each product is folded with
    `_rf_mul` and added with `_rf_add` in order, as `normalize` folds
    `Add(Mul(...), ...)`, so the result is that tree's normal form."""
    total: Poly = {}
    rf = None   # the running sum, once a product has a rational factor
    for f in products:
        if ZERO in f:
            continue
        rfs = [normalize(x)._rf for x in f]
        if rf is None and all(q is _UNIT for _, q in rfs):
            prod = rfs[0][0]
            for p, _ in rfs[1:]:
                prod = _poly_mul(prod, p)
            for mon, c in prod.items():
                _poly_add_term(total, mon, c)
            continue
        term = rfs[0]
        for x in rfs[1:]:
            term = _rf_mul(term, x)
        rf = _rf_add(rf or (total, _P_ONE), term)
    return _attach_rf(*(rf or (total, _P_ONE)))


# --------------------------------------------------------------------------
# Differentiation
# --------------------------------------------------------------------------

def differentiate(e: Expr, symbol) -> Expr:
    """Exact partial derivative with respect to `symbol`, normalized.
    Memoized.  Formed on the rational form p/q of e: each polynomial term by
    term, the sum of k c (m/a) da over the atoms a^k of each monomial m,
    then (dp q - p dq)/q^2 when q is not 1 (dp/q when dq is 0)."""
    name = symbol.name if isinstance(symbol, Sym) else symbol
    key = ("differentiate", e, name)
    hit = memo.get(key)
    return hit if hit is not None else memo.put(key, _derivative(e, name))


def _derivative(e: Expr, name: str) -> Expr:
    e = normalize(e)
    p, q = e._rf
    dp = _poly_derivative(p, e, name)
    if q is _UNIT:
        return _attach_rf(*dp)
    dq = _poly_derivative(q, e, name)
    if dq[0]:  # (dp q - p dq)/q^2; else dp/q
        dp = _rf_add(_rf_mul(dp, (q, _P_ONE)),
                     _rf_mul((_poly_scale(p, -1), _P_ONE), dq))
        q = _poly_mul(q, q)
    return _attach_rf(*_rf_mul(dp, (_P_ONE, q)))


def _poly_derivative(p: Poly, e: Expr, name: str):
    """The rational form of dp/d name, term by term.  An atom's derivative
    da is memoized, but the atom e itself, the normal form p belongs to,
    takes the chain rule.  Terms whose da is a polynomial are added in
    place, the others as rational forms."""
    total: Poly = {}
    rest = None
    for mon, c in p.items():
        for a, k in mon:
            pd, qd = (_atom_derivative(a, name) if a == e
                      else differentiate(a, name))._rf
            if not pd:
                continue
            base = _mon_mul(mon, ((a, -1),))
            if qd is _UNIT:
                for m2, c2 in pd.items():
                    _poly_add_term(total, _mon_mul(base, m2), k * c * c2)
                continue
            term = _rf_mul((_poly_scale({base: 1}, k * c), _P_ONE), (pd, qd))
            rest = term if rest is None else _rf_add(rest, term)
    return (total, _P_ONE) if rest is None else _rf_add((total, _P_ONE), rest)


def _atom_derivative(a: Expr, name: str) -> Expr:
    """The chain rule on an atom of a rational form: a symbol, a function
    of a normal argument or a fractional power of a composite base."""
    if isinstance(a, Sym):
        return normalize(ONE if a.name == name else ZERO)
    if isinstance(a, Pow):
        r = a.exponent
        db = differentiate(a.base, name)
        return dot(((Num(r), Pow(a.base, r - 1), db),))
    da = differentiate(a.arg, name)
    if a.name == "log":
        return normalize(Div(da, a.arg))
    if a.name == "cos":
        return dot(((NEG, Fn("sin", a.arg), da),))
    return dot(((a if a.name == "exp" else Fn("cos", a.arg), da),))


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

def evaluate(e: Expr, assignment: Mapping[str, float]) -> float:
    """IEEE double value of e under the assignment.

    Deterministic: the traversal order is fixed by the tree.  Raises
    MissingSymbolError for uncovered symbols and EvalDomainError for
    log of a nonpositive value, division by zero, fractional powers of
    negative values and overflow, naming the offending subtree.
    """
    if isinstance(e, Num):
        try:
            return float(e.value)
        except OverflowError:
            raise EvalDomainError(e, "overflow") from None
    if isinstance(e, Sym):
        try:
            return float(assignment[e.name])
        except KeyError:
            raise MissingSymbolError(e.name) from None
    if isinstance(e, Add):
        acc = 0.0
        for t in e.terms:
            acc += evaluate(t, assignment)
        return acc
    if isinstance(e, Mul):
        acc = 1.0
        for f in e.factors:
            acc *= evaluate(f, assignment)
        return acc
    if isinstance(e, Div):
        den = evaluate(e.den, assignment)
        if den == 0.0:
            raise EvalDomainError(e, "division by zero")
        return evaluate(e.num, assignment) / den
    if isinstance(e, Pow):
        base = evaluate(e.base, assignment)
        q = e.exponent
        if base == 0.0 and q < 0:
            raise EvalDomainError(e, "zero raised to a negative power")
        try:
            if q.denominator == 1:
                return base ** q.numerator
            if base < 0.0:
                raise EvalDomainError(e, "fractional power of a negative value")
            return math.pow(base, float(q))
        except OverflowError:
            raise EvalDomainError(e, "overflow") from None
    if isinstance(e, Fn):
        val = evaluate(e.arg, assignment)
        try:
            if e.name == "exp":
                return math.exp(val)
            if e.name == "log":
                if val <= 0.0:
                    raise EvalDomainError(e, "log of a nonpositive value")
                return math.log(val)
            if e.name == "sin":
                return math.sin(val)
            if e.name == "cos":
                return math.cos(val)
        except OverflowError:
            raise EvalDomainError(e, "overflow") from None
        except ValueError as err:  # sin or cos of an infinite value
            raise EvalDomainError(e, str(err)) from None
    raise TypeError(f"unknown node {e!r}")


# --------------------------------------------------------------------------
# Compilation: the one compiled evaluator, for sampling loops, rank tests,
# Newton searches and ODE right-hand sides.  `_lower` turns the expressions
# into an op program that performs the operations of `evaluate` in the same
# order, on stacked columns of points with numpy ufuncs.  A ufunc gives the
# same bits for a column whatever the batch size, but may differ from `math`
# in the last bit (exp, log and integer powers do on a few percent of
# arguments; sin and cos rarely).  Each distinct node of the interned trees
# gets one register, so a subexpression the trees share is computed once.
# --------------------------------------------------------------------------

def compile_exprs(exprs: Sequence[Expr],
                  coord_names: Sequence[str]) -> Callable:
    """Compile expressions into one function on stacked points.

    The function takes K points as the columns of a (len(coord_names), K)
    array and returns `(values, errors)`: a (len(exprs), K) array and a dict
    from each column holding a non-finite value to its EvalDomainError,
    which names the failing subexpression as `evaluate` does; a batch whose
    values are all finite returns as soon as one dot product proves it, and
    only another one is scanned column by column.  A node the expressions
    share is computed once per call.  Memoized; callers share the function.
    """
    exprs = tuple(exprs)
    coord_names = tuple(coord_names)
    key = ("compile_exprs", exprs, coord_names)
    hit = memo.get(key)
    if hit is not None:
        return hit
    registers, steps, outputs = _lower(exprs, coord_names)

    def run(points):
        points = np.asarray(points, dtype=float)
        out = np.empty((len(exprs), points.shape[1]))
        r = [*points, *registers]
        with np.errstate(all="ignore"):  # float64 registers: no step raises
            for k, fn, i, j in steps:
                r[k] = fn(r[i]) if j is None else fn(r[i], r[j])
            for row, k in enumerate(outputs):
                out[row] = r[k]
            # a finite sum of squares (one BLAS dot) proves every value
            # finite; finite values may overflow it, and the column scan
            # below decides then
            if math.isfinite(np.vdot(out, out)):
                return out, {}
        bad = (~np.isfinite(out).all(axis=0)).nonzero()[0]
        return out, {int(k): _domain_error(exprs, coord_names, points[:, k],
                                           out[:, k])
                     for k in bad}

    return memo.put(key, run)


def _lower(exprs: tuple, coord_names: tuple):
    """The op program of exprs: `(registers, steps, outputs)`.

    A call's registers are the coordinate rows followed by `registers`:
    the np.float64 of each constant and exponent (NaN past the float
    range: only the expressions reading it fail), and None where a step
    writes.  A step `(k, fn, i, j)` sets `r[k] = fn(r[i])`, or
    `fn(r[i], r[j])` when j is not None; `outputs` holds each expression's
    register.  Each distinct node gets one register.  Raises
    MissingSymbolError for a symbol outside coord_names."""
    reg = {Sym(name): i for i, name in enumerate(coord_names)}
    registers, steps = [], []

    def new(value) -> int:
        registers.append(value)
        return len(coord_names) + len(registers) - 1

    def const(q: Number) -> int:  # rounded as `evaluate`'s float()
        try:
            return new(np.float64(q))
        except OverflowError:
            return new(np.float64(np.nan))

    def step(fn, i, j=None) -> int:
        k = new(None)
        steps.append((k, fn, i, j))
        return k

    def visit(e: Expr) -> int:
        k = reg.get(e)
        if k is not None:
            return k
        if isinstance(e, Num):
            k = const(e.value)
        elif isinstance(e, Sym):
            raise MissingSymbolError(e.name)
        elif isinstance(e, (Add, Mul)):  # a left fold
            fn = operator.add if isinstance(e, Add) else operator.mul
            k, *rest = [visit(c) for c in _children(e)]
            for j in rest:
                k = step(fn, k, j)
        elif isinstance(e, Div):
            k = step(operator.truediv, visit(e.num), visit(e.den))
        elif isinstance(e, Pow):
            q = e.exponent
            k = step(operator.pow if q.denominator == 1 else np.power,
                     visit(e.base), const(q))
        elif isinstance(e, Fn):
            k = step(getattr(np, e.name), visit(e.arg))
        else:
            raise TypeError(f"unknown node {e!r}")
        reg[e] = k
        return k

    outputs = [visit(e) for e in exprs]
    return registers, steps, outputs


def _domain_error(exprs: tuple, coord_names: tuple, point,
                  values) -> EvalDomainError:
    """The first error `evaluate` raises on exprs at a point where the
    compiled evaluator gave non-finite `values`, or else one naming the
    first such value; its `index` is the failing expression's."""
    assignment = dict(zip(coord_names, point.tolist()))
    for index, e in enumerate(exprs):
        try:
            evaluate(e, assignment)
        except EvalDomainError as err:
            err.index = index
            return err
    index = int(np.flatnonzero(~np.isfinite(values))[0])
    return EvalDomainError(exprs[index], "non-finite value", index)


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

def _frac_str(v: Fraction) -> str:
    """A constant as decimal text; one past Python's digit limit for
    integer-string conversion is an input error."""
    try:
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    except ValueError:
        raise ExpressionError(
            f"a constant has more than {sys.get_int_max_str_digits()} "
            f"digits, Python's limit for printing an integer") from None


def _needs_mul_parens(e: Expr) -> bool:
    if isinstance(e, Add):
        return True
    if isinstance(e, Num):
        return v_negative(e) or e.value.denominator != 1
    return False


def v_negative(e: Expr) -> bool:
    return isinstance(e, Num) and e.value < 0


def _pow_base_str(e: Expr) -> str:
    if isinstance(e, (Sym, Fn)):
        return to_str(e)
    if isinstance(e, Num) and e.value >= 0 and e.value.denominator == 1:
        return to_str(e)
    return "(" + to_str(e) + ")"


def _term_split(e: Expr):
    """Split a term into (negative?, printable absolute part)."""
    if isinstance(e, Num) and e.value < 0:
        return True, _frac_str(-e.value)
    if isinstance(e, Mul) and e.factors and isinstance(e.factors[0], Num):
        c = e.factors[0].value
        if c < 0:
            rest = e.factors[1:]
            if -c == 1 and rest:
                body = Mul(rest) if len(rest) > 1 else rest[0]
            else:
                body = Mul((Num(-c),) + rest)
            return True, to_str(body)
    return False, to_str(e)


def to_str(e: Expr) -> str:
    """Grammar-conformant infix rendering; parse(to_str(e)) equals e
    semantically."""
    if isinstance(e, Num):
        return _frac_str(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Fn):
        return f"{e.name}({to_str(e.arg)})"
    if isinstance(e, Pow):
        q = e.exponent
        if q.denominator == 1 and q >= 0:
            return f"{_pow_base_str(e.base)}^{q.numerator}"
        return f"{_pow_base_str(e.base)}^({_frac_str(q)})"
    if isinstance(e, Mul):
        if not e.factors:
            return "1"
        one = Num(1)
        factors = [f for f in e.factors if f != one] or [one]
        parts = []
        for f in factors:
            s = to_str(f)
            if _needs_mul_parens(f):
                s = "(" + s + ")"
            parts.append(s)
        return "*".join(parts)
    if isinstance(e, Div):
        num = to_str(e.num)
        if isinstance(e.num, (Add, Div)) or v_negative(e.num):
            num = "(" + num + ")"
        den = to_str(e.den)
        if not isinstance(e.den, (Sym, Fn)):
            den = "(" + den + ")"
        return f"{num}/{den}"
    if isinstance(e, Add):
        if not e.terms:
            return "0"
        pieces = []
        for i, t in enumerate(e.terms):
            neg, body = _term_split(t)
            if i == 0:
                pieces.append("-" + body if neg else body)
            else:
                pieces.append(("- " if neg else "+ ") + body)
        return " ".join(pieces)
    raise TypeError(f"unknown node {e!r}")
