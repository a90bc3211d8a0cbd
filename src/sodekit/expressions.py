"""Symbolic scalar expressions over chart coordinates.

Self-contained expression engine: immutable trees built from exact rational
constants, free symbols, sums, products, rational powers, quotients and the
elementary functions exp/log/sin/cos.  The centrepiece is `normalize`, which
brings the polynomial/rational part of any expression to a canonical
expanded-and-collected form (exact Fraction arithmetic throughout), so that
structural equality of normal forms decides equality of rational functions.
Transcendental subexpressions are treated as opaque atoms with sorted,
constant-folded arguments.

Floats never enter a tree: decimal literals are converted to exact rationals
at construction time and floats only appear when `evaluate` is called.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from . import memo

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
    """Numeric domain failure, reported with the offending subtree."""

    def __init__(self, subtree: "Expr", reason: str):
        super().__init__(f"{reason} in '{subtree}'")
        self.subtree = subtree
        self.reason = reason


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"not a rational constant: {value!r}")


class Expr:
    """Immutable expression node; arithmetic operators build raw trees.
    A node caches its key and hash; a normal form carries its rational form
    (read-only) in `_rf`."""

    __slots__ = ("_key", "_hash", "_rf")

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
        return isinstance(other, Expr) and self.key == other.key

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self.key)
            object.__setattr__(self, "_hash", h)
            return h

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


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Num(_as_fraction(value))


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", _as_fraction(value))

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def _struct_key(self):
        return (0, (self.value.numerator, self.value.denominator))


class Sym(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def _struct_key(self):
        return (1, self.name)


class Fn(Expr):
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        if name not in FUNCTIONS:
            raise ExpressionError(f"unsupported function '{name}'")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def _struct_key(self):
        return (2, self.name, self.arg.key)


class Pow(Expr):
    """Power with an exact rational exponent (the only supported kind)."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent):
        if isinstance(exponent, Num):
            exponent = exponent.value
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", _as_fraction(exponent))

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def _struct_key(self):
        e = self.exponent
        return (3, self.base.key, (e.numerator, e.denominator))


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Expr]):
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def _struct_key(self):
        return (4,) + tuple(t.key for t in self.terms)


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[Expr]):
        object.__setattr__(self, "factors", tuple(factors))

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def _struct_key(self):
        return (5,) + tuple(f.key for f in self.factors)


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def _struct_key(self):
        return (6, self.num.key, self.den.key)


ZERO = Num(0)
ONE = Num(1)


def num(value) -> Num:
    return Num(value)


def sym(name: str) -> Sym:
    return Sym(name)


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
        elif isinstance(node, Fn):
            stack.append(node.arg)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Add):
            stack.extend(node.terms)
        elif isinstance(node, Mul):
            stack.extend(node.factors)
        elif isinstance(node, Div):
            stack.append(node.num)
            stack.append(node.den)
    return memo.put(key, frozenset(out))


# --------------------------------------------------------------------------
# Canonical rational form.
#
# A polynomial is a dict {monomial: Fraction}; a monomial is a sorted tuple
# of (atom, exponent) pairs with nonzero Fraction exponents.  Atoms are
# symbols, function applications (with normalized arguments) or opaque
# fractional powers of composite bases.  A rational form is a (num, den)
# polynomial pair with a canonically normalized denominator.
# --------------------------------------------------------------------------

Monomial = tuple
Poly = dict

_P_ONE: Poly = {(): Fraction(1)}


def _mon_key(mon: Monomial):
    return (sum(e for _, e in mon), tuple((a.key, e) for a, e in mon))


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
    out = [(a, exps[a]) for a in order if exps[a] != 0]
    out.sort(key=lambda p: (p[0].key, p[1]))
    return tuple(out)


def _poly_add_term(p: Poly, mon: Monomial, coeff: Fraction):
    cur = p.get(mon)
    if cur is None:
        if coeff != 0:
            p[mon] = coeff
    else:
        cur += coeff
        if cur == 0:
            del p[mon]
        else:
            p[mon] = cur


def _poly_add(p1: Poly, p2: Poly) -> Poly:
    out = dict(p1)
    for mon, c in p2.items():
        _poly_add_term(out, mon, c)
    return out


def _poly_mul(p1: Poly, p2: Poly) -> Poly:
    if not p1 or not p2:
        return {}
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


def _poly_scale(p: Poly, c: Fraction) -> Poly:
    if c == 1:
        return p
    return {m: v * c for m, v in p.items()}


def _leading(p: Poly):
    return max(p.items(), key=lambda kv: _mon_key(kv[0]))


def _is_plain_poly(p: Poly) -> bool:
    return all(
        e.denominator == 1 and e > 0 for mon in p for _, e in mon
    )


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


def _try_exact_division(p: Poly, q: Poly):
    """Quotient of p by q when the division is exact, else None.

    Standard multivariate long division in the graded order; only attempted
    on plain polynomials (positive integer exponents)."""
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
        factor_c = rc / qc
        _poly_add_term(quotient, factor_mon, factor_c)
        for m2, c2 in q.items():
            _poly_add_term(rem, _mon_mul(factor_mon, m2), -factor_c * c2)
    return quotient


def _reduce_rf(p: Poly, q: Poly):
    """Canonicalize a (num, den) pair.  No polynomial gcd is attempted;
    monomial denominators are folded in, the denominator is made content-free
    with a positive leading coefficient, and shared monomial factors with
    nonnegative joint minimum exponent are stripped."""
    if not q:
        raise ExpressionError("division by an expression that normalizes to zero")
    if not p:
        return {}, dict(_P_ONE)
    if len(q) == 1:
        ((qmon, qc),) = q.items()
        inv = tuple((a, -e) for a, e in qmon)
        out: Poly = {}
        for mon, c in p.items():
            _poly_add_term(out, _mon_mul(mon, inv), c / qc)
        return out, dict(_P_ONE)
    # strip monomial factors common to every term of both polynomials
    shared: dict = None  # type: ignore[assignment]
    for poly in (p, q):
        for mon in poly:
            expmap = dict(mon)
            if shared is None:
                shared = {a: e for a, e in expmap.items() if e > 0}
            else:
                shared = {
                    a: min(e, expmap.get(a, 0))
                    for a, e in shared.items()
                    if expmap.get(a, 0) > 0
                }
            if not shared:
                break
        if not shared:
            break
    if shared:
        inv = tuple(sorted(((a, -e) for a, e in shared.items()),
                           key=lambda pair: (pair[0].key, pair[1])))
        p = {_mon_mul(m, inv): c for m, c in p.items()}
        q = {_mon_mul(m, inv): c for m, c in q.items()}
        if len(q) == 1:
            return _reduce_rf(p, q)
    # clear the denominator when one side exactly divides the other
    exact = _try_exact_division(p, q)
    if exact is not None:
        return exact, dict(_P_ONE)
    if not (len(p) == 1 and () in p):  # constant numerators cannot reduce q
        exact = _try_exact_division(q, p)
        if exact is not None:
            return _reduce_rf(dict(_P_ONE), exact)
    # content/sign normalization of the denominator
    content = Fraction(0)
    for c in q.values():
        content = Fraction(math.gcd(content.numerator * c.denominator,
                                    c.numerator * content.denominator),
                           content.denominator * c.denominator)
    lead = _leading(q)[1]
    if lead < 0:
        content = -content
    p = _poly_scale(p, 1 / content)
    q = _poly_scale(q, 1 / content)
    return p, q


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


_FOLDS = {
    ("exp", Fraction(0)): Fraction(1),
    ("log", Fraction(1)): Fraction(0),
    ("sin", Fraction(0)): Fraction(0),
    ("cos", Fraction(0)): Fraction(1),
}


def _atom_rf(atom: Expr):
    return {((atom, Fraction(1)),): Fraction(1)}, dict(_P_ONE)


def _to_rf(e: Expr):
    rf = getattr(e, "_rf", None)
    if rf is not None:
        return rf
    if isinstance(e, Num):
        if e.value == 0:
            return {}, dict(_P_ONE)
        return {(): e.value}, dict(_P_ONE)
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
                return {((atom, q),): Fraction(1)}, dict(_P_ONE)
        # composite base: keep the radical opaque (no exponent laws applied)
        atom = Pow(_rf_to_tree(rb), q)
        return _atom_rf(atom)
    raise TypeError(f"unknown node {e!r}")


def _term_tree(mon: Monomial, coeff: Fraction) -> Expr:
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
    return hit if hit is not None else memo.put(key, _normal_tree(e))


def _normal_tree(e: Expr) -> Expr:
    p, q = _to_rf(e)
    out = _rf_to_tree((p, q))
    object.__setattr__(out, "_rf", (MappingProxyType(dict(p)),
                                    MappingProxyType(dict(q))))
    return out


# --------------------------------------------------------------------------
# Differentiation
# --------------------------------------------------------------------------

def _diff(e: Expr, name: str) -> Expr:
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return Add(tuple(_diff(t, name) for t in e.terms))
    if isinstance(e, Mul):
        parts = []
        fs = e.factors
        for i, f in enumerate(fs):
            parts.append(Mul(fs[:i] + (_diff(f, name),) + fs[i + 1:]))
        return Add(tuple(parts))
    if isinstance(e, Div):
        dn = _diff(e.num, name)
        dd = _diff(e.den, name)
        return Div(Add((Mul((dn, e.den)), Mul((Num(-1), e.num, dd)))),
                   Pow(e.den, 2))
    if isinstance(e, Pow):
        db = _diff(e.base, name)
        return Mul((Num(e.exponent), Pow(e.base, e.exponent - 1), db))
    if isinstance(e, Fn):
        da = _diff(e.arg, name)
        if e.name == "exp":
            return Mul((Fn("exp", e.arg), da))
        if e.name == "log":
            return Div(da, e.arg)
        if e.name == "sin":
            return Mul((Fn("cos", e.arg), da))
        if e.name == "cos":
            return Mul((Num(-1), Fn("sin", e.arg), da))
    raise TypeError(f"unknown node {e!r}")


def differentiate(e: Expr, symbol) -> Expr:
    """Exact partial derivative with respect to `symbol`, normalized."""
    name = symbol.name if isinstance(symbol, Sym) else symbol
    key = ("differentiate", e, name)
    hit = memo.get(key)
    return hit if hit is not None else memo.put(key, normalize(_diff(e, name)))


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
        try:
            if q.denominator == 1:
                k = q.numerator
                if base == 0.0 and k < 0:
                    raise EvalDomainError(e, "zero raised to a negative power")
                return base ** k
            if base < 0.0:
                raise EvalDomainError(e, "fractional power of a negative value")
            if base == 0.0 and q < 0:
                raise EvalDomainError(e, "zero raised to a negative power")
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
# Compilation: fast evaluators for sampling loops and ODE right-hand sides.
# The generated code performs the same operations in the same order as
# `evaluate`, so both paths agree bitwise.  The vectorized variant runs the
# same code on numpy ufuncs, which may differ from `math` in the last bit.
# --------------------------------------------------------------------------

def _emit(e: Expr, names: Mapping[str, str]) -> str:
    if isinstance(e, Num):
        v = e.value
        if v.denominator == 1:
            return f"({v.numerator})"
        return f"({v.numerator}/{v.denominator})"
    if isinstance(e, Sym):
        try:
            return names[e.name]
        except KeyError:
            raise MissingSymbolError(e.name) from None
    if isinstance(e, Add):
        return "(" + " + ".join(_emit(t, names) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + "*".join(_emit(f, names) for f in e.factors) + ")"
    if isinstance(e, Div):
        return f"({_emit(e.num, names)}/{_emit(e.den, names)})"
    if isinstance(e, Pow):
        q = e.exponent
        b = _emit(e.base, names)
        if q.denominator == 1:
            return f"({b}**{q.numerator})"
        return f"_pow({b}, {float(q)!r})"
    if isinstance(e, Fn):
        return f"_{e.name}({_emit(e.arg, names)})"
    raise TypeError(f"unknown node {e!r}")


def compile_exprs(exprs: Sequence[Expr], coord_names: Sequence[str],
                  vectorized: bool = False) -> Callable:
    """Compile expressions into one function point-tuple -> tuple of floats.

    Domain failures surface as EvalDomainError naming the failing
    subexpression, as in `evaluate`.  With `vectorized` the same emitted code
    runs on numpy ufuncs: the function takes K points as the columns of a
    (len(coord_names), K) array and returns `(values, errors)`, a
    (len(exprs), K) array and a dict from each column holding a non-finite
    value to its EvalDomainError.  Memoized; callers share the function.
    """
    exprs = tuple(exprs)
    coord_names = tuple(coord_names)
    key = ("compile_exprs", exprs, coord_names, vectorized)
    hit = memo.get(key)
    return hit if hit is not None else memo.put(
        key, _compile(exprs, coord_names, vectorized))


def _compile(exprs: tuple, coord_names: tuple, vectorized: bool) -> Callable:
    names = {n: f"_z[{i}]" for i, n in enumerate(coord_names)}
    body = ", ".join(_emit(e, names) for e in exprs)
    if len(exprs) == 1:
        body += ","
    src = f"def _compiled(_z):\n    return ({body})\n"
    scope = dict(_NUMPY_SCOPE if vectorized else _MATH_SCOPE)
    exec(src, scope)
    fn = scope["_compiled"]

    if vectorized:
        def run_columns(points):
            points = np.asarray(points, dtype=float)
            out = np.empty((len(exprs), points.shape[1]))
            try:
                with np.errstate(all="ignore"):
                    for i, value in enumerate(fn(points)):
                        out[i] = value
            except (ZeroDivisionError, ValueError, OverflowError):
                out[:] = np.nan  # a constant subexpression failed
            bad = np.flatnonzero(~np.isfinite(out).all(axis=0))
            return out, {int(k): _domain_error(exprs, coord_names,
                                               points[:, k], out[:, k])
                         for k in bad}

        return run_columns

    def run(point):
        try:
            return fn(point)
        except (ZeroDivisionError, ValueError, OverflowError) as err:
            # evaluate repeats the operations node by node and raises the
            # EvalDomainError that names the failing subtree
            assignment = dict(zip(coord_names, point))
            for e in exprs:
                evaluate(e, assignment)
            raise EvalDomainError(exprs[0], str(err) or "domain error") \
                from None

    return run


def _domain_error(exprs: tuple, coord_names: tuple, point,
                  values) -> EvalDomainError:
    """The error the scalar evaluator raises at a point where the vectorized
    one gave a non-finite value, or one naming the first such component."""
    try:
        compile_exprs(exprs, coord_names)(tuple(point))
    except EvalDomainError as err:
        return err
    j = int(np.flatnonzero(~np.isfinite(values))[0])
    return EvalDomainError(exprs[j], "non-finite value")


def _checked_log(x: float) -> float:
    if x <= 0.0:
        raise ValueError("log of a nonpositive value")
    return math.log(x)


_MATH_SCOPE = {"_pow": math.pow, "_exp": math.exp, "_log": _checked_log,
               "_sin": math.sin, "_cos": math.cos}
_NUMPY_SCOPE = {"_pow": np.power, "_exp": np.exp, "_log": np.log,
                "_sin": np.sin, "_cos": np.cos}


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

def _frac_str(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


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
