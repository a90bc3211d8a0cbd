"""Infix parser for the expression grammar.

Grammar: operators + - * / ^ with the usual precedences (^ binds tightest and
associates right), parentheses, single-argument function calls for
exp/log/sin/cos, identifiers [A-Za-z_][A-Za-z0-9_]*, and numbers written as
integers or decimals (rationals p/q arrive through the division operator and
stay exact).  Whitespace is insignificant.  Unknown symbols are not an error:
symbols are free.  The right operand of ^ must fold to a rational constant,
and neither a divisor, the base of a negative power nor the argument of log
may fold to zero.
"""

from __future__ import annotations

from fractions import Fraction

from .expressions import (
    Add, Div, Expr, ExpressionError, Fn, Mul, Num, Pow, Sym, ZERO,
    FUNCTIONS, normalize,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


_OPERATORS = "+-*/^()"
# Nesting bound: parentheses, calls, signs and exponents each open a level,
# and so does each * or / of a chain (it nests binary nodes).  It keeps the
# recursive parser and the tree walkers far from Python's recursion limit.
MAX_DEPTH = 100


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            lit = text[i:j]
            if lit.endswith("."):
                raise ParseError("malformed number", line, start_col)
            try:
                value = Fraction(lit) if seen_dot else Fraction(int(lit))
            except ValueError:  # past int()'s digit limit, or a digit like '²'
                raise ParseError(f"unreadable number of {len(lit)} characters",
                                 line, start_col) from None
            tokens.append(_Token("num", value, line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in _OPERATORS:
            tokens.append(_Token(c, c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nest(self, tok: _Token):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} "
                             "levels", tok.line, tok.column)

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected '{kind}'", tok.line, tok.column)
        return self.advance()

    def parse_expr(self) -> Expr:
        return self.parse_sum()

    def parse_sum(self) -> Expr:
        terms = [self.parse_product()]
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_product()
            if op.kind == "-":
                rhs = Mul((Num(-1), rhs))
            terms.append(rhs)
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def parse_product(self) -> Expr:
        outer = self.depth
        expr = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            self.nest(op)
            rhs = self.parse_unary()
            if op.kind == "*":
                expr = Mul((expr, rhs))
            else:
                self._nonzero(rhs, "divisor", op)
                expr = Div(expr, rhs)
        self.depth = outer
        return expr

    def parse_unary(self) -> Expr:
        tok = self.peek()
        self.nest(tok)
        if tok.kind == "-":
            self.advance()
            expr = Mul((Num(-1), self.parse_unary()))
        elif tok.kind == "+":
            self.advance()
            expr = self.parse_unary()
        else:
            expr = self.parse_power()
        self.depth -= 1
        return expr

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().kind != "^":
            return base
        op = self.advance()
        exponent = self.parse_unary()  # right-associative: x^-2, x^y^z
        q = self._fold_exponent(exponent, op)
        if q < 0:
            self._nonzero(base, "base", op)
        return Pow(base, q)

    def _fold(self, expr: Expr, what: str, tok: _Token) -> Expr:
        try:
            return normalize(expr)
        except ExpressionError as err:
            raise ParseError(f"invalid {what}: {err}", tok.line, tok.column) from None

    def _nonzero(self, divisor: Expr, what: str, tok: _Token):
        """Raise at tok when divisor folds to zero: the expression would
        have no value anywhere."""
        if self._fold(divisor, what, tok) == ZERO:
            raise ParseError(f"division by an expression that normalizes to "
                             f"zero: '{divisor}'", tok.line, tok.column)

    def _fold_exponent(self, exponent: Expr, op: _Token) -> Fraction:
        folded = self._fold(exponent, "exponent", op)
        if not isinstance(folded, Num):
            raise ParseError(
                "exponent must fold to a rational constant", op.line, op.column
            )
        return folded.value

    def parse_atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(tok.value)
        if tok.kind == "name":
            if self.peek().kind == "(":
                if tok.value not in FUNCTIONS:
                    raise ParseError(
                        f"unsupported function '{tok.value}'", tok.line, tok.column
                    )
                self.advance()
                arg = self.parse_expr()
                self.expect(")")
                fn = Fn(tok.value, arg)
                if fn.name == "log" and \
                        self._fold(arg, "log argument", tok) == ZERO:
                    # no value, and d log(u) = du/u would divide by zero
                    raise ParseError(f"log of an expression that normalizes "
                                     f"to zero: '{fn}'", tok.line, tok.column)
                return fn
            return Sym(tok.value)
        if tok.kind == "(":
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise ParseError(
            f"unexpected token {tok.value!r}" if tok.value is not None
            else "unexpected end of input",
            tok.line, tok.column,
        )


def parse(text: str) -> Expr:
    """Parse an infix expression; raises ParseError with line/column."""
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    end = parser.peek()
    if end.kind != "end":
        raise ParseError(f"unexpected token {end.value!r}", end.line, end.column)
    return expr
