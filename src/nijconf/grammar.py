"""Text grammar for polynomial literals.

    rational ::= int | int "/" posint
    var      ::= "del" | "lam1" | "lam2" | "lam3" | "lam4"
    expr     ::= sums of products of powers with "+ - * ^" and parentheses

Whitespace is insignificant; juxtaposition is not multiplication, ``*`` is
required between factors.  ``parse_poly`` and ``format_poly`` are mutually
inverse on canonical forms.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ArityError
from .poly import Poly

MAX_ARITY = 4
# Largest total degree a power may produce.  Powers are computed eagerly, so
# without a bound one short literal can take unbounded time; a constant base
# counts as degree 1, which also bounds the size of its coefficient.
MAX_LITERAL_DEGREE = 16

VAR_NAMES = ["del"] + ["lam%d" % i for i in range(1, MAX_ARITY + 1)]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


class ParseError(ValueError):
    """A malformed literal; ``pos`` is the offending index in the literal,
    which callers turn into a column of their own."""

    def __init__(self, message, pos):
        super().__init__(message)
        self.pos = pos


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match or match.end() == match.start():
            rest = text[pos:]
            if rest.strip():
                bad = pos + len(rest) - len(rest.lstrip())
                raise ParseError("unexpected character %r" % text[bad], bad)
            break
        # the token's own position, past the whitespace the match skipped
        kind = match.lastgroup
        value = int(match.group(kind)) if kind == "num" else match.group(kind)
        tokens.append((kind, value, match.start(kind)))
        pos = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens, arity):
        self.tokens = tokens
        self.index = 0
        self.arity = arity

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError("expected %r" % op, pos)
        self.advance()

    def parse_expr(self):
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.advance()
            negate = value == "-"
        acc = self.parse_term()
        if negate:
            acc = -acc
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                term = self.parse_term()
                acc = acc - term if value == "-" else acc + term
            else:
                return acc

    def parse_term(self):
        acc = self.parse_power()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                acc = acc * self.parse_power()
            elif kind == "op" and value == "/":
                # rational literal continuation: numeric denominator only
                self.advance()
                kind2, value2, pos2 = self.peek()
                if kind2 != "num" or value2 == 0:
                    raise ParseError("denominator must be a positive integer", pos2)
                self.advance()
                acc = acc.scale(Fraction(1, value2))
            else:
                return acc

    def parse_power(self):
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind2, value2, pos2 = self.peek()
            if kind2 != "num":
                raise ParseError("exponent must be a nonnegative integer", pos2)
            degree = max(base.total_degree(), 1) * value2
            if degree > MAX_LITERAL_DEGREE:
                raise ParseError(
                    "power of degree %d exceeds the bound %d"
                    % (degree, MAX_LITERAL_DEGREE),
                    pos2,
                )
            self.advance()
            return base ** value2
        return base

    def parse_atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return Poly.const(value, self.arity)
        if kind == "name":
            if value not in VAR_NAMES:
                raise ParseError("unknown variable %r" % value, pos)
            index = VAR_NAMES.index(value)
            if index > self.arity:
                error = ArityError(
                    "variable %s exceeds arity %d" % (value, self.arity)
                )
                error.pos = pos
                raise error
            return Poly.var(index, self.arity)
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            return -self.parse_atom()
        raise ParseError("expected a polynomial atom", pos)


def parse_poly(text, arity):
    """Parse a polynomial literal at the given lambda-arity."""
    parser = _Parser(tokenize(text), arity)
    result = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return result


def _format_monomial(key, coeff):
    factors = []
    for index, exponent in enumerate(key):
        if exponent == 0:
            continue
        name = VAR_NAMES[index]
        factors.append(name if exponent == 1 else "%s^%d" % (name, exponent))
    if not factors:
        return _format_fraction(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return "%s*%s" % (_format_fraction(coeff), body)


def _format_fraction(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def format_poly(poly):
    """Canonical literal: monomials sorted by graded-lex exponent order."""
    if not poly.terms:
        return "0"
    keys = sorted(poly.terms, key=lambda k: (sum(k), k), reverse=True)
    parts = []
    for key in keys:
        text = _format_monomial(key, poly.terms[key])
        if parts:
            if text.startswith("-"):
                parts.append(" - " + text[1:])
            else:
                parts.append(" + " + text)
        else:
            parts.append(text)
    return "".join(parts)
