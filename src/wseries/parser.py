"""Parser for the series expression language.

Grammar (whitespace between tokens is ignored):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | variable | '(' expr ')' | 'inv(' expr ')'
    variable := 'x' nat
    rational := '-'? nat ('/' nat)?

A leading minus is part of a rational literal only, so ``-x1`` is not a
valid expression; write ``-1*x1``.  The canonical printer in
:mod:`wseries.series` emits exactly this language, making text output
round-trippable.

Variable indices are checked against the declared count as they are read:
a syntax error anywhere wins, else the first variable past the count.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import log2

from .errors import ExpressionError
from .series import Series, _sum


# ----------------------------------------------------------------------
# syntax tree
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Sum:
    left: object
    right: object


@dataclass(frozen=True)
class Diff:
    left: object
    right: object


@dataclass(frozen=True)
class Prod:
    factors: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Inv:
    arg: object


# ----------------------------------------------------------------------
# tokenizer
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<var>x\d+)"
    r"|(?P<inv>inv)"
    r"|(?P<nat>\d+)"
    r"|(?P<op>[-+*/^()])")


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(
                f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.nvars = nvars
        self.too_high = None  # first variable index above nvars, if any

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return (None, "", len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", pos)
        self.i += 1

    def at_op(self, *ops) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while self.at_op("+", "-"):
            _, op, _ = self.take()
            rhs = self.term()
            node = Sum(node, rhs) if op == "+" else Diff(node, rhs)
        return node

    # term := factor ('*' factor)*
    def term(self):
        factors = [self.factor()]
        while self.at_op("*"):
            self.take()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    # factor := base ('^' nat)?
    def factor(self):
        node = self.base()
        if self.at_op("^"):
            self.take()
            kind, value, pos = self.peek()
            if kind != "nat":
                raise ExpressionError("expected an exponent", pos)
            self.take()
            node = Pow(node, int(value))
        return node

    def base(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-" or kind == "nat":
            return self.rational()
        if kind == "var":
            self.take()
            index = int(value[1:])
            if index < 1:
                raise ExpressionError("variable indices start at x1", pos)
            if index > self.nvars and self.too_high is None:
                self.too_high = index
            return Var(index)
        if kind == "inv":
            self.take()
            self.expect_op("(")
            node = self.expr()
            self.expect_op(")")
            return Inv(node)
        if kind == "op" and value == "(":
            self.take()
            node = self.expr()
            self.expect_op(")")
            return node
        if kind is None:
            raise ExpressionError("unexpected end of input", pos)
        raise ExpressionError(f"unexpected token {value!r}", pos)

    # rational := '-'? nat ('/' nat)?
    def rational(self):
        sign = 1
        if self.at_op("-"):
            self.take()
            sign = -1
        kind, value, pos = self.peek()
        if kind != "nat":
            raise ExpressionError("expected a number", pos)
        self.take()
        numerator = sign * int(value)
        if self.at_op("/"):
            self.take()
            kind, value, pos = self.peek()
            if kind != "nat":
                raise ExpressionError("expected a denominator", pos)
            self.take()
            if int(value) == 0:
                raise ExpressionError("zero denominator", pos)
            return Lit(Fraction(numerator, int(value)))
        return Lit(Fraction(numerator))


#: the parser and ``evaluate``, the only passes over an expression, recurse
#: once per level of parentheses or ``inv`` (not per term of a sum), so
#: input nested past the recursion limit is rejected as malformed text
_TOO_DEEP = "expression is nested too deeply"


def parse_expression(text: str, nvars: int):
    """Parse ``text`` into a syntax tree, checking variable indices
    against ``nvars`` once the syntax is known to be sound."""
    parser = _Parser(text, nvars)
    try:
        node = parser.expr()
        kind, value, pos = parser.peek()
        if kind is not None:
            raise ExpressionError(f"trailing input {value!r}", pos)
    except RecursionError:
        raise ExpressionError(_TOO_DEEP) from None
    if parser.too_high is not None:
        raise ExpressionError(f"variable x{parser.too_high} exceeds the "
                              f"declared {nvars} variables")
    return node


def evaluate(node, nvars: int, trunc: int) -> Series:
    """Evaluate a syntax tree to a truncated series."""
    if isinstance(node, Lit):
        return Series.constant(node.value, nvars, trunc)
    if isinstance(node, Var):
        return Series.variable(node.index, nvars, trunc)
    if isinstance(node, (Sum, Diff)):
        chain = []  # walked in a loop: a flat sum must not recurse per term
        while isinstance(node, (Sum, Diff)):
            chain.append(node)
            node = node.left
        parts = [evaluate(node, nvars, trunc)]
        for step in reversed(chain):
            part = evaluate(step.right, nvars, trunc)
            parts.append(part if isinstance(step, Sum) else -part)
        return _sum(parts)  # adding part by part would copy the table per term
    if isinstance(node, Prod):
        result = evaluate(node.factors[0], nvars, trunc)
        for f in node.factors[1:]:
            result = result * evaluate(f, nvars, trunc)
        return result
    if isinstance(node, Pow):
        base = evaluate(node.base, nvars, trunc)
        _check_power_size(base.constant_term(), node.exponent)
        return base ** node.exponent
    if isinstance(node, Inv):
        return evaluate(node.arg, nvars, trunc).inverse()
    raise TypeError(f"not a syntax node: {node!r}")


def _check_power_size(c: Fraction, exponent: int):
    """Reject ``c^exponent`` when its numerator or denominator would have
    more decimal digits than Python's integer string limit allows, before
    the integer is built: ``exponent * (bit_length - 1)`` bits is a lower
    bound on its size.  Pythons before 3.10.7 have no such limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bits = exponent * (max(abs(c.numerator), c.denominator).bit_length() - 1)
    if limit and bits > limit * log2(10):
        raise ExpressionError("coefficient too large")


def parse_series(text: str, nvars: int, trunc: int) -> Series:
    """Parse and evaluate an expression to a series with the given
    variable count and truncation order."""
    node = parse_expression(text, nvars)
    try:
        return evaluate(node, nvars, trunc)
    except RecursionError:
        raise ExpressionError(_TOO_DEEP) from None
