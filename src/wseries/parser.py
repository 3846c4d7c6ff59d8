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

The syntax tree is made of tuples tagged by their first item:
``("lit", Fraction)``, ``("x", index)``, ``("^", base, n)``, ``("inv",
arg)``, ``("*", [factor, ...])`` for a product of two or more factors and
``("+", [(negated, term), ...])`` for a sum of two or more terms, each
term with a flag that says whether it is subtracted.  Parentheses leave
no node of their own.

The whole text is tokenized first, and variable indices are checked
against the declared count as they are read: an unexpected character
anywhere wins, then any other syntax error, else the first variable past
the count.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import log2

from .errors import ExpressionError
from .series import Series, _size, _sum


# ----------------------------------------------------------------------
# tokenizer
# ----------------------------------------------------------------------

#: whitespace, then one token; ``bad`` catches every other character
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<x>x\d+)"
    r"|(?P<inv>inv)"
    r"|(?P<nat>\d+)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))")


def _digit_limit() -> int:
    """Python's limit on the decimal digits of an integer string; 0 on
    Pythons before 3.10.7, which have no such limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _tokenize(text: str) -> list:
    """The tokens ``(kind, text, position)`` of ``text``, then the end
    marker ``("end", "", len(text))``.  An operator is its own kind; the
    other kinds are ``x``, ``inv`` and ``nat``.  A digit run too long for
    ``int`` is rejected here, at the position of its first digit."""
    limit = _digit_limit()
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value, pos = m[kind], m.start(kind)
        if kind == "op":
            kind = value
        elif kind == "bad":
            raise ExpressionError(f"unexpected character {value!r}", pos)
        elif kind != "inv":
            start = pos + (kind == "x")  # the first digit
            if limit and m.end() - start > limit:
                raise ExpressionError(
                    f"number has more than {limit} digits", start)
        tokens.append((kind, value, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.nvars = nvars
        self.too_high = None  # first variable index above nvars, if any

    def take(self, *kinds):
        """The text of the next token, consumed, if its kind is one of
        ``kinds``; else ``None``."""
        kind, text, _ = self.tokens[self.i]
        if kind in kinds:
            self.i += 1
            return text

    def need(self, kind: str, message: str) -> str:
        """The text of the next token, consumed; it must be of ``kind``."""
        text = self.take(kind)
        if text is None:
            raise ExpressionError(message, self.tokens[self.i][2])
        return text

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        terms = [(False, node)]
        while op := self.take("+", "-"):
            terms.append((op == "-", self.term()))
        return node if len(terms) == 1 else ("+", terms)

    # term := factor ('*' factor)*
    def term(self):
        factors = [self.factor()]
        while self.take("*"):
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else ("*", factors)

    # factor := base ('^' nat)?
    def factor(self):
        node = self.base()
        if self.take("^"):
            node = ("^", node, int(self.need("nat", "expected an exponent")))
        return node

    # base := rational | variable | '(' expr ')' | 'inv(' expr ')'
    # rational := '-'? nat ('/' nat)?
    def base(self):
        kind, text, pos = self.tokens[self.i]
        if kind == "-" or kind == "nat":
            sign = -1 if self.take("-") else 1
            numerator = sign * int(self.need("nat", "expected a number"))
            if not self.take("/"):
                return ("lit", Fraction(numerator))
            pos = self.tokens[self.i][2]
            denominator = int(self.need("nat", "expected a denominator"))
            if not denominator:
                raise ExpressionError("zero denominator", pos)
            return ("lit", Fraction(numerator, denominator))
        self.i += 1
        if kind == "x":
            index = int(text[1:])
            if index < 1:
                raise ExpressionError("variable indices start at x1", pos)
            if index > self.nvars and self.too_high is None:
                self.too_high = index
            return ("x", index)
        if kind == "inv":
            self.need("(", "expected '('")
        if kind == "inv" or kind == "(":
            node = self.expr()
            self.need(")", "expected ')'")
            return ("inv", node) if kind == "inv" else node
        raise ExpressionError("unexpected end of input" if kind == "end"
                              else f"unexpected token {text!r}", pos)


#: the parser and ``evaluate``, the only passes over an expression, recurse
#: once per level of parentheses or ``inv`` (not per term of a sum), so
#: input nested past the recursion limit is rejected as malformed text
_TOO_DEEP = "expression is nested too deeply"


def parse_expression(text: str, nvars: int):
    """Parse ``text`` into a syntax tree of tagged tuples (see the module
    docstring), checking variable indices against ``nvars`` once the
    syntax is known to be sound."""
    parser = _Parser(text, nvars)
    try:
        node = parser.expr()
    except RecursionError:
        raise ExpressionError(_TOO_DEEP) from None
    kind, text, pos = parser.tokens[parser.i]
    if kind != "end":
        raise ExpressionError(f"trailing input {text!r}", pos)
    if parser.too_high is not None:
        raise ExpressionError(f"variable x{parser.too_high} exceeds the "
                              f"declared {nvars} variables")
    return node


def evaluate(node, nvars: int, trunc: int) -> Series:
    """Evaluate a syntax tree to a truncated series."""
    if _is_monomial(node):
        return _monomial([node], nvars, trunc)
    match node:
        case ("+", terms):
            parts = []
            for negated, term in terms:
                part = evaluate(term, nvars, trunc)
                parts.append(-part if negated else part)
            # adding part by part would copy the table per term
            return _sum(parts)
        case ("*", factors):
            # the rationals and variable powers of a product (all of a
            # printed term) make one term; only its other factors multiply
            result = _monomial([f for f in factors if _is_monomial(f)],
                               nvars, trunc)
            for f in factors:
                if not _is_monomial(f):
                    result = result * evaluate(f, nvars, trunc)
            return result
        case ("^", base, exponent):
            base = evaluate(base, nvars, trunc)
            _check_power_size(base.constant_term(), exponent)
            return base ** exponent
        case ("inv", arg):
            return evaluate(arg, nvars, trunc).inverse()
    raise TypeError(f"not a syntax node: {node!r}")


def _is_monomial(node) -> bool:
    tag = node[0]
    return tag == "lit" or tag == "x" or tag == "^" and node[1][0] == "x"


def _monomial(factors: list, nvars: int, trunc: int) -> Series:
    """The product of rationals, variables and variable powers as one
    term, formed without a series product and built by
    :meth:`Series.monomial`, which checks it: a term past ``trunc`` or
    with coefficient 0 gives zero, and the result is certified through
    ``trunc``, as the product of the factors is."""
    coeff, expo = Fraction(1), [0] * _size(nvars, "nvars")
    for f in factors:
        match f:
            case ("lit", value):
                coeff *= value
            case ("x", index):
                expo[index - 1] += 1
            case ("^", (_, index), power):
                expo[index - 1] += power
    return Series.monomial(expo, nvars, trunc, coeff)


def _check_power_size(c: Fraction, exponent: int):
    """Reject ``c^exponent`` when its numerator or denominator would have
    more decimal digits than Python's integer string limit allows, before
    the integer is built: ``exponent * (bit_length - 1)`` bits is a lower
    bound on its size."""
    limit = _digit_limit()
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
