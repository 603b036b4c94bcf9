"""Recursive-descent parser for polynomial expressions.

Grammar (ASCII only, no implicit multiplication):

    equation := expr ("=" expr)?
    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := atom ("^" uint)?
    atom     := name | rational | "sqrt" "(" uint ")" | "(" expr ")"
              | ("+" | "-") atom
    rational := int ("/" uint)?

Division appears only inside rational literals; "u/2" and fractional powers
are rejected with a position-tagged error.  Name atoms are resolved through a
callback, which is how the PDE front end recognizes derivative symbols.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .poly import MultiPoly, VarRegistry
from .qfield import MAX_SQRT_ARG, try_sqrt


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.text)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ord(ch) > 127:
            raise ExprSyntaxError("non-ASCII character %r" % (ch,), line, col)
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()=":
            toks.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError("unexpected character %r" % (ch,), line, col)
    toks.append(Token("eof", "", line, col))
    return toks


AtomResolver = Callable[[str, Token], MultiPoly]


class ExprParser:
    """Parses one expression or equation into a MultiPoly."""

    def __init__(self, text: str, registry: VarRegistry,
                 resolver: Optional[AtomResolver] = None):
        self.registry = registry
        self.toks = tokenize(text)
        self.pos = 0
        self.resolver = resolver or self._default_resolver

    def _default_resolver(self, name: str, tok: Token) -> MultiPoly:
        return MultiPoly.var(self.registry, name)

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self, kind: Optional[str] = None) -> Token:
        t = self.toks[self.pos]
        if kind is not None and t.kind != kind:
            raise ExprSyntaxError(
                "expected %s, found %r" % (kind, t.text or "end of input"),
                t.line, t.col)
        self.pos += 1
        return t

    def fail(self, message: str):
        t = self.peek()
        raise ExprSyntaxError(message, t.line, t.col)

    # -- grammar ------------------------------------------------------------

    def parse_equation(self) -> MultiPoly:
        lhs = self.parse_expr()
        if self.peek().kind == "=":
            self.take()
            rhs = self.parse_expr()
            lhs = lhs - rhs
        if self.peek().kind != "eof":
            self.fail("unexpected %r" % (self.peek().text,))
        return lhs

    def parse_expression_only(self) -> MultiPoly:
        e = self.parse_expr()
        if self.peek().kind != "eof":
            self.fail("unexpected %r" % (self.peek().text,))
        return e

    def parse_expr(self) -> MultiPoly:
        out = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            t = self.parse_term()
            out = out + t if op == "+" else out - t
        return out

    def parse_term(self) -> MultiPoly:
        out = self.parse_factor()
        while True:
            k = self.peek().kind
            if k == "*":
                self.take()
                out = out * self.parse_factor()
            elif k == "/":
                self.fail("division is only allowed inside rational literals")
            else:
                return out

    def parse_factor(self) -> MultiPoly:
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.take()
            t = self.peek()
            if t.kind == "-":
                self.fail("negative powers are not polynomial")
            if t.kind != "int":
                self.fail("exponent must be a nonnegative integer")
            self.take()
            base = base ** int(t.text)
        return base

    def parse_atom(self) -> MultiPoly:
        t = self.peek()
        if t.kind in ("+", "-"):
            self.take()
            a = self.parse_atom()
            return -a if t.kind == "-" else a
        if t.kind == "(":
            self.take()
            e = self.parse_expr()
            self.take(")")
            return e
        if t.kind == "int":
            self.take()
            num = int(t.text)
            if self.peek().kind == "/":
                self.take()
                dt = self.take("int")
                den = int(dt.text)
                if den == 0:
                    raise ExprSyntaxError("zero denominator", dt.line, dt.col)
                return MultiPoly.const(self.registry, Fraction(num, den))
            return MultiPoly.const(self.registry, num)
        if t.kind == "name":
            self.take()
            if t.text == "sqrt":
                self.take("(")
                nt = self.take("int")
                n = int(nt.text)
                if n < 1:
                    raise ExprSyntaxError("sqrt needs a positive integer",
                                          nt.line, nt.col)
                if n > MAX_SQRT_ARG:
                    raise ExprSyntaxError("sqrt argument exceeds 10^12",
                                          nt.line, nt.col)
                self.take(")")
                return MultiPoly.const(self.registry, try_sqrt(n))
            return self.resolver(t.text, t)
        self.fail("expected a term, found %r" % (t.text or "end of input"))


def parse_poly(text: str, registry: Optional[VarRegistry] = None
               ) -> tuple[MultiPoly, VarRegistry]:
    """Parse a plain polynomial expression; names become registry variables."""
    reg = registry if registry is not None else VarRegistry()
    p = ExprParser(text, reg).parse_expression_only()
    return p, reg
