"""Text front end for polynomial evolution equations.

The unknown is u(x, t); derivative symbols are spelled u_xxt and normalized so
the x letters come first.  Every other name is a scalar parameter.  The parsed
equation is stored as a single polynomial E(derivatives, parameters) with the
convention E = 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .exprparse import ExprParser, ExprSyntaxError, Token
from .poly import MultiPoly, VarRegistry
from .qfield import QuadExt, parse_quadext

PDESyntaxError = ExprSyntaxError

_DERIV_RE = re.compile(r"^u(?:_([xt]+))?$")

_RESERVED = {"sqrt", "u"}


@dataclass(frozen=True)
class DerivSymbol:
    """Mixed partial derivative of the unknown: x_order in x, t_order in t."""

    x_order: int
    t_order: int

    @property
    def order(self) -> int:
        return self.x_order + self.t_order

    @property
    def name(self) -> str:
        if self.order == 0:
            return "u"
        return "u_" + "x" * self.x_order + "t" * self.t_order

    def __str__(self):
        return self.name


@dataclass
class PDESpec:
    """A parsed equation E = 0 plus symbol bookkeeping."""

    registry: VarRegistry
    poly: MultiPoly
    deriv_vars: dict[int, DerivSymbol]
    param_vars: dict[str, int]
    params: list[str]

    @property
    def order(self) -> int:
        present = set(self.poly.variables())
        orders = [d.order for vid, d in self.deriv_vars.items() if vid in present]
        return max(orders) if orders else 0

    def unbound_params(self) -> list[str]:
        present = set(self.poly.variables())
        return [n for n in self.params
                if self.param_vars[n] in present]

    def __str__(self):
        return "%s = 0" % (self.poly,)


def parse_pde(text: str) -> PDESpec:
    """Parse an equation over u and its x/t derivatives.

    Raises PDESyntaxError with line and column on malformed input, on
    non-polynomial constructs, and when the unknown never appears."""
    registry = VarRegistry()
    deriv_vars: dict[int, DerivSymbol] = {}
    param_vars: dict[str, int] = {}
    params: list[str] = []

    def resolver(name: str, tok: Token) -> MultiPoly:
        m = _DERIV_RE.match(name)
        if m:
            letters = m.group(1) or ""
            sym = DerivSymbol(letters.count("x"), letters.count("t"))
            vid = registry.var(sym.name)
            deriv_vars[vid] = sym
            return MultiPoly.var(registry, vid)
        if name == "sqrt":
            raise PDESyntaxError("sqrt is reserved", tok.line, tok.col)
        if name.startswith("u_"):
            raise PDESyntaxError(
                "bad derivative symbol %r: subscripts may only use x and t" % (name,),
                tok.line, tok.col)
        if name not in param_vars:
            param_vars[name] = registry.var(name)
            params.append(name)
        return MultiPoly.var(registry, param_vars[name])

    parser = ExprParser(text, registry, resolver)
    poly = parser.parse_equation()
    if poly.is_zero:
        raise PDESyntaxError("equation reduces to 0 = 0", 1, 1)
    present = set(poly.variables())
    if not any(vid in present for vid in deriv_vars):
        raise PDESyntaxError("the unknown u never appears", 1, 1)
    return PDESpec(registry, poly, deriv_vars, param_vars, params)


BindValue = Union[int, Fraction, QuadExt, str]


def bind_params(spec: PDESpec, values: dict[str, BindValue]) -> PDESpec:
    """Substitute exact values for named parameters; returns a new spec.

    Unknown names are rejected.  Values may be QuadExt, int, Fraction, or a
    field literal string such as '5/6*sqrt(6)'."""
    bindings: dict[int, QuadExt] = {}
    for name, val in values.items():
        if name not in spec.param_vars:
            raise KeyError("unknown parameter %r; declared: %s"
                           % (name, ", ".join(spec.params) or "none"))
        v = parse_quadext(val) if isinstance(val, str) else QuadExt.lift(val)
        bindings[spec.param_vars[name]] = v
    poly = spec.poly.substitute(bindings)
    if poly.is_zero:
        raise ValueError("equation vanished identically after binding parameters")
    return PDESpec(spec.registry, poly, dict(spec.deriv_vars),
                   dict(spec.param_vars), list(spec.params))
