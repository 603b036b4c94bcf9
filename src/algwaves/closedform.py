"""Closed-form wave profiles and first order relations they satisfy.

The expression nodes here are deliberately small: enough structure to
evaluate profiles built from exp, tanh, cosh, powers and the Jacobi
functions, and to differentiate them exactly (the elliptic triple is
closed under differentiation, so arbitrary order derivatives stay
symbolic).  No simplification beyond constant folding is attempted.

A profile of the form q1(e^{lam s}) / q2(e^{lam s}) satisfies an exact
polynomial relation p(U, U') = 0; eliminating z = e^{lam s} with a
resultant produces it.  The z-power and exponent-gcd normalization
steps matter: skipping them hands back the square of the relation
whenever the exponent pattern is even.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Sequence, Union

from .poly import MultiPoly, VarRegistry, sylvester_resultant
from .qfield import QuadExt, field_sqrt

Number = Union[int, float, Fraction, QuadExt]


def _as_expr(v) -> "Expr":
    if isinstance(v, Expr):
        return v
    return Const(v)


class Expr:
    """Base node; subclasses implement evaluate and diff."""

    def evaluate(self, env: dict) -> float:
        raise NotImplementedError

    def diff(self, name: str) -> "Expr":
        raise NotImplementedError

    def __add__(self, other):
        return _add(self, _as_expr(other))

    def __radd__(self, other):
        return _add(_as_expr(other), self)

    def __sub__(self, other):
        return _sub(self, _as_expr(other))

    def __rsub__(self, other):
        return _sub(_as_expr(other), self)

    def __mul__(self, other):
        return _mul(self, _as_expr(other))

    def __rmul__(self, other):
        return _mul(_as_expr(other), self)

    def __truediv__(self, other):
        return _div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return _div(_as_expr(other), self)

    def __neg__(self):
        return _mul(Const(-1), self)

    def __pow__(self, p):
        if isinstance(p, Fraction) and p.denominator != 1:
            return RatPow(self, p)
        return IntPow(self, int(p))


@dataclass(frozen=True)
class Const(Expr):
    value: Number
    # float(value), converted once: evaluate runs once per sample point
    as_float: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "as_float", float(self.value))

    def evaluate(self, env):
        return self.as_float

    def diff(self, name):
        return Const(0)


@dataclass(frozen=True)
class Sym(Expr):
    name: str

    def evaluate(self, env):
        return float(env[self.name])

    def diff(self, name):
        return Const(1 if name == self.name else 0)


def _is_const(e: Expr, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.as_float == v)


def _fold(a: Number, b: Number, op) -> Number:
    if isinstance(a, float) or isinstance(b, float):
        return op(float(a), float(b))
    return op(QuadExt.lift(a), QuadExt.lift(b))


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_fold(a.value, b.value, lambda x, y: x + y))
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_fold(a.value, b.value, lambda x, y: x - y))
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_fold(a.value, b.value, lambda x, y: x * y))
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0):
        return Const(0)
    if _is_const(b, 1):
        return a
    return Div(a, b)


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def evaluate(self, env):
        return self.a.evaluate(env) + self.b.evaluate(env)

    def diff(self, name):
        return _add(self.a.diff(name), self.b.diff(name))


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def evaluate(self, env):
        return self.a.evaluate(env) - self.b.evaluate(env)

    def diff(self, name):
        return _sub(self.a.diff(name), self.b.diff(name))


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def evaluate(self, env):
        return self.a.evaluate(env) * self.b.evaluate(env)

    def diff(self, name):
        return _add(
            _mul(self.a.diff(name), self.b), _mul(self.a, self.b.diff(name))
        )


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr

    def evaluate(self, env):
        return self.a.evaluate(env) / self.b.evaluate(env)

    def diff(self, name):
        num = _sub(
            _mul(self.a.diff(name), self.b), _mul(self.a, self.b.diff(name))
        )
        return _div(num, _mul(self.b, self.b))


@dataclass(frozen=True)
class IntPow(Expr):
    base: Expr
    n: int

    def evaluate(self, env):
        return self.base.evaluate(env) ** self.n

    def diff(self, name):
        if self.n == 0:
            return Const(0)
        return _mul(
            _mul(Const(self.n), IntPow(self.base, self.n - 1)),
            self.base.diff(name),
        )


@dataclass(frozen=True)
class RatPow(Expr):
    base: Expr
    p: Fraction

    def evaluate(self, env):
        return self.base.evaluate(env) ** float(self.p)

    def diff(self, name):
        q = self.p - 1
        tail = IntPow(self.base, int(q)) if q.denominator == 1 else RatPow(self.base, q)
        return _mul(_mul(Const(self.p), tail), self.base.diff(name))


@dataclass(frozen=True)
class Exp(Expr):
    a: Expr

    def evaluate(self, env):
        return math.exp(self.a.evaluate(env))

    def diff(self, name):
        return _mul(self, self.a.diff(name))


@dataclass(frozen=True)
class Tanh(Expr):
    a: Expr

    def evaluate(self, env):
        return math.tanh(self.a.evaluate(env))

    def diff(self, name):
        return _mul(_sub(Const(1), Mul(self, self)), self.a.diff(name))


@dataclass(frozen=True)
class Cosh(Expr):
    a: Expr

    def evaluate(self, env):
        return math.cosh(self.a.evaluate(env))

    def diff(self, name):
        # sinh = tanh * cosh keeps the node set closed
        return _mul(_mul(Tanh(self.a), self), self.a.diff(name))


class _Elliptic(Expr):
    __slots__ = ()

    def _triple(self, env):
        from .numerics import jacobi_elliptic

        return jacobi_elliptic(self.a.evaluate(env), float(self.m))


@dataclass(frozen=True)
class Sn(_Elliptic):
    a: Expr
    m: Number

    def evaluate(self, env):
        return self._triple(env)[0]

    def diff(self, name):
        return _mul(_mul(Cn(self.a, self.m), Dn(self.a, self.m)), self.a.diff(name))


@dataclass(frozen=True)
class Cn(_Elliptic):
    a: Expr
    m: Number

    def evaluate(self, env):
        return self._triple(env)[1]

    def diff(self, name):
        return _mul(
            _mul(Const(-1), _mul(Sn(self.a, self.m), Dn(self.a, self.m))),
            self.a.diff(name),
        )


@dataclass(frozen=True)
class Dn(_Elliptic):
    a: Expr
    m: Number

    def evaluate(self, env):
        return self._triple(env)[2]

    def diff(self, name):
        return _mul(
            _mul(_mul(Const(-1), Const(self.m)),
                 _mul(Sn(self.a, self.m), Cn(self.a, self.m))),
            self.a.diff(name),
        )


# -- exp-rational profiles -----------------------------------------------------


@dataclass
class ExpRational:
    """Profile q1(z)/q2(z) with z = exp(lam * s); coefficients ascending."""

    q1: Sequence
    q2: Sequence
    lam: Union[QuadExt, float]

    def normalized(self) -> "ExpRational":
        """Cancel a common z power and the exponent gcd (rescaling lam)."""
        a1 = [QuadExt.lift(c) for c in self.q1]
        a2 = [QuadExt.lift(c) for c in self.q2]
        while a1 and a1[-1].is_zero():
            a1.pop()
        while a2 and a2[-1].is_zero():
            a2.pop()
        if not a1 or not a2:
            raise ValueError("numerator and denominator must be nonzero")
        nz1 = [i for i, c in enumerate(a1) if not c.is_zero()]
        nz2 = [i for i, c in enumerate(a2) if not c.is_zero()]
        shift = min(nz1[0], nz2[0])
        if shift:
            a1 = a1[shift:]
            a2 = a2[shift:]
        g = 0
        for coeffs in (a1, a2):
            for i, c in enumerate(coeffs):
                if i and not c.is_zero():
                    g = gcd(g, i)
        if g >= 2:
            a1 = [a1[i] for i in range(0, len(a1), g)]
            a2 = [a2[i] for i in range(0, len(a2), g)]
            lam = self.lam * g
        else:
            lam = self.lam
        return ExpRational(a1, a2, lam)


@dataclass
class PRelation:
    """Polynomial relation p(u, du) = 0 between a profile and its derivative."""

    p: MultiPoly
    registry: VarRegistry
    u_var: int
    du_var: int

    @cached_property
    def residual_at(self):
        """p(u, du) as a function of (u, du), compiled once per relation; u
        and du may be floats or numpy arrays of one shape."""
        return self.p.compile_float((self.u_var, self.du_var))


def _pair_polys(er: ExpRational, reg: VarRegistry, zv: int):
    z = MultiPoly.var(reg, zv)
    q1 = MultiPoly.zero(reg)
    q2 = MultiPoly.zero(reg)
    for i, c in enumerate(er.q1):
        q1 = q1 + QuadExt.lift(c) * z**i
    for i, c in enumerate(er.q2):
        q2 = q2 + QuadExt.lift(c) * z**i
    dq1 = q1.partial_derivative(zv)
    dq2 = q2.partial_derivative(zv)
    q3 = QuadExt.lift(er.lam) * z * (dq1 * q2 - q1 * dq2)
    q4 = q2 * q2
    return q1, q2, q3, q4


def p_from_exp_rational(er: ExpRational) -> PRelation:
    """Eliminate z between q2 U - q1 and q2^2 U' - q3 to get p(U, U') = 0.

    The relation comes back with unit leading coefficient.  Raises on
    constant profiles and on numerator/denominator sharing a factor.
    """
    er = er.normalized()
    if not isinstance(er.lam, (QuadExt, int, Fraction)):
        raise TypeError("exact elimination needs an exact rate")
    reg = VarRegistry(["z", "u", "du"])
    zv, uv, dv = 0, 1, 2
    q1, q2, q3, q4 = _pair_polys(er, reg, zv)
    if q3.is_zero:
        raise ValueError("constant profile carries no first order relation")
    u = MultiPoly.var(reg, uv)
    du = MultiPoly.var(reg, dv)
    A = q2 * u - q1
    B = q4 * du - q3
    if A.degree_in(zv) < 1 or B.degree_in(zv) < 1:
        raise ValueError("profile does not depend on z after normalization")
    p = sylvester_resultant(A, B, zv)
    if p.is_zero:
        raise ValueError("numerator and denominator share a polynomial factor")
    out_reg = VarRegistry(["u", "du"])
    p2 = p.substitute(
        {uv: MultiPoly.var(out_reg, 0), dv: MultiPoly.var(out_reg, 1)},
        registry=out_reg,
    )
    return PRelation(p2.monic("grlex"), out_reg, 0, 1)


def exp_rational_membership(er: ExpRational, rel: PRelation) -> MultiPoly:
    """Cleared numerator of p(q1/q2, q3/q2^2) as a polynomial in z.

    Identically zero exactly when the profile satisfies the relation.
    """
    er = er.normalized()
    reg = VarRegistry(["z"])
    q1, q2, q3, _ = _pair_polys(er, reg, 0)
    weight = 0
    for m, _c in rel.p.terms.items():
        e = dict(m)
        weight = max(weight, e.get(rel.u_var, 0) + 2 * e.get(rel.du_var, 0))
    out = MultiPoly.zero(reg)
    for m, c in rel.p.terms.items():
        e = dict(m)
        i = e.get(rel.u_var, 0)
        j = e.get(rel.du_var, 0)
        out = out + c * q1**i * q3**j * q2 ** (weight - i - 2 * j)
    return out


# -- explicit front families ----------------------------------------------------


@dataclass
class LogisticWave:
    """Solution of U' = alpha (U - u_low)(U - u_high) in the variable s."""

    expr: Expr
    boundary: tuple


def solve_logistic(alpha, u_low, u_high, k=1) -> LogisticWave:
    """Explicit monotone connection between the two rest values."""
    al = QuadExt.lift(alpha)
    u1 = QuadExt.lift(u_low)
    u3 = QuadExt.lift(u_high)
    kk = QuadExt.lift(k)
    if (u3 - u1).is_zero():
        raise ValueError("rest values must differ")
    if float(kk) <= 0:
        raise ValueError("the shift parameter must be positive")
    s = Sym("s")
    grow = Exp(_as_expr(al * (u3 - u1)) * s)
    expr = (Const(u3) + Const(kk * u1) * grow) / (Const(QuadExt(1)) + Const(kk) * grow)
    if float(al * (u3 - u1)) > 0:
        boundary = (u3, u1)  # s -> -inf, s -> +inf
    else:
        boundary = (u1, u3)
    return LogisticWave(expr, boundary)


@dataclass
class PowerLogisticWave:
    """Solution of U' = gamma U (U^q - 1) in the variable s, decaying to 0
    on the right."""

    expr: Expr
    gamma: QuadExt
    q: int
    boundary: tuple


def solve_power_logistic(q: int, k=1, gamma=None) -> PowerLogisticWave:
    if q < 1:
        raise ValueError("the exponent q must be a positive integer")
    kk = QuadExt.lift(k)
    if float(kk) <= 0:
        raise ValueError("the shift parameter must be positive")
    if gamma is None:
        gamma = field_sqrt(q + 1).inverse()
    else:
        gamma = QuadExt.lift(gamma)
        if gamma.is_zero():
            raise ValueError("the rate must be nonzero")
    s = Sym("s")
    inner = Const(QuadExt(1)) + Const(kk) * Exp(_as_expr(gamma * q) * s)
    expr = RatPow(inner, Fraction(-1, q)) if q > 1 else IntPow(inner, -1)
    boundary = (QuadExt(1), QuadExt(0)) if float(gamma) > 0 else (QuadExt(0), QuadExt(1))
    return PowerLogisticWave(expr, gamma, q, boundary)
