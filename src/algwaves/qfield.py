"""Exact scalar arithmetic: rationals, quadratic extensions Q(sqrt(d)), rising factorials.

Every coefficient in this package is a QuadExt: an element a + b*sqrt(d) of a
real quadratic field with arbitrary-precision rational components.  d = 1
encodes plain Q; a value whose radical part is zero is normalized to d = 1 and
therefore combines freely with values from any extension.  Two values carrying
different nontrivial radicands refuse to combine.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Optional, Union

Rat = Fraction

RatLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "QuadExt"]

# Finding a squarefree part is trial division.  Up to MAX_SQRT_ARG it stops
# at the cube root (see squarefree_decompose): about 0.15 ms at 10^10 and
# 0.9 ms at 10^12.  Above it, squarefree_decompose divides by candidates up
# to isqrt(MAX_SQRT_ARG) only, about 0.1 s, so it decomposes every
# n <= MAX_SQRT_ARG, and a larger n when at most about MAX_SQRT_ARG is left
# after those divisions; otherwise it raises.  sqrt(n) literals accept
# n <= MAX_SQRT_ARG only.  (Timings: one process, 2-vCPU VM.)
MAX_SQRT_ARG = 10**12
_MAX_TRIAL_DIVISOR = math.isqrt(MAX_SQRT_ARG)


class RadicandMismatchError(ArithmeticError):
    """Combining values that live in different quadratic extensions."""


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s**2 * d with d squarefree; return (s, d).  Requires n >= 1.

    Trial division by 2 and the odd numbers p stops once p**3 > m, for m
    what is left of n, if m <= MAX_SQRT_ARG: no prime below p divides m,
    so m is a prime q, a square q**2 or a product q*r of primes p <= q < r,
    and math.isqrt tells q**2 from the two squarefree cases.  Raises
    ValueError when trial division would have to pass isqrt(MAX_SQRT_ARG)
    (see MAX_SQRT_ARG).  The stop changes no result and no input that
    raises: division never passes isqrt(MAX_SQRT_ARG) once m is at most
    MAX_SQRT_ARG.
    """
    if n < 1:
        raise ValueError("squarefree_decompose needs a positive integer, got %r" % (n,))
    s = 1
    d = 1
    m = n
    p = 2
    while p * p <= m and p <= _MAX_TRIAL_DIVISOR:
        if p * p * p > m and m <= MAX_SQRT_ARG:  # m is q, q**2 or q*r
            r = math.isqrt(m)
            return (s * r, d) if r * r == m else (s, d * m)
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if p * p <= m:
        raise ValueError("squarefree part of %d: trial division up to 10^6 leaves "
                         "%d, above the cap 10^12" % (n, m))
    return s, d * m


@functools.lru_cache(maxsize=256)
def is_squarefree(n: int) -> bool:
    # memoized: every QuadExt construction with d > 1 asks again; trial
    # division of a ten-digit radicand costs 0.15 ms (eight QuadExt products),
    # and of one above MAX_SQRT_ARG about 0.1 s
    return n >= 1 and squarefree_decompose(n)[0] == 1


def rational_sqrt(r: RatLike) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    r = Fraction(r)
    if r < 0:
        return None
    if r == 0:
        return Fraction(0)
    pn = math.isqrt(r.numerator)
    pd = math.isqrt(r.denominator)
    if pn * pn == r.numerator and pd * pd == r.denominator:
        return Fraction(pn, pd)
    return None


class QuadExt:
    """a + b*sqrt(d) with a, b rational and d a squarefree positive integer.

    Values are immutable.  All arithmetic, equality and ordering is exact;
    ordering uses sign tests on a**2 - d*b**2, never floats.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RatLike = 0, b: RatLike = 0, d: int = 1):
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if d < 1:
            raise ValueError("radicand must be a positive integer, got %r" % (d,))
        if d == 1:
            a, b = a + b, Fraction(0)
        elif b == 0:
            d = 1
        elif not is_squarefree(d):
            raise ValueError("radicand must be squarefree, got %r" % (d,))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def lift(x: ScalarLike) -> "QuadExt":
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadExt(x)
        raise TypeError("cannot interpret %r as a field element" % (x,))

    def _join(self, other: "QuadExt") -> int:
        if self.d == other.d:
            return self.d
        if self.d == 1:
            return other.d
        if other.d == 1:
            return self.d
        raise RadicandMismatchError(
            "cannot combine sqrt(%d) with sqrt(%d)" % (self.d, other.d)
        )

    # -- predicates -------------------------------------------------------

    @property
    def rational_part(self) -> Fraction:
        return self.a

    @property
    def radical_part(self) -> Fraction:
        return self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 with d*b^2; equality is impossible for
        # nonzero rational a, b because sqrt(d) is irrational when d > 1
        lhs = self.a * self.a
        rhs = self.d * self.b * self.b
        if self.a > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        try:
            o = QuadExt.lift(other)
        except TypeError:
            return NotImplemented
        d = self._join(o)
        return QuadExt(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        try:
            o = QuadExt.lift(other)
        except TypeError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            o = QuadExt.lift(other)
        except TypeError:
            return NotImplemented
        d = self._join(o)
        return QuadExt(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self.a * self.a - self.d * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadExt(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        try:
            o = QuadExt.lift(other)
        except TypeError:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return QuadExt.lift(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return QuadExt(1)
        # square and multiply from the base itself: no product for x**1
        # and no squaring past the top bit
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        try:
            o = QuadExt.lift(other)
        except TypeError:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _cmp(self, other) -> int:
        return (self - QuadExt.lift(other)).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return not self.is_zero()

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    # -- rendering --------------------------------------------------------

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            rad = "sqrt(%d)" % self.d
        elif self.b == -1:
            rad = "-sqrt(%d)" % self.d
        else:
            rad = "%s*sqrt(%d)" % (self.b, self.d)
        if self.a == 0:
            return rad
        if self.b > 0:
            return "%s + %s" % (self.a, rad)
        return "%s - %s" % (self.a, rad.lstrip("-"))

    def __repr__(self):
        return "QuadExt(%r, %r, %r)" % (str(self.a), str(self.b), self.d)


def common_radicand(values: Iterable[QuadExt]) -> int:
    """The one radicand d > 1 among the values, or 1 when all are rational.

    Raises RadicandMismatchError when they carry two different radicands.
    """
    radicands = {x.d for x in values if x.d != 1}
    if len(radicands) > 1:
        raise RadicandMismatchError(
            "cannot combine %s"
            % " with ".join("sqrt(%d)" % r for r in sorted(radicands)))
    return radicands.pop() if radicands else 1


def field_sqrt(x: ScalarLike, d: Optional[int] = None) -> Optional[QuadExt]:
    """The exact square root of x, or None: the one place where the field of
    a root is chosen.

    A rational x has its root sought first in Q, then as a rational multiple
    of sqrt(d) when the squarefree radicand d is given, otherwise in the
    field of x's squarefree part, where a nonnegative x always has one
    (finding that part raises ValueError when squarefree_decompose gives up
    on the numerator times the denominator).  Any other x has its root
    sought in its own field, which is never enlarged; with d given, that
    field must be Q(sqrt(d)).  A negative x has no root.
    """
    x = QuadExt.lift(x)
    if x.b == 0:
        r = x.a
        if r < 0:
            return None
        s = rational_sqrt(r)
        if s is not None:
            return QuadExt(s)
        if d is None:
            sq, df = squarefree_decompose(r.numerator * r.denominator)
            return QuadExt(0, Fraction(sq, r.denominator), df)
        s = rational_sqrt(r / d)
        return None if s is None else QuadExt(0, s, d)
    if d is not None and d != x.d:
        return None
    # (p + q*sqrt(d))^2 = p^2 + d q^2 + 2 p q sqrt(d)
    norm = x.a * x.a - x.d * x.b * x.b
    t = rational_sqrt(norm)
    if t is None:
        return None
    for sgn in (1, -1):
        p2 = (x.a + sgn * t) / 2
        p = rational_sqrt(p2)
        if p is None or p == 0:
            continue
        q = x.b / (2 * p)
        cand = QuadExt(p, q, x.d)
        if cand * cand == x:
            return cand
    return None


def quadratic_roots(a: ScalarLike, b: ScalarLike, c: ScalarLike
                    ) -> Optional[tuple[QuadExt, QuadExt]]:
    """The roots ((-b + s) / 2a, (-b - s) / 2a) of a*x^2 + b*x + c, with
    s = field_sqrt(b^2 - 4ac) sought in the coefficients' own field, or in
    any Q(sqrt(d)) when all three are rational.  a must be nonzero.

    Returns None when there is no such s (a negative discriminant
    included) or when the coefficients mix two radicands.
    """
    a, b, c = QuadExt.lift(a), QuadExt.lift(b), QuadExt.lift(c)
    try:
        d = common_radicand((a, b, c))
    except RadicandMismatchError:
        return None
    s = field_sqrt(b * b - 4 * a * c, None if d == 1 else d)
    if s is None:
        return None
    nb, inv = -b, (2 * a).inverse()
    return (nb + s) * inv, (nb - s) * inv


def pochhammer(x: RatLike, m: int) -> Fraction:
    """Rising factorial x (x+1) ... (x+m-1); exact, m >= 0."""
    if m < 0:
        raise ValueError("pochhammer needs m >= 0, got %r" % (m,))
    x = Fraction(x)
    out = Fraction(1)
    for i in range(m):
        out *= x + i
    return out


# -- textual form ---------------------------------------------------------

def parse_quadext(text: str) -> QuadExt:
    """Parse a constant field literal: '2', '-1/3', '5/6*sqrt(6)', 'sqrt(2)',
    '1/2 - 3/4*sqrt(5)'.  The grammar is the expression grammar of
    exprparse with every name rejected."""
    from .exprparse import ExprParser, ExprSyntaxError
    from .poly import VarRegistry

    def no_names(name, tok):
        raise ExprSyntaxError("a field literal has no names, found %r" % (name,),
                              tok.line, tok.col)

    return ExprParser(text, VarRegistry(), no_names).parse_expression_only().constant_value()
