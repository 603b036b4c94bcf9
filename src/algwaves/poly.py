"""Sparse multivariate polynomials over Q(sqrt(d)).

Monomials are tuples of (variable id, exponent) pairs sorted by id; the zero
exponent never appears.  Canonical term order is graded lexicographic with
ties broken by variable id (lower id first).  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .qfield import QuadExt

Monomial = tuple[tuple[int, int], ...]

CoeffLike = Union[int, Fraction, QuadExt]


class RegistryMismatchError(ValueError):
    """Operands were built over different variable registries."""


class VarRegistry:
    """Append-only mapping between variable names and integer ids."""

    def __init__(self, names: Iterable[str] = ()):  # noqa: D107
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        for n in names:
            self.var(n)

    def var(self, name: str) -> int:
        """Id of name, registering it if new."""
        if name in self._ids:
            return self._ids[name]
        if not name or not all(c.isalnum() or c == "_" for c in name):
            raise ValueError("bad variable name %r" % (name,))
        vid = len(self._names)
        self._names.append(name)
        self._ids[name] = vid
        return vid

    def id_of(self, name: str) -> int:
        if name not in self._ids:
            raise KeyError("unknown variable %r" % (name,))
        return self._ids[name]

    def name(self, vid: int) -> str:
        return self._names[vid]

    def names(self) -> list[str]:
        return list(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)

    def __repr__(self):
        return "VarRegistry(%r)" % (self._names,)


# -- monomial helpers ------------------------------------------------------

def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict[int, int] = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def mono_div(m1: Monomial, m2: Monomial) -> Optional[Monomial]:
    """m1 / m2, or None when not divisible."""
    exps = dict(m1)
    for v, e in m2:
        r = exps.get(v, 0) - e
        if r < 0:
            return None
        if r == 0:
            exps.pop(v, None)
        else:
            exps[v] = r
    return tuple(sorted(exps.items()))


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _dense(m: Monomial, nvars: int) -> tuple[int, ...]:
    row = [0] * nvars
    for v, e in m:
        row[v] = e
    return tuple(row)


def grlex_key(m: Monomial, nvars: int):
    return (mono_degree(m), _dense(m, nvars))


def ylex_key(m: Monomial, nvars: int):
    """Lexicographic with the highest-id variable taking priority.

    Used to normalize planar curves: for variables (x, y) the leading term is
    the one of maximal y-degree, matching the convention that an invariant
    curve is monic in y."""
    return tuple(reversed(_dense(m, nvars)))


def _is_one(c: QuadExt) -> bool:
    return c.b == 0 and c.a == 1


class MultiPoly:
    """Immutable-by-convention sparse polynomial over QuadExt coefficients."""

    # _hash is filled on the first hash() call and _compiled, compile_float's
    # evaluators by variable order, on its first call; terms are never changed
    __slots__ = ("registry", "terms", "_hash", "_compiled")

    def __init__(self, registry: VarRegistry, terms: Optional[dict] = None):
        self.registry = registry
        clean: dict[Monomial, QuadExt] = {}
        if terms:
            for m, c in terms.items():
                c = QuadExt.lift(c)
                if not c.is_zero():
                    clean[m] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, registry: VarRegistry) -> "MultiPoly":
        return cls(registry, {})

    @classmethod
    def const(cls, registry: VarRegistry, value: CoeffLike) -> "MultiPoly":
        return cls(registry, {(): QuadExt.lift(value)})

    @classmethod
    def one(cls, registry: VarRegistry) -> "MultiPoly":
        return cls.const(registry, 1)

    @classmethod
    def var(cls, registry: VarRegistry, v: Union[int, str]) -> "MultiPoly":
        vid = registry.var(v) if isinstance(v, str) else v
        return cls(registry, {((vid, 1),): QuadExt(1)})

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> QuadExt:
        if not self.is_constant():
            raise ValueError("not a constant polynomial: %s" % (self,))
        return self.terms.get((), QuadExt(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def degree_in(self, v: int) -> int:
        if not self.terms:
            return -1
        best = 0
        for m in self.terms:
            for vid, e in m:
                if vid == v and e > best:
                    best = e
        return best

    def variables(self) -> list[int]:
        seen: set[int] = set()
        for m in self.terms:
            for vid, _ in m:
                seen.add(vid)
        return sorted(seen)

    def coeff(self, m: Monomial) -> QuadExt:
        return self.terms.get(m, QuadExt(0))

    def leading_term(self, order: str = "grlex") -> tuple[Monomial, QuadExt]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        n = len(self.registry)
        key = grlex_key if order == "grlex" else ylex_key
        m = max(self.terms, key=lambda mm: key(mm, n))
        return m, self.terms[m]

    def monic(self, order: str = "grlex") -> "MultiPoly":
        """Scale so the leading coefficient under the given order is 1."""
        if not self.terms:
            return self
        _, c = self.leading_term(order)
        return self * c.inverse()

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.registry is not other.registry:
            raise RegistryMismatchError("operands use different variable registries")

    def _coerce(self, other) -> Optional["MultiPoly"]:
        if isinstance(other, MultiPoly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction, QuadExt)):
            return MultiPoly.const(self.registry, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return MultiPoly(self.registry, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.registry, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[Monomial, QuadExt] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                s = out.get(m)
                out[m] = c if s is None else s + c
        return MultiPoly(self.registry, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if n == 0:
            return MultiPoly.one(self.registry)
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            other = MultiPoly.const(self.registry, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.registry is other.registry and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.terms.items()))
            return self._hash

    # -- calculus and evaluation ------------------------------------------

    def partial_derivative(self, v: int) -> "MultiPoly":
        out: dict[Monomial, QuadExt] = {}
        for m, c in self.terms.items():
            exps = dict(m)
            e = exps.get(v, 0)
            if e == 0:
                continue
            if e == 1:
                exps.pop(v)
            else:
                exps[v] = e - 1
            mm = tuple(sorted(exps.items()))
            nc = c * e
            s = out.get(mm)
            out[mm] = nc if s is None else s + nc
        return MultiPoly(self.registry, out)

    def substitute(
        self,
        bindings: dict[int, Union["MultiPoly", CoeffLike]],
        registry: Optional[VarRegistry] = None,
    ) -> "MultiPoly":
        """Simultaneous substitution.  Unbound variables map to themselves,
        which requires the target registry to be the source registry.

        The image of each term, in term order, is added into one dict, and a
        sum that cancels leaves it, so the terms come out in the order that
        adding up one polynomial per term gives (the float evaluators of
        compile_float sum in that order).  A power of a one-term binding (a
        scalar, or a variable renamed) only merges exponents and multiplies
        the coefficient, not at all when it is 1; only powers of bindings
        with several terms are multiplied as polynomials.
        """
        target = registry if registry is not None else self.registry
        subs: dict[int, MultiPoly] = {}
        for v, val in bindings.items():
            if isinstance(val, MultiPoly):
                if val.registry is not target:
                    raise RegistryMismatchError("binding for %s uses a foreign registry"
                                                % (self.registry.name(v),))
                subs[v] = val
            else:
                subs[v] = MultiPoly.const(target, val)
        # (v, e) -> (monomial, coefficient or None for 1) for a one-term
        # power, else the power as a polynomial
        powers: dict[tuple[int, int], Union[MultiPoly, tuple[Monomial, Optional[QuadExt]]]] = {}
        out: dict[Monomial, QuadExt] = {}
        for m, c in self.terms.items():
            mono: Monomial = ()
            coef = None if _is_one(c) else c
            factors: list[MultiPoly] = []
            for v, e in m:
                key = (v, e)
                p = powers.get(key)
                if p is None:
                    if v in subs:
                        b = subs[v]
                        if len(b.terms) == 1:
                            (bm, bc), = b.terms.items()
                            if not _is_one(bc):
                                bc = bc ** e
                            p = tuple((w, k * e) for w, k in bm), None if _is_one(bc) else bc
                        else:
                            p = b ** e
                    elif target is self.registry:
                        p = ((v, e),), None
                    else:
                        raise ValueError("no binding for variable %r under a new registry"
                                         % (self.registry.name(v),))
                    powers[key] = p
                if isinstance(p, MultiPoly):
                    factors.append(p)
                else:
                    mono = mono_mul(mono, p[0])
                    if p[1] is not None:
                        coef = p[1] if coef is None else coef * p[1]
            if factors:
                prod = factors[0]
                for f in factors[1:]:
                    prod = prod * f
                images = [(mono_mul(pm, mono), pc if coef is None else pc * coef)
                          for pm, pc in prod.terms.items()]
            else:
                images = [(mono, c if coef is None else coef)]
            for pm, pc in images:
                s = out.get(pm)
                if s is not None:
                    pc = s + pc
                    if pc.is_zero():
                        del out[pm]
                        continue
                out[pm] = pc
        return MultiPoly(target, out)

    def evaluate(self, point: dict[int, CoeffLike]) -> QuadExt:
        """The exact value at a point; a term's coordinate powers are taken
        before its coefficient, so a zero coordinate cancels any radicand."""
        out = QuadExt(0)
        for m, c in self.terms.items():
            val = None
            for v, e in m:
                if v not in point:
                    raise ValueError("unbound variable %r in evaluation"
                                     % (self.registry.name(v),))
                power = QuadExt.lift(point[v]) ** e
                val = power if val is None else val * power
            out = out + (c if val is None else val * c)
        return out

    def evaluate_float(self, point: dict[int, float]) -> float:
        """Float value at one point, by compile_float's evaluator for the
        point's variable order."""
        return self.compile_float(list(point))(*point.values())

    def compile_float(self, order: Sequence[int]) -> Callable[..., float]:
        """Float evaluator f(x0, x1, ...) with positional arguments in the
        given variable order.

        The evaluator is straight-line Python generated by _compile_float,
        once per polynomial and order.  Arguments may be floats or numpy
        arrays of one shape; with arrays the result has that shape, for
        constant and zero polynomials too."""
        order = tuple(order)
        if not hasattr(self, "_compiled"):
            self._compiled = {}
        if order not in self._compiled:
            self._compiled[order] = _compile_float([self], order, field=False)
        return self._compiled[order]

    def as_univariate(self, v: int) -> list["MultiPoly"]:
        """Coefficients in v, ascending; index i holds the v**i coefficient."""
        deg = self.degree_in(v)
        buckets: list[dict[Monomial, QuadExt]] = [dict() for _ in range(max(deg, 0) + 1)]
        for m, c in self.terms.items():
            exps = dict(m)
            e = exps.pop(v, 0)
            mm = tuple(sorted(exps.items()))
            b = buckets[e]
            s = b.get(mm)
            b[mm] = c if s is None else s + c
        return [MultiPoly(self.registry, b) for b in buckets]

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self, order: str = "grlex") -> list[tuple[Monomial, QuadExt]]:
        n = len(self.registry)
        key = grlex_key if order == "grlex" else ylex_key
        return sorted(self.terms.items(), key=lambda it: key(it[0], n), reverse=True)

    def _mono_str(self, m: Monomial) -> str:
        parts = []
        for v, e in m:
            nm = self.registry.name(v)
            parts.append(nm if e == 1 else "%s^%d" % (nm, e))
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            if c.b != 0 and c.a != 0:
                coeff_str = "(%s)" % (c,)
                neg = False
            else:
                neg = c.sign() < 0
                mag = -c if neg else c
                coeff_str = str(mag)
            mono_str = self._mono_str(m)
            if mono_str:
                body = mono_str if coeff_str == "1" else "%s*%s" % (coeff_str, mono_str)
            else:
                body = coeff_str
            if i == 0:
                pieces.append("-" + body if neg else body)
            else:
                pieces.append(("- " if neg else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return "<MultiPoly %s>" % (self,)


# -- generated float evaluators ----------------------------------------------

MAX_TERMS_PER_EXPR = 200
"""Terms per generated expression.  A longer sum continues in further
statements, since CPython's compiler recurses once per operator of a
chain and raises RecursionError on a few thousand terms."""


def _compile_float(polys: Sequence[MultiPoly], order: Sequence[int],
                   field: bool) -> Callable:
    """Generate, compile and return def f(x0, x1, ...) returning polys[0],
    or with field=True def f(t, u) returning the tuple of all polys.

    Argument i is the variable order[i].  Each term is c * x_i ** e * ...
    in the polynomial's term order, with x_i ** 1 written x_i, and each
    sum runs left to right.  A constant (or zero) polynomial keeps
    x_i ** 0 for every argument, so that array arguments broadcast.  The
    source holds only generated names, operators and integer exponents:
    the coefficients are bound by name in the namespace."""
    pos = {v: i for i, v in enumerate(order)}
    args = ", ".join("x%d" % i for i in range(len(order)))
    lines = ["def f(t, u):", "    [%s] = u" % args] if field else ["def f(%s):" % args]
    namespace: dict = {"__builtins__": {}}
    for k, f in enumerate(polys):
        for v in f.variables():
            if v not in pos:
                raise ValueError("unbound variable %r in evaluation"
                                 % (f.registry.name(v),))
        if f.is_constant():
            terms = [(f.coeff(()), [(i, 0) for i in range(len(order))])]
        else:
            terms = [(c, [(pos[v], e) for v, e in m]) for m, c in f.terms.items()]
        sources = []
        for j, (c, factors) in enumerate(terms):
            name = "c%d_%d" % (k, j)
            namespace[name] = float(c)
            sources.append(" * ".join([name] + ["x%d" % i if e == 1 else "x%d ** %d" % (i, e)
                                                for i, e in factors]))
        acc = "s%d" % k
        for i in range(0, len(sources), MAX_TERMS_PER_EXPR):
            chunk = sources[i:i + MAX_TERMS_PER_EXPR]
            lines.append("    %s = %s" % (acc, " + ".join(chunk if i == 0 else [acc] + chunk)))
    if field:
        lines.append("    return (%s,)" % ", ".join("s%d" % k for k in range(len(polys))))
    else:
        lines.append("    return s0")
    exec(compile("\n".join(lines) + "\n", "<compile_float>", "exec"), namespace)
    return namespace["f"]


def compile_float_field(polys: Sequence[MultiPoly], order: Sequence[int]
                        ) -> Callable[[float, Sequence[float]], tuple[float, ...]]:
    """Right-hand side f(t, u) of the system u' = (polys[0](u), ...).

    u holds one float per variable of order, in that order; t is ignored.
    Each component is computed as compile_float computes it, so the values
    are the same floats."""
    return _compile_float(polys, order, field=True)


# -- division and resultants -----------------------------------------------

def trial_divide(f: MultiPoly, g: MultiPoly) -> Optional[MultiPoly]:
    """Exact quotient f/g, or None when g does not divide f."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    f._check(g)
    reg = f.registry
    q = MultiPoly.zero(reg)
    r = f
    gm, gc = g.leading_term()
    gc_inv = gc.inverse()
    while not r.is_zero:
        rm, rc = r.leading_term()
        m = mono_div(rm, gm)
        if m is None:
            return None
        t = MultiPoly(reg, {m: rc * gc_inv})
        q = q + t
        r = r - t * g
    return q


def exact_divide(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    q = trial_divide(f, g)
    if q is None:
        raise ArithmeticError("expected exact division failed")
    return q


def bareiss_determinant(mat: list[list[MultiPoly]], registry: VarRegistry) -> MultiPoly:
    """Fraction-free determinant; all divisions are exact in the polynomial ring."""
    n = len(mat)
    if n == 0:
        return MultiPoly.one(registry)
    m = [row[:] for row in mat]
    sign = 1
    prev = MultiPoly.one(registry)
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero(registry)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num if prev.is_constant() and prev.constant_value() == 1 \
                    else exact_divide(num, prev)
            m[i][k] = MultiPoly.zero(registry)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def sylvester_resultant(p: MultiPoly, q: MultiPoly, v: int) -> MultiPoly:
    """Resultant of p and q with respect to variable v.

    Both arguments must have positive degree in v; the result is a polynomial
    in the remaining variables."""
    p._check(q)
    dp = p.degree_in(v)
    dq = q.degree_in(v)
    if dp < 1 or dq < 1:
        raise ValueError("resultant needs positive degree in the eliminated variable")
    cp = list(reversed(p.as_univariate(v)))  # descending
    cq = list(reversed(q.as_univariate(v)))
    n = dp + dq
    reg = p.registry
    zero = MultiPoly.zero(reg)
    rows: list[list[MultiPoly]] = []
    for i in range(dq):
        rows.append([zero] * i + cp + [zero] * (n - i - dp - 1))
    for i in range(dp):
        rows.append([zero] * i + cq + [zero] * (n - i - dq - 1))
    return bareiss_determinant(rows, reg)
