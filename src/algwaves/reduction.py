"""Reduction of evolution equations to companion ODE systems.

Substituting a profile U(x - c*t) for the unknown turns each derivative
u_{x^i t^j} into (-c)^j U^(i+j).  Writing y_k = U^(k-1) and solving the
resulting relation linearly for the top derivative yields the companion
first order system

    y1' = y2, ..., y_{n-1}' = y_n,  y_n' = G_c(y1, ..., y_n),

where G_c is a ratio num/den with den free of the state variables.  The
den factor can vanish at special wave speeds; those are reported so a
caller never divides by zero silently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .linalg import Pair, coordinate_powers, integer_pairs, pair_mul, pair_sign
from .numerics import Rhs
from .pde import PDESpec
from .poly import Monomial, MultiPoly, VarRegistry, compile_float_field, trial_divide
from .qfield import (
    QuadExt,
    RadicandMismatchError,
    common_radicand,
    field_sqrt,
    quadratic_roots,
)

ScalarLike = Union[int, Fraction, QuadExt]


class ReductionError(ValueError):
    pass


class DegenerateSpeedError(ReductionError):
    """The chosen propagation speed annihilates the leading coefficient."""


class EquilibriumContinuumError(ReductionError):
    """Rest states form a continuum instead of isolated points."""


# -- exact real roots of a univariate polynomial ---------------------------


@dataclass(frozen=True)
class RealRoot:
    value: Union[QuadExt, float]
    multiplicity: int
    exact: bool

    def __float__(self) -> float:
        return float(self.value)


def _divisors(n: int) -> list[int]:
    small = [i for i in range(1, math.isqrt(abs(n)) + 1) if n % i == 0]
    return sorted({*small, *(abs(n) // i for i in small)})


def _eval_desc(coeffs: Sequence[QuadExt], r: ScalarLike) -> QuadExt:
    acc = QuadExt.lift(0)
    for c in coeffs:
        acc = acc * r + c
    return acc


def _deflate_desc(coeffs: Sequence[QuadExt], r: ScalarLike) -> list[QuadExt]:
    # synthetic division; caller guarantees r is a root
    out: list[QuadExt] = []
    acc = QuadExt.lift(0)
    for c in coeffs[:-1]:
        acc = acc * r + c
        out.append(acc)
    return out


def _convergents(x: float, max_den: int) -> Iterator[Fraction]:
    """The continued-fraction convergents of x with denominator at most max_den."""
    f, (p0, q0), (p1, q1) = Fraction(x), (0, 1), (1, 0)
    while f is not None:
        a = math.floor(f)
        (p0, q0), (p1, q1) = (p1, q1), (a * p1 + p0, a * q1 + q0)
        if q1 > max_den:
            return
        yield Fraction(p1, q1)
        f = 1 / (f - a) if f != a else None


def _rational_root_candidates(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """The rational roots, ascending, of the polynomial with these
    coefficients (highest degree first).  A root p/q in lowest terms makes
    q x - p divide its integer multiple f over Z, so p divides the constant,
    q the leading coefficient, q - p divides f(1) and q + p divides f(-1);
    only the pairs that pass are evaluated, as f(p/q) q^n in integers.
    Above 10^9 for either coefficient, enumerating divisors would be
    unreasonable: the pairs are the continued-fraction convergents of the
    numeric real roots whose q divides the leading coefficient (a root
    whose float is too coarse to give its convergent is left numeric)."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    if not (ints[0] and ints[-1]):
        return []
    if max(abs(ints[0]), abs(ints[-1])) > 10**9:
        pairs = [(c.numerator, c.denominator) for root in _numeric_real_roots(ints)
                 for c in _convergents(root.value, abs(ints[0]))
                 if not ints[0] % c.denominator]
    else:
        at_one, at_minus_one = sum(ints), sum(c * (-1) ** n for n, c in enumerate(ints[::-1]))
        numerators = [p for a in _divisors(ints[-1]) for p in (a, -a)]
        pairs = [(p, q) for q in _divisors(ints[0]) for p in numerators  # q = +-p passes
                 if not (at_one % (q - p or 1) or at_minus_one % (q + p or 1))]
    roots = set()
    for p, q in pairs:
        acc, qn = 0, 1
        for c in ints:
            acc, qn = acc * p + c * qn, qn * q
        if acc == 0:
            roots.add(Fraction(p, q))
    return sorted(roots)


def _numeric_real_roots(coeffs_desc: Sequence[QuadExt]) -> list[RealRoot]:
    import numpy as np

    fl = [float(c) for c in coeffs_desc]
    scale = max(abs(v) for v in fl)
    if scale == 0.0:
        return []
    arr = np.array(fl, dtype=float) / scale
    roots = np.roots(arr)
    real = [complex(z) for z in roots if abs(z.imag) <= 1e-8 * (1.0 + abs(z.real))]

    def f(x: float) -> float:
        acc = 0.0
        for c in arr:
            acc = acc * x + c
        return acc

    def fp(x: float) -> float:
        acc = 0.0
        n = len(arr) - 1
        for k, c in enumerate(arr[:-1]):
            acc = acc * x + (n - k) * c
        return acc

    polished = []
    for z in real:
        x = z.real
        for _ in range(8):
            d = fp(x)
            if d == 0.0:
                break
            step = f(x) / d
            x -= step
            if abs(step) < 1e-15 * (1.0 + abs(x)):
                break
        polished.append(x)
    polished.sort()
    out: list[RealRoot] = []
    for x in polished:
        if out and abs(x - float(out[-1].value)) <= 1e-6 * (1.0 + abs(x)):
            prev = out.pop()
            out.append(RealRoot(prev.value, prev.multiplicity + 1, False))
        else:
            out.append(RealRoot(x, 1, False))
    return out


def _divmod_desc(num: Sequence[QuadExt], den: Sequence[QuadExt]
                 ) -> tuple[list[QuadExt], list[QuadExt]]:
    """(quotient, remainder) of polynomials over one field, highest degree
    first; den[0] is nonzero, and the remainder has no leading zero."""
    quot, rem = [], list(num)
    while len(rem) >= len(den):
        quot.append(rem[0] / den[0])
        rem = [a - quot[-1] * b for a, b in zip(rem[1:], den[1:])] + rem[len(den):]
    return quot, list(itertools.dropwhile(QuadExt.is_zero, rem))


def _monic_gcd(f: list[QuadExt], g: list[QuadExt]) -> list[QuadExt]:
    while g:
        f, g = g, _divmod_desc(f, g)[1]
    return [c / f[0] for c in f]


def _squarefree_parts(desc: list[QuadExt]) -> list[tuple[list[QuadExt], int]]:
    """(factor, multiplicity) pairs whose product, up to a constant, is the
    polynomial desc over one field: Musser's squarefree decomposition by
    gcds with the derivative.  A squarefree desc comes back as it is."""
    n = len(desc) - 1
    rest = _monic_gcd(desc, [c * (n - k) for k, c in enumerate(desc[:-1])])
    if len(rest) == 1:
        return [(desc, 1)]
    # w is the product of the factors of multiplicity >= mult, rest what
    # is left of desc once each of them is taken mult times
    w, parts, mult = _divmod_desc(desc, rest)[0], [], 1
    while len(w) > 1:
        y = _monic_gcd(w, rest)
        factor = _divmod_desc(w, y)[0]
        if len(factor) > 1:
            parts.append((factor, mult))
        w, rest, mult = y, _divmod_desc(rest, y)[0], mult + 1
    return parts


def real_univariate_roots(
    coeffs_ascending: Sequence[ScalarLike],
) -> tuple[list[RealRoot], bool]:
    """All real roots with multiplicities; flag is True when every real
    root was certified exactly (numeric fallback clears it).  Over one
    field the roots of each squarefree part are sought, so a repeated
    irrational root is not split by the numeric fallback."""
    asc = [QuadExt.lift(c) for c in coeffs_ascending]
    while asc and asc[-1].is_zero():
        asc.pop()
    if not asc:
        raise ValueError("zero polynomial has every value as a root")
    zero_mult = 0
    while asc and asc[0].is_zero():
        asc.pop(0)
        zero_mult += 1
    desc = list(reversed(asc))
    found: list[tuple[QuadExt, int]] = []
    if zero_mult:
        found.append((QuadExt.lift(0), zero_mult))
    all_exact = True
    numeric: list[RealRoot] = []
    if len({c.d for c in desc} - {1}) > 1:
        # the coefficients span two radicands: no exact step can combine them
        all_exact = False
        numeric = _numeric_real_roots(desc)
        parts = []
    else:
        parts = _squarefree_parts(desc)
    for desc, times in parts:
        while len(desc) > 1:
            deg = len(desc) - 1
            if deg == 1:
                found.append((-desc[1] / desc[0], times))
                break
            if deg == 2:
                a, b, c = desc
                exact = quadratic_roots(a, b, c)
                if exact is not None:  # two roots, as desc is squarefree
                    found += [(r, times) for r in exact]
                    break
                disc = b * b - 4 * a * c
                if disc.sign() < 0:
                    break  # complex pair, no real roots left
                all_exact = False
                sd = math.sqrt(float(disc))
                numeric.append(RealRoot((-float(b) + sd) / (2 * float(a)), times, False))
                numeric.append(RealRoot((-float(b) - sd) / (2 * float(a)), times, False))
                break
            # degree >= 3: peel off rational roots, then retry
            if all(c.is_rational() for c in desc):
                cands = _rational_root_candidates([c.rational_part for c in desc])
            else:
                # a rational root must kill rational and radical parts alike,
                # so candidates can come from either one (nonzero tail wins)
                fa = [c.rational_part for c in desc]
                fb = [c.radical_part for c in desc]
                base = fa if (any(fa) and fa[-1] != 0) else fb
                cands = _rational_root_candidates(base)
            hit = next((QuadExt.lift(r) for r in cands if _eval_desc(desc, r).is_zero()), None)
            if hit is None:
                all_exact = False
                numeric.extend(RealRoot(r.value, r.multiplicity * times, False)
                               for r in _numeric_real_roots(desc))
                break
            desc = _deflate_desc(desc, hit)  # a simple root of squarefree desc
            found.append((hit, times))
    # zero roots were stripped first, and the squarefree parts share no
    # root and have simple roots only, so no value appears twice
    exact_roots = [RealRoot(v, m, True) for v, m in found]
    roots = sorted(exact_roots + numeric, key=float)
    return roots, all_exact


# -- companion systems ------------------------------------------------------


@dataclass
class ODESystemSpec:
    """Companion system y' = (y2, ..., yn, num/den) in a traveling frame.

    num and den live in a registry holding y1..yn (plus a scratch top
    variable), the speed symbol, and any unbound equation parameters.
    den never involves the state variables.
    """

    registry: VarRegistry
    n: int
    gc_num: MultiPoly
    gc_den: MultiPoly
    y_vars: list[int]
    c_var: int
    c: Optional[QuadExt] = None
    param_vars: dict[str, int] = field(default_factory=dict)
    exceptional_speeds: Optional[list[RealRoot]] = None

    def unbound_params(self) -> list[str]:
        used = set(self.gc_num.variables()) | set(self.gc_den.variables())
        return [p for p, v in self.param_vars.items() if v in used]

    def bind_speed(self, c: ScalarLike) -> "ODESystemSpec":
        cval = QuadExt.lift(c)
        num = self.gc_num.substitute({self.c_var: cval})
        den = self.gc_den.substitute({self.c_var: cval})
        if den.is_zero:
            raise DegenerateSpeedError(
                f"speed {cval} annihilates the leading coefficient"
            )
        # a unit denominator (the usual case) leaves num as it is: scaling
        # by 1 would rebuild every term to the same value and order
        if den.is_constant() and den.constant_value() != 1:
            num = num * den.constant_value().inverse()
            den = MultiPoly.one(self.registry)
        return replace(self, gc_num=num, gc_den=den, c=cval)

    def gc(self) -> MultiPoly:
        """Fold the denominator away; requires it to be a plain constant."""
        if not self.gc_den.is_constant():
            raise ReductionError(
                "denominator still involves parameters: "
                + ", ".join(self.registry.name(v) for v in self.gc_den.variables())
            )
        den = self.gc_den.constant_value()
        return self.gc_num if den == 1 else self.gc_num * den.inverse()


def travelling_wave_reduce(spec: PDESpec) -> ODESystemSpec:
    """Reduce an evolution equation to its traveling-frame companion system.

    The speed stays the symbol c, which bind_speed fixes; exceptional
    speeds (roots of the leading coefficient, where the reduction breaks
    down) are enumerated whenever that coefficient involves no other
    parameters.
    """
    unbound = spec.unbound_params()
    if "c" in unbound:
        raise ReductionError("parameter 'c' collides with the speed symbol")
    n = spec.order
    if n < 1:
        raise ReductionError("equation contains no derivatives")
    reg = VarRegistry()
    y_ids = [reg.var(f"y{i + 1}") for i in range(n + 1)]
    c_id = reg.var("c")
    param_ids = {p: reg.var(p) for p in unbound}

    bindings: dict[int, MultiPoly] = {}
    for vid, dsym in spec.deriv_vars.items():
        k = dsym.order
        if k > n:
            continue  # bound-out derivative, absent from the relation
        j = dsym.t_order
        mono: list[tuple[int, int]] = [(y_ids[k], 1)]
        if j:
            mono.append((c_id, j))
        mono.sort()
        coeff = QuadExt.lift((-1) ** j)
        bindings[vid] = MultiPoly(reg, {tuple(mono): coeff})
    for p, vid in param_ids.items():
        bindings[spec.param_vars[p]] = MultiPoly.var(reg, vid)
    relation = spec.poly.substitute(
        {v: bindings[v] for v in spec.poly.variables()}, registry=reg
    )

    top = y_ids[n]
    if relation.degree_in(top) != 1:
        raise ReductionError("relation is not linear in the highest derivative")
    by_top = relation.as_univariate(top)
    lead, rest = by_top[1], by_top[0]
    state = set(y_ids[:n])
    if set(lead.variables()) & state:
        quot = trial_divide(-rest, lead)
        if quot is None:
            raise ReductionError(
                "leading coefficient involves the state and does not divide out"
            )
        num, den = quot, MultiPoly.one(reg)
    else:
        num, den = -rest, lead

    # normalize so den has a unit leading coefficient
    lc = den.leading_term()[1]
    num = num * lc.inverse()
    den = den * lc.inverse()

    exceptional: Optional[list[RealRoot]]
    if den.degree_in(c_id) <= 0:
        exceptional = []
    else:
        cols = den.as_univariate(c_id)
        if all(p.is_constant() for p in cols):
            roots, _ = real_univariate_roots([p.constant_value() for p in cols])
            exceptional = roots
        else:
            exceptional = None  # depends on parameters, not enumerable

    return ODESystemSpec(
        registry=reg,
        n=n,
        gc_num=num,
        gc_den=den,
        y_vars=y_ids[:n],
        c_var=c_id,
        param_vars=param_ids,
        exceptional_speeds=exceptional,
    )


# -- rest states and their local linearization ------------------------------


@dataclass(frozen=True)
class Equilibrium:
    point: tuple
    exact: bool
    multiplicity: int

    @property
    def x(self):
        return self.point[0]

    @property
    def y(self):
        return self.point[1]


def equilibria(sys_spec: ODESystemSpec) -> list[Equilibrium]:
    """Isolated rest states (r, 0, ..., 0) of the companion system."""
    if sys_spec.c is None:
        raise ReductionError("bind a speed before locating rest states")
    g = sys_spec.gc()
    y1 = sys_spec.y_vars[0]
    zeroed = g.substitute({v: QuadExt.lift(0) for v in sys_spec.y_vars[1:]})
    extra = set(zeroed.variables()) - {y1}
    if extra:
        names = ", ".join(sys_spec.registry.name(v) for v in sorted(extra))
        raise ReductionError(f"unbound parameters remain: {names}")
    if zeroed.is_zero:
        raise EquilibriumContinuumError("every constant profile is a rest state")
    coeffs = [p.constant_value() for p in zeroed.as_univariate(y1)]
    roots, _ = real_univariate_roots(coeffs)
    zeros = tuple(QuadExt.lift(0) for _ in range(sys_spec.n - 1))
    out = []
    for r in roots:
        val = r.value if r.exact else float(r.value)
        out.append(Equilibrium((val,) + zeros, r.exact, r.multiplicity))
    return out


# -- planar systems ----------------------------------------------------------


@dataclass
class PlanarSystem:
    """Autonomous plane system x' = P(x, y), y' = Q(x, y), in x and y alone."""

    registry: VarRegistry
    x_var: int
    y_var: int
    P: MultiPoly
    Q: MultiPoly
    _integer: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if set(self.P.variables() + self.Q.variables()) - {self.x_var, self.y_var}:
            raise ReductionError("P and Q of a plane system may involve only x and y")

    @classmethod
    def from_polys(cls, P: MultiPoly, Q: MultiPoly):
        """The system on the variables named x and y of P's registry."""
        reg = P.registry
        if Q.registry is not reg:
            raise ReductionError("P and Q must share a registry")
        return cls(reg, reg.id_of("x"), reg.id_of("y"), P, Q)

    def rhs_float(self) -> Rhs:
        """rhs(t, u) = (P(u), Q(u)) as one generated function of u = (x, y)."""
        return compile_float_field([self.P, self.Q], (self.x_var, self.y_var))

    def exponents(self, m: Monomial) -> tuple[int, int]:
        """The (x, y) exponents of a monomial."""
        e = dict(m)
        return e.get(self.x_var, 0), e.get(self.y_var, 0)

    def integer_form(self) -> tuple[int, int, tuple[list, list]]:
        """(d, scale, (P terms, Q terms)), built on the first call and kept.

        Each term is (x exponent, y exponent, integer pair): the pair is
        scale times the coefficient, over Z[sqrt(d)], and scale is the lcm
        of the denominators of P and Q.  Raises RadicandMismatchError when P
        and Q mix radicands.
        """
        if self._integer is None:
            coeffs = [*self.P.terms.values(), *self.Q.terms.values()]
            d = common_radicand(coeffs)
            scale, pairs = integer_pairs(coeffs)
            pairs = iter(pairs)
            terms = tuple([(*self.exponents(m), next(pairs)) for m in f.terms]
                          for f in (self.P, self.Q))
            self._integer = d, scale, terms
        return self._integer


def to_planar(sys_spec: ODESystemSpec) -> PlanarSystem:
    """The bound second order system as x' = y, y' = G(x, y)."""
    if sys_spec.n != 2:
        raise ReductionError(f"system has dimension {sys_spec.n}, not 2")
    if sys_spec.c is None:
        raise ReductionError("bind a speed before extracting a plane system")
    g = sys_spec.gc()
    if set(g.variables()) - set(sys_spec.y_vars):
        raise ReductionError("unbound parameters remain")
    reg = VarRegistry()
    xv, yv = reg.var("x"), reg.var("y")
    sub = {
        sys_spec.y_vars[0]: MultiPoly.var(reg, xv),
        sys_spec.y_vars[1]: MultiPoly.var(reg, yv),
    }
    Q = g.substitute(sub, registry=reg)
    return PlanarSystem(reg, xv, yv, MultiPoly.var(reg, yv), Q)


# -- local spectra -----------------------------------------------------------


@dataclass
class EigenData:
    det: Union[QuadExt, float]  # a float only where no exact Jacobian exists
    disc: Union[QuadExt, float]
    is_saddle: bool
    is_degenerate: bool
    exact: bool
    eigenvalues: tuple
    eigenvectors: tuple


def _eigvec(j11, j12, j21, j22, lam):
    if j12:
        return (j12, lam - j11)
    if j21:
        return (lam - j22, j21)
    if lam == j11:
        return (QuadExt.lift(1), QuadExt.lift(0))
    return (QuadExt.lift(0), QuadExt.lift(1))


def integer_jet(ps: PlanarSystem, point: Sequence[ScalarLike]
                ) -> tuple[int, int, tuple[tuple[Pair, Pair, Pair], ...]]:
    """P, Q and their partial derivatives at a plane point, in one integer
    pass: (d, s, ((P, P_x, P_y), (Q, Q_x, Q_y))), each value times s an
    integer pair over Z[sqrt(d)], d the radicand of the system and the point.

    The terms are those of ps.integer_form().  The point's coordinate powers
    are built once, as the point rows of an invariance matrix are
    (linalg.coordinate_powers), so a term x^i y^j and its derivatives only
    multiply integer pairs.  Raises RadicandMismatchError when the system
    and the point mix radicands.
    """
    d, scale, terms = ps.integer_form()
    x, y = QuadExt.lift(point[0]), QuadExt.lift(point[1])
    e = common_radicand([x, y])
    if e != 1 and d not in (1, e):
        # in common_radicand's words, whichever of the two comes first
        raise RadicandMismatchError("cannot combine sqrt(%d) with sqrt(%d)" % tuple(sorted((d, e))))
    d = max(d, e)
    px, sx = coordinate_powers(x, max((i for ts in terms for i, _, _ in ts), default=0), d)
    py, sy = coordinate_powers(y, max((j for ts in terms for _, j, _ in ts), default=0), d)
    jet = []
    for ts in terms:
        values = []
        # f, then f_x (weight i, x^(i-1)), then f_y (weight j, y^(j-1))
        for di, dj in ((0, 0), (1, 0), (0, 1)):
            a = b = 0
            for i, j, c in ts:
                w = i if di else j if dj else 1
                if w:
                    ta, tb = pair_mul(c, pair_mul(px[i - di], py[j - dj], d), d)
                    a, b = a + w * ta, b + w * tb
            values.append((a, b))
        jet.append(tuple(values))
    return d, scale * sx * sy, tuple(jet)


def characteristic_pairs(jet: Sequence[Sequence[Pair]], d: int
                         ) -> tuple[Pair, Pair, Pair]:
    """The trace, determinant and discriminant tr^2 - 4 det of the
    Jacobian in an integer_jet, as integer pairs over Z[sqrt(d)]: the trace
    over the jet's s, the other two over s^2."""
    (_, j11, j12), (_, j21, j22) = jet
    tr = (j11[0] + j22[0], j11[1] + j22[1])
    (a, b), (u, v) = pair_mul(j11, j22, d), pair_mul(j12, j21, d)
    det = (a - u, b - v)
    t2 = pair_mul(tr, tr, d)
    return tr, det, (t2[0] - 4 * det[0], t2[1] - 4 * det[1])


def _root_field(d: int, jet: Sequence[Sequence[Pair]]) -> tuple[Pair, Pair, Optional[int]]:
    """The trace and discriminant pairs of characteristic_pairs, and where
    the discriminant's root is sought: in Q(sqrt(d)), or in any field (None)
    when the trace, the determinant and the diagonal entry that _eigvec
    subtracts an eigenvalue from are all rational.  Otherwise a root outside
    Q(sqrt(d)) would give an eigenvalue or eigenvector mixing radicands."""
    (_, j11, j12), (_, j21, j22) = jet
    tr, det, disc = characteristic_pairs(jet, d)
    diagonal = j11 if j12 != (0, 0) else j22 if j21 != (0, 0) else (0, 0)
    return tr, disc, None if tr[1] == det[1] == diagonal[1] == 0 else d


def _value(pair: Pair, den: int, d: int) -> QuadExt:
    return QuadExt(Fraction(pair[0], den), Fraction(pair[1], den), d)


def exact_eigenvalues(d: int, s: int, jet: Sequence[Sequence[Pair]]
                      ) -> Optional[tuple[QuadExt, QuadExt]]:
    """The eigenvalues ((tr + r)/2, (tr - r)/2) of the Jacobian in an
    integer_jet (d, s, jet), with r = field_sqrt(tr^2 - 4 det) sought in
    the field _root_field picks; None when there is no such r, so that an
    eigenvalue, or an eigenvector of each (_eigvec), is not exact.  The one
    place where an exact eigenvalue of a point is formed, as one QuadExt
    from the trace's integer pair over 2s and the halves of r's components,
    in r's field or, for a rational r, in Q(sqrt(d)) (_root_field puts r in
    Q(sqrt(d)) whenever the trace is irrational)."""
    tr, disc, radicand = _root_field(d, jet)
    r = field_sqrt(_value(disc, s * s, d), radicand)
    if r is None:
        return None
    ta, tb = Fraction(tr[0], 2 * s), Fraction(tr[1], 2 * s)
    ra, rb, e = r.a / 2, r.b / 2, r.d if r.d != 1 else d
    return QuadExt(ta + ra, tb + rb, e), QuadExt(ta - ra, tb - rb, e)


def eigenvalues_are_exact(d: int, s: int, jet: Sequence[Sequence[Pair]]) -> bool:
    """Whether exact_eigenvalues(d, s, jet) finds the eigenvalues, decided
    without forming them: a nonnegative discriminant has a root in some
    field, so where any field will do no squarefree part is sought; in
    every other case the same root step decides."""
    _, disc, radicand = _root_field(d, jet)
    if radicand is None and pair_sign(disc, d) >= 0:
        return True
    return field_sqrt(_value(disc, s * s, d), radicand) is not None


def _spectral_jet(tr: QuadExt, det: QuadExt, diagonal: QuadExt):
    """An integer_jet (d, s, jet) of [[g, 1], [g (tr - g) - det, tr - g]],
    g the diagonal entry: its trace is tr, its determinant det, and g is the
    entry _eigvec subtracts from, so exact_eigenvalues decides it as it
    would any Jacobian with these three.  None when they mix radicands,
    where no eigenvalue is exact."""
    try:
        entries = [diagonal, QuadExt(1), diagonal * (tr - diagonal) - det, tr - diagonal]
        d = common_radicand(entries)
    except RadicandMismatchError:
        return None
    s, (j11, j12, j21, j22) = integer_pairs(entries)
    return d, s, (((0, 0), j11, j12), ((0, 0), j21, j22))


def _characteristic(j11, j12, j21, j22):
    """The trace, determinant and discriminant of [[j11, j12], [j21, j22]]."""
    tr, det = j11 + j22, j11 * j22 - j12 * j21
    return tr, det, tr * tr - 4 * det


def jacobian_eigen(ps: PlanarSystem, point: Sequence[ScalarLike]) -> EigenData:
    """Spectral data of the linearization at a plane point.

    The Jacobian comes from one integer_jet, or, for a system and a point
    that mix radicands, from the partial derivatives evaluated over QuadExt.
    Where those, or the trace, determinant or discriminant, mix radicands
    too, no exact Jacobian exists: the partial derivatives' float
    evaluators give the Jacobian, and det and disc are floats.  Otherwise
    saddle detection is an exact sign test on the determinant.  Eigenvalues
    stay exact whenever exact_eigenvalues finds them; otherwise floats (or
    a complex pair) come with exact=False.
    """
    try:
        spectral = integer_jet(ps, point)
        d, s, ((_, j11, j12), (_, j21, j22)) = spectral
        jac = [_value(j, s, d) for j in (j11, j12, j21, j22)]
    except RadicandMismatchError:
        spectral, order = None, (ps.x_var, ps.y_var)
        partials = [f.partial_derivative(v) for f in (ps.P, ps.Q) for v in order]
        pt = dict(zip(order, map(QuadExt.lift, point)))
        try:
            jac = [g.evaluate(pt) for g in partials]
            _characteristic(*jac)  # raises where no one field holds tr, det or disc
        except RadicandMismatchError:
            jac = [g.compile_float(order)(*map(float, pt.values())) for g in partials]
    tr, det, disc = _characteristic(*jac)
    j11, j12, j21, j22 = jac
    data = (det, disc, det < 0, det == 0)
    if spectral is None and isinstance(det, QuadExt):
        spectral = _spectral_jet(tr, det, j11 if j12 else j22 if j21 else QuadExt(0))
    vals = exact_eigenvalues(*spectral) if spectral else None
    if vals is not None:
        return EigenData(*data, True, vals, tuple(_eigvec(*jac, lam) for lam in vals))
    ft, fd = float(tr), float(disc)
    if fd >= 0:
        sq = math.sqrt(fd)
        lp, lm = (ft + sq) / 2, (ft - sq) / 2
    else:
        sq = math.sqrt(-fd)
        lp, lm = complex(ft / 2, sq / 2), complex(ft / 2, -sq / 2)
    fjac = (float(j11), float(j12), float(j21), float(j22))
    return EigenData(*data, False, (lp, lm), tuple(_eigvec(*fjac, lam) for lam in (lp, lm)))
