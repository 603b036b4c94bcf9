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

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

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
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


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


def _rational_root_candidates(coeffs: Sequence[Fraction]) -> list[Fraction]:
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    lead, const = ints[0], ints[-1]
    if const == 0 or lead == 0:
        return []
    if abs(const) > 10**9 or abs(lead) > 10**9:
        # divisor enumeration would be unreasonable; numeric fallback instead
        return []
    cands = set()
    for p in _divisors(const):
        for q in _divisors(lead):
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    return sorted(cands)


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


def real_univariate_roots(
    coeffs_ascending: Sequence[ScalarLike],
) -> tuple[list[RealRoot], bool]:
    """All real roots with multiplicities; flag is True when every real
    root was certified exactly (numeric fallback clears it)."""
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
        desc = desc[:1]
    while len(desc) > 1:
        deg = len(desc) - 1
        if deg == 1:
            found.append((-desc[1] / desc[0], 1))
            desc = desc[:1]
            continue
        if deg == 2:
            a, b, c = desc
            exact = quadratic_roots(a, b, c)
            if exact is not None:
                r1, r2 = exact
                found.extend([(r1, 2)] if r1 == r2 else [(r1, 1), (r2, 1)])
                desc = desc[:1]
                continue
            disc = b * b - 4 * a * c
            if disc.sign() < 0:
                break  # complex pair, no real roots left
            all_exact = False
            sd = math.sqrt(float(disc))
            numeric.append(RealRoot((-float(b) + sd) / (2 * float(a)), 1, False))
            numeric.append(RealRoot((-float(b) - sd) / (2 * float(a)), 1, False))
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
        hit = None
        for r in cands:
            if _eval_desc(desc, r).is_zero():
                hit = QuadExt.lift(r)
                break
        if hit is None:
            all_exact = False
            numeric.extend(_numeric_real_roots(desc))
            break
        mult = 0
        while _eval_desc(desc, hit).is_zero():
            desc = _deflate_desc(desc, hit)
            mult += 1
            if len(desc) == 1:
                break
        found.append((hit, mult))
    # zero roots were stripped first and each root deflated completely, so
    # no value appears twice in found
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
        if den.is_constant():
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
        return self.gc_num * self.gc_den.constant_value().inverse()


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
    det: QuadExt
    disc: QuadExt
    is_saddle: bool
    is_degenerate: bool
    exact: bool
    eigenvalues: tuple
    eigenvectors: tuple


def _eigvec(j11, j12, j21, j22, lam):
    if not j12.is_zero():
        return (j12, lam - j11)
    if not j21.is_zero():
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
        raise RadicandMismatchError("cannot combine sqrt(%d) with sqrt(%d)" % (d, e))
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


def linearization(ps: PlanarSystem, point: Sequence[ScalarLike]
                  ) -> tuple[tuple[QuadExt, ...], QuadExt, QuadExt, QuadExt]:
    """The Jacobian entries (P_x, P_y, Q_x, Q_y) at a plane point, with its
    trace, determinant and discriminant tr^2 - 4 det, all exact, read from
    one integer_jet.  When the system and the point mix radicands, which no
    integer pass over one Z[sqrt(d)] holds, the partial derivatives are
    evaluated over QuadExt instead; that raises RadicandMismatchError when
    the entries, or tr^2 and det, mix radicands too."""
    try:
        d, s, jet = integer_jet(ps, point)
    except RadicandMismatchError:
        pt = {ps.x_var: QuadExt.lift(point[0]), ps.y_var: QuadExt.lift(point[1])}
        (j11, j12), (j21, j22) = [[f.partial_derivative(v).evaluate(pt)
                                   for v in (ps.x_var, ps.y_var)] for f in (ps.P, ps.Q)]
        tr, det = j11 + j22, j11 * j22 - j12 * j21
        return (j11, j12, j21, j22), tr, det, tr * tr - 4 * det
    (_, j11, j12), (_, j21, j22) = jet
    tr, det, disc = characteristic_pairs(jet, d)

    def value(pair, den):
        return QuadExt(Fraction(pair[0], den), Fraction(pair[1], den), d)

    return (tuple(value(j, s) for j in (j11, j12, j21, j22)),
            value(tr, s), value(det, s * s), value(disc, s * s))


def exact_eigenvalues(jac: Sequence[QuadExt], tr: QuadExt, det: QuadExt
                      ) -> Optional[tuple[QuadExt, QuadExt]]:
    """The eigenvalues (lp, lm) of the Jacobian entries jac from
    quadratic_roots, or None when they are not exact or an eigenvector of
    each cannot be formed exactly: _eigvec subtracts an eigenvalue from a
    diagonal entry, which may lie in another field."""
    vals = quadratic_roots(1, -tr, det)
    if vals is None:
        return None
    j11, j12, j21, j22 = jac
    # _eigvec subtracts from j11 when j12 != 0, else from j22 when j21 != 0
    diagonal = [j11] if j12 else [j22] if j21 else []
    try:
        common_radicand([*vals, *diagonal])
    except RadicandMismatchError:
        return None
    return vals


def eigenvalues_are_exact(d: int, s: int, jet: Sequence[Sequence[Pair]]) -> bool:
    """Whether exact_eigenvalues finds the eigenvalues of the Jacobian in an
    integer_jet (d, s, jet), decided without a squarefree part.

    When tr and det are rational, a nonnegative disc = tr^2 - 4 det has a
    root in Q(sqrt(e)), e its squarefree part, and only the eigenvector
    check can fail: it passes when the diagonal entry it subtracts from is
    rational, or when e is 1 or the entries' radicand.  Otherwise
    quadratic_roots seeks the root in the entries' field.  field_sqrt(disc)
    in the entries' field settles what the diagonal test leaves open.
    """
    (_, j11, j12), (_, j21, j22) = jet
    tr, det, disc = characteristic_pairs(jet, d)
    diagonal = j11 if j12 != (0, 0) else j22 if j21 != (0, 0) else (0, 0)
    if tr[1] == det[1] == diagonal[1] == 0 and pair_sign(disc, d) >= 0:
        return True
    e = d if any(b for _, b in (j11, j12, j21, j22)) else 1
    return field_sqrt(QuadExt(Fraction(disc[0], s * s), Fraction(disc[1], s * s), d), e) is not None


def jacobian_eigen(ps: PlanarSystem, point: Sequence[ScalarLike]) -> EigenData:
    """Exact spectral data of the linearization at a plane point.

    Saddle detection is a pure sign test on the determinant, so it never
    depends on floating point.  Eigenvalues stay exact whenever
    exact_eigenvalues finds them; otherwise floats (or a complex pair) are
    returned with exact=False.
    """
    jac, tr, det, disc = linearization(ps, point)
    saddle = det.sign() < 0
    degenerate = det.is_zero()

    vals = exact_eigenvalues(jac, tr, det)
    if vals is not None:
        vecs = tuple(_eigvec(*jac, lam) for lam in vals)
        return EigenData(det, disc, saddle, degenerate, True, vals, vecs)
    j11, j12, j21, j22 = jac
    ft, fd = float(tr), float(disc)
    f11, f12, f21, f22 = float(j11), float(j12), float(j21), float(j22)
    if float(disc) >= 0:
        sq = math.sqrt(fd)
        lp, lm = (ft + sq) / 2, (ft - sq) / 2
    else:
        sq = math.sqrt(-fd)
        lp, lm = complex(ft / 2, sq / 2), complex(ft / 2, -sq / 2)

    def fvec(lam):
        if abs(f12) > 1e-300:
            return (f12, lam - f11)
        if abs(f21) > 1e-300:
            return (lam - f22, f21)
        return (1.0, 0.0)

    return EigenData(
        det, disc, saddle, degenerate, False, (lp, lm), (fvec(lp), fvec(lm))
    )
