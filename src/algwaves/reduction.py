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

import numpy as np

from .numerics import Rhs
from .pde import PDESpec
from .poly import MultiPoly, VarRegistry, compile_float_field, trial_divide
from .qfield import QuadExt, RadicandMismatchError, parse_quadext, quadratic_roots

ScalarLike = Union[int, Fraction, QuadExt]
SpeedLike = Union[int, Fraction, QuadExt, str]


class ReductionError(ValueError):
    pass


class DegenerateSpeedError(ReductionError):
    """The chosen propagation speed annihilates the leading coefficient."""


class EquilibriumContinuumError(ReductionError):
    """Rest states form a continuum instead of isolated points."""


def _lift_speed(c: SpeedLike) -> QuadExt:
    if isinstance(c, str):
        return parse_quadext(c)
    return QuadExt.lift(c)


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
    source: Optional[PDESpec] = None

    def unbound_params(self) -> list[str]:
        used = set(self.gc_num.variables()) | set(self.gc_den.variables())
        return [p for p, v in self.param_vars.items() if v in used]

    def bind_speed(self, c: SpeedLike) -> "ODESystemSpec":
        cval = _lift_speed(c)
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


def travelling_wave_reduce(
    spec: PDESpec,
    c: Optional[SpeedLike] = None,
    speed_name: str = "c",
) -> ODESystemSpec:
    """Reduce an evolution equation to its traveling-frame companion system.

    With c omitted the speed stays symbolic; exceptional speeds (roots of
    the leading coefficient, where the reduction breaks down) are then
    enumerated whenever that coefficient involves no other parameters.
    """
    unbound = spec.unbound_params()
    if speed_name in unbound:
        raise ReductionError(
            f"parameter {speed_name!r} collides with the speed symbol"
        )
    n = spec.order
    if n < 1:
        raise ReductionError("equation contains no derivatives")
    reg = VarRegistry()
    y_ids = [reg.var(f"y{i + 1}") for i in range(n + 1)]
    c_id = reg.var(speed_name)
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
    for p, vid in spec.param_vars.items():
        if p in param_ids:
            bindings[vid] = MultiPoly.var(reg, param_ids[p])
        else:
            bindings[vid] = MultiPoly.zero(reg)  # placeholder, never used
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

    sys_spec = ODESystemSpec(
        registry=reg,
        n=n,
        gc_num=num,
        gc_den=den,
        y_vars=y_ids[:n],
        c_var=c_id,
        param_vars=param_ids,
        exceptional_speeds=exceptional,
        source=spec,
    )
    if c is not None:
        sys_spec = sys_spec.bind_speed(c)
    return sys_spec


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
    """Autonomous plane system x' = P(x, y), y' = Q(x, y)."""

    registry: VarRegistry
    x_var: int
    y_var: int
    P: MultiPoly
    Q: MultiPoly

    @classmethod
    def from_polys(cls, P: MultiPoly, Q: MultiPoly, x: str = "x", y: str = "y"):
        reg = P.registry
        if Q.registry is not reg:
            raise ReductionError("P and Q must share a registry")
        return cls(reg, reg.id_of(x), reg.id_of(y), P, Q)

    def rhs_float(self) -> Rhs:
        """rhs(t, u) = (P(u), Q(u)) as one generated function of u = (x, y)."""
        return compile_float_field([self.P, self.Q], (self.x_var, self.y_var))

    def jacobian(self) -> list[list[MultiPoly]]:
        return [
            [self.P.partial_derivative(self.x_var), self.P.partial_derivative(self.y_var)],
            [self.Q.partial_derivative(self.x_var), self.Q.partial_derivative(self.y_var)],
        ]


def to_planar(sys_spec: ODESystemSpec, names: tuple[str, str] = ("x", "y")) -> PlanarSystem:
    if sys_spec.n != 2:
        raise ReductionError(f"system has dimension {sys_spec.n}, not 2")
    if sys_spec.c is None:
        raise ReductionError("bind a speed before extracting a plane system")
    g = sys_spec.gc()
    if set(g.variables()) - set(sys_spec.y_vars):
        raise ReductionError("unbound parameters remain")
    reg = VarRegistry()
    xv, yv = reg.var(names[0]), reg.var(names[1])
    sub = {
        sys_spec.y_vars[0]: MultiPoly.var(reg, xv),
        sys_spec.y_vars[1]: MultiPoly.var(reg, yv),
    }
    Q = g.substitute(sub, registry=reg)
    return PlanarSystem(reg, xv, yv, MultiPoly.var(reg, yv), Q)


# -- local spectra -----------------------------------------------------------


@dataclass
class EigenData:
    trace: QuadExt
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


def jacobian_eigen(ps: PlanarSystem, point: Sequence[ScalarLike]) -> EigenData:
    """Exact spectral data of the linearization at a plane point.

    Saddle detection is a pure sign test on the determinant, so it never
    depends on floating point.  Eigenvalues stay exact whenever
    quadratic_roots finds them and the eigenvectors can be formed exactly;
    otherwise floats (or a complex pair) are returned with exact=False.
    """
    pt = {ps.x_var: QuadExt.lift(point[0]), ps.y_var: QuadExt.lift(point[1])}
    jac = ps.jacobian()
    j11 = jac[0][0].evaluate(pt)
    j12 = jac[0][1].evaluate(pt)
    j21 = jac[1][0].evaluate(pt)
    j22 = jac[1][1].evaluate(pt)
    tr = j11 + j22
    det = j11 * j22 - j12 * j21
    disc = tr * tr - 4 * det
    saddle = det.sign() < 0
    degenerate = det.is_zero()

    vals = quadratic_roots(1, -tr, det)
    if vals is not None:
        try:
            vecs = tuple(_eigvec(j11, j12, j21, j22, lam) for lam in vals)
            return EigenData(tr, det, disc, saddle, degenerate, True, vals, vecs)
        except RadicandMismatchError:
            pass  # the entries lie in another field than tr and det
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
        tr, det, disc, saddle, degenerate, False, (lp, lm), (fvec(lp), fvec(lm))
    )
