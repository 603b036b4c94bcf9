"""Named wave examples and the reconstruction of profiles from curves.

Three layers live here.  A catalog of classical equations, each entry
carrying its travelling profile, the first order relation p(U, U') = 0
it satisfies, and exact parameter defaults.  A family lemma for
reaction systems whose invariant curve is the graph y = f(x), verified
as an exact identity with symbolic coefficients.  And the front
reconstruction that starts from an invariant curve, picks a branch of
the quadratic, and ends with the explicit profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Fr
from typing import Callable, Optional

from .closedform import (
    Cn, Const, Exp, ExpRational, Expr, IntPow, PRelation, Sym, Tanh, Cosh,
    exp_rational_membership, solve_logistic, solve_power_logistic,
)
from .pde import bind_params, parse_pde
from .poly import MultiPoly, VarRegistry
from .qfield import QuadExt, field_sqrt, quadratic_roots
from .reduction import PlanarSystem, real_univariate_roots


# -- graph-invariant family -----------------------------------------------------


@dataclass
class FamilyCertificate:
    """System x' = y, y' = -(c/d) y + f(x) (f'(x) + c/d) with its curve."""

    system: PlanarSystem
    curve: MultiPoly
    cofactor: MultiPoly
    speed: QuadExt
    wave: Optional[object] = None


def family_identity_symbolic(max_degree: int = 6) -> MultiPoly:
    """The d-cleared invariance residual with fully symbolic coefficients.

    Returns the residual polynomial; the lemma holds exactly when it is
    identically zero, whatever the coefficients of f."""
    names = ["x", "y", "c", "d"] + ["a%d" % i for i in range(max_degree + 1)]
    reg = VarRegistry(names)
    x = MultiPoly.var(reg, "x")
    y = MultiPoly.var(reg, "y")
    c = MultiPoly.var(reg, "c")
    d = MultiPoly.var(reg, "d")
    f = MultiPoly.zero(reg)
    for i in range(max_degree + 1):
        f = f + MultiPoly.var(reg, "a%d" % i) * x**i
    fp = f.partial_derivative(reg.var("x"))
    curve = y - f
    # d * (P curve_x + Q curve_y - k curve) with dQ and dk polynomial in d
    dQ = -c * y + f * (d * fp + c)
    dk = -(d * fp + c)
    return d * y * (-fp) + dQ - dk * curve


def family_curve(f_coeffs, speed, diffusion=1) -> FamilyCertificate:
    """Instantiate the family for a concrete f, exactly verifying the curve.

    When f has the shape of a logistic or power-logistic right hand
    side, the explicit wave solving U' = f(U) is attached."""
    c = QuadExt.lift(speed)
    d = QuadExt.lift(diffusion)
    if d.is_zero():
        raise ValueError("the diffusion coefficient must be nonzero")
    r = c / d
    reg = VarRegistry(["x", "y"])
    x = MultiPoly.var(reg, 0)
    y = MultiPoly.var(reg, 1)
    f = MultiPoly.zero(reg)
    for i, a in enumerate(f_coeffs):
        f = f + QuadExt.lift(a) * x**i
    if f.degree_in(0) < 1:
        raise ValueError("f must be nonconstant")
    fp = f.partial_derivative(0)
    ps = PlanarSystem.from_polys(y, -r * y + f * (fp + r))
    curve = y - f
    cofactor = -(fp + r)
    from .darboux import cofactor_residual

    if not cofactor_residual(ps, curve, cofactor).is_zero:
        raise AssertionError("family invariance identity failed")
    return FamilyCertificate(ps, curve, cofactor, c, wave=_recognize_profile(f))


def _recognize_profile(f: MultiPoly):
    """Explicit solution of U' = f(U) for the shapes we know."""
    xv = 0
    coeffs = [p.terms.get((), QuadExt(0)) for p in f.as_univariate(xv)]
    deg = len(coeffs) - 1
    if deg == 2:
        roots, exact = real_univariate_roots(coeffs)
        vals = [r.value for r in roots for _ in range(r.multiplicity)]
        if exact and len(vals) == 2 and not (vals[0] - vals[1]).is_zero():
            lo, hi = sorted(vals, key=float)
            return solve_logistic(coeffs[-1], lo, hi)
        return None
    # gamma * x * (x^q - 1): exactly two terms, degrees 1 and q+1, opposite signs
    nz = [(i, c) for i, c in enumerate(coeffs) if not c.is_zero()]
    if len(nz) == 2 and nz[0][0] == 1 and (nz[0][1] + nz[1][1]).is_zero():
        q = nz[1][0] - 1
        if q >= 1:
            return solve_power_logistic(q, gamma=nz[1][1])
    return None


# -- front reconstruction from the invariant curve ------------------------------


@dataclass
class FrontReconstruction:
    curve: MultiPoly
    discriminant: MultiPoly
    branch: str
    substitution_zero: bool
    wave: Expr
    rate: QuadExt


def fisher_front_reconstruct(k=1) -> FrontReconstruction:
    """From the catalog's front relation to the explicit front profile.

    The relation, made monic in y, is quadratic in y; its discriminant
    (8/3) x^3 is a perfect cube, the branch through the connecting orbit is
    the '+' root, and the substitution x = w^2, y = -(sqrt(6)/3)(1 - w) w^2
    turns the branch into an identity.  The w equation is logistic with rate
    1/sqrt(6); that rate and the profile U = (1 + k e^{s/sqrt(6)})^{-2} it
    gives are read from the catalog entry."""
    entry = fisher_entry(k)
    rel = entry.relation
    f = rel.p.monic("ylex")
    xv, yv = rel.registry.id_of("u"), rel.registry.id_of("du")
    parts = f.as_univariate(yv)
    if len(parts) != 3:
        raise AssertionError("the front curve should be quadratic in y")
    cc, cb, ca = parts
    disc = cb * cb - 4 * ca * cc

    # branch selection: compare the parametrized point at w = 1/2 with the
    # explicit quadratic roots at x = 1/4
    amp = QuadExt(0, Fr(1, 3), 6)  # sqrt(6)/3
    x0 = Fr(1, 4)
    roots = quadratic_roots(*(p.evaluate({xv: x0}) for p in (ca, cb, cc)))
    if roots is None:
        raise AssertionError("discriminant is not a square at the test point")
    y_plus = roots[0]
    y_param = -amp * QuadExt(Fr(1, 2)) * QuadExt(Fr(1, 4))
    branch = "+" if y_plus == y_param else "-"

    wreg = VarRegistry(["w"])
    w = MultiPoly.var(wreg, 0)
    sub = f.substitute({xv: w * w, yv: -amp * (1 - w) * w * w}, registry=wreg)
    return FrontReconstruction(f, disc, branch, sub.is_zero, entry.profile,
                               entry.exp_rational.lam)


# -- the catalog -----------------------------------------------------------------


@dataclass
class CatalogEntry:
    name: str
    equation: str
    params: dict
    speed: QuadExt
    relation: PRelation
    profile: Expr
    boundary: Optional[tuple] = None
    exp_rational: Optional[ExpRational] = None
    periodic: bool = False


def _relation(build: Callable) -> PRelation:
    reg = VarRegistry(["u", "du"])
    return PRelation(build(MultiPoly.var(reg, 0), MultiPoly.var(reg, 1)),
                     reg, 0, 1)


def burgers_entry(a=1, c=1) -> CatalogEntry:
    a = QuadExt.lift(a)
    c = QuadExt.lift(c)
    if float(a) <= 0:
        raise ValueError("the viscosity must be positive")
    rel = _relation(lambda u, du: 2 * a * du + (2 * c - u) * u)
    lam = c / (2 * a)
    s = Sym("s")
    profile = Const(c) * (Const(QuadExt(1)) - Tanh(Const(lam) * s))
    er = ExpRational([2 * c], [QuadExt(1), QuadExt(0), QuadExt(1)], lam)
    return CatalogEntry("burgers", "u_t + u*u_x - a*u_xx = 0",
                        {"a": a, "c": c}, c, rel, profile,
                        boundary=(2 * c, QuadExt(0)), exp_rational=er)


def kdv_entry(c=4) -> CatalogEntry:
    c = QuadExt.lift(c)
    rc = field_sqrt(c)
    if rc is None or float(c) <= 0:
        raise ValueError("the speed must be positive with an exact square root")
    rel = _relation(lambda u, du: du * du - (c + 2 * u) * u * u)
    s = Sym("s")
    half = rc / 2
    profile = Const(-c / 2) * IntPow(Cosh(Const(half) * s), -2)
    return CatalogEntry("kdv", "u_t - 6*u*u_x + u_xxx = 0", {"c": c}, c,
                        rel, profile, boundary=(QuadExt(0), QuadExt(0)))


def boussinesq_entry(k=Fr(1, 2), c=1) -> CatalogEntry:
    k = QuadExt.lift(k)
    c = QuadExt.lift(c)
    w = c * c - 1
    k2 = k * k

    def build(u, du):
        return (3 * du * du - u**3 - 3 * w * u * u
                - 3 * (w + 4 * k2) * (w - 4 * k2) * u
                - (w + 8 * k2) * (w - 4 * k2) ** 2)

    alpha = -w - 8 * k2
    beta = 12 * k2
    s = Sym("s")
    profile = Const(alpha) + Const(beta) * IntPow(Tanh(Const(k) * s), 2)
    lim = alpha + beta
    return CatalogEntry("boussinesq",
                        "u_tt - u_xx + u*u_xx + u_x^2 - u_xxxx = 0",
                        {"k": k, "c": c}, c, _relation(build), profile,
                        boundary=(lim, lim))


def imbq_entry(k=Fr(1, 2), c=2, m=Fr(1, 2)) -> CatalogEntry:
    k = QuadExt.lift(k)
    c = QuadExt.lift(c)
    m = QuadExt.lift(m)
    if not m.is_rational():
        raise ValueError("the elliptic parameter must be rational")
    if not (0 <= float(m) <= 1):
        raise ValueError("the elliptic parameter must lie in [0, 1]")
    c2 = c * c
    c4 = c2 * c2
    c6 = c4 * c2
    k2 = k * k
    k4 = k2 * k2
    k6 = k4 * k2
    w = 1 - c2
    mm = m * m

    def build(u, du):
        return (3 * c2 * du * du + u**3 + 3 * w * u * u
                + (48 * c4 * (m - mm - 1) * k4 + 3 * w * w) * u
                + 64 * c6 * (2 * m - 1) * (m + 1) * (m - 2) * k6
                + 48 * c4 * w * (m - mm - 1) * k4 + w**3)

    A = c2 - 1 + 4 * c2 * k2 - 8 * c2 * m * k2
    B = 12 * c2 * m * k2
    s = Sym("s")
    profile = Const(A) + Const(B) * IntPow(Cn(Const(k) * s, m.rational_part), 2)
    return CatalogEntry("imbq",
                        "u_tt - u_xx - u*u_xx - u_x^2 - u_xxtt = 0",
                        {"k": k, "c": c, "m": m}, c, _relation(build),
                        profile, boundary=None, periodic=True)


def fisher_entry(k=1) -> CatalogEntry:
    from .fisher import FISHER_PDE, FRONT_SPEED, front_relation

    kk = QuadExt.lift(k)
    if float(kk) <= 0:
        raise ValueError("the shift parameter must be positive")
    rel = _relation(front_relation)
    rate = QuadExt(0, Fr(1, 6), 6)
    s = Sym("s")
    profile = IntPow(Const(QuadExt(1)) + Const(kk) * Exp(Const(rate) * s), -2)
    er = ExpRational([QuadExt(1)], [QuadExt(1), 2 * kk, kk * kk], rate)
    return CatalogEntry("fisher", FISHER_PDE, {},
                        FRONT_SPEED, rel, profile,
                        boundary=(QuadExt(1), QuadExt(0)), exp_rational=er)


def nagumo_entry(a=2, d=1, b=Fr(1, 4), k=1) -> CatalogEntry:
    a = QuadExt.lift(a)
    d = QuadExt.lift(d)
    b = QuadExt.lift(b)
    if float(a) <= 0 or float(d) <= 0:
        raise ValueError("reaction strength and diffusion must be positive")
    alpha = field_sqrt(a / (2 * d))
    half_ad = field_sqrt(a * d / 2)
    if alpha is None or half_ad is None:
        raise ValueError("a/(2d) must have an exact square root")
    c = half_ad * (1 - 2 * b)
    rel = _relation(lambda u, du: du - alpha * (u - 1) * u)
    wave = solve_logistic(alpha, QuadExt(0), QuadExt(1), k=k)
    return CatalogEntry("nagumo", "u_t - d*u_xx - a*u*(u-b)*(1-u) = 0",
                        {"a": a, "d": d, "b": b}, c, rel, wave.expr,
                        boundary=wave.boundary)


def power_logistic_entry(q=2, k=1) -> CatalogEntry:
    if not isinstance(q, int) or q < 1:
        raise ValueError("the exponent q must be a positive integer")
    wave = solve_power_logistic(q, k=k)
    gamma = wave.gamma

    def build(u, du):
        return du - gamma * u * (u**q - 1)

    eq = "u_t - u_xx - u^%d + u^%d = 0" % (q + 1, 2 * q + 1)
    return CatalogEntry("power-logistic", eq, {"q": QuadExt(q)}, gamma,
                        _relation(build), wave.expr, boundary=wave.boundary)


CATALOG_BUILDERS = {
    "burgers": burgers_entry,
    "kdv": kdv_entry,
    "boussinesq": boussinesq_entry,
    "imbq": imbq_entry,
    "fisher": fisher_entry,
    "nagumo": nagumo_entry,
    "power-logistic": power_logistic_entry,
}


def catalog() -> dict:
    """All entries at their default parameters."""
    return {name: build() for name, build in CATALOG_BUILDERS.items()}


def make_entry(name: str, **overrides) -> CatalogEntry:
    if name not in CATALOG_BUILDERS:
        raise KeyError("unknown catalog entry %r; have: %s"
                       % (name, ", ".join(sorted(CATALOG_BUILDERS))))
    return CATALOG_BUILDERS[name](**overrides)


# -- verification ----------------------------------------------------------------


@dataclass
class EntryReport:
    name: str
    max_residual: float
    boundary_ok: Optional[bool]
    symbolic_zero: Optional[bool]

    @property
    def ok(self) -> bool:
        good = self.boundary_ok in (None, True)
        return good and self.symbolic_zero in (None, True)


# The most samples verify_entry takes.  A sample costs about 60 us over the
# catalog's seven entries, so `verify` on the whole catalog stays near 6 s.
MAX_VERIFY_SAMPLES = 100_000
# A profile with limits must be within BOUNDARY_TOL of them at
# s = -BOUNDARY_SPAN and s = BOUNDARY_SPAN.
BOUNDARY_SPAN = 40.0
BOUNDARY_TOL = 1e-6
# where pde_residual_along_profile samples the equation: the values of
# numpy.linspace(-8.0, 8.0, 81), built without loading numpy
PDE_SAMPLES = tuple([-8.0 + 0.2 * i for i in range(80)] + [8.0])


def verify_entry(entry: CatalogEntry, n: int = 201, lo: float = -10.0,
                 hi: float = 10.0) -> EntryReport:
    """Residual of the first order relation along the profile.

    The derivative comes from the expression's exact derivative chain, and
    the relation is evaluated once over all n samples.  Exp-rational
    entries additionally get the relation checked as a polynomial
    identity.  Raises ValueError for n < 1, since no sample shows no
    residual, for n above MAX_VERIFY_SAMPLES, and for a non-finite lo or
    hi."""
    import numpy as np

    if n < 1:
        raise ValueError("verify needs at least one sample, got %d" % n)
    if n > MAX_VERIFY_SAMPLES:
        raise ValueError("verify takes at most %d samples, got %d"
                         % (MAX_VERIFY_SAMPLES, n))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("sample range must be finite, got [%r, %r]" % (lo, hi))
    prof = entry.profile
    dprof = prof.diff("s")

    def u_at(s: float) -> float:
        return prof.evaluate({"s": s})

    ss = [float(s) for s in np.linspace(lo, hi, n)]
    us = np.array([u_at(s) for s in ss])
    dus = np.array([dprof.evaluate({"s": s}) for s in ss])
    worst = float(np.max(np.abs(entry.relation.residual_at(us, dus)), initial=0.0))

    boundary_ok = None
    if entry.boundary is not None:
        left, right = entry.boundary
        boundary_ok = (abs(u_at(-BOUNDARY_SPAN) - float(left)) <= BOUNDARY_TOL
                       and abs(u_at(BOUNDARY_SPAN) - float(right)) <= BOUNDARY_TOL)

    symbolic = None
    if entry.exp_rational is not None:
        symbolic = exp_rational_membership(entry.exp_rational,
                                           entry.relation).is_zero
    return EntryReport(entry.name, worst, boundary_ok, symbolic)


def pde_residual_along_profile(entry: CatalogEntry) -> float:
    """Worst residual of the named equation under the travelling substitution.

    Each derivative of the unknown maps to (-c)^(t order) times the
    matching profile derivative; the profile is differentiated exactly."""
    import numpy as np

    spec = parse_pde(entry.equation)
    binds = {name: entry.params[name] for name in spec.unbound_params()}
    if binds:
        spec = bind_params(spec, binds)
    if spec.unbound_params():
        raise ValueError("entry parameters do not cover the equation")
    c = float(entry.speed)
    order = spec.order
    derivs = [entry.profile]
    for _ in range(order):
        derivs.append(derivs[-1].diff("s"))
    vals = [np.array([d.evaluate({"s": s}) for s in PDE_SAMPLES])
            for d in derivs]
    cols = [((-c) ** dsym.t_order) * vals[dsym.order]
            for dsym in spec.deriv_vars.values()]
    residual = spec.poly.compile_float(list(spec.deriv_vars))(*cols)
    return float(np.max(np.abs(residual), initial=0.0))
