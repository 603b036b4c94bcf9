"""The three workloads: seeded job generators, job runners, verdict checks.

Each workload is a closed loop with one client: a job starts only after
the previous job's verdict has been checked.  Jobs come in batches of a
fixed composition (kind, degree bound, radicand class, integrator), and
the seed chooses only the inputs inside each slot, so that batch times
of different seeds are comparable.  The generators use the standard
library alone; algwaves sees nothing but their plain-data output: speed
strings, planted systems as coefficient maps, and degree bounds.

Why each workload exists, and which layers it stresses, is set out in
perfbench/README.md.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

FISHER_PDE = "u_t - u_xx - u + u^2 = 0"
FRONT_SPEED = "5/6*sqrt(6)"
REST_STATES = ((0, 0), (1, 0))
CATALOG_NAMES = ("burgers", "kdv", "boussinesq", "imbq", "fisher", "nagumo",
                 "power-logistic")

# neg-search: (speed class, degree bound) slots of one batch.  Every class
# runs at degrees 4 and 6; the three degree-5 slots hold the middle of the
# job-time distribution, and giving them one class keeps the median job
# the same kind of search for every seed.
NEG_MIX = (
    ("rational-small", 4), ("sqrt", 4), ("rational-large", 4),
    ("rational-small", 5), ("rational-small", 5), ("rational-small", 5),
    ("rational-small", 6), ("sqrt", 6), ("rational-large", 6),
)
SMALL_RADICAND = (2, 10**3)
LARGE_RADICAND = (10**9, 10**10)
# Loop iterations that the library's trial-division squarefree test spends
# on a large radicand.  Left free, they range over 1..5e4 and a single
# degree-6 job would take anywhere from 2 s to 20 s; the window keeps the
# radicand near 1e10 while fixing what it costs.
LARGE_RADICAND_ITERATIONS = (3000, 3300)

# pos-exact: planted-curve degree -> jobs per batch.  14 jobs of a batch
# are faster than a degree-3 solve and 10 slower, so the median job lies
# in the middle of the degree-3 solves for every seed.
PLANTED_MIX = ((1, 6), (2, 6), (3, 18), (4, 8))

# float-check: off-front speeds lie where criterion 08's drift test has a
# margin of at least 2 (drift > 2e-3 at horizon 30 and at horizon 60).
OFF_SPEED = (Fraction(22, 10), Fraction(28, 10))
RK4_STEP = 5e-3
HORIZON = {"rk4": 30.0, "rkf45": 60.0}
# Each catalog entry is verified on this many windows [-10 + u, 10 + u],
# |u| <= 1, per batch: 21 short jobs against 5 shoots put the median job
# in the middle of the verify_entry jobs.
VERIFY_WINDOWS = 3


@dataclass(frozen=True)
class Job:
    kind: str
    label: str
    args: tuple


# -- generators ---------------------------------------------------------------


def make_batch(workload: str, seed: int, index: int) -> list[Job]:
    """Batch number `index` of a workload; a function of its arguments only."""
    rng = random.Random("%s/%d/%d" % (workload, seed, index))
    return GENERATORS[workload](rng)


def trial_division_iterations(n: int, cap: int):
    """(squarefree part, loop iterations) of the library's trial division.

    Mirrors the loop of `qfield.squarefree_decompose` at the time the
    benchmark was written; None once the loop would run past `cap`.
    """
    d, m, p, it = 1, n, 2, 0
    while p * p <= m:
        it += 1
        if it > cap:
            return None
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    return d * m, it


def _speed(p: int, q: int) -> str:
    return str(p) if q == 1 else "%d/%d" % (p, q)


def _small_rational_speed(rng: random.Random) -> str:
    """c = p/q whose saddle radicand, squarefree(p^2 + 4q^2), is small."""
    while True:
        q = rng.randint(1, 9)
        p = rng.randint(1, 12 * q)
        if math.gcd(p, q) != 1:
            continue
        d, _ = trial_division_iterations(p * p + 4 * q * q, 10**6)
        if SMALL_RADICAND[0] <= d <= SMALL_RADICAND[1]:
            return _speed(p, q)


def _large_rational_speed(rng: random.Random) -> str:
    """c = p/q with a saddle radicand near 1e10 and a fixed squarefree cost."""
    lo, hi = LARGE_RADICAND_ITERATIONS
    while True:
        q = rng.randint(1, 9)
        p = rng.randint(30000, 99999)
        if math.gcd(p, q) != 1:
            continue
        found = trial_division_iterations(p * p + 4 * q * q, 4 * hi)
        if found is None or not LARGE_RADICAND[0] <= found[0] <= LARGE_RADICAND[1]:
            continue
        cost = trial_division_iterations(found[0], hi)
        if cost is not None and cost[1] >= lo:
            return _speed(p, q)


def _sqrt_speed(rng: random.Random) -> str:
    """c = sqrt(n) with n + 4 = m^2 and n squarefree: the system itself
    lives in Q(sqrt(n)), and the saddle eigenvalues (-sqrt(n) +- m)/2 stay
    in that one field."""
    while True:
        m = rng.randint(3, 60)
        n = m * m - 4
        if trial_division_iterations(n, 10**6)[0] == n:
            return "sqrt(%d)" % n


def _neg_search_batch(rng: random.Random) -> list[Job]:
    # Speeds such as sqrt(2) are left out on purpose: their saddle
    # eigenvalues (-sqrt(2) +- sqrt(6))/2 lie in no single Q(sqrt(d)), so
    # the search has no cofactor candidate and returns in a millisecond
    # having proved nothing.  A search with no candidate fails its check.
    draw = {"rational-small": _small_rational_speed, "sqrt": _sqrt_speed,
            "rational-large": _large_rational_speed}
    return [Job("search", "%s-d%d" % (cls, deg), (draw[cls](rng), deg))
            for cls, deg in NEG_MIX]


def _poly_add(a: dict, b: dict, scale: Fraction = Fraction(1)) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def planted_system(rng: random.Random, degree: int) -> tuple:
    """x' = P, y' = Q built around f* = y + w(x), deg w = degree, cofactor k.

    As in acceptance criterion 09: Q = k f* - P w' makes f* = 0 invariant
    with cofactor k, so the exact solve at degree `degree` has a nonzero
    nullspace containing f*.  Polynomials are {(i, j): coefficient of
    x^i y^j} maps, returned as sorted tuples.
    """
    def coeff():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    w = {(i, 0): coeff() for i in range(degree)}
    lead = Fraction(0)
    while not lead:
        lead = coeff()
    w[(degree, 0)] = lead
    w = {m: c for m, c in w.items() if c}
    P: dict = {}
    while not P:
        P = {(i, j): Fraction(rng.randint(-2, 2))
             for i in range(3) for j in range(3 - i)}
        P = {m: c for m, c in P.items() if c}
    k = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 2))
    fstar = _poly_add({(0, 1): Fraction(1)}, w)
    dw = {(i - 1, 0): i * c for (i, _), c in w.items() if i}
    Q = _poly_add(_poly_add({}, fstar, k), _poly_mul(P, dw), Fraction(-1))
    return (tuple(sorted(P.items())), tuple(sorted(Q.items())),
            tuple(sorted(fstar.items())), k, degree)


def _pos_exact_batch(rng: random.Random) -> list[Job]:
    jobs = [Job("planted", "planted-d%d" % deg, planted_system(rng, deg))
            for deg, count in PLANTED_MIX for _ in range(count)]
    jobs += [
        Job("front-search", "front-search", (FRONT_SPEED, 3)),
        Job("certify", "certify", ()),
        Job("eliminate", "eliminate-burgers", ("burgers",)),
        Job("eliminate", "eliminate-fisher", ("fisher",)),
    ]
    rng.shuffle(jobs)
    return jobs


def _off_speed(rng: random.Random) -> str:
    while True:
        q = rng.randint(5, 40)
        p = rng.randint(2 * q, 3 * q)
        if math.gcd(p, q) == 1 and OFF_SPEED[0] < Fraction(p, q) < OFF_SPEED[1]:
            return _speed(p, q)


def _float_check_batch(rng: random.Random) -> list[Job]:
    jobs = [
        Job("shoot", "rk4-front", ("rk4", FRONT_SPEED)),
        Job("shoot", "rk4-off", ("rk4", _off_speed(rng))),
        Job("shoot", "rkf45-front", ("rkf45", FRONT_SPEED)),
        Job("shoot", "rkf45-off", ("rkf45", _off_speed(rng))),
        Job("shoot", "rkf45-off", ("rkf45", _off_speed(rng))),
    ]
    for name in CATALOG_NAMES:
        for _ in range(VERIFY_WINDOWS):
            u = round(rng.uniform(-1.0, 1.0), 2)
            jobs.append(Job("verify", "verify-" + name, (name, -10.0 + u, 10.0 + u)))
    rng.shuffle(jobs)
    return jobs


GENERATORS: dict[str, Callable[[random.Random], list[Job]]] = {
    "neg-search": _neg_search_batch,
    "pos-exact": _pos_exact_batch,
    "float-check": _float_check_batch,
}


# -- set-up -----------------------------------------------------------------


@dataclass
class Context:
    aw: Any  # the algwaves package; jobs look functions up through it
    reduced: Any  # the Fisher companion system with the speed still symbolic
    catalog: dict


def import_algwaves(root: Path):
    """Import algwaves from the checkout's own src/, never from elsewhere."""
    src = (root / "src").resolve()
    if not (src / "algwaves" / "__init__.py").is_file():
        raise FileNotFoundError("no algwaves sources under %s" % src)
    sys.path.insert(0, str(src))
    import algwaves
    import algwaves.linalg  # not re-exported by the package, used by checks

    if Path(algwaves.__file__).resolve().parent != src / "algwaves":
        raise ImportError("algwaves came from %s, not %s" % (algwaves.__file__, src))
    return algwaves


def setup(aw) -> Context:
    """What every workload does before its first job: parse, reduce, catalog."""
    spec = aw.pde.parse_pde(FISHER_PDE)
    reduced = aw.reduction.travelling_wave_reduce(spec)
    return Context(aw, reduced, aw.waves.catalog())


# -- jobs ----------------------------------------------------------------------
#
# A runner makes the library calls that produce one verdict.  Its check
# returns (ok, verdict), where the verdict is a plain value that must be
# the same in the traced and the untraced run.


def _planar_at(ctx: Context, speed: str):
    aw = ctx.aw
    c = aw.qfield.parse_quadext(speed)
    return aw.reduction.to_planar(ctx.reduced.bind_speed(c))


def run_search(ctx, speed, degree):
    ps = _planar_at(ctx, speed)
    return ps, ctx.aw.darboux.search_constant_cofactor(ps, REST_STATES, max_degree=degree)


def check_search(ctx, args, out):
    ps, hits = out
    cands, _ = ctx.aw.darboux.eigenvalue_cofactor_candidates(ps, REST_STATES)
    ok = not hits and len(cands) > 0
    return ok, ("none" if not hits else len(hits), len(cands))


def _poly(aw, reg, items):
    x, y = reg.id_of("x"), reg.id_of("y")
    terms = {}
    for (i, j), c in items:
        terms[tuple((v, e) for v, e in ((x, i), (y, j)) if e)] = c
    return aw.poly.MultiPoly(reg, terms)


def run_planted(ctx, P, Q, fstar, k, degree):
    aw = ctx.aw
    reg = aw.poly.VarRegistry(["x", "y"])
    ps = aw.reduction.PlanarSystem(reg, reg.id_of("x"), reg.id_of("y"),
                                   _poly(aw, reg, P), _poly(aw, reg, Q))
    return ps, aw.darboux.solve_fixed_cofactor(ps, k, degree)


def check_planted(ctx, args, out):
    aw = ctx.aw
    ps, sol = out
    if sol is None:
        return False, "empty nullspace"
    fstar = _poly(aw, ps.registry, args[2])
    monos = sorted({m for f in sol.curves for m in f.terms} | set(fstar.terms))
    lift = aw.qfield.QuadExt.lift
    rows = [[lift(f.terms.get(m, 0)) for m in monos] for f in sol.curves]
    vec = [lift(fstar.terms.get(m, 0)) for m in monos]
    ok = (aw.linalg.in_row_span(rows, vec)
          and all(aw.darboux.cofactor_residual(ps, f, args[3]).is_zero
                  for f in sol.curves))
    return ok, (sol.nullspace_dim, tuple(str(f) for f in sol.curves))


def check_front_search(ctx, args, out):
    aw = ctx.aw
    ps, hits = out
    want = aw.qfield.QuadExt(0, -1, 6)
    good = [h for h in hits if h.curve.degree() == 3 and h.cofactor == want
            and aw.darboux.cofactor_residual(ps, h.curve, h.cofactor).is_zero]
    return len(good) == 1, tuple(str(h.curve) for h in hits)


def run_certify(ctx):
    return ctx.aw.fisher.certify()


def check_certify(ctx, args, cert):
    ok = cert.ok and cert.speed_squared == Fraction(25, 6)
    return ok, (cert.ok, str(cert.speed_squared), str(cert.curve))


def run_eliminate(ctx, name):
    return ctx.aw.closedform.p_from_exp_rational(ctx.catalog[name].exp_rational)


def check_eliminate(ctx, args, rel):
    got = str(rel.p.monic("grlex"))
    return got == str(ctx.catalog[args[0]].relation.p.monic("grlex")), got


def run_shoot(ctx, method, speed):
    aw = ctx.aw
    ps = _planar_at(ctx, speed)
    kw = {"h": RK4_STEP} if method == "rk4" else {}
    res = aw.numerics.shoot_unstable_manifold(
        ps, (1, 0), (0.0, 0.0), horizon=HORIZON[method], method=method, **kw)
    curve, _ = aw.fisher.exact_front_curve()
    # the certified cubic lives in the front coordinates, saddle at (0, 0)
    drift = aw.numerics.curve_residual_along_orbit(
        curve, res.orbit, transform=lambda p: (1.0 - p[0], p[1]))
    return res, drift


def check_shoot(ctx, args, out):
    method, speed = args
    res, drift = out
    if speed == FRONT_SPEED:
        # rk4 at horizon 30 stops short of the origin (miss 0.83), so only
        # the adaptive run is held to criterion 08's miss distance
        ok = drift < 1e-5 and (method == "rk4" or res.min_distance < 1e-6)
    else:
        ok = drift > 1e-3
    return ok, (len(res.orbit), res.min_distance, drift)


def run_verify(ctx, name, lo, hi):
    return ctx.aw.waves.verify_entry(ctx.catalog[name], lo=lo, hi=hi)


def check_verify(ctx, args, rep):
    return rep.ok and rep.max_residual < 1e-8, (rep.max_residual, rep.ok)


JOBS: dict[str, tuple[Callable, Callable]] = {
    "search": (run_search, check_search),
    "planted": (run_planted, check_planted),
    "front-search": (run_search, check_front_search),
    "certify": (run_certify, check_certify),
    "eliminate": (run_eliminate, check_eliminate),
    "shoot": (run_shoot, check_shoot),
    "verify": (run_verify, check_verify),
}
