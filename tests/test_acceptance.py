"""Acceptance suite: the headline guarantees, one pass/fail line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they go.
Each criterion states its own tolerance and time budget inline.
"""

import random
import time
from fractions import Fraction as Fr

from algwaves.closedform import p_from_exp_rational
from algwaves.darboux import (
    cofactor_residual,
    constant_cofactor_weight,
    eigenvalue_cofactor_candidates,
    search_constant_cofactor,
    solve_fixed_cofactor,
)
from algwaves.fisher import (
    FRONT_SPEED,
    certify,
    enumerate_speeds,
    exact_front_curve,
    front_system,
    leading_coeffs_closed_form,
    leading_coeffs_recurrence,
    tables_agree,
    verify_gamma_identities,
)
from algwaves.linalg import in_row_span
from algwaves.numerics import curve_residual_along_orbit, shoot_unstable_manifold
from algwaves.pde import parse_pde
from algwaves.poly import MultiPoly, VarRegistry
from algwaves.qfield import QuadExt
from algwaves.reduction import jacobian_eigen, to_planar, travelling_wave_reduce
from algwaves.waves import catalog, family_identity_symbolic


def report(num: int, ok: bool, desc: str) -> None:
    print("criterion %02d [%s] %s" % (num, "PASS" if ok else "FAIL", desc))


def term_map(p: MultiPoly) -> dict:
    return {p._mono_str(m) if m else "1": c for m, c in p.terms.items()}


def empty_search_gaps(ps, points) -> list[str]:
    """Why an empty constant-cofactor search through the points would prove
    nothing: the rule stated apart from the search, whose proved-none verdict
    must agree with it."""
    gaps = []
    if not eigenvalue_cofactor_candidates(ps, points)[0]:
        gaps.append("no saddle cofactor candidate")
    if constant_cofactor_weight(ps) is None:
        gaps.append("no weights make every cofactor constant")
    return gaps


def test_criterion_01_exact_front_certificate():
    """Full certificate chain: unique speed, exact cubic curve, under 10 s."""
    t0 = time.monotonic()
    cert = certify()
    elapsed = time.monotonic() - t0
    r23 = QuadExt(0, Fr(2, 3), 6)
    wanted = {
        "y^2": QuadExt(1),
        "y": r23,
        "x*y": -r23,
        "x": QuadExt(Fr(2, 3)),
        "x^2": QuadExt(Fr(-4, 3)),
        "x^3": QuadExt(Fr(2, 3)),
    }
    ok = (
        cert.ok
        and cert.speed_squared == Fr(25, 6)
        and cert.speed == FRONT_SPEED
        and cert.cofactor == QuadExt(0, -1, 6)
        and cert.nullspace_dim == 1
        and cert.coefficients == wanted
        and elapsed < 10.0
    )
    report(1, ok, "front certificate: c^2 = 25/6, exact cubic curve "
                  "(%.2f s < 10 s)" % elapsed)
    assert cert.ok
    assert cert.speed_squared == Fr(25, 6)
    assert cert.speed == FRONT_SPEED
    assert cert.coefficients == wanted
    assert elapsed < 10.0


def test_criterion_02_no_curve_at_other_speeds():
    """Exact negative search at three non-exceptional speeds, degree <= 6."""
    cases = [
        (QuadExt(2), 2, QuadExt(8)),
        (QuadExt(Fr(5, 2)), 41, QuadExt(Fr(41, 4))),
        (QuadExt(3), 13, QuadExt(13)),
    ]
    failures = []
    for c, want_d, want_disc in cases:
        ps = front_system(c)
        ed = jacobian_eigen(ps, (0, 0))
        if not (ed.exact and ed.is_saddle):
            failures.append("c=%s: saddle spectrum not exact" % c)
            continue
        if ed.disc != want_disc or ed.eigenvalues[0].d != want_d:
            failures.append("c=%s: expected disc %s in Q(sqrt(%d)), got %s"
                            % (c, want_disc, want_d, ed.disc))
        hits = search_constant_cofactor(ps, [(0, 0), (1, 0)], max_degree=6)
        if hits:
            failures.append("c=%s: unexpected invariant curve %s"
                            % (c, hits[0].curve))
        if hits.status != "proved-none":
            failures.append("c=%s: status %s" % (c, hits.status))
        failures += ["c=%s: %s" % (c, gap)
                     for gap in empty_search_gaps(ps, [(0, 0), (1, 0)])]
    report(2, not failures,
           "no invariant curve through both rest states at c in {2, 5/2, 3} "
           "up to degree 6, exact eigenvalue fields Q(sqrt(2/41/13))")
    assert not failures, failures


def test_criterion_03_recurrence_matches_closed_forms():
    t0 = time.monotonic()
    bad = [m for m in range(1, 21)
           if not tables_agree(leading_coeffs_recurrence(m),
                               leading_coeffs_closed_form(m))]
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 5.0
    report(3, ok, "coefficient recurrence equals closed forms for m <= 20 "
                  "(%.2f s < 5 s)" % elapsed)
    assert not bad, bad
    assert elapsed < 5.0


def test_criterion_04_factorial_identities():
    ok = verify_gamma_identities(10)
    report(4, ok, "rising-factorial convolution identities hold for m <= 10")
    assert ok


def test_criterion_05_speed_enumeration():
    speeds = enumerate_speeds(100)
    failures = []
    for s in speeds:
        if not s.consistent:
            failures.append("m=%d %s inconsistent" % (s.m, s.choice))
        if s.choice == "sum":
            if s.c_squared != 0 or s.admissible:
                failures.append("m=%d sum should force c = 0" % s.m)
        else:
            want = Fr(25, 6 * s.m * (6 * s.m - 5))
            if s.c_squared != want:
                failures.append("m=%d %s: c^2 = %s, want %s"
                                % (s.m, s.choice, s.c_squared, want))
    good = [(s.m, s.choice) for s in speeds if s.admissible]
    if good != [(1, "lambda-")]:
        failures.append("admissible set %s" % good)
    report(5, not failures,
           "c^2 = 25/(6m(6m-5)) for every eigenvalue branch m <= 100, "
           "single admissible pair (m=1, lambda-)")
    assert not failures, failures


def test_criterion_06_catalog_residuals():
    from algwaves.waves import verify_entry

    t0 = time.monotonic()
    failures = []
    for name, entry in catalog().items():
        rep = verify_entry(entry, n=201, lo=-10.0, hi=10.0)
        if rep.max_residual >= 1e-8:
            failures.append("%s residual %.3e" % (name, rep.max_residual))
        if entry.exp_rational is not None and not rep.symbolic_zero:
            failures.append("%s symbolic membership failed" % name)
    elapsed = time.monotonic() - t0
    flagged = sorted(n for n, e in catalog().items() if e.exp_rational)
    ok = not failures and flagged == ["burgers", "fisher"] and elapsed < 30.0
    report(6, ok, "all 7 catalog profiles satisfy their relations, "
                  "max |p| < 1e-8 on 201 points of [-10, 10]; "
                  "burgers and fisher also vanish symbolically (%.2f s < 30 s)"
                  % elapsed)
    assert not failures, failures
    assert flagged == ["burgers", "fisher"]
    assert elapsed < 30.0


def test_criterion_07_family_identity():
    res = family_identity_symbolic(max_degree=6)
    ok = res.is_zero
    report(7, ok, "reaction family invariance identity holds with symbolic "
                  "coefficients up to degree 6")
    assert ok


def test_criterion_08_shooting_confirms_front():
    t0 = time.monotonic()
    spec = parse_pde("u_t - u_xx - u + u^2 = 0")
    sys_spec = travelling_wave_reduce(spec).bind_speed(FRONT_SPEED)
    ps = to_planar(sys_spec)
    res = shoot_unstable_manifold(ps, (1, 0), (0.0, 0.0), horizon=60.0)
    curve, _ = exact_front_curve()
    flip = lambda p: (1.0 - p[0], p[1])
    on_curve = curve_residual_along_orbit(curve, res.orbit, transform=flip)

    bad_sys = to_planar(travelling_wave_reduce(spec).bind_speed(3))
    bad = shoot_unstable_manifold(bad_sys, (1, 0), (0.0, 0.0), horizon=60.0)
    off_curve = curve_residual_along_orbit(curve, bad.orbit, transform=flip)
    elapsed = time.monotonic() - t0

    ok = (res.min_distance < 1e-6 and on_curve < 1e-5
          and off_curve > 1e-3 and elapsed < 5.0)
    report(8, ok, "shot orbit at the certified speed lands %.1e from the "
                  "origin and stays on the curve (%.1e); at c = 3 it leaves "
                  "the curve (%.1e) (%.2f s < 5 s)"
                  % (res.min_distance, on_curve, off_curve, elapsed))
    assert res.min_distance < 1e-6
    assert on_curve < 1e-5
    assert off_curve > 1e-3
    assert elapsed < 5.0


def test_criterion_09_planted_curves_recovered():
    """Random systems built around a known invariant line-plus-graph curve."""
    rng = random.Random(90210)

    def rand_fr(lo=-3, hi=3):
        return Fr(rng.randint(lo, hi), rng.randint(1, 2))

    recovered = 0
    failures = []
    for trial in range(100):
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        w = MultiPoly.const(reg, 0)
        for i in range(rng.randint(0, 3) + 1):
            w = w + rand_fr() * x**i
        fstar = y + w
        P = MultiPoly.const(reg, 0)
        while P.is_zero:
            P = MultiPoly.const(reg, 0)
            for i in range(3):
                for j in range(3 - i):
                    P = P + Fr(rng.randint(-2, 2)) * x**i * y**j
        k = Fr(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 2))
        from algwaves.reduction import PlanarSystem
        Q = k * fstar - P * w.partial_derivative(0)
        ps = PlanarSystem(reg, 0, 1, P, Q)

        sol = solve_fixed_cofactor(ps, k, fstar.degree())
        if sol is None:
            failures.append("trial %d: empty nullspace" % trial)
            continue
        monos = sorted({m for f in sol.curves for m in f.terms}
                       | set(fstar.terms))
        rows = [[QuadExt.lift(f.terms.get(m, 0)) for m in monos]
                for f in sol.curves]
        vec = [QuadExt.lift(fstar.terms.get(m, 0)) for m in monos]
        if not in_row_span(rows, vec):
            failures.append("trial %d: planted curve outside the solved span"
                            % trial)
            continue
        if not all(cofactor_residual(ps, f, k).is_zero for f in sol.curves):
            failures.append("trial %d: returned curve fails the identity"
                            % trial)
            continue
        recovered += 1

    ok = recovered == 100 and not failures
    report(9, ok, "planted invariant curves recovered in %d/100 random "
                  "systems, every returned basis re-verified exactly"
                  % recovered)
    assert not failures, failures[:5]
    assert recovered == 100


def test_criterion_10_elimination_reproduces_relations():
    failures = []
    for name in ("burgers", "fisher"):
        entry = catalog()[name]
        rel = p_from_exp_rational(entry.exp_rational)
        got = term_map(rel.p.monic("grlex"))
        want = term_map(entry.relation.p.monic("grlex"))
        if got != want:
            failures.append("%s: %s != %s" % (name, got, want))
    report(10, not failures,
           "resultant elimination rebuilds the burgers and fisher relations "
           "from their exp-rational profiles (monic match)")
    assert not failures, failures


def test_criterion_11_no_curve_up_to_degree_10():
    """The negative search of criterion 02 taken to degree 10, under 10 s."""
    speeds = (QuadExt(2), QuadExt(Fr(5, 2)), QuadExt(3))
    t0 = time.monotonic()
    found = []
    for c in speeds:
        hits = search_constant_cofactor(front_system(c), [(0, 0), (1, 0)],
                                        max_degree=10)
        found += ["c=%s: %s" % (c, h.curve) for h in hits]
        if hits.status != "proved-none":
            found.append("c=%s: status %s" % (c, hits.status))
    elapsed = time.monotonic() - t0
    found += ["c=%s: %s" % (c, gap) for c in speeds
              for gap in empty_search_gaps(front_system(c), [(0, 0), (1, 0)])]
    ok = not found and elapsed < 10.0
    report(11, ok, "no invariant curve through both rest states at c in "
                   "{2, 5/2, 3} up to degree 10 (%.2f s < 10 s)" % elapsed)
    assert not found, found
    assert elapsed < 10.0
