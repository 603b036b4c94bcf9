"""Invariant curve solver: fixed cofactors, saddle candidates, screening."""

import math
import time
from fractions import Fraction as Fr
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from algwaves.darboux import (
    cofactor_residual,
    constant_cofactor_weight,
    eigenvalue_cofactor_candidates,
    invariance_matrix,
    irreducibility_screen,
    monomial_basis,
    poly_square_root,
    search_constant_cofactor,
    solve_fixed_cofactor,
)
from algwaves import darboux, linalg, qfield, reduction
from algwaves.fisher import FISHER_PDE
from algwaves.linalg import (
    MODULAR_PRIMES,
    in_row_span,
    independent_prefix_mod_p,
    modular_root,
    nullspace,
    residue,
)
from algwaves.pde import parse_pde
from algwaves.poly import MultiPoly, RegistryMismatchError, VarRegistry, grlex_key
from algwaves.qfield import QuadExt, RadicandMismatchError, parse_quadext
from algwaves.reduction import (
    PlanarSystem,
    ReductionError,
    eigenvalues_are_exact,
    exact_eigenvalues,
    integer_jet,
    jacobian_eigen,
    linearization,
    to_planar,
    travelling_wave_reduce,
)

FISHER = travelling_wave_reduce(parse_pde(FISHER_PDE))


def make_plane(P_builder, Q_builder):
    reg = VarRegistry(["x", "y"])
    x = MultiPoly.var(reg, "x")
    y = MultiPoly.var(reg, "y")
    return PlanarSystem(reg, 0, 1, P_builder(x, y), Q_builder(x, y))


def fisher_system(c):
    # the plane system find-curve builds: x' = y, y' = x^2 - x - c y,
    # saddle at (1, 0), node at (0, 0)
    return to_planar(FISHER.bind_speed(c))


FRONT_SPEED = QuadExt(0, Fr(5, 6), 6)


def cubic_system():
    # the plane system of u_t - u_xx + 3 u u_x - u^3 + 4 u^2 - 3 u = 0 at
    # speed 4, where y - x^2 + x = 0 is invariant with cofactor x - 3
    return make_plane(lambda x, y: y,
                      lambda x, y: -x**3 + 4 * x * x + 3 * x * y - 3 * x - 4 * y)


def front_curve(ps):
    # the front's cubic, monic in y
    reg = ps.registry
    x = MultiPoly.var(reg, "x")
    y = MultiPoly.var(reg, "y")
    r23 = QuadExt(0, Fr(2, 3), 6)  # (2/3) sqrt(6)
    return y * y + r23 * (x * y) + Fr(2, 3) * (x * x) - Fr(2, 3) * (x**3)


class TestBasis:
    def test_monomial_basis_counts(self):
        assert len(monomial_basis([0, 1], 3)) == 10
        assert monomial_basis([0, 1], 0) == [()]

    def test_grlex_order(self):
        basis = monomial_basis([0, 1], 2)
        assert basis[0] == ()
        assert basis[-1] == ((0, 2),)  # x^2 tops degree 2 in grlex


class TestFrontCurve:
    def test_invariance_residual_is_zero(self):
        ps = fisher_system(FRONT_SPEED)
        f = front_curve(ps)
        k = QuadExt(0, -1, 6)
        assert cofactor_residual(ps, f, k).is_zero

    def test_fixed_cofactor_solve_recovers_curve(self):
        ps = fisher_system(FRONT_SPEED)
        res = solve_fixed_cofactor(
            ps, QuadExt(0, -1, 6), 3, required_points=[(1, 0), (0, 0)]
        )
        assert res is not None
        assert res.nullspace_dim == 1
        assert res.curve == front_curve(ps)

    def test_eigenvalue_candidates(self):
        ps = fisher_system(FRONT_SPEED)
        cands, notes = eigenvalue_cofactor_candidates(ps, [(1, 0), (0, 0)])
        assert cands == [
            QuadExt(0, Fr(1, 6), 6),
            QuadExt(0, -1, 6),
            QuadExt(0, Fr(-5, 6), 6),
        ]
        assert any("(0, 0)" in n for n in notes)

    def test_search_finds_exactly_one_curve(self):
        ps = fisher_system(FRONT_SPEED)
        hits = search_constant_cofactor(ps, [(1, 0), (0, 0)], 3)
        assert len(hits) == 1
        assert hits[0].curve == front_curve(ps)
        assert hits[0].cofactor == QuadExt(0, -1, 6)
        assert hits[0].degree == 3

    def test_search_empty_at_generic_speed(self):
        ps = fisher_system(QuadExt(2))
        hits = search_constant_cofactor(ps, [(1, 0), (0, 0)], 4)
        assert hits == []

    def test_non_equilibrium_rejected(self):
        ps = fisher_system(FRONT_SPEED)
        with pytest.raises(ValueError):
            search_constant_cofactor(ps, [(-1, 0)], 2)


class TestPlanted:
    def test_planted_curve_recovered(self):
        # choose f* = y + x^2 - 3 and force invariance by construction
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        fstar = y + x * x - 3
        P = x * x + 1
        k = QuadExt(2)
        Q = k * fstar - P * fstar.partial_derivative(reg.id_of("x"))
        ps = PlanarSystem(reg, 0, 1, P, Q)
        assert cofactor_residual(ps, fstar, k).is_zero
        res = solve_fixed_cofactor(ps, k, 2)
        assert res is not None
        basis = monomial_basis([0, 1], 2)
        rows = [[f.coeff(m) for m in basis] for f in res.curves]
        target = [fstar.coeff(m) for m in basis]
        assert in_row_span(rows, target)


class TestScreening:
    def test_square_root_plain(self):
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        g = x + y - 2
        assert poly_square_root(g * g) == g

    def test_square_root_with_radical(self):
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        g = QuadExt(0, 1, 2) * x + y
        assert poly_square_root(g * g) == g

    def test_huge_leading_coefficient_is_screened(self):
        # a 13-digit squarefree part is never looked for: the root of the
        # leading coefficient must lie in the coefficient field Q
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        assert poly_square_root(1000003 * 1000033 * x * x + y + 1) is None
        assert irreducibility_screen(1000003 * 1000033 * x * x + y + 1) == (True, None)
        g = 1000003 * x + y
        assert poly_square_root(g * g) == g

    def test_square_root_rejects_non_square(self):
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        assert poly_square_root(x * x * y * y + 1) is None
        assert poly_square_root(x**3) is None

    def test_screen_flags_square(self):
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        ok, reason = irreducibility_screen((x + y) ** 2)
        assert not ok and "square" in reason

    def test_screen_flags_square_times_constant(self):
        # 2*(x + y)**2 is a square only over Q(sqrt(2)); the screen still
        # sees the repeated factor
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        ok, reason = irreducibility_screen(2 * (x + y) ** 2)
        assert not ok and "square" in reason
        g = x + QuadExt(0, 1, 2) * y + 1
        ok, reason = irreducibility_screen(QuadExt(3, 1, 2) * g * g)
        assert not ok and "square" in reason
        assert irreducibility_screen(2 * (x + y) ** 2 + 1) == (True, None)

    def test_screen_flags_known_factor(self):
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        ok, reason = irreducibility_screen((x + y) * (x - y + 1), [x + y])
        assert not ok

    def test_screen_passes_clean_curve(self):
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        ok, reason = irreducibility_screen(y * y - x**3 + 1, [x + y])
        assert ok and reason is None


@settings(max_examples=25, deadline=None)
@given(
    wc=st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=3),
    pc=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
    knum=st.integers(min_value=-5, max_value=5).filter(lambda k: k != 0),
)
def test_planted_instances_always_recovered(wc, pc, knum):
    reg = VarRegistry(["x", "y"])
    x = MultiPoly.var(reg, "x")
    y = MultiPoly.var(reg, "y")
    w = MultiPoly.zero(reg)
    for i, c in enumerate(wc):
        w = w + c * x**i
    fstar = y + w
    P = MultiPoly.zero(reg)
    for i, c in enumerate(pc):
        P = P + c * (x**i if i < 2 else x ** (i - 2) * y ** min(i - 1, 2))
    k = QuadExt(knum)
    Q = k * fstar - P * fstar.partial_derivative(0)
    ps = PlanarSystem(reg, 0, 1, P, Q)
    deg = max(fstar.degree(), 1)
    res = solve_fixed_cofactor(ps, k, deg)
    assert res is not None
    basis = monomial_basis([0, 1], deg)
    rows = [[f.coeff(m) for m in basis] for f in res.curves]
    target = [fstar.coeff(m) for m in basis]
    assert in_row_span(rows, target)


def exact_search(ps, points, max_degree, candidates=None):
    """The search with no prime for the modular certificate: every
    candidate then gets the exact solve."""
    with mock.patch.object(darboux, "modular_root", lambda *args: None):
        return search_constant_cofactor(ps, points, max_degree, candidates)


def counting_solves():
    """Patches that count the exact matrices and nullspaces the search forms."""
    return (mock.patch.object(darboux, "invariance_matrix", wraps=darboux.invariance_matrix),
            mock.patch.object(darboux, "nullspace", wraps=darboux.nullspace))


def hit_keys(hits):
    return (hits.status, hits.notes,
            [(str(h.curve), str(h.cofactor), h.degree, h.nullspace_dim) for h in hits])


WEIGHT_NOTE = ("no weights (1, t) for (x, y) make every cofactor constant; "
               "nonconstant cofactors were not searched")


def reference_verdict(ps, results, cands, notes, candidates):
    """The search's verdict rule, as the references below apply it."""
    if results:
        status = "found"
    elif candidates is not None:
        status, notes = "undetermined", ["only the given cofactors were searched"]
    elif cands and constant_cofactor_weight(ps) is not None:
        status = "proved-none"
    else:
        status = "undetermined"
        notes = notes + ([WEIGHT_NOTE] if cands else [])
    return darboux.CurveSearch(results, status, notes, cands)


def per_degree_search(ps, points, max_degree, candidates=None):
    """The search as a loop over degrees: one fresh matrix and one exact
    solve per candidate and degree, then deduplication and screening, and
    the verdict.  The search reads every degree from one nullspace at
    max_degree; this is the reference it must agree with."""
    notes = []
    if candidates is None:
        cands, notes = eigenvalue_cofactor_candidates(ps, points)
    else:
        cands = [QuadExt.lift(k) for k in candidates]
    results, seen, accepted = [], set(), []
    for k in cands:
        for deg in range(1, max_degree + 1):
            sol = solve_fixed_cofactor(ps, k, deg, required_points=points)
            if sol is None:
                continue
            for f in sol.curves:
                if f in seen:
                    continue
                seen.add(f)
                if not irreducibility_screen(f, accepted)[0]:
                    continue
                accepted.append(f)
                results.append(darboux.DarbouxResult(
                    curves=[f], cofactor=k, degree=f.degree(),
                    nullspace_dim=sol.nullspace_dim))
    return reference_verdict(ps, results, cands, notes, candidates)


def reference_search(ps, points, max_degree, candidates=None):
    """The search before it formed saddle values as images mod p: the
    equilibrium check by polynomial evaluation, the exact candidates of
    eigenvalue_cofactor_candidates, one prime for the coefficients, points
    and candidates, and each candidate certified at that prime or solved
    exactly; kept as the reference for search_constant_cofactor."""
    lifted = [(QuadExt.lift(a), QuadExt.lift(b)) for a, b in points]
    for pt, (px, py) in zip(points, lifted):
        point = {ps.x_var: px, ps.y_var: py}
        if not (ps.P.evaluate(point).is_zero() and ps.Q.evaluate(point).is_zero()):
            raise ValueError(f"({pt[0]}, {pt[1]}) is not an equilibrium")
    notes = []
    if candidates is None:
        cands, notes = eigenvalue_cofactor_candidates(ps, points)
    else:
        cands = list(dict.fromkeys(QuadExt.lift(k) for k in candidates))
    root = modular_root([*ps.P.terms.values(), *ps.Q.terms.values(),
                         *(c for pt in lifted for c in pt), *cands]) if cands else None
    modular = darboux._ModularRows(ps, max_degree, lifted, *root[:2]) if root else None
    results, accepted = [], []
    for k in cands:
        if modular is not None and modular.certifies(residue(k, *root[:2])):
            continue
        basis, rows = invariance_matrix(ps, k, max_degree, points)
        curves = darboux._monic_curves(ps, k, basis, nullspace(rows, len(basis)), points)
        for f in curves:
            if f.is_constant() or not irreducibility_screen(f, accepted)[0]:
                continue
            accepted.append(f)
            results.append(darboux.DarbouxResult(
                curves=[f], cofactor=k, degree=f.degree(),
                nullspace_dim=sum(g.degree() <= f.degree() for g in curves)))
    return reference_verdict(ps, results, cands, notes, candidates)


@st.composite
def planted_searches(draw):
    """Criterion 09's planted systems: f* = y + w(x) is invariant with
    cofactor k; the candidate list may also hold a shifted cofactor.
    Returns (system, points, degree bound, candidates, k)."""
    wc = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
                       min_size=1, max_size=4))
    pc = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=6, max_size=6))
    k = Fr(draw(st.integers(min_value=-4, max_value=4).filter(lambda k: k != 0)),
           draw(st.integers(min_value=1, max_value=2)))
    shift = draw(st.integers(min_value=-2, max_value=2))
    reg = VarRegistry(["x", "y"])
    x = MultiPoly.var(reg, "x")
    y = MultiPoly.var(reg, "y")
    w = MultiPoly.zero(reg)
    for i, c in enumerate(wc):
        w = w + c * x**i
    fstar = y + w
    monos = [x**i * y**j for i in range(3) for j in range(3 - i)]
    P = MultiPoly.zero(reg)
    for c, m in zip(pc, monos):
        P = P + c * m
    if P.is_zero:
        P = x
    Q = k * fstar - P * w.partial_derivative(0)
    ps = PlanarSystem(reg, 0, 1, P, Q)
    cands = [k, k + shift] if shift else [k]
    return ps, [], max(fstar.degree(), 1), cands, k


@settings(max_examples=20, deadline=None)
@given(planted_searches())
def test_certified_search_matches_exact_loop(case):
    ps, points, top, cands, k = case
    got = search_constant_cofactor(ps, points, top, cands)
    assert hit_keys(got) == hit_keys(exact_search(ps, points, top, cands))
    assert any(h.cofactor == k for h in got)


FRONT_SPEEDS = (FRONT_SPEED, QuadExt(2), QuadExt(Fr(7, 3)))


@st.composite
def front_searches(draw):
    """The Fisher plane system through both rest states, at a speed with a
    curve and at two without, up to degree 6."""
    c = draw(st.sampled_from(FRONT_SPEEDS))
    return fisher_system(c), [(1, 0), (0, 0)], draw(st.integers(min_value=1, max_value=6)), None


@st.composite
def monomial_searches(draw):
    """x' = x, y' = -a*y, where every monomial x^i y^j is invariant with
    cofactor i - a*j: nullspaces of dimension above 1, constant curves,
    squares, multiples of accepted curves and repeated candidates."""
    a = draw(st.integers(min_value=1, max_value=2))
    ps = make_plane(lambda x, y: x, lambda x, y: -a * y)
    cands = draw(st.lists(st.integers(min_value=-2, max_value=3), min_size=1, max_size=4))
    return ps, [], draw(st.integers(min_value=1, max_value=4)), cands


@settings(max_examples=30, deadline=None)
@given(st.one_of(planted_searches().map(lambda case: case[:4]), front_searches(),
                 monomial_searches()))
def test_search_matches_per_degree_reference(case):
    ps, points, top, cands = case
    got = search_constant_cofactor(ps, points, top, cands)
    assert hit_keys(got) == hit_keys(per_degree_search(ps, points, top, cands))


def test_search_builds_once_and_solves_only_open_candidates():
    # one cofactor-free build per search; the exact spectra, an exact
    # matrix and a nullspace only for the image the certificate leaves
    # open, the front's -sqrt(6)
    for c, top, opened in ((QuadExt(2), 3, 0), (QuadExt(2), 6, 0),
                           (FRONT_SPEED, 3, 1), (FRONT_SPEED, 6, 1)):
        ps = fisher_system(c)
        build_patch, solve_patch = counting_solves()
        with mock.patch.object(darboux, "_shifted_columns",
                               wraps=darboux._shifted_columns) as shifts, \
                build_patch as build, solve_patch as solve:
            hits = search_constant_cofactor(ps, [(1, 0), (0, 0)], top)
        assert len(hits.images) == 3 and len(hits.candidates) == 3 * opened
        cofactor_free = [call for call in shifts.call_args_list if len(call.args) == 2]
        assert len(cofactor_free) == 1 and cofactor_free[0].args[1] == top
        assert shifts.call_count == 1 + opened
        assert build.call_count == solve.call_count == opened
        assert [call.args[1] for call in build.call_args_list] == [QuadExt(0, -1, 6)] * opened


class TestCertificateFallback:
    def test_certified_front_search_matches_exact_loop(self):
        for c in (FRONT_SPEED, QuadExt(2)):
            ps = fisher_system(c)
            got = search_constant_cofactor(ps, [(1, 0), (0, 0)], 4)
            want = exact_search(ps, [(1, 0), (0, 0)], 4)
            assert hit_keys(got) == hit_keys(want)

    def test_unlucky_prime_falls_back_to_exact(self):
        # x' = x, y' = -y with cofactor -p: every diagonal entry i - j + p
        # is nonzero, but the constant column vanishes mod the first prime,
        # which the search uses
        p = MODULAR_PRIMES[0]
        ps = make_plane(lambda x, y: x, lambda x, y: -y)
        assert darboux.modular_root([QuadExt(1), QuadExt(-1), QuadExt(-p)])[0] == p
        modular = darboux._ModularRows(ps, 3, [], p, 1)  # d = 1, so r = 1
        assert independent_prefix_mod_p(modular.rows_for(residue(QuadExt(-p), p, 1)), 10, p) == 0
        build_patch, solve_patch = counting_solves()
        with build_patch, solve_patch as solve:
            assert search_constant_cofactor(ps, [], 3, [-p]) == []
        assert solve.call_count == 1
        # the cofactor 1 (of x and x^2*y) is left open too; 1/2 is proved
        build_patch, solve_patch = counting_solves()
        with build_patch as build, solve_patch as solve:
            hits = search_constant_cofactor(ps, [], 3, [-p, 1, Fr(1, 2)])
        assert [str(h.curve) for h in hits] == ["x"]
        assert [call.args[1] for call in build.call_args_list] == [QuadExt(-p), QuadExt(1)]
        assert solve.call_count == 2

    def test_denominator_divisible_by_p_falls_back_to_exact(self):
        # y' = y/p: y = 0 is invariant with cofactor 1/p, an entry the
        # first prime cannot map, so the search moves to the second prime
        # and proves the cofactor 1/2 there; only 1/p is solved exactly
        p = MODULAR_PRIMES[0]
        ps = make_plane(lambda x, y: x, lambda x, y: Fr(1, p) * y)
        cands = [Fr(1, p), Fr(1, 2)]
        build_patch, solve_patch = counting_solves()
        with build_patch as build, solve_patch as solve:
            got = search_constant_cofactor(ps, [], 3, cands)
        assert [call.args[1] for call in build.call_args_list] == [QuadExt(Fr(1, p))]
        assert solve.call_count == 1
        want = exact_search(ps, [], 3, cands)
        assert hit_keys(got) == hit_keys(want)
        assert [str(h.curve) for h in got] == ["y"]
        # with a denominator every prime divides, no prime qualifies and
        # every candidate is solved exactly
        den = math.prod(MODULAR_PRIMES)
        ps = make_plane(lambda x, y: x, lambda x, y: Fr(1, den) * y)
        build_patch, solve_patch = counting_solves()
        with build_patch, solve_patch as solve:
            got = search_constant_cofactor(ps, [], 3, [Fr(1, den), Fr(1, 2)])
        assert solve.call_count == 2
        assert [str(h.curve) for h in got] == ["y"]

    def test_no_candidate_search_is_empty(self):
        # at c = sqrt(2) the saddle eigenvalues (-sqrt(2) +- sqrt(6))/2 lie
        # in no single Q(sqrt(d)), so there is no exact candidate; the
        # search rules out their images mod p instead (TestVerdict)
        ps = fisher_system(QuadExt(0, 1, 2))
        cands, notes = eigenvalue_cofactor_candidates(ps, [(1, 0), (0, 0)])
        assert cands == []
        assert any("not exactly representable" in n for n in notes)


SADDLE_NOTE = "(0, 0) is not a saddle; no cofactor constraint"


class TestVerdict:
    """The search's status, notes and candidates for each branch of its
    rule."""

    def test_found_at_front_speed(self):
        ps = fisher_system(FRONT_SPEED)
        hits = search_constant_cofactor(ps, [(1, 0), (0, 0)], 3)
        assert (hits.status, hits.notes) == ("found", [SADDLE_NOTE])
        assert hits.candidates == eigenvalue_cofactor_candidates(ps, [(1, 0), (0, 0)])[0]
        assert len(hits.candidates) == 3

    def test_proved_none_at_two(self):
        # saddle values, all ruled out by their images mod p, and weights
        # (1, 3/2) make every cofactor constant
        ps = fisher_system(QuadExt(2))
        hits = search_constant_cofactor(ps, [(1, 0), (0, 0)], 4)
        assert hits == [] and hits.candidates == [] and len(hits.images) == 3
        p = hits.prime
        exact, _ = eigenvalue_cofactor_candidates(ps, [(1, 0), (0, 0)])
        assert set(hits.images) == {residue(k, p, pow(2, (p + 1) // 4, p)) for k in exact}
        assert (hits.status, hits.notes) == ("proved-none", [SADDLE_NOTE])

    def test_unrepresentable_saddle_is_proved_by_images(self):
        # at c = sqrt(2) the saddle eigenvalues (-sqrt(2) +- sqrt(6))/2 lie
        # in no single Q(sqrt(d)); their images under sqrt(2) -> r,
        # sqrt(6) -> s are ruled out, and the note names the prime
        hits = search_constant_cofactor(fisher_system(QuadExt(0, 1, 2)), [(1, 0), (0, 0)], 4)
        p = hits.prime
        r, s = pow(2, (p + 1) // 4, p), pow(6, (p + 1) // 4, p)
        assert r * r % p == 2 and s * s % p == 6
        assert hits == [] and hits.candidates == []
        assert sorted(hits.images) == sorted({(-r + s) * pow(2, -1, p) % p,
                                              (-r - s) * pow(2, -1, p) % p, -r % p})
        assert hits.status == "proved-none"
        assert hits.notes == ["eigenvalues at (1, 0) are not exactly representable; "
                              "their images mod %d were certified" % p, SADDLE_NOTE]

    def test_no_weights_is_undetermined(self):
        # the cubic system's curve y - x^2 + x has the cofactor x - 3, which
        # no constant candidate finds: the saddle values 1, -2 and -1 are
        # ruled out by their images, which proves nothing without weights
        hits = search_constant_cofactor(cubic_system(), [(0, 0), (1, 0)], 4)
        assert hits == [] and hits.candidates == []
        assert sorted(hits.images) == [1, hits.prime - 2, hits.prime - 1]
        assert hits.status == "undetermined"
        assert hits.notes == ["(0, 0) is not a saddle; no cofactor constraint", WEIGHT_NOTE]

    def test_given_cofactors_prove_nothing(self):
        ps = fisher_system(FRONT_SPEED)
        hits = search_constant_cofactor(ps, [(1, 0), (0, 0)], 3, [1])
        assert hits == [] and hits.candidates == [QuadExt(1)]
        assert (hits.status, hits.notes) == (
            "undetermined", ["only the given cofactors were searched"])
        hits = search_constant_cofactor(ps, [(1, 0), (0, 0)], 3, [1, QuadExt(0, -1, 6)])
        assert (hits.status, hits.notes, len(hits)) == ("found", [], 1)

    def test_non_saddle_point_is_undetermined(self):
        hits = search_constant_cofactor(fisher_system(QuadExt(2)), [(0, 0)], 4)
        assert hits == [] and hits.candidates == []
        assert (hits.status, hits.notes) == ("undetermined", [SADDLE_NOTE])

    def test_mixed_radicand_system_is_searched_by_exact_spectra(self):
        # P and Q in Q(sqrt(3)) and Q(sqrt(2)): no integer pass holds them,
        # but the Jacobian trace and determinant at the origin do
        ps = make_plane(lambda x, y: QuadExt(0, 1, 3) * y, lambda x, y: QuadExt(0, 1, 2) * y)
        hits = search_constant_cofactor(ps, [(0, 0)], 2)
        assert hits == [] and hits.candidates == []
        assert (hits.status, hits.notes) == ("undetermined", [SADDLE_NOTE])
        with pytest.raises(ValueError, match="not an equilibrium"):
            search_constant_cofactor(ps, [(0, 1)], 2)

    def test_no_point_is_undetermined(self):
        hits = search_constant_cofactor(fisher_system(QuadExt(2)), [], 2)
        assert (hits.status, hits.notes) == ("undetermined", ["no point was given"])

    def test_repeated_candidate_is_searched_once(self):
        ps = fisher_system(FRONT_SPEED)
        k = QuadExt(0, -1, 6)
        hits = search_constant_cofactor(ps, [(1, 0), (0, 0)], 3, [k, k])
        assert len(hits) == 1 and hits[0].curve == front_curve(ps)
        assert hits.candidates == [k]

    def test_saddles_sharing_no_value_are_undetermined(self):
        # eigenvalues (-1 +- sqrt(13))/2 at (0, 0) and 1 +- sqrt(7) at (3, 0)
        ps = make_plane(lambda x, y: y, lambda x, y: x * (x - 1) * (x - 3) + x * y - y)
        hits = search_constant_cofactor(ps, [(0, 0), (3, 0)], 2)
        assert hits == [] and hits.candidates == []
        assert (hits.status, hits.notes) == (
            "undetermined", ["no cofactor value is allowed at every saddle"])


def reference_eigenvalue_cofactor_candidates(ps, points):
    """The candidates read from jacobian_eigen, which finds the spectrum and
    eigenvectors at every point and keeps them only at saddles: kept as the
    reference for eigenvalue_cofactor_candidates."""
    notes = []
    option_sets = []
    for pt in points:
        ed = jacobian_eigen(ps, pt)
        label = f"({pt[0]}, {pt[1]})"
        if not ed.is_saddle:
            notes.append(f"{label} is not a saddle; no cofactor constraint")
            continue
        if not ed.exact:
            notes.append(f"eigenvalues at {label} are not exactly representable")
            continue
        lp, lm = ed.eigenvalues
        option_sets.append([lp, lm, lp + lm])
    if not option_sets:
        return [], notes or ["no point was given"]
    cands = [k for k in option_sets[0] if all(k in s for s in option_sets[1:])]
    if not cands:
        notes.append("no cofactor value is allowed at every saddle")
    return cands, notes


@st.composite
def local_spectra(draw):
    """A plane system and one to three points.  The system is built around
    its first point with a chosen Jacobian there: a saddle, a node, a
    degenerate point, irrational entries with rational trace and
    determinant (eigenvalues then often lie in another field), entries
    from two fields, or random entries; or it is the Fisher plane system
    at a rational or Q(sqrt(d)) speed.  Coefficients are over Q or
    Q(sqrt(d)); the other points are random or the rest points."""
    d = draw(st.sampled_from((2, 3, 5, 6)))
    e = draw(st.sampled_from(tuple({2, 3, 5, 6, 7} - {d})))
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    elt = st.one_of(rat, st.builds(lambda a, b: QuadExt(a, b, d), rat, rat))
    kind = draw(st.sampled_from(("saddle", "node", "degenerate", "rational-spectrum",
                                 "mixed", "random", "fisher")))
    if kind == "fisher":
        c = draw(st.one_of(rat, st.builds(lambda a, b: QuadExt(a, b, d), rat, rat)))
        ps = fisher_system(c)
        rest = ((0, 0), (1, 0))
        return ps, draw(st.lists(st.sampled_from(rest), min_size=1, max_size=3))
    a11, a22 = QuadExt.lift(draw(elt)), QuadExt.lift(draw(elt))
    a12, a21 = QuadExt.lift(draw(elt)), QuadExt.lift(draw(elt))
    if kind == "saddle":  # det = a11*a22 - (a11*a22 + s^2) < 0
        a12 = QuadExt(1)
        a21 = a11 * a22 + QuadExt.lift(draw(rat.filter(bool))) ** 2
    elif kind == "node":  # triangular, real eigenvalues of one sign
        a12 = QuadExt(0)
        a22 = a11 * QuadExt.lift(draw(st.fractions(min_value=Fr(1, 3), max_value=3)))
    elif kind == "degenerate":
        a12, a22 = QuadExt(0), QuadExt(0)
    elif kind == "rational-spectrum":
        a12, a21 = QuadExt.lift(draw(rat)), QuadExt.lift(draw(rat))
        a22 = 2 * a11.a - a11
    elif kind == "mixed":
        other = st.builds(lambda a, b: QuadExt(a, b, e), rat, rat)
        a12, a21 = QuadExt.lift(draw(other)), QuadExt.lift(draw(st.one_of(other, elt)))
    # a point off the origin would give P and Q constant terms from two fields
    px, py = (0, 0) if kind == "mixed" else (draw(rat), draw(rat))
    reg = VarRegistry(["x", "y"])
    u, v = MultiPoly.var(reg, "x") - px, MultiPoly.var(reg, "y") - py
    P = a11 * u + a12 * v + draw(rat) * u * u
    Q = a21 * u + a22 * v + draw(rat) * u * v
    others = st.one_of(st.tuples(rat, rat), st.just((px, py)))
    points = [(px, py)] + draw(st.lists(others, max_size=2))
    return PlanarSystem.from_polys(P, Q), points


def spectra_outcome(candidates, ps, points):
    try:
        return candidates(ps, points)
    except RadicandMismatchError:
        return RadicandMismatchError


@settings(max_examples=200, deadline=None)
@given(local_spectra())
def test_saddle_candidates_match_jacobian_eigen_reference(case):
    ps, points = case
    assert (spectra_outcome(eigenvalue_cofactor_candidates, ps, points)
            == spectra_outcome(reference_eigenvalue_cofactor_candidates, ps, points))


@settings(max_examples=200, deadline=None)
@given(local_spectra())
def test_exactness_is_decided_without_roots(case):
    ps, points = case
    for pt in points:
        try:
            jet = integer_jet(ps, pt)
        except RadicandMismatchError:
            # no integer pass over one Z[sqrt(d)] holds a system and a
            # point that mix radicands; the search then takes exact spectra
            with pytest.raises(RadicandMismatchError):
                qfield.common_radicand([*ps.P.terms.values(), *ps.Q.terms.values(),
                                        *map(QuadExt.lift, pt)])
            continue
        jac, tr, det, _ = linearization(ps, pt)
        assert eigenvalues_are_exact(*jet) == (exact_eigenvalues(jac, tr, det) is not None)


@st.composite
def fisher_speeds(draw):
    """The Fisher plane system through one or both rest states at a random
    rational or Q(sqrt(d)) speed, or at the front speed or its mirror."""
    rat = st.fractions(min_value=-12, max_value=12, max_denominator=9)
    d = draw(st.sampled_from((2, 3, 5, 6, 7, 21)))
    c = draw(st.one_of(rat, st.builds(lambda a, b: QuadExt(a, b, d), rat, rat),
                       st.sampled_from((FRONT_SPEED, -FRONT_SPEED))))
    points = draw(st.sampled_from(([(1, 0), (0, 0)], [(0, 0), (1, 0)], [(1, 0)])))
    return fisher_system(c), points


def search_outcome(search, ps, points, degree):
    try:
        return search(ps, points, degree)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(st.one_of(local_spectra(), fisher_speeds()), st.integers(min_value=1, max_value=5))
def test_search_agrees_with_reference_search(case, degree):
    ps, points = case
    want = search_outcome(reference_search, ps, points, degree)
    got = search_outcome(search_constant_cofactor, ps, points, degree)
    if isinstance(want, darboux.CurveSearch) and want.status != "undetermined":
        assert isinstance(got, darboux.CurveSearch)
        assert (got.status, hit_keys(got)[2]) == (want.status, hit_keys(want)[2])
    # the images are the residues of the exact saddle values, wherever
    # every saddle has them
    if isinstance(got, darboux.CurveSearch) and got.images:
        exact, notes = eigenvalue_cofactor_candidates(ps, points)
        if exact and not any("not exactly representable" in n for n in notes):
            p = got.prime
            assert {residue(k, p, pow(k.d, (p + 1) // 4, p)) for k in exact} == set(got.images)


def test_every_sqrt_speed_is_decided():
    # at c = sqrt(n) the saddle eigenvalues (-sqrt(n) +- sqrt(n + 4))/2 lie
    # in one Q(sqrt(d)) only for some n; their images decide every n
    for n in range(1, 51):
        ps = fisher_system(parse_quadext("sqrt(%d)" % n))
        assert search_constant_cofactor(ps, [(0, 0), (1, 0)], 6).status == "proved-none"


def test_huge_rational_speeds_are_decided_fast():
    # the exact roots of c^2 + 4 would need squarefree parts beyond the
    # trial-division cap; the images need none
    for c in (10000000019, 123456789012345678901, 100000000000000000039):
        t0 = time.perf_counter()
        hits = search_constant_cofactor(fisher_system(QuadExt(c)), [(0, 0), (1, 0)], 6)
        assert hits.status == "proved-none" and hits.candidates == []
        assert time.perf_counter() - t0 < 1.0


def test_exact_roots_only_at_saddles():
    calls = []
    real = reduction.quadratic_roots

    def counted(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(reduction, "quadratic_roots", counted):
        for c in (QuadExt(2), FRONT_SPEED, QuadExt(Fr(97057, 9))):
            ps = fisher_system(c)
            calls.clear()
            cands, _ = eigenvalue_cofactor_candidates(ps, [(0, 0), (1, 0)])
            assert len(calls) == 1 and len(cands) == 3  # the saddle (1, 0) only
            calls.clear()
            eigenvalue_cofactor_candidates(ps, [(0, 0)])
            assert calls == []  # the node
        # two saddles, one root-finding each
        ps = make_plane(lambda x, y: y, lambda x, y: x * (x - 1) * (x - 3) + x * y - y)
        calls.clear()
        eigenvalue_cofactor_candidates(ps, [(0, 0), (1, 0), (3, 0)])
        assert len(calls) == 2


def reference_invariance_matrix(ps, cofactor, degree, required_points=()):
    """The invariance matrix over QuadExt, with one cofactor_residual
    product per column and one evaluation per point and basis monomial:
    the construction before integer rows, kept as the reference for
    invariance_matrix."""
    reg = ps.registry
    xv, yv = ps.x_var, ps.y_var
    basis = sorted((tuple(sorted((v, e) for v, e in ((xv, i), (yv, n - i)) if e))
                    for n in range(degree + 1) for i in range(n + 1)),
                   key=lambda m: grlex_key(m, len(reg)))
    resids = [cofactor_residual(ps, MultiPoly(reg, {m: QuadExt(1)}), cofactor)
              for m in basis]
    row_monos = sorted({mon for r in resids for mon in r.terms},
                       key=lambda m: grlex_key(m, len(reg)))
    rows = [[r.coeff(mon) for r in resids] for mon in row_monos]
    for pt in required_points:
        point = {ps.x_var: QuadExt.lift(pt[0]), ps.y_var: QuadExt.lift(pt[1])}
        rows.append([MultiPoly(reg, {m: QuadExt(1)}).evaluate(point) for m in basis])
    return basis, rows


def in_registry(names, ps, k):
    """ps, and k when it is a polynomial, in a new registry of the given names."""
    reg = VarRegistry(names)
    sub = {ps.x_var: MultiPoly.var(reg, "x"), ps.y_var: MultiPoly.var(reg, "y")}

    def move(f):
        return f.substitute(sub, registry=reg)

    return (PlanarSystem(reg, reg.id_of("x"), reg.id_of("y"), move(ps.P), move(ps.Q)),
            move(k) if isinstance(k, MultiPoly) else k)


@st.composite
def invariance_cases(draw):
    """A system, a cofactor, a degree bound from 0 and up to two required
    points with integer, fractional and sqrt(d) coordinates: criterion 09's
    planted systems, the Fisher plane system at a speed with a curve and at
    two without, the cubic system with the polynomial cofactor x - 3, and
    x' = x, y' = -a*y, whose residual of x^i y^j vanishes when k = i - a*j.
    The system lives in a registry that lists x first or y first."""
    kind = draw(st.sampled_from(("planted", "front", "cubic", "monomial")))
    if kind == "planted":
        ps, _, _, cands, _ = draw(planted_searches())
        k = QuadExt.lift(draw(st.sampled_from(cands)))
    elif kind == "monomial":
        ps, _, _, cands = draw(monomial_searches())
        k = QuadExt.lift(draw(st.sampled_from(cands)))
    elif kind == "front":
        ps = fisher_system(draw(st.sampled_from(FRONT_SPEEDS)))
        k = draw(st.sampled_from(eigenvalue_cofactor_candidates(ps, [(1, 0), (0, 0)])[0]))
    else:
        ps = cubic_system()
        k = MultiPoly.var(ps.registry, "x") - 3
    ps, k = in_registry(draw(st.sampled_from((["x", "y"], ["y", "x"]))), ps, k)
    coeffs = list(ps.P.terms.values()) + list(ps.Q.terms.values())
    coeffs += list(k.terms.values()) if isinstance(k, MultiPoly) else [k]
    d = max(c.d for c in coeffs)
    if d == 1:
        d = draw(st.sampled_from((2, 3, 5)))
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coord = st.one_of(st.integers(min_value=-2, max_value=2), rat,
                      st.builds(lambda a, b: QuadExt(a, b, d), rat, rat))
    points = draw(st.lists(st.tuples(coord, coord), max_size=2))
    return ps, k, draw(st.integers(min_value=0, max_value=6)), points


@settings(max_examples=60, deadline=None)
@given(invariance_cases())
def test_invariance_matrix_matches_reference(case):
    ps, k, degree, points = case
    basis, rows = invariance_matrix(ps, k, degree, points)
    want_basis, want = reference_invariance_matrix(ps, k, degree, points)
    assert basis == want_basis
    assert len(rows) == len(rows.scales) == len(want)
    for row, scale, ref in zip(rows, rows.scales, want):
        assert [QuadExt(Fr(a, scale), Fr(b, scale), rows.d) for a, b in row] == ref


def test_invariance_matrix_rejects_mixed_fields():
    ps = fisher_system(FRONT_SPEED)
    with pytest.raises(RadicandMismatchError):
        invariance_matrix(ps, QuadExt(0, 1, 2), 2)
    with pytest.raises(RadicandMismatchError):
        invariance_matrix(ps, QuadExt(0, -1, 6), 2, [(QuadExt(0, 1, 3), 0)])
    with pytest.raises(RegistryMismatchError):
        invariance_matrix(ps, MultiPoly.var(VarRegistry(["x", "y"]), "x"), 2)


def test_plane_system_lives_in_x_and_y():
    reg = VarRegistry(["x", "y", "z"])
    x, y, z = (MultiPoly.var(reg, name) for name in "xyz")
    with pytest.raises(ReductionError):
        PlanarSystem(reg, 0, 1, y, x * x - z * y)
    ps = PlanarSystem(reg, 0, 1, y, x * x - x - y)
    with pytest.raises(ValueError):
        invariance_matrix(ps, z - 1, 2)


def test_negative_search_takes_no_exact_root():
    # one integer pass per point, images mod p and rank certificates: no
    # polynomial evaluation or derivative, no exact square root and no
    # squarefree part
    def counted(owner, name):
        return mock.patch.object(owner, name, autospec=True,
                                 side_effect=getattr(owner, name))

    for c in (QuadExt(2), QuadExt(Fr(97057, 9)), QuadExt(0, 1, 21)):
        ps = fisher_system(c)
        with counted(MultiPoly, "evaluate") as evaluate, \
                counted(MultiPoly, "partial_derivative") as partial, \
                counted(reduction, "quadratic_roots") as roots, \
                counted(qfield, "squarefree_decompose") as squarefree:
            hits = search_constant_cofactor(ps, [(0, 0), (1, 0)], 6)
        assert (hits.status, hits.candidates, len(hits.images)) == ("proved-none", [], 3)
        assert [evaluate.call_count, partial.call_count, roots.call_count,
                squarefree.call_count] == [0, 0, 0, 0]
    # at the front speed the image of -sqrt(6) stays open: one exact
    # spectrum, at the saddle, and one exact solve
    ps = fisher_system(FRONT_SPEED)
    build_patch, solve_patch = counting_solves()
    with counted(reduction, "quadratic_roots") as roots, build_patch as build, solve_patch:
        hits = search_constant_cofactor(ps, [(0, 0), (1, 0)], 6)
    assert roots.call_count == 1 and len(hits) == 1 and len(hits.candidates) == 3
    assert [call.args[1] for call in build.call_args_list] == [QuadExt(0, -1, 6)]
    # at c = 2 the discriminant 8 is no square mod a prime p = 3 (mod 8);
    # with only such primes nothing is certified and every exact saddle
    # value is solved
    ps = fisher_system(QuadExt(2))
    unlucky = tuple(p for p in MODULAR_PRIMES if p % 8 == 3)
    build_patch, solve_patch = counting_solves()
    with mock.patch.object(linalg, "MODULAR_PRIMES", unlucky), \
            counted(reduction, "quadratic_roots") as roots, build_patch as build, solve_patch:
        hits = search_constant_cofactor(ps, [(0, 0), (1, 0)], 6)
    assert unlucky and roots.call_count == 1 and build.call_count == 3
    assert (hits.status, hits.images, hits.prime) == ("proved-none", [], None)
    assert hits.candidates == eigenvalue_cofactor_candidates(ps, [(0, 0), (1, 0)])[0]


def test_elimination_leaves_invariance_matrix_unchanged():
    ps = fisher_system(FRONT_SPEED)
    basis, rows = invariance_matrix(ps, QuadExt(0, -1, 6), 4, [(1, 0), (0, 0)])
    before = ([list(row) for row in rows], rows.d, list(rows.scales))
    first = nullspace(rows, len(basis))
    assert first and nullspace(rows, len(basis)) == first
    assert ([list(row) for row in rows], rows.d, list(rows.scales)) == before
    # the search's modular rows serve every candidate, so a certificate
    # leaves them unchanged too
    points = [(QuadExt(1), QuadExt(0)), (QuadExt(0), QuadExt(0))]
    p, r, _ = darboux.modular_root([FRONT_SPEED])
    modular = darboux._ModularRows(ps, 4, points, p, r)
    before = [dict(row) for row in modular.rows]
    assert not modular.certifies(residue(QuadExt(0, -1, 6), p, r))
    assert modular.certifies(residue(QuadExt(0, Fr(1, 6), 6), p, r))
    assert modular.rows == before


def test_invariance_matrix_multiplies_no_polynomials():
    cubic = cubic_system()
    cases = [(fisher_system(FRONT_SPEED), QuadExt(0, -1, 6)),
             (fisher_system(QuadExt(2)), QuadExt(-1)),
             (cubic, MultiPoly.var(cubic.registry, "x") - 3)]

    def forbidden(*args, **kwargs):
        raise AssertionError("polynomial arithmetic in invariance_matrix")

    with mock.patch.object(darboux, "cofactor_residual", forbidden), \
            mock.patch.object(MultiPoly, "__mul__", forbidden), \
            mock.patch.object(MultiPoly, "__rmul__", forbidden), \
            mock.patch.object(MultiPoly, "evaluate", forbidden):
        for ps, k in cases:
            basis, rows = invariance_matrix(ps, k, 6, [(1, 0), (0, 0)])
            assert len(basis) == 28 and len(rows) > len(basis)


class TestCofactorWeight:
    def test_fisher_cofactors_are_constant(self):
        # x' = y, y' = x^2 - x - c*y: weights (1, t) work for 1 < t < 2
        for c in FRONT_SPEEDS:
            assert constant_cofactor_weight(fisher_system(c)) == Fr(3, 2)

    def test_cubic_system_has_no_weights(self):
        # the term 3*x*y of Q raises the weight by exactly 1 for every t
        ps = cubic_system()
        x, y = MultiPoly.var(ps.registry, "x"), MultiPoly.var(ps.registry, "y")
        assert cofactor_residual(ps, y - x * x + x, x - 3).is_zero
        assert constant_cofactor_weight(ps) is None

    def test_linear_field_has_constant_cofactors(self):
        assert constant_cofactor_weight(make_plane(lambda x, y: x, lambda x, y: -y)) == 1

    def test_weights_below_one(self):
        # x' = x + y^3, y' = y: with t = weight of y, y^3 raises by 3t - 1,
        # which is below min(1, t) for t < 1/2
        ps = make_plane(lambda x, y: x + y**3, lambda x, y: y)
        assert constant_cofactor_weight(ps) == Fr(1, 4)
        # x' = y^2, y' = x: 1/2 < t < 1; x' = y^2, y' = x^2: t < 1 for the
        # first term and t > 1 for the second
        ps = make_plane(lambda x, y: y * y, lambda x, y: x)
        assert constant_cofactor_weight(ps) == Fr(3, 4)
        ps = make_plane(lambda x, y: y * y, lambda x, y: x * x)
        assert constant_cofactor_weight(ps) is None
