"""Invariant curve solver: fixed cofactors, saddle candidates, screening."""

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
from algwaves import darboux
from algwaves.fisher import FISHER_PDE
from algwaves.linalg import MODULAR_PRIMES, in_row_span, independent_prefix_mod_p, nullspace
from algwaves.pde import parse_pde
from algwaves.poly import MultiPoly, RegistryMismatchError, VarRegistry, grlex_key
from algwaves.qfield import QuadExt, RadicandMismatchError
from algwaves.reduction import to_planar, travelling_wave_reduce

FISHER = travelling_wave_reduce(parse_pde(FISHER_PDE))


def make_plane(P_builder, Q_builder):
    from algwaves.reduction import PlanarSystem

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
        from algwaves.reduction import PlanarSystem

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
    from algwaves.reduction import PlanarSystem

    ps = PlanarSystem(reg, 0, 1, P, Q)
    deg = max(fstar.degree(), 1)
    res = solve_fixed_cofactor(ps, k, deg)
    assert res is not None
    basis = monomial_basis([0, 1], deg)
    rows = [[f.coeff(m) for m in basis] for f in res.curves]
    target = [fstar.coeff(m) for m in basis]
    assert in_row_span(rows, target)


def exact_search(ps, points, max_degree, candidates=None):
    """The search with the modular certificate proving nothing: the exact
    solve then runs at every degree from 1."""
    with mock.patch.object(darboux, "independent_prefix_mod_p", lambda rows, ncols: 0):
        return search_constant_cofactor(ps, points, max_degree, candidates)


def hit_keys(hits):
    return (hits.status, hits.notes,
            [(str(h.curve), str(h.cofactor), h.degree, h.nullspace_dim) for h in hits])


WEIGHT_NOTE = ("no weights (1, t) for (x, y) make every cofactor constant; "
               "nonconstant cofactors were not searched")


def reference_search(ps, points, max_degree, candidates=None):
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
    from algwaves.reduction import PlanarSystem

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
    assert hit_keys(got) == hit_keys(reference_search(ps, points, top, cands))


def test_search_builds_and_eliminates_once_per_candidate():
    for c, top in ((FRONT_SPEED, 6), (QuadExt(2), 6), (FRONT_SPEED, 3)):
        ps = fisher_system(c)
        cands, _ = eigenvalue_cofactor_candidates(ps, [(1, 0), (0, 0)])
        with mock.patch.object(darboux, "invariance_matrix",
                               wraps=darboux.invariance_matrix) as build, \
                mock.patch.object(darboux, "nullspace", wraps=darboux.nullspace) as solve:
            hits = search_constant_cofactor(ps, [(1, 0), (0, 0)], top)
        assert build.call_count == len(cands) == 3
        assert all(call.args[2] == top for call in build.call_args_list)
        assert (1 if hits else 0) <= solve.call_count <= len(cands)


class TestCertificateFallback:
    def test_certified_front_search_matches_exact_loop(self):
        for c in (FRONT_SPEED, QuadExt(2)):
            ps = fisher_system(c)
            got = search_constant_cofactor(ps, [(1, 0), (0, 0)], 4)
            want = exact_search(ps, [(1, 0), (0, 0)], 4)
            assert hit_keys(got) == hit_keys(want)

    def test_unlucky_prime_falls_back_to_exact(self):
        # x' = x, y' = -y with cofactor -p: every diagonal entry i - j + p
        # is nonzero, but the constant column vanishes mod the first prime
        p = MODULAR_PRIMES[0]
        ps = make_plane(lambda x, y: x, lambda x, y: -y)
        basis, rows = darboux.invariance_matrix(ps, -p, 3)
        assert darboux.independent_prefix_mod_p(rows, len(basis)) == 0
        assert search_constant_cofactor(ps, [], 3, [-p]) == []
        hits = search_constant_cofactor(ps, [], 3, [-p, 1])
        assert [str(h.curve) for h in hits] == ["x"]

    def test_denominator_divisible_by_p_falls_back_to_exact(self):
        # y' = y/p: y = 0 is invariant with cofactor 1/p, an entry the
        # first prime cannot map
        p = MODULAR_PRIMES[0]
        ps = make_plane(lambda x, y: x, lambda x, y: Fr(1, p) * y)
        got = search_constant_cofactor(ps, [], 3, [Fr(1, p)])
        want = exact_search(ps, [], 3, [Fr(1, p)])
        assert hit_keys(got) == hit_keys(want)
        assert [str(h.curve) for h in got] == ["y"]

    def test_no_candidate_search_is_empty(self):
        # at c = sqrt(2) the saddle eigenvalues (-sqrt(2) +- sqrt(6))/2 lie
        # in no single Q(sqrt(d)); the empty list then proves nothing
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
        # saddle candidates, all searched, and weights (1, 3/2) make every
        # cofactor constant
        hits = search_constant_cofactor(fisher_system(QuadExt(2)), [(1, 0), (0, 0)], 4)
        assert hits == [] and len(hits.candidates) == 3
        assert (hits.status, hits.notes) == ("proved-none", [SADDLE_NOTE])

    def test_no_candidate_at_sqrt2_is_undetermined(self):
        hits = search_constant_cofactor(fisher_system(QuadExt(0, 1, 2)), [(1, 0), (0, 0)], 4)
        assert hits == [] and hits.candidates == []
        assert hits.status == "undetermined"
        assert hits.notes == ["eigenvalues at (1, 0) are not exactly representable",
                              SADDLE_NOTE]

    def test_no_weights_is_undetermined(self):
        # the cubic system's curve y - x^2 + x has the cofactor x - 3, which
        # no constant candidate finds
        hits = search_constant_cofactor(cubic_system(), [(0, 0), (1, 0)], 4)
        assert hits == [] and hits.candidates == [QuadExt(1), QuadExt(-2), QuadExt(-1)]
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

    def test_no_point_is_undetermined(self):
        hits = search_constant_cofactor(fisher_system(QuadExt(2)), [], 2)
        assert (hits.status, hits.notes) == ("undetermined", ["no point was given"])

    def test_saddles_sharing_no_value_are_undetermined(self):
        # eigenvalues (-1 +- sqrt(13))/2 at (0, 0) and 1 +- sqrt(7) at (3, 0)
        ps = make_plane(lambda x, y: y, lambda x, y: x * (x - 1) * (x - 3) + x * y - y)
        hits = search_constant_cofactor(ps, [(0, 0), (3, 0)], 2)
        assert hits == [] and hits.candidates == []
        assert (hits.status, hits.notes) == (
            "undetermined", ["no cofactor value is allowed at every saddle"])


def reference_invariance_matrix(ps, cofactor, degree, required_points=()):
    """The invariance matrix over QuadExt, with one cofactor_residual
    product per column and one evaluation per point and basis monomial:
    the construction before integer rows, kept as the reference for
    invariance_matrix."""
    reg = ps.registry
    basis = monomial_basis([ps.x_var, ps.y_var], degree)
    resids = [cofactor_residual(ps, MultiPoly(reg, {m: QuadExt(1)}), cofactor)
              for m in basis]
    row_monos = sorted({mon for r in resids for mon in r.terms},
                       key=lambda m: grlex_key(m, len(reg)))
    rows = [[r.coeff(mon) for r in resids] for mon in row_monos]
    for pt in required_points:
        point = {ps.x_var: QuadExt.lift(pt[0]), ps.y_var: QuadExt.lift(pt[1])}
        rows.append([MultiPoly(reg, {m: QuadExt(1)}).evaluate(point) for m in basis])
    return basis, rows


@st.composite
def invariance_cases(draw):
    """A system, a cofactor, a degree bound from 0 and up to two required
    points with integer, fractional and sqrt(d) coordinates: criterion 09's
    planted systems, the Fisher plane system at a speed with a curve and at
    two without, the cubic system with the polynomial cofactor x - 3, and
    x' = x, y' = -a*y, whose residual of x^i y^j vanishes when k = i - a*j."""
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


def test_elimination_leaves_invariance_matrix_unchanged():
    ps = fisher_system(FRONT_SPEED)
    basis, rows = invariance_matrix(ps, QuadExt(0, -1, 6), 4, [(1, 0), (0, 0)])
    before = ([list(row) for row in rows], rows.d, list(rows.scales))
    assert independent_prefix_mod_p(rows, len(basis)) < len(basis)
    first = nullspace(rows, len(basis))
    assert first and nullspace(rows, len(basis)) == first
    assert ([list(row) for row in rows], rows.d, list(rows.scales)) == before


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
