"""Invariant curve solver: fixed cofactors, saddle candidates, screening."""

from fractions import Fraction as Fr
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from algwaves.darboux import (
    cofactor_residual,
    eigenvalue_cofactor_candidates,
    irreducibility_screen,
    monomial_basis,
    poly_square_root,
    search_constant_cofactor,
    solve_fixed_cofactor,
)
from algwaves import darboux
from algwaves.linalg import MODULAR_PRIMES, in_row_span
from algwaves.poly import MultiPoly, VarRegistry
from algwaves.qfield import QuadExt


def make_plane(P_builder, Q_builder):
    from algwaves.reduction import PlanarSystem

    reg = VarRegistry(["x", "y"])
    x = MultiPoly.var(reg, "x")
    y = MultiPoly.var(reg, "y")
    return PlanarSystem(reg, 0, 1, P_builder(x, y), Q_builder(x, y))


def front_system(c):
    # x' = -y, y' = -x - c y + x^2
    return make_plane(lambda x, y: -y, lambda x, y: x * x - x * 0 - x - c * y)


FRONT_SPEED = QuadExt(0, Fr(5, 6), 6)


def front_curve(ps):
    reg = ps.registry
    x = MultiPoly.var(reg, "x")
    y = MultiPoly.var(reg, "y")
    r23 = QuadExt(0, Fr(2, 3), 6)  # (2/3) sqrt(6)
    return (
        y * y
        + r23 * y
        - r23 * (x * y)
        + Fr(2, 3) * x
        - Fr(4, 3) * (x * x)
        + Fr(2, 3) * (x**3)
    )


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
        ps = front_system(FRONT_SPEED)
        f = front_curve(ps)
        k = QuadExt(0, -1, 6)
        assert cofactor_residual(ps, f, k).is_zero

    def test_fixed_cofactor_solve_recovers_curve(self):
        ps = front_system(FRONT_SPEED)
        res = solve_fixed_cofactor(
            ps, QuadExt(0, -1, 6), 3, required_points=[(0, 0), (1, 0)]
        )
        assert res is not None
        assert res.nullspace_dim == 1
        assert res.curve == front_curve(ps)

    def test_eigenvalue_candidates(self):
        ps = front_system(FRONT_SPEED)
        cands, notes = eigenvalue_cofactor_candidates(ps, [(0, 0), (1, 0)])
        assert cands == [
            QuadExt(0, Fr(1, 6), 6),
            QuadExt(0, -1, 6),
            QuadExt(0, Fr(-5, 6), 6),
        ]
        assert any("(1, 0)" in n for n in notes)

    def test_search_finds_exactly_one_curve(self):
        ps = front_system(FRONT_SPEED)
        hits = search_constant_cofactor(ps, [(0, 0), (1, 0)], 3)
        assert len(hits) == 1
        assert hits[0].curve == front_curve(ps)
        assert hits[0].cofactor == QuadExt(0, -1, 6)
        assert hits[0].degree == 3

    def test_search_empty_at_generic_speed(self):
        ps = front_system(QuadExt(2))
        hits = search_constant_cofactor(ps, [(0, 0), (1, 0)], 4)
        assert hits == []

    def test_non_equilibrium_rejected(self):
        ps = front_system(FRONT_SPEED)
        with pytest.raises(ValueError):
            search_constant_cofactor(ps, [(2, 0)], 2)


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
    return [(str(h.curve), str(h.cofactor), h.degree, h.nullspace_dim, h.notes)
            for h in hits]


@settings(max_examples=20, deadline=None)
@given(
    wc=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
                min_size=1, max_size=4),
    pc=st.lists(st.integers(min_value=-2, max_value=2), min_size=6, max_size=6),
    knum=st.integers(min_value=-4, max_value=4).filter(lambda k: k != 0),
    kden=st.integers(min_value=1, max_value=2),
    shift=st.integers(min_value=-2, max_value=2),
)
def test_certified_search_matches_exact_loop(wc, pc, knum, kden, shift):
    # criterion 09's planted systems: f* = y + w(x) is invariant with
    # cofactor k; the candidate list also holds a shifted cofactor
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
    k = Fr(knum, kden)
    Q = k * fstar - P * w.partial_derivative(0)
    from algwaves.reduction import PlanarSystem

    ps = PlanarSystem(reg, 0, 1, P, Q)
    cands = [k, k + shift] if shift else [k]
    top = max(fstar.degree(), 1)
    got = search_constant_cofactor(ps, [], top, cands)
    assert hit_keys(got) == hit_keys(exact_search(ps, [], top, cands))
    assert any(h.cofactor == k for h in got)


class TestCertificateFallback:
    def test_certified_front_search_matches_exact_loop(self):
        for c in (FRONT_SPEED, QuadExt(2)):
            ps = front_system(c)
            got = search_constant_cofactor(ps, [(0, 0), (1, 0)], 4)
            want = exact_search(ps, [(0, 0), (1, 0)], 4)
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
        ps = front_system(QuadExt(0, 1, 2))
        cands, notes = eigenvalue_cofactor_candidates(ps, [(0, 0), (1, 0)])
        assert cands == []
        assert any("not exactly representable" in n for n in notes)
