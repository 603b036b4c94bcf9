"""Traveling-frame reduction, rest states, local spectra, real roots."""

import math
from fractions import Fraction as Fr
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from algwaves.pde import bind_params, parse_pde
from algwaves.poly import MultiPoly, VarRegistry
from algwaves.qfield import QuadExt, RadicandMismatchError, field_sqrt, rational_sqrt
from algwaves.reduction import (
    DegenerateSpeedError,
    EigenData,
    EquilibriumContinuumError,
    PlanarSystem,
    RealRoot,
    ReductionError,
    _deflate_desc,
    _eigvec,
    _eval_desc,
    _numeric_real_roots,
    _rational_root_candidates,
    equilibria,
    integer_jet,
    jacobian_eigen,
    real_univariate_roots,
    to_planar,
    travelling_wave_reduce,
)

C_FRONT = QuadExt(0, Fr(5, 6), 6)


class TestRealRoots:
    def test_quadratic_rational(self):
        roots, ok = real_univariate_roots([6, -5, 1])
        assert ok
        assert [(r.value, r.multiplicity) for r in roots] == [(2, 1), (3, 1)]

    def test_cubic_with_multiplicity(self):
        # (x - 1/2)^2 (x + 3)
        roots, ok = real_univariate_roots([Fr(3, 4), Fr(-11, 4), 2, 1])
        assert ok
        assert [(r.value, r.multiplicity) for r in roots] == [(-3, 1), (Fr(1, 2), 2)]

    def test_zero_root_deflation(self):
        roots, ok = real_univariate_roots([0, 0, -1, 1])  # x^2 (x - 1)
        assert ok
        assert [(r.value, r.multiplicity) for r in roots] == [(0, 2), (1, 1)]

    def test_irrational_quadratic(self):
        roots, ok = real_univariate_roots([-2, 0, 1])
        assert ok
        assert roots[0].value == QuadExt(0, -1, 2)
        assert roots[1].value == QuadExt(0, 1, 2)

    def test_double_root_in_extension(self):
        # (x - sqrt(2))^2 = x^2 - 2 sqrt(2) x + 2
        roots, ok = real_univariate_roots([2, QuadExt(0, -2, 2), 1])
        assert ok
        assert roots == [type(roots[0])(QuadExt(0, 1, 2), 2, True)]

    def test_extension_cubic_with_rational_root(self):
        # (x - 2)(x^2 - sqrt(2) x + 5): only the rational root is real
        s2 = QuadExt(0, 1, 2)
        coeffs = [QuadExt.lift(-10), QuadExt.lift(5) + 2 * s2, -(QuadExt.lift(2) + s2), QuadExt.lift(1)]
        roots, ok = real_univariate_roots(coeffs)
        assert ok
        assert [(r.value, r.multiplicity) for r in roots] == [(2, 1)]

    def test_no_real_roots(self):
        roots, ok = real_univariate_roots([1, 0, 1])
        assert ok and roots == []

    def test_numeric_fallback(self):
        roots, ok = real_univariate_roots([-1, -1, 0, 0, 0, 1])  # x^5 - x - 1
        assert not ok
        assert len(roots) == 1 and not roots[0].exact
        assert abs(roots[0].value - 1.1673039782614187) < 1e-9

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            real_univariate_roots([0, 0])

    def test_two_fields_go_numeric_after_zero_roots(self):
        # x (sqrt(2) x^2 - sqrt(3)): the zero root stays exact
        roots, ok = real_univariate_roots([0, QuadExt(0, -1, 3), 0, QuadExt(0, 1, 2)])
        assert not ok
        assert [r.exact for r in roots] == [False, True, False]
        assert roots[1].value == 0
        w = (3 / 2) ** 0.25
        assert [float(r.value) for r in roots] == pytest.approx([-w, 0, w], abs=1e-12)


def _fisher_system(c):
    spec = parse_pde("u_t = u_xx + u*(1-u)")
    return travelling_wave_reduce(spec).bind_speed(c)


class TestReduce:
    def test_burgers_rational_form(self):
        spec = parse_pde("u_t + u*u_x - a*u_xx = 0")
        sys_spec = travelling_wave_reduce(spec)
        reg = sys_spec.registry
        y1, y2 = (MultiPoly.var(reg, v) for v in sys_spec.y_vars)
        c = MultiPoly.var(reg, sys_spec.c_var)
        a = MultiPoly.var(reg, sys_spec.param_vars["a"])
        assert sys_spec.gc_num == (y1 - c) * y2
        assert sys_spec.gc_den == a
        assert sys_spec.unbound_params() == ["a"]
        assert sys_spec.exceptional_speeds == []
        with pytest.raises(ReductionError):
            sys_spec.gc()

    def test_fisher_companion(self):
        sys_spec = _fisher_system(c=C_FRONT)
        reg = sys_spec.registry
        y1, y2 = (MultiPoly.var(reg, v) for v in sys_spec.y_vars)
        cval = QuadExt(0, Fr(5, 6), 6)
        assert sys_spec.gc() == y1 * y1 - y1 - cval * y2
        assert sys_spec.c == cval

    def test_second_time_derivative_brings_speed_into_denominator(self):
        spec = parse_pde("u_tt - u_xx - u*u_x = 0")
        sys_spec = travelling_wave_reduce(spec)
        reg = sys_spec.registry
        c = MultiPoly.var(reg, sys_spec.c_var)
        y1, y2 = (MultiPoly.var(reg, v) for v in sys_spec.y_vars)
        assert sys_spec.gc_den == c * c - 1
        assert sys_spec.gc_num == y1 * y2
        vals = sorted(float(r.value) for r in sys_spec.exceptional_speeds)
        assert vals == [-1.0, 1.0]
        assert all(r.exact for r in sys_spec.exceptional_speeds)
        with pytest.raises(DegenerateSpeedError):
            sys_spec.bind_speed(1)
        bound = sys_spec.bind_speed(2)
        assert bound.gc() == y1 * y2 * Fr(1, 3)

    @pytest.mark.parametrize("pde,c,unit", [
        ("u_t - u_xx - u + u^2 = 0", C_FRONT, True),
        ("u_t - u_xx - 2*u*(u-1/4)*(1-u) = 0", Fr(1, 2), True),
        ("u_t - 2*u_xx - u + u^2 = 0", 3, True),
        ("u_tt - u_xx - u*u_x + u^3 = 0", 2, False),
        ("u_tt - u_xx - u*u_x + u^3 = 0", QuadExt(1, 1, 2), False),
    ])
    def test_unit_denominator_skips_the_rescaling(self, pde, c, unit):
        # the terms and their order are those of scaling by 1/den, as
        # before; compile_float sums terms in this order
        sys_spec = travelling_wave_reduce(parse_pde(pde))
        cval = QuadExt.lift(c)
        num = sys_spec.gc_num.substitute({sys_spec.c_var: cval})
        den = sys_spec.gc_den.substitute({sys_spec.c_var: cval}).constant_value()
        num = num * den.inverse()
        with mock.patch.object(QuadExt, "inverse", autospec=True,
                               side_effect=QuadExt.inverse) as inverse:
            bound = sys_spec.bind_speed(c)
            g = bound.gc()
        assert (den == 1) is unit
        assert inverse.call_count == (0 if unit else 1)
        assert list(bound.gc_num.terms.items()) == list(num.terms.items())
        assert list(g.terms.items()) == list((num * QuadExt(1)).terms.items())

    @pytest.mark.parametrize("c", [2, Fr(-7, 3), QuadExt(0, 1, 21), C_FRONT])
    def test_binding_a_speed_multiplies_no_polynomials(self, c, monkeypatch):
        # every binding here is one term: the speed, or y1 -> x and y2 -> y
        sys_spec = travelling_wave_reduce(parse_pde("u_t - u_xx - u + u^2 = 0"))
        poly_products, unit_factors = [], []
        quad_mul = QuadExt.__mul__

        def spy_quad(a, b):
            if QuadExt.lift(a) == 1 or QuadExt.lift(b) == 1:
                unit_factors.append((a, b))
            return quad_mul(a, b)

        monkeypatch.setattr(MultiPoly, "__mul__", lambda a, b: poly_products.append(1))
        monkeypatch.setattr(QuadExt, "__mul__", spy_quad)
        ps = to_planar(sys_spec.bind_speed(c))
        monkeypatch.undo()
        assert poly_products == [] and unit_factors == []
        x, y = MultiPoly.var(ps.registry, "x"), MultiPoly.var(ps.registry, "y")
        assert ps.Q == x * x - x - QuadExt.lift(c) * y

    def test_mixed_derivative_speed_factor(self):
        spec = parse_pde("u_xt + u_x + u = 0")
        sys_spec = travelling_wave_reduce(spec)
        assert [float(r.value) for r in sys_spec.exceptional_speeds] == [0.0]
        with pytest.raises(DegenerateSpeedError):
            sys_spec.bind_speed(0)

    def test_state_dependent_lead_divides_out(self):
        spec = parse_pde("u*u_xx - u*u_x = 0")
        sys_spec = travelling_wave_reduce(spec).bind_speed(1)
        reg = sys_spec.registry
        y2 = MultiPoly.var(reg, sys_spec.y_vars[1])
        assert sys_spec.gc() == y2

    def test_state_dependent_lead_failure(self):
        spec = parse_pde("u*u_xx - u_x = 0")
        with pytest.raises(ReductionError):
            travelling_wave_reduce(spec)

    def test_nonlinear_in_top_rejected(self):
        spec = parse_pde("u_xx^2 - u = 0")
        with pytest.raises(ReductionError):
            travelling_wave_reduce(spec)

    def test_speed_name_collision(self):
        spec = parse_pde("u_t - c*u_xx = 0")
        with pytest.raises(ReductionError, match="collides with the speed symbol"):
            travelling_wave_reduce(spec)

    def test_third_order(self):
        spec = parse_pde("u_t - u_xxx - u + u^2 = 0")
        sys_spec = travelling_wave_reduce(spec).bind_speed(2)
        assert sys_spec.n == 3
        eqs = equilibria(sys_spec)
        assert [e.point for e in eqs] == [
            (QuadExt(0), QuadExt(0), QuadExt(0)),
            (QuadExt(1), QuadExt(0), QuadExt(0)),
        ]


class TestEquilibria:
    def test_fisher_rest_states(self):
        eqs = equilibria(_fisher_system(c=C_FRONT))
        assert [(e.x, e.y) for e in eqs] == [(0, 0), (1, 0)]
        assert all(e.exact and e.multiplicity == 1 for e in eqs)

    def test_burgers_continuum(self):
        spec = bind_params(parse_pde("u_t + u*u_x - a*u_xx = 0"), {"a": 1})
        sys_spec = travelling_wave_reduce(spec).bind_speed(1)
        with pytest.raises(EquilibriumContinuumError):
            equilibria(sys_spec)


class TestPlanar:
    def test_to_planar(self):
        ps = to_planar(_fisher_system(c=C_FRONT))
        reg = ps.registry
        x = MultiPoly.var(reg, ps.x_var)
        y = MultiPoly.var(reg, ps.y_var)
        c = QuadExt(0, Fr(5, 6), 6)
        assert ps.P == y
        assert ps.Q == x * x - x - c * y


class TestSpectra:
    def test_fisher_saddle(self):
        ps = to_planar(_fisher_system(c=C_FRONT))
        ed = jacobian_eigen(ps, (1, 0))
        assert ed.is_saddle and ed.exact and not ed.is_degenerate
        assert ed.det == -1
        assert ed.disc == Fr(49, 6)
        assert ed.eigenvalues[0] == QuadExt(0, Fr(1, 6), 6)
        assert ed.eigenvalues[1] == QuadExt(0, -1, 6)

    def test_fisher_stable_node(self):
        ps = to_planar(_fisher_system(c=C_FRONT))
        ed = jacobian_eigen(ps, (0, 0))
        assert not ed.is_saddle and ed.exact
        assert ed.det == 1
        assert ed.eigenvalues[0] == QuadExt(0, Fr(-1, 3), 6)
        assert ed.eigenvalues[1] == QuadExt(0, Fr(-1, 2), 6)

    def test_eigenvector_direction(self):
        ps = to_planar(_fisher_system(c=C_FRONT))
        ed = jacobian_eigen(ps, (1, 0))
        for lam, vec in zip(ed.eigenvalues, ed.eigenvectors):
            # J v = lam v with J = [[0, 1], [1, -c]]
            c = QuadExt(0, Fr(5, 6), 6)
            v1, v2 = vec
            assert v2 == lam * v1
            assert v1 - c * v2 == lam * v2

    def test_complex_pair_falls_back(self):
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        ps = PlanarSystem.from_polys(-y, x)  # center
        ed = jacobian_eigen(ps, (0, 0))
        assert not ed.exact and not ed.is_saddle
        assert ed.eigenvalues[0] == pytest.approx(1j)

    def test_degenerate_flag(self):
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        ps = PlanarSystem.from_polys(x, x + y * 0)
        ed = jacobian_eigen(ps, (0, 0))
        assert ed.is_degenerate and not ed.is_saddle


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.builds(Fr, st.integers(min_value=-50, max_value=50),
                  st.integers(min_value=1, max_value=6)),
        min_size=1,
        max_size=4,
    )
)
def test_roots_recovered_from_factored_form(root_list):
    reg = VarRegistry(["x"])
    x = MultiPoly.var(reg, "x")
    poly = MultiPoly.one(reg)
    for r in root_list:
        poly = poly * (x - r)
    coeffs = [p.constant_value() for p in poly.as_univariate(reg.id_of("x"))]
    roots, ok = real_univariate_roots(coeffs)
    assert ok
    got = sorted(
        [float(r.value) for r in roots for _ in range(r.multiplicity)]
    )
    want = sorted(float(r) for r in root_list)
    assert got == pytest.approx(want)


# -- references: root finding before the field of a root was chosen in qfield


def reference_field_sqrt(x):
    """qfield.field_sqrt as it was: a root in x's own field only."""
    x = QuadExt.lift(x)
    if x.b == 0:
        if x.a < 0:
            return None
        s = rational_sqrt(x.a)
        return None if s is None else QuadExt(s)
    norm = x.a * x.a - x.d * x.b * x.b
    t = rational_sqrt(norm)
    if t is None:
        return None
    for sgn in (1, -1):
        p2 = (x.a + sgn * t) / 2
        p = rational_sqrt(p2)
        if p is None or p == 0:
            continue
        q = x.b / (2 * p)
        cand = QuadExt(p, q, x.d)
        if cand * cand == x:
            return cand
        cand = QuadExt(-p, -q, x.d)
        if cand * cand == x:
            return cand
    return None


def reference_exact_sqrt(x):
    if x.is_rational():
        return field_sqrt(x)
    return reference_field_sqrt(x)


def reference_rational_root_candidates(coeffs):
    """Every +-p/q with p dividing the constant and q the leading
    coefficient of the integer multiple, sorted: the enumeration before
    _rational_root_candidates filtered the pairs, kept as its reference."""
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    lead, const = ints[0], ints[-1]
    if const == 0 or lead == 0 or abs(const) > 10**9 or abs(lead) > 10**9:
        return []
    divisors = [[i for i in range(1, abs(n) + 1) if n % i == 0] for n in (const, lead)]
    return sorted({Fr(s * p, q) for p in divisors[0] for q in divisors[1] for s in (1, -1)})


def reference_real_univariate_roots(coeffs_ascending):
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
    found = []
    if zero_mult:
        found.append((QuadExt.lift(0), zero_mult))
    all_exact = True
    numeric = []
    while len(desc) > 1:
        deg = len(desc) - 1
        if deg == 1:
            found.append((-desc[1] / desc[0], 1))
            desc = desc[:1]
            continue
        if deg == 2:
            a, b, c = desc
            disc = b * b - 4 * a * c
            if disc.sign() < 0:
                break
            s = reference_exact_sqrt(disc)
            if s is not None:
                r1 = (-b + s) / (2 * a)
                r2 = (-b - s) / (2 * a)
                if r1 == r2:
                    found.append((r1, 2))
                else:
                    found.append((r1, 1))
                    found.append((r2, 1))
                desc = desc[:1]
                continue
            all_exact = False
            sd = math.sqrt(float(disc))
            numeric.append(RealRoot((-float(b) + sd) / (2 * float(a)), 1, False))
            numeric.append(RealRoot((-float(b) - sd) / (2 * float(a)), 1, False))
            break
        if all(c.is_rational() for c in desc):
            cands = reference_rational_root_candidates([c.rational_part for c in desc])
        else:
            fa = [c.rational_part for c in desc]
            fb = [c.radical_part for c in desc]
            base = fa if (any(fa) and fa[-1] != 0) else fb
            cands = reference_rational_root_candidates(base)
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
    merged = {}
    order = []
    for v, m in found:
        if v in merged:
            merged[v] += m
        else:
            merged[v] = m
            order.append(v)
    exact_roots = [RealRoot(v, merged[v], True) for v in order]
    return sorted(exact_roots + numeric, key=float), all_exact


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-40, max_value=40), min_size=2, max_size=7)
       .filter(lambda cs: cs[-1] != 0),
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4), max_size=3))
def test_rational_roots_match_enumeration(coeffs, planted):
    # small integer coefficients, times linear factors with planted
    # rational roots (so that repeated roots occur)
    for r in planted:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    desc = [Fr(c) for c in reversed(coeffs)]
    want = [r for r in reference_rational_root_candidates(desc)
            if _eval_desc([QuadExt.lift(c) for c in desc], r).is_zero()]
    assert _rational_root_candidates(desc) == want
    assert real_univariate_roots(coeffs) == reference_real_univariate_roots(coeffs)


@pytest.mark.parametrize("factors,want", [
    # (2x - 1)(3x - 1)(735134400 x^2 + x + 735134400): leading 4.4e9
    ([[2, -1], [3, -1], [735134400, 1, 735134400]], [Fr(1, 3), Fr(1, 2)]),
    # (7x + 3)(10^10 x^2 - 2): the real roots +-sqrt(2) 10^-5 are irrational
    ([[7, 3], [10**10, 0, -2]], [Fr(-3, 7)]),
    # 3 (10^10 x^3 + x + 1) has no rational root: the convergents of its
    # one real root whose denominators divide 3 10^10 fail the exact check
    ([[3 * 10**10, 0, 3, 3]], []),
])
def test_rational_roots_above_a_billion_come_from_numeric_roots(factors, want):
    desc = [1]
    for f in factors:
        desc = [sum(desc[i] * f[k - i] for i in range(len(desc)) if 0 <= k - i < len(f))
                for k in range(len(desc) + len(f) - 1)]
    assert max(abs(desc[0]), abs(desc[-1])) > 10**9
    assert _rational_root_candidates([Fr(c) for c in desc]) == want


def reference_jacobian_eigen(ps, point):
    """The spectral data from the partial derivatives of P and Q, each
    evaluated at the point over QuadExt: the linearization before the
    integer pass, kept as the reference for jacobian_eigen."""
    pt = {ps.x_var: QuadExt.lift(point[0]), ps.y_var: QuadExt.lift(point[1])}
    (j11, j12), (j21, j22) = [[f.partial_derivative(v).evaluate(pt)
                               for v in (ps.x_var, ps.y_var)] for f in (ps.P, ps.Q)]
    tr = j11 + j22
    det = j11 * j22 - j12 * j21
    disc = tr * tr - 4 * det
    saddle = det.sign() < 0
    degenerate = det.is_zero()
    s = None
    if disc.sign() >= 0:
        # a rational disc may have its root in a field of the entries, found
        # there without a squarefree part, which trial division can miss
        fields = sorted({j.d for j in (j11, j12, j21, j22)}) if disc.is_rational() else []
        roots = [r for e in fields if (r := field_sqrt(disc, e)) is not None]
        s = roots[0] if roots else reference_exact_sqrt(disc)
    if s is not None:
        try:
            lp = (tr + s) / 2
            lm = (tr - s) / 2
            vecs = (_eigvec(j11, j12, j21, j22, lp), _eigvec(j11, j12, j21, j22, lm))
            return EigenData(det, disc, saddle, degenerate, True, (lp, lm), vecs)
        except ArithmeticError:
            pass
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

    return EigenData(det, disc, saddle, degenerate, False, (lp, lm), (fvec(lp), fvec(lm)))


# -- differential checks against the references


RATS = st.builds(Fr, st.integers(-6, 6), st.integers(1, 4))
RADICANDS = st.sampled_from((1, 2, 3, 5, 6))


def _times(p, q):
    out = [QuadExt(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


@st.composite
def field_polynomials(draw):
    """Ascending coefficients of a quadratic or cubic over Q(sqrt(d))."""
    d = draw(RADICANDS)
    elt = st.builds(lambda a, b: QuadExt(a, b, d), RATS, RATS)
    nonzero = elt.filter(bool)
    kind = draw(st.sampled_from(("random", "factored", "double", "radical-middle")))
    if kind == "random":
        quad = [draw(elt), draw(elt), draw(nonzero)]
    elif kind == "factored":  # (x - r)(x - s), r and s in Q(sqrt(d))
        quad = _times([-draw(elt), QuadExt(1)], [-draw(elt), QuadExt(1)])
    elif kind == "double":
        r = draw(elt)
        quad = _times([-r, QuadExt(1)], [-r, QuadExt(1)])
    else:
        # a*x^2 + b*sqrt(d)*x + c with a, b, c rational: the discriminant is
        # rational, so its root is often in another field than sqrt(d)
        quad = [QuadExt(draw(RATS)), QuadExt(0, draw(RATS), d),
                QuadExt(draw(RATS.filter(bool)))]
    if draw(st.booleans()):  # a cubic: times a rational linear factor
        quad = _times(quad, [QuadExt(-draw(RATS)), QuadExt(draw(RATS.filter(bool)))])
    return quad


@settings(max_examples=300, deadline=None)
@given(field_polynomials())
@example([QuadExt(-1), QuadExt(0, -1, 2), QuadExt(1)])  # roots (sqrt(2) +- sqrt(6))/2
@example(_times([QuadExt(-1), QuadExt(0, -1, 2), QuadExt(1)], [QuadExt(-3), QuadExt(2)]))
def test_real_roots_match_reference(coeffs):
    got = real_univariate_roots(coeffs)
    try:
        want = reference_real_univariate_roots(coeffs)
    except RadicandMismatchError:
        roots, ok = got
        assert not ok and any(not r.exact for r in roots)
        desc = [float(c) for c in reversed(coeffs)]
        real = sorted(z.real for z in np.roots(desc) if abs(z.imag) < 1e-9)
        values = sorted(float(r) for r in roots for _ in range(r.multiplicity))
        assert len(values) == len(real)
        for v, w in zip(values, real):
            assert abs(v - w) <= 1e-9 * (1 + abs(w))
        return
    assert got == want


@st.composite
def repeated_factor_polynomials(draw):
    """(ascending coefficients, planted roots): a product of squared
    rational quadratics, each with the real roots s +- t*sqrt(d), and of
    linear factors with rational roots to the power 1 to 3.  planted maps
    each root, a QuadExt, to its multiplicity."""
    quads = draw(st.lists(st.tuples(RATS, RATS.filter(lambda t: t > 0), RADICANDS.filter(
        lambda d: d > 1)), max_size=2, unique=True))
    linear = draw(st.dictionaries(RATS, st.integers(1, 3), max_size=3))
    poly, planted = [QuadExt(draw(RATS.filter(bool)))], {}
    for s, t, d in quads:
        quad = [QuadExt(s * s - t * t * d), QuadExt(-2 * s), QuadExt(1)]
        poly = _times(poly, _times(quad, quad))
        planted.update({QuadExt(s, t, d): 2, QuadExt(s, -t, d): 2})
    for r, m in linear.items():
        for _ in range(m):
            poly = _times(poly, [QuadExt(-r), QuadExt(1)])
        planted[QuadExt(r)] = m
    return poly, planted


@settings(max_examples=200, deadline=None)
@given(repeated_factor_polynomials())
@example(([QuadExt(4), 0, QuadExt(-4), 0, QuadExt(1)],  # (x^2 - 2)^2
          {QuadExt(0, 1, 2): 2, QuadExt(0, -1, 2): 2}))
def test_repeated_factors_keep_their_roots(case):
    coeffs, planted = case
    roots, ok = real_univariate_roots(coeffs)
    want = sorted(planted.items(), key=lambda item: float(item[0]))
    assert [r.multiplicity for r in roots] == [m for _, m in want]
    for r, (v, _) in zip(roots, want):
        assert r.value == v if r.exact else abs(r.value - float(v)) <= 1e-9 * (1 + abs(float(v)))
    # one squared quadratic is found exactly; two share a squarefree part,
    # a quartic that the numeric fallback solves
    assert ok == (sum(not v.is_rational() for v in planted) <= 2)


@st.composite
def linear_plane_fields(draw):
    d = draw(RADICANDS)
    elt = st.one_of(RATS, st.builds(lambda a, b: QuadExt(a, b, d), RATS, RATS))
    reg = VarRegistry(["x", "y"])
    x, y = MultiPoly.var(reg, "x"), MultiPoly.var(reg, "y")
    a11, a12, a21, a22 = (draw(elt) for _ in range(4))
    if draw(st.booleans()):
        # irrational entries with rational tr and det: their eigenvalues
        # often lie in another field than the entries
        a12, a21 = draw(RATS), draw(RATS)
        a22 = 2 * QuadExt.lift(a11).a - a11
    P = a11 * x + a12 * y + draw(RATS)
    Q = a21 * x + a22 * y + draw(RATS) * x * x
    point = (draw(RATS), draw(RATS))
    return PlanarSystem.from_polys(P, Q), point


def _plane(a11, a12, a21, a22):
    reg = VarRegistry(["x", "y"])
    x, y = MultiPoly.var(reg, "x"), MultiPoly.var(reg, "y")
    return PlanarSystem.from_polys(a11 * x + a12 * y, a21 * x + a22 * y)


@st.composite
def jets(draw):
    """A plane system with terms up to x^4 y^4 and a point, coefficients and
    coordinates in Q or one Q(sqrt(d))."""
    d = draw(RADICANDS)
    elt = st.one_of(RATS, st.builds(lambda a, b: QuadExt(a, b, d), RATS, RATS))
    reg = VarRegistry(["x", "y"])
    x, y = MultiPoly.var(reg, "x"), MultiPoly.var(reg, "y")

    def poly():
        f = MultiPoly.zero(reg)
        for i, j, c in draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), elt),
                                     max_size=5)):
            f = f + c * x**i * y**j
        return f

    return PlanarSystem.from_polys(poly(), poly()), (draw(elt), draw(elt))


@settings(max_examples=100, deadline=None)
@given(jets())
def test_integer_jet_matches_evaluation(case):
    ps, point = case
    d, s, jet = integer_jet(ps, point)
    pt = {ps.x_var: QuadExt.lift(point[0]), ps.y_var: QuadExt.lift(point[1])}
    for f, values in zip((ps.P, ps.Q), jet):
        want = [f.evaluate(pt)] + [f.partial_derivative(v).evaluate(pt)
                                   for v in (ps.x_var, ps.y_var)]
        assert [QuadExt(Fr(a, s), Fr(b, s), d) for a, b in values] == want


def _mixed_plane():
    reg = VarRegistry(["x", "y"])
    x, y = MultiPoly.var(reg, "x"), MultiPoly.var(reg, "y")
    return PlanarSystem.from_polys(y + QuadExt(0, 1, 2) * x * x,
                                   x - y + QuadExt(0, 1, 3) * x * y)


def _mixed_entries():
    # Jacobian [[sqrt(2), sqrt(3)], [sqrt(3)/2, 0]]: its entries mix
    # radicands, but tr = sqrt(2) and det = -3/2 give the exact eigenvalues
    # (sqrt(2) +- 2 sqrt(2))/2, in the field of the diagonal entry
    return _plane(QuadExt(0, 1, 2), QuadExt(0, 1, 3), QuadExt(0, Fr(1, 2), 3), 0)


@settings(max_examples=200, deadline=None)
@given(linear_plane_fields())
# entries in Q(sqrt(2)), eigenvalues 1 +- sqrt(3)
@example((_plane(QuadExt(1, 1, 2), 1, 1, QuadExt(1, -1, 2)), (0, 0)))
# P in Q(sqrt(2)) and Q in Q(sqrt(3)), rational entries at the origin
@example((_mixed_plane(), (0, 0)))
@example((_mixed_entries(), (0, 0)))
# entries in Q(sqrt(5)) and Q(sqrt(2)): the determinant -sqrt(5) - sqrt(2)
# lies in no single field
@example((_plane(QuadExt(0, 1, 5), QuadExt(0, 1, 2), 1, -1), (0, 0)))
def test_jacobian_eigen_matches_reference(case):
    ps, point = case
    got = jacobian_eigen(ps, point)
    try:
        want = reference_jacobian_eigen(ps, point)
    except RadicandMismatchError:
        # the one change: with no exact Jacobian, trace or determinant the
        # reference raised, and jacobian_eigen gives float data
        assert not got.exact and isinstance(got.det, float)
        order, at = (ps.x_var, ps.y_var), [float(QuadExt.lift(c)) for c in point]
        jac = [[f.partial_derivative(v).compile_float(order)(*at) for v in order]
               for f in (ps.P, ps.Q)]
        assert got.det == pytest.approx(np.linalg.det(jac))
        assert sorted(got.eigenvalues, key=abs) == pytest.approx(
            sorted(np.linalg.eigvals(jac), key=abs))
        return
    assert got == want
