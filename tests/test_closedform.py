"""Expression trees, exp-rational elimination, explicit front families."""

import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from algwaves.closedform import (
    Cn,
    Const,
    Cosh,
    Dn,
    Exp,
    ExpRational,
    IntPow,
    RatPow,
    Sn,
    Sym,
    Tanh,
    exp_rational_membership,
    p_from_exp_rational,
    solve_logistic,
    solve_power_logistic,
)
from algwaves.qfield import QuadExt, squarefree_decompose

S = Sym("s")

rationals = st.builds(Fr, st.integers(min_value=-30, max_value=30),
                      st.integers(min_value=1, max_value=8))


def d_at(expr, s0):
    return expr.diff("s").evaluate({"s": s0})


def richardson_derivative(fn, x, h=1e-5):
    """Central difference with one Richardson extrapolation step: the
    numerical reference the exact derivatives are checked against."""
    d1 = (fn(x + h) - fn(x - h)) / (2 * h)
    d2 = (fn(x + h / 2) - fn(x - h / 2)) / h
    return (4 * d2 - d1) / 3


def numeric_d(expr, s0):
    return richardson_derivative(lambda t: expr.evaluate({"s": t}), s0)


class TestAst:
    def test_constant_folding(self):
        e = Const(2) * Const(3) + Const(0)
        assert isinstance(e, Const) and float(e.value) == 6.0
        assert (S + 0) is S
        assert (S * 1) is S

    def test_evaluate_basic(self):
        e = Const(2) * Tanh(S) + Exp(Const(Fr(1, 2)) * S)
        got = e.evaluate({"s": 0.7})
        assert got == pytest.approx(2 * math.tanh(0.7) + math.exp(0.35))

    def test_diff_tanh_chain(self):
        e = Tanh(Const(2) * S)
        want = 2 * (1 - math.tanh(1.2) ** 2)
        assert d_at(e, 0.6) == pytest.approx(want, abs=1e-12)

    def test_diff_cosh_uses_tanh(self):
        e = Cosh(S)
        assert d_at(e, 0.3) == pytest.approx(math.sinh(0.3), abs=1e-12)

    def test_negative_int_pow(self):
        e = IntPow(Const(1) + Exp(S), -2)
        assert d_at(e, 0.2) == pytest.approx(numeric_d(e, 0.2), abs=1e-8)

    def test_rat_pow(self):
        e = RatPow(Const(1) + Exp(S), Fr(-1, 3))
        assert e.evaluate({"s": 0.0}) == pytest.approx(2 ** (-1 / 3))
        assert d_at(e, 0.4) == pytest.approx(numeric_d(e, 0.4), abs=1e-8)

    def test_sqrt_helper(self):
        e = RatPow(Const(2) + S, Fr(1, 2))
        assert e.evaluate({"s": 2.0}) == pytest.approx(2.0)

    def test_missing_symbol_raises(self):
        with pytest.raises(KeyError):
            S.evaluate({})

    @pytest.mark.parametrize("node,ident", [
        (Sn, lambda s, c, d, m: c * d),
        (Cn, lambda s, c, d, m: -s * d),
        (Dn, lambda s, c, d, m: -m * s * c),
    ])
    def test_elliptic_derivatives(self, node, ident):
        from algwaves.numerics import jacobi_elliptic

        m = 0.7
        e = node(S, m)
        for s0 in (-1.3, 0.4, 2.1):
            sn, cn, dn = jacobi_elliptic(s0, m)
            assert d_at(e, s0) == pytest.approx(ident(sn, cn, dn, m), abs=1e-10)

    def test_fourth_derivative_matches_numeric(self):
        e = Const(3) * IntPow(Tanh(Const(Fr(1, 2)) * S), 2)
        d3 = e.diff("s").diff("s").diff("s")
        assert d3.diff("s").evaluate({"s": 0.3}) == pytest.approx(
            numeric_d(d3, 0.3), abs=1e-6)


class TestExpRational:
    def test_normalize_exponent_gcd(self):
        er = ExpRational([QuadExt(2)], [QuadExt(1), QuadExt(0), QuadExt(1)],
                         QuadExt(Fr(1, 2)))
        nr = er.normalized()
        assert [str(c) for c in nr.q2] == ["1", "1"]
        assert nr.lam == QuadExt(1)

    def test_normalize_common_z_power(self):
        er = ExpRational([0, 0, 1], [0, 1, 2], QuadExt(1))
        nr = er.normalized()
        assert [str(c) for c in nr.q1] == ["0", "1"]
        assert [str(c) for c in nr.q2] == ["1", "2"]

    def test_burgers_relation(self):
        # profile 2c/(1 + e^{c s / a}) written with doubled exponents
        a, c = QuadExt(1), QuadExt(1)
        er = ExpRational([2 * c], [QuadExt(1), QuadExt(0), QuadExt(1)],
                         c / (2 * a))
        rel = p_from_exp_rational(er)
        # without the gcd reduction the resultant squares the relation
        assert rel.p.degree_in(rel.du_var) == 1
        assert str(rel.p) == "u^2 - 2*u - 2*du"

    def test_fisher_relation(self):
        lam = QuadExt(0, Fr(1, 6), 6)
        er = ExpRational([QuadExt(1)], [QuadExt(1), QuadExt(2), QuadExt(1)], lam)
        rel = p_from_exp_rational(er)
        expect = {"u^3": QuadExt(1), "u^2": QuadExt(-1),
                  "u*du": QuadExt(0, -1, 6), "du^2": QuadExt(Fr(-3, 2))}
        got = {}
        for m, coeff in rel.p.terms.items():
            got[rel.p._mono_str(m)] = coeff
        assert got == expect

    def test_membership_identity(self):
        lam = QuadExt(0, Fr(1, 6), 6)
        er = ExpRational([QuadExt(1)], [QuadExt(1), QuadExt(2), QuadExt(1)], lam)
        rel = p_from_exp_rational(er)
        assert exp_rational_membership(er, rel).is_zero

    def test_profile_eval_matches_relation(self):
        er = ExpRational([QuadExt(2)], [QuadExt(1), QuadExt(0), QuadExt(1)],
                         QuadExt(Fr(1, 2)))
        rel = p_from_exp_rational(er)
        z = Exp(Const(er.lam) * S)

        def horner(coeffs):
            acc = Const(0)
            for c in reversed(coeffs):
                acc = acc * z + Const(c)
            return acc

        prof = horner(er.q1) / horner(er.q2)
        dprof = prof.diff("s")
        for s0 in (-3.0, 0.0, 1.7):
            u = prof.evaluate({"s": s0})
            du = dprof.evaluate({"s": s0})
            assert rel.residual_at(u, du) == pytest.approx(0.0, abs=1e-12)

    def test_constant_profile_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            p_from_exp_rational(ExpRational([QuadExt(3)], [QuadExt(1)], QuadExt(1)))

    def test_shared_factor_rejected(self):
        er = ExpRational([QuadExt(1), QuadExt(1)],
                         [QuadExt(1), QuadExt(2), QuadExt(1)], QuadExt(1))
        with pytest.raises(ValueError, match="share"):
            p_from_exp_rational(er)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            ExpRational([QuadExt(1)], [QuadExt(0)], QuadExt(1)).normalized()


class TestLogistic:
    def test_nagumo_shape(self):
        w = solve_logistic(1, 0, 1)
        assert [str(b) for b in w.boundary] == ["1", "0"]
        d = w.expr.diff("s")
        for s0 in (-2.0, 0.0, 3.0):
            u = w.expr.evaluate({"s": s0})
            du = d.evaluate({"s": s0})
            assert du == pytest.approx(u * (u - 1), abs=1e-12)

    def test_orientation_flips_with_sign(self):
        w = solve_logistic(-1, 0, 1)
        assert [str(b) for b in w.boundary] == ["0", "1"]

    def test_equal_rest_values_rejected(self):
        with pytest.raises(ValueError):
            solve_logistic(1, 2, 2)

    # rates are kept small: e^{alpha (hi - lo) s} must stay inside float range
    small = st.builds(Fr, st.integers(min_value=-6, max_value=6),
                      st.integers(min_value=1, max_value=4))

    @settings(max_examples=40, deadline=None)
    @given(alpha=small.filter(lambda r: r != 0), lo=small,
           gap=small.filter(lambda r: r > 0))
    def test_ode_holds(self, alpha, lo, gap):
        hi = lo + gap
        w = solve_logistic(alpha, lo, hi)
        d = w.expr.diff("s")
        for s0 in (-1.0, 0.5):
            u = w.expr.evaluate({"s": s0})
            du = d.evaluate({"s": s0})
            want = float(alpha) * (u - float(lo)) * (u - float(hi))
            assert du == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestPowerLogistic:
    @pytest.mark.parametrize("q,gamma", [
        (1, QuadExt(0, Fr(1, 2), 2)),
        (2, QuadExt(0, Fr(1, 3), 3)),
        (3, QuadExt(Fr(1, 2))),
    ])
    def test_default_rate(self, q, gamma):
        w = solve_power_logistic(q)
        assert w.gamma == gamma

    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_ode_holds(self, q):
        w = solve_power_logistic(q)
        g = float(w.gamma)
        d = w.expr.diff("s")
        for s0 in (-4.0, 0.0, 2.5):
            u = w.expr.evaluate({"s": s0})
            du = d.evaluate({"s": s0})
            assert du == pytest.approx(g * u * (u**q - 1), abs=1e-12)

    def test_default_rate_matches_squarefree_construction(self):
        for q in range(1, 31):
            s0, dt = squarefree_decompose(q + 1)
            assert solve_power_logistic(q).gamma == QuadExt(0, Fr(1, s0 * dt), dt)

    def test_custom_rate(self):
        w = solve_power_logistic(3, gamma=Fr(1, 2))
        assert w.gamma == QuadExt(Fr(1, 2))
        assert [str(b) for b in w.boundary] == ["1", "0"]

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            solve_power_logistic(0)
