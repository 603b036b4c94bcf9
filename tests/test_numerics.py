"""Integrators, saddle shooting, Jacobi elliptic functions."""

import math
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algwaves.numerics import (
    DIVERGENCE_NORM,
    _B,
    _C,
    _W4,
    _W5,
    DivergenceError,
    Orbit,
    StepSizeError,
    curve_residual_along_orbit,
    integrate_rk4,
    integrate_rkf45,
    jacobi_elliptic,
    shoot_unstable_manifold,
)
from algwaves.poly import MultiPoly, VarRegistry
from algwaves.qfield import QuadExt
from test_closedform import richardson_derivative
from test_poly import reference_compile_float

FRONT_SPEED = QuadExt(0, Fr(5, 6), 6)


def front_plane(c):
    # x' = y, y' = -c y - x + x^2: saddle at (1, 0), sink at (0, 0)
    from algwaves.reduction import PlanarSystem

    reg = VarRegistry(["x", "y"])
    x = MultiPoly.var(reg, "x")
    y = MultiPoly.var(reg, "y")
    return PlanarSystem(reg, 0, 1, y, x * x - x - QuadExt.lift(c) * y)


def _numpy_rhs(rhs):
    # the references step on numpy arrays; rhs still gets a tuple of floats
    return lambda t, y: np.array(rhs(t, tuple(y.tolist())), dtype=float)


def reference_rk4(rhs, t0, y0, t1, h=1e-3):
    """The numpy RK4 the plain-float one replaced."""
    rhs = _numpy_rhs(rhs)
    y = np.asarray(y0, dtype=float)
    n = max(1, int(math.ceil((t1 - t0) / h)))
    hh = (t1 - t0) / n
    ts = [t0]
    ys = [y.copy()]
    t = t0
    for _ in range(n):
        k1 = rhs(t, y)
        k2 = rhs(t + hh / 2, y + hh * k1 / 2)
        k3 = rhs(t + hh / 2, y + hh * k2 / 2)
        k4 = rhs(t + hh, y + hh * k3)
        y = y + (hh / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += hh
        if not np.all(np.isfinite(y)) or np.linalg.norm(y) > DIVERGENCE_NORM:
            raise DivergenceError("solution norm exceeded at t=%.3f" % t)
        ts.append(t)
        ys.append(y.copy())
    return Orbit(np.array(ts), np.array(ys))


def reference_rkf45(rhs, t0, y0, t1, atol=1e-10, rtol=1e-10, h0=1e-2,
                    max_steps=2_000_000):
    """The numpy Fehlberg 4(5) the plain-float one replaced."""
    rhs = _numpy_rhs(rhs)
    y = np.asarray(y0, dtype=float)
    t = t0
    h = min(h0, t1 - t0)
    ts = [t0]
    ys = [y.copy()]
    ks = [None] * 6
    for _ in range(max_steps):
        if t >= t1:
            return Orbit(np.array(ts), np.array(ys))
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepSizeError("step size underflow at t=%.6f" % t)
        ks[0] = rhs(t, y)
        for i in range(1, 6):
            yi = y.copy()
            for j, b in enumerate(_B[i]):
                yi = yi + h * b * ks[j]
            ks[i] = rhs(t + _C[i] * h, yi)
        y5 = y.copy()
        y4 = y.copy()
        for i in range(6):
            y5 = y5 + h * _W5[i] * ks[i]
            y4 = y4 + h * _W4[i] * ks[i]
        scale = atol + rtol * max(np.linalg.norm(y), np.linalg.norm(y5))
        err = np.linalg.norm(y5 - y4)
        if err <= scale or h <= 1e-12:
            t += h
            y = y5
            if not np.all(np.isfinite(y)) or np.linalg.norm(y) > DIVERGENCE_NORM:
                raise DivergenceError("solution norm exceeded at t=%.3f" % t)
            ts.append(t)
            ys.append(y.copy())
        if err == 0:
            h *= 5.0
        else:
            h *= min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2))
    raise StepSizeError("step budget exhausted before reaching t1")


def _outcome(integrate, *args, **kw):
    try:
        return integrate(*args, **kw)
    except DivergenceError:
        return DivergenceError


@st.composite
def quadratic_planes(draw):
    """x' = P, y' = Q with P, Q random quadratics in x, y, a start in the
    unit square, a short horizon and a step."""
    from algwaves.reduction import PlanarSystem

    reg = VarRegistry(["x", "y"])
    x = MultiPoly.var(reg, "x")
    y = MultiPoly.var(reg, "y")
    monos = [MultiPoly.one(reg), x, y, x * x, x * y, y * y]
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    P, Q = (sum((QuadExt.lift(draw(coeff)) * m for m in monos), MultiPoly.zero(reg))
            for _ in range(2))
    start = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    horizon = draw(st.floats(0.01, 1.5))
    h = draw(st.sampled_from([1e-3, 5e-3, 1e-2, 0.05]))
    return PlanarSystem(reg, 0, 1, P, Q).rhs_float(), start, horizon, h


class TestIntegrators:
    def test_rk4_exponential(self):
        orb = integrate_rk4(lambda t, y: y, 0.0, [1.0], 1.0, h=1e-3)
        assert orb.end[0] == pytest.approx(math.e, abs=1e-10)

    def test_rk4_oscillator_energy(self):
        def rhs(t, y):
            return np.array([y[1], -y[0]])

        orb = integrate_rk4(rhs, 0.0, [1.0, 0.0], 20.0, h=1e-3)
        energy = orb.ys[:, 0] ** 2 + orb.ys[:, 1] ** 2
        assert np.max(np.abs(energy - 1.0)) < 1e-10

    def test_rkf45_matches_closed_form(self):
        orb = integrate_rkf45(lambda t, y: (-2.0 * y[0],), 0.0, [1.0], 3.0)
        assert orb.end[0] == pytest.approx(math.exp(-6.0), abs=1e-9)

    def test_rkf45_adapts_steps(self):
        orb = integrate_rkf45(lambda t, y: (-y[0],), 0.0, [1.0], 10.0)
        fixed = integrate_rk4(lambda t, y: (-y[0],), 0.0, [1.0], 10.0, h=1e-3)
        assert len(orb) < len(fixed) / 10

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            integrate_rkf45(lambda t, y: (y[0] * y[0],), 0.0, [1.0], 2.0)

    def test_rk4_divergence_guard(self):
        # y' = y^2 from 1 blows up at t = 1
        with pytest.raises(DivergenceError):
            integrate_rk4(lambda t, y: (y[0] * y[0],), 0.0, [1.0], 2.0)

    @pytest.mark.parametrize("integrate", [integrate_rk4, integrate_rkf45])
    def test_nan_is_divergence(self, integrate):
        with pytest.raises(DivergenceError):
            integrate(lambda t, y: (y[0], math.nan), 0.0, [1.0, 0.0], 1.0)

    def test_rk4_step_budget(self):
        with pytest.raises(StepSizeError):
            integrate_rk4(lambda t, y: y, 0.0, [1.0], 1e8)

    def test_backward_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_rk4(lambda t, y: y, 1.0, [1.0], 0.0)
        with pytest.raises(ValueError):
            integrate_rkf45(lambda t, y: y, 1.0, [1.0], 1.0)
        for integrate in (integrate_rk4, integrate_rkf45):
            for t0, t1 in ((0.0, math.nan), (0.0, math.inf), (math.nan, 1.0),
                           (-math.inf, 1.0)):
                with pytest.raises(ValueError, match="interval"):
                    integrate(lambda t, y: y, t0, [1.0], t1)


class TestAgainstNumpyReference:
    @settings(max_examples=40, deadline=None)
    @given(quadratic_planes())
    def test_rk4_bit_identical_on_quadratic_planes(self, case):
        rhs, start, horizon, h = case
        got = _outcome(integrate_rk4, rhs, 0.0, start, horizon, h=h)
        want = _outcome(reference_rk4, rhs, 0.0, start, horizon, h=h)
        if want is DivergenceError:
            assert got is DivergenceError
        else:
            assert np.array_equal(got.ts, want.ts)
            assert np.array_equal(got.ys, want.ys)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(-2.0, 2.0),
           st.floats(0.01, 3.0))
    def test_rk4_bit_identical_on_linear_lines(self, a, b, y0, horizon):
        rhs = lambda t, y: (a * y[0] + b,)
        got = integrate_rk4(rhs, 0.0, [y0], horizon, h=1e-2)
        want = reference_rk4(rhs, 0.0, [y0], horizon, h=1e-2)
        assert np.array_equal(got.ts, want.ts)
        assert np.array_equal(got.ys, want.ys)

    @pytest.mark.parametrize("c", [FRONT_SPEED, Fr(12, 5), 2])
    def test_rkf45_matches_reference(self, c):
        ps = front_plane(c)
        res = shoot_unstable_manifold(ps, (QuadExt(1), QuadExt(0)), (0.0, 0.0))
        want = reference_rkf45(ps.rhs_float(), 0.0, res.start, 60.0)
        # np.linalg.norm may fuse the sum of squares (FMA), so the error
        # estimate can differ in its last bit.  Near the saddle that estimate
        # is rounding noise, the accepted step sizes drift apart (by up to
        # 8e-7 in t at c = 12/5) and points of equal index sit at slightly
        # different times.
        assert len(res.orbit) == len(want)
        assert np.max(np.abs(res.orbit.ys - want.ys)) <= 2e-8
        assert np.max(np.abs(res.orbit.end - want.end)) <= 1e-8

    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_front_orbit_pinned_to_interpreted_rhs(self, method):
        # the generated rhs gives the interpreted one's floats, so the
        # shot orbit is the reference integrator's, bit for bit
        ps = front_plane(FRONT_SPEED)
        order = (ps.x_var, ps.y_var)
        P, Q = (reference_compile_float(f, order) for f in (ps.P, ps.Q))
        rhs = lambda t, u: (P(*u), Q(*u))
        if method == "rk4":
            kw, horizon, reference = {"h": 5e-3}, 30.0, reference_rk4
        else:
            kw, horizon, reference = {}, 60.0, reference_rkf45
        res = shoot_unstable_manifold(ps, (QuadExt(1), QuadExt(0)), (0.0, 0.0),
                                      horizon=horizon, method=method, **kw)
        want = reference(rhs, 0.0, res.start, horizon, **kw)
        assert np.array_equal(res.orbit.ts, want.ts)
        assert np.array_equal(res.orbit.ys, want.ys)


class TestShooting:
    def test_front_connection(self):
        ps = front_plane(FRONT_SPEED)
        res = shoot_unstable_manifold(ps, (QuadExt(1), QuadExt(0)), (0.0, 0.0),
                                      eps=1e-6, horizon=60.0)
        assert res.min_distance < 1e-6
        assert res.eigenvalue > 0

    def test_wrong_speed_misses_on_curve(self):
        from algwaves.fisher import exact_front_curve

        f, _ = exact_front_curve()
        flip = lambda p: (1.0 - p[0], p[1])

        ps = front_plane(FRONT_SPEED)
        res = shoot_unstable_manifold(ps, (QuadExt(1), QuadExt(0)), (0.0, 0.0))
        good = curve_residual_along_orbit(f, res.orbit, transform=flip)
        assert good < 1e-5

        ps3 = front_plane(3)
        res3 = shoot_unstable_manifold(ps3, (QuadExt(1), QuadExt(0)), (0.0, 0.0))
        bad = curve_residual_along_orbit(f, res3.orbit, transform=flip)
        assert bad > 1e-3

    def test_stop_tol_truncates(self):
        ps = front_plane(FRONT_SPEED)
        res = shoot_unstable_manifold(ps, (QuadExt(1), QuadExt(0)), (0.0, 0.0),
                                      stop_tol=1e-3)
        assert res.orbit.ts[-1] < 60.0
        assert res.end_distance <= 1e-3

    def test_non_saddle_rejected(self):
        ps = front_plane(FRONT_SPEED)
        with pytest.raises(ValueError):
            shoot_unstable_manifold(ps, (QuadExt(0), QuadExt(0)), (1.0, 0.0))

    def test_rk4_method_agrees(self):
        ps = front_plane(FRONT_SPEED)
        r1 = shoot_unstable_manifold(ps, (QuadExt(1), QuadExt(0)), (0.0, 0.0),
                                     horizon=30.0)
        r2 = shoot_unstable_manifold(ps, (QuadExt(1), QuadExt(0)), (0.0, 0.0),
                                     horizon=30.0, method="rk4")
        # integration error is amplified by the saddle's unstable rate, so
        # the two methods only agree to a few digits mid-transit
        assert np.linalg.norm(r1.orbit.end - r2.orbit.end) < 1e-4


class TestResiduals:
    def test_circle_stays_on_circle(self):
        def rhs(t, y):
            return np.array([-y[1], y[0]])

        orb = integrate_rkf45(rhs, 0.0, [1.0, 0.0], 6.0)
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        assert curve_residual_along_orbit(x * x + y * y - 1, orb) < 5e-9

    def test_flip_maps_orbit_columns(self):
        # a circle about (1, 0), flipped x -> 1 - x, lies on x^2 + y^2 = 1
        def rhs(t, y):
            return np.array([-y[1], y[0] - 1.0])

        orb = integrate_rkf45(rhs, 0.0, [2.0, 0.0], 6.0)
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        flip = lambda p: (1.0 - p[0], p[1])
        f = x * x + y * y - 1
        assert curve_residual_along_orbit(f, orb, transform=flip) < 5e-9
        assert curve_residual_along_orbit(f, orb) > 1.0

    def test_one_point_orbit(self):
        orb = Orbit(np.array([0.0]), np.array([[0.25, 2.0]]))
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        flip = lambda p: (1.0 - p[0], p[1])
        assert curve_residual_along_orbit(x * y - 3, orb) == 2.5
        assert curve_residual_along_orbit(x * y - 3, orb, transform=flip) == 1.5

    def test_richardson_accuracy(self):
        d = richardson_derivative(math.sin, 0.9)
        assert d == pytest.approx(math.cos(0.9), abs=1e-10)


class TestJacobi:
    def test_endpoint_parameters(self):
        sn, cn, dn = jacobi_elliptic(0.8, 0.0)
        assert (sn, cn, dn) == (math.sin(0.8), math.cos(0.8), 1.0)
        sn, cn, dn = jacobi_elliptic(0.8, 1.0)
        assert cn == pytest.approx(1 / math.cosh(0.8))
        assert sn == pytest.approx(math.tanh(0.8))

    def test_origin_values(self):
        for m in (0.0, 0.3, 0.8, 1.0):
            sn, cn, dn = jacobi_elliptic(0.0, m)
            assert (sn, cn, dn) == pytest.approx((0.0, 1.0, 1.0))

    def test_pythagorean_identities(self):
        for x in (-3.7, -0.4, 1.1, 6.2):
            for m in (0.2, 0.5, 0.95):
                sn, cn, dn = jacobi_elliptic(x, m)
                assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-12)
                assert dn * dn + m * sn * sn == pytest.approx(1.0, abs=1e-12)

    def test_against_scipy(self):
        from scipy.special import ellipj

        rng = np.random.default_rng(7)
        for x in rng.uniform(-10, 10, 40):
            for m in (0.05, 0.3, 0.5, 0.9, 0.999):
                sn, cn, dn = jacobi_elliptic(float(x), m)
                s2, c2, d2, _ = ellipj(float(x), m)
                assert sn == pytest.approx(s2, abs=5e-13)
                assert cn == pytest.approx(c2, abs=5e-13)
                assert dn == pytest.approx(d2, abs=5e-13)

    def test_bad_parameter(self):
        with pytest.raises(ValueError):
            jacobi_elliptic(1.0, 1.5)
