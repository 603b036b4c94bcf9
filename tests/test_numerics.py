"""Integrators, saddle shooting, Jacobi elliptic functions."""

import math
from fractions import Fraction as Fr

import numpy as np
import pytest

from algwaves.numerics import (
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

FRONT_SPEED = QuadExt(0, Fr(5, 6), 6)


def front_plane(c):
    # x' = y, y' = -c y - x + x^2: saddle at (1, 0), sink at (0, 0)
    from algwaves.reduction import PlanarSystem

    reg = VarRegistry(["x", "y"])
    x = MultiPoly.var(reg, "x")
    y = MultiPoly.var(reg, "y")
    return PlanarSystem(reg, 0, 1, y, x * x - x - QuadExt.lift(c) * y)


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
        orb = integrate_rkf45(lambda t, y: -2.0 * y, 0.0, [1.0], 3.0)
        assert orb.end[0] == pytest.approx(math.exp(-6.0), abs=1e-9)

    def test_rkf45_adapts_steps(self):
        orb = integrate_rkf45(lambda t, y: -y, 0.0, [1.0], 10.0)
        fixed = integrate_rk4(lambda t, y: -y, 0.0, [1.0], 10.0, h=1e-3)
        assert len(orb) < len(fixed) / 10

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            integrate_rkf45(lambda t, y: y * y, 0.0, [1.0], 2.0)

    def test_backward_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_rk4(lambda t, y: y, 1.0, [1.0], 0.0)
        with pytest.raises(ValueError):
            integrate_rkf45(lambda t, y: y, 1.0, [1.0], 1.0)


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
        xv, yv = f.registry.var("x"), f.registry.var("y")
        flip = lambda p: (1.0 - p[0], p[1])

        ps = front_plane(FRONT_SPEED)
        res = shoot_unstable_manifold(ps, (QuadExt(1), QuadExt(0)), (0.0, 0.0))
        good = curve_residual_along_orbit(f, res.orbit, xv, yv, transform=flip)
        assert good < 1e-5

        ps3 = front_plane(3)
        res3 = shoot_unstable_manifold(ps3, (QuadExt(1), QuadExt(0)), (0.0, 0.0))
        bad = curve_residual_along_orbit(f, res3.orbit, xv, yv, transform=flip)
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
