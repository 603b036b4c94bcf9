"""Integrators, saddle shooting, Jacobi elliptic functions."""

import itertools
import math
from fractions import Fraction as Fr
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from algwaves import numerics
from algwaves.numerics import (
    DIVERGENCE_NORM,
    MAX_RKF45_SPAN,
    MAX_STEPS,
    RKF45_ATOL,
    RKF45_H0,
    RKF45_RTOL,
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
from algwaves.poly import MultiPoly, VarRegistry, compile_float_field
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


def _reference_norm(v):
    """np.linalg.norm for the references; past the float range it is inf,
    without a warning, which the references report as a divergence."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(v)


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
        if not np.all(np.isfinite(y)) or _reference_norm(y) > DIVERGENCE_NORM:
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
        scale = atol + rtol * max(_reference_norm(y), _reference_norm(y5))
        err = _reference_norm(y5 - y4)
        if err <= scale or h <= 1e-12:
            if err > scale:
                raise StepSizeError("tolerance not met at the step floor at t=%.6f" % t)
            t += h
            y = y5
            if not np.all(np.isfinite(y)) or _reference_norm(y) > DIVERGENCE_NORM:
                raise DivergenceError("solution norm exceeded at t=%.3f" % t)
            ts.append(t)
            ys.append(y.copy())
        if err == 0:
            h *= 5.0
        else:
            h *= min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2))
    raise StepSizeError("step budget exhausted before reaching t1")


def _norm(v):
    return math.sqrt(sum([x * x for x in v]))


def _check_bounded(norm, t):
    if not math.isfinite(norm) or norm > DIVERGENCE_NORM:
        raise DivergenceError("solution norm exceeded %.1e at t=%.3f"
                              % (DIVERGENCE_NORM, t))


def _axpy(y, a, k):
    return tuple([v + a * w for v, w in zip(y, k)])


def tuple_rk4(rhs, t0, y0, t1, h=1e-3):
    """RK4 on tuples, one zip per stage: the reference for the generated loop."""
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ValueError("integration interval must be finite and run forward")
    if (t1 - t0) / h > MAX_STEPS:
        raise StepSizeError("step %g needs more than %d steps from t=%g to t=%g"
                            % (h, MAX_STEPS, t0, t1))
    y = tuple(float(v) for v in y0)
    n = max(1, int(math.ceil((t1 - t0) / h)))
    hh = (t1 - t0) / n
    h6 = hh / 6
    ts = [t0]
    ys = [y]
    t = t0
    for _ in range(n):
        tm = t + hh / 2
        k1 = rhs(t, y)
        k2 = rhs(tm, tuple([a + hh * b / 2 for a, b in zip(y, k1)]))
        k3 = rhs(tm, tuple([a + hh * b / 2 for a, b in zip(y, k2)]))
        k4 = rhs(t + hh, tuple([a + hh * b for a, b in zip(y, k3)]))
        y = tuple([a + h6 * (b1 + 2 * b2 + 2 * b3 + b4)
                   for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
        t += hh
        _check_bounded(math.hypot(*y), t)
        ts.append(t)
        ys.append(y)
    return Orbit(np.array(ts), np.array(ys))


def tuple_rkf45(rhs, t0, y0, t1):
    """Fehlberg 4(5) on tuples, one zip per stage and weight: the reference
    for the generated loop."""
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ValueError("integration interval must be finite and run forward")
    if t1 - t0 > MAX_RKF45_SPAN:
        raise StepSizeError("span %g from t=%g to t=%g exceeds the rkf45 limit %g"
                            % (t1 - t0, t0, t1, MAX_RKF45_SPAN))
    atol, rtol = RKF45_ATOL, RKF45_RTOL
    y = tuple(float(v) for v in y0)
    t = t0
    h = min(RKF45_H0, t1 - t0)
    ts = [t0]
    ys = [y]
    ks = [None] * 6
    for _ in range(MAX_STEPS):
        if t >= t1:
            return Orbit(np.array(ts), np.array(ys))
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepSizeError("step size underflow at t=%.6f" % t)
        ks[0] = rhs(t, y)
        for i in range(1, 6):
            yi = y
            for j, b in enumerate(_B[i]):
                yi = _axpy(yi, h * b, ks[j])
            ks[i] = rhs(t + _C[i] * h, yi)
        y5 = y4 = y
        for i in range(6):
            y5 = _axpy(y5, h * _W5[i], ks[i])
            y4 = _axpy(y4, h * _W4[i], ks[i])
        norm5 = _norm(y5)
        scale = atol + rtol * max(_norm(y), norm5)
        err = _norm([a - b for a, b in zip(y5, y4)])
        if err <= scale or h <= 1e-12:
            if err > scale:
                raise StepSizeError("tolerance not met at the step floor at t=%.6f" % t)
            t += h
            y = y5
            _check_bounded(norm5, t)
            ts.append(t)
            ys.append(y)
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


def assert_same_outcome(integrate, reference, *args, **kw):
    """Bit-identical orbits, or the same exception type from both.

    A cubic term x ** 3 raises OverflowError where a product would give
    inf, so a rhs can fail before the norm check sees the blow-up; the
    integrators report that as DivergenceError, the reference does not."""
    try:
        want = reference(*args, **kw)
    except (DivergenceError, StepSizeError, ValueError, OverflowError) as exc:
        with pytest.raises(DivergenceError if isinstance(exc, OverflowError) else type(exc)):
            integrate(*args, **kw)
        return
    got = integrate(*args, **kw)
    assert np.array_equal(got.ts, want.ts)
    assert np.array_equal(got.ys, want.ys)


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


def polynomial_field(dim, coeffs):
    """The rhs of u' = F(u), component i of F summing coeffs[i][j] times
    the j-th monomial of degree at most 3 in u_0, ..., u_{dim-1}."""
    reg = VarRegistry(["u%d" % i for i in range(dim)])
    us = [MultiPoly.var(reg, i) for i in range(dim)]
    monos = [MultiPoly.one(reg)]
    for degree in (1, 2, 3):
        for factors in itertools.combinations_with_replacement(us, degree):
            monos.append(math.prod(factors[1:], start=factors[0]))
    field = [sum((QuadExt.lift(c) * m for c, m in zip(row, monos)), MultiPoly.zero(reg))
             for row in coeffs]
    return compile_float_field(field, range(dim))


@st.composite
def polynomial_fields(draw):
    """A random polynomial field of dimension 1, 2 or 3 with a start, a
    horizon and an rk4 step.  Coefficients up to 3 and starts up to 2 make
    many of them blow up within the horizon."""
    dim = draw(st.integers(1, 3))
    nmonos = math.comb(dim + 3, 3)
    coeff = st.one_of(st.just(0), st.fractions(min_value=-3, max_value=3,
                                               max_denominator=7))
    coeffs = [draw(st.lists(coeff, min_size=nmonos, max_size=nmonos)) for _ in range(dim)]
    start = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
    horizon = draw(st.floats(0.01, 3.0))
    h = draw(st.sampled_from([1e-3, 5e-3, 1e-2, 0.05]))
    return polynomial_field(dim, coeffs), start, horizon, h


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
    def test_power_overflow_is_divergence(self, integrate):
        # y' = y ** 31 from 2: the float power overflows inside a stage,
        # where a product would give inf, before the norm check runs
        with pytest.raises(DivergenceError, match="overflowed after t=0.000"):
            integrate(lambda t, y: (y[0] ** 31,), 0.0, [2.0], 1.0)

    @pytest.mark.parametrize("integrate", [integrate_rk4, integrate_rkf45])
    def test_nan_is_divergence(self, integrate):
        with pytest.raises(DivergenceError):
            integrate(lambda t, y: (y[0], math.nan), 0.0, [1.0, 0.0], 1.0)

    def test_rk4_step_budget(self):
        with pytest.raises(StepSizeError):
            integrate_rk4(lambda t, y: y, 0.0, [1.0], 1e8)

    def test_rkf45_fails_at_the_step_floor(self):
        # an rhs that is noise at every scale misses the tolerance even at
        # h = 1e-12, where the integrator gives up rather than accept a step
        def rhs(t, y):
            return (1e6 * math.sin(1e17 * t),)

        with pytest.raises(StepSizeError, match="tolerance not met at the step floor"):
            integrate_rkf45(rhs, 0.0, [0.0], 1.0)
        assert_same_outcome(integrate_rkf45, tuple_rkf45, rhs, 0.0, [0.0], 1.0)

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
    # a finite state past 1e154, whose norm overflows
    @example((lambda t, y: (3 * y[0] * y[0],), (1.104,), 1.5, 0.05))
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


class TestAgainstTupleLoops:
    """The generated loops against the tuple loops they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(polynomial_fields())
    def test_rk4_bit_identical_on_polynomial_fields(self, case):
        rhs, start, horizon, h = case
        assert_same_outcome(integrate_rk4, tuple_rk4, rhs, 0.0, start, horizon, h=h)

    @settings(max_examples=60, deadline=None)
    @given(polynomial_fields())
    def test_rkf45_bit_identical_on_polynomial_fields(self, case):
        rhs, start, horizon, _ = case
        assert_same_outcome(integrate_rkf45, tuple_rkf45, rhs, 0.0, start, horizon)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("integrate,reference", [(integrate_rk4, tuple_rk4),
                                                     (integrate_rkf45, tuple_rkf45)])
    def test_diverging_fields_fail_alike(self, dim, integrate, reference):
        # u_0' = u_0^2 + (the other components) blows up before t = 2
        nmonos = math.comb(dim + 3, 3)
        coeffs = [[0] * nmonos for _ in range(dim)]
        coeffs[0][1 + dim] = 1  # u_0^2
        for i in range(1, dim):
            coeffs[0][1 + i] = 1
            coeffs[i][1 + i - 1] = Fr(1, 2)
        rhs = polynomial_field(dim, coeffs)
        with pytest.raises(DivergenceError):
            reference(rhs, 0.0, [1.0] * dim, 2.0)
        assert_same_outcome(integrate, reference, rhs, 0.0, [1.0] * dim, 2.0)

    @pytest.mark.parametrize("integrate", [integrate_rk4, integrate_rkf45])
    @pytest.mark.parametrize("values", [lambda y: (y[0],), lambda y: (y[0], y[1], 1.0)])
    def test_rhs_of_wrong_length_fails_at_first_stage(self, integrate, values):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return values(y)

        with pytest.raises(ValueError, match="values to unpack"):
            integrate(rhs, 0.0, [1.0, 2.0], 0.1)
        assert calls == [0.0]

    def test_each_loop_compiles_once(self):
        # one generated loop per (method, dimension), kept for the process
        rotate = lambda t, y: (y[1], -y[0])
        with mock.patch.dict(numerics._LOOPS, clear=True), \
                mock.patch.object(numerics, "_compile_loop",
                                  wraps=numerics._compile_loop) as compile_:
            for _ in range(3):
                integrate_rk4(lambda t, y: (-y[0],), 0.0, [1.0], 0.1)
                integrate_rk4(rotate, 0.0, [1.0, 0.0], 0.1)
                integrate_rkf45(rotate, 0.0, [1.0, 0.0], 0.1)
            assert [c.args for c in compile_.call_args_list] == [
                ("rk4", 1), ("rk4", 2), ("rkf45", 2)]


class TestShooting:
    def test_front_connection(self):
        ps = front_plane(FRONT_SPEED)
        res = shoot_unstable_manifold(ps, (QuadExt(1), QuadExt(0)), (0.0, 0.0),
                                      eps=1e-6, horizon=60.0)
        assert res.min_distance < 1e-6
        assert res.eigenvalue > 0

    def test_wrong_speed_misses_on_curve(self):
        from algwaves.fisher import certify

        f = certify().curve

        ps = front_plane(FRONT_SPEED)
        res = shoot_unstable_manifold(ps, (QuadExt(1), QuadExt(0)), (0.0, 0.0))
        good = curve_residual_along_orbit(f, res.orbit)
        assert good < 1e-5

        ps3 = front_plane(3)
        res3 = shoot_unstable_manifold(ps3, (QuadExt(1), QuadExt(0)), (0.0, 0.0))
        bad = curve_residual_along_orbit(f, res3.orbit)
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

    def test_repeated_residual_compiles_once(self):
        # the evaluator is kept on the polynomial, one per variable order
        from algwaves import poly

        orb = Orbit(np.array([0.0, 1.0]), np.array([[0.25, 2.0], [1.0, 1.0]]))
        reg = VarRegistry(["x", "y"])
        f = MultiPoly.var(reg, "x") * MultiPoly.var(reg, "y") - 3
        with mock.patch.object(poly, "_compile_float", wraps=poly._compile_float) as compile_:
            assert [curve_residual_along_orbit(f, orb) for _ in range(3)] == [2.5] * 3
            assert f.evaluate_float({0: 0.25, 1: 2.0}) == -2.5
            assert compile_.call_count == 1
            assert f.evaluate_float({1: 2.0, 0: 0.25}) == -2.5
            assert compile_.call_count == 2

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
