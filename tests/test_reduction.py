"""Traveling-frame reduction, rest states, local spectra, real roots."""

from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algwaves.fisher import front_system
from algwaves.pde import bind_params, parse_pde
from algwaves.poly import MultiPoly, VarRegistry
from algwaves.qfield import QuadExt
from algwaves.reduction import (
    DegenerateSpeedError,
    EquilibriumContinuumError,
    PlanarSystem,
    ReductionError,
    equilibria,
    jacobian_eigen,
    real_univariate_roots,
    to_planar,
    travelling_wave_reduce,
)

C_FRONT = "5/6*sqrt(6)"


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


def _fisher_system(c=None):
    spec = parse_pde("u_t = u_xx + u*(1-u)")
    return travelling_wave_reduce(spec, c=c)


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

    def test_mixed_derivative_speed_factor(self):
        spec = parse_pde("u_xt + u_x + u = 0")
        sys_spec = travelling_wave_reduce(spec)
        assert [float(r.value) for r in sys_spec.exceptional_speeds] == [0.0]
        with pytest.raises(DegenerateSpeedError):
            sys_spec.bind_speed(0)

    def test_state_dependent_lead_divides_out(self):
        spec = parse_pde("u*u_xx - u*u_x = 0")
        sys_spec = travelling_wave_reduce(spec, c=1)
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
        with pytest.raises(ReductionError):
            travelling_wave_reduce(spec)
        sys_spec = travelling_wave_reduce(spec, speed_name="v")
        assert "c" in sys_spec.param_vars

    def test_third_order(self):
        spec = parse_pde("u_t - u_xxx - u + u^2 = 0")
        sys_spec = travelling_wave_reduce(spec, c=2)
        assert sys_spec.n == 3
        eqs = equilibria(sys_spec)
        assert [e.point for e in eqs] == [
            (QuadExt(0), QuadExt(0), QuadExt(0)),
            (QuadExt(1), QuadExt(0), QuadExt(0)),
        ]

    def test_rhs_float(self):
        sys_spec = _fisher_system(c=1)
        rhs = sys_spec.rhs_float()
        out = rhs(0.0, np.array([0.5, 0.2]))
        assert np.allclose(out, [0.2, -0.45])

    def test_rhs_requires_bound_speed(self):
        sys_spec = _fisher_system()
        with pytest.raises(ReductionError):
            sys_spec.rhs_float()


class TestEquilibria:
    def test_fisher_rest_states(self):
        eqs = equilibria(_fisher_system(c=C_FRONT))
        assert [(e.x, e.y) for e in eqs] == [(0, 0), (1, 0)]
        assert all(e.exact and e.multiplicity == 1 for e in eqs)

    def test_burgers_continuum(self):
        spec = bind_params(parse_pde("u_t + u*u_x - a*u_xx = 0"), {"a": 1})
        sys_spec = travelling_wave_reduce(spec, c=1)
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

    def test_front_frame_change(self):
        # under x = 1 - X, y = Y the pipeline system x' = y, y' = x^2 - x - c y
        # becomes the front system X' = -Y, Y' = X^2 - X - c Y
        c = QuadExt(0, Fr(5, 6), 6)
        ps = to_planar(_fisher_system(c=C_FRONT))
        front = front_system(c)
        reg = front.registry
        X = MultiPoly.var(reg, front.x_var)
        Y = MultiPoly.var(reg, front.y_var)
        sub = {ps.x_var: 1 - X, ps.y_var: Y}
        assert front.P == -ps.P.substitute(sub, registry=reg)
        assert front.Q == ps.Q.substitute(sub, registry=reg)
        assert front.P == -Y
        assert front.Q == X * X - X - c * Y


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
