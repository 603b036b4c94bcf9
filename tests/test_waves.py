"""Catalog entries, the graph-invariant family, front reconstruction."""

from fractions import Fraction as Fr

import numpy as np
import pytest

from algwaves.closedform import LogisticWave, PowerLogisticWave, p_from_exp_rational
from algwaves.poly import MultiPoly, VarRegistry
from algwaves import waves
from algwaves.qfield import QuadExt
from algwaves.waves import (
    CATALOG_BUILDERS,
    catalog,
    family_curve,
    family_identity_symbolic,
    fisher_front_reconstruct,
    make_entry,
    pde_residual_along_profile,
    verify_entry,
)

ALL_NAMES = ["burgers", "kdv", "boussinesq", "imbq", "fisher", "nagumo",
             "power-logistic"]


def term_map(p):
    return {p._mono_str(m): c for m, c in p.terms.items()}


class TestCatalog:
    def test_names(self):
        assert sorted(catalog()) == sorted(ALL_NAMES)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_relation_residual(self, name):
        rep = verify_entry(make_entry(name))
        assert rep.max_residual < 1e-10
        assert rep.boundary_ok in (None, True)
        assert rep.symbolic_zero in (None, True)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_profile_solves_stated_equation(self, name):
        assert pde_residual_along_profile(make_entry(name)) < 1e-10

    def test_pde_samples_are_linspace(self):
        want = np.linspace(-8.0, 8.0, 81)
        assert all(type(s) is float for s in waves.PDE_SAMPLES)
        assert np.array_equal(np.array(waves.PDE_SAMPLES), want)
        assert np.array(waves.PDE_SAMPLES).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_pde_residual_unchanged_by_samples(self, name, monkeypatch):
        entry = make_entry(name)
        got = pde_residual_along_profile(entry)
        # the samples as an ndarray, as they were built before
        monkeypatch.setattr(waves, "PDE_SAMPLES", np.linspace(-8.0, 8.0, 81))
        assert pde_residual_along_profile(entry) == got

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_power_logistic_variants(self, q):
        e = make_entry("power-logistic", q=q)
        assert verify_entry(e).max_residual < 1e-12
        assert pde_residual_along_profile(e) < 1e-12

    def test_exp_rational_entries_flagged(self):
        cat = catalog()
        have = {n for n, e in cat.items() if e.exp_rational is not None}
        assert have == {"burgers", "fisher"}
        for n in have:
            assert verify_entry(cat[n]).symbolic_zero is True

    def test_relation_matches_elimination(self):
        # the stored relation and the resultant-derived one agree up to scale
        for name in ("burgers", "fisher"):
            e = make_entry(name)
            derived = p_from_exp_rational(e.exp_rational)
            assert term_map(e.relation.p.monic("grlex")) == term_map(
                derived.p.monic("grlex"))

    def test_burgers_relation_terms(self):
        e = make_entry("burgers")
        assert term_map(e.relation.p) == {
            "du": QuadExt(2), "u": QuadExt(2), "u^2": QuadExt(-1)}
        assert [str(b) for b in e.boundary] == ["2", "0"]

    def test_fisher_speed_and_relation(self):
        e = make_entry("fisher")
        assert e.speed == QuadExt(0, Fr(5, 6), 6)
        assert term_map(e.relation.p)["u*du"] == QuadExt(0, 2, 6)

    def test_nagumo_speed(self):
        e = make_entry("nagumo")
        assert e.speed == QuadExt(Fr(1, 2))
        # raising the middle rest value slows the front down
        e2 = make_entry("nagumo", b=Fr(1, 2))
        assert e2.speed == QuadExt(0)

    def test_kdv_profile_depth(self):
        e = make_entry("kdv")
        assert e.profile.evaluate({"s": 0.0}) == pytest.approx(-2.0)
        assert e.periodic is False

    def test_imbq_is_periodic(self):
        e = make_entry("imbq")
        assert e.periodic is True
        assert e.boundary is None
        # cn(0) = 1: value at the crest
        assert e.profile.evaluate({"s": 0.0}) == pytest.approx(9.0)

    def test_imbq_irrational_modulus_rejected(self):
        with pytest.raises(ValueError):
            make_entry("imbq", m=QuadExt(0, 1, 2))

    def test_boussinesq_limits_match(self):
        e = make_entry("boussinesq")
        left, right = e.boundary
        assert left == right == QuadExt(1)

    def test_unknown_entry(self):
        with pytest.raises(KeyError):
            make_entry("kolmogorov")

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            make_entry("burgers", a=0)
        with pytest.raises(ValueError):
            make_entry("kdv", c=-4)
        with pytest.raises(ValueError):
            make_entry("power-logistic", q=Fr(3, 2))


class TestFamily:
    def test_identity_symbolic_coefficients(self):
        assert family_identity_symbolic(6).is_zero

    def test_identity_low_degree(self):
        assert family_identity_symbolic(1).is_zero

    def test_quadratic_gives_logistic(self):
        cert = family_curve([0, -1, 1], Fr(1, 2), 1)
        assert isinstance(cert.wave, LogisticWave)
        assert [str(b) for b in cert.wave.boundary] == ["1", "0"]
        assert str(cert.cofactor) == "-2*x + 1/2"

    def test_power_shape_recognized(self):
        cert = family_curve([0, Fr(-1, 2), 0, 0, Fr(1, 2)], 1, 2)
        assert isinstance(cert.wave, PowerLogisticWave)
        assert cert.wave.q == 3
        assert cert.wave.gamma == QuadExt(Fr(1, 2))

    def test_unrecognized_cubic(self):
        cert = family_curve([1, 0, 0, 1], 1, 1)
        assert cert.wave is None
        assert cert.curve.degree() == 3

    def test_roots_in_no_single_field(self):
        # f = u^2 - sqrt(2) u - 1 has the real roots (sqrt(2) +- sqrt(6))/2
        cert = family_curve([-1, QuadExt(0, -1, 2), 1], 1)
        assert cert.wave is None
        assert cert.curve.degree() == 2

    def test_zero_diffusion_rejected(self):
        with pytest.raises(ValueError):
            family_curve([0, 1], 1, 0)

    def test_constant_f_rejected(self):
        with pytest.raises(ValueError):
            family_curve([5], 1, 1)

    def test_system_orbit_stays_on_curve(self):
        from algwaves.numerics import curve_residual_along_orbit, integrate_rkf45

        cert = family_curve([0, -1, 1], Fr(1, 2), 1)
        rhs = cert.system.rhs_float()
        u0 = 0.9
        orbit = integrate_rkf45(rhs, 0.0, [u0, u0 * (u0 - 1)], 12.0)
        worst = curve_residual_along_orbit(cert.curve, orbit)
        assert worst < 1e-8


class TestFrontReconstruction:
    def test_discriminant_is_cubed_line(self):
        fr = fisher_front_reconstruct()
        u = MultiPoly.var(fr.curve.registry, "u")
        assert fr.discriminant == Fr(8, 3) * u**3

    def test_branch_and_substitution(self):
        fr = fisher_front_reconstruct()
        assert fr.branch == "+"
        assert fr.substitution_zero is True
        assert fr.rate == QuadExt(0, Fr(1, 6), 6)

    def test_wave_value_and_residual(self):
        fr = fisher_front_reconstruct()
        assert fr.wave.evaluate({"s": 0.0}) == pytest.approx(0.25)
        d = fr.wave.diff("s")
        reg = fr.curve.registry
        uv, duv = reg.id_of("u"), reg.id_of("du")
        worst = 0.0
        for s in np.linspace(-25, 25, 101):
            u = fr.wave.evaluate({"s": float(s)})
            du = d.evaluate({"s": float(s)})
            worst = max(worst, abs(fr.curve.evaluate_float({uv: u, duv: du})))
        assert worst < 1e-12

    def test_shift_scales_translate(self):
        # changing k slides the front without leaving the curve
        fr = fisher_front_reconstruct(k=Fr(7, 2))
        d = fr.wave.diff("s")
        reg = fr.curve.registry
        uv, duv = reg.id_of("u"), reg.id_of("du")
        u = fr.wave.evaluate({"s": 1.0})
        du = d.evaluate({"s": 1.0})
        assert abs(fr.curve.evaluate_float({uv: u, duv: du})) < 1e-14

    def test_bad_shift_rejected(self):
        with pytest.raises(ValueError):
            fisher_front_reconstruct(k=-1)
