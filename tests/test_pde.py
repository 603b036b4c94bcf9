"""Equation front end: grammar, normalization, binding."""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from algwaves.pde import DerivSymbol, PDESyntaxError, bind_params, parse_pde
from algwaves.qfield import QuadExt


class TestParsing:
    def test_burgers(self):
        spec = parse_pde("u_t + u*u_x - a*u_xx = 0")
        assert spec.order == 2
        assert spec.params == ["a"]
        names = {d.name for v, d in spec.deriv_vars.items()
                 if v in spec.poly.variables()}
        assert names == {"u", "u_t", "u_x", "u_xx"}

    def test_fisher(self):
        spec = parse_pde("u_t = u_xx + u*(1-u)")
        assert spec.order == 2
        assert spec.params == []
        # E = u_t - u_xx - u + u^2
        uid = spec.registry.id_of("u")
        assert spec.poly.coeff(((uid, 2),)) == 1
        assert spec.poly.coeff(((uid, 1),)) == -1

    def test_subscript_normalization(self):
        spec = parse_pde("u_txx - u_xxt = u")
        # both spellings collapse to the same symbol, so E = -u
        assert spec.order == 0
        assert str(spec.poly) == "-u"

    def test_mixed_derivative(self):
        spec = parse_pde("u_tt - u*u_xx - u_xx - u_x^2 - u_xxtt = 0")
        assert spec.order == 4
        assert DerivSymbol(2, 2).name == "u_xxtt"

    def test_rational_literals(self):
        spec = parse_pde("u_t - 1/2*u = 0")
        uid = spec.registry.id_of("u")
        assert spec.poly.coeff(((uid, 1),)) == Fr(-1, 2)

    def test_sqrt_literal(self):
        spec = parse_pde("u_t - sqrt(8)*u = 0")
        uid = spec.registry.id_of("u")
        assert spec.poly.coeff(((uid, 1),)) == QuadExt(0, -2, 2)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(PDESyntaxError):
            parse_pde("2u_x = 0")
        # '2u_x' actually lexes as one name; the real case is 'u u_x'
        with pytest.raises(PDESyntaxError):
            parse_pde("u u_x = 0")

    def test_division_rejected(self):
        with pytest.raises(PDESyntaxError) as ei:
            parse_pde("u_t + u/2 = 0")
        assert "rational literals" in str(ei.value)

    def test_fractional_power_rejected(self):
        with pytest.raises(PDESyntaxError):
            parse_pde("u^1/2 + u_t = 0")
        with pytest.raises(PDESyntaxError):
            parse_pde("u^(1/2) + u_t = 0")
        with pytest.raises(PDESyntaxError):
            parse_pde("u^-2 + u_t = 0")

    def test_non_ascii_rejected(self):
        with pytest.raises(PDESyntaxError):
            parse_pde("u_t − u = 0")

    def test_error_position(self):
        with pytest.raises(PDESyntaxError) as ei:
            parse_pde("u_t + @")
        assert ei.value.col == 7

    def test_unknown_must_appear(self):
        with pytest.raises(PDESyntaxError):
            parse_pde("a - b = 0")

    def test_zero_equation(self):
        with pytest.raises(PDESyntaxError):
            parse_pde("u_t = u_t")

    def test_bad_subscript(self):
        with pytest.raises(PDESyntaxError):
            parse_pde("u_y + u_t = 0")

    def test_equation_form_optional(self):
        spec = parse_pde("u_t + u")
        assert spec.order == 1


class TestBinding:
    def test_bind_and_remaining(self):
        spec = parse_pde("u_t + u*u_x - a*u_xx + b*u = 0")
        assert spec.unbound_params() == ["a", "b"]
        s2 = bind_params(spec, {"a": 1})
        assert s2.unbound_params() == ["b"]
        s3 = bind_params(s2, {"b": "5/6*sqrt(6)"})
        assert s3.unbound_params() == []
        u = s3.registry.id_of("u")
        assert s3.poly.coeff(((u, 1),)) == QuadExt(0, Fr(5, 6), 6)

    def test_bind_unknown_param(self):
        spec = parse_pde("u_t - a*u = 0")
        with pytest.raises(KeyError):
            bind_params(spec, {"zeta": 1})

    def test_order_drops_when_top_coefficient_binds_to_zero(self):
        spec = parse_pde("u_t + a*u_xx - u = 0")
        assert spec.order == 2
        s2 = bind_params(spec, {"a": 0})
        assert s2.order == 1

    def test_render_roundtrip(self):
        spec = parse_pde("u_t + u*u_x - 1/2*u_xx = 0")
        spec2 = parse_pde(str(spec))
        assert str(spec2) == str(spec)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(
    ["u", "u_x", "u_t", "u_xx", "u_xt", "a", "1/2", "3", "sqrt(2)"]),
    min_size=1, max_size=5))
def test_built_terms_always_parse(symbols):
    text = " + ".join("*".join([s, "u"]) for s in symbols)
    spec = parse_pde(text)
    # every generated coefficient is positive, so no cancellation can occur
    assert not spec.poly.is_zero
