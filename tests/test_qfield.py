"""Field arithmetic in Q(sqrt(d)): frozen values first, then algebraic laws."""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from algwaves.qfield import (
    QuadExt,
    RadicandMismatchError,
    field_sqrt,
    is_squarefree,
    parse_quadext,
    pochhammer,
    quadratic_roots,
    rational_sqrt,
    squarefree_decompose,
)


def q(a, b=0, d=1):
    return QuadExt(Fr(a), Fr(b), d)


class TestFrozenValues:
    def test_speed_squared(self):
        # (5/6)*sqrt(6) is 5/sqrt(6); its square must be 25/6
        c = q(0, Fr(5, 6), 6)
        assert c * c == q(Fr(25, 6))

    def test_inverse_of_third_sqrt6(self):
        x = q(0, Fr(1, 3), 6)
        assert x.inverse() == q(0, Fr(1, 2), 6)
        assert x * x.inverse() == q(1)

    def test_field_sqrt_perfect_square(self):
        assert field_sqrt(q(4)) == q(2)
        assert field_sqrt(q(4), d=7) == q(2)
        assert field_sqrt(0) == q(0)

    def test_field_sqrt_with_radicand(self):
        r = field_sqrt(q(Fr(49, 6)), d=6)
        assert r == q(0, Fr(7, 6), 6)

    def test_field_sqrt_inferred_radicand(self):
        r = field_sqrt(q(Fr(49, 6)))
        assert r == q(0, Fr(7, 6), 6)
        r = field_sqrt(q(8))
        assert r == q(0, 2, 2)

    def test_field_sqrt_failures(self):
        assert field_sqrt(q(2), d=3) is None
        assert field_sqrt(q(-1)) is None
        # sqrt(2) has no square root in its own field
        assert field_sqrt(q(0, 1, 2)) is None

    def test_pochhammer_values(self):
        assert pochhammer(Fr(5, 6), 2) == Fr(55, 36)
        assert pochhammer(Fr(1, 3), 3) == Fr(28, 27)
        assert pochhammer(Fr(1, 2), 0) == 1

    def test_gamma_factor_m1(self):
        # gamma(1) = (5/6 rising 1)/(1/3 rising 1) = 5/2
        assert pochhammer(Fr(5, 6), 1) / pochhammer(Fr(1, 3), 1) == Fr(5, 2)

    def test_sign_exactness(self):
        # 3 - 2*sqrt(2) is positive (9 > 8); 2 - 3*sqrt(2) negative
        assert q(3, -2, 2).sign() == 1
        assert q(2, -3, 2).sign() == -1
        assert q(-3, 2, 2).sign() == -1
        assert q(0).sign() == 0
        assert q(0, -1, 6) < 0 < q(0, 1, 6)

    def test_radicand_mismatch(self):
        with pytest.raises(RadicandMismatchError):
            q(0, 1, 2) + q(0, 1, 3)
        # radical-free values combine with anything
        assert q(2) + q(0, 1, 3) == q(2, 1, 3)

    def test_normalization(self):
        assert q(1, 0, 6).d == 1
        assert q(2, 3, 1) == q(5)

    def test_bad_radicand(self):
        with pytest.raises(ValueError):
            QuadExt(1, 1, 12)
        with pytest.raises(ValueError):
            QuadExt(1, 1, 0)

    def test_squarefree_decompose(self):
        assert squarefree_decompose(294) == (7, 6)
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(36) == (6, 1)
        assert is_squarefree(6)
        assert not is_squarefree(12)

    def test_squarefree_decompose_cap(self):
        # trial division stops at 10^6: a large smooth number or a cofactor
        # up to about 10^12 is fine, two primes above 10^6 are not
        assert squarefree_decompose(2**80 * 3 * 5**6 * 999983) == (2**40 * 5**3, 3 * 999983)
        assert squarefree_decompose(999983 * 999979) == (1, 999983 * 999979)
        assert squarefree_decompose(10**12 + 39) == (1, 10**12 + 39)
        with pytest.raises(ValueError, match="10\\^12"):
            squarefree_decompose(1000003 * 1000033)
        assert field_sqrt(Fr(5002001, 10**6)) == q(0, Fr(1, 1000), 5002001)
        with pytest.raises(ValueError, match="10\\^12"):
            field_sqrt(Fr(1000003 * 1000033, 7))

    def test_rational_sqrt(self):
        assert rational_sqrt(Fr(49, 36)) == Fr(7, 6)
        assert rational_sqrt(Fr(2)) is None

    def test_field_sqrt_mixed(self):
        x = q(3, 2, 2)  # (1 + sqrt(2))^2 = 3 + 2 sqrt(2)
        r = field_sqrt(x)
        assert r is not None and r * r == x
        assert field_sqrt(q(1, 1, 2)) is None

    def test_field_sqrt_picks_the_field(self):
        assert field_sqrt(q(8)) == q(0, 2, 2)  # a rational x: any field
        assert field_sqrt(q(8), d=2) == q(0, 2, 2)
        assert field_sqrt(q(8), d=3) is None
        assert field_sqrt(q(4), d=3) == q(2)
        assert field_sqrt(q(-4)) is None
        assert field_sqrt(q(3, 2, 2), d=2) == q(1, 1, 2)
        assert field_sqrt(q(3, 2, 2), d=3) is None  # never enlarged

    def test_quadratic_roots(self):
        assert quadratic_roots(1, -5, 6) == (q(3), q(2))
        assert quadratic_roots(1, 0, -2) == (q(0, 1, 2), q(0, -1, 2))
        assert quadratic_roots(1, 0, 1) is None  # complex pair
        # (x - sqrt(2))^2: a double root
        assert quadratic_roots(1, q(0, -2, 2), 2) == (q(0, 1, 2), q(0, 1, 2))
        # x^2 - sqrt(2) x - 1 has the roots (sqrt(2) +- sqrt(6))/2, in no
        # single Q(sqrt(d))
        assert quadratic_roots(1, q(0, -1, 2), -1) is None
        # coefficients from two fields
        assert quadratic_roots(1, q(0, 1, 2), q(Fr(-1, 2), Fr(-1, 2), 3)) is None

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10**6))
    def test_sqrt_literal_matches_squarefree_construction(self, n):
        s, d = squarefree_decompose(n)
        assert parse_quadext("sqrt(%d)" % n) == (q(s) if d == 1 else q(0, s, d))

    def test_str_and_parse_roundtrip(self):
        vals = [q(2), q(Fr(-1, 3)), q(0, Fr(5, 6), 6), q(0, -1, 6),
                q(Fr(1, 2), Fr(3, 4), 5), q(Fr(1, 2), Fr(-3, 4), 5), q(0)]
        for v in vals:
            assert parse_quadext(str(v)) == v

    def test_parse_literals(self):
        assert parse_quadext("5/6*sqrt(6)") == q(0, Fr(5, 6), 6)
        assert parse_quadext("-sqrt(6)") == q(0, -1, 6)
        assert parse_quadext("sqrt(8)") == q(0, 2, 2)
        assert parse_quadext("2") == q(2)
        with pytest.raises(ValueError):
            parse_quadext("1/0")
        assert parse_quadext("+2") == q(2)
        with pytest.raises(ValueError):
            parse_quadext("c")
        with pytest.raises(ValueError, match="exceeds"):
            parse_quadext("sqrt(100000000000000000039)")


rationals = st.builds(Fr, st.integers(min_value=-30, max_value=30),
                      st.integers(min_value=1, max_value=12))
elements = st.builds(lambda a, b, d: QuadExt(a, b, d),
                     rationals, rationals, st.sampled_from([2, 3, 5, 6]))


class TestFieldLaws:
    @settings(max_examples=60, deadline=None)
    @given(elements, elements)
    def test_commutativity(self, x, y):
        y = QuadExt(y.a, y.b, x.d if y.b != 0 else 1)
        assert x + y == y + x
        assert x * y == y * x

    @settings(max_examples=60, deadline=None)
    @given(elements, elements, elements)
    def test_distributivity(self, x, y, z):
        y = QuadExt(y.a, y.b, x.d if y.b != 0 else 1)
        z = QuadExt(z.a, z.b, x.d if z.b != 0 else 1)
        assert x * (y + z) == x * y + x * z

    @settings(max_examples=60, deadline=None)
    @given(elements)
    def test_inverse_roundtrip(self, x):
        if not x.is_zero():
            assert x * x.inverse() == QuadExt(1)
            assert (x ** 3) * (x ** -3) == QuadExt(1)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(rationals.map(QuadExt), elements),
           st.integers(min_value=-6, max_value=6))
    def test_power_matches_repeated_products(self, x, n):
        if x.is_zero() and n < 0:
            return
        base = x if n >= 0 else x.inverse()
        want = QuadExt(1)
        for _ in range(abs(n)):
            want = want * base
        assert x**n == want

    def test_power_products(self, monkeypatch):
        # square and multiply from the base itself: no product for x**1
        # and no squaring past the top bit
        x = q(1, 2, 3)
        real = QuadExt.__mul__
        calls = []

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(QuadExt, "__mul__", counted)
        for n, products in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
            calls.clear()
            x**n
            assert len(calls) == products, n

    @settings(max_examples=60, deadline=None)
    @given(elements)
    def test_sign_against_float(self, x):
        f = float(x)
        if abs(f) > 1e-9:
            assert x.sign() == (1 if f > 0 else -1)

    @settings(max_examples=60, deadline=None)
    @given(elements)
    def test_field_sqrt_recovers(self, s):
        # squares of pure-rational and pure-radical values round-trip
        for v in (QuadExt(s.a), QuadExt(0, s.b, s.d)):
            r = field_sqrt(v * v, d=v.d if v.d > 1 else None)
            assert r is not None
            assert r == abs(v)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(rationals.map(QuadExt), elements))
    def test_str_parse_roundtrip(self, x):
        assert parse_quadext(str(x)) == x

    @settings(max_examples=40, deadline=None)
    @given(rationals, st.integers(min_value=0, max_value=8))
    def test_pochhammer_recurrence(self, x, m):
        assert pochhammer(x, m + 1) == pochhammer(x, m) * (x + m)
