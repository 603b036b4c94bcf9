"""Front certification: recurrences, closed forms, speeds, the curve."""

from fractions import Fraction as Fr
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from algwaves import fisher
from algwaves.fisher import (
    FRONT_SPEED,
    FRONT_SPEED_SQUARED,
    certify,
    coefficient_map,
    consistency_condition,
    enumerate_speeds,
    exact_front_curve,
    gamma_factor,
    leading_coeffs_closed_form,
    leading_coeffs_recurrence,
    tables_agree,
    verify_gamma_identities,
)
from algwaves.poly import MultiPoly, VarRegistry
from algwaves.qfield import QuadExt, squarefree_decompose


# -- references: the tables as polynomials in (c0, c), built with MultiPoly --

REF_REG = VarRegistry(["c0", "c"])
REF_C0, REF_C = MultiPoly.var(REF_REG, "c0"), MultiPoly.var(REF_REG, "c")


def reference_recurrence(m):
    reg, c0, c = REF_REG, REF_C0, REF_C
    a = {2 * m: MultiPoly.one(reg)}
    a[2 * m - 1] = -(c0 + 2 * m * c)

    def h(j):
        return -(c0 + j * c)

    for k in range(1, m + 1):
        a[2 * m - 2 * k] = a[2 * m - 2 * k + 2] * Fr(2 * m - 2 * k + 2, 3 * k)
    for k in range(1, m):
        a[2 * m - 2 * k - 1] = (
            a[2 * m - 2 * k + 1] * (2 * m - 2 * k + 1)
            + h(2 * m - 2 * k) * a[2 * m - 2 * k]
        ) * Fr(1, 3 * k + 1)
    return a


def reference_closed_form(m):
    c0, c = REF_C0, REF_C
    a = {2 * m - 2 * j: MultiPoly.const(REF_REG, Fr(2, 3) ** j * comb(m, j))
         for j in range(m + 1)}
    a[2 * m - 1] = -(c0 + 2 * m * c)
    gam = gamma_factor(m)
    a[1] = (c0 * 5 - (c0 * 5 + c * (6 * m)) * gam) * (Fr(1, 5) * Fr(2, 3) ** m)
    return a


def affine_interpolant(values, c0, c):
    """The affine function of (c0, c) with these values at TABLE_POINTS."""
    v00, v10, v01 = values
    return v00 + (v10 - v00) * c0 + (v01 - v00) * c


def ref_value(poly, c0, c):
    return poly.evaluate({REF_REG.id_of("c0"): QuadExt(c0),
                          REF_REG.id_of("c"): QuadExt(c)})


class TestTables:
    def test_table_points(self):
        # affine_interpolant reads the values at exactly these points
        assert fisher.TABLE_POINTS == ((0, 0), (1, 0), (0, 1))

    def test_m1_recurrence(self):
        t = leading_coeffs_recurrence(1)
        assert t == {2: [1, 1, 1], 1: [0, -1, -2], 0: [Fr(2, 3)] * 3}

    def test_m2_recurrence(self):
        t = leading_coeffs_recurrence(2)
        assert t[4] == [1, 1, 1]
        assert t[3] == [0, -1, -4]  # -(c0 + 4c)
        assert t[2] == [Fr(4, 3)] * 3
        assert t[0] == [Fr(4, 9)] * 3
        # the middle odd entry -(13 c0 + 44 c)/12
        assert t[1] == [0, Fr(-13, 12), Fr(-11, 3)]

    def test_gamma_factor(self):
        assert gamma_factor(1) == Fr(5, 2)
        assert gamma_factor(2) == Fr(55, 16)

    def test_closed_form_matches_recurrence(self):
        for m in range(1, 9):
            assert tables_agree(
                leading_coeffs_recurrence(m), leading_coeffs_closed_form(m)
            )

    def test_closed_form_covers_expected_indices(self):
        t = leading_coeffs_closed_form(3)
        assert set(t) == {6, 5, 4, 2, 0, 1}

    def test_bad_index(self):
        with pytest.raises(ValueError):
            leading_coeffs_recurrence(0)
        with pytest.raises(ValueError):
            leading_coeffs_closed_form(0)

    @pytest.mark.parametrize("m", range(1, fisher.M_RECUR_MAX + 1))
    def test_affine_lemma_premise(self, m):
        # three points decide a table only if every entry is affine
        for table in (reference_recurrence(m), reference_closed_form(m)):
            assert all(entry.degree() <= 1 for entry in table.values())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20), st.fractions(), st.fractions())
    def test_interpolant_matches_reference(self, m, c0, c):
        for new, ref in ((leading_coeffs_recurrence, reference_recurrence),
                         (leading_coeffs_closed_form, reference_closed_form)):
            table, want = new(m), ref(m)
            assert set(table) == set(want)
            for j, values in table.items():
                assert affine_interpolant(values, c0, c) == ref_value(want[j], c0, c)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_perturbed_gamma_factor_is_rejected(self, monkeypatch, m):
        monkeypatch.setattr(fisher, "gamma_factor",
                            lambda k: gamma_factor(k) + Fr(1, 1000))
        assert not tables_agree(leading_coeffs_recurrence(m),
                                leading_coeffs_closed_form(m))

    @pytest.mark.parametrize("bad", [(1, 0), (1, 1), (3, 1), (4, 4), (6, 3)])
    def test_perturbed_even_binomial_is_rejected(self, monkeypatch, bad):
        monkeypatch.setattr(fisher, "comb",
                            lambda m, j: comb(m, j) + ((m, j) == bad))
        m = bad[0]
        assert not tables_agree(leading_coeffs_recurrence(m),
                                leading_coeffs_closed_form(m))


def rising_factorial_poly(p: MultiPoly, m: int) -> MultiPoly:
    out = MultiPoly.one(p.registry)
    for i in range(m):
        out = out * (p + i)
    return out


def gamma_identity_sides(m: int):
    """Both sides of both convolution identities as polynomials in (x, y);
    the binomials come from fisher.comb, so that a test can perturb them."""
    reg = VarRegistry(["x", "y"])
    x = MultiPoly.var(reg, "x")
    y = MultiPoly.var(reg, "y")
    lhs1 = MultiPoly.zero(reg)
    lhs2 = MultiPoly.zero(reg)
    for j in range(m + 1):
        term = rising_factorial_poly(x, j) * rising_factorial_poly(y, m - j)
        lhs1 = lhs1 + fisher.comb(m, j) * term
        lhs2 = lhs2 + fisher.comb(m, j) * (m - j) * term
    return [(lhs1, rising_factorial_poly(x + y, m)),
            (lhs2, m * y * rising_factorial_poly(x + y + 1, m - 1))]


def reference_gamma_identities(m_max: int) -> bool:
    """The identities proved by expanding both sides as polynomials."""
    return all(lhs == rhs for m in range(1, m_max + 1)
               for lhs, rhs in gamma_identity_sides(m))


class TestIdentities:
    def test_gamma_identities(self):
        assert verify_gamma_identities(6)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_grid_lemma_premise(self, m):
        # a polynomial of degree <= m in x and in y is fixed by its values
        # on {0..m}^2, so the grid check is a proof only if this holds
        for side in (s for pair in gamma_identity_sides(m) for s in pair):
            assert side.degree_in(0) <= m and side.degree_in(1) <= m

    @pytest.mark.parametrize("m_max", range(0, 7))
    def test_grid_agrees_with_expansion(self, m_max):
        assert verify_gamma_identities(m_max) == reference_gamma_identities(m_max)

    @pytest.mark.parametrize("bad", [(1, 0), (1, 1), (3, 1), (4, 4), (6, 0), (6, 3)])
    def test_perturbed_binomial_is_rejected(self, monkeypatch, bad):
        monkeypatch.setattr(fisher, "comb",
                            lambda m, j: comb(m, j) + ((m, j) == bad))
        assert not verify_gamma_identities(6)
        assert not reference_gamma_identities(6)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_identity_false_only_off_the_diagonal_is_rejected(self, monkeypatch, m):
        # (x+y)^(m) made wrong at x + y = 2m - 1, which no point x = y reaches
        monkeypatch.setattr(fisher, "prod", lambda r: prod(r) + (
            r.start == 2 * m - 1 and len(r) == m))
        assert not verify_gamma_identities(m)


def reference_consistency_condition(m, choice):
    """(c_squared, c, consistent, admissible, reason) computed in Q(sqrt(D))
    from the saddle eigenvalue (-c -+ sqrt(c^2 + 4))/2."""
    if choice == "sum":
        return (Fr(0), QuadExt(0), True, False,
                "only the zero speed satisfies the matching condition")
    D = 6 * m * (6 * m - 5)
    c2 = Fr(25, D)
    s, dt = squarefree_decompose(D)
    c_pos = QuadExt(0, Fr(5, s * dt), dt)
    root = QuadExt(0, Fr(12 * m - 5, s * dt), dt)  # sqrt(c^2 + 4)
    assert root * root == c_pos * c_pos + 4
    if choice == "lambda-":
        c = c_pos
        lam = (-c - root) / 2
    else:
        c = -c_pos
        lam = (-c + root) / 2
    consistent = (5 * lam + 6 * m * c).is_zero() and (c * c == QuadExt(c2))
    if not consistent:
        reason, admissible = "matching condition failed", False
    elif c.sign() <= 0:
        reason, admissible = "negative speed", False
    elif (c * c - 4).sign() < 0:
        reason, admissible = "speed below the monotone front threshold", False
    else:
        reason, admissible = "admissible", True
    return c2, c, consistent, admissible, reason


class TestSpeeds:
    def test_matches_reference(self):
        for m in range(1, fisher.M_ENUM_MAX + 1):
            for choice in fisher.CHOICES:
                cert = consistency_condition(m, choice)
                c2, c, consistent, admissible, reason = \
                    reference_consistency_condition(m, choice)
                assert (cert.m, cert.choice) == (m, choice)
                assert cert.c_squared == c2
                assert cert.c == c
                assert cert.sign == c.sign()
                assert (cert.consistent, cert.admissible, cert.reason) == \
                    (consistent, admissible, reason)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            consistency_condition(0, "lambda-")
        with pytest.raises(ValueError):
            consistency_condition(1, "lambda")

    def test_front_speed(self):
        cert = consistency_condition(1, "lambda-")
        assert cert.consistent and cert.admissible
        assert cert.c == FRONT_SPEED
        assert cert.c_squared == FRONT_SPEED_SQUARED

    def test_fast_eigenvalue_gives_negative_speed(self):
        cert = consistency_condition(1, "lambda+")
        assert cert.consistent and not cert.admissible
        assert cert.c == -FRONT_SPEED
        assert "negative" in cert.reason

    def test_sum_choice_collapses_to_zero_speed(self):
        cert = consistency_condition(5, "sum")
        assert not cert.admissible
        assert cert.c == QuadExt(0)

    def test_higher_index_below_threshold(self):
        cert = consistency_condition(2, "lambda-")
        assert cert.consistent and not cert.admissible
        assert cert.c_squared == Fr(25, 84)
        assert cert.c == QuadExt(0, Fr(5, 42), 21)
        assert "threshold" in cert.reason

    def test_enumeration(self):
        certs = enumerate_speeds(50)
        assert len(certs) == 150
        assert all(c.consistent for c in certs)
        good = [c for c in certs if c.admissible]
        assert len(good) == 1
        assert (good[0].m, good[0].choice) == (1, "lambda-")
        for c in certs:
            if c.choice in ("lambda+", "lambda-"):
                assert c.c_squared == Fr(25, 6 * c.m * (6 * c.m - 5))


class TestCertificate:
    def test_full_chain(self):
        cert = certify(m_enum=30, m_recur=8, m_gamma=5)
        assert cert.ok
        assert cert.speed == FRONT_SPEED
        assert cert.speed_squared == Fr(25, 6)
        assert cert.cofactor == QuadExt(0, -1, 6)
        assert cert.nullspace_dim == 1
        expected, _ = exact_front_curve()
        # registries differ between runs, compare via coefficient maps
        assert coefficient_map(cert.curve) == coefficient_map(expected)
        assert [s.ok for s in cert.stages] == [True] * 5

    def test_coefficient_map_values(self):
        cert = certify(m_enum=10, m_recur=3, m_gamma=2)
        r23 = QuadExt(0, Fr(2, 3), 6)
        assert cert.coefficients == {
            "y^2": QuadExt(1),
            "y": r23,
            "x*y": -r23,
            "x": QuadExt(Fr(2, 3)),
            "x^2": QuadExt(Fr(-4, 3)),
            "x^3": QuadExt(Fr(2, 3)),
        }

    def test_rational_field_fails_cleanly(self, monkeypatch):
        # stage 4 run at the rational speed 3/2, whose saddle eigenvalues
        # 1/2 and -2 admit no cubic through both rest states
        monkeypatch.setattr(fisher, "field_sqrt", lambda r: QuadExt(Fr(3, 2)))
        cert = certify(m_enum=10, m_recur=3, m_gamma=2)
        assert not cert.ok
        assert cert.curve is None and cert.speed == Fr(3, 2)
        failing = [s for s in cert.stages if not s.ok]
        assert [s.name for s in failing] == ["invariant curve"]
