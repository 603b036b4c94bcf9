"""Front certification: recurrences, closed forms, speeds, the curve."""

from fractions import Fraction as Fr
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from algwaves import fisher
from algwaves.fisher import (
    FRONT_SPEED,
    FRONT_SPEED_SQUARED,
    TABLE_POINTS,
    certify,
    coefficient_map,
    exact_front_curve,
    leading_coeffs_recurrence,
    verify_gamma_identities,
)
from algwaves.poly import MultiPoly, VarRegistry
from algwaves.qfield import QuadExt, pochhammer, squarefree_decompose
from algwaves.waves import catalog


# -- the closed forms as tables at TABLE_POINTS, in Fractions ----------------


def gamma_factor(m):
    """Rising factorial ratio (5/6)_m / (1/3)_m."""
    return pochhammer(Fr(5, 6), m) / pochhammer(Fr(1, 3), m)


def closed_form_at(m, c0, c):
    a = {2 * m - 2 * j: Fr(2, 3) ** j * comb(m, j) for j in range(m + 1)}
    a[2 * m - 1] = Fr(-(c0 + 2 * m * c))
    a[1] = (5 * c0 - (5 * c0 + 6 * m * c) * gamma_factor(m)) * Fr(2, 3) ** m / 5
    return a


def leading_coeffs_closed_form(m):
    """Closed forms: binomial even block, the top odd entry, and a_1, at
    each of TABLE_POINTS."""
    if m < 1:
        raise ValueError("index m must be positive")
    tables = [closed_form_at(m, c0, c) for c0, c in TABLE_POINTS]
    return {j: [t[j] for t in tables] for j in tables[0]}


def tables_agree(t1, t2):
    return all(t1[j] == t2[j] for j in t1.keys() & t2.keys())


def certified_entries(m, c0, c):
    """Every a_j from the terms stage 2 certifies, at one point (c0, c):
    e_k = (2/3)^k C(m, k) and o_k = K_k sum_(j<=k) h_j A(m, j)."""
    forms = [[fisher._value(t) for t in fisher._closed_forms(m, k)] for k in range(m + 1)]
    a = {2 * m - 2 * k: forms[k][0] for k in range(m + 1)}
    partial = 0
    for k in range(m):
        partial += -(c0 + (2 * m - 2 * k) * c) * forms[k][2]
        a[2 * m - 2 * k - 1] = forms[k][1] * partial
    return a


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
        assert TABLE_POINTS == ((0, 0), (1, 0), (0, 1))

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

    @pytest.mark.parametrize("m", range(1, 61))
    def test_certified_closed_forms_match_recurrence(self, m):
        # the terms stage 2 proves for every m, against the recurrence
        table = leading_coeffs_recurrence(m)
        points = [certified_entries(m, c0, c) for c0, c in TABLE_POINTS]
        assert set(points[0]) == set(table) == set(range(2 * m + 1))
        for j, values in table.items():
            assert values == [p[j] for p in points]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), st.fractions(), st.fractions())
    def test_certified_closed_forms_match_interpolant(self, m, c0, c):
        table = leading_coeffs_recurrence(m)
        got = certified_entries(m, c0, c)
        for j, values in table.items():
            assert affine_interpolant(values, c0, c) == got[j]

    @pytest.mark.parametrize("m", range(1, 61))
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
        monkeypatch.setitem(globals(), "gamma_factor",
                            lambda k, real=gamma_factor: real(k) + Fr(1, 1000))
        assert not tables_agree(leading_coeffs_recurrence(m),
                                leading_coeffs_closed_form(m))

    @pytest.mark.parametrize("bad", [(1, 0), (1, 1), (3, 1), (4, 4), (6, 3)])
    def test_perturbed_even_binomial_is_rejected(self, monkeypatch, bad):
        monkeypatch.setitem(globals(), "comb",
                            lambda m, j, real=comb: real(m, j) + ((m, j) == bad))
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


SPEED_CHOICES = ("lambda+", "lambda-", "sum")


def speed_stage():
    return certify().stages[0]


class TestSpeeds:
    """Stage 1's every-m statement, instantiated, against the reference:
    c_m^2 = 25/(6m(6m-5)) for either eigenvalue, the sum gives c = 0, and
    only (m = 1, lambda-) has c > 0 and c^2 >= 4."""

    def test_matches_reference(self):
        for m in range(1, 2001):
            for choice in SPEED_CHOICES:
                c2, c, consistent, admissible, _ = \
                    reference_consistency_condition(m, choice)
                assert consistent
                if choice == "sum":
                    assert c == QuadExt(0)
                else:
                    assert c2 == Fr(25, fisher._threshold(m)[0])
                    assert c.sign() == (1 if choice == "lambda-" else -1)
                assert admissible == ((m, choice) == (1, "lambda-"))

    def test_bad_arguments(self):
        # the ranges are gone: every stage holds for every m
        with pytest.raises(TypeError):
            certify(100)
        with pytest.raises(TypeError):
            certify(m_enum=5)

    def test_front_speed(self):
        c2, c, _, admissible, _ = reference_consistency_condition(1, "lambda-")
        assert admissible
        assert c == FRONT_SPEED
        assert c2 == FRONT_SPEED_SQUARED == Fr(25, fisher._threshold(1)[0])
        stage = speed_stage()
        assert stage.ok and "(m=1, lambda-)" in stage.detail

    def test_fast_eigenvalue_gives_negative_speed(self):
        _, c, consistent, admissible, reason = \
            reference_consistency_condition(1, "lambda+")
        assert consistent and not admissible
        assert c == -FRONT_SPEED
        assert "negative" in reason
        # excluded by the assumption c > 0, and the detail says so
        detail = speed_stage().detail
        assert "c > 0" in detail and "lambda+" in detail
        assert "mirrored front" in detail and "not by a proof" in detail

    def test_sum_choice_collapses_to_zero_speed(self):
        _, c, _, admissible, _ = reference_consistency_condition(5, "sum")
        assert not admissible
        assert c == QuadExt(0)
        assert "eigenvalue sum forces c = 0" in speed_stage().detail

    def test_higher_index_below_threshold(self):
        c2, c, consistent, admissible, reason = \
            reference_consistency_condition(2, "lambda-")
        assert consistent and not admissible
        assert c2 == Fr(25, 84) == Fr(25, fisher._threshold(2)[0])
        assert c == QuadExt(0, Fr(5, 42), 21)
        assert "threshold" in reason
        assert "c^2 >= 4" in speed_stage().detail

    def test_enumeration(self):
        # the threshold argument at m <= 50: g grows by 72m + 6 > 0, so
        # c_m^2 = 25/g(m) falls below 4 from m = 2 on
        for m in range(1, 51):
            g, step = fisher._threshold(m)
            assert fisher._threshold(m + 1)[0] - g == step > 0
            assert (Fr(25, g) >= 4) == (m == 1)


class TestCertificate:
    def test_full_chain(self):
        cert = certify()
        assert cert.ok
        assert cert.speed == FRONT_SPEED
        assert cert.speed_squared == Fr(25, 6)
        assert cert.cofactor == QuadExt(0, -1, 6)
        assert cert.nullspace_dim == 1
        assert [s.ok for s in cert.stages] == [True] * 5
        assert all("every m" in s.detail for s in cert.stages[:3])

    def test_curve_is_the_catalog_relation(self):
        # the certified cubic is the catalog's front relation made monic in
        # y, under (u, du) -> (x, y)
        curve = certify().curve
        rel = catalog()["fisher"].relation
        x, y = (MultiPoly.var(curve.registry, v) for v in ("x", "y"))
        want = rel.p.monic("ylex").substitute({rel.u_var: x, rel.du_var: y},
                                              registry=curve.registry)
        assert curve == want

    def test_coefficient_map_values(self):
        cert = certify()
        assert cert.coefficients == {
            "y^2": QuadExt(1),
            "x*y": QuadExt(0, Fr(2, 3), 6),
            "x^2": QuadExt(Fr(2, 3)),
            "x^3": QuadExt(Fr(-2, 3)),
        }

    def test_exact_front_curve_keeps_its_terms(self):
        # the front relation at (1 - x, y), monic in y, typed out term by
        # term as the reference
        f, cofactor = exact_front_curve()
        x, y = (MultiPoly.var(f.registry, v) for v in ("x", "y"))
        r23 = QuadExt(0, Fr(2, 3), 6)
        assert f == (y * y + r23 * y - r23 * (x * y) + Fr(2, 3) * x
                     - Fr(4, 3) * (x * x) + Fr(2, 3) * (x**3))
        assert cofactor == QuadExt(0, -1, 6)

    def test_rational_field_fails_cleanly(self, monkeypatch):
        # stage 4 run at the rational speed 3/2, whose saddle eigenvalues
        # 1/2 and -2 admit no cubic through both rest states
        monkeypatch.setattr(fisher, "field_sqrt", lambda r: QuadExt(Fr(3, 2)))
        cert = certify()
        assert not cert.ok
        assert cert.curve is None and cert.speed == Fr(3, 2)
        failing = [s for s in cert.stages if not s.ok]
        assert [s.name for s in failing] == ["invariant curve"]


def replaced(name, index, value):
    """fisher.<name> with item index of its result replaced by value(*args)."""
    real = getattr(fisher, name)

    def perturbed(*args):
        out = list(real(*args))
        out[index] = value(*args)
        return tuple(out)
    return perturbed


class TestPerturbedCertificate:
    """Each every-m identity, made false, fails its own stage and no other."""

    @pytest.mark.parametrize("name, index, value, stage, check", [
        ("_wz_pair", 1, lambda m, j, x, y: ([-j, m + y - j + 1], [m + 1 - j, m + x + y]),
         "factorial identities", "WZ identity"),
        ("_wz_pair", 2, lambda m, j, x, y: ([x + m + 1], [x + y + m]),
         "factorial identities", "boundary ratio"),
        ("_wz_pair", 0, lambda m, j, x, y: fisher._binomial(m, j) + [
            ("rise", x, j, 1), ("rise", y + 1, m - j, 1), ("rise", x + y, m, -1)],
         "factorial identities", "WZ identity"),
        ("_steps", 1, lambda m, k: (2 * m - 2 * k + 3, 3 * k + 1),
         "coefficient recurrence", "odd step"),
        ("_steps", 0, lambda m, k: (2 * m - 2 * k + 2, 3 * k + 1),
         "coefficient recurrence", "even step"),
        ("_closed_forms", 2, lambda m, k: fisher._binomial(m, k) + [
            ("rise", Fr(2, 3), k, 1), ("rise", Fr(1, 2), m - k, 1)],
         "coefficient recurrence", "odd weight"),
        ("_threshold", 1, lambda m: 72 * m + 5, "speed enumeration", "threshold step"),
        ("_threshold", 0, lambda m: 6 * m * (6 * m - 4),
         "speed enumeration", "matching root"),
    ], ids=["wz-certificate", "boundary-ratio", "wz-term", "k-ratio",
            "even-block-ratio", "odd-weight", "threshold-step",
            "threshold-polynomial"])
    def test_perturbed_identity_fails_its_stage(self, monkeypatch, name, index,
                                                value, stage, check):
        monkeypatch.setattr(fisher, name, replaced(name, index, value))
        cert = certify()
        assert not cert.ok
        failing = [s for s in cert.stages if not s.ok]
        assert [s.name for s in failing] == [stage]
        assert failing[0].detail.startswith("failed: ")
        assert check in failing[0].detail
