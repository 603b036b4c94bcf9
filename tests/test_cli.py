"""End-to-end command line checks, including exit codes and JSON shape."""

import json
import time
from pathlib import Path

import pytest

from algwaves import cli, fisher
from algwaves.cli import main
from algwaves.darboux import MAX_SEARCH_DEGREE, search_constant_cofactor
from algwaves.pde import parse_pde
from algwaves.qfield import QuadExt, parse_quadext
from algwaves.reduction import to_planar, travelling_wave_reduce

FISHER = "u_t - u_xx - u + u^2 = 0"
CUBIC = "u_t - u_xx + 3*u*u_x - u^3 + 4*u^2 - 3*u = 0"
NAGUMO = "u_t - u_xx - 2*u*(u-1/4)*(1-u) = 0"
# at c = sqrt(2) its saddles (+-sqrt(3), 0) lie in another field than the system
MIXED = "u_t - u_xx + 2/3*u^3 - 2*u = 0"
FRONT_SPEED = "5/6*sqrt(6)"
# rest values -1, -sqrt(2)/2 and 1: two rational roots beside a radical one
RADICAL_CUBIC = "u_t - u_xx - (u^2-1)*(1+sqrt(2)*u) = 0"
HUGE_SQRT = "sqrt(100000000000000000039)"
HUGE_SPEED = "100000000000000000039"
DATA = Path(__file__).resolve().parent / "data"


# (golden file, find-curve flags after --pde FISHER, exit code), compared
# byte for byte: the README's three find-curve lines, a degree-6
# search at the front speed, three negative searches: to the degree
# cap at c = 2, at sqrt(21) (saddle eigenvalues (-sqrt(21) +- 5)/2) and
# at a large rational speed whose saddle radicand is near 1e10, the
# mirrored front at -5/6*sqrt(6), Nagumo through both rest states (its
# own --pde replaces the Fisher one), whose cubic field has no
# constant-cofactor weights, and a negative search at c = 10000000019,
# whose c^2 + 4 has no squarefree part trial division can find
GOLDEN_SEARCHES = [
    ("find_curve_front.json", ["--speed", FRONT_SPEED], 0),
    ("find_curve_two.json", ["--speed", "2"], 2),
    ("find_curve_sqrt2.json", ["--speed", "sqrt(2)"], 2),
    ("find_curve_front_degree6.json", ["--speed", FRONT_SPEED, "--max-degree", "6"], 0),
    ("find_curve_two_degree20.json", ["--speed", "2", "--max-degree", "20"], 2),
    ("find_curve_sqrt21_degree6.json", ["--speed", "sqrt(21)", "--max-degree", "6"], 2),
    ("find_curve_large_rational.json", ["--speed", "97057/9", "--max-degree", "6"], 2),
    ("find_curve_mirrored_front_degree6.json",
     ["--speed=-5/6*sqrt(6)", "--max-degree", "6"], 0),
    ("find_curve_nagumo_degree6.json",
     ["--pde", NAGUMO, "--speed", "1/2", "--point", "0,0", "--point", "1,0",
      "--max-degree", "6"], 4),
    ("find_curve_huge_rational_degree6.json",
     ["--speed", "10000000019", "--max-degree", "6"], 2),
    ("find_curve_mixed_fields.json", ["--pde", MIXED, "--speed", "sqrt(2)"], 4),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "reduce", "--pde",
                             "u_t + u*u_x - a*u_xx = 0", "--param", "a=1")
        assert code == 0
        assert "y2' = (y1*y2 - y2*c) / (1)" in out

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "reduce", "--pde", FISHER, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "dwv1"
        assert doc["command"] == "reduce"
        assert doc["result"]["order"] == 2
        assert doc["result"]["exceptional_speeds"] == []

    def test_exceptional_speeds_in_no_single_field(self, capsys):
        # c^2 - sqrt(2)*c - 1 = 0 at c = (sqrt(2) +- sqrt(6))/2
        code, out, err = run(capsys, "reduce", "--pde",
                             "u_tt - u_xx + sqrt(2)*u_xt - u = 0", "--json")
        assert code == 0 and err == ""
        speeds = json.loads(out)["result"]["exceptional_speeds"]
        assert [float(c) for c in speeds] == pytest.approx(
            [-0.5176380902, 1.9318516526], abs=1e-9)

    def test_exceptional_speeds_reported(self, capsys):
        code, out, _ = run(capsys, "reduce", "--pde",
                           "u_tt - u_xx - u*u_x = 0")
        assert code == 0
        assert "exceptional speeds: -1, 1" in out

    def test_parse_error_exit_1(self, capsys):
        code, out, err = run(capsys, "reduce", "--pde", "u_t +")
        assert code == 1
        assert "error:" in err

    def test_missing_equation_exit_1(self, capsys):
        code, _, err = run(capsys, "reduce")
        assert code == 1
        assert "no equation" in err

    def test_huge_radicand_in_pde_fails_fast(self, capsys):
        t0 = time.perf_counter()
        code, _, err = run(capsys, "reduce", "--pde",
                           "u_t - %s*u_xx = 0" % HUGE_SQRT)
        assert code == 1 and "exceeds" in err
        assert time.perf_counter() - t0 < 1.0

    def test_bad_flag_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--no-such-flag"])
        assert exc.value.code == 1

    def test_equation_from_a_file(self, capsys, tmp_path):
        path = tmp_path / "fisher.pde"
        path.write_text(FISHER + "\n")
        assert run(capsys, "reduce", "--pde-file", str(path)) == run(
            capsys, "reduce", "--pde", FISHER)

    def test_parameter_without_value_exit_1(self, capsys):
        code, out, err = run(capsys, "reduce", "--pde", "u_t + u*u_x - a*u_xx = 0",
                             "--param", "a")
        assert (code, out) == (1, "")
        assert err == "error: parameter 'a' is not NAME=VALUE\n"

    def test_unbound_parameter_leaves_speeds_undetermined(self, capsys):
        pde = "u_tt - a*u_xx + u^2 = 0"
        code, out, err = run(capsys, "reduce", "--pde", pde)
        assert (code, err) == (0, "")
        assert "exceptional speeds: undetermined (parameters unbound)\n" in out
        assert "unbound parameters: a\n" in out
        code, out, _ = run(capsys, "reduce", "--pde", pde, "--json")
        result = json.loads(out)["result"]
        assert code == 0 and result["exceptional_speeds"] is None
        assert result["unbound_parameters"] == ["a"]


class TestEquilibria:
    def test_rest_values(self, capsys):
        code, out, _ = run(capsys, "equilibria", "--pde", FISHER,
                           "--speed", FRONT_SPEED)
        assert code == 0
        assert "u = 0" in out and "u = 1" in out

    def test_requires_speed(self, capsys):
        code, _, err = run(capsys, "equilibria", "--pde", FISHER)
        assert code == 1

    def test_huge_radicand_speed_fails_fast(self, capsys):
        t0 = time.perf_counter()
        code, _, err = run(capsys, "equilibria", "--pde", FISHER,
                           "--speed", HUGE_SQRT)
        assert code == 1 and "exceeds" in err
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("pde,want", [
        # roots (sqrt(2) +- sqrt(6))/2 lie in no single Q(sqrt(d))
        ("u_t - u_xx + u^2 - sqrt(2)*u - 1 = 0", (-0.5176380902, 1.9318516526)),
        # coefficients from two fields
        ("u_t - u_xx + u^2 + sqrt(2)*u - 1/2 - 1/2*sqrt(3) = 0",
         (-2.0731321850, 0.6589186226)),
        ("u_t - u_xx + sqrt(2)*u^2 - u - sqrt(3) = 0",
         (-0.8082318182, 1.5153385994)),
        ("u_t - u_xx + u^3 - sqrt(2)*u^2 - sqrt(3)*u + 1 = 0",
         (-1.0719245073, 0.4605608193, 2.0255772504)),
    ])
    def test_roots_in_no_single_field_are_approximate(self, capsys, pde, want):
        code, out, err = run(capsys, "equilibria", "--pde", pde, "--speed", "1",
                             "--json")
        assert code == 0 and err == ""
        rows = json.loads(out)["result"]["equilibria"]
        assert [r["exact"] for r in rows] == [False] * len(want)
        assert [float(r["value"]) for r in rows] == pytest.approx(want, abs=1e-9)

    def test_double_irrational_roots_are_both_found(self, capsys):
        # (u^2 - 2)^2: np.roots splits each double root into a complex pair,
        # so the squarefree part u^2 - 2 is solved instead
        code, out, err = run(capsys, "equilibria", "--pde",
                             "u_t - u_xx + u^4 - 4*u^2 + 4 = 0", "--speed", "1")
        assert (code, err) == (0, "")
        assert out == ("2 rest value(s)\n"
                       "  u = -sqrt(2)  (exact, multiplicity 2)\n"
                       "  u = sqrt(2)  (exact, multiplicity 2)\n")

    def test_coefficients_from_two_fields_without_real_root(self, capsys):
        # sqrt(2) u^2 - u + sqrt(3) has discriminant 1 - 4 sqrt(6) < 0
        code, out, err = run(capsys, "equilibria", "--pde",
                             "u_t - u_xx + sqrt(2)*u^2 - u + sqrt(3) = 0",
                             "--speed", "1")
        assert code == 2 and err == ""
        assert out == "0 rest value(s)\n"

    @pytest.mark.parametrize("command,want", [
        ("equilibria", (0, "1 rest value(s)\n"
                           "  u = -1.0000000009068637  (approximate, multiplicity 1)\n", "")),
        ("find-curve", (1, "", "error: no exact equilibria; give --point explicitly\n")),
    ])
    def test_many_rational_root_candidates_finish_fast(self, capsys, command, want):
        # 735134400 has 1,344 divisors, so about 3.6 million fractions +-p/q
        # could be rational roots of the rest-value cubic; none is one
        t0 = time.perf_counter()
        got = run(capsys, command, "--pde", "u_t - u_xx - 735134400*u^3 + 2*u - 735134400 = 0",
                  "--speed", "1")
        assert got == want
        assert time.perf_counter() - t0 < 2.0

    def test_rational_roots_beside_coefficients_above_a_billion_are_exact(self, capsys):
        # the leading coefficient 6*735134400 is above 10^9, so 1/3 and 1/2
        # come from the convergents of the numeric roots, checked exactly
        code, out, err = run(capsys, "equilibria", "--pde",
                             "u_t - u_xx + (2*u-1)*(3*u-1)*(735134400*u^2 + u + 735134400) = 0",
                             "--speed", "1")
        assert (code, err) == (0, "")
        assert out == ("2 rest value(s)\n"
                       "  u = 1/3  (exact, multiplicity 1)\n"
                       "  u = 1/2  (exact, multiplicity 1)\n")

    @pytest.mark.parametrize("pde,want", [
        # (u - 1)(sqrt(2) u^2 + 1): the rational parts of the cubic lead
        # with a zero, the radical parts end in one
        ("u_t - u_xx - sqrt(2)*u^3 + sqrt(2)*u^2 - u + 1 = 0",
         "1 rest value(s)\n  u = 1  (exact, multiplicity 1)\n"),
        (RADICAL_CUBIC, "3 rest value(s)\n"
                        "  u = -1  (exact, multiplicity 1)\n"
                        "  u = -1/2*sqrt(2)  (exact, multiplicity 1)\n"
                        "  u = 1  (exact, multiplicity 1)\n"),
    ])
    def test_rational_roots_over_a_radical_field_are_exact(self, capsys, pde, want):
        assert run(capsys, "equilibria", "--pde", pde, "--speed", "1") == (0, want, "")

    def test_continuum_of_rest_states_exit_2(self, capsys):
        code, out, err = run(capsys, "equilibria", "--pde", "u_t - u_xx = 0",
                             "--speed", "1")
        assert (code, out) == (2, "")
        assert err == "error: every constant profile is a rest state\n"

    def test_sum_of_two_radicands_is_not_a_literal(self, capsys):
        # sqrt(2) + sqrt(3) lies in no single Q(sqrt(d)): the equation
        # itself is rejected before any root is sought
        code, out, err = run(capsys, "equilibria", "--pde",
                             "u_t - u_xx + u^3 - sqrt(2)*u^2 - sqrt(3)*u"
                             " + sqrt(2) + sqrt(3) - 1 = 0", "--speed", "1")
        assert code == 1 and out == ""
        assert err == "error: cannot combine sqrt(2) with sqrt(3)\n"


class TestFindCurve:
    def test_front_speed_finds_cubic(self, capsys):
        code, out, _ = run(capsys, "find-curve", "--pde", FISHER,
                           "--speed", FRONT_SPEED)
        assert code == 0
        assert "1 invariant curve(s)" in out
        assert "cofactor -sqrt(6)" in out

    def test_generic_speed_finds_nothing(self, capsys):
        code, out, _ = run(capsys, "find-curve", "--pde", FISHER,
                           "--speed", "2", "--max-degree", "4")
        assert code == 2
        assert "no invariant curve" in out

    def test_saddle_with_no_exact_jacobian_is_undetermined(self, capsys):
        # at (sqrt(5), 0) the partial derivative of sqrt(2)*u*u_x is
        # sqrt(2)*sqrt(5): no single field holds the Jacobian
        code, out, err = run(capsys, "find-curve", "--pde",
                             "u_t - u_xx - sqrt(5)*u + u^2 + sqrt(2)*u*u_x = 0", "--speed", "1")
        assert (code, err) == (4, "")
        assert out.splitlines()[1:] == ["  (0, 0) is not a saddle; no cofactor constraint",
                                        "  eigenvalues at (sqrt(5), 0) are not exactly representable"]

    def test_no_cofactor_candidate_is_undetermined(self, capsys):
        # a node constrains no cofactor, so an empty search proves nothing
        code, out, _ = run(capsys, "find-curve", "--pde", FISHER,
                           "--speed", "2", "--point", "0,0")
        assert code == 4
        assert out == ("undetermined: no cofactor candidate for a curve through (0, 0)\n"
                       "  (0, 0) is not a saddle; no cofactor constraint\n")

    def test_nonconstant_cofactor_is_undetermined(self, capsys):
        # y - x^2 + x = 0 passes through both points and is invariant with
        # cofactor x - 3; the search tries constant cofactors only
        argv = ("find-curve", "--pde", CUBIC, "--speed", "4", "--max-degree", "4",
                "--point", "0,0", "--point", "1,0")
        code, out, _ = run(capsys, *argv)
        assert code == 4
        assert out.startswith("undetermined: no curve with a constant cofactor up to "
                              "degree 4 through (0, 0), (1, 0)\n")
        code, out, _ = run(capsys, *argv, "--json")
        doc = json.loads(out)
        assert code == 4
        assert doc["result"]["status"] == "undetermined"
        assert any("nonconstant cofactors were not searched" in n
                   for n in doc["result"]["notes"])

    def test_name_as_speed_exit_1(self, capsys):
        code, _, err = run(capsys, "find-curve", "--pde", FISHER,
                           "--speed", "c")
        assert code == 1
        assert "no names" in err

    def test_huge_rational_speed_fails_fast(self, capsys):
        # the exact saddle eigenvalues need the square root of c^2 + 4, a
        # 41-digit integer whose squarefree part would take trial division
        # for ever; their images mod p need no square root of it
        t0 = time.perf_counter()
        code, out, err = run(capsys, "find-curve", "--pde", FISHER,
                             "--speed", HUGE_SPEED, "--max-degree", "2")
        assert (code, err) == (2, "")
        assert out.startswith("no invariant curve up to degree 2")
        assert time.perf_counter() - t0 < 1.0

    def test_node_spectrum_is_never_sought(self, capsys):
        # c^2 - 4 = 10000453 * 10000457, two primes above 10^6, so the
        # node's discriminant has no squarefree part below the cap; the node
        # constrains nothing, and the saddle's c^2 + 4 = 13 * 5309 * 11953 *
        # 121229 decomposes
        code, out, err = run(capsys, "find-curve", "--pde", FISHER,
                             "--speed", "10000455", "--max-degree", "4")
        assert (code, err) == (2, "")
        assert "no invariant curve" in out

    def test_speed_with_large_denominator(self, capsys):
        # c^2 + 4 = 5002001/10^6: numerator times denominator is above 10^12,
        # but trial division leaves only 5002001 once 2 and 5 are divided out
        code, out, _ = run(capsys, "find-curve", "--pde", FISHER,
                           "--speed", "1001/1000", "--max-degree", "2")
        assert code == 2 and "no invariant curve" in out

    def test_negative_degree_bound_exit_1(self, capsys):
        code, _, err = run(capsys, "find-curve", "--pde", FISHER,
                           "--speed", "2", "--max-degree", "-1")
        assert code == 1
        assert "nonnegative" in err

    def test_degree_bound_above_the_cap_exit_1(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "find-curve", "--pde", FISHER,
                             "--speed", FRONT_SPEED, "--max-degree",
                             str(MAX_SEARCH_DEGREE + 1))
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and out == ""
        assert err == "error: degree bound must be at most %d, got %d\n" % (
            MAX_SEARCH_DEGREE, MAX_SEARCH_DEGREE + 1)

    def test_given_cofactor_proves_nothing(self, capsys):
        # the cubic through both points has the cofactor -sqrt(6), not 1
        argv = ("find-curve", "--pde", FISHER, "--speed", FRONT_SPEED,
                "--cofactor", "1")
        code, out, _ = run(capsys, *argv)
        assert code == 4
        assert out == ("undetermined: no curve with a given cofactor up to "
                       "degree 3 through (0, 0), (1, 0)\n"
                       "  only the cofactors given with --cofactor were searched\n")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 4
        result = json.loads(out)["result"]
        assert result["status"] == "undetermined" and result["count"] == 0
        assert result["notes"] == ["only the cofactors given with --cofactor "
                                   "were searched"]
        code, out, _ = run(capsys, *argv, "--cofactor=-sqrt(6)", "--json")
        assert code == 0
        assert json.loads(out)["result"]["status"] == "found"

    def test_status_in_json(self, capsys):
        for speed, points, status, want in (("2", ["--point", "0,0"], "undetermined", 4),
                                            ("sqrt(2)", [], "proved-none", 2),
                                            ("2", [], "proved-none", 2),
                                            (FRONT_SPEED, [], "found", 0)):
            code, out, _ = run(capsys, "find-curve", "--pde", FISHER,
                               "--speed", speed, *points, "--json")
            doc = json.loads(out)
            assert code == want
            assert doc["schema"] == "dwv1"
            assert doc["result"]["status"] == status

    @pytest.mark.parametrize("pde, speed, points, cofactors, degree", [
        (FISHER, FRONT_SPEED, None, None, 3),
        (FISHER, "2", None, None, 3),
        (FISHER, "sqrt(2)", None, None, 3),
        (CUBIC, "4", ["0,0", "1,0"], None, 4),
        (FISHER, FRONT_SPEED, None, ["1"], 3),
        (FISHER, FRONT_SPEED, ["0,0"], None, 3),
    ])
    def test_status_is_the_library_verdict(self, capsys, pde, speed, points,
                                           cofactors, degree):
        argv = ["find-curve", "--pde", pde, "--speed", speed,
                "--max-degree", str(degree), "--json"]
        for p in points or ():
            argv += ["--point", p]
        for k in cofactors or ():
            argv += ["--cofactor", k]
        code, out, _ = run(capsys, *argv)
        result = json.loads(out)["result"]
        ps = to_planar(travelling_wave_reduce(parse_pde(pde)).bind_speed(parse_quadext(speed)))
        pts = [tuple(map(parse_quadext, p.split(","))) for p in points or ("0,0", "1,0")]
        cands = None if cofactors is None else [parse_quadext(k) for k in cofactors]
        hits = search_constant_cofactor(ps, pts, degree, cands)
        assert result["status"] == hits.status
        assert result["count"] == len(hits)
        assert code == {"found": 0, "proved-none": 2, "undetermined": 4}[hits.status]
        if cofactors is None:  # the --cofactor note names the flag
            assert result["notes"] == hits.notes

    @pytest.mark.parametrize("name, flags, want", GOLDEN_SEARCHES)
    def test_json_matches_golden_copy(self, capsys, name, flags, want):
        code, out, err = run(capsys, "find-curve", "--pde", FISHER, *flags, "--json")
        assert (code, err) == (want, "")
        assert out == (DATA / name).read_text()

    def test_explicit_points_and_json(self, capsys):
        code, out, _ = run(capsys, "find-curve", "--pde", FISHER,
                           "--speed", FRONT_SPEED, "--point", "0,0",
                           "--point", "1,0", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["result"]["count"] == 1
        assert doc["result"]["curves"][0]["degree"] == 3

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_cofactor_from_another_field_exits_1(self, capsys, json_flag):
        got = run(capsys, "find-curve", "--pde", FISHER, "--speed", FRONT_SPEED,
                  "--cofactor", "sqrt(2)", *json_flag)
        assert got == (1, "", "error: cannot combine sqrt(2) with sqrt(6)\n")

    @pytest.mark.parametrize("flags", [[], ["--point", "sqrt(3),0"],
                                       ["--cofactor", "sqrt(2)"]])
    def test_mixed_fields_are_undetermined(self, capsys, flags):
        code, out, err = run(capsys, "find-curve", "--pde", MIXED, "--speed", "sqrt(2)", *flags)
        assert (code, err) == (4, "")
        assert out.endswith("  no candidate was solved: no exact invariance matrix holds the "
                            "system and the points (cannot combine sqrt(2) with sqrt(3))\n")

    def test_exact_rest_states_over_a_radical_field_are_searched(self, capsys):
        code, out, err = run(capsys, "find-curve", "--pde", RADICAL_CUBIC,
                             "--speed", "1", "--max-degree", "4")
        assert (code, err) == (4, "")
        assert out.startswith("undetermined: no curve with a constant cofactor up to"
                              " degree 4 through (-1, 0), (-1/2*sqrt(2), 0), (1, 0)\n")

    def test_point_without_two_coordinates_exit_1(self, capsys):
        code, out, err = run(capsys, "find-curve", "--pde", FISHER, "--speed", "2",
                             "--point", "1")
        assert (code, out) == (1, "")
        assert err == "error: point '1' is not X,Y\n"

    @pytest.mark.parametrize("command,flags,what", [
        ("find-curve", [], "to search for curves"),
        ("shoot", ["--saddle", "1,0", "--target", "0,0"], "for shooting"),
    ])
    def test_empty_speed_exit_1(self, capsys, command, flags, what):
        code, out, err = run(capsys, command, "--pde", FISHER, "--speed", "", *flags)
        assert (code, out) == (1, "")
        assert err == "error: --speed is required %s\n" % what

    def test_non_equilibrium_point_rejected(self, capsys):
        code, _, err = run(capsys, "find-curve", "--pde", FISHER,
                           "--speed", FRONT_SPEED, "--point", "1/2,1/2")
        assert code == 1
        assert "not an equilibrium" in err


class TestCertify:
    def test_full_certificate(self, capsys):
        code, out, _ = run(capsys, "certify-fisher")
        assert code == 0
        assert "speed: c = 5/6*sqrt(6) with c^2 = 25/6" in out
        assert out.count("[ok ]") == 5

    def test_wrong_field_fails(self, capsys, monkeypatch):
        # stage 4 run at the speed sqrt(5), whose plane system has no cubic
        monkeypatch.setattr(fisher, "field_sqrt", lambda r: QuadExt(0, 1, 5))
        code, out, _ = run(capsys, "certify-fisher")
        assert code == 2
        assert out.count("[ok ]") == 3
        assert "[FAIL] invariant curve: curve solve did not return a single cubic" in out

    def test_json_coefficients(self, capsys):
        code, out, _ = run(capsys, "certify-fisher", "--json")
        doc = json.loads(out)
        assert doc["result"]["ok"] is True
        assert doc["result"]["coefficients"]["y^2"] == "1"
        assert doc["result"]["coefficients"]["x*y"] == "2/3*sqrt(6)"

    def test_json_matches_golden_copy(self, capsys):
        code, out, _ = run(capsys, "certify-fisher", "--json")
        assert code == 0
        assert out == (DATA / "certify_fisher.json").read_text()

    # every stage holds for every m, so the range flags and the range
    # checks that once bounded them are gone: the parser rejects each flag
    @pytest.mark.parametrize("flag, value, message", [
        ("--m-gamma", "-1", "m_gamma must be at least 1"),
        ("--m-gamma", "0", "m_gamma must be at least 1"),
        ("--m-recur", "0", "m_recur must be at least 1"),
        ("--m-enum", "0", "m_enum must be at least 1"),
        ("--m-gamma", "41", "m_gamma must be at most 40"),
        ("--m-recur", "61", "m_recur must be at most 60"),
        ("--m-enum", "2001", "m_enum must be at most 2000"),
    ])
    def test_empty_range_or_bad_radicand_exit_1(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["certify-fisher", flag, value])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert message not in captured.err


class TestCatalogAndVerify:
    def test_catalog_lists_everything(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        for name in ("burgers", "kdv", "boussinesq", "imbq", "fisher",
                     "nagumo", "power-logistic"):
            assert name + ":" in out

    def test_single_entry_with_override(self, capsys):
        code, out, _ = run(capsys, "catalog", "--entry", "power-logistic",
                           "--param", "q=3")
        assert code == 0
        assert "u^4" in out and "u^7" in out

    def test_verify_all_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert out.count("[ok ]") == 7

    @pytest.mark.parametrize("entry, param", [
        ("kdv", "c=3+2*sqrt(2)"),  # sqrt(c) = 1 + sqrt(2)
        ("nagumo", "a=6+4*sqrt(2)"),  # sqrt(a/2) = 1 + sqrt(2)
    ])
    def test_verify_radical_parameter_with_a_root(self, capsys, entry, param):
        code, out, _ = run(capsys, "verify", "--entry", entry, "--param", param)
        assert code == 0
        assert out.startswith("[ok ]") and "(boundary ok)" in out

    @pytest.mark.parametrize("entry, param, message", [
        ("kdv", "c=sqrt(2)", "exact square root"),
        ("nagumo", "a=2*sqrt(2)", "exact square root"),
    ])
    def test_radical_parameter_without_a_root_exit_1(self, capsys, entry, param,
                                                      message):
        code, out, err = run(capsys, "verify", "--entry", entry, "--param", param)
        assert code == 1 and out == ""
        assert message in err

    def test_verify_unreachable_tolerance_exit_3(self, capsys):
        code, out, _ = run(capsys, "verify", "--entry", "imbq",
                           "--tol", "1e-20")
        assert code == 3
        assert "[BAD]" in out

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_verify_without_samples_exit_1(self, capsys, samples):
        code, out, err = run(capsys, "verify", "--samples", samples)
        assert code == 1
        assert out == ""
        assert "at least one sample" in err

    @pytest.mark.parametrize("flags,message", [
        (["--lo", "nan"], "sample range must be finite"),
        (["--hi", "inf"], "sample range must be finite"),
        (["--tol", "nan"], "--tol must be finite and nonnegative"),
        (["--tol", "-1"], "--tol must be finite and nonnegative"),
        (["--tol", "inf"], "--tol must be finite and nonnegative"),
        (["--samples", "100001"], "verify takes at most 100000 samples"),
    ])
    def test_verify_meaningless_numbers_exit_1(self, capsys, flags, message):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", *flags)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["catalog", "verify"])
    def test_param_without_entry_exit_1(self, capsys, command):
        code, out, err = run(capsys, command, "--param", "q=3")
        assert code == 1
        assert out == ""
        assert "--param needs --entry" in err

    def test_param_is_a_field_literal(self, capsys):
        _, want, _ = run(capsys, "catalog", "--entry", "power-logistic",
                         "--param", "q=3")
        code, out, _ = run(capsys, "catalog", "--entry", "power-logistic",
                           "--param", "q=3/1")
        assert code == 0 and out == want
        code, out, err = run(capsys, "catalog", "--entry", "power-logistic",
                             "--param", "q=1_0")
        assert code == 1 and out == ""
        assert err.startswith("error: unexpected '_0'")

    def test_unknown_entry_exit_1(self, capsys):
        code, _, err = run(capsys, "verify", "--entry", "sine-gordon")
        assert code == 1
        assert "unknown catalog entry" in err


class TestPFromExp:
    def test_burgers_shape(self, capsys):
        code, out, _ = run(capsys, "p-from-exp", "--q1", "2", "--q2", "1,0,1",
                           "--rate", "1/2")
        assert code == 0
        assert out.strip() == "p(u, du) = u^2 - 2*u - 2*du"

    def test_constant_profile_exit_1(self, capsys):
        code, _, err = run(capsys, "p-from-exp", "--q1", "1", "--q2", "1",
                           "--rate", "1")
        assert code == 1
        assert "constant" in err


class TestShoot:
    def test_saddle_with_no_exact_jacobian_is_shot_from_floats(self, capsys):
        code, out, err = run(capsys, "shoot", "--pde",
                             "u_t - u_xx - sqrt(5)*u + u^2 + sqrt(3)*u*u_x = 0",
                             "--speed", "sqrt(2)", "--saddle", "sqrt(5),0",
                             "--target", "0,0", "--horizon", "2")
        assert (code, err) == (0, "")
        assert out.startswith("unstable rate 3.16522, start (2.2360677, ")

    def test_connection_within_tolerance(self, capsys, tmp_path):
        csv = tmp_path / "orbit.csv"
        code, out, _ = run(capsys, "shoot", "--pde", FISHER,
                           "--speed", FRONT_SPEED, "--saddle", "1,0",
                           "--target", "0,0", "--tol", "1e-6",
                           "--csv", str(csv))
        assert code == 0
        assert "closest approach" in out
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) > 100

    def test_huge_rational_speed_fails_fast(self, capsys):
        t0 = time.perf_counter()
        code, _, err = run(capsys, "shoot", "--pde", FISHER,
                           "--speed", HUGE_SPEED, "--saddle", "1,0",
                           "--target", "0,0")
        assert code == 1 and "10^12" in err
        assert time.perf_counter() - t0 < 1.0

    def test_step_count_leaves_out_the_start_point(self, capsys):
        # rk4 at h = 1e-3 takes 1000 steps to t = 1; the orbit has 1001 points
        argv = ("shoot", "--pde", FISHER, "--speed", FRONT_SPEED, "--saddle", "1,0",
                "--target", "0,0", "--method", "rk4", "--horizon", "1")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1].endswith("after 1000 accepted steps")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["result"]["steps"] == 1000

    def test_wrong_speed_exit_3(self, capsys):
        code, out, _ = run(capsys, "shoot", "--pde", FISHER,
                           "--speed", "3", "--saddle", "1,0",
                           "--target", "0,0", "--tol", "1e-6")
        assert code == 3
        assert "target missed" in out


    def test_divergence_exit_1(self, capsys):
        # at c = 1 the unstable manifold of (0, 0) runs off to infinity
        code, out, err = run(capsys, "shoot", "--pde", "u_t - u_xx + u - u^2 = 0",
                             "--speed", "1", "--saddle", "0,0",
                             "--target=-2,-2", "--horizon", "30")
        assert code == 1
        assert out == ""
        assert err.startswith("error: solution norm exceeded")
        assert "Traceback" not in err

    def test_power_overflow_exit_1(self, capsys):
        # u^31 overflows as a float power before the norm check sees it
        got = run(capsys, "shoot", "--pde", "u_t - u_xx - u + u^31 = 0", "--speed", "1",
                  "--saddle", "1,0", "--target", "2,0", "--horizon", "20", "--method", "rk4")
        assert got == (1, "", "error: a power of the solution overflowed after t=2.589\n")

    @pytest.mark.parametrize("exc,message", [
        # a float power that overflows raises with (errno, text) as args
        (OverflowError(34, "Numerical result out of range"),
         "(34, 'Numerical result out of range')"),
        (KeyError("no such point"), "no such point"),
        (ZeroDivisionError("inverse of zero"), "inverse of zero"),
    ])
    def test_error_message_is_the_whole_message(self, capsys, monkeypatch, exc, message):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "shoot_unstable_manifold", fail)
        got = run(capsys, "shoot", "--pde", FISHER, "--speed", "2",
                  "--saddle", "1,0", "--target", "0,0")
        assert got == (1, "", "error: %s\n" % message)

    def test_rk4_huge_horizon_fails_fast(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "shoot", "--pde", FISHER, "--speed", "2",
                             "--saddle", "1,0", "--target", "0,0",
                             "--method", "rk4", "--horizon", "1e8")
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert out == ""
        assert "needs more than 2000000 steps" in err
        assert "Traceback" not in err

    def test_rkf45_huge_horizon_fails_fast(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "shoot", "--pde", FISHER, "--speed", "2",
                             "--saddle", "1,0", "--target", "0,0",
                             "--horizon", "1e8")
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: span 1e+08 from t=0 to t=1e+08 exceeds "
                              "the rkf45 limit 100000")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags,message", [
        (["--eps", "0"], "eps must be finite and positive"),
        (["--eps", "nan"], "eps must be finite and positive"),
        (["--horizon", "nan"], "horizon must be finite and positive"),
        (["--method", "rk4", "--horizon", "nan"], "horizon must be finite and positive"),
        (["--stop-tol", "-1"], "stop_tol must be finite and nonnegative"),
        (["--stop-tol", "nan"], "stop_tol must be finite and nonnegative"),
        (["--tol", "nan"], "--tol must be finite and nonnegative"),
        (["--tol", "-1"], "--tol must be finite and nonnegative"),
    ])
    def test_meaningless_numbers_exit_1(self, capsys, flags, message):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "shoot", "--pde", FISHER, "--speed", "2",
                             "--saddle", "1,0", "--target", "0,0", *flags)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1


class TestOutputFile:
    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out, _ = run(capsys, "catalog", "--json", "--out", str(path))
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["schema"] == "dwv1"
        assert len(doc["result"]["entries"]) == 7
