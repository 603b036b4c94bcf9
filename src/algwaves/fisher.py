"""Exact certification of the algebraic Fisher traveling front.

The front of u_t = u_xx + u(1-u) with an algebraic profile exists only
at one speed.  Stages 1-3 run in rationals and integers and stages 4-5
over Q(sqrt(6)), so the certificate chain contains no floating point at
all:

  1. matching the leading coefficients of a candidate invariant curve
     forces 5 c0 + 6 m c = 0, which pins c^2 = 25 / (6m(6m-5)) and
     leaves a single admissible pair (m = 1, slow eigenvalue);
  2. the coefficient recurrence agrees with its closed forms, decided at
     three points because every entry is affine in (c0, c);
  3. the binomial convolution identities behind those closed forms hold
     as polynomial identities in rising factorials, checked exactly in
     integers on the grid of points that determines them;
  4. the plane system x' = -y, y' = -x - c y + x^2 carries exactly one
     cubic invariant curve through both rest states at that speed;
  5. the curve is re-verified against the invariance identity and
     reported coefficient by coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
from typing import Optional

from .darboux import cofactor_residual, solve_fixed_cofactor
from .poly import MultiPoly, VarRegistry
from .qfield import QuadExt, field_sqrt, pochhammer
from .reduction import PlanarSystem, jacobian_eigen

Rat = Fraction

FRONT_SPEED_SQUARED = Rat(25, 6)
FRONT_SPEED = QuadExt(0, Rat(5, 6), 6)

# The largest ranges certify() accepts.  Each keeps its stage to a few
# seconds; the identity grid of stage 3 alone costs about m^5.
M_ENUM_MAX = 2000
M_RECUR_MAX = 60
M_GAMMA_MAX = 40


def front_system(c: QuadExt) -> PlanarSystem:
    """x' = -y, y' = -x - c y + x^2 on a fresh (x, y) registry."""
    reg = VarRegistry(["x", "y"])
    x = MultiPoly.var(reg, "x")
    y = MultiPoly.var(reg, "y")
    return PlanarSystem(reg, 0, 1, -y, x * x - x - c * y)


def exact_front_curve() -> tuple[MultiPoly, QuadExt]:
    """The cubic invariant curve of the front system and its cofactor."""
    ps = front_system(FRONT_SPEED)
    x = MultiPoly.var(ps.registry, ps.x_var)
    y = MultiPoly.var(ps.registry, ps.y_var)
    r23 = QuadExt(0, Rat(2, 3), 6)
    f = (
        y * y
        + r23 * y
        - r23 * (x * y)
        + Rat(2, 3) * x
        - Rat(4, 3) * (x * x)
        + Rat(2, 3) * (x**3)
    )
    return f, QuadExt(0, -1, 6)


def coefficient_map(f: MultiPoly) -> dict[str, QuadExt]:
    """Coefficients keyed by rendered monomial ('x^3', 'x*y', '1', ...)."""
    out = {}
    for m, c in f.sorted_terms():
        key = f._mono_str(m) if m else "1"
        out[key] = c
    return out


# -- leading coefficient tables ----------------------------------------------
#
# Every entry a_j of a table is affine in the cofactor offset c0 and the
# speed c.  By induction down from the top: a_2m = 1 and
# a_(2m-1) = -(c0 + 2mc) are; each even entry is a rational multiple of the
# entry above it, so every even entry is a rational constant; each odd entry
# adds a rational multiple of an odd entry to h(j) = -(c0 + jc) times an even
# entry, so it is affine.  The closed forms are affine by inspection.  An
# affine function of (c0, c) that vanishes at three affinely independent
# points is zero, so two tables agree as functions of (c0, c) exactly when
# their entries agree at the three points below.  A table is therefore
# {j: [a_j at each point]}, computed in plain Fractions.

TABLE_POINTS = ((0, 0), (1, 0), (0, 1))


def _at_points(m: int, table_at) -> dict[int, list[Fraction]]:
    if m < 1:
        raise ValueError("index m must be positive")
    tables = [table_at(m, c0, c) for c0, c in TABLE_POINTS]
    return {j: [t[j] for t in tables] for j in tables[0]}


def _recurrence_at(m: int, c0: int, c: int) -> dict[int, Fraction]:
    a = {2 * m: Rat(1), 2 * m - 1: Rat(-(c0 + 2 * m * c))}
    for k in range(1, m + 1):
        a[2 * m - 2 * k] = a[2 * m - 2 * k + 2] * Rat(2 * m - 2 * k + 2, 3 * k)
    for k in range(1, m):
        h = -(c0 + (2 * m - 2 * k) * c)
        a[2 * m - 2 * k - 1] = (
            a[2 * m - 2 * k + 1] * (2 * m - 2 * k + 1) + h * a[2 * m - 2 * k]
        ) / (3 * k + 1)
    return a


def leading_coeffs_recurrence(m: int) -> dict[int, list[Fraction]]:
    """Downward recurrence from a_{2m} = 1, at each of TABLE_POINTS."""
    return _at_points(m, _recurrence_at)


def gamma_factor(m: int) -> Fraction:
    """Rising factorial ratio (5/6)_m / (1/3)_m."""
    return pochhammer(Rat(5, 6), m) / pochhammer(Rat(1, 3), m)


def _closed_form_at(m: int, c0: int, c: int) -> dict[int, Fraction]:
    a = {2 * m - 2 * j: Rat(2, 3) ** j * comb(m, j) for j in range(m + 1)}
    a[2 * m - 1] = Rat(-(c0 + 2 * m * c))
    a[1] = (5 * c0 - (5 * c0 + 6 * m * c) * gamma_factor(m)) * Rat(2, 3) ** m / 5
    return a


def leading_coeffs_closed_form(m: int) -> dict[int, list[Fraction]]:
    """Closed forms: binomial even block, the top odd entry, and a_1, at
    each of TABLE_POINTS."""
    return _at_points(m, _closed_form_at)


def tables_agree(t1: dict[int, list[Fraction]], t2: dict[int, list[Fraction]]) -> bool:
    return all(t1[j] == t2[j] for j in t1.keys() & t2.keys())


# -- factorial identities -----------------------------------------------------


def verify_gamma_identities(m_max: int) -> bool:
    """Both convolution identities, exactly, for every m up to m_max:

    sum_j C(m,j) x^(j) y^(m-j)       == (x+y)^(m)
    sum_j C(m,j) (m-j) x^(j) y^(m-j) == m y (x+y+1)^(m-1)

    with p^(j) the rising factorial p(p+1)...(p+j-1).

    Both sides of each identity have degree at most m in x and in y.  A
    polynomial of degree at most m in each of two variables that vanishes
    at every integer point 0 <= x, y <= m is zero: for each such y it is a
    polynomial in x of degree at most m with m + 1 roots, so each of its
    coefficients, a polynomial in y of degree at most m, has m + 1 roots.
    Checking that grid in integers therefore proves the identities.
    """
    for m in range(1, m_max + 1):
        for x in range(m + 1):
            for y in range(m + 1):
                terms = [
                    comb(m, j) * prod(range(x, x + j)) * prod(range(y, y + m - j))
                    for j in range(m + 1)
                ]
                if sum(terms) != prod(range(x + y, x + y + m)):
                    return False
                lhs2 = sum((m - j) * t for j, t in enumerate(terms))
                if lhs2 != m * y * prod(range(x + y + 1, x + y + m)):
                    return False
    return True


# -- speed selection ----------------------------------------------------------

CHOICES = ("lambda+", "lambda-", "sum")


@dataclass(frozen=True)
class SpeedCertificate:
    m: int
    choice: str
    c_squared: Fraction
    sign: int
    consistent: bool
    admissible: bool
    reason: str

    @property
    def c(self) -> QuadExt:
        """The speed, sign * sqrt(c_squared), in its own quadratic field."""
        return self.sign * field_sqrt(self.c_squared)


def consistency_condition(m: int, choice: str) -> SpeedCertificate:
    """Solve 5 c0 + 6 m c = 0 exactly for the chosen saddle cofactor c0.

    The saddle's eigenvalues are the roots of lambda^2 + c lambda - 1.  Their
    product is -1, so lambda- < 0 < lambda+.  Matching puts c0 = -6mc/5,
    which has the sign of -c: the slow eigenvalue lambda- needs c > 0 and
    lambda+ needs c < 0.  That c0 is a root exactly when
    c^2 (36m^2 - 30m) = 25, which is checked in rationals for the closed
    form c^2 = 25/(6m(6m-5)).  The eigenvalue sum -c admits only c = 0.
    Admissible means a positive speed at or above the monotone front
    threshold c^2 >= 4, which singles out m = 1 with the slow eigenvalue.
    """
    if m < 1:
        raise ValueError("index m must be positive")
    if choice not in CHOICES:
        raise ValueError(f"choice must be one of {CHOICES}")
    if choice == "sum":
        return SpeedCertificate(
            m, choice, Rat(0), 0, True, False,
            "only the zero speed satisfies the matching condition",
        )
    c2 = Rat(25, 6 * m * (6 * m - 5))
    sign = 1 if choice == "lambda-" else -1
    consistent = c2 * (36 * m * m - 30 * m) == 25
    admissible = consistent and sign > 0 and c2 >= 4
    if not consistent:
        reason = "matching condition failed"
    elif sign < 0:
        reason = "negative speed"
    elif c2 < 4:
        reason = "speed below the monotone front threshold"
    else:
        reason = "admissible"
    return SpeedCertificate(m, choice, c2, sign, consistent, admissible, reason)


def enumerate_speeds(m_max: int) -> list[SpeedCertificate]:
    return [
        consistency_condition(m, ch) for m in range(1, m_max + 1) for ch in CHOICES
    ]


# -- the full certificate ------------------------------------------------------


@dataclass
class StageReport:
    name: str
    ok: bool
    detail: str


@dataclass
class CurveCertificate:
    ok: bool
    stages: list[StageReport]
    speed: Optional[QuadExt] = None
    speed_squared: Optional[Fraction] = None
    cofactor: Optional[QuadExt] = None
    curve: Optional[MultiPoly] = None
    coefficients: dict = field(default_factory=dict)
    nullspace_dim: int = 0


def certify(
    m_enum: int = 100,
    m_recur: int = 20,
    m_gamma: int = 10,
) -> CurveCertificate:
    """Run the whole exact certificate chain for the algebraic front.

    Stage 4 solves at c = field_sqrt(FRONT_SPEED_SQUARED), whose field
    Q(sqrt(6)) is inferred from 25/6 itself.  Raises ValueError for a range
    below 1, under which a stage would check nothing, and for one above its
    M_*_MAX cap."""
    for name, m, cap in (("m_enum", m_enum, M_ENUM_MAX),
                         ("m_recur", m_recur, M_RECUR_MAX),
                         ("m_gamma", m_gamma, M_GAMMA_MAX)):
        if m < 1:
            raise ValueError("%s must be at least 1, got %d" % (name, m))
        if m > cap:
            raise ValueError("%s must be at most %d, got %d" % (name, cap, m))
    stages: list[StageReport] = []

    speeds = enumerate_speeds(m_enum)
    good = [s for s in speeds if s.admissible]
    ok1 = (
        all(s.consistent for s in speeds)
        and len(good) == 1
        and good[0].m == 1
        and good[0].choice == "lambda-"
        and good[0].c_squared == FRONT_SPEED_SQUARED
    )
    stages.append(
        StageReport(
            "speed enumeration",
            ok1,
            f"{len(speeds)} certificates, {len(good)} admissible "
            f"(m={good[0].m}, {good[0].choice})" if good else "no admissible speed",
        )
    )

    ok2 = all(
        tables_agree(leading_coeffs_recurrence(m), leading_coeffs_closed_form(m))
        for m in range(1, m_recur + 1)
    )
    stages.append(
        StageReport(
            "coefficient recurrence",
            ok2,
            f"closed forms match the recurrence for m <= {m_recur}",
        )
    )

    ok3 = verify_gamma_identities(m_gamma)
    stages.append(
        StageReport(
            "factorial identities",
            ok3,
            f"both convolution identities hold for m <= {m_gamma}",
        )
    )

    c = field_sqrt(FRONT_SPEED_SQUARED)
    ps = front_system(c)
    ed = jacobian_eigen(ps, (0, 0))
    cof = ed.eigenvalues[1]
    sol = solve_fixed_cofactor(ps, cof, 3, required_points=[(0, 0), (1, 0)])
    ok4 = sol is not None and sol.nullspace_dim == 1
    stages.append(
        StageReport(
            "invariant curve",
            ok4,
            "one cubic through both rest states"
            if ok4
            else "curve solve did not return a single cubic",
        )
    )
    if not ok4:
        return CurveCertificate(ok=False, stages=stages, speed=c, cofactor=cof)

    curve = sol.curve
    resid = cofactor_residual(ps, curve, cof)
    on_points = all(
        curve.evaluate({ps.x_var: QuadExt.lift(px), ps.y_var: QuadExt.lift(py)}).is_zero()
        for px, py in [(0, 0), (1, 0)]
    )
    ok5 = resid.is_zero and on_points
    stages.append(
        StageReport(
            "curve verification",
            ok5,
            "invariance identity and point membership re-verified exactly",
        )
    )

    return CurveCertificate(
        ok=all(st.ok for st in stages),
        stages=stages,
        speed=c,
        speed_squared=(c * c).rational_part,
        cofactor=cof,
        curve=curve,
        coefficients=coefficient_map(curve),
        nullspace_dim=sol.nullspace_dim,
    )
