"""Invariant algebraic curves of plane fields x' = P(x, y), y' = Q(x, y).

A curve f = 0 is invariant when the derivative of f along the field (a
PlanarSystem, in x and y alone) is a polynomial multiple of f:

    P f_x + Q f_y = k f.

For a fixed cofactor k this is a linear condition on the coefficients
of f, so candidates of bounded degree drop out of an exact nullspace
computation.  Constant cofactors of curves passing through a hyperbolic
saddle are constrained to the two eigenvalues and their sum, which
turns an open-ended search into a finite one.  Weights on x and y under
which the field raises the weight by less than the weight of every
nonconstant monomial prove that every cofactor is constant
(constant_cofactor_weight).

Each candidate cofactor's invariance matrix is built once, at the degree
bound, straight into integer rows over Z[sqrt(d)] with one scale per row:
a column shifts the exponents of the terms of P, Q and k, and a point row
holds powers of the point's coordinates, so no polynomial is multiplied.
The basis is in grlex order, so every lower degree bound is a column
prefix.  A negative answer is a rank certificate: the matrix has full column
rank modulo a prime, which proves it has full rank over Q(sqrt(d)).  When
the certificate leaves a column open, one exact elimination of the same
matrix gives the curves of every degree up to the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .linalg import (
    IntegerMatrix,
    Pair,
    independent_prefix_mod_p,
    integer_pairs,
    nullspace,
)
from .poly import (
    Monomial,
    MultiPoly,
    grlex_key,
    mono_div,
    trial_divide,
)
from .qfield import QuadExt, common_radicand, field_sqrt
from .reduction import PlanarSystem, exact_eigenvalues, linearization

ScalarLike = Union[int, "QuadExt"]

# The largest degree bound search_constant_cofactor accepts.  On a 2-vCPU
# VM a search at the bound takes about 6 s at the Fisher front speed, where
# one exact elimination finds the cubic, a cost growing about as d^5 to
# d^6, and 0.05 s at c = 2, where the sparse mod-p rank proves there is none.
MAX_SEARCH_DEGREE = 20


def monomial_basis(ids: Sequence[int], max_degree: int) -> list[Monomial]:
    """All monomials in two variables up to total degree, in grlex order."""
    u, v = sorted(ids)
    return [tuple((w, e) for w, e in ((u, a), (v, n - a)) if e)
            for n in range(max_degree + 1) for a in range(n + 1)]


def cofactor_residual(
    ps: PlanarSystem, f: MultiPoly, cofactor: Union[MultiPoly, ScalarLike]
) -> MultiPoly:
    """P f_x + Q f_y - k f; identically zero exactly when f = 0 is invariant."""
    return (
        ps.P * f.partial_derivative(ps.x_var)
        + ps.Q * f.partial_derivative(ps.y_var)
        - f * cofactor
    )


@dataclass
class DarbouxResult:
    """Outcome of one fixed-cofactor solve (or one accepted search hit)."""

    curves: list[MultiPoly]
    cofactor: Union[MultiPoly, QuadExt]
    degree: int
    nullspace_dim: int

    @property
    def curve(self) -> MultiPoly:
        return self.curves[0]


class CurveSearch(list):
    """The hits of search_constant_cofactor, a list of DarbouxResult, with
    the search's verdict: status is "found", "proved-none" or
    "undetermined"; notes say which points constrained nothing and why an
    empty search proves nothing; candidates are the cofactors searched."""

    def __init__(self, hits: list[DarbouxResult], status: str,
                 notes: list[str], candidates: list[QuadExt]):
        super().__init__(hits)
        self.status = status
        self.notes = notes
        self.candidates = candidates


def _pair_mul(p: Pair, q: Pair, d: int) -> Pair:
    return p[0] * q[0] + d * p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def invariance_matrix(
    ps: PlanarSystem,
    cofactor: Union[MultiPoly, ScalarLike],
    degree: int,
    required_points: Sequence[Sequence[ScalarLike]] = (),
) -> tuple[list[Monomial], IntegerMatrix]:
    """Linear system for the coefficients of curves of bounded degree.

    Column j stands for the coefficient of basis[j].  The basis is in
    grlex order, so the basis of any lower degree bound is a column prefix,
    and the rows a lower bound lacks vanish on that prefix.  One row per
    monomial of P f_x + Q f_y - k f in grlex order, then one per required
    point.

    The rows are integer pairs over Z[sqrt(d)], each with a scale (see
    linalg.IntegerMatrix), built without polynomial arithmetic.  The
    residual of x^i y^j is i P x^(i-1) y^j + j Q x^i y^(j-1) - k x^i y^j, so
    a column shifts the exponents of the terms of P, Q and k, whose
    coefficients are integer pairs over one common denominator, the scale
    of every residual row.  A point row holds the point's coordinate powers,
    also computed once as integer pairs.  Raises RadicandMismatchError when
    the system, the cofactor and the points mix radicands, and ValueError
    for a cofactor in a third variable.

    search_constant_cofactor relies on the prefix property: the
    column-order reduced echelon form of a prefix is the prefix of the
    full one, so each null vector of the matrix at the degree bound is the
    null vector the matrix at its own degree gives for the same free column.
    """
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    xv, yv = ps.x_var, ps.y_var

    def xy_exponents(m: Monomial) -> tuple[int, int]:
        e = dict(m)
        return e.get(xv, 0), e.get(yv, 0)

    k = MultiPoly.zero(ps.registry) + cofactor  # raises on a foreign registry
    if set(k.variables()) - {xv, yv}:
        raise ValueError("a cofactor is a polynomial in x and y")
    points = [(QuadExt.lift(pt[0]), QuadExt.lift(pt[1])) for pt in required_points]
    polys = (ps.P, ps.Q, k)
    coeffs = [c for f in polys for c in f.terms.values()]
    d = common_radicand(coeffs + [c for pt in points for c in pt])
    scale, pairs = integer_pairs(coeffs)
    pairs = iter(pairs)
    # each term as (x exponent, y exponent, integer pair)
    P, Q, K = [[(*xy_exponents(m), next(pairs)) for m in f.terms] for f in polys]
    basis = monomial_basis([xv, yv], degree)
    exps = [xy_exponents(m) for m in basis]
    columns = []
    for i, j in exps:
        col: dict = {}
        for terms, di, dj, w in ((P, i - 1, j, i), (Q, i, j - 1, j), (K, i, j, -1)):
            if w:
                for ex, ey, (a, b) in terms:
                    key = (ex + di, ey + dj)
                    ca, cb = col.get(key, (0, 0))
                    col[key] = (ca + w * a, cb + w * b)
        columns.append({key: v for key, v in col.items() if v != (0, 0)})
    # grlex on exponent pairs: by degree, then by the exponent of the lower id
    lower = 0 if xv < yv else 1
    row_keys = sorted({key for col in columns for key in col},
                      key=lambda key: (key[0] + key[1], key[lower]))
    rows = [[col.get(key, (0, 0)) for col in columns] for key in row_keys]
    scales = [scale] * len(rows)
    for pt in points:
        # a coordinate n/s has powers n^e / s^e = n^e s^(degree - e) / s^degree
        powers, point_scale = [], 1
        for c in pt:
            s, (n,) = integer_pairs([c])
            p = [(1, 0)]
            for _ in range(degree):
                p.append(_pair_mul(p[-1], n, d))
            powers.append([(a * s ** (degree - e), b * s ** (degree - e))
                           for e, (a, b) in enumerate(p)])
            point_scale *= s ** degree
        px, py = powers
        rows.append([_pair_mul(px[i], py[j], d) for i, j in exps])
        scales.append(point_scale)
    return basis, IntegerMatrix(rows, d, scales)


def _monic_curves(
    ps: PlanarSystem,
    cofactor: Union[MultiPoly, ScalarLike],
    basis: Sequence[Monomial],
    null: Sequence[Sequence[QuadExt]],
    required_points: Sequence[Sequence[ScalarLike]],
) -> list[MultiPoly]:
    """The polynomial of each null vector, with unit leading coefficient in
    y-priority order, checked exactly to be invariant and to vanish at each
    required point."""
    curves = []
    for vec in null:
        f = MultiPoly(ps.registry, {m: c for m, c in zip(basis, vec) if not c.is_zero()})
        f = f.monic("ylex")
        if not cofactor_residual(ps, f, cofactor).is_zero:
            raise AssertionError("exact solve produced a non-invariant curve")
        for pt in required_points:
            point = {ps.x_var: QuadExt.lift(pt[0]), ps.y_var: QuadExt.lift(pt[1])}
            if not f.evaluate(point).is_zero():
                raise AssertionError("exact solve missed a required point")
        curves.append(f)
    return curves


def solve_fixed_cofactor(
    ps: PlanarSystem,
    cofactor: Union[MultiPoly, ScalarLike],
    degree: int,
    required_points: Sequence[Sequence[ScalarLike]] = (),
) -> Optional[DarbouxResult]:
    """Exact solve for invariant curves of bounded degree with a given cofactor.

    Every curve in the returned result satisfies the invariance identity
    exactly and vanishes at each required point; curves are normalized to
    unit leading coefficient in y-priority order.  None means the only
    solution is zero.
    """
    basis, rows = invariance_matrix(ps, cofactor, degree, required_points)
    null = nullspace(rows, len(basis))
    curves = [f for f in _monic_curves(ps, cofactor, basis, null, required_points)
              if not f.is_constant()]
    if not curves:
        return None
    return DarbouxResult(
        curves=curves,
        cofactor=cofactor if isinstance(cofactor, MultiPoly) else QuadExt.lift(cofactor),
        degree=degree,
        nullspace_dim=len(null),
    )


# -- constant cofactors from saddle spectra ----------------------------------


def constant_cofactor_weight(ps: PlanarSystem) -> Optional[Fraction]:
    """A weight t > 0 proving that every cofactor of the field is constant,
    or None when there is none.

    Give x the weight 1 and y the weight t.  A term x^a y^b of P raises the
    weight by a + b*t - 1 (it multiplies f_x) and a term of Q by
    a + (b - 1)*t.  When every term raises it by less than min(1, t), the
    weight of P f_x + Q f_y = k f exceeds that of f by less than the least
    weight of a nonconstant monomial, so k is constant.  Each condition is
    linear in t; the t that meet all of them form an open interval, found
    exactly, and its midpoint (its lower end plus 1 when it is unbounded)
    is returned.  For x' = y, y' = x^2 - x - c*y the interval is (1, 2) and
    t = 3/2.
    """
    lo, hi = Fraction(0), None
    for f, (ax, ay) in ((ps.P, (-1, 0)), (ps.Q, (0, -1))):
        for m in f.terms:
            e = dict(m)
            # the term raises the weight by alpha + beta*t
            alpha, beta = e.get(ps.x_var, 0) + ax, e.get(ps.y_var, 0) + ay
            # alpha + beta*t < 1 and alpha + beta*t < t, each as u + v*t < 0
            for u, v in ((alpha - 1, beta), (alpha, beta - 1)):
                if v == 0:
                    if u >= 0:
                        return None
                elif v > 0:
                    hi = Fraction(-u, v) if hi is None else min(hi, Fraction(-u, v))
                else:
                    lo = max(lo, Fraction(-u, v))
    if hi is None:
        return lo + 1
    return (lo + hi) / 2 if lo < hi else None


def eigenvalue_cofactor_candidates(
    ps: PlanarSystem, points: Sequence[Sequence[ScalarLike]]
) -> tuple[list[QuadExt], list[str]]:
    """Constant cofactor values allowed for a curve through the given points.

    At a hyperbolic saddle the cofactor of an invariant curve through it
    must equal one of the two eigenvalues or their sum, the trace; several
    saddles intersect their option sets.  Only saddles (det < 0) get an
    exact spectrum.  Non-saddle points impose nothing here and are reported
    in the notes, and so is an empty answer.  The points are read as
    jacobian_eigen reads them (the same linearization and exact_eigenvalues),
    so a saddle has candidates exactly when jacobian_eigen calls it exact.
    """
    notes: list[str] = []
    option_sets: list[list[QuadExt]] = []
    for pt in points:
        jac, tr, det, _ = linearization(ps, pt)
        label = f"({pt[0]}, {pt[1]})"
        if det.sign() >= 0:
            notes.append(f"{label} is not a saddle; no cofactor constraint")
            continue
        vals = exact_eigenvalues(jac, tr, det)
        if vals is None:
            notes.append(f"eigenvalues at {label} are not exactly representable")
            continue
        option_sets.append([*vals, tr])
    if not option_sets:
        return [], notes or ["no point was given"]
    # a saddle's three values are distinct: lp > 0 > lm
    cands = [k for k in option_sets[0] if all(k in s for s in option_sets[1:])]
    if not cands:
        notes.append("no cofactor value is allowed at every saddle")
    return cands, notes


def poly_square_root(f: MultiPoly) -> Optional[MultiPoly]:
    """g with g*g == f, if one exists over the coefficient field."""
    if f.is_zero:
        return MultiPoly.zero(f.registry)
    if f.degree() % 2:
        return None
    lt_m, lt_c = f.leading_term("grlex")
    if any(e % 2 for _, e in lt_m):
        return None
    # the root must lie in f's own field, so no squarefree part is searched for
    s = field_sqrt(lt_c, d=common_radicand(f.terms.values()))
    if s is None:
        return None
    half = tuple((v, e // 2) for v, e in lt_m)
    g = MultiPoly(f.registry, {half: s})
    r = f - g * g
    nv = len(f.registry)
    prev_key = grlex_key(half, nv)
    guard = 0
    while not r.is_zero:
        guard += 1
        if guard > 4000:
            return None
        rm, rc = r.leading_term("grlex")
        qm = mono_div(rm, half)
        if qm is None:
            return None
        key = grlex_key(qm, nv)
        if key >= prev_key:
            return None  # added terms must shrink strictly below the lead
        prev_key = key
        g = g + MultiPoly(f.registry, {qm: rc / (2 * s)})
        r = f - g * g
    return g


def irreducibility_screen(
    f: MultiPoly, accepted: Sequence[MultiPoly] = ()
) -> tuple[bool, Optional[str]]:
    """Cheap factorization screen: True means no obstruction was found.

    Divisibility by an already accepted curve and exact squares up to a
    constant factor are detected; higher prime powers are not chased, so a
    True verdict is a screen, not a proof of irreducibility.
    """
    for g in accepted:
        if g.degree() < 1 or g == f:
            continue
        if g.degree() <= f.degree() and trial_divide(f, g) is not None:
            return False, "divisible by a previously accepted curve"
    # f = c*g**2 for a constant c exactly when monic f is the square of a
    # polynomial over f's own field, which is where poly_square_root looks
    if f.degree() >= 2 and poly_square_root(f.monic("ylex")) is not None:
        return False, "exact square of a lower degree curve"
    return True, None


def search_constant_cofactor(
    ps: PlanarSystem,
    points: Sequence[Sequence[ScalarLike]],
    max_degree: int,
    candidates: Optional[Sequence[ScalarLike]] = None,
) -> CurveSearch:
    """Search invariant curves through given equilibria, constant cofactors.

    Candidate cofactors default to the saddle-spectrum values; each is
    searched once.  Hits are screened for obvious reducibility and returned
    in (candidate, degree) order; none repeats, since one candidate's null
    vectors are independent and a nonzero curve has one cofactor.  Verdict:
    - "found" when there is a hit;
    - "proved-none" when the candidates are the saddle values, there is at
      least one, and constant_cofactor_weight proves every cofactor
      constant: a curve through the points would then have one of them;
    - "undetermined" otherwise, with a note saying why.

    Each candidate's invariance matrix is built once, at max_degree, and
    reduced mod a prime.  A candidate with a pivot in every column has no
    curve.  Otherwise one exact nullspace of the same matrix gives the
    curves of every degree: a null vector has the degree of its free
    column, and a hit's nullspace_dim counts the null vectors of degree at
    most its own, as a solve at that degree would (see invariance_matrix).
    Raises ValueError for max_degree above MAX_SEARCH_DEGREE.
    """
    if max_degree > MAX_SEARCH_DEGREE:
        raise ValueError("degree bound must be at most %d, got %d"
                         % (MAX_SEARCH_DEGREE, max_degree))
    for pt in points:
        point = {ps.x_var: QuadExt.lift(pt[0]), ps.y_var: QuadExt.lift(pt[1])}
        if not (ps.P.evaluate(point).is_zero() and ps.Q.evaluate(point).is_zero()):
            raise ValueError(f"({pt[0]}, {pt[1]}) is not an equilibrium")
    notes: list[str] = []
    if candidates is None:
        cands, notes = eigenvalue_cofactor_candidates(ps, points)
    else:
        cands = list(dict.fromkeys(QuadExt.lift(k) for k in candidates))
    results: list[DarbouxResult] = []
    accepted: list[MultiPoly] = []
    for k in cands:
        basis, rows = invariance_matrix(ps, k, max_degree, points)
        if independent_prefix_mod_p(rows, len(basis)) == len(basis):
            continue
        curves = _monic_curves(ps, k, basis, nullspace(rows, len(basis)), points)
        for f in curves:
            if f.is_constant():
                continue
            ok, reason = irreducibility_screen(f, accepted)
            if not ok:
                continue
            accepted.append(f)
            results.append(
                DarbouxResult(
                    curves=[f],
                    cofactor=k,
                    degree=f.degree(),
                    nullspace_dim=sum(g.degree() <= f.degree() for g in curves),
                )
            )
    if results:
        status = "found"
    elif candidates is not None:
        status, notes = "undetermined", ["only the given cofactors were searched"]
    elif not cands:
        status = "undetermined"  # eigenvalue_cofactor_candidates noted why
    elif constant_cofactor_weight(ps) is None:
        status = "undetermined"
        notes = notes + ["no weights (1, t) for (x, y) make every cofactor "
                         "constant; nonconstant cofactors were not searched"]
    else:
        status = "proved-none"
    return CurveSearch(results, status, notes, cands)
