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

A search reads each point once, in one integer pass over the system's
integer form (reduction.integer_jet): P and Q there, which must vanish, and
the Jacobian, whose determinant's sign marks a saddle exactly.  It then
forms the saddle values only as images: one prime at which the system and
the points have images and every saddle's discriminant tr^2 - 4 det is a
nonzero square s^2 sends the values to (tr + s)/2, (tr - s)/2 and tr,
whatever field the eigenvalues lie in (linalg.modular_root).  Images common
to every saddle hold the image of every value common to them.

It builds the cofactor-free part of its invariance matrices once, at the
degree bound: a column shifts the exponents of the terms of P and Q, and a
point row holds powers of the point's coordinates, so no polynomial is
multiplied.  The basis is in grlex order, so every lower degree bound is a
column prefix.  Those rows are mapped once to sparse residues modulo the
prime, and an image k only writes -k into the entry of each column's own
monomial.  A negative answer is a rank certificate: the matrix has full
column rank modulo the prime, which proves that the matrix of every
cofactor with that image has full rank over its field.  Only when the
certificate leaves an image open (or no prime qualifies) are the exact
spectra formed; then the exact matrix of each value with an open image,
integer rows over Z[sqrt(d)] from the same exponent shifts, is eliminated
once and gives the curves of every degree up to the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .linalg import (
    IntegerMatrix,
    Pair,
    coordinate_powers,
    independent_prefix_mod_p,
    integer_pairs,
    modular_root,
    nullspace,
    pair_mul,
    pair_sign,
    residue,
)
from .poly import (
    Monomial,
    MultiPoly,
    grlex_key,
    mono_div,
    trial_divide,
)
from .qfield import QuadExt, RadicandMismatchError, common_radicand, field_sqrt
from .reduction import (
    PlanarSystem,
    characteristic_pairs,
    eigenvalues_are_exact,
    exact_eigenvalues,
    integer_jet,
    linearization,
)

ScalarLike = Union[int, "QuadExt"]

# The largest degree bound search_constant_cofactor accepts.  On a 2-vCPU
# VM a search at the bound takes 7.5 to 8.5 s at the Fisher front speed,
# where one exact elimination finds the cubic, a cost growing about as d^5
# to d^6, and 0.02 to 0.03 s at c = 2 or c = sqrt(2), where one mod-p build
# and three sparse rank certificates of the saddle values' images prove
# there is none.
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
    empty search proves nothing; candidates are the exact cofactors
    searched, the given ones or the saddle values when the search formed
    the exact spectra; images are the saddle values' images in GF(prime),
    and prime is the prime of the mod-p certificate (None without one)."""

    def __init__(self, hits: list[DarbouxResult], status: str,
                 notes: list[str], candidates: list[QuadExt],
                 images: Sequence[int] = (), prime: Optional[int] = None):
        super().__init__(hits)
        self.status = status
        self.notes = notes
        self.candidates = candidates
        self.images = list(images)
        self.prime = prime


def _shifted_columns(
    ps: PlanarSystem, degree: int, cofactor: Optional[MultiPoly] = None
) -> tuple[list[Monomial], list[tuple[int, int]], int, list[dict]]:
    """The residual columns of invariance_matrix, sparse and over Z[sqrt(d)].

    The terms are those of P and Q in ps.integer_form(), and the cofactor
    k's when it is given, brought to one scale.  The residual of x^i y^j is
    i P x^(i-1) y^j + j Q x^i y^(j-1) - k x^i y^j, so column (i, j) shifts
    the exponents of the terms of P, Q and k.  Returns the basis in grlex
    order, each basis monomial's (x, y) exponents, the common scale (the lcm
    of the coefficients' denominators) and one column per basis monomial,
    {(x exponent, y exponent): integer pair} holding the nonzero entries
    times the scale.
    """
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    _, scale, terms = ps.integer_form()
    if cofactor is not None:
        k_scale, pairs = integer_pairs(list(cofactor.terms.values()))
        common = math.lcm(scale, k_scale)
        u, v = common // scale, common // k_scale
        terms = [*([(i, j, (a * u, b * u)) for i, j, (a, b) in ts] for ts in terms),
                 [(*ps.exponents(m), (a * v, b * v))
                  for m, (a, b) in zip(cofactor.terms, pairs)]]
        scale = common
    basis = monomial_basis([ps.x_var, ps.y_var], degree)
    exps = [ps.exponents(m) for m in basis]
    columns = []
    for i, j in exps:
        col: dict = {}
        for ts, di, dj, w in zip(terms, (i - 1, i, i), (j, j - 1, j), (i, j, -1)):
            if w:
                for ex, ey, (a, b) in ts:
                    key = (ex + di, ey + dj)
                    ca, cb = col.get(key, (0, 0))
                    col[key] = (ca + w * a, cb + w * b)
        columns.append({key: v for key, v in col.items() if v != (0, 0)})
    return basis, exps, scale, columns


def _grlex_rows(ps: PlanarSystem, keys) -> list[tuple[int, int]]:
    """Exponent pairs in grlex order: by degree, then by the exponent of the
    lower variable id."""
    lower = 0 if ps.x_var < ps.y_var else 1
    return sorted(keys, key=lambda key: (key[0] + key[1], key[lower]))


def _point_rows(
    points: Sequence[tuple[QuadExt, QuadExt]], exps: Sequence[tuple[int, int]],
    degree: int, d: int,
) -> tuple[list[list[Pair]], list[int]]:
    """One row per point, its coordinate powers at each basis monomial, as
    integer pairs over Z[sqrt(d)], with each row's scale."""
    rows, scales = [], []
    for x, y in points:
        (px, sx), (py, sy) = (coordinate_powers(c, degree, d) for c in (x, y))
        rows.append([pair_mul(px[i], py[j], d) for i, j in exps])
        scales.append(sx * sy)
    return rows, scales


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
    linalg.IntegerMatrix), built without polynomial arithmetic: the
    residual rows by exponent shifts (_shifted_columns), over one common
    denominator, the scale of every residual row, and a point row from the
    point's coordinate powers, also computed once as integer pairs.  Raises
    RadicandMismatchError when the system, the cofactor and the points mix
    radicands, and ValueError for a cofactor in a third variable.

    search_constant_cofactor relies on the prefix property: the
    column-order reduced echelon form of a prefix is the prefix of the
    full one, so each null vector of the matrix at the degree bound is the
    null vector the matrix at its own degree gives for the same free column.
    """
    k = MultiPoly.zero(ps.registry) + cofactor  # raises on a foreign registry
    if set(k.variables()) - {ps.x_var, ps.y_var}:
        raise ValueError("a cofactor is a polynomial in x and y")
    points = [(QuadExt.lift(pt[0]), QuadExt.lift(pt[1])) for pt in required_points]
    d = common_radicand([c for f in (ps.P, ps.Q, k) for c in f.terms.values()]
                        + [c for pt in points for c in pt])
    basis, exps, scale, columns = _shifted_columns(ps, degree, k)
    row_keys = _grlex_rows(ps, {key for col in columns for key in col})
    rows = [[col.get(key, (0, 0)) for col in columns] for key in row_keys]
    point_rows, point_scales = _point_rows(points, exps, degree, d)
    return basis, IntegerMatrix(rows + point_rows, d,
                                [scale] * len(rows) + point_scales)


class _ModularRows:
    """The rows of a search's invariance matrices mod p, built once for all
    of its constant cofactors.

    The residual and point rows of invariance_matrix with the cofactor left
    out, mapped to GF(p) by sqrt(d) -> r and held sparse, {column: residue}
    with the nonzero residues only, in invariance_matrix's row order (a row
    invariance_matrix leaves out is empty here).  A constant k enters the
    residual of x^i y^j only as -k x^i y^j, so the rows for the image of k
    write it, negated, into the row of each column's own monomial.  (p, r)
    is a ring map from linalg.modular_root over the coefficients of P and Q
    and the points, so the rows for the image of k under that map are the
    image of invariance_matrix(ps, k, degree, points).
    """

    def __init__(self, ps: PlanarSystem, degree: int,
                 points: Sequence[tuple[QuadExt, QuadExt]], p: int, r: int):
        _, exps, scale, columns = _shifted_columns(ps, degree)
        keys = _grlex_rows(ps, set(exps).union(*columns))
        index = {key: n for n, key in enumerate(keys)}
        rows: list[dict[int, int]] = [{} for _ in keys]
        inv = pow(scale, -1, p)
        for c, col in enumerate(columns):
            for key, (a, b) in col.items():
                v = (a + b * r) * inv % p
                if v:
                    rows[index[key]][c] = v
        # the points' radicand is 1 or the search's d, so their pairs map too
        d = common_radicand([c for pt in points for c in pt])
        for row, s in zip(*_point_rows(points, exps, degree, d)):
            inv = pow(s, -1, p)
            rows.append({c: v for c, (a, b) in enumerate(row)
                         if (v := (a + b * r) * inv % p)})
        self.rows, self.p, self.r = rows, p, r
        self.diagonal = [index[key] for key in exps]

    def rows_for(self, k: int) -> list[dict[int, int]]:
        """Fresh sparse rows of the invariance matrix for a cofactor whose
        image in GF(p) is k."""
        p = self.p
        rows = [dict(row) for row in self.rows]
        for c, n in enumerate(self.diagonal):
            row = rows[n]
            v = (row.get(c, 0) - k) % p
            if v:
                row[c] = v
            else:
                row.pop(c, None)
        return rows

    def certifies(self, k: int) -> bool:
        """True when the rows for the image k have full column rank mod p,
        which proves that no nonzero curve has a cofactor with that image."""
        ncols = len(self.diagonal)
        return independent_prefix_mod_p(self.rows_for(k), ncols, self.p) == ncols


def _image(k: QuadExt, p: int) -> Optional[int]:
    """The image of k in GF(p) under a ring map from modular_root at p,
    sqrt(e) -> e**((p + 1) / 4) for k's radicand e, or None when p divides a
    denominator of k or e is no square mod p."""
    root = pow(k.d, (p + 1) // 4, p)
    if root * root % p != k.d % p or not (k.a.denominator % p and k.b.denominator % p):
        return None
    return residue(k, p, root)


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

    Candidate cofactors default to the saddle values (see
    eigenvalue_cofactor_candidates); each is searched once.  Hits are
    screened for obvious reducibility and returned in (candidate, degree)
    order; none repeats, since one candidate's null vectors are independent
    and a nonzero curve has one cofactor.  Verdict:
    - "found" when there is a hit;
    - "proved-none" when the saddle values are all ruled out, there is at
      least one, and constant_cofactor_weight proves every cofactor
      constant: a curve through the points would then have one of them;
    - "undetermined" otherwise, with a note saying why.

    One integer pass per point (integer_jet) checks that it is an
    equilibrium and gives its Jacobian; det < 0 marks a saddle, exactly.
    The saddle values are first formed only as images: linalg.modular_root
    picks one prime at which P, Q and the points have images and each
    saddle's discriminant tr^2 - 4 det has a nonzero square image s^2, and
    there a saddle's values map to (tr + s)/2, (tr - s)/2 and tr, in
    whatever field they lie.  Exact equality implies equal images, so the
    images common to every saddle hold the image of every value common to
    them.  The rows of the invariance matrices without the cofactor are
    built once, at max_degree, and mapped mod that prime (_ModularRows); an
    image whose rows have a pivot in every column mod p proves that no
    curve has a cofactor with that image.  When every image is ruled out,
    no exact square root is taken, and a saddle whose eigenvalues are not
    exactly representable gets a note naming the prime.

    Otherwise (an image left open, no image common to the saddles, no
    prime that qualifies, or a system and points that mix radicands, which
    no integer pass holds, so P and Q are evaluated over QuadExt at the
    points) the exact spectra are formed, and each exact
    saddle value whose image is not ruled out gets its exact
    invariance_matrix and one nullspace; given candidates are certified at
    a prime for their own values in the same way.  One nullspace gives the
    curves of every degree: a null vector has the degree of its free column,
    and a hit's nullspace_dim counts the null vectors of degree at most its
    own, as a solve at that degree would (see invariance_matrix).  Raises
    ValueError for max_degree above MAX_SEARCH_DEGREE.
    """
    if max_degree > MAX_SEARCH_DEGREE:
        raise ValueError("degree bound must be at most %d, got %d"
                         % (MAX_SEARCH_DEGREE, max_degree))
    lifted = [(QuadExt.lift(pt[0]), QuadExt.lift(pt[1])) for pt in points]
    try:
        jets = [integer_jet(ps, pt) for pt in lifted]
    except RadicandMismatchError:
        jets = None
    if jets is None:
        for pt, (px, py) in zip(points, lifted):
            point = {ps.x_var: px, ps.y_var: py}
            if not (ps.P.evaluate(point).is_zero() and ps.Q.evaluate(point).is_zero()):
                raise ValueError(f"({pt[0]}, {pt[1]}) is not an equilibrium")
    else:
        for pt, (_, _, ((p_value, *_), (q_value, *_))) in zip(points, jets):
            if p_value != (0, 0) or q_value != (0, 0):
                raise ValueError(f"({pt[0]}, {pt[1]}) is not an equilibrium")
    values = [*ps.P.terms.values(), *ps.Q.terms.values(), *(c for pt in lifted for c in pt)]
    notes: list[str] = []
    images: list[int] = []
    proved: dict[int, bool] = {}  # image -> ruled out by the certificate
    modular = None
    by_images = False
    if candidates is not None:
        cands = list(dict.fromkeys(QuadExt.lift(k) for k in candidates))
    elif jets is None:
        cands, notes = eigenvalue_cofactor_candidates(ps, points)
    else:
        # per point None, or the saddle's s, trace (over s) and
        # discriminant (over s^2) as integer pairs
        saddles = []
        for d, s, jet in jets:
            tr, det, disc = characteristic_pairs(jet, d)
            saddles.append((s, tr, disc) if pair_sign(det, d) < 0 else None)
        found = [sad for sad in saddles if sad]
        ring = modular_root(values, [disc for _, _, disc in found]) if found else None
        if ring:
            p, r, roots = ring
            half = (p + 1) // 2
            for n, ((s, (ta, tb), _), root) in enumerate(zip(found, roots)):
                inv = pow(s, -1, p)
                t, w = (ta + tb * r) * inv % p, root * inv % p
                opts = [(t + w) * half % p, (t - w) * half % p, t]
                images = opts if n == 0 else [v for v in images if v in opts]
            images = list(dict.fromkeys(images))
            modular = _ModularRows(ps, max_degree, lifted, p, r)
            proved = {v: modular.certifies(v) for v in images}
            by_images = bool(images) and all(proved.values())
        if by_images:
            cands = []
            for pt, sad, point_jet in zip(points, saddles, jets):
                label = f"({pt[0]}, {pt[1]})"
                if sad is None:
                    notes.append(f"{label} is not a saddle; no cofactor constraint")
                elif not eigenvalues_are_exact(*point_jet):
                    notes.append(f"eigenvalues at {label} are not exactly representable; "
                                 f"their images mod {modular.p} were certified")
        else:
            cands, notes = eigenvalue_cofactor_candidates(ps, points)
    if cands and modular is None:
        ring = modular_root([*values, *cands])
        modular = _ModularRows(ps, max_degree, lifted, *ring[:2]) if ring else None
    results: list[DarbouxResult] = []
    accepted: list[MultiPoly] = []
    for k in cands:
        v = None if modular is None else _image(k, modular.p)
        if v is not None:
            if v not in proved:
                proved[v] = modular.certifies(v)
            if proved[v]:
                continue
        basis, rows = invariance_matrix(ps, k, max_degree, points)
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
    elif not (cands or by_images):
        status = "undetermined"  # the notes say why
    elif constant_cofactor_weight(ps) is None:
        status = "undetermined"
        notes = notes + ["no weights (1, t) for (x, y) make every cofactor "
                         "constant; nonconstant cofactors were not searched"]
    else:
        status = "proved-none"
    return CurveSearch(results, status, notes, cands, images,
                       None if modular is None else modular.p)
