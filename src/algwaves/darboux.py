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
the Jacobian, whose determinant's sign marks a saddle exactly.  It forms the
saddle values first only as images: at one prime where the system and the
points have images and every saddle's discriminant tr^2 - 4 det is a nonzero
square s^2, the values map to (tr + s)/2, (tr - s)/2 and tr, whatever field
they lie in (linalg.modular_root).  The cofactor-free rows of its invariance
matrices are built once, at the degree bound, as sparse residues: those of
the terms of P and Q, each added at its shifted exponents, and those of the
points' coordinate powers; an image k only writes -k on the diagonal.  Full
column rank mod p proves that no curve has a cofactor with that image.  Only
an image left open (or no prime) makes the search form the exact spectra
from the same jets and solve each open value with one nullspace of its exact
matrix over Z[sqrt(d)], in grlex order so that every lower degree bound is a
column prefix; that nullspace is read from images mod primes and checked
exactly (linalg.nullspace).  A value that no exact matrix holds together with
the system and the points is left unsolved, with a note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .linalg import (
    IntegerMatrix,
    coordinate_powers,
    independent_prefix_mod_p,
    integer_pairs,
    modular_root,
    nullspace,
    pair_mul,
    pair_sign,
    residue,
    square_root_mod_p,
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
    jacobian_eigen,
)

ScalarLike = Union[int, "QuadExt"]

# The largest degree bound search_constant_cofactor accepts.  On a 2-vCPU
# VM (CPU time, shared host) a search at the bound takes 0.03 to 0.04 s at
# the Fisher front speed, where the cubic's nullspace is read from images
# mod primes and checked exactly, and 0.012 to 0.015 s at c = 2 or
# c = sqrt(2), where three sparse rank certificates prove there is none.
# No exact elimination runs at any degree: at degree 30 and 40 the front
# search takes 0.12 and 0.23 s.  The bound stays 20 because it is
# find-curve's documented range; widening it is its own change.
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
    empty search proves nothing; candidates are the given cofactors, or the
    saddle values when the search formed the exact spectra, each solved
    unless no exact matrix holds it with the system and the points; images
    are the saddle values' images in GF(prime), and prime is the prime of
    the mod-p certificate (None without one)."""

    def __init__(self, hits: list[DarbouxResult], status: str,
                 notes: list[str], candidates: list[QuadExt],
                 images: Sequence[int] = (), prime: Optional[int] = None):
        super().__init__(hits)
        self.status = status
        self.notes = notes
        self.candidates = candidates
        self.images = list(images)
        self.prime = prime


def _shifts(i: int, j: int) -> tuple[tuple[int, int, int], ...]:
    """The residual of x^i y^j is i P x^(i-1) y^j + j Q x^i y^(j-1) - k x^i y^j:
    (x shift, y shift, weight) for the terms of P, Q and k in turn."""
    return (i - 1, j, i), (i, j - 1, j), (i, j, -1)


def _grlex_position(ps: PlanarSystem, i: int, j: int) -> int:
    """The position of x^i y^j in grlex order (monomial_basis): after the
    n(n + 1)/2 monomials of degree below n = i + j, by the exponent of the
    lower variable id."""
    n = i + j
    return n * (n + 1) // 2 + (i if ps.x_var < ps.y_var else j)


def _basis_exponents(ps: PlanarSystem, degree: int) -> list[tuple[int, int]]:
    """The (x, y) exponents of monomial_basis([ps.x_var, ps.y_var], degree)."""
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    pairs = [(a, n - a) for n in range(degree + 1) for a in range(n + 1)]
    return pairs if ps.x_var < ps.y_var else [(j, i) for i, j in pairs]


def _shifted_columns(
    ps: PlanarSystem, degree: int, cofactor: Optional[MultiPoly] = None
) -> tuple[list[Monomial], list[tuple[int, int]], int, list[dict]]:
    """The residual columns of invariance_matrix, sparse and over Z[sqrt(d)].

    The terms are those of P and Q in ps.integer_form(), and the cofactor
    k's when it is given, brought to one scale; column (i, j) shifts their
    exponents as _shifts says.  Returns the basis in grlex order, each basis
    monomial's (x, y) exponents, the common scale (the lcm of the
    coefficients' denominators) and one column per basis monomial,
    {(x exponent, y exponent): integer pair} holding the nonzero entries
    times the scale.
    """
    _, scale, terms = ps.integer_form()
    if cofactor is not None:
        k_scale, pairs = integer_pairs(list(cofactor.terms.values()))
        common = math.lcm(scale, k_scale)
        u, v = common // scale, common // k_scale
        terms = [*([(i, j, (a * u, b * u)) for i, j, (a, b) in ts] for ts in terms),
                 [(*ps.exponents(m), (a * v, b * v))
                  for m, (a, b) in zip(cofactor.terms, pairs)]]
        scale = common
    exps = _basis_exponents(ps, degree)
    basis = monomial_basis([ps.x_var, ps.y_var], degree)
    columns = []
    for i, j in exps:
        col: dict = {}
        for ts, (di, dj, w) in zip(terms, _shifts(i, j)):
            for ex, ey, (a, b) in ts if w else ():
                ca, cb = col.get((ex + di, ey + dj), (0, 0))
                col[ex + di, ey + dj] = (ca + w * a, cb + w * b)
        columns.append({key: v for key, v in col.items() if v != (0, 0)})
    return basis, exps, scale, columns


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
    row_keys = sorted({key for col in columns for key in col},
                      key=lambda key: _grlex_position(ps, *key))
    rows = [[col.get(key, (0, 0)) for col in columns] for key in row_keys]
    scales = [scale] * len(rows)
    for x, y in points:
        (px, sx), (py, sy) = (coordinate_powers(c, degree, d) for c in (x, y))
        rows.append([pair_mul(px[i], py[j], d) for i, j in exps])
        scales.append(sx * sy)
    return basis, IntegerMatrix(rows, d, scales)


class _ModularRows:
    """The rows of a search's invariance matrices mod p, built once for all
    of its constant cofactors.

    The residual and point rows of invariance_matrix with the cofactor left
    out, mapped to GF(p) by sqrt(d) -> r and held sparse, {column: residue}
    with the nonzero residues only.  Each term (a, b) of P and Q in
    ps.integer_form() is mapped once, to (a + b*r)/scale, and column (i, j)
    adds it into the row of each exponent _shifts gives.  Residual row n is
    the monomial at grlex position n (_grlex_position), up to the highest
    degree a shift reaches: invariance_matrix's rows in its order, with an
    empty row for each monomial it leaves out and for each row that
    vanishes mod p.  One row per point follows, from the residues of its
    coordinates' powers.  A constant k enters the residual of x^i y^j only
    as -k x^i y^j, in row c for column c, so the rows for the image of k
    write it, negated, on the diagonal.  (p, r) is a ring map from
    linalg.modular_root over the coefficients of P and Q and the points, so
    the rows for the image of k are the image of
    invariance_matrix(ps, k, degree, points).
    """

    def __init__(self, ps: PlanarSystem, degree: int,
                 points: Sequence[tuple[QuadExt, QuadExt]], p: int, r: int):
        _, scale, terms = ps.integer_form()
        inv = pow(scale, -1, p)
        terms = [[(i, j, (a + b * r) * inv % p) for i, j, (a, b) in ts] for ts in terms]
        exps = _basis_exponents(ps, degree)
        top = max([degree] + [degree + i + j - 1 for ts in terms for i, j, _ in ts])
        rows: list[dict[int, int]] = [{} for _ in range((top + 1) * (top + 2) // 2)]
        for c, (i, j) in enumerate(exps):
            for ts, (di, dj, w) in zip(terms, _shifts(i, j)):
                for ex, ey, v in ts if w else ():
                    row = rows[_grlex_position(ps, ex + di, ey + dj)]
                    v = (row.get(c, 0) + w * v) % p
                    if v:
                        row[c] = v
                    else:
                        row.pop(c, None)
        for pt in points:
            px, py = ([pow(u, e, p) for e in range(degree + 1)]
                      for u in (residue(x, p, r) for x in pt))
            rows.append({c: v for c, (i, j) in enumerate(exps) if (v := px[i] * py[j] % p)})
        self.rows, self.p, self.ncols = rows, p, len(exps)

    def rows_for(self, k: int) -> list[dict[int, int]]:
        """Fresh sparse rows of the invariance matrix for a cofactor whose
        image in GF(p) is k."""
        p = self.p
        rows = [dict(row) for row in self.rows]
        for c in range(self.ncols):
            row = rows[c]
            v = (row.get(c, 0) - k) % p
            if v:
                row[c] = v
            else:
                row.pop(c, None)
        return rows

    def certifies(self, k: int) -> bool:
        """True when the rows for the image k have full column rank mod p,
        which proves that no nonzero curve has a cofactor with that image."""
        return independent_prefix_mod_p(self.rows_for(k), self.ncols, self.p) == self.ncols


def _image(k: QuadExt, p: int) -> Optional[int]:
    """The image of k in GF(p) under a ring map from modular_root at p,
    sqrt(e) -> e**((p + 1) / 4) for k's radicand e, or None when p divides a
    denominator of k or e is no nonzero square mod p (square_root_mod_p)."""
    root = square_root_mod_p(k.d, p)
    if root is None or not (k.a.denominator % p and k.b.denominator % p):
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


def _integer_jet(ps: PlanarSystem, point: Sequence[ScalarLike]):
    """integer_jet(ps, point), or None when the system and the point mix radicands."""
    try:
        return integer_jet(ps, point)
    except RadicandMismatchError:
        return None


def _saddle_candidates(
    ps: PlanarSystem, points: Sequence[Sequence[ScalarLike]], jets: Sequence,
    prime: Optional[int] = None,
) -> tuple[list[QuadExt], list[str]]:
    """eigenvalue_cofactor_candidates from the points' _integer_jet values,
    the one place where a point's note is written.  Given the prime at which
    the image of every saddle value was certified, no eigenvalue is formed
    and no candidate is returned: eigenvalues_are_exact decides which
    saddles get a note, and the note names the prime."""
    notes: list[str] = []
    option_sets: list[list[QuadExt]] = []
    for pt, jet in zip(points, jets):
        label = f"({pt[0]}, {pt[1]})"
        if jet is None:
            ed = jacobian_eigen(ps, pt)
            saddle, vals = ed.is_saddle, ed.exact and ed.eigenvalues
        else:
            d, _, pairs = jet
            saddle = pair_sign(characteristic_pairs(pairs, d)[1], d) < 0
            vals = saddle and (eigenvalues_are_exact if prime else exact_eigenvalues)(*jet)
        if not saddle:
            notes.append(f"{label} is not a saddle; no cofactor constraint")
        elif not vals:
            notes.append(f"eigenvalues at {label} are not exactly representable"
                         + (f"; their images mod {prime} were certified" if prime else ""))
        elif not prime:
            option_sets.append([*vals, vals[0] + vals[1]])
    if not option_sets:
        return [], notes if points else ["no point was given"]
    # a saddle's three values are distinct: lp > 0 > lm
    cands = [k for k in option_sets[0] if all(k in s for s in option_sets[1:])]
    if not cands:
        notes.append("no cofactor value is allowed at every saddle")
    return cands, notes


def eigenvalue_cofactor_candidates(
    ps: PlanarSystem, points: Sequence[Sequence[ScalarLike]]
) -> tuple[list[QuadExt], list[str]]:
    """Constant cofactor values allowed for a curve through the given points.

    At a hyperbolic saddle the cofactor of an invariant curve through it
    must equal one of the two eigenvalues or their sum, the trace; several
    saddles intersect their option sets.  Each point gets one integer pass
    (integer_jet), where the sign of det marks a saddle, and only a saddle's
    eigenvalues are formed, by exact_eigenvalues from that jet; a point
    that mixes radicands with the system is read by jacobian_eigen.  So a
    saddle has candidates exactly when jacobian_eigen calls it exact.
    Non-saddle points impose nothing here and are reported in the notes,
    and so is an empty answer.  search_constant_cofactor reads the points
    the same way (_saddle_candidates), from the jets it has already formed.
    """
    return _saddle_candidates(ps, points, [_integer_jet(ps, pt) for pt in points])


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
    # grlex is a well-order, so the strictly decreasing added terms end the loop
    while not r.is_zero:
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

    Each point gets one integer_jet, which shows that it is an equilibrium;
    a point that mixes radicands with the system has none and is checked by
    evaluation over QuadExt.  The saddle values are first formed only as
    images at one prime (see the module docstring); since exact equality
    implies equal images, the images common to every saddle hold the image
    of every value common to them.  When the rows for each image have full
    column rank mod p, no exact root is taken, and a saddle whose
    eigenvalues are not exactly representable gets a note naming the prime.
    Otherwise the exact values are formed from the same jets
    (_saddle_candidates), and each one whose image is not ruled out gets its
    exact invariance_matrix and one nullspace; given candidates are
    certified at a prime for their own values in the same way.  A null
    vector has the degree of its free column, and a hit's nullspace_dim
    counts the null vectors of degree at most its own, as a solve at that
    degree would (see invariance_matrix).

    A candidate that no exact invariance matrix holds together with the
    system and the points (they mix radicands, or a saddle value lies in a
    third field) is left unsolved, with a note, and the verdict is
    "undetermined".  Only a given candidate from another field than a
    system and points that share one raises RadicandMismatchError.  Raises
    ValueError for a point that is no equilibrium and for max_degree above
    MAX_SEARCH_DEGREE.
    """
    if max_degree > MAX_SEARCH_DEGREE:
        raise ValueError("degree bound must be at most %d, got %d"
                         % (MAX_SEARCH_DEGREE, max_degree))
    lifted = [(QuadExt.lift(pt[0]), QuadExt.lift(pt[1])) for pt in points]
    jets = [_integer_jet(ps, pt) for pt in lifted]
    for pt, (px, py), jet in zip(points, lifted, jets):
        if jet is None:
            point = {ps.x_var: px, ps.y_var: py}
            at_rest = ps.P.evaluate(point).is_zero() and ps.Q.evaluate(point).is_zero()
        else:
            at_rest = all(value == (0, 0) for value, _, _ in jet[2])  # P and Q vanish
        if not at_rest:
            raise ValueError(f"({pt[0]}, {pt[1]}) is not an equilibrium")
    values = [*ps.P.terms.values(), *ps.Q.terms.values(), *(c for pt in lifted for c in pt)]
    try:
        mixed = None
        common_radicand(values)
    except RadicandMismatchError as exc:
        mixed = exc  # no exact invariance matrix holds the system and the points
    notes: list[str] = []
    cands = None if candidates is None else list(dict.fromkeys(map(QuadExt.lift, candidates)))
    images: list[int] = []
    proved: dict[int, bool] = {}  # image -> ruled out by the certificate
    modular = None
    by_images = False
    if cands is None:
        # each saddle's s, trace (over s) and discriminant (over s^2) as
        # integer pairs; a point without a jet mixes radicands with the
        # system, so that no ring map qualifies
        saddles = []
        for d, s, jet in filter(None, jets):
            tr, det, disc = characteristic_pairs(jet, d)
            if pair_sign(det, d) < 0:
                saddles.append((s, tr, disc))
        ring = modular_root(values, [disc for _, _, disc in saddles]) if saddles else None
        if ring:
            p, r, roots = ring
            half = (p + 1) // 2
            for n, ((s, (ta, tb), _), root) in enumerate(zip(saddles, roots)):
                inv = pow(s, -1, p)
                t, w = (ta + tb * r) * inv % p, root * inv % p
                opts = [(t + w) * half % p, (t - w) * half % p, t]
                images = opts if n == 0 else [v for v in images if v in opts]
            images = list(dict.fromkeys(images))
            modular = _ModularRows(ps, max_degree, lifted, p, r)
            proved = {v: modular.certifies(v) for v in images}
            by_images = bool(images) and all(proved.values())
        cands, notes = _saddle_candidates(ps, points, jets, modular.p if by_images else None)
    if cands and modular is None:
        ring = modular_root([*values, *cands])
        modular = _ModularRows(ps, max_degree, lifted, *ring[:2]) if ring else None
    results: list[DarbouxResult] = []
    accepted: list[MultiPoly] = []
    unsolved: list[RadicandMismatchError] = []
    for k in cands:
        v = None if modular is None else _image(k, modular.p)
        if v is not None:
            if v not in proved:
                proved[v] = modular.certifies(v)
            if proved[v]:
                continue
        try:
            basis, rows = invariance_matrix(ps, k, max_degree, points)
        except RadicandMismatchError as exc:
            if candidates is not None and mixed is None:
                raise  # a given cofactor from another field than the search's
            unsolved.append(exc)
            continue
        curves = _monic_curves(ps, k, basis, nullspace(rows, len(basis)), points)
        for f in curves:
            if f.is_constant() or not irreducibility_screen(f, accepted)[0]:
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
    if unsolved:
        notes.append("no candidate was solved: no exact invariance matrix holds the system "
                     f"and the points ({mixed})" if mixed else
                     f"{len(unsolved)} of {len(cands)} candidates were not solved: no exact "
                     f"invariance matrix holds them with the system and the points ({unsolved[0]})")
    if results:
        status = "found"
    elif candidates is not None and not unsolved:
        status, notes = "undetermined", ["only the given cofactors were searched"]
    elif unsolved or not (cands or by_images):
        status = "undetermined"  # the notes say why
    elif constant_cofactor_weight(ps) is None:
        status = "undetermined"
        notes = notes + ["no weights (1, t) for (x, y) make every cofactor "
                         "constant; nonconstant cofactors were not searched"]
    else:
        status = "proved-none"
    return CurveSearch(results, status, notes, cands, images,
                       None if modular is None else modular.p)
