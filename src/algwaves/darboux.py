"""Invariant algebraic curves of plane polynomial fields.

A curve f = 0 is invariant for x' = P, y' = Q when the directional
derivative of f along the field is a polynomial multiple of f:

    P f_x + Q f_y = k f.

For a fixed cofactor k this is a linear condition on the coefficients
of f, so candidates of bounded degree drop out of an exact nullspace
computation.  Constant cofactors of curves passing through a hyperbolic
saddle are constrained to the two eigenvalues and their sum, which
turns an open-ended search into a finite one.

A negative search answer is a rank certificate: the invariance matrix of
each candidate cofactor, built once at the degree bound, has full column
rank modulo a prime, which proves it has full rank over Q(sqrt(d)).  Only
the degrees the certificate leaves open are solved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .linalg import independent_prefix_mod_p, nullspace
from .poly import (
    Monomial,
    MultiPoly,
    grlex_key,
    mono_degree,
    mono_div,
    trial_divide,
)
from .qfield import QuadExt, field_sqrt, try_sqrt
from .reduction import PlanarSystem, jacobian_eigen

ScalarLike = Union[int, "QuadExt"]


def monomial_basis(nvars_ids: Sequence[int], max_degree: int) -> list[Monomial]:
    """All monomials in the given variables up to total degree, grlex order."""
    ids = list(nvars_ids)
    out: list[Monomial] = []

    def rec(pos: int, remaining: int, acc: list[tuple[int, int]]):
        if pos == len(ids):
            out.append(tuple(sorted((v, e) for v, e in acc if e)))
            return
        for e in range(remaining + 1):
            rec(pos + 1, remaining - e, acc + [(ids[pos], e)])

    rec(0, max_degree, [])
    out.sort(key=lambda m: grlex_key(m, max(ids) + 1 if ids else 1))
    return out


def cofactor_residual(
    ps: PlanarSystem, f: MultiPoly, cofactor: Union[MultiPoly, ScalarLike]
) -> MultiPoly:
    """P f_x + Q f_y - k f; identically zero exactly when f = 0 is invariant."""
    k = cofactor
    if not isinstance(k, MultiPoly):
        k = MultiPoly.const(ps.registry, k)
    return (
        ps.P * f.partial_derivative(ps.x_var)
        + ps.Q * f.partial_derivative(ps.y_var)
        - k * f
    )


@dataclass
class DarbouxResult:
    """Outcome of one fixed-cofactor solve (or one accepted search hit)."""

    curves: list[MultiPoly]
    cofactor: Union[MultiPoly, QuadExt]
    degree: int
    nullspace_dim: int
    contains_required_points: bool = True
    irreducibility_screened: bool = False
    notes: list = field(default_factory=list)

    @property
    def curve(self) -> MultiPoly:
        return self.curves[0]


def invariance_matrix(
    ps: PlanarSystem,
    cofactor: Union[MultiPoly, ScalarLike],
    degree: int,
    required_points: Sequence[Sequence[ScalarLike]] = (),
) -> tuple[list[Monomial], list[list[QuadExt]]]:
    """Linear system for the coefficients of curves of bounded degree.

    Column j stands for the coefficient of basis[j].  The basis is in
    grlex order, so the basis of any lower degree bound is a column prefix,
    and the rows a lower bound lacks vanish on that prefix.  One row per
    monomial of P f_x + Q f_y - k f, then one per required point.
    """
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    reg = ps.registry
    basis = monomial_basis([ps.x_var, ps.y_var], degree)
    resids = [
        cofactor_residual(ps, MultiPoly(reg, {m: QuadExt(1)}), cofactor)
        for m in basis
    ]
    row_monos = sorted(
        {mon for r in resids for mon in r.terms},
        key=lambda m: grlex_key(m, len(reg)),
    )
    rows = [[r.coeff(mon) for r in resids] for mon in row_monos]
    for pt in required_points:
        point = {ps.x_var: QuadExt.lift(pt[0]), ps.y_var: QuadExt.lift(pt[1])}
        rows.append([MultiPoly(reg, {m: QuadExt(1)}).evaluate(point) for m in basis])
    return basis, rows


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
    reg = ps.registry
    basis, rows = invariance_matrix(ps, cofactor, degree, required_points)
    null = nullspace(rows, len(basis))
    curves = []
    for vec in null:
        f = MultiPoly(reg, {m: c for m, c in zip(basis, vec) if not c.is_zero()})
        if f.is_zero or f.is_constant():
            continue
        f = f.monic("ylex")
        if not cofactor_residual(ps, f, cofactor).is_zero:
            raise AssertionError("exact solve produced a non-invariant curve")
        for pt in required_points:
            point = {ps.x_var: QuadExt.lift(pt[0]), ps.y_var: QuadExt.lift(pt[1])}
            if not f.evaluate(point).is_zero():
                raise AssertionError("exact solve missed a required point")
        curves.append(f)
    if not curves:
        return None
    return DarbouxResult(
        curves=curves,
        cofactor=cofactor if isinstance(cofactor, MultiPoly) else QuadExt.lift(cofactor),
        degree=degree,
        nullspace_dim=len(null),
    )


# -- constant cofactors from saddle spectra ----------------------------------


def eigenvalue_cofactor_candidates(
    ps: PlanarSystem, points: Sequence[Sequence[ScalarLike]]
) -> tuple[list[QuadExt], list[str]]:
    """Constant cofactor values allowed for a curve through the given points.

    At a hyperbolic saddle the cofactor of an invariant curve through it
    must equal one of the two eigenvalues or their sum; several saddles
    intersect their option sets.  Non-saddle points impose nothing here
    and are reported in the notes.
    """
    notes: list[str] = []
    option_sets: list[list[QuadExt]] = []
    for pt in points:
        ed = jacobian_eigen(ps, pt)
        label = f"({pt[0]}, {pt[1]})"
        if not ed.is_saddle:
            notes.append(f"{label} is not a saddle; no cofactor constraint")
            continue
        if not ed.exact:
            notes.append(f"eigenvalues at {label} are not exactly representable")
            continue
        lp, lm = ed.eigenvalues
        option_sets.append([lp, lm, lp + lm])
    if not option_sets:
        return [], notes
    cands: list[QuadExt] = []
    for k in option_sets[0]:
        if all(any(k == other for other in s) for s in option_sets[1:]):
            if not any(k == c for c in cands):
                cands.append(k)
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
    if lt_c.is_rational():
        # the root must lie in f's own field, so its radicand is known and
        # no squarefree part is searched for
        s = try_sqrt(lt_c, d=max(c.d for c in f.terms.values()))
    else:
        s = field_sqrt(lt_c)
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
) -> list[DarbouxResult]:
    """Search invariant curves through given equilibria, constant cofactors.

    Candidate cofactors default to the saddle-spectrum values.  Hits are
    deduplicated across degrees, screened for obvious reducibility, and
    returned in (candidate, degree) order.  An empty list proves that no
    curve exists with any candidate cofactor; with no candidates at all it
    proves nothing (see eigenvalue_cofactor_candidates).

    Each candidate's invariance matrix is reduced mod a prime once, at
    max_degree.  The degree of its first column without a pivot mod p is
    the lowest at which a curve can exist; the exact solve runs from there.
    """
    for pt in points:
        point = {ps.x_var: QuadExt.lift(pt[0]), ps.y_var: QuadExt.lift(pt[1])}
        if not (ps.P.evaluate(point).is_zero() and ps.Q.evaluate(point).is_zero()):
            raise ValueError(f"({pt[0]}, {pt[1]}) is not an equilibrium")
    notes: list[str] = []
    if candidates is None:
        cands, notes = eigenvalue_cofactor_candidates(ps, points)
    else:
        cands = [QuadExt.lift(k) for k in candidates]
    results: list[DarbouxResult] = []
    seen: set[MultiPoly] = set()
    accepted: list[MultiPoly] = []
    for k in cands:
        basis, rows = invariance_matrix(ps, k, max_degree, points)
        proved = independent_prefix_mod_p(rows, len(basis))
        if proved == len(basis):
            continue
        for deg in range(max(1, mono_degree(basis[proved])), max_degree + 1):
            sol = solve_fixed_cofactor(ps, k, deg, required_points=points)
            if sol is None:
                continue
            for f in sol.curves:
                if f in seen:
                    continue
                seen.add(f)
                ok, reason = irreducibility_screen(f, accepted)
                if not ok:
                    continue
                accepted.append(f)
                results.append(
                    DarbouxResult(
                        curves=[f],
                        cofactor=k,
                        degree=f.degree(),
                        nullspace_dim=sol.nullspace_dim,
                        contains_required_points=True,
                        irreducibility_screened=True,
                        notes=list(notes),
                    )
                )
    return results
