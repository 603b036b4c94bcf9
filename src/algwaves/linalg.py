"""Exact linear algebra over Q(sqrt(d)): reduced row echelon form, nullspaces,
and a modular certificate of column independence.

Elimination is fraction-free.  Each row is scaled by the lcm of its
denominators, so every entry a + b*sqrt(d) becomes an integer pair (a, b) in
Z[sqrt(d)], and Gauss-Jordan elimination runs on those pairs with Bareiss's
exact division by the previous pivot (Bareiss 1968, Math. Comp. 22).  At the
end every pivot equals the last one, D, and dividing by D once gives the
reduced row echelon form, which is unique.  A matrix lives in one field: its
entries may not mix radicands.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .qfield import QuadExt, RadicandMismatchError

Pair = tuple[int, int]  # a + b*sqrt(d) with integer a, b


def _integer_rows(rows: list[list[QuadExt]]) -> tuple[int, list[list[Pair]], list[int]]:
    """The radicand d, every row over Z[sqrt(d)], and each row's scale.

    Row i times scales[i] (the lcm of its denominators) has integer pairs
    as entries.  Raises RadicandMismatchError when entries mix radicands.
    """
    radicands = {x.d for row in rows for x in row if x.d != 1}
    if len(radicands) > 1:
        raise RadicandMismatchError(
            "cannot combine %s in one matrix"
            % " with ".join("sqrt(%d)" % r for r in sorted(radicands)))
    d = radicands.pop() if radicands else 1
    out: list[list[Pair]] = []
    scales: list[int] = []
    for row in rows:
        scale = math.lcm(*(q.denominator for x in row for q in (x.a, x.b)))
        out.append([(x.a.numerator * (scale // x.a.denominator),
                     x.b.numerator * (scale // x.b.denominator)) for x in row])
        scales.append(scale)
    return d, out, scales


def _eliminate(rows: list[list[QuadExt]]) -> tuple[int, list[list[Pair]], list[int], Pair]:
    """Fraction-free Gauss-Jordan elimination over Z[sqrt(d)].

    Returns (d, pivot rows, pivot columns, D).  Every pivot row holds D in
    its own pivot column and 0 in the others; dividing the rows by D gives
    the reduced row echelon form.  Each step replaces every other row by
    (piv*row - row[c]*top) / prev, where prev is the previous pivot (1 at
    the first step); the quotient lies in Z[sqrt(d)] (every entry is a
    minor of the scaled matrix) and is computed as x*conj(prev) / N(prev).
    """
    d, m, _ = _integer_rows(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    prev: Pair = (1, 0)
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != (0, 0)), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        pa, pb = top[c]
        qa, qb = prev
        norm = qa * qa - d * qb * qb
        for i in range(nrows):
            if i == r:
                continue
            fa, fb = m[i][c]
            new = []
            for (xa, xb), (ta, tb) in zip(m[i], top):
                na = pa * xa - fa * ta + d * (pb * xb - fb * tb)
                nb = pa * xb + pb * xa - fa * tb - fb * ta
                new.append(((na * qa - d * nb * qb) // norm, (nb * qa - na * qb) // norm))
            m[i] = new
        prev = top[c]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return d, m[:r], pivots, prev


def _divider(d: int, den: Pair):
    """x -> x / den as a QuadExt, for integer pairs x over Z[sqrt(d)]."""
    ca, cb = den[0], -den[1]
    norm = ca * ca - d * cb * cb

    def divide(x: Pair) -> QuadExt:
        xa, xb = x
        return QuadExt(Fraction(xa * ca + d * xb * cb, norm),
                       Fraction(xa * cb + xb * ca, norm), d)

    return divide


def rref(rows: list[list[QuadExt]]) -> tuple[list[list[QuadExt]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    d, m, pivots, D = _eliminate(rows)
    divide = _divider(d, D)
    return [[divide(x) for x in row] for row in m], pivots


def nullspace(rows: list[list[QuadExt]], ncols: int) -> list[list[QuadExt]]:
    """Basis of the right nullspace, one vector per free column, in column order."""
    zero = QuadExt(0)
    one = QuadExt(1)
    d, m, pivots, D = _eliminate(rows)
    divide = _divider(d, (-D[0], -D[1]))
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(m, pivots):
            v[pc] = divide(row[fc])
        basis.append(v)
    return basis


def rank(rows: list[list[QuadExt]]) -> int:
    return len(_eliminate(rows)[2])


def in_row_span(rows: list[list[QuadExt]], vec: list[QuadExt]) -> bool:
    """True when vec is a linear combination of the given rows."""
    if all(x.is_zero() for x in vec):
        return True
    if not rows:
        return False
    return rank(rows) == rank(rows + [vec])


# Primes p = 3 (mod 4) just below 2**61, so that a square root of a square d
# mod p is d**((p + 1) / 4).  A radicand is a square modulo about half of
# them, so all 24 fail it with odds near 6e-8.
MODULAR_PRIMES = tuple(2**61 - k for k in (
    1, 45, 229, 465, 829, 985, 1153, 1281, 1425, 1489, 1525, 1533,
    1609, 1621, 1669, 1741, 1753, 1813, 1845, 1849, 1869, 1909, 1921, 1945))


def independent_prefix_mod_p(rows: list[list[QuadExt]], ncols: int) -> int:
    """How many leading columns are provably linearly independent.

    Each row is scaled to entries in Z[sqrt(d)] (as for elimination), and
    entries are mapped into GF(p) by sending sqrt(d) to a root r of
    r*r = d (mod p).  That map is a ring homomorphism, so a minor that is
    nonzero mod p is nonzero over Q(sqrt(d)).  Gaussian elimination mod p
    in column order stops at the first column without a pivot; the columns
    before it are independent, and the returned count is its index (ncols
    when every column has a pivot).

    A prime qualifies when d is a nonzero square mod p and p divides no
    denominator (so no row scale); the first qualifying prime is used.  The
    answer is 0 (nothing proved) when the entries mix radicands or no prime
    qualifies.
    """
    try:
        d, m, scales = _integer_rows(rows)
    except RadicandMismatchError:
        return 0
    for p in MODULAR_PRIMES:
        r = pow(d, (p + 1) // 4, p)
        if d % p and r * r % p == d % p and all(s % p for s in scales):
            break
    else:
        return 0
    m = [[(a + b * r) % p for a, b in row] for row in m]
    for c in range(ncols):
        piv = next((i for i in range(c, len(m)) if m[i][c]), None)
        if piv is None:
            return c
        m[c], m[piv] = m[piv], m[c]
        top = m[c]
        scale = pow(top[c], -1, p)
        for i in range(c + 1, len(m)):
            f = m[i][c]
            if f:
                f = f * scale % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], top)]
    return ncols
