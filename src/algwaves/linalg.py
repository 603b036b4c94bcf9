"""Exact linear algebra over Q(sqrt(d)): nullspaces, rank, span membership,
and a modular certificate of column independence.

Elimination is fraction-free.  Each row is scaled by the lcm of its
denominators, so every entry a + b*sqrt(d) becomes an integer pair (a, b) in
Z[sqrt(d)], and Gauss-Jordan elimination runs on those pairs with Bareiss's
exact division by the previous pivot (Bareiss 1968, Math. Comp. 22).  At the
end every pivot equals the last one, D, and dividing by D once gives the
reduced row echelon form, which is unique; the nullspace is read from it.
A matrix lives in one field: its entries may not mix radicands.

A matrix is given either as rows of QuadExt or as an IntegerMatrix, whose
rows already hold the integer pairs with their scales (darboux builds its
invariance matrices that way); an IntegerMatrix passes straight through to
elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .qfield import QuadExt, RadicandMismatchError, common_radicand

Pair = tuple[int, int]  # a + b*sqrt(d) with integer a, b


class IntegerMatrix(list):
    """Rows over Z[sqrt(d)]: entry (a, b) of row i stands for
    (a + b*sqrt(d)) / scales[i].  len() is the row count."""

    def __init__(self, rows: Iterable[list[Pair]], d: int, scales: list[int]):
        super().__init__(rows)
        self.d = d
        self.scales = scales


Matrix = Union[IntegerMatrix, list[list[QuadExt]]]


def integer_pairs(values: list[QuadExt]) -> tuple[int, list[Pair]]:
    """(s, pairs) with s the lcm of the denominators and pairs[i] the
    integer pair of s * values[i]."""
    scale = math.lcm(*(q.denominator for x in values for q in (x.a, x.b)))
    return scale, [(x.a.numerator * (scale // x.a.denominator),
                    x.b.numerator * (scale // x.b.denominator)) for x in values]


def _integer_rows(rows: Matrix) -> tuple[int, list[list[Pair]], list[int]]:
    """The radicand d, every row over Z[sqrt(d)], and each row's scale.

    Row i times scales[i] has integer pairs as entries.  An IntegerMatrix
    is passed through (its outer list copied, since _eliminate swaps rows in
    place).  Raises RadicandMismatchError when QuadExt entries mix radicands.
    """
    if isinstance(rows, IntegerMatrix):
        return rows.d, list(rows), rows.scales
    d = common_radicand(x for row in rows for x in row)
    out: list[list[Pair]] = []
    scales: list[int] = []
    for row in rows:
        scale, pairs = integer_pairs(row)
        out.append(pairs)
        scales.append(scale)
    return d, out, scales


def _eliminate(rows: Matrix) -> tuple[int, list[list[Pair]], list[int], Pair]:
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


def nullspace(rows: Matrix, ncols: int) -> list[list[QuadExt]]:
    """Basis of the right nullspace, one vector per free column, in column order."""
    zero = QuadExt(0)
    one = QuadExt(1)
    d, m, pivots, D = _eliminate(rows)
    # entry -x / D of a pivot row x, as x * conj(-D) / N(D)
    ca, cb = -D[0], D[1]
    norm = ca * ca - d * cb * cb
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(m, pivots):
            xa, xb = row[fc]
            v[pc] = QuadExt(Fraction(xa * ca + d * xb * cb, norm),
                            Fraction(xa * cb + xb * ca, norm), d)
        basis.append(v)
    return basis


def rank(rows: Matrix) -> int:
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


def independent_prefix_mod_p(rows: Matrix, ncols: int) -> int:
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
