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

The modular certificate runs on another form: sparse rows of residues mod
a prime below 2**30.  modular_root chooses the ring map of a whole search:
one prime at which a set of values has images, with a root of their
radicand d and a root of the image of each element of Z[sqrt(d)] that
must be a square (a saddle's discriminant, whose root gives the images of
the eigenvalues without an exact square root).  residue maps a value to
GF(p), and independent_prefix_mod_p eliminates the rows in column order.
darboux maps each search's rows once and writes each candidate cofactor's
image into them, so no matrix over Q(sqrt(d)) is built for a candidate the
certificate rules out.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Union

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


def pair_mul(p: Pair, q: Pair, d: int) -> Pair:
    """The product of two integer pairs over Z[sqrt(d)]."""
    return p[0] * q[0] + d * p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def pair_sign(x: Pair, d: int) -> int:
    """The sign of a + b*sqrt(d), comparing a^2 with d*b^2 when a and b
    have opposite signs."""
    a, b = x
    if a * b >= 0:
        return (a > 0 or b > 0) - (a < 0 or b < 0)
    return 1 if (a * a > d * b * b) == (a > 0) else -1


def coordinate_powers(c: QuadExt, degree: int, d: int) -> tuple[list[Pair], int]:
    """(powers, s**degree) for c = n/s, s the lcm of c's denominators:
    powers[e] = n**e * s**(degree - e) as an integer pair over Z[sqrt(d)],
    so that c**e = powers[e] / s**degree for e = 0..degree."""
    s, (n,) = integer_pairs([c])
    p = [(1, 0)]
    for _ in range(degree):
        p.append(pair_mul(p[-1], n, d))
    return [(a * s ** (degree - e), b * s ** (degree - e)) for e, (a, b) in enumerate(p)], s ** degree


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


# Primes p = 3 (mod 4) just below 2**30, so that a square root of a square d
# mod p is d**((p + 1) / 4) and every residue is a one-digit CPython int (a
# product of two stays below 2**60).  A radicand is a square modulo about
# half of them, so all 24 fail it with odds near 6e-8.
MODULAR_PRIMES = tuple(2**30 - k for k in (
    41, 101, 105, 153, 161, 173, 257, 297, 321, 357, 405, 425,
    437, 453, 513, 537, 777, 861, 873, 945, 977, 1005, 1017, 1041))


def modular_root(values: Iterable[QuadExt], squares: Iterable[Pair] = ()
                 ) -> Optional[tuple[int, int, list[int]]]:
    """The ring map of a search: (p, r, roots) for the first prime p of
    MODULAR_PRIMES at which every value has an image in GF(p), with
    r = d**((p + 1) / 4), a root of r*r = d (mod p), and roots[i] a root of
    the image a + b*r of the i-th pair (a, b) of squares.

    The values lie in one field Q(sqrt(d)), and each pair of squares is an
    element a + b*sqrt(d) of Z[sqrt(d)].  A prime qualifies when d is a
    nonzero square mod p, p divides no denominator, and each pair of
    squares has a nonzero square image.  Sending sqrt(d) to r is then a
    ring homomorphism from Z[sqrt(d)][1/D], D the lcm of the denominators,
    onto GF(p) (see residue).  It extends to any root of a monic quadratic
    x**2 - t*x + n over that ring whose discriminant t**2 - 4n is a pair of
    squares: such a root maps to (t + root)/2 or (t - root)/2, in whatever
    field it lies.  Any other radicand e that is a square mod p gets the
    root e**((p + 1) / 4) the same way.  None when the values mix radicands
    or no prime qualifies.
    """
    values, squares = list(values), list(squares)
    try:
        d = common_radicand(values)
    except RadicandMismatchError:
        return None
    den = math.lcm(*(q.denominator for x in values for q in (x.a, x.b)))
    for p in MODULAR_PRIMES:
        r = pow(d, (p + 1) // 4, p)
        if not (d % p and r * r % p == d % p and den % p):
            continue
        images = [(a + b * r) % p for a, b in squares]
        roots = [pow(w, (p + 1) // 4, p) for w in images]
        if all(w and s * s % p == w for w, s in zip(images, roots)):
            return p, r, roots
    return None


def residue(x: QuadExt, p: int, r: int) -> int:
    """The image of x in GF(p) under sqrt(d) -> r, for (p, r) from
    modular_root."""
    a, b = x.a, x.b
    return (a.numerator * pow(a.denominator, -1, p)
            + b.numerator * pow(b.denominator, -1, p) * r) % p


def independent_prefix_mod_p(rows: list[dict[int, int]], ncols: int, p: int) -> int:
    """How many leading columns of a matrix over GF(p) are linearly
    independent.

    Rows are sparse, {column: residue} with the nonzero residues only, and
    are consumed.  Gaussian elimination in column order stops at the first
    column without a pivot; the columns before it are independent, and the
    returned count is its index (ncols when every column has a pivot).  The
    count does not depend on which rows serve as pivots: column c has no
    pivot exactly when it lies in the span of columns 0..c-1 mod p.

    When the rows are the image of a matrix over Q(sqrt(d)) under a ring
    homomorphism (modular_root, residue), a minor that is nonzero mod p is
    nonzero over Q(sqrt(d)), so the count is a lower bound on the exact one:
    ncols proves full column rank, and a smaller count proves nothing.

    Each row is filed under its first column; eliminating column c touches
    only the rows filed under c and the entries of the pivot row.
    """
    by_first: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if row:
            by_first.setdefault(min(row), []).append(row)
    for c in range(ncols):
        bucket = by_first.pop(c, None)
        if not bucket:
            return c
        top = bucket.pop()
        scale = pow(top[c], -1, p)
        tail = [(j, v) for j, v in top.items() if j != c]
        for row in bucket:
            f = row.pop(c) * scale % p
            for j, v in tail:
                x = (row.get(j, 0) - f * v) % p
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
            if row:
                by_first.setdefault(min(row), []).append(row)
    return ncols
