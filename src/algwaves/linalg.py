"""Exact linear algebra over Q(sqrt(d)): nullspaces, span membership, and
a modular certificate of column independence.

A matrix is given either as rows of QuadExt or as an IntegerMatrix, whose
rows already hold integer pairs with their scales (darboux builds its
invariance matrices that way).  Each row of QuadExt is scaled by the lcm of
its denominators, so every entry a + b*sqrt(d) becomes an integer pair
(a, b) in Z[sqrt(d)]; row scales change no nullspace.  A matrix
lives in one field: its entries may not mix radicands.

nullspace returns the basis read from the reduced row echelon form R, which
is unique: one vector per free column fc, 1 at fc, -R[pc][fc] at each pivot
column pc < fc and 0 elsewhere.  It reads R from images, modulo the primes
of _primes in turn, MODULAR_PRIMES first.  At each prime p at which d is a
nonzero square r**2, the rows map to GF(p) under the two conjugate ring maps
sqrt(d) -> r and sqrt(d) -> -r (one map for d = 1); the sparse reduced
echelon form of each image gives the images a + b*r and a - b*r of each
basis entry a + b*sqrt(d), and so a and b mod p.  Primes are combined by
the Chinese remainder theorem while the pivot columns stay the same; a
prime with more pivots, or as many with an earlier pivot, starts the
accumulation again, and one with fewer or later pivots is skipped.  After
1, 2, 4, 8, ... accumulated primes every entry is recovered by Wang's
rational reconstruction (Wang, Guy and Davenport, SIGSAM Bull., 1982), and
the basis is returned once each vector times the integer rows is exactly 0
over Z[sqrt(d)].  The method follows the modular and evaluation methods of
Bostan, Cheze, Cluzeau and Weil (Math. Comp., 2016) for this linear system.

Why the checked basis is the exact one, whatever the primes: a minor that is
nonzero mod p is nonzero exactly, so the rank can only drop mod p and the
number of free columns mod p is at least the exact nullity.  A checked
vector is an exact null vector, and its support, fc and pivot columns before
it, puts column fc in the span of earlier columns, so fc is an exact free
column.  Every free column mod p is then free exactly, and counting shows
they are all of them: the pivot columns agree.  Each checked vector is 1 at
its free column and 0 at the others, as the exact basis vector is, and two
such null vectors differ by a combination of pivot columns alone, which is
0.  An unlucky prime (one whose image loses a pivot) gives a vector that
fails reconstruction or the check, and the next prime is tried.

Why the walk ends: finitely many minors fix the pivot columns and R, so
only the primes dividing the norm of one of them are unlucky; d >= 1 is a
square mod infinitely many p = 3 (mod 4); and reconstruction succeeds once
the modulus exceeds 2*B**2, B a bound on the numerators and denominators
in R.  Lifting at powers of two takes at most twice the primes needed.
(_primes ends after about 2.7e7 primes, whose product has about 7.7e8
bits; nullspace raises ArithmeticError there.)  Huge entries are slow, not
wrong: the row (2**3000 + 1 + sqrt(2), 1), whose null vector has 6,001-bit
denominators, takes 512 primes and 0.16 s on a 2-vCPU VM; no search or
solve here meets entries of that size.  in_row_span reads span membership
from the same nullspace.

The modular certificate works on the same images.  modular_root chooses the
ring map of a whole search: one prime of MODULAR_PRIMES at which a set of
values has images, with a root of their radicand d and a root of the image
of each element of Z[sqrt(d)] that must be a square (a saddle's
discriminant, whose root gives the images of the eigenvalues without an
exact square root).  residue maps a value to GF(p), and
independent_prefix_mod_p reads the first column without a pivot from the
forward elimination that nullspace runs too (_echelon_mod_p).
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

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
    is passed through.  Raises RadicandMismatchError when QuadExt entries
    mix radicands.
    """
    if isinstance(rows, IntegerMatrix):
        return rows.d, rows, rows.scales
    d = common_radicand(x for row in rows for x in row)
    out: list[list[Pair]] = []
    scales: list[int] = []
    for row in rows:
        scale, pairs = integer_pairs(row)
        out.append(pairs)
        scales.append(scale)
    return d, out, scales


def nullspace(rows: Matrix, ncols: int) -> list[list[QuadExt]]:
    """Basis of the right nullspace, one vector per free column, in column
    order: the reduced row echelon null basis, read from images modulo the
    primes of _primes and checked exactly (see the module docstring)."""
    d, m, _ = _integer_rows(rows)
    sparse = [[(j, a, b) for j, (a, b) in enumerate(row) if a or b] for row in m]
    best = None  # (rank, negated pivots) of the primes accumulated so far
    beyond = itertools.islice(_primes(), len(MODULAR_PRIMES), None)
    for p in itertools.chain(MODULAR_PRIMES, beyond):
        r = square_root_mod_p(d, p)
        if r is None:
            continue
        # the conjugate maps sqrt(d) -> r and -r give a + b*r and a - b*r
        images = [_null_mod_p([{j: v for j, a, b in row if (v := (a + b * s) % p)}
                               for row in sparse], ncols, p)
                  for s in ((r,) if d == 1 else (r, p - r))]
        pivots, null = images[0]
        if any(other[0] != pivots for other in images):
            continue
        key = (len(pivots), [-c for c in pivots])
        if best is not None and key < best:
            continue  # an unlucky prime: rank or a pivot dropped mod p
        u = [x for vec in null.values() for x in vec]
        w = [x for vec in images[-1][1].values() for x in vec]
        half, inv = (p + 1) // 2, pow(2 * r, -1, p)
        a = [(x + y) * half % p for x, y in zip(u, w)]
        b = [(x - y) * inv % p for x, y in zip(u, w)] if d > 1 else [0] * len(u)
        if best is None or key > best:
            best, modulus, acc, count = key, p, a + b, 1
        else:
            t = pow(modulus, -1, p)
            acc = [x + modulus * ((y - x) * t % p) for x, y in zip(acc, a + b)]
            modulus *= p
            count += 1
        if count & (count - 1):
            continue  # lift only at 1, 2, 4, 8, ... accumulated primes
        basis = _lift(acc, modulus, pivots, null, sparse, ncols, d)
        if basis is not None:
            return basis
    raise ArithmeticError("no product of the primes below 2**30 reconstructs the null basis")


def _echelon_mod_p(rows: list[dict[int, int]], ncols: int, p: int
                   ) -> Iterator[tuple[int, dict[int, int], int]]:
    """The row echelon form of sparse rows over GF(p), which are consumed,
    as it is found: (c, row, inv) for each pivot column c in increasing
    order, the pivot row without its entry at c and inv that entry's inverse.

    Gaussian elimination in column order.  Each row is filed under its
    first column; eliminating column c touches only the rows filed under c
    and the entries of the pivot row, so the pivot is the sparsest row filed
    under c.  Which rows serve as pivots changes no result: column c has no
    pivot exactly when it lies in the span of columns 0..c-1 mod p, so the
    pivot columns are fixed, and the rows yielded span the row space, whose
    reduced echelon form (what _null_mod_p makes of them) is unique.
    """
    by_first: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if row:
            by_first.setdefault(min(row), []).append(row)
    for c in range(ncols):
        bucket = by_first.pop(c, None)
        if not bucket:
            continue
        top = min(bucket, key=len)
        scale = pow(top.pop(c), -1, p)
        for row in bucket:
            if row is top:
                continue
            _subtract(row, row.pop(c) * scale % p, top, p)
            if row:
                by_first.setdefault(min(row), []).append(row)
        yield c, top, scale


def _null_mod_p(rows: list[dict[int, int]], ncols: int, p: int
                ) -> tuple[list[int], dict[int, list[int]]]:
    """(pivot columns, null basis) of sparse rows over GF(p), consumed.

    Back substitution on _echelon_mod_p gives the reduced echelon form R;
    the null vector of a free column fc, 1 at fc, holds -R[pc][fc] at each
    pivot column pc < fc and 0 elsewhere, and is returned as that list of
    residues, in pivot order, keyed by fc.
    """
    reduced = {c: {j: v * scale % p for j, v in top.items()}
               for c, top, scale in _echelon_mod_p(rows, ncols, p)}
    pivots = list(reduced)
    for c in reversed(pivots):  # later pivot rows hold free columns only
        row = reduced[c]
        for j in [j for j in row if j in reduced]:
            _subtract(row, row.pop(j), reduced[j], p)
    null = {fc: [0] * bisect.bisect(pivots, fc) for fc in range(ncols) if fc not in reduced}
    for n, c in enumerate(pivots):
        for fc, v in reduced[c].items():
            null[fc][n] = p - v
    return pivots, null


def _subtract(row: dict[int, int], f: int, top: dict[int, int], p: int) -> None:
    """row -= f * top over GF(p), in place, keeping only nonzero residues."""
    for j, v in top.items():
        x = (row.get(j, 0) - f * v) % p
        if x:
            row[j] = x
        else:
            row.pop(j, None)


def _rational(u: int, modulus: int, bound: int) -> Optional[Fraction]:
    """n/q with n = u*q (mod modulus), |n| <= bound and 0 < q <= bound, or
    None: Wang's rational reconstruction, by the extended Euclidean
    algorithm stopped at the first remainder within the bound."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _lift(acc: list[int], modulus: int, pivots: list[int], null: dict[int, list[int]],
          sparse: list[list[tuple[int, int, int]]], ncols: int, d: int
          ) -> Optional[list[list[QuadExt]]]:
    """The null basis whose images mod modulus are acc (every a, then every
    b, in the order of null), when every entry reconstructs and each vector
    times the integer rows is exactly 0 over Z[sqrt(d)]; else None."""
    bound = math.isqrt(modulus // 2)
    half = len(acc) // 2
    zero = QuadExt(0)
    basis, n = [], 0
    for fc, vec in null.items():
        entries = {fc: (Fraction(1), Fraction(0))}
        for pc in pivots[:len(vec)]:
            a, b = _rational(acc[n], modulus, bound), _rational(acc[n + half], modulus, bound)
            n += 1
            if a is None or b is None:
                return None
            if a or b:
                entries[pc] = (a, b)
        scale = math.lcm(*(q.denominator for x in entries.values() for q in x))
        ints = {j: (a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
                for j, (a, b) in entries.items()}
        for row in sparse:
            sa = sb = 0
            for j, a, b in row:
                if j in ints:
                    va, vb = ints[j]
                    sa += a * va + d * b * vb
                    sb += a * vb + b * va
            if sa or sb:
                return None
        v = [zero] * ncols
        for j, (a, b) in entries.items():
            v[j] = QuadExt(a, b, d)
        basis.append(v)
    return basis


def in_row_span(rows: list[list[QuadExt]], vec: list[QuadExt]) -> bool:
    """True when vec is a linear combination of the given rows: when the
    last column of the matrix whose columns are the rows and vec is free,
    that is, when a null vector of it is nonzero there.  Raises ValueError
    when a row and vec differ in length."""
    if any(len(row) != len(vec) for row in rows):
        raise ValueError("rows of %s entries and a vector of %d"
                         % (sorted({len(row) for row in rows}), len(vec)))
    columns = [list(entries) for entries in zip(*rows, vec)]
    return any(not v[-1].is_zero() for v in nullspace(columns, len(rows) + 1))


def _primes() -> Iterator[int]:
    """The primes p = 3 (mod 4) below 2**30, in descending order.

    Below 2**30 every residue is a one-digit CPython int (a product of two
    stays below 2**60), and p = 3 (mod 4) makes d**((p + 1) / 4) a root of
    any square d (square_root_mod_p).  The test is Miller-Rabin to the bases
    2, 3, 5 and 7, exact below 3.2e9; as n - 1 = 2 * odd, a strong probable
    prime n to base a has a**((n - 1) / 2) = +-1 (mod n)."""
    for n in range(2**30 - 1, 2, -4):
        if n in (3, 7) or all(pow(a, n // 2, n) in (1, n - 1) for a in (2, 3, 5, 7)):
            yield n


# A radicand is a square modulo about half of these, so all 24 fail it with
# odds near 6e-8.
MODULAR_PRIMES = tuple(itertools.islice(_primes(), 24))


def square_root_mod_p(d: int, p: int) -> Optional[int]:
    """r = d**((p + 1) / 4) when it is a root of r*r = d (mod p), for a prime
    p = 3 (mod 4); None when d is 0 or no square mod p."""
    r = pow(d, (p + 1) // 4, p)
    return r if d % p and r * r % p == d % p else None


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
        r = square_root_mod_p(d, p)
        if r is None or not den % p:
            continue
        roots = [square_root_mod_p(a + b * r, p) for a, b in squares]
        if None not in roots:
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
    are consumed.  The count is the first column without a pivot in the
    row echelon form (_echelon_mod_p, stopped there), and ncols when every
    column has one: the columns before it are independent.

    When the rows are the image of a matrix over Q(sqrt(d)) under a ring
    homomorphism (modular_root, residue), a minor that is nonzero mod p is
    nonzero over Q(sqrt(d)), so the count is a lower bound on the exact one:
    ncols proves full column rank, and a smaller count proves nothing.
    """
    count = 0
    for c, _, _ in _echelon_mod_p(rows, ncols, p):
        if c != count:
            break
        count += 1
    return count
