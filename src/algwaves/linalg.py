"""Exact linear algebra over Q(sqrt(d)): reduced row echelon form, nullspaces,
and a modular certificate of column independence."""

from __future__ import annotations

from .qfield import QuadExt


def rref(rows: list[list[QuadExt]]) -> tuple[list[list[QuadExt]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def nullspace(rows: list[list[QuadExt]], ncols: int) -> list[list[QuadExt]]:
    """Basis of the right nullspace, one vector per free column, in column order."""
    zero = QuadExt(0)
    one = QuadExt(1)
    if not rows:
        basis = []
        for c in range(ncols):
            v = [zero] * ncols
            v[c] = one
            basis.append(v)
        return basis
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        basis.append(v)
    return basis


def rank(rows: list[list[QuadExt]]) -> int:
    return len(rref(rows)[0]) if rows else 0


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

    Entries are mapped into GF(p) by sending sqrt(d) to a root r of
    r*r = d (mod p).  On values whose rational and radical parts have
    denominators prime to p this map is a ring homomorphism, so a minor
    that is nonzero mod p is nonzero over Q(sqrt(d)).  Gaussian
    elimination mod p in column order stops at the first column without
    a pivot; the columns before it are independent, and the returned
    count is its index (ncols when every column has a pivot).

    A prime qualifies when d is a nonzero square mod p and p divides no
    denominator; the first qualifying prime is used.  The answer is 0
    (nothing proved) when the entries mix radicands or no prime qualifies.
    """
    radicands = {x.d for row in rows for x in row if x.d != 1}
    if len(radicands) > 1:
        return 0
    d = radicands.pop() if radicands else 1
    dens = {q.denominator for row in rows for x in row for q in (x.a, x.b)}
    for p in MODULAR_PRIMES:
        r = pow(d, (p + 1) // 4, p)
        if d % p and r * r % p == d % p and all(den % p for den in dens):
            break
    else:
        return 0
    inv = {den: pow(den, -1, p) for den in dens}
    m = [[(x.a.numerator * inv[x.a.denominator]
           + x.b.numerator * inv[x.b.denominator] * r) % p for x in row]
         for row in rows]
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
