"""Polynomial kernel: frozen oracles for derivatives, substitution, resultants."""

import itertools
import math
from fractions import Fraction as Fr
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from algwaves import darboux, linalg
from algwaves.darboux import eigenvalue_cofactor_candidates, invariance_matrix
from algwaves.linalg import (
    MODULAR_PRIMES,
    IntegerMatrix,
    _integer_rows,
    _primes,
    in_row_span,
    independent_prefix_mod_p,
    modular_root,
    nullspace,
    residue,
    square_root_mod_p,
)
from algwaves.poly import (
    MAX_TERMS_PER_EXPR,
    MultiPoly,
    RegistryMismatchError,
    VarRegistry,
    bareiss_determinant,
    compile_float_field,
    sylvester_resultant,
    trial_divide,
)
from algwaves.qfield import QuadExt, RadicandMismatchError
from algwaves.reduction import PlanarSystem


def xy():
    reg = VarRegistry(["x", "y"])
    return reg, MultiPoly.var(reg, "x"), MultiPoly.var(reg, "y")


def front_curve(reg, x, y):
    """y^2 + 2*sqrt(2/3)*(1-x)*y + (2/3)*x*(1-x)^2 with 2*sqrt(2/3) = (2/3)*sqrt(6)."""
    A = QuadExt(0, Fr(2, 3), 6)
    return y ** 2 + A * (1 - x) * y + Fr(2, 3) * x * (1 - x) ** 2


class TestFrozen:
    def test_curve_expansion(self):
        reg, x, y = xy()
        f = front_curve(reg, x, y)
        A = QuadExt(0, Fr(2, 3), 6)
        assert f.coeff(((reg.id_of("y"), 2),)) == 1
        assert f.coeff(((reg.id_of("y"), 1),)) == A
        assert f.coeff(((reg.id_of("x"), 1), (reg.id_of("y"), 1))) == -A
        assert f.coeff(((reg.id_of("x"), 1),)) == Fr(2, 3)
        assert f.coeff(((reg.id_of("x"), 2),)) == Fr(-4, 3)
        assert f.coeff(((reg.id_of("x"), 3),)) == Fr(2, 3)
        assert len(f.terms) == 6

    def test_partial_derivative(self):
        reg, x, y = xy()
        f = front_curve(reg, x, y)
        A = QuadExt(0, Fr(2, 3), 6)
        expected = 2 * y + A * (1 - x)
        assert f.partial_derivative(reg.id_of("y")) == expected

    def test_substitute_affine(self):
        reg, x, y = xy()
        f = front_curve(reg, x, y)
        # x -> 1 - U, y -> V over a fresh registry
        reg2 = VarRegistry(["U", "V"])
        U = MultiPoly.var(reg2, "U")
        V = MultiPoly.var(reg2, "V")
        g = f.substitute({reg.id_of("x"): 1 - U, reg.id_of("y"): V}, registry=reg2)
        A = QuadExt(0, Fr(2, 3), 6)
        expected = V ** 2 + A * U * V + Fr(2, 3) * (1 - U) * U ** 2
        assert g == expected

    def test_resultant_linear_pair(self):
        # res(x - a, x - b, x) = a - b; here with symbolic y as the second root
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        r = sylvester_resultant(x - y, x * x - 2, reg.id_of("x"))
        assert r == y * y - 2

    def test_resultant_3x3_oracle(self):
        # hand-expanded Sylvester determinant for (x - y, x^2 - 2):
        # | 1 -y  0 |
        # | 0  1 -y |
        # | 1  0 -2 |  -> det = y^2 - 2
        reg = VarRegistry(["y"])
        y = MultiPoly.var(reg, "y")
        one = MultiPoly.one(reg)
        zero = MultiPoly.zero(reg)
        mat = [[one, -y, zero], [zero, one, -y], [one, zero, MultiPoly.const(reg, -2)]]
        assert bareiss_determinant(mat, reg) == y * y - 2

    def test_resultant_shared_root(self):
        reg = VarRegistry(["x"])
        x = MultiPoly.var(reg, "x")
        r = sylvester_resultant((x - 1) * (x - 2), (x - 1) * (x + 5), reg.id_of("x"))
        assert r.is_zero

    def test_resultant_degree_error(self):
        reg, x, y = xy()
        with pytest.raises(ValueError):
            sylvester_resultant(x + 1, y + 1, reg.id_of("y"))

    def test_trial_divide(self):
        reg, x, y = xy()
        f = front_curve(reg, x, y)
        g = x - y
        prod = f * g
        assert trial_divide(prod, g) == f
        assert trial_divide(prod + 1, g) is None

    def test_as_univariate(self):
        reg, x, y = xy()
        f = y ** 3
        coeffs = f.as_univariate(reg.id_of("y"))
        assert [str(c) for c in coeffs] == ["0", "0", "0", "1"]

    def test_evaluate_modes(self):
        reg, x, y = xy()
        f = front_curve(reg, x, y)
        v = f.evaluate({reg.id_of("x"): QuadExt(0), reg.id_of("y"): QuadExt(0)})
        assert v.is_zero()
        v = f.evaluate({reg.id_of("x"): QuadExt(1), reg.id_of("y"): QuadExt(0)})
        assert v.is_zero()
        fv = f.evaluate_float({reg.id_of("x"): 0.5, reg.id_of("y"): 0.25})
        A = (2.0 / 3.0) * 6 ** 0.5
        expected = 0.25 ** 2 + A * 0.5 * 0.25 + (2.0 / 3.0) * 0.5 * 0.25
        assert abs(fv - expected) < 1e-12

    def test_unbound_variable_error(self):
        reg, x, y = xy()
        with pytest.raises(ValueError):
            (x + y).evaluate({reg.id_of("x"): QuadExt(1)})

    def test_registry_mismatch(self):
        reg1, x1, _ = xy()
        reg2, x2, _ = xy()
        with pytest.raises(RegistryMismatchError):
            x1 + x2

    def test_monic_orders(self):
        reg, x, y = xy()
        f = front_curve(reg, x, y)
        # graded-lex leading term is x^3; the y-priority order leads with y^2
        m, c = f.leading_term("grlex")
        assert m == ((reg.id_of("x"), 3),) and c == Fr(2, 3)
        m, c = f.leading_term("ylex")
        assert m == ((reg.id_of("y"), 2),) and c == 1
        g = (3 * f).monic("ylex")
        assert g == f

    def test_str_parse_roundtrip(self):
        from algwaves.exprparse import ExprParser
        reg, x, y = xy()
        polys = [
            front_curve(reg, x, y),
            x * 0,
            -x + Fr(1, 2),
            (QuadExt(Fr(1, 2), Fr(3, 4), 5)) * x * y ** 2 - 7,
        ]
        for f in polys:
            reg2 = VarRegistry(["x", "y"])
            parser = ExprParser(str(f), reg2, lambda name, tok: MultiPoly.var(reg2, name))
            g = parser.parse_expression_only()
            assert str(g) == str(f)
            assert g.terms == {m: c for m, c in f.terms.items()}


def leibniz_determinant(mat, registry):
    """The determinant as the signed sum over permutations, kept as the
    reference for bareiss_determinant."""
    n = len(mat)
    det = MultiPoly.zero(registry)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = MultiPoly.const(registry, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * mat[i][j]
        det = det + term
    return det


@st.composite
def sparse_polynomial_matrices(draw):
    """Square matrices up to 5x5 whose entries are mostly 0, else small
    integers or x - k: a zero pivot with a nonzero entry below it (a row
    swap) and a column that is zero from the pivot down (a zero
    determinant) are both common."""
    reg = VarRegistry(["x"])
    x = MultiPoly.var(reg, "x")
    n = draw(st.integers(min_value=0, max_value=5))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-3, 3),
                      st.integers(-2, 2).map(lambda k: x - k))
    return [[MultiPoly.const(reg, 0) + draw(entry) for _ in range(n)] for _ in range(n)], reg


@settings(max_examples=200, deadline=None)
@given(sparse_polynomial_matrices())
def test_bareiss_determinant_matches_leibniz(case):
    mat, reg = case
    assert bareiss_determinant(mat, reg) == leibniz_determinant(mat, reg)


def test_bareiss_determinant_swaps_rows_and_stops_at_a_zero_column():
    reg = VarRegistry(["x"])
    zero, one = MultiPoly.zero(reg), MultiPoly.one(reg)
    two = MultiPoly.const(reg, 2)
    # a zero first pivot: the swap with the second row flips the sign
    assert bareiss_determinant([[zero, one], [two, one]], reg) == -two
    # the first column is zero from the pivot down: no swap, determinant 0
    assert bareiss_determinant([[zero, one, one], [zero, two, one], [zero, one, two]], reg).is_zero


class TestLinalg:
    def test_nullspace_known(self):
        # x + y + z = 0, y - z = 0  ->  span{(-2, 1, 1)}
        one = QuadExt(1)
        zero = QuadExt(0)
        rows = [[one, one, one], [zero, one, QuadExt(-1)]]
        ns = nullspace(rows, 3)
        assert len(ns) == 1
        v = ns[0]
        assert [str(t) for t in v] == ["-2", "1", "1"]

    def test_nullspace_full(self):
        ns = nullspace([], 2)
        assert len(ns) == 2

    def test_rank_of_repeated_rows(self):
        one = QuadExt(1)
        assert 2 - len(nullspace([[one, one], [one, one]], 2)) == 1
        assert nullspace([[one, one], [one, one]], 2) == [[QuadExt(-1), one]]

    def test_in_row_span(self):
        one = QuadExt(1)
        zero = QuadExt(0)
        rows = [[one, zero, one], [zero, one, one]]
        assert in_row_span(rows, [one, one, QuadExt(2)])
        assert not in_row_span(rows, [one, one, QuadExt(3)])

    def test_in_row_span_needs_equal_lengths(self):
        one = QuadExt(1)
        with pytest.raises(ValueError):
            in_row_span([[one]], [one, one])
        with pytest.raises(ValueError):
            in_row_span([[one, QuadExt(0)]], [one])

    def test_empty_row_list(self):
        assert nullspace([], 2) == [[QuadExt(1), QuadExt(0)], [QuadExt(0), QuadExt(1)]]
        assert len(reference_rref([])[1]) == 0

    def test_negative_first_pivot_is_divided_out(self):
        # the second step divides by the first pivot, -1; skipping that
        # division (its norm is 1) scales the rows inconsistently
        rows = [[QuadExt(x) for x in row] for row in ([-1, 1, 2, 3], [1, 1, 1, 0], [2, 3, 1, 1])]
        assert nullspace(rows, 4) == reference_nullspace(rows, 4)
        s2 = QuadExt(0, 1, 2)
        rows = [[1 + s2, QuadExt(1), QuadExt(2)], [QuadExt(1), s2, QuadExt(0)]]
        assert nullspace(rows, 3) == reference_nullspace(rows, 3)

    def test_mixed_radicands_raise(self):
        rows = [[QuadExt(0, 1, 2), QuadExt(0)], [QuadExt(0), QuadExt(0, 1, 3)]]
        with pytest.raises(RadicandMismatchError):
            nullspace(rows, 2)


def reference_rref(rows):
    """Gauss-Jordan elimination in QuadExt arithmetic, with a division per
    pivot: the exact rref before fraction-free elimination, kept as the
    reference for the differential tests."""
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if not m[i][c].is_zero()), None)
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


def reference_nullspace(rows, ncols):
    red, pivots = reference_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [QuadExt(0)] * ncols
        v[fc] = QuadExt(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        basis.append(v)
    return basis


@st.composite
def elimination_matrices(draw):
    """Matrices up to 8x8 over Q or Q(sqrt(d)), possibly with no rows, with
    zero rows and columns, rows that combine earlier rows, and small
    integer entries.  About half are integer matrices with entries -1, 0
    and 1, where pivots of -1 are common: a step that skipped the
    division by a pivot of norm 1 would leave the rows scaled
    inconsistently."""
    units = draw(st.booleans())
    d = 1 if units else draw(st.sampled_from((1, 2, 3, 5, 6)))
    nrows = draw(st.integers(min_value=0, max_value=8))
    ncols = draw(st.integers(min_value=1, max_value=8))
    part = st.sampled_from((-1, 0, 1)) if units else st.one_of(
        st.integers(min_value=-2, max_value=2),
        st.fractions(min_value=-5, max_value=5, max_denominator=6))

    def entry():
        return QuadExt(draw(part), draw(part) if d > 1 else 0, d)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            coeffs = [entry() for _ in range(i)]
            rows[i] = [sum((k * row[j] for k, row in zip(coeffs, rows)), QuadExt(0))
                       for j in range(ncols)]
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=7), max_size=2))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=7), max_size=2))
    return [[QuadExt(0) if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(rows)], ncols


@settings(max_examples=100, deadline=None)
@given(elimination_matrices())
@example(([[QuadExt(x) for x in row] for row in ([-1, 1, 1], [1, 1, 0])], 3))
def test_fraction_free_elimination_matches_reference(case):
    rows, ncols = case
    # equal nullspaces mean equal pivot columns and equal free-column
    # entries, which is all a reduced row echelon form holds
    assert nullspace(rows, ncols) == reference_nullspace(rows, ncols)
    assert ncols - len(nullspace(rows, ncols)) == len(reference_rref(rows)[1])


def reference_bareiss_pivots(rows):
    """The pivot columns of the row echelon form, by fraction-free Gaussian
    elimination over Z[sqrt(d)] with Bareiss's exact division by the
    previous pivot (Bareiss 1968, Math. Comp. 22): the rank and span
    membership before both were read from the modular nullspace, kept as
    the reference for in_row_span.

    Each step replaces every row below the pivot row by
    (piv*row - row[c]*top) / prev, where prev is the previous pivot (1 at
    the first step); the quotient lies in Z[sqrt(d)] (every entry is a
    minor of the scaled matrix) and is computed as x*conj(prev) / N(prev).
    """
    d, m, _ = _integer_rows(rows)
    m = list(m)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    prev = (1, 0)
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != (0, 0)), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        pa, pb = top[c]
        qa, qb = prev
        norm = qa * qa - d * qb * qb
        for i in range(r + 1, nrows):
            fa, fb = m[i][c]
            new = []
            for (xa, xb), (ta, tb) in zip(m[i], top):
                na = pa * xa - fa * ta + d * (pb * xb - fb * tb)
                nb = pa * xb + pb * xa - fa * tb - fb * ta
                new.append(((na * qa - d * nb * qb) // norm, (nb * qa - na * qb) // norm))
            m[i] = new
        prev = top[c]
        pivots.append(c)
    return pivots


def reference_in_row_span(rows, vec):
    if all(x.is_zero() for x in vec):
        return True
    if not rows:
        return False
    return len(reference_bareiss_pivots(rows)) == len(reference_bareiss_pivots(rows + [vec]))


@st.composite
def span_cases(draw):
    """Rows from elimination_matrices() and a vector of their length: a
    combination of the rows (the zero vector when there are none or the
    coefficients vanish), or a drawn vector, which is mostly outside the
    span."""
    rows, ncols = draw(elimination_matrices())
    d = max((x.d for row in rows for x in row), default=1)
    part = st.integers(min_value=-2, max_value=2)
    if draw(st.booleans()):
        coeffs = [QuadExt(draw(part), draw(part) if d > 1 else 0, d) for _ in rows]
        vec = [sum((k * row[j] for k, row in zip(coeffs, rows)), QuadExt(0))
               for j in range(ncols)]
    else:
        vec = [QuadExt(draw(part), draw(part) if d > 1 else 0, d) for _ in range(ncols)]
    return rows, vec


@settings(max_examples=250, deadline=None)
@given(span_cases())
@example(([], [QuadExt(0)] * 3))
@example(([], [QuadExt(0), QuadExt(1)]))
@example(([[QuadExt(0)] * 2], [QuadExt(0)] * 2))
@example(([[QuadExt(1), QuadExt(2)]], [QuadExt(0), QuadExt(1)]))
def test_in_row_span_matches_bareiss_reference(case):
    rows, vec = case
    assert in_row_span(rows, vec) == reference_in_row_span(rows, vec)


@st.composite
def rank_deficient_products(draw):
    """Matrices A*B over Q or Q(sqrt(d)), A of shape nrows x k and B of
    shape k x ncols, so that the rank is at most k and several columns are
    free; tall and wide shapes.  The reduced echelon form of A*B is that of
    B when A has rank k, so its entries are ratios of k x k minors of B.
    With big entries, integers up to 2**16 and k <= 3, those run to about
    100 bits: no single 30-bit prime reconstructs them, a few primes do."""
    d = draw(st.sampled_from((1, 1, 2, 3, 5, 6, 7)))
    nrows, ncols = draw(st.sampled_from(((2, 7), (3, 9), (5, 5), (8, 4), (9, 3), (6, 8))))
    big = draw(st.booleans())
    k = draw(st.integers(min_value=0, max_value=min(nrows - 1, ncols - 1, 3 if big else 9)))
    if big:
        part = st.integers(min_value=-2**16, max_value=2**16)
    else:
        part = st.fractions(min_value=-4, max_value=4, max_denominator=3)

    def entry():
        return QuadExt(draw(part), draw(part) if d > 1 else 0, d)

    a = [[entry() for _ in range(k)] for _ in range(nrows)]
    b = [[entry() for _ in range(ncols)] for _ in range(k)]
    rows = [[sum((a[i][t] * b[t][j] for t in range(k)), QuadExt(0)) for j in range(ncols)]
            for i in range(nrows)]
    return rows, ncols


@settings(max_examples=100, deadline=None)
@given(rank_deficient_products())
def test_modular_nullspace_matches_exact_elimination(case):
    rows, ncols = case
    assert nullspace(rows, ncols) == reference_nullspace(rows, ncols)


def recorded_lifts():
    """(calls, patch): while the patch is active, each call of linalg._lift
    appends (modulus, pivots, its result) to calls."""
    calls, real = [], linalg._lift

    def lift(acc, modulus, pivots, *args):
        calls.append((modulus, pivots, real(acc, modulus, pivots, *args)))
        return calls[-1][2]

    return calls, mock.patch.object(linalg, "_lift", lift)


def test_large_entries_take_several_primes():
    # the null vector (-b/a, 1) of the row (a, b), a = 3**29 near 2**46:
    # one prime reconstructs no such rational, four do
    a, b = 3**29, 5**17
    for rows in ([[QuadExt(a), QuadExt(b)]], [[QuadExt(a, 1, 2), QuadExt(b, -3, 2)]]):
        calls, patch = recorded_lifts()
        with patch:
            got = nullspace(rows, 2)
        assert got == [[-rows[0][1] / rows[0][0], QuadExt(1)]] == reference_nullspace(rows, 2)
        assert calls[0][2] is None and calls[-1][2] == got
        assert calls[-1][0] > 2**90  # a product of at least four primes


def test_unlucky_first_prime_is_rejected_by_the_exact_check():
    # the row (p, 1) of test_free_columns_mod_p_bound_only_the_nullity:
    # mod p its pivot is column 1, so the first prime reads the null vector
    # (1, 0), which reconstructs and fails the exact check; the next prime
    # has the pivot in column 0 and starts the accumulation again
    p = MODULAR_PRIMES[0]
    rows = IntegerMatrix([[(p, 0), (1, 0)]], 1, [1])
    calls, patch = recorded_lifts()
    with patch:
        assert nullspace(rows, 2) == [[QuadExt(Fr(-1, p)), QuadExt(1)]]
    assert calls[0] == (p, [1], None)
    assert calls[1][:2] == (MODULAR_PRIMES[1], [0])
    assert all(pivots == [0] for _, pivots, _ in calls[1:])


def test_prime_whose_conjugate_images_disagree_on_pivots_is_skipped():
    # the entry -r + sqrt(d), r the first prime's root of d, maps to 0 under
    # sqrt(d) -> r and to -2r under sqrt(d) -> -r: the two images have
    # their pivots in different columns, so that prime is never lifted
    p = MODULAR_PRIMES[0]
    d = next(d for d in (2, 3, 5, 6, 7) if square_root_mod_p(d, p) is not None)
    rows = [[QuadExt(-square_root_mod_p(d, p), 1, d), QuadExt(1)]]
    calls, patch = recorded_lifts()
    with patch:
        assert nullspace(rows, 2) == reference_nullspace(rows, 2)
    assert calls and all(modulus % p for modulus, _, _ in calls)


def test_prime_with_a_later_pivot_is_skipped_while_primes_accumulate():
    # the row (a, 1) with a a multiple of the second prime, too large for one
    # prime to reconstruct -1/a: the first prime has the pivot in column 0,
    # the second in column 1, and the accumulation goes on without it
    p0, p1, *rest = MODULAR_PRIMES
    rows = [[QuadExt(p1 * 3**20), QuadExt(1)]]
    calls, patch = recorded_lifts()
    with patch:
        assert nullspace(rows, 2) == reference_nullspace(rows, 2)
    assert calls[0] == (p0, [0], None)
    assert [modulus for modulus, _, _ in calls] == [
        p0 * math.prod(rest[:2**k - 1]) for k in range(len(calls))]
    assert all(modulus % p1 for modulus, _, _ in calls)


def trial_division_primes():
    """The primes p = 3 (mod 4) below 2**30, descending, by trial division."""
    for n in range(2**30 - 1, 2, -4):
        if all(n % q for q in range(3, math.isqrt(n) + 1, 2)):
            yield n


def test_prime_stream_is_every_prime_3_mod_4_below_2_30():
    stream = list(itertools.islice(_primes(), 200))
    assert stream == list(itertools.islice(trial_division_primes(), 200))
    assert MODULAR_PRIMES == tuple(stream[:24]) and MODULAR_PRIMES[0] == 1073741783


@pytest.mark.parametrize("bits", (401, 3000))
@pytest.mark.parametrize("d", (1, 2))
def test_null_vectors_beyond_the_table_are_lifted_from_more_primes(bits, d):
    # -1/(n + sqrt(d)) with n = 2**bits + 1 reconstructs from no product of
    # MODULAR_PRIMES (about 2**720, which bounds its entries by about
    # 2**360); the walk goes on down the prime stream, lifting at 1, 2, 4,
    # 8, ... of the primes at which d is a square, until the exact check
    # passes
    n = 2**bits + 1
    rows = [[QuadExt(n, 1 if d > 1 else 0, d), QuadExt(1), QuadExt(0)],
            [QuadExt(0), QuadExt(0), QuadExt(1)]]
    calls, patch = recorded_lifts()
    with patch:
        got = nullspace(rows, 3)
    assert got == [[-1 / rows[0][0], QuadExt(1), QuadExt(0)]]
    assert calls[-1][2] == got and calls[-1][0] > math.prod(MODULAR_PRIMES)
    usable = [p for p in itertools.islice(_primes(), 2100)
              if pow(d, (p - 1) // 2, p) == 1]
    assert [modulus for modulus, _, _ in calls] == [
        math.prod(usable[:2**k]) for k in range(len(calls))]


def prefix_mod_p(rows, ncols):
    """independent_prefix_mod_p on the image of a matrix (rows of QuadExt
    or an IntegerMatrix) at the prime modular_root picks for its entries;
    0, nothing proved, when no prime qualifies.  An IntegerMatrix's field is
    Q(sqrt(d)) even when no entry has a sqrt(d) part, so sqrt(d) joins the
    entries there."""
    field = []
    if isinstance(rows, IntegerMatrix):
        field = [QuadExt(0, 1, rows.d)]
        rows = [[QuadExt(Fr(a, s), Fr(b, s), rows.d) for a, b in row]
                for row, s in zip(rows, rows.scales)]
    root = modular_root([*field, *(x for row in rows for x in row)])
    if root is None:
        return 0
    p, r, _ = root
    return independent_prefix_mod_p(
        [{j: v for j, x in enumerate(row) if (v := residue(x, p, r))} for row in rows],
        ncols, p)


class TestModularPrefix:
    def test_invertible_matrix_is_certified(self):
        rows = [[QuadExt(1), QuadExt(0, 1, 2)], [QuadExt(Fr(1, 3)), QuadExt(5)]]
        assert prefix_mod_p(rows, 2) == 2

    def test_stops_at_first_dependent_column(self):
        one, two = QuadExt(1), QuadExt(2)
        rows = [[one, two, one], [two, QuadExt(4), QuadExt(0)]]
        assert prefix_mod_p(rows, 3) == 1

    def test_unlucky_prime_only_lowers_the_count(self):
        # the entry p vanishes mod the first prime but not over Q
        p = MODULAR_PRIMES[0]
        rows = [[QuadExt(1), QuadExt(0)], [QuadExt(0), QuadExt(p)]]
        assert nullspace(rows, 2) == []
        assert prefix_mod_p(rows, 2) == 1

    def test_free_columns_mod_p_bound_only_the_nullity(self):
        # the row (p, 1): mod p column 0 has no pivot, yet exactly it is
        # the pivot and column 1 is free, so the mod-p free columns are no
        # superset of the exact ones; only their count bounds the nullity
        p = MODULAR_PRIMES[0]
        rows = IntegerMatrix([[(p, 0), (1, 0)]], 1, [1])
        assert prefix_mod_p(rows, 2) == 0
        assert nullspace(rows, 2) == [[QuadExt(Fr(-1, p)), QuadExt(1)]]

    def test_denominator_divisible_by_p_moves_to_next_prime(self):
        # mod the first prime 1/p has no image, so a later prime certifies
        p = MODULAR_PRIMES[0]
        rows = [[QuadExt(1), QuadExt(0)], [QuadExt(0), QuadExt(Fr(1, p))]]
        assert prefix_mod_p(rows, 2) == 2

    def test_no_qualifying_prime_proves_nothing(self):
        den = 1
        for p in MODULAR_PRIMES:
            den *= p
        rows = [[QuadExt(Fr(1, den)), QuadExt(0)], [QuadExt(0), QuadExt(1)]]
        assert modular_root(x for row in rows for x in row) is None
        assert prefix_mod_p(rows, 2) == 0

    def test_mixed_radicands_prove_nothing(self):
        rows = [[QuadExt(0, 1, 2), QuadExt(0)], [QuadExt(0), QuadExt(0, 1, 3)]]
        assert modular_root(x for row in rows for x in row) is None
        assert prefix_mod_p(rows, 2) == 0

    def test_radicand_must_be_a_square_mod_p(self):
        # 5 is not a square mod 2**30 - 41, so the first prime cannot serve
        p = MODULAR_PRIMES[0]
        assert p == 2**30 - 41 and pow(5, (p - 1) // 2, p) == p - 1
        assert modular_root([QuadExt(0, 1, 5)])[0] < p
        rows = [[QuadExt(0, 1, 5), QuadExt(1)], [QuadExt(1), QuadExt(0, 1, 5)]]
        assert nullspace(rows, 2) == []  # determinant sqrt(5)^2 - 1 = 4
        assert prefix_mod_p(rows, 2) == 2
        # column 2 is sqrt(5) times column 1; a root of -5 in place of a
        # root of 5 would make the determinant 5 - r^2 = 10, not 0
        s5 = QuadExt(0, 1, 5)
        rows = [[QuadExt(1), s5], [s5, QuadExt(5)]]
        assert len(nullspace(rows, 2)) == 1
        assert prefix_mod_p(rows, 2) == 1

    def test_squares_need_nonzero_square_images(self):
        # 5 is no square mod the first prime, so a later prime serves; each
        # root squares to its pair's image a + b*r
        p = MODULAR_PRIMES[0]
        q, r, roots = modular_root([QuadExt(1)], [(5, 0), (4, 0)])
        assert q < p and r == 1 and [x * x % q for x in roots] == [5, 4]
        q, r, (root,) = modular_root([QuadExt(0, 1, 2)], [(1, 1)])
        assert r * r % q == 2 and root * root % q == (1 + r) % q
        # a pair whose image is 0 at every prime leaves no ring map
        assert modular_root([QuadExt(1)], [(0, 0)]) is None
        assert modular_root([QuadExt(1)], [(math.prod(MODULAR_PRIMES), 0)]) is None


@st.composite
def matrices_with_planted_dependencies(draw):
    """Small matrices over Q(sqrt(d)) in which some columns are exact
    combinations of earlier ones."""
    d = draw(st.sampled_from((1, 2, 3, 5, 6, 7)))
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=5))
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def entry():
        return QuadExt(draw(rat), draw(rat) if d > 1 else 0, d)

    cols = [[entry() for _ in range(nrows)] for _ in range(ncols)]
    for j in range(1, ncols):
        if draw(st.booleans()):
            coeffs = [entry() for _ in range(j)]
            cols[j] = [sum((c * col[i] for c, col in zip(coeffs, cols)), QuadExt(0))
                       for i in range(nrows)]
    return [[cols[j][i] for j in range(ncols)] for i in range(nrows)], ncols


@settings(max_examples=60, deadline=None)
@given(matrices_with_planted_dependencies())
def test_modular_prefix_agrees_with_exact_rref(case):
    rows, ncols = case
    ns = nullspace(rows, ncols)
    # a null vector's last nonzero entry is its free column
    first_free = max(j for j, x in enumerate(ns[0]) if not x.is_zero()) if ns else ncols
    proved = prefix_mod_p(rows, ncols)
    # soundness: never more independent columns than there are exactly
    assert proved <= first_free
    if proved == ncols:
        assert ns == []
    # and a 30-bit prime is not unlucky on entries this small
    assert proved == first_free


def reference_independent_prefix_mod_p(rows, ncols):
    """The dense mod-p elimination: every row a full list of residues, kept
    as the reference for the sparse independent_prefix_mod_p."""
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


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices_with_planted_dependencies(), rank_deficient_products()))
def test_sparse_modular_prefix_matches_dense_reference(case):
    rows, ncols = case
    assert prefix_mod_p(rows, ncols) == reference_independent_prefix_mod_p(rows, ncols)


@st.composite
def integer_matrices_vanishing_mod_p(draw):
    """IntegerMatrix rows whose entries are often multiples of the first
    prime: zero mod p but not over Z[sqrt(d)], so the prime sees rows and
    columns vanish that exact elimination does not."""
    p = MODULAR_PRIMES[0]
    d = draw(st.sampled_from((1, 2, 3, 5, 6, 7)))
    nrows = draw(st.integers(min_value=1, max_value=7))
    ncols = draw(st.integers(min_value=1, max_value=6))
    part = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3),
                     st.integers(min_value=-2, max_value=2).map(lambda k: k * p))
    rows = [[(draw(part), draw(part) if d > 1 else 0) for _ in range(ncols)]
            for _ in range(nrows)]
    scales = [draw(st.sampled_from((1, 2, 3, 12))) for _ in range(nrows)]
    return IntegerMatrix(rows, d, scales), ncols


@settings(max_examples=150, deadline=None)
@given(integer_matrices_vanishing_mod_p())
def test_sparse_modular_prefix_matches_dense_on_entries_zero_mod_p(case):
    rows, ncols = case
    before = [list(row) for row in rows]
    assert prefix_mod_p(rows, ncols) == reference_independent_prefix_mod_p(rows, ncols)
    assert [list(row) for row in rows] == before


FISHER_SPEEDS = (QuadExt(2), QuadExt(Fr(7, 3)), QuadExt(0, Fr(5, 6), 6),
                 QuadExt(0, Fr(-5, 6), 6), QuadExt(0, 1, 21))


@st.composite
def invariance_inputs(draw):
    """A plane system x' = P, y' = Q, a constant cofactor, a degree bound up
    to 8 and up to two required points.  P and Q are random of degree at
    most 2 (small rational or Q(sqrt(d)) coefficients), or the Fisher plane
    system at a rational or Q(sqrt(d)) speed with a saddle cofactor (at
    +-5/6*sqrt(6) the cubic's column is free for -+sqrt(6)), or x' = x,
    y' = -a*y with k = i - a*j (the column of x^i y^j is free)."""
    d = draw(st.sampled_from((1, 2, 3, 5)))
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    elt = st.one_of(rat, st.builds(lambda a, b: QuadExt(a, b, d), rat, rat))
    reg, x, y = xy()
    kind = draw(st.sampled_from(("random", "front", "monomial")))
    if kind == "random":
        monos = [MultiPoly.one(reg), x, y, x * x, x * y, y * y]
        P, Q = (sum((draw(elt) * m for m in monos if draw(st.booleans())),
                    MultiPoly.zero(reg)) for _ in range(2))
        k = QuadExt.lift(draw(st.one_of(st.integers(min_value=-3, max_value=3), elt)))
    elif kind == "front":
        c = draw(st.sampled_from(FISHER_SPEEDS))
        P, Q = y, x * x - x - c * y
        ps = PlanarSystem(reg, x.variables()[0], y.variables()[0], P, Q)
        k = draw(st.sampled_from(eigenvalue_cofactor_candidates(ps, [(1, 0)])[0]))
        d = max(c.d, k.d)
    else:
        a = draw(rat)
        P, Q = x, -a * y
        k = QuadExt.lift(draw(st.integers(min_value=0, max_value=4))
                         - a * draw(st.integers(min_value=0, max_value=4)))
    elt = st.one_of(rat, st.builds(lambda a, b: QuadExt(a, b, d), rat, rat))
    points = draw(st.lists(st.one_of(st.tuples(elt, elt),
                                     st.sampled_from(((0, 0), (1, 0)))), max_size=2))
    degree = draw(st.integers(min_value=0, max_value=8))
    return PlanarSystem(reg, x.variables()[0], y.variables()[0], P, Q), k, degree, points


@settings(max_examples=60, deadline=None)
@given(invariance_inputs().map(lambda case: invariance_matrix(*case)))
def test_sparse_modular_prefix_matches_dense_on_invariance_matrices(case):
    basis, rows = case
    assert prefix_mod_p(rows, len(basis)) == reference_independent_prefix_mod_p(rows, len(basis))


def integer_row_prefix_mod_p(rows, ncols, primes):
    """The certificate on the integer rows of an IntegerMatrix, at the first
    of the given primes that qualifies: the search's certificate before its
    rows were built mod p, kept as the reference for darboux._ModularRows."""
    try:
        d, m, scales = _integer_rows(rows)
    except RadicandMismatchError:
        return 0
    for p in primes:
        r = pow(d, (p + 1) // 4, p)
        if d % p and r * r % p == d % p and all(s % p for s in scales):
            break
    else:
        return 0
    by_first = {}
    for row in m:
        sparse = {}
        for j, (a, b) in enumerate(row):
            if a or b:
                v = (a + b * r) % p
                if v:
                    sparse[j] = v
        if sparse:
            by_first.setdefault(min(sparse), []).append(sparse)
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


def search_rows(ps, k, degree, points):
    """The search's modular rows for k and the exact matrix, at the prime
    the search would pick, or None when no prime qualifies."""
    pts = [(QuadExt.lift(a), QuadExt.lift(b)) for a, b in points]
    root = modular_root([*ps.P.terms.values(), *ps.Q.terms.values(),
                         *(c for pt in pts for c in pt), k])
    if root is None:
        return None
    p, r, _ = root
    modular = darboux._ModularRows(ps, degree, pts, p, r)
    basis, rows = invariance_matrix(ps, k, degree, points)
    return (p, r), modular, basis, rows


@settings(max_examples=80, deadline=None)
@given(invariance_inputs())
def test_modular_rows_are_the_image_of_the_invariance_matrix(case):
    ps, k, degree, points = case
    found = search_rows(ps, k, degree, points)
    assume(found is not None)
    (p, r), modular, basis, rows = found
    image = []
    for row, s in zip(rows, rows.scales):
        inv = pow(s, -1, p)
        image.append({j: v for j, (a, b) in enumerate(row) if (v := (a + b * r) * inv % p)})
    got = modular.rows_for(residue(k, p, r))
    assert [row for row in got if row] == [row for row in image if row]
    n = len(basis)
    assert independent_prefix_mod_p(got, n, p) == integer_row_prefix_mod_p(rows, n, (p,))


@st.composite
def cubic_invariance_inputs(draw):
    """A Nagumo-type system x' = y, y' = -c*y + a0 + a1 x + a2 x^2 + a3 x^3
    (a3 nonzero) over Q or Q(sqrt(d)), a constant cofactor, a degree bound
    up to 8 and up to two points.  Its residual rows reach degree N + 2, and
    y may come before x in the registry, so that the other variable's
    exponent places a row."""
    d = draw(st.sampled_from((1, 2, 3, 5)))
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    elt = st.one_of(rat, st.builds(lambda a, b: QuadExt(a, b, d), rat, rat))
    reg = VarRegistry(draw(st.sampled_from((["x", "y"], ["y", "x"]))))
    x, y = MultiPoly.var(reg, "x"), MultiPoly.var(reg, "y")
    a0, a1, a2, c = (draw(elt) for _ in range(4))
    a3 = draw(elt.filter(lambda v: v != 0))
    Q = -c * y + a0 + a1 * x + a2 * x * x + a3 * x * x * x
    k = QuadExt.lift(draw(st.one_of(st.integers(min_value=-3, max_value=3), elt)))
    points = draw(st.lists(st.tuples(elt, elt), max_size=2))
    degree = draw(st.integers(min_value=0, max_value=8))
    return PlanarSystem(reg, reg.id_of("x"), reg.id_of("y"), y, Q), k, degree, points


@settings(max_examples=80, deadline=None)
@given(cubic_invariance_inputs())
def test_modular_rows_are_the_image_of_the_invariance_matrix_on_cubic_fields(case):
    ps, k, degree, points = case
    found = search_rows(ps, k, degree, points)
    assume(found is not None)
    (p, r), modular, basis, rows = found
    image = []
    for row, s in zip(rows, rows.scales):
        inv = pow(s, -1, p)
        image.append({j: v for j, (a, b) in enumerate(row) if (v := (a + b * r) * inv % p)})
    assert [row for row in modular.rows_for(residue(k, p, r)) if row] == \
        [row for row in image if row]


@settings(max_examples=60, deadline=None)
@given(invariance_inputs())
def test_full_rank_mod_p_means_no_curve(case):
    ps, k, degree, points = case
    found = search_rows(ps, k, degree, points)
    assume(found is not None)
    (p, r), modular, basis, rows = found
    if modular.certifies(residue(k, p, r)):
        assert nullspace(rows, len(basis)) == []


small_coeffs = st.integers(min_value=-4, max_value=4)


def poly_strategy(reg_names=("x", "y")):
    def build(coeff_list):
        reg = VarRegistry(list(reg_names))
        xs = [MultiPoly.var(reg, n) for n in reg_names]
        f = MultiPoly.zero(reg)
        for i, c in enumerate(coeff_list):
            ex = i % 3
            ey = (i // 3) % 3
            f = f + c * xs[0] ** ex * xs[1] ** ey
        return reg, f
    return st.lists(small_coeffs, min_size=1, max_size=9).map(build)


class TestHash:
    def test_equal_polynomials_built_differently_hash_equal(self):
        reg, x, y = xy()
        f = (x + 1) * (y - x)
        g = y * x - x * x + y - x
        h = MultiPoly(reg, dict(reversed(list(g.terms.items()))))
        s6 = QuadExt(0, 1, 6)
        assert f == g == h and hash(f) == hash(g) == hash(h)
        assert hash(s6 * f - s6 * x) == hash(s6 * (f - x)) == hash(s6 * (x * y + y - x * x - 2 * x))
        assert len({f, g, h, (x + 1) * y - x * x - x}) == 1

    def test_hash_is_computed_once(self):
        _, x, y = xy()
        f = (x + y + QuadExt(0, 1, 2)) ** 3
        with mock.patch.object(QuadExt, "__hash__", autospec=True,
                               side_effect=QuadExt.__hash__) as coefficient_hash:
            first = hash(f)
            assert coefficient_hash.call_count == len(f.terms)
            assert hash(f) == first and {f: 1}[f] == 1
            assert coefficient_hash.call_count == len(f.terms)


class TestRingLaws:
    @settings(max_examples=30, deadline=None)
    @given(poly_strategy(), st.integers(min_value=0, max_value=6))
    def test_power_is_repeated_product(self, case, n):
        reg, f = case
        want = MultiPoly.one(reg)
        for _ in range(n):
            want = want * f
        assert f**n == want

    def test_power_products(self, monkeypatch):
        # square and multiply from the base itself: no product for f**1
        # and no squaring past the top bit
        _, x, y = xy()
        f = x + y + 1
        real = MultiPoly.__mul__
        calls = []

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(MultiPoly, "__mul__", counted)
        for n, products in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
            calls.clear()
            f**n
            assert len(calls) == products, n

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_product_rule(self, data):
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        def rand_poly():
            cs = data.draw(st.lists(small_coeffs, min_size=1, max_size=6))
            f = MultiPoly.zero(reg)
            for i, c in enumerate(cs):
                f = f + c * x ** (i % 3) * y ** (i // 3)
            return f
        f, g = rand_poly(), rand_poly()
        v = reg.id_of("x")
        lhs = (f * g).partial_derivative(v)
        rhs = f.partial_derivative(v) * g + f * g.partial_derivative(v)
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_substitute_evaluate_commute(self, data):
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        cs = data.draw(st.lists(small_coeffs, min_size=1, max_size=6))
        f = MultiPoly.zero(reg)
        for i, c in enumerate(cs):
            f = f + c * x ** (i % 3) * y ** (i // 3)
        a = data.draw(small_coeffs)
        b = data.draw(small_coeffs)
        # substitute x -> x + a then evaluate equals evaluate at shifted point
        g = f.substitute({reg.id_of("x"): x + a})
        pt = {reg.id_of("x"): QuadExt(b), reg.id_of("y"): QuadExt(a)}
        pt_shift = {reg.id_of("x"): QuadExt(b + a), reg.id_of("y"): QuadExt(a)}
        assert g.evaluate(pt) == f.evaluate(pt_shift)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_trial_divide_roundtrip(self, data):
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        def rand_poly():
            cs = data.draw(st.lists(small_coeffs, min_size=1, max_size=5))
            f = MultiPoly.zero(reg)
            for i, c in enumerate(cs):
                f = f + c * x ** (i % 3) * y ** (i // 3)
            return f
        f, g = rand_poly(), rand_poly()
        if not g.is_zero:
            assert trial_divide(f * g, g) == f

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_resultant_vanishes_on_common_root(self, data):
        # Res(p, q, x) evaluated at the y-image of a shared root must vanish
        reg = VarRegistry(["x", "y"])
        x = MultiPoly.var(reg, "x")
        y = MultiPoly.var(reg, "y")
        r = data.draw(small_coeffs)
        p = (x - r) * (x + y + data.draw(small_coeffs))
        q = (x - r) * (x * y + data.draw(small_coeffs))
        res = sylvester_resultant(p, q, reg.id_of("x"))
        assert res.is_zero or all(
            res.evaluate({reg.id_of("y"): QuadExt(t)}).is_zero() is False
            for t in []
        )
        # direct statement: resultant of polynomials sharing the factor x - r is 0
        assert sylvester_resultant(x - r, (x - r) * (y + 1), reg.id_of("x")).is_zero



def reference_substitute(f, bindings, registry=None):
    """MultiPoly.substitute as it was before one-term bindings got a fast
    path: one polynomial per term, a product per factor, added up."""
    target = registry if registry is not None else f.registry
    subs = {v: val if isinstance(val, MultiPoly) else MultiPoly.const(target, val)
            for v, val in bindings.items()}
    out = MultiPoly.zero(target)
    for m, c in f.terms.items():
        part = MultiPoly.const(target, c)
        for v, e in m:
            if v in subs:
                p = subs[v] ** e
            elif target is f.registry:
                p = MultiPoly(target, {((v, e),): QuadExt(1)})
            else:
                raise ValueError("no binding")
            part = part * p
        out = out + part
    return out


XYZW = ("x", "y", "z", "w")
units = st.sampled_from([QuadExt(1), QuadExt(-1), QuadExt(2), QuadExt(Fr(1, 3)),
                         QuadExt(0, 1, 2), QuadExt(1, -1, 2)])


@st.composite
def substitution_cases(draw):
    """(f, bindings, registry) with scalar, renaming or several-term
    bindings.  Coefficients are small and the several-term bindings share
    variables, so terms often cancel while they are added up."""
    reg = VarRegistry(XYZW)
    xs = [MultiPoly.var(reg, n) for n in XYZW]
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        m = tuple((v, e) for v, e in enumerate(draw(st.tuples(*[st.integers(0, 2)] * 4))) if e)
        terms[m] = draw(st.sampled_from([1, -1, 2, QuadExt(0, 1, 2)]))
    f = MultiPoly(reg, terms)
    kind = draw(st.sampled_from(["scalar", "rename", "several"]))
    bound = draw(st.lists(st.sampled_from(range(4)), unique=True, min_size=1))
    if kind == "scalar":
        scalars = st.one_of(units, st.just(QuadExt(0)), small_coeffs)
        return f, {v: draw(scalars) for v in bound}, None
    if kind == "rename":
        reg2 = VarRegistry(["u", "v", "s", "t"])
        ys = [MultiPoly.var(reg2, n) for n in ("u", "v", "s", "t")]
        images = draw(st.permutations(range(4)))
        bindings = {}
        for v in range(4):
            image = draw(st.sampled_from(["var", "scaled", "scalar"]))
            if image == "var":
                bindings[v] = ys[images[v]]
            elif image == "scaled":
                bindings[v] = draw(units) * ys[images[v]]
            else:
                bindings[v] = draw(units)
        return f, bindings, reg2
    x, y, z, w = xs
    pool = [y, -y, z, 2 * x, x + 1, y - z, z - y, 1 - x * y, x + y + w, QuadExt(0, 1, 2) * w - x]
    return f, {v: draw(st.sampled_from(pool)) for v in bound}, None


@settings(max_examples=200, deadline=None)
@given(substitution_cases())
def test_substitute_matches_reference_term_for_term(case):
    f, bindings, registry = case
    got = f.substitute(bindings, registry=registry)
    want = reference_substitute(f, bindings, registry=registry)
    # the same terms in the same order: generated float evaluators sum in it
    assert list(got.terms.items()) == list(want.terms.items())


def test_substitute_moves_a_cancelled_term_to_the_end():
    # x -> y gives y, which the term -y cancels; z -> y brings y back after w
    reg = VarRegistry(XYZW)
    x, y, z, w = (((v, 1),) for v in range(4))
    f = MultiPoly(reg, {x: 1, y: -1, w: 1, z: 1})
    bindings = {0: MultiPoly.var(reg, "y"), 2: MultiPoly.var(reg, "y")}
    got = f.substitute(bindings)
    assert list(got.terms) == [w, y]
    assert list(got.terms.items()) == list(reference_substitute(f, bindings).terms.items())


def test_substitute_needs_a_binding_for_every_variable_under_a_new_registry():
    reg, x, y = xy()
    reg2 = VarRegistry(["u"])
    with pytest.raises(ValueError, match="no binding for variable 'y'"):
        (x + y).substitute({reg.id_of("x"): MultiPoly.var(reg2, "u")}, registry=reg2)
    with pytest.raises(RegistryMismatchError):
        x.substitute({reg.id_of("x"): MultiPoly.var(reg2, "u")})

def reference_compile_float(f, order):
    """The term-interpreting evaluator that the generated one replaced:
    a loop over (coefficient, ((position, exponent), ...)) terms summed
    from 0.0."""
    pos = {v: i for i, v in enumerate(order)}
    if f.is_constant():
        terms = [(float(f.coeff(())), tuple((i, 0) for i in range(len(order))))]
    else:
        terms = [(float(c), tuple((pos[v], e) for v, e in m))
                 for m, c in f.terms.items()]

    def evaluate(*xs):
        total = 0.0
        for c, mono in terms:
            for i, e in mono:
                c = c * xs[i] ** e
            total = total + c
        return total

    return evaluate


@st.composite
def float_eval_cases(draw):
    """Two polynomials f, g over Q or Q(sqrt d) in 1-3 variables, an
    argument order, a few dyadic points indexed by variable (so the float
    arguments are exact) and a few arbitrary argument tuples."""
    names = ["x", "y", "z"][:draw(st.integers(min_value=1, max_value=3))]
    d = draw(st.sampled_from((1, 2, 3, 6)))
    reg = VarRegistry(names)
    rat = st.fractions(min_value=-4, max_value=4, max_denominator=6)

    def poly():
        f = MultiPoly.zero(reg)
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            exps = [draw(st.integers(min_value=0, max_value=3)) for _ in names]
            mono = tuple((v, e) for v, e in enumerate(exps) if e)
            f = f + MultiPoly(reg, {mono: QuadExt(draw(rat), draw(rat), d)})
        return f

    f, g = poly(), poly()
    order = draw(st.permutations(range(len(names))))
    dyadic = st.builds(lambda n, k: Fr(n, 2 ** k), st.integers(-64, 64),
                       st.integers(min_value=0, max_value=4))
    points = draw(st.lists(st.tuples(*[dyadic] * len(names)), min_size=1, max_size=5))
    args = draw(st.lists(st.tuples(*[st.floats(-8.0, 8.0)] * len(names)),
                         min_size=1, max_size=5))
    return f, g, order, points, args


class TestCompiledFloat:
    @settings(max_examples=80, deadline=None)
    @given(float_eval_cases())
    def test_agrees_with_exact_evaluate(self, case):
        f, _, order, points, _ = case
        ev = f.compile_float(order)
        cols = [np.array([float(pt[v]) for pt in points]) for v in order]
        on_array = ev(*cols)
        assert on_array.shape == (len(points),)
        for k, pt in enumerate(points):
            exact = float(f.evaluate(dict(enumerate(pt))))
            # float rounding per term, scaled by the size of the terms
            scale = 1.0 + sum(abs(float(c)) * math.prod(abs(float(pt[v])) ** e
                                                       for v, e in m)
                              for m, c in f.terms.items())
            args = [float(pt[v]) for v in order]
            assert abs(ev(*args) - exact) <= 1e-12 * scale
            assert abs(on_array[k] - exact) <= 1e-12 * scale
            assert f.evaluate_float(dict(enumerate(map(float, pt)))) == ev(*args)

    @settings(max_examples=80, deadline=None)
    @given(float_eval_cases())
    def test_same_floats_as_reference(self, case):
        # the generated sum does the reference's operations in its order,
        # without the leading 0.0 +, so only the sign of a zero may differ
        f, g, order, _, args = case
        ev, ref = f.compile_float(order), reference_compile_float(f, order)
        for xs in args:
            assert ev(*xs) == ref(*xs)
        cols = [np.array(col) for col in zip(*args)]
        assert np.array_equal(ev(*cols), ref(*cols))
        rhs = compile_float_field([f, g], order)
        ref_g = reference_compile_float(g, order)
        for u in args:
            assert rhs(0.0, u) == (ref(*u), ref_g(*u))

    @pytest.mark.parametrize("nterms", [MAX_TERMS_PER_EXPR + 1, 20_000])
    def test_long_sums_compile(self, nterms):
        # one expression of 20,000 terms would overflow the compiler's stack
        reg = VarRegistry(["x", "y", "z"])
        exps = itertools.islice(itertools.product(range(28), repeat=3), nterms)
        f = MultiPoly(reg, {tuple((v, e) for v, e in enumerate(es) if e):
                            QuadExt(Fr((-1) ** k * (k % 7 + 1), k % 5 + 1))
                            for k, es in enumerate(exps)})
        assert len(f.terms) == nterms
        order = [2, 0, 1]
        ref = reference_compile_float(f, order)
        ev = f.compile_float(order)
        pt = (0.5, -0.97, 0.93)
        assert ev(*pt) == ref(*pt)
        cols = [np.linspace(-1.0, 1.0, 5)] * 3
        assert np.array_equal(ev(*cols), ref(*cols))
        assert compile_float_field([f], order)(0.0, pt) == (ref(*pt),)

    def test_variable_names_never_reach_the_source(self):
        # "lambda" in the source would be a syntax error and the second name
        # a call; VarRegistry refuses the second, so it is put in by hand
        reg = VarRegistry(["lambda", "y"])
        reg._names[1] = "__import__('os')"
        x, y = MultiPoly.var(reg, 0), MultiPoly.var(reg, 1)
        f = 3 * x * y ** 2 - Fr(1, 3) * x
        ev = f.compile_float([0, 1])
        assert ev(2.0, 0.5) == reference_compile_float(f, [0, 1])(2.0, 0.5)
        assert compile_float_field([f, y], [0, 1])(0.0, (2.0, 0.5)) == (ev(2.0, 0.5), 0.5)
        # the coefficients are bound by name: the code holds no float
        assert all(c is None or type(c) is int for c in ev.__code__.co_consts)

    def test_unbound_variable_names_it(self):
        reg, x, y = xy()
        with pytest.raises(ValueError, match="'y'"):
            (x + y).compile_float([reg.id_of("x")])
        with pytest.raises(ValueError, match="'y'"):
            (x * y).evaluate_float({reg.id_of("x"): 1.0})

    def test_constants_broadcast_over_arrays(self):
        reg, x, y = xy()
        xs = np.linspace(-1.0, 1.0, 7)
        zero = MultiPoly.zero(reg).compile_float([0, 1])(xs, xs)
        assert zero.shape == (7,) and not zero.any()
        three = MultiPoly.const(reg, QuadExt(0, 1, 2)).compile_float([0, 1])(xs, xs)
        assert three.shape == (7,) and (three == 2 ** 0.5).all()
        assert MultiPoly.const(reg, 3).compile_float([0])(0.5) == 3.0
