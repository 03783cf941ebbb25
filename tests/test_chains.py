"""Exact linear algebra: sparse matrices, Smith form, homology,
totalization."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from gammahom.chains import (GF, QQ, ZZ, ChainComplex, CooMatrix,
                             HomologyGroup, Multicomplex, Ring, homology,
                             induced_map_is_iso_field,
                             induced_map_is_surjective_integer,
                             integer_kernel_basis,
                             matrix_rank, parse_ring,
                             smith_normal_form, total_complex)
from gammahom.errors import IntegrityError, LimitExceeded


def dense_mm(a, b):
    if not a or not b:
        return []
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def random_coo(rng, rows, cols, lo, hi):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            v = rng.randint(lo, hi)
            if v:
                entries[(r, c)] = v
    return CooMatrix.from_entries((rows, cols), entries)


# ---------------------------------------------------------------------------
# Rings.

def test_ring_parsing():
    assert parse_ring("z") == ZZ
    assert parse_ring("Q") == QQ
    assert parse_ring("f2") == GF(2)
    assert parse_ring("f5").p == 5
    with pytest.raises(ValueError):
        parse_ring("f4")
    with pytest.raises(ValueError):
        parse_ring("r")
    with pytest.raises(ValueError):
        Ring("F", 9)
    # A prime above 2^31 would overflow the int64 elimination; it is
    # refused before any primality test, so a 40-digit one is refused at
    # once.
    with pytest.raises(ValueError):
        parse_ring("f4294967311")
    with pytest.raises(ValueError):
        parse_ring("f1000000000000000000000000000000000000003")


# ---------------------------------------------------------------------------
# Sparse matrices.

def test_coo_canonicalization():
    m = CooMatrix((2, 2), [0, 0, 1], [1, 1, 0], [2, -2, 3])
    assert m.nnz == 1
    assert list(m.entries()) == [(1, 0, 3)]
    with pytest.raises(ValueError):
        CooMatrix((1, 1), [1], [0], [1])


def test_coo_is_column_major_and_lists_json_row_major():
    m = CooMatrix((2, 2), [0, 1, 0], [1, 0, 0], [5, 6, 7])
    assert list(m.entries()) == [(0, 0, 7), (1, 0, 6), (0, 1, 5)]
    assert m.to_json()["entries"] == [[0, 0, 7], [0, 1, 5], [1, 0, 6]]
    assert list(m.transpose().entries()) == [(0, 0, 7), (1, 0, 5), (0, 1, 6)]
    assert m.transpose().transpose() == m


def test_coo_canonical_claim_is_checked():
    m = CooMatrix((3, 2), [0, 2, 1], [0, 0, 1], [1, -1, 2], _canonical=True)
    assert list(m.entries()) == [(0, 0, 1), (2, 0, -1), (1, 1, 2)]
    bad = [
        ([0, 1], [1, 0], [1, 1]),  # row-major order
        ([2, 0], [0, 0], [1, 1]),  # rows decreasing within a column
        ([0, 0], [0, 0], [1, 1]),  # a repeated position
        ([0], [0], [0]),  # an explicit zero
        ([3], [0], [1]),  # row 3 would alias (0, 1) in a sort key
        ([-1], [1], [1]),
        ([0], [2], [1]),
        ([0], [-1], [1]),
        ([0, 1], [0], [1]),  # arrays of different lengths
    ]
    for row, col, val in bad:
        with pytest.raises(ValueError):
            CooMatrix((3, 2), row, col, val, _canonical=True)


def test_coo_json_roundtrip():
    rng = random.Random(3)
    m = random_coo(rng, 4, 6, -3, 3)
    again = CooMatrix.from_json(m.to_json())
    assert again == m


def test_matrix_ranks_agree_on_small_random():
    rng = random.Random(17)
    for _ in range(60):
        m = random_coo(rng, rng.randint(1, 6), rng.randint(1, 6), -3, 3)
        rank_z = matrix_rank(m, ZZ)
        assert rank_z == matrix_rank(m, QQ)
        assert matrix_rank(m, GF(2)) <= rank_z
        assert matrix_rank(m, GF(3)) <= rank_z
        # ranks over a huge prime match the rational rank for tiny entries
        assert matrix_rank(m, GF(1009)) == rank_z
        assert matrix_rank(m, GF(2147483647)) == rank_z


def test_gf2_rank_known():
    m = CooMatrix.from_entries((3, 3), {(0, 0): 1, (0, 1): 1, (1, 1): 1,
                                        (1, 2): 1, (2, 0): 1, (2, 2): 1})
    # rows sum to zero mod 2
    assert matrix_rank(m, GF(2)) == 2
    assert matrix_rank(m, QQ) == 3


def digits_per_word(a, b):
    """How many rows of a the packed product puts in one 64-bit word:
    64 // w for the least w with 2^(w-1) > max|a| max|b| c, c the most
    entries in a column of b."""
    most = max(Counter(b.col.tolist()).values())
    bound = max(map(abs, a.val.tolist())) * max(map(abs, b.val.tolist())) \
        * most
    return 64 // (bound.bit_length() + 1)


def vanishing_pair(rng, rows, inner, cols, used):
    """Integer a (rows x 2 inner + 1) and b with a b = 0: a = [A | A | 0],
    b = [B; -B; 0], entries of A and B in {+-1, +-2, 3, -7}; b holds
    entries only in the columns ``used``."""
    values = (1, -1, 2, -2, 3, -7)
    a, b = {}, {}
    for r in range(rows):
        for k in rng.sample(range(inner), min(inner, 3)):
            a[r, k] = a[r, inner + k] = rng.choice(values)
    for c in used:
        for k in rng.sample(range(inner), min(inner, 2)):
            b[k, c] = rng.choice(values)
            b[inner + k, c] = -b[k, c]
    return a, b


def test_zero_product_against_python_integer_products():
    from gammahom.chains import _PRODUCT_CHUNK, is_zero_product
    rng = random.Random(41)
    seen = Counter()
    for width in (5, 300, _PRODUCT_CHUNK + 200):
        # Wide b has more columns than rows, tall b fewer; most columns of
        # the widest are empty, and some columns of every b are.
        inner = 4 if width > 300 else 12
        used = sorted(rng.sample(range(width), min(width - 1, 60)))
        used[-1] = width - 1
        for rows in (1, "g", "g+1", 98):
            a, b = vanishing_pair(rng, 98, inner, width, used)
            b = CooMatrix.from_entries((2 * inner + 1, width), b)
            if rows != 98:
                g = digits_per_word(CooMatrix.from_entries(
                    (98, 2 * inner + 1), a), b)
                rows = {1: 1, "g": g, "g+1": g + 1}[rows]
            a = CooMatrix.from_entries(
                (rows, 2 * inner + 1),
                {(r, k): v for (r, k), v in a.items() if r < rows})
            g = digits_per_word(a, b)
            # One more entry of a in the last column and of b in its last
            # row make a b nonzero at one place: the first or the last digit
            # of a word, in the first column or in the last (the last chunk
            # of the widest b).
            for row in {0, min(g, rows) - 1, rows - 1}:
                for col in (used[0], width - 1):
                    for va, vb in ((1, 1), (-7, 3)):
                        one_a = CooMatrix.from_entries(a.shape, {
                            **{(r, k): v for r, k, v in a.entries()},
                            (row, 2 * inner): va})
                        one_b = CooMatrix.from_entries(b.shape, {
                            **{(k, c): v for k, c, v in b.entries()},
                            (2 * inner, col): vb})
                        for x, y in ((a, b), (one_a, b), (a, one_b),
                                     (one_a, one_b)):
                            # The empty columns of y give zero columns.
                            keep = {c: i for i, c in
                                    enumerate(sorted(set(y.col.tolist())))}
                            dense_y = [[0] * len(keep) for _ in
                                       range(y.shape[0])]
                            for k, c, v in y.entries():
                                dense_y[k][keep[c]] = v
                            want = not (np.array(x.to_dense(), dtype=object)
                                        @ np.array(dense_y, dtype=object)
                                        ).any()
                            assert is_zero_product(x, y) == want
                            seen[want, row % g == g - 1, col == width - 1] \
                                += 1
    assert seen[True, False, False] and seen[False, False, False]
    assert seen[False, True, False] and seen[False, False, True]
    with pytest.raises(ValueError):
        is_zero_product(CooMatrix.identity(2), CooMatrix.identity(3))


def test_zero_products_of_one_a_widen_their_digits_when_asked():
    # The rows of the identity are packed once, two bits a digit for b's
    # of one entry +-1 a column.  The column (4, -1) needs wider digits:
    # with two-bit ones it reads 4 + (-1) * 2^2 = 0 in the word.  Mod p
    # a is taken once, whatever b asks.
    from gammahom.chains import _ZeroProducts
    tests = _ZeroProducts(CooMatrix.identity(2))
    assert not tests(CooMatrix.identity(2))
    assert tests.width == 2
    assert not tests(CooMatrix((2, 1), [0, 1], [0, 0], [4, -1]))
    assert tests.width == 5
    assert not tests(CooMatrix.identity(2))
    assert tests.width == 5
    assert tests(CooMatrix.zero((2, 3)))
    mod3 = _ZeroProducts(CooMatrix.identity(2), 3)
    assert mod3(CooMatrix((2, 1), [0, 1], [0, 0], [3, -6]))
    assert not mod3(CooMatrix((2, 1), [0, 1], [0, 0], [4, -1]))
    with pytest.raises(ValueError):
        tests(CooMatrix.identity(3))


def test_integer_products_refuse_to_wrap():
    # 2^32 * 2^32 is 2^64, which int64 and uint64 both wrap to 0.
    from gammahom.chains import coo_mul, is_zero_product
    big = CooMatrix((1, 1), [0], [0], [1 << 32])
    with pytest.raises(LimitExceeded):
        is_zero_product(big, big)
    with pytest.raises(LimitExceeded):
        coo_mul(big, big)
    # So does a sum of two products of 2^62.
    row = CooMatrix((1, 2), [0, 0], [0, 1], [1 << 31, 1 << 31])
    col = CooMatrix((2, 1), [0, 1], [0, 0], [1 << 31, 1 << 31])
    with pytest.raises(LimitExceeded):
        coo_mul(row, col)
    # Below the bounds the answers are exact.
    small = CooMatrix((1, 1), [0], [0], [1 << 30])
    assert coo_mul(small, small).val.tolist() == [1 << 60]
    assert not is_zero_product(small, CooMatrix((1, 1), [0], [0], [4]))


def test_column_starts_read_off_the_canonical_order():
    # Empty columns first, inside and last, and a matrix with no entries.
    from gammahom.chains import _col_starts, coo_mul
    m = CooMatrix((3, 7), [0, 2, 1, 0, 1], [1, 1, 3, 5, 5], [1, -1, 2, 1, 3])
    want = np.cumsum([0] + np.bincount(m.col, minlength=7).tolist())
    assert _col_starts(m).tolist() == want.tolist() == [0, 0, 2, 2, 3, 3, 5,
                                                        5]
    assert _col_starts(CooMatrix.zero((2, 3))).tolist() == [0, 0, 0, 0]
    assert m.to_scipy().toarray().tolist() == m.to_dense()
    a = CooMatrix((2, 3), [0, 1, 1], [0, 1, 2], [2, -1, 1])
    dense = (np.array(a.to_dense()) @ np.array(m.to_dense())).tolist()
    assert coo_mul(a, m).to_dense() == dense


# ---------------------------------------------------------------------------
# Field ranks against a plain dense elimination.

BIG_PRIME = 2147483647


def dense_rank(m, p):
    """Rank over F_p by Gaussian elimination on dense Python lists: each
    vector of the long side is reduced against an echelon basis."""
    dense = m.to_dense()
    vectors = dense if m.shape[0] > m.shape[1] else list(zip(*dense))
    n = min(m.shape)
    basis = {}
    for vec in vectors:
        v = [x % p for x in vec]
        for i in range(n):
            if not v[i]:
                continue
            b = basis.get(i)
            if b is None:
                inv = pow(v[i], p - 2, p)
                basis[i] = [x * inv % p for x in v]
                break
            f = v[i]
            v = [(x - f * y) % p for x, y in zip(v, b)]
        if len(basis) == n:
            break
    return len(basis)


def sparse_random(rng, n, length, per_vector, values, tall=False):
    """An n x length matrix (length x n if tall) with ``per_vector``
    random entries in each vector of the long side."""
    entries = {}
    for j in range(length):
        for i in rng.sample(range(n), per_vector):
            entries[(j, i) if tall else (i, j)] = rng.choice(values)
    shape = (length, n) if tall else (n, length)
    return CooMatrix.from_entries(shape, entries)


@pytest.mark.parametrize("p", [2, 3, BIG_PRIME])
@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_field_rank_short_sides_around_word_bounds(p, n):
    rng = random.Random(p * 1000 + n)
    # The last row is reached only by the last vector, so the basis is
    # complete only at the end of the stream.
    length = 1100 if p == 2 else 600
    for tall in (False, True):
        m = sparse_random(rng, n - 1, length - 1, 2, (1, -1, 2, 5))
        entries = {(r, c): v for r, c, v in m.entries()}
        entries[(n - 1, length - 1)] = 1
        m = CooMatrix.from_entries((n, length), entries)
        if tall:
            m = m.transpose()
        assert matrix_rank(m, GF(p)) == dense_rank(m, p)


@pytest.mark.parametrize("p", [2, 3, BIG_PRIME])
@pytest.mark.parametrize("length", [511, 512, 513, 1025])
def test_field_rank_long_sides_around_the_batch(p, length):
    rng = random.Random(p + length)
    for n, tall in ((20, False), (33, True), (70, False)):
        # Entries divisible by p vanish; entries at or above p reduce.
        values = (1, -1, p, -2 * p, p + 1, 3)
        m = sparse_random(rng, n, length, 1, values, tall)
        assert matrix_rank(m, GF(p)) == dense_rank(m, p)


@pytest.mark.parametrize("p", [2, 3, BIG_PRIME])
def test_field_rank_entries_vanishing_mod_p(p):
    m = CooMatrix.from_entries((3, 700), {(0, 0): p, (1, 5): 2 * p,
                                          (2, 600): -p})
    assert m.nnz == 3
    assert matrix_rank(m, GF(p)) == 0
    m = CooMatrix.from_entries((3, 700), {(0, 0): p, (1, 5): p + 1,
                                          (2, 600): 1, (1, 699): 1})
    assert matrix_rank(m, GF(p)) == dense_rank(m, p) == 2


@pytest.mark.parametrize("p", [2, 3, BIG_PRIME])
@pytest.mark.parametrize("rows, cols, rank", [
    (40, 700, 25),     # wide, rank below the short side
    (650, 30, 30),     # tall, full rank
    (64, 600, 63),     # one short of a full word
])
def test_field_rank_of_planted_rank(p, rows, cols, rank):
    # U * D * V with U, V unimodular over Z, so invertible mod every p.
    m = scrambled(random.Random(rows + cols), rows, cols, [1] * rank,
                  ops=2 * min(rows, cols))
    assert max(abs(v) for v in m.val.tolist()) < 1 << 62
    assert matrix_rank(m, GF(p)) == dense_rank(m, p) == rank


def test_field_rank_stops_once_the_rank_is_the_short_side(monkeypatch):
    from gammahom import chains
    batches = []
    absorb = chains._EchelonBasis.absorb

    def counted(self, *args):
        batches.append(self.rank)
        return absorb(self, *args)

    monkeypatch.setattr(chains._EchelonBasis, "absorb", counted)
    n = 50
    # Column i < n is e_i, a lead: the seed alone reaches rank n, and
    # nothing streams.
    entries = {(i, i): 1 for i in range(n)}
    entries.update({(j % n, j): 1 for j in range(n, 5000)})
    # Every column ends on row n - 1, so only column 0 leads; the first
    # batch of 512 columns reaches rank n, and the nine batches after it
    # are never absorbed.
    ending = {(n - 1, j): 1 for j in range(5000)}
    ending.update({(j % n, j): 1 for j in range(5000) if j % n < n - 1})
    for p in (2, 3, BIG_PRIME):
        batches.clear()
        m = CooMatrix.from_entries((n, 5000), entries)
        assert matrix_rank(m, GF(p)) == n
        assert matrix_rank(m.transpose(), GF(p)) == n
        assert batches == []
        m = CooMatrix.from_entries((n, 5000), ending)
        assert matrix_rank(m, GF(p)) == n
        assert matrix_rank(m.transpose(), GF(p)) == n
        assert batches == [1, 1]


def blocked_batch(rng, p, t, lo):
    """A matrix whose first streamed batch gains t pivots.

    Its t + 2 generators g_j are 1 on row lo + j (so they are independent),
    random on a few rows below those, and 1 on the last row.  The seed
    takes two lead columns: g_0 and g_0 - g_1, whose last entry, p on the
    last row, vanishes mod p.  Every other column ends with a nonzero entry
    on the last row, so the first batch of the stream gains the pivots of
    g_2, ..., g_{t+1}.  Duplicates, zero columns and sums of generators that
    come later in the batch (survivors that depend on each other) are mixed
    in, and more such sums follow until there are more columns than rows.
    """
    low = range(lo + t + 2, lo + t + 10)
    last = low[-1] + 1
    gens = []
    for j in range(t + 2):
        g = {r: rng.choice((1, -1, 2, p + 1)) for r in rng.sample(low, 3)}
        g[lo + j] = 1
        g[last] = 1
        gens.append(g)

    def combo(*terms):
        out = Counter()
        for c, j in terms:
            for r, v in gens[j].items():
                out[r] += c * v
        return {r: v for r, v in out.items() if v}

    vanishing = combo((1, 0), (-1, 1))
    vanishing[last] = p
    cols = [gens[0], vanishing, {}, {r: -p for r in low[:3]}]
    rest = list(range(2, t + 2))
    rng.shuffle(rest)
    for i, j in enumerate(rest):
        cols.append(gens[j])
        if i in (0, 5, 40):
            k, l = rng.sample(range(t + 2), 2)
            cols.append(combo((1, j), (1, k), (-1, l)))
        if i in (2, 70):
            cols.append(dict(gens[j]))
    # More columns than rows, so that the matrix is wide.
    while len(cols) <= last + 1:
        cols.append(combo(*zip((1, 1, -1), rng.sample(range(t + 2), 3))))
    entries = {(r, c): v for c, col in enumerate(cols) for r, v in col.items()}
    return CooMatrix.from_entries((last + 1, len(cols)), entries)


@pytest.mark.parametrize("p", [2, 3, BIG_PRIME])
@pytest.mark.parametrize("t", [1, 7, 8, 9, 63, 64, 65, 512])
@pytest.mark.parametrize("lo", [0, 61])
def test_blocked_clearing_against_dense_rank(monkeypatch, p, t, lo):
    from gammahom import chains
    gains = []
    absorb = chains._EchelonBasis.absorb

    def counted(self, *args):
        before = self.rank
        absorb(self, *args)
        gains.append((before, self.rank - before))

    monkeypatch.setattr(chains._EchelonBasis, "absorb", counted)
    m = blocked_batch(random.Random(p * t + lo), p, t, lo)
    want = dense_rank(m, p)
    assert want == t + 2
    for tall in (False, True):
        gains.clear()
        assert matrix_rank(m.transpose() if tall else m, GF(p)) == want
        # The seed installs 2 before the stream; a batch holds 512
        # columns, some of them not generators.
        before, gain = gains[0]
        assert before == 2
        assert gain == t if t < 512 else gain > 500


def test_wide_prime_field_rank_needs_no_dense_matrix():
    # 60 x 1.1M is 66M cells, beyond what a dense F_p matrix may take.
    # Columns are edges of a graph; vertex 59 is joined only by the last
    # one, so the rank, 59, needs the whole stream.
    n, length = 60, 1_100_000
    rng = np.random.default_rng(11)
    head = rng.integers(0, n - 1, length)
    tail = (head + rng.integers(1, n - 1, length)) % (n - 1)
    head[-1], tail[-1] = n - 1, 0
    cols = np.arange(length)
    m = CooMatrix((n, length), np.r_[head, tail], np.r_[cols, cols],
                  np.r_[np.ones(length, np.int64), -np.ones(length, np.int64)])
    assert matrix_rank(m, GF(3)) == n - 1
    assert matrix_rank(m.transpose(), GF(BIG_PRIME)) == n - 1


def test_field_rank_refuses_what_it_cannot_hold():
    # A basis of 10^4 x 10^4 residues takes 800 MB; as bits it is 12.5 MB.
    m = CooMatrix.from_entries((10_000, 10_000), {(0, 0): 1})
    with pytest.raises(LimitExceeded):
        matrix_rank(m, GF(3))
    assert matrix_rank(m, GF(2)) == 1
    # A basis of 2 x 2 entries holds any rank of a 2 x 2^40 matrix, wide or
    # tall, over any prime; nothing of length 2^40 is allocated.
    m = CooMatrix.from_entries((2, 1 << 40), {(0, 0): 1, (1, 5): 1})
    assert matrix_rank(m, GF(BIG_PRIME)) == 2
    assert matrix_rank(m, GF(3)) == 2
    tracemalloc.start()
    try:
        assert matrix_rank(m.transpose(), GF(BIG_PRIME)) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gf2_rank_of_wide_sparse_matrix_allocates_little():
    # One entry per column, on rows 0..n-2 but for the last column: the
    # packed n x L bit matrix would take n * ceil(L / 64) * 8 bytes.
    n, length = 4096, 300_000
    rng = np.random.default_rng(5)
    rows = rng.integers(0, n - 1, length)
    rows[-1] = n - 1
    m = CooMatrix((n, length), rows, np.arange(length),
                  rng.choice([1, -1, 3], length))
    packed = n * ((length + 63) // 64) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert matrix_rank(m, GF(2)) == n
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < packed / 4


# ---------------------------------------------------------------------------
# Lead seeding: lead columns installed by substitution.

def echelon_vectors(basis):
    """The vectors of an echelon basis on all n positions, as rows of
    Python integers, and the pivot of each."""
    rows = basis.rows[:basis.rank]
    if basis.p == 2:
        rows = np.unpackbits(rows.astype("<u8").view(np.uint8), axis=1,
                             bitorder="little")
    vecs = np.zeros((basis.rank, basis.n), dtype=object)
    vecs[:, basis.cols] = rows[:, :len(basis.cols)].astype(object)
    pivots = [int(np.flatnonzero(basis.code == -1 - r)[0])
              for r in range(basis.rank)]
    vecs[range(basis.rank), pivots] = 1
    return vecs, pivots


def assert_reduced_basis_of(basis, m, p):
    """The basis is reduced (each vector 1 at its pivot, 0 at the others)
    and spans the columns of m over F_p."""
    vecs, pivots = echelon_vectors(basis)
    at_pivots = vecs[:, pivots] % p if len(pivots) else vecs
    assert (at_pivots == np.eye(basis.rank, dtype=np.int64)).all()
    both = {(r, c): v for r, c, v in m.entries()}
    both.update({(r, m.shape[1] + i): int(v) for i, vec in enumerate(vecs)
                 for r, v in enumerate(vec) if v})
    joined = CooMatrix.from_entries((m.shape[0], m.shape[1] + basis.rank),
                                    both)
    assert dense_rank(joined, p) == dense_rank(m, p) == basis.rank


@pytest.fixture
def seed_rounds(monkeypatch):
    """The number of vectors each round of every seed installs, one list
    per seed."""
    from gammahom import chains
    seeds = []
    seed, install = chains._EchelonBasis._seed, chains._EchelonBasis._install

    def seeding(self, *args):
        seeds.append([])
        try:
            return seed(self, *args)
        finally:
            seeds.append(None)

    def installing(self, block, slots):
        if seeds and seeds[-1] is not None:
            seeds[-1].append(len(slots))
        return install(self, block, slots)

    monkeypatch.setattr(chains._EchelonBasis, "_seed", seeding)
    monkeypatch.setattr(chains._EchelonBasis, "_install", installing)
    return lambda: [s for s in seeds if s is not None]


def lead_chains(rng, n, depth, pivot_values, values):
    """An n-row matrix whose lead columns come first and depend on each
    other in chains ``depth`` long: every third row is ended by no column,
    lead k ends on the k-th other row with a value from ``pivot_values``,
    holds one on the pivot row of lead k - 1 unless k is a multiple of
    ``depth``, and entries from ``values`` on a few of the rows no column
    ends on.
    Columns that end on the pivot rows again follow."""
    free = [r for r in range(n) if r % 3 == 0]
    ends = [r for r in range(n) if r % 3]
    cols = []
    for k, r in enumerate(ends):
        col = {r: rng.choice(pivot_values)}
        if k % depth:
            col[ends[k - 1]] = rng.choice(pivot_values)
        for f in rng.sample([f for f in free if f < r], min(2, r // 3)):
            col[f] = rng.choice(values)
        cols.append(col)
    for _ in range(2 * n):
        r = rng.choice(ends)
        col = {x: rng.choice(values) for x in rng.sample(range(r), min(3, r))}
        col[r] = rng.choice(pivot_values)
        cols.append(col)
    return CooMatrix.from_entries(
        (n, len(cols)), {(r, c): v for c, col in enumerate(cols)
                         for r, v in col.items()})


@pytest.mark.parametrize("p", [2, 3, BIG_PRIME])
@pytest.mark.parametrize("depth", [3, 5])
def test_seed_of_lead_chains(seed_rounds, p, depth):
    from gammahom import chains
    rng = random.Random(p + depth)
    # Values p and 2p vanish mod p; a pivot value does not.
    values = (1, -1, 2, p, 3, -2 * p)
    pivot_values = (1, -1, p + 1, 3) if p == 2 else (1, -1, 2, p - 1, 5)
    for n in (10, 64, 130):
        m = lead_chains(rng, n, depth, pivot_values, values)
        basis = chains._EchelonBasis(n, p, m.shape[1])
        basis.absorb_columns(m)
        assert_reduced_basis_of(basis, m, p)
        # Two thirds of the rows are led, in rounds as deep as the chains.
        (rounds,) = seed_rounds()[-1:]
        assert sum(rounds) == len([r for r in range(n) if r % 3])
        assert len(rounds) == min(depth, sum(rounds))
        assert matrix_rank(m, GF(p)) == matrix_rank(m.transpose(), GF(p)) \
            == dense_rank(m, p)


@pytest.mark.parametrize("p", [2, 3, BIG_PRIME])
def test_seed_of_a_resumed_basis(seed_rounds, p):
    # B's columns touch rows 0..n-4 only.  [F; A] on n + k rows has leads
    # ending on the untouched rows n-3..n-1 and on the added rows, which are
    # seeded, and leads ending on rows the basis holds, which stream.
    from gammahom import chains
    rng = random.Random(p)
    n, k = 40, 12
    values = (1, -1, 2, 3)
    b = sparse_random(rng, n - 3, 90, 3, values)
    b = CooMatrix((n, 90), b.row, b.col, b.val)
    cols = []
    for r in list(range(n - 3, n)) + list(range(n, n + k)) \
            + rng.sample(range(n - 3), 6):
        col = {x: rng.choice(values) for x in rng.sample(range(r), min(4, r))}
        col[r] = 1
        cols.append(col)
    cols.append({n + 2: 1, n - 1: 1, 0: 2})  # depends on two seeded leads
    fa = CooMatrix.from_entries(
        (n + k, len(cols)), {(r, c): v for c, col in enumerate(cols)
                             for r, v in col.items()})
    basis = chains._EchelonBasis(n, p, 90 + len(cols))
    basis.absorb_columns(b)
    assert basis.rank == dense_rank(b, p)
    basis.extend(k)
    basis.absorb_columns(fa)
    (first, second) = seed_rounds()
    assert sum(second) >= 3 + k and len(second) >= 2
    both = CooMatrix((n + k, 90 + fa.shape[1]), np.r_[b.row, fa.row],
                     np.r_[b.col, fa.col + 90], np.r_[b.val, fa.val])
    assert_reduced_basis_of(basis, both, p)



def compact(m):
    """The twin of m stored compact: int32 indices and int8 values."""
    return CooMatrix(m.shape, m.row.astype(np.int32), m.col.astype(np.int32),
                     m.val.astype(np.int8), _canonical=True)


@pytest.mark.parametrize("p", [2, 3, BIG_PRIME])
def test_compact_matrices_stream_like_their_int64_twins(p):
    # Values up to +-127, the int8 range; 3, 6 and -6 vanish mod 3.  For
    # 2^31 - 1 the int8 values are not residues, and reducing them in int8
    # would overflow.
    from gammahom import chains
    rng = random.Random(p)
    values = (1, -1, 2, -3, 6, -6, 127, -127)
    for n in (10, 70, 130):
        m = sparse_random(rng, n, 2000, 4, values)
        twin = compact(m)
        assert twin.row.dtype == np.int32 and twin.val.dtype == np.int8
        assert twin == m
        bases = []
        for x in (m, twin):
            basis = chains._EchelonBasis(n, p, m.shape[1])
            basis.absorb_columns(x)
            bases.append(echelon_vectors(basis))
        (vecs, pivots), (twin_vecs, twin_pivots) = bases
        assert pivots == twin_pivots and (vecs == twin_vecs).all()
        if n == 10:
            assert len(pivots) == dense_rank(m, p)


def test_compact_matrices_test_products_like_their_int64_twins():
    from gammahom.chains import is_zero_product
    rng = random.Random(5)
    used = sorted(rng.sample(range(3000), 400))
    a, b = vanishing_pair(rng, 98, 12, 3000, used)
    a = CooMatrix.from_entries((98, 25), a)
    for col, v in ((None, 0), (used[0], 1), (used[-1], -127)):
        entries = dict(b)
        if col is not None:
            entries[24, col] = v
        a_col = CooMatrix.from_entries(a.shape, {
            **{(r, k): w for r, k, w in a.entries()}, (0, 24): 3})
        m = CooMatrix.from_entries((25, 3000), entries)
        assert is_zero_product(a_col, compact(m)) == \
            is_zero_product(a_col, m) == (col is None)


def test_canonical_check_compares_neighbours():
    # Column 2^15 then column 1 over 2^16 rows: a key col * rows + row
    # would pass 2^31 and wrap to a negative int32, below the next key.
    index = np.int32
    rows = 1 << 16
    with pytest.raises(ValueError, match="order"):
        CooMatrix((rows, rows), np.array([0, 0], dtype=index),
                  np.array([1 << 15, 1], dtype=index),
                  np.array([1, 1], dtype=np.int8), _canonical=True)
    with pytest.raises(ValueError, match="order"):  # a repeated position
        CooMatrix((2, 2), np.array([1, 1], dtype=index),
                  np.array([0, 0], dtype=index),
                  np.array([1, 1], dtype=np.int8), _canonical=True)
    with pytest.raises(ValueError, match="bounds"):
        CooMatrix((2, 2), np.array([-1], dtype=index),
                  np.array([0], dtype=index), np.array([1], dtype=np.int8),
                  _canonical=True)
    m = CooMatrix((rows, rows), np.array([5, 0, 7], dtype=index),
                  np.array([1, 1 << 15, 1 << 15], dtype=index),
                  np.array([1, -1, 2], dtype=np.int8), _canonical=True)
    assert m.col.dtype == np.int32 and m.val.dtype == np.int8
    assert list(m.entries()) == [(5, 1, 1), (0, 1 << 15, -1),
                                 (7, 1 << 15, 2)]


def combinations(rng, gens, count, most, values):
    """A matrix of ``count`` columns, each a combination with coefficients
    from ``values`` of 1 to ``most`` of the vectors ``gens``."""
    entries = {}
    for c in range(count):
        col = [0] * len(gens[0])
        for g in rng.sample(gens, rng.randint(1, most)):
            coef = rng.choice(values)
            col = [x + coef * y for x, y in zip(col, g)]
        entries.update({(r, c): v for r, v in enumerate(col) if v})
    return CooMatrix.from_entries((len(gens[0]), count), entries)


@pytest.mark.parametrize("p", [2, 3, BIG_PRIME])
def test_gather_reduction_against_dense_elimination(monkeypatch, p):
    # Batches of random columns stream into one basis, at first on rows
    # 0..89 of 130, then on all of them, then, after extend, on 20 rows
    # more, as the isomorphism test feeds [F; A] after B.  With _BATCH = 3
    # a batch streams a few vectors at a time, so pivots come between the
    # gathers of one batch; the basis narrows, and gives slots to rows
    # reached later.  Each column combines up to 24 of a phase's sparse
    # vectors, 130 in all, so the rank stays below the rows, a wrongly
    # reduced vector shows in the span, and columns of many entries can
    # take more than one gather.  After every batch the rank is a dense
    # elimination's, and after every phase the basis is reduced and spans
    # every column given.  Over F_2 the reduction gathers from the
    # position table, over odd p it does not.
    from gammahom import chains
    monkeypatch.setattr(chains, "_BATCH", 3)
    events = Counter()
    narrow, give, table = (chains._EchelonBasis._narrow,
                           chains._EchelonBasis._give_slots,
                           chains._EchelonBasis._gather_table)
    absorb = chains._EchelonBasis.absorb

    def narrowing(self):
        before = len(self.cols)
        narrow(self)
        events["narrowed"] += len(self.cols) < before

    def giving(self, pos):
        before = len(self.cols)
        give(self, pos)
        events["slots given late"] += self.rank > 0 and len(self.cols) > before

    def gathering(self):
        events["tables built"] += self._table is None
        got = table(self)
        assert got[0].dtype == np.uint64 and len(got[0]) <= self.n
        return got

    def absorbing(self, *args):
        before = self.rank
        absorb(self, *args)
        events["gains"] += self.rank > before

    monkeypatch.setattr(chains._EchelonBasis, "_narrow", narrowing)
    monkeypatch.setattr(chains._EchelonBasis, "_give_slots", giving)
    monkeypatch.setattr(chains._EchelonBasis, "_gather_table", gathering)
    monkeypatch.setattr(chains._EchelonBasis, "absorb", absorbing)
    rng = random.Random(p + 11)
    values = (1, -1, 2, 3, -3)
    n, k = 130, 20
    basis = chains._EchelonBasis(n, p, 4 * 60)
    given = []
    for phase, (rows, spanned) in enumerate(((90, 50), (n, 50), (n + k, 30))):
        if phase == 2:
            basis.extend(k, 2 * 60)
        gens = sparse_random(rng, rows, spanned, 8, values,
                             tall=True).to_dense()
        for most in (1, 24):
            m = combinations(rng, gens, 60, most, values)
            events["gains"] = 0
            basis.absorb_columns(CooMatrix((basis.n, 60), m.row, m.col,
                                           m.val))
            given.append(m)
            everything = CooMatrix.from_entries(
                (basis.n, 60 * len(given)),
                {(r, 60 * i + c): v for i, g in enumerate(given)
                 for r, c, v in g.entries()})
            assert basis.rank == dense_rank(everything, p)
            events["pivots mid-batch"] += events["gains"] >= 2
        assert_reduced_basis_of(basis, everything, p)
    assert events["narrowed"] and events["slots given late"]
    assert events["pivots mid-batch"] >= 3
    assert bool(events["tables built"]) == (p == 2)
    assert p != 2 or events["tables built"] >= 10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ring", [GF(2), GF(3), ZZ], ids=str)
def test_basis_columns_span_the_columns_given(ring):
    # Seeded sparse random matrices A B, A of r columns, r below half of
    # either side, stream into a basis in three batches.  Its ``columns``, the
    # basis vectors with the 1 at each pivot (over Z then the remainder),
    # span what the matrix's columns span: alone and next to them they
    # have the matrix's rank, over Z its Smith diagonal.  Over F_2 the
    # vectors must be unpacked from their 64-bit words first.
    from gammahom import chains
    p = ring.p or 0
    rng = np.random.default_rng(7 + p)

    def invariants(m):
        if p:
            return matrix_rank(m, ring)
        return smith_normal_form(m).diagonal

    def sparse(rows, cols, per_column, values):
        out = np.zeros((rows, cols), dtype=np.int64)
        for c in range(cols):
            at = rng.choice(rows, min(per_column, rows), replace=False)
            out[at, c] = rng.choice(values, len(at))
        return out

    for _ in range(20):
        rows, cols = (int(v) for v in rng.integers(20, 100, size=2))
        r = int(rng.integers(1, min(rows, cols) // 2))
        dense = sparse(rows, r, 3, [-1, 1, 2, 3]) @ sparse(r, cols, 2, [-1, 1])
        if p:
            dense %= p
        m = CooMatrix((rows, cols), *np.nonzero(dense),
                      dense[np.nonzero(dense)])
        basis = chains._EchelonBasis(rows, p, cols)
        for lo in range(0, cols, -(-cols // 3)):
            part = dense[:, lo:lo + -(-cols // 3)]
            basis.absorb_columns(CooMatrix(
                (rows, part.shape[1]), *np.nonzero(part),
                part[np.nonzero(part)]))
        got = basis.columns()
        both = CooMatrix((rows, cols + got.shape[1]),
                         np.r_[m.row, got.row], np.r_[m.col, cols + got.col],
                         np.r_[m.val, got.val])
        assert invariants(got) == invariants(m) == invariants(both)
        assert matrix_rank(m, ring) < min(rows, cols)


# ---------------------------------------------------------------------------
# Smith normal form.

def test_smith_examples():
    diag23 = CooMatrix.from_entries((2, 2), {(0, 0): 2, (1, 1): 3})
    assert smith_normal_form(diag23).diagonal == (1, 6)
    assert smith_normal_form(CooMatrix.zero((3, 2))).diagonal == ()


def test_smith_transforms_random():
    rng = random.Random(23)
    for _ in range(150):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = random_coo(rng, rows, cols, -4, 4)
        res = smith_normal_form(m, transforms=True)
        product = dense_mm(dense_mm([list(r) for r in res.left],
                                    m.to_dense()),
                           [list(r) for r in res.right])
        for i in range(rows):
            for j in range(cols):
                want = res.diagonal[i] if i == j and i < len(res.diagonal) \
                    else 0
                assert product[i][j] == want
        for a, b in zip(res.diagonal, res.diagonal[1:]):
            assert b % a == 0 and a >= 1


def scrambled(rng, rows, cols, factors, ops):
    """U * D * V for the planted diagonal D and random unimodular U, V.

    U and V are products of ``ops`` random elementary operations each:
    adding +-1 or +-2 times a line to another, swapping two lines, negating
    a line.
    """
    mat = [[0] * cols for _ in range(rows)]
    for i, f in enumerate(factors):
        mat[i][i] = f
    for _ in range(2):  # row operations, then column operations
        for _ in range(ops):
            i, j = rng.sample(range(len(mat)), 2)
            kind = rng.randrange(3)
            if kind == 0:
                t = rng.choice((1, -1, 1, -1, 2, -2))
                mat[i] = [a + t * b for a, b in zip(mat[i], mat[j])]
            elif kind == 1:
                mat[i], mat[j] = mat[j], mat[i]
            else:
                mat[i] = [-a for a in mat[i]]
        mat = [list(line) for line in zip(*mat)]
    return CooMatrix.from_entries(
        (rows, cols), {(r, c): v for r, row in enumerate(mat)
                       for c, v in enumerate(row) if v})


def assert_smith_form(m, factors):
    """The diagonal is the planted one, the transforms reduce m to it, and
    the integral and rational ranks agree."""
    res = smith_normal_form(m, transforms=True)
    assert res.diagonal == tuple(factors)
    product = dense_mm(dense_mm([list(r) for r in res.left], m.to_dense()),
                       [list(r) for r in res.right])
    rows, cols = m.shape
    for i in range(rows):
        for j in range(cols):
            want = factors[i] if i == j and i < len(factors) else 0
            assert product[i][j] == want
    assert smith_normal_form(m).diagonal == tuple(factors)
    assert matrix_rank(m, ZZ) == matrix_rank(m, QQ) == len(factors)


@pytest.mark.parametrize("rows, cols, factors", [
    (6, 9, [1] * 6),                  # all units, wide
    (9, 5, [1] * 4),                  # all units, tall, rank-deficient
    (6, 6, [2] * 5),                  # no units anywhere
    (5, 8, [2, 2, 4, 4]),             # no units, wide
    (8, 6, [1, 1, 1, 2, 2, 4]),       # units mixed with 2 and 4, tall
    (7, 10, [1, 1, 2, 4, 4, 12]),     # mixed, wide
    (110, 60, [1] * 50 + [2] * 4 + [4] * 2),  # at least 100 rows
])
def test_smith_form_of_planted_diagonal(rows, cols, factors):
    rng = random.Random(rows * 1000 + cols)
    for _ in range(3):
        m = scrambled(rng, rows, cols, factors, ops=rows + cols)
        if 1 not in factors:
            assert all(abs(v) != 1 for v in m.val.tolist())
        assert_smith_form(m, factors)


def test_smith_form_when_unit_pivots_run_out():
    # A scrambled unit block beside a 2x2 block with no +-1 entry: once the
    # units are eliminated, the general loop has to produce the remaining
    # 1 and 2 by gcd steps.
    rng = random.Random(7)
    units = scrambled(rng, 5, 7, [1] * 5, ops=12)
    entries = {(r, c): v for r, c, v in units.entries()}
    entries.update({(5, 7): 2, (5, 8): 3, (6, 7): 4, (6, 8): 5})
    m = CooMatrix.from_entries((7, 9), entries)
    assert all(abs(v) != 1 for r, c, v in m.entries() if r >= 5)
    assert_smith_form(m, [1] * 6 + [2])
    assert_smith_form(m.transpose(), [1] * 6 + [2])


# ---------------------------------------------------------------------------
# The unit stream of the Smith form without transforms, against the line
# engine on the whole matrix.

@pytest.fixture
def stream_runs(monkeypatch):
    """What each unit stream gave: (units, remainder), or the exception
    that sent the whole matrix to the line engine instead."""
    from gammahom import chains
    runs = []
    reduce = chains._unit_reduction

    def recorded(m):
        try:
            out = reduce(m)
        except Exception as exc:
            runs.append(exc)
            raise
        runs.append(out)
        return out

    monkeypatch.setattr(chains, "_unit_reduction", recorded)
    return runs


def assert_stream_matches_lines(m, runs):
    """The Smith form through the stream is the line engine's on all of m;
    without the divisibility repair the diagonal form has the same length
    and the same all-units verdict; the Q rank is its length; and every
    stream ran to the end in int64.  A stream runs only if m holds a +-1
    entry: with none it could take no pivot.  Returns the line engine's
    diagonal; ``runs`` then holds the streams of m alone."""
    from gammahom import chains
    runs.clear()
    want = chains._snf_lines(m, False, True).diagonal
    assert smith_normal_form(m).diagonal == want
    loose = chains._snf_lines(m, False, False).diagonal
    got = chains._snf_core(m, False, False).diagonal
    assert len(got) == len(loose) == len(want)
    assert (set(got) <= {1}) == (set(loose) <= {1}) == (set(want) <= {1})
    assert matrix_rank(m, QQ) == matrix_rank(m, ZZ) == len(want)
    assert all(isinstance(run, tuple) for run in runs)
    assert bool(runs) == bool((np.abs(m.val) == 1).any())
    return want


@pytest.mark.parametrize("rows, cols, factors", [
    (30, 70, [1] * 25 + [2, 6]),      # wide
    (70, 30, [1] * 20 + [3, 3, 9]),   # tall
    (20, 20, [2] * 8 + [4]),          # no unit entry: no stream
])
def test_unit_stream_of_planted_diagonal(stream_runs, rows, cols, factors):
    rng = random.Random(rows * 7 + cols)
    for _ in range(3):
        m = scrambled(rng, rows, cols, factors, ops=min(rows, cols))
        assert assert_stream_matches_lines(m, stream_runs) == tuple(factors)
        assert assert_stream_matches_lines(m.transpose(), stream_runs) \
            == tuple(factors)


@pytest.mark.parametrize("length", [511, 512, 513, 1025, 1537])
def test_unit_stream_across_batches(stream_runs, length):
    # The last two rows are reached only by even entries, every 97th
    # column, so those columns leave a remainder; the batch holds 512
    # full-length columns.
    rng = random.Random(length)
    for n, tall in ((24, False), (40, True)):
        m = sparse_random(rng, n - 2, length, 3, (1, -1, 1, 2, -2, 3))
        entries = {(r, c): v for r, c, v in m.entries()}
        for c in range(length % 97, length, 97):
            entries[(n - 2, c)] = rng.choice((2, -2, 4))
            entries[(n - 1, c)] = rng.choice((2, 6, -4))
        m = CooMatrix.from_entries((n, length), entries)
        if tall:
            m = m.transpose()
        stream_runs.clear()
        assert_stream_matches_lines(m, stream_runs)
        units, rest = stream_runs[0]
        assert units and rest.nnz


def test_unit_stream_takes_units_over_several_rounds(stream_runs):
    # Row 3 is led by L = e3.  B = e0 + e1 + e3 reduces to e0 + e1, a
    # pivot on row 1.  A = 3e0 + 2e1 + 2e4 holds no unit until B is a
    # pivot (A - 2B' = e0 + 2e4), and A2 = 2e0 + 3e4 none until A is one
    # (A2 - 2A' = -e4): each is set aside once more than the one before.
    # D = 2e5 is left over, with the empty row 2.
    cols = [{3: 1}, {0: 1, 1: 1, 3: 1}, {0: 3, 1: 2, 4: 2}, {0: 2, 4: 3},
            {5: 2}, {3: 1}, {3: 1}]
    m = CooMatrix.from_entries(
        (6, len(cols)), {(r, c): v for c, col in enumerate(cols)
                         for r, v in col.items()})
    assert assert_stream_matches_lines(m, stream_runs) == (1, 1, 1, 1, 2)
    units, rest = stream_runs[0]
    assert units == 4
    assert rest.shape == (2, 1) and list(rest.entries()) == [(1, 0, 2)]


def test_unit_stream_on_a_boundary_of_the_package(stream_runs):
    # d_7 of the level-3 normalized chains of ab:2, 346 x 11085: the
    # boundary that `compute --space ab:2 --ring z --max-degree 3` reaches.
    # Its unit pivots leave a remainder with about 4500 columns.
    from gammahom.segal import parse_space, spectrum_level
    from gammahom.simplicial import NormalizedChains
    nc = NormalizedChains(spectrum_level(parse_space("ab:2"), 3), 6)
    m = nc.complex(ZZ).boundary(7)
    assert m.shape == (346, 11085)
    want = assert_stream_matches_lines(m, stream_runs)
    assert want == (1,) * 323 + (2,)
    for units, rest in stream_runs:
        assert units >= 300 and rest.nnz
    stream_runs.clear()
    assert smith_normal_form(m.transpose()).diagonal == want
    assert matrix_rank(m.transpose(), QQ) == len(want)
    assert stream_runs[0][1].nnz


def test_unit_stream_falls_back_to_python_integers(stream_runs):
    from gammahom import chains
    # c_i = 2 e_i + e_{i+1} for i < 70, and 3 e_0.  Each c_i leads on row
    # i + 1; reduced against c_{i-1} it is (-2)^i on row 0, which would
    # pass 2^69 in int64.  Z^71 / lattice = Z/3.
    k = 70
    entries = {(i, i): 2 for i in range(k)}
    entries.update({(i + 1, i): 1 for i in range(k)})
    entries[(0, k)] = 3
    m = CooMatrix.from_entries((k + 1, k + 1), entries)
    assert smith_normal_form(m).diagonal == (1,) * k + (3,)
    assert matrix_rank(m, QQ) == k + 1
    assert all(isinstance(run, chains._Int64Overflow) for run in stream_runs)
    assert len(stream_runs) == 2
    # c_i = 2^29 e_0 + e_{i+1} for i < 64, and v = 2^29 (e_1 + ... + e_64):
    # v reduces to -2^64 e_0, which int64 would wrap to exactly 0.
    top = 1 << 29
    entries = {(0, i): top for i in range(64)}
    entries.update({(i + 1, i): 1 for i in range(64)})
    entries.update({(i + 1, 64): top for i in range(64)})
    m = CooMatrix.from_entries((65, 65), entries)
    stream_runs.clear()
    assert smith_normal_form(m).diagonal == (1,) * 64 + (1 << 64,)
    assert isinstance(stream_runs[0], chains._Int64Overflow)
    # An entry beyond the int64 bound sends the matrix to the line engine
    # at once; alone, with no +-1 beside it, it is never streamed.
    stream_runs.clear()
    assert smith_normal_form(scalar(1 << 40)).diagonal == (1 << 40,)
    assert not stream_runs
    m = CooMatrix.from_entries((2, 2), {(0, 0): 1 << 40, (1, 1): 1})
    assert smith_normal_form(m).diagonal == (1, 1 << 40)
    assert len(stream_runs) == 1
    assert isinstance(stream_runs[0], chains._Int64Overflow)


def test_unit_stream_falls_back_when_the_basis_is_too_large(
        stream_runs, monkeypatch):
    from gammahom import chains
    m = scrambled(random.Random(5), 30, 60, [1] * 20 + [2, 4], ops=30)
    want = chains._snf_lines(m, False, True).diagonal
    # A basis of 30 x 30 int64 entries takes 7200 bytes.
    monkeypatch.setattr(chains, "_BASIS_LIMIT", 7000)
    assert smith_normal_form(m).diagonal == want == (1,) * 20 + (2, 4)
    assert matrix_rank(m.transpose(), QQ) == 22
    assert len(stream_runs) == 2
    assert all(isinstance(run, LimitExceeded) for run in stream_runs)


def test_integer_kernel_basis():
    rng = random.Random(29)
    for _ in range(150):
        m = random_coo(rng, rng.randint(1, 5), rng.randint(1, 5), -3, 3)
        kernel = integer_kernel_basis(m)
        dense = m.to_dense()
        for vec in kernel:
            image = [sum(row[c] * vec[c] for c in range(m.shape[1]))
                     for row in dense]
            assert all(v == 0 for v in image)
        assert len(kernel) == m.shape[1] - matrix_rank(m, QQ)
        # The vectors span the whole integer kernel, not a sublattice of
        # finite index: as columns their Smith diagonal is all 1s.
        if kernel:
            columns = CooMatrix.from_entries(
                (m.shape[1], len(kernel)),
                {(i, j): v for j, vec in enumerate(kernel)
                 for i, v in enumerate(vec) if v})
            assert smith_normal_form(columns).diagonal == (1,) * len(kernel)


@pytest.mark.parametrize("depth", [3, 6])
def test_unit_stream_seeds_lead_chains(stream_runs, seed_rounds, depth):
    # Every lead ends on +-1; the entries in {2, -2, 3} leave a remainder.
    rng = random.Random(depth)
    for n in (12, 60):
        m = lead_chains(rng, n, depth, (1, -1), (1, -1, 2, -2, 3))
        assert_stream_matches_lines(m, stream_runs)
        assert_stream_matches_lines(m.transpose(), stream_runs)
        rounds = seed_rounds()
        assert max(len(r) for r in rounds) >= 3


def test_unit_stream_seed_trips_the_int64_bound(stream_runs, seed_rounds):
    from gammahom import chains
    # Lead i ends with 1 on row i, holds X = 2^20 on row i - 1 and 1 on
    # row 0, which no unit ends on.  Its basis vector is 1 on row i and
    # 1 - X (1 - X (...)) on row 0: the third round would store about
    # 2^40, so the seed trips, and the line engine takes the matrix.
    k, x = 6, 1 << 20
    entries = {(i, i): 1 for i in range(1, k + 1)}
    entries.update({(0, i): 1 for i in range(1, k + 1)})
    entries.update({(i - 1, i): x for i in range(2, k + 1)})
    entries[(0, 0)] = 3
    m = CooMatrix.from_entries((k + 1, k + 1), entries)
    want = chains._snf_lines(m, False, True).diagonal
    assert want == (1,) * k + (3,)
    assert smith_normal_form(m).diagonal == want
    assert isinstance(stream_runs[0], chains._Int64Overflow)
    assert seed_rounds()[0] == [1, 1]


# ---------------------------------------------------------------------------
# Homology.

def circle_complex(ring):
    return ChainComplex(ring, {0: 0, 1: 1}, {}, 2)


def test_homology_circle_complex():
    table = homology(circle_complex(ZZ))
    assert table.group(1) == HomologyGroup(1)
    assert table.group(0).is_zero


def test_homology_multiplication_by_two():
    cx = ChainComplex(ZZ, {0: 1, 1: 1},
                      {1: CooMatrix.from_entries((1, 1), {(0, 0): 2})}, 1)
    table = homology(cx)
    assert table.group(0) == HomologyGroup(0, (2,))
    assert table.group(1).is_zero
    over_q = homology(ChainComplex(
        QQ, {0: 1, 1: 1},
        {1: CooMatrix.from_entries((1, 1), {(0, 0): 2})}, 1))
    assert over_q.group(0).is_zero


def test_homology_projective_pattern_mod_two():
    # rank one in every degree, boundaries alternating 0 and 2
    ranks = {d: 1 for d in range(6)}
    boundaries = {d: CooMatrix.from_entries(
        (1, 1), {(0, 0): 2 if d % 2 == 0 else 0}) for d in range(1, 6)}
    cx = ChainComplex(GF(2), ranks, boundaries, 4)
    table = homology(cx)
    assert all(table.group(d) == HomologyGroup(1) for d in range(5))


def test_homology_rejects_broken_boundaries():
    bad = ChainComplex(ZZ, {0: 1, 1: 1, 2: 1},
                       {1: CooMatrix.identity(1), 2: CooMatrix.identity(1)},
                       1)
    with pytest.raises(IntegrityError):
        homology(bad)


def test_homology_basis_permutation_invariant():
    rng = random.Random(41)
    # two-step complex with d1*d2 = 0: d2 maps into the kernel of d1
    d1 = CooMatrix.from_entries((2, 3), {(0, 0): 1, (0, 1): 1, (1, 2): 2})
    # kernel of d1 contains (1,-1,0); use multiples for d2
    d2 = CooMatrix.from_entries((3, 2), {(0, 0): 2, (1, 0): -2, (0, 1): 4,
                                         (1, 1): -4})
    cx = ChainComplex(ZZ, {0: 2, 1: 3, 2: 2}, {1: d1, 2: d2}, 1)
    base = homology(cx)
    for _ in range(5):
        perms = {d: list(rng.sample(range(cx.rank(d)), cx.rank(d)))
                 for d in range(3)}
        assert homology(cx.permuted(perms)) == base


def test_universal_coefficients_consistency():
    cx = ChainComplex(ZZ, {0: 1, 1: 2, 2: 1},
                      {1: CooMatrix.from_entries((1, 2), {(0, 0): 2}),
                       2: CooMatrix.from_entries((2, 1), {(1, 1 - 1): 6})},
                      1)
    over_z = homology(cx)
    over_q = homology(ChainComplex(QQ, dict(cx.ranks), dict(cx.boundaries),
                                   cx.degree_bound))
    for d in range(2):
        assert over_q.group(d).free_rank == over_z.group(d).free_rank
    for p in (2, 3, 5):
        over_p = homology(ChainComplex(GF(p), dict(cx.ranks),
                                       dict(cx.boundaries), cx.degree_bound))
        for d in range(2):
            expected = over_z.group(d).free_rank \
                + sum(1 for t in over_z.group(d).torsion if t % p == 0) \
                + sum(1 for t in over_z.group(d - 1).torsion if t % p == 0)
            assert over_p.group(d).free_rank == expected


def test_euler_characteristic_matches_betti_alternating_sum():
    cx = ChainComplex(GF(2), {0: 2, 1: 3, 2: 1},
                      {1: CooMatrix.from_entries((2, 3),
                                                 {(0, 0): 1, (1, 0): 1})},
                      1)
    table = homology(cx)
    chi_ranks = cx.rank(0) - cx.rank(1) + cx.rank(2)
    chi_betti = table.group(0).free_rank - table.group(1).free_rank \
        + (cx.rank(2) - matrix_rank(cx.boundary(2), GF(2)))
    assert chi_ranks == chi_betti


def test_complex_json_roundtrip():
    cx = ChainComplex(ZZ, {0: 1, 1: 1},
                      {1: CooMatrix.from_entries((1, 1), {(0, 0): 2})}, 1)
    again = ChainComplex.from_json(cx.to_json())
    assert homology(again) == homology(cx)


# ---------------------------------------------------------------------------
# Total complexes.

def test_total_complex_single_direction_is_identity():
    mc = Multicomplex({(0,): 1, (1,): 1})
    cx = total_complex(mc, {(1,): ([0], [0], [2])}, ZZ, 1)
    assert cx.rank(0) == cx.rank(1) == 1
    assert homology(cx).group(0) == HomologyGroup(0, (2,))


def test_total_complex_tensor_square_of_mod_two():
    # Tensor square of (Z --2--> Z): four terms, both differentials times 2.
    # Degree 1 is laid out (0, 1), (1, 0), so the strip of (1, 0) is its
    # column 1.  The strip of (1, 1) holds the direction-0 face into
    # (0, 1) with sign +1 and the direction-1 face into (1, 0) with the
    # Koszul sign (-1)^1.  By hand: total is
    # 0 -> Z --(2,-2)--> Z^2 --(2;2)--> Z -> 0, whose homology is Z/2,
    # Z/2, 0.
    mc = Multicomplex({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    strips = {(0, 1): ([0], [0], [2]), (1, 0): ([0], [1], [2]),
              (1, 1): ([0, 1], [0, 0], [2, -2])}
    cx = total_complex(mc, strips, ZZ, 2)
    assert cx.boundary(1).to_dense() == [[2, 2]]
    assert cx.boundary(2).to_dense() == [[2], [-2]]
    table = homology(cx)
    assert table.group(0) == HomologyGroup(0, (2,))
    assert table.group(1) == HomologyGroup(0, (2,))
    assert table.group(2).is_zero


def test_total_complex_zero_differentials_convolves_ranks():
    mc = Multicomplex({(0, 0): 2, (1, 0): 3, (0, 1): 4, (1, 1): 5})
    cx = total_complex(mc, {}, ZZ, 2)
    assert cx.rank(0) == 2
    assert cx.rank(1) == 7
    assert cx.rank(2) == 5


def test_total_complex_detects_sign_inconsistency():
    # squares that do not commute: d_h d_v != d_v d_h.  Direction 0 is
    # 1 from (1, 0) and 2 from (1, 1), direction 1 is 1 from (0, 1) and
    # from (1, 1), the latter with the Koszul sign -1: d_1 d_2 = 2 - 1.
    mc = Multicomplex({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    strips = {(0, 1): ([0], [0], [1]), (1, 0): ([0], [1], [1]),
              (1, 1): ([0, 1], [0, 0], [2, -1])}
    with pytest.raises(IntegrityError, match="sign consistency failed"):
        total_complex(mc, strips, ZZ, 2)
    # Strips out of canonical order are refused.
    with pytest.raises(ValueError):
        total_complex(mc, {(1, 1): ([1, 0], [0, 0], [-1, 2])}, ZZ, 2)


def test_boundary_condition_checked_once_per_complex(monkeypatch):
    checked = []
    original = ChainComplex.verify_boundary_condition

    def counting(self):
        checked.append(self)
        return original(self)

    monkeypatch.setattr(ChainComplex, "verify_boundary_condition", counting)
    mc = Multicomplex({(0,): 1, (1,): 1})
    cx = total_complex(mc, {(1,): ([0], [0], [2])}, ZZ, 1)
    homology(cx)
    homology(cx)
    assert checked == [cx]
    # A complex that arrives unverified is still checked by homology.
    again = ChainComplex.from_json(cx.to_json())
    homology(again)
    assert checked == [cx, again]


def test_homology_group_validation():
    with pytest.raises(ValueError):
        HomologyGroup(0, (3, 2))
    with pytest.raises(ValueError):
        HomologyGroup(0, (1,))
    assert HomologyGroup(1, (2, 4)).label(ZZ) == "Z + Z/2 + Z/4"
    assert HomologyGroup(2).label(GF(2)) == "F2^2"


# ---------------------------------------------------------------------------
# Induced isomorphisms over a field against a dense reference.

def ref_echelon(vectors, width, p):
    """Reduced echelon form of the rows ``vectors``, of length ``width``,
    over F_p (over Q when p is None): its nonzero rows and their pivots."""
    if p is None:
        norm, inv = Fraction, lambda x: 1 / x
    else:
        norm, inv = (lambda x: x % p), (lambda x: pow(x, p - 2, p))
    rows = [[norm(x) for x in v] for v in vectors]
    pivots = []
    for c in range(width):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        s = inv(rows[r][c])
        rows[r] = [norm(x * s) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                t = row[c]
                rows[i] = [norm(x - t * y) for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def ref_rank(m, p):
    return len(ref_echelon(m.to_dense(), m.shape[1], p)[1])


def reference_iso(src, tgt, f, d, p):
    """(iso, hs, ht) from a kernel basis of src.boundary(d), its image
    under f, and the rank of that image together with tgt.boundary(d+1)."""
    a, b = src.boundary(d), tgt.boundary(d + 1)
    rows, pivots = ref_echelon(a.to_dense(), a.shape[1], p)
    kernel = []
    for free in sorted(set(range(a.shape[1])) - set(pivots)):
        vec = [0] * a.shape[1]
        vec[free] = 1
        for row, c in zip(rows, pivots):
            vec[c] = -row[free]
        kernel.append(vec)
    hs = len(kernel) - ref_rank(src.boundary(d + 1), p)
    ht = tgt.rank(d) - ref_rank(tgt.boundary(d), p) - ref_rank(b, p)
    if hs != ht:
        return False, hs, ht
    dense_f = f.to_dense()
    image = [[sum(x * y for x, y in zip(row, v)) for row in dense_f]
             for v in kernel]
    spanned = image + [list(col) for col in zip(*b.to_dense())]
    rank = len(ref_echelon(spanned, tgt.rank(d), p)[1])
    return rank - ref_rank(b, p) == ht, hs, ht


def unimodular(rng, n):
    """A random integer n x n matrix of determinant 1 and its inverse."""
    u, inv = np.eye(n, dtype=object), np.eye(n, dtype=object)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((1, -1, 2, -2))
        u[i] += t * u[j]
        inv[:, j] -= t * inv[:, i]
    return u, inv


def coo(a, p):
    """The integer matrix a, reduced mod p unless p is None."""
    if p is not None:
        a = a % p
    r, c = np.nonzero(a)
    return CooMatrix(a.shape, r, c, a[r, c].astype(np.int64))


def random_chain_map(rng, p, top):
    """A chain map f = lam + dh + hd from a direct sum S of elementary
    complexes (a point, or Z -c-> Z in two adjacent degrees) to S plus more
    summands, in random bases.  lam is a scalar on each summand of S, so on
    homology f is lam on the summands of S and zero on the others.  The
    arithmetic is in Python integers, reduced mod p at the end."""
    def summands():
        out = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(0, top)
            c = rng.choice((1, 2, p or 3)) if k and rng.random() < 0.6 \
                else None
            out.append((k, c))
        return out

    def assemble(parts):
        basis = {d: [i for i, (k, c) in enumerate(parts)
                     if k == d or (c is not None and k == d + 1)]
                 for d in range(top + 2)}
        bd = {}
        for d in range(1, top + 2):
            bd[d] = np.zeros((len(basis[d - 1]), len(basis[d])),
                             dtype=object)
            for col, i in enumerate(basis[d]):
                k, c = parts[i]
                if k == d and c is not None:
                    bd[d][basis[d - 1].index(i), col] = c
        return basis, bd

    source = summands()
    basis, bd = assemble(source)
    target = source + summands()
    tbasis, tbd = assemble(target)
    lam = [rng.choice((0, 1, 2, -1, p or 3, (p or 3) + 1)) for _ in source]
    # Over Z the map is onto in degree d iff lam is a unit on every summand
    # of S with H_d nonzero (Z, or Z/c with c > 1) and no other summand
    # has H_d nonzero.
    onto = {d: all(i < len(source) and math.gcd(lam[i], c or 0) == 1
                   for i, (k, c) in enumerate(target)
                   if (k, c) == (d, None) or k == d + 1 and c not in (1, None))
            for d in range(top + 1)}
    n = {d: len(basis[d]) for d in basis}
    h = {d: np.array([[rng.choice((0, 0, 1, -1, 2)) for _ in range(n[d])]
                      for _ in range(n[d + 1])], dtype=object
                     ).reshape(n[d + 1], n[d])
         for d in range(top + 1)}
    h[-1] = np.zeros((n[0], 0), dtype=object)
    bd[0] = np.zeros((0, n[0]), dtype=object)
    f = {}
    for d in range(top + 1):
        own = np.diag([lam[i] for i in basis[d]]).reshape(n[d], n[d])
        f[d] = np.zeros((len(tbasis[d]), n[d]), dtype=object)
        f[d][:n[d]] = own + bd[d + 1] @ h[d] + h[d - 1] @ bd[d]
    # New bases: x -> u x in the source and v y in the target.
    u = {d: unimodular(rng, n[d]) for d in range(top + 2)}
    v = {d: unimodular(rng, len(tbasis[d])) for d in range(top + 2)}
    for d in range(1, top + 2):
        bd[d] = u[d - 1][0] @ bd[d] @ u[d][1]
        tbd[d] = v[d - 1][0] @ tbd[d] @ v[d][1]
    for d in range(top + 1):
        f[d] = v[d][0] @ f[d] @ u[d][1]
        if d:
            assert np.array_equal(tbd[d] @ f[d], f[d - 1] @ bd[d])
    ring = QQ if p is None else GF(p)
    src = ChainComplex(ring, n,
                       {d: coo(bd[d], p) for d in range(1, top + 2)}, top)
    tgt = ChainComplex(ring, {d: len(b) for d, b in tbasis.items()},
                       {d: coo(tbd[d], p) for d in range(1, top + 2)}, top)
    return src, tgt, {d: coo(m, p) for d, m in f.items()}, onto


def dense(m):
    return np.array(m.to_dense(), dtype=object).reshape(m.shape)


def nonzero_columns(m, p):
    """How many columns of m hold an entry nonzero mod p."""
    return len(np.unique(m.col[m.val % p != 0]))


@pytest.mark.parametrize("ring", [GF(2), GF(3), GF(BIG_PRIME), QQ], ids=str)
def test_induced_iso_over_a_field_against_dense_reference(monkeypatch, ring):
    from gammahom import chains
    streamed = []
    absorb, seed = chains._EchelonBasis.absorb, chains._EchelonBasis._seed

    def counted(self, owner, pos, val, count):
        streamed.append(len(np.unique(owner[val != 0])))
        return absorb(self, owner, pos, val, count)

    def seeded(self, owner, pos, val):
        taken = seed(self, owner, pos, val)
        streamed.append(len(np.unique(owner[taken])))
        return taken

    monkeypatch.setattr(chains._EchelonBasis, "absorb", counted)
    monkeypatch.setattr(chains._EchelonBasis, "_seed", seeded)
    rng = random.Random(47)
    seen = Counter()
    for _ in range(120):
        top = rng.randint(1, 3)
        src, tgt, blocks, _ = random_chain_map(rng, ring.p, top)
        for d in range(top + 1):
            want, hs, ht = reference_iso(src, tgt, blocks[d], d, ring.p)
            a, f, b = src.boundary(d), blocks[d], tgt.boundary(d + 1)
            tall = a.shape[0] + b.shape[0] > a.shape[1] + b.shape[1]
            # The complexes keep the diagonals the call below finds; the
            # count below assumes that it finds them all afresh.
            src._diagonals.clear()
            tgt._diagonals.clear()
            streamed.clear()
            assert induced_map_is_iso_field(src, tgt, blocks, d,
                                            ring) == want
            seen[want, hs == ht > 0] += 1
            if ring.p is None or not hs == ht > 0:
                continue
            seen["tall"] += tall
            # Every column of B and of [F; A] is seeded or streamed once;
            # the three other ranks are seeded and streamed on their own.  The stream of [F; A]
            # stops early once M = [[B, F], [0, A]] has full row rank.
            iso = sum(streamed)
            for m in (a, src.boundary(d + 1), tgt.boundary(d)):
                streamed.clear()
                matrix_rank(m, ring)
                iso -= sum(streamed)
            m = np.block([[dense(b), dense(f)],
                          [np.zeros((a.shape[0], b.shape[1]), dtype=object),
                           dense(a)]])
            m = coo(m, ring.p)
            most = nonzero_columns(m, ring.p)
            full = ref_rank(m, ring.p) == m.shape[0]
            assert iso == most or full and iso < most
    # Isomorphisms and non-isomorphisms between groups of equal nonzero
    # dimension both occur, and so do unequal dimensions and, over F_p,
    # a block matrix M with more rows than columns.
    assert seen[True, True] and seen[False, True] and seen[False, False]
    assert ring.p is None or seen["tall"]
    with pytest.raises(ValueError):
        induced_map_is_iso_field(src, tgt, {0: CooMatrix.identity(9)}, 0,
                                 ring)


# ---------------------------------------------------------------------------
# The integral surjectivity certificate.

def z_complex(ranks, boundaries):
    return ChainComplex(ZZ, ranks, boundaries, max(ranks))


def scalar(v):
    return CooMatrix.from_entries((1, 1), {(0, 0): v})


def test_integral_certificate_on_z():
    # Z in degree 1: multiplication by 2 is injective with equal groups on
    # both sides, but only the certificate sees that it is not onto.
    z = z_complex({1: 1}, {})
    assert induced_map_is_surjective_integer(z, z, {1: scalar(1)}, 1)
    assert induced_map_is_surjective_integer(z, z, {1: scalar(-1)}, 1)
    assert not induced_map_is_surjective_integer(z, z, {1: scalar(2)}, 1)
    assert not induced_map_is_surjective_integer(z, z, {1: scalar(0)}, 1)


def test_integral_certificate_on_z_mod_4():
    # C_2 = C_1 = Z with d_2 = 4: H_1 = Z/4, on which 3 is a unit and 2 is
    # not; 5 is 1 on homology.
    c = z_complex({1: 1, 2: 1}, {2: scalar(4)})
    for v, onto in ((3, True), (5, True), (-1, True), (2, False),
                    (4, False), (0, False)):
        blocks = {1: scalar(v), 2: scalar(v)}
        assert induced_map_is_surjective_integer(c, c, blocks, 1) == onto
    # H_2 = 0: every map to it is onto.
    assert induced_map_is_surjective_integer(c, c, {2: scalar(0)}, 2)


def test_integral_certificate_rejects_a_generator_that_is_not_a_cycle():
    # Source: Z in degree 1.  Target: C_1 = Z^2 -> C_0 = Z, d_1 = [1, 0],
    # whose cycles are spanned by e_2.  Sending the generator to e_1 + e_2
    # spans a lattice of rank 1 with unit invariant factor, so the Smith
    # form alone would accept it; it is not a cycle.
    src = z_complex({1: 1}, {})
    tgt = z_complex({0: 1, 1: 2},
                    {1: CooMatrix.from_entries((1, 2), {(0, 0): 1})})

    def onto(entries):
        f = CooMatrix.from_entries((2, 1), entries)
        return induced_map_is_surjective_integer(src, tgt, {1: f}, 1)

    assert onto({(1, 0): 1})
    assert not onto({(1, 0): 2})
    assert not onto({(0, 0): 1})
    assert not onto({(0, 0): 1, (1, 0): 1})


def test_integral_certificate_against_planted_answers():
    rng = random.Random(53)
    seen = Counter()
    for _ in range(150):
        top = rng.randint(1, 3)
        src, tgt, blocks, onto = random_chain_map(rng, None, top)
        src = ChainComplex(ZZ, src.ranks, src.boundaries, top)
        tgt = ChainComplex(ZZ, tgt.ranks, tgt.boundaries, top)
        for d in range(top + 1):
            got = induced_map_is_surjective_integer(src, tgt, blocks, d)
            assert got == onto[d]
            seen[got, homology(src, d).group(d) == homology(tgt, d).group(d)
                 and not homology(tgt, d).group(d).is_zero] += 1
    # Maps onto and not onto nonzero groups equal on both sides both occur.
    assert seen[True, True] and seen[False, True] and seen[False, False]


def test_integral_certificate_refuses_what_it_cannot_hold():
    big = z_complex({1: 20_001}, {})
    with pytest.raises(LimitExceeded):
        induced_map_is_surjective_integer(
            big, big, {1: CooMatrix.identity(20_001)}, 1)
    # The source's cycles are spanned by (2^40, 1).  F = v e_2 e_1^T gives
    # F K = (0, 2^40 v): v = 2^21 is computed in int64, and v = 2^22 is
    # refused before any product, with no headroom left under 2^62.
    src = z_complex({0: 1, 1: 2}, {1: CooMatrix.from_entries(
        (1, 2), {(0, 0): 1, (0, 1): -(1 << 40)})})
    tgt = z_complex({0: 1, 1: 2},
                    {1: CooMatrix.from_entries((1, 2), {(0, 0): 1})})
    for v, refused in ((1 << 21, False), (1 << 22, True)):
        f = CooMatrix.from_entries((2, 2), {(1, 0): v})
        if refused:
            with pytest.raises(LimitExceeded):
                induced_map_is_surjective_integer(src, tgt, {1: f}, 1)
        else:
            assert not induced_map_is_surjective_integer(src, tgt, {1: f}, 1)
