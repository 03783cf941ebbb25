"""Exact linear algebra: sparse matrices, Smith form, homology,
totalization."""

import random

import pytest

from gammahom.chains import (GF, QQ, ZZ, ChainComplex, CooMatrix,
                             HomologyGroup, Multicomplex, Ring, homology,
                             integer_kernel_basis, matrix_rank,
                             nullspace_mod_p, parse_ring,
                             smith_normal_form, table_from_json,
                             total_complex)
from gammahom.errors import IntegrityError


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
    # A prime above 2^31 would overflow the int64 elimination.
    with pytest.raises(ValueError):
        parse_ring("f4294967311")


# ---------------------------------------------------------------------------
# Sparse matrices.

def test_coo_canonicalization():
    m = CooMatrix((2, 2), [0, 0, 1], [1, 1, 0], [2, -2, 3])
    assert m.nnz == 1
    assert list(m.entries()) == [(1, 0, 3)]
    with pytest.raises(ValueError):
        CooMatrix((1, 1), [1], [0], [1])


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


def test_integer_kernel_basis():
    rng = random.Random(29)
    for _ in range(40):
        m = random_coo(rng, rng.randint(1, 5), rng.randint(1, 5), -3, 3)
        kernel = integer_kernel_basis(m)
        dense = m.to_dense()
        for vec in kernel:
            image = [sum(row[c] * vec[c] for c in range(m.shape[1]))
                     for row in dense]
            assert all(v == 0 for v in image)
        assert len(kernel) == m.shape[1] - matrix_rank(m, QQ)


def test_nullspace_mod_p():
    rng = random.Random(31)
    for p in (2, 3, 5):
        for _ in range(25):
            m = random_coo(rng, rng.randint(1, 5), rng.randint(1, 5), -3, 3)
            basis = nullspace_mod_p(m, p)
            dense = m.to_dense()
            for vec in basis:
                image = [sum(row[c] * vec[c] for c in range(m.shape[1])) % p
                         for row in dense]
                assert all(v == 0 for v in image)
            assert len(basis) == m.shape[1] - matrix_rank(m, GF(p))


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
    table = homology(cx)
    assert table_from_json(table.to_json()) == table


# ---------------------------------------------------------------------------
# Total complexes.

def test_total_complex_single_direction_is_identity():
    mc = Multicomplex(1, {(0,): 1, (1,): 1},
                      {((1,), 0): CooMatrix.from_entries((1, 1),
                                                         {(0, 0): 2})})
    cx = total_complex(mc, ZZ, 1)
    assert cx.rank(0) == cx.rank(1) == 1
    assert homology(cx).group(0) == HomologyGroup(0, (2,))


def test_total_complex_tensor_square_of_mod_two():
    # Tensor square of (Z --2--> Z): four terms, both differentials times 2.
    # By hand: total is 0 -> Z --(2,-2)--> Z^2 --(2;2)--> Z -> 0, whose
    # homology is Z/2, Z/2, 0.
    two = CooMatrix.from_entries((1, 1), {(0, 0): 2})
    mc = Multicomplex(2,
                      {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                      {((1, 0), 0): two, ((1, 1), 0): two,
                       ((0, 1), 1): two, ((1, 1), 1): two})
    cx = total_complex(mc, ZZ, 2)
    table = homology(cx)
    assert table.group(0) == HomologyGroup(0, (2,))
    assert table.group(1) == HomologyGroup(0, (2,))
    assert table.group(2).is_zero


def test_total_complex_zero_differentials_convolves_ranks():
    mc = Multicomplex(2, {(0, 0): 2, (1, 0): 3, (0, 1): 4, (1, 1): 5}, {})
    cx = total_complex(mc, ZZ, 2)
    assert cx.rank(0) == 2
    assert cx.rank(1) == 7
    assert cx.rank(2) == 5


def test_total_complex_detects_sign_inconsistency():
    one = CooMatrix.identity(1)
    two = CooMatrix.from_entries((1, 1), {(0, 0): 2})
    # squares that do not commute: d_h d_v != d_v d_h
    mc = Multicomplex(2,
                      {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                      {((1, 0), 0): one, ((1, 1), 0): two,
                       ((0, 1), 1): one, ((1, 1), 1): one})
    with pytest.raises(IntegrityError):
        total_complex(mc, ZZ, 2)


def test_boundary_condition_checked_once_per_complex(monkeypatch):
    checked = []
    original = ChainComplex.verify_boundary_condition

    def counting(self):
        checked.append(self)
        return original(self)

    monkeypatch.setattr(ChainComplex, "verify_boundary_condition", counting)
    two = CooMatrix.from_entries((1, 1), {(0, 0): 2})
    mc = Multicomplex(1, {(0,): 1, (1,): 1}, {((1,), 0): two})
    cx = total_complex(mc, ZZ, 1)
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
