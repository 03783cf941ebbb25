"""Category-level tests: pointed sets, smash/wedge, the simplicial
circle."""

import itertools
import random

import numpy as np
import pytest

from gammahom.gamma import (FinPointedSet, PointedMap, circle_degeneracy,
                            circle_face, compose, constant_map,
                            identity_map, mu, pair,
                            product, product_to_smash, sharp, smash,
                            standard_inclusion, wedge, wedge_case,
                            wedge_inclusions, wedge_to_product)


def all_maps(a, b):
    """Every pointed map [a]+ -> [b]+."""
    for values in itertools.product(range(b + 1), repeat=a):
        yield PointedMap(FinPointedSet(a), FinPointedSet(b), (0, *values))


def test_pointed_set_basics():
    s = FinPointedSet(3)
    assert s.points == 4
    assert list(s.elements()) == [1, 2, 3]
    with pytest.raises(ValueError):
        FinPointedSet(-1)


def test_map_validation():
    with pytest.raises(ValueError):
        PointedMap(FinPointedSet(1), FinPointedSet(1), (1, 1))
    with pytest.raises(ValueError):
        PointedMap(FinPointedSet(1), FinPointedSet(1), (0, 2))
    with pytest.raises(ValueError):
        PointedMap(FinPointedSet(2), FinPointedSet(1), (0, 1))
    with pytest.raises(ValueError):
        PointedMap(FinPointedSet(1), FinPointedSet(1), None)


def test_compose_identity_cases():
    g = PointedMap(FinPointedSet(3), FinPointedSet(2), (0, 1, 2, 0))
    assert compose(identity_map(3), g) == g
    collapse = PointedMap(FinPointedSet(1), FinPointedSet(1), (0, 0))
    assert compose(collapse, identity_map(1)) == collapse
    swap = PointedMap(FinPointedSet(2), FinPointedSet(2), (0, 2, 1))
    assert compose(swap, swap) == identity_map(2)


def test_compose_mismatch():
    f = identity_map(2)
    g = identity_map(3)
    with pytest.raises(ValueError):
        compose(f, g)


def test_associativity_exhaustive_small():
    sizes = range(3)
    for a, b, c, d in itertools.product(sizes, repeat=4):
        for f in all_maps(a, b):
            for g in all_maps(b, c):
                for h in all_maps(c, d):
                    assert compose(compose(f, g), h) == \
                        compose(f, compose(g, h))


def test_associativity_sampled_size_four():
    rng = random.Random(11)

    def rand_map(a, b):
        return PointedMap(
            FinPointedSet(a), FinPointedSet(b),
            (0, *(rng.randint(0, b) for _ in range(a))))

    for _ in range(300):
        a, b, c, d = (rng.randint(0, 4) for _ in range(4))
        f, g, h = rand_map(a, b), rand_map(b, c), rand_map(c, d)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        assert compose(identity_map(a), f) == f
        assert compose(f, identity_map(b)) == f


# ---------------------------------------------------------------------------
# sharp.

def test_sharp_examples():
    assert sharp((1, 2, 3), 3) == identity_map(3)
    assert sharp((1,), 2).table == (0, 1, 0)
    assert sharp((), 2) == constant_map(FinPointedSet(2), FinPointedSet(0))
    with pytest.raises(ValueError):
        sharp((1, 1), 2)


def test_sharp_contravariant():
    # injections as tuples of images; compose then sharp reverses order
    for a, b, c in itertools.product(range(4), repeat=3):
        if a > b or b > c:
            continue
        for kappa in itertools.permutations(range(1, b + 1), a):
            for iota in itertools.permutations(range(1, c + 1), b):
                composite = tuple(iota[k - 1] for k in kappa)
                assert sharp(composite, c) == \
                    compose(sharp(iota, c), sharp(kappa, b))


# ---------------------------------------------------------------------------
# Smash and wedge.

def test_smash_objects():
    assert smash(FinPointedSet(2), FinPointedSet(3)) == FinPointedSet(6)
    assert smash(FinPointedSet(0), FinPointedSet(5)) == FinPointedSet(0)


def test_smash_swap_block_permutation():
    # (swap on [2]+) ∧ id_[2]+ exchanges the two row blocks of [4]+:
    # pairs (1,1)(1,2)(2,1)(2,2) are coded 1,2,3,4 and the swap sends
    # them to (2,1)(2,2)(1,1)(1,2) = 3,4,1,2.
    swap = PointedMap(FinPointedSet(2), FinPointedSet(2), (0, 2, 1))
    assert smash(swap, identity_map(2)).table == (0, 3, 4, 1, 2)


def test_smash_strictly_associative_and_unital():
    rng = random.Random(5)

    def rand_map(a, b):
        return PointedMap(
            FinPointedSet(a), FinPointedSet(b),
            (0, *(rng.randint(0, b) for _ in range(a))))

    for _ in range(100):
        f = rand_map(rng.randint(0, 3), rng.randint(0, 3))
        g = rand_map(rng.randint(0, 3), rng.randint(0, 3))
        h = rand_map(rng.randint(0, 3), rng.randint(0, 3))
        assert smash(smash(f, g), h) == smash(f, smash(g, h))
        assert smash(identity_map(1), f) == f
        assert smash(f, identity_map(1)) == f


def test_smash_functorial():
    for f1 in all_maps(2, 1):
        for f2 in all_maps(1, 2):
            for g1 in all_maps(2, 2):
                for g2 in all_maps(2, 1):
                    lhs = smash(compose(f1, f2), compose(g1, g2))
                    rhs = compose(smash(f1, g1), smash(f2, g2))
                    assert lhs == rhs


def test_wedge_objects_and_unit():
    assert wedge(FinPointedSet(2), FinPointedSet(3)) == FinPointedSet(5)
    f = PointedMap(FinPointedSet(2), FinPointedSet(1), (0, 1, 0))
    assert wedge(identity_map(0), f) == f
    assert wedge(f, identity_map(0)) == f


def test_wedge_inclusions_block_structure():
    first, second = wedge_inclusions(2, 3)
    assert [first(s) for s in range(1, 3)] == [1, 2]
    assert [second(s) for s in range(1, 4)] == [3, 4, 5]
    fold = wedge_case(identity_map(2), identity_map(2))
    assert fold.table == (0, 1, 2, 1, 2)


def test_mu():
    f = PointedMap(FinPointedSet(2), FinPointedSet(2), (0, 2, 0))
    assert mu(1, f) == f
    assert mu(2, identity_map(3)).target == FinPointedSet(6)
    collapse = constant_map(FinPointedSet(2), FinPointedSet(2))
    assert mu(3, collapse) == constant_map(FinPointedSet(6),
                                           FinPointedSet(6))


def test_standard_inclusion():
    assert standard_inclusion(1, 1) == identity_map(1)
    assert standard_inclusion(2, 3).table == (0, 2)
    # collapsing back onto the s-th coordinate recovers the identity
    for n in range(1, 4):
        for s in range(1, n + 1):
            assert compose(standard_inclusion(s, n),
                           sharp((s,), n)) == identity_map(1)
    with pytest.raises(ValueError):
        standard_inclusion(4, 3)


# ---------------------------------------------------------------------------
# Pointed products.

def test_product_and_pair():
    assert product(FinPointedSet(1), FinPointedSet(2)).points == 6
    f = identity_map(2)
    paired = pair(f, f)
    # pair lands on the diagonal
    assert paired.table == (0, 1 * 3 + 1, 2 * 3 + 2)


def test_cofiber_chain_composite_is_constant():
    # wedge -> product -> smash kills everything
    for n, m in itertools.product(range(3), repeat=2):
        composite = compose(wedge_to_product(n, m), product_to_smash(n, m))
        assert composite == constant_map(FinPointedSet(n + m),
                                         FinPointedSet(n * m))


# ---------------------------------------------------------------------------
# The simplicial circle.

def test_circle_level_one_faces_hit_basepoint():
    assert circle_face(1, 0).table == (0, 0)
    assert circle_face(1, 1).table == (0, 0)


def test_circle_degeneracy_from_vertex():
    assert circle_degeneracy(0, 0).table == (0,)


def test_circle_simplicial_identities():
    top = 6
    for q in range(2, top + 1):
        for j in range(q + 1):
            for i in range(j):
                lhs = compose(circle_face(q, j), circle_face(q - 1, i))
                rhs = compose(circle_face(q, i), circle_face(q - 1, j - 1))
                assert lhs == rhs
    for q in range(top + 1):
        for j in range(q + 1):
            for i in range(j + 1):
                lhs = compose(circle_degeneracy(q, j),
                              circle_degeneracy(q + 1, i))
                rhs = compose(circle_degeneracy(q, i),
                              circle_degeneracy(q + 1, j + 1))
                assert lhs == rhs
    for q in range(1, top + 1):
        for j in range(q + 1):
            for i in range(q + 2):
                lhs = compose(circle_degeneracy(q, j),
                              circle_face(q + 1, i))
                if i < j:
                    rhs = compose(circle_face(q, i),
                                  circle_degeneracy(q - 1, j - 1))
                elif i in (j, j + 1):
                    rhs = identity_map(q)
                else:
                    rhs = compose(circle_face(q, i - 1),
                                  circle_degeneracy(q - 1, j))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# Storage: tables of 1024 entries or more are read-only arrays, int32 into
# fewer than 2^31 points and int64 from there on.

@pytest.mark.parametrize("points", [1023, 1025])
def test_tuple_and_array_storage_agree(points):
    values = np.random.default_rng(points).integers(0, 8, points)
    values[0] = 0
    expected = tuple(values.tolist())
    source, target = FinPointedSet(points - 1), FinPointedSet(7)
    from_tuple = PointedMap(source, target, expected)
    from_array = PointedMap(source, target, values)
    assert from_tuple == from_array
    assert hash(from_tuple) == hash(from_array)
    for f in (from_tuple, from_array):
        assert f.table == tuple(f.as_array.tolist()) == expected
        assert f(points - 1) == expected[-1]
        assert not f.as_array.flags.writeable
    values[1:] = (values[1:] + 1) % 8
    assert from_array.table == expected
    assert PointedMap(source, target, values) != from_array


@pytest.mark.parametrize("points", [1023, 1025])
def test_array_tables_validated(points):
    source, target = FinPointedSet(points - 1), FinPointedSet(7)
    good = np.zeros(points, dtype=np.int64)
    PointedMap(source, target, good)
    bad = []
    for k, v in ((0, 1), (points - 1, 8), (points - 1, -1)):
        table = good.copy()
        table[k] = v
        bad.append(table)
    bad += [good[:-1], np.zeros(points + 1, dtype=np.int64),
            good.reshape(1, points), good.astype(float)]
    for table in bad:
        with pytest.raises(ValueError):
            PointedMap(source, target, table)


def test_large_map_predicates():
    ident = identity_map(1500)
    assert ident.is_identity and ident.is_bijection()
    flip = PointedMap(ident.source, ident.source,
                      (0, *range(1500, 0, -1)))
    assert not flip.is_identity and flip.is_bijection()
    collapse = constant_map(ident.source, ident.source)
    assert not collapse.is_identity and not collapse.is_bijection()
    assert compose(flip, flip) == ident


def rand_table(rng, a, b):
    return [0] + [rng.randint(0, b) for _ in range(a)]


def test_large_operations_match_python_reference():
    rng = random.Random(3)
    for a, b in ((1022, 9), (1024, 9), (1500, 40), (40, 1500)):
        for c in (0, 7, 1100):
            ft, gt = rand_table(rng, a, b), rand_table(rng, b, c)
            f = PointedMap(FinPointedSet(a), FinPointedSet(b), ft)
            g = PointedMap(FinPointedSet(b), FinPointedSet(c), gt)
            assert compose(f, g).table == tuple(gt[v] for v in ft)
    for (n1, n2), (m1, m2) in (((40, 5), (30, 6)), ((1100, 3), (2, 4)),
                               ((2, 3), (1100, 5)), ((1100, 3), (0, 2))):
        ft, gt = rand_table(rng, n1, n2), rand_table(rng, m1, m2)
        f = PointedMap(FinPointedSet(n1), FinPointedSet(n2), ft)
        g = PointedMap(FinPointedSet(m1), FinPointedSet(m2), gt)
        smashed = [0] + [0 if ft[i] == 0 or gt[j] == 0
                         else (ft[i] - 1) * m2 + gt[j]
                         for i in range(1, n1 + 1) for j in range(1, m1 + 1)]
        assert smash(f, g).table == tuple(smashed)
        wedged = ft + [0 if v == 0 else n2 + v for v in gt[1:]]
        assert wedge(f, g).table == tuple(wedged)
        ms, mt = m1 + 1, m2 + 1
        prod = [ft[e // ms] * mt + gt[e % ms] for e in range((n1 + 1) * ms)]
        assert product(f, g).table == tuple(prod)
    for a, b, c in ((600, 5, 7), (1100, 5, 7), (300, 2000, 3)):
        ft, gt = rand_table(rng, a, b), rand_table(rng, c, b)
        f = PointedMap(FinPointedSet(a), FinPointedSet(b), ft)
        g = PointedMap(FinPointedSet(c), FinPointedSet(b), gt)
        assert wedge_case(f, g).table == tuple(ft + gt[1:])
    for a in (1022, 1024, 1500):
        ft, gt = rand_table(rng, a, 5), rand_table(rng, a, 30)
        f = PointedMap(FinPointedSet(a), FinPointedSet(5), ft)
        g = PointedMap(FinPointedSet(a), FinPointedSet(30), gt)
        assert pair(f, g).table == tuple(x * 31 + y for x, y in zip(ft, gt))


def high_table(rng, a, points):
    """A table [a]+ -> [points - 1]+ with codes near the top and some 0s."""
    return [0] + [rng.choice((0, points - 1, rng.randint(points - 1000,
                                                          points - 1)))
                  for _ in range(a)]


@pytest.mark.parametrize("points, dtype", [((1 << 31) - 1, np.int32),
                                           (1 << 31, np.int64)])
def test_tables_near_two_to_the_31_points(points, dtype):
    # Codes just below 2^31 fit int32; every operation that can leave that
    # range must give the pure-Python table, with no wraparound.
    rng = random.Random(points)
    big = FinPointedSet(points - 1)
    ft = high_table(rng, 1023, points)
    f = PointedMap(FinPointedSet(1023), big, tuple(ft))
    assert f.as_array.dtype == dtype and f.table == tuple(ft)
    for table in (np.array(ft, dtype=np.int64), np.array(ft, dtype=np.uint64),
                  np.array(ft, dtype=dtype)):
        same = PointedMap(f.source, big, table)
        assert same == f and hash(same) == hash(f)
        assert same.as_array.dtype == dtype
    assert PointedMap(f.source, big, ft[:-1] + [0]) != f
    with pytest.raises(ValueError):
        PointedMap(f.source, FinPointedSet(points - 2), ft)

    ht = [0, *rng.sample(range(1, 1024), 1023)]
    h = PointedMap(f.source, f.source, ht)
    assert compose(h, f).table == tuple(ft[v] for v in ht)

    gt = [0, 1, 0, 3, 2]  # [4]+ -> [3]+
    for (xt, n2), (yt, m2) in (((ft, points - 1), (gt, 3)),
                               ((gt, 3), (ft, points - 1))):
        x = PointedMap(FinPointedSet(len(xt) - 1), FinPointedSet(n2), xt)
        y = PointedMap(FinPointedSet(len(yt) - 1), FinPointedSet(m2), yt)
        smashed = [0] + [0 if xt[i] == 0 or yt[j] == 0
                         else (xt[i] - 1) * m2 + yt[j]
                         for i in range(1, len(xt)) for j in range(1, len(yt))]
        assert smash(x, y).table == tuple(smashed)
        wedged = xt + [0 if v == 0 else n2 + v for v in yt[1:]]
        assert wedge(x, y).table == tuple(wedged)
        ms, mt = len(yt), m2 + 1
        prod = [xt[e // ms] * mt + yt[e % ms] for e in range(len(xt) * ms)]
        assert product(x, y).table == tuple(prod)
    one = PointedMap(FinPointedSet(1), FinPointedSet(1), (0, 1))
    assert smash(f, one).as_array.dtype == dtype
    assert smash(f, one).table == tuple(ft)

    kt = high_table(rng, 10, points)
    k = PointedMap(FinPointedSet(10), big, kt)
    assert wedge_case(f, k).table == tuple(ft + kt[1:])
    assert wedge_case(k, f).table == tuple(kt + ft[1:])
    et = [0] + [rng.randint(0, 5) for _ in range(1023)]
    e = PointedMap(f.source, FinPointedSet(5), et)
    assert pair(f, e).table == tuple(x * 6 + y for x, y in zip(ft, et))
    assert pair(e, f).table == tuple(x * points + y for x, y in zip(et, ft))
