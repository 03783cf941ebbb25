"""Multisimplicial sets, their constructions and normalized chains."""

from itertools import product

import pytest

from gammahom import gamma
from gammahom.chains import GF, ZZ, HomologyGroup, homology
from gammahom.errors import BudgetExceeded, IntegrityError
from gammahom.gamma import FinPointedSet, PointedMap, identity_map
from gammahom.simplicial import (DEFAULT_CELL_BUDGET, MSMap, MSSet,
                                 NormalizedChains, chain_map_induces_iso,
                                 chains_of_map,
                                 circle, collapse_msmap, compose_msmap,
                                 constant_object, diagonal_ss,
                                 identity_msmap, indices_up_to,
                                 normalized_chains, pair_msmap, point_object,
                                 product_ss, product_to_smash_msmap,
                                 smash_msmap, smash_ss, suspension_ss,
                                 two_point_object, wedge_case_msmap,
                                 wedge_ss, wedge_to_product_msmap)
from gammahom.segal import parse_space, spectrum_level
from gammahom.stable import _feasible_degree_bound


def hand_nerve_z2():
    """Independent model of the classifying object of Z/2: level q holds
    the non-zero bit vectors of length q, coded as integers 1..2^q - 1."""

    def face(idx, j, i):
        q = idx[0]
        table = [0]
        for code in range(1, 2 ** q):
            bits = [(code >> (q - 1 - t)) & 1 for t in range(q)]
            if i == 0:
                new = bits[1:]
            elif i == q:
                new = bits[:-1]
            else:
                new = bits[:i - 1] + [bits[i - 1] ^ bits[i]] + bits[i + 1:]
            value = 0
            for b in new:
                value = value * 2 + b
            table.append(value)
        return PointedMap(FinPointedSet(2 ** q - 1),
                          FinPointedSet(2 ** (q - 1) - 1), tuple(table))

    def degeneracy(idx, j, i):
        q = idx[0]
        table = [0]
        for code in range(1, 2 ** q):
            bits = [(code >> (q - 1 - t)) & 1 for t in range(q)]
            new = bits[:i] + [0] + bits[i:]
            value = 0
            for b in new:
                value = value * 2 + b
            table.append(value)
        return PointedMap(FinPointedSet(2 ** q - 1),
                          FinPointedSet(2 ** (q + 1) - 1), tuple(table))

    return MSSet(1, lambda idx: FinPointedSet(2 ** idx[0] - 1), face,
                 degeneracy, name="nerveZ2")


def test_indices_up_to_match_the_filtered_product():
    # The definition: every tuple over range(degree + 1) of total degree at
    # most degree, by total degree and then lexicographically.
    for k in range(6):
        for degree in range(8):
            want = sorted((idx for idx in product(range(degree + 1), repeat=k)
                           if sum(idx) <= degree),
                          key=lambda idx: (sum(idx), idx))
            assert indices_up_to(k, degree) == want


def test_levelwise_sizes():
    s = circle()
    ss = smash_ss(s, s)
    for q in range(5):
        assert ss.cell((q,)).points == q * q + 1
    w = wedge_ss(s, s)
    for q in range(5):
        assert w.cell((q,)).points == 2 * (q + 1) - 1
    p = product_ss(s, s)
    for q in range(4):
        assert p.cell((q,)).points == (q + 1) ** 2


def test_wedge_with_point_is_identity_levelwise():
    s = circle()
    w = wedge_ss(s, point_object(1))
    for q in range(4):
        assert w.cell((q,)) == s.cell((q,))
        if q >= 1:
            for i in range(q + 1):
                assert w.face((q,), 0, i) == s.face((q,), 0, i)


def test_suspension_of_two_point_object_is_circle():
    sus = suspension_ss(two_point_object())
    s = circle()
    for q in range(5):
        assert sus.cell((q,)) == s.cell((q,))
        for i in range(q + 1):
            if q >= 1:
                assert sus.face((q,), 0, i) == s.face((q,), 0, i)
            assert sus.degeneracy((q,), 0, i) == s.degeneracy((q,), 0, i)


def test_suspension_of_point_is_point():
    sus = suspension_ss(point_object(0))
    for q in range(4):
        assert sus.cell((q,)).size == 0


def test_suspension_shifts_homology():
    for x in (circle(), smash_ss(circle(), circle()), hand_nerve_z2()):
        base = homology(normalized_chains(x, ZZ, 3))
        lifted = homology(
            normalized_chains(suspension_ss(x), ZZ, 4))
        for i in range(3):
            assert lifted.group(i + 1) == base.group(i)


def test_circle_chain_ranks_and_homology():
    nc = NormalizedChains(circle(), 3)
    ranks = nc.multicomplex.degree_ranks
    assert [ranks.get(d, 0) for d in range(5)] == [0, 1, 0, 0, 0]
    table = homology(nc.complex(ZZ))
    assert table.group(1) == HomologyGroup(1)


def test_point_chains_vanish():
    cx = normalized_chains(point_object(2), ZZ, 3)
    assert all(cx.rank(d) == 0 for d in range(5))


def test_nondegenerate_counts_match_direct_enumeration():
    # for the circle, level q has q non-basepoint cells of which the
    # degenerate ones are the images of the q degeneracies from level q-1
    s = circle()
    nc = NormalizedChains(s, 4)
    for q in range(1, 5):
        degenerate = set()
        for i in range(q):
            table = s.degeneracy((q - 1,), 0, i).table
            degenerate.update(t for t in table[1:] if t)
        assert nc.multicomplex.degree_ranks[q] == q - len(degenerate)


def test_hand_nerve_matches_projective_space_pattern():
    nerve = hand_nerve_z2()
    nc = NormalizedChains(nerve, 4)
    ranks = nc.multicomplex.degree_ranks
    assert [ranks.get(d, 0) for d in range(1, 6)] == [1, 1, 1, 1, 1]
    table = homology(nc.complex(GF(2)), 4)
    assert all(table.group(d) == HomologyGroup(1) for d in range(1, 5))
    integral = homology(nc.complex(ZZ), 4)
    assert integral.group(1) == HomologyGroup(0, (2,))
    assert integral.group(2).is_zero


def test_eilenberg_zilber_total_vs_diagonal():
    two_dir = suspension_ss(circle())
    cells = sum(two_dir.cell(idx).points
                for idx in indices_up_to(2, 4))
    assert cells <= 200
    total = homology(normalized_chains(two_dir, ZZ, 3))
    diag = homology(normalized_chains(diagonal_ss(two_dir), ZZ, 3))
    assert total == diag


def test_boundary_condition_holds_on_constructions():
    for obj in (circle(), smash_ss(circle(), circle()),
                suspension_ss(circle()),
                wedge_ss(circle(), suspension_ss(two_point_object()))):
        normalized_chains(obj, ZZ, 3).verify_boundary_condition()


def test_cell_budget_guard_reports_offender():
    big = constant_object(FinPointedSet(10_000), 1, name="big")
    with pytest.raises(BudgetExceeded) as err:
        normalized_chains(big, ZZ, 2, cell_budget=100)
    assert err.value.index == (0,)
    assert err.value.size == 10_001


def test_chain_map_checks_the_cell_budget_before_any_component():
    # Both normalized chains check every cell up to the degree bound + 1
    # before the map builds a component.
    x = spectrum_level(parse_space("ab:2"), 2)
    built = []
    f = MSMap(x, x, lambda idx: built.append(idx) or identity_map(
        x.cell(idx).size), name="id")
    with pytest.raises(BudgetExceeded) as err:
        chains_of_map(f, GF(2), 3, cell_budget=10)
    assert err.value.index == (2, 2)
    assert built == []


def test_constant_object_builds_its_identity_on_demand(monkeypatch):
    built = []
    init = gamma.PointedMap.__init__

    def counting_init(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(gamma.PointedMap, "__init__", counting_init)
    huge = constant_object(FinPointedSet((1 << 24) - 1), 1)
    assert huge.cell((2,)).points == 1 << 24
    assert _feasible_degree_bound(huge, 2, DEFAULT_CELL_BUDGET) == -2
    assert built == []

    x = constant_object(FinPointedSet(2000), 1)
    first = x.face((1,), 0, 0)
    assert first == identity_map(2000)
    built.clear()
    assert x.face((2,), 0, 1) is first
    assert x.degeneracy((0,), 0, 0) is first
    assert built == []


def test_chains_of_identity_and_collapse():
    s = circle()
    chm = chains_of_map(identity_msmap(s), ZZ, 3)
    assert chm.block(1).nnz == 1
    assert list(chm.block(1).entries()) == [(0, 0, 1)]
    collapsed = chains_of_map(collapse_msmap(s), ZZ, 3)
    for d in range(1, 4):
        assert collapsed.block(d).nnz == 0


def test_msmap_verify_detects_noncommuting():
    s = circle()

    def bogus(idx):
        q = idx[0]
        if q == 1:
            return PointedMap(FinPointedSet(1), FinPointedSet(1), (0, 0))
        return identity_map(q)

    broken = MSMap(s, s, bogus, name="broken")
    with pytest.raises(IntegrityError):
        broken.verify(2)
    identity_msmap(s).verify(3)


def test_cofiber_sequence_maps():
    s = circle()
    left = wedge_to_product_msmap(s, s)
    right = product_to_smash_msmap(s, s)
    left.verify(3)
    right.verify(3)
    # the composite collapses the wedge
    for q in range(3):
        comp = compose_msmap(
            left, MSMap(left.target, right.target,
                        right.component, name="collapse"))
        table = comp.component((q,))
        assert all(v == 0 for v in table.table)


def test_pair_and_wedge_case_maps():
    s = circle()
    paired = pair_msmap(identity_msmap(s), identity_msmap(s))
    paired.verify(2)
    folded = wedge_case_msmap(identity_msmap(s), identity_msmap(s))
    folded.verify(2)
    assert folded.component((2,)).table == (0, 1, 2, 1, 2)


def test_chain_map_induces_iso_on_identity():
    s = smash_ss(circle(), circle())
    chm = chains_of_map(identity_msmap(s), GF(2), 3)
    for d in range(3):
        assert chain_map_induces_iso(chm, d)
    chm_z = chains_of_map(identity_msmap(s), ZZ, 3)
    for d in range(3):
        assert chain_map_induces_iso(chm_z, d)


def test_smash_msmap_components():
    s = circle()
    sm = smash_msmap(identity_msmap(s), collapse_msmap(s))
    for q in range(1, 3):
        assert all(v == 0 for v in sm.component((q,)).table)
