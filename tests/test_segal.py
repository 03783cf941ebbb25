"""The machine: Gamma-spaces, delooping, suspension, assembly and
structure maps, specialness, spec strings."""

import itertools
import math
import random

import numpy as np
import pytest

from gammahom.chains import ZZ
from gammahom.gamma import (_VECTOR_MIN, FinPointedSet, PointedMap, code_type,
                            identity_map)
from gammahom.segal import (GammaMap, _abelian_action, block_inclusion_maps,
                            counit, delooping, discrete_abelian,
                            free_gamma_space, is_special, mu_pullback,
                            parse_space, point_space, smash_gamma,
                            spectrum_level, sphere_space, structure_map,
                            suspension, tower_map, underlying_space,
                            wedge_case_gamma, wedge_gamma)
from gammahom.simplicial import (circle, indices_up_to, suspension_ss,
                                 two_point_object)

from test_simplicial import hand_nerve_z2


def all_pointed_maps(a, b):
    for values in itertools.product(range(b + 1), repeat=a):
        yield PointedMap(FinPointedSet(a), FinPointedSet(b), (0, *values))


def equal_on_levels(x, y, bound):
    """Cell-by-cell and map-by-map equality up to a total degree bound."""
    if x.directions != y.directions:
        return False
    for idx in indices_up_to(x.directions, bound):
        if x.cell(idx) != y.cell(idx):
            return False
        for j in range(x.directions):
            for i in range(idx[j] + 1):
                if idx[j] >= 1 and x.face(idx, j, i) != y.face(idx, j, i):
                    return False
                if sum(idx) < bound and \
                        x.degeneracy(idx, j, i) != y.degeneracy(idx, j, i):
                    return False
    return True


# ---------------------------------------------------------------------------
# Built-ins.

def test_free_space_on_two_points_is_levelwise_discrete():
    sp = sphere_space()
    for n in range(4):
        assert sp.at(n).cell(()) == FinPointedSet(n)
    # the action is just the map itself
    f = PointedMap(FinPointedSet(2), FinPointedSet(3), (0, 3, 1))
    assert sp.map_action(f).component(()) == f


def test_discrete_abelian_sizes_and_fold():
    ab = discrete_abelian([2])
    assert ab.at(3).cell(()).points == 8
    fold = PointedMap(FinPointedSet(2), FinPointedSet(1), (0, 1, 1))
    # codes over Z/2 x Z/2: 0=(0,0), 1=(0,1), 2=(1,0), 3=(1,1); addition
    assert ab.map_action(fold).component(()).table == (0, 1, 1, 0)
    with pytest.raises(ValueError):
        discrete_abelian([1])
    with pytest.raises(ValueError):
        discrete_abelian([])


def test_discrete_abelian_functorial_exhaustive():
    ab = discrete_abelian([2])
    for a, b, c in itertools.product(range(4), repeat=3):
        for f in all_pointed_maps(a, b):
            ff = ab.map_action(f).component(())
            for g in all_pointed_maps(b, c):
                gg = ab.map_action(g).component(())
                composite = ab.map_action(f.then(g)).component(())
                assert composite == ff.then(gg)
    for factors in ([2, 4], [3], [2, 3]):
        mixed = discrete_abelian(factors)
        for a, b, c in itertools.product(range(3), repeat=3):
            for f in all_pointed_maps(a, b):
                ff = mixed.map_action(f).component(())
                for g in all_pointed_maps(b, c):
                    assert mixed.map_action(f.then(g)).component(()) == \
                        ff.then(mixed.map_action(g).component(()))
        assert mixed.map_action(identity_map(2)).component(()).is_identity


def abelian_action_reference(factors, f):
    """The action of f on A^n -> A^m, one point and one coordinate at a
    time: coordinates most significant first, each an element of A coded
    with the last factor least significant."""
    order = math.prod(factors)
    n, m = f.source.size, f.target.size

    def add(u, v):
        total, scale = 0, 1
        for d in reversed(factors):
            total += ((u // scale + v // scale) % d) * scale
            scale *= d
        return total

    table = []
    for code in range(order ** n):
        coords = [code // order ** (n - i) % order for i in range(1, n + 1)]
        out = [0] * m
        for i in range(1, n + 1):
            if f(i):
                out[f(i) - 1] = add(out[f(i) - 1], coords[i - 1])
        table.append(sum(v * order ** (m - 1 - j) for j, v in enumerate(out)))
    return tuple(table)


@pytest.mark.parametrize("factors", [[2], [3], [2, 4], [2, 3]])
def test_abelian_action_matches_pointwise_sum_over_fibers(factors):
    order = math.prod(factors)
    for a, b in itertools.product(range(4), repeat=2):
        for f in all_pointed_maps(a, b):
            assert _abelian_action(factors, order, f).table == \
                abelian_action_reference(factors, f)


# factors: source sizes n whose A^n lies below, at (for ab:2) and above
# _VECTOR_MIN points.
ACTION_SOURCES = {(2,): (9, 10, 12), (3,): (6, 7), (2, 4): (3, 4)}


@pytest.mark.parametrize("factors", sorted(ACTION_SOURCES))
def test_abelian_action_evaluates_codes_as_its_table(factors):
    # Seeded random pointed maps [n]+ -> [m]+: the codes taken, in int32
    # and in int64, reversed and strided, and the basepoint and the last
    # code alone, give the reference table; a large source holds no
    # table, and equality and hashing follow its table.
    order = math.prod(factors)
    rng = random.Random(sum(factors))
    for n in ACTION_SOURCES[factors]:
        for m in (1, 3, n):
            values = [0] + [rng.randrange(m + 1) for _ in range(n)]
            f = PointedMap(FinPointedSet(n), FinPointedSet(m), values)
            g = _abelian_action(factors, order, f)
            want = np.array(abelian_action_reference(factors, f),
                            dtype=np.int64)
            points = order ** n
            assert (g._table is None and g._array is None) \
                == (points >= _VECTOR_MIN)
            assert g.as_array.dtype == (code_type(order ** m)
                                        if points >= _VECTOR_MIN else np.intp)
            assert np.array_equal(g.as_array, want)
            for dtype in (np.int32, np.int64):
                codes = np.arange(points, dtype=dtype)
                assert np.array_equal(g.take(codes), want)
                assert np.array_equal(g.take(codes[::-7]), want[::-7])
                ends = np.array([0, points - 1], dtype=dtype)
                assert g.take(ends).tolist() == [0, int(want[-1])]
            assert (g(0), g(points - 1)) == (0, int(want[-1]))
            copy = PointedMap(g.source, g.target, want)
            assert g == copy and copy == g and hash(g) == hash(copy)
            other = want.copy()
            other[-1] = (other[-1] + 1) % order ** m
            assert g != PointedMap(g.source, g.target, other)


def test_underlying_space_examples():
    y = circle()
    assert equal_on_levels(underlying_space(free_gamma_space(y)), y, 4)
    ab = discrete_abelian([2])
    assert underlying_space(ab).cell(()).points == 2
    assert underlying_space(point_space()).cell(()).size == 0


# ---------------------------------------------------------------------------
# Assembly map (counit of the free/underlying adjunction).

def test_counit_at_one_is_identity():
    ab = discrete_abelian([2])
    tau = counit(ab)
    assert tau.at(1).component(()).is_identity


def test_counit_at_two_for_z2():
    # codes in A^2: (a1,a2) -> 2*a1 + a2; the summand s maps onto axis s
    tau = counit(discrete_abelian([2]))
    assert tau.at(2).component(()).table == (0, 2, 1)
    assert tau.at(0).component(()).table == (0,)


def test_counit_natural():
    counit(discrete_abelian([2])).verify_natural(2, 1)
    counit(free_gamma_space(circle())).verify_natural(2, 2)


# ---------------------------------------------------------------------------
# Delooping.

def test_delooping_of_z2_is_the_nerve():
    ab = discrete_abelian([2])
    level_one = underlying_space(delooping(ab))
    assert equal_on_levels(level_one, hand_nerve_z2(), 4)


def test_delooping_normalized():
    for space in (discrete_abelian([2]), sphere_space()):
        b = delooping(space)
        for idx in indices_up_to(b.directions, 3):
            assert b.at(0).cell(idx).size == 0
    b_point = delooping(point_space())
    for n in range(3):
        for idx in indices_up_to(1, 3):
            assert b_point.at(n).cell(idx).size == 0


# ---------------------------------------------------------------------------
# Suspension.

def test_suspension_commutes_with_underlying():
    for space in (discrete_abelian([2]), sphere_space(),
                  free_gamma_space(circle())):
        left = underlying_space(suspension(space))
        right = suspension_ss(underlying_space(space))
        assert equal_on_levels(left, right, 4)


def test_suspension_of_free_space():
    y = circle()
    left = suspension(free_gamma_space(y))
    right = free_gamma_space(suspension_ss(y))
    for n in range(3):
        assert equal_on_levels(left.at(n), right.at(n), 3)


def test_suspension_of_point():
    sus = suspension(point_space())
    for n in range(3):
        for idx in indices_up_to(1, 3):
            assert sus.at(n).cell(idx).size == 0


# ---------------------------------------------------------------------------
# Structure map.

def test_structure_map_on_free_space_is_levelwise_bijective():
    rho = structure_map(free_gamma_space(two_point_object()))
    for n in range(3):
        for idx in indices_up_to(1, 3):
            component = rho.at(n).component(idx)
            assert component.source.points == component.target.points
            assert len(set(component.table)) == component.source.points


def test_structure_map_values():
    rho = structure_map(discrete_abelian([2]))
    assert rho.at(1).component((1,)).is_identity
    assert rho.at(0).component((2,)).table == (0,)


def test_structure_map_natural():
    structure_map(discrete_abelian([2])).verify_natural(2, 2)


# ---------------------------------------------------------------------------
# Specialness.

def test_is_special_examples():
    assert is_special(discrete_abelian([2])).special
    assert is_special(discrete_abelian([2, 4])).special
    assert is_special(point_space()).special
    verdict = is_special(sphere_space())
    assert not verdict.special
    assert "(1,1)" in verdict.detail
    assert not is_special(sphere_space(), "homology", ring=ZZ,
                          depth=1).special


def test_delooping_preserves_specialness_in_homology_mode():
    verdict = is_special(delooping(discrete_abelian([2])), "homology",
                         size_bound=2, ring=ZZ, depth=2)
    assert verdict.special


# ---------------------------------------------------------------------------
# Spectrum levels.

def test_spectrum_levels():
    ab = discrete_abelian([2])
    assert spectrum_level(ab, 0) is underlying_space(ab)
    level_two = spectrum_level(ab, 2)
    assert level_two.directions == 2
    for q1, q2 in itertools.product(range(3), repeat=2):
        assert level_two.cell((q1, q2)).points == 2 ** (q1 * q2)
    with pytest.raises(ValueError):
        spectrum_level(ab, -1)


def test_tower_map_endpoints():
    ab = discrete_abelian([2])
    rho = structure_map(ab)
    level = tower_map(rho, 2)
    assert level.source.directions == 3
    level.component((1, 1, 1))


def test_tower_map_ends_are_the_spectrum_levels():
    # The check suites compare towers built by spectrum_homology through
    # maps built by tower_map; both must reach the same level objects.
    ab = discrete_abelian([2])
    for g in (structure_map(ab), counit(ab)):
        for n in range(3):
            level = tower_map(g, n)
            assert level.source is spectrum_level(g.source, n)
            assert level.target is spectrum_level(g.target, n)


# ---------------------------------------------------------------------------
# Wedge, smash, inflation.

def test_mu_pullback_shares_values():
    ab = discrete_abelian([2])
    doubled = mu_pullback(2, ab)
    assert doubled.at(3) is ab.at(6)
    assert is_special(doubled).special


def test_normalization_preserved_by_constructions():
    ab = discrete_abelian([2])
    for space in (wedge_gamma(ab, ab), smash_gamma(ab, ab),
                  mu_pullback(2, ab), delooping(ab), suspension(ab)):
        for idx in indices_up_to(space.directions, 2):
            assert space.at(0).cell(idx).size == 0


def test_block_inclusions_and_wedge_case():
    ab = discrete_abelian([2])
    first, second, target = block_inclusion_maps(1, 1, ab)
    first.verify_natural(2, 0)
    second.verify_natural(2, 0)
    folded = wedge_case_gamma(first, second,
                              source=wedge_gamma(first.source,
                                                 second.source))
    folded.verify_natural(2, 0)
    # at [1]+ the map (A v A) -> A^2 places each block on its axis
    component = folded.at(1).component(())
    assert component.table == (0, 2, 1)


def test_degenerate_inflation_by_zero():
    ab = discrete_abelian([2])
    collapsed = mu_pullback(0, ab)
    for n in range(3):
        assert collapsed.at(n).cell(()).size == 0


# ---------------------------------------------------------------------------
# Functoriality of derived spaces.

def test_delooping_functorial_small():
    b = delooping(discrete_abelian([2]))
    for a, c in itertools.product(range(3), repeat=2):
        for f in all_pointed_maps(a, c):
            for g in all_pointed_maps(c, 2):
                lhs = b.map_action(f.then(g))
                rhs_f = b.map_action(f)
                rhs_g = b.map_action(g)
                for idx in indices_up_to(1, 2):
                    assert lhs.component(idx) == \
                        rhs_f.component(idx).then(rhs_g.component(idx))


# ---------------------------------------------------------------------------
# Spec strings.

def test_parse_space_atoms():
    assert parse_space("sphere").name == "free(s0)"
    assert parse_space("t:s0").name == "free(s0)"
    assert parse_space("t:circle").name == "free(circle)"
    assert parse_space("point").name == "point"
    assert parse_space("ab:2").name == "ab:2"
    assert parse_space("ab:2,4").name == "ab:2,4"


def test_parse_space_modifiers():
    assert parse_space("B(ab:2)").directions == 1
    assert parse_space("sigma(ab:2)").directions == 1
    assert parse_space("mu(2)*ab:2").at(1).cell(()).points == 4
    assert parse_space("wedge(ab:2, ab:2)").at(1).cell(()).points == 3
    assert parse_space("smash(ab:2, ab:2)").at(1).cell(()).points == 2
    assert parse_space("B(sigma(point))").directions == 2


def test_parse_space_errors():
    for bad in ("", "nope", "ab:", "ab:x", "B(ab:2", "mu(2)ab:2",
                "wedge(ab:2)", "sphere junk"):
        with pytest.raises(ValueError):
            parse_space(bad)


def test_gamma_map_direction_mismatch():
    with pytest.raises(ValueError):
        GammaMap(discrete_abelian([2]), delooping(discrete_abelian([2])),
                 lambda n, idx: identity_map(0))


# ---------------------------------------------------------------------------
# The commuting square data fits together strictly.

def test_suspension_of_free_equals_free_of_suspension_on_underlying():
    # domain identification used by the commuting-square check
    ab = discrete_abelian([2])
    tau = counit(ab)
    left = suspension(tau.source)
    rho = structure_map(ab)
    right = free_gamma_space(underlying_space(rho.source))
    for n in range(3):
        assert equal_on_levels(left.at(n), right.at(n), 3)
