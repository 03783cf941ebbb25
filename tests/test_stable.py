"""Stabilization along the tower and the property suites."""

import weakref
from collections import Counter

import pytest

from gammahom.chains import GF, QQ, ZZ, HomologyGroup, homology
from gammahom.errors import BudgetExceeded, LimitExceeded
from gammahom.gamma import constant_map
from gammahom.segal import (GammaMap, delooping, discrete_abelian,
                            free_gamma_space, is_special, mu_pullback,
                            point_space, spectrum_level, sphere_space)
from gammahom.simplicial import (DEFAULT_CELL_BUDGET, circle,
                                 normalized_chains, smash_ss, suspension_ss,
                                 two_point_object)
from gammahom.stable import (_compare_towers_via_map, _feasible_degree_bound,
                             check_commuting_square,
                             check_rho_iso, check_smash_vanishing,
                             check_stable_range, check_wedge_iso,
                             connectivity, gamma_homology, spectrum_homology)

Z_ONE = HomologyGroup(1)
Z_TWO = HomologyGroup(0, (2,))


def groups(result):
    return {i: e.group for i, e in result.entries.items() if e.stable}


def test_sphere_tower_integral():
    result = spectrum_homology(sphere_space(), ZZ, 3)
    assert groups(result) == {0: Z_ONE, 1: HomologyGroup(0),
                              2: HomologyGroup(0), 3: HomologyGroup(0)}
    assert result.pre_spectrum
    assert all(e.stabilized_at <= 4 for e in result.entries.values())
    assert all(e.certificate == "empirical" for e in result.entries.values())


def test_free_circle_tower_integral():
    result = spectrum_homology(free_gamma_space(circle()), ZZ, 2)
    assert groups(result) == {0: HomologyGroup(0), 1: Z_ONE,
                              2: HomologyGroup(0)}


def test_z2_tower_mod_two_low_degrees():
    result = spectrum_homology(discrete_abelian([2]), GF(2), 2)
    assert [result.entries[i].group.free_rank for i in range(3)] == [1, 1, 1]
    assert not result.pre_spectrum
    assert all(e.certificate == "i<n" for e in result.entries.values())
    assert all(not e.anomalies for e in result.entries.values())


def test_z2_tower_integral_degree_zero():
    result = spectrum_homology(discrete_abelian([2]), ZZ, 1)
    assert result.entries[0].group == Z_TWO
    assert result.entries[1].group.is_zero
    assert result.entries[0].stabilized_at == 2


def test_z2_z4_tower_integral_degree_zero():
    result = spectrum_homology(discrete_abelian([2, 4]), ZZ, 0)
    assert result.entries[0].group == HomologyGroup(0, (2, 4))


def test_point_tower_vanishes():
    result = spectrum_homology(point_space(), QQ, 2)
    assert all(e.group.is_zero for e in result.entries.values())
    assert not result.pre_spectrum


def test_gamma_homology_is_the_same_pipeline():
    space = discrete_abelian([2])
    assert gamma_homology(space, GF(2), 1).table() == \
        spectrum_homology(space, GF(2), 1).table()


def test_evidence_history_recorded():
    result = spectrum_homology(sphere_space(), ZZ, 1)
    entry = result.entries[0]
    assert entry.history[0][0] == 0
    assert entry.previous == entry.group
    payload = result.to_json()
    assert payload["route"] == "pre-spectrum"
    assert payload["degrees"][0]["certificate"] == "empirical"


def test_budget_exhaustion_gives_partial_result():
    result = spectrum_homology(discrete_abelian([2]), GF(2), 3,
                               cell_budget=100)
    assert result.budget_note is not None
    assert result.unstable_above is not None
    assert not result.all_stable
    stable_part = [i for i, e in result.entries.items() if e.stable]
    unstable_part = [i for i, e in result.entries.items() if not e.stable]
    assert stable_part and unstable_part
    assert min(unstable_part) > max(stable_part)


def test_specialness_check_keeps_to_the_cell_budget():
    # The split map X([3]) -> X([1]) x X([2]) of ab:11 is on 11^3 = 1331
    # points, above a budget of 1000: the check refuses it before building
    # it, and the homology still comes, with a weaker certificate.
    with pytest.raises(BudgetExceeded) as refused:
        is_special(discrete_abelian((11,)), cell_budget=1000)
    assert refused.value.size == 1331
    result = spectrum_homology(discrete_abelian((11,)), GF(2), 1,
                               cell_budget=1000)
    assert result.table().group(0).is_zero
    assert result.special.mode == "homology" and result.special
    assert is_special(discrete_abelian((11,)), cell_budget=1331)


def test_a_cell_too_large_to_enumerate_caps_the_feasible_bound():
    # Level 2 of mu(3)*ab:3 has the cells A^(3 q_0 q_1).  Up to total
    # degree 4 the largest, A^12 at (2, 2), fits the budget; (2, 3) in
    # degree 5 is A^18, which refuses to be enumerated at all
    # (LimitExceeded).  That caps the bound at 3, as a budget stop does,
    # instead of ending the job.
    level = spectrum_level(mu_pullback(3, discrete_abelian([3])), 2)
    assert _feasible_degree_bound(level, 4, DEFAULT_CELL_BUDGET) == 3
    with pytest.raises(LimitExceeded, match=r"^A\^18 has"):
        level.cell((2, 3))
    assert _feasible_degree_bound(level, 3, DEFAULT_CELL_BUDGET) == 3


def test_connectivity_examples():
    assert connectivity(circle(), 3) == 0
    assert connectivity(suspension_ss(circle()), 3) == 1
    assert connectivity(spectrum_level(discrete_abelian([2]), 1), 3) == 0
    assert connectivity(point_space().at(1), 2) == 2


def test_connectivity_shortcut_certificate():
    # delooping twice gives a 1-connected underlying object, so low degrees
    # are read off directly
    stage = delooping(delooping(discrete_abelian([2])))
    result = spectrum_homology(stage, GF(2), 1)
    assert result.entries[0].certificate == "i<2c"
    assert result.entries[1].certificate == "i<2c"
    assert result.entries[0].group.is_zero and \
        result.entries[1].group.is_zero


def test_check_rho_iso_suite():
    assert check_rho_iso(discrete_abelian([2]), GF(2), 2).passed
    assert check_rho_iso(sphere_space(), GF(2), 2).passed
    assert check_rho_iso(point_space(), GF(2), 2).passed


def test_check_rho_iso_integral_small():
    assert check_rho_iso(sphere_space(), ZZ, 1).passed


def test_check_wedge_iso():
    report = check_wedge_iso(discrete_abelian([2]), 1, 1, GF(2), 2)
    assert report.passed
    degenerate = check_wedge_iso(discrete_abelian([2]), 1, 0, GF(2), 2)
    assert degenerate.passed
    not_special = check_wedge_iso(sphere_space(), 1, 1, GF(2), 1)
    assert not not_special.passed
    assert "precondition" in not_special.details[0]


def test_wedge_comparison_streams_each_top_once(monkeypatch):
    # The towers of the (1, 1) wedge check on ab:2 reduce their levels;
    # the chain maps take those they share (the target's level 4 at bound
    # 6 among them), so every top streams at most once over each ring: the
    # connectivity test streams the underlying space over Z, the tower's
    # level 0 over F_2.  Level 4 of the target at bound 6 lies in the
    # stable range, every top cell in a slab of level 3, so its 1350 x
    # 296820 top is derived from level 3's and builds no batch at all.
    # Whatever the comparison kept is gone once it returns.
    from gammahom import chains, simplicial
    from gammahom.simplicial import NormalizedChains
    streams, made, rings, derived = Counter(), [], [], []
    top_batches, init = NormalizedChains.top_batches, \
        NormalizedChains.__init__
    basis_init = chains._EchelonBasis.__init__

    def counted(self):
        # The ring of the stream that asks for the batches, if any.
        streams[self.x.name, self.degree_bound,
                rings[-1] if rings else None] += 1
        return top_batches(self)

    def ringed(stream_top):
        def run(cx, batches, spanning=None):
            rings.append(cx.ring)
            if spanning is not None:
                d = cx.degree_bound + 1
                derived.append((cx.rank(d - 1), cx.rank(d)))
            try:
                return stream_top(cx, batches, spanning)
            finally:
                rings.pop()
        return run

    for module in (chains, simplicial):
        monkeypatch.setattr(module, "stream_top", ringed(module.stream_top))

    def tracked_init(self, *args, **kwargs):
        made.append(weakref.ref(self))
        init(self, *args, **kwargs)

    def tracked_basis(self, *args):
        made.append(weakref.ref(self))
        basis_init(self, *args)

    monkeypatch.setattr(NormalizedChains, "top_batches", counted)
    monkeypatch.setattr(NormalizedChains, "__init__", tracked_init)
    monkeypatch.setattr(chains._EchelonBasis, "__init__", tracked_basis)
    report = check_wedge_iso(discrete_abelian([2]), 1, 1, GF(2), 2)
    assert report.passed
    assert "degree 2: F2^2 iso via level 4" in report.details
    assert (1350, 296820) in derived
    assert not any(key[0] == "B(B(B(B(mu(2)*ab:2))))@[1]" and key[1] == 6
                   for key in streams)
    assert set(streams.values()) == {1}
    assert made and all(ref() is None for ref in made)


def test_check_smash_vanishing():
    assert check_smash_vanishing(discrete_abelian([2]), 1, 1, GF(2),
                                 2).passed
    assert check_smash_vanishing(point_space(), 1, 1, ZZ, 2).passed
    assert check_smash_vanishing(sphere_space(), 1, 1, ZZ, 2).passed


def test_check_smash_vanishing_reports_a_group_that_is_not_zero(
        monkeypatch):
    # With the smash taken to be the sphere, whose degree 0 is Z, the
    # check fails in that degree and names the group.
    from gammahom import stable
    monkeypatch.setattr(stable, "smash_gamma", lambda x, y: sphere_space())
    report = check_smash_vanishing(sphere_space(), 1, 1, ZZ, 1)
    assert not report.passed
    assert report.details == ["degree 0: Z != 0",
                              "degree 1: 0 (stabilized at n=2)"]


def constant_gamma_map(source, target):
    """The natural map from source to target that sends every cell to the
    basepoint."""
    return GammaMap(source, target, lambda n, idx: constant_map(
        source.at(n).cell(idx), target.at(n).cell(idx)), name="constant")


@pytest.mark.parametrize("ring", [ZZ, GF(2), QQ], ids=str)
def test_a_map_zero_on_homology_is_not_an_isomorphism(ring):
    # The sphere's degree 0 matches itself, but the constant map induces
    # zero there.
    sphere = sphere_space()
    zero = constant_gamma_map(sphere, sphere)
    zero.verify_natural(size_bound=2, level_bound=1)
    ok, details, _ = _compare_towers_via_map(zero, ring, 0,
                                             DEFAULT_CELL_BUDGET, {})
    assert not ok
    assert details == ["degree 0: induced map not an isomorphism at "
                       "level 1"]


def test_towers_with_different_groups_are_not_isomorphic():
    ok, details, _ = _compare_towers_via_map(
        constant_gamma_map(point_space(), sphere_space()), ZZ, 0,
        DEFAULT_CELL_BUDGET, {})
    assert not ok
    assert details == ["degree 0: 0 != Z"]


def test_check_stable_range():
    report = check_stable_range(discrete_abelian([2]), GF(2), 2)
    assert report.passed
    assert any("connectivity" in line for line in report.details)


def test_check_commuting_square():
    assert check_commuting_square(discrete_abelian([2]), ZZ).passed
    assert check_commuting_square(sphere_space(), ZZ, size_bound=2,
                                  degree_bound=2).passed
    assert check_commuting_square(free_gamma_space(circle()), GF(2),
                                  size_bound=1, degree_bound=2).passed


def test_wedge_fold_chain_map_commutes_at_level_one():
    from gammahom.segal import (block_inclusion_maps, tower_map,
                                wedge_case_gamma, wedge_gamma)
    from gammahom.simplicial import chains_of_map
    ab = discrete_abelian([2])
    first, second, _ = block_inclusion_maps(1, 1, ab)
    folded = wedge_case_gamma(
        first, second, source=wedge_gamma(first.source, second.source))
    # commutation with the differentials is asserted inside
    chm = chains_of_map(tower_map(folded, 1), GF(2), 3)
    assert chm.block(1).nnz > 0


def test_th_identification_for_free_spaces():
    # stable homology of a free Gamma-space equals the homology of the
    # generating object, computed directly
    for y in (two_point_object(), circle(), smash_ss(circle(), circle())):
        direct = homology(normalized_chains(y, ZZ, 3))
        stable = gamma_homology(free_gamma_space(y), ZZ, 3)
        assert stable.table() == direct


def test_report_json_shape():
    report = check_smash_vanishing(point_space(), 1, 1, ZZ, 1)
    payload = report.to_json()
    assert payload["schema_version"] == 1
    assert payload["passed"] is True
    assert payload["check"] == "smash-vanishing"
