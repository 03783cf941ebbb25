"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria are exact (no tolerances beyond the stated iteration and runtime
caps).  Runtime caps are asserted with wall-clock margins as stated.
"""

import json
import random
import time

from gammahom.chains import (GF, QQ, ZZ, CooMatrix, HomologyGroup,
                             homology, matrix_rank, smith_normal_form)
from gammahom.cli import main
from gammahom.segal import (discrete_abelian, free_gamma_space, point_space,
                            sphere_space, spectrum_level)
from gammahom.simplicial import (NormalizedChains, circle,
                                 normalized_chains, smash_ss,
                                 two_point_object)
from gammahom.stable import (check_commuting_square, check_rho_iso,
                             check_smash_vanishing, check_stable_range,
                             check_wedge_iso, gamma_homology,
                             spectrum_homology)

Z = HomologyGroup(1)
ZERO = HomologyGroup(0)
Z2 = HomologyGroup(0, (2,))


def report(number, description, passed):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} "
          f"- {description}")
    assert passed, f"criterion {number} failed: {description}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_sphere_tower(capsys):
    start = time.monotonic()
    code, out = run_cli(capsys, "compute", "--space", "sphere", "--ring",
                        "z", "--max-degree", "3", "--format", "json")
    elapsed = time.monotonic() - start
    payload = json.loads(out)
    got = [d["label"] for d in payload["degrees"]]
    ok = (code == 0 and got == ["Z", "0", "0", "0"]
          and all(d["stabilized_at"] <= 4 for d in payload["degrees"])
          and elapsed < 60)
    report(1, f"sphere tower over Z is (Z,0,0,0) with n<=4 "
              f"[{elapsed:.1f}s]", ok)


def test_criterion_2_eilenberg_maclane_mod_two(capsys):
    start = time.monotonic()
    code, out = run_cli(capsys, "compute", "--space", "ab:2", "--ring",
                        "f2", "--max-degree", "3", "--format", "json")
    elapsed = time.monotonic() - start
    payload = json.loads(out)
    dims = [d["group"]["free_rank"] for d in payload["degrees"]]
    ok = (code == 0 and dims == [1, 1, 1, 2]
          and payload["degrees"][3]["stabilized_at"] == 4
          and elapsed < 300)
    report(2, f"mod-2 Eilenberg-MacLane dimensions are (1,1,1,2) with n=4 "
              f"[{elapsed:.1f}s]", ok)


def test_criterion_3_integral_torsion(capsys):
    code, out = run_cli(capsys, "compute", "--space", "ab:2", "--ring", "z",
                        "--max-degree", "1", "--format", "json")
    payload = json.loads(out)
    degree_zero = payload["degrees"][0]
    ok = (code == 0 and degree_zero["label"] == "Z/2"
          and degree_zero["group"]["torsion"] == [2]
          and degree_zero["group"]["free_rank"] == 0)
    report(3, "integral degree-0 group of ab:2 is Z/2 via exact Smith "
              "form", ok)


def test_criterion_4_free_space_identification():
    start = time.monotonic()
    expected = {
        "s0": {0: Z},
        "circle": {1: Z},
        "smashed circles": {2: Z},
    }
    ok = True
    for (name, want), y in zip(expected.items(),
                               (two_point_object(), circle(),
                                smash_ss(circle(), circle()))):
        stable = gamma_homology(free_gamma_space(y), ZZ, 3)
        direct = homology(normalized_chains(y, ZZ, 3))
        table = stable.table()
        ok = ok and table == direct
        ok = ok and all(table.group(d) == want.get(d, ZERO)
                        for d in range(4))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    report(4, f"stable homology of free spaces matches the generating "
              f"object exactly (s0, circle, smash) [{elapsed:.1f}s]", ok)


def test_criterion_5_structure_map_isomorphism():
    start = time.monotonic()
    reports = [check_rho_iso(space, GF(2), 2)
               for space in (discrete_abelian([2]), sphere_space(),
                             point_space())]
    elapsed = time.monotonic() - start
    ok = all(r.passed for r in reports) and elapsed < 600
    report(5, f"suspension-to-delooping comparison is a stable iso for "
              f"ab:2, t:s0, point over F2 up to degree 2 [{elapsed:.1f}s]",
           ok)


def test_criterion_6_wedge_splitting_and_smash_vanishing():
    start = time.monotonic()
    ab = discrete_abelian([2])
    wedge_one = check_wedge_iso(ab, 1, 1, GF(2), 2)
    wedge_two = check_wedge_iso(ab, 1, 2, GF(2), 2)
    smash = check_smash_vanishing(ab, 1, 1, GF(2), 2)
    elapsed = time.monotonic() - start
    for r in (wedge_one, wedge_two, smash):
        for line in r.details:
            print(f"    {r.name}{tuple(sorted(r.params.items()))}: {line}")
    ok = (wedge_one.passed and wedge_two.passed and smash.passed
          and elapsed < 900)
    report(6, f"wedge splitting (1,1),(1,2) and smash vanishing (1,1) for "
              f"ab:2 over F2 up to degree 2 [{elapsed:.1f}s]", ok)


def test_criterion_7_commuting_square():
    result = check_commuting_square(discrete_abelian([2]), ZZ,
                                    size_bound=2, degree_bound=3)
    report(7, "assembly/structure-map square commutes at matrix level "
              "for ab:2, objects <= [2]+, total degree <= 3", result.passed)


def test_criterion_8_stable_range_evidence():
    result = spectrum_homology(discrete_abelian([2]), GF(2), 3)
    ok = True
    for i, entry in result.entries.items():
        beyond = [g for n, g in entry.history if n > i]
        ok = ok and beyond and all(g == beyond[0] for g in beyond)
        ok = ok and entry.stabilized_at is not None
        ok = ok and entry.previous is not None
        ok = ok and not entry.anomalies
    range_report = check_stable_range(discrete_abelian([2]), GF(2), 3)
    ok = ok and range_report.passed
    report(8, "tower values agree in the stable range and every degree "
              "carries evidence (n, previous value, certificate)", ok)


def test_criterion_9_linear_algebra_oracles():
    rng = random.Random(2024)
    ok = True
    for _ in range(500):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        entries = {}
        for r in range(rows):
            for c in range(cols):
                v = rng.randint(-9, 9)
                if v:
                    entries[(r, c)] = v
        m = CooMatrix.from_entries((rows, cols), entries)
        res = smith_normal_form(m, transforms=True)
        left = [list(row) for row in res.left]
        right = [list(row) for row in res.right]
        dense = m.to_dense()
        product = [[sum(left[i][k] * dense[k][j] for k in range(rows))
                    for j in range(cols)] for i in range(rows)]
        product = [[sum(product[i][k] * right[k][j] for k in range(cols))
                    for j in range(cols)] for i in range(rows)]
        for i in range(rows):
            for j in range(cols):
                want = res.diagonal[i] if i == j and i < len(res.diagonal) \
                    else 0
                ok = ok and product[i][j] == want
        ok = ok and all(b % a == 0 for a, b in zip(res.diagonal,
                                                   res.diagonal[1:]))

    # boundary condition, Euler characteristic and universal coefficients
    # on the complexes behind the acceptance computations
    samples = [
        NormalizedChains(circle(), 3),
        NormalizedChains(spectrum_level(discrete_abelian([2]), 1), 4),
        NormalizedChains(spectrum_level(discrete_abelian([2]), 2), 4),
        NormalizedChains(spectrum_level(sphere_space(), 2), 4),
    ]
    for chains in samples:
        over_z = chains.complex(ZZ)
        over_z.verify_boundary_condition()
        table_z = homology(over_z)
        bound = over_z.degree_bound
        for ring in (QQ, GF(2), GF(3)):
            cx = chains.complex(ring)
            cx.verify_boundary_condition()
            table = homology(cx)
            # truncated Euler characteristic, corrected by the top boundary
            chi_ranks = sum((-1) ** d * cx.rank(d)
                            for d in range(bound + 1))
            chi_betti = sum((-1) ** d * table.group(d).free_rank
                            for d in range(bound + 1))
            correction = (-1) ** bound * matrix_rank(
                cx.boundary(bound + 1), ring)
            ok = ok and chi_ranks == chi_betti + correction
            for d in range(bound + 1):
                z_group = table_z.group(d)
                if ring.kind == "Q":
                    expected = z_group.free_rank
                else:
                    below = table_z.group(d - 1)
                    expected = z_group.free_rank \
                        + sum(1 for t in z_group.torsion
                              if t % ring.p == 0) \
                        + sum(1 for t in below.torsion if t % ring.p == 0)
                ok = ok and table.group(d).free_rank == expected
    report(9, "Smith-form properties on 500 random matrices, boundary "
              "condition, Euler characteristic and universal-coefficient "
              "consistency on acceptance complexes", ok)
