"""Spectrum homology by stabilization along the delooping tower.

For a normalized Gamma-space the degree-i answer is the common value of
H_{i+n} of the tower levels once consecutive levels agree inside the stable
range.  Every reported group carries its evidence: the level used, the value
one level earlier, and the bound that certifies it ("i<n" for certified
special inputs, "i<2c" when read off directly from a connected underlying
object, "empirical" on the pre-spectrum route where no bound applies).

The check suites restate the structural facts the machinery rests on as
exact, matrix-level assertions: the suspension-vs-delooping comparison, the
wedge splitting and smash vanishing for inflations of a special input, the
stable range bookkeeping, and the commuting square tying the assembly map
to the structure map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ``homology`` stays a name here for the benchmark tracer's self-test.
from .chains import (SCHEMA_VERSION, ZZ, HomologyGroup, HomologyTable,
                     Ring, coo_mul, homology)
from .errors import BudgetExceeded, LimitExceeded
from .segal import (GammaMap, GammaSpace, SpecialVerdict, counit,
                    free_gamma_map, is_special, mu_pullback,
                    block_inclusion_maps, smash_gamma, spectrum_level,
                    structure_map, suspension, suspension_map, tower,
                    tower_map, underlying_map, underlying_space,
                    wedge_case_gamma, wedge_gamma)
from .simplicial import (DEFAULT_CELL_BUDGET, LevelBelow, NormalizedChains,
                         chain_map_induces_iso, chains_of_map, indices_up_to,
                         total_degree)

DEFAULT_MAX_ITERATIONS = 10

# Specialness is tested on maps between sets of at most this size, on tower
# levels up to SPECIAL_LEVEL_BOUND.
SPECIAL_SIZE_BOUND = 3
SPECIAL_LEVEL_BOUND = 2

# The stable-range check looks for a connected tower level up to this one.
LEVEL_CAP = 3


@dataclass
class DegreeEvidence:
    """Stabilization record for one spectrum degree."""

    degree: int
    group: HomologyGroup | None = None
    stabilized_at: int | None = None
    previous: HomologyGroup | None = None
    certificate: str = "unstable"
    history: list[tuple[int, HomologyGroup]] = field(default_factory=list)
    anomalies: list[str] = field(default_factory=list)

    @property
    def stable(self) -> bool:
        return self.group is not None and self.certificate != "unstable"

    def to_json(self, ring: Ring) -> dict:
        def enc(g):
            return None if g is None else {"free_rank": g.free_rank,
                                           "torsion": list(g.torsion)}
        return {
            "degree": self.degree,
            "group": enc(self.group),
            "label": "?" if self.group is None else self.group.label(ring),
            "stabilized_at": self.stabilized_at,
            "previous": enc(self.previous),
            "certificate": self.certificate,
            "history": [[n, enc(g)] for n, g in self.history],
            "anomalies": list(self.anomalies),
        }


@dataclass
class StableResult:
    """Stable homology table plus the evidence that produced it."""

    space: str
    ring: Ring
    i_max: int
    special: SpecialVerdict
    pre_spectrum: bool
    entries: dict[int, DegreeEvidence]
    budget_note: str | None = None

    @property
    def all_stable(self) -> bool:
        return all(self.entries[i].stable for i in range(self.i_max + 1))

    @property
    def unstable_above(self) -> int | None:
        bad = [i for i in range(self.i_max + 1)
               if not self.entries[i].stable]
        return min(bad) if bad else None

    def group(self, degree: int) -> HomologyGroup | None:
        entry = self.entries.get(degree)
        return entry.group if entry and entry.stable else None

    def table(self) -> HomologyTable:
        groups = {i: e.group for i, e in self.entries.items() if e.stable}
        return HomologyTable(self.ring, groups, self.i_max)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "space": self.space,
            "ring": self.ring.name,
            "max_degree": self.i_max,
            "special": {
                "special": self.special.special,
                "mode": self.special.mode,
                "size_bound": self.special.size_bound,
                "level_bound": self.special.level_bound,
                "detail": self.special.detail,
            },
            "route": "pre-spectrum" if self.pre_spectrum else "spectrum",
            "degrees": [self.entries[i].to_json(self.ring)
                        for i in range(self.i_max + 1)],
            "budget_note": self.budget_note,
        }


def spectrum_homology(x: GammaSpace, ring: Ring, i_max: int, *,
                      max_iterations: int = DEFAULT_MAX_ITERATIONS,
                      cell_budget: int | None = DEFAULT_CELL_BUDGET,
                      keep: dict | None = None) -> StableResult:
    """Homology of the spectrum attached to a normalized Gamma-space.

    For each degree i <= i_max the tower values H_{i+n} of the levels are
    computed for increasing n until two consecutive values agree and n > i.
    Special inputs get the certified bound; otherwise the result is labelled
    as the pre-spectrum route and marked empirical.  Budget exhaustion
    produces a partial result with the undecided degrees marked; a level
    whose rank is refused is first built again at the bound the lowest
    undecided degree needs.  Each level is carried to the next
    (``LevelBelow``), which derives its top boundary from it where every
    top cell lies in a slab of the level below (the stable range).

    A comparison of two towers passes a dict as ``keep``.  A level n
    reduced at degree bound r is kept there, keyed by (level, r), as
    (NormalizedChains, complex) (``NormalizedChains.reduced``), if degree
    r - n is decided once the level is: only then can a chain map at level
    n and bound r serve that degree.
    """
    if i_max < 0:
        raise ValueError("i_max must be >= 0")
    try:
        verdict = is_special(x, "bijection", size_bound=SPECIAL_SIZE_BOUND,
                             level_bound=SPECIAL_LEVEL_BOUND,
                             cell_budget=cell_budget)
    except BudgetExceeded as exc:
        # A split cell over the budget; a set too large to enumerate at
        # all (LimitExceeded) still ends the job with its own message.
        verdict = SpecialVerdict(False, "bijection", SPECIAL_SIZE_BOUND,
                                 SPECIAL_LEVEL_BOUND, detail=str(exc))
    if not verdict:
        try:
            verdict = is_special(
                x, "homology", size_bound=min(SPECIAL_SIZE_BOUND, 2),
                level_bound=SPECIAL_LEVEL_BOUND, ring=ZZ,
                depth=min(2, i_max), cell_budget=cell_budget)
        except LimitExceeded:
            pass
    entries: dict[int, DegreeEvidence] = {
        i: DegreeEvidence(i) for i in range(i_max + 1)}
    unresolved = set(range(i_max + 1))
    budget_note = None

    if verdict:
        under = underlying_space(x)
        try:
            conn = connectivity(under, i_max, cell_budget=cell_budget)
        except LimitExceeded:
            conn = -1
        if conn >= 1:
            direct = NormalizedChains(under, min(2 * conn - 1, i_max),
                                      cell_budget).homology(ring)
            for i in range(min(2 * conn, i_max + 1)):
                group = direct.group(i)
                entries[i] = DegreeEvidence(i, group, 0, None, "i<2c",
                                            [(0, group)])
                unresolved.discard(i)

    below = None  # level n - 1, for level n to derive its top from
    for n in range(max_iterations + 1):
        if not unresolved:
            break
        level = spectrum_level(x, n)
        reach = _feasible_degree_bound(level, i_max + n, cell_budget)
        if reach < min(unresolved) + n:
            budget_note = (f"level {n}: cells above total degree "
                           f"{reach + 1} exceed the budget of {cell_budget}")
            break
        # A refused rank is tried once more at the bound the lowest
        # undecided degree needs, the refused level dropped first.
        for reach in sorted({reach, min(unresolved) + n}, reverse=True):
            try:
                nc = NormalizedChains(level, reach, cell_budget)
                cx, table = nc.reduced(ring, below)
                break
            except LimitExceeded as exc:
                nc, refusal = None, f"level {n}: {exc}"
        else:
            budget_note = refusal
            break
        progress = False
        for i in range(i_max + 1):
            entry = entries[i]
            if entry.certificate == "i<2c" or i + n > reach:
                continue
            group = table.group(i + n)
            entry.history.append((n, group))
            if i in unresolved:
                progress = True
                if n > i and len(entry.history) >= 2 \
                        and entry.history[-2][0] == n - 1 \
                        and entry.history[-2][1] == group:
                    entry.group = group
                    entry.stabilized_at = n
                    entry.previous = entry.history[-2][1]
                    entry.certificate = "i<n" if verdict else "empirical"
                    unresolved.discard(i)
            elif entry.group is not None and group != entry.group:
                entry.anomalies.append(
                    f"level {n} value {group.label(ring)} disagrees with "
                    f"stabilized {entry.group.label(ring)}")
        if keep is not None and 0 <= reach - n <= i_max \
                and reach - n not in unresolved:
            keep[level, reach] = (nc, cx)
        below = LevelBelow.of(nc, cx, n + 1)
        del nc, cx  # a level not kept goes before the next is built
        if unresolved and not progress:
            budget_note = (f"level {n}: undecided degrees "
                           f"{sorted(unresolved)} are out of budget reach")
            break

    return StableResult(x.name, ring, i_max, verdict,
                        pre_spectrum=not verdict, entries=entries,
                        budget_note=budget_note)


def _feasible_degree_bound(level, target: int, budget: int | None) -> int:
    """Largest degree bound <= target whose chain assembly (total degrees up
    to bound + 1) stays within the cell budget.  Only cell sizes are
    evaluated, no structure maps; a cell too large to enumerate at all
    (LimitExceeded) is over the budget too."""
    if budget is None:
        return target
    for idx in indices_up_to(level.directions, target + 1):
        try:
            over = level.cell(idx).points > budget
        except LimitExceeded:
            over = True
        if over:
            # Indices are ordered by total degree, so the first offender
            # caps every bound that would materialize its degree.
            return total_degree(idx) - 2
    return target


def gamma_homology(x: GammaSpace, ring: Ring, i_max: int,
                   **options) -> StableResult:
    """Homology of a Gamma-space; one pipeline with spectrum_homology,
    kept as a separate entry point so property suites read naturally."""
    return spectrum_homology(x, ring, i_max, **options)


def connectivity(y, bound: int,
                 cell_budget: int | None = DEFAULT_CELL_BUDGET) -> int:
    """Largest c <= bound with vanishing reduced integral homology in all
    degrees <= c (homological connectivity; -1 if H_0 is non-zero)."""
    table = NormalizedChains(y, bound, cell_budget).homology(ZZ)
    conn = -1
    for i in range(bound + 1):
        if table.group(i).is_zero:
            conn = i
        else:
            break
    return conn


# ---------------------------------------------------------------------------
# Check reports.

@dataclass
class CheckReport:
    name: str
    passed: bool
    params: dict
    details: list[str]
    evidence: dict | None = None

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "check": self.name,
            "passed": self.passed,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "details": list(self.details),
            "evidence": self.evidence,
        }

    def render_text(self) -> str:
        head = "PASS" if self.passed else "FAIL"
        params = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        lines = [f"{head} {self.name} ({params})"]
        lines.extend(f"  {line}" for line in self.details)
        return "\n".join(lines)


def _compare_towers_via_map(gmap: GammaMap, ring: Ring, d_max: int,
                            cell_budget, options: dict,
                            ) -> tuple[bool, list[str], dict]:
    """Equal stable tables of the source and the target of gmap, plus an
    induced isomorphism degree by degree; returns the verdict, the details
    and both tables as evidence."""
    # The levels both towers reduced that a chain map below can take, and
    # only for as long as this comparison runs.
    reduced: dict = {}
    left = spectrum_homology(gmap.source, ring, d_max,
                             cell_budget=cell_budget, keep=reduced,
                             **options)
    right = spectrum_homology(gmap.target, ring, d_max,
                              cell_budget=cell_budget, keep=reduced,
                              **options)
    ok = True
    details = []
    for side, result in (("source", left), ("target", right)):
        if result.budget_note:
            details.append(f"{side} tower: {result.budget_note}")
    levels: dict[int, list[int]] = {}
    for i in range(d_max + 1):
        el, er = left.entries[i], right.entries[i]
        if not (el.stable and er.stable):
            ok = False
            details.append(f"degree {i}: undecided tower value")
            continue
        if el.group != er.group:
            ok = False
            details.append(
                f"degree {i}: {el.group.label(ring)} != "
                f"{er.group.label(ring)}")
            continue
        n = max(el.stabilized_at or 0, er.stabilized_at or 0, i + 1)
        levels.setdefault(n, []).append(i)
    wanted = {(spectrum_level(x, n), max(degrees) + n)
              for n, degrees in levels.items()
              for x in (gmap.source, gmap.target)}
    reduced = {key: reduced[key] for key in wanted if key in reduced}
    for n in sorted(levels):
        degrees = levels[n]
        top = max(degrees) + n
        f = tower_map(gmap, n)
        chm = chains_of_map(f, ring, top, cell_budget=cell_budget,
                            reduced=(reduced.pop((f.source, top), None),
                                     reduced.pop((f.target, top), None)))
        for i in degrees:
            if chain_map_induces_iso(chm, i + n):
                details.append(
                    f"degree {i}: {left.entries[i].group.label(ring)} "
                    f"iso via level {n}")
            else:
                ok = False
                details.append(f"degree {i}: induced map not an "
                               f"isomorphism at level {n}")
    return ok, details, {"source": left.to_json(), "target": right.to_json()}


def check_rho_iso(x: GammaSpace, ring: Ring, d_max: int, *,
                  cell_budget: int | None = DEFAULT_CELL_BUDGET,
                  **options) -> CheckReport:
    """The suspension-to-delooping comparison induces an isomorphism on
    stable homology up to d_max."""
    ok, details, evidence = _compare_towers_via_map(
        structure_map(x), ring, d_max, cell_budget, options)
    return CheckReport("rho-iso", ok,
                       {"space": x.name, "ring": ring.name, "d_max": d_max,
                        "cell_budget": cell_budget}, details, evidence)


def check_wedge_iso(x: GammaSpace, n: int, n2: int, ring: Ring, d_max: int,
                    *, cell_budget: int | None = DEFAULT_CELL_BUDGET,
                    **options) -> CheckReport:
    """The wedge of inflations maps isomorphically onto the joint inflation
    on stable homology, for special x."""
    params = {"space": x.name, "n": n, "n2": n2, "ring": ring.name,
              "d_max": d_max, "cell_budget": cell_budget}
    verdict = is_special(x, cell_budget=cell_budget)
    if not verdict:
        return CheckReport("wedge-iso", False, params,
                           [f"precondition failed: {verdict.describe()}"])
    first, second, _ = block_inclusion_maps(n, n2, x)
    folded = wedge_case_gamma(first, second,
                              wedge_gamma(first.source, second.source))
    ok, details, evidence = _compare_towers_via_map(
        folded, ring, d_max, cell_budget, options)
    return CheckReport("wedge-iso", ok, params, details, evidence)


def check_smash_vanishing(x: GammaSpace, n: int, n2: int, ring: Ring,
                          d_max: int, *,
                          cell_budget: int | None = DEFAULT_CELL_BUDGET,
                          **options) -> CheckReport:
    """Stable homology of the smash of two inflations vanishes up to
    d_max."""
    params = {"space": x.name, "n": n, "n2": n2, "ring": ring.name,
              "d_max": d_max, "cell_budget": cell_budget}
    smashed = smash_gamma(mu_pullback(n, x), mu_pullback(n2, x))
    result = spectrum_homology(smashed, ring, d_max,
                               cell_budget=cell_budget, **options)
    ok = True
    details = []
    for i in range(d_max + 1):
        entry = result.entries[i]
        if not entry.stable:
            ok = False
            details.append(f"degree {i}: undecided")
        elif not entry.group.is_zero:
            ok = False
            details.append(f"degree {i}: {entry.group.label(ring)} != 0")
        else:
            details.append(
                f"degree {i}: 0 (stabilized at n={entry.stabilized_at})")
    return CheckReport("smash-vanishing", ok, params, details,
                       evidence={"result": result.to_json()})


def check_stable_range(x: GammaSpace, ring: Ring, i_max: int, *,
                       cell_budget: int | None = DEFAULT_CELL_BUDGET,
                       **options) -> CheckReport:
    """Tower values agree throughout the certified stable range.

    Part one: in every degree i all computed values at levels n > i
    coincide.  Part two: on the first tower level whose underlying object
    has homological connectivity c >= 1, the assembly-map comparison is an
    isomorphism in degrees below 2c.
    """
    params = {"space": x.name, "ring": ring.name, "i_max": i_max,
              "cell_budget": cell_budget}
    result = spectrum_homology(x, ring, i_max, cell_budget=cell_budget,
                               **options)
    ok = True
    details = []
    for i in range(i_max + 1):
        entry = result.entries[i]
        values = [g for n, g in entry.history if n > i]
        if entry.anomalies:
            ok = False
            details.extend(f"degree {i}: {a}" for a in entry.anomalies)
        elif values and any(g != values[0] for g in values):
            ok = False
            details.append(f"degree {i}: values beyond the bound disagree")
        else:
            details.append(
                f"degree {i}: {len(values)} tower values beyond i agree")

    found = None
    for k in range(1, LEVEL_CAP + 1):
        try:
            conn = connectivity(spectrum_level(x, k),
                                min(i_max + 1, 2 * k),
                                cell_budget=cell_budget)
        except LimitExceeded:
            break
        if conn >= 1:
            found = (k, conn)
            break
    if found is None:
        details.append(
            f"no tower level with connectivity >= 1 within cap {LEVEL_CAP}")
    else:
        k, conn = found
        stage = tower(x, k)[k]
        sub_ok, sub_details, _ = _compare_towers_via_map(
            counit(stage), ring, min(2 * conn - 1, i_max), cell_budget,
            options)
        ok = ok and sub_ok
        details.append(
            f"level {k} has connectivity {conn}; assembly comparison in "
            f"degrees < {2 * conn}:")
        details.extend(f"  {line}" for line in sub_details)
    return CheckReport("stable-range", ok, params, details,
                       evidence={"result": result.to_json()})


def check_commuting_square(x: GammaSpace, ring: Ring = ZZ, *,
                           size_bound: int = 2, degree_bound: int = 3,
                           cell_budget: int | None = DEFAULT_CELL_BUDGET,
                           ) -> CheckReport:
    """Matrix-level equality of the two composites in the square relating
    the assembly map to the suspension-to-delooping comparison.

    Uses that the suspension of the free Gamma-space on the underlying
    object and the free Gamma-space on the suspended underlying object have
    identical cells (the smash enumeration is strictly associative), so the
    two composites can be compared entry by entry.
    """
    rho = structure_map(x)
    tau = counit(x)
    sig, blo = rho.source, rho.target
    sig_tu = suspension(tau.source)
    top = suspension_map(tau, sig_tu, sig)
    left_vert = free_gamma_map(underlying_map(rho))
    bottom = counit(blo)
    ok = True
    details = []
    for m in range(size_bound + 1):
        c_top = chains_of_map(top.at(m), ring, degree_bound,
                              cell_budget=cell_budget)
        c_rho = chains_of_map(rho.at(m), ring, degree_bound,
                              cell_budget=cell_budget)
        c_left = chains_of_map(left_vert.at(m), ring, degree_bound,
                               cell_budget=cell_budget)
        c_bot = chains_of_map(bottom.at(m), ring, degree_bound,
                              cell_budget=cell_budget)
        clean = True
        for d in range(degree_bound + 1):
            via_rho = coo_mul(c_rho.block(d), c_top.block(d))
            via_tau = coo_mul(c_bot.block(d), c_left.block(d))
            if via_rho != via_tau:
                ok = clean = False
                details.append(f"[{m}]+, degree {d}: composites differ")
        if clean:
            details.append(f"[{m}]+: composites equal up to degree "
                           f"{degree_bound}")
    return CheckReport("commuting-square", ok,
                       {"space": x.name, "ring": ring.name,
                        "size_bound": size_bound,
                        "degree_bound": degree_bound}, details)


def check_special(x: GammaSpace, *, size_bound: int = 3,
                  level_bound: int = 2,
                  cell_budget: int | None = DEFAULT_CELL_BUDGET,
                  ) -> CheckReport:
    """Report the specialness verdict (informational; always passes)."""
    verdict = is_special(x, size_bound=size_bound, level_bound=level_bound,
                         cell_budget=cell_budget)
    return CheckReport("special", True,
                       {"space": x.name, "size_bound": size_bound},
                       [verdict.describe()])
