"""Gamma-spaces valued in multisimplicial pointed sets, and the machine
that turns them into (pre-)spectra.

A ``GammaSpace`` assigns to every finite pointed set a multisimplicial
pointed set and to every pointed map a level-wise map, functorially, with
the one-point set going to the point (normalization).  Built-in families:
free Gamma-spaces on a pointed object, discrete abelian groups, the sphere;
these are closed under delooping, suspension, argument inflation, wedge and
smash, which is everything the spec strings of the CLI can express.

``delooping`` smashes the argument with the simplicial circle in a new
leading direction and is the one-step classifying construction; iterating
it and evaluating at [1]+ yields the spectrum levels.  ``structure_map``
compares the suspension with the delooping; together with ``counit`` it
feeds the commuting-square and stabilization checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import gamma
from .chains import ZZ, Ring
from .errors import IntegrityError, LimitExceeded
from .gamma import FinPointedSet, PointedMap
from .simplicial import (DEFAULT_CELL_BUDGET, MSMap, MSSet, chains_of_map,
                         chain_map_induces_iso, circle, constant_object,
                         indices_up_to, pair_msmap, point_object,
                         suspension_ss, two_point_object, wedge_ss, smash_ss)


class GammaSpace:
    """A normalized functor from finite pointed sets to multisimplicial
    pointed sets, memoized on objects and maps."""

    def __init__(self, directions, eval_fn, component_fn, name="gamma"):
        self.directions = directions
        self.name = name
        self._eval_fn = eval_fn
        self._component_fn = component_fn
        self._at: dict[int, MSSet] = {}
        self._maps: dict[PointedMap, MSMap] = {}
        # [self, B self, ..., B^n self], started by ``tower``.
        self._tower: list[GammaSpace] | None = None

    def at(self, n: int) -> MSSet:
        """The value on [n]+."""
        got = self._at.get(n)
        if got is None:
            if n < 0:
                raise ValueError("objects are indexed by n >= 0")
            value = self._eval_fn(n)
            if value.directions != self.directions:
                raise IntegrityError(
                    f"{self.name}: value at [{n}]+ has {value.directions} "
                    f"directions, expected {self.directions}")
            got = self._at.setdefault(n, value)
        return got

    def map_action(self, f: PointedMap) -> MSMap:
        """The value on a pointed map, as a level-wise map."""
        got = self._maps.get(f)
        if got is None:
            msmap = MSMap(self.at(f.source.size), self.at(f.target.size),
                          lambda idx, f=f: self._component_fn(f, idx),
                          name=f"{self.name}[{f.table}]")
            got = self._maps.setdefault(f, msmap)
        return got

    def __repr__(self):
        return f"GammaSpace({self.name}, k={self.directions})"


# ---------------------------------------------------------------------------
# Built-in families.

def point_space(directions: int = 0) -> GammaSpace:
    pt = point_object(directions)

    def component(f, idx):
        return gamma.constant_map(pt.cell(idx), pt.cell(idx))

    return GammaSpace(directions, lambda n: pt, component, name="point")


def free_gamma_space(y: MSSet) -> GammaSpace:
    """The Gamma-space [n]+ -> y ∧ [n]+ freely generated by a pointed
    multisimplicial set (n wedge copies of y, smash-enumerated)."""

    def eval_fn(n):
        blank = gamma.identity_map(n)
        return MSSet(
            y.directions,
            lambda idx: gamma.smash(y.cell(idx), FinPointedSet(n)),
            lambda idx, j, i: gamma.smash(y.face(idx, j, i), blank),
            lambda idx, j, i: gamma.smash(y.degeneracy(idx, j, i), blank),
            name=f"{y.name}^[{n}]")

    def component(f, idx):
        return gamma.smash(gamma.identity_map(y.cell(idx).size), f)

    return GammaSpace(y.directions, eval_fn, component,
                      name=f"free({y.name})")


def sphere_space() -> GammaSpace:
    """The free Gamma-space on the two-point object: [n]+ -> [n]+."""
    return free_gamma_space(two_point_object())


def discrete_abelian(factors) -> GammaSpace:
    """The Gamma-space of a finite abelian group: [n]+ -> A^n as a discrete
    pointed object, maps acting by summing over fibers.

    ``factors`` lists the cyclic orders (each >= 2) of the product
    decomposition.
    """
    factors = tuple(int(d) for d in factors)
    if not factors or any(d < 2 for d in factors):
        raise ValueError(f"cyclic orders must be >= 2, got {factors}")
    order = 1
    for d in factors:
        order *= d

    def eval_fn(n):
        points = order ** n
        if points > 1 << 27:
            raise LimitExceeded(f"A^{n} has {points} points; refusing to "
                                "materialize")
        return constant_object(FinPointedSet(points - 1), 0,
                               name=f"A^{n}")

    def component(f, idx):
        return _abelian_action(factors, order, f)

    tag = ",".join(str(d) for d in factors)
    return GammaSpace(0, eval_fn, component, name=f"ab:{tag}")


def _abelian_action(factors, order, f: PointedMap) -> PointedMap:
    """The action of f on A^n -> A^m.

    Points of A^n are coded in mixed radix with the first coordinate most
    significant and each coordinate coded by the factors with the last one
    least significant.  Target coordinate j is the sum of the source
    coordinates in the fiber f^-1(j).  A source of ``_VECTOR_MIN`` points
    or more gives an ``_AbelianAction``, which holds f and the factors and
    no table; a smaller one gives its table, which the same evaluation
    (``_evaluate``) gives on every code.
    """
    n, m = f.source.size, f.target.size
    points = order ** n
    if points > 1 << 27:
        raise LimitExceeded(f"A^{n} has {points} points; refusing to build")
    source, target = FinPointedSet(points - 1), FinPointedSet(order ** m - 1)
    if points >= gamma._VECTOR_MIN:
        return _AbelianAction(source, target, factors, order, f)
    return PointedMap(source, target, _evaluate(
        _action_plan(factors, order, f), np.arange(points, dtype=np.intp)))


def _wide_images(factors, order, f: PointedMap):
    """How the action of f on A^n -> A^m is summed: (add, images, reads).

    The image of a point is summed in a wide code, in which the digit of
    target coordinate j for factor d has room for the sum of the
    |f^-1(j)| source digits that reach it; images[j][a] is the wide code
    of a in A put in at j, and ``add`` adds wide codes.  ``reads`` are
    the lookups that give the target code of a wide code, one run of its
    digits each (``_read_wide``), or none where the wide code is the
    target code.  Over A = (Z/2)^k digits add mod 2, by XOR, and the wide
    code is the target code.
    """
    m = f.target.size
    reach = Counter(j for j in f.table[1:] if j)
    values = np.arange(order, dtype=np.intp)
    images = {0: np.zeros(order, dtype=np.intp)}
    xor = set(factors) == {2}
    if xor or max(reach.values(), default=0) < 2:
        # No two source digits reach one target digit, or they add by XOR.
        images.update((j, values * order ** (m - j)) for j in reach)
        return np.bitwise_xor if xor else np.add, images, []
    # The digits of a target code, least significant first: (radix in the
    # wide code, weight there, factor d, weight in the target code).  As
    # r(d - 1) + 1 <= d^r, a wide code is less than |A^n|, so none can
    # wrap.
    digits, wide, weight = [], 1, 1
    for j in range(m, 0, -1):
        for d in reversed(factors):
            radix = reach[j] * (d - 1) + 1
            digits.append((radix, wide, d, weight))
            wide, weight = wide * radix, weight * d
    k = len(factors)
    for j in reach:
        images[j], scale = np.zeros(order, dtype=np.intp), 1
        for _, place, d, _ in digits[(m - j) * k:(m - j + 1) * k]:
            images[j] += values // scale % d * place
            scale *= d
    # Runs of digits of at most 256 wide values, or of one digit.
    runs, size = [[]], 1
    for digit in digits:
        if runs[-1] and size * digit[0] > 256:
            runs.append([])
            size = 1
        runs[-1].append(digit)
        size *= digit[0]
    return np.add, images, [
        (run[0][1], _outer_sums(np.arange(radix, dtype=np.intp) % d * weight
                                for radix, _, d, weight in reversed(run)))
        for run in runs]


def _read_wide(wide: np.ndarray, reads) -> np.ndarray:
    """The target codes of the wide codes ``wide``: the sum of the lookups
    of its runs of digits."""
    if not reads:
        return wide
    out = np.zeros(wide.shape, dtype=np.intp)
    for below, images in reads:
        out += images[_digits(wide, below, len(images))]
    return out


def _digits(codes: np.ndarray, below: int, size: int) -> np.ndarray:
    """codes // below % size.  By powers of two it shifts and masks;
    otherwise it takes the remainder from a quotient, as numpy divides by
    a constant several times faster than it takes a remainder."""
    if not (below & (below - 1) or size & (size - 1)):
        return codes >> below.bit_length() - 1 & size - 1
    high = codes // below
    high -= high // size * size
    return high


def _outer_sums(parts, add=np.add) -> np.ndarray:
    """The sum, by ``add``, of one entry of each of ``parts`` for every
    choice of entries, the choice in the first part most significant."""
    table = np.zeros(1, dtype=np.intp)
    for part in parts:
        table = add(table[:, None], part).reshape(-1)
    return table


def _action_plan(factors, order, f: PointedMap):
    """How ``_evaluate`` sums the action of f on A^n -> A^m: (add, pieces,
    reads) of ``_wide_images``, with pieces in place of the images:
    (below, table), least significant first, where the source
    coordinates fall into pieces of at most 256 points and table holds
    the wide codes of the points of a piece, at the piece's digits
    code // below % len(table)."""
    n = f.source.size
    add, images, reads = _wide_images(factors, order, f)
    size = 1
    while order ** (size + 1) <= 256:
        size += 1
    pieces = [(order ** (n - hi), _outer_sums(
        (images[j] for j in f.table[max(hi - size, 0) + 1:hi + 1]), add))
        for hi in range(n, 0, -size)]
    return add, pieces, reads


def _evaluate(plan, codes) -> np.ndarray:
    """The target codes of the action of ``plan`` (``_action_plan``) on
    the integer array ``codes``, as intp, by the Four-Russians method of
    Albrecht and Bard (arXiv:1111.6549): the wide code of a point is the
    sum of the images of its pieces, one lookup each."""
    add, pieces, reads = plan
    codes = np.asarray(codes, dtype=np.intp)
    wide = np.zeros(codes.shape, dtype=np.intp)
    for below, images in pieces:
        add(wide, images[_digits(codes, below, len(images))], out=wide)
    return _read_wide(wide, reads)


class _AbelianAction(PointedMap):
    """The action of a pointed map f on A^n -> A^m, for A^n of
    ``_VECTOR_MIN`` points or more, held by f and the factors of A with no
    table.  ``take`` evaluates the codes given (``_evaluate``), by a plan
    built on its first call; ``as_array`` evaluates every code on each
    call and keeps the table nowhere."""

    __slots__ = ("_factors", "_order", "_f", "_plan")

    def __init__(self, source: FinPointedSet, target: FinPointedSet,
                 factors, order: int, f: PointedMap):
        super().__init__(source, target, None)
        self._factors, self._order, self._f = factors, order, f
        self._plan = None

    @property
    def as_array(self) -> np.ndarray:
        arr = self.take(np.arange(self.source.points, dtype=np.intp)).astype(
            gamma.code_type(self.target.points))
        arr.setflags(write=False)
        return arr

    def take(self, codes) -> np.ndarray:
        if self._plan is None:
            self._plan = _action_plan(self._factors, self._order, self._f)
        return _evaluate(self._plan, codes)


# ---------------------------------------------------------------------------
# The machine: underlying object, delooping, suspension.

def underlying_space(x: GammaSpace) -> MSSet:
    """Evaluation at [1]+."""
    return x.at(1)


def delooping(x: GammaSpace) -> GammaSpace:
    """One step of the classifying construction.

    The value on [m]+ acquires a new leading direction whose level q is the
    value of x on the smash [q]+ ∧ [m]+; leading structure maps act through
    the circle, the other directions as in x.  Preserves normalization.
    """
    k = x.directions

    def eval_fn(m):
        ident = gamma.identity_map(m)

        def cell(idx):
            return x.at(idx[0] * m).cell(idx[1:])

        def face(idx, j, i):
            if j == 0:
                h = gamma.smash(gamma.circle_face(idx[0], i), ident)
                return x.map_action(h).component(idx[1:])
            return x.at(idx[0] * m).face(idx[1:], j - 1, i)

        def degeneracy(idx, j, i):
            if j == 0:
                h = gamma.smash(gamma.circle_degeneracy(idx[0], i), ident)
                return x.map_action(h).component(idx[1:])
            return x.at(idx[0] * m).degeneracy(idx[1:], j - 1, i)

        return MSSet(k + 1, cell, face, degeneracy,
                     name=f"B({x.name})@[{m}]")

    def component(f, idx):
        h = gamma.smash(gamma.identity_map(idx[0]), f)
        return x.map_action(h).component(idx[1:])

    return GammaSpace(k + 1, eval_fn, component, name=f"B({x.name})")


def suspension(x: GammaSpace) -> GammaSpace:
    """Level-wise suspension: a new leading circle direction on every value."""

    def component(f, idx):
        return gamma.smash(gamma.identity_map(idx[0]),
                           x.map_action(f).component(idx[1:]))

    return GammaSpace(x.directions + 1, lambda m: suspension_ss(x.at(m)),
                      component, name=f"sigma({x.name})")


def mu_pullback(n: int, x: GammaSpace) -> GammaSpace:
    """Precompose with the inflation [m]+ -> [n]+ ∧ [m]+ = [nm]+."""
    if n < 0:
        raise ValueError("inflation needs n >= 0")

    def component(f, idx):
        return x.map_action(gamma.mu(n, f)).component(idx)

    return GammaSpace(x.directions, lambda m: x.at(n * m), component,
                      name=f"mu({n})*{x.name}")


def wedge_gamma(x: GammaSpace, y: GammaSpace) -> GammaSpace:
    if x.directions != y.directions:
        raise ValueError("wedge needs equal direction counts")

    def component(f, idx):
        return gamma.wedge(x.map_action(f).component(idx),
                           y.map_action(f).component(idx))

    return GammaSpace(x.directions,
                      lambda n: wedge_ss(x.at(n), y.at(n)), component,
                      name=f"wedge({x.name},{y.name})")


def smash_gamma(x: GammaSpace, y: GammaSpace) -> GammaSpace:
    if x.directions != y.directions:
        raise ValueError("smash needs equal direction counts")

    def component(f, idx):
        return gamma.smash(x.map_action(f).component(idx),
                           y.map_action(f).component(idx))

    return GammaSpace(x.directions,
                      lambda n: smash_ss(x.at(n), y.at(n)), component,
                      name=f"smash({x.name},{y.name})")


# ---------------------------------------------------------------------------
# Maps of Gamma-spaces.

class GammaMap:
    """A natural family of level-wise maps between two Gamma-spaces."""

    def __init__(self, source: GammaSpace, target: GammaSpace, component_fn,
                 name="gmap"):
        if source.directions != target.directions:
            raise ValueError("map needs equal direction counts")
        self.source = source
        self.target = target
        self.name = name
        self._component_fn = component_fn
        self._at: dict[int, MSMap] = {}

    def at(self, n: int) -> MSMap:
        got = self._at.get(n)
        if got is None:
            msmap = MSMap(self.source.at(n), self.target.at(n),
                          lambda idx, n=n: self._component_fn(n, idx),
                          name=f"{self.name}@[{n}]")
            got = self._at.setdefault(n, msmap)
        return got

    def verify_natural(self, size_bound: int, level_bound: int):
        """Spot-check naturality against every pointed map between objects
        of size <= size_bound."""
        for a in range(size_bound + 1):
            for b in range(size_bound + 1):
                for f in _all_pointed_maps(a, b):
                    fs, ft = self.source.map_action(f), \
                        self.target.map_action(f)
                    for idx in indices_up_to(self.source.directions,
                                             level_bound):
                        lhs = gamma.compose(self.at(a).component(idx),
                                            ft.component(idx))
                        rhs = gamma.compose(fs.component(idx),
                                            self.at(b).component(idx))
                        if lhs != rhs:
                            raise IntegrityError(
                                f"{self.name} not natural at {f.table}, "
                                f"{idx}")

    def __repr__(self):
        return f"GammaMap({self.name})"


def _all_pointed_maps(a: int, b: int):
    tables = [(0,)]
    for _ in range(a):
        tables = [t + (v,) for t in tables for v in range(b + 1)]
    for t in tables:
        yield PointedMap(FinPointedSet(a), FinPointedSet(b), t)


def counit(x: GammaSpace) -> GammaMap:
    """The assembly map from the free Gamma-space on the underlying object.

    At [n]+ it is the wedge over s = 1..n of the maps induced by the
    inclusions [1]+ -> [n]+ hitting s.
    """
    free = free_gamma_space(underlying_space(x))

    def component(n, idx):
        base = x.at(1).cell(idx)
        source = gamma.smash(base, FinPointedSet(n))
        target = x.at(n).cell(idx)
        if n == 0 or base.size == 0:
            return gamma.constant_map(source, target)
        table = np.zeros(source.points, dtype=gamma.code_type(target.points))
        columns = table[1:].reshape(base.size, n)
        for s in range(1, n + 1):
            columns[:, s - 1] = x.map_action(gamma.standard_inclusion(
                s, n)).component(idx).as_array[1:]
        return PointedMap(source, target, table)

    return GammaMap(free, x, component, name=f"counit({x.name})")


def structure_map(x: GammaSpace) -> GammaMap:
    """The comparison from the suspension to the delooping.

    At [m]+, leading level q, it sends the wedge summand k of the circle
    coordinate into the value at [qm]+ along the inclusion hitting k.
    """
    sus = suspension(x)
    blo = delooping(x)

    def component(m, idx):
        q, rest = idx[0], idx[1:]
        base = x.at(m).cell(rest)
        source = gamma.smash(FinPointedSet(q), base)
        target = x.at(q * m).cell(rest)
        if q == 0 or base.size == 0:
            return gamma.constant_map(source, target)
        table = np.zeros(source.points, dtype=gamma.code_type(target.points))
        rows = table[1:].reshape(q, base.size)
        for k in range(1, q + 1):
            h = gamma.smash(gamma.standard_inclusion(k, q),
                            gamma.identity_map(m))
            rows[k - 1] = x.map_action(h).component(rest).as_array[1:]
        return PointedMap(source, target, table)

    return GammaMap(sus, blo, component, name=f"rho({x.name})")


def underlying_map(g: GammaMap) -> MSMap:
    return g.at(1)


def free_gamma_map(h: MSMap) -> GammaMap:
    """The free Gamma-space construction applied to a map of objects."""

    def component(n, idx):
        return gamma.smash(h.component(idx), gamma.identity_map(n))

    return GammaMap(free_gamma_space(h.source), free_gamma_space(h.target),
                    component, name=f"free({h.name})")


def delooping_map(g: GammaMap, source: GammaSpace,
                  target: GammaSpace) -> GammaMap:
    """The delooping of g, between the given deloopings of its ends."""

    def component(m, idx):
        return g.at(idx[0] * m).component(idx[1:])

    return GammaMap(source, target, component, name=f"B({g.name})")


def suspension_map(g: GammaMap, source: GammaSpace,
                   target: GammaSpace) -> GammaMap:
    """The suspension of g, between the given suspensions of its ends."""

    def component(m, idx):
        return gamma.smash(gamma.identity_map(idx[0]),
                           g.at(m).component(idx[1:]))

    return GammaMap(source, target, component, name=f"sigma({g.name})")


def block_inclusion_maps(n: int, n2: int, x: GammaSpace,
                         ) -> tuple[GammaMap, GammaMap, GammaSpace]:
    """The two natural maps from the inflations by n and n2 into the
    inflation by n + n2, along the wedge block inclusions."""
    target = mu_pullback(n + n2, x)
    inc1, inc2 = gamma.wedge_inclusions(n, n2)

    def comp1(m, idx):
        h = gamma.smash(inc1, gamma.identity_map(m))
        return x.map_action(h).component(idx)

    def comp2(m, idx):
        h = gamma.smash(inc2, gamma.identity_map(m))
        return x.map_action(h).component(idx)

    first = GammaMap(mu_pullback(n, x), target, comp1,
                     name=f"iota({n}|{n2})")
    second = GammaMap(mu_pullback(n2, x), target, comp2,
                      name=f"iota'({n}|{n2})")
    return first, second, target


def wedge_case_gamma(f: GammaMap, g: GammaMap,
                     source: GammaSpace) -> GammaMap:
    """The map out of ``source``, a wedge of the sources of f and g, with
    components f and g."""
    if f.target is not g.target:
        raise ValueError("wedge_case needs a shared target Gamma-space")

    def component(n, idx):
        return gamma.wedge_case(f.at(n).component(idx),
                                g.at(n).component(idx))

    return GammaMap(source, f.target, component,
                    name=f"[{f.name},{g.name}]")


# ---------------------------------------------------------------------------
# Specialness.

@dataclass(frozen=True)
class SpecialVerdict:
    """Outcome of a specialness check, with the scope it certifies."""

    special: bool
    mode: str
    size_bound: int
    level_bound: int
    detail: str = ""

    def __bool__(self) -> bool:
        return self.special

    def describe(self) -> str:
        scope = f"sizes<={self.size_bound}, levels<={self.level_bound}"
        verdict = "special" if self.special else "not special"
        tail = f"; {self.detail}" if self.detail else ""
        return f"{verdict} ({self.mode}, {scope}){tail}"


def is_special(x: GammaSpace, mode: str = "bijection", size_bound: int = 3,
               level_bound: int = 2, ring: Ring = ZZ, depth: int = 2,
               cell_budget: int | None = DEFAULT_CELL_BUDGET,
               ) -> SpecialVerdict:
    """Check the splitting maps X([n+n']) -> X([n]) x X([n']).

    ``bijection`` mode asks for level-wise bijectivity (exact for discrete
    values); ``homology`` mode asks the induced map to be a homology
    isomorphism up to ``depth``.  The verdict only certifies the recorded
    bounds.  Raises BudgetExceeded when a cell of a splitting map has more
    points than ``cell_budget``, before that map is built.
    """
    if mode not in ("bijection", "homology"):
        raise ValueError(f"unknown mode {mode!r}")
    for n in range(1, size_bound):
        for n2 in range(1, size_bound - n + 1):
            total = n + n2
            back1 = x.map_action(gamma.sharp(tuple(range(1, n + 1)), total))
            back2 = x.map_action(
                gamma.sharp(tuple(range(n + 1, total + 1)), total))
            split = pair_msmap(back1, back2)
            if mode == "bijection":
                for idx in indices_up_to(x.directions, level_bound):
                    if not split.component(idx, cell_budget).is_bijection():
                        return SpecialVerdict(
                            False, mode, size_bound, level_bound,
                            detail=f"not bijective at ({n},{n2}), {idx}")
            else:
                chm = chains_of_map(split, ring, depth,
                                    cell_budget=cell_budget)
                for d in range(depth + 1):
                    if not chain_map_induces_iso(chm, d):
                        return SpecialVerdict(
                            False, mode, size_bound, level_bound,
                            detail=f"homology not iso at ({n},{n2}), "
                                   f"degree {d} over {ring.name}")
    return SpecialVerdict(True, mode, size_bound, level_bound)


# ---------------------------------------------------------------------------
# Spectrum levels.

def tower(x: GammaSpace, n: int) -> list[GammaSpace]:
    """The iterated deloopings [x, Bx, ..., B^n x], cached on x."""
    if x._tower is None:
        x._tower = [x]
    cache = x._tower
    while len(cache) <= n:
        cache.append(delooping(cache[-1]))
    return cache


def spectrum_level(x: GammaSpace, n: int) -> MSSet:
    """Level n of the tower: the underlying object of the n-fold
    delooping."""
    if n < 0:
        raise ValueError("spectrum levels are indexed by n >= 0")
    return underlying_space(tower(x, n)[n])


def tower_map(g: GammaMap, n: int) -> MSMap:
    """The level-n map of towers induced by a map of Gamma-spaces."""
    sources = tower(g.source, n)
    targets = tower(g.target, n)
    h = g
    for k in range(1, n + 1):
        h = delooping_map(h, sources[k], targets[k])
    return underlying_map(h)


# ---------------------------------------------------------------------------
# Spec strings.

def parse_space(text: str) -> GammaSpace:
    """Parse the CLI mini-language for Gamma-spaces.

    Atoms: ``point``, ``sphere``, ``t:s0``, ``t:circle``, ``ab:2``,
    ``ab:2,4``.  Modifiers: ``B(...)``, ``sigma(...)``, ``mu(n)*...``,
    ``wedge(...,...)``, ``smash(...,...)``.
    """
    parser = _SpaceParser(text)
    space = parser.expression()
    parser.skip_spaces()
    if parser.pos != len(parser.text):
        parser.fail("trailing input")
    return space


class _SpaceParser:
    def __init__(self, text: str):
        self.text = text.strip()
        self.pos = 0

    def fail(self, message: str):
        raise ValueError(
            f"bad space spec {self.text!r} at position {self.pos}: "
            f"{message}")

    def skip_spaces(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def take(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        self.skip_spaces()
        if not self.take(token):
            self.fail(f"expected {token!r}")

    def integer(self) -> int:
        self.skip_spaces()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.fail("expected an integer")
        return int(self.text[start:self.pos])

    def expression(self) -> GammaSpace:
        self.skip_spaces()
        if self.take("B("):
            inner = self.expression()
            self.expect(")")
            return delooping(inner)
        if self.take("sigma("):
            inner = self.expression()
            self.expect(")")
            return suspension(inner)
        if self.take("mu("):
            n = self.integer()
            self.expect(")")
            self.expect("*")
            return mu_pullback(n, self.expression())
        if self.take("wedge("):
            first = self.expression()
            self.expect(",")
            second = self.expression()
            self.expect(")")
            return wedge_gamma(first, second)
        if self.take("smash("):
            first = self.expression()
            self.expect(",")
            second = self.expression()
            self.expect(")")
            return smash_gamma(first, second)
        if self.take("ab:"):
            orders = [self.integer()]
            while True:
                save = self.pos
                self.skip_spaces()
                if self.take(","):
                    self.skip_spaces()
                    if self.pos < len(self.text) \
                            and self.text[self.pos].isdigit():
                        orders.append(self.integer())
                        continue
                self.pos = save
                break
            return discrete_abelian(orders)
        if self.take("t:s0"):
            return sphere_space()
        if self.take("t:circle"):
            return free_gamma_space(circle())
        if self.take("sphere"):
            return sphere_space()
        if self.take("point"):
            return point_space()
        self.fail("expected a space atom or modifier")
