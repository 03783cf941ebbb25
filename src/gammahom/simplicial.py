"""Multisimplicial pointed sets and their normalized chain multicomplexes.

An ``MSSet`` carries k independent simplicial directions.  Levels are finite
pointed sets addressed by a multi-index (q_1, ..., q_k); faces and
degeneracies are pointed maps between adjacent levels, operators in distinct
directions commute.  Evaluation callbacks must be pure; every level and
structure map is memoized.

Realization is replaced throughout by the total complex of the normalized
chains: level-wise reduced free modules modulo the span of degenerate cells,
with one alternating face sum per direction, each with its Koszul sign,
assembled level by level into column strips of the total boundary.  This
avoids the multiplicative cell blow-up of diagonal simplicial sets while
computing the same homology.  Over every ring the strips of the top
degree are built a chunk of cells at a time and go into the rank in
compact batches that are then dropped, as in the out-of-core elimination
of simplicial boundaries of Dumas, Heckenbach, Saunders and Welker (2003).
In the stable range of a delooping tower no top strip is built: every top
cell of level n has some delooping coordinate 1 and lies in a copy of level
n - 1, so the top is spanned by copies of the columns that span the top of
level n - 1 (``NormalizedChains._spanning_top``).
A chain map takes the top degree of both sides as the homology does,
streamed, and checks every square on the image columns of the source's
boundary.  It can take a side as a tower level's homology left it
(``NormalizedChains.reduced``), so that a comparison of two towers builds
and reduces each level once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import gamma
from .chains import (ChainComplex, CooMatrix, HomologyTable, Multicomplex,
                     Ring, _col_starts, homology, induced_map_is_iso_field,
                     induced_map_is_surjective_integer, join_strips, lowered,
                     place_blocks, stream_top, total_complex, total_degree)
from .errors import BudgetExceeded, IntegrityError
from .gamma import FinPointedSet, PointedMap

MultiIndex = tuple[int, ...]

DEFAULT_CELL_BUDGET = 2_000_000

# A strip is built this many cells at a time, so that the temporaries of
# its face keys stay small next to the batch that holds its entries.
_STRIP_CHUNK = 1 << 15

# The top boundary streams into a field rank in batches of at most this
# many columns, a multi-index split between batches at the end of a chunk
# of its cells.  Each batch seeds its own lead pivots, so smaller batches
# seed fewer: the 4557-row boundary of the largest benchmark level seeds
# 4262 leads in five batches, against 4314 in three batches of whole
# multi-indices, at the same rank time; with batches of about 2^16 columns
# it seeded 4195 and its rank took 0.218 s instead of 0.163 s.  Absorbing
# each multi-index alone cost 20-40 % of the em-fields batch time.
_TOP_BATCH = 1 << 17


def raised(idx: MultiIndex, j: int) -> MultiIndex:
    return idx[:j] + (idx[j] + 1,) + idx[j + 1:]


def _slab(idx: MultiIndex, j: int) -> MultiIndex:
    """idx with a 1 put in at position j."""
    return idx[:j] + (1,) + idx[j:]


def indices_up_to(directions: int, degree: int) -> list[MultiIndex]:
    """All multi-indices with the given number of directions and total
    degree at most ``degree``, ordered by total degree then lexicographically.
    """
    if directions == 0:
        return [()]
    # by_total[t]: the compositions of t into the trailing directions, in
    # lexicographic order; each pass puts one more direction in front.
    by_total = [[(t,)] for t in range(degree + 1)]
    for _ in range(directions - 1):
        by_total = [[(first,) + rest for first in range(t + 1)
                     for rest in by_total[t - first]]
                    for t in range(degree + 1)]
    return [idx for level in by_total for idx in level]


class MSSet:
    """A multisimplicial pointed set, evaluated lazily and memoized.

    ``cell_fn(idx)`` returns the level; ``face_fn(idx, j, i)`` the pointed map
    to ``lowered(idx, j)``; ``degeneracy_fn(idx, j, i)`` the pointed map to
    ``raised(idx, j)``.  All three must be pure.
    """

    def __init__(self, directions, cell_fn, face_fn, degeneracy_fn,
                 name="msset"):
        self.directions = directions
        self.name = name
        self._cell_fn = cell_fn
        self._face_fn = face_fn
        self._degeneracy_fn = degeneracy_fn
        self._cells: dict = {}
        self._ops: dict = {}

    def _check_index(self, idx):
        if len(idx) != self.directions or any(q < 0 for q in idx):
            raise ValueError(f"bad multi-index {idx} for {self.directions} "
                             "directions")

    def cell(self, idx: MultiIndex) -> FinPointedSet:
        idx = tuple(idx)
        got = self._cells.get(idx)
        if got is None:
            self._check_index(idx)
            got = self._cells.setdefault(idx, self._cell_fn(idx))
        return got

    def face(self, idx: MultiIndex, j: int, i: int) -> PointedMap:
        """The i-th face in direction j at level idx."""
        idx = tuple(idx)
        key = (idx, j, i, False)
        got = self._ops.get(key)
        if got is None:
            self._check_index(idx)
            if not 0 <= j < self.directions or idx[j] < 1 \
                    or not 0 <= i <= idx[j]:
                raise ValueError(f"bad face ({j}, {i}) at {idx}")
            f = self._face_fn(idx, j, i)
            if f.source != self.cell(idx) or f.target != self.cell(
                    lowered(idx, j)):
                raise IntegrityError(f"face ({j},{i}) at {idx} has wrong "
                                     "endpoints")
            got = self._ops.setdefault(key, f)
        return got

    def degeneracy(self, idx: MultiIndex, j: int, i: int) -> PointedMap:
        """The i-th degeneracy in direction j at level idx."""
        idx = tuple(idx)
        key = (idx, j, i, True)
        got = self._ops.get(key)
        if got is None:
            self._check_index(idx)
            if not 0 <= j < self.directions or not 0 <= i <= idx[j]:
                raise ValueError(f"bad degeneracy ({j}, {i}) at {idx}")
            s = self._degeneracy_fn(idx, j, i)
            if s.source != self.cell(idx) or s.target != self.cell(
                    raised(idx, j)):
                raise IntegrityError(f"degeneracy ({j},{i}) at {idx} has "
                                     "wrong endpoints")
            got = self._ops.setdefault(key, s)
        return got

    def __repr__(self):
        return f"MSSet({self.name}, k={self.directions})"


# ---------------------------------------------------------------------------
# Basic objects.

def point_object(directions: int = 0) -> MSSet:
    pt = FinPointedSet(0)
    collapse = gamma.constant_map(pt, pt)
    return MSSet(directions, lambda idx: pt, lambda idx, j, i: collapse,
                 lambda idx, j, i: collapse, name="pt")


def constant_object(x: FinPointedSet, directions: int = 0,
                    name: str | None = None) -> MSSet:
    """The constant multisimplicial object on a pointed set.

    Every face and degeneracy is one identity, built on first use, so a
    level whose size alone rules it out never allocates a table.
    """
    ident = cache(lambda: gamma.identity_map(x.size))
    return MSSet(directions, lambda idx: x, lambda idx, j, i: ident(),
                 lambda idx, j, i: ident(),
                 name=name or f"const{x.size}")


def two_point_object() -> MSSet:
    """The zero-sphere: the constant object on a two-point set."""
    return constant_object(FinPointedSet(1), 0, name="s0")


def circle() -> MSSet:
    """The simplicial circle: level q is [q]+."""
    return MSSet(
        1,
        lambda idx: FinPointedSet(idx[0]),
        lambda idx, j, i: gamma.circle_face(idx[0], i),
        lambda idx, j, i: gamma.circle_degeneracy(idx[0], i),
        name="circle")


# ---------------------------------------------------------------------------
# Level-wise constructions.

def _check_same_directions(x: MSSet, y: MSSet):
    if x.directions != y.directions:
        raise ValueError(
            f"direction count mismatch: {x.directions} != {y.directions}")


def smash_ss(x: MSSet, y: MSSet) -> MSSet:
    """Level-wise smash product with diagonal structure maps."""
    _check_same_directions(x, y)
    return MSSet(
        x.directions,
        lambda idx: gamma.smash(x.cell(idx), y.cell(idx)),
        lambda idx, j, i: gamma.smash(x.face(idx, j, i), y.face(idx, j, i)),
        lambda idx, j, i: gamma.smash(x.degeneracy(idx, j, i),
                                      y.degeneracy(idx, j, i)),
        name=f"({x.name}^{y.name})")


def wedge_ss(x: MSSet, y: MSSet) -> MSSet:
    """Level-wise wedge with block-wise structure maps."""
    _check_same_directions(x, y)
    return MSSet(
        x.directions,
        lambda idx: gamma.wedge(x.cell(idx), y.cell(idx)),
        lambda idx, j, i: gamma.wedge(x.face(idx, j, i), y.face(idx, j, i)),
        lambda idx, j, i: gamma.wedge(x.degeneracy(idx, j, i),
                                      y.degeneracy(idx, j, i)),
        name=f"({x.name}v{y.name})")


def product_ss(x: MSSet, y: MSSet) -> MSSet:
    """Level-wise pointed cartesian product."""
    _check_same_directions(x, y)
    return MSSet(
        x.directions,
        lambda idx: gamma.product(x.cell(idx), y.cell(idx)),
        lambda idx, j, i: gamma.product(x.face(idx, j, i), y.face(idx, j, i)),
        lambda idx, j, i: gamma.product(x.degeneracy(idx, j, i),
                                        y.degeneracy(idx, j, i)),
        name=f"({x.name}x{y.name})")


def suspension_ss(x: MSSet) -> MSSet:
    """A new leading simplicial direction carrying the circle.

    The cell at (q, rest) is S(q) ∧ x(rest); leading structure maps act on
    the circle factor, the other directions act as in x.
    """
    def cell(idx):
        return gamma.smash(FinPointedSet(idx[0]), x.cell(idx[1:]))

    def face(idx, j, i):
        if j == 0:
            return gamma.smash(gamma.circle_face(idx[0], i),
                               gamma.identity_map(x.cell(idx[1:]).size))
        return gamma.smash(gamma.identity_map(idx[0]),
                           x.face(idx[1:], j - 1, i))

    def degeneracy(idx, j, i):
        if j == 0:
            return gamma.smash(gamma.circle_degeneracy(idx[0], i),
                               gamma.identity_map(x.cell(idx[1:]).size))
        return gamma.smash(gamma.identity_map(idx[0]),
                           x.degeneracy(idx[1:], j - 1, i))

    return MSSet(x.directions + 1, cell, face, degeneracy,
                 name=f"susp({x.name})")


def diagonal_ss(x: MSSet) -> MSSet:
    """Restriction of a two-direction object along the diagonal."""
    if x.directions != 2:
        raise ValueError("diagonal restriction implemented for k = 2")

    def face(idx, j, i):
        q = idx[0]
        first = x.face((q, q), 0, i)
        second = x.face((q - 1, q), 1, i)
        return gamma.compose(first, second)

    def degeneracy(idx, j, i):
        q = idx[0]
        first = x.degeneracy((q, q), 0, i)
        second = x.degeneracy((q + 1, q), 1, i)
        return gamma.compose(first, second)

    return MSSet(1, lambda idx: x.cell((idx[0], idx[0])), face, degeneracy,
                 name=f"diag({x.name})")


# ---------------------------------------------------------------------------
# Maps of multisimplicial sets.

class MSMap:
    """A level-wise pointed map between multisimplicial sets of equal
    direction count; components are memoized and must commute with all
    structure maps (spot-checkable via :meth:`verify`)."""

    def __init__(self, source: MSSet, target: MSSet, component_fn,
                 name="msmap"):
        _check_same_directions(source, target)
        self.source = source
        self.target = target
        self.name = name
        self._component_fn = component_fn
        self._components: dict = {}

    def component(self, idx: MultiIndex,
                  cell_budget: int | None = None) -> PointedMap:
        """The component at level idx.  Raises BudgetExceeded, before
        building it, when its source or target has more points than
        ``cell_budget``."""
        idx = tuple(idx)
        got = self._components.get(idx)
        if got is None:
            source, target = self.source.cell(idx), self.target.cell(idx)
            points = max(source.points, target.points)
            if cell_budget is not None and points > cell_budget:
                raise BudgetExceeded(idx, points, cell_budget)
            f = self._component_fn(idx)
            if f.source != source or f.target != target:
                raise IntegrityError(
                    f"component at {idx} has wrong endpoints")
            got = self._components.setdefault(idx, f)
        return got

    def verify(self, level_bound: int):
        """Spot-check commutation with faces and degeneracies up to a total
        degree bound; raises IntegrityError on failure."""
        for idx in indices_up_to(self.source.directions, level_bound):
            here = self.component(idx)
            for j in range(self.source.directions):
                for i in range(idx[j] + 1):
                    if idx[j] >= 1:
                        lhs = gamma.compose(here,
                                            self.target.face(idx, j, i))
                        rhs = gamma.compose(self.source.face(idx, j, i),
                                            self.component(lowered(idx, j)))
                        if lhs != rhs:
                            raise IntegrityError(
                                f"{self.name}: face ({j},{i}) at {idx} "
                                "does not commute")
                    if total_degree(idx) < level_bound:
                        lhs = gamma.compose(
                            here, self.target.degeneracy(idx, j, i))
                        rhs = gamma.compose(
                            self.source.degeneracy(idx, j, i),
                            self.component(raised(idx, j)))
                        if lhs != rhs:
                            raise IntegrityError(
                                f"{self.name}: degeneracy ({j},{i}) at "
                                f"{idx} does not commute")

    def __repr__(self):
        return f"MSMap({self.name})"


def identity_msmap(x: MSSet) -> MSMap:
    return MSMap(x, x, lambda idx: gamma.identity_map(x.cell(idx).size),
                 name="id")


def compose_msmap(f: MSMap, g: MSMap) -> MSMap:
    """g after f, level-wise."""
    return MSMap(f.source, g.target,
                 lambda idx: gamma.compose(f.component(idx),
                                           g.component(idx)),
                 name=f"{g.name}.{f.name}")


def collapse_msmap(x: MSSet) -> MSMap:
    tgt = point_object(x.directions)
    return MSMap(x, tgt,
                 lambda idx: gamma.constant_map(x.cell(idx), tgt.cell(idx)),
                 name="collapse")


def smash_msmap(f: MSMap, g: MSMap) -> MSMap:
    return MSMap(smash_ss(f.source, g.source), smash_ss(f.target, g.target),
                 lambda idx: gamma.smash(f.component(idx), g.component(idx)),
                 name=f"({f.name}^{g.name})")


def wedge_case_msmap(f: MSMap, g: MSMap) -> MSMap:
    """The map out of a level-wise wedge given components with one target."""
    if f.target is not g.target:
        raise ValueError("wedge_case needs a shared target object")
    return MSMap(wedge_ss(f.source, g.source), f.target,
                 lambda idx: gamma.wedge_case(f.component(idx),
                                              g.component(idx)),
                 name=f"[{f.name},{g.name}]")


def pair_msmap(f: MSMap, g: MSMap) -> MSMap:
    """The map into a level-wise product given components with one source."""
    if f.source is not g.source:
        raise ValueError("pair needs a shared source object")
    return MSMap(f.source, product_ss(f.target, g.target),
                 lambda idx: gamma.pair(f.component(idx), g.component(idx)),
                 name=f"({f.name},{g.name})")


def wedge_to_product_msmap(x: MSSet, y: MSSet) -> MSMap:
    return MSMap(wedge_ss(x, y), product_ss(x, y),
                 lambda idx: gamma.wedge_to_product(x.cell(idx).size,
                                                    y.cell(idx).size),
                 name="wedge>product")


def product_to_smash_msmap(x: MSSet, y: MSSet) -> MSMap:
    return MSMap(product_ss(x, y), smash_ss(x, y),
                 lambda idx: gamma.product_to_smash(x.cell(idx).size,
                                                    y.cell(idx).size),
                 name="product>smash")


# ---------------------------------------------------------------------------
# Normalized chains.

@dataclass
class LevelBelow:
    """What level n - 1 of a delooping tower leaves for level n to derive
    its top boundary from (``NormalizedChains._spanning_top``): its MSSet,
    degree bound, codes and layout, the echelon basis its top streamed
    into (None if the top was built whole), and n, the count of level n's
    delooping directions, its first ones."""

    x: MSSet
    degree_bound: int
    codes: dict
    layout: Multicomplex
    basis: object
    slabs: int

    @classmethod
    def of(cls, nc: NormalizedChains, cx: ChainComplex,
           slabs: int) -> LevelBelow:
        """The level nc, reduced to cx, below a level of ``slabs``
        delooping directions."""
        return cls(nc.x, nc.degree_bound, nc.codes, nc.multicomplex,
                   cx.top_basis, slabs)


class NormalizedChains:
    """Normalized chain data of an MSSet up to a total-degree bound.

    Materializes levels of total degree <= degree_bound + 1 and removes
    basepoints and degenerate cells.  Within a level the cells come in
    ascending code order; ``multicomplex`` lays out the levels.  Each
    multi-index gets its column strip of the total boundary, all directions
    at once with their Koszul signs.  The strips up to degree_bound are
    kept (``strips``); those of the top degree, the largest, are built when
    asked for.  ``homology`` streams the top degree into the rank a batch
    at a time (``top_batches``), so its boundary is never held whole;
    ``complex`` concatenates them all, for ``dump`` and for tests.

    Only the structure maps that can reach a cell off the basepoint are
    built.  A degeneracy into or out of a level that holds the basepoint
    alone marks no cell degenerate, and a face into a level with no cells
    reaches none; skipping them changes no code and no matrix.
    """

    def __init__(self, x: MSSet, degree_bound: int,
                 cell_budget: int | None = DEFAULT_CELL_BUDGET):
        if degree_bound < 0:
            raise ValueError("degree bound must be >= 0")
        self.x = x
        self.degree_bound = degree_bound
        self.codes: dict[MultiIndex, np.ndarray] = {}

        top = degree_bound + 1
        sizes: dict[MultiIndex, int] = {}
        for idx in indices_up_to(x.directions, top):
            cell = x.cell(idx)
            if cell_budget is not None and cell.points > cell_budget:
                raise BudgetExceeded(idx, cell.points, cell_budget)
            sizes[idx] = cell.size
            alive = np.ones(cell.points, dtype=bool)
            alive[0] = False
            for j in range(x.directions if cell.size else 0):
                if idx[j] < 1:
                    continue
                below = lowered(idx, j)
                # The basepoint goes to the basepoint, which is not alive.
                every = np.arange(sizes[below] + 1, dtype=np.intp)
                for i in range(idx[j] if sizes[below] else 0):
                    alive[x.degeneracy(below, j, i).take(every)] = False
            codes = alive.nonzero()[0]
            # Narrowed as map tables are: below _VECTOR_MIN points numpy's
            # cast of an int32 index array costs more than it saves.
            if cell.points >= gamma._VECTOR_MIN:
                codes = codes.astype(gamma.code_type(cell.points))
            self.codes[idx] = codes

        self.multicomplex = Multicomplex(
            {idx: len(codes) for idx, codes in self.codes.items()})
        # Strips index rows and columns, and sort face keys 2 * row + sign,
        # in int32 when every degree's rank allows it.
        self._index = np.int32 if 2 * max(
            self.multicomplex.degree_ranks.values()) < (1 << 31) - 1 \
            else np.int64
        # strips[idx]: the columns of idx in the boundary of its degree, up
        # to degree_bound; the top degree's are built when asked for.
        self.strips: dict[MultiIndex, tuple] = {
            idx: strip for d in range(1, degree_bound + 1)
            for idx, strip in self._strips_of(d)}

    def _strips_of(self, d):
        """(idx, strip) for each multi-index of total degree d >= 1 that has
        cells, in layout order; a strip is built when asked for."""
        for idx in self.multicomplex.by_degree.get(d, ()):
            if len(self.codes[idx]):
                chunks = list(self._face_chunks(
                    idx, self.codes[idx], self.multicomplex.offsets[idx]))
                yield idx, tuple(np.concatenate(a) for a in zip(*chunks)) \
                    if chunks else (np.empty(0, dtype=np.int64),) * 3

    def _faces(self, idx):
        """The faces of level idx, fetched once for all its strips: (rows,
        k, slots), a slot (lookup, face map, sign bit) for each of the k
        faces that can reach a cell.  lookup[point] is 2 * row for a cell,
        its row in the layout of the degree below, and 2 * rows for the
        basepoint and the degenerate cells.  The sign bit is that of
        (-1)^i times the Koszul sign (-1)^(q_1+..+q_{j-1}) of the face d_i
        in direction j.  None if no face reaches a cell."""
        x, layout = self.x, self.multicomplex
        rows = layout.degree_ranks[total_degree(idx) - 1]
        slots = []
        parity = 0
        for j in range(x.directions):
            if idx[j] and len(self.codes[lowered(idx, j)]):
                below = lowered(idx, j)
                faces = [x.face(idx, j, i) for i in range(idx[j] + 1)]
                tgt_codes = self.codes[below]
                where = np.full(faces[0].target.points, 2 * rows,
                                dtype=self._index)
                where[tgt_codes] = 2 * (layout.offsets[below]
                                        + np.arange(len(tgt_codes)))
                slots.extend((where, face, parity ^ (i & 1))
                             for i, face in enumerate(faces))
            parity ^= idx[j] & 1
        return (rows, len(slots), slots) if slots else None

    def _face_chunks(self, idx, src_codes, first, faces=None):
        """The columns of the cells ``src_codes`` of level idx in the total
        boundary, numbered from column ``first``: the face sums
        sum_i (-1)^i d_i of every direction j, with the Koszul sign.  Yields
        (row, col, val) in canonical order and compact (int8 values, int32
        indices where the layout fits), one chunk of at most _STRIP_CHUNK
        cells at a time; nothing if no face reaches a cell.

        In a chunk, slot (c, t) holds 2 * row + (sign is -1) for the t-th
        face of cell c, and the slots of one cell are sorted along a short
        axis: the faces of one direction that coincide fall next to each
        other and merge into one entry (they cancel or add to +-2), and
        the entries come out in canonical order with no sort of the whole
        strip.  Faces of different directions lie in different levels, so
        they never merge.  A face that is the basepoint or degenerate gets
        a row of ``rows`` or more.
        """
        faces = faces or self._faces(idx)
        if faces is None:
            return
        rows, k, slots = faces
        # An entry sums at most k faces of +-1.
        value = np.int8 if k <= np.iinfo(np.int8).max else np.int64
        for lo in range(0, len(src_codes), _STRIP_CHUNK):
            # Cast once: every face gathers at these codes, and numpy casts
            # an int32 index array to intp on each gather.
            chunk = src_codes[lo:lo + _STRIP_CHUNK].astype(np.intp,
                                                            copy=False)
            # The slots are filled one face at a time, a contiguous line each.
            key = np.empty((k, len(chunk)), dtype=self._index)
            for line, (where, face, sign) in zip(key, slots):
                np.take(where, face.take(chunk), out=line)
                line += sign
            key = key.T.copy()
            key.sort(axis=1)
            key = key.reshape(-1)
            real = key < 2 * rows
            # A slot starts an entry unless it repeats the row of the slot
            # before it in its column; an entry sums the signs of its slots.
            # Repeats are rare on boundaries (under 0.1 % of the entries of
            # the largest strip of the benchmark), so they are added one by
            # one.
            starts = real.copy()
            starts[1:] &= (key[1:] ^ key[:-1]) > 1
            starts[::k] = real[::k]
            head = np.flatnonzero(starts)
            val = (1 - 2 * (key[head] & 1)).astype(value)
            again = np.flatnonzero(real & ~starts)
            np.add.at(val, np.searchsorted(head, again, "right") - 1,
                      (1 - 2 * (key[again] & 1)).astype(value))
            keep = np.flatnonzero(val)
            yield (key[head[keep]] >> 1,
                   (head[keep] // k + (first + lo)).astype(self._index),
                   val[keep])

    def complex(self, ring: Ring) -> ChainComplex:
        """The total complex, top boundary included; for ``dump`` and tests."""
        top = dict(self._strips_of(self.degree_bound + 1))
        return total_complex(self.multicomplex, {**self.strips, **top}, ring,
                             self.degree_bound)

    def lower(self, ring: Ring) -> ChainComplex:
        """The total complex without the top degree's boundary, which
        ``top_batches`` streams."""
        return total_complex(self.multicomplex, self.strips, ring,
                             self.degree_bound)

    def top_batches(self):
        """The boundary of the top degree, degree_bound + 1, as compact
        matrices of its columns in layout order, at most _TOP_BATCH columns
        a batch, each batch's columns numbered from its first.  A batch is
        built when asked for, a chunk of cells at a time; a multi-index is
        split between batches at the ends of its chunks of _STRIP_CHUNK
        cells (or _TOP_BATCH, if fewer), and its faces are fetched once.
        So the chunks of one batch at a time are held."""
        d = self.degree_bound + 1
        layout = self.multicomplex
        rows = layout.degree_ranks.get(d - 1, 0)
        step = min(_STRIP_CHUNK, _TOP_BATCH)
        lo, parts = 0, []  # the first column of the batch being built
        for idx in layout.by_degree.get(d, ()):
            codes = self.codes[idx]
            if not len(codes):
                continue
            faces = self._faces(idx)
            for at in range(0, len(codes), step):
                first = layout.offsets[idx] + at
                if first + min(step, len(codes) - at) - lo > _TOP_BATCH:
                    yield join_strips((rows, first - lo), parts)
                    lo = first
                if faces is not None:
                    parts.extend(self._face_chunks(
                        idx, codes[at:at + step], first - lo, faces))
        if layout.degree_ranks.get(d, 0) > lo:
            yield join_strips((rows, layout.degree_ranks[d] - lo), parts)

    def homology(self, ring: Ring) -> HomologyTable:
        """Homology up to degree_bound."""
        return self.reduced(ring)[1]

    def reduced(self, ring: Ring, below: LevelBelow | None = None,
                ) -> tuple[ChainComplex, HomologyTable]:
        """The complex ``lower`` and its homology up to degree_bound, the top
        boundary's batches streamed into it (``stream_top``).  Given the
        level below in a delooping tower, the top is derived from that
        level's instead where it can be (``_spanning_top``), and no batch
        is built."""
        cx = self.lower(ring)
        spanning = None if below is None else self._spanning_top(below)
        return cx, homology(cx, top=self.top_batches, spanning=spanning)

    def _spanning_top(self, below: LevelBelow) -> CooMatrix | None:
        """Columns that span the top boundary's space (over Z its lattice),
        derived from the level below, or None where the derivation does not
        hold.

        With x level n of a delooping tower, the cells whose delooping
        coordinate q_j is 1, for a j < n, form the slab j: they are the
        cells of level n - 1, with q_j left out, and so are their faces in
        the other directions, while their faces in direction j reach the
        basepoint alone.  Each slab is a copy of level n - 1, one degree
        up: the cell c of level n - 1 at idx goes to its copy at idx with
        1 put in at j, times (-1)^(idx[j] + ... + idx[-1]), which turns the
        Koszul signs of level n - 1 into those of level n, so that the
        boundaries commute.  If every top cell lies in a slab, the top
        boundary's columns are spanned by the copies of the columns that
        span the top of level n - 1 (``ChainComplex.lattice``), one copy
        per slab.  Before that is used, every slab cell of the two top
        degrees is checked to have the codes of its cell below, and every
        face of a top slab cell to reach no cell in direction j and to be
        the very map of level n - 1 in the others."""
        d = self.degree_bound + 1
        x, codes, layout = self.x, self.codes, self.multicomplex
        if below.basis is None or below.degree_bound != d - 2 \
                or not layout.degree_ranks.get(d) \
                or below.x.directions + 1 != x.directions \
                or any(len(codes[idx]) and 1 not in idx[:below.slabs]
                       for idx in layout.by_degree.get(d, ())):
            return None
        rows, tops = (below.layout.by_degree.get(e, []) for e in (d - 2,
                                                                 d - 1))
        for j in range(below.slabs):
            for idx in rows + tops:
                if not np.array_equal(codes[_slab(idx, j)],
                                      below.codes[idx]):
                    return None
            for idx in tops:
                up = _slab(idx, j)
                if not len(codes[up]):
                    continue
                if len(codes[lowered(up, j)]):
                    return None
                for k, q in enumerate(idx):
                    if q and len(below.codes[lowered(idx, k)]) and any(
                            x.face(up, k + (k >= j), i)
                            is not below.x.face(idx, k, i)
                            for i in range(q + 1)):
                        return None
        span = below.basis.columns()
        where = np.empty(span.shape[0], dtype=np.int64)
        sign = np.empty(span.shape[0], dtype=np.int64)
        parts = []
        for j in range(below.slabs):
            for idx in rows:
                lo, rank = below.layout.offsets[idx], below.layout.ranks[idx]
                where[lo:lo + rank] = layout.offsets[_slab(idx, j)] \
                    + np.arange(rank)
                sign[lo:lo + rank] = 1 - 2 * (sum(idx[j:]) & 1)
            parts.append((where[span.row], span.col + j * span.shape[1],
                          sign[span.row] * span.val))
        return CooMatrix((layout.degree_ranks.get(d - 1, 0),
                          below.slabs * span.shape[1]),
                         *map(np.concatenate, zip(*parts)), _canonical=True)


def _index_of(codes, points):
    """An array over the points of a cell: i at the point codes[i], and
    len(codes) at every other point (the basepoint and degenerate cells)."""
    where = np.full(points, len(codes), dtype=np.int64)
    where[codes] = np.arange(len(codes))
    return where


def normalized_chains(x: MSSet, ring: Ring, degree_bound: int,
                      cell_budget: int | None = DEFAULT_CELL_BUDGET,
                      ) -> ChainComplex:
    """Total complex of the normalized chains of x; for ``dump`` and tests."""
    return NormalizedChains(x, degree_bound, cell_budget).complex(ring)


class ChainMap:
    """The matrix blocks induced by an MSMap on normalized chains up to the
    degree bound, and both complexes, each keeping what the isomorphism
    test needs of its streamed top (degree bound + 1)."""

    def __init__(self, source: ChainComplex, target: ChainComplex, blocks):
        self.source, self.target, self.blocks = source, target, blocks
        self.ring, self.degree_bound = source.ring, source.degree_bound

    def block(self, degree: int) -> CooMatrix:
        got = self.blocks.get(degree)
        if got is None:
            raise ValueError(f"the chain map holds no block in degree "
                             f"{degree}, outside its degree bound")
        return got


def _images(f: MSMap, src: NormalizedChains, tgt: NormalizedChains, idx):
    """For each cell of src at idx, the index of its image under f among the
    cells of tgt at idx; the number of those cells where the image is the
    basepoint or degenerate.  None where either side has no cell."""
    src_codes, tgt_codes = src.codes[idx], tgt.codes[idx]
    if not len(src_codes) or not len(tgt_codes):
        return None
    component = f.component(idx)
    return _index_of(tgt_codes, component.target.points)[
        component.take(src_codes)]


def _block(f: MSMap, src: NormalizedChains, tgt: NormalizedChains,
           d: int) -> CooMatrix:
    """The matrix of f in total degree d.  A cell goes to at most one
    cell, so a column holds at most one entry, a 1."""
    src_layout, tgt_layout = src.multicomplex, tgt.multicomplex
    parts = []
    for idx in src_layout.by_degree.get(d, ()):
        pos = _images(f, src, tgt, idx)
        if pos is None:
            continue
        cols = np.flatnonzero(pos < len(tgt.codes[idx]))
        m = CooMatrix((len(tgt.codes[idx]), len(pos)), pos[cols], cols,
                      np.ones(len(cols), dtype=np.int64), _canonical=True)
        parts.append((tgt_layout.offsets[idx], src_layout.offsets[idx], m, 1))
    return place_blocks((tgt_layout.degree_ranks.get(d, 0),
                         src_layout.degree_ranks.get(d, 0)), parts)


def _commuting(f: MSMap, src: NormalizedChains, tgt: NormalizedChains,
               d: int, below: CooMatrix, batches):
    """The source's boundary of degree d, given as matrices of its columns
    in layout order, each checked as it passes to commute with f on its
    columns (``_check_image_columns``); the cells of one multi-index may
    span batches, and their images are found once.  ``below`` is f in
    degree d - 1."""
    layout = src.multicomplex
    row_map = np.full(below.shape[1], -1, dtype=np.int64)
    row_map[below.col] = below.row
    idxs = (idx for idx in layout.by_degree.get(d, ())
            if len(src.codes[idx]))
    # The images of the cells of the current multi-index, and how many of
    # them are checked.
    pos, done = (), 0
    for m in batches:
        starts = _col_starts(m)
        first = 0
        while first < m.shape[1]:
            if done == len(pos):
                idx, done = next(idxs), 0
                pos = _images(f, src, tgt, idx)
                faces = None if pos is None else tgt._faces(idx)
                if pos is None:  # no cell of tgt: every image is zero
                    pos = np.zeros(layout.ranks[idx], dtype=np.int64)
            count = min(len(pos) - done, m.shape[1] - first)
            _check_image_columns(f, tgt, d, idx, m, starts, first,
                                 pos[done:done + count], faces, row_map)
            first += count
            done += count
        yield m


def _check_image_columns(f, tgt, d, idx, m, starts, first, image, faces,
                         row_map):
    """Raise IntegrityError unless the columns of m from ``first`` on, those
    of cells of f's source at idx in the boundary of degree d (their
    entries begin at ``starts``), commute with f.  ``image`` gives each
    cell's image among the cells of tgt at idx, or a number past them where
    the image is the basepoint or degenerate; ``faces`` are tgt's faces at
    idx (``NormalizedChains._faces``).  For a chunk of cells at a time,
    ``row_map`` (f in degree d - 1, -1 where it gives zero) applied to
    their rows must give the target's columns at their image cells, and
    zero where the image is the basepoint or degenerate."""
    rows = tgt.multicomplex.degree_ranks.get(d - 1, 0)
    tgt_codes = tgt.codes[idx]
    for lo in range(0, len(image), _STRIP_CHUNK):
        width = min(_STRIP_CHUNK, len(image) - lo)
        s, e = starts[first + lo], starts[first + lo + width]
        row = row_map[m.row[s:e]]
        keep = row >= 0
        got = CooMatrix((rows, width), row[keep],
                        m.col[s:e][keep] - (first + lo), m.val[s:e][keep])
        want = CooMatrix.zero((rows, width))
        if faces is not None:
            chunk = image[lo:lo + width]
            hit = np.flatnonzero(chunk < len(tgt_codes))
            # At most _STRIP_CHUNK cells: one chunk, if any.
            for r, c, v in tgt._face_chunks(idx, tgt_codes[chunk[hit]], 0,
                                             faces):
                want = CooMatrix((rows, width), r, hit[c], v,
                                 _canonical=True)
        if got != want:
            raise IntegrityError(
                f"{f.name}: induced map does not commute with the "
                f"differential at degree {d}, at {idx}")


def chains_of_map(f: MSMap, ring: Ring, degree_bound: int,
                  cell_budget: int | None = DEFAULT_CELL_BUDGET,
                  reduced=(None, None)) -> ChainMap:
    """Matrix blocks of the induced map between normalized total complexes.

    Cells mapped to degenerate cells contribute zero; commutation with the
    differentials is asserted and failures raise IntegrityError.  The top
    degree, degree_bound + 1, streams as in ``NormalizedChains.homology``,
    a batch of each side at a time, and gets no block.  In every degree
    the source's boundary is checked on its image columns (``_commuting``):
    a held boundary as one batch, the streamed top a batch at a time.

    ``reduced`` may give, for the source and for the target, what
    ``NormalizedChains.reduced`` left of that side at this degree bound:
    (its NormalizedChains, its complex).  That side is then neither built
    nor streamed into a rank again; the source's top batches are built
    for the commuting check alone.
    """
    (src, source_cx), (tgt, target_cx) = [
        given or (nc := NormalizedChains(x, degree_bound, cell_budget),
                  nc.lower(ring))
        for x, given in zip((f.source, f.target), reduced)]
    top = degree_bound + 1
    blocks = {d: _block(f, src, tgt, d) for d in range(top)}

    def checked(d):
        return _commuting(f, src, tgt, d, blocks[d - 1], src.top_batches()
                          if d == top else [source_cx.boundary(d)])

    for d in range(1, top):
        for _ in checked(d):
            pass
    if top not in target_cx._diagonals:
        stream_top(target_cx, tgt.top_batches)
    if top not in source_cx._diagonals:
        stream_top(source_cx, lambda: checked(top))
    else:
        for _ in checked(top):
            pass
    return ChainMap(source_cx, target_cx, blocks)


def chain_map_induces_iso(chm: ChainMap, degree: int) -> bool:
    """Whether a chain map induces an isomorphism on degree-d homology, for
    d up to the map's degree bound.

    Over a field: equal dimensions plus full rank of the induced map.  Over
    the integers: equal groups plus a surjectivity certificate via Smith
    normal form of the induced presentation.  In the top degree both tests
    take what the complexes kept of their streamed top boundaries.
    """
    if not 0 <= degree <= chm.degree_bound:
        raise ValueError(f"degree {degree} is outside the chain map's "
                         f"degree bound {chm.degree_bound}")
    if chm.ring.is_field:
        return induced_map_is_iso_field(chm.source, chm.target, chm.blocks,
                                        degree, chm.ring)
    src_group, tgt_group = (homology(cx, degree).group(degree)
                            for cx in (chm.source, chm.target))
    if src_group != tgt_group:
        return False
    return induced_map_is_surjective_integer(chm.source, chm.target,
                                             chm.blocks, degree)


__all__ = [
    "MSSet", "MSMap", "MultiIndex", "NormalizedChains", "LevelBelow",
    "ChainMap",
    "point_object", "constant_object", "two_point_object", "circle",
    "smash_ss", "wedge_ss", "product_ss", "suspension_ss", "diagonal_ss",
    "identity_msmap", "compose_msmap", "collapse_msmap", "smash_msmap",
    "wedge_case_msmap", "pair_msmap",
    "wedge_to_product_msmap", "product_to_smash_msmap",
    "normalized_chains", "chains_of_map", "chain_map_induces_iso",
    "indices_up_to", "total_degree", "lowered", "raised",
    "DEFAULT_CELL_BUDGET",
]
