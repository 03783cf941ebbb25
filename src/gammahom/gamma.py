"""The category of finite pointed sets and its structural maps.

Objects are the pointed sets ``[n]+ = {o, 1, ..., n}``, stored as the integer
``n`` with elements encoded ``0..n`` and ``0`` the basepoint.  Morphisms are
total basepoint-preserving maps stored as lookup tables.  A table of 1024
entries or more is held as one read-only array and composed, smashed and
wedged with numpy; its tuple view is built only when read.  The array is
int32 (4 bytes a point) while the target has fewer than 2^31 points, as
every cell within the cell budget has, and int64 from there on
(``code_type``).  Each operation computes in a type in which no
intermediate value can wrap, so NumPy's promotion rules (value-based
before NumPy 2) never decide a table.  Shorter tables stay Python tuples,
because for the many small maps of the circle and of small Gamma-objects
the per-call cost of numpy outweighs the loop it replaces.  ``sharp`` runs
an injection backwards as a pointed map, sending the points outside its
image to the basepoint; the specialness check builds its splitting maps
from it.

The smash product uses the mixed-radix pairing ``(i, j) -> (i-1)*m + j`` and
the wedge uses block numbering.  These choices make smash strictly
associative and strictly unital on the nose, which downstream code relies on
when comparing composite constructions cell by cell.

The simplicial circle is modelled on monotone threshold maps to ``[1]`` with
the two constant maps identified to the basepoint, so level ``q`` is ``[q]+``
and the face/degeneracy tables come out of threshold arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# Tables at least this long are stored, built and composed as numpy arrays.
_VECTOR_MIN = 1024


def code_type(points: int) -> type:
    """The integer type that holds the codes 0..points - 1 of a pointed
    set: int32 below 2^31 points, int64 from there on."""
    return np.int32 if points < 1 << 31 else np.int64


@dataclass(frozen=True)
class FinPointedSet:
    """The pointed set [n]+ with elements 0..n and 0 the basepoint."""

    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"pointed set needs size >= 0, got {self.size}")

    @property
    def points(self) -> int:
        """Number of points including the basepoint."""
        return self.size + 1

    def elements(self) -> range:
        """The non-basepoint elements."""
        return range(1, self.size + 1)

    def __repr__(self) -> str:
        return f"[{self.size}]+"


class PointedMap:
    """A basepoint-preserving map of finite pointed sets, as a lookup table.

    ``table`` is a sequence of ints or a one-dimensional integer array,
    copied on construction.  Tables of ``_VECTOR_MIN`` entries or more are
    kept as one read-only array (``as_array``) of the target's
    ``code_type``, checked against the target before it is narrowed, and
    ``table`` builds a tuple from it on each read; shorter tables are kept
    as a tuple and ``as_array`` builds and caches an intp array on first
    use (numpy casts a narrower index array to intp on every gather, which
    on short tables costs more than the narrow type saves).
    """

    __slots__ = ("source", "target", "_table", "_array")

    def __init__(self, source: FinPointedSet, target: FinPointedSet,
                 table: Sequence[int] | np.ndarray):
        self.source = source
        self.target = target
        if isinstance(table, np.ndarray):
            if table.ndim != 1:
                raise ValueError("table must be one-dimensional")
            if table.dtype.kind not in "iu":
                raise ValueError("table must hold integers")
        if len(table) != source.points:
            raise ValueError("table length does not match source size")
        if table[0] != 0:
            raise ValueError("map does not preserve the basepoint")
        if len(table) >= _VECTOR_MIN:
            arr = np.asarray(table)
            if arr.min() < 0 or arr.max() > target.size:
                raise ValueError("table value out of target range")
            arr = arr.astype(code_type(target.points))
            arr.setflags(write=False)
            self._table, self._array = None, arr
        else:
            if isinstance(table, np.ndarray):
                table = table.tolist()
            table = tuple(table)
            if any(v < 0 or v > target.size for v in table):
                raise ValueError("table value out of target range")
            self._table, self._array = table, None

    @property
    def table(self) -> tuple[int, ...]:
        if self._table is None:
            return tuple(self._array.tolist())
        return self._table

    @property
    def as_array(self) -> np.ndarray:
        if self._array is None:
            arr = np.array(self._table, dtype=np.intp)
            arr.setflags(write=False)
            self._array = arr
        return self._array

    def __eq__(self, other) -> bool:
        if other.__class__ is not PointedMap:
            return NotImplemented
        if self._table is None:
            return (self.source == other.source
                    and self.target == other.target
                    and bool(np.array_equal(self._array, other._array)))
        return (self.source, self.target, self._table) == \
            (other.source, other.target, other._table)

    def __hash__(self) -> int:
        table = self._table
        if table is None:
            table = self._array.tobytes()
        return hash((self.source, self.target, table))

    def __call__(self, x: int) -> int:
        return int(self.as_array[x])

    def then(self, g: "PointedMap") -> "PointedMap":
        """The composite g after self."""
        return compose(self, g)

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and bool(
            (self.as_array == np.arange(self.source.points)).all())

    def is_bijection(self) -> bool:
        return self.source == self.target and \
            int(np.bincount(self.as_array).max()) == 1

    def __repr__(self) -> str:
        return f"PointedMap({self.source!r} -> {self.target!r})"


def identity_map(n: int) -> PointedMap:
    s = FinPointedSet(n)
    if n + 1 >= _VECTOR_MIN:
        return PointedMap(s, s, np.arange(n + 1, dtype=code_type(n + 1)))
    return PointedMap(s, s, tuple(range(n + 1)))


def constant_map(source: FinPointedSet, target: FinPointedSet) -> PointedMap:
    """The map collapsing everything to the basepoint."""
    if source.points >= _VECTOR_MIN:
        return PointedMap(source, target, np.zeros(
            source.points, dtype=code_type(target.points)))
    return PointedMap(source, target, (0,) * source.points)


def compose(f: PointedMap, g: PointedMap) -> PointedMap:
    """The composite g∘f (apply f first, then g)."""
    if f.target != g.source:
        raise ValueError(
            f"cannot compose: intermediate {f.target!r} != {g.source!r}")
    if f._table is None or g._table is None:
        return PointedMap(f.source, g.target, g.as_array[f.as_array])
    gt = g._table
    return PointedMap(f.source, g.target, tuple(gt[v] for v in f._table))


def sharp(images: Sequence[int], target_size: int) -> PointedMap:
    """The wrong-way pointed map of an injection.

    ``images`` lists where the injection sends 1..k inside {1..target_size}.
    The result maps ``[target_size]+ -> [k]+``: points in the image go back
    along the injection, everything else goes to the basepoint.
    """
    ims = tuple(images)
    if len(set(ims)) != len(ims):
        raise ValueError("not injective")
    if any(t < 1 or t > target_size for t in ims):
        raise ValueError("image out of range")
    table = [0] * (target_size + 1)
    for s, t in enumerate(ims, start=1):
        table[t] = s
    return PointedMap(FinPointedSet(target_size), FinPointedSet(len(ims)),
                      tuple(table))


# ---------------------------------------------------------------------------
# Smash and wedge.

PointedThing = Union[FinPointedSet, PointedMap]


def _smash_maps(f: PointedMap, g: PointedMap) -> PointedMap:
    n1, m1 = f.source.size, g.source.size
    n2, m2 = f.target.size, g.target.size
    size = n1 * m1
    source = FinPointedSet(size)
    target = FinPointedSet(n2 * m2)
    if size + 1 >= _VECTOR_MIN or f._table is None or g._table is None:
        # (fi - 1) * m2 + gj lies in [-m2, n2 * m2]; it is written in place
        # and zeroed where fi or gj is the basepoint.
        work = code_type(max(target.points, g.target.points))
        fi = f.as_array[1:, None].astype(work)
        gj = g.as_array[None, 1:].astype(work)
        table = np.zeros(size + 1, dtype=work)
        out = table[1:].reshape(n1, m1)
        np.add((fi - 1) * m2, gj, out=out)
        out *= fi != 0
        out *= gj != 0
        return PointedMap(source, target, table)
    table = [0]
    ft, gt = f._table, g._table
    for i in range(1, n1 + 1):
        fi = ft[i]
        for j in range(1, m1 + 1):
            gj = gt[j]
            table.append(0 if fi == 0 or gj == 0 else (fi - 1) * m2 + gj)
    return PointedMap(source, target, tuple(table))


def smash(a: PointedThing, b: PointedThing) -> PointedThing:
    """Smash product: [n]+ ∧ [m]+ = [nm]+ with pairing (i,j) -> (i-1)m + j.

    Works on two objects or on two maps; functorial in both slots, strictly
    associative and strictly unital for this enumeration.
    """
    if isinstance(a, FinPointedSet) and isinstance(b, FinPointedSet):
        return FinPointedSet(a.size * b.size)
    if isinstance(a, PointedMap) and isinstance(b, PointedMap):
        return _smash_maps(a, b)
    raise TypeError("smash takes two objects or two maps")


def wedge(a: PointedThing, b: PointedThing) -> PointedThing:
    """Wedge: [n]+ ∨ [m]+ = [n+m]+, first block then second block."""
    if isinstance(a, FinPointedSet) and isinstance(b, FinPointedSet):
        return FinPointedSet(a.size + b.size)
    if isinstance(a, PointedMap) and isinstance(b, PointedMap):
        n2 = a.target.size
        source = FinPointedSet(a.source.size + b.source.size)
        target = FinPointedSet(n2 + b.target.size)
        if source.points >= _VECTOR_MIN:
            table = np.empty(source.points, dtype=code_type(target.points))
            table[:a.source.points] = a.as_array
            tail = table[a.source.points:]
            tail[:] = b.as_array[1:]
            tail[tail != 0] += n2
            return PointedMap(source, target, table)
        table = list(a._table)
        table.extend(0 if v == 0 else n2 + v for v in b._table[1:])
        return PointedMap(source, target, tuple(table))
    raise TypeError("wedge takes two objects or two maps")


def wedge_inclusions(n: int, m: int) -> tuple[PointedMap, PointedMap]:
    """The canonical block inclusions [n]+ -> [n+m]+ <- [m]+."""
    total = FinPointedSet(n + m)
    first = PointedMap(FinPointedSet(n), total, tuple(range(n + 1)))
    second = PointedMap(FinPointedSet(m), total,
                        (0, *range(n + 1, n + m + 1)))
    return first, second


def wedge_case(f: PointedMap, g: PointedMap) -> PointedMap:
    """The map out of a wedge determined by maps with a common target."""
    if f.target != g.target:
        raise ValueError("wedge_case needs a common target")
    source = FinPointedSet(f.source.size + g.source.size)
    if source.points >= _VECTOR_MIN:
        return PointedMap(source, f.target,
                          np.concatenate((f.as_array, g.as_array[1:])))
    return PointedMap(source, f.target, f._table + g._table[1:])


def mu(n: int, f: PointedMap) -> PointedMap:
    """Smash with the identity of [n]+ on the left."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return smash(identity_map(n), f)


def standard_inclusion(s: int, n: int) -> PointedMap:
    """The inclusion [1]+ -> [n]+ sending 1 to s."""
    if not 1 <= s <= n:
        raise ValueError(f"element {s} out of range 1..{n}")
    return PointedMap(FinPointedSet(1), FinPointedSet(n), (0, s))


# ---------------------------------------------------------------------------
# Pointed products (needed for the special-ness comparison maps).

def product(a: PointedThing, b: PointedThing) -> PointedThing:
    """Cartesian product of pointed sets; pair (x, y) coded x*(m+1) + y."""
    if isinstance(a, FinPointedSet) and isinstance(b, FinPointedSet):
        return FinPointedSet(a.points * b.points - 1)
    if isinstance(a, PointedMap) and isinstance(b, PointedMap):
        ms, mt = b.source.points, b.target.points
        source = FinPointedSet(a.source.points * ms - 1)
        target = FinPointedSet(a.target.points * mt - 1)
        if source.points >= _VECTOR_MIN:
            work = code_type(target.points)
            table = np.empty((a.source.points, ms), dtype=work)
            np.multiply(a.as_array.astype(work)[:, None], mt, out=table)
            table += b.as_array
            return PointedMap(source, target, table.reshape(source.points))
        bt = b._table
        return PointedMap(source, target,
                          tuple(u * mt + v for u in a._table for v in bt))
    raise TypeError("product takes two objects or two maps")


def pair(f: PointedMap, g: PointedMap) -> PointedMap:
    """The map x -> (f(x), g(x)) into the pointed product."""
    if f.source != g.source:
        raise ValueError("pair needs a common source")
    mt = g.target.points
    target = FinPointedSet(f.target.points * mt - 1)
    if f._table is None:
        table = f.as_array.astype(code_type(target.points)) * mt
        table += g.as_array
        return PointedMap(f.source, target, table)
    table = tuple(fx * mt + gx for fx, gx in zip(f._table, g._table))
    return PointedMap(f.source, target, table)


def wedge_to_product(n: int, m: int) -> PointedMap:
    """The canonical inclusion [n]+ ∨ [m]+ -> [n]+ × [m]+."""
    table = [0]
    table.extend(s * (m + 1) for s in range(1, n + 1))
    table.extend(range(1, m + 1))
    return PointedMap(FinPointedSet(n + m),
                      FinPointedSet((n + 1) * (m + 1) - 1), tuple(table))


def product_to_smash(n: int, m: int) -> PointedMap:
    """The collapse [n]+ × [m]+ -> [n]+ ∧ [m]+."""
    size = (n + 1) * (m + 1) - 1
    table = []
    for e in range(size + 1):
        x, y = divmod(e, m + 1)
        table.append(0 if x == 0 or y == 0 else (x - 1) * m + y)
    return PointedMap(FinPointedSet(size), FinPointedSet(n * m), tuple(table))


# ---------------------------------------------------------------------------
# The simplicial circle, as pointed maps between its levels.
#
# Level q is [q]+; the non-basepoint element k in 1..q stands for the
# monotone map [q] -> [1] vanishing exactly below k.  Faces precompose with
# the coface [q-1] -> [q] skipping i, degeneracies with the codegeneracy
# [q+1] -> [q] repeating i; thresholds that become constant are identified
# with the basepoint.

def circle_face(q: int, i: int) -> PointedMap:
    """Face i of the simplicial circle at level q, as a map [q]+ -> [q-1]+."""
    if q < 1:
        raise ValueError("faces need level q >= 1")
    if not 0 <= i <= q:
        raise ValueError(f"face index {i} out of range 0..{q}")
    table = [0]
    for k in range(1, q + 1):
        kk = k - 1 if i < k else k
        table.append(kk if 1 <= kk <= q - 1 else 0)
    return PointedMap(FinPointedSet(q), FinPointedSet(q - 1), tuple(table))


def circle_degeneracy(q: int, i: int) -> PointedMap:
    """Degeneracy i of the simplicial circle at level q: [q]+ -> [q+1]+."""
    if q < 0 or not 0 <= i <= q:
        raise ValueError(f"degeneracy index {i} out of range 0..{q}")
    table = [0]
    for k in range(1, q + 1):
        table.append(k + 1 if i < k else k)
    return PointedMap(FinPointedSet(q), FinPointedSet(q + 1), tuple(table))
