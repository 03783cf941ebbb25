"""Exact linear algebra for chain complexes over Z, Q and F_p.

Boundary matrices are integer sparse matrices in coordinate form.  Homology
is read off from exact ranks: a streamed field elimination over F_p for
primes below 2^31, and a sparse Smith normal form over the integers.
Python integers are arbitrary precision, so integer elimination never
overflows.

A field rank never builds a dense matrix of the long side.  The vectors of
the long side, of length n (the short side), are sorted once and read in
batches, which are reduced against a reduced row-echelon basis of at most
n vectors (a streaming form of the dense GF(2) elimination of Albrecht and
Bard's M4RI work).  Because the basis is reduced, a batch is reduced by
one gather of basis vectors; what survives is eliminated one vector at a
time, and the stream stops once the rank reaches n.  Vectors are stored
only on the positions that are not yet pivots, and a batch holds as many
as fit in the cells of _BATCH full-length ones.  Over F_2 a vector is
packed into uint64 words, over an odd p it is held as int64 residues.  The
basis, at most n^2 entries, is what a rank is refused on.

The Smith form eliminates unit pivots first.  Boundary matrices are almost
all +-1, and eliminating a +-1 pivot leaves the invariant factors unchanged
apart from a 1 (Dumas, Heckenbach, Saunders, Welker 2003; Kaczynski,
Mrozek, Slusarek 1998).  Each unit pivot is found from the shorter side:
the shortest active line holding a +-1, and in it the +-1 whose crossing
line is shortest, so a choice costs a pass over the lines rather than over
every entry.  A unit divides every entry, so no divisibility repair is
needed after it.  When no unit is left, a Markowitz-style choice over all
remaining entries and gcd steps finish the form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError, LimitExceeded

SCHEMA_VERSION = 1

# Prime fields need p < MAX_PRIME: field elimination multiplies residues in
# int64, and residues below 2^31 have products below 2^62.
MAX_PRIME = 1 << 31


# ---------------------------------------------------------------------------
# Coefficient rings.

@dataclass(frozen=True)
class Ring:
    """Coefficient ring descriptor: the integers, rationals or a prime field."""

    kind: str  # "Z" | "Q" | "F"
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "F"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "F":
            if self.p is not None and self.p >= MAX_PRIME:
                raise ValueError(f"prime field modulus must be below 2^31, "
                                 f"got {self.p}")
            if self.p is None or self.p < 2 or not _is_prime(self.p):
                raise ValueError(f"prime field needs a prime, got {self.p}")
        elif self.p is not None:
            raise ValueError("only prime fields carry a modulus")

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    @property
    def name(self) -> str:
        return f"F{self.p}" if self.kind == "F" else self.kind

    def __repr__(self) -> str:
        return self.name


ZZ = Ring("Z")
QQ = Ring("Q")


def GF(p: int) -> Ring:
    return Ring("F", p)


def parse_ring(text: str) -> Ring:
    """Parse CLI ring tags: z, q, f2, f3, f5, f<p>."""
    t = text.strip().lower()
    if t == "z":
        return ZZ
    if t == "q":
        return QQ
    if t.startswith("f") and t[1:].isdigit():
        return GF(int(t[1:]))
    raise ValueError(f"unknown ring {text!r} (expected z, q or f<p>)")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Sparse integer matrices in coordinate form.

class CooMatrix:
    """An immutable integer sparse matrix: sorted, deduplicated triplets."""

    __slots__ = ("shape", "row", "col", "val")

    def __init__(self, shape, row, col, val, _canonical=False):
        self.shape = (int(shape[0]), int(shape[1]))
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        val = np.asarray(val, dtype=np.int64)
        if not _canonical:
            row, col, val = _canonicalize(self.shape, row, col, val)
        for a in (row, col, val):
            a.setflags(write=False)
        self.row, self.col, self.val = row, col, val

    @classmethod
    def zero(cls, shape) -> "CooMatrix":
        empty = np.empty(0, dtype=np.int64)
        return cls(shape, empty, empty, empty, _canonical=True)

    @classmethod
    def identity(cls, n: int) -> "CooMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls((n, n), idx, idx, np.ones(n, dtype=np.int64),
                   _canonical=True)

    @classmethod
    def from_entries(cls, shape, entries: dict) -> "CooMatrix":
        if not entries:
            return cls.zero(shape)
        rows = np.fromiter((rc[0] for rc in entries), dtype=np.int64,
                           count=len(entries))
        cols = np.fromiter((rc[1] for rc in entries), dtype=np.int64,
                           count=len(entries))
        vals = np.fromiter(entries.values(), dtype=np.int64,
                           count=len(entries))
        return cls(shape, rows, cols, vals)

    @property
    def nnz(self) -> int:
        return len(self.val)

    def entries(self):
        for r, c, v in zip(self.row.tolist(), self.col.tolist(),
                           self.val.tolist()):
            yield r, c, v

    def transpose(self) -> "CooMatrix":
        return CooMatrix((self.shape[1], self.shape[0]), self.col, self.row,
                         self.val)

    def to_dense(self) -> list[list[int]]:
        rows, cols = self.shape
        dense = [[0] * cols for _ in range(rows)]
        for r, c, v in self.entries():
            dense[r][c] = v
        return dense

    def to_scipy(self):
        from scipy.sparse import csr_matrix
        return csr_matrix((self.val, (self.row, self.col)), shape=self.shape)

    def permuted(self, row_perm=None, col_perm=None) -> "CooMatrix":
        """Relabel rows/columns; perm[i] is the new index of old index i."""
        row = self.row if row_perm is None else \
            np.asarray(row_perm, dtype=np.int64)[self.row]
        col = self.col if col_perm is None else \
            np.asarray(col_perm, dtype=np.int64)[self.col]
        return CooMatrix(self.shape, row, col, self.val)

    def __eq__(self, other):
        return (isinstance(other, CooMatrix) and self.shape == other.shape
                and np.array_equal(self.row, other.row)
                and np.array_equal(self.col, other.col)
                and np.array_equal(self.val, other.val))

    def __repr__(self):
        return f"CooMatrix({self.shape[0]}x{self.shape[1]}, nnz={self.nnz})"

    def to_json(self) -> dict:
        return {"rows": self.shape[0], "cols": self.shape[1],
                "entries": [[r, c, v] for r, c, v in self.entries()]}

    @classmethod
    def from_json(cls, data: dict) -> "CooMatrix":
        shape = (data["rows"], data["cols"])
        ent = data.get("entries", [])
        if not ent:
            return cls.zero(shape)
        arr = np.asarray(ent, dtype=np.int64)
        return cls(shape, arr[:, 0], arr[:, 1], arr[:, 2])


def _run_starts(keys):
    """The index where each run of equal keys begins."""
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def _canonicalize(shape, row, col, val):
    if len(val) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    if row.min() < 0 or row.max() >= shape[0] or col.min() < 0 \
            or col.max() >= shape[1]:
        raise ValueError("matrix entry out of shape bounds")
    key = row * shape[1] + col
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order]
    start = _run_starts(key)
    sums = np.add.reduceat(val, start)
    keep = sums != 0
    uniq, sums = key[start[keep]], sums[keep]
    return uniq // shape[1], uniq % shape[1], sums


def is_zero_product(a: CooMatrix, b: CooMatrix) -> bool:
    """Whether the integer product a*b vanishes (entries stay small here)."""
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch in product")
    if a.nnz == 0 or b.nnz == 0:
        return True
    prod = a.to_scipy() @ b.to_scipy()
    return prod.count_nonzero() == 0


def coo_mul(a: CooMatrix, b: CooMatrix) -> CooMatrix:
    """Integer sparse product (entries are expected to stay small)."""
    if a.nnz == 0 or b.nnz == 0:
        return CooMatrix.zero((a.shape[0], b.shape[1]))
    prod = (a.to_scipy() @ b.to_scipy()).tocoo()
    return CooMatrix((a.shape[0], b.shape[1]), prod.row, prod.col, prod.data)


# ---------------------------------------------------------------------------
# Ranks.

def matrix_rank(m: CooMatrix, ring: Ring) -> int:
    """Exact rank of an integer matrix over the given ring."""
    if m.nnz == 0:
        return 0
    if ring.kind == "F":
        return _field_rank(m, ring.p)
    return _rank_integer(m)


# A batch of long-side vectors takes the cells of this many full-length
# vectors.
_BATCH = 512

# A field rank is refused when a full basis on the short side, n vectors of
# length n, would take more bytes than this.
_BASIS_LIMIT = 1 << 29


class _PackedBits:
    """Vectors over F_2: bit i of a vector is bit i & 63 of word i >> 6."""

    @staticmethod
    def width(size):
        return (size + 63) >> 6

    @staticmethod
    def zeros(count, size):
        return np.zeros((count, (size + 63) >> 6), dtype=np.uint64)

    @staticmethod
    def scatter(out, owner, idx, val):
        """Set entry idx of vector owner; the pairs are sorted and distinct."""
        key = owner * out.shape[1] + (idx >> 6)
        bits = np.left_shift(np.uint64(1), (idx & 63).astype(np.uint64))
        starts = _run_starts(key)
        out.reshape(-1)[key[starts]] = np.bitwise_or.reduceat(bits, starts)

    @staticmethod
    def subtract(vecs, targets, rows, coef, starts):
        """Subtract from vecs[targets[i]] the sum of coef * rows over the
        i-th segment of rows, the segments beginning at starts."""
        vecs[targets] ^= np.bitwise_xor.reduceat(rows, starts, axis=0)

    @staticmethod
    def lead(v):
        """The first nonzero position of v and v scaled to 1 there."""
        word = int(np.flatnonzero(v)[0])
        bits = int(v[word])
        return word * 64 + (bits & -bits).bit_length() - 1, v

    @staticmethod
    def clear(vecs, v, s):
        """Subtract v from every vector holding position s."""
        hit = np.flatnonzero(vecs[:, s >> 6] & np.uint64(1 << (s & 63)))
        vecs[hit] ^= v

    @staticmethod
    def unset(v, s):
        """Zero position s of v, which holds a 1 there."""
        v[s >> 6] ^= np.uint64(1 << (s & 63))

    @staticmethod
    def take(vecs, keep):
        """The vectors restricted to the positions listed in keep; they are
        unpacked to one byte per bit _BATCH vectors at a time."""
        out = np.zeros((len(vecs), 8 * ((len(keep) + 63) >> 6)),
                       dtype=np.uint8)
        for lo in range(0, len(vecs), _BATCH):
            raw = vecs[lo:lo + _BATCH].astype("<u8", copy=False)
            bits = np.unpackbits(raw.view(np.uint8), axis=1,
                                 bitorder="little")[:, keep]
            packed = np.packbits(bits, axis=1, bitorder="little")
            out[lo:lo + _BATCH, :packed.shape[1]] = packed
        return out.view("<u8").astype(np.uint64, copy=False)


class _Residues:
    """Vectors over F_p, p odd, as int64 residues (products stay below 2^62
    because p < 2^31)."""

    def __init__(self, p):
        self.p = p

    @staticmethod
    def width(size):
        return size

    @staticmethod
    def zeros(count, size):
        return np.zeros((count, size), dtype=np.int64)

    @staticmethod
    def scatter(out, owner, idx, val):
        out[owner, idx] = val

    def mod(self, x):
        """x mod p in place (a floor division by a scalar is the fast
        kernel, a remainder is not)."""
        x -= x // self.p * self.p
        return x

    def subtract(self, vecs, targets, rows, coef, starts):
        # A product is below p^2 < 2^62; reduce the products first unless
        # the whole sum of them stays below 2^63.
        terms = rows * coef[:, None]
        if len(coef) * (self.p - 1) ** 2 >= 1 << 63:
            self.mod(terms)
        vecs[targets] = self.mod(
            vecs[targets] - np.add.reduceat(terms, starts, axis=0))

    def lead(self, v):
        s = int(np.flatnonzero(v)[0])
        return s, self.mod(v * pow(int(v[s]), self.p - 2, self.p))

    def clear(self, vecs, v, s):
        hit = np.flatnonzero(vecs[:, s])
        vecs[hit] = self.mod(vecs[hit] - vecs[hit, s, None] * v)

    @staticmethod
    def unset(v, s):
        v[s] = 0

    @staticmethod
    def take(vecs, keep):
        return vecs[:, keep]


class _EchelonBasis:
    """A reduced row-echelon basis of vectors of length n over a field.

    Every basis vector is 1 at its own pivot and 0 at every other pivot, so
    a vector is reduced by one gather: subtract, for each of its entries at
    a pivot, that entry times the pivot's basis vector.  Vectors are stored
    only on the slots of ``cols``, a superset of the positions that are not
    pivots, and the storage is narrowed whenever their count halves.  A
    basis vector is stored without the 1 at its own pivot, so an entry of a
    new vector either fills a slot or is reduced by the gather, never both.
    """

    def __init__(self, n, field):
        self.n, self.field = n, field
        self.rank = 0
        # code[i] is the slot of position i if it is not a pivot, and
        # -1 - r if it is the pivot of basis vector r.
        self.code = np.arange(n, dtype=np.int64)
        self.cols = self.code.copy()
        self.rows = field.zeros(0, n)

    def batch(self):
        """How many vectors fit, as stored now, in the cells of _BATCH
        vectors of full length."""
        width = self.field.width
        return _BATCH * width(self.n) // width(len(self.cols))

    def absorb(self, owner, pos, val, count):
        """Add ``count`` vectors to the span, given as entries (vector below
        count, position, value) sorted by vector and position."""
        field = self.field
        code = self.code[pos]
        live = val != 0
        free = live & (code >= 0)
        vecs = field.zeros(count, len(self.cols))
        field.scatter(vecs, owner[free], code[free], val[free])
        # A gather holds at most _BATCH * n cells, no more than a batch of
        # unpacked vectors of length n.
        step = _BATCH * self.n // field.width(len(self.cols))
        at_pivot = np.flatnonzero(live & (code < 0))
        for lo in range(0, len(at_pivot), step):
            part = at_pivot[lo:lo + step]
            whose = owner[part]
            starts = _run_starts(whose)
            field.subtract(vecs, whose[starts],
                           np.take(self.rows, -1 - code[part], axis=0),
                           val[part], starts)
        vecs = vecs[vecs.any(axis=1)]
        while len(vecs) and self.rank < self.n:
            rest = vecs[1:]
            self._add(*field.lead(vecs[0]), rest)
            vecs = rest[rest.any(axis=1)]
        if self.rank < self.n and 2 * (self.n - self.rank) <= len(self.cols):
            keep = np.flatnonzero(self.code[self.cols] >= 0)
            self.rows = field.take(self.rows[:self.rank], keep)
            self.cols = self.cols[keep]
            self.code[self.cols] = np.arange(len(keep), dtype=np.int64)

    def _add(self, s, v, pending):
        """Make v, reduced and 1 at its slot s, a basis vector."""
        field = self.field
        field.clear(pending, v, s)
        field.clear(self.rows[:self.rank], v, s)
        if self.rank == len(self.rows):
            grown = field.zeros(min(self.n, max(2 * self.rank, 64)),
                                len(self.cols))
            grown[:self.rank] = self.rows[:self.rank]
            self.rows = grown
        self.rows[self.rank] = v
        field.unset(self.rows[self.rank], s)
        self.code[self.cols[s]] = -1 - self.rank
        self.rank += 1


def _sorted_entries(vec, pos, val, n, p):
    """The entries (vector, position, value mod p) sorted by vector, then
    position: one sort of the keys (vec * n + pos) * p + val mod p, unpacked
    in place so that no more than three arrays of entries are held."""
    key = vec * n + pos
    key *= p
    key += val % p
    key.sort()
    val = key % p
    key //= p
    pos = key % n
    key //= n
    return key, pos, val


def _field_rank(m: CooMatrix, p: int) -> int:
    """Rank over F_p: the vectors of the long side stream, in batches, into
    a reduced echelon basis on the short side, so no dense matrix of the
    long side is built and the work stops once the rank reaches n."""
    if m.shape[0] <= m.shape[1]:
        n, pos, vec = m.shape[0], m.row, m.col
    else:
        n, pos, vec = m.shape[1], m.col, m.row
    field = _PackedBits() if p == 2 else _Residues(p)
    if n * field.width(n) * 8 > _BASIS_LIMIT:
        raise LimitExceeded(
            f"matrix {m.shape[0]}x{m.shape[1]} too large for a mod-{p} "
            f"rank: its basis on the short side needs {n}^2 entries")
    if max(m.shape) * n * p > 1 << 63:
        raise LimitExceeded(
            f"matrix {m.shape[0]}x{m.shape[1]} too large for a mod-{p} "
            f"rank: its entries do not pack into 63 bits")
    vec, pos, val = _sorted_entries(vec, pos, m.val, n, p)
    basis = _EchelonBasis(n, field)
    lo = 0
    while lo < len(vec) and basis.rank < n:
        count = basis.batch()
        hi = int(np.searchsorted(vec, vec[lo] + count))
        basis.absorb(vec[lo:hi] - vec[lo], pos[lo:hi], val[lo:hi], count)
        lo = hi
    return basis.rank


def _rank_integer(m: CooMatrix) -> int:
    return len(_snf_core(m, transforms=False, need_chain=False).diagonal)


# ---------------------------------------------------------------------------
# Smith normal form.

@dataclass(frozen=True)
class SmithResult:
    """Diagonal of a Smith normal form, optionally with the transforms.

    ``diagonal`` lists the positive invariant factors in divisibility order;
    when requested, ``left`` and ``right`` are dense unimodular matrices with
    ``left * M * right`` diagonal.
    """

    shape: tuple[int, int]
    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...] | None = None
    right: tuple[tuple[int, ...], ...] | None = None

    @property
    def rank(self) -> int:
        return len(self.diagonal)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def _axpy(vectors, src, dst, t):
    """vectors[dst] += t * vectors[src] on sparse dict vectors."""
    vdst = vectors.setdefault(dst, {})
    for k, w in vectors.get(src, {}).items():
        nv = vdst.get(k, 0) + t * w
        if nv:
            vdst[k] = nv
        elif k in vdst:
            del vdst[k]


class _SparseElim:
    """Shared engine for integer rank and Smith normal form.

    Works on a dict-of-dicts representation with Python integers, so entry
    growth escalates to arbitrary precision automatically.
    """

    def __init__(self, m: CooMatrix, transforms: bool):
        self.nrows, self.ncols = m.shape
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}
        for r, c, v in m.entries():
            self.rows.setdefault(r, {})[c] = v
            self.cols.setdefault(c, set()).add(r)
        self.transforms = transforms
        if transforms:
            self.left = {r: {r: 1} for r in range(self.nrows)}
            self.right = {c: {c: 1} for c in range(self.ncols)}

    def entry(self, r, c):
        return self.rows.get(r, {}).get(c, 0)

    def _set(self, r, c, v):
        row = self.rows.setdefault(r, {})
        if v:
            row[c] = v
            self.cols.setdefault(c, set()).add(r)
        else:
            if c in row:
                del row[c]
                self.cols[c].discard(r)

    def row_axpy(self, src, dst, t):
        """row dst += t * row src."""
        if t == 0:
            return
        for c, v in list(self.rows.get(src, {}).items()):
            self._set(dst, c, self.entry(dst, c) + t * v)
        if self.transforms:
            _axpy(self.left, src, dst, t)

    def col_axpy(self, src, dst, t):
        """col dst += t * col src."""
        if t == 0:
            return
        for r in list(self.cols.get(src, set())):
            self._set(r, dst, self.entry(r, dst) + t * self.entry(r, src))
        if self.transforms:
            _axpy(self.right, src, dst, t)

    def clear_unit_row(self, r, c):
        """Clear row r with column operations when its pivot (r, c) is +-1
        and alone in column c: each operation only zeroes one entry."""
        a = self.rows[r][c]
        for c2, b in list(self.rows[r].items()):
            if c2 != c:
                del self.rows[r][c2]
                self.cols[c2].discard(r)
                if self.transforms:
                    _axpy(self.right, c, c2, -b * a)

    def row_combine(self, r1, r2, c):
        """Unimodular 2x2 row operation making entry (r1, c) = gcd."""
        a, b = self.entry(r1, c), self.entry(r2, c)
        g, x, y = _xgcd(a, b)
        p, q = -(b // g), a // g
        cols = set(self.rows.get(r1, {})) | set(self.rows.get(r2, {}))
        for cc in cols:
            v1, v2 = self.entry(r1, cc), self.entry(r2, cc)
            self._set(r1, cc, x * v1 + y * v2)
            self._set(r2, cc, p * v1 + q * v2)
        if self.transforms:
            u = self.left
            keys = set(u.get(r1, {})) | set(u.get(r2, {}))
            u1, u2 = u.setdefault(r1, {}), u.setdefault(r2, {})
            for k in keys:
                v1, v2 = u1.get(k, 0), u2.get(k, 0)
                for d, nv in ((u1, x * v1 + y * v2), (u2, p * v1 + q * v2)):
                    if nv:
                        d[k] = nv
                    elif k in d:
                        del d[k]

    def col_combine(self, c1, c2, r):
        """Unimodular 2x2 column operation making entry (r, c1) = gcd."""
        a, b = self.entry(r, c1), self.entry(r, c2)
        g, x, y = _xgcd(a, b)
        p, q = -(b // g), a // g
        rows = set(self.cols.get(c1, set())) | set(self.cols.get(c2, set()))
        for rr in rows:
            v1, v2 = self.entry(rr, c1), self.entry(rr, c2)
            self._set(rr, c1, x * v1 + y * v2)
            self._set(rr, c2, p * v1 + q * v2)
        if self.transforms:
            v = self.right
            keys = set(v.get(c1, {})) | set(v.get(c2, {}))
            v1d, v2d = v.setdefault(c1, {}), v.setdefault(c2, {})
            for k in keys:
                w1, w2 = v1d.get(k, 0), v2d.get(k, 0)
                for d, nv in ((v1d, x * w1 + y * w2), (v2d, p * w1 + q * w2)):
                    if nv:
                        d[k] = nv
                    elif k in d:
                        del d[k]

    def scale_row(self, r, s):
        for c in list(self.rows.get(r, {})):
            self.rows[r][c] *= s
        if self.transforms:
            for k in self.left.get(r, {}):
                self.left[r][k] *= s


def _unit_pivot(elim: _SparseElim, active_rows, active_cols):
    """A +-1 entry of the active part, or None if there is none.

    Lines are taken from the shorter side: the shortest active line that
    holds a unit, and within it the unit whose crossing line is shortest
    (ties to the lowest index).  The active lines are ranked by length and
    read shortest first until one holds a unit, so a choice does not scan
    every entry.
    """
    rows, cols = elim.rows, elim.cols
    if len(active_rows) <= len(active_cols):
        for r in sorted(active_rows, key=lambda r: (len(rows[r]), r)):
            units = [c for c, v in rows[r].items() if v in (1, -1)]
            if units:
                return r, min(units, key=lambda c: (len(cols[c]), c))
    else:
        for c in sorted(active_cols, key=lambda c: (len(cols[c]), c)):
            units = [r for r in cols[c] if rows[r][c] in (1, -1)]
            if units:
                return min(units, key=lambda r: (len(rows[r]), r)), c
    return None


def _choose_pivot(elim: _SparseElim, active_rows, active_cols):
    """The active entry of least (not a unit, Markowitz fill, size, row,
    column), or None if the active part is zero."""
    best = None
    best_key = None
    for r in active_rows:
        row = elim.rows.get(r)
        if not row:
            continue
        rlen = len(row)
        for c, v in row.items():
            if c not in active_cols:
                continue
            v = abs(v)
            key = (v != 1, (rlen - 1) * (len(elim.cols[c]) - 1), v, r, c)
            if best_key is None or key < best_key:
                best_key, best = key, (r, c)
    return best


def _pivot_spots(elim: _SparseElim, active_rows, active_cols):
    """Unit pivots while any are left, then the general choice on what
    remains; the caller eliminates each spot before asking for the next."""
    for choose in (_unit_pivot, _choose_pivot):
        while (spot := choose(elim, active_rows, active_cols)) is not None:
            yield spot


def _snf_core(m: CooMatrix, transforms: bool, need_chain: bool) -> SmithResult:
    elim = _SparseElim(m, transforms)
    active_rows = set(elim.rows)
    active_cols = set(elim.cols)
    pivots: list[tuple[int, int]] = []

    for r, c in _pivot_spots(elim, active_rows, active_cols):
        while True:
            # Clear the pivot column with row operations.
            changed = True
            while changed:
                changed = False
                for r2 in sorted(elim.cols.get(c, set())):
                    if r2 == r or r2 not in active_rows:
                        continue
                    a = elim.entry(r, c)
                    b = elim.entry(r2, c)
                    if b == 0:
                        continue
                    if b % a == 0:
                        elim.row_axpy(r, r2, -(b // a))
                    else:
                        elim.row_combine(r, r2, c)
                    changed = True
            # Clear the pivot row with column operations; these can
            # reintroduce column entries, hence the outer loop.
            if elim.entry(r, c) in (1, -1) and len(elim.cols[c]) == 1:
                elim.clear_unit_row(r, c)
                break
            row_entries = [c2 for c2 in sorted(elim.rows.get(r, {}))
                           if c2 != c]
            for c2 in row_entries:
                a = elim.entry(r, c)
                b = elim.entry(r, c2)
                if b == 0:
                    continue
                if b % a == 0:
                    elim.col_axpy(c, c2, -(b // a))
                else:
                    elim.col_combine(c, c2, r)
            col_dirty = any(r2 != r and r2 in active_rows
                            for r2 in elim.cols.get(c, set()))
            row_dirty = any(c2 != c for c2 in elim.rows.get(r, {}))
            if col_dirty or row_dirty:
                continue
            a = elim.entry(r, c)
            if need_chain and a not in (1, -1):
                # A unit divides every entry: no bump can be found.
                bump = None
                for r2 in sorted(active_rows):
                    if r2 == r:
                        continue
                    for c2, v in sorted(elim.rows.get(r2, {}).items()):
                        if c2 in active_cols and v % a != 0:
                            bump = r2
                            break
                    if bump is not None:
                        break
                if bump is not None:
                    elim.row_axpy(bump, r, 1)
                    continue
            break
        pivots.append((r, c))
        active_rows.discard(r)
        active_cols.discard(c)

    diagonal = []
    for r, c in pivots:
        v = elim.entry(r, c)
        if v < 0:
            elim.scale_row(r, -1)
            v = -v
        diagonal.append(v)

    left = right = None
    if transforms:
        row_order = [r for r, _ in pivots] + sorted(
            set(range(elim.nrows)) - {r for r, _ in pivots})
        col_order = [c for _, c in pivots] + sorted(
            set(range(elim.ncols)) - {c for _, c in pivots})
        left = tuple(
            tuple(elim.left.get(row_order[i], {}).get(j, 0)
                  for j in range(elim.nrows))
            for i in range(elim.nrows))
        # right is stored column-wise: right[c] is column c of V.
        right = tuple(
            tuple(elim.right.get(col_order[j], {}).get(i, 0)
                  for j in range(elim.ncols))
            for i in range(elim.ncols))
    return SmithResult(m.shape, tuple(diagonal), left, right)


def smith_normal_form(m: CooMatrix, transforms: bool = False) -> SmithResult:
    """Smith normal form of an integer matrix.

    Returns the invariant factors (positive, each dividing the next) and,
    when ``transforms`` is set, unimodular ``left``/``right`` with
    ``left * M * right`` equal to the diagonal padded with zeros.
    """
    return _snf_core(m, transforms=transforms, need_chain=True)


def integer_kernel_basis(m: CooMatrix) -> list[list[int]]:
    """A basis of the integer kernel, as a list of length-ncols vectors.

    The kernel of an integer matrix is saturated, so this basis extends to a
    basis of the ambient lattice.
    """
    if m.nnz == 0:
        return [[1 if i == j else 0 for i in range(m.shape[1])]
                for j in range(m.shape[1])]
    res = _snf_core(m, transforms=True, need_chain=False)
    rank = res.rank
    ncols = m.shape[1]
    # Columns rank..ncols-1 of the right transform span the kernel.
    return [[res.right[i][j] for i in range(ncols)]
            for j in range(rank, ncols)]


# ---------------------------------------------------------------------------
# Dense exact helpers for induced maps on homology (small matrices only).

def _dense_int(m: CooMatrix) -> list[list[int]]:
    return m.to_dense()


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    nk = len(b)
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for k in range(nk):
            v = row[k]
            if v:
                brow = b[k]
                for j, w in enumerate(brow):
                    if w:
                        acc[j] += v * w
        out.append(acc)
    return out


def _columns_matrix(vectors: list[list[int]]) -> list[list[int]]:
    if not vectors:
        return []
    n = len(vectors[0])
    return [[vec[i] for vec in vectors] for i in range(n)]


def _dense_to_coo(rows: list[list[int]]) -> CooMatrix:
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    entries = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = v
    return CooMatrix.from_entries((nrows, ncols), entries)


def _rref_mod_p(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    a = a % p
    nrows, ncols = a.shape
    pivots = []
    rank = 0
    for colno in range(ncols):
        if rank == nrows:
            break
        nz = np.nonzero(a[rank:, colno])[0]
        if nz.size == 0:
            continue
        pivot = rank + int(nz[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, colno]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        others = np.nonzero(a[:, colno])[0]
        others = others[others != rank]
        if others.size:
            a[others] = (a[others] - a[others, colno][:, None] * a[rank]) % p
        pivots.append(colno)
        rank += 1
    return a, pivots


def nullspace_mod_p(m: CooMatrix, p: int) -> list[list[int]]:
    """Kernel basis vectors over F_p (dense; intended for modest sizes)."""
    nrows, ncols = m.shape
    a = np.zeros((max(nrows, 1), ncols), dtype=np.int64)
    if m.nnz:
        a[m.row, m.col] = m.val % p
    red, pivots = _rref_mod_p(a, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = int(-red[i, free]) % p
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Chain complexes, multicomplexes, homology.

@dataclass(frozen=True)
class HomologyGroup:
    """One homology group: free rank plus invariant-factor torsion."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion is not a divisibility chain")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion factors must exceed 1")

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def label(self, ring: Ring) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.free_rank:
            base = ring.name if ring.is_field else "Z"
            parts.append(base if self.free_rank == 1
                         else f"{base}^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts)


ZERO_GROUP = HomologyGroup(0)


class HomologyTable:
    """Per-degree homology answer over a fixed ring."""

    def __init__(self, ring: Ring, groups: dict[int, HomologyGroup],
                 max_degree: int):
        self.ring = ring
        self.groups = {d: g for d, g in sorted(groups.items())
                       if not g.is_zero}
        self.max_degree = max_degree

    def group(self, d: int) -> HomologyGroup:
        return self.groups.get(d, ZERO_GROUP)

    def __eq__(self, other):
        return (isinstance(other, HomologyTable) and self.ring == other.ring
                and self.max_degree == other.max_degree
                and self.groups == other.groups)

    def __repr__(self):
        inner = ", ".join(f"{d}: {g.label(self.ring)}"
                          for d, g in self.groups.items())
        return f"HomologyTable({self.ring}; {inner or '0'})"

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "ring": self.ring.name,
            "max_degree": self.max_degree,
            "groups": {
                str(d): {"free_rank": g.free_rank,
                         "torsion": list(g.torsion)}
                for d, g in self.groups.items()},
        }

    def render_text(self) -> str:
        lines = ["degree  group"]
        for d in range(self.max_degree + 1):
            lines.append(f"{d:>6}  {self.group(d).label(self.ring)}")
        return "\n".join(lines)


class ChainComplex:
    """Non-negatively graded complex of free modules with sparse boundaries.

    ``boundaries[d]`` maps degree d to degree d-1.  Degrees above
    ``degree_bound`` may be only partially materialized; homology is
    trustworthy for degrees <= degree_bound.
    """

    def __init__(self, ring: Ring, ranks: dict[int, int],
                 boundaries: dict[int, CooMatrix], degree_bound: int):
        self.ring = ring
        self.ranks = {d: r for d, r in sorted(ranks.items()) if r}
        self.boundaries = {}
        self.degree_bound = degree_bound
        # Set once verify_boundary_condition has passed.
        self.verified = False
        for d, m in sorted(boundaries.items()):
            expected = (self.rank(d - 1), self.rank(d))
            if m.shape != expected:
                raise ValueError(
                    f"boundary {d} has shape {m.shape}, expected {expected}")
            if m.nnz:
                self.boundaries[d] = m

    def rank(self, d: int) -> int:
        return self.ranks.get(d, 0)

    def boundary(self, d: int) -> CooMatrix:
        got = self.boundaries.get(d)
        if got is None:
            return CooMatrix.zero((self.rank(d - 1), self.rank(d)))
        return got

    def verify_boundary_condition(self):
        for d in sorted(self.boundaries):
            if d + 1 in self.boundaries:
                if not is_zero_product(self.boundaries[d],
                                       self.boundaries[d + 1]):
                    raise IntegrityError(
                        f"boundary condition d*d != 0 at degree {d + 1}")
        self.verified = True

    def euler_characteristic(self, top: int | None = None) -> int:
        top = self.degree_bound if top is None else top
        return sum((-1) ** d * self.rank(d) for d in range(top + 1))

    def permuted(self, perms: dict[int, list[int]]) -> "ChainComplex":
        """Reorder the basis in selected degrees (perm[i] = new position)."""
        boundaries = {}
        for d, m in self.boundaries.items():
            boundaries[d] = m.permuted(row_perm=perms.get(d - 1),
                                       col_perm=perms.get(d))
        return ChainComplex(self.ring, dict(self.ranks), boundaries,
                            self.degree_bound)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "ring": self.ring.name,
            "degree_bound": self.degree_bound,
            "ranks": {str(d): r for d, r in self.ranks.items()},
            "boundaries": {str(d): m.to_json()
                           for d, m in self.boundaries.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChainComplex":
        ring = parse_ring(data["ring"])
        ranks = {int(d): r for d, r in data["ranks"].items()}
        boundaries = {int(d): CooMatrix.from_json(m)
                      for d, m in data["boundaries"].items()}
        return cls(ring, ranks, boundaries, data["degree_bound"])


def homology(cx: ChainComplex,
             degree_bound: int | None = None) -> HomologyTable:
    """Homology of a complex: Betti numbers over a field, free rank plus
    invariant-factor torsion over the integers.

    Raises IntegrityError if the boundaries do not compose to zero; a
    complex that has passed that check already is not checked again.
    """
    bound = cx.degree_bound if degree_bound is None \
        else min(degree_bound, cx.degree_bound)
    if not cx.verified:
        cx.verify_boundary_condition()
    degrees = range(bound + 2)
    if cx.ring.kind == "Z":
        diag = {d: smith_normal_form(cx.boundary(d)).diagonal
                if cx.boundaries.get(d) is not None else ()
                for d in degrees}
        ranks = {d: len(diag[d]) for d in degrees}
    else:
        ranks = {d: matrix_rank(cx.boundary(d), cx.ring) for d in degrees}
        diag = None
    groups = {}
    for d in range(bound + 1):
        betti = cx.rank(d) - ranks[d] - ranks[d + 1]
        if betti < 0:
            raise IntegrityError(f"negative rank count in degree {d}")
        torsion = ()
        if diag is not None:
            torsion = tuple(v for v in diag[d + 1] if v > 1)
        groups[d] = HomologyGroup(betti, torsion)
    return HomologyTable(cx.ring, groups, bound)


# ---------------------------------------------------------------------------
# Multicomplexes and their total complex.

class Multicomplex:
    """A k-direction complex: ranks per multidegree, one unsigned
    differential per direction, commuting between distinct directions."""

    def __init__(self, directions: int, ranks: dict[tuple, int],
                 differentials: dict[tuple[tuple, int], CooMatrix]):
        self.directions = directions
        self.ranks = {idx: r for idx, r in ranks.items()}
        self.differentials = differentials

    def rank(self, idx) -> int:
        return self.ranks.get(tuple(idx), 0)

    def differential(self, idx, j) -> CooMatrix | None:
        return self.differentials.get((tuple(idx), j))


def lowered(idx: tuple, j: int) -> tuple:
    return idx[:j] + (idx[j] - 1,) + idx[j + 1:]


def total_degree(idx) -> int:
    return sum(idx)


def total_complex(mc: Multicomplex, ring: Ring, degree_bound: int,
                  ) -> ChainComplex:
    """Total complex of a multicomplex, with the Koszul sign (-1)^(q_1+..+
    q_{j-1}) on the direction-j differential.

    The assembled boundaries are checked to square to zero; a failure means
    the per-direction differentials were not commuting and raises
    IntegrityError.
    """
    by_degree: dict[int, list[tuple]] = {}
    for idx in mc.ranks:
        by_degree.setdefault(total_degree(idx), []).append(idx)
    for d in by_degree:
        by_degree[d].sort()
    offsets: dict[tuple, int] = {}
    ranks: dict[int, int] = {}
    for d, idxs in sorted(by_degree.items()):
        pos = 0
        for idx in idxs:
            offsets[idx] = pos
            pos += mc.rank(idx)
        ranks[d] = pos

    boundaries = {}
    for d in sorted(by_degree):
        if d == 0 or d > degree_bound + 1:
            continue
        rows_parts, cols_parts, vals_parts = [], [], []
        for idx in by_degree[d]:
            sign_exp = 0
            for j in range(mc.directions):
                if idx[j] >= 1:
                    block = mc.differential(idx, j)
                    if block is not None and block.nnz:
                        sign = (-1) ** sign_exp
                        tgt = lowered(idx, j)
                        rows_parts.append(block.row + offsets[tgt])
                        cols_parts.append(block.col + offsets[idx])
                        vals_parts.append(block.val * sign)
                sign_exp += idx[j]
        if rows_parts:
            m = CooMatrix((ranks.get(d - 1, 0), ranks.get(d, 0)),
                          np.concatenate(rows_parts),
                          np.concatenate(cols_parts),
                          np.concatenate(vals_parts))
        else:
            m = CooMatrix.zero((ranks.get(d - 1, 0), ranks.get(d, 0)))
        boundaries[d] = m

    cx = ChainComplex(ring, ranks, boundaries, degree_bound)
    try:
        cx.verify_boundary_condition()
    except IntegrityError as exc:
        raise IntegrityError(f"sign consistency failed: {exc}") from exc
    return cx


# ---------------------------------------------------------------------------
# Induced maps on homology.

def hstack_coo(a: CooMatrix, b: CooMatrix) -> CooMatrix:
    """Place two sparse matrices side by side."""
    if a.shape[0] != b.shape[0]:
        raise ValueError("row counts differ")
    shape = (a.shape[0], a.shape[1] + b.shape[1])
    return CooMatrix(shape,
                     np.concatenate([a.row, b.row]),
                     np.concatenate([a.col, b.col + a.shape[1]]),
                     np.concatenate([a.val, b.val]))


def _coo_from_columns(columns: list[list[int]], nrows: int) -> CooMatrix:
    entries = {}
    for j, column in enumerate(columns):
        for i, v in enumerate(column):
            if v:
                entries[(i, j)] = v
    return CooMatrix.from_entries((nrows, len(columns)), entries)


def induced_map_is_iso_field(src: ChainComplex, tgt: ChainComplex,
                             blocks: dict[int, CooMatrix], degree: int,
                             ring: Ring) -> bool:
    """Whether a chain map induces an isomorphism on degree-d homology over a
    field.

    Checks equal dimensions plus surjectivity of the composite
    cycles(src) -> cycles(tgt) -> H(tgt); the boundary side stays sparse so
    large complexes are not densified.
    """
    rank_tgt_up = matrix_rank(tgt.boundary(degree + 1), ring)
    hs = homology_dimension_field(src, degree, ring)
    ht = (tgt.rank(degree) - matrix_rank(tgt.boundary(degree), ring)
          - rank_tgt_up)
    if hs != ht:
        return False
    if ht == 0:
        return True
    if ring.kind == "Q":
        kernel = integer_kernel_basis(src.boundary(degree))
    else:
        kernel = nullspace_mod_p(src.boundary(degree), ring.p)
    image = _apply_sparse_to_columns(blocks[degree], kernel)
    combined = hstack_coo(_coo_from_columns(image, tgt.rank(degree)),
                          tgt.boundary(degree + 1))
    return matrix_rank(combined, ring) == rank_tgt_up + ht


def _apply_sparse_to_columns(m: CooMatrix,
                             columns: list[list[int]]) -> list[list[int]]:
    if not columns:
        return []
    peak = max((abs(v) for col in columns for v in col), default=0)
    if peak < 1 << 30 and m.nnz:
        stacked = np.asarray(columns, dtype=np.int64).T
        image = np.asarray(m.to_scipy() @ stacked)
        return [image[:, j].tolist() for j in range(image.shape[1])]
    out = []
    for column in columns:
        acc = [0] * m.shape[0]
        nonzero = {i: v for i, v in enumerate(column) if v}
        for r, c, v in m.entries():
            w = nonzero.get(c)
            if w:
                acc[r] += v * w
        out.append(acc)
    return out


def homology_dimension_field(cx: ChainComplex, degree: int,
                             ring: Ring) -> int:
    return (cx.rank(degree) - matrix_rank(cx.boundary(degree), ring)
            - matrix_rank(cx.boundary(degree + 1), ring))


def induced_map_is_surjective_integer(src: ChainComplex, tgt: ChainComplex,
                                      blocks: dict[int, CooMatrix],
                                      degree: int) -> bool:
    """Surjectivity certificate for the induced map on integral homology.

    Expresses image cycles and boundaries in a kernel basis of the target and
    asks the resulting presentation to have trivial cokernel via Smith form.
    Dense transforms limit this to complexes of modest rank.
    """
    if max(src.rank(degree), tgt.rank(degree),
           tgt.rank(degree + 1)) > 20_000:
        raise LimitExceeded("integral surjectivity certificate needs dense "
                            "transforms; complex too large")
    kernel_src = integer_kernel_basis(src.boundary(degree))
    fk = _mat_mul(_dense_int(blocks[degree]), _columns_matrix(kernel_src))
    bcols = _dense_int(tgt.boundary(degree + 1))
    if fk and bcols:
        gens = [ra + rb for ra, rb in zip(fk, bcols)]
    else:
        gens = fk or bcols
    kernel_tgt = integer_kernel_basis(tgt.boundary(degree))
    z = len(kernel_tgt)
    if z == 0:
        return True
    if not gens:
        return False
    kmat = _dense_to_coo(_columns_matrix(kernel_tgt))
    res = _snf_core(kmat, transforms=True, need_chain=False)
    if res.rank != z or any(d != 1 for d in res.diagonal):
        # The kernel lattice of an integer matrix is saturated; a basis of it
        # must have unit invariant factors.
        raise IntegrityError("kernel basis is not saturated")
    # Solve kmat * Y = gens: with left * kmat * right = [I; 0], the bottom
    # rows of left * gens must vanish and Y = right * (top rows).
    left = [list(row) for row in res.left]
    w = _mat_mul(left, gens)
    for row in w[z:]:
        if any(row):
            return False
    right = [list(row) for row in res.right]
    coords = _mat_mul(right, w[:z])
    snf = _snf_core(_dense_to_coo(coords), transforms=False, need_chain=True)
    return snf.rank == z and all(d == 1 for d in snf.diagonal)


def table_from_json(data: dict) -> HomologyTable:
    ring = parse_ring(data["ring"])
    groups = {int(d): HomologyGroup(g["free_rank"], tuple(g["torsion"]))
              for d, g in data["groups"].items()}
    return HomologyTable(ring, groups, data["max_degree"])


def dumps_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
