"""Exact linear algebra for chain complexes over Z, Q and F_p.

Boundary matrices are integer sparse matrices in coordinate form, kept in
one canonical order: column-major (by column, then row), deduplicated and
without zeros.  Chain assembly produces that order directly: a total
boundary is the concatenation of its column strips (``total_complex``),
and a block matrix is placed block by block with a counting pass over its
columns (``place_blocks``), with no sort of the entries.  Homology is read
off from exact ranks: a streamed field elimination over F_p for primes
below 2^31, and a sparse Smith normal form over the integers.  Whether a
product of boundaries vanishes is tested with the rows of the first packed
as digits of 64-bit words (``is_zero_product``), and no product matrix is
built.

A field rank never builds a dense matrix of the long side.  The columns of
a matrix (of its transpose if it is tall), vectors of length n, the short
side, stream in batches into a reduced row-echelon basis of at most n
vectors (a streaming form of the dense GF(2) elimination of Albrecht and
Bard's M4RI work).  The lead columns are seeded first: those whose last
entry nonzero mod p lies on a row where no earlier column's does.  Their
last rows differ, so they are independent, and where no basis vector holds
that row a lead becomes a basis vector by substitution, with that entry as
its pivot: in rounds of dependency depth, each reduced against the leads
it reaches, with no elimination among them (structural pivots, as in
Dumas, Heckenbach, Saunders and Welker 2003).  On boundary matrices they
give almost the whole rank, and the basis narrows before the long stream.
Because the basis is reduced, a batch is reduced by one gather of basis
vectors; over F_2 the same gather also places the entries on positions
that are not pivots, from a table that holds a unit vector for each.
What survives is added a block at a time: a block of up to eight vectors
is reduced among themselves, and its pivots are cleared from the rest of
the batch and from the basis at once, over F_2 through a table of the 256
sums of the block (M4RI's Four-Russians table), over F_p by one product.
The stream stops once the rank reaches n.  Vectors are stored only on
the positions that are not yet pivots, and a batch holds as many as fit
in the cells of _BATCH full-length ones.  Over F_2 a vector is packed
into uint64 words, over an odd p it is held as int64 residues.
The basis, at most n^2 entries, is what a rank is refused on.  Over every
ring the top boundary of a complex streams into ``homology`` in batches of
columns (``stream_top``), each tested for d∘d = 0, absorbed into one basis
on the rows and dropped, so it is never held whole.  A batch is compact,
int32 indices and int8 values, and the kernels widen it a slice at a time.

Over Z the same stream takes the unit pivots of a Smith form without
transforms, in int64.  Only a +-1 entry becomes a pivot, scaled to +1, so
nothing is divided and every step is unimodular.  The lead columns are
those whose last entry is +-1, seeded the same way, so each keeps that
entry as its pivot.  A vector left with no +-1 is set aside, and the
set-aside vectors stream again, round after round, until a round brings no
new pivot.  They are then the remainder S, on the rows that are not pivots,
and SNF(M) = I_k + SNF(S) for k unit pivots, so the line engine below sees
S alone.  int64 never wraps: every stored entry stays within +-2^29, so an
entry less eight products of two stays below 2^62; a gather is bounded by
the sum of its coefficients before it runs, and every result is checked.
If a bound trips, or a held matrix's basis would pass the size a rank is
refused on, the line engine takes it whole in Python integers, which are
arbitrary precision (a streamed top is built whole for it only if a bound
trips).  With transforms (integer kernel bases) it takes it in any case.

Whether a chain map induces an isomorphism on homology over a field is read
off ranks too.  For A = d_d of the source, F the map in degree d and
B = d_{d+1} of the target, the block matrix M = [[B, F], [0, A]] has rank
rank A + dim(F(ker A) + im B), so the image of the map in homology has
dimension rank M - rank A - rank B; no kernel basis and no dense matrix is
built.  One basis takes B's columns, giving rank B, and is then extended
to M's rows and fed the other columns, giving rank M.

Over Z the map is an isomorphism iff the two groups agree and it is onto
(a finitely generated abelian group is not isomorphic to a proper
quotient), and onto is read off one Smith form.  With K a kernel basis of
A, the columns of G = [F K | B] span the image cycles plus the
boundaries, inside the target's cycles: the kernel of an integer matrix,
so a saturated lattice, of rank z.  The map is onto iff G's Smith form
has exactly z invariant factors, all 1, that is iff any diagonal form of
G has z entries, all +-1; so no divisibility repair is run for it.  A
streamed top gives, for B, the columns its stream left, of the same span.

The line engine acts on lines.  The matrix is held both ways, rows[r] =
{c: v} and cols[c] = {r: v}, each built from the canonical order one run
at a time.  A flipped view swaps rows with columns and the left transform
with the right, so one routine clears the pivot column with row
operations and, on the flipped view, the pivot row with column
operations.  Unit pivots go first.  Boundary matrices are almost all +-1,
and eliminating a +-1 pivot leaves the invariant factors unchanged apart
from a 1 (Dumas, Heckenbach, Saunders, Welker 2003; Kaczynski, Mrozek,
Slusarek 1998).  Each unit pivot is found from the shorter side: the
shortest active line holding a +-1, and in it the +-1 whose crossing line
is shortest, so a choice costs a pass over the lines rather than over
every entry.  A unit divides every entry, so no divisibility repair is
needed after it.  When no unit is left, a Markowitz-style choice over all
remaining entries picks the pivot a, and Euclid's algorithm runs by
moving it: a line with entry b takes off b // a times the pivot line, and
a nonzero remainder becomes the pivot, so |a| strictly falls.
"""

from __future__ import annotations

import copy
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
    """An immutable integer sparse matrix as triplets in column-major order:
    sorted by column, then row, with no repeated position and no zero value.

    Triplets in any order are brought into that order by one sort, in
    int64.  A caller that builds them in that order already passes
    ``_canonical=True``; the claim is then checked in one pass, and a
    ValueError is raised if it does not hold.  Canonical triplets keep
    int32 indices and int8 values as given, about 9 bytes an entry against
    24: a compact matrix, as the streamed top boundary's batches are.  Its
    consumers take int8 values a slice at a time or in their own type.
    """

    __slots__ = ("shape", "row", "col", "val")

    def __init__(self, shape, row, col, val, _canonical=False):
        self.shape = (int(shape[0]), int(shape[1]))
        if _canonical:
            row, col = _stored(row, _INT32), _stored(col, _INT32)
            val = _stored(val, _INT8)
            _check_canonical(self.shape, row, col, val)
        else:
            row = np.asarray(row, dtype=np.int64)
            col = np.asarray(col, dtype=np.int64)
            val = np.asarray(val, dtype=np.int64)
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
        """The transpose, in canonical order by one stable sort on the rows:
        within a row the stored entries already go by column."""
        order = np.argsort(self.row, kind="stable")
        return CooMatrix((self.shape[1], self.shape[0]), self.col[order],
                         self.row[order], self.val[order], _canonical=True)

    def to_dense(self) -> list[list[int]]:
        rows, cols = self.shape
        dense = [[0] * cols for _ in range(rows)]
        for r, c, v in self.entries():
            dense[r][c] = v
        return dense

    def to_scipy(self):
        """The matrix in scipy's compressed sparse column form, read off the
        canonical order: only the column pointers are computed.  Its values
        are int64, in which scipy's products are taken."""
        from scipy.sparse import csc_matrix
        return csc_matrix((self.val.astype(np.int64, copy=False), self.row,
                           _col_starts(self)), shape=self.shape)

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
        """Shape and entries; the entries are listed in row-major order."""
        order = np.lexsort((self.col, self.row))
        return {"rows": self.shape[0], "cols": self.shape[1],
                "entries": np.stack([self.row[order], self.col[order],
                                     self.val[order]], axis=1).tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "CooMatrix":
        shape = (data["rows"], data["cols"])
        ent = data.get("entries", [])
        if not ent:
            return cls.zero(shape)
        arr = np.asarray(ent, dtype=np.int64)
        return cls(shape, arr[:, 0], arr[:, 1], arr[:, 2])


_INT64, _INT32, _INT8 = np.dtype(np.int64), np.dtype(np.int32), \
    np.dtype(np.int8)

# A prime above this is beyond int8: no compact value but 0 is 0 mod p.
_INT8_MAX = 127


def _stored(a, narrow):
    """a as a matrix stores it: as given if int64 or of the narrow type,
    else in int64."""
    a = np.asarray(a)
    return a if a.dtype is _INT64 or a.dtype is narrow \
        else a.astype(np.int64)


def _as_uint64(val):
    """Integer values as uint64, wrapped mod 2^64: a view of int64 values,
    a copy of narrower ones."""
    return val.view(np.uint64) if val.dtype is _INT64 \
        else val.astype(np.uint64)


def _run_starts(keys):
    """The index where each run of equal keys begins."""
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def _col_starts(m: CooMatrix) -> np.ndarray:
    """Where the entries of each column of m begin in the canonical order,
    then m.nnz: read off the runs of equal columns, with no count over the
    entries."""
    starts = _run_starts(m.col)
    ptr = np.zeros(m.shape[1] + 1, dtype=np.int64)
    ptr[1:][m.col[starts]] = np.diff(starts, append=m.nnz)
    return np.cumsum(ptr, out=ptr)


def _canonicalize(shape, row, col, val):
    """Triplets in any order as canonical ones: sorted column-major, with
    the values at one position summed and zero sums dropped."""
    if len(val) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    if row.min() < 0 or row.max() >= shape[0] or col.min() < 0 \
            or col.max() >= shape[1]:
        raise ValueError("matrix entry out of shape bounds")
    key = col * shape[0] + row
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order]
    start = _run_starts(key)
    sums = np.add.reduceat(val, start)
    keep = sums != 0
    uniq, sums = key[start[keep]], sums[keep]
    return uniq % shape[0], uniq // shape[0], sums


_UNSIGNED = {4: np.dtype(np.uint32), 8: np.dtype(np.uint64)}


def _check_canonical(shape, row, col, val):
    """Raise ValueError unless the triplets are canonical: from one entry to
    the next the column rises, or it stays and the row rises.  Neighbours
    are compared directly; a key col * rows + row would wrap in int32.
    Once the columns do not fall, the first and last bound them all."""
    if not len(row) == len(col) == len(val):
        raise ValueError("triplet arrays differ in length")
    if not len(val):
        return
    if (row.view(_UNSIGNED[row.itemsize]) >= shape[0]).any() \
            or col[0] < 0 or col[-1] >= shape[1]:
        raise ValueError("matrix entry out of shape bounds")
    before, after = col[:-1], col[1:]
    rise = row[1:] > row[:-1]
    rise |= after != before
    if not (rise.all() and (after >= before).all()):
        raise ValueError("entries are not in strictly increasing "
                         "column-major order")
    if not val.all():
        raise ValueError("matrix holds an explicit zero")


def place_blocks(shape, blocks) -> CooMatrix:
    """The matrix of ``shape`` that holds ``sign * m`` at offset
    (row_off, col_off) for each (row_off, col_off, m, sign) in ``blocks``.

    Blocks must not overlap, and blocks that share a column must be listed
    from top to bottom.  A column then holds its blocks' entries in the
    order listed, so one counting pass over the columns places every entry
    in canonical order, with no sort.  A block out of place fails the check
    of the canonical order.
    """
    blocks = [blk for blk in blocks if blk[2].nnz]
    per_block = [np.bincount(m.col, minlength=m.shape[1])
                 for _, _, m, _ in blocks]
    count = np.zeros(shape[1], dtype=np.int64)
    for (_, col_off, m, _), per in zip(blocks, per_block):
        count[col_off:col_off + m.shape[1]] += per
    # free[c] is the next empty slot of column c.
    free = np.zeros(shape[1], dtype=np.int64)
    np.cumsum(count[:-1], out=free[1:])
    row = np.empty(int(count.sum()), dtype=np.int64)
    val = np.empty(len(row), dtype=np.int64)
    for (row_off, col_off, m, sign), per in zip(blocks, per_block):
        span = free[col_off:col_off + m.shape[1]]
        # The t-th entry of the block, in column c, lands t - first[c]
        # slots after the free slot of c.
        dest = np.repeat(span - (np.cumsum(per) - per), per)
        dest += np.arange(m.nnz)
        row[dest] = m.row + row_off
        val[dest] = m.val if sign == 1 else m.val * sign
        span += per
    col = np.repeat(np.arange(shape[1], dtype=np.int64), count)
    return CooMatrix(shape, row, col, val, _canonical=True)


def _abs_max(val) -> int:
    """The largest absolute value in an int64 array, as a Python integer."""
    return max(int(val.max()), -int(val.min()))


# The columns of b that one packed product takes at a time.  Its dense
# result holds a uint64 word per column and word of a's packed rows: about
# 1.3 MB for the largest top degree of the benchmark (ten words a column).
_PRODUCT_CHUNK = 1 << 14


def is_zero_product(a: CooMatrix, b: CooMatrix) -> bool:
    """Whether the integer product a*b vanishes, with no product matrix
    built.

    An entry of a*b is a sum of at most c products, c the most entries in a
    column of b, so it is below B = max|a| max|b| c in absolute value.  With
    2^(w-1) > B, the rows of a are packed 64 // w to a 64-bit word, row i
    of a group as the digit of weight 2^(w i).  A column of b times the
    words gives the entries of a*b in that column as balanced base-2^w
    digits, each below half a digit, so their sum is below 2^63 and it is
    zero mod 2^64, where uint64 products wrap, only if every digit is.
    Raises LimitExceeded when w would reach 64.  Compact values of b are
    widened a chunk of columns at a time.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch in product")
    if a.nnz == 0 or b.nnz == 0:
        return True
    start = _col_starts(b)
    w = (_abs_max(a.val) * _abs_max(b.val) * int(np.diff(start).max())
         ).bit_length() + 1
    if w >= 64:
        raise LimitExceeded("a product of integer matrices has entries too "
                            "large to test for zero in 64-bit words")
    g = 64 // w
    packed = np.zeros((a.shape[1], -(-a.shape[0] // g)), dtype=np.uint64)
    shift = (a.row % g * w).astype(np.uint64)
    np.add.at(packed, (a.col, a.row // g), _as_uint64(a.val) << shift)
    from scipy.sparse import csr_matrix
    # scipy keeps int32 indices as given; int64 ones it scans and converts
    # for every chunk.
    if max(b.shape[0], b.nnz) < 1 << 31:
        row = b.row.astype(np.int32, copy=False)
        start = start.astype(np.int32)
    else:
        row = b.row.astype(np.int64, copy=False)
    # The columns of b, a chunk at a time, are the rows of b's transpose.
    for lo in range(0, b.shape[1], _PRODUCT_CHUNK):
        hi = min(lo + _PRODUCT_CHUNK, b.shape[1])
        s, e = start[lo], start[hi]
        part = csr_matrix((_as_uint64(b.val[s:e]), row[s:e],
                           start[lo:hi + 1] - s), shape=(hi - lo, b.shape[0]))
        if (part @ packed).any():
            return False
    return True


def coo_mul(a: CooMatrix, b: CooMatrix) -> CooMatrix:
    """Integer sparse product in int64.  Raises LimitExceeded when a sum of
    products could pass 2^63: max|a| max|b| times the most terms a sum can
    have, the fewer of the most entries in a row of a and in a column of
    b."""
    if a.nnz == 0 or b.nnz == 0:
        return CooMatrix.zero((a.shape[0], b.shape[1]))
    right = b.to_scipy()
    terms = min(int(np.bincount(a.row).max()),
                int(np.diff(right.indptr).max()))
    if _abs_max(a.val) * _abs_max(b.val) * terms >= 1 << 63:
        raise LimitExceeded("a product of integer matrices could pass the "
                            "int64 bound")
    prod = (a.to_scipy() @ right).tocoo()
    return CooMatrix((a.shape[0], b.shape[1]), prod.row, prod.col, prod.data)


# ---------------------------------------------------------------------------
# Ranks.

def matrix_rank(m: CooMatrix, ring: Ring) -> int:
    """Exact rank of an integer matrix over the given ring."""
    if m.nnz == 0:
        return 0
    if ring.kind == "F":
        return _streamed(m, ring.p).rank
    return len(_snf_core(m, transforms=False, need_chain=False).diagonal)


# A batch of vectors takes the cells of this many full-length vectors.
_BATCH = 512

# A field rank is refused when its basis, as many vectors of length n as
# it can hold, would take more bytes than this.
_BASIS_LIMIT = 1 << 29

# The code of a basis position that no vector has held yet, and so has no
# slot; like a slot, it is not a pivot.
_NO_SLOT = np.iinfo(np.int64).max


class _PackedBits:
    """Vectors over F_2: bit i of a vector is bit i & 63 of word i >> 6."""

    # New pivots are cleared eight at a time, through a table of the 256
    # sums of eight vectors.
    block = 8

    @staticmethod
    def width(size):
        return (size + 63) >> 6

    @staticmethod
    def zeros(count, size):
        return np.zeros((count, (size + 63) >> 6), dtype=np.uint64)

    @staticmethod
    def lead(v):
        """The first nonzero position of v and v scaled to 1 there."""
        word = int(np.flatnonzero(v)[0])
        bits = int(v[word])
        return word * 64 + (bits & -bits).bit_length() - 1, v

    @staticmethod
    def held(vecs, slots):
        """Whether any of the vectors is nonzero at each of the slots."""
        word = np.bitwise_or.reduce(vecs, axis=0) if len(vecs) \
            else np.zeros(vecs.shape[1], dtype=np.uint64)
        return (word[slots >> 6] >> (slots & 63).astype(np.uint64)
                & np.uint64(1)).astype(bool)

    @staticmethod
    def scale(vecs, pivots):
        """Each vecs[i] divided by pivots[i], nonzero mod p."""
        return vecs

    @staticmethod
    def clear(vecs, i, s):
        """Subtract vecs[i], which is 1 at s, from every other vector
        holding s."""
        hit = np.flatnonzero(vecs[:, s >> 6] & np.uint64(1 << (s & 63)))
        hit = hit[hit != i]
        vecs[hit] ^= vecs[i]

    @staticmethod
    def clear_block(targets, block, slots):
        """Subtract from each vector of each array in targets its entries at
        slots times block, whose j-th vector is 1 at slots[j] and 0 at the
        other slots.  The entries at slots index a table of all 2^k sums of
        the k block vectors, so one lookup clears them all (the
        Four-Russians tables of M4RI)."""
        k = len(slots)
        table = np.zeros((1 << k, block.shape[1]), dtype=np.uint64)
        for j in range(k):
            np.bitwise_xor(table[:1 << j], block[j], out=table[1 << j:2 << j])
        shift = (slots & 63).astype(np.uint64)
        weight = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
        for vecs in targets:
            index = (vecs[:, slots >> 6] >> shift & np.uint64(1)) @ weight
            vecs ^= table[index]

    @staticmethod
    def unset(vecs, slots):
        """Zero each vecs[j] at slots[j], where it holds a 1."""
        vecs[np.arange(len(slots)), slots >> 6] ^= np.left_shift(
            np.uint64(1), (slots & 63).astype(np.uint64))

    @staticmethod
    def move(vecs, src, dst, size):
        """Vectors of size entries holding entry src[i] of vecs at dst[i]
        and 0 elsewhere; they are unpacked to one byte per bit _BATCH
        vectors at a time."""
        out = np.zeros((len(vecs), 8 * ((size + 63) >> 6)), dtype=np.uint8)
        for lo in range(0, len(vecs), _BATCH):
            raw = vecs[lo:lo + _BATCH].astype("<u8", copy=False)
            bits = np.unpackbits(raw.view(np.uint8), axis=1,
                                 bitorder="little")
            moved = np.zeros((len(bits), 8 * out.shape[1]), dtype=np.uint8)
            moved[:, dst] = bits[:, src]
            out[lo:lo + _BATCH] = np.packbits(moved, axis=1,
                                              bitorder="little")
        return out.view("<u8").astype(np.uint64, copy=False)


class _Residues:
    """Vectors over F_p, p odd, as int64 residues (products stay below 2^62
    because p < 2^31)."""

    def __init__(self, p):
        self.p = p
        # New pivots are cleared this many at a time, by one product whose
        # sums of products below p^2 stay below 2^63.
        self.block = min(8, ((1 << 63) - 1) // (p - 1) ** 2)

    @staticmethod
    def width(size):
        return size

    @staticmethod
    def zeros(count, size):
        return np.zeros((count, size), dtype=np.int64)

    @staticmethod
    def scatter(out, owner, idx, val):
        """Set entry idx of vector owner to val."""
        out[owner, idx] = val

    def mod(self, x):
        """x mod p in place (a floor division by a scalar is the fast
        kernel, a remainder is not)."""
        x -= x // self.p * self.p
        return x

    def subtract(self, vecs, targets, rows, coef, starts):
        """Subtract from vecs[targets[i]] the sum of coef * rows over the
        i-th segment of rows, the segments beginning at starts."""
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

    @staticmethod
    def held(vecs, slots):
        return vecs.any(axis=0)[slots]

    def scale(self, vecs, pivots):
        unique, back = np.unique(pivots, return_inverse=True)
        inverse = np.array([pow(int(v), self.p - 2, self.p) for v in unique],
                           dtype=np.int64)
        return self.mod(vecs * inverse[back.reshape(-1), None])

    def clear(self, vecs, i, s):
        hit = np.flatnonzero(vecs[:, s])
        hit = hit[hit != i]
        vecs[hit] = self.mod(vecs[hit] - vecs[hit, s, None] * vecs[i])

    def clear_block(self, targets, block, slots):
        for vecs in targets:
            coef = vecs[:, slots]
            hit = np.flatnonzero(coef.any(axis=1))
            vecs[hit] = self.mod(vecs[hit] - self.mod(coef[hit] @ block))

    @staticmethod
    def unset(vecs, slots):
        vecs[np.arange(len(slots)), slots] = 0

    @staticmethod
    def move(vecs, src, dst, size):
        out = np.zeros((len(vecs), size), dtype=np.int64)
        out[:, dst] = vecs[:, src]
        return out


# Over Z every stored entry stays within +-_INT_TOP: an entry less eight
# products of two entries, the most one clearing step forms, stays below
# 2^62, so int64 never wraps before a result is checked.
_INT_TOP = 1 << 29


class _Int64Overflow(ArithmeticError):
    """An integer elimination in int64 would store an entry beyond
    +-_INT_TOP."""


class _Integers(_Residues):
    """Vectors over Z as int64 entries, each within +-_INT_TOP.

    Only a +-1 entry becomes a pivot, so nothing is ever divided; ``lead``
    answers None for a vector with no unit, which the basis sets aside.
    ``mod`` reduces nothing: it checks that a result stays within the
    bound and raises _Int64Overflow if it does not.
    """

    block = 8

    def __init__(self):
        pass

    @staticmethod
    def mod(x):
        if x.size and (x.max() > _INT_TOP or x.min() < -_INT_TOP):
            raise _Int64Overflow
        return x

    def subtract(self, vecs, targets, rows, coef, starts):
        # A segment of coefficients summing to s in absolute value changes
        # an entry by at most s * _INT_TOP.
        s = int(np.add.reduceat(np.abs(coef), starts).max())
        if (s + 1) * _INT_TOP >= 1 << 63:
            raise _Int64Overflow
        vecs[targets] = self.mod(vecs[targets] - np.add.reduceat(
            rows * coef[:, None], starts, axis=0))

    @staticmethod
    def lead(v):
        """The last +-1 position of v and v scaled to 1 there, or None."""
        units = np.flatnonzero(np.abs(v) == 1)
        if not len(units):
            return None
        s = int(units[-1])
        return s, (v if v[s] == 1 else -v)

    @staticmethod
    def scale(vecs, pivots):
        # A pivot is +-1, its own inverse.
        return vecs * pivots[:, None]

    def clear_block(self, targets, block, slots):
        for vecs in targets:
            coef = vecs[:, slots]
            hit = np.flatnonzero(coef.any(axis=1))
            vecs[hit] = self.mod(vecs[hit] - coef[hit] @ block)


class _EchelonBasis:
    """A reduced row-echelon basis over F_p, or over Z for p = 0, of
    vectors of length n, into which the columns of sparse matrices stream.

    Every basis vector is 1 at its own pivot and 0 at every other pivot, so
    a vector is reduced by one gather: subtract, for each of its entries at
    a pivot, that entry times the pivot's basis vector.  Vectors are stored
    only on the slots of ``cols``, in position order: a position gets a
    slot when a matrix first holds an entry there (until then every vector
    is 0 at it), and the storage is narrowed whenever the slots that are
    not pivots fall to half.  So a matrix given in batches of columns is
    stored, batch after batch, on the rows reached so far.  A basis vector
    is stored without the 1 at its own pivot, so an entry of a new vector
    either fills a slot or is reduced by the gather, never both.

    The vectors of a batch that survive the gather are added a block at a
    time: a block of a few of them is reduced among themselves, and its new
    pivots are cleared from the rest of the batch and from the basis at
    once (``clear_block``).  ``extend`` adds positions, so a basis can be
    kept and fed the columns of a matrix with more rows.  The basis holds
    at most min(n, vectors) vectors, ``vectors`` being how many it may be
    given; that bounds its size, and a larger one is refused.

    Over Z a pivot must be +-1, so the basis spans a direct summand of Z^n
    and every step is unimodular.  A vector that keeps no +-1 entry after
    reduction is set aside (``spare``) as entries on its positions, tagged
    with the rank it was reduced against; ``remainder`` streams the stale
    ones again until no more pivots come.
    """

    def __init__(self, n, p, vectors):
        self.field = _PackedBits() if p == 2 else \
            _Residues(p) if p else _Integers()
        self.p, self.vectors = p, vectors
        self.n = self.rank = 0
        # Over Z: (rank, owner, position, value) per set-aside block, the
        # owners numbered on across blocks, ``spared`` of them so far.
        self.spare = []
        self.spared = 0
        # code[i] is the slot of position i if it is not a pivot, _NO_SLOT
        # if it has none yet, and -1 - r if it is the pivot of basis
        # vector r.
        self.code = np.empty(0, dtype=np.int64)
        self.cols = self.code
        self.rows = self.field.zeros(0, 0)
        # How many slots are not pivots.
        self.open = 0
        # Over F_2, the table of _gather_table while the basis and the
        # slots stay as they are.
        self._table = None
        self.extend(n)

    def extend(self, k, vectors=0):
        """Add k positions after the last, zero in every basis vector, and
        room for ``vectors`` more vectors to be given."""
        self.vectors += vectors
        n = self.n + k
        self.short = min(n, self.vectors)
        if self.short * self.field.width(n) * 8 > _BASIS_LIMIT:
            over = f"a mod-{self.p} rank" if self.p else "a rank over Z"
            raise LimitExceeded(
                f"{over} of {self.vectors} vectors of length {n} is too "
                f"large: its basis needs {self.short}x{n} entries")
        self.code = np.concatenate(
            (self.code, np.full(k, _NO_SLOT, dtype=np.int64)))
        self.n = n
        self._table = None

    def _give_slots(self, pos):
        """Give every position of pos that has no slot one, keeping the
        slots in position order; every vector is 0 at the new ones."""
        new = np.zeros(self.n, dtype=bool)
        new[pos] = True
        new = np.flatnonzero(new & (self.code == _NO_SLOT))
        if not len(new):
            return
        cols = np.sort(np.concatenate((self.cols, new)))
        self.rows = self.field.move(
            self.rows[:self.rank], np.arange(len(self.cols)),
            np.searchsorted(cols, self.cols), len(cols))
        free = self.code[cols] >= 0
        self.code[cols[free]] = np.flatnonzero(free)
        self.cols = cols
        self.open += len(new)
        self._table = None

    def batch(self):
        """How many vectors fit, as stored now, in the cells of _BATCH
        vectors of full length."""
        width = self.field.width
        return max(1, _BATCH * width(self.short) // width(len(self.cols)))

    def absorb_columns(self, m):
        """Add the columns of m, which has a row for each position.

        The lead columns are seeded first (``_seed``), then every column
        streams as stored, the seeded ones now empty.  The values are
        copied in their own type, 0 where they are 0 mod p: as residues, or
        as they are when p is beyond the type, as a compact matrix's int8
        values are for p > 127, where only 0 is 0 mod p.  ``_reduced``
        widens them to int64 residues one slice at a time.
        """
        if not m.nnz or self.rank == self.n:
            return
        self._give_slots(m.row)
        if not self.p:
            val = self.field.mod(m.val.copy())
        elif self.p > _INT8_MAX and m.val.dtype is _INT8:
            val = m.val.copy()
        else:
            val = m.val % self.p
        owner, at = _lead_entries(m.row, m.col, val, self.n, unit=not self.p)
        val[at[self._seed(owner, m.row[at], val[at])]] = 0
        self._stream(m.col, m.row, val)

    def _seed(self, owner, pos, val):
        """Install lead columns by substitution, with no elimination, and
        return which of their entries were taken.

        The entries (lead column, position, value mod p) are sorted by
        column and position, and the last entry of each column lies on a
        position where no other's does.  Where that position is not a
        pivot and no basis vector holds it, the column becomes a basis
        vector with it as pivot: reduced against the basis, it is 0 at
        every other pivot and so is every basis vector at this one.  A
        column with an entry at another seeded column's pivot is reduced
        against that one's basis vector, so it comes in a later round;
        those entries lie above the pivot, so the rounds end.  A round
        scatters the free entries, gathers the installed rows for the
        others and divides by the pivot.
        """
        field = self.field
        end = np.ones(len(owner), dtype=bool)
        np.not_equal(owner[1:], owner[:-1], out=end[:-1])
        pivot = pos[end]
        seeded = self.code[pivot] >= 0
        seeded[seeded] = ~field.held(self.rows[:self.rank],
                                     self.code[pivot[seeded]])
        taken = seeded[owner]
        live = taken & (val != 0)
        owner = (np.cumsum(seeded) - 1)[owner[live]]
        pos, val, end = pos[live], val[live], end[live]
        pivot, pivot_val = pos[end], val[end]
        lead_at = np.full(self.n, -1, dtype=np.int64)
        lead_at[pivot] = np.arange(len(pivot))
        dep = lead_at[pos]
        dep[end] = -1
        # (column, the column whose pivot it holds an entry at)
        needs, needed = owner[dep >= 0], dep[dep >= 0]
        pending = np.ones(len(pivot), dtype=bool)
        while pending.any():
            ready = pending.copy()
            ready[needs[pending[needed]]] = False
            pending &= ~ready
            at = np.flatnonzero(ready[owner] & ~end)
            vecs = self._reduced((np.cumsum(ready) - 1)[owner[at]], pos[at],
                                 val[at], int(ready.sum()))
            self._install(field.scale(vecs, pivot_val[ready]),
                          self.code[pivot[ready]])
        self._narrow()
        return taken

    def _stream(self, vec, pos, val):
        """Absorb the entries (vector, position, value mod p), sorted by
        vector and position, in batches, until the rank reaches n."""
        lo = 0
        while lo < len(vec) and self.rank < self.n:
            count = self.batch()
            first = int(vec[lo])
            # A needle of vec's own type: another would widen all of vec.
            hi = int(np.searchsorted(vec, vec.dtype.type(first + count)))
            self.absorb(vec[lo:hi].astype(np.int64) - first, pos[lo:hi],
                        val[lo:hi], count)
            lo = hi

    def _reduced(self, owner, pos, val, count):
        """``count`` vectors, given as entries (vector below count,
        position, value mod p) sorted by vector and position, reduced
        against the basis by one gather and stored on the slots.

        Over F_2 every entry is 1, and the gather takes every entry at
        once: from a table whose row for a pivot is its basis vector and
        whose row for a free slot is the unit vector there
        (``_gather_table``).  Over an odd p and over Z the entries on free
        slots are scattered and the others gather basis vectors."""
        field = self.field
        # A gather holds at most _BATCH * short cells, no more than a batch
        # of unpacked vectors of the short side's length.
        step = max(1, _BATCH * self.short // field.width(len(self.cols)))
        vecs = field.zeros(count, len(self.cols))
        if self.p == 2:
            table, row = self._gather_table()
            row = row[pos]
            for lo in range(0, len(pos), step):
                whose = owner[lo:lo + step]
                starts = _run_starts(whose)
                sums = np.bitwise_xor.reduceat(
                    np.take(table, row[lo:lo + step], axis=0), starts, axis=0)
                # Only the first vector of a slice can have entries in the
                # slice before.
                vecs[whose[starts[0]]] ^= sums[0]
                vecs[whose[starts[1:]]] = sums[1:]
            return vecs
        if self.p > _INT8_MAX and val.dtype is _INT8:
            # Values kept as they are (absorb_columns) become residues.
            val = val.astype(np.int64) % self.p
        code = self.code[pos]
        free = code >= 0
        field.scatter(vecs, owner[free], code[free], val[free])
        at_pivot = np.flatnonzero(~free)
        for lo in range(0, len(at_pivot), step):
            part = at_pivot[lo:lo + step]
            whose = owner[part]
            starts = _run_starts(whose)
            field.subtract(vecs, whose[starts],
                           np.take(self.rows, -1 - code[part], axis=0),
                           val[part], starts)
        return vecs

    def _gather_table(self):
        """Over F_2: (table, row), the basis vectors followed by the unit
        vector of each free slot, and row[i] the row of position i in it
        (undefined where i has no slot).  At most n rows, one per pivot
        and one per free slot; it is built again once the basis or the
        slots change."""
        if self._table is None:
            code = self.code
            free = np.flatnonzero((code >= 0) & (code != _NO_SLOT))
            row = -1 - code
            row[free] = self.rank + np.arange(len(free))
            units = self.field.zeros(len(free), len(self.cols))
            self.field.unset(units, code[free])  # flips 0 to 1 there
            self._table = (np.concatenate((self.rows[:self.rank], units)),
                           row)
        return self._table

    def absorb(self, owner, pos, val, count):
        """Add ``count`` vectors to the span, given as entries (vector below
        count, position, value mod p) sorted by vector and position."""
        live = val != 0
        if not live.all():
            if not live.any():
                return
            owner, pos, val = owner[live], pos[live], val[live]
        vecs = self._usable(self._reduced(owner, pos, val, count))
        while len(vecs) and self.rank < self.n:
            rest = vecs[self.field.block:]
            self._add(vecs[:self.field.block], rest)
            vecs = self._usable(rest)
        self._narrow()

    def _narrow(self):
        """Store the vectors on the free positions alone once at most half
        of the slots are free."""
        if 0 < 2 * self.open <= len(self.cols):
            keep = np.flatnonzero(self.code[self.cols] >= 0)
            self.rows = self.field.move(self.rows[:self.rank], keep,
                                        np.arange(len(keep)), len(keep))
            self.cols = self.cols[keep]
            self.code[self.cols] = np.arange(len(keep), dtype=np.int64)
            self._table = None

    def _add(self, head, rest):
        """Make the nonzero vectors of head, reduced against the basis,
        basis vectors: reduce them among themselves (Gauss-Jordan), then
        clear their pivots from the rest of the batch and from the basis.
        Over Z a vector of head left with no +-1 is set aside instead."""
        field = self.field
        slots, kept, spare = [], [], []
        for i in range(len(head)):
            if head[i].any():
                got = field.lead(head[i])
                if got is None:
                    spare.append(i)
                    continue
                s, head[i] = got
                field.clear(head, i, s)
                slots.append(s)
                kept.append(i)
        if slots:
            block, slots = head[kept], np.array(slots, dtype=np.int64)
            field.clear_block((rest, self.rows[:self.rank]), block, slots)
            field.unset(block, slots)
            self._install(block, slots)
        if spare:
            # The pivots of the block were cleared from these too.
            self._set_aside(head[spare])

    def _install(self, block, slots):
        """Make the vectors of block, each 0 at every pivot and at its own
        slot, basis vectors with their pivots at slots."""
        top = self.rank + len(slots)
        if top > len(self.rows):
            grown = self.field.zeros(min(self.short, max(2 * top, 64)),
                                     len(self.cols))
            grown[:self.rank] = self.rows[:self.rank]
            self.rows = grown
        self.rows[self.rank:top] = block
        self.code[self.cols[slots]] = -1 - np.arange(self.rank, top)
        self.rank = top
        self.open -= len(slots)
        self._table = None

    def _usable(self, vecs):
        """The vectors that may give a pivot: the nonzero ones, and over Z
        only those holding a +-1; the others over Z are set aside."""
        if self.p or not len(vecs):
            return vecs[vecs.any(axis=1)]
        unit = (np.abs(vecs) == 1).any(axis=1)
        self._set_aside(vecs[~unit])
        return vecs[unit]

    def _set_aside(self, vecs):
        """Keep the nonzero vectors of vecs, reduced against the basis as it
        is, as entries on their positions."""
        owner, slot = np.nonzero(vecs)
        if len(owner):
            self.spare.append((self.rank, owner + self.spared,
                               self.cols[slot], vecs[owner, slot]))
            self.spared += len(vecs)

    def remainder(self) -> CooMatrix:
        """Over Z, once every column is absorbed: the set-aside vectors,
        all reduced against the final basis, as the columns of a matrix on
        the positions that are not pivots.  Vectors set aside before the
        last pivot came are streamed again, round after round, until a
        round brings no new pivot."""
        def joined(parts):
            return [np.concatenate(a) for a in list(zip(*parts))[1:]]

        while self.rank < self.n:
            stale = [part for part in self.spare if part[0] < self.rank]
            if not stale:
                break
            self.spare = [part for part in self.spare if part[0] == self.rank]
            self._stream(*joined(stale))
        if self.rank == self.n or not self.spare:
            return CooMatrix.zero((self.n - self.rank, 0))
        owner, pos, val = joined(self.spare)
        # The owners numbered without gaps, and the free positions too.
        col = np.zeros(len(owner), dtype=np.int64)
        col[_run_starts(owner)[1:]] = 1
        np.cumsum(col, out=col)
        row = np.cumsum(self.code >= 0) - 1
        return CooMatrix((self.n - self.rank, int(col[-1]) + 1), row[pos],
                         col, val, _canonical=True)

    def columns(self) -> CooMatrix:
        """Over Z, once every column is absorbed: the basis vectors with the
        1 at each pivot, then the remainder; they span the columns' lattice."""
        rest = self.remainder()
        owner, slot = np.nonzero(self.rows[:self.rank])
        pivot = np.flatnonzero(self.code < 0)
        row = self.cols[slot], pivot, np.flatnonzero(self.code >= 0)[rest.row]
        col = owner, -1 - self.code[pivot], self.rank + rest.col
        val = self.rows[owner, slot], np.ones_like(pivot), rest.val
        return CooMatrix((self.n, self.rank + rest.shape[1]),
                         *map(np.concatenate, (row, col, val)))


def _lead_entries(row, col, val, n, unit=False):
    """The entries of the lead columns of a matrix of n rows, in canonical
    order with values val mod p: the columns whose last entry nonzero mod p
    lies on a row where no earlier column's does.  Returns (owner, at):
    entry at[t] belongs to lead column owner[t], the lead columns numbered
    from 0 by their last row.  One pass over the entries, with no sort of
    them.  With ``unit`` (over Z) a column counts only if its last entry is
    +-1."""
    start = _run_starts(col)
    last = np.empty_like(start)
    last[:-1] = start[1:]
    last[-1] = len(col)
    last -= 1
    # Step back over the entries that vanish mod p at the end of a column;
    # a column with none left ends up with last < start.
    dead = np.flatnonzero(val[last] == 0)
    while len(dead):
        last[dead] -= 1
        dead = dead[last[dead] >= start[dead]]
        dead = dead[val[last[dead]] == 0]
    end_row = row[last]
    end_row[last < start] = n
    if unit:
        end_row[np.abs(val[last]) != 1] = n
    # first[r] is the first column ending on row r (row n: the empty ones).
    first = np.full(n + 1, len(last))
    np.minimum.at(first, end_row, np.arange(len(last)))
    lead = first[:n][first[:n] < len(last)]
    length = last[lead] + 1 - start[lead]
    owner = np.repeat(np.arange(len(lead)), length)
    at = np.arange(len(owner)) + np.repeat(
        start[lead] - (np.cumsum(length) - length), length)
    return owner, at


def _streamed(m: CooMatrix, p: int) -> _EchelonBasis:
    """The reduced echelon basis over F_p, or over Z for p = 0, into which
    the columns of m stream; a tall matrix streams as its transpose, so
    the basis is on the short side.  No dense matrix of the long side is
    built, and the stream stops once the rank reaches the short side."""
    if m.shape[0] > m.shape[1]:
        m = m.transpose()
    basis = _EchelonBasis(m.shape[0], p, m.shape[1])
    basis.absorb_columns(m)
    return basis


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


def _axpy(vectors, src, dst, t):
    """vectors[dst] += t * vectors[src] on sparse dict vectors."""
    vdst = vectors.setdefault(dst, {})
    for k, w in vectors.get(src, {}).items():
        nv = vdst.get(k, 0) + t * w
        if nv:
            vdst[k] = nv
        elif k in vdst:
            del vdst[k]


def _lines(m: CooMatrix) -> dict[int, dict[int, int]]:
    """{c: {r: v}} for the columns of m that hold entries, read off the
    canonical order one column run at a time."""
    start = _run_starts(m.col)
    keys = m.col[start].tolist()
    start = start.tolist()
    rows, vals = m.row.tolist(), m.val.tolist()
    return {c: dict(zip(rows[s:e], vals[s:e]))
            for c, s, e in zip(keys, start, start[1:] + [len(vals)])}


class _SparseElim:
    """Integer elimination on the lines of a sparse matrix held both ways.

    ``rows[r]`` is ``{c: v}`` and ``cols[c]`` is ``{r: v}``; both hold
    every nonzero entry as a Python integer, so growth goes to arbitrary
    precision.  With transforms, ``left[r]`` is row r of U and ``right[c]``
    column c of V, else both are None.  Every operation acts on lines, that
    is on ``rows`` and ``left``.  ``flipped`` is the same store with rows
    and columns swapped and ``left`` with ``right``, so a column operation
    is a line operation on the flipped view.
    """

    __slots__ = ("rows", "cols", "left", "right")

    def __init__(self, rows, cols, left, right):
        self.rows, self.cols, self.left, self.right = rows, cols, left, right

    @classmethod
    def of(cls, m: CooMatrix, transforms: bool) -> "_SparseElim":
        left = right = None
        if transforms:
            left = {r: {r: 1} for r in range(m.shape[0])}
            right = {c: {c: 1} for c in range(m.shape[1])}
        return cls(_lines(m.transpose()), _lines(m), left, right)

    def flipped(self) -> "_SparseElim":
        return _SparseElim(self.cols, self.rows, self.right, self.left)

    def axpy(self, src, dst, t):
        """Line dst += t * line src, for t nonzero."""
        line, cols = self.rows[dst], self.cols
        for j, v in self.rows[src].items():
            v = line.get(j, 0) + t * v
            if v:
                line[j] = cols[j][dst] = v
            else:
                del line[j], cols[j][dst]
        if self.left is not None:
            _axpy(self.left, src, dst, t)

    def clear(self, i, j, active):
        """Clear cross line j on the active lines other than the pivot
        (i, j), taking from each the multiple of line i that leaves the
        remainder.  A nonzero remainder becomes the pivot (Euclid by moving
        the pivot), so |pivot| strictly falls and the clearing ends.
        Returns the line that holds the pivot at the end."""
        cross = self.cols[j]
        while True:
            a = cross[i]
            for k in sorted(cross):
                if k != i and k in active:
                    q = cross[k] // a
                    if q:
                        self.axpy(i, k, -q)
                    if k in cross:
                        i = k
                        break
            else:
                return i

    def clear_unit_line(self, i, j):
        """Clear cross line j when line i holds nothing but the unit pivot
        (i, j): each subtraction of line i then zeroes one entry."""
        a, rows, cross = self.rows[i][j], self.rows, self.cols[j]
        for k, b in cross.items():
            if k != i:
                del rows[k][j]
                if self.left is not None:
                    _axpy(self.left, i, k, -b * a)
        cross.clear()
        cross[i] = a

    def negate(self, i):
        """Line i times -1."""
        for j, v in self.rows[i].items():
            self.rows[i][j] = self.cols[j][i] = -v
        if self.left is not None:
            self.left[i] = {k: -v for k, v in self.left[i].items()}


def _unit_pivot(elim: _SparseElim, active_rows, active_cols):
    """A +-1 entry of the active part, or None if there is none.

    Lines are taken from the shorter side: the shortest active line that
    holds a unit, and within it the unit whose crossing line is shortest
    (ties to the lowest index).  The active lines are ranked by length and
    read shortest first until one holds a unit, so a choice does not scan
    every entry.
    """
    flip = len(active_rows) > len(active_cols)
    view, active = (elim.flipped(), active_cols) if flip \
        else (elim, active_rows)
    lines, cross = view.rows, view.cols
    for i in sorted(active, key=lambda i: (len(lines[i]), i)):
        units = [j for j, v in lines[i].items() if v in (1, -1)]
        if units:
            j = min(units, key=lambda j: (len(cross[j]), j))
            return (j, i) if flip else (i, j)
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


def _unit_reduction(m: CooMatrix) -> tuple[int, CooMatrix]:
    """(k, S) with SNF(m) = I_k + SNF(S): m streams into an echelon basis
    over Z (``_streamed``) whose k pivots are all +-1, and S is the
    remainder, the vectors with no unit left, on the rows that are not
    pivots.  Raises _Int64Overflow when an entry would leave the int64
    bound, LimitExceeded when the basis would be too large."""
    basis = _streamed(m, 0)
    rest = basis.remainder()  # its rounds may add pivots
    return basis.rank, rest


def _snf_core(m: CooMatrix, transforms: bool, need_chain: bool) -> SmithResult:
    """The Smith form of m (``need_chain``) or a diagonal form with the same
    length and the same product.  Without transforms the unit pivots are
    taken first by the int64 stream and the line engine sees only the
    remainder; if the stream cannot hold the matrix, the line engine takes
    all of it in Python integers.  A matrix with no +-1 entry skips the
    stream, which could take no pivot in it."""
    if not transforms and (np.abs(m.val) == 1).any():
        try:
            units, rest = _unit_reduction(m)
        except (_Int64Overflow, LimitExceeded):
            pass
        else:
            tail = _snf_lines(rest, False, need_chain).diagonal \
                if rest.nnz else ()
            return SmithResult(m.shape, (1,) * units + tail)
    return _snf_lines(m, transforms, need_chain)


def _snf_lines(m: CooMatrix, transforms: bool, need_chain: bool
               ) -> SmithResult:
    elim = _SparseElim.of(m, transforms)
    flip = elim.flipped()
    rows, cols = elim.rows, elim.cols
    active_rows, active_cols = set(rows), set(cols)
    pivots: list[tuple[int, int]] = []

    for r, c in _pivot_spots(elim, active_rows, active_cols):
        while True:
            # Clear the pivot column with row operations, then the pivot
            # row with column operations.  A pivot that moves to another
            # column takes that column's entries along, hence the loop.
            r = elim.clear(r, c, active_rows)
            # A unit alone in its column clears its row without fill.
            if rows[r][c] in (1, -1) and len(cols[c]) == 1:
                flip.clear_unit_line(c, r)
                break
            c = flip.clear(c, r, active_cols)
            if any(k != r and k in active_rows for k in cols[c]):
                continue
            a = rows[r][c]
            if need_chain and a not in (1, -1):
                # Add the first row that holds an active entry a does not
                # divide; a unit divides every entry.
                bump = next((k for k in sorted(active_rows) if k != r and any(
                    v % a for j, v in rows[k].items() if j in active_cols)),
                    None)
                if bump is not None:
                    elim.axpy(bump, r, 1)
                    continue
            break
        pivots.append((r, c))
        active_rows.discard(r)
        active_cols.discard(c)

    diagonal = []
    for r, c in pivots:
        if rows[r][c] < 0:
            elim.negate(r)
        diagonal.append(rows[r][c])

    left = right = None
    if transforms:
        nrows, ncols = m.shape
        row_order = [r for r, _ in pivots] + sorted(
            set(range(nrows)) - {r for r, _ in pivots})
        col_order = [c for _, c in pivots] + sorted(
            set(range(ncols)) - {c for _, c in pivots})
        left = tuple(
            tuple(elim.left.get(row_order[i], {}).get(j, 0)
                  for j in range(nrows))
            for i in range(nrows))
        # right is stored column-wise: right[c] is column c of V.
        right = tuple(
            tuple(elim.right.get(col_order[j], {}).get(i, 0)
                  for j in range(ncols))
            for i in range(ncols))
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


class ChainComplex:
    """Non-negatively graded complex of free modules with sparse boundaries.

    ``boundaries[d]`` maps degree d to degree d-1.  Degrees above
    ``degree_bound`` may be only partially materialized; homology is
    trustworthy for degrees <= degree_bound.  A complex whose top boundary,
    that of degree_bound + 1, is streamed rather than held has
    ``holds_top`` False: ``boundary`` then refuses that degree instead of
    reading it as zero.
    """

    def __init__(self, ring: Ring, ranks: dict[int, int],
                 boundaries: dict[int, CooMatrix], degree_bound: int,
                 holds_top: bool = True):
        self.ring = ring
        self.ranks = {d: r for d, r in sorted(ranks.items()) if r}
        self.boundaries = {}
        self.degree_bound = degree_bound
        self.holds_top = holds_top
        # Set once verify_boundary_condition has passed.
        self.verified = False
        # The top boundary's echelon basis (``stream_top``), and the Smith
        # diagonal of each boundary found so far, by degree.
        self.top_basis, self._diagonals = None, {}
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
            if d == self.degree_bound + 1 and not self.holds_top:
                raise ValueError(f"the complex does not hold its top "
                                 f"boundary, of degree {d}")
            return CooMatrix.zero((self.rank(d - 1), self.rank(d)))
        return got

    def diagonal(self, d: int) -> tuple[int, ...]:
        """The Smith diagonal of boundary d, found once."""
        if d not in self._diagonals:
            self._diagonals[d] = _diagonal(self.boundary(d), self.ring)
        return self._diagonals[d]

    def lattice(self, d: int) -> CooMatrix:
        """Boundary d, or columns that span its lattice for a streamed top."""
        if d == self.degree_bound + 1 and self.top_basis is not None:
            return self.top_basis.columns()
        return self.boundary(d)

    def verify_boundary_condition(self):
        for d in sorted(self.boundaries):
            if d + 1 in self.boundaries:
                if not is_zero_product(self.boundaries[d],
                                       self.boundaries[d + 1]):
                    raise IntegrityError(
                        f"boundary condition d*d != 0 at degree {d + 1}")
        self.verified = True

    def permuted(self, perms: dict[int, list[int]]) -> "ChainComplex":
        """Reorder the basis in selected degrees (perm[i] = new position)."""
        boundaries = {}
        for d, m in self.boundaries.items():
            boundaries[d] = m.permuted(row_perm=perms.get(d - 1),
                                       col_perm=perms.get(d))
        return ChainComplex(self.ring, dict(self.ranks), boundaries,
                            self.degree_bound, self.holds_top)

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


def homology(cx: ChainComplex, degree_bound: int | None = None,
             top=None) -> HomologyTable:
    """Homology of a complex: Betti numbers over a field, free rank plus
    invariant-factor torsion over the integers.

    ``top`` may stream the boundary of degree cx.degree_bound + 1, which
    cx then does not hold: a callable giving matrices of its columns in
    order (``stream_top``).  Without ``top``, a complex that does not hold
    that boundary and has not streamed it is refused for its own degree
    bound (ValueError).

    Raises IntegrityError if the boundaries do not compose to zero; a
    complex that has passed that check already is not checked again.
    """
    bound = cx.degree_bound if degree_bound is None \
        else min(degree_bound, cx.degree_bound)
    if top is not None and (bound != cx.degree_bound
                            or cx.degree_bound + 1 in cx.boundaries):
        raise ValueError("a streamed top boundary needs the complex's own "
                         "degree bound and no top boundary in the complex")
    if not cx.verified:
        cx.verify_boundary_condition()
    if top is not None:
        stream_top(cx, top)
    diag = [cx.diagonal(d) for d in range(bound + 2)]
    groups = {}
    for d in range(bound + 1):
        betti = cx.rank(d) - len(diag[d]) - len(diag[d + 1])
        if betti < 0:
            raise IntegrityError(f"negative rank count in degree {d}")
        groups[d] = HomologyGroup(betti,
                                  tuple(v for v in diag[d + 1] if v > 1))
    return HomologyTable(cx.ring, groups, bound)


def _diagonal(m: CooMatrix, ring: Ring) -> tuple[int, ...]:
    """Invariant factors of m over Z; over a field, a 1 per unit of rank."""
    if ring.kind == "Z":
        return smith_normal_form(m).diagonal if m.nnz else ()
    return (1,) * matrix_rank(m, ring)


def _stream_diagonal(basis: _EchelonBasis, ring: Ring) -> tuple[int, ...]:
    """_diagonal of the columns streamed into basis: pivots, then remainder."""
    rest = basis.remainder()
    return (1,) * basis.rank + (_diagonal(rest, ring) if rest.nnz else ())


def stream_top(cx: ChainComplex, batches):
    """Stream the boundary of degree d = cx.degree_bound + 1, which cx does
    not hold, given by ``batches()`` as matrices of its columns in order.
    Each is checked against d_{d-1} for d∘d = 0, goes into one echelon
    basis on the rows (p = 0 over Z and Q), lead columns seeded, and is
    dropped, so no more than one is held; the basis and the Smith diagonal
    stay on cx.  A basis too large is refused (LimitExceeded) on every
    ring.  If the int64 stream over Z or Q trips, a second pass builds the
    boundary whole, which cx then holds and the line engine takes."""
    d = cx.degree_bound + 1
    below = cx.boundary(d - 1)
    seen = 0
    try:
        basis = _EchelonBasis(cx.rank(d - 1), cx.ring.p or 0, cx.rank(d))
        for m in batches():
            seen += m.shape[1]
            # A batch with the wrong number of rows fails the product.
            if not is_zero_product(below, m):
                raise IntegrityError(
                    f"boundary condition d*d != 0 at degree {d}")
            basis.absorb_columns(m)
            del m  # dropped before the next batch is built
        cx._diagonals[d] = _stream_diagonal(basis, cx.ring)
        cx.top_basis = basis
    except _Int64Overflow:
        parts, seen = [], 0
        for m in batches():
            parts.append((m.row, m.col.astype(np.int64) + seen, m.val))
            seen += m.shape[1]
        cx.boundaries[d] = join_strips((cx.rank(d - 1), cx.rank(d)), parts)
        cx.holds_top = True
        cx.verify_boundary_condition()
        cx.diagonal(d)  # kept on cx, as a streamed top's is
    if seen != cx.rank(d):
        raise ValueError(f"the batches of boundary {d} have {seen} columns, "
                         f"expected {cx.rank(d)}")


# ---------------------------------------------------------------------------
# Multicomplexes and their total complex.

class Multicomplex:
    """The ranks of a multicomplex per multi-index, and the basis of its
    total complex laid out once: in each total degree the multi-indices come
    in lexicographic order (``by_degree``), each block starting at
    ``offsets[idx]``, and ``degree_ranks[d]`` is the rank in total degree d.
    """

    def __init__(self, ranks: dict[tuple, int]):
        self.ranks = dict(ranks)
        self.by_degree: dict[int, list[tuple]] = {}
        for idx in sorted(self.ranks):
            self.by_degree.setdefault(total_degree(idx), []).append(idx)
        self.offsets: dict[tuple, int] = {}
        self.degree_ranks: dict[int, int] = {}
        for d, idxs in sorted(self.by_degree.items()):
            pos = 0
            for idx in idxs:
                self.offsets[idx] = pos
                pos += self.ranks[idx]
            self.degree_ranks[d] = pos


def lowered(idx: tuple, j: int) -> tuple:
    return idx[:j] + (idx[j] - 1,) + idx[j + 1:]


def total_degree(idx) -> int:
    return sum(idx)


def join_strips(shape, parts: list, dtype=None) -> CooMatrix:
    """The matrix of ``shape`` whose entries are the column strips ``parts``,
    each (row, col, val) in canonical order, listed in column order and
    concatenated in ``dtype``, or compact if they are.  The list is
    emptied, and each of the three arrays of the strips is dropped once
    it is copied out."""
    fields = [list(a) for a in zip(*parts)] or [[], [], []]
    parts.clear()
    joined = []
    for arrays in fields:
        joined.append(np.concatenate(
            arrays or [np.empty(0, dtype=np.int64)], dtype=dtype))
        arrays.clear()
    return CooMatrix(shape, *joined, _canonical=True)


def total_complex(mc: Multicomplex, strips: dict, ring: Ring,
                  degree_bound: int) -> ChainComplex:
    """Total complex of a multicomplex given by its column strips.

    ``strips[idx]`` is (row, col, val), the columns of multi-index idx in
    the boundary of total degree |idx|, in canonical order and in the
    layout of the total complex: the direction-j differential carries the
    Koszul sign (-1)^(q_1+..+q_{j-1}).  In the layout's order the strips
    concatenate to each boundary in canonical order, which one check
    confirms.

    The top degree, degree_bound + 1, is held only if one of its strips is
    given or it has rank 0; otherwise its boundary is unknown, not zero,
    and the complex says so (``holds_top``).

    The boundaries are checked to square to zero; a failure means the
    per-direction differentials were not commuting and raises
    IntegrityError.
    """
    ranks = mc.degree_ranks
    top = degree_bound + 1
    holds_top = not ranks.get(top) or any(
        idx in strips for idx in mc.by_degree[top])
    boundaries = {}
    for d, idxs in sorted(mc.by_degree.items()):
        if d == 0 or d > top or (d == top and not holds_top):
            continue
        boundaries[d] = join_strips(
            (ranks.get(d - 1, 0), ranks.get(d, 0)),
            [strips[idx] for idx in idxs if idx in strips], np.int64)

    cx = ChainComplex(ring, ranks, boundaries, degree_bound, holds_top)
    try:
        cx.verify_boundary_condition()
    except IntegrityError as exc:
        raise IntegrityError(f"sign consistency failed: {exc}") from exc
    return cx


# ---------------------------------------------------------------------------
# Induced maps on homology.

def induced_map_is_iso_field(src: ChainComplex, tgt: ChainComplex,
                             blocks: dict[int, CooMatrix], degree: int,
                             ring: Ring) -> bool:
    """Whether a chain map induces an isomorphism on degree-d homology over a
    field.

    With A = src.boundary(d), F = blocks[d] and B = tgt.boundary(d+1), the
    block matrix M = [[B, F], [0, A]] has rank
    rank A + dim(F(ker A) + im B), so the image of H_d(src) in H_d(tgt) has
    dimension rank M - rank A - rank B.  The map is an isomorphism iff the
    two homology dimensions agree and that image fills H_d(tgt).  Every
    answer is an exact rank of a sparse matrix: no kernel basis and no
    dense matrix is built.

    The columns of M stream into one echelon basis (over Q a rank adds
    that of the remainder): B's first, on the target's rows alone, for
    rank B, kept on the target as the other ranks are on their complexes;
    in the top degree that is the target's kept basis, copied before it is
    extended.  Only if the two dimensions agree and are nonzero is it
    extended by A's rows and fed [F; A] for rank M, so B is eliminated
    once.  If the int64 stream over Q trips, M is ranked whole, with
    ``lattice`` for B; a basis too large is refused (LimitExceeded).
    """
    a, f = src.boundary(degree), blocks[degree]
    rows = tgt.rank(degree)
    if f.shape != (rows, a.shape[1]):
        raise ValueError(f"chain map block {f.shape} does not fit the "
                         f"complexes in degree {degree}")
    rank_a = len(src.diagonal(degree))
    hs = src.rank(degree) - rank_a - len(src.diagonal(degree + 1))
    ht = tgt.rank(degree) - len(tgt.diagonal(degree))
    kept = tgt.top_basis if degree == tgt.degree_bound else None
    try:
        if kept is None:
            b = tgt.boundary(degree + 1)
            basis = _EchelonBasis(rows, ring.p or 0, b.shape[1])
            basis.absorb_columns(b)
            tgt._diagonals[degree + 1] = _stream_diagonal(basis, ring)
        rank_b = len(tgt.diagonal(degree + 1))
        if hs != ht - rank_b or hs == 0:
            return hs == ht - rank_b
        basis = basis if kept is None else copy.deepcopy(kept)
        basis.extend(a.shape[0], a.shape[1])
        basis.absorb_columns(place_blocks(
            (rows + a.shape[0], a.shape[1]), [(0, 0, f, 1), (rows, 0, a, 1)]))
        rank_m = len(_stream_diagonal(basis, ring))
    except _Int64Overflow:
        b, rank_b = tgt.lattice(degree + 1), len(tgt.diagonal(degree + 1))
        if hs != ht - rank_b or hs == 0:
            return hs == ht - rank_b
        rank_m = matrix_rank(place_blocks(
            (rows + a.shape[0], b.shape[1] + a.shape[1]),
            [(0, 0, b, 1), (0, b.shape[1], f, 1), (rows, b.shape[1], a, 1)]),
            ring)
    return rank_m - rank_a - rank_b == hs


def induced_map_is_surjective_integer(src: ChainComplex, tgt: ChainComplex,
                                      blocks: dict[int, CooMatrix],
                                      degree: int) -> bool:
    """Whether a chain map is onto on integral homology in degree d.

    With K a kernel basis of src.boundary(d), F = blocks[d] and
    B = tgt.boundary(d+1), the columns of G = [F K | B] span
    L = F(Z_d S) + B_d T inside Z_d T, a saturated lattice of rank
    z = rank C_d T - rank d_d T.  L = Z_d T iff G's Smith form has exactly
    z invariant factors, all 1, that is iff a diagonal form of G has z
    entries, all +-1 (their product is, up to sign, the product of the
    invariant factors).  A column that is not a cycle answers
    False.  The kernel basis needs dense transforms, which limits this to
    complexes of modest rank.
    """
    if max(src.rank(degree), tgt.rank(degree),
           tgt.rank(degree + 1)) > 20_000:
        raise LimitExceeded("integral surjectivity certificate needs dense "
                            "transforms; complex too large")
    dt = tgt.boundary(degree)
    z = tgt.rank(degree) - len(tgt.diagonal(degree))
    if z == 0:
        return True
    f, b = blocks[degree], tgt.lattice(degree + 1)
    kernel = integer_kernel_basis(src.boundary(degree))
    # F K and d_d F K are taken in int64.  No sum in them exceeds the
    # largest kernel entry times the absolute sums of F and of d_d.
    big = max((max(map(abs, vec)) for vec in kernel), default=0)
    if big * int(np.abs(f.val).sum()) * int(np.abs(dt.val).sum()) >= 1 << 62:
        raise LimitExceeded("integral surjectivity certificate: cycle basis "
                            "entries too large for int64 products")
    dense = np.asarray(kernel, dtype=np.int64).reshape(len(kernel),
                                                       src.rank(degree))
    kc, kr = np.nonzero(dense)
    fk = coo_mul(f, CooMatrix((src.rank(degree), len(kernel)), kr, kc,
                              dense[kc, kr], _canonical=True))
    g = place_blocks((tgt.rank(degree), fk.shape[1] + b.shape[1]),
                     [(0, 0, fk, 1), (0, fk.shape[1], b, 1)])
    if not is_zero_product(dt, g):
        return False
    diagonal = _snf_core(g, transforms=False, need_chain=False).diagonal
    return len(diagonal) == z and all(v == 1 for v in diagonal)


def dumps_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
