"""Chain assembly in canonical order.

The boundaries of normalized chains, assembled one column strip per
multi-index, the boundaries of total complexes, the blocks of chain maps
and the block matrix of the induced-isomorphism test are built in
column-major order, with no sort.  Each is checked against a naive
construction that sorts, and the homology read off them against dense
pure-Python references and the universal coefficient theorem.
"""

import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from gammahom import simplicial
from gammahom.chains import (GF, QQ, ZZ, ChainComplex, CooMatrix, Multicomplex,
                             coo_mul, homology, induced_map_is_iso_field,
                             induced_map_is_surjective_integer, matrix_rank,
                             place_blocks, smith_normal_form, stream_top,
                             total_complex)
from gammahom.errors import IntegrityError, LimitExceeded
from gammahom.gamma import (_VECTOR_MIN, FinPointedSet, PointedMap,
                            constant_map, identity_map)
from gammahom.segal import (block_inclusion_maps, discrete_abelian,
                            mu_pullback, parse_space, spectrum_level,
                            structure_map, tower, tower_map,
                            wedge_case_gamma, wedge_gamma)
from gammahom.simplicial import (MSMap, MSSet, NormalizedChains,
                                 chain_map_induces_iso, chains_of_map,
                                 circle, identity_msmap, indices_up_to,
                                 lowered, product_ss, product_to_smash_msmap,
                                 raised, smash_ss, suspension_ss, wedge_ss,
                                 wedge_to_product_msmap)


BIG_PRIME = 2147483647


def resorted(m):
    """m rebuilt by the general sort from its own entries, shuffled."""
    perm = np.random.default_rng(m.nnz).permutation(m.nnz)
    return CooMatrix(m.shape, m.row[perm], m.col[perm], m.val[perm])


def level(spec, n):
    return lambda: spectrum_level(parse_space(spec), n)


# name: (builder, degree bound); small enough for dense references.
SPACES = {
    "circle": (circle, 4),
    "circle x circle": (lambda: product_ss(circle(), circle()), 3),
    "circle ^ circle": (lambda: smash_ss(circle(), circle()), 4),
    "circle v circle": (lambda: wedge_ss(circle(), circle()), 3),
    "susp(circle)": (lambda: suspension_ss(circle()), 3),
    "t:circle level 2": (level("t:circle", 2), 4),
    "sphere level 2": (level("sphere", 2), 4),
    "smash(ab:2,ab:2) level 1": (level("smash(ab:2,ab:2)", 1), 2),
    "wedge(ab:2,sphere) level 2": (level("wedge(ab:2,sphere)", 2), 3),
    "ab:2 level 1": (level("ab:2", 1), 5),
    "ab:2 level 2": (level("ab:2", 2), 3),
}


def naive_face_block(x, idx, j, src_codes, tgt_codes):
    """The face sum of direction j at idx, one face of one cell at a time."""
    row_of = {code: r for r, code in enumerate(tgt_codes.tolist())}
    entries = {}
    for col, code in enumerate(src_codes.tolist()):
        for i in range(idx[j] + 1):
            r = row_of.get(x.face(idx, j, i)(code))
            if r is not None:
                entries[r, col] = entries.get((r, col), 0) + (-1) ** i
    return CooMatrix.from_entries((len(tgt_codes), len(src_codes)),
                                  {rc: v for rc, v in entries.items() if v})


def naive_layout(ranks):
    """Multi-indices per total degree in lexicographic order, the offset of
    each block and the rank per total degree."""
    by_degree = {}
    for idx in sorted(ranks):
        by_degree.setdefault(sum(idx), []).append(idx)
    offsets, degree_ranks = {}, {}
    for d, idxs in by_degree.items():
        degree_ranks[d] = 0
        for idx in idxs:
            offsets[idx] = degree_ranks[d]
            degree_ranks[d] += ranks[idx]
    return by_degree, offsets, degree_ranks


def naive_blocks(x, codes):
    """The face sum of every direction j at every level idx, as
    {(idx, j): matrix} for the nonzero ones."""
    blocks = {}
    for idx in codes:
        for j in range(x.directions):
            if idx[j]:
                m = naive_face_block(x, idx, j, codes[idx],
                                     codes[lowered(idx, j)])
                if m.nnz:
                    blocks[idx, j] = m
    return blocks


def naive_total(ranks, blocks, degree_bound):
    """Boundaries of the total complex of the multicomplex with these
    ranks and direction blocks {(idx, j): matrix}, with the Koszul sign
    (-1)^(q_1+..+q_{j-1}) on direction j, concatenated and then sorted."""
    by_degree, offsets, degree_ranks = naive_layout(ranks)
    out = {}
    for d in range(1, degree_bound + 2):
        rows, cols, vals = [], [], []
        for idx in by_degree.get(d, []):
            for j in range(len(idx)):
                block = blocks.get((idx, j))
                if block is None:
                    continue
                sign = (-1) ** sum(idx[:j])
                for r, c, v in block.entries():
                    rows.append(offsets[lowered(idx, j)] + r)
                    cols.append(offsets[idx] + c)
                    vals.append(sign * v)
        out[d] = CooMatrix((degree_ranks.get(d - 1, 0),
                            degree_ranks.get(d, 0)), rows, cols, vals)
    return out


def test_spaces_have_coinciding_faces():
    # Coinciding faces merge into +-2 entries or cancel; both must occur.
    twos = cancelled = 0
    for build, bound in SPACES.values():
        x = build()
        nc = NormalizedChains(x, bound)
        for (idx, j), m in naive_blocks(x, nc.codes).items():
            twos += int((abs(m.val) == 2).sum())
            lower = nc.codes[lowered(idx, j)]
            slots = sum(int(np.isin(x.face(idx, j, i).as_array[
                nc.codes[idx]], lower).sum()) for i in range(idx[j] + 1))
            cancelled += slots - int(abs(m.val).sum())
    assert twos and cancelled


@pytest.mark.parametrize("name", sorted(SPACES))
def test_normalized_chains_match_naive_assembly(name):
    build, bound = SPACES[name]
    x = build()
    nc = NormalizedChains(x, bound)
    ranks = {idx: len(codes) for idx, codes in nc.codes.items()}
    cx = nc.complex(ZZ)
    naive = naive_total(ranks, naive_blocks(x, nc.codes), bound)
    assert sorted(naive) == list(range(1, bound + 2))
    for d, want in naive.items():
        assert cx.boundary(d) == resorted(cx.boundary(d))
        assert cx.boundary(d) == want


def unit_square(commuting):
    """A 2-direction MSSet with one cell at every level: the face d_0 of
    each direction is the identity into the square (0, 0), (1, 0), (0, 1),
    (1, 1), and every other face, and every degeneracy, is the constant
    map.  Unless ``commuting``, d_0 in direction 1 at (1, 1) is constant
    too, so the direction-0 face of (1, 1) meets (0, 0) and the other does
    not."""
    cell = FinPointedSet(1)
    ident, const = identity_map(1), constant_map(cell, cell)

    def face(idx, j, i):
        square = idx in ((1, 0), (0, 1)) or idx == (1, 1) and (
            j == 0 or commuting)
        return ident if i == 0 and square else const

    return MSSet(2, lambda idx: cell, face, lambda idx, j, i: const,
                 name="square")


def test_faces_that_do_not_commute_are_refused():
    # Degree 1 is (0, 1), (1, 0) and degree 2 is (0, 2), (1, 1), (2, 0).
    cx = NormalizedChains(unit_square(True), 1).complex(ZZ)
    assert cx.boundary(1).to_dense() == [[1, 1]]
    assert cx.boundary(2).to_dense() == [[0, 1, 0], [0, -1, 0]]
    with pytest.raises(IntegrityError, match="sign consistency failed"):
        NormalizedChains(unit_square(False), 1).complex(ZZ)


# ---------------------------------------------------------------------------
# Which structure maps assembly builds.

def recording(x):
    """x with the same levels and maps, and the list of the faces and
    degeneracies asked of it, as (kind, idx, j)."""
    calls = []

    def face(idx, j, i):
        calls.append(("face", idx, j))
        return x.face(idx, j, i)

    def degeneracy(idx, j, i):
        calls.append(("degeneracy", idx, j))
        return x.degeneracy(idx, j, i)

    return MSSet(x.directions, x.cell, face, degeneracy, name=x.name), calls


@pytest.mark.parametrize("build, bound", [
    (level("ab:2", 2), 3),
    (lambda: smash_ss(circle(), circle()), 4),
], ids=["ab:2 level 2", "circle ^ circle"])
def test_assembly_builds_no_map_that_misses_every_cell(build, bound):
    # A degeneracy into or out of a level that holds the basepoint alone
    # marks no cell, and a face into a level with no cells gives a zero
    # block: assembly asks for neither.
    x, calls = recording(build())
    nc = NormalizedChains(x, bound)
    assert {kind for kind, _, _ in calls} == {"face", "degeneracy"}
    for kind, idx, j in calls:
        if kind == "degeneracy":
            assert x.cell(idx).size and x.cell(raised(idx, j)).size, idx
        else:
            assert len(nc.codes[lowered(idx, j)]), idx


def naive_chains(x, bound):
    """Codes and direction blocks of the normalized chains, marking
    degenerate cells with every degeneracy and building every face
    block."""
    codes = {}
    for idx in indices_up_to(x.directions, bound + 1):
        alive = np.ones(x.cell(idx).points, dtype=bool)
        alive[0] = False
        for j in range(x.directions):
            for i in range(idx[j]):
                alive[x.degeneracy(lowered(idx, j), j, i).as_array] = False
        codes[idx] = np.flatnonzero(alive)
    return codes, naive_blocks(x, codes)


@pytest.mark.parametrize("spec", ["ab:2", "sphere", "B(ab:2)", "mu(2)*ab:2",
                                  "wedge(ab:2,sphere)"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_normalized_chains_match_every_map_built(spec, n):
    bound = 4
    nc = NormalizedChains(spectrum_level(parse_space(spec), n), bound)
    codes, blocks = naive_chains(spectrum_level(parse_space(spec), n), bound)
    assert nc.codes.keys() == codes.keys()
    for idx, want in codes.items():
        assert np.array_equal(nc.codes[idx], want), idx
    ranks = {idx: len(c) for idx, c in codes.items()}
    assert nc.multicomplex.offsets == naive_layout(ranks)[1]
    cx = nc.complex(ZZ)
    for d, want in naive_total(ranks, blocks, bound).items():
        assert cx.boundary(d) == want, d


MAPS = {
    "id(circle x circle)": (
        lambda: identity_msmap(product_ss(circle(), circle())), 3),
    "wedge > product": (lambda: wedge_to_product_msmap(circle(), circle()),
                        3),
    "product > smash": (lambda: product_to_smash_msmap(circle(), circle()),
                        3),
    "rho(ab:2) level 1": (
        lambda: tower_map(structure_map(discrete_abelian([2])), 1), 3),
}


def naive_block(f, src, tgt, d):
    """The matrix of f in total degree d, entry by entry."""
    by_degree, src_offsets, src_ranks = naive_layout(src.multicomplex.ranks)
    _, tgt_offsets, tgt_ranks = naive_layout(tgt.multicomplex.ranks)
    entries = {}
    for idx in by_degree.get(d, []):
        row_of = {code: r for r, code in enumerate(tgt.codes[idx].tolist())}
        for col, code in enumerate(src.codes[idx].tolist()):
            r = row_of.get(f.component(idx)(code))
            if r is not None:
                entries[tgt_offsets[idx] + r, src_offsets[idx] + col] = 1
    return CooMatrix.from_entries(
        (tgt_ranks.get(d, 0), src_ranks.get(d, 0)), entries)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_chain_map_blocks_match_naive_assembly(name):
    build, bound = MAPS[name]
    f = build()
    # chains_of_map builds its own normalized chains; these are the same.
    src = NormalizedChains(f.source, bound)
    tgt = NormalizedChains(f.target, bound)
    chm = chains_of_map(f, ZZ, bound)
    source_cx, target_cx = src.complex(ZZ), tgt.complex(ZZ)
    for d in range(bound + 1):
        assert chm.source.boundary(d) == source_cx.boundary(d)
        assert chm.target.boundary(d) == target_cx.boundary(d)
        m = chm.block(d)
        assert m == resorted(m)
        assert m == naive_block(f, src, tgt, d)
    # The top degree, bound + 1, streamed: the map holds no block there,
    # and each complex keeps the Smith diagonal of its top boundary.
    with pytest.raises(ValueError, match="degree bound"):
        chm.block(bound + 1)
    for cx, whole in ((chm.source, source_cx), (chm.target, target_cx)):
        assert cx.diagonal(bound + 1) == \
            smith_normal_form(whole.boundary(bound + 1)).diagonal


def wedge_fold(n):
    """The fold of the wedge of the (1, 1) inflations of ab:2 at level n."""
    first, second, _ = block_inclusion_maps(1, 1, discrete_abelian([2]))
    return tower_map(wedge_case_gamma(first, second, wedge_gamma(
        first.source, second.source)), n)


TOWER_MAPS = {
    "rho(ab:2) level 2": (
        lambda: tower_map(structure_map(discrete_abelian([2])), 2), 3),
    "rho(ab:2) level 3": (
        lambda: tower_map(structure_map(discrete_abelian([2])), 3), 3),
    "wedge fold(ab:2) level 2": (lambda: wedge_fold(2), 3),
    "wedge fold(ab:2) level 3": (lambda: wedge_fold(3), 3),
}


def whole_iso(f, ring, bound):
    """Per degree up to bound, whether f induces an isomorphism, read off
    the whole complexes and blocks, checked to commute by products."""
    src, tgt = NormalizedChains(f.source, bound), \
        NormalizedChains(f.target, bound)
    source_cx, target_cx = src.complex(ring), tgt.complex(ring)
    blocks = {d: naive_block(f, src, tgt, d) for d in range(bound + 2)}
    for d in range(1, bound + 2):
        assert coo_mul(target_cx.boundary(d), blocks[d]) == \
            coo_mul(blocks[d - 1], source_cx.boundary(d))
    if ring.is_field:
        return [induced_map_is_iso_field(source_cx, target_cx, blocks, d,
                                         ring) for d in range(bound + 1)]
    return [homology(source_cx, d).group(d) == homology(target_cx, d).group(d)
            and induced_map_is_surjective_integer(source_cx, target_cx,
                                                  blocks, d)
            for d in range(bound + 1)]


@pytest.mark.parametrize("ring", [GF(2), GF(3), GF(BIG_PRIME), ZZ, QQ],
                         ids=str)
@pytest.mark.parametrize("name", sorted({**MAPS, **TOWER_MAPS}))
def test_streamed_chain_maps_agree_with_whole_complexes(name, ring):
    check_streamed_chain_map(name, ring)


def check_streamed_chain_map(name, ring):
    build, bound = {**MAPS, **TOWER_MAPS}[name]
    f = build()
    chm = chains_of_map(f, ring, bound)
    # Over every ring the tower maps stream a top degree: no complex of
    # theirs holds its top, and each keeps the basis of its columns.
    if name in TOWER_MAPS:
        for cx in (chm.source, chm.target):
            assert not cx.holds_top and cx.top_basis is not None
    want = whole_iso(f, ring, bound)
    # The top degree twice: the kept basis is copied, not used up.
    got = [chain_map_induces_iso(chm, d) for d in range(bound + 1)]
    assert got == want
    assert chain_map_induces_iso(chm, bound) == want[bound]


@pytest.mark.parametrize("ring", [GF(3), ZZ], ids=str)
def test_a_complex_finds_each_boundary_diagonal_once(monkeypatch, ring):
    # The iso tests, the certificate and homology read each boundary's
    # Smith diagonal off its complex, which finds it once: asked again,
    # no degree finds it anew.  (Over Q the iso test also ranks what its
    # streams leave.)
    from gammahom import chains
    build, bound = TOWER_MAPS["wedge fold(ab:2) level 2"]
    f = build()
    want = [homology(NormalizedChains(x, bound).complex(ring))
            for x in (f.source, f.target)]
    found = []
    diagonal = chains._diagonal

    def counted(m, ring):
        found.append(m.shape)
        return diagonal(m, ring)

    monkeypatch.setattr(chains, "_diagonal", counted)
    chm = chains_of_map(f, ring, bound)
    first = [chain_map_induces_iso(chm, d) for d in range(bound + 1)]
    assert found
    found.clear()
    assert [chain_map_induces_iso(chm, d) for d in range(bound + 1)] == first
    assert [homology(cx) for cx in (chm.source, chm.target)] == want
    assert not found


def relabelled(f, idx, change):
    """f with its component at idx changed by change(table) in place."""
    def component(at):
        g = f.component(at)
        if at != idx:
            return g
        table = g.as_array.copy()
        change(table)
        return PointedMap(g.source, g.target, table)

    return MSMap(f.source, f.target, component, name="bad")


def test_top_degree_that_does_not_commute_is_refused():
    check_refusals()


def check_refusals():
    # The identity up to degree 3, changed at one multi-index: at (2, 2) of
    # ab:2 level 2, in the top degree 4, and at (1, 2) of ab:3 level 2, in
    # degree 3, below the top.  The cells below it commute.
    for spec, at in (("ab:2", (2, 2)), ("ab:3", (1, 2))):
        x = spectrum_level(parse_space(spec), 2)
        nc, d = NormalizedChains(x, 3), sum(at)
        boundary = nc.complex(ZZ).boundary(d)
        first = nc.multicomplex.offsets[at]
        columns = [list(zip(boundary.row[boundary.col == first + c].tolist(),
                            boundary.val[boundary.col == first + c].tolist()))
                   for c in range(len(nc.codes[at]))]
        # Two cells with different boundaries, the first of them nonzero.
        b = next(c for c in range(1, len(columns)) if columns[c] != columns[0])
        a_code, b_code = nc.codes[at][[0, b]]
        assert columns[0]

        def swap(table):  # a bad image column
            table[[a_code, b_code]] = table[[b_code, a_code]]

        def to_basepoint(table):  # a column sent to the basepoint
            table[a_code] = 0

        for ring in (GF(2), ZZ, QQ):
            chains_of_map(relabelled(identity_msmap(x), at, lambda t: None),
                          ring, 3)
            for change in (swap, to_basepoint):
                with pytest.raises(IntegrityError, match=f"degree {d}"):
                    chains_of_map(relabelled(identity_msmap(x), at, change),
                                  ring, 3)


def split_batches(monkeypatch):
    """Top batches of at most 5 columns, multi-indices split after every 2
    cells and image checks 2 cells at a time.  Returns a list that records
    (map name, degree, idx) for each image check: a multi-index checked
    more than once in a degree spans batches."""
    monkeypatch.setattr(simplicial, "_TOP_BATCH", 5)
    monkeypatch.setattr(simplicial, "_STRIP_CHUNK", 2)
    checks = []
    check = simplicial._check_image_columns

    def recorded(f, tgt, d, idx, *rest):
        checks.append((f.name, d, idx))
        return check(f, tgt, d, idx, *rest)

    monkeypatch.setattr(simplicial, "_check_image_columns", recorded)
    return checks


@pytest.mark.parametrize("ring", [GF(2), GF(3), GF(BIG_PRIME), ZZ, QQ],
                         ids=str)
def test_streamed_chain_maps_agree_across_split_batches(monkeypatch, ring):
    checks = split_batches(monkeypatch)
    spanned = []
    for name in sorted({**MAPS, **TOWER_MAPS}):
        checks.clear()
        check_streamed_chain_map(name, ring)
        spanned += [key for key in set(checks) if checks.count(key) > 1]
    # Held boundaries pass as one batch; streamed tops, over every ring,
    # split multi-indices.
    assert spanned


def test_split_top_batches_that_do_not_commute_are_refused(monkeypatch):
    checks = split_batches(monkeypatch)
    check_refusals()
    assert any(checks.count(key) > 1 for key in checks)


def test_a_complex_without_its_top_boundary_is_refused():
    nc = NormalizedChains(spectrum_level(parse_space("ab:2"), 2), 3)
    lower = total_complex(nc.multicomplex, nc.strips, GF(2), 3)
    assert not lower.holds_top
    with pytest.raises(ValueError, match="top boundary"):
        homology(lower)
    whole = homology(nc.complex(GF(2)))
    assert whole.group(3).free_rank == 1
    assert homology(lower, 2) == homology(nc.complex(GF(2)), 2)
    assert nc.homology(GF(2)) == whole
    chm = chains_of_map(identity_msmap(nc.x), GF(2), 3)
    for cx in (chm.source, chm.target):
        with pytest.raises(ValueError, match="top boundary"):
            cx.boundary(4)
    with pytest.raises(ValueError, match="degree bound"):
        chm.block(4)
    with pytest.raises(ValueError, match="degree bound"):
        chain_map_induces_iso(chm, 4)


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
def test_integral_chain_map_builds_each_top_once(monkeypatch, ring):
    # Over Z and Q the map streams each top once, and the iso test in the
    # top degree takes what the complexes kept of it: it builds neither
    # again.
    builds = []
    strips_of = NormalizedChains._strips_of
    top_batches = NormalizedChains.top_batches

    def counted_strips_of(self, d):
        if d == self.degree_bound + 1:
            builds.append(self)
        return strips_of(self, d)

    def counted_top_batches(self):
        builds.append(self)
        return top_batches(self)

    monkeypatch.setattr(NormalizedChains, "_strips_of", counted_strips_of)
    monkeypatch.setattr(NormalizedChains, "top_batches", counted_top_batches)
    build, bound = TOWER_MAPS["rho(ab:2) level 2"]
    chm = chains_of_map(build(), ring, bound)
    chain_map_induces_iso(chm, bound)
    assert sorted(builds.count(nc) for nc in set(builds)) == [1, 1]


@pytest.mark.parametrize("ring", [GF(2), GF(3), GF(BIG_PRIME), ZZ, QQ],
                         ids=str)
@pytest.mark.parametrize("name", sorted(TOWER_MAPS))
def test_chain_maps_take_the_levels_a_homology_reduced(monkeypatch, name,
                                                       ring):
    # Both sides reduced as spectrum_homology reduces a tower level: the
    # chain map builds neither again, and over every ring no top streams
    # into a rank again.  The top degree's answer is asked for twice, and
    # the target's kept basis keeps its rank.
    build, bound = TOWER_MAPS[name]
    f = build()
    reduced = [(nc, nc.reduced(ring)[0]) for nc in (
        NormalizedChains(f.source, bound), NormalizedChains(f.target, bound))]
    basis = reduced[1][1].top_basis
    assert basis is not None and reduced[0][1].top_basis is not None
    rank = basis.rank
    built, streamed = [], []
    init, stream_top = NormalizedChains.__init__, simplicial.stream_top

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_stream_top(*args):
        streamed.append(args)
        return stream_top(*args)

    monkeypatch.setattr(NormalizedChains, "__init__", counted_init)
    monkeypatch.setattr(simplicial, "stream_top", counted_stream_top)
    chm = chains_of_map(f, ring, bound, reduced=reduced)
    assert (chm.source, chm.target) == (reduced[0][1], reduced[1][1])
    assert built == streamed == []
    want = whole_iso(f, ring, bound)
    assert [chain_map_induces_iso(chm, d) for d in range(bound + 1)] == want
    assert chain_map_induces_iso(chm, bound) == want[bound]
    assert basis.rank == rank


def test_streamed_chain_map_holds_one_batch_of_the_top_degree():
    # The segal suite's largest map: the wedge fold at level 4 up to
    # degree 6.  Its chain map and top-degree iso test peak well below
    # the whole complexes of both sides and their iso test; they would not
    # if the top degree were built whole.
    f, ring = wedge_fold(4), GF(2)
    chm = chains_of_map(f, ring, 6)  # builds the structure maps

    def peak(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def whole():
        src = NormalizedChains(f.source, 6).complex(ring)
        tgt = NormalizedChains(f.target, 6).complex(ring)
        return induced_map_is_iso_field(src, tgt, chm.blocks, 6, ring)

    def streamed():
        return chain_map_induces_iso(chains_of_map(f, ring, 6), 6)

    (want, whole_peak), (got, streamed_peak) = peak(whole), peak(streamed)
    assert want is got is True
    assert streamed_peak < 0.5 * whole_peak, (streamed_peak, whole_peak)


# ---------------------------------------------------------------------------
# Random multicomplexes: tensor products of random complexes.

def unimodular(rng, n):
    """A random integer n x n matrix of determinant 1 and its inverse."""
    u, inv = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((1, -1))
        u[i] += t * u[j]
        inv[:, j] -= t * inv[:, i]
    return u, inv


def random_factor(rng, top):
    """Ranks and dense boundaries of a random complex in degrees 0..top: a
    sum of copies of Z and of Z -c-> Z, in random bases."""
    pieces = []
    for _ in range(rng.randint(2, 4)):
        k = rng.randint(0, top)
        pieces.append((k, rng.choice((1, 2, 3, -2))
                       if k and rng.random() < 0.7 else None))
    basis = {d: [i for i, (k, c) in enumerate(pieces)
                 if k == d or (c is not None and k - 1 == d)]
             for d in range(top + 1)}
    bases = {d: unimodular(rng, len(b)) for d, b in basis.items()}
    boundaries = {}
    for d in range(1, top + 1):
        m = np.zeros((len(basis[d - 1]), len(basis[d])), dtype=np.int64)
        for col, i in enumerate(basis[d]):
            k, c = pieces[i]
            if k == d and c is not None:
                m[basis[d - 1].index(i), col] = c
        boundaries[d] = bases[d - 1][0] @ m @ bases[d][1]
    return {d: len(b) for d, b in basis.items()}, boundaries


def dense_coo(a):
    r, c = np.nonzero(a)
    return CooMatrix(a.shape, r, c, a[r, c])


def random_multicomplex(rng, directions, top):
    """The ranks and direction blocks {(idx, j): matrix} of the tensor
    product of ``directions`` random complexes, cut at total degree
    ``top``; its direction differentials commute."""
    factors = [random_factor(rng, top) for _ in range(directions)]
    ranks, diffs = {}, {}
    for idx in itertools.product(range(top + 1), repeat=directions):
        if sum(idx) > top:
            continue
        sizes = [ranks_j[q] for (ranks_j, _), q in zip(factors, idx)]
        ranks[idx] = math.prod(sizes)
        for j, q in enumerate(idx):
            if q:
                mats = [np.eye(s, dtype=np.int64) for s in sizes]
                mats[j] = factors[j][1][q]
                diffs[idx, j] = dense_coo(reduce(np.kron, mats))
    return ranks, diffs


def koszul_strips(ranks, blocks):
    """The column strip of each multi-index above degree 0: its direction
    blocks, the Koszul sign applied, in the layout of the total complex.
    An empty strip is given too, so the top degree's boundary is held."""
    _, offsets, degree_ranks = naive_layout(ranks)
    strips = {}
    for idx in ranks:
        entries = {}
        for j in range(len(idx)):
            block = blocks.get((idx, j))
            if block is not None:
                for r, c, v in block.entries():
                    entries[offsets[lowered(idx, j)] + r, c] = \
                        (-1) ** sum(idx[:j]) * v
        if sum(idx):
            m = CooMatrix.from_entries(
                (degree_ranks[sum(idx) - 1], ranks[idx]), entries)
            strips[idx] = (m.row, offsets[idx] + m.col, m.val)
    return strips


@pytest.mark.parametrize("seed", range(12))
def test_total_complex_matches_naive_concatenation(seed):
    rng = random.Random(seed)
    top = rng.randint(2, 4)
    ranks, blocks = random_multicomplex(rng, rng.randint(1, 3), top)
    cx = total_complex(Multicomplex(ranks), koszul_strips(ranks, blocks),
                       ZZ, top - 1)
    for d, want in naive_total(ranks, blocks, top - 1).items():
        assert cx.boundary(d) == want


def test_place_blocks_needs_blocks_in_place():
    one = CooMatrix.identity(1)
    m = place_blocks((2, 2), [(0, 0, one, 1), (1, 0, one, -1),
                              (1, 1, one, 1)])
    assert m.to_dense() == [[1, 0], [-1, 1]]
    with pytest.raises(ValueError):  # a shared column listed bottom first
        place_blocks((2, 1), [(1, 0, one, 1), (0, 0, one, 1)])
    with pytest.raises(ValueError):  # overlapping blocks
        place_blocks((2, 1), [(0, 0, one, 1), (0, 0, one, 1)])


# ---------------------------------------------------------------------------
# Homology against dense references and the universal coefficient theorem.

def dense_rank(m, p):
    """Rank over F_p, or over Q when p is None, by Gaussian elimination on
    Python numbers."""
    norm = Fraction if p is None else (lambda v: v % p)
    rows = [[norm(v) for v in row] for row in m.to_dense()]
    rank = 0
    for c in range(m.shape[1]):
        hit = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        inv = 1 / rows[rank][c] if p is None else pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                t = rows[i][c] * inv
                rows[i] = [norm(a - t * b) for a, b in zip(rows[i],
                                                           rows[rank])]
        rank += 1
    return rank


def check_homology(build, bound):
    """build(ring) gives the complex over that ring, homology trusted up
    to ``bound``."""
    integral = homology(build(ZZ))
    for ring in (QQ, GF(2), GF(3)):
        cx = build(ring)
        table = homology(cx)
        p = ring.p
        ranks = {d: dense_rank(cx.boundary(d), p) for d in range(bound + 2)}
        for d in range(bound + 1):
            dim = cx.rank(d) - ranks[d] - ranks[d + 1]
            assert table.group(d).free_rank == dim
            # Universal coefficients: H_d(C; F_p) has dimension the free
            # rank of H_d(C; Z) plus the p-divisible torsion factors of
            # H_d and H_{d-1}.
            divisible = 0 if p is None else sum(
                1 for e in (d, d - 1)
                for t in integral.group(e).torsion if t % p == 0)
            assert dim == integral.group(d).free_rank + divisible


@pytest.mark.parametrize("name", sorted(SPACES))
def test_homology_of_normalized_chains_against_references(name):
    build, bound = SPACES[name]
    nc = NormalizedChains(build(), bound)
    check_homology(nc.complex, bound)


@pytest.mark.parametrize("seed", range(12))
def test_homology_of_random_total_complexes_against_references(seed):
    rng = random.Random(100 + seed)
    top = rng.randint(2, 4)
    ranks, blocks = random_multicomplex(rng, rng.randint(1, 3), top)
    mc, strips = Multicomplex(ranks), koszul_strips(ranks, blocks)
    check_homology(lambda ring: total_complex(mc, strips, ring, top - 1),
                   top - 1)


# ---------------------------------------------------------------------------
# The top degree streamed into the rank.

# Tower levels with 1 to 4 directions: (spec, level, degree bound).  Every
# top degree with two or more directions holds multi-indices with no cells,
# and that of sphere level 2 holds nothing else.
STREAMED = {
    "ab:2 level 1": ("ab:2", 1, 5),
    "ab:2 level 2": ("ab:2", 2, 4),
    "ab:3 level 2": ("ab:3", 2, 3),
    "sphere level 2": ("sphere", 2, 4),
    "mu(2)*ab:2 level 3": ("mu(2)*ab:2", 3, 4),
    "ab:2 level 4": ("ab:2", 4, 6),
}


@pytest.mark.parametrize("p", [2, 3, BIG_PRIME])
@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_homology_matches_the_whole_complex(name, p):
    spec, n, bound = STREAMED[name]
    nc = NormalizedChains(spectrum_level(parse_space(spec), n), bound)
    ring = GF(p)
    assert nc.homology(ring) == homology(nc.complex(ring))


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_integral_homology_matches_the_whole_complex(name, ring):
    spec, n, bound = STREAMED[name]
    nc = NormalizedChains(spectrum_level(parse_space(spec), n), bound)
    cx, table = nc.reduced(ring)
    whole = nc.complex(ring)
    assert table == homology(whole)
    assert cx.top_basis is not None
    # The columns the stream left span the top boundary's lattice: they
    # lie in it, and their Smith form is the boundary's.
    top = bound + 1
    assert smith_normal_form(cx.lattice(top)).diagonal == \
        smith_normal_form(whole.boundary(top)).diagonal


def test_integral_top_stream_falls_back_to_the_whole_boundary(monkeypatch):
    # Over Z and Q, a top whose int64 stream trips (any entry past an
    # _INT_TOP of 0) is built whole by a second pass of its batches, which
    # the line engine takes.  The tables and the top-degree iso answers are
    # those of the whole complexes, found before the limit is lowered.  The
    # torus has rational homology in the top degree, so over Q the iso test
    # ranks M there.  Small batches put each top's columns in several.
    from gammahom import chains
    monkeypatch.setattr(simplicial, "_TOP_BATCH", 100)
    monkeypatch.setattr(simplicial, "_STRIP_CHUNK", 30)
    maps = [(TOWER_MAPS["wedge fold(ab:2) level 2"][0], 3),
            (MAPS["id(circle x circle)"][0], 1)]
    rings = (ZZ, QQ)
    cases = [(build(), bound, ring) for build, bound in maps
             for ring in rings]
    want = [whole_iso(f, ring, bound)[bound] for f, bound, ring in cases]
    torus, bound, _ = cases[-1]
    assert homology(NormalizedChains(torus.target, bound).complex(
        QQ)).group(bound).free_rank == 2
    levels = [NormalizedChains(spectrum_level(parse_space(spec), n), b)
              for spec, n, b in (STREAMED["ab:2 level 2"],
                                 STREAMED["mu(2)*ab:2 level 3"])]
    tables = {(nc, ring): homology(nc.complex(ring))
              for nc in levels for ring in rings}
    # Maps whose tops streamed before the limit fell: over Q the torus's
    # iso test then trips on [F; A] and ranks M whole, with B as the
    # columns the top's stream left; over Z the certificate takes them.
    kept = [chains_of_map(f, ring, bound) for f, bound, ring in cases]
    monkeypatch.setattr(chains, "_INT_TOP", 0)
    for nc, ring in tables:
        cx, table = nc.reduced(ring)
        assert table == tables[nc, ring]
        assert cx.holds_top and cx.top_basis is None
    for (f, bound, ring), answer, chm in zip(cases, want, kept):
        fresh = chains_of_map(f, ring, bound)
        for cx in (fresh.source, fresh.target):
            assert cx.top_basis is None
        assert fresh.target.holds_top
        assert chain_map_induces_iso(fresh, bound) == answer
        assert chm.target.top_basis is not None
        assert chain_map_induces_iso(chm, bound) == answer
    # The second pass is checked for d∘d = 0 too: the stream trips on the
    # first batch, so the second, which fails d∘d, is checked only there.
    cx = ChainComplex(ZZ, {0: 1, 1: 2, 2: 2},
                      {1: CooMatrix.from_entries((1, 2), {(0, 0): 1,
                                                          (0, 1): 1})},
                      1, holds_top=False)
    batches = [CooMatrix.from_entries((2, 1), {(0, 0): 1, (1, 0): -1}),
               CooMatrix.from_entries((2, 1), {(0, 0): 1})]
    with pytest.raises(IntegrityError, match=r"d\*d != 0 at degree 2"):
        stream_top(cx, lambda: iter(batches))
    assert cx.holds_top


def test_an_integral_top_too_large_for_its_basis_is_refused(monkeypatch):
    # Over Z and Q, as over a field, a top whose echelon basis would pass
    # _BASIS_LIMIT is refused, not built whole: in the homology of a
    # level, in a fresh chain map, and in the iso test of a kept map, whose
    # top basis would grow by A's rows.  The refusal names the ring: the
    # unit stream's is over Z, and a field's names its modulus.
    from gammahom import chains
    spec, n, bound = STREAMED["ab:2 level 2"]
    nc = NormalizedChains(spectrum_level(parse_space(spec), n), bound)
    f = MAPS["id(circle x circle)"][0]()
    kept = chains_of_map(f, QQ, 1)
    assert chain_map_induces_iso(kept, 1)
    monkeypatch.setattr(chains, "_BASIS_LIMIT", 16)
    for ring, rank in ((ZZ, "a rank over Z"), (QQ, "a rank over Z"),
                       (GF(3), "a mod-3 rank")):
        refusal = (rf"^{rank} of \d+ vectors of length \d+ is too large: "
                   r"its basis needs \d+x\d+ entries$")
        with pytest.raises(LimitExceeded, match=refusal):
            nc.reduced(ring)
        with pytest.raises(LimitExceeded, match=refusal):
            chains_of_map(f, ring, 1)
    with pytest.raises(LimitExceeded, match="^a rank over Z of "):
        chain_map_induces_iso(kept, 1)


def test_top_batches_split_the_top_boundary_at_chunk_ends(monkeypatch):
    nc = NormalizedChains(spectrum_level(parse_space("ab:2"), 4), 6)
    layout, top = nc.multicomplex, 7
    assert any(not len(nc.codes[idx]) for idx in layout.by_degree[top])
    want = nc.complex(GF(2)).boundary(top)
    # A batch may end where a multi-index ends or after a chunk of 30 of
    # its cells; the multi-indices of 193 cells span batches.
    ends = {layout.offsets[idx] + layout.ranks[idx]
            for idx in layout.by_degree[top]}
    chunk_ends = {layout.offsets[idx] + c for idx in layout.by_degree[top]
                  for c in range(30, layout.ranks[idx], 30)}
    monkeypatch.setattr(simplicial, "_TOP_BATCH", 100)
    monkeypatch.setattr(simplicial, "_STRIP_CHUNK", 30)
    batches = list(nc.top_batches())
    assert len(batches) > 2
    lo, parts, inside = 0, [], 0
    for m in batches:
        assert m.shape[0] == want.shape[0]
        assert 0 < m.shape[1] <= 100
        parts.append((m.row, m.col + lo, m.val))
        lo += m.shape[1]
        assert lo in ends | chunk_ends
        inside += lo not in ends
    assert inside
    assert lo == want.shape[1]
    row, col, val = (np.concatenate(a) for a in zip(*parts))
    assert CooMatrix(want.shape, row, col, val, _canonical=True) == want

    # Several batches give the homology of the whole complex, and the
    # complex below the top degree is checked once.
    checked = []
    original = ChainComplex.verify_boundary_condition

    def counting(self):
        checked.append(self)
        return original(self)

    monkeypatch.setattr(ChainComplex, "verify_boundary_condition", counting)
    for p in (2, 3, BIG_PRIME):
        checked.clear()
        assert nc.homology(GF(p)) == homology(nc.complex(GF(p)))
        assert len(checked) == 2  # the streamed one and the whole one


def test_streamed_top_degree_is_checked_for_d_squared():
    # The faces of unit_square(False) fail to commute at (1, 1) alone, in
    # the top degree of bound 1: below it the complex has one boundary.
    with pytest.raises(IntegrityError, match=r"d\*d != 0 at degree 2"):
        NormalizedChains(unit_square(False), 1).homology(GF(2))
    assert NormalizedChains(unit_square(True), 1).homology(GF(2)) == \
        homology(NormalizedChains(unit_square(True), 1).complex(GF(2)))


def test_streamed_homology_needs_a_prime_field_and_no_top_boundary():
    # Every ring takes a streamed top and gives the whole complex's table;
    # a complex that already holds its top is refused one.
    nc = NormalizedChains(spectrum_level(parse_space("ab:2"), 2), 2)
    for ring in (ZZ, QQ, GF(2)):
        whole = nc.complex(ring)
        with pytest.raises(ValueError, match="no top boundary"):
            homology(whole, top=nc.top_batches)
        lower = nc.lower(ring)
        assert homology(lower, top=nc.top_batches) == homology(whole)
        assert lower.top_basis is not None and not lower.holds_top
    assert homology(nc.complex(ZZ)).group(2).torsion


@pytest.mark.parametrize("limit", [None, "_INT_TOP"])
def test_a_top_stream_short_of_columns_is_refused(monkeypatch, limit):
    # Batches that stop before the last column of the top boundary are
    # refused, whether they stream into the basis or, once the int64
    # stream over Z or Q has tripped on an entry past an _INT_TOP of 0,
    # are built whole.
    from gammahom import chains
    nc = NormalizedChains(spectrum_level(parse_space("ab:2"), 2), 2)
    batches = list(nc.top_batches())
    last = batches[-1]
    keep = last.col < last.shape[1] - 1
    batches[-1] = CooMatrix((last.shape[0], last.shape[1] - 1),
                            last.row[keep], last.col[keep], last.val[keep])
    top = nc.multicomplex.degree_ranks[3]
    rings = (ZZ, QQ, GF(2))
    if limit:
        monkeypatch.setattr(chains, limit, 0)
        rings = (ZZ, QQ)
    for ring in rings:
        cx = nc.lower(ring)
        with pytest.raises(ValueError, match=f"columns, expected {top}"):
            stream_top(cx, lambda: iter(batches))
        assert cx.holds_top == bool(limit)


def test_streamed_homology_holds_one_batch_of_the_top_degree():
    # mu(2)*ab:2 level 4 up to degree 6: the top boundary is 1350 x 296820.
    # With the structure maps built once, the streamed homology peaks well
    # below the homology of the whole complex; it would not if the top
    # degree were concatenated.
    x = spectrum_level(parse_space("mu(2)*ab:2"), 4)
    ring = GF(2)
    want = homology(NormalizedChains(x, 6).complex(ring))

    def peak(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole, whole_peak = peak(
        lambda: homology(NormalizedChains(x, 6).complex(ring)))
    streamed, streamed_peak = peak(lambda: NormalizedChains(x, 6).homology(
        ring))
    assert whole == streamed == want
    assert streamed_peak < 0.6 * whole_peak, (streamed_peak, whole_peak)


def reduced_level(x, n, bound, ring, below=None):
    nc = NormalizedChains(spectrum_level(x, n), bound)
    return nc, *nc.reduced(ring, below)


def invariants(m, ring):
    """The Smith diagonal over Z, the rank over a field."""
    if ring == ZZ:
        return smith_normal_form(m).diagonal if m.nnz else ()
    return matrix_rank(m, ring)


@pytest.mark.parametrize("spec, n, bound, ring", [
    ("mu(2)*ab:2", 4, 6, GF(2)),
    ("ab:3", 4, 6, GF(3)),
    ("ab:2,4", 3, 4, ZZ),
    ("ab:2", 4, 6, ZZ),
], ids=str)
def test_a_derived_top_spans_the_streamed_one(monkeypatch, spec, n, bound,
                                              ring):
    # Level n at bound 2n - 2 lies in the stable range: every top cell has
    # some q_j = 1, j < n, so the top is derived from level n - 1 at bound
    # - 1 and builds no batch.  Its diagonal and its homology are those of
    # the streamed top, and its basis spans the same space (over Z the
    # same lattice): the two sets of columns together have the invariants
    # of each.  A level of another parse of the same space has other
    # maps, so its top streams.
    x = parse_space(spec)
    nc, cx, _ = reduced_level(x, n - 1, bound - 1, ring)
    below = simplicial.LevelBelow.of(nc, cx, n)
    streamed_nc, streamed_cx, streamed = reduced_level(x, n, bound, ring)
    built = []
    top_batches = NormalizedChains.top_batches
    monkeypatch.setattr(NormalizedChains, "top_batches",
                        lambda self: built.append(self) or top_batches(self))
    _, derived_cx, derived = reduced_level(x, n, bound, ring, below)
    assert not built
    assert reduced_level(parse_space(spec), n, bound, ring, below)[2] \
        == streamed
    assert len(built) == 1
    assert derived == streamed
    top = bound + 1
    assert derived_cx.diagonal(top) == streamed_cx.diagonal(top)
    if spec == "ab:2":
        assert 2 in derived_cx.diagonal(top)  # a Z/2 in degree 6
    a, b = derived_cx.lattice(top), streamed_cx.lattice(top)
    both = place_blocks((a.shape[0], a.shape[1] + b.shape[1]),
                        [(0, 0, a, 1), (0, a.shape[1], b, 1)])
    assert invariants(both, ring) == invariants(a, ring) \
        == invariants(b, ring) == invariants(
            streamed_nc.complex(ring).boundary(top), ring)


def test_a_reduced_level_keeps_no_structure_map_table():
    # Level 2 of mu(3)*ab:2 at bound 4 (H_4 = F2^6): its top cells have
    # 2^18 points, and its 14 top faces took 14 MB as memoized tables
    # (15.4 MB stayed held in all).  Once the NormalizedChains is dropped,
    # the tower keeps its structure maps, but none of _VECTOR_MIN points
    # or more as a table; about 0.6 MB stays held.  scipy is imported
    # first, so that the bound sees the tower alone.
    import scipy.sparse  # noqa: F401
    ab = discrete_abelian([2])
    x = mu_pullback(3, ab)
    tracemalloc.start()
    try:
        nc = NormalizedChains(spectrum_level(x, 2), 4)
        assert nc.reduced(GF(2))[1].group(4).label(GF(2)) == "F2^6"
        del nc
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 5 << 20
    maps = [f for space in [ab, *tower(x, 2)]
            for memo in ([g._components for g in space._maps.values()]
                         + [y._ops for y in space._at.values()])
            for f in memo.values()]
    large = [f for f in maps if f.source.points >= _VECTOR_MIN]
    assert len(large) >= 14
    assert all(f._table is None and f._array is None for f in large)


def test_a_top_is_derived_only_along_delooping_directions():
    # sigma(ab:3) has a circle direction of its own, the last of each
    # level.  Its slabs are no copies of the level below, so a level
    # whose top needs that direction streams: level 1 at bound 2, whose
    # cells (2, 1) lie in no other slab, and every level whose level below
    # claims the circle as a slab.  Level 2 at bound 3 is derived along
    # its two delooping directions alone, and agrees with the stream.
    x = parse_space("sigma(ab:3)")
    ring = GF(3)
    for n, bound in ((1, 2), (2, 3), (3, 4)):
        nc = NormalizedChains(spectrum_level(x, n - 1), bound - 1)
        cx, _ = nc.reduced(ring)
        up = NormalizedChains(spectrum_level(x, n), bound)
        claimed = simplicial.LevelBelow.of(nc, cx, n + 1)
        assert up._spanning_top(claimed) is None
        below = simplicial.LevelBelow.of(nc, cx, n)
        assert (up._spanning_top(below) is None) == (n == 1)
        assert up.reduced(ring, below)[1] == up.reduced(ring)[1]


def test_a_slab_face_that_is_another_map_is_not_derived():
    # A copy of level 4 of ab:2 whose faces are equal maps but not the
    # very maps of level 3: the slab identity is not taken on trust, so
    # the top streams, with the same homology.
    space = parse_space("ab:2")
    x = spectrum_level(space, 4)

    def copied_face(idx, j, i):
        f = x.face(idx, j, i)
        return PointedMap(f.source, f.target, f.as_array)

    copied = MSSet(x.directions, x.cell, copied_face, x.degeneracy,
                   name="copy")
    nc = NormalizedChains(spectrum_level(space, 3), 5)
    cx, _ = nc.reduced(GF(2))
    below = simplicial.LevelBelow.of(nc, cx, 4)
    assert NormalizedChains(x, 6)._spanning_top(below) is not None
    up = NormalizedChains(copied, 6)
    assert up._spanning_top(below) is None
    assert up.reduced(GF(2), below)[1] == \
        NormalizedChains(x, 6).reduced(GF(2))[1]


def test_a_slab_cell_with_other_codes_is_not_derived():
    # A copy of level 4 of ab:2 with the very faces of level 3, whose
    # degeneracies into one top multi-index are followed by a swap of a
    # degenerate cell with a cell that is not: as many cells, other codes.
    # The top streams.
    space = parse_space("ab:2")
    x = spectrum_level(space, 4)
    nc = NormalizedChains(spectrum_level(space, 3), 5)
    cx, _ = nc.reduced(GF(2))
    below = simplicial.LevelBelow.of(nc, cx, 4)
    real = NormalizedChains(x, 6)
    up = next(idx for idx in real.multicomplex.by_degree[7]
              if 0 < len(real.codes[idx]) < x.cell(idx).size)
    codes = real.codes[up]
    swap = np.arange(x.cell(up).points)
    a = int(np.setdiff1d(swap[1:], codes)[0])
    swap[[a, codes[0]]] = codes[0], a

    def degeneracy(idx, j, i):
        s = x.degeneracy(idx, j, i)
        if raised(idx, j) != up:
            return s
        return PointedMap(s.source, s.target, swap[s.as_array])

    other = NormalizedChains(MSSet(x.directions, x.cell, x.face, degeneracy,
                                   name="swapped"), 6)
    assert len(other.codes[up]) == len(codes)
    assert not np.array_equal(other.codes[up], codes)
    assert other._spanning_top(below) is None
    assert real._spanning_top(below) is not None
