"""Finite simplicial sets on integer cell tables.

Only nondegenerate simplices are stored.  Every simplex of the set is a
degeneracy word applied to a nondegenerate base, written with strictly
decreasing indices (s_{i1} s_{i2} ... s_{ik} x with i1 > i2 > ... > ik),
and that representation is unique.  A word is valid on an m-simplex only
when its top index is at most m - 1.

Inside a set the cells are numbered in declaration order (by dimension,
then as listed), and a simplex is a pair (mask, cell): bit i of the mask
is set when s_i occurs in the word, as Kenzo codes degeneracy operators
by integers.  The face data is stored once, as a table with one row of
(mask, cell) pairs per cell, and a simplicial map as one (mask, cell)
image per source cell; string ids are only external names, for
documents, printed output and maps given by name.  The simplicial
identities

    d_i d_j = d_{j-1} d_i            (i < j)
    s_i s_j = s_{j+1} s_i            (i <= j)
    d_i s_j = s_{j-1} d_i            (i < j)
    d_i s_j = id                     (i = j, j+1)
    d_i s_j = s_j d_{i-1}            (i > j+1)

become bit operations on masks:

- d_i on s_I x cancels when bit i or bit i-1 of I is set: that bit is
  deleted and the higher bits shift down;
- otherwise d_i passes to the base at index i - #(I below i), and the
  prefix is I with bit i deleted;
- s_j shifts the bits >= j up and sets bit j;
- composing a prefix with a stored face's word deposits the face's bits
  into the zero positions of the prefix.

So the stored face data is consulted only when a face operator survives
all the way to the base.  Bisimplicial sets use the same tables, one per
direction, with a bisimplex coded as (hmask, vmask, cell).

Construction checks d_i d_j = d_{j-1} d_i on every cell of dimension >= 2
and every map's commutation with every face, exactly.  Which face
operators cancel against s_mask, and at which index the others reach the
base, depends only on the mask and the dimension, so that face pattern
(`_face_pattern`, a bounded cache) is computed once per (mask, n) and
read against each base's row.  A cell's faces of faces are laid end to
end, flat[j * n + i] = d_i d_j, and two getters built once per n pick all
d_i d_j and all d_{j-1} d_i from that list: one compare per cell.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .complexes import ValidationError


class SimplexRef(NamedTuple):
    """A simplex: degeneracy word (strictly decreasing) over a
    nondegenerate base cell."""

    word: tuple
    base: str

    def __str__(self) -> str:
        if not self.word:
            return self.base
        return " ".join("s%d" % i for i in self.word) + " " + self.base


# -- degeneracy words as bitmasks -----------------------------------------


def mask_of(word: tuple) -> int:
    mask = 0
    for i in word:
        mask |= 1 << i
    return mask


@lru_cache(maxsize=4096)
def word_of(mask: int) -> tuple:
    """The strictly decreasing word whose indices are the bits of mask."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    return tuple(out)


def _drop(mask: int, j: int) -> int:
    """Delete bit j of mask and shift the higher bits down."""
    return (mask & ((1 << j) - 1)) | (mask >> (j + 1) << j)


def mask_delete(mask: int, bits: int) -> int:
    """Delete the bits of `bits` (a subset of mask's) from mask, shifting
    the higher bits down past each."""
    while bits:
        top = bits.bit_length() - 1
        mask = _drop(mask, top)
        bits ^= 1 << top
    return mask


def mask_face(mask: int, i: int):
    """Push d_i through s_mask.

    Returns (mask', None) when the operator cancels against one of the
    degeneracies, and (prefix, k) when it survives to hit the base as d_k.
    """
    if mask >> i & 1:
        return _drop(mask, i), None
    if i and mask >> (i - 1) & 1:
        return _drop(mask, i - 1), None
    return _drop(mask, i), i - (mask & ((1 << i) - 1)).bit_count()


@lru_cache(maxsize=4096)
def _face_pattern(mask: int, n: int) -> tuple:
    """`mask_face(mask, i)` for i = 0 .. n - 1: how each face of an
    (n - 1)-simplex s_mask x reaches the faces of x."""
    return tuple([mask_face(mask, i) for i in range(n)])


@lru_cache(maxsize=64)
def _identity_pickers(n: int) -> tuple:
    """Getters of all d_i d_j and all d_{j-1} d_i (i < j, by j then i) from
    an n-cell's faces of faces laid end to end, flat[j * n + i] = d_i d_j."""
    pairs = [(i, j) for j in range(1, n + 1) for i in range(j)]
    return (itemgetter(*[j * n + i for i, j in pairs]),
            itemgetter(*[i * n + j - 1 for i, j in pairs]))


def mask_insert(mask: int, j: int) -> int:
    """s_j applied after s_mask."""
    return (mask & ((1 << j) - 1)) | (1 << j) | (mask >> j << (j + 1))


def mask_compose(outer: int, inner: int) -> int:
    """s_outer s_inner: the bits of inner deposited into the zero
    positions of outer."""
    if not outer:
        return inner
    out = outer
    pos = 0
    while inner:
        while outer >> pos & 1:
            pos += 1
        if inner & 1:
            out |= 1 << pos
        inner >>= 1
        pos += 1
    return out


def _decreasing(word: tuple) -> bool:
    return all(a > b for a, b in zip(word, word[1:]))


def _fits(word: tuple, m: int) -> bool:
    """Whether a strictly decreasing word is valid on an m-simplex: its
    indices lie in 0..m-1."""
    return not word or (word[-1] >= 0 and word[0] <= m - 1)


class SimplicialSet:
    """A finite simplicial set: ordered nondegenerate cells per dimension
    plus face data for every cell of positive dimension.

    Cell identifiers are strings, unique across all dimensions.  Faces
    are given either by name, as a dict {(cell, i): SimplexRef or (word,
    base)}, or as the face table itself: a list indexed by cell number
    whose rows hold the (mask, cell number) pairs of the faces.  The
    simplicial identities d_i d_j = d_{j-1} d_i are verified on all
    stored cells at construction, so structurally broken input cannot be
    built.
    """

    def __init__(self, cells: dict, faces, pointed: bool = False,
                 basepoint: str | None = None):
        self._cells, self._ids, self._cdim = {}, [], []
        for n in sorted(int(k) for k in cells):
            ids = tuple(cells[n] if n in cells else cells[str(n)])
            if not ids:
                continue
            if n < 0:
                raise ValidationError("cell %r has negative dimension %d" % (ids[0], n))
            if not set(map(type, ids)) <= {str}:
                bad = next(c for c in ids if type(c) is not str)
                raise ValidationError("cell identifier %r is not a string" % (bad,))
            self._cells[n] = ids
            self._ids += ids
            self._cdim += [n] * len(ids)
        self._index = dict(zip(self._ids, range(len(self._ids))))
        if len(self._index) != len(self._ids):
            seen = set()
            dup = next(c for c in self._ids if c in seen or seen.add(c))
            raise ValidationError("duplicate cell identifier %r" % dup)
        self.pointed = bool(pointed)
        self.basepoint = basepoint
        if self.pointed:
            if basepoint not in self._index or self._cdim[self._index[basepoint]] != 0:
                raise ValidationError("basepoint %r is not a 0-cell" % (basepoint,))
        self._table = faces if isinstance(faces, list) else self._table_from(faces)
        self._validate()

    def _table_from(self, faces: dict) -> list:
        """The face table of faces given by name, checking each entry as
        it is read."""
        index, cdim = self._index, self._cdim
        rows = [{} for _ in cdim]  # cell number -> {face index: (mask, cell)}
        for (cell, i), ref in faces.items():
            if not isinstance(ref, SimplexRef):
                ref = SimplexRef(tuple(ref[0]), ref[1])
            if cell not in index:
                raise ValidationError("face data for unknown cell %r" % cell)
            n = cdim[index[cell]]
            if not (0 <= i <= n):
                raise ValidationError("face index %d out of range on %r" % (i, cell))
            if ref.base not in index:
                raise ValidationError("face of %r references unknown cell %r" % (cell, ref.base))
            if not _decreasing(ref.word):
                raise ValidationError("face word %r of %r is not strictly decreasing" % (ref.word, cell))
            if self.dim(ref) != n - 1:
                raise ValidationError("face of %r has wrong dimension" % cell)
            if not _fits(ref.word, n - 1):
                raise ValidationError("face word %r of %r has a degeneracy index outside 0..%d"
                                      % (ref.word, cell, n - 2))
            rows[index[cell]][i] = (mask_of(ref.word), index[ref.base])
        table = []
        for c, row in enumerate(rows):
            n = cdim[c]
            if 0 < n and len(row) <= n:
                missing = next(i for i in range(n + 1) if i not in row)
                raise ValidationError("missing face %d of %r" % (missing, self._ids[c]))
            table.append(tuple(row[i] for i in range(n + 1)) if n else ())
        return table

    # -- bookkeeping -----------------------------------------------------

    def dims(self) -> list:
        return sorted(self._cells)

    def top_dim(self) -> int:
        return max(self._cells) if self._cells else -1

    def cells(self, n: int) -> tuple:
        return self._cells.get(n, ())

    def all_cells(self):
        for n in self.dims():
            for c in self._cells[n]:
                yield n, c

    def n_cells(self, n: int) -> int:
        return len(self._cells.get(n, ()))

    def cell_counts(self) -> dict:
        return {n: len(ids) for n, ids in self._cells.items()}

    def has_cell(self, c: str) -> bool:
        return c in self._index

    def cell_dim(self, c: str) -> int:
        return self._cdim[self._index[c]]

    def dim(self, ref: SimplexRef) -> int:
        return self._cdim[self._index[ref.base]] + len(ref.word)

    def stored_face(self, cell: str, i: int) -> SimplexRef:
        mask, base = self._table[self._index[cell]][i]
        return SimplexRef(word_of(mask), self._ids[base])

    # -- cell numbers and the face table ------------------------------------

    def number(self, cell: str) -> int:
        return self._index[cell]

    def cell_id(self, number: int) -> str:
        return self._ids[number]

    def numbers(self, n: int) -> range:
        """The cell numbers of dimension n."""
        ids = self._cells.get(n)
        if not ids:
            return range(0)
        first = self._index[ids[0]]
        return range(first, first + len(ids))

    def face_table(self) -> list:
        """Rows of (mask, cell number) face pairs, indexed by cell number;
        a 0-cell's row is empty."""
        return self._table

    def code(self, ref: SimplexRef) -> tuple:
        return mask_of(ref.word), self._index[ref.base]

    def ref(self, mask: int, cell: int) -> SimplexRef:
        return SimplexRef(word_of(mask), self._ids[cell])

    # -- the operator engine ----------------------------------------------

    def face_code(self, mask: int, cell: int, i: int) -> tuple:
        """d_i of the simplex s_mask cell, as a (mask, cell) pair."""
        prefix, k = mask_face(mask, i)
        if k is None:
            return prefix, cell
        m, base = self._table[cell][k]
        return mask_compose(prefix, m), base

    def _face_row(self, mask: int, cell: int, n: int) -> tuple:
        """The faces d_0 .. d_n of the n-simplex s_mask cell, as (mask,
        cell) pairs: the cell's own row when mask is 0, else the row that
        `_face_pattern(mask, n + 1)` reads off it."""
        row = self._table[cell]
        if not mask:
            return row
        return tuple([(prefix, cell) if k is None else (mask_compose(prefix, row[k][0]), row[k][1])
                      for prefix, k in _face_pattern(mask, n + 1)])

    def face(self, ref: SimplexRef, i: int) -> SimplexRef:
        n = self.dim(ref)
        if n == 0:
            raise ValueError("0-simplices have no faces")
        if not (0 <= i <= n):
            raise ValueError("face index %d out of range for dimension %d" % (i, n))
        return self.ref(*self.face_code(mask_of(ref.word), self._index[ref.base], i))

    def degeneracy(self, ref: SimplexRef, j: int) -> SimplexRef:
        n = self.dim(ref)
        if not (0 <= j <= n):
            raise ValueError("degeneracy index %d out of range for dimension %d" % (j, n))
        return SimplexRef(word_of(mask_insert(mask_of(ref.word), j)), ref.base)

    def simplex_codes(self, n: int) -> list:
        """All n-simplices as (mask, cell) pairs, degenerate ones included,
        in a deterministic order (base cells by dimension and declaration
        order, words lexicographically)."""
        out = []
        for p in self.dims():
            if p > n:
                break
            masks = [mask_of(w) for w in combinations(range(n - 1, -1, -1), n - p)]
            out += [(m, c) for c in self.numbers(p) for m in masks]
        return out

    def simplices(self, n: int) -> list:
        """All n-simplices, in the order of `simplex_codes`."""
        return [self.ref(m, c) for m, c in self.simplex_codes(n)]

    def vertices_of(self, ref: SimplexRef) -> tuple:
        """The ordered tuple of vertex cells of a simplex."""
        n = self.dim(ref)
        verts = []
        for j in range(n + 1):
            cur = self.code(ref)
            for t in range(n, j, -1):
                cur = self.face_code(*cur, t)
            for _ in range(j):
                cur = self.face_code(*cur, 0)
            verts.append(self._ids[cur[1]])
        return tuple(verts)

    # -- validation -------------------------------------------------------

    def _validate(self):
        """Check every row of the face table, then every identity
        d_i d_j = d_{j-1} d_i on every cell of dimension >= 2, in one
        compare per cell of its faces of faces (`_identity_pickers`)."""
        table, ids, cdim = self._table, self._ids, self._cdim
        if len(table) != len(ids):
            raise ValidationError("face table has %d rows for %d cells" % (len(table), len(ids)))
        for c, row in enumerate(table):
            n = cdim[c]
            if len(row) != (n + 1 if n else 0):
                raise ValidationError("cell %r needs %d faces, got %d" % (ids[c], n + 1, len(row)))
            for i, (mask, base) in enumerate(row):
                if not 0 <= base < len(ids):
                    raise ValidationError("face of %r references unknown cell %r" % (ids[c], base))
                if mask < 0 or mask >> (n - 1):
                    raise ValidationError("face %d of %r has a degeneracy index outside 0..%d"
                                          % (i, ids[c], n - 2))
                if cdim[base] + mask.bit_count() != n - 1:
                    raise ValidationError("face of %r has wrong dimension" % ids[c])
        face_row, faces_of = self._face_row, {}
        for c, row in enumerate(table):
            n = len(row) - 1
            if n < 2:
                continue
            # flat[j * n + i] = d_i d_j c; a nondegenerate face's faces are its row
            flat = []
            for entry in row:
                mask, base = entry
                if not mask:
                    flat += table[base]
                    continue
                found = faces_of.get(entry)
                if found is None:
                    found = faces_of[entry] = face_row(mask, base, n - 1)
                flat += found
            lhs, rhs = _identity_pickers(n)
            if lhs(flat) != rhs(flat):
                i, j = next((i, j) for j in range(1, n + 1) for i in range(j)
                            if flat[j * n + i] != flat[i * n + j - 1])
                raise ValidationError("simplicial identity d_%d d_%d failed on %r" % (i, j, ids[c]))

    def __repr__(self) -> str:
        counts = ",".join("%d:%d" % (n, len(ids)) for n, ids in sorted(self._cells.items()))
        return "SimplicialSet(%s%s)" % (counts, ", pointed" if self.pointed else "")


class SimplicialMap:
    """A simplicial map, recorded on nondegenerate cells of the source.

    The image of a nondegenerate n-cell is an arbitrary n-simplex of the
    target; the extension to degenerate simplices applies the degeneracy
    word to the image.  The map is stored as its code list: one (mask,
    target cell number) pair per source cell number.  Images are given
    either by name, as a dict {cell: SimplexRef or (word, base)}, or as
    the code list itself.  Names are only the external form, for
    documents, printed output and tests.  Compatibility with all face
    operators is checked at construction.
    """

    def __init__(self, source: SimplicialSet, target: SimplicialSet, images):
        self.source = source
        self.target = target
        self._codes = images if isinstance(images, list) else self._codes_from(images)
        self._validate()

    def _codes_from(self, assignment: dict) -> list:
        """The code list of images given by name, checking each image as
        it is read."""
        source, target = self.source, self.target
        codes = []
        for n, cell in source.all_cells():
            if cell not in assignment:
                raise ValidationError("map missing image of cell %r" % cell)
            img = assignment[cell]
            if not isinstance(img, SimplexRef):
                img = SimplexRef(tuple(img[0]), img[1])
            if not target.has_cell(img.base):
                raise ValidationError("image of %r uses unknown cell %r" % (cell, img.base))
            if target.dim(img) != n:
                raise ValidationError("image of %r has wrong dimension" % cell)
            if not _decreasing(img.word):
                raise ValidationError("image word %r of %r is not strictly decreasing" % (img.word, cell))
            if not _fits(img.word, n):
                raise ValidationError("image word %r of %r has a degeneracy index outside 0..%d"
                                      % (img.word, cell, n - 1))
            codes.append(target.code(img))
        return codes

    def codes(self) -> list:
        """The (mask, target cell number) image of each source cell, indexed
        by cell number."""
        return self._codes

    def image_code(self, mask: int, cell: int) -> tuple:
        """The image of the simplex s_mask cell, as a (mask, cell) pair."""
        m, image = self._codes[cell]
        return mask_compose(mask, m), image

    def __call__(self, ref: SimplexRef) -> SimplexRef:
        return self.target.ref(*self.image_code(*self.source.code(ref)))

    def cell_image(self, cell: str) -> SimplexRef:
        return self.target.ref(*self._codes[self.source.number(cell)])

    def _validate(self):
        """Check, cell by cell in number order, the image for range and
        dimension and that the map commutes with every face of the cell;
        the faces have lower numbers, so their images are checked first."""
        ids, cdim, tdim, codes = self.source._ids, self.source._cdim, self.target._cdim, self._codes
        if len(codes) > len(ids):
            raise ValidationError("map has %d images for %d cells" % (len(codes), len(ids)))
        face_row = self.target._face_row
        for c, row in enumerate(self.source.face_table()):
            n = cdim[c]
            if c >= len(codes) or codes[c] is None:
                raise ValidationError("map missing image of cell %r" % ids[c])
            mask, image = codes[c]
            if not 0 <= image < len(tdim):
                raise ValidationError("image of %r uses unknown cell %r" % (ids[c], image))
            if mask < 0 or mask >> n:
                raise ValidationError("image of %r has a degeneracy index outside 0..%d"
                                      % (ids[c], n - 1))
            if tdim[image] + mask.bit_count() != n:
                raise ValidationError("image of %r has wrong dimension" % ids[c])
            faces = face_row(mask, image, n)
            for i, (m, base) in enumerate(row):
                bmask, bimage = codes[base]
                if (mask_compose(m, bmask), bimage) != faces[i]:
                    raise ValidationError("map does not commute with d_%d on %r" % (i, ids[c]))

    def preserves_basepoint(self) -> bool:
        if not (self.source.pointed and self.target.pointed):
            return False
        image = self._codes[self.source.number(self.source.basepoint)][1]
        return image == self.target.number(self.target.basepoint)

    def is_levelwise_injective(self) -> bool:
        """Monomorphism test: nondegenerate cells must map to
        nondegenerate simplices, injectively in every dimension."""
        images = {c for m, c in self._codes if not m}
        return len(images) == len(self._codes)

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other."""
        if other.target._cells != self.source._cells:
            raise ValueError("maps do not compose: the middle spaces differ")
        return SimplicialMap(other.source, self.target,
                             [self.image_code(m, c) for m, c in other._codes])

    @classmethod
    def identity(cls, space: SimplicialSet) -> "SimplicialMap":
        return cls(space, space, [(0, c) for c in range(len(space._ids))])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return (self.source._cells == other.source._cells and self._codes == other._codes
                and self.target._cells == other.target._cells)

    def is_cellwise_iso(self) -> bool:
        """True when the map is a bijection of nondegenerate cells in
        every dimension (hence an isomorphism of simplicial sets)."""
        return self.is_levelwise_injective() and len(self._codes) == len(self.target._ids)


class BisimplicialSet:
    """A finite bisimplicial set on the tables of `SimplicialSet`.

    The nondegenerate bisimplices are numbered by bidegree, then as
    listed, and a bisimplex is a triple (hmask, vmask, cell) of a
    horizontal and a vertical degeneracy mask over a cell.  The face data
    is one table per direction, indexed by cell number, whose rows hold
    the (hmask, vmask, cell) triples of the faces in that direction (a
    row is empty in degree 0).  On every cell, horizontal and vertical
    faces commute and d_i d_j = d_{j-1} d_i holds in each direction;
    both are verified at construction.
    """

    def __init__(self, cells: dict, hfaces: list, vfaces: list,
                 pointed: bool = False, basepoint: str | None = None):
        self._cells = {}
        self._first = {}
        self._ids = []
        self._deg = []
        for pq in sorted(cells):
            ids = tuple(cells[pq])
            if ids:
                self._cells[pq] = ids
                self._first[pq] = len(self._ids)
                self._ids += ids
                self._deg += [pq] * len(ids)
        if len(set(self._ids)) != len(self._ids):
            dup = next(c for k, c in enumerate(self._ids) if c in self._ids[:k])
            raise ValidationError("duplicate bisimplex identifier %r" % dup)
        self._tables = (hfaces, vfaces)
        self.pointed = pointed
        self.basepoint = basepoint
        if pointed and basepoint not in self.cells(0, 0):
            raise ValidationError("basepoint %r is not a (0, 0)-cell" % (basepoint,))
        self._validate()

    def bidegrees(self) -> list:
        return list(self._cells)

    def cells(self, p: int, q: int) -> tuple:
        return self._cells.get((p, q), ())

    def numbers(self, p: int, q: int) -> range:
        """The cell numbers of bidegree (p, q)."""
        first = self._first.get((p, q), 0)
        return range(first, first + len(self.cells(p, q)))

    def cell_id(self, number: int) -> str:
        return self._ids[number]

    def _face(self, d: int, code: tuple, i: int) -> tuple:
        """d_i in direction d (0 horizontal, 1 vertical) of the bisimplex
        code = (hmask, vmask, cell): the rules of `SimplicialSet.face_code`
        on the mask of direction d, then the stored face's masks deposited
        under the prefix and under the other direction's mask."""
        masks = [code[0], code[1]]
        masks[d], k = mask_face(masks[d], i)
        if k is None:
            return masks[0], masks[1], code[2]
        hm, vm, base = self._tables[d][code[2]][k]
        return mask_compose(masks[0], hm), mask_compose(masks[1], vm), base

    def hface(self, code: tuple, i: int) -> tuple:
        return self._face(0, code, i)

    def vface(self, code: tuple, i: int) -> tuple:
        return self._face(1, code, i)

    def _validate(self):
        """Check every row of both face tables, then on every cell the
        commutation d^v_j d^h_i = d^h_i d^v_j and the identities
        d_i d_j = d_{j-1} d_i in each direction."""
        ids, deg, tables = self._ids, self._deg, self._tables
        for d, name in enumerate(("horizontal", "vertical")):
            table = tables[d]
            if len(table) != len(ids):
                raise ValidationError("%s face table has %d rows for %d cells"
                                      % (name, len(table), len(ids)))
            for c, row in enumerate(table):
                n = deg[c][d]
                if len(row) != (n + 1 if n else 0):
                    raise ValidationError("cell %r needs %d %s faces, got %d"
                                          % (ids[c], n + 1 if n else 0, name, len(row)))
                want = (deg[c][0] - (d == 0), deg[c][1] - (d == 1))
                for hm, vm, base in row:
                    if not 0 <= base < len(ids):
                        raise ValidationError("bisimplex face data references unknown cell")
                    if (min(hm, vm) < 0 or hm >> want[0] or vm >> want[1]
                            or (deg[base][0] + hm.bit_count(), deg[base][1] + vm.bit_count()) != want):
                        raise ValidationError("%s face of %r has wrong bidegree" % (name, ids[c]))
        face = self._face
        for c, (p, q) in enumerate(deg):
            hrow, vrow = tables[0][c], tables[1][c]
            if p and q:
                for i in range(p + 1):
                    for j in range(q + 1):
                        if face(1, hrow[i], j) != face(0, vrow[j], i):
                            raise ValidationError(
                                "horizontal and vertical faces do not commute on %r" % ids[c]
                            )
            for d, row in enumerate((hrow, vrow)):
                for j in range(1, len(row)) if len(row) > 2 else ():
                    for i in range(j):
                        if face(d, row[j], i) != face(d, row[i], j - 1):
                            raise ValidationError("%s identity failed on %r"
                                                  % (("horizontal", "vertical")[d], ids[c]))
