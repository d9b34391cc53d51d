"""Finite simplicial sets in degeneracy-word normal form.

Only nondegenerate simplices are stored.  Every simplex of the set is a
degeneracy word applied to a nondegenerate base, written with strictly
decreasing indices (s_{i1} s_{i2} ... s_{ik} x with i1 > i2 > ... > ik),
and that representation is unique.  Face and degeneracy operators act on
these words by commuting through them with the simplicial identities

    d_i d_j = d_{j-1} d_i            (i < j)
    s_i s_j = s_{j+1} s_i            (i <= j)
    d_i s_j = s_{j-1} d_i            (i < j)
    d_i s_j = id                     (i = j, j+1)
    d_i s_j = s_j d_{i-1}            (i > j+1)

so the stored face data is consulted only when a face operator survives
all the way to the base.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .complexes import ValidationError


class SimplexRef(NamedTuple):
    """A simplex: degeneracy word (strictly decreasing) over a
    nondegenerate base cell."""

    word: tuple
    base: str

    def is_degenerate(self) -> bool:
        return bool(self.word)

    def __str__(self) -> str:
        if not self.word:
            return self.base
        return " ".join("s%d" % i for i in self.word) + " " + self.base


def word_insert(word: tuple, j: int) -> tuple:
    """Normal form of s_j applied after the word: commute s_j inward with
    s_j s_i = s_{i+1} s_j (j <= i), keeping indices strictly decreasing."""
    out = []
    placed = False
    for i in word:
        if placed or j > i:
            if not placed:
                out.append(j)
                placed = True
            out.append(i)
        else:
            out.append(i + 1)
    if not placed:
        out.append(j)
    return tuple(out)


def word_face(word: tuple, i: int):
    """Push d_i through a degeneracy word.

    Returns (new_word, None) when the operator cancels against one of the
    degeneracies, and (prefix_word, residual_face_index) when it survives
    to hit the base.
    """
    out = []
    k = i
    for pos, j in enumerate(word):
        if k < j:
            out.append(j - 1)
        elif k == j or k == j + 1:
            out.extend(word[pos + 1 :])
            return tuple(out), None
        else:
            out.append(j)
            k -= 1
    return tuple(out), k


class SimplicialSet:
    """A finite simplicial set: ordered nondegenerate cells per dimension
    plus face words for every cell of positive dimension.

    Cell identifiers are strings, unique across all dimensions.  The
    simplicial identities d_i d_j = d_{j-1} d_i are verified on all
    stored cells at construction, through the operator engine, so
    structurally broken input cannot be built.
    """

    def __init__(self, cells: dict, faces: dict, pointed: bool = False,
                 basepoint: str | None = None, check: bool = True):
        self._cells = {}
        self._dim = {}
        for n in sorted(int(k) for k in cells):
            ids = tuple(cells[n] if n in cells else cells[str(n)])
            if not ids:
                continue
            self._cells[n] = ids
            for c in ids:
                if c in self._dim:
                    raise ValidationError("duplicate cell identifier %r" % c)
                self._dim[c] = n
        self._faces = {}
        for key, ref in faces.items():
            if not isinstance(ref, SimplexRef):
                ref = SimplexRef(tuple(ref[0]), ref[1])
            self._faces[key] = ref
        self.pointed = bool(pointed)
        self.basepoint = basepoint
        if self.pointed:
            if basepoint not in self._dim or self._dim[basepoint] != 0:
                raise ValidationError("basepoint %r is not a 0-cell" % (basepoint,))
        if check:
            self._validate()

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
        return c in self._dim

    def cell_dim(self, c: str) -> int:
        return self._dim[c]

    def dim(self, ref: SimplexRef) -> int:
        return self._dim[ref.base] + len(ref.word)

    def stored_face(self, cell: str, i: int) -> SimplexRef:
        return self._faces[(cell, i)]

    # -- the operator engine ----------------------------------------------

    def face(self, ref: SimplexRef, i: int) -> SimplexRef:
        n = self.dim(ref)
        if n == 0:
            raise ValueError("0-simplices have no faces")
        if not (0 <= i <= n):
            raise ValueError("face index %d out of range for dimension %d" % (i, n))
        prefix, residual = word_face(ref.word, i)
        if residual is None:
            return SimplexRef(prefix, ref.base)
        stored = self._faces[(ref.base, residual)]
        out = stored
        for j in reversed(prefix):
            out = self.degeneracy(out, j)
        return out

    def degeneracy(self, ref: SimplexRef, j: int) -> SimplexRef:
        n = self.dim(ref)
        if not (0 <= j <= n):
            raise ValueError("degeneracy index %d out of range for dimension %d" % (j, n))
        return SimplexRef(word_insert(ref.word, j), ref.base)

    def simplices(self, n: int):
        """All n-simplices, degenerate ones included, in a deterministic
        order (base cells by dimension and declaration order, words
        lexicographically)."""
        out = []
        for p in self.dims():
            if p > n:
                break
            k = n - p
            words = list(combinations(range(n - 1, -1, -1), k))
            for base in self._cells[p]:
                for w in words:
                    out.append(SimplexRef(w, base))
        return out

    def vertices_of(self, ref: SimplexRef) -> tuple:
        """The ordered tuple of vertex cells of a simplex."""
        n = self.dim(ref)
        verts = []
        for j in range(n + 1):
            cur = ref
            for t in range(n, j, -1):
                cur = self.face(cur, t)
            for _ in range(j):
                cur = self.face(cur, 0)
            verts.append(cur.base)
        return tuple(verts)

    def basepoint_ref(self, n: int) -> SimplexRef:
        """The totally degenerate basepoint n-simplex."""
        if not self.pointed:
            raise ValueError("space is not pointed")
        return SimplexRef(tuple(range(n - 1, -1, -1)), self.basepoint)

    # -- validation -------------------------------------------------------

    def _validate(self):
        for (cell, i), ref in self._faces.items():
            if cell not in self._dim:
                raise ValidationError("face data for unknown cell %r" % cell)
            n = self._dim[cell]
            if not (0 <= i <= n):
                raise ValidationError("face index %d out of range on %r" % (i, cell))
            if ref.base not in self._dim:
                raise ValidationError("face of %r references unknown cell %r" % (cell, ref.base))
            if list(ref.word) != sorted(ref.word, reverse=True) or len(set(ref.word)) != len(ref.word):
                raise ValidationError("face word %r of %r is not strictly decreasing" % (ref.word, cell))
            if self.dim(ref) != n - 1:
                raise ValidationError("face of %r has wrong dimension" % cell)
        for n in self.dims():
            if n == 0:
                continue
            for cell in self._cells[n]:
                for i in range(n + 1):
                    if (cell, i) not in self._faces:
                        raise ValidationError("missing face %d of %r" % (i, cell))
        for n in self.dims():
            if n < 2:
                continue
            for cell in self._cells[n]:
                ref = SimplexRef((), cell)
                for j in range(1, n + 1):
                    for i in range(j):
                        lhs = self.face(self.face(ref, j), i)
                        rhs = self.face(self.face(ref, i), j - 1)
                        if lhs != rhs:
                            raise ValidationError(
                                "simplicial identity d_%d d_%d failed on %r" % (i, j, cell)
                            )

    def __repr__(self) -> str:
        counts = ",".join("%d:%d" % (n, len(ids)) for n, ids in sorted(self._cells.items()))
        return "SimplicialSet(%s%s)" % (counts, ", pointed" if self.pointed else "")


class SimplicialMap:
    """A simplicial map, recorded on nondegenerate cells of the source.

    The image of a nondegenerate n-cell is an arbitrary n-simplex of the
    target; the extension to degenerate simplices applies the degeneracy
    word to the image.  Compatibility with all face operators is checked
    at construction.
    """

    def __init__(self, source: SimplicialSet, target: SimplicialSet,
                 assignment: dict, check: bool = True):
        self.source = source
        self.target = target
        self._map = {}
        for cell, ref in assignment.items():
            if not isinstance(ref, SimplexRef):
                ref = SimplexRef(tuple(ref[0]), ref[1])
            self._map[cell] = ref
        if check:
            self._validate()

    def __call__(self, ref: SimplexRef) -> SimplexRef:
        out = self._map[ref.base]
        for j in reversed(ref.word):
            out = self.target.degeneracy(out, j)
        return out

    def cell_image(self, cell: str) -> SimplexRef:
        return self._map[cell]

    def _validate(self):
        for n, cell in self.source.all_cells():
            if cell not in self._map:
                raise ValidationError("map missing image of cell %r" % cell)
            img = self._map[cell]
            if not self.target.has_cell(img.base):
                raise ValidationError("image of %r uses unknown cell %r" % (cell, img.base))
            if self.target.dim(img) != n:
                raise ValidationError("image of %r has wrong dimension" % cell)
        for n, cell in self.source.all_cells():
            if n == 0:
                continue
            ref = SimplexRef((), cell)
            img = self._map[cell]
            for i in range(n + 1):
                lhs = self(self.source.face(ref, i))
                rhs = self.target.face(img, i)
                if lhs != rhs:
                    raise ValidationError(
                        "map does not commute with d_%d on %r" % (i, cell)
                    )

    def preserves_basepoint(self) -> bool:
        if not (self.source.pointed and self.target.pointed):
            return False
        return self._map[self.source.basepoint].base == self.target.basepoint

    def is_levelwise_injective(self) -> bool:
        """Monomorphism test: nondegenerate cells must map to
        nondegenerate simplices, injectively in every dimension."""
        for n in self.source.dims():
            seen = set()
            for cell in self.source.cells(n):
                img = self._map[cell]
                if img.is_degenerate() or img in seen:
                    return False
                seen.add(img)
        return True

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other."""
        assignment = {cell: self(other.cell_image(cell))
                      for _, cell in other.source.all_cells()}
        return SimplicialMap(other.source, self.target, assignment, check=False)

    @classmethod
    def identity(cls, space: SimplicialSet) -> "SimplicialMap":
        return cls(space, space, {c: SimplexRef((), c) for _, c in space.all_cells()},
                   check=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return (self.source is other.source or self.source._cells == other.source._cells) and \
            self._map == other._map

    def is_cellwise_iso(self) -> bool:
        """True when the map is a bijection of nondegenerate cells in
        every dimension (hence an isomorphism of simplicial sets)."""
        for n in self.source.dims():
            images = set()
            for cell in self.source.cells(n):
                img = self._map[cell]
                if img.is_degenerate():
                    return False
                images.add(img.base)
            if len(images) != self.source.n_cells(n):
                return False
            if images != set(self.target.cells(n)):
                return False
        return set(self.source.dims()) == set(self.target.dims())


class BiSimplexRef(NamedTuple):
    """A bisimplex: horizontal and vertical degeneracy words over a
    nondegenerate base."""

    hword: tuple
    vword: tuple
    base: str


class BisimplicialSet:
    """A finite bisimplicial set: nondegenerate bisimplices by bidegree,
    with separate horizontal and vertical face data.  Horizontal and
    vertical operators commute, which is verified at construction."""

    def __init__(self, cells: dict, hfaces: dict, vfaces: dict,
                 pointed: bool = False, basepoint: str | None = None):
        self._cells = {}
        self._deg = {}
        for (p, q), ids in cells.items():
            ids = tuple(ids)
            if not ids:
                continue
            self._cells[(p, q)] = ids
            for c in ids:
                if c in self._deg:
                    raise ValidationError("duplicate bisimplex identifier %r" % c)
                self._deg[c] = (p, q)
        self._hfaces = dict(hfaces)
        self._vfaces = dict(vfaces)
        self.pointed = pointed
        self.basepoint = basepoint
        self._validate()

    def bidegrees(self) -> list:
        return sorted(self._cells)

    def cells(self, p: int, q: int) -> tuple:
        return self._cells.get((p, q), ())

    def bidegree(self, ref: BiSimplexRef) -> tuple:
        p, q = self._deg[ref.base]
        return (p + len(ref.hword), q + len(ref.vword))

    def hface(self, ref: BiSimplexRef, i: int) -> BiSimplexRef:
        p, _ = self.bidegree(ref)
        if p == 0:
            raise ValueError("horizontal dimension 0 has no faces")
        if not (0 <= i <= p):
            raise ValueError("horizontal face index out of range")
        prefix, residual = word_face(ref.hword, i)
        if residual is None:
            return BiSimplexRef(prefix, ref.vword, ref.base)
        stored = self._hfaces[(ref.base, residual)]
        hw = stored.hword
        for j in reversed(prefix):
            hw = word_insert(hw, j)
        vw = stored.vword
        for j in reversed(ref.vword):
            vw = word_insert(vw, j)
        return BiSimplexRef(hw, vw, stored.base)

    def vface(self, ref: BiSimplexRef, i: int) -> BiSimplexRef:
        _, q = self.bidegree(ref)
        if q == 0:
            raise ValueError("vertical dimension 0 has no faces")
        if not (0 <= i <= q):
            raise ValueError("vertical face index out of range")
        prefix, residual = word_face(ref.vword, i)
        if residual is None:
            return BiSimplexRef(ref.hword, prefix, ref.base)
        stored = self._vfaces[(ref.base, residual)]
        vw = stored.vword
        for j in reversed(prefix):
            vw = word_insert(vw, j)
        hw = stored.hword
        for j in reversed(ref.hword):
            hw = word_insert(hw, j)
        return BiSimplexRef(hw, vw, stored.base)

    def _validate(self):
        for (cell, i), ref in list(self._hfaces.items()) + list(self._vfaces.items()):
            if cell not in self._deg or ref.base not in self._deg:
                raise ValidationError("bisimplex face data references unknown cell")
        for (p, q), ids in self._cells.items():
            for cell in ids:
                for i in range(p + 1) if p else ():
                    if (cell, i) not in self._hfaces:
                        raise ValidationError("missing horizontal face %d of %r" % (i, cell))
                for i in range(q + 1) if q else ():
                    if (cell, i) not in self._vfaces:
                        raise ValidationError("missing vertical face %d of %r" % (i, cell))
        # commutation of the two directions, plus identities per direction
        for (p, q), ids in self._cells.items():
            for cell in ids:
                ref = BiSimplexRef((), (), cell)
                if p >= 1 and q >= 1:
                    for i in range(p + 1):
                        for j in range(q + 1):
                            lhs = self.vface(self.hface(ref, i), j)
                            rhs = self.hface(self.vface(ref, j), i)
                            if lhs != rhs:
                                raise ValidationError(
                                    "horizontal and vertical faces do not commute on %r" % cell
                                )
                if p >= 2:
                    for j in range(1, p + 1):
                        for i in range(j):
                            if self.hface(self.hface(ref, j), i) != self.hface(self.hface(ref, i), j - 1):
                                raise ValidationError("horizontal identity failed on %r" % cell)
                if q >= 2:
                    for j in range(1, q + 1):
                        for i in range(j):
                            if self.vface(self.vface(ref, j), i) != self.vface(self.vface(ref, i), j - 1):
                                raise ValidationError("vertical identity failed on %r" % cell)
