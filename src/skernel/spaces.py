"""Constructions on finite simplicial sets.

Standard spaces, products by the shuffle description of nondegenerate
cells, wedge/smash/suspension for pointed spaces, pushouts along
levelwise injections and the maps out of them that the universal
property induces, skeleta, diagonals of bisimplicial sets, and the
combinatorial invariants: components, fundamental groupoid and group,
chains and homology.

Constructions mint the ids of their cells injectively from the ids they
are built from, and no code reads an id back apart: a map out of a
pushout, wedge or quotient comes from `pushout_map`, or, out of a smash,
from the product cells the smash keeps.

The smash X ^ Y = (X x Y) / (X v Y) is built on the product cells off
the wedge, without the product, the wedge or any pushout, under the ids
the quotient gives them (`_leg_id` mints a pushout's ids for both).  It
keeps the product cell of each of its cells, and reads any simplex of
the product through the quotient by code (`SmashResult.image_code`), so
the maps into and out of it need no product either.

Two rules work on (mask, cell) codes and are written once each.  The
generator rule (`_chain_basis`): degree n of the chains is spanned by the
nondegenerate cells, or by every simplex, less the codes over the
basepoint of a pointed space.  The pair rule (`_pair_code`): a pair of
simplices of X and Y is the product cell numbered by `_product_numbering`
under the degeneracies the two masks share, with those bits deleted.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .complexes import (ChainComplex, ChainMap, HomologyGroup, ValidationError, _Record,
                        group_from_presentation)
from .matrices import IntMatrix, _stored_row
from .simplicial import (
    BisimplicialSet,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    mask_compose,
    mask_delete,
    mask_of,
    word_of,
)


# ---------------------------------------------------------------------------
# standard spaces


def _simplex_cells(n: int, include_top: bool, skip: int = 0) -> tuple:
    """Cells and face table of the n-simplex's vertex subsets but the top
    one unless include_top and the one of bitmask skip, numbered by their
    bitmasks: the face of `bits` that drops vertex v is number[bits ^ 1 << v]."""
    names = [str(v) for v in range(n + 1)]
    number = [0] * (2 << n)
    cells = {}
    table = []
    for size in range(1, n + 2 if include_top else n + 1):
        ids = []
        for vs in combinations(range(n + 1), size):
            masks = [1 << v for v in vs]
            bits = sum(masks)
            if bits == skip:
                continue
            number[bits] = len(table)
            ids.append(".".join([names[v] for v in vs]))
            table.append(tuple([(0, number[bits ^ m]) for m in masks]) if size > 1 else ())
        if ids:
            cells[size - 1] = ids
    return cells, table


def simplex(n: int) -> SimplicialSet:
    """The standard n-simplex; cells are the nonempty vertex subsets."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    cells, faces = _simplex_cells(n, include_top=True)
    return SimplicialSet(cells, faces)


def boundary(n: int) -> SimplicialSet:
    """The boundary of the n-simplex (empty for n = 0)."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    cells, faces = _simplex_cells(n, include_top=False)
    return SimplicialSet(cells, faces)


def horn(n: int, k: int) -> SimplicialSet:
    """The (n, k)-horn: all faces of the n-simplex except the k-th.

    For n = 0 this is the empty simplicial set.
    """
    if not (0 <= k <= n):
        raise ValueError("horn indices must satisfy 0 <= k <= n")
    cells, faces = _simplex_cells(n, include_top=False, skip=((2 << n) - 1) ^ (1 << k))
    return SimplicialSet(cells, faces)


def point() -> SimplicialSet:
    """A pointed one-vertex space."""
    return SimplicialSet({0: ["*"]}, {}, pointed=True, basepoint="*")


def sphere(i: int) -> SimplicialSet:
    """The simplicial i-sphere: the i-simplex modulo its boundary, with a
    single nondegenerate cell in dimensions 0 and i."""
    if i < 0:
        raise ValueError("dimension must be nonnegative")
    if i == 0:
        return SimplicialSet({0: ["*", "p"]}, {}, pointed=True, basepoint="*")
    collapsed = SimplexRef(tuple(range(i - 2, -1, -1)), "*")
    faces = {("c", j): collapsed for j in range(i + 1)}
    return SimplicialSet({0: ["*"], i: ["c"]}, faces, pointed=True, basepoint="*")


def interval_pointed() -> SimplicialSet:
    """The 1-simplex with a disjoint basepoint added."""
    faces = {("01", 0): SimplexRef((), "1"), ("01", 1): SimplexRef((), "0")}
    return SimplicialSet({0: ["*", "0", "1"], 1: ["01"]}, faces, pointed=True, basepoint="*")


# ---------------------------------------------------------------------------
# products


def _word_id(word: tuple) -> str:
    return "".join("s%d" % i for i in word)


def _compact(ref: SimplexRef) -> str:
    """An injective id for a simplex: its degeneracy word, then its base
    quoted as a JSON string (which ends at its first unescaped quote)."""
    return _word_id(ref.word) + _quote(ref.base)


_PAIR = "(%s|%s)"  # a product cell's id from its two simplices' compact ids


def pair_id(ra: SimplexRef, rb: SimplexRef) -> str:
    return _PAIR % (_compact(ra), _compact(rb))


def _id_and_faces(x: SimplicialSet, mask: int, cell: int) -> tuple:
    """The dimension n and compact id of the simplex s_mask cell of x, and
    its faces d_0 .. d_n as (mask, cell) codes, from one cached face
    pattern read against cell's row (`SimplicialSet._face_row`)."""
    ref = x.ref(mask, cell)
    n = x.dim(ref)
    return n, _compact(ref), x._face_row(mask, cell, n)


def _disjoint_masks(n: int, p: int, q: int) -> list:
    """The pairs of disjoint masks on n bits with n - p and n - q bits
    set: the words that lift a (p, q) pair of cells to a nondegenerate
    n-cell of a product or a diagonal."""
    out = []
    for wa in combinations(range(n), n - p):
        ma = mask_of(wa)
        rest = [t for t in range(n) if not ma >> t & 1]
        out += [(ma, mask_of(wb)) for wb in combinations(rest, n - q)]
    return out


def _product_numbering(x: SimplicialSet, y: SimplicialSet) -> dict:
    """(a, b, mask_a, mask_b) -> cell number, for every nondegenerate
    cell of product(x, y) in its declaration order (by dimension n, then
    a, b and the masks): the pair of the n-simplices s_{mask_a} a of x and
    s_{mask_b} b of y, whose masks are disjoint."""
    codes = sorted((n, a, b, ma, mb) for p in x.dims() for q in y.dims()
                   for n in range(max(p, q), p + q + 1) for ma, mb in _disjoint_masks(n, p, q)
                   for a in x.numbers(p) for b in y.numbers(q))
    return {code[1:]: k for k, code in enumerate(codes)}


def _pair_code(number: dict, ma: int, a: int, mb: int, b: int) -> tuple:
    """The simplex (s_ma a, s_mb b) of the product numbered by `number`,
    as a (mask, cell) code: the degeneracies the two masks share, over
    the pair with those bits deleted from both masks."""
    common = ma & mb
    if common:
        ma, mb = mask_delete(ma, common), mask_delete(mb, common)
    return common, number[a, b, ma, mb]


def product_pairs(x: SimplicialSet, y: SimplicialSet) -> dict:
    """cell id -> (ref into x, ref into y), for every nondegenerate cell
    of product(x, y), keyed in the product's declaration order."""
    out = {}
    for a, b, ma, mb in _product_numbering(x, y):
        ra, rb = x.ref(ma, a), y.ref(mb, b)
        out[pair_id(ra, rb)] = (x.dim(ra), ra, rb)
    return out


def product(x: SimplicialSet, y: SimplicialSet) -> SimplicialSet:
    """The categorical product.

    Nondegenerate n-cells are pairs of simplices (a, b) of dimension n
    whose degeneracy words share no index; faces are computed pairwise
    and renormalised by `_pair_code`.  Each factor simplex's id and faces
    are computed once (`cache`), not once per partner.
    """
    number = _product_numbering(x, y)
    cells = {}
    table = []
    for n, cell_id, row in _pair_rows(x, y, number, number):
        cells.setdefault(n, []).append(cell_id)
        table.append(tuple(row))
    pointed = x.pointed and y.pointed
    bp = pair_id(SimplexRef((), x.basepoint), SimplexRef((), y.basepoint)) if pointed else None
    return SimplicialSet(cells, table, pointed=pointed, basepoint=bp)


def _pair_rows(x: SimplicialSet, y: SimplicialSet, number: dict, codes):
    """The dimension, id and faces of each product cell (a, b, mask_a,
    mask_b) in codes, the faces as codes of the product that `number`
    numbers; each factor simplex's id and faces are computed once."""
    x_simplex, y_simplex = cache(partial(_id_and_faces, x)), cache(partial(_id_and_faces, y))
    for a, b, ma, mb in codes:
        n, ida, x_faces = x_simplex(ma, a)
        _, idb, y_faces = y_simplex(mb, b)
        yield n, _PAIR % (ida, idb), [_pair_code(number, fma, fa, fmb, fb)
                                      for (fma, fa), (fmb, fb) in zip(x_faces, y_faces)]


# ---------------------------------------------------------------------------
# pushouts along levelwise injections


def _leg_id(cell_id: str, from_y: bool) -> str:
    """The id a pushout gives a cell of its leg Y, or of its leg X: the
    leg's prefix, then the cell's id."""
    return ("y:" if from_y else "x:") + cell_id


class PushoutResult(NamedTuple):
    space: SimplicialSet
    from_x: SimplicialMap
    from_y: SimplicialMap


def pushout_inj(f: SimplicialMap, g: SimplicialMap) -> PushoutResult:
    """The pushout X u_A Y of X <-f- A -g-> Y.

    f must be a levelwise monomorphism (general coequalizers are out of
    scope); cells of the result are Y's cells plus the X-cells outside
    the image of f, with identifications pushed through g.  When Y is a
    point this computes the quotient X/A.
    """
    if f.source is not g.source and f.source._cells != g.source._cells:
        raise ValueError("pushout legs must share their source")
    if not f.is_levelwise_injective():
        raise ValueError("pushout requires the first leg to be a levelwise injection")
    a, x, y = f.source, f.target, g.target
    # X cell number -> the (mask, Y cell number) that g gives the A cell on it
    hit = {c: code for (_, c), code in zip(f.codes(), g.codes())}
    cells = {}
    # cell numbers of Y and X -> cell numbers of the pushout
    y_num = [None] * len(y.face_table())
    x_num = [None] * len(x.face_table())
    count = 0
    for n in sorted(set(x.dims()) | set(y.dims())):
        ids = []
        for c in y.numbers(n):
            y_num[c] = count + len(ids)
            ids.append(_leg_id(y.cell_id(c), True))
        for c in x.numbers(n):
            if c not in hit:
                x_num[c] = count + len(ids)
                ids.append(_leg_id(x.cell_id(c), False))
        cells[n] = ids
        count += len(ids)

    def translate(mask: int, c: int) -> tuple:
        """The simplex s_mask c of X as a (mask, cell) pair of the pushout."""
        if c in hit:
            m, b = hit[c]
            return mask_compose(mask, m), y_num[b]
        return mask, x_num[c]

    table = [None] * count
    for c, row in enumerate(y.face_table()):
        table[y_num[c]] = tuple((m, y_num[b]) for m, b in row)
    for c, row in enumerate(x.face_table()):
        if c not in hit:
            table[x_num[c]] = tuple(translate(m, b) for m, b in row)
    pointed = y.pointed
    bp = _leg_id(y.basepoint, True) if pointed else None
    space = SimplicialSet(cells, table, pointed=pointed, basepoint=bp)

    from_y = SimplicialMap(y, space, [(0, p) for p in y_num])
    from_x = SimplicialMap(x, space, [translate(0, c) for c in range(len(x_num))])
    for cell, (fc, gc) in enumerate(zip(f.codes(), g.codes())):
        if from_x.image_code(*fc) != from_y.image_code(*gc):
            raise ValidationError("pushout square does not commute on %r" % a.cell_id(cell))
    return PushoutResult(space, from_x, from_y)


def pushout_map(legs, u: SimplicialMap, v: SimplicialMap) -> SimplicialMap:
    """The map P -> T that the universal property induces on a pushout
    (P, from_x, from_y) of X and Y from a cocone u: X -> T, v: Y -> T.

    Each Y cell goes to its v-image, and each X cell that from_x sends
    to a cell not yet assigned goes to its u-image.  Raises
    ValidationError, naming the cell, when the result does not restrict
    to u along from_x, that is when the cocone does not commute.
    """
    space, from_x, from_y = legs
    codes = [None] * len(space.face_table())
    for (_, p), image in zip(from_y.codes(), v.codes()):
        codes[p] = image
    for (m, p), image in zip(from_x.codes(), u.codes()):
        if not m and codes[p] is None:
            codes[p] = image
    induced = SimplicialMap(space, u.target, codes)
    for c, (code, image) in enumerate(zip(from_x.codes(), u.codes())):
        if induced.image_code(*code) != image:
            raise ValidationError("induced map does not restrict to u on %r"
                                  % from_x.source.cell_id(c))
    return induced


def quotient(f: SimplicialMap) -> PushoutResult:
    """X/A for a levelwise injection f: A -> X."""
    collapse = SimplicialMap(f.source, point(), [((1 << n) - 1, 0) for n, _ in f.source.all_cells()])
    return pushout_inj(f, collapse)


class WedgeResult(NamedTuple):
    space: SimplicialSet
    inl: SimplicialMap
    inr: SimplicialMap


def wedge(x: SimplicialSet, y: SimplicialSet) -> WedgeResult:
    """One-point union of pointed spaces."""
    if not (x.pointed and y.pointed):
        raise ValueError("wedge requires pointed spaces")
    pt = point()
    to_x = SimplicialMap(pt, x, [(0, x.number(x.basepoint))])
    to_y = SimplicialMap(pt, y, [(0, y.number(y.basepoint))])
    space, from_x, from_y = pushout_inj(to_x, to_y)
    return WedgeResult(space, from_x, from_y)


class SmashResult:
    """X ^ Y, the product cell (a, b, mask_a, mask_b) of each of its
    cells after the basepoint (`product_cells`), and `image_code`, which
    reads a simplex of the product through the quotient.  The collapse
    product(x, y) -> X ^ Y is built the first time it is read."""

    def __init__(self, space: SimplicialSet, x: SimplicialSet, y: SimplicialSet,
                 number: dict, image: list, product_cells: list):
        self.space = space
        self.product_cells = product_cells
        self._x, self._y = x, y
        # the product's numbering, and the smash cell that each product
        # cell maps onto (0, the basepoint, for the wedge)
        self._number, self._image = number, image

    def image_code(self, ma: int, a: int, mb: int, b: int) -> tuple:
        """The image of the product simplex (s_ma a, s_mb b) as a (mask,
        cell) code: the pair's shared degeneracies over its own smash
        cell off the wedge, the basepoint's degeneracy of its dimension
        on the wedge."""
        common, k = _pair_code(self._number, ma, a, mb, b)
        s = self._image[k]
        if s:
            return common, s
        x = self._x
        return (1 << x.cell_dim(x.cell_id(a)) + ma.bit_count()) - 1, 0

    @cached_property
    def collapse(self) -> SimplicialMap:
        """The quotient map, each product cell sent by `image_code`."""
        return SimplicialMap(product(self._x, self._y), self.space,
                             [self.image_code(ma, a, mb, b) for a, b, ma, mb in self._number])


def smash(x: SimplicialSet, y: SimplicialSet) -> SmashResult:
    """(X x Y) / (X v Y) as a pointed simplicial set.

    Built directly: the basepoint, then the product cells (a, b, mask_a,
    mask_b) with a and b off the basepoints, which are exactly the cells
    off the wedge, in the product's order, with the ids and numbers that
    `quotient` gives them.  A face that lands on the wedge becomes the
    basepoint's degeneracy of its dimension.  Neither the product nor the
    wedge is built; `SmashResult.collapse` builds the product when it is
    read.
    """
    if not (x.pointed and y.pointed):
        raise ValueError("smash requires pointed spaces")
    number = _product_numbering(x, y)
    xbp, ybp = x.number(x.basepoint), y.number(y.basepoint)
    kept = [code for code in number if code[0] != xbp and code[1] != ybp]
    image = [0] * len(number)
    for s, code in enumerate(kept, 1):
        image[number[code]] = s
    # the quotient's basepoint is the one cell of `point()`
    bp = _leg_id("*", True)
    cells = {0: [bp]}
    table = [()]
    for n, cell_id, row in _pair_rows(x, y, number, kept):
        cells.setdefault(n, []).append(_leg_id(cell_id, False))
        table.append(tuple([(m, image[k]) if image[k] else ((1 << n - 1) - 1, 0)
                            for m, k in row]))
    space = SimplicialSet(cells, table, pointed=True, basepoint=bp)
    return SmashResult(space, x, y, number, image, kept)


def suspension(x: SimplicialSet, i: int) -> SimplicialSet:
    """The i-fold suspension: smash with the i-sphere."""
    if not x.pointed:
        raise ValueError("suspension requires a pointed space")
    if i < 0:
        raise ValueError("suspension degree must be nonnegative")
    return smash(x, sphere(i)).space


def skeleton(x: SimplicialSet, n: int) -> SimplicialSet:
    """The subspace generated by nondegenerate cells of dimension <= n."""
    if n < 0:
        return SimplicialSet({}, {})
    cells = {m: list(x.cells(m)) for m in x.dims() if m <= n}
    # the cells of dimension <= n come first in x's numbering
    table = x.face_table()[:sum(len(ids) for ids in cells.values())]
    pointed = x.pointed
    return SimplicialSet(cells, table, pointed=pointed,
                         basepoint=x.basepoint if pointed else None)


# ---------------------------------------------------------------------------
# bisimplicial sets and diagonals


def diag_id(hw: tuple, vw: tuple, base: str) -> str:
    return "d(%s;%s)%s" % (_word_id(hw), _word_id(vw), _quote(base))


def diagonal(b: BisimplicialSet) -> SimplicialSet:
    """Diagonal simplicial set: degree n is the (n, n)-level, with
    d_i = d_i^h d_i^v; nondegenerate cells are the bisimplices whose
    horizontal and vertical words share no index, and a face sheds the
    degeneracies its two masks share, as in `product`."""
    codes = sorted((n, c, hm, vm) for p, q in b.bidegrees() for n in range(max(p, q), p + q + 1)
                   for hm, vm in _disjoint_masks(n, p, q) for c in b.numbers(p, q))
    number = {code[1:]: k for k, code in enumerate(codes)}
    hface, vface = b.hface, b.vface
    cells = {}
    table = []
    for n, c, hm, vm in codes:
        cells.setdefault(n, []).append(diag_id(word_of(hm), word_of(vm), b.cell_id(c)))
        row = []
        for i in range(n + 1) if n else ():
            fh, fv, fc = vface(hface((hm, vm, c), i), i)
            common = fh & fv
            row.append((common, number[fc, mask_delete(fh, common), mask_delete(fv, common)]))
        table.append(tuple(row))
    bp = diag_id((), (), b.basepoint) if b.pointed else None
    return SimplicialSet(cells, table, pointed=b.pointed, basepoint=bp)


def external_product(x: SimplicialSet, y: SimplicialSet) -> BisimplicialSet:
    """The bisimplicial set with (p, q)-level X_p x Y_q."""
    cells = {}
    pairs = []  # cell number -> the pair of cell numbers of x and y
    for p in x.dims():
        for q in y.dims():
            level = [(a, b) for a in x.numbers(p) for b in y.numbers(q)]
            cells[p, q] = [pair_id(x.ref(0, a), y.ref(0, b)) for a, b in level]
            pairs += level
    number = {pair: k for k, pair in enumerate(pairs)}
    xt, yt = x.face_table(), y.face_table()
    hfaces = [tuple((m, 0, number[f, b]) for m, f in xt[a]) for a, b in pairs]
    vfaces = [tuple((0, m, number[a, f]) for m, f in yt[b]) for a, b in pairs]
    pointed = x.pointed and y.pointed
    bp = pair_id(SimplexRef((), x.basepoint), SimplexRef((), y.basepoint)) if pointed else None
    return BisimplicialSet(cells, hfaces, vfaces, pointed=pointed, basepoint=bp)


# ---------------------------------------------------------------------------
# invariants


def _edge_ends(x: SimplicialSet, e: str) -> tuple:
    """The source d_1 e and target d_0 e of the edge e, read from the face
    table."""
    (_, dst), (_, src) = x.face_table()[x.number(e)]
    return x.cell_id(src), x.cell_id(dst)


def pi0(x: SimplicialSet):
    """Connected components: the coequalizer of the two vertex maps on
    edges, computed by union-find; components are ordered by their first
    vertex in declaration order."""
    verts = list(x.cells(0))
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in x.cells(1):
        src, dst = _edge_ends(x, e)
        ra, rb = find(dst), find(src)
        if ra != rb:
            parent[ra] = rb
    comps = {}
    for v in verts:
        comps.setdefault(find(v), []).append(v)
    # vertices go in order, so each component enters comps at its first vertex
    return list(map(tuple, comps.values()))


def component_map(x: SimplicialSet) -> dict:
    """vertex -> index of its component in pi0(x)."""
    out = {}
    for idx, members in enumerate(pi0(x)):
        for v in members:
            out[v] = idx
    return out


Arrow = tuple  # ("gen", edge_id) or ("id", vertex_id)


def arrow_of(ref: SimplexRef) -> Arrow:
    """The groupoid arrow represented by a 1-simplex: degenerate edges
    are identities."""
    if ref.word:
        return ("id", ref.base)
    return ("gen", ref.base)


class GroupoidPresentation(_Record):
    """Generators and relations of the fundamental groupoid.

    Objects are the 0-cells; each nondegenerate edge e is a generator
    from d1(e) to d0(e); each nondegenerate 2-cell t imposes
    f(d1 t) = f(d0 t) f(d2 t), with degenerate faces recorded as
    identity arrows.
    """

    _fields = ("objects", "generators", "relations")

    def __init__(self, objects: tuple, generators: dict, relations: tuple):
        # generators: edge -> (source vertex, target vertex);
        # relations: triples (d1 arrow, d0 arrow, d2 arrow)
        self.__dict__.update(objects=objects, generators=generators, relations=relations)

    def normalized_relations(self) -> frozenset:
        return normalize_relations(self.relations)


def normalize_relations(relations) -> frozenset:
    """Relations (d1 arrow, d0 arrow, d2 arrow) with tautologies dropped
    (those asserting a = a after composing with identity arrows)."""
    out = []
    for a1, a0, a2 in relations:
        if a0[0] == "id" and a2 == a1:
            continue
        if a2[0] == "id" and a0 == a1:
            continue
        if a0[0] == "id" and a2[0] == "id" and a1[0] == "id":
            continue
        out.append((a1, a0, a2))
    return frozenset(out)


def _face_arrows(x: SimplicialSet, t: str) -> tuple:
    """The arrows of the faces d_1, d_0 and d_2 of the 2-cell t, read
    from the face table: a face with a degeneracy word is an identity."""
    c = x.number(t)
    return tuple(("id" if mask else "gen", x.cell_id(base))
                 for mask, base in (x.face_code(0, c, i) for i in (1, 0, 2)))


def groupoid_presentation(x: SimplicialSet) -> GroupoidPresentation:
    generators = {e: _edge_ends(x, e) for e in x.cells(1)}
    relations = [_face_arrows(x, t) for t in x.cells(2)]
    return GroupoidPresentation(tuple(x.cells(0)), generators, tuple(relations))


class GroupPresentation(_Record):
    """A finite group presentation; relators are words of (generator,
    exponent) pairs with exponent +1 or -1."""

    _fields = ("generators", "relators")

    def __init__(self, generators: tuple, relators: tuple):
        self.__dict__.update(generators=generators, relators=relators)

    def abelianization(self) -> HomologyGroup:
        """Z^generators modulo the relators, computed once per
        presentation: `homotopy.count_homs` reads it for every abelian
        group it counts into."""
        return self._abelianization

    @cached_property
    def _abelianization(self) -> HomologyGroup:
        gens = len(self.generators)
        index = {g: i for i, g in enumerate(self.generators)}
        mat = IntMatrix.from_entries(
            gens, len(self.relators),
            ((index[g], k, e) for k, rel in enumerate(self.relators) for g, e in rel),
        )
        return group_from_presentation(gens, mat)


def pi1_presentation(x: SimplicialSet, base: str) -> GroupPresentation:
    """Presentation of the vertex group at `base`, by contracting a
    breadth-first spanning tree of its component; the abelianization is
    H_1 of that component."""
    if not x.has_cell(base) or x.cell_dim(base) != 0:
        raise ValueError("basepoint %r is not a 0-cell" % base)
    comp = component_map(x)
    cidx = comp[base]
    # breadth-first tree over nondegenerate edges
    adjacency = {}
    gens = {}
    for e in x.cells(1):
        src, dst = _edge_ends(x, e)
        if comp[src] != cidx:
            continue
        gens[e] = (src, dst)
        adjacency.setdefault(src, []).append((e, dst, +1))
        adjacency.setdefault(dst, []).append((e, src, -1))
    tree = set()
    seen = {base}
    queue = [base]
    while queue:
        v = queue.pop(0)
        for e, w, _ in adjacency.get(v, ()):
            if w not in seen:
                seen.add(w)
                tree.add(e)
                queue.append(w)
    generators = tuple(e for e in gens if e not in tree)

    def letters(arrow: Arrow):
        if arrow[0] == "id":
            return []
        e = arrow[1]
        return [(e, +1)] if e in generators else []

    relators = []
    for t in x.cells(2):
        ref = SimplexRef((), t)
        verts = x.vertices_of(ref)
        if comp.get(verts[0]) != cidx:
            continue
        a1, a0, a2 = _face_arrows(x, t)
        word = letters(a0) + letters(a2) + [(g, -e) for g, e in reversed(letters(a1))]
        if word:
            relators.append(tuple(word))
    return GroupPresentation(generators, tuple(relators))


# ---------------------------------------------------------------------------
# chains and homology


def _chain_basis(x: SimplicialSet, n: int, normalized: bool) -> list:
    """The generators of degree n of the chains of x, as (mask, cell)
    codes: the nondegenerate cells (0, c) when normalized, every
    n-simplex otherwise.  A pointed x drops the codes over its basepoint,
    which leaves its reduced chains."""
    codes = [(0, c) for c in x.numbers(n)] if normalized else x.simplex_codes(n)
    if x.pointed:
        bp = x.number(x.basepoint)
        codes = [code for code in codes if code[1] != bp]
    return codes


def chains(x: SimplicialSet, normalized: bool = True, cap: int | None = None) -> ChainComplex:
    """The chain complex of a simplicial set.

    Normalized: one generator per nondegenerate cell.  Unnormalized: one
    generator per simplex up to the dimension cap, which is mandatory
    because degenerate simplices exist in every dimension.  Pointed
    spaces yield reduced chains (the basepoint chain subcomplex is
    divided out).  Generators come from `_chain_basis`, and a face that
    is not a generator (a degenerate face of normalized chains, or the
    basepoint) drops out.  Each d(n) is written row by row while its
    columns are visited in basis order, so every row's columns come out
    ascending; a face repeated in one column adds into its row's last
    entry, and zero sums are dropped.
    """
    if not normalized and cap is None:
        raise ValueError("unnormalized chains require a dimension cap")
    top = x.top_dim() if normalized else cap
    basis = [_chain_basis(x, n, normalized) for n in range(top + 1)]
    ranks = {n: len(codes) for n, codes in enumerate(basis)}
    # a code's degree is its cell's dimension plus its mask's bit count,
    # so one index serves every degree
    index = {code: row for codes in basis for row, code in enumerate(codes)}
    table, face_code = x.face_table(), x.face_code
    d = {}
    for n in range(1, top + 1):
        # each row's columns and coefficients, written in column order
        js = [[] for _ in basis[n - 1]]
        xs = [[] for _ in basis[n - 1]]
        signs = (1, -1) * (n // 2 + 1)
        for col, (mask, c) in enumerate(basis[n]):
            faces = [face_code(mask, c, i) for i in range(n + 1)] if mask else table[c]
            for face, sign in zip(faces, signs):
                row = index.get(face)
                if row is None:
                    continue
                cols = js[row]
                if cols and cols[-1] == col:
                    # a face repeated in one column (d_0 = d_2 on RP^2)
                    xs[row][-1] += sign
                else:
                    cols.append(col)
                    xs[row].append(sign)
        d[n] = IntMatrix(len(js), len(basis[n]), tuple(map(_stored_row, js, xs)))
    # the empty set has top -1
    return ChainComplex(0, max(top, 0), ranks, d)


def homology_space(x: SimplicialSet, n: int) -> HomologyGroup:
    """Homology of the normalized chains; reduced when x is pointed."""
    return chains(x, normalized=True).homology(n)


def euler_characteristic(x: SimplicialSet) -> int:
    return sum((-1) ** n * x.n_cells(n) for n in x.dims())


def chain_map_of(f: SimplicialMap) -> ChainMap:
    """The induced map of normalized chain complexes, each side reduced
    when it is pointed: a cell whose image is degenerate, or is the
    basepoint of a pointed target, goes to zero."""
    cx, cy = chains(f.source), chains(f.target)
    codes = f.codes()
    comps = {}
    for n in f.source.dims():
        index = {code: row for row, code in enumerate(_chain_basis(f.target, n, True))}
        entries = []
        for col, (_, c) in enumerate(_chain_basis(f.source, n, True)):
            row = index.get(codes[c])
            if row is not None:
                entries.append((row, col, 1))
        comps[n] = IntMatrix.from_entries(cy.rank(n), cx.rank(n), entries)
    return ChainMap(cx, cy, comps)
