"""Homotopy constructions on finite simplicial sets.

The wrapping functor (forget degeneracies, then freely re-add them) with
its counit, the skeletal pushout squares it satisfies, mapping cylinders,
homotopy pushouts built from the concrete wedge/smash formula, and the
desk-scale weak-equivalence certificates: a certificate never decides a
weak equivalence, it records exactly which finite checks passed.

Every map out of a pushout or wedge here (comparison maps, retractions)
comes from `spaces.pushout_map`, the map its universal property
induces.  The cylinder object K ^ I+ is read by code: its end maps
through `SmashResult.image_code`, and its projection onto K off the
smash's product cells.  Cell ids are only ever minted, never read apart.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .complexes import ValidationError, _Record, cone
from .simplicial import BisimplicialSet, SimplexRef, SimplicialMap, SimplicialSet
from .spaces import (
    _compact,
    arrow_of,
    boundary,
    chain_map_of,
    component_map,
    groupoid_presentation,
    interval_pointed,
    normalize_relations,
    pi0,
    pi1_presentation,
    pushout_inj,
    pushout_map,
    simplex,
    skeleton,
    smash,
    wedge,
)


class WrapResult(NamedTuple):
    space: SimplicialSet
    counit: SimplicialMap


def wrap(x: SimplicialSet, trunc_dim: int) -> WrapResult:
    """The wrapping functor, truncated at trunc_dim.

    Nondegenerate n-cells are in bijection with all n-simplices of x;
    faces factor any composite through the face operators of x alone, so
    no face of a cell is ever degenerate.  The counit sends the cell of a
    simplex to that simplex, degeneracy word and all.
    """
    if trunc_dim < 0:
        raise ValueError("truncation must be nonnegative")
    face_code = x.face_code
    cells = {}
    number = {}  # (mask, cell) code of a simplex of x -> its cell number, in order
    table = []
    for n in range(trunc_dim + 1):
        ids = []
        for m, c in x.simplex_codes(n):
            number[m, c] = len(table)
            table.append(tuple((0, number[face_code(m, c, i)]) for i in range(n + 1)) if n else ())
            ids.append(_compact(x.ref(m, c)))
        if ids:
            cells[n] = ids
    space = SimplicialSet(cells, table, pointed=x.pointed,
                          basepoint=_compact(SimplexRef((), x.basepoint)) if x.pointed else None)
    return WrapResult(space, SimplicialMap(space, x, list(number)))


# ---------------------------------------------------------------------------
# skeletal pushout squares of the wrapped space


def _copy_id(tag: str, label: int, cell: str) -> str:
    return "%s%d#%s" % (tag, label, cell)


def _labelled_copies(count: int, t: SimplicialSet, tag: str) -> tuple:
    """Disjoint copies 0..count-1 of t, plus a disjoint basepoint: the
    smash of the discrete pointed set (labels + base) with t made pointed
    by a free basepoint.  Returns the space and its cell numbers as a dict
    (label, cell number of t) -> cell number of the copy, in cell-number
    order; the basepoint is cell 0."""
    cells = {0: ["*"]}
    number = {}
    for n in t.dims():
        for label in range(count):
            for c in t.numbers(n):
                number[label, c] = len(number) + 1
                cells.setdefault(n, []).append(_copy_id(tag, label, t.cell_id(c)))
    rows = t.face_table()
    table = [()] + [tuple((m, number[label, b]) for m, b in rows[c]) for label, c in number]
    return SimplicialSet(cells, table, pointed=True, basepoint="*"), number


def _iterated_face(x: SimplicialSet, code: tuple, n: int, keep: tuple) -> tuple:
    """The (mask, cell) code of the face of the n-simplex with code
    `code` spanned by the ordered vertex subset `keep`."""
    for v in range(n, -1, -1):
        if v not in keep:
            code = x.face_code(*code, v)
    return code


class SkeletonPushoutReport(_Record):
    _fields = ("holds", "expected_counts", "pushout_counts")

    def __init__(self, holds: bool, expected_counts: dict, pushout_counts: dict):
        self.__dict__.update(holds=holds, expected_counts=expected_counts,
                             pushout_counts=pushout_counts)


def skeleton_pushout_check(x: SimplicialSet, n: int, trunc_dim: int) -> SkeletonPushoutReport:
    """The next skeleton of the wrapped space is the pushout gluing one
    (n+1)-cell per (n+1)-simplex of x along its simplex boundary.

    Builds both sides explicitly (the gluing legs use disjoint copies of
    the (n+1)-simplex and its boundary, one per (n+1)-simplex of x, plus
    a free basepoint) and reports a cellwise isomorphism.  The four
    gluing maps are written as code lists: the cells of the wrapped
    space are numbered like the simplices of x in the counit, and the
    skeleta keep those numbers.
    """
    if not x.pointed:
        raise ValueError("the skeletal squares are stated for pointed spaces")
    if n + 1 > trunc_dim:
        raise ValueError("need n + 1 <= truncation (got n=%d, truncation=%d)" % (n, trunc_dim))
    wr = wrap(x, trunc_dim)
    cell_of = {code: k for k, code in enumerate(wr.counit.codes())}
    sk_lo = skeleton(wr.space, n)
    sk_hi = skeleton(wr.space, n + 1)
    tops = x.simplex_codes(n + 1)
    a, a_number = _labelled_copies(len(tops), boundary(n + 1), "a")
    w, w_number = _labelled_copies(len(tops), simplex(n + 1), "w")
    # the vertex subset of each cell of the (n+1)-simplex, by cell number
    keeps = [keep for size in range(1, n + 3) for keep in combinations(range(n + 2), size)]
    # the copy for tops[label] of the face of the simplex on a vertex
    # subset -> the cell of the wrapped space on those vertices of tops[label]
    spans = [(0, cell_of[0, x.number(x.basepoint)])] + [
        (0, cell_of[_iterated_face(x, tops[label], n + 1, keeps[c])]) for label, c in w_number]
    # the boundary's cells are the simplex's cells without the top one
    glued = [0] + [w_number[key] for key in a_number]
    include = SimplicialMap(a, w, [(0, c) for c in glued])
    attach = SimplicialMap(a, sk_lo, [spans[c] for c in glued])
    po = pushout_inj(include, attach)
    to_hi = SimplicialMap(w, sk_hi, spans)
    lo_in_hi = SimplicialMap(sk_lo, sk_hi, [(0, c) for c in range(len(sk_lo.face_table()))])
    try:
        holds = pushout_map(po, to_hi, lo_in_hi).is_cellwise_iso()
    except ValidationError:
        holds = False
    return SkeletonPushoutReport(
        holds=holds,
        expected_counts=sk_hi.cell_counts(),
        pushout_counts=po.space.cell_counts(),
    )


# ---------------------------------------------------------------------------
# cylinders and homotopy pushouts


def _cylinder_object(k: SimplicialSet):
    """The two end inclusions of k into k smashed with the pointed
    interval, and the projection back to k."""
    iv = interval_pointed()
    sm = smash(k, iv)

    def end_map(vertex: str) -> SimplicialMap:
        v = iv.number(vertex)
        return SimplicialMap(k, sm.space, [sm.image_code(0, c, (1 << n) - 1, v)
                                           for n in k.dims() for c in k.numbers(n)])

    # a smash cell off the basepoint is a cell (a, b) of K x I, which
    # projects onto a
    projection = SimplicialMap(sm.space, k, [(0, k.number(k.basepoint))]
                               + [(ma, a) for a, _, ma, _ in sm.product_cells])
    return end_map("0"), end_map("1"), projection


class CylinderResult(NamedTuple):
    space: SimplicialSet
    from_source: SimplicialMap  # K -> cyl(f)
    from_target: SimplicialMap  # L -> cyl(f)
    retraction: SimplicialMap  # cyl(f) -> L, strict one-sided inverse


def cylinder(f: SimplicialMap) -> CylinderResult:
    """Mapping cylinder: glue K ^ (interval)+ to L along the end at 1.

    The target inclusion followed by the retraction is the identity on
    the nose; the other composite is only homotopic to the identity and
    is left to certificates.
    """
    k, l = f.source, f.target
    if not (k.pointed and l.pointed and f.preserves_basepoint()):
        raise ValueError("cylinders need pointed spaces and a pointed map")
    end0, end1, projection = _cylinder_object(k)
    po = pushout_inj(end1, f)
    from_source = po.from_x.compose(end0)
    from_target = po.from_y
    ident = SimplicialMap.identity(l)
    retraction = pushout_map(po, f.compose(projection), ident)
    if retraction.compose(from_target) != ident:
        raise ValidationError("cylinder retraction is not a strict section")
    return CylinderResult(po.space, from_source, from_target, retraction)


class HomotopyPushoutResult(NamedTuple):
    space: SimplicialSet
    from_left: SimplicialMap  # L -> K_Q
    from_right: SimplicialMap  # M -> K_Q
    comparison: SimplicialMap | None  # K_Q -> N when a square is supplied


def homotopy_pushout(f: SimplicialMap, g: SimplicialMap, square=None) -> HomotopyPushoutResult:
    """Homotopy pushout of L <-f- K -g-> M: glue M v L to the cylinder
    object K ^ (interval)+ along its two ends (0 towards M, 1 towards L).

    Both structural maps are termwise coprojections.  When a strictly
    commuting cocone (u: L -> N, v: M -> N) is supplied, the induced
    comparison map K_Q -> N is returned as well.
    """
    k = f.source
    l, m = f.target, g.target
    for name, space in (("K", k), ("L", l), ("M", m)):
        if not space.pointed:
            raise ValueError("homotopy pushout needs pointed spaces (%s is unpointed)" % name)
    if not (f.preserves_basepoint() and g.preserves_basepoint()):
        raise ValueError("homotopy pushout needs pointed maps")
    if g.source is not k and g.source._cells != k._cells:
        raise ValueError("the two legs must share their source")
    end0, end1, projection = _cylinder_object(k)
    kk = wedge(k, k)
    ml = wedge(m, l)
    ends = pushout_map(kk, end0, end1)
    po = pushout_inj(ends, pushout_map(kk, ml.inl.compose(g), ml.inr.compose(f)))
    from_left = po.from_y.compose(ml.inr)
    from_right = po.from_y.compose(ml.inl)

    comparison = None
    if square is not None:
        u, v, _ = square
        if any(u.image_code(*fc) != v.image_code(*gc) for fc, gc in zip(f.codes(), g.codes())):
            raise ValueError("the supplied square does not commute strictly")
        comparison = pushout_map(po, u.compose(f).compose(projection), pushout_map(ml, v, u))
    return HomotopyPushoutResult(po.space, from_left, from_right, comparison)


def bar_column_bisimplicial(f: SimplicialMap, g: SimplicialMap) -> BisimplicialSet:
    """The two-row bisimplicial object whose columns are M v K^(v n) v L,
    obtained by freely adding degeneracies to the face-only diagram
    K => M v L; its diagonal is the homotopy pushout again."""
    k, ml = f.source, wedge(g.target, f.target)
    space = ml.space
    bottom = space.face_table()
    to_l, to_m = ml.inr.compose(f), ml.inl.compose(g)  # horizontal d_0 and d_1
    bp0, kb = space.number(space.basepoint), k.number(k.basepoint)
    # the 1-row holds K's cells but its basepoint: the K-copy sits inside
    # the wedged column, so K's basepoint is the horizontally degenerate
    # base of the 0-row
    row = [c for c in range(len(k.face_table())) if c != kb]
    top = {c: len(bottom) + t for t, c in enumerate(row)}
    cells = {(0, q): ["b0|" + c for c in space.cells(q)] for q in space.dims()}
    for q in k.dims():
        cells[1, q] = ["b1|" + c for c in k.cells(q) if c != k.basepoint]
    hfaces = [()] * len(bottom) + [
        tuple((0, *leg.codes()[c]) for leg in (to_l, to_m)) for c in row]
    vfaces = [tuple((0, m, b) for m, b in r) for r in bottom] + [
        tuple((1, m, bp0) if b == kb else (0, m, top[b]) for m, b in k.face_table()[c]) for c in row]
    return BisimplicialSet(cells, hfaces, vfaces, pointed=True, basepoint="b0|" + space.basepoint)


# ---------------------------------------------------------------------------
# weak-equivalence certificates


def _cyclic(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return table


def _klein_four():
    return [[i ^ j for j in range(4)] for i in range(4)]


def _sym3():
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    idx = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            comp = tuple(p[q[i]] for i in range(3))
            row.append(idx[comp])
        table.append(row)
    return table


SMALL_GROUPS = {
    1: [_cyclic(1)],
    2: [_cyclic(2)],
    3: [_cyclic(3)],
    4: [_cyclic(4), _klein_four()],
    5: [_cyclic(5)],
    6: [_cyclic(6), _sym3()],
}

_HOM_COUNT_CAP = 500_000


def _element_orders(table) -> list:
    """The order of each element of the group with this table."""
    orders = []
    for a in range(len(table)):
        k, x = 1, a
        while x:
            k, x = k + 1, table[x][a]
        orders.append(k)
    return orders


def _backtrack_homs(presentation, table) -> int:
    """Homomorphisms into any finite group, by depth-first assignment of
    the generators in order; each relator is evaluated as soon as its
    last generator has a value, so a failing branch is cut there."""
    gens = presentation.generators
    order = len(table)
    inv = [row.index(0) for row in table]
    index = {g: k for k, g in enumerate(gens)}
    due = [[] for _ in gens]  # relators by the index of their last generator
    for rel in presentation.relators:
        if rel:
            letters = [(index[g], e > 0) for g, e in rel]
            due[max(k for k, _ in letters)].append(letters)
    val = [0] * len(gens)

    def holds(letters) -> bool:
        acc = 0
        for k, positive in letters:
            acc = table[acc][val[k] if positive else inv[val[k]]]
        return acc == 0

    def extend(k: int) -> int:
        if k == len(gens):
            return 1
        total = 0
        for x in range(order):
            val[k] = x
            if all(map(holds, due[k])):
                total += extend(k + 1)
        return total

    return extend(0)


def count_homs(presentation, table) -> int:
    """Group homomorphisms from a presentation into the group given by a
    multiplication table with identity 0, or -1 when the table's order
    to the number of generators exceeds the cap.

    Into an abelian group A, Hom(G, A) = Hom(G_ab, A), so with
    G_ab = Z^f + Z/d_1 + ... the count is |A|^f times, per torsion
    coefficient d, the number of elements of A whose order divides d.
    Into a non-abelian group the generator assignments are searched with
    early relator checks."""
    order = len(table)
    if order ** len(presentation.generators) > _HOM_COUNT_CAP:
        return -1
    if any(table[i][j] != table[j][i] for i in range(order) for j in range(i)):
        return _backtrack_homs(presentation, table)
    ab = presentation.abelianization()
    orders = _element_orders(table)
    count = order ** ab.free_rank
    for d in ab.torsion:
        count *= sum(1 for k in orders if d % k == 0)
    return count


def hom_count_profile(presentation) -> dict:
    """Per order up to six, the total of `count_homs` over the groups of
    that order in SMALL_GROUPS, or -1 when some count hits the cap.  The
    presentation computes its abelianization once, for all the abelian
    tables."""
    out = {}
    for order, tables in SMALL_GROUPS.items():
        total = 0
        for table in tables:
            c = count_homs(presentation, table)
            if c < 0:
                total = -1
                break
            total += c
        out[order] = total
    return out


def push_presentation(f: SimplicialMap, pres):
    """The groupoid presentation of the source, rewritten through f:
    generators become target arrows (degenerate images turn into
    identities), relations translate arrow by arrow."""

    def push_arrow(arrow):
        if arrow[0] == "id":
            return ("id", f(SimplexRef((), arrow[1])).base)
        return arrow_of(f(SimplexRef((), arrow[1])))

    objects = tuple(f(SimplexRef((), v)).base for v in pres.objects)
    gen_arrows = [push_arrow(("gen", e)) for e in pres.generators]
    relations = tuple(
        (push_arrow(a1), push_arrow(a0), push_arrow(a2)) for a1, a0, a2 in pres.relations
    )
    return objects, gen_arrows, relations


def groupoid_comparison(f: SimplicialMap) -> str:
    """"equal" when the pushed presentation of the source matches the
    target presentation syntactically; "abelianized" when only the
    abelianized vertex groups were compared (and they agree);
    "contradicted" when some comparison failed; "skipped" when the
    component structures cannot be matched."""
    src = groupoid_presentation(f.source)
    tgt = groupoid_presentation(f.target)
    objects, gen_arrows, relations = push_presentation(f, src)
    pushed_gens = sorted(a[1] for a in gen_arrows if a[0] == "gen")
    if (
        len(set(objects)) == len(tgt.objects) == len(set(tgt.objects))
        and sorted(set(objects)) == sorted(tgt.objects)
        and pushed_gens == sorted(tgt.generators)
        and normalize_relations(relations) == tgt.normalized_relations()
    ):
        return "equal"
    # fall back to abelianized vertex groups, componentwise
    src_comps = pi0(f.source)
    tgt_comps = pi0(f.target)
    if len(src_comps) != len(tgt_comps):
        return "skipped"
    tgt_component = component_map(f.target)
    matched = {}
    for members in src_comps:
        v = members[0]
        w = f(SimplexRef((), v)).base
        matched[tgt_component[w]] = v
    if len(matched) != len(tgt_comps):
        return "skipped"
    for tgt_idx, v in sorted(matched.items()):
        w = f(SimplexRef((), v)).base
        a = pi1_presentation(f.source, v).abelianization()
        b = pi1_presentation(f.target, w).abelianization()
        if a != b:
            return "contradicted"
    return "abelianized"


class WeqCertificate(_Record):
    """Desk-scale evidence that a map is a weak equivalence: a bijection
    on components, vanishing mapping-cone homology through the stated
    range, fundamental-groupoid evidence, and counts of homomorphisms
    from the vertex groups into every group of order at most six.

    This is evidence, not a decision: for non-nilpotent fundamental
    groups it is strictly weaker than a genuine weak equivalence.
    """

    _fields = ("range", "pi0_bijective", "homology_iso", "groupoid_match",
               "finite_quotient_counts", "contradiction")

    def __init__(self, range: int, pi0_bijective: bool, homology_iso: dict, groupoid_match: str,
                 finite_quotient_counts: dict, contradiction: str | None = None):
        # groupoid_match: equal | abelianized | skipped
        self.__dict__.update(range=range, pi0_bijective=pi0_bijective, homology_iso=homology_iso,
                             groupoid_match=groupoid_match,
                             finite_quotient_counts=finite_quotient_counts,
                             contradiction=contradiction)

    @property
    def passed(self) -> bool:
        return (
            self.pi0_bijective
            and all(self.homology_iso.values())
            and self.contradiction is None
        )


def weq_certificate(f: SimplicialMap, range_deg: int) -> WeqCertificate:
    if range_deg < 0:
        raise ValueError("range must be nonnegative")
    src_comps = pi0(f.source)
    tgt_comps = pi0(f.target)
    tgt_component = component_map(f.target)
    images = set()
    for members in src_comps:
        images.add(tgt_component[f(SimplexRef((), members[0])).base])
    pi0_bij = len(src_comps) == len(tgt_comps) == len(images)

    cm = chain_map_of(f)
    mc = cone(cm)
    hom_flags = {i: mc.homology(i).is_zero() for i in range(range_deg + 1)}

    match = groupoid_comparison(f)
    contradiction = "fundamental groupoid abelianizations differ" if match == "contradicted" else None
    if match == "contradicted":
        match = "skipped"

    if f.source.pointed and f.target.pointed and f.preserves_basepoint():
        base_src = f.source.basepoint
    elif f.source.n_cells(0):
        base_src = f.source.cells(0)[0]
    else:
        base_src = None
    counts = {}
    if base_src is not None:
        src_pres = pi1_presentation(f.source, base_src)
        tgt_pres = pi1_presentation(f.target, f(SimplexRef((), base_src)).base)
        src_counts = hom_count_profile(src_pres)
        tgt_counts = hom_count_profile(tgt_pres)
        for order in sorted(SMALL_GROUPS):
            counts[order] = (src_counts[order], tgt_counts[order])
            if (
                contradiction is None
                and src_counts[order] >= 0
                and tgt_counts[order] >= 0
                and src_counts[order] != tgt_counts[order]
            ):
                contradiction = "hom counts into groups of order %d differ" % order
    return WeqCertificate(
        range=range_deg,
        pi0_bijective=pi0_bij,
        homology_iso=hom_flags,
        groupoid_match=match,
        finite_quotient_counts=counts,
        contradiction=contradiction,
    )
