import random
import re

import pytest

from skernel.complexes import HomologyGroup, ValidationError
from skernel.matrices import IntMatrix
from skernel.simplicial import BisimplicialSet, SimplexRef, SimplicialMap, SimplicialSet
from skernel.spaces import (
    boundary,
    chains,
    chain_map_of,
    diagonal,
    euler_characteristic,
    external_product,
    groupoid_presentation,
    homology_space,
    horn,
    interval_pointed,
    pi0,
    pi1_presentation,
    point,
    product,
    pushout_inj,
    pushout_map,
    quotient,
    simplex,
    skeleton,
    smash,
    sphere,
    suspension,
    wedge,
)

from helpers import constant_vertical, tuple_simplex_cells

Z = HomologyGroup(1)
Z2 = HomologyGroup(0, (2,))
TRIV = HomologyGroup(0)


def _cells_and_table(x):
    return {n: list(x.cells(n)) for n in x.dims()}, x.face_table()


def test_standard_spaces_keep_the_tuple_numbering():
    """Simplices, boundaries and horns numbered by vertex bitmask have the
    ids, order and face table they had when numbered by vertex tuple."""
    for n in range(10):
        assert _cells_and_table(simplex(n)) == tuple_simplex_cells(n, True), n
        assert _cells_and_table(boundary(n)) == tuple_simplex_cells(n, False), n
    for n in range(8):
        for k in range(n + 1):
            opposite = tuple(v for v in range(n + 1) if v != k)
            want = tuple_simplex_cells(n, False, (opposite,))
            assert _cells_and_table(horn(n, k)) == want, (n, k)


def inclusion(sub, big):
    return SimplicialMap(sub, big, {c: SimplexRef((), c) for _, c in sub.all_cells()})


def random_pointed_space(rng, n_extra_vertices=3, n_edges=5, n_triangles=2):
    """A random valid pointed simplicial set of dimension <= 2."""
    vertices = ["v%d" % i for i in range(n_extra_vertices + 1)]
    cells = {0: list(vertices)}
    faces = {}
    edges = []
    for t in range(n_edges):
        src, dst = rng.choice(vertices), rng.choice(vertices)
        e = "e%d" % t
        edges.append((e, src, dst))
        faces[(e, 0)] = SimplexRef((), dst)
        faces[(e, 1)] = SimplexRef((), src)
    cells[1] = [e for e, _, _ in edges]

    def one_simplices(src, dst):
        pool = [SimplexRef((), e) for e, s, d in edges if (s, d) == (src, dst)]
        if src == dst:
            pool.append(SimplexRef((0,), src))
        return pool

    triangles = []
    for t in range(n_triangles):
        for _ in range(30):
            u, v, w = rng.choice(vertices), rng.choice(vertices), rng.choice(vertices)
            bottom, long_, top = one_simplices(u, v), one_simplices(u, w), one_simplices(v, w)
            if bottom and long_ and top:
                cid = "t%d" % t
                triangles.append(cid)
                faces[(cid, 0)] = rng.choice(top)
                faces[(cid, 1)] = rng.choice(long_)
                faces[(cid, 2)] = rng.choice(bottom)
                break
    if triangles:
        cells[2] = triangles
    return SimplicialSet(cells, faces, pointed=True, basepoint="v0")


def test_standard_space_counts():
    assert boundary(1).cell_counts() == {0: 2}
    assert horn(2, 1).cell_counts() == {0: 3, 1: 2}
    assert sphere(1).cell_counts() == {0: 1, 1: 1}
    s1 = sphere(1)
    edge = SimplexRef((), "c")
    assert s1.face(edge, 0) == SimplexRef((), "*")
    assert s1.face(edge, 1) == SimplexRef((), "*")
    assert horn(0, 0).cell_counts() == {}
    with pytest.raises(ValueError):
        horn(2, 3)
    assert simplex(2).cell_counts() == {0: 3, 1: 3, 2: 1}


def test_product_unit_and_contractibility():
    d1 = simplex(1)
    p = product(d1, simplex(0))
    assert p.cell_counts() == {0: 2, 1: 1}
    sq = product(d1, d1)
    assert sq.cell_counts() == {0: 4, 1: 5, 2: 2}
    assert homology_space(sq, 0) == Z
    assert homology_space(sq, 1) == TRIV
    assert homology_space(sq, 2) == TRIV


def test_product_shuffle_oracle():
    """Cell counts of a product agree with direct shuffle enumeration."""
    from helpers import shuffles

    x, y = boundary(2), simplex(1)
    p = product(x, y)
    for n in p.dims():
        count = 0
        for q in x.dims():
            for r in y.dims():
                # pairs of words: choose disjoint I (n-q) and J (n-r)
                if max(q, r) <= n <= q + r:
                    import math

                    total = 0
                    from itertools import combinations

                    for wa in combinations(range(n), n - q):
                        rest = [t for t in range(n) if t not in wa]
                        total += math.comb(len(rest), n - r)
                    count += total * x.n_cells(q) * y.n_cells(r)
        assert p.n_cells(n) == count


def test_pi0_of_product():
    x = boundary(1)  # two points
    y = sphere(0)
    p = product(x, y)
    assert len(pi0(p)) == len(pi0(x)) * len(pi0(y))


def test_euler_characteristic_multiplicative():
    pairs = [(boundary(2), simplex(1)), (sphere(1), boundary(1)), (simplex(2), boundary(2))]
    for x, y in pairs:
        assert euler_characteristic(product(x, y)) == euler_characteristic(x) * euler_characteristic(y)


def test_wedge():
    s1 = sphere(1)
    w = wedge(s1, s1).space
    assert homology_space(w, 1) == HomologyGroup(2)
    pt_wedge = wedge(s1, point()).space
    assert pt_wedge.cell_counts() == s1.cell_counts()
    a = wedge(sphere(1), sphere(2)).space
    b = wedge(sphere(2), sphere(1)).space
    assert a.cell_counts() == b.cell_counts()
    for n in range(3):
        assert homology_space(a, n) == homology_space(b, n)
    with pytest.raises(ValueError):
        wedge(simplex(1), s1)


def test_smash():
    s0, s1 = sphere(0), sphere(1)
    unit = smash(s0, s1).space
    assert [str(homology_space(unit, n)) for n in range(3)] == ["0", "Z", "0"]
    torus_like = smash(s1, s1).space
    assert homology_space(torus_like, 2) == Z
    assert homology_space(torus_like, 1) == TRIV
    annihilated = smash(s1, point()).space
    assert all(homology_space(annihilated, n).is_zero() for n in range(3))


def test_suspension():
    s0, s1 = sphere(0), sphere(1)
    zero = suspension(s1, 0)
    for n in range(3):
        assert homology_space(zero, n) == homology_space(s1, n)
    circle = suspension(s0, 1)
    for n in range(3):
        assert homology_space(circle, n) == homology_space(s1, n)
    assert homology_space(suspension(s1, 2), 3) == Z


def test_pushout_quotient_examples():
    d2, bd2 = simplex(2), boundary(2)
    res = quotient(inclusion(bd2, d2))
    assert [str(homology_space(res.space, n)) for n in range(3)] == ["0", "0", "Z"]

    res2 = quotient(inclusion(boundary(1), simplex(1)))
    assert [str(homology_space(res2.space, n)) for n in range(3)] == ["0", "Z", "0"]


def test_pushout_along_coprojection():
    """Pushing out along a coprojection A -> A v B glues in the rest."""
    s1, s2 = sphere(1), sphere(2)
    w = wedge(s1, s2)
    res = pushout_inj(w.inl, SimplicialMap.identity(s1))
    for n in range(4):
        assert homology_space(res.space, n) == homology_space(w.space, n)


def test_pushout_rejects_non_injection():
    d1, pt = simplex(1), simplex(0)
    collapse = SimplicialMap(
        d1, pt,
        {"0": SimplexRef((), "0"), "1": SimplexRef((), "0"), "0.1": SimplexRef((0,), "0")},
    )
    with pytest.raises(ValueError):
        pushout_inj(collapse, SimplicialMap.identity(d1))


def test_pushout_map_restricts_to_both_legs():
    """The fold map S1 v S1 -> S1 comes from the cocone (id, id)."""
    s1 = sphere(1)
    w = wedge(s1, s1)
    ident = SimplicialMap.identity(s1)
    fold = pushout_map(w, ident, ident)
    assert fold.compose(w.inl) == ident
    assert fold.compose(w.inr) == ident


def test_pushout_map_rejects_a_cocone_that_does_not_commute():
    """u = id and v = the swap of * and p disagree on the glued point of
    S0 v S0, so no map out of the wedge restricts to both."""
    s0 = sphere(0)
    swap = SimplicialMap(s0, s0, {"*": SimplexRef((), "p"), "p": SimplexRef((), "*")})
    with pytest.raises(ValidationError, match="does not restrict to u on '\\*'"):
        pushout_map(wedge(s0, s0), SimplicialMap.identity(s0), swap)


def test_product_ids_are_injective():
    """Cell ids containing the separators of a minted id still give
    distinct product cells: {a|b, a} x {c, b|c} has four vertices."""
    x = SimplicialSet({0: ["a|b", "a"]}, {})
    y = SimplicialSet({0: ["c", "b|c"]}, {})
    assert product(x, y).cell_counts() == {0: 4}


def test_pushout_matches_chain_quotient(rng):
    """Homology of X/A agrees with homology of chains(X)/chains(A)."""
    d2, bd2 = simplex(2), boundary(2)
    res = quotient(inclusion(bd2, d2))
    cx = chains(d2)
    ca = chains(bd2)
    # quotient complex: generators of X not in A (inclusion is cellwise)
    from skernel.complexes import ChainComplex
    from skernel.matrices import IntMatrix

    keep = {n: [i for i, c in enumerate(d2.cells(n)) if not bd2.has_cell(c)] for n in d2.dims()}
    ranks = {n: len(ix) for n, ix in keep.items() if ix}
    d = {}
    for n in d2.dims():
        if n == 0 or not keep.get(n) or not keep.get(n - 1):
            continue
        full = cx.d(n)
        rows = [[full.at(i, j) for j in keep[n]] for i in keep[n - 1]]
        d[n] = IntMatrix.from_rows(rows, cols=len(keep[n]))
    qc = ChainComplex(0, max(ranks), ranks, d)
    for n in range(3):
        assert homology_space(res.space, n) == qc.homology(n)


def test_skeleton():
    d2 = simplex(2)
    sk1 = skeleton(d2, 1)
    assert sk1.cell_counts() == boundary(2).cell_counts()
    assert skeleton(d2, 5).cell_counts() == d2.cell_counts()
    assert skeleton(d2, -1).cell_counts() == {}
    assert skeleton(boundary(2), 1).cell_counts() == {0: 3, 1: 3}


def test_diagonal_of_external_product_is_product():
    for x, y in [(simplex(1), simplex(1)), (boundary(2), simplex(1)), (sphere(1), sphere(1))]:
        ext = external_product(x, y)
        dg = diagonal(ext)
        pr = product(x, y)
        assert dg.cell_counts() == pr.cell_counts()
        # the canonical relabelling d(I;J)(x|y) -> (s_I x | s_J y) is a
        # cellwise isomorphism commuting with the face structure
        from skernel.spaces import diag_id, pair_id, product_pairs

        assignment = {}
        for cid, (n, ra, rb) in product_pairs(x, y).items():
            base = pair_id(SimplexRef((), ra.base), SimplexRef((), rb.base))
            assignment[diag_id(ra.word, rb.word, base)] = SimplexRef((), cid)
        iso = SimplicialMap(dg, pr, assignment)
        assert iso.is_cellwise_iso()
        for n in range(4):
            assert homology_space(dg, n) == homology_space(pr, n)
        assert euler_characteristic(dg) == euler_characteristic(pr)


def test_diagonal_of_vertically_constant_is_identity():
    for x in [simplex(2), boundary(2), sphere(1)]:
        dg = diagonal(constant_vertical(x))
        assert dg.cell_counts() == x.cell_counts()
        for n in range(3):
            assert homology_space(dg, n) == homology_space(x, n)


@pytest.mark.parametrize("basepoint", [None, "b", "zz"])
def test_bisimplicial_basepoint_must_be_a_0_0_cell(basepoint):
    """A pointed bisimplicial set names a (0, 0)-cell as its basepoint;
    None, the (1, 0)-cell b or a name that is no cell is rejected at
    construction."""
    x = constant_vertical(simplex(1))
    cells = {bd: x.cells(*bd) for bd in x.bidegrees()}
    cells[(1, 0)] = ("b",)
    hfaces, vfaces = x._tables
    with pytest.raises(ValidationError, match="^basepoint %r is not a \\(0, 0\\)-cell$"
                       % (basepoint,)):
        BisimplicialSet(cells, hfaces, vfaces, pointed=True, basepoint=basepoint)


def test_diagonal_order_on_triple_products():
    x, y, z = simplex(1), sphere(1), boundary(2)
    left = diagonal(external_product(diagonal(external_product(x, y)), z))
    right = diagonal(external_product(x, diagonal(external_product(y, z))))
    assert left.cell_counts() == right.cell_counts()
    for n in range(4):
        assert homology_space(left, n) == homology_space(right, n)


def _with_hface(b, cell, i, base, masks=(0, 0)):
    """A copy of the bisimplicial set b whose horizontal face i of the
    cell numbered cell is the bisimplex (*masks, base); i = None drops
    the last face instead."""
    hfaces, vfaces = b._tables
    hfaces = list(hfaces)
    row = hfaces[cell]
    hfaces[cell] = row[:-1] if i is None else row[:i] + ((*masks, base),) + row[i + 1:]
    return BisimplicialSet({bd: b.cells(*bd) for bd in b.bidegrees()}, hfaces, vfaces)


def test_bisimplicial_verifier_rejects_a_broken_commutation():
    """In Δ¹ ⊠ Δ¹, pointing d^h_0 of the (1,1)-cell at the other
    (0,1)-cell breaks d^v_j d^h_0 = d^h_0 d^v_j on that cell."""
    ext = external_product(simplex(1), simplex(1))
    (top,) = ext.numbers(1, 1)
    left, right = ext.numbers(0, 1)
    _with_hface(ext, top, 0, right)  # the unchanged face is accepted
    with pytest.raises(ValidationError,
                       match="horizontal and vertical faces do not commute on %s"
                       % re.escape(repr(ext.cell_id(top)))):
        _with_hface(ext, top, 0, left)


def test_bisimplicial_verifier_rejects_a_broken_horizontal_identity():
    """In Δ² ⊠ Δ⁰, pointing d^h_0 of the (2,0)-cell at the edge 0.2 breaks
    d_0 d_2 = d_1 d_0 in the horizontal direction."""
    ext = external_product(simplex(2), simplex(0))
    (top,) = ext.numbers(2, 0)
    edges = ext.numbers(1, 0)  # the edges 0.1, 0.2, 1.2 of Δ² beside the vertex of Δ⁰
    _with_hface(ext, top, 0, edges[2])
    with pytest.raises(ValidationError,
                       match="horizontal identity failed on %s" % re.escape(repr(ext.cell_id(top)))):
        _with_hface(ext, top, 0, edges[1])


def test_bisimplicial_verifier_rejects_malformed_face_rows():
    """A missing face, a face on an unknown cell and faces of the wrong
    bidegree are each refused before any identity is evaluated."""
    ext = external_product(simplex(1), simplex(1))
    (top,) = ext.numbers(1, 1)
    left = ext.numbers(0, 1)[0]
    cases = [((None, left), "needs 2 horizontal faces, got 1"),
             ((0, 99), "references unknown cell"),
             ((0, top), "horizontal face of .* has wrong bidegree"),
             ((0, left, (1, 0)), "horizontal face of .* has wrong bidegree")]
    for args, message in cases:
        with pytest.raises(ValidationError, match=message):
            _with_hface(ext, top, *args)


def test_pi0_examples():
    from skernel.simplicial import SimplicialSet

    assert len(pi0(sphere(0))) == 2
    assert len(pi0(boundary(2))) == 1
    assert pi0(SimplicialSet({}, {})) == []


def test_pi0_h0_consistency(rng):
    for _ in range(5):
        x = random_pointed_space(rng)
        unpointed = strip_point(x)
        assert homology_space(unpointed, 0).free_rank == len(pi0(unpointed))


def strip_point(x):
    from skernel.simplicial import SimplicialSet

    return SimplicialSet(
        {n: list(x.cells(n)) for n in x.dims()},
        {(c, i): x.stored_face(c, i) for n in x.dims() if n for c in x.cells(n) for i in range(n + 1)},
    )


def test_groupoid_presentation():
    d1 = simplex(1)
    g = groupoid_presentation(d1)
    assert len(g.objects) == 2 and len(g.generators) == 1 and len(g.relations) == 0
    g2 = groupoid_presentation(boundary(2))
    assert len(g2.objects) == 3 and len(g2.generators) == 3 and len(g2.relations) == 0
    # the arrow assigned to a degenerate edge is an identity
    from skernel.spaces import arrow_of

    assert arrow_of(SimplexRef((0,), "v")) == ("id", "v")


def test_pi1_presentations():
    g = pi1_presentation(boundary(2), "0")
    assert len(g.generators) == 1 and len(g.relators) == 0
    assert g.abelianization() == Z

    g2 = pi1_presentation(simplex(2), "0")
    assert g2.abelianization() == TRIV

    # one vertex, one loop a, one 2-cell with faces (a, s0 v, a):
    # the relation forces a*a = id, so the group abelianizes to Z/2
    from skernel.simplicial import SimplicialSet

    x = SimplicialSet(
        {0: ["v"], 1: ["a"], 2: ["t"]},
        {
            ("a", 0): SimplexRef((), "v"),
            ("a", 1): SimplexRef((), "v"),
            ("t", 0): SimplexRef((), "a"),
            ("t", 1): SimplexRef((0,), "v"),
            ("t", 2): SimplexRef((), "a"),
        },
    )
    g3 = pi1_presentation(x, "v")
    assert g3.abelianization() == Z2
    assert homology_space(x, 1) == Z2


def test_pi1_abelianization_matches_h1(rng):
    for _ in range(8):
        x = random_pointed_space(rng)
        comp0 = [c for c in pi0(x) if "v0" in c][0]
        sub = component_subspace(x, set(comp0))
        pres = pi1_presentation(x, "v0")
        assert pres.abelianization() == homology_space(strip_point(sub), 1)


def component_subspace(x, comp_vertices):
    from skernel.simplicial import SimplicialSet

    cells = {}
    faces = {}
    for n in x.dims():
        kept = []
        for c in x.cells(n):
            verts = set(x.vertices_of(SimplexRef((), c)))
            if verts <= comp_vertices:
                kept.append(c)
                for i in range(n + 1) if n else ():
                    faces[(c, i)] = x.stored_face(c, i)
        if kept:
            cells[n] = kept
    return SimplicialSet(cells, faces, pointed=x.pointed and x.basepoint in comp_vertices,
                         basepoint=x.basepoint if x.basepoint in comp_vertices else None)


def test_chains_examples():
    c = chains(simplex(0))
    assert c.rank(0) == 1 and c.homology(0) == Z
    cb = chains(boundary(2))
    assert (cb.rank(0), cb.rank(1)) == (3, 3)
    assert cb.homology(0) == Z and cb.homology(1) == Z


def test_chains_require_cap_for_unnormalized():
    with pytest.raises(ValueError):
        chains(simplex(1), normalized=False)


def test_normalized_vs_unnormalized_on_random_spaces(rng):
    for _ in range(5):
        x = strip_point(random_pointed_space(rng, 2, 4, 2))
        cn = chains(x, normalized=True)
        cu = chains(x, normalized=False, cap=4)
        for n in range(4):
            assert cn.homology(n) == cu.homology(n)


def test_homology_space_examples():
    assert homology_space(sphere(2), 2) == Z
    assert all(homology_space(point(), n).is_zero() for n in range(3))
    w = wedge(sphere(1), sphere(2)).space
    assert homology_space(w, 1) == Z and homology_space(w, 2) == Z


def test_chain_map_of_collapse():
    d2 = simplex(2)
    pt = simplex(0)
    assignment = {
        c: SimplexRef(tuple(range(n - 1, -1, -1)), "0") for n, c in d2.all_cells()
    }
    f = SimplicialMap(d2, pt, assignment)
    cm = chain_map_of(f)
    from skernel.complexes import check_quasi_iso

    assert check_quasi_iso(cm).is_quasi_iso


def _same_chains(a, b) -> bool:
    """Equal ranks and differentials; `repr` of the nonzeros also tells an
    int entry from an equal float."""
    degrees = range(min(a.min_deg, b.min_deg), max(a.max_deg, b.max_deg) + 1)
    return ([a.rank(n) for n in degrees] == [b.rank(n) for n in degrees]
            and repr([a.d(n).nonzeros for n in degrees]) == repr([b.d(n).nonzeros for n in degrees]))


def _homology_large_spaces() -> list:
    """The spaces whose chains the benchmark's homology-large workload
    reduces."""
    bd, sph, prod = boundary, sphere, product
    t2 = lambda: prod(sph(1), sph(1))
    return [bd(n) for n in range(2, 10)] + [sph(k) for k in range(1, 5)] + [
        smash(sph(1), sph(1)).space, suspension(sph(1), 1), prod(bd(2), bd(2)), prod(bd(2), bd(3)),
        prod(bd(3), bd(3)), prod(bd(2), bd(4)), prod(bd(3), sph(1)), prod(bd(3), sph(2)),
        prod(sph(2), sph(3)), prod(t2(), sph(1)), prod(prod(t2(), sph(1)), sph(1)),
        prod(prod(sph(2), sph(2)), sph(2)), smash(sph(1), sph(2)).space,
        smash(sph(2), sph(3)).space, smash(t2(), sph(1)).space, smash(t2(), t2()).space,
        suspension(sph(2), 2), suspension(t2(), 1), suspension(sph(1), 3),
        suspension(prod(t2(), sph(1)), 2),
    ]


def _spaces_the_suite_builds(monkeypatch) -> list:
    """Every simplicial set that run_suite builds at seed 0, both sizes."""
    from skernel.suite import run_suite

    built = []
    validate = SimplicialSet._validate

    def record(self):
        validate(self)
        built.append(self)

    with monkeypatch.context() as m:
        m.setattr(SimplicialSet, "_validate", record)
        for size in ("small", "medium"):
            assert run_suite(0, size)[1]
    return built


def _random_spaces(count: int) -> list:
    """Seeded random spaces of dimension at most two, every other one
    unpointed."""
    rng = random.Random(18)
    out = []
    for k in range(count):
        x = random_pointed_space(rng, rng.randint(1, 3), rng.randint(2, 6), rng.randint(0, 3))
        out.append(SimplicialSet({n: list(x.cells(n)) for n in x.dims()}, x.face_table())
                   if k % 2 else x)
    return out


def test_chains_equal_the_named_chains(monkeypatch):
    """`chains` on (mask, cell) codes builds the same complexes, entry
    for entry, as the name-based builder it replaced: normalized and
    unnormalized, reduced and not, with degenerate and basepoint faces."""
    from helpers import named_chains

    t2 = product(sphere(1), sphere(1))
    named = [point(), sphere(0), simplex(0), horn(3, 1), interval_pointed(), t2,
             wedge(sphere(1), sphere(2)).space, smash(t2, sphere(1)).space,
             SimplicialSet({}, {})]
    spaces = (named + _homology_large_spaces() + _spaces_the_suite_builds(monkeypatch)
              + _random_spaces(200))
    for x in spaces:
        assert _same_chains(chains(x), named_chains(x)), x
        assert _same_chains(chains(x, normalized=False, cap=4),
                            named_chains(x, normalized=False, cap=4)), x


def test_chain_map_of_unpointed_source_into_pointed_target():
    """The target's chains are reduced, so its generators leave out the
    basepoint: C(Delta^1) -> C~(I+) is an isomorphism."""
    from skernel.complexes import check_quasi_iso

    d1, iv = simplex(1), interval_pointed()
    f = SimplicialMap(d1, iv, {"0": SimplexRef((), "0"), "1": SimplexRef((), "1"),
                               "0.1": SimplexRef((), "01")})
    cm = chain_map_of(f)
    assert cm.component(0) == IntMatrix.identity(2) and cm.component(1) == IntMatrix.identity(1)
    assert check_quasi_iso(cm).is_quasi_iso


def test_smash_equals_the_smash_built_by_name():
    """The smash built directly has the cells, ids, faces, basepoint and
    collapse of the quotient of the product by the wedge, with the wedge
    inclusions built by name through `product_pair_ref`; so does every
    suspension."""
    from helpers import named_smash

    t2 = product(sphere(1), sphere(1))
    rng = random.Random(7)
    factors = ([point(), sphere(0), sphere(1), sphere(2), t2]
               + [random_pointed_space(rng) for _ in range(4)])
    for x in factors:
        for y in (point(), sphere(0), sphere(1), sphere(2), x):
            got, want = smash(x, y), named_smash(x, y)
            assert got.space._cells == want.space._cells
            assert got.space.face_table() == want.space.face_table()
            assert got.space.basepoint == want.space.basepoint
            assert got.collapse == want.collapse
        for i in range(4):
            got, want = suspension(x, i), named_smash(x, sphere(i)).space
            assert got._cells == want._cells and got.face_table() == want.face_table()
            assert got.basepoint == want.basepoint
    # the oracle mints its ids through the same `_leg_id`, so pin a few
    s1 = sphere(1)
    assert smash(s1, s1).space._cells == {0: ("y:*",), 1: ('x:("c"|"c")',),
                                          2: ('x:(s0"c"|s1"c")', 'x:(s1"c"|s0"c")')}
    assert wedge(s1, sphere(2)).space._cells == {0: ("y:*",), 1: ("x:c",), 2: ("y:c",)}


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Replace owner.name by a wrapper that appends to the returned list
    on every call."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_smash_and_suspension_build_no_product_pushout_or_map(monkeypatch):
    """The smash's space is the one simplicial set its construction
    builds: no product, wedge, pushout or simplicial map behind it."""
    from skernel import spaces

    t2 = product(sphere(1), sphere(1))
    s2, iv, pt = sphere(2), interval_pointed(), point()
    built = _count_calls(monkeypatch, SimplicialSet, "__init__")
    products = _count_calls(monkeypatch, spaces, "product")
    pushouts = _count_calls(monkeypatch, spaces, "pushout_inj")
    maps = _count_calls(monkeypatch, SimplicialMap, "__init__")
    for x, y in [(t2, s2), (s2, s2), (t2, iv), (iv, pt)]:
        smash(x, y).space
    assert len(built) == 4
    suspension(t2, 3)
    assert len(built) == 6  # the 3-sphere and the suspension
    assert not products and not pushouts and not maps


def test_smash_collapse_is_built_once_and_equals_the_oracle(monkeypatch):
    """The collapse is built on first read, from one product, and is the
    quotient map of the oracle's pushout."""
    from helpers import named_smash
    from skernel import spaces

    t2 = product(sphere(1), sphere(1))
    products = _count_calls(monkeypatch, spaces, "product")
    sm = smash(t2, sphere(2))
    assert not products
    first = sm.collapse
    assert sm.collapse is first and len(products) == 1
    assert first == named_smash(t2, sphere(2)).collapse
    assert first.source._cells == product(t2, sphere(2))._cells


def test_a_corrupted_smash_collapse_is_rejected():
    """The collapse is validated like any map: a cell off the wedge sent
    onto another cell of its dimension, while a cell it is a face of is
    sent onto itself, breaks a face."""
    from skernel.spaces import SmashResult

    t2 = product(sphere(1), sphere(1))
    for x, y in [(t2, sphere(1)), (sphere(2), t2), (t2, t2)]:
        sm = smash(x, y)
        image = list(sm._image)
        # a cell off the wedge that is a nondegenerate face of another
        face = next(b for row in sm.space.face_table() for m, b in row if b and not m)
        n = sm.space.cell_dim(sm.space.cell_id(face))
        image[image.index(face)] = next(c for c in sm.space.numbers(n) if c != face)
        with pytest.raises(ValidationError, match="map does not commute"):
            SmashResult(sm.space, x, y, sm._number, image, sm.product_cells).collapse


def test_cylinders_pushouts_and_the_smash_comparison_build_no_product(monkeypatch):
    """Cylinders, homotopy pushouts (with a comparison map) and the smash
    comparison read the smash by code: they call no `product` and never
    read `SmashResult.collapse`."""
    from skernel import spaces
    from skernel.homotopy import cylinder, homotopy_pushout
    from skernel.simpab import smash_comparison_iso
    from skernel.spaces import SmashResult

    t2 = product(sphere(1), sphere(1))
    s1 = sphere(1)
    to_pt = SimplicialMap(s1, point(), {"*": SimplexRef((), "*"), "c": SimplexRef((0,), "*")})
    products = _count_calls(monkeypatch, spaces, "product")
    reads = []
    real = SmashResult.collapse
    monkeypatch.setattr(SmashResult, "collapse",
                        property(lambda sm: reads.append(sm) or real.__get__(sm, SmashResult)))
    cylinder(SimplicialMap.identity(t2))
    cylinder(to_pt)
    square = (SimplicialMap.identity(point()), SimplicialMap.identity(point()), None)
    assert homotopy_pushout(to_pt, to_pt, square).comparison is not None
    homotopy_pushout(SimplicialMap.identity(t2), SimplicialMap.identity(t2))
    smash_comparison_iso(t2, sphere(2), 3)
    assert not products and not reads


def test_a_wrong_product_cell_breaks_the_cylinder_projection(monkeypatch):
    """The projection K ^ I+ -> K is read off the smash's product cells
    and validated as a map: one product cell with the wrong (mask, cell)
    of K makes the cylinder raise."""
    from skernel import homotopy
    from skernel.homotopy import cylinder

    t2 = product(sphere(1), sphere(1))
    real = homotopy.smash

    def corrupted(x, y):
        sm = real(x, y)
        cells = sm.product_cells = list(sm.product_cells)
        # the first 2-cell over a nondegenerate cell of K, moved to
        # another cell of its dimension
        k = next(k for k, (a, _, ma, _) in enumerate(cells)
                 if not ma and x.cell_dim(x.cell_id(a)) == 2)
        a, b, ma, mb = cells[k]
        other = next(c for c in x.numbers(2) if c != a)
        cells[k] = (other, b, ma, mb)
        return sm

    monkeypatch.setattr(homotopy, "smash", corrupted)
    with pytest.raises(ValidationError, match="map does not commute"):
        cylinder(SimplicialMap.identity(t2))


def test_smash_and_suspension_refuse_unpointed_spaces():
    for x, y in [(simplex(1), sphere(1)), (sphere(1), simplex(1)), (simplex(0), simplex(0))]:
        with pytest.raises(ValueError, match="smash requires pointed spaces"):
            smash(x, y)
    with pytest.raises(ValueError, match="suspension requires a pointed space"):
        suspension(simplex(1), 1)


def _rp2() -> SimplicialSet:
    """The real projective plane from one cell in each dimension: d_0
    and d_2 of its 2-cell are the same loop, so d(2) has the entry 2."""
    return SimplicialSet({0: ["v"], 1: ["a"], 2: ["t"]},
                         {("a", 0): SimplexRef((), "v"), ("a", 1): SimplexRef((), "v"),
                          ("t", 0): SimplexRef((), "a"), ("t", 1): SimplexRef((0,), "v"),
                          ("t", 2): SimplexRef((), "a")})


def test_chains_equal_the_chains_built_from_sorted_entries():
    """`chains` writes each row in place, merging a face repeated in one
    column; the differentials equal, entry for entry, those that
    `IntMatrix.from_entries` builds from the sorted boundary entries."""
    from helpers import entries_chains

    rp2 = _rp2()
    loop = SimplicialSet({0: ["v"], 1: ["e"]},
                         {("e", 0): SimplexRef((), "v"), ("e", 1): SimplexRef((), "v")})
    rng = random.Random(20)
    spaces = (_homology_large_spaces() + [rp2, product(rp2, rp2), loop, product(loop, rp2)]
              + [random_pointed_space(rng) for _ in range(20)])
    assert chains(rp2).d(2).nonzeros == (((0,), (2,)),)
    assert chains(loop).d(1).nonzeros == (((), ()),)
    assert chains(product(rp2, rp2)).homology(2) == HomologyGroup(0, (2,))
    for x in spaces:
        assert _same_chains(chains(x), entries_chains(x)), x
        assert _same_chains(chains(x, normalized=False, cap=4),
                            entries_chains(x, normalized=False, cap=4)), x
