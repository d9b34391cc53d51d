import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from skernel.complexes import ValidationError
from skernel.simplicial import (
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    mask_compose,
    mask_face,
    mask_insert,
    mask_of,
    word_of,
)
from skernel.generators import random_pointed_space
from skernel.spaces import (
    boundary,
    product,
    product_pairs,
    pushout_inj,
    pushout_map,
    quotient,
    simplex,
    smash,
    sphere,
    suspension,
    wedge,
)

from helpers import NamedMap, naive_rewrite_degeneracy, slice_identity_failure


def insert_word(word, j):
    """s_j applied after a word, through the mask rules."""
    return word_of(mask_insert(mask_of(word), j))


def face_word(word, i):
    """d_i pushed through a word, through the mask rules."""
    prefix, k = mask_face(mask_of(word), i)
    return word_of(prefix), k


def test_word_insert_matches_rewriting_oracle():
    rng = random.Random(5)
    for _ in range(300):
        # build a valid normal word by inserting random degeneracies
        word = ()
        dim = rng.randint(0, 4)
        for _ in range(rng.randint(0, 4)):
            word = insert_word(word, rng.randint(0, dim + len(word)))
        j = rng.randint(0, dim + len(word))
        assert insert_word(word, j) == naive_rewrite_degeneracy(word, j)


def naive_face(word, i):
    """Oracle: push d_i through a word one degeneracy at a time with
    d_i s_j = s_{j-1} d_i (i < j), d_i s_j = id (i = j, j+1) and
    d_i s_j = s_j d_{i-1} (i > j+1)."""
    out = []
    for pos, j in enumerate(word):
        if i < j:
            out.append(j - 1)
        elif i in (j, j + 1):
            return tuple(out) + tuple(word[pos + 1:]), None
        else:
            out.append(j)
            i -= 1
    return tuple(out), i


def all_words(top_dim):
    """Every strictly decreasing word valid on an n-simplex, n <= top_dim,
    as (n, word) pairs."""
    for n in range(top_dim + 1):
        for size in range(n + 1):
            for word in combinations(range(n - 1, -1, -1), size):
                yield n, word


def test_bit_rules_agree_with_the_rewriting_oracles_exhaustively():
    """Over every word on dimensions <= 7: s_j against exhaustive
    rewriting, d_i against the letter-by-letter oracle, composition
    against repeated s_j, and d_i s_j against its case analysis."""
    words = list(all_words(7))
    for n, word in words:
        mask = mask_of(word)
        assert word_of(mask) == word
        for i in range(n + 1):
            prefix, k = mask_face(mask, i)
            assert (word_of(prefix), k) == naive_face(word, i)
            assert face_word(word, i) == naive_face(word, i)
        for j in range(n + 1):
            inserted = mask_insert(mask, j)
            assert word_of(inserted) == naive_rewrite_degeneracy(word, j)
            for i in range(n + 2):
                got = mask_face(inserted, i)
                if i in (j, j + 1):
                    assert got == (mask, None)
                    continue
                below, k = mask_face(mask, i if i < j else i - 1)
                assert got == (mask_insert(below, j - 1 if i < j else j), k)
    for n, outer in words:
        for m, inner in all_words(n - len(outer)):
            if m != n - len(outer):
                continue
            expected = inner
            for j in reversed(outer):
                expected = naive_rewrite_degeneracy(expected, j)
            assert word_of(mask_compose(mask_of(outer), mask_of(inner))) == expected


def _mutation_cases(x, rng):
    """(faces dict, cell) with face i of one cell of dimension >= 2
    replaced by another simplex of the same dimension whose faces differ
    from the stored one's, so that an identity on that cell must fail."""
    faces = {(c, i): x.stored_face(c, i) for n, c in x.all_cells() for i in range(n + 1) if n}
    for n, c in x.all_cells():
        if n < 2:
            continue
        i = rng.randrange(n + 1)
        old = faces[(c, i)]
        row = [x.face(old, k) for k in range(n)]
        others = [r for r in x.simplices(n - 1) if [x.face(r, k) for k in range(n)] != row]
        if not others:  # every (n-1)-simplex has the stored face's faces
            continue
        mutated = dict(faces)
        mutated[(c, i)] = rng.choice(others)
        yield mutated, c


@pytest.mark.parametrize("build", [lambda: boundary(5), lambda: product(sphere(2), sphere(2))],
                         ids=["bd5", "S2xS2"])
def test_a_replaced_face_is_rejected_naming_the_identity_and_cell(build):
    x = build()
    rng = random.Random(8)
    cells = {n: list(x.cells(n)) for n in x.dims()}
    count = 0
    for faces, cell in _mutation_cases(x, rng):
        with pytest.raises(ValidationError) as err:
            SimplicialSet(cells, faces, pointed=x.pointed, basepoint=x.basepoint)
        assert "simplicial identity d_" in str(err.value)
        assert str(err.value).endswith("failed on %r" % cell)
        count += 1
    assert count >= 2


def _first_failing_identity(x, cell, i0, ref):
    """(i, j) of the first identity d_i d_j = d_{j-1} d_i, by j and then
    i, that fails on `cell` once its face i0 is `ref`, computed with the
    faces of x (the other cells keep their faces); None if all hold."""
    n = x.cell_dim(cell)
    faces = [ref if k == i0 else x.stored_face(cell, k) for k in range(n + 1)]
    return next(((i, j) for j in range(1, n + 1) for i in range(j)
                 if x.face(faces[j], i) != x.face(faces[i], j - 1)), None)


@pytest.mark.parametrize("build", [lambda: product(sphere(2), sphere(2)),
                                   lambda: product(simplex(1), simplex(2)),
                                   lambda: smash(product(sphere(1), sphere(1)), sphere(1)).space],
                         ids=["S2xS2", "D1xD2", "T2^S1"])
def test_a_wrong_degenerate_face_is_rejected_naming_the_first_failing_identity(build):
    """One face replaced by another degenerate simplex so that an
    identity on the cell fails, as found independently through `face`:
    the message names the first one.  Cells are checked in number order,
    so no later cell, which may have the changed one as a face, speaks
    first."""
    x = build()
    rng = random.Random(19)
    cells = {n: list(x.cells(n)) for n in x.dims()}
    faces = {(c, i): x.stored_face(c, i) for n, c in x.all_cells() for i in range(n + 1) if n}
    count = 0
    for n, c in x.all_cells():
        if n < 2:
            continue
        degenerate = [r for r in x.simplices(n - 1) if r.word]
        for i0 in range(n + 1):
            pool = [r for r in degenerate if r != faces[(c, i0)]]
            for ref in rng.sample(pool, min(3, len(pool))):
                want = _first_failing_identity(x, c, i0, ref)
                if want is None:
                    continue
                with pytest.raises(ValidationError) as err:
                    SimplicialSet(cells, {**faces, (c, i0): ref}, pointed=x.pointed,
                                  basepoint=x.basepoint)
                assert str(err.value) == "simplicial identity d_%d d_%d failed on %r" % (*want, c)
                count += 1
    assert count >= 20


def test_a_replaced_face_of_a_smash_with_a_point_1_skeleton_is_a_valid_set():
    """In S^1 ^ S^2 every 2-simplex has the faces s0 *, so no identity can
    see a 3-cell's face replaced by another 2-simplex: the rebuilt set is
    valid, and a different one."""
    x = smash(sphere(1), sphere(2)).space
    assert list(_mutation_cases(x, random.Random(8))) == []
    faces = {(c, i): x.stored_face(c, i) for n, c in x.all_cells() for i in range(n + 1) if n}
    top = x.cells(3)[0]
    old = faces[(top, 0)]
    faces[(top, 0)] = next(r for r in x.simplices(2) if r != old)
    y = SimplicialSet({n: list(x.cells(n)) for n in x.dims()}, faces,
                      pointed=True, basepoint=x.basepoint)
    assert y.stored_face(top, 0) != x.stored_face(top, 0)


def test_out_of_range_words_are_rejected():
    cells = {0: ["v"], 1: ["e"], 2: ["t"]}
    faces = {("e", 0): SimplexRef((), "v"), ("e", 1): SimplexRef((), "v"),
             ("t", 0): SimplexRef((), "e"), ("t", 1): SimplexRef((3,), "v"),
             ("t", 2): SimplexRef((), "e")}
    with pytest.raises(ValidationError, match="outside 0..0"):
        SimplicialSet(cells, faces)
    s1, s2 = sphere(1), sphere(2)
    with pytest.raises(ValidationError, match="image word \\(5,\\) of 'c'"):
        SimplicialMap(s2, s1, {"*": SimplexRef((), "*"), "c": SimplexRef((5,), "c")})


def test_word_insert_example():
    # s0 applied to s0 v has normal form s1 s0 v
    assert insert_word((0,), 0) == (1, 0)


def test_word_face_cancellation():
    # d1 s0 = id and d0 s0 = id
    assert face_word((0,), 1) == ((), None)
    assert face_word((0,), 0) == ((), None)
    # d0 s1 = s0 d0
    assert face_word((1,), 0) == ((0,), 0)
    # d3 s1 = s1 d2
    assert face_word((1,), 3) == ((1,), 2)


def test_face_of_degeneracy_identity():
    x = simplex(0)
    v = SimplexRef((), "0")
    sv = x.degeneracy(v, 0)
    assert x.face(sv, 0) == v
    assert x.face(sv, 1) == v


def test_stored_face_lookup():
    d2 = simplex(2)
    top = SimplexRef((), "0.1.2")
    assert d2.face(top, 0) == SimplexRef((), "1.2")
    assert d2.face(top, 1) == SimplexRef((), "0.2")
    assert d2.face(top, 2) == SimplexRef((), "0.1")


def test_simplicial_identity_suite_on_random_words():
    """d_i d_j = d_{j-1} d_i, the d_i s_j case analysis, and
    s_i s_j = s_{j+1} s_i, evaluated through the engine on random
    simplices of real spaces."""
    rng = random.Random(11)
    spaces = [simplex(2), simplex(3), boundary(3), sphere(2)]
    for x in spaces:
        for _ in range(50):
            n0 = rng.choice(x.dims())
            ref = SimplexRef((), rng.choice(x.cells(n0)))
            for _ in range(rng.randint(0, 3)):
                ref = x.degeneracy(ref, rng.randint(0, x.dim(ref)))
            n = x.dim(ref)
            if n >= 2:
                for j in range(1, n + 1):
                    for i in range(j):
                        assert x.face(x.face(ref, j), i) == x.face(x.face(ref, i), j - 1)
            for j in range(n + 1):
                s = x.degeneracy(ref, j)
                for i in range(n + 2):
                    out = x.face(s, i)
                    if i == j or i == j + 1:
                        assert out == ref
                    elif i < j:
                        assert out == x.degeneracy(x.face(ref, i), j - 1)
                    else:
                        assert out == x.degeneracy(x.face(ref, i - 1), j)
            for j in range(n + 1):
                for i in range(j + 1):
                    lhs = x.degeneracy(x.degeneracy(ref, j), i)
                    rhs = x.degeneracy(x.degeneracy(ref, i), j + 1)
                    assert lhs == rhs


def test_normal_form_confluence_random_operator_words():
    """Applying random operator words along the engine always lands on
    the unique normal form: compare against composing in two associativity
    orders."""
    rng = random.Random(23)
    x = boundary(3)
    for _ in range(200):
        ref = SimplexRef((), rng.choice(x.cells(rng.choice(x.dims()))))
        ops = []
        cur = ref
        for _ in range(6):
            n = x.dim(cur)
            if n > 0 and rng.random() < 0.5:
                i = rng.randint(0, n)
                ops.append(("d", i))
                cur = x.face(cur, i)
            else:
                j = rng.randint(0, n)
                ops.append(("s", j))
                cur = x.degeneracy(cur, j)
        # replay of the same word must be deterministic and agree
        replay = ref
        for kind, idx in ops:
            replay = x.face(replay, idx) if kind == "d" else x.degeneracy(replay, idx)
        assert replay == cur
        assert list(cur.word) == sorted(cur.word, reverse=True)


def test_vertices_of():
    d2 = simplex(2)
    assert d2.vertices_of(SimplexRef((), "0.1.2")) == ("0", "1", "2")
    assert d2.vertices_of(SimplexRef((), "0.2")) == ("0", "2")
    v = SimplexRef((1, 0), "1")
    assert d2.vertices_of(v) == ("1", "1", "1")


def test_validation_rejects_broken_faces():
    with pytest.raises(ValidationError):
        SimplicialSet({0: ["a"], 1: ["e"]}, {("e", 0): SimplexRef((), "a")})
    with pytest.raises(ValidationError):
        SimplicialSet(
            {0: ["a"], 1: ["e"]},
            {("e", 0): SimplexRef((), "missing"), ("e", 1): SimplexRef((), "a")},
        )
    with pytest.raises(ValidationError):
        SimplicialSet({0: ["a", "a"]}, {})
    with pytest.raises(ValidationError, match="negative dimension"):
        SimplicialSet({-1: ["v"], 0: ["a"]}, {})


@pytest.mark.parametrize("cells, dup", [
    ({0: ["a", "a"]}, "a"),
    ({0: ["a", "b", "b", "a"]}, "b"),
    ({0: ["a", "b"], 1: ["c", "b", "a"]}, "b"),
    ({0: ["v"], 2: ["t", "v"]}, "v"),
], ids=["one-dimension", "first-repeat", "across-dimensions", "across-a-gap"])
def test_a_duplicate_cell_identifier_is_named(cells, dup):
    """The first id, in declaration order, that repeats an earlier one."""
    with pytest.raises(ValidationError) as err:
        SimplicialSet(cells, {})
    assert str(err.value) == "duplicate cell identifier %r" % dup


@pytest.mark.parametrize("bad", [1, ("e",), None], ids=["int", "tuple", "None"])
def test_a_cell_identifier_that_is_not_a_string_is_rejected(bad):
    with pytest.raises(ValidationError) as err:
        SimplicialSet({0: ["a", bad]}, {})
    assert str(err.value) == "cell identifier %r is not a string" % (bad,)
    with pytest.raises(ValidationError) as err:
        SimplicialSet({0: ["a"], 1: [bad]}, {(bad, 0): ((), "a"), (bad, 1): ((), "a")})
    assert str(err.value) == "cell identifier %r is not a string" % (bad,)


def _identity_mutations(x, rng, count):
    """count face tables of x, each with one face of one cell of positive
    dimension replaced by another simplex of its dimension or, half the
    time and whenever that face has no other simplex of its dimension,
    with two faces of the cell swapped."""
    table = x.face_table()
    cells = [c for c, row in enumerate(table) if row]
    simplices = {n: x.simplex_codes(n) for n in range(x.top_dim())}
    for _ in range(count):
        c = rng.choice(cells)
        row = list(table[c])
        i = rng.randrange(len(row))
        others = [code for code in simplices[len(row) - 2] if code != row[i]]
        if others and rng.random() < 0.5:
            row[i] = rng.choice(others)
        else:
            i, j = rng.sample(range(len(row)), 2)
            row[i], row[j] = row[j], row[i]
        mutated = list(table)
        mutated[c] = tuple(row)
        yield mutated


def test_the_flattened_identity_check_names_what_the_slice_check_named():
    """On seeded mutations of the face tables of seven spaces, the one
    compare per cell fails exactly where the old per-j slice compare
    (`helpers.slice_identity_failure`) failed, naming the same (i, j) and
    cell."""
    t2 = product(sphere(1), sphere(1))
    spaces = [boundary(4), boundary(5), boundary(6), product(boundary(2), boundary(3)), t2,
              smash(sphere(2), sphere(1)).space, suspension(t2, 1)]
    rng = random.Random(30)
    checked = failed = 0
    for x in spaces:
        cells = {n: list(x.cells(n)) for n in x.dims()}
        ids = [x.cell_id(c) for c in range(len(x.face_table()))]
        for table in _identity_mutations(x, rng, 300):
            want = slice_identity_failure(ids, table)
            try:
                SimplicialSet(cells, table, pointed=x.pointed, basepoint=x.basepoint)
                got = None
            except ValidationError as exc:
                got = str(exc)
            assert got == want
            checked += 1
            failed += want is not None
    # most mutations break an identity; those that break none swap two
    # equal faces, or change a 2-cell of T^2 or a 3-cell of S^2 ^ S^1,
    # whose faces' faces are all degeneracies of the one vertex
    assert checked == 2100
    assert 1000 <= failed < checked


def test_validation_rejects_identity_violation():
    # a 2-cell whose faces do not satisfy d0 d1 = d0 d0
    with pytest.raises(ValidationError):
        SimplicialSet(
            {0: ["a", "b", "c", "z"], 1: ["e", "f", "g"], 2: ["t"]},
            {
                ("e", 0): SimplexRef((), "b"), ("e", 1): SimplexRef((), "a"),
                ("f", 0): SimplexRef((), "c"), ("f", 1): SimplexRef((), "b"),
                ("g", 0): SimplexRef((), "z"), ("g", 1): SimplexRef((), "a"),
                ("t", 0): SimplexRef((), "f"), ("t", 1): SimplexRef((), "g"),
                ("t", 2): SimplexRef((), "e"),
            },
        )


def test_simplices_enumeration():
    s1 = sphere(1)
    # dimension n has the basepoint word plus n degeneracies of the edge
    for n in range(5):
        assert len(s1.simplices(n)) == n + 1


def test_map_validation_and_composition():
    bd = boundary(2)
    d2 = simplex(2)
    incl = SimplicialMap(bd, d2, {c: SimplexRef((), c) for _, c in bd.all_cells()})
    assert incl.is_levelwise_injective()
    ident = SimplicialMap.identity(d2)
    comp = ident.compose(incl)
    assert comp.cell_image("0.1") == SimplexRef((), "0.1")
    with pytest.raises(ValidationError):
        SimplicialMap(bd, d2, {c: SimplexRef((), "0.1.2") for _, c in bd.all_cells()})


def test_collapse_map_is_not_injective():
    d1 = simplex(1)
    pt = simplex(0)
    collapse = SimplicialMap(
        d1, pt,
        {"0": SimplexRef((), "0"), "1": SimplexRef((), "0"), "0.1": SimplexRef((0,), "0")},
    )
    assert not collapse.is_levelwise_injective()


def test_code_list_input_names_the_failing_cell():
    """A map given as its code list is checked like a face-table row:
    each fault raises a ValidationError naming the cell."""
    s1, d2 = sphere(1), simplex(2)
    codes = SimplicialMap.identity(s1).codes()
    assert codes == [(0, 0), (0, 1)]
    with pytest.raises(ValidationError, match="map missing image of cell 'c'"):
        SimplicialMap(s1, s1, codes[:1])
    with pytest.raises(ValidationError, match="3 images for 2 cells"):
        SimplicialMap(s1, s1, codes + [(0, 0)])
    with pytest.raises(ValidationError, match="image of 'c' uses unknown cell 7"):
        SimplicialMap(s1, s1, [(0, 0), (0, 7)])
    with pytest.raises(ValidationError, match="image of 'c' has wrong dimension"):
        SimplicialMap(s1, s1, [(0, 0), (0, 0)])
    with pytest.raises(ValidationError, match="image of 'c' has a degeneracy index outside 0..0"):
        SimplicialMap(s1, s1, [(0, 0), (2, 0)])
    with pytest.raises(ValidationError, match="map missing image of cell 'c'"):
        SimplicialMap(s1, s1, [(0, 0), None])
    swapped = list(SimplicialMap.identity(d2).codes())
    a, b = d2.number("0.1"), d2.number("0.2")
    swapped[a], swapped[b] = swapped[b], swapped[a]
    with pytest.raises(ValidationError, match="map does not commute with d_0 on '0.1'"):
        SimplicialMap(d2, d2, swapped)


def _pointed(x, vertex):
    return SimplicialSet({n: list(x.cells(n)) for n in x.dims()}, x.face_table(),
                         pointed=True, basepoint=vertex)


def _oracle_cases():
    """(map, NamedMap built from the same names) for identities, wedge
    legs, folds, product projections and pushout legs of S^1, S^2, the
    boundary of the 3-simplex and random pointed spaces, and composites
    of them."""
    s1 = sphere(1)
    spaces = [s1, sphere(2), _pointed(boundary(3), "2")]
    spaces += [random_pointed_space(random.Random(seed)) for seed in range(10)]
    maps = []
    for x in spaces:
        w, ww = wedge(x, s1), wedge(x, x)
        fold = pushout_map(ww, SimplicialMap.identity(x), SimplicialMap.identity(x))
        pairs = product_pairs(x, s1)
        p = product(x, s1)
        projections = [{c: refs[k] for c, refs in pairs.items()} for k in (1, 2)]
        q = quotient(w.inl)
        maps += [SimplicialMap.identity(x), w.inl, w.inr, fold, q.from_x, q.from_y,
                 fold.compose(ww.inl), q.from_x.compose(w.inr)]
        maps += [SimplicialMap(p, y, proj) for y, proj in zip((x, s1), projections)]
        maps += [pushout_inj(w.inl, SimplicialMap.identity(x)).from_y]
    for f in maps:
        names = {c: f.cell_image(c) for _, c in f.source.all_cells()}
        yield f, NamedMap(f.source, f.target, names)


def test_maps_by_name_and_by_code_agree_with_the_name_oracle():
    for f, oracle in _oracle_cases():
        by_names = SimplicialMap(f.source, f.target, oracle.images)
        by_codes = SimplicialMap(f.source, f.target,
                                 [f.target.code(oracle.images[c]) for _, c in f.source.all_cells()])
        assert by_names == f and by_codes == f
        ident = SimplicialMap.identity(f.target)
        composites = [(ident.compose(f), NamedMap.identity(f.target).compose(oracle)),
                      (f.compose(SimplicialMap.identity(f.source)),
                       oracle.compose(NamedMap.identity(f.source)))]
        for n in range(4):
            for ref in f.source.simplices(n):
                assert f(ref) == oracle(ref)
                for g, g_oracle in composites:
                    assert g(ref) == g_oracle(ref)
        assert f.is_levelwise_injective() == oracle.is_levelwise_injective()
        assert f.is_cellwise_iso() == oracle.is_cellwise_iso()
        assert f.preserves_basepoint() == oracle.preserves_basepoint()


def test_composites_agree_with_the_name_oracle():
    """Composites of wedge legs, folds and quotient maps agree with the
    oracle's composites on every simplex up to dimension 3."""
    cases = list(_oracle_cases())
    checked = 0
    for f, f_oracle in cases:
        for g, g_oracle in cases:
            if g.target is not f.source:
                continue
            gf, gf_oracle = f.compose(g), f_oracle.compose(g_oracle)
            for n in range(4):
                for ref in g.source.simplices(n):
                    assert gf(ref) == gf_oracle(ref)
            assert gf.is_levelwise_injective() == gf_oracle.is_levelwise_injective()
            assert gf.is_cellwise_iso() == gf_oracle.is_cellwise_iso()
            checked += 1
    assert checked >= 50
