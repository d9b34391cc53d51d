import random
import re

import pytest

import skernel.matrices
import skernel.simpab
from skernel import generators
from skernel.complexes import ChainComplex, HomologyGroup, ValidationError, single, zero_complex
from skernel.matrices import IntMatrix, is_unimodular, solve_exact
from skernel.simpab import (
    EZPair,
    _columns,
    _counit,
    _k_levels,
    _matrix,
    _moore_bases,
    _nondegenerate,
    _normalize,
    SimplicialAbGroup,
    bar_B,
    constant_group,
    dold_kan_K,
    ez_maps,
    free_reduced_Z,
    horn_filler,
    kn_roundtrip_ok,
    moore_basis,
    moore_projection,
    nk_roundtrip_iso,
    normalize_N,
    tensor_sab,
    unnormalized_complex,
    homotopy_groups,
)
from skernel.spaces import smash, sphere, suspension
from skernel.suite import check_horn_filling

from helpers import (basepoint_ref, block_diag, conjugated_group, hstack_counit, kunneth_homology,
                     level_summands, product_moore_basis, product_moore_projection,
                     product_pair_ref, random_complex, shuffles, stacked_moore_basis, surjection_K,
                     surjection_tuples)
from test_edge_cases import ez_pairs as edge_case_ez_pairs, groups as edge_case_groups

Z = HomologyGroup(1)
TRIV = HomologyGroup(0)
# H_0 = Z/2, H_1 = Z/3, H_2 = 0
TORSION = ChainComplex(0, 2, {0: 1, 1: 2, 2: 1}, {1: [[2, 0]], 2: [[0], [3]]})


def random_sab(rng, trunc=3):
    c = random_complex(rng, max_deg=trunc, max_rank=2, span=2)
    return dold_kan_K(c, trunc)


def test_validation_rejects_broken_identities():
    with pytest.raises(ValidationError):
        SimplicialAbGroup(
            1, [1, 1],
            {(1, 0): IntMatrix.from_rows([[1]]), (1, 1): IntMatrix.from_rows([[2]])},
            {(0, 0): IntMatrix.from_rows([[1]])},
        )


def test_validation_names_the_identity_a_flipped_bar_face_breaks():
    """Flipping one entry of any one face of a bar construction and
    rebuilding it is caught by the column tables of the validation."""
    b = bar_B(free_reduced_Z(sphere(2), 5))
    faces = {(n, i): b.face(n, i) for n in range(1, b.D + 1) for i in range(n + 1)}
    degen = {(n, j): b.degen(n, j) for n in range(b.D) for j in range(n + 1)}
    assert SimplicialAbGroup(b.D, b.ranks(), faces, degen) == b
    flipped = 0
    for key, f in faces.items():
        if not f.data:
            continue
        data = list(f.data)
        data[len(data) // 2] = 1 - data[len(data) // 2]
        broken = dict(faces)
        broken[key] = IntMatrix.from_rows(
            [data[r * f.cols : (r + 1) * f.cols] for r in range(f.rows)], cols=f.cols
        )
        with pytest.raises(ValidationError, match=r"^identity d_\d+ [ds]_\d+ failed at level \d+$"):
            SimplicialAbGroup(b.D, b.ranks(), broken, degen)
        flipped += 1
    assert flipped == 15  # every face of levels 3, 4 and 5


# d_2 has the non-monomial column (1, -1, -2), and d_1 the column (1, 2)
MIXED = ChainComplex(0, 2, {0: 2, 1: 3, 2: 1},
                     {1: [[1, 1, 0], [2, 0, 1]], 2: [[1], [-1], [-2]]})


def _structure_maps(a):
    faces = {(n, i): a.face(n, i) for n in range(1, a.D + 1) for i in range(n + 1)}
    degen = {(n, j): a.degen(n, j) for n in range(a.D) for j in range(n + 1)}
    return faces, degen


def _flipped(m, i, j):
    entries = [(r, c, x) for r, c, x in m.entries() if (r, c) != (i, j)]
    return IntMatrix.from_entries(m.rows, m.cols, entries + [(i, j, 1 - m.at(i, j))])


def test_validation_names_the_identity_a_flipped_differential_entry_breaks():
    """Every entry of a non-monomial column of a face of K(C), the
    differential blocks, flipped in turn: the column keeps several terms,
    so composing the column tables takes its general path, and d_0 d_1
    is named at the first level the face enters."""
    a = dold_kan_K(MIXED, 5)
    faces, degen = _structure_maps(a)
    assert SimplicialAbGroup(a.D, a.ranks(), faces, degen) == a
    flipped = 0
    for (n, i), f in faces.items():
        for j, (rows, _) in enumerate(f.transpose().nonzeros):
            if len(rows) < 2:
                continue
            for r in rows:
                broken = dict(faces)
                broken[(n, i)] = _flipped(f, r, j)
                message = "identity d_0 d_1 failed at level %d" % max(n, 2)
                with pytest.raises(ValidationError, match="^%s$" % message):
                    SimplicialAbGroup(a.D, a.ranks(), broken, degen)
                flipped += 1
    assert flipped == 2 + 5 + 8 + 11 + 14


def test_validation_names_the_identity_a_flipped_degeneracy_entry_breaks():
    """The first and last entry of every degeneracy of K(C), flipped in
    turn, break a d_i s_j or an s_i s_j identity, which is named."""
    a = dold_kan_K(MIXED, 5)
    faces, degen = _structure_maps(a)
    named = set()
    for key, m in degen.items():
        entries = list(m.entries())
        for r, c, _ in (entries[0], entries[-1]):
            broken = dict(degen)
            broken[key] = _flipped(m, r, c)
            with pytest.raises(ValidationError) as exc:
                SimplicialAbGroup(a.D, a.ranks(), faces, broken)
            family, level = re.fullmatch(r"identity (d|s)_\d+ s_\d+ failed at level (\d+)",
                                         str(exc.value)).groups()
            assert int(level) in (key[0] - 1, key[0])
            named.add(family)
    assert named == {"d", "s"}


def test_validation_compares_every_identity_once(monkeypatch):
    """Where every degeneracy is a unit table, a validation makes the
    comparisons of the certificate (`SimplicialAbGroup._certified`), one
    flat compare per level.  For bar_B(Z~S^2, 5), ranks 0, 0, 2, 9, 24,
    50: 20 s_i s_j, 30 d_j s_j = d_{j+1} s_j = 1, 34 faces of degenerate
    generators (one comparison per face i not in {k, k + 1} for each k
    that is the last degeneracy of some generator) and 9 d_i d_j on the
    nondegenerate generators of levels 2 and 3: 784 table items in 6
    compares, one per level 0..5.  The same tables with one degeneracy
    marked general take the full loop, which compares each identity up
    to D once: d_i d_j (i < j <= n, 2 <= n <= D), s_i s_j (i <= j <= n,
    n <= D - 2) and d_i s_j (j <= n, i <= n + 1, n <= D - 1), 124
    comparisons of 2,200 items."""
    b = bar_B(free_reduced_Z(sphere(2), 5))
    faces, degen = _structure_maps(b)
    compared = items = 0
    same = skernel.simpab._same

    def counting(lhs, rhs):
        nonlocal compared, items
        compared += 1
        items += len(lhs)
        return same(lhs, rhs)

    monkeypatch.setattr(skernel.simpab, "_same", counting)
    SimplicialAbGroup(b.D, b.ranks(), faces, degen)
    assert (compared, items) == (6, 784)
    # the builders' tables take the same path: once for Z~S^2, once for B
    compared = items = 0
    assert bar_B(free_reduced_Z(sphere(2), 5)) == b
    assert (compared, items) == (6 + 6, 243 + 784)
    D = 5
    for key in ((0, 0), (4, 2)):
        st = dict(b._st)
        st[key] = st[key][0], True
        compared = items = 0
        SimplicialAbGroup._of_tables(b.D, b.ranks(), b._ft, st)
        assert compared == (sum(n * (n + 1) // 2 for n in range(2, D + 1))
                            + sum((n + 1) * (n + 2) // 2 for n in range(D - 1))
                            + sum((n + 1) * (n + 2) for n in range(D))) == 124
        assert items == 2200


def _unvalidated(d, ranks, ft, st):
    """The group with the given tables, not validated."""
    a = SimplicialAbGroup.__new__(SimplicialAbGroup)
    a.D, a._ranks, a._ft, a._st = d, tuple(ranks), ft, st
    return a


def _first_broken(triples):
    """The name of the first (lhs, rhs, name) triple whose sides differ,
    or None."""
    return next((name for lhs, rhs, name in triples if lhs != rhs), None)


def _certificate_failure(a):
    """The name of the first comparison of the flat certificate that
    fails on the group a, or None when it holds."""
    names = []
    return None if a._certified(*a._levels(), names) else names[0]


MUTATED = {
    "zS2-D6": lambda: free_reduced_Z(sphere(2), 6),
    "bar-zS1-D5": lambda: bar_B(free_reduced_Z(sphere(1), 5)),
    "K-mixed-D5": lambda: dold_kan_K(MIXED, 5),
    "zS1-tensor-zS1-D5": lambda: tensor_sab(free_reduced_Z(sphere(1), 5),
                                             free_reduced_Z(sphere(1), 5)),
}


def _mutations(g, rng, count):
    """count seeded single-column mutations of one face or degeneracy of
    g, each as (face tables, degeneracy tables, what changed): a face
    entry x flipped to 1 - x, or a face column moved down by k rows; a
    degeneracy's unit column zeroed, or moved down by k rows, so that
    every degeneracy stays a unit table."""
    keys = ([(True, k) for k in g._ft if g.rank(k[0] - 1)]
            + [(False, k) for k in g._st if g.rank(k[0])])
    for _ in range(count if keys else 0):
        is_face, key = rng.choice(keys)
        m = g.face(*key) if is_face else g.degen(*key)
        c = rng.randrange(m.cols)
        column = {r: x for r, j, x in m.entries() if j == c}
        if is_face and rng.random() < 0.5:
            r = rng.randrange(m.rows)
            column[r] = 1 - column.get(r, 0)
        elif not is_face and rng.random() < 0.5:
            column = {}
        else:
            k = rng.randrange(1, m.rows) if m.rows > 1 else 0
            column = {(r + k) % m.rows: x for r, x in column.items()}
        table = _columns(_with_column(m, c, [(r, x) for r, x in column.items() if x]), "mutated")
        ft, st = dict(g._ft), dict(g._st)
        (ft if is_face else st)[key] = table
        yield ft, st, (key, c, column)


@pytest.mark.parametrize("name", sorted(MUTATED))
def test_the_certificate_and_the_full_loop_agree_on_mutations(name):
    """The seeded `_mutations`: the flat certificate holds exactly when
    every identity does, and the constructor names the identity the full
    loop finds first."""
    g = MUTATED[name]()
    verdicts = {True: 0, False: 0}
    for ft, st, what in _mutations(g, random.Random(name), 700):
        assert not any(general for _, general in st.values())
        certified = _certificate_failure(_unvalidated(g.D, g.ranks(), ft, st)) is None
        broken = _first_broken(_unvalidated(g.D, g.ranks(), ft, st)._identities())
        assert certified == (broken is None), what
        if broken:
            with pytest.raises(ValidationError,
                               match="^identity %s_%d %s_%d failed at level %d$" % broken):
                SimplicialAbGroup._of_tables(g.D, g.ranks(), ft, st)
        verdicts[certified] += 1
    assert verdicts[True] and verdicts[False]


def test_the_flat_check_accepts_what_the_full_loop_accepts_on_random_groups():
    """`generators.random_sab` groups of seeds 0..11 at D = 4 (K of a
    random complex, Z~ of a sphere, a tensor product or a bar
    construction) and 60 `_mutations` of each: the flat certificate
    accepts a group exactly when `_identities` finds no failed identity,
    and records the generators `_nondegenerate` lists."""
    verdicts = {True: 0, False: 0}
    for seed in range(12):
        rng = random.Random(seed)
        g = generators.random_sab(rng, 4)
        assert g._keep == [_nondegenerate(g, n) for n in range(g.D + 1)]
        for ft, st, what in _mutations(g, rng, 60):
            a = _unvalidated(g.D, g.ranks(), ft, st)
            certified = a._certified(*a._levels())
            assert certified == (_first_broken(a._identities()) is None), (seed, what)
            if certified:
                assert a._keep == [_nondegenerate(a, n) for n in range(a.D + 1)]
            verdicts[certified] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("kind, key, column, message", [
    ("face", (3, 1), 2, "face (3, 1) does not fit its shape (2, 9)"),
    ("face", (5, 2), -2, "face (5, 2) does not fit its shape (24, 50)"),
    ("face", (4, 0), ((0, 9), (1, 1)), "face (4, 0) does not fit its shape (9, 24)"),
    ("degeneracy", (2, 2), 9, "degeneracy (2, 2) does not fit its shape (9, 2)"),
    ("degeneracy", (5, 0), -3, "degeneracy (5, 0) does not fit its shape (90, 50)"),
    ("degeneracy", (4, 1), None, "degeneracy (4, 1) does not fit its shape (50, 24)"),
])
def test_an_entry_outside_its_shape_is_named(kind, key, column, message):
    """In bar_B(Z~S^2, 6), ranks 0, 0, 2, 9, 24, 50, 90, one column of
    one table set to a row just past the last, a row below -1 or a
    general column reaching past the last row, or a table without its
    trailing item (None), is named with the shape the table must fit."""
    b = bar_B(free_reduced_Z(sphere(2), 6))
    tables = {"face": dict(b._ft), "degeneracy": dict(b._st)}
    table, general = tables[kind][key]
    if column is None:
        table = table[:-1]
    else:
        table = [column] + table[1:]
        general = general or column.__class__ is not int
    tables[kind][key] = table, general
    with pytest.raises(ValidationError, match="^%s$" % re.escape(message)):
        SimplicialAbGroup._of_tables(b.D, b.ranks(), tables["face"], tables["degeneracy"])


@pytest.mark.parametrize("key, at, column, message", [
    ((3, 1), 0, 9, "face (3, 1) does not fit its shape (9, 14)"),
    ((2, 0), 5, ((0, 5), (1, 2)), "face (2, 0) does not fit its shape (5, 9)"),
    ((2, 0), 0, 5, "face (2, 0) does not fit its shape (5, 9)"),
    ((1, 0), 2, ((-2, 1), (1, 2)), "face (1, 0) does not fit its shape (2, 5)"),
])
def test_an_entry_outside_its_shape_is_named_on_k(key, at, column, message):
    """In dold_kan_K(MIXED, 5), ranks 2, 5, 9, 14, 20, 27, whose d_0
    tables are general (the differential blocks) and whose other faces
    are unit tables, a misfit in a unit table, or in a general table at
    a general or a unit column, is named with the shape the table must
    fit."""
    k = dold_kan_K(MIXED, 5)
    faces = dict(k._ft)
    table, general = faces[key]
    assert general == (key[1] == 0)
    faces[key] = table[:at] + [column] + table[at + 1:], general
    with pytest.raises(ValidationError, match="^%s$" % re.escape(message)):
        SimplicialAbGroup._of_tables(k.D, k.ranks(), faces, k._st)


RECORDED = {
    "K-mixed": lambda: dold_kan_K(MIXED, 5),
    "K-torsion": lambda: dold_kan_K(TORSION, 5),
    "bar-K-mixed": lambda: bar_B(dold_kan_K(MIXED, 5)),
    "zS1-tensor-K-mixed": lambda: tensor_sab(free_reduced_Z(sphere(1), 5), dold_kan_K(MIXED, 5)),
    "bar-bar-zS1": lambda: bar_B(bar_B(free_reduced_Z(sphere(1), 5))),
    "conjugated-zS2": lambda: conjugated_group(free_reduced_Z(sphere(2), 4), random.Random(1), 3),
}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_moore_bases_from_the_recorded_generators_are_todays(name):
    """The generators `_validate` records for each level are the ones
    `_nondegenerate` lists, also on the levels of K(C) whose faces have
    general columns and on the conjugated sphere, whose general
    degeneracies take the full loop; so the Moore bases built from them
    are the split bases of those generators, and the bases of the
    stacked-face recipe where there are none."""
    a = RECORDED[name]()
    assert any(general for _, general in a._ft.values()) == (name != "bar-bar-zS1")
    tables = _moore_bases(a)
    for n, (keep, basis) in tables.items():
        assert keep == _nondegenerate(a, n)
        if keep is not None:
            assert basis == skernel.simpab._split_basis(a, n, keep)
    assert None in a._keep if name == "conjugated-zS2" else None not in a._keep
    assert moore_basis(a) == product_moore_basis(a)


def _first_failures(d, ranks, face, degen):
    """The name of the first comparison of the flat certificate that
    fails on the given matrices, and the constructor's message."""
    tables = [{k: _columns(m, "map") for k, m in maps.items()} for maps in (face, degen)]
    failed = _certificate_failure(_unvalidated(d, ranks, *tables))
    with pytest.raises(ValidationError) as exc:
        SimplicialAbGroup(d, ranks, face, degen)
    return failed, str(exc.value)


def test_a_generator_hit_from_two_different_generators_is_rejected():
    """z = s_0 w = s_1 w' with w != w' (ranks 0, 2, 3; z is generator 0
    of level 2) cannot hold in a simplicial group: d_1 z would be both w
    and w'.  d_j s_j = d_{j+1} s_j = 1 catches it."""
    zero = IntMatrix.zero
    degen = {(0, 0): zero(2, 0), (1, 0): IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]]),
             (1, 1): IntMatrix.from_rows([[0, 1], [0, 0], [1, 0]])}
    face = {(1, 0): zero(0, 2), (1, 1): zero(0, 2),
            (2, 0): IntMatrix.from_rows([[1, 0, 1], [0, 1, 0]]),
            (2, 1): IntMatrix.from_rows([[1, 0, 1], [0, 1, 0]]),
            (2, 2): IntMatrix.from_rows([[0, 0, 1], [1, 0, 0]])}
    assert _first_failures(2, [0, 2, 3], face, degen) == (
        ("d", 1, "s", 1, 1), "identity d_2 s_0 failed at level 1")


def test_a_face_next_to_none_of_its_degeneracies_is_caught():
    """In Z~S^1 at D = 3, z = s_0 s_0 x = s_1 s_0 x, and d_3 z = 0.  Set
    to s_0 x instead, d_3 z is next to neither s_0 nor s_1, and z is
    degenerate, so of the certificate's comparisons only the face of z
    through its last degeneracy s_1 sees it."""
    z1 = free_reduced_Z(sphere(1), 3)
    faces, degen = _structure_maps(z1)
    sx = z1._st[(1, 0)][0][0]
    z = z1._st[(2, 0)][0][sx]
    assert z == z1._st[(2, 1)][0][sx] and z1._ft[(3, 3)][0][z] == -1
    faces[(3, 3)] = _with_column(faces[(3, 3)], z, [(sx, 1)])
    assert _first_failures(3, z1.ranks(), faces, degen) == (
        ("d", 3, "s", 1, 2), "identity d_0 d_3 failed at level 3")


def test_a_broken_d_d_on_a_nondegenerate_generator_is_caught():
    """K(MIXED) at D = 2 has one nondegenerate generator y at level 2,
    with d_1 y = 0.  Set to the nondegenerate generator 2 of level 1,
    d_0 d_1 y = d_0 e_2 is not d_0 d_0 y = d d y = 0; no degenerate
    generator changes, so the d d comparisons on N_2 catch it."""
    k = dold_kan_K(MIXED, 2)
    faces, degen = _structure_maps(k)
    (y,) = skernel.simpab._nondegenerate(k, 2)
    faces[(2, 1)] = _with_column(faces[(2, 1)], y, [(2, 1)])
    assert _first_failures(2, k.ranks(), faces, degen) == (
        ("d", 0, "d", 1, 2), "identity d_0 d_1 failed at level 2")


def test_a_general_degeneracy_takes_the_full_loop(monkeypatch):
    """With one degeneracy that has a general column, no certificate is
    tried: a conjugated Z~S^2 builds, and K(MIXED) with one degeneracy
    column negated is rejected by the full loop."""
    z2 = free_reduced_Z(sphere(2), 4)
    k = dold_kan_K(MIXED, 3)
    faces, degen = _structure_maps(k)
    degen[(1, 0)] = _with_column(degen[(1, 0)], 0, [(r, -x) for r, j, x in degen[(1, 0)].entries()
                                                   if j == 0])

    def no_certificate(self, *levels):
        raise AssertionError("the certificate ran")

    monkeypatch.setattr(SimplicialAbGroup, "_certified", no_certificate)
    c = conjugated_group(z2, random.Random(3), 2)
    assert any(general for _, general in c._st.values())
    with pytest.raises(ValidationError, match=IDENTITY_FAILED):
        SimplicialAbGroup(k.D, k.ranks(), faces, degen)


IDENTITY_FAILED = r"^identity [ds]_\d+ [ds]_\d+ failed at level \d+$"
OUTSIDE = r"^(face|degeneracy) \(\d+, \d+\) does not fit its shape \(\d+, \d+\)$"
# Z --(-1)--> Z: the faces of K have the column -e_0, and in the tensor
# square of K the product of two of them is the unit column e_0
NEGATIVE = ChainComplex(0, 1, {0: 1, 1: 1}, {1: [[-1]]})
BUILT = {
    "zS1": lambda d: free_reduced_Z(sphere(1), d),
    "zS2": lambda d: free_reduced_Z(sphere(2), d),
    "K-torsion": lambda d: dold_kan_K(TORSION, d),
    "bar-zS2": lambda d: bar_B(free_reduced_Z(sphere(2), d)),
    "bar-bar-zS1": lambda d: bar_B(bar_B(free_reduced_Z(sphere(1), d))),
    "bar-K-mixed": lambda d: bar_B(dold_kan_K(MIXED, d)),
    "zS1-tensor-K-mixed": lambda d: tensor_sab(free_reduced_Z(sphere(1), d), dold_kan_K(MIXED, d)),
    "K-negative-squared": lambda d: tensor_sab(dold_kan_K(NEGATIVE, d), dold_kan_K(NEGATIVE, d)),
    "constant": lambda d: constant_group(2, d),
}


@pytest.mark.parametrize("name", sorted(BUILT))
def test_built_tables_are_the_tables_of_their_matrices(name):
    """At every D <= 5, the table a builder wrote is the column table of
    the matrix that `face`/`degen` builds from it, so it is canonical,
    and the same matrices through the public constructor give an equal
    group."""
    for d in range(6):
        g = BUILT[name](d)
        faces, degen = _structure_maps(g)
        assert {k: _columns(m, "face") for k, m in faces.items()} == g._ft
        assert {k: _columns(m, "degeneracy") for k, m in degen.items()} == g._st
        assert SimplicialAbGroup(g.D, g.ranks(), faces, degen) == g


@pytest.mark.parametrize("a, b", [(BUILT["zS1"], BUILT["zS2"]), (BUILT["K-torsion"], BUILT["zS1"]),
                                  (lambda d: dold_kan_K(NEGATIVE, d),) * 2])
def test_tensor_tables_are_the_kronecker_products(a, b):
    for d in range(6):
        x, y = a(d), b(d)
        t = tensor_sab(x, y)
        for n in range(1, d + 1):
            for i in range(n + 1):
                assert t.face(n, i) == x.face(n, i).kron(y.face(n, i))
        for n in range(d):
            for j in range(n + 1):
                assert t.degen(n, j) == x.degen(n, j).kron(y.degen(n, j))


@pytest.mark.parametrize("builder, build", [
    ("_k_degen", lambda: dold_kan_K(TORSION, 4)),
    ("_kron_table", lambda: tensor_sab(free_reduced_Z(sphere(1), 4), free_reduced_Z(sphere(2), 4))),
    ("_bar_table", lambda: bar_B(free_reduced_Z(sphere(2), 4))),
])
@pytest.mark.parametrize("edit, message", [
    (lambda r: ((r,), (-1,)), IDENTITY_FAILED),
    (lambda r: 10 ** 6, OUTSIDE),
    (lambda r: -2, OUTSIDE),
], ids=["negated", "row past the end", "row before the start"])
def test_a_wrong_builder_table_is_rejected(monkeypatch, builder, build, edit, message):
    """A builder's tables are validated as the constructor's are: one
    unit column of the first table with one, negated or moved to a row
    outside the matrix, is named."""
    original = getattr(skernel.simpab, builder)
    edited = []

    def editing(*args):
        table, general = original(*args)
        units = [j for j, c in enumerate(table[:-1]) if c.__class__ is int and c >= 0]
        if edited or not units:
            return table, general
        j = units[len(units) // 2]
        table = list(table)
        table[j] = edit(table[j])
        edited.append(j)
        return table, general or table[j].__class__ is not int

    monkeypatch.setattr(skernel.simpab, builder, editing)
    with pytest.raises(ValidationError, match=message):
        build()
    assert edited


@pytest.mark.parametrize("key, value", [("face", 1.0), ("face", True), ("degeneracy", 1.0)])
def test_validation_rejects_an_entry_that_is_not_an_int(key, value):
    """1.0 == 1 and True == 1, but neither is stored: the face or
    degeneracy that holds one is named.  `from_entries` refuses such an
    entry itself, so the matrix is built from its storage."""
    odd = IntMatrix(1, 1, (((0,), (value,)),))
    one = IntMatrix.identity(1)
    face = {(1, 0): one, (1, 1): odd if key == "face" else one}
    degen = {(0, 0): odd if key == "degeneracy" else one}
    where = "face (1, 1)" if key == "face" else "degeneracy (0, 0)"
    with pytest.raises(ValidationError, match=r"^%s has the non-integer entry %r$"
                       % (re.escape(where), value)):
        SimplicialAbGroup(1, [1, 1], face, degen)


def test_lists_with_an_entry_that_is_not_an_int_are_rejected():
    """Matrices given as lists go through `IntMatrix.from_rows`, which
    rejects 1.9 and True rather than converting them to 1."""
    with pytest.raises(ValueError, match=r"^entry \(0, 0\) is 1.9, not an int$"):
        SimplicialAbGroup(1, [1, 1], {(1, 0): [[1.9]], (1, 1): [[1]]}, {(0, 0): [[1]]})
    with pytest.raises(ValueError, match=r"^entry \(0, 0\) is True, not an int$"):
        SimplicialAbGroup(1, [1, 1], {(1, 0): [[1]], (1, 1): [[1]]}, {(0, 0): [[True]]})


def _with_column(m, j, column):
    """m with column j replaced by the given (row, value) entries."""
    entries = [(r, c, x) for r, c, x in m.entries() if c != j]
    return IntMatrix.from_entries(m.rows, m.cols, entries + [(r, j, x) for r, x in column])


@pytest.mark.parametrize("build, count", [
    (lambda: free_reduced_Z(sphere(2), 5), 354),
    (lambda: bar_B(free_reduced_Z(sphere(2), 5)), 1452),
    (lambda: dold_kan_K(MIXED, 5), 1500),
], ids=["free_reduced_Z", "bar_B", "dold_kan_K"])
def test_validation_catches_every_unit_column_edit(build, count):
    """Every unit column e_r of every face and degeneracy, in turn:
    negated, given a second entry at row r + 1 (mod the rows), or
    zeroed.  Each rebuild names a broken identity, so neither a
    coefficient -1, nor a sum of two basis elements, nor zero is taken
    for the unit vector by the column tables."""
    a = build()
    faces, degen = _structure_maps(a)
    edits = 0
    for maps in (faces, degen):
        for key, m in maps.items():
            for j, (rows, values) in enumerate(m.transpose().nonzeros):
                if values != (1,):
                    continue
                r = rows[0]
                columns = [[(r, -1)], []]
                if m.rows > 1:
                    columns.append([(r, 1), ((r + 1) % m.rows, 1)])
                for column in columns:
                    broken = dict(maps)
                    broken[key] = _with_column(m, j, column)
                    structure = (broken, degen) if maps is faces else (faces, broken)
                    with pytest.raises(ValidationError, match=IDENTITY_FAILED):
                        SimplicialAbGroup(a.D, a.ranks(), *structure)
                    edits += 1
    assert edits == count


def test_validation_catches_a_moved_differential_column():
    """Every general column of a face of K(C), one from a differential
    block, moved down by each shift of its rows (mod the rows) in turn:
    the column tables compare the sparse combinations it now makes, and
    a d_0 d_j identity is named."""
    a = dold_kan_K(MIXED, 5)
    faces, degen = _structure_maps(a)
    moved = 0
    for key, m in faces.items():
        for j, (rows, values) in enumerate(m.transpose().nonzeros):
            if not rows or values == (1,):
                continue
            for k in range(1, m.rows):
                broken = dict(faces)
                broken[key] = _with_column(m, j, [((r + k) % m.rows, x)
                                                  for r, x in zip(rows, values)])
                with pytest.raises(ValidationError,
                                   match=r"^identity d_0 d_\d+ failed at level \d+$"):
                    SimplicialAbGroup(a.D, a.ranks(), broken, degen)
                moved += 1
    assert moved == 180


def _bar_by_block_products(a):
    """The bar construction as it was first written: each face and
    degeneracy the product of a horizontal 0/1 block matrix with the
    block diagonal of copies of the vertical map."""

    def horizontal_face(p, i, r):
        entries = []
        for t in range(p - 1):
            if i == 0:
                src = [t + 1]
            elif t + 1 < i:
                src = [t]
            elif t + 1 == i:
                src = [t, t + 1]
            else:
                src = [t + 1]
            entries.extend((t * r + q, s * r + q, 1) for s in src for q in range(r))
        return IntMatrix.from_entries((p - 1) * r, p * r, entries)

    def horizontal_degen(p, j, r):
        entries = []
        for t in range(p + 1):
            if t != j:
                src = t if t < j else t - 1
                entries.extend((t * r + q, src * r + q, 1) for q in range(r))
        return IntMatrix.from_entries((p + 1) * r, p * r, entries)

    face = {}
    degen = {}
    for n in range(1, a.D + 1):
        for i in range(n + 1):
            vert = block_diag([a.face(n, i)] * n)
            face[(n, i)] = horizontal_face(n, i, a.rank(n - 1)) @ vert
    for n in range(a.D):
        for j in range(n + 1):
            vert = block_diag([a.degen(n, j)] * n) if n else IntMatrix.zero(0, 0)
            degen[(n, j)] = horizontal_degen(n, j, a.rank(n + 1)) @ vert
    return SimplicialAbGroup(a.D, [n * a.rank(n) for n in range(a.D + 1)], face, degen)


@pytest.mark.parametrize("k", [1, 2])
def test_bar_matches_the_block_product_construction(k):
    for d in range(7):
        a = free_reduced_Z(sphere(k), d)
        b = bar_B(a)
        assert b == _bar_by_block_products(a)
        assert bar_B(b) == _bar_by_block_products(b)


def test_surjection_counts():
    # rank of K(Z[1]) at level 2 counts the two surjections [2] ->> [1]
    assert len(surjection_tuples(2, 1)) == 2
    assert surjection_tuples(2, 1) == [(0, 0, 1), (0, 1, 1)]
    import math

    for n in range(5):
        for k in range(n + 1):
            assert len(surjection_tuples(n, k)) == math.comb(n, k)
    assert level_summands(2) == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)]


def test_dold_kan_visits_only_the_summands_that_exist(monkeypatch):
    """For C in degrees 0..1, K(C)_n has n + 1 summands ([n] ->> [0] and
    the n surjections onto [1]) out of 2^n surjections; K, the N K round
    trip and the K N round trip enumerate only those, so the count grows
    linearly in n."""
    visited = {}
    original = skernel.simpab._k_summands

    def counting(c, n):
        out = original(c, n)
        visited[n] = visited.get(n, 0) + len(out)
        return out

    monkeypatch.setattr(skernel.simpab, "_k_summands", counting)
    c = ChainComplex(0, 1, {0: 1, 1: 1}, {1: [[2]]})
    top = 9
    k = dold_kan_K(c, top)
    assert visited == {n: n + 1 for n in range(top + 1)}
    assert k.ranks() == tuple(n + 1 for n in range(top + 1))
    # the N K round trip: K alone, since the identity summand is the last
    visited.clear()
    nk_roundtrip_iso(c, 4)
    assert visited == {n: n + 1 for n in range(5)}
    # the K N round trip: N(K(C)) is C again, and the counit reuses the
    # summands that K of it enumerated, so n + 1 per level
    a = dold_kan_K(c, 4)
    visited.clear()
    assert kn_roundtrip_ok(a)
    assert visited == {n: n + 1 for n in range(5)}


ORACLE_COMPLEXES = {
    "torsion": TORSION,
    "mixed": MIXED,
    "negative": NEGATIVE,
    "no-C1": ChainComplex(0, 2, {0: 2, 1: 0, 2: 1}, {}),
    "zero": zero_complex(),
    "above-D": ChainComplex(5, 6, {5: 1, 6: 2}, {6: [[1, 2]]}),
    "Z-2-Z": ChainComplex(0, 1, {0: 1, 1: 1}, {1: [[2]]}),
}


@pytest.mark.parametrize("name", sorted(ORACLE_COMPLEXES) + ["random"])
def test_dold_kan_matches_the_surjection_oracle(name):
    """K(C) on degeneracy masks has the tables of K(C) on surjection
    value tuples (`helpers.surjection_K`) at every D = 0..9 (Z --2--> Z
    up to D = 14), and its K o N counit the side-by-side blocks of
    `helpers.hstack_counit` up to D = 6; the random case draws a fresh
    `generators.random_complex` for each D."""
    rng = random.Random(2024)
    for d in range(15 if name == "Z-2-Z" else 10):
        if name == "random":
            c = random_complex(rng, max_deg=rng.randint(1, 4), max_rank=3, span=3)
        else:
            c = ORACLE_COMPLEXES[name]
        a = dold_kan_K(c, d)
        assert a == surjection_K(c, d), (name, d)
        if d <= 6:
            tables = _moore_bases(a)
            na = _normalize(a, tables)
            psi = _counit(a, _k_levels(na, a.D)[1], tables)
            counit = {n: _matrix(psi[n], a.rank(n)) for n in psi}
            assert counit == hstack_counit(a, na, moore_basis(a))


@pytest.mark.parametrize("build", [
    lambda: free_reduced_Z(sphere(1), -1),
    lambda: dold_kan_K(TORSION, -1),
    lambda: constant_group(2, -1),
    lambda: SimplicialAbGroup(-1, [], {}, {}),
], ids=["free_reduced_Z", "dold_kan_K", "constant_group", "constructor"])
def test_a_negative_truncation_is_rejected(build):
    """The builders' tables go through `_of_tables`, which rejects a
    negative truncation dimension as the constructor does."""
    with pytest.raises(ValidationError, match="^truncation dimension must be nonnegative$"):
        build()


@pytest.mark.parametrize("ranks, level, value", [
    ([1.2, "1"], 0, 1.2),
    ([1, "1"], 1, "1"),
    ([1, True], 1, True),
    ({0: 1, 1: 1.0}, 1, 1.0),
    ({"0": False, 1: 1}, 0, False),
])
def test_a_rank_that_is_not_an_int_is_rejected(ranks, level, value):
    """Level ranks, in a list or a dict, are not converted with int()."""
    face = {(1, 0): [[1]], (1, 1): [[1]]}
    with pytest.raises(ValidationError, match=r"^rank of level %d is %s, not an int$"
                       % (level, re.escape(repr(value)))):
        SimplicialAbGroup(1, ranks, face, {(0, 0): [[1]]})


def test_constant_group_normalization():
    a = constant_group(2, 3)
    n = normalize_N(a)
    assert n.rank(0) == 2
    assert all(n.rank(i) == 0 for i in range(1, 4))
    assert homotopy_groups(a, 0) == HomologyGroup(2)
    assert homotopy_groups(a, 1) == TRIV


def test_normalize_circle():
    zs1 = free_reduced_Z(sphere(1), 3)
    n = normalize_N(zs1)
    assert n.rank(0) == 0 and n.rank(1) == 1
    assert homotopy_groups(zs1, 1) == Z


def test_dold_kan_em_spaces():
    k2 = dold_kan_K(single(1, 2), 4)
    assert [str(homotopy_groups(k2, i)) for i in range(4)] == ["0", "0", "Z", "0"]
    k0 = dold_kan_K(single(1, 0), 3)
    assert k0.ranks() == (1, 1, 1, 1)  # the constant group
    assert homotopy_groups(k0, 0) == Z


def test_dold_kan_negative_degrees_are_truncated():
    c = ChainComplex(-1, 0, {-1: 1, 0: 1}, {0: [[1]]})
    k = dold_kan_K(c, 2)
    assert all(homotopy_groups(k, i).is_zero() for i in range(2))


def test_nk_roundtrip_random(rng):
    for _ in range(15):
        c = random_complex(rng)
        nk_roundtrip_iso(c, 3)  # raises on failure


def test_kn_roundtrip_random(rng):
    for _ in range(8):
        a = random_sab(rng)
        assert kn_roundtrip_ok(a)
    assert kn_roundtrip_ok(free_reduced_Z(sphere(1), 3))
    assert kn_roundtrip_ok(bar_B(constant_group(1, 3)))


def test_unnormalized_matches_normalized(rng):
    a = constant_group(1, 3)
    u = unnormalized_complex(a)
    assert u.homology(0) == Z
    assert all(u.homology(i).is_zero() for i in range(1, 3))
    k = dold_kan_K(single(1, 2), 4)
    assert unnormalized_complex(k).homology(2) == Z
    for _ in range(5):
        a = random_sab(rng)
        nu = unnormalized_complex(a)
        nn = normalize_N(a)
        for i in range(a.D):
            assert nu.homology(i) == nn.homology(i)


def test_free_reduced_sphere0():
    a = free_reduced_Z(sphere(0), 3)
    assert a.ranks() == (1, 1, 1, 1)
    for n in range(1, 4):
        for i in range(n + 1):
            assert a.face(n, i) == IntMatrix.identity(1)


def test_zreduced_smash_monoidality():
    for e, f in [(sphere(0), sphere(1)), (sphere(1), sphere(1)), (sphere(1), sphere(2))]:
        d = 3
        lhs = tensor_sab(free_reduced_Z(e, d), free_reduced_Z(f, d))
        rhs = free_reduced_Z(smash(e, f).space, d)
        assert lhs.ranks() == rhs.ranks()
        # the canonical basis bijection intertwines every structure map
        sm = smash(e, f)
        mats = {}
        for n in range(d + 1):
            cols = []
            ebasis = [s for s in e.simplices(n) if s != basepoint_ref(e, n)]
            fbasis = [s for s in f.simplices(n) if s != basepoint_ref(f, n)]
            tbasis = [s for s in sm.space.simplices(n) if s != basepoint_ref(sm.space, n)]
            tindex = {s: i for i, s in enumerate(tbasis)}
            rows = len(tbasis)
            colcount = len(ebasis) * len(fbasis)
            out = [[0] * colcount for _ in range(rows)]
            for ia, ra in enumerate(ebasis):
                for ib, rb in enumerate(fbasis):
                    img = sm.collapse(product_pair_ref(e, f, ra, rb))
                    out[tindex[img]][ia * len(fbasis) + ib] = 1
            mats[n] = IntMatrix.from_rows(out, cols=colcount)
            # a permutation matrix: every column and row sums to one
            assert all(sum(col) == 1 for col in zip(*out)) and all(sum(r) == 1 for r in out)
        for n in range(1, d + 1):
            for i in range(n + 1):
                assert rhs.face(n, i) @ mats[n] == mats[n - 1] @ lhs.face(n, i)
        for n in range(d):
            for j in range(n + 1):
                assert rhs.degen(n, j) @ mats[n] == mats[n + 1] @ lhs.degen(n, j)


def test_suspension_shifts_reduced_homology():
    for f in [sphere(1), sphere(0)]:
        for i in (1, 2):
            d = 4
            base = normalize_N(free_reduced_Z(f, d))
            shifted = normalize_N(free_reduced_Z(suspension(f, i), d))
            for n in range(d):
                if 0 <= n - i <= d - 1:
                    assert shifted.homology(n) == base.homology(n - i)


def test_bar_of_zero_and_constant():
    zero = SimplicialAbGroup(3, [0, 0, 0, 0], {}, {})
    assert bar_B(zero).ranks() == (0, 0, 0, 0)
    b = bar_B(constant_group(1, 4))
    n = normalize_N(b)
    assert [str(n.homology(i)) for i in range(4)] == ["0", "Z", "0", "0"]
    b2 = bar_B(b)
    n2 = normalize_N(b2)
    assert [str(n2.homology(i)) for i in range(4)] == ["0", "0", "Z", "0"]


def test_bar_shift_random(rng):
    for _ in range(5):
        a = random_sab(rng, trunc=4)
        na = normalize_N(a)
        nb = normalize_N(bar_B(a))
        for i in range(4):  # degrees <= D - 1
            assert nb.homology(i) == na.homology(i - 1) if i else nb.homology(0).is_zero()


def test_ez_degree_zero_is_identity(rng):
    a = random_sab(rng, trunc=2)
    b = random_sab(rng, trunc=2)
    pair = ez_maps(a, b)
    r = pair.shuffle.source.rank(0)
    assert pair.shuffle.component(0) == IntMatrix.identity(r) or r == 0


def test_shuffle_1_1_expands_to_two_signed_terms():
    sh = shuffles(1, 1)
    assert len(sh) == 2
    assert sorted(s for _, _, s in sh) == [-1, 1]
    a = free_reduced_Z(sphere(1), 2)
    from skernel.simpab import _degeneracy_composite

    bases = moore_basis(a)
    basis = _columns(bases[1], "Moore basis 1")
    # raw shuffle of the degree-1 generators, before projecting to the
    # normalized part: exactly the two signed terms from the enumeration
    raw = IntMatrix.zero(4, 1)
    for mu, nu, sign in sh:
        ma = _matrix(_degeneracy_composite(a, 1, nu, basis), a.rank(2))
        mb = _matrix(_degeneracy_composite(a, 1, mu, basis), a.rank(2))
        term = ma.kron(mb)
        raw = raw + (term if sign > 0 else term.scale(-1))
    assert sorted(raw.data) == [-1, 0, 0, 1]
    ab = tensor_sab(a, a)
    pair = ez_maps(a, a)
    proj = moore_projection(ab, moore_basis(ab), 2)
    assert pair.shuffle.component(2) == proj @ raw


def test_ez_strictness_random(rng):
    for _ in range(4):
        a = random_sab(rng, trunc=3)
        b = random_sab(rng, trunc=3)
        pair = ez_maps(a, b)
        assert pair.strict_identity_ok()


@pytest.mark.parametrize("a_deg, b_deg, top, level", [
    (1, 1, 4, 2), (1, 2, 4, 3), (1, 2, 5, 3), (2, 2, 5, 4)])
def test_a_shuffle_without_its_last_term_is_caught(monkeypatch, a_deg, b_deg, top, level):
    """With the last (p, q)-shuffle dropped from every sum, the shuffle
    of normalized chains leaves the normalized part of A ox B, and the
    exact solve for its Moore coordinates reports the first such level."""
    a, b = free_reduced_Z(sphere(a_deg), top), free_reduced_Z(sphere(b_deg), top)
    original = skernel.simpab.combinations
    monkeypatch.setattr(skernel.simpab, "combinations", lambda it, r: list(original(it, r))[:-1])
    with pytest.raises(ValidationError,
                       match="^the shuffle leaves the normalized part at level %d$" % level):
        ez_maps(a, b)


def test_ez_homology_kunneth():
    zs1 = free_reduced_Z(sphere(1), 4)
    pair = ez_maps(zs1, zs1)
    nab = pair.shuffle.target
    t = pair.shuffle.source
    ha = {n: normalize_N(zs1).homology(n) for n in range(4)}
    for n in range(4):
        assert nab.homology(n) == t.homology(n)
        assert nab.homology(n) == kunneth_homology(ha, ha, n)


def test_horn_filler_zero_and_constant():
    a = constant_group(1, 3)
    filler = horn_filler(a, 2, 1, [(0,), None, (0,)])
    assert filler == (0,)
    # in the constant group the matching identity d_0 x_2 = d_1 x_0
    # forces the two horn faces to be equal
    filler = horn_filler(a, 2, 1, [(3,), None, (3,)])
    assert a.face(2, 0).mul_vec(filler) == (3,)
    assert a.face(2, 2).mul_vec(filler) == (3,)


def test_horn_filler_rejects_incompatible():
    a = constant_group(1, 3)
    with pytest.raises(ValueError, match="incompatible"):
        horn_filler(a, 3, 0, [None, (1,), (2,), (1,)])


@pytest.mark.parametrize("faces, message", [
    ([(0.9,), None, (0.9,)], "face 0: entry 0 is 0.9, not an int"),
    ([(1,), None, (True,)], "face 2: entry 0 is True, not an int"),
    ([(1.0,), None, (1,)], "face 0: entry 0 is 1.0, not an int"),
])
def test_horn_filler_rejects_an_entry_that_is_not_an_int(faces, message):
    """Face entries are not converted with int(): 0.9 is not read as 0,
    which would fill a different horn."""
    a = free_reduced_Z(sphere(1), 3)
    assert horn_filler(a, 2, 1, [(1,), None, (1,)]) == (1, 1)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        horn_filler(a, 2, 1, faces)


@pytest.mark.parametrize("v, message", [
    ((True, 2.0, 0), "entry 0 is True, not an int"),
    ((1, 2.0, 0), "entry 1 is 2.0, not an int"),
    ((0, 0, 0.0), "entry 2 is 0.0, not an int"),
])
def test_face_vec_rejects_an_entry_that_is_not_an_int(v, message):
    """A float or a bool is refused, not read as the int it equals; int
    vectors give the face the matrix gives."""
    a = free_reduced_Z(sphere(2), 3)
    assert a.rank(3) == 3
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        a.face_vec(3, 1, v)
    for w in ((1, 2, 0), (0, -3, 5), (0, 0, 0)):
        for i in range(4):
            assert a.face_vec(3, i, w) == a.face(3, i).mul_vec(w)


def test_horn_filler_random(rng):
    for _ in range(10):
        a = random_sab(rng, trunc=3)
        for n in (1, 2, 3):
            if a.rank(n) == 0:
                continue
            x = tuple(rng.randint(-3, 3) for _ in range(a.rank(n)))
            for k in range(n + 1):
                faces = [a.face(n, i).mul_vec(x) if i != k else None for i in range(n + 1)]
                w = horn_filler(a, n, k, faces)
                for i in range(n + 1):
                    if i != k:
                        assert a.face(n, i).mul_vec(w) == faces[i]


def test_horn_filling_builds_no_matrix(monkeypatch, rng):
    """The horn filler and the suite's horn-filling check apply the
    column tables to vectors."""
    builds = []
    original = skernel.simpab._matrix
    monkeypatch.setattr(skernel.simpab, "_matrix", lambda *args: builds.append(args) or original(*args))
    for _ in range(5):
        a = random_sab(rng, trunc=3)
        for n in (1, 2, 3):
            x = tuple(rng.randint(-3, 3) for _ in range(a.rank(n)))
            for k in range(n + 1):
                faces = [a.face_vec(n, i, x) if i != k else None for i in range(n + 1)]
                horn_filler(a, n, k, faces)
    check_horn_filling(random.Random(0), 1)
    assert builds == []


def test_homotopy_groups_range_error():
    a = constant_group(1, 2)
    with pytest.raises(ValueError):
        homotopy_groups(a, 2)


def _projection_objects(rng):
    return [
        free_reduced_Z(sphere(1), 4),
        free_reduced_Z(sphere(2), 4),
        bar_B(free_reduced_Z(sphere(2), 4)),
        dold_kan_K(TORSION, 4),
    ] + [random_sab(rng, trunc=3) for _ in range(6)]


def _assert_moore_projections_split(objects, object_bases):
    """The projection fixes the normalized part and kills the image of
    every degeneracy, so N_n and the degenerate part split A_n."""
    for a, bases in zip(objects, object_bases):
        for n in range(a.D + 1):
            if a.rank(n) == 0:
                continue
            p = moore_projection(a, bases, n)
            assert p @ bases[n] == IntMatrix.identity(bases[n].cols)
            for j in range(n):
                assert (p @ a.degen(n - 1, j)).is_zero()


def test_moore_projection_identity(rng):
    objects = _projection_objects(rng)
    _assert_moore_projections_split(objects, [moore_basis(a) for a in objects])


@pytest.mark.parametrize("dropped", range(4))
def test_a_moore_projection_without_one_factor_is_caught(monkeypatch, rng, dropped):
    """With the factor 1 - s_j d_{j+1} for one j replaced by the
    identity after the Moore bases are built, the projection either
    leaves the normalized part, which its coordinate check reports, or
    breaks the splitting."""
    objects = _projection_objects(rng)
    object_bases = [moore_basis(a) for a in objects]
    original = skernel.simpab._projection_factor
    monkeypatch.setattr(skernel.simpab, "_projection_factor",
                        lambda a, n, j, f: f if j == dropped else original(a, n, j, f))
    with pytest.raises((AssertionError, ValidationError)) as caught:
        _assert_moore_projections_split(objects, object_bases)
    if caught.type is ValidationError:
        assert "the Moore projection leaves the normalized part" in str(caught.value)


@pytest.mark.parametrize("dropped, level", [(0, 4), (1, 4), (2, 4), (3, 5)])
def test_a_moore_basis_without_one_factor_fails_its_self_check(monkeypatch, dropped, level):
    """With the factor 1 - s_j d_{j+1} for one j replaced by the
    identity, the basis of Z~S^2 ox Z~S^3 leaves the normalized part,
    and the basis's own check names the level and the face d_{j+1}."""
    a = tensor_sab(free_reduced_Z(sphere(2), 5), free_reduced_Z(sphere(3), 5))
    original = skernel.simpab._projection_factor
    monkeypatch.setattr(skernel.simpab, "_projection_factor",
                        lambda a, n, j, f: f if j == dropped else original(a, n, j, f))
    with pytest.raises(ValidationError, match="^d_%d does not vanish on the Moore basis at level %d$"
                       % (dropped + 1, level)):
        moore_basis(a)


def test_a_moore_basis_over_a_degenerate_generator_fails_its_self_check(monkeypatch):
    """With the first degenerate generator of each level added to the
    nondegenerate ones that the validation records, the projection kills
    it, so the basis is no longer the identity on those generators, which
    its check reports."""
    original = SimplicialAbGroup._validate

    def widened(a):
        original(a)
        a._keep = [sorted(keep + [c for c in range(a.rank(n)) if c not in keep][:1])
                   for n, keep in enumerate(a._keep)]

    monkeypatch.setattr(SimplicialAbGroup, "_validate", widened)
    zs2 = free_reduced_Z(sphere(2), 4)
    for a in (free_reduced_Z(sphere(1), 3), zs2, bar_B(zs2), dold_kan_K(TORSION, 3),
              tensor_sab(zs2, zs2)):
        with pytest.raises(ValidationError, match=r"^the Moore basis at level \d+ is not the "
                           "identity on the nondegenerate generators$"):
            moore_basis(a)


EQUIVALENCE = {
    "zS1": lambda: free_reduced_Z(sphere(1), 5),
    "zS2": lambda: free_reduced_Z(sphere(2), 5),
    "zS3": lambda: free_reduced_Z(sphere(3), 5),
    "bar-zS2": lambda: bar_B(free_reduced_Z(sphere(2), 5)),
    "bar-bar-zS1": lambda: bar_B(bar_B(free_reduced_Z(sphere(1), 4))),
    "K-torsion": lambda: dold_kan_K(TORSION, 5),
    "tensor-square-zS1": lambda: tensor_sab(free_reduced_Z(sphere(1), 4),
                                            free_reduced_Z(sphere(1), 4)),
    "tensor-square-K-torsion": lambda: tensor_sab(dold_kan_K(TORSION, 3),
                                                  dold_kan_K(TORSION, 3)),
    # its level-5 stack keeps a 21 x 5 residue after the unit pivots
    "conjugated-zS2": lambda: conjugated_group(free_reduced_Z(sphere(2), 5), random.Random(1), 4),
}
EQUIVALENCE.update({"random-%d" % seed: lambda seed=seed: random_sab(random.Random(seed))
                    for seed in range(6)})


@pytest.mark.parametrize("name", sorted(EQUIVALENCE))
def test_table_normalization_matches_the_matrix_recipes(name):
    """The Moore bases, projections and K o N counit composed on column
    tables equal the `kernel_basis` of the stacked face matrices, the
    product of `IntMatrix` factors and the `hstack` of the counit
    blocks."""
    a = EQUIVALENCE[name]()
    bases = moore_basis(a)
    assert bases == product_moore_basis(a)
    for n in range(a.D + 1):
        assert moore_projection(a, bases, n) == product_moore_projection(a, bases, n)
    tables = _moore_bases(a)
    na = _normalize(a, tables)
    psi = _counit(a, _k_levels(na, a.D)[1], tables)
    assert {n: _matrix(psi[n], a.rank(n)) for n in psi} == hstack_counit(a, na, bases)
    assert kn_roundtrip_ok(a)


def test_split_bases_span_the_stacked_lattice():
    """Each Moore basis is the `stacked_moore_basis` times a unimodular
    base change T, and T intertwines the normalized differentials:
    T_{n-1} d_new = d_old T_n.  The objects are the equivalence cases and
    every group whose Moore coordinates `test_edge_cases` pins: both
    factors of each Eilenberg-Zilber pair and their tensor product, and
    the groups it normalizes."""
    objects = [build() for build in EQUIVALENCE.values()] + list(edge_case_groups())
    objects += [x for a, b in edge_case_ez_pairs() for x in (a, b, tensor_sab(a, b))]
    changed = 0
    for a in objects:
        new, old = moore_basis(a), stacked_moore_basis(a)
        changed += new != old
        t = {n: solve_exact(old[n], new[n]) for n in new}
        assert all(t[n] is not None and is_unimodular(t[n]) for n in t), a
        d_new = normalize_N(a)
        for n in range(1, a.D + 1):
            d_old = solve_exact(old[n - 1], a.face(n, 0) @ old[n])
            assert t[n - 1] @ d_new.d(n) == d_old @ t[n], (a, n)
    assert changed  # the split and the stacked bases differ on some groups


def test_split_levels_eliminate_nothing(monkeypatch):
    """On groups whose degeneracies send generators to generators the
    Moore bases, the normalized complex and the projections run no
    elimination; the conjugated sphere, whose degeneracies do not, does."""
    zs1, zs2 = free_reduced_Z(sphere(1), 4), free_reduced_Z(sphere(2), 5)
    groups = (zs1, zs2, free_reduced_Z(sphere(3), 5), bar_B(zs2), bar_B(bar_B(zs1)),
              dold_kan_K(TORSION, 5), tensor_sab(zs1, zs1), tensor_sab(zs2, zs2))
    conjugated = EQUIVALENCE["conjugated-zS2"]()
    calls = []
    original = skernel.matrices._eliminate
    monkeypatch.setattr(skernel.matrices, "_eliminate",
                        lambda *args: calls.append(len(args[0])) or original(*args))
    for a in groups:
        bases = moore_basis(a)
        normalize_N(a)
        for n in range(a.D + 1):
            moore_projection(a, bases, n)
    assert calls == []
    moore_basis(conjugated)
    assert calls


def test_the_conjugated_sphere_reaches_the_dense_smith_loop(monkeypatch):
    """The conjugated case of the equivalence test is not unit-pivot
    work alone: its Moore basis goes through the dense Smith loop."""
    shapes = []
    original = skernel.matrices._smith
    monkeypatch.setattr(skernel.matrices, "_smith",
                        lambda a, nr, nc: shapes.append((nr, nc)) or original(a, nr, nc))
    moore_basis(EQUIVALENCE["conjugated-zS2"]())
    assert (21, 5) in shapes


def test_kn_roundtrip_rejects_a_counit_with_a_negated_column(monkeypatch):
    """Negating one column of one level keeps the counit unimodular, so
    the intertwining check on the tables must see it: below the top
    level a degeneracy carries the column up, where nothing changed."""
    original = skernel.simpab._counit
    cases = 0
    for a in (free_reduced_Z(sphere(1), 3), free_reduced_Z(sphere(2), 4), dold_kan_K(TORSION, 3)):
        assert kn_roundtrip_ok(a)
        for level in range(a.D):
            if a.rank(level) == 0:
                continue

            def negated(*args, level=level):
                psi = original(*args)
                table, _ = psi[level]
                c = table[0]
                table = [((c,), (-1,)) if c.__class__ is int else (c[0], tuple(-x for x in c[1]))]
                psi[level] = table + psi[level][0][1:], True
                return psi

            monkeypatch.setattr(skernel.simpab, "_counit", negated)
            assert not kn_roundtrip_ok(a), (a, level)
            monkeypatch.setattr(skernel.simpab, "_counit", original)
            cases += 1
    assert cases == 7


def test_verifiers_reject_a_non_saturated_moore_basis(monkeypatch):
    """Doubling the first column of every Moore basis leaves a sublattice
    of index 2, which each verifier must notice."""
    original = skernel.simpab._moore_bases

    def doubled(a):
        out = {}
        for n, (keep, basis) in original(a).items():
            k = _matrix(basis, a.rank(n))
            k = IntMatrix.from_entries(
                k.rows, k.cols, ((i, j, 2 * x if j == 0 else x) for i, j, x in k.entries()))
            out[n] = keep, _columns(k, "doubled Moore basis %d" % n)
        return out

    monkeypatch.setattr(skernel.simpab, "_moore_bases", doubled)
    zs1 = free_reduced_Z(sphere(1), 3)
    assert not kn_roundtrip_ok(zs1)
    with pytest.raises(ValidationError):
        nk_roundtrip_iso(TORSION, 3)
    with pytest.raises(ValidationError):
        ez_maps(zs1, zs1)


def test_verifiers_normalize_each_object_once(monkeypatch):
    a = free_reduced_Z(sphere(1), 4)
    b = dold_kan_K(TORSION, 4)
    calls = []
    original = skernel.simpab._moore_bases
    monkeypatch.setattr(skernel.simpab, "_moore_bases",
                        lambda x: calls.append(x.ranks()) or original(x))
    ez_maps(a, b)
    assert calls == [a.ranks(), b.ranks(), tensor_sab(a, b).ranks()]

    builds = []
    original_k = skernel.simpab._k_levels
    monkeypatch.setattr(skernel.simpab, "_k_levels",
                        lambda *args: builds.append(args) or original_k(*args))
    assert kn_roundtrip_ok(b)
    assert len(builds) == 1


def test_intertwining_check_finds_a_permutation_that_breaks_a_face():
    """The smash comparison's levels are permutation matrices; swapping
    two columns of one level keeps it a bijection but breaks a face or
    degeneracy, which the column-table check names."""
    from skernel.simpab import _broken_operator, smash_comparison_iso

    e = f = sphere(1)
    mats = smash_comparison_iso(e, f, 3)
    lhs = tensor_sab(free_reduced_Z(e, 3), free_reduced_Z(f, 3))
    rhs = free_reduced_Z(smash(e, f).space, 3)
    tables = {n: _columns(m, "level %d" % n) for n, m in mats.items()}
    assert _broken_operator(tables, lhs, rhs) is None
    swap = list(range(mats[2].cols))
    swap[0], swap[1] = 1, 0
    broken = dict(tables)
    broken[2] = _columns(IntMatrix.from_entries(mats[2].rows, mats[2].cols,
                                                ((r, swap[c], x) for r, c, x in mats[2].entries())),
                         "level 2")
    assert _broken_operator(broken, lhs, rhs) is not None

