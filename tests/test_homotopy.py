import random
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

import skernel.homotopy

from skernel.complexes import HomologyGroup, check_quasi_iso
from skernel.homotopy import (
    SMALL_GROUPS,
    bar_column_bisimplicial,
    count_homs,
    cylinder,
    groupoid_comparison,
    hom_count_profile,
    homotopy_pushout,
    skeleton_pushout_check,
    weq_certificate,
    wrap,
)
from skernel.simplicial import SimplexRef, SimplicialMap
from skernel.spaces import (
    GroupPresentation,
    boundary,
    chain_map_of,
    chains,
    diagonal,
    euler_characteristic,
    homology_space,
    pi0,
    point,
    pushout_inj,
    simplex,
    sphere,
    wedge,
)

from test_spaces import random_pointed_space

Z = HomologyGroup(1)
TRIV = HomologyGroup(0)


def test_wrap_level_zero_and_point():
    s1 = sphere(1)
    wr = wrap(s1, 4)
    assert wr.space.n_cells(0) == s1.n_cells(0)
    assert wr.space.cell_counts() == {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
    wpt = wrap(point(), 4)
    assert all(wpt.space.n_cells(n) == 1 for n in range(5))
    for n in range(4):
        assert homology_space(wpt.space, n).is_zero()


def test_wrap_counit_is_simplicial_and_homology_preserving():
    for x in [sphere(1), boundary(2), sphere(2)]:
        wr = wrap(x, 4)
        # the counit validated at construction; check homology in range
        cm = chain_map_of(wr.counit)
        rep = check_quasi_iso(cm)
        for n in range(4):
            assert rep.verdicts[n].isomorphism if n in rep.verdicts else True


def test_wrap_unreduced_homology_triangle(rng):
    """Unnormalized chains of x agree with normalized chains of the
    wrapped space (the degeneracy-free cells are exactly the simplices),
    and projecting onward to normalized chains of x is a
    quasi-isomorphism."""
    from test_spaces import strip_point

    for _ in range(4):
        x = strip_point(random_pointed_space(rng, 2, 4, 1))
        d = 3
        wr = wrap(x, d)
        cu = chains(x, normalized=False, cap=d)
        cw = chains(wr.space, normalized=True)
        assert {n: cu.rank(n) for n in range(d + 1)} == {n: cw.rank(n) for n in range(d + 1)}
        for n in range(d + 1):
            assert cu.d(n) == cw.d(n)
        proj = chain_map_of(wr.counit)
        rep = check_quasi_iso(proj)
        for n in range(d):
            assert rep.verdicts[n].isomorphism


def test_wrap_groupoid_matches_after_normalization(rng):
    s1 = sphere(1)
    assert groupoid_comparison(wrap(s1, 3).counit) == "equal"
    for _ in range(5):
        x = random_pointed_space(rng)
        assert groupoid_comparison(wrap(x, 3).counit) == "equal"


def test_wrap_counit_certificate(rng):
    cert = weq_certificate(wrap(sphere(1), 4).counit, 3)
    assert cert.passed
    assert cert.groupoid_match == "equal"
    assert cert.pi0_bijective
    assert all(cert.homology_iso.values())


def test_skeleton_pushout_small_cases():
    s1 = sphere(1)
    rep = skeleton_pushout_check(s1, 0, 4)
    assert rep.holds
    assert rep.expected_counts == rep.pushout_counts
    for n in (1, 2):
        assert skeleton_pushout_check(s1, n, 4).holds
    for n in range(3):
        assert skeleton_pushout_check(point(), n, 4).holds
    with pytest.raises(ValueError):
        skeleton_pushout_check(s1, 4, 4)


def test_skeleton_pushout_random(rng):
    for _ in range(3):
        x = random_pointed_space(rng, 2, 3, 1)
        for n in (0, 1, 2):
            assert skeleton_pushout_check(x, n, 3).holds


def test_cylinder_strict_retraction():
    s1 = sphere(1)
    cyl = cylinder(SimplicialMap.identity(s1))
    comp = cyl.retraction.compose(cyl.from_target)
    assert comp == SimplicialMap.identity(s1)
    cert = weq_certificate(cyl.retraction, 3)
    assert cert.passed


def test_cylinder_of_collapse():
    s0 = sphere(0)
    collapse = SimplicialMap(s0, s0, {"*": SimplexRef((), "*"), "p": SimplexRef((), "*")})
    cyl = cylinder(collapse)
    cert = weq_certificate(cyl.retraction, 2)
    assert cert.passed
    # source inclusion composed with retraction is the original map
    assert cyl.retraction.compose(cyl.from_source) == collapse


def test_homotopy_pushout_suspension_of_s0():
    s0, pt = sphere(0), point()
    to_pt = SimplicialMap(s0, pt, {"*": SimplexRef((), "*"), "p": SimplexRef((), "*")})
    hp = homotopy_pushout(to_pt, to_pt)
    assert [str(homology_space(hp.space, n)) for n in range(3)] == ["0", "Z", "0"]
    # structural maps are termwise coprojections (levelwise injections)
    assert hp.from_left.is_levelwise_injective()
    assert hp.from_right.is_levelwise_injective()


def test_homotopy_pushout_identity_square():
    s1 = sphere(1)
    ident = SimplicialMap.identity(s1)
    hp = homotopy_pushout(ident, ident, square=(ident, ident, s1))
    cert = weq_certificate(hp.comparison, 3)
    assert cert.passed


def test_homotopy_pushout_coprojection_comparison():
    s1, s2 = sphere(1), sphere(2)
    w = wedge(s1, s2)
    strict = pushout_inj(w.inl, SimplicialMap.identity(s1))
    hp = homotopy_pushout(w.inl, SimplicialMap.identity(s1),
                          square=(strict.from_x, strict.from_y, strict.space))
    cert = weq_certificate(hp.comparison, 3)
    assert cert.passed


def test_homotopy_pushout_bisimplicial_crosscheck():
    s0, s1, pt = sphere(0), sphere(1), point()
    to_pt = SimplicialMap(s0, pt, {"*": SimplexRef((), "*"), "p": SimplexRef((), "*")})
    cases = [
        (to_pt, to_pt),
        (wedge(s1, s1).inl, SimplicialMap(s1, pt, {"*": SimplexRef((), "*"),
                                                   "c": SimplexRef((0,), "*")})),
        (SimplicialMap.identity(s1), SimplicialMap.identity(s1)),
    ]
    for f, g in cases:
        hp = homotopy_pushout(f, g)
        dg = diagonal(bar_column_bisimplicial(f, g))
        assert dg.cell_counts() == hp.space.cell_counts()
        for n in range(4):
            assert homology_space(dg, n) == homology_space(hp.space, n)
        assert euler_characteristic(dg) == euler_characteristic(hp.space)


def test_certificate_identity_and_collapse():
    s1 = sphere(1)
    cert = weq_certificate(SimplicialMap.identity(s1), 3)
    assert cert.passed
    d2 = simplex(2)
    pt = simplex(0)
    collapse = SimplicialMap(
        d2, pt, {c: SimplexRef(tuple(range(n - 1, -1, -1)), "0") for n, c in d2.all_cells()}
    )
    cert2 = weq_certificate(collapse, 3)
    assert cert2.passed


def test_certificate_detects_failures():
    s1, s2 = sphere(1), sphere(2)
    to_s2 = SimplicialMap(
        s1, s2, {"*": SimplexRef((), "*"), "c": SimplexRef((0,), "*")}
    )
    cert = weq_certificate(to_s2, 3)
    assert not cert.passed
    assert not all(cert.homology_iso.values())
    # pi0 failure
    s0 = sphere(0)
    const = SimplicialMap(s0, point(), {"*": SimplexRef((), "*"), "p": SimplexRef((), "*")})
    cert2 = weq_certificate(const, 1)
    assert not cert2.pi0_bijective and not cert2.passed


def test_hom_counting_small_groups():
    # free group on one generator: |G| homomorphisms into G
    from skernel.spaces import pi1_presentation

    pres = pi1_presentation(boundary(2), "0")
    for order, tables in SMALL_GROUPS.items():
        for table in tables:
            assert count_homs(pres, table) == order

    # the group with relator a^2 admits 2 homs into C2, 1 into C3,
    # and 4 into S3 (identity plus the three transpositions)
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
    pres2 = pi1_presentation(x, "v")
    assert count_homs(pres2, SMALL_GROUPS[2][0]) == 2
    assert count_homs(pres2, SMALL_GROUPS[3][0]) == 1
    assert count_homs(pres2, SMALL_GROUPS[6][1]) == 4


def test_certificate_random_counits(rng):
    for _ in range(4):
        x = random_pointed_space(rng, 2, 4, 1)
        cert = weq_certificate(wrap(x, 3).counit, 2)
        assert cert.passed
        assert cert.groupoid_match == "equal"


def _brute_force_homs(presentation, table) -> int:
    """Reference count: every assignment of the generators, each relator
    evaluated letter by letter."""
    order = len(table)
    inv = [row.index(0) for row in table]
    count = 0
    for values in iproduct(range(order), repeat=len(presentation.generators)):
        val = dict(zip(presentation.generators, values))
        ok = True
        for rel in presentation.relators:
            acc = 0
            for g, e in rel:
                acc = table[acc][val[g] if e > 0 else inv[val[g]]]
            ok = ok and acc == 0
        count += ok
    return count


@st.composite
def presentations(draw):
    """Up to four generators; relators with inverse and repeated letters,
    empty relators among them."""
    gens = tuple("g%d" % k for k in range(draw(st.integers(0, 4))))
    letter = st.tuples(st.sampled_from(gens or ("",)), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letter, max_size=6 if gens else 0).map(tuple), max_size=4))
    return GroupPresentation(gens, tuple(relators))


@settings(max_examples=150, deadline=None)
@given(presentations())
def test_count_homs_matches_brute_force(pres):
    profile = hom_count_profile(pres)
    for order, tables in SMALL_GROUPS.items():
        counts = [_brute_force_homs(pres, table) for table in tables]
        for table, want in zip(tables, counts):
            assert count_homs(pres, table) == want, (pres, order)
        assert profile[order] == sum(counts)


def test_count_homs_cap_returns_minus_one():
    """order ** generators above the cap gives -1 without a count; just
    below it the count is exact (free group on 8 generators: 5^8 maps
    into C5, while 6^8 exceeds the cap)."""
    free8 = GroupPresentation(tuple("abcdefgh"), ())
    for table in SMALL_GROUPS[6]:
        assert count_homs(free8, table) == -1
    assert count_homs(free8, SMALL_GROUPS[5][0]) == 5 ** 8
    profile = hom_count_profile(free8)
    assert profile[6] == -1 and profile[5] == 5 ** 8 and profile[1] == 1


def test_certificate_reports_differing_hom_counts(monkeypatch):
    """A certificate whose source and target counts differ names the
    first order at which they do, and fails."""
    counit = wrap(sphere(1), 3).counit
    assert weq_certificate(counit, 2).passed
    original = skernel.homotopy.hom_count_profile
    calls = []

    def skewed(pres):
        out = original(pres)
        calls.append(pres)
        if len(calls) == 1:  # the source side
            out[4] += 1
        return out

    monkeypatch.setattr(skernel.homotopy, "hom_count_profile", skewed)
    cert = weq_certificate(counit, 2)
    assert len(calls) == 2
    assert cert.contradiction == "hom counts into groups of order 4 differ"
    assert not cert.passed


def test_cylinder_maps_equal_the_maps_built_by_name():
    """The cylinder ends and projection, now code lists from the
    product's numbering, equal the maps built by name through
    `product_pair_ref`."""
    from helpers import named_cylinder_object
    from skernel.homotopy import _cylinder_object
    from skernel.spaces import product

    rng = random.Random(11)
    spaces = [sphere(1), sphere(2), product(sphere(1), sphere(1))]
    spaces += [random_pointed_space(rng) for _ in range(6)]
    for k in spaces:
        assert _cylinder_object(k) == named_cylinder_object(k)
