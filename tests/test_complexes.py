import dataclasses
import pickle
import random
import re

import pytest

from skernel.complexes import (
    ChainComplex,
    ChainMap,
    DegreeVerdict,
    HomologyGroup,
    QuasiIsoReport,
    TowerReport,
    ValidationError,
    check_quasi_iso,
    cone,
    hom_complex,
    homotopy_class_group,
    sigma_tower_report,
    single,
    zero_complex,
)
import skernel.complexes
import skernel.matrices
from skernel import spaces
from skernel.homotopy import SkeletonPushoutReport, WeqCertificate
from skernel.matrices import IntMatrix
from skernel.simpab import EZPair
from skernel.spaces import GroupoidPresentation, GroupPresentation

from helpers import (conjugated_torsion_complex, homology_by_presentation, kron_hom_complex,
                     kron_tensor, kron_tower_report, kunneth_homology, random_complex)

Z = HomologyGroup(1)
Z2 = HomologyGroup(0, (2,))
TRIV = HomologyGroup(0)


def mod2_complex():
    """Z --(x2)--> Z in degrees 1, 0."""
    return ChainComplex(0, 1, {0: 1, 1: 1}, {1: [[2]]})


def boundary_of_tetrahedron():
    """Simplicial chains of the boundary of a 3-simplex (a 2-sphere)."""
    d1 = [
        [-1, -1, -1, 0, 0, 0],
        [1, 0, 0, -1, -1, 0],
        [0, 1, 0, 1, 0, -1],
        [0, 0, 1, 0, 1, 1],
    ]
    d2 = [
        [1, 1, 0, 0],
        [-1, 0, 1, 0],
        [0, -1, -1, 0],
        [1, 0, 0, 1],
        [0, 1, 0, -1],
        [0, 0, 1, 1],
    ]
    return ChainComplex(0, 2, {0: 4, 1: 6, 2: 4}, {1: d1, 2: d2})


def test_invalid_complex_rejected():
    with pytest.raises(ValidationError):
        ChainComplex(0, 2, {0: 1, 1: 1, 2: 1}, {1: [[1]], 2: [[1]]})
    with pytest.raises(ValidationError):
        ChainComplex(0, 1, {0: 2, 1: 1}, {1: [[1]]})


def test_lists_with_an_entry_that_is_not_an_int_are_rejected():
    """A differential or a component given as lists goes through
    `IntMatrix.from_rows`: 2.7 is rejected, not read as 2 (which would
    report H_0 = Z/2)."""
    with pytest.raises(ValueError, match=r"^entry \(0, 0\) is 2.7, not an int$"):
        ChainComplex(0, 1, {0: 1, 1: 1}, {1: [[2.7]]})
    c = single(1, 0)
    with pytest.raises(ValueError, match=r"^entry \(0, 0\) is True, not an int$"):
        ChainMap(c, c, {0: [[True]]})


@pytest.mark.parametrize("args, message", [
    ((0, (2.5,)), "torsion coefficient 2.5 is not an int"),
    ((1.5,), "free rank 1.5 is not an int"),
    ((True, (2,)), "free rank True is not an int"),
    ((0, (2, 4.0)), "torsion coefficient 4.0 is not an int"),
    ((0, (False,)), "torsion coefficient False is not an int"),
])
def test_homology_group_rejects_a_rank_or_coefficient_that_is_not_an_int(args, message):
    """Neither part of a group is converted: Z/2.5 does not print as
    Z/2, nor a free rank of 1.5 as Z^1."""
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        HomologyGroup(*args)
    assert str(HomologyGroup(1, [2, 4])) == "Z + Z/2 + Z/4"


@pytest.mark.parametrize("ranks, degree, value", [
    ({0: 1.9, 1: True}, 0, 1.9),
    ({0: 1, 1: True}, 1, True),
    ({0: "1", 1: "1"}, 0, "1"),
    ({0: 1, 1: 1.0}, 1, 1.0),
    ({0: 1, 1: False}, 1, False),
])
def test_a_rank_that_is_not_an_int_is_rejected(ranks, degree, value):
    """Ranks are not converted with int(): 1.9 is not read as 1 (which
    would report H_0 = Z/2), nor True as 1 or "1" as 1."""
    with pytest.raises(ValidationError, match=r"^rank in degree %d is %s, not an int$"
                       % (degree, re.escape(repr(value)))):
        ChainComplex(0, 1, ranks, {1: [[2]]})


def test_homology_mod2():
    c = mod2_complex()
    assert c.homology(0) == Z2
    assert c.homology(1) == TRIV
    assert c.homology(5) == TRIV
    assert c.homology(-3) == TRIV


def test_homology_zero_differentials():
    c = ChainComplex(0, 2, {0: 1, 1: 2, 2: 1}, {})
    assert [c.homology(n).free_rank for n in range(3)] == [1, 2, 1]


def test_homology_two_sphere():
    c = boundary_of_tetrahedron()
    assert c.homology(0) == Z
    assert c.homology(1) == TRIV
    assert c.homology(2) == Z


def test_shift():
    c = mod2_complex()
    assert c.shift(0) == c
    assert c.shift(3).shift(-3) == c
    s = single(1, 0).shift(3)
    assert s.homology(3) == Z
    assert s.homology(0) == TRIV
    for n in range(-1, 5):
        assert c.shift(2).homology(n) == c.homology(n - 2)
        assert c.shift(3).homology(n) == c.homology(n - 3)


def test_truncate_good():
    flat = ChainComplex(0, 2, {0: 1, 1: 2, 2: 1}, {})
    assert flat.truncate_good(0) == flat
    iso = ChainComplex(-1, 0, {-1: 1, 0: 1}, {0: [[1]]})
    assert iso.truncate_good(0) == zero_complex()
    assert mod2_complex().truncate_good(1) == zero_complex()
    c = boundary_of_tetrahedron()
    t = c.truncate_good(1)
    for n in range(-1, 4):
        expected = c.homology(n) if n >= 1 else TRIV
        assert t.homology(n) == expected


def test_truncate_stupid():
    c = mod2_complex()
    assert c.truncate_stupid(1) == c
    assert c.truncate_stupid(5) == c
    assert c.truncate_stupid(-1) == zero_complex()
    t = c.truncate_stupid(0)
    assert t.rank(0) == 1 and t.rank(1) == 0
    assert t.homology(0) == Z


def test_tensor_unit_and_concentration():
    c = boundary_of_tetrahedron()
    assert c.tensor(single(1, 0)) == c
    assert single(1, 2).tensor(single(1, 3)) == single(1, 5)


def test_tensor_squares_differential():
    m = mod2_complex()
    t = m.tensor(m)
    # frozen from the direct sum formula Tor(Z/2, Z/2) = Z/2
    assert t.homology(0) == Z2
    assert t.homology(1) == Z2
    assert t.homology(2) == TRIV


def test_tensor_matches_kunneth_on_random_pairs(rng):
    for _ in range(10):
        a = random_complex(rng)
        b = random_complex(rng)
        t = a.tensor(b)
        ha = {n: a.homology(n) for n in range(-1, a.max_deg + 2)}
        hb = {n: b.homology(n) for n in range(-1, b.max_deg + 2)}
        for n in t.degrees():
            assert t.homology(n) == kunneth_homology(ha, hb, n)


def test_hom_complex_small_cases():
    zz = single(1, 0)
    h = hom_complex(zz, zz)
    assert h.rank(0) == 1 and h.total_rank() == 1
    assert homotopy_class_group(zz, zz) == Z

    k = mod2_complex()
    h = hom_complex(k, zz)
    # frozen by expanding the product formula by hand
    assert h.rank(0) == 1
    assert h.rank(-1) == 1
    assert abs(h.d(0).at(0, 0)) == 2
    assert homotopy_class_group(k, zz) == TRIV


def test_hom_additivity():
    k = mod2_complex()
    zz = single(1, 0)
    double = ChainComplex(0, 1, {0: 2, 1: 2}, {1: [[2, 0], [0, 2]]})
    h1 = hom_complex(k, zz)
    h2 = hom_complex(double, zz)
    for n in range(-2, 2):
        assert h2.rank(n) == 2 * h1.rank(n)
    g1 = homotopy_class_group(zz, k)
    g2 = homotopy_class_group(ChainComplex(0, 0, {0: 2}, {}), k)
    assert g2.free_rank == 2 * g1.free_rank
    assert g2.torsion == tuple(sorted(g1.torsion + g1.torsion))


def test_homotopy_classes_enumeration_oracle():
    # K = [Z --x2--> Z], L = Z in degree 0: any chain map f has
    # 2*f_0 = 0 by the commuting square, so only the zero map exists.
    k = mod2_complex()
    zz = single(1, 0)
    maps = []
    for f0 in range(-4, 5):
        if (2 * f0) == 0:
            maps.append(f0)
    assert maps == [0]
    assert homotopy_class_group(k, zz) == TRIV


def test_homotopy_class_group_invariant_under_shift_roundtrip(rng):
    for _ in range(5):
        k = random_complex(rng)
        l = random_complex(rng)
        assert homotopy_class_group(k, l) == homotopy_class_group(k.shift(1).shift(-1), l)


def test_chain_map_validation():
    c = mod2_complex()
    with pytest.raises(ValidationError):
        ChainMap(c, c, {0: [[1]], 1: [[2]]})
    ident = ChainMap.identity(c)
    assert ident.component(0) == IntMatrix.identity(1)


def test_check_quasi_iso():
    c = mod2_complex()
    report = check_quasi_iso(ChainMap.identity(c))
    assert report.is_quasi_iso
    zero = ChainMap.zero(c, c)
    report = check_quasi_iso(zero)
    assert not report.is_quasi_iso
    assert not report.verdicts[0].isomorphism

    d = boundary_of_tetrahedron()
    incl = d.truncation_inclusion(1)
    report = check_quasi_iso(incl)
    assert not report.is_quasi_iso  # degree 0 is killed
    assert not report.verdicts[0].isomorphism
    assert report.verdicts[1].isomorphism
    assert report.verdicts[2].isomorphism
    incl0 = d.truncation_inclusion(0)
    assert check_quasi_iso(incl0).is_quasi_iso


def test_check_quasi_iso_answers_every_degree():
    c = ChainComplex(1, 3, {1: 1, 2: 1, 3: 1}, {2: [[2]]})
    report = check_quasi_iso(c.truncation_inclusion(0))
    assert report.verdicts[0].isomorphism
    assert report.verdicts[-5].isomorphism and report.verdicts[9].isomorphism
    assert report.is_quasi_iso


def test_check_quasi_iso_can_say_no():
    zz = single(1, 0)
    double = check_quasi_iso(ChainMap(zz, zz, {0: [[2]]})).verdicts[0]
    assert double.groups_agree
    assert not double.surjective and not double.isomorphism

    # (Z --4--> Z) -> (Z --2--> Z) with f1 = 2, f0 = 1: Z/4 onto Z/2
    z4 = ChainComplex(0, 1, {0: 1, 1: 1}, {1: [[4]]})
    report = check_quasi_iso(ChainMap(z4, mod2_complex(), {1: [[2]], 0: [[1]]}))
    assert report.verdicts[0].surjective and not report.verdicts[0].groups_agree
    assert not report.verdicts[0].isomorphism
    assert not report.is_quasi_iso


def test_homology_matches_presentation_reference(rng):
    with_torsion = 0
    for _ in range(60):
        c = random_complex(rng, max_rank=4)
        for n in range(-1, c.max_deg + 2):
            h = c.homology(n)
            assert h == homology_by_presentation(c, n)
            with_torsion += bool(h.torsion)
    assert with_torsion


def _fresh(c):
    """A copy of c with nothing reduced yet."""
    return ChainComplex(c.min_deg, c.max_deg, {n: c.rank(n) for n in c.degrees()},
                        {n: c.d(n) for n in c.degrees()})


def _spying_reductions(monkeypatch):
    """Record (rows, columns, skipped columns, pivot rows) of every
    reduction of a differential by a complex."""
    calls = []
    original = skernel.complexes._reduce

    def spy(m, skip=frozenset()):
        factors, paired = original(m, skip)
        calls.append((m.rows, m.cols, len(skip), len(paired)))
        return factors, paired

    monkeypatch.setattr(skernel.complexes, "_reduce", spy)
    return calls


def test_homology_reduces_each_nonzero_differential_once(rng, monkeypatch):
    complexes = [boundary_of_tetrahedron(), mod2_complex(), single(2, 1)]
    complexes += [random_complex(rng) for _ in range(10)]
    calls = _spying_reductions(monkeypatch)
    for c in complexes:
        nonzero = sum(1 for n in c.degrees() if not c.d(n).is_zero())
        calls.clear()
        c.homology_all()
        c.homology_all()
        assert len(calls) == nonzero
        ascending = _fresh(c)
        calls.clear()
        for n in range(c.min_deg - 1, c.max_deg + 2):
            ascending.homology(n)
        assert len(calls) == nonzero


def _complexes_for_factor_checks(rng):
    cases = [random_complex(rng, max_deg=rng.randint(0, 5), max_rank=5) for _ in range(40)]
    cases += [c.shift(rng.randint(-4, 4)) for c in cases[:15]]
    cases += [c.dual() for c in cases[:15]]
    cases += [zero_complex(), single(3, 0), single(2, -3), mod2_complex(), boundary_of_tetrahedron()]
    cases += [conjugated_torsion_complex(rng, rng.randint(1, 4), rng.randint(1, 8))[0]
              for _ in range(20)]
    s1, s2 = spaces.sphere(1), spaces.sphere(2)
    spaces_ = [spaces.boundary(n) for n in range(1, 8)]
    spaces_ += [spaces.product(spaces.boundary(2), spaces.boundary(3)),
                spaces.product(spaces.product(s1, s1), s1), spaces.product(s2, s2),
                spaces.smash(s1, s2).space, spaces.smash(spaces.product(s1, s1), s1).space]
    return cases + [spaces.chains(x) for x in spaces_]


def test_factors_equal_the_matrix_reduction_after_any_query_order(rng):
    """Reducing top-down and skipping the columns paired above gives each
    differential's own invariant factors, whichever degree is asked first."""
    for c in _complexes_for_factor_checks(rng):
        window = range(c.min_deg - 1, c.max_deg + 2)
        want = {n: skernel.matrices.invariant_factors(c.d(n)) for n in window}
        queried = []
        for n in window:
            single_query = _fresh(c)
            single_query.homology(n)
            queried.append(single_query)
        all_at_once = _fresh(c)
        all_at_once.homology_all()
        ascending = _fresh(c)
        for n in window:
            ascending.homology(n)
        for x in queried + [all_at_once, ascending]:
            assert {n: x.invariant_factors(n) for n in window} == want, repr(c)


def test_conjugated_torsion_homology_is_known(rng):
    for _ in range(40):
        c, want = conjugated_torsion_complex(rng, rng.randint(1, 4), rng.randint(2, 8))
        assert c.homology_all() == want


def test_each_differential_skips_the_rows_paired_above(rng, monkeypatch):
    """d(n) skips exactly as many columns as d(n+1) has unit pivots."""
    s2 = spaces.sphere(2)
    cases = [spaces.chains(spaces.boundary(7)), spaces.chains(spaces.product(s2, s2)),
             boundary_of_tetrahedron()]
    cases += [random_complex(rng, max_deg=4, max_rank=5) for _ in range(20)]
    calls = _spying_reductions(monkeypatch)
    skipped = 0
    for c in cases:
        calls.clear()
        c.homology_all()
        degrees = [n for n in reversed(c.degrees()) if not c.d(n).is_zero()]
        assert [call[:2] for call in calls] == [c.d(n).shape for n in degrees]
        pivots = {n: call[3] for n, call in zip(degrees, calls)}
        for n, call in zip(degrees, calls):
            assert call[2] == pivots.get(n + 1, 0)
            skipped += call[2]
    assert skipped


def test_unit_heavy_homology_needs_no_dense_smith_reduction(monkeypatch):
    """Boundary matrices of simplices and of S2 x S2 x S2 reduce to
    nothing by unit pivots, so no residue is left for `_residue_factors`
    and the dense Smith loop never runs."""
    calls = []
    residue, dense = skernel.matrices._residue_factors, skernel.matrices._smith

    def counting_residue(rows, cols):
        calls.append((len(rows), len(cols)))
        return residue(rows, cols)

    def counting_dense(a, nr, nc):
        calls.append((nr, nc))
        return dense(a, nr, nc)

    monkeypatch.setattr(skernel.matrices, "_residue_factors", counting_residue)
    monkeypatch.setattr(skernel.matrices, "_smith", counting_dense)
    s2 = spaces.sphere(2)
    cases = [(spaces.boundary(n), {0: Z, n - 1: Z}) for n in range(2, 9)]
    s2_cubed = spaces.product(spaces.product(s2, s2), s2)
    cases.append((s2_cubed, {2: HomologyGroup(3), 4: HomologyGroup(3), 6: Z}))
    for x, want in cases:
        got = spaces.chains(x).homology_all()
        assert {n: h for n, h in got.items() if not h.is_zero()} == want
    assert calls == []


def test_complex_without_differentials_multiplies_nothing(monkeypatch):
    calls = []
    original = skernel.complexes._product_vanishes

    def counting(a, b, *splits):
        calls.append((a.shape, b.shape))
        return original(a, b, *splits)

    monkeypatch.setattr(skernel.complexes, "_product_vanishes", counting)
    c = ChainComplex(0, 1, {0: 30000, 1: 30000}, {})
    assert c.homology(1) == HomologyGroup(30000)
    ChainComplex(0, 2, {0: 1, 1: 2, 2: 1}, {1: [[1, -1]], 2: [[1], [1]]})
    assert calls == [((1, 2), (2, 1))]


def test_dd_check_sees_multiplicity_and_non_unit_entries():
    def raises(ranks, d, n):
        with pytest.raises(ValidationError) as err:
            ChainComplex(0, max(ranks), ranks, d)
        assert str(err.value) == "d(%d) @ d(%d) is nonzero" % (n, n + 1)

    # +1 twice against -1 once: the columns hit with +1 and with -1 are
    # the same set, but not the same list
    raises({0: 1, 1: 3, 2: 1}, {1: [[1, 1, -1]], 2: [[1], [1], [1]]}, 1)
    raises({0: 2, 1: 3, 2: 2}, {1: [[1, 1, -1], [1, -1, 0]], 2: [[1, 0], [1, 1], [1, 1]]}, 1)
    # 2 - 1: nonzero only through the entry 2, in d(n) or in d(n + 1)
    raises({0: 1, 1: 2, 2: 1}, {1: [[1, 1]], 2: [[2], [-1]]}, 1)
    raises({0: 1, 1: 2, 2: 1}, {1: [[2, 1]], 2: [[1], [-1]]}, 1)
    # the first nonzero product in degree order is named
    raises({0: 1, 1: 1, 2: 1, 3: 1}, {1: [[1]], 2: [[1]], 3: [[1]]}, 1)
    raises({0: 1, 1: 1, 2: 1, 3: 1, 4: 1}, {1: [[0]], 2: [[1]], 3: [[3]], 4: [[-2]]}, 2)
    # the same shapes with a zero product are complexes
    ChainComplex(0, 2, {0: 1, 1: 4, 2: 1}, {1: [[1, 1, -1, -1]], 2: [[1], [1], [1], [1]]})
    ChainComplex(0, 2, {0: 1, 1: 2, 2: 1}, {1: [[1, 2]], 2: [[2], [-1]]})
    ChainComplex(0, 2, {0: 1, 1: 2, 2: 1}, {1: [[3, 3]], 2: [[1], [-1]]})


@pytest.mark.parametrize("space", [lambda: spaces.boundary(6),
                                   lambda: spaces.product(spaces.sphere(2), spaces.sphere(2))],
                         ids=["boundary(6)", "S2xS2"])
def test_every_single_sign_flip_names_the_first_nonzero_product(space):
    """Each differential is split into its +1 and -1 columns once and the
    split serves both pairs it is a factor of; with any one entry of any
    differential negated, the check names the first pair in degree order
    whose product, computed by `@`, is nonzero, and a flip that leaves
    every product zero still builds."""
    c = spaces.chains(space())
    ranks = {n: c.rank(n) for n in c.degrees()}
    flips = entries = 0
    for n in c.degrees():
        m = c.d(n)
        for i, j, x in m.entries():
            entries += 1
            flipped = m + IntMatrix.from_entries(m.rows, m.cols, [(i, j, -2 * x)])
            d = {k: flipped if k == n else c.d(k) for k in c.degrees()}
            bad = [k for k in c.degrees() if not (d[k] @ d.get(k + 1, c.d(k + 1))).is_zero()]
            if not bad:
                ChainComplex(c.min_deg, c.max_deg, ranks, d)
                continue
            with pytest.raises(ValidationError, match=r"^d\(%d\) @ d\(%d\) is nonzero$"
                               % (bad[0], bad[0] + 1)):
                ChainComplex(c.min_deg, c.max_deg, ranks, d)
            flips += 1
    assert flips >= entries * 3 // 4


def test_cone_detects_quasi_iso(rng):
    c = boundary_of_tetrahedron()
    mapping_cone = cone(ChainMap.identity(c))
    for n in mapping_cone.degrees():
        assert mapping_cone.homology(n).is_zero()


def test_tower_report_concentrated():
    k = single(1, 0)
    l = single(1, 0)
    rep = sigma_tower_report(k, l)
    assert rep.stabilization_index == 0
    assert rep.lim1_vanishes
    assert rep.exactness_verified
    assert rep.limit_group == Z


def test_tower_report_two_step():
    k = mod2_complex()
    rep = sigma_tower_report(k, single(1, 0))
    assert rep.stabilization_index == 1
    assert rep.exactness_verified


def test_tower_report_random(rng):
    for _ in range(10):
        k = random_complex(rng)
        l = random_complex(rng)
        rep = sigma_tower_report(k, l)
        assert rep.lim1_vanishes
        assert rep.exactness_verified
        assert rep.hom_full == homotopy_class_group(k, l)


def _hom_pairs(rng, count):
    """Seeded (K, L) pairs: random complexes shifted into negative degrees,
    zero complexes, single-degree complexes, and pairs so far apart that
    the degrees -1..1 of Hom(K, L) are empty."""
    def one():
        r = rng.random()
        if r < 0.1:
            return zero_complex()
        if r < 0.25:
            return single(rng.randint(1, 3), rng.randint(-3, 3))
        return random_complex(rng, max_deg=rng.randint(0, 4)).shift(rng.randint(-4, 3))

    pairs = [(one(), one()) for _ in range(count)]
    k = random_complex(rng)
    pairs.append((k, random_complex(rng).shift(k.max_deg + 3)))
    pairs.append((random_complex(rng).shift(k.max_deg + 3), k))
    pairs.append((mod2_complex(), single(1, 9)))
    return pairs


def test_hom_window_agrees_with_the_kron_reference(rng):
    far = 0
    for k, l in _hom_pairs(rng, 150):
        h, ref = hom_complex(k, l), kron_hom_complex(k, l)
        assert h == ref
        for n in ref.degrees():
            # repr tells an int entry from an equal float
            assert repr(h.d(n).nonzeros) == repr(ref.d(n).nonzeros)
        assert homotopy_class_group(k, l) == ref.homology(0)
        assert sigma_tower_report(k, l) == kron_tower_report(k, l)
        far += all(ref.rank(n) == 0 for n in (-1, 0, 1))
    assert far >= 3


def test_tensor_agrees_with_the_kron_reference(rng):
    for a, b in _hom_pairs(rng, 150):
        t, ref = a.tensor(b), kron_tensor(a, b)
        assert t == ref and repr(t) == repr(ref)
        for n in ref.degrees():
            assert repr(t.d(n).nonzeros) == repr(ref.d(n).nonzeros)


def test_dual_mirrors_ranks_and_is_hom_into_the_unit(rng):
    assert zero_complex().dual() == zero_complex()
    # d_0 = (-1)^(0+1) d(1)^T
    assert mod2_complex().dual() == ChainComplex(-1, 0, {-1: 1, 0: 1}, {0: [[-2]]})
    for k, _ in _hom_pairs(rng, 60):
        kd = k.dual()
        assert all(kd.rank(m) == k.rank(-m) for m in range(-k.max_deg - 1, 2 - k.min_deg))
        assert hom_complex(k, single(1, 0)) == kd
        negated = ChainComplex(k.min_deg, k.max_deg, {n: k.rank(n) for n in k.degrees()},
                               {n: k.d(n).scale(-1) for n in k.degrees()})
        assert kd.dual() == negated


def test_tower_builds_one_window_per_distinct_stage(rng, monkeypatch):
    builds = []
    original = skernel.complexes._tensor_window

    def counting(a, b, lo, hi):
        window = original(a, b, lo, hi)
        builds.append((lo, hi, window.max_deg - window.min_deg))
        return window

    monkeypatch.setattr(skernel.complexes, "_tensor_window", counting)
    gapped = ChainComplex(0, 3, {0: 1, 3: 2}, {})
    pairs = _hom_pairs(rng, 40) + [(gapped, single(1, 0)), (zero_complex(), single(1, 0))]
    for k, l in pairs:
        del builds[:]
        rep = sigma_tower_report(k, l)
        assert 1 <= len(builds) <= len(rep.tower)
        assert all(hi - lo <= 2 and span <= 2 for lo, hi, span in builds)
    del builds[:]
    sigma_tower_report(gapped, single(1, 0))
    assert len(builds) == 2  # stages 0, 1 and 2 are the same complex
    del builds[:]
    homotopy_class_group(gapped, single(1, 0))
    assert [(lo, hi) for lo, hi, _ in builds] == [(-1, 1)]


def _record_cases():
    """One instance's arguments for each record class of the package."""
    ident = ChainMap.identity(mod2_complex())
    verdict = DegreeVerdict(Z, Z2, False, True)
    return [
        (HomologyGroup, (2, (2, 4))),
        (DegreeVerdict, (Z, Z2, False, True)),
        (QuasiIsoReport, ({0: verdict}, False)),
        (TowerReport, (3, Z, True, Z2, True, ((0, Z), (1, Z2)))),
        (IntMatrix, (2, 3, (((0, 2), (1, -4)), ((), ())))),
        (EZPair, (ident, ident)),
        (GroupoidPresentation, (("v",), {"e": ("v", "v")}, ((("gen", "e"),) * 3,))),
        (GroupPresentation, (("a", "b"), ((("a", 1), ("b", -1)),))),
        (SkeletonPushoutReport, (True, {0: 1}, {0: 1})),
        (WeqCertificate, (3, True, {0: True}, "equal", {2: (1, 1)}, "none")),
    ]


@pytest.mark.parametrize("cls, args", _record_cases(), ids=lambda x: getattr(x, "__name__", ""))
def test_records_behave_as_frozen_dataclasses(cls, args):
    """The package's records are written by hand, without `dataclasses`,
    and keep the behaviour of the frozen dataclasses they replace: the
    same repr, == only with a record of the same class, the hash of the
    field tuple, no assignment or deletion of an attribute, and a pickle
    round trip."""
    fields = cls.__slots__ if cls is IntMatrix else cls._fields
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)(*args)
    a, b = cls(*args), cls(*args)
    assert repr(a) == repr(twin)
    assert a == b and not a != b and a != twin and twin != a
    try:
        expected = hash(twin)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == expected
    for name in (fields[0], "other"):
        with pytest.raises(AttributeError, match="^cannot assign to field '%s'$" % name):
            setattr(a, name, 1)
        with pytest.raises(AttributeError, match="^cannot delete field '%s'$" % name):
            delattr(a, name)
    assert a == b == pickle.loads(pickle.dumps(a))


def test_record_defaults_are_kept():
    assert HomologyGroup(1).torsion == ()
    assert TowerReport(3, Z, True, Z2, True).tower == ()
    assert WeqCertificate(3, True, {}, "skipped", {}).contradiction is None
