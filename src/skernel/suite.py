"""The randomized verification suite.

Each named check re-proves one of the structural facts the library is
built on, at desk scale, with seeded random instances: the Smith
decomposition contract, homology under shift/truncation/tensor, the
duality between the two chain models of a simplicial set, the Dold-Kan
equivalences, the bar shift, strict Eilenberg-Zilber cancellation,
smash/suspension behaviour of the free reduction, horn filling, the
wrapping functor and its skeletal squares, cylinders and homotopy
pushouts.  The report is line-oriented and byte-deterministic for a
fixed seed; checks are independent and run one after another.
"""

from __future__ import annotations

import random

from .complexes import (
    ChainComplex,
    check_quasi_iso,
    homotopy_class_group,
    sigma_tower_report,
    single,
)
from .generators import random_complex, random_matrix, random_pointed_space, random_sab
from .homotopy import (
    bar_column_bisimplicial,
    cylinder,
    homotopy_pushout,
    skeleton_pushout_check,
    weq_certificate,
    wrap,
)
from .matrices import IntMatrix, diagonal_of, invariant_factors, is_unimodular, smith_normal_form
from .simpab import (
    bar_B,
    constant_group,
    dold_kan_K,
    ez_maps,
    free_reduced_Z,
    horn_filler,
    kn_roundtrip_ok,
    nk_roundtrip_iso,
    normalize_N,
    smash_comparison_iso,
    unnormalized_complex,
    homotopy_groups,
)
from .simplicial import SimplexRef, SimplicialMap, SimplicialSet
from .spaces import (
    boundary,
    chain_map_of,
    chains,
    diag_id,
    diagonal,
    euler_characteristic,
    external_product,
    homology_space,
    pair_id,
    pi0,
    pi1_presentation,
    point,
    product,
    product_pairs,
    pushout_inj,
    quotient,
    simplex,
    sphere,
    suspension,
    wedge,
)


class CheckFailure(AssertionError):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailure(msg)


def _unpoint(x: SimplicialSet) -> SimplicialSet:
    return SimplicialSet({n: list(x.cells(n)) for n in x.dims()}, x.face_table())


# --------------------------------------------------------------------------
# chain-level checks


def check_smith_normal_form(rng, scale):
    count = 40 * scale
    for _ in range(count):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        u, d, v = smith_normal_form(m)
        _require(d == u @ m @ v, "decomposition broke")
        _require(is_unimodular(u) and is_unimodular(v), "transforms not unimodular")
        diag = diagonal_of(d)
        for a, b in zip(diag, diag[1:]):
            _require((a == 0 and b == 0) or (a != 0 and b % a == 0), "divisibility chain broke")
        _require(invariant_factors(m) == tuple(x for x in diag if x),
                 "invariant factors disagree with the diagonal of D")
    return "%d random matrices" % count


def check_homology_shift(rng, scale):
    for _ in range(4 * scale):
        c = random_complex(rng)
        p = rng.randint(-2, 3)
        s = c.shift(p)
        for n in range(-1, c.max_deg + p + 2):
            _require(s.homology(n) == c.homology(n - p), "H(C[p], n) != H(C, n-p)")
    return "H(C[p], n) = H(C, n-p)"


def check_good_truncation(rng, scale):
    for _ in range(4 * scale):
        c = random_complex(rng)
        n0 = rng.randint(0, c.max_deg)
        t = c.truncate_good(n0)
        for n in range(-1, c.max_deg + 1):
            want = c.homology(n) if n >= n0 else c.homology(n).__class__(0)
            _require(t.homology(n) == want, "truncation changed homology")
        incl = c.truncation_inclusion(n0)
        rep = check_quasi_iso(incl)
        for n in range(n0, c.max_deg + 1):
            _require(rep.verdicts[n].isomorphism, "inclusion not iso above the cut")
    return "kernel-corrected truncation preserves homology above the cut"


def check_kunneth_ranks(rng, scale):
    for _ in range(3 * scale):
        a = random_complex(rng, max_deg=2)
        b = random_complex(rng, max_deg=2)
        t = a.tensor(b)
        for n in t.degrees():
            want = sum(
                a.homology(i).free_rank * b.homology(n - i).free_rank
                for i in range(a.min_deg, a.max_deg + 1)
            )
            _require(t.homology(n).free_rank == want, "tensor rank mismatch")
    return "free ranks multiply across the tensor product"


def check_hom_renormalization(rng, scale):
    for _ in range(3 * scale):
        k = random_complex(rng, max_deg=2)
        l = random_complex(rng, max_deg=2)
        _require(
            homotopy_class_group(k, l) == homotopy_class_group(k.shift(1).shift(-1), l),
            "homotopy classes changed under shift round trip",
        )
    return "maps-up-to-homotopy invariant under shift round trip"


def check_tower(rng, scale):
    count = 8 * scale
    for _ in range(count):
        k = random_complex(rng)
        l = random_complex(rng)
        rep = sigma_tower_report(k, l)
        _require(rep.lim1_vanishes, "derived-limit obstruction claimed nonzero")
        _require(rep.exactness_verified, "tower limit disagrees with the full Hom group")
    return "%d towers: limit = Hom, derived limit vanishes" % count


# --------------------------------------------------------------------------
# simplicial-set checks


def check_operator_identities(rng, scale):
    spaces = [simplex(3), boundary(3), sphere(2), _unpoint(random_pointed_space(rng))]
    for x in spaces:
        for _ in range(20 * scale):
            n0 = rng.choice(x.dims())
            ref = SimplexRef((), rng.choice(x.cells(n0)))
            for _ in range(rng.randint(0, 3)):
                ref = x.degeneracy(ref, rng.randint(0, x.dim(ref)))
            n = x.dim(ref)
            if n >= 2:
                for j in range(1, n + 1):
                    for i in range(j):
                        _require(
                            x.face(x.face(ref, j), i) == x.face(x.face(ref, i), j - 1),
                            "face-face identity failed",
                        )
            for j in range(n + 1):
                s = x.degeneracy(ref, j)
                for i in range(n + 2):
                    out = x.face(s, i)
                    if i in (j, j + 1):
                        _require(out == ref, "face-degeneracy cancellation failed")
    return "face/degeneracy identities on random simplices"


def check_pi0_h0(rng, scale):
    for _ in range(4 * scale):
        x = _unpoint(random_pointed_space(rng))
        _require(
            homology_space(x, 0).free_rank == len(pi0(x)),
            "rank of H_0 differs from the component count",
        )
    return "free rank of H_0 counts components"


def check_pi1_abelianization(rng, scale):
    for _ in range(4 * scale):
        x = random_pointed_space(rng)
        comp = [c for c in pi0(x) if "v0" in c][0]
        sub = _component(x, set(comp))
        pres = pi1_presentation(x, "v0")
        _require(
            pres.abelianization() == homology_space(_unpoint(sub), 1),
            "abelianized vertex group differs from H_1",
        )
    return "abelianized vertex group equals H_1 of the component"


def _component(x, comp_vertices):
    cells = {}
    faces = {}
    for n in x.dims():
        kept = []
        for c in x.cells(n):
            if set(x.vertices_of(SimplexRef((), c))) <= comp_vertices:
                kept.append(c)
                for i in range(n + 1) if n else ():
                    faces[(c, i)] = x.stored_face(c, i)
        if kept:
            cells[n] = kept
    return SimplicialSet(cells, faces)


def check_euler_product(rng, scale):
    pairs = [(boundary(2), simplex(1)), (sphere(1), sphere(1))]
    for _ in range(scale):
        pairs.append((_unpoint(random_pointed_space(rng, 2, 3, 1)), simplex(1)))
    for x, y in pairs:
        _require(
            euler_characteristic(product(x, y))
            == euler_characteristic(x) * euler_characteristic(y),
            "Euler characteristic is not multiplicative",
        )
    return "Euler characteristic multiplies across products"


def check_quotient_chains(rng, scale):
    d2, bd2 = simplex(2), boundary(2)
    incl = SimplicialMap(bd2, d2, {c: SimplexRef((), c) for _, c in bd2.all_cells()})
    res = quotient(incl)
    cx = chains(d2)
    keep = {n: [i for i, c in enumerate(d2.cells(n)) if not bd2.has_cell(c)] for n in d2.dims()}
    ranks = {n: len(ix) for n, ix in keep.items() if ix}
    d = {}
    for n in d2.dims():
        if n == 0 or not keep.get(n) or not keep.get(n - 1):
            continue
        full = cx.d(n)
        d[n] = IntMatrix.from_rows(
            [[full.at(i, j) for j in keep[n]] for i in keep[n - 1]], cols=len(keep[n])
        )
    qc = ChainComplex(0, max(ranks), ranks, d)
    for n in range(3):
        _require(homology_space(res.space, n) == qc.homology(n), "quotient homology mismatch")
    return "collapse of a subspace matches the chain-level quotient"


def check_diagonal_product(rng, scale):
    cases = [(simplex(1), simplex(1)), (sphere(1), sphere(1)), (boundary(2), simplex(1))]
    for x, y in cases:
        ext = external_product(x, y)
        dg = diagonal(ext)
        pr = product(x, y)
        assignment = {}
        for cid, (n, ra, rb) in product_pairs(x, y).items():
            source = diag_id(ra.word, rb.word,
                             pair_id(SimplexRef((), ra.base), SimplexRef((), rb.base)))
            assignment[source] = SimplexRef((), cid)
        iso = SimplicialMap(dg, pr, assignment)
        _require(iso.is_cellwise_iso(), "diagonal of the external product is not the product")
    return "diagonal of an external product is the product, cell by cell"


def check_space_normalization(rng, scale):
    for _ in range(3 * scale):
        x = _unpoint(random_pointed_space(rng, 2, 4, 2))
        cn = chains(x, normalized=True)
        cu = chains(x, normalized=False, cap=4)
        for n in range(4):
            _require(cn.homology(n) == cu.homology(n), "normalization changed homology")
    return "normalized and unnormalized chains share homology"


# --------------------------------------------------------------------------
# simplicial-abelian-group checks


def check_dold_kan(rng, scale):
    count = 4 * scale
    for _ in range(count):
        c = random_complex(rng)
        nk_roundtrip_iso(c, 3)
        a = random_sab(rng)
        _require(kn_roundtrip_ok(a), "levelwise comparison failed")
    return "%d round trips in both directions" % (2 * count)


def check_group_normalization(rng, scale):
    for _ in range(3 * scale):
        a = random_sab(rng)
        nu = unnormalized_complex(a)
        nn = normalize_N(a)
        for i in range(a.D):
            _require(nu.homology(i) == nn.homology(i), "chain models disagree")
    return "both chain models of a simplicial group agree in range"


def check_bar_shift(rng, scale):
    b = bar_B(constant_group(1, 4))
    n1 = normalize_N(b)
    _require([str(n1.homology(i)) for i in range(4)] == ["0", "Z", "0", "0"],
             "bar of the constants is not a circle")
    b2 = bar_B(b)
    n2 = normalize_N(b2)
    _require([str(n2.homology(i)) for i in range(4)] == ["0", "0", "Z", "0"],
             "iterated bar is not concentrated in degree two")
    for _ in range(2 * scale):
        a = random_sab(rng, trunc=4, max_rank=1)
        na, nb = normalize_N(a), normalize_N(bar_B(a))
        _require(nb.homology(0).is_zero(), "bar has zeroth homology")
        for i in range(1, 4):
            _require(nb.homology(i) == na.homology(i - 1), "bar did not shift homology")
    return "N(B(A)) has the homology of N(A), shifted up once"


def check_ez_strict(rng, scale):
    for _ in range(2 * scale):
        a = random_sab(rng)
        b = random_sab(rng)
        _require(ez_maps(a, b).strict_identity_ok(), "aw o shuffle is not the identity")
    return "aw o shuffle = id, all degrees"


def check_ez_kunneth(rng, scale):
    zs1 = free_reduced_Z(sphere(1), 4)
    pair = ez_maps(zs1, zs1)
    for n in range(4):
        _require(
            pair.shuffle.target.homology(n) == pair.shuffle.source.homology(n),
            "tensor models disagree on homology",
        )
    return "H(N(A ox B)) = H(N(A) ox N(B)) in range"


def check_zreduced_monoidality(rng, scale):
    for e, f in [(sphere(0), sphere(1)), (sphere(1), sphere(1))]:
        smash_comparison_iso(e, f, 3)
    return "free reduction turns smash into tensor"


def check_suspension_shift(rng, scale):
    for f in (sphere(0), sphere(1)):
        for i in (1, 2):
            d = 4
            base = normalize_N(free_reduced_Z(f, d))
            shifted = normalize_N(free_reduced_Z(suspension(f, i), d))
            for n in range(d):
                if 0 <= n - i <= d - 1:
                    _require(shifted.homology(n) == base.homology(n - i),
                             "suspension did not shift reduced homology")
    return "reduced homology of a suspension is a shift"


def check_horn_filling(rng, scale):
    count = 0
    for _ in range(3 * scale):
        a = random_sab(rng)
        for n in (1, 2, 3):
            if a.rank(n) == 0:
                continue
            x = tuple(rng.randint(-3, 3) for _ in range(a.rank(n)))
            k = rng.randint(0, n)
            faces = [a.face_vec(n, i, x) if i != k else None for i in range(n + 1)]
            w = horn_filler(a, n, k, faces)
            for i in range(n + 1):
                if i != k:
                    _require(a.face_vec(n, i, w) == faces[i], "filler face mismatch")
            count += 1
    return "%d horns filled and verified" % count


def check_em_concentration(rng, scale):
    for n in (1, 2):
        k = dold_kan_K(single(1, n), 4)
        for i in range(4):
            want_rank = 1 if i == n else 0
            got = homotopy_groups(k, i)
            _require(got.free_rank == want_rank and not got.torsion,
                     "homotopy not concentrated in one degree")
    return "inverse functor realises concentrated homotopy"


# --------------------------------------------------------------------------
# homotopy-construction checks


def check_wrap_counit(rng, scale):
    for x in [sphere(1)] + [random_pointed_space(rng, 2, 4, 1) for _ in range(2 * scale)]:
        wr = wrap(x, 3)
        cert = weq_certificate(wr.counit, 2)
        _require(cert.passed, "counit certificate failed")
        _require(cert.groupoid_match == "equal", "groupoid presentations differ")
    return "wrap counit passes certificates with equal groupoid presentations"


def check_wrap_homology_triangle(rng, scale):
    for _ in range(2 * scale):
        x = _unpoint(random_pointed_space(rng, 2, 3, 1))
        d = 3
        wr = wrap(x, d)
        cu = chains(x, normalized=False, cap=d)
        cw = chains(wr.space, normalized=True)
        for n in range(d + 1):
            _require(cu.d(n) == cw.d(n), "wrapped chains differ from the simplex chains")
        rep = check_quasi_iso(chain_map_of(wr.counit))
        for n in range(d):
            _require(rep.verdicts[n].isomorphism, "counit is not a homology isomorphism")
    return "simplex chains = wrapped chains; projection is a quasi-isomorphism"


def check_skeleton_squares(rng, scale):
    for x in [sphere(1)] + [random_pointed_space(rng, 2, 3, 1) for _ in range(scale)]:
        for n in (0, 1, 2):
            rep = skeleton_pushout_check(x, n, 3)
            _require(rep.holds, "skeletal square is not a pushout at n=%d" % n)
    return "skeleta of the wrapped space glue cells one dimension at a time"


def check_cylinder(rng, scale):
    s1 = sphere(1)
    cyl = cylinder(SimplicialMap.identity(s1))
    _require(cyl.retraction.compose(cyl.from_target) == SimplicialMap.identity(s1),
             "retraction is not a strict section")
    _require(weq_certificate(cyl.retraction, 2).passed, "retraction certificate failed")
    s0 = sphere(0)
    collapse = SimplicialMap(s0, s0, {"*": SimplexRef((), "*"), "p": SimplexRef((), "*")})
    c2 = cylinder(collapse)
    _require(weq_certificate(c2.retraction, 2).passed, "collapse cylinder failed")
    return "cylinder retractions: strict section + certificate"


def check_homotopy_pushout(rng, scale):
    s0, s1, s2, pt = sphere(0), sphere(1), sphere(2), point()
    to_pt = SimplicialMap(s0, pt, {"*": SimplexRef((), "*"), "p": SimplexRef((), "*")})
    hp = homotopy_pushout(to_pt, to_pt)
    _require(str(homology_space(hp.space, 1)) == "Z", "suspension of two points is not a circle")
    w = wedge(s1, s2)
    strict = pushout_inj(w.inl, SimplicialMap.identity(s1))
    hp2 = homotopy_pushout(w.inl, SimplicialMap.identity(s1),
                           square=(strict.from_x, strict.from_y, strict.space))
    _require(weq_certificate(hp2.comparison, 3).passed, "coprojection comparison failed")
    _require(hp2.from_left.is_levelwise_injective() and hp2.from_right.is_levelwise_injective(),
             "structural maps are not termwise coprojections")
    return "concrete homotopy pushouts: homology + coprojection comparisons"


def check_kq_bisimplicial(rng, scale):
    s0, s1, pt = sphere(0), sphere(1), point()
    to_pt = SimplicialMap(s0, pt, {"*": SimplexRef((), "*"), "p": SimplexRef((), "*")})
    collapse_s1 = SimplicialMap(s1, pt, {"*": SimplexRef((), "*"), "c": SimplexRef((0,), "*")})
    cases = [(to_pt, to_pt), (SimplicialMap.identity(s1), collapse_s1)]
    for f, g in cases:
        hp = homotopy_pushout(f, g)
        dg = diagonal(bar_column_bisimplicial(f, g))
        _require(dg.cell_counts() == hp.space.cell_counts(),
                 "column description disagrees cellwise")
        for n in range(3):
            _require(homology_space(dg, n) == homology_space(hp.space, n),
                     "column description disagrees on homology")
    return "both homotopy pushout descriptions agree cellwise"


CHECKS = [
    ("smith-normal-form", "D = U M V, unimodular U and V, d1 | d2 | ...", check_smith_normal_form),
    ("homology-shift", "H(C[p], n) = H(C, n - p)", check_homology_shift),
    ("good-truncation", "homology preserved at and above the cut, zero below", check_good_truncation),
    ("kunneth-ranks", "rank H(C ox C') multiplies", check_kunneth_ranks),
    ("hom-renormalization", "[K, L] invariant under shift round trips", check_hom_renormalization),
    ("hom-tower", "0 -> lim1 -> [K, L] -> lim [trunc K, L] -> 0, towers constant", check_tower),
    ("operator-identities", "face/degeneracy relations via the word engine", check_operator_identities),
    ("pi0-h0", "components = free rank of H_0", check_pi0_h0),
    ("pi1-abelianization", "abelianized vertex group = H_1", check_pi1_abelianization),
    ("euler-product", "chi(X x Y) = chi(X) chi(Y)", check_euler_product),
    ("quotient-chains", "X/A matches the chain quotient", check_quotient_chains),
    ("diagonal-product", "diag(X (x) Y) = X x Y", check_diagonal_product),
    ("space-normalization", "normalized = unnormalized homology", check_space_normalization),
    ("dold-kan-roundtrip", "N(K(C)) = C and K(N(A)) = A", check_dold_kan),
    ("group-normalization", "H(all-simplex complex) = H(N)", check_group_normalization),
    ("bar-shift", "N(B(A)) = N(A)[1] on homology", check_bar_shift),
    ("ez-strict", "aw o shuffle = id", check_ez_strict),
    ("ez-kunneth", "H N(A ox B) = H (N(A) ox N(B))", check_ez_kunneth),
    ("zreduced-monoidality", "Z~(E ^ F) = Z~(E) ox Z~(F)", check_zreduced_monoidality),
    ("suspension-shift", "H~(S^i ^ F) = H~(F)[i]", check_suspension_shift),
    ("horn-filling", "simplicial groups fill every compatible horn", check_horn_filling),
    ("em-concentration", "K(Z[n]) has homotopy Z in degree n only", check_em_concentration),
    ("wrap-counit", "Wr(X) -> X certified, groupoids equal", check_wrap_counit),
    ("wrap-homology-triangle", "chains(X) = chains(Wr X)/degeneracies", check_wrap_homology_triangle),
    ("skeleton-squares", "sk_{n+1} Wr X glues cells along simplex boundaries", check_skeleton_squares),
    ("cylinder-retraction", "L -> cyl(f) -> L strict; certificates pass", check_cylinder),
    ("homotopy-pushout", "K_Q legs are coprojections; comparisons certified", check_homotopy_pushout),
    ("kq-columns", "K_Q = diagonal of the column object", check_kq_bisimplicial),
]


def run_suite(seed: int, size: str = "small", checks=None):
    """Run every check with per-check derived seeds; returns (report
    text, all_passed).  The report is byte-identical for identical
    (seed, size)."""
    if size not in ("small", "medium"):
        raise ValueError("size must be small or medium")
    if checks is None:
        checks = CHECKS
    scale = 1 if size == "small" else 2
    lines = []
    passed = 0
    for name, statement, fn in checks:
        rng = random.Random("%d:%s" % (seed, name))
        try:
            detail = fn(rng, scale)
            ok = True
        except CheckFailure as exc:
            detail, ok = str(exc), False
        except Exception as exc:  # pragma: no cover - defensive
            detail, ok = "%s: %s" % (type(exc).__name__, exc), False
        tag = "PASS" if ok else "FAIL"
        lines.append("%s %-24s %s [%s]" % (tag, name, statement, detail))
        passed += ok
    lines.append("suite: %d/%d checks passed (seed=%d, size=%s)" % (passed, len(checks), seed, size))
    return "\n".join(lines) + "\n", passed == len(checks)
