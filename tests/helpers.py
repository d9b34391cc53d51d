"""Independent oracles used by the test suite.

Everything here is deliberately naive and kept separate from the library
so that the two sides of each check cannot share a bug: elimination
without transform bookkeeping, textbook direct-sum arithmetic of
finitely generated abelian groups, brute-force enumerations,
simplicial maps kept by name and extended to degenerate simplices by
rewriting degeneracy words, and the whole tensor and Hom complexes
assembled from Kronecker products, with the tower report read off the
Hom complex in every degree.  The chains of a simplicial set, the
smash inclusions and the cylinder maps are also kept as they were built
by name, through `product_pair_ref`, before the library moved them onto
(mask, cell) codes, and the chains once more as they were built on codes
before `chains` wrote its rows in place.  The smash is kept as the
quotient of the product by the wedge.  The normalization of a
simplicial group is kept in its matrix form: Moore bases as the kernel
of the stacked face matrices and as a product of `IntMatrix` factors
applied to the nondegenerate generators, the Moore projection as that
product and the K o N counit as side-by-side blocks.  K(C) is kept as
it was built on surjection value tuples, before it moved onto
degeneracy masks, with its structure maps given as matrices.  The
simplices' vertex subsets are kept as they were numbered under vertex
tuples, before they moved onto bitmasks, and the check of
d_i d_j = d_{j-1} d_i as it compared one slice per j, before each cell
became one compare.  The unit-pivot elimination is kept as it ran before
its coreduction phase: every row a {column: value} dict, every pivot
chosen by the column heap, and the kernel basis as it was back-substituted
one vector at a time.  Last, the few builders that only tests use.
"""

from __future__ import annotations

import heapq
import random
from itertools import accumulate, combinations
from math import gcd
from typing import NamedTuple

from skernel.complexes import (ChainComplex, ChainMap, HomologyGroup, TowerReport,
                               check_quasi_iso, zero_complex)
from skernel.matrices import (IntMatrix, _eliminate, diagonal_of, hstack, kernel_basis,
                              smith_normal_form, solve_exact, vstack)
from skernel.simpab import SimplicialAbGroup
from skernel.simplicial import (BisimplicialSet, SimplexRef, SimplicialMap, SimplicialSet,
                                mask_compose, mask_delete, mask_face, mask_of, word_of)
from skernel.spaces import (_chain_basis, interval_pointed, pair_id, point, product, product_pairs,
                            pushout_map, quotient, smash, wedge)


def naive_snf_diagonal(m: IntMatrix) -> list:
    """Repeated gcd row/column elimination; diagonal entries only."""
    a = m.to_lists()
    rows, cols = m.rows, m.cols
    diag = []
    t = 0
    while t < min(rows, cols):
        # pick any nonzero entry, favouring small ones
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    for s in range(cols):
                        a[i][s] -= q * a[t][s]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, cols):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    for s in range(rows):
                        a[s][j] -= q * a[s][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                p = a[t][t]
                for i in range(t + 1, rows):
                    if any(a[i][j] % p for j in range(t + 1, cols)):
                        for s in range(cols):
                            a[t][s] += a[i][s]
                        dirty = True
                        break
        diag.append(abs(a[t][t]))
        t += 1
    while len(diag) < min(rows, cols):
        diag.append(0)
    return diag


def group_of_divisors(divs) -> HomologyGroup:
    """Canonical form of Z/d1 + Z/d2 + ... (d = 0 means a free factor)."""
    primes = {}
    free = 0
    for d in divs:
        d = abs(d)
        if d == 0:
            free += 1
            continue
        if d == 1:
            continue
        n = d
        p = 2
        while p * p <= n:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                primes.setdefault(p, []).append(e)
            p += 1
        if n > 1:
            primes.setdefault(n, []).append(1)
    for p in primes:
        primes[p].sort(reverse=True)
    torsion = []
    while any(primes.values()):
        t = 1
        for p, es in primes.items():
            if es:
                t *= p ** es.pop(0)
        torsion.append(t)
    torsion.sort()
    # smallest invariant first, and the chain must divide upward
    out = []
    for t in reversed(torsion):
        out.append(t)
    out.reverse()
    return HomologyGroup(free, tuple(out))


def conjugated_torsion_complex(rng: random.Random, top: int, per: int, moves: int = 2):
    """A direct sum of pieces Z --k--> Z and free summands Z in degrees
    0..top, per generators in each degree, with each degree's basis
    changed by moves * per random elementary operations.  Returns the
    complex and its homology {degree: group}."""
    d = {n: [[0] * per for _ in range(per)] for n in range(1, top + 1)}
    used = [0] * (top + 1)
    orders = [[] for _ in range(top + 1)]  # orders of the pieces landing in each degree
    for n in range(top, 0, -1):
        for _ in range(rng.randint(0, per - max(used[n], used[n - 1]))):
            k = rng.choice((1, 2, 3, 4, 6))
            d[n][used[n - 1]][used[n]] = k
            orders[n - 1].append(k)
            used[n] += 1
            used[n - 1] += 1
    # a unimodular change of basis P per degree, with its inverse Q
    ps, qs = zip(*(unimodular_pair(rng, per, moves * per) for _ in range(top + 1)))
    diffs = {n: ps[n - 1] @ IntMatrix.from_rows(m) @ qs[n] for n, m in d.items()}
    ranks = {n: per for n in range(top + 1)}
    homology = {n: group_of_divisors([0] * (per - used[n]) + orders[n]) for n in ranks}
    return ChainComplex(0, top, ranks, diffs), homology


def unimodular_pair(rng: random.Random, size: int, moves: int) -> tuple:
    """A size x size unimodular P made of `moves` random elementary row
    operations (none when size < 2), and its inverse Q."""
    pm = [[int(i == j) for j in range(size)] for i in range(size)]
    qm = [row[:] for row in pm]
    for _ in range(moves if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        c = rng.choice((-1, 1))
        pm[i] = [x + c * y for x, y in zip(pm[i], pm[j])]
        for row in qm:
            row[j] -= c * row[i]
    return IntMatrix.from_rows(pm, cols=size), IntMatrix.from_rows(qm, cols=size)


def conjugated_group(a: SimplicialAbGroup, rng: random.Random, moves: int) -> SimplicialAbGroup:
    """a with the basis of each level n changed by a seeded unimodular P_n
    of moves * rank(n) row operations: face (n, i) becomes
    P_{n-1} d_i Q_n and degeneracy (n, j) becomes P_{n+1} s_j Q_n, built
    through the public constructor."""
    ps, qs = zip(*(unimodular_pair(rng, r, moves * r) for r in a.ranks()))
    face = {(n, i): ps[n - 1] @ a.face(n, i) @ qs[n]
            for n in range(1, a.D + 1) for i in range(n + 1)}
    degen = {(n, j): ps[n + 1] @ a.degen(n, j) @ qs[n] for n in range(a.D) for j in range(n + 1)}
    return SimplicialAbGroup(a.D, a.ranks(), face, degen)


def stacked_moore_basis(a: SimplicialAbGroup) -> dict:
    """Per level n, the `kernel_basis` of the face matrices d_1, ..., d_n
    stacked by `vstack`."""
    bases = {0: IntMatrix.identity(a.rank(0))}
    for n in range(1, a.D + 1):
        if a.rank(n) == 0:
            bases[n] = IntMatrix.zero(0, 0)
            continue
        bases[n] = kernel_basis(vstack([a.face(n, i) for i in range(1, n + 1)]))
    return bases


def product_projection(a: SimplicialAbGroup, n: int) -> IntMatrix:
    """(1 - s_0 d_1) ... (1 - s_{n-1} d_n) on A_n, each factor an
    `IntMatrix` product."""
    p = IntMatrix.identity(a.rank(n))
    for j in range(n - 1, -1, -1):
        p = p - a.degen(n - 1, j) @ (a.face(n, j + 1) @ p)
    return p


def product_moore_basis(a: SimplicialAbGroup) -> dict:
    """Per level n, where every degeneracy into A_n has only unit (or
    zero) columns, `product_projection` applied to the unit vectors of
    the generators that no degeneracy hits; elsewhere the
    `stacked_moore_basis`."""
    stacked = stacked_moore_basis(a)
    bases = {}
    for n in range(a.D + 1):
        columns = [col for j in range(n) for col in a.degen(n - 1, j).transpose().nonzeros]
        if any(xs not in ((), (1,)) for _, xs in columns):
            bases[n] = stacked[n]
            continue
        hit = {js[0] for js, _ in columns if js}
        keep = [c for c in range(a.rank(n)) if c not in hit]
        units = IntMatrix.from_entries(a.rank(n), len(keep), ((c, t, 1) for t, c in enumerate(keep)))
        bases[n] = product_projection(a, n) @ units
    return bases


def product_moore_projection(a: SimplicialAbGroup, bases: dict, n: int):
    """The Moore coordinates of `product_projection`, or None when the
    solve has none."""
    if a.rank(n) == 0:
        return IntMatrix.zero(0, 0)
    return solve_exact(bases[n], product_projection(a, n))


def hstack_counit(a: SimplicialAbGroup, na: ChainComplex, bases: dict) -> dict:
    """Per level n, the counit K(N(A))_n -> A_n as the `hstack` of one
    block per summand eta: the degeneracy matrices of eta's repeated
    values, multiplied onto the Moore basis of degree eta[-1]."""
    out = {}
    for n in range(a.D + 1):
        blocks = []
        for eta in surjection_summands(na, n):
            m = bases[eta[-1]]
            for lvl, j in enumerate((i for i in range(n) if eta[i] == eta[i + 1]), eta[-1]):
                m = a.degen(lvl, j) @ m
            blocks.append(m)
        out[n] = hstack(blocks) if blocks else IntMatrix.zero(a.rank(n), 0)
    return out


def homology_by_presentation(c: ChainComplex, n: int) -> HomologyGroup:
    """H_n presented on a basis of the cycles: solve the boundaries in
    that basis, then read off the cokernel of the relation matrix.  This
    is the transform-heavy recipe that ChainComplex.homology replaced,
    kept as a reference."""
    z = kernel_basis(c.d(n))
    if z.cols == 0:
        return HomologyGroup(0)
    relations = solve_exact(z, c.d(n + 1))
    assert relations is not None, "boundaries escape the cycles"
    diag = [x for x in naive_snf_diagonal(relations) if x]
    return group_of_divisors([0] * (z.cols - len(diag)) + diag)


def tensor_groups(a: HomologyGroup, b: HomologyGroup) -> HomologyGroup:
    divs = []
    divs.extend([0] * (a.free_rank * b.free_rank))
    for t in a.torsion:
        divs.extend([t] * b.free_rank)
    for t in b.torsion:
        divs.extend([t] * a.free_rank)
    for s in a.torsion:
        for t in b.torsion:
            divs.append(gcd(s, t))
    return group_of_divisors(divs)


def tor_groups(a: HomologyGroup, b: HomologyGroup) -> HomologyGroup:
    divs = [gcd(s, t) for s in a.torsion for t in b.torsion]
    return group_of_divisors(divs)


def direct_sum(groups) -> HomologyGroup:
    divs = []
    for g in groups:
        divs.extend([0] * g.free_rank)
        divs.extend(g.torsion)
    return group_of_divisors(divs)


def kunneth_homology(ha: dict, hb: dict, n: int) -> HomologyGroup:
    """H_n of a tensor product from the homology of the factors."""
    parts = []
    for i, g in ha.items():
        h = hb.get(n - i)
        if h is not None:
            parts.append(tensor_groups(g, h))
    for i, g in ha.items():
        h = hb.get(n - 1 - i)
        if h is not None:
            parts.append(tor_groups(g, h))
    return direct_sum(parts)


def kron_tensor(self: ChainComplex, other: ChainComplex) -> ChainComplex:
    """The whole C ox C', each block of each differential a Kronecker
    product: d kron 1, and (-1)^i times 1 kron d'.  Same basis as
    `ChainComplex.tensor`; the body is that of the former method."""
    lo = self._min + other._min
    hi = self._max + other._max
    ranks = {}
    blocks = {}
    for n in range(lo, hi + 1):
        idx = []
        total = 0
        for i in range(self._min, self._max + 1):
            r = self.rank(i) * other.rank(n - i)
            if r:
                idx.append((i, total, r))
                total += r
        blocks[n] = idx
        if total:
            ranks[n] = total
    d = {}
    for n in range(lo + 1, hi + 1):
        src = blocks[n]
        tgt = blocks[n - 1]
        if not src or not tgt:
            continue
        tgt_at = {i: off for i, off, _ in tgt}
        rows = sum(r for _, _, r in tgt)
        cols = sum(r for _, _, r in src)
        entries = []
        for i, coff, _ in src:
            j = n - i
            ra, rb = self.rank(i), other.rank(j)
            if i - 1 in tgt_at and self.rank(i - 1):
                blk = self.d(i).kron(IntMatrix.identity(rb))
                roff = tgt_at[i - 1]
                entries.extend((roff + a, coff + b, x) for a, b, x in blk.entries())
            if i in tgt_at and other.rank(j - 1):
                sign = -1 if i % 2 else 1
                blk = IntMatrix.identity(ra).kron(other.d(j))
                roff = tgt_at[i]
                entries.extend((roff + a, coff + b, sign * x) for a, b, x in blk.entries())
        d[n] = IntMatrix.from_entries(rows, cols, entries)
    if not ranks:
        return ChainComplex(0, 0, {}, {})
    return ChainComplex(lo, hi, ranks, d)


def kron_hom_complex(k: ChainComplex, l: ChainComplex) -> ChainComplex:
    """The whole Hom(K, L), each block of each differential a Kronecker
    product: d_L kron 1 for post-composition, 1 kron d_K^T, times
    -(-1)^n, for pre-composition.  Same basis as `hom_complex`."""
    lo = l.min_deg - k.max_deg
    hi = l.max_deg - k.min_deg
    blocks = {}
    ranks = {}
    for n in range(lo, hi + 1):
        idx = []
        total = 0
        for i in range(k.min_deg, k.max_deg + 1):
            r = k.rank(i) * l.rank(i + n)
            if r:
                idx.append((i, total, r))
                total += r
        blocks[n] = idx
        if total:
            ranks[n] = total
    d = {}
    for n in range(lo + 1, hi + 1):
        src = blocks[n]
        tgt = blocks[n - 1]
        if not src or not tgt:
            continue
        tgt_at = {i: off for i, off, _ in tgt}
        rows = sum(r for _, _, r in tgt)
        cols = sum(r for _, _, r in src)
        entries = []
        sign = -1 if n % 2 else 1
        for i, coff, _ in src:
            if i in tgt_at and l.rank(i + n - 1):
                blk = l.d(i + n).kron(IntMatrix.identity(k.rank(i)))
                roff = tgt_at[i]
                entries.extend((roff + a, coff + b, x) for a, b, x in blk.entries())
            if i + 1 in tgt_at and l.rank(i + n):
                blk = IntMatrix.identity(l.rank(i + n)).kron(k.d(i + 1).transpose())
                roff = tgt_at[i + 1]
                entries.extend((roff + a, coff + b, -sign * x) for a, b, x in blk.entries())
        d[n] = IntMatrix.from_entries(rows, cols, entries)
    if not ranks:
        return zero_complex()
    return ChainComplex(lo, hi, ranks, d)


def kron_tower_report(k: ChainComplex, l: ChainComplex) -> TowerReport:
    """The tower report from whole Hom complexes: every stage, Hom(K, L)
    and the stable stage built afresh, and the restriction map checked
    in every degree before its degree-0 verdict is read."""
    top = k.max_deg
    while top > k.min_deg and k.rank(top) == 0:
        top -= 1
    stab = top if k.rank(top) else k.min_deg - 1
    tower = tuple((n, kron_hom_complex(k.truncate_stupid(n), l).homology(0))
                  for n in range(k.min_deg, k.max_deg + 1))
    full_hom = kron_hom_complex(k, l)
    stable_hom = kron_hom_complex(k.truncate_stupid(stab), l)
    hom_full = full_hom.homology(0)
    limit_group = stable_hom.homology(0)
    restriction = ChainMap(full_hom, stable_hom, {
        n: IntMatrix.identity(full_hom.rank(n))
        for n in full_hom.degrees() if full_hom.rank(n) == stable_hom.rank(n)})
    exact = check_quasi_iso(restriction).verdicts[0].isomorphism
    return TowerReport(
        stabilization_index=stab,
        limit_group=limit_group,
        lim1_vanishes=all(g == limit_group for n, g in tower if n >= stab),
        hom_full=hom_full,
        exactness_verified=exact and hom_full == limit_group,
        tower=tower,
    )


def shuffles(p: int, q: int):
    """All (p, q)-shuffles as (mu, nu, sign) with mu the p-element part."""
    out = []
    universe = list(range(p + q))
    import itertools

    for mu in itertools.combinations(universe, p):
        nu = tuple(x for x in universe if x not in mu)
        inversions = sum(1 for a in mu for b in nu if a > b)
        out.append((mu, nu, (-1) ** inversions))
    return out


def naive_rewrite_degeneracy(word, j):
    """s_j applied after the degeneracy word `word`, by exhaustive
    rewriting with s_i s_j = s_{j+1} s_i (i <= j)."""
    seq = [j] + list(word)  # composition left to right
    changed = True
    while changed:
        changed = False
        for t in range(len(seq) - 1):
            a, b = seq[t], seq[t + 1]
            if a <= b:  # s_a s_b = s_{b+1} s_a for a <= b
                seq[t], seq[t + 1] = b + 1, a
                changed = True
    return tuple(seq)


class NamedMap:
    """A simplicial map in name form: a dict cell id -> SimplexRef of the
    target, extended to a degenerate simplex s_{i1} ... s_{ik} x by
    applying s_{ik} first, then the others, to the image of x, each by
    rewriting.  It shares no code with `SimplicialMap`'s (mask, cell)
    codes."""

    def __init__(self, source, target, images: dict):
        self.source, self.target = source, target
        self.images = {c: SimplexRef(tuple(r[0]), r[1]) for c, r in images.items()}

    @classmethod
    def identity(cls, space):
        return cls(space, space, {c: SimplexRef((), c) for _, c in space.all_cells()})

    def __call__(self, ref):
        word, base = self.images[ref.base]
        for j in reversed(ref.word):
            word = naive_rewrite_degeneracy(word, j)
        return SimplexRef(word, base)

    def compose(self, other):
        """self after other."""
        return NamedMap(other.source, self.target,
                        {c: self(img) for c, img in other.images.items()})

    def preserves_basepoint(self):
        if not (self.source.pointed and self.target.pointed):
            return False
        return self.images[self.source.basepoint].base == self.target.basepoint

    def is_levelwise_injective(self):
        for n in self.source.dims():
            seen = set()
            for cell in self.source.cells(n):
                img = self.images[cell]
                if img.word or img in seen:
                    return False
                seen.add(img)
        return True

    def is_cellwise_iso(self):
        for n in self.source.dims():
            images = set()
            for cell in self.source.cells(n):
                img = self.images[cell]
                if img.word:
                    return False
                images.add(img.base)
            if len(images) != self.source.n_cells(n) or images != set(self.target.cells(n)):
                return False
        return set(self.source.dims()) == set(self.target.dims())


def named_chains(x, normalized: bool = True, cap: int | None = None) -> ChainComplex:
    """The chains of a simplicial set as `spaces.chains` built them by
    name: normalized generators are cell ids, faces are looked up
    through a cell-number -> row list, and the reduced basis drops the
    basepoint by id (normalized) or by its degenerate code."""
    reduced = x.pointed
    if normalized:
        top = x.top_dim()
        if top < 0:
            return zero_complex()
        basis = {n: list(x.cells(n)) for n in range(top + 1)}
    else:
        if cap is None:
            raise ValueError("unnormalized chains require a dimension cap")
        top = cap
        basis = {n: x.simplex_codes(n) for n in range(top + 1)}
    for n, items in basis.items():
        drop = None
        if reduced:
            drop = x.basepoint if normalized else x.code(basepoint_ref(x, n))
        basis[n] = [it for it in items if it != drop]
    ranks = {n: len(items) for n, items in basis.items() if items}
    if normalized:
        table = x.face_table()
        row_of = [None] * len(table)  # cell number -> row in its degree
        for items in basis.values():
            for row, c in enumerate(items):
                row_of[x.number(c)] = row
    else:
        index = {n: {it: i for i, it in enumerate(items)} for n, items in basis.items()}
    d = {}
    for n in range(1, top + 1):
        rows, cols = len(basis.get(n - 1, ())), len(basis.get(n, ()))
        if rows == 0 or cols == 0:
            continue
        entries = []
        for col, item in enumerate(basis[n]):
            if normalized:
                face_rows = [None if mask else row_of[b] for mask, b in table[x.number(item)]]
            else:
                face_rows = [index[n - 1].get(x.face_code(*item, i)) for i in range(n + 1)]
            for i, row in enumerate(face_rows):
                if row is not None:
                    entries.append((row, col, -1 if i % 2 else 1))
        d[n] = IntMatrix.from_entries(rows, cols, entries)
    if not ranks:
        return zero_complex()
    return ChainComplex(0, top, ranks, d)


def entries_chains(x, normalized: bool = True, cap: int | None = None):
    """`spaces.chains` as it was built before it wrote its rows in place:
    every boundary entry is emitted column by column, and
    `IntMatrix.from_entries` sorts them and adds up repeated positions."""
    if not normalized and cap is None:
        raise ValueError("unnormalized chains require a dimension cap")
    top = x.top_dim() if normalized else cap
    basis = [_chain_basis(x, n, normalized) for n in range(top + 1)]
    ranks = {n: len(codes) for n, codes in enumerate(basis) if codes}
    if not ranks:
        return zero_complex()
    index = {code: row for codes in basis for row, code in enumerate(codes)}
    table, face_code = x.face_table(), x.face_code
    d = {}
    for n in range(1, top + 1):
        if not basis[n - 1] or not basis[n]:
            continue
        entries = []
        for col, (mask, c) in enumerate(basis[n]):
            faces = [face_code(mask, c, i) for i in range(n + 1)] if mask else table[c]
            for i, face in enumerate(faces):
                row = index.get(face)
                if row is not None:
                    entries.append((row, col, -1 if i % 2 else 1))
        d[n] = IntMatrix.from_entries(len(basis[n - 1]), len(basis[n]), entries)
    return ChainComplex(0, top, ranks, d)


def basepoint_ref(x, n: int) -> SimplexRef:
    """The totally degenerate basepoint n-simplex of a pointed space."""
    if not x.pointed:
        raise ValueError("space is not pointed")
    return SimplexRef(tuple(range(n - 1, -1, -1)), x.basepoint)


def product_pair_ref(x, y, ra: SimplexRef, rb: SimplexRef) -> SimplexRef:
    """The simplex of product(x, y) represented by an arbitrary pair: the
    degeneracies the two words share, over the pair with them deleted,
    named by the product's minted id."""
    ma, mb = mask_of(ra.word), mask_of(rb.word)
    common = ma & mb
    return SimplexRef(word_of(common), pair_id(SimplexRef(word_of(mask_delete(ma, common)), ra.base),
                                               SimplexRef(word_of(mask_delete(mb, common)), rb.base)))


class NamedSmash(NamedTuple):
    space: SimplicialSet
    collapse: SimplicialMap  # product(x, y) -> smash


def named_smash(x, y) -> NamedSmash:
    """`spaces.smash` as the quotient of the product by the wedge, with
    the wedge inclusions into the product built by name."""
    prod = product(x, y)
    along_x = {c: product_pair_ref(x, y, SimplexRef((), c), basepoint_ref(y, n))
               for n, c in x.all_cells()}
    along_y = {c: product_pair_ref(x, y, basepoint_ref(x, n), SimplexRef((), c))
               for n, c in y.all_cells()}
    include = pushout_map(wedge(x, y), SimplicialMap(x, prod, along_x),
                          SimplicialMap(y, prod, along_y))
    result = quotient(include)
    return NamedSmash(result.space, result.from_x)


def named_cylinder_object(k):
    """`homotopy._cylinder_object` built by name: the two end inclusions
    of k into k smashed with the pointed interval, and the projection
    back to k."""
    iv = interval_pointed()
    sm = smash(k, iv)

    def end_map(vertex: str) -> SimplicialMap:
        assignment = {}
        for n, c in k.all_cells():
            ra = SimplexRef((), c)
            rb = SimplexRef(tuple(range(n - 1, -1, -1)), vertex)
            assignment[c] = sm.collapse(product_pair_ref(k, iv, ra, rb))
        return SimplicialMap(k, sm.space, assignment)

    to_k = {c: ra if rb.base != iv.basepoint else basepoint_ref(k, n)
            for c, (n, ra, rb) in product_pairs(k, iv).items()}
    pt = point()
    legs = (sm.space, sm.collapse,
            SimplicialMap(pt, sm.space, {"*": SimplexRef((), sm.space.basepoint)}))
    projection = pushout_map(legs, SimplicialMap(sm.collapse.source, k, to_k),
                             SimplicialMap(pt, k, {"*": SimplexRef((), k.basepoint)}))
    return end_map("0"), end_map("1"), projection


def tuple_simplex_cells(n: int, include_top: bool, skip: tuple = ()) -> tuple:
    """Cells and face table of the n-simplex's vertex subsets as they were
    built on vertex tuples: each subset numbered under its tuple, its face
    i the tuple with vertex i sliced out, without the top subset unless
    include_top and without the tuples in skip."""
    cells = {}
    table = []
    number = {}
    for size in range(1, n + 2 if include_top else n + 1):
        ids = []
        for vs in combinations(range(n + 1), size):
            if vs in skip:
                continue
            number[vs] = len(table)
            ids.append(".".join(str(v) for v in vs))
            table.append(tuple((0, number[vs[:i] + vs[i + 1:]]) for i in range(size))
                         if size > 1 else ())
        if ids:
            cells[size - 1] = ids
    return cells, table


def slice_identity_failure(ids: list, table: list):
    """The message naming the first identity d_i d_j = d_{j-1} d_i that
    fails, cells in number order, as it was found with one slice compare
    per j between the table rows[j][i] = d_i d_j of a cell's faces of
    faces and its transpose; None when all hold.  The faces of a face
    s_mask b come from `mask_face` one index at a time, b's row read where
    the operator reaches b.  The rows are assumed to have passed the
    constructor's row checks."""
    def faces(mask, base, m):
        out = []
        for i in range(m + 1):
            prefix, k = mask_face(mask, i)
            if k is None:
                out.append((prefix, base))
            else:
                fmask, fbase = table[base][k]
                out.append((mask_compose(prefix, fmask), fbase))
        return tuple(out)

    for c, row in enumerate(table):
        n = len(row) - 1
        if n < 2:
            continue
        rows = [faces(mask, base, n - 1) for mask, base in row]
        cols = tuple(zip(*rows))
        for j in range(1, n + 1):
            if rows[j][:j] != cols[j - 1][:j]:
                i = next(i for i in range(j) if rows[j][i] != rows[i][j - 1])
                return "simplicial identity d_%d d_%d failed on %r" % (i, j, ids[c])
    return None


def block_diag(blocks) -> IntMatrix:
    """The block-diagonal matrix of the given blocks."""
    blocks = list(blocks)
    roffs = list(accumulate((b.rows for b in blocks), initial=0))
    coffs = list(accumulate((b.cols for b in blocks), initial=0))
    return IntMatrix.from_entries(
        roffs[-1],
        coffs[-1],
        ((r0 + i, c0 + j, x) for b, r0, c0 in zip(blocks, roffs, coffs) for i, j, x in b.entries()),
    )


def surjection_tuples(n: int, k: int):
    """Order-preserving surjections [n] ->> [k] as value tuples."""
    out = []
    for rises in combinations(range(1, n + 1), k):
        vals = [0]
        for i in range(1, n + 1):
            vals.append(vals[-1] + (1 if i in rises else 0))
        out.append(tuple(vals))
    out.sort()
    return out


def surjection_summands(c: ChainComplex, n: int) -> list:
    """The surjections [n] ->> [k] with C_k nonzero, lexicographically:
    the summands of K(C)_n that exist."""
    return sorted(eta for k in range(n + 1) if c.rank(k) for eta in surjection_tuples(n, k))


def surjection_K(c: ChainComplex, trunc_dim: int) -> SimplicialAbGroup:
    """K(C) truncated at trunc_dim as it was built on surjection value
    tuples, each structure map an `IntMatrix` given to the constructor.

    The operator of a monotone map alpha (a value tuple) sends the
    summand eta to the summand eta o alpha by the identity when eta o
    alpha is still surjective (being monotone into [k], it takes k + 1
    values), to the summand eta o alpha - 1 by the differential when its
    image is {1..k} (k values starting at 1), and to zero otherwise."""
    c = c.truncate_good(0)
    summands = [surjection_summands(c, n) for n in range(trunc_dim + 1)]
    offsets = [dict(zip(etas, accumulate((c.rank(eta[-1]) for eta in etas), initial=0)))
               for etas in summands]
    ranks = [sum(c.rank(eta[-1]) for eta in etas) for etas in summands]

    def operator(n: int, m: int, alpha: tuple) -> IntMatrix:
        entries, col = [], 0
        for eta in summands[n]:
            k = eta[-1]
            t = tuple(eta[v] for v in alpha)
            values = len(set(t))
            if values == k + 1:
                row = offsets[m][t]
                entries += [(row + r, col + r, 1) for r in range(c.rank(k))]
            elif values == k and t[0] == 1 and tuple(v - 1 for v in t) in offsets[m]:
                row = offsets[m][tuple(v - 1 for v in t)]
                entries += [(row + r, col + j, x) for r, j, x in c.d(k).entries()]
            col += c.rank(k)
        return IntMatrix.from_entries(ranks[m], ranks[n], entries)

    face = {(n, i): operator(n, n - 1, tuple(v for v in range(n + 1) if v != i))
            for n in range(1, trunc_dim + 1) for i in range(n + 1)}
    degen = {(n, j): operator(n, n + 1, tuple(v if v <= j else v - 1 for v in range(n + 2)))
             for n in range(trunc_dim) for j in range(n + 1)}
    return SimplicialAbGroup(trunc_dim, ranks, face, degen)


def row_dicts(stored, skip=()) -> dict:
    """The nonzero stored rows without the columns in skip, as
    {row: {column: value}}, each row's columns ascending."""
    rows = {}
    for i, (js, xs) in enumerate(stored):
        row = {j: x for j, x in zip(js, xs) if j not in skip} if skip else dict(zip(js, xs))
        if row:
            rows[i] = row
    return rows


def heap_eliminate(rows: dict, limit: int):
    """`matrices._eliminate` without its coreduction phase, on rows given
    as {row: {column: value}} and consumed: while some entry is +-1 in a
    column below limit, the sparsest such column (ties: lowest index) is
    cleared with the shortest such row (ties: lowest index) as pivot.
    Returns (pivots, rows, cols) as `_eliminate` does."""
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    pivots = []
    heap = [(len(occ), j) for j, occ in cols.items() if j < limit]
    heapq.heapify(heap)
    while heap:
        count, q = heapq.heappop(heap)
        occ = cols.get(q)
        if occ is None or len(occ) != count:
            continue
        candidates = [(len(rows[i]), i) for i in occ if rows[i][q] in (1, -1)]
        if not candidates:
            continue
        p = min(candidates)[1]
        prow = rows.pop(p)
        s = prow.pop(q)
        del cols[q]
        for j in prow:
            cols[j].discard(p)
        for i in occ:
            if i == p:
                continue
            row = rows[i]
            f = row.pop(q) * s
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = y
                elif j in row:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
        for j in prow:
            if cols[j]:
                if j < limit:
                    heapq.heappush(heap, (len(cols[j]), j))
            else:
                del cols[j]
        pivots.append((p, q, s, prow))
    return pivots, rows, cols


def heap_only_eliminate(stored, limit: int, skip=()):
    """`heap_eliminate` with `matrices._eliminate`'s signature, to stand
    in for it."""
    return heap_eliminate(row_dicts(stored, skip), limit)


def _residue(rows: dict, keep) -> IntMatrix:
    """The residue rows, in order, restricted to the columns in keep."""
    at = {j: t for t, j in enumerate(keep)}
    return IntMatrix.from_entries(
        len(rows), len(at),
        ((r, at[j], x) for r, i in enumerate(sorted(rows)) for j, x in rows[i].items() if j in at),
    )


def per_vector_kernel(m: IntMatrix) -> IntMatrix:
    """`matrices.kernel_basis` as it back-substituted each kernel vector
    through every pivot on its own."""
    pivots, rows, cols = _eliminate(m.nonzeros, m.cols)
    pivoted = {q for _, q, _, _ in pivots}
    vectors = [{j: 1} for j in range(m.cols) if j not in pivoted and j not in cols]
    if rows:
        keep = sorted(cols)
        _, d, v = smith_normal_form(_residue(rows, keep), want_u=False)
        r = sum(1 for x in diagonal_of(d) if x)
        for js, ys in v.transpose().nonzeros[r:]:
            vectors.append({keep[j]: y for j, y in zip(js, ys)})
    for x in vectors:
        for _, q, s, prow in reversed(pivots):
            y = -s * sum(x.get(j, 0) * c for j, c in prow.items())
            if y:
                x[q] = y
    return IntMatrix.from_entries(
        m.cols, len(vectors), ((j, t, y) for t, x in enumerate(vectors) for j, y in x.items()))


def level_summands(n: int):
    """All order-preserving surjections out of [n], lexicographically."""
    out = []
    for k in range(n + 1):
        out.extend(surjection_tuples(n, k))
    out.sort()
    return out


def constant_vertical(x) -> BisimplicialSet:
    """The bisimplicial set that is X in the horizontal direction and
    constant vertically; its diagonal is X again."""
    hfaces = [tuple((m, 0, f) for m, f in row) for row in x.face_table()]
    return BisimplicialSet({(p, 0): x.cells(p) for p in x.dims()}, hfaces, [()] * len(hfaces),
                           pointed=x.pointed, basepoint=x.basepoint)


# instance generation is not an oracle; share the library's seeded builder
from skernel.generators import random_complex  # noqa: F401  (re-export)
