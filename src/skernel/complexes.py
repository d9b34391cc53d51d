"""Bounded chain complexes of finitely generated free abelian groups.

Complexes are homologically graded: the differential in degree n maps
C_n -> C_{n-1}.  Homology groups are reported as (free rank, torsion
coefficients) in divisibility order.  Both homology and the
quasi-isomorphism test come from the invariant factors of differentials,
cached on the (immutable) complex:

    H_n = Z^(r_n - rk d_n - rk d_{n+1})  +  (factors of d_{n+1} above 1).

The differentials are reduced top-down (Kaczynski-Mrozek-Slusarek): d(n)
skips its columns p that are pivot rows of unit pivots of d(n+1).  Its
invariant factors stay: eliminating d(n+1) is a unimodular row operation
E, and d(n) E^-1 . E d(n+1) = 0.  Right multiplication by E^-1 changes
only the columns p, and E d(n+1) has a triangular pivot block with +-1
on its diagonal and zeros elsewhere in the pivot columns.  So the
columns p of d(n) E^-1 vanish and its others are those of d(n), which
without the columns p spans the same lattice.

d(n) @ d(n+1) = 0 is checked at construction for every adjacent pair, in
degree order, by `matrices._product_vanishes`: every row of the product
is tested, exactly, without building it.  Each differential is split
into its +1 and -1 columns once (`matrices._signed_rows`): d(n+1), split
as the right factor of one pair, is the left factor of the next.

Kernel bases and exact solves, which need the Smith transforms, are
computed only where a caller consumes the basis itself (truncations and
the cycles that a chain map is checked on).

Hom is a tensor product: Hom(K, L) = L ox K*, where the dual K* has
K_{-m} in degree m and differential d_m = (-1)^(m+1) d_K(1-m)^T.  One
builder, `_tensor_window`, writes every tensor and Hom differential.
"""

from __future__ import annotations

from .matrices import (IntMatrix, _product_vanishes, _reduce, _signed_rows, hstack, invariant_factors,
                       kernel_basis, solve_exact, vstack)


class ValidationError(ValueError):
    """Structurally invalid input data (broken d*d = 0, bad shapes, ...)."""


class _Record:
    """An immutable record: the attributes named in `_fields`, set once
    by the constructor, make its repr, its == (with records of the same
    class only) and its hash, as in a frozen dataclass."""

    _fields = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join("%s=%r" % f for f in zip(self._fields, self._values())))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class HomologyGroup(_Record):
    """A finitely generated abelian group Z^free_rank + Z/t1 + Z/t2 + ...

    Torsion coefficients are >= 2 and each divides the next; units are
    never recorded.  A rank or coefficient that is not an int (a float,
    a bool) is rejected, not converted.
    """

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple = ()):
        if free_rank.__class__ is not int:
            raise ValueError("free rank %r is not an int" % (free_rank,))
        if free_rank < 0:
            raise ValueError("negative free rank")
        ts = tuple(torsion)
        self.__dict__.update(free_rank=free_rank, torsion=ts)
        for t in ts:
            if t.__class__ is not int:
                raise ValueError("torsion coefficient %r is not an int" % (t,))
            if t < 2:
                raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(ts, ts[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = HomologyGroup(0, ())


def group_from_presentation(generators: int, relations: IntMatrix) -> HomologyGroup:
    """The group Z^generators modulo the column lattice of `relations`."""
    if relations.rows != generators:
        raise ValueError("relation matrix has %d rows for %d generators" % (relations.rows, generators))
    factors = invariant_factors(relations)
    return HomologyGroup(generators - len(factors), tuple(x for x in factors if x > 1))


class ChainComplex:
    """A bounded complex; ranks and differentials outside the stored
    support are zero.  d(n-1) @ d(n) = 0 is checked at construction, row
    by row without building the product, so invalid complexes cannot be
    built."""

    def __init__(self, min_deg: int, max_deg: int, ranks: dict, d: dict):
        if min_deg > max_deg:
            raise ValidationError("min_deg must be <= max_deg")
        ranks = {int(n): r for n, r in ranks.items()}
        for n, r in ranks.items():
            if type(r) is not int:
                raise ValidationError("rank in degree %d is %r, not an int" % (n, r))
            if r < 0:
                raise ValidationError("negative rank in degree %d" % n)
            if r and not (min_deg <= n <= max_deg):
                raise ValidationError("rank in degree %d outside [%d, %d]" % (n, min_deg, max_deg))
        ranks = {n: r for n, r in ranks.items() if r}
        # trim the declared window to the actual support
        if ranks:
            min_deg = min(ranks)
            max_deg = max(ranks)
        else:
            min_deg = max_deg = 0
        self._min = min_deg
        self._max = max_deg
        self._ranks = ranks
        diffs = {}
        for n, m in d.items():
            n = int(n)
            if not isinstance(m, IntMatrix):
                m = IntMatrix.from_rows(m)
            expected = (self.rank(n - 1), self.rank(n))
            if m.shape != expected:
                raise ValidationError(
                    "differential in degree %d has shape %r, expected %r" % (n, m.shape, expected)
                )
            if not m.is_zero():
                diffs[n] = m
        self._d = diffs
        self._factors = {}
        # the next degree to reduce, top-down, and the rows paired above it
        self._pending = (max_deg, frozenset())
        # a product with an absent (zero) differential is zero; left is the
        # split of d(n) made when it was the right factor of the pair below
        left = None
        for n in sorted(diffs):
            right = _signed_rows(diffs[n + 1]) if n + 1 in diffs else None
            if right is not None and not _product_vanishes(diffs[n], diffs[n + 1], left, right):
                raise ValidationError("d(%d) @ d(%d) is nonzero" % (n, n + 1))
            left = right

    @property
    def min_deg(self) -> int:
        return self._min

    @property
    def max_deg(self) -> int:
        return self._max

    def degrees(self) -> range:
        return range(self._min, self._max + 1)

    def rank(self, n: int) -> int:
        return self._ranks.get(n, 0)

    def total_rank(self) -> int:
        return sum(self._ranks.values())

    def d(self, n: int) -> IntMatrix:
        m = self._d.get(n)
        if m is None:
            return IntMatrix.zero(self.rank(n - 1), self.rank(n))
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainComplex):
            return NotImplemented
        if self._ranks != other._ranks:
            return False
        return all(self.d(n) == other.d(n) for n in self.degrees())

    def __repr__(self) -> str:
        ranks = ", ".join("%d:%d" % (n, self.rank(n)) for n in self.degrees())
        return "ChainComplex(%s)" % ranks

    # -- basic invariants ------------------------------------------------

    def cycles(self, n: int) -> IntMatrix:
        """Columns form a basis of the lattice ker d(n) inside C_n."""
        return kernel_basis(self.d(n))

    def invariant_factors(self, n: int) -> tuple:
        """Invariant factors of d(n); their count is the rank of d(n).
        The first query in degree n reduces every d(k), k >= n, not yet
        reduced, top-down (see the module docstring)."""
        f = self._factors.get(n)
        if f is not None:
            return f
        if n not in self._d:
            return ()
        top, paired = self._pending
        for k in range(top, n - 1, -1):
            m = self._d.get(k)
            self._factors[k], paired = _reduce(m, paired) if m is not None else ((), frozenset())
        self._pending = (n - 1, paired)
        return self._factors[n]

    def homology(self, n: int) -> HomologyGroup:
        """H_n = ker d(n) / im d(n+1), from invariant factors alone.

        Degrees outside the support simply give the zero group.
        """
        if self.rank(n) == 0:
            return ZERO_GROUP
        boundaries = self.invariant_factors(n + 1)
        free = self.rank(n) - len(self.invariant_factors(n)) - len(boundaries)
        return HomologyGroup(free, tuple(x for x in boundaries if x > 1))

    def homology_all(self) -> dict:
        return {n: self.homology(n) for n in self.degrees()}

    # -- constructions ---------------------------------------------------

    def shift(self, p: int) -> "ChainComplex":
        """C[p]: rank in degree n is rank_C(n - p); the differential picks
        up the sign (-1)^p so tensor/Hom identities hold on the nose."""
        ranks = {n + p: r for n, r in self._ranks.items()}
        sign = -1 if p % 2 else 1
        d = {n + p: (self._d[n] if sign == 1 else self._d[n].scale(sign)) for n in self._d}
        return ChainComplex(self._min + p, self._max + p, ranks, d)

    def truncate_good(self, n: int) -> "ChainComplex":
        """Kernel-corrected truncation: keeps C above degree n, replaces
        degree n by ker d(n), and is zero below; homology is preserved in
        degrees >= n and vanishes under it."""
        k = self.cycles(n)
        ranks = {m: self.rank(m) for m in range(n + 1, self._max + 1)}
        ranks[n] = k.cols
        d = {}
        if k.cols and self.rank(n + 1):
            lifted = solve_exact(k, self.d(n + 1))
            if lifted is None:
                raise ValidationError("d(%d) does not factor through its kernel target" % (n + 1))
            d[n + 1] = lifted
        for m in range(n + 2, self._max + 1):
            d[m] = self.d(m)
        return ChainComplex(n, max(n, self._max), ranks, d)

    def truncation_inclusion(self, n: int) -> "ChainMap":
        """The canonical chain map truncate_good(n) -> self."""
        trunc = self.truncate_good(n)
        comps = {}
        for m in trunc.degrees():
            if trunc.rank(m) == 0:
                continue
            if m == n:
                comps[m] = self.cycles(n)
            else:
                comps[m] = IntMatrix.identity(self.rank(m))
        return ChainMap(trunc, self, comps)

    def truncate_stupid(self, n: int) -> "ChainComplex":
        """Hard cutoff: identical to C in degrees <= n, zero above."""
        ranks = {m: r for m, r in self._ranks.items() if m <= n}
        d = {m: mat for m, mat in self._d.items() if m <= n}
        return ChainComplex(min(self._min, n), n, ranks, d)

    def dual(self) -> "ChainComplex":
        """C*: rank in degree m is rank_C(-m), and d_m = (-1)^(m+1) d_C(1-m)^T,
        the sign that makes Hom(K, L) = L ox K* on the nose."""
        ranks = {-n: r for n, r in self._ranks.items()}
        # d_C(n) becomes d_{1-n}, whose sign (-1)^(2-n) is (-1)^n
        d = {1 - n: m.transpose().scale(-1 if n % 2 else 1) for n, m in self._d.items()}
        return ChainComplex(-self._max, -self._min, ranks, d)

    def tensor(self, other: "ChainComplex") -> "ChainComplex":
        """Graded tensor product with the Koszul sign:
        d(a ox b) = da ox b + (-1)^|a| a ox db.

        Degree-n basis is ordered by blocks C_i ox C'_{n-i} with i
        increasing; within a block the Kronecker (row-major) order.
        """
        return _tensor_window(self, other, self._min + other._min, self._max + other._max)


def zero_complex() -> ChainComplex:
    return ChainComplex(0, 0, {}, {})


def single(rank: int = 1, degree: int = 0) -> ChainComplex:
    """A complex concentrated in one degree."""
    return ChainComplex(degree, degree, {degree: rank}, {})


class ChainMap:
    """A degreewise map of complexes; commutation with the differentials
    is checked at construction."""

    def __init__(self, source: ChainComplex, target: ChainComplex, components: dict):
        self.source = source
        self.target = target
        comps = {}
        for n, m in components.items():
            n = int(n)
            if not isinstance(m, IntMatrix):
                m = IntMatrix.from_rows(m)
            expected = (target.rank(n), source.rank(n))
            if m.shape != expected:
                raise ValidationError(
                    "component in degree %d has shape %r, expected %r" % (n, m.shape, expected)
                )
            comps[n] = m
        self._comps = comps
        lo = min(source.min_deg, target.min_deg)
        hi = max(source.max_deg, target.max_deg)
        for n in range(lo, hi + 2):
            lhs = target.d(n) @ self.component(n)
            rhs = self.component(n - 1) @ source.d(n)
            if lhs != rhs:
                raise ValidationError("chain map does not commute with d in degree %d" % n)

    def component(self, n: int) -> IntMatrix:
        m = self._comps.get(n)
        if m is None:
            return IntMatrix.zero(self.target.rank(n), self.source.rank(n))
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        lo = min(self.source.min_deg, self.target.min_deg)
        hi = max(self.source.max_deg, self.target.max_deg)
        return all(self.component(n) == other.component(n) for n in range(lo, hi + 1))

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValidationError("composition mismatch")
        lo = min(other.source.min_deg, self.target.min_deg)
        hi = max(other.source.max_deg, self.target.max_deg)
        comps = {n: self.component(n) @ other.component(n) for n in range(lo, hi + 1)}
        return ChainMap(other.source, self.target, comps)

    @classmethod
    def identity(cls, c: ChainComplex) -> "ChainMap":
        return cls(c, c, {n: IntMatrix.identity(c.rank(n)) for n in c.degrees()})

    @classmethod
    def zero(cls, source: ChainComplex, target: ChainComplex) -> "ChainMap":
        return cls(source, target, {})


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: cone(f)_n = C_{n-1} + D_n with
    d(c, x) = (-dc, dx - f(c)); acyclic exactly when f is a
    quasi-isomorphism."""
    src, tgt = f.source, f.target
    lo = min(src.min_deg + 1, tgt.min_deg)
    hi = max(src.max_deg + 1, tgt.max_deg)
    ranks = {n: src.rank(n - 1) + tgt.rank(n) for n in range(lo, hi + 1)}
    d = {}
    for n in range(lo + 1, hi + 1):
        d[n] = vstack([
            hstack([-src.d(n - 1), IntMatrix.zero(src.rank(n - 2), tgt.rank(n))]),
            hstack([-f.component(n - 1), tgt.d(n)]),
        ])
    return ChainComplex(lo, hi, ranks, d)


class DegreeVerdict(_Record):
    _fields = ("source_group", "target_group", "groups_agree", "surjective")

    def __init__(self, source_group: HomologyGroup, target_group: HomologyGroup,
                 groups_agree: bool, surjective: bool):
        self.__dict__.update(source_group=source_group, target_group=target_group,
                             groups_agree=groups_agree, surjective=surjective)

    @property
    def isomorphism(self) -> bool:
        # a surjection between abstractly isomorphic finitely generated
        # abelian groups is an isomorphism (they are Hopfian)
        return self.groups_agree and self.surjective


class _Verdicts(dict):
    """Verdicts by degree; outside both supports the groups are zero."""

    def __missing__(self, n):
        return DegreeVerdict(ZERO_GROUP, ZERO_GROUP, True, True)


class QuasiIsoReport(_Record):
    _fields = ("verdicts", "is_quasi_iso")

    def __init__(self, verdicts: dict, is_quasi_iso: bool):
        # verdicts answers every degree
        self.__dict__.update(verdicts=verdicts, is_quasi_iso=is_quasi_iso)


def _degree_verdict(f: ChainMap, n: int) -> DegreeVerdict:
    """The verdict on H_n(f); see `check_quasi_iso`."""
    hs = f.source.homology(n)
    ht = f.target.homology(n)
    cycle_rank = f.target.rank(n) - len(f.target.invariant_factors(n))
    surj = True
    if cycle_rank:
        span = hstack([f.component(n) @ f.source.cycles(n), f.target.d(n + 1)])
        surj = invariant_factors(span) == (1,) * cycle_rank
    return DegreeVerdict(hs, ht, hs == ht, surj)


def check_quasi_iso(f: ChainMap) -> QuasiIsoReport:
    """Degreewise test that f induces isomorphisms on homology.

    The lattice L spanned by f(Z_n(source)) and the target boundaries
    lies in Z_n(target), which is saturated in the target's degree-n
    group.  So H_n(f) is surjective iff L has full rank
    r_n - rk d_n there and a torsion-free quotient: all of its invariant
    factors are 1.  With abstract equality of the two groups this
    decides isomorphism exactly.
    """
    verdicts = _Verdicts()
    lo = min(f.source.min_deg, f.target.min_deg)
    hi = max(f.source.max_deg, f.target.max_deg)
    for n in range(lo, hi + 1):
        verdicts[n] = _degree_verdict(f, n)
    return QuasiIsoReport(verdicts, all(v.isomorphism for v in verdicts.values()))


def _tensor_window(a: ChainComplex, b: ChainComplex, lo: int, hi: int) -> ChainComplex:
    """Degrees lo..hi of A ox B, clipped to its support, with the
    differentials between them; d d = 0 is checked as for any complex.

    The basis is that of `ChainComplex.tensor`: x ox y of block i sits at
    index x * rank B_{n-i} + y.  The entries are written straight from the
    nonzeros of d_A and d_B: d_A ox 1 sends (x, y) to (x', y) of block
    i - 1 with coefficient d_A[x'][x], and (-1)^i 1 ox d_B sends it to
    (x, y') of block i with coefficient (-1)^i d_B[y'][y].
    """
    lo = max(lo, a.min_deg + b.min_deg)
    hi = min(hi, a.max_deg + b.max_deg)
    blocks = {}
    ranks = {}
    for n in range(lo, hi + 1):
        idx = []
        total = 0
        for i in a.degrees():
            r = a.rank(i) * b.rank(n - i)
            if r:
                idx.append((i, total, r))
                total += r
        blocks[n] = idx
        if total:
            ranks[n] = total
    if not ranks:
        return zero_complex()
    d = {}
    for n in range(lo + 1, hi + 1):
        src = blocks[n]
        tgt_at = {i: off for i, off, _ in blocks[n - 1]}
        if not src or not tgt_at:
            continue
        entries = []
        for i, coff, _ in src:
            rb = b.rank(n - i)
            if i - 1 in tgt_at:
                roff = tgt_at[i - 1]
                entries += [(roff + x1 * rb + y, coff + x * rb + y, v)
                            for x1, x, v in a.d(i).entries() for y in range(rb)]
            if i in tgt_at:
                roff, rb1 = tgt_at[i], b.rank(n - i - 1)
                sign = -1 if i % 2 else 1
                entries += [(roff + x * rb1 + y1, coff + x * rb + y, sign * v)
                            for y1, y, v in b.d(n - i).entries() for x in range(a.rank(i))]
        d[n] = IntMatrix.from_entries(ranks[n - 1], ranks[n], entries)
    return ChainComplex(lo, hi, ranks, d)


def hom_complex(k: ChainComplex, l: ChainComplex) -> ChainComplex:
    """Hom(K, L)_n = product over i of Hom(K_i, L_{i+n}), with
    (df)(x) = d_L f(x) - (-1)^n f(d_K x), over its whole support
    l.min_deg - k.max_deg .. l.max_deg - k.min_deg.

    Basis in degree n: blocks indexed by i increasing; a block is the
    row-major vectorisation of matrices K_i -> L_{i+n}.  Degree-0 cycles
    are chain maps and degree-0 homology is maps modulo chain homotopy.
    This is L ox K*, basis and signs included, and is built as such.
    """
    return _tensor_window(l, k.dual(), l.min_deg - k.max_deg, l.max_deg - k.min_deg)


def homotopy_class_group(k: ChainComplex, l: ChainComplex) -> HomologyGroup:
    """H_0 of Hom(K, L): chain maps K -> L modulo chain homotopy.

    H_0 reads only d_0 and d_1, so only the window of degrees -1..1 of
    Hom(K, L) = L ox K* is built (and checked for d_0 d_1 = 0).
    """
    return _tensor_window(l, k.dual(), -1, 1).homology(0)


class TowerReport(_Record):
    """Outcome of the hard-truncation tower of Hom groups.

    `tower` lists (n, H_0 Hom(sigma_{<=n} K, L)) for n over the degrees
    of K.  The towers arising from bounded complexes are eventually
    constant, so the limit is the stable value and the derived limit
    obstruction vanishes.  `exactness_verified` compares Hom(K, L) with
    its stable stage Hom(sigma_{<=stab} K, L): the restriction map between
    them must be an isomorphism on H_0, computed rather than assumed, and
    the two groups must agree.  For a bounded K the stable stage is K
    itself, so the restriction is the identity and this check cannot fail
    yet.
    """

    _fields = ("stabilization_index", "limit_group", "lim1_vanishes", "hom_full",
               "exactness_verified", "tower")

    def __init__(self, stabilization_index: int, limit_group: HomologyGroup, lim1_vanishes: bool,
                 hom_full: HomologyGroup, exactness_verified: bool, tower: tuple = ()):
        self.__dict__.update(stabilization_index=stabilization_index, limit_group=limit_group,
                             lim1_vanishes=lim1_vanishes, hom_full=hom_full,
                             exactness_verified=exactness_verified, tower=tower)


def sigma_tower_report(k: ChainComplex, l: ChainComplex) -> TowerReport:
    """The hard-truncation tower of H_0 Hom(sigma_{<=n} K, L).

    Stage n differs from stage n - 1 only where K_n is nonzero, so one
    Hom window (degrees -1..1) is built per distinct stage.  The last
    stage is K itself and gives `hom_full`.  K's support is trimmed, so
    its top degree is the stabilization index and the stable stage is K
    (for a zero K both are the zero complex), which gives `limit_group`.
    `exactness_verified` therefore compares Hom(K, L) with itself and
    cannot fail yet; see `TowerReport`.
    """
    stab = k.max_deg if k.total_rank() else k.min_deg - 1
    tower = []
    window = None
    for n in k.degrees():
        if window is None or k.rank(n):
            window = _tensor_window(l, k.truncate_stupid(n).dual(), -1, 1)
        tower.append((n, window.homology(0)))
    full_hom = window
    hom_full = limit_group = full_hom.homology(0)
    exact = _degree_verdict(ChainMap.identity(full_hom), 0).isomorphism
    constant = all(g == limit_group for n, g in tower if n >= stab)
    return TowerReport(
        stabilization_index=stab,
        limit_group=limit_group,
        lim1_vanishes=constant,
        hom_full=hom_full,
        exactness_verified=exact,
        tower=tuple(tower),
    )
