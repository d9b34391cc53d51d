"""Dimension-truncated simplicial abelian groups, levelwise free.

Every object carries its truncation dimension D and stores each face
and degeneracy as a column table: the list of the images of the source
basis elements, so f o g is read off column by column.  The builders
(the free reduction, K, the bar construction and the tensor product)
write their tables directly, and `face`/`degen` build the integer matrix
of a table each time it is read: the tables are the only stored form.
All simplicial identities are verified at construction on the tables,
with no matrix product.  Where every degeneracy sends generators to
generators, s s and d_j s_j = d_{j+1} s_j = 1, the other faces of each
degenerate generator once, and d d on the nondegenerate generators
prove them all by induction on the level, so the work grows with N_n.
Each level lays the two sides of those comparisons end to end in two
lists, by C-level lookups, compares them once, and records the level's
nondegenerate generators, which normalization reads.
Nearly every column of a face or degeneracy is a unit vector e_r (all
of Z~X and of the bar and tensor constructions on it, and K(C) outside
its differential blocks), and composing with one is a lookup; only the
other columns take a sparse combination.  This is Kenzo's view of
simplicial operators as functions on generators (Dousson, Rubio,
Sergeraert and Siret, The Kenzo program, 1999).

The core functors: the normalization N (intersection of the kernels of
all faces except the zeroth, with differential the zeroth face), its
inverse K, the levelwise free reduction Z~X of a pointed simplicial set,
the bar construction, and the shuffle/Alexander-Whitney comparison maps.
K and Z~X read their operators off the (mask, cell) engine of
`simplicial`: the faces of s_m x from the face pattern of m, s_j from
`mask_insert`.

The splitting A_n = N_n (+) D_n into the normalized and the degenerate
part comes from the simplicial identities alone (Goerss and Jardine,
Simplicial Homotopy Theory, III.2): the projection P_n onto N_n along
D_n is a product of the factors 1 - s_j d_{j+1}.  When every degeneracy
into A_n sends generators to generators, as in every group the builders
make, D_n is spanned by the generators that some degeneracy hits, so P_n
of the other generators is a basis of N_n whose rows at those generators
are the identity.  Coordinates in that basis are then a restriction to
those rows, checked by one product, and no elimination runs; the basis
checks itself, and a level with a general degeneracy falls back to the
kernel of the stacked faces and exact solves, both `matrices._solve`.
The shuffle of normalized chains is normalized (Eilenberg and Mac Lane,
On the groups H(Pi, n), I, 1953), so the shuffle map is expressed in
the Moore basis of A ox B, not projected.  Each verifier computes an
object's Moore bases and normalized complex once.

Normalization runs on the tables too: the Moore bases, the projection's
factors, the normalized differentials, the K o N counit and the
Eilenberg-Zilber degeneracy and face composites are composed as tables.
An integer matrix is built only where a chain complex, a chain map, an
exact solve or a unimodularity check needs one.
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations, filterfalse
from operator import itemgetter

from .complexes import (ChainComplex, ChainMap, HomologyGroup, ValidationError, _Record,
                        _tensor_window)
from .matrices import IntMatrix, _solve, hstack, is_unimodular, solve_exact, vstack
from .simplicial import SimplicialSet, _face_pattern, mask_insert
from .spaces import _chain_basis, smash


def _columns(m: IntMatrix, what: str) -> tuple:
    """The column table of m and whether it has a general column.

    The table has one item per column: the row r when the column is the
    unit vector e_r, -1 when it is zero, and otherwise its (rows, values)
    pair, rows ascending; a trailing -1 makes index -1 map to zero.  This
    encoding is canonical.  Rows are visited in order, so one pass over
    the nonzeros builds it; an entry that is not an int (a float, a bool)
    is rejected there, naming m as `what`."""
    table = [-1] * (m.cols + 1)
    general = False
    for r, (js, xs) in enumerate(m.nonzeros):
        for j, x in zip(js, xs):
            if x.__class__ is not int:
                raise ValidationError("%s has the non-integer entry %r" % (what, x))
            c = table[j]
            if c == -1:
                if x == 1:
                    table[j] = r
                    continue
                table[j] = ((r,), (x,))
            elif c.__class__ is int:
                table[j] = ((c, r), (1, x))
            else:
                table[j] = (c[0] + (r,), c[1] + (x,))
            general = True
    return table, general


def _matrix(f: tuple, rows: int) -> IntMatrix:
    """The matrix with `rows` rows of the (table, general) pair f.
    Columns are visited in order, so each row fills ascending with no
    sort."""
    table = f[0]
    js = [[] for _ in range(rows)]
    xs = [[] for _ in range(rows)]
    for j, c in enumerate(table[:-1]):
        if c.__class__ is int:
            if c >= 0:
                js[c].append(j)
                xs[c].append(1)
        else:
            for r, x in zip(*c):
                js[r].append(j)
                xs[r].append(x)
    return IntMatrix(rows, len(table) - 1, tuple(zip(map(tuple, js), map(tuple, xs))))


def _shifted(table: list, off: int, general: bool) -> list:
    """The columns of a table, without its trailing -1, each row moved
    down by off."""
    if not general:
        return [c + off if c >= 0 else -1 for c in table[:-1]]
    return [(tuple(r + off for r in c[0]), c[1]) if c.__class__ is not int
            else c + off if c >= 0 else -1 for c in table[:-1]]


def _identity(rank: int) -> tuple:
    """The (table, general) pair of the identity of Z^rank."""
    return list(range(rank)) + [-1], False


def _column(acc: dict):
    """The table item of the column {row: value}."""
    rows = sorted(s for s, x in acc.items() if x)
    if not rows:
        return -1
    if len(rows) == 1 and acc[rows[0]] == 1:
        return rows[0]
    return tuple(rows), tuple(map(acc.__getitem__, rows))


def _add(acc: dict, c, x: int):
    """Add x times the table item c to the column acc, {row: value}."""
    if c.__class__ is int:
        if c >= 0:
            acc[c] = acc.get(c, 0) + x
    else:
        for r, y in zip(*c):
            acc[r] = acc.get(r, 0) + x * y


def _combine(f: list, col: tuple):
    """The image under the column table f of a general column, in the
    same encoding."""
    acc = {}
    for r, x in zip(*col):
        c = f[r]
        if c.__class__ is int:
            if c >= 0:
                acc[c] = acc.get(c, 0) + x
        else:
            for s, y in zip(*c):
                acc[s] = acc.get(s, 0) + x * y
    return _column(acc)


def _apply(f: tuple, v, rows: int) -> tuple:
    """The image of the vector v under the map with the (table, general)
    pair f, which has `rows` rows."""
    acc = {}
    for x, c in zip(v, f[0]):
        if x:
            _add(acc, c, x)
    return tuple(acc.get(r, 0) for r in range(rows))


def _image(t: list, items, general: bool):
    """The images under the column table t of the table items: a lazy
    lookup where no item is a general column (general False)."""
    if not general:
        return map(t.__getitem__, items)
    return [t[c] if c.__class__ is int else _combine(t, c) for c in items]


def _picker(items: list):
    """The function t -> (t[c] for c in items), as a tuple; items is
    not empty."""
    return itemgetter(*items) if len(items) > 1 else lambda t, c=items[0]: (t[c],)


def _compose(f: tuple, g: tuple) -> list:
    """The column table of f o g from the (table, general) pairs of f and g."""
    return list(_image(f[0], *g))


def _composite(ops: dict, keys, f: tuple) -> tuple:
    """The (table, general) pair of the maps ops[k] for k in keys, the
    first applied first, after the map with the pair f."""
    for k in keys:
        g = ops[k]
        f = _compose(g, f), g[1] or f[1]
    return f


def _same(lhs: list, rhs: list) -> bool:
    """Whether two column tables are the same map: the encoding is
    canonical, so the lists compare item by item."""
    return lhs == rhs


def _unit_levels_fit(levels: list, ranks: tuple, shift: int) -> bool:
    """Whether every (table, general) pair of levels, levels[n] out of
    A_n, is a unit table with one item per generator of A_n and a
    trailing item, each a row of A_{n + shift} or -1: one min and one
    max pass per level."""
    for n, level in enumerate(levels):
        tables = [t for t, general in level if not general]
        if level and (len(tables) < len(level) or set(map(len, tables)) != {ranks[n] + 1}
                      or min(map(min, tables)) < -1 or max(map(max, tables)) >= ranks[n + shift]):
            return False
    return True


def _broken_operator(cols: dict, source: "SimplicialAbGroup", target: "SimplicialAbGroup"):
    """The first structure map that the levelwise map psi: source ->
    target, given by the (table, general) pair cols[n] of each level,
    does not intertwine, as ("face", n, i) or ("degeneracy", n, j), or
    None when target.op o psi[n] = psi[m] o source.op for every face and
    degeneracy; each side is composed on column tables."""
    ops = [("face", n, i, n - 1, source._ft[(n, i)], target._ft[(n, i)])
           for n in range(1, source.D + 1) for i in range(n + 1)]
    ops += [("degeneracy", n, j, n + 1, source._st[(n, j)], target._st[(n, j)])
            for n in range(source.D) for j in range(n + 1)]
    for kind, n, i, m, s, t in ops:
        if not _same(_compose(t, cols[n]), _compose(cols[m], s)):
            return kind, n, i
    return None


class SimplicialAbGroup:
    """Levelwise free simplicial abelian group, truncated at dimension D.

    face(n, i) is the matrix of the i-th face A_n -> A_{n-1}, and
    degen(n, j) the j-th degeneracy A_n -> A_{n+1} (defined for n < D).
    Each is stored only as a (column table, has a general column) pair,
    and its matrix is built on each read.  Construction proves every d d,
    s s and d s identity up to D by composing the tables (`_validate`)
    and records in `_keep` the generators of each level that no
    degeneracy hits.
    """

    def __init__(self, trunc_dim: int, ranks, face: dict, degen: dict):
        if trunc_dim < 0:
            raise ValidationError("truncation dimension must be nonnegative")
        self.D = trunc_dim
        if isinstance(ranks, dict):
            ranks = [ranks.get(n, ranks.get(str(n), 0)) for n in range(trunc_dim + 1)]
        ranks = tuple(ranks)
        if len(ranks) != trunc_dim + 1:
            raise ValidationError("need one rank per level 0..D")
        for n, r in enumerate(ranks):
            if type(r) is not int:
                raise ValidationError("rank of level %d is %r, not an int" % (n, r))
        if any(r < 0 for r in ranks):
            raise ValidationError("negative level rank")
        self._ranks = ranks
        face, degen = ({(int(n), int(i)): m if isinstance(m, IntMatrix) else IntMatrix.from_rows(m)
                        for (n, i), m in maps.items()} for maps in (face, degen))
        tables = []
        for kind, maps, shift, levels in (("face", face, -1, range(1, trunc_dim + 1)),
                                          ("degeneracy", degen, 1, range(trunc_dim))):
            out = {}
            for (n, i), m in maps.items():
                if not (n in levels and 0 <= i <= n):
                    raise ValidationError("%s (%d, %d) out of range" % (kind, n, i))
                if m.shape != (self.rank(n + shift), self.rank(n)):
                    raise ValidationError("%s (%d, %d) has shape %r" % (kind, n, i, m.shape))
                out[(n, i)] = _columns(m, "%s (%d, %d)" % (kind, n, i))
            for n in levels:
                for i in range(n + 1):
                    out.setdefault((n, i), ([-1] * (self.rank(n) + 1), False))
            tables.append(out)
        self._ft, self._st = tables
        self._validate()

    @classmethod
    def _of_tables(cls, trunc_dim: int, ranks, face: dict, degen: dict) -> "SimplicialAbGroup":
        """The group with the given tables, one for every face and
        degeneracy up to trunc_dim, validated as the constructor validates."""
        if trunc_dim < 0:
            raise ValidationError("truncation dimension must be nonnegative")
        a = cls.__new__(cls)
        a.D, a._ranks = trunc_dim, tuple(ranks)
        a._ft, a._st = face, degen
        a._validate()
        return a

    def rank(self, n: int) -> int:
        if 0 <= n <= self.D:
            return self._ranks[n]
        return 0

    def ranks(self) -> tuple:
        return self._ranks

    def face(self, n: int, i: int) -> IntMatrix:
        if not (1 <= n <= self.D and 0 <= i <= n):
            raise ValueError("face (%d, %d) out of range" % (n, i))
        return _matrix(self._ft[(n, i)], self.rank(n - 1))

    def degen(self, n: int, j: int) -> IntMatrix:
        if not (0 <= n < self.D and 0 <= j <= n):
            raise ValueError("degeneracy (%d, %d) out of range" % (n, j))
        return _matrix(self._st[(n, j)], self.rank(n + 1))

    def face_vec(self, n: int, i: int, v) -> tuple:
        """d_i v for a vector v in A_n, read off the column table, so no
        matrix is built."""
        if not (1 <= n <= self.D and 0 <= i <= n):
            raise ValueError("face (%d, %d) out of range" % (n, i))
        if len(v) != self.rank(n):
            raise ValueError("vector length mismatch")
        return _apply(self._ft[(n, i)], v, self.rank(n - 1))

    def _levels(self) -> tuple:
        """The (table, general) pairs of the faces and the degeneracies
        by level: faces[m][i] = d_i out of A_m (faces[0] is empty) and
        degens[n][j] = s_j out of A_n."""
        ft, st = self._ft, self._st
        faces = [[]] + [[ft[(m, i)] for i in range(m + 1)] for m in range(1, self.D + 1)]
        return faces, [[st[(n, j)] for j in range(n + 1)] for n in range(self.D)]

    def _validate(self):
        """Check the shape of every table, prove every d d, s s and d s
        identity up to D, and record in `_keep` the generators of each
        level that no degeneracy hits.

        Where every degeneracy is a unit table, `_certified` compares
        these instances of the identities (May, Simplicial Objects in
        Algebraic Topology, Section 8):

        (SS)  s_i s_j = s_{j+1} s_i on every generator;
        (DS0) d_j s_j = d_{j+1} s_j = 1, so each s_j is injective on
              generators;
        (DS1) for each degenerate generator z = s_k b, k the largest index
              whose s_k hits z, d_i z = s_{k-1} d_i b (i < k) and
              d_i z = s_k d_{i-1} b (i > k + 1);
        (DD)  d_i d_j = d_{j-1} d_i on the nondegenerate generators.

        The rest follows by induction on the level.  If also z = s_j b'
        with j < k, then b' = d_j z = s_{k-1} d_j b (DS0, DS1), so
        z = s_k s_j d_j b (SS) and b = s_j d_j b (s_k injective), and each
        d_i s_j b' rewrites by d s one level down and SS to a checked face
        of z.  d_i d_j s_k y rewrites by d s to d d one level down.

        Any other group, or one whose certificate fails, runs the full
        loop `_identities`, which compares each identity once and names
        the first that fails."""
        faces, degens = self._levels()
        ranks = self._ranks
        for kind, levels, shift, maps in (("face", faces, -1, self._ft),
                                          ("degeneracy", degens, 1, self._st)):
            if _unit_levels_fit(levels, ranks, shift):
                continue
            for (n, i), (t, general) in maps.items():
                shape = (self.rank(n + shift), self.rank(n))
                rows = [r for c in t for r in ((c,) if c.__class__ is int
                                               else (c[0][0], c[0][-1]))] if general else t
                if len(t) != shape[1] + 1 or min(rows) < -1 or max(rows) >= shape[0]:
                    raise ValidationError("%s (%d, %d) does not fit its shape %r"
                                          % (kind, n, i, shape))
        if any(g for level in degens for _, g in level) or not self._certified(faces, degens):
            for lhs, rhs, name in self._identities():
                if not _same(lhs, rhs):
                    raise ValidationError("identity %s_%d %s_%d failed at level %d" % name)
            self._keep = [_nondegenerate(self, n) for n in range(self.D + 1)]

    def _certified(self, faces: list, degens: list, names: list | None = None) -> bool:
        """Whether the comparisons (SS), (DS0), (DS1) and (DD) of
        `_validate` hold on the tables `_levels` gives, all degeneracies
        unit tables.  Level m lays the left sides of those into A_m end
        to end in one list, the right sides in another, and compares the
        lists once; the generators of A_m that no degeneracy hits go to
        `_keep`.  A list `names` collects (end, name) of each comparison
        of a level, and is left holding the first failed name."""
        ranks, keep = self._ranks, []
        picks = [[_picker(s) for s, _ in level] for level in degens]
        for m in range(self.D + 1):
            n, lhs, rhs, seen = m - 1, [], [], {-1}
            if names is not None:
                names.clear()
            for j in range(n):
                for i in range(j + 1):
                    lhs += picks[m - 2][j](degens[n][i][0])
                    rhs += picks[m - 2][i](degens[n][j + 1][0])
                    if names is not None:
                        names.append((len(lhs), ("s", i, "s", j, m - 2)))
            up, ident = faces[m], (list(range(ranks[n])) + [-1]) * 2 if m else []
            for k in range(n, -1, -1):
                for i in (k, k + 1):
                    lhs += picks[n][k](up[i][0])
                    if names is not None:
                        names.append((len(lhs), ("d", i, "s", k, n)))
                rhs += ident
                zs = set(degens[n][k][0]) - seen
                if not zs:
                    continue
                seen |= zs
                pick = _picker(list(zs))
                # where d_k s_k = 1 holds, d_k z is the b with z = s_k b;
                # where it fails, so does this level's compare
                bs, gk = pick(up[k][0]), up[k][1]
                for i in chain(range(k), range(k + 2, m + 1)):
                    t, (f, g) = ((degens[n - 1][k - 1][0], faces[n][i]) if i < k
                                 else (degens[n - 1][k][0], faces[n][i - 1]))
                    lhs += pick(up[i][0])
                    rhs += (_image(t, _image(f, bs, gk), True) if g or gk
                            else map(t.__getitem__, map(f.__getitem__, bs)))
                    if names is not None:
                        names.append((len(lhs), ("d", i, "s", k, n)))
            keep.append(list(filterfalse(seen.__contains__, range(ranks[m]))))
            if m > 1 and keep[m]:
                sel = [(list(map(t.__getitem__, keep[m])), g) for t, g in up]
                for j in range(1, m + 1):
                    for i in range(j):
                        lhs += _image(faces[n][i][0], *sel[j])
                        rhs += _image(faces[n][j - 1][0], *sel[i])
                        if names is not None:
                            names.append((len(lhs), ("d", i, "d", j, m)))
            if not _same(lhs, rhs):
                if names is not None:
                    at = next(p for p, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
                    names[:] = [next(name for end, name in names if end > at)]
                return False
        self._keep = keep
        return True

    def _identities(self):
        """Every d d, s s and d s identity up to D, each once on all of
        its level, as (lhs, rhs, name) triples of column tables."""
        ft, st = self._ft, self._st
        for n in range(2, self.D + 1):
            for j in range(1, n + 1):
                for i in range(j):
                    yield (_compose(ft[(n - 1, i)], ft[(n, j)]),
                           _compose(ft[(n - 1, j - 1)], ft[(n, i)]), ("d", i, "d", j, n))
        for n in range(self.D - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    yield (_compose(st[(n + 1, i)], st[(n, j)]),
                           _compose(st[(n + 1, j + 1)], st[(n, i)]), ("s", i, "s", j, n))
        for n in range(self.D):
            ident = _identity(self.rank(n))[0]
            for j in range(n + 1):
                for i in range(n + 2):
                    # d_i s_j = s_{j-1} d_i (i < j), = 1 (i = j, j + 1), = s_j d_{i-1} (i > j + 1)
                    expected = (ident if j <= i <= j + 1
                                else _compose(st[(n - 1, j - 1)], ft[(n, i)]) if i < j
                                else _compose(st[(n - 1, j)], ft[(n, i - 1)]))
                    yield _compose(ft[(n + 1, i)], st[(n, j)]), expected, ("d", i, "s", j, n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialAbGroup):
            return NotImplemented
        return (self.D == other.D and self._ranks == other._ranks
                and self._ft == other._ft and self._st == other._st)

    def __repr__(self) -> str:
        return "SimplicialAbGroup(D=%d, ranks=%r)" % (self.D, list(self._ranks))


def constant_group(rank: int, trunc_dim: int) -> SimplicialAbGroup:
    ident = _identity(rank)
    face = {(n, i): ident for n in range(1, trunc_dim + 1) for i in range(n + 1)}
    degen = {(n, j): ident for n in range(trunc_dim) for j in range(n + 1)}
    return SimplicialAbGroup._of_tables(trunc_dim, [rank] * (trunc_dim + 1), face, degen)


def _kron_table(f: tuple, g: tuple, g_rows: int) -> tuple:
    """The (table, general) pair of the Kronecker product of the maps
    with the pairs f and g, g having g_rows rows: as in `IntMatrix.kron`,
    column j * g.cols + q is column j of f times column q of g."""
    (ft, fgen), (gt, ggen) = f, g
    gt = gt[:-1]
    out = []
    if not (fgen or ggen):
        for c in ft[:-1]:
            out.extend([-1] * len(gt) if c < 0 else [c * g_rows + d if d >= 0 else -1 for d in gt])
        out.append(-1)
        return out, False
    general = False
    zero = ((), ())
    for c in ft[:-1]:
        rc, xc = (((c,), (1,)) if c >= 0 else zero) if c.__class__ is int else c
        for d in gt:
            rd, xd = (((d,), (1,)) if d >= 0 else zero) if d.__class__ is int else d
            rows = tuple(r * g_rows + s for r in rc for s in rd)
            xs = tuple(x * y for x in xc for y in xd)
            if not rows:
                out.append(-1)
            elif xs == (1,):  # e_r kron e_s, or a product of two entries -1
                out.append(rows[0])
            else:
                out.append((rows, xs))
                general = True
    out.append(-1)
    return out, general


def tensor_sab(a: SimplicialAbGroup, b: SimplicialAbGroup) -> SimplicialAbGroup:
    """Levelwise tensor product with diagonal structure maps."""
    if a.D != b.D:
        raise ValueError("truncation dimensions differ")
    ranks = [a.rank(n) * b.rank(n) for n in range(a.D + 1)]
    face = {k: _kron_table(f, b._ft[k], b.rank(k[0] - 1)) for k, f in a._ft.items()}
    degen = {k: _kron_table(s, b._st[k], b.rank(k[0] + 1)) for k, s in a._st.items()}
    return SimplicialAbGroup._of_tables(a.D, ranks, face, degen)


# ---------------------------------------------------------------------------
# normalization


def _nondegenerate(a: SimplicialAbGroup, n: int) -> list | None:
    """The generators of A_n that no degeneracy s_j: A_{n-1} -> A_n hits,
    ascending, or None when one of those degeneracies has a general
    column.  In the first case the degenerate part D_n is spanned by the
    generators hit, so the generators listed span a complement of it.
    `_validate` records these lists in `_keep`."""
    hit = set()
    for j in range(n):
        table, general = a._st[(n - 1, j)]
        if general:
            return None
        hit.update(table)
    return [c for c in range(a.rank(n)) if c not in hit]


def _difference(x, y):
    """The table item of the column x minus the nonzero column y."""
    if x.__class__ is int and y.__class__ is int and x >= 0:
        return -1 if x == y else ((x, y), (1, -1)) if x < y else ((y, x), (-1, 1))
    acc = {}
    _add(acc, x, 1)
    _add(acc, y, -1)
    return _column(acc)


def _projection_factor(a: SimplicialAbGroup, n: int, j: int, f: tuple) -> tuple:
    """The (table, general) pair of (1 - s_j d_{j+1}) o f, for the map
    with the pair f into A_n: each column of f minus its image under
    s_j d_{j+1}."""
    d = a._ft[(n, j + 1)]
    image = _compose(a._st[(n - 1, j)], (_compose(d, f), d[1] or f[1]))
    return [x if y == -1 else _difference(x, y) for x, y in zip(f[0], image)], True


def _restricted(c, at: dict):
    """The table item of the column c with only its rows in at, each
    renumbered to at[row]."""
    if c.__class__ is int:
        return at.get(c, -1)
    return _column({at[r]: x for r, x in zip(*c) if r in at})


def _split_basis(a: SimplicialAbGroup, n: int, keep: list) -> tuple:
    """The (table, general) pair of the Moore basis P_n e_c, c in keep,
    of a level that `_nondegenerate` splits, with

        P_n = (1 - s_0 d_1)(1 - s_1 d_2) ... (1 - s_{n-1} d_n),

    whose rightmost factor acts first, applied to the kept columns only.
    P_n is the projection onto N_n along D_n (Goerss-Jardine, Simplicial
    Homotopy Theory, III.2), and P_n e_c - e_c lies in D_n, which the
    generators outside keep span; so the basis's rows at keep are the
    identity and its columns span N_n.  Both facts are checked: the rows
    at keep, and that d_1, ..., d_n vanish on it."""
    basis = keep + [-1], False
    for j in range(n - 1, -1, -1):
        basis = _projection_factor(a, n, j, basis)
    at = {c: t for t, c in enumerate(keep)}
    if any(_restricted(c, at) != t for t, c in enumerate(basis[0][:-1])):
        raise ValidationError("the Moore basis at level %d is not the identity on the "
                              "nondegenerate generators" % n)
    for i in range(1, n + 1):
        image = _compose(a._ft[(n, i)], basis)
        if image.count(-1) != len(image):
            raise ValidationError("d_%d does not vanish on the Moore basis at level %d" % (i, n))
    return basis


def _moore_bases(a: SimplicialAbGroup) -> dict:
    """Per level n, (keep, basis): the generators that no degeneracy
    hits, as `_validate` recorded them (`_nondegenerate`), and the
    (table, general) pair of a Moore basis.  A level that keep splits
    gets `_split_basis`, with no elimination; any other gets the kernel
    that `matrices._solve` finds from the rows of d_1, ..., d_n stacked."""
    out = {}
    for n, keep in enumerate(a._keep):
        if keep is None:
            faces = tuple(chain.from_iterable(_matrix(a._ft[(n, i)], a.rank(n - 1)).nonzeros
                                              for i in range(1, n + 1)))
            out[n] = None, _columns(_solve(faces, a.rank(n), 0)[0], "Moore basis %d" % n)
        else:
            out[n] = keep, _split_basis(a, n, keep)
    return out


def moore_basis(a: SimplicialAbGroup) -> dict:
    """Per level, a lattice basis (columns) of the intersection of the
    kernels of all faces except the zeroth.

    Wherever every degeneracy into the level sends generators to
    generators, as in Z~X, K(C) and the bar and tensor constructions of
    such groups, the basis is the projection P_n of each nondegenerate
    generator (`_split_basis`), composed on column tables; its rows at
    those generators are the identity.  Elsewhere it is the sparse kernel
    of the stacked faces d_1, ..., d_n.  Either way it is saturated, so
    every element of the normalized part, and in particular every image
    of `moore_projection`, has integer coordinates in it."""
    return {n: _matrix(basis, a.rank(n)) for n, (_, basis) in _moore_bases(a).items()}


def _coordinates(keep, basis: tuple, y: tuple, rows: int) -> IntMatrix | None:
    """The X with basis X = y, for the (table, general) pairs of a Moore
    basis and of a map into its level of `rows` generators, or None when
    there is none.  Where keep splits the level, the split basis's rows
    at keep are the identity, so X can only be y's rows at keep, and one
    product on the tables checks it.  Where that check fails (y leaves
    the normalized part, or the basis is another one) or keep is None,
    one exact solve decides."""
    if keep is not None:
        at = {c: t for t, c in enumerate(keep)}
        x = [_restricted(c, at) for c in y[0]]
        x = x, any(c.__class__ is not int for c in x)
        if _same(_compose(basis, x), y[0]):
            return _matrix(x, len(keep))
    return solve_exact(_matrix(basis, rows), _matrix(y, rows))


def _normalize(a: SimplicialAbGroup, bases: dict) -> ChainComplex:
    """The normalized complex of a in the Moore bases of `_moore_bases`:
    d_0 of each basis, in the coordinates of the basis one level down."""
    ranks = {n: len(basis[0]) - 1 for n, (_, basis) in bases.items()}
    d = {}
    for n in range(1, a.D + 1):
        if ranks[n] == 0 or ranks[n - 1] == 0:
            continue
        d0, basis = a._ft[(n, 0)], bases[n][1]
        expressed = _coordinates(*bases[n - 1], (_compose(d0, basis), d0[1] or basis[1]),
                                 a.rank(n - 1))
        if expressed is None:
            raise ValidationError("d_0 does not preserve the normalized part at level %d" % n)
        d[n] = expressed
    return ChainComplex(0, a.D, ranks, d)


def normalize_N(a: SimplicialAbGroup) -> ChainComplex:
    """The normalized complex: degree n is the joint kernel of the faces
    d_1, ..., d_n, with differential induced by d_0.  Valid in degrees
    up to the truncation D."""
    return _normalize(a, _moore_bases(a))


def _projection(a: SimplicialAbGroup, level: tuple, n: int) -> IntMatrix:
    """The coordinates of P_n in the Moore basis of level n, given as
    the (keep, basis) pair of `_moore_bases`."""
    p = _identity(a.rank(n))
    for j in range(n - 1, -1, -1):
        p = _projection_factor(a, n, j, p)
    coords = _coordinates(*level, p, a.rank(n))
    if coords is None:
        raise ValidationError("the Moore projection leaves the normalized part at level %d" % n)
    return coords


def moore_projection(a: SimplicialAbGroup, bases: dict, n: int) -> IntMatrix:
    """The projection A_n -> N_n along the degenerate part, in the Moore
    basis that `moore_basis` gives: bases[n] @ moore_projection(a, bases,
    n) is the idempotent

        P_n = (1 - s_0 d_1)(1 - s_1 d_2) ... (1 - s_{n-1} d_n),

    whose rightmost factor acts first.  P_n fixes N_n, kills every
    degenerate simplex and lands in N_n (Goerss-Jardine, Simplicial
    Homotopy Theory, III.2).  Its factors are composed on column tables.
    On a level split by its nondegenerate generators the coordinates are
    the selection of P_n's rows at those generators, checked by one
    product; elsewhere they are one exact solve."""
    return _projection(a, (a._keep[n], _columns(bases[n], "Moore basis %d" % n)), n)


# ---------------------------------------------------------------------------
# the inverse functor K


def _k_summands(c: ChainComplex, n: int) -> list:
    """The summands s_m C_k of K(C)_n with C_k nonzero, as (k, m) pairs:
    the n - k bits of m are the repeated positions of a surjection
    [n] ->> [k], and a zero C_k is never enumerated.  They come in the
    lexicographic order of the surjections, which is m read with bit 0
    as the most significant bit, descending."""
    out = []
    high, bit = [1 << (n - 1 - b) for b in range(n)], [1 << b for b in range(n)]
    for k in range(n + 1):
        if c.rank(k):
            for jumps in combinations(range(n), n - k):
                out.append((sum(map(high.__getitem__, jumps)), k, sum(map(bit.__getitem__, jumps))))
    out.sort(reverse=True)
    return [(k, m) for _, k, m in out]


def _k_degen(rank: list, summands: list, offsets: dict, j: int) -> tuple:
    """The (table, general) pair of s_j on the given summands of K(C):
    an identity run from s_m x to s_{mask_insert(m, j)} x at offsets."""
    table = []
    for k, m in summands:
        off = offsets[mask_insert(m, j)]
        table += range(off, off + rank[k])
    table.append(-1)
    return table, False


def dold_kan_K(c: ChainComplex, trunc_dim: int) -> SimplicialAbGroup:
    """The simplicial abelian group whose normalized complex is the
    nonnegative part of c, truncated at trunc_dim: level n is the sum of
    the summands s_m C_k of `_k_summands` (Kenzo's K; Goerss and Jardine
    III.2).  d_i of s_m x is `_face_pattern(m, n + 1)[i]`: an identity
    run where it cancels against s_m, the differential where it reaches
    x as d_0, zero where it reaches x as another face.  One pass over a
    level's summands fills all of its face tables."""
    return _k_levels(c, trunc_dim)[0]


def _k_levels(c: ChainComplex, trunc_dim: int) -> tuple:
    """`dold_kan_K(c, trunc_dim)` and the `_k_summands` of its levels."""
    c = c.truncate_good(0)
    rank = [c.rank(k) for k in range(trunc_dim + 1)]
    summands = [_k_summands(c, n) for n in range(trunc_dim + 1)]
    offsets = [dict(zip((m for _, m in level), accumulate((rank[k] for k, _ in level), initial=0)))
               for level in summands]
    ranks = [sum(rank[k] for k, _ in level) for level in summands]
    diffs = {k: _columns(c.d(k), "differential %d" % k) for k in range(1, trunc_dim + 1)}
    face = {}
    degen = {}
    for n in range(1, trunc_dim + 1):
        tables = [[] for _ in range(n + 1)]
        general = [False] * (n + 1)
        below = offsets[n - 1]
        for k, m in summands[n]:
            for i, (prefix, base) in enumerate(_face_pattern(m, n + 1)):
                if base is None:
                    off = below[prefix]
                    tables[i] += range(off, off + rank[k])
                elif base == 0 and prefix in below:
                    tables[i] += _shifted(diffs[k][0], below[prefix], diffs[k][1])
                    general[i] |= diffs[k][1]
                else:
                    tables[i] += [-1] * rank[k]
        for i, table in enumerate(tables):
            face[(n, i)] = table + [-1], general[i]
    for n in range(trunc_dim):
        for j in range(n + 1):
            degen[(n, j)] = _k_degen(rank, summands[n], offsets[n + 1], j)
    return SimplicialAbGroup._of_tables(trunc_dim, ranks, face, degen), summands


def unnormalized_complex(a: SimplicialAbGroup) -> ChainComplex:
    """Level n with differential the alternating sum of all faces; its
    homology agrees with the normalized complex in degrees < D."""
    ranks = {n: a.rank(n) for n in range(a.D + 1)}
    d = {}
    for n in range(1, a.D + 1):
        faces = [(a._ft[(n, i)][0], -1 if i % 2 else 1) for i in range(n + 1)]
        table = []
        for j in range(a.rank(n)):
            acc = {}
            for t, sign in faces:
                _add(acc, t[j], sign)
            table.append(_column(acc))
        d[n] = _matrix((table + [-1], True), a.rank(n - 1))
    return ChainComplex(0, a.D, ranks, d)


def homotopy_groups(a: SimplicialAbGroup, i: int) -> HomologyGroup:
    """The i-th homotopy group: homology of the normalized complex.

    Only degrees i <= D - 1 are trustworthy for a truncated object.
    """
    if not (0 <= i <= a.D - 1):
        raise ValueError("homotopy degree %d outside the trusted range [0, %d]" % (i, a.D - 1))
    return normalize_N(a).homology(i)


# ---------------------------------------------------------------------------
# the free reduced functor


def free_reduced_Z(x: SimplicialSet, trunc_dim: int) -> SimplicialAbGroup:
    """Levelwise free abelian group on the simplices of a pointed space,
    with the basepoint simplex divided out, truncated at trunc_dim.  The
    faces of each basis simplex come from one `SimplicialSet._face_row`
    call, its degeneracies from `mask_insert`."""
    if not x.pointed:
        raise ValueError("the free reduced functor needs a pointed space")
    basis = [_chain_basis(x, n, False) for n in range(trunc_dim + 1)]
    # a code determines its degree, so one index serves every level
    index = {code: i for codes in basis for i, code in enumerate(codes)}
    ranks = [len(codes) for codes in basis]
    face = {}
    degen = {}
    for n in range(1, trunc_dim + 1):
        rows = [[index.get(f, -1) for f in x._face_row(mask, cell, n)] for mask, cell in basis[n]]
        for i, table in enumerate(list(zip(*rows)) or [()] * (n + 1)):
            face[(n, i)] = [*table, -1], False
    for n in range(trunc_dim):
        for j in range(n + 1):
            table = [index.get((mask_insert(m, j), c), -1) for m, c in basis[n]]
            degen[(n, j)] = table + [-1], False
    return SimplicialAbGroup._of_tables(trunc_dim, ranks, face, degen)


def smash_comparison_iso(e: SimplicialSet, f: SimplicialSet, trunc_dim: int) -> dict:
    """The canonical levelwise map Z~(E) ox Z~(F) -> Z~(E ^ F), sending a
    pair of non-basepoint simplices to the class of their product pair.

    Returns the per-level matrices after verifying each is a permutation
    matrix that intertwines all faces and degeneracies; raises otherwise.
    """
    lhs = tensor_sab(free_reduced_Z(e, trunc_dim), free_reduced_Z(f, trunc_dim))
    sm = smash(e, f)
    rhs = free_reduced_Z(sm.space, trunc_dim)
    mats, tables = {}, {}
    for n in range(trunc_dim + 1):
        tindex = {code: i for i, code in enumerate(_chain_basis(sm.space, n, False))}
        fbasis = _chain_basis(f, n, False)
        rows = [tindex.get(sm.image_code(ma, a, mb, b))
                for ma, a in _chain_basis(e, n, False) for mb, b in fbasis]
        # one entry per column, so a bijection hits every row once
        if len(rows) != len(tindex) or None in rows or len(set(rows)) != len(rows):
            raise ValidationError("comparison is not a bijection at level %d" % n)
        tables[n] = rows + [-1], False
        mats[n] = _matrix(tables[n], len(rows))
    broken = _broken_operator(tables, lhs, rhs)
    if broken:
        raise ValidationError("comparison breaks %s (%d, %d)" % broken)
    return mats


# ---------------------------------------------------------------------------
# the bar construction


def _bar_table(f: tuple, targets: list, rows: int) -> tuple:
    """The (table, general) pair of the map A^len(targets) -> A'^m that
    applies the map with the pair f to source block s and puts the result
    in target block targets[s], or drops it where that is None; A' has
    the given number of rows.  Each block's columns are f's, moved down."""
    table, general = f
    out = []
    for t in targets:
        out.extend([-1] * (len(table) - 1) if t is None else _shifted(table, t * rows, general))
    out.append(-1)
    return out, general and any(t is not None for t in targets)


def bar_B(a: SimplicialAbGroup) -> SimplicialAbGroup:
    """Diagonal of the bar bisimplicial group with (p, q)-level A_q^p;
    the normalized complex shifts up by one degree.

    A face d_i at level n applies d_i to each of the n entries and then
    drops the first entry (i = 0), the last (i = n), or adds entries
    i - 1 and i; a degeneracy s_j applies s_j to each entry and inserts a
    zero entry at slot j."""
    d = a.D
    ranks = [n * a.rank(n) for n in range(d + 1)]
    face = {}
    degen = {}
    for n in range(1, d + 1):
        for i in range(n + 1):
            moved = (s if s < i else s - 1 for s in range(n))
            targets = [t if 0 <= t < n - 1 else None for t in moved]
            face[(n, i)] = _bar_table(a._ft[(n, i)], targets, a.rank(n - 1))
    for n in range(d):
        for j in range(n + 1):
            targets = [s if s < j else s + 1 for s in range(n)]
            degen[(n, j)] = _bar_table(a._st[(n, j)], targets, a.rank(n + 1))
    return SimplicialAbGroup._of_tables(d, ranks, face, degen)


# ---------------------------------------------------------------------------
# Eilenberg-Zilber comparison maps


class EZPair(_Record):
    """The shuffle and Alexander-Whitney chain maps between
    N(A) ox N(B) (hard-truncated at D) and N(A ox B); their composite
    aw o shuffle is the identity on the nose."""

    _fields = ("shuffle", "aw")

    def __init__(self, shuffle: ChainMap, aw: ChainMap):
        self.__dict__.update(shuffle=shuffle, aw=aw)

    def strict_identity_ok(self) -> bool:
        comp = self.aw.compose(self.shuffle)
        return comp == ChainMap.identity(self.shuffle.source)


def _degeneracy_composite(a: SimplicialAbGroup, start: int, indices, f: tuple) -> tuple:
    """The (table, general) pair of s_{j_k} ... s_{j_1} o f, where f maps
    into A_start and indices = (j_1, ..., j_k) are applied in order."""
    return _composite(a._st, ((start + t, j) for t, j in enumerate(indices)), f)


def _face_composite(a: SimplicialAbGroup, n: int, p: int, front: bool) -> IntMatrix:
    """The front face A_n -> A_p (d_lvl at each level) or, with front
    False, the back face (d_0 at each level)."""
    keys = ((lvl, lvl if front else 0) for lvl in range(n, p, -1))
    return _matrix(_composite(a._ft, keys, _identity(a.rank(n))), a.rank(p))


def ez_maps(a: SimplicialAbGroup, b: SimplicialAbGroup) -> EZPair:
    """The shuffle map with its signs, and the front-face/back-face
    Alexander-Whitney map, as honest chain maps in degrees <= D."""
    if a.D != b.D:
        raise ValueError("truncation dimensions differ")
    d = a.D
    na_bases = _moore_bases(a)
    nb_bases = _moore_bases(b)
    na = _normalize(a, na_bases)
    nb = _normalize(b, nb_bases)
    ab = tensor_sab(a, b)
    nab_bases = _moore_bases(ab)
    nab = _normalize(ab, nab_bases)
    t = _tensor_window(na, nb, 0, d)

    shuffle_comps = {}
    for n in range(d + 1):
        cols = []
        for p in range(n + 1):
            q = n - p
            if na.rank(p) == 0 or nb.rank(q) == 0:
                continue
            ka, kb = na_bases[p][1], nb_bases[q][1]
            block = IntMatrix.zero(ab.rank(n), na.rank(p) * nb.rank(q))
            for mu in combinations(range(n), p):
                nu = tuple(s for s in range(n) if s not in mu)
                sign = (-1) ** sum(1 for m in mu for x in nu if m > x)
                ma = _matrix(_degeneracy_composite(a, p, nu, ka), a.rank(n))
                mb = _matrix(_degeneracy_composite(b, q, mu, kb), b.rank(n))
                term = ma.kron(mb)
                block = block + (term if sign > 0 else term.scale(-1))
            cols.append(block)
        if cols:
            comp = _coordinates(*nab_bases[n], _columns(hstack(cols), "shuffle %d" % n), ab.rank(n))
            if comp is None:
                raise ValidationError("the shuffle leaves the normalized part at level %d" % n)
            shuffle_comps[n] = comp
    shuffle = ChainMap(t, nab, shuffle_comps)

    aw_comps = {}
    pa = {p: _projection(a, na_bases[p], p) for p in range(d + 1) if na.rank(p)}
    pb = {q: _projection(b, nb_bases[q], q) for q in range(d + 1) if nb.rank(q)}
    for n in range(d + 1):
        if t.rank(n) == 0 or nab.rank(n) == 0:
            continue
        rows = []
        basis = _matrix(nab_bases[n][1], ab.rank(n))
        for p in range(n + 1):
            q = n - p
            if na.rank(p) == 0 or nb.rank(q) == 0:
                continue
            block = (pa[p] @ _face_composite(a, n, p, front=True)).kron(
                pb[q] @ _face_composite(b, n, q, front=False))
            rows.append(block @ basis)
        aw_comps[n] = vstack(rows)
    aw = ChainMap(nab, t, aw_comps)
    return EZPair(shuffle, aw)


# ---------------------------------------------------------------------------
# horn filling


def horn_filler(a: SimplicialAbGroup, n: int, k: int, faces) -> tuple:
    """Fill a compatible (n, k)-horn by degeneracy corrections.

    `faces` lists n+1 vectors in A_{n-1} with entry k ignored; the result
    x satisfies d_i x = faces[i] for every i != k.  Incompatible input is
    rejected with the first violated matching identity named, and an
    entry that is not an int (a float, a bool) with its face named.
    """
    if not (1 <= n <= a.D):
        raise ValueError("horn dimension %d outside [1, %d]" % (n, a.D))
    if not (0 <= k <= n):
        raise ValueError("horn index %d out of range" % k)
    faces = list(faces)
    if len(faces) != n + 1:
        raise ValueError("expected %d faces (entry %d ignored)" % (n + 1, k))
    vecs = {}
    for i in range(n + 1):
        if i == k:
            continue
        v = tuple(faces[i])
        for j, t in enumerate(v):
            if t.__class__ is not int:
                raise ValueError("face %d: entry %d is %r, not an int" % (i, j, t))
        if len(v) != a.rank(n - 1):
            raise ValueError("face %d has length %d, expected %d" % (i, len(v), a.rank(n - 1)))
        vecs[i] = v
    for j in sorted(vecs):
        for i in sorted(vecs):
            if i >= j:
                continue
            lhs = a.face_vec(n - 1, i, vecs[j])
            rhs = a.face_vec(n - 1, j - 1, vecs[i])
            if lhs != rhs:
                raise ValueError(
                    "incompatible horn: d_%d x_%d != d_%d x_%d" % (i, j, j - 1, i)
                )
    u = (0,) * a.rank(n)

    def correct(u, t, slot):
        residue = tuple(x - y for x, y in zip(vecs[t], a.face_vec(n, t, u)))
        bump = _apply(a._st[(n - 1, slot)], residue, a.rank(n))
        return tuple(x + y for x, y in zip(u, bump))

    for t in range(k):
        u = correct(u, t, t)
    for t in range(n, k, -1):
        u = correct(u, t, t - 1)
    for i in range(n + 1):
        if i != k and a.face_vec(n, i, u) != vecs[i]:
            raise AssertionError("filler fails its face equation at %d" % i)
    return u


# ---------------------------------------------------------------------------
# roundtrip comparisons


def nk_roundtrip_iso(c: ChainComplex, trunc_dim: int):
    """The canonical inclusion of the nonnegative truncation of c into
    N(K(c)) (identity-surjection summands), verified to be a chain
    isomorphism degree by degree; returns the per-degree base-change
    matrices."""
    c0 = c.truncate_good(0)
    kc = dold_kan_K(c0, trunc_dim)
    bases = _moore_bases(kc)
    out = {}
    for n in range(min(trunc_dim, c0.max_deg) + 1):
        offset = kc.rank(n) - c0.rank(n)  # C_n itself (m = 0) is the last summand
        inc = list(range(offset, kc.rank(n))) + [-1], False
        expressed = _coordinates(*bases[n], inc, kc.rank(n))
        if expressed is None or not is_unimodular(expressed):
            raise ValidationError("identity summand is not the normalized part at level %d" % n)
        out[n] = expressed
    # chain-map condition against the normalized differential
    nk = _normalize(kc, bases)
    for n in range(1, min(trunc_dim, c0.max_deg) + 1):
        lhs = nk.d(n) @ out[n]
        rhs = out[n - 1] @ c0.d(n)
        if lhs != rhs:
            raise ValidationError("roundtrip differentials disagree in degree %d" % n)
    return out


def _counit(a: SimplicialAbGroup, summands: list, bases: dict) -> dict:
    """Per level n, the (table, general) pair of the counit K(N(A))_n ->
    A_n: on the summand s_m N_k it is s_m applied to the Moore basis of
    level k, its degeneracies taken in the ascending order of m's bits
    and composed on column tables; the summands sit side by side in the
    order of summands[n], from `_k_levels`.  bases are from `_moore_bases`."""
    psi = {}
    for n in range(a.D + 1):
        table, general = [], False
        for k, m in summands[n]:
            jumps = [b for b in range(n) if m >> b & 1]
            t, g = _degeneracy_composite(a, k, jumps, bases[k][1])
            table += t[:-1]
            general |= g
        psi[n] = table + [-1], general
    return psi


def kn_roundtrip_ok(a: SimplicialAbGroup) -> bool:
    """K(N(A)) is isomorphic to A levelwise, via the explicit counit
    (`_counit`).  Each level of the counit must be unimodular, checked on
    its matrix, and intertwine all structure maps, checked on its column
    tables."""
    bases = _moore_bases(a)
    na = _normalize(a, bases)
    kna, summands = _k_levels(na, a.D)
    if kna.ranks() != a.ranks():
        return False
    psi = _counit(a, summands, bases)
    for n in range(a.D + 1):
        if not is_unimodular(_matrix(psi[n], a.rank(n))):
            return False
    return _broken_operator(psi, kna, a) is None
