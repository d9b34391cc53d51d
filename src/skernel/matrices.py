"""Integer matrices with exact arithmetic, stored by their nonzero entries.

Everything in this package reduces to integer linear algebra over the
Smith normal form computed here.  Matrices are immutable and carry plain
Python integers, so entry growth during elimination is harmless.  A
matrix stores, per row, the columns and values of its nonzero entries,
columns ascending: the structure maps this package validates are 0/+-1
and a few percent nonzero, so products, sums and Kronecker products touch
only those, and an n x n identity or zero map takes O(n) space.  The form
is canonical, so equality and hashing compare storage.  Sums, stacks,
kernels and solves emit (row, column, value) entries through
`IntMatrix.from_entries`, the general builder; dense rows go through
`from_rows`, which type-checks every entry once, in one C-level pass,
and never copies or keeps the caller's rows.  `from_entries`
canonicalizes by one sort: sorted as tuples, the entries are in
row-major order, so one linear pass adds up repeated positions, drops
zero sums and cuts the rows.  `transpose` needs no sort, since visiting
the rows in order fills each column ascending.  For the same reason
`spaces.chains` writes its rows directly, and `simpab` builds the matrix
of a face or degeneracy from its column table each time it is read:
both visit the columns in order.

Kernels, invariants and exact solves eliminate sparsely too.
`invariant_factors` (homology, cokernels, unimodularity), `kernel_basis`
(cycles) and `solve_exact` (normalized differentials, Moore projections,
good truncations) share one unit-pivot elimination, `_eliminate`, on
stored rows: a coreduction pivots on each row left with one entry, +-1,
from counts alone, and a column heap eliminates the rows still left as
dicts.  A complex's homology runs it on each differential without the
columns that the one above paired, and reads back its pivot rows.  The
residue left without a +-1 entry has its invariant factors computed by
`_residue_factors`, block by block and modulo a nonzero minor of each
block, so that no entry grows past half that minor however the residue
is mixed.  Kernels and solves are one function, `_solve`, on the rows of
[A | B], which `kernel_basis`, `solve_exact` and the Moore bases of
`simpab` call: one elimination, one dense Smith step on the residue,
whose entries are not yet bounded, and one back-substitution.  The
dense Smith loop, `_smith`, exists once: it diagonalizes the top-left
block of a dense working matrix in place, each row step across the
whole row and each column step down the whole column, so what sits
beside and below the block carries U, V or a solve's right-hand side.
The public `smith_normal_form` is left to the suite's check of the
Smith decomposition and to the random complexes in `generators`, which
take their kernels from the dense Smith V directly: a fixed recipe, so
changing the elimination never re-seeds an instance the suite checks.

A complex checks d(n) @ d(n+1) = 0 through `_product_vanishes`, which
tests every row of the product without storing it.  Where a row's
coefficients and the rows of d(n+1) they select are all +-1, as in every
chain complex of a simplicial set, each selected entry adds +1 or -1 to
its column, so the row vanishes exactly when the columns hit with +1 and
those hit with -1, listed with multiplicity, are equal once sorted: a
C-level extend and sort instead of a dict update per entry.  Each
differential is split into its +1 and -1 columns once, for both pairs
it is a factor of.  Any other row is summed exactly.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import accumulate, chain, compress, filterfalse, islice, repeat
from math import gcd
from operator import gt, itemgetter, lt, mod, mul
from typing import Iterable, Sequence

# the stored form of a row without nonzero entries
_EMPTY = ((), ())
# an endless supply of zeros to compare entries with
_ZEROS = repeat(0)
# the one type an entry may have, and the value of an (i, j, value) entry
_INT = frozenset((int,))
_VALUE = itemgetter(2)
# the values of a coordinate that no vector holds
_NONE = {}
# sets a slot of a new IntMatrix, whose own __setattr__ refuses
_set = object.__setattr__


def _sparse_row(acc: dict) -> tuple:
    """The stored form of a row given as {column: value}."""
    js = sorted(j for j, x in acc.items() if x)
    return (tuple(js), tuple(map(acc.__getitem__, js))) if js else _EMPTY


def _merged_row(i: int, js: list, xs: list, rows: int, cols: int) -> tuple:
    """`_stored_row` of row i of a rows x cols matrix, after checking
    that its columns lie inside the matrix."""
    if js[0] < 0 or js[-1] >= cols:
        raise ValueError("entry in row %d outside a %dx%d matrix" % (i, rows, cols))
    return _stored_row(js, xs)


def _stored_row(js: list, xs: list) -> tuple:
    """The stored form of a row from its ascending distinct columns js
    and their values xs, dropping the values that are zero."""
    if 0 in xs:
        keep = list(compress(range(len(xs)), xs))
        js = map(js.__getitem__, keep)
        xs = filter(None, xs)
    return (tuple(js), tuple(xs))


def _dense_to_sparse(dense: list) -> tuple:
    js = tuple(compress(range(len(dense)), dense))
    return (js, tuple(filter(None, dense))) if js else _EMPTY


class IntMatrix:
    """An immutable rows x cols integer matrix.

    `nonzeros` holds one (columns, values) pair per row: the columns of
    the row's nonzero entries in ascending order and their values.  That
    form is canonical, so build matrices with `from_entries`, `from_rows`,
    `identity` or `zero` unless the storage is already in it.
    """

    __slots__ = ("rows", "cols", "nonzeros")

    def __init__(self, rows: int, cols: int, nonzeros: tuple):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(nonzeros) != rows:
            raise ValueError("expected %d rows, got %d" % (rows, len(nonzeros)))
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "nonzeros", nonzeros)

    def __repr__(self) -> str:
        return "IntMatrix(rows=%r, cols=%r, nonzeros=%r)" % (self.rows, self.cols, self.nonzeros)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.cols, self.nonzeros) == (other.rows, other.cols, other.nonzeros)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.nonzeros))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return IntMatrix, (self.rows, self.cols, self.nonzeros)

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable) -> "IntMatrix":
        """The rows x cols matrix with the given (i, j, value) entries;
        values at a repeated position add up, and zero sums are dropped.
        A value that is not an int is rejected, not converted.

        One sort puts the entries in row-major order; a linear pass then
        merges repeated positions and cuts the rows."""
        out = [_EMPTY] * rows
        ents = sorted(entries)
        if not ents:
            return cls(rows, cols, tuple(out))
        if not _INT.issuperset(map(type, map(_VALUE, ents))):
            i, j, x = next(e for e in ents if type(e[2]) is not int)
            raise ValueError("entry (%d, %d) is %r, not an int" % (i, j, x))
        for i in (ents[0][0], ents[-1][0]):
            if not 0 <= i < rows:
                raise ValueError("entry in row %d outside a %dx%d matrix" % (i, rows, cols))
        row = None
        for i, j, x in ents:
            if i != row:
                if row is not None:
                    out[row] = _merged_row(row, js, xs, rows, cols)
                row, js, xs = i, [j], [x]
            elif j == js[-1]:
                xs[-1] += x
            else:
                js.append(j)
                xs.append(x)
        out[row] = _merged_row(row, js, xs, rows, cols)
        return cls(rows, cols, tuple(out))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """The matrix of the dense rows, checked in one pass (a non-int entry
        is rejected, not converted); cols is the width when there are none."""
        if not _INT.issuperset(map(type, chain.from_iterable(rows))):
            i, j, x = next((i, j, x) for i, r in enumerate(rows)
                           for j, x in enumerate(r) if type(x) is not int)
            raise ValueError("entry (%d, %d) is %r, not an int" % (i, j, x))
        widths = set(map(len, rows))
        if len(widths) > 1:
            raise ValueError("ragged rows")
        ncols = widths.pop() if widths else cols or 0
        return cls(len(rows), ncols, tuple(map(_dense_to_sparse, rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(((i,), (1,)) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (_EMPTY,) * rows)

    def entries(self):
        """The nonzero entries as (i, j, value), in row-major order."""
        for i, (js, xs) in enumerate(self.nonzeros):
            for j, x in zip(js, xs):
                yield i, j, x

    def at(self, i: int, j: int) -> int:
        js, xs = self.nonzeros[i]
        k = bisect_left(js, j)
        return xs[k] if k < len(js) and js[k] == j else 0

    def row(self, i: int) -> tuple:
        out = [0] * self.cols
        for j, x in zip(*self.nonzeros[i]):
            out[j] = x
        return tuple(out)

    def col(self, j: int) -> tuple:
        return tuple(self.at(i, j) for i in range(self.rows))

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def data(self) -> tuple:
        """All entries in row-major order, zeros included; computed on
        each access, not stored."""
        return tuple(chain.from_iterable(map(self.row, range(self.rows))))

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(js for js, _ in self.nonzeros)

    def transpose(self) -> "IntMatrix":
        # rows are visited in order, so each column bucket fills ascending
        rows = [[] for _ in range(self.cols)]
        vals = [[] for _ in range(self.cols)]
        for i, (js, xs) in enumerate(self.nonzeros):
            for j, x in zip(js, xs):
                rows[j].append(i)
                vals[j].append(x)
        return IntMatrix(self.cols, self.rows,
                         tuple((tuple(r), tuple(v)) if r else _EMPTY for r, v in zip(rows, vals)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition: %r vs %r" % (self.shape, other.shape))
        return IntMatrix.from_entries(self.rows, self.cols, chain(self.entries(), other.entries()))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        if c == 0:
            return IntMatrix.zero(self.rows, self.cols)
        return IntMatrix(self.rows, self.cols,
                         tuple((js, tuple(c * x for x in xs)) for js, xs in self.nonzeros))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch in product: %r @ %r" % (self.shape, other.shape)
            )
        brows = other.nonzeros
        out = []
        for ts, cs in self.nonzeros:
            if not ts:
                out.append(_EMPTY)
                continue
            if len(ts) == 1:
                # a monomial row selects and scales one row of other
                js, ys = brows[ts[0]]
                c = cs[0]
                out.append((js, ys) if c == 1 else (js, tuple(c * y for y in ys)))
                continue
            acc = {}
            for t, c in zip(ts, cs):
                js, ys = brows[t]
                for j, y in zip(js, ys):
                    acc[j] = acc.get(j, 0) + c * y
            out.append(_sparse_row(acc))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def mul_vec(self, v: Sequence[int]) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(x * v[j] for j, x in zip(js, xs)) for js, xs in self.nonzeros)

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product; compatible with row-major vectorisation, so
        (A kron B) vec(X) = vec(A X B^T)."""
        m = other.cols
        return IntMatrix(
            self.rows * other.rows,
            self.cols * m,
            tuple(
                (tuple(j * m + q for j in js for q in qs), tuple(x * y for x in xs for y in ys))
                for js, xs in self.nonzeros
                for qs, ys in other.nonzeros
            ),
        )

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return "[%dx%d]" % (self.rows, self.cols)
        return "\n".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))


def hstack(blocks: Iterable[IntMatrix]) -> IntMatrix:
    blocks = list(blocks)
    if not blocks:
        raise ValueError("hstack of nothing")
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise ValueError("row count mismatch in hstack")
    offs = list(accumulate((b.cols for b in blocks), initial=0))
    return IntMatrix.from_entries(
        rows, offs[-1], ((i, c0 + j, x) for b, c0 in zip(blocks, offs) for i, j, x in b.entries())
    )


def vstack(blocks: Iterable[IntMatrix]) -> IntMatrix:
    blocks = list(blocks)
    if not blocks:
        raise ValueError("vstack of nothing")
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise ValueError("column count mismatch in vstack")
    return IntMatrix(sum(b.rows for b in blocks), cols,
                     tuple(chain.from_iterable(b.nonzeros for b in blocks)))


def _signed_rows(m: IntMatrix) -> list:
    """Per row of m, (columns at +1, columns at -1) when every entry of
    the row is +-1, else None."""
    out = []
    for js, ys in m.nonzeros:
        ones = ys.count(1)
        if ones == len(ys):
            out.append((js, ()))
        elif ones + ys.count(-1) == len(ys):
            out.append((tuple(compress(js, map(gt, ys, _ZEROS))),
                        tuple(compress(js, map(lt, ys, _ZEROS)))))
        else:
            out.append(None)
    return out


def _product_vanishes(a: IntMatrix, b: IntMatrix, left=None, right=None) -> bool:
    """Whether a @ b is the zero matrix, tested row by row without
    storing the product; exact, and every row is tested.

    A row of a with one entry c selects c times one row of b, which
    vanishes only when that row is empty.  When a row's coefficients and
    the rows of b they select are all +-1, each selected entry adds +1
    or -1 to its column, so the row of the product is zero exactly when
    the columns hit with +1 and those hit with -1, each listed with
    multiplicity, are equal once sorted: both factors are split by
    `_signed_rows` for that, unless their splits are given as left and
    right.  Any other row is summed as `__matmul__` sums it.
    """
    if a.cols != b.rows:
        raise ValueError("shape mismatch in product: %r @ %r" % (a.shape, b.shape))
    brows = b.nonzeros
    left = _signed_rows(a) if left is None else left
    right = _signed_rows(b) if right is None else right
    for (ts, cs), split in zip(a.nonzeros, left):
        if len(ts) < 2:
            if ts and brows[ts[0]][0]:
                return False
            continue
        if split is not None:
            plus, minus = [], []
            for t in split[0]:
                s = right[t]
                if s is None:  # that row of b is not all +-1: sum this row
                    break
                plus += s[0]
                minus += s[1]
            else:
                for t in split[1]:
                    s = right[t]
                    if s is None:
                        break
                    plus += s[1]
                    minus += s[0]
                else:
                    plus.sort()
                    minus.sort()
                    if plus != minus:
                        return False
                    continue
        acc = {}
        for t, c in zip(ts, cs):
            js, ys = brows[t]
            for j, y in zip(js, ys):
                acc[j] = acc.get(j, 0) + c * y
        if any(acc.values()):
            return False
    return True


def _smith(a: list, nr: int, nc: int) -> int:
    """Diagonalize the top-left nr x nc block of the dense rows a in
    place by min-abs pivots and return its rank r, d_1 | ... | d_r
    leading the diagonal.  Row steps run across whole rows and column
    steps down whole columns, so [A | B] over I ends as [D | U B] over
    V, U A V = D; rows below the block need only its width."""
    t = 0
    while t < min(nr, nc):
        # locate minimal nonzero entry of the trailing block
        best = None
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best):
                    best, pi, pj = abs(x), i, j
            if best == 1:
                break
        if best is None:
            break
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            # shrink the column, then the row, until the pivot divides both
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        rd, rs = a[i], a[t]
                        for k in range(len(rd)):
                            rd[k] -= q * rs[k]
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j] != 0:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block for the chain d1|d2|...
            p = a[t][t]
            for culprit in range(t + 1, nr):
                if any(map(mod, islice(a[culprit], t + 1, nc), repeat(p))):
                    break
            else:
                break
            a[t] = [x + y for x, y in zip(a[t], a[culprit])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return t


def smith_normal_form(m: IntMatrix, want_u: bool = True, want_v: bool = True):
    """Diagonalise over Z: returns (U, D, V) with D = U @ m @ V, U and V
    unimodular, D diagonal with d1 | d2 | ... >= 0: `_smith` on m with I
    beside it for U and below it for V, each None when not wanted.
    Min-abs pivots do not bound entry growth: on dense random 12 x 12
    input with entries in [-5, 5], U and V reach 8,000-bit entries, and
    at 14 x 14 D alone takes over 40 s.  `invariant_factors` gives D's
    diagonal with bounded entries, in milliseconds at those sizes."""
    nr, nc = m.rows, m.cols
    a = m.to_lists()
    if want_u:
        a = [row + [0] * i + [1] + [0] * (nr - i - 1) for i, row in enumerate(a)]
    if want_v:
        a += ([0] * t + [1] + [0] * (nc - t - 1) for t in range(nc))
    r = _smith(a, nr, nc)
    dm = IntMatrix(nr, nc, tuple(((i,), (a[i][i],)) for i in range(r)) + (_EMPTY,) * (nr - r))
    um = IntMatrix.from_rows([row[nc:] for row in a[:nr]], cols=nr) if want_u else None
    vm = IntMatrix.from_rows(a[nr:], cols=nc) if want_v else None
    return um, dm, vm


def diagonal_of(d: IntMatrix) -> list:
    return [d.at(i, i) for i in range(min(d.rows, d.cols))]


def _eliminate(stored: Sequence, limit: int, skip=()):
    """Sparse unit-pivot elimination by row operations (Kaczynski-Mrozek-
    Slusarek; Mrozek-Batko; Dumas-Saunders-Villard) of the stored rows
    without the set of columns skip, in two phases.

    Coreduction: a row whose one entry left is +-1 in a column below
    limit is free, and becomes a pivot with an empty rest.  Clearing its
    column from the other rows makes no fill-in, so counts of entries per
    row and the rows of each column suffice, and a row left with one
    entry may be free in turn.  Free rows go first come, first served:
    those free from the start in row order, then each as a pivot frees
    it.  The rows left become {column: value} dicts for the heap phase,
    which keeps the column occupancy: while some entry is +-1 in a column
    below limit, the sparsest such column (ties: lowest index) is cleared
    from the other rows with the shortest such row (ties: lowest index)
    as pivot, and pivot row and column are dropped.  Returns (pivots,
    rows, cols): pivots lists (row, column, sign, rest of the pivot row)
    in elimination order, each rest naming only columns still present at
    its step; rows and cols are the residue, which holds no +-1 entry in
    a column below limit, keyed by its nonzero rows and nonempty columns.
    """
    cols = {}
    count = [0] * len(stored)
    free = []
    for i, (js, xs) in enumerate(stored):
        if skip and not skip.isdisjoint(js):
            js = list(filterfalse(skip.__contains__, js))
        for j in js:
            occ = cols.get(j)
            if occ is None:
                cols[j] = {i}
            else:
                occ.add(i)
        count[i] = n = len(js)
        if n == 1 and js[0] < limit:
            x = xs[stored[i][0].index(js[0])]
            if x in (1, -1):
                free.append((i, js[0], x))
    pivots = []
    for p, q, s in free:  # the queue grows while it is read
        occ = cols.pop(q, None)
        if occ is None:  # a row freed before p took q, and p is empty
            continue
        pivots.append((p, q, s, {}))
        for i in occ:
            n = count[i] = count[i] - 1
            if n == 1:
                js, xs = stored[i]
                for j, x in zip(js, xs):
                    if j in cols:
                        break
                if j < limit and x in (1, -1):
                    free.append((i, j, x))
    rows = {}
    for i in compress(range(len(count)), count):
        js, xs = stored[i]
        rows[i] = (dict(zip(js, xs)) if count[i] == len(js)
                   else {j: x for j, x in zip(js, xs) if j in cols})
    # candidate columns keyed (occupancy, index); an entry is stale once
    # the column's occupancy has changed, and every pivot column whose
    # entries change is pushed again
    heap = [(len(occ), j) for j, occ in cols.items() if j < limit]
    heapq.heapify(heap)
    while heap:
        size, q = heapq.heappop(heap)
        occ = cols.get(q)
        if occ is None or len(occ) != size:
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


def _reduce(m: IntMatrix, skip=()) -> tuple:
    """(invariant factors, pivot rows) of m with the columns in skip
    deleted: the factors as in `invariant_factors`, a 1 per unit pivot of
    `_eliminate` and then `_residue_factors` of what it leaves, and the
    set of rows that held a unit pivot."""
    pivots, rows, cols = _eliminate(m.nonzeros, m.cols, skip)
    units = (1,) * len(pivots)
    paired = frozenset(p for p, _, _, _ in pivots)
    return (units + _residue_factors(rows, cols) if rows else units), paired


def _residue_factors(rows: dict, cols: dict) -> tuple:
    """The invariant factors of the residue of `_eliminate`, its rows as
    {row: {column: value}} and cols the rows of each column; every entry
    stays bounded by a minor of the residue.

    Rows that share a column form a block, reduced alone.  A block with
    one row or one column has one factor, the gcd g of its entries, and a
    2 x 2 block has g and |det| / g.  Any other block A of rank r has a
    nonzero r x r minor M (`_bareiss`).  Each factor d_i of A divides
    d_1 ... d_r, the gcd of the r x r minors, and so divides M.  So the
    lattice spanned by the columns of A and by M times the unit vectors
    has the factors d_1, ..., d_r, M, ..., M, one per row of A.
    `_diagonal_mod` reads one order per row off a diagonal form of A
    modulo M, and the first r of their chain are A's (all of them when A
    has r rows).  The factors of all blocks are chained once more
    (Domich, Kannan and Trotter 1987; Hafner and McCurley 1991).
    """
    factors = []
    seen = set()
    for i in rows:
        if i in seen:
            continue
        block, at = [i], {}
        seen.add(i)
        for k in block:  # the block grows while it is read
            for j in rows[k]:
                if j not in at:
                    at[j] = len(at)
                    new = cols[j] - seen
                    seen |= new
                    block += new
        if len(block) == 1 or len(at) == 1:
            factors.append(gcd(*chain.from_iterable(rows[k].values() for k in block)))
            continue
        a = _dense(map(rows.__getitem__, block), at)
        if len(a) == 2 == len(at):  # d_1 = g and d_1 d_2 = |det|
            (w, x), (y, z) = a
            g, det = gcd(w, x, y, z), abs(w * z - x * y)
            factors += (g, det // g) if det else (g,)
            continue
        r, minor = _bareiss(a)
        orders = _diagonal_mod(a, minor)
        factors += orders if r == len(orders) else _chain(orders)[:r]
    return tuple(_chain(factors))


def _dense(rows: Iterable, at: dict) -> list:
    """The {column: value} rows as dense lists, column j at position
    at[j] of len(at)."""
    out = []
    for row in rows:
        out.append([0] * len(at))
        for j, x in row.items():
            out[-1][at[j]] = x
    return out


def _bareiss(block: list) -> tuple:
    """(rank, |a nonzero rank x rank minor|) of the dense rows block, by
    fraction-free elimination on a copy, from which each pivot's row and
    column leave.  Every pivot is a minor of the block, so each division
    is exact (Bareiss 1968)."""
    a = [row[:] for row in block]
    prev = 1
    rank = 0
    while a:
        i = next((i for i, row in enumerate(a) if any(row)), None)
        if i is None:
            break
        top = a.pop(i)
        j = next(j for j, x in enumerate(top) if x)
        p = top.pop(j)
        rest = []
        for row in a:
            f = row.pop(j)
            rest.append([(p * x - f * y) // prev for x, y in zip(row, top)])
        a = rest
        prev = p
        rank += 1
    return rank, abs(prev)


def _diagonal_mod(block: list, m: int) -> list:
    """The orders of the lattice spanned by the columns of the dense rows
    block and by m times the unit vectors, one per row and not yet a
    chain: gcd(e, m) for each diagonal entry e of a diagonal form of the
    block modulo m, and m for each row without one.

    Adding a multiple of m to an entry keeps that lattice, and so do row
    and column operations.  So a copy a of the block, every entry of it
    held in (-m/2, m/2], is diagonalized by min-pivot Euclidean steps with
    no divisibility fix-up; each finished pivot's row and column leave a.
    """
    h = m // 2
    a = [[y - m if y > h else y for y in (x % m for x in row)] for row in block]
    orders = []
    while a and a[0]:
        v = m  # larger than every entry
        for k, row in enumerate(a):
            for l, x in enumerate(row):
                if x and -v < x < v:
                    v, i, j = abs(x), k, l
        if v == m:
            break
        a[0], a[i] = a[i], a[0]
        while True:
            if j:
                for row in a:
                    row[0], row[j] = row[j], row[0]
            top = a[0]
            p = top[0]
            v, i = m, 0
            for k in range(1, len(a)):
                row = a[k]
                if row[0]:
                    q = row[0] // p
                    row[:] = [y - m if y > h else y
                              for y in ((x - q * z) % m for x, z in zip(row, top))]
                    if row[0] and -v < row[0] < v:
                        v, i = abs(row[0]), k
            if i:  # a smaller remainder in the column is the new pivot
                a[0], a[i] = a[i], a[0]
                j = 0
                continue
            # the column is clear below the pivot, so column steps change the row alone
            v, j = m, 0
            for l in range(1, len(top)):
                x = top[l] = top[l] % p
                if x and -v < x < v:
                    v, j = abs(x), l
            if not j:
                break
        orders.append(gcd(p, m))
        a = [row[1:] for row in a[1:]]
    return orders + [m] * len(a)


def _chain(orders: list) -> list:
    """The invariant factors d_1 | d_2 | ... of the diagonal matrix with
    the positive entries orders, ascending.

    Sorted orders that already divide each other are the chain.
    Otherwise each order x is inserted into the chain of those before it,
    kept as runs of equal values: x and each value d in turn become
    gcd(d, x) and lcm(d, x).  After the first copy of a run x is a
    multiple of d, so only that copy changes, and an insertion costs one
    step per run, not per order; none at all when the last value, and so
    every value, divides x."""
    orders.sort()
    if not any(map(mod, islice(orders, 1, None), orders)):
        return orders
    runs = []  # [value, count], values ascending and each dividing the next
    for x in orders:
        if runs and x % runs[-1][0]:
            new = []
            for d, k in runs:
                if x % d:
                    g = gcd(d, x)
                    x = x // g * d
                    _extend(new, g, 1)
                    k -= 1
                _extend(new, d, k)
            runs = new
        _extend(runs, x, 1)
    return [d for d, k in runs for _ in range(k)]


def _extend(runs: list, d: int, k: int):
    """Append k copies of d to the runs."""
    if runs and runs[-1][0] == d:
        runs[-1][1] += k
    elif k:
        runs.append([d, k])


def invariant_factors(m: IntMatrix) -> tuple:
    """The nonzero diagonal d1 | d2 | ... of the Smith normal form of m,
    computed without transforms; there are rank(m) of them.

    Each unit pivot of `_eliminate` counts one factor 1.  Every step is
    unimodular and SNF(diag(I_k, R)) = diag(I_k, SNF(R)), so only the
    residue R left without a unit entry, typically empty or small, goes
    to `_residue_factors`, which bounds its entries by minors of R.
    """
    return _reduce(m)[0]


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice of m, as columns: the K of
    `_solve` on the rows of m with nothing beside them."""
    return _solve(m.nonzeros, m.cols, 0)[0]


def solve_exact(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """An integer solution X of a @ X = b, or None if there is none: the
    X of `_solve` on the rows of the augmented matrix [a | b].  Free
    coordinates are 0, so when a has full column rank, as every caller's
    saturated kernel basis does, the solution is the unique one."""
    if a.rows != b.rows:
        raise ValueError("shape mismatch in solve: %r vs %r" % (a.shape, b.shape))
    n = a.cols
    augmented = [(ja + tuple(n + j for j in jb), xa + xb)
                 for (ja, xa), (jb, xb) in zip(a.nonzeros, b.nonzeros)]
    return _solve(augmented, n, b.cols)[1]


def _solve(stored: Sequence, n: int, nb: int) -> tuple:
    """(K, X) for the stored rows, as for `_eliminate`, of [A | B], with n
    columns in A and nb in B: K a basis of the integer kernel of A, as
    columns, and X an integer solution of A X = B, or None if none.

    Row operations keep both, so `_eliminate` runs once, with pivots in
    A's columns.  Each pivot row fixes its pivot coordinate in terms of B
    and of coordinates pivoted later or not at all; the residue [R | R_B]
    constrains the others.  `_smith` turns [R | R_B] over I into
    [D | U R_B] over V, U R V = D: the columns of V past D's rank r span
    ker(R), and X = V Y on R's coordinates where D Y = U R_B, solvable
    when U R_B is 0 past row r and d_i divides its row i before.  Each
    coordinate no residue row touches is a unit kernel vector, and 0 in
    X.  One reverse back-substitution through the +-1 pivots completes
    the kernel vectors (keyed 0, 1, ...) and the columns of X (keyed -1,
    -2, ...) together, reading each pivot's rest once.  Projecting ker(A)
    onto the non-pivot coordinates is an isomorphism onto ker(R) times
    the free ones, and V is unimodular, so K is saturated.
    """
    pivots, rows, cols = _eliminate(stored, n)
    pivoted = {q for _, q, _, _ in pivots}
    x = {}  # coordinate -> {kernel vector t or column ~t of B: value}
    for j in range(n):
        if j not in pivoted and j not in cols:
            x[j] = {len(x): 1}
    k = len(x)
    keep = sorted(j for j in cols if j < n)
    solved = bool(keep) or not rows  # else a residue row reads 0 = an entry of B
    if keep:
        w, nr = len(keep), len(rows)
        at = {j: t for t, j in enumerate(chain(keep, range(n, n + nb)))}
        a = _dense(map(rows.__getitem__, sorted(rows)), at)
        a += ([1 if j == t else 0 for j in range(w)] for t in range(w))
        r = _smith(a, nr, w)
        for j, row in zip(keep, a[nr:]):
            x[j] = {k + t: y for t, y in enumerate(row[r:]) if y}
        k += w - r
        if nb:
            solved = not any(y % row[i] if i < r else y
                             for i, row in enumerate(a[:nr]) for y in row[w:])
            if solved:
                ys = list(zip(*([y // row[i] for y in row[w:]] for i, row in enumerate(a[:r]))))
                for j, row in zip(keep, a[nr:]):
                    xs = [sum(map(mul, row, col)) for col in ys]
                    x[j].update((~c, y) for c, y in enumerate(xs) if y)
    for _, q, s, prow in reversed(pivots):
        acc = {}
        for j, c in prow.items():
            if j < n:
                for t, y in x.get(j, _NONE).items():
                    acc[t] = acc.get(t, 0) - c * y
            else:
                acc[n + ~j] = acc.get(n + ~j, 0) + c
        x[q] = {t: s * y for t, y in acc.items() if y}
    entries = [(j, t, y) for j, col in x.items() for t, y in col.items()]
    kernel = IntMatrix.from_entries(n, k, (e for e in entries if e[1] >= 0))
    if not solved:
        return kernel, None
    return kernel, IntMatrix.from_entries(n, nb, ((j, ~t, y) for j, t, y in entries if t < 0))


def is_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and invariant_factors(m) == (1,) * m.rows
