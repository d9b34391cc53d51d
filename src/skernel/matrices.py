"""Dense integer matrices with exact arithmetic.

Everything in this package reduces to integer linear algebra over the
Smith normal form computed here.  Invariants (homology, cokernels,
unimodularity) need only its diagonal, `invariant_factors`, which builds
no transform and eliminates sparsely: unit pivots are cleared on
dict-of-rows storage, and only the residue without a +-1 entry reaches
the dense Smith loop.  Storage stays dense, and so do the unimodular
transforms U and V, computed only for callers that consume them (kernel
bases, exact solves and the base changes built on those): kernel bases
feed the random complexes of `generators`, so a different V would change
every seeded instance the suite checks.  Matrices are immutable,
row-major, and carry plain Python integers, so entry growth during
elimination is harmless.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntMatrix:
    """An immutable rows x cols integer matrix, entries in row-major order."""

    rows: int
    cols: int
    data: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.data) != self.rows * self.cols:
            raise ValueError(
                "expected %d entries, got %d" % (self.rows * self.cols, len(self.data))
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        flat = tuple(int(x) for r in rows for x in r)
        return cls(len(rows), ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == IntMatrix.identity(self.rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition: %r vs %r" % (self.shape, other.shape))
        return IntMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.data, other.data)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-a for a in self.data))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(c * a for a in self.data))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch in product: %r @ %r" % (self.shape, other.shape)
            )
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.data, other.data
        out = [0] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            base = i * m
            for t in range(k):
                c = arow[t]
                if c:
                    brow = b[t * m : (t + 1) * m]
                    for j in range(m):
                        out[base + j] += c * brow[j]
        return IntMatrix(n, m, tuple(out))

    def mul_vec(self, v: Sequence[int]) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(
            sum(self.data[i * self.cols + j] * v[j] for j in range(self.cols))
            for i in range(self.rows)
        )

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product; compatible with row-major vectorisation, so
        (A kron B) vec(X) = vec(A X B^T)."""
        r = self.rows * other.rows
        c = self.cols * other.cols
        out = [0] * (r * c)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.at(i, j)
                if a == 0:
                    continue
                for p in range(other.rows):
                    row = (i * other.rows + p) * c
                    obase = p * other.cols
                    for q in range(other.cols):
                        out[row + j * other.cols + q] = a * other.data[obase + q]
        return IntMatrix(r, c, tuple(out))

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
    data = []
    for i in range(rows):
        for b in blocks:
            data.extend(b.row(i))
    return IntMatrix(rows, sum(b.cols for b in blocks), tuple(data))


def vstack(blocks: Iterable[IntMatrix]) -> IntMatrix:
    blocks = list(blocks)
    if not blocks:
        raise ValueError("vstack of nothing")
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise ValueError("column count mismatch in vstack")
    data = []
    for b in blocks:
        data.extend(b.data)
    return IntMatrix(sum(b.rows for b in blocks), cols, tuple(data))


def block_diag(blocks: Iterable[IntMatrix]) -> IntMatrix:
    blocks = list(blocks)
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            out[r0 + i][c0 : c0 + b.cols] = list(b.row(i))
        r0 += b.rows
        c0 += b.cols
    return IntMatrix.from_rows(out, cols=cols)


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _swap_cols(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_row(a, dst, src, c):
    rd, rs = a[dst], a[src]
    for t in range(len(rd)):
        rd[t] += c * rs[t]


def _add_col(a, dst, src, c):
    for row in a:
        row[dst] += c * row[src]


def smith_normal_form(m: IntMatrix, want_u: bool = True, want_v: bool = True):
    """Diagonalise over Z: returns (U, D, V) with D = U @ m @ V.

    U and V are unimodular, D is diagonal with nonnegative entries and
    d1 | d2 | ... along the diagonal.  Pivots are chosen by minimal
    absolute value, which keeps entry growth tame at the scale this
    package works at.  When want_u/want_v is False the corresponding
    transform is returned as None (cheaper for kernel/cokernel-only use).
    """
    nr, nc = m.rows, m.cols
    a = m.to_lists()
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)] if want_u else None
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)] if want_v else None
    t = 0
    limit = min(nr, nc)
    while t < limit:
        # locate minimal nonzero entry of the trailing block
        piv = None
        best = None
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            _swap_rows(a, t, pi)
            if u is not None:
                _swap_rows(u, t, pi)
        if pj != t:
            _swap_cols(a, t, pj)
            if v is not None:
                _swap_cols(v, t, pj)
        while True:
            # shrink the column, then the row, until the pivot divides both
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        _add_row(a, i, t, -q)
                        if u is not None:
                            _add_row(u, i, t, -q)
                    if a[i][t] != 0:
                        _swap_rows(a, t, i)
                        if u is not None:
                            _swap_rows(u, t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        _add_col(a, j, t, -q)
                        if v is not None:
                            _add_col(v, j, t, -q)
                    if a[t][j] != 0:
                        _swap_cols(a, t, j)
                        if v is not None:
                            _swap_cols(v, t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block for the chain d1|d2|...
            culprit = None
            p = a[t][t]
            for i in range(t + 1, nr):
                row = a[i]
                for j in range(t + 1, nc):
                    if row[j] % p:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            _add_row(a, t, culprit, 1)
            if u is not None:
                _add_row(u, t, culprit, 1)
        if a[t][t] < 0:
            for j in range(nc):
                a[t][j] = -a[t][j]
            if u is not None:
                for j in range(nr):
                    u[t][j] = -u[t][j]
        t += 1
    dm = IntMatrix.from_rows(a, cols=nc)
    um = IntMatrix.from_rows(u, cols=nr) if want_u else None
    vm = IntMatrix.from_rows(v, cols=nc) if want_v else None
    return um, dm, vm


def diagonal_of(d: IntMatrix) -> list:
    return [d.at(i, i) for i in range(min(d.rows, d.cols))]


def invariant_factors(m: IntMatrix) -> tuple:
    """The nonzero diagonal d1 | d2 | ... of the Smith normal form of m,
    computed without transforms; there are rank(m) of them.

    Sparse unit-pivot elimination first (Kaczynski-Mrozek-Slusarek;
    Dumas-Saunders-Villard): the nonzero rows are held as {col: value}
    dicts with a column -> rows occupancy index, and while some entry is
    +-1 the sparsest column holding one (ties: lowest column index) is
    cleared from the other rows with the shortest such row (ties: lowest
    row index) as pivot.  Pivot row and column are then dropped, each
    step counting one factor 1.  Every step is unimodular and SNF(diag(I_k,
    R)) = diag(I_k, SNF(R)), so only the residue R left without a unit
    entry, typically empty or small, goes through the dense
    `smith_normal_form`.
    """
    rows = {}
    cols = {}
    for i in range(m.rows):
        row = {j: x for j, x in enumerate(m.row(i)) if x}
        if row:
            rows[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)
    units = 0
    # candidate columns keyed (occupancy, index); an entry is stale once
    # the column's occupancy has changed, and every column whose entries
    # change is pushed again
    heap = [(len(occ), j) for j, occ in cols.items()]
    heapq.heapify(heap)
    while heap:
        count, q = heapq.heappop(heap)
        occ = cols.get(q)
        if occ is None or len(occ) != count:
            continue
        pivots = [(len(rows[i]), i) for i in occ if rows[i][q] in (1, -1)]
        if not pivots:
            continue
        p = min(pivots)[1]
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
                heapq.heappush(heap, (len(cols[j]), j))
            else:
                del cols[j]
        units += 1
    if not rows:
        return (1,) * units
    keep = sorted(cols)
    residue = IntMatrix.from_rows([[rows[i].get(j, 0) for j in keep] for i in sorted(rows)])
    _, d, _ = smith_normal_form(residue, want_u=False, want_v=False)
    return (1,) * units + tuple(x for x in diagonal_of(d) if x)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice of m, as columns.

    The kernel of a unimodular column transform is spanned by the columns
    of V sitting over zero diagonal entries, and that span is saturated,
    so the basis generates ker(m) exactly (not a finite-index sublattice).
    """
    if m.rows == 0:
        return IntMatrix.identity(m.cols)
    _, d, v = smith_normal_form(m, want_u=False)
    diag = diagonal_of(d)
    r = sum(1 for x in diag if x != 0)
    cols = [v.col(j) for j in range(r, m.cols)]
    return IntMatrix.from_rows(
        [[c[i] for c in cols] for i in range(m.cols)], cols=len(cols)
    )


def solve_exact(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """An integer solution X of a @ X = b, or None if there is none."""
    if a.rows != b.rows:
        raise ValueError("shape mismatch in solve: %r vs %r" % (a.shape, b.shape))
    u, d, v = smith_normal_form(a)
    ub = u @ b
    diag = diagonal_of(d)
    r = sum(1 for x in diag if x != 0)
    y = [[0] * b.cols for _ in range(a.cols)]
    for i in range(r):
        for j in range(b.cols):
            q, rem = divmod(ub.at(i, j), diag[i])
            if rem:
                return None
            y[i][j] = q
    for i in range(r, a.rows):
        if any(ub.at(i, j) != 0 for j in range(b.cols)):
            return None
    return v @ IntMatrix.from_rows(y, cols=b.cols)


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular square matrix (raises when not invertible over Z)."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    inv = solve_exact(m, IntMatrix.identity(m.rows))
    if inv is None or (m @ inv) != IntMatrix.identity(m.rows):
        raise ValueError("matrix is not invertible over the integers")
    return inv


def is_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and invariant_factors(m) == (1,) * m.rows
