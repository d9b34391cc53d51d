import hashlib
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import skernel.matrices
from skernel.complexes import ChainComplex, HomologyGroup, group_from_presentation
from skernel.matrices import (
    IntMatrix,
    _chain,
    _eliminate,
    _product_vanishes,
    diagonal_of,
    hstack,
    invariant_factors,
    is_unimodular,
    kernel_basis,
    smith_normal_form,
    solve_exact,
    vstack,
)
from skernel.generators import random_matrix, random_pointed_space
from skernel.simpab import bar_B, dold_kan_K, free_reduced_Z, moore_basis
from skernel.spaces import boundary, chains, product, sphere

from helpers import (block_diag, conjugated_torsion_complex, group_of_divisors, heap_only_eliminate,
                     naive_snf_diagonal, per_vector_kernel, random_complex, unimodular_pair)


def M(rows):
    return IntMatrix.from_rows(rows)


def test_identity_snf():
    u, d, v = smith_normal_form(IntMatrix.identity(3))
    assert d == IntMatrix.identity(3)
    assert u @ IntMatrix.identity(3) @ v == d


def test_zero_matrix_snf():
    u, d, v = smith_normal_form(M([[0]]))
    assert d == M([[0]])


def test_small_example_matches_gcd_oracle():
    m = M([[2, 4], [6, 8]])
    u, d, v = smith_normal_form(m)
    assert diagonal_of(d) == [2, 4]
    assert diagonal_of(d) == naive_snf_diagonal(m)
    # d1 * d2 = |det| = 8
    assert 2 * 4 == abs(2 * 8 - 4 * 6)
    assert u @ m @ v == d


def _check_snf(m):
    u, d, v = smith_normal_form(m)
    assert d == u @ m @ v
    assert is_unimodular(u)
    assert is_unimodular(v)
    diag = diagonal_of(d)
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert d.at(i, j) == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert diag == naive_snf_diagonal(m)
    assert invariant_factors(m) == tuple(x for x in diag if x)


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_snf_postconditions_random(rows, cols, seed):
    rng = random.Random(seed)
    m = M([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    _check_snf(m)


@pytest.mark.parametrize("rows, where, value", [
    ([[1.5, True], ["3", 2]], (0, 0), 1.5),
    ([[1, True]], (0, 1), True),
    ([[1, 2], [3, "4"]], (1, 1), "4"),
    ([[0], [2.0]], (1, 0), 2.0),
])
def test_from_rows_rejects_an_entry_that_is_not_an_int(rows, where, value):
    """Entries are not converted with int(): a float, a bool or a string
    is rejected, naming its row, its column and the value."""
    with pytest.raises(ValueError, match="^entry \\(%d, %d\\) is %s, not an int$"
                       % (*where, re.escape(repr(value)))):
        IntMatrix.from_rows(rows)


@pytest.mark.parametrize("value", [2.5, True, 1.0, 0.0])
def test_from_entries_rejects_an_entry_that_is_not_an_int(value):
    """`from_entries` refuses what `from_rows` refuses, with its message,
    before positions are summed: a float zero is refused, not dropped,
    and True is not read as 1, even where it would cancel."""
    where = re.escape("entry (1, 2) is %r, not an int" % value)
    for entries in ([(1, 2, value)], [(0, 0, 1), (1, 2, value), (1, 2, -1), (2, 0, 3)]):
        with pytest.raises(ValueError, match="^%s$" % where):
            IntMatrix.from_entries(3, 3, entries)
    with pytest.raises(ValueError, match="^%s$" % where):
        M([[1, 0, 0], [0, 0, 1]]) + IntMatrix(2, 3, (((), ()), ((2,), (value,))))


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(ValueError, match="^ragged rows$"):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="^ragged rows$"):
        IntMatrix.from_rows(((), (0,)))


def test_from_rows_reads_tuples_and_leaves_the_rows_alone():
    """Rows may be tuples, and so may the sequence of rows; the caller's
    lists are neither changed nor kept, so changing them afterwards does
    not change the matrix."""
    rows = [[0, 2, 0], [-1, 0, 3]]
    m = IntMatrix.from_rows(rows)
    assert rows == [[0, 2, 0], [-1, 0, 3]]
    assert m.nonzeros == (((1,), (2,)), ((0, 2), (-1, 3)))
    assert IntMatrix.from_rows(tuple(map(tuple, rows))) == m
    assert IntMatrix.from_rows(list(map(tuple, rows))) == m
    assert IntMatrix.from_rows(tuple(rows)) == m
    rows[1][0] = 7
    rows.append([1, 1, 1])
    assert m.to_lists() == [[0, 2, 0], [-1, 0, 3]]
    assert IntMatrix.from_rows((), cols=3) == IntMatrix.zero(0, 3)
    assert IntMatrix.from_rows([[], []]) == IntMatrix.zero(2, 0)


@pytest.mark.parametrize("seed", range(20))
def test_from_rows_equals_from_entries(seed):
    """Dense rows with zero rows, zero columns and large entries store
    what `from_entries` builds from their nonzero (i, j, value) entries."""
    rng = random.Random(seed)
    r, c = rng.randint(0, 7), rng.randint(0, 7)
    dense = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-10**20, 10**20))) for _ in range(c)]
             for _ in range(r)]
    entries = [(i, j, x) for i, row in enumerate(dense) for j, x in enumerate(row) if x]
    rng.shuffle(entries)
    assert IntMatrix.from_rows(dense, cols=c) == IntMatrix.from_entries(r, c, entries)


def test_snf_empty_shapes():
    for r, c in [(0, 0), (0, 3), (3, 0)]:
        m = IntMatrix.zero(r, c)
        u, d, v = smith_normal_form(m)
        assert d == m
        assert u.shape == (r, r) and v.shape == (c, c)


def test_kernel_basis_is_exact():
    m = M([[1, 2, 3], [2, 4, 6]])
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert k.cols == 2
    assert kernel_basis(M([[1, 1], [0, 0]])) == M([[-1], [1]])
    # saturation: solving for a kernel vector must succeed integrally
    v = M([[1], [1], [-1]])
    assert (m @ v).is_zero()
    assert solve_exact(k, v) is not None


def test_solve_exact_and_inverse():
    a = M([[2, 0], [0, 3]])
    b = M([[4], [9]])
    x = solve_exact(a, b)
    assert a @ x == b
    assert solve_exact(a, M([[1], [0]])) is None
    u = M([[1, 1], [0, 1]])
    assert solve_exact(u, IntMatrix.identity(2)) == M([[1, -1], [0, 1]])


def _dense_solve(a, b):
    """Reference solve through the full dense Smith decomposition
    U a V = D: y = D^-1 U b where D allows it, X = V y."""
    u, d, v = smith_normal_form(a)
    diag = diagonal_of(d)
    r = sum(1 for x in diag if x)
    y = []
    for i, j, x in (u @ b).entries():
        if i >= r or x % diag[i]:
            return None
        y.append((i, j, x // diag[i]))
    return v @ IntMatrix.from_entries(a.cols, b.cols, y)


def _check_solve(a, b):
    """solve_exact against the dense reference: the same solvability, a
    true solution, and the reference's own when a has full column rank
    (the solution is then unique)."""
    x, want = solve_exact(a, b), _dense_solve(a, b)
    assert (x is None) == (want is None), (a.to_lists(), b.to_lists())
    if x is not None:
        assert a @ x == b
        d = smith_normal_form(a, want_u=False, want_v=False)[1]
        if sum(1 for t in diagonal_of(d) if t) == a.cols:
            assert x == want
    return x


def test_solve_exact_matches_the_dense_smith_reference(monkeypatch):
    dense = _count_dense_calls(monkeypatch)
    rng = random.Random(7)
    # cleared completely by unit pivots: a signed permutation block over
    # arbitrary rows; no dense Smith reduction, with or without U and V
    for _ in range(60):
        cols, extra, k = rng.randint(1, 6), rng.randint(0, 4), rng.randint(1, 3)
        perm = list(range(cols))
        rng.shuffle(perm)
        rows = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(cols)]
                for i in range(cols)]
        rows += [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(extra)]
        rng.shuffle(rows)
        a = M(rows)
        dense.clear()
        _check_solve(a, a @ _sparse_matrix(rng, cols, k, 0.6, range(-4, 5)))
        assert dense == []
        if extra:
            _check_solve(a, _sparse_matrix(rng, a.rows, k, 0.5, (-1, 1, 2)))
            assert dense == []
    # no +-1 entry at all: the whole matrix is the residue
    solved = 0
    for _ in range(80):
        a = _sparse_matrix(rng, rng.randint(1, 5), rng.randint(1, 4), 0.7, (-6, -4, -3, -2, 2, 3, 4, 6))
        dense.clear()
        x = _check_solve(a, a @ _sparse_matrix(rng, a.cols, 2, 0.7, range(-3, 4)))
        solved += x is not None
        assert len(dense) == (0 if a.is_zero() else 1)
        _check_solve(a, _sparse_matrix(rng, a.rows, 2, 0.5, range(-3, 4)))
    assert solved == 80
    # mixed entries, solvable and not
    for _ in range(200):
        a = _sparse_matrix(rng, rng.randint(0, 6), rng.randint(0, 5), rng.random(), (-2, -1, 1, 2, 3))
        _check_solve(a, a @ _sparse_matrix(rng, a.cols, 2, 0.5, range(-3, 4)))
        _check_solve(a, _sparse_matrix(rng, a.rows, 2, 0.5, range(-3, 4)))


def test_solve_exact_edge_cases():
    # rationally solvable, not integrally
    assert solve_exact(M([[2]]), M([[1]])) is None
    assert _check_solve(M([[2, 0], [0, 3]]), M([[2], [3]])) == M([[1], [1]])
    # right-hand sides outside the column space, cleared or left in the residue
    assert _check_solve(M([[1, 0], [0, 1], [1, 1]]), M([[1], [1], [0]])) is None
    assert _check_solve(M([[2], [4]]), M([[2], [3]])) is None
    assert _check_solve(M([[1], [2]]), M([[0], [1]])) is None
    assert _check_solve(M([[1, 1], [0, 0]]), M([[1], [1]])) is None
    # rank-deficient: a coordinate that no residue row touches stays 0
    assert _check_solve(M([[1, 1], [0, 0]]), M([[1], [0]])) == M([[1], [0]])
    assert _check_solve(M([[0, 2, 2]]), M([[4]])) == M([[0], [2], [0]])
    # no rows, no columns, no right-hand side
    assert _check_solve(IntMatrix.zero(0, 3), IntMatrix.zero(0, 2)) == IntMatrix.zero(3, 2)
    assert _check_solve(IntMatrix.zero(2, 0), IntMatrix.zero(2, 1)) == IntMatrix.zero(0, 1)
    assert _check_solve(IntMatrix.zero(2, 0), M([[0], [1]])) is None
    assert _check_solve(M([[1, 2]]), IntMatrix.zero(1, 0)) == IntMatrix.zero(2, 0)
    with pytest.raises(ValueError):
        solve_exact(M([[1]]), M([[1], [1]]))


def _kernel_solve_lines():
    """One line per kernel basis and exact solve over seeded families:
    mixed entries, unit-free residues, rank-deficient matrices with free
    coordinates (zero and repeated columns), conjugated diagonals,
    conjugated torsion complexes and the stacked faces of simplicial
    groups, each solved for a reachable and a random right-hand side."""
    rng = random.Random(3535)
    cases = [M([[1, 1], [0, 0]]), M([[2, 2], [3, 3]]), M([[0, 1, 1], [0, 2, 2]]),
             IntMatrix.zero(2, 3), IntMatrix.zero(0, 2), IntMatrix.zero(2, 0)]
    for values in ((-2, -1, 1, 2, 3), (-6, -4, -3, -2, 2, 3, 4, 6)):
        for _ in range(60):
            cases.append(_sparse_matrix(rng, rng.randint(0, 6), rng.randint(0, 6),
                                        rng.choice((0.2, 0.5, 0.8, 1.0)), values))
    for _ in range(40):
        a = _sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 4), 0.6, (-3, -2, -1, 1, 2, 4))
        cols = [a.col(j) for j in range(a.cols)]
        cols += [rng.choice(cols) if rng.random() < 0.6 else (0,) * a.rows
                 for _ in range(rng.randint(1, 3))]
        rng.shuffle(cols)
        cases.append(IntMatrix.from_rows([list(r) for r in zip(*cols)]))
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        diag = sorted(rng.choice((1, 2, 3, 6)) for _ in range(rng.randint(0, min(rows, cols))))
        d = M([[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)]
               for i in range(rows)])
        cases.append(_random_unimodular(rng, rows) @ d @ _random_unimodular(rng, cols))
    for _ in range(3):
        c = conjugated_torsion_complex(rng, 3, 5, 1)[0]
        cases += [c.d(n) for n in range(1, 4)]
    for a in (free_reduced_Z(sphere(2), 4), bar_B(free_reduced_Z(sphere(1), 4)),
              dold_kan_K(random_complex(rng, max_deg=3, max_rank=2, span=2), 3)):
        cases += _stacked_faces(a)
    for a in cases:
        yield "K %r" % (kernel_basis(a),)
        k = rng.randint(0, 3)
        for b in (a @ _sparse_matrix(rng, a.cols, k, 0.6, range(-3, 4)),
                  _sparse_matrix(rng, a.rows, k, 0.5, range(-3, 4))):
            yield "X %r" % (solve_exact(a, b),)


# SHA-256 of every line `_kernel_solve_lines` yields
KERNEL_SOLVE_DIGEST = "b57d49354d5cf3abcd0b6d248b73e51bd5cf24ccb2bc6017e8135d00ce5f63e1"


def test_kernel_and_solve_outputs_are_pinned():
    digest = hashlib.sha256()
    for line in _kernel_solve_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == KERNEL_SOLVE_DIGEST


def _smith_lines():
    """One line per `smith_normal_form` call, for all four choices of
    want_u and want_v, over seeded families: empty and zero matrices,
    rank-deficient matrices with repeated and zero columns, matrices
    with no +-1 entry, and `generators.random_matrix` up to 6 x 6.  The
    lines are reprs, so an int turned float would show."""
    rng = random.Random(3636)
    cases = [IntMatrix.zero(r, c) for r in range(4) for c in range(4)]
    for _ in range(40):
        a = _sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 3), 0.7, (-3, -2, -1, 1, 2, 4))
        cols = [a.col(j) for j in range(a.cols)]
        cols += [rng.choice(cols) if rng.random() < 0.6 else (0,) * a.rows
                 for _ in range(rng.randint(1, 3))]
        rng.shuffle(cols)
        cases.append(IntMatrix.from_rows([list(r) for r in zip(*cols)]))
    for _ in range(50):
        cases.append(_sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 6),
                                    rng.choice((0.3, 0.6, 1.0)), (-6, -4, -3, -2, 2, 3, 4, 6)))
    for _ in range(94):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(random_matrix(rng, rows, cols, span=rng.choice((2, 5, 9))))
    for a in cases:
        for want_u in (True, False):
            for want_v in (True, False):
                yield "S %r" % (smith_normal_form(a, want_u, want_v),)


# SHA-256 of every line `_smith_lines` yields
SMITH_DIGEST = "afaa91c9a6c4baccbfcea4e044e27c1b52d657f584c991768586d9668e8731a6"


def test_smith_outputs_are_pinned():
    digest = hashlib.sha256()
    for line in _smith_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == SMITH_DIGEST


def test_cokernel_invariants():
    assert invariant_factors(M([[2, 0], [0, 3]])) == (1, 6)
    assert group_from_presentation(2, M([[2, 0], [0, 3]])) == HomologyGroup(0, (6,))
    assert invariant_factors(IntMatrix.zero(3, 1)) == ()
    assert group_from_presentation(3, IntMatrix.zero(3, 1)) == HomologyGroup(3)


def _random_unimodular(rng, n):
    """A product of elementary row operations on the identity."""
    a = IntMatrix.identity(n).to_lists()
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            a[i] = [-x for x in a[i]]
        else:
            c = rng.choice((-2, -1, 1, 2))
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return M(a)


def _sparse_matrix(rng, rows, cols, density, values):
    return IntMatrix.from_rows(
        [[rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)],
        cols=cols,
    )


def _count_dense_calls(monkeypatch):
    """The (rows, columns) of each block that `matrices._solve` hands to
    the dense Smith loop; the calls the reference `_dense_solve` makes
    through `smith_normal_form` are not counted."""
    calls = []
    original = skernel.matrices._smith

    def counting(a, nr, nc):
        if sys._getframe(1).f_code.co_name == "_solve":
            calls.append((nr, nc))
        return original(a, nr, nc)

    monkeypatch.setattr(skernel.matrices, "_smith", counting)
    return calls


def _count_residue_calls(monkeypatch):
    """The shapes of the residues that reach `_residue_factors`."""
    calls = []
    original = skernel.matrices._residue_factors

    def counting(rows, cols):
        calls.append((len(rows), len(cols)))
        return original(rows, cols)

    monkeypatch.setattr(skernel.matrices, "_residue_factors", counting)
    return calls


def test_invariant_factors_match_naive_oracle(monkeypatch):
    """Sparse unit-pivot elimination against the naive gcd oracle, with
    the residues it leaves counted per family: none when the unit pivots
    clear everything, at least one when a factor above 1 or a unit-free
    residue is left."""
    dense = _count_residue_calls(monkeypatch)
    rng = random.Random(2024)
    checked = 0

    def check(m):
        nonlocal checked
        want = tuple(x for x in naive_snf_diagonal(m) if x)
        dense.clear()
        assert invariant_factors(m) == want, m.to_lists()
        checked += 1
        return want

    for n in range(4):
        for shape in [(0, n), (n, 0)]:
            assert check(IntMatrix.zero(*shape)) == () and dense == []
    for x in range(-4, 5):
        check(M([[x]]))
        assert dense == ([] if x in (-1, 0, 1) else [(1, 1)])
    for density in (0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
        for _ in range(50):
            check(_sparse_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), density,
                                 [x for x in range(-5, 6) if x]))
    for _ in range(80):
        m = _sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), rng.choice((0.3, 0.6, 1.0)),
                           (-6, -4, -3, -2, 2, 3, 4, 6))
        check(m)
        assert len(dense) == (0 if m.is_zero() else 1)
    for _ in range(60):
        n = rng.randint(1, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        m = M([[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)])
        assert check(m) == (1,) * n and dense == []
    both = 0
    for _ in range(60):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        units = rng.randint(0, min(rows, cols) - 1)
        t = rng.choice((2, 3))
        torsion = [t, t * rng.choice((1, 2, 3))][: min(rows, cols) - units]
        diag = [1] * units + torsion
        d = M([[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)]
               for i in range(rows)])
        m = _random_unimodular(rng, rows) @ d @ _random_unimodular(rng, cols)
        assert check(m) == tuple(diag)
        assert len(dense) == 1
        both += dense[0] != m.shape  # unit pivots shrank what the dense loop saw
    assert both >= 30
    assert checked >= 500


def _naive_product(a, b):
    return [[sum(a.at(i, t) * b.at(t, j) for t in range(a.cols)) for j in range(b.cols)]
            for i in range(a.rows)]


def _stacked_faces(a):
    """The matrices whose kernels are the Moore bases of a."""
    return [vstack([a.face(n, i) for i in range(1, n + 1)])
            for n in range(1, a.D + 1) if a.rank(n)]


def test_kernel_basis_defining_properties(monkeypatch):
    """Over seeded families, kernel_basis(m) = K satisfies m K = 0, has
    nullity(m) columns, and is saturated: the invariant factors of K^T
    are all 1, so K spans ker(m) and not a finite-index sublattice."""
    dense = _count_dense_calls(monkeypatch)
    rng = random.Random(4048)
    checked = 0
    kernel_dense = 0

    def check(m):
        nonlocal checked, kernel_dense
        dense.clear()
        k = kernel_basis(m)
        kernel_dense = len(dense)
        assert k.rows == m.cols
        assert all(x == 0 for row in _naive_product(m, k) for x in row), m.to_lists()
        assert k.cols == m.cols - len(invariant_factors(m))
        assert invariant_factors(k.transpose()) == (1,) * k.cols, m.to_lists()
        checked += 1
        return k

    for n in range(5):
        assert check(IntMatrix.zero(0, n)) == IntMatrix.identity(n)
        assert check(IntMatrix.zero(n, 0)).shape == (0, 0)
    for x in range(-4, 5):
        assert check(M([[x]])).cols == (1 if x == 0 else 0)
    for density in (0.1, 0.3, 0.6, 1.0):
        for _ in range(25):
            rows, cols = rng.randint(1, 7), rng.randint(1, 8)
            m = _sparse_matrix(rng, rows, cols, density, [x for x in range(-4, 5) if x])
            zeroed = set(rng.sample(range(cols), rng.randint(1, cols)))
            check(M([[0 if j in zeroed else x for j, x in enumerate(r)] for r in m.to_lists()]))
            check(m)
    for _ in range(60):
        m = _sparse_matrix(rng, rng.randint(1, 6), rng.randint(1, 7), rng.choice((0.3, 0.6, 1.0)),
                           (-6, -4, -3, -2, 2, 3, 4, 6))
        check(m)
        assert kernel_dense == (0 if m.is_zero() else 1)  # the unit-free residue path
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        diag = [rng.choice((1, 1, 2, 3, 6)) for _ in range(rng.randint(0, min(rows, cols)))]
        diag.sort(key=lambda x: (x != 1, x))
        d = M([[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)]
               for i in range(rows)])
        check(_random_unimodular(rng, rows) @ d @ _random_unimodular(rng, cols))
    structured = [free_reduced_Z(sphere(2), 5), bar_B(free_reduced_Z(sphere(2), 4)),
                  bar_B(free_reduced_Z(sphere(1), 5))]
    structured += [dold_kan_K(random_complex(rng, max_deg=3, max_rank=2, span=2), 4)
                   for _ in range(4)]
    for a in structured:
        for m in _stacked_faces(a):
            check(m)
    assert checked >= 300


def test_moore_basis_of_reduced_spheres_needs_no_dense_smith_reduction(monkeypatch):
    dense = _count_dense_calls(monkeypatch)
    for k in (1, 2):
        for d in range(1, 7):
            a = free_reduced_Z(sphere(k), d)
            bases = moore_basis(a)
            assert dense == [], (k, d)
            for n in range(1, d + 1):
                for i in range(1, n + 1):
                    assert (a.face(n, i) @ bases[n]).is_zero()
            assert [bases[n].cols for n in range(d + 1)] == [1 if n == k else 0 for n in range(d + 1)]


def test_products_match_a_naive_triple_loop():
    rng = random.Random(77)
    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)) for _ in range(80)]
    for n, k, m in shapes:
        density = rng.choice((0.05, 0.3, 1.0))
        a = _sparse_matrix(rng, n, k, density, (-3, -1, 1, 2, 5))
        b = _sparse_matrix(rng, k, m, density, (-2, -1, 1, 4))
        assert (a @ b).shape == (n, m)
        assert (a @ b).to_lists() == _naive_product(a, b)
        v = [rng.randint(-5, 5) for _ in range(k)]
        assert a.mul_vec(v) == tuple(sum(a.at(i, t) * v[t] for t in range(k)) for i in range(n))
    with pytest.raises(ValueError):
        M([[1, 2]]) @ M([[1, 2]])
    with pytest.raises(ValueError):
        M([[1, 2]]).mul_vec([1])


@pytest.mark.parametrize("v, message", [
    ((0.5, True), "entry 0 is 0.5, not an int"),
    ((1, True), "entry 1 is True, not an int"),
    ((2.0, 1), "entry 0 is 2.0, not an int"),
])
def test_mul_vec_rejects_an_entry_that_is_not_an_int(v, message):
    """A float or a bool is refused, not multiplied as the number it
    equals; int vectors give the products they gave."""
    a = M([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        a.mul_vec(v)
    assert a.mul_vec((1, -2)) == (-3, -5)
    assert a.mul_vec([0, 0]) == (0, 0)
    assert M([[0, 7]]).mul_vec((10**30, 3)) == (21,)


def _vanishing_cases(rng):
    """Seeded (a, b) pairs for `_product_vanishes`: sparse +-1 matrices,
    ones with +-2 and +-3 entries, rows with one entry or none, zero
    matrices, pairs whose product is zero (a with a kernel basis, d(n)
    with d(n+1) of a space's chains) and each of those with one entry
    changed."""
    cases = [(IntMatrix.zero(3, 4), IntMatrix.zero(4, 2)), (IntMatrix.zero(0, 3), M([[1], [1], [-1]])),
             (IntMatrix.zero(2, 0), IntMatrix.zero(0, 5))]
    # +1, +1, -1, -1 in one column cancel; +1, +1, -1 do not
    cases += [(M([[1, 1, -1, -1]]), M([[1], [1], [1], [1]])), (M([[1, 1, -1]]), M([[1], [1], [1]])),
              (M([[1, -1, 1, -1]]), M([[1, -1], [1, -1], [-1, 1], [-1, 1]]))]
    for _ in range(250):
        n, k, m = rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7)
        values = rng.choice(((-1, 1), (-1, 1), (-3, -2, -1, 1, 2, 3)))
        density = rng.choice((0.0, 0.1, 0.3, 1.0))
        a = _sparse_matrix(rng, n, k, density, values)
        b = _sparse_matrix(rng, k, m, density, values)
        # at most one entry per row of a: each selects one row of b
        mono = IntMatrix.from_entries(n, k, [(i, rng.randrange(k), rng.choice(values))
                                             for i in range(n) if k and rng.random() < 0.7])
        cases += [(a, b), (mono, b), (a, kernel_basis(a))]
    spaces = [sphere(2), product(sphere(1), sphere(1)), product(sphere(2), sphere(1))]
    spaces += [random_pointed_space(rng) for _ in range(8)]
    spaces += [product(random_pointed_space(rng), sphere(1)) for _ in range(4)]
    for x in spaces:
        c = chains(x)
        cases += [(c.d(n), c.d(n + 1)) for n in range(1, c.max_deg)]
    for a, b in list(cases):
        if a.rows and b.rows and b.cols:
            i, j = rng.randrange(b.rows), rng.randrange(b.cols)
            bumped = IntMatrix.from_entries(b.rows, b.cols, [(i, j, rng.choice((-2, -1, 1)))])
            cases.append((a, b + bumped))
    return cases


def test_product_vanishes_exactly_when_the_product_is_zero(rng):
    zero = nonzero = 0
    for a, b in _vanishing_cases(rng):
        want = (a @ b).is_zero()
        assert _product_vanishes(a, b) == want, (a, b)
        zero += want
        nonzero += not want
    assert zero >= 300 and nonzero >= 300
    with pytest.raises(ValueError, match="shape mismatch"):
        _product_vanishes(M([[1, 2]]), M([[1, 2]]))


def _elimination_cases(rng):
    """Matrices for the coreduction against the heap-only elimination:
    seeded sparse +-1 and general ones, and the differentials of the
    chains of the boundaries of simplices up to the 8-simplex, of
    products and of conjugated torsion complexes; the complexes are
    returned too."""
    ms = []
    for _ in range(150):
        values = rng.choice(((-1, 1), (-1, 1, 2), (-3, -2, -1, 1, 2, 3)))
        ms.append(_sparse_matrix(rng, rng.randint(0, 9), rng.randint(0, 9),
                                 rng.choice((0.15, 0.3, 0.6)), values))
    complexes = [chains(boundary(n)) for n in range(2, 9)]
    complexes += [chains(product(sphere(1), sphere(1))), chains(product(sphere(2), sphere(1))),
                  chains(product(boundary(2), boundary(3)))]
    complexes += [conjugated_torsion_complex(rng, 3, 6)[0] for _ in range(6)]
    ms += [c.d(n) for c in complexes for n in c.degrees()]
    return ms, complexes


def _check_elimination(stored, limit, skip=()):
    """`_eliminate`'s result on stored rows, with its promises checked:
    the residue's rows are nonzero and hold no +-1 entry below limit, cols
    is exactly their occupancy, and pivot rows and columns are gone."""
    pivots, rows, cols = _eliminate(stored, limit, skip)
    assert all(rows.values())
    occupancy = {}
    for i, row in rows.items():
        assert not any(x in (1, -1) for j, x in row.items() if j < limit)
        for j in row:
            occupancy.setdefault(j, set()).add(i)
    assert cols == occupancy
    assert not {p for p, _, _, _ in pivots} & set(rows)
    assert not {q for _, q, _, _ in pivots} & set(cols)
    return pivots, rows, cols


def test_coreduction_matches_the_heap_only_elimination(monkeypatch, rng):
    """Invariant factors, kernels, solves and homology with the
    coreduction phase against `helpers.heap_only_eliminate` in its place:
    the same factors, kernel bases that span each other's lattice, every
    solution a true one and None exactly where the oracle's is."""
    ms, complexes = _elimination_cases(rng)

    def answers(m, bs):
        return invariant_factors(m), kernel_basis(m), [solve_exact(m, b) for b in bs]

    for m in ms:
        _check_elimination(m.nonzeros, m.cols)
        bs = [m @ _sparse_matrix(rng, m.cols, 2, 0.5, (-1, 1, 2)),
              _sparse_matrix(rng, m.rows, 2, 0.3, (-1, 1, 2))]
        factors, k, xs = answers(m, bs)
        with monkeypatch.context() as patch:
            patch.setattr(skernel.matrices, "_eliminate", heap_only_eliminate)
            want_factors, want_k, want_xs = answers(m, bs)
        assert factors == want_factors, m.to_lists()
        assert k.shape == want_k.shape and (m @ k).is_zero()
        assert solve_exact(k, want_k) is not None and solve_exact(want_k, k) is not None
        for b, x, want in zip(bs, xs, want_xs):
            assert (x is None) == (want is None), (m.to_lists(), b.to_lists())
            assert x is None or m @ x == b
    for c in complexes:
        got = _fresh_complex(c).homology_all()
        with monkeypatch.context() as patch:
            patch.setattr(skernel.matrices, "_eliminate", heap_only_eliminate)
            assert _fresh_complex(c).homology_all() == got


def _fresh_complex(c):
    return ChainComplex(c.min_deg, c.max_deg, {n: c.rank(n) for n in c.degrees()},
                        {n: c.d(n) for n in c.degrees()})


def test_coreduction_edge_cases():
    """A singleton 2 is not free, nor is a singleton in a column of b in
    a solve; of two rows free in one column only the first pivots, and a
    row freed and then emptied before its turn is passed over."""
    assert invariant_factors(M([[2, 0], [1, 1]])) == (1, 2)
    assert solve_exact(M([[2]]), M([[1]])) is None
    assert solve_exact(M([[2, 0], [1, 1]]), M([[2], [3]])) == M([[1], [2]])
    assert solve_exact(M([[1], [0]]), M([[1], [1]])) is None
    assert solve_exact(M([[1, 1], [0, 0]]), M([[1], [-1]])) is None
    assert _check_elimination(M([[2]]).nonzeros, 1) == ([], {0: {0: 2}}, {0: {0}})
    assert _check_elimination(M([[0, 1]]).nonzeros, 1) == ([], {0: {1: 1}}, {1: {0}})
    for rows, order in [([[1, 0], [-1, 0], [1, 1]], [(0, 0, 1), (2, 1, 1)]),
                        ([[0, 1], [1, 1], [1, 0]], [(0, 1, 1), (2, 0, 1)]),
                        ([[0, 0, 1], [1, -1, 1], [0, 1, 0]], [(0, 2, 1), (2, 1, 1), (1, 0, 1)])]:
        pivots, left, _ = _check_elimination(M(rows).nonzeros, 3)
        assert [(p, q, s) for p, q, s, _ in pivots] == order and not left
        assert all(rest == {} for _, _, _, rest in pivots)
    # the columns in skip are gone before any row is counted
    pivots, left, _ = _check_elimination(M([[1, 1], [0, 1], [2, 1]]).nonzeros, 2, frozenset({1}))
    assert [(p, q, s) for p, q, s, _ in pivots] == [(0, 0, 1)] and not left


@pytest.mark.parametrize("n", range(2, 10))
def test_boundaries_of_simplices_coreduce_below_the_top(n):
    """Reduced top-down as a complex reduces them, every differential of
    the chains of the boundary of the n-simplex but the top one is
    cleared by coreduction alone: no pivot has a rest and nothing is
    left for the dense Smith loop."""
    c = chains(boundary(n))
    paired = frozenset()
    for k in range(c.max_deg, 0, -1):
        m = c.d(k)
        pivots, rows, _ = _check_elimination(m.nonzeros, m.cols, paired)
        assert not rows
        assert k == c.max_deg or all(rest == {} for _, _, _, rest in pivots)
        paired = frozenset(p for p, _, _, _ in pivots)


def test_kernel_basis_matches_the_per_vector_back_substitution(rng):
    """Kernel vectors back-substituted together give, on the families of
    the coreduction test, the very basis that back-substituting each
    vector through every pivot on its own gives."""
    ms, _ = _elimination_cases(rng)
    ms += [chains(boundary(9)).d(n) for n in (4, 5)]
    for m in ms:
        assert kernel_basis(m) == per_vector_kernel(m), m.to_lists()


def _bounded_diagonal_forms(run):
    """Calls run() and returns, per call of `_diagonal_mod` it makes, the
    modulus m and the largest |entry| that the local a held at any line
    of the call, read by a trace function."""
    code = skernel.matrices._diagonal_mod.__code__
    seen = []

    def local(frame, event, arg):
        a = frame.f_locals.get("a")
        if a is not None:
            seen[-1][1] = max([seen[-1][1]] + [abs(x) for row in a for x in row])
        return local

    def calls(frame, event, arg):
        if frame.f_code is code:
            seen.append([frame.f_locals["m"], 0])
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


def _residue_cases(rng):
    """Seeded matrices whose residue is not cleared by unit pivots:
    rectangular ones with entries up to 40 in absolute value, rank
    deficient ones (a row or a column a combination of two others), and
    P D Q for a diagonal D of small torsion conjugated by unimodular P
    and Q with large entries, so that entries far exceed the minors."""
    values = [x for x in range(-40, 41) if x not in (-1, 0, 1)]
    ms = []
    for _ in range(150):
        rows = [[rng.choice(values) if rng.random() < 0.6 else 0 for _ in range(rng.randint(1, 7))]]
        rows += [[rng.choice(values) if rng.random() < 0.6 else 0 for _ in rows[0]]
                 for _ in range(rng.randint(0, 6))]
        if len(rows) > 2 and rng.random() < 0.5:
            rows[-1] = [2 * x - 3 * y for x, y in zip(rows[0], rows[1])]
        if len(rows[0]) > 2 and rng.random() < 0.5:
            for row in rows:
                row[-1] = 5 * row[0] + row[1]
        ms.append(M(rows))
    for _ in range(60):
        n = rng.randint(2, 6)
        diag = sorted(rng.choice((2, 3, 4, 6, 12, 0)) for _ in range(n))
        d = M([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
        p, _ = unimodular_pair(rng, n, 4 * n)
        _, q = unimodular_pair(rng, n, 4 * n)
        ms.append(p @ d @ q)
    return ms


def test_residue_factors_match_naive_oracle(rng):
    """Invariant factors of residues left without unit entries, against
    the naive gcd oracle: rectangular, rank deficient and conjugated
    diagonal matrices, and block sums whose blocks' orders must be
    chained again (Z/2 + Z/3 is Z/6, Z/4 + Z/6 is Z/2 + Z/12)."""
    ms = _residue_cases(rng)
    ms += [block_diag(rng.sample(ms, rng.randint(2, 4))) for _ in range(40)]
    for m in ms:
        assert invariant_factors(m) == tuple(x for x in naive_snf_diagonal(m) if x), m.to_lists()
    assert invariant_factors(block_diag([M([[2]]), M([[3]])])) == (1, 6)
    assert invariant_factors(block_diag([M([[4]]), M([[6]])])) == (2, 12)
    assert invariant_factors(block_diag([M([[4, 8], [6, 4]]), M([[6, 0, 9]]), M([[10]])])) == (
        1, 2, 2, 240)
    assert invariant_factors(M([[2, 4, 6], [4, 8, 12]])) == (2,)
    assert invariant_factors(M([[6, 4], [9, 6], [3, 2]])) == (1,)


def test_residue_chain_matches_prime_factorization(rng):
    """`_chain` against `group_of_divisors`, which sorts the exponents of
    each prime: seeded lists, and 6,000 orders of Z/2 and Z/3 whose
    chain is 3,000 ones and 3,000 sixes."""
    values = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 25, 30, 36, 60, 72)
    for _ in range(400):
        orders = [rng.choice(values) for _ in range(rng.randint(1, 14))]
        got = _chain(list(orders))
        assert len(got) == len(orders) and all(b % a == 0 for a, b in zip(got, got[1:]))
        assert tuple(x for x in got if x > 1) == group_of_divisors(orders).torsion, orders
    mixed = [2, 3] * 3000
    rng.shuffle(mixed)
    assert _chain(mixed) == [1] * 3000 + [6] * 3000
    assert _chain([2] * 5000 + [4]) == [2] * 5000 + [4]


def test_residue_diagonal_form_holds_entries_within_half_the_minor(rng):
    """Every entry the diagonal form holds, at every line it runs, lies
    in (-M/2, M/2] for the minor M it reduces by, on the residue cases
    and on conjugated torsion complexes."""
    ms = _residue_cases(rng)
    complexes = [conjugated_torsion_complex(rng, 3, 8, moves)[0]
                 for moves in (2, 4) for _ in range(4)]
    seen = _bounded_diagonal_forms(lambda: ([invariant_factors(m) for m in ms],
                                            [_fresh_complex(c).homology_all() for c in complexes]))
    assert len(seen) >= 100
    assert all(2 * top <= m for m, top in seen), max(seen, key=lambda s: s[1] / s[0])
    assert sum(top > 1 for _, top in seen) >= 50  # the bound is not vacuous


@pytest.mark.parametrize("moves", [2, 4])
def test_conjugated_torsion_complexes_have_their_known_homology(moves):
    """The unit-free residues of torsion complexes whose bases are mixed
    by `moves` elementary operations per generator: every degree's
    homology is the one the pieces were built with."""
    rng = random.Random(3200 + moves)
    for top, per in [(2, 6), (3, 8), (2, 16), (4, 12), (2, 33)]:
        c, want = conjugated_torsion_complex(rng, top, per, moves)
        assert c.homology_all() == want, (top, per)


def _assert_canonical(m):
    """Per row, ascending in-range columns and no stored zero."""
    assert len(m.nonzeros) == m.rows
    for js, xs in m.nonzeros:
        assert len(js) == len(xs) and 0 not in xs
        assert list(js) == sorted(set(js)) and all(0 <= j < m.cols for j in js)


def _dense(rng, rows, cols, density):
    return [[rng.choice((-3, -1, 1, 2, 5)) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


def test_every_operation_matches_a_dense_oracle_in_canonical_form():
    """Each constructor and operation against list arithmetic, on seeded
    shapes including 0 x n and n x 0 and on entries that cancel; every
    result is stored canonically."""
    rng = random.Random(23)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1)]
    shapes += [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(200)]
    for r, c in shapes:
        rows = _dense(rng, r, c, rng.choice((0.0, 0.1, 0.4, 1.0)))
        other = _dense(rng, r, c, rng.choice((0.1, 0.5)))
        k = rng.randint(0, 5)
        right = _dense(rng, c, k, rng.choice((0.1, 0.5, 1.0)))
        small = _dense(rng, rng.randint(0, 3), rng.randint(0, 3), 0.6)
        sr, sc = len(small), len(small[0]) if small else rng.randint(0, 3)
        a, b = IntMatrix.from_rows(rows, cols=c), IntMatrix.from_rows(other, cols=c)
        rm, sm = IntMatrix.from_rows(right, cols=k), IntMatrix.from_rows(small, cols=sc)
        entries = []
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                split = rng.randint(-2, 2)
                entries += [(i, j, x - split), (i, j, split)]
        rng.shuffle(entries)
        built = IntMatrix.from_entries(r, c, entries)
        column = lambda m, j: [row[j] for row in m]
        expected = {  # name: (shape, rows)
            "from_rows": ((r, c), rows),
            "from_entries": ((r, c), rows),
            "transpose": ((c, r), [column(rows, j) for j in range(c)]),
            "+": ((r, c), [[x + y for x, y in zip(p, q)] for p, q in zip(rows, other)]),
            "-": ((r, c), [[x - y for x, y in zip(p, q)] for p, q in zip(rows, other)]),
            "a - a": ((r, c), [[0] * c for _ in range(r)]),
            "scale 0": ((r, c), [[0] * c for _ in range(r)]),
            "scale -3": ((r, c), [[-3 * x for x in p] for p in rows]),
            "@": ((r, k), [[sum(p[t] * right[t][j] for t in range(c)) for j in range(k)]
                           for p in rows]),
            "kron": ((r * sr, c * sc), [[rows[i][j] * small[p][q] for j in range(c) for q in range(sc)]
                                        for i in range(r) for p in range(sr)]),
            "hstack": ((r, 2 * c + 2), [p + q + [0, 0] for p, q in zip(rows, other)]),
            "vstack": ((2 * r, c), rows + other),
            "block_diag": ((r + sr, c + sc),
                           [p + [0] * sc for p in rows] + [[0] * c + q for q in small]),
        }
        got = {
            "from_rows": a,
            "from_entries": built,
            "transpose": a.transpose(),
            "+": a + b,
            "-": a - b,
            "a - a": a - a,
            "scale 0": a.scale(0),
            "scale -3": a.scale(-3),
            "@": a @ rm,
            "kron": a.kron(sm),
            "hstack": hstack([a, b, IntMatrix.zero(r, 2)]),
            "vstack": vstack([a, b]),
            "block_diag": block_diag([a, sm]),
        }
        for name, m in got.items():
            _assert_canonical(m)
            shape, want = expected[name]
            assert m.shape == shape, name
            assert m.to_lists() == want, name
            assert m.data == tuple(x for row in want for x in row), name
        assert built == a and hash(built) == hash(a) and repr(built) == repr(a)
        assert [a.row(i) for i in range(r)] == [tuple(p) for p in rows]
        assert [a.col(j) for j in range(c)] == [tuple(column(rows, j)) for j in range(c)]
        assert all(a.at(i, j) == rows[i][j] for i in range(r) for j in range(c))
        v = [rng.randint(-4, 4) for _ in range(c)]
        assert a.mul_vec(v) == tuple(sum(x * y for x, y in zip(p, v)) for p in rows)
        text = "\n".join(" ".join(map(str, p)) for p in rows)
        assert str(a) == (text if r and c else "[%dx%d]" % (r, c))
    for n in (0, 1, 5):
        assert IntMatrix.identity(n).to_lists() == [[int(i == j) for j in range(n)] for i in range(n)]
        assert IntMatrix.zero(n, 3).to_lists() == [[0] * 3 for _ in range(n)]
        assert IntMatrix.zero(3, n).to_lists() == [[0] * n for _ in range(3)]
    for bad in ([(2, 0, 1)], [(-1, 0, 1)], [(0, 3, 1)], [(0, -1, 1)]):
        with pytest.raises(ValueError):
            IntMatrix.from_entries(2, 3, bad)


def test_from_entries_and_transpose_edge_cases_match_the_dense_oracle():
    """Reversed entries, a repeated position that cancels and leaves an
    empty row, out-of-range positions, and transposes of 0 x n, n x 0 and
    empty-row matrices, each against list arithmetic."""
    rng = random.Random(5)
    column = lambda rows, j: [row[j] for row in rows]
    for r, c in [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(50)]:
        rows = _dense(rng, r, c, rng.choice((0.2, 0.6)))
        entries = [(i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
        built = IntMatrix.from_entries(r, c, reversed(entries))
        _assert_canonical(built)
        assert built.to_lists() == rows
        # a row whose only position repeats with values that cancel
        i = rng.randrange(r)
        cancelled = [e for e in entries if e[0] != i] + [(i, 0, 4), (i, 0, -1), (i, 0, -3)]
        rng.shuffle(cancelled)
        empty = IntMatrix.from_entries(r, c, cancelled)
        _assert_canonical(empty)
        assert empty.nonzeros[i] == ((), ())
        assert empty.to_lists() == [[0] * c if k == i else row for k, row in enumerate(rows)]
        t = empty.transpose()
        _assert_canonical(t)
        assert t.to_lists() == [column(empty.to_lists(), j) for j in range(c)]
        assert t.transpose() == empty
        for bad in ((-1, 0, 1), (0, -1, 1), (r, 0, 1), (0, c, 1)):
            with pytest.raises(ValueError):
                IntMatrix.from_entries(r, c, entries + [bad])
    for n in (0, 1, 4):
        for shape in ((0, n), (n, 0)):
            t = IntMatrix.zero(*shape).transpose()
            _assert_canonical(t)
            assert t.shape == shape[::-1] and t.to_lists() == [[] for _ in range(shape[1])]
    # a zero sum out of range still raises
    with pytest.raises(ValueError):
        IntMatrix.from_entries(2, 2, [(2, 0, 1), (2, 0, -1)])


def test_equal_matrices_built_by_different_routes_are_equal_and_hash_equal():
    a = M([[0, 2, 0], [1, 0, -3]])
    routes = [
        IntMatrix.from_entries(2, 3, [(1, 2, -1), (0, 1, 2), (1, 0, 1), (1, 2, -2), (0, 0, 4), (0, 0, -4)]),
        a.transpose().transpose(),
        IntMatrix.identity(2) @ a @ IntMatrix.identity(3),
        (a + a) - a,
        a.scale(-1).scale(-1),
        vstack([a.kron(IntMatrix.identity(1))]),
        hstack([M([[0], [1]]), M([[2, 0], [0, -3]])]),
        block_diag([a, IntMatrix.zero(0, 0)]),
    ]
    for b in routes:
        assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
        assert b.nonzeros == (((1,), (2,)), ((0, 2), (1, -3)))
        assert {a: "found"}[b] == "found"
    assert a != M([[0, 2, 0], [1, 0, 3]])
    assert IntMatrix.zero(2, 3) != IntMatrix.zero(3, 2)


def test_identity_zero_and_kernel_maps_take_linear_space():
    """An n x n identity or zero map stores n rows and at most n entries,
    so a complex of rank 10^5 without differentials truncates without a
    10^10-entry allocation."""
    n = 10**5
    stored = lambda m: (len(m.nonzeros), sum(len(js) for js, _ in m.nonzeros))
    assert stored(IntMatrix.identity(n)) == (n, n)
    assert stored(IntMatrix.zero(n, n)) == (n, 0)
    k = kernel_basis(IntMatrix.zero(0, n))
    assert k == IntMatrix.identity(n) and stored(k) == (n, n)
    t = ChainComplex(0, 0, {0: n}, {}).truncate_good(0)
    assert t.rank(0) == n and t.homology(0) == HomologyGroup(n)


def test_kron_row_major_convention():
    a = M([[1, 2], [3, 4]])
    x = M([[5, 6], [7, 8]])
    b = M([[1, 0], [1, 1]])
    lhs = a.kron(b.transpose())
    vec_x = IntMatrix.from_rows([[v] for v in x.data])
    out = lhs @ vec_x
    direct = a @ x @ b
    assert tuple(out.data) == direct.data


def test_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        _, d, _ = smith_normal_form(M(entries))
        sd = sympy_snf(Matrix(entries), domain=ZZ)
        theirs = sorted(abs(sd[i, j]) for i in range(sd.rows) for j in range(sd.cols) if sd[i, j] != 0)
        ours = sorted(x for x in diagonal_of(d) if x)
        assert ours == theirs
