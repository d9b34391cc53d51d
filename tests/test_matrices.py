import random

import pytest
from hypothesis import given, settings, strategies as st

import skernel.matrices
from skernel.complexes import HomologyGroup, group_from_presentation
from skernel.matrices import (
    IntMatrix,
    diagonal_of,
    invariant_factors,
    inverse_unimodular,
    is_unimodular,
    kernel_basis,
    smith_normal_form,
    solve_exact,
)

from helpers import naive_snf_diagonal


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
    assert inverse_unimodular(u) == M([[1, -1], [0, 1]])


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


def test_invariant_factors_match_naive_oracle(monkeypatch):
    """Sparse unit-pivot elimination against the naive gcd oracle, with
    the dense Smith calls it makes counted per family: none when the
    unit pivots clear everything, at least one when a factor above 1 or
    a unit-free residue is left."""
    dense = []
    original = skernel.matrices.smith_normal_form

    def counting(m, want_u=True, want_v=True):
        dense.append(m.shape)
        return original(m, want_u, want_v)

    monkeypatch.setattr(skernel.matrices, "smith_normal_form", counting)
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


def test_kron_row_major_convention():
    a = M([[1, 2], [3, 4]])
    x = M([[5, 6], [7, 8]])
    b = M([[1, 0], [1, 1]])
    lhs = a.kron(b.transpose())
    vec_x = IntMatrix(4, 1, tuple(x.data))
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
