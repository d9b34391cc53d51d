"""Seeded random instances for the verification suite.

All generators take an explicit random.Random so that a fixed seed
reproduces every instance bit for bit; the randomized constructions are
rigged to satisfy their structural invariants by construction (chain
complexes square to zero because each differential is built through the
kernel of the previous one, triangles are assembled from matching edge
pools).
"""

from __future__ import annotations

import random

from .complexes import ChainComplex
from .matrices import IntMatrix, diagonal_of, smith_normal_form
from .simpab import SimplicialAbGroup, bar_B, dold_kan_K, free_reduced_Z, tensor_sab
from .simplicial import SimplexRef, SimplicialSet
from .spaces import sphere


def random_complex(rng: random.Random, max_deg: int = 3, max_rank: int = 3,
                   span: int = 3) -> ChainComplex:
    """A random bounded complex in degrees [0, max_deg]; the top
    differential is free and each one below factors through the kernel
    of its successor, so d d = 0 holds by construction.

    That kernel is spanned by the columns of the dense Smith V over the
    zero diagonal, a fixed recipe that keeps every seeded instance the
    same whatever basis `kernel_basis` returns."""
    ranks = [rng.randint(0, max_rank) for _ in range(max_deg + 1)]
    if all(r == 0 for r in ranks):
        ranks[0] = 1
    d = {}
    prev_kernel = None
    for n in range(1, max_deg + 1):
        rlow, rhigh = ranks[n - 1], ranks[n]
        if rlow == 0 or rhigh == 0:
            prev_kernel = None
            continue
        if prev_kernel is None:
            mat = IntMatrix.from_rows(
                [[rng.randint(-span, span) for _ in range(rhigh)] for _ in range(rlow)],
                cols=rhigh,
            )
        else:
            coeff = IntMatrix.from_rows(
                [[rng.randint(-1, 1) for _ in range(rhigh)] for _ in range(prev_kernel.cols)],
                cols=rhigh,
            )
            mat = prev_kernel @ coeff
        d[n] = mat
        _, dm, v = smith_normal_form(mat, want_u=False)
        r = sum(1 for x in diagonal_of(dm) if x)
        prev_kernel = IntMatrix.from_rows([v.row(i)[r:] for i in range(v.rows)], cols=v.cols - r)
    return ChainComplex(0, max_deg, {n: r for n, r in enumerate(ranks)}, d)


def random_matrix(rng: random.Random, rows: int, cols: int, span: int = 9) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_pointed_space(rng: random.Random, n_extra_vertices: int = 3,
                         n_edges: int = 5, n_triangles: int = 2) -> SimplicialSet:
    """A random pointed simplicial set of dimension at most two.

    Triangles are filled against randomly chosen edge pools with matching
    endpoints (degenerate edges allowed on loops), so the simplicial
    identities hold by construction.
    """
    vertices = ["v%d" % i for i in range(n_extra_vertices + 1)]
    cells = {0: list(vertices)}
    faces = {}
    edges = []
    for t in range(n_edges):
        src, dst = rng.choice(vertices), rng.choice(vertices)
        e = "e%d" % t
        edges.append((e, src, dst))
        faces[(e, 0)] = SimplexRef((), dst)
        faces[(e, 1)] = SimplexRef((), src)
    cells[1] = [e for e, _, _ in edges]

    def one_simplices(src, dst):
        pool = [SimplexRef((), e) for e, s, d in edges if (s, d) == (src, dst)]
        if src == dst:
            pool.append(SimplexRef((0,), src))
        return pool

    triangles = []
    for t in range(n_triangles):
        for _ in range(30):
            u, v, w = rng.choice(vertices), rng.choice(vertices), rng.choice(vertices)
            bottom, diag, top = one_simplices(u, v), one_simplices(u, w), one_simplices(v, w)
            if bottom and diag and top:
                cid = "t%d" % t
                triangles.append(cid)
                faces[(cid, 0)] = rng.choice(top)
                faces[(cid, 1)] = rng.choice(diag)
                faces[(cid, 2)] = rng.choice(bottom)
                break
    if triangles:
        cells[2] = triangles
    return SimplicialSet(cells, faces, pointed=True, basepoint="v0")


def random_sab(rng: random.Random, trunc: int = 3, max_rank: int = 2) -> SimplicialAbGroup:
    """A random simplicial abelian group: the inverse Dold-Kan functor
    applied to a random complex, a free reduction of a sphere, their
    tensor, or a bar construction, chosen at random."""
    choice = rng.randrange(4)
    if choice == 0:
        return dold_kan_K(random_complex(rng, max_deg=trunc, max_rank=max_rank, span=2), trunc)
    if choice == 1:
        return free_reduced_Z(sphere(rng.randint(1, 2)), trunc)
    if choice == 2:
        a = dold_kan_K(random_complex(rng, max_deg=2, max_rank=1, span=2), trunc)
        b = free_reduced_Z(sphere(1), trunc)
        return tensor_sab(a, b)
    return bar_B(free_reduced_Z(sphere(rng.randint(1, 2)), trunc))
