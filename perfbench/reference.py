"""Independent references and input generators for the benchmark.

Nothing here imports skernel.  Expected answers come from closed forms
(spheres, simplex boundaries, Kuenneth, suspension shifts, the universal
coefficient theorem for Hom complexes) or hold by construction (torsion
complexes are direct sums of Z --k--> Z and Z conjugated by unimodular
matrices).  Invariant factors come from prime factorisation, never from
an elimination, so a defect in skernel's Smith normal form cannot leak
into the reference.

A group is a pair (free_rank, torsion) with torsion the invariant factors
in divisibility order, the same normal form skernel reports.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb, gcd

ZERO = (0, ())


# -- finitely generated abelian groups ----------------------------------------


def _prime_powers(k: int) -> dict:
    out = {}
    p = 2
    while p * p <= k:
        while k % p == 0:
            out[p] = out.get(p, 1) * p
            k //= p
        p += 1
    if k > 1:
        out[k] = out.get(k, 1) * k
    return out


def invariant_factors(orders) -> tuple:
    """Invariant factors of the direct sum of Z/k over `orders` (units
    dropped), assembled from elementary divisors."""
    by_prime = {}
    for k in orders:
        for p, q in _prime_powers(abs(k)).items():
            by_prime.setdefault(p, []).append(q)
    for qs in by_prime.values():
        qs.sort(reverse=True)
    count = max((len(qs) for qs in by_prime.values()), default=0)
    factors = []
    for i in range(count):
        f = 1
        for qs in by_prime.values():
            if i < len(qs):
                f *= qs[i]
        factors.append(f)
    return tuple(sorted(factors))


def group(free: int, orders=()) -> tuple:
    return (free, invariant_factors(orders))


def group_str(g) -> str:
    """The text skernel prints for a group: Z, Z^r and Z/t joined by +."""
    free, torsion = g
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append("Z^%d" % free)
    parts.extend("Z/%d" % t for t in torsion)
    return " + ".join(parts) if parts else "0"


def _cyclics(g) -> list:
    """A group as a list of cyclic orders, 0 standing for Z."""
    return [0] * g[0] + list(g[1])


def _hom_cyclic(a: int, b: int) -> int:
    if a == 0:
        return b
    if b == 0:
        return 1
    return gcd(a, b)


def _ext_cyclic(a: int, b: int) -> int:
    if a == 0:
        return 1
    if b == 0:
        return a
    return gcd(a, b)


def _sum_cyclic(orders) -> tuple:
    orders = list(orders)
    return group(sum(1 for k in orders if k == 0), [k for k in orders if k > 1])


def hom_group(h1, h2) -> tuple:
    return _sum_cyclic(_hom_cyclic(a, b) for a in _cyclics(h1) for b in _cyclics(h2))


def ext_group(h1, h2) -> tuple:
    return _sum_cyclic(_ext_cyclic(a, b) for a in _cyclics(h1) for b in _cyclics(h2))


def homotopy_classes(hk: dict, hl: dict) -> tuple:
    """[K, L] = H_0 Hom(K, L) for bounded complexes of free groups, by the
    universal coefficient theorem: the product over n of
    Hom(H_n K, H_n L) + Ext(H_{n-1} K, H_n L)."""
    orders = []
    for n in set(hk) | set(hl) | {n + 1 for n in hk}:
        hn = hl.get(n, ZERO)
        orders += _cyclics(hom_group(hk.get(n, ZERO), hn))
        orders += _cyclics(ext_group(hk.get(n - 1, ZERO), hn))
    return _sum_cyclic(orders)


# -- graded free homology of standard spaces ------------------------------------


def boundary_homology(n: int) -> dict:
    """Unreduced homology of the boundary of the n-simplex."""
    if n == 1:
        return {0: 2}
    return {0: 1, n - 1: 1}


def sphere_reduced(k: int) -> dict:
    return {k: 1}


def kunneth(a: dict, b: dict) -> dict:
    """Free ranks of H(X x Y) (or of the reduced H(X ^ Y) when both inputs
    are reduced); all inputs here have free homology, so Tor vanishes."""
    out = {}
    for i, ra in a.items():
        for j, rb in b.items():
            out[i + j] = out.get(i + j, 0) + ra * rb
    return {n: r for n, r in out.items() if r}


def unreduced(h: dict) -> dict:
    out = dict(h)
    out[0] = out.get(0, 0) + 1
    return out


def reduced(h: dict) -> dict:
    out = dict(h)
    out[0] -= 1
    return {n: r for n, r in out.items() if r}


# -- unimodular conjugation and torsion complexes --------------------------------


def unimodular_pair(rng, n: int, moves: int):
    """A unimodular n x n matrix P with its inverse, built from seeded
    elementary moves (row additions, swaps, sign changes); P^-1 applies
    the inverse moves in reverse, so P @ P^-1 = I by construction."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        if n == 1 and rng.random() < 0.5:
            p[0][0] = q[0][0] = -1
        return p, q
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        kind = rng.random()
        if kind < 0.8:
            c = rng.choice((-1, 1))
            # P <- E P with E = I + c e_ij; P^-1 <- P^-1 E^-1
            pi, pj = p[i], p[j]
            for t in range(n):
                pi[t] += c * pj[t]
            for row in q:
                row[j] -= c * row[i]
        elif kind < 0.9:
            p[i], p[j] = p[j], p[i]
            for row in q:
                row[i], row[j] = row[j], row[i]
        else:
            p[i] = [-x for x in p[i]]
            for row in q:
                row[i] = -row[i]
    return p, q


def matmul(a, b, inner=None):
    """Product of row-list matrices (inner dimension given for empty a)."""
    k = len(b) if inner is None else inner
    m = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * m
        for t in range(k):
            c = row[t]
            if c:
                brow = b[t]
                for j in range(m):
                    acc[j] += c * brow[j]
        out.append(acc)
    return out


ORDERS = (1, 2, 2, 3, 4, 5, 6, 8, 9, 12)


def torsion_complex(rng, top: int, rank: int, moves_per_rank: float = 0.5):
    """A chain complex in degrees 0..top with rank // (top + 1) generators
    in each degree and known homology.

    It is the direct sum of pieces Z --k--> Z from degree n to n - 1 and
    of free summands Z, with each degree's basis changed by a seeded
    unimodular matrix.  The ranks depend only on (top, rank), so the
    seed moves the homology but hardly the cost.  Returns (ranks, d,
    homology) with d[n] a row list C_n -> C_{n-1} and homology
    {n: (free, invariant factors)}.
    """
    per = max(1, rank // (top + 1))
    ranks = {n: per for n in range(top + 1)}
    used = {n: 0 for n in range(top + 1)}
    pieces = []  # (n, k): Z in degree n maps by k onto Z in degree n - 1
    for n in range(top, 0, -1):
        for _ in range(rng.randint(0, min(per - used[n], per - used[n - 1]))):
            pieces.append((n, rng.choice(ORDERS)))
            used[n] += 1
            used[n - 1] += 1
    frees = {n: per - used[n] for n in ranks}
    index = {n: 0 for n in range(top + 1)}
    entries = {n: [] for n in range(1, top + 1)}
    slots = {n: list(range(ranks[n])) for n in ranks}
    for n in slots:
        rng.shuffle(slots[n])
    for n, k in pieces:
        col = slots[n][index[n]]
        index[n] += 1
        row = slots[n - 1][index[n - 1]]
        index[n - 1] += 1
        entries[n].append((row, col, k))
    conj = {n: unimodular_pair(rng, ranks[n], int(moves_per_rank * ranks[n])) for n in ranks}
    d = {}
    for n in range(1, top + 1):
        if not ranks[n] or not ranks[n - 1]:
            continue
        p_low, _ = conj[n - 1]
        _, q_high = conj[n]
        out = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        # P_{n-1} (sum k e_rc) P_n^-1: each piece adds k * column r of P_{n-1}
        # times row c of P_n^-1
        for r, c, k in entries[n]:
            qrow = q_high[c]
            for i in range(ranks[n - 1]):
                a = k * p_low[i][r]
                if a:
                    orow = out[i]
                    for j, b in enumerate(qrow):
                        if b:
                            orow[j] += a * b
        d[n] = out
    homology = {}
    for n in range(top + 1):
        g = group(frees[n], [k for m, k in pieces if m == n + 1 and k > 1])
        if g != ZERO:
            homology[n] = g
    return ranks, d, homology


def chain_complex_doc(ranks: dict, d: dict) -> dict:
    lo = min(ranks)
    hi = max(ranks)
    return {"min": lo, "max": hi,
            "ranks": {str(n): r for n, r in ranks.items() if r},
            "d": {str(n): rows for n, rows in d.items() if rows and rows[0]}}


def support(ranks: dict) -> range:
    """Degrees skernel keeps after trimming a complex to its support."""
    nz = [n for n, r in ranks.items() if r]
    return range(min(nz), max(nz) + 1) if nz else range(0, 1)


# -- simplex boundaries, spheres, and the surjection model of Z~S^k ------------------


def simplex_boundary_chains(n: int):
    """Ordered simplicial chains of the boundary of the n-simplex: basis
    the proper nonempty vertex subsets, d the alternating face sum."""
    basis = {p: list(combinations(range(n + 1), p + 1)) for p in range(n)}
    ranks = {p: len(b) for p, b in basis.items()}
    d = {}
    for p in range(1, n):
        index = {s: i for i, s in enumerate(basis[p - 1])}
        out = [[0] * ranks[p] for _ in range(ranks[p - 1])]
        for col, s in enumerate(basis[p]):
            for i in range(p + 1):
                out[index[s[:i] + s[i + 1:]]][col] += -1 if i % 2 else 1
        d[p] = out
    return ranks, d


def _vid(s) -> str:
    return "v" + "".join(str(v) for v in s)


def boundary_set_doc(n: int, pointed: bool = False) -> dict:
    """The boundary of the n-simplex as a simplicial-set document."""
    cells = {str(p): [_vid(s) for s in combinations(range(n + 1), p + 1)] for p in range(n)}
    faces = {}
    for p in range(1, n):
        for s in combinations(range(n + 1), p + 1):
            faces[_vid(s)] = [_vid(s[:i] + s[i + 1:]) for i in range(p + 1)]
    doc = {"pointed": pointed, "cells": cells, "faces": faces}
    if pointed:
        doc["basepoint"] = "v0"
    return doc


def sphere_set_doc(k: int) -> dict:
    """S^k as one vertex and one k-cell whose faces are the degenerate
    basepoint (the pointed minimal model)."""
    if k == 0:
        return {"pointed": True, "basepoint": "*", "cells": {"0": ["*", "p"]}, "faces": {}}
    face = " ".join("s%d" % j for j in range(k - 2, -1, -1))
    face = (face + " *") if face else "*"
    return {"pointed": True, "basepoint": "*",
            "cells": {"0": ["*"], str(k): ["c"]},
            "faces": {"c": [face] * (k + 1)}}


def point_doc() -> dict:
    return {"pointed": True, "basepoint": "*", "cells": {"0": ["*"]}, "faces": {}}


def _surjections(n: int, k: int) -> list:
    """Order-preserving surjections [n] -> [k] as value tuples, sorted."""
    out = []
    for cuts in combinations(range(1, n + 1), k):
        vals, v = [], 0
        for i in range(n + 1):
            if v < k and i == cuts[v]:
                v += 1
            vals.append(v)
        out.append(tuple(vals))
    return sorted(out)


def zsphere_group(k: int, top: int):
    """Z~S^k truncated at `top`, with S^k = Delta^k / boundary: level n is
    free on the surjections [n] -> [k]; faces drop a position (to zero
    when the result stops being surjective), degeneracies repeat one.
    Returns (ranks, face, degen) with row-list matrices keyed (n, i)."""
    basis = {n: _surjections(n, k) for n in range(top + 1)}
    index = {n: {s: i for i, s in enumerate(b)} for n, b in basis.items()}
    ranks = [len(basis[n]) for n in range(top + 1)]

    def matrix(n_src, n_tgt, op):
        out = [[0] * ranks[n_src] for _ in range(ranks[n_tgt])]
        for col, s in enumerate(basis[n_src]):
            row = index[n_tgt].get(op(s))
            if row is not None:
                out[row][col] = 1
        return out

    face = {(n, i): matrix(n, n - 1, lambda s, i=i: s[:i] + s[i + 1:])
            for n in range(1, top + 1) for i in range(n + 1)}
    degen = {(n, j): matrix(n, n + 1, lambda s, j=j: s[:j + 1] + s[j:])
             for n in range(top) for j in range(n + 1)}
    return ranks, face, degen


def bar_group(ranks, face, degen):
    """The bar construction B(A)_n = A_n^n: the block (t, s) of the face
    d_i is A's d_i when slot s of the source feeds slot t of the target
    (d_0 drops the first slot, d_n the last, the others add two adjacent
    slots); d_j inserts a zero slot at j and applies A's s_j."""
    top = len(ranks) - 1
    branks = [n * ranks[n] for n in range(top + 1)]

    def blocks(rows_r, cols_r, nt, ns, feeds, inner):
        out = [[0] * (ns * cols_r) for _ in range(nt * rows_r)]
        for t in range(nt):
            for s in feeds(t):
                for a in range(rows_r):
                    src = inner[a]
                    row = out[t * rows_r + a]
                    for b in range(cols_r):
                        row[s * cols_r + b] = src[b]
        return out

    bface = {}
    for n in range(1, top + 1):
        for i in range(n + 1):
            def feeds(t, i=i):
                if i == 0:
                    return [t + 1]
                if t + 1 < i:
                    return [t]
                if t + 1 == i:
                    return [t, t + 1]
                return [t + 1]
            bface[(n, i)] = blocks(ranks[n - 1], ranks[n], n - 1, n, feeds, face[(n, i)])
    bdegen = {}
    for n in range(top):
        for j in range(n + 1):
            def feeds(t, j=j):
                return [] if t == j else [t if t < j else t - 1]
            bdegen[(n, j)] = blocks(ranks[n + 1], ranks[n], n + 1, n, feeds, degen[(n, j)])
    return branks, bface, bdegen


def group_doc(ranks, face, degen) -> dict:
    def ops(table):
        return {"%d,%d" % key: m for key, m in table.items() if m and m[0]}
    return {"D": len(ranks) - 1, "ranks": {str(n): r for n, r in enumerate(ranks)},
            "face": ops(face), "degen": ops(degen)}


def binomial_ranks(k: int, top: int) -> tuple:
    """Level ranks of Z~S^k (and of K(Z[k])): C(n, k) at level n."""
    return tuple(comb(n, k) for n in range(top + 1))


def dold_kan_ranks(chain_ranks: dict, top: int) -> tuple:
    """Level n of K(C) is the sum of C_k over surjections [n] -> [k]."""
    return tuple(sum(comb(n, k) * chain_ranks.get(k, 0) for k in range(n + 1))
                 for n in range(top + 1))


# -- exact checks on matrices --------------------------------------------------------


def determinant(m) -> int:
    """Fraction-free (Bareiss) determinant of a square row-list matrix."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def is_identity(m) -> bool:
    return all(x == int(i == j) for i, row in enumerate(m) for j, x in enumerate(row))


def dumps(doc) -> str:
    """The layout skernel's own serializer writes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
