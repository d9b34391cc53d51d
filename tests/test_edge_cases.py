"""One digest over the library's edge cases: empty and zero-rank
complexes, groups with empty levels, and the shuffle and
Alexander-Whitney maps.  It pins the answers of the general code paths
on inputs that special-case branches would otherwise have handled, so a
branch deleted because the general path covers it must leave every byte
the same."""

from __future__ import annotations

import hashlib
import random

from skernel.complexes import ChainMap, ValidationError, cone, homotopy_class_group, single
from skernel.generators import random_complex, random_sab
from skernel.simpab import (
    dold_kan_K,
    ez_maps,
    free_reduced_Z,
    kn_roundtrip_ok,
    constant_group,
    moore_basis,
    moore_projection,
    nk_roundtrip_iso,
    normalize_N,
    unnormalized_complex,
)
from skernel.simplicial import SimplicialMap
from skernel.spaces import boundary, chain_map_of, chains, point, simplex, sphere

# SHA-256 of every line `_edge_case_lines` yields
EDGE_CASE_DIGEST = "13e5a5be13b4566bc510d86d369375819d353ae92bf5f538899d44b4e0b4673a"


def _matrix(m) -> str:
    # repr tells an int entry from an equal float or bool
    return "%dx%d %r" % (m.rows, m.cols, m.nonzeros)


def _complex(c) -> str:
    return "C[%d,%d] %r %s" % (c.min_deg, c.max_deg, [c.rank(n) for n in c.degrees()],
                              " ".join(_matrix(c.d(n)) for n in range(c.min_deg, c.max_deg + 2)))


def _chain_map(f) -> str:
    lo = min(f.source.min_deg, f.target.min_deg)
    hi = max(f.source.max_deg, f.target.max_deg)
    return "%s -> %s: %s" % (_complex(f.source), _complex(f.target),
                             " ".join(_matrix(f.component(n)) for n in range(lo, hi + 1)))


def _attempt(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except (ValidationError, ValueError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _ez_lines(a, b):
    pair = ez_maps(a, b)
    yield "shuffle " + _chain_map(pair.shuffle)
    yield "aw " + _chain_map(pair.aw)


def _group_lines(a):
    bases = moore_basis(a)
    yield " ".join(_matrix(bases[n]) for n in range(a.D + 1))
    yield _complex(normalize_N(a))
    yield _complex(unnormalized_complex(a))
    yield " ".join(_matrix(moore_projection(a, bases, n)) for n in range(a.D + 1))
    yield "kn %s" % kn_roundtrip_ok(a)


def ez_pairs():
    """The pairs of groups whose Eilenberg-Zilber maps the digest pins."""
    for a, b, d in ((1, 1, 4), (1, 1, 6), (1, 1, 7), (1, 2, 4), (2, 2, 5)):
        yield free_reduced_Z(sphere(a), d), free_reduced_Z(sphere(b), d)
    for seed in range(60):
        rng = random.Random(seed)
        trunc = rng.randint(0, 3)
        yield random_sab(rng, trunc), random_sab(rng, trunc)


def groups():
    """The groups whose normalization the digest pins."""
    yield from (constant_group(0, 3), constant_group(2, 4), dold_kan_K(single(0, 1), 3),
                dold_kan_K(single(1, 2), 3))
    yield from (free_reduced_Z(x, 3) for x in (point(), sphere(0), sphere(3)))
    yield from (random_sab(random.Random(seed), seed % 5) for seed in range(120))


def _edge_case_lines():
    for a, b in ez_pairs():
        yield from _ez_lines(a, b)
    for a in groups():
        yield from _group_lines(a)

    for seed in range(200):
        c = random_complex(random.Random(seed))
        yield _complex(c)
        yield " ".join(_complex(c.truncate_stupid(n)) for n in range(-2, 5))
        yield _complex(c.dual())
        yield _complex(c.tensor(c))
        yield _complex(cone(ChainMap.identity(c)))
        yield _complex(cone(ChainMap.zero(c, c)))
        yield repr(homotopy_class_group(c, c))
        yield _attempt(lambda: {n: _matrix(m) for n, m in nk_roundtrip_iso(c, 3).items()})

    for r in range(3):
        for d in range(-1, 3):
            yield _complex(single(r, d))

    for x in (boundary(0), point(), sphere(0), simplex(0), sphere(2)):
        yield _complex(chains(x))
        yield _complex(chains(x, normalized=False, cap=3))
        yield _chain_map(chain_map_of(SimplicialMap.identity(x)))


def edge_case_digest() -> str:
    digest = hashlib.sha256()
    for line in _edge_case_lines():
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_edge_cases_are_pinned():
    assert edge_case_digest() == EDGE_CASE_DIGEST
