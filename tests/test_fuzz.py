"""Fuzz gate for input documents.

Simplicial-set documents (random and mutated `cells` / `faces`, with
random degeneracy words) go to `skernel space-homology`: each must exit 0
(it was a valid simplicial set) or 2.  They also go to `wr-verify`, and
diagram documents built from them (spaces and maps, mutated) go to
`pushout` and `cylinder`.  Chain-complex and simplicial-group documents
(random and mutated, ranks <= 3, D <= 3, entries <= 9 in absolute value)
go to `homology`, `bar`, `nk-roundtrip` and `ez-verify`, and pairs of
them to `tower-report`.  Every command but `space-homology` must exit 0,
1 (a verification failed) or 2.  Exit 2 always comes with an `error:`
line, and no traceback may escape."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from skernel.cli import main
from skernel.complexes import ChainComplex
from skernel.matrices import IntMatrix
from skernel.serialization import chain_complex_to_doc, simplicial_group_to_doc, simplicial_set_to_doc
from skernel.simpab import constant_group, dold_kan_K, free_reduced_Z
from skernel.spaces import boundary, chains, horn, point, product, simplex, smash, sphere

SEEDS = [simplicial_set_to_doc(x) for x in (
    sphere(0), sphere(2), simplex(2), boundary(3), horn(3, 1),
    product(sphere(1), sphere(1)), smash(sphere(1), sphere(1)).space,
)]
NAMES = ["v", "e", "t", "*", "c", "0", "0.1", "0.1.2", "x y", ""]

token = st.one_of(st.integers(0, 12).map("s%d".__mod__),
                 st.sampled_from(["s01", "s99999999999", "s\u00b2", "s\u0663", "s-1", "s", "s1.5"]))
word = st.lists(token, max_size=4).map(" ".join)
json_scalar = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.text(max_size=6))
json_value = st.recursive(json_scalar, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


@st.composite
def face_entry(draw, names):
    base = draw(st.one_of(st.sampled_from(names), st.text(max_size=4)))
    w = draw(word)
    return (w + " " + base).strip() if draw(st.booleans()) else draw(st.text(max_size=8))


@st.composite
def random_document(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=6, unique=True))
    cells = {}
    for name in names:
        cells.setdefault(str(draw(st.integers(-1, 4))), []).append(name)
    faces = {}
    for name in draw(st.lists(st.sampled_from(names), max_size=6, unique=True)):
        size = draw(st.integers(0, 5))
        faces[name] = [draw(face_entry(names)) for _ in range(size)]
    doc = {"cells": cells, "faces": faces}
    if draw(st.booleans()):
        doc["pointed"] = draw(json_scalar)
        doc["basepoint"] = draw(st.one_of(st.sampled_from(names), json_value))
    return doc


@st.composite
def mutated_document(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(SEEDS))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["face", "drop-face", "cell-dim", "duplicate", "field"]))
        names = [c for ids in doc["cells"].values() if isinstance(ids, list) for c in ids]
        faces = doc.get("faces")
        if kind == "face" and isinstance(faces, dict) and faces:
            cell = draw(st.sampled_from(sorted(faces)))
            if isinstance(faces[cell], list) and faces[cell]:
                i = draw(st.integers(0, len(faces[cell]) - 1))
                strings = [c for c in names if isinstance(c, str)]
                faces[cell][i] = draw(face_entry(strings or NAMES))
        elif kind == "drop-face" and isinstance(faces, dict) and faces:
            cell = draw(st.sampled_from(sorted(faces)))
            if isinstance(faces[cell], list) and faces[cell]:
                faces[cell].pop(draw(st.integers(0, len(faces[cell]) - 1)))
        elif kind == "cell-dim" and names:
            name = draw(st.sampled_from(names))
            for ids in doc["cells"].values():
                if isinstance(ids, list) and name in ids:
                    ids.remove(name)
            doc["cells"].setdefault(str(draw(st.integers(-1, 5))), []).append(name)
        elif kind == "duplicate" and names:
            doc["cells"].setdefault(str(draw(st.integers(0, 3))), []).append(
                draw(st.sampled_from(names)))
        elif kind == "field":
            key = draw(st.sampled_from(["cells", "faces", "pointed", "basepoint"]))
            doc[key] = draw(json_value)
            if key == "cells" and not isinstance(doc[key], dict):
                break
    return doc


def _run(docs, command) -> tuple:
    """Run command with one --in file per document; a single document
    may be passed bare."""
    docs = docs if isinstance(docs, tuple) else (docs,)
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(command)
        for k, doc in enumerate(docs):
            path = Path(tmp) / ("doc%d.json" % k)
            path.write_text(json.dumps(doc))
            argv += ["--in", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _check(doc, command=("space-homology",), codes=(0, 2)):
    rc, out, err = _run(doc, command)
    assert rc in codes, (doc, command, rc, err)
    assert "Traceback" not in err
    if rc == 2:
        assert out == "" and err.startswith("error: "), (doc, command, out, err)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_document())
def test_random_documents_exit_0_or_2(doc):
    _check(doc)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_document())
def test_mutated_documents_exit_0_or_2(doc):
    _check(doc)



# -- chain-complex and simplicial-group documents ----------------------------

CHAIN_SEEDS = [chain_complex_to_doc(c) for c in (
    chains(simplex(2)), chains(boundary(2)), chains(sphere(2)),
    ChainComplex(-1, 1, {-1: 1, 0: 1, 1: 1}, {0: IntMatrix.from_rows([[3]])}),
)]
GROUP_SEEDS = [simplicial_group_to_doc(a) for a in (
    constant_group(2, 3), free_reduced_Z(sphere(1), 3), free_reduced_Z(sphere(2), 3),
    dold_kan_K(ChainComplex(1, 1, {1: 1}, {}), 3),
)]
ALGEBRA_SEEDS = CHAIN_SEEDS + GROUP_SEEDS
ALGEBRA_COMMANDS = [("homology",), ("bar",), ("nk-roundtrip",), ("nk-roundtrip", "--dim", "2")]
entry = st.integers(-9, 9)


@st.composite
def matrix(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@st.composite
def random_algebra_document(draw):
    ranks = {str(n): draw(st.integers(0, 3)) for n in draw(st.lists(st.integers(-1, 3), max_size=4))}
    if draw(st.booleans()):
        lo = draw(st.integers(-1, 2))
        doc = {"min": lo, "max": lo + draw(st.integers(0, 3)), "ranks": ranks,
               "d": {str(n): draw(matrix()) for n in draw(st.lists(st.integers(-1, 4), max_size=4))}}
    else:
        ops = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=5)
        doc = {"D": draw(st.integers(0, 3)), "ranks": ranks,
               "face": {"%d,%d" % key: draw(matrix()) for key in draw(ops)},
               "degen": {"%d,%d" % key: draw(matrix()) for key in draw(ops)}}
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(json_value)
    return doc


@st.composite
def mutated_algebra_document(draw, seeds=ALGEBRA_SEEDS):
    doc = json.loads(json.dumps(draw(st.sampled_from(seeds))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["entry", "scale", "drop-row", "drop-entry", "drop-map", "rank",
                                     "field"]))
        maps = [m for field in ("d", "face", "degen") if isinstance(doc.get(field), dict)
                for m in doc[field].values() if isinstance(m, list) and m]
        if kind == "entry" and maps:
            m = draw(st.sampled_from(maps))
            row = m[draw(st.integers(0, len(m) - 1))]
            if isinstance(row, list) and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(entry)
        elif kind == "scale" and maps:
            # a multiple of one differential keeps d d = 0 and adds torsion
            m, k = draw(st.sampled_from(maps)), draw(st.integers(-3, 3))
            m[:] = [[k * x if type(x) is int else x for x in row] if isinstance(row, list) else row
                    for row in m]
        elif kind == "drop-row" and maps:
            m = draw(st.sampled_from(maps))
            m.pop(draw(st.integers(0, len(m) - 1)))
        elif kind == "drop-entry" and maps:
            row = draw(st.sampled_from(draw(st.sampled_from(maps))))
            if isinstance(row, list) and row:
                row.pop()
        elif kind == "drop-map":
            field = next((f for f in ("d", "face", "degen") if isinstance(doc.get(f), dict) and doc[f]),
                         None)
            if field:
                doc[field].pop(draw(st.sampled_from(sorted(doc[field]))))
        elif kind == "rank" and isinstance(doc.get("ranks"), dict):
            doc["ranks"][str(draw(st.integers(-1, 3)))] = draw(st.integers(0, 3))
        elif kind == "field":
            doc[draw(st.sampled_from(sorted(doc)))] = draw(json_value)
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_algebra_document(), st.sampled_from(ALGEBRA_COMMANDS))
def test_random_algebra_documents_exit_0_1_or_2(doc, command):
    _check(doc, command, codes=(0, 1, 2))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_algebra_document(), st.sampled_from(ALGEBRA_COMMANDS))
def test_mutated_algebra_documents_exit_0_1_or_2(doc, command):
    _check(doc, command, codes=(0, 1, 2))


def test_algebra_seeds_pass_their_commands():
    """The unmutated seeds are valid: each exits 0 on the commands that
    take its kind, so the mutations start from documents that work."""
    for doc in ALGEBRA_SEEDS:
        commands = [("homology",), ("nk-roundtrip",)] if "ranks" in doc and "D" not in doc else \
            [("bar",), ("nk-roundtrip",)]
        for command in commands:
            assert _run(doc, command)[0] == 0, (doc, command)


# -- wr-verify, diagram documents, ez-verify and tower-report -----------------

WR_COMMANDS = [("wr-verify", "--dim", str(d)) for d in (1, 2, 3)] + [
    ("wr-verify", "--dim", "3", "--range", "1")]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.sampled_from(SEEDS), random_document(), mutated_document()),
       st.sampled_from(WR_COMMANDS))
def test_wr_verify_documents_exit_0_1_or_2(doc, command):
    _check(doc, command, codes=(0, 1, 2))


S0, S1, S2, PT = (simplicial_set_to_doc(x) for x in (sphere(0), sphere(1), sphere(2), point()))
TO_POINT0 = {"cells": {"*": "*", "p": "*"}}
TO_POINT1 = {"cells": {"*": "*", "c": "s0 *"}}
IDENTITY1 = {"cells": {"*": "*", "c": "c"}}
DIAGRAM_SEEDS = [
    {"K": S0, "L": PT, "M": PT, "f": TO_POINT0, "g": TO_POINT0},
    {"K": S1, "L": PT, "M": PT, "f": TO_POINT1, "g": TO_POINT1},
    {"K": S1, "L": S1, "M": PT, "f": IDENTITY1, "g": TO_POINT1},
    {"source": S0, "target": S0, "map": TO_POINT0},
    {"source": S1, "target": S1, "map": IDENTITY1},
    {"source": S1, "target": S2, "map": {"cells": {"*": "*", "c": "s0 *"}}},
]


@st.composite
def mutated_diagram(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(DIAGRAM_SEEDS))))
    spaces = [k for k in ("K", "L", "M", "source", "target") if k in doc]
    maps = [k for k in ("f", "g", "map") if k in doc]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["space", "image", "drop-image", "extra-image", "field",
                                     "drop-field"]))
        cells = [m["cells"] for m in map(doc.get, maps)
                 if isinstance(m, dict) and isinstance(m.get("cells"), dict)]
        if kind == "space":
            doc[draw(st.sampled_from(spaces))] = draw(
                st.one_of(st.sampled_from(SEEDS), random_document(), mutated_document()))
        elif kind == "image" and cells:
            table = draw(st.sampled_from(cells))
            if table:
                cell = draw(st.sampled_from(sorted(table)))
                table[cell] = draw(st.one_of(face_entry(NAMES + ["*", "c", "p"]), json_value))
        elif kind == "drop-image" and cells:
            table = draw(st.sampled_from(cells))
            if table:
                table.pop(draw(st.sampled_from(sorted(table))))
        elif kind == "extra-image" and cells:
            draw(st.sampled_from(cells))[draw(st.sampled_from(NAMES))] = draw(
                face_entry(NAMES + ["*", "c", "p"]))
        elif kind == "field":
            doc[draw(st.sampled_from(spaces + maps))] = draw(json_value)
        elif kind == "drop-field":
            doc.pop(draw(st.sampled_from(spaces + maps)), None)
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_diagram(), st.sampled_from([(), ("--range", "0"), ("--range", "2")]))
def test_diagram_documents_exit_0_1_or_2(doc, flags):
    command = "pushout" if "K" in doc or "f" in doc else "cylinder"
    _check(doc, (command, *flags), codes=(0, 1, 2))


def test_diagram_seeds_pass_their_commands():
    for doc in DIAGRAM_SEEDS:
        command = "pushout" if "K" in doc else "cylinder"
        assert _run(doc, (command,))[0] == 0, doc


group_document = st.one_of(random_algebra_document(), mutated_algebra_document(GROUP_SEEDS))
chain_document = st.one_of(random_algebra_document(), mutated_algebra_document(CHAIN_SEEDS))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_document, st.one_of(st.none(), group_document))
def test_ez_verify_documents_exit_0_1_or_2(doc, other):
    _check(doc if other is None else (doc, other), ("ez-verify",), codes=(0, 1, 2))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain_document, chain_document)
def test_tower_report_documents_exit_0_1_or_2(k, l):
    _check((k, l), ("tower-report",), codes=(0, 1, 2))
