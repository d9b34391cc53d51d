"""Fuzz gate for simplicial-set documents: random and mutated `cells` /
`faces` documents, with random degeneracy words, fed to
`skernel space-homology`.  Every document must exit 0 (it was a valid
simplicial set) or 2 (a named diagnostic), and no traceback may escape."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from skernel.cli import main
from skernel.serialization import simplicial_set_to_doc
from skernel.spaces import boundary, horn, product, simplex, smash, sphere

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
                faces[cell][i] = draw(face_entry(names or NAMES))
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


def _run(doc) -> tuple:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["space-homology", "--in", str(path)])
    return rc, out.getvalue(), err.getvalue()


def _check(doc):
    rc, out, err = _run(doc)
    assert rc in (0, 2), (doc, rc, err)
    assert "Traceback" not in err
    if rc == 2:
        assert out == "" and err.startswith("error: "), (doc, out, err)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_document())
def test_random_documents_exit_0_or_2(doc):
    _check(doc)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_document())
def test_mutated_documents_exit_0_or_2(doc):
    _check(doc)

