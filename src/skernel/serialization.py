"""JSON file formats.

Three object kinds travel through files:

  chain complex      {"min": int, "max": int, "ranks": {"0": 1, ...},
                      "d": {"1": [[...], ...], ...}}
  simplicial set     {"pointed": bool, "basepoint": "id",
                      "cells": {"0": ["v0", ...], ...},
                      "faces": {"cell": ["s1 s0 v3", ...], ...}}
  simplicial group   {"D": int, "ranks": {"0": 1, ...},
                      "face": {"n,i": [[...], ...]},
                      "degen": {"n,j": [[...], ...]}}

Matrices serialize row-major; a face entry like "s1 s0 v3" is the
degeneracy word (indices strictly decreasing) applied to the base cell.
Ranks, degrees and matrix entries must be JSON integers, and cell ids and
face entries JSON strings: other values are refused, never coerced:
`IntMatrix.from_rows` checks each entry once, and the loader only names
the field in the message.
Structural validation (d d = 0, the simplicial identities) runs at load
time, so a parsed object is always usable.
"""

from __future__ import annotations

import json
from itertools import chain

from .complexes import ChainComplex, ValidationError
from .matrices import IntMatrix
from .simpab import SimplicialAbGroup
from .simplicial import SimplexRef, SimplicialSet


class ParseError(ValueError):
    """Malformed document (schema violations, unknown kinds, bad words)."""


def detect_kind(doc: dict) -> str:
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    if "cells" in doc:
        return "simplicial-set"
    if "D" in doc:
        return "simplicial-group"
    if "ranks" in doc:
        return "chain-complex"
    raise ParseError("cannot recognise the document kind (no cells/D/ranks field)")


def _integer(value, field: str) -> int:
    if type(value) is not int:
        raise ParseError("%s must be an integer, got %s" % (field, json.dumps(value)))
    return value


def _object(doc: dict, field: str) -> dict:
    """doc[field], which must be a JSON object when present."""
    value = doc.get(field, {})
    if not isinstance(value, dict):
        raise ParseError("%s must be an object" % field)
    return value


def _ranks(doc: dict) -> dict:
    out = {}
    for key, v in _object(doc, "ranks").items():
        try:
            n = int(key)
        except ValueError:
            raise ParseError("rank key %r is not an integer" % key)
        out[n] = _integer(v, "ranks[%r]" % key)
    return out


def _matrix(rows, cols: int, field: str) -> IntMatrix:
    if not isinstance(rows, list) or not set(map(type, rows)) <= {list}:
        raise ParseError("%s must be a list of rows" % field)
    try:
        return IntMatrix.from_rows(rows, cols=cols)
    except ValueError as exc:
        bad = [x for x in chain.from_iterable(rows) if type(x) is not int]
        if bad:
            raise ParseError("%s has a non-integer entry %s" % (field, json.dumps(bad[0])))
        raise ParseError("%s: %s" % (field, exc))


# -- chain complexes --------------------------------------------------------


def chain_complex_from_doc(doc: dict) -> ChainComplex:
    try:
        lo = _integer(doc["min"], "min")
        hi = _integer(doc["max"], "max")
    except KeyError as exc:
        raise ParseError("chain complex document needs min, max and ranks: %s" % exc)
    ranks = _ranks(doc)
    d = {}
    for key, rows in _object(doc, "d").items():
        try:
            n = int(key)
        except ValueError:
            raise ParseError("differential key %r is not a degree" % key)
        d[n] = _matrix(rows, ranks.get(n, 0), "differential %r" % key)
    try:
        return ChainComplex(lo, hi, ranks, d)
    except ValidationError as exc:
        raise ParseError(str(exc))


def chain_complex_to_doc(c: ChainComplex) -> dict:
    ranks = {str(n): c.rank(n) for n in c.degrees() if c.rank(n)}
    d = {}
    for n in c.degrees():
        m = c.d(n)
        if m.rows and m.cols:
            d[str(n)] = m.to_lists()
    return {"min": c.min_deg, "max": c.max_deg, "ranks": ranks, "d": d}


# -- simplicial sets --------------------------------------------------------


def ref_from_text(text: str) -> SimplexRef:
    tokens = text.split()
    if not tokens:
        raise ParseError("empty face entry")
    word = []
    for tok in tokens[:-1]:
        if not (tok.startswith("s") and tok[1:].isdecimal()):
            raise ParseError("bad degeneracy token %r in %r" % (tok, text))
        word.append(int(tok[1:]))
    if len(tokens) >= 2 and not word:
        raise ParseError("bad face entry %r" % text)
    return SimplexRef(tuple(word), tokens[-1])


def simplicial_set_from_doc(doc: dict) -> SimplicialSet:
    cells = {}
    for key, ids in _object(doc, "cells").items():
        try:
            n = int(key)
        except ValueError:
            raise ParseError("cell dimension key %r is not an integer" % key)
        if not isinstance(ids, list):
            raise ParseError("cells[%r] must be a list" % key)
        if not set(map(type, ids)) <= {str}:
            bad = next(c for c in ids if type(c) is not str)
            raise ParseError("cells[%r] holds %s, not a cell id string" % (key, json.dumps(bad)))
        cells[n] = ids
    faces = {}
    dim_of = {c: n for n, ids in cells.items() for c in ids}
    for cell, entries in _object(doc, "faces").items():
        if cell not in dim_of:
            raise ParseError("face data for unknown cell %r" % cell)
        n = dim_of[cell]
        if not isinstance(entries, list) or len(entries) != n + 1:
            raise ParseError("cell %r needs %d face entries" % (cell, n + 1))
        for i, text in enumerate(entries):
            if type(text) is not str:
                raise ParseError("faces[%r][%d] is %s, not a face entry string"
                                 % (cell, i, json.dumps(text)))
            faces[(cell, i)] = ref_from_text(text)
    pointed = doc.get("pointed", False)
    if type(pointed) is not bool:
        raise ParseError("pointed must be a JSON boolean, got %s" % json.dumps(pointed))
    basepoint = doc.get("basepoint")
    if pointed and not isinstance(basepoint, str):
        raise ParseError("basepoint must be a cell id string, got %s" % json.dumps(basepoint))
    try:
        return SimplicialSet(cells, faces, pointed=pointed, basepoint=basepoint)
    except ValidationError as exc:
        raise ParseError(str(exc))


def simplicial_set_to_doc(x: SimplicialSet) -> dict:
    for _, c in x.all_cells():
        if any(ch.isspace() for ch in c):
            raise ValueError("cell id %r contains whitespace" % c)
    cells = {str(n): list(x.cells(n)) for n in x.dims()}
    faces = {}
    for n in x.dims():
        if n == 0:
            continue
        for c in x.cells(n):
            faces[c] = [str(x.stored_face(c, i)) for i in range(n + 1)]
    doc = {"pointed": x.pointed, "cells": cells, "faces": faces}
    if x.pointed:
        doc["basepoint"] = x.basepoint
    return doc


# -- simplicial abelian groups ----------------------------------------------


def simplicial_group_from_doc(doc: dict) -> SimplicialAbGroup:
    trunc = _integer(doc["D"], "D")
    ranks = _ranks(doc)

    def parse_ops(field):
        out = {}
        for key, rows in _object(doc, field).items():
            try:
                n, i = map(int, str(key).split(","))
            except ValueError:
                raise ParseError("%s key %r must look like 'n,i'" % (field, key))
            out[(n, i)] = _matrix(rows, ranks.get(n, 0), "%s %r" % (field, key))
        return out

    try:
        return SimplicialAbGroup(trunc, ranks, parse_ops("face"), parse_ops("degen"))
    except ValidationError as exc:
        raise ParseError(str(exc))


def simplicial_group_to_doc(a: SimplicialAbGroup) -> dict:
    ranks = {str(n): a.rank(n) for n in range(a.D + 1)}
    face = {}
    degen = {}
    for n in range(1, a.D + 1):
        for i in range(n + 1):
            m = a.face(n, i)
            if m.rows and m.cols:
                face["%d,%d" % (n, i)] = m.to_lists()
    for n in range(a.D):
        for j in range(n + 1):
            m = a.degen(n, j)
            if m.rows and m.cols:
                degen["%d,%d" % (n, j)] = m.to_lists()
    return {"D": a.D, "ranks": ranks, "face": face, "degen": degen}


# -- entry points ------------------------------------------------------------


def parse_document(text: str):
    """Parse a JSON document into one of the three object kinds; returns
    (kind, object)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg))
    kind = detect_kind(doc)
    if kind == "chain-complex":
        return kind, chain_complex_from_doc(doc)
    if kind == "simplicial-set":
        return kind, simplicial_set_from_doc(doc)
    return kind, simplicial_group_from_doc(doc)


def parse_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def serialize(obj) -> str:
    if isinstance(obj, ChainComplex):
        doc = chain_complex_to_doc(obj)
    elif isinstance(obj, SimplicialSet):
        doc = simplicial_set_to_doc(obj)
    elif isinstance(obj, SimplicialAbGroup):
        doc = simplicial_group_to_doc(obj)
    else:
        raise TypeError("cannot serialize %r" % type(obj))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def certificate_to_doc(cert) -> dict:
    return {
        "pass": cert.passed,
        "pi0": cert.pi0_bijective,
        "homology": {str(n): bool(v) for n, v in sorted(cert.homology_iso.items())},
        "groupoid": cert.groupoid_match,
        "quotients": {str(k): list(v) for k, v in sorted(cert.finite_quotient_counts.items())},
    }
