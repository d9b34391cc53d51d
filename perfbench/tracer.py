"""Outside-in tracer for skernel's public entry points.

The benchmark patches each entry point from its own files: on the module
that defines it, on every skernel module that bound the same object with
`from .x import name`, and on the class for methods.  Each call becomes a
span (name, parent, start, end) kept in flat arrays; the self time of a
span is its duration minus the time its direct child spans cover.  A few
entry points also record deterministic work counts, taken after the span
closes and inside a `trace.count` span of their own, so that counting
never lands in a layer's self time.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# (span name, defining module, attribute path, counter)
ENTRY_POINTS = [
    ("matrices.snf", "skernel.matrices", "smith_normal_form", "snf"),
    ("matrices.kernel_basis", "skernel.matrices", "kernel_basis", None),
    ("matrices.solve_exact", "skernel.matrices", "solve_exact", None),
    ("matrices.matmul", "skernel.matrices", "IntMatrix.__matmul__", "matmul"),
    ("matrices.kron", "skernel.matrices", "IntMatrix.kron", None),
    ("matrices.from_rows", "skernel.matrices", "IntMatrix.from_rows", None),
    ("complexes.build", "skernel.complexes", "ChainComplex.__init__", None),
    ("complexes.chain_map", "skernel.complexes", "ChainMap.__init__", None),
    ("complexes.homology", "skernel.complexes", "ChainComplex.homology", None),
    ("complexes.tensor", "skernel.complexes", "ChainComplex.tensor", None),
    ("complexes.hom_complex", "skernel.complexes", "hom_complex", None),
    ("complexes.cone", "skernel.complexes", "cone", None),
    ("complexes.quasi_iso", "skernel.complexes", "check_quasi_iso", None),
    ("complexes.tower", "skernel.complexes", "sigma_tower_report", None),
    ("simplicial.build", "skernel.simplicial", "SimplicialSet.__init__", None),
    ("simplicial.face", "skernel.simplicial", "SimplicialSet.face", None),
    ("simplicial.simplices", "skernel.simplicial", "SimplicialSet.simplices", None),
    ("simplicial.map", "skernel.simplicial", "SimplicialMap.__init__", None),
    ("spaces.product", "skernel.spaces", "product", None),
    ("spaces.chains", "skernel.spaces", "chains", None),
    ("spaces.pushout", "skernel.spaces", "pushout_inj", None),
    ("spaces.pi1", "skernel.spaces", "pi1_presentation", None),
    ("spaces.chain_map", "skernel.spaces", "chain_map_of", None),
    ("simpab.build", "skernel.simpab", "SimplicialAbGroup.__init__", None),
    ("simpab.normalize", "skernel.simpab", "normalize_N", None),
    ("simpab.K", "skernel.simpab", "dold_kan_K", None),
    ("simpab.bar", "skernel.simpab", "bar_B", None),
    ("simpab.ez", "skernel.simpab", "ez_maps", None),
    ("simpab.roundtrip", "skernel.simpab", "nk_roundtrip_iso", None),
    ("simpab.roundtrip", "skernel.simpab", "kn_roundtrip_ok", None),
    ("homotopy.wrap", "skernel.homotopy", "wrap", None),
    ("homotopy.certificate", "skernel.homotopy", "weq_certificate", None),
    ("homotopy.count_homs", "skernel.homotopy", "count_homs", None),
    ("homotopy.skeleton", "skernel.homotopy", "skeleton_pushout_check", None),
    ("homotopy.pushout", "skernel.homotopy", "homotopy_pushout", None),
    ("serialization.parse", "skernel.serialization", "parse_document", "parse"),
    ("suite.check", "skernel.suite", "run_suite", "check"),
    ("cli.main", "skernel.cli", "main", None),
]

OP_SPAN = "bench.op"
COUNT_SPAN = "trace.count"


def _max_bits(*mats) -> int:
    top = 0
    for m in mats:
        if m is not None and m.data:
            top = max(top, max(m.data), -min(m.data))
    return top.bit_length()


def _count(kind, args, result):
    """Work counts of one call: snf (entries in, largest bit length),
    matmul (dense multiplications, nonzero entries, entries), parse
    (bytes), check (failed); None when the call raised and the counter
    has nothing to report."""
    if kind == "check":
        return (0 if result is not None and result[1] else 1,)
    if result is None:
        return None
    if kind == "snf":
        m = args[0]
        return (m.rows * m.cols, _max_bits(m, *result))
    if kind == "matmul":
        a, b = args[0].data, args[1].data
        return (args[0].rows * args[0].cols * args[1].cols,
                len(a) - a.count(0) + len(b) - b.count(0), len(a) + len(b))
    return (len(args[0].encode("utf-8")),)


class Tracer:
    """Span store plus the patches that feed it.  Spans are appended in
    start order, so a parent always precedes its children."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.stack = [-1]
        self._patches = []

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        del self.stack[self.stack.index(idx):]

    # -- patching ------------------------------------------------------------

    def _wrap(self, nid, fn, counter):
        name_a, parent_a, start_a, end_a = self.name, self.parent, self.start, self.end
        stack, counts, clock = self.stack, self.counts, time.perf_counter
        count_nid = self.span_id(COUNT_SPAN)

        def traced(*args, **kwargs):
            idx = len(name_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            end_a.append(0.0)
            stack.append(idx)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end_a[idx] = clock()
                stack.pop()
                if counter == "check":
                    counts[idx] = _count(counter, args, None)
                raise
            end_a[idx] = clock()
            stack.pop()
            if counter is not None:
                cidx = self.open(count_nid)
                counts[idx] = _count(counter, args, result)
                self.close(cidx)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every entry point; uninstall() puts the originals back."""
        for span, modname, path, counter in ENTRY_POINTS:
            module = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            nid = self.span_id(span)
            if owner_name:
                cls = getattr(module, owner_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(nid, raw.__func__, counter))
                else:
                    patched = self._wrap(nid, raw, counter)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, patched)
                continue
            original = getattr(module, attr)
            patched = self._wrap(nid, original, counter)
            for name, mod in list(sys.modules.items()):
                if (name == "skernel" or name.startswith("skernel.")) and mod is not None:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, patched)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- operations and deadlines ----------------------------------------------

    def mark(self) -> tuple:
        return len(self.name), len(self.stack)

    def discard_inside(self, mark: tuple, keep_depth: int = 2):
        """After an interrupted operation: keep the spans that started
        since `mark` at most `keep_depth` levels below the stack depth of
        the mark and drop the rest with their counts.  Work done before a
        deadline fires depends on timing, so only the outer spans (the
        operation and the entry point it called) can repeat exactly."""
        first, depth0 = mark
        del self.stack[depth0:]
        total = min(len(self.name), len(self.parent), len(self.start), len(self.end))
        now = time.perf_counter()
        depth, remap, kept = {}, {}, []
        for i in range(first, total):
            p = self.parent[i]
            d = depth.get(p, 0) + 1
            depth[i] = d
            if d <= keep_depth:
                remap[i] = first + len(kept)
                kept.append((self.name[i], remap.get(p, p), self.start[i],
                             self.end[i] or now, self.counts.get(i)))
        for i in range(first, len(self.name)):
            self.counts.pop(i, None)
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[first:]
        for nid, p, s, e, c in kept:
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(p)
            self.start.append(s)
            self.end.append(e)
            if c is not None:
                self.counts[idx] = c

    # -- results -----------------------------------------------------------------

    def self_times(self) -> array:
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def layer_metrics(self) -> dict:
        """calls and self_s per span name, plus the counter totals."""
        selfs = self.self_times()
        calls, busy = {}, {}
        for i, nid in enumerate(self.name):
            calls[nid] = calls.get(nid, 0) + 1
            busy[nid] = busy.get(nid, 0.0) + selfs[i]
        out = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = calls.get(nid, 0)
            out[name + ".self_s"] = busy.get(nid, 0.0)
        kind_of = {self._ids[span]: kind for span, _, _, kind in ENTRY_POINTS
                   if kind and span in self._ids}
        snf_in = snf_bits = mults = nonzero = entries = parsed = failed = 0
        for idx, c in self.counts.items():
            kind = kind_of[self.name[idx]]
            if kind == "snf":
                snf_in += c[0]
                snf_bits = max(snf_bits, c[1])
            elif kind == "matmul":
                mults += c[0]
                nonzero += c[1]
                entries += c[2]
            elif kind == "parse":
                parsed += c[0]
            else:
                failed += c[0]
        out["matrices.snf.entries_in"] = snf_in
        out["matrices.snf.max_bits"] = snf_bits
        out["matrices.matmul.dense_mults"] = mults
        out["matrices.matmul.nonzero_ratio"] = nonzero / (entries or 1)
        out["serialization.parse.bytes"] = parsed
        out["suite.check.failed"] = failed
        return out

    def write(self, path):
        """All spans as gzipped tab-separated rows: index, name, parent,
        start, end, self time, counts."""
        selfs = self.self_times()
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart\tend\tself_s\tcounts\n")
            for i in range(len(self.name)):
                c = self.counts.get(i)
                fh.write("%d\t%s\t%d\t%.9f\t%.9f\t%.9f\t%s\n" % (
                    i, self.names[self.name[i]], self.parent[i], self.start[i], self.end[i],
                    selfs[i], "" if c is None else ",".join(map(str, c))))
