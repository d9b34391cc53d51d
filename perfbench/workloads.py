"""The four workloads: seeded inputs, the timed calls into skernel's public
API, and the checks of each answer against `reference`.

A workload is a fixed multiset of operations per round; the seed picks
the random parts (torsion complexes, their conjugating matrices, the
tower pairs) and the order inside each round.  A run repeats the same
round, so two seeds do the same kind of work and their throughputs can
be compared.

Each operation's check returns None for a verified answer or a pair
(category, detail); categories are "raised", "deadline", "exit",
"verdict" and "wrong" (completed, but different from the reference).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from typing import Callable, NamedTuple

import reference as R

# entry points are looked up on their modules at call time, so that the
# tracer's patches see every call
from skernel import cli, complexes, simpab, spaces, suite

# suite seeds swept by suite-sweep: every seed from 0 to 5, both sizes.
# Throughput over a window of consecutive suite seeds varies by 16-52%
# with the window's start (instance costs are heavy-tailed), so the
# window is fixed and the workload seed orders it.  It holds seed 5,
# where hom-tower hangs and good-truncation raises KeyError.
SUITE_SEEDS = range(0, 6)
# per-operation deadlines in calibration units (see run.calibration_slice),
# so a slow host does not turn a slow operation into a missed deadline;
# the slowest suite check that completes takes about 400
DEADLINE_CU = {"homology-large": 10000, "simplicial-groups": 10000,
               "suite-sweep": 1000, "cli-corpus": 10000}


class Op(NamedTuple):
    label: str
    call: Callable
    check: Callable


def _rng(seed: int, workload: str, part) -> random.Random:
    return random.Random("%d:%s:%s" % (seed, workload, part))


def _groups(hdict: dict) -> dict:
    """skernel's homology dict reduced to nonzero (free, torsion) pairs."""
    return {n: (g.free_rank, tuple(g.torsion)) for n, g in hdict.items() if not g.is_zero()}


def _expect_groups(want: dict):
    def check(got):
        got = _groups(got)
        if got != want:
            return "wrong", "homology %r, expected %r" % (got, want)
        return None
    return check


def _free(h: dict) -> dict:
    return {n: (r, ()) for n, r in h.items() if r}


# -- homology-large --------------------------------------------------------------

def _space_ops():
    bh, S, kun = R.boundary_homology, R.sphere_reduced, R.kunneth
    unr, red = R.unreduced, R.reduced
    torus = red(kun(unr(S(1)), unr(S(1))))
    torus3 = red(kun(unr(torus), unr(S(1))))
    bd = lambda n: spaces.boundary(n)
    sph = lambda k: spaces.sphere(k)
    prod = lambda x, y: spaces.product(x, y)
    cases = [("bd%d" % n, (lambda n=n: bd(n)), bh(n)) for n in range(4, 10)]
    # eight small spaces put latency_p50 inside a cluster of 4 ms
    # operations instead of on the gap above it
    cases += [("S%d" % k, (lambda k=k: sph(k)), S(k)) for k in range(1, 5)]
    cases += [
        ("bd2", lambda: bd(2), bh(2)),
        ("bd3", lambda: bd(3), bh(3)),
        ("S1^S1", lambda: spaces.smash(sph(1), sph(1)).space, kun(S(1), S(1))),
        ("susp1-S1", lambda: spaces.suspension(sph(1), 1), {2: 1}),
    ]
    cases += [
        ("bd2xbd2", lambda: prod(bd(2), bd(2)), kun(bh(2), bh(2))),
        ("bd2xbd3", lambda: prod(bd(2), bd(3)), kun(bh(2), bh(3))),
        ("bd3xbd3", lambda: prod(bd(3), bd(3)), kun(bh(3), bh(3))),
        ("bd2xbd4", lambda: prod(bd(2), bd(4)), kun(bh(2), bh(4))),
        ("bd3xS1", lambda: prod(bd(3), sph(1)), kun(bh(3), unr(S(1)))),
        ("bd3xS2", lambda: prod(bd(3), sph(2)), kun(bh(3), unr(S(2)))),
        ("S2xS3", lambda: prod(sph(2), sph(3)), red(kun(unr(S(2)), unr(S(3))))),
        ("S1xS1xS1", lambda: prod(prod(sph(1), sph(1)), sph(1)), torus3),
        ("S1xS1xS1xS1", lambda: prod(prod(prod(sph(1), sph(1)), sph(1)), sph(1)),
         red(kun(unr(torus3), unr(S(1))))),
        ("S2xS2xS2", lambda: prod(prod(sph(2), sph(2)), sph(2)),
         red(kun(kun(unr(S(2)), unr(S(2))), unr(S(2))))),
        ("S1^S2", lambda: spaces.smash(sph(1), sph(2)).space, kun(S(1), S(2))),
        ("S2^S3", lambda: spaces.smash(sph(2), sph(3)).space, kun(S(2), S(3))),
        ("T2^S1", lambda: spaces.smash(prod(sph(1), sph(1)), sph(1)).space, kun(torus, S(1))),
        ("T2^T2", lambda: spaces.smash(prod(sph(1), sph(1)), prod(sph(1), sph(1))).space,
         kun(torus, torus)),
        ("susp2-S2", lambda: spaces.suspension(sph(2), 2), {4: 1}),
        ("susp1-T2", lambda: spaces.suspension(prod(sph(1), sph(1)), 1),
         {n + 1: r for n, r in torus.items()}),
        ("susp3-S1", lambda: spaces.suspension(sph(1), 3), {4: 1}),
        ("susp2-T3", lambda: spaces.suspension(prod(prod(sph(1), sph(1)), sph(1)), 2),
         {n + 2: r for n, r in torus3.items()}),
        # a second copy keeps latency_p90_s inside a cluster of equal operations
        ("bd8-again", lambda: bd(8), bh(8)),
    ]
    return [(label, build, _free(h)) for label, build, h in cases]


def _torsion_inputs(rng, ranks, tops=(2, 3, 4)):
    """Torsion complexes of the given total ranks; the top degrees cycle
    through `tops`, so only the homology and the conjugation are random."""
    out = []
    for i, rank in enumerate(ranks):
        top = tops[i % len(tops)]
        cranks, d, h = R.torsion_complex(rng, top, rank)
        out.append({"rank": rank, "top": top, "ranks": cranks, "d": d, "homology": h})
    return out


def _complex(t):
    return complexes.ChainComplex(0, t["top"], t["ranks"], t["d"])


def homology_large_inputs(seed):
    return {"torsion": _torsion_inputs(_rng(seed, "homology-large", 0), range(10, 81, 5))}


def homology_large_ops(inputs, workdir):
    ops = [Op(label, (lambda b=build: spaces.chains(b()).homology_all()), _expect_groups(want))
           for label, build, want in _space_ops()]
    for t in inputs["torsion"]:
        ops.append(Op("torsion-r%d" % t["rank"], lambda t=t: _complex(t).homology_all(),
                      _expect_groups(t["homology"])))
    return ops


# -- simplicial-groups -------------------------------------------------------------

def _sab_check(ranks_want, homology_want, top):
    def check(answer):
        ranks, hom = answer
        if tuple(ranks) != tuple(ranks_want):
            return "wrong", "level ranks %r, expected %r" % (ranks, ranks_want)
        got = {n: (g.free_rank, tuple(g.torsion)) for n, g in enumerate(hom) if not g.is_zero()}
        want = {n: g for n, g in homology_want.items() if n < top}
        if got != want:
            return "wrong", "homology %r, expected %r" % (got, want)
        return None
    return check


def _sab_call(build, top):
    def call():
        a = build()
        n = simpab.normalize_N(a)
        return a.ranks(), [n.homology(i) for i in range(top)]
    return call


def _ez_check(a_deg, b_deg, top):
    def check(answer):
        ok, pair = answer
        if not ok:
            return "verdict", "aw o shuffle reported not the identity"
        src = pair.shuffle.source
        want = {a_deg + b_deg: 1} if a_deg + b_deg <= top else {}
        got = {n: src.rank(n) for n in src.degrees() if src.rank(n)}
        if got != want:
            return "wrong", "tensor ranks %r, expected %r" % (got, want)
        for n in src.degrees():
            prod = R.matmul(pair.aw.component(n).to_lists(), pair.shuffle.component(n).to_lists(),
                            inner=pair.shuffle.target.rank(n))
            if len(prod) != src.rank(n) or not R.is_identity(prod):
                return "wrong", "aw o shuffle is not the identity in degree %d" % n
        return None
    return check


def _nk_check(t, top):
    def check(iso):
        degrees = range(min(top, t["top"]) + 1)
        if sorted(iso) != list(degrees):
            return "wrong", "base changes in degrees %r" % sorted(iso)
        for n in degrees:
            m = iso[n].to_lists()
            if len(m) != t["ranks"][n] or abs(R.determinant(m)) != 1:
                return "wrong", "degree %d base change is not unimodular" % n
        return None
    return check


def _truthy_check(what):
    def check(ok):
        return None if ok is True else ("verdict", what + " returned False")
    return check


def simplicial_groups_inputs(seed):
    rng = _rng(seed, "simplicial-groups", 0)
    return {part: [dict(t, D=top) for top, t in zip(
                (4, 5, 6, 7), _torsion_inputs(rng, (12, 12, 12, 8), tops=(3,)))]
            for part in ("K", "nk")}


def simplicial_groups_ops(inputs, workdir):
    ops = []
    zs = lambda k, top: (lambda: simpab.free_reduced_Z(spaces.sphere(k), top))
    for top in (4, 5, 6, 7):
        for k in (1, 2):
            base = R.binomial_ranks(k, top)
            ops.append(Op("zS%d-D%d" % (k, top), _sab_call(zs(k, top), top),
                          _sab_check(base, {k: (1, ())}, top)))
            ops.append(Op("bar-zS%d-D%d" % (k, top),
                          _sab_call(lambda k=k, top=top: simpab.bar_B(zs(k, top)()), top),
                          _sab_check(tuple(n * r for n, r in enumerate(base)),
                                     {k + 1: (1, ())}, top)))
            ops.append(Op("kn-zS%d-D%d" % (k, top),
                          lambda k=k, top=top: simpab.kn_roundtrip_ok(zs(k, top)()),
                          _truthy_check("kn_roundtrip_ok")))
    # bar2 on Z~S^2 at D=5 is as slow as bar at D=7; with it, latency_p90
    # falls between K-r8-D7 and nk-r12-D6, which cost about the same,
    # instead of on the gap below them
    for k, top in ((1, 4), (1, 5), (2, 4), (2, 5)):
        base = R.binomial_ranks(k, top)
        ops.append(Op("bar2-zS%d-D%d" % (k, top),
                      _sab_call(lambda k=k, top=top: simpab.bar_B(simpab.bar_B(zs(k, top)())),
                                top),
                      _sab_check(tuple(n * n * r for n, r in enumerate(base)),
                                 {k + 2: (1, ())}, top)))
    for a, b, top in ((1, 1, 4), (1, 1, 5), (1, 1, 6), (1, 1, 7), (1, 2, 4), (2, 2, 5)):
        def call(a=a, b=b, top=top):
            pair = simpab.ez_maps(zs(a, top)(), zs(b, top)())
            return pair.strict_identity_ok(), pair
        ops.append(Op("ez-zS%dxzS%d-D%d" % (a, b, top), call, _ez_check(a, b, top)))
    for t in inputs["K"]:
        top = t["D"]

        def call(t=t, top=top):
            a = simpab.dold_kan_K(_complex(t), top)
            n = simpab.normalize_N(a)
            return a.ranks(), [n.homology(i) for i in range(top)]
        ops.append(Op("K-r%d-D%d" % (t["rank"], top), call,
                      _sab_check(R.dold_kan_ranks(t["ranks"], top), t["homology"], top)))
    for t in inputs["nk"]:
        top = t["D"]
        ops.append(Op("nk-r%d-D%d" % (t["rank"], top),
                      lambda t=t, top=top: simpab.nk_roundtrip_iso(_complex(t), top),
                      _nk_check(t, top)))
    return ops


# -- suite-sweep -----------------------------------------------------------------------

_RAISED = re.compile(r"\[(\w+(?:Error|Exception)): ")


def _suite_check(name, seed, size):
    def check(answer):
        report, ok = answer
        lines = report.splitlines()
        summary = "suite: %d/1 checks passed (seed=%d, size=%s)" % (int(ok), seed, size)
        if len(lines) != 2 or lines[1] != summary or lines[0].split()[1] != name:
            return "wrong", "malformed report %r" % report
        if ok and lines[0].startswith("PASS "):
            return None
        if not ok and lines[0].startswith("FAIL "):
            raised = _RAISED.search(lines[0])
            return ("raised" if raised else "verdict"), lines[0]
        return "wrong", "verdict and flag disagree: %r" % lines[0]
    return check


def suite_sweep_inputs(seed):
    names = [name for name, _, _ in suite.CHECKS]
    return {"ops": [(s, size, name) for s in SUITE_SEEDS
                    for size in ("small", "medium") for name in names]}


def suite_sweep_ops(inputs, workdir):
    items = {item[0]: item for item in suite.CHECKS}
    return [Op("%s/%s/%d" % (name, size, s),
               lambda s=s, size=size, item=items[name]: suite.run_suite(s, size, checks=[item]),
               _suite_check(name, s, size))
            for s, size, name in inputs["ops"]]


# -- cli-corpus ----------------------------------------------------------------------------

def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _cli_check(kind, want_rc, want):
    """kind "exact": stdout must equal `want`; "lines": each line in
    `want` must appear; "error": exit 2 with an error line on stderr."""
    def check(answer):
        rc, out, err = answer
        if rc != want_rc:
            failed_verdict = rc == 1 and "FAIL" in out
            return ("verdict" if failed_verdict else "exit"), "exit %r, expected %d: %s" % (
                rc, want_rc, (err or out).strip()[-160:])
        if kind == "exact" and out != want:
            return "wrong", "stdout %r, expected %r" % (out, want)
        if kind == "lines":
            have = set(out.splitlines())
            missing = [line for line in want if line not in have]
            if missing:
                return "wrong", "missing %r in %r" % (missing, out)
        if kind == "error" and (out or not err.startswith("error: ")):
            return "wrong", "no diagnostic for a rejected input: %r" % err
        return None
    return check


def _hline(groups: dict, degrees) -> str:
    return " ".join("H%d=%s" % (n, R.group_str(groups.get(n, R.ZERO))) for n in degrees)


def _free_line(h: dict, top: int) -> str:
    return _hline(_free(h), range(top + 1))


def _sphere_line(k: int, top: int) -> str:
    return _free_line({k: 1}, top)


def cli_corpus_inputs(seed):
    rng = _rng(seed, "cli-corpus", 0)
    return {"torsion": _torsion_inputs(rng, (20, 40, 60, 80)),
            "nk": _torsion_inputs(rng, (8, 12)),
            "tower": [(R.torsion_complex(rng, 2, 6), R.torsion_complex(rng, 2, 6))
                      for _ in range(3)]}


def _cli_documents(inputs):
    """(file name, text) for every document of the corpus."""
    docs = {}
    for n in (4, 5, 6, 7, 8):
        docs["bd%d-chains.json" % n] = R.chain_complex_doc(*R.simplex_boundary_chains(n))
    for i, t in enumerate(inputs["torsion"] + inputs["nk"]):
        docs["torsion%d.json" % i] = R.chain_complex_doc(t["ranks"], t["d"])
    for i, (k, l) in enumerate(inputs["tower"]):
        docs["tower%d-k.json" % i] = R.chain_complex_doc(k[0], k[1])
        docs["tower%d-l.json" % i] = R.chain_complex_doc(l[0], l[1])
    for n in (3, 4, 5, 6):
        docs["bd%d-set.json" % n] = R.boundary_set_doc(n)
    docs["bd4-pointed.json"] = R.boundary_set_doc(4, pointed=True)
    for k in (0, 1, 2, 3):
        docs["S%d.json" % k] = R.sphere_set_doc(k)
    for k, top in ((1, 4), (1, 5), (1, 6), (2, 4), (2, 5)):
        docs["zS%d-D%d.json" % (k, top)] = R.group_doc(*R.zsphere_group(k, top))
    docs["bar-zS2-D6.json"] = R.group_doc(*R.bar_group(*R.zsphere_group(2, 6)))
    s0, s1, pt = R.sphere_set_doc(0), R.sphere_set_doc(1), R.point_doc()
    to_pt0 = {"cells": {"*": "*", "p": "*"}}
    to_pt1 = {"cells": {"*": "*", "c": "s0 *"}}
    docs["pushout-S0.json"] = {"K": s0, "L": pt, "M": pt, "f": to_pt0, "g": to_pt0}
    docs["pushout-S1.json"] = {"K": s1, "L": pt, "M": pt, "f": to_pt1, "g": to_pt1}
    docs["cyl-S0.json"] = {"source": s0, "target": s0, "map": to_pt0}
    docs["cyl-S1.json"] = {"source": s1, "target": s1, "map": {"cells": {"*": "*", "c": "c"}}}
    texts = {name: R.dumps(doc) for name, doc in docs.items()}
    # malformed documents: each must be rejected with exit code 2
    texts["bad-rank.json"] = '{"min":0,"max":0,"ranks":{"0":"x"}}'
    texts["bad-entry.json"] = '{"min":0,"max":1,"ranks":{"0":1,"1":1},"d":{"1":[["a"]]}}'
    texts["bad-json.json"] = '{"min": 0, "max": 1, "ranks": {'
    texts["bad-dd.json"] = json.dumps({"min": 0, "max": 2, "ranks": {"0": 1, "1": 1, "2": 1},
                                       "d": {"1": [[1]], "2": [[1]]}})
    texts["bad-faces.json"] = json.dumps({"cells": {"0": ["a", "b"], "1": ["e", "f"], "2": ["t"]},
                                          "faces": {"e": ["b", "a"], "f": ["a", "a"],
                                                    "t": ["e", "f", "e"]}})
    texts["bad-shape.json"] = json.dumps({"D": 2, "ranks": {"0": 1, "1": 1, "2": 1},
                                          "face": {"1,0": [[1, 0]]}, "degen": {}})
    texts["bad-kind.json"] = '{"foo": 1}'
    return texts


def cli_corpus_ops(inputs, workdir):
    path = lambda name: os.path.join(workdir, name)
    ops = []

    def add(label, argv, kind, rc, want):
        ops.append(Op(label, lambda argv=argv: _run_cli(argv), _cli_check(kind, rc, want)))

    for n in (4, 5, 6, 7, 8):
        add("homology-bd%d" % n, ["homology", "--in", path("bd%d-chains.json" % n)], "exact", 0,
            _free_line(R.boundary_homology(n), n - 1) + "\n")
    for i, t in enumerate(inputs["torsion"]):
        add("homology-torsion-r%d" % t["rank"], ["homology", "--in", path("torsion%d.json" % i)],
            "exact", 0, _hline(t["homology"], R.support(t["ranks"])) + "\n")
    for n in (3, 4, 5, 6):
        add("space-homology-bd%d" % n, ["space-homology", "--in", path("bd%d-set.json" % n)],
            "exact", 0, _free_line(R.boundary_homology(n), n - 1) + "\n")
    add("space-homology-bd4-pointed", ["space-homology", "--in", path("bd4-pointed.json")],
        "exact", 0, "reduced " + _sphere_line(3, 3) + "\n")
    for k in (1, 2, 3):
        add("space-homology-S%d" % k, ["space-homology", "--in", path("S%d.json" % k)],
            "exact", 0, "reduced " + _sphere_line(k, k) + "\n")
    offset = len(inputs["torsion"])
    for i, t in enumerate(inputs["nk"]):
        add("nk-roundtrip-torsion-r%d" % t["rank"],
            ["nk-roundtrip", "--in", path("torsion%d.json" % (offset + i)), "--dim", "3"],
            "exact", 0, "nk-roundtrip: OK (degrees 0..%d compare equal)\n" % min(3, t["top"]))
    add("nk-roundtrip-bd4", ["nk-roundtrip", "--in", path("bd4-chains.json"), "--dim", "3"],
        "exact", 0, "nk-roundtrip: OK (degrees 0..3 compare equal)\n")
    for name in ("zS1-D5", "zS2-D5", "bar-zS2-D6"):
        add("kn-roundtrip-" + name, ["nk-roundtrip", "--in", path(name + ".json")],
            "exact", 0, "kn-roundtrip: OK\n")
    for k, top in ((1, 5), (2, 5), (1, 6)):
        add("bar-zS%d-D%d" % (k, top), ["bar", "--in", path("zS%d-D%d.json" % (k, top))],
            "lines", 0, ["input " + _sphere_line(k, top - 1),
                         "bar   " + _sphere_line(k + 1, top - 1), "shift-by-one: OK"])
    ez_lines = ["aw o shuffle = id: OK", "homology of the two tensor models agrees in range: OK"]
    add("ez-verify-zS1-D4", ["ez-verify", "--in", path("zS1-D4.json")], "lines", 0, ez_lines)
    add("ez-verify-zS1-zS2-D4", ["ez-verify", "--in", path("zS1-D4.json"),
                                 "--in", path("zS2-D4.json")], "lines", 0, ez_lines)
    for k in (1, 2):
        add("wr-verify-S%d" % k, ["wr-verify", "--in", path("S%d.json" % k), "--dim", "4",
                                  "--range", "3"], "lines", 0,
            ["counit certificate: PASS", "  pi0 bijective: True", "  groupoid comparison: equal"]
            + ["  homology degree %d: ok" % n for n in range(4)]
            + ["skeleton square n=%d: OK" % n for n in range(3)])
    for k in (0, 1):
        add("pushout-S%d" % k, ["pushout", "--in", path("pushout-S%d.json" % k)], "lines", 0,
            ["homotopy pushout " + _sphere_line(k + 1, k + 1),
             "structural maps are termwise coprojections: OK"])
        add("cylinder-S%d" % k, ["cylinder", "--in", path("cyl-S%d.json" % k)], "lines", 0,
            ["retraction o inclusion = id: OK", "retraction certificate: PASS"])
    for i, (k, l) in enumerate(inputs["tower"]):
        g = R.group_str(R.homotopy_classes(k[2], l[2]))
        add("tower-report-%d" % i, ["tower-report", "--in", path("tower%d-k.json" % i),
                                    "--in", path("tower%d-l.json" % i)], "lines", 0,
            ["limit group: " + g, "full group:  " + g, "derived limit vanishes: True",
             "limit = full group (verified): True"])
    for name, command in (("bad-rank", "homology"), ("bad-entry", "homology"),
                          ("bad-json", "homology"), ("bad-dd", "homology"),
                          ("bad-faces", "space-homology"), ("bad-shape", "bar"),
                          ("bad-kind", "homology")):
        add("reject-" + name, [command, "--in", path(name + ".json")], "error", 2, None)
    add("reject-wrong-kind", ["homology", "--in", path("S1.json")], "error", 2, None)
    add("reject-missing-file", ["homology", "--in", path("absent.json")], "error", 2, None)
    add("reject-negative-dim", ["nk-roundtrip", "--in", path("bd4-chains.json"), "--dim", "-2"],
        "error", 2, None)
    return ops


# -- registry ------------------------------------------------------------------------------

def write_inputs(workload: str, inputs, workdir: str) -> list:
    """Write the generated inputs under workdir; returns the files written.
    cli-corpus writes the documents the CLI reads; the others write their
    inputs as JSON so the digest covers exactly what was run."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "cli-corpus":
        files = _cli_documents(inputs)
    else:
        files = {"inputs.json": json.dumps(inputs, sort_keys=True, default=list)}
    written = []
    for name, text in sorted(files.items()):
        p = os.path.join(workdir, name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(p)
    return written


WORKLOADS = {
    "homology-large": (homology_large_inputs, homology_large_ops),
    "simplicial-groups": (simplicial_groups_inputs, simplicial_groups_ops),
    "suite-sweep": (suite_sweep_inputs, suite_sweep_ops),
    "cli-corpus": (cli_corpus_inputs, cli_corpus_ops),
}


def round_ops(workload: str, inputs, workdir: str, seed: int, r: int) -> list:
    """The operations of round r in their seeded order.  Every round runs
    the same operations, so a run's mix does not depend on its length."""
    _, make_ops = WORKLOADS[workload]
    ops = make_ops(inputs, workdir)
    _rng(seed, workload, "order-%d" % r).shuffle(ops)
    return ops
