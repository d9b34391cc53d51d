#!/usr/bin/env python3
"""Write a before/after benchmark ledger.

Compares two source trees of skernel (a parent and a change) on the
workload a claim is made for:

    python3 tools/bench_ledger.py --parent ../skernel-parent --change . \
        --workload simplicial-groups --pairs 10 --out BENCH_9.json

Make both trees the same way, for example each with `git archive` of
its commit: peak_rss_mb differs by about 0.2 MB between a `git clone`
and a `cp -r` copy of the same commit.

It records

- claim pairs: `perfbench/run.py --workload WORKLOAD` run in each tree,
  alternating which tree goes first, one pair per seed (seeds
  --first-seed, --first-seed + 1, ...: pick seeds that were not used
  while the change was written); each run reports every end-to-end
  metric that `perfbench/run.py --trace 0` prints: ops_per_kcu
  (throughput in calibration units), latency_p50_cu, latency_p90_cu,
  setup_s, verified_ratio and peak_rss_mb; the claim is made for
  --metric (default ops_per_kcu), and its wins, median gain and the
  parent's interquartile range count in that metric's better direction
  (lower for latencies, setup_s and peak_rss_mb);
- scale rows over --runs fresh interpreters per tree (default 7: at 3,
  rows of a few milliseconds swung 10-15% between ledgers of the same
  code on a 2-core box), alternating which tree builds first, so that
  drift of the machine spreads over both trees; each interpreter times
  the build REPEATS times and reports its minimum, so that builds of a
  few milliseconds are not mostly noise, and a row reports the median of
  those per-run minima (`row_statistic`), so that one unusually fast or
  slow interpreter does not decide it; these are warm timings (the first
  build fills process-wide caches such as `simplicial.word_of`), so they
  cannot be compared with the cold, one-build scale rows of BENCH_13.json
  and earlier ledgers:
  - simplicial: build + validate of the boundary of the 14-simplex and of
    S^2 x S^2 x S^2 x S^2, as cells per second, with the deterministic
    counts of cells and identities d_i d_j = d_{j-1} d_i checked
    (n(n+1)/2 per n-cell);
  - spaces: build + validate of the smash of T^3 with itself, of the
    3-fold suspension of S^2 x S^2 and of the product of the boundary of
    the 4-simplex with itself, as cells per second; the factors are built
    untimed; the last is the one product whose factors have only
    nondegenerate faces, so each factor simplex's faces come from its
    face pattern read against its base's row;
  - simpab: build + validate of the Dold-Kan K of a rank-12 torsion
    complex, of the free reduced Z S^2 and of the bar construction of
    the free reduced Z S^2, all truncated at D = 10, and of the K of
    Z --2--> Z at D = 14, whose level n has n + 1 of the 2^n summands
    a complex in every degree would have, as simplicial identities
    proved per second
    (per object: n(n+1)/2 d_i d_j, (n+1)(n+2)/2 s_i s_j and (n+1)(n+2)
    d_i s_j identities per level n, whether each is compared or follows
    from the comparisons of the validation's certificate); their inputs
    (the complexes, the sphere, and the free reduction under the bar
    construction) are built untimed; the same for the tensor square of
    the free reduced Z S^2 at D = 8; and the Eilenberg-Zilber maps of
    the free reduced Z S^1 with itself at D = 7, the two free reductions
    built inside the timed expression (the matrices of their faces are
    built on each read), as pairs of maps per second; the Moore bases
    of the bar construction of the free reduced Z S^2 at D = 10, as
    levels per second, and the K o N round trip of the same bar
    construction at D = 6, as verdicts per second (a verdict other than
    True stops the row), their groups built untimed; and the validation
    alone of the tables of the bar construction of the bar construction
    of the free reduced Z S^2 at D = 6 and of the Dold-Kan K of a rank-30
    torsion complex at D = 7: `SimplicialAbGroup._of_tables` on the
    tables of a group built untimed, as simplicial identities proved per
    second;
  - homotopy: build + validate of the wrapped S^2 x S^2 truncated at 5,
    with its counit, and of the mapping cylinder of the identity of
    S^2 x S^2, with its three maps, as cells per second; S^2 x S^2 is
    built untimed;
  - complexes: build of two rank-36 torsion complexes in degrees 0..5
    (six generators per degree) and their tensor product, as generators
    of the product per second, and the hard-truncation Hom tower report
    of the pair, as tower stages per second; the complexes' ranks and
    differentials are generated untimed; the chains of the boundary of
    the 14-simplex and of S^2 x S^2 x S^2 x S^2, which is where the
    d d = 0 check of the `ChainComplex` constructor runs, and their
    homology, both as cells of the space per second: the space is built
    untimed, and each repeat times `spaces.chains(s)` or
    `spaces.chains(s).homology_all()`, so it builds (and reduces) a
    fresh complex (factors are cached per complex);
  - complexes, too: the homology of the torsion complexes
    `reference.torsion_complex(random.Random(7), 2, RANK,
    moves_per_rank=2.0)` at RANK 100 and 320, whose bases are mixed by
    two elementary operations per generator, so that their unit-free
    residues have entries far above their minors, as generators per
    second; the ranks and differentials are generated untimed, and each
    repeat builds a fresh `ChainComplex` (its d d = 0 check included);
  - matrices: `matrices.kernel_basis` of d(6) of the chains of the
    boundary of the 12-simplex (1716 x 1716, no row with one entry), as
    columns per second; the matrix is built untimed, so the row times
    the elimination and back-substitution apart from `chains`, which the
    homology rows include; `matrices.smith_normal_form`, with U and V,
    of 400 suite-size matrices (`generators.random_matrix`, up to 5 x 5,
    entries in [-9, 9]), and `matrices.solve_exact` of 60 dense 7 x 9
    matrices with entries in {0, +-2, +-3, +-4, +-6}, so that no unit
    pivot exists and the whole matrix is the dense Smith loop's residue,
    each with a reachable 2-column right-hand side; both as calls per
    second, the matrices built untimed;
  - serialization: `parse_document` (JSON decoding, the type checks of
    the loader and `IntMatrix.from_rows`, and the constructor's
    validation) of two documents of the cli-corpus workload, the bar
    construction of the free reduced Z S^2 at D = 6 (bar-zS2-D6.json)
    and the chains of the boundary of the 8-simplex (bd8-chains.json),
    as matrix entries per second; both texts are generated untimed by
    perfbench's reference implementation.

Each scale row also keeps every interpreter's minimum, in run order, per
tree (`parent_run_min_s`, `change_run_min_s`), their median
(`parent_median_s`, `change_median_s`), from which the row's rate and
ratio come, and their minimum (`parent_min_s`, `change_min_s`).  Ledgers
up to BENCH_20.json have no `row_statistic` field: their rates and
ratios come from the overall minimum, so compare their rows with the
`*_min_s` fields of a newer ledger, not with its rates.

A scale row's interpreter that runs longer than --timeout seconds
(default 120) is stopped, and the row records that tree as timed out
(`parent_timed_out`, `change_timed_out`: the runs stopped, with no rate
and no ratio when every run stopped); a tree is not run again on a row
once it has timed out there, so a row that hangs on one tree costs one
timeout and does not stall the ledger.

Only the standard library is used; each measurement runs in its own
subprocess with PYTHONPATH set to the tree's `src`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# label: (layer, untimed setup, timed expression, what is counted)
SCALE = {
    "boundary(14)": ("simplicial", "", "spaces.boundary(14)", "cells"),
    "S2xS2xS2xS2": (
        "simplicial", "",
        "p(p(p(spaces.sphere(2), spaces.sphere(2)), spaces.sphere(2)), spaces.sphere(2))",
        "cells"),
    "smash(T3,T3).space": (
        "spaces", "t3 = p(p(spaces.sphere(1), spaces.sphere(1)), spaces.sphere(1))",
        "spaces.smash(t3, t3).space", "cells"),
    "suspension(S2xS2,3)": (
        "spaces", "q = p(spaces.sphere(2), spaces.sphere(2))", "spaces.suspension(q, 3)",
        "cells"),
    "boundary(4)xboundary(4)": (
        "spaces", "b4 = spaces.boundary(4)", "p(b4, b4)", "cells"),
    "dold_kan_K(torsion rank 12, D=10)": (
        "simpab",
        "ranks, d, _ = reference.torsion_complex(random.Random(1), 3, 12); "
        "c = ChainComplex(0, 3, ranks, d)",
        "simpab.dold_kan_K(c, 10)", "identities"),
    "dold_kan_K(Z --2--> Z, D=14)": (
        "simpab", "c = ChainComplex(0, 1, {0: 1, 1: 1}, {1: [[2]]})",
        "simpab.dold_kan_K(c, 14)", "identities"),
    "free_reduced_Z(S2, D=10)": (
        "simpab", "s2 = spaces.sphere(2)", "simpab.free_reduced_Z(s2, 10)", "identities"),
    "bar_B(free_reduced_Z(S2, D=10))": (
        "simpab", "z = simpab.free_reduced_Z(spaces.sphere(2), 10)", "simpab.bar_B(z)",
        "identities"),
    "tensor_sab(free_reduced_Z(S2), free_reduced_Z(S2), D=8)": (
        "simpab", "z = simpab.free_reduced_Z(spaces.sphere(2), 8)", "simpab.tensor_sab(z, z)",
        "identities"),
    "ez_maps(free_reduced_Z(S1), free_reduced_Z(S1), D=7)": (
        "simpab", "s1 = spaces.sphere(1)",
        "simpab.ez_maps(simpab.free_reduced_Z(s1, 7), simpab.free_reduced_Z(s1, 7))", "pairs"),
    "validate bar_B(bar_B(free_reduced_Z(S2, D=6)))": (
        "simpab", "g = simpab.bar_B(simpab.bar_B(simpab.free_reduced_Z(spaces.sphere(2), 6)))",
        "simpab.SimplicialAbGroup._of_tables(g.D, g.ranks(), g._ft, g._st)", "identities"),
    "validate dold_kan_K(torsion rank 30, D=7)": (
        "simpab",
        "ranks, d, _ = reference.torsion_complex(random.Random(1), 3, 30); "
        "g = simpab.dold_kan_K(ChainComplex(0, 3, ranks, d), 7)",
        "simpab.SimplicialAbGroup._of_tables(g.D, g.ranks(), g._ft, g._st)", "identities"),
    "moore_basis(bar_B(free_reduced_Z(S2, D=10)))": (
        "simpab", "z = simpab.bar_B(simpab.free_reduced_Z(spaces.sphere(2), 10))",
        "simpab.moore_basis(z)", "levels"),
    "kn_roundtrip_ok(bar_B(free_reduced_Z(S2, D=6)))": (
        "simpab", "z = simpab.bar_B(simpab.free_reduced_Z(spaces.sphere(2), 6))",
        "simpab.kn_roundtrip_ok(z)", "verdicts"),
    "wrap(S2xS2, 5)": (
        "homotopy", "q = p(spaces.sphere(2), spaces.sphere(2))", "homotopy.wrap(q, 5).space",
        "cells"),
    "cylinder(id S2xS2)": (
        "homotopy", "q = p(spaces.sphere(2), spaces.sphere(2))",
        "homotopy.cylinder(SimplicialMap.identity(q)).space", "cells"),
    "tensor(torsion rank 36, degrees 0..5)": (
        "complexes",
        "k = reference.torsion_complex(random.Random(1), 5, 36)[:2]; "
        "l = reference.torsion_complex(random.Random(2), 5, 36)[:2]",
        "ChainComplex(0, 5, *k).tensor(ChainComplex(0, 5, *l))", "generators"),
    "sigma_tower_report(torsion rank 36, degrees 0..5)": (
        "complexes",
        "k = reference.torsion_complex(random.Random(1), 5, 36)[:2]; "
        "l = reference.torsion_complex(random.Random(2), 5, 36)[:2]",
        "sigma_tower_report(ChainComplex(0, 5, *k), ChainComplex(0, 5, *l))", "stages"),
    "chains(boundary(14))": ("complexes", "s = spaces.boundary(14)", "spaces.chains(s)", "cells"),
    "chains(S2xS2xS2xS2)": (
        "complexes",
        "s = p(p(p(spaces.sphere(2), spaces.sphere(2)), spaces.sphere(2)), spaces.sphere(2))",
        "spaces.chains(s)", "cells"),
    "homology_all(chains(boundary(14)))": (
        "complexes", "s = spaces.boundary(14)", "spaces.chains(s).homology_all()", "cells"),
    "homology_all(chains(S2xS2xS2xS2))": (
        "complexes",
        "s = p(p(p(spaces.sphere(2), spaces.sphere(2)), spaces.sphere(2)), spaces.sphere(2))",
        "spaces.chains(s).homology_all()", "cells"),
    "homology_all(torsion rank 100, 2 moves per generator)": (
        "complexes",
        "ranks, d, _ = reference.torsion_complex(random.Random(7), 2, 100, moves_per_rank=2.0)",
        "ChainComplex(0, 2, ranks, d).homology_all()", "generators"),
    "homology_all(torsion rank 320, 2 moves per generator)": (
        "complexes",
        "ranks, d, _ = reference.torsion_complex(random.Random(7), 2, 320, moves_per_rank=2.0)",
        "ChainComplex(0, 2, ranks, d).homology_all()", "generators"),
    "kernel_basis(d(6) of chains(boundary(12)))": (
        "matrices", "m = spaces.chains(spaces.boundary(12)).d(6)", "matrices.kernel_basis(m)",
        "columns"),
    "smith_normal_form(400 matrices up to 5x5, span 9)": (
        "matrices",
        "rng = random.Random(36); cases = [generators.random_matrix("
        "rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(400)]",
        "[matrices.smith_normal_form(m) for m in cases]", "calls"),
    "solve_exact(60 unit-free 7x9, 2-column right-hand side)": (
        "matrices",
        "rng = random.Random(36); rows = lambda r, c, vals: matrices.IntMatrix.from_rows("
        "[[rng.choice(vals) for _ in range(c)] for _ in range(r)]); "
        "cases = [(a, a @ rows(9, 2, range(-3, 4))) for a in "
        "(rows(7, 9, (-6, -4, -3, -2, 0, 2, 3, 4, 6)) for _ in range(60))]",
        "[matrices.solve_exact(a, b) for a, b in cases]", "calls"),
    "parse_document(bar-zS2-D6.json)": (
        "serialization",
        "text = reference.dumps(reference.group_doc("
        "*reference.bar_group(*reference.zsphere_group(2, 6))))",
        "serialization.parse_document(text)", "entries"),
    "parse_document(bd8-chains.json)": (
        "serialization",
        "text = reference.dumps(reference.chain_complex_doc(*reference.simplex_boundary_chains(8)))",
        "serialization.parse_document(text)", "entries"),
}
# timed builds per fresh interpreter; the interpreter reports the fastest
REPEATS = 5

BUILD = """
import json, random, sys, time
sys.path.insert(0, "perfbench")
import reference
from skernel import generators, homotopy, matrices, serialization, simpab, spaces
from skernel.complexes import ChainComplex, sigma_tower_report
from skernel.simplicial import SimplicialMap
p = spaces.product
{setup}
seconds = []
for _ in range({repeats}):
    x = None
    t = time.perf_counter()
    x = {expr}
    seconds.append(time.perf_counter() - t)
counts = {{}}
if "{counted}" == "columns":  # of the untimed matrix m
    counts["columns"] = m.cols
elif "{counted}" == "calls":  # one per untimed case
    counts["calls"] = len(cases)
elif hasattr(x, "cell_counts"):
    counts["cells"] = sum(x.cell_counts().values())
    counts["identities"] = sum(len(x.cells(n)) * n * (n + 1) // 2 for n in x.dims() if n >= 2)
elif "{counted}" == "cells":  # chains or homology of the untimed space s
    counts["cells"] = sum(s.cell_counts().values())
elif "{counted}" == "entries":  # matrix entries of the document text
    doc = json.loads(text)
    counts["entries"] = sum(len(row) for field in ("d", "face", "degen")
                            for rows in doc.get(field, {{}}).values() for row in rows)
elif "{counted}" == "generators" and isinstance(x, dict):  # homology of the untimed ranks
    counts["generators"] = sum(ranks.values())
elif "{counted}" == "levels":
    counts["levels"] = len(x)
elif "{counted}" == "verdicts":
    assert x is True, x
    counts["verdicts"] = 1
elif hasattr(x, "tower"):
    counts["stages"] = len(x.tower)
elif hasattr(x, "total_rank"):
    counts["generators"] = x.total_rank()
elif hasattr(x, "shuffle"):
    counts["pairs"] = 1
else:
    counts["identities"] = (sum(n * (n + 1) // 2 for n in range(2, x.D + 1))
                            + sum((n + 1) * (n + 2) // 2 for n in range(x.D - 1))
                            + sum((n + 1) * (n + 2) for n in range(x.D)))
print(json.dumps(dict(counts, seconds=min(seconds))))
"""


# metrics of perfbench/run.py for which a lower value is better
LOWER_IS_BETTER = ("setup_s", "latency_p50_cu", "latency_p90_cu", "peak_rss_mb")


def _run(tree: str, argv: list, timeout: float = 1800) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                         check=True, timeout=timeout)
    return json.loads(out.stdout.strip().splitlines()[-1])


def claim_pairs(trees: dict, workload: str, pairs: int, seconds: int, first_seed: int,
                metric: str) -> list:
    rows = []
    for k in range(pairs):
        seed = first_seed + k
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        row = {"seed": seed, "first": order[0]}
        for name in order:
            res = _run(trees[name], [sys.executable, "perfbench/run.py", "--workload",
                                     workload, "--seed", str(seed), "--seconds",
                                     str(seconds), "--trace", "0"])
            row[name] = {m: v["value"] for m, v in res["metrics"].items()}
        row["ratio"] = row["change"][metric] / row["parent"][metric]
        rows.append(row)
        print("pair %d: %.3fx" % (seed, row["ratio"]), file=sys.stderr)
    return rows


def scale_rows(trees: dict, runs: int, timeout: float) -> list:
    rows = []
    for label, (layer, setup, expr, counted) in SCALE.items():
        name = (label if label.startswith(("homology", "chains", "moore_basis", "kn_roundtrip",
                                          "parse_document", "kernel_basis", "validate",
                                          "smith_normal_form", "solve_exact"))
                else "build+validate " + label)
        row = {"layer": layer, "name": name,
               "unit": counted + "/s", "better": "higher", "runs": runs,
               "repeats": REPEATS, "row_statistic": "median of per-run minima"}
        code = BUILD.format(setup=setup, expr=expr, repeats=REPEATS, counted=counted)
        seconds = {"parent": [], "change": []}
        stopped = {"parent": 0, "change": 0}
        for k in range(runs):
            for name in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                if stopped[name]:
                    stopped[name] += 1
                    continue
                try:
                    res = _run(trees[name], [sys.executable, "-c", code], timeout)
                except subprocess.TimeoutExpired:
                    stopped[name] = 1
                    continue
                seconds[name].append(res.pop("seconds"))
                row.update(res)
        for name, times in seconds.items():
            if stopped[name]:
                row[name + "_timed_out"] = {"runs": stopped[name], "after_s": timeout}
            if not times:
                row[name] = None
                continue
            median = statistics.median(times)
            row[name] = round(row[counted] / median, 1)
            row[name + "_median_s"] = round(median, 4)
            row[name + "_min_s"] = round(min(times), 4)
            row[name + "_run_min_s"] = [round(t, 4) for t in times]
        row["ratio"] = (round(row["change"] / row["parent"], 3)
                        if row["parent"] and row["change"] else None)
        rows.append(row)
        print("%s: %s" % (label, "%.2fx" % row["ratio"] if row["ratio"] else "timed out"),
              file=sys.stderr)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True, help="the perfbench workload of the claim")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--runs", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--metric", default="ops_per_kcu", help="the end-to-end metric of the claim",
                    choices=("ops_per_kcu", "verified_ratio") + LOWER_IS_BETTER)
    ap.add_argument("--timeout", type=float, default=120,
                    help="seconds after which a scale row's interpreter is stopped")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    metric = args.metric
    pairs = (claim_pairs(trees, args.workload, args.pairs, args.seconds, args.first_seed, metric)
             if args.pairs else [])
    sign = -1 if metric in LOWER_IS_BETTER else 1  # a gain is a move in the better direction
    ratios = [p["ratio"] for p in pairs]
    parent = [p["parent"][metric] for p in pairs]
    ledger = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "claim": {
            "workload": args.workload, "metric": metric,
            "better": "lower" if sign < 0 else "higher",
            "seconds_per_run": args.seconds, "pairs": pairs,
            "wins": sum(sign * (r - 1) > 0 for r in ratios),
            "median_ratio": round(statistics.median(ratios), 3) if ratios else None,
            "median_gain": (round(sign * (statistics.median(p["change"][metric] for p in pairs)
                                          - statistics.median(parent)), 4) if pairs else None),
            "parent_iqr": (round(statistics.quantiles(parent, n=4)[2]
                                 - statistics.quantiles(parent, n=4)[0], 4)
                           if len(parent) > 1 else None),
        },
        "rows": scale_rows(trees, args.runs, args.timeout),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
