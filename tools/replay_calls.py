#!/usr/bin/env python3
"""Time one function of skernel on the calls the benchmark makes to it.

    python3 tools/replay_calls.py --function matrices:IntMatrix.__matmul__ \
        --trees ../skernel-parent . --seed 1 --pairs 5

--function names a module of the `skernel` package and an attribute
path in it: a function, or a method, classmethod or staticmethod of a
class.  For each source tree, in that order, a fresh interpreter

- imports skernel from the tree's `src` and the benchmark from its
  `perfbench` (read-only: inputs go to a temporary directory);
- runs round 0 of each workload at --seed, every operation under the
  benchmark's own deadline, with the function wrapped so that each
  outermost call (not one the function makes to itself) records a deep
  copy of its arguments, taken before the call runs, since a function
  such as `matrices._smith` changes its arguments in place;
- drops the calls of an operation that hit its deadline, whose number
  would depend on the machine's speed, and pickles the rest.

The function is wrapped where the benchmark's tracer wraps an entry
point: on its class, or on every skernel module that bound the same
object.  Then --pairs pairs of fresh interpreters replay each tree's
calls through that tree's unwrapped function, alternating which tree
goes first, so that drift of the machine spreads over both.  Each
interpreter deep-copies the calls (untimed) and times one pass over all
of them, --repeats times, and reports its minimum; a call that raised
when it was recorded raises again and is timed as well.  The tool
prints each tree's call count, its per-interpreter minima in run order,
and their minimum and median, in milliseconds, and the number of calls
whose replay raised where the recorded call did not, or the reverse
(which should be 0: a tree replays its own calls).

A function whose arguments cannot be deep-copied or pickled (an
iterator, a lambda) cannot be recorded, and the tool says so.  Every
argument is kept in memory, so a function called millions of times per
round is better replayed through its caller.  Only the standard library
is used; each interpreter runs with PYTHONHASHSEED=0, as the benchmark
does, so that set iteration and the calls are the same in every run.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import json
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("homology-large", "simplicial-groups", "suite-sweep", "cli-corpus")


def _resolve(function: str):
    """(owner, attribute, raw) of --function: the class or module that
    holds it, its attribute name there, and the object stored there."""
    modname, _, path = function.partition(":")
    module = importlib.import_module("skernel." + modname)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
    return owner, attr, raw


def _plain(raw):
    """The function inside a classmethod or staticmethod, or raw itself."""
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


def _install(function: str, calls: list):
    """Wrap --function so that each outermost call appends to calls a
    deep copy of its (args, kwargs) and whether it raised."""
    owner, attr, raw = _resolve(function)
    fn = _plain(raw)
    depth = [0]

    def recorder(*args, **kwargs):
        if depth[0]:
            return fn(*args, **kwargs)
        try:
            entry = [copy.deepcopy((args, kwargs)), False]
        except Exception as exc:
            # SystemExit is not an Exception, so no operation absorbs it
            raise SystemExit("cannot copy the arguments of %s: %r" % (function, exc))
        calls.append(entry)
        depth[0] = 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            entry[1] = True
            raise
        finally:
            depth[0] = 0

    wrapped = raw.__class__(recorder) if raw is not fn else recorder
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return
    for name, mod in list(sys.modules.items()):
        if (name == "skernel" or name.startswith("skernel.")) and mod is not None:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)


def record(tree: str, function: str, seed: int, workloads: list, out: str) -> dict:
    """Run round 0 of each workload in tree with --function recorded, and
    pickle the calls to out."""
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    import run

    run.load_modules()
    calls, dropped = [], []
    with tempfile.TemporaryDirectory() as tmp:
        rounds = []
        for name in workloads:
            workdir = os.path.join(tmp, name)
            inputs = run.workloads.WORKLOADS[name][0](seed)
            run.workloads.write_inputs(name, inputs, workdir)
            rounds.append((name, run.workloads.round_ops(name, inputs, workdir, seed, 0)))
        _install(function, calls)
        for name, ops in rounds:
            for op in ops:
                mark = len(calls)
                deadline = run.workloads.DEADLINE_CU[name] * run.current_cu()
                label, _, outcome = run.run_op(op, deadline)
                if outcome is not None and outcome[0] == "deadline":
                    del calls[mark:]
                    dropped.append(label)
    with open(out, "wb") as fh:
        pickle.dump(calls, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return {"calls": len(calls), "dropped": dropped}


def replay(tree: str, function: str, path: str, repeats: int) -> dict:
    """The minimum over repeats of one timed pass over the recorded
    calls, each pass on a fresh deep copy, and the number of calls of
    the last pass that raised where the recorded call did not, or the
    reverse."""
    src = os.path.join(tree, "src")
    sys.path.insert(0, src)
    fn = _plain(_resolve(function)[2])
    if not sys.modules["skernel"].__file__.startswith(src + os.sep):
        raise SystemExit("imported skernel from %s, not from %s" % (sys.modules["skernel"].__file__, src))
    with open(path, "rb") as fh:
        calls = pickle.load(fh)
    best = None
    for _ in range(repeats):
        batch = copy.deepcopy(calls)
        changed = 0
        t0 = time.perf_counter()
        for (args, kwargs), raised in batch:
            try:
                fn(*args, **kwargs)
            except Exception:
                changed += not raised
            else:
                changed += raised
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return {"calls": len(calls), "min_ms": 1000 * best, "changed": changed}


def _child(*argv) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("SKERNEL_THREADS", None)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *map(str, argv)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("replay_calls: a child interpreter failed: %s" % " ".join(map(str, argv)))
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--function", required=True, help="module:attribute.path in skernel")
    ap.add_argument("--trees", nargs="+", required=True, help="source trees, each a checkout")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to record (repeatable; default all four)")
    ap.add_argument("--child", nargs=2, help=argparse.SUPPRESS)  # record|replay PICKLE
    args = ap.parse_args()
    if args.child:
        (kind, path), tree = args.child, args.trees[0]
        if kind == "record":
            out = record(tree, args.function, args.seed, args.workload or list(WORKLOADS), path)
        else:
            out = replay(tree, args.function, path, args.repeats)
        print(json.dumps(out))
        return 0
    trees = [os.path.abspath(t) for t in args.trees]
    workloads = args.workload or list(WORKLOADS)
    print("replay %s, round 0 of %s at seed %d, %d pairs of %d repeats"
          % (args.function, ", ".join(workloads), args.seed, args.pairs, args.repeats))
    extra = [arg for name in workloads for arg in ("--workload", name)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "calls-%d.pickle" % k) for k in range(len(trees))]
        minima, changed = [[] for _ in trees], [0] * len(trees)
        for tree, path in zip(trees, paths):
            got = _child("--function", args.function, "--trees", tree, "--seed", args.seed,
                         *extra, "--child", "record", path)
            print("%s: %d calls recorded; ops dropped at their deadline: %s"
                  % (tree, got["calls"], ", ".join(got["dropped"]) or "none"))
        order = list(range(len(trees)))
        for pair in range(args.pairs):
            for k in (order if pair % 2 == 0 else order[::-1]):
                got = _child("--function", args.function, "--trees", trees[k],
                             "--repeats", args.repeats, "--child", "replay", paths[k])
                minima[k].append(got["min_ms"])
                changed[k] = max(changed[k], got["changed"])
    for tree, ms, n in zip(trees, minima, changed):
        print("%s: per-interpreter minima %s ms; minimum %.2f ms, median %.2f ms; "
              "%d calls raised otherwise than when recorded"
              % (tree, " ".join("%.2f" % t for t in ms), min(ms), statistics.median(ms), n))
    return 0


if __name__ == "__main__":
    sys.exit(main())
