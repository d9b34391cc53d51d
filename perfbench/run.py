#!/usr/bin/env python3
"""skernel benchmark: verified-answer throughput on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload homology-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With --trace 0 a run repeats whole rounds of its workload for about
--seconds and at least 100 operations, checks every answer, and prints
the end-to-end metrics.  Between operations it times a fixed calibration
kernel, and it reports throughput and latency in units of that kernel's
time as well as in seconds, so that the host's changing speed cancels.
With --trace 1 it runs round 0 once untraced and once with every public
entry point wrapped, and prints the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object.  The exit
code is nonzero only when the benchmark itself cannot run; failures of
skernel show in the counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("homology-large", "simplicial-groups", "suite-sweep", "cli-corpus")
MIN_OPS = 100
MIN_ROUNDS = 2
SETUP_REPEATS = 9
# a calibration slice follows any operation that ends this long after
# the previous slice, so the slices sample the whole run evenly
CAL_EVERY_S = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_kcu", "1/kcu"),
    ("latency_p50_cu", "cu"),
    ("latency_p90_cu", "cu"),
    ("verified_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
PRINTED = END_TO_END + (("ops_per_s", "1/s"), ("latency_p50_s", "s"), ("latency_p90_s", "s"),
                        ("cu_s", "s"), ("failed_ratio", "ratio"), ("wrong_answers", "count"))


class Deadline(BaseException):
    """Raised from SIGALRM when an operation overruns its deadline.  It is
    not an Exception, so run_suite's catch-all cannot swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


def run_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "SKERNEL_THREADS": os.environ.get("SKERNEL_THREADS", "unset"),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset")}


def child_import_seconds() -> float:
    """Import time of skernel in a fresh interpreter, measured inside it."""
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import skernel.cli; print(time.perf_counter() - t)" % SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


def setup(workload: str, seed: int, workdir: str):
    """Generate and write the inputs SETUP_REPEATS times, each paired with
    a fresh-interpreter import; returns (inputs, median set-up seconds,
    digest of the written inputs)."""
    make_inputs = workloads.WORKLOADS[workload][0]
    times = []
    for _ in range(SETUP_REPEATS):
        t_import = child_import_seconds()
        t0 = time.perf_counter()
        inputs = make_inputs(seed)
        files = workloads.write_inputs(workload, inputs, workdir)
        times.append(t_import + time.perf_counter() - t0)
    digest = hashlib.sha256()
    for path in files:
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return inputs, statistics.median(times), digest.hexdigest()


def calibration_slice() -> float:
    """Seconds taken by one calibration unit (cu): a fixed pure-Python
    kernel of integer row operations on lists and dict updates, the kind
    of work skernel's own loops do.  It never calls skernel."""
    t0 = time.perf_counter()
    rows = [[(i * 31 + j * 17) % 101 for j in range(40)] for i in range(40)]
    for k in range(6):
        pivot = rows[k]
        for i in range(k + 1, 40):
            f = rows[i][k]
            rows[i] = [(a - f * b) % 1000003 for a, b in zip(rows[i], pivot)]
    counts = {}
    for i in range(300):
        counts[(i * 7) % 211] = counts.get((i * 7) % 211, 0) + i
    return time.perf_counter() - t0


def current_cu() -> float:
    """The calibration unit now, in seconds: the mean of five slices."""
    return statistics.fmean(calibration_slice() for _ in range(5))


def run_op(op, deadline: float, tracer=None, op_nid=None):
    """One timed operation; returns (label, seconds, outcome) with outcome
    None for a verified answer or (category, detail)."""
    mark = tracer.mark() if tracer else None
    span = tracer.open(op_nid) if tracer else None
    answer, outcome = None, None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            answer = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        outcome = ("deadline", "over %.1f s" % deadline)
    except Exception as exc:  # a crash of skernel is a failed operation
        outcome = ("raised", "%s: %s" % (type(exc).__name__, exc))
    elapsed = time.perf_counter() - t0
    if tracer:
        if outcome and outcome[0] == "deadline":
            tracer.discard_inside(mark)
        else:
            tracer.close(span)
    if outcome is None:
        try:
            outcome = op.check(answer)
        except Exception as exc:  # an answer of the wrong shape is a wrong answer
            outcome = ("wrong", "answer could not be checked: %s: %s" % (type(exc).__name__, exc))
    return op.label, elapsed, outcome


def summarize(records, cu=None) -> dict:
    """Counts, throughput and latency quantiles of a run's records.  Given
    cu, the calibration unit in seconds at the time of each record, also
    throughput and latency in calibration units."""
    lat = sorted(r[1] for r in records)
    attempted = len(records)
    failed = sum(1 for r in records if r[2] is not None)
    wrong = sum(1 for r in records if r[2] is not None and r[2][0] == "wrong")
    verified = attempted - failed
    s = {
        "attempted": attempted, "failed": failed, "wrong_answers": wrong,
        "ops_per_s": verified / sum(lat) if lat else 0.0,
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10)[8],
        "failed_ratio": failed / attempted,
        "verified_ratio": verified / attempted,
    }
    if cu:
        lat_cu = sorted(r[1] / c for r, c in zip(records, cu))
        s.update(cu_s=statistics.fmean(cu), ops_per_kcu=1000 * verified / sum(lat_cu),
                 latency_p50_cu=statistics.median(lat_cu),
                 latency_p90_cu=statistics.quantiles(lat_cu, n=10)[8])
    return s


def failure_table(records) -> list:
    counts = {}
    for label, _, outcome in records:
        if outcome is not None:
            key = (label, outcome[0])
            counts.setdefault(key, [0, outcome[1]])[0] += 1
    return ["  %-44s %-8s x%d  %s" % (label, cat, n, detail[:110])
            for (label, cat), (n, detail) in sorted(counts.items())]


def measure(workload, seed, seconds, inputs, workdir):
    """Run whole rounds until the run is within half a round of --seconds,
    and at least MIN_ROUNDS rounds and MIN_OPS operations.  Calibration
    slices start the run and follow an operation whenever CAL_EVERY_S has
    passed since the last one; each deadline is set from the latest two.
    Returns the records, the number of rounds, the slice times and, for
    each record, the calibration unit at its time: the mean of the two
    slices before it and the two after."""
    deadline_cu = workloads.DEADLINE_CU[workload]
    records, cal, cal_at = [], [calibration_slice(), calibration_slice()], []
    rounds = 0
    t_start = last_cal = time.perf_counter()
    while True:
        for op in workloads.round_ops(workload, inputs, workdir, seed, rounds):
            records.append(run_op(op, deadline_cu * statistics.fmean(cal[-2:])))
            cal_at.append(len(cal))
            if time.perf_counter() - last_cal >= CAL_EVERY_S:
                cal.append(calibration_slice())
                last_cal = time.perf_counter()
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if (rounds >= MIN_ROUNDS and len(records) >= MIN_OPS
                and elapsed + elapsed / rounds / 2 >= seconds):
            break
    cu = [statistics.fmean(cal[max(0, k - 2):k + 2]) for k in cal_at]
    return records, rounds, cal, cu


def per_layer_names() -> list:
    names = []
    for span, _, _, _ in tracer_mod.ENTRY_POINTS:
        for suffix in (".calls", ".self_s"):
            if span + suffix not in names:
                names.append(span + suffix)
    names += ["matrices.snf.entries_in", "matrices.snf.max_bits", "matrices.matmul.dense_mults",
              "matrices.matmul.nonzero_ratio", "serialization.parse.bytes", "suite.check.failed",
              "trace.overhead_ratio"]
    return names


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def trace_ops(ops, deadline: float):
    """Run ops with every entry point wrapped; returns (records, tracer)."""
    tracer = tracer_mod.Tracer()
    op_nid = tracer.span_id(tracer_mod.OP_SPAN)
    tracer.install()
    try:
        records = [run_op(op, deadline, tracer, op_nid) for op in ops]
    finally:
        tracer.uninstall()
    return records, tracer


def traced_run(workload, seed, inputs, workdir, out_prefix):
    deadline = workloads.DEADLINE_CU[workload] * current_cu()
    ops = workloads.round_ops(workload, inputs, workdir, seed, 0)
    for op in ops:  # a first pass runs slower; measure warm passes only
        run_op(op, deadline)
    plain = [run_op(op, deadline) for op in ops]
    traced, tracer = trace_ops(ops, deadline)
    layer = tracer.layer_metrics()
    plain_s, traced_s = summarize(plain), summarize(traced)
    layer["trace.overhead_ratio"] = plain_s["ops_per_s"] / traced_s["ops_per_s"]
    tracer.write(out_prefix + "-spans.tsv.gz")
    extra = {"untraced_ops_per_s": plain_s["ops_per_s"], "traced_ops_per_s": traced_s["ops_per_s"],
             "spans": len(tracer.name),
             "trace_count_self_s": layer.get(tracer_mod.COUNT_SPAN + ".self_s", 0.0),
             "bench_op_self_s": layer.get(tracer_mod.OP_SPAN + ".self_s", 0.0)}
    return traced, layer, extra


def run_workload(args) -> int:
    workdir = os.path.join(WORK, "inputs", args.workload)
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    out_prefix = os.path.join(WORK, "records", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    info = run_record()
    inputs, setup_s, digest = setup(args.workload, args.seed, workdir)
    print("perfbench workload=%s seed=%d seconds=%d trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("run: nproc=%(nproc)s python=%(python)s cpu=%(cpu)r SKERNEL_THREADS=%(SKERNEL_THREADS)s "
          "PYTHONHASHSEED=%(PYTHONHASHSEED)s" % info)
    print("inputs: sha256=%s" % digest)
    if args.trace:
        records, layer, extra = traced_run(args.workload, args.seed, inputs, workdir, out_prefix)
        s = summarize(records)
        metrics = {name: {"value": layer.get(name, 0), "unit": layer_unit(name)}
                   for name in per_layer_names()}
        print("traced round 0: %d ops, %d spans; untraced %.4f ops/s, traced %.4f ops/s "
              "(overhead x%.3f); trace.count self %.4f s; benchmark op self %.4f s" % (
                  len(records), extra["spans"], extra["untraced_ops_per_s"],
                  extra["traced_ops_per_s"], layer["trace.overhead_ratio"],
                  extra["trace_count_self_s"], extra["bench_op_self_s"]))
        print("no layer queues work, so there is no wait metric")
        rounds = 1
    else:
        records, rounds, cal, cu = measure(args.workload, args.seed, args.seconds, inputs, workdir)
        s = summarize(records, cu)
        s["setup_s"] = setup_s
        s["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: {"value": s[name], "unit": unit} for name, unit in END_TO_END}
        print("rounds: %d, operations: %d (%d beyond p90), calibration slices: %d" % (
            rounds, len(records), sum(1 for r in records if r[1] > s["latency_p90_s"]), len(cal)))
        for name, unit in PRINTED:
            print("  %-16s %14.6f %s" % (name, s[name], unit))
        extra = {"calibration_s": cal, "operation_cu_s": cu}
    failures = failure_table(records)
    if failures:
        print("failed operations (label, category, count, first detail):")
        print("\n".join(failures))
    with open(out_prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "run": info, "inputs_sha256": digest, "rounds": rounds,
                   "metrics": metrics, "extra": extra,
                   "operations": [[label, t, outcome] for label, t, outcome in records]},
                  fh, indent=1)
    print(json.dumps({"correct": s["wrong_answers"] == 0, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n\n")
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    metrics = {"%s.%s" % (w, m): v for w, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


def load_modules():
    """Import skernel from this checkout and the benchmark's own modules,
    and route SIGALRM to the Deadline exception."""
    global tracer_mod, workloads
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import skernel

    if not os.path.abspath(skernel.__file__).startswith(SRC + os.sep):
        raise ImportError("imported skernel from %s, not from %s" % (skernel.__file__, SRC))
    import tracer as tracer_mod
    import workloads

    signal.signal(signal.SIGALRM, _on_alarm)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "skernel", "__init__.py")):
        print("perfbench: no skernel sources under %s; run from a checkout of the repository"
              % SRC, file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0" or "SKERNEL_THREADS" in os.environ:
        # fixed string hashing keeps set iteration, and so the work counts,
        # identical between runs; the suite must run without its thread pool
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("SKERNEL_THREADS", None)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)
    if args.workload == "all":
        return run_all(args)
    try:
        load_modules()
    except ImportError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
