"""Tests of the benchmark's own machinery.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

run.load_modules()
tracer_mod, workloads = run.tracer_mod, run.workloads

DETERMINISTIC = ("matrices.snf.entries_in", "matrices.snf.max_bits", "matrices.matmul.dense_mults",
                 "matrices.matmul.nonzero_ratio", "serialization.parse.bytes", "suite.check.failed")


def _synthetic(spans):
    """A tracer holding (name, parent, start, end) rows as given."""
    t = tracer_mod.Tracer()
    for name, parent, start, end in spans:
        t.name.append(t.span_id(name))
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    return t


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > a [1, 7] > b [2, 3], b [4, 6]; op > c [8, 9.5]
    t = _synthetic([("op", -1, 0.0, 10.0), ("a", 0, 1.0, 7.0), ("b", 1, 2.0, 3.0),
                    ("b", 1, 4.0, 6.0), ("c", 0, 8.0, 9.5)])
    assert list(t.self_times()) == [10.0 - 6.0 - 1.5, 6.0 - 1.0 - 2.0, 1.0, 2.0, 1.5]
    m = t.layer_metrics()
    assert (m["b.calls"], m["b.self_s"]) == (2, 3.0)
    assert m["a.self_s"] == 3.0 and m["op.self_s"] == 2.5
    # the self times of a tree add up to the duration of its root
    assert sum(t.self_times()) == 10.0


def test_discard_keeps_only_outer_spans_of_an_interrupted_operation():
    t = _synthetic([("before", -1, 0.0, 1.0)])
    t.counts[0] = (7,)
    mark = t.mark()
    op = t.open(t.span_id("op"))
    check = t.open(t.span_id("suite.check"))
    inner = t.open(t.span_id("matrices.snf"))
    t.counts[inner] = (1, 2)
    t.close(inner)
    t.open(t.span_id("matrices.matmul"))  # still open when the deadline fires
    t.discard_inside(mark)
    assert [t.names[n] for n in t.name] == ["before", "op", "suite.check"]
    assert list(t.parent) == [-1, -1, op]
    assert t.stack == [-1] and t.counts == {0: (7,)}
    assert all(e >= s for s, e in zip(t.start, t.end))
    assert check == 2


def test_calibrated_metrics_divide_each_operation_by_its_own_unit():
    # operation i takes i calibration units of a unit that grows with i,
    # so every operation is 1 cu long whatever the host did meanwhile
    records = [("op%d" % i, 0.002 * i, None) for i in range(1, 10)]
    records.append(("op10", 0.02, ("raised", "ValueError")))
    cu = [0.002 * i for i in range(1, 11)]
    s = run.summarize(records, cu)
    assert s["latency_p50_cu"] == pytest.approx(1.0)
    assert s["latency_p90_cu"] == pytest.approx(1.0)
    assert s["ops_per_kcu"] == pytest.approx(1000 * 9 / 10)
    assert s["verified_ratio"] == 0.9 and s["latency_p50_s"] == pytest.approx(0.011)


def test_deadline_interrupts_a_hang_that_catches_exception():
    def swallow_everything():
        while True:
            try:
                time.sleep(0.01)
            except Exception:  # the suite's catch-all
                pass

    op = workloads.Op("hang", swallow_everything, lambda answer: None)
    label, seconds, outcome = run.run_op(op, 0.2)
    assert outcome[0] == "deadline" and 0.2 <= seconds < 2.0


def test_deadline_stops_the_hom_tower_hang_at_small_seed_5():
    item = next(i for i in workloads.suite.CHECKS if i[0] == "hom-tower")
    op = workloads.Op("hom-tower/small/5",
                      lambda: workloads.suite.run_suite(5, "small", checks=[item]),
                      workloads._suite_check("hom-tower", 5, "small"))
    assert run.run_op(op, 0.5)[2][0] == "deadline"


def _deterministic(tracer):
    m = tracer.layer_metrics()
    return {k: v for k, v in m.items() if k.endswith(".calls") or k in DETERMINISTIC}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_counters_repeat_exactly(workload, tmp_path):
    inputs = workloads.WORKLOADS[workload][0](7)
    workloads.write_inputs(workload, inputs, str(tmp_path))
    ops = workloads.round_ops(workload, inputs, str(tmp_path), 7, 0)
    if workload == "suite-sweep":
        # a cheap slice plus the two operations that fail at seed 5
        ops = [op for op in ops if op.label.endswith("/5")
               and op.label.split("/")[0] in ("hom-tower", "good-truncation", "pi0-h0")]
    else:
        ops = sorted(ops, key=lambda op: op.label)[:12]
    deadline = workloads.DEADLINE_CU[workload] * run.current_cu()
    first = run.trace_ops(ops, deadline)
    second = run.trace_ops(ops, deadline)
    assert [r[2] for r in first[0]] == [r[2] for r in second[0]]
    assert _deterministic(first[1]) == _deterministic(second[1])
    assert any(v for k, v in _deterministic(first[1]).items() if k.endswith(".calls"))


def test_traced_runs_in_two_processes_agree():
    values = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, run.__file__, "--workload", "cli-corpus",
                               "--seed", "3", "--seconds", "1", "--trace", "1"],
                              capture_output=True, text=True, cwd=run.ROOT, timeout=170)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        values.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith(".calls") or k in DETERMINISTIC})
    assert values[0] == values[1]
    assert values[0]["serialization.parse.bytes"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(run.HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "homology-large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=str(tmp_path), timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
