"""Self-tests of the benchmark: span arithmetic, the correctness gate and the
run guards.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
import time

import pytest

import run
import tracer
from workloads import WORKLOADS, answers, gate, json_answers

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# keys-a4 on A2: the same program and spans, in well under a second
KEYS_A2 = dataclasses.replace(
    WORKLOADS["keys-a4"], name="keys-a2", algebra="A2", args=("A2",),
    expected={"exit": 0, "vertices": 6, "elements": 8, "distinct_left_keys": 6,
              "agree": 8},
    largest_crystal=8)


def _tree(rows, names=("a", "b", "c")):
    """A tracer filled with (name, parent row, start, end, value) rows."""
    tr = tracer.Tracer(names)
    for name, parent, start, end, value in rows:
        tr.name_ids.append(names.index(name))
        tr.parents.append(parent)
        tr.starts.append(start)
        tr.ends.append(end)
        tr.values.append(value)
    return tr


# a [0, 10] holds b [1, 4] and c [5, 9]; c holds b [6, 8]
NESTED = [("a", -1, 0.0, 10.0, 0), ("b", 0, 1.0, 4.0, 1),
          ("c", 0, 5.0, 9.0, 7), ("b", 2, 6.0, 8.0, 0)]


def test_self_time_subtracts_direct_children_only():
    s = tracer.summarize(_tree(NESTED))
    assert s["a"]["self_s"] == pytest.approx(10 - 3 - 4)
    assert s["c"]["self_s"] == pytest.approx(4 - 2)
    assert s["b"]["self_s"] == pytest.approx(3 + 2)
    assert s["a"]["total_s"] == pytest.approx(10)
    assert sum(r["self_s"] for r in s.values()) == pytest.approx(10)
    assert (s["b"]["calls"], s["b"]["leaves"], s["b"]["value"]) == (2, 2, 1)
    assert (s["c"]["leaves"], s["c"]["max_value"]) == (0, 7)


def test_spans_round_trip_through_a_file(tmp_path):
    path = tmp_path / "spans"
    _tree(NESTED).dump(path)
    assert tracer.summarize(tracer.load(path)) == tracer.summarize(_tree(NESTED))


def test_tracer_cost_is_subtracted_from_self_time():
    tr = _tree(NESTED)
    tr.cost = (0.5, 0.25)
    s = tracer.summarize(tr)
    # one call's inside cost, plus the outside cost per direct child call
    assert s["a"]["self_s"] == pytest.approx(10 - 3 - 4 - 0.5 - 2 * 0.25)
    assert s["c"]["self_s"] == pytest.approx(4 - 2 - 0.5 - 0.25)
    assert s["b"]["self_s"] == pytest.approx(3 + 2 - 2 * 0.5)


def test_calibration_measures_a_positive_cost_per_call():
    inside, outside = tracer.calibrate(calls=2000, batches=3)
    assert 0 < inside < 1e-4 and 0 < outside < 1e-4


def test_wrapped_function_records_nested_spans():
    tr = tracer.Tracer(("outer", "inner"))
    inner = tr.wrap(lambda x: None if x else x, "inner", tracer._is_none)
    outer = tr.wrap(lambda: [inner(1), inner(0)], "outer")
    assert outer() == [None, 0]
    s = tracer.summarize(tr)
    assert list(tr.parents) == [-1, 0, 0]
    assert (s["inner"]["calls"], s["inner"]["value"], s["outer"]["leaves"]) == (2, 1, 0)


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_untraced_run_reports_the_declared_end_to_end_metrics(tmp_path):
    metrics, stats = run.measure(_runner(tmp_path), KEYS_A2, 0)
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values()), metrics
    assert stats["setup_s"]["n"] >= run.MIN_SETUP_PROBES


def test_traced_run_reports_the_declared_per_layer_metrics(tmp_path):
    runner = _runner(tmp_path)
    metrics, stats = run.trace(runner, KEYS_A2, 0)
    assert not any(c.failed for c in runner.children), stats
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("per_layer")
    # every metric of a span this workload calls, and of the tracer, is nonzero
    called = [k for k in metrics
              if k.startswith("trace.") or k.rpartition(".")[0] in KEYS_A2.spans]
    assert len(called) > len(KEYS_A2.spans)
    assert all(metrics[k]["value"] > 0 for k in called), metrics


def test_timing_reports_a_tail_only_with_ten_samples_beyond_it():
    assert "tail" not in run.timing([float(x) for x in range(10)])
    t = run.timing([float(x) for x in range(20)])
    assert (t["median"], t["n"], t["tail_percentile"], t["tail"]) == (9.5, 20, 50, 9.0)


AXIOMS_REPORT = {"suite": "kgraph-axioms", "instances_checked": 105233,
                 "failures": [], "details": {"paths": 225}}


def test_gate_accepts_the_right_answer():
    w = WORKLOADS["axioms-a2"]
    assert gate(w.expected, answers(w, 0, json.dumps(AXIOMS_REPORT))) == []


@pytest.mark.parametrize("exit_code, report", [
    (0, dict(AXIOMS_REPORT, details={"paths": 224})),
    (1, dict(AXIOMS_REPORT, failures=["associativity fails"])),
    (0, {}),
])
def test_gate_rejects_a_wrong_answer(exit_code, report):
    w = WORKLOADS["axioms-a2"]
    assert gate(w.expected, run._workload_parser(w)(exit_code, json.dumps(report)))


def _runner(tmp_path):
    return run.Runner(tmp_path, time.perf_counter() + 60)


def _print_json(data) -> list[str]:
    return ["-c", f"print({json.dumps(json.dumps(data))})"]


def test_a_wrong_structural_answer_counts_as_a_failed_run(tmp_path):
    runner = _runner(tmp_path)
    w = WORKLOADS["skeleton-a5"]
    one_edge_short = ("import json; print(json.dumps({'vertices': ['v'] * 720, "
                      "'edges': [{'src': 'u', 'dst': 'v'}] * 17819}))")
    wrong = runner.run("wrong", ["-c", one_edge_short], 30, run._workload_parser(w),
                       w.expected)
    assert wrong.failed and wrong.problems == ["edges is 17819, expected 17820"]
    assert [c.failed for c in runner.children] == [True]


def test_guards_count_timeouts_memory_and_tracebacks(tmp_path):
    runner = _runner(tmp_path)
    expected = {"exit": 0}
    slow = runner.run("slow", ["-c", "import time; time.sleep(30)"], 0.5,
                      json_answers, expected)
    big = runner.run("big", ["-c", f"bytearray({2 * run.MEMORY_LIMIT_BYTES})"], 30,
                     json_answers, expected)
    ok = runner.run("ok", _print_json({}), 30, json_answers, expected)
    assert slow.failed and slow.problems[0].startswith("killed at the wall-time limit")
    assert slow.wall_s < 10
    assert big.failed and big.problems[-1] == "traceback: MemoryError"
    assert not ok.failed and ok.peak_rss_mb > 0


def test_no_child_starts_that_could_outlive_the_deadline(tmp_path):
    runner = run.Runner(tmp_path, time.perf_counter() + 5)
    late = runner.run("late", _print_json({}), 30, json_answers, {"exit": 0})
    assert late.failed and late.problems == ["no time left to start before the deadline"]
    assert not runner.can_start(30) and runner.can_start(1)


def test_trace_checks_report_count_mismatches_and_uncalled_spans():
    w = WORKLOADS["keys-a4"]
    rows = [(name, -1, 0.0, 1.0, 0) for name in sorted(w.spans)]
    component = ("crystal.tensor_component", -1, 0.0, 1.0, 1024)
    one = tracer.summarize(_tree(rows + [component], tracer.SPAN_NAMES))
    two = tracer.summarize(_tree(rows + [component] * 2, tracer.SPAN_NAMES))
    child = run.Child("traced", 1.0, 1.0, {"exit": 0})
    assert run.trace_checks(w, [child, child], child, [one, one]) == []
    problems = run.trace_checks(w, [child, child], child, [one, two])
    assert len(problems) == 1 and problems[0].startswith("crystal.tensor_component")
    bare = tracer.summarize(_tree([component], tracer.SPAN_NAMES))
    problems = run.trace_checks(w, [child, child], child, [bare, bare])
    assert problems == [f"{name} was never called" for name in sorted(w.spans)]


def test_traced_run_wraps_names_imported_by_other_modules(tmp_path):
    spans = tmp_path / "spans"
    runner = _runner(tmp_path)
    child = runner.run("traced", [str(run.BENCH_DIR / "traced.py"), str(spans),
                                  "keys_census", "A2"], 30, json_answers,
                       KEYS_A2.expected)
    assert not child.failed, child.problems
    s = tracer.summarize(tracer.load(spans))
    # right_end_tuple is looked up through kgraph's own import of the name
    assert s["rightends.right_end_tuple"]["calls"] == 8
    assert s["tableaux.left_key"]["calls"] == 8
    assert s["kgraph.init"]["calls"] == 1
    assert s["crystal.tensor_component"]["max_value"] == 8


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
