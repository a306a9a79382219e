"""Benchmark of crystalgraphs: time to verdict, set-up time and peak memory of
exhaustive-verification workloads, and per-layer spans from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload axioms-a2 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Every workload run is a fresh child process, started one at a time.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  perfbench/README.md describes the
workloads and every metric.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import platform
import py_compile
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import WORKLOADS, Workload, answers, gate, json_answers, setup_expected

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBE_S = 1.0         # set-up is timed in fresh processes for this long,
MIN_SETUP_PROBES = 5        # and at least this many times, per run
MIN_RUNS = 2                # untraced workload children per run, at least
PROBE_LIMIT_S = 20
MEMORY_LIMIT_BYTES = 1 << 30  # address space of each child
RUN_DEADLINE_S = 165        # no child starts that could run past this
TAIL_BEYOND = 10            # samples required beyond a reported percentile


@dataclass
class Child:
    """One finished child process and what the gate made of it."""

    label: str
    wall_s: float
    peak_rss_mb: float
    answers: dict
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


class Runner:
    """Starts children one at a time, each under a wall-time and an
    address-space limit, and keeps every result for the failure count."""

    def __init__(self, out_dir: Path, deadline: float):
        self.out_dir = out_dir
        self.deadline = deadline
        self.children: list[Child] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def can_start(self, limit_s: float) -> bool:
        """Whether a child with this wall-time limit ends before the deadline."""
        return self.deadline - time.perf_counter() >= limit_s

    def refuse(self, label: str) -> Child:
        """Count a run that could not start before the deadline as failed."""
        child = Child(label, 0.0, 0.0, {}, ["no time left to start before the deadline"])
        self.children.append(child)
        return child

    def run(self, label: str, argv: list[str], limit_s: float, parse,
            expected: dict) -> Child:
        """Run `python argv`, time it, and gate parse(exit, stdout) on expected."""
        if not self.can_start(limit_s):
            return self.refuse(label)
        out_path = self.out_dir / f"{label}.out"
        err_path = self.out_dir / f"{label}.err"
        killed = threading.Event()
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    start_new_session=True, preexec_fn=_limit_memory)

            def kill():
                killed.set()
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)

            timer = threading.Timer(limit_s, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = exit_code = os.waitstatus_to_exitcode(status)
        got = parse(exit_code, out_path.read_text())
        problems = gate(expected, got)
        if killed.is_set():
            problems.insert(0, f"killed at the wall-time limit of {limit_s:g} s")
        stderr = err_path.read_text()
        if "Traceback" in stderr:
            problems.append("traceback: " + stderr.strip().splitlines()[-1])
        child = Child(label, wall, usage.ru_maxrss / 1024, got, problems)
        self.children.append(child)
        return child


def _workload_parser(workload: Workload):
    def parse(exit_code: int, stdout: str) -> dict:
        try:
            return answers(workload, exit_code, stdout)
        except (KeyError, TypeError):
            return {"exit": exit_code}
    return parse


def timing(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile that still has
    TAIL_BEYOND samples above it (absent below TAIL_BEYOND + 1 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n > TAIL_BEYOND:
        out["tail_percentile"] = 100 * (n - TAIL_BEYOND) // n
        out["tail"] = ordered[n - TAIL_BEYOND - 1]
    return out


def _run_workload(runner: Runner, workload: Workload, label: str) -> Child:
    return runner.run(label, workload.command(BENCH_DIR), workload.limit_s,
                      _workload_parser(workload), workload.expected)


def _untraced_until(runner: Runner, workload: Workload, seconds: float,
                    start: float, minimum: int) -> list[Child]:
    """Untraced runs, at least `minimum`; each further one starts only while it
    is expected to end within half a run of `seconds` after `start`.  None
    starts that could outlive the deadline."""
    runs = []
    while runner.can_start(workload.limit_s) and (
            len(runs) < minimum
            or time.perf_counter() - start + runs[-1].wall_s / 2 < seconds):
        runs.append(_run_workload(runner, workload, f"run-{len(runs)}"))
    return runs or [runner.refuse("run-0")]


def measure(runner: Runner, workload: Workload, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off."""
    probe = [str(BENCH_DIR / "setup_probe.py"), workload.algebra]
    expected = setup_expected(workload.algebra)
    start = time.perf_counter()
    probes = []
    while (len(probes) < MIN_SETUP_PROBES
           or time.perf_counter() - start < SETUP_PROBE_S) and runner.can_start(PROBE_LIMIT_S):
        probes.append(runner.run(f"setup-{len(probes)}", probe, PROBE_LIMIT_S,
                                 json_answers, expected))
    runs = _untraced_until(runner, workload, seconds, time.perf_counter(), MIN_RUNS)
    stats = {
        "wall_s": timing([c.wall_s for c in runs]),
        "setup_s": timing([c.answers.get("setup_s", c.wall_s) for c in probes]),
        "peak_rss_mb": timing([c.peak_rss_mb for c in runs]),
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit in units.items()}
    return metrics, stats


def trace_checks(workload: Workload, traced: list[Child], untraced: Child,
                 summaries: list[dict]) -> list[str]:
    """Counts must repeat exactly between the traced runs, the workload must
    call each of its spans, and the traced runs must give the untraced run's
    structural answers."""
    problems = [f"{name} was never called" for name in sorted(workload.spans)
                if summaries[0][name]["calls"] == 0]
    counts = [{name: (s["calls"], s["value"], s["leaves"]) for name, s in summary.items()}
              for summary in summaries]
    for name in counts[0]:
        if counts[0][name] != counts[1][name]:
            problems.append(f"{name}: (calls, value, leaves) {counts[0][name]} "
                            f"!= {counts[1][name]} between the traced runs")
    for child in traced:
        if child.answers != untraced.answers:
            problems.append(f"{child.label} answered {child.answers}, "
                            f"untraced {untraced.answers}")
    largest = summaries[0]["crystal.tensor_component"]["max_value"]
    if workload.largest_crystal is not None and largest != workload.largest_crystal:
        problems.append(f"largest component has {largest} elements, "
                        f"expected {workload.largest_crystal}")
    return problems


def trace(runner: Runner, workload: Workload, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from two traced runs, then untraced runs for the
    tracing overhead."""
    start = time.perf_counter()
    traced = []
    for k in range(2):
        spans = runner.out_dir / f"traced-{k}.spans"
        argv = [str(BENCH_DIR / "traced.py"), str(spans), workload.module, *workload.args]
        traced.append(runner.run(f"traced-{k}", argv, workload.limit_s,
                                 _workload_parser(workload), workload.expected))
    untraced = _untraced_until(runner, workload, seconds, start, 1)
    if any(c.failed for c in traced + untraced):
        return {}, {}
    spans = [tracer.load(runner.out_dir / f"traced-{k}.spans") for k in range(2)]
    summaries = [tracer.summarize(tr) for tr in spans]
    problems = trace_checks(workload, traced, untraced[0], summaries)
    traced[1].problems.extend(problems)
    traced_wall = statistics.median(c.wall_s for c in traced)
    untraced_wall = statistics.median(c.wall_s for c in untraced)
    span_cost = statistics.median(sum(tr.cost) for tr in spans)
    extra = {
        "verify.checks": (traced[0].answers.get("instances_checked", 0), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (len(spans[0]) * span_cost, "s"),
        "trace.span_cost_ns": (span_cost * 1e9, "ns"),
        "trace.spans": (len(spans[0]), "count"),
    }
    metrics = tracer.layer_metrics(summaries)
    metrics.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    return metrics, {"trace_problems": problems,
                     "measured_overhead_s": traced_wall - untraced_wall}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    """Interpreter, processor and source revision of this result."""
    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
    }


def build() -> None:
    """Byte-compile the program once, so no timed run pays for it."""
    mode = py_compile.PycInvalidationMode.TIMESTAMP
    for tree in (SRC, BENCH_DIR):
        if not compileall.compile_dir(tree, quiet=1, invalidation_mode=mode):
            raise SystemExit(f"error: {tree} does not compile")


def run_one(workload: Workload, seconds: float, traced: bool, seed: int,
            env: dict) -> dict:
    out_dir = OUT_DIR / f"{workload.name}-trace{int(traced)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(out_dir, time.perf_counter() + RUN_DEADLINE_S)
    mode = trace if traced else measure
    metrics, stats = mode(runner, workload, seconds)
    failed = [c for c in runner.children if c.failed]
    result = {
        "correct": not failed and bool(metrics),
        "attempted": len(runner.children),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(traced), "environment": env, "result": result,
              "stats": stats,
              "children": [vars(c) for c in runner.children]}
    (OUT_DIR / f"{workload.name}-trace{int(traced)}-seed{seed}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    for child in failed:
        print(f"{workload.name}: {child.label} FAILED: {'; '.join(child.problems)}")
    _print_summary(workload, result, stats)
    return result


def _print_summary(workload: Workload, result: dict, stats: dict) -> None:
    ratio = result["failed"] / result["attempted"]
    print(f"{workload.name}: fail_ratio {ratio:.4f} "
          f"({result['failed']} of {result['attempted']} child runs)")
    for name, metric in result["metrics"].items():
        line = f"{workload.name}: {name} {metric['value']:.6g} {metric['unit']}"
        spread = stats.get(name)
        if isinstance(spread, dict) and "n" in spread:
            line += f" (median of {spread['n']}"
            if "tail" in spread:
                line += f"; p{spread['tail_percentile']} {spread['tail']:.6g}"
            line += ")"
        print(line)
    if "measured_overhead_s" in stats:
        print(f"{workload.name}: traced minus untraced wall time "
              f"{stats['measured_overhead_s']:.6g} s (machine drift moves this)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: every workload is a fixed enumeration")
    parser.add_argument("--seconds", type=float, default=25,
                        help="untraced runs start until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crystalgraphs" / "__init__.py").is_file():
        print(f"error: no crystalgraphs sources under {SRC}", file=sys.stderr)
        return 2
    build()
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_one(WORKLOADS[name], args.seconds, bool(args.trace),
                             args.seed, env) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric for name, r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
