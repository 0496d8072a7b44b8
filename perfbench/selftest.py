#!/usr/bin/env python3
"""Fast self-test of the benchmark runner.

Runs every workload at its tiny size, in the timed and the traced mode,
through the command in BENCHMARK.json, and checks that:

- the result line has exactly the keys correct, attempted, failed and
  metrics, and the run is correct with no failed operation;
- every metric name and unit matches BENCHMARK.json (end_to_end when
  timed, per_layer when traced);
- in each traced iteration the layer self times plus the uncovered time
  add up to the iteration's wall time, as the raw spans show it;
- a seed without recorded digests also runs with no failure;
- the runner refuses to run under the interpreted matcher.

Run from the repository root:  python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
DEFAULT_SEED = 9309
failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL", what, file=sys.stderr)


def run(workload, seed, trace, env=None):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)
    return proc


def result_of(proc, what):
    check(proc.returncode == 0, f"{what}: exit code {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        check(False, f"{what}: no result line")
        return None
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{what}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{what}: correct={result['correct']} failed={result['failed']}")
    return result


def check_metrics(result, declared, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, f"{what}: metrics differ from BENCHMARK.json: "
          f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
          f"units {[(n, got[n], want[n]) for n in got if n in want and got[n] != want[n]]}")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{what}: {name} is not a number")


def check_trace(workload, result):
    """Each breakdown must add up, and agree with the raw spans."""
    path = os.path.join(ROOT, "perfbench", "out", f"trace-{workload}-{DEFAULT_SEED}.jsonl")
    records = [json.loads(line) for line in open(path)]
    check("env" in records[0], f"{workload}: trace has no environment record")
    spans = [r for r in records if "span" in r]
    breakdowns = [r for r in records if "breakdown" in r]
    check(len(breakdowns) >= 1, f"{workload}: no traced iteration")
    for b in breakdowns:
        what = f"{workload} iteration {b['breakdown']}"
        root = [s for s in spans if s["name"] == "bench.iteration" and s["iter"] == b["breakdown"]]
        check(len(root) == 1, f"{what}: {len(root)} iteration spans")
        if not root:
            continue
        wall = (root[0]["end_ns"] - root[0]["start_ns"]) / 1e9
        children = [s for s in spans if s["parent"] == root[0]["span"]]
        covered = sum(s["end_ns"] - s["start_ns"] for s in children) / 1e9
        total = sum(b["layers"].values()) + b["uncovered_s"]
        tol = 1e-6 * max(wall, 1e-3)
        check(abs(b["wall_s"] - wall) <= tol, f"{what}: wall {b['wall_s']} != span {wall}")
        check(abs(b["uncovered_s"] - (wall - covered)) <= tol,
              f"{what}: uncovered {b['uncovered_s']} != wall minus spans {wall - covered}")
        check(abs(total - wall) <= tol, f"{what}: layers + uncovered = {total} != wall {wall}")
        check(all(v >= 0 for v in b["layers"].values()), f"{what}: negative self time {b['layers']}")
        for layer in b["layers"]:
            check(f"{layer}_s" in result["metrics"], f"{what}: layer {layer} has no metric")
    uncovered = sorted(b["uncovered_s"] for b in breakdowns)
    if len(uncovered) % 2:
        median = uncovered[len(uncovered) // 2]
    else:
        median = (uncovered[len(uncovered) // 2 - 1] + uncovered[len(uncovered) // 2]) / 2
    reported = result["metrics"]["bench.uncovered_s"]["value"]
    check(abs(reported - median) <= 1e-9, f"{workload}: bench.uncovered_s {reported} != {median}")


def main():
    workloads = [w["name"] for w in BENCH["workloads"]]
    for workload in workloads:
        timed = result_of(run(workload, DEFAULT_SEED, 0), f"{workload} timed")
        if timed:
            check_metrics(timed, BENCH["end_to_end"], f"{workload} timed")
        traced = result_of(run(workload, DEFAULT_SEED, 1), f"{workload} traced")
        if traced:
            check_metrics(traced, BENCH["per_layer"], f"{workload} traced")
            check_trace(workload, traced)
        result_of(run(workload, 7, 0), f"{workload} second seed")
        print(f"ok {workload}", file=sys.stderr)

    env = dict(os.environ, BOTSCOPE_MATCHER="interpreted")
    proc = run(workloads[0], DEFAULT_SEED, 0, env=env)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "the interpreted matcher was not refused")

    if failures:
        print(f"{len(failures)} self-test failure(s)", file=sys.stderr)
        return 1
    print("perfbench self-test passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
