#!/usr/bin/env python3
"""Smoke test of the benchmark: a short run of every workload, untraced and
traced, through the command in BENCHMARK.json. Checks that the last output
line parses, has exactly the contract's keys, reports a correct run, and
prints every metric BENCHMARK.json names, by name and with its unit; and that
a traced run writes spans for every layer its workload reaches, whose self
times cover at least nine tenths of the programs' time.

Run from the repository root:  python3 perfbench/smoke.py [--seconds N]
"""

import json
import os
import subprocess
import sys

# Span names each workload's traced run must record (nothing inside the
# server is instrumented, so `service` spans are the client's view).
IN_PROCESS_SPANS = {
    "program", "parser.parse", "ail.desugar", "elab.elaborate",
    "analysis.interp", "analysis.validate", "pipeline.execute_bounded",
    "exec.run", "wire.render",
}
SPANS = {
    "litmus": IN_PROCESS_SPANS,
    "csmith_large": IN_PROCESS_SPANS,
    "service": {"program", "server.ack", "server.poll", "queue.wait"},
}


def run(bench, workload, seconds, trace):
    args = ["--workload", workload, "--seed", "1", "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(bench["command"] + args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def check(bench, workload, trace, result):
    where = f"{workload} trace={trace}"
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"not correct: {result.get('failed')} of {result.get('attempted')} failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    expected = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}")
    if trace:
        if metrics.get("trace.named_share_pct", {}).get("value", 0) < 90:
            problems.append(f"named layers cover {metrics.get('trace.named_share_pct')}")
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        path = os.path.join(target, "perfbench", f"spans-{workload}-seed1.jsonl")
        with open(path) as spans:
            names = {json.loads(line)["name"] for line in spans}
        if names != SPANS[workload]:
            problems.append(f"span names {sorted(names)}")
    for p in problems:
        print(f"FAIL {where}: {p}")
    if not problems:
        print(f"ok   {where}: {len(metrics)} metrics, {result['attempted']} programs")
    return not problems


def main():
    seconds = 2
    if sys.argv[1:2] == ["--seconds"]:
        seconds = int(sys.argv[2])
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            ok &= check(bench, workload, trace, run(bench, workload, seconds, trace))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
