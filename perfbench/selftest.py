#!/usr/bin/env python3
"""Self-tests of the benchmark at tiny size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, runs vbench untraced and traced at tiny
size and checks that:
  - both runs exit 0 and report correct outputs with no failed operation;
  - the traced and untraced runs give the same output digest and the same
    deterministic counts (round_trips, wire_bytes, fees_cents,
    network_sim_s);
  - the metric names and units printed are exactly those of BENCHMARK.json
    (end_to_end untraced, per_layer traced).
It also runs tenant-mix with --saturate (the capacity reading README.md
cites) and checks that its outputs are correct.
Exits 1 on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "3"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", "0.5", "--trace", str(trace), "--tiny",
           *extra]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit("FAIL %s trace=%d: exit %d\n%s" %
                 (workload, trace, res.returncode, res.stdout))
    result = json.loads(lines[-1])
    tags = dict(line[2:].split("=", 1) for line in lines
                if line.startswith("# digest=") or
                line.startswith("# deterministic="))
    return result, tags["digest"], json.loads(tags["deterministic"])


def same_counts(a, b):
    """Equal up to the rounding of float sums taken in completion order."""
    return a.keys() == b.keys() and all(
        abs(a[k] - b[k]) <= 1e-9 * max(1.0, abs(a[k])) for k in a)


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in (w["name"] for w in bench["workloads"]):
        runs = {trace: run(w, trace) for trace in (0, 1)}
        for trace, (result, _, _) in runs.items():
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  "%s trace=%d: outputs correct, no failed operation" %
                  (w, trace))
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == expected[trace],
                  "%s trace=%d: metric names and units match BENCHMARK.json" %
                  (w, trace))
        check(runs[0][1] == runs[1][1],
              "%s: traced and untraced output digests agree" % w)
        check(same_counts(runs[0][2], runs[1][2]),
              "%s: traced and untraced deterministic counts agree" % w)
    result = run("tenant-mix", 0, "--saturate")[0]
    check(result["correct"] and result["failed"] == 0,
          "tenant-mix --saturate: outputs correct, no failed operation")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
