#!/usr/bin/env python3
"""The benchmark's regression comparison, and a self-test proving it bites.

    python3 perfbench/gate.py

For every workload of BENCHMARK.json, runs PAIRS pairs of SECONDS-second
end-to-end runs (alternating which side goes first): a normal run and one
whose rep loop times HANDICAP reps and credits one (the binary's
`--handicap`), a slowdown injected into the benchmark's own loop. It then applies the comparison rule to the
two sides' medians and exits 0 only if every workload is flagged as a
regression, i.e. the gate fails the handicapped side on every workload
despite the host noise described in README.md.

Comparison rule (the one BENCHMARK.json's bounds are written for): a
metric regresses when the new median is worse than the base median by more
than `bound` times the base median, in the metric's `better` direction.
"""

import json
import os
import statistics
import subprocess
import sys

import run

PAIRS = 3
SECONDS = 10
HANDICAP = 2

def regressions(base, new, spec):
    """Metrics of `spec` (BENCHMARK.json's end_to_end) on which the
    median of `new` is worse than that of `base` by more than the bound.

    `base` and `new` are lists of result objects as run.py prints them.
    Returns [(name, base_median, new_median, worse_share)]."""
    out = []
    for m in spec:
        name = m["name"]
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
        if worse > m["bound"]:
            out.append((name, b, n, worse))
    return out


def run_once(binary, workload, seed, seconds, handicap):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--handicap", str(handicap)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"gate: {workload} seed {seed} handicap {handicap}: outputs incorrect")
    return result


def main():
    binary, _ = run.build()
    if binary is None:
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = bench["end_to_end"]
    missed = []
    for w in bench["workloads"]:
        base, slow = [], []
        for i in range(PAIRS):
            seed = 100 + i
            sides = [(base, 1), (slow, HANDICAP)]
            for results, k in (sides if i % 2 == 0 else sides[::-1]):
                results.append(run_once(binary, w["name"], seed, SECONDS, k))
        found = regressions(base, slow, spec)
        for name, b, n, worse in found:
            print(f"{w['name']:<22} {name:<16} base {b:.6g} -> handicapped {n:.6g}: "
                  f"{worse:+.1%} worse (bound {next(m['bound'] for m in spec if m['name'] == name):.0%})")
        if not found:
            print(f"{w['name']:<22} NOT flagged")
            missed.append(w["name"])
    if missed:
        print(f"gate self-test FAILED: handicap {HANDICAP} not caught on {missed}")
        return 1
    print(f"gate self-test passed: handicap {HANDICAP} caught on every workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
