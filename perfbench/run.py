#!/usr/bin/env python3
"""Build and run the mindgap simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds the `perfbench` package beside
this file (a package of its own with path dependencies on the simulator's
crates) in release mode into $CARGO_TARGET_DIR (default `.bench_build`),
then runs it with the same arguments. The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.

`--workload all` runs every workload of BENCHMARK.json, each in a process
of its own (so each peak RSS is that workload's alone), and ends with one
JSON object whose metric names are prefixed by the workload.

Exits non-zero without printing a result when the build fails, e.g. when
the simulator's sources are not beside this directory.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Build the benchmark; return the binary's path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None, target
    return os.path.join(target, "release", "perfbench"), target


def workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run_all(binary, args):
    """Every workload in its own process; one merged JSON line at the end."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workload_names():
        wargs = [a if prev != "--workload" else name for prev, a in zip([None] + args, args)]
        proc = subprocess.run([binary] + wargs, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            merged["metrics"][name + "/" + metric] = v
    print(json.dumps(merged))
    return 0


def main():
    args = sys.argv[1:]
    binary, target = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args += ["--trace-out", os.path.join(target, "perfbench-traces")]
    if "--workload" in args and args[args.index("--workload") + 1] == "all":
        return run_all(binary, args)
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
