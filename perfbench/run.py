#!/usr/bin/env python3
"""fedshare end-to-end benchmark.

Builds the benchmark program, fedbench (perfbench/CMakeLists.txt, linked
against the library sources in src/), into .bench_build/perfbench, then
runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of stdout is the run's JSON result. Build output goes to
stderr. Run from the repository root.

    python3 perfbench/run.py --self-test

runs every workload with a few ops, checks that each metric named in
BENCHMARK.json prints with its unit, and checks that corrupted outputs
are caught by the correctness checks.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fedbench")


def build():
    """Configures (once) and builds fedbench; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "fedbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))


def run_fedbench(args):
    """Runs fedbench; returns (exit code, stdout text)."""
    done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace, listed in (("0", spec["end_to_end"]),
                              ("1", spec["per_layer"])):
            name = workload["name"]
            code, out = run_fedbench(["--workload", name, "--seed", "1",
                                      "--seconds", "1", "--trace", trace,
                                      "--ops", "3"])
            where = "%s --trace %s" % (name, trace)
            if code != 0 or not out.strip():
                problems.append("%s: exit %d" % (where, code))
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: outputs failed their checks" % where)
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in listed}
            if set(metrics) != set(want):
                problems.append("%s: metrics %s, want %s"
                                % (where, sorted(metrics), sorted(want)))
            for key, unit in want.items():
                got = metrics.get(key, {})
                if got.get("unit") != unit or not isinstance(
                        got.get("value"), (int, float)):
                    problems.append("%s: %s prints %r, want a value in %s"
                                    % (where, key, got, unit))
            print("self-test: %s ok" % where, file=sys.stderr)
    code, _ = run_fedbench(["--check-checker"])
    if code != 0:
        problems.append("corrupted outputs were not all caught")
    for problem in problems:
        print("self-test: FAIL: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    build()
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
