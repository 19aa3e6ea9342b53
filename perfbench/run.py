#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
library and the benchmark program (perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR
(default .bench_build); later calls rebuild incrementally. The program's
standard output is passed through; its last line is the result object.
--self-test runs a short mode of every workload and checks that every
metric named in BENCHMARK.json prints with its unit, that the oracle
comparison of the timed window fails the run on a result with one altered
value, and that the work counters repeat.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_BASE = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
BUILD_DIR = os.path.join(BUILD_BASE, "perfbench")
WORK_DIR = os.path.join(BUILD_BASE, "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def checkout_env():
    """The environment for the build and the program: temporary files stay
    inside the checkout."""
    tmp = os.path.abspath(os.path.join(BUILD_BASE, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the program; output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=checkout_env()).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr, env=checkout_env()).returncode == 0


def run_program(args, extra=()):
    """Runs the program once; returns (exit code, stdout lines)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=checkout_env())
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The result object on the last line, or None when malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            run = argparse.Namespace(workload=workload, seed=7, seconds=2,
                                     trace=trace)
            code, lines = run_program(run, ["--self-test"])
            result = parse_result(lines)
            facts = json.loads(lines[-2]) if len(lines) >= 2 else {}
            problems = []
            if code != 0 or result is None:
                problems.append("no result (exit %d)" % code)
            else:
                if not result["correct"]:
                    problems.append("incorrect: %s" % facts.get("failure"))
                for m in expected:
                    got = result["metrics"].get(m["name"])
                    if got is None:
                        problems.append("missing %s" % m["name"])
                    elif got.get("unit") != m["unit"]:
                        problems.append("unit of %s is %s, want %s"
                                        % (m["name"], got.get("unit"),
                                           m["unit"]))
                extra = set(result["metrics"]) - {m["name"] for m in expected}
                if extra:
                    problems.append("unlisted metrics %s" % sorted(extra))
            if facts.get("oracle_rejects_altered") != "yes":
                problems.append("oracle did not reject an altered result")
            if trace and facts.get("counters_repeat") != "exact":
                problems.append("work counters did not repeat")
            status = "PASS" if not problems else "FAIL"
            print("%s %s trace=%d %s" % (status, workload, trace,
                                         "; ".join(problems)))
            ok = ok and not problems
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test()

    code, lines = run_program(args)
    for line in lines:
        print(line)
    if code != 0 or parse_result(lines) is None:
        print("perfbench: the program produced no result", file=sys.stderr)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
