#!/usr/bin/env python3
"""Builds and runs perfbench from a source checkout.

    python3 perfbench/run.py --workload serve_inproc --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --self-test

The binary is built (CMake, Release) into .bench_build/perfbench under the
checkout root; build output goes to stderr so the benchmark's last stdout
line stays its JSON result. --self-test runs the harness self-tests, then
a two-second smoke run of every workload in both modes and checks each
result against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKDIR = os.path.join(BUILD_DIR, "work")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no source tree around %s" % BENCH_DIR, file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    os.makedirs(WORKDIR, exist_ok=True)
    return True


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            return got.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run_binary(args, capture):
    cmd = [BINARY] + args + ["--workdir", WORKDIR, "--commit", source_id()]
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None


def self_test():
    if subprocess.run([BINARY, "--self-test"]).returncode != 0:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            got = run_binary(["--workload", workload, "--seed", "1",
                              "--seconds", "2", "--trace", trace], True)
            ok = got is not None and got.returncode == 0
            if ok:
                result = json.loads(got.stdout.strip().splitlines()[-1])
                names = {m["name"] for m in spec[key]}
                ok = (set(result) == {"correct", "attempted", "failed",
                                      "metrics"}
                      and result["correct"] is True
                      and result["attempted"] >= 1
                      and set(result["metrics"]) == names)
            print("smoke %-13s trace=%s %s" % (workload, trace,
                                               "ok" if ok else "FAILED"),
                  file=sys.stderr)
            failures += 0 if ok else 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="16")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not build():
        return 1
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    got = run_binary(["--workload", args.workload, "--seed", args.seed,
                      "--seconds", args.seconds, "--trace", args.trace], False)
    return 1 if got is None else got.returncode


if __name__ == "__main__":
    sys.exit(main())
