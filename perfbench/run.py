#!/usr/bin/env python3
"""End-to-end benchmark of the durable TCP deployment of the file service.

Run from the root of the source tree:

    python3 perfbench/run.py --workload private_update --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the benchmark and the repository's own libraries) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, runs the checker self-test, then
one measured run of the workload. The last line of stdout is the run's JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("private_update", "hot_counter", "read_mostly")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "afs_perfbench", "afs_perfbench_selftest"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the root of the source tree (no src/CMakeLists.txt here)")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    selftest = subprocess.run([os.path.join(build_dir, "afs_perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        fail("checker self-test failed")

    store = os.path.join(root, ".perfbench_run", f"store-{os.getpid()}")
    command = [os.path.join(build_dir, "afs_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--store", store]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(store, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(store))
        except OSError:
            pass
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"run exited with code {run.returncode}")
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
