#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. --seconds defaults to run_seconds in
BENCHMARK.json. The build goes to $CARGO_TARGET_DIR (default
.bench_build); scratch files go to a per-run directory under it and are
removed on every exit path. The last line of standard output is the run's
JSON result. --self-test builds and runs the checkers' own tests.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ["align-paper", "serve-mixed", "fleet-routed", "sparse-index"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir, targets):
    """Configures (once) and builds `targets`; all output goes to stderr."""
    for required in ("src/CMakeLists.txt", "examples/entmatcher_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            log("perfbench: repository source %s is missing" % required)
            return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr, cwd=ROOT) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    return subprocess.call(command, stdout=sys.stderr, cwd=ROOT) == 0


def run_child(command):
    """Runs `command` in its own process group, forwarding its stdout.

    Every process left in the group when it ends, or when it overruns
    RUN_TIMEOUT_S, is killed.
    """
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             start_new_session=True, text=True)

    def signal_group(sig):
        try:
            os.killpg(child.pid, sig)
        except (ProcessLookupError, PermissionError):
            pass

    def overrun():
        log("perfbench: run exceeded %d s, stopping it" % RUN_TIMEOUT_S)
        signal_group(signal.SIGTERM)
        time.sleep(5)
        signal_group(signal.SIGKILL)

    timer = threading.Timer(RUN_TIMEOUT_S, overrun)
    timer.daemon = True
    timer.start()
    try:
        for line in child.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
        return child.wait()
    finally:
        timer.cancel()
        signal_group(signal.SIGKILL)
        child.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    os.chdir(ROOT)
    if args.seconds is None and not args.self_test:
        with open("BENCHMARK.json") as f:
            args.seconds = json.load(f)["run_seconds"]
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if os.path.isabs(build_dir):
        build_dir = os.path.relpath(build_dir, ROOT)
    if args.self_test:
        if not build(build_dir, ["perfbench_checks_test"]):
            return 1
        return subprocess.call([os.path.join(build_dir, "perfbench_checks_test")])

    if not build(build_dir, ["perfbench", "entmatcher_cli"]):
        log("perfbench: build failed")
        return 1
    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    try:
        return run_child([os.path.join(build_dir, "perfbench"),
                          "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace),
                          "--workdir", workdir])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
