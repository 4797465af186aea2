#!/usr/bin/env python3
"""Builds and runs the fpr benchmark (fprbench/fpr_bench) for one workload.

Run from the repository root:

    python3 fprbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 fprbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset
(a CMake tree, Release; configuring and building are no-ops when current). With --trace 0 the set-up is sampled in extra
--setup-only processes and setup_s is the median over those samples and the
measured run. The last line of standard output is the result object; with
--trace 1 the spans are written to <build>/traces/. The exit code is 0 only
when the build succeeded and every operation of the run was correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170  # a run must end within 180 s of its build
# Extra --setup-only processes per timed run: at least SETUP_MIN, and up to
# SETUP_MAX while the samples so far took less than SETUP_BUDGET_S.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 2, 12, 3.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds fpr_bench (a no-op when up to date); returns its
    path, or None when a step fails."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "fpr_bench", "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("error: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "fpr_bench")


def git_commit():
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_binary(binary, args, deadline):
    """Runs fpr_bench; returns (exit code, stdout lines) or (None, lines) on timeout."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("error: fpr_bench " + " ".join(args) + " timed out")
        return None, []
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    """The result object on the last stdout line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def run(args):
    binary = build()
    if binary is None:
        return 1
    deadline = time.monotonic() + DEADLINE_S  # the first run may also build
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--suite-seed", str(args.suite_seed)]

    setup_samples = []
    while not args.trace and len(setup_samples) < SETUP_MAX and (
            len(setup_samples) < SETUP_MIN or sum(setup_samples) < SETUP_BUDGET_S):
        code, lines = run_binary(binary, common + ["--setup-only"], deadline)
        sample = result_of(lines)
        if code != 0 or sample is None:
            log("error: set-up sample failed")
            return 1
        setup_samples.append(sample["setup_s"])

    main_args = common + ["--seconds", str(args.seconds), "--trace", "1" if args.trace else "0",
                          "--commit", git_commit()]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        main_args += ["--trace-out",
                      os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    code, lines = run_binary(binary, main_args, deadline)
    result = result_of(lines)
    if code is None or result is None:
        log("error: fpr_bench produced no result")
        return 1
    if not args.trace:
        metric = result["metrics"]["setup_s"]
        metric["value"] = statistics.median(setup_samples + [metric["value"]])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1995)
    parser.add_argument("--suite-seed", type=int, default=1995,
                        help="synthesis seed of the benchmark-suite circuits (31: held out)")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        sys.dont_write_bytecode = True  # keep the source tree clean
        import selftest
        return selftest.main(build, run_binary, result_of)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
