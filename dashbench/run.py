#!/usr/bin/env python3
"""Builds and runs the Dash end-to-end benchmark.

    python3 dashbench/run.py --workload light --seed 1 --seconds 24 --trace 0 --rates ...
    python3 dashbench/run.py --selftest

Run it from the root of a checkout of the whole repository. It configures
and builds dashbench/ (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR or
.bench_build/, then runs the benchmark binary, whose last line of standard
output is the JSON result. Build output goes to standard error. Records
and span files go to .bench_out/. See dashbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room to report a timeout.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print("dashbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "dashbench")


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", out, "-j", jobs, "--target", target])
    return os.path.join(out, target)


def run_build_step(command):
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build step failed: %s" % e, 1)
    if done.returncode != 0:
        fail("build step failed: " + " ".join(command), 1)


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark compiles (src/ and dashbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "dashbench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run(command, timeout):
    """Runs `command` with inherited stdout; returns its exit code."""
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % timeout, 1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["light", "heavy", "writes", "routed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--rates", default="",
                        help="open-loop rates, e.g. light=2000,...,updates=95")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "search_server.h")):
        fail("the engine sources (src/) are missing; run from a full checkout")
    if args.selftest:
        sys.exit(run([build("dashbench_selftest")], RUN_TIMEOUT_S))
    if args.workload is None or not args.rates:
        fail("--workload and --rates are required")

    binary = build("dashbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--rates", args.rates, "--out", os.path.join(ROOT, ".bench_out"),
               "--commit", git_commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    sys.exit(run(command, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
