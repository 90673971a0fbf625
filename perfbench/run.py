#!/usr/bin/env python3
"""Builds the checker and the benchmark from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <check|abstract> --seed <n> \
        --seconds <s> --trace <0|1> [--quick]

Both builds go to $CARGO_TARGET_DIR (default: .bench_build in the checkout).
Build output goes to standard error; standard output carries the benchmark's
metadata line and, last, its one-line JSON result. See perfbench/README.md.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures --seconds plus set-up; anything past this is a hang.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def probe(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    # The checker's sources must be in this checkout: never let cargo search
    # the parent directories for some other manifest.
    for needed in ("Cargo.toml", os.path.join("src", "bin", "rlcheck.rs")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return fail(f"{needed} not found in {ROOT}: nothing to build")
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = (
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         "Cargo.toml", "--bin", "rlcheck"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    )
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return fail("build failed: " + " ".join(cmd))
    env["PERFBENCH_COMMIT"] = (
        probe(["git", "rev-parse", "HEAD"])
        if os.path.isdir(os.path.join(ROOT, ".git"))
        else "unknown"
    )
    env["PERFBENCH_RUSTC"] = probe(["rustc", "--version"])
    cmd = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--rlcheck",
        os.path.join(target, "release", "rlcheck"),
    ]
    # Its own process group, so stopping a run takes its serve daemon down
    # too: on a hang, and when this wrapper is told to stop.
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)

    def kill_run():
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        # The killed run could not remove its scratch directory.
        work = os.path.join(ROOT, ".bench_work")
        shutil.rmtree(os.path.join(work, str(child.pid)), ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass

    def stop(signum, _frame):
        kill_run()
        sys.exit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_run()
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
