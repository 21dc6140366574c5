#!/usr/bin/env python3
"""Builds lvbench and lvtool from this checkout, then runs one workload.

    python3 perfbench/run.py --workload paper_flow|glitch_sim|serve_zipf \
        --seed N --seconds S --trace 0|1

Run it from the root of the checkout. The build goes to .bench_build/;
everything the run writes stays under .bench_build/ and is removed when
it ends. The last line of stdout is the result object printed by
lvbench; build output goes to stderr.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("paper_flow", "glitch_sim", "serve_zipf")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# Beyond --seconds: repeated set-up, the reference pass, output checks
# and replays, and the server's drain.
RUN_MARGIN_S = 140


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the two binaries; returns their paths."""
    for needed in ("CMakeLists.txt", "src", "tools/lvtool.cpp",
                   "perfbench/CMakeLists.txt"):
        if not os.path.exists(needed):
            fail(f"'{needed}' not found; run from the root of an lvsim checkout")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                  "--target", "lvbench", "lvtool"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return (os.path.join(BUILD_DIR, "lvbench"),
            os.path.join(BUILD_DIR, "lvsim", "tools", "lvtool"))


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    lvbench, lvtool = build()
    work = os.path.join(".bench_build", "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [lvbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--lvtool", lvtool, "--work", work, "--commit", commit()]
    # Own process group, so a timeout also stops the server lvbench spawns.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        rc = 1
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        rc = 130
    shutil.rmtree(work, ignore_errors=True)
    # Commit the removal before exiting, so its disk work does not spill
    # into whatever runs next.
    fd = os.open(os.path.dirname(work), os.O_RDONLY)
    os.fsync(fd)
    os.close(fd)
    sys.exit(rc)


if __name__ == "__main__":
    main()
