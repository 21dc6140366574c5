#!/usr/bin/env python3
"""The benchmark's own test: its deterministic work counts repeat exactly
for the same seed and change with the seed, and every run is correct.

    python3 perfbench/test_counts.py        # from the checkout root

Each workload is run three times with --trace 1 (seeds 1, 1, 2) for a
short measurement; the counts come from its fixed work sample, so the
run length does not move them.
"""
import json
import subprocess
import sys

# Per workload, the per-layer metrics that are counts of work done on the
# workload's fixed sample (see perfbench/README.md).
COUNTS = {
    "paper_flow": ["profile.instructions", "circuit.gates", "sim.compiles",
                   "sim.transitions", "sim.events", "sim.settle_calls",
                   "opt.optimize_vt_evals", "opt.dual_vt_high_vt",
                   "core.grid_points"],
    "glitch_sim": ["circuit.gates", "sim.compiles", "sim.transitions",
                   "sim.events", "sim.settle_calls", "sim.faults_graded"],
    "serve_zipf": ["sim.transitions", "sim.events", "sim.settle_calls",
                   "sim.faults_graded", "store.sample_hits",
                   "store.sample_writes"],
}
# Stimulus is drawn from the seed in every workload.
SEED_DEPENDENT = "sim.transitions"


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload} seed {seed}: run not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    failures = []
    for workload, names in COUNTS.items():
        first, again, other = run(workload, 1), run(workload, 1), run(workload, 2)
        for name in names:
            if first[name] != again[name]:
                failures.append(f"{workload}: {name} differs for the same seed "
                                f"({first[name]} vs {again[name]})")
            if first[name] == 0:
                failures.append(f"{workload}: {name} is 0")
        if first[SEED_DEPENDENT] == other[SEED_DEPENDENT]:
            failures.append(f"{workload}: {SEED_DEPENDENT} did not change with the seed")
        print(f"{workload}: " + ", ".join(f"{n}={first[n]:.0f}" for n in names))
    for f in failures:
        print("FAIL " + f)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
