#!/usr/bin/env python3
"""Steadiness check: run one workload N times, each with another seed,
and report each metric's spread against its bound in BENCHMARK.json.

The spread is the distance between the first and third quartile of the
N values (``statistics.quantiles(values, n=4)``) as a share of their
median. An end-to-end metric other than ``setup_s`` whose spread exceeds
its bound makes the script exit with status 1; a spread above a third
of the bound is flagged as not yet steady.

Usage, from the repository root:

    python3 perfbench/spread.py --workload fleet_16k --runs 5
    python3 perfbench/spread.py --workload apps_rw --runs 10 --trace 1

The held-out seed is never used here; it is kept for re-checking claims.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 7919


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: incorrect result: {result}")
    return result, elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    seeds = [s for s in range(args.first_seed, args.first_seed + args.runs + 1)
             if s != HELD_OUT_SEED][: args.runs]

    values = {m["name"]: [] for m in metrics}
    for seed in seeds:
        result, elapsed = run_once(bench["command"], args.workload, seed, seconds, args.trace)
        for m in metrics:
            values[m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"seed {seed}: {elapsed:.1f} s", flush=True)

    worst = False
    print(f"\n{args.workload}, {len(seeds)} runs, trace {args.trace}")
    print(f"{'metric':<28} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = m.get("bound")
        if bound is None:
            verdict = ""
        elif spread > bound:
            verdict = "OVER BOUND" + (" (not gated)" if m["name"] == "setup_s" else "")
            worst |= m["name"] != "setup_s"
        elif spread > bound / 3:
            verdict = "above a third of the bound"
        else:
            verdict = "steady"
        bound_text = "" if bound is None else f"{bound:.2f}"
        print(f"{m['name']:<28} {med:>14.6g} {spread:>8.4f} {bound_text:>6}  {verdict}")
    sys.exit(1 if worst else 0)


if __name__ == "__main__":
    main()
