#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself?

Runs the command in BENCHMARK.json exactly as the driver does
(`<command> --workload W --seed S --seconds T --trace 0`), in two sets of N
fresh processes per workload, alternating the sets run by run so that slow
drift of the machine lands on both. Run i of either set uses seed
`--seed-base + i`, so the sets see the same inputs and a set covers N seeds.

For every end-to-end metric and workload it prints each set's median and
quartiles (`statistics.quantiles(values, n=4)`, as the driver computes
them), the spread (Q3 - Q1) / median of each set, and the gap by which set
B's median is worse than set A's, next to the bound from BENCHMARK.json.
The benchmark is acceptable when every spread (except `setup_s`'s) and every
gap is within the bound; the target is a spread below a third of it.

Run from the repository root:

    python3 benchmark/aa.py --runs 10
    python3 benchmark/aa.py --runs 5 --workload small-tiles

Exits 1 when a spread or gap exceeds its bound or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAILED (exit {proc.returncode}): {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"INCORRECT: {' '.join(cmd)}\n{lines[-1]}")
    samples = {}
    for line in lines:
        if line.startswith("    samples "):
            name, values = line[len("    samples "):].split(":")
            samples[name] = [float(v) for v in values.split()]
    return {k: v["value"] for k, v in result["metrics"].items()}, samples, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="fresh-process runs per set (default 10)")
    ap.add_argument("--workload", action="append", help="restrict to these workloads")
    ap.add_argument("--seed-base", type=int, default=1, help="run i uses seed base + i (default 1)")
    ap.add_argument("--save", help="also write the raw values to this JSON file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # values[workload][set][metric] -> list over runs
    values = {w: [{m["name"]: [] for m in metrics} for _ in "AB"] for w in workloads}
    samples = {w: [[], []] for w in workloads}  # every in-run sample, kept for --save
    walls = []
    for w in workloads:
        for i in range(args.runs):
            # Alternate which set goes first, too.
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                got, raw, wall = run_once(spec, w, args.seed_base + i)
                walls.append(wall)
                samples[w][s].append(raw)
                for m in metrics:
                    values[w][s][m["name"]].append(got[m["name"]])
                print(f"  {w} set {'AB'[s]} run {i} seed {args.seed_base + i}: {wall:.1f} s",
                      file=sys.stderr, flush=True)

    bad = 0
    print(f"A/A: {args.runs} runs per set, seeds {args.seed_base}..{args.seed_base + args.runs - 1}, "
          f"run wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    header = (f"{'workload':<13} {'metric':<14} {'A median [q1, q3]':<32} {'B median [q1, q3]':<32} "
              f"{'spread A':>8} {'spread B':>8} {'gap B/A':>8} {'bound':>6}  verdict")
    print(header)
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [quartiles(values[w][s][name]) for s in (0, 1)]
            spreads = [(q3 - q1) / q2 for q1, q2, q3 in stats]
            (_, a, _), (_, b, _) = stats
            gap = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = []
            # The driver does not gate the spread of setup_s.
            if name != "setup_s" and max(spreads) > bound:
                verdict.append("SPREAD > bound")
                bad += 1
            elif name != "setup_s" and max(spreads) > bound / 3:
                verdict.append("spread > bound/3")
            # Either set could have been the "second": judge the gap both ways.
            if abs(gap) > bound:
                verdict.append("GAP > bound")
                bad += 1
            cells = [f"{q2:.4f} [{q1:.4f}, {q3:.4f}]" for q1, q2, q3 in stats]
            print(f"{w:<13} {name:<14} {cells[0]:<32} {cells[1]:<32} "
                  f"{spreads[0]:>8.2%} {spreads[1]:>8.2%} {gap:>+8.2%} {bound:>6.0%}  "
                  f"{', '.join(verdict) or 'ok'}")
    if args.save:
        os.makedirs(os.path.dirname(args.save) or ".", exist_ok=True)
        with open(args.save, "w") as f:
            json.dump({"runs": args.runs, "seed_base": args.seed_base, "values": values,
                       "samples": samples}, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
