#!/usr/bin/env python3
"""Paired A/B of the attack-job benchmark between two checkouts.

    python3 perfbench/ab.py A_DIR B_DIR --workload sat-sarlock [--pairs 10]
        [--seed 1000] [--trace 0]

Builds the benchmark in each checkout (into its own .bench_build), then
runs pair i on seed `--seed + i`, alternating which side goes first.
Each run lasts A's BENCHMARK.json `run_seconds`.
For every metric it prints each side's median and quartiles, how many
pairs B won (direction from A's BENCHMARK.json), and whether the gain
rule holds: B wins at least 9 of 10 pairs and the medians differ by
more than A's own spread (the distance between its quartiles).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def build(root):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
                   env=env, check=True)
    return os.path.join(root, ".bench_build", "release", "mlam-perfbench")


def run(binary, root, args, seconds, seed):
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"{root}: seed {seed} failed:\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    with open(os.path.join(args.a, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m.get("better", "lower") for m in spec["end_to_end"] + spec["per_layer"]}
    bins = {side: build(root) for side, root in (("a", args.a), ("b", args.b))}

    samples = {"a": [], "b": []}
    for i in range(args.pairs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for side in order:
            root = args.a if side == "a" else args.b
            samples[side].append(run(bins[side], root, args, spec["run_seconds"], args.seed + i))

    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}")
    print(f"{'metric':24s} {'A median [q1, q3]':>36s} {'B median [q1, q3]':>36s} {'B wins':>7s}  gain")
    for name in samples["a"][0]:
        a = [s[name] for s in samples["a"]]
        b = [s[name] for s in samples["b"]]
        sign = 1 if better.get(name, "lower") == "lower" else -1
        wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
        a1, am, a3 = quartiles(a)
        b1, bm, b3 = quartiles(b)
        gain = wins >= 0.9 * args.pairs and sign * (am - bm) > (a3 - a1)
        print(f"{name:24s} {am:12.6g} [{a1:9.4g}, {a3:9.4g}] {bm:12.6g} [{b1:9.4g}, {b3:9.4g}]"
              f" {wins:3d}/{args.pairs:<3d}  {'yes' if gain else 'no'}")


if __name__ == "__main__":
    main()
