#!/usr/bin/env python3
"""Run one workload of the benchmark over several seeds and print each
metric's median, quartiles and spread (the distance between the first and
third quartile as a share of the median).

Run from the repository root, after one `bash wallbench/run.sh ...` has
built the benchmark:

    python3 wallbench/spread.py --workload kv-duo --runs 10 --seconds 10

It invokes .bench_build/wallbench directly, so all runs measure one build.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--binary", default=".bench_build/wallbench")
    args = ap.parse_args()

    values, units, context = {}, {}, None
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [args.binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect result {lines[-1]}")
        for line in lines:
            if line.startswith("context "):
                context = json.loads(line[len("context "):])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']}", file=sys.stderr)

    context.pop("seed", None)
    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"{args.seconds}s each, context {json.dumps(context)}")
    print(f"  {'metric':36} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8}")
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:36} {q1:14.4f} {med:14.4f} {q3:14.4f} {spread:8.4f}  {units[name]}")


if __name__ == "__main__":
    main()
