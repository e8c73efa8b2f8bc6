#!/usr/bin/env python3
"""Steadiness check for one workload of the repository benchmark.

Runs the workload k times, each with another seed, and prints for every
end-to-end metric its median, quartiles and spread (interquartile range
over median) against the bound in BENCHMARK.json:

    python3 perfbench/steady.py serve-hot -k 10 --out a.jsonl

Each run lasts run_seconds from BENCHMARK.json, the length the bounds
are meant for.

With --compare A.jsonl B.jsonl it runs nothing and checks two saved sets
against each other instead: every median of B must be no worse than A's
by more than the metric's bound, and both sets must fail the same share
of operations.  Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_set(workload, k, seconds, seed0, out):
    rows = []
    for seed in range(seed0, seed0 + k):
        proc = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        row = json.loads(lines[-1])
        row["seed"] = seed
        rows.append(row)
        print(f"seed {seed}: attempted {row['attempted']} failed {row['failed']} "
              f"correct {row['correct']}", file=sys.stderr)
        if out:
            with open(out, "a") as f:
                f.write(json.dumps(row) + "\n")
    return rows


def summarize(rows, spec):
    print(f"{'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in rows]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        verdict = ("ok" if spread <= m["bound"] / 3 else
                   "within bound" if spread <= m["bound"] else "TOO WIDE")
        print(f"{m['name']:18} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {m['bound']:6.2f}  {verdict}")
    shares = {r["failed"] / r["attempted"] for r in rows}
    print(f"failed share per run: {sorted(shares)}"
          + ("" if len(shares) == 1 else "  (NOT the same in every run)"))
    print(f"all correct: {all(r['correct'] for r in rows)}")


def compare(a, b, spec):
    bad = False
    for m in spec["end_to_end"]:
        ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a)
        mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        flag = "WORSE THAN BOUND" if worse > m["bound"] else "ok"
        bad |= worse > m["bound"]
        print(f"{m['name']:18} {ma:12.4f} {mb:12.4f} {worse:+8.3f} {m['bound']:6.2f}  {flag}")
    sa = sorted({r["failed"] / r["attempted"] for r in a})
    sb = sorted({r["failed"] / r["attempted"] for r in b})
    print(f"failed shares: {sa} vs {sb}" + ("" if sa == sb else "  DIFFERENT"))
    return 1 if bad or sa != sb else 0


def read(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("workload", nargs="?")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        sys.exit(compare(read(args.compare[0]), read(args.compare[1]), spec))
    if not args.workload:
        p.error("give a workload or --compare A B")
    rows = run_set(args.workload, args.k, spec["run_seconds"], args.seed0, args.out)
    summarize(rows, spec)


if __name__ == "__main__":
    main()
