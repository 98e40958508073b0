#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark K times per workload on the current checkout, each run
with its own seed, and prints for every end-to-end metric its median and
its quartile spread (Q3 - Q1 as a share of the median, from
statistics.quantiles(values, n=4)) next to the metric's bound in
BENCHMARK.json. A spread should stay below a third of the bound. It also
checks that the failed share of operations is identical in every run.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workloads mis_sinr,serve_mix] [--seed0 1]

Exits nonzero when a run fails, a spread reaches its bound, or the failed
share differs between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    ok = True
    for wl in names:
        results = []
        for k in range(args.runs):
            r = run_once(bench["command"], wl, args.seed0 + k, bench["run_seconds"])
            results.append(r)
            print(f"# {wl} seed {args.seed0 + k}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in r["metrics"].items()), flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        print(f"{wl}: failed share {' '.join(str(s) for s in sorted(shares))}"
              f" ({'same in every run' if len(shares) == 1 else 'DIFFERS'})")
        ok &= len(shares) == 1
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("inf")
            verdict = "ok" if spread < m["bound"] / 3 else ("near" if spread < m["bound"] else "OVER")
            if verdict == "OVER":
                ok = False
            print(f"{wl:14s} {m['name']:12s} median {med:12.6g} {m['unit']:4s} "
                  f"spread {100 * spread:6.2f}%  bound {100 * m['bound']:5.1f}%  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
