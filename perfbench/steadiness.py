#!/usr/bin/env python3
"""Steadiness report: two separated sets of benchmark runs of the same code.

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...] [--seconds S]
                                    [--sets 2]

Set A runs every workload --runs times (seeds 1..runs), then set B does the
same with fresh seeds. For every end-to-end metric x workload it prints each
set's median and quartile spread (the distance between the first and third
quartile of statistics.quantiles(n=4), as a share of the median) and how much
worse set B's median is than set A's (negative = better), against the bound
BENCHMARK.json fixes. A pairing passes when both spreads are within the bound
and the two medians differ by no more than it, in either direction. With
--sets 1 only the spreads are checked. Raw results go to
<build dir>/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse_by(metric, before, after):
    """Share by which `after` is worse than `before` (negative = better)."""
    if metric["better"] == "lower":
        return (after - before) / before
    return (before - after) / before


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]

    sets = []
    for s in range(args.sets):
        results = {}
        for w in workloads:
            results[w] = []
            for i in range(args.runs):
                seed = s * args.runs + i + 1
                r = run(w, seed, seconds)
                results[w].append(r)
                print(f"set {'AB'[s]} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
        sets.append(results)

    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, "steadiness.json"), "w") as f:
        json.dump({"seconds": seconds, "runs": args.runs, "sets": sets}, f)

    ok_all = True
    print(f"\n{'workload':15} {'metric':15} {'median A':>12} {'spread A':>9} "
          + (f"{'median B':>12} {'spread B':>9} {'B worse':>8} " if args.sets == 2 else "")
          + f"{'bound':>6}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols = []
            ok = True
            meds = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results[w]]
                sp = spread(values)
                meds.append(statistics.median(values))
                cols.append(f"{meds[-1]:12.6g} {sp * 100:8.2f}%")
                if sp > bound:
                    ok = False
            line = f"{w:15} {name:15} " + " ".join(cols)
            if args.sets == 2:
                delta = worse_by(m, meds[0], meds[1])
                ok = ok and abs(delta) <= bound
                line += f" {delta * 100:7.2f}%"
            ok_all = ok_all and ok
            print(f"{line} {bound * 100:5.1f}%  {'ok' if ok else 'FAIL'}")
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
