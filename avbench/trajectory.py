#!/usr/bin/env python3
"""Runs avbench over several seeds per workload and summarizes each metric.

For every metric it reports the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median. Run from the repository root:

    python3 avbench/trajectory.py --seeds 1-10 --out avbench/trajectory/x.json

--held-out SEED adds one more run per workload on a seed kept apart from
the others, so a later claim can be checked on a seed it was not tuned on.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "avbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1]), wall


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--held-out", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds)
    report = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        results, walls = [], []
        for seed in seeds:
            res, wall = run_once(workload, seed, args.seconds, args.trace)
            results.append(res)
            walls.append(wall)
            print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']} "
                  f"wall {wall:.1f}s", file=sys.stderr)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "wall_s": summarize(walls),
            "metrics": {},
        }
        for name, m in results[0]["metrics"].items():
            entry["metrics"][name] = dict(unit=m["unit"],
                                          **summarize([r["metrics"][name]["value"] for r in results]))
        if args.held_out is not None:
            res, _ = run_once(workload, args.held_out, args.seconds, args.trace)
            entry["held_out"] = {"seed": args.held_out, "correct": res["correct"],
                                 "failed": res["failed"],
                                 "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
        report["workloads"][workload] = entry
        for name, s in entry["metrics"].items():
            print(f"{workload:16} {name:44} median {s['median']:12.6g} {s['unit']:6} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w") as f:
            f.write(dumps(report) + "\n")


def dumps(report):
    """Indents the report but keeps each list of numbers on one line."""
    text = json.dumps(report, indent=1)
    return re.sub(r"\[\s*([-0-9.e+,\s]*?)\s*\]",
                  lambda m: "[" + ", ".join(x.strip() for x in m.group(1).split(",")) + "]", text)


if __name__ == "__main__":
    main()
