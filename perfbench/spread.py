#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="write the runs and their summary as JSON here")
    args = ap.parse_args()

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = {}
    for w in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.monotonic() - start
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["seed"], res["invocation_s"] = seed, round(took, 2)
            runs.append(res)
            conditions = dict(kv.split("=", 1) for kv in lines[0].lstrip("# ").split())
            vals = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.6g}" for m in metrics[:8])
            print(f"{w} seed={seed} {took:.1f}s correct={res['correct']} failed={res['failed']} {vals}",
                  flush=True)
        summary = {}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("WITHIN" if spread < bound else "OVER")
                flag = f"bound={bound} {flag}"
            print(f"  {w:16} {m['name']:28} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:.4f} {flag}", flush=True)
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        conditions["commit"] = git.stdout.strip() if git.returncode == 0 else "unknown"
        report[w] = {
            "conditions": {k: conditions[k] for k in ("nproc", "gomaxprocs", "go", "data_dir_tmpfs", "commit")},
            "seeds": [r["seed"] for r in runs],
            "invocation_s": [r["invocation_s"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "values": {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs] for m in metrics},
            "summary": summary,
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
