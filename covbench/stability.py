#!/usr/bin/env python3
"""Stability report: runs each workload with several seeds and prints, per
metric, the median, the quartiles and the spread (Q3 - Q1) / median against
the metric's bound in BENCHMARK.json.

    python3 covbench/stability.py [--runs 10] [--seed-base 1] [--seconds S]
        [--workloads stream-scale,campaign-fleet] [--trace 0|1]
        [--record covbench/trajectory/<label>.json --label <label>]

--record writes the medians and quartiles, with nproc and the CPU model, as
one trajectory entry. Run from anywhere; paths are relative to the
repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "covbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--record")
    ap.add_argument("--label", default="unlabeled")
    args = ap.parse_args()

    catalog = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in catalog}
    entry = {"label": args.label, "nproc": os.cpu_count(), "cpu": cpu_model(),
             "run_seconds": args.seconds, "runs": args.runs, "seed_base": args.seed_base,
             "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            result = run_once(workload, args.seed_base + i, args.seconds, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            timed = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
                             if m["unit"] in ("s", "ms", "1/s"))
            print(f"  {workload} seed {args.seed_base + i}: {timed}", file=sys.stderr)
        print(f"\n{workload} ({args.runs} seeds from {args.seed_base}, {args.seconds} s each)")
        print(f"  {'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("inf") if q3 > q1 else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  > bound/3" if spread > bound / 3 else ""
            print(f"  {name:<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            unit = next(m["unit"] for m in catalog if m["name"] == name)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
        entry["workloads"][workload] = summary
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")
    if args.record:
        path = os.path.join(ROOT, args.record)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(entry, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"recorded {path}")


if __name__ == "__main__":
    main()
