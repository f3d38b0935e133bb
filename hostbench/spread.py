#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 hostbench/spread.py --workloads emu_chase_1024 xeon_chase \
        --seeds 1 2 3 4 5 [--trace 0|1] [--out FILE]

For every end-to-end metric this prints the median over the seeds and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of that median, next to the metric's bound in BENCHMARK.json.
With --out, every run's parsed result and human-readable lines are saved as
JSON.  Run it from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"runs": [], "summary": {}}
    worst = 0.0
    for w in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace)]
            t0 = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
            result = json.loads(lines[-1])
            record["runs"].append({"workload": w, "seed": seed,
                                   "trace": args.trace,
                                   "wall_s": round(wall, 2),
                                   "result": result, "lines": lines[:-1]})
            print(f"{w} seed {seed} wall {wall:.1f}s correct "
                  f"{result['correct']} " + " ".join(
                      f"{k}={v['value']:.6g}"
                      for k, v in result["metrics"].items()), flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        summary = {}
        for k, vs in values.items():
            med = statistics.median(vs)
            row = {"median": med}
            if len(vs) >= 2 and med:
                q = statistics.quantiles(vs, n=4)
                row["spread"] = (q[2] - q[0]) / abs(med)
                if k in bounds and k != "setup_s":
                    worst = max(worst, row["spread"] / bounds[k])
            summary[k] = row
            print(f"  {w} {k}: median {med:.6g} spread "
                  f"{row.get('spread', float('nan')):.4f} bound "
                  f"{bounds.get(k, '-')}")
        record["summary"][w] = summary
    if args.trace == 0:
        print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
