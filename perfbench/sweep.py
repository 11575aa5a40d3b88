"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/sweep.py [--seeds 1-10] [--trace 0|1] [--out FILE]

It runs the workloads that BENCHMARK.json lists.  Each (seed, workload)
pair is one ``run.py`` process with the ``run_seconds`` of BENCHMARK.json; seeds are the outer loop so the workloads
interleave.  For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound.  ``--out`` stores the runs and the
summary under the key ``trace0`` or ``trace1`` of a JSON file, keeping the
other key.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    detail = next(json.loads(l[len("detail: "):]) for l in lines if l.startswith("detail: "))
    return json.loads(lines[-1]), detail


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {w: [] for w in workloads}
    environment = None
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            result, detail = run_once(workload, seed, spec["run_seconds"], args.trace)
            environment = detail["environment"]
            runs[workload].append({
                "seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "wall_s_runs": detail["wall_s"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"seed {seed} {workload}: correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
    section = {"seconds": spec["run_seconds"], "environment": environment, "workloads": {}}
    for workload, rows in runs.items():
        names = list(rows[0]["metrics"])
        summary = {}
        print(f"\n{workload} ({len(rows)} runs, trace {args.trace})")
        for name in names:
            values = [r["metrics"][name] for r in rows]
            s = summary[name] = summarise(values) if len(values) > 1 else {"values": values}
            if len(values) > 1:
                bound = bounds.get(name)
                flag = "" if bound is None else f"  bound {bound}" + (
                    "  OVER A THIRD OF BOUND" if s["spread"] > bound / 3 else "")
                print(f"  {name:<40} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                      f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{flag}")
        section["workloads"][workload] = {"summary": summary, "runs": rows}
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.is_file() else {}
        doc[f"trace{args.trace}"] = section
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
