#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload, runs ``perfbench/run.py`` once per seed, one run at a
time, and prints per end-to-end metric the median, the quartiles and the
spread (interquartile distance over the median) next to the metric's bound
in BENCHMARK.json. A spread below a third of the bound is steady.

    python3 perfbench/spread.py --seeds 1-10 [--workloads warm-revisit,...] [--traced] [--out FILE]

``--traced`` adds one traced run per workload on the first seed. ``--out``
writes every run's environment and result lines and the per-metric summary
as JSON, the form perfbench/baseline.json is kept in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    return {"environment": json.loads(lines[-2])["environment"], "result": json.loads(lines[-1]),
            "elapsed_s": elapsed}


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write runs and summary as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    all_correct = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, 0))
            values = runs[-1]["result"]["metrics"]
            print(f"    {workload} seed {seed} ({runs[-1]['elapsed_s']:.0f} s): "
                  + "  ".join(f"{name} {values[name]['value']:.3f}" for name in bounds), flush=True)
        all_correct &= all(r["result"]["correct"] for r in runs)
        summary = {
            name: summarise([r["result"]["metrics"][name]["value"] for r in runs], bound)
            for name, bound in bounds.items()
        }
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        if args.traced:
            traced = run_once(workload, parse_seeds(args.seeds)[0], args.seconds, 1)
            all_correct &= traced["result"]["correct"]
            report["workloads"][workload]["traced"] = traced
        for name, s in summary.items():
            flag = "ok " if s["steady"] else "WIDE"
            print(f"{flag} {workload:<14} {name:<15} median {s['median']:12.3f}  "
                  f"q1 {s['q1']:12.3f}  q3 {s['q3']:12.3f}  spread {s['spread']:.4f}  "
                  f"bound {s['bound']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
