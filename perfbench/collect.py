#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarise it, as a baseline file.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

Run from the repository root. For each workload in BENCHMARK.json it runs
``--trace 0`` once per seed, then one ``--trace 1`` run, one process at a
time. The output keeps every run's result and detail record, and per
workload and end-to-end metric the median, quartiles and the quartile
spread as a share of the median (the figure the bounds in BENCHMARK.json
are set against).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "trace": trace, "exit": proc.returncode,
                "stderr": proc.stderr[-2000:]}
    return {
        "seed": seed,
        "trace": trace,
        "exit": proc.returncode,
        "wall_s": time.perf_counter() - t0,
        "result": json.loads(lines[-1]),
        "detail": json.loads(lines[-2])["detail"],
    }


def summarise(runs: list[dict], spec: dict) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs if "result" in r]
        if len(values) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[m["name"]] = {
            "unit": m["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "bound": m["bound"],
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seeds = _seeds(args.seeds)
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seeds:
            runs.append(run_once(spec, name, seed, 0))
            r = runs[-1]
            print(name, seed, r.get("exit"), r.get("result", {}).get("correct"),
                  round(r.get("wall_s", 0.0), 1), flush=True)
        entry = {"runs": runs, "end_to_end": summarise(runs, spec),
                 "traced": run_once(spec, name, seeds[0], 1)}
        report["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"  {metric}: median {s['median']:.4f} {s['unit']}, spread {s['spread']:.4f} "
                  f"(bound {s['bound']})", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
