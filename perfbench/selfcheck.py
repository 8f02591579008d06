#!/usr/bin/env python3
"""Smoke check of the benchmark itself at toy size.

    python3 perfbench/selfcheck.py

Run from the repository root. It checks BENCHMARK.json against the schema
the benchmark promises, runs every workload for one second at ``--scale toy``
with and without tracing, and asserts that each run exits 0, reports a
correct result, and prints every metric BENCHMARK.json names with its unit.
It also checks that a directory holding only BENCHMARK.json and the
benchmark's own files makes the benchmark fail without a result. It asserts
no absolute times.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for p in spec["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/"), p
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200, w
    assert 1 <= len(spec["end_to_end"]) <= 16
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    names = [x["name"] for x in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "duplicate names"
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def check_run(spec: dict, workload: str, trace: int) -> None:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert detail["workload"] == workload and detail["trace"] == trace
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True, (workload, trace, detail["problems"])
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, (workload, trace)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m, got)
        if not trace:
            assert got["value"] > 0, (workload, m["name"], got)
    print(f"ok {workload} trace={trace} attempted={result['attempted']}")


def check_without_source(spec: dict, root: Path) -> None:
    """A directory with only BENCHMARK.json and the benchmark's paths must fail."""
    bare = root / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(root / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, *spec["command"][1:], "--workload",
               spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0, "benchmark succeeded without the program's source"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without the source"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print("ok fails without the program's source")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("ok BENCHMARK.json schema")
    check_without_source(spec, root)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
