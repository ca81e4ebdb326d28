"""Paired benchmark runs of two checkouts, written to BENCH_<pr>.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pr N --pairs K --seed S

Each checkout's own `perfbench/run.py` runs unchanged from the checkout's
root for the measuring time its own `BENCHMARK.json` sets; only its last
output line (`correct`, `attempted`, `failed`, `metrics`) is read. The
workload names and the end-to-end metrics with their bounds come from
CHANGE_DIR's `BENCHMARK.json`, and the file is written there.

Every pair runs each workload once on both sides, one process at a time,
with the same `--seed`. Even pairs run the parent first, odd pairs the
change first, so a bias toward the first or second run of a pair falls on
both sides alike. Per workload and metric the file holds both sides' runs,
medians and quartiles (`statistics.quantiles`, inclusive method) and how
many pairs the change won. It also holds every run's `correct`,
`attempted` and `failed`, the machine facts (usable CPUs, CPU model,
Python and numpy versions) and each side's tier-1 wall time (the pytest
command of ROADMAP.md, run once per side before the pairs).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def side_order(pair: int) -> tuple[str, str]:
    """Which side runs first in a pair: the parent in even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values: list[float]) -> dict:
    """Median and quartiles; a single run is all three."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metric: dict) -> dict:
    """One metric over the pairs of one workload: both sides' runs,
    medians and quartiles, and the pairs the change won (strictly better
    in the metric's direction)."""
    values = {side: [run[side]["metrics"][metric["name"]]["value"] for run in runs]
              for side in SIDES}
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
    out = {key: metric[key] for key in ("unit", "better", "bound")}
    for side in SIDES:
        out[side] = {"runs": values[side], **quartiles(values[side])}
    out["change_wins"] = wins
    out["pairs"] = len(runs)
    return out


def run_perfbench(checkout: Path, workload: str, seed: int) -> dict:
    """One `perfbench/run.py` run in `checkout`: its last output line, or
    a failed record with the exit code and the end of standard error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": None, "metrics": {},
                "exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {key: result.get(key) for key in ("correct", "attempted", "failed", "metrics")}


def without_metrics(result: dict) -> dict:
    """A run as the file records it: the metric values live in the
    per-metric summaries only."""
    return {key: value for key, value in result.items() if key != "metrics"}


def run_tier1(checkout: Path) -> dict:
    """The tier-1 suite in `checkout`: wall seconds and pytest's summary."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = [line for line in proc.stdout.splitlines() if re.search(r"\d+ (passed|failed)", line)]
    return {"wall_s": round(wall, 2), "exit_code": proc.returncode,
            "summary": summary[-1].strip("= ") if summary else None}


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"usable_cpus": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    doc = {"pr": args.pr, "seed": args.seed, "pairs": args.pairs,
           "run_seconds": bench["run_seconds"],
           "order": "parent first in even pairs, change first in odd pairs",
           "machine": machine(), "tier1": {}, "workloads": {}}
    for side in SIDES:
        doc["tier1"][side] = run_tier1(checkouts[side])
        print(f"tier-1 {side}: {doc['tier1'][side]}", file=sys.stderr)
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for pair in range(args.pairs):
        for workload in workloads:
            record = {"pair": pair, "first": side_order(pair)[0]}
            for side in side_order(pair):
                record[side] = run_perfbench(checkouts[side], workload, args.seed)
            runs[workload].append(record)
            wall = {s: record[s]["metrics"].get("wall_s", {}).get("value") for s in SIDES}
            print(f"pair {pair} {workload}: wall_s {wall}", file=sys.stderr)
    for workload in workloads:
        done = [r for r in runs[workload]
                if all(set(r[s]["metrics"]) >= {m["name"] for m in bench["end_to_end"]}
                       for s in SIDES)]
        doc["workloads"][workload] = {
            "all_correct": all(r[s]["correct"] and r[s]["failed"] == 0
                               for r in runs[workload] for s in SIDES),
            "metrics": {m["name"]: summarize(done, m) for m in bench["end_to_end"]} if done else {},
            "runs": [{**r, **{s: without_metrics(r[s]) for s in SIDES}} for r in runs[workload]],
        }
    out = checkouts["change"] / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(w["all_correct"] for w in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
