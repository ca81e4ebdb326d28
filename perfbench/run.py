"""sspi-lab benchmark: drives the README CLI in-process through
`sspilab.cli.main(argv)` and checks every output.

    python3 perfbench/run.py --workload exact-enum --seed 3 --trace 0

Run it from the root of a checkout; it imports `sspilab` from `src/`. One
single-threaded process with SSPILAB_WORKERS=1 runs everything.

Set-up (`setup_s`, the median of SETUP_REPEATS rounds) imports sspilab
afresh, generates the workload's instance files from the seed and runs a
tiny version of the workload as warm-up. Then passes over the workload's
command list repeat until `--seconds` have gone by (at least one pass);
`wall_s` is the median pass time. Every pass is checked against the goldens
in `goldens/`.

Times are reported at the reference speed. The machine this runs on is
shared, and its speed drifts by tens of percent over minutes. So a fixed
loop that does not use sspilab (`reference_work`, median of three calls) is
timed before the first command and after each one, and each command's time
is multiplied by REFERENCE_NOMINAL_S over the mean of the two reference
times around it. The
report line keeps the unscaled times too.

With `--trace 1`, untraced and traced passes alternate. The traced ones wrap
the program's functions (see tracer.py) and give the per-layer metrics, and
`trace.overhead_s` is the median traced pass time minus the median untraced
one. The call records of the last traced pass are written to `_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` (commands run and commands whose check
failed) and `metrics`. The line before it is a JSON report with the run
facts, the per-command-kind throughputs and the fail ratio.

`--record-goldens` runs one pass per pool index and writes the goldens.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(HERE, "goldens")
OUT_DIR = os.path.join(HERE, "_out")
WORK_DIR = os.path.join(HERE, "_work")
SETUP_REPEATS = 5
WORKERS = "1"
# The time that scaled timings assume for one reference_work() call; it
# only fixes the unit, so that scaled times read as seconds.
REFERENCE_NOMINAL_S = 0.004

sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# End-to-end throughput per command kind, reported where the kind occurs.
THROUGHPUT_OF_KIND = {
    "exact": "exact_configs_per_s",
    "mc": "mc_trials_per_s",
    "verify": "verify_configs_per_s",
    "mechanism": "mechanism_trials_per_s",
    "tight": "tight_trials_per_s",
    "game-mc": "game_mc_games_per_s",
}


class Capture:
    """Keeps the RatioReport of the last `simulate` (for z_violations)."""

    def __init__(self) -> None:
        self.report = None

    def install(self, cli) -> None:
        estimate = cli.estimate_ratio

        def estimate_ratio(*args, **kwargs):
            self.report = estimate(*args, **kwargs)
            return self.report

        cli.estimate_ratio = estimate_ratio


def fresh_import():
    """Import sspilab from src/, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "sspilab" or m.startswith("sspilab.")]:
        del sys.modules[name]
    import sspilab.cli

    return sspilab.cli


def run_command(cli, cmd, capture: Capture, trace: tracer.Tracer | None) -> checker.Result:
    out, err = io.StringIO(), io.StringIO()
    capture.report = None
    if trace is not None:
        trace.command = cmd.cid
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(cmd.argv))
        except SystemExit as exc:  # argparse rejections
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed command, not a crashed run
            traceback.print_exc(file=err)
            code = -1
    seconds = time.perf_counter() - t0
    return checker.Result(cmd, code, out.getvalue(), err.getvalue(), seconds, capture.report)


def reference_work() -> float:
    """A fixed mix of interpreter, Fraction and small numpy work, about as
    long as a few milliseconds; it uses nothing from sspilab."""
    xs = [((i * 7919) % 1009) / 1009 for i in range(3000)]
    buckets: dict[int, float] = {}
    for i, x in enumerate(xs):
        buckets[i % 97] = buckets.get(i % 97, 0.0) + x
    ranked = sorted(zip(xs, range(len(xs))))
    total = sum(Fraction(i, 7) for i in range(150))
    a = np.arange(2048.0)
    s = 0.0
    for _ in range(100):
        s += float((a * 1.0001).sum())
    return s + ranked[0][0] + float(total)


def reference_seconds() -> float:
    """The median time of three reference_work() calls."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(seconds: float, before: float, after: float) -> float:
    """Seconds at the reference speed, from the reference times around them."""
    return seconds * REFERENCE_NOMINAL_S * 2.0 / (before + after)


def run_pass(cli, commands, capture, trace=None) -> list[checker.Result]:
    results = []
    before = reference_seconds()
    for cmd in commands:
        res = run_command(cli, cmd, capture, trace)
        after = reference_seconds()
        res.scaled = scale(res.seconds, before, after)
        results.append(res)
        before = after
    return results


def pass_seconds(results, scaled: bool = True) -> float:
    return sum(r.scaled if scaled else r.seconds for r in results)


def throughputs(results) -> dict[str, float]:
    units: dict[str, int] = {}
    seconds: dict[str, float] = {}
    for r in results:
        name = THROUGHPUT_OF_KIND.get(r.cmd.kind)
        if name is None or r.cmd.units == 0:
            continue
        units[name] = units.get(name, 0) + r.cmd.units
        seconds[name] = seconds.get(name, 0.0) + r.scaled
    return {k: units[k] / seconds[k] for k in units}


def load_goldens(workload: str, pool_index: int, digest: str):
    """The golden outputs for this pool index, or None with the reason."""
    path = os.path.join(GOLDEN_DIR, f"{workload}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None, f"no golden file {os.path.relpath(path, ROOT)}"
    entry = doc.get("pools", {}).get(str(pool_index))
    if entry is None:
        return None, f"no goldens for pool index {pool_index}"
    if entry["digest"] != digest:
        return None, "the generated inputs differ from the ones the goldens were recorded on"
    return entry["commands"], None


def git_commit(root: str = ROOT) -> str:
    """HEAD's commit, read from the files under .git (a loose or packed ref,
    or a worktree's `gitdir:` file) without running git."""
    git = os.path.join(root, ".git")
    try:
        if os.path.isfile(git):
            with open(git, encoding="utf-8") as fh:
                git = os.path.join(root, fh.read().strip().removeprefix("gitdir: "))
        common = git
        if os.path.isfile(os.path.join(git, "commondir")):
            with open(os.path.join(git, "commondir"), encoding="utf-8") as fh:
                common = os.path.join(git, fh.read().strip())
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        for base in (git, common):
            if os.path.isfile(os.path.join(base, ref)):
                with open(os.path.join(base, ref), encoding="utf-8") as fh:
                    return fh.read().strip()
        with open(os.path.join(common, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_facts(seed: int, pool_index: int) -> dict:
    import numpy
    import scipy
    import sspilab

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sspilab": sspilab.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "pool_index": pool_index,
        "SSPILAB_WORKERS": os.environ.get("SSPILAB_WORKERS"),
    }


def setup(workload: str, pool_index: int, workdir: str):
    """One set-up round: fresh import, instance generation, warm-up. Returns
    its time unscaled and scaled, and what the passes need."""
    before = reference_seconds()
    t0 = time.perf_counter()
    cli = fresh_import()
    commands = workloads.build(workload, pool_index, workdir)
    warm = workloads.build(workload, pool_index, os.path.join(workdir, "warm-up"), smoke=True)
    capture = Capture()
    capture.install(cli)
    for cmd in warm:  # the timed passes check the outcomes
        run_command(cli, cmd, capture, None)
    seconds = time.perf_counter() - t0
    return seconds, scale(seconds, before, reference_seconds()), cli, capture, commands


def measure(args, pool_index: int, workdir: str) -> dict:
    for _ in range(3):  # the first calls run cold
        reference_work()
    setups, scaled_setups = [], []
    for _ in range(SETUP_REPEATS):
        seconds, scaled, cli, capture, commands = setup(args.workload, pool_index, workdir)
        setups.append(seconds)
        scaled_setups.append(scaled)
    digest = workloads.inputs_digest(commands, workdir)
    goldens, golden_problem = load_goldens(args.workload, pool_index, digest)

    plain, traced, layer, problems = [], [], [], []
    attempted = failed = 0
    last_trace = None
    unwrapped: list[str] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        results = run_pass(cli, commands, capture)
        plain.append(results)
        if args.trace:
            last_trace = tracer.Tracer()
            installed = tracer.Installed(last_trace)
            try:
                traced_results = run_pass(cli, commands, capture, last_trace)
            finally:
                installed.remove()
            unwrapped = installed.unwrapped
            traced.append(pass_seconds(traced_results))
            speed = pass_seconds(traced_results) / pass_seconds(traced_results, scaled=False)
            layer.append(tracer.layer_metrics(last_trace.records, speed))
            results_to_check = [results, traced_results]
        else:
            results_to_check = [results]
        for res in results_to_check:
            found = checker.check_pass(res, goldens)
            if golden_problem is not None:
                found = [f"{r.cmd.cid}: {golden_problem}" for r in res]
            attempted += len(res)
            failed += checker.failed_commands(found)
            problems.extend(found)
        if time.perf_counter() >= deadline:
            break

    walls = [pass_seconds(r) for r in plain]
    rates = [throughputs(r) for r in plain]
    report = {
        "workload": args.workload,
        "facts": run_facts(args.seed, pool_index),
        "passes": len(plain),
        "pass_wall_s": walls,
        "pass_wall_unscaled_s": [pass_seconds(r, scaled=False) for r in plain],
        "throughputs": {k: statistics.median(r[k] for r in rates) for k in rates[0]},
        "fail_ratio": failed / attempted,
        "problems": sorted(set(problems))[:50],
    }
    if args.trace:
        metrics = tracer.median_metrics(layer)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        report["traced_pass_wall_s"] = traced
        report["unwrapped"] = unwrapped
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        origin = min((r.start for r in last_trace.records if r.start is not None), default=0.0)
        with open(spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["rid", "name", "group", "parent", "command", "start",
                                  "end", "count", "total", "extra"],
                       "records": [r.as_list(origin) for r in last_trace.records]}, fh)
        report["spans_file"] = os.path.relpath(spans, ROOT)
        units = {m["name"]: m["unit"] for m in _benchmark("per_layer")}
    else:
        metrics = {
            "setup_s": statistics.median(scaled_setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["setup_s_rounds"] = scaled_setups
        report["setup_s_rounds_unscaled"] = setups
        units = {m["name"]: m["unit"] for m in _benchmark("end_to_end")}
    return {
        "report": report,
        "result": {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def _benchmark(key: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[key]


def record_goldens(workload: str, pools: list[int], workdir: str) -> int:
    path = os.path.join(GOLDEN_DIR, f"{workload}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"workload": workload, "pool_size": workloads.POOL_SIZE, "pools": {}}
    cli = fresh_import()
    capture = Capture()
    capture.install(cli)
    for p in pools:
        pool_dir = os.path.join(workdir, f"pool-{p}")
        commands = workloads.build(workload, p, pool_dir)
        results = run_pass(cli, commands, capture)
        goldens = {r.cmd.cid: checker.golden_of(r) for r in results}
        problems = checker.check_pass(results, goldens)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        doc["pools"][str(p)] = {
            "digest": workloads.inputs_digest(commands, pool_dir),
            "commands": goldens,
        }
        print(f"{workload} pool {p}: {len(results)} commands, "
              f"{pass_seconds(results):.2f} s", file=sys.stderr)
    doc["pools"] = dict(sorted(doc["pools"].items(), key=lambda kv: int(kv[0])))
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", metavar="POOLS",
                        help="record goldens for pool indices, e.g. 0-15 or 3")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_benchmark("run_seconds"))

    if not os.path.isfile(os.path.join(SRC, "sspilab", "__init__.py")):
        print(f"error: no sspilab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.environ["SSPILAB_WORKERS"] = WORKERS
    sys.path.insert(0, SRC)
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.record_goldens is not None:
            lo, _, hi = args.record_goldens.partition("-")
            pools = list(range(int(lo), int(hi or lo) + 1))
            return record_goldens(args.workload, pools, workdir)
        pool_index = args.seed % workloads.POOL_SIZE
        out = measure(args, pool_index, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
