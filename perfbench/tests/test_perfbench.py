"""Self-tests of the benchmark: the checker, the tracer's arithmetic, the
smoke size of every workload, and the refusal to run outside a checkout.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Command  # noqa: E402


def _result(cmd: Command, payload: dict | None, exit_code: int = 0, z: int = 0):
    class Report:
        z_violations = z

    stdout = "" if payload is None else json.dumps(payload)
    return checker.Result(cmd, exit_code, stdout, "", 0.1, Report())


EXACT = Command("m-0-increasing", ("simulate",), "exact", 8)
EXACT_DOC = {"E_ALG": "3/2", "E_OPT": "5/2", "E_OPT_PRIME": "9/4"}


def test_exact_result_matching_its_golden_passes():
    res = _result(EXACT, EXACT_DOC)
    assert checker.check(res, checker.golden_of(res), {}) == []


def test_corrupted_exact_golden_is_flagged():
    res = _result(EXACT, EXACT_DOC)
    golden = checker.golden_of(res)
    golden["E_OPT"] = "5/3"
    problems = checker.check(res, golden, {})
    assert len(problems) == 1 and "E_OPT" in problems[0]


def test_wrong_exit_code_is_flagged():
    golden = checker.golden_of(_result(EXACT, EXACT_DOC))
    problems = checker.check(_result(EXACT, None, exit_code=1), golden, {})
    assert problems and "exit 1, expected 0" in problems[0]
    probe = Command("probe-cap", ("simulate",), "probe", 0, expect_exit=3)
    assert checker.check(_result(probe, None, exit_code=3), {"exit": 3}, {}) == []
    assert checker.check(_result(probe, None, exit_code=1), {"exit": 3}, {})


def test_missing_golden_and_z_violations_are_flagged():
    res = _result(EXACT, EXACT_DOC, z=2)
    assert "no golden" in checker.check(res, None, {})[0]
    assert "z_violations = 2" in checker.check(res, checker.golden_of(res), {})[0]


def test_exhaustive_min_above_increasing_is_flagged():
    worst = Command("m-0-exhaustive-min", ("simulate",), "exact", 8, pair=EXACT.cid)
    inc = _result(EXACT, EXACT_DOC)
    ok = _result(worst, dict(EXACT_DOC, E_ALG="5/4"))
    bad = _result(worst, dict(EXACT_DOC, E_ALG="7/4"))
    by_cid = {EXACT.cid: inc}
    assert checker.check(ok, checker.golden_of(ok), by_cid) == []
    problems = checker.check(bad, checker.golden_of(bad), by_cid)
    assert problems and "exceeds increasing" in problems[0]


def test_monte_carlo_tolerance():
    cmd = Command("mc", ("simulate",), "mc", 1000)
    doc = {"E_ALG": "1.0", "E_OPT": "2.0", "E_OPT_PRIME": "1.8", "ci": "0.05"}
    golden = checker.golden_of(_result(cmd, doc))
    near = dict(doc, E_ALG="1.1", E_OPT="2.1")  # within 4 combined half-widths
    far = dict(doc, E_ALG="1.5")
    assert checker.check(_result(cmd, near), golden, {}) == []
    assert checker.check(_result(cmd, far), golden, {})


MC_DOC = {"E_ALG": "1.75", "E_OPT": "8.43", "E_OPT_PRIME": "7.9", "ci": "2.02"}


def test_worst_order_result_far_from_its_golden_is_flagged():
    # Four trials give a half-width as large as E_ALG, so only the optimum
    # columns, which pin the draws, and the paired run can catch a search
    # that stops returning the minimum.
    inc = Command("m-mc-n8-0-increasing", ("simulate",), "mc", 4, alg_from_draws=True)
    worst = Command("m-mc-n8-0", ("simulate",), "mc", 4, pair=inc.cid, alg_from_draws=True)
    by_cid = {inc.cid: _result(inc, dict(MC_DOC, E_ALG="3.5"))}
    golden = checker.golden_of(_result(worst, MC_DOC))
    assert checker.check(_result(worst, MC_DOC), golden, by_cid) == []
    not_min = _result(worst, dict(MC_DOC, E_ALG="2.5"))
    problems = checker.check(not_min, golden, by_cid)
    assert problems and "on the same draws" in problems[0]
    best = _result(worst, dict(MC_DOC, E_ALG="6.0"))
    problems = checker.check(best, golden, by_cid)
    assert any("exceeds increasing" in p for p in problems)
    # New draws (E_OPT moved): the loose tolerance applies, the pair still holds.
    moved = dict(MC_DOC, E_OPT="8.1", E_ALG="4.0")
    assert checker.check(_result(worst, moved), golden, by_cid) == ["m-mc-n8-0: exhaustive-min "
                                                                     "E_ALG 4.0 exceeds "
                                                                     "increasing E_ALG 3.5"]
    assert checker.check(_result(worst, dict(moved, E_ALG="2.0")), golden, by_cid) == []


def test_alg_above_opt_and_policy_randomness():
    cmd = Command("r", ("simulate",), "mc", 100)  # a randomized policy or order
    golden = checker.golden_of(_result(cmd, MC_DOC))
    assert checker.check(_result(cmd, dict(MC_DOC, E_ALG="2.5")), golden, {}) == []
    problems = checker.check(_result(cmd, dict(MC_DOC, E_ALG="8.5")), golden, {})
    assert problems and "exceeds E_OPT" in problems[0]


def test_mechanism_on_the_same_draws_must_match():
    cmd = Command("mech", ("mechanism",), "mechanism", 100, alg_from_draws=True)
    doc = {"trials": 100, "welfare_ratio": "1.5", "welfare_ratio_halfwidth": "0.3",
           "mech_welfare": "2.0", "opt_welfare": "3.0"}
    golden = checker.golden_of(_result(cmd, doc))
    assert checker.check(_result(cmd, doc), golden, {}) == []
    off = dict(doc, welfare_ratio="1.4", mech_welfare="2.1")
    assert "on the same draws" in checker.check(_result(cmd, off), golden, {})[0]
    moved = dict(off, opt_welfare="2.95")
    assert checker.check(_result(cmd, moved), golden, {}) == []


def test_git_commit_from_packed_refs_and_gitdir_file(tmp_path):
    sha = "0123456789abcdef0123456789abcdef01234567"
    repo = tmp_path / "repo"
    (repo / ".git").mkdir(parents=True)
    (repo / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (repo / ".git" / "packed-refs").write_text(f"# pack-refs\n{sha} refs/heads/main\n")
    assert run.git_commit(str(repo)) == sha
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / ".git").write_text(f"gitdir: {repo / '.git'}\n")
    assert run.git_commit(str(tree)) == sha
    assert run.git_commit(str(tmp_path)).startswith("unknown")


def test_verify_and_game_checks():
    verify = Command("v", ("verify",), "verify", 8)
    doc = {"lemma": "symmetry", "passed": True, "lhs": "10", "rhs": "10",
           "configurations": 8, "detail": ""}
    golden = checker.golden_of(_result(verify, doc))
    assert checker.check(_result(verify, doc), golden, {}) == []
    assert checker.check(_result(verify, dict(doc, lhs="11")), golden, {})
    game = Command("g", ("game",), "game-exact", 1)
    assert checker.check(_result(game, {"p2_win": "1/4"}), {"exit": 0, "p2_win": "1/4"}, {}) == []
    assert checker.check(_result(game, {"p2_win": "1/3"}), {"exit": 0, "p2_win": "1/4"}, {})


class FakeClock:
    """Advances by a fixed step on every reading."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def test_self_time_arithmetic_on_a_synthetic_tree():
    tr = tracer.Tracer(clock=FakeClock())
    leaf = tr.wrap(lambda: None, "leaf", "feasibility.opt", merge=True)

    def middle_body():
        leaf()
        leaf()

    middle = tr.wrap(middle_body, "middle", "policies.run", merge=False)

    def outer_body():
        middle()
        leaf()

    outer = tr.wrap(outer_body, "outer", "harness.estimate", merge=False)
    outer()
    # Clock readings: outer 1..10, middle 2..7, leaf 3-4 and 5-6 (merged),
    # leaf 8-9 under outer.
    recs = {(r.name, r.parent): r for r in tr.records}
    o = recs[("outer", -1)]
    m = recs[("middle", o.rid)]
    merged = recs[("leaf", m.rid)]
    assert (o.total, m.total, merged.count, merged.total) == (9.0, 5.0, 2, 2.0)
    assert (merged.start, merged.end) == (3.0, 6.0)
    ix = tracer._Index(tr.records)
    assert ix.self_seconds("harness.estimate") == 9.0 - 5.0 - 1.0
    assert ix.self_seconds("policies.run") == 5.0 - 2.0
    assert ix.calls("feasibility.opt") == 3
    assert ix.seconds("feasibility.opt") == 3.0
    metrics = tracer.layer_metrics(tr.records)
    assert metrics["harness.self_s"] == 3.0
    assert metrics["policies.run_calls"] == 1
    assert metrics["feasibility.opt_s"] == 3.0


def test_nested_calls_of_one_group_count_once():
    tr = tracer.Tracer(clock=FakeClock())
    inner = tr.wrap(lambda: None, "free", "exact.tables", merge=True)
    outer = tr.wrap(lambda: inner(), "support", "exact.tables", merge=True)
    outer()
    ix = tracer._Index(tr.records)
    assert ix.calls("exact.tables") == 1
    assert ix.seconds("exact.tables") == 3.0


def test_missing_names_are_listed_and_wrappers_removed():
    import sspilab.harness as harness

    original = harness.exact_optimum
    wraps = (
        ("sspilab.harness:exact_optimum", "feasibility.opt", True, None),
        ("sspilab.policies:no_such_function", "policies.search", True, None),
        ("sspilab.exact:NoSuchClass.method", "exact.tables", True, None),
        ("sspilab.no_such_module:f", "core.draw", True, None),
    )
    installed = tracer.Installed(tracer.Tracer(), wraps)
    assert harness.exact_optimum is not original
    assert installed.unwrapped == [w[0] for w in wraps[1:]]
    installed.remove()
    assert harness.exact_optimum is original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_workload_runs_and_checks(workload, tmp_path):
    cli = run.fresh_import()
    capture = run.Capture()
    capture.install(cli)
    commands = workloads.build(workload, 1, str(tmp_path), smoke=True)
    again = workloads.build(workload, 1, str(tmp_path / "again"), smoke=True)
    assert workloads.inputs_digest(commands, str(tmp_path)) == workloads.inputs_digest(
        again, str(tmp_path / "again"))
    tr = tracer.Tracer()
    installed = tracer.Installed(tr)
    try:
        results = run.run_pass(cli, commands, capture, tr)
    finally:
        installed.remove()
    assert installed.unwrapped == []
    goldens = {r.cmd.cid: checker.golden_of(r) for r in results}
    assert checker.check_pass(results, goldens) == []
    metrics = tracer.layer_metrics(tr.records)
    assert metrics["cli.calls"] == len(commands)
    assert metrics["harness.z_violations"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-enum", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
