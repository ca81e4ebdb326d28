"""`tools/bench_pairs.py` on two stub checkouts whose `perfbench/run.py`
prints a fixed result line and whose tier-1 run is stubbed: sides
alternate, and the summary reads the runs, medians, quartiles and wins off
those lines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

STUB = """import json, sys
from pathlib import Path
log = Path(__file__).resolve().parents[2] / "calls.log"
calls = log.read_text().count("\\n") if log.exists() else 0
with log.open("a") as fh:
    fh.write("{side}\\n")
wall = {wall} + 0.001 * calls
print("report line")
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0, "metrics": {{
    "wall_s": {{"value": wall, "unit": "s"}},
    "peak_rss_mb": {{"value": {rss}, "unit": "MB"}}}}}}))
"""


def _checkout(root: Path, side: str, wall: float, rss: float) -> Path:
    checkout = root / side
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(STUB.format(side=side, wall=wall, rss=rss))
    (checkout / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 16,
        "workloads": [{"name": "only"}],
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        ],
    }))
    return checkout


@pytest.fixture(autouse=True)
def stub_tier1(monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_tier1", lambda checkout: {"checkout": checkout.name})


def test_pairs_alternate_and_summarize(tmp_path):
    parent = _checkout(tmp_path, "parent", wall=0.5, rss=50.0)
    change = _checkout(tmp_path, "change", wall=0.4, rss=60.0)
    assert bench_pairs.main([str(parent), str(change), "--pr", "7", "--pairs", "4"]) == 0
    assert (tmp_path / "calls.log").read_text().split() == [
        "parent", "change", "change", "parent", "parent", "change", "change", "parent"]
    doc = json.loads((change / "BENCH_7.json").read_text())
    assert (doc["pr"], doc["pairs"], doc["run_seconds"]) == (7, 4, 16)
    assert doc["tier1"] == {"parent": {"checkout": "parent"}, "change": {"checkout": "change"}}
    assert doc["machine"]["usable_cpus"] >= 1
    only = doc["workloads"]["only"]
    assert only["all_correct"]
    assert [r["first"] for r in only["runs"]] == ["parent", "change", "parent", "change"]
    assert only["runs"][0]["parent"] == {"correct": True, "attempted": 3, "failed": 0}
    wall, rss = only["metrics"]["wall_s"], only["metrics"]["peak_rss_mb"]
    assert wall["parent"]["runs"] == pytest.approx([0.5, 0.503, 0.504, 0.507])
    assert wall["parent"]["median"] == pytest.approx(0.5035)
    assert (wall["change_wins"], rss["change_wins"], wall["pairs"]) == (4, 0, 4)
    assert (rss["change"]["q1"], rss["change"]["q3"], rss["bound"]) == (60.0, 60.0, 0.1)


def test_a_run_without_a_result_line_is_not_correct(tmp_path):
    parent = _checkout(tmp_path, "parent", wall=0.5, rss=50.0)
    change = _checkout(tmp_path, "change", wall=0.4, rss=60.0)
    (change / "perfbench" / "run.py").write_text("raise SystemExit(3)\n")
    assert bench_pairs.main([str(parent), str(change), "--pr", "7", "--pairs", "1"]) == 1
    only = json.loads((change / "BENCH_7.json").read_text())["workloads"]["only"]
    assert not only["all_correct"]
    assert only["runs"][0]["change"]["exit_code"] == 3
    assert only["metrics"] == {}
