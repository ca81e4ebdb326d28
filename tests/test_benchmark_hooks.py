"""The names the benchmark (perfbench/) wraps through `sspilab.cli`.

perfbench's tracer wraps eight module globals of `sspilab.cli`, and its
checker reads each `simulate` report's z_violations through
`cli.estimate_ratio`. A command that stops looking one of them up when it
runs would leave the benchmark blind to it, with no test under tests/
failing, so these tests pin them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import sspilab.cli as cli

ROOT = Path(__file__).resolve().parent.parent
RANK1 = str(ROOT / "fixtures" / "rank1-exponential.json")

CLI_HOOKS = (
    "main", "load_instance", "estimate_ratio", "tight_example", "verify_lemma",
    "game_monte_carlo", "exhaustive_game_value", "estimate_mechanism_ratios",
)
# tracer.WRAPS names that no longer resolve; a change may lower this count,
# never raise it.
UNRESOLVED_WRAPS = 34


@pytest.mark.parametrize("name", CLI_HOOKS)
def test_cli_hooks_resolve(name):
    assert callable(getattr(cli, name))


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_simulate_reports_through_cli_estimate_ratio(mode, monkeypatch, capsys):
    seen = []
    real = cli.estimate_ratio

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "estimate_ratio", spy)
    assert cli.main(["--trials", "50", "simulate", "--instance", RANK1,
                     "--policy", "rank1", "--mode", mode]) == 0
    assert capsys.readouterr().out
    assert len(seen) == 1 and seen[0].mode == mode
    assert seen[0].z_violations == 0


def test_tracer_wraps_no_more_dead_names(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up
    spec.loader.exec_module(tracer)
    missing = [target for target, *_ in tracer.WRAPS if tracer._resolve(target) is None]
    assert len(missing) <= UNRESOLVED_WRAPS
    assert not [target for target in missing if target.startswith("sspilab.cli:")]
