import json
import re

import pytest

from sspilab.analysis import LemmaReport
from sspilab.cli import main
from sspilab.instances import instance_to_document
from sspilab.generators import random_instance, star_graphic_instance

import numpy as np
from fractions import Fraction


@pytest.fixture
def instance_file(tmp_path):
    rng = np.random.default_rng(4)
    inst = random_instance("matching", 3, rng)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_document(inst)))
    return str(path)


def test_simulate_exact_json(instance_file, capsys):
    code = main([
        "simulate", "--instance", instance_file, "--policy", "matching",
        "--adversary", "exhaustive-min", "--mode", "exact", "--seed", "2",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policy"] == "matching"
    assert "/" in payload["E_ALG"]


def test_simulate_mc_csv_to_file(instance_file, tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main([
        "--format", "csv", "--out", str(out), "--trials", "200",
        "simulate", "--instance", instance_file, "--policy", "matching",
    ])
    assert code == 0
    assert out.read_text().startswith("policy,adversary,mode,")


def test_verify_lemma_pass(instance_file, capsys):
    code = main([
        "verify", "--lemma", "match-prob", "--instance", instance_file,
        "--format", "csv",
    ])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_game_value_json(capsys):
    code = main(["verify", "--lemma", "game-value"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


def test_verify_failure_exit_code(monkeypatch, capsys):
    import sspilab.cli as cli

    def fake(lemma_id, structure=None, realizations=None):
        return LemmaReport("game-value", False, Fraction(0), Fraction(1), 0, "forced")

    monkeypatch.setattr(cli, "verify_lemma", fake)
    assert main(["verify", "--lemma", "game-value"]) == 1


def test_game_modes(capsys):
    assert main(["game", "--rr", "1", "--rb", "2", "--mode", "optimal"]) == 0
    assert main(["game", "--rr", "2", "--rb", "4", "--mode", "exhaustive"]) == 0
    assert main(["--trials", "2000", "game", "--rr", "1", "--rb", "2", "--mode", "mc"]) == 0


def test_game_cap_exit_code(capsys):
    assert main(["game", "--rr", "3", "--rb", "5", "--mode", "optimal"]) == 3


def test_tight_example_csv(capsys):
    code = main(["--trials", "500", "--format", "csv", "tight-example", "--k", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("policy,adversary,mode,")
    assert "reduction-graphic" in out


def test_mechanism_subcommand(tmp_path, capsys):
    from sspilab.core import exponential
    from sspilab.feasibility import TruncatedPartition
    from sspilab.instances import Instance

    inst = Instance(
        "r1", TruncatedPartition(((0, 1),), (1,), 1),
        {e: exponential(1.0) for e in range(2)},
    )
    path = tmp_path / "mech.json"
    path.write_text(json.dumps(instance_to_document(inst)))
    code = main([
        "--trials", "300", "mechanism", "--instance", str(path),
        "--policy", "rank1",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policy"] == "rank1"
    assert float(payload["welfare_ratio"]) > 0


def test_missing_instance_is_usage_error(capsys):
    code = main(["simulate", "--instance", "/nope.json", "--policy", "matching"])
    assert code == 2


def test_bad_instance_schema_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "structure": {"kind": "wat"}, "distributions": {}}')
    code = main(["simulate", "--instance", str(bad), "--policy", "matching"])
    assert code == 2


UNIT_UNIFORM = {"kind": "uniform", "a": 0.0, "b": 1.0}


def _rank1_document(dist, other=UNIT_UNIFORM, partition=None):
    doc = {
        "name": "r1",
        "structure": {"kind": "truncated-partition", "groups": [[0, 1]],
                      "group_capacities": [1], "total_capacity": 1},
        "distributions": {"0": dist, "1": other},
    }
    if partition is not None:
        doc["partition"] = partition
    return doc


@pytest.mark.parametrize("doc, field", [
    (_rank1_document({"kind": "uniform", "a": 0.0, "b": float("inf")}), "distributions.0"),
    (_rank1_document({"kind": "point-mass", "value": float("nan")}), "distributions.0"),
    (_rank1_document({"kind": "exponential", "rate": float("nan")}), "distributions.0"),
    (_rank1_document({"kind": "point-mass", "value": 1.0},
                     partition={"alpha": float("nan"), "groups": [[0], [1]]}),
     "partition.alpha"),
    (_rank1_document({"kind": "point-mass", "value": None}), "distributions.0"),
    (_rank1_document({"kind": "point-mass", "value": 1.0},
                     partition={"alpha": "two", "groups": [[0], [1]]}), "partition.alpha"),
])
@pytest.mark.parametrize("mode", ["mc", "exact"])
def test_non_finite_numbers_rejected(doc, field, mode, tmp_path, capsys):
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc))  # writes the Infinity/NaN literals
    code = main(["--trials", "50", "simulate", "--instance", str(path),
                 "--policy", "rank1", "--mode", mode])
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["game", "--rr", "1", "--rb", "2", "--mode", "mc"],
    ["tight-example", "--k", "5"],
    ["mechanism", "--instance", "{rank1}", "--policy", "rank1"],
])
def test_zero_trials_rejected(argv, tmp_path, capsys):
    exp = {"kind": "exponential", "rate": 1.0}  # mhr by default
    path = tmp_path / "rank1.json"
    path.write_text(json.dumps(_rank1_document(exp, exp)))
    argv = [a.replace("{rank1}", str(path)) for a in argv]
    assert main(["--trials", "0", *argv]) == 2
    assert "need trials >= 1" in capsys.readouterr().err


def _matching_document(vertices):
    return {
        "name": "m",
        "structure": {"kind": "matching", "vertices": vertices, "edges": [[0, 1]]},
        "distributions": {"0": UNIT_UNIFORM},
    }


def _capacities(group_capacities, total_capacity):
    doc = _rank1_document(UNIT_UNIFORM)
    doc["structure"]["group_capacities"] = group_capacities
    doc["structure"]["total_capacity"] = total_capacity
    return doc


@pytest.mark.parametrize("doc, policy, field", [
    (_rank1_document({"kind": "uniform", "a": "0", "b": 1}), "rank1", "distributions.0.a"),
    (_rank1_document({"kind": "point-mass", "value": True}), "rank1",
     "distributions.0.value"),
    (_rank1_document({"kind": "exponential", "rate": "2"}), "rank1",
     "distributions.0.rate"),
    (_rank1_document({"kind": "discrete", "values": ["1", "2"], "weights": [0.5, 0.5]}),
     "rank1", "distributions.0.values[0]"),
    (_rank1_document({"kind": "discrete", "values": [1, 2], "weights": [0.5, "0.5"]}),
     "rank1", "distributions.0.weights[1]"),
    (_rank1_document({"kind": "point-mass", "value": 1.0},
                     partition={"alpha": "2", "groups": [[0], [1]]}), "rank1",
     "partition.alpha"),
    (_matching_document("3"), "matching", "structure.vertices"),
    (_capacities([True], 1), "rank1", "structure.group_capacities[0]"),
    (_capacities([1], True), "rank1", "structure.total_capacity"),
])
def test_non_numbers_rejected(doc, policy, field, tmp_path, capsys):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    code = main(["--trials", "50", "simulate", "--instance", str(path),
                 "--policy", policy])
    assert code == 2
    assert field in capsys.readouterr().err


def test_exact_optimum_settles_float_near_ties(tmp_path, capsys):
    # Summed largest first in floats, {0, 3} (1 + 1.5 * 2**-53 rounds up to
    # 1 + 2**-52) beats {0, 1, 2} (each 2**-53 is lost to rounding); exactly,
    # {0, 1, 2} is heavier by 2**-54.
    tiny = 2.0**-53
    doc = {
        "name": "near-tie",
        "structure": {"kind": "matching", "vertices": 6,
                      "edges": [[0, 1], [2, 3], [4, 5], [3, 4]]},
        "distributions": {
            str(e): {"kind": "point-mass", "value": v}
            for e, v in enumerate((1.0, tiny, tiny, 1.5 * tiny))
        },
    }
    path = tmp_path / "near-tie.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--instance", str(path), "--policy", "matching",
                 "--mode", "exact"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["E_OPT"] == "4503599627370497/4503599627370496"


def _transversal_document(right_order, adjacency):
    return {
        "name": "t",
        "structure": {"kind": "transversal", "left": 1, "right_order": right_order,
                      "adjacency": adjacency},
        "distributions": {"0": UNIT_UNIFORM},
    }


@pytest.mark.parametrize("doc, policy, field", [
    (_rank1_document({**UNIT_UNIFORM, "mhr": "false"}), "rank1", "distributions.0.mhr"),
    (_rank1_document({**UNIT_UNIFORM, "mhr": 0}), "rank1", "distributions.0.mhr"),
    (_transversal_document(["a"], "a"), "transversal", "structure.adjacency"),
    (_transversal_document(["a"], ["a"]), "transversal", "structure.adjacency[0]"),
    (_transversal_document("ab", [["a"]]), "transversal", "structure.right_order"),
])
def test_non_lists_and_non_booleans_rejected(doc, policy, field, tmp_path, capsys):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    code = main(["--trials", "50", "simulate", "--instance", str(path),
                 "--policy", policy])
    assert code == 2
    assert field in capsys.readouterr().err


def _edges_document(edges):
    return {
        "name": "g",
        "structure": {"kind": "graphic", "vertices": 3, "edges": edges},
        "distributions": {str(e): UNIT_UNIFORM for e in range(len(edges))},
    }


def _groups_document(groups):
    doc = _rank1_document(UNIT_UNIFORM)
    doc["structure"]["groups"] = groups
    return doc


def _missing_edges():
    doc = _matching_document(2)
    del doc["structure"]["edges"]
    return doc


def _empty_document(structure):
    return {"name": "empty", "structure": structure, "distributions": {}}


def _huge_rank1():
    # The values fit a float, their squares do not.
    return _rank1_document({"kind": "uniform", "a": 1e200, "b": 2e200, "mhr": True},
                           {"kind": "point-mass", "value": 3e200, "mhr": True})


def _huge_matching():
    # Two values near 1e308 sum past the float range.
    doc = _matching_document(4)
    doc["structure"]["edges"] = [[0, 1], [2, 3]]
    wide = {"kind": "uniform", "a": 0.0, "b": 1e308}
    doc["distributions"] = {"0": wide, "1": wide}
    return doc


@pytest.mark.parametrize("argv, doc, field", [
    (["simulate", "--policy", "matching"], _missing_edges(), "structure"),
    (["simulate", "--policy", "rank1"], _edges_document([[0, 1, 2]]), "structure.edges[0]"),
    (["simulate", "--policy", "rank1"], _edges_document([[1, 1]]), "structure.edges[0]"),
    (["simulate", "--policy", "transversal"], _transversal_document(["a"], [["a"], ["a"]]),
     "structure.adjacency"),
    (["simulate", "--policy", "transversal"], _transversal_document(["a"], [["b"]]),
     "structure.adjacency[0]"),
    (["simulate", "--policy", "transversal"], _transversal_document(["a"], [["a", "a"]]),
     "structure.adjacency[0]"),
    (["simulate", "--policy", "rank1"], _capacities([1, 1], 1), "structure.group_capacities"),
    (["simulate", "--policy", "rank1"], _groups_document([[0, 2]]), "structure.groups"),
    (["simulate", "--policy", "rank1"], _rank1_document({"kind": "cauchy"}), "distributions.0"),
    (["simulate", "--policy", "rank1"], [], "$"),
    (["simulate", "--policy", "rank1"],
     {**_rank1_document(UNIT_UNIFORM), "distributions": {"0": UNIT_UNIFORM, "one": UNIT_UNIFORM}},
     "distributions.one"),
    (["simulate", "--policy", "reduction-custom"],
     _rank1_document(UNIT_UNIFORM, partition={"alpha": 2.0, "groups": [[0], [2]]}),
     "partition.groups"),
    (["verify", "--lemma", "symmetry"], None, "--instance"),
    (["simulate", "--policy", "rank1"], {**_rank1_document(UNIT_UNIFORM), "structure": "kind"},
     "structure"),
    (["simulate", "--policy", "rank1"], {**_rank1_document(UNIT_UNIFORM), "distributions": []},
     "distributions"),
    (["simulate", "--policy", "rank1"], _rank1_document(5), "distributions.0"),
    (["simulate", "--policy", "rank1"], _rank1_document(UNIT_UNIFORM, partition=[]),
     "partition"),
    (["simulate", "--policy", "rank1"], _rank1_document(UNIT_UNIFORM, partition="groups"),
     "partition"),
    (["mechanism", "--policy", "matching", "--regime", "iid-regular"],
     _empty_document({"kind": "matching", "vertices": 2, "edges": []}), "structure"),
    (["simulate", "--policy", "transversal", "--mode", "exact"],
     _empty_document({"kind": "transversal", "left": 0, "right_order": ["a"],
                      "adjacency": []}), "structure"),
    (["simulate", "--policy", "rank1"],
     _empty_document({"kind": "truncated-partition", "groups": [], "group_capacities": [],
                      "total_capacity": 1}), "structure"),
    (["simulate", "--policy", "rank1"], _huge_rank1(), "distributions"),
    (["simulate", "--policy", "matching"], _huge_matching(), "distributions"),
    (["mechanism", "--policy", "rank1"], _huge_rank1(), "distributions"),
], ids=[
    "missing-field", "edge-not-a-pair", "self-loop", "adjacency-rows", "unknown-right-node",
    "right-node-twice", "capacity-count", "groups-not-0..n-1", "distribution-kind",
    "top-level-list", "element-key", "partition-outside-ground", "verify-without-instance",
    "structure-not-an-object", "distributions-not-an-object", "distribution-not-an-object",
    "partition-list", "partition-string", "empty-matching", "empty-transversal",
    "empty-truncated-partition", "squares-overflow", "sums-overflow",
    "mechanism-squares-overflow",
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rejections_exit_2_and_name_the_field(argv, doc, field, tmp_path, capsys):
    if doc is not None:
        path = tmp_path / "rejected.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--instance", str(path)]
    assert main(["--trials", "5", *argv]) == 2
    err = capsys.readouterr().err
    assert f"error: {field}: " in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["--out", str(out), "game", "--rr", "1", "--rb", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("doc, argv, message", [
    # 63 right nodes: past the int64 right-node bitmasks of exact E_OPT.
    ({"name": "t63", "structure": {"kind": "transversal", "left": 2,
                                   "right_order": [str(r) for r in range(63)],
                                   "adjacency": [["0", "62"], ["62"]]},
      "distributions": {"0": UNIT_UNIFORM, "1": UNIT_UNIFORM}},
     ["simulate", "--policy", "transversal", "--mode", "exact"], "right-node bitmasks"),
    # 32 disjoint edges touch 64 vertices: past the matching's vertex bitmasks.
    ({"name": "m64", "structure": {"kind": "matching", "vertices": 64,
                                   "edges": [[2 * e, 2 * e + 1] for e in range(32)]},
      "distributions": {str(e): UNIT_UNIFORM for e in range(32)}},
     ["simulate", "--policy", "matching", "--mode", "mc"], "vertex bitmasks"),
], ids=["exact-transversal-right-nodes", "mc-matching-vertices"])
def test_bitmask_caps_exit_3(doc, argv, message, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["--trials", "5", *argv, "--instance", str(path)]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_unexpected_error_exits_4_without_traceback(instance_file, monkeypatch, capsys):
    import sspilab.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "estimate_ratio", broken)
    code = main(["simulate", "--instance", instance_file, "--policy", "matching"])
    assert code == 4
    err = capsys.readouterr().err
    assert err == "error: internal error: RuntimeError: simulated fault\n"
    assert "Traceback" not in err


def test_parser_reused_across_calls(instance_file, capsys):
    import sspilab.cli as cli

    runs = [
        ["--seed", "3", "simulate", "--instance", instance_file, "--policy", "matching",
         "--mode", "exact"],
        ["--format", "csv", "--trials", "40", "simulate", "--instance", instance_file,
         "--policy", "matching", "--adversary", "random"],
        ["verify", "--lemma", "match-prob", "--instance", instance_file, "--seed", "5"],
        ["game", "--rr", "1", "--rb", "2", "--format", "csv"],
        ["simulate", "--instance", instance_file, "--policy", "matching", "--mode", "exact"],
    ]

    def outputs(fresh: bool) -> list:
        got = []
        for argv in runs:
            if fresh:
                cli._parser.cache_clear()
            code = main(argv)
            text = capsys.readouterr().out
            # Drop the wall_ms field (JSON line, last CSV column).
            lines = [line for line in text.splitlines() if "wall_ms" not in line]
            got.append((code, [re.sub(r",[0-9.]+$", ",", line) for line in lines]))
        return got

    shared = outputs(fresh=False)
    assert shared == outputs(fresh=True)
    assert [code for code, _ in shared] == [0] * len(runs)


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_internal_fault_in_engine_exits_4(mode, instance_file, monkeypatch, capsys):
    # An unknown policy can only reach the batched evaluator through a
    # fault of the program; its branch raises RuntimeError, which is exit 4.
    import sspilab.cli as cli
    import sspilab.harness as harness

    monkeypatch.setattr(harness, "check_policy", lambda *args: None)
    real = cli.estimate_ratio
    monkeypatch.setattr(
        cli, "estimate_ratio", lambda inst, policy, **kw: real(inst, "no-such-policy", **kw)
    )
    code = main(["--trials", "5", "simulate", "--instance", instance_file,
                 "--policy", "matching", "--mode", mode])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: internal error: RuntimeError: ")
    assert "no-such-policy" in err


@pytest.mark.parametrize("argv, flag", [
    (["game", "--rr", "0", "--rb", "1", "--mode", "optimal"], "--rr"),
    (["game", "--rr", "-1", "--rb", "2", "--mode", "exhaustive"], "--rr"),
    (["--trials", "50", "game", "--rr", "0", "--rb", "2", "--mode", "mc"], "--rr"),
    (["game", "--rr", "1", "--rb", "0", "--mode", "optimal"], "--rb"),
])
def test_game_bins_below_one_rejected(argv, flag, capsys):
    assert main(argv) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_rejected(seed, instance_file, capsys):
    for argv in (["--seed", seed, "game", "--rr", "1", "--rb", "2", "--mode", "mc"],
                 ["simulate", "--instance", instance_file, "--policy", "matching",
                  "--seed", seed]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def test_non_integer_workers_rejected(instance_file, monkeypatch, capsys):
    monkeypatch.setenv("SSPILAB_WORKERS", "abc")
    code = main(["--trials", "5", "simulate", "--instance", instance_file,
                 "--policy", "matching"])
    assert code == 2
    assert "SSPILAB_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("inst, argv", [
    # 7 vertices: above the exact vertex-order cap of 6.
    (star_graphic_instance(6),
     ["simulate", "--policy", "reduction-graphic", "--mode", "exact"]),
    # 21 elements: above the configuration enumeration cap of 20.
    (random_instance("rank1", 21, np.random.default_rng(2)),
     ["verify", "--lemma", "symmetry"]),
], ids=["vertex-orders", "configurations"])
def test_exact_enumeration_caps_exit_3(inst, argv, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_document(inst)))
    assert main([*argv, "--instance", str(path)]) == 3
    assert "capped" in capsys.readouterr().err


def test_tight_example_k_cap_and_bounded_blocks(capsys):
    assert main(["--trials", "1", "tight-example", "--k", "1000000000000"]) == 3
    assert "capped at k <=" in capsys.readouterr().err
    assert main(["--trials", "1", "tight-example", "--k", str((1 << 22) + 1)]) == 3
    capsys.readouterr()
    assert main(["--trials", "1", "tight-example", "--k", str(1 << 22)]) == 0
    capsys.readouterr()
    # 10^4 leaves: blocks of 419 trials instead of 20,000.
    assert main(["--trials", "3", "tight-example", "--k", "10000"]) == 0
    assert json.loads(capsys.readouterr().out)["ratio"]


@pytest.mark.parametrize("kind", ["matching", "transversal"])
def test_verify_greedy_objective_at_n18(kind, tmp_path, capsys):
    # 2^18 configurations: the right side is counted over greedy states, not
    # replayed configuration by configuration.
    inst = random_instance(kind, 18, np.random.default_rng(5))
    path = tmp_path / "n18.json"
    path.write_text(json.dumps(instance_to_document(inst)))
    code = main(["--seed", "5", "verify", "--lemma", "greedy-objective", "--instance", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["configurations"] == 1 << 18
    assert payload["detail"].endswith("greedy states over 262144 configurations")
