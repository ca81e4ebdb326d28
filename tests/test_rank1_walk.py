"""The rank-1 walk (`exact.rank1_walk`) against the enumeration over all
2**n coin configurations (`harness._block_counts`).

For rank1 and both reductions, every group has capacity 1, so exact mode
counts E_ALG by walking each group's sub-path; on partitions it counts
E_OPT (= E_OPT') the same way. The walk's integer path-index counts must
equal the enumeration's row for row, partition by partition, so the
reported Fractions are bit-identical. Cases cover rank1 (with several
truncated-partition groups and point masses at 0), reduction-custom on
simple and truncated partitions, and reduction-graphic on graphs within
the vertex-order cap, at n = 1-10 under every exact adversary.
"""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sspilab.cli as cli
from conftest import several_group_rank1
from sspilab.core import trial_rng
from sspilab.exact import (
    PathLayout,
    config_blocks,
    optimum_grouping,
    rank1_walk,
    reduction_partitions,
)
from sspilab.feasibility import SimplePartition
from sspilab.generators import _random_partition, random_instance
from sspilab.harness import EXACT_ADVERSARIES, _block_counts
from sspilab.instances import instance_to_document, load_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CASES = (
    ("rank1", "rank1"),
    ("rank1", "several-groups"),
    ("rank1", "several-groups-zeros"),
    ("reduction-custom", "simple-partition"),
    ("reduction-custom", "truncated-partition"),
    ("reduction-graphic", "graphic"),
)


def _instance(kind: str, n: int, rng: np.random.Generator):
    if kind.startswith("several-groups"):  # two groups at least
        return several_group_rank1(max(n, 2), rng, zeros=kind.endswith("zeros"))
    inst = random_instance(kind, n, rng)
    if kind in ("simple-partition", "truncated-partition"):
        groups = _random_partition(n, rng)
        if rng.random() < 0.5 and len(groups) > 1:
            groups = groups[1:]  # some elements in no group
        inst = replace(inst, partition=SimplePartition(tuple(map(tuple, groups))),
                       partition_alpha=2.0)
    return inst


@settings(max_examples=400)
@given(
    case=st.sampled_from(CASES),
    n=st.integers(1, 10),
    adversary=st.sampled_from(EXACT_ADVERSARIES),
    seed=st.integers(0, 2**32 - 1),
)
def test_walk_counts_equal_the_enumeration(case, n, adversary, seed):
    policy, kind = case
    rng = np.random.default_rng(seed)
    inst = _instance(kind, n, rng)
    layout = PathLayout(inst.structure, inst.draw_realizations(trial_rng(seed, 0)))
    (ens,) = config_blocks(inst.structure, layout)  # 2**10 configurations fit one block
    is_y = layout.is_y.tolist()
    for grouping, weight in reduction_partitions(inst, policy):
        want, z = _block_counts(ens, policy, adversary, grouping)
        got = rank1_walk(layout, grouping, adversary)
        assert got == want[0].tolist(), (grouping, adversary)
        assert z == 0
        # Every reward taken sits at a Y index.
        assert not any(c for c, y in zip(got, is_y) if not y)
    grouping = optimum_grouping(inst.structure)
    if grouping is not None:
        opt = rank1_walk(layout, grouping)
        assert opt == want[1].tolist() == want[2].tolist()
    # A group's walk covers the 2**n configurations once.
    assert sum(rank1_walk(layout)) == 1 << inst.ground_size


def _write(tmp_path, inst) -> str:
    path = tmp_path / f"{inst.name}.json"
    path.write_text(json.dumps(instance_to_document(inst)))
    return str(path)


def _cli_instances(tmp_path):
    """(policy, instance file) pairs for the walk's policies: the rank1 and
    graphic fixtures, reduction-custom on the two-layer fixture (E_OPT by
    the blocks) and on a simple partition (E_OPT by the walk), and rank1 at
    the exact-mode cap."""
    rng = np.random.default_rng(36)
    two_layer = load_instance(FIXTURES / "two-layer.json")
    two_layer = replace(two_layer, partition=SimplePartition(((0, 2), (1, 4))),
                        partition_alpha=2.0)
    simple = _instance("simple-partition", 9, rng)
    return [
        ("rank1", str(FIXTURES / "rank1-exponential.json")),
        ("rank1", _write(tmp_path, several_group_rank1(8, rng, zeros=True))),
        ("rank1", _write(tmp_path, random_instance("rank1", 16, rng))),
        ("reduction-graphic", str(FIXTURES / "graphic-star.json")),
        ("reduction-custom", _write(tmp_path, two_layer)),
        ("reduction-custom", _write(tmp_path, simple)),
    ]


def test_cli_walk_reports(tmp_path, monkeypatch, capsys):
    # Through `cli.main`: no z-violations, and exhaustive-min is the
    # increasing order for these policies, Fraction for Fraction.
    seen = []
    real = cli.estimate_ratio
    monkeypatch.setattr(cli, "estimate_ratio", lambda *a, **k: seen.append(real(*a, **k))
                        or seen[-1])
    for policy, path in _cli_instances(tmp_path):
        e_alg = {}
        for adversary in EXACT_ADVERSARIES:
            assert cli.main(["simulate", "--instance", path, "--policy", policy,
                             "--mode", "exact", "--adversary", adversary]) == 0
            e_alg[adversary] = Fraction(json.loads(capsys.readouterr().out)["E_ALG"])
            assert seen[-1].z_violations == 0
            assert seen[-1].e_alg == e_alg[adversary]
        assert e_alg["exhaustive-min"] == e_alg["increasing"], (policy, path)


def test_cli_exact_rank1_stays_capped(tmp_path, capsys):
    path = _write(tmp_path, random_instance("rank1", 17, np.random.default_rng(17)))
    assert cli.main(["simulate", "--instance", path, "--policy", "rank1",
                     "--mode", "exact"]) == 3
    assert "n <= 16" in capsys.readouterr().err
