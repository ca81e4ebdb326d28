"""Workload definitions: the fixed list of CLI commands each workload runs.

A workload is built from a pool index (the benchmark seed modulo POOL_SIZE).
Building generates the instance files with `sspilab.generators` and
`instances.instance_to_document`, writes them into a work directory, and
returns the commands as argv lists for `sspilab.cli.main`. The same pool
index always yields the same files and argv, so golden outputs can be
recorded once per pool index.

`smoke=True` builds a tiny version of the same list (small n, few trials).
Set-up runs it as the warm-up, and the self-tests run it to check that every
workload still runs end to end.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace

import numpy as np

POOL_SIZE = 16
WORKLOADS = ("exact-enum", "mc-sweep", "worst-order", "lemma-verify")
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

@dataclass(frozen=True)
class Command:
    cid: str
    argv: tuple[str, ...]
    kind: str  # exact, mc, verify, mechanism, tight, game-mc, game-exact, probe
    units: int  # configurations, trials or games the command processes
    expect_exit: int = 0
    # For an exhaustive-min run: the cid of the increasing-order run on the
    # same instance, seed and trials, whose E_ALG it must not exceed.
    pair: str | None = None
    # True when E_ALG is a function of the per-trial draws alone: the policy
    # uses no randomness of its own and the order follows from the draws.
    # Then matching optimum columns pin E_ALG too (see checker.py).
    alg_from_draws: bool = False


class _CommandList:
    def __init__(self, workload: str, pool_index: int, workdir: str, smoke: bool):
        import sspilab.generators as generators
        import sspilab.instances as instances

        self.generators = generators
        self.instances = instances
        self.workdir = workdir
        self.smoke = smoke
        self.seed = str(pool_index)
        tag = WORKLOADS.index(workload)
        self.rng = np.random.default_rng((pool_index, tag, int(smoke)))
        self.commands: list[Command] = []
        self.files = 0

    def n(self, full: int) -> int:
        return min(full, 5) if self.smoke else full

    def trials(self, full: int) -> int:
        return max(2, full // 50) if self.smoke else full

    def write(self, inst) -> str:
        path = os.path.join(self.workdir, f"i{self.files:03d}-{inst.name}.json")
        self.files += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.instances.instance_to_document(inst), fh, indent=1)
        return path

    def instance(self, kind: str, n: int, shape=None):
        """A generated instance; `shape` rejects structures outside a band so
        that the work per command varies less between pool indices."""
        for _ in range(10_000):
            inst = self.generators.random_instance(kind, n, self.rng)
            if shape is None or shape(inst.structure):
                return inst
        raise RuntimeError(f"no {kind} instance with n={n} fits the shape")

    def with_partition(self, inst, alpha: float = 2.0):
        """Attach a generated partition block (for reduction-custom)."""
        from sspilab.feasibility import SimplePartition

        n = inst.ground_size
        k = int(self.rng.integers(2, max(3, n // 2 + 1)))
        labels = self.rng.integers(0, k, size=n)
        groups = [tuple(int(e) for e in np.flatnonzero(labels == g)) for g in range(k)]
        partition = SimplePartition(tuple(g for g in groups if g))
        return replace(inst, partition=partition, partition_alpha=alpha)

    def add(self, cid: str, argv: list[str], kind: str, units: int, **kw) -> Command:
        cmd = Command(cid, tuple(argv), kind, units, **kw)
        self.commands.append(cmd)
        return cmd

    def simulate(self, cid, path, policy, mode, adversary, n, trials=0, **kw):
        argv = ["--seed", self.seed]
        if mode == "mc":
            argv += ["--trials", str(trials)]
        argv += ["simulate", "--instance", path, "--policy", policy,
                 "--mode", mode, "--adversary", adversary]
        if mode == "exact":
            return self.add(cid, argv, "exact", 1 << n, **kw)
        alg_from_draws = not policy.startswith("reduction") and adversary != "random"
        return self.add(cid, argv, "mc", trials, alg_from_draws=alg_from_draws, **kw)


# Structure bands (see _CommandList.instance).
def _matching_band(n):
    return lambda s: n // 2 + 2 <= s.vertex_count <= n


def _transversal_band(n):
    return lambda s: n // 3 + 1 <= s.right_count <= n // 2 + 1


def _laminar_band(n):
    return lambda s: 2 <= len(s.groups) and n // 4 + 1 <= s.total_capacity <= n // 2


def _graphic_band(vertices):
    return lambda s: s.vertex_count == vertices


def _kind_shape(policy: str, n: int, vertices: int = 4):
    """Structure kind and band for a policy on a generated instance; graphic
    instances get `vertices` vertices, so vertices! orders in exact mode."""
    return {
        "matching": ("matching", _matching_band(n)),
        "transversal": ("transversal", _transversal_band(n)),
        "laminar": ("truncated-partition", _laminar_band(n)),
        "rank1": ("rank1", None),
        "reduction-graphic": ("graphic", _graphic_band(vertices)),
        "reduction-custom": ("simple-partition", None),
    }[policy]


def _generated(b: _CommandList, policy: str, n: int, vertices: int = 4):
    kind, shape = _kind_shape(policy, n, vertices)
    if b.smoke and shape is not None and kind != "graphic":
        shape = None
    inst = b.instance(kind, n, shape)
    if policy == "reduction-custom":
        inst = b.with_partition(inst)
    return inst


def _exact_enum(b: _CommandList) -> None:
    # (policy, n, instances): each row takes a similar share of the pass.
    for policy, n, count in (
        ("matching", 12, 2),
        ("transversal", 12, 2),
        ("laminar", 13, 2),
        ("rank1", 13, 2),
        ("reduction-graphic", 12, 2),
        ("reduction-custom", 13, 2),
    ):
        n = b.n(n)
        for i in range(count):
            path = b.write(_generated(b, policy, n, vertices=3))
            for adversary in ("fixed", "increasing"):
                b.simulate(f"{policy}-{i}-{adversary}", path, policy, "exact", adversary, n)
    # Two commands near the configuration cap, where the ensemble arrays are
    # largest and the per-configuration E_OPT oracle is the largest cost.
    n = b.n(15)
    for adversary in ("fixed", "increasing"):
        path = b.write(_generated(b, "transversal", n))
        b.simulate(f"transversal-n{n}-{adversary}", path, "transversal", "exact", adversary, n)
    # Exit-code contract: a size cap is exit 3, a malformed file is exit 2.
    big = b.write(b.instance("rank1", 17))
    b.add("probe-cap", ["simulate", "--instance", big, "--policy", "rank1",
                        "--mode", "exact"], "probe", 0, expect_exit=3)
    bad = os.path.join(b.workdir, "malformed.json")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write('{"name": "malformed", "structure": {"kind": "matching"}}')
    b.add("probe-input", ["simulate", "--instance", bad, "--policy", "matching"],
          "probe", 0, expect_exit=2)


_FIXTURE_POLICIES = (
    ("triangle-matching", "matching"),
    ("transversal-small", "transversal"),
    ("two-layer", "laminar"),
    ("graphic-star", "reduction-graphic"),
    ("rank1-exponential", "rank1"),
)
_ADVERSARIES = ("fixed", "increasing", "random")


def _mc_sweep(b: _CommandList) -> None:
    for name, policy in _FIXTURE_POLICIES:
        path = os.path.join(FIXTURE_DIR, f"{name}.json")
        n = b.instances.load_instance(path).ground_size
        for adversary in _ADVERSARIES:
            b.simulate(f"{name}-{adversary}", path, policy, "mc", adversary, n,
                       trials=b.trials(600))
    k = 0
    for policy, n, trials in (
        ("matching", 12, 150),
        ("transversal", 16, 150),
        ("laminar", 24, 100),
        ("rank1", 30, 150),
        ("reduction-graphic", 20, 150),
        ("reduction-custom", 20, 150),
    ):
        n = b.n(n)
        for i in range(2):
            path = b.write(_generated(b, policy, n))
            adversary = _ADVERSARIES[k % 3]
            k += 1
            b.simulate(f"{policy}-{i}-{adversary}", path, policy, "mc", adversary, n,
                       trials=b.trials(trials))
    star = b.write(b.generators.star_graphic_instance(8 if b.smoke else 40))
    rank1 = os.path.join(FIXTURE_DIR, "rank1-exponential.json")
    for cid, path, policy, regime, trials in (
        ("mechanism-star", star, "reduction-graphic", ["--regime", "iid-regular"], 300),
        ("mechanism-rank1", rank1, "rank1", [], 1500),
    ):
        t = b.trials(trials)
        b.add(cid, ["--seed", b.seed, "--trials", str(t), "mechanism", "--instance",
                    path, "--policy", policy, *regime], "mechanism", t,
              alg_from_draws=not policy.startswith("reduction"))
    t = b.trials(60_000)
    b.add("tight-k200", ["--seed", b.seed, "--trials", str(t), "tight-example",
                         "--k", "200"], "tight", t)


def _worst_order(b: _CommandList) -> None:
    # The search's cost depends on how many elements pass their thresholds,
    # which varies by instance, so the trials and exact runs are spread over
    # several instances per policy.
    # Where the policy uses no randomness of its own, each Monte Carlo search
    # has an increasing-order run beside it on the same trials. Matching is
    # the one policy whose minimum the increasing order often misses, so its
    # n = 7 searches get more trials: a search that stops finding the minimum
    # then changes some pool's outputs.
    for policy in ("matching", "transversal", "laminar", "rank1", "reduction-graphic"):
        for n, count, trials in ((7, 4, 40 if policy == "matching" else 4), (8, 3, 2)):
            for i in range(count):
                path = b.write(_generated(b, policy, b.n(n), vertices=3))
                cid = f"{policy}-mc-n{n}-{i}"
                pair = None
                if not policy.startswith("reduction"):
                    pair = b.simulate(f"{cid}-increasing", path, policy, "mc", "increasing",
                                      b.n(n), trials=trials).cid
                b.simulate(cid, path, policy, "mc", "exhaustive-min", b.n(n),
                           trials=trials, pair=pair)
        n = b.n(8)
        for i in range(4):
            path = b.write(_generated(b, policy, n, vertices=3))
            inc = b.simulate(f"{policy}-exact-{i}-increasing", path, policy, "exact",
                             "increasing", n)
            b.simulate(f"{policy}-exact-{i}-exhaustive-min", path, policy, "exact",
                       "exhaustive-min", n, pair=inc.cid)


_COUNTING_LEMMAS = (
    ("matching", 14, ("symmetry", "forget-z", "greedy-objective", "match-unique",
                      "match-prob")),
    ("transversal", 14, ("symmetry", "greedy-objective", "trans-unique", "trans-prob")),
    ("laminar", 13, ("forget-z", "laminar-prob", "laminar-sufficient")),
    ("reduction-graphic", 12, ("symmetry", "forget-z", "greedy-objective")),
)
_ORDER_LEMMAS = (
    ("matching", 7, ("match-sufficient",)),
    ("transversal", 7, ("trans-sufficient",)),
)


def _lemma_verify(b: _CommandList) -> None:
    for policy, n, lemmas in _COUNTING_LEMMAS + _ORDER_LEMMAS:
        n = b.n(n)
        path = b.write(_generated(b, policy, n))
        kind = _kind_shape(policy, n)[0]
        for lemma in lemmas:
            b.add(f"{kind}-{lemma}", ["--seed", b.seed, "verify", "--lemma", lemma,
                                      "--instance", path], "verify", 1 << n)
    b.add("game-value", ["verify", "--lemma", "game-value"], "verify", 0)
    for rr, rb in ((1, 2), (1, 4), (2, 3), (2, 4)):
        for mode in ("optimal", "exhaustive"):
            b.add(f"game-{mode}-{rr}-{rb}", ["game", "--rr", str(rr), "--rb", str(rb),
                                             "--mode", mode], "game-exact", 1)
    t = b.trials(40_000)
    b.add("game-mc-1-3", ["--seed", b.seed, "--trials", str(t), "game", "--rr", "1",
                          "--rb", "3", "--mode", "mc"], "game-mc", t)


_MAKERS = {
    "exact-enum": _exact_enum,
    "mc-sweep": _mc_sweep,
    "worst-order": _worst_order,
    "lemma-verify": _lemma_verify,
}


def build(workload: str, pool_index: int, workdir: str, smoke: bool = False) -> list[Command]:
    """Write the workload's instance files into `workdir` and return its commands."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    b = _CommandList(workload, pool_index, workdir, smoke)
    _MAKERS[workload](b)
    ids = [c.cid for c in b.commands]
    if len(set(ids)) != len(ids):
        raise AssertionError("command ids must be unique")
    return b.commands


def inputs_digest(commands: list[Command], workdir: str) -> str:
    """Digest of every argv and every file it names, independent of where the
    work directory is; goldens carry it so stale goldens are detected."""
    h = hashlib.sha256()
    for cmd in commands:
        for arg in cmd.argv:
            if os.path.isfile(arg):
                with open(arg, "rb") as fh:
                    h.update(fh.read())
                arg = os.path.basename(arg)
            h.update(arg.encode() + b"\0")
        h.update(b"\n")
    return h.hexdigest()[:16]
