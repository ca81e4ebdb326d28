"""Traced runs: wrap the program's functions where they are looked up, keep
call records in memory, and turn them into per-layer metrics.

Nothing here touches the program's source. A wrapper replaces a name in the
module (or class) through which the caller looks it up, for example
`sspilab.harness.exact_optimum` or `sspilab.exact.ConfigEnsemble.free`, and
is removed again when the traced pass ends. A name that no longer exists is
listed as unwrapped instead of failing the run, so later refactors that
delete a function only lose its metric.

Each call becomes part of a record (name, start, end, parent, command id,
count, total seconds). Calls made once per command get a record each: these
are spans. Calls made per trial, configuration, order or element are merged
into one record per (name, parent record), which keeps memory bounded;
`start` is the first call's start and `end` the last call's end, and `total`
is the sum of the call durations. Self times subtract the totals of the
direct children from a record's total.
"""

from __future__ import annotations

import functools
import importlib
import re
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Record:
    rid: int
    name: str
    group: str
    parent: int  # -1 at the top
    command: str | None
    start: float | None = None
    end: float | None = None
    count: int = 0
    total: float = 0.0
    extra: dict = field(default_factory=dict)

    def as_list(self, origin: float) -> list:
        return [
            self.rid, self.name, self.group, self.parent, self.command,
            None if self.start is None else round(self.start - origin, 9),
            None if self.end is None else round(self.end - origin, 9),
            self.count, round(self.total, 9), self.extra,
        ]


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.records: list[Record] = []
        self.command: str | None = None
        self._merged: dict[tuple[str, int], int] = {}
        self._stack: list[int] = []

    def new_record(self, name: str, group: str, parent: int) -> int:
        rid = len(self.records)
        self.records.append(Record(rid, name, group, parent, self.command))
        return rid

    def wrap(self, fn, name: str, group: str, merge: bool, hook=None):
        records, stack, merged, clock = self.records, self._stack, self._merged, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if merge:
                rid = merged.get((name, parent))
                if rid is None:
                    rid = merged[(name, parent)] = self.new_record(name, group, parent)
            else:
                rid = self.new_record(name, group, parent)
            stack.append(rid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec = records[rid]
                rec.count += 1
                rec.total += t1 - t0
                if rec.start is None:
                    rec.start = t0
                rec.end = t1
            if hook is not None:
                hook(records[rid].extra, args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# Hooks: counts read from arguments and results
# ---------------------------------------------------------------------------


def _add(extra: dict, key: str, value) -> None:
    extra[key] = extra.get(key, 0) + value


def _ratio_report(extra, args, kwargs, report) -> None:
    _add(extra, "trials", getattr(report, "trials", None) or 0)
    _add(extra, "z_violations", getattr(report, "z_violations", 0) or 0)


def _tight_report(extra, args, kwargs, report) -> None:
    _add(extra, "trials", getattr(report, "trials", None) or 0)


def _ensemble_built(extra, args, kwargs, _result) -> None:
    _add(extra, "configs", getattr(args[0], "num_configs", 0))


def _perms_listed(extra, args, kwargs, result) -> None:
    _add(extra, "perms", len(result))


_CHECKS = re.compile(r"(\d+) replayed checks")


def _lemma_report(extra, args, kwargs, report) -> None:
    m = _CHECKS.search(getattr(report, "detail", "") or "")
    _add(extra, "checks", int(m.group(1)) if m else 0)


def _games_played(extra, args, kwargs, _result) -> None:
    trials = kwargs.get("trials", args[2] if len(args) > 2 else 0)
    _add(extra, "games", int(trials))


# ---------------------------------------------------------------------------
# What gets wrapped: (target, group, merge, hook). A target is
# "module:name" or "module:Class.name"; the group's prefix is the layer.
# ---------------------------------------------------------------------------

_ENSEMBLE_TABLES = (
    "free", "candidate_bits", "reward_triple", "sample_triple", "reward_index",
    "matching_vertex_thresholds", "matching_exceeds", "transversal_r_thresholds",
    "transversal_targets", "laminar_accepts", "rank1_exceeds",
    "support_matching", "support_transversal", "support_laminar",
)
_REPLAYS = ("replay_matching", "replay_transversal", "replay_truncated")
_OFFLINE = ("maximal_matching", "ordered_maximal_matching", "matroid_greedy_opt",
            "graphic_partition")

WRAPS: tuple[tuple[str, str, bool, object], ...] = (
    ("sspilab.cli:main", "cli.main", False, None),
    ("sspilab.cli:load_instance", "instances.load", False, None),
    ("sspilab.cli:estimate_ratio", "harness.estimate", False, _ratio_report),
    ("sspilab.cli:tight_example", "harness.tight", False, _tight_report),
    ("sspilab.cli:verify_lemma", "analysis.verify", False, _lemma_report),
    ("sspilab.cli:game_monte_carlo", "analysis.game", False, _games_played),
    ("sspilab.cli:exhaustive_game_value", "analysis.game_value", False, None),
    ("sspilab.cli:estimate_mechanism_ratios", "mechanism.estimate", False, None),
    ("sspilab.mechanism:run_opm", "mechanism.opm", True, None),
    ("sspilab.mechanism:run_policy", "policies.run", True, None),
    ("sspilab.mechanism:exact_optimum", "feasibility.opt", True, None),
    ("sspilab.harness:run_policy", "policies.run", True, None),
    ("sspilab.harness:adversarial_order", "policies.search", True, None),
    ("sspilab.policies:fast_replayer", "policies.replayer", True, None),
    *((f"sspilab.policies:{f}", "policies.order_replay", True, None) for f in _REPLAYS),
    *((f"sspilab.policies:{f}", "feasibility.offline", True, None) for f in _OFFLINE),
    ("sspilab.harness:graphic_partition", "feasibility.offline", True, None),
    ("sspilab.harness:exact_optimum", "feasibility.opt", True, None),
    ("sspilab.harness:optimal_matching", "feasibility.opt", True, None),
    ("sspilab.harness:optimal_transversal", "feasibility.opt", True, None),
    ("sspilab.harness:greedy_prophet", "feasibility.prophet", True, None),
    ("sspilab.analysis:greedy_on_path", "feasibility.path_greedy", True, None),
    ("sspilab.harness:assign_coins", "core.assign_coins", True, None),
    ("sspilab.core:build_sample_path", "core.sample_path", True, None),
    ("sspilab.exact:build_sample_path", "core.sample_path", True, None),
    ("sspilab.instances:draw_realization", "core.draw", True, None),
    *((f"sspilab.harness:{f}", "exact.replay", True, None) for f in _REPLAYS),
    ("sspilab.analysis:replay_truncated", "exact.replay", True, None),
    ("sspilab.harness:cached_permutations", "exact.perms", True, _perms_listed),
    ("sspilab.analysis:cached_permutations", "exact.perms", True, _perms_listed),
    ("sspilab.exact:ConfigEnsemble.__init__", "exact.ensemble", True, _ensemble_built),
    *((f"sspilab.exact:ConfigEnsemble.{m}", "exact.tables", True, None)
      for m in _ENSEMBLE_TABLES),
)


def _resolve(target: str):
    """(owner, attribute) for a target, or None when it no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            return None
    elif not hasattr(owner, attr):
        return None
    return owner, attr


class Installed:
    """The wrappers of one traced pass; `remove` restores every name."""

    def __init__(self, tracer: Tracer, wraps=WRAPS) -> None:
        self.unwrapped: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        for target, group, merge, hook in wraps:
            found = _resolve(target)
            if found is None:
                self.unwrapped.append(target)
                continue
            owner, attr = found
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            name = target.split(":", 1)[1]
            setattr(owner, attr, tracer.wrap(original, name, group, merge, hook))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from the records
# ---------------------------------------------------------------------------


class _Index:
    def __init__(self, records: list[Record]) -> None:
        self.records = records
        self.child_total = [0.0] * len(records)
        for r in records:
            if r.parent >= 0:
                self.child_total[r.parent] += r.total

    def ancestors(self, r: Record):
        p = r.parent
        while p >= 0:
            yield self.records[p]
            p = self.records[p].parent

    def outermost(self, group: str) -> list[Record]:
        """Records of `group` with no ancestor in the same group, so nested
        calls (a table method calling another) are not counted twice."""
        return [
            r for r in self.records
            if r.group == group and all(a.group != group for a in self.ancestors(r))
        ]

    def calls(self, group: str) -> int:
        return sum(r.count for r in self.outermost(group))

    def seconds(self, group: str) -> float:
        return sum(r.total for r in self.outermost(group))

    def self_seconds(self, group: str) -> float:
        return sum(r.total - self.child_total[r.rid] for r in self.records if r.group == group)

    def extra(self, group: str, key: str) -> float:
        return sum(r.extra.get(key, 0) for r in self.records if r.group == group)

    def calls_under(self, group: str, ancestor_group: str) -> int:
        return sum(
            r.count for r in self.records
            if r.group == group and any(a.group == ancestor_group for a in self.ancestors(r))
        )


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(records: list[Record], speed: float = 1.0) -> dict[str, float]:
    """Every per-layer metric of one traced pass (0 where a layer is idle);
    times (the `_s` metrics) are multiplied by `speed`."""
    ix = _Index(records)
    configs = ix.extra("exact.ensemble", "configs")
    replays = ix.calls("exact.replay")
    searches = ix.calls("policies.search")
    orders = ix.calls("policies.order_replay")
    verifies = ix.calls("analysis.verify")
    metrics = {
        "core.draw_calls": ix.calls("core.draw"),
        "core.draw_s": ix.seconds("core.draw"),
        "core.assign_coins_calls": ix.calls("core.assign_coins"),
        "core.assign_coins_s": ix.seconds("core.assign_coins"),
        "core.sample_path_s": ix.seconds("core.sample_path"),
        "instances.load_calls": ix.calls("instances.load"),
        "instances.load_s": ix.seconds("instances.load"),
        "feasibility.opt_calls": ix.calls("feasibility.opt"),
        "feasibility.opt_s": ix.seconds("feasibility.opt"),
        "feasibility.prophet_s": ix.seconds("feasibility.prophet"),
        "feasibility.offline_calls": ix.calls("feasibility.offline"),
        "feasibility.offline_s": ix.seconds("feasibility.offline"),
        "feasibility.path_greedy_s": ix.seconds("feasibility.path_greedy"),
        "policies.run_calls": ix.calls("policies.run"),
        "policies.run_s": ix.seconds("policies.run"),
        "policies.search_calls": searches,
        "policies.search_s": ix.seconds("policies.search"),
        "policies.orders_replayed": orders,
        "policies.orders_per_search": _per(orders, searches),
        "exact.ensemble_calls": ix.calls("exact.ensemble"),
        "exact.ensemble_s": ix.seconds("exact.ensemble"),
        "exact.tables_s": ix.seconds("exact.tables"),
        "exact.configs": configs,
        "exact.replays": replays,
        "exact.replay_s": ix.seconds("exact.replay"),
        "exact.replays_per_config": _per(replays, configs),
        "exact.perms": ix.extra("exact.perms", "perms"),
        "harness.self_s": ix.self_seconds("harness.estimate"),
        "harness.tight_s": ix.seconds("harness.tight"),
        "harness.trials": ix.extra("harness.estimate", "trials")
        + ix.extra("harness.tight", "trials"),
        "harness.z_violations": ix.extra("harness.estimate", "z_violations"),
        "analysis.verify_calls": verifies,
        "analysis.verify_self_s": ix.self_seconds("analysis.verify"),
        "analysis.ensembles_per_verify": _per(
            ix.calls_under("exact.ensemble", "analysis.verify"), verifies
        ),
        "analysis.sufficiency_checks": ix.extra("analysis.verify", "checks"),
        "analysis.games": ix.extra("analysis.game", "games"),
        "analysis.game_s": ix.seconds("analysis.game"),
        "mechanism.opm_calls": ix.calls("mechanism.opm"),
        "mechanism.opm_s": ix.seconds("mechanism.opm"),
        "mechanism.self_s": ix.self_seconds("mechanism.estimate"),
        "cli.calls": ix.calls("cli.main"),
        "cli.self_s": ix.self_seconds("cli.main"),
    }
    return {k: v * speed if k.endswith("_s") else v for k, v in metrics.items()}


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
