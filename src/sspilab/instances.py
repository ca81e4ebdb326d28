"""Instance files: a hand-editable JSON document naming the feasibility
structure, one reward distribution per element, and (optionally) a static
partition for the custom reduction.

Example:

    {
      "name": "triangle",
      "structure": {"kind": "matching", "vertices": 3,
                    "edges": [[0, 1], [1, 2], [0, 2]]},
      "distributions": {
        "0": {"kind": "uniform", "a": 0.0, "b": 1.0},
        "1": {"kind": "exponential", "rate": 1.0, "mhr": true},
        "2": {"kind": "point-mass", "value": 2.5}
      }
    }

Transversal structures carry an explicit "right_order" list; its positions
define the fixed priority order and adjacency entries refer to its labels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Distribution,
    ElementRealization,
    discrete,
    draw_realization,
    exponential,
    point_mass,
    uniform,
)
from .feasibility import (
    FeasibilityStructure,
    GeneralMatching,
    Graphic,
    SimplePartition,
    Transversal,
    TruncatedPartition,
)


class InstanceFormatError(ValueError):
    """Schema violation in an instance document, with a field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class Instance:
    name: str
    structure: FeasibilityStructure
    distributions: dict[int, Distribution]
    partition: SimplePartition | None = None
    partition_alpha: float | None = None
    right_labels: tuple[str, ...] | None = None

    @property
    def ground_size(self) -> int:
        return self.structure.ground_size

    def draw_realizations(self, rng: np.random.Generator) -> list[ElementRealization]:
        return [
            draw_realization(self.distributions[e], e, rng)
            for e in sorted(self.distributions)
        ]

    def regime(self) -> str | None:
        """"mhr" when every distribution asserts it, "iid-regular" is left to
        explicit declaration by the caller, otherwise None."""
        if all(d.mhr for d in self.distributions.values()):
            return "mhr"
        return None


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise InstanceFormatError(path, f"missing field {key!r}")
    return obj[key]


def _number(raw, path: str):
    """A JSON number; strings and booleans are rejected, not converted."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InstanceFormatError(path, f"expected a number, got {raw!r}")
    return raw


def _integer(raw, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise InstanceFormatError(path, f"expected an integer, got {raw!r}")
    return raw


def _list(raw, path: str) -> list:
    """A JSON list; strings and objects are rejected, not iterated."""
    if not isinstance(raw, list):
        raise InstanceFormatError(path, f"expected a list, got {raw!r}")
    return raw


def _object(raw, path: str) -> dict:
    """A JSON object; lists, strings and numbers are rejected, not indexed."""
    if not isinstance(raw, dict):
        raise InstanceFormatError(path, f"expected an object, got {raw!r}")
    return raw


def _parse_edge_list(raw, vertices: int, path: str) -> tuple[tuple[int, int], ...]:
    edges = []
    for i, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InstanceFormatError(f"{path}[{i}]", "edge must be a [u, v] pair")
        u, v = (_integer(x, f"{path}[{i}]") for x in pair)
        if not (0 <= u < vertices and 0 <= v < vertices):
            raise InstanceFormatError(f"{path}[{i}]", f"dangling vertex in ({u},{v})")
        if u == v:
            raise InstanceFormatError(f"{path}[{i}]", "self-loops are not allowed")
        edges.append((u, v))
    return tuple(edges)


def _parse_groups(raw, path: str) -> tuple[tuple[int, ...], ...]:
    groups = []
    seen: set[int] = set()
    for i, grp in enumerate(raw):
        for e in _list(grp, f"{path}[{i}]"):
            _integer(e, f"{path}[{i}]")
            if e in seen:
                raise InstanceFormatError(f"{path}[{i}]", f"element {e} in two groups")
            seen.add(e)
        groups.append(tuple(grp))
    return tuple(groups)


def _parse_structure(raw: dict) -> tuple[FeasibilityStructure, tuple[str, ...] | None]:
    kind = _require(raw, "kind", "structure")
    if kind == "matching" or kind == "graphic":
        vertices = _integer(_require(raw, "vertices", "structure"), "structure.vertices")
        edges = _parse_edge_list(_require(raw, "edges", "structure"), vertices, "structure.edges")
        cls = GeneralMatching if kind == "matching" else Graphic
        return cls(vertices, edges), None
    if kind == "transversal":
        left = _integer(_require(raw, "left", "structure"), "structure.left")
        right_order = _list(_require(raw, "right_order", "structure"), "structure.right_order")
        labels = [str(r) for r in right_order]
        if len(set(labels)) != len(labels):
            raise InstanceFormatError(
                "structure.right_order", "right-node order is not a permutation"
            )
        pos = {lab: i for i, lab in enumerate(labels)}
        raw_adj = _list(_require(raw, "adjacency", "structure"), "structure.adjacency")
        if len(raw_adj) != left:
            raise InstanceFormatError(
                "structure.adjacency", f"need one neighbor list per left node ({left})"
            )
        adjacency = []
        for l, nbrs in enumerate(raw_adj):
            row = []
            for r in _list(nbrs, f"structure.adjacency[{l}]"):
                lab = str(r)
                if lab not in pos:
                    raise InstanceFormatError(
                        f"structure.adjacency[{l}]", f"unknown right node {r!r}"
                    )
                row.append(pos[lab])
            if len(set(row)) != len(row):
                raise InstanceFormatError(
                    f"structure.adjacency[{l}]", "right node listed twice"
                )
            adjacency.append(tuple(row))
        return Transversal(left, len(labels), tuple(adjacency)), tuple(labels)
    if kind == "truncated-partition":
        groups = _parse_groups(_require(raw, "groups", "structure"), "structure.groups")
        raw_caps = _require(raw, "group_capacities", "structure")
        if not isinstance(raw_caps, list) or len(raw_caps) != len(groups):
            raise InstanceFormatError("structure.group_capacities", "one capacity per group")
        caps = tuple(
            _integer(c, f"structure.group_capacities[{i}]") for i, c in enumerate(raw_caps)
        )
        total = _integer(
            _require(raw, "total_capacity", "structure"), "structure.total_capacity"
        )
        if min(caps, default=1) < 1 or total < 1:
            raise InstanceFormatError("structure", "capacity must be >= 1")
        try:
            return TruncatedPartition(groups, caps, total), None
        except ValueError as exc:
            raise InstanceFormatError("structure.groups", str(exc)) from exc
    if kind == "simple-partition":
        groups = _parse_groups(_require(raw, "groups", "structure"), "structure.groups")
        return SimplePartition(groups), None
    raise InstanceFormatError("structure.kind", f"unknown structure kind {kind!r}")


def _parse_distribution(raw, path: str) -> Distribution:
    kind = _require(_object(raw, path), "kind", path)
    mhr = raw.get("mhr", kind == "exponential")
    if not isinstance(mhr, bool):
        raise InstanceFormatError(f"{path}.mhr", f"expected true or false, got {mhr!r}")

    def number(key: str):
        return _number(_require(raw, key, path), f"{path}.{key}")

    def numbers(key: str) -> list:
        values = _list(_require(raw, key, path), f"{path}.{key}")
        return [_number(v, f"{path}.{key}[{i}]") for i, v in enumerate(values)]

    try:
        if kind == "point-mass":
            return point_mass(number("value"), mhr=mhr)
        if kind == "discrete":
            return discrete(numbers("values"), numbers("weights"), mhr=mhr)
        if kind == "uniform":
            return uniform(number("a"), number("b"), mhr=mhr)
        if kind == "exponential":
            return exponential(number("rate"), mhr=mhr)
    except InstanceFormatError:
        raise
    except ValueError as exc:
        raise InstanceFormatError(path, str(exc)) from exc
    raise InstanceFormatError(path, f"unknown distribution kind {kind!r}")


def parse_instance(data: bytes | str) -> Instance:
    """Parse and fully validate an instance document."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("$", "top level must be an object")
    name = str(doc.get("name", "unnamed"))
    structure, right_labels = _parse_structure(
        _object(_require(doc, "structure", "$"), "structure")
    )
    if "elements" in doc and _integer(doc["elements"], "elements") != structure.ground_size:
        raise InstanceFormatError(
            "elements",
            f"declared {doc['elements']} elements, structure has {structure.ground_size}",
        )
    raw_dists = _object(_require(doc, "distributions", "$"), "distributions")
    dists: dict[int, Distribution] = {}
    for key, raw in raw_dists.items():
        try:
            e = int(key)
        except ValueError:
            raise InstanceFormatError(
                f"distributions.{key}", "element key must be an integer"
            ) from None
        dists[e] = _parse_distribution(raw, f"distributions.{key}")
    if isinstance(structure, SimplePartition):
        ground = set(structure.ground_set)
        if ground != set(range(len(ground))):
            raise InstanceFormatError(
                "structure.groups", "ground set must be exactly 0..n-1"
            )
    else:
        ground = set(range(structure.ground_size))
    if not ground:
        raise InstanceFormatError("structure", "the ground set has no elements")
    if set(dists) != ground:
        raise InstanceFormatError(
            "distributions",
            f"must cover exactly the ground set ({sorted(ground)}), got {sorted(dists)}",
        )
    partition = None
    alpha = None
    if "partition" in doc:
        raw_part = _object(doc["partition"], "partition")
        groups = _parse_groups(_require(raw_part, "groups", "partition"), "partition.groups")
        for grp in groups:
            for e in grp:
                if e not in ground:
                    raise InstanceFormatError(
                        "partition.groups", f"element {e} outside the ground set"
                    )
        alpha = float(_number(_require(raw_part, "alpha", "partition"), "partition.alpha"))
        if not math.isfinite(alpha) or alpha < 1:
            raise InstanceFormatError(
                "partition.alpha", "alpha must be a finite number >= 1"
            )
        partition = SimplePartition(groups)
    return Instance(name, structure, dists, partition, alpha, right_labels)


def load_instance(path) -> Instance:
    with open(path, "rb") as fh:
        return parse_instance(fh.read())


def instance_to_document(inst: Instance) -> dict:
    """Inverse of parse_instance, for writing fixtures."""
    s = inst.structure
    if isinstance(s, (GeneralMatching, Graphic)):
        structure = {
            "kind": "matching" if isinstance(s, GeneralMatching) else "graphic",
            "vertices": s.vertex_count,
            "edges": [list(e) for e in s.edges],
        }
    elif isinstance(s, Transversal):
        labels = inst.right_labels or tuple(str(r) for r in range(s.right_count))
        structure = {
            "kind": "transversal",
            "left": s.left_count,
            "right_order": list(labels),
            "adjacency": [[labels[r] for r in nbrs] for nbrs in s.adjacency],
        }
    elif isinstance(s, TruncatedPartition):
        structure = {
            "kind": "truncated-partition",
            "groups": [list(g) for g in s.groups],
            "group_capacities": list(s.group_capacities),
            "total_capacity": s.total_capacity,
        }
    else:
        structure = {"kind": "simple-partition", "groups": [list(g) for g in s.groups]}
    dists = {}
    for e, d in sorted(inst.distributions.items()):
        if d.kind == "point-mass":
            raw: dict = {"kind": "point-mass", "value": d.params[0]}
        elif d.kind == "discrete":
            raw = {"kind": "discrete", "values": list(d.atoms), "weights": list(d.weights)}
        elif d.kind == "uniform":
            raw = {"kind": "uniform", "a": d.params[0], "b": d.params[1]}
        else:
            raw = {"kind": "exponential", "rate": d.params[0]}
        raw["mhr"] = d.mhr
        dists[str(e)] = raw
    doc = {
        "name": inst.name,
        "structure": structure,
        "elements": inst.ground_size,
        "distributions": dists,
    }
    if inst.partition is not None:
        doc["partition"] = {
            "alpha": inst.partition_alpha,
            "groups": [list(g) for g in inst.partition.groups],
        }
    return doc
