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

The parser checks only what the document alone tells: JSON types and shapes,
element keys in plain decimal, the `right_order` labels, the coverage of the
ground set, the partition block's place in it, and alpha. A structure's own
facts are checked by its constructor; `_built` names them under the document path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Distribution,
    ElementRealization,
    InputError,
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
        raise InputError(path, f"missing field {key!r}")
    return obj[key]


def _number(raw, path: str):
    """A JSON number; strings and booleans are rejected, not converted."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InputError(path, f"expected a number, got {raw!r}")
    return raw


def _integer(raw, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise InputError(path, f"expected an integer, got {raw!r}")
    return raw


def _list(raw, path: str) -> list:
    """A JSON list; strings and objects are rejected, not iterated."""
    if not isinstance(raw, list):
        raise InputError(path, f"expected a list, got {raw!r}")
    return raw


def _object(raw, path: str) -> dict:
    """A JSON object; lists, strings and numbers are rejected, not indexed."""
    if not isinstance(raw, dict):
        raise InputError(path, f"expected an object, got {raw!r}")
    return raw


def _built(make, prefix: str, *args):
    """The structure `make(*args)`. Its constructor names the field it
    rejects within the structure (empty for the whole structure); the
    document path `prefix` goes in front."""
    try:
        return make(*args)
    except InputError as exc:
        field = f"{prefix}.{exc.field}" if exc.field else prefix
        raise InputError(field, exc.message) from None


def _parse_edge_list(raw, path: str) -> tuple[tuple[int, int], ...]:
    edges = []
    for i, pair in enumerate(_list(raw, path)):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InputError(f"{path}[{i}]", "edge must be a [u, v] pair")
        edges.append(tuple(_integer(x, f"{path}[{i}]") for x in pair))
    return tuple(edges)


def _parse_groups(raw, path: str) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(_integer(e, f"{path}[{i}]") for e in _list(grp, f"{path}[{i}]"))
        for i, grp in enumerate(_list(raw, path))
    )


def _parse_structure(raw: dict) -> tuple[FeasibilityStructure, tuple[str, ...] | None]:
    kind = _require(raw, "kind", "structure")
    if kind == "matching" or kind == "graphic":
        vertices = _integer(_require(raw, "vertices", "structure"), "structure.vertices")
        edges = _parse_edge_list(_require(raw, "edges", "structure"), "structure.edges")
        cls = GeneralMatching if kind == "matching" else Graphic
        return _built(cls, "structure", vertices, edges), None
    if kind == "transversal":
        left = _integer(_require(raw, "left", "structure"), "structure.left")
        right_order = _list(_require(raw, "right_order", "structure"), "structure.right_order")
        labels = [str(r) for r in right_order]
        if len(set(labels)) != len(labels):
            raise InputError(
                "structure.right_order", "right-node order is not a permutation"
            )
        pos = {lab: i for i, lab in enumerate(labels)}
        raw_adj = _list(_require(raw, "adjacency", "structure"), "structure.adjacency")
        adjacency = []
        for l, nbrs in enumerate(raw_adj):
            row = []
            for r in _list(nbrs, f"structure.adjacency[{l}]"):
                lab = str(r)
                if lab not in pos:
                    raise InputError(
                        f"structure.adjacency[{l}]", f"unknown right node {r!r}"
                    )
                row.append(pos[lab])
            adjacency.append(tuple(row))
        return _built(Transversal, "structure", left, len(labels), tuple(adjacency)), tuple(labels)
    if kind == "truncated-partition":
        groups = _parse_groups(_require(raw, "groups", "structure"), "structure.groups")
        raw_caps = _require(raw, "group_capacities", "structure")
        if not isinstance(raw_caps, list):
            raise InputError("structure.group_capacities", "one capacity per group")
        caps = tuple(
            _integer(c, f"structure.group_capacities[{i}]") for i, c in enumerate(raw_caps)
        )
        total = _integer(
            _require(raw, "total_capacity", "structure"), "structure.total_capacity"
        )
        return _built(TruncatedPartition, "structure", groups, caps, total), None
    if kind == "simple-partition":
        groups = _parse_groups(_require(raw, "groups", "structure"), "structure.groups")
        return _built(SimplePartition, "structure", groups), None
    raise InputError("structure.kind", f"unknown structure kind {kind!r}")


def _parse_distribution(raw, path: str) -> Distribution:
    kind = _require(_object(raw, path), "kind", path)
    mhr = raw.get("mhr", kind == "exponential")
    if not isinstance(mhr, bool):
        raise InputError(f"{path}.mhr", f"expected true or false, got {mhr!r}")

    def number(key: str):
        return _number(_require(raw, key, path), f"{path}.{key}")

    def numbers(key: str) -> list:
        values = _list(_require(raw, key, path), f"{path}.{key}")
        return [_number(v, f"{path}.{key}[{i}]") for i, v in enumerate(values)]

    if kind == "point-mass":
        make, args = point_mass, (number("value"),)
    elif kind == "discrete":
        make, args = discrete, (numbers("values"), numbers("weights"))
    elif kind == "uniform":
        make, args = uniform, (number("a"), number("b"))
    elif kind == "exponential":
        make, args = exponential, (number("rate"),)
    else:
        raise InputError(path, f"unknown distribution kind {kind!r}")
    try:
        return make(*args, mhr=mhr)
    except InputError as exc:  # names one parameter of the law
        raise InputError(f"{path}.{exc.field}", exc.message) from exc
    except ValueError as exc:
        raise InputError(path, str(exc)) from exc


def parse_instance(data: bytes | str) -> Instance:
    """Parse and fully validate an instance document."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, too long a number, too deep
        raise InputError("$", str(exc)) from None
    if not isinstance(doc, dict):
        raise InputError("$", "top level must be an object")
    name = str(doc.get("name", "unnamed"))
    structure, right_labels = _parse_structure(
        _object(_require(doc, "structure", "$"), "structure")
    )
    if "elements" in doc and _integer(doc["elements"], "elements") != structure.ground_size:
        raise InputError(
            "elements",
            f"declared {doc['elements']} elements, structure has {structure.ground_size}",
        )
    raw_dists = _object(_require(doc, "distributions", "$"), "distributions")
    dists: dict[int, Distribution] = {}
    for key, raw in raw_dists.items():
        try:
            e = int(key)
        except ValueError:
            raise InputError(
                f"distributions.{key}", "element key must be an integer"
            ) from None
        if key != str(e):  # one spelling per id; int() also reads "01", "+1", " 1", "1_0"
            raise InputError(f"distributions.{key}", f"element key must be written {str(e)!r}")
        dists[e] = _parse_distribution(raw, f"distributions.{key}")
    ground = set(range(structure.ground_size))
    if isinstance(structure, SimplePartition) and structure.ground_set != ground:
        raise InputError("structure.groups", "ground set must be exactly 0..n-1")
    if not ground:
        raise InputError("structure", "the ground set has no elements")
    if set(dists) != ground:
        raise InputError(
            "distributions",
            f"must cover exactly the ground set ({sorted(ground)}), got {sorted(dists)}",
        )
    partition = None
    alpha = None
    if "partition" in doc:
        raw_part = _object(doc["partition"], "partition")
        groups = _parse_groups(_require(raw_part, "groups", "partition"), "partition.groups")
        partition = _built(SimplePartition, "partition", groups)
        for e in partition.group_index:
            if e not in ground:
                raise InputError("partition.groups", f"element {e} outside the ground set")
        alpha = float(_number(_require(raw_part, "alpha", "partition"), "partition.alpha"))
        if not math.isfinite(alpha) or alpha < 1:
            raise InputError(
                "partition.alpha", "alpha must be a finite number >= 1"
            )
    return Instance(name, structure, dists, partition, alpha, right_labels)


def load_instance(path) -> Instance:
    """The instance in the file `path` (the `--instance` flag)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        message = f"cannot read {str(path)!r}: {exc.strerror or exc}"
        raise InputError("--instance", message) from None
    return parse_instance(data)


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
