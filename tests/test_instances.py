import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sspilab.cli import main
from sspilab.feasibility import (
    GeneralMatching,
    Graphic,
    SimplePartition,
    Transversal,
    TruncatedPartition,
)
from sspilab.generators import STRUCTURE_KINDS, random_instance, star_graphic_instance
from sspilab.core import InputError
from sspilab.instances import (
    Instance,
    instance_to_document,
    parse_instance,
)


def doc_bytes(doc):
    return json.dumps(doc).encode()


TRIANGLE_DOC = {
    "name": "triangle",
    "structure": {
        "kind": "matching",
        "vertices": 3,
        "edges": [[0, 1], [1, 2], [0, 2]],
    },
    "distributions": {
        str(e): {"kind": "uniform", "a": 0.0, "b": 1.0} for e in range(3)
    },
}


class TestParse:
    def test_triangle(self):
        inst = parse_instance(doc_bytes(TRIANGLE_DOC))
        assert isinstance(inst.structure, GeneralMatching)
        assert inst.ground_size == 3
        assert inst.name == "triangle"

    def test_zero_capacity_rejected(self):
        doc = {
            "name": "bad",
            "structure": {
                "kind": "truncated-partition",
                "groups": [[0, 1]],
                "group_capacities": [0],
                "total_capacity": 1,
            },
            "distributions": {
                "0": {"kind": "point-mass", "value": 1},
                "1": {"kind": "point-mass", "value": 1},
            },
        }
        with pytest.raises(InputError, match="capacity must be >= 1"):
            parse_instance(doc_bytes(doc))

    def test_right_order_not_permutation(self):
        doc = {
            "name": "bad",
            "structure": {
                "kind": "transversal",
                "left": 1,
                "right_order": ["r1", "r1"],
                "adjacency": [["r1"]],
            },
            "distributions": {"0": {"kind": "point-mass", "value": 1}},
        }
        with pytest.raises(InputError, match="not a permutation"):
            parse_instance(doc_bytes(doc))

    def test_overlapping_groups(self):
        doc = {
            "name": "bad",
            "structure": {"kind": "simple-partition", "groups": [[0, 1], [1]]},
            "distributions": {
                "0": {"kind": "point-mass", "value": 1},
                "1": {"kind": "point-mass", "value": 1},
            },
        }
        with pytest.raises(InputError, match="two groups"):
            parse_instance(doc_bytes(doc))

    def test_dangling_vertex(self):
        doc = {
            "name": "bad",
            "structure": {"kind": "matching", "vertices": 2, "edges": [[0, 5]]},
            "distributions": {"0": {"kind": "point-mass", "value": 1}},
        }
        with pytest.raises(InputError, match="dangling"):
            parse_instance(doc_bytes(doc))

    def test_distribution_coverage(self):
        doc = dict(TRIANGLE_DOC)
        doc["distributions"] = {"0": {"kind": "point-mass", "value": 1}}
        with pytest.raises(InputError, match="cover exactly"):
            parse_instance(doc_bytes(doc))

    def test_syntax_error_carries_line(self):
        with pytest.raises(InputError, match="line"):
            parse_instance(b'{"name": "x",\n  broken')

    def test_transversal_labels_and_order(self):
        doc = {
            "name": "t",
            "structure": {
                "kind": "transversal",
                "left": 2,
                "right_order": ["b", "a"],
                "adjacency": [["a", "b"], ["b"]],
            },
            "distributions": {
                "0": {"kind": "exponential", "rate": 1.0},
                "1": {"kind": "exponential", "rate": 1.0},
            },
        }
        inst = parse_instance(doc_bytes(doc))
        t = inst.structure
        assert isinstance(t, Transversal)
        # "b" is first in the fixed order, so it maps to index 0.
        assert inst.right_labels == ("b", "a")
        assert t.adjacency[0] == (1, 0) or set(t.adjacency[0]) == {0, 1}
        assert t.adjacency[1] == (0,)

    def test_partition_block(self):
        doc = {
            "name": "p",
            "structure": {"kind": "simple-partition", "groups": [[0], [1]]},
            "distributions": {
                "0": {"kind": "point-mass", "value": 1},
                "1": {"kind": "point-mass", "value": 2},
            },
            "partition": {"alpha": 1.5, "groups": [[0], [1]]},
        }
        inst = parse_instance(doc_bytes(doc))
        assert inst.partition_alpha == 1.5
        assert inst.partition.groups == ((0,), (1,))
        assert parse_instance(doc_bytes(instance_to_document(inst))) == inst

    def test_round_trip(self, rng):
        for kind in (
            "matching", "transversal", "truncated-partition",
            "simple-partition", "graphic",
        ):
            inst = random_instance(kind, 4, rng)
            doc = instance_to_document(inst)
            again = parse_instance(json.dumps(doc).encode())
            assert again.structure == inst.structure
            assert again.distributions == inst.distributions


def test_star_instance():
    inst = star_graphic_instance(5)
    assert inst.structure.vertex_count == 6
    assert all(d.kind == "uniform" for d in inst.distributions.values())
    with pytest.raises(ValueError):
        star_graphic_instance(1)


def test_regime_detection():
    inst = star_graphic_instance(3)
    assert inst.regime() is None  # uniforms are not auto-flagged
    from sspilab.core import exponential

    mhr_inst = Instance(
        "e", inst.structure, {e: exponential(1.0) for e in range(3)}
    )
    assert mhr_inst.regime() == "mhr"


def test_optional_elements_count_checked():
    doc = dict(TRIANGLE_DOC)
    doc["elements"] = 3
    parse_instance(doc_bytes(doc))
    doc["elements"] = 5
    with pytest.raises(InputError, match="declared 5"):
        parse_instance(doc_bytes(doc))


def test_sparse_simple_partition_ground_rejected():
    doc = {
        "name": "sparse",
        "structure": {"kind": "simple-partition", "groups": [[0], [2]]},
        "distributions": {
            "0": {"kind": "point-mass", "value": 1},
            "2": {"kind": "point-mass", "value": 1},
        },
    }
    with pytest.raises(InputError, match="0..n-1"):
        parse_instance(doc_bytes(doc))


def _document(structure, n=2, partition=None):
    doc = {"name": "rejected", "structure": structure,
           "distributions": {str(e): {"kind": "point-mass", "value": 1} for e in range(n)}}
    if partition is not None:
        doc["partition"] = {"alpha": 2.0, "groups": partition}
    return doc


def _laminar(groups, caps, total):
    return _document({"kind": "truncated-partition", "groups": groups,
                      "group_capacities": caps, "total_capacity": total})


def _transversal(left, right_order, adjacency):
    return _document({"kind": "transversal", "left": left, "right_order": right_order,
                      "adjacency": adjacency})


# Per structure fact: the constructor call that breaks it, the document that
# breaks it, and the document path of the structure; README's dangling-vertex
# example leads with its stderr verbatim.
STRUCTURE_FACTS = {
    "dangling-vertex": (
        lambda: GeneralMatching(4, ((0, 7),)),
        _document({"kind": "matching", "vertices": 4, "edges": [[0, 7]]}, 1), "structure",
        "error: structure.edges[0]: dangling vertex in (0,7)\n"),
    "self-loop": (
        lambda: Graphic(3, ((0, 1), (1, 1))),
        _document({"kind": "graphic", "vertices": 3, "edges": [[0, 1], [1, 1]]}), "structure",
        None),
    "structure-groups-overlap": (
        lambda: SimplePartition(((0, 1), (1,))),
        _document({"kind": "simple-partition", "groups": [[0, 1], [1]]}), "structure", None),
    "laminar-groups-overlap": (
        lambda: TruncatedPartition(((0,), (0, 1)), (1, 1), 1),
        _laminar([[0], [0, 1]], [1, 1], 1), "structure", None),
    "partition-groups-overlap": (
        lambda: SimplePartition(((0,), (1, 0))),
        _document({"kind": "simple-partition", "groups": [[0, 1]]}, 2, [[0], [1, 0]]),
        "partition", None),
    "adjacency-rows": (
        lambda: Transversal(2, 1, ((0,),)),
        _transversal(2, ["a"], [["a"]]), "structure", None),
    "right-node-twice": (
        lambda: Transversal(2, 2, ((0,), (1, 1))),
        _transversal(2, ["a", "b"], [["a"], ["b", "b"]]), "structure", None),
    "capacity-count": (
        lambda: TruncatedPartition(((0, 1),), (1, 1), 1),
        _laminar([[0, 1]], [1, 1], 1), "structure", None),
    "group-capacity": (
        lambda: TruncatedPartition(((0,), (1,)), (1, 0), 1),
        _laminar([[0], [1]], [1, 0], 1), "structure", None),
    "total-capacity": (
        lambda: TruncatedPartition(((0, 1),), (1,), 0),
        _laminar([[0, 1]], [1], 0), "structure", None),
    "groups-not-0..n-1": (
        lambda: TruncatedPartition(((0, 2),), (1,), 1),
        _laminar([[0, 2]], [1], 1), "structure", None),
}


@pytest.mark.parametrize("make, document, prefix, stderr", STRUCTURE_FACTS.values(),
                         ids=STRUCTURE_FACTS.keys())
def test_the_constructor_is_the_parsers_structure_check(make, document, prefix, stderr,
                                                       tmp_path, capsys):
    # One check per fact: the parser names the constructor's field under the
    # structure's document path, with the constructor's message.
    with pytest.raises(InputError) as built:
        make()
    with pytest.raises(InputError) as parsed:
        parse_instance(json.dumps(document))
    field = f"{prefix}.{built.value.field}" if built.value.field else prefix
    assert (parsed.value.field, parsed.value.message) == (field, built.value.message)
    path = tmp_path / "rejected.json"
    path.write_text(json.dumps(document))
    assert main(["simulate", "--policy", "rank1", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == (stderr or f"error: {parsed.value}\n")


@given(st.sampled_from(STRUCTURE_KINDS), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.booleans(), st.booleans())
def test_documents_parse_back_to_their_instance(kind, n, seed, partitioned, relabel):
    rng = np.random.default_rng(seed)
    inst = random_instance(kind, n, rng)
    s = inst.structure
    labels = None
    if relabel and isinstance(s, Transversal):
        labels = tuple(f"r{k}" for k in rng.permutation(s.right_count).tolist())
    partition = alpha = None
    if partitioned:
        where = rng.integers(0, n, size=n).tolist()
        partition = SimplePartition(tuple(
            tuple(e for e in range(n) if where[e] == g) for g in range(n)))
        alpha = 1.0 + float(rng.random()) * 3.0
    inst = dataclasses.replace(inst, partition=partition, partition_alpha=alpha,
                               right_labels=labels)
    again = parse_instance(json.dumps(instance_to_document(inst)))
    if isinstance(s, Transversal) and labels is None:  # the document names them 0..m-1
        inst = dataclasses.replace(inst, right_labels=tuple(map(str, range(s.right_count))))
    assert again == inst
