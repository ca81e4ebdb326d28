import json

import pytest

from sspilab.feasibility import GeneralMatching, Transversal
from sspilab.generators import random_instance, star_graphic_instance
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
