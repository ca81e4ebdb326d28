"""A declared `vertices` count only bounds the endpoint ids. Two edges on
10**5 declared vertices report what their relabelling onto the 3 vertices
they touch reports, on the scalar paths too (the greedy rules, the
verifiers and the traced policies), and take about the same time and
memory."""

import json
import time
import tracemalloc

import numpy as np
import pytest

from sspilab.cli import main
from sspilab.feasibility import GeneralMatching, Graphic
from sspilab.policies import run_policy

from conftest import tv

# Touched vertices 5 < 77 < 99999 are numbered 0, 1, 2.
DECLARED = (10**5, ((5, 99_999), (5, 77)))
RELABELLED = (3, ((0, 2), (0, 1)))


def _document(kind: str, graph) -> dict:
    vertices, edges = graph
    return {"name": kind, "structure": {"kind": kind, "vertices": vertices,
                                        "edges": [list(e) for e in edges]},
            "distributions": {"0": {"kind": "uniform", "a": 0.0, "b": 1.0},
                              "1": {"kind": "uniform", "a": 0.5, "b": 2.0}}}


def _verify(lemma: str, path, capsys) -> tuple[str, float]:
    """The command's stdout and its best time of five runs."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        assert main(["verify", "--lemma", lemma, "--instance", str(path)]) == 0
        best = min(best, time.perf_counter() - start)
        out = capsys.readouterr().out
    return out, best


@pytest.mark.parametrize("lemma, kind", [
    ("greedy-objective", "graphic"), ("match-unique", "matching"),
])
def test_verify_ignores_isolated_vertices(lemma, kind, tmp_path, capsys):
    # While the greedy rule and the verifier looped over every declared
    # vertex, the declared runs took 27-108 ms against under 1 ms.
    got = {}
    for name, graph in (("declared", DECLARED), ("relabelled", RELABELLED)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_document(kind, graph)))
        got[name] = _verify(lemma, path, capsys)
    assert got["declared"][0] == got["relabelled"][0]
    assert got["declared"][1] <= 3 * got["relabelled"][1]


@pytest.mark.parametrize("policy, structure", [
    ("matching", GeneralMatching), ("reduction-graphic", Graphic),
])
def test_traced_policies_ignore_isolated_vertices(policy, structure):
    # Sized by the declared vertices, the traced calls peaked at 13.0 MiB
    # (matching's vertex thresholds) and 17.2 MiB (a permutation of every
    # vertex).
    samples = {0: tv(0.4, 0.5, 0), 1: tv(0.9, 0.5, 1)}
    rewards = {0: tv(0.7, 0.6, 0), 1: tv(1.2, 0.6, 1)}
    accepted = {}
    for name, (vertices, edges) in (("relabelled", RELABELLED), ("declared", DECLARED)):
        fs = structure(vertices, edges)
        tracemalloc.start()
        try:
            trace = run_policy(policy, fs, samples, rewards, (0, 1),
                               rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (name, peak / 2**20)
        accepted[name] = trace.chosen.chosen
    assert accepted["declared"] == accepted["relabelled"]
