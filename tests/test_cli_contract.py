"""The CLI's exit-code contract as a property over generated input.

Two kinds of input, each run in both modes: argument lists over the five
subcommands, with flag values that are 0, negative, huge or not numbers,
an `--out` that is stdout, a file, a file in a missing directory or a
directory, and an `SSPILAB_WORKERS` that is unset, small, huge or not an
integer; and instance documents mutated from the fixtures (dropped or retyped
fields, non-finite numbers, out-of-range ids, empty groups, respelled keys,
repeated list entries). Whatever the input, the exit code is 0, 1, 2 or 3,
never 4 (a fault of the program); stderr holds no traceback; an exit-2
message starts with the field or the flag at fault; and exit 1 (a failed
verification) comes only from `verify` and `game`.
"""

import contextlib
import copy
import io
import json
import math
import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sspilab.analysis import LEMMA_IDS
from sspilab.cli import main
from sspilab.harness import MC_ADVERSARIES, WORKERS_ENV
from sspilab.instances import load_instance
from sspilab.policies import POLICY_NAMES, POLICY_STRUCTURES

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))

# An InputError names an instance field (a path such as structure.edges[0]
# or distributions.3.rate, `$` for the whole document, or a JSON syntax
# position), a flag or an environment variable, before a colon.
FIELD = (
    r"(--[a-z]+(-[a-z]+)*|SSPILAB_WORKERS|\$|line \d+, column \d+"
    r"|(name|elements|structure|distributions|partition)([.\[][^:\s]*)?)"
)
INPUT_ERROR = re.compile(rf"error: {FIELD}: \S")
# argparse rejections name their flag too.
USAGE_ERROR = re.compile(r"error: (argument --[a-z-]+: |the following arguments are required: --)")

# About 6-7 s of tier-1 for both tests on a 2-core machine. Most mutated
# documents are rejected within a few milliseconds; the argument lists run
# more commands to their end.
HEALTH = [HealthCheck.function_scoped_fixture, HealthCheck.too_slow]
ARGV_SETTINGS = settings(max_examples=500, suppress_health_check=HEALTH)
DOCUMENT_SETTINGS = settings(max_examples=1200, suppress_health_check=HEALTH)


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, err.getvalue()


def check_contract(argv: list[str], code: int, err: str) -> None:
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    command = next(a for a in argv if a in ("simulate", "verify", "game", "tight-example",
                                            "mechanism"))
    if code == 1:
        assert command in ("verify", "game"), (argv, err)
    if code == 2:
        last = err.splitlines()[-1]
        if err.startswith("usage:"):
            assert USAGE_ERROR.search(last), (argv, err)
        else:
            assert err.count("\n") == 1 and INPUT_ERROR.match(err), (argv, err)


# ---------------------------------------------------------------------------
# Argument lists
# ---------------------------------------------------------------------------

INTEGERS = st.one_of(
    st.sampled_from([
        "0", "-1", "-7", "1", "2", "3", "4", "5", str(2**31), str(2**62), str(2**62 + 1),
        str(2**63), str(2**64 + 3), str(10**30), "abc", "1.5", "", "1e3", "0x10",
    ]),
    st.integers(-3, 9).map(str),
)
# `--trials` is always given and at most 5, a single chunk, so no worker
# pool starts whatever SSPILAB_WORKERS asks for.
SMALL_TRIALS = st.sampled_from(["0", "-1", "-50", "1", "2", "5", "x", "2.5"])
# `{tmp}` stands for the test's temporary directory.
OUT = st.sampled_from(["-", "{tmp}/report.out", "{tmp}/missing/report.out", "{tmp}"])
WORKERS = st.sampled_from([None, "1", "2", "0", "-3", "abc", "1e3", "1000000"])


def maybe(flag: str, values) -> st.SearchStrategy:
    """[flag, value], or one time in four nothing, so that a required flag
    may go missing."""
    present = values.map(lambda v: [flag, v])
    return st.one_of(st.just([]), present, present, present)


def choices(names) -> st.SearchStrategy:
    return st.sampled_from([*names, "bogus"])


INSTANCE = st.sampled_from([str(p) for p in FIXTURES])
SUBCOMMANDS = {
    "simulate": [maybe("--instance", INSTANCE), maybe("--policy", choices(POLICY_NAMES)),
                 maybe("--adversary", choices(MC_ADVERSARIES)),
                 maybe("--mode", choices(("exact", "mc")))],
    "verify": [maybe("--lemma", choices(LEMMA_IDS)), maybe("--instance", INSTANCE)],
    "game": [maybe("--rr", INTEGERS), maybe("--rb", INTEGERS),
             maybe("--mode", choices(("optimal", "exhaustive", "mc")))],
    "tight-example": [maybe("--k", INTEGERS)],
    "mechanism": [maybe("--instance", INSTANCE), maybe("--policy", choices(POLICY_NAMES)),
                  maybe("--regime", choices(("mhr", "iid-regular")))],
}


@st.composite
def argument_lists(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [*draw(maybe("--seed", INTEGERS)), "--trials", draw(SMALL_TRIALS),
            *draw(maybe("--format", st.sampled_from(["json", "csv"]))),
            *draw(maybe("--out", OUT)), command]
    for flag in SUBCOMMANDS[command]:
        argv += draw(flag)
    return argv


@ARGV_SETTINGS
@given(argv=argument_lists(), workers=WORKERS)
def test_argument_lists_keep_the_exit_contract(argv, workers, tmp_path, monkeypatch):
    argv = [a.format(tmp=tmp_path) for a in argv]
    if workers is None:
        monkeypatch.delenv(WORKERS_ENV, raising=False)
    else:
        monkeypatch.setenv(WORKERS_ENV, workers)
    code, err = run(argv)
    check_contract(argv, code, err)


# ---------------------------------------------------------------------------
# Mutated instance documents
# ---------------------------------------------------------------------------


def _documents() -> list[tuple[dict, list[str]]]:
    """Each fixture, and it with a partition block, with the policies that
    apply to it."""
    docs = []
    for path in FIXTURES:
        doc = json.loads(path.read_text())
        n = len(doc["distributions"])
        policies = [p for p in POLICY_NAMES if POLICY_STRUCTURES[p](load_instance(path).structure)]
        docs.append((doc, [p for p in policies if p != "reduction-custom"]))
        docs.append(({**doc, "partition": {"alpha": 2.0, "groups": [[e] for e in range(n)]}},
                     policies))
    return docs


DOCUMENTS = _documents()
RETYPED = [None, True, "x", "2", [], {}, 1.5, [[0, 1]], {"kind": "uniform"}]
# Non-finite numbers, and finite ones at the edges of the float range.
EXTREME = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7e308]
OUT_OF_RANGE = [-1, -3, 5, 7, 64]
LEMMAS = [lemma for lemma in LEMMA_IDS if lemma != "game-value"]
# Spellings of a key that int() reads as the same element id, or as another.
RESPELL = [lambda k: "0" + k, lambda k: "+" + k, lambda k: k + "_0",
           lambda k: k.translate(str.maketrans("0123456789", "０１２３４５６７８９"))]


def _nodes(node, parent=None, key=None):
    """(parent, key, node) for every node below the root."""
    if parent is not None:
        yield parent, key, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for k, child in list(items):
        yield from _nodes(child, node, k)


@st.composite
def mutated_runs(draw) -> tuple[dict, list[str]]:
    """A mutated document and the arguments after its --instance: a policy
    that applies to the fixture (both modes of simulate, or mechanism) or
    a lemma."""
    base, policies = draw(st.sampled_from(DOCUMENTS))
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        if not nodes:
            break
        parent, key, node = draw(st.sampled_from(nodes))
        op = draw(st.sampled_from(["drop", "retype", "extreme", "out-of-range", "empty",
                                   "rekey", "repeat"]))
        if op == "rekey" and isinstance(parent, dict):
            respelled = draw(st.sampled_from(RESPELL))(key)
            if draw(st.booleans()):  # a second entry under the respelled key
                parent[respelled] = copy.deepcopy(node)
            else:
                parent[respelled] = parent.pop(key)
        elif op == "repeat" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(node))
        elif op in ("rekey", "repeat"):
            continue  # no key to respell, or no list to repeat in
        elif op == "drop":
            del parent[key]
        elif op == "retype":
            parent[key] = copy.deepcopy(draw(st.sampled_from(RETYPED)))
        elif op == "extreme":
            parent[key] = draw(st.sampled_from(EXTREME))
        elif op == "out-of-range":
            parent[key] = draw(st.sampled_from(OUT_OF_RANGE))
        elif isinstance(node, list) and node and isinstance(node[0], list):
            node.insert(draw(st.integers(0, len(node))), [])  # an empty group
        else:
            parent[key] = []
    command = draw(st.sampled_from(["simulate", "simulate", "mechanism", "verify"]))
    if command == "verify":
        return doc, ["verify", "--lemma", draw(st.sampled_from(LEMMAS))]
    args = [command, "--policy", draw(st.sampled_from(policies))]
    if command == "simulate":
        return doc, args + ["--mode", draw(st.sampled_from(["exact", "mc"]))]
    return doc, args + draw(maybe("--regime", st.sampled_from(["mhr", "iid-regular"])))


@DOCUMENT_SETTINGS
@given(run_args=mutated_runs())
def test_mutated_instances_keep_the_exit_contract(run_args, tmp_path):
    doc, args = run_args
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity as their JSON literals
    argv = ["--trials", "3", *args, "--instance", str(path)]
    code, err = run(argv)
    check_contract(argv, code, err)
