"""Output checks: every command's result against the README contract, the
program's own invariants, and the golden outputs recorded for its inputs.

- Exit codes must equal the command's expected code (0, or 2/3 for probes).
- `simulate`: z_violations is 0, and an exhaustive-min E_ALG is at most the
  E_ALG of its paired increasing-order run (same instance, seed and trials).
- Exact `simulate`: E_ALG, E_OPT and E_OPT_PRIME are bit-identical fractions.
- `verify` passes with the golden lhs/rhs; exact `game` gives 1/4.
- Monte Carlo `simulate` and `tight-example`: E_ALG is at most E_OPT, except
  for `reduction-custom`, whose generated partitions may admit infeasible
  sets. The optimum columns depend only on the per-trial draws. When they
  equal the golden ones the draws are unchanged, so a command whose E_ALG
  follows from the draws alone (`Command.alg_from_draws`) must give the
  golden E_ALG too. Likewise for `mechanism`: an equal opt_welfare pins
  mech_welfare.
- Otherwise Monte Carlo results (simulate, tight-example, mechanism, game)
  agree with their goldens within TOLERANCE combined 95 % half-widths, so a
  documented change to the random-stream layout still passes. With only a
  few trials this tolerance is loose; the pair check above is what holds an
  exhaustive-min search to the minimum then.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from workloads import Command

TOLERANCE = 4.0  # combined 95 % half-widths allowed between result and golden
SAME = 1e-9  # relative difference below which two printed floats are equal


@dataclass
class Result:
    cmd: Command
    exit: int
    stdout: str
    stderr: str
    seconds: float
    report: object = None  # the RatioReport of a simulate command
    scaled: float = 0.0  # seconds at the reference speed (see run.py)


def _payload(res: Result) -> dict | None:
    try:
        doc = json.loads(res.stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def golden_of(res: Result) -> dict:
    """The fields of a result that later runs are compared against."""
    g: dict = {"exit": res.exit}
    doc = _payload(res)
    if res.exit != 0 or doc is None:
        return g
    kind = res.cmd.kind
    if kind == "exact":
        g.update({k: doc[k] for k in ("E_ALG", "E_OPT", "E_OPT_PRIME")})
    elif kind in ("mc", "tight"):
        g.update({k: float(doc[k]) for k in ("E_ALG", "E_OPT", "E_OPT_PRIME", "ci")})
    elif kind == "verify":
        g.update({k: doc[k] for k in ("passed", "lhs", "rhs", "configurations")})
    elif kind == "game-exact":
        g["p2_win"] = doc["p2_win"]
    elif kind == "game-mc":
        g["p2_win"] = float(doc["p2_win"])
    elif kind == "mechanism":
        g.update({k: float(doc[k]) for k in ("welfare_ratio", "welfare_ratio_halfwidth",
                                             "mech_welfare", "opt_welfare")})
        g["trials"] = int(doc["trials"])
    return g


def _agree(a: float, ha: float, b: float, hb: float) -> bool:
    """|a - b| within TOLERANCE combined half-widths (exact when both are 0)."""
    slack = TOLERANCE * math.hypot(ha, hb)
    return abs(a - b) <= slack + 1e-9 * max(1.0, abs(a), abs(b))


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= SAME * max(1.0, abs(a), abs(b))


def _relative_halfwidth(a: float, ha: float, b: float, hb: float) -> float:
    ra = ha / abs(a) if a else 0.0
    rb = hb / abs(b) if b else 0.0
    return math.hypot(ra, rb)


def _game_halfwidth(p: float, games: int) -> float:
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / games)


def check(res: Result, golden: dict | None, by_cid: dict[str, Result]) -> list[str]:
    """Problems with one result; an empty list means it passed."""
    cmd = res.cmd
    where = cmd.cid
    if res.exit != cmd.expect_exit:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return [f"{where}: exit {res.exit}, expected {cmd.expect_exit} ({tail[0]})"]
    if golden is None:
        return [f"{where}: no golden output recorded for these inputs"]
    if golden.get("exit") != res.exit:
        return [f"{where}: exit {res.exit}, golden {golden.get('exit')}"]
    if cmd.expect_exit != 0:
        return []
    doc = _payload(res)
    if doc is None:
        return [f"{where}: output is not a JSON object"]
    problems: list[str] = []
    kind = cmd.kind
    if kind in ("exact", "mc"):
        z = getattr(res.report, "z_violations", None)
        if z != 0:
            problems.append(f"{where}: z_violations = {z}")
        if cmd.pair is not None:
            problems.extend(_pair_problems(res, doc, by_cid))
    if kind == "exact":
        for k in ("E_ALG", "E_OPT", "E_OPT_PRIME"):
            if doc.get(k) != golden[k]:
                problems.append(f"{where}: {k} {doc.get(k)} != golden {golden[k]}")
    elif kind in ("mc", "tight"):
        a, ha = float(doc["E_ALG"]), float(doc["ci"])
        # A generated reduction-custom partition need not be an alpha-partition
        # of the structure, so that policy may collect sets E_OPT cannot.
        feasible = "reduction-custom" not in cmd.argv
        if feasible and a > float(doc["E_OPT"]) * (1.0 + SAME):
            problems.append(f"{where}: E_ALG {a} exceeds E_OPT {doc['E_OPT']}")
        draws_same = all(_same(float(doc[k]), golden[k]) for k in ("E_OPT", "E_OPT_PRIME"))
        if cmd.alg_from_draws and draws_same:
            if not (_same(a, golden["E_ALG"]) and _same(ha, golden["ci"])):
                problems.append(f"{where}: E_ALG {a} +- {ha} != golden {golden['E_ALG']} "
                                f"+- {golden['ci']} on the same draws")
        elif not _agree(a, ha, golden["E_ALG"], golden["ci"]):
            problems.append(f"{where}: E_ALG {a} +- {ha} vs golden {golden['E_ALG']}")
        # Only E_ALG carries a half-width; the optimum columns use its
        # relative size (at least 1/sqrt(trials)), as they average the same
        # trials.
        rel = max(
            _relative_halfwidth(a, ha, golden["E_ALG"], golden["ci"]),
            1.0 / math.sqrt(cmd.units),
        )
        for k in ("E_OPT", "E_OPT_PRIME"):
            v, g = float(doc[k]), golden[k]
            if not _agree(v, rel * abs(v), g, 0.0):
                problems.append(f"{where}: {k} {v} vs golden {g}")
    elif kind == "verify":
        if doc.get("passed") is not True:
            problems.append(f"{where}: lemma failed ({doc.get('detail')})")
        for k in ("lhs", "rhs", "configurations"):
            if doc.get(k) != golden[k]:
                problems.append(f"{where}: {k} {doc.get(k)} != golden {golden[k]}")
    elif kind == "game-exact":
        if doc.get("p2_win") != "1/4" or golden["p2_win"] != "1/4":
            problems.append(f"{where}: game value {doc.get('p2_win')}, expected 1/4")
    elif kind == "game-mc":
        p, g = float(doc["p2_win"]), golden["p2_win"]
        if not _agree(p, _game_halfwidth(p, cmd.units), g, _game_halfwidth(g, cmd.units)):
            problems.append(f"{where}: p2_win {p} vs golden {g}")
    elif kind == "mechanism":
        w, hw = float(doc["welfare_ratio"]), float(doc["welfare_ratio_halfwidth"])
        if int(doc["trials"]) != cmd.units:
            problems.append(f"{where}: ran {doc['trials']} trials, asked {cmd.units}")
        mech, opt = float(doc["mech_welfare"]), float(doc["opt_welfare"])
        if cmd.alg_from_draws and _same(opt, golden["opt_welfare"]):
            if not _same(mech, golden["mech_welfare"]):
                problems.append(f"{where}: mech_welfare {mech} != golden "
                                f"{golden['mech_welfare']} on the same draws")
        elif not _agree(w, hw, golden["welfare_ratio"], golden["welfare_ratio_halfwidth"]):
            problems.append(f"{where}: welfare_ratio {w} +- {hw} vs golden "
                            f"{golden['welfare_ratio']}")
    return problems


def _pair_problems(res: Result, doc: dict, by_cid: dict[str, Result]) -> list[str]:
    """An exhaustive-min E_ALG above its paired increasing-order E_ALG."""
    where, pair = res.cmd.cid, res.cmd.pair
    other = by_cid.get(pair)
    other_doc = _payload(other) if other is not None else None
    if other_doc is None:
        return [f"{where}: paired run {pair} has no output"]
    mine, theirs = doc["E_ALG"], other_doc["E_ALG"]
    if res.cmd.kind == "exact":
        above = Fraction(mine) > Fraction(theirs)
    else:  # each trial's minimum is at most its increasing-order total
        above = float(mine) > float(theirs) * (1.0 + SAME)
    if above:
        return [f"{where}: exhaustive-min E_ALG {mine} exceeds increasing E_ALG {theirs}"]
    return []


def check_pass(results: list[Result], goldens: dict | None) -> list[str]:
    """Problems across one pass, one list entry per failed check."""
    by_cid = {r.cmd.cid: r for r in results}
    problems = []
    for res in results:
        golden = None if goldens is None else goldens.get(res.cmd.cid)
        problems.extend(check(res, golden, by_cid))
    return problems


def failed_commands(problems: list[str]) -> int:
    return len({p.split(":", 1)[0] for p in problems})
