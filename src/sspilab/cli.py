"""Command-line laboratory.

Subcommands:
  simulate       estimate a policy's competitive ratio (exact or Monte Carlo)
  verify         run one exact lemma verifier over a drawn instance
  game           the nested-bins coin game (minimax value, B-first value, MC)
  tight-example  the star-graph family whose ratio approaches 4
  mechanism      posted-price mechanism welfare/revenue estimation

Exit codes: 0 success, 1 a verification failed (lemma or game value), 2 usage
or input error (an `InputError` naming its field or flag, as for an
`--instance` that cannot be read or an `--out` that cannot be written, or an
argparse error), 3 a size cap was exceeded, 4 any other exception: a fault
of the program.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from .analysis import (
    LEMMA_IDS,
    exhaustive_game_value,
    game_monte_carlo,
    verify_lemma,
)
from .core import CapExceededError, InputError, trial_rng
from .harness import (
    CSV_HEADER,
    MC_ADVERSARIES,
    estimate_ratio,
    report_fields,
    tight_example,
)
from .instances import load_instance
from .mechanism import (
    MECHANISM_CSV_HEADER,
    estimate_mechanism_ratios,
    mechanism_report_fields,
)
from .policies import POLICY_NAMES

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _csv(header, fields: dict) -> str:
    """A header line and the row of the fields, which come in header order."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows((header, fields.values()))
    return buf.getvalue()


def _emit(args, fields: dict, text: str) -> None:
    """Every command's one way out: its report's fields as JSON, or its text
    form (a CSV row or a one-line summary), to --out or stdout."""
    body = json.dumps(fields, indent=2) + "\n" if args.format == "json" else text
    if args.out is None or args.out == "-":
        sys.stdout.write(body)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    except OSError as exc:
        raise InputError("--out", f"cannot write {args.out!r}: {exc.strerror or exc}") from None


def _cmd_simulate(args) -> int:
    instance = load_instance(args.instance)
    report = estimate_ratio(
        instance,
        args.policy,
        adversary=args.adversary,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
    )
    fields = report_fields(report)
    _emit(args, fields, _csv(CSV_HEADER, fields))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.lemma == "game-value":
        report = verify_lemma("game-value")
    else:
        if args.instance is None:
            raise InputError("--instance", "this lemma needs an instance file")
        instance = load_instance(args.instance)
        realizations = instance.draw_realizations(trial_rng(args.seed, 0))
        report = verify_lemma(args.lemma, instance.structure, realizations)
    status = "PASS" if report.passed else "FAIL"
    line = (
        f"{report.lemma}: {status} lhs={report.lhs} rhs={report.rhs} "
        f"configurations={report.configurations}"
    )
    if report.detail:
        line += f" ({report.detail})"
    fields = {
        "lemma": report.lemma,
        "passed": report.passed,
        "lhs": str(report.lhs),
        "rhs": str(report.rhs),
        "configurations": report.configurations,
        "detail": report.detail,
    }
    _emit(args, fields, line + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def _cmd_game(args) -> int:
    if args.mode == "mc":
        value: object = game_monte_carlo(args.rr, args.rb, args.trials, args.seed)
        passed = True
    else:
        strategy = "optimal" if args.mode == "optimal" else "b-first"
        exact = exhaustive_game_value(args.rr, args.rb, strategy)
        value = f"{exact.numerator}/{exact.denominator}"
        passed = exact == Fraction(1, 4)
    fields = {
        "rr": args.rr,
        "rb": args.rb,
        "mode": args.mode,
        "p2_win": value,
        "expected": "1/4",
    }
    _emit(args, fields, f"game rr={args.rr} rb={args.rb} mode={args.mode} p2_win={value}\n")
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


def _cmd_tight_example(args) -> int:
    fields = report_fields(tight_example(args.k, trials=args.trials, seed=args.seed))
    _emit(args, fields, _csv(CSV_HEADER, fields))
    return EXIT_OK


def _cmd_mechanism(args) -> int:
    instance = load_instance(args.instance)
    report = estimate_mechanism_ratios(
        instance, args.policy, trials=args.trials, seed=args.seed,
        regime=args.regime,
    )
    fields = mechanism_report_fields(report)
    _emit(args, fields, _csv(MECHANISM_CSV_HEADER, fields))
    return EXIT_OK


def _seed(text: str) -> int:
    """The --seed type: numpy seeds are non-negative integers."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Global flags, accepted before or after the subcommand. A subcommand's
    copy has no defaults, so it keeps a value given before the subcommand."""

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--seed", type=_seed, default=default(0),
                        help="master seed (a non-negative integer)")
    parser.add_argument("--trials", type=int, default=default(10000),
                        help="Monte Carlo trials")
    parser.add_argument("--out", default=default(None), help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=default("json"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sspi-lab",
        description="Single-sample prophet inequality laboratory",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sub(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_common(p, suppress=True)
        return p

    p = add_sub("simulate", "competitive-ratio estimation")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", required=True, choices=POLICY_NAMES)
    p.add_argument("--adversary", choices=MC_ADVERSARIES, default="increasing")
    p.add_argument("--mode", choices=("mc", "exact"), default="mc")
    p.set_defaults(func=_cmd_simulate)

    p = add_sub("verify", "exact lemma verification")
    p.add_argument("--lemma", required=True, choices=LEMMA_IDS)
    p.add_argument("--instance", default=None)
    p.set_defaults(func=_cmd_verify)

    p = add_sub("game", "nested-bins coin game")
    p.add_argument("--rr", type=int, required=True)
    p.add_argument("--rb", type=int, required=True)
    p.add_argument("--mode", choices=("optimal", "exhaustive", "mc"), default="optimal")
    p.set_defaults(func=_cmd_game)

    p = add_sub("tight-example", "star-graph ratio experiment")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_tight_example)

    p = add_sub("mechanism", "posted-price mechanism estimation")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", required=True, choices=POLICY_NAMES)
    p.add_argument("--regime", choices=("mhr", "iid-regular"), default=None)
    p.set_defaults(func=_cmd_mechanism)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not of its input
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
