"""Command-line front end.

Every subcommand reads text files and writes deterministic, diff-able text:
no timestamps, no floats, rationals printed as p/q (q omitted when 1).
Exit codes: 0 success, 1 usage error, 2 data error (parse failure, space
mismatch, seed conflict, unsupported combination).  Errors and library
warnings (a duplicate seed) print one stderr line each; a failing command
prints its error alone.
"""
from __future__ import annotations

import argparse
import os
import sys
import warnings
from fractions import Fraction

from . import analysis, ballots, cyclic_orders, representation, scoring
from .scoring import format_rational
from .symmetric_group import class_size, parse_partition, partitions


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _check_degree_cap(n: int, args) -> None:
    if n > args.max_n:
        raise ValueError(f"n={n} exceeds --max-n {args.max_n}")


def _rule(args) -> scoring.ScoringMatrix:
    params = scoring.parse_params(args.params or "")
    if args.rule == "orbit_seeds":
        if not args.seeds or not args.ballots:
            raise ValueError("orbit_seeds needs --seeds FILE and --ballots KIND")
        if params:
            raise ValueError("--params applies to named rules only, not to orbit_seeds")
        n = 4 if args.n is None else args.n
        _check_degree_cap(n, args)
        space = ballots.build_ballot_space(args.ballots, n, args.ordering)
        with open(args.seeds) as fh:
            seeds = scoring.parse_seed_file(fh.read(), space)
        return scoring.build_neutral_matrix(space, seeds, rule_name="orbit_seeds")
    for flag in ("n", "ordering", "ballots", "seeds"):  # a named rule fixes its own space
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} applies to --rule orbit_seeds only, not to {args.rule}")
    return scoring.named_rule(args.rule, params)


def _print_vectors(vectors) -> None:
    for v in vectors:
        print(" ".join(format_rational(x) for x in v))


def _add_rule_flags(p: _Parser) -> None:
    p.add_argument("--rule", required=True, choices=sorted(scoring.FAMILY_ARITY) + ["orbit_seeds"])
    p.add_argument("--params", default="")
    p.add_argument("--seeds")
    p.add_argument("--ballots", choices=["cyclic", "rolo", "trad"])
    p.add_argument("--n", type=int)
    p.add_argument("--ordering", choices=["paper", "canonical"])


def build_parser() -> _Parser:
    parser = _Parser(prog="cyclevote", description=__doc__)
    parser.add_argument("--max-n", type=int, default=7,
                        help="cap on the n of the CLI's own enumerations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orders", help="list all cyclic orders for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ordering", choices=["paper", "canonical"])

    p = sub.add_parser("characters", help="fixed-point character of a ballot space")
    p.add_argument("--space", choices=["co", "rolo", "trad"], required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("decompose", help="irreducible decomposition of a ballot space")
    p.add_argument("--space", choices=["co", "rolo", "trad"], required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("catalog", help="print an invariant-subspace catalog")
    p.add_argument("--space", choices=["co4", "rolo4", "trad4", "co5"], required=True)

    p = sub.add_parser("matrix", help="score matrix of a rule, as CSV")
    _add_rule_flags(p)

    p = sub.add_parser("tally", help="tally a profile file under a rule")
    _add_rule_flags(p)
    p.add_argument("--profile", required=True)

    p = sub.add_parser("kernel", help="kernel basis of a rule")
    _add_rule_flags(p)

    p = sub.add_parser("effective", help="effective-space basis of a rule")
    _add_rule_flags(p)

    p = sub.add_parser("project", help="isotypic component of a profile")
    p.add_argument("--space", choices=["cyclic", "rolo", "trad"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ordering", choices=["paper", "canonical"])
    p.add_argument("--partition", required=True)
    p.add_argument("--profile", required=True)

    p = sub.add_parser("scaling", help="how a rule scales each catalog subspace")
    _add_rule_flags(p)

    p = sub.add_parser("distance", help="transposition distance between two orders")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = sub.add_parser("classify", help="orbit class of an ordered pair of orders")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = sub.add_parser("mask", help="build a masking profile for a target order")
    _add_rule_flags(p)
    p.add_argument("--target", required=True)
    p.add_argument("--decoys", required=True, help="comma-separated cyclic orders")
    p.add_argument("--magnitude", default="1")
    return parser


def _cmd_orders(args) -> None:
    _check_degree_cap(args.n, args)
    for label in ballots.build_ballot_space("cyclic", args.n, args.ordering).labels():
        print(label)


def _space_for_character(args) -> ballots.BallotSpace:
    kind = "cyclic" if args.space == "co" else args.space
    if kind == "cyclic" and args.n < 3:
        raise ValueError("cyclic orders need n >= 3")
    return ballots.build_ballot_space(kind, args.n)


def _cmd_characters(args) -> None:
    _check_degree_cap(args.n, args)
    space = _space_for_character(args)
    chi = representation.space_character(space)
    for mu in partitions(args.n):
        print(f"{mu}\t{class_size(mu)}\t{format_rational(chi(mu))}")


def _cmd_decompose(args) -> None:
    _check_degree_cap(args.n, args)
    space = _space_for_character(args)
    chi = representation.space_character(space)
    print(representation.decompose_character(chi).to_tsv())


def _cmd_catalog(args) -> None:
    catalog = analysis.subspace_catalog(args.space)
    for entry in catalog.entries:
        for v in entry.vectors:
            body = " ".join(format_rational(x) for x in v)
            print(f"{entry.label}\t{entry.partition}\t{body}")


def _cmd_matrix(args) -> None:
    print(_rule(args).to_csv(), end="")


def _cmd_tally(args) -> None:
    m = _rule(args)
    with open(args.profile) as fh:
        p = analysis.parse_profile(fh.read(), m.ballot_space)
    result = analysis.tally(m, p)
    for outcome, score in zip(m.outcome_space.ballots, result.scores):
        flag = "*" if outcome in result.winners else ""
        print(f"{m.outcome_space.label(outcome)}\t{format_rational(score)}\t{flag}")


def _cmd_kernel(args) -> None:
    _print_vectors(analysis.kernel_basis(_rule(args)))


def _cmd_effective(args) -> None:
    _print_vectors(analysis.effective_basis(_rule(args)))


def _cmd_project(args) -> None:
    _check_degree_cap(args.n, args)
    space = ballots.build_ballot_space(args.space, args.n, args.ordering)
    with open(args.profile) as fh:
        p = analysis.parse_profile(fh.read(), space)
    lam = parse_partition(args.partition)
    projected = representation.project_vector(p.weights, space, lam)
    print(analysis.format_profile(analysis.Profile(space, projected)))


def _cmd_scaling(args) -> None:
    m = _rule(args)
    catalog = analysis.catalog_for_space(m.ballot_space)
    report = analysis.scaling_report(m, catalog)
    for e in report.entries:
        if e.kind in ("scalar", "zero"):
            print(f"{e.label}\t{e.partition}\t{e.kind}\t{format_rational(e.scalar)}")
        else:
            print(f"{e.label}\t{e.partition}\tmapped\t")
            for v, coords in zip(e.images, e.image_coords):
                body = " ".join(format_rational(x) for x in v)
                print(f"  image\t{body}")
                if coords:
                    print(f"  coords\t{' '.join(format_rational(c) for c in coords)}")
    for label, value in report.quadratic.items():
        shown = format_rational(value) if value is not None else "-"
        print(f"MMT\t{label}\t{shown}")


def _cmd_distance(args) -> None:
    x = cyclic_orders.parse_order(args.x)
    y = cyclic_orders.parse_order(args.y)
    _check_degree_cap(x.n, args)
    print(cyclic_orders.transposition_distance(x, y))


def _cmd_classify(args) -> None:
    x = cyclic_orders.parse_order(args.x)
    y = cyclic_orders.parse_order(args.y)
    _check_degree_cap(x.n, args)
    cls = cyclic_orders.classify_pair(x, y)
    rep = f"({cls.representative[0]},{cls.representative[1]})"
    print(f"{cls.tag}\t{rep}")


def _cmd_mask(args) -> None:
    m = _rule(args)
    target = cyclic_orders.parse_order(args.target)
    decoys = {cyclic_orders.parse_order(t) for t in args.decoys.split(",") if t.strip()}
    try:
        magnitude = Fraction(args.magnitude)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad magnitude: {args.magnitude!r}") from None
    p = analysis.masking_profile(m, target, decoys, magnitude)
    print(analysis.format_profile(p))


_COMMANDS = {
    "orders": _cmd_orders,
    "characters": _cmd_characters,
    "decompose": _cmd_decompose,
    "catalog": _cmd_catalog,
    "matrix": _cmd_matrix,
    "tally": _cmd_tally,
    "kernel": _cmd_kernel,
    "effective": _cmd_effective,
    "project": _cmd_project,
    "scaling": _cmd_scaling,
    "distance": _cmd_distance,
    "classify": _cmd_classify,
    "mask": _cmd_mask,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _report("usage error", exc)
        return 1
    except SystemExit as exc:  # -h/--help has printed the help text
        return exc.code
    try:
        with warnings.catch_warnings(record=True) as caught:
            _COMMANDS[args.command](args)
            sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
    except BrokenPipeError:  # `| head` had all it wanted; the last flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError, ZeroDivisionError) as exc:
        _report("error", exc)
        return 2
    for warning in caught:  # the filters in force decide which are recorded
        _report("warning", warning.message)
    return 0


def _report(kind: str, exc: Exception) -> None:
    """One stderr line per failure or warning, even when the message quotes a raw argument."""
    message = str(exc).replace("\n", "\\n")
    print(f"{kind}: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
