"""Command-line interface.

Exit codes: 0 success, 1 verification suite failure, 2 input error (parse,
range, arity, missing top). Results go to stdout, diagnostics to stderr.
"""
from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from typing import Sequence

from .algebra import ElementSet, FiniteAlgebra
from .closure import (
    clot_closure,
    congruence_generated,
    is_top_normal,
    iterate,
    semicongruence_generated,
)
from .errors import EngineError
from .fileformat import overlong_digits, parse_algebra_file
from .oracles import nat_mult_deduction_chain
from .ranks import algebra_rank
from .suites import SUITE_NAMES, _format_nat, run_suite

CHAIN_PRINT_CAP = 32


def _load(path: str) -> FiniteAlgebra:
    """The file's algebra. Its bytes are decoded once, without text mode:
    the parser splits lines at CRLF, CR and LF only, as text mode does."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EngineError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_algebra_file(text).algebra


def _resolve_top(algebra: FiniteAlgebra, override: int | None) -> int:
    top = override if override is not None else algebra.top
    if top is None:
        raise EngineError("no top element: give --top or declare top in the file")
    if not 0 <= top < algebra.size:
        raise EngineError(f"top element {top} outside carrier of size {algebra.size}")
    return top


# the refusal of a flag's text that is no list of comma-separated integers
_MALFORMED = {
    "--set": "malformed set {!r}: use comma-separated integers or '-'",
    "--primes": "malformed prime list {!r}: use comma-separated integers",
}


def _integers(text: str, flag: str) -> list[int]:
    """The comma-separated integers given to `flag`. A decimal numeral with
    more digits than `int` reads is refused by its digit count, not echoed."""
    pieces = text.split(",")
    try:
        return [int(piece) for piece in pieces]
    except ValueError:
        pass
    for piece in pieces:
        if digits := overlong_digits(piece):
            raise EngineError(f"{flag}: an integer of {digits} digits is too large")
    raise EngineError(_MALFORMED[flag].format(text))


def _flag_int(text: str) -> int:
    """An integer flag's value, read by `int`. A decimal numeral with more
    digits than `int` reads is refused by its digit count, not echoed; any
    other fault in argparse's own words."""
    try:
        return int(text)
    except ValueError:
        digits = overlong_digits(text)
        raise argparse.ArgumentTypeError(f"an integer of {digits} digits is too large" if digits
                                         else f"invalid int value: {text!r}") from None


def _format_chain(stages: Sequence[ElementSet]) -> str:
    shown = [str(s) for s in stages[:CHAIN_PRINT_CAP]]
    if len(stages) > CHAIN_PRINT_CAP:
        shown.append("...")
    return " ⊂ ".join(shown)


def _on_input(handler, args: argparse.Namespace) -> int:
    """Read the file, then the top, then the set when the subcommand takes
    one, and hand them to `handler`: the first fault met is the one reported."""
    algebra = _load(args.file)
    top = _resolve_top(algebra, args.top)
    subset = None
    if "set" in args:
        members = [] if args.set == "-" else _integers(args.set, "--set")
        subset = ElementSet.of(algebra.size, members)
    return handler(args, algebra, top, subset)


def _cmd_step(args: argparse.Namespace, algebra: FiniteAlgebra, top: int, subset: ElementSet,
              mode: str) -> int:
    if not args.fixpoint and args.steps < 0:
        raise EngineError("--steps must be non-negative")
    max_steps = None if args.fixpoint else args.steps
    report = iterate(algebra, top, subset, mode, max_steps=max_steps)
    print(report.final())
    print(_format_chain(report.distinct_stages()))
    return 0


def _cmd_clot(args: argparse.Namespace, algebra: FiniteAlgebra, top: int,
              subset: ElementSet) -> int:
    print(clot_closure(algebra, top, subset))
    return 0


def _cmd_normal(args: argparse.Namespace, algebra: FiniteAlgebra, top: int,
                subset: ElementSet) -> int:
    result = is_top_normal(algebra, top, subset)
    word = "normal" if result.is_normal else "not-normal"
    print(f"{word} {result.top_class}")
    return 0


def _cmd_relation(args: argparse.Namespace, algebra: FiniteAlgebra, top: int,
                  subset: ElementSet, congruence: bool) -> int:
    generated = congruence_generated if congruence else semicongruence_generated
    rel = generated(algebra, [(x, top) for x in subset])
    # a generated relation is reflexive, so never empty: one print, one line a pair
    print("\n".join([f"{a} {b}" for a, b in rel.pairs()]))
    return 0


def _cmd_rank(args: argparse.Namespace, algebra: FiniteAlgebra, top: int, _: None) -> int:
    if args.max_n is not None and args.max_n < 0:
        raise EngineError("--max-n must be non-negative")
    mode = "induction" if args.mode == "ind" else "deduction"
    result = algebra_rank(algebra, top, mode, max_n=args.max_n)
    print(f"rank {result.describe()}")
    print(f"witness {result.witness}")
    print(_format_chain(result.witness_report.distinct_stages()))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # --primes and --depth configure nat-chain; every other suite ignores them
    primes = None
    if args.suite == "nat-chain" and args.primes is not None:
        primes = tuple(_integers(args.primes, "--primes"))
    report = run_suite(args.suite, limit=args.limit, primes=primes, depth=args.depth)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_chain(args: argparse.Namespace) -> int:
    stages = nat_mult_deduction_chain(_integers(args.primes, "--primes"), args.depth)
    for stage in stages:
        print(_format_nat(stage))
    return 0


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its subcommand parsers by name (the
    `choices` of its subparsers action), built on first use and shared by
    every later call in the process; each subcommand sets its `handler`."""
    parser = argparse.ArgumentParser(
        prog="finalg",
        description="Closure computations and verification suites on finite algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p: argparse.ArgumentParser, handler, needs_set: bool = True) -> None:
        p.set_defaults(handler=partial(_on_input, handler))
        p.add_argument("file", metavar="FILE", help="algebra description file")
        if needs_set:
            p.add_argument("--set", required=True,
                           help="comma-separated elements, or '-' for the empty set")
        p.add_argument("--top", type=_flag_int, default=None,
                       help="override the file's top element")

    for name, mode in (("ind", "induction"), ("ded", "deduction")):
        p = sub.add_parser(name, help=f"iterated {mode} of a set")
        with_input(p, partial(_cmd_step, mode=mode))
        group = p.add_mutually_exclusive_group()
        group.add_argument("--steps", type=_flag_int, default=1, help="number of steps (default 1)")
        group.add_argument("--fixpoint", action="store_true", help="iterate to the fixpoint")

    with_input(sub.add_parser("clot", help="smallest clot containing a set"), _cmd_clot)
    with_input(sub.add_parser("normal", help="test whether a set is the class of top"),
               _cmd_normal)
    with_input(sub.add_parser("semicong", help="semicongruence generated by set x {top}"),
               partial(_cmd_relation, congruence=False))
    with_input(sub.add_parser("cong", help="congruence generated by set x {top}"),
               partial(_cmd_relation, congruence=True))

    p = sub.add_parser("rank", help="largest steps-to-fixpoint over nonempty subsets")
    with_input(p, _cmd_rank, needs_set=False)
    p.add_argument("--mode", choices=("ind", "ded"), required=True)
    p.add_argument("--max-n", type=_flag_int, default=None, help="step budget per subset")

    p = sub.add_parser("verify", help="run a verification suite")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--suite", required=True, help=f"one of: {', '.join(SUITE_NAMES)}")
    p.add_argument("--limit", type=_flag_int, default=None, help="catalog size limit")
    p.add_argument("--primes", default=None, help="comma-separated primes (nat-chain)")
    p.add_argument("--depth", type=_flag_int, default=None, help="chain depth (nat-chain)")

    p = sub.add_parser("chain", help="exact deduction chain on naturals under multiplication")
    p.set_defaults(handler=_cmd_chain)
    p.add_argument("--primes", required=True, help="comma-separated distinct primes")
    p.add_argument("--depth", type=_flag_int, required=True, help="number of steps")

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, shared by every call in the process."""
    return _parsers()[0]


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subcommands = _parsers()
    # The parser hands every word after a subcommand's name to that
    # subcommand's parser, so parsing them there directly gives the same
    # namespace, less `command`, or the same usage error. A word left over
    # is an error of the whole parser: it parses again and reports it.
    sub = subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
    if sub is None or rest:
        args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
