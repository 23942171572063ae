"""Command-line pipeline: compile, bound, check, export-cut, oracle, gadget-verify.

Every run is deterministic given its inputs, flags, and seed; all numbers are
printed as exact rationals.  Exit codes: 0 for success or an UNKNOWN verdict,
10 when unsatisfiability was proven, 20 when a proof was rejected, 1 for
usage, parse, or guard errors.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, Sequence

from .checker import bound_to_original, check_proof
from .core import Max2XorError, ParseError, ShapeError, clause, format_rational
from .gadgets import (
    STRATEGIES,
    GadgetParams,
    TreeShape,
    VarAllocator,
    binary_gadget,
    chain_to_3sat,
    clause_params,
    compile_maxsat,
    sequential_gadget,
    to_maxcut,
    tree_gadget,
    trevisan_3to2,
)
from .oracle import MAX_ORACLE_VARS, _guard, brute_opt_cost_items, verify_gadget
from .prover import MODES, saturate
from .textio import (
    _records,
    emit_maxcut,
    emit_proof,
    emit_x2x,
    parse_cnf,
    parse_proof,
    parse_x2x,
    sniff_format,
)

EXIT_OK = 0
EXIT_UNSAT = 10
EXIT_REJECTED = 20
EXIT_ERROR = 1


def _oracle_guard() -> int:
    """The enumeration guard; the environment may only lower it."""
    value = os.environ.get("X2X_MAX_ORACLE_VARS")
    if value is None:
        return MAX_ORACLE_VARS
    try:
        return min(MAX_ORACLE_VARS, int(value))
    except ValueError:
        raise Max2XorError(f"X2X_MAX_ORACLE_VARS must be an integer, got {value!r}")


def _read(path: str) -> str:
    """The text of ``path``, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise Max2XorError(f"{path} is not UTF-8 text: {exc}") from None


def _parse_mode(text: str):
    if text in MODES:
        return text, 3
    if text.startswith("retranslate="):
        try:
            return "retranslate", int(text.split("=", 1)[1])  # saturate checks the count
        except ValueError:
            raise Max2XorError(f"bad round count in mode {text!r}")
    raise Max2XorError(f"unknown mode {text!r}; use discard, retranslate[=N], or compact")


def _load_shapes(path: str) -> Dict[int, TreeShape]:
    """Shape i of a shape file, for clause i: the file's i-th line that is
    neither blank nor a ``c`` comment."""
    shapes = {}
    for index, (line_no, line) in enumerate(_records(_read(path), ("c",))):
        try:
            shapes[index] = TreeShape.parse(line)
        except ShapeError as exc:
            raise ParseError(f"bad shape: {exc}", line_no) from None
    return shapes


def _print_report(report, out) -> None:
    print(f"shift {format_rational(report.shift)}", file=out)
    print(f"threshold {format_rational(report.threshold)}", file=out)
    for k in sorted(report.params_per_arity):
        params = report.params_per_arity[k]
        print(
            f"arity {k}: alpha={format_rational(params.alpha)} "
            f"beta={format_rational(params.beta)} aux={params.aux_vars}",
            file=out,
        )


def _cmd_compile(args, out) -> int:
    instance = parse_cnf(_read(args.input))
    shapes = _load_shapes(args.shapes) if args.shapes else None
    report = compile_maxsat(instance, strategy=args.strategy, shapes=shapes)
    output = args.output or str(Path(args.input).with_suffix(".x2x"))
    Path(output).write_text(emit_x2x(report.problem))
    print(f"wrote {output}", file=out)
    _print_report(report, out)
    return EXIT_OK


def _cmd_bound(args, out) -> int:
    text = _read(args.input)
    mode, rounds = _parse_mode(args.mode)
    output = args.output or str(Path(args.input).with_suffix(".x2xproof"))
    report = None
    if sniff_format(text) == "cnf":
        shapes = _load_shapes(args.shapes) if args.shapes else None
        strategy = args.strategy or "sequential"
        report = compile_maxsat(parse_cnf(text), strategy=strategy, shapes=shapes)
        problem = report.problem
    elif args.shapes:
        raise Max2XorError("shapes need cnf or wcnf input, not x2x")
    elif args.strategy:
        raise Max2XorError("strategy needs cnf or wcnf input, not x2x")
    else:
        problem = parse_x2x(text)
    summary, steps = saturate(problem, mode=mode, max_rounds=rounds)
    Path(output).write_text(emit_proof(steps))
    print(f"wrote {output}", file=out)
    print(f"m {format_rational(summary.bound_m)}", file=out)
    if report is not None:
        print(f"shift {format_rational(report.shift)}", file=out)
    if args.verbose:
        why = {summary.rounds + 1: " (dropped: bound did not rise)"}
        # ended before its round limit with residues left to translate and no round dropped
        if mode == "retranslate" and summary.rounds == len(summary.round_stats) < rounds:
            if any(cl.k in (2, 3) for cl, _ in summary.residue_clauses):
                why[summary.rounds] = " (stopped: an assignment attains the bound)"
        for round_no, (budget, used) in enumerate(summary.round_stats, start=1):
            note = why.get(round_no, "")
            print(f"round {round_no}: {used} steps over {budget} entries{note}", file=out)
    if report is None:
        print(f"UNKNOWN lb={format_rational(max(Fraction(0), summary.bound_m))}", file=out)
        return EXIT_OK
    verdict = bound_to_original(summary, report)
    print(verdict.message, file=out)
    return EXIT_UNSAT if verdict.unsat_proven else EXIT_OK


def _cmd_check(args, out) -> int:
    problem = parse_x2x(_read(args.input))
    steps = parse_proof(_read(args.proof))
    verdict = check_proof(problem, steps, None)
    if verdict.accepted:
        print(f"ACCEPTED steps={len(steps)} m={format_rational(verdict.summary.bound_m)}", file=out)
        return EXIT_OK
    where = f" at step {verdict.failing_step}" if verdict.failing_step is not None else ""
    print(f"REJECTED{where}: {verdict.reason}", file=out)
    return EXIT_REJECTED


def _cmd_export_cut(args, out) -> int:
    problem = parse_x2x(_read(args.input))
    graph = to_maxcut(problem, variant=args.variant)
    output = args.output or str(Path(args.input).with_suffix(".cut"))
    Path(output).write_text(emit_maxcut(graph))
    print(f"wrote {output}", file=out)
    print(f"nodes {graph.node_count} edges {len(graph.edges)}", file=out)
    if problem.floor != 0:
        print(f"floor {format_rational(problem.floor)} carried outside the graph", file=out)
    return EXIT_OK


def _cmd_oracle(args, out) -> int:
    text = _read(args.input)
    if sniff_format(text) == "cnf":
        items = parse_cnf(text).clauses
        floor = Fraction(0)
    else:
        problem = parse_x2x(text)
        items = list(problem.sorted_entries())
        floor = problem.floor
    result = brute_opt_cost_items(items, floor=floor, max_vars=_oracle_guard())
    print(f"opt {format_rational(result.opt)}", file=out)
    print(f"cost {format_rational(result.cost)}", file=out)
    witness = " ".join(f"{v}={b}" for v, b in sorted(result.cost_witness.items()))
    print(f"witness {witness}".rstrip(), file=out)
    return EXIT_OK


def _verify_family(args):
    """Source clause, translation and claimed parameters of a family.

    The enumeration guard sees ``k`` plus the claimed auxiliaries before any
    clause, shape or translation is built; a claim that leaves the count out
    is guarded by :func:`verify_gadget` once the translation exists.
    """
    k, family = args.k, args.family
    need, fits = {
        "binary": ("1 or 2", k in (1, 2)), "trevisan": ("3", k == 3), "chain": (">= 4", k >= 4)
    }.get(family, (">= 2", k >= 2))
    if not fits:
        raise Max2XorError(f"--family {family} needs --k {need}")
    claimed = {
        "trevisan": GadgetParams(Fraction(7, 2), Fraction(4), 1),
        "chain": GadgetParams(Fraction(k - 2), Fraction(k - 2), k - 3),
    }.get(family) or clause_params(k)
    _guard(k + (claimed.aux_vars or 0), _oracle_guard())
    cl, alloc = clause(*range(1, k + 1)), VarAllocator(k + 1)
    if family == "binary":
        translation = binary_gadget(Fraction(1), cl)
    elif family == "trevisan":
        translation = trevisan_3to2(cl, alloc)
    elif family == "chain":
        translation = chain_to_3sat(cl, alloc)
    elif family == "t0":
        translation = sequential_gadget(cl, None, alloc)
    else:
        translation = tree_gadget(cl, _resolve_shape(args, k), None, alloc)
    return cl, translation, claimed


def _resolve_shape(args, k: int) -> TreeShape:
    spec = args.shape or "balanced"
    if spec == "balanced":
        return TreeShape.balanced(k)
    if spec == "left":
        return TreeShape.left_comb(k)
    if spec == "random":
        return TreeShape.random(k, random.Random(args.seed or 0))
    shape = _load_shapes(spec).get(0)
    if shape is None:
        raise Max2XorError(f"shape file {spec} holds no shape")
    if shape.k != k:
        raise Max2XorError(f"shape file has {shape.k} leaves, expected {k}")
    return shape


def _cmd_gadget_verify(args, out) -> int:
    if args.shape is not None and args.family != "t":
        raise Max2XorError("--shape needs --family t")
    if args.seed is not None and args.shape != "random":
        raise Max2XorError("--seed needs --shape random")
    source, translation, claimed = _verify_family(args)
    verdict = verify_gadget(source, translation, claimed, max_vars=_oracle_guard())
    if verdict.certified:
        print(
            f"certified alpha={format_rational(verdict.alpha)} "
            f"beta={format_rational(verdict.beta)}",
            file=out,
        )
        if args.verbose:
            print(f"gap beta-alpha {format_rational(verdict.beta - verdict.alpha)}", file=out)
        return EXIT_OK
    print(f"rejected: {verdict.reason}", file=out)
    if verdict.counterexample is not None:
        assignment, achieved = verdict.counterexample
        pretty = " ".join(f"{v}={b}" for v, b in sorted(assignment.items()))
        print(f"counterexample {pretty} achieves {format_rational(achieved)}", file=out)
    return EXIT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="max2xor",
        description="Compile weighted SAT instances to parity constraint problems, "
        "derive certified cost lower bounds, and export cut instances.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("compile", help="translate a cnf/wcnf instance to .x2x")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--strategy", choices=STRATEGIES, default="sequential")
    p.add_argument("--shapes", help="file with one parenthesized tree shape per clause")

    p = add_parser("bound", help="derive a certified cost lower bound")
    p.add_argument("input", help=".cnf/.wcnf or .x2x file")
    p.add_argument("-o", "--output", help="proof log path")
    p.add_argument("--mode", default="discard", help="discard | retranslate[=N] | compact")
    p.add_argument("--strategy", choices=STRATEGIES, help="cnf/wcnf input only (default sequential)")
    p.add_argument("--shapes")

    p = add_parser("check", help="replay and verify a proof log")
    p.add_argument("input", help=".x2x file the proof starts from")
    p.add_argument("proof", help=".x2xproof file")

    p = add_parser("export-cut", help="write the cut-graph form of an .x2x problem")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--variant", choices=("single", "double"), default="single")

    p = add_parser("oracle", help="exact optimum and cost by enumeration")
    p.add_argument("input", help=".cnf/.wcnf or .x2x file")

    p = add_parser("gadget-verify", help="certify a translation's (alpha, beta)")
    p.add_argument("--family", required=True, choices=("t0", "t", "binary", "trevisan", "chain"))
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--shape", help="--family t only: balanced | left | random | shape file path")
    p.add_argument("--seed", type=int, help="--shape random only (default 0)")

    return parser


_COMMANDS = {
    "compile": _cmd_compile,
    "bound": _cmd_bound,
    "check": _cmd_check,
    "export-cut": _cmd_export_cut,
    "oracle": _cmd_oracle,
    "gadget-verify": _cmd_gadget_verify,
}


def run(argv: Sequence[str], out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return _COMMANDS[args.command](args, out)
    except (Max2XorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
