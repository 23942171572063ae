"""Seeded workloads of the max2xor benchmark and the pipeline one verdict runs.

A verdict takes one generated job through the library's public calls, in the
order in which ``max2xor compile``, ``bound`` and ``check`` chain them, and
checks the result against an answer that the prover under test did not
produce.  Each workload builds a pool of jobs from its seed during set-up,
reference answers included, so that nothing but verdicts runs in the timed
loop.  Instances reach the library only as DIMACS text, and tree shapes only
in their parenthesized text form.

Every call into a library module runs inside a span named
``<module>.<call>``; in the untraced run the spans record nothing.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from max2xor import (
    TreeShape,
    VarAllocator,
    binary_gadget,
    bound_to_original,
    brute_opt_cost,
    brute_opt_cost_items,
    check_proof,
    clause,
    clause_params,
    compile_maxsat,
    emit_maxcut,
    emit_proof,
    emit_x2x,
    evaluate,
    parse_cnf,
    parse_proof,
    parse_x2x,
    saturate,
    sequential_gadget,
    to_maxcut,
    tree_gadget,
    verify_gadget,
)

RETRANSLATE_ROUNDS = 3  # the round count of the command line's "retranslate"


class Mismatch(Exception):
    """A verdict disagreed with its checker or with its reference answer."""


@dataclass
class Job:
    kind: str  # "bound", "gadget" or "certify"
    text: str  # DIMACS instance; for "gadget" a tree shape or "sequential"
    modes: Tuple[str, ...] = ("discard",)  # a "bound" job bounds its instance in each
    export_cut: bool = False
    source_cost: Optional[Fraction] = None  # oracle cost of the source instance
    width: int = 0


@dataclass
class Bound:
    """One mode's result: the ``UNSAT/UNKNOWN lb=`` line, proof steps and ``m``."""

    message: str
    steps: int
    bound_m: Fraction


@dataclass
class Outcome:
    counts: Counter
    bound_m: Fraction = Fraction(0)
    bounds: List[Bound] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Instance generation


def _clause_line(rng: random.Random, n: int, k: int) -> str:
    variables = rng.sample(range(1, n + 1), k)
    lits = " ".join(str(v if rng.random() < 0.5 else -v) for v in variables)
    return f"{rng.randint(1, 3)} {lits} 0"


def _wcnf(n: int, lines: List[str]) -> str:
    return f"p wcnf {n} {len(lines)}\n" + "\n".join(lines) + "\n"


# Sizes are cycled, so that every pool holds each size equally often.  The
# middle size comes three times a cycle, so the median verdict falls among
# six instances of that size rather than on the jump between two sizes.

SAT3_VARS = (7, 10, 13, 8, 10, 11, 9, 10, 12)
SAT3_RATIO = 4.26  # the random 3-SAT threshold


def sat3_pool(rng: random.Random, count: int) -> List[Job]:
    jobs = []
    for i in range(count):
        n = SAT3_VARS[i % len(SAT3_VARS)]
        lines = [_clause_line(rng, n, 3) for _ in range(round(SAT3_RATIO * n))]
        jobs.append(Job("bound", _wcnf(n, lines)))
    return jobs


SAT2_VARS = (4, 5, 6)
SAT2_RATIOS = (2, 3, 4, 5, 6)
SAT2_MODES = ("discard", "retranslate", "compact")


def sat2_pool(rng: random.Random, count: int) -> List[Job]:
    """``count`` instances, each bounded in every mode; every (size, ratio)
    pair occurs once in 15 consecutive instances."""
    jobs = []
    for i in range(count):
        n = SAT2_VARS[i % 3]
        ratio = SAT2_RATIOS[i // 3 % 5]
        text = _wcnf(n, [_clause_line(rng, n, 2) for _ in range(ratio * n)])
        cost = brute_opt_cost_items(parse_cnf(text).clauses).cost
        jobs.append(Job("bound", text, modes=SAT2_MODES, export_cut=True, source_cost=cost))
    return jobs


# The pool of certification jobs: ("gadget", width) or ("instance", compiled
# variable count).  Job times form plateaus: five jobs under 0.2 s, five at
# about 0.3 s (width-11 gadgets and 19-variable instances) and six at about
# 0.75 s (20-variable instances).  The median falls in the middle plateau and
# the slowest quarter in the last, so neither jumps between job classes.
CERTIFY_CYCLE = (
    ("gadget", 11), ("instance", 20), ("gadget", 9), ("instance", 20),
    ("gadget", 11), ("instance", 19), ("gadget", 10), ("instance", 20),
    ("instance", 17), ("instance", 20), ("gadget", 11), ("instance", 19),
    ("gadget", 10), ("instance", 20), ("instance", 18), ("instance", 20),
)
CERTIFY_VARS = 7


def _certify_wcnf(rng: random.Random, n: int, target: int) -> str:
    """Clauses of width 2..4 until the compiled problem has ``target`` variables."""
    lines: List[str] = []
    aux = 0
    while aux < target - n or len(lines) < 2 * n:
        k = min(rng.randint(2, 4), 2 + target - n - aux)
        lines.append(_clause_line(rng, n, k))
        aux += k - 2
    return _wcnf(n, lines)


def certify_pool(rng: random.Random, count: int) -> List[Job]:
    """Gadget certifications, sequential and random tree shapes in turn,
    mixed with instance certifications."""
    jobs = []
    gadgets = 0
    for i in range(count):
        kind, size = CERTIFY_CYCLE[i % len(CERTIFY_CYCLE)]
        if kind == "gadget":
            shape = TreeShape.random(size, rng).format() if gadgets % 2 else "sequential"
            gadgets += 1
            jobs.append(Job("gadget", shape, width=size))
        else:
            text = _certify_wcnf(rng, CERTIFY_VARS, size)
            cost = brute_opt_cost_items(parse_cnf(text).clauses).cost
            jobs.append(Job("certify", text, source_cost=cost))
    return jobs


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random, int], List[Job]]
    # Jobs in the pool.  The timed loop runs the whole pool round after round,
    # so each job is timed several times; a pool takes 5-9 s per round.
    pool: int
    cli_jobs: int = 0  # leading jobs replayed through the command line when traced

    def jobs(self, name: str, seed: int) -> List[Job]:
        return self.build(random.Random(f"{name}/{seed}"), self.pool)


WORKLOADS: Dict[str, Workload] = {
    "sat3-discard": Workload(sat3_pool, pool=18, cli_jobs=2),
    "sat2-modes": Workload(sat2_pool, pool=180, cli_jobs=3),
    "certify": Workload(certify_pool, pool=16),
}


# ---------------------------------------------------------------------------
# Verdicts


def _proof_counts(counts: Counter, summary, steps) -> None:
    rules = Counter(step.rule for step in steps)
    counts["steps"] += len(steps)
    counts["cycles"] += rules["contra"]
    counts["xlate_steps"] += rules["xlate2"] + rules["xlate3"]
    counts["compact_steps"] += sum(n for rule, n in rules.items() if rule.startswith("compact"))
    counts["rounds"] += summary.rounds
    counts["budget"] += sum(budget for budget, _ in summary.round_stats)
    counts["budget_used"] += sum(used for _, used in summary.round_stats)


def _check_cut(problem, graph, variant: str) -> None:
    """The cut graph's node count and total edge weight, derived from the entries."""
    units = {0: Fraction(0), 1: Fraction(0)}
    weight = Fraction(0)
    midpoints = 0
    for constraint, w in problem.entries.items():
        routed = constraint.parity == 0 and (constraint.arity == 2 or variant == "single")
        midpoints += routed
        weight += 2 * w if routed else w
        if constraint.arity == 1:
            units[constraint.parity] += w
    anchors = 1
    if variant == "double":
        anchors = 2
        weight += min(units.values())
    nodes = problem.var_count + anchors + midpoints
    if graph.node_count != nodes or graph.total_weight() != weight:
        raise Mismatch(
            f"{variant} cut has {graph.node_count} nodes and weight {graph.total_weight()}, "
            f"expected {nodes} and {weight}"
        )


def _bound(job: Job, t) -> Outcome:
    with t.span("textio.parse_cnf"):
        instance = parse_cnf(job.text)
    with t.span("gadgets.compile_maxsat"):
        report = compile_maxsat(instance, strategy="sequential")
    with t.span("textio.emit_x2x"):
        problem_text = emit_x2x(report.problem)
    with t.span("textio.parse_x2x"):
        problem = parse_x2x(problem_text)

    counts = Counter(compiled_entries=len(problem.entries), aux_vars=len(report.aux_map))
    outcome = Outcome(counts)
    for mode in job.modes:
        with t.span("proofs.saturate." + mode):
            summary, steps = saturate(problem, mode=mode, max_rounds=RETRANSLATE_ROUNDS)
        with t.span("textio.emit_proof"):
            proof_text = emit_proof(steps)
        with t.span("textio.parse_proof"):
            replayed = parse_proof(proof_text)
        with t.span("proofs.check_proof"):
            checked = check_proof(problem, replayed, summary)
        with t.span("proofs.bound_to_original"):
            verdict = bound_to_original(summary, report)

        if not checked.accepted:
            raise Mismatch(f"{mode}: checker rejected step {checked.failing_step}: {checked.reason}")
        if job.source_cost is not None and verdict.lower_bound > job.source_cost:
            raise Mismatch(
                f"{mode}: lower bound {verdict.lower_bound} exceeds cost {job.source_cost}"
            )
        counts["bounds"] += 1
        counts["proof_bytes"] += len(proof_text)
        counts["unsat"] += int(verdict.unsat_proven)
        _proof_counts(counts, summary, steps)
        outcome.bound_m += summary.bound_m
        outcome.bounds.append(Bound(verdict.message, len(steps), summary.bound_m))

    if job.export_cut:
        for variant in ("single", "double"):
            with t.span("gadgets.to_maxcut"):
                graph = to_maxcut(problem, variant=variant)
            with t.span("textio.emit_maxcut"):
                emit_maxcut(graph)
            _check_cut(problem, graph, variant)
            counts["cut_edges"] += len(graph.edges)
    return outcome


def _certify_translation(t, counts: Counter, cl, items, params) -> None:
    with t.span("oracle.verify_gadget"):
        verdict = verify_gadget(cl, items, params)
    if not verdict.certified:
        raise Mismatch(f"width-{cl.k} translation not certified: {verdict.reason}")
    aux = {v for constraint, _ in items for v in constraint.vars} - set(cl.variables())
    counts["verify_cells"] += 2 ** (cl.k + len(aux))


def _gadget(job: Job, t) -> Outcome:
    k = job.width
    cl = clause(*range(1, k + 1))
    with t.span("gadgets.translate"):
        if job.text == "sequential":
            items = sequential_gadget(cl, None, VarAllocator(k + 1))
        else:
            items = tree_gadget(cl, TreeShape.parse(job.text), None, VarAllocator(k + 1))
    counts: Counter = Counter()
    _certify_translation(t, counts, cl, items, clause_params(k))
    return Outcome(counts)


def _certify(job: Job, t) -> Outcome:
    with t.span("textio.parse_cnf"):
        instance = parse_cnf(job.text)
    with t.span("gadgets.compile_maxsat"):
        report = compile_maxsat(instance, strategy="sequential")
    problem = report.problem
    with t.span("oracle.brute_opt_cost"):
        oracle = brute_opt_cost(problem)
    with t.span("proofs.saturate.discard"):
        summary, steps = saturate(problem, mode="discard")
    with t.span("proofs.check_proof"):
        checked = check_proof(problem, steps, summary)

    if oracle.cost != job.source_cost + report.shift:
        raise Mismatch(
            f"compiled cost {oracle.cost} is not source cost {job.source_cost} "
            f"plus shift {report.shift}"
        )
    if summary.bound_m > oracle.cost:
        raise Mismatch(f"bound {summary.bound_m} exceeds compiled cost {oracle.cost}")
    if evaluate(problem, oracle.cost_witness).unsatisfied != oracle.cost:
        raise Mismatch("the oracle's witness does not attain its cost")
    if not checked.accepted:
        raise Mismatch(f"checker rejected step {checked.failing_step}: {checked.reason}")

    counts = Counter(
        compiled_entries=len(problem.entries),
        aux_vars=len(report.aux_map),
        bounds=1,
        assignments=2 ** len(problem.variables()),
    )
    _proof_counts(counts, summary, steps)
    for k, params in sorted(report.params_per_arity.items()):
        cl = clause(*range(1, k + 1))
        if k <= 2:
            items = binary_gadget(Fraction(1), cl)
        else:
            items = sequential_gadget(cl, None, VarAllocator(k + 1))
        _certify_translation(t, counts, cl, items, params)
    return Outcome(counts, summary.bound_m)


_VERDICTS = {"bound": _bound, "gadget": _gadget, "certify": _certify}


def run_job(job: Job, tracer) -> Outcome:
    """Run one verdict; raises :class:`Mismatch` when a check fails."""
    return _VERDICTS[job.kind](job, tracer)
