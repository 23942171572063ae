"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check is exact (rational arithmetic or integer enumeration);
the stated time budgets are asserted.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from max2xor.core import XorConstraint, clause, normalize, xor
from max2xor.gadgets import (
    GadgetParams,
    TreeShape,
    VarAllocator,
    binary_gadget,
    chain_to_3sat,
    clause_params,
    compile_maxsat,
    compose_params,
    sequential_gadget,
    to_maxcut,
    tree_gadget,
    trevisan_3to2,
)
from max2xor.oracle import brute_opt_cost, brute_opt_cost_items, verify_gadget
from max2xor.checker import bound_to_original, check_proof
from max2xor.prover import saturate
from max2xor.rules import RULES, build_step
from max2xor.textio import parse_cnf

F = Fraction
H = Fraction(1, 2)


@contextmanager
def criterion(number, description, budget_seconds):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.time() - started
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s"
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_binary_rows_certify():
    with criterion(1, "all four binary-clause polarity rows certify as (1, 3/2)", 1.0):
        for lits in [(1, 2), (1, -2), (-1, 2), (-1, -2)]:
            cl = clause(*lits)
            verdict = verify_gadget(
                cl, binary_gadget(F(1), cl), GadgetParams(F(1), F(3, 2), 0)
            )
            assert verdict.certified, (lits, verdict.reason)


def test_criterion_2_sequential_certifies_all_widths():
    with criterion(2, "sequential translation certifies (k-1, 3(k-1)/2) for k=2..10", 30.0):
        for k in range(2, 11):
            cl = clause(*range(1, k + 1))
            items = sequential_gadget(cl, None, VarAllocator(k + 1))
            verdict = verify_gadget(cl, items, clause_params(k))
            assert verdict.certified, (k, verdict.reason)


def test_criterion_3_tree_certifies_every_shape():
    with criterion(
        3, "tree translation certifies for every shape k<=6 and 64 random shapes k=7..10", 60.0
    ):
        for k in range(2, 7):
            cl = clause(*range(1, k + 1))
            for shape in TreeShape.enumerate_all(k):
                items = tree_gadget(cl, shape, None, VarAllocator(k + 1))
                verdict = verify_gadget(cl, items, clause_params(k))
                assert verdict.certified, (k, shape.format(), verdict.reason)
        rng = random.Random(20240822)
        for k in range(7, 11):
            cl = clause(*range(1, k + 1))
            for _ in range(16):
                shape = TreeShape.random(k, rng)
                items = tree_gadget(cl, shape, None, VarAllocator(k + 1))
                verdict = verify_gadget(cl, items, clause_params(k))
                assert verdict.certified, (k, shape.format(), verdict.reason)


def test_criterion_4_ternary_figure_reproduction():
    with criterion(
        4, "compiling x1 v x2 v x3 gives the six half-weight constraints, certified (2, 3)", 5.0
    ):
        from max2xor.textio import WcnfInstance

        report = compile_maxsat(WcnfInstance(3, [(clause(1, 2, 3), F(1))]))
        entries = report.problem.entries
        assert len(entries) == 6
        assert set(entries.values()) == {H}
        assert report.problem.weight() == F(3)
        assert report.aux_map == {4: 0}
        # isomorphic to the reference constraint list under the variable map
        # mine -> reference: 1 -> x1, 2 -> x3, 3 -> x2, 4 -> b
        renaming = {1: 1, 2: 3, 3: 2, 4: 4}  # reference ids: x1=1, x2=2, x3=3, b=4
        renamed = {
            XorConstraint(tuple(sorted(renaming[v] for v in c.vars)), c.parity)
            for c in entries
        }
        reference = {
            xor([1, 3], 1),   # x1 + x3 = 1
            xor([1, 4], 0),   # x1 + b = 0
            xor([3, 4], 0),   # x3 + b = 0
            xor([2, 4], 1),   # x2 + b = 1
            xor([4], 1),      # b = 1
            xor([2], 1),      # x2 = 1
        }
        assert renamed == reference
        verdict = verify_gadget(
            clause(1, 2, 3), list(report.problem.sorted_entries()), GadgetParams(F(2), F(3), 1)
        )
        assert verdict.certified, verdict.reason


def test_criterion_5_ternary_to_binary_composition_and_cancellation():
    with criterion(
        5,
        "ternary-to-binary translation certifies (7/2, 4); composition (7/2, 6) "
        "before normalization and (2, 3) after",
        5.0,
    ):
        cl = clause(1, 2, 3)
        ternary = trevisan_3to2(cl, VarAllocator(4))
        verdict = verify_gadget(cl, ternary, GadgetParams(F(7, 2), F(4), 1))
        assert verdict.certified, verdict.reason

        composed = []
        for c2, w in ternary:
            composed.extend((c, w * wi) for c, wi in binary_gadget(F(1), c2))
        assert compose_params(
            GadgetParams(F(7, 2), F(4)), GadgetParams(F(1), F(3, 2))
        ) == GadgetParams(F(7, 2), F(6))
        verdict = verify_gadget(cl, composed, GadgetParams(F(7, 2), F(6), 1))
        assert verdict.certified, verdict.reason

        problem = normalize(composed)
        cancelled = problem.floor
        assert cancelled == F(3, 2)
        verdict = verify_gadget(
            cl,
            list(problem.sorted_entries()),
            GadgetParams(F(7, 2) - cancelled, F(6) - 2 * cancelled, 1),
        )
        assert verdict.certified, verdict.reason


def test_criterion_6_chain_composition():
    with criterion(
        6, "chain splitting composed with the ternary gadget certifies (2(k-2), 3(k-2)) "
        "for k=4, 5", 10.0
    ):
        for k in (4, 5):
            cl = clause(*range(1, k + 1))
            alloc = VarAllocator(k + 1)
            composed = []
            for ternary, w in chain_to_3sat(cl, alloc):
                items = sequential_gadget(ternary, None, alloc)
                composed.extend((c, w * wi) for c, wi in items)
            claimed = GadgetParams(F(2 * (k - 2)), F(3 * (k - 2)), 2 * k - 5)
            verdict = verify_gadget(cl, composed, claimed)
            assert verdict.certified, (k, verdict.reason)


EXAMPLE_WCNF = """p wcnf 3 9
1 2 0
2 1 2 0
1 -1 -2 0
1 1 -2 0
2 2 -3 0
3 -2 3 0
1 1 3 0
2 -1 -3 0
3 -1 3 0
"""


def test_criterion_7_nine_clause_reproduction():
    with criterion(
        7, "the nine weighted clauses compile bit-exactly with cancellation floor 17/2", 5.0
    ):
        report = compile_maxsat(parse_cnf(EXAMPLE_WCNF))
        assert report.problem.entries == {
            xor([1], 0): F(1),
            xor([2], 1): H,
            xor([3], 1): F(3, 2),
            xor([1, 2], 1): F(1),
            xor([2, 3], 0): F(5, 2),
        }
        assert report.problem.floor == F(17, 2)
        # independent accounting: compiled cost exceeds the source cost by the shift
        source_cost = brute_opt_cost_items(parse_cnf(EXAMPLE_WCNF).clauses).cost
        compiled_cost = brute_opt_cost(report.problem).cost
        assert source_cost == F(1)
        assert compiled_cost == source_cost + report.shift
        assert report.shift == F(15, 2)


def test_criterion_8_rule_soundness_suite():
    with criterion(
        8, "all eight plain rules preserve unsatisfied weight exactly; compact rules "
        "offset by +w", 1.0
    ):
        from itertools import product

        plain = [
            ("chain00", xor([1, 2], 0), xor([1, 3], 0)),
            ("chain01", xor([1, 2], 0), xor([1, 3], 1)),
            ("chain11", xor([1, 2], 1), xor([1, 3], 1)),
            ("unit00", xor([1], 0), xor([1, 2], 0)),
            ("unit01", xor([1], 0), xor([1, 2], 1)),
            ("unit10", xor([1], 1), xor([1, 2], 0)),
            ("unit11", xor([1], 1), xor([1, 2], 1)),
            ("contra", xor([1, 2], 0), xor([1, 2], 1)),
        ]
        for rule, p1, p2 in plain:
            step = build_step(rule, (p1, p2), F(1))
            variables = sorted(
                set(p1.vars) | set(p2.vars) | {v for c, _ in step.conclusions for v in c.vars}
            )
            for values in product((0, 1), repeat=len(variables)):
                assignment = dict(zip(variables, values))
                premise = sum(
                    (F(1) for p in (p1, p2) if not p.satisfied_by(assignment)), F(0)
                )
                conclusion = sum(
                    (m for c, m in step.conclusions if not c.satisfied_by(assignment)), F(0)
                ) + sum((m for r, m in step.residues if not r.satisfied_by(assignment)), F(0))
                assert conclusion == premise, (rule, assignment)

        compact = [
            ("compact00", xor([1, 2], 0), xor([1, 3], 0)),
            ("compact01", xor([1, 2], 0), xor([1, 3], 1)),
            ("compact11", xor([1, 2], 1), xor([1, 3], 1)),
        ]
        for rule, p1, p2 in compact:
            for weight in (F(1), H):
                step = build_step(rule, (p1, p2), weight, fresh_var=9)
                assert step.offset == weight
                for values in product((0, 1), repeat=3):
                    assignment = dict(zip((1, 2, 3), values))
                    premise = sum(
                        (weight for p in (p1, p2) if not p.satisfied_by(assignment)), F(0)
                    )
                    deltas = []
                    for y in (0, 1):
                        assignment[9] = y
                        conclusion = sum(
                            (
                                weight * m
                                for c, m in step.conclusions
                                if not c.satisfied_by(assignment)
                            ),
                            F(0),
                        )
                        deltas.append(conclusion - premise)
                    del assignment[9]
                    assert min(deltas) == weight and all(d >= weight for d in deltas)


def _random_parity_problem(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    m = rng.randint(3, 20)
    raw = []
    for _ in range(m):
        arity = rng.choice([1, 2, 2, 2])
        variables = rng.sample(range(1, n + 1), arity)
        numerator = rng.randint(1, 16)
        denominator = rng.choice([1, 2, 4])
        weight = F(numerator, denominator)
        if weight > 4:
            weight = F(numerator % 8 + 1, denominator)
        raw.append((xor(variables, rng.randint(0, 1)), weight))
    return normalize(raw, var_count=n)


def _tampered_variants(step):
    """A step's head altered: its weight doubled or halved, each other rule id
    of its form, its first premise flipped, a fresh variable added or dropped."""
    variants = [step._replace(weight=step.weight * 2), step._replace(weight=step.weight / 2)]
    form = RULES[step.rule].form
    variants += [
        step._replace(rule=rule)
        for rule, row in RULES.items()
        if row.form == form and rule != step.rule
    ]
    premise = step.premises[0]
    if isinstance(premise, XorConstraint):
        flipped = XorConstraint(premise.vars, premise.parity ^ 1)
        variants.append(step._replace(premises=(flipped,) + step.premises[1:]))
    variants.append(step._replace(fresh_var=None if step.fresh_var else 10**6))
    return variants


def test_criterion_9_bound_identity_on_random_instances():
    with criterion(
        9,
        "on 500 seeded instances and every residue mode: m + Cost(residual + residues) "
        "= Cost(input) exactly, round budgets hold, proofs verify, tampers are rejected",
        120.0,
    ):
        for seed in range(500):
            problem = _random_parity_problem(seed)
            input_cost = brute_opt_cost(problem).cost
            for mode in ("discard", "retranslate", "compact"):
                summary, steps = saturate(problem, mode=mode, max_rounds=2)
                leftovers = list(summary.residual.sorted_entries()) + list(
                    summary.residue_clauses
                )
                rest = brute_opt_cost_items(leftovers, floor=summary.residual.floor)
                assert summary.bound_m + rest.cost == input_cost, (seed, mode)
                for budget, used in summary.round_stats:
                    assert used <= budget, (seed, mode, summary.round_stats)
                verdict = check_proof(problem, steps, summary)
                assert verdict.accepted, (seed, mode, verdict.reason)
                if steps:
                    index = seed % len(steps)
                    for mutant in _tampered_variants(steps[index]):
                        broken = list(steps)
                        broken[index] = mutant
                        assert not check_proof(problem, broken, summary).accepted, (
                            seed,
                            mode,
                            mutant.rule,
                        )


def test_criterion_10_end_to_end_decision():
    with criterion(
        10, "the four-clause contradiction compiles with shift 2, derives m >= 3, "
        "and is reported UNSAT (compiled cost exactly 3)", 5.0
    ):
        report = compile_maxsat(parse_cnf("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"))
        assert report.shift == F(2)
        summary, steps = saturate(report.problem)
        assert summary.bound_m >= F(3)
        assert brute_opt_cost(report.problem).cost == F(3)
        verdict = bound_to_original(summary, report)
        assert verdict.unsat_proven
        assert verdict.message == "UNSAT lb=1/1"
        assert check_proof(report.problem, steps, summary).accepted


def _cut_items_with_anchor_fixed(graph):
    items = []
    for (u, v), weight in sorted(graph.edges.items()):
        if graph.anchor_zero in (u, v):
            other = v if u == graph.anchor_zero else u
            items.append((XorConstraint((other,), 1), weight))
        else:
            items.append((XorConstraint((u, v), 1), weight))
    return items


def test_criterion_11_cut_export():
    with criterion(
        11, "on 100 random instances the single-anchor cut preserves cost and the "
        "double-anchor balance edge equals min(sum x=0, sum x=1)", 60.0
    ):
        rng = random.Random(20240823)
        for _ in range(100):
            n = rng.randint(2, 8)
            raw = []
            for _ in range(rng.randint(2, 10)):
                arity = rng.choice([1, 1, 2, 2, 2])
                variables = rng.sample(range(1, n + 1), arity)
                raw.append(
                    (xor(variables, rng.randint(0, 1)), F(rng.randint(1, 8), rng.choice([1, 2, 4])))
                )
            problem = normalize(raw, var_count=n)

            graph = to_maxcut(problem, "single")
            source_cost = brute_opt_cost_items(list(problem.sorted_entries())).cost
            cut_cost = brute_opt_cost_items(_cut_items_with_anchor_fixed(graph)).cost
            assert cut_cost == source_cost

            double = to_maxcut(problem, "double")
            zero_weight = sum(
                (w for c, w in problem.sorted_entries() if c.arity == 1 and c.parity == 0), F(0)
            )
            one_weight = sum(
                (w for c, w in problem.sorted_entries() if c.arity == 1 and c.parity == 1), F(0)
            )
            balance = min(zero_weight, one_weight)
            key = (double.anchor_zero, double.anchor_one)
            if balance > 0:
                assert double.edges[key] == balance
            else:
                assert key not in double.edges
