"""Brute-force oracles: exact opt/cost and translation certification."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from max2xor import oracle
from max2xor.core import Max2XorError, SizeGuardError, clause, evaluate, normalize, xor
from max2xor.oracle import (
    brute_opt_cost,
    brute_opt_cost_items,
    unsat_weight_profile,
    verify_gadget,
)
from max2xor.gadgets import GadgetParams, TreeShape, compile_maxsat
from max2xor.textio import parse_cnf

F = Fraction
H = Fraction(1, 2)


def test_brute_on_binary_clause_translation():
    problem = normalize([(xor([1], 1), H), (xor([2], 1), H), (xor([1, 2], 1), H)])
    result = brute_opt_cost(problem)
    assert result.opt == F(1)
    assert result.cost == H
    # lexicographically least optimum: x=0, y=1 satisfies weight 1
    assert result.cost_witness == {1: 0, 2: 1}


def test_brute_on_pure_floor():
    problem = normalize([(xor([], 1), F(1))])
    result = brute_opt_cost(problem)
    assert result.opt == F(0)
    assert result.cost == F(1)
    assert result.cost_witness == {}


def test_brute_matches_evaluate_exhaustively():
    rng = random.Random(20240818)
    for _ in range(30):
        nvars = rng.randint(1, 6)
        raw = []
        for _ in range(rng.randint(1, 10)):
            arity = rng.randint(1, min(2, nvars))
            vars_ = rng.sample(range(1, nvars + 1), arity)
            raw.append((xor(vars_, rng.randint(0, 1)), F(rng.randint(1, 4), 2)))
        problem = normalize(raw)
        result = brute_opt_cost(problem)
        best = None
        for index in range(1 << nvars):
            assignment = {v: (index >> (nvars - v)) & 1 for v in range(1, nvars + 1)}
            unsat = evaluate(problem, assignment).unsatisfied
            if best is None or unsat < best:
                best = unsat
        assert result.cost == best


def test_brute_mixed_clause_and_parity_items():
    items = [
        (clause(1, 2), F(1)),
        (xor([1], 0), F(1)),
        (xor([2], 0), F(1)),
    ]
    result = brute_opt_cost_items(items)
    # x=0,y=1 or x=1,y=0 satisfy clause plus one unit
    assert result.opt == F(2)
    assert result.cost == F(1)


def test_brute_guard():
    items = [(xor([v], 1), F(1)) for v in range(1, 28)]
    with pytest.raises(SizeGuardError):
        brute_opt_cost_items(items)
    with pytest.raises(SizeGuardError):
        brute_opt_cost_items(items[:5], max_vars=4)


def test_verify_gadget_accepts_binary_row():
    translation = [(xor([1], 1), H), (xor([2], 1), H), (xor([1, 2], 1), H)]
    verdict = verify_gadget(clause(1, 2), translation, GadgetParams(F(1), F(3, 2), 0))
    assert verdict.certified


def test_verify_gadget_rejects_beta_mismatch():
    translation = [(xor([1], 1), H), (xor([2], 1), H), (xor([1, 2], 1), H)]
    verdict = verify_gadget(clause(1, 2), translation, GadgetParams(F(1), F(2), 0))
    assert not verdict.certified
    assert "beta" in verdict.reason


def test_verify_gadget_rejects_wrong_alpha_with_counterexample():
    translation = [(xor([1], 1), H), (xor([2], 1), H), (xor([1, 2], 1), H)]
    verdict = verify_gadget(clause(1, 2), translation, GadgetParams(H, F(3, 2), 0))
    assert not verdict.certified
    assert verdict.counterexample is not None
    assignment, achieved = verdict.counterexample
    assert achieved != verdict.alpha or not clause(1, 2).satisfied_by(assignment)


def test_oracle_agrees_with_evaluate_on_translations():
    # cross-module consistency: the vectorized enumeration and the pure
    # Fraction evaluation see the same satisfied weight on every assignment
    from max2xor.gadgets import VarAllocator, sequential_gadget
    from max2xor.oracle import unsat_weight_profile

    for k in range(2, 6):
        cl = clause(*range(1, k + 1))
        items = sequential_gadget(cl, 2 * k, VarAllocator(k + 1))
        order = sorted({v for c, _ in items for v in c.vars})
        profile = unsat_weight_profile(items, order)
        total = sum((w for _, w in items), F(0))
        problem = normalize(items)
        n = len(order)
        for index in range(1 << n):
            assignment = {v: (index >> (n - 1 - j)) & 1 for j, v in enumerate(order)}
            result = evaluate(problem, assignment)
            assert result.unsatisfied == profile[index]
            assert result.satisfied == total - profile[index]


def _sequential_setup(k):
    from max2xor.gadgets import VarAllocator, sequential_gadget

    cl = clause(*range(1, k + 1))
    anchor = 2 * k
    items = sequential_gadget(cl, anchor, VarAllocator(k + 1))
    collectors = list(range(k + 1, 2 * k - 1)) + [anchor]
    return cl, items, collectors


def _satisfied_count(items, assignment):
    return sum(1 for c, _ in items if c.satisfied_by(assignment))


def _max_count_over(items, assignment, free):
    best = -1
    for mask in range(1 << len(free)):
        for j, v in enumerate(free):
            assignment[v] = (mask >> j) & 1
        best = max(best, _satisfied_count(items, assignment))
    for v in free:
        del assignment[v]
    return best


def test_sequential_extension_b_equals_next_literal():
    # extending with b_i = x_(i+1) satisfies 2(k-1) constraints, the maximum
    for k in range(2, 9):
        _, items, collectors = _sequential_setup(k)
        for index in range(1 << k):
            assignment = {v: (index >> (v - 1)) & 1 for v in range(1, k + 1)}
            for i, b in enumerate(collectors, start=1):
                assignment[b] = assignment[i + 1]
            assert _satisfied_count(items, assignment) == 2 * (k - 1)
            if k <= 6:
                base = {v: assignment[v] for v in range(1, k + 1)}
                assert _max_count_over(items, base, collectors) == 2 * (k - 1)


def test_sequential_extension_conditional_with_anchor_one():
    # with the anchor forced to one, the conditional extension reaches
    # 2(k-2) when every literal is zero and 2(k-1) otherwise
    for k in range(2, 9):
        _, items, collectors = _sequential_setup(k)
        anchor = collectors[-1]
        inner = collectors[:-1]
        for index in range(1 << k):
            assignment = {v: (index >> (v - 1)) & 1 for v in range(1, k + 1)}
            assignment[anchor] = 1
            for i in range(k - 2, 0, -1):
                if all(assignment[j] == 0 for j in range(i + 2, k + 1)):
                    assignment[inner[i - 1]] = 1
                else:
                    assignment[inner[i - 1]] = assignment[i + 1]
            count = _satisfied_count(items, assignment)
            expected = 2 * (k - 2) if index == 0 else 2 * (k - 1)
            assert count == expected, (k, index)
            if k <= 6:
                base = {v: assignment[v] for v in range(1, k + 1)}
                base[anchor] = 1
                assert _max_count_over(items, base, inner) == expected


def test_verify_gadget_with_aux_extension():
    # (x or y) with witness z constrained to equal x: max extension recovers (1, 5/2)
    translation = [
        (xor([1], 1), H),
        (xor([2], 1), H),
        (xor([1, 2], 1), H),
        (xor([1, 3], 0), H),
        (xor([3], 1), H),
    ]
    # satisfied source: pick z=x optimal? exhaustive check over z
    # x=1,y=*: sat from first three is 1; z=1 satisfies both extras -> 2
    # x=0,y=1: first three give 1; z=0 satisfies x+z=0 only -> 3/2; z=1 gives 1/2+...
    # so alpha would not be uniform; expect rejection
    verdict = verify_gadget(clause(1, 2), translation, GadgetParams(F(2), F(5, 2), 1))
    assert not verdict.certified

    # clause (x) translated as {<1> x=1} certifies (1, 1)
    verdict = verify_gadget(clause(1), [(xor([1], 1), F(1))], GadgetParams(F(1), F(1), 0))
    assert verdict.certified


# ---------------------------------------------------------------------------
# Differential tests against a pure Fraction enumeration


def _vars_of(constraint):
    return constraint.variables() if hasattr(constraint, "lits") else constraint.vars


def _reference_profile(items, order, fixed=None):
    """(assignment, unsatisfied weight) for every assignment of ``order``,
    lexicographically, with the variables of ``fixed`` held at its values."""
    for values in product((0, 1), repeat=len(order)):
        assignment = dict(zip(order, values))
        if fixed:
            assignment.update(fixed)
        yield assignment, sum(
            (w for c, w in items if not c.satisfied_by(assignment)), F(0)
        )


def _reference_brute(items, floor):
    order = sorted({v for c, _ in items for v in _vars_of(c)})
    best = witness = None
    for assignment, unsat in _reference_profile(items, order):
        if best is None or unsat < best:
            best, witness = unsat, assignment
    total = sum((w for _, w in items), F(0))
    return total - best, floor + best, witness


def _reference_rows(source, translation):
    """Each source assignment, lexicographically, with the best satisfied
    weight over its extensions to the auxiliaries."""
    total = sum((w for _, w in translation), F(0))
    src = sorted(set(source.variables()))
    aux = sorted({v for c, _ in translation for v in _vars_of(c)} - set(src))
    for values in product((0, 1), repeat=len(src)):
        assignment = dict(zip(src, values))
        extensions = _reference_profile(translation, aux, assignment)
        yield assignment, max(total - unsat for _, unsat in extensions)


def _reference_verdict(source, translation, alpha, beta, rows=None):
    total = sum((w for _, w in translation), F(0))
    if total != beta:
        return False, None, f"claimed beta {beta} differs from total weight {total}"
    for assignment, best in rows or _reference_rows(source, translation):
        expected = alpha if source.satisfied_by(assignment) else alpha - 1
        if best != expected:
            reason = f"source assignment {assignment} reaches {best}, expected {expected}"
            return False, (assignment, best), reason
    return True, None, None


def _random_items(rng, nvars, count, weight):
    items = []
    for _ in range(count):
        r = rng.random()
        if r < 0.05:
            constraint = clause()  # the empty clause
        elif r < 0.1:
            constraint = xor([], rng.randint(0, 1))  # constant parity item
        elif r < 0.55:
            vs = sorted(rng.sample(range(1, nvars + 1), rng.randint(1, min(4, nvars))))
            constraint = clause(*[v if rng.random() < 0.5 else -v for v in vs])
        else:
            vs = rng.sample(range(1, nvars + 1), rng.randint(1, min(2, nvars)))
            constraint = xor(vs, rng.randint(0, 1))
        items.append((constraint, weight(rng)))
    return items


WEIGHTS = {
    "small": lambda rng: F(rng.randint(1, 3)),
    "fractional": lambda rng: F(rng.randint(1, 9), rng.choice([1, 2, 3, 4, 6, 7])),
    "int64": lambda rng: F(rng.randint(2**28, 2**30), rng.choice([1, 3])),
    "object": lambda rng: F(rng.randint(2**60, 2**61), rng.choice([1, 5])),
}
# the accumulator most sets of each weight class need
ACCUMULATOR = {"small": np.int32, "fractional": np.int32, "int64": np.int64, "object": object}


@pytest.mark.parametrize("chunk_bits", [16, 2])
@pytest.mark.parametrize("weights", sorted(WEIGHTS))
def test_brute_and_profile_match_fraction_reference(weights, chunk_bits, monkeypatch):
    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(f"brute/{weights}")
    hits = 0
    for _ in range(25):
        nvars = rng.randint(1, 7)
        items = _random_items(rng, nvars, rng.randint(1, 14), WEIGHTS[weights])
        hits += oracle._dtype_for(sum(oracle._scaled(items)[2])) is ACCUMULATOR[weights]
        floor = F(rng.randint(0, 5), rng.randint(1, 3))
        result = brute_opt_cost_items(items, floor=floor)
        opt, cost, witness = _reference_brute(items, floor)
        assert (result.opt, result.cost) == (opt, cost)
        assert result.cost_witness == witness

        order = sorted({v for c, _ in items for v in _vars_of(c)} | {nvars + 1})
        rng.shuffle(order)
        profile = unsat_weight_profile(items, order, floor=floor)
        assert profile == [floor + unsat for _, unsat in _reference_profile(items, order)]
    assert hits >= 15


def test_accumulator_widths():
    assert oracle._dtype_for(2**31 - 1) is np.int32
    assert oracle._dtype_for(2**31) is np.int64
    assert oracle._dtype_for(2**62 - 1) is np.int64
    assert oracle._dtype_for(2**62) is object


@pytest.mark.parametrize("chunk_bits", [16, 2])
def test_more_than_255_items_share_one_weight(chunk_bits, monkeypatch):
    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(255)
    items = _random_items(rng, 5, 300, lambda rng: F(3, 2))
    items += _random_items(rng, 5, 40, WEIGHTS["small"])
    result = brute_opt_cost_items(items)
    opt, cost, witness = _reference_brute(items, F(0))
    assert (result.opt, result.cost, result.cost_witness) == (opt, cost, witness)


def test_witness_stays_least_when_ties_straddle_chunks(monkeypatch):
    # with 2-bit chunks, variables 1-3 are fixed within each chunk; the optimum
    # needs x2 = 1 and x4 != x5, so it first appears at index 0b01001 and again
    # in three later chunks, twice within each of them
    monkeypatch.setattr(oracle, "_CHUNK_BITS", 2)
    items = [(xor([2], 1), F(1)), (xor([4, 5], 1), F(1)), (clause(1, 3, 5), F(1, 3))]
    result = brute_opt_cost_items(items)
    assert result.cost_witness == {1: 0, 2: 1, 3: 0, 4: 0, 5: 1}
    assert result.cost_witness == _reference_brute(items, F(0))[2]
    assert result.cost == 0


def _gadget_cases():
    from max2xor.gadgets import TreeShape, VarAllocator, clause_params, sequential_gadget
    from max2xor.gadgets import tree_gadget, trevisan_3to2

    yield clause(1, -2), [(xor([1], 1), H), (xor([2], 0), H), (xor([1, 2], 0), H)], (F(1), F(3, 2))
    cl = clause(1, 2, 3)
    yield cl, trevisan_3to2(cl, VarAllocator(4)), (F(7, 2), F(4))
    for k in (3, 5):
        cl = clause(*range(1, k + 1))
        params = clause_params(k)
        yield cl, sequential_gadget(cl, None, VarAllocator(k + 1)), (params.alpha, params.beta)
        yield cl, sequential_gadget(cl, 2 * k, VarAllocator(k + 1)), (params.alpha, params.beta)
    cl = clause(1, -2, 3, -4, 5)
    shape = TreeShape.random(5, random.Random(5))
    params = clause_params(5)
    yield cl, tree_gadget(cl, shape, None, VarAllocator(6)), (params.alpha, params.beta)


@pytest.mark.parametrize("chunk_bits", [16, 2])
def test_verify_gadget_matches_fraction_reference(chunk_bits, monkeypatch):
    # with 2-bit chunks the width-5 gadgets have more auxiliary variables than
    # chunk bits, so one source row spans several chunks; the narrow ones fit
    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    for source, translation, (alpha, beta) in _gadget_cases():
        for a, b in ((alpha, beta), (alpha - H, beta), (alpha + 1, beta), (alpha, beta + 1)):
            verdict = verify_gadget(source, translation, GadgetParams(a, b, None))
            expected = _reference_verdict(source, translation, a, b)
            assert (verdict.certified, verdict.counterexample, verdict.reason) == expected
    # a wrong alpha on the width-5 sequential gadget fails at the all-zero row
    source, translation, (alpha, beta) = list(_gadget_cases())[4]
    verdict = verify_gadget(source, translation, GadgetParams(alpha - H, beta, None))
    assert verdict.counterexample == ({v: 0 for v in range(1, 6)}, alpha - 1)


@pytest.mark.parametrize("chunk_bits", [16, 2])
def test_verify_gadget_on_random_translations(chunk_bits, monkeypatch):
    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(77)
    for trial in range(40):
        k = rng.randint(1, 3)
        source = clause(*[v if rng.random() < 0.5 else -v for v in range(1, k + 1)])
        weight = WEIGHTS[("small", "fractional", "object")[trial % 3]]
        translation = _random_items(rng, k + rng.randint(0, 4), rng.randint(1, 10), weight)
        total = sum((w for _, w in translation), F(0))
        # every other trial claims the best satisfied weight of the all-zero
        # source row, so that row passes and a later one may fail or none
        alpha = F(rng.randint(0, 8), 2)
        if trial % 2:
            zero = {v: 0 for v in source.variables()}
            aux = sorted({v for c, _ in translation for v in _vars_of(c)} - set(zero))
            alpha = max(total - u for _, u in _reference_profile(translation, aux, zero))
            alpha += 0 if source.satisfied_by(zero) else 1
        verdict = verify_gadget(source, translation, GadgetParams(alpha, total, None))
        expected = _reference_verdict(source, translation, alpha, total)
        assert (verdict.certified, verdict.counterexample, verdict.reason) == expected


def test_profile_rejects_a_repeated_variable():
    # a repeated variable would score each index by its later position only
    items = [(xor([1, 2], 1), F(1))]
    with pytest.raises(Max2XorError, match="repeats variable 1"):
        unsat_weight_profile(items, [1, 2, 1])


# ---------------------------------------------------------------------------
# Prefix conditioning against full enumeration and the Fraction reference


def _full_enumeration(monkeypatch, items, floor=F(0)):
    with monkeypatch.context() as m:
        m.setattr(oracle, "_split", lambda item_vars, order: (1 << len(order), len(order), []))
        result = brute_opt_cost_items(items, floor=floor)
    assert result.stats["components"] == 0
    return result


def _outcome(result):
    return result.opt, result.cost, result.cost_witness


def _compiled_cnf(rng, nsrc, target):
    """Random clauses of width 2..4 over ``nsrc`` variables until their
    translations hold ``target`` variables."""
    lines, aux = [], 0
    while aux < target - nsrc or len(lines) < 2 * nsrc:
        k = min(rng.randint(2, 4), 2 + target - nsrc - aux)
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nsrc + 1), k)]
        lines.append(" ".join(map(str, lits)) + " 0")
        aux += k - 2
    return f"p cnf {nsrc} {len(lines)}\n" + "\n".join(lines) + "\n"


COMPILED = """p cnf 7 9
1 -2 3 4 0
-1 2 -5 6 0
2 3 -6 7 0
-3 4 5 -7 0
1 -4 6 7 0
-2 -5 -6 7 0
1 3 5 0
-1 -7 0
2 6 0
"""


def test_oracle_stats_count_the_split():
    # 7 source variables and 13 auxiliaries: once the sources are fixed, each
    # wide clause's auxiliaries form a component of their own, six pairs and
    # one single, so 2**7 * (1 + 6 * 2**2 + 2**1) assignments against 2**20
    problem = compile_maxsat(parse_cnf(COMPILED)).problem
    assert len(problem.variables()) == 20
    result = brute_opt_cost(problem)
    assert result.stats == {"assignments": 3456, "prefix": 7, "components": 7}
    assert brute_opt_cost_items([(xor([1], 1), F(1))]).stats == {
        "assignments": 2,
        "prefix": 1,
        "components": 0,
    }


@pytest.mark.parametrize("chunk_bits, nsrc, target", [(16, 7, 20), (4, 4, 10)])
@pytest.mark.parametrize("strategy", ["sequential", "tree"])
def test_split_matches_full_enumeration_on_compiled_instances(
    strategy, chunk_bits, nsrc, target, monkeypatch
):
    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(f"compiled/{strategy}/{chunk_bits}")
    for _ in range(4):
        instance = parse_cnf(_compiled_cnf(rng, nsrc, target))
        shapes = {i: TreeShape.random(cl.k, rng) for i, (cl, _) in enumerate(instance.clauses)}
        if strategy != "tree":
            shapes = None  # drawn either way, so both strategies see the same instances
        problem = compile_maxsat(instance, strategy=strategy, shapes=shapes).problem
        items = problem.sorted_entries()
        result = brute_opt_cost(problem)
        assert result.stats["components"] > 0
        assert _outcome(result) == _outcome(_full_enumeration(monkeypatch, items, problem.floor))
        if chunk_bits == 4:
            opt, cost, witness = _reference_brute(items, problem.floor)
            assert _outcome(result) == (opt, cost, witness)


def _relabel(items, names):
    """``items`` with variable v renamed ``names[v - 1]``."""
    renamed = []
    for c, w in items:
        if hasattr(c, "lits"):
            c = clause(*[names[abs(l) - 1] * (1 if l > 0 else -1) for l in c.lits])
        else:
            c = xor([names[v - 1] for v in c.vars], c.parity)
        renamed.append((c, w))
    return renamed


def _blocks(rng, nsrc, block_vars, weight):
    """Random items over ``nsrc`` source variables, then blocks of 1-3 fresh
    variables, each sharing items with up to two source variables only; each
    fresh variable occurs in a unit parity item at least."""
    items = _random_items(rng, nsrc, rng.randint(1, 2 * nsrc), weight)
    fresh = nsrc + 1
    while fresh <= nsrc + block_vars:
        size = min(rng.randint(1, 3), nsrc + block_vars + 1 - fresh)
        names = list(range(fresh, fresh + size)) + rng.sample(range(1, nsrc + 1), min(2, nsrc))
        items += _relabel(_random_items(rng, len(names), rng.randint(1, 4), weight), names)
        items += [(xor([v], rng.randint(0, 1)), weight(rng)) for v in names[:size]]
        fresh += size
    rng.shuffle(items)
    return items


@pytest.mark.parametrize("chunk_bits, nsrc, block_vars", [(16, 5, 12), (2, 3, 5)])
@pytest.mark.parametrize("weights", ["int64", "object"])
def test_split_matches_full_enumeration_on_random_items(
    weights, chunk_bits, nsrc, block_vars, monkeypatch
):
    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(f"split/{weights}/{chunk_bits}")
    splits = var_free = 0
    for _ in range(6 if chunk_bits == 16 else 25):
        items = _blocks(rng, nsrc, block_vars, WEIGHTS[weights])
        var_free += any(not _vars_of(c) for c, _ in items)
        floor = F(rng.randint(0, 5), rng.randint(1, 3))
        result = brute_opt_cost_items(items, floor=floor)
        splits += result.stats["components"] > 0
        assert _outcome(result) == _outcome(_full_enumeration(monkeypatch, items, floor))
        if chunk_bits == 2:
            opt, cost, witness = _reference_brute(items, floor)
            assert _outcome(result) == (opt, cost, witness)
    assert splits >= 3 and var_free >= 1


@pytest.mark.parametrize("chunk_bits", [16, 2])
def test_verify_gadget_on_shipped_families(chunk_bits, monkeypatch):
    # the translations ``max2xor gadget-verify`` certifies, with their claims
    # and with a wrong alpha; at 2 chunk bits the wider rows span chunks
    from argparse import Namespace

    from max2xor.cli import _verify_family

    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    families = [("binary", 1), ("binary", 2), ("trevisan", 3), ("chain", 4), ("chain", 5)]
    families += [("t0", k) for k in range(2, 7)] + [("t", k) for k in range(3, 7)]
    for family, k in families:
        for shape in ("balanced", "left", "random") if family == "t" else (None,):
            args = Namespace(family=family, k=k, shape=shape, seed=k)
            source, translation, claimed = _verify_family(args)
            for alpha in (claimed.alpha, claimed.alpha - H):
                verdict = verify_gadget(source, translation, GadgetParams(alpha, claimed.beta, None))
                expected = _reference_verdict(source, translation, alpha, claimed.beta)
                assert (verdict.certified, verdict.counterexample, verdict.reason) == expected
                assert verdict.certified == (alpha == claimed.alpha)


# ---------------------------------------------------------------------------
# Bucket elimination of the auxiliaries against the Fraction reference


def test_verify_gadget_matches_fraction_reference_on_wide_gadgets(monkeypatch):
    # the sequential and a seeded random-tree translation of widths 2-9, under
    # both chunk sizes; at 2 chunk bits every bucket table spans several chunks
    from max2xor.gadgets import VarAllocator, clause_params, tree_gadget

    rng = random.Random("wide")
    eliminated = set()
    for k in range(2, 10):
        source = clause(*[v if rng.random() < 0.5 else -v for v in range(1, k + 1)])
        params = clause_params(k)
        for shape in (TreeShape.left_comb(k), TreeShape.random(k, rng)):
            translation = tree_gadget(source, shape, None, VarAllocator(k + 1))
            rows = list(_reference_rows(source, translation))
            alphas = (params.alpha, params.alpha - H, params.alpha + 1)
            for chunk_bits, alpha in product((16, 2), alphas):
                monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
                claimed = GadgetParams(alpha, params.beta, None)
                verdict = verify_gadget(source, translation, claimed)
                expected = _reference_verdict(source, translation, alpha, params.beta, rows)
                assert (verdict.certified, verdict.counterexample, verdict.reason) == expected
                assert verdict.certified == (alpha == params.alpha)
                if verdict.stats["eliminated"]:
                    eliminated.add(k)
    assert eliminated == {8, 9}


def _mixed_translation(rng, weight):
    """A source clause of width 1-3 and a translation over it and 4-8
    auxiliaries: parity pairs among the auxiliaries at a random density or none,
    source-auxiliary pairs, clause items of ``trevisan_3to2`` and
    ``chain_to_3sat`` and full-parity items, all reweighted by ``weight``."""
    from max2xor.gadgets import VarAllocator, chain_to_3sat, expand_full_parity, trevisan_3to2

    k = rng.randint(1, 3)
    source = clause(*[v if rng.random() < 0.5 else -v for v in range(1, k + 1)])
    target = rng.randint(4, 8)
    # chain_to_3sat adds width - 3 variables and needs width names
    width = rng.choice([4, 5]) if k + target >= 7 else 4
    alloc = VarAllocator(k + 1)
    names = list(range(1, k + 1)) + [alloc.fresh() for _ in range(target - width + 2)]

    def some_clause(n):
        return clause(*[v if rng.random() < 0.5 else -v for v in rng.sample(names, n)])

    items = trevisan_3to2(some_clause(3), alloc)
    names.append(alloc.next_id - 1)  # its fresh variable
    items += chain_to_3sat(some_clause(width), alloc)
    items += expand_full_parity(some_clause(rng.randint(2, 3)))
    aux = list(range(k + 1, k + 1 + target))
    density = rng.choice([0.0, rng.random()])
    for i, u in enumerate(aux):
        items += [(xor([u, v], rng.randint(0, 1)), 1) for v in aux[:i] if rng.random() < density]
        if rng.random() < 0.5:
            items.append((xor([u, rng.randint(1, k)], rng.randint(0, 1)), 1))
    rng.shuffle(items)
    return source, [(c, weight(rng)) for c, _ in items]


@pytest.mark.parametrize("chunk_bits", [16, 2])
def test_verify_gadget_on_mixed_translations(chunk_bits, monkeypatch):
    # dense auxiliaries fall back to one call over every cell; sparse ones
    # are eliminated, with clause and full-parity items in the buckets
    monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(f"mixed/{chunk_bits}")
    counts = {"fallback": 0, "eliminated": 0, "object": 0}
    for trial in range(60):
        weight = WEIGHTS[("small", "fractional", "object")[trial % 3]]
        source, translation = _mixed_translation(rng, weight)
        total = sum((w for _, w in translation), F(0))
        rows = list(_reference_rows(source, translation))
        # every other trial claims the all-zero row's best, so that row passes
        alpha = F(rng.randint(0, 8), 2)
        if trial % 2:
            alpha = rows[0][1] + (0 if source.satisfied_by(rows[0][0]) else 1)
        verdict = verify_gadget(source, translation, GadgetParams(alpha, total, None))
        expected = _reference_verdict(source, translation, alpha, total, rows)
        assert (verdict.certified, verdict.counterexample, verdict.reason) == expected
        counts["eliminated" if verdict.stats["eliminated"] else "fallback"] += 1
        counts["object"] += oracle._dtype_for(sum(oracle._scaled(translation)[2])) is object
    assert counts["fallback"] >= 20, counts
    assert counts["eliminated"] >= 5 and counts["object"] >= 10, counts


def test_verify_gadget_stats_count_kernel_cells():
    from max2xor.gadgets import VarAllocator, clause_params, sequential_gadget

    def stats(k):
        cl = clause(*range(1, k + 1))
        translation = sequential_gadget(cl, None, VarAllocator(k + 1))
        verdict = verify_gadget(cl, translation, clause_params(k))
        assert verdict.certified
        return verdict.stats

    # width 11: nine auxiliaries eliminated one at a time, eight buckets over
    # the 2**11 source rows and two auxiliaries and the last over one, then
    # the 2**11 source check; enumerating every cell takes 2**20
    assert stats(11) == {"cells": 8 * 2**13 + 2**12 + 2**11, "eliminated": 9}
    # width 5: the buckets would take 2**7 + 2**7 + 2**6 cells, over half of
    # 2**8, so one call enumerates every cell
    assert stats(5) == {"cells": 2**8 + 2**5, "eliminated": 0}
    # a path of ten auxiliaries would pay, but four more joined pairwise need
    # a bucket spanning four, so one call enumerates every cell
    path = [(xor([1, 2], 0), F(1))] + [(xor([u, u + 1], 1), F(1)) for u in range(2, 11)]
    assert verify_gadget(clause(1), path, GadgetParams(F(10), F(10), None)).stats == {
        "cells": 9 * 2**3 + 2**2 + 2**1,
        "eliminated": 10,
    }
    pairs = [(xor([u, v], 1), F(1)) for u in range(12, 16) for v in range(u + 1, 16)]
    translation = path + pairs + [(xor([1, 12], 0), F(1))]
    verdict = verify_gadget(clause(1), translation, GadgetParams(F(13), F(17), None))
    assert verdict.stats == {"cells": 2**15 + 2**1, "eliminated": 0}
    verdict = verify_gadget(clause(1), translation, GadgetParams(F(13), F(16), None))
    assert "beta" in verdict.reason and verdict.stats == {"cells": 0, "eliminated": 0}
