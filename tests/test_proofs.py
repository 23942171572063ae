"""Resolution rules, the saturation engine, and the independent checker."""

import ast
import hashlib
import random
from collections import Counter, deque
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from max2xor.core import (
    EMPTY_CLAUSE,
    TAUTOLOGY,
    Max2XorError,
    X2XProblem,
    XorConstraint,
    clause,
    format_rational,
    normalize,
    xor,
)
from max2xor import checker, prover, rules, textio
from max2xor.checker import ProvenanceError, bound_to_original, check_proof
from max2xor.gadgets import (
    VarAllocator,
    binary_gadget,
    clause_params,
    compile_maxsat,
    sequential_gadget,
)
from max2xor.oracle import brute_opt_cost, brute_opt_cost_items, verify_gadget
from max2xor.prover import (
    MODES,
    _CycleIndex,
    _bfs_odd_walk,
    _next_cycle,
    _odd_walk_length,
    _triangle,
    find_odd_cycle,
    saturate,
)
from max2xor.rules import (
    PatternError,
    ProofStep,
    RuleApplicationError,
    _replay_step,
    apply_rule,
    build_step,
    make_state,
)
from max2xor.textio import emit_proof, emit_x2x, parse_cnf, parse_proof, parse_x2x

F = Fraction
H = Fraction(1, 2)


def unsat_weight(items, assignment):
    return sum((w for item, w in items if not item.satisfied_by(assignment)), F(0))


# ---------------------------------------------------------------------------
# Rule soundness by truth table


FIGURE_RULES = [
    ("chain00", xor([1, 2], 0), xor([1, 3], 0)),
    ("chain01", xor([1, 2], 0), xor([1, 3], 1)),
    ("chain11", xor([1, 2], 1), xor([1, 3], 1)),
    ("unit00", xor([1], 0), xor([1, 2], 0)),
    ("unit01", xor([1], 0), xor([1, 2], 1)),
    ("unit10", xor([1], 1), xor([1, 2], 0)),
    ("unit11", xor([1], 1), xor([1, 2], 1)),
    ("contra", xor([1, 2], 0), xor([1, 2], 1)),
]


@pytest.mark.parametrize("rule,p1,p2", FIGURE_RULES, ids=[r for r, _, _ in FIGURE_RULES])
def test_figure_rule_preserves_unsat_weight(rule, p1, p2):
    step = build_step(rule, (p1, p2), F(1))
    variables = sorted(set(p1.vars) | set(p2.vars) | {v for c, _ in step.conclusions for v in c.vars})
    for values in product((0, 1), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        premise_unsat = unsat_weight([(p1, F(1)), (p2, F(1))], assignment)
        conclusion_unsat = unsat_weight(
            [(c, m) for c, m in step.conclusions] + [(r, m) for r, m in step.residues],
            assignment,
        )
        assert conclusion_unsat == premise_unsat, (rule, assignment)


COMPACT_RULES = [
    ("compact00", xor([1, 2], 0), xor([1, 3], 0)),
    ("compact01", xor([1, 2], 0), xor([1, 3], 1)),
    ("compact11", xor([1, 2], 1), xor([1, 3], 1)),
]


@pytest.mark.parametrize("rule,p1,p2", COMPACT_RULES, ids=[r for r, _, _ in COMPACT_RULES])
def test_compact_rule_offsets_by_weight(rule, p1, p2):
    for weight in (F(1), H):
        step = build_step(rule, (p1, p2), weight, fresh_var=9)
        assert step.offset == weight
        for values in product((0, 1), repeat=3):
            assignment = dict(zip((1, 2, 3), values))
            premise_unsat = unsat_weight([(p1, weight), (p2, weight)], assignment)
            deltas = []
            for y in (0, 1):
                assignment[9] = y
                conclusion_unsat = unsat_weight(
                    [(c, weight * m) for c, m in step.conclusions], assignment
                )
                deltas.append(conclusion_unsat - premise_unsat)
            del assignment[9]
            # exactly +w at the best fresh value, never below
            assert min(deltas) == weight, (rule, assignment, deltas)
            assert all(d >= weight for d in deltas)


def test_compact_step_shape():
    step = build_step("compact00", (xor([1, 2], 0), xor([1, 3], 0)), F(1), fresh_var=9)
    assert step.conclusions == (
        (xor([2, 3], 1), F(1)),  # chain conclusion with flipped parity
        (xor([1, 9], 0), F(2)),
        (xor([2, 9], 0), F(2)),
        (xor([3, 9], 0), F(2)),
    )
    assert step.residues == ()


@pytest.mark.parametrize("k", [2, 3])
def test_xlate_rows_are_the_clause_translations(k):
    # every sign pattern; the fresh variable 4 lies between the clause's variables
    params = clause_params(k)
    for signs in product((1, -1), repeat=k):
        cl = clause(*(sign * v for sign, v in zip(signs, (2, 5, 7))))
        if k == 2:
            step = build_step("xlate2", (cl,), F(3, 2))
            reference = binary_gadget(F(1), cl)
        else:
            step = build_step("xlate3", (cl,), F(3, 2), fresh_var=4)
            reference = sequential_gadget(cl, None, VarAllocator(4))
        assert list(step.conclusions) == reference, cl
        assert verify_gadget(cl, list(step.conclusions), params).certified, cl
        assert step.offset / step.weight == params.gap


# ---------------------------------------------------------------------------
# Rule application against a state


def _weights(units, scale):
    """A state's integer units read as Fraction weights."""
    return {key: F(u, scale) for key, u in units.items()}


def test_contra_decomposition_protocol():
    state = make_state([(xor([1, 2], 0), F(3)), (xor([1, 2], 1), F(2))])
    step, derived = apply_rule(state, "contra", (xor([1, 2], 0), xor([1, 2], 1)), F(2))
    assert F(state.floor_units, state.scale) == F(2)
    assert _weights(state.entry_units, state.scale) == {xor([1, 2], 0): F(1)}
    assert step == ProofStep("contra", F(2), (xor([1, 2], 0), xor([1, 2], 1)))
    assert derived.conclusions == ((EMPTY_CLAUSE, F(1)),)


def test_chain00_example():
    state = make_state([(xor([1, 2], 0), F(1)), (xor([1, 3], 0), F(1))])
    _, derived = apply_rule(state, "chain00", (xor([1, 2], 0), xor([1, 3], 0)), F(1))
    assert _weights(state.entry_units, state.scale) == {xor([2, 3], 0): F(1)}
    assert _weights(state.residue_units, state.scale) == {
        clause(1, -2, -3): F(2),
        clause(-1, 2, 3): F(2),
    }
    assert derived.residues == ((clause(1, -2, -3), F(2)), (clause(-1, 2, 3), F(2)))


def test_unit10_example():
    state = make_state([(xor([1], 1), F(1)), (xor([1, 2], 0), F(1))])
    _, step = apply_rule(state, "unit10", (xor([1], 1), xor([1, 2], 0)), F(1))
    assert _weights(state.entry_units, state.scale) == {xor([2], 1): F(1)}
    assert _weights(state.residue_units, state.scale) == {clause(1, -2): F(2)}


def test_apply_rule_weight_protocol_errors():
    state = make_state([(xor([1, 2], 0), F(3)), (xor([1, 2], 1), F(2))])
    with pytest.raises(RuleApplicationError):
        apply_rule(state, "contra", (xor([1, 2], 0), xor([1, 2], 1)), F(3))  # > min
    with pytest.raises(RuleApplicationError):
        apply_rule(state, "contra", (xor([1, 2], 0), xor([1, 2], 1)), F(1))  # < min
    with pytest.raises(RuleApplicationError):
        apply_rule(state, "contra", (xor([1, 3], 0), xor([1, 3], 1)), F(1))  # absent


def test_apply_rule_pattern_errors():
    state = make_state([(xor([1, 2], 0), F(1)), (xor([3, 4], 0), F(1))])
    with pytest.raises(PatternError):
        apply_rule(state, "chain00", (xor([1, 2], 0), xor([3, 4], 0)), F(1))  # no shared var
    with pytest.raises(PatternError):
        apply_rule(state, "chain01", (xor([1, 2], 0), xor([1, 2], 0)), F(1))  # parities
    with pytest.raises(PatternError):
        apply_rule(state, "compact00", (xor([1, 2], 0), xor([3, 4], 0)), F(1))  # no allocator


# weights 1/2 and 2/3: a message must quote these rationals, never the
# integers a state may keep them as
def _halves_and_thirds():
    return make_state(
        [(xor([1, 2], 0), H), (xor([1, 3], 0), F(2, 3)), (xor([1, 2], 1), F(2, 3)), (xor([4], 1), H)]
    )


PROTOCOL_ERRORS = [
    ("contra", (xor([1, 2], 0), xor([1, 2], 1)), F(2, 3), RuleApplicationError,
     "applied weight 2/3 must equal the lightest premise weight 1/2 "
     "(one premise is consumed entirely)"),
    ("contra", (xor([1, 2], 0), xor([1, 2], 1)), F(1, 3), RuleApplicationError,
     "applied weight 1/3 must equal the lightest premise weight 1/2 "
     "(one premise is consumed entirely)"),
    ("contra", (xor([1, 2], 0), xor([1, 2], 1)), F(1, 5), RuleApplicationError,
     "applied weight 1/5 must equal the lightest premise weight 1/2 "
     "(one premise is consumed entirely)"),
    ("chain01", (xor([1, 3], 0), xor([1, 2], 1)), H, RuleApplicationError,
     "applied weight 1/2 must equal the lightest premise weight 2/3 "
     "(one premise is consumed entirely)"),
    ("chain00", (xor([1, 2], 0), xor([1, 5], 0)), H, RuleApplicationError,
     "chain00 premise XorConstraint(vars=(1, 5), parity=0) not present"),
    ("xlate2", (clause(1, 2),), H, RuleApplicationError,
     "xlate2 premise OrClause(lits=(1, 2)) not present"),
    ("compact00", (xor([1, 2], 0), xor([1, 3], 0)), H, PatternError, "variable 4 is not fresh"),
]


@pytest.mark.parametrize(
    "rule,premises,weight,error,message", PROTOCOL_ERRORS, ids=[str(i) for i in range(len(PROTOCOL_ERRORS))]
)
def test_protocol_error_messages_quote_rationals(rule, premises, weight, error, message):
    with pytest.raises(error) as caught:
        apply_rule(_halves_and_thirds(), rule, premises, weight, VarAllocator(4))
    assert type(caught.value) is error
    assert str(caught.value) == message
    # the checker reports the same text at the step's index
    step = ProofStep(rule, weight, premises, 4 if rule == "compact00" else None)
    state = _halves_and_thirds()
    items = list(_weights(state.entry_units, state.scale).items())
    verdict = check_proof(items, [step])
    assert (verdict.accepted, verdict.failing_step, verdict.reason) == (False, 0, message)


@pytest.mark.parametrize(
    "rule,premises",
    [(rule, (p1, p2)) for rule, p1, p2 in FIGURE_RULES] + [("xlate2", (clause(1, -2),))],
    ids=[r for r, _, _ in FIGURE_RULES] + ["xlate2"],
)
def test_rules_without_fresh_variable_reject_one(rule, premises):
    with pytest.raises(PatternError, match=f"{rule} takes no fresh variable"):
        build_step(rule, premises, F(1), fresh_var=5)
    if rule == "contra" or rule.startswith("unit"):
        # a logged step that carries one fails at its own index
        step = ProofStep(rule, F(1), premises, fresh_var=5)
        items = [(xor([3], 0), F(1))] + [(p, F(1)) for p in premises]
        verdict = check_proof(items, [step], None)
        assert not verdict.accepted
        assert verdict.failing_step == 0
        assert "fresh" in verdict.reason


def test_apply_compact_rule_scaling():
    state = make_state([(xor([1, 2], 0), H), (xor([1, 3], 0), H)])
    alloc = VarAllocator(4)
    step, derived = apply_rule(state, "compact00", (xor([1, 2], 0), xor([1, 3], 0)), H, alloc)
    assert derived.offset == H
    assert F(state.offset_units, state.scale) == H
    assert F(state.entry_units[xor([1, 4], 0)], state.scale) == F(1)  # 2 * 1/2
    assert F(state.entry_units[xor([2, 3], 1)], state.scale) == H
    assert step.fresh_var == 4


# ---------------------------------------------------------------------------
# Odd cycle search


def test_find_odd_cycle_triangle():
    entries = {xor([1, 2], 1): F(1), xor([2, 3], 1): F(1), xor([1, 3], 1): F(1)}
    cycle, weight = find_odd_cycle(entries)
    assert len(cycle) == 3
    assert set(cycle) == set(entries)
    assert weight == F(1)


def test_find_odd_cycle_through_constant_node():
    entries = {xor([1], 0): F(1), xor([1, 2], 0): F(1), xor([2], 1): F(1)}
    cycle, weight = find_odd_cycle(entries)
    assert len(cycle) == 3
    assert cycle[0].arity == 1 and cycle[-1].arity == 1  # rotated to start at the unit
    assert weight == F(1)


def test_find_odd_cycle_none_when_consistent():
    entries = {xor([1, 2], 1): F(1), xor([2, 3], 1): F(1), xor([1, 3], 0): F(1)}
    assert find_odd_cycle(entries) is None


def test_find_odd_cycle_prefers_two_cycle():
    entries = {
        xor([1, 2], 0): F(2),
        xor([1, 2], 1): F(5),
        xor([2, 3], 1): F(1),
        xor([1, 3], 1): F(1),
    }
    cycle, weight = find_odd_cycle(entries)
    assert cycle == [xor([1, 2], 0), xor([1, 2], 1)]
    assert weight == F(2)


def test_find_odd_cycle_on_problem_object():
    problem = normalize([(xor([1, 2], 1), F(1)), (xor([2, 3], 1), F(1)), (xor([1, 3], 1), F(1))])
    cycle, _ = find_odd_cycle(problem)
    assert len(cycle) == 3


def test_find_odd_cycle_ignores_empty_set_constraints():
    # neither constraint on the empty set is an edge, so they form no pair
    assert find_odd_cycle({EMPTY_CLAUSE: F(1), TAUTOLOGY: F(2), xor([1, 2], 0): F(1)}) is None


# Reference search: every source, every search to full depth, the adjacency
# rebuilt from the sorted entries on each call.  The engine's early-stopping
# search must return exactly what this one returns.


def _reference_opposite_pair(entries):
    by_vars = {}
    for constraint in entries:
        by_vars.setdefault(constraint.vars, set()).add(constraint.parity)
    for vars_ in sorted(by_vars):
        if len(by_vars[vars_]) == 2:
            return [XorConstraint(vars_, 0), XorConstraint(vars_, 1)]
    return None


def _reference_adjacency(entries):
    adj = {}
    for constraint in sorted(entries):
        if constraint.arity == 1:
            u, v = 0, constraint.vars[0]
        else:
            u, v = constraint.vars
        adj.setdefault(u, []).append((v, constraint.parity))
        adj.setdefault(v, []).append((u, constraint.parity))
    for neighbours in adj.values():
        neighbours.sort()
    return adj


def _reference_bfs_odd_walk(adj, source):
    start, goal = (source, 0), (source, 1)
    parents = {start: None}
    queue = deque([start])
    while queue:
        node, sign = queue.popleft()
        for nbr, parity in adj.get(node, ()):
            nxt = (nbr, sign ^ parity)
            if nxt in parents:
                continue
            parents[nxt] = (node, sign, parity)
            if nxt == goal:
                edges = []
                cur = nxt
                while parents[cur] is not None:
                    prev_node, prev_sign, par = parents[cur]
                    edges.append((prev_node, cur[0], par))
                    cur = (prev_node, prev_sign)
                edges.reverse()
                return edges
            queue.append(nxt)
    return None


def _reference_walk_cycle(walk):
    cycle = [
        XorConstraint((v,), p) if u == 0 else XorConstraint((u,), p) if v == 0
        else XorConstraint(tuple(sorted((u, v))), p)
        for u, v, p in walk
    ]
    return cycle if len(set(cycle)) == len(cycle) else None


def _reference_find_odd_cycle(entries):
    pair = _reference_opposite_pair(entries)
    if pair is not None:
        return pair, min(entries[pair[0]], entries[pair[1]])
    adj = _reference_adjacency(entries)
    best = None
    for s in sorted(adj):
        walk = _reference_bfs_odd_walk(adj, s)
        if walk is not None and (best is None or len(walk) < len(best)):
            best = walk
    if best is None:
        return None
    cycle = _reference_walk_cycle(best)
    if cycle is None:
        return None
    return cycle, min(entries[c] for c in cycle)


def _reference_compact_cycle(entries):
    pair = _reference_opposite_pair(entries)
    if pair is not None:
        return pair, "pair"
    adj = _reference_adjacency(entries)
    if 0 in adj:
        walk = _reference_bfs_odd_walk(adj, 0)
        if walk is not None:
            cycle = _reference_walk_cycle(walk)
            if cycle is not None:
                return cycle, "unit-chain"
    return None


def _random_entry_sets(seed, count):
    """Units and pairs over 3-12 variables, with and without opposite pairs
    and odd cycles."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 12)
        allow_pairs = rng.random() < 0.3
        hidden = [0] + [rng.randint(0, 1) for _ in range(n)] if rng.random() < 0.2 else None
        entries = {}
        for _ in range(rng.randint(1, 3 * n)):
            vs = rng.sample(range(1, n + 1), rng.choice([1, 2, 2, 2]))
            if hidden is not None:
                parity = sum(hidden[v] for v in vs) % 2
            else:
                parity = rng.randint(0, 1)
            constraint = xor(vs, parity)
            if not allow_pairs and XorConstraint(constraint.vars, parity ^ 1) in entries:
                continue
            entries[constraint] = F(rng.randint(1, 6), rng.choice([1, 2]))
        yield entries


def test_find_odd_cycle_matches_full_search():
    outcomes = set()
    for entries in _random_entry_sets(2024, 300):
        expected = _reference_find_odd_cycle(entries)
        assert find_odd_cycle(entries) == expected, sorted(entries)
        outcomes.add(None if expected is None else len(expected[0]))
    assert {None, 2, 3}.issubset(outcomes) and max(o or 0 for o in outcomes) > 3


def _sparse_entry_sets(seed, count):
    """Sparse graphs over 4-40 variables with n-1 to 2n pairs, about 5% of
    them units, and no opposite-parity pair: odd cycles of many lengths."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 40)
        entries = {}
        for _ in range(rng.randint(n - 1, 2 * n)):
            vs = rng.sample(range(1, n + 1), 1 if rng.random() < 0.05 else 2)
            parity = rng.randint(0, 1)
            if XorConstraint(tuple(sorted(vs)), parity ^ 1) not in entries:
                entries[xor(vs, parity)] = F(rng.randint(1, 4))
        yield entries


def test_find_odd_cycle_matches_full_search_on_sparse_graphs():
    lengths = set()
    for entries in _sparse_entry_sets(31, 1500):
        expected = _reference_find_odd_cycle(entries)
        assert find_odd_cycle(entries) == expected, sorted(entries)
        lengths.add(0 if expected is None else min(len(expected[0]), 7))
    assert lengths == {0, 3, 4, 5, 6, 7}


def _components_entry_sets(seed, count):
    """Several components over shuffled variable ids: 1-4 without an odd
    cycle (parities read off a hidden assignment; the constant node 0 may join
    one of them) and one whose shortest odd cycle has 5-9 edges, with pendant
    edges.  Yields the entries, the bipartite components' node sets and the
    odd component's least variable."""
    rng = random.Random(seed)
    for _ in range(count):
        sizes = [rng.randint(2, 7) for _ in range(rng.randint(1, 4))]
        length, pendants = rng.randint(5, 9), rng.randint(0, 3)
        ids = list(range(1, sum(sizes) + length + pendants + 1))
        rng.shuffle(ids)
        entries, bipartite = {}, []
        for i, size in enumerate(sizes):
            nodes, ids = ids[:size], ids[size:]
            hidden = {v: rng.randint(0, 1) for v in nodes}
            pairs = [(v, rng.choice(nodes[:j])) for j, v in enumerate(nodes) if j]
            pairs += [tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(0, size))]
            for u, v in pairs:
                entries[xor([u, v], hidden[u] ^ hidden[v])] = F(rng.randint(1, 3))
            if i == 0 and rng.random() < 0.5:  # units tie this one to the constant node
                for v in rng.sample(nodes, rng.randint(1, 2)):
                    entries[xor([v], hidden[v])] = F(1)
                nodes = nodes + [0]
            bipartite.append(set(nodes))
        ring, pendant_ids = ids[:length], ids[length:]
        parities = [rng.randint(0, 1) for _ in range(length - 1)]
        parities.append(1 ^ sum(parities) % 2)
        for j, parity in enumerate(parities):
            entries[xor([ring[j], ring[(j + 1) % length]], parity)] = F(rng.randint(1, 3))
        for j, v in enumerate(pendant_ids):
            entries[xor([v, rng.choice(ring + pendant_ids[:j])], rng.randint(0, 1))] = F(1)
        yield entries, bipartite, min(ring + pendant_ids)


def test_find_odd_cycle_matches_full_search_past_bipartite_components():
    lengths = set()
    for entries, _, _ in _components_entry_sets(12, 300):
        expected = _reference_find_odd_cycle(entries)
        assert find_odd_cycle(entries) == expected, sorted(entries)
        lengths.add(len(expected[0]))
    assert lengths == {5, 6, 7, 8, 9}


def test_find_odd_cycle_searches_a_bipartite_component_once(monkeypatch):
    # a component searched without a limit and found free of odd walks is
    # not searched again; one searched after the odd one may be, with limits
    searched = []
    length_of = prover._odd_walk_length

    def counting(cover, source, limit=None, depth=None):
        searched.append(source)
        return length_of(cover, source, limit, depth)

    monkeypatch.setattr(prover, "_odd_walk_length", counting)
    skipped = 0
    for entries, bipartite, odd_least in _components_entry_sets(12, 300):
        searched.clear()
        find_odd_cycle(entries)
        for nodes in bipartite:
            if min(nodes) < odd_least:
                assert sum(s in nodes for s in searched) == 1, (sorted(entries), nodes)
                skipped += len(nodes) - 1
    assert skipped > 300


def test_odd_walk_length_is_the_search_length_above_its_source():
    lengths = set()
    for entries in _sparse_entry_sets(5, 150):
        cover = _CycleIndex(entries).cover
        adj = _reference_adjacency(entries)
        for s in sorted(adj):
            above = {u: [(v, p) for v, p in nbrs if v >= s] for u, nbrs in adj.items() if u >= s}
            walk = _reference_bfs_odd_walk(above, s)
            length = None if walk is None else len(walk)
            assert _odd_walk_length(cover, s) == length, (sorted(entries), s)
            for limit in (3, 4, 5, 6, 9):
                below = length if length is not None and length < limit else None
                assert _odd_walk_length(cover, s, limit) == below, (sorted(entries), s, limit)
            lengths.add(length)
    assert {None, 3, 4, 5, 6, 7, 8}.issubset(lengths)


def test_compact_finder_matches_full_search():
    kinds = set()
    for entries in _random_entry_sets(77, 300):
        expected = _reference_compact_cycle(entries)
        assert _next_cycle(_CycleIndex(entries), compact=True) == expected, sorted(entries)
        kinds.add(None if expected is None else expected[1])
    assert kinds == {None, "pair", "unit-chain"}


def test_triangle_reads_no_list_below_its_source():
    # each source reads its own list and the lists of vertices above it;
    # with no opposite pair its walk is the first three-edge walk of a
    # breadth-first search over every source
    scanning, reads = [], []  # sources in scan order; (source, key) per list read

    class Reads(dict):
        def __getitem__(self, key):
            reads.append((scanning[-1], key))
            return dict.__getitem__(self, key)

    def tracked(sources):
        for s in sources:
            scanning.append(s)
            yield s

    skipped = hits = 0
    for entries in _random_entry_sets(303, 300):
        cover = _CycleIndex(entries).cover
        sources = [key >> 1 for key in sorted(cover) if not key & 1]
        scanning.clear()
        reads.clear()
        walk = _triangle(Reads(cover), tracked(sources))
        assert all(key >> 1 >= s for s, key in reads), sorted(entries)
        skipped += sum(key >> 1 < s for s in scanning for key in cover[2 * s])
        if walk is not None:
            hits += 1
            assert walk[0][0] == scanning[-1]
            assert [(u, v) for u, v, _ in walk] == [
                (walk[0][0], walk[1][0]), (walk[1][0], walk[2][0]), (walk[2][0], walk[0][0])
            ]
            assert sum(p for _, _, p in walk) % 2 == 1
        if not _reference_opposite_pair(entries):
            adj = _reference_adjacency(entries)
            three = (_reference_bfs_odd_walk(adj, s) for s in sorted(adj))
            expected = next((w for w in three if w is not None and len(w) == 3), None)
            assert walk == expected, sorted(entries)
    assert skipped > 1000 and hits > 100


def test_cycle_index_tracks_opposite_pairs_through_any_sequence():
    # add both parities, discard one, add it again: sequences the engine
    # never makes, since it cancels a pair as soon as one appears
    rng = random.Random(14)
    paired = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        index, present = _CycleIndex([]), {}
        for _ in range(40):
            vs = rng.sample(range(1, n + 1), rng.randint(1, min(n, 2)))
            constraint = xor(vs, rng.randint(0, 1))
            if constraint in present:
                del present[constraint]
                index.discard(constraint)
            else:
                present[constraint] = F(1)
                index.add(constraint)
            expected = {c.vars for c in present if xor(c.vars, c.parity ^ 1) in present}
            assert index.opposite == expected, sorted(present)
            assert index.cover == _CycleIndex(present).cover
            paired += bool(expected)
    assert paired > 500


def _full_depth_bfs_odd_walk(cover, source):
    """The walk search that expands each level in full until it discovers
    the goal itself; the engine's search stops at the goal's parent."""
    start, goal = 2 * source, 2 * source + 1
    parents = {start: start}
    level = [start] if start in cover else []
    while level:
        following = []
        for key in level:
            for nxt in cover[key]:
                if nxt in parents:
                    continue
                parents[nxt] = key
                if nxt == goal:
                    edges = []
                    while nxt != start:
                        key = parents[nxt]
                        edges.append((key >> 1, nxt >> 1, (key ^ nxt) & 1))
                        nxt = key
                    edges.reverse()
                    return edges
                following.append(nxt)
        level = following
    return None


def test_walk_stopped_at_the_goal_parent_is_the_full_depth_walk():
    # every source, including one on no edge, of covers with and without
    # opposite pairs; a two-edge walk is an opposite pair at depth 1
    lengths = Counter()
    entry_sets = [*_random_entry_sets(41, 400), *_sparse_entry_sets(43, 300)]
    for entries in entry_sets:
        cover = _CycleIndex(entries).cover
        for s in range(max(key >> 1 for key in cover) + 2) if cover else [1]:
            walk = _bfs_odd_walk(cover, s)
            assert walk == _full_depth_bfs_odd_walk(cover, s), (sorted(entries), s)
            lengths[None if walk is None else min(len(walk), 8)] += 1
    assert set(lengths) == {None, 2, 3, 4, 5, 6, 7, 8}, lengths
    assert sum(lengths.values()) > 10000


def test_an_edge_added_below_the_last_triangle_is_found():
    # the pass finds {4, 5, 6} and raises the floor to 4; an edge then
    # closes the odd triangle {1, 2, 3} below it, and the next lookup folds
    # that edge in and finds it
    entries = {xor(vs, p): F(1) for vs, p in [([4, 5], 1), ([5, 6], 1), ([4, 6], 1),
                                              ([1, 2], 0), ([2, 3], 0)]}
    index = _CycleIndex(entries)
    assert _next_cycle(index) == ([xor([4, 5], 1), xor([5, 6], 1), xor([4, 6], 1)], "odd")
    assert index.tri_from == 4
    entries[xor([1, 3], 1)] = F(1)
    index.add(xor([1, 3], 1))
    lower = ([xor([1, 2], 0), xor([2, 3], 0), xor([1, 3], 1)], "odd")
    assert _next_cycle(index) == lower == _next_cycle(_CycleIndex(entries))
    assert index.tri_from == 1


# ---------------------------------------------------------------------------
# Saturation


def test_saturate_raw_opposite_pair_single_step():
    summary, steps = saturate([(xor([1], 0), F(1)), (xor([1], 1), F(1))])
    assert summary.bound_m == F(1)
    assert summary.residual.entries == {}
    assert len(steps) == 1 and steps[0].rule == "contra"


def test_saturate_consistent_problem_is_untouched():
    problem = normalize([(xor([1, 2], 1), F(1))], var_count=2)
    summary, steps = saturate(problem)
    assert summary.bound_m == 0
    assert steps == []
    assert summary.residual.entries == problem.entries


def test_saturate_four_clause_contradiction():
    report = compile_maxsat(parse_cnf("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"))
    assert report.shift == F(2)
    summary, _ = saturate(report.problem)
    assert summary.bound_m >= F(3)
    assert brute_opt_cost(report.problem).cost == F(3)
    verdict = bound_to_original(summary, report)
    assert verdict.unsat_proven
    assert verdict.message == "UNSAT lb=1/1"


def test_saturate_triangle_by_rules():
    items = [(xor([1, 2], 1), F(1)), (xor([2, 3], 1), F(1)), (xor([1, 3], 1), F(1))]
    summary, steps = saturate(items)
    assert [s.rule for s in steps] == ["chain11", "contra"]
    assert summary.bound_m == F(1)
    assert brute_opt_cost_items(items).cost == F(1)


def test_saturate_unit_chain_cycle():
    items = [(xor([1], 0), F(1)), (xor([1, 2], 0), F(1)), (xor([2], 1), F(1))]
    summary, steps = saturate(items)
    assert summary.bound_m == F(1)
    assert steps[0].rule.startswith("unit")
    assert steps[-1].rule == "contra"


def test_saturate_determinism():
    rng = random.Random(123)
    raw = []
    for _ in range(12):
        arity = rng.choice([1, 2, 2])
        vs = rng.sample(range(1, 7), arity)
        raw.append((xor(vs, rng.randint(0, 1)), F(rng.randint(1, 8), rng.choice([1, 2]))))
    problem = normalize(raw, var_count=6)
    outputs = set()
    for _ in range(3):
        for mode in ("discard", "retranslate", "compact"):
            _, steps = saturate(problem, mode=mode)
            outputs.add((mode, emit_proof(steps)))
    assert len(outputs) == 3  # one canonical proof per mode


def test_saturate_round_budget_respected():
    rng = random.Random(321)
    for _ in range(40):
        n = rng.randint(3, 7)
        raw = []
        for _ in range(rng.randint(3, 10)):
            arity = rng.choice([1, 2, 2])
            vs = rng.sample(range(1, n + 1), arity)
            raw.append((xor(vs, rng.randint(0, 1)), F(rng.randint(1, 8), rng.choice([1, 2, 4]))))
        problem = normalize(raw, var_count=n)
        for mode in ("discard", "retranslate", "compact"):
            summary, _ = saturate(problem, mode=mode)
            for budget, used in summary.round_stats:
                assert used <= budget


# Retranslating round one's residues raises the bound from 3 to 4, the
# optimum; an assignment then attains it, so round three is not run.
PAYING = normalize(
    [
        (xor([1], 0), F(3)),
        (xor([2], 0), F(2)),
        (xor([3], 1), F(3)),
        (xor([1, 3], 0), F(1)),
        (xor([1, 3], 1), F(2)),
        (xor([1, 4], 0), F(2)),
        (xor([2, 4], 0), F(3)),
        (xor([3, 4], 0), F(3)),
    ],
    var_count=4,
)


def _leftover_cost(summary):
    return brute_opt_cost_items(
        list(summary.residual.sorted_entries()) + list(summary.residue_clauses),
        floor=summary.residual.floor,
    ).cost


def test_retranslate_consumes_residues_and_keeps_identity():
    summary, steps = saturate(PAYING, mode="retranslate")
    assert {"xlate2", "xlate3"} <= {s.rule for s in steps}
    assert (summary.bound_m, summary.rounds, len(summary.round_stats)) == (4, 2, 2)
    assert saturate(PAYING)[0].bound_m == 3
    assert summary.bound_m + _leftover_cost(summary) == brute_opt_cost(PAYING).cost


def _stopped_early(summary, max_rounds):
    """A retranslation that kept every round it ran, ended before its round
    limit and left residues to translate: an assignment attained the bound."""
    return len(summary.round_stats) == summary.rounds < max_rounds and any(
        cl.k in (2, 3) for cl, _ in summary.residue_clauses
    )


def test_retranslate_stops_only_where_an_assignment_attains_the_bound(monkeypatch):
    rng = random.Random(20261019)
    stopped = 0
    for trial in range(120):
        if trial % 2:
            problem = _random_problem(rng)
        else:
            text = _random_wcnf(trial, rng.randint(3, 5), rng.randint(6, 18), 2)
            problem = compile_maxsat(parse_cnf(text)).problem
        for max_rounds in (2, 3):
            summary, steps = saturate(problem, mode="retranslate", max_rounds=max_rounds)
            if not _stopped_early(summary, max_rounds):
                continue
            stopped += 1
            assert _leftover_cost(summary) == 0, trial
            capped, capped_steps = saturate(problem, mode="retranslate", max_rounds=summary.rounds)
            assert replace(capped, round_stats=()) == replace(summary, round_stats=()), trial
            assert capped_steps == steps, trial
            # without the stop, every further round runs and is dropped
            with monkeypatch.context() as patched:
                patched.setattr(prover, "_attains_bound", lambda state, index: False)
                full, full_steps = saturate(problem, mode="retranslate", max_rounds=max_rounds)
            assert replace(full, round_stats=()) == replace(summary, round_stats=()), trial
            assert full_steps == steps, trial
            assert full.round_stats[: summary.rounds] == summary.round_stats, trial
            assert len(full.round_stats) == summary.rounds + 1, trial
    assert stopped >= 100, stopped


def test_witness_search_agrees_with_the_oracle_on_small_states():
    rng = random.Random(1019)
    found = 0
    for trial in range(300):
        problem = _random_problem(rng)
        state = make_state(problem)
        index = _CycleIndex(state.entry_units)
        n = problem.var_count
        for _ in range(rng.randint(0, 4)):
            k = rng.randint(1, min(3, n))
            lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 2), k)]
            state.residue_units[clause(*lits)] = 1
        items = [(c, F(u)) for c, u in state.entry_units.items()]
        items += [(cl, F(u)) for cl, u in state.residue_units.items()]
        expected = brute_opt_cost_items(items).cost == 0
        assert prover._attains_bound(state, index) is expected, trial
        found += expected
    assert 100 <= found <= 200, found


def test_retranslate_keeps_the_last_round_that_raised_the_bound():
    # round-end bounds 28, 30, 27: round three runs, lowers the bound and is dropped
    problem = compile_maxsat(parse_cnf(_random_wcnf(8, 5, 18, 3))).problem
    one, _ = saturate(problem, mode="retranslate", max_rounds=1)
    two, two_steps = saturate(problem, mode="retranslate", max_rounds=2)
    three, three_steps = saturate(problem, mode="retranslate", max_rounds=3)
    assert (one.bound_m, two.bound_m) == (28, 30)
    assert three_steps == two_steps
    assert (three.rounds, three.steps) == (2, len(two_steps))
    assert three.round_stats[:2] == two.round_stats and len(three.round_stats) == 3
    assert replace(three, round_stats=()) == replace(two, round_stats=())
    verdict = check_proof(problem, three_steps, three)
    assert verdict.accepted and verdict.summary.rounds == 2


@pytest.mark.parametrize("rounds", [0, -3, 2.5, "2", True, None])
def test_saturate_rejects_bad_round_counts_before_any_work(rounds, monkeypatch):
    def no_work(source):
        raise AssertionError("saturate did work before checking max_rounds")

    monkeypatch.setattr(prover, "make_state", no_work)
    for mode in MODES:
        with pytest.raises(Max2XorError, match="^retranslate rounds must be at least 1$"):
            saturate([(xor([1], 0), F(1)), (xor([1], 1), F(1))], mode=mode, max_rounds=rounds)


def test_saturate_properties_on_random_problems():
    rng = random.Random(20261018)
    for trial in range(80):
        problem = PAYING if trial == 0 else _random_problem(rng)
        cost_in = brute_opt_cost(problem).cost
        for mode in MODES:
            summary, steps = saturate(problem, mode=mode)
            assert summary.bound_m + _leftover_cost(summary) == cost_in, (trial, mode)
            verdict = check_proof(problem, steps, summary)
            assert verdict.accepted, (trial, mode, verdict.reason)
            assert verdict.summary.rounds == summary.rounds, (trial, mode)
            if mode != "retranslate":
                continue
            assert summary.bound_m >= saturate(problem)[0].bound_m
            for r in range(1, len(summary.round_stats) + 1):
                capped, _ = saturate(problem, mode=mode, max_rounds=r)
                assert summary.bound_m >= capped.bound_m, (trial, r)


def test_checker_accepts_the_compact_rules():
    # a parity-balanced triangle, which the prover leaves alone: one compact
    # step and one contradiction, for zero net bound but full bookkeeping
    items = [(xor([1, 2], 0), F(1)), (xor([2, 3], 0), F(1)), (xor([1, 3], 0), F(1))]
    steps = [
        ProofStep("compact00", F(1), (xor([1, 2], 0), xor([2, 3], 0)), fresh_var=4),
        ProofStep("contra", F(1), (xor([1, 3], 0), xor([1, 3], 1))),
    ]
    verdict = check_proof(items, steps)
    assert verdict.accepted, verdict.reason
    summary = verdict.summary
    assert (summary.bound_m, summary.offset_total) == (0, 1)
    assert summary.bound_m + _leftover_cost(summary) == brute_opt_cost_items(items).cost

    flipped = steps[0]._replace(premises=(xor([1, 2], 1), xor([2, 3], 0)))
    verdict = check_proof(items, [flipped, steps[1]])
    assert not verdict.accepted and verdict.failing_step == 0


def _random_wcnf(seed, n_vars, n_clauses, width):
    rng = random.Random(seed)
    lines = [f"p wcnf {n_vars} {n_clauses}"]
    for _ in range(n_clauses):
        lits = " ".join(
            str(v if rng.random() < 0.5 else -v) for v in rng.sample(range(1, n_vars + 1), width)
        )
        lines.append(f"{rng.randint(1, 3)} {lits} 0")
    return "\n".join(lines) + "\n"


# SHA-256 prefixes of "<bound_m>\n<emit_proof(steps)>" from the full-depth,
# every-source cycle search; the early-stopping search must reproduce them.
# Retranslation pays only on (8, 5, 18, 3); on the others it keeps round one
# alone, so their retranslate digests equal their discard digests.
PROOF_LOG_DIGESTS = {
    ((1, 5, 21, 3), "discard"): "4eab16757803bbbe",
    ((1, 5, 21, 3), "retranslate"): "4eab16757803bbbe",
    ((1, 5, 21, 3), "compact"): "178f881e17119180",
    ((2, 6, 14, 3), "discard"): "3fb47bc4030a81fe",
    ((2, 6, 14, 3), "retranslate"): "3fb47bc4030a81fe",
    ((2, 6, 14, 3), "compact"): "7480f4a287672d00",
    ((3, 5, 20, 2), "discard"): "39f032785ed181eb",
    ((3, 5, 20, 2), "retranslate"): "39f032785ed181eb",
    ((3, 5, 20, 2), "compact"): "2277a9075f517386",
    ((4, 6, 24, 2), "discard"): "333cbf61fe8f3076",
    ((4, 6, 24, 2), "retranslate"): "333cbf61fe8f3076",
    ((4, 6, 24, 2), "compact"): "333cbf61fe8f3076",
    ((5, 4, 17, 3), "discard"): "c943cd7a17b47dc6",
    ((5, 4, 17, 3), "retranslate"): "c943cd7a17b47dc6",
    ((5, 4, 17, 3), "compact"): "7714e6ff44851be4",
    ((8, 5, 18, 3), "discard"): "6302f75a51d053e2",
    ((8, 5, 18, 3), "retranslate"): "6823c611ffafa8ff",
    ((8, 5, 18, 3), "compact"): "8ed373604382c647",
    ((11, 12, 51, 3), "discard"): "fa32bb15f3f43c8e",
    ((11, 12, 51, 3), "retranslate"): "fa32bb15f3f43c8e",
    ((11, 12, 51, 3), "compact"): "e44205e970bddf90",
    ((12, 13, 55, 3), "discard"): "9f87f96989edafb7",
    ((12, 13, 55, 3), "retranslate"): "9f87f96989edafb7",
    ((12, 13, 55, 3), "compact"): "ecfeed7a42d53ec9",
}


def _assert_index_matches(index, state):
    rebuilt = _CycleIndex(state.entry_units)
    assert index.cover == rebuilt.cover
    assert index.opposite == rebuilt.opposite
    assert index.sources == rebuilt.sources


@pytest.mark.parametrize("case,mode", sorted(PROOF_LOG_DIGESTS), ids=str)
def test_saturate_proof_logs_are_unchanged(case, mode):
    problem = compile_maxsat(parse_cnf(_random_wcnf(*case))).problem
    summary, steps = saturate(problem, mode=mode)
    text = f"{format_rational(summary.bound_m)}\n{emit_proof(steps)}"
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PROOF_LOG_DIGESTS[(case, mode)]

    # replay with an index kept beside the state as the prover keeps it; it
    # must equal a rebuilt one after every step, in every mode
    state = make_state(problem)
    index = _CycleIndex(state.entry_units)
    for step in steps:
        derived = build_step(step.rule, step.premises, step.weight, step.fresh_var)
        _replay_step(state, step, derived)
        index.follow([*step.premises, *(c for c, _ in derived.conclusions)], state.entry_units)
        _assert_index_matches(index, state)
    assert F(state.floor_units - state.offset_units, state.scale) == summary.bound_m


def test_every_lookup_equals_one_on_a_fresh_index(monkeypatch):
    # the index kept across a run, with its triangle floor, equals one built
    # from the state's entries, and so does what a lookup on each returns
    states, kinds = [], Counter()
    make, lookup = prover.make_state, prover._next_cycle

    def capture(source):
        states.append(make(source))
        return states[-1]

    def checked(index, compact=False):
        _assert_index_matches(index, states[-1])
        fresh = _CycleIndex(states[-1].entry_units)
        found = lookup(index, compact)
        assert found == lookup(fresh, compact)
        kinds[None if found is None else found[1]] += 1
        return found

    monkeypatch.setattr(prover, "make_state", capture)
    monkeypatch.setattr(prover, "_next_cycle", checked)
    cases = [case for case, mode in PROOF_LOG_DIGESTS if mode == "discard"]
    cases += [(60 + n, n, round(4.26 * n), 3) for n in range(7, 13)]  # sat3-sized
    for case in cases:
        problem = compile_maxsat(parse_cnf(_random_wcnf(*case))).problem
        for mode in MODES:
            saturate(problem, mode=mode)
    assert set(kinds) == {None, "pair", "odd", "unit-chain"}, kinds
    assert sum(kinds.values()) > 1000, kinds


# ---------------------------------------------------------------------------
# Checker


def _random_problem(rng):
    n = rng.randint(3, 7)
    raw = []
    for _ in range(rng.randint(3, 10)):
        arity = rng.choice([1, 2, 2])
        vs = rng.sample(range(1, n + 1), arity)
        raw.append((xor(vs, rng.randint(0, 1)), F(rng.randint(1, 8), rng.choice([1, 2, 4]))))
    return normalize(raw, var_count=n)


def test_checker_accepts_engine_proofs():
    rng = random.Random(55)
    for _ in range(60):
        problem = _random_problem(rng)
        for mode in ("discard", "retranslate", "compact"):
            summary, steps = saturate(problem, mode=mode, max_rounds=2)
            verdict = check_proof(problem, steps, summary)
            assert verdict.accepted, (mode, verdict.failing_step, verdict.reason)
            assert verdict.summary.bound_m == summary.bound_m


def test_checker_accepts_empty_proof():
    problem = normalize([(xor([1, 2], 1), F(1))], var_count=2)
    verdict = check_proof(problem, [], None)
    assert verdict.accepted
    assert verdict.summary.bound_m == 0


def test_checker_rejects_tampered_residue_weight():
    # the chain step at half its weight, which would leave its residues at
    # half their weight
    items = [(xor([1, 2], 0), F(1)), (xor([1, 3], 0), F(1)), (xor([2, 3], 1), F(1))]
    summary, steps = saturate(items)
    chain_index = next(i for i, s in enumerate(steps) if s.rule.startswith("chain"))
    step = steps[chain_index]
    tampered = step._replace(weight=step.weight / 2)
    broken = list(steps)
    broken[chain_index] = tampered
    verdict = check_proof(items, broken, None)
    assert not verdict.accepted
    assert verdict.failing_step == chain_index


def test_checker_rejects_tampered_fields_everywhere():
    rng = random.Random(901)
    cases = [(_random_problem(rng), MODES[trial % 3]) for trial in range(60)]
    cases.append((PAYING, "retranslate"))
    tampered_total = 0
    tampered_rules = set()
    for problem, mode in cases:
        summary, steps = saturate(problem, mode=mode, max_rounds=2)
        for index, step in enumerate(steps):
            mutations = [
                step._replace(weight=step.weight * 2),
                step._replace(weight=step.weight / 2),
                step._replace(fresh_var=1),  # variable 1 occurs in every input
            ]
            sibling = _sibling_rule(step.rule)
            if sibling is not None:
                mutations.append(step._replace(rule=sibling))
            if step.fresh_var is not None:
                mutations.append(step._replace(fresh_var=None))
                # an input variable outside its premises, which only the
                # freshness check rejects
                premise_vars = set()
                for p in step.premises:
                    premise_vars.update(p.vars if isinstance(p, XorConstraint) else p.variables())
                stale = set(range(1, problem.var_count + 1)) - premise_vars
                if stale:
                    mutations.append(step._replace(fresh_var=min(stale)))
            premise = step.premises[0]
            if isinstance(premise, XorConstraint):
                flipped_premise = XorConstraint(premise.vars, premise.parity ^ 1)
                mutations.append(
                    step._replace(premises=(flipped_premise,) + step.premises[1:])
                )
            for mutant in mutations:
                broken = list(steps)
                broken[index] = mutant
                verdict = check_proof(problem, broken, summary)
                assert not verdict.accepted
                assert verdict.failing_step == index, (mode, index, mutant, verdict.reason)
                tampered_total += 1
            tampered_rules.add(step.rule)
    assert tampered_total > 50
    assert {"xlate2", "xlate3"} <= tampered_rules


@pytest.fixture
def cold_shapes(monkeypatch):
    """An empty accepted-shape cache for this test only."""
    shapes = set()
    monkeypatch.setattr(checker, "_ACCEPTED_SHAPES", shapes)
    return shapes


def _verdict_key(verdict):
    return verdict.accepted, verdict.failing_step, verdict.reason


def _sibling_rule(rule):
    """The first other row of the rule's form with other premise parities
    or clause width, or None (``contra`` has none)."""
    spec = rules.RULES[rule]
    return next(
        (other for other, row in rules.RULES.items()
         if row.form == spec.form and row.premise != spec.premise),
        None,
    )


def _one_step_mutants(steps):
    """(index, mutant) pairs at the first step of each rule and the last step
    that introduces a variable, each with its head altered: a sibling rule
    id, a doubled or halved weight, a flipped first premise, swapped
    premises, and a fresh variable added, dropped or reused."""
    first = {}
    for index, step in enumerate(steps):
        first.setdefault(step.rule, index)
    fresh = [index for index, step in enumerate(steps) if step.fresh_var is not None]
    for index in sorted(set(first.values()) | set(fresh[-1:])):
        step = steps[index]
        sibling = _sibling_rule(step.rule)
        if sibling is not None:
            yield index, step._replace(rule=sibling)
        yield index, step._replace(weight=step.weight * 2)
        yield index, step._replace(weight=step.weight / 2)
        premise = step.premises[0]
        if isinstance(premise, XorConstraint):
            flipped = XorConstraint(premise.vars, premise.parity ^ 1)
            yield index, step._replace(premises=(flipped,) + step.premises[1:])
        if len(step.premises) == 2:
            p1, p2 = step.premises
            # swapping two premises of one arity and parity gives another
            # sound instance of the same rule, so only the others are mutants
            if (p1.arity, p1.parity) != (p2.arity, p2.parity):
                yield index, step._replace(premises=(p2, p1))
        if step.fresh_var is None:
            yield index, step._replace(fresh_var=10**6)  # new, on a rule that takes none
            continue
        yield index, step._replace(fresh_var=None)
        premise_vars = set()
        for p in step.premises:
            premise_vars.update(p.vars if isinstance(p, XorConstraint) else p.variables())
        # an earlier step's fresh variable, which only the freshness check rejects
        reusable = [steps[i].fresh_var for i in fresh if i < index]
        reusable = [v for v in reusable if v not in premise_vars]
        if reusable:
            yield index, step._replace(fresh_var=reusable[-1])


@pytest.mark.parametrize("mode", MODES)
def test_checker_rejects_mutants_with_a_warm_shape_cache(mode, cold_shapes):
    # retranslation keeps its later rounds only where they pay; a compact
    # proof fires only the four unit rules and contra, so two proofs that
    # fire all five pool their mutants
    cases = {"retranslate": [(8, 5, 18, 3)], "compact": [(4, 6, 24, 2), (12, 13, 55, 3)]}
    warm = []
    for case in cases.get(mode, [(5, 4, 17, 3)]):
        problem = compile_maxsat(parse_cnf(_random_wcnf(*case))).problem
        summary, steps = saturate(problem, mode=mode)
        assert check_proof(problem, steps, summary).accepted  # every sound shape is cached
        for index, mutant in _one_step_mutants(steps):
            broken = list(steps)
            broken[index] = mutant
            warm.append((problem, summary, index, broken, check_proof(problem, broken, summary)))
    assert len(warm) > 20
    if mode == "retranslate":
        assert {"xlate2", "xlate3"} <= {broken[index].rule for _, _, index, broken, _ in warm}
    mutated_shape_hits = 0
    for problem, summary, index, broken, verdict in warm:
        assert not verdict.accepted
        assert verdict.failing_step == index, (index, broken[index], verdict.reason)
        # a mutant whose premises fit its rule reaches the cached shape
        mutated_shape_hits += verdict.stats == {"truth_tables": 0, "shape_hits": index + 1}
        cold_shapes.clear()
        cold = check_proof(problem, broken, summary)
        assert _verdict_key(cold) == _verdict_key(verdict)
    assert mutated_shape_hits > 0


@pytest.mark.parametrize("rule", ["unit11", "chain01"])
def test_checker_tables_an_unsound_rule_after_its_sound_shape_was_cached(
    rule, cold_shapes, monkeypatch
):
    problem = compile_maxsat(parse_cnf(_random_wcnf(5, 4, 17, 3))).problem
    summary, steps = saturate(problem)
    assert check_proof(problem, steps, summary).accepted

    # flip the first literal of the rule's first residue template; the
    # engine and the canonical comparison now both use the unsound template
    spec = rules.RULES[rule]
    (first, multiplier), *rest = spec.residues
    (role, sign), *others = first
    unsound = (((role, -sign), *others), multiplier)
    monkeypatch.setitem(rules.RULES, rule, spec._replace(residues=(unsound, *rest)))
    bad_summary, bad_steps = saturate(problem)
    index = next(i for i, step in enumerate(bad_steps) if step.rule == rule)

    warm = check_proof(problem, bad_steps, bad_summary)
    assert not warm.accepted
    assert warm.failing_step == index
    assert warm.reason.startswith("truth table:")
    assert warm.stats == {"truth_tables": 1, "shape_hits": index}
    # the rejected shape was not cached, and a cold cache gives the same verdict
    again = check_proof(problem, bad_steps, bad_summary)
    assert (_verdict_key(again), again.stats) == (_verdict_key(warm), warm.stats)
    cold_shapes.clear()
    assert _verdict_key(check_proof(problem, bad_steps, bad_summary)) == _verdict_key(warm)


def test_checker_counts_truth_tables_and_shape_hits(cold_shapes):
    problem = compile_maxsat(parse_cnf(_random_wcnf(8, 5, 18, 3))).problem
    summary, steps = saturate(problem, mode="retranslate")
    cold = check_proof(problem, steps, summary)
    assert cold.stats == {"truth_tables": 19, "shape_hits": 221}
    assert len(cold_shapes) == 19
    warm = check_proof(problem, steps, summary)
    assert warm.stats == {"truth_tables": 0, "shape_hits": 240}
    assert warm == cold  # the counts take no part in comparison


def test_each_step_is_built_once_by_the_prover_and_once_by_the_checker(monkeypatch):
    # saturate -> emit_proof -> parse_proof -> check_proof in every mode,
    # counting the build_step calls of each phase: the prover builds each
    # step it fires once, those of a dropped retranslate round included, the
    # parser builds none, and the checker builds each logged step once
    phase, builds, fired = None, Counter(), Counter()

    def counted_build(*args):
        builds[phase] += 1
        return build_step(*args)

    def counted_apply(*args):
        fired[phase] += 1
        return apply_rule(*args)

    for module in (rules, prover, textio, checker):
        if hasattr(module, "build_step"):
            monkeypatch.setattr(module, "build_step", counted_build)
    monkeypatch.setattr(prover, "apply_rule", counted_apply)
    problem = compile_maxsat(parse_cnf(_random_wcnf(8, 5, 18, 3))).problem
    for mode in MODES:
        builds.clear()
        fired.clear()
        phase = "saturate"
        summary, steps = saturate(problem, mode=mode)
        phase = "emit_proof"
        text = emit_proof(steps)
        phase = "parse_proof"
        parsed = parse_proof(text)
        phase = "check_proof"
        assert check_proof(problem, parsed, summary).accepted, mode
        assert builds == {"saturate": fired["saturate"], "check_proof": len(steps)}, mode
        assert fired == {"saturate": fired["saturate"]} and fired["saturate"] >= len(steps), mode
        if mode == "retranslate":
            # the third round did not pay and was dropped with its steps
            assert (summary.rounds, len(summary.round_stats)) == (2, 3)
            assert fired["saturate"] > len(steps)


def _reference_table_reason(step, derived):
    """The step truth table by pure-Fraction enumeration in ``product`` order."""
    before = [(p, derived.weight) for p in step.premises]
    after = [(c, derived.weight * m) for c, m in derived.conclusions + derived.residues]
    variables = set()
    for item, _ in before + after:
        variables.update(item.vars if isinstance(item, XorConstraint) else item.variables())
    fresh = step.fresh_var
    base = sorted(variables - {fresh})
    for values in product((0, 1), repeat=len(base)):
        assignment = dict(zip(base, values))
        extended = [assignment] if fresh is None else [{**assignment, fresh: y} for y in (0, 1)]
        deltas = [unsat_weight(after, a) - unsat_weight(before, a) for a in extended]
        offset = derived.offset
        if fresh is None and deltas[0] != offset:
            return f"unsatisfied weight changes by {deltas[0]} instead of {offset} at {assignment}"
        if fresh is not None and (min(deltas) != offset or any(d < offset for d in deltas)):
            return f"fresh-variable deltas {deltas} violate offset {offset} at {assignment}"
    return None


def _derived(rule, weight, premises, fresh):
    return ProofStep(rule, weight, premises, fresh), build_step(rule, premises, weight, fresh)


def _random_canonical_steps(rng):
    """One step of every rule, and of every literal sign pattern for a
    clause premise, on random variables and weight, with its derivation."""
    x, a, b, y = rng.sample(range(1, 30), 4)
    weight = F(rng.randint(1, 6), rng.choice((1, 2, 3)))
    for rule, spec in rules.RULES.items():
        fresh = y if spec.fresh else None
        if spec.form == "clause":
            for signs in product((1, -1), repeat=spec.premise):
                lits = [sign * v for sign, v in zip(signs, (x, a, b)[3 - spec.premise :])]
                yield _derived(rule, weight, (clause(*lits),), fresh)
            continue
        par1, par2 = spec.premise
        if spec.form == "pairs":
            premises = (xor([x, a], par1), xor([x, b], par2))
        elif spec.form == "unit":
            premises = (xor([x], par1), xor([x, a], par2))
        else:
            premises = (xor([a, b], par1), xor([a, b], par2))
        yield _derived(rule, weight, premises, fresh)


def test_truth_table_matches_pure_fraction_enumeration():
    rng = random.Random(2022)
    seen_rules, reasons = set(), set()
    shapes = {}  # (rule, literal signs of a clause premise) -> checker shapes
    for _ in range(12):
        for step, derived in _random_canonical_steps(rng):
            seen_rules.add(step.rule)
            signs = ()
            if rules.RULES[step.rule].form == "clause":
                signs = tuple(l > 0 for l in step.premises[0].lits)
            shapes.setdefault((step.rule, signs), set()).add(checker._step_shape(step))
            assert checker._truth_table_reason(step, derived) is None
            assert _reference_table_reason(step, derived) is None
            constraint, mult = derived.conclusions[0]
            flipped = xor(constraint.vars, constraint.parity ^ 1)
            mutants = [
                derived._replace(conclusions=((flipped, mult),) + derived.conclusions[1:]),
                derived._replace(offset=derived.offset + H),
                derived._replace(conclusions=((constraint, 2 * mult),) + derived.conclusions[1:]),
            ]
            for mutant in mutants:
                reason = checker._truth_table_reason(step, mutant)
                assert reason is not None, mutant
                assert reason == _reference_table_reason(step, mutant), mutant
                reasons.add(reason.split(" ")[0])
    assert seen_rules == set(rules.RULES) and len(seen_rules) == 13
    assert reasons == {"unsatisfied", "fresh-variable"}
    # a row with fixed literal signs has one shape on any variables and
    # weight, and the 13 rows with their sign patterns have 11 + 4 + 8
    assert all(len(keys) == 1 for keys in shapes.values())
    assert len(shapes) == len(set().union(*shapes.values())) == 23


def test_checker_rejects_wrong_claimed_bound():
    items = [(xor([1], 0), F(1)), (xor([1], 1), F(1))]
    summary, steps = saturate(items)
    inflated = replace(summary, bound_m=summary.bound_m + 1)
    verdict = check_proof(items, steps, inflated)
    assert not verdict.accepted
    assert "bound" in verdict.reason


def test_checker_rejects_stale_fresh_variable():
    state_items = [(xor([1, 2], 0), F(1)), (xor([1, 3], 0), F(1))]
    with pytest.raises(PatternError):
        build_step("compact00", (xor([1, 2], 0), xor([1, 3], 0)), F(1), fresh_var=2)

    step = ProofStep("compact00", F(1), (xor([1, 2], 0), xor([1, 3], 0)), fresh_var=4)
    # variable 4 already occurs elsewhere in the input, so it is not fresh
    verdict = check_proof(state_items + [(xor([4, 5], 1), F(1))], [step], None)
    assert not verdict.accepted
    assert "fresh" in verdict.reason
    # variables 4 and 5 occur in no entry, but a problem declaring 5 owns them
    problem = X2XProblem(dict(state_items), var_count=5)
    for fresh in (4, 5, 6):
        step = ProofStep("compact00", F(1), (xor([1, 2], 0), xor([1, 3], 0)), fresh_var=fresh)
        verdict = check_proof(problem, [step])
        if fresh <= 5:
            assert (verdict.accepted, verdict.reason) == (False, f"variable {fresh} is not fresh")
        else:
            assert verdict.accepted and verdict.summary.residual.var_count == 6


def _package_imports(module):
    """The ``max2xor`` modules that ``module``'s source imports; a name taken
    from the package itself counts as an import of ``__init__``."""
    package = Path(checker.__file__).parent
    imported = set()
    for node in ast.walk(ast.parse((package / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["max2xor" if node.level else None, node.module]))
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            if top == "max2xor":
                part = rest.split(".")[0]
                imported.add(part if (package / f"{part}.py").exists() else "__init__")
    return imported


def _import_closure(root):
    reached, pending = set(), [root]
    while pending:
        module = pending.pop()
        if module not in reached:
            reached.add(module)
            pending.extend(_package_imports(module))
    return reached - {root}


def test_checker_imports_none_of_the_prover():
    closure = _import_closure("checker")
    assert closure == {"core", "rules"}, sorted(closure)
    assert _package_imports("rules") == {"core"}
    # the search needs neither the compiler nor the text formats
    assert _import_closure("prover") == {"core", "rules"}, sorted(_import_closure("prover"))
    # the walk does follow imports into the prover from the command line
    assert "prover" in _import_closure("cli")


# ---------------------------------------------------------------------------
# Linking back to the source


def test_bound_to_original_arithmetic():
    report = compile_maxsat(parse_cnf("p cnf 1 2\n1 0\n-1 0\n"))
    summary, _ = saturate(report.problem)
    verdict = bound_to_original(summary, report)
    assert verdict.unsat_proven and verdict.message == "UNSAT lb=1/1"

    weaker = replace(summary, bound_m=report.shift)
    verdict = bound_to_original(weaker, report)
    assert not verdict.unsat_proven
    assert verdict.lower_bound == 0
    assert verdict.message.startswith("UNKNOWN lb=")

    stronger = replace(summary, bound_m=report.shift + F(5, 2))
    verdict = bound_to_original(stronger, report)
    assert verdict.lower_bound == F(5, 2)


def test_bound_to_original_provenance_check():
    report = compile_maxsat(parse_cnf("p cnf 1 2\n1 0\n-1 0\n"))
    other = compile_maxsat(parse_cnf("p cnf 2 1\n1 2 0\n"))
    summary, _ = saturate(other.problem)
    with pytest.raises(ProvenanceError):
        bound_to_original(summary, report)

    # an odd cycle of disequalities: a 2-step proof of m = 4 against shift 3
    cycle = "p cnf 3 6\n1 2 0\n-1 -2 0\n2 3 0\n-2 -3 0\n1 3 0\n-1 -3 0\n"
    report = compile_maxsat(parse_cnf(cycle))
    summary, steps = saturate(report.problem)
    verdict = bound_to_original(summary, report)
    assert (len(steps), verdict.message) == (2, "UNSAT lb=1/1")
    # the checker's summary links back, and so does a proof of the problem re-read
    checked = check_proof(report.problem, steps, summary)
    assert checked.accepted and bound_to_original(checked.summary, report) == verdict
    reread = parse_x2x(emit_x2x(report.problem))
    assert bound_to_original(saturate(reread)[0], report) == verdict
    # raw items name no problem, so their summary links to no report, even at the same bound
    raw = list(report.problem.entries.items()) + [(EMPTY_CLAUSE, report.problem.floor)]
    raw_summary, _ = saturate(raw)
    assert raw_summary.bound_m == summary.bound_m
    with pytest.raises(ProvenanceError):
        bound_to_original(raw_summary, report)
    # a compiled problem changed in place is no longer the problem compiled
    report = compile_maxsat(parse_cnf(cycle))
    constraint = min(report.problem.entries)
    report.problem.entries[constraint] += 1
    with pytest.raises(ProvenanceError):
        bound_to_original(saturate(report.problem)[0], report)


# ---------------------------------------------------------------------------
# Exact weights on any denominator


def test_checker_replays_the_canonical_step():
    items = [(xor([1, 2], 0), H), (xor([1, 2], 1), F(2, 3))]
    step = ProofStep("contra", 0.5, (xor([1, 2], 0), xor([1, 2], 1)))
    verdict = check_proof(items, [step])
    assert verdict.accepted
    assert type(verdict.summary.bound_m) is Fraction and verdict.summary.bound_m == H
    assert verdict.summary.residual.entries == {xor([1, 2], 1): F(1, 6)}


@pytest.mark.parametrize("mode", MODES)
def test_problems_with_float_or_int_weights_give_fraction_summaries(mode):
    problem = X2XProblem(
        {xor([1], 0): 0.5, xor([1, 2], 1): 1, xor([2], 0): 0.25, xor([2, 3], 0): 3}, var_count=3
    )
    summary, steps = saturate(problem, mode=mode)
    verdict = check_proof(problem, steps, summary)
    assert verdict.accepted, verdict.reason
    for result in (summary, verdict.summary):
        assert result.bound_m == F(1, 4)
        numbers = [result.bound_m, result.floor_total, result.offset_total, result.residual.floor]
        numbers += list(result.residual.entries.values()) + [w for _, w in result.residue_clauses]
        assert all(type(w) is Fraction for w in numbers), numbers


def _thirds_and_sevenths(rng):
    """Raw items whose weights have denominators 3, 5, 6, 7 and 9, with a floor."""
    n = rng.randint(3, 6)
    items = [(EMPTY_CLAUSE, F(rng.randint(1, 4), rng.choice([3, 7])))]
    for _ in range(rng.randint(4, 11)):
        vars_ = rng.sample(range(1, n + 1), rng.choice([1, 2, 2, 2]))
        items.append((xor(vars_, rng.randint(0, 1)), F(rng.randint(1, 9), rng.choice([3, 5, 6, 7, 9]))))
    return items


# p x2x 4 with weights over 3, 5 and 7; retranslation keeps a second round
THIRDS = [
    (xor([1], 1), F(1, 5)),
    (xor([1, 2], 0), F(4, 3)),
    (xor([1, 4], 1), F(4, 3)),
    (xor([2, 3], 1), F(1)),
    (xor([2, 4], 0), F(4, 7)),
    (xor([3], 0), F(4, 7)),
    (xor([4], 1), F(4, 3)),
]


def test_exact_bounds_on_denominators_that_are_not_powers_of_two():
    rng = random.Random(20261019)
    cases = [THIRDS] + [_thirds_and_sevenths(rng) for _ in range(40)]
    for trial, items in enumerate(cases):
        cost_in = brute_opt_cost_items(items).cost
        for mode in MODES:
            summary, steps = saturate(items, mode=mode)
            assert summary.bound_m + _leftover_cost(summary) == cost_in, (trial, mode)
            verdict = check_proof(items, steps, summary)
            assert verdict.accepted, (trial, mode, verdict.reason)
            assert verdict.summary == replace(summary, round_stats=()), (trial, mode)
            assert parse_proof(emit_proof(steps)) == steps, (trial, mode)
    bounds = {mode: saturate(THIRDS, mode=mode) for mode in MODES}
    assert {mode: (s.bound_m, len(steps)) for mode, (s, steps) in bounds.items()} == {
        "discard": (F(27, 35), 4),
        "retranslate": (F(4, 3), 20),
        "compact": (F(27, 35), 6),
    }
    assert bounds["retranslate"][0].rounds == 2


def test_replay_raises_on_a_product_off_the_state_grid():
    # a residue of one unit at scale 2 cannot be halved by a retranslation:
    # the state must refuse, not round
    state = make_state([(xor([1, 2], 0), H)])
    cl = clause(1, 2)
    state.residue_units[cl] = 1
    with pytest.raises(RuleApplicationError, match="^1/4 is not a whole multiple of 1/2$"):
        apply_rule(state, "xlate2", (cl,), H)
