"""Clause translations, tree shapes, the compiler, and the cut export."""

import random
from fractions import Fraction

import pytest

from max2xor.core import (
    ArityError,
    Max2XorError,
    ShapeError,
    SizeGuardError,
    XorConstraint,
    clause,
    normalize,
    xor,
)
from max2xor.gadgets import (
    GadgetParams,
    ParityConstraint,
    TreeShape,
    VarAllocator,
    binary_gadget,
    chain_to_3sat,
    clause_params,
    compile_maxsat,
    compose_params,
    expand_full_parity,
    sequential_gadget,
    to_maxcut,
    tree_gadget,
    trevisan_3to2,
)
from max2xor.oracle import brute_opt_cost_items, verify_gadget
from max2xor.textio import WcnfInstance, parse_cnf

F = Fraction
H = Fraction(1, 2)

EXAMPLE1_WCNF = """p wcnf 3 9
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

EXAMPLE1_ENTRIES = {
    xor([1], 0): F(1),
    xor([2], 1): H,
    xor([3], 1): F(3, 2),
    xor([1, 2], 1): F(1),
    xor([2, 3], 0): F(5, 2),
}
EXAMPLE1_FLOOR = F(17, 2)


# ---------------------------------------------------------------------------
# Full parity expansion


def test_expansion_binary():
    items = expand_full_parity(clause(1, 2))
    assert sorted(items) == sorted(
        [
            (ParityConstraint((1,), 1), H),
            (ParityConstraint((2,), 1), H),
            (ParityConstraint((1, 2), 1), H),
        ]
    )


def test_expansion_ternary():
    items = expand_full_parity(clause(1, 2, 3))
    assert len(items) == 7
    assert all(w == F(1, 4) for _, w in items)
    assert (ParityConstraint((1, 2, 3), 1), F(1, 4)) in items


def test_expansion_negation_folding():
    items = dict(expand_full_parity(clause(1, -2)))
    assert items[ParityConstraint((2,), 0)] == H
    assert items[ParityConstraint((1, 2), 0)] == H


def test_expansion_satisfied_weight_is_indicator():
    # satisfied clause -> translation value 1, falsified -> 0, all k <= 6
    for k in range(1, 7):
        cl = clause(*[v if v % 2 else -v for v in range(1, k + 1)])
        items = expand_full_parity(cl)
        assert len(items) == 2**k - 1
        for index in range(1 << k):
            assignment = {v: (index >> (v - 1)) & 1 for v in range(1, k + 1)}
            value = sum((w for c, w in items if c.satisfied_by(assignment)), F(0))
            assert value == (F(1) if cl.satisfied_by(assignment) else F(0))


def test_expansion_guard():
    with pytest.raises(SizeGuardError):
        expand_full_parity(clause(*range(1, 14)))


# ---------------------------------------------------------------------------
# Unit/binary translation


def test_binary_rows():
    assert binary_gadget(F(1), clause(-1, -2)) == [
        (xor([1], 0), H),
        (xor([2], 0), H),
        (xor([1, 2], 1), H),
    ]
    assert binary_gadget(F(1), clause(1, -2)) == [
        (xor([1], 1), H),
        (xor([2], 0), H),
        (xor([1, 2], 0), H),
    ]
    assert binary_gadget(F(2), clause(1, 2)) == [
        (xor([1], 1), F(1)),
        (xor([2], 1), F(1)),
        (xor([1, 2], 1), F(1)),
    ]
    assert binary_gadget(F(1), clause(-3)) == [(xor([3], 0), F(1))]


def test_binary_rejects_wide_clause():
    with pytest.raises(ArityError):
        binary_gadget(F(1), clause(1, 2, 3))


def test_binary_rows_certify():
    for lits in [(1, 2), (1, -2), (-1, 2), (-1, -2)]:
        cl = clause(*lits)
        verdict = verify_gadget(cl, binary_gadget(F(1), cl), GadgetParams(F(1), F(3, 2), 0))
        assert verdict.certified, verdict.reason


# ---------------------------------------------------------------------------
# Chain splitting and the ternary-to-binary translation


def test_chain_k4_pattern():
    out = chain_to_3sat(clause(1, 2, 3, 4), VarAllocator(5))
    assert [c.lits for c, _ in out] == [(1, 2, 5), (3, 4, -5)]
    assert all(w == F(1) for _, w in out)


def test_chain_k5_counts():
    out = chain_to_3sat(clause(1, 2, 3, 4, 5), VarAllocator(6))
    assert len(out) == 3
    fresh = {v for c, _ in out for v in c.variables() if v > 5}
    assert fresh == {6, 7}


def test_chain_arity_guard():
    with pytest.raises(ArityError):
        chain_to_3sat(clause(1, 2, 3), VarAllocator(4))


def test_chain_certifies_k4():
    cl = clause(1, 2, 3, 4)
    out = chain_to_3sat(cl, VarAllocator(5))
    verdict = verify_gadget(cl, out, GadgetParams(F(2), F(2), 1))
    assert verdict.certified, verdict.reason


def test_trevisan_content_and_params():
    cl = clause(1, 2, 3)
    out = trevisan_3to2(cl, VarAllocator(4))
    assert (clause(2, 4), F(1)) in out  # <1> x2 v b
    assert (clause(-1, -3), H) in out
    assert sum((w for _, w in out), F(0)) == F(4)
    verdict = verify_gadget(cl, out, GadgetParams(F(7, 2), F(4), 1))
    assert verdict.certified, verdict.reason


def test_trevisan_arity_guard():
    with pytest.raises(ArityError):
        trevisan_3to2(clause(1, 2), VarAllocator(3))


# ---------------------------------------------------------------------------
# Sequential and tree translations


def test_sequential_base_case():
    items = sequential_gadget(clause(1, 2), 3, VarAllocator(4))
    assert sorted(items) == sorted(
        [(xor([1, 2], 1), H), (xor([1, 3], 0), H), (xor([2, 3], 0), H)]
    )


def test_sequential_anchored_k3_matches_six_constraint_form():
    items = sequential_gadget(clause(1, 2, 3), None, VarAllocator(4))
    assert sorted(items) == sorted(
        [
            (xor([1, 2], 1), H),
            (xor([1, 4], 0), H),
            (xor([2, 4], 0), H),
            (xor([3, 4], 1), H),
            (xor([4], 1), H),
            (xor([3], 1), H),
        ]
    )


def test_sequential_counts_and_certification():
    for k in range(2, 11):
        cl = clause(*range(1, k + 1))
        items = sequential_gadget(cl, None, VarAllocator(k + 1))
        assert len(items) == 3 * (k - 1)
        assert sum((w for _, w in items), F(0)) == F(3 * (k - 1), 2)
        verdict = verify_gadget(cl, items, clause_params(k))
        assert verdict.certified, (k, verdict.reason)


def test_sequential_negative_literals_fold():
    cl = clause(-1, 2)
    items = dict(sequential_gadget(cl, 3, VarAllocator(4)))
    assert items[xor([1, 2], 0)] == H  # 1 ^ neg1
    assert items[xor([1, 3], 1)] == H


def test_left_comb_equals_sequential():
    for k in (2, 3, 5, 8):
        cl = clause(*[v if v % 3 else -v for v in range(1, k + 1)])
        seq = sequential_gadget(cl, None, VarAllocator(k + 1))
        comb = tree_gadget(cl, TreeShape.left_comb(k), None, VarAllocator(k + 1))
        assert sorted(seq) == sorted(comb)


def test_tree_k7_matches_parallel_example_structure():
    # shape (((1 2)(3 4))((5 6) 7)) with anchor kept as a variable
    shape = TreeShape.parse("(((1 2)(3 4))((5 6) 7))")
    items = tree_gadget(clause(*range(1, 8)), shape, 13, VarAllocator(8))
    assert len(items) == 18
    assert all(w == H for _, w in items)
    fresh = {v for c, _ in items for v in c.vars if v >= 8}
    assert fresh == {8, 9, 10, 11, 12, 13}
    # collector variables in post-order: 8=(1 2), 9=(3 4), 10=((1 2)(3 4)),
    # 11=(5 6), 12=((5 6) 7), anchor 13
    expected = [
        (xor([1, 2], 1), H), (xor([1, 8], 0), H), (xor([2, 8], 0), H),
        (xor([3, 4], 1), H), (xor([3, 9], 0), H), (xor([4, 9], 0), H),
        (xor([8, 9], 1), H), (xor([8, 10], 0), H), (xor([9, 10], 0), H),
        (xor([5, 6], 1), H), (xor([5, 11], 0), H), (xor([6, 11], 0), H),
        (xor([11, 7], 1), H), (xor([11, 12], 0), H), (xor([7, 12], 0), H),
        (xor([10, 12], 1), H), (xor([10, 13], 0), H), (xor([12, 13], 0), H),
    ]
    assert sorted(items) == sorted(expected)


def test_every_shape_k5_certifies():
    shapes = list(TreeShape.enumerate_all(5))
    assert len(shapes) == 14
    cl = clause(1, 2, 3, 4, 5)
    for shape in shapes:
        items = tree_gadget(cl, shape, None, VarAllocator(6))
        verdict = verify_gadget(cl, items, clause_params(5))
        assert verdict.certified, (shape.format(), verdict.reason)


def test_tree_shape_mismatch():
    with pytest.raises(ShapeError):
        tree_gadget(clause(1, 2, 3), TreeShape.left_comb(4), None, VarAllocator(5))


def test_shape_parse_format_round_trip():
    text = "((1 2) (3 (4 5)))"
    shape = TreeShape.parse(text)
    assert shape.k == 5
    assert TreeShape.parse(shape.format()) == shape
    with pytest.raises(ShapeError):
        TreeShape.parse("((1 3) 2)")  # leaves out of order
    with pytest.raises(ShapeError):
        TreeShape.parse("(1 2))")


def test_shape_walk_must_be_one_binary_tree():
    assert TreeShape((1, 2, 0, 3, 0)) == TreeShape.parse("((1 2) 3)")
    # too few or too many internal nodes, an internal node with one subtree,
    # nested tuples instead of a walk, or not a tuple of ints
    bad = [(1, 2, 3), (1, 2, 0, 0), (1, 0, 2), ((1, 2), 3), (1, ((2,), 3)), [1, 2, 0], (True, 2, 0), 5]
    for walk in bad:
        with pytest.raises(ShapeError):
            TreeShape(walk)
    with pytest.raises(ShapeError, match=r"got \[0, 1\]"):
        TreeShape.parse("(0 1)")  # leaf 0 is not read as an internal node


def test_deep_shape_parse_count_format():
    k = 2001
    text = "(" * (k - 1) + "1" + "".join(f" {i})" for i in range(2, k + 1))
    shape = TreeShape.parse(text)
    assert shape.k == k
    assert shape.format() == text
    assert TreeShape.left_comb(k).format() == text
    assert shape == TreeShape.left_comb(k)
    assert shape != TreeShape.balanced(k)
    assert hash(shape) == hash(TreeShape.left_comb(k))
    walk = "1, 2, 0" + "".join(f", {i}, 0" for i in range(3, k + 1))
    assert repr(shape) == f"TreeShape(postorder=({walk}))"
    items =tree_gadget(clause(*range(1, k + 1)), shape, None, VarAllocator(k + 1))
    assert len(items) == 3 * (k - 1)


def test_shape_builders():
    assert TreeShape.left_comb(4).format() == "(((1 2) 3) 4)"
    assert TreeShape.balanced(4).format() == "((1 2) (3 4))"
    rng = random.Random(5)
    for k in range(2, 9):
        assert TreeShape.random(k, rng).k == k
    counts = [len(list(TreeShape.enumerate_all(k))) for k in range(2, 7)]
    assert counts == [1, 2, 5, 14, 42]  # Catalan numbers


def test_remark_prefix_or_extension_achieves_optimum():
    # Extending any source assignment with b_i = x_1 or ... or x_(i+1)
    # (anchor included) satisfies weight k-1, the optimum over extensions.
    for k in range(2, 9):
        cl = clause(*range(1, k + 1))
        anchor = 2 * k  # keep the anchor a free variable
        items = sequential_gadget(cl, anchor, VarAllocator(k + 1))
        collectors = list(range(k + 1, 2 * k - 1)) + [anchor]
        for index in range(1 << k):
            assignment = {v: (index >> (v - 1)) & 1 for v in range(1, k + 1)}
            running = assignment[1]
            for i, b in enumerate(collectors, start=1):
                running |= assignment[i + 1]  # b_i = x1 | ... | x_(i+1)
                assignment[b] = running
            value = sum((w for c, w in items if c.satisfied_by(assignment)), F(0))
            assert value == F(k - 1), (k, assignment)


def test_tree_unweighted_satisfaction_counts_all_shapes():
    # for every shape with k <= 7: at most 2(k-1) constraints are ever
    # satisfied; every literal assignment extends (collectors and anchor
    # free) to exactly 2(k-1); with the anchor forced to one the best
    # extension drops to exactly 2(k-2) when every literal is zero
    import numpy as np

    from max2xor.oracle import unsat_weight_profile

    for k in range(2, 8):
        cl = clause(*range(1, k + 1))
        anchor = 2 * k
        for shape in TreeShape.enumerate_all(k):
            items = [(c, F(1)) for c, _ in tree_gadget(cl, shape, anchor, VarAllocator(k + 1))]
            fresh = sorted({v for c, _ in items for v in c.vars if k < v < anchor})
            order = list(range(1, k + 1)) + [anchor] + fresh
            unsat = np.array([int(u) for u in unsat_weight_profile(items, order)])
            satisfied = len(items) - unsat
            by_anchor = satisfied.reshape(1 << k, 2, -1).max(axis=2)
            assert satisfied.max() == 2 * (k - 1), (k, shape.format())
            assert by_anchor.max(axis=1).min() == 2 * (k - 1), (k, shape.format())
            anchor_one = by_anchor[:, 1]
            assert anchor_one[0] == 2 * (k - 2), (k, shape.format())  # all literals zero
            assert (anchor_one[1:] == 2 * (k - 1)).all(), (k, shape.format())


# ---------------------------------------------------------------------------
# Parameter composition


def test_compose_params():
    k = 5
    chain = GadgetParams(F(k - 2), F(k - 2))
    fig = GadgetParams(F(2), F(3))
    composed = compose_params(chain, fig)
    assert (composed.alpha, composed.beta) == (F(2 * (k - 2)), F(3 * (k - 2)))

    trev = GadgetParams(F(7, 2), F(4))
    binary = GadgetParams(F(1), F(3, 2))
    composed = compose_params(trev, binary)
    assert (composed.alpha, composed.beta) == (F(7, 2), F(6))

    identity = GadgetParams(F(1), F(1))
    g = GadgetParams(F(4), F(6))
    composed = compose_params(g, identity)
    assert (composed.alpha, composed.beta) == (g.alpha, g.beta)


def test_cancellation_shrinks_params():
    # normalizing the composed translation cancels weight w and turns a
    # certified (a, b) into a certified (a - w, b - 2w)
    cl = clause(1, 2, 3)
    composed = []
    for c2, w in trevisan_3to2(cl, VarAllocator(4)):
        composed.extend((c, w * wi) for c, wi in binary_gadget(F(1), c2))
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


# ---------------------------------------------------------------------------
# Whole-instance compilation


def test_compile_example_instance():
    report = compile_maxsat(parse_cnf(EXAMPLE1_WCNF))
    assert report.problem.entries == EXAMPLE1_ENTRIES
    assert report.problem.floor == EXAMPLE1_FLOOR
    assert report.shift == F(15, 2)
    assert report.threshold == F(17, 2)
    assert report.params_per_arity[2] == GadgetParams(F(1), F(3, 2), 0)
    assert report.aux_map == {}


def test_compile_single_ternary_clause():
    instance = WcnfInstance(3, [(clause(1, 2, 3), F(1))])
    report = compile_maxsat(instance, strategy="sequential")
    assert report.shift == F(1)
    assert len(report.problem.entries) == 6
    assert set(report.problem.entries.values()) == {H}
    assert report.problem.floor == 0
    assert report.aux_map == {4: 0}
    assert report.params_per_arity[3] == GadgetParams(F(2), F(3), 1)


def test_compile_opposite_units_cancel():
    instance = WcnfInstance(1, [(clause(1), F(1)), (clause(-1), F(1))])
    report = compile_maxsat(instance)
    assert report.problem.entries == {}
    assert report.problem.floor == F(1)
    assert report.shift == 0


def test_compile_empty_clause_credits_floor():
    from max2xor.core import OrClause

    instance = WcnfInstance(1, [(OrClause(()), F(2)), (clause(1), F(1))])
    report = compile_maxsat(instance)
    assert report.problem.floor == F(2)
    assert report.shift == 0


def test_compile_tree_strategy_with_shape_map():
    instance = WcnfInstance(4, [(clause(1, 2, 3, 4), F(2))])
    shape = TreeShape.parse("((1 2) (3 4))")
    report = compile_maxsat(instance, strategy="tree", shapes={0: shape})
    assert report.shift == F(3)  # 2 * (4-1)/2
    assert len(report.problem.entries) == 9
    assert set(report.problem.entries.values()) == {F(1)}  # w/2 with w=2
    assert set(report.aux_map) == {5, 6}


def test_compile_shapes_need_the_tree_strategy():
    # the sequential translation reads no shape, so a shape map is an error
    # there, not silently dropped; an empty map is no shape at all
    instance = WcnfInstance(4, [(clause(1, 2, 3, 4), F(2))])
    with pytest.raises(Max2XorError, match="shapes need the tree strategy, not 'sequential'"):
        compile_maxsat(instance, shapes={0: TreeShape.parse("((1 2) 3)")})
    assert compile_maxsat(instance, shapes={}) == compile_maxsat(instance)


def test_compile_full_strategy_is_unknown():
    # widths up to 2 always take the direct translation, so a full-expansion
    # strategy would have no behaviour of its own
    instance = WcnfInstance(2, [(clause(1, 2), F(1))])
    with pytest.raises(Max2XorError, match="unknown strategy 'full'"):
        compile_maxsat(instance, strategy="full")


def test_compile_cost_shift_identity_random():
    rng = random.Random(20240819)
    for _ in range(60):
        n = rng.randint(2, 6)
        clauses = []
        for _ in range(rng.randint(1, 7)):
            k = rng.choice([1, 1, 2, 2, 3])
            vs = rng.sample(range(1, n + 1), min(k, n))
            lits = [v if rng.random() < 0.5 else -v for v in vs]
            clauses.append((clause(*lits), F(rng.randint(1, 4), rng.choice([1, 2]))))
        instance = WcnfInstance(n, clauses)
        report = compile_maxsat(instance, strategy=rng.choice(["sequential", "tree"]))
        source = brute_opt_cost_items(instance.clauses)
        target = brute_opt_cost_items(
            list(report.problem.sorted_entries()), floor=report.problem.floor
        )
        assert target.cost == source.cost + report.shift


def test_compile_decision_criterion_unweighted():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 4)
        clauses = []
        for _ in range(rng.randint(1, 8)):
            k = rng.choice([1, 2, 2, 3])
            vs = rng.sample(range(1, n + 1), min(k, n))
            clauses.append((clause(*[v if rng.random() < 0.5 else -v for v in vs]), F(1)))
        instance = WcnfInstance(n, clauses)
        report = compile_maxsat(instance)
        source_cost = brute_opt_cost_items(instance.clauses).cost
        target_cost = brute_opt_cost_items(
            list(report.problem.sorted_entries()), floor=report.problem.floor
        ).cost
        unsat = source_cost >= 1
        assert (target_cost >= report.threshold) == unsat


# ---------------------------------------------------------------------------
# Cut export


def test_to_maxcut_examples():
    problem = normalize([(xor([1, 2], 1), F(1))], var_count=2)
    graph = to_maxcut(problem, "single")
    assert graph.edges == {(1, 2): F(1)}
    assert graph.node_count == 3  # anchor allocated even if unused

    problem = normalize([(xor([1], 0), F(1))], var_count=1)
    graph = to_maxcut(problem, "single")
    assert graph.anchor_zero == 2
    assert graph.edges == {(1, 3): F(1), (2, 3): F(1)}

    problem = normalize([(xor([1], 0), F(1)), (xor([2], 1), F(3))], var_count=2)
    graph = to_maxcut(problem, "double")
    assert graph.edges[(graph.anchor_zero, graph.anchor_one)] == F(1)


def test_to_maxcut_parity_zero_pair_routes_through_midpoint():
    problem = normalize([(xor([1, 2], 0), F(5, 2))], var_count=2)
    graph = to_maxcut(problem, "single")
    midpoint = 4
    assert graph.edges == {(1, midpoint): F(5, 2), (2, midpoint): F(5, 2)}


def _cut_items_anchor_fixed(graph):
    items = []
    for (u, v), w in sorted(graph.edges.items()):
        if graph.anchor_zero in (u, v):
            other = v if u == graph.anchor_zero else u
            items.append((XorConstraint((other,), 1), w))
        else:
            items.append((XorConstraint((u, v), 1), w))
    return items


def test_to_maxcut_preserves_cost():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 7)
        raw = []
        for _ in range(rng.randint(2, 9)):
            arity = rng.choice([1, 2, 2])
            vs = rng.sample(range(1, n + 1), arity)
            raw.append((xor(vs, rng.randint(0, 1)), F(rng.randint(1, 4), rng.choice([1, 2]))))
        problem = normalize(raw, var_count=n)
        graph = to_maxcut(problem, "single")
        source = brute_opt_cost_items(list(problem.sorted_entries())).cost
        cut = brute_opt_cost_items(_cut_items_anchor_fixed(graph)).cost
        assert cut == source
