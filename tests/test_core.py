"""Data model: construction, evaluation, normalization, rational tokens."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from max2xor.core import (
    EMPTY_CLAUSE,
    TAUTOLOGY,
    ZERO,
    ArityError,
    IncompleteAssignmentError,
    InvalidClauseError,
    InvalidWeightError,
    OrClause,
    X2XProblem,
    XorConstraint,
    check_weight,
    clause,
    evaluate,
    format_rational,
    normalize,
    parse_rational,
    xor,
)

F = Fraction
H = Fraction(1, 2)


def test_xor_canonicalization():
    assert xor([2, 1], 1) == XorConstraint((1, 2), 1)
    assert xor([1, 1], 1) == EMPTY_CLAUSE  # x + x cancels
    assert xor([1, 1, 2], 3) == XorConstraint((2,), 1)
    assert xor([], 0).parity == 0


def test_xor_rejects_bad_shapes():
    with pytest.raises(Exception):
        XorConstraint((1, 2, 3), 0)
    with pytest.raises(InvalidClauseError):
        XorConstraint((2, 1), 0)
    with pytest.raises(InvalidClauseError):
        XorConstraint((1,), 2)


def test_clause_rejects_tautology_and_duplicates():
    with pytest.raises(InvalidClauseError):
        clause(1, -1)
    with pytest.raises(InvalidClauseError):
        clause(2, 2)
    c = clause(3, -1, 2)
    assert c.lits == (-1, 2, 3)
    assert c.k == 3


def test_clause_satisfaction():
    c = clause(1, -2)
    assert c.satisfied_by({1: 1, 2: 1})
    assert c.satisfied_by({1: 0, 2: 0})
    assert not c.satisfied_by({1: 0, 2: 1})
    assert not OrClause(()).satisfied_by({})


def test_evaluate_binary_clause_translation():
    # <1/2> x=1, <1/2> y=1, <1/2> x+y=1 -- the parity form of (x or y)
    problem = normalize(
        [(xor([1], 1), H), (xor([2], 1), H), (xor([1, 2], 1), H)]
    )
    sat, unsat = evaluate(problem, {1: 1, 2: 0})
    assert (sat, unsat) == (F(1), H)
    sat, unsat = evaluate(problem, {1: 0, 2: 0})
    assert (sat, unsat) == (F(0), F(3, 2))


def test_evaluate_empty_problem():
    problem = normalize([])
    assert evaluate(problem, {}) == (F(0), F(0))


def test_evaluate_requires_total_assignment():
    problem = normalize([(xor([1, 2], 1), F(1))])
    with pytest.raises(IncompleteAssignmentError):
        evaluate(problem, {1: 0})


def test_normalize_cancels_opposite_pair():
    problem = normalize([(xor([1, 2], 0), F(1)), (xor([1, 2], 1), F(1))])
    assert problem.entries == {}
    assert problem.floor == F(1)


def test_normalize_rejects_nonpositive_weight():
    with pytest.raises(InvalidWeightError):
        normalize([(xor([1], 1), F(0))])


def test_normalize_merges_and_partially_cancels():
    problem = normalize(
        [
            (xor([1], 1), F(2)),
            (xor([1], 1), F(1)),
            (xor([1], 0), F(1)),
            (xor([], 0), F(5)),  # tautology dropped
        ]
    )
    assert problem.entries == {xor([1], 1): F(2)}
    assert problem.floor == F(1)


def _random_raw(rng, nvars, count):
    raw = []
    for _ in range(count):
        arity = rng.randint(0, min(2, nvars))
        vars_ = rng.sample(range(1, nvars + 1), arity)
        weight = F(rng.randint(1, 8), rng.choice([1, 2, 4]))
        raw.append((xor(vars_, rng.randint(0, 1)), weight))
    return raw


def _unsat_raw(raw, assignment):
    total = F(0)
    for constraint, weight in raw:
        if not constraint.satisfied_by(assignment):
            total += weight
    return total


def test_normalize_preserves_unsat_weight_pointwise_small():
    rng = random.Random(20240817)
    for _ in range(60):
        nvars = rng.randint(1, 5)
        raw = _random_raw(rng, nvars, rng.randint(1, 12))
        problem = normalize(raw)
        for index in range(1 << nvars):
            assignment = {v: (index >> (v - 1)) & 1 for v in range(1, nvars + 1)}
            assert evaluate(problem, assignment).unsatisfied == _unsat_raw(raw, assignment)


def test_normalize_preserves_unsat_weight_pointwise_bulk():
    # 1000 random multisets, n <= 10, all 2^n assignments, via the vectorized
    # enumeration the oracle uses
    from max2xor.oracle import unsat_weight_profile

    rng = random.Random(424242)
    for _ in range(1000):
        nvars = rng.randint(1, 10)
        raw = _random_raw(rng, nvars, rng.randint(1, 14))
        problem = normalize(raw)
        order = list(range(1, nvars + 1))
        before = unsat_weight_profile(raw, order)
        after = unsat_weight_profile(
            list(problem.entries.items()), order, floor=problem.floor
        )
        assert before == after


def test_normalize_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        problem = normalize(_random_raw(rng, 5, 10))
        again = normalize(problem.entries.items(), var_count=problem.var_count,
                          floor=problem.floor)
        assert again == problem


# The merge-then-sort normalize that the one-pass grouping replaced: the
# package's normalize must return exactly what this one returns.
def _reference_normalize(raw, var_count=None, floor=ZERO):
    merged = {}
    max_var = 0
    for constraint, weight in raw:
        weight = check_weight(weight)
        merged[constraint] = merged.get(constraint, ZERO) + weight
        if constraint.vars:
            max_var = max(max_var, constraint.vars[-1])
    floor = Fraction(floor)
    entries = {}
    for constraint in sorted(merged):
        if constraint.parity == 1:
            continue
        opposite = XorConstraint(constraint.vars, 1)
        w0 = merged.get(constraint, ZERO)
        w1 = merged.get(opposite, ZERO)
        cancel = min(w0, w1)
        floor += cancel
        w0 -= cancel
        w1 -= cancel
        if w0 > 0:
            entries[constraint] = w0
        if w1 > 0:
            entries[opposite] = w1
    for constraint in sorted(merged):
        if constraint.parity == 1 and XorConstraint(constraint.vars, 0) not in merged:
            entries[constraint] = merged[constraint]
    entries.pop(TAUTOLOGY, None)
    empty = entries.pop(EMPTY_CLAUSE, None)
    if empty is not None:
        floor += empty
    entries = dict(sorted(entries.items()))
    return X2XProblem(entries=entries, floor=floor, var_count=max(max_var, var_count or 0))


def _outcome(call):
    try:
        problem = call()
    except Exception as exc:  # the error type and text must match too
        return type(exc), str(exc)
    return list(problem.entries.items()), problem.floor, problem.var_count


def test_normalize_matches_reference():
    """Entries, key order, floor, var_count and the first bad weight's error,
    on raw lists with repeats, opposite pairs, the tautology, the empty
    clause and int weights."""
    rng = random.Random(1526)
    seen = set()
    for trial in range(3000):
        nvars = rng.randint(1, 6)
        raw = []
        for _ in range(rng.randint(0, 14)):
            vars_ = rng.sample(range(1, nvars + 1), min(nvars, rng.choice([0, 1, 2, 2, 2])))
            weight = rng.choice([1, 2, F(1, 2), F(3, 2), F(5, 4)])
            raw.append((xor(vars_, rng.randint(0, 1)), weight))
            if rng.random() < 0.3:
                raw.append(rng.choice(raw))  # a repeat
        if trial % 40 == 0 and raw:
            raw.insert(rng.randrange(len(raw)), (xor([1], 0), rng.choice([0, -1, F(-1, 2)])))
        var_count = rng.choice([None, 0, 4, 9])
        floor = rng.choice([0, F(1, 3), 2])
        expected = _outcome(lambda: _reference_normalize(raw, var_count, floor))
        assert _outcome(lambda: normalize(raw, var_count, floor)) == expected, raw
        keys = [c for c, _ in raw]
        seen.update(
            tag
            for tag, hit in (
                ("error", expected[0] is InvalidWeightError),
                ("repeat", len(set(keys)) < len(keys)),
                ("opposite", any(XorConstraint(c.vars, 1 - c.parity) in keys for c in keys)),
                ("empty", EMPTY_CLAUSE in keys),
                ("tautology", TAUTOLOGY in keys),
                ("int", any(type(w) is int for _, w in raw)),
            )
            if hit
        )
    assert seen == {"error", "repeat", "opposite", "empty", "tautology", "int"}


def test_evaluate_totals():
    rng = random.Random(11)
    for _ in range(50):
        nvars = rng.randint(1, 5)
        problem = normalize(_random_raw(rng, nvars, 8))
        assignment = {v: rng.randint(0, 1) for v in range(1, nvars + 1)}
        sat, unsat = evaluate(problem, assignment)
        assert sat + unsat == problem.weight() + problem.floor


def test_rational_round_trip():
    assert format_rational(F(3, 2)) == "3/2"
    assert format_rational(F(4)) == "4/1"
    assert parse_rational("17/2") == F(17, 2)
    assert parse_rational("-3/4") == F(-3, 4)


# Every invalid shape with its exact exception class and message; valid
# shapes take an arity-specific fast path, so these pin the slow path's texts.
INVALID_SHAPES = [
    (XorConstraint, ((2, 1), 0), InvalidClauseError, "variables must be sorted and distinct: (2, 1)"),
    (XorConstraint, ((1, 1), 0), InvalidClauseError, "variables must be sorted and distinct: (1, 1)"),
    (XorConstraint, ((0,), 0), InvalidClauseError, "variable ids must be positive: (0,)"),
    (XorConstraint, ((-1, 2), 0), InvalidClauseError, "variable ids must be positive: (-1, 2)"),
    (XorConstraint, ((1, 2, 3), 0), ArityError,
     "at most 2 variables per parity constraint, got (1, 2, 3)"),
    (XorConstraint, ((1, 2), 2), InvalidClauseError, "parity must be 0 or 1, got 2"),
    (XorConstraint, ((), 2), InvalidClauseError, "parity must be 0 or 1, got 2"),
    (OrClause, ((1, 0),), InvalidClauseError, "literal 0 is not allowed"),
    (OrClause, ((0,),), InvalidClauseError, "literal 0 is not allowed"),
    (OrClause, ((2, 2),), InvalidClauseError,
     "duplicate or complementary literals on variable 2: (2, 2)"),
    (OrClause, ((1, -1, 3),), InvalidClauseError,
     "duplicate or complementary literals on variable 1: (1, -1, 3)"),
    (OrClause, ((3, 1),), InvalidClauseError, "literals must be sorted by variable id: (3, 1)"),
    (OrClause, ((-2, 1),), InvalidClauseError, "literals must be sorted by variable id: (-2, 1)"),
    (XorConstraint, ((1, 2), -1), InvalidClauseError, "parity must be 0 or 1, got -1"),
    (OrClause, ((1, 3, -2),), InvalidClauseError,
     "literals must be sorted by variable id: (1, 3, -2)"),
]


@pytest.mark.parametrize(
    "kind,args,error,message", INVALID_SHAPES, ids=[f"{k.__name__}{a}" for k, a, _, _ in INVALID_SHAPES]
)
def test_invalid_shapes_keep_their_class_and_message(kind, args, error, message):
    with pytest.raises(error) as caught:
        kind(*args)
    assert type(caught.value) is error
    assert str(caught.value) == message



def test_value_types_are_validated_tuples():
    pair, unit, cl = XorConstraint((1, 2), 1), XorConstraint(vars=(3,), parity=0), clause(2, -1)
    # equality is tuple equality, chosen so that hashing and comparing run in C
    assert XorConstraint((1,), 0) == ((1,), 0) and hash(XorConstraint((1,), 0)) == hash(((1,), 0))
    assert OrClause((1,)) == ((1,),)
    # a constraint is a pair and a clause a 1-tuple, so they are never equal
    assert XorConstraint((1,), 1) != OrClause((1,)) and XorConstraint((), 1) != OrClause(())
    assert (pair.vars, pair.parity, pair.arity, unit.vars, unit.parity) == ((1, 2), 1, 2, (3,), 0)
    assert (cl.lits, cl.k, cl.variables()) == ((-1, 2), 2, (1, 2))
    assert sorted([pair, unit, TAUTOLOGY, EMPTY_CLAUSE]) == [TAUTOLOGY, EMPTY_CLAUSE, pair, unit]
    assert repr(pair) == "XorConstraint(vars=(1, 2), parity=1)"
    assert repr(TAUTOLOGY) == "XorConstraint(vars=(), parity=0)"
    assert repr(cl) == "OrClause(lits=(-1, 2))" and repr(OrClause(())) == "OrClause(lits=())"
    for value in (pair, unit, EMPTY_CLAUSE, cl, OrClause(())):
        copies = [copy.copy(value), copy.deepcopy(value)]
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in protocols]
        for twin in copies:
            assert twin == value and type(twin) is type(value) and repr(twin) == repr(value)
    with pytest.raises(AttributeError):
        pair.parity = 0
    with pytest.raises(AttributeError):
        pair.note = "no instance dict"
