"""Parity resolution rules and the proof state they transform.

The proof system combines two parity constraints sharing a variable into one
conclusion plus SAT residue clauses that preserve the unsatisfied weight
pointwise; the contradiction rule turns an opposite-parity pair into empty
clause weight.  Derived empty-clause weight m certifies that the problem's
cost is at least m.

All 13 rules are rows of one table, ``RULES``; a step holds what its log
line holds, and :func:`build_step` derives the rest from its row, for the
prover and the checker alike.  Compact rules replace the residue clauses of a
chain step by three parity constraints on a fresh variable; retranslation
steps (``xlate2``, ``xlate3``) turn a residue clause back into parity
constraints through its clause translation.  Both over-count the unsatisfied
weight by an exact ``offset`` per step, subtracted from the usable bound.

Weighted application protocol: every premise must be present in the pool
its form names (the residues for a clause, the entries otherwise), and a
rule fires at the lightest premise weight, so at least one premise is
consumed entirely.  The working state is a plain weighted multiset; unlike
:class:`~max2xor.core.X2XProblem` it may hold both parities of a variable
subset, because cancelling them is exactly the contradiction rule and must
appear in the log.

The prover and the checker both replay through this state machine.  It
trusts :mod:`max2xor.core` and imports nothing else from the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, NamedTuple, Optional, Set, Tuple, Union

from .core import (
    EMPTY_CLAUSE,
    HALF,
    Max2XorError,
    OrClause,
    TAUTOLOGY,
    X2XProblem,
    XorConstraint,
    ZERO,
    _normalize_units,
    _scaled,
    _trusted,
    _unit_fractions,
    check_weight,
    problem_key,
)


class RuleApplicationError(Max2XorError):
    """A premise was missing or the applied weight broke the protocol."""


class PatternError(Max2XorError):
    """Premises or conclusions do not fit the named rule."""


class ProofStep(NamedTuple):
    """One rule application, as its proof log line records it: ``premises``
    are consumed at ``weight`` each, and ``fresh_var`` is the variable the
    step introduces.  Change a copy with ``step._replace(...)``.
    """

    rule: str
    weight: Fraction
    premises: Tuple[object, ...]
    fresh_var: Optional[int] = None


class Derivation(NamedTuple):
    """What :func:`build_step` derives from a step: its checked ``weight``, the
    conclusions and residues, added at ``weight`` times their multiplier, and
    the exact ``offset`` by which they over-count the unsatisfied weight."""

    weight: Fraction
    conclusions: Tuple[Tuple[XorConstraint, Fraction], ...]
    residues: Tuple[Tuple[OrClause, Fraction], ...]
    offset: Fraction


@dataclass
class ProofState:
    """Evolving multiset the prover and the checker both replay against.

    Weights are integers in units of ``1/scale``, the lcm of the input's
    weight denominators.  Rules fire at present weights, and the ``xlate``
    rules halve residues, which enter at twice a present weight, so updates
    stay whole; one that does not raises, never rounds.  Every variable id
    up to ``var_count`` counts as seen; ``seen_vars`` holds the ones above.
    ``provenance`` is the ``problem_key`` of the problem ingested, if any.
    """

    scale: int = 1
    entry_units: Dict[XorConstraint, int] = field(default_factory=dict)
    floor_units: int = 0
    residue_units: Dict[OrClause, int] = field(default_factory=dict)
    offset_units: int = 0
    var_count: int = 0
    seen_vars: Set[int] = field(default_factory=set)
    provenance: Optional[tuple] = field(default=None, repr=False)


RawItems = Iterable[Tuple[XorConstraint, Fraction]]


def make_state(source: Union[X2XProblem, RawItems]) -> ProofState:
    """Ingest a problem or a raw weighted multiset.

    Raw input is merged by key only: opposite-parity pairs are kept so that
    their cancellation shows up as explicit contradiction steps.
    """
    if isinstance(source, X2XProblem):
        items = [(constraint, check_weight(w)) for constraint, w in source.entries.items()]
        items.append((EMPTY_CLAUSE, source.floor))  # the floor is always-false weight
        var_count, key = source.var_count, problem_key(source)
    else:
        items, var_count, key = [(constraint, check_weight(w)) for constraint, w in source], 0, None
    _, scale, units = _scaled(items)
    state, seen = ProofState(scale, var_count=var_count, provenance=key), set()
    for (constraint, _), u in zip(items, units):
        if constraint == TAUTOLOGY:
            continue
        if constraint == EMPTY_CLAUSE:
            state.floor_units += u
            continue
        state.entry_units[constraint] = state.entry_units.get(constraint, 0) + u
        seen.update(constraint.vars)
    state.seen_vars = {v for v in seen if v > var_count}
    return state


# ---------------------------------------------------------------------------
# Rules
#
# A rule maps to its premise form, the premise parities (the clause width
# for a clause), conclusion templates ``(roles, parity, multiplier)``, residue
# templates ``(signed roles, multiplier)`` and its offset per unit of applied
# weight.  Roles are letters naming the premises' terms in ``_ROLES`` order:
# pairs x+a and x+b sharing only x, a unit x and a pair x+a, one variable set
# at two parities, or a residue clause's literals; y is the fresh variable.
# A conclusion is the XOR of its roles at the parity XOR their literal signs;
# a residue is the clause of its signed roles.
_ROLES = {"pairs": "x a b y", "unit": "x a", "same": "", "clause": "p q r y"}


class Rule(NamedTuple):
    """A table row with its roles compiled to indices into the step's terms."""

    form: str
    premise: Union[Tuple[int, int], int]
    conclusions: Tuple[Tuple[Tuple[int, ...], int, Fraction], ...]
    residues: Tuple[Tuple[Tuple[Tuple[int, int], ...], Fraction], ...]  # (position, sign) pairs
    offset: Fraction
    fresh: bool  # whether a template names y


def _rule(form: str, premise, conclusions, residues, offset) -> Rule:
    position = {role: i for i, role in enumerate(_ROLES[form].split())}
    templates = conclusions + residues
    return Rule(
        form,
        premise,
        tuple(
            (tuple(position[r] for r in roles.split()), parity, Fraction(m))
            for roles, parity, m in conclusions
        ),
        tuple(
            (tuple((position[r[-1]], -1 if r[0] == "-" else 1) for r in roles.split()), Fraction(m))
            for roles, m in residues
        ),
        Fraction(offset),
        any("y" in template[0].split() for template in templates),
    )


# Chain rules conclude a+b at the XOR of the premise parities and leave two
# double-weight residues; compact rules flip that conclusion and put three
# pairs on y in place of the residues, overshooting by the applied weight.
# The xlate rules are ``binary_gadget`` and ``sequential_gadget`` anchored
# at the constant one.  A row fixes a step's conclusions, residues and offset
# from its premises, weight and fresh variable, so a proof step holds only
# those, and :func:`build_step` derives the rest.
RULES: Dict[str, Rule] = {
    rule: _rule(*row)
    for rule, row in {
        "chain00": ("pairs", (0, 0), [("a b", 0, 1)], [("x -a -b", 2), ("-x a b", 2)], 0),
        "chain01": ("pairs", (0, 1), [("a b", 1, 1)], [("x -a b", 2), ("-x a -b", 2)], 0),
        "chain11": ("pairs", (1, 1), [("a b", 0, 1)], [("x a b", 2), ("-x -a -b", 2)], 0),
        "compact00": ("pairs", (0, 0), [("a b", 1, 1), ("x y", 0, 2), ("a y", 0, 2),
                                        ("b y", 0, 2)], [], 1),
        "compact01": ("pairs", (0, 1), [("a b", 0, 1), ("x y", 0, 2), ("a y", 0, 2),
                                        ("b y", 1, 2)], [], 1),
        "compact11": ("pairs", (1, 1), [("a b", 1, 1), ("x y", 0, 2), ("a y", 1, 2),
                                        ("b y", 1, 2)], [], 1),
        "unit00": ("unit", (0, 0), [("a", 0, 1)], [("-x a", 2)], 0),
        "unit01": ("unit", (0, 1), [("a", 1, 1)], [("-x -a", 2)], 0),
        "unit10": ("unit", (1, 0), [("a", 1, 1)], [("x -a", 2)], 0),
        "unit11": ("unit", (1, 1), [("a", 0, 1)], [("x a", 2)], 0),
        "contra": ("same", (0, 1), [("", 1, 1)], [], 0),
        "xlate2": ("clause", 2, [("p", 1, HALF), ("q", 1, HALF), ("p q", 1, HALF)], [], HALF),
        "xlate3": ("clause", 3, [("p q", 1, HALF), ("p y", 0, HALF), ("q y", 0, HALF),
                                 ("y r", 1, HALF), ("y", 1, HALF), ("r", 1, HALF)], [], 1),
    }.items()
}


def _premise_terms(rule: str, form: str, premises: Tuple[object, ...], expected) -> Tuple[int, ...]:
    """The premises' terms by role, once they fit the form and its parities or width."""
    if form == "clause":
        if len(premises) != 1 or not isinstance(premises[0], OrClause):
            raise PatternError(f"{rule} takes one residue clause premise")
        (cl,) = premises
        if cl.k != expected:
            width = {2: "binary", 3: "ternary"}[expected]
            raise PatternError(f"{rule} needs a {width} clause, got width {cl.k}")
        return cl.lits
    if len(premises) != 2:
        raise PatternError(f"{rule} takes two premises")
    p1, p2 = premises
    if not (isinstance(p1, XorConstraint) and isinstance(p2, XorConstraint)):
        raise PatternError(f"{rule} premises must be parity constraints")
    if form == "same":
        if p1.vars != p2.vars or (p1.parity, p2.parity) != expected:
            raise PatternError(
                f"{rule} premises must be the same variables at parities "
                f"{expected[0]}/{expected[1]}: {p1} / {p2}"
            )
        return ()
    if form == "pairs":
        if len(p1[0]) != 2 or len(p2[0]) != 2:
            raise PatternError(f"{rule} premises must have two variables: {p1} / {p2}")
        (u1, v1), (u2, v2) = p1[0], p2[0]  # each ascending
        if (u1 == u2) != (v1 == v2):  # x at the same end of both
            terms = (u1, v1, v2) if u1 == u2 else (v1, u1, u2)
        elif u1 == v2 or v1 == u2:  # x at opposite ends
            terms = (u1, v1, u2) if u1 == v2 else (v1, u1, v2)
        else:
            raise PatternError(f"premises must share exactly one variable: {p1} / {p2}")
    else:
        if len(p1[0]) != 1 or len(p2[0]) != 2:
            raise PatternError(f"{rule} premises must be a unit and a pair: {p1} / {p2}")
        ((x,), (u, v)) = p1[0], p2[0]
        if x != u and x != v:
            raise PatternError(f"{rule} premises must share the unit variable")
        terms = (x, v if x == u else u)
    if (p1.parity, p2.parity) != expected:
        raise PatternError(f"{rule} premises must have parities {expected[0]}/{expected[1]}")
    return terms


def build_step(
    rule: str,
    premises: Tuple[object, ...],
    weight: Fraction,
    fresh_var: Optional[int] = None,
) -> Derivation:
    """Derive a rule instance's conclusions, residues and offset; raises on bad patterns."""
    spec = RULES.get(rule)
    if spec is None:
        raise PatternError(f"unknown rule id {rule!r}")
    if fresh_var is not None and not spec.fresh:
        raise PatternError(f"{rule} takes no fresh variable")
    weight = check_weight(weight)
    terms = _premise_terms(rule, spec.form, premises, spec.premise)
    if spec.fresh:
        if fresh_var is None or fresh_var <= 0:
            raise PatternError(f"{rule} needs a fresh variable")
        if fresh_var in map(abs, terms):
            where = "clause" if spec.form == "clause" else "premises"
            raise PatternError(f"fresh variable {fresh_var} occurs in the {where}")
        terms += (fresh_var,)
    # The terms are checked: the premises are ``XorConstraint``/``OrClause``
    # objects, whose variables are positive and distinct, the pattern makes the
    # roles' variables distinct, and the fresh variable is checked positive and
    # new to the premises.  So each conclusion and residue is valid once
    # sorted, and is built without the check in ``__new__``.
    conclusions = []
    for roles, parity, multiplier in spec.conclusions:
        variables = []
        for role in roles:
            lit = terms[role]
            if lit < 0:
                parity ^= 1
                lit = -lit
            variables.append(lit)
        variables.sort()
        conclusions.append((_trusted(XorConstraint, (tuple(variables), parity)), multiplier))
    residues = []
    for lits, multiplier in spec.residues:
        signed = sorted([sign * terms[role] for role, sign in lits], key=abs)
        residues.append((_trusted(OrClause, (tuple(signed),)), multiplier))
    offset = weight * spec.offset if spec.offset else ZERO
    return Derivation(weight, tuple(conclusions), tuple(residues), offset)


# ---------------------------------------------------------------------------
# State transition


def _times(units: int, factor: Fraction, scale: int) -> int:
    """``units * factor``, which must be a whole number of units."""
    num, den = factor.as_integer_ratio()
    if den == 1:
        return units * num
    product, rest = divmod(units * num, den)
    if rest:
        raise RuleApplicationError(
            f"{Fraction(units, scale) * factor} is not a whole multiple of 1/{scale}"
        )
    return product


def _replay_step(state: ProofState, step: ProofStep, derived: Derivation) -> None:
    """Apply a step and its derivation after checking its weights and its
    fresh variable.  The prover and the checker both change a state only here.
    """
    scale, entries = state.scale, state.entry_units
    pool = state.residue_units if RULES[step.rule].form == "clause" else entries
    lightest = None
    for premise in step.premises:
        present = pool.get(premise)
        if present is None:
            raise RuleApplicationError(f"{step.rule} premise {premise} not present")
        if lightest is None or present < lightest:
            lightest = present
    num, den = derived.weight.as_integer_ratio()
    per, rest = divmod(scale, den)
    weight = None if rest else num * per  # off the grid: no premise weight
    if weight != lightest:
        raise RuleApplicationError(
            f"applied weight {derived.weight} must equal the lightest premise weight "
            f"{Fraction(lightest, scale)} (one premise is consumed entirely)"
        )
    fresh = step.fresh_var
    if fresh is not None and (fresh <= state.var_count or fresh in state.seen_vars):
        raise PatternError(f"variable {fresh} is not fresh")
    for premise in step.premises:
        remaining = pool[premise] - weight
        if remaining == 0:
            del pool[premise]
        else:
            pool[premise] = remaining
    # conclusions name only the premises' variables and the fresh one
    for constraint, multiplier in derived.conclusions:
        added = _times(weight, multiplier, scale)
        if constraint == EMPTY_CLAUSE:
            state.floor_units += added
        else:
            entries[constraint] = entries.get(constraint, 0) + added
    for cl, multiplier in derived.residues:
        state.residue_units[cl] = state.residue_units.get(cl, 0) + _times(weight, multiplier, scale)
    if derived.offset:
        state.offset_units += _times(scale, derived.offset, scale)
    if fresh is not None:
        state.seen_vars.add(fresh)


def apply_rule(
    state: ProofState,
    rule: str,
    premises: Tuple[object, ...],
    weight: Fraction,
    alloc=None,
) -> Tuple[ProofStep, Derivation]:
    """Fire one rule against the state; returns the step and its derivation.

    Rules that introduce a variable (the compact rules and ``xlate3``) draw
    it from ``alloc``, a :class:`~max2xor.core.VarAllocator`, which only
    advances when the step applies.
    """
    takes_fresh = rule in RULES and RULES[rule].fresh  # build_step rejects an unknown rule
    if takes_fresh and alloc is None:
        raise PatternError(f"{rule} needs a variable allocator")
    fresh_var = alloc.next_id if takes_fresh else None
    derived = build_step(rule, premises, weight, fresh_var)
    step = ProofStep(rule, derived.weight, tuple(premises), fresh_var)
    _replay_step(state, step, derived)
    if takes_fresh:
        alloc.fresh()
    return step, derived


@dataclass
class ProofSummary:
    """Outcome of a saturation run.

    ``bound_m`` is the usable certified bound: total derived empty-clause
    weight (the final floor, which includes the input floor) minus the
    accumulated rule offsets.  Exactly
    ``bound_m + Cost(residual and residues) = Cost(input)``.

    ``rounds`` counts the rounds in the returned proof; ``round_stats`` has
    one entry per round run, so a dropped last round shows as an extra pair.
    """

    bound_m: Fraction
    residual: X2XProblem
    residue_clauses: Tuple[Tuple[OrClause, Fraction], ...]
    rounds: int
    steps: int
    floor_total: Fraction
    offset_total: Fraction
    round_stats: Tuple[Tuple[int, int], ...] = ()  # (entries at round start, rule steps)
    provenance: Optional[tuple] = field(default=None, repr=False)  # problem_key of the problem proved


def _summarize(
    state: ProofState, rounds: int, steps: int, round_stats: Tuple[Tuple[int, int], ...] = ()
) -> ProofSummary:
    scale, residues = state.scale, state.residue_units
    fraction = _unit_fractions(scale)
    var_count = max(state.var_count, max(state.seen_vars, default=0))
    return ProofSummary(
        bound_m=Fraction(state.floor_units - state.offset_units, scale),
        residual=_normalize_units(state.entry_units.items(), scale, var_count),
        residue_clauses=tuple((cl, fraction(residues[cl])) for cl in sorted(residues)),
        rounds=rounds,
        steps=steps,
        floor_total=Fraction(state.floor_units, scale),
        offset_total=Fraction(state.offset_units, scale),
        round_stats=round_stats,
        provenance=state.provenance,
    )
