"""Parity resolution: rules, saturation engine, and independent proof checker.

The proof system combines two parity constraints sharing a variable into one
conclusion plus SAT residue clauses that preserve the unsatisfied weight
pointwise; the contradiction rule turns an opposite-parity pair into empty
clause weight.  Derived empty-clause weight m certifies that the problem's
cost is at least m.

All 13 rules are rows of one table, ``RULES``, and :func:`build_step` builds
every step from its row, for the engine and the checker alike; the checker
tables each row once per process (per literal signs for a clause).  Compact
rules replace the residue clauses of a chain step by three parity
constraints on a fresh variable; retranslation steps (``xlate2``,
``xlate3``) turn a residue clause back into parity constraints through its
clause translation.  Both over-count the unsatisfied weight by an exact
``offset`` per step, which is subtracted from the usable bound.

Weighted application protocol: every premise must be present in the pool
its form names (the residues for a clause, the entries otherwise), and a
rule fires at the lightest premise weight, so at least one premise is
consumed entirely.  The working state is a plain weighted multiset; unlike
:class:`~max2xor.core.X2XProblem` it may hold both parities of a variable
subset, because cancelling them is exactly the contradiction rule and must
appear in the log.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

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
    check_weight,
    format_rational,
)
from .gadgets import CompileReport, VarAllocator, problem_digest
from .oracle import _collect_vars, _index_to_assignment, unsat_weight_profile


class RuleApplicationError(Max2XorError):
    """A premise was missing or the applied weight broke the protocol."""


class PatternError(Max2XorError):
    """Premises or conclusions do not fit the named rule."""


class ProvenanceError(Max2XorError):
    """A proof summary was paired with a report it was not derived from."""


@dataclass(frozen=True)
class ProofStep:
    """One replayable rule application.

    ``premises`` are consumed at ``weight`` each; conclusions and residues
    are added at ``weight`` times their multiplier.  ``offset`` is the exact
    amount by which the conclusions over-count the unsatisfied weight (0 for
    the plain rules).
    """

    rule: str
    weight: Fraction
    premises: Tuple[object, ...]
    conclusions: Tuple[Tuple[XorConstraint, Fraction], ...]
    residues: Tuple[Tuple[OrClause, Fraction], ...] = ()
    offset: Fraction = ZERO
    fresh_var: Optional[int] = None


@dataclass
class ProofState:
    """Evolving multiset the engine and the checker both replay against.

    Weights are integers in units of ``1/scale``, the lcm of the input's
    weight denominators.  Rules fire at present weights, and the ``xlate``
    rules halve residues, which enter at twice a present weight, so updates
    stay whole; one that does not raises, never rounds.
    """

    scale: int = 1
    entry_units: Dict[XorConstraint, int] = field(default_factory=dict)
    floor_units: int = 0
    residue_units: Dict[OrClause, int] = field(default_factory=dict)
    offset_units: int = 0
    seen_vars: Set[int] = field(default_factory=set)
    index: Optional[_CycleIndex] = None  # kept in step with ``entry_units`` when set


RawItems = Iterable[Tuple[XorConstraint, Fraction]]


def make_state(source: Union[X2XProblem, RawItems]) -> ProofState:
    """Ingest a problem or a raw weighted multiset.

    Raw input is merged by key only: opposite-parity pairs are kept so that
    their cancellation shows up as explicit contradiction steps.
    """
    if isinstance(source, X2XProblem):
        items = [(constraint, check_weight(w)) for constraint, w in source.entries.items()]
        items.append((EMPTY_CLAUSE, source.floor))  # the floor is always-false weight
        seen = set(range(1, source.var_count + 1))
    else:
        items, seen = [(constraint, check_weight(w)) for constraint, w in source], set()
    _, scale, units = _scaled(items)
    state = ProofState(scale, seen_vars=seen)
    for (constraint, _), u in zip(items, units):
        if constraint == TAUTOLOGY:
            continue
        if constraint == EMPTY_CLAUSE:
            state.floor_units += u
            continue
        state.entry_units[constraint] = state.entry_units.get(constraint, 0) + u
        seen.update(constraint.vars)
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
    residues: Tuple[Tuple[Tuple[Tuple[int, int], ...], Fraction], ...]  # (index, sign) pairs
    offset: Fraction
    fresh: bool  # whether a template names y


def _rule(form: str, premise, conclusions, residues, offset) -> Rule:
    index = {role: i for i, role in enumerate(_ROLES[form].split())}
    return Rule(
        form,
        premise,
        tuple(
            (tuple(index[r] for r in roles.split()), parity, Fraction(m))
            for roles, parity, m in conclusions
        ),
        tuple(
            (tuple((index[r[-1]], -1 if r[0] == "-" else 1) for r in roles.split()), Fraction(m))
            for roles, m in residues
        ),
        Fraction(offset),
        any("y" in template[0].split() for template in conclusions + residues),
    )


# Chain rules conclude a+b at the XOR of the premise parities and leave two
# double-weight residues; compact rules flip that conclusion and put three
# pairs on y in place of the residues, overshooting by the applied weight.
# The xlate rules are ``binary_gadget`` and ``sequential_gadget`` anchored
# at the constant one.
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


def _other(premise: XorConstraint, x: int) -> int:
    return premise.vars[0] if premise.vars[1] == x else premise.vars[1]


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
        if p1.arity != 2 or p2.arity != 2:
            raise PatternError(f"{rule} premises must have two variables: {p1} / {p2}")
        shared = set(p1.vars) & set(p2.vars)
        if len(shared) != 1:
            raise PatternError(f"premises must share exactly one variable: {p1} / {p2}")
        (x,) = shared
        terms = (x, _other(p1, x), _other(p2, x))
    else:
        if p1.arity != 1 or p2.arity != 2:
            raise PatternError(f"{rule} premises must be a unit and a pair: {p1} / {p2}")
        (x,) = p1.vars
        if x not in p2.vars:
            raise PatternError(f"{rule} premises must share the unit variable")
        terms = (x, _other(p2, x))
    if (p1.parity, p2.parity) != expected:
        raise PatternError(f"{rule} premises must have parities {expected[0]}/{expected[1]}")
    return terms


def build_step(
    rule: str,
    premises: Tuple[object, ...],
    weight: Fraction,
    fresh_var: Optional[int] = None,
) -> ProofStep:
    """Construct the canonical step for a rule instance; raises on bad patterns."""
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
        conclusions.append((XorConstraint(tuple(variables), parity), multiplier))
    residues = [
        (OrClause(tuple(sorted([sign * terms[role] for role, sign in lits], key=abs))), multiplier)
        for lits, multiplier in spec.residues
    ]
    offset = weight * spec.offset if spec.offset else ZERO
    return ProofStep(
        rule, weight, tuple(premises), tuple(conclusions), tuple(residues), offset, fresh_var
    )


# ---------------------------------------------------------------------------
# State transition


def _times(units: int, factor: Fraction, scale: int) -> int:
    """``units * factor``, which must be a whole number of units."""
    product, rest = divmod(units * factor.numerator, factor.denominator)
    if rest:
        raise RuleApplicationError(
            f"{Fraction(units, scale) * factor} is not a whole multiple of 1/{scale}"
        )
    return product


def _replay_step(state: ProofState, step: ProofStep) -> None:
    """Apply a built step after checking its weights and its fresh variable.

    The engine and the checker both change a state only through here.
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
    per, rest = divmod(scale, step.weight.denominator)
    weight = None if rest else step.weight.numerator * per  # off the grid: no premise weight
    if weight != lightest:
        raise RuleApplicationError(
            f"applied weight {step.weight} must equal the lightest premise weight "
            f"{Fraction(lightest, scale)} (one premise is consumed entirely)"
        )
    if step.fresh_var is not None and step.fresh_var in state.seen_vars:
        raise PatternError(f"variable {step.fresh_var} is not fresh")
    for premise in step.premises:
        remaining = pool[premise] - weight
        if remaining == 0:
            del pool[premise]
            if pool is entries and state.index is not None:
                state.index.discard(premise)
        else:
            pool[premise] = remaining
    for constraint, multiplier in step.conclusions:
        added = _times(weight, multiplier, scale)
        if constraint == EMPTY_CLAUSE:
            state.floor_units += added
            continue
        if constraint in entries:
            entries[constraint] += added
        else:
            entries[constraint] = added
            if state.index is not None:
                state.index.add(constraint)
        state.seen_vars.update(constraint.vars)
    for cl, multiplier in step.residues:
        state.residue_units[cl] = state.residue_units.get(cl, 0) + _times(weight, multiplier, scale)
    if step.offset:
        state.offset_units += _times(scale, step.offset, scale)
    if step.fresh_var is not None:
        state.seen_vars.add(step.fresh_var)


def apply_rule(
    state: ProofState,
    rule: str,
    premises: Tuple[object, ...],
    weight: Fraction,
    alloc: Optional[VarAllocator] = None,
) -> Tuple[ProofState, ProofStep]:
    """Fire one rule against the state; returns the mutated state and step.

    Rules that introduce a variable (the compact rules and ``xlate3``) draw
    it from ``alloc``, which only advances when the step applies.
    """
    takes_fresh = rule in RULES and RULES[rule].fresh  # build_step rejects an unknown rule
    if takes_fresh and alloc is None:
        raise PatternError(f"{rule} needs a variable allocator")
    fresh_var = alloc.next_id if takes_fresh else None
    step = build_step(rule, tuple(premises), weight, fresh_var)
    _replay_step(state, step)
    if takes_fresh:
        alloc.fresh()
    return state, step


# ---------------------------------------------------------------------------
# Odd cycle search
#
# Two-variable constraints are edges, unit constraints are edges to a virtual
# constant node.  A cycle is contractible when its parities XOR to one, which
# is a closed walk from (v, 0) to (v, 1) in the parity double cover: there,
# key ``2*v + s`` stands for node v reached along a walk of parity s.

Entries = Mapping[XorConstraint, Fraction]
CONSTANT_NODE = 0  # virtual endpoint of unit constraints
Cover = Dict[int, List[int]]  # double-cover key -> ascending neighbour keys


def _cover_edges(constraint: XorConstraint):
    """Double-cover edges of a constraint on (u, v) at parity p: key ``2u + s``
    links to ``2v + (s ^ p)`` for both signs s, and the reverse."""
    u, v = (CONSTANT_NODE, *constraint.vars) if constraint.arity == 1 else constraint.vars
    p = constraint.parity
    return (
        (2 * u, 2 * v + p),
        (2 * u + 1, 2 * v + (p ^ 1)),
        (2 * v, 2 * u + p),
        (2 * v + 1, 2 * u + (p ^ 1)),
    )


class _CycleIndex:
    """Search view of an entry multiset, updated as keys appear and vanish.

    ``cover`` is the double cover's adjacency with every neighbour list kept
    sorted, so the search scans neighbours in ascending (variable, parity)
    order.  It is the one record of which constraints exist: the set on
    (u, v) at parity p is present exactly when ``2v + p`` is on the list of
    ``2u``.  ``opposite`` holds the nonempty variable sets at both parities.
    """

    def __init__(self, entries: Iterable[XorConstraint]):
        self.cover: Cover = {}
        self.opposite: Set[Tuple[int, ...]] = set()
        for constraint in entries:
            self.add(constraint)

    def add(self, constraint: XorConstraint) -> None:
        if not constraint.vars:
            return
        edges = _cover_edges(constraint)
        key, twin = edges[0][0], edges[0][1] ^ 1  # the edge of the other parity
        nbrs = self.cover.get(key, [])
        i = bisect_left(nbrs, twin)
        if i < len(nbrs) and nbrs[i] == twin:
            self.opposite.add(constraint.vars)
        for key, nbr in edges:
            insort(self.cover.setdefault(key, []), nbr)

    def discard(self, constraint: XorConstraint) -> None:
        if not constraint.vars:
            return
        self.opposite.discard(constraint.vars)
        for key, nbr in _cover_edges(constraint):
            nbrs = self.cover[key]
            del nbrs[bisect_left(nbrs, nbr)]
            if not nbrs:
                del self.cover[key]


def _bfs_odd_walk(cover: Cover, source: int) -> Optional[List[Tuple[int, int, int]]]:
    """Shortest odd closed walk through ``source`` as (u, v, parity) edges.

    Breadth-first search on the double cover from key ``2*source`` to
    ``2*source + 1``, one level at a time: each level is a list of keys in
    discovery order and each key's neighbours are scanned in ascending
    order.  It returns at the first discovery of the goal, so among the
    shortest walks it returns the one that this order reaches first.  A
    source on no edge has no walk.
    """
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


def _odd_walk_length(
    cover: Cover, source: int, limit: Optional[int] = None, depth: Optional[Dict[int, int]] = None
) -> Optional[int]:
    """Edges in the shortest odd closed walk through ``source`` that visits
    no node below ``source``, or None.

    Flipping every parity maps the double cover onto itself, so the walk
    length is the least ``d(k) + d(k ^ 1)`` over keys k, with d the distance
    from ``2*source``.  A key found at depth d whose twin is already known
    gives ``2d - 1`` (twin one level up) or ``2d`` (twin on the same level),
    so the search stops after depth ``ceil(length / 2)``.  With a ``limit``
    it returns None instead of any length of ``limit`` or more edges.  An
    empty ``depth`` dict passed in is left holding every key reached.
    """
    start = 2 * source
    depth = {} if depth is None else depth
    depth[start] = 0
    level = [start]
    d = 1  # depth of the keys found while expanding ``level``
    while level and (limit is None or 2 * d - 1 < limit):
        following = []
        even = False
        for key in level:
            for nxt in cover[key]:
                if nxt < start or nxt in depth:
                    continue
                depth[nxt] = d
                twin = depth.get(nxt ^ 1)
                if twin is not None:
                    if twin < d:
                        return 2 * d - 1
                    even = True
                following.append(nxt)
        if even:
            return 2 * d if limit is None or 2 * d < limit else None
        level = following
        d += 1
    return None


def _edge_constraint(u: int, v: int, parity: int) -> XorConstraint:
    if u == CONSTANT_NODE:
        return XorConstraint((v,), parity)
    if v == CONSTANT_NODE:
        return XorConstraint((u,), parity)
    return XorConstraint(tuple(sorted((u, v))), parity)


def _triangle(
    cover: Cover, sources: Iterable[int], parity: int
) -> Optional[List[Tuple[int, int, int]]]:
    """First three-edge walk of the given parity that closes at a source, as
    (u, v, parity) edges ending at the source, or None.

    For each source s in ascending order, it reads only the keys k on the
    list of ``2s`` whose vertex is above s, and returns the first walk
    ``2s, k, j`` whose end's ``j ^ parity`` is one of those keys.  That is
    exact: the least vertex of a triangle is the first source that can see
    it, and the triangle's other two vertices lie above that vertex.  So the
    winning source and its first hit in neighbour order are those of a scan
    over every neighbour, which for parity 1 is the walk that
    :func:`_bfs_odd_walk` builds.  A triangle read the other way round is a
    hit too, at its other far vertex, so the first hit has ``u < v``.
    Expects no opposite-parity pair, so each vertex is on a list once.
    """
    for s in sources:
        nbrs = cover[2 * s]
        above = nbrs[bisect_left(nbrs, 2 * s + 2):]
        ends = {key ^ parity for key in above}
        for key in above:
            for far in cover[key]:
                if far in ends:
                    u, v = key >> 1, far >> 1
                    return [(s, u, key & 1), (u, v, (key ^ far) & 1), (v, s, (far & 1) ^ parity)]
    return None


def _shortest_odd_walk(cover: Cover, sources: List[int]) -> Optional[List[Tuple[int, int, int]]]:
    """The walk of the least source among those with the shortest odd closed
    walk, as :func:`_bfs_odd_walk` builds it, or None.

    Expects no opposite-parity pair, so no walk is shorter than the three
    edges that :func:`_triangle` finds.  Failing that, each length search
    reads no node below its source, by the least-vertex rule of
    :func:`_triangle`: a shortest odd cycle is found from its least node,
    the first source on it, and no source finds a shorter one.  Each search
    only has to beat the best so far, and the scan ends at the first
    four-edge walk.  A search without a limit that finds no walk clears its
    whole component: its source is the component's least node, since a
    smaller one would have cleared it, so it read the whole component, and
    no source there has a walk.
    """
    triangle = _triangle(cover, sources, 1)
    if triangle is not None:
        return triangle
    best = winner = None
    bipartite: Set[int] = set()  # sources in components without an odd cycle
    for s in sources:
        if s in bipartite:
            continue
        reached: Dict[int, int] = {}
        length = _odd_walk_length(cover, s, best, reached)
        if length is not None:
            best, winner = length, s
            if length == 4:
                break
        elif best is None:
            bipartite.update(key >> 1 for key in reached)
    return None if winner is None else _bfs_odd_walk(cover, winner)


def _next_cycle(
    index: _CycleIndex, compact: bool = False, triangle_quota: int = 0
) -> Optional[Tuple[List[XorConstraint], str]]:
    """Next contractible cycle and its kind, in every saturation mode.

    First the opposite-parity pair with the least variable set (``pair``).
    Then the shortest odd cycle (``odd``, see :func:`_shortest_odd_walk`);
    in compact mode the constant node's walk (``unit-chain``), since
    unit-rule chains do not flip parities.  Then, in compact mode while
    ``triangle_quota`` lasts, the least parity-balanced triangle off the
    constant node (``triangle``), which exercises the compact chain rules.
    """
    if index.opposite:
        vars_ = min(index.opposite)
        return [XorConstraint(vars_, 0), XorConstraint(vars_, 1)], "pair"
    cover = index.cover
    if compact:
        best = _bfs_odd_walk(cover, CONSTANT_NODE)
    else:
        best = _shortest_odd_walk(cover, [key >> 1 for key in sorted(cover) if not key & 1])
    if best is not None:
        cycle = [_edge_constraint(u, v, p) for u, v, p in best]
        if len(set(cycle)) == len(cycle):  # globally shortest odd walks are simple
            return cycle, "unit-chain" if compact else "odd"
    if compact and triangle_quota > 0:
        sources = [key >> 1 for key in sorted(cover) if not key & 1 and key >> 1 != CONSTANT_NODE]
        triangle = _triangle(cover, sources, 0)
        if triangle is not None:
            return [_edge_constraint(u, v, p) for u, v, p in triangle], "triangle"
    return None


def find_odd_cycle(
    source: Union[X2XProblem, Entries]
) -> Optional[Tuple[List[XorConstraint], Fraction]]:
    """Shortest cycle whose parities XOR to one and its weight, or None.

    Two-variable constraints are edges, unit constraints are edges to a
    virtual constant node; an opposite-parity pair is a two-cycle and comes
    first.  Otherwise the cycle is the walk of the least node (the constant
    node first) among those with the shortest odd closed walk, as a
    breadth-first search from it builds it.  So the walk starts at the
    constant node whenever the cycle passes through it, and the cycle's
    constraint order is directly contractible.
    """
    entries = source.entries if isinstance(source, X2XProblem) else source
    found = _next_cycle(_CycleIndex(entries))
    if found is None:
        return None
    cycle = found[0]
    return cycle, min(entries[c] for c in cycle)


# ---------------------------------------------------------------------------
# Saturation engine


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
    provenance: str = ""


MODES = ("discard", "retranslate", "compact")

# Parity-balanced triangles a compact-mode round may contract.
COMPACT_TRIANGLE_QUOTA = 4


def _summarize(
    state: ProofState,
    var_count: int,
    rounds: int,
    steps: int,
    round_stats: Tuple[Tuple[int, int], ...] = (),
    provenance: str = "",
) -> ProofSummary:
    scale, residues = state.scale, state.residue_units
    return ProofSummary(
        bound_m=Fraction(state.floor_units - state.offset_units, scale),
        residual=_normalize_units(state.entry_units.items(), scale, var_count),
        residue_clauses=tuple((cl, Fraction(residues[cl], scale)) for cl in sorted(residues)),
        rounds=rounds,
        steps=steps,
        floor_total=Fraction(state.floor_units, scale),
        offset_total=Fraction(state.offset_units, scale),
        round_stats=round_stats,
        provenance=provenance,
    )


def _attains_bound(state: ProofState) -> bool:
    """Whether a bounded search finds an assignment that satisfies every
    entry and residue clause, which makes the bound the optimum.

    The entries 2-colour each component from its first node, the constant
    node at 0.  A clause then holds outright or wants components kept or
    flipped; every flip of the components they touch is tried, up to 12 of them.
    """
    cover, colour = state.index.cover, {}  # variable -> (its component's first node, colour)
    for start in [CONSTANT_NODE, *(key >> 1 for key in cover)]:
        if start in colour:
            continue
        colour[start], stack = (start, 0), [2 * start]
        while stack:
            for nxt in cover.get(stack.pop(), ()):
                v, c = nxt >> 1, nxt & 1
                if v not in colour:
                    colour[v] = start, c
                    stack.append(nxt)
                elif colour[v][1] != c:
                    return False
    bits, clauses = {}, []  # component -> its flip bit; per open clause, the bits kept or flipped
    for cl in state.residue_units:
        wants = [0, 0]
        for lit in cl.lits:
            component, c = colour.get(abs(lit), (abs(lit), 0))
            if component != CONSTANT_NODE:
                wants[c ^ (lit > 0)] |= bits.setdefault(component, 1 << len(bits))
            elif c == (lit > 0):
                break
        else:
            clauses.append(wants)
    return len(bits) <= 12 and any(
        all(~mask & keep or mask & flip for keep, flip in clauses) for mask in range(1 << len(bits))
    )


def _combine(acc: XorConstraint, edge: XorConstraint, compact: bool):
    """Rule id and ordered premises for one contraction step."""
    if acc.arity == 1:
        rule = f"unit{acc.parity}{edge.parity}"
        return rule, (acc, edge)
    first, second = acc, edge
    if first.parity > second.parity:
        first, second = second, first
    family = "compact" if compact else "chain"
    return f"{family}{first.parity}{second.parity}", (first, second)


def _contract_cycle(
    state: ProofState,
    cycle: List[XorConstraint],
    compact: bool,
    alloc: VarAllocator,
    steps: List[ProofStep],
) -> int:
    units, scale = state.entry_units, state.scale
    acc = cycle[0]
    for edge in cycle[1:-1]:
        rule, premises = _combine(acc, edge, compact)
        weight = Fraction(min(units[premises[0]], units[premises[1]]), scale)
        _, step = apply_rule(state, rule, premises, weight, alloc)
        steps.append(step)
        acc = step.conclusions[0][0]
    closing = cycle[-1]
    premises = (acc, closing) if acc.parity == 0 else (closing, acc)
    weight = Fraction(min(units[premises[0]], units[premises[1]]), scale)
    _, step = apply_rule(state, "contra", premises, weight)
    steps.append(step)
    return len(cycle) - 1


def saturate(
    source: Union[X2XProblem, RawItems],
    mode: str = "discard",
    max_rounds: int = 3,
) -> Tuple[ProofSummary, List[ProofStep]]:
    """Derive empty-clause weight by repeated odd-cycle contraction.

    ``discard`` logs residue clauses but never feeds them back;
    ``retranslate`` compiles them into fresh parity constraints between
    rounds (up to ``max_rounds`` saturation rounds); ``compact`` uses the
    fresh-variable chain rules instead of residue clauses and contracts up to
    ``COMPACT_TRIANGLE_QUOTA`` parity-balanced triangles.  Per round, rule
    applications are budgeted by the entry count at the round's start, which
    enforces the linear derivation length; ``max_rounds`` must be an int >= 1.

    Only the ``xlate`` steps at a round's start lower the bound, so the best
    proof prefix ends at a round end.  Retranslation stops after the first
    round whose end bound does not rise above the previous one (a tie keeps
    the shorter proof) and returns the proof and summary as of that previous
    round.  It also stops at a round end where an assignment satisfies every
    entry and residue clause: the bound is then the optimum, so a later round
    would be dropped.  ``rounds`` counts the rounds kept; ``round_stats`` has
    one ``(budget, used)`` pair for every round run, dropped or not.
    """
    if mode not in MODES:
        raise Max2XorError(f"unknown mode {mode!r}; pick one of {MODES}")
    if type(max_rounds) is not int or max_rounds < 1:
        raise Max2XorError("retranslate rounds must be at least 1")
    provenance = problem_digest(source) if isinstance(source, X2XProblem) else ""
    state = make_state(source)
    state.index = _CycleIndex(state.entry_units)
    alloc = VarAllocator(max(state.seen_vars, default=0) + 1)
    steps: List[ProofStep] = []
    round_stats: List[Tuple[int, int]] = []
    rounds = 0
    total_rounds = max_rounds if mode == "retranslate" else 1
    kept: Optional[ProofSummary] = None  # the last round end, when a round followed it
    kept_units = 0  # its bound in units of 1/state.scale

    while True:
        rounds += 1
        if rounds > 1:
            for cl in sorted(state.residue_units):
                if cl.k in (2, 3):
                    weight = Fraction(state.residue_units[cl], state.scale)
                    _, step = apply_rule(state, f"xlate{cl.k}", (cl,), weight, alloc)
                    steps.append(step)
        budget = len(state.entry_units)
        used = 0
        quota = COMPACT_TRIANGLE_QUOTA
        while True:
            found = _next_cycle(state.index, mode == "compact", quota)
            if found is None:
                break
            cycle, kind = found
            if kind == "triangle":
                quota -= 1
            if used + len(cycle) - 1 > budget:
                break
            used += _contract_cycle(state, cycle, mode == "compact", alloc, steps)
        round_stats.append((budget, used))
        bound_units = state.floor_units - state.offset_units
        if kept is not None and bound_units <= kept_units:
            return replace(kept, round_stats=tuple(round_stats)), steps[: kept.steps]
        summary = _summarize(
            state, alloc.next_id - 1, rounds, len(steps), tuple(round_stats), provenance
        )
        if (
            mode != "retranslate"
            or rounds >= total_rounds
            or not any(cl.k in (2, 3) for cl in state.residue_units)
            or _attains_bound(state)
        ):
            return summary, steps
        kept, kept_units = summary, bound_units


# ---------------------------------------------------------------------------
# Independent checker


@dataclass
class CheckVerdict:
    """Outcome of :func:`check_proof`.

    ``stats`` counts the work of the call: ``truth_tables`` run and
    ``shape_hits``, the steps whose shape (rule row, and literal signs for a
    clause premise) had already passed its table.
    """

    accepted: bool
    failing_step: Optional[int] = None
    reason: Optional[str] = None
    summary: Optional[ProofSummary] = None
    stats: Dict[str, int] = field(default_factory=dict, compare=False)


def _truth_table_reason(step: ProofStep) -> Optional[str]:
    """Exact unsatisfied-weight check of one step over all assignments.

    Without a fresh variable the conclusions must over-count the premises by
    exactly ``offset`` pointwise; with one, by exactly ``offset`` at the best
    fresh value (so by at least ``offset`` at the other).  The deltas come
    from the oracle's kernel, with the premises at ``-weight`` and the fresh
    variable last, so rows ``2r`` and ``2r + 1`` are its two values at base
    assignment r, in ``itertools.product`` order.
    """
    items = [(p, -step.weight) for p in step.premises]
    items += [(c, step.weight * m) for c, m in step.conclusions + step.residues]
    fresh = step.fresh_var
    base = [v for v in _collect_vars(items) if v != fresh]
    deltas = unsat_weight_profile(items, base + ([] if fresh is None else [fresh]))
    if fresh is None:
        for row, delta in enumerate(deltas):
            if delta != step.offset:
                return (
                    f"unsatisfied weight changes by {delta} instead of {step.offset} "
                    f"at {_index_to_assignment(row, base)}"
                )
        return None
    for row in range(len(deltas) // 2):
        pair = deltas[2 * row : 2 * row + 2]
        if min(pair) != step.offset:
            return (
                f"fresh-variable deltas {pair} violate offset {step.offset} "
                f"at {_index_to_assignment(row, base)}"
            )
    return None


# Shapes of steps that equal their canonical instance and passed the truth
# table, shared by every check_proof call in the process.  Rejections are
# never stored, so a failing step always runs its table and its message
# quotes the real weights and assignment.
_ACCEPTED_SHAPES: Set[tuple] = set()


def _step_shape(step: ProofStep) -> tuple:
    """A canonical step's ``RULES`` row, plus its literal signs for a clause
    premise: at most 11 + 4 + 8 = 23 keys.

    Steps with one key have one truth table up to renaming and scale:
    only a step equal to :func:`build_step`'s canonical instance is tabled;
    :func:`_premise_terms` fixes each form's premise pattern and parities;
    the premises' variables are distinct by the ``XorConstraint`` and
    ``OrClause`` invariants, and :func:`build_step` requires the fresh
    variable to be new; every unsatisfied-weight term, and the offset,
    scales with ``weight > 0``.  ``contra``'s table does not depend on the
    arity: exactly one of the two parities is unsatisfied.  The key holds
    the row's value, so a changed row is tabled afresh.
    """
    spec = RULES[step.rule]
    if spec.form == "clause":
        return spec, tuple([l > 0 for l in step.premises[0].lits])
    return spec


def _derived_rounds(steps: Sequence[ProofStep]) -> int:
    rounds = 1
    previous_was_xlate = False
    for step in steps:
        is_xlate = RULES[step.rule].form == "clause"
        if is_xlate and not previous_was_xlate:
            rounds += 1
        previous_was_xlate = is_xlate
    return rounds


def check_proof(
    source: Union[X2XProblem, RawItems],
    steps: Sequence[ProofStep],
    claimed: Optional[ProofSummary] = None,
) -> CheckVerdict:
    """Replay a proof against the input, re-verifying every step.

    Each step is checked for rule-pattern fidelity (the step must equal the
    canonical instance the rule produces from its premises) and exact
    unsatisfied-weight preservation by truth table, then applied through the
    engine's own replay routine, which checks the weight protocol (the
    applied weight equals the smaller premise weight) and the freshness of
    introduced variables.  Accepts, or pinpoints the first failing step.

    A truth table runs once per step shape in the process: the rule's row,
    plus the literal signs for a clause premise (:func:`_step_shape`), so
    the process runs at most 23 tables.
    Tables run on the oracle's enumeration kernel through
    :func:`~max2xor.oracle.unsat_weight_profile`; the checker imports none
    of the cycle search.
    """
    stats = {"truth_tables": 0, "shape_hits": 0}
    state = make_state(source)
    for index, step in enumerate(steps):
        try:
            expected = build_step(step.rule, step.premises, step.weight, step.fresh_var)
            if expected != step:
                raise PatternError(
                    f"step is not the canonical {step.rule} instance of its premises"
                )
            # from here on the canonical instance, whose rationals are
            # Fractions even when a hand-built step that equals it holds
            # ints or floats
            shape = _step_shape(expected)
            if shape in _ACCEPTED_SHAPES:
                stats["shape_hits"] += 1
            else:
                stats["truth_tables"] += 1
                table_reason = _truth_table_reason(expected)
                if table_reason is not None:
                    raise PatternError(f"truth table: {table_reason}")
                _ACCEPTED_SHAPES.add(shape)
            _replay_step(state, expected)
        except Max2XorError as exc:
            return CheckVerdict(
                accepted=False, failing_step=index, reason=str(exc), stats=stats
            )

    derived = _summarize(
        state, max(state.seen_vars, default=0), _derived_rounds(steps), len(steps)
    )
    reason = None
    if claimed is not None:
        if claimed.bound_m != derived.bound_m:
            reason = (
                f"claimed bound {format_rational(claimed.bound_m)} differs from "
                f"derived {format_rational(derived.bound_m)}"
            )
        elif (
            claimed.residual.entries != derived.residual.entries
            or claimed.residual.floor != derived.residual.floor
        ):
            reason = "claimed residual differs from replay"
        elif tuple(claimed.residue_clauses) != derived.residue_clauses:
            reason = "claimed residues differ from replay"
    return CheckVerdict(accepted=reason is None, reason=reason, summary=derived, stats=stats)


# ---------------------------------------------------------------------------
# Linking bounds back to the source instance


@dataclass
class BoundVerdict:
    unsat_proven: bool
    lower_bound: Fraction  # on the source instance's cost
    message: str


def bound_to_original(summary: ProofSummary, report: CompileReport) -> BoundVerdict:
    """Interpret a compiled-problem bound for the source instance.

    The compilation shifted the cost up by ``report.shift``, so the source
    cost is at least ``bound_m - shift``; reaching ``shift + 1`` proves a
    decision instance unsatisfiable.
    """
    if summary.provenance != report.provenance:
        raise ProvenanceError(
            "proof summary was not derived from this compilation's problem"
        )
    lower = summary.bound_m - report.shift
    if lower < 0:
        lower = ZERO
    unsat = summary.bound_m >= report.threshold
    keyword = "UNSAT" if unsat else "UNKNOWN"
    return BoundVerdict(
        unsat_proven=unsat,
        lower_bound=lower,
        message=f"{keyword} lb={format_rational(lower)}",
    )
