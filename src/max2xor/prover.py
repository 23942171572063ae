"""The prover: odd-cycle search and the saturation engine.

Nothing here is trusted.  :func:`saturate` changes its proof state only
through :func:`~max2xor.rules.apply_rule` and keeps its search index beside
that state; :mod:`max2xor.checker` replays its proofs without importing it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Mapping
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from .core import Max2XorError, VarAllocator, X2XProblem, XorConstraint, _trusted, _unit_fractions
from .rules import ProofStep, ProofState, ProofSummary, RawItems, _summarize, apply_rule, make_state


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
    vars_, p = constraint
    u, v = (CONSTANT_NODE, *vars_) if len(vars_) == 1 else vars_
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
    An odd triangle whose least vertex is below ``tri_from`` uses one of
    ``added``, the constraints added since the last odd triangle pass.
    """

    def __init__(self, entries: Iterable[XorConstraint]):
        self.cover: Cover = {}  # each neighbour list is filled, then sorted once
        self.opposite: Set[Tuple[int, ...]] = set()
        parities: Dict[Tuple[int, ...], int] = {}  # a parity of each variable set seen
        for constraint in entries:
            vars_, parity = constraint
            if vars_:
                if parities.setdefault(vars_, parity) != parity:
                    self.opposite.add(vars_)
                for key, nbr in _cover_edges(constraint):
                    self.cover.setdefault(key, []).append(nbr)
        for nbrs in self.cover.values():
            nbrs.sort()
        self.sources = sorted([key >> 1 for key in self.cover if not key & 1])  # on an edge
        self.added: List[XorConstraint] = []
        self.tri_from = CONSTANT_NODE

    def has(self, vars_: Tuple[int, ...], parity: int) -> bool:
        u, v = (CONSTANT_NODE, *vars_) if len(vars_) == 1 else vars_
        nbrs = self.cover.get(2 * u, ())
        i = bisect_left(nbrs, 2 * v + parity)
        return i < len(nbrs) and nbrs[i] == 2 * v + parity

    def add(self, constraint: XorConstraint) -> None:
        vars_, parity = constraint
        if not vars_:
            return
        if self.has(vars_, parity ^ 1):
            self.opposite.add(vars_)
        edges = _cover_edges(constraint)
        for key, _ in edges[::2]:  # 2u and 2v
            if key not in self.cover:
                insort(self.sources, key >> 1)
        for key, nbr in edges:
            insort(self.cover.setdefault(key, []), nbr)
        self.added.append(constraint)

    def discard(self, constraint: XorConstraint) -> None:
        self.opposite.discard(constraint.vars)
        for key, nbr in _cover_edges(constraint):
            nbrs = self.cover[key]
            del nbrs[bisect_left(nbrs, nbr)]
            if not nbrs:
                del self.cover[key]
                if not key & 1:
                    del self.sources[bisect_left(self.sources, key >> 1)]

    def follow(self, touched: Iterable[object], entries: Entries) -> None:
        """Catch up with steps replayed into ``entries``, given ``touched``, their premises
        and conclusions: each leaves if used up and joins if new, in any order."""
        for item in touched:
            if type(item) is XorConstraint and item[0] and (item in entries) != self.has(*item):
                (self.add if item in entries else self.discard)(item)

    def triangle_floor(self) -> int:
        """``tri_from`` lowered to ``min(u, w)`` for each of ``added`` still
        present: its ends u < v and their least neighbour w closing parity 1."""
        cover, floor = self.cover, self.tri_from
        for vars_, parity in self.added:
            if self.has(vars_, parity):
                u, v = (CONSTANT_NODE, *vars_) if len(vars_) == 1 else vars_
                closing = {key ^ parity ^ 1 for key in cover[2 * v]}  # keys 2w + s on 2u's list
                w = next((key >> 1 for key in cover[2 * u] if key in closing), None)
                if w is not None:
                    floor = min(floor, u, w)
        self.added.clear()
        self.tri_from = floor
        return floor


def _walk_to_goal(parents: Dict[int, int], start: int, last: int) -> List[Tuple[int, int, int]]:
    """The walk along ``parents`` from ``start`` to ``last``, then to ``start + 1``."""
    edges = [(last >> 1, start >> 1, (last ^ start ^ 1) & 1)]
    while last != start:
        key = parents[last]
        edges.append((key >> 1, last >> 1, (key ^ last) & 1))
        last = key
    edges.reverse()
    return edges


def _bfs_odd_walk(cover: Cover, source: int) -> Optional[List[Tuple[int, int, int]]]:
    """Shortest odd closed walk through ``source`` as (u, v, parity) edges.

    Breadth-first search on the double cover from key ``2*source`` towards
    ``2*source + 1``, one level at a time: each level is a list of keys in
    discovery order and each key's neighbours are scanned in ascending
    order.  Among the shortest walks it returns the one that this order
    reaches first: a key links to the goal when its twin is on the start's
    list (see :func:`_odd_walk_length`), so from depth 2 on the first such
    key found is the goal's parent.  At depth 1 they are opposite pairs, and
    the level's first is taken.  A source on no edge has no walk.
    """
    start = 2 * source
    level = cover.get(start)
    if level is None:
        return None
    ends = {key ^ 1 for key in level}  # the keys that link to the goal
    parents = dict.fromkeys(level, start)
    parents[start] = start
    for key in level:
        if key in ends:
            return _walk_to_goal(parents, start, key)
    while level:
        following = []
        for key in level:
            for nxt in cover[key]:
                if nxt in parents:
                    continue
                parents[nxt] = key
                if nxt in ends:
                    return _walk_to_goal(parents, start, nxt)
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
    """The constraint of a walk edge: its ends are distinct variables or the
    constant node, as on the cover, so it is built unchecked."""
    if u == CONSTANT_NODE:
        return _trusted(XorConstraint, ((v,), parity))
    if v == CONSTANT_NODE:
        return _trusted(XorConstraint, ((u,), parity))
    return _trusted(XorConstraint, ((u, v) if u < v else (v, u), parity))


def _triangle(cover: Cover, sources: Iterable[int]) -> Optional[List[Tuple[int, int, int]]]:
    """First odd three-edge walk that closes at a source, as (u, v, parity)
    edges ending at the source, or None.

    For each source s in ascending order, it reads only the keys k on the
    list of ``2s`` whose vertex is above s, and returns the first walk
    ``2s, k, j`` whose end's twin ``j ^ 1`` is one of those keys.  That is
    exact: the least vertex of a triangle is the first source that can see
    it, and the triangle's other two vertices lie above that vertex.  So the
    winning source and its first hit in neighbour order are those of a scan
    over every neighbour, which is the walk that :func:`_bfs_odd_walk`
    builds.  A triangle read the other way round is a hit too, at its other
    far vertex, so the first hit has ``u < v``.  Expects no opposite-parity
    pair, so each vertex is on a list once.
    """
    for s in sources:
        nbrs = cover[2 * s]
        above = nbrs[bisect_left(nbrs, 2 * s + 2):]
        ends = {key ^ 1 for key in above}
        for key in above:
            for far in cover[key]:
                if far in ends:
                    u, v = key >> 1, far >> 1
                    return [(s, u, key & 1), (u, v, (key ^ far) & 1), (v, s, (far & 1) ^ 1)]
    return None


def _shortest_odd_walk(index: _CycleIndex) -> Optional[List[Tuple[int, int, int]]]:
    """The walk of the least source among those with the shortest odd closed
    walk, as :func:`_bfs_odd_walk` builds it, or None.

    Expects no opposite-parity pair, so no walk is shorter than the three
    edges that :func:`_triangle` finds from the index's triangle floor on;
    its winner, or past every source, is the next floor.  Failing it, each
    length search reads no node below its source, by the least-vertex rule of
    :func:`_triangle`: a shortest odd cycle is found from its least node,
    the first source on it, and no source finds a shorter one.  Each search
    only has to beat the best so far, and the scan ends at the first
    four-edge walk.  A search without a limit that finds no walk clears its
    whole component: its source is the component's least node, since a
    smaller one would have cleared it, so it read the whole component, and
    no source there has a walk.
    """
    cover, sources = index.cover, index.sources
    triangle = _triangle(cover, sources[bisect_left(sources, index.triangle_floor()):])
    index.tri_from = triangle[0][0] if triangle else sources[-1] + 1 if sources else 0
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
    index: _CycleIndex, compact: bool = False
) -> Optional[Tuple[List[XorConstraint], str]]:
    """Next contractible cycle and its kind, in every saturation mode.

    First the opposite-parity pair with the least variable set (``pair``).
    Then the shortest odd cycle (``odd``, see :func:`_shortest_odd_walk`),
    or in compact mode the constant node's walk alone (``unit-chain``),
    since unit-rule chains do not flip parities.
    """
    if index.opposite:
        vars_ = min(index.opposite)
        return [XorConstraint(vars_, 0), XorConstraint(vars_, 1)], "pair"
    best = _bfs_odd_walk(index.cover, CONSTANT_NODE) if compact else _shortest_odd_walk(index)
    if best is not None:
        cycle = [_edge_constraint(u, v, p) for u, v, p in best]
        if len(set(cycle)) == len(cycle):  # globally shortest odd walks are simple
            return cycle, "unit-chain" if compact else "odd"
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

MODES = ("discard", "retranslate", "compact")


def _attains_bound(state: ProofState, index: _CycleIndex) -> bool:
    """Whether a bounded search finds an assignment that satisfies every
    entry and residue clause, which makes the bound the optimum.

    The entries 2-colour each component from its first node, the constant
    node at 0.  A clause then holds outright or wants components kept or
    flipped; every flip of the components they touch is tried, up to 12 of them.
    """
    cover, colour = index.cover, {}  # variable -> (its component's first node, colour)
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


def _combine(acc: XorConstraint, edge: XorConstraint):
    """Rule id and ordered premises for one contraction step: ``contra`` for
    the closing edge, the one on the accumulator's variables."""
    first, second = (acc, edge) if acc.parity <= edge.parity else (edge, acc)
    if acc.vars == edge.vars:
        return "contra", (first, second)
    if len(acc.vars) == 1:
        return f"unit{acc.parity}{edge.parity}", (acc, edge)
    return f"chain{first.parity}{second.parity}", (first, second)


def _contract_cycle(
    state: ProofState,
    index: _CycleIndex,
    cycle: List[XorConstraint],
    steps: List[ProofStep],
    fraction: Callable[[int], Fraction],
) -> int:
    units = state.entry_units
    accumulators = []  # with the cycle, every premise and conclusion
    acc = cycle[0]
    for edge in cycle[1:]:
        rule, premises = _combine(acc, edge)
        weight = fraction(min(units[premises[0]], units[premises[1]]))
        step, derived = apply_rule(state, rule, premises, weight)
        steps.append(step)
        acc = derived.conclusions[0][0]
        accumulators.append(acc)
    for edge in cycle:  # each on the index: it leaves if used up
        if edge not in units:
            index.discard(edge)
    index.follow(accumulators, units)
    return len(cycle) - 1


def saturate(
    source: Union[X2XProblem, RawItems],
    mode: str = "discard",
    max_rounds: int = 3,
) -> Tuple[ProofSummary, List[ProofStep]]:
    """Derive empty-clause weight by repeated odd-cycle contraction.

    ``discard`` logs residue clauses but never feeds them back;
    ``retranslate`` compiles them into fresh parity constraints between
    rounds (up to ``max_rounds`` saturation rounds); ``compact`` contracts
    only opposite-parity pairs and the constant node's unit-rule chains, in
    one round.  Per round, rule applications are budgeted by the entry count
    at the round's start, which enforces the linear derivation length;
    ``max_rounds`` must be an int >= 1.

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
    state = make_state(source)
    index = _CycleIndex(state.entry_units)
    fraction = _unit_fractions(state.scale)
    alloc = VarAllocator(max(state.var_count, max(state.seen_vars, default=0)) + 1)
    steps: List[ProofStep] = []
    round_stats: List[Tuple[int, int]] = []
    rounds = 0
    total_rounds = max_rounds if mode == "retranslate" else 1
    kept: Optional[ProofSummary] = None  # the last round end, when a round followed it
    kept_units = 0  # its bound in units of 1/state.scale

    while True:
        rounds += 1
        if rounds > 1:
            touched = []  # the conclusions: the premises are clauses
            for cl in sorted(state.residue_units):
                if cl.k in (2, 3):
                    weight = fraction(state.residue_units[cl])
                    step, derived = apply_rule(state, f"xlate{cl.k}", (cl,), weight, alloc)
                    steps.append(step)
                    touched += [c for c, _ in derived.conclusions]
            index.follow(touched, state.entry_units)
        budget = len(state.entry_units)
        used = 0
        while True:
            found = _next_cycle(index, mode == "compact")
            if found is None or used + len(found[0]) - 1 > budget:
                break
            used += _contract_cycle(state, index, found[0], steps, fraction)
        round_stats.append((budget, used))
        bound_units = state.floor_units - state.offset_units
        if kept is not None and bound_units <= kept_units:
            return replace(kept, round_stats=tuple(round_stats)), steps[: kept.steps]
        summary = _summarize(state, rounds, len(steps), tuple(round_stats))
        if (
            mode != "retranslate"
            or rounds >= total_rounds
            or not any(cl.k in (2, 3) for cl in state.residue_units)
            or _attains_bound(state, index)
        ):
            return summary, steps
        kept, kept_units = summary, bound_units

