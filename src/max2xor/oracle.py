"""Exhaustive ground-truth engines.

Two oracles: exact optimum / cost of a weighted constraint multiset, and
certification of claimed translation parameters per the (alpha, beta)
definition by exhaustive search over auxiliary-variable extensions.

Both run on one kernel, ``_unsat_chunks``, as does ``unsat_weight_profile``;
the proof checker tables its own steps and imports none of this module.  The
functions that build arrays import numpy on their first call, so importing
``max2xor`` does not load it.  The kernel enumerates assignments in chunks of
``2**_CHUNK_BITS`` and yields each chunk's unsatisfied weight:

* weights are multiplied by the lcm of their denominators, so every sum and
  comparison is exact integer arithmetic;
* a variable's bit column is a uint8 array built once per call; a variable
  whose bit is fixed inside a chunk reads a shared all-zeros or all-ones
  column instead;
* items are grouped by scaled weight: each group counts its unsatisfied
  items in uint8 (uint32 from 255 items on), followed by one multiply-add
  per distinct weight into an int32 accumulator, int64 when the scaled
  total needs it, or Python ints in an object array beyond 2**62.

Memory per call is bounded by the chunk, not by ``2**n``.  Assignment index
i holds the variable values most significant first, so chunks arrive in
ascending lexicographic order; the first argmin within a chunk and a strict
``<`` across chunks therefore keep the lexicographically least witness.

``brute_opt_cost_items`` conditions on a prefix of the variables (cycle-cutset
conditioning): with the first ``p`` fixed, the rest fall apart into components
that share no item, such as each translated clause's auxiliaries.  The
prefix-only items are enumerated once over the ``2**p`` prefix rows and each
component over ``prefix + component``, keeping its least value per row;
``_split`` picks the ``p`` that minimises ``2**p * (1 + sum of 2**|c|)``, and
full enumeration is ``p = n``.  The witness stays lexicographically least: the
prefix bits are the most significant, so the first least row comes first, and
the least optimal suffix is each independent component's first argmin there.

``verify_gadget`` keeps the source bits as rows and minimises the auxiliaries
out one bucket at a time.  The order comes first: the auxiliary whose bucket
(its unused items and earlier tables) spans the fewest auxiliaries, the least
on ties.  A bucket is one kernel call over ``source + scope`` plus its earlier
tables, and ``np.minimum`` of its halves leaves a table over the rest.  A
bucket over more than three auxiliaries (a table over ``2**(ns + 3)`` cells),
or buckets taking half the cells of one call or more, fall back to that call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    Max2XorError,
    OrClause,
    SizeGuardError,
    X2XProblem,
    ZERO,
    _scaled,
)

MAX_ORACLE_VARS = 26
_CHUNK_BITS = 16

WeightedItem = Tuple[object, Fraction]  # (constraint, weight)


@dataclass
class OracleResult:
    opt: Fraction
    cost: Fraction
    cost_witness: Dict[int, int]
    # integer work counts: ``assignments`` enumerated, ``prefix`` bits, ``components``
    stats: Dict[str, int] = field(default_factory=dict, compare=False)


@dataclass
class GadgetVerdict:
    certified: bool
    alpha: Fraction
    beta: Fraction
    counterexample: Optional[Tuple[Dict[int, int], Fraction]] = None
    reason: Optional[str] = None
    # integer work counts: kernel ``cells`` enumerated, auxiliaries ``eliminated``
    stats: Dict[str, int] = field(default_factory=dict, compare=False)


def _item_vars(item) -> Tuple[int, ...]:
    if isinstance(item, OrClause):
        return item.variables()
    return tuple(item.vars)


def _collect_vars(items: Sequence[WeightedItem]) -> List[int]:
    seen = set()
    for constraint, _ in items:
        seen.update(_item_vars(constraint))
    return sorted(seen)


def _guard(nvars: int, max_vars: int) -> None:
    if nvars > max_vars:
        raise SizeGuardError(f"{nvars} variables exceed the enumeration guard of {max_vars}")


def _dtype_for(bound: int):
    """Narrowest accumulator holding every partial sum up to ``bound`` in size."""
    import numpy as np
    if bound < 2**31:
        return np.int32
    return np.int64 if bound < 2**62 else object


def _unsat_chunks(items: Sequence[WeightedItem], scaled: Sequence[int], order: Sequence[int]):
    """Yield ``(start, unsat)`` chunk by chunk over every assignment of ``order``.

    ``unsat[i]`` is the scaled unsatisfied weight of assignment index
    ``start + i``, whose bits, most significant first, are the values of the
    variables in ``order``.
    """
    import numpy as np
    n = len(order)
    bits = min(n, _CHUNK_BITS)
    size = 1 << bits
    shift_of = {v: n - 1 - j for j, v in enumerate(order)}

    # An item is unsatisfied when the AND (clause) or the XOR (parity) of its
    # terms is 1; a term (var, flip) reads the variable's bit XOR flip.
    constant = 0
    groups: Dict[int, list] = {}
    for (constraint, _), w in zip(items, scaled):
        if isinstance(constraint, OrClause):
            op, terms = np.bitwise_and, [(abs(l), int(l > 0)) for l in constraint.lits]
            always_unsat = True  # the empty clause
        else:
            p = constraint.parity
            op, terms = np.bitwise_xor, [(v, 0 if j else p) for j, v in enumerate(constraint.vars)]
            always_unsat = p == 1
        if terms:
            groups.setdefault(w, []).append((op, terms))
        elif always_unsat:
            constant += w
    dtype = _dtype_for(sum(abs(w) for w in scaled))

    low = np.arange(size, dtype=np.int64)
    fixed = (np.zeros(size, dtype=np.uint8), np.ones(size, dtype=np.uint8))
    columns: Dict[Tuple[int, int], np.ndarray] = {}

    def column(var: int, flip: int, start: int) -> np.ndarray:
        shift = shift_of[var]
        if shift >= bits:  # the bit is the same across the chunk
            return fixed[((start >> shift) & 1) ^ flip]
        key = (var, flip)
        if key not in columns:
            columns[key] = (((low >> shift) & 1) ^ flip).astype(np.uint8)
        return columns[key]

    buffer = np.empty(size, dtype=np.uint8)
    for start in range(0, 1 << n, size):
        acc = np.full(size, constant, dtype=dtype)
        for w, group in groups.items():
            count = np.zeros(size, dtype=np.uint8 if len(group) < 255 else np.uint32)
            for op, terms in group:
                value = column(*terms[0], start)
                for term in terms[1:]:
                    value = op(value, column(*term, start), out=buffer)
                count += value
            if w != 1 or dtype is object:
                count = count.astype(dtype) * w
            acc += count
        yield start, acc


def _index_to_assignment(index: int, order: Sequence[int]) -> Dict[int, int]:
    n = len(order)
    return {v: (index >> (n - 1 - j)) & 1 for j, v in enumerate(order)}


def _row_minima(chunks, row_bits: int, rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """Least value and its first index within each row of ``chunks``.

    Row r is the run of ``2**row_bits`` consecutive assignment indices from
    ``r << row_bits``; a chunk holds whole rows or a piece of one row.
    """
    import numpy as np
    least = argmin = None
    mask = (1 << row_bits) - 1
    for start, unsat in chunks:
        block = unsat.reshape(-1, min(mask + 1, unsat.size))
        j = block.argmin(axis=1)
        value = block[np.arange(j.size), j]
        if least is None:
            least, argmin = np.empty(rows, dtype=unsat.dtype), np.empty(rows, dtype=np.int64)
        row, within = start >> row_bits, start & mask
        if not within:  # the chunk starts its rows
            least[row : row + j.size], argmin[row : row + j.size] = value, j
        elif value[0] < least[row]:  # a later piece of a row over several chunks
            least[row], argmin[row] = value[0], within + j[0]
    return least, argmin


def _split(item_vars: Sequence[Tuple[int, ...]], order: Sequence[int]):
    """``(assignments, p, components)``: the prefix length ``p`` and the
    connected components of the variables after it that enumerate the fewest
    assignments, ``2**p * (1 + sum of 2**|c|)``.  A split needs more than
    ``_CHUNK_BITS`` variables and ``p <= _CHUNK_BITS``, so each per-row array
    fits one chunk."""
    n = len(order)
    best = (1 << n, n, [])
    if n <= _CHUNK_BITS:
        return best
    neighbours: Dict[int, set] = {v: set() for v in order}
    for vs in item_vars:
        for v in vs:
            neighbours[v].update(vs)
    component_of: Dict[int, List[int]] = {}
    spread = 0  # sum of 2**|c| over the components of order[p:]
    for p in range(n - 1, -1, -1):
        v = order[p]
        joined = {id(c): c for c in map(component_of.get, neighbours[v]) if c is not None}.values()
        merged = sorted([v, *(u for c in joined for u in c)])
        spread += (1 << len(merged)) - sum(1 << len(c) for c in joined)
        component_of.update(dict.fromkeys(merged, merged))
        if p <= _CHUNK_BITS and (1 << p) * (1 + spread) < best[0]:
            components = {id(c): c for c in component_of.values()}.values()
            best = ((1 << p) * (1 + spread), p, sorted(components))
    return best


def brute_opt_cost_items(
    items: Sequence[WeightedItem],
    floor: Fraction = ZERO,
    max_vars: int = MAX_ORACLE_VARS,
) -> OracleResult:
    """Exact optimum and cost of a weighted constraint multiset.

    Finds the least unsatisfied weight over every assignment of the occurring
    variables, by prefix conditioning (see the module docstring); witnesses
    are the lexicographically least optimizers.  The maximum satisfied weight
    and the minimum unsatisfied weight are attained by the same assignment,
    so the two witnesses coincide.
    """
    order = _collect_vars(items)
    _guard(len(order), max_vars)
    floor = Fraction(floor)
    weights, scale, scaled = _scaled(items)
    item_vars = [_item_vars(constraint) for constraint, _ in items]
    assignments, p, components = _split(item_vars, order)
    prefix = order[:p]

    # An item goes with the component of its suffix variables; the last part
    # holds the prefix-only items.
    home = {v: i for i, component in enumerate(components) for v in component}
    parts: List[Tuple[list, list]] = [([], []) for _ in range(len(components) + 1)]
    for item, w, vs in zip(items, scaled, item_vars):
        part = parts[next((home[v] for v in vs if v in home), -1)]
        part[0].append(item)
        part[1].append(w)
    minima = [
        _row_minima(_unsat_chunks(*part, prefix + component), len(component), 1 << p)
        for part, component in zip(parts, components)
    ]

    dtype = _dtype_for(sum(abs(w) for w in scaled))

    def totals():  # per prefix row: its prefix-only weight plus each component's least
        for start, unsat in _unsat_chunks(*parts[-1], prefix):
            total = unsat.astype(dtype, copy=False)
            for least, _ in minima:
                total += least[start : start + total.size]
            yield start, total

    least, argmin = _row_minima(totals(), p, 1)  # all prefix rows as one row
    best_row = int(argmin[0])
    min_unsat = Fraction(int(least[0]), scale)
    witness = _index_to_assignment(best_row, prefix)
    for (_, argmin), component in zip(minima, components):
        witness.update(_index_to_assignment(int(argmin[best_row]), component))
    witness = {v: witness[v] for v in order}
    return OracleResult(
        opt=sum(weights, ZERO) - min_unsat,
        cost=floor + min_unsat,
        cost_witness=witness,
        stats=dict(assignments=assignments, prefix=p, components=len(components)),
    )


def unsat_weight_profile(
    items: Sequence[WeightedItem],
    var_order: Sequence[int],
    floor: Fraction = ZERO,
    max_vars: int = MAX_ORACLE_VARS,
) -> List[Fraction]:
    """Exact unsatisfied weight for every assignment of ``var_order``.

    Index i encodes the assignment whose bits, most significant first, are
    the values of the variables in order.  Useful for pointwise comparisons
    between a raw multiset and a rewritten form of it.
    """
    order = list(var_order)
    _guard(len(order), max_vars)
    known = set(order)
    if len(known) < len(order):
        repeated = next(v for i, v in enumerate(order) if v in order[:i])
        raise Max2XorError(f"var_order repeats variable {repeated}")
    if any(v not in known for constraint, _ in items for v in _item_vars(constraint)):
        raise SizeGuardError("var_order must cover every variable of the items")
    floor = Fraction(floor)
    _, scale, scaled = _scaled(items, floor)
    base = int(floor * scale)
    return [
        Fraction(value + base, scale)
        for _, unsat in _unsat_chunks(items, scaled, order)
        for value in unsat.tolist()
    ]


def brute_opt_cost(problem: X2XProblem, max_vars: int = MAX_ORACLE_VARS) -> OracleResult:
    return brute_opt_cost_items(problem.sorted_entries(), floor=problem.floor, max_vars=max_vars)


def _buckets(item_aux: Sequence[Tuple[int, ...]], aux_order: Sequence[int]):
    """``(auxiliary, sorted bucket scope)`` pairs in elimination order, or None
    to fall back to one call (see the module docstring)."""
    joined = {a: {a} for a in aux_order}
    for vs in item_aux:
        for v in vs:
            joined[v].update(vs)
    plan = []
    while joined:
        a = min(joined, key=lambda v: (len(joined[v]), v))
        scope = joined.pop(a)
        if len(scope) > 3:
            return None
        for v in scope - {a}:
            joined[v] = (joined[v] | scope) - {a}
        plan.append((a, sorted(scope)))
    return plan if plan and sum(2 << len(s) for _, s in plan) < 1 << len(plan) else None


def _eliminate(items, scaled, item_aux, src_order, plan) -> Tuple[np.ndarray, int]:
    """Least scaled unsatisfied weight of each source row, the auxiliaries
    minimised out in ``plan`` order, and the kernel cells enumerated."""
    import numpy as np
    rows = 1 << len(src_order)
    dtype = _dtype_for(sum(abs(w) for w in scaled))
    step = {a: j for j, (a, _) in enumerate(plan)}
    # an item joins the bucket of its first eliminated auxiliary, a source-only one the last
    home = [min((step[v] for v in vs), default=len(plan) - 1) for vs in item_aux]
    tables: List[Tuple[List[int], np.ndarray]] = []  # (sorted scope, table) not yet added
    for j, (a, scope) in enumerate(plan):
        ids = [i for i, h in enumerate(home) if h == j]
        table = np.empty(rows << len(scope), dtype=dtype)
        chunks = _unsat_chunks([items[i] for i in ids], [scaled[i] for i in ids], src_order + scope)
        for start, unsat in chunks:
            table[start : start + unsat.size] = unsat
        table = table.reshape((rows,) + (2,) * len(scope))
        for s, t in tables:
            if a in s:
                table += t.reshape((rows,) + tuple(2 if v in s else 1 for v in scope))
        tables = [(s, t) for s, t in tables if a not in s]
        halves = np.moveaxis(table, 1 + scope.index(a), 0)  # np.minimum beats .min(axis=) here
        tables.append(([v for v in scope if v != a], np.minimum(*halves)))
    return sum(t for _, t in tables), sum(rows << len(s) for _, s in plan)


def verify_gadget(
    source, translation: Sequence[WeightedItem], claimed, max_vars: int = MAX_ORACLE_VARS
) -> GadgetVerdict:
    """Certify claimed (alpha, beta) parameters of a translation.

    For every assignment of the source constraint's variables, the maximum
    translation value over all extensions to the auxiliary variables must be
    exactly alpha when the source is satisfied and alpha - 1 otherwise, and
    beta must equal the total translation weight.  Returns the first failing
    source assignment with the achieved maximum otherwise.
    """
    import numpy as np
    alpha, beta = Fraction(claimed.alpha), Fraction(claimed.beta)
    weights, scale, scaled = _scaled(translation, alpha)
    total = sum(weights, ZERO)
    if total != beta:
        reason = f"claimed beta {beta} differs from total weight {total}"
        return GadgetVerdict(False, alpha, beta, None, reason, dict(cells=0, eliminated=0))

    src_order = sorted(set(_item_vars(source)))
    src_set = set(src_order)
    item_aux = [tuple(v for v in _item_vars(c) if v not in src_set) for c, _ in translation]
    aux_order = sorted({v for vs in item_aux for v in vs})
    ns, na = len(src_order), len(aux_order)
    _guard(ns + na, max_vars)

    plan = _buckets(item_aux, aux_order)
    if plan is None:  # source bits lead, so each source row is a run of 2**na indices
        chunks = _unsat_chunks(translation, scaled, src_order + aux_order)
        least, cells = _row_minima(chunks, na, 1 << ns)[0], 1 << (ns + na)
    else:
        least, cells = _eliminate(translation, scaled, item_aux, src_order, plan)

    # Each row's target is alpha, less 1 where the source is unsatisfied,
    # which the kernel reads from the row index bits; the first wrong row fails.
    missed = np.concatenate([u for _, u in _unsat_chunks([(source, 1)], [1], src_order)])
    total_scaled, alpha_scaled = sum(scaled), int(alpha * scale)
    least_sat = total_scaled - alpha_scaled  # the least unsatisfied weight of a satisfied row
    wrong = np.flatnonzero(np.where(missed, least != least_sat + scale, least != least_sat))
    stats = dict(cells=cells + (1 << ns), eliminated=0 if plan is None else na)
    if not wrong.size:
        return GadgetVerdict(True, alpha, beta, stats=stats)
    i = int(wrong[0])
    assignment = _index_to_assignment(i, src_order)
    achieved = Fraction(total_scaled - int(least[i]), scale)
    expected = Fraction(alpha_scaled - int(missed[i]) * scale, scale)
    reason = f"source assignment {assignment} reaches {achieved}, expected {expected}"
    return GadgetVerdict(False, alpha, beta, (assignment, achieved), reason, stats)
