"""Exact-weight parity constraint model.

Everything downstream (gadget translations, brute-force oracles, the
resolution engine) works on the types defined here: OR clauses over signed
DIMACS-style literals, parity (XOR) constraints with at most two variables,
and normalized weighted problems.  All weights are `fractions.Fraction`;
there is no floating point anywhere in the package.  The proof engine and
the oracles' enumerations compute on integers over one common denominator
inside, and every value they return is a `Fraction` again.

`XorConstraint` and `OrClause` key every dict, so they are validated tuples
``(vars, parity)`` and ``(lits,)`` that hash, compare and sort in C.  So
``XorConstraint((1,), 0) == ((1,), 0)`` holds; no dict mixes the two types or
plain tuples, and a constraint never equals a clause, which is shorter.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

Rational = Fraction
Var = int  # positive variable id
Assignment = Mapping[int, int]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class Max2XorError(Exception):
    """Base class for all errors raised by this package."""


class InvalidWeightError(Max2XorError):
    """A constraint weight was zero or negative."""


class InvalidClauseError(Max2XorError):
    """A clause contained a duplicated or complementary literal pair."""


class IncompleteAssignmentError(Max2XorError):
    """An assignment did not cover every variable of the problem."""


class ArityError(Max2XorError):
    """A translation was applied to a clause of unsupported width."""


class ShapeError(Max2XorError):
    """A tree shape did not match the clause it was applied to."""


class SizeGuardError(Max2XorError):
    """An exhaustive operation was asked to enumerate too many variables."""


class UnsupportedFeatureError(Max2XorError):
    """Input used a feature outside this package's scope (e.g. hard clauses)."""


class ParseError(Max2XorError):
    """Malformed textual input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def check_weight(weight: Fraction) -> Fraction:
    if type(weight) is not Fraction:
        weight = Fraction(weight)
    if weight.numerator <= 0:  # the sign of a Fraction, without its slower comparison
        raise InvalidWeightError(f"weight must be positive, got {weight}")
    return weight


class XorConstraint(tuple):
    """Parity equation over at most two variables: XOR of `vars` equals `parity`.

    The XOR over the empty variable set is 0, so ``((), 1)`` is the always
    false constraint (the empty clause) and ``((), 0)`` is the tautology.
    """

    __slots__ = ()

    def __new__(cls, vars: Tuple[int, ...], parity: int):
        n = len(vars)
        if parity in (0, 1) and (n == 2 and 0 < vars[0] < vars[1] or n == 1 and vars[0] > 0 or not n):
            return tuple.__new__(cls, (vars, parity))
        if n > 2:
            raise ArityError(f"at most 2 variables per parity constraint, got {vars}")
        if list(vars) != sorted(set(vars)):
            raise InvalidClauseError(f"variables must be sorted and distinct: {vars}")
        if any(v <= 0 for v in vars):
            raise InvalidClauseError(f"variable ids must be positive: {vars}")
        if parity not in (0, 1):
            raise InvalidClauseError(f"parity must be 0 or 1, got {parity}")
        return tuple.__new__(cls, (vars, parity))

    vars = property(itemgetter(0))
    parity = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"XorConstraint(vars={self[0]!r}, parity={self[1]!r})"

    @property
    def arity(self) -> int:
        return len(self.vars)

    def satisfied_by(self, assignment: Assignment) -> bool:
        acc = 0
        for v in self.vars:
            if v not in assignment:
                raise IncompleteAssignmentError(f"assignment misses variable {v}")
            acc ^= assignment[v] & 1
        return acc == self.parity


def xor(variables: Iterable[int], parity: int) -> XorConstraint:
    """Canonical parity constraint: sorts variables and applies x+x=0 cancellation."""
    counts: Dict[int, int] = {}
    for v in variables:
        counts[v] = counts.get(v, 0) + 1
    kept = tuple(sorted(v for v, c in counts.items() if c % 2 == 1))
    return XorConstraint(kept, parity & 1)


EMPTY_CLAUSE = XorConstraint((), 1)
TAUTOLOGY = XorConstraint((), 0)


class OrClause(tuple):
    """Disjunction of signed DIMACS literals, sorted by variable, duplicate-free.

    The empty clause (k = 0) is the always-false SAT clause.
    """

    __slots__ = ()

    def __new__(cls, lits: Tuple[int, ...]):
        last = 0
        for l in lits:  # valid iff the variables are positive and strictly ascend
            v = l if l > 0 else -l
            if v <= last:
                break
            last = v
        else:
            return tuple.__new__(cls, (lits,))
        if any(l == 0 for l in lits):
            raise InvalidClauseError("literal 0 is not allowed")
        seen = set()
        for l in lits:
            if abs(l) in seen:
                raise InvalidClauseError(
                    f"duplicate or complementary literals on variable {abs(l)}: {lits}"
                )
            seen.add(abs(l))
        raise InvalidClauseError(f"literals must be sorted by variable id: {lits}")

    lits = property(itemgetter(0))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"OrClause(lits={self[0]!r})"

    @property
    def k(self) -> int:
        return len(self.lits)

    def variables(self) -> Tuple[int, ...]:
        return tuple(abs(l) for l in self.lits)

    def satisfied_by(self, assignment: Assignment) -> bool:
        for l in self.lits:
            v = abs(l)
            if v not in assignment:
                raise IncompleteAssignmentError(f"assignment misses variable {v}")
            if (assignment[v] & 1) == (1 if l > 0 else 0):
                return True
        return False


def clause(*lits: int) -> OrClause:
    return OrClause(tuple(sorted(lits, key=abs)))


# ``_trusted(XorConstraint, (vars, parity))`` and ``_trusted(OrClause, (lits,))``
# build a constraint or clause without the check in ``__new__``, for terms
# that already passed it: each caller states why its terms are valid.
_trusted = tuple.__new__


class VarAllocator:
    """Serial fresh-variable source; ids strictly increase."""

    def __init__(self, first_id: int):
        self.next_id = first_id

    def fresh(self) -> int:
        v = self.next_id
        self.next_id += 1
        return v


class EvalResult(NamedTuple):
    satisfied: Fraction
    unsatisfied: Fraction


@dataclass
class X2XProblem:
    """Normalized multiset of weighted parity constraints plus a cost floor.

    Invariants (established by :func:`normalize`):
      * every stored weight is positive,
      * each variable subset carries at most one parity,
      * the empty-set constraints are never stored: the tautology is dropped
        and the weight of the always-false constraint lives in ``floor``.

    For every assignment I, the unsatisfied weight of the problem is
    ``floor`` plus the unsatisfied weight of the stored entries, so the floor
    is a guaranteed lower bound on the cost.
    """

    entries: Dict[XorConstraint, Fraction]
    floor: Fraction = ZERO
    var_count: int = 0

    def weight(self) -> Fraction:
        """Total stored weight (the floor is not an entry)."""
        return sum(self.entries.values(), ZERO)

    def variables(self) -> Tuple[int, ...]:
        seen = set()
        for c in self.entries:
            seen.update(c.vars)
        return tuple(sorted(seen))

    def sorted_entries(self) -> Tuple[Tuple[XorConstraint, Fraction], ...]:
        return tuple(sorted(self.entries.items()))


def problem_key(problem: X2XProblem) -> tuple:
    """A snapshot of the problem's value: a private copy of its entries, its
    floor and variable count.  It compares by value, in any entry order, and
    copies no weight, so it costs no ``Fraction`` hash."""
    return dict(problem.entries), problem.floor, problem.var_count


def _scaled(items: Sequence[Tuple[object, Fraction]], *extra: Fraction):
    """Exact item weights, the lcm of their and ``extra``'s denominators, and
    the item weights times that scale."""
    weights = [w if type(w) is Fraction else Fraction(w) for _, w in items]
    scale = math.lcm(*(w.denominator for w in weights + list(extra)))
    return weights, scale, [w.numerator * (scale // w.denominator) for w in weights]


def normalize(
    raw: Iterable[Tuple[XorConstraint, Fraction]],
    var_count: Optional[int] = None,
    floor: Fraction = ZERO,
) -> X2XProblem:
    """Merge equal constraints, cancel opposite parities into the floor.

    A pair ``<w> C=0, <w> C=1`` always falsifies exactly weight w, so it is
    replaced by adding w to the floor; this keeps the unsatisfied weight of
    the problem identical for every assignment.
    """
    items = [(constraint, check_weight(weight)) for constraint, weight in raw]
    items.append((EMPTY_CLAUSE, Fraction(floor)))  # the floor is always-false weight
    _, scale, units = _scaled(items)
    return _normalize_units(zip([c for c, _ in items], units), scale, var_count)


def _unit_fractions(scale: int) -> Callable[[int], Fraction]:
    """``Fraction(units, scale)`` by units, each value built once: make one per call."""
    memo: Dict[int, Fraction] = {}

    def fraction(units: int) -> Fraction:
        value = memo.get(units)
        if value is None:
            value = memo[units] = Fraction(units, scale)
        return value

    return fraction


def _normalize_units(
    raw: Iterable[Tuple[XorConstraint, int]], scale: int, var_count: Optional[int] = None
) -> X2XProblem:
    """:func:`normalize` on weights in units of 1/scale: one Fraction per kept weight value."""
    # per variable set: [parity-0 constraint, its units, parity-1 constraint, its units]
    merged: Dict[Tuple[int, ...], list] = {}
    for constraint, units in raw:
        vars_, parity = constraint
        slot = merged.setdefault(vars_, [None, 0, None, 0])
        slot[2 * parity] = constraint
        slot[2 * parity + 1] += units

    floor = 0
    fraction = _unit_fractions(scale)
    entries: Dict[XorConstraint, Fraction] = {}
    for vars_ in sorted(merged):  # key order: by variable set, parity 0 first
        c0, u0, c1, u1 = merged[vars_]
        if not vars_:  # the tautology is dropped, the empty clause joins the floor
            floor += u1
            continue
        cancel = min(u0, u1)
        floor += cancel
        if u0 > cancel:
            entries[c0] = fraction(u0 - cancel)
        if u1 > cancel:
            entries[c1] = fraction(u1 - cancel)
    count = max(max((v[-1] for v in merged if v), default=0), var_count or 0)
    return X2XProblem(entries=entries, floor=Fraction(floor, scale), var_count=count)


def evaluate(problem: X2XProblem, assignment: Assignment) -> EvalResult:
    """Exact satisfied / unsatisfied weights; the floor counts as unsatisfied."""
    satisfied = ZERO
    unsatisfied = problem.floor
    for constraint, weight in problem.entries.items():
        if constraint.satisfied_by(assignment):
            satisfied += weight
        else:
            unsatisfied += weight
    return EvalResult(satisfied, unsatisfied)


def format_rational(value: Fraction) -> str:
    """Serialize a rational as ``num/den``, always with an explicit denominator.

    Past the interpreter's int conversion limit it raises ``Max2XorError``:
    a shorter text would not read back as the value.
    """
    if type(value) is not Fraction:
        value = Fraction(value)
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # more digits than the interpreter converts
        from decimal import Decimal  # counts them without writing them out

        n, part = max((abs(value.numerator), "numerator"), (value.denominator, "denominator"))
        digits = Decimal(n).adjusted() + 1
        raise Max2XorError(f"cannot write a rational whose {part} has {digits} digits") from None


_RATIONAL_TOKEN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(token: str) -> Fraction:
    """Read an ASCII ``-?[0-9]+`` or ``-?[0-9]+/[0-9]+`` token with a nonzero denominator."""
    match = _RATIONAL_TOKEN.fullmatch(token)
    if match is not None:
        num, den = match.groups()
        try:
            if den is None:
                return Fraction(int(num))
            den = int(den)
            if den:
                return Fraction(int(num), den)
        except ValueError:  # more digits than the interpreter converts
            pass
    raise ParseError(f"bad rational {token!r}")
