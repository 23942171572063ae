"""The independent proof checker and the link back to the source instance.

It trusts only :mod:`max2xor.core` and the rules and state machine of
:mod:`max2xor.rules`: it imports none of the prover and not the oracles, so
checking a proof never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, Optional, Sequence, Set, Tuple, Union

from .core import Max2XorError, OrClause, X2XProblem, ZERO, format_rational
from .rules import (
    RULES,
    Derivation,
    PatternError,
    ProofStep,
    ProofSummary,
    RawItems,
    _replay_step,
    _summarize,
    build_step,
    make_state,
)


class ProvenanceError(Max2XorError):
    """A proof summary was paired with a report it was not derived from."""


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


def _truth_table_reason(step: ProofStep, derived: Derivation) -> Optional[str]:
    """Exact unsatisfied-weight check of one derived step over all assignments.

    Without a fresh variable the conclusions must over-count the premises by
    exactly ``offset`` pointwise; with one, by exactly ``offset`` at the best
    fresh value (so by at least ``offset`` at the other).  A step spans at
    most four variables, so its table has at most 16 rows, each summed in
    exact Fractions with the premises at ``-weight``; the assignments of the
    variables other than the fresh one come in ``itertools.product`` order.
    """
    items = [(p, -derived.weight) for p in step.premises]
    items += [(c, derived.weight * m) for c, m in derived.conclusions + derived.residues]
    fresh, offset = step.fresh_var, derived.offset
    variables = set()
    for c, _ in items:
        variables.update(c.variables() if isinstance(c, OrClause) else c.vars)
    base = sorted(variables - {fresh})
    for values in product((0, 1), repeat=len(base)):
        assignment = dict(zip(base, values))
        extended = [assignment] if fresh is None else [{**assignment, fresh: y} for y in (0, 1)]
        deltas = [sum((w for c, w in items if not c.satisfied_by(a)), ZERO) for a in extended]
        if fresh is None and deltas[0] != offset:
            return f"unsatisfied weight changes by {deltas[0]} instead of {offset} at {assignment}"
        if fresh is not None and min(deltas) != offset:
            return f"fresh-variable deltas {deltas} violate offset {offset} at {assignment}"
    return None


# Shapes of steps that passed the truth table, shared by every check_proof
# call in the process.  Rejections are never stored, so a failing step
# always runs its table and its message quotes the real weights and assignment.
_ACCEPTED_SHAPES: Set[object] = set()

# By the id of a ``RULES`` row object: the row, kept alive so that its id is
# its own, and the number of its value, so a row's Fractions hash once.
_ROW_KEYS: Dict[int, Tuple[tuple, int]] = {}
_ROW_VALUES: Dict[tuple, int] = {}


def _step_shape(step: ProofStep) -> object:
    """A derived step's ``RULES`` row, by the number of its value, plus its
    literal signs for a clause premise: at most 11 + 4 + 8 = 23 keys.

    Steps with one key have one truth table up to renaming and scale:
    every step is tabled with the derivation :func:`build_step` gives it;
    :func:`_premise_terms` fixes each form's premise pattern and parities;
    the premises' variables are distinct by the ``XorConstraint`` and
    ``OrClause`` invariants, and :func:`build_step` requires the fresh
    variable to be new; every unsatisfied-weight term, and the offset,
    scales with ``weight > 0``.  ``contra``'s table does not depend on the
    arity: exactly one of the two parities is unsatisfied.  The key numbers
    the row's value, so a changed row is tabled afresh.
    """
    spec = RULES[step.rule]
    row = _ROW_KEYS.get(id(spec))
    if row is None:
        row = _ROW_KEYS[id(spec)] = spec, _ROW_VALUES.setdefault(spec, len(_ROW_VALUES))
    if spec.form == "clause":
        return row[1], tuple([l > 0 for l in step.premises[0].lits])
    return row[1]


def _derived_rounds(steps: Sequence[ProofStep]) -> int:
    """One, plus one per run of retranslation steps, which opens a round."""
    xlate = [RULES[step.rule].form == "clause" for step in steps]
    return 1 + sum(x and not y for x, y in zip(xlate, [False] + xlate))


def check_proof(
    source: Union[X2XProblem, RawItems],
    steps: Sequence[ProofStep],
    claimed: Optional[ProofSummary] = None,
) -> CheckVerdict:
    """Replay a proof against the input, re-verifying every step.

    Each step is derived once by :func:`build_step`, which checks that its
    premises fit its rule, then checked for exact unsatisfied-weight
    preservation by truth table and applied, with its derivation, through
    the engine's own replay routine, which checks the weight protocol (the
    applied weight equals the smaller premise weight) and the freshness of
    introduced variables.  Accepts, or pinpoints the first failing step.

    A truth table runs once per step shape in the process: the rule's row,
    plus the literal signs for a clause premise (:func:`_step_shape`), so
    the process runs at most 23 tables.
    Each table sums exact Fractions over at most 16 assignments; the checker
    imports none of the prover and not the oracles' numpy kernel.
    """
    stats = {"truth_tables": 0, "shape_hits": 0}
    state = make_state(source)
    for index, step in enumerate(steps):
        try:
            derivation = build_step(step.rule, step.premises, step.weight, step.fresh_var)
            shape = _step_shape(step)
            if shape in _ACCEPTED_SHAPES:
                stats["shape_hits"] += 1
            else:
                stats["truth_tables"] += 1
                table_reason = _truth_table_reason(step, derivation)
                if table_reason is not None:
                    raise PatternError(f"truth table: {table_reason}")
                _ACCEPTED_SHAPES.add(shape)
            _replay_step(state, step, derivation)
        except Max2XorError as exc:
            return CheckVerdict(False, failing_step=index, reason=str(exc), stats=stats)

    derived = _summarize(state, _derived_rounds(steps), len(steps))
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


def bound_to_original(summary: ProofSummary, report: "CompileReport") -> BoundVerdict:
    """Interpret a compiled-problem bound for the source instance.

    The compilation shifted the cost up by ``report.shift``, so the source
    cost is at least ``bound_m - shift``; reaching ``shift + 1`` proves a
    decision instance unsatisfiable.  A summary, the prover's or the checker's,
    links back only if its proof started from a problem equal in value to the
    compiled one (``provenance``).  Only the annotation names the report's
    class, ``gadgets.CompileReport``: the checker does not import the compiler.
    """
    if summary.provenance is None or summary.provenance != report.provenance:
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

