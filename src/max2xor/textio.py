"""Instance and proof-log text formats.

Readers and writers for DIMACS cnf/wcnf (soft clauses only), the ``.x2x``
parity-problem format, the ``.cut`` graph format, and the ``.x2xproof``
step log.  Every emitter sorts its output, so emission is deterministic and
``parse(emit(value)) == value`` bit-exactly.

Formats (ASCII, newline-terminated lines):

``.x2x``
    ``p x2x <var_count>`` header, an optional ``f <num>/<den>`` floor line,
    then one line per entry ``<num>/<den> <v1> [<v2>] = <parity>`` with the
    variables ascending and the entries sorted.

``.cut``
    ``p cut <node_count> <edge_count>`` header, ``c anchor0 <id>`` /
    ``c anchor1 <id>`` comments when anchors exist, then edge lines
    ``e <u> <v> <num>/<den>`` with u < v, sorted.

``.x2xproof``
    One ``s`` line per step::

        s <rule> w <num>/<den> [y <fresh>] [o <num>/<den>] | <premises> | <conclusions> | <residues>

    Premises and conclusions use the ``.x2x`` entry syntax prefixed by their
    weight (``<num>/<den> [<v1> [<v2>]] = <parity>``; no variables encodes
    the empty constraint).  Residues, and the clause premises of the
    retranslation rules, are DIMACS literal lists ``<num>/<den> <lit>... 0``.
    Items within a section are separated by ``;``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .core import (
    InvalidClauseError,
    InvalidWeightError,
    Max2XorError,
    OrClause,
    ParseError,
    UnsupportedFeatureError,
    X2XProblem,
    XorConstraint,
    ZERO,
    format_rational,
    normalize,
    parse_rational,
)

# ---------------------------------------------------------------------------
# DIMACS cnf / wcnf


@dataclass
class WcnfInstance:
    var_count: int
    clauses: List[Tuple[OrClause, Fraction]] = field(default_factory=list)

    def weight(self) -> Fraction:
        return sum((w for _, w in self.clauses), ZERO)


def _int(token: str, what: str, line_no: int) -> int:
    """``int(token)``, or a ParseError naming ``what`` and the line."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", line_no) from None


def _rational(token: str, what: str, line_no: int) -> Fraction:
    """``parse_rational(token)``, or a ParseError naming ``what`` and the line."""
    try:
        return parse_rational(token)
    except ParseError:
        raise ParseError(f"bad {what} {token!r}", line_no) from None


def _parse_clause_lits(tokens: List[str], var_count: int, line_no: int) -> OrClause:
    if not tokens or tokens[-1] != "0":
        raise ParseError("clause line must end with 0", line_no)
    lits = []
    for tok in tokens[:-1]:
        lit = _int(tok, "literal", line_no)
        if lit == 0:
            raise ParseError("literal 0 before end of clause", line_no)
        if abs(lit) > var_count:
            raise ParseError(f"variable {abs(lit)} exceeds declared count {var_count}", line_no)
        lits.append(lit)
    try:
        return OrClause(tuple(sorted(lits, key=abs)))
    except InvalidClauseError as exc:
        raise ParseError(f"tautological or duplicated literal: {exc}", line_no) from exc


def parse_cnf(text: str) -> WcnfInstance:
    """Read a DIMACS cnf or wcnf instance; all clauses are soft.

    Plain cnf clauses get weight 1.  A wcnf header may carry a ``top``
    weight, but any clause at or above it is a hard clause and rejected as
    unsupported.
    """
    var_count: Optional[int] = None
    clause_count: Optional[int] = None
    weighted = False
    top: Optional[int] = None
    clauses: List[Tuple[OrClause, Fraction]] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if var_count is not None:
                raise ParseError("duplicate problem header", line_no)
            if len(tokens) not in (4, 5) or tokens[1] not in ("cnf", "wcnf"):
                raise ParseError(f"bad problem header {line!r}", line_no)
            weighted = tokens[1] == "wcnf"
            try:
                var_count = int(tokens[2])
                clause_count = int(tokens[3])
                if len(tokens) == 5:
                    if not weighted:
                        raise ParseError("cnf header does not take a top weight", line_no)
                    top = int(tokens[4])
            except ValueError as exc:
                raise ParseError(f"bad problem header {line!r}", line_no) from exc
            continue
        if var_count is None:
            raise ParseError("clause before problem header", line_no)
        if weighted:
            weight = _int(tokens[0], "clause weight", line_no)
            if weight <= 0:
                raise ParseError(f"clause weight must be positive, got {weight}", line_no)
            if top is not None and weight >= top:
                raise UnsupportedFeatureError(
                    f"line {line_no}: hard clauses (weight >= top {top}) are not supported"
                )
            body = tokens[1:]
        else:
            weight = 1
            body = tokens
        clauses.append((_parse_clause_lits(body, var_count, line_no), Fraction(weight)))

    if var_count is None or clause_count is None:
        raise ParseError("missing problem header")
    if len(clauses) != clause_count:
        raise ParseError(f"header declares {clause_count} clauses, found {len(clauses)}")
    return WcnfInstance(var_count=var_count, clauses=clauses)


# ---------------------------------------------------------------------------
# .x2x


def _entry_line(constraint: XorConstraint, weight: Fraction) -> str:
    vars_part = " ".join(str(v) for v in constraint.vars)
    if vars_part:
        vars_part += " "
    return f"{format_rational(weight)} {vars_part}= {constraint.parity}"


def emit_x2x(problem: X2XProblem) -> str:
    lines = [f"p x2x {problem.var_count}"]
    if problem.floor != 0:
        lines.append(f"f {format_rational(problem.floor)}")
    for constraint, weight in problem.sorted_entries():
        lines.append(_entry_line(constraint, weight))
    return "\n".join(lines) + "\n"


def _parse_entry(tokens: List[str], line_no: int) -> Tuple[XorConstraint, Fraction]:
    if "=" not in tokens:
        raise ParseError("entry line needs '='", line_no)
    eq = tokens.index("=")
    if eq != len(tokens) - 2:
        raise ParseError("entry line must end with '= <parity>'", line_no)
    weight = _rational(tokens[0], "weight", line_no)
    if weight <= 0:
        raise ParseError(f"weight must be positive, got {tokens[0]}", line_no)
    if tokens[-1] not in ("0", "1"):
        raise ParseError(f"parity must be 0 or 1, got {tokens[-1]!r}", line_no)
    parity = int(tokens[-1])
    try:
        variables = [int(t) for t in tokens[1:eq]]
    except ValueError as exc:
        raise ParseError(f"bad variable in entry: {exc}", line_no) from exc
    if len(set(variables)) != len(variables):
        raise ParseError(f"repeated variable in entry {variables}", line_no)
    try:
        constraint = XorConstraint(tuple(sorted(variables)), parity)
    except Max2XorError as exc:
        raise ParseError(str(exc), line_no) from exc
    return constraint, weight


def parse_x2x(text: str) -> X2XProblem:
    var_count: Optional[int] = None
    floor = ZERO
    saw_floor = False
    raw: List[Tuple[XorConstraint, Fraction]] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if var_count is not None:
                raise ParseError("duplicate header", line_no)
            if len(tokens) != 3 or tokens[1] != "x2x":
                raise ParseError(f"bad header {line!r}", line_no)
            var_count = _int(tokens[2], "variable count", line_no)
            continue
        if var_count is None:
            raise ParseError("entry before header", line_no)
        if tokens[0] == "f":
            if saw_floor:
                raise ParseError("duplicate floor line", line_no)
            if len(tokens) != 2:
                raise ParseError("floor line is 'f <num>/<den>'", line_no)
            floor = _rational(tokens[1], "floor", line_no)
            if floor < 0:
                raise ParseError("floor must be non-negative", line_no)
            saw_floor = True
            continue
        constraint, weight = _parse_entry(tokens, line_no)
        if constraint.vars and constraint.vars[-1] > var_count:
            raise ParseError(
                f"variable {constraint.vars[-1]} exceeds declared count {var_count}", line_no
            )
        raw.append((constraint, weight))

    if var_count is None:
        raise ParseError("missing header")
    try:
        return normalize(raw, var_count=var_count, floor=floor)
    except InvalidWeightError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# .cut


@dataclass
class CutGraph:
    """Weighted graph whose edges are the parity-1 constraints of a cut instance."""

    node_count: int
    anchor_zero: Optional[int] = None
    anchor_one: Optional[int] = None
    edges: Dict[Tuple[int, int], Fraction] = field(default_factory=dict)

    def add_edge(self, u: int, v: int, weight: Fraction) -> None:
        if u == v:
            raise Max2XorError(f"self-loop on node {u}")
        weight = Fraction(weight)
        if weight <= 0:
            raise InvalidWeightError(f"edge weight must be positive, got {weight}")
        key = (u, v) if u < v else (v, u)
        self.edges[key] = self.edges.get(key, ZERO) + weight

    def total_weight(self) -> Fraction:
        return sum(self.edges.values(), ZERO)


def emit_maxcut(graph: CutGraph) -> str:
    for u, v in graph.edges:
        if u == v:
            raise Max2XorError(f"self-loop on node {u}")
    lines = [f"p cut {graph.node_count} {len(graph.edges)}"]
    if graph.anchor_zero is not None:
        lines.append(f"c anchor0 {graph.anchor_zero}")
    if graph.anchor_one is not None:
        lines.append(f"c anchor1 {graph.anchor_one}")
    for (u, v), weight in sorted(graph.edges.items()):
        lines.append(f"e {u} {v} {format_rational(weight)}")
    return "\n".join(lines) + "\n"


def parse_maxcut(text: str) -> CutGraph:
    graph: Optional[CutGraph] = None
    declared_edges: Optional[int] = None

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "c":
            if len(tokens) == 3 and tokens[1] in ("anchor0", "anchor1") and graph is not None:
                anchor = _int(tokens[2], "anchor node", line_no)
                if tokens[1] == "anchor0":
                    graph.anchor_zero = anchor
                else:
                    graph.anchor_one = anchor
            continue
        if tokens[0] == "p":
            if graph is not None:
                raise ParseError("duplicate header", line_no)
            if len(tokens) != 4 or tokens[1] != "cut":
                raise ParseError(f"bad header {line!r}", line_no)
            graph = CutGraph(node_count=_int(tokens[2], "node count", line_no))
            declared_edges = _int(tokens[3], "edge count", line_no)
            continue
        if tokens[0] == "e":
            if graph is None:
                raise ParseError("edge before header", line_no)
            if len(tokens) != 4:
                raise ParseError("edge line is 'e <u> <v> <num>/<den>'", line_no)
            u = _int(tokens[1], "edge endpoint", line_no)
            v = _int(tokens[2], "edge endpoint", line_no)
            weight = _rational(tokens[3], "edge weight", line_no)
            try:
                graph.add_edge(u, v, weight)
            except Max2XorError as exc:
                raise ParseError(str(exc), line_no) from exc
            continue
        raise ParseError(f"unrecognized line {line!r}", line_no)

    if graph is None or declared_edges is None:
        raise ParseError("missing header")
    if len(graph.edges) != declared_edges:
        raise ParseError(f"header declares {declared_edges} edges, found {len(graph.edges)}")
    return graph


# ---------------------------------------------------------------------------
# .x2xproof

CLAUSE_PREMISE_RULES = ("xlate2", "xlate3")


def _weighted_constraint_str(constraint: XorConstraint, weight: Fraction) -> str:
    return _entry_line(constraint, weight)


def _weighted_clause_str(cl: OrClause, weight: Fraction) -> str:
    lits = " ".join(str(l) for l in cl.lits)
    if lits:
        lits += " "
    return f"{format_rational(weight)} {lits}0"


def _parse_weighted_constraint(text: str, line_no: int) -> Tuple[XorConstraint, Fraction]:
    return _parse_entry(text.split(), line_no)


def _parse_weighted_clause(text: str, line_no: int) -> Tuple[OrClause, Fraction]:
    tokens = text.split()
    if len(tokens) < 2 or tokens[-1] != "0":
        raise ParseError(f"clause item must end with 0: {text!r}", line_no)
    weight = _rational(tokens[0], "weight", line_no)
    if weight <= 0:
        raise ParseError(f"weight must be positive, got {tokens[0]}", line_no)
    try:
        lits = tuple(sorted((int(t) for t in tokens[1:-1]), key=abs))
        return OrClause(lits), weight
    except (ValueError, InvalidClauseError) as exc:
        raise ParseError(f"bad clause item {text!r}: {exc}", line_no) from exc


def emit_proof(steps) -> str:
    lines = []
    for step in steps:
        head = f"s {step.rule} w {format_rational(step.weight)}"
        if step.fresh_var is not None:
            head += f" y {step.fresh_var}"
        if step.offset != 0:
            head += f" o {format_rational(step.offset)}"
        if step.rule in CLAUSE_PREMISE_RULES:
            premises = "; ".join(_weighted_clause_str(p, step.weight) for p in step.premises)
        else:
            premises = "; ".join(
                _weighted_constraint_str(p, step.weight) for p in step.premises
            )
        conclusions = "; ".join(
            _weighted_constraint_str(c, step.weight * m) for c, m in step.conclusions
        )
        residues = "; ".join(
            _weighted_clause_str(c, step.weight * m) for c, m in step.residues
        )
        lines.append(f"{head} | {premises} | {conclusions} | {residues}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def parse_proof(text: str):
    from .proofs import KNOWN_RULES, ProofStep  # deferred: proofs builds on textio

    steps = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        sections = [part.strip() for part in line.split("|")]
        if len(sections) != 4:
            raise ParseError("step line needs 4 '|' separated sections", line_no)
        head, premises_part, conclusions_part, residues_part = sections
        tokens = head.split()
        if len(tokens) < 4 or tokens[0] != "s" or tokens[2] != "w":
            raise ParseError(f"bad step head {head!r}", line_no)
        rule = tokens[1]
        if rule not in KNOWN_RULES:
            raise ParseError(f"unknown rule id {rule!r}", line_no)
        weight = _rational(tokens[3], "applied weight", line_no)
        if weight <= 0:
            raise ParseError(f"applied weight must be positive, got {tokens[3]}", line_no)
        fresh_var: Optional[int] = None
        offset = ZERO
        rest = tokens[4:]
        while rest:
            if rest[0] == "y" and len(rest) >= 2:
                fresh_var = _int(rest[1], "fresh variable", line_no)
            elif rest[0] == "o" and len(rest) >= 2:
                offset = _rational(rest[1], "offset", line_no)
            else:
                raise ParseError(f"bad step head token {rest[0]!r}", line_no)
            rest = rest[2:]

        def split_items(part: str) -> List[str]:
            return [item.strip() for item in part.split(";") if item.strip()]

        premises: List[object] = []
        for item in split_items(premises_part):
            if rule in CLAUSE_PREMISE_RULES:
                cl, w = _parse_weighted_clause(item, line_no)
                premises.append(cl)
            else:
                constraint, w = _parse_weighted_constraint(item, line_no)
                premises.append(constraint)
            if w != weight:
                raise ParseError(
                    f"premise weight {w} differs from applied weight {weight}", line_no
                )
        conclusions = []
        for item in split_items(conclusions_part):
            constraint, w = _parse_weighted_constraint(item, line_no)
            conclusions.append((constraint, w / weight))
        residues = []
        for item in split_items(residues_part):
            cl, w = _parse_weighted_clause(item, line_no)
            residues.append((cl, w / weight))
        steps.append(
            ProofStep(
                rule=rule,
                weight=weight,
                premises=tuple(premises),
                conclusions=tuple(conclusions),
                residues=tuple(residues),
                offset=offset,
                fresh_var=fresh_var,
            )
        )
    return steps
