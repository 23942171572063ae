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
    ``e <u> <v> <num>/<den>`` with u < v, sorted.  Nodes are ``1..node_count``.

``.x2xproof``
    One ``s`` line per step::

        s <rule> w <num>/<den> [y <fresh>] | <premises>

    Premises are ``.x2x`` entries without their weight (``[<v1> [<v2>]] =
    <parity>``; no variables encodes the empty constraint), or for the
    retranslation rules DIMACS clauses ``<lit>... 0``, separated by ``;``.
    Each premise is consumed at the applied weight ``w``.  The line holds no
    conclusions, residues or offset: the rule fixes them from the premises,
    the weight and the fresh variable, and the checker derives them with
    :func:`~max2xor.rules.build_step`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

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
from .rules import RULES, ProofStep

# ---------------------------------------------------------------------------
# Shared readers


def _records(text: str, comment_prefixes: Tuple[str, ...]) -> Iterator[Tuple[int, str]]:
    """``(line_no, stripped_line)`` for each line neither blank nor a comment."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith(comment_prefixes):
            yield line_no, line


def _int(token: str, what: str, line_no: int) -> int:
    """An ASCII ``-?[0-9]+`` token, or a ParseError naming ``what`` and the line."""
    if token.isascii() and (token.isdigit() or token[:1] == "-" and token[1:].isdigit()):
        try:
            return int(token)
        except ValueError:  # more digits than the interpreter converts
            pass
    raise ParseError(f"bad {what} {token!r}", line_no)


def _rational(token: str, what: str, line_no: int) -> Fraction:
    """``parse_rational(token)``, or a ParseError naming ``what`` and the line."""
    try:
        return parse_rational(token)
    except ParseError:
        raise ParseError(f"bad {what} {token!r}", line_no) from None


def _positive(token: str, what: str, line_no: int, read=_rational):
    """A weight token read by ``read``; it must be positive."""
    value = read(token, what, line_no)
    if value.numerator <= 0:  # the sign of a Fraction, without its slower comparison
        raise ParseError(f"{what} must be positive, got {token}", line_no)
    return value


def _positive_memo():
    """:func:`_positive` for one parse call, storing each token read without error."""
    weights: Dict[str, Fraction] = {}

    def positive(token: str, what: str, line_no: int) -> Fraction:
        value = weights.get(token)
        if value is None:
            value = weights[token] = _positive(token, what, line_no)
        return value

    return positive


def _header(tokens: List[str], line_no: int, seen: bool, kinds: tuple, counts: tuple):
    """The kind and the non-negative counts, named by ``counts``, of a ``p`` line."""
    if seen:
        raise ParseError("duplicate header", line_no)
    if len(tokens) != 2 + len(counts) or tokens[1] not in kinds:
        raise ParseError(f"bad header {' '.join(tokens)!r}", line_no)
    values = [_int(token, name, line_no) for name, token in zip(counts, tokens[2:])]
    if min(values) < 0:
        raise ParseError(f"negative count in header {' '.join(tokens)!r}", line_no)
    return tokens[1], values


def _clause(tokens: List[str], line_no: int, var_count: Optional[int] = None) -> OrClause:
    """Read ``<lit>... 0``; with ``var_count``, no variable may exceed it."""
    if not tokens or tokens[-1] != "0":
        raise ParseError("clause must end with 0", line_no)
    lits = []
    for token in tokens[:-1]:
        lit = _int(token, "literal", line_no)
        if var_count is not None and abs(lit) > var_count:
            raise ParseError(f"variable {abs(lit)} exceeds declared count {var_count}", line_no)
        lits.append(lit)
    try:
        return OrClause(tuple(sorted(lits, key=abs)))
    except InvalidClauseError as exc:
        raise ParseError(f"bad clause: {exc}", line_no) from exc


def sniff_format(text: str) -> str:
    """``"cnf"`` or ``"x2x"``, from the header that opens ``text``."""
    for _, line in _records(text, ("c", "%")):
        kind = line.split()[1] if line.startswith("p ") else None
        if kind in ("cnf", "wcnf", "x2x"):
            return "x2x" if kind == "x2x" else "cnf"
        break
    raise Max2XorError("input is neither DIMACS cnf/wcnf nor x2x (no recognizable header)")


# ---------------------------------------------------------------------------
# DIMACS cnf / wcnf


@dataclass
class WcnfInstance:
    var_count: int
    clauses: List[Tuple[OrClause, Fraction]] = field(default_factory=list)

    def weight(self) -> Fraction:
        return sum((w for _, w in self.clauses), ZERO)


def parse_cnf(text: str) -> WcnfInstance:
    """Read a DIMACS cnf or wcnf instance; all clauses are soft.

    Plain cnf clauses get weight 1.  A wcnf header may carry a ``top``
    weight, but any clause at or above it is a hard clause and rejected as
    unsupported.
    """
    var_count: Optional[int] = None
    kind = clause_count = None
    top: Optional[int] = None
    clauses: List[Tuple[OrClause, Fraction]] = []

    for line_no, line in _records(text, ("c", "%")):
        tokens = line.split()
        if tokens[0] == "p":
            if len(tokens) == 5 and tokens[1] == "wcnf":
                top = _int(tokens.pop(), "top weight", line_no)
            kind, (var_count, clause_count) = _header(
                tokens, line_no, var_count is not None, ("cnf", "wcnf"),
                ("variable count", "clause count"),
            )
            continue
        if var_count is None:
            raise ParseError("clause before problem header", line_no)
        weight = 1
        if kind == "wcnf":
            weight = _positive(tokens[0], "clause weight", line_no, _int)
            if top is not None and weight >= top:
                raise UnsupportedFeatureError(
                    f"line {line_no}: hard clauses (weight >= top {top}) are not supported"
                )
            del tokens[0]
        clauses.append((_clause(tokens, line_no, var_count), Fraction(weight)))

    if var_count is None:
        raise ParseError("missing problem header")
    if len(clauses) != clause_count:
        raise ParseError(f"header declares {clause_count} clauses, found {len(clauses)}")
    return WcnfInstance(var_count=var_count, clauses=clauses)


# ---------------------------------------------------------------------------
# .x2x


def _constraint_text(constraint: XorConstraint) -> str:
    return "".join([f"{v} " for v in constraint.vars]) + f"= {constraint.parity}"


def emit_x2x(problem: X2XProblem) -> str:
    lines = [f"p x2x {problem.var_count}"]
    if problem.floor != 0:
        lines.append(f"f {format_rational(problem.floor)}")
    for constraint, weight in problem.sorted_entries():
        lines.append(f"{format_rational(weight)} {_constraint_text(constraint)}")
    return "\n".join(lines) + "\n"


def _constraint(tokens: List[str], line_no: int) -> XorConstraint:
    """Read ``[<v1> [<v2>]] = <parity>``."""
    if len(tokens) < 2 or tokens[-2] != "=":
        raise ParseError("entry line must end with '= <parity>'", line_no)
    if tokens[-1] not in ("0", "1"):
        raise ParseError(f"parity must be 0 or 1, got {tokens[-1]!r}", line_no)
    variables = [_int(t, "variable", line_no) for t in tokens[:-2]]
    try:
        return XorConstraint(tuple(sorted(variables)), 1 if tokens[-1] == "1" else 0)
    except Max2XorError as exc:
        raise ParseError(str(exc), line_no) from exc


def parse_x2x(text: str) -> X2XProblem:
    var_count: Optional[int] = None
    floor = ZERO
    saw_floor = False
    raw: List[Tuple[XorConstraint, Fraction]] = []
    positive = _positive_memo()

    for line_no, line in _records(text, ("c",)):
        tokens = line.split()
        if tokens[0] == "p":
            _, (var_count,) = _header(
                tokens, line_no, var_count is not None, ("x2x",), ("variable count",)
            )
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
        weight = positive(tokens[0], "weight", line_no)
        constraint = _constraint(tokens[1:], line_no)
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
        if type(weight) is not Fraction:
            weight = Fraction(weight)
        if weight.numerator <= 0:  # the sign of a Fraction, without its slower comparison
            raise InvalidWeightError(f"edge weight must be positive, got {weight}")
        key = (u, v) if u < v else (v, u)
        self.edges[key] = self.edges[key] + weight if key in self.edges else weight

    def total_weight(self) -> Fraction:
        return sum(self.edges.values(), ZERO)


def emit_maxcut(graph: CutGraph) -> str:
    """The ``.cut`` text of ``graph``; every edge end and anchor must be a node."""
    nodes = range(1, graph.node_count + 1)
    for anchor in (graph.anchor_zero, graph.anchor_one):
        if anchor is not None and anchor not in nodes:
            raise Max2XorError(f"anchor node {anchor} outside 1..{graph.node_count}")
    for u, v in graph.edges:
        if u == v:
            raise Max2XorError(f"self-loop on node {u}")
        for end in (u, v):
            if end not in nodes:
                raise Max2XorError(f"edge endpoint {end} outside 1..{graph.node_count}")
    lines = [f"p cut {graph.node_count} {len(graph.edges)}"]
    if graph.anchor_zero is not None:
        lines.append(f"c anchor0 {graph.anchor_zero}")
    if graph.anchor_one is not None:
        lines.append(f"c anchor1 {graph.anchor_one}")
    for (u, v), weight in sorted(graph.edges.items()):
        lines.append(f"e {u} {v} {format_rational(weight)}")
    return "\n".join(lines) + "\n"


_ANCHORS = {"anchor0": "anchor_zero", "anchor1": "anchor_one"}


def parse_maxcut(text: str) -> CutGraph:
    graph: Optional[CutGraph] = None
    declared_edges = 0

    def node(token: str, what: str, line_no: int) -> int:
        value = _int(token, what, line_no)
        if not 1 <= value <= graph.node_count:
            raise ParseError(f"{what} {value} outside 1..{graph.node_count}", line_no)
        return value

    # No comment prefixes: the "c anchor" lines carry data.
    for line_no, line in _records(text, ()):
        tokens = line.split()
        if tokens[0] == "c":
            if len(tokens) == 3 and tokens[1] in _ANCHORS:
                if graph is None:
                    raise ParseError("anchor before header", line_no)
                setattr(graph, _ANCHORS[tokens[1]], node(tokens[2], "anchor node", line_no))
            continue
        if tokens[0] == "p":
            _, (node_count, declared_edges) = _header(
                tokens, line_no, graph is not None, ("cut",), ("node count", "edge count")
            )
            graph = CutGraph(node_count=node_count)
            continue
        if tokens[0] == "e":
            if graph is None:
                raise ParseError("edge before header", line_no)
            if len(tokens) != 4:
                raise ParseError("edge line is 'e <u> <v> <num>/<den>'", line_no)
            u = node(tokens[1], "edge endpoint", line_no)
            v = node(tokens[2], "edge endpoint", line_no)
            weight = _rational(tokens[3], "edge weight", line_no)
            try:
                graph.add_edge(u, v, weight)
            except Max2XorError as exc:
                raise ParseError(str(exc), line_no) from exc
            continue
        raise ParseError(f"unrecognized line {line!r}", line_no)

    if graph is None:
        raise ParseError("missing header")
    if len(graph.edges) != declared_edges:
        raise ParseError(f"header declares {declared_edges} edges, found {len(graph.edges)}")
    return graph


# ---------------------------------------------------------------------------
# .x2xproof


def _premise_text(premise) -> str:
    if type(premise) is OrClause:
        return " ".join([*map(str, premise.lits), "0"])
    return _constraint_text(premise)


def emit_proof(steps) -> str:
    """The log of ``steps``.  Each weight object and each premise is formatted
    once per call: weights by identity, kept alive in the memo, so no
    ``Fraction`` is hashed; the prover's and the parser's steps share one
    object per weight value."""
    weight_texts: Dict[int, Tuple[Fraction, str]] = {}
    premise_texts: Dict[object, str] = {}
    lines = []
    for rule, weight, premises, fresh_var in steps:
        known = weight_texts.get(id(weight))
        if known is None:
            known = weight_texts[id(weight)] = weight, format_rational(weight)
        head = f"s {rule} w {known[1]}"
        if fresh_var is not None:
            head += f" y {fresh_var}"
        texts = []
        for premise in premises:
            text = premise_texts.get(premise)
            if text is None:
                text = premise_texts[premise] = _premise_text(premise)
            texts.append(text)
        lines.append(f"{head} | {'; '.join(texts)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _step_head(head: str, line_no: int, positive) -> Tuple[str, Fraction, Optional[int]]:
    """The rule, applied weight and fresh variable of ``s <rule> w <weight> [y <fresh>]``."""
    tokens = head.split()
    if len(tokens) < 4 or tokens[0] != "s" or tokens[2] != "w":
        raise ParseError(f"bad step head {head.strip()!r}", line_no)
    rule = tokens[1]
    if rule not in RULES:
        raise ParseError(f"unknown rule id {rule!r}", line_no)
    weight = positive(tokens[3], "applied weight", line_no)
    fresh_var = None
    for i in range(4, len(tokens), 2):
        if tokens[i] != "y" or i + 1 == len(tokens):
            raise ParseError(f"bad step head token {tokens[i]!r}", line_no)
        if fresh_var is not None:
            raise ParseError("repeated step head token 'y'", line_no)
        fresh_var = _int(tokens[i + 1], "fresh variable", line_no)
    return rule, weight, fresh_var


def parse_proof(text: str):
    """The steps of a proof log, one per line, as the line records them.

    A line is read, not checked against its rule: ``check_proof`` rejects a
    step whose premises do not fit it.  Each distinct head, weight token and
    premise text is read once per call; only reads without error are kept,
    so an error names the line it is on.
    """
    positive = _positive_memo()
    heads: Dict[str, Tuple[str, Fraction, Optional[int]]] = {}
    read_premises = {_clause: {}, _constraint: {}}  # by reader
    steps = []
    for line_no, line in _records(text, ("c",)):
        head, *parts = line.split("|")
        if len(parts) != 1:
            raise ParseError("step line needs one '|' between its head and its premises", line_no)
        read_head = heads.get(head)
        if read_head is None:
            read_head = heads[head] = _step_head(head, line_no, positive)
        rule, weight, fresh_var = read_head
        read = _clause if RULES[rule].form == "clause" else _constraint
        known, premises = read_premises[read], []
        for piece in parts[0].split(";"):
            premise = known.get(piece)
            if premise is None:
                tokens = piece.split()
                if not tokens:
                    continue
                premise = known[piece] = read(tokens, line_no)
            premises.append(premise)
        steps.append(ProofStep(rule, weight, tuple(premises), fresh_var))
    return steps
