"""Format round trips and parser error behaviour."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from max2xor import textio
from max2xor.core import (
    Max2XorError,
    OrClause,
    ParseError,
    UnsupportedFeatureError,
    clause,
    normalize,
    xor,
)
from max2xor.checker import check_proof
from max2xor.gadgets import to_maxcut
from max2xor.prover import saturate
from max2xor.rules import PatternError, ProofStep, build_step
from max2xor.textio import (
    CutGraph,
    emit_maxcut,
    emit_proof,
    emit_x2x,
    parse_cnf,
    parse_maxcut,
    parse_proof,
    parse_x2x,
)

F = Fraction
H = Fraction(1, 2)


# ---------------------------------------------------------------------------
# DIMACS


def test_parse_plain_cnf():
    instance = parse_cnf("p cnf 2 1\n1 2 0\n")
    assert instance.var_count == 2
    assert instance.clauses == [(clause(1, 2), F(1))]


def test_parse_wcnf():
    instance = parse_cnf("p wcnf 3 2\n2 1 2 0\n3 -2 3 0\n")
    assert instance.clauses == [(clause(1, 2), F(2)), (clause(-2, 3), F(3))]


def test_parse_cnf_comments_and_blanks():
    instance = parse_cnf("c hello\n\np cnf 2 1\nc mid\n-1 -2 0\n")
    assert instance.clauses == [(clause(-1, -2), F(1))]


def test_parse_cnf_rejects_tautology():
    with pytest.raises(ParseError) as err:
        parse_cnf("p cnf 1 1\n1 -1 0\n")
    assert err.value.line == 2


def test_parse_cnf_rejects_duplicate_literal():
    with pytest.raises(ParseError):
        parse_cnf("p cnf 1 1\n1 1 0\n")


def test_parse_cnf_rejects_hard_clauses():
    with pytest.raises(UnsupportedFeatureError):
        parse_cnf("p wcnf 2 2 5\n5 1 2 0\n1 -1 0\n")
    # soft clauses below top parse fine
    instance = parse_cnf("p wcnf 2 1 5\n4 1 2 0\n")
    assert instance.clauses[0][1] == F(4)


def test_parse_cnf_error_cases():
    with pytest.raises(ParseError):
        parse_cnf("p cnf 2 1\n1 2\n")  # missing terminator
    with pytest.raises(ParseError):
        parse_cnf("p cnf 1 1\n1 2 0\n")  # variable out of range
    with pytest.raises(ParseError):
        parse_cnf("p cnf 2 2\n1 2 0\n")  # clause count mismatch
    with pytest.raises(ParseError):
        parse_cnf("1 2 0\n")  # no header
    with pytest.raises(ParseError):
        parse_cnf("p wcnf 2 1\n0 1 0\n")  # non-positive weight
    with pytest.raises(ParseError):
        parse_cnf("p cnf 2 1 9\n1 0\n")  # cnf header with top


def test_parse_cnf_empty_clause_allowed():
    instance = parse_cnf("p cnf 1 1\n0\n")
    assert instance.clauses == [(OrClause(()), F(1))]


def test_parse_wcnf_nine_clause_example_weights():
    text = (
        "p wcnf 3 9\n1 2 0\n2 1 2 0\n1 -1 -2 0\n1 1 -2 0\n"
        "2 2 -3 0\n3 -2 3 0\n1 1 3 0\n2 -1 -3 0\n3 -1 3 0\n"
    )
    instance = parse_cnf(text)
    assert len(instance.clauses) == 9
    assert [w for _, w in instance.clauses] == [F(w) for w in (1, 2, 1, 1, 2, 3, 1, 2, 3)]
    assert instance.clauses[0][0] == clause(2)
    assert instance.clauses[5][0] == clause(-2, 3)


# ---------------------------------------------------------------------------
# .x2x


def test_emit_x2x_single_entry():
    problem = normalize([(xor([1, 2], 1), H)], var_count=2)
    assert emit_x2x(problem) == "p x2x 2\n1/2 1 2 = 1\n"


def test_emit_x2x_sorting_and_floor():
    problem = normalize(
        [(xor([2], 1), F(1)), (xor([1, 2], 0), H), (xor([], 1), F(3, 2))], var_count=2
    )
    assert emit_x2x(problem) == "p x2x 2\nf 3/2\n1/2 1 2 = 0\n1/1 2 = 1\n"


def test_parse_x2x_round_trip_random():
    rng = random.Random(20240820)
    for _ in range(1000):
        nvars = rng.randint(1, 9)
        raw = []
        for _ in range(rng.randint(0, 14)):
            arity = rng.randint(0, min(2, nvars))
            vs = rng.sample(range(1, nvars + 1), arity)
            raw.append((xor(vs, rng.randint(0, 1)), F(rng.randint(1, 40), rng.randint(1, 16))))
        problem = normalize(raw, var_count=nvars)
        assert parse_x2x(emit_x2x(problem)) == problem


def test_parse_x2x_errors():
    with pytest.raises(ParseError):
        parse_x2x("p x2x 2\n1/2 1 2 = 2\n")  # bad parity
    with pytest.raises(ParseError):
        parse_x2x("p x2x 2\n0/1 1 = 1\n")  # non-positive weight
    with pytest.raises(ParseError):
        parse_x2x("p x2x 2\n1/2 1 1 = 0\n")  # repeated variable
    with pytest.raises(ParseError):
        parse_x2x("p x2x 1\n1/2 1 2 = 0\n")  # variable above count
    with pytest.raises(ParseError):
        parse_x2x("1/2 1 = 0\n")  # entry before header


def test_parse_x2x_accepts_opposite_pair_by_normalizing():
    problem = parse_x2x("p x2x 1\n1/1 1 = 0\n1/1 1 = 1\n")
    assert problem.entries == {}
    assert problem.floor == F(1)


# ---------------------------------------------------------------------------
# .cut


def test_emit_maxcut_single_edge():
    graph = CutGraph(node_count=2)
    graph.add_edge(1, 2, F(1))
    assert emit_maxcut(graph) == "p cut 2 1\ne 1 2 1/1\n"


def test_emit_maxcut_anchor_comments_and_round_trip():
    problem = normalize([(xor([1], 0), F(1))], var_count=1)
    graph = to_maxcut(problem, "single")
    text = emit_maxcut(graph)
    assert text == "p cut 3 2\nc anchor0 2\ne 1 3 1/1\ne 2 3 1/1\n"
    back = parse_maxcut(text)
    assert back.edges == graph.edges
    assert back.anchor_zero == 2 and back.anchor_one is None


def test_maxcut_merges_parallel_edges():
    graph = CutGraph(node_count=2)
    graph.add_edge(1, 2, H)
    graph.add_edge(2, 1, H)
    assert graph.edges == {(1, 2): F(1)}
    assert "e 1 2 1/1" in emit_maxcut(graph)


def test_maxcut_rejects_self_loop():
    graph = CutGraph(node_count=2)
    with pytest.raises(Exception):
        graph.add_edge(1, 1, F(1))


def test_emit_maxcut_rejects_nodes_outside_the_graph():
    graph = CutGraph(node_count=2)
    graph.add_edge(1, 5, 1)
    with pytest.raises(Max2XorError, match=r"edge endpoint 5 outside 1\.\.2"):
        emit_maxcut(graph)
    for anchor in (0, 3):
        graph = CutGraph(node_count=2, anchor_zero=anchor)
        with pytest.raises(Max2XorError, match=rf"anchor node {anchor} outside 1\.\.2"):
            emit_maxcut(graph)


# more digits than Python converts between int and str (4,300 by default)
HUGE = "9" * 5000

MALFORMED_INTEGERS = [
    (parse_maxcut, "p cut x 1\n", 1),
    (parse_maxcut, "p cut 2 y\n", 1),
    (parse_maxcut, "p cut 2 1\nc anchor0 q\ne 1 2 1/1\n", 2),
    (parse_maxcut, "p cut 2 1\nc anchor1 1.5\ne 1 2 1/1\n", 2),
    (parse_maxcut, "p cut 2 1\n\ne a 2 1/1\n", 3),
    (parse_maxcut, "p cut 2 1\ne 1 b 1/1\n", 2),
    (parse_proof, "s contra w 1 y z | 1 = 0; 1 = 1\n", 1),
    (parse_proof, "c first\ns compact00 w 1/1 y 4x | 1 2 = 0; 1 3 = 0\n", 2),
    (parse_cnf, f"c big\np cnf {HUGE} 1\n1 0\n", 2),
    (parse_cnf, f"p wcnf 1 1 {HUGE}\n1 1 0\n", 1),
    (parse_x2x, f"p x2x 2\n1/1 1 {HUGE} = 0\n", 2),
    (parse_proof, f"s contra w 1/1 | {HUGE} = 0; {HUGE} = 1\n", 1),
]


@pytest.mark.parametrize(
    "parser,text,line",
    MALFORMED_INTEGERS,
    ids=["nodes", "edges", "anchor0", "anchor1", "edge-u", "edge-v", "fresh", "fresh-line-2",
         "huge-cnf-count", "huge-top-weight", "huge-variable", "huge-premise"],
)
def test_malformed_integer_tokens_raise_parse_error(parser, text, line):
    with pytest.raises(ParseError) as err:
        parser(text)
    assert err.value.line == line


MALFORMED_RATIONALS = [
    (parse_proof, "c x\ns contra w x | 1 = 0; 1 = 1\n", 2, "applied weight 'x'"),
    # a premise holds no weight: a leading weight token is a bad literal or variable
    (parse_proof, "s xlate2 w 1/1 | q 1 2 0\n", 1, "literal 'q'"),
    (parse_proof, "s contra w 1/1 | 1/y 1 = 0; 1 = 1\n", 1, "variable '1/y'"),
    (parse_x2x, "p x2x 2\nf one\n", 2, "floor 'one'"),
    (parse_x2x, "p x2x 2\nc\n1/1 1 = 0\nz 2 = 1\n", 4, "weight 'z'"),
    (parse_maxcut, "p cut 2 1\ne 1 2 1/0\n", 2, "edge weight '1/0'"),
    (parse_proof, f"s contra w {HUGE}/2 | 1 = 0; 1 = 1\n", 1, f"applied weight '{HUGE}/2'"),
    (parse_x2x, f"p x2x 2\nf {HUGE}\n", 2, f"floor '{HUGE}'"),
    (parse_x2x, f"p x2x 2\n1/{HUGE} 1 = 0\n", 2, f"weight '1/{HUGE}'"),
]


@pytest.mark.parametrize(
    "parser,text,line,message",
    MALFORMED_RATIONALS,
    ids=["step-weight", "clause-item", "premise", "floor", "entry", "edge-weight",
         "huge-step-weight", "huge-floor", "huge-denominator"],
)
def test_malformed_rational_tokens_raise_parse_error(parser, text, line, message):
    with pytest.raises(ParseError) as err:
        parser(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: bad {message}"


def test_maxcut_round_trip_random():
    rng = random.Random(20240822)
    for _ in range(300):
        graph = CutGraph(node_count=rng.randint(2, 9))
        nodes = range(1, graph.node_count + 1)
        if rng.random() < 0.7:
            graph.anchor_zero = rng.choice(nodes)
        if rng.random() < 0.5:
            graph.anchor_one = rng.choice(nodes)
        for _ in range(rng.randint(0, 12)):  # repeated pairs merge into one edge
            u, v = rng.sample(nodes, 2)
            graph.add_edge(u, v, F(rng.randint(1, 30), rng.randint(1, 8)))
        back = parse_maxcut(emit_maxcut(graph))
        assert back.node_count == graph.node_count
        assert (back.anchor_zero, back.anchor_one) == (graph.anchor_zero, graph.anchor_one)
        assert back.edges == graph.edges


# One row per malformed input: parser, text, exception class, line number (None
# for a fault of the whole input) and the message after "line N: ", or None
# where the message comes from a core type.
MALFORMED = [
    pytest.param(parse_cnf, "p cnf 2 1\n1 2\n", ParseError, 2, "clause must end with 0",
                 id="cnf-no-terminator"),
    pytest.param(parse_cnf, "p cnf 1 1\n1 2 0\n", ParseError, 2,
                 "variable 2 exceeds declared count 1", id="cnf-variable-range"),
    pytest.param(parse_cnf, "p cnf 2 2\n1 2 0\n", ParseError, None,
                 "header declares 2 clauses, found 1", id="cnf-clause-count"),
    pytest.param(parse_cnf, "c x\n1 2 0\n", ParseError, 2, "clause before problem header",
                 id="cnf-before-header"),
    pytest.param(parse_cnf, "p wcnf 2 1\n0 1 0\n", ParseError, 2,
                 "clause weight must be positive, got 0", id="cnf-zero-weight"),
    pytest.param(parse_cnf, "p wcnf 2 1\n1/2 1 0\n", ParseError, 2, "bad clause weight '1/2'",
                 id="cnf-rational-weight"),
    pytest.param(parse_cnf, "p cnf 2 1 9\n1 0\n", ParseError, 1, "bad header 'p cnf 2 1 9'",
                 id="cnf-top-without-wcnf"),
    pytest.param(parse_cnf, "p wcnf 2 1 x\n1 1 0\n", ParseError, 1, "bad top weight 'x'",
                 id="cnf-top-token"),
    pytest.param(parse_cnf, "p cnf 1 1\n1 -1 0\n", ParseError, 2, None, id="cnf-tautology"),
    pytest.param(parse_cnf, "p cnf 2 1\n1 0 2 0\n", ParseError, 2, None, id="cnf-literal-0"),
    pytest.param(parse_cnf, "p cnf 2 1\n\np cnf 2 1\n", ParseError, 3, "duplicate header",
                 id="cnf-duplicate-header"),
    pytest.param(parse_cnf, "p dnf 2 1\n", ParseError, 1, "bad header 'p dnf 2 1'",
                 id="cnf-kind"),
    pytest.param(parse_cnf, "p cnf x 1\n", ParseError, 1, "bad variable count 'x'",
                 id="cnf-count-token"),
    pytest.param(parse_cnf, "p wcnf 2 1 5\n5 1 0\n", UnsupportedFeatureError, None,
                 "line 2: hard clauses (weight >= top 5) are not supported", id="cnf-hard"),
    pytest.param(parse_cnf, "c only\n", ParseError, None, "missing problem header",
                 id="cnf-no-header"),
    pytest.param(parse_cnf, "p cnf -3 0\n", ParseError, 1,
                 "negative count in header 'p cnf -3 0'", id="cnf-negative-vars"),
    pytest.param(parse_cnf, "p cnf 2 -1\n", ParseError, 1,
                 "negative count in header 'p cnf 2 -1'", id="cnf-negative-clauses"),
    pytest.param(parse_cnf, "p cnf 20 1\n1_1 0\n", ParseError, 2, "bad literal '1_1'",
                 id="cnf-underscore"),
    pytest.param(parse_cnf, "p cnf \u0662 1\n\u0661 0\n", ParseError, 1,
                 "bad variable count '\u0662'", id="cnf-arabic-indic-count"),
    pytest.param(parse_cnf, "p cnf 2 1\n\u0661 0\n", ParseError, 2, "bad literal '\u0661'",
                 id="cnf-arabic-indic-literal"),
    pytest.param(parse_cnf, "p cnf 2 1\n+1 0\n", ParseError, 2, "bad literal '+1'",
                 id="cnf-plus"),
    pytest.param(parse_cnf, "p wcnf 2 1 1_0\n1 1 0\n", ParseError, 1, "bad top weight '1_0'",
                 id="cnf-top-underscore"),
    pytest.param(parse_x2x, "p x2x 2\n-1/2 1 = 1\n", ParseError, 2,
                 "weight must be positive, got -1/2", id="x2x-negative-weight"),
    pytest.param(parse_x2x, "p x2x 2\n1/-2 1 = 1\n", ParseError, 2, "bad weight '1/-2'",
                 id="x2x-negative-denominator"),
    pytest.param(parse_x2x, "p x2x 2\n1.5 1 = 1\n", ParseError, 2, "bad weight '1.5'",
                 id="x2x-decimal-weight"),
    pytest.param(parse_x2x, "p x2x 2\n1/2 1 2\n", ParseError, 2,
                 "entry line must end with '= <parity>'", id="x2x-no-equals"),
    pytest.param(parse_x2x, "p x2x 2\n1/2 = 1 2\n", ParseError, 2,
                 "entry line must end with '= <parity>'", id="x2x-equals-early"),
    pytest.param(parse_x2x, "p x2x 2\n1/2 1 = 01\n", ParseError, 2,
                 "parity must be 0 or 1, got '01'", id="x2x-parity"),
    pytest.param(parse_x2x, "p x2x 2\n1/2 a = 1\n", ParseError, 2, "bad variable 'a'",
                 id="x2x-variable-token"),
    pytest.param(parse_x2x, "p x2x 2\n1/2 0 = 1\n", ParseError, 2, None, id="x2x-variable-0"),
    pytest.param(parse_x2x, "p x2x 3\n1/2 1 2 3 = 1\n", ParseError, 2, None, id="x2x-arity"),
    pytest.param(parse_x2x, "p x2x 2\n1/2 1_2 = 1\n", ParseError, 2, "bad variable '1_2'",
                 id="x2x-underscore-variable"),
    pytest.param(parse_x2x, "p x2x 2\nf 1/2\nf 1/2\n", ParseError, 3, "duplicate floor line",
                 id="x2x-duplicate-floor"),
    pytest.param(parse_x2x, "p x2x 2\nf -1/2\n", ParseError, 2, "floor must be non-negative",
                 id="x2x-negative-floor"),
    pytest.param(parse_x2x, "p x2x\n", ParseError, 1, "bad header 'p x2x'", id="x2x-header"),
    pytest.param(parse_x2x, "p x2x 2\np x2x 2\n", ParseError, 2, "duplicate header",
                 id="x2x-duplicate-header"),
    pytest.param(parse_x2x, "", ParseError, None, "missing header", id="x2x-no-header"),
    pytest.param(parse_x2x, "p x2x -5\n", ParseError, 1,
                 "negative count in header 'p x2x -5'", id="x2x-negative-vars"),
    pytest.param(parse_x2x, "p x2x 2\n+1/2 1 = 1\n", ParseError, 2, "bad weight '+1/2'",
                 id="x2x-plus-weight"),
    pytest.param(parse_x2x, "p x2x 2\n1/2 +1 = 1\n", ParseError, 2, "bad variable '+1'",
                 id="x2x-plus-variable"),
    pytest.param(parse_x2x, "p x2x 2\n1/2 \u0661 = 1\n", ParseError, 2,
                 "bad variable '\u0661'", id="x2x-arabic-indic-variable"),
    pytest.param(parse_x2x, "p x2x 2\n\u0661/2 1 = 1\n", ParseError, 2,
                 "bad weight '\u0661/2'", id="x2x-arabic-indic-weight"),
    pytest.param(parse_maxcut, "p cut 2 1\ne 1 1 1/1\n", ParseError, 2, "self-loop on node 1",
                 id="cut-self-loop"),
    pytest.param(parse_maxcut, "p cut 2 1\ne 1 2 0/1\n", ParseError, 2,
                 "edge weight must be positive, got 0", id="cut-zero-weight"),
    pytest.param(parse_maxcut, "p cut 2 1\ne 1 2\n", ParseError, 2,
                 "edge line is 'e <u> <v> <num>/<den>'", id="cut-edge-shape"),
    pytest.param(parse_maxcut, "e 1 2 1/1\n", ParseError, 1, "edge before header",
                 id="cut-edge-before-header"),
    pytest.param(parse_maxcut, "p cut 2 1\nx\n", ParseError, 2, "unrecognized line 'x'",
                 id="cut-unrecognized"),
    pytest.param(parse_maxcut, "p cut 2 2\ne 1 2 1/1\ne 2 1 1/1\n", ParseError, None,
                 "header declares 2 edges, found 1", id="cut-parallel-edges-count"),
    pytest.param(parse_maxcut, "p graph 2 1\n", ParseError, 1, "bad header 'p graph 2 1'",
                 id="cut-kind"),
    pytest.param(parse_maxcut, "p cut 2 1\np cut 2 1\n", ParseError, 2, "duplicate header",
                 id="cut-duplicate-header"),
    pytest.param(parse_maxcut, "c anchor0\n", ParseError, None, "missing header",
                 id="cut-no-header"),
    pytest.param(parse_maxcut, "p cut -1 0\n", ParseError, 1,
                 "negative count in header 'p cut -1 0'", id="cut-negative-nodes"),
    pytest.param(parse_maxcut, "p cut 2 -1\n", ParseError, 1,
                 "negative count in header 'p cut 2 -1'", id="cut-negative-edges"),
    pytest.param(parse_maxcut, "p cut 2 1\ne 0 1 1/1\n", ParseError, 2,
                 "edge endpoint 0 outside 1..2", id="cut-endpoint-0"),
    pytest.param(parse_maxcut, "p cut 2 1\ne 1 5 1/1\n", ParseError, 2,
                 "edge endpoint 5 outside 1..2", id="cut-endpoint-above"),
    pytest.param(parse_maxcut, "p cut 2 1\ne -1 2 1/1\n", ParseError, 2,
                 "edge endpoint -1 outside 1..2", id="cut-endpoint-negative"),
    pytest.param(parse_maxcut, "p cut 2 1\ne 1_0 2 1/1\n", ParseError, 2,
                 "bad edge endpoint '1_0'", id="cut-endpoint-underscore"),
    pytest.param(parse_maxcut, "p cut 2 1\nc anchor0 99\ne 1 2 1/1\n", ParseError, 2,
                 "anchor node 99 outside 1..2", id="cut-anchor-above"),
    pytest.param(parse_maxcut, "p cut 2 1\ne 1 2 1/1\nc anchor1 0\n", ParseError, 3,
                 "anchor node 0 outside 1..2", id="cut-anchor-0"),
    pytest.param(parse_maxcut, "c anchor0 7\np cut 2 1\ne 1 2 1/1\n", ParseError, 1,
                 "anchor before header", id="cut-anchor-before-header"),
    pytest.param(parse_proof, "s contra w -1/1 | 1 = 0; 1 = 1\n",
                 ParseError, 1, "applied weight must be positive, got -1/1",
                 id="proof-negative-weight"),
    pytest.param(parse_proof, "s contra w 1/1 | | | |\n", ParseError, 1,
                 "step line needs one '|' between its head and its premises",
                 id="proof-five-sections"),
    # a line with conclusion and residue sections, as earlier releases wrote
    pytest.param(parse_proof, "s contra w 1/1 | 1/1 1 = 0; 1/1 1 = 1 | 1/1 = 1 |\n",
                 ParseError, 1, "step line needs one '|' between its head and its premises",
                 id="proof-full-format"),
    pytest.param(parse_proof, "s contra 1/1 | 1 = 0; 1 = 1\n", ParseError, 1,
                 "bad step head 's contra 1/1'", id="proof-head"),
    pytest.param(parse_proof, "s contra w 1/1 q 1 | 1 = 0; 1 = 1\n", ParseError, 1,
                 "bad step head token 'q'", id="proof-head-token"),
    pytest.param(parse_proof, "s contra w 1/1 y | 1 = 0; 1 = 1\n", ParseError, 1,
                 "bad step head token 'y'", id="proof-head-dangling"),
    pytest.param(parse_proof, "s contra w 1/1 | 1/2 1 = 0; 1/2 1 = 1\n",
                 ParseError, 1, "bad variable '1/2'", id="proof-premise-weight"),
    pytest.param(parse_proof, "s xlate2 w 1/1 | 1 2\n", ParseError, 1,
                 "clause must end with 0", id="proof-clause-terminator"),
    pytest.param(parse_proof, "s xlate2 w 1/1 | 1 x 0\n", ParseError,
                 1, "bad literal 'x'", id="proof-clause-literal"),
    pytest.param(parse_proof, "s xlate2 w 1/1 | 1 -1 0\n",
                 ParseError, 1, None, id="proof-clause-tautology"),
    pytest.param(parse_proof, "s xlate2 w 1/1 | 0/1 1 2 0\n", ParseError,
                 1, "bad literal '0/1'", id="proof-clause-weight"),
    pytest.param(parse_proof, "c\ns contra w 1/1 | 1 = 0; 1 = 2\n",
                 ParseError, 2, "parity must be 0 or 1, got '2'", id="proof-premise-parity"),
    pytest.param(parse_proof, "s contra w 1_0/1 | 1 = 0; 1 = 1\n",
                 ParseError, 1, "bad applied weight '1_0/1'", id="proof-underscore-weight"),
    pytest.param(parse_proof, "s xlate3 w 1/1 y 9 y 10 | 1 2 3 0\n", ParseError, 1,
                 "repeated step head token 'y'", id="proof-repeated-fresh"),
    # 'o' is no head token: the rule fixes the offset
    pytest.param(parse_proof, "s xlate3 w 1/1 y 9 o 1/1 y 10 | 1 2 3 0\n", ParseError,
                 1, "bad step head token 'o'", id="proof-repeated-fresh-apart"),
    pytest.param(parse_proof, "s contra w 1/1 | \u0661 = 0; 1 = 1\n",
                 ParseError, 1, "bad variable '\u0661'", id="proof-arabic-indic-variable"),
]


@pytest.mark.parametrize("parser,text,error,line,message", MALFORMED)
def test_malformed_input_table(parser, text, error, line, message):
    with pytest.raises(error) as err:
        parser(text)
    assert type(err.value) is error
    assert getattr(err.value, "line", None) == line
    if message is not None:
        assert str(err.value) == (message if line is None else f"line {line}: {message}")


# ---------------------------------------------------------------------------
# .x2xproof


def test_proof_contra_line_format():
    _, steps = saturate([(xor([1], 0), F(1)), (xor([1], 1), F(1))])
    assert emit_proof(steps) == "s contra w 1/1 | 1 = 0; 1 = 1\n"
    assert parse_proof(emit_proof(steps)) == steps


def test_proof_chain_residues_have_double_weight():
    # the line names no residues; its rule derives both at weight 2w
    items = [(xor([1, 2], 1), F(1)), (xor([2, 3], 1), F(1)), (xor([1, 3], 1), F(1))]
    _, steps = saturate(items)
    text = emit_proof(steps)
    assert text.splitlines()[0] == "s chain11 w 1/1 | 1 2 = 1; 2 3 = 1"
    assert parse_proof(text) == steps
    step = steps[0]
    assert [m for _, m in build_step(step.rule, step.premises, step.weight).residues] == [2, 2]


def test_proof_round_trip_random_engine_output():
    rng = random.Random(77)
    for _ in range(40):
        nvars = rng.randint(3, 7)
        raw = []
        for _ in range(rng.randint(3, 10)):
            arity = rng.choice([1, 2, 2])
            vs = rng.sample(range(1, nvars + 1), arity)
            raw.append((xor(vs, rng.randint(0, 1)), F(rng.randint(1, 8), rng.choice([1, 2, 4]))))
        problem = normalize(raw, var_count=nvars)
        for mode in ("discard", "retranslate", "compact"):
            _, steps = saturate(problem, mode=mode, max_rounds=2)
            assert parse_proof(emit_proof(steps)) == steps


def test_parse_proof_errors():
    with pytest.raises(ParseError):
        parse_proof("s nonsense w 1/1 | 1 = 0; 1 = 1\n")
    with pytest.raises(ParseError):
        parse_proof("s contra w 0/1 | 1 = 0; 1 = 1\n")
    with pytest.raises(ParseError):
        parse_proof("s contra w 1/1 1 = 0; 1 = 1\n")
    assert parse_proof("c comment only\n") == []


def test_parse_proof_reads_each_premise_text_once_and_reports_a_bad_one_at_its_line(monkeypatch):
    # six premises, four distinct texts: each text is read once and its
    # steps share the premise it reads as
    reads, constraint = Counter(), textio._constraint

    def counted(tokens, line_no):
        reads[" ".join(tokens)] += 1
        return constraint(tokens, line_no)

    monkeypatch.setattr(textio, "_constraint", counted)
    steps = parse_proof(
        "s chain00 w 1/1 | 1 2 = 0; 2 3 = 0\n"
        "s chain00 w 1/1 | 1 2 = 0; 2 4 = 0\n"
        "c a comment\n"
        "s unit00 w 1/2 | 1 = 0; 1 2 = 0\n"
    )
    assert reads == {"1 2 = 0": 1, "2 3 = 0": 1, "2 4 = 0": 1, "1 = 0": 1}
    assert steps[0].premises[0] is steps[1].premises[0] is steps[2].premises[1]
    assert steps[2] == ProofStep("unit00", F(1, 2), (xor([1], 0), xor([1, 2], 0)))
    monkeypatch.undo()

    # a bad premise is reported at the first line it is on, however often a
    # good one repeats before it; a text that reads as a clause premise is
    # still read, and rejected, as a parity premise
    good = "s contra w 1/1 | 1 = 0; 1 = 1\n"
    for text, message in (
        (good * 2 + "s contra w 1/1 | 1 = 0; 1 x = 1\n" * 2, "line 3: bad variable 'x'"),
        ("s xlate2 w 1/1 | 1 2 0\ns contra w 1/1 | 1 2 0; 1 = 1\n",
         "line 2: entry line must end with '= <parity>'"),
    ):
        with pytest.raises(ParseError) as err:
            parse_proof(text)
        assert str(err.value) == message


def test_parse_proof_keeps_a_step_that_does_not_fit_its_rule():
    # the premises' parities do not fit contra: the step comes back as its
    # line reads, and the checker rejects it with build_step's reason
    (step,) = parse_proof("s contra w 1/1 | 1 = 0; 1 = 0\n")
    assert step == ProofStep("contra", F(1), (xor([1], 0), xor([1], 0)))
    verdict = check_proof([(xor([1], 0), F(1))], [step])
    assert (verdict.accepted, verdict.failing_step) == (False, 0)
    with pytest.raises(PatternError) as caught:
        build_step("contra", step.premises, F(1))
    assert verdict.reason == str(caught.value)


# A 7-edge ring: five chain00 steps and one contra, every applied weight 1/1,
# so the weight of line 5 was already read on an earlier line.
RING = "p x2x 7\n" + "".join(f"1/1 {i} {i + 1} = 0\n" for i in range(1, 7)) + "1/1 1 7 = 1\n"


@pytest.mark.parametrize("bad", ["0/1", "-1/2", "1/0", "x"])
@pytest.mark.parametrize("section", [0, 1])  # head, premises
def test_parse_proof_memo_keeps_errors_exact(bad, section):
    lines = emit_proof(saturate(parse_x2x(RING))[1]).splitlines()
    assert len(lines) == 6 and all(" w 1/1 | " in line for line in lines)
    parts = lines[4].split("|")
    old = "w 1/1" if section == 0 else " 1 "
    new = f"w {bad}" if section == 0 else f" {bad} "
    parts[section] = parts[section].replace(old, new, 1)
    lines[4] = "|".join(parts)
    with pytest.raises(ParseError) as caught:
        parse_proof("\n".join(lines) + "\n")
    if section == 1:
        reason = f"bad variable '{bad}'"
    elif bad in ("1/0", "x"):
        reason = f"bad applied weight '{bad}'"
    else:
        reason = f"applied weight must be positive, got {bad}"
    assert (caught.value.line, str(caught.value)) == (5, f"line 5: {reason}")
