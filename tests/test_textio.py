"""Format round trips and parser error behaviour."""

import random
from fractions import Fraction

import pytest

from max2xor.core import OrClause, ParseError, UnsupportedFeatureError, clause, normalize, xor
from max2xor.gadgets import to_maxcut
from max2xor.proofs import saturate
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


MALFORMED_CUT_AND_PROOF = [
    (parse_maxcut, "p cut x 1\n", 1),
    (parse_maxcut, "p cut 2 y\n", 1),
    (parse_maxcut, "p cut 2 1\nc anchor0 q\ne 1 2 1/1\n", 2),
    (parse_maxcut, "p cut 2 1\nc anchor1 1.5\ne 1 2 1/1\n", 2),
    (parse_maxcut, "p cut 2 1\n\ne a 2 1/1\n", 3),
    (parse_maxcut, "p cut 2 1\ne 1 b 1/1\n", 2),
    (parse_proof, "s contra w 1 y z | 1/1 1 = 0; 1/1 1 = 1 | 1/1 = 1 |\n", 1),
    (parse_proof, "c first\ns compact00 w 1/1 y 4x | 1/1 1 2 = 0; 1/1 1 3 = 0 | |\n", 2),
]


@pytest.mark.parametrize(
    "parser,text,line",
    MALFORMED_CUT_AND_PROOF,
    ids=["nodes", "edges", "anchor0", "anchor1", "edge-u", "edge-v", "fresh", "fresh-line-2"],
)
def test_malformed_integer_tokens_raise_parse_error(parser, text, line):
    with pytest.raises(ParseError) as err:
        parser(text)
    assert err.value.line == line


MALFORMED_RATIONALS = [
    (parse_proof, "c x\ns contra w x | 1/1 1 = 0; 1/1 1 = 1 | 1/1 = 1 |\n", 2, "applied weight 'x'"),
    (parse_proof, "s xlate2 w 1/1 o 1/x | 1/1 1 2 0 | 1/2 1 = 1 |\n", 1, "offset '1/x'"),
    (parse_proof, "s xlate2 w 1/1 o 1/2 | q 1 2 0 | 1/2 1 = 1 |\n", 1, "weight 'q'"),
    (parse_proof, "c x\n\ns unit00 w 1/1 | 1/1 1 = 0; 1/1 1 2 = 0 | 1/1 2 = 0 | 2/0 -1 2 0\n",
     3, "weight '2/0'"),
    (parse_proof, "s contra w 1/1 | 1/y 1 = 0; 1/1 1 = 1 | 1/1 = 1 |\n", 1, "weight '1/y'"),
    (parse_x2x, "p x2x 2\nf one\n", 2, "floor 'one'"),
    (parse_x2x, "p x2x 2\nc\n1/1 1 = 0\nz 2 = 1\n", 4, "weight 'z'"),
    (parse_maxcut, "p cut 2 1\ne 1 2 1/0\n", 2, "edge weight '1/0'"),
]


@pytest.mark.parametrize(
    "parser,text,line,message",
    MALFORMED_RATIONALS,
    ids=["step-weight", "offset", "clause-item", "residue", "premise", "floor", "entry",
         "edge-weight"],
)
def test_malformed_rational_tokens_raise_parse_error(parser, text, line, message):
    with pytest.raises(ParseError) as err:
        parser(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: bad {message}"


# ---------------------------------------------------------------------------
# .x2xproof


def test_proof_contra_line_format():
    _, steps = saturate([(xor([1], 0), F(1)), (xor([1], 1), F(1))])
    assert emit_proof(steps) == "s contra w 1/1 | 1/1 1 = 0; 1/1 1 = 1 | 1/1 = 1 |\n"
    assert parse_proof(emit_proof(steps)) == steps


def test_proof_chain_residues_have_double_weight():
    items = [(xor([1, 2], 1), F(1)), (xor([2, 3], 1), F(1)), (xor([1, 3], 1), F(1))]
    _, steps = saturate(items)
    text = emit_proof(steps)
    chain_line = text.splitlines()[0]
    assert chain_line.startswith("s chain11")
    residue_section = chain_line.split("|")[3]
    assert residue_section.count("2/1") == 2  # two ternary residues at weight 2w
    assert parse_proof(text) == steps


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
        parse_proof("s nonsense w 1/1 | 1/1 1 = 0; 1/1 1 = 1 | 1/1 = 1 |\n")
    with pytest.raises(ParseError):
        parse_proof("s contra w 0/1 | 1/1 1 = 0; 1/1 1 = 1 | 1/1 = 1 |\n")
    with pytest.raises(ParseError):
        parse_proof("s contra w 1/1 | 1/1 1 = 0 | 1/1 = 1 |\n".replace(" | 1/1 = 1 |", ""))
    assert parse_proof("c comment only\n") == []
