"""Command-line surface: subcommands, formats on disk, exit codes."""

import io
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from max2xor import cli
from max2xor.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECTED, EXIT_UNSAT, run
from max2xor.checker import check_proof
from max2xor.core import xor, normalize
from max2xor.gadgets import GadgetParams, TreeShape, compile_maxsat
from max2xor.rules import ProofStep
from max2xor.textio import emit_x2x, parse_cnf, parse_x2x

F = Fraction

EXAMPLE1_WCNF = """p wcnf 3 9
1 2 0
2 1 2 0
1 -1 -2 0
1 1 -2 0
2 2 -3 0
3 -2 3 0
1 1 3 0
2 -1 -3 0
3 -1 3 0
"""

EXAMPLE1_X2X = """p x2x 3
f 17/2
1/1 1 = 0
1/1 1 2 = 1
1/2 2 = 1
5/2 2 3 = 0
3/2 3 = 1
"""


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def test_compile_example_instance(tmp_path):
    source = tmp_path / "example1.wcnf"
    source.write_text(EXAMPLE1_WCNF)
    code, output = invoke("compile", str(source))
    assert code == EXIT_OK
    assert (tmp_path / "example1.x2x").read_text() == EXAMPLE1_X2X
    assert "shift 15/2" in output
    assert "threshold 17/2" in output
    assert "arity 2: alpha=1/1 beta=3/2 aux=0" in output


def test_bound_contradiction_cnf(tmp_path):
    source = tmp_path / "contradiction.cnf"
    source.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, output = invoke("bound", str(source))
    assert code == EXIT_UNSAT
    assert "UNSAT lb=1/1" in output
    assert (tmp_path / "contradiction.x2xproof").exists()


def test_bound_then_check_closed_loop(tmp_path):
    # check accepts every proof bound emits, across modes, on 200 instances
    rng = random.Random(20240821)
    for trial in range(200):
        nvars = rng.randint(3, 6)
        raw = []
        for _ in range(rng.randint(3, 9)):
            arity = rng.choice([1, 2, 2])
            vs = rng.sample(range(1, nvars + 1), arity)
            raw.append((xor(vs, rng.randint(0, 1)), F(rng.randint(1, 8), rng.choice([1, 2]))))
        problem = normalize(raw, var_count=nvars)
        x2x = tmp_path / f"p{trial}.x2x"
        x2x.write_text(emit_x2x(problem))
        mode = ("discard", "retranslate=2", "compact")[trial % 3]
        code, output = invoke("bound", str(x2x), "--mode", mode)
        assert code == EXIT_OK
        assert "UNKNOWN lb=" in output
        code, output = invoke("check", str(x2x), str(tmp_path / f"p{trial}.x2xproof"))
        assert code == EXIT_OK, output
        assert output.startswith("ACCEPTED")


def test_bound_verbose_prints_rounds_for_x2x_and_cnf(tmp_path):
    x2x = tmp_path / "tri.x2x"
    x2x.write_text("p x2x 3\n1/1 1 2 = 1\n1/1 2 3 = 1\n1/1 1 3 = 1\n")
    code, output = invoke("bound", str(x2x), "-v", "--mode", "retranslate=2")
    assert code == EXIT_OK
    assert output.splitlines() == [
        f"wrote {tmp_path / 'tri.x2xproof'}",
        "m 1/1",
        "round 1: 2 steps over 3 entries (stopped: an assignment attains the bound)",
        "UNKNOWN lb=1/1",
    ]
    # at the round limit the run ends there, whatever is left to translate
    code, output = invoke("bound", str(x2x), "-v", "--mode", "retranslate=1")
    assert (code, output.splitlines()[2]) == (EXIT_OK, "round 1: 2 steps over 3 entries")

    # no assignment attains m = 4 here: round two runs and is dropped
    dropped = tmp_path / "drop.x2x"
    dropped.write_text(
        "p x2x 3\nf 1/1\n4/1 1 2 = 1\n4/1 1 3 = 0\n2/1 2 = 0\n4/1 2 3 = 0\n1/1 3 = 1\n"
    )
    code, output = invoke("bound", str(dropped), "-v", "--mode", "retranslate=2")
    assert code == EXIT_OK
    assert output.splitlines() == [
        f"wrote {tmp_path / 'drop.x2xproof'}",
        "m 4/1",
        "round 1: 4 steps over 5 entries",
        "round 2: 12 steps over 14 entries (dropped: bound did not rise)",
        "UNKNOWN lb=4/1",
    ]

    cnf = tmp_path / "four.cnf"
    cnf.write_text("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
    code, output = invoke("bound", str(cnf), "-v")
    assert code == EXIT_UNSAT
    assert output.splitlines() == [
        f"wrote {tmp_path / 'four.x2xproof'}",
        "m 3/1",
        "shift 2/1",
        "round 1: 0 steps over 0 entries",
        "UNSAT lb=1/1",
    ]


TRIANGLE = normalize(
    [(xor([1, 2], 1), F(1)), (xor([2, 3], 1), F(1)), (xor([1, 3], 1), F(1))], var_count=3
)


def _tampered_triangle_check(tmp_path, old, new):
    """``check`` on the triangle's proof with ``old`` replaced once by ``new``."""
    x2x = tmp_path / "tri.x2x"
    x2x.write_text(emit_x2x(TRIANGLE))
    code, _ = invoke("bound", str(x2x))
    assert code == EXIT_OK
    proof_path = tmp_path / "tri.x2xproof"
    text = proof_path.read_text()
    assert text.splitlines()[0] == "s chain11 w 1/1 | 1 2 = 1; 2 3 = 1"
    proof_path.write_text(text.replace(old, new, 1))
    assert proof_path.read_text() != text
    return invoke("check", str(x2x), str(proof_path))


def test_check_rejects_corrupted_proof(tmp_path):
    # the first premise's parity, flipped
    code, output = _tampered_triangle_check(tmp_path, "| 1 2 = 1;", "| 1 2 = 0;")
    assert code == EXIT_REJECTED
    assert output.startswith("REJECTED at step 0: ")


def test_check_rejects_a_tampered_rule_for_the_checker_reason(tmp_path):
    code, output = _tampered_triangle_check(tmp_path, "s chain11 ", "s chain01 ")
    step = ProofStep("chain01", F(1), (xor([1, 2], 1), xor([2, 3], 1)))
    verdict = check_proof(TRIANGLE, [step])
    assert verdict.reason == "chain01 premises must have parities 0/1"
    assert (code, output) == (EXIT_REJECTED, f"REJECTED at step 0: {verdict.reason}\n")


def test_export_cut(tmp_path):
    x2x = tmp_path / "unit.x2x"
    x2x.write_text("p x2x 1\n1/1 1 = 0\n")
    code, output = invoke("export-cut", str(x2x))
    assert code == EXIT_OK
    text = (tmp_path / "unit.cut").read_text()
    assert text == "p cut 3 2\nc anchor0 2\ne 1 3 1/1\ne 2 3 1/1\n"

    code, _ = invoke("export-cut", str(x2x), "--variant", "double", "-o", str(tmp_path / "d.cut"))
    assert code == EXIT_OK
    assert "c anchor1 3" in (tmp_path / "d.cut").read_text()


def test_oracle_on_x2x_and_cnf(tmp_path):
    x2x = tmp_path / "p.x2x"
    x2x.write_text("p x2x 2\n1/2 1 = 1\n1/2 2 = 1\n1/2 1 2 = 1\n")
    code, output = invoke("oracle", str(x2x))
    assert code == EXIT_OK
    assert "opt 1/1" in output
    assert "cost 1/2" in output
    assert "witness 1=0 2=1" in output

    cnf = tmp_path / "p.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    code, output = invoke("oracle", str(cnf))
    assert code == EXIT_OK
    assert "cost 0/1" in output


def test_oracle_guard_env(tmp_path, monkeypatch):
    problem = normalize([(xor([v], 1), F(1)) for v in range(1, 6)], var_count=5)
    x2x = tmp_path / "g.x2x"
    x2x.write_text(emit_x2x(problem))
    monkeypatch.setenv("X2X_MAX_ORACLE_VARS", "4")
    code, _ = invoke("oracle", str(x2x))
    assert code == EXIT_ERROR
    monkeypatch.setenv("X2X_MAX_ORACLE_VARS", "99")  # may not raise the guard
    code, _ = invoke("oracle", str(x2x))
    assert code == EXIT_OK


def test_oracle_and_rejected_gadget_verify_output_is_pinned(tmp_path, monkeypatch):
    # the exact lines the enumeration oracle's commands print
    x2x = tmp_path / "b.x2x"
    x2x.write_text(
        "p x2x 4\nf 1/3\n1/2 1 2 = 1\n1/2 2 3 = 1\n1/2 1 3 = 1\n3/4 4 = 0\n1/3 2 4 = 0\n"
    )
    cases = [
        (EXAMPLE1_WCNF, "a.wcnf", "opt 15/1\ncost 1/1\nwitness 1=0 2=1 3=1\n"),
        (EXAMPLE1_X2X, "a.x2x", "opt 13/2\ncost 17/2\nwitness 1=0 2=1 3=1\n"),
        (None, "b.x2x", "opt 25/12\ncost 5/6\nwitness 1=0 2=0 3=1 4=0\n"),
    ]
    for text, name, expected in cases:
        if text is not None:
            (tmp_path / name).write_text(text)
        assert invoke("oracle", str(tmp_path / name)) == (EXIT_OK, expected)

    shipped = cli.clause_params
    monkeypatch.setattr(
        cli, "clause_params", lambda k: GadgetParams(shipped(k).alpha - F(1, 2), shipped(k).beta)
    )
    assert invoke("gadget-verify", "--family", "t0", "--k", "5") == (
        EXIT_ERROR,
        "rejected: source assignment {1: 0, 2: 0, 3: 0, 4: 0, 5: 0} reaches 3, expected 5/2\n"
        "counterexample 1=0 2=0 3=0 4=0 5=0 achieves 3/1\n",
    )
    assert invoke("gadget-verify", "--family", "t", "--k", "4", "--shape", "balanced") == (
        EXIT_ERROR,
        "rejected: source assignment {1: 0, 2: 0, 3: 0, 4: 0} reaches 2, expected 3/2\n"
        "counterexample 1=0 2=0 3=0 4=0 achieves 2/1\n",
    )


def test_gadget_verify_families():
    code, output = invoke("gadget-verify", "--family", "t0", "--k", "5")
    assert code == EXIT_OK
    assert output.strip() == "certified alpha=4/1 beta=6/1"

    code, output = invoke("gadget-verify", "--family", "binary", "--k", "2")
    assert code == EXIT_OK and "alpha=1/1 beta=3/2" in output

    code, output = invoke("gadget-verify", "--family", "trevisan", "--k", "3")
    assert code == EXIT_OK and "alpha=7/2 beta=4/1" in output

    code, output = invoke("gadget-verify", "--family", "chain", "--k", "5")
    assert code == EXIT_OK and "alpha=3/1 beta=3/1" in output

    code, output = invoke("gadget-verify", "--family", "t", "--k", "6", "--shape", "random",
                          "--seed", "7")
    assert code == EXIT_OK and "alpha=5/1" in output


def test_gadget_verify_guard_rejects_before_building(monkeypatch, capsys):
    def never(*_):
        raise AssertionError("built a translation the guard rejects")

    for name in ("clause", "sequential_gadget", "tree_gadget", "chain_to_3sat", "_resolve_shape"):
        monkeypatch.setattr(cli, name, never)
    # k source variables plus k - 2 auxiliaries for t0 and t, k - 3 for chain
    cases = [(("t0",), 399998), (("t", "--shape", "balanced"), 399998), (("chain",), 399997)]
    for (family, *rest), count in cases:
        argv = ("gadget-verify", "--family", family, "--k", "200000", *rest)
        assert invoke(*argv) == (EXIT_ERROR, "")
        assert capsys.readouterr().err == (
            f"error: {count} variables exceed the enumeration guard of 26\n"
        )
    monkeypatch.setenv("X2X_MAX_ORACLE_VARS", "5")  # a lowered guard counts the same way
    assert invoke("gadget-verify", "--family", "t0", "--k", "4") == (EXIT_ERROR, "")
    assert capsys.readouterr().err == "error: 6 variables exceed the enumeration guard of 5\n"


def test_gadget_verify_shape_file(tmp_path):
    shape = tmp_path / "shape.txt"
    shape.write_text("((1 2) (3 (4 5)))\n")
    code, output = invoke("gadget-verify", "--family", "t", "--k", "5", "--shape", str(shape))
    assert code == EXIT_OK
    assert "alpha=4/1 beta=6/1" in output


def test_compile_tree_strategy_with_shapes_file(tmp_path):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 5 1\n1 2 3 4 5 0\n")
    shapes = tmp_path / "shapes.txt"
    shapes.write_text("((1 2) (3 (4 5)))\n")
    code, output = invoke(
        "compile", str(cnf), "--strategy", "tree", "--shapes", str(shapes)
    )
    assert code == EXIT_OK
    problem = parse_x2x((tmp_path / "wide.x2x").read_text())
    assert len(problem.entries) == 12  # 3(k-1)


def test_shapes_without_the_tree_strategy_are_an_error(tmp_path, capsys):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 4 1\n1 -2 3 4 0\n")
    shapes = tmp_path / "shapes.txt"
    shapes.write_text("((1 2) 3)\n")  # three leaves for a width-4 clause
    x2x = tmp_path / "small.x2x"
    x2x.write_text("p x2x 2\n1/1 1 2 = 1\n")
    sequential = "error: shapes need the tree strategy, not 'sequential'\n"
    for command, source, shape_file, message in (
        ("compile", cnf, shapes, sequential),
        ("bound", cnf, shapes, sequential),
        # a parity problem has no clauses to shape, so the file is never read
        ("bound", x2x, tmp_path / "missing.txt", "error: shapes need cnf or wcnf input, not x2x\n"),
    ):
        code, output = invoke(command, str(source), "--shapes", str(shape_file))
        assert (code, output) == (EXIT_ERROR, ""), (command, source)
        assert capsys.readouterr().err == message, (command, source)
    # nor is a strategy, even the default one
    for strategy in ("tree", "sequential"):
        code, output = invoke("bound", str(x2x), "--strategy", strategy)
        assert (code, output) == (EXIT_ERROR, ""), strategy
        assert capsys.readouterr().err == "error: strategy needs cnf or wcnf input, not x2x\n"
    assert not (tmp_path / "wide.x2x").exists() and not (tmp_path / "wide.x2xproof").exists()
    assert not (tmp_path / "small.x2xproof").exists()


def test_gadget_shapes_and_seeds_outside_the_tree_family_are_an_error(capsys):
    shape_error, seed_error = "error: --shape needs --family t\n", "error: --seed needs --shape random\n"
    for argv, message in (
        (("--family", "t0", "--k", "4", "--shape", "/nonexistent"), shape_error),
        (("--family", "binary", "--k", "2", "--shape", "random", "--seed", "4"), shape_error),
        (("--family", "t", "--k", "4", "--seed", "4"), seed_error),
        (("--family", "t", "--k", "4", "--shape", "left", "--seed", "4"), seed_error),
    ):
        assert invoke("gadget-verify", *argv) == (EXIT_ERROR, ""), argv
        assert capsys.readouterr().err == message, argv
    # a random shape without a seed takes seed 0
    random_shape = ("gadget-verify", "--family", "t", "--k", "9", "--shape", "random")
    assert invoke(*random_shape) == invoke(*random_shape, "--seed", "0")
    assert invoke(*random_shape)[0] == EXIT_OK


def test_a_billion_declared_variables_fit_in_a_gibibyte(tmp_path):
    # the declared count costs no memory per variable: bound and check run
    # under a 1 GiB address-space cap, in a child process
    problem, proof = tmp_path / "wide.x2x", tmp_path / "wide.x2xproof"
    problem.write_text("p x2x 1000000000\n1/1 1 2 = 1\n1/1 2 1000000000 = 1\n1/1 1 1000000000 = 1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    outputs = []
    for argv in (("bound", problem, "-o", proof), ("check", problem, proof)):
        done = subprocess.run(
            [sys.executable, "-m", "max2xor.cli", *map(str, argv)],
            env=env, preexec_fn=capped, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == EXIT_OK, done.stderr
        outputs.append(done.stdout)
    assert "m 1/1\n" in outputs[0]
    assert outputs[1] == "ACCEPTED steps=2 m=1/1\n"


NUMPY_FREE_PIPELINE = """
import io, sys
from pathlib import Path
from max2xor import (GadgetParams, binary_gadget, bound_to_original, brute_opt_cost,
                     check_proof, checker, clause, cli, compile_maxsat, to_maxcut, verify_gadget, xor)
from max2xor.prover import MODES, saturate
from max2xor.rules import build_step
from max2xor.textio import emit_proof, emit_x2x, parse_cnf, parse_proof, parse_x2x

tmp = Path(sys.argv[1])
report = compile_maxsat(parse_cnf((tmp / "small.cnf").read_text()))
problem = parse_x2x(emit_x2x(report.problem))
for mode in MODES:
    summary, steps = saturate(problem, mode=mode)
    steps = parse_proof(emit_proof(steps))
    assert check_proof(problem, steps, summary).accepted, mode
    assert bound_to_original(summary, report).message == "UNKNOWN lb=0/1"
# one altered derivation: its truth table runs and fails
step = steps[0]
derived = build_step(step.rule, step.premises, step.weight, step.fresh_var)
constraint, mult = derived.conclusions[0]
flipped = (xor(constraint.vars, constraint.parity ^ 1), mult)
altered = derived._replace(conclusions=(flipped,) + derived.conclusions[1:])
assert checker._truth_table_reason(step, altered).startswith("unsatisfied weight changes by ")
# one altered step: the checker rejects it
doubled = step._replace(weight=step.weight * 2)
assert not check_proof(problem, [doubled] + steps[1:], summary).accepted
assert to_maxcut(problem).node_count == 10
x2x, proof = str(tmp / "small.x2x"), str(tmp / "small.x2xproof")
for argv in (["compile", str(tmp / "small.cnf"), "-o", x2x], ["bound", x2x, "-o", proof],
             ["check", x2x, proof], ["export-cut", x2x]):
    assert cli.run(argv, out=io.StringIO()) == cli.EXIT_OK, argv
assert "numpy" not in sys.modules
# a proof links back to its problem by value, not by a hash of the problem's text
assert "hashlib" not in sys.modules
# the oracles load numpy on their first call
assert brute_opt_cost(problem).cost == report.shift == 7 / 2
lits = clause(1, -2)
assert verify_gadget(lits, binary_gadget(1, lits), GadgetParams(1, 3 / 2, 0)).certified
assert "numpy" in sys.modules
"""


def test_the_proof_pipeline_never_loads_numpy(tmp_path):
    # parse, compile, bound in every mode, round-trip, check (an altered step
    # included), link back, export and the command line, in a fresh process
    (tmp_path / "small.cnf").write_text(
        "p cnf 4 6\n1 2 0\n-1 3 0\n-2 -3 0\n2 4 0\n-4 1 0\n-1 -2 -4 0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_PIPELINE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_shape_files_skip_comments_and_blank_lines(tmp_path):
    # shape i is the i-th line that is neither blank nor a comment
    shapes = tmp_path / "comb.txt"
    shapes.write_text("c left comb\n((1 2) 3)\n")
    assert cli._load_shapes(str(shapes)) == {0: TreeShape.left_comb(3)}
    code, output = invoke("gadget-verify", "--family", "t", "--k", "3", "--shape", str(shapes))
    assert (code, output) == (EXIT_OK, "certified alpha=2/1 beta=3/1\n")

    cnf = tmp_path / "two.cnf"
    cnf.write_text("p cnf 5 2\n1 2 3 4 5 0\n-1 -2 -3 -4 -5 0\n")
    shapes.write_text("c first clause\n\n((1 2) (3 (4 5)))\nc second clause\n(1 (2 (3 (4 5))))\n")
    code, _ = invoke("compile", str(cnf), "--strategy", "tree", "--shapes", str(shapes))
    assert code == EXIT_OK
    expected = compile_maxsat(
        parse_cnf(cnf.read_text()),
        strategy="tree",
        shapes={0: TreeShape.parse("((1 2) (3 (4 5)))"), 1: TreeShape.parse("(1 (2 (3 (4 5))))")},
    )
    assert (tmp_path / "two.x2x").read_text() == emit_x2x(expected.problem)


def test_bad_shape_line_reports_its_line_number(tmp_path, capsys):
    shapes = tmp_path / "bad.txt"
    cnf = tmp_path / "one.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    for text, message in (
        ("c comment\n\n((1 2) 3\n", "error: line 3: bad shape: expected ')' in shape\n"),
        ("((1 2) 3)\n(1 " + "2" * 5000 + ")\n", "error: line 2: bad shape: leaf index "),
    ):
        shapes.write_text(text)
        for argv in (
            ("compile", str(cnf), "--strategy", "tree", "--shapes", str(shapes)),
            ("gadget-verify", "--family", "t", "--k", "3", "--shape", str(shapes)),
        ):
            assert invoke(*argv) == (EXIT_ERROR, ""), argv
            assert capsys.readouterr().err.startswith(message), argv

    shapes.write_text("c no shape here\n\n")
    assert invoke("gadget-verify", "--family", "t", "--k", "3", "--shape", str(shapes)) == (
        EXIT_ERROR,
        "",
    )
    assert capsys.readouterr().err == f"error: shape file {shapes} holds no shape\n"


def test_check_reports_malformed_proof_without_traceback(tmp_path, capsys):
    problem = tmp_path / "p.x2x"
    problem.write_text(EXAMPLE1_X2X)
    proof = tmp_path / "p.x2xproof"
    # a bad fresh variable, then a line of the full format of earlier releases
    for line in (
        "s contra w 1 y z | 1 = 0; 1 = 1",
        "s contra w 1/1 | 1/1 1 = 0; 1/1 1 = 1 | 1/1 = 1 |",
    ):
        proof.write_text(line + "\n")
        code, _ = invoke("check", str(problem), str(proof))
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith("error: line 1:") and "Traceback" not in err

    # A byte that is not UTF-8, in every file a command reads.
    binary = tmp_path / "binary"
    binary.write_bytes(b"p x2x 1\n\xff\n")
    cnf = tmp_path / "ok.cnf"
    cnf.write_text("p cnf 5 1\n1 2 3 4 5 0\n")
    for argv in (
        ("compile", str(binary)),
        ("compile", str(cnf), "--strategy", "tree", "--shapes", str(binary)),
        ("bound", str(binary)),
        ("oracle", str(binary)),
        ("check", str(binary), str(proof)),
        ("check", str(problem), str(binary)),
        ("export-cut", str(binary)),
        ("gadget-verify", "--family", "t", "--k", "5", "--shape", str(binary)),
    ):
        code, _ = invoke(*argv)
        err = capsys.readouterr().err
        assert code == EXIT_ERROR, argv
        assert err.startswith(f"error: {binary} is not UTF-8 text:"), (argv, err)


def test_integer_tokens_over_the_digit_limit_are_parse_errors(tmp_path, capsys):
    # Python converts at most 4,300 digits between int and str by default
    huge = "9" * 5000
    problem = tmp_path / "p.x2x"
    problem.write_text(EXAMPLE1_X2X)
    files = {
        "count.cnf": f"p cnf {huge} 1\n1 0\n",
        "variable.x2x": f"p x2x 2\n1/1 1 {huge} = 0\n",
        "denominator.x2x": f"p x2x 2\n1/{huge} 1 = 0\n",
        "premise.x2xproof": f"s contra w 1/1 | {huge} = 0; {huge} = 1\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for argv in (
        ("compile", "count.cnf"),
        ("bound", "variable.x2x"),
        ("oracle", "variable.x2x"),
        ("bound", "denominator.x2x"),
        ("check", str(problem), "premise.x2xproof"),
    ):
        code, out = invoke(*(str(tmp_path / a) if a in files else a for a in argv))
        err = capsys.readouterr().err
        assert (code, out) == (EXIT_ERROR, ""), argv
        assert err.startswith("error: line ") and "Traceback" not in err, argv


def test_rationals_over_the_digit_limit_are_errors(tmp_path, capsys):
    # every token is under the limit, but the floor they cancel into has a
    # 7,999-digit denominator, which no command can print
    tens, threes = "1" + "0" * 3999, "3" * 3999 + "7"
    problem = tmp_path / "digits.x2x"
    problem.write_text(
        f"p x2x 2\n1/{tens} 1 = 0\n1/{tens} 1 = 1\n1/{threes} 2 = 0\n1/{threes} 2 = 1\n"
    )
    (tmp_path / "empty.x2xproof").write_text("")
    for argv in (
        ("bound", str(problem), "-o", str(tmp_path / "digits.x2xproof")),
        ("check", str(problem), str(tmp_path / "empty.x2xproof")),
        ("oracle", str(problem)),
    ):
        code, _ = invoke(*argv)
        err = capsys.readouterr().err
        assert code == EXIT_ERROR, argv
        assert err == "error: cannot write a rational whose denominator has 7999 digits\n", argv


def test_a_number_over_the_digit_limit_leaves_no_file_and_no_output(tmp_path, capsys):
    # the floor's 7,999-digit denominator fails to format only after the
    # proof and the cut graph are written: a command that exits 1 writes no
    # file and prints nothing but its error line
    tens, threes = "1" + "0" * 3999, "3" * 3999 + "7"
    problem = tmp_path / "digits.x2x"
    problem.write_text(
        f"p x2x 2\n1/{tens} 1 = 0\n1/{tens} 1 = 1\n1/{threes} 2 = 0\n1/{threes} 2 = 1\n"
    )
    for argv, written in (
        (("bound", str(problem), "-o", str(tmp_path / "digits.x2xproof")), "digits.x2xproof"),
        (("export-cut", str(problem), "-o", str(tmp_path / "digits.cut")), "digits.cut"),
        (("oracle", str(problem)), None),
    ):
        code, output = invoke(*argv)
        err = capsys.readouterr().err
        assert code == EXIT_ERROR, argv
        assert output == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert written is None or not (tmp_path / written).exists(), argv


def test_bound_rejects_bad_round_counts(tmp_path, capsys):
    source = tmp_path / "contradiction.cnf"
    source.write_text("p cnf 1 2\n1 0\n-1 0\n")
    for mode, message in (
        ("retranslate=0", "error: retranslate rounds must be at least 1"),
        ("retranslate=-3", "error: retranslate rounds must be at least 1"),
        ("retranslate=x", "error: bad round count in mode 'retranslate=x'"),
    ):
        code, _ = invoke("bound", str(source), "--mode", mode)
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.splitlines() == [message]
    assert not (tmp_path / "contradiction.x2xproof").exists()


def test_usage_and_parse_errors(tmp_path, capsys):
    code, _ = invoke("no-such-command")
    assert code == EXIT_ERROR
    code, _ = invoke("compile", str(tmp_path / "any.cnf"), "--strategy", "full")
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("usage:") and "--strategy: invalid choice" in err
    assert "Traceback" not in err
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n1 -1 0\n")
    code, _ = invoke("compile", str(bad))
    assert code == EXIT_ERROR
    code, _ = invoke("oracle", str(tmp_path / "missing.x2x"))
    assert code == EXIT_ERROR
