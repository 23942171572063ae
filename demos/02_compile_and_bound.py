"""From a weighted CNF to a certified cost lower bound.

Compiles a nine-clause weighted instance into its normalized parity form,
shows the exact cost shift the compilation introduces, saturates the result
with the parity resolution rules, and replays the proof through the
independent checker.  The derived empty-clause weight m, minus the shift,
lower-bounds the cost of the original instance; reaching shift + 1 proves a
decision instance unsatisfiable.  Each verdict is read from the checker's own
summary, which links back to the compiled problem by its value.
"""

from max2xor import (
    bound_to_original,
    brute_opt_cost,
    brute_opt_cost_items,
    check_proof,
    compile_maxsat,
    emit_proof,
    emit_x2x,
    parse_cnf,
    saturate,
)

WCNF = """p wcnf 3 9
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

UNSAT_CNF = """p cnf 3 6
1 2 0
-1 -2 0
2 3 0
-2 -3 0
1 3 0
-1 -3 0
"""


def main():
    instance = parse_cnf(WCNF)
    report = compile_maxsat(instance)
    print("compiled problem:")
    print(emit_x2x(report.problem))
    print(f"cost shift: {report.shift} (threshold for unsatisfiability: {report.threshold})")

    # The shift is exact: the oracle confirms it on this instance.
    source = brute_opt_cost_items(instance.clauses)
    compiled = brute_opt_cost(report.problem)
    print(f"source cost {source.cost}, compiled cost {compiled.cost} "
          f"= source + shift: {compiled.cost == source.cost + report.shift}")

    summary, steps = saturate(report.problem)
    print(f"\nderived empty-clause weight m = {summary.bound_m} in {summary.steps} steps")
    check = check_proof(report.problem, steps, summary)
    print(f"independent checker accepts the proof: {check.accepted}")
    print(f"verdict for the source instance: {bound_to_original(check.summary, report).message}")

    # A decision instance: x1 != x2, x2 != x3 and x1 != x3 cannot all hold,
    # since three variables cannot pairwise differ over two values.  The
    # compiled odd cycle contracts in two steps to m = shift + 1.
    report = compile_maxsat(parse_cnf(UNSAT_CNF))
    summary, steps = saturate(report.problem)
    check = check_proof(report.problem, steps, summary)
    print(f"\nodd cycle of disequalities: m = {check.summary.bound_m}, shift = {report.shift}, "
          f"checker accepts: {check.accepted}")
    print(f"verdict: {bound_to_original(check.summary, report).message}")
    print("proof log:")
    print(emit_proof(steps), end="")


if __name__ == "__main__":
    main()
