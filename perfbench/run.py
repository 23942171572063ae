#!/usr/bin/env python3
"""max2xor benchmark: checked verdicts per second on seeded workloads.

Run from the repository root; the library is imported from ``src/``::

    python3 perfbench/run.py --workload sat3-discard --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate run that records a span around every library call and
writes them to ``perfbench/out/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

import os

# One process, one thread: numpy's thread pools are pinned before it loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import io
import json
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
MIN_ROUNDS = 3


def import_library() -> float:
    """Import the library from ``src/`` and the workloads; returns the seconds taken."""
    src = ROOT / "src"
    if not (src / "max2xor" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no max2xor package under {src}")
    sys.path.insert(0, str(src))
    started = perf_counter()
    import max2xor
    import workloads  # noqa: F401  (imports numpy through the library)

    elapsed = perf_counter() - started
    if Path(max2xor.__file__).resolve().parent != src / "max2xor":
        raise SystemExit(f"perfbench: max2xor was imported from {max2xor.__file__}")
    return elapsed


@dataclass
class Run:
    setup_s: float
    wall_s: float
    times: List[List[float]]  # per job, its time in each round it ran
    attempted: int  # verdicts run, over every round
    failed: int
    rounds: int  # complete rounds
    outcomes: List[Optional[object]]  # first round, one per job; None when it failed
    tracer: object
    cli_attempted: int = 0
    cli_failed: int = 0


def _timed_rounds(jobs, seconds: float, min_rounds: int, tracer):
    """Run the pool round after round until ``seconds`` have passed and at
    least ``min_rounds`` rounds are complete; returns (wall, times, attempted,
    failed, rounds, outcomes).
    """
    from workloads import run_job

    times: List[List[float]] = [[] for _ in jobs]
    outcomes: List[Optional[object]] = []
    attempted = failed = rounds = 0
    started = perf_counter()
    while True:
        for index, job in enumerate(jobs):
            if rounds >= min_rounds and perf_counter() - started >= seconds:
                return perf_counter() - started, times, attempted, failed, rounds, outcomes
            tracer.instance = rounds * len(jobs) + index
            begun = perf_counter()
            with tracer.span("verdict"):
                try:
                    outcome = run_job(job, tracer)
                except Exception:  # a failed verdict is counted, the run goes on
                    print(f"verdict {index} of round {rounds} failed:", file=sys.stderr)
                    traceback.print_exc()
                    outcome = None
                    failed += 1
            times[index].append(perf_counter() - begun)
            attempted += 1
            if rounds == 0:
                outcomes.append(outcome)
        rounds += 1


def _cli_parity(jobs, outcomes, count: int, tracer) -> int:
    """Replay leading jobs through ``max2xor.cli.run``; returns the mismatches."""
    from max2xor import cli
    from max2xor.core import format_rational
    from workloads import RETRANSLATE_ROUNDS

    mismatches = 0
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for index in range(count):
            job, library = jobs[index], outcomes[index]
            tracer.instance = f"cli-{index}"
            wcnf, x2x, proof = (Path(tmp) / f"{index}.{ext}" for ext in ("wcnf", "x2x", "proof"))
            wcnf.write_text(job.text)
            with tracer.span("cli.compile"):
                compiled = cli.run(["compile", str(wcnf), "-o", str(x2x)], out=io.StringIO())
            agree = library is not None and compiled == cli.EXIT_OK
            for k, mode in enumerate(job.modes):
                if mode == "retranslate":
                    mode = f"retranslate={RETRANSLATE_ROUNDS}"
                bound_out, check_out = io.StringIO(), io.StringIO()
                with tracer.span("cli.bound"):
                    bound_code = cli.run(
                        ["bound", str(wcnf), "--mode", mode, "-o", str(proof)], out=bound_out
                    )
                with tracer.span("cli.check"):
                    check_code = cli.run(["check", str(x2x), str(proof)], out=check_out)
                if not agree:
                    continue
                expected = library.bounds[k]
                unsat = expected.message.startswith("UNSAT")
                expected_check = f"ACCEPTED steps={expected.steps} m={format_rational(expected.bound_m)}"
                agree = (
                    bound_code == (cli.EXIT_UNSAT if unsat else cli.EXIT_OK)
                    and bound_out.getvalue().splitlines()[-1:] == [expected.message]
                    and check_code == cli.EXIT_OK
                    and check_out.getvalue().strip() == expected_check
                )
            if not agree:
                print(f"command line disagrees with the library on job {index}", file=sys.stderr)
                mismatches += 1
    return mismatches


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float = 0.0,
    min_rounds: int = MIN_ROUNDS,
) -> Run:
    """Set up, run the timed rounds and, when traced, the command-line parity check.

    ``import_s`` is added to the set-up time.
    """
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        jobs = workload.jobs(name, seed)
        setups.append(perf_counter() - started)
    setup_s = import_s + statistics.median(setups)

    tracer = Tracer() if trace else NullTracer()
    run = Run(setup_s, *_timed_rounds(jobs, seconds, min_rounds, tracer), tracer)
    if trace and workload.cli_jobs:
        run.cli_attempted = workload.cli_jobs
        run.cli_failed = _cli_parity(jobs, run.outcomes, workload.cli_jobs, tracer)
    return run


# ---------------------------------------------------------------------------
# Metrics


def first_round_counts(run: Run):
    """Counts and the exact bound total over the first round, one per job."""
    total: Dict[str, int] = {}
    bound_m = Fraction(0)
    for outcome in run.outcomes:
        if outcome is None:
            continue
        for key, value in outcome.counts.items():
            total[key] = total.get(key, 0) + value
        bound_m += outcome.bound_m
    return total, bound_m


def job_times(run: Run) -> List[float]:
    """Each job's median time over the rounds.

    A job is timed in every round, seconds apart, so its median is not moved
    by the bursts of other load on the host that slow single verdicts.
    """
    return [statistics.median(times) for times in run.times]


def tail_s(times: List[float]) -> float:
    """Mean time of the slowest quarter of the jobs."""
    slowest = sorted(times)[-max(1, len(times) // 4) :]
    return statistics.fmean(slowest)


def end_to_end(run: Run):
    """The end-to-end metrics and the exact bound total."""
    _, bound_m = first_round_counts(run)
    times = job_times(run)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (run.setup_s, "s"),
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_tail_s": (tail_s(times), "s"),
        "verified_share": ((run.attempted - run.failed) / run.attempted, "ratio"),
        "bound_m_total": (float(bound_m), "weight"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }, bound_m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: Run) -> Dict[str, tuple]:
    """Counts over the first round; self times and rates per round, averaged
    over the complete rounds of a traced run."""
    counts, _ = first_round_counts(run)
    rounds = max(run.rounds, 1)
    complete = range(rounds * len(run.times))
    self_s = {k: v / rounds for k, v in run.tracer.self_times(complete).items()}
    cli_s = run.tracer.self_times(f"cli-{i}" for i in range(run.cli_attempted))
    verdicts_s = self_s["verdict"] + sum(v for k, v in self_s.items() if k != "verdict")

    def c(key: str) -> int:
        return counts.get(key, 0)

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def layer(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    saturate_s = layer("proofs.saturate")
    metrics = {
        "proofs.saturate_s": (saturate_s, "s"),
        "proofs.saturate.discard_s": (s("proofs.saturate.discard"), "s"),
        "proofs.saturate.retranslate_s": (s("proofs.saturate.retranslate"), "s"),
        "proofs.saturate.compact_s": (s("proofs.saturate.compact"), "s"),
        "proofs.steps": (c("steps"), "count"),
        "proofs.cycles": (c("cycles"), "count"),
        "proofs.xlate_steps": (c("xlate_steps"), "count"),
        "proofs.compact_steps": (c("compact_steps"), "count"),
        "proofs.rounds": (c("rounds"), "count"),
        "proofs.budget_use": (_ratio(c("budget_used"), c("budget")), "ratio"),
        "proofs.steps_per_s": (_ratio(c("steps"), saturate_s), "1/s"),
        "proofs.check_s": (s("proofs.check_proof"), "s"),
        "proofs.check_steps_per_s": (_ratio(c("steps"), s("proofs.check_proof")), "1/s"),
        "proofs.unsat_share": (_ratio(c("unsat"), c("bounds")), "ratio"),
        "gadgets.compile_s": (s("gadgets.compile_maxsat"), "s"),
        "gadgets.compiled_entries": (c("compiled_entries"), "count"),
        "gadgets.aux_vars": (c("aux_vars"), "count"),
        "gadgets.to_maxcut_s": (s("gadgets.to_maxcut"), "s"),
        "gadgets.cut_edges": (c("cut_edges"), "count"),
        "textio.parse_cnf_s": (s("textio.parse_cnf"), "s"),
        "textio.emit_x2x_s": (s("textio.emit_x2x"), "s"),
        "textio.parse_x2x_s": (s("textio.parse_x2x"), "s"),
        "textio.emit_proof_s": (s("textio.emit_proof"), "s"),
        "textio.parse_proof_s": (s("textio.parse_proof"), "s"),
        "textio.emit_maxcut_s": (s("textio.emit_maxcut"), "s"),
        "textio.proof_bytes": (c("proof_bytes"), "bytes"),
        "oracle.brute_s": (s("oracle.brute_opt_cost"), "s"),
        "oracle.assignments": (c("assignments"), "count"),
        "oracle.assignments_per_s": (_ratio(c("assignments"), s("oracle.brute_opt_cost")), "1/s"),
        "oracle.verify_gadget_s": (s("oracle.verify_gadget"), "s"),
        "oracle.verify_cells": (c("verify_cells"), "count"),
        "oracle.cells_per_s": (_ratio(c("verify_cells"), s("oracle.verify_gadget")), "1/s"),
        "cli.bound_s": (cli_s.get("cli.bound", 0.0), "s"),
        "cli.check_s": (cli_s.get("cli.check", 0.0), "s"),
        "harness.self_s": (s("verdict"), "s"),
        "trace.verdicts_per_s": (_ratio(len(run.times), sum(job_times(run))), "1/s"),
    }
    for name in ("proofs", "gadgets", "textio", "oracle"):
        metrics[f"{name}.self_share"] = (_ratio(layer(name), verdicts_s), "ratio")
    metrics["harness.self_share"] = (_ratio(s("verdict"), verdicts_s), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)

    e2e, bound_m = end_to_end(run)
    attempted = run.attempted + run.cli_attempted
    failed = run.failed + run.cli_failed
    print(
        f"{args.workload} seed {args.seed}: {run.attempted} verdicts in {run.wall_s:.2f} s, "
        f"{run.failed} failed; {len(run.times)} jobs, {run.rounds} complete rounds"
    )
    print(f"bound_m_total over the first round = {bound_m}")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        run.tracer.write(path)
        print(f"{len(run.tracer.spans)} spans written to {path.relative_to(ROOT)}")
        if run.cli_attempted:
            print(f"command-line parity: {run.cli_attempted - run.cli_failed}/{run.cli_attempted} agree")
        metrics = per_layer(run)
    else:
        metrics = e2e
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
