"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_library()

from workloads import WORKLOADS  # noqa: E402

# The counts later changes may cite: they must repeat exactly on one seed.
CITED = (
    "proofs.steps",
    "proofs.unsat_share",
    "textio.proof_bytes",
    "gadgets.compiled_entries",
    "oracle.assignments",
)


def _counts(workload: str, seed: int):
    result = run.run_workload(workload, seed, seconds=0, trace=True, min_rounds=1)
    assert result.failed == 0 and result.cli_failed == 0
    layer = run.per_layer(result)
    _, bound_m = run.end_to_end(result)
    return {name: layer[name][0] for name in CITED}, bound_m


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_on_one_seed(workload):
    first = _counts(workload, seed=7)
    assert _counts(workload, seed=7) == first
    assert first[1] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    result = run.run_workload("certify", 1, seconds=0, trace=True, min_rounds=1)
    e2e, _ = run.end_to_end(result)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer(result))
    units = {name: unit for name, (_, unit) in {**e2e, **run.per_layer(result)}.items()}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == units[metric["name"]]
