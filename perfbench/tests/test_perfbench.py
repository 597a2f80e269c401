"""Self-tests of the benchmark, on its seconds-long smoke workloads
(degree-6 verify; degree-4 sweep, degree-5 enumeration and q=2 covers).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

SMOKE_NAMES = sorted(workloads.SMOKE)
SMOKE_SWEEP = workloads.SMOKE["sweep-enum-cover"].parts[0]


def _args(workload, trace, seed=0):
    return run.parse_args(["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                           "--trace", str(trace), "--smoke"])


def test_declared_metrics_match_benchmark_json():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_metrics()
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS) == SMOKE_NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", SMOKE_NAMES)
def test_smoke_run_is_correct_and_complete(name, trace):
    meta, result = run.run(_args(name, trace, seed=7))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = run.per_layer_metrics() if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert meta["seed"] == 7 and meta["nproc"] >= 1


@pytest.mark.parametrize("workload", [workloads.SMOKE["verify9"], SMOKE_SWEEP], ids=["verify", "sweep"])
def test_traced_self_times_sum_to_traced_wall(workload):
    measured = run.measure(workload, workload.setup(0), 0.5, trace=True, min_passes=3)
    assert measured.failed == 0
    for self_s, _total, _calls, _counts, wall in measured.snapshots:
        assert abs(sum(self_s.values()) - wall) <= 0.05 * wall, (sum(self_s.values()), wall)


def test_exact_counts_repeat_across_traced_passes():
    workload = SMOKE_SWEEP
    measured = run.measure(workload, workload.setup(3), 0.5, trace=True, min_passes=3)
    metrics, problems = run.layer_metrics(measured, {}, per_unit=True)
    assert problems == []
    assert metrics["subdirect.descriptors"]["value"] == workload.products
    assert metrics["subdirect.materialize_group_calls"]["value"] == workload.products


def test_wrong_expected_digest_is_a_failure(monkeypatch):
    wrong = dataclasses.replace(workloads.SMOKE["verify9"], digest="0" * 64)
    monkeypatch.setitem(workloads.SMOKE, "verify9", wrong)
    _meta, result = run.run(_args("verify9", 0))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_wrong_count_is_a_failure():
    wrong = dataclasses.replace(SMOKE_SWEEP, products=61)
    measured = run.measure(wrong, wrong.setup(0), 0.5, trace=False, min_passes=1)
    passes = len(measured.walls["plain"])
    # every product still passes its own gate; only the pass total fails
    assert measured.failed == passes
    assert measured.attempted == passes * (62 + 1)


def test_tracer_restores_every_binding():
    import derange.group
    import derange.pipeline
    import derange.structure
    import derange.subdirect

    before = (derange.structure.normal_subgroups, derange.subdirect.normal_subgroups,
              derange.pipeline.normal_subgroups, derange.group.PermutationGroup.__dict__["bsgs"])
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert derange.subdirect.normal_subgroups is not before[1]
        G = derange.group.PermutationGroup.symmetric(4)
        derange.subdirect.normal_subgroups(G)
    after = (derange.structure.normal_subgroups, derange.subdirect.normal_subgroups,
             derange.pipeline.normal_subgroups, derange.group.PermutationGroup.__dict__["bsgs"])
    assert after == before
    assert tracer.calls["structure.normal_subgroups"] == 1
    assert tracer.counts["structure.normal_subgroups_found"] == 4  # 1, V4, A4, S4
    assert tracer.calls["group.bsgs"] >= 1


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "verify9", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert time.monotonic() - t0 < 120
