"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py

Each workload test runs a short traced run twice with one seed, so the
file takes a few minutes.
"""
import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402

EXACT_COUNTS = [
    "autograd.tensors_per_sample",
    "autograd.backward.calls",
    "model.forward_flops_per_sample",
    "train.adam_step.calls",
    "data.load_feature_file.calls",
    "data.load_feature_file.bytes",
    "metrics.spearman_rho.calls",
    "model.checkpoint_bytes",
]


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]]["why"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(EXACT_COUNTS) <= set(run.PER_LAYER)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_exact_counts_repeat_for_one_seed(workload):
    first, second = (_result(_bench(ROOT, "--workload", workload, "--seed", "5",
                                    "--seconds", "1", "--trace", "1"))
                     for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER)
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["autograd.tensors_per_sample"]["value"] > 0


def test_end_to_end_run_reports_every_metric_with_its_unit():
    result = _result(_bench(ROOT, "--workload", "ablation-train", "--seed", "2",
                            "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 300
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_a_result_when_the_program_is_missing():
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench(bare, "--workload", "ablation-train", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_removes_probes_and_rescales_to_the_reference():
    speed = hostspeed.HostSpeed(["interp", "blas"])
    ref = hostspeed.REFERENCE_S["interp"] + hostspeed.REFERENCE_S["blas"]
    assert speed.reference_s == pytest.approx(ref)
    # a probe every 0.1 s that takes twice its reference time
    speed.starts = [0.1 * i for i in range(100)]
    speed.took = [2 * ref] * 100
    speed.ends = [t + d for t, d in zip(speed.starts, speed.took)]
    # [2.05, 3.05] holds the ten whole probes that start at 2.1 .. 3.0
    assert speed.seconds(2.05, 3.05) == pytest.approx((1.0 - 10 * 2 * ref) / 2)
    # an interval between two probes takes its factor from their neighbours
    assert speed.seconds(5.01, 5.02) == pytest.approx(0.01 / 2)
