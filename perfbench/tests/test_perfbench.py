"""Tests of the benchmark itself: determinism, pinned checks, wrappers, names.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, run as bench  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
PINNED = bench.load_pinned()


def _one_cell(name: str = "azure-low") -> "object":
    """A one-cell variant of a workload, without the 11-cell shape checks."""
    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload,
        name=f"{name}-one-cell",
        cells=lambda seed: workload.cells(seed)[:1],
        shape=lambda results: [],
    )


def _run(cwd: Path, *args: str, hashseed: str = "0") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_fingerprint_identical_across_hash_seeds():
    outputs = []
    for hashseed in ("0", "4321"):
        proc = _run(ROOT, "--workload", "azure-low", "--seed", str(PINNED["default_seed"]),
                    "--seconds", "0", "--trace", "0", hashseed=hashseed)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(bench.END_TO_END)
        fingerprint = next(line for line in lines if line.startswith("fingerprint "))
        assert fingerprint.endswith("(match)")
        outputs.append(fingerprint)
    assert outputs[0] == outputs[1]


def test_held_out_seed_matches_its_pin():
    seed = PINNED["held_out_seed"]
    workload = WORKLOADS["azure-low"]
    values, info, failures = bench.end_to_end(workload, seed, 0, PINNED)
    assert failures == []
    assert info["pinned"] == "match"
    assert info["passes"] == bench.MIN_PASSES
    assert 0 < values["completed_frac"] <= 1


def test_every_workload_pins_both_seeds():
    for name in WORKLOADS:
        pins = PINNED["fingerprints"][name]
        assert set(pins) == {str(PINNED["default_seed"]), str(PINNED["held_out_seed"])}


def test_wrong_output_counts_as_failed():
    workload = _one_cell()
    pinned = {"fingerprints": {workload.name: {"1": "0" * 64}}}
    _, info, failures = bench.end_to_end(workload, 1, 0, pinned)
    assert any("pinned" in failure for failure in failures)
    assert info["failed"] == info["attempted"] > 0


def test_traced_run_restores_wrappers_and_reconciles():
    before = layers.originals()
    workload = _one_cell()
    metrics, info, failures, recorder = bench.per_layer(workload, 1, PINNED)
    assert layers.originals() == before
    assert failures == []
    assert info["sentinel"]["violations"] == 0
    assert info["audit_violations"] == 0
    assert set(metrics) == set(bench.per_layer_units())
    assert metrics["sim.events"] > 0 and metrics["baselines.scan_n"] > 0
    assert recorder.step_parents_are_runs()


def test_install_wraps_then_restores():
    before = layers.originals()
    restore = layers.install(layers.SpanRecorder())
    try:
        during = layers.originals()
        assert all(during[key] is not before[key] for key in before)
    finally:
        restore()
    assert layers.originals() == before


def test_metric_names_and_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fails_without_the_simulator(tmp_path, trace):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "azure-high", "--seed", "1",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
