"""Tests of the benchmark itself, on seconds-long ``--tiny`` workloads.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
DEFAULT_SEED = 42  # the seed perfbench/reference.json holds outputs for


def bench(*args, cwd=ROOT):
    """Run the benchmark command; returns (exit code, last JSON line or None)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, result


def tiny(workload, *, trace=0, seed=DEFAULT_SEED, cwd=ROOT):
    return bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--tiny", cwd=cwd,
    )


def bench_copy(directory: Path) -> Path:
    """``BENCHMARK.json`` and the benchmark's files alone, in ``directory``."""
    shutil.copy(ROOT / "BENCHMARK.json", directory)
    shutil.copytree(HERE, directory / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    return directory


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    code, result = tiny(workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_tiny_run_reports_every_per_layer_metric():
    code, result = tiny("fig2-day", trace=1)
    assert code == 0 and result["correct"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == PER_LAYER
    assert metrics["pipeline.rtt_row_s.count"]["value"] == 4  # 2 snapshots x 2 modes
    assert metrics["checkpoint.shards"]["value"] == 4
    assert metrics["routing.pair_dijkstras"]["value"] > 0


def test_other_seeds_are_checked_without_a_reference():
    code, result = tiny("fig45-default", seed=7)
    assert code == 0 and result["correct"]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda entry: entry["fig4_gbps"].update({"bp/4": entry["fig4_gbps"]["bp/4"] * 1.001}),
        lambda entry: entry["fig5_gbps"].update({"0.5": entry["fig5_gbps"]["0.5"] + 1.0}),
        lambda entry: entry["counts"]["hybrid/4"].update({"subflows": 0}),
        lambda entry: entry["rtt_sha256"].update({"hybrid": "0" * 64}),
    ],
    ids=["fig4", "fig5", "counts", "rtt"],
)
def test_corrupted_reference_fails_the_command(tmp_path, corrupt):
    copy = bench_copy(tmp_path)
    references = json.loads((HERE / "reference.json").read_text())
    corrupt(references["fig4-paper-graph@tiny"])
    (copy / "perfbench" / "reference.json").write_text(json.dumps(references))
    (copy / "src").symlink_to(ROOT / "src")
    # Share the land-mask raster cache instead of rebuilding it per copy.
    (ROOT / ".bench_cache").mkdir(exist_ok=True)
    (copy / ".bench_cache").symlink_to(ROOT / ".bench_cache", target_is_directory=True)
    code, result = tiny("fig4-paper-graph", cwd=copy)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_fails_without_the_program_sources(tmp_path):
    code, result = bench(
        "--workload", "fig2-day", "--seed", "1", "--seconds", "10", "--trace", "0",
        cwd=bench_copy(tmp_path),
    )
    assert code != 0 and result is None
