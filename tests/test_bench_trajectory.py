"""Tests for the perf-trajectory recorder (``scripts/bench_trajectory.py``).

The script is CI's perf-regression gate, so its record format, its
comparison logic, and the end-to-end "second run compares against the
first" loop are all locked here. The end-to-end tests run at smoke scale
(seconds, not minutes).
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.obs import BENCH_SCHEMA, validate

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_trajectory.py"


@pytest.fixture(scope="module")
def bench():
    """The script loaded as a module (it has no package home)."""
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_trajectory"] = module
    spec.loader.exec_module(module)
    return module


def _record(entries: dict, config: dict | None = None) -> dict:
    return {
        "kind": "bench-trajectory",
        "schema_version": 1,
        "created_utc": "2026-01-01T00:00:00Z",
        "config": config or {"scale": "bench-smoke"},
        "entries": entries,
    }


class TestCompare:
    def test_flags_growth_past_threshold(self, bench):
        previous = _record({"fig2": {"wall_s": 1.0}})
        current = _record({"fig2": {"wall_s": 1.5}})
        regressions = bench.compare(current, previous, threshold=0.25)
        assert len(regressions) == 1
        assert "fig2" in regressions[0]

    def test_tolerates_growth_within_threshold(self, bench):
        previous = _record({"fig2": {"wall_s": 1.0}})
        current = _record({"fig2": {"wall_s": 1.2}})
        assert bench.compare(current, previous, threshold=0.25) == []

    def test_skips_new_and_noise_floor_entries(self, bench):
        previous = _record({"tiny": {"wall_s": 0.001}})
        current = _record(
            {"tiny": {"wall_s": 0.01}, "brand_new": {"wall_s": 9.0}}
        )
        # 10x growth on a sub-noise-floor timing is not a regression,
        # and an entry with no baseline cannot regress.
        assert bench.compare(current, previous, threshold=0.25) == []


class TestPreviousRecord:
    def test_picks_latest_and_excludes_current(self, bench, tmp_path):
        old = tmp_path / "BENCH_20260101-000000.json"
        new = tmp_path / "BENCH_20260201-000000.json"
        old.write_text("{}")
        new.write_text("{}")
        assert bench.previous_record(tmp_path, exclude=new) == old
        assert bench.previous_record(tmp_path, exclude=None) == new
        assert bench.previous_record(tmp_path / "empty", exclude=None) is None


class TestPytestBenchmarkFold:
    def test_folds_means_as_entries(self, bench, tmp_path):
        export = tmp_path / "pytest_bench.json"
        export.write_text(
            json.dumps(
                {
                    "benchmarks": [
                        {"name": "test_bench_fig2", "stats": {"mean": 2.5}},
                    ]
                }
            )
        )
        entries = bench.fold_pytest_benchmarks(export)
        assert entries == {
            "test_bench_fig2": {"source": "pytest-benchmark", "wall_s": 2.5}
        }


class TestBestOfN:
    def test_run_suite_keeps_fastest_repeat(self, bench, monkeypatch):
        walls = iter([2.0, 1.0, 3.0])

        class FakeSummary:
            failures = ()

            @property
            def metrics_by_experiment(self):
                return {
                    "fig9": {
                        "wall_s": next(walls),
                        "cpu_s": 0.1,
                        "spans": {},
                        "counters": {},
                    }
                }

        monkeypatch.setattr(
            bench, "run_experiments", lambda *a, **k: FakeSummary()
        )
        entries = bench.run_suite(["fig9"], scale=None, repeats=3)
        assert entries["fig9"]["wall_s"] == 1.0

    def test_routing_span_becomes_own_entry(self, bench, monkeypatch):
        class FakeSummary:
            failures = ()
            metrics_by_experiment = {
                "fig4": {
                    "wall_s": 1.0,
                    "cpu_s": 0.9,
                    "spans": {
                        "snapshot/routing": {
                            "count": 2,
                            "total_s": 0.5,
                            "min_s": 0.2,
                            "max_s": 0.3,
                        }
                    },
                    "counters": {},
                }
            }

        monkeypatch.setattr(
            bench, "run_experiments", lambda *a, **k: FakeSummary()
        )
        entries = bench.run_suite(["fig4"], scale=None)
        assert entries["fig4"]["routing"]["total_s"] == 0.5
        assert entries["fig4:routing"] == {
            "source": "span-aggregate",
            "wall_s": 0.5,
        }


class TestLatestBaseline:
    def test_scans_out_dir_and_historical_locations(self, bench, tmp_path):
        local = tmp_path / "BENCH_20990101-000000.json"
        local.write_text("{}")
        # The far-future local record must beat the committed ones under
        # benchmarks/ regardless of location order.
        assert bench.latest_baseline(tmp_path, exclude=None) == local
        # With no local records the committed benchmarks/ history wins.
        assert bench.latest_baseline(tmp_path / "empty", exclude=None) is not None


class TestEndToEnd:
    def test_first_run_writes_record_second_run_compares(
        self, bench, tmp_path, capsys
    ):
        assert bench.main(["--smoke", "--out", str(tmp_path), "--repeats", "1"]) == 0
        first_out = capsys.readouterr().out
        assert "no previous record" in first_out
        records = sorted(tmp_path.glob("BENCH_*.json"))
        assert len(records) == 1
        payload = json.loads(records[0].read_text())
        validate(payload, BENCH_SCHEMA)
        assert {"fig2", "fig4", "fig4:routing"} <= set(payload["entries"])
        for name in ("fig2", "fig4"):
            entry = payload["entries"][name]
            assert entry["spans"], "bench entries must carry span aggregates"
        # The smoke routing gate's counter must be on the fig4 entry.
        assert payload["entries"]["fig4"]["counters"]["routing.batched_dijkstras"] > 0

        # Second run compares against the first; a generous threshold
        # keeps this robust on loaded CI machines.
        assert (
            bench.main(
                [
                    "--smoke",
                    "--out",
                    str(tmp_path),
                    "--repeats",
                    "1",
                    "--threshold",
                    "5.0",
                ]
            )
            == 0
        )
        second_out = capsys.readouterr().out
        assert "compared against" in second_out
        assert len(list(tmp_path.glob("BENCH_*.json"))) == 2

    def test_regression_exits_nonzero(self, bench, tmp_path, capsys, monkeypatch):
        assert bench.main(["--smoke", "--out", str(tmp_path), "--repeats", "1"]) == 0
        baseline = next(tmp_path.glob("BENCH_*.json"))
        # Doctor the baseline to claim everything used to be instant.
        payload = json.loads(baseline.read_text())
        for entry in payload["entries"].values():
            entry["wall_s"] = 0.06  # above the noise floor, far below reality
        baseline.write_text(json.dumps(payload))
        capsys.readouterr()
        code = bench.main(
            ["--smoke", "--out", str(tmp_path), "--repeats", "1",
             "--baseline", str(baseline)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "PERFORMANCE REGRESSIONS" in out

    def test_bounded_retry_gate(self, bench, tmp_path, capsys, monkeypatch):
        # A search radius below every link length retries every round.
        from repro.flows import routing

        monkeypatch.setattr(routing, "_ROUND_BOUND", 1e-3)
        code = bench.main(["--smoke", "--out", str(tmp_path), "--repeats", "1"])
        assert code == 1
        assert "bounded disjoint-round searches" in capsys.readouterr().out

    def test_empty_baseline_skips_comparison(self, bench, tmp_path, capsys):
        # A zero-entry baseline (e.g. an interrupted earlier run) must
        # not fail the run being measured.
        baseline = tmp_path / "BENCH_20260101-000000.json"
        baseline.write_text(json.dumps(_record({})))
        code = bench.main(
            ["--smoke", "--out", str(tmp_path), "--repeats", "1",
             "--baseline", str(baseline)]
        )
        assert code == 0
        assert "no entries; skipping comparison" in capsys.readouterr().out

    def test_corrupt_baseline_skips_comparison(self, bench, tmp_path, capsys):
        baseline = tmp_path / "BENCH_20260101-000000.json"
        baseline.write_text("{truncated")
        code = bench.main(
            ["--smoke", "--out", str(tmp_path), "--repeats", "1",
             "--baseline", str(baseline)]
        )
        assert code == 0
        assert "unusable" in capsys.readouterr().out

    def test_wrong_schema_baseline_skips_comparison(
        self, bench, tmp_path, capsys
    ):
        baseline = tmp_path / "BENCH_20260101-000000.json"
        baseline.write_text(json.dumps({"kind": "metrics"}))
        code = bench.main(
            ["--smoke", "--out", str(tmp_path), "--repeats", "1",
             "--baseline", str(baseline)]
        )
        assert code == 0
        assert "unusable" in capsys.readouterr().out

    def test_mismatched_config_skips_comparison(self, bench, tmp_path, capsys):
        assert bench.main(["--smoke", "--out", str(tmp_path), "--repeats", "1"]) == 0
        baseline = next(tmp_path.glob("BENCH_*.json"))
        payload = json.loads(baseline.read_text())
        payload["config"]["scale"] = "something-else"
        baseline.write_text(json.dumps(payload))
        capsys.readouterr()
        code = bench.main(
            ["--smoke", "--out", str(tmp_path), "--repeats", "1",
             "--baseline", str(baseline)]
        )
        assert code == 0
        assert "skipping comparison" in capsys.readouterr().out
