"""Tests for the RTT sweep on the worker pool and its fault tolerance."""

import os
from pathlib import Path

import numpy as np
import pytest

import repro.core.pipeline as pipeline
from repro import obs
from repro.core.parallel import FaultPolicy, SnapshotFailure, SweepError
from repro.core.pipeline import compute_rtt_series_multi
from repro.integrity.guards import check_graph, strict_checks
from repro.network.graph import ConnectivityMode

BP = ConnectivityMode.BP_ONLY
HYBRID = ConnectivityMode.HYBRID


class TestParallelRunner:
    def test_matches_serial_exactly(self, tiny_scenario):
        serial = compute_rtt_series_multi(tiny_scenario, [HYBRID])[HYBRID]
        parallel = compute_rtt_series_multi(
            tiny_scenario, [HYBRID], processes=2
        )[HYBRID]
        np.testing.assert_array_equal(parallel.rtt_ms, serial.rtt_ms)
        np.testing.assert_array_equal(parallel.times_s, serial.times_s)
        assert parallel.mode is serial.mode

    def test_bp_mode(self, tiny_scenario):
        serial = compute_rtt_series_multi(tiny_scenario, [BP])[BP]
        parallel = compute_rtt_series_multi(tiny_scenario, [BP], processes=2)[BP]
        np.testing.assert_array_equal(parallel.rtt_ms, serial.rtt_ms)

    def test_single_process_fallback(self, tiny_scenario):
        result = compute_rtt_series_multi(
            tiny_scenario, [HYBRID], processes=1
        )[HYBRID]
        assert result.rtt_ms.shape == (
            len(tiny_scenario.pairs),
            len(tiny_scenario.times_s),
        )


class TestParallelMultiMode:
    """Multi-mode sweeps: workers evaluate every mode per snapshot."""

    MODES = [BP, HYBRID]

    def test_matches_serial_multi_exactly(self, tiny_scenario):
        serial = compute_rtt_series_multi(tiny_scenario, self.MODES)
        parallel = compute_rtt_series_multi(
            tiny_scenario, self.MODES, processes=2
        )
        assert set(parallel) == set(self.MODES)
        for mode in self.MODES:
            np.testing.assert_array_equal(
                parallel[mode].rtt_ms, serial[mode].rtt_ms
            )
            np.testing.assert_array_equal(
                parallel[mode].times_s, serial[mode].times_s
            )
            assert parallel[mode].mode is mode

    def test_single_process_delegates_to_serial(self, tiny_scenario):
        result = compute_rtt_series_multi(
            tiny_scenario, self.MODES, processes=1
        )
        for mode in self.MODES:
            assert result[mode].rtt_ms.shape == (
                len(tiny_scenario.pairs),
                len(tiny_scenario.times_s),
            )


def _counting_check_graph(graph, source="graph"):
    obs.incr("test.graphs_checked")
    check_graph(graph, source=source)


class TestStrictChecks:
    """Strict mode checks every graph, in-process and in the workers."""

    @pytest.mark.parametrize("processes", [1, 2])
    def test_every_graph_checked(self, tiny_scenario, monkeypatch, processes):
        # Fork-started workers inherit the patched module; their
        # counters ship back with each task's result.
        monkeypatch.setattr(
            pipeline, "check_graph", _counting_check_graph, raising=False
        )
        modes = [BP, HYBRID]
        with strict_checks(), obs.observe() as registry:
            compute_rtt_series_multi(
                tiny_scenario,
                modes,
                processes=processes,
                policy=FaultPolicy(max_attempts=1, serial_fallback=False),
            )
        counters = registry.snapshot()["counters"]
        assert counters.get("test.graphs_checked", 0) == len(
            tiny_scenario.times_s
        ) * len(modes)


# Worker fault hooks: module-level so fork-started workers resolve them.
_FLAG_DIR_ENV = "REPRO_TEST_FAULT_FLAG_DIR"


def _always_crash(index: int, time_s: float) -> None:
    raise RuntimeError("injected worker crash")


def _crash_once_per_snapshot(index: int, time_s: float) -> None:
    flag = Path(os.environ[_FLAG_DIR_ENV]) / f"snapshot_{index}"
    if not flag.exists():
        flag.touch()
        raise RuntimeError("transient worker crash")


def _kill_worker_once_per_snapshot(index: int, time_s: float) -> None:
    flag = Path(os.environ[_FLAG_DIR_ENV]) / f"snapshot_{index}"
    if not flag.exists():
        flag.touch()
        os._exit(17)  # simulate an OOM kill: no exception, no cleanup


def _hang_first_snapshot_once(index: int, time_s: float) -> None:
    import time as time_module

    if index != 0:
        return
    flag = Path(os.environ[_FLAG_DIR_ENV]) / f"snapshot_{index}"
    if not flag.exists():
        flag.touch()
        time_module.sleep(4.0)


_FAST_RETRIES = FaultPolicy(max_attempts=3, backoff_base_s=0.01)


class TestFaultTolerance:
    @pytest.fixture()
    def baseline(self, tiny_scenario):
        return compute_rtt_series_multi(tiny_scenario, [BP])[BP]

    @pytest.fixture()
    def flag_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_FLAG_DIR_ENV, str(tmp_path))
        return tmp_path

    def test_crashing_workers_rescued_by_serial_fallback(
        self, tiny_scenario, baseline
    ):
        result = compute_rtt_series_multi(
            tiny_scenario,
            [BP],
            processes=2,
            fault_hook=_always_crash,
            policy=FaultPolicy(max_attempts=2, backoff_base_s=0.0),
        )[BP]
        np.testing.assert_array_equal(result.rtt_ms, baseline.rtt_ms)

    def test_transient_crash_recovered_by_retry(
        self, tiny_scenario, baseline, flag_dir
    ):
        result = compute_rtt_series_multi(
            tiny_scenario,
            [BP],
            processes=2,
            fault_hook=_crash_once_per_snapshot,
            policy=FaultPolicy(
                max_attempts=3, backoff_base_s=0.01, serial_fallback=False
            ),
        )[BP]
        np.testing.assert_array_equal(result.rtt_ms, baseline.rtt_ms)
        # Every snapshot failed exactly once before its retry succeeded.
        assert len(list(flag_dir.iterdir())) == len(tiny_scenario.times_s)

    def test_dead_worker_pool_recreated(self, tiny_scenario, baseline, flag_dir):
        result = compute_rtt_series_multi(
            tiny_scenario,
            [BP],
            processes=2,
            fault_hook=_kill_worker_once_per_snapshot,
            policy=_FAST_RETRIES,
        )[BP]
        np.testing.assert_array_equal(result.rtt_ms, baseline.rtt_ms)

    def test_hung_worker_times_out_and_recovers(
        self, tiny_scenario, baseline, flag_dir
    ):
        result = compute_rtt_series_multi(
            tiny_scenario,
            [BP],
            processes=2,
            fault_hook=_hang_first_snapshot_once,
            policy=FaultPolicy(
                max_attempts=2, snapshot_timeout_s=1.0, backoff_base_s=0.01
            ),
        )[BP]
        np.testing.assert_array_equal(result.rtt_ms, baseline.rtt_ms)

    def test_irrecoverable_snapshots_raise_structured_sweep_error(
        self, tiny_scenario
    ):
        with pytest.raises(SweepError) as excinfo:
            compute_rtt_series_multi(
                tiny_scenario,
                [BP],
                processes=2,
                fault_hook=_always_crash,
                policy=FaultPolicy(
                    max_attempts=2, backoff_base_s=0.0, serial_fallback=False
                ),
            )
        failures = excinfo.value.failures
        assert [f.index for f in failures] == list(
            range(len(tiny_scenario.times_s))
        )
        for failure in failures:
            assert isinstance(failure, SnapshotFailure)
            assert failure.attempts == 2
            assert "injected worker crash" in failure.error
        assert "failed irrecoverably" in str(excinfo.value)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            FaultPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            FaultPolicy(snapshot_timeout_s=0.0)
