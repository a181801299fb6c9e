"""The snapshot map: the one sweep engine, in-process or fault-tolerant.

Snapshots are embarrassingly parallel — each builds its own graph and
runs its own batched Dijkstra — so the paper-scale configuration (96
snapshots x 2 modes over a ~65k-node graph) parallelizes almost
perfectly across cores. :func:`map_snapshot_rows` maps an arbitrary
per-snapshot evaluator over a scenario's snapshot grid, in-process or
across a worker pool, with identical output either way. The RTT sweep
(:func:`repro.core.pipeline.compute_rtt_series_multi`), the throughput
series (:func:`repro.flows.throughput.throughput_series_gbps`), and the
fig4/fig5/disconnected experiments are all thin evaluators on top of it.

An evaluator is a picklable callable ``evaluator(scenario, time_s,
mode) -> ndarray`` returning one float row per (snapshot, mode). A
worker task evaluates *every* requested mode of its snapshot, so the
modes share the worker's process-local geometry frame — the parallel
analogue of the in-process time-outer/mode-inner loop.

Long sweeps must survive partial failure, so the pool is wrapped in a
resilience layer governed by :class:`FaultPolicy`:

* a per-snapshot timeout bounds hung workers — implemented with
  :func:`concurrent.futures.wait`, so one timeout window covers *all*
  in-flight stragglers instead of stacking a full window per hung
  future;
* failed snapshots are retried with exponential backoff, on a fresh
  pool when the old one died (``BrokenProcessPool`` — e.g. a worker
  OOM-killed mid-task);
* snapshots that keep failing fall back to serial in-process
  re-execution; only if that also fails does the sweep raise a
  :class:`SweepError` carrying structured :class:`SnapshotFailure`
  records.

Combined with :mod:`repro.core.checkpoint`, every completed snapshot is
persisted as it lands, so even a hard kill (power loss, SIGKILL) loses
at most the in-flight snapshots and a later run resumes from disk.
Sweeps with different meanings (RTT vs throughput rows) are kept apart
by the checkpoint ``label`` (see :func:`repro.core.checkpoint.checkpoint_for`).

The scenario and evaluator are shipped to workers once (pool
initializer), not once per snapshot; on fork-based platforms (Linux)
even that copy is copy-on-write.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Mapping
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.checkpoint import SnapshotCheckpoint, active_checkpoint_for
from repro.core.scenario import Scenario
from repro.integrity.quarantine import note
from repro.network.graph import ConnectivityMode

__all__ = [
    "FaultPolicy",
    "SnapshotFailure",
    "SweepError",
    "map_snapshot_rows",
]

#: Evaluator contract: one float row for one (snapshot, mode) cell.
SnapshotEvaluator = Callable[[Scenario, float, ConnectivityMode], np.ndarray]

# Worker-process state, set by the pool initializer. The scenario is
# unpickled without its engine (see ``Scenario.__getstate__``), so each
# worker lazily builds one process-local engine and every snapshot in
# its chunk — and every mode of each snapshot — shares that engine's
# static layer and geometry frames.
_WORKER_SCENARIO: Scenario | None = None
_WORKER_MODES: tuple[ConnectivityMode, ...] | None = None
_WORKER_EVALUATOR: SnapshotEvaluator | None = None
_WORKER_FAULT_HOOK: Callable[[int, float], None] | None = None
_WORKER_COLLECT_METRICS: bool = False


@dataclass(frozen=True)
class FaultPolicy:
    """How hard the parallel sweep fights for each snapshot.

    ``max_attempts`` counts pool rounds (1 = no retries); the wait
    before round *n* is ``backoff_base_s * 2**(n - 1)``.
    ``snapshot_timeout_s`` bounds how long the sweep waits without *any*
    snapshot completing (``None`` = forever); when a window passes with
    no progress, every still-outstanding snapshot is marked failed and
    the pool is considered suspect, so the next round gets a fresh one.
    ``serial_fallback`` re-runs still-failing snapshots in-process as
    the last resort.
    """

    max_attempts: int = 3
    snapshot_timeout_s: float | None = None
    backoff_base_s: float = 0.5
    serial_fallback: bool = True

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.snapshot_timeout_s is not None and self.snapshot_timeout_s <= 0:
            raise ValueError("snapshot_timeout_s must be positive (or None)")


@dataclass(frozen=True)
class SnapshotFailure:
    """One snapshot the sweep could not compute, with its failure story."""

    index: int
    time_s: float
    attempts: int
    error: str


class SweepError(RuntimeError):
    """A sweep finished with irrecoverable snapshots.

    Carries the structured :class:`SnapshotFailure` records; snapshots
    that *did* complete are already checkpointed (when a checkpoint is
    active), so a resumed run only re-attempts the failures.
    """

    def __init__(self, failures: list[SnapshotFailure]):
        self.failures = list(failures)
        detail = "; ".join(
            f"snapshot {f.index} (t={f.time_s:g}s, {f.attempts} attempt(s)): {f.error}"
            for f in self.failures[:5]
        )
        if len(self.failures) > 5:
            detail += f"; ... {len(self.failures) - 5} more"
        super().__init__(
            f"{len(self.failures)} snapshot(s) failed irrecoverably: {detail}"
        )


def _row_widths(modes, row_len) -> "dict[ConnectivityMode, int]":
    """Per-mode row width from an int or a mode -> width mapping."""
    if isinstance(row_len, Mapping):
        widths = {mode: int(row_len[mode]) for mode in modes}
    else:
        widths = {mode: int(row_len) for mode in modes}
    for mode, width in widths.items():
        if width < 0:
            raise ValueError(f"row_len for {mode} must be non-negative")
    return widths


def _coerce_row(row, width: int, mode: ConnectivityMode, time_s: float) -> np.ndarray:
    row = np.asarray(row, dtype=float)
    if row.shape != (width,):
        raise ValueError(
            f"evaluator returned shape {row.shape} for mode {mode.value} at "
            f"t={time_s:g}s, expected ({width},)"
        )
    return row


def _init_worker(
    scenario: Scenario,
    modes: tuple[ConnectivityMode, ...],
    evaluator: SnapshotEvaluator,
    fault_hook: Callable[[int, float], None] | None = None,
    collect_metrics: bool = False,
) -> None:
    global _WORKER_SCENARIO, _WORKER_MODES, _WORKER_EVALUATOR
    global _WORKER_FAULT_HOOK, _WORKER_COLLECT_METRICS
    _WORKER_SCENARIO = scenario
    _WORKER_MODES = tuple(modes)
    _WORKER_EVALUATOR = evaluator
    _WORKER_FAULT_HOOK = fault_hook
    _WORKER_COLLECT_METRICS = collect_metrics


def _snapshot_rows(time_s: float) -> "dict[ConnectivityMode, np.ndarray]":
    assert _WORKER_SCENARIO is not None and _WORKER_MODES is not None
    assert _WORKER_EVALUATOR is not None
    rows = {}
    for mode in _WORKER_MODES:
        # One ``snapshot`` span per (time, mode), matching the
        # in-process span shape; all modes assemble from one cached geometry
        # frame via the worker's process-local engine.
        with obs.span("snapshot"):
            rows[mode] = np.asarray(
                _WORKER_EVALUATOR(_WORKER_SCENARIO, float(time_s), mode),
                dtype=float,
            )
    return rows


def _eval_snapshot(
    index: int, time_s: float
) -> "tuple[dict[ConnectivityMode, np.ndarray], dict | None]":
    """Worker task: one snapshot's rows (fault hook first, for tests).

    Returns ``(rows_by_mode, metrics_payload)``: when the parent is
    profiling, each task collects its own span/counter aggregate and
    ships it back alongside the result — the same future the fault
    policy already watches — so worker instrumentation survives retries,
    pool recreation, and the serial fallback without a side channel.
    """
    if not _WORKER_COLLECT_METRICS:
        if _WORKER_FAULT_HOOK is not None:
            _WORKER_FAULT_HOOK(index, time_s)
        return _snapshot_rows(time_s), None
    with obs.observe() as registry:
        if _WORKER_FAULT_HOOK is not None:
            _WORKER_FAULT_HOOK(index, time_s)
        rows = _snapshot_rows(time_s)
    return rows, registry.snapshot()


def map_snapshot_rows(
    scenario: Scenario,
    modes,
    evaluator: SnapshotEvaluator,
    *,
    row_len,
    times_s: np.ndarray | None = None,
    label: str = "",
    processes: int = 1,
    checkpoints: "dict[ConnectivityMode, SnapshotCheckpoint] | None" = None,
    policy: FaultPolicy | None = None,
    progress: Callable[[int, int], None] | None = None,
    fault_hook: Callable[[int, float], None] | None = None,
) -> "dict[ConnectivityMode, np.ndarray]":
    """Evaluate every (snapshot, mode) cell; rows come back as columns.

    Returns ``{mode: array of shape (row_len[mode], num_snapshots)}``.
    ``row_len`` is an int, or a mapping when modes have different row
    widths (e.g. fig5's one BP number vs one hybrid number per ISL
    ratio). ``times_s`` defaults to the scenario's snapshot grid.

    ``label`` names the sweep for checkpointing — sweeps with different
    labels never share shards. ``checkpoints`` maps modes to
    checkpoints; modes without an entry fall back to the ambient
    checkpoint root (see :mod:`repro.core.checkpoint`). Every shard is
    verified once, up front; verified rows are served from disk and only
    the missing cells are evaluated, each persisted as it lands.

    With ``processes <= 1`` (or a single pending snapshot) the pending
    snapshots run in-process, time-outer and mode-inner: every mode of
    one snapshot is evaluated before the next time, so a BP + hybrid
    comparison pays for propagation and visibility queries once per
    snapshot (the engine's frame cache serves the second mode). Otherwise
    they fan out over a fault-tolerant worker pool, one task per snapshot
    evaluating all its modes; results are bit-identical either way. The
    pool path needs a picklable ``evaluator`` (a module-level function,
    or a ``functools.partial`` of one); ``policy`` tunes its retry /
    timeout / serial-fallback behaviour (see :class:`FaultPolicy`), and
    ``fault_hook`` is a test seam run inside each worker before the real
    computation (raise/hang/exit to simulate crashes) — the in-process
    path never invokes it.

    ``progress`` is called as ``progress(done, total)`` whenever a
    snapshot completes (all its modes in), and once up front when
    resumed rows already complete some snapshots.
    """
    modes = list(modes)
    times = scenario.times_s if times_s is None else np.asarray(times_s, dtype=float)
    widths = _row_widths(modes, row_len)
    # Explicit checkpoints, with ambient-root fallback per mode.
    resolved: dict[ConnectivityMode, SnapshotCheckpoint | None]
    resolved = dict(checkpoints or {})
    for mode in modes:
        if resolved.get(mode) is None:
            resolved[mode] = active_checkpoint_for(
                scenario, mode, label=label, times_s=times, row_len=widths[mode]
            )
    total = len(times)

    rows = {mode: np.full((widths[mode], total), np.inf) for mode in modes}
    done: dict[ConnectivityMode, set[int]] = {}
    for mode in modes:
        checkpoint = resolved[mode]
        resumed = checkpoint.load_completed() if checkpoint is not None else {}
        for index, row in resumed.items():
            rows[mode][:, index] = row
        done[mode] = set(resumed)
    hits = sum(len(done[mode]) for mode in modes)
    misses = sum(
        total - len(done[mode]) for mode in modes if resolved[mode] is not None
    )
    if hits:
        obs.incr("checkpoint.hits", hits)
    if misses:
        obs.incr("checkpoint.misses", misses)

    pending = [i for i in range(total) if any(i not in done[mode] for mode in modes)]
    completed = total - len(pending)
    if completed and progress is not None:
        progress(completed, total)

    def store(index: int, mode: ConnectivityMode, row) -> None:
        row = _coerce_row(row, widths[mode], mode, float(times[index]))
        rows[mode][:, index] = row
        done[mode].add(index)
        checkpoint = resolved[mode]
        if checkpoint is not None:
            try:
                checkpoint.store_snapshot(index, row)
            except OSError:
                # Disk full (or gone): the sweep's numbers are unaffected
                # — keep the in-memory row, skip the shard, and let the
                # run summary surface the degradation.
                note("store_errors")

    def snapshot_done() -> None:
        nonlocal completed
        completed += 1
        if progress is not None:
            progress(completed, total)

    def evaluate_in_process(index: int) -> None:
        for mode in modes:
            if index not in done[mode]:
                with obs.span("snapshot"):
                    row = evaluator(scenario, float(times[index]), mode)
                store(index, mode, row)
        snapshot_done()

    def record(index: int, mode_rows: "dict[ConnectivityMode, np.ndarray]") -> None:
        for mode in modes:
            if index not in done[mode]:
                store(index, mode, mode_rows[mode])
        snapshot_done()

    if processes <= 1 or len(pending) <= 1:
        for index in pending:
            evaluate_in_process(index)
    else:
        _run_on_pool(
            scenario,
            modes,
            evaluator,
            times,
            pending,
            processes,
            policy or FaultPolicy(),
            fault_hook,
            record,
            evaluate_in_process,
        )
    return rows


def _run_on_pool(
    scenario: Scenario,
    modes: "list[ConnectivityMode]",
    evaluator: SnapshotEvaluator,
    times: np.ndarray,
    pending: "list[int]",
    processes: int,
    policy: FaultPolicy,
    fault_hook: Callable[[int, float], None] | None,
    record: Callable[[int, "dict[ConnectivityMode, np.ndarray]"], None],
    evaluate_in_process: Callable[[int], None],
) -> None:
    """Evaluate ``pending`` snapshots on a worker pool, per ``policy``.

    Each worker's rows go to ``record``; snapshots still failing after
    the pool rounds go to ``evaluate_in_process`` when the policy allows
    a serial fallback. Raises :class:`SweepError` for the rest.
    """
    # Materialize lazy state before forking so workers don't redo it.
    scenario.ground
    scenario.pairs

    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    collect_metrics = obs.active_registry() is not None

    def make_executor() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(processes, len(pending)),
            mp_context=context,
            initializer=_init_worker,
            initargs=(scenario, tuple(modes), evaluator, fault_hook, collect_metrics),
        )

    attempts = dict.fromkeys(pending, 0)
    errors: dict[int, str] = {}
    remaining = list(pending)
    executor = make_executor()
    try:
        for round_number in range(policy.max_attempts):
            if not remaining:
                break
            if round_number:
                obs.incr("parallel.worker_retries", len(remaining))
                if policy.backoff_base_s:
                    time.sleep(policy.backoff_base_s * 2 ** (round_number - 1))
            future_index = {
                executor.submit(_eval_snapshot, index, float(times[index])): index
                for index in remaining
            }
            for index in remaining:
                attempts[index] += 1
            failed: list[int] = []
            pool_suspect = False
            outstanding = set(future_index)
            while outstanding:
                # One bounded wait for the whole in-flight set: the
                # timeout fires only when a full window passes with *no*
                # snapshot completing, so N stragglers cost one window,
                # not N sequential windows.
                finished, outstanding = wait(
                    outstanding,
                    timeout=policy.snapshot_timeout_s,
                    return_when=FIRST_COMPLETED,
                )
                if not finished:
                    # Stalled: every outstanding worker is presumed hung.
                    for future in outstanding:
                        index = future_index[future]
                        future.cancel()
                        failed.append(index)
                        obs.incr("parallel.timeouts")
                        errors[index] = (
                            f"timed out after {policy.snapshot_timeout_s:g}s "
                            "without sweep progress"
                        )
                    pool_suspect = True
                    break
                for future in finished:
                    index = future_index[future]
                    try:
                        mode_rows, worker_metrics = future.result()
                    except BrokenProcessPool as exc:
                        pool_suspect = True
                        failed.append(index)
                        errors[index] = (
                            f"worker died ({exc.__class__.__name__}: {exc})"
                        )
                    except Exception as exc:
                        failed.append(index)
                        errors[index] = f"{exc.__class__.__name__}: {exc}"
                    else:
                        if worker_metrics is not None:
                            obs.merge_payload(worker_metrics)
                        record(index, mode_rows)
            remaining = failed
            if pool_suspect and remaining:
                obs.incr("parallel.pool_recreations")
                executor.shutdown(wait=False, cancel_futures=True)
                executor = make_executor()
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    if remaining and policy.serial_fallback:
        still_failing: list[int] = []
        for index in remaining:
            attempts[index] += 1
            obs.incr("parallel.serial_fallbacks")
            try:
                # In-process: spans land on the parent registry and the
                # modes share the parent engine's geometry frame.
                evaluate_in_process(index)
            except Exception as exc:
                errors[index] = f"serial fallback: {exc.__class__.__name__}: {exc}"
                still_failing.append(index)
        remaining = still_failing

    if remaining:
        raise SweepError(
            [
                SnapshotFailure(
                    index=index,
                    time_s=float(times[index]),
                    attempts=attempts[index],
                    error=errors.get(index, "unknown error"),
                )
                for index in sorted(remaining)
            ]
        )
