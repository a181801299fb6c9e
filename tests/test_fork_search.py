"""Forked search workers: same numbers for any worker count, safe failures.

One snapshot's independent Dijkstra searches (RTT rows, routing round 1,
the disjoint rounds 2..k) run on every core through
:func:`repro.network.paths.fork_map`. These tests pin the worker count
to 1 and to 3 and require byte-identical rows, identical paths, edge ids
and sub-flow order, and identical counters; they check that a failing
child surfaces its exception, that a child dying without a result is
recomputed in-process, that no child outlives the call, that
snapshot-pool workers never fork again, and that tiny and smoke graphs
stay below the work cap and never fork at all.
"""

import dataclasses
import functools
import importlib.util
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.parallel import map_snapshot_rows
from repro.core.pipeline import (
    _pair_rtts_on_graph,
    compute_rtt_series_multi,
    pair_paths_on_graph,
)
from repro.core.scenario import Scenario
from repro.flows.routing import route_traffic_multi_k
from repro.network import paths
from repro.network.graph import ConnectivityMode

MODES = (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "probe.py"


def _with_workers(monkeypatch, workers, compute):
    """``compute()`` and its counters with the worker count pinned."""
    monkeypatch.setattr(paths, "_worker_count", lambda searches, nnz: workers)
    with obs.observe() as registry:
        value = compute()
    return value, registry.snapshot()["counters"]


def _subflow_key(routed):
    """Everything a sub-flow list says, in order, as comparable values."""
    return [
        (sf.pair_index, sf.path.nodes, sf.path.length_m, sf.edge_ids.dtype.str,
         sf.edge_ids.tobytes())
        for sf in routed.subflows
    ]


def _routing_key(results):
    return {
        k: (_subflow_key(routed), routed.unrouted_pairs)
        for k, routed in results.items()
    }


def _without_gt(graph, gt_index):
    """A copy of ``graph`` with every edge of one ground terminal removed."""
    node = graph.gt_node(gt_index)
    keep = (graph.edges[:, 0] != node) & (graph.edges[:, 1] != node)
    return dataclasses.replace(
        graph,
        edges=graph.edges[keep],
        edge_dist_m=graph.edge_dist_m[keep],
        edge_kind=graph.edge_kind[keep],
        _matrix_cache=None,
        _edge_key_cache=None,
        _csr_pos_cache=None,
        _edge_caps_cache=None,
    )


def _pair_sets(scenario):
    """Pair lists covering the awkward shapes of a worker split."""
    pairs = scenario.pairs
    sources = sorted({p.a for p in pairs})
    few = [p for p in pairs if p.a in sources[:2]]
    return {
        "all": pairs,  # 19 sources: not divisible by 3 workers
        "fewer-sources-than-workers": few,
        "one-pair": pairs[:1],
        "none": [],
    }


@pytest.fixture(scope="module")
def cut_graph(tiny_scenario):
    """The tiny BP graph with pair 0's destination cut off."""
    graph = tiny_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
    return _without_gt(graph, tiny_scenario.pairs[0].b)


class TestSameResultsForAnyWorkerCount:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "subset", ["all", "fewer-sources-than-workers", "one-pair", "none"]
    )
    def test_rtt_rows_byte_identical(self, monkeypatch, tiny_scenario, mode, subset):
        graph = tiny_scenario.graph_at(0.0, mode)
        pairs = _pair_sets(tiny_scenario)[subset]
        rows = {
            w: _with_workers(monkeypatch, w, lambda: _pair_rtts_on_graph(graph, pairs))
            for w in (1, 3)
        }
        assert rows[1][0].tobytes() == rows[3][0].tobytes()
        assert rows[1][1] == rows[3][1]

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "subset", ["all", "fewer-sources-than-workers", "one-pair", "none"]
    )
    def test_routing_identical(self, monkeypatch, tiny_scenario, mode, subset):
        graph = tiny_scenario.graph_at(0.0, mode)
        pairs = _pair_sets(tiny_scenario)[subset]
        runs = {
            w: _with_workers(
                monkeypatch, w, lambda: route_traffic_multi_k(graph, pairs, (1, 4))
            )
            for w in (1, 3)
        }
        assert _routing_key(runs[1][0]) == _routing_key(runs[3][0])
        assert runs[1][1] == runs[3][1]
        if pairs:
            assert runs[1][1]["routing.batched_dijkstras"] > 0
            assert runs[1][1]["routing.pair_dijkstras"] > 0

    def test_unreachable_pair(self, monkeypatch, tiny_scenario, cut_graph):
        pairs = tiny_scenario.pairs
        runs = {
            w: _with_workers(
                monkeypatch,
                w,
                lambda: (
                    _pair_rtts_on_graph(cut_graph, pairs),
                    route_traffic_multi_k(cut_graph, pairs, (1, 4)),
                    pair_paths_on_graph(cut_graph, pairs),
                ),
            )
            for w in (1, 3)
        }
        (rtt1, routed1, paths1), counters1 = runs[1]
        (rtt3, routed3, paths3), counters3 = runs[3]
        assert not np.isfinite(rtt1[0]) and paths1[0] is None
        assert 0 in routed1[4].unrouted_pairs
        assert rtt1.tobytes() == rtt3.tobytes()
        assert paths1 == paths3
        assert _routing_key(routed1) == _routing_key(routed3)
        assert counters1 == counters3
        assert counters1["routing.unrouted_pairs"] >= 2  # once per k

    def test_pair_paths_identical(self, monkeypatch, tiny_scenario):
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        found = {
            w: _with_workers(
                monkeypatch, w, lambda: pair_paths_on_graph(graph, tiny_scenario.pairs)
            )[0]
            for w in (1, 3)
        }
        assert found[1] == found[3]
        assert all(p is not None for p in found[1])

    def test_each_source_searched_once_per_group(self, monkeypatch, tiny_scenario):
        """Groups split the sources; no batch runs past its group's end."""
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        searched = []
        dijkstra = paths.csgraph.dijkstra

        def recording(matrix, *args, indices, **kwargs):
            searched.append(np.atleast_1d(indices).tolist())
            return dijkstra(matrix, *args, indices=indices, **kwargs)

        monkeypatch.setattr(paths.csgraph, "dijkstra", recording)
        monkeypatch.setattr(paths, "fork_map", lambda fn, n: [fn(i) for i in range(n)])
        monkeypatch.setattr(paths, "_worker_count", lambda searches, nnz: 3)
        monkeypatch.setattr(paths, "_SOURCE_BATCH", 4)
        _pair_rtts_on_graph(graph, tiny_scenario.pairs)
        sources = sorted({graph.gt_node(p.a) for p in tiny_scenario.pairs})
        assert sorted(s for batch in searched for s in batch) == sources
        assert max(len(batch) for batch in searched) <= 4
        # 19 sources over 3 groups: 6 + 6 + 7, each batched by 4.
        assert [len(batch) for batch in searched] == [4, 2, 4, 2, 4, 3]


def _chunk_or_die(i, parent, fail_chunk, how):
    """A fork_map chunk that fails in the child running ``fail_chunk``."""
    if i == fail_chunk and os.getpid() != parent:
        if how == "raise":
            raise ValueError(f"chunk {i} rejected its input")
        os._exit(1)
    obs.incr("test.chunks")
    return np.arange(i, i + 5) * 2.5


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestForkFailures:
    def _spy_fork(self, monkeypatch):
        forked = []
        fork = os.fork

        def spy():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", spy)
        return forked

    def test_child_exception_reraised_with_its_type(self, monkeypatch):
        forked = self._spy_fork(monkeypatch)
        chunk = functools.partial(
            _chunk_or_die, parent=os.getpid(), fail_chunk=2, how="raise"
        )
        with pytest.raises(ValueError, match="chunk 2 rejected its input"):
            paths.fork_map(chunk, 3)
        assert len(forked) == 2
        _assert_reaped(forked)

    def test_parent_exception_stops_children(self, monkeypatch):
        forked = self._spy_fork(monkeypatch)

        def chunk(i):
            if i == 0:
                raise KeyError("parent chunk")
            return i

        with pytest.raises(KeyError):
            paths.fork_map(chunk, 3)
        assert len(forked) == 2
        _assert_reaped(forked)

    def test_dead_child_recomputed_in_process(self, monkeypatch):
        forked = self._spy_fork(monkeypatch)
        chunk = functools.partial(
            _chunk_or_die, parent=os.getpid(), fail_chunk=1, how="exit"
        )
        with obs.observe() as registry:
            results = paths.fork_map(chunk, 3)
        expected = [np.arange(i, i + 5) * 2.5 for i in range(3)]
        assert [r.tobytes() for r in results] == [e.tobytes() for e in expected]
        counters = registry.snapshot()["counters"]
        assert counters["search.fork_fallbacks"] == 1
        # Chunk 0 and the recompute in the parent, chunk 2 in its child.
        assert counters["test.chunks"] == 3
        assert len(forked) == 2
        _assert_reaped(forked)

    def test_children_send_counters_not_spans(self):
        def chunk(i):
            with obs.span("search"):
                obs.incr("test.searched", i + 1)
            return i

        with obs.observe() as registry:
            assert paths.fork_map(chunk, 3) == [0, 1, 2]
        snapshot = registry.snapshot()
        assert snapshot["counters"]["test.searched"] == 6
        assert snapshot["spans"]["search"]["count"] == 1  # the parent's own
        assert "search.fork_fallbacks" not in snapshot["counters"]

    def test_single_chunk_never_forks(self, monkeypatch):
        monkeypatch.setattr(os, "fork", _no_fork)
        assert paths.fork_map(lambda i: i + 7, 1) == [7]
        assert paths.fork_map(lambda i: i, 0) == []


def _no_fork():
    raise AssertionError("os.fork called below the work cap")


def _worker_count_row(scenario, time_s, mode):
    """Snapshot evaluator reporting the search worker count it would use."""
    return np.asarray([paths._worker_count(10**6, 10**9)], dtype=float)


class TestWorkerCount:
    def test_uses_cores_for_large_work(self, monkeypatch):
        monkeypatch.setattr(paths.threading, "active_count", lambda: 1)
        cores = len(os.sched_getaffinity(0))
        assert paths._worker_count(10**6, 10**9) == cores

    def test_one_while_other_threads_run(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10,))
        thread.start()
        try:
            assert paths._worker_count(10**6, 10**9) == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_capped_by_work(self):
        assert paths._worker_count(1, paths._FORK_MIN_WORK - 1) == 1
        assert paths._worker_count(0, 10**9) == 1

    def test_one_inside_a_fork_child(self, monkeypatch):
        monkeypatch.setattr(paths.threading, "active_count", lambda: 1)
        counts = paths.fork_map(lambda i: paths._worker_count(10**6, 10**9), 2)
        assert counts[1] == 1

    def test_one_inside_snapshot_pool_workers(self, tiny_scenario):
        rows = map_snapshot_rows(
            tiny_scenario,
            [ConnectivityMode.BP_ONLY],
            _worker_count_row,
            row_len=1,
            processes=2,
        )[ConnectivityMode.BP_ONLY]
        assert rows.shape == (1, len(tiny_scenario.times_s))
        assert np.all(rows == 1.0)


def _perfbench_tiny_scale():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe.TINY


class TestSmallGraphsStayInProcess:
    """Tier-1, smoke and ``--tiny`` sizes sit below the fork work cap."""

    def _run_stages(self, scenario):
        compute_rtt_series_multi(scenario, MODES)
        for mode in MODES:
            graph = scenario.graph_at(0.0, mode)
            route_traffic_multi_k(graph, scenario.pairs, (1, 4))
            pair_paths_on_graph(graph, scenario.pairs)

    def test_smoke_scale_never_forks(self, monkeypatch, tiny_scenario):
        # The shared tiny scenario is the bench_trajectory smoke scale.
        monkeypatch.setattr(os, "fork", _no_fork)
        self._run_stages(tiny_scenario)

    def test_perfbench_tiny_never_forks(self, monkeypatch):
        scenario = Scenario.paper_default("starlink", _perfbench_tiny_scale())
        monkeypatch.setattr(os, "fork", _no_fork)
        self._run_stages(scenario)
