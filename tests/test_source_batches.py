"""Source-batched Dijkstra: RTT rows and paths equal unbatched searches.

The RTT row, routing round 1 and :func:`pair_paths_on_graph` all search
through :func:`repro.network.paths.source_batched_dijkstra`, a fixed number of
sources per call. Each source's search is independent, so batching may
change memory but never a value: these tests compare against one
all-sources call and against per-source extraction, and bound the traced
memory of a row with several batches.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from repro.constants import SPEED_OF_LIGHT
from repro.core.pipeline import _pair_rtts_on_graph, pair_paths_on_graph
from repro.flows.traffic import CityPair, pair_index
from repro.ground.stations import StationTable
from repro.network.graph import (
    _KIND_FIBER,
    _KIND_GT_SAT,
    _KIND_ISL,
    ConnectivityMode,
    SnapshotGraph,
)
from repro.network import paths
from repro.network.paths import extract_path, source_batched_dijkstra

BATCH = paths._SOURCE_BATCH


def _random_graph(num_sats, num_gts, seed, isolated=0):
    """A connected random graph (ring plus chords), as the pipeline sees it.

    Every GT is a city, so the RTT row's relay contraction keeps every
    node. The last ``isolated`` GT nodes get no edges, so pairs touching
    them are unreachable. Edge lengths are rounded to whole metres so
    equal path lengths (ties) occur.
    """
    rng = np.random.default_rng(seed)
    n = num_sats + num_gts
    live = n - isolated
    ring = np.arange(live)
    rows = [ring, rng.integers(0, live, 2 * live)]
    cols = [np.roll(ring, -1), rng.integers(0, live, 2 * live)]
    u, v = np.concatenate(rows), np.concatenate(cols)
    keep = u != v
    u, v = u[keep], v[keep]
    w = np.round(rng.uniform(1e5, 2e6, len(u)))
    matrix = sparse.coo_matrix((w, (u, v)), shape=(n, n)).tocsr()
    upper = sparse.triu(matrix.maximum(matrix.T), k=1).tocoo()
    edges = np.stack([upper.row, upper.col], axis=1).astype(np.int64)
    is_gt = edges >= num_sats
    kind = np.where(
        is_gt.all(axis=1), _KIND_FIBER, np.where(is_gt.any(axis=1), _KIND_GT_SAT, _KIND_ISL)
    )
    return SnapshotGraph(
        time_s=0.0,
        mode=ConnectivityMode.HYBRID,
        num_sats=num_sats,
        num_gts=num_gts,
        sat_ecef=np.zeros((num_sats, 3)),
        gt_ecef=np.zeros((num_gts, 3)),
        edges=edges,
        edge_dist_m=upper.data,
        edge_kind=kind.astype(np.int8),
        stations=StationTable(
            lats=np.zeros(num_gts),
            lons=np.zeros(num_gts),
            altitudes=np.zeros(num_gts),
            city_count=num_gts,
            relay_count=0,
        ),
    )


def _pairs_with_sources(num_sources, num_gts, seed, per_source=3):
    """Pairs over ``num_sources`` distinct source cities, shuffled."""
    rng = np.random.default_rng(seed)
    sources = rng.choice(num_gts, size=num_sources, replace=False)
    pairs = [
        CityPair(int(a), int(b), 0.0)
        for a in sources
        for b in rng.choice(num_gts, size=per_source, replace=False)
        if a != b
    ]
    return [pairs[i] for i in rng.permutation(len(pairs))]


def _all_sources_rtts(graph, pairs):
    """Reference: one all-sources Dijkstra, gathered per pair."""
    index = pair_index(pairs)
    dist = csgraph.dijkstra(
        graph.matrix(), directed=True, indices=graph.num_sats + index.source_cities
    )
    dist_m = dist[index.source_row, graph.num_sats + index.targets]
    return np.where(np.isfinite(dist_m), 2e3 * dist_m / SPEED_OF_LIGHT, np.inf)


class TestSourceBatchedDijkstra:
    @pytest.mark.parametrize(
        "num_sources", [1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 3]
    )
    def test_matches_one_all_sources_call(self, num_sources):
        graph = _random_graph(50, 250, seed=num_sources, isolated=3)
        matrix = graph.matrix()
        rng = np.random.default_rng(num_sources)
        sources = rng.choice(300, size=num_sources, replace=False)
        source_row = rng.integers(0, num_sources, 500)
        targets = rng.integers(0, 300, 500)
        dist_ref, pred_ref = csgraph.dijkstra(
            matrix, directed=True, indices=sources, return_predecessors=True
        )
        dist, nodes = source_batched_dijkstra(
            matrix, sources, source_row, targets, paths=True
        )
        assert dist.tobytes() == dist_ref[source_row, targets].tobytes()
        assert nodes == [
            extract_path(pred_ref[row], int(sources[row]), int(target))
            for row, target in zip(source_row, targets)
        ]
        assert any(n is None for n in nodes)
        only_dist, no_nodes = source_batched_dijkstra(
            matrix, sources, source_row, targets
        )
        assert no_nodes is None
        assert only_dist.tobytes() == dist.tobytes()

    def test_no_queries(self):
        graph = _random_graph(10, 40, seed=3)
        dist, nodes = source_batched_dijkstra(
            graph.matrix(), np.arange(0), np.arange(0), np.arange(0), paths=True
        )
        assert len(dist) == 0 and nodes == []


class TestRttRowMatchesAllSources:
    @pytest.mark.parametrize("num_sources", [BATCH - 1, BATCH, BATCH + 1])
    def test_bit_identical(self, num_sources):
        graph = _random_graph(60, 300, seed=num_sources, isolated=5)
        pairs = _pairs_with_sources(num_sources, 300, seed=num_sources)
        pairs.append(CityPair(0, 299, 0.0))  # target isolated: unreachable
        assert len(pair_index(pairs).source_cities) in (num_sources, num_sources + 1)
        rtts = _pair_rtts_on_graph(graph, pairs)
        reference = _all_sources_rtts(graph, pairs)
        assert np.isinf(rtts[-1])
        assert rtts.tobytes() == reference.tobytes()

    def test_real_graph(self, tiny_scenario, tiny_hybrid_graph):
        rtts = _pair_rtts_on_graph(tiny_hybrid_graph, tiny_scenario.pairs)
        reference = _all_sources_rtts(tiny_hybrid_graph, tiny_scenario.pairs)
        assert rtts.tobytes() == reference.tobytes()


class TestPairPathsMatchPerSource:
    @staticmethod
    def _per_source_paths(graph, pairs):
        matrix = graph.matrix()
        out = []
        for pair in pairs:
            source = graph.num_sats + pair.a
            _, pred = csgraph.dijkstra(
                matrix, directed=True, indices=source, return_predecessors=True
            )
            out.append(extract_path(pred, source, graph.num_sats + pair.b))
        return out

    @pytest.mark.parametrize("num_sources", [BATCH - 1, BATCH + 1])
    def test_random_graph(self, num_sources):
        graph = _random_graph(40, 200, seed=num_sources, isolated=4)
        pairs = _pairs_with_sources(num_sources, 200, seed=num_sources + 1)
        pairs.append(CityPair(3, 199, 0.0))
        found = pair_paths_on_graph(graph, pairs)
        assert found[-1] is None
        assert found == self._per_source_paths(graph, pairs)

    def test_real_graphs(self, tiny_scenario, tiny_bp_graph, tiny_hybrid_graph):
        for graph in (tiny_bp_graph, tiny_hybrid_graph):
            found = pair_paths_on_graph(graph, tiny_scenario.pairs)
            assert found == self._per_source_paths(graph, tiny_scenario.pairs)

    def test_out_of_range_city_raises(self, tiny_bp_graph):
        with pytest.raises(IndexError):
            pair_paths_on_graph(tiny_bp_graph, [CityPair(0, 10**6, 0.0)])


class TestRttRowMemory:
    def test_peak_below_two_batch_blocks(self):
        # Three batches of sources on a 20,000-node graph: one all-sources
        # call would hold a (192 x 20,000) float64 block, three batch
        # blocks; the batched row holds one at a time.
        num_sats, num_gts = 2_000, 18_000
        graph = _random_graph(num_sats, num_gts, seed=11)
        pairs = _pairs_with_sources(3 * BATCH, num_gts, seed=12)
        assert len(pair_index(pairs).source_cities) == 3 * BATCH
        graph.matrix()
        block = BATCH * (num_sats + num_gts) * 8
        tracemalloc.start()
        try:
            rtts = _pair_rtts_on_graph(graph, pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(rtts).all()
        assert peak < 2 * block
