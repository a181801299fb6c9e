"""The snapshot pipeline: RTT series for a traffic matrix over a day.

For each snapshot, shortest-path RTTs for every city pair are computed
with source-batched Dijkstra: pairs are grouped by source city, one
single-source run serves every pair sharing that source, and the
searches run a fixed number of sources at a time. This is the
workhorse behind the paper's Section 4 (Fig. 2) analysis;
:func:`compute_rtt_series_multi` is its one sweep entry point.

The RTT row searches the snapshot's relay contraction
(:mod:`repro.network.contraction`), not the full graph: relays and
aircraft are pure pass-throughs, so the satellites and cities with one
shortcut per satellite pair that shares a relay carry every path (the
paper graph shrinks from 66,528 nodes to 2,584). The row stays byte-identical
to a full-graph Dijkstra: a cell is either certified (its contracted
path is the only path within ``ETA = 1e-12`` relative of the shortest,
so the path's original edge lengths summed in path order are the full
graph's value) or repaired by a Dijkstra search over the original edges
of every near-shortest path. ``ETA`` bounds the float rounding of sums
along paths of up to ~90 edges, ``5 * h * 2**-53``, with a factor of 20
to spare. Per-pair paths (:func:`pair_paths_on_graph`) and routing still
search the full graph, whose tie-breaking fixes the paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from repro.constants import SPEED_OF_LIGHT
from repro.core.parallel import FaultPolicy, map_snapshot_rows
from repro.core.scenario import Scenario
from repro.obs import span
from repro.flows.traffic import CityPair, pair_index
from repro.integrity.guards import check_graph, check_rtt_series, strict_enabled
from repro.network.contraction import contracted_graph
from repro.network.graph import ConnectivityMode, SnapshotGraph
from repro.network.paths import Path, extract_path, source_batched_dijkstra

__all__ = [
    "RttSeries",
    "compute_rtt_series_multi",
    "pair_path_at",
    "pair_paths_on_graph",
]


@dataclass(frozen=True)
class RttSeries:
    """RTT (ms) for each pair at each snapshot; ``inf`` = unreachable."""

    mode: ConnectivityMode
    times_s: np.ndarray
    rtt_ms: np.ndarray  # shape (num_pairs, num_snapshots)

    @property
    def num_pairs(self) -> int:
        return self.rtt_ms.shape[0]

    @property
    def num_snapshots(self) -> int:
        return self.rtt_ms.shape[1]

    def reachable_fraction(self) -> float:
        """Fraction of (pair, snapshot) cells with a usable path."""
        return float(np.mean(np.isfinite(self.rtt_ms)))


def _pair_rtts_on_graph(graph: SnapshotGraph, pairs: list[CityPair]) -> np.ndarray:
    """Shortest-path RTT in ms for every pair on one snapshot graph.

    The one RTT-row function. It searches the graph's relay contraction
    (:mod:`repro.network.contraction`: satellites and cities only),
    source-batched and forked like every search
    (:func:`repro.network.paths.source_batched_dijkstra`), and reports
    each cell exactly as a Dijkstra search of the full graph would: a
    certified cell as its expanded path's path-order sum, any other from
    a repair search on a few original edges. The full graph's matrix is
    never built.
    """
    if not pairs:
        return np.full(0, np.inf)
    index = pair_index(pairs)
    _, target_nodes = index.gt_nodes(graph.num_sats, graph.stations.city_count)
    with span("dijkstra"):
        contracted = contracted_graph(graph)
        dist_m, _ = source_batched_dijkstra(
            contracted.matrix,
            graph.num_sats + index.source_cities,
            index.source_row,
            target_nodes,
            answer=contracted.exact_distances,
        )
    return np.where(np.isfinite(dist_m), 2e3 * dist_m / SPEED_OF_LIGHT, np.inf)


def _rtt_row(scenario, time_s, mode) -> np.ndarray:
    """The RTT evaluator: one snapshot's RTT row, strict-checked."""
    graph = scenario.graph_at(float(time_s), mode)
    if strict_enabled():
        check_graph(graph, source=f"graph[t={float(time_s):g}s]")
    return _pair_rtts_on_graph(graph, scenario.pairs)


def compute_rtt_series_multi(
    scenario: Scenario,
    modes,
    progress=None,
    checkpoints=None,
    *,
    processes: int = 1,
    policy: FaultPolicy | None = None,
    fault_hook=None,
) -> "dict[ConnectivityMode, RttSeries]":
    """RTTs of every scenario pair across every snapshot, for each mode.

    The RTT evaluator over the snapshot map
    (:func:`repro.core.parallel.map_snapshot_rows`); a single mode is
    ``compute_rtt_series_multi(scenario, [mode])[mode]``. In-process
    (the default, ``processes=1``) the sweep is time-outer, mode-inner:
    every requested mode of one snapshot assembles from the same cached
    geometry frame before the sweep moves to the next time, so a BP +
    hybrid comparison pays for satellite propagation and KD-tree
    visibility queries once per snapshot. ``processes > 1`` fans the
    snapshots out over a fault-tolerant worker pool (``policy`` and the
    ``fault_hook`` test seam as documented there) with bit-identical
    results.

    ``progress`` (optional) is called as ``progress(done, total)`` as
    snapshots (all modes of them) complete. ``checkpoints`` (optional)
    maps modes to :class:`repro.core.checkpoint.SnapshotCheckpoint`
    instances; modes without an entry fall back to the ambient
    checkpoint root when one is active, so a sweep resumes from its
    verified shards and persists each new row as it lands.
    """
    modes = list(modes)
    rows = map_snapshot_rows(
        scenario,
        modes,
        _rtt_row,
        row_len=len(scenario.pairs),
        processes=processes,
        checkpoints=checkpoints,
        policy=policy,
        progress=progress,
        fault_hook=fault_hook,
    )
    series = {
        mode: RttSeries(mode=mode, times_s=scenario.times_s, rtt_ms=rows[mode])
        for mode in modes
    }
    if strict_enabled():
        for mode in modes:
            check_rtt_series(series[mode], scenario.pairs, source=f"rtt[{mode.value}]")
    return series


def pair_paths_on_graph(
    graph: SnapshotGraph, pairs: list[CityPair]
) -> list[tuple[int, ...] | None]:
    """Shortest-path node sequences for many pairs on one graph.

    Source-batched like the RTT row: one predecessor-producing search
    per unique source city serves all pairs sharing it. Unreachable
    pairs yield ``None``.
    """
    index = pair_index(pairs)
    _, target_nodes = index.gt_nodes(graph.num_sats, graph.num_gts)
    with span("dijkstra"):
        _, paths = source_batched_dijkstra(
            graph.matrix(),
            graph.num_sats + index.source_cities,
            index.source_row,
            target_nodes,
            paths=True,
        )
    return paths


def pair_path_at(
    scenario: Scenario,
    pair: CityPair,
    time_s: float,
    mode: ConnectivityMode,
) -> tuple[SnapshotGraph, Path | None]:
    """The actual shortest path (nodes) for one pair at one snapshot.

    Used by the Fig. 3 / Fig. 7-8 case studies that need hop-level
    detail, not just the RTT.
    """
    graph = scenario.graph_at(time_s, mode)
    source = graph.gt_node(pair.a)
    target = graph.gt_node(pair.b)
    dist, pred = csgraph.dijkstra(
        graph.matrix(), directed=True, indices=source, return_predecessors=True
    )
    nodes = extract_path(pred, source, target)
    if nodes is None:
        return graph, None
    return graph, Path(nodes=nodes, length_m=float(dist[target]))
