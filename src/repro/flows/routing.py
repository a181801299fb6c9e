"""Route the traffic matrix over k edge-disjoint shortest paths.

Each city pair becomes up to ``k`` sub-flows, one per edge-disjoint
shortest path (paper Section 5). Sub-flows are independent entities in
the max-min allocation — because the paths are edge-disjoint, sub-flows
of the same pair never compete with each other.

Routing is *source-batched*: round 1 of the greedy disjoint scheme runs
on the pristine matrix for every pair, so one predecessor-producing
Dijkstra per unique source city serves every pair sharing that source
(exactly how the RTT pipeline batches). Only rounds 2..k — which search
a matrix with the pair's earlier paths deleted — fall back to per-pair
Dijkstra; at k = 1 no per-pair search runs at all. Edge ids and the CSR
slots to delete come from vectorized lookups cached on the graph
(:meth:`SnapshotGraph.edge_ids_for_pairs` /
:meth:`SnapshotGraph.edge_csr_positions`) instead of per-hop dict
probes.

Rounds 2..k are *radius-bounded*: round j searches only out to
``_ROUND_BOUND`` times the length of round j-1's path (scipy's
``limit``), and repeats the search once without a limit when the target
is left unreached. The result is exact: a round's path is never shorter
than the previous round's (each round searches a subgraph of the last
one), and a target reached within the limit has its exact distance and
predecessor chain. The bound is applied through scipy's own ``limit``
rather than a different search (A* reweighting, tree repair) because
exact ties are common — co-located satellites give equal-length
alternatives — and which alternative wins depends on the search's scan
order. A limited scipy search differs from the unlimited one only in
the nodes it never pushes, and the differential tests pin its paths to
the unbounded reference :func:`repro.network.paths.k_edge_disjoint_paths`.
A retry is skipped when the bounded search provably pruned nothing
(farthest settled node plus the longest edge within the limit), which
is how a pair whose source is cut off fails without a second search.
Retries are counted as ``routing.bounded_retries``;
``routing.pair_dijkstras`` still counts one search per round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from repro.flows.traffic import CityPair, pair_index
from repro.network.graph import SnapshotGraph
from repro.network.paths import Path, extract_path, source_batched_dijkstra
from repro.obs import incr, span, traced

__all__ = [
    "SubFlow",
    "RoutedTraffic",
    "route_traffic",
    "route_traffic_multi_k",
]

#: Search radius of disjoint round j >= 2, as a multiple of round j-1's
#: path length. Smaller radii prune more but retry more often; 1.2 was
#: fastest on the paper graph and on the throughput-default scale, with
#: 1-3% of searches retried.
_ROUND_BOUND = 1.2


@dataclass(frozen=True)
class SubFlow:
    """One routed sub-flow: a pair index, its path, and graph edge ids."""

    pair_index: int
    path: Path
    edge_ids: np.ndarray


@dataclass(frozen=True)
class RoutedTraffic:
    """All sub-flows routed on one snapshot graph."""

    graph: SnapshotGraph
    subflows: list[SubFlow]
    unrouted_pairs: list[int]

    @property
    def num_subflows(self) -> int:
        return len(self.subflows)

    def flow_edge_lists(self) -> list[np.ndarray]:
        """Per-subflow edge-id arrays, the max-min allocator's input."""
        return [sf.edge_ids for sf in self.subflows]


def _path_edge_ids(graph: SnapshotGraph, path: Path) -> np.ndarray:
    nodes = np.asarray(path.nodes, dtype=np.int64)
    return graph.edge_ids_for_pairs(nodes[:-1], nodes[1:])


def _batch_edge_ids(graph: SnapshotGraph, paths: list[Path]) -> list[np.ndarray]:
    """Edge ids of many paths, resolved in one vectorized lookup."""
    if not paths:
        return []
    nodes = [np.asarray(p.nodes, dtype=np.int64) for p in paths]
    hops = graph.edge_ids_for_pairs(
        np.concatenate([n[:-1] for n in nodes]),
        np.concatenate([n[1:] for n in nodes]),
    )
    counts = np.array([len(n) - 1 for n in nodes])
    return np.split(hops, np.cumsum(counts)[:-1])


def _first_round_paths(graph: SnapshotGraph, index) -> "list[Path | None]":
    """Round-1 shortest path for every pair, batched by source city."""
    with span("dijkstra"):
        dist, nodes = source_batched_dijkstra(
            graph.matrix(),
            graph.num_sats + index.source_cities,
            index.source_row,
            graph.num_sats + index.targets,
            paths=True,
        )
    incr("routing.batched_dijkstras", len(index.source_cities))
    return [
        None if path is None else Path(nodes=path, length_m=float(length))
        for path, length in zip(nodes, dist.tolist())
    ]


def _extra_disjoint_paths(
    graph: SnapshotGraph,
    matrix,
    source: int,
    target: int,
    k: int,
    first: Path,
    first_ids: np.ndarray,
    max_edge_m: float,
) -> "list[tuple[Path, np.ndarray]]":
    """Rounds 2..k of the greedy edge-disjoint scheme, round 1 given.

    The matrix is modified in place (each found path's edges deleted in
    both directions) and fully restored before returning, matching
    :func:`repro.network.paths.k_edge_disjoint_paths`. Each search is
    bounded by ``_ROUND_BOUND`` times the previous path's length and
    repeated without a bound when that leaves the target unreached;
    ``max_edge_m`` (the graph's longest edge) tells when the bounded
    search pruned nothing, so a retry could not find the target either.
    """
    found = [(first, first_ids)]
    touched: "list[tuple[np.ndarray, np.ndarray]]" = []
    searches = retries = 0
    try:
        positions = graph.edge_csr_positions(first_ids)
        matrix.data[positions] = np.inf
        touched.append((positions, first_ids))
        while len(found) < k:
            searches += 1
            limit = _ROUND_BOUND * found[-1][0].length_m
            dist, pred = _dijkstra_from(matrix, source, limit)
            if not np.isfinite(dist[target]):
                reach = np.max(dist, where=np.isfinite(dist), initial=0.0)
                if reach + max_edge_m > limit:
                    retries += 1
                    dist, pred = _dijkstra_from(matrix, source, np.inf)
            nodes = extract_path(pred, source, target)
            if nodes is None:
                break
            path = Path(nodes=nodes, length_m=float(dist[target]))
            ids = _path_edge_ids(graph, path)
            found.append((path, ids))
            positions = graph.edge_csr_positions(ids)
            matrix.data[positions] = np.inf
            touched.append((positions, ids))
    finally:
        for positions, ids in touched:
            # Both directed entries of an edge hold its distance.
            matrix.data[positions] = np.repeat(graph.edge_dist_m[ids], 2)
        if searches:
            incr("routing.pair_dijkstras", searches)
        if retries:
            incr("routing.bounded_retries", retries)
    return found


def _dijkstra_from(matrix, source: int, limit: float):
    """One-source ``(dist, pred)`` search out to distance ``limit``.

    csgraph.dijkstra directly, not the shortest_path wrapper: a per-call
    span on a sub-millisecond search is measurable overhead at this call
    rate; the enclosing disjoint_rounds span carries the aggregate
    timing. min_only skips the multi-source bookkeeping (identical
    dist/pred for one source) and shaves a few percent per search.
    """
    dist, pred, _ = csgraph.dijkstra(
        matrix,
        directed=True,
        indices=[source],
        return_predecessors=True,
        limit=limit,
        min_only=True,
    )
    return dist, pred


@traced("routing")
def route_traffic_multi_k(
    graph: SnapshotGraph,
    pairs: list[CityPair],
    ks,
) -> "dict[int, RoutedTraffic]":
    """Route every pair for several path counts, sharing round 1.

    The round-1 path of the greedy disjoint scheme is searched on the
    pristine matrix and therefore identical for every ``k`` — computing
    k = 1 and k = 4 together (as Fig. 4 does) pays for the batched
    source Dijkstras once. Returns ``{k: RoutedTraffic}`` with results
    identical to separate :func:`route_traffic` calls.
    """
    ks = tuple(dict.fromkeys(int(k) for k in ks))
    if not ks:
        raise ValueError("ks must name at least one path count")
    if min(ks) < 1:
        raise ValueError("k must be >= 1")
    index = pair_index(pairs)
    # One bounds check for the whole pair list (mirrors graph.gt_node).
    source_nodes, target_nodes = index.gt_nodes(graph.num_sats, graph.num_gts)
    matrix = graph.matrix()
    max_edge_m = float(graph.edge_dist_m.max(initial=0.0))

    with span("first_round"):
        first_paths = _first_round_paths(graph, index)
        routed_indices = [i for i, p in enumerate(first_paths) if p is not None]
        first_ids: "list[np.ndarray | None]" = [None] * index.num_pairs
        for pidx, ids in zip(
            routed_indices,
            _batch_edge_ids(graph, [first_paths[i] for i in routed_indices]),
        ):
            first_ids[pidx] = ids

    results: "dict[int, RoutedTraffic]" = {}
    for k in ks:
        subflows: list[SubFlow] = []
        unrouted: list[int] = []
        with span("disjoint_rounds"):
            for pidx in range(index.num_pairs):
                first = first_paths[pidx]
                if first is None:
                    incr("routing.unrouted_pairs")
                    unrouted.append(pidx)
                    continue
                if k == 1:
                    routed = [(first, first_ids[pidx])]
                else:
                    routed = _extra_disjoint_paths(
                        graph,
                        matrix,
                        int(source_nodes[pidx]),
                        int(target_nodes[pidx]),
                        k,
                        first,
                        first_ids[pidx],
                        max_edge_m,
                    )
                for path, ids in routed:
                    subflows.append(
                        SubFlow(pair_index=pidx, path=path, edge_ids=ids)
                    )
        results[k] = RoutedTraffic(
            graph=graph, subflows=subflows, unrouted_pairs=unrouted
        )
    return results


def route_traffic(
    graph: SnapshotGraph,
    pairs: list[CityPair],
    k: int = 1,
) -> RoutedTraffic:
    """Route every city pair over its k edge-disjoint shortest paths.

    City indices in ``pairs`` refer to the station table's city block
    (indices ``[0, city_count)``), which maps directly onto graph nodes.
    Pairs with no path at this snapshot are recorded in
    ``unrouted_pairs`` rather than silently dropped.
    """
    return route_traffic_multi_k(graph, pairs, (k,))[int(k)]
