"""Shortest paths and k edge-disjoint shortest paths.

The paper routes every city pair over its shortest path (latency study,
Section 4) or its k edge-disjoint shortest paths (throughput study,
Section 5, k = 1 and 4). We use scipy's C Dijkstra on the snapshot
graph's CSR matrix; edge-disjoint paths come from the standard iterative
scheme — find the shortest path, delete its edges, repeat — which is the
model floodns-based setups use.

Batching note: single-source Dijkstra already yields distances to *all*
targets, so the latency and routing layers group city pairs by source and
run :func:`source_batched_dijkstra`, a fixed number of sources per call.
Each source's search is independent, so a batch's rows equal the same
rows of one all-sources call bit for bit, while no call materializes more
than ``_SOURCE_BATCH`` rows of the dense (sources x nodes) result.

Worker note: one snapshot's searches are independent too, and
``csgraph.dijkstra`` holds the GIL, so threads cannot share them out.
:func:`fork_map` runs chunks of them in processes forked *after* the
graph exists: the CSR matrix, edge tables and pair index are shared
copy-on-write, a child that mutates ``matrix.data`` (the disjoint rounds
of :mod:`repro.flows.routing`) only dirties its own copy of those pages,
and each child sends its chunk back as a few flat numpy arrays plus its
``repro.obs`` counters (not its spans, so span times stay parent wall
time). The worker count is derived, not configured: every usable core
(``os.sched_getaffinity``) where ``os.fork`` exists, capped so each
worker gets at least ``_FORK_MIN_WORK`` of search work; one inside a
snapshot-pool worker (:func:`repro.core.parallel.map_snapshot_rows` with
``processes > 1``), whose cores already go to snapshots, and one while
other threads run, whose held locks a child would inherit. With one worker
the single chunk runs in-process through the same code, so results,
paths and counters never depend on the worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro import obs
from repro.obs import span

__all__ = [
    "Path",
    "shortest_path",
    "shortest_paths_from",
    "extract_path",
    "source_batched_dijkstra",
    "fork_map",
    "pack_paths",
    "unpack_paths",
    "k_edge_disjoint_paths",
    "k_node_disjoint_paths",
]


#: Sources per batched Dijkstra call. Bounds the dense (sources x nodes)
#: distance/predecessor block one call materializes: 64 x 66,528 nodes x
#: 12 B (float64 distance + int32 predecessor) is ~51 MB on the paper
#: graph, where one all-sources call at 5,000 pairs (892 sources) would
#: hold 475 MB of distances alone.
_SOURCE_BATCH = 64

#: Least search work, in searches x matrix entries, each forked worker
#: must get. A search costs ~18 ns per CSR entry on a 2-core x86 host (one
#: paper-graph search ~20 ms at 1.13M entries, one throughput-default
#: search ~1.4 ms at 89k), and a fork-and-collect round trip ~8-12 ms at
#: 200 MB RSS. 4M entries is ~70 ms of search, ~7 round trips: at the
#: cap two workers finish in ~80 ms what one process does in ~140 ms,
#: and below it the fork would eat most of the gain. Tiny, test and
#: smoke graphs (23-30k entries, a few dozen searches) stay in-process.
_FORK_MIN_WORK = 4_000_000

#: True inside a :func:`fork_map` child, which never forks again.
_IN_FORK_CHILD = False


@dataclass(frozen=True)
class Path:
    """A node path with its total metric length (metres on our graphs)."""

    nodes: tuple[int, ...]
    length_m: float

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Consecutive ``(u, v)`` node pairs along the path."""
        return list(zip(self.nodes[:-1], self.nodes[1:]))


def shortest_paths_from(matrix: sparse.csr_matrix, source: int):
    """Distances and predecessors from one source to every node.

    Returns ``(dist, pred)`` arrays; unreachable nodes have
    ``dist = inf`` and ``pred = -9999`` (scipy's sentinel).
    """
    with span("dijkstra"):
        dist, pred = csgraph.dijkstra(
            matrix, directed=True, indices=source, return_predecessors=True
        )
    return dist, pred


def source_batched_dijkstra(
    matrix: sparse.csr_matrix,
    sources,
    source_row,
    targets,
    *,
    paths: bool = False,
    answer=None,
):
    """Shortest distances (and paths) for many (source, target) queries.

    Query ``q`` asks for the distance from ``sources[source_row[q]]`` to
    node ``targets[q]``. The sources split into equal contiguous groups,
    one per worker (:func:`fork_map`); each group searches
    ``_SOURCE_BATCH`` sources per ``csgraph.dijkstra`` call, and each
    batch's queries are answered before the next batch runs, so the
    dense (sources x nodes) block of one call is the most a process
    holds at once. Returns ``(dist, nodes)``: ``dist`` the per-query
    distances (``inf`` when unreachable), bit for bit the entries of one
    all-sources call; ``nodes`` the per-query node paths (``None`` when
    unreachable) when ``paths`` is set, else ``None``. ``answer``
    (optional, distances only) replaces the gather of a batch's query
    distances from its block: it is called as ``answer(block, batch
    sources, query rows, query targets)`` and returns the distances
    (the relay contraction's exact distances, say).
    """
    sources = np.asarray(sources)
    source_row = np.asarray(source_row)
    targets = np.asarray(targets)
    order = np.argsort(source_row, kind="stable")
    workers = _worker_count(len(sources), matrix.nnz)
    group_starts = np.arange(workers + 1) * len(sources) // workers
    group_bounds = np.searchsorted(source_row[order], group_starts)

    def search_group(group: int):
        queries = order[group_bounds[group] : group_bounds[group + 1]]
        first, last = group_starts[group], group_starts[group + 1]
        starts = np.append(np.arange(first, last, _SOURCE_BATCH), last)
        bounds = np.searchsorted(source_row[queries], starts)
        dist = np.empty(len(queries))
        found = []
        for batch, (start, stop) in enumerate(zip(starts[:-1], starts[1:])):
            part = slice(bounds[batch], bounds[batch + 1])
            dist[part], batch_paths = _answer_batch(
                matrix,
                sources[start:stop],
                source_row[queries[part]] - start,
                targets[queries[part]],
                paths,
                answer,
            )
            found.extend(batch_paths)
        return queries, dist, pack_paths(found) if paths else None

    dist = np.empty(len(targets))
    nodes = [None] * len(targets) if paths else None
    for queries, group_dist, packed in fork_map(search_group, workers):
        dist[queries] = group_dist
        if paths:
            for query, path in zip(queries.tolist(), unpack_paths(*packed)):
                nodes[query] = path
    return dist, nodes


def _answer_batch(matrix, chunk, rows, query_targets, paths: bool, answer):
    """One batch of :func:`source_batched_dijkstra`: ``(dist, paths)``.

    ``rows`` indexes each query's source within ``chunk``. A function of
    its own so the batch's dense block is freed on return, before the
    next batch's search allocates its own.
    """
    result = csgraph.dijkstra(
        matrix, directed=True, indices=chunk, return_predecessors=paths
    )
    block, pred = result if paths else (result, None)
    if answer is not None:
        return answer(block, chunk, rows, query_targets), []
    dist = block[rows, query_targets]
    if not paths:
        return dist, []
    return dist, [
        extract_path(pred[row], int(chunk[row]), target)
        for row, target in zip(rows.tolist(), query_targets.tolist())
    ]


def pack_paths(paths) -> "tuple[np.ndarray, np.ndarray]":
    """Node paths (tuples, ``None`` when absent) as two flat arrays.

    Returns ``(counts, nodes)``: each path's node count (0 for ``None``)
    and every path's nodes back to back — the compact form a forked
    worker sends instead of per-path Python objects.
    """
    counts = np.fromiter(
        (0 if p is None else len(p) for p in paths), dtype=np.int64, count=len(paths)
    )
    nodes = np.fromiter(
        (node for p in paths if p is not None for node in p),
        dtype=np.int64,
        count=int(counts.sum()),
    )
    return counts, nodes


def unpack_paths(counts, nodes) -> "list[tuple[int, ...] | None]":
    """Inverse of :func:`pack_paths`: the node tuples, ``None`` for 0."""
    flat = np.asarray(nodes).tolist()
    out: "list[tuple[int, ...] | None]" = []
    end = 0
    for count in np.asarray(counts).tolist():
        start, end = end, end + count
        out.append(tuple(flat[start:end]) if count else None)
    return out


def _worker_count(searches: int, nnz: int) -> int:
    """Processes to spread ``searches`` over a matrix of ``nnz`` entries.

    Every usable core where ``os.fork`` exists, capped so each worker
    gets at least ``_FORK_MIN_WORK`` of search work. Exactly one
    inside a snapshot-pool worker or a :func:`fork_map` child, so cores
    go either to snapshots or to searches, never both, and while other
    threads run, since a forked child would inherit any lock they hold.
    """
    if (
        not hasattr(os, "fork")
        or _IN_FORK_CHILD
        or multiprocessing.parent_process() is not None
        or threading.active_count() > 1
    ):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(cores, searches * nnz // _FORK_MIN_WORK))


def fork_map(fn, n: int) -> list:
    """``[fn(i) for i in range(n)]``, chunks 1..n-1 in forked children.

    The parent runs chunk 0 itself; chunk ``i >= 1`` runs in a child
    forked before chunk 0 starts, so it sees the caller's state
    copy-on-write, and pickles ``fn(i)`` back through a pipe. The parent
    reads the children one at a time in chunk order and reaps each with
    ``waitpid``. A child's exception is re-raised in the parent with its
    type. A chunk whose child dies without a result (OOM kill, say), or
    could not be forked at all, is recomputed in-process and counted as
    ``search.fork_fallbacks``, so the result never changes. Children
    send their ``repro.obs`` counters back (merged into the active
    registry) but not their spans. With ``n <= 1`` nothing forks.
    """
    if n <= 1:
        return [fn(i) for i in range(n)]
    children: "dict[int, tuple[int, int]]" = {}  # chunk -> (pid, read end)
    try:
        for chunk in range(1, n):
            try:
                children[chunk] = _fork_chunk(fn, chunk, children)
            except OSError:
                break  # Out of processes or memory: the rest run here.
        results = [fn(0)]
        for chunk in range(1, n):
            if chunk not in children:
                obs.incr("search.fork_fallbacks")
                results.append(fn(chunk))
                continue
            pid, read_end = children.pop(chunk)
            try:
                with os.fdopen(read_end, "rb") as pipe:
                    message = pipe.read()
            finally:
                os.waitpid(pid, 0)
            results.append(_child_result(fn, chunk, message))
        return results
    finally:
        # Only reached with children left when the parent itself failed:
        # stop them rather than wait for chunks nobody will read.
        for pid, read_end in children.values():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_chunk(fn, chunk: int, children) -> "tuple[int, int]":
    """Fork the child that computes ``chunk``; returns ``(pid, read end)``."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        os.close(read_end)
        for _, other in children.values():
            os.close(other)
        _run_child(fn, chunk, write_end)
    os.close(write_end)
    return pid, read_end


def _run_child(fn, chunk: int, write_end: int) -> None:
    """A forked chunk's whole life: compute, send, exit; never returns.

    ``os._exit`` in the ``finally`` keeps every outcome — a result, an
    exception, a broken pipe — from unwinding into the caller's stack,
    where the child would go on running the parent's code.
    """
    global _IN_FORK_CHILD
    try:
        _IN_FORK_CHILD = True
        try:
            collecting = obs.active_registry() is not None
            with obs.observe() if collecting else nullcontext() as registry:
                value = fn(chunk)
            counters = registry.snapshot()["counters"] if collecting else {}
            message = pickle.dumps(
                ("ok", value, counters), protocol=pickle.HIGHEST_PROTOCOL
            )
        except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
            message = _error_message(exc, chunk)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(message)
    finally:
        os._exit(0)


def _error_message(exc: BaseException, chunk: int) -> bytes:
    """Pickled ``("error", exc)``, the traceback attached as a note."""
    if hasattr(exc, "add_note"):  # Python 3.11+
        exc.add_note(
            f"raised in search worker {chunk}:\n"
            + "".join(traceback.format_exception(exc))
        )
    try:
        return pickle.dumps(("error", exc))
    except Exception:  # noqa: BLE001 - unpicklable: keep type name and text
        return pickle.dumps(("error", RuntimeError(f"{type(exc).__name__}: {exc}")))


def _child_result(fn, chunk: int, message: bytes):
    """A child's chunk from its pipe bytes; recomputed if it sent none."""
    try:
        status, *payload = pickle.loads(message)
    except Exception:  # noqa: BLE001 - died mid-write or before writing
        obs.incr("search.fork_fallbacks")
        return fn(chunk)
    if status == "error":
        raise payload[0]
    value, counters = payload
    obs.merge_payload({"counters": counters})
    return value


def extract_path(pred: np.ndarray, source: int, target: int) -> tuple[int, ...] | None:
    """Rebuild the node path from a predecessor array, or ``None``."""
    if target == source:
        return (source,)
    if pred[target] < 0:
        return None
    nodes = [target]
    node = target
    while node != source:
        node = int(pred[node])
        if node < 0 or len(nodes) > len(pred):
            return None  # Corrupt predecessor chain; treat as unreachable.
        nodes.append(node)
    nodes.reverse()
    return tuple(nodes)


def shortest_path(
    matrix: sparse.csr_matrix, source: int, target: int
) -> Path | None:
    """Single-pair shortest path, or ``None`` when disconnected."""
    with span("dijkstra"):
        dist, pred = csgraph.dijkstra(
            matrix,
            directed=True,
            indices=source,
            return_predecessors=True,
            min_only=False,
        )
    nodes = extract_path(pred, source, target)
    if nodes is None:
        return None
    return Path(nodes=nodes, length_m=float(dist[target]))


def _edge_data_positions(
    matrix: sparse.csr_matrix, u: int, v: int
) -> list[int]:
    """Positions in ``matrix.data`` holding entry (u, v).

    CSR column indices are sorted within each row (scipy guarantees this
    after construction), so a binary search finds the slot.
    """
    start, end = matrix.indptr[u], matrix.indptr[u + 1]
    columns = matrix.indices[start:end]
    pos = int(np.searchsorted(columns, v))
    if pos < len(columns) and columns[pos] == v:
        return [start + pos]
    return []


def k_edge_disjoint_paths(
    matrix: sparse.csr_matrix, source: int, target: int, k: int
) -> list[Path]:
    """Up to ``k`` mutually edge-disjoint shortest paths.

    Greedy-iterative: take the current shortest path, remove its edges
    (both directions — the graph is undirected), repeat. Fewer than ``k``
    paths are returned when the graph runs out of disjoint routes. The
    input matrix is modified in place during the search and fully
    restored before returning.

    This is the routing model the paper evaluates; it is *not* a max-flow
    decomposition — successive paths get strictly longer, matching how
    multipath routing would actually be deployed (and matching floodns
    usage in the paper's experiments).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    paths: list[Path] = []
    touched_positions: list[int] = []
    touched_values: list[float] = []
    try:
        for _ in range(k):
            path = shortest_path(matrix, source, target)
            if path is None:
                break
            paths.append(path)
            for u, v in path.edge_pairs():
                for a, b in ((u, v), (v, u)):
                    for pos in _edge_data_positions(matrix, a, b):
                        touched_positions.append(pos)
                        touched_values.append(float(matrix.data[pos]))
                        matrix.data[pos] = np.inf
    finally:
        for pos, value in zip(touched_positions, touched_values):
            matrix.data[pos] = value
    return paths


def _remove_node(matrix: sparse.csr_matrix, node: int, touched_positions, touched_values):
    """Disable all edges incident to ``node`` in place (both directions)."""
    start, end = matrix.indptr[node], matrix.indptr[node + 1]
    for pos in range(start, end):
        neighbour = int(matrix.indices[pos])
        if np.isfinite(matrix.data[pos]):
            touched_positions.append(pos)
            touched_values.append(float(matrix.data[pos]))
            matrix.data[pos] = np.inf
        for back in _edge_data_positions(matrix, neighbour, node):
            if np.isfinite(matrix.data[back]):
                touched_positions.append(back)
                touched_values.append(float(matrix.data[back]))
                matrix.data[back] = np.inf


def k_node_disjoint_paths(
    matrix: sparse.csr_matrix, source: int, target: int, k: int
) -> list[Path]:
    """Up to ``k`` paths sharing no *intermediate* nodes (D3 ablation).

    Stricter than edge-disjointness: after each shortest path, every
    intermediate node (all its incident edges) is removed. Node-disjoint
    paths cannot even share a satellite, which matters when the resource
    under contention is the satellite itself rather than a link. The
    matrix is restored before returning.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    paths: list[Path] = []
    touched_positions: list[int] = []
    touched_values: list[float] = []
    try:
        for _ in range(k):
            path = shortest_path(matrix, source, target)
            if path is None:
                break
            paths.append(path)
            for node in path.nodes[1:-1]:
                _remove_node(matrix, node, touched_positions, touched_values)
            if len(path.nodes) == 2:
                # Direct edge: remove it explicitly (no intermediates).
                for a, b in ((source, target), (target, source)):
                    for pos in _edge_data_positions(matrix, a, b):
                        if np.isfinite(matrix.data[pos]):
                            touched_positions.append(pos)
                            touched_values.append(float(matrix.data[pos]))
                            matrix.data[pos] = np.inf
    finally:
        for pos, value in zip(touched_positions, touched_values):
            matrix.data[pos] = value
    return paths
