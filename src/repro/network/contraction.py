"""Relay contraction: the small graph an RTT row searches.

In a snapshot graph every relay GT and every aircraft is a pure
pass-through: a path enters it from one satellite and leaves it to
another (sat -> GT -> sat). The *contracted graph* keeps the satellites
and the city GTs, with their node ids unchanged (satellites ``[0, S)``,
cities ``[S, S + C)``), and these edges:

* the original city up-links, ISLs and fiber edges (fiber joins two
  cities, and cities are kept nodes);
* one *shortcut* per satellite pair ``(a, b)`` that shares a relay or
  aircraft GT, weighted ``min_g fl(w(a, g) + w(g, b))``, with the argmin
  GT and its two edge lengths stored.

Where a pair has an ISL and a shortcut, its one entry takes the lighter.
On the paper graph (Starlink, 1,000 cities, 0.5 degree relays, t = 0, BP)
that is 2,584 nodes and ~59k CSR entries instead of 66,528 and 1.14M.
The shortcut table depends on the GT-satellite edges only, so
:class:`repro.core.engine.GeometryFrame` memoizes it for the graphs
assembled from it unfiltered; GSO-filtered, beam-limited and faulted
graphs build their own from their own edges.

**Exactness.** scipy's Dijkstra returns, for each node, the minimum over
paths of the path's length summed in path order in floating point:
``fl(x + w)`` is monotone in ``x``, so the textbook argument holds for
float sums. A contracted search adds ``w(a, g) + w(g, b)`` first, which
can change the last bit. :meth:`ContractedGraph.exact_distances`
therefore reports, for each pair, the path-order sum of the *expanded*
contracted path, and only when a certificate shows that no other path
of the full graph can come within rounding of it. With ``d`` the
source's contracted distances and ``c = d[t]``:

* an entry ``u -> v`` is *tight* when ``fl(d[u] + w) - d[v] <= ETA * c``.
  Reduced costs ``fl(d[u] + w) - d[v]`` are never negative and along any
  s-t path they sum to its excess over ``c`` (plus rounding), so every
  path within rounding of the shortest uses tight entries only;
* certified: walking back from ``t``, every node has exactly one tight
  incoming entry, and no shortcut on the path has a second alternative
  (another GT, or the ISL) within ``ETA * c`` of its weight.

A certified cell is the expanded path's path-order sum, which is the full
graph's value. Any other cell is *repaired*: every tight entry that
reaches ``t`` is collected, each is expanded to every original edge
alternative within ``ETA * c``, and ``csgraph.dijkstra`` runs on that
small subgraph of original edges. It contains every path that can attain
the minimum, so it returns the full graph's value too. No cell ever
needs the full graph.

**Why ``ETA = 1e-12``.** A float sum of ``h`` non-negative terms is within
``h * 2**-53`` relative of its exact value. Each quantity the certificate
compares is such a sum along a path of at most ``h`` original edges, and
a competing path's slack on one entry is bounded by at most five of them,
so rounding is below ``5 * h * 2**-53 * c``. Shortest paths have at most
34 original edges on the paper graph and 38 at the 2 degree relay scale
(BP, t = 0); at ``h = 90`` the bound is ``5e-14 * c``, and ``ETA`` leaves
a further factor of 20.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.network.graph import _KIND_GT_SAT
from repro.obs import incr, span

__all__ = [
    "ETA",
    "ContractedGraph",
    "RelayShortcuts",
    "contracted_graph",
    "relay_shortcuts",
]

#: Relative tolerance of the certificate and the repair (see module doc).
ETA = 1e-12

#: Candidate (satellite pair, GT) rows reduced per block by
#: :func:`relay_shortcuts`. Bounds the build's scratch memory whatever the
#: constellation: at 1,000 cities and 0.5 degree relays it peaks at 36 MB
#: for Starlink and 22 MB for Kuiper, where a dense satellite-by-satellite
#: float64 table alone would be 84 MB for Kuiper's 3,236 satellites.
_BLOCK_ROWS = 1 << 18

#: Cells per block-diagonal repair search: bounds its dense distance block.
_REPAIR_BATCH = 64


@dataclass(frozen=True)
class RelayShortcuts:
    """The best relay or aircraft hop between each satellite pair.

    Row ``i``: satellites ``a[i] < b[i]`` share at least one contracted GT;
    ``weight[i] = fl(w(a, g) + w(g, b))`` is minimal over those GTs at
    ``g = via[i]`` (a graph node id), ``leg_a[i] = w(a, g)`` and
    ``leg_b[i] = w(g, b)``; ``second[i]`` is the next-lightest GT's weight
    (``inf`` with one shared GT). Rows are sorted by ``(a, b)``.
    """

    a: np.ndarray
    b: np.ndarray
    weight: np.ndarray
    via: np.ndarray
    leg_a: np.ndarray
    leg_b: np.ndarray
    second: np.ndarray

    def __len__(self) -> int:
        return len(self.a)


def _sorted_with_order(key):
    """``(np.sort(key), its stable argsort)`` for non-negative int64 keys.

    One value sort of ``key`` packed with the row number: numpy's value
    sort is several times faster than an argsort or a lexsort.
    """
    bits = max(1, int(len(key)).bit_length())
    packed = np.sort((key << bits) | np.arange(len(key)))
    order = packed & ((1 << bits) - 1)
    packed >>= bits
    return packed, order


def _top_two(key, weight, first_up, second_up):
    """Per distinct key: the lightest row and the second-lightest weight.

    Rows are candidate GT hops: ``key`` the satellite pair, ``weight`` the
    hop's length, ``first_up``/``second_up`` the positions of its two
    up-links. Among equal weights the earliest row wins, so a caller that
    lists its running best before its running second keeps the best's GT.
    """
    key, order = _sorted_with_order(key)
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    group = np.repeat(np.arange(len(first)), np.diff(np.r_[first, len(key)]))
    weight = weight[order]
    lightest = np.minimum.reduceat(weight, first)
    hits = np.flatnonzero(weight == lightest[group])
    best = hits[np.r_[True, group[hits[1:]] != group[hits[:-1]]]]
    weight[best] = np.inf
    second = np.minimum.reduceat(weight, first)
    best = order[best]
    return key[first], lightest, first_up[best], second_up[best], second


def relay_shortcuts(
    sat: np.ndarray,
    gt: np.ndarray,
    dist_m: np.ndarray,
    first_relay_node: int,
    num_sats: int,
) -> RelayShortcuts:
    """The shortcut table of one set of GT-satellite edges.

    ``sat``/``gt``/``dist_m`` are the edges (satellite id, GT node id,
    metres); GTs with node id ``>= first_relay_node`` (relays and aircraft)
    are contracted, cities are not. Vectorized by GT degree class: all GTs
    of degree ``k`` contribute their ``k (k - 1) / 2`` satellite pairs in
    one array operation, and the pairs are reduced to the best two per
    satellite pair in blocks of :data:`_BLOCK_ROWS`.
    """
    keep = gt >= first_relay_node
    key, order = _sorted_with_order(
        (np.asarray(gt)[keep] - first_relay_node) * num_sats + np.asarray(sat)[keep]
    )
    gt, sat = key // num_sats + first_relay_node, key % num_sats
    dist_m = np.asarray(dist_m, dtype=float)[keep][order]
    del key, order, keep
    starts = np.flatnonzero(np.r_[True, gt[1:] != gt[:-1]])
    degree = np.diff(np.r_[starts, len(gt)])

    none = np.empty(0, dtype=np.int64)
    table = (none, np.empty(0), none, none, np.empty(0))
    for k in np.unique(degree[degree >= 2]).tolist():
        first_of_k = starts[degree == k]
        iu, ju = np.triu_indices(k, 1)
        per_block = max(1, _BLOCK_ROWS // len(iu))
        for lo in range(0, len(first_of_k), per_block):
            base = first_of_k[lo : lo + per_block, None]
            i = (base + iu).ravel()
            j = (base + ju).ravel()
            key, weight, best_i, best_j, second = table
            # Within a GT, satellites are sorted, so sat[i] < sat[j].
            table = _top_two(
                np.concatenate([key, key, sat[i] * num_sats + sat[j]]),
                np.concatenate([weight, second, dist_m[i] + dist_m[j]]),
                np.concatenate([best_i, best_i, i]),
                np.concatenate([best_j, best_j, j]),
            )
    key, weight, best_i, best_j, second = table
    return RelayShortcuts(
        a=key // num_sats,
        b=key % num_sats,
        weight=weight,
        via=gt[best_i],
        leg_a=dist_m[best_i],
        leg_b=dist_m[best_j],
        second=second,
    )


@dataclass(frozen=True)
class ContractedGraph:
    """Satellites + cities of one snapshot graph, relays as shortcuts.

    ``matrix`` is the symmetric CSR distance matrix over ``num_sats +
    num_cities`` nodes (ids as in the full graph); entry ``e`` stands for
    the node pair ``pair[e]``. Per node pair ``p`` (``lo < hi``):
    ``direct_w[p]`` is the original edge's length (``inf`` if none);
    ``via_w[p]`` the shortcut's weight (``inf`` if none), through GT
    ``via[p]`` with legs ``leg_lo[p] = w(lo, via)`` and ``leg_hi[p] =
    w(via, hi)``, and ``via_second[p]`` the next-lightest GT's weight.
    The entry's weight is the lighter of ``direct_w`` and ``via_w``.
    """

    graph: object = field(repr=False)
    matrix: sparse.csr_matrix
    pair: np.ndarray
    direct_w: np.ndarray
    via_w: np.ndarray
    via: np.ndarray
    leg_lo: np.ndarray
    leg_hi: np.ndarray
    via_second: np.ndarray
    #: The full graph's relay edges indexed by satellite, built by the
    #: first repair that needs every GT two satellites share.
    _relay_index: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(cls, graph) -> "ContractedGraph":
        """Contract one snapshot graph (see the module docstring)."""
        num_sats = graph.num_sats
        n = num_sats + graph.stations.city_count
        edges = graph.edges
        relay = (graph.edge_kind == _KIND_GT_SAT) & (edges.max(axis=1) >= n)
        kept = edges[~relay].astype(np.int64)
        lo, hi = kept.min(axis=1), kept.max(axis=1)
        if len(hi) and hi.max() >= n:
            raise ValueError("a relay or aircraft GT has an edge that is not a satellite up-link")
        if graph._relay_shortcuts is not None:
            shortcuts = graph._relay_shortcuts()
        else:
            ups = edges[relay].astype(np.int64)
            if len(ups) and ups.min(axis=1).max() >= num_sats:
                raise ValueError("a relay or aircraft GT is linked to another GT")
            shortcuts = relay_shortcuts(
                ups.min(axis=1), ups.max(axis=1), graph.edge_dist_m[relay], n, num_sats
            )

        # Original edges between kept nodes, duplicates summed as matrix() does.
        direct_key, order = _sorted_with_order(lo * n + hi)
        heads = np.flatnonzero(np.r_[True, direct_key[1:] != direct_key[:-1]])
        direct_dist = graph.edge_dist_m[~relay][order]
        direct_dist = np.add.reduceat(direct_dist, heads) if len(heads) else direct_dist
        direct_key = direct_key[heads]

        shortcut_key = shortcuts.a * n + shortcuts.b
        keys = np.union1d(direct_key, shortcut_key)
        m = len(keys)
        direct_w = np.full(m, np.inf)
        direct_w[np.searchsorted(keys, direct_key)] = direct_dist
        at = np.searchsorted(keys, shortcut_key)
        via_w = np.full(m, np.inf)
        via_w[at] = shortcuts.weight
        via = np.full(m, -1, dtype=np.int64)
        via[at] = shortcuts.via
        leg_lo = np.zeros(m)
        leg_lo[at] = shortcuts.leg_a
        leg_hi = np.zeros(m)
        leg_hi[at] = shortcuts.leg_b
        via_second = np.full(m, np.inf)
        via_second[at] = shortcuts.second

        # Both directions of every pair, in CSR (row, column) order.
        linear, order = _sorted_with_order(
            np.concatenate([keys, (keys % n) * n + keys // n])
        )
        pair = order % m
        counts = np.bincount(linear // n, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        small = np.int32 if max(n, 2 * m) < 2**31 else np.int64
        matrix = sparse.csr_matrix(
            (
                np.minimum(direct_w, via_w)[pair],
                (linear % n).astype(small),
                indptr.astype(small),
            ),
            shape=(n, n),
        )
        return cls(
            graph=graph,
            matrix=matrix,
            pair=pair.astype(small),
            direct_w=direct_w,
            via_w=via_w,
            via=via,
            leg_lo=leg_lo,
            leg_hi=leg_hi,
            via_second=via_second,
        )

    def _incoming(self, nodes: np.ndarray):
        """Every entry into each of ``nodes``: ``(owner, entry, neighbour)``.

        ``owner`` indexes ``nodes``. The matrix is symmetric, so the
        entries into ``v`` are the entries of row ``v``, read backwards.
        """
        indptr = self.matrix.indptr
        start = indptr[nodes].astype(np.int64)
        count = indptr[nodes + 1] - start
        owner = np.repeat(np.arange(len(nodes)), count)
        entry = np.arange(len(owner)) + np.repeat(start - (np.cumsum(count) - count), count)
        return owner, entry, self.matrix.indices[entry].astype(np.int64)

    def _tight(self, block, rows, nodes, tol):
        """Tight entries into ``nodes``: ``(owner, entry, neighbour)``.

        Query ``q`` reads distances ``block[rows[q]]``; ``nodes`` and
        ``tol`` are per query. An entry ``u -> v`` is tight when its
        reduced cost ``fl(d[u] + w) - d[v]`` is at most the tolerance.
        """
        owner, entry, u = self._incoming(nodes)
        source = rows[owner]
        reduced = (block[source, u] + self.matrix.data[entry]) - block[source, nodes[owner]]
        tight = reduced <= tol[owner]
        return owner[tight], entry[tight], u[tight]

    def exact_distances(self, block, sources, rows, targets) -> np.ndarray:
        """Full-graph distances for one batch of (source, target) queries.

        ``block`` is the contracted Dijkstra block of the batch's
        ``sources``; query ``q`` asks for ``sources[rows[q]]`` to node
        ``targets[q]``. Certified queries get their expanded path's
        path-order sum, the rest a repair search (module docstring).
        """
        rows = np.asarray(rows, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        starts = np.asarray(sources, dtype=np.int64)[rows]
        reach = block[rows, targets]
        tol = ETA * reach
        certified = np.isfinite(reach)
        # Walk back from each target one hop per step while exactly one
        # tight entry leads into the current node; record the path's
        # original edge lengths (t side first) as (query, step, first
        # leg, second leg) in path direction.
        walking = np.flatnonzero(certified & (targets != starts))
        cur = targets.copy()
        hops = np.zeros(len(rows), dtype=np.int64)
        found = []
        step = 0
        while len(walking):
            if step > self.matrix.shape[0]:  # Longer than any simple path.
                certified[walking] = False
                break
            owner, entry, u = self._tight(block, rows[walking], cur[walking], tol[walking])
            count = np.bincount(owner, minlength=len(walking))
            one = count[owner] == 1
            owner, entry, u = owner[one], entry[one], u[one]
            pair = self.pair[entry]
            w = self.matrix.data[entry]
            second = np.minimum(
                np.maximum(self.direct_w[pair], self.via_w[pair]), self.via_second[pair]
            )
            unique = second > w + tol[walking[owner]]
            query = walking[owner[unique]]
            certified[np.setdiff1d(walking, query, assume_unique=True)] = False
            pair, u = pair[unique], u[unique]
            # The path runs u -> v: original edge (w, 0.0), or the
            # shortcut's two legs, the one at u first.
            direct = self.direct_w[pair] <= self.via_w[pair]
            lo_first = u < cur[query]
            first = np.where(direct, self.direct_w[pair], np.where(lo_first, self.leg_lo[pair], self.leg_hi[pair]))
            then = np.where(direct, 0.0, np.where(lo_first, self.leg_hi[pair], self.leg_lo[pair]))
            found.append((query, np.full(len(query), step), first, then))
            cur[query] = u
            hops[query] = step + 1
            walking = query[u != starts[query]]
            step += 1

        out = reach.copy()
        if found:
            query, at, first, then = (np.concatenate(part) for part in zip(*found))
            keep = certified[query]
            query, at, first, then = query[keep], at[keep], first[keep], then[keep]
            legs = np.zeros((len(rows), 2 * step))
            column = 2 * (hops[query] - 1 - at)  # Source side first.
            legs[query, column] = first
            legs[query, column + 1] = then
            total = np.zeros(len(rows))
            for col in range(legs.shape[1]):  # In path order, as Dijkstra adds.
                total = total + legs[:, col]
            walked = certified & (targets != starts)
            out[walked] = total[walked]

        repair = np.flatnonzero(np.isfinite(reach) & ~certified)
        if len(repair):
            incr("rtt.tie_repairs", len(repair))
            for lo in range(0, len(repair), _REPAIR_BATCH):
                part = repair[lo : lo + _REPAIR_BATCH]
                out[part] = self._repair(block, rows[part], starts[part], targets[part], tol[part])
        return out

    def _repair(self, block, rows, starts, targets, tol) -> np.ndarray:
        """Exact distances of uncertified queries.

        Collects, breadth-first back from each target, every tight entry
        that reaches it; expands each to its original edges within the
        query's tolerance; and searches the union as one block-diagonal
        graph, one component per query.
        """
        count = len(starts)
        n = self.matrix.shape[0]
        seen = np.arange(count) * n + targets
        frontier_q, frontier_v = np.arange(count), targets
        found_q, found_e, found_v, found_u = [], [], [], []
        while len(frontier_q):
            owner, entry, u = self._tight(block, rows[frontier_q], frontier_v, tol[frontier_q])
            found_q.append(frontier_q[owner])
            found_e.append(entry)
            found_v.append(frontier_v[owner])
            found_u.append(u)
            new = np.unique(frontier_q[owner] * n + u)
            new = new[~np.isin(new, seen)]
            seen = np.concatenate([seen, new])
            frontier_q, frontier_v = new // n, new % n
        query = np.concatenate(found_q)
        pair = self.pair[np.concatenate(found_e)]
        v, u = np.concatenate(found_v), np.concatenate(found_u)
        lo, hi = np.minimum(u, v), np.maximum(u, v)

        # Original edges of every alternative within the query's tolerance.
        limit = np.minimum(self.direct_w, self.via_w)[pair] + tol[query]
        direct = self.direct_w[pair] <= limit
        single = (self.via_w[pair] <= limit) & (self.via_second[pair] > limit)
        several = self.via_second[pair] <= limit
        parts = [
            (query[direct], lo[direct], hi[direct], self.direct_w[pair[direct]]),
            (query[single], lo[single], self.via[pair[single]], self.leg_lo[pair[single]]),
            (query[single], self.via[pair[single]], hi[single], self.leg_hi[pair[single]]),
        ]
        for q, a, b, cap in zip(
            query[several].tolist(), lo[several].tolist(), hi[several].tolist(),
            limit[several].tolist(),
        ):
            gts, wa, wb = self._shared_gts(a, b)
            close = wa + wb <= cap
            k = int(close.sum())
            parts.append((np.full(k, q), np.full(k, a), gts[close], wa[close]))
            parts.append((np.full(k, q), gts[close], np.full(k, b), wb[close]))
        eq, eu, ev, ew = (np.concatenate(column) for column in zip(*parts))

        # One undirected edge per (query, node pair), nodes renumbered
        # per query so that the queries' subgraphs stay disjoint.
        size = int(max(eu.max(initial=0), ev.max(initial=0), n)) + 1
        a, b = np.minimum(eu, ev), np.maximum(eu, ev)
        _, first = np.unique((eq * size + a) * size + b, return_index=True)
        eq, a, b, ew = eq[first], a[first], b[first], ew[first]
        each = np.arange(count)
        labels, local = np.unique(
            np.concatenate([eq * size + a, eq * size + b, each * size + starts, each * size + targets]),
            return_inverse=True,
        )
        m = len(eq)
        sub = sparse.csr_matrix(
            (np.concatenate([ew, ew]),
             (np.concatenate([local[:m], local[m : 2 * m]]),
              np.concatenate([local[m : 2 * m], local[:m]]))),
            shape=(len(labels), len(labels)),
        )
        found = csgraph.dijkstra(sub, directed=True, indices=local[2 * m : 2 * m + count])
        return found[each, local[2 * m + count :]]

    def _shared_gts(self, a: int, b: int):
        """Every contracted GT adjacent to satellites ``a`` and ``b``.

        Returns ``(gts, w(a, g), w(g, b))``, read from the full graph's
        relay edges, which the first call indexes by satellite.
        """
        index = self._relay_index
        if not index:
            graph = self.graph
            n = self.matrix.shape[0]
            relay = (graph.edge_kind == _KIND_GT_SAT) & (graph.edges.max(axis=1) >= n)
            ups = graph.edges[relay].astype(np.int64)
            sat, gt = ups.min(axis=1), ups.max(axis=1)
            key, order = _sorted_with_order(sat * (int(gt.max(initial=0)) + 1) + gt)
            index["sat"] = sat[order]
            index["gt"] = gt[order]
            index["dist"] = graph.edge_dist_m[relay][order]
        sat, gt, dist = index["sat"], index["gt"], index["dist"]
        ra = slice(*np.searchsorted(sat, [a, a + 1]))
        rb = slice(*np.searchsorted(sat, [b, b + 1]))
        shared, ia, ib = np.intersect1d(gt[ra], gt[rb], assume_unique=True, return_indices=True)
        return shared, dist[ra][ia], dist[rb][ib]


def contracted_graph(graph) -> ContractedGraph:
    """Contract ``graph`` for one RTT row (span ``contraction``)."""
    with span("contraction"):
        contracted = ContractedGraph.build(graph)
    incr("engine.contractions")
    return contracted
