"""Differential tests for the routing and allocation fast paths.

The throughput fast path rewrote two hot loops:

* :func:`repro.flows.routing.route_traffic_multi_k` batches round 1 of
  the greedy edge-disjoint scheme by source city instead of running one
  independent :func:`repro.network.paths.k_edge_disjoint_paths` search
  per pair, and bounds the searches of rounds 2..k by a multiple of the
  previous round's path length, retrying unbounded when that misses;
* :func:`repro.flows.maxmin.max_min_fair_allocation` freezes saturated
  flows with vectorized bincounts instead of per-flow loops, on the
  compact set of links the flows use.

Both are pure optimisations: their outputs must be indistinguishable
from the straightforward reference implementations. These suites assert
that equivalence directly — randomized pair subsets and k values against
the per-pair path search, and hypothesis-generated flow sets against a
loop-based progressive-filling reference — plus the counter contract
that makes the fast path observable (k = 1 routes with exactly one
batched Dijkstra per unique source city and zero per-pair searches).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows import routing
from repro.flows.maxmin import max_min_fair_allocation
from repro.flows.routing import route_traffic, route_traffic_multi_k
from repro.network.graph import ConnectivityMode
from repro.network.paths import k_edge_disjoint_paths
from repro.obs import observe

# ---------------------------------------------------------------------------
# Routing: source-batched rounds vs the per-pair reference search.
# ---------------------------------------------------------------------------


def _paths_by_pair(routed):
    by_pair = {}
    for subflow in routed.subflows:
        by_pair.setdefault(subflow.pair_index, []).append(subflow.path)
    return by_pair


def _assert_matches_reference(graph, pairs, k):
    """route_traffic == one k_edge_disjoint_paths call per pair."""
    routed = route_traffic(graph, pairs, k=k)
    by_pair = _paths_by_pair(routed)
    matrix = graph.matrix()
    for pidx, pair in enumerate(pairs):
        reference = k_edge_disjoint_paths(
            matrix, graph.gt_node(pair.a), graph.gt_node(pair.b), k
        )
        if not reference:
            assert pidx in routed.unrouted_pairs
            assert pidx not in by_pair
            continue
        got = by_pair[pidx]
        assert len(got) == len(reference)
        for ours, theirs in zip(got, reference):
            assert ours.nodes == theirs.nodes
            assert ours.length_m == pytest.approx(theirs.length_m, rel=1e-12)


class TestRoutingMatchesPerPairReference:
    @pytest.mark.parametrize("mode", list(ConnectivityMode))
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_full_pair_list(self, tiny_scenario, mode, k):
        graph = tiny_scenario.graph_at(0.0, mode)
        _assert_matches_reference(graph, tiny_scenario.pairs, k)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_pair_subsets(self, tiny_scenario, seed):
        """Randomized subsets exercise sparse / duplicate-source groupings."""
        rng = np.random.default_rng(seed)
        graph = tiny_scenario.graph_at(
            float(tiny_scenario.times_s[seed % len(tiny_scenario.times_s)]),
            ConnectivityMode.HYBRID,
        )
        size = int(rng.integers(1, len(tiny_scenario.pairs) + 1))
        chosen = rng.choice(len(tiny_scenario.pairs), size=size, replace=False)
        pairs = [tiny_scenario.pairs[i] for i in chosen]
        _assert_matches_reference(graph, pairs, k=int(rng.integers(1, 5)))

    def test_multi_k_matches_separate_calls(self, tiny_scenario):
        """route_traffic_multi_k == independent route_traffic per k."""
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        pairs = tiny_scenario.pairs
        combined = route_traffic_multi_k(graph, pairs, (1, 4))
        for k in (1, 4):
            separate = route_traffic(graph, pairs, k=k)
            assert combined[k].unrouted_pairs == separate.unrouted_pairs
            assert combined[k].num_subflows == separate.num_subflows
            for ours, theirs in zip(combined[k].subflows, separate.subflows):
                assert ours.pair_index == theirs.pair_index
                assert ours.path.nodes == theirs.path.nodes
                np.testing.assert_array_equal(ours.edge_ids, theirs.edge_ids)


class TestRoutingCounterContract:
    """The fast path's shape is asserted, not assumed, via obs counters."""

    def test_k1_is_one_dijkstra_per_unique_source(self, tiny_scenario):
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        pairs = tiny_scenario.pairs
        unique_sources = len({pair.a for pair in pairs})
        with observe() as registry:
            route_traffic(graph, pairs, k=1)
        counters = registry.snapshot()["counters"]
        assert counters["routing.batched_dijkstras"] == unique_sources
        assert "routing.pair_dijkstras" not in counters

    def test_k4_adds_per_pair_searches_only_for_rounds_past_one(
        self, tiny_scenario
    ):
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        pairs = tiny_scenario.pairs
        unique_sources = len({pair.a for pair in pairs})
        with observe() as registry:
            routed = route_traffic(graph, pairs, k=4)
        counters = registry.snapshot()["counters"]
        # Round 1 stays batched even at k = 4 ...
        assert counters["routing.batched_dijkstras"] == unique_sources
        # ... and rounds 2..4 run at most 4 per-pair searches per pair
        # (the failed search that ends a pair's sequence also counts).
        routable = len(pairs) - len(routed.unrouted_pairs)
        assert 0 < counters["routing.pair_dijkstras"] <= 4 * routable

    def test_multi_k_shares_round_one(self, tiny_scenario):
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        pairs = tiny_scenario.pairs
        unique_sources = len({pair.a for pair in pairs})
        with observe() as registry:
            route_traffic_multi_k(graph, pairs, (1, 4))
        counters = registry.snapshot()["counters"]
        # One batched sweep serves both k values.
        assert counters["routing.batched_dijkstras"] == unique_sources


class TestBoundedRounds:
    """Rounds 2..k search within a radius and retry unbounded on a miss.

    k = 10 runs some pairs out of disjoint paths (19 of the 25 tiny
    pairs), so the final, failing search of a pair is covered too.
    """

    @pytest.mark.parametrize("k", [4, 10])
    @pytest.mark.parametrize("mode", list(ConnectivityMode))
    def test_tiny_bound_retries_every_round(
        self, tiny_scenario, mode, k, monkeypatch
    ):
        # A radius far below any link length leaves every target
        # unreached, so every round falls back to the unbounded search.
        monkeypatch.setattr(routing, "_ROUND_BOUND", 1e-3)
        graph = tiny_scenario.graph_at(0.0, mode)
        with observe() as registry:
            _assert_matches_reference(graph, tiny_scenario.pairs, k=k)
        counters = registry.snapshot()["counters"]
        assert counters["routing.pair_dijkstras"] > 0
        assert counters["routing.bounded_retries"] == counters[
            "routing.pair_dijkstras"
        ]

    @pytest.mark.parametrize("bound", [0.5, 1.0, 1.2])
    @pytest.mark.parametrize("k", [4, 10])
    @pytest.mark.parametrize("mode", list(ConnectivityMode))
    def test_routes_match_reference_at_any_bound(
        self, tiny_scenario, mode, k, bound, monkeypatch
    ):
        monkeypatch.setattr(routing, "_ROUND_BOUND", bound)
        graph = tiny_scenario.graph_at(0.0, mode)
        _assert_matches_reference(graph, tiny_scenario.pairs, k=k)

    @pytest.mark.parametrize("k", [4, 10])
    @pytest.mark.parametrize("mode", list(ConnectivityMode))
    def test_large_bound_never_retries(
        self, tiny_scenario, mode, k, monkeypatch
    ):
        # A radius past the whole graph prunes nothing, so even the
        # search that finds no further path needs no second try.
        monkeypatch.setattr(routing, "_ROUND_BOUND", 1e3)
        graph = tiny_scenario.graph_at(0.0, mode)
        with observe() as registry:
            _assert_matches_reference(graph, tiny_scenario.pairs, k=k)
        counters = registry.snapshot()["counters"]
        assert counters["routing.pair_dijkstras"] > 0
        assert "routing.bounded_retries" not in counters


# ---------------------------------------------------------------------------
# Max-min allocation: vectorized freeze vs a loop-based reference.
# ---------------------------------------------------------------------------


def _reference_max_min(flow_edges, capacities, weights=None):
    """Progressive filling with per-flow loops — the textbook version.

    Same algorithm and same saturation criteria as the vectorized
    implementation, but every aggregate (per-link active weight, freeze
    bookkeeping) is computed with plain Python loops so a bug in the
    bincount machinery cannot hide in a shared code path.
    """
    eps = 1e-12
    n_flows = len(flow_edges)
    capacities = np.asarray(capacities, dtype=float)
    if weights is None:
        weights = np.ones(n_flows)
    weights = np.asarray(weights, dtype=float)
    rates = np.zeros(n_flows)
    remaining = capacities.copy()
    active = [True] * n_flows
    rounds = 0
    while any(active):
        counts = np.zeros(len(capacities))
        for i, edges in enumerate(flow_edges):
            if active[i]:
                for edge in edges:
                    counts[edge] += weights[i]
        used = counts > eps
        if not used.any():
            break
        headroom = np.full(len(capacities), np.inf)
        for edge in np.flatnonzero(used):
            headroom[edge] = remaining[edge] / max(counts[edge], eps)
        increment = max(float(headroom.min()), 0.0)
        if not np.isfinite(headroom.min()):
            break
        for i in range(n_flows):
            if active[i]:
                rates[i] += weights[i] * increment
        remaining -= counts * increment
        rounds += 1
        saturated = used & (remaining <= eps * capacities)
        if not saturated.any():
            saturated = used & (headroom <= increment * (1.0 + 1e-9))
        for i, edges in enumerate(flow_edges):
            if active[i] and any(saturated[edge] for edge in edges):
                active[i] = False
    return rates, capacities - remaining, rounds


@st.composite
def _flow_problems(draw):
    """Random (flow_edges, capacities, weights) with integer-ish numbers.

    Integer capacities and weights keep both implementations' floating
    error far below the comparison tolerance; the vectorized freeze
    subtracts grouped (bincount) where the reference subtracts per flow,
    so bit-identity is not guaranteed — allclose at 1e-9 is.
    """
    n_edges = draw(st.integers(min_value=3, max_value=12))
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flow_edges = []
    for _ in range(n_flows):
        edges = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_edges - 1),
                min_size=1,
                max_size=min(n_edges, 5),
                unique=True,
            )
        )
        flow_edges.append(np.asarray(edges, dtype=np.int64))
    capacities = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=50),
                min_size=n_edges,
                max_size=n_edges,
            )
        ),
        dtype=float,
    )
    weights = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=4),
                min_size=n_flows,
                max_size=n_flows,
            )
        ),
        dtype=float,
    )
    return flow_edges, capacities, weights


class TestMaxMinMatchesLoopReference:
    @given(problem=_flow_problems())
    @settings(max_examples=120, deadline=None)
    def test_unweighted(self, problem):
        flow_edges, capacities, _ = problem
        result = max_min_fair_allocation(flow_edges, capacities)
        ref_rates, ref_loads, ref_rounds = _reference_max_min(
            flow_edges, capacities
        )
        np.testing.assert_allclose(result.rates, ref_rates, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            result.link_loads, ref_loads, rtol=0, atol=1e-9
        )
        assert result.bottleneck_rounds == ref_rounds

    @given(problem=_flow_problems())
    @settings(max_examples=120, deadline=None)
    def test_weighted(self, problem):
        flow_edges, capacities, weights = problem
        result = max_min_fair_allocation(flow_edges, capacities, weights)
        ref_rates, ref_loads, ref_rounds = _reference_max_min(
            flow_edges, capacities, weights
        )
        np.testing.assert_allclose(result.rates, ref_rates, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            result.link_loads, ref_loads, rtol=0, atol=1e-9
        )
        assert result.bottleneck_rounds == ref_rounds

    @given(problem=_flow_problems())
    @settings(max_examples=60, deadline=None)
    def test_feasible_and_pareto(self, problem):
        """Every allocation is feasible and leaves no flow raisable."""
        flow_edges, capacities, weights = problem
        result = max_min_fair_allocation(flow_edges, capacities, weights)
        loads = np.zeros(len(capacities))
        for rate, edges in zip(result.rates, flow_edges):
            loads[edges] += rate
        assert np.all(loads <= capacities * (1 + 1e-9) + 1e-9)
        # Pareto: each flow crosses at least one (numerically) full link.
        for rate, edges in zip(result.rates, flow_edges):
            slack = capacities[edges] - loads[edges]
            assert slack.min() <= 1e-6 * max(capacities.max(), 1.0)

    @given(problem=_flow_problems(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_unused_edges_change_nothing(self, problem, data):
        """Interleaving unused edges leaves the allocation bit-identical."""
        flow_edges, capacities, weights = problem
        n_edges = len(capacities)
        extra = data.draw(st.integers(min_value=1, max_value=3 * n_edges))
        # New position of each original edge in a table of n_edges + extra.
        position = np.sort(
            data.draw(st.permutations(range(n_edges + extra)))[:n_edges]
        )
        position = np.asarray(position, dtype=np.int64)
        unused = np.setdiff1d(np.arange(n_edges + extra), position)
        wide = np.full(n_edges + extra, np.nan)
        wide[position] = capacities
        wide[unused] = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=50),
                min_size=len(unused),
                max_size=len(unused),
            )
        )
        base = max_min_fair_allocation(flow_edges, capacities, weights)
        spread = max_min_fair_allocation(
            [position[edges] for edges in flow_edges], wide, weights
        )
        assert spread.rates.tobytes() == base.rates.tobytes()
        assert spread.link_loads[position].tobytes() == base.link_loads.tobytes()
        assert np.all(spread.link_loads[unused] == 0.0)
        assert spread.bottleneck_rounds == base.bottleneck_rounds
