"""Relay contraction: RTT rows equal full-graph searches byte for byte.

The RTT row (:func:`repro.core.pipeline._pair_rtts_on_graph`) searches
the contracted graph of :mod:`repro.network.contraction` and reports each
cell through the certificate or the repair. The reference here is the
source-batched Dijkstra of the full graph's matrix, which the row itself
never builds. The ``throughput_bench`` BP graph at t = 0 is in the set
because its symmetric geometry fails the certificate on hundreds of
cells, so the repair runs; the random graphs have whole-metre edge
lengths, so exact ties occur.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.constants import SPEED_OF_LIGHT
from repro.core.engine import SnapshotEngine
from repro.core.pipeline import _pair_rtts_on_graph
from repro.core.scenario import Scenario, ScenarioScale
from repro.faults import FaultSpec
from repro.flows.routing import route_traffic_multi_k
from repro.flows.traffic import CityPair, pair_index
from repro.ground.stations import StationTable
from repro.network import contraction
from repro.network.contraction import relay_shortcuts
from repro.network.graph import (
    _KIND_FIBER,
    _KIND_GT_SAT,
    _KIND_ISL,
    ConnectivityMode,
    GsoProtectionPolicy,
    SnapshotGraph,
)
from repro.network.paths import source_batched_dijkstra
from repro.orbits.presets import preset

MODES = (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
MB = 1 << 20


def _full_graph_rtts(graph, pairs):
    """Reference: source-batched Dijkstra on the full graph's matrix."""
    index = pair_index(pairs)
    dist, _ = source_batched_dijkstra(
        graph.matrix(),
        graph.num_sats + index.source_cities,
        index.source_row,
        graph.num_sats + index.targets,
    )
    return np.where(np.isfinite(dist), 2e3 * dist / SPEED_OF_LIGHT, np.inf)


def _row_and_counters(graph, pairs):
    with obs.observe() as registry:
        row = _pair_rtts_on_graph(graph, pairs)
    return row, registry.snapshot()["counters"]


def _assert_rows_equal(graph, pairs):
    row, counters = _row_and_counters(graph, pairs)
    assert row.tobytes() == _full_graph_rtts(graph, pairs).tobytes()
    return row, counters


@pytest.fixture(scope="module")
def bench_scenario():
    return Scenario.paper_default("starlink", ScenarioScale.throughput_bench())


class TestRowsMatchFullGraph:
    @pytest.mark.parametrize("time_s", [0.0, 1800.0])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_tiny(self, tiny_scenario, mode, time_s):
        _assert_rows_equal(tiny_scenario.graph_at(time_s, mode), tiny_scenario.pairs)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_small(self, mode):
        scenario = Scenario.paper_default("starlink", ScenarioScale.small())
        for time_s in scenario.times_s[:2]:
            _assert_rows_equal(scenario.graph_at(time_s, mode), scenario.pairs)

    def test_bench_bp_exercises_the_repair(self, bench_scenario):
        graph = bench_scenario.graph_at(0.0, ConnectivityMode.BP_ONLY)
        row, counters = _assert_rows_equal(graph, bench_scenario.pairs)
        # t = 0 is symmetric: a large share of cells has a near-tied path.
        assert counters["rtt.tie_repairs"] > len(row) // 10
        assert np.isfinite(row).all()

    @pytest.mark.parametrize(
        "variant",
        [
            {"fiber_max_km": 500.0},
            {"gso_policy": GsoProtectionPolicy(22.0)},
            {"max_gts_per_satellite": 6},
            {"faults": FaultSpec(sat=0.2, city=0.3, relay=0.3, seed=3)},
        ],
        ids=["fiber", "gso", "beam-limit", "faults"],
    )
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_assembly_variants(self, tiny_scenario, variant, mode):
        graph = tiny_scenario.with_assembly(**variant).graph_at(0.0, mode)
        row, _ = _assert_rows_equal(graph, tiny_scenario.pairs)
        # Only the unfiltered fiber graph may share the frame's table.
        assert (graph._relay_shortcuts is not None) == ("fiber_max_km" in variant)
        if "faults" in variant:
            assert not np.isfinite(row).all()

    def test_no_pairs(self, tiny_bp_graph):
        row, counters = _row_and_counters(tiny_bp_graph, [])
        assert row.shape == (0,)
        assert counters.get("engine.contractions", 0) == 0

    def test_cut_off_city(self, tiny_scenario):
        graph = tiny_scenario.graph_at(0.0, ConnectivityMode.HYBRID)
        city = tiny_scenario.pairs[0].b
        node = graph.gt_node(city)
        keep = (graph.edges[:, 0] != node) & (graph.edges[:, 1] != node)
        cut = dataclasses.replace(
            graph,
            edges=graph.edges[keep],
            edge_dist_m=graph.edge_dist_m[keep],
            edge_kind=graph.edge_kind[keep],
            _matrix_cache=None,
        )
        row, _ = _assert_rows_equal(cut, tiny_scenario.pairs)
        assert not np.isfinite(row[0])
        touching = [i for i, p in enumerate(tiny_scenario.pairs) if city in (p.a, p.b)]
        assert np.isinf(row[touching]).all()
        assert np.isfinite(np.delete(row, touching)).all()

    def test_pair_of_non_cities_rejected(self, tiny_bp_graph):
        relay = tiny_bp_graph.stations.city_count
        with pytest.raises(IndexError):
            _pair_rtts_on_graph(tiny_bp_graph, [CityPair(0, relay, 0.0)])


def _random_graph(num_sats, num_cities, num_relays, seed):
    """Random satellites, cities and relays, edges of 100-400 km in 100 km steps.

    Satellites form a ring with chords (ISLs); every GT sees 1-5 random
    satellites; a few cities are joined by fiber. Equal lengths are
    common, so ties and near-ties stress the certificate.
    """
    rng = np.random.default_rng(seed)
    ring = np.arange(num_sats)
    isl = np.stack([ring, np.roll(ring, -1)], axis=1)
    chords = rng.integers(0, num_sats, (num_sats, 2))
    isl = np.vstack([isl, chords[chords[:, 0] != chords[:, 1]]])
    isl = np.unique(np.sort(isl, axis=1), axis=0)
    up = []
    for gt in range(num_cities + num_relays):
        for sat in rng.choice(num_sats, size=rng.integers(1, 6), replace=False):
            up.append((sat, num_sats + gt))
    up = np.array(up)
    fiber = num_sats + np.array([[0, 1], [1, 2], [3, 5]])
    edges = np.vstack([up, isl, fiber])
    kinds = np.concatenate(
        [
            np.full(len(up), _KIND_GT_SAT),
            np.full(len(isl), _KIND_ISL),
            np.full(len(fiber), _KIND_FIBER),
        ]
    ).astype(np.int8)
    num_gts = num_cities + num_relays
    return SnapshotGraph(
        time_s=0.0,
        mode=ConnectivityMode.HYBRID,
        num_sats=num_sats,
        num_gts=num_gts,
        sat_ecef=np.zeros((num_sats, 3)),
        gt_ecef=np.zeros((num_gts, 3)),
        edges=edges,
        edge_dist_m=np.round(rng.uniform(1, 4, len(edges))) * 1e5,
        edge_kind=kinds,
        stations=StationTable(
            lats=np.zeros(num_gts),
            lons=np.zeros(num_gts),
            altitudes=np.zeros(num_gts),
            city_count=num_cities,
            relay_count=num_relays,
        ),
    )


class TestRandomTies:
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_equal(self, seed):
        graph = _random_graph(30, 12, 60, seed)
        pairs = [CityPair(a, b, 0.0) for a in range(12) for b in range(12) if a != b]
        _, counters = _assert_rows_equal(graph, pairs)
        assert counters["engine.contractions"] == 1

    def test_ties_are_repaired(self):
        repairs = 0
        for seed in range(6):
            graph = _random_graph(30, 12, 60, seed)
            pairs = [CityPair(a, b, 0.0) for a in range(12) for b in range(a + 1, 12)]
            repairs += _row_and_counters(graph, pairs)[1].get("rtt.tie_repairs", 0)
        assert repairs > 0


def _loop_shortcuts(sat, gt, dist, first_relay):
    """Reference: per satellite pair, all shared-GT weights, by loops."""
    by_gt: dict = {}
    for s, g, d in zip(sat.tolist(), gt.tolist(), dist.tolist()):
        if g >= first_relay:
            by_gt.setdefault(g, []).append((s, d))
    table: dict = {}
    for g in sorted(by_gt):
        ups = sorted(by_gt[g])
        for i, (a, da) in enumerate(ups):
            for b, db in ups[i + 1 :]:
                table.setdefault((a, b), []).append((da + db, g, da, db))
    return table


class TestShortcutTable:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_loop_reference(self, monkeypatch, seed):
        # Small blocks, so the running reduction merges many times.
        monkeypatch.setattr(contraction, "_BLOCK_ROWS", 16)
        graph = _random_graph(20, 5, 80, seed)
        radio = graph.edge_kind == _KIND_GT_SAT
        sat, gt = graph.edges[radio, 0], graph.edges[radio, 1]
        dist = graph.edge_dist_m[radio]
        table = relay_shortcuts(sat, gt, dist, 25, 20)
        reference = _loop_shortcuts(sat, gt, dist, 25)
        assert list(zip(table.a.tolist(), table.b.tolist())) == sorted(reference)
        for i, key in enumerate(sorted(reference)):
            options = sorted(reference[key], key=lambda o: o[0])
            weight = options[0][0]
            assert table.weight[i] == weight
            lightest = [o[1:] for o in options if o[0] == weight]
            assert (table.via[i], table.leg_a[i], table.leg_b[i]) in lightest
            second = options[1][0] if len(options) > 1 else np.inf
            assert table.second[i] == second

    def test_shared_by_the_modes_of_one_frame(self, tiny_scenario):
        engine = SnapshotEngine(tiny_scenario.constellation, tiny_scenario.ground)
        bp = engine.graph_at(0.0, ConnectivityMode.BP_ONLY)
        hybrid = engine.graph_at(0.0, ConnectivityMode.HYBRID)
        frame = engine.frame_at(0.0)
        assert frame._relay_shortcuts is None
        with obs.observe() as registry:
            _pair_rtts_on_graph(bp, tiny_scenario.pairs)
            table = frame._relay_shortcuts
            _pair_rtts_on_graph(hybrid, tiny_scenario.pairs)
            _pair_rtts_on_graph(hybrid, tiny_scenario.pairs)
        assert table is not None and frame._relay_shortcuts is table
        snapshot = registry.snapshot()
        assert snapshot["counters"]["engine.contractions"] == 3
        assert any(path.endswith("dijkstra/contraction") for path in snapshot["spans"])

    def test_routing_builds_no_table(self, tiny_scenario):
        engine = SnapshotEngine(tiny_scenario.constellation, tiny_scenario.ground)
        graph = engine.graph_at(0.0, ConnectivityMode.BP_ONLY)
        route_traffic_multi_k(graph, tiny_scenario.pairs, (1, 4))
        assert engine.frame_at(0.0)._relay_shortcuts is None

    def test_rebuilt_graph_drops_the_shared_table(self, tiny_bp_graph):
        copy = dataclasses.replace(tiny_bp_graph)
        assert tiny_bp_graph._relay_shortcuts is not None
        assert copy._relay_shortcuts is None


class TestRowNeverBuildsFullMatrix:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_no_matrix(self, monkeypatch, tiny_scenario, mode):
        graph = tiny_scenario.graph_at(0.0, mode)

        def refuse(self):
            raise AssertionError("an RTT row built the full matrix")

        monkeypatch.setattr(SnapshotGraph, "matrix", refuse)
        row = _pair_rtts_on_graph(graph, tiny_scenario.pairs)
        assert np.isfinite(row).all()


@pytest.mark.parametrize("constellation", ["starlink", "kuiper"])
def test_shortcut_build_memory_at_paper_scale(constellation):
    """1,000 cities and 0.5 degree relays: the build stays under 64 MB.

    A dense satellite-by-satellite float64 table alone would be 84 MB
    for Kuiper's 3,236 satellites.
    """
    scenario = Scenario(
        constellation=preset(constellation),
        scale=ScenarioScale(
            name="paper-frame",
            num_cities=1000,
            num_pairs=1,
            relay_spacing_deg=0.5,
            num_snapshots=1,
        ),
    )
    frame = scenario.engine.frame_at(0.0)
    tracemalloc.start()
    try:
        table = frame.relay_shortcuts()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) > 1000
    assert peak < 64 * MB
