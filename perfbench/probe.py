"""One benchmark repetition in a fresh interpreter.

This is the only benchmark module that calls into ``repro``, and it does
so through public calls only: ``Scenario.ground`` / ``.pairs`` /
``.engine.static`` / ``.graphs_at``, ``route_traffic_multi_k``,
``evaluate_throughput(routing=...)`` and
``compute_rtt_series_multi(checkpoints=...)`` with ``checkpoint_for``.
``perfbench/run.py`` starts it once per repetition so that the
in-process ``lru_cache``s and the engine's frame cache start cold, the
way every ``repro run`` process starts.

Parts:

* ``warm``  -- load (and on first use build) the on-disk land-mask raster;
* ``setup`` -- time the set-up only: ground segment, traffic pairs and the
  engine's static layer;
* ``full``  -- set-up, then Fig. 4 (BP and hybrid, k = 1 and 4), the Fig. 5
  ISL-ratio re-allocations, the BP + hybrid RTT sweep into an empty
  checkpoint directory, and one resume of that sweep. Output checks run
  after the timed sections.

With ``--trace`` the ``full`` part runs inside ``repro.obs.observe`` with
the benchmark's own spans around each public call, and reports per-layer
self times.

Usage::

    PYTHONPATH=src python3 perfbench/probe.py --part full \\
        --workload fig45-default --seed 42 --workdir .bench_work/x [--trace] [--tiny]

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.checkpoint import checkpoint_for
from repro.core.pipeline import RttSeries, compute_rtt_series_multi
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.fig5_isl_capacity import RATIOS
from repro.flows.routing import route_traffic_multi_k
from repro.flows.throughput import evaluate_throughput
from repro.geo.landmask import land_fraction
from repro.integrity.guards import check_allocation, check_graph, check_rtt_series
from repro.network.graph import ConnectivityMode
from repro.network.links import LinkCapacities
from repro.obs import MetricsRegistry, observe, span
from repro.orbits.presets import preset

MODES = (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
KS = (1, 4)
FIG5_K = 4
HOURS = 3600.0

# Why each workload (also recorded in BENCHMARK.json):
# * fig4-paper-graph: the paper's 66,528-node / ~566k-edge Starlink graph
#   (1,000 cities, 0.5-degree relays) with few pairs, so every search costs
#   what it costs at paper size; the disjoint rounds 2..k dominate.
# * fig45-default: the scale ``repro run fig4``/``fig5`` use by default;
#   thousands of cheap searches on a 5,703-node graph, where per-pair
#   Python work and the allocator (6,000 k=4 sub-flows) are a large share.
# * fig2-day: the paper graph over a day of snapshots; geometry frames,
#   batched RTT rows, checkpoint writes and the verified resume.
# Every workload runs every stage so that every end-to-end metric exists
# on every workload; the sizes decide which stage dominates. Fig. 4/5 use
# the first snapshot only, so the extra snapshots of fig4-paper-graph and
# fig45-default lengthen only their RTT sweep, to a time that can be
# measured steadily.
WORKLOADS = {
    "fig4-paper-graph": lambda: ScenarioScale(
        name="fig4-paper-graph",
        num_cities=1000,
        num_pairs=70,
        relay_spacing_deg=0.5,
        num_snapshots=2,
        snapshot_interval_s=12 * HOURS,
    ),
    "fig45-default": lambda: replace(
        ScenarioScale.throughput_bench(), num_snapshots=8, snapshot_interval_s=3 * HOURS
    ),
    "fig2-day": lambda: ScenarioScale(
        name="fig2-day",
        num_cities=1000,
        num_pairs=32,
        relay_spacing_deg=0.5,
        num_snapshots=8,
        snapshot_interval_s=3 * HOURS,
    ),
}


#: The seconds-long stand-in ``--tiny`` runs for every workload (tests).
TINY = ScenarioScale(
    name="tiny",
    num_cities=40,
    num_pairs=12,
    relay_spacing_deg=6.0,
    num_snapshots=2,
    snapshot_interval_s=3 * HOURS,
)


class SampledRegistry(MetricsRegistry):
    """A metrics registry that also keeps every span's individual duration.

    ``MetricsRegistry`` aggregates count/total/min/max per span path; the
    per-layer record also wants medians, so each execution is kept.
    """

    def __init__(self):
        super().__init__()
        self.samples: dict[str, list[float]] = {}

    def record_span(self, path: str, elapsed_s: float) -> None:
        super().record_span(path, elapsed_s)
        self.samples.setdefault(path, []).append(elapsed_s)


def peak_rss_mb() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_of(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def run_setup(scale: ScenarioScale, seed: int):
    """Build the scenario's set-up layers; returns (scenario, seconds)."""
    started = time.perf_counter()
    scenario = Scenario(constellation=preset("starlink"), scale=scale, traffic_seed=seed)
    with span("setup"):
        with span("ground"):
            scenario.ground
        with span("pairs"):
            scenario.pairs
        with span("static"):
            scenario.engine.static
    return scenario, time.perf_counter() - started


def _check(ops: dict, name: str, check, *args) -> None:
    """Run one op's output check; record ``None`` or the failure message."""
    try:
        check(*args)
        ops[name] = None
    except Exception as exc:  # noqa: BLE001 - any failure fails the op
        ops[name] = f"{type(exc).__name__}: {exc}"


def _check_throughput(result, capacities: LinkCapacities, source: str) -> None:
    allocation = result.allocation
    check_allocation(
        allocation.rates,
        allocation.link_loads,
        result.routing.graph.edge_capacities(capacities),
        source=source,
    )
    if not np.isfinite(result.aggregate_gbps) or result.aggregate_gbps <= 0:
        raise ValueError(f"{source}: aggregate {result.aggregate_gbps!r} Gbps")


def _check_fig4(graph, results: dict, source: str) -> None:
    check_graph(graph, source=f"graph[{source}]")
    for k, result in results.items():
        _check_throughput(result, LinkCapacities(), f"fig4[{source},k={k}]")


def _check_rtt_row(cold: RttSeries, resumed: RttSeries, index: int, pairs) -> None:
    source = f"rtt[{cold.mode.value},t={cold.times_s[index]:g}s]"
    column = slice(index, index + 1)
    row = RttSeries(mode=cold.mode, times_s=cold.times_s[column], rtt_ms=cold.rtt_ms[:, column])
    check_rtt_series(row, pairs, source=source)
    if cold.rtt_ms[:, index].tobytes() != resumed.rtt_ms[:, index].tobytes():
        raise ValueError(f"{source}: resumed row differs from the cold sweep")


def run_full(scale: ScenarioScale, seed: int, workdir: Path, registry=None) -> dict:
    """One repetition: timed stages, then output checks. Returns a record."""
    timings, rss = {}, {}
    with observe(registry) if registry is not None else nullcontext():
        scenario, timings["setup_s"] = run_setup(scale, seed)
        pairs = scenario.pairs
        rss["setup"] = peak_rss_mb()

        started = time.perf_counter()
        with span("fig4"):
            with span("graphs"):
                graphs = scenario.graphs_at(0.0, MODES)
            rss["graphs"] = peak_rss_mb()
            routed, fig4 = {}, {}
            for mode in MODES:
                with span("route"):
                    routed[mode] = route_traffic_multi_k(graphs[mode], pairs, KS)
                with span("allocate"):
                    for k in KS:
                        fig4[mode, k] = evaluate_throughput(
                            graphs[mode], pairs, k=k, routing=routed[mode][k]
                        )
        timings["fig4_s"] = time.perf_counter() - started

        started = time.perf_counter()
        hybrid = graphs[ConnectivityMode.HYBRID]
        with span("fig5"):
            fig5 = [
                evaluate_throughput(
                    hybrid,
                    pairs,
                    k=FIG5_K,
                    capacities=LinkCapacities().scaled_isl(ratio),
                    routing=routed[ConnectivityMode.HYBRID][FIG5_K],
                )
                for ratio in RATIOS
            ]
        timings["fig5_s"] = time.perf_counter() - started
        rss["routing"] = peak_rss_mb()

        root = workdir / "checkpoints"
        shutil.rmtree(root, ignore_errors=True)
        started = time.perf_counter()
        with span("rtt_sweep"):
            checkpoints = {mode: checkpoint_for(root, scenario, mode) for mode in MODES}
            cold = compute_rtt_series_multi(scenario, MODES, checkpoints=checkpoints)
        timings["rtt_sweep_s"] = time.perf_counter() - started
        shards = sorted(root.rglob("*.npz"))
        stored_bytes = sum(p.stat().st_size for p in root.rglob("*") if p.is_file())

        started = time.perf_counter()
        with span("resume"):
            checkpoints = {mode: checkpoint_for(root, scenario, mode) for mode in MODES}
            resumed = compute_rtt_series_multi(scenario, MODES, checkpoints=checkpoints)
        timings["resume_s"] = time.perf_counter() - started
        rss["sweep"] = peak_rss_mb()

    ops: dict = {}
    for mode in MODES:
        results = {k: fig4[mode, k] for k in KS}
        _check(ops, f"fig4/{mode.value}", _check_fig4, graphs[mode], results, mode.value)
    for ratio, result in zip(RATIOS, fig5):
        capacities = LinkCapacities().scaled_isl(ratio)
        _check(ops, f"fig5/{ratio:g}", _check_throughput, result, capacities, f"fig5[{ratio:g}x]")
    for mode in MODES:
        for i in range(len(scenario.times_s)):
            _check(ops, f"rtt/{mode.value}/{i}", _check_rtt_row, cold[mode], resumed[mode], i, pairs)

    record = {
        "timings": timings,
        "peak_rss_mb": peak_rss_mb(),
        "rss_mb": rss,
        "ops": ops,
        "results": {
            "fig4_gbps": {f"{m.value}/{k}": r.aggregate_gbps for (m, k), r in fig4.items()},
            "fig5_gbps": {f"{ratio:g}": r.aggregate_gbps for ratio, r in zip(RATIOS, fig5)},
            "counts": {
                f"{m.value}/{k}": {
                    "subflows": routed[m][k].num_subflows,
                    "unrouted": len(routed[m][k].unrouted_pairs),
                }
                for m in MODES
                for k in KS
            },
            "rtt_sha256": {m.value: sha256_of(cold[m].rtt_ms) for m in MODES},
        },
        "work": {
            "stations": scenario.ground.city_count + scenario.ground.relay_count,
            "sources": len({p.a for p in pairs}),
            "subflows": sum(routed[m][k].num_subflows for m in MODES for k in KS),
            "shards": len(shards),
            "bytes": stored_bytes,
        },
    }
    if registry is not None:
        record["layers"] = layer_metrics(registry, record)
    return record


# --- Per-layer attribution ---------------------------------------------------
#
# Every recorded span path is assigned to exactly one layer by its
# components; a layer's self time sums its paths' self times (span
# duration minus direct children). The benchmark's own spans (setup,
# fig4, graphs, route, allocate, fig5, rtt_sweep, resume) wrap the public
# calls; the rest are the program's existing ``repro.obs`` spans.


def _layer_of(path: str) -> str:
    parts = path.split("/")
    last = parts[-1]
    if parts[0] == "resume":
        return "checkpoint.resume"
    if last == "ground":
        return "ground.build"
    if last == "pairs":
        return "traffic.sample"
    if last in ("static", "static_build"):
        return "engine.static"
    if "frame_build" in parts:
        return "engine.frame"
    if "graph_build" in parts:
        return "engine.assemble"
    if last == "checkpoint_io.store":
        return "checkpoint.store"
    if "first_round" in parts:
        return "routing.first_round"
    if last == "disjoint_rounds":
        return "routing.disjoint_rounds"
    if last == "allocation":
        return "maxmin.allocation"
    if parts[0] == "rtt_sweep":
        return "pipeline.rtt_row" if last == "dijkstra" else "sweep.self"
    return "remainder"


def layer_metrics(registry: SampledRegistry, record: dict) -> dict:
    """Per-layer self times, counts and distributions from one traced run."""
    snapshot = registry.snapshot()
    totals = {path: entry["total_s"] for path, entry in snapshot["spans"].items()}
    counters = snapshot["counters"]
    child_total = dict.fromkeys(totals, 0.0)
    for path, total in totals.items():
        parent = path.rpartition("/")[0]
        if parent in child_total:
            child_total[parent] += total
    self_s: dict[str, float] = {}
    for path, total in totals.items():
        layer = _layer_of(path)
        self_s[layer] = self_s.get(layer, 0.0) + total - child_total[path]

    def samples(predicate) -> list[float]:
        return [s for path, v in registry.samples.items() if predicate(path) for s in v]

    def distribution(name: str, values: list[float]) -> dict:
        return {
            f"{name}.count": len(values),
            f"{name}.median": statistics.median(values) if values else 0.0,
            f"{name}.max": max(values, default=0.0),
        }

    hits = counters.get("engine.frame_hits", 0)
    misses = counters.get("engine.frame_misses", 0)
    pair_searches = counters.get("routing.pair_dijkstras", 0)
    rtt_rows = samples(lambda p: p.startswith("rtt_sweep/") and p.endswith("/dijkstra"))
    work = record["work"]
    out = {f"{layer}_s": seconds for layer, seconds in self_s.items()}
    out.update(
        {
            "ground.stations": work["stations"],
            "engine.frame_requests": hits + misses,
            "engine.frame_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "pipeline.dijkstra_sources": work["sources"] * len(rtt_rows),
            "checkpoint.shards": work["shards"],
            "checkpoint.bytes": work["bytes"],
            "integrity.shards_verified": counters.get("integrity.shards_verified", 0),
            "routing.batched_dijkstras": counters.get("routing.batched_dijkstras", 0),
            "routing.pair_dijkstras": pair_searches,
            "routing.pair_dijkstra_ms": (
                1e3 * self_s.get("routing.disjoint_rounds", 0.0) / pair_searches
                if pair_searches
                else 0.0
            ),
            "routing.subflows": work["subflows"],
            "routing.unrouted_pairs": counters.get("routing.unrouted_pairs", 0),
            "maxmin.bottleneck_rounds": counters.get("maxmin.bottleneck_rounds", 0),
        }
    )
    out.update(distribution("engine.frame_s", samples(lambda p: p.endswith("frame_build"))))
    out.update(distribution("pipeline.rtt_row_s", rtt_rows))
    out.update(distribution("maxmin.allocation_s", samples(lambda p: p.endswith("/allocation"))))
    for stage, mb in record["rss_mb"].items():
        out[f"rss.{stage}_mb"] = mb
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", choices=("warm", "setup", "full"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    scale = TINY if args.tiny else WORKLOADS[args.workload]()

    if args.part == "warm":
        record = {"land_fraction": land_fraction()}
    elif args.part == "setup":
        _, setup_s = run_setup(scale, args.seed)
        record = {"timings": {"setup_s": setup_s}}
    else:
        registry = SampledRegistry() if args.trace else None
        record = run_full(scale, args.seed, args.workdir, registry)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
