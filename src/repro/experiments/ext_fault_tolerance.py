"""Extension — graceful degradation under component outages.

Section 5 shows that without ISLs, 25-31% of satellites are *naturally*
useless at any moment (nobody sees them over oceans). This experiment
extends that analysis to *injected* faults: remove a seeded fraction of
satellites from every snapshot (see :mod:`repro.faults`) and measure
how pair reachability and median RTT degrade for the BP-only versus the
hybrid network.

The expectation, and the robustness counterpart of the paper's thesis:
the BP network leans on dense satellite coverage to stitch ground hops
together, so its connectivity collapses faster under satellite loss
than the hybrid network, whose ISL mesh routes around missing nodes.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import _pair_rtts_on_graph
from repro.core.scenario import Scenario, ScenarioScale
from repro.experiments.base import ExperimentResult, default_scale, register
from repro.faults import FaultSpec
from repro.network.graph import ConnectivityMode
from repro.reporting.tables import format_summary, format_table

__all__ = ["outage_reachability", "run"]


def _outage_rtts(scenario: Scenario, fractions, modes, seed: int, times_s) -> dict:
    """RTT rows (pairs x times) per ``(fraction, mode)``, time-outer.

    Every (fraction, mode) graph of one time assembles from the same
    cached geometry frame before the sweep moves to the next time, so the
    engine's small frame cache serves them all.
    """
    degraded = {f: scenario.with_faults(FaultSpec(sat=f, seed=seed)) for f in fractions}
    rows: dict = {(f, mode): [] for f in fractions for mode in modes}
    for time_s in times_s:
        for (fraction, mode), found in rows.items():
            variant = degraded[fraction]
            graph = variant.graph_at(float(time_s), mode)
            found.append(_pair_rtts_on_graph(graph, variant.pairs))
    return {key: np.stack(found, axis=1) for key, found in rows.items()}


def _summary(rtt: np.ndarray) -> dict:
    finite = np.isfinite(rtt)
    return {
        "reachable": float(np.mean(finite)),
        "median_rtt_ms": float(np.median(rtt[finite])) if finite.any() else float("nan"),
    }


def outage_reachability(
    scenario: Scenario,
    fraction: float,
    mode: ConnectivityMode,
    seed: int = 7,
    times_s: list[float] | None = None,
) -> dict:
    """Reachability and latency of a scenario under satellite outages.

    Returns ``reachable`` (fraction of (pair, snapshot) cells with a
    finite RTT) and ``median_rtt_ms`` (over the reachable cells; ``nan``
    when nothing is reachable). Deterministic under a fixed seed.
    """
    if times_s is None:
        times_s = scenario.times_s
    rtts = _outage_rtts(scenario, [fraction], [mode], seed, times_s)
    return _summary(rtts[fraction, mode])


@register("faults")
def run(
    scale: ScenarioScale | None = None,
    constellation: str = "starlink",
    fractions: tuple[float, ...] = (0.0, 0.5, 0.8, 0.9),
    seed: int = 7,
) -> ExperimentResult:
    """Run this experiment; see the module docstring for the design."""
    scale = scale or default_scale()
    scenario = Scenario.paper_default(constellation, scale)
    # A handful of snapshots suffices for the degradation curve; the
    # outage draw is persistent across snapshots anyway.
    times = [float(t) for t in scenario.times_s[:: max(1, len(scenario.times_s) // 4)]]

    modes = (ConnectivityMode.BP_ONLY, ConnectivityMode.HYBRID)
    rtts = _outage_rtts(scenario, fractions, modes, seed, times)
    rows = []
    bp_reachable, hybrid_reachable = [], []
    for fraction in fractions:
        bp, hybrid = (_summary(rtts[fraction, mode]) for mode in modes)
        bp_reachable.append(bp["reachable"])
        hybrid_reachable.append(hybrid["reachable"])
        rows.append(
            [
                f"{100 * fraction:.0f}%",
                f"{100 * bp['reachable']:.1f}%",
                f"{100 * hybrid['reachable']:.1f}%",
                f"{bp['median_rtt_ms']:.1f}",
                f"{hybrid['median_rtt_ms']:.1f}",
            ]
        )

    bp_drop = bp_reachable[0] - bp_reachable[-1]
    hybrid_drop = hybrid_reachable[0] - hybrid_reachable[-1]
    table = format_table(
        [
            "satellites lost",
            "BP reachable",
            "hybrid reachable",
            "BP median RTT (ms)",
            "hybrid median RTT (ms)",
        ],
        rows,
        title="Graceful degradation under satellite outages",
    )
    headline = {
        f"BP reachability drop at {100 * fractions[-1]:.0f}% outage (pp)": round(
            100 * bp_drop, 1
        ),
        f"hybrid reachability drop at {100 * fractions[-1]:.0f}% outage (pp)": round(
            100 * hybrid_drop, 1
        ),
        "BP degrades faster than hybrid": bool(bp_drop >= hybrid_drop),
    }
    return ExperimentResult(
        experiment_id="faults",
        title="BP vs hybrid resilience to satellite outages",
        scale_name=scale.name,
        tables=[table, format_summary("Outage-resilience headline", headline)],
        data={
            "fractions": np.asarray(fractions),
            "bp_reachable": np.asarray(bp_reachable),
            "hybrid_reachable": np.asarray(hybrid_reachable),
            "seed": seed,
        },
        headline=headline,
    )
