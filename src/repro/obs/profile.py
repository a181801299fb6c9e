"""Human-readable rendering of collected metrics (``--profile`` output).

``repro run --out DIR --profile`` writes the machine-readable
``metrics.json`` and prints the tables produced here: per experiment,
the span tree sorted by total time plus the counters. The rendering
reuses :mod:`repro.reporting.tables` so profile output matches the rest
of the CLI.
"""

from __future__ import annotations

__all__ = ["format_profile_report", "format_experiment_profile"]


def _span_rows(spans: dict, top: int) -> list[list[str]]:
    ordered = sorted(spans.items(), key=lambda kv: kv[1]["total_s"], reverse=True)
    rows = []
    for path, stats in ordered[:top]:
        count = stats["count"]
        mean_ms = 1e3 * stats["total_s"] / count if count else 0.0
        rows.append(
            [
                path,
                str(count),
                f"{stats['total_s']:.3f}",
                f"{mean_ms:.2f}",
                f"{1e3 * stats['max_s']:.2f}",
            ]
        )
    return rows


def format_experiment_profile(experiment_id: str, payload: dict, top: int = 14) -> str:
    """Render one experiment's span/counter aggregate as text tables.

    ``payload`` is one entry of the ``metrics.json`` ``experiments``
    map; ``top`` bounds the span table to the costliest paths.
    """
    from repro.reporting.tables import format_table

    blocks = []
    header = f"profile: {experiment_id}"
    wall = payload.get("wall_s")
    cpu = payload.get("cpu_s")
    peak_rss = payload.get("peak_rss_mb")
    children_rss = payload.get("peak_children_rss_mb")
    if wall is not None:
        rss = "" if peak_rss is None else f", peak RSS {peak_rss:.1f} MB"
        if children_rss is not None:
            rss += f", children {children_rss:.1f} MB"
        header += f" (wall {wall:.2f}s, cpu {cpu:.2f}s{rss})"
    rows = _span_rows(payload.get("spans", {}), top)
    if rows:
        blocks.append(
            format_table(
                ["span", "count", "total (s)", "mean (ms)", "max (ms)"],
                rows,
                title=header,
            )
        )
    else:
        blocks.append(f"{header}: no spans recorded")
    counters = payload.get("counters", {})
    if counters:
        counter_rows = [
            [name, f"{value:g}"] for name, value in sorted(counters.items())
        ]
        blocks.append(format_table(["counter", "value"], counter_rows))
    return "\n".join(blocks)


def format_profile_report(metrics_by_experiment: dict, top: int = 14) -> str:
    """Render the whole run's profile: one block per experiment."""
    if not metrics_by_experiment:
        return "profile: no metrics collected"
    return "\n\n".join(
        format_experiment_profile(eid, payload, top)
        for eid, payload in metrics_by_experiment.items()
    )
