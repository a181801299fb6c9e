"""Record one point on the repo's performance trajectory.

Runs the reduced-scale benchmark suite (the same experiments the
``benchmarks/`` harness times, driven through
:func:`repro.core.runner.run_experiments` with profiling on), folds in a
pytest-benchmark JSON export when one is supplied, and writes a
schema-versioned ``BENCH_<date>.json`` at the repo root:

.. code-block:: text

    python scripts/bench_trajectory.py --smoke          # CI-sized record
    python scripts/bench_trajectory.py                  # reduced scale
    python scripts/bench_trajectory.py --pytest-json benchmarks/out.json

Each run is then compared against the most recent previous record (or an
explicit ``--baseline``): any experiment whose wall time grew by more
than ``--threshold`` (default 25%) is reported as a regression and the
script exits non-zero, which is how CI fails the build on a perf
regression. The very first record has nothing to compare against and
exits 0.

Records land in ``benchmarks/`` by default; baseline discovery also
looks at the repo root, where records lived historically, so the
trajectory survives the move. Smoke runs repeat the suite and record
each experiment's *minimum* wall time (best-of-N) — the standard way to
estimate the true cost of deterministic code on a shared host, where
single samples swing by +-20% with background load.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Allow `python scripts/bench_trajectory.py` without PYTHONPATH=src.
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.runner import run_experiments  # noqa: E402
from repro.core.scenario import ScenarioScale  # noqa: E402
from repro.obs import BENCH_SCHEMA, METRICS_SCHEMA_VERSION, validate  # noqa: E402
from repro.obs.schema import SchemaError  # noqa: E402

#: Experiments timed by default: the two headline figures (latency and
#: throughput) exercise every instrumented layer between them.
DEFAULT_EXPERIMENTS = ("fig2", "fig4")

#: Timings below this are dominated by noise; skip them when comparing.
MIN_COMPARABLE_S = 0.05

#: Smoke gate: largest share of fig4's disjoint-round searches that may
#: need an unbounded retry (smoke measures ~5% BP, ~1% hybrid). More
#: means the search radius no longer fits the graphs' path stretch.
MAX_BOUNDED_RETRY_RATIO = 0.10


def smoke_scale() -> ScenarioScale:
    """CI-sized configuration: seconds per experiment, still end-to-end."""
    return ScenarioScale(
        name="bench-smoke",
        num_cities=40,
        num_pairs=25,
        relay_spacing_deg=4.0,
        num_snapshots=2,
        snapshot_interval_s=1800.0,
    )


def git_rev() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def engine_cache_summary(counters: dict) -> dict:
    """Snapshot-engine cache behaviour distilled from obs counters.

    The frame hit rate is the headline: a two-mode sweep that shares
    geometry frames shows a rate near 0.5 (every frame built once, hit
    once); a rate of 0 means every graph rebuilt its geometry.
    """
    frame_hits = float(counters.get("engine.frame_hits", 0))
    frame_misses = float(counters.get("engine.frame_misses", 0))
    total = frame_hits + frame_misses
    return {
        "frame_hits": frame_hits,
        "frame_misses": frame_misses,
        "frame_hit_rate": frame_hits / total if total else 0.0,
        "static_hits": float(counters.get("engine.static_hits", 0)),
        "static_misses": float(counters.get("engine.static_misses", 0)),
    }


def span_leaf_aggregate(spans: dict, leaf: str) -> dict | None:
    """Combined stats of every span path ending in ``leaf``.

    The same instrumented stage runs under several parents (e.g.
    ``snapshot/graph_build`` in sweeps, bare ``graph_build`` for
    one-shot builds), so the bench record folds all paths sharing a
    leaf into one aggregate. Returns ``None`` when the leaf never ran.
    """
    total = {"count": 0, "total_s": 0.0, "min_s": float("inf"), "max_s": 0.0}
    for path, stats in spans.items():
        if path.split("/")[-1] != leaf:
            continue
        total["count"] += int(stats["count"])
        total["total_s"] += float(stats["total_s"])
        total["min_s"] = min(total["min_s"], float(stats["min_s"]))
        total["max_s"] = max(total["max_s"], float(stats["max_s"]))
    return total if total["count"] else None


def graph_build_aggregate(spans: dict) -> dict | None:
    """Combined stats of every ``graph_build`` span path in a span tree."""
    return span_leaf_aggregate(spans, "graph_build")


def run_suite(
    experiment_ids: list[str], scale: ScenarioScale, repeats: int = 1
) -> dict:
    """Run the experiments with profiling on; return bench entries.

    Each entry carries the experiment's wall/CPU time plus the span tree
    and counters its instrumented layers reported, the snapshot-engine
    cache summary, and aggregates of its graph-build and routing spans.
    The routing aggregate also becomes its own ``<eid>:routing`` entry,
    so the routing fast path rides the same regression gate as the
    experiments themselves. A failing experiment aborts the record — a
    trajectory point for a broken build would only poison later
    comparisons.

    With ``repeats > 1`` the whole suite runs that many times and each
    experiment keeps the metrics of its *fastest* run (best-of-N): the
    suite is deterministic, so the minimum is the sample least polluted
    by scheduler and co-tenant noise.
    """
    best: dict[str, dict] = {}
    for _ in range(max(1, int(repeats))):
        summary = run_experiments(
            list(experiment_ids), scale=scale, profile=True, echo=lambda _: None
        )
        if summary.failures:
            details = "; ".join(f.brief() for f in summary.failures)
            raise RuntimeError(f"benchmark experiments failed: {details}")
        for eid, payload in summary.metrics_by_experiment.items():
            if eid not in best or payload["wall_s"] < best[eid]["wall_s"]:
                best[eid] = payload
    entries = {}
    for eid, payload in best.items():
        entries[eid] = {
            "source": "run_experiments",
            "wall_s": payload["wall_s"],
            "cpu_s": payload["cpu_s"],
            "spans": payload["spans"],
            "counters": payload["counters"],
            "engine_cache": engine_cache_summary(payload["counters"]),
        }
        for leaf in ("graph_build", "routing"):
            aggregate = span_leaf_aggregate(payload["spans"], leaf)
            if aggregate is not None:
                entries[eid][leaf] = aggregate
                if leaf == "routing":
                    entries[f"{eid}:routing"] = {
                        "source": "span-aggregate",
                        "wall_s": aggregate["total_s"],
                    }
    return entries


def fold_pytest_benchmarks(path: Path) -> dict:
    """Convert a ``pytest-benchmark --benchmark-json`` export to entries.

    Each benchmark's mean becomes that entry's ``wall_s``, keyed by the
    benchmark name, so pytest-benchmark timings ride the same trajectory
    file (and regression check) as the experiment timings.
    """
    data = json.loads(Path(path).read_text())
    entries = {}
    for bench in data.get("benchmarks", []):
        entries[bench["name"]] = {
            "source": "pytest-benchmark",
            "wall_s": float(bench["stats"]["mean"]),
        }
    return entries


def previous_record(directory: Path, exclude: Path | None = None) -> Path | None:
    """Latest ``BENCH_*.json`` in ``directory`` other than ``exclude``.

    The timestamp in the filename sorts lexicographically, so the max
    name is the newest record.
    """
    candidates = [
        p
        for p in directory.glob("BENCH_*.json")
        if exclude is None or p.resolve() != exclude.resolve()
    ]
    return max(candidates, default=None, key=lambda p: p.name)


def latest_baseline(out_dir: Path, exclude: Path | None = None) -> Path | None:
    """Newest record across ``out_dir`` and the historical locations.

    Records default to ``benchmarks/`` but lived at the repo root for
    the project's first trajectory points; baseline discovery scans
    both (plus an explicit ``--out``) so the move never orphans the
    history. Newest record by filename timestamp wins, wherever it is.
    """
    seen: set[Path] = set()
    candidates: list[Path] = []
    for directory in (out_dir, REPO_ROOT / "benchmarks", REPO_ROOT):
        directory = directory.resolve()
        if directory in seen:
            continue
        seen.add(directory)
        found = previous_record(directory, exclude=exclude)
        if found is not None:
            candidates.append(found)
    return max(candidates, default=None, key=lambda p: p.name)


def compare(current: dict, previous: dict, threshold: float) -> list[str]:
    """Regression lines for entries whose wall time grew past ``threshold``.

    Entries missing from either record, and entries faster than
    ``MIN_COMPARABLE_S`` in the baseline, are skipped — new benchmarks
    and noise-floor timings are not regressions.
    """
    regressions = []
    for name in sorted(current["entries"]):
        if name not in previous["entries"]:
            continue
        before = float(previous["entries"][name]["wall_s"])
        after = float(current["entries"][name]["wall_s"])
        if before < MIN_COMPARABLE_S:
            continue
        ratio = after / before
        if ratio > 1.0 + threshold:
            regressions.append(
                f"{name}: {before:.3f}s -> {after:.3f}s "
                f"({(ratio - 1.0) * 100:+.1f}%, threshold +{threshold * 100:.0f}%)"
            )
    return regressions


def build_parser() -> argparse.ArgumentParser:
    """Command-line interface (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized scale (seconds per experiment) instead of reduced scale",
    )
    parser.add_argument(
        "--experiments",
        default=",".join(DEFAULT_EXPERIMENTS),
        help="comma-separated experiment ids to time (default: %(default)s)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory for BENCH_*.json records (default: benchmarks/; "
        "baseline discovery then also scans the repo root, where records "
        "lived historically)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="run the suite N times and record each experiment's minimum "
        "wall time (default: 5 with --smoke, else 1) — best-of-N is how "
        "you time deterministic code on a noisy shared host",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="compare against this record instead of the latest in --out",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional wall-time growth that counts as a regression "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--pytest-json",
        type=Path,
        default=None,
        metavar="FILE",
        help="fold a `pytest --benchmark-json` export into the record",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code (1 = regression)."""
    args = build_parser().parse_args(argv)
    explicit_out = args.out is not None
    out_dir = args.out if explicit_out else REPO_ROOT / "benchmarks"
    out_dir.mkdir(parents=True, exist_ok=True)
    scale = smoke_scale() if args.smoke else ScenarioScale.small()
    experiment_ids = [e for e in args.experiments.split(",") if e]
    repeats = args.repeats if args.repeats is not None else (5 if args.smoke else 1)

    entries = run_suite(experiment_ids, scale, repeats=repeats)

    if args.smoke:
        # CI gate: the smoke experiments include two-mode sweeps (fig2's
        # BP+hybrid comparison), which must share geometry frames. A
        # zero hit rate across the board means the engine's frame cache
        # has stopped working — fail the build, not just the perf check.
        rates = {
            name: entry["engine_cache"]["frame_hit_rate"]
            for name, entry in entries.items()
            if "engine_cache" in entry
        }
        if rates and max(rates.values()) <= 0.0:
            print(
                "ENGINE CACHE REGRESSION: zero frame-cache hit rate on the "
                f"smoke suite ({rates}); two-mode sweeps should share frames"
            )
            return 1
        # CI gate: fig4's routing must be going through the
        # source-batched fast path — at least one batched source
        # Dijkstra, and at k=1 no per-pair searches at all (per-pair
        # calls only appear for the k=4 rounds).
        fig4 = entries.get("fig4")
        if fig4 is not None:
            counters = fig4.get("counters", {})
            if not counters.get("routing.batched_dijkstras"):
                print(
                    "ROUTING FAST-PATH REGRESSION: fig4 recorded no batched "
                    "source Dijkstras; round 1 should be source-batched "
                    f"(counters: { {k: v for k, v in counters.items() if k.startswith('routing.')} })"
                )
                return 1
            # CI gate: rounds 2..k search a bounded radius and retry
            # unbounded on a miss; frequent retries cost more than the
            # bound saves.
            searches = counters.get("routing.pair_dijkstras", 0)
            retries = counters.get("routing.bounded_retries", 0)
            if searches and retries / searches > MAX_BOUNDED_RETRY_RATIO:
                print(
                    "ROUTING FAST-PATH REGRESSION: fig4 retried "
                    f"{retries} of {searches} bounded disjoint-round searches "
                    f"(more than {MAX_BOUNDED_RETRY_RATIO:.0%})"
                )
                return 1

    if args.pytest_json is not None:
        entries.update(fold_pytest_benchmarks(args.pytest_json))

    record = {
        "kind": "bench-trajectory",
        "schema_version": METRICS_SCHEMA_VERSION,
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_rev": git_rev(),
        "config": {
            "scale": scale.name,
            "experiments": experiment_ids,
            "smoke": bool(args.smoke),
        },
        "entries": entries,
    }
    validate(record, BENCH_SCHEMA)
    # Microseconds keep back-to-back runs (tests, tight CI loops) from
    # colliding on one filename; lexicographic order still equals time order.
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S-%f")
    record_path = out_dir / f"BENCH_{stamp}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {record_path}")
    for name in sorted(entries):
        print(f"  {name:<28s} {entries[name]['wall_s']:8.3f}s")

    # An explicit --out is an isolated trajectory (tests, scratch runs);
    # the default location also consults the historical repo-root records.
    baseline_path = args.baseline or (
        previous_record(out_dir, exclude=record_path)
        if explicit_out
        else latest_baseline(out_dir, exclude=record_path)
    )
    if baseline_path is None:
        print("no previous record to compare against; trajectory starts here")
        return 0
    # A corrupt or empty baseline must not fail the run being measured:
    # the new record is already written, and "nothing to compare against"
    # is the first-record case, not an error.
    try:
        baseline = json.loads(Path(baseline_path).read_text())
        validate(baseline, BENCH_SCHEMA)
    except (OSError, json.JSONDecodeError, SchemaError) as exc:
        print(
            f"baseline {baseline_path} is unusable ({exc}); "
            "skipping comparison"
        )
        return 0
    if not baseline["entries"]:
        print(
            f"baseline {baseline_path} has no entries; skipping comparison"
        )
        return 0
    if baseline["config"] != record["config"]:
        print(
            f"baseline {baseline_path} used config {baseline['config']}; "
            f"this run used {record['config']} — skipping comparison"
        )
        return 0
    regressions = compare(record, baseline, args.threshold)
    print(f"compared against {baseline_path}")
    if regressions:
        print("PERFORMANCE REGRESSIONS:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
