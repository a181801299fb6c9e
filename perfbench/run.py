"""The repository's benchmark: paper-graph Fig. 4/5 and a Fig. 2 day.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4-paper-graph --seed 42 --seconds 30 --trace 0

Each repetition runs in its own interpreter (``perfbench/probe.py``), one
after another, never in a pool, so every ``lru_cache`` and the engine's
frame cache start cold, as in a ``repro run`` process. Per run:

1. one child warms the on-disk land-mask raster, which users pay for once;
2. ``--trace 0``: set-up-only children, then full repetitions while the
   ``--seconds`` budget lasts (at least one). ``setup_s`` is the median of
   every set-up measured; the other metrics are medians over the full
   repetitions;
3. ``--trace 1``: one untraced and one traced full repetition; prints the
   per-layer table and the per-layer metrics, with the tracing overhead
   measured against the untraced repetition.

Outputs are checked on every seed (graph, RTT and allocation guards, and
a resume that must return the cold sweep bit for bit) and, for the default
seed, against ``perfbench/reference.json``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Any failed check exits non-zero.

``--tiny`` runs seconds-long stand-ins of the workloads (for the tests);
``--update-reference`` rewrites the default seed's reference entry.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 42
REFERENCE = HERE / "reference.json"
#: Set-up measurements per untraced run (one comes from each full repetition).
SETUP_SAMPLES = 3
#: Wall-clock cap for one run; a run must end within 180 s.
RUN_DEADLINE_S = 170.0
#: Relative tolerance of the stored aggregates (as tests/data/golden.json).
RTOL = 1e-6

#: Layers whose self times cover the end-to-end stages (resume is extra).
COVERING_LAYERS = (
    "ground.build_s",
    "traffic.sample_s",
    "engine.static_s",
    "engine.frame_s",
    "engine.assemble_s",
    "pipeline.rtt_row_s",
    "sweep.self_s",
    "checkpoint.store_s",
    "routing.first_round_s",
    "routing.disjoint_rounds_s",
    "maxmin.allocation_s",
    "remainder_s",
)
STAGES = ("setup_s", "fig4_s", "fig5_s", "rtt_sweep_s")


class ChildFailed(RuntimeError):
    """A probe process exited non-zero, timed out or printed no record."""


class Runner:
    """Starts probe children one at a time inside the checkout."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.workdir = ROOT / ".bench_work" / str(os.getpid())
        threads = "1"  # serial sweeps; at most nproc BLAS threads
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            REPRO_CACHE_DIR=str(ROOT / ".bench_cache"),
            TMPDIR=str(self.workdir / "tmp"),
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )

    def child(self, part: str, trace: bool = False) -> dict:
        (self.workdir / "tmp").mkdir(parents=True, exist_ok=True)
        command = [
            sys.executable,
            str(HERE / "probe.py"),
            "--part", part,
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--workdir", str(self.workdir),
        ]
        command += ["--trace"] * trace + ["--tiny"] * self.tiny
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed(f"{part}: run deadline of {RUN_DEADLINE_S:g} s passed")
        try:
            done = subprocess.run(
                command, env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{part}: timed out after {timeout:.0f} s") from None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise ChildFailed(f"{part}: exit {done.returncode}\n{done.stderr[-4000:]}")
        return json.loads(lines[-1])

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def reference_failures(results: dict, reference: dict) -> dict:
    """Op-name prefix -> message for every result that differs from the reference."""
    failures: dict = {}
    for key, expected in reference["fig4_gbps"].items():
        got = results["fig4_gbps"].get(key)
        if got is None or not math.isclose(got, expected, rel_tol=RTOL):
            failures.setdefault(f"fig4/{key.split('/')[0]}", f"fig4 {key}: {got} Gbps, reference {expected}")
    for key, expected in reference["counts"].items():
        got = results["counts"].get(key)
        if got != expected:
            failures.setdefault(f"fig4/{key.split('/')[0]}", f"counts {key}: {got}, reference {expected}")
    for ratio, expected in reference["fig5_gbps"].items():
        got = results["fig5_gbps"].get(ratio)
        if got is None or not math.isclose(got, expected, rel_tol=RTOL):
            failures[f"fig5/{ratio}"] = f"fig5 {ratio}x: {got} Gbps, reference {expected}"
    for mode, expected in reference["rtt_sha256"].items():
        if results["rtt_sha256"].get(mode) != expected:
            failures[f"rtt/{mode}"] = f"rtt {mode}: sha256 differs from the reference"
    return failures


def reference_key(workload: str, tiny: bool) -> str:
    return f"{workload}@tiny" if tiny else workload


def check_records(records: list, args) -> dict:
    """Every op across ``records`` -> None or its failure message."""
    ops: dict = {}
    reference = None
    if args.seed == DEFAULT_SEED and not args.update_reference:
        key = reference_key(args.workload, args.tiny)
        reference = json.loads(REFERENCE.read_text()).get(key)
        if reference is None:
            ops["reference"] = f"no reference entry for {key}"
    for n, record in enumerate(records):
        rep_ops = dict(record["ops"])
        if reference is not None:
            for prefix, message in reference_failures(record["results"], reference).items():
                for op in rep_ops:
                    if op == prefix or op.startswith(prefix + "/"):
                        rep_ops[op] = rep_ops[op] or message
        ops.update({f"rep{n}/{op}": message for op, message in rep_ops.items()})
    return ops


def update_reference(records: list, args) -> None:
    entries = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    entries[reference_key(args.workload, args.tiny)] = records[0]["results"]
    REFERENCE.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")


def layer_table(layers: dict, total: float) -> str:
    """Per-layer self times beside the untraced end-to-end total."""
    lines = [f"{'layer':28s} {'self s':>9s} {'share':>7s}"]
    rows = sorted(COVERING_LAYERS, key=lambda name: -layers.get(name, 0.0))
    for name in rows:
        seconds = layers.get(name, 0.0)
        lines.append(f"{name:28s} {seconds:9.3f} {seconds / total:7.1%}")
    lines.append(f"{'sum of self times':28s} {sum(layers.get(n, 0.0) for n in rows):9.3f}")
    lines.append(f"{'untraced end-to-end':28s} {total:9.3f}")
    lines.append(f"{'checkpoint.resume_s (extra)':28s} {layers.get('checkpoint.resume_s', 0.0):9.3f}")
    return "\n".join(lines)


def trace_metrics(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of a traced repetition, against an untraced one.

    Returns every layer figure by name; ``main`` reports those that
    ``BENCHMARK.json`` lists.
    """
    layers = dict(traced["layers"])
    plain_total = sum(untraced["timings"][s] for s in STAGES)
    traced_total = sum(traced["timings"][s] for s in STAGES)
    layers["stage.fig4_s"] = untraced["timings"]["fig4_s"]
    layers["stage.fig5_s"] = untraced["timings"]["fig5_s"]
    layers["trace.untraced_s"] = plain_total
    layers["trace.overhead_frac"] = traced_total / plain_total - 1.0
    layers["trace.remainder_frac"] = layers.get("remainder_s", 0.0) / traced_total
    covered = sum(layers.get(name, 0.0) for name in COVERING_LAYERS)
    print(layer_table(layers, plain_total))
    print(f"self times cover {covered / traced_total:.1%} of the traced run")
    return layers


def measure(runner: Runner, args) -> tuple[list, dict]:
    """Run the children for one benchmark run; returns (records, metrics)."""
    runner.child("warm")
    if args.trace:
        untraced = runner.child("full")
        traced = runner.child("full", trace=True)
        return [untraced, traced], trace_metrics(untraced, traced)

    setups = [runner.child("setup")["timings"]["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    records: list = []
    started = time.monotonic()
    while True:
        rep_started = time.monotonic()
        records.append(runner.child("full"))
        now = time.monotonic()
        if now - started + (now - rep_started) > args.seconds:
            break
    setups += [r["timings"]["setup_s"] for r in records]
    return records, {
        "setup_s": statistics.median(setups),
        "throughput_s": statistics.median(
            r["timings"]["fig4_s"] + r["timings"]["fig5_s"] for r in records
        ),
        "rtt_sweep_s": statistics.median(r["timings"]["rtt_sweep_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.update_reference and args.seed != DEFAULT_SEED:
        print(f"references are recorded for seed {DEFAULT_SEED} only", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.tiny)
    try:
        records, values = measure(runner, args)
    except ChildFailed as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    if args.update_reference:
        update_reference(records, args)
    ops = check_records(records, args)
    failed = {op: message for op, message in ops.items() if message}
    for op, message in failed.items():
        print(f"FAILED {op}: {message}", file=sys.stderr)
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": {
                    m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in reported
                },
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
