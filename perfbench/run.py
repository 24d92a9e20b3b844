"""Layer-attributed benchmark of the ``repro`` CLI.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload lhr-cdn-a --seed 1 --seconds 15 --trace 0

Writes the workload's traces from ``--seed`` (four trace seeds per run,
once per work directory, ``.perfbench/``), replays a toy-size canary,
then launches the real CLI once per trace, one process at a time, and
repeats that pass as often as the workload's nominal pass time fits in
``--seconds`` (at least once).  It prints every
metric with its unit, and as its last line one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics
(medians over the timed runs) with ``--trace 0``, the per-layer metrics
with ``--trace 1``, which adds one traced in-process run on the first
trace and writes its layer table to ``.perfbench/results/``.  A
per-layer metric of a layer the workload does not run reads 0.

``--record-expected 0-10`` instead replays the workload once on every
trace of the listed seeds (and the canary) and stores the statistics in
``expected.json``.

``NOTES.md`` maps every metric to its layer and workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import harness, traced, workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "replay_rps": "1/s",
    "peak_rss_mb": "MB",
    "hit_ratio": "ratio",
}
PER_LAYER = {
    "cli.import_s": "s",
    "traces.load_s": "s",
    "traces.pack_s": "s",
    "cli.other_s": "s",
    "sim.replay_s": "s",
    "obs.ledger_s": "s",
    "lhr.threshold.self_s": "s",
    "lhr.threshold.calls": "count",
    "lhr.threshold.adopt_ratio": "ratio",
    "lhr.evict.self_s": "s",
    "lhr.evict.calls": "count",
    "lhr.evict.sample_s": "s",
    "lhr.gbm_fit.self_s": "s",
    "lhr.gbm_fit.calls": "count",
    "lhr.gbm_fit.rows": "count",
    "lhr.retrain_ratio": "ratio",
    "lhr.gbm_predict.self_s": "s",
    "lhr.gbm_predict.rows": "count",
    "lhr.features.self_s": "s",
    "lhr.features.calls": "count",
    "lhr.hro.self_s": "s",
    "lhr.drift.self_s": "s",
    "lhr.window.self_s": "s",
    "lhr.windows": "count",
    "lhr.engine.self_s": "s",
    "lhr.scale_exp": "exponent",
    "sweep.scatter_s": "s",
    "sweep.worker_util_min": "ratio",
    "sweep.straggler_ratio": "ratio",
    **{f"sweep.cell_s.{p}": "s" for p in workloads.SWEEP_POLICIES},
    **{f"engine.packed_speedup.{p}": "ratio" for p in workloads.SWEEP_POLICIES},
    "obs.emit.calls": "count",
    "obs.emit.self_s": "s",
    "obs.spans": "count",
    "obs.enabled_cost_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


class Ops:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(f"{what} ({failed} of {attempted})")


def _capacity(workload) -> int:
    return int(workload.command[workload.command.index("--capacity") + 1])


def timed_passes(workload, traces: dict, seconds: float) -> list:
    """Replay every trace once per pass, one process at a time; returns
    ``(trace seed, Rep)``.  The number of passes follows from ``seconds``
    and the workload's nominal pass time, not from the clock, so a slow
    moment on the host never changes how much work a run measures."""
    passes = max(1, int(seconds // workload.pass_seconds))
    return [
        (trace_seed, harness.run_cli(workload, path))
        for _ in range(passes)
        for trace_seed, path in traces.items()
    ]


def check_reps(ops: Ops, key: str, reps: list, label: str) -> list | None:
    """Check every run's statistics against the reference; returns it."""
    first = next((rep.cells for rep in reps if rep.ok), None)
    reference, source = harness.reference_cells(key, first)
    for i, rep in enumerate(reps):
        if not rep.ok:
            ops.check(False, f"{label} run {i}: exit code {rep.exit_code}")
        else:
            ops.check(rep.cells == reference,
                      f"{label} run {i}: statistics differ from the {source} ones")
    return reference


def end_to_end(reps: list, references: dict) -> dict:
    """Medians over the timed runs; hit ratios averaged over the traces."""
    good = [(seed, rep) for seed, rep in reps if rep.ok]
    timings = harness.median_timings([rep for _, rep in good])
    ratios = [harness.cell_ratios(cells) for cells in references.values()]
    return {
        "wall_s": timings["wall_s"],
        "setup_s": timings["setup_s"],
        "replay_rps": statistics.median(
            sum(cell[2] for cell in references[seed]) / rep.timings["replay_s"]
            for seed, rep in good),
        "peak_rss_mb": timings["rss_mb"],
        "hit_ratio": statistics.fmean(hit for hit, _ in ratios),
        "byte_hit_ratio": statistics.fmean(byte for _, byte in ratios),
    }


def per_layer(ops, workload, trace_seed, trace, reference, reps) -> dict:
    """Timed-run boundaries, then the traced run on one of the traces.
    Ratios against a timed replay use that trace's timed runs only."""
    metrics = {name: 0.0 for name in PER_LAYER}
    timings = harness.median_timings([rep for _, rep in reps])
    same_trace = harness.median_timings([r for s, r in reps if s == trace_seed])
    if not same_trace:
        return metrics
    metrics.update({
        "cli.import_s": timings["import_s"],
        "traces.load_s": timings["load_s"],
        "traces.pack_s": timings["pack_s"],
        "cli.other_s": timings["other_s"],
        "sim.replay_s": timings["replay_s"],
        "obs.ledger_s": timings["ledger_s"],
    })
    sweep = workload.name == "sweep-classic"
    try:
        # The untraced baseline runs in this process too, so the
        # overhead compares like with like.
        untraced = traced.traced_run(workload, trace, layers=())
        run = traced.traced_run(
            workload, trace, ("--trace-out", "{out}/spans.json") if sweep else ())
    except Exception as exc:  # noqa: BLE001 -- reported as a failed operation
        traceback.print_exc()
        ops.check(False, f"traced run: {exc}")
        return metrics
    for label, done in (("untraced", untraced), ("traced", run)):
        ops.check(harness.manifest_cells(done["manifest"]) == reference,
                  f"in-process {label} run: statistics differ")
    metrics["trace.overhead_frac"] = run["replay_s"] / untraced["replay_s"] - 1
    if sweep:
        report = traced.timeline(run["ledger"])
        metrics.update(traced.sweep_metrics(report))
        rows = traced.timeline_table(report)
        speedups, mismatches = traced.packed_speedups(trace, workload.scale)
        metrics.update(speedups)
        ops.count(len(speedups), mismatches, "object and packed paths disagree")
    else:
        rows = traced.layer_table(run["timer"], run["replay_s"])
        if workload.name.startswith("lhr-"):
            metrics.update(traced.lhr_metrics(run))
        metrics["obs.emit.calls"] = run["timer"].calls["obs.emit"]
        metrics["obs.emit.self_s"] = run["timer"].self_s["obs.emit"]
    if workload.name == "obs-lru":
        metrics["obs.spans"] = next(r.spans for s, r in reps if s == trace_seed)
        window = int(workload.command[workload.command.index("--window") + 1])
        metrics["obs.enabled_cost_ratio"] = same_trace["replay_s"] / (
            traced.unobserved_replay_s(trace, _capacity(workload), window))
    if workload.name == "lhr-cdn-a":
        half = workloads.half_rung(workload)
        half_reps = [harness.run_cli(half, harness.generate(half, trace_seed))
                     for _ in range(2)]
        check_reps(ops, harness.stats_key(half, trace_seed), half_reps, "half rung")
        if any(rep.ok for rep in half_reps):
            metrics["lhr.scale_exp"] = traced.growth_exponent(
                same_trace["replay_s"],
                harness.median_timings(half_reps)["replay_s"])
    boundaries = {k: metrics[k] for k in list(PER_LAYER)[:6]}
    table = traced.write_table(workload.name, trace_seed, rows, run["replay_s"],
                               boundaries)
    print(table.read_text(), end="")
    print(f"layer table: {table}")
    return metrics


def emit_telemetry(workload, seed, e2e: dict, references: dict,
                   reps: int) -> Path:
    """The run summary as a ``repro-bench/2`` payload, written beside
    the other outputs and recorded in the benchmark's own ledger, so
    ``repro bench-compare --ledger .perfbench/bench-ledger FILE`` trends it."""
    from datetime import datetime, timezone

    from repro.obs.baseline import SCHEMA, validate_telemetry
    from repro.obs.runs import RunLedger, RunRecord, config_digest, current_git_rev

    name = f"perfbench-{workload.name}"
    config = {"name": name, "scale": workload.scale, "seed": seed,
              "jobs": workload.jobs}
    digest = config_digest(config)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    cells = [cell for cells in references.values() for cell in cells]
    hit_ratios: dict[str, list] = {}
    for cell in cells:
        hit_ratios.setdefault(f"{cell[0]}@{cell[1]}", []).append(cell[3] / cell[2])
    payload = {
        "schema": SCHEMA,
        **config,
        "run_id": f"{stamp}-{digest[:8]}",
        "git_rev": current_git_rev(),
        "config_digest": digest,
        "wall_seconds": e2e["wall_s"],
        "requests": sum(cell[2] for cell in cells),
        "throughput_rps": e2e["replay_rps"],
        "peak_rss_bytes": int(e2e["peak_rss_mb"] * (1 << 20)),
        "hit_ratios": {k: statistics.fmean(v) for k, v in hit_ratios.items()},
        "obs_overhead_percent": None,
        "extra": {**e2e, "reps": reps, "trace_seeds": list(references)},
    }
    validate_telemetry(payload)
    out = harness.WORK / "telemetry" / f"BENCH_{name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    RunLedger(harness.WORK / "bench-ledger").record(RunRecord(
        command="bench", name=name, run_id=payload["run_id"],
        git_rev=payload["git_rev"], config_digest=digest, config=config,
        metrics=payload,
    ))
    return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = Ops()
    workload = workloads.get(name)
    toy = workloads.get(name, toy=True)
    traces = {s: harness.generate(workload, s) for s in harness.trace_seeds(seed)}
    # Canary: the same command on a toy trace, against committed
    # statistics.  It also warms the page cache and bytecode cache.
    canary = harness.run_cli(toy, harness.generate(toy, 0))
    expected = harness.committed_stats().get(harness.stats_key(toy, 0))
    ops.check(expected is not None and canary.cells == expected,
              "canary: statistics differ from expected.json (or none committed)")
    reps = timed_passes(workload, traces, seconds)
    references = {
        s: check_reps(ops, harness.stats_key(workload, s),
                      [rep for t, rep in reps if t == s], f"trace seed {s}")
        for s in traces
    }
    if any(cells is None for cells in references.values()) or not all(
        rep.ok for _, rep in reps
    ):
        print("FAILED: " + "; ".join(ops.errors), file=sys.stderr)
        return {"correct": False, "attempted": ops.attempted,
                "failed": ops.failed, "metrics": {}}
    if name == "sweep-classic":
        for s, cells in references.items():
            for error in harness.mattson_errors(traces[s], cells):
                ops.check(False, error)
    if not ops.failed:
        for s, cells in references.items():
            harness.remember(harness.stats_key(workload, s), cells)
    e2e = end_to_end(reps, references)
    emit_telemetry(workload, seed, e2e, references, len(reps))
    # Byte hit ratio is reported but not a bounded metric: on these
    # traces a few multi-GB objects make it swing 20-60% between seeds.
    print(f"{'byte_hit_ratio (unbounded)':<32} {e2e.pop('byte_hit_ratio'):>16.6f}")
    if trace:
        first = next(iter(traces))
        metrics = per_layer(ops, workload, first, traces[first], references[first],
                            reps)
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    for error in ops.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    for metric, value in metrics.items():
        print(f"{metric:<32} {value:>16.6f} {units[metric]}")
    print(f"{len(reps)} timed runs; {ops.attempted} operations, "
          f"{ops.failed} failed")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def record_expected(name: str, seeds: list[int]) -> None:
    stored = harness.committed_stats()
    jobs = [(workloads.get(name, toy=True), 0)] + [
        (workloads.get(name), s) for seed in seeds for s in harness.trace_seeds(seed)
    ]
    for workload, seed in jobs:
        rep = harness.run_cli(workload, harness.generate(workload, seed))
        if not rep.ok:
            raise SystemExit(f"{workload.name} trace seed {seed}: run failed")
        stored[harness.stats_key(workload, seed)] = rep.cells
        print(f"{workload.name} trace seed {seed}: {len(rep.cells)} cells")
    lines = [f"{json.dumps(k)}: {json.dumps(stored[k])}" for k in sorted(stored)]
    harness.EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def _seed_range(text: str) -> list[int]:
    if text == "none":
        return []
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", metavar="SEEDS", default=None,
                        help="store statistics for seeds LOW-HIGH (or 'none': the "
                        "canary only) and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/repro; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     + ", ".join(workloads.NAMES))
    harness.adopt_orphans()
    try:
        if args.record_expected:
            record_expected(args.workload, _seed_range(args.record_expected))
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        harness.stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
