"""The traced run: per-layer self times of one replay, in this process.

``traced_run`` calls :func:`repro.cli.main` with the workload's argv
after wrapping the layers' entry points (from here, not inside the
program) with one :class:`~perfbench.selftime.SelfTimer`.  The root is
the CLI's ``simulate`` / ``run_comparison`` call, charged to
``sim.engine``; everything it does that no wrapped layer claims (the
per-request ``replay_span`` loop) stays there.  The sweep's replay runs
in worker processes the wrappers cannot see, so its layers come from
the program's own spans (``--trace-out``) via ``repro timeline``.

``check_integrity`` fails the run when the self times are not disjoint
or do not add up to the separately timed replay within 2%.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

from perfbench.harness import WORK, repro_main
from perfbench.selftime import SelfTimer
from perfbench.workloads import SWEEP_CACHES_GB, SWEEP_POLICIES, Workload

#: (module, class, method, layer) of every wrapped entry point.
LAYERS = (
    ("repro.core.hro", "HroBound", "process_scalar", "lhr.hro"),
    ("repro.core.lhr", "LhrCache", "_close_window", "lhr.window"),
    ("repro.core.detection", "DriftDetector", "observe_window", "lhr.drift"),
    ("repro.core.threshold", "ThresholdEstimator", "update", "lhr.threshold"),
    ("repro.core.gbm", "GradientBoostingRegressor", "fit", "lhr.gbm_fit"),
    ("repro.core.gbm", "GradientBoostingRegressor", "predict_batch",
     "lhr.gbm_predict"),
    ("repro.core.features", "FeatureStore", "feature_matrix", "lhr.features"),
    ("repro.core.lhr", "LhrCache", "_select_victim_scalar", "lhr.evict"),
    ("repro.util.indexed_set", "IndexedSet", "sample", "lhr.evict.sample"),
    ("repro.obs.observation", "Observation", "emit", "obs.emit"),
)
ROOT_LAYER = "sim.engine"
#: Self times must add up to the separately timed replay within this.
INTEGRITY_TOLERANCE = 0.02


class IntegrityError(RuntimeError):
    """The self-time table does not account for the replay."""


def _counting(layer: str, counters: Counter):
    """Extra counts taken where the work happens: rows for GBM fit and
    predict, adoptions for the threshold update."""

    def rows(fn):
        def counted(model, features, *args, **kwargs):
            counters[layer + ".rows"] += len(features)
            return fn(model, features, *args, **kwargs)

        return counted

    def adoptions(fn):
        def counted(estimator, *args, **kwargs):
            before = estimator.delta
            try:
                return fn(estimator, *args, **kwargs)
            finally:
                counters[layer + ".adoptions"] += estimator.delta != before

        return counted

    return {"lhr.gbm_fit": rows, "lhr.gbm_predict": rows,
            "lhr.threshold": adoptions}.get(layer, lambda fn: fn)


def check_integrity(timer: SelfTimer, replay_s: float) -> None:
    negative = {k: v for k, v in timer.self_s.items() if v < 0}
    if negative or timer.depth:
        raise IntegrityError(
            f"self-time stack broken: negative {negative}, depth {timer.depth}"
        )
    total = timer.total()
    if abs(total - replay_s) > INTEGRITY_TOLERANCE * replay_s:
        raise IntegrityError(
            f"layer self times sum to {total:.4f} s but the replay took "
            f"{replay_s:.4f} s (tolerance {INTEGRITY_TOLERANCE:.0%}); a "
            "wrapper double-counts or misses time"
        )


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def traced_run(workload: Workload, trace: Path, extra_argv=(),
               layers=LAYERS) -> dict:
    """One in-process CLI run under the wrappers of ``layers``.

    Returns ``replay_s`` (the root call, timed outside the stack), the
    timer, the extra counters, the ledger directory and the manifest of
    the run.  ``layers=()`` gives the untraced baseline of the same
    in-process run.
    """
    import repro.cli as cli

    timer = SelfTimer()
    counters: Counter = Counter()
    saved = []
    for module, cls_name, attr, layer in layers:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[attr]
        saved.append((cls, attr, original))
        setattr(cls, attr, timer.wrap(layer, _counting(layer, counters)(original)))
    replay = {"s": 0.0}

    def root(fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return timer.wrap(ROOT_LAYER, fn, root=True)(*args, **kwargs)
            finally:
                replay["s"] += time.perf_counter() - start

        return timed

    for name in ("simulate", "run_comparison"):
        saved.append((cli, name, getattr(cli, name)))
        setattr(cli, name, root(getattr(cli, name)))
    out = _fresh(WORK / "out" / (workload.name + "-traced"))
    ledger = _fresh(WORK / "ledger" / (workload.name + "-traced"))
    argv = [arg.format(trace=trace, out=out) for arg in workload.command]
    previous = os.environ.get("REPRO_LEDGER_DIR")
    os.environ["REPRO_LEDGER_DIR"] = str(ledger)
    try:
        repro_main([*argv, *(a.format(out=out) for a in extra_argv)])
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
        if previous is None:
            os.environ.pop("REPRO_LEDGER_DIR", None)
        else:
            os.environ["REPRO_LEDGER_DIR"] = previous
    check_integrity(timer, replay["s"])
    manifest = json.loads(next(ledger.glob("*/manifest.json")).read_text())
    return {"replay_s": replay["s"], "timer": timer, "counters": counters,
            "ledger": ledger, "manifest": manifest}


def layer_table(timer: SelfTimer, replay_s: float) -> list[dict]:
    """Rows of (layer, self seconds, share of the replay, calls)."""
    return [
        {"layer": layer, "self_s": seconds, "share": seconds / replay_s,
         "calls": timer.calls[layer]}
        for layer, seconds in sorted(timer.self_s.items(), key=lambda kv: -kv[1])
    ]


def lhr_metrics(run: dict) -> dict:
    timer, counters = run["timer"], run["counters"]
    self_s, calls = timer.self_s, timer.calls
    attributed = sum(v for k, v in self_s.items() if k != ROOT_LAYER)
    windows = calls["lhr.window"]
    return {
        "lhr.threshold.self_s": self_s["lhr.threshold"],
        "lhr.threshold.calls": calls["lhr.threshold"],
        "lhr.threshold.adopt_ratio": _ratio(
            counters["lhr.threshold.adoptions"], calls["lhr.threshold"]),
        "lhr.evict.self_s": self_s["lhr.evict"],
        "lhr.evict.calls": calls["lhr.evict"],
        "lhr.evict.sample_s": self_s["lhr.evict.sample"],
        "lhr.gbm_fit.self_s": self_s["lhr.gbm_fit"],
        "lhr.gbm_fit.calls": calls["lhr.gbm_fit"],
        "lhr.gbm_fit.rows": counters["lhr.gbm_fit.rows"],
        "lhr.retrain_ratio": _ratio(calls["lhr.gbm_fit"], windows),
        "lhr.gbm_predict.self_s": self_s["lhr.gbm_predict"],
        "lhr.gbm_predict.rows": counters["lhr.gbm_predict.rows"],
        "lhr.features.self_s": self_s["lhr.features"],
        "lhr.features.calls": calls["lhr.features"],
        "lhr.hro.self_s": self_s["lhr.hro"],
        "lhr.drift.self_s": self_s["lhr.drift"],
        "lhr.window.self_s": self_s["lhr.window"],
        "lhr.windows": windows,
        "lhr.engine.self_s": run["replay_s"] - attributed,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def timeline(ledger: Path) -> dict:
    """``repro timeline --format json`` of the one run in ``ledger``."""
    return json.loads(repro_main(["timeline", "--ledger", str(ledger),
                                  "--format", "json"]))


def sweep_metrics(report: dict) -> dict:
    phases = {phase["name"]: phase for phase in report["phases"]}
    metrics = {
        "sweep.scatter_s": phases.get("sweep.scatter", {}).get(
            "total_seconds", 0.0),
        "sweep.worker_util_min": min(
            (w["utilization"] for w in report["workers"]), default=0.0),
        "sweep.straggler_ratio": report["stragglers"]["straggler_ratio"],
    }
    for policy in SWEEP_POLICIES:
        metrics[f"sweep.cell_s.{policy}"] = sum(
            phase["total_seconds"] for name, phase in phases.items()
            if phase["cat"] == "cell" and name.split("@")[0] == policy
        )
    return metrics


def timeline_table(report: dict) -> list[dict]:
    """Span phases of the sweep; a share is of the busy seconds summed
    over the parent and both workers, not of the wall time."""
    busy = sum(p["self_seconds"] for p in report["phases"]) or 1.0
    return [
        {"layer": p["name"], "self_s": p["self_seconds"],
         "share": p["self_seconds"] / busy, "calls": p["count"]}
        for p in report["phases"]
    ]


def _timed_simulate(policy: str, capacity: int, trace, **kwargs):
    from repro.sim import build_policy, simulate

    start = time.perf_counter()
    result = simulate(build_policy(policy, capacity), trace, **kwargs)
    return time.perf_counter() - start, result


def _stats(result) -> tuple:
    return (result.requests, result.hits, result.hit_bytes, result.evictions)


def packed_speedups(trace_path: Path, scale: float) -> tuple[dict, int]:
    """Object-path over packed-path replay time per sweep policy, on the
    larger sweep cache; returns the ratios and how many policies'
    statistics differed between the two paths."""
    from repro.cli import load_any_trace
    from repro.traces import PackedTrace

    trace = load_any_trace(str(trace_path))
    packed = PackedTrace.from_trace(trace)
    capacity = max(int(max(SWEEP_CACHES_GB) * (1 << 30) * scale), 1)
    speedups, mismatches = {}, 0
    for policy in SWEEP_POLICIES:
        object_s, object_result = _timed_simulate(policy, capacity, trace)
        packed_s, packed_result = _timed_simulate(policy, capacity, packed)
        speedups[f"engine.packed_speedup.{policy}"] = object_s / packed_s
        mismatches += _stats(object_result) != _stats(packed_result)
    return speedups, mismatches


def unobserved_replay_s(trace_path: Path, capacity: int, window: int) -> float:
    """Median packed, unobserved replay time of one cell (3 runs)."""
    from repro.cli import load_any_trace
    from repro.traces import PackedTrace

    packed = PackedTrace.from_trace(load_any_trace(str(trace_path)))
    return statistics.median(
        _timed_simulate("lru", capacity, packed, window_requests=window)[0]
        for _ in range(3)
    )


def growth_exponent(full_s: float, half_s: float) -> float:
    return math.log(full_s / half_s) / math.log(2.0)


def write_table(name: str, seed: int, rows: list[dict], replay_s: float,
                boundaries: dict) -> Path:
    """The per-layer table as JSON and text beside the other outputs."""
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{name}-seed{seed}-layers"
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": name, "seed": seed, "sim.replay_s": replay_s,
         "layers": rows, "timed_boundaries_s": boundaries},
        indent=2, sort_keys=True) + "\n")
    lines = [f"{name} seed={seed}: replay {replay_s:.3f} s (traced)",
             f"{'layer':<24} {'self_s':>9} {'share':>7} {'calls':>9}"]
    lines += [f"{r['layer']:<24} {r['self_s']:>9.4f} {r['share']:>7.1%} "
              f"{r['calls']:>9}" for r in rows]
    lines.append("timed-run boundaries (median, untraced): " + ", ".join(
        f"{k}={v:.4f}" for k, v in boundaries.items()))
    text = "\n".join(lines) + "\n"
    stem.with_suffix(".txt").write_text(text)
    return stem.with_suffix(".txt")
