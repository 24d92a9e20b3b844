"""Engineering benchmark: request-processing throughput per policy.

Not a paper experiment — this measures the *simulator's* requests/second
for representative policies, which determines how large a trace each
policy can replay in reasonable time (and documents the constant-factor
cost of the learning-based designs).  Uses pytest-benchmark's normal
multi-round timing, unlike the experiment benchmarks which run once.
"""

import os
import time

import pytest

from benchmarks.common import JOBS, SCALE, SEED, cache_bytes, trace
from benchmarks.telemetry import build_payload, emit_telemetry
from repro.sim import build_policy, run_comparison, simulate
from repro.traces.packed import PackedTrace
from repro.traces.request import Trace

#: (policy, constructor overrides) — a cheap classic, a heap-based
#: classic, a sketch-based filter, the paper's LHR and the heavyweight LRB.
PROFILES = [
    ("lru", {}),
    ("gdsf", {}),
    ("w-tinylfu", {}),
    ("lhd", {}),
    ("lhr", {"seed": 0}),
    ("lrb", {"training_batch": 4096, "max_training_data": 8192, "seed": 0}),
]

#: Per-policy timings accumulated across the parametrized runs, drained
#: into BENCH_throughput.json when the module finishes (REPRO_TELEMETRY=1).
_RUNS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def workload():
    t = trace("cdn-a")
    return list(t.requests[:4000])


@pytest.fixture(scope="module")
def packed_workload(workload):
    packed = PackedTrace.from_trace(Trace(workload, name="throughput"))
    packed.scalar_columns()  # pre-materialize outside the timed region
    return packed


@pytest.fixture(scope="module", autouse=True)
def _emit_module_telemetry():
    """Write the module's telemetry sidecar after every profile has run.

    The per-policy rounds land in ``extra``; the headline
    ``throughput_rps`` is total replayed requests over total replay time,
    which is what ``repro bench-compare`` gates on.
    """
    _RUNS.clear()
    yield
    if not _RUNS:
        return
    wall = sum(run["seconds"] for run in _RUNS.values())
    requests = sum(run["requests"] for run in _RUNS.values())
    payload = build_payload(
        "throughput",
        scale=SCALE,
        seed=SEED,
        jobs=JOBS,
        wall_seconds=wall,
        requests=requests,
        hit_ratios={
            f"{name}@{run['capacity']}": run["hit_ratio"]
            for name, run in _RUNS.items()
        },
        extra={
            "per_policy_rps": {
                name: round(run["requests"] / run["seconds"], 1)
                for name, run in _RUNS.items()
                if run["seconds"]
            }
        },
    )
    written = emit_telemetry(payload)
    if written is not None:
        print(f"\ntelemetry -> {written}")


@pytest.mark.parametrize("name,kwargs", PROFILES, ids=[p[0] for p in PROFILES])
def test_policy_throughput(benchmark, workload, name, kwargs):
    capacity = cache_bytes("cdn-a", 512)

    def replay():
        policy = build_policy(name, capacity, **kwargs)
        for req in workload:
            policy.request(req)
        return policy

    policy = benchmark.pedantic(replay, rounds=3, iterations=1)
    # Sanity: the run did real cache work.
    assert policy.hits + policy.misses == len(workload)
    benchmark.extra_info["requests_per_second"] = round(
        len(workload) / benchmark.stats.stats.mean
    )
    benchmark.extra_info["object_hit_ratio"] = round(policy.object_hit_ratio, 3)
    _RUNS[name] = {
        "capacity": capacity,
        "requests": len(workload),
        "seconds": benchmark.stats.stats.mean,
        "hit_ratio": round(policy.object_hit_ratio, 6),
    }


@pytest.mark.parametrize("name,kwargs", PROFILES, ids=[p[0] for p in PROFILES])
def test_policy_throughput_fastpath(
    benchmark, workload, packed_workload, name, kwargs
):
    """The columnar fast path: replay a ``PackedTrace`` through the engine
    (scalar kernels / span kernels, no per-request ``Request``)."""
    capacity = cache_bytes("cdn-a", 512)

    def replay():
        policy = build_policy(name, capacity, **kwargs)
        simulate(policy, packed_workload)
        return policy

    policy = benchmark.pedantic(replay, rounds=3, iterations=1)
    assert policy.hits + policy.misses == len(workload)
    benchmark.extra_info["requests_per_second"] = round(
        len(workload) / benchmark.stats.stats.mean
    )
    benchmark.extra_info["object_hit_ratio"] = round(policy.object_hit_ratio, 3)
    _RUNS[f"{name}-fast"] = {
        "capacity": capacity,
        "requests": len(workload),
        "seconds": benchmark.stats.stats.mean,
        "hit_ratio": round(policy.object_hit_ratio, 6),
    }


#: Requests/second recorded by this benchmark at the commit *before* the
#: columnar fast path landed (BENCH_baseline.json history).  The fast
#: path's acceptance targets are pinned against these absolute numbers,
#: not against a regenerated baseline.
PRE_FASTPATH_RPS = {"lru": 917177.3, "lhr": 14489.7}

#: Required fast-path speedup over the pre-fast-path baseline.  The LHR
#: target is the batched-inference acceptance bar; CI runs this module
#: with REPRO_ASSERT_FASTPATH=0 (report-only) because shared runners
#: cannot hold the ratio steady — see docs/PERFORMANCE.md for the
#: measured numbers on an idle machine.
FASTPATH_TARGETS = {"lru": 3.0, "lhr": 4.0}


@pytest.mark.parametrize("name", ["lru", "lhr"])
def test_fast_path_speedup(benchmark, workload, packed_workload, name):
    """Columnar replay vs the pre-fast-path committed throughput.

    Asserts the acceptance targets — ≥3x for the classic (LRU), ≥1.5x
    for learning-augmented LHR — against the requests/second this same
    benchmark recorded before the fast path existed.  Results are also
    checked identical to the object path.  Set REPRO_ASSERT_FASTPATH=0
    to waive the ratio assertion on loaded or slower machines.
    """
    capacity = cache_bytes("cdn-a", 512)
    kwargs = {"seed": 0} if name == "lhr" else {}

    reference = build_policy(name, capacity, **kwargs)
    for req in workload:
        reference.request(req)

    def replay():
        policy = build_policy(name, capacity, **kwargs)
        simulate(policy, packed_workload)
        return policy

    policy = benchmark.pedantic(replay, rounds=3, iterations=1)
    assert (policy.hits, policy.misses, policy.evictions) == (
        reference.hits,
        reference.misses,
        reference.evictions,
    )
    # pytest-benchmark keeps the fastest round in ``min``; use it for the
    # ratio so a single scheduler stall cannot fail the gate.
    rps = len(workload) / benchmark.stats.stats.min
    speedup = rps / PRE_FASTPATH_RPS[name]
    benchmark.extra_info.update(
        requests_per_second=round(rps),
        pre_fastpath_rps=PRE_FASTPATH_RPS[name],
        speedup=round(speedup, 2),
        target=FASTPATH_TARGETS[name],
    )
    print(
        f"\nfast path [{name}]: {rps:,.0f} rps vs pre-fast-path "
        f"{PRE_FASTPATH_RPS[name]:,.0f} rps = {speedup:.2f}x "
        f"(target {FASTPATH_TARGETS[name]}x)"
    )
    if os.environ.get("REPRO_ASSERT_FASTPATH", "1") != "0":
        assert speedup >= FASTPATH_TARGETS[name], (
            f"{name} fast path reached only {speedup:.2f}x of the "
            f"pre-fast-path baseline (target {FASTPATH_TARGETS[name]}x); "
            "set REPRO_ASSERT_FASTPATH=0 to waive on loaded machines"
        )


#: Required speedup of the columnar shadow cache over the dict-based
#: reference (tests/core/shadow_reference.py).  Both are timed in the same
#: process on the same window, so the ratio holds on any machine; the
#: measured speedup is ~35x.
SHADOW_SPEEDUP_TARGET = 5.0


def test_shadow_replay_speedup(benchmark):
    """Threshold shadow replay: columnar cache vs the dict-based reference.

    A seeded synthetic window of 20k samples (Zipf popularity over 6k
    objects, log-normal sizes) whose shadow cache holds ~1.4k-2.4k
    objects at each overflow.  The two must return ``==`` ratios, and
    the columnar cache must run at least 5x faster.  A hard gate: both
    timings come from this run.
    """
    import numpy as np

    from repro.core.threshold import WindowSample, shadow_hit_ratio
    from tests.core.shadow_reference import shadow_hit_ratio_reference

    rng = np.random.default_rng(0)
    objects = 6_000
    obj_ids = rng.zipf(1.2, 20_000) % objects
    sizes = rng.lognormal(10.0, 1.0, objects).astype(np.int64) + 1
    times = np.cumsum(rng.exponential(1.0, len(obj_ids)))
    probabilities = rng.random(len(obj_ids))
    samples = [
        WindowSample(int(o), int(sizes[o]), float(t), float(p))
        for o, t, p in zip(obj_ids, times, probabilities)
    ]
    capacity = int(sizes[np.unique(obj_ids)].sum() * 0.4)

    reference_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        expected = shadow_hit_ratio_reference(samples, capacity, 0.3)
        reference_seconds = min(reference_seconds, time.perf_counter() - start)

    ratio = benchmark.pedantic(
        lambda: shadow_hit_ratio(samples, capacity, 0.3), rounds=3, iterations=1
    )
    assert ratio == expected
    # Fastest round, as in test_fast_path_speedup: one scheduler stall
    # cannot fail the gate.
    columnar_seconds = benchmark.stats.stats.min
    speedup = reference_seconds / columnar_seconds
    benchmark.extra_info.update(
        reference_seconds=round(reference_seconds, 4),
        columnar_seconds=round(columnar_seconds, 4),
        speedup=round(speedup, 1),
        target=SHADOW_SPEEDUP_TARGET,
    )
    print(
        f"\nshadow replay: reference {reference_seconds:.3f}s -> columnar "
        f"{columnar_seconds:.4f}s = {speedup:.1f}x "
        f"(target {SHADOW_SPEEDUP_TARGET}x)"
    )
    assert speedup >= SHADOW_SPEEDUP_TARGET, (
        f"columnar shadow cache only {speedup:.1f}x faster than the "
        f"reference (target {SHADOW_SPEEDUP_TARGET}x)"
    )


#: GBM inference variants measured by the micro-bench: the public batch
#: ``predict`` (flat-tree, vectorized sigmoid), the scalar ``predict_one``
#: loop, and ``predict_batch`` (flat-tree, scalar-exact sigmoid — the
#: variant the batched LHR backend calls).
GBM_VARIANTS = ["predict", "predict_one", "predict_batch"]


@pytest.mark.parametrize("variant", GBM_VARIANTS)
def test_gbm_inference_microbench(benchmark, variant):
    """Per-row inference cost of the three GBM prediction entry points.

    All three run over the same fitted model and probe matrix;
    ``predict_one`` and ``predict_batch`` must agree to float equality
    (``predict`` uses a vectorized sigmoid, so it is only checked to be
    finite — the exactness pin lives in tests/core/test_gbm.py).
    """
    import numpy as np

    from repro.core.gbm import GradientBoostingRegressor

    rng = np.random.default_rng(0)
    X = rng.random((2000, 23))
    y = (rng.random(2000) > 0.5).astype(float)
    model = GradientBoostingRegressor(
        n_estimators=32, max_depth=6, loss="logistic"
    ).fit(X, y)
    probes = rng.random((4096, 23))

    if variant == "predict":
        run = lambda: model.predict(probes)  # noqa: E731
    elif variant == "predict_one":
        run = lambda: [model.predict_one(row) for row in probes]  # noqa: E731
    else:
        run = lambda: model.predict_batch(probes)  # noqa: E731

    out = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(out) == len(probes)
    assert np.isfinite(np.asarray(out)).all()
    if variant == "predict_batch":
        reference = [model.predict_one(row) for row in probes[:64]]
        assert np.asarray(out)[:64].tolist() == reference
    benchmark.extra_info["rows_per_second"] = round(
        len(probes) / benchmark.stats.stats.min
    )


#: ≥4-cell grid of compute-heavy cells for the parallel-sweep speedup
#: demonstration (cheap cells would measure pool overhead, not fan-out).
SWEEP_POLICIES = ["lru", "gdsf", "lhd", "s4lru"]


def test_parallel_sweep_speedup(benchmark):
    """Parallel `run_comparison` vs serial on the same grid.

    Asserts bit-identical results always; asserts the ≥2× speedup only
    on machines with ≥4 cores (set REPRO_ASSERT_SPEEDUP=0 to waive it on
    loaded CI runners).
    """
    t = trace("cdn-a")
    capacities = [cache_bytes("cdn-a", gb) for gb in (256, 1024)]
    jobs = min(4, os.cpu_count() or 1)

    serial_start = time.perf_counter()
    serial = run_comparison(t, SWEEP_POLICIES, capacities)
    serial_seconds = time.perf_counter() - serial_start

    parallel = benchmark.pedantic(
        lambda: run_comparison(t, SWEEP_POLICIES, capacities, parallel=jobs),
        rounds=1,
        iterations=1,
    )
    parallel_seconds = benchmark.stats.stats.mean

    assert [
        (r.policy, r.capacity, r.counters()) for r in serial
    ] == [(r.policy, r.capacity, r.counters()) for r in parallel]

    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    benchmark.extra_info.update(
        jobs=jobs,
        grid_cells=len(serial),
        serial_seconds=round(serial_seconds, 3),
        parallel_seconds=round(parallel_seconds, 3),
        speedup=round(speedup, 2),
    )
    print(
        f"\nparallel sweep: {len(serial)} cells, jobs={jobs}, "
        f"serial {serial_seconds:.2f}s -> parallel {parallel_seconds:.2f}s "
        f"({speedup:.2f}x)"
    )
    if jobs >= 4 and os.environ.get("REPRO_ASSERT_SPEEDUP", "1") != "0":
        assert speedup >= 2.0, (
            f"expected >=2x speedup with {jobs} workers, got {speedup:.2f}x"
        )
