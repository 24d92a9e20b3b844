"""Trace-driven simulation engine.

``simulate`` runs one policy over one trace, collecting aggregate and
per-window metrics plus resource proxies (runtime, peak metadata).  The
engine owns nothing policy-specific: any :class:`CachePolicy` works,
including LHR and the prototype emulations.

The function is worker-safe: it holds no module-level mutable state and
touches nothing but its arguments, so :mod:`repro.sim.parallel` can call
it from forked or spawned processes.  The replay loop itself lives in
``replay_into`` so callers that manage their own ``SimulationResult``
(resumable runs, shared-result accumulation) can reuse it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs import NULL_OBS, Observation
from repro.obs.spans import NULL_SPANS
from repro.obs.trace import DecisionTracer
from repro.policies.base import CachePolicy
from repro.sim.metrics import SimulationResult, WindowMetrics
from repro.traces.packed import PackedTrace
from repro.traces.request import Trace


def simulate(
    policy: CachePolicy,
    trace: Trace | PackedTrace,
    window_requests: int = 0,
    warmup_requests: int = 0,
    metadata_probe_interval: int = 1000,
    obs: Observation = NULL_OBS,
    tracer: DecisionTracer | None = None,
    heartbeat=None,
    heartbeat_interval: int = 0,
) -> SimulationResult:
    """Run ``policy`` over ``trace``.

    Parameters
    ----------
    policy:
        A fresh policy instance (the engine does not reset state).
    trace:
        The request stream — a reference ``Trace`` or a columnar
        :class:`~repro.traces.packed.PackedTrace`.  A packed trace runs
        the allocation-free scalar loop when no instrumentation is
        attached, and is transparently unpacked to the reference object
        path otherwise (tracing and observation always see ``Request``
        objects).
    window_requests:
        If > 0, collect per-window hit series every this many requests
        (the Figure 7 time series).
    warmup_requests:
        Requests processed but excluded from aggregate metrics (classic
        cache-simulation warmup; the per-window series still covers them).
        Must leave at least one measured request: a warmup at or beyond
        the trace length would silently produce empty aggregates, so it
        raises ``ValueError`` instead.
    metadata_probe_interval:
        How often (in requests) to sample ``policy.metadata_bytes()`` for
        the peak-memory statistic.
    obs:
        Observation handle (:mod:`repro.obs`).  When enabled, the engine
        emits one ``sim.window`` event per closed reporting window, times
        the replay into the ``sim_replay_seconds`` histogram, attaches
        the handle to the policy (so LHR's lifecycle events flow), and
        records aggregate request/hit counters.  The default
        :data:`~repro.obs.NULL_OBS` disables all of it.
    tracer:
        Optional :class:`~repro.obs.trace.DecisionTracer` attached to the
        policy for the replay — every request's admission verdict, its
        inputs and eviction victims are recorded, and the tracer's miss
        taxonomy covers the whole trace (warmup included).
    heartbeat / heartbeat_interval:
        When ``heartbeat_interval > 0``, call ``heartbeat(requests_done)``
        every that many replayed requests — the hook live progress rides
        on (sweep worker heartbeats, the CLI's ``--serve`` progress).
        Disabled (interval 0) the loop carries only a falsy-int check,
        same cost class as the window rollover guard.
    """
    if warmup_requests < 0:
        raise ValueError("warmup_requests must be non-negative")
    if window_requests < 0:
        raise ValueError("window_requests must be non-negative")
    if heartbeat_interval < 0:
        raise ValueError("heartbeat_interval must be non-negative")
    if heartbeat_interval and heartbeat is None:
        raise ValueError("heartbeat_interval set without a heartbeat callable")
    if warmup_requests and warmup_requests >= len(trace):
        raise ValueError(
            f"warmup_requests ({warmup_requests}) must be smaller than the "
            f"trace ({len(trace)} requests); nothing would be measured"
        )
    result = SimulationResult(
        policy=policy.name, trace=trace.name, capacity=policy.capacity
    )
    replay_into(
        policy,
        trace,
        result,
        window_requests=window_requests,
        warmup_requests=warmup_requests,
        metadata_probe_interval=metadata_probe_interval,
        obs=obs,
        tracer=tracer,
        heartbeat=heartbeat,
        heartbeat_interval=heartbeat_interval,
    )
    return result


def _emit_window(obs: Observation, window: WindowMetrics) -> None:
    obs.emit(
        "sim.window",
        index=window.index,
        requests=window.requests,
        hits=window.hits,
        hit_bytes=window.hit_bytes,
        total_bytes=window.total_bytes,
        hit_ratio=round(window.hit_ratio, 6),
    )


def replay_into(
    policy: CachePolicy,
    trace: Trace | PackedTrace,
    result: SimulationResult,
    window_requests: int = 0,
    warmup_requests: int = 0,
    metadata_probe_interval: int = 1000,
    obs: Observation = NULL_OBS,
    tracer: DecisionTracer | None = None,
    heartbeat=None,
    heartbeat_interval: int = 0,
) -> SimulationResult:
    """The inner replay loop: feed ``trace`` through ``policy`` and
    accumulate into ``result``.

    Assumes arguments were validated by the caller (``simulate`` does).
    The per-request loop carries zero instrumentation overhead when
    ``obs`` is disabled: window events ride the existing window-rollover
    branch and everything else happens once, outside the loop.  A
    ``tracer`` is attached to the policy once here; recording happens
    inside ``CachePolicy.request``.

    A :class:`PackedTrace` takes the columnar fast path
    (:func:`_replay_packed`) unless the policy carries a tracer or an
    enabled observation handle — instrumented runs always replay the
    reference object path, so the packed trace is unpacked first.
    """
    observing = obs.enabled
    spans = obs.spans
    spans_on = spans.enabled
    learner_on = obs.learner.enabled
    if observing or spans_on or learner_on:
        # A sidecars-only handle (spans and/or learner telemetry) still
        # attaches: LHR's window-close spans flow through
        # ``policy.obs.spans`` and the learner sink collects at window
        # close via ``policy.obs.learner``.  Its ``enabled`` stays
        # False, so native kernels and the packed path are unaffected.
        policy.attach_observation(obs)
    if tracer is not None:
        policy.attach_tracer(tracer)
    if isinstance(trace, PackedTrace):
        if policy.tracer is None and not policy.obs.enabled and not observing:
            _replay_packed(
                policy,
                trace,
                result,
                window_requests=window_requests,
                warmup_requests=warmup_requests,
                metadata_probe_interval=metadata_probe_interval,
                heartbeat=heartbeat,
                heartbeat_interval=heartbeat_interval,
                spans=spans,
            )
            if learner_on:
                result.learner = obs.learner.series(
                    policy.name, policy.capacity
                )
            return result
        trace = trace.unpack()
    replay_span = warmup_span = window_span = None
    # Falsy-int warmup-edge guard, same cost class as the heartbeat
    # check: zero unless spans are on AND a warmup is configured.
    pending_warmup = 0
    if spans_on:
        replay_span = spans.begin(
            "sim.replay",
            cat="sim",
            policy=policy.name,
            trace=trace.name,
            requests=len(trace),
        )
        if warmup_requests:
            warmup_span = spans.begin(
                "sim.warmup", cat="sim", requests=warmup_requests
            )
            pending_warmup = warmup_requests
    window: WindowMetrics | None = None
    evict_mark = 0
    start = time.perf_counter()
    peak_metadata = 0
    for i, req in enumerate(trace):
        if window_requests and (window is None or window.requests >= window_requests):
            if window is not None:
                # Eviction pressure per window: delta of the policy's
                # monotone eviction counter at the window edges.
                window.evictions = policy.evictions - evict_mark
                if observing:
                    _emit_window(obs, window)
            evict_mark = policy.evictions
            if spans_on:
                if window_span is not None:
                    spans.end(window_span)
                window_span = spans.begin(
                    "sim.window", cat="sim", index=len(result.windows)
                )
            window = WindowMetrics(index=len(result.windows))
            result.windows.append(window)
        hit = policy.request(req)
        if i >= warmup_requests:
            result.requests += 1
            result.total_bytes += req.size
            if hit:
                result.hits += 1
                result.hit_bytes += req.size
        if window is not None:
            window.requests += 1
            window.total_bytes += req.size
            if hit:
                window.hits += 1
                window.hit_bytes += req.size
        if metadata_probe_interval and i % metadata_probe_interval == 0:
            peak_metadata = max(peak_metadata, policy.metadata_bytes())
        if heartbeat_interval and (i + 1) % heartbeat_interval == 0:
            heartbeat(i + 1)
        if pending_warmup and (i + 1) == pending_warmup:
            spans.end(warmup_span)
            pending_warmup = 0
    result.runtime_seconds = time.perf_counter() - start
    result.peak_metadata_bytes = max(peak_metadata, policy.metadata_bytes())
    result.evictions = policy.evictions
    result.admissions = policy.admissions
    if window is not None:
        window.evictions = policy.evictions - evict_mark
    if spans_on:
        if window_span is not None:
            spans.end(window_span)
        if pending_warmup:  # trace ended inside warmup (callers validate)
            spans.end(warmup_span)
        spans.end(
            replay_span, requests=result.requests, hits=result.hits
        )
    if tracer is not None:
        result.decision_trace = tracer
    if observing:
        if window is not None and window.requests:
            _emit_window(obs, window)
        registry = obs.registry
        registry.histogram(
            "sim_replay_seconds", help="wall-clock seconds per replay loop"
        ).observe(result.runtime_seconds)
        registry.counter(
            "sim_requests_total", help="measured (post-warmup) requests replayed"
        ).inc(result.requests)
        registry.counter("sim_hits_total", help="measured cache hits").inc(
            result.hits
        )
        registry.counter("sim_evictions_total", help="evictions performed").inc(
            result.evictions
        )
        registry.counter("sim_admissions_total", help="objects admitted").inc(
            result.admissions
        )
        registry.gauge(
            "sim_peak_metadata_bytes", help="peak sampled policy metadata"
        ).max(result.peak_metadata_bytes)
    if learner_on:
        # Stamp the per-window learner series onto the result so sweeps
        # carry it across the worker->driver pipe like decision traces.
        result.learner = obs.learner.series(policy.name, policy.capacity)
    return result


def _replay_packed(
    policy: CachePolicy,
    packed: PackedTrace,
    result: SimulationResult,
    window_requests: int = 0,
    warmup_requests: int = 0,
    metadata_probe_interval: int = 1000,
    heartbeat=None,
    heartbeat_interval: int = 0,
    spans=None,
    positions: np.ndarray | None = None,
) -> SimulationResult:
    """Columnar replay: drive ``policy.replay_span`` straight from the
    packed scalar columns, no per-request ``Request`` allocation.

    ``positions`` are the ascending global row indices to replay (a
    shard's subsequence); ``None`` replays every row.  All bookkeeping
    edges live on the *global* request grid and are located in the
    replayed subsequence with ``searchsorted``/``nonzero``: window
    closes every ``window_requests``, the warmup edge, metadata probes
    after global index ``i % interval == 0`` and heartbeats at global
    multiples of ``heartbeat_interval`` (reporting the count replayed
    so far).  The chunk stops are those edges, computed once; each chunk
    goes through ``policy.replay_span`` in one call, so span-kernel
    policies pay Python dispatch per chunk, not per request.

    Accounting is pure counter deltas: every request adds its size to
    exactly one of ``hit_bytes``/``miss_bytes``, so hit and byte totals
    over any range are differences of the policy's monotone counters,
    snapshotted at the stops.  With every row replayed the stops land
    exactly on the object loop's bookkeeping points, which is why the
    two paths agree bit for bit (pinned by ``tests/sim/test_fastpath.py``).

    ``spans`` (a :class:`~repro.obs.spans.SpanRecorder` or the default
    no-op) records one ``sim.chunk`` span per ``replay_span`` call plus
    the replay/warmup envelopes; disabled, the loop pays one boolean
    check per chunk.
    """
    total = len(packed)
    if positions is None:
        obj_ids, sizes, times = packed.scalar_columns()
        positions = np.arange(total)
    else:
        obj_ids = packed.obj_ids[positions].tolist()
        sizes = packed.sizes[positions].tolist()
        times = packed.times[positions].tolist()
    count = len(positions)
    interval = metadata_probe_interval
    num_windows = -(-total // window_requests) if window_requests else 0
    closes = np.searchsorted(
        positions,
        np.minimum(np.arange(1, num_windows + 1) * window_requests, total),
    ).tolist()
    warm = int(np.searchsorted(positions, warmup_requests))
    probes = (
        set((np.nonzero(positions % interval == 0)[0] + 1).tolist())
        if interval
        else set()
    )
    beats = (
        set(
            np.searchsorted(
                positions,
                np.arange(heartbeat_interval, total + 1, heartbeat_interval),
            ).tolist()
        )
        if heartbeat_interval
        else set()
    )
    stops = sorted({count, warm, *closes, *probes, *beats} - {0})

    replay_span = policy.replay_span
    if spans is None:
        spans = NULL_SPANS
    spans_on = spans.enabled
    replay_span_handle = warmup_span_handle = None
    if spans_on:
        replay_span_handle = spans.begin(
            "sim.replay",
            cat="sim",
            policy=policy.name,
            trace=packed.name,
            requests=count,
            packed=True,
        )
        if warm:
            warmup_span_handle = spans.begin(
                "sim.warmup", cat="sim", requests=warm
            )

    def snapshot():
        return (
            policy.hits,
            policy.hit_bytes,
            policy.hit_bytes + policy.miss_bytes,
            policy.evictions,
        )

    # Counters at each stop; policies may enter with non-zero totals
    # (resumable replays accumulate), so everything is a delta.
    snapshots = {0: snapshot()}
    peak_metadata = 0
    start = time.perf_counter()
    i = 0
    for stop in stops:
        if spans_on:
            chunk = spans.begin("sim.chunk", cat="sim", start=i, stop=stop)
            replay_span(obj_ids, sizes, times, i, stop)
            spans.end(chunk)
        else:
            replay_span(obj_ids, sizes, times, i, stop)
        snapshots[stop] = snapshot()
        if stop == warm and warmup_span_handle is not None:
            spans.end(warmup_span_handle)
            warmup_span_handle = None
        if stop in probes:
            metadata = policy.metadata_bytes()
            if metadata > peak_metadata:
                peak_metadata = metadata
        if stop in beats:
            heartbeat(stop)
        i = stop
    result.runtime_seconds = time.perf_counter() - start
    result.peak_metadata_bytes = max(peak_metadata, policy.metadata_bytes())
    result.evictions = policy.evictions
    result.admissions = policy.admissions
    base, final = snapshots[warm], snapshots[count]
    result.requests += count - warm
    result.hits += final[0] - base[0]
    result.hit_bytes += final[1] - base[1]
    result.total_bytes += final[2] - base[2]
    previous = 0
    for close in closes:
        before, after = snapshots[previous], snapshots[close]
        result.windows.append(
            WindowMetrics(
                index=len(result.windows),
                requests=close - previous,
                hits=after[0] - before[0],
                hit_bytes=after[1] - before[1],
                total_bytes=after[2] - before[2],
                evictions=after[3] - before[3],
            )
        )
        previous = close
    if spans_on:
        if warmup_span_handle is not None:
            spans.end(warmup_span_handle)
        spans.end(
            replay_span_handle, requests=result.requests, hits=result.hits
        )
    return result
