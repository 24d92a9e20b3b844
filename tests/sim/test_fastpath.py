"""Columnar fast-path equivalence: scalar kernels vs the object path.

The contract under test (the heart of the array-native replay engine):
for every registered policy, replaying a ``PackedTrace`` through
``request_scalar`` produces the *bit-identical* hit/miss stream, counter
set, window series and metadata peaks as replaying the reference
``Trace`` through ``request`` — and instrumentation (decision tracing,
observation) transparently forces the reference path.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MemoryRecorder, MetricsRegistry, Observation
from repro.obs.trace import TraceConfig
from repro.policies.base import CachePolicy
from repro.policies.classic import LruCache
from repro.sim import known_policies, run_comparison, simulate
from repro.sim.engine import _replay_packed, replay_into
from repro.sim.metrics import SimulationResult
from repro.sim.runner import build_policy
from repro.traces.packed import PackedTrace
from repro.traces.synthetic import irm_trace

GOLDEN_PATH = Path(__file__).parent / "golden_hit_ratios.json"

#: Constructor overrides matching the golden fixture (fast policies for
#: the slow learners' internals).
POLICY_KWARGS = {
    "lrb": {"training_batch": 256, "max_training_data": 1024},
    "lfo": {"window_requests": 200},
}


@pytest.fixture(scope="module")
def fixture_trace():
    return irm_trace(
        1200, 100, alpha=0.9, mean_size=1 << 14, size_sigma=1.2, seed=7,
        name="golden",
    )


@pytest.fixture(scope="module")
def fixture_capacity(fixture_trace):
    return max(int(0.15 * fixture_trace.unique_bytes()), 1)


def _build(name, capacity):
    return build_policy(name, capacity, **POLICY_KWARGS.get(name, {}))


@pytest.mark.parametrize("name", known_policies())
def test_hit_stream_bit_identical(name, fixture_trace, fixture_capacity):
    """Per-request verdicts — not just totals — must agree exactly."""
    reference = _build(name, fixture_capacity)
    fast = _build(name, fixture_capacity)
    packed = PackedTrace.from_trace(fixture_trace)
    obj_ids, sizes, times = packed.scalar_columns()
    for index, req in enumerate(fixture_trace):
        hit_ref = reference.request(req)
        hit_fast = fast.request_scalar(
            obj_ids[index], sizes[index], times[index], index
        )
        assert hit_ref == hit_fast, f"{name}: verdicts diverge at request {index}"
    assert reference.hits == fast.hits
    assert reference.misses == fast.misses
    assert reference.hit_bytes == fast.hit_bytes
    assert reference.miss_bytes == fast.miss_bytes
    assert reference.evictions == fast.evictions
    assert reference.admissions == fast.admissions
    assert reference.used_bytes == fast.used_bytes
    assert reference.cached_objects() == fast.cached_objects()
    assert reference.metadata_bytes() == fast.metadata_bytes()


@pytest.mark.parametrize("name", known_policies())
def test_engine_results_bit_identical(name, fixture_trace, fixture_capacity):
    """Full engine runs (windows, warmup, metadata probes) must agree."""
    packed = PackedTrace.from_trace(fixture_trace)
    ref = simulate(
        _build(name, fixture_capacity), fixture_trace,
        window_requests=300, warmup_requests=100, metadata_probe_interval=250,
    )
    fast = simulate(
        _build(name, fixture_capacity), packed,
        window_requests=300, warmup_requests=100, metadata_probe_interval=250,
    )
    assert ref.counters() == fast.counters()
    assert ref.peak_metadata_bytes == fast.peak_metadata_bytes
    assert [
        (w.requests, w.hits, w.hit_bytes, w.total_bytes) for w in ref.windows
    ] == [(w.requests, w.hits, w.hit_bytes, w.total_bytes) for w in fast.windows]


def test_fast_path_matches_golden_fixture():
    """The packed replay reproduces the pinned golden hit ratios exactly."""
    if not GOLDEN_PATH.exists():
        pytest.skip("golden fixture not generated yet")
    golden = json.loads(GOLDEN_PATH.read_text())
    params = golden["trace"]
    trace = irm_trace(
        params["num_requests"], params["num_contents"], alpha=params["alpha"],
        mean_size=params["mean_size"], size_sigma=params["size_sigma"],
        seed=params["seed"], name=params["name"],
    )
    names = known_policies()
    results = run_comparison(
        PackedTrace.from_trace(trace),
        names,
        [golden["capacity"]],
        policy_kwargs=golden["policy_kwargs"],
    )
    for name, result in zip(names, results):
        pinned = golden["policies"][name]
        for key in (
            "requests", "hits", "hit_bytes", "total_bytes", "evictions",
            "admissions",
        ):
            assert pinned[key] == result.counters()[key], f"{name}.{key}"
        assert abs(pinned["object_hit_ratio"] - result.object_hit_ratio) < 1e-9


def test_heartbeat_sequence_identical(fixture_trace, fixture_capacity):
    packed = PackedTrace.from_trace(fixture_trace)
    beats_ref, beats_fast = [], []
    simulate(
        _build("lru", fixture_capacity), fixture_trace,
        heartbeat=beats_ref.append, heartbeat_interval=256,
    )
    simulate(
        _build("lru", fixture_capacity), packed,
        heartbeat=beats_fast.append, heartbeat_interval=256,
    )
    assert beats_ref == beats_fast
    assert beats_ref  # the interval must actually fire


def test_warmup_beyond_trace_measures_nothing(fixture_trace, fixture_capacity):
    packed = PackedTrace.from_trace(fixture_trace)
    result = SimulationResult(policy="lru", trace="golden", capacity=fixture_capacity)
    replay_into(
        _build("lru", fixture_capacity), packed, result,
        warmup_requests=len(fixture_trace) + 50,
    )
    assert result.requests == 0
    assert result.hits == 0
    assert result.total_bytes == 0


#: A fixed trace for the chunk-edge property: small enough that every
#: drawn setting replays in milliseconds, long enough for many edges.
EDGE_TRACE = irm_trace(
    400, 60, alpha=0.9, mean_size=1 << 12, size_sigma=1.0, seed=3, name="edges"
)
EDGE_PACKED = PackedTrace.from_trace(EDGE_TRACE)
EDGE_CAPACITY = max(int(0.2 * EDGE_TRACE.unique_bytes()), 1)
EDGE_LENGTH = len(EDGE_TRACE)


def _edge_key(result, beats):
    return (
        result.counters(),
        result.window_series(),
        [w.evictions for w in result.windows],
        result.peak_metadata_bytes,
        beats,
    )


def _edge_run(name, trace, **settings_):
    beats = []
    result = simulate(
        build_policy(name, EDGE_CAPACITY), trace,
        heartbeat=beats.append, **settings_,
    )
    return _edge_key(result, beats)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["lru", "gdsf"]),  # native span kernel, base shim
    window_requests=st.integers(0, EDGE_LENGTH + 50),
    warmup_requests=st.integers(0, EDGE_LENGTH - 1),
    metadata_probe_interval=st.one_of(
        st.sampled_from([0, 1]), st.integers(2, 2 * EDGE_LENGTH)
    ),
    heartbeat_interval=st.integers(1, EDGE_LENGTH + 50),
)
def test_chunk_edges_match_the_object_loop(
    name, window_requests, warmup_requests, metadata_probe_interval,
    heartbeat_interval,
):
    """Wherever the window, warmup, probe and heartbeat edges fall, the
    chunked packed loop reports what the per-request object loop does."""
    settings_ = dict(
        window_requests=window_requests,
        warmup_requests=warmup_requests,
        metadata_probe_interval=metadata_probe_interval,
        heartbeat_interval=heartbeat_interval,
    )
    assert _edge_run(name, EDGE_PACKED, **settings_) == _edge_run(
        name, EDGE_TRACE, **settings_
    )


def test_all_positions_equal_no_positions():
    """Replaying every row by explicit ``positions`` is the plain replay."""
    runs = []
    for positions in (None, np.arange(EDGE_LENGTH)):
        beats = []
        result = SimulationResult("lru", "edges", EDGE_CAPACITY)
        _replay_packed(
            build_policy("lru", EDGE_CAPACITY), EDGE_PACKED, result,
            window_requests=70, warmup_requests=30, metadata_probe_interval=45,
            heartbeat=beats.append, heartbeat_interval=64, positions=positions,
        )
        runs.append(_edge_key(result, beats))
    assert runs[0] == runs[1]
    assert runs[0][4]  # the heartbeat interval must actually fire


#: Every policy shipping native ``request_scalar`` + ``replay_span``
#: kernels; instrumentation must force all of them back onto the shims.
NATIVE_KERNEL_POLICIES = ["lru", "lru-2", "lru-4", "lfu-da", "b-lru", "lhr"]


class TestInstrumentationForcesReferencePath:
    @pytest.mark.parametrize("name", NATIVE_KERNEL_POLICIES)
    def test_tracer_pins_the_shim(self, name, fixture_capacity):
        policy = _build(name, fixture_capacity)
        assert "request_scalar" not in policy.__dict__  # native kernels active
        assert "replay_span" not in policy.__dict__
        policy.attach_tracer(TraceConfig().build())
        assert "request_scalar" in policy.__dict__  # shims pinned
        assert "replay_span" in policy.__dict__
        policy.attach_tracer(None)
        assert "request_scalar" not in policy.__dict__  # kernels restored
        assert "replay_span" not in policy.__dict__

    @pytest.mark.parametrize("name", NATIVE_KERNEL_POLICIES)
    def test_observation_pins_the_shim(self, name, fixture_capacity):
        policy = _build(name, fixture_capacity)
        obs = Observation(recorder=MemoryRecorder(), registry=MetricsRegistry())
        policy.attach_observation(obs)
        assert "request_scalar" in policy.__dict__
        assert "replay_span" in policy.__dict__

    @pytest.mark.parametrize("name", NATIVE_KERNEL_POLICIES)
    def test_observed_run_matches_kernel_run(
        self, name, fixture_trace, fixture_capacity
    ):
        """The shim tier an instrumented run falls back to must agree
        with the native kernels to the counter bit."""
        packed = PackedTrace.from_trace(fixture_trace)
        fast = simulate(_build(name, fixture_capacity), packed)
        obs = Observation(recorder=MemoryRecorder(), registry=MetricsRegistry())
        observed = simulate(_build(name, fixture_capacity), packed, obs=obs)
        assert fast.counters() == observed.counters()

    def test_traced_packed_run_records_decisions(
        self, fixture_trace, fixture_capacity
    ):
        packed = PackedTrace.from_trace(fixture_trace)
        ref = simulate(
            _build("lru", fixture_capacity), fixture_trace,
            tracer=TraceConfig().build(),
        )
        fast = simulate(
            _build("lru", fixture_capacity), packed,
            tracer=TraceConfig().build(),
        )
        assert ref.counters() == fast.counters()
        assert len(fast.decision_trace.records) == len(ref.decision_trace.records)
        assert fast.decision_trace.records[-1] == ref.decision_trace.records[-1]


class TestSubclassSafety:
    def test_hook_override_survives_the_fast_path(self, fixture_trace):
        """A subclass overriding a hook must not inherit the parent's
        native kernel (which inlines the parent's hooks)."""
        hits = []

        class SpyLru(LruCache):
            def _on_hit(self, req):
                hits.append(req.obj_id)
                super()._on_hit(req)

        policy = SpyLru(10**12)
        assert policy._scalar_kernel_blocked
        packed = PackedTrace.from_trace(fixture_trace)
        result = simulate(policy, packed)
        assert len(hits) == result.hits > 0

    @pytest.mark.parametrize("name", ["lru-2", "lfu-da", "b-lru"])
    def test_span_kernel_classes_block_foreign_subclasses(
        self, name, fixture_trace, fixture_capacity
    ):
        """Same discipline for the newer span-kernel policies: a hook
        override in a foreign subclass forces the shim tier, and the
        shimmed replay still matches the native kernel's counters."""
        base_cls = type(_build(name, fixture_capacity))
        hits = []

        def _on_hit(self, req):
            hits.append(req.obj_id)
            base_cls._on_hit(self, req)

        spy_cls = type(f"Spy{base_cls.__name__}", (base_cls,), {"_on_hit": _on_hit})
        policy = spy_cls(fixture_capacity)
        assert policy._scalar_kernel_blocked
        assert "request_scalar" in policy.__dict__  # base shims pinned
        assert "replay_span" in policy.__dict__
        packed = PackedTrace.from_trace(fixture_trace)
        result = simulate(policy, packed)
        assert len(hits) == result.hits > 0
        # Same constructor defaults on both sides of the comparison.
        native = simulate(base_cls(fixture_capacity), packed)
        assert result.counters() == native.counters()

    def test_request_override_survives_the_fast_path(self, fixture_trace):
        calls = []

        class CountingLru(LruCache):
            def request(self, req):
                calls.append(req.index)
                return super().request(req)

        policy = CountingLru(10**12)
        simulate(policy, PackedTrace.from_trace(fixture_trace))
        assert calls == list(range(len(fixture_trace)))

    def test_base_shim_passes_the_real_index(self):
        seen = []

        class IndexSpy(CachePolicy):
            name = "index-spy"

            def _on_access(self, req):
                seen.append(req.index)

            def _select_victim(self, incoming):  # pragma: no cover
                raise AssertionError("never evicts")

        policy = IndexSpy(10**12)
        packed = PackedTrace.from_arrays([0.0, 1.0], [1, 2], [10, 10])
        simulate(policy, packed)
        assert seen == [0, 1]
