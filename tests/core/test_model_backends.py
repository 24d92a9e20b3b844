"""LHR's two model-scoring paths must agree bit for bit.

The object loop scores each request with ``predict_one``; the packed
span kernel scores whole blocks with ``predict_batch``.  These tests pin
both halves — the two calls against each other on a raw model of LHR's
feature width, and full LHR replays through each path end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gbm import GradientBoostingRegressor
from repro.core.lhr import LhrCache
from repro.sim import simulate
from repro.traces.packed import PackedTrace
from repro.traces.synthetic import irm_trace


class TestBackendExactness:
    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(3)
        X = rng.random((300, 23))
        y = (rng.random(300) > 0.5).astype(float)
        return GradientBoostingRegressor(
            n_estimators=8, max_depth=4, loss="logistic"
        ).fit(X, y)

    def test_score_block_matches_score_one(self, model):
        rows = np.random.default_rng(4).random((64, 23))
        reference = [model.predict_one(rows[i]) for i in range(64)]
        assert model.predict_batch(rows).tolist() == reference


class TestLhrBackendPin:
    """Full replays must agree — counters, window series, retrain count,
    the threshold trajectory and the cache."""

    @pytest.fixture(scope="class")
    def pin_trace(self):
        return irm_trace(
            1200, 100, alpha=0.9, mean_size=1 << 14, size_sigma=1.2, seed=7,
            name="golden",
        )

    @pytest.fixture(scope="class")
    def pin_capacity(self, pin_trace):
        # 15% of the unique bytes: small enough that LHR closes windows
        # and trains a model, so both paths actually score.
        return max(int(0.15 * pin_trace.unique_bytes()), 1)

    def _replay(self, trace, capacity, monkeypatch):
        calls = {"predict_one": 0, "predict_batch": 0}
        for method in calls:
            original = getattr(GradientBoostingRegressor, method)

            def counted(model, rows, _original=original, _method=method):
                calls[_method] += 1
                return _original(model, rows)

            monkeypatch.setattr(GradientBoostingRegressor, method, counted)
        policy = LhrCache(capacity, seed=0)
        result = simulate(policy, trace, window_requests=300)
        monkeypatch.undo()
        return policy, result, calls

    def test_scalar_equals_batched(self, pin_trace, pin_capacity, monkeypatch):
        packed = PackedTrace.from_trace(pin_trace)
        obj_policy, obj, obj_calls = self._replay(
            pin_trace, pin_capacity, monkeypatch
        )
        fast_policy, fast, fast_calls = self._replay(
            packed, pin_capacity, monkeypatch
        )
        assert obj_policy.windows_processed > 0
        assert obj_calls["predict_one"] > 0 and obj_calls["predict_batch"] == 0
        assert fast_calls["predict_batch"] > 0
        assert obj.counters() == fast.counters()
        assert obj.window_series() == fast.window_series()
        assert obj.object_hit_ratio == fast.object_hit_ratio
        assert obj_policy.windows_processed == fast_policy.windows_processed
        assert obj_policy.estimator.history == fast_policy.estimator.history
        assert obj_policy.cached_objects() == fast_policy.cached_objects()
