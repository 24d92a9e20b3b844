"""Auto-tuned threshold: candidate set, shadow replay, update guards."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.threshold import STEP, ThresholdEstimator, WindowSample, shadow_hit_ratio
from tests.core.shadow_reference import shadow_hit_ratio_reference


def sample(obj_id, p, size=10, time=0.0):
    return WindowSample(obj_id=obj_id, size=size, time=time, probability=p)


class TestConstruction:
    @pytest.mark.parametrize("delta", [-0.1, 1.1])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError):
            ThresholdEstimator(initial_delta=delta)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            ThresholdEstimator(beta=-0.1)

    def test_rejects_bad_sample_fraction(self):
        with pytest.raises(ValueError):
            ThresholdEstimator(sample_fraction=0.0)


class TestCandidates:
    def test_paper_candidate_set(self):
        estimator = ThresholdEstimator(initial_delta=0.5)
        assert estimator.candidates() == [0.0, 0.4, 0.5, 0.6]

    def test_clipped_at_boundaries(self):
        low = ThresholdEstimator(initial_delta=0.0)
        assert low.candidates() == [0.0, STEP, 0.5]
        high = ThresholdEstimator(initial_delta=1.0)
        assert high.candidates() == [0.0, 0.5, 0.9, 1.0]


class TestShadowReplay:
    def test_empty_samples(self):
        assert shadow_hit_ratio([], 100, 0.5) == 0.0

    def test_admit_all_counts_rerequests(self):
        samples = [sample(1, 1.0, time=0.0), sample(1, 1.0, time=1.0)]
        assert shadow_hit_ratio(samples, 100, 0.0) == pytest.approx(0.5)

    def test_threshold_blocks_low_probability(self):
        samples = [sample(1, 0.2, time=0.0), sample(1, 0.2, time=1.0)]
        assert shadow_hit_ratio(samples, 100, 0.5) == 0.0

    def test_oversized_object_never_cached(self):
        samples = [sample(1, 1.0, size=500, time=0.0), sample(1, 1.0, size=500, time=1.0)]
        assert shadow_hit_ratio(samples, 100, 0.0) == 0.0

    def test_eviction_prefers_low_q(self):
        # Capacity for one object: a high-p object should displace a
        # low-p one and then hit.
        samples = [
            sample(1, 0.1, size=60, time=0.0),
            sample(2, 0.9, size=60, time=1.0),  # evicts 1 (lower q)
            sample(2, 0.9, size=60, time=2.0),  # hit
        ]
        assert shadow_hit_ratio(samples, 100, 0.0) == pytest.approx(1 / 3)


@st.composite
def shadow_windows(draw):
    """A window of samples plus a shadow capacity.

    Hypothesis draws the window's shape; a drawn seed fills in the
    requests, so windows run to hundreds of samples.  Sizes are all
    equal or drawn per object; the capacity holds anywhere from zero to
    ~120 typical objects, so some objects never fit and the cached count
    at an overflow lands on both sides of the reference's 64-entry
    switch.  Probabilities come from {0, 0.5, 1} (q ties) or anywhere in
    [0, 1]; time steps of 0 and 1e-12 repeat timestamps so the gap
    clamps to 1e-9; a bounded object pool forces re-requests after
    eviction.
    """
    n_objects = draw(st.integers(1, 240))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        sizes = [draw(st.sampled_from([1, 7, 10]))] * n_objects
    else:
        sizes = [rng.randint(1, 50) for _ in range(n_objects)]
    typical = sorted(sizes)[len(sizes) // 2]
    capacity = max(
        draw(st.integers(0, 120)) * typical + draw(st.integers(0, typical)), 1
    )
    tied = draw(st.booleans())
    steps = (0.0, 1e-12, 0.5, 1.0, 3.0)
    samples = []
    now = 0.0
    for _ in range(draw(st.integers(0, 800))):
        obj_id = rng.randrange(n_objects)
        now += rng.choice(steps)
        p = rng.choice((0.0, 0.5, 1.0)) if tied else rng.random()
        samples.append(sample(obj_id, p, size=sizes[obj_id], time=now))
    return samples, capacity


class TestColumnarShadowCache:
    """The columnar shadow cache against the dict-based reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        window=shadow_windows(),
        delta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    )
    def test_matches_reference(self, window, delta):
        samples, capacity = window
        for byte_weighted in (False, True):
            assert shadow_hit_ratio(
                samples, capacity, delta, byte_weighted
            ) == shadow_hit_ratio_reference(samples, capacity, delta, byte_weighted)

    @pytest.mark.parametrize("cached_objects", [8, 63, 64, 65, 200])
    def test_matches_reference_around_old_switch(self, cached_objects):
        # Unit sizes and a 3x larger object pool: every overflow happens
        # with exactly ``cached_objects`` objects cached.
        rng = random.Random(cached_objects)
        samples = [
            sample(
                rng.randrange(3 * cached_objects),
                rng.choice([0.0, 0.5, 1.0, rng.random()]),
                size=1,
                time=float(t // 3),
            )
            for t in range(20 * cached_objects)
        ]
        for delta in (0.0, 0.4, 1.0):
            for byte_weighted in (False, True):
                assert shadow_hit_ratio(
                    samples, cached_objects, delta, byte_weighted
                ) == shadow_hit_ratio_reference(
                    samples, cached_objects, delta, byte_weighted
                )

    def test_hit_keeps_admission_order_on_ties(self):
        # A and B tie on q at t=3 (0.5/(10*1) == 1.0/(10*2)); A was
        # admitted first and hit since, and is still evicted first, so
        # B's re-request at t=4 hits.
        samples = [
            sample(1, 1.0, time=0.0),  # A
            sample(2, 1.0, time=1.0),  # B
            sample(1, 0.5, time=2.0),  # A hit
            sample(3, 1.0, time=3.0),  # C evicts A
            sample(2, 1.0, time=4.0),  # B hit
        ]
        assert shadow_hit_ratio(samples, 20, 0.0) == 2 / 5
        assert shadow_hit_ratio_reference(samples, 20, 0.0) == 2 / 5

    def test_readmission_moves_behind_on_ties(self):
        # A is evicted at t=2 and re-admitted at t=3, behind B.  B's hit
        # at t=5 must not move B behind A: at t=7 they tie on q
        # (0.5/(10*2) == 1.0/(10*4)) and B, the earlier admission, goes,
        # so A's re-request at t=8 hits.
        samples = [
            sample(1, 0.1, time=0.0),  # A
            sample(2, 1.0, time=1.0),  # B
            sample(3, 0.1, time=2.0),  # C evicts A
            sample(1, 1.0, time=3.0),  # A re-admitted, evicts C
            sample(2, 0.5, time=5.0),  # B hit
            sample(4, 1.0, time=7.0),  # D evicts B
            sample(1, 1.0, time=8.0),  # A hit
        ]
        assert shadow_hit_ratio(samples, 20, 0.0) == 2 / 7
        assert shadow_hit_ratio_reference(samples, 20, 0.0) == 2 / 7


class TestUpdateRules:
    def _samples_favouring_admit_all(self):
        # Mixed-probability re-request stream: admitting everything wins.
        rows = []
        t = 0.0
        for obj_id, p in [(1, 0.3), (2, 0.4), (3, 0.3)]:
            for _ in range(5):
                rows.append(sample(obj_id, p, size=10, time=t))
                t += 1.0
        return rows

    def test_moves_toward_better_threshold(self):
        estimator = ThresholdEstimator(
            initial_delta=0.5, beta=0.001, sample_fraction=1.0
        )
        estimator.update(self._samples_favouring_admit_all(), capacity=100)
        assert estimator.delta < 0.5  # 0.0 beats 0.5 here

    def test_beta_guard_blocks_marginal_wins(self):
        estimator = ThresholdEstimator(
            initial_delta=0.5, beta=1.0, sample_fraction=1.0
        )
        estimator.update(self._samples_favouring_admit_all(), capacity=100)
        assert estimator.delta == 0.5  # improvement below beta: keep

    def test_no_update_when_incumbent_best(self):
        # All probabilities 1.0: every threshold <= 1 behaves identically,
        # so the incumbent must be kept.
        rows = [sample(1, 1.0, time=float(t)) for t in range(6)]
        estimator = ThresholdEstimator(initial_delta=0.5, sample_fraction=1.0)
        estimator.update(rows, capacity=100)
        assert estimator.delta == 0.5

    def test_history_tracks_updates(self):
        estimator = ThresholdEstimator(initial_delta=0.5, sample_fraction=1.0)
        estimator.update(self._samples_favouring_admit_all(), capacity=100)
        assert len(estimator.history) == 2
        assert estimator.history[0] == 0.5

    def test_sampling_is_deterministic(self):
        def run(seed):
            estimator = ThresholdEstimator(
                initial_delta=0.5, sample_fraction=0.5, seed=seed
            )
            estimator.update(self._samples_favouring_admit_all(), capacity=100)
            return estimator.delta

        assert run(3) == run(3)

    def test_empty_window_is_noop(self):
        estimator = ThresholdEstimator(initial_delta=0.5)
        assert estimator.update([], capacity=100) == 0.5


class TestByteObjective:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            ThresholdEstimator(objective="latency")

    def test_byte_weighting_changes_score(self):
        # One small popular object, one huge unpopular one: byte weighting
        # values the huge object's single re-request more.
        samples = [
            sample(1, 1.0, size=10, time=0.0),
            sample(2, 1.0, size=1000, time=1.0),
            sample(1, 1.0, size=10, time=2.0),
            sample(2, 1.0, size=1000, time=3.0),
        ]
        object_score = shadow_hit_ratio(samples, 5000, 0.0)
        byte_score = shadow_hit_ratio(samples, 5000, 0.0, byte_weighted=True)
        assert object_score == pytest.approx(0.5)
        assert byte_score == pytest.approx(1010 / 2020)

    def test_lhr_accepts_byte_objective(self, ):
        from repro.core.lhr import LhrCache

        cache = LhrCache(1000, threshold_objective="byte")
        assert cache.estimator.objective == "byte"
