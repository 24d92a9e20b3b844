"""Auto-tuned admission threshold (Sections 4.2 and 5.2.3).

LHR admits a content when its learned admission probability exceeds a
threshold ``delta``.  Because production workloads are non-stationary, a
fixed ``delta = 0.5`` is a poor fit for some traces (Figure 10(a):
CDN-C's hit probability improves ~150% with auto-tuning).  The estimation
algorithm re-evaluates, once per sliding window:

* candidate set ``{0, 0.5, delta - 0.1, delta + 0.1}`` (clipped to [0,1]),
* each candidate's hit probability, measured by replaying a sample of the
  window's requests through a *shadow cache* that admits by the recorded
  probabilities and evicts by LHR's eviction rule,
* two update guards: the winning candidate is adopted only if it beats
  the incumbent AND the margin exceeds ``beta`` (paper default 0.2%).

The paper notes replaying only half the window's requests is enough
(Section 5.2.3); ``sample_fraction`` controls that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import NULL_OBS

#: Threshold adjustment step (the paper's 0.1 grid).
STEP = 0.1


@dataclass(frozen=True, slots=True)
class WindowSample:
    """One request as recorded for shadow replay."""

    obj_id: int
    size: int
    time: float
    probability: float


def shadow_hit_ratio(
    samples: list[WindowSample],
    capacity: int,
    delta: float,
    byte_weighted: bool = False,
) -> float:
    """Hit ratio of an LHR-style shadow cache with threshold ``delta``.

    The shadow cache admits ``probability >= delta`` and evicts the
    cached object with the smallest ``q = p / (size * (now - last_access))``,
    i.e. LHR's eviction rule with IRT_1 evaluated at eviction time.

    Cached objects live in size / p / last-access columns, one
    append-only slot per admission: a hit updates its slot in place, an
    eviction tombstones it (``p = inf``) and a re-admission appends a new
    slot, so slot order is admission order.  An overflow computes every
    slot's ``q`` in one vectorised pass, then evicts by repeated
    ``argmin``: survivors' ``q`` cannot change within one ``now`` and
    ``argmin`` returns the earliest slot among ties, so victims leave in
    ascending ``q``, earliest admission first.  Tombstones are compacted
    away once they outnumber the live slots, so each overflow costs
    O(cached objects) plus one O(cached) ``argmin`` per victim.
    """
    if not samples:
        return 0.0
    # At most one slot per admission; rows are size, p, last access.
    columns = np.empty((3, len(samples)), dtype=np.float64)
    size_col, p_col, last_col = columns
    ids: list[int] = []
    sizes: list[int] = []
    slot_of: dict[int, int] = {}  # live objects only
    end = 0  # slots in use, live or tombstoned
    used = 0
    hits = 0.0
    total = 0.0
    for sample in samples:
        size = sample.size
        weight = float(size) if byte_weighted else 1.0
        total += weight
        slot = slot_of.get(sample.obj_id)
        if slot is not None:
            hits += weight
            p_col[slot] = sample.probability
            last_col[slot] = sample.time
            continue
        if sample.probability < delta or size > capacity:
            continue
        if used + size > capacity:
            q = p_col[:end] / (
                size_col[:end] * np.maximum(sample.time - last_col[:end], 1e-9)
            )
            while used + size > capacity:
                victim = int(q.argmin())
                q[victim] = p_col[victim] = np.inf
                used -= sizes[victim]
                del slot_of[ids[victim]]
            if end > 2 * len(slot_of):
                live = np.flatnonzero(p_col[:end] != np.inf)
                end = len(live)
                columns[:, :end] = columns[:, live]
                keep = live.tolist()
                ids = [ids[i] for i in keep]
                sizes = [sizes[i] for i in keep]
                slot_of = {obj_id: i for i, obj_id in enumerate(ids)}
        slot_of[sample.obj_id] = end
        ids.append(sample.obj_id)
        sizes.append(size)
        size_col[end] = size
        p_col[end] = sample.probability
        last_col[end] = sample.time
        end += 1
        used += size
    return hits / total if total else 0.0


class ThresholdEstimator:
    """Maintains LHR's admission threshold across sliding windows."""

    OBJECTIVES = ("object", "byte")

    def __init__(
        self,
        initial_delta: float = 0.5,
        beta: float = 0.002,
        sample_fraction: float = 0.5,
        objective: str = "object",
        seed: int = 0,
    ):
        if objective not in self.OBJECTIVES:
            raise ValueError(f"objective must be one of {self.OBJECTIVES}")
        if not 0.0 <= initial_delta <= 1.0:
            raise ValueError("initial_delta must lie in [0, 1]")
        if beta < 0:
            raise ValueError("beta must be non-negative")
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must lie in (0, 1]")
        self.delta = initial_delta
        self.beta = beta
        self.sample_fraction = sample_fraction
        #: "object" scores shadow replays by request hits (the paper);
        #: "byte" scores them by hit bytes — an extension that trades a
        #: little object hit ratio for WAN-traffic reduction.
        self.objective = objective
        self._rng = np.random.default_rng(seed)
        self.history: list[float] = [initial_delta]
        #: Observation handle (:mod:`repro.obs`); LHR attaches its own.
        self.obs = NULL_OBS

    def candidates(self) -> list[float]:
        """The paper's candidate set, clipped to [0, 1] and deduplicated."""
        raw = [0.0, 0.5, self.delta - STEP, self.delta + STEP]
        clipped = sorted({min(max(value, 0.0), 1.0) for value in raw})
        return clipped

    def update(self, samples: list[WindowSample], capacity: int) -> float:
        """Re-estimate the threshold from one window's recorded requests.

        Returns the (possibly unchanged) threshold to use next window.
        """
        # Once per retraining window; the disabled span context is a
        # shared no-op.
        with self.obs.spans.span(
            "lhr.threshold_update", cat="lhr", samples=len(samples)
        ):
            return self._update(samples, capacity)

    def _update(self, samples: list[WindowSample], capacity: int) -> float:
        if samples and self.sample_fraction < 1.0:
            keep = max(int(len(samples) * self.sample_fraction), 1)
            idx = np.sort(self._rng.choice(len(samples), size=keep, replace=False))
            samples = [samples[i] for i in idx]
            # Replaying a sample shrinks the working set; shrink the shadow
            # capacity proportionally so cache pressure stays realistic.
            capacity = max(int(capacity * self.sample_fraction), 1)
        byte_weighted = self.objective == "byte"
        incumbent_ratio = shadow_hit_ratio(
            samples, capacity, self.delta, byte_weighted
        )
        best_delta = self.delta
        best_ratio = incumbent_ratio
        for candidate in self.candidates():
            if candidate == self.delta:
                continue
            ratio = shadow_hit_ratio(samples, capacity, candidate, byte_weighted)
            if ratio > best_ratio:
                best_ratio = ratio
                best_delta = candidate
        # Both update guards (Section 5.2.3): strictly better AND by more
        # than beta; otherwise keep the incumbent.
        previous = self.delta
        if best_delta != self.delta and best_ratio - incumbent_ratio > self.beta:
            self.delta = best_delta
        self.history.append(self.delta)
        if self.obs.learner.enabled:
            # Learner-telemetry fragment: the delta trajectory for this
            # window (folded into the row at window close).
            self.obs.learner.record_threshold(
                threshold_adopted=float(self.delta != previous),
                incumbent_ratio=incumbent_ratio,
                best_ratio=best_ratio,
            )
        if self.obs.enabled:
            adopted = self.delta != previous
            self.obs.registry.counter(
                "lhr_threshold_estimations_total",
                help="per-window threshold re-estimations",
            ).inc()
            if adopted:
                self.obs.registry.counter(
                    "lhr_threshold_adoptions_total",
                    help="re-estimations that changed the threshold",
                ).inc()
            self.obs.registry.gauge(
                "lhr_threshold_delta", help="current admission threshold"
            ).set(self.delta)
            self.obs.emit(
                "lhr.threshold_update",
                before=previous,
                after=self.delta,
                adopted=adopted,
                incumbent_ratio=round(incumbent_ratio, 6),
                best_ratio=round(best_ratio, 6),
                best_candidate=best_delta,
                samples=len(samples),
            )
        return self.delta
