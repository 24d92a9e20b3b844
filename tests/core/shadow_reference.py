"""Reference shadow replay for ``repro.core.threshold.shadow_hit_ratio``.

This is the dict-based shadow cache the columnar implementation
replaced, kept verbatim as a small, readable oracle: the cached objects
live in a dict (insertion order is the tie order), and each overflow
ranks every cached object by ``q = p / (size * max(now - last, 1e-9))``
with ``sorted()`` (small caches) or a stable ``argsort`` (64 or more
objects), evicting in that order until the new object fits.  The
differential tests assert the production function returns ``==`` the
same ratio; the throughput benchmark times the two against each other.
"""

from __future__ import annotations

import numpy as np

from repro.core.threshold import WindowSample


def shadow_hit_ratio_reference(
    samples: list[WindowSample],
    capacity: int,
    delta: float,
    byte_weighted: bool = False,
) -> float:
    """Hit ratio of the dict-based LHR shadow cache with threshold ``delta``."""
    if not samples:
        return 0.0
    cached: dict[int, tuple[int, float, float]] = {}  # id -> (size, p, last)
    used = 0
    hits = 0.0
    total = 0.0
    for sample in samples:
        weight = float(sample.size) if byte_weighted else 1.0
        total += weight
        entry = cached.get(sample.obj_id)
        if entry is not None:
            hits += weight
            cached[sample.obj_id] = (entry[0], sample.probability, sample.time)
            continue
        if sample.probability < delta or sample.size > capacity:
            continue
        if used + sample.size > capacity:
            # Evict smallest-q objects until the sample fits.  Large
            # shadow caches rank their victims vectorized: the q values
            # use the same float ops as the scalar key and a stable
            # argsort keeps sorted()'s tie order (dict insertion order),
            # so the victim sequence is bit-identical either way.
            if len(cached) >= 64:
                entries = np.array(list(cached.values()), dtype=np.float64)
                q = entries[:, 1] / (
                    entries[:, 0]
                    * np.maximum(sample.time - entries[:, 2], 1e-9)
                )
                ids = list(cached)
                scores = [
                    ids[i] for i in np.argsort(q, kind="stable").tolist()
                ]
            else:
                scores = sorted(
                    cached,
                    key=lambda oid: cached[oid][1]
                    / (cached[oid][0] * max(sample.time - cached[oid][2], 1e-9)),
                )
            for victim in scores:
                if used + sample.size <= capacity:
                    break
                used -= cached.pop(victim)[0]
        cached[sample.obj_id] = (sample.size, sample.probability, sample.time)
        used += sample.size
    return hits / total if total else 0.0
