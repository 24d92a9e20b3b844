"""The benchmark's four workloads, as ``repro`` CLI argument lists.

Each workload is two commands: one that writes its trace from a seed
(``repro trace generate`` or ``repro workload generate``) and one that
replays the written file.  The program never sees the seed, only the
file.  ``toy=True`` gives the same commands on a trace of a few
thousand requests; the benchmark replays that as a warm-up canary whose
statistics are committed in ``expected.json``, and the tests use it.

``NOTES.md`` says why each workload is here and which layer each one
stresses.
"""

from __future__ import annotations

from dataclasses import dataclass

GB = 1 << 30

#: Trace scale of the cdn-a stand-in (fraction of its ~970k requests).
CDN_A_SCALE = 0.05
OBS_SCALE = 0.2
TOY_SCALE = 0.003

#: The sweep's policies: four native span kernels, then two policies
#: that replay through the scalar shim.
SWEEP_POLICIES = ("lru", "lru-4", "lfu-da", "b-lru", "gdsf", "w-tinylfu")
SWEEP_CACHES_GB = (256, 512)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro`` argv writing the trace, without ``--seed`` / ``--output``.
    source: tuple[str, ...]
    #: ``repro`` argv replaying it; ``{trace}`` and ``{out}`` (a scratch
    #: directory for sidecar files) are filled in per run.
    command: tuple[str, ...]
    #: Fraction of paper scale, for the telemetry payload.
    scale: float
    jobs: int = 0
    #: Seconds one pass over a run's four traces takes on a 2-vCPU host;
    #: ``--seconds`` buys ``seconds // pass_seconds`` passes.
    pass_seconds: float = 16.0


def _cdn_a(scale: float) -> tuple[str, ...]:
    return ("trace", "generate", "--spec", "cdn-a", "--scale", repr(scale))


def _cache(cache_gb: float, scale: float) -> str:
    """A paper cache size scaled like the trace, as a byte count."""
    return str(max(int(cache_gb * GB * scale), 1))


def _lhr_cdn_a(toy: bool) -> Workload:
    scale = TOY_SCALE if toy else CDN_A_SCALE
    return Workload(
        name="lhr-cdn-a",
        source=_cdn_a(scale),
        command=("simulate", "--trace", "{trace}", "--policy", "lhr",
                 "--capacity", _cache(512, scale)),
        scale=scale,
    )


def _lhr_churn(toy: bool) -> Workload:
    requests, contents, phase = (2000, 500, 500) if toy else (50_000, 5000, 5000)
    return Workload(
        name="lhr-churn",
        source=("workload", "generate", "--scenario", "churn",
                "--requests", str(requests),
                "--param", f"num_contents={contents}",
                "--param", f"phase_requests={phase}"),
        command=("simulate", "--trace", "{trace}", "--policy", "lhr",
                 "--capacity", "1MB" if toy else "8MB"),
        scale=requests / 1_000_000,
    )


def _sweep_classic(toy: bool) -> Workload:
    scale = TOY_SCALE if toy else CDN_A_SCALE
    return Workload(
        name="sweep-classic",
        source=_cdn_a(scale),
        command=("compare", "--trace", "{trace}",
                 "--policies", ",".join(SWEEP_POLICIES),
                 "--capacities", *(_cache(gb, scale) for gb in SWEEP_CACHES_GB),
                 "--jobs", "2"),
        scale=scale,
        jobs=2,
    )


def _obs_lru(toy: bool) -> Workload:
    scale = TOY_SCALE if toy else OBS_SCALE
    return Workload(
        name="obs-lru",
        source=_cdn_a(scale),
        command=("simulate", "--trace", "{trace}", "--policy", "lru",
                 "--capacity", _cache(512, scale),
                 "--window", "200" if toy else "1000",
                 "--log-json", "{out}/events.jsonl",
                 "--metrics-out", "{out}/metrics.json",
                 "--trace-out", "{out}/spans.json"),
        scale=scale,
        pass_seconds=7.0,
    )


_BUILDERS = {
    "lhr-cdn-a": _lhr_cdn_a,
    "lhr-churn": _lhr_churn,
    "sweep-classic": _sweep_classic,
    "obs-lru": _obs_lru,
}

NAMES = tuple(_BUILDERS)


def get(name: str, toy: bool = False) -> Workload:
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    return _BUILDERS[name](toy)


def half_rung(workload: Workload) -> Workload:
    """``lhr-cdn-a`` at half its trace length (and cache), for the
    wall-time growth exponent ``lhr.scale_exp``."""
    scale = workload.scale / 2
    return Workload(
        name=workload.name + "-half",
        source=_cdn_a(scale),
        command=("simulate", "--trace", "{trace}", "--policy", "lhr",
                 "--capacity", _cache(512, scale)),
        scale=scale,
    )
