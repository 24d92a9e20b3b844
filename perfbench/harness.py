"""Timed runs of the real CLI, and the checks on what they compute.

Every timed run is one ``repro`` process launched through ``probe.py``
with nothing else running (a closed loop with one client; the sweep's
own pool adds at most two workers).  Each gets a fresh ledger directory
under the benchmark's work directory, so the ledger commit is paid and
timed but nothing lands in the repository's ``.repro/``.

Correctness: each run's statistics (requests, hits, hit bytes and
evictions per cell) must equal

* the values committed in ``expected.json`` for this workload and seed,
  when there are any (the toy canary always has them),
* the values an earlier run with the same seed left in this work
  directory, and
* the values of the other runs made now;

and the LRU cells of the sweep must lie within ``MATTSON_BOUND`` of the
reuse-distance curve of :mod:`repro.sim.hitrate_curve`.

Processes: each CLI run is the leader of its own process group, and this
process is the child subreaper of what it starts, so the orphans a run
leaves (the ``multiprocessing`` resource tracker its shared memory
starts outlives the CLI by a moment) come back here.  ``run_cli`` waits
until the whole group has ended before the next run, and
``stop_children`` ends and reaps what the benchmark started in-process.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
PROBE = BENCH_DIR / "probe.py"
EXPECTED = BENCH_DIR / "expected.json"

#: LRU hit ratios from reuse distances match simulation to "well under
#: one hit-ratio point" (``repro.sim.hitrate_curve``).
MATTSON_BOUND = 0.01
#: Traces per run.  Each run replays several traces made from its seed,
#: so a seed that happens to give LHR a window more or less moves the
#: run's median less.
TRACES_PER_RUN = 4
#: Generated traces kept in the work directory, newest first.
TRACE_CACHE_BYTES = 256 << 20
#: No single CLI run may take longer than this.
RUN_TIMEOUT_S = 150
#: What a run's processes get to end after its CLI process has exited,
#: before they are killed.
GROUP_GRACE_S = 10.0
#: ``prctl`` option making orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def digest(workload: Workload) -> str:
    """Identifies a workload's commands, so stored statistics never
    outlive a change of trace size or flags."""
    text = json.dumps([workload.source, workload.command])
    return hashlib.sha1(text.encode()).hexdigest()[:10]


def stats_key(workload: Workload, seed: int) -> str:
    return f"{workload.name}/seed{seed}/{digest(workload)}"


def repro_main(argv: list[str]) -> str:
    """Run ``repro.cli.main`` in this process; returns what it printed."""
    import repro.cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = repro.cli.main(argv)
    if code:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
    return buffer.getvalue()


def trace_seeds(seed: int) -> list[int]:
    """The trace seeds of a run with ``--seed seed``; distinct seeds give
    disjoint sets."""
    return [seed * TRACES_PER_RUN + i for i in range(TRACES_PER_RUN)]


def generate(workload: Workload, seed: int) -> Path:
    """The workload's trace for ``seed``, written once per work directory."""
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    name = hashlib.sha1(json.dumps(workload.source).encode()).hexdigest()[:10]
    path = traces / f"{name}-seed{seed}.csv"
    if not path.exists():
        partial = traces / f"partial-{path.name}"
        repro_main([*workload.source, "--seed", str(seed), "--output", str(partial)])
        partial.replace(path)
        kept = 0
        for old in sorted(traces.glob("*.csv"), key=lambda p: -p.stat().st_mtime):
            kept += old.stat().st_size
            if kept > TRACE_CACHE_BYTES:
                old.unlink()
    path.touch()
    return path


@dataclass
class Rep:
    """One timed CLI run."""

    exit_code: int
    timings: dict = field(default_factory=dict)
    cells: list = field(default_factory=list)
    spans: int = 0

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and bool(self.cells)


def _src_env(ledger: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH"
    ) else src
    env["REPRO_LEDGER_DIR"] = str(ledger)
    return env


def adopt_orphans() -> bool:
    """Make this process the child subreaper of everything it starts, so
    orphaned descendants can be waited for; False where the kernel has
    no such option."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> list[int]:
    """Live (not yet reaped) children of this process."""
    me = str(os.getpid())
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if stat.rsplit(")", 1)[1].split()[1] == me:
            found.append(int(entry.name))
    return found


def _kill(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


def wait_group(pgid: int, grace: float = GROUP_GRACE_S) -> None:
    """Return once every process of group ``pgid`` has ended; kill the
    group if any is left after ``grace`` seconds."""
    deadline = time.monotonic() + grace
    killed = False
    while True:
        try:
            # Orphans of the group are this process's children (see
            # adopt_orphans), so this reaps them; an empty group raises.
            pid, _ = os.waitpid(-pgid, os.WNOHANG)
        except ChildProcessError:
            try:
                os.killpg(pgid, 0)
            except (ProcessLookupError, PermissionError):
                return
            pid = 0  # members that are not ours: no subreaper here
        if pid:
            continue
        if time.monotonic() > deadline:
            if killed:
                # Only unreaped zombies of another parent can be left.
                return
            _kill(pgid)
            killed = True
            deadline = time.monotonic() + grace
        time.sleep(0.005)


def stop_children(grace: float = GROUP_GRACE_S) -> None:
    """End and reap every process this one still has: the resource
    tracker of the in-process runs, then anything else, killed after
    ``grace`` seconds."""
    from multiprocessing import resource_tracker

    with contextlib.suppress(Exception):
        resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.005)


def run_cli(workload: Workload, trace: Path) -> Rep:
    """Launch the workload's command once and time it; returns once every
    process it started has ended."""
    out = WORK / "out" / workload.name
    ledger = WORK / "ledger" / workload.name
    for directory in (out, ledger):
        shutil.rmtree(directory, ignore_errors=True)
    out.mkdir(parents=True)
    argv = [arg.format(trace=trace, out=out) for arg in workload.command]
    env = _src_env(ledger)
    probe_out = out / "probe.json"
    with open(out / "cli.log", "w") as log:
        launch = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(PROBE), str(probe_out), *argv],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=ROOT,
            process_group=0,
        )
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = -1
        finally:
            wall = time.perf_counter() - launch
            if proc.poll() is None:
                _kill(proc.pid)
                proc.wait()
            wait_group(proc.pid)
    if code != 0 or not probe_out.exists():
        return Rep(exit_code=code or -1)
    probe = json.loads(probe_out.read_text())
    manifests = list(ledger.glob("*/manifest.json"))
    if len(manifests) != 1:
        return Rep(exit_code=-2)
    manifest = json.loads(manifests[0].read_text())
    cells = manifest_cells(manifest)
    parts = ("import", "load", "pack", "replay", "ledger")
    timings = {
        "wall_s": wall,
        "setup_s": probe["replay_entry"] - launch,
        "rss_mb": probe["maxrss_kb"] / 1024,
        **{f"{part}_s": probe.get(f"{part}_s", 0.0) for part in parts},
    }
    timings["other_s"] = wall - sum(timings[f"{part}_s"] for part in parts)
    return Rep(exit_code=0, timings=timings, cells=cells,
               spans=int(manifest.get("span_count", 0)))


def manifest_cells(manifest: dict) -> list:
    """Per-cell statistics of a ledger manifest, as compared and stored."""
    return [
        [c["policy"], c["capacity"], c["requests"], c["hits"], c["hit_bytes"],
         c["evictions"], c["total_bytes"]]
        for c in manifest["cells"]
    ]


def cell_ratios(cells: list) -> tuple[float, float]:
    """Mean object and byte hit ratio over a run's cells."""
    objects = [c[3] / c[2] for c in cells]
    byte_ratios = [c[4] / c[6] for c in cells]
    return statistics.fmean(objects), statistics.fmean(byte_ratios)


def median_timings(reps: list[Rep]) -> dict:
    good = [rep for rep in reps if rep.ok]
    return {
        key: statistics.median(rep.timings[key] for rep in good)
        for key in good[0].timings
    } if good else {}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def _load(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def committed_stats() -> dict:
    return _load(EXPECTED)


def reference_cells(key: str, first: list) -> tuple[list, str]:
    """The statistics a run must reproduce, and where they come from."""
    committed = committed_stats().get(key)
    if committed is not None:
        return committed, "committed"
    session = _load(WORK / "session-stats.json").get(key)
    if session is not None:
        return session, "session"
    return first, "first run"


def remember(key: str, cells: list) -> None:
    """Keep a seed's statistics for later runs in this work directory."""
    path = WORK / "session-stats.json"
    stored = _load(path)
    stored.setdefault(key, cells)
    path.write_text(json.dumps(stored, sort_keys=True))


def mattson_errors(trace_path: Path, cells: list) -> list[str]:
    """LRU cells farther than MATTSON_BOUND from the reuse-distance curve."""
    from repro.cli import load_any_trace
    from repro.sim.hitrate_curve import lru_hit_rate_curve

    lru = [cell for cell in cells if cell[0] == "lru"]
    if not lru:
        return []
    curve = lru_hit_rate_curve(load_any_trace(str(trace_path)),
                               [cell[1] for cell in lru])
    errors = []
    for cell in lru:
        k = int(list(curve.capacities).index(cell[1]))
        for label, simulated, predicted in (
            ("object", cell[3] / cell[2], curve.object_hit_ratios[k]),
            ("byte", cell[4] / cell[6], curve.byte_hit_ratios[k]),
        ):
            if abs(simulated - predicted) > MATTSON_BOUND:
                errors.append(
                    f"lru@{cell[1]} {label} hit ratio {simulated:.4f} vs "
                    f"reuse-distance curve {predicted:.4f}"
                )
    return errors
