"""Toy-scale tests of the benchmark itself.

Run from the root of the checkout::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, run, traced, workloads  # noqa: E402
from perfbench.selftime import SelfTimer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    """A clock that advances by one tick per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, declared in (("end_to_end", run.END_TO_END),
                              ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[section]}
        assert listed == declared
        for name, unit in declared.items():
            assert NAME.fullmatch(name) and len(name) <= 64, name
            assert UNIT.fullmatch(unit), (name, unit)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_selftime_intervals_tile_a_nested_call():
    intervals: list = []
    timer = SelfTimer(clock=FakeClock(), intervals=intervals)

    def leaf():
        return 1

    wrapped_leaf = timer.wrap("leaf", leaf)

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_middle = timer.wrap("middle", middle)
    outer = timer.wrap("outer", lambda: wrapped_middle() + wrapped_leaf(), root=True)
    start = timer.clock.now
    assert outer() == 3
    end = timer.clock.now
    # Disjoint and contiguous: each segment starts where the last ended.
    assert intervals[0][1] == start + 1
    for (_, _, prev_end), (_, begin, _) in zip(intervals, intervals[1:]):
        assert begin == prev_end
    assert intervals[-1][2] == end
    assert all(b <= e for _, b, e in intervals)
    assert timer.total() == pytest.approx(end - (start + 1))
    assert timer.calls == {"outer": 1, "middle": 1, "leaf": 3}
    assert timer.depth == 0


def test_layers_outside_a_root_call_run_untimed():
    timer = SelfTimer(clock=FakeClock())
    assert timer.wrap("leaf", lambda: 7)() == 7
    assert timer.total() == 0 and not timer.calls


def test_integrity_check_catches_double_counting():
    timer = SelfTimer(clock=FakeClock())
    timer.wrap("root", lambda: None, root=True)()
    replay_s = timer.total()
    traced.check_integrity(timer, replay_s)
    timer.self_s["lhr.hro"] += replay_s  # a caller charged its callee too
    with pytest.raises(traced.IntegrityError):
        traced.check_integrity(timer, replay_s)


@pytest.fixture(scope="module")
def canary():
    toy = workloads.get("lhr-churn", toy=True)
    rep = harness.run_cli(toy, harness.generate(toy, 0))
    assert rep.ok
    return toy, rep


def test_canary_matches_committed_statistics(canary):
    toy, rep = canary
    assert rep.cells == harness.committed_stats()[harness.stats_key(toy, 0)]
    for key in ("wall_s", "setup_s", "replay_s", "import_s", "ledger_s"):
        assert rep.timings[key] > 0
    assert rep.timings["setup_s"] < rep.timings["wall_s"]


def test_correctness_check_catches_a_tampered_expected_value(canary, monkeypatch):
    toy, rep = canary
    key = harness.stats_key(toy, 0)
    ops = run.Ops()
    run.check_reps(ops, key, [rep], "toy")
    assert ops.failed == 0
    tampered = json.loads(json.dumps(harness.committed_stats()))
    tampered[key][0][3] += 1  # one hit more than the program produced
    monkeypatch.setattr(harness, "committed_stats", lambda: tampered)
    ops = run.Ops()
    run.check_reps(ops, key, [rep], "toy")
    assert (ops.attempted, ops.failed) == (1, 1)


def test_traced_toy_lhr_run_accounts_for_the_replay():
    toy = workloads.get("lhr-cdn-a", toy=True)
    done = traced.traced_run(toy, harness.generate(toy, 0))
    assert harness.manifest_cells(done["manifest"]) == (
        harness.committed_stats()[harness.stats_key(toy, 0)])
    metrics = traced.lhr_metrics(done)
    assert metrics["lhr.hro.self_s"] > 0
    assert metrics["lhr.windows"] >= 1
    layers = {row["layer"] for row in traced.layer_table(done["timer"],
                                                         done["replay_s"])}
    assert {"sim.engine", "lhr.hro", "lhr.gbm_fit"} <= layers


def test_no_process_outlives_a_run():
    """The sweep's shared memory starts a resource tracker that outlives
    the CLI; the benchmark must wait for it, and stop the one its own
    in-process runs start."""
    assert harness.adopt_orphans()
    toy = workloads.get("sweep-classic", toy=True)
    trace = harness.generate(toy, 0)
    rep = harness.run_cli(toy, trace)
    assert rep.cells == harness.committed_stats()[harness.stats_key(toy, 0)]
    assert harness._children() == []
    harness.repro_main([arg.format(trace=trace) for arg in toy.command])
    harness.stop_children()
    assert harness._children() == []
