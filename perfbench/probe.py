"""One ``repro`` CLI invocation with timers on its once-per-run boundaries.

Usage: ``python probe.py OUT.json <repro argv...>``

Behaves like ``python -m repro <argv>`` and exits with its code.  Before
calling :func:`repro.cli.main` it wraps the calls a run makes once
(``load_any_trace``, ``PackedTrace.from_trace``, ``simulate`` /
``run_comparison`` and the ledger commit ``_record_run``) with a pair of
``perf_counter`` reads, then writes to ``OUT.json``:

* ``import_s``: ``import repro.cli``;
* ``<boundary>_s``: seconds inside each boundary call;
* ``replay_entry``: the ``perf_counter`` reading when the replay began.
  ``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, shared by every
  process, so the parent subtracts its own launch reading to get the
  set-up time;
* ``maxrss_kb``: peak RSS of this process or any worker it reaped.
"""

import json
import resource
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import repro.cli as cli

    timings = {"import_s": time.perf_counter() - start}

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            begin = time.perf_counter()
            timings.setdefault(key + "_entry", begin)
            try:
                return fn(*args, **kwargs)
            finally:
                timings[key + "_s"] = (
                    timings.get(key + "_s", 0.0) + time.perf_counter() - begin
                )

        return wrapper

    cli.load_any_trace = timed("load", cli.load_any_trace)
    cli.PackedTrace.from_trace = classmethod(
        timed("pack", cli.PackedTrace.from_trace.__func__)
    )
    cli.simulate = timed("replay", cli.simulate)
    cli.run_comparison = timed("replay", cli.run_comparison)
    cli._record_run = timed("ledger", cli._record_run)
    code = cli.main(argv)
    rss = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    timings["maxrss_kb"] = rss
    with open(out_path, "w") as handle:
        json.dump(timings, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
