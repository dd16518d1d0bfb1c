"""Run one workload of the pipeline benchmark and print its result.

    python3 perfbench/run.py --workload sweep-full --seed 7 --seconds 20 --trace 0

Run from the root of a checkout; the program is used from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` a separate traced run measures
every per-layer metric.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it record the host and provenance, notes (a late generator, a
high starting load, absent metrics, failed checks) and details.

Exits 2 without a result when the checkout holds no program, and 1
when a step of the workload fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SRC, BenchError, cpu_steal_ticks, host_table, require_program  # noqa: E402

#: A 1-minute load average above this share of the CPUs at start marks
#: the run as taken on a busy host.
BUSY_LOAD = 1.0
#: Generator lateness (p99) worth flagging beside the latencies.
LATE_GENERATOR_MS = 2.0
#: Share of CPU time the hypervisor stole during the run worth flagging.
NOISY_STEAL = 0.05


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import END_TO_END_UNITS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    host = host_table()
    steal0, started = cpu_steal_ticks(), time.monotonic()
    try:
        # Graph generators take seeds in [0, 2**32); 7 stays 7.
        outcome = WORKLOADS[args.workload](args.seed % (1 << 32), args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    cpu_s = os.sysconf("SC_CLK_TCK") * (host["nproc"] or 1) * (time.monotonic() - started)
    host["cpu_steal_share"] = (cpu_steal_ticks() - steal0) / cpu_s
    if not args.trace:
        outcome.metrics = {
            name: (float(outcome.metrics[name]), unit) for name, unit in END_TO_END_UNITS.items()
        }
    notes = list(outcome.notes)
    if host["loadavg_1m"] > BUSY_LOAD * (host["nproc"] or 1):
        notes.append(f"busy host at start: 1-minute load {host['loadavg_1m']:.2f}")
    if host["cpu_steal_share"] > NOISY_STEAL:
        notes.append(f"noisy host: {host['cpu_steal_share']:.1%} of CPU time stolen during the run")
    lag = outcome.details.get("client_lag_p99_ms")
    if lag is not None:
        host["client.lag_p99_ms"] = lag
        if lag > LATE_GENERATOR_MS:
            notes.append(f"late generator: p99 lag {lag:.2f} ms (latencies include it)")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for note in notes:
        print(f"note: {note}")
    if outcome.details:
        print("details " + json.dumps(outcome.details, sort_keys=True))
    if outcome.reported:
        print("reported " + json.dumps(outcome.reported, sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for name, (value, unit) in outcome.reported.items():
        print(f"  ({name:32s} {value:14.6g} {unit}, reported, not bounded)")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
