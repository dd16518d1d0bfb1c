"""Steadiness: run each workload N times and summarise every metric.

    python3 perfbench/steady.py --runs 10 [--workloads sweep-full,serve-mix]
                                [--seconds 20] [--first-seed 1] [--json OUT]
                                [--compare EARLIER.json]

Each run is ``run.py`` in its own process with its own seed (seeds
``first-seed`` .. ``first-seed + runs - 1``).  For every end-to-end
metric of ``BENCHMARK.json`` the table gives the sample count, the
median, the quartiles (``statistics.quantiles(values, n=4)``), the
interquartile spread and the range as shares of the median, the highest
percentile the samples support (the maximum below 100 samples) and the
metric's bound.  The figures a run reports without a bound (wall times,
latency percentiles, generator lateness) follow, summarised the same
way.  ``error_rate`` is failed over attempted operations, summed over
the runs.

With ``--compare``, each bounded metric's median is also compared with
its median in an earlier ``--json`` summary of the same code: two sets
of runs agree when no median is worse than the earlier one by more
than the metric's bound.

Exits 1 when a run fails, reports an incorrect output, a bounded
metric's interquartile spread exceeds its bound, or (with
``--compare``) a median is worse than the earlier one by more than it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, percentile, tail_percentile  # noqa: E402

def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("reported "):
            result["reported"] = json.loads(line[len("reported "):])
        if line.startswith("host "):
            result["host"] = json.loads(line[len("host "):])
        if line.startswith("note: "):
            result.setdefault("notes", []).append(line[len("note: "):])
    return result


def summarise(values, bound=None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / med if med else float("inf"),
        "range_frac": (max(values) - min(values)) / med if med else float("inf"),
        "tail_pct": tail_percentile(len(values)),
        "tail": percentile(values, tail_percentile(len(values))),
        "bound": bound,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", default=None, help="also write the summary here")
    parser.add_argument("--compare", default=None, help="an earlier --json summary to compare medians with")
    args = parser.parse_args(argv)
    earlier = {}
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    summary, ok = {}, True
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, seconds))
            print(f"[steady] {workload} seed {seed}: correct={runs[-1]['correct']}",
                  file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok &= failed == 0 and all(r["correct"] for r in runs)
        rows = {}
        for name, spec in bounds.items():
            rows[name] = summarise([r["metrics"][name]["value"] for r in runs], spec["bound"])
            rows[name]["unit"] = spec["unit"]
            ok &= rows[name]["iqr_frac"] <= spec["bound"]
        for name, (_, unit) in runs[0].get("reported", {}).items():
            rows[name] = summarise([r["reported"][name][0] for r in runs])
            rows[name]["unit"] = unit
        summary[workload] = {"error_rate": failed / max(1, attempted), "attempted": attempted,
                             "metrics": rows, "runs": runs,
                             "notes": sorted({n for r in runs for n in r.get("notes", [])})}
        print(f"\n{workload}: {len(runs)} runs, error_rate {failed}/{attempted} = {failed / max(1, attempted):.3g}")
        print(f"  {'metric':22s} {'unit':6s} {'n':>3s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'iqr/med':>8s} {'rng/med':>8s} {'tail':>11s} {'bound':>6s}")
        for name, row in rows.items():
            bound = f"{row['bound']:.2f}" if row["bound"] is not None else "-"
            print(f"  {name:22s} {row['unit']:6s} {row['n']:3d} {row['median']:11.5g} {row['q1']:11.5g} "
                  f"{row['q3']:11.5g} {row['iqr_frac']:8.3f} {row['range_frac']:8.3f} "
                  f"{row['tail']:11.5g} {bound:>6s}  (tail = p{row['tail_pct']:g})")
        for note in summary[workload]["notes"]:
            print(f"  note: {note}")
        if workload in earlier:
            for name, spec in bounds.items():
                before = earlier[workload]["metrics"][name]["median"]
                now = rows[name]["median"]
                worse = (now - before if spec["better"] == "lower" else before - now) / before
                ok &= worse <= spec["bound"]
                print(f"  {name:22s} median {before:11.5g} -> {now:11.5g}: "
                      f"{worse:+.3f} worse (bound {spec['bound']:.2f})")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
