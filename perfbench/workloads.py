"""The three workloads, untraced (end-to-end) and traced (per layer).

``sweep-full``
    ``repro study OUT.v3 --jobs 2`` over the paper's full default grid
    (17 apps x 3 inputs x 6 chips x 96 configs = 29 376 cells), then
    ``repro dataset verify OUT.v3``.  Trace collection and pricing do
    the work; analysis and serving do none.
``analyse-4app``
    ``repro index DATASET OUT --portfolios`` then ``repro search
    DATASET --trials 2`` over a 4-app grid priced during set-up (6 912
    cells).  Algorithm 1, the Table V strategies, portfolios and search
    replay do the work; tracing and pricing do none.
``serve-mix``
    ``repro serve INDEX --workers 1`` over a 2-app index with
    portfolios, driven open-loop by :mod:`loadgen`: each lookup path
    and predicts alone, then 90 % lookups and 10 % predicts at
    500 req/s.

Each workload reports the same end-to-end metrics, read per workload
as set out in ``NOTES.md``: ``primary_ms`` and ``secondary_ms`` are the
cost of the workload's two user-visible operations and
``throughput_per_s`` its work completed per second.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from typing import List, NamedTuple

from common import (
    DEFAULT_SEED,
    JOBS,
    BenchError,
    MemorySampler,
    child_env,
    in_reference_time,
    kill_tree,
    load_digests,
    Step,
    median,
    repro_cmd,
    run_step,
    step_cmd,
    workspace,
)

from mix import LOOKUP_PATHS

HERE = os.path.dirname(os.path.abspath(__file__))

#: Unit of every per-layer metric, in reporting order.
LAYER_UNITS = {
    "startup.import_s": "s",
    "graphs.build_s": "s",
    "runtime.trace_s": "s",
    "runtime.trace_max_pair_s": "s",
    "runtime.launches": "count",
    "compiler.compile_s": "s",
    "study.price_s": "s",
    "study.cells_per_s": "1/s",
    "study.cpu_util": "fraction",
    "store.write_s": "s",
    "store.bytes": "bytes",
    "store.load_s": "s",
    "store.verify_s": "s",
    "study.audit_s": "s",
    "core.alg1_global_s": "s",
    "core.alg1_levels_s": "s",
    "core.alg1_pairs": "count",
    "core.tppf_hit_ratio": "fraction",
    "core.strategies_s": "s",
    "core.portfolio_s": "s",
    "core.portfolio_curves": "count",
    "core.replay_s.random": "s",
    "core.replay_s.local": "s",
    "core.replay_s.halving": "s",
    "core.replays_per_s": "1/s",
    "serve.index_compile_s": "s",
    "serve.index_save_s": "s",
    "serve.index_bytes": "bytes",
    "serve.index_load_s": "s",
    "serve.answer_us": "us",
    "serve.portfolio_us": "us",
    "perfmodel.predict_ms": "ms",
    "serve.cpu_ms_per_req": "ms",
    **{f"serve.lookup_cpu_ms.{path}": "ms" for path in LOOKUP_PATHS},
    "serve.predict_cpu_ms": "ms",
    "serve.cache_hit_ratio": "fraction",
    "serve.cache_evictions": "count",
    "serve.predict_items_per_batch": "count",
    "serve.shed": "count",
    "serve.breaker_fast_fails": "count",
    "serve.timeouts": "count",
    "serve.max_rate_rps": "1/s",
    "client.lag_p99_ms": "ms",
    "trace.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
}

#: Apps (all when empty) and input scale of each workload's grid.
GRIDS = {
    "sweep-full": ("", 1.0),
    "analyse-4app": ("bfs-wl,cc-wl,pr-topo,sssp-nf", 1.0),
    "serve-mix": ("bfs-wl,sssp-nf", 1.0),
}

#: Reference-step seconds and ladder budget of the traced serve check;
#: serve-mix, whose layers these are, runs the longer one.
TRACED_SERVE = {"sweep-full": (2.0, 6.0), "analyse-4app": (2.0, 6.0), "serve-mix": (7.0, 10.0)}
#: Seconds of each lookup path and of predicts alone in the traced serve check.
TRACED_PATH_SECONDS = 0.5
TRACED_PREDICT_SECONDS = 2.0

#: Fresh ``import repro`` interpreters whose median is sweep-full's
#: set-up time and the traced ``startup.import_s``.
IMPORT_RUNS = 9
#: Pricings of the grid whose median is analyse-4app's set-up time.
SETUP_RUNS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "primary_ms": "ms",
    "secondary_ms": "ms",
    "throughput_per_s": "1/s",
}


class Outcome:
    """What one run of a workload found: checks, metrics, notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        #: Unbounded figures printed beside the metrics: name -> (value, unit).
        self.reported = {}
        self.notes = []
        self.details = {}

    def check(self, ok: bool, what: str, n: int = 1, failed: int = None) -> None:
        self.attempted += n
        bad = (0 if ok else n) if failed is None else failed
        self.failed += bad
        if bad:
            self.notes.append(f"FAILED check: {what}")


def _pinned(out: Outcome, seed: int, name: str, digest: str) -> None:
    """Compare an output digest with the pinned one (default seed only)."""
    if seed == DEFAULT_SEED:
        out.check(load_digests()[name] == digest, f"{name} digest {digest}")


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _passes(seconds: float, run_pass) -> list:
    """Run ``run_pass`` until another pass would overrun ``seconds`` (at least once)."""
    results, started = [], time.perf_counter()
    while True:
        results.append(run_pass())
        spent = time.perf_counter() - started
        if spent + spent / len(results) > seconds:
            return results


def _step_ok(step, what: str):
    if step.code != 0:
        raise BenchError(f"{what} exited with code {step.code}")
    return step


# -- server ------------------------------------------------------------------


class Server:
    """``repro serve INDEX --workers 1`` in its own process."""

    def __init__(self, index_path: str, log_path: str, metrics_path: str = None) -> None:
        cmd = repro_cmd("serve", index_path, "--port", "0", "--workers", "1")
        if metrics_path:
            cmd += ["--metrics", metrics_path]
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            cmd, env=child_env(), stdout=self.log, stderr=subprocess.PIPE
        )
        deadline = time.time() + 60
        line = b""
        while time.time() < deadline:
            line = self.proc.stderr.readline()
            if not line or b"listening on http://" in line:
                break
        match = re.search(rb"listening on http://([\d.]+):(\d+)", line)
        if not match:
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1).decode(), int(match.group(2))

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                kill_tree(self.proc)
        self.log.write(self.proc.stderr.read())
        self.proc.stderr.close()
        self.log.close()
        return self.proc.returncode


def drive(work: str, index_path: str, seed: int, ref_seconds: float, budget_seconds: float = 0.0,
          ladder_seconds: float = 0.0, metrics_path: str = None, path_seconds: float = 0.0,
          predict_seconds: float = 0.0) -> dict:
    """Start a server over ``index_path``, drive it with the load generator, stop it.

    Returns the load generator's result plus ``serve_start_s`` (spawn
    until listening), ``peak_rss_mb`` of the server during the traffic
    and the server's exit code.
    """
    log = os.path.join(work, "serve.log")
    started = time.perf_counter()
    server = Server(index_path, log, metrics_path)
    serve_start_s = time.perf_counter() - started
    out_path = os.path.join(work, "loadgen.json")
    sampler = MemorySampler(server.proc.pid)
    try:
        with open(log, "ab") as lg_log:
            code = subprocess.run(
                [
                    sys.executable, os.path.join(HERE, "loadgen.py"),
                    "--host", server.host, "--port", str(server.port),
                    "--index", index_path, "--seed", str(seed),
                    "--server-pid", str(server.proc.pid),
                    "--ref-seconds", str(ref_seconds),
                    "--ladder-seconds", str(ladder_seconds),
                    "--path-seconds", str(path_seconds),
                    "--predict-seconds", str(predict_seconds),
                    "--budget-seconds", str(budget_seconds),
                    "--out", out_path,
                ],
                env=child_env(), stdout=lg_log, stderr=lg_log, timeout=150,
            ).returncode
    finally:
        peak = sampler.stop()
        exit_code = server.stop()
    if code != 0:
        raise BenchError(f"load generator exited with code {code}; see {log}")
    with open(out_path) as fh:
        result = json.load(fh)
    result.update(serve_start_s=serve_start_s, peak_rss_mb=peak, exit_code=exit_code)
    return result


def _serve_layers(result: dict, report_path: str, notes: list) -> dict:
    from repro.obs import RunReport

    report = RunReport.load(report_path)
    cache = result["cache"]
    if cache is None:
        notes.append("serve.cache_hit_ratio, serve.cache_evictions absent: "
                     "the server reports no response cache (reported as 0)")
        cache = {"hits": 0, "misses": 0, "evictions": 0}
    batch = report.histograms.get("serve.predict.batch_size", [0, 0.0])
    return {
        "serve.cpu_ms_per_req": result["server_cpu_ms_per_req"],
        **{f"serve.lookup_cpu_ms.{p}": s["cpu_ms_per_req"] for p, s in result["paths"].items()},
        "serve.predict_cpu_ms": result["predict_cpu_ms_per_req"],
        "serve.cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "serve.cache_evictions": cache["evictions"],
        "serve.predict_items_per_batch": batch[1] / max(1, batch[0]),
        "serve.shed": report.counter("serve.shed"),
        "serve.breaker_fast_fails": report.counter("serve.breaker.fast_fails"),
        "serve.timeouts": report.counter("serve.timeouts"),
        "serve.max_rate_rps": result["max_rate_rps"],
        "client.lag_p99_ms": result["lag_p99_ms"],
    }


def _check_paths(out: Outcome, result: dict) -> None:
    """Each lookup path's step must have taken its path through the cache."""
    if result["cache"] is None:
        out.notes.append("the server reports no response cache: cache paths not checked")
        return
    for path, step in result["paths"].items():
        sent, state = step["sent"], path.partition(".")[2]
        want = {"": (0, 0), "miss": (0, sent), "hit": (sent, 0)}[state]
        got = (step["cache"]["hits"], step["cache"]["misses"])
        out.check(got == want, f"lookup path {path}: cache hits/misses {got}, expected {want}")


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- steps -------------------------------------------------------------------


def _study(log: str, seed: int, grid: str, out_path: str, traced: bool = False):
    """Price ``grid`` into ``out_path``: the ``study`` (or ``traced-study``) step."""
    apps, scale = GRIDS[grid]
    step = "traced-study" if traced else "study"
    cmd = step_cmd(step, "--out", out_path, "--seed", str(seed), "--jobs", str(JOBS),
                   "--apps", apps, "--scale", repr(scale))
    return _step_ok(run_step(cmd, log), step)


def _traced(log: str, step: str, seed: int, **opts):
    """A traced step: ``(Step, its timings)``."""
    args = [step, "--seed", str(seed)]
    for name, value in opts.items():
        args += [f"--{name}", str(value)]
    result = _step_ok(run_step(step_cmd(*args), log), step)
    return result, result.json()


def _index(log: str, data: str, idx: str):
    return _step_ok(run_step(repro_cmd("index", data, idx, "--portfolios"), log), "index")


def _search(log: str, data: str, seed: int):
    return _step_ok(run_step(repro_cmd("search", data, "--trials", "2", "--seed", str(seed)), log), "search")


# -- traced pipeline ---------------------------------------------------------


def _layers_from_study(t: dict) -> dict:
    s = t["self"]
    return {
        "graphs.build_s": s["graphs.build"],
        "runtime.trace_s": s["runtime.trace"],
        "runtime.trace_max_pair_s": t["runtime_trace_max_pair_s"],
        "runtime.launches": t["runtime_launches"],
        "compiler.compile_s": s["compiler.compile"],
        "study.price_s": s["study.price"],
        "study.cells_per_s": t["study_cells"] / s["study.price"],
        "study.cpu_util": t["study_cpu_util"],
        "store.write_s": s["store.write"],
        "store.bytes": t["store_bytes"],
        "store.verify_s": s["store.verify"],
    }


def _layers_from_analysis(ti: dict, ts: dict, notes: list) -> dict:
    si, ss = ti["self"], ts["self"]
    replays = {n: ss[f"core.replay.{n}"] for n in ("random", "local", "halving")}
    n_replays = sum(ts["count"][f"core.replay.{n}"] for n in replays)
    tppf = ti["core_tppf_hit_ratio"]
    if tppf is None:
        notes.append("core.tppf_hit_ratio absent: repro.core.stats.tdist is gone (reported as 0)")
    out = {
        "study.audit_s": si["study.audit"] + ss["study.audit"],
        "core.alg1_global_s": si["core.alg1_global"],
        "core.alg1_levels_s": si["core.alg1_levels"],
        "core.alg1_pairs": ti["core_alg1_pairs"],
        "core.tppf_hit_ratio": tppf or 0.0,
        "core.strategies_s": si["core.strategies"],
        "core.portfolio_s": si["core.portfolio"],
        "core.portfolio_curves": ti["core_portfolio_curves"],
        "core.replays_per_s": n_replays / sum(replays.values()),
        "serve.index_compile_s": si["serve.index_compile"],
        "serve.index_save_s": si["serve.index_save"],
        "serve.index_bytes": ti["serve_index_bytes"],
        "serve.index_load_s": si["serve.index_load"],
        "serve.answer_us": ti["serve_answer_us"],
        "serve.portfolio_us": ti["serve_portfolio_us"],
        "perfmodel.predict_ms": ti["perfmodel_predict_ms"],
    }
    out.update({f"core.replay_s.{n}": v for n, v in replays.items()})
    return out


def _coverage(steps) -> float:
    """Share of the traced steps' wall time their spans and start-up account for."""
    covered = sum(t["import_s"] + sum(t["self"].values()) for _, t in steps)
    return covered / sum(step.wall_s for step, _ in steps)


class Traced:
    """The traced steps of one run and the per-layer metrics they give."""

    def __init__(self, study, index, search, served) -> None:
        self.study = study
        self.index = index
        self.search = search
        self.served = served
        self.layers = {}


def traced_pipeline(out: Outcome, work: str, seed: int, dataset: str, study, grid: str) -> Traced:
    """Index, search and serve layers over ``dataset``, traced.

    ``study`` is the ``(step, timings)`` of the traced sweep that priced
    the workload's grid; it supplies the sweep layers.  The index and
    search steps are checked against the untraced CLI's outputs by the
    caller; the serve check drives a server that records its metrics.
    """
    log = os.path.join(work, "traced.log")
    idx = os.path.join(work, "traced.idx")
    index = _traced(log, "traced-index", seed, dataset=dataset, out=idx)
    search = _traced(log, "traced-search", seed, dataset=dataset, out=os.path.join(work, "search.txt"), trials=2)
    imports = [_step_ok(run_step(step_cmd("import"), log), "import").json()["import_s"]
               for _ in range(IMPORT_RUNS)]
    report = os.path.join(work, "serve-report.json")
    ref_seconds, ladder_seconds = TRACED_SERVE[grid]
    served = drive(work, idx, seed, ref_seconds, ref_seconds + ladder_seconds, ladder_seconds=1.5,
                   metrics_path=report, path_seconds=TRACED_PATH_SECONDS,
                   predict_seconds=TRACED_PREDICT_SECONDS)
    _check_paths(out, served)
    if served["ladder_exhausted"]:
        out.notes.append("every ladder step passed: serve.max_rate_rps is a floor")
    if not served["reference"]["passed"]:
        out.notes.append("the reference step failed its latency limits: serve.max_rate_rps is 0")
    out.check(served["failed"] == 0, "traced serve answers", n=served["attempted"], failed=served["failed"])
    run = Traced(study, index, search, served)
    layers = run.layers
    layers["startup.import_s"] = median(imports)
    layers.update(_layers_from_study(study[1]))
    layers.update(_layers_from_analysis(index[1], search[1], out.notes))
    layers["store.load_s"] = sum(t[1]["self"]["store.load"] for t in (study, index, search))
    layers.update(_serve_layers(served, report, out.notes))
    return run


def _layer_metrics(run: Traced, overhead: float, coverage: float) -> dict:
    layers = dict(run.layers, **{"trace.overhead_frac": overhead, "trace.coverage_frac": coverage})
    missing = set(LAYER_UNITS) - set(layers)
    if missing:
        raise BenchError(f"traced run lacks {sorted(missing)}")
    return {name: (float(layers[name]), unit) for name, unit in LAYER_UNITS.items()}


# -- sweep-full --------------------------------------------------------------


#: ``repro dataset verify`` takes well under a second, most of it
#: interpreter start-up; its median over this many runs is reported.
VERIFY_RUNS = 5


class SweepPass(NamedTuple):
    path: str
    sha256: str
    study: Step
    verifies: List[Step]


def _sweep_pass(out: Outcome, work: str, seed: int, log: str, grid: str = "sweep-full") -> SweepPass:
    """One sweep, then ``repro dataset verify`` of its output :data:`VERIFY_RUNS` times."""
    path = os.path.join(work, f"{grid}.v3")
    study = _study(log, seed, grid, path)
    digest = _sha256_file(path)
    if grid == "sweep-full":
        _pinned(out, seed, "sweep-full.v3", digest)
    verifies = [run_step(repro_cmd("dataset", "verify", path), log) for _ in range(VERIFY_RUNS)]
    out.check(all(v.code == 0 for v in verifies), "repro dataset verify")
    return SweepPass(path, digest, study, verifies)


def sweep_full(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    with workspace("sweep-full") as work:
        log = os.path.join(work, "steps.log")
        if trace:
            return _sweep_traced(out, work, log, seed)
        # Set-up: the interpreter and the program's imports, cold and
        # then warm in the page cache.
        setups = [_step_ok(run_step(step_cmd("import"), log), "import").wall_s
                  for _ in range(IMPORT_RUNS)]
        passes = _passes(seconds, lambda: _sweep_pass(out, work, seed, log))
        cells = passes[-1].study.json()["measurements"]
        apps, scale = GRIDS["sweep-full"]
        checked = _step_ok(run_step(step_cmd(
            "check-cells", "--dataset", passes[-1].path, "--seed", str(seed),
            "--apps", apps, "--scale", repr(scale),
        ), log), "check-cells").json()
        out.check(checked["mismatches"] == 0, "sampled cells against the scalar engine",
                  n=checked["checked"], failed=checked["mismatches"])
        # Raw wall times: the calibration kernel does not track the
        # 2-process sweep (see NOTES.md).
        sweep_s = median([p.study.wall_s for p in passes])
        out.metrics = {
            "setup_s": median(setups),
            "peak_rss_mb": max(max(s.peak_rss_mb for s in [p.study, *p.verifies]) for p in passes),
            "primary_ms": sweep_s * 1000,
            "secondary_ms": median([v.wall_s for p in passes for v in p.verifies]) * 1000,
            "throughput_per_s": cells / sweep_s,
        }
        out.reported = {"sweep_cpu_s": (median([p.study.cpu_s for p in passes]), "s")}
        out.details = {"passes": len(passes), "sha256": passes[-1].sha256, "cells": cells}
    return out


def _sweep_traced(out: Outcome, work: str, log: str, seed: int) -> Outcome:
    untraced = _sweep_pass(out, work, seed, log)
    traced_path = os.path.join(work, "traced.v3")
    traced = _study(log, seed, "sweep-full", traced_path, traced=True)
    timings = traced.json()
    out.check(timings["sha256"] == untraced.sha256, "traced sweep output equals untraced")
    # Analysis and serving layers: the full grid's index takes minutes,
    # so they run on the serve-mix's grid.
    small = _sweep_pass(out, work, seed, log, grid="serve-mix")
    run = traced_pipeline(out, work, seed, small.path, (traced, timings), "sweep-full")
    verify_s = median([v.wall_s for v in untraced.verifies])
    out.metrics = _layer_metrics(
        run, traced.wall_s / (untraced.study.wall_s + verify_s) - 1.0, _coverage([run.study])
    )
    return out


# -- analyse-4app ------------------------------------------------------------


def _expected_entries(apps: int, chips: int = 6, inputs: int = 3) -> int:
    """Index entries of a full ``apps`` x ``chips`` x ``inputs`` lattice."""
    return (apps + 1) * (chips + 1) * (inputs + 1) + 1  # every subset, plus baseline


def _analyse_checks(out: Outcome, seed: int, idx: str, table: str) -> None:
    from repro.serve.index import StrategyIndex

    index = StrategyIndex.load(idx)  # verifies the artifact's checksum
    entries = _expected_entries(len(index.meta["apps"]))
    out.check(index.n_entries == entries, f"index has {index.n_entries} entries, expected {entries}")
    out.check(index.portfolios.n_curves == entries - 1, "one portfolio curve per lattice point")
    # B=96 is the exhaustive sweep: every strategy finds the oracle.
    last = re.findall(r"^\S+(?:\s+\d+\.\d%)*\s+(\d+\.\d)%\s*$", table, re.M)
    out.check(len(last) > 3 and set(last) == {"100.0"}, "B=96 recovers the oracle in every row")
    _pinned(out, seed, "analyse-4app.index", _sha256_file(idx))
    _pinned(out, seed, "analyse-4app.search", hashlib.sha256(table.encode()).hexdigest())


def analyse_4app(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    with workspace("analyse-4app") as work:
        log = os.path.join(work, "steps.log")
        data = os.path.join(work, "grid.v3")
        idx = os.path.join(work, "grid.idx")
        if trace:
            return _analyse_traced(out, work, log, seed, data, idx)
        # Wall times in reference-host time (see NOTES.md).
        (setups,), (f_setup,), _ = in_reference_time(
            lambda: [_study(log, seed, "analyse-4app", data) for _ in range(SETUP_RUNS)]
        )

        def one_pass():
            (index, search), (f_index, f_search), probes = in_reference_time(
                lambda: _index(log, data, idx), lambda: _search(log, data, seed)
            )
            _analyse_checks(out, seed, idx, search.stdout)
            return index, search, index.wall_s * f_index, search.wall_s * f_search, median(probes)

        passes = _passes(seconds, one_pass)
        cells = setups[0].json()["measurements"]
        index_s = median([p[2] for p in passes])
        search_s = median([p[3] for p in passes])
        out.metrics = {
            "setup_s": median([s.wall_s for s in setups]) * f_setup,
            "peak_rss_mb": max(max(p[0].peak_rss_mb, p[1].peak_rss_mb) for p in passes),
            "primary_ms": index_s * 1000,
            "secondary_ms": search_s * 1000,
            "throughput_per_s": cells / (index_s + search_s),
        }
        out.reported = {
            "setup_wall_s": (median([s.wall_s for s in setups]), "s"),
            "index_wall_s": (median([p[0].wall_s for p in passes]), "s"),
            "replay_wall_s": (median([p[1].wall_s for p in passes]), "s"),
            "calibration_s": (median([p[4] for p in passes]), "s"),
        }
        out.details = {"passes": len(passes), "cells": cells, "setups_s": [s.wall_s for s in setups]}
    return out


def _analyse_traced(out, work, log, seed, data, idx) -> Outcome:
    study = _study(log, seed, "analyse-4app", data, traced=True)
    index, search = _index(log, data, idx), _search(log, data, seed)
    _analyse_checks(out, seed, idx, search.stdout)
    run = traced_pipeline(out, work, seed, data, (study, study.json()), "analyse-4app")
    out.check(run.index[1]["sha256"] == _sha256_file(idx), "traced index equals untraced")
    out.check(run.search[1]["sha256"] == hashlib.sha256(search.stdout.encode()).hexdigest(),
              "traced search table equals untraced")
    traced_wall = run.index[0].wall_s + run.search[0].wall_s
    out.metrics = _layer_metrics(
        run, traced_wall / (index.wall_s + search.wall_s) - 1.0, _coverage([run.index, run.search])
    )
    return out


# -- serve-mix ---------------------------------------------------------------


def serve_mix(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    with workspace("serve-mix") as work:
        log = os.path.join(work, "steps.log")
        data = os.path.join(work, "grid.v3")
        idx = os.path.join(work, "grid.idx")
        if trace:
            return _serve_traced(out, work, log, seed, data)
        started = time.perf_counter()
        _study(log, seed, "serve-mix", data)
        _index(log, data, idx)
        prepared = time.perf_counter() - started
        # Of 14 s: 1 s per lookup path, 5 s of predicts, 2 s of the mix.
        result = drive(work, idx, seed, ref_seconds=seconds * 2 / 14,
                       path_seconds=seconds / 14, predict_seconds=seconds * 5 / 14)
        out.check(result["exit_code"] == 0, "server shut down cleanly")
        out.check(result["failed"] == 0, "served answers", n=result["attempted"], failed=result["failed"])
        _check_paths(out, result)
        ref = result["reference"]
        if not ref["passed"]:
            out.notes.append("the reference step failed its latency limits")
        lookup_ms = _geomean([p["cpu_ms_per_req"] for p in result["paths"].values()])
        predict_ms = result["predict_cpu_ms_per_req"]
        out.metrics = {
            # Set-up ends when the server is warm: grid priced, index
            # compiled, server listening, traces and plans warmed.
            "setup_s": prepared + result["serve_start_s"] + result["warmup_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            # Server CPU per lookup, the geometric mean over the lookup
            # paths each measured alone, and per predict: no assumed
            # class share or popularity weighs them (see NOTES.md).
            "primary_ms": lookup_ms,
            "secondary_ms": predict_ms,
            # Requests per server CPU-second at the 90/10 lookup/predict split.
            "throughput_per_s": 1000.0 / (0.9 * lookup_ms + 0.1 * predict_ms),
        }
        out.reported = {
            f"{kind}_{q}_ms": (ref[f"{kind}_{q}_ms"], "ms")
            for kind in ("lookup", "predict")
            for q in ("p10", "p50", "p99")
        }
        out.reported.update({
            f"lookup_cpu_ms.{path}": (p["cpu_ms_per_req"], "ms") for path, p in result["paths"].items()
        })
        out.reported["mix_cpu_ms"] = (result["server_cpu_ms_per_req"], "ms")
        out.reported["client_lag_p99_ms"] = (result["lag_p99_ms"], "ms")
        cache = result["cache"]
        if cache is not None:
            out.reported["cache_hit_ratio"] = (cache["hits"] / max(1, cache["hits"] + cache["misses"]), "fraction")
            out.reported["cache_evictions"] = (cache["evictions"], "count")
        out.details = {
            "reference": ref,
            "client_lag_p99_ms": result["lag_p99_ms"],
            "cache": cache,
            "key_space": result["key_space"],
        }
    return out


def _serve_traced(out, work, log, seed, data) -> Outcome:
    study = _study(log, seed, "serve-mix", data, traced=True)
    run = traced_pipeline(out, work, seed, data, (study, study.json()), "serve-mix")
    # The traced serve check ran a server that records its metrics; the
    # untraced reference step runs over the same artifact, recorder off.
    ref_seconds = TRACED_SERVE["serve-mix"][0]
    untraced = drive(work, os.path.join(work, "traced.idx"), seed, ref_seconds)
    out.check(untraced["failed"] == 0, "served answers", n=untraced["attempted"], failed=untraced["failed"])
    traced_ms = run.served["reference"]["lookup_p10_ms"]
    untraced_ms = untraced["reference"]["lookup_p10_ms"]
    out.metrics = _layer_metrics(
        run, traced_ms / untraced_ms - 1.0, _coverage([run.study, run.index, run.search])
    )
    return out


WORKLOADS = {
    "sweep-full": sweep_full,
    "analyse-4app": analyse_4app,
    "serve-mix": serve_mix,
}
