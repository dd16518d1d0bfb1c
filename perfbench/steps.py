"""Benchmark steps, each run in a fresh interpreter by the workloads.

Untraced steps make the same public calls as the matching CLI
subcommand; the workload seed goes in where the CLI has no option for
it (``repro study`` has no graph-seed option, so ``study`` passes it to
:class:`~repro.study.runner.StudyConfig`).  ``repro index`` and
``repro search`` need no seed and run as the CLI itself.

Traced steps (``traced-*``) make the same calls with a stopwatch around
each call into a module's public functions, from outside the program.
Where one public call makes another (``build_index`` calls
``build_strategies``), the inner call is timed by wrapping the name the
outer module looks up, and the outer call is reported as self time.

Every step prints one JSON object as its last line of standard output.

Run:  python perfbench/steps.py study --out OUT.v3 --seed 7
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import random
import sys
import time

#: Seconds from the parent's spawn (``--t0``) until ``import repro``
#: returned; 0 when run by hand.
IMPORT_S = 0.0


class Spans:
    """Nested stopwatch: total and self time per span name."""

    def __init__(self) -> None:
        self.total = collections.defaultdict(float)
        self.self = collections.defaultdict(float)
        self.count = collections.Counter()
        self._children = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            inner = self._children.pop()
            self.total[name] += duration
            self.self[name] += duration - inner
            self.count[name] += 1
            if self._children:
                self._children[-1] += duration

    def wrap(self, fn, name):
        """``fn`` with every call timed as span ``name`` (a str or callable)."""

        def timed(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self(label):
                return fn(*args, **kwargs)

        return timed

    def report(self, **extra) -> dict:
        return {
            "import_s": IMPORT_S,
            "self": dict(self.self),
            "total": dict(self.total),
            "count": dict(self.count),
            **extra,
        }


def _apps(names):
    from repro.apps.registry import get_application

    return [get_application(n) for n in names.split(",")] if names else None


def _progress(message: str) -> None:
    print(f"[study] {message}", file=sys.stderr)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- untraced steps ----------------------------------------------------------


def step_import(args) -> dict:
    return {"import_s": IMPORT_S}


def step_study(args) -> dict:
    """``repro study OUT.v3 --jobs N`` with the workload's graph seed."""
    from repro.study.checkpoint import StudyCheckpoint
    from repro.study.runner import StudyConfig, run_study

    ckpt = StudyCheckpoint(args.out + ".ckpt")
    dataset = run_study(
        StudyConfig(apps=_apps(args.apps), seed=args.seed, scale=args.scale),
        progress=_progress,
        jobs=args.jobs,
        checkpoint=ckpt,
        store="v3",
    )
    dataset.save(args.out)
    if ckpt.quarantined_tasks:
        raise SystemExit(f"{len(ckpt.quarantined_tasks)} shards quarantined")
    ckpt.clear()
    return {"measurements": dataset.n_measurements, "tests": len(dataset)}


def step_check_cells(args) -> dict:
    """Re-price a seeded sample of cells with the scalar engine.

    The batch and scalar engines produce identical datasets, so every
    sampled cell of the sweep's output must match the reference
    engine's repetitions exactly.
    """
    from repro.chips import get_chip
    from repro.compiler.options import enumerate_configs
    from repro.study.dataset import PerfDataset, TestCase
    from repro.study.runner import StudyConfig, run_study

    dataset = PerfDataset.load(args.dataset)
    rng = random.Random(f"cells-{args.seed}")
    full = StudyConfig(apps=_apps(args.apps), seed=args.seed, scale=args.scale)
    apps = {app.name: app for app in full.apps}
    pairs = sorted({(t.app, t.graph) for t in dataset.tests})
    configs = enumerate_configs()
    checked = mismatches = 0
    for app_name, graph in rng.sample(pairs, min(2, len(pairs))):
        chips = rng.sample(sorted(dataset.chips), 2)
        cfgs = rng.sample(configs, 4)
        sub = StudyConfig(
            apps=[apps[app_name]],
            inputs={graph: full.inputs[graph]},
            chips=[get_chip(c) for c in chips],
            configs=cfgs,
        )
        reference = run_study(sub, engine="scalar")
        for chip in chips:
            test = TestCase(app=app_name, graph=graph, chip=chip)
            for cfg in cfgs:
                checked += 1
                mismatches += reference.times(test, cfg) != dataset.times(test, cfg)
    return {"checked": checked, "mismatches": mismatches}


# -- traced steps ------------------------------------------------------------


def step_traced_study(args) -> dict:
    """The sweep, layer by layer: graphs, traces, plans, pricing, store."""
    from repro.compiler import compile_cached, plan_cache
    from repro.study.checkpoint import StudyCheckpoint
    from repro.study.dataset import PerfDataset
    from repro.study.runner import StudyConfig, collect_traces, run_study

    spans = Spans()
    config = StudyConfig(apps=_apps(args.apps), seed=args.seed, scale=args.scale)
    with spans("graphs.build"):
        for inp in config.inputs.values():
            inp.graph
    marks = []
    with spans("runtime.trace"):
        traces = collect_traces(config, progress=lambda m: marks.append(time.perf_counter()))
    marks.append(time.perf_counter())
    pair_s = [b - a for a, b in zip(marks, marks[1:])]
    with spans("compiler.compile"):
        plan_cache.clear()
        for app in config.apps:
            program = app.program()
            for chip in config.chips:
                for cfg in config.configs:
                    compile_cached(program, chip, cfg)
    ckpt = StudyCheckpoint(args.out + ".ckpt")
    cpu0 = os.times()
    with spans("study.price"):
        dataset = run_study(config, traces=traces, jobs=args.jobs, store="v3", checkpoint=ckpt)
    cpu1 = os.times()
    with spans("store.write"):
        dataset.save(args.out)
        ckpt.clear()
    with spans("store.load"):
        loaded = PerfDataset.load(args.out)
    with spans("store.verify"):
        loaded.verify()
    cpu = sum(cpu1[:4]) - sum(cpu0[:4])
    return spans.report(
        runtime_launches=sum(t.n_launches for t in traces.values()),
        runtime_trace_max_pair_s=max(pair_s),
        study_cells=dataset.n_measurements,
        study_cpu_util=cpu / (spans.total["study.price"] * args.jobs),
        store_bytes=os.path.getsize(args.out),
        sha256=_sha256(args.out),
    )


def step_traced_index(args) -> dict:
    """``repro index --portfolios``, layer by layer, plus in-process serving."""
    import repro.serve.index as index_mod
    from repro.core.algorithm1 import Analysis
    from repro.obs import Recorder
    from repro.serve.index import StrategyIndex, build_index
    from repro.serve.predict import Predictor
    from repro.study.audit import DEFAULT_COVERAGE_FLOOR, audit_dataset, require_coverage
    from repro.study.dataset import PerfDataset

    from mix import Mix

    spans = Spans()
    with spans("store.load"):
        dataset = PerfDataset.load(args.dataset)
    with spans("study.audit"):
        audit = audit_dataset(dataset)
        require_coverage(audit.coverage, DEFAULT_COVERAGE_FLOOR)
    rec = Recorder()
    analysis = Analysis(audit.dataset, recorder=rec)
    levels = []

    def level_span(dims):
        # build_strategies specialises the global level first: that
        # call runs the Welch filter over every mirror pair.
        levels.append(dims)
        return "core.alg1_global" if len(levels) == 1 else "core.alg1_levels"

    analysis.specialise = spans.wrap(analysis.specialise, level_span)
    saved = index_mod.build_strategies, index_mod.build_portfolios
    index_mod.build_strategies = spans.wrap(saved[0], "core.strategies")
    index_mod.build_portfolios = spans.wrap(saved[1], "core.portfolio")
    try:
        with spans("serve.index_compile"):
            index = build_index(audit.dataset, audit=audit, analysis=analysis, portfolios=True)
    finally:
        index_mod.build_strategies, index_mod.build_portfolios = saved
    with spans("serve.index_save"):
        index.save(args.out)
    with spans("serve.index_load"):
        StrategyIndex.load(args.out)

    mix = Mix(index.meta, args.seed)
    keys = [k for keys in mix.space.values() for k in keys]
    strategy = [k.coords for k in keys if not k.is_portfolio]
    portfolio = [k for k in keys if k.is_portfolio]
    with spans("serve.answer"):
        for chip, app, inp in strategy:
            index.lookup(chip=chip, app=app, input=inp)
    with spans("serve.portfolio"):
        for k in portfolio:
            chip, app, inp = k.coords
            index.lookup_portfolio(chip=chip, app=app, input=inp, k=k.k, target=k.goal)
    predictor = Predictor()
    points = []
    for body in mix.bodies:
        batch = []
        for q in json.loads(body)["queries"]:
            cfg = q.get("config") or index.lookup(chip=q["chip"], app=q["app"], input=q["input"]).config
            batch.append((q["chip"], q["app"], q["input"], Predictor.parse_config(cfg)))
        points.append(batch)
    with spans("perfmodel.warm"):
        for batch in points:
            predictor.price_many(batch)
    with spans("perfmodel.predict"):
        for batch in points:
            predictor.price_many(batch)

    try:
        from repro.core.stats.tdist import t_ppf

        info = t_ppf.cache_info()
        tppf = info.hits / max(1, info.hits + info.misses)
    except ImportError:
        tppf = None
    return spans.report(
        core_alg1_pairs=rec.counter_value("analysis.filter.significant")
        + rec.counter_value("analysis.filter.insignificant"),
        core_tppf_hit_ratio=tppf,
        core_portfolio_curves=index.portfolios.n_curves,
        serve_index_bytes=os.path.getsize(args.out),
        serve_answer_us=spans.total["serve.answer"] * 1e6 / len(strategy),
        serve_portfolio_us=spans.total["serve.portfolio"] * 1e6 / len(portfolio),
        perfmodel_predict_ms=spans.total["perfmodel.predict"] * 1e3 / len(points),
        sha256=_sha256(args.out),
    )


def step_traced_search(args) -> dict:
    """``repro search DATASET --trials N --seed S``, replays timed per strategy."""
    import repro.core.search_eval as search_eval
    from repro.core.reporting import render_table
    from repro.core.search import SEARCH_STRATEGIES
    from repro.experiments import budget_curve
    from repro.study.audit import DEFAULT_COVERAGE_FLOOR, audit_dataset, require_coverage
    from repro.study.dataset import PerfDataset

    spans = Spans()
    with spans("store.load"):
        dataset = PerfDataset.load(args.dataset)
    with spans("study.audit"):
        audit = audit_dataset(dataset)
        require_coverage(audit.coverage, DEFAULT_COVERAGE_FLOOR)
    budgets = search_eval.DEFAULT_BUDGETS
    names = sorted(SEARCH_STRATEGIES)
    saved = search_eval.replay_search
    search_eval.replay_search = spans.wrap(
        saved, lambda ds, test, strategy, budget, **kw: f"core.replay.{strategy}"
    )
    try:
        with spans("core.search"):
            sections = [
                budget_curve.run(
                    audit.dataset, strategies=names, budgets=budgets,
                    trials=args.trials, seed=args.seed,
                )
            ]
            for name in names:
                per_part = search_eval.partition_fractions(
                    audit.dataset, name, budgets=budgets, dims=("chip",),
                    trials=args.trials, seed=args.seed,
                )
                rows = [
                    ["/".join(key)] + [f"{curve[b]:.1%}" for b in budgets]
                    for key, curve in per_part.items()
                ]
                sections.append(
                    render_table(
                        ["chip"] + [f"B={b}" for b in budgets],
                        rows,
                        title=f"Fraction of oracle by chip partition — strategy: {name}",
                    )
                )
    finally:
        search_eval.replay_search = saved
    output = "\n\n".join(sections) + "\n"
    with open(args.out, "w") as fh:
        fh.write(output)
    return spans.report(sha256=hashlib.sha256(output.encode()).hexdigest())


STEPS = {
    "import": step_import,
    "study": step_study,
    "check-cells": step_check_cells,
    "traced-study": step_traced_study,
    "traced-index": step_traced_index,
    "traced-search": step_traced_search,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("step", choices=sorted(STEPS))
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--apps", default="")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--dataset")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    print(json.dumps(STEPS[args.step](args), sort_keys=True))
    return 0


if __name__ == "__main__":
    _t0 = sys.argv[sys.argv.index("--t0") + 1] if "--t0" in sys.argv else None
    import repro  # noqa: F401  (start-up ends when ``import repro`` returns)

    IMPORT_S = time.time() - float(_t0) if _t0 else 0.0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    raise SystemExit(main())
