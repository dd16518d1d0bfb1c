"""Phase 1 on the worker pool: traces, their order and their recovery.

``collect_traces(jobs=N)`` must return exactly what the serial path
returns — same keys in the same order, equal traces, the same study
fingerprint — and a trace worker that raises or dies must cost time,
never the sweep.  The two trace-phase speedups it rides on, the
bitmask frontier dedupe (``unique_ids``) and the memoised
``CSRGraph.symmetrized``, are pinned here too.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import get_application
from repro.chips import get_chip
from repro.compiler import enumerate_configs
from repro.faults import FaultPlan
from repro.graphs import CSRGraph, rmat_graph, road_network
from repro.graphs.inputs import StudyInput
from repro.obs import Recorder
from repro.study import StudyConfig, collect_traces, run_study
from repro.study.checkpoint import study_fingerprint
from repro.util import unique_ids

APPS = ("bfs-wl", "cc-wl", "mis-wl", "pr-wl", "sssp-nf")


def _input(name, graph):
    return StudyInput(
        name=name,
        input_class="random",
        description=f"trace-parallel test {name}",
        _builder=lambda: graph,
    )


@pytest.fixture(scope="module")
def config() -> StudyConfig:
    """5 apps x 3 inputs, one unweighted (sssp-nf skipped there)."""
    road = road_network(10, 10, seed=5, name="t-road")
    rmat = rmat_graph(7, edge_factor=6, seed=5, name="t-rmat")
    plain = CSRGraph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)], name="t-plain"
    )
    return StudyConfig(
        apps=[get_application(name) for name in APPS],
        inputs={
            "t-road": _input("t-road", road),
            "t-rmat": _input("t-rmat", rmat),
            "t-plain": _input("t-plain", plain),
        },
        chips=[get_chip("GTX1080"), get_chip("MALI")],
        configs=enumerate_configs()[::32],
    )


def _collect(config, jobs, **kwargs):
    rec = Recorder()
    messages = []
    traces = collect_traces(
        config, progress=messages.append, recorder=rec, jobs=jobs, **kwargs
    )
    return traces, rec, messages


@pytest.fixture(scope="module")
def serial(config):
    return _collect(config, jobs=1)


def _assert_reconciles(config, traces, rec, messages):
    counters = rec.counters
    assert counters["study.traces.collected"] == len(traces)
    assert counters["study.traces.collected"] + counters[
        "study.traces.skipped"
    ] == len(config.apps) * len(config.inputs)
    spans = [sp for sp in rec.spans if sp.name == "study.trace"]
    assert sorted((sp.attrs["app"], sp.attrs["input"]) for sp in spans) == (
        sorted(traces)
    )
    # One progress message per pair of the factorial, traced or skipped.
    assert len(messages) == len(config.apps) * len(config.inputs)


class TestParallelTraces:
    def test_jobs2_equals_jobs1(self, config, serial):
        traces, rec, messages = _collect(config, jobs=2)
        expected, expected_rec, _ = serial
        assert list(traces) == list(expected)
        assert traces == expected
        assert study_fingerprint(config, "batch", traces) == study_fingerprint(
            config, "batch", expected
        )
        assert rec.counters == expected_rec.counters
        _assert_reconciles(config, traces, rec, messages)

    def test_serial_reconciles(self, config, serial):
        traces, rec, messages = serial
        assert rec.counters["study.traces.skipped"] == 1
        assert ("sssp-nf", "t-plain") not in traces
        _assert_reconciles(config, traces, rec, messages)

    def test_serial_order_is_input_then_app(self, config, serial):
        traces, _, _ = serial
        assert list(traces) == [
            (app.name, inp.name)
            for inp in config.inputs.values()
            for app in config.apps
            if (app.name, inp.name) != ("sssp-nf", "t-plain")
        ]

    def test_more_jobs_than_pairs(self, config, serial):
        traces, _, _ = _collect(config, jobs=64)
        assert traces == serial[0]
        assert list(traces) == list(serial[0])

    def test_non_positive_jobs_rejected(self, config):
        with pytest.raises(ValueError):
            collect_traces(config, jobs=0)


class TestTraceWorkerFaults:
    @pytest.fixture(scope="class")
    def baseline(self, config, tmp_path_factory):
        path = tmp_path_factory.mktemp("baseline") / "serial.v3"
        run_study(config, jobs=1).save(str(path))
        return path.read_bytes()

    def test_jobs2_dataset_byte_identical(self, config, baseline, tmp_path):
        path = tmp_path / "parallel.v3"
        run_study(config, jobs=2).save(str(path))
        assert path.read_bytes() == baseline

    def test_killed_trace_worker_falls_back(self, config, baseline, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("crash", "trace-cc-wl-t-rmat")
        rec = Recorder()
        path = tmp_path / "crashed.v3"
        run_study(config, jobs=2, faults=plan, recorder=rec).save(str(path))
        assert plan.armed() == []  # the crash fired
        assert path.read_bytes() == baseline
        fallback = rec.counters["study.traces.fallback_inprocess"]
        assert fallback >= 1
        assert rec.counters["study.traces.collected"] == 14
        spans = [sp for sp in rec.spans if sp.name == "study.trace"]
        assert len(spans) == 14

    def test_raising_trace_worker_falls_back(self, config, serial, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("error", "trace-pr-wl-t-road")
        traces, rec, messages = _collect(config, jobs=2, faults=plan)
        assert plan.armed() == []
        assert list(traces) == list(serial[0])
        assert traces == serial[0]
        # Only the failed pair is re-traced; the pool kept working.
        assert rec.counters["study.traces.fallback_inprocess"] == 1
        assert any(
            m.startswith("tracing pr-wl on t-road in-process") for m in messages
        )
        _assert_reconciles(config, traces, rec, messages)


ids_and_n = st.integers(min_value=1, max_value=200).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=300),
        st.just(n),
    )
)


class TestUniqueIds:
    @settings(max_examples=200, deadline=None)
    @given(ids_and_n)
    @example(([], 5))  # empty frontier
    @example(([3, 3, 3, 3], 4))  # all duplicates, of the last id
    @example(([9, 0, 9], 10))  # both ends of the id range
    def test_matches_np_unique(self, case):
        ids, n = case
        arr = np.asarray(ids, dtype=np.int64)
        got = unique_ids(arr, n)
        want = np.unique(arr)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


class TestSymmetrizedMemo:
    def _graph(self):
        return rmat_graph(6, edge_factor=4, seed=11, name="m-rmat")

    def test_same_object_read_only_and_equal_to_fresh_build(self):
        graph = self._graph()
        sym = graph.symmetrized()
        assert graph.symmetrized() is sym
        assert not sym.row_ptr.flags.writeable
        assert not sym.col_idx.flags.writeable
        fresh = CSRGraph(
            graph.row_ptr, graph.col_idx, graph.weights, name=graph.name
        ).symmetrized()
        assert fresh is not sym
        assert sym == fresh
        assert np.array_equal(sym.row_ptr, fresh.row_ptr)
        assert np.array_equal(sym.col_idx, fresh.col_idx)

    def test_memo_changes_neither_equality_nor_pickle(self):
        graph, twin = self._graph(), self._graph()
        before = pickle.dumps(graph)
        graph.symmetrized()
        assert pickle.dumps(graph) == before
        assert graph == twin
        clone = pickle.loads(before)
        assert clone == graph
        assert clone.symmetrized() == graph.symmetrized()
