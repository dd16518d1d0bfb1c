"""Integration tests for the study's result path and its checkpoints.

Covers ``run_study(store="v3")`` (a columnar copy of the same result),
byte-identical ``.v3`` outputs across job counts and conversion, the
shared trace cache and its observability counters, and resuming — and
``repro doctor`` on — checkpoints left by older sweeps that spilled
``shard-*.v3`` and ``chunk-*.v3`` files.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys

import pytest

from repro.apps import get_application
from repro.chips import get_chip
from repro.compiler import enumerate_configs
from repro.graphs import rmat_graph, road_network
from repro.graphs.inputs import StudyInput
from repro.obs import Recorder, RunReport
from repro.store import ColumnarDataset, ColumnWriter, load_trace_cache
from repro.study import StudyConfig, collect_traces, run_study
from repro.study.checkpoint import StudyCheckpoint, read_shard, study_fingerprint
from repro.study.dataset import TestCase
from repro.study.doctor import diagnose_checkpoint


@pytest.fixture(scope="module")
def tiny_config() -> StudyConfig:
    """2 apps x 2 inputs x 2 chips x 12 configurations."""
    road = road_network(12, 12, seed=11, name="s-road")
    rmat = rmat_graph(7, edge_factor=8, seed=11, name="s-rmat")
    return StudyConfig(
        apps=[get_application("bfs-wl"), get_application("sssp-nf")],
        inputs={
            "s-road": StudyInput(
                name="s-road",
                input_class="road",
                description="store test road",
                _builder=lambda: road,
            ),
            "s-rmat": StudyInput(
                name="s-rmat",
                input_class="social",
                description="store test rmat",
                _builder=lambda: rmat,
            ),
        },
        chips=[get_chip("GTX1080"), get_chip("MALI")],
        configs=enumerate_configs()[::8],
    )


@pytest.fixture(scope="module")
def serial_dataset(tiny_config):
    return run_study(tiny_config, jobs=1, engine="batch")


def _spill_checkpoint(ckpt: str, n_shards: int) -> list:
    """Rewrite ``ckpt`` the way the removed columnar spill left it.

    The first ``n_shards`` JSON shards become one-cell ``shard-*.v3``
    files, and a worker chunk never renamed into a shard is added.
    Returns the grid tasks whose cells now live only in ``.v3`` files.
    """
    with open(os.path.join(ckpt, StudyCheckpoint.MANIFEST)) as f:
        manifest = json.load(f)
    names = sorted(n for n in os.listdir(ckpt) if n.startswith("shard-"))
    tasks = []
    for name in names[:n_shards]:
        task = tuple(int(part) for part in name[6:-5].split("-"))
        rows, reason = read_shard(os.path.join(ckpt, name), task)
        assert reason is None
        writer = ColumnWriter()
        for app, inp, times in rows:
            writer.add(
                TestCase(app, inp, manifest["chips"][task[0]]),
                manifest["configs"][task[1]],
                times,
            )
        writer.commit(os.path.join(ckpt, name[:-5] + ".v3"))
        os.unlink(os.path.join(ckpt, name))
        tasks.append(task)
    writer.commit(os.path.join(ckpt, "chunk-0001-0000.v3"))
    return tasks


def _legacy_files(directory: str) -> list:
    return sorted(n for n in os.listdir(directory) if n.endswith(".v3"))


class TestStoreSelection:
    def test_serial_v3_identical_to_rows(self, tiny_config, serial_dataset):
        ds = run_study(tiny_config, store="v3")
        assert isinstance(ds, ColumnarDataset)
        assert ds == serial_dataset
        assert ds.tests == serial_dataset.tests
        assert [c.key() for c in ds.configs] == [
            c.key() for c in serial_dataset.configs
        ]

    def test_parallel_v3_identical_to_serial(
        self, tiny_config, serial_dataset
    ):
        ds = run_study(tiny_config, jobs=2, store="v3")
        assert isinstance(ds, ColumnarDataset)
        assert ds == serial_dataset

    def test_unknown_store_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="store"):
            run_study(tiny_config, store="parquet")
        with pytest.raises(ValueError, match="store"):
            run_study(tiny_config, store="rows")


def _repro(*args: str, cwd: str) -> None:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def test_v3_outputs_byte_identical_across_jobs_and_conversion(tmp_path):
    """``repro study X.v3`` writes the same bytes with one worker, with
    two, and as ``repro dataset convert`` of a one-worker JSON run."""
    common = ("--scale", "0.05", "--repetitions", "1")
    _repro("study", "jobs2.v3", "--jobs", "2", *common, cwd=tmp_path)
    _repro("study", "jobs1.v3", "--jobs", "1", *common, cwd=tmp_path)
    _repro("study", "jobs1.json", "--jobs", "1", *common, cwd=tmp_path)
    _repro("dataset", "convert", "jobs1.json", "converted.v3", cwd=tmp_path)
    for name in ("jobs1.v3", "converted.v3"):
        assert filecmp.cmp(
            tmp_path / "jobs2.v3", tmp_path / name, shallow=False
        ), name


class TestColumnarCheckpoint:
    def test_checkpoint_holds_json_shards(self, tiny_config, serial_dataset,
                                          tmp_path):
        ckpt = str(tmp_path / "ckpt")
        ds = run_study(tiny_config, jobs=2, checkpoint=ckpt, store="v3")
        assert ds == serial_dataset
        names = sorted(os.listdir(ckpt))
        shards = [n for n in names if n.startswith("shard-")]
        assert len(shards) == 2 * 12  # full grid
        assert all(n.endswith(".json") for n in shards)
        assert not _legacy_files(ckpt)

    def test_resume_from_v3_shards(self, tiny_config, serial_dataset,
                                   tmp_path):
        """A checkpoint left by the spill backend resumes: its ``.v3``
        cells are re-priced, the JSON ones are reused."""
        ckpt = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt)
        repriced = _spill_checkpoint(ckpt, 3)
        rec = Recorder(clock=lambda: 0.0)
        resumed = run_study(
            tiny_config, jobs=2, checkpoint=ckpt, resume=True, recorder=rec
        )
        assert resumed == serial_dataset
        assert rec.counter_value("study.shards.priced") == len(repriced)
        assert rec.counter_value("study.shards.skipped_checkpoint") == (
            2 * 12 - len(repriced)
        )
        for task in repriced:
            name = f"shard-{task[0]:04d}-{task[1]:04d}.json"
            assert os.path.exists(os.path.join(ckpt, name))

    def test_corrupt_v3_shard_repriced_on_resume(
        self, tiny_config, serial_dataset, tmp_path
    ):
        ckpt = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt)
        _spill_checkpoint(ckpt, 1)
        victim = os.path.join(ckpt, _legacy_files(ckpt)[-1])
        data = bytearray(open(victim, "rb").read())
        data[-3] ^= 0xFF
        open(victim, "wb").write(bytes(data))
        resumed = run_study(tiny_config, checkpoint=ckpt, resume=True)
        assert resumed == serial_dataset

    def test_mixed_store_resume(self, tiny_config, serial_dataset, tmp_path):
        """JSON shards beside spill-era ``.v3`` files feed a serial
        resume whose result equals an uninterrupted run's."""
        ckpt = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt)
        _spill_checkpoint(ckpt, 2)
        for name in sorted(
            n for n in os.listdir(ckpt) if n.endswith(".json")
            and n.startswith("shard-")
        )[:3]:
            os.unlink(os.path.join(ckpt, name))
        resumed = run_study(
            tiny_config, checkpoint=ckpt, resume=True, store="v3"
        )
        assert isinstance(resumed, ColumnarDataset)
        assert resumed == serial_dataset


class TestTraceCache:
    def test_cache_written_and_loadable(self, tiny_config, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt)
        fingerprint = study_fingerprint(
            tiny_config, "batch", collect_traces(tiny_config)
        )
        caches = [n for n in os.listdir(ckpt) if n.startswith("traces-")]
        assert caches == [f"traces-{fingerprint}.bin"]
        traces = load_trace_cache(
            os.path.join(ckpt, caches[0]), fingerprint=fingerprint
        )
        assert traces  # one per (app, input)

    def test_workers_count_shared_traces(self, tiny_config, tmp_path):
        rec = Recorder(clock=lambda: 0.0)
        run_study(
            tiny_config,
            jobs=2,
            checkpoint=str(tmp_path / "ckpt"),
            recorder=rec,
        )
        report = RunReport.from_recorder(rec)
        assert report.total_counter("study.traces.shared") > 0
        assert report.total_counter("study.traces.rebuilt") == 0

    def test_workers_count_rebuilt_without_checkpoint(self, tiny_config):
        rec = Recorder(clock=lambda: 0.0)
        run_study(tiny_config, jobs=2, recorder=rec)
        report = RunReport.from_recorder(rec)
        assert report.total_counter("study.traces.rebuilt") > 0
        assert report.total_counter("study.traces.shared") == 0


class TestDoctorOnColumnarCheckpoints:
    def test_healthy_v3_checkpoint(self, tiny_config, tmp_path):
        """Spill-era ``.v3`` files are warnings, not errors: the
        checkpoint stays usable and the plan re-prices their cells."""
        ckpt = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt)
        repriced = _spill_checkpoint(ckpt, 2)
        diag = diagnose_checkpoint(ckpt)
        assert diag.ok
        legacy = [f for f in diag.findings if f.code == "shard-legacy"]
        assert len(legacy) == len(_legacy_files(ckpt)) == len(repriced) + 1
        assert all(f.severity == "warning" for f in legacy)
        assert any(
            f"re-price {len(repriced)} shard(s)" in step
            for step in diag.repair_plan
        )

    def test_corrupt_v3_shard_reported(self, tiny_config, tmp_path):
        """A damaged spill-era shard is reported like any other ``.v3``
        file: never parsed, so a warning whose cell ``--resume``
        re-prices, not a corrupt-shard error."""
        ckpt = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt)
        _spill_checkpoint(ckpt, 1)
        victim = [n for n in _legacy_files(ckpt) if n.startswith("shard-")]
        path = os.path.join(ckpt, victim[0])
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0xFF
        open(path, "wb").write(bytes(data))
        diag = diagnose_checkpoint(ckpt)
        assert diag.ok
        assert not any(f.code == "shard-corrupt" for f in diag.findings)
        assert any(
            f.code == "shard-legacy" and f.message.startswith(victim[0])
            for f in diag.findings
        )
        assert any("re-price 1 shard(s)" in s for s in diag.repair_plan)

    def test_trace_cache_not_misread_as_shard(self, tiny_config, tmp_path):
        """traces-*.bin in the directory never confuses the doctor."""
        ckpt = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt)
        assert any(
            n.startswith("traces-") for n in os.listdir(ckpt)
        )
        diag = diagnose_checkpoint(ckpt)
        assert diag.ok


class TestCheckpointSpillHygiene:
    def test_fresh_open_clears_stale_spill_files(self, tiny_config,
                                                 tmp_path):
        ckpt_dir = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt_dir)
        _spill_checkpoint(ckpt_dir, 2)
        assert _legacy_files(ckpt_dir)
        fingerprint = study_fingerprint(
            tiny_config, "batch", collect_traces(tiny_config)
        )
        ckpt = StudyCheckpoint(ckpt_dir)
        ckpt.open(fingerprint, n_chips=2, n_configs=12, resume=False)
        assert not _legacy_files(ckpt_dir)

    def test_clear_removes_stale_spill_files(self, tiny_config, tmp_path):
        ckpt_dir = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt_dir)
        _spill_checkpoint(ckpt_dir, 2)
        run_study(tiny_config, checkpoint=ckpt_dir, resume=True)
        StudyCheckpoint(ckpt_dir).clear()
        assert not os.path.exists(ckpt_dir)
