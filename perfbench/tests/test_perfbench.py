"""Fast tests of the pipeline benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import common  # noqa: E402
import loadgen  # noqa: E402
import mix  # noqa: E402
import workloads  # noqa: E402

#: One app at a twentieth of the default input size: seconds, not minutes.
TINY_GRIDS = {
    "sweep-full": ("bfs-wl", 0.05),
    "analyse-4app": ("bfs-wl,sssp-nf", 0.05),
    "serve-mix": ("bfs-wl", 0.05),
}


@pytest.fixture(scope="module")
def index():
    from repro.serve.index import build_index
    from repro.study.dataset import PerfDataset

    dataset = PerfDataset.load(os.path.join(ROOT, "tests", "goldens", "mini-dataset.json.gz"))
    return build_index(dataset, portfolios=True)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "GRIDS", TINY_GRIDS)
    monkeypatch.setattr(workloads, "TRACED_SERVE", {w: (1.0, 1.5) for w in TINY_GRIDS})


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == workloads.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert bench["paths"] == ["perfbench"]


def test_tail_percentile_needs_ten_samples_beyond():
    assert common.tail_percentile(50) == 100.0
    assert common.tail_percentile(400) == pytest.approx(97.5)
    assert common.tail_percentile(9000) == 99.0
    assert common.percentile(list(range(1, 101)), 99) == 99


def test_mix_is_seeded_and_one_in_ten_is_a_predict(index):
    def draws(seed):
        m = mix.Mix(index.meta, seed)
        return [d if isinstance(d, bytes) else d.target for d in (m.next() for _ in range(1000))]

    assert draws(3) == draws(3) != draws(4)
    assert sum(isinstance(d, bytes) for d in draws(3)) == 100
    space = mix.key_space(index.meta)
    assert len(space["unknown"]) + len(space["portfolio_k"]) == mix.CACHED_KEYS


def test_path_requests_repeat_the_miss_keys_on_hit(index):
    m = mix.Mix(index.meta, 3)
    assert {k.cls for k in m.path_requests("exact", 50)} == {"exact"}
    for cls in mix.CACHED_CLASSES:
        miss = m.path_requests(f"{cls}.miss", 10_000)
        assert len(miss) == len({k.target for k in miss}) <= mix.PATH_KEYS
        assert m.path_requests(f"{cls}.hit", 10_000) == miss
    fill = m.cache_fill()
    assert sorted(k.target for k in fill) == sorted(
        k.target for cls in mix.CACHED_CLASSES for k in m.space[cls])


async def _fake_server(expected, wrong_lookup: int, failing_predict: int):
    """Answers like the server, except one wrong lookup body and one 500 predict."""
    seen = {"lookup": 0, "predict": 0}

    async def handle(reader, writer):
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, ConnectionError):
                break
            line = head.split(b"\r\n", 1)[0].decode()
            method, target = line.split(" ")[:2]
            status = 200
            if method == "POST":
                length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
                await reader.readexactly(length)
                seen["predict"] += 1
                body = b'{"errors": 0, "results": []}'
                if seen["predict"] == failing_predict:
                    status = 500
            else:
                seen["lookup"] += 1
                body = expected[target]
                if seen["lookup"] == wrong_lookup:
                    body = body.replace(b'"', b"'", 1)
            writer.write(
                f"HTTP/1.1 {status} X\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body
            )
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_wrong_or_failed_responses_count_as_failed(index):
    m = mix.Mix(index.meta, 5)
    expected = {k.target: mix.expected_body(index, k) for keys in m.space.values() for k in keys}

    async def scenario():
        server = await _fake_server(expected, wrong_lookup=7, failing_predict=2)
        port = server.sockets[0].getsockname()[1]
        gen = loadgen.Generator("127.0.0.1", port, m, expected)
        await gen.connect()
        try:
            step = await gen.run_step(400, [m.next() for _ in range(200)])
        finally:
            await gen.close()
            server.close()
        return step

    step = asyncio.run(scenario())
    assert step["sent"] == step["answered"] == 200
    assert step["failed"] == 2
    assert not step["passed"]


def test_wrong_predict_body_is_a_mismatch(index):
    body = mix.predict_bodies(index.meta, 1)[0]
    assert loadgen._check_predicts(index, {body: b'{"errors": 0, "results": []}'}) == 1


@pytest.mark.parametrize("workload", list(TINY_GRIDS))
def test_smoke_untraced(tiny, workload):
    out = workloads.WORKLOADS[workload](1, 1.0, False)
    assert out.failed == 0, out.notes
    assert out.attempted > 0
    assert set(out.metrics) == set(workloads.END_TO_END_UNITS)
    assert all(v > 0 for v in out.metrics.values())


def test_smoke_traced(tiny):
    out = workloads.WORKLOADS["analyse-4app"](1, 1.0, True)
    assert out.failed == 0, out.notes
    assert list(out.metrics) == list(workloads.LAYER_UNITS)
    assert out.metrics["trace.coverage_frac"][0] > 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
