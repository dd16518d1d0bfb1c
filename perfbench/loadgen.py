"""Open-loop load generator for the serve-mix workload.

One asyncio process, two keep-alive HTTP/1.1 connections ("lanes"):
lookups on one, ``POST /v1/predict`` on the other.  Requests are
written on a fixed schedule whether or not earlier answers have come
back (HTTP pipelining), so a stalled server builds a queue instead of
slowing the client down.  Every request is timed from the moment it
was due, and the generator's own lateness is reported beside the
latencies.

Steps, in order:

* warm-up: every pre-serialized key and every predict body once, so
  traces are built and plans compiled; the response cache stays empty;
* with ``--path-seconds``, each lookup path of :data:`mix.LOOKUP_PATHS`
  alone at 450 req/s, every key alike, and with ``--predict-seconds``
  predicts alone at 100 req/s, each timed with the server's CPU: the
  CPU cost of each path, free of the mix's assumed class shares;
* every cached key once, least popular first, which leaves the cache
  full of the most popular keys;
* the reference step: the mix at 500 req/s for ``--ref-seconds``;
* with ``--ladder-seconds``, offered rates climb a ladder: 1000 req/s,
  then steps 10 % apart until the first step that fails or
  ``--budget-seconds`` runs out.  A step passes when lookup p99 <=
  10 ms, predict p99 <= 50 ms, no request fails and the backlog at the
  step's end stays within what the latency limit allows.

Every lookup body is compared byte-for-byte with the in-process answer
from the same index artifact; a fixed sample of predict bodies is
compared with in-process :class:`~repro.serve.predict.Predictor`
pricing after the traffic.  Any mismatch, non-200 status or missing
answer counts as a failed request.

Run:  python perfbench/loadgen.py --port P --index INDEX --seed S \
          --server-pid PID --path-seconds 1 --predict-seconds 3 \
          --ref-seconds 4 --out OUT
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import gc
import json
import os
import selectors
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import cpu_seconds, median, percentile, process_tree, tail  # noqa: E402
from mix import LOOKUP_PATHS, PREDICT_SHARE, Lookup, Mix, expected_body  # noqa: E402

REFERENCE_RPS = 500
#: Rate of lookups alone: their share of the reference rate.
LOOKUP_RPS = REFERENCE_RPS * (1 - PREDICT_SHARE)
#: Rate of predicts alone: twice their share of the reference rate,
#: for more predicts per second of the run, and still far apart
#: enough (10 ms) that the server prices them one at a time.
PREDICT_RPS = 2 * REFERENCE_RPS * PREDICT_SHARE
#: Windows the predicts-alone time is cut into; the server's CPU per
#: predict is the median over them, so one window the host stalled in
#: does not move it.
PREDICT_WINDOWS = 5
LADDER_START_RPS = 1000
LADDER_GROWTH = 1.10
LOOKUP_LIMIT_MS = 10.0
PREDICT_LIMIT_MS = 50.0
DRAIN_TIMEOUT_S = 10.0
#: Predict bodies checked against in-process pricing after the traffic.
PREDICT_SAMPLE = 24


def ladder(n: int):
    """The first ``n`` offered rates after the reference step."""
    rate = float(LADDER_START_RPS)
    for _ in range(n):
        yield int(round(rate))
        rate *= LADDER_GROWTH


def _wire(req):
    """``(lane, request bytes, key)`` of one mix request."""
    if isinstance(req, Lookup):
        return "lookup", f"GET {req.target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode(), req
    head = (
        f"POST /v1/predict HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(req)}\r\n\r\n"
    )
    return "predict", head.encode() + req, req


class Lane:
    """One pipelined keep-alive connection and its in-flight FIFO."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending = collections.deque()
        self.idle = asyncio.Event()
        self.idle.set()

    def send(self, raw: bytes, record: list) -> None:
        self.writer.write(raw)
        self.pending.append(record)
        self.idle.clear()


async def _read_responses(lane: Lane, clock, sink) -> None:
    reader = lane.reader
    while True:
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n"):
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        body = await reader.readexactly(length)
        record = lane.pending.popleft()
        sink(record, status, body, clock())
        if not lane.pending:
            lane.idle.set()


class Generator:
    """Sends the mix on a schedule over two lanes and checks every answer.

    ``expected`` maps each lookup target to the exact body the server
    must answer.
    """

    def __init__(self, host: str, port: int, mix: Mix, expected) -> None:
        self.host = host
        self.port = port
        self.mix = mix
        self.expected = expected
        self.clock = time.perf_counter
        self.predict_sample = {}  # request body -> response body

    async def connect(self) -> None:
        self.lanes = {}
        for name in ("lookup", "predict"):
            reader, writer = await asyncio.open_connection(self.host, self.port)
            self.lanes[name] = Lane(reader, writer)
        self.readers = [
            asyncio.ensure_future(_read_responses(lane, self.clock, self._answered))
            for lane in self.lanes.values()
        ]

    async def close(self) -> None:
        for task in self.readers:
            task.cancel()
        for lane in self.lanes.values():
            lane.writer.close()
        await asyncio.gather(*self.readers, return_exceptions=True)

    def _answered(self, record, status, body, done) -> None:
        step, due, kind, key = record
        latency_ms = (done - due) * 1000.0
        if kind == "lookup":
            step["lookup_ms"].append(latency_ms)
            step["classes"][key.cls] += 1
            ok = status == 200 and body == self.expected[key.target]
        else:
            step["predict_ms"].append(latency_ms)
            ok = status == 200
            if ok and len(self.predict_sample) < PREDICT_SAMPLE:
                self.predict_sample.setdefault(key, body)
        step["answered"] += 1
        if not ok:
            step["failed"] += 1

    @staticmethod
    def _new_step(rate: float, requests) -> dict:
        return {
            "rate": rate, "sent": len(requests), "answered": 0, "failed": 0,
            "lookup_ms": [], "predict_ms": [], "lag_ms": [], "backlog": 0,
            "classes": collections.Counter(),
        }

    async def burst(self, requests) -> dict:
        """Send ``requests`` at once, untimed, and wait for every answer."""
        step = self._new_step(0.0, requests)
        started = self.clock()
        for req in requests:
            lane, raw, key = _wire(req)
            self.lanes[lane].send(raw, (step, started, lane, key))
        await self._drain(step)
        step["seconds"] = self.clock() - started
        return step

    async def _drain(self, step: dict) -> None:
        try:
            await asyncio.wait_for(
                asyncio.gather(*(lane.idle.wait() for lane in self.lanes.values())),
                DRAIN_TIMEOUT_S,
            )
        except asyncio.TimeoutError:
            pass
        step["failed"] += step["sent"] - step["answered"]  # never answered

    async def run_step(self, rate: float, requests) -> dict:
        """Offer ``requests`` (mix requests) at ``rate`` req/s, open loop."""
        n = len(requests)
        step = self._new_step(rate, requests)
        step["seconds"] = n / rate
        lanes, clock = self.lanes, self.clock
        requests = [_wire(req) for req in requests]
        gc.collect()
        start = clock() + 0.01
        i = 0
        while i < n:
            now = clock()
            while i < n and start + i / rate <= now:
                due = start + i / rate
                lane, raw, key = requests[i]
                lanes[lane].send(raw, (step, due, lane, key))
                step["lag_ms"].append((clock() - due) * 1000.0)
                i += 1
            if i < n:
                await asyncio.sleep(max(0.0, start + i / rate - clock()))
        end = start + (n - 1) / rate
        await asyncio.sleep(max(0.0, end - clock()))
        step["backlog"] = sum(len(lane.pending) for lane in lanes.values())
        await self._drain(step)
        allowed_backlog = max(2, int(rate * LOOKUP_LIMIT_MS / 1000.0))
        step["passed"] = (
            step["failed"] == 0
            and step["backlog"] <= allowed_backlog
            and (not step["lookup_ms"] or percentile(step["lookup_ms"], 99) <= LOOKUP_LIMIT_MS)
            and (not step["predict_ms"] or percentile(step["predict_ms"], 99) <= PREDICT_LIMIT_MS)
        )
        return step


def _summary(step: dict) -> dict:
    out = {k: step[k] for k in ("rate", "seconds", "sent", "answered", "failed", "backlog", "passed")}
    for name in ("lookup_ms", "predict_ms", "lag_ms"):
        values = step[name]
        base = name[:-3]
        out[f"{base}_n"] = len(values)
        if values:
            out[f"{base}_p10_ms"] = percentile(values, 10)
            out[f"{base}_p50_ms"] = median(values)
            out[f"{base}_p99_ms"] = percentile(values, 99)
            out[f"{base}_tail_ms"] = tail(values)
    out["classes"] = dict(step["classes"])
    return out


def _check_predicts(index, sample: dict) -> int:
    """Mismatches between served and in-process predict bodies.

    The expected body is built the way ``POST /v1/predict`` builds it:
    the advisor's configuration for items without one, and an error
    entry for an item the predictor refuses.
    """
    from repro.errors import PredictionError
    from repro.serve.predict import Predictor

    predictor = Predictor()
    mismatches = 0
    for request, served in sample.items():
        results, errors = [], 0
        for q in json.loads(request)["queries"]:
            advisor = None
            try:
                if "config" in q:
                    config = Predictor.parse_config(q["config"])
                else:
                    advisor = index.lookup(chip=q["chip"], app=q["app"], input=q["input"])
                    config = Predictor.parse_config(advisor.config)
            except PredictionError as exc:
                outcome = exc
            else:
                outcome = predictor.price_many([(q["chip"], q["app"], q["input"], config)])[0]
            if isinstance(outcome, PredictionError):
                results.append({"error": str(outcome)})
                errors += 1
                continue
            if advisor is not None:
                outcome["advisor"] = advisor.to_dict()
            results.append(outcome)
        expected = json.dumps({"results": results, "errors": errors}, sort_keys=True).encode()
        mismatches += expected != served
    return mismatches


async def _scrape_metrics(host: str, port: int) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
    raw = await reader.read()
    writer.close()
    return json.loads(raw.split(b"\r\n\r\n", 1)[1])


async def drive(args) -> dict:
    from repro.serve.index import StrategyIndex

    index = StrategyIndex.load(args.index)
    mix = Mix(index.meta, args.seed)
    expected = {
        key.target: expected_body(index, key)
        for keys in mix.space.values()
        for key in keys
    }
    gen = Generator(args.host, args.port, mix, expected)
    await gen.connect()
    server = args.server_pid

    async def cache_stats():
        return (await _scrape_metrics(args.host, args.port)).get("cache")

    async def timed_step(rate, requests):
        """A step with the server's CPU per answered request and its cache traffic.

        The cache traffic is ``None`` when the server has no response cache.
        """
        before = await cache_stats()
        cpu0 = cpu_seconds(process_tree(server))
        step = await gen.run_step(rate, requests)
        cpu_ms = (cpu_seconds(process_tree(server)) - cpu0) * 1000.0
        after = await cache_stats()
        step["cpu_ms_per_req"] = cpu_ms / max(1, step["answered"])
        step["cache"] = after and {k: after[k] - before[k] for k in ("hits", "misses", "evictions")}
        return step

    try:
        # Warm-up: a long-lived server has its traces built and its
        # plans compiled.  Its predict answers are not sampled.
        warm = await gen.burst(
            [key for cls in ("exact", "partial", "portfolio") for key in mix.space[cls]]
            + mix.bodies
        )
        gen.predict_sample.clear()
        gc.freeze()
        steps = [warm]
        paths = {}
        if args.path_seconds > 0:
            n = max(1, int(LOOKUP_RPS * args.path_seconds))
            for path in LOOKUP_PATHS:
                paths[path] = await timed_step(LOOKUP_RPS, mix.path_requests(path, n))
                steps.append(paths[path])
        predict_windows = []
        if args.predict_seconds > 0:
            n = max(1, int(PREDICT_RPS * args.predict_seconds / PREDICT_WINDOWS))
            for _ in range(PREDICT_WINDOWS):
                step = await timed_step(PREDICT_RPS, [mix.next("predict") for _ in range(n)])
                predict_windows.append(step["cpu_ms_per_req"])
                steps.append(step)
        fill = await gen.burst(mix.cache_fill())
        steps.append(fill)
        started = time.perf_counter()
        ref = await timed_step(REFERENCE_RPS, [mix.next() for _ in range(int(REFERENCE_RPS * args.ref_seconds))])
        steps.append(ref)
        ladder_steps = []
        max_rate = REFERENCE_RPS if ref["passed"] else 0
        exhausted = False
        if ref["passed"] and args.ladder_seconds > 0:
            for rate in ladder(64):
                left = args.budget_seconds - (time.perf_counter() - started)
                if left < args.ladder_seconds:
                    exhausted = True
                    break
                step = await gen.run_step(rate, [mix.next() for _ in range(int(rate * args.ladder_seconds))])
                ladder_steps.append(step)
                if not step["passed"]:
                    break
                max_rate = rate
        steps.extend(ladder_steps)
        cache = await cache_stats()
    finally:
        await gen.close()
    attempted = sum(s["sent"] for s in steps)
    failed = sum(s["failed"] for s in steps)
    mismatched = _check_predicts(index, gen.predict_sample)
    return {
        "reference": _summary(ref),
        "ladder": [_summary(s) for s in ladder_steps],
        "max_rate_rps": max_rate,
        "warmup_s": warm["seconds"],
        "cache_fill_s": fill["seconds"],
        "ladder_exhausted": exhausted,
        "attempted": attempted + len(gen.predict_sample),
        "failed": failed + mismatched,
        "predict_checked": len(gen.predict_sample),
        "predict_mismatches": mismatched,
        "lag_p99_ms": percentile([x for s in steps for x in s["lag_ms"]], 99),
        "server_cpu_ms_per_req": ref["cpu_ms_per_req"],
        "paths": {
            path: {"cpu_ms_per_req": s["cpu_ms_per_req"], "sent": s["sent"], "cache": s["cache"]}
            for path, s in paths.items()
        },
        "predict_cpu_ms_per_req": median(predict_windows) if predict_windows else None,
        "predict_cpu_ms_windows": predict_windows,
        "cache": cache and dict(ref["cache"], size=cache["size"], maxsize=cache["maxsize"]),
        "key_space": {cls: len(keys) for cls, keys in mix.space.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--index", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--server-pid", type=int, required=True)
    parser.add_argument("--ref-seconds", type=float, default=4.0)
    parser.add_argument("--path-seconds", type=float, default=0.0)
    parser.add_argument("--predict-seconds", type=float, default=0.0)
    parser.add_argument("--ladder-seconds", type=float, default=1.5)
    parser.add_argument("--budget-seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # select() takes its timeout in microseconds, where epoll rounds up
    # to the next millisecond: the generator wakes when a request is due.
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        result = loop.run_until_complete(drive(args))
    finally:
        loop.close()
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
