"""Shared plumbing: paths, fresh-interpreter steps, process-tree sampling.

Every timed or traced step of the benchmark runs in a fresh Python
interpreter.  The program keeps process-wide caches that a second
in-process call would find warm -- ``t_ppf``'s ``lru_cache`` (a second
``build_index(portfolios=True)`` on the 4-app grid took 11.1 s against
20.7 s cold), ``compiler.plan_cache`` and ``Trace._arrays_cache`` --
while a CLI user pays all of them cold on every call.  A fresh
interpreter per step measures what the user pays.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: The workload seed whose outputs are pinned in ``digests.json``.  It
#: is also the study's default graph seed, so the sweep-full dataset at
#: this seed is byte-identical to ``repro study OUT.v3``.
DEFAULT_SEED = 7

#: Worker processes (and load connections) the benchmark may use.
JOBS = 2


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed step)."""


def require_program() -> None:
    """Refuse to run outside a checkout that holds the program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            f"no program sources at {SRC}; run from a checkout of the repository"
        )


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def repro_cmd(*args: str) -> List[str]:
    """The ``python -m repro`` command line for a CLI subcommand."""
    return [sys.executable, "-m", "repro", *args]


def step_cmd(*args: str) -> List[str]:
    """A benchmark step run by ``steps.py`` in a fresh interpreter."""
    return [sys.executable, os.path.join(HERE, "steps.py"), *args]


# -- process tree ------------------------------------------------------------


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except OSError:
            pass
    return kids


def process_tree(pid: int) -> List[int]:
    """``pid`` and all its live descendants."""
    tree, todo = [], [pid]
    while todo:
        p = todo.pop()
        tree.append(p)
        todo.extend(_children(p))
    return tree


def pss_kb(pid: int) -> int:
    """The process's proportional set size now, 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_seconds(pids: Sequence[int]) -> float:
    """CPU time the live threads of the processes ``pids`` have run.

    Read from each thread's ``schedstat`` in nanoseconds, where
    ``/proc/PID/stat`` counts 10 ms ticks: a one-second serve step uses
    a few hundred milliseconds of CPU.  A thread that exits between two
    readings takes its time with it; the server's threads live as long
    as it does.
    """
    total = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                    total += int(fh.read().split()[0])
            except (OSError, IndexError, ValueError):
                pass
    return total / 1e9


class MemorySampler:
    """Tracks the peak memory of a process tree until stopped.

    Every interval it sums the proportional set size (PSS) of every
    process of the tree, and keeps the largest sum.  PSS divides each
    shared page among the processes that map it, so the copy-on-write
    pages forked workers share with their parent count once, and the
    sum is the tree's memory at one moment, not a sum of per-process
    peaks reached at different times.
    """

    def __init__(self, pid: int, interval: float = 0.05) -> None:
        self.pid = pid
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            total = sum(pss_kb(pid) for pid in process_tree(self.pid))
            self.peak_kb = max(self.peak_kb, total)
            self._stop.wait(self.interval)

    def stop(self) -> float:
        """Stop sampling; the tree's peak memory in MB."""
        self._stop.set()
        self._thread.join()
        return self.peak_kb / 1024.0


class Step:
    """One finished fresh-interpreter step."""

    def __init__(self, wall_s: float, cpu_s: float, peak_rss_mb: float, code: int, stdout: str) -> None:
        self.wall_s = wall_s
        #: User + system CPU of the step and every process it reaped.
        self.cpu_s = cpu_s
        self.peak_rss_mb = peak_rss_mb
        self.code = code
        self.stdout = stdout

    def json(self) -> dict:
        """The JSON object a ``steps.py`` step prints as its last line."""
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            raise BenchError(f"step failed with exit code {self.code}")
        return json.loads(lines[-1])


def run_step(cmd: List[str], log_path: str, timeout: float = 170.0) -> Step:
    """Run ``cmd`` in a fresh interpreter; time it and sample its RSS.

    The wall time runs from the spawn to the reaped exit, as a user of
    the CLI sees it.  ``--t0`` hands the spawn time to ``steps.py``
    steps so they can report their own start-up time.
    """
    if cmd[1:2] == [os.path.join(HERE, "steps.py")]:
        cmd = cmd + ["--t0", repr(time.time())]
    cpu0 = _children_cpu()
    start = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log
        )
        sampler = MemorySampler(proc.pid)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            kill_tree(proc)
            raise BenchError(f"step timed out after {timeout}s: {cmd[1:4]}")
        finally:
            peak = sampler.stop()
    wall = time.perf_counter() - start
    cpu = _children_cpu() - cpu0
    return Step(wall, cpu, peak, proc.returncode, out.decode("utf-8", "replace"))


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def kill_tree(proc: subprocess.Popen) -> None:
    for pid in reversed(process_tree(proc.pid)):
        try:
            os.kill(pid, 9)
        except OSError:
            pass
    proc.wait()


@contextmanager
def workspace(name: str):
    """A scratch directory inside the checkout, removed afterwards."""
    path = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile, up to p99, with ten of ``n`` samples beyond it.

    Below 100 samples that percentile would fall under p90, and the
    maximum is reported instead.
    """
    if n < 100:
        return 100.0
    return min(99.0, 100.0 * (1.0 - 10.0 / n))


def tail(values: Sequence[float]) -> float:
    return percentile(values, tail_percentile(len(values)))


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


# -- host speed --------------------------------------------------------------

#: Median time of :func:`calibration_kernel` on the reference host, a
#: 2-vCPU Intel Xeon VM in its fastest observed state (Python 3.11.7,
#: numpy 2.4.6).
CALIBRATION_REF_S = 0.150


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter and numpy work.

    The benchmark's own code, not the program's, so no change to the
    program can move it.
    """
    import numpy as np

    start = time.perf_counter()
    counts: Dict[str, int] = {}
    for i in range(150_000):
        key = f"k{i % 5003}"
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items(), key=lambda kv: kv[1])
    values = np.random.default_rng(0).random(200_000)
    for _ in range(20):
        values = np.sqrt(values * values + 1.0) - 0.5
        np.unique((values * 1000).astype(np.int64))
    return time.perf_counter() - start


def _calibration_probe(runs: int = 5) -> float:
    return median([calibration_kernel() for _ in range(runs)])


def in_reference_time(*runs):
    """Run each of ``runs`` in turn, with a calibration probe around each.

    Returns ``(results, factors, probes)``: what each run returned; the
    factor that turns a wall time measured during that run into
    reference-host time, ``CALIBRATION_REF_S`` over the mean of the
    probes just before and just after it; and the probes' kernel times.

    Other tenants of the VM changed how fast the same step ran by up to
    1.8x within minutes, mostly with no CPU steal to show for it.  The
    calibration kernel slows down with such steps.
    """
    probes = [_calibration_probe()]
    results, factors = [], []
    for run in runs:
        results.append(run())
        probes.append(_calibration_probe())
        factors.append(CALIBRATION_REF_S / ((probes[-2] + probes[-1]) / 2))
    return results, factors, probes


# -- provenance --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """The checkout's commit, or ``unknown`` unless it is a git work tree's root."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def cpu_steal_ticks() -> int:
    """Machine-wide CPU steal so far, in clock ticks (``/proc/stat``)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def host_table() -> dict:
    """Host and provenance facts recorded with every result."""
    versions = {}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "commit": _commit(),
        "loadavg_1m": os.getloadavg()[0],
    }


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)
