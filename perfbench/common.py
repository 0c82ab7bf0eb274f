"""Shared pieces of the benchmark: paths, statistics, host context, report.

Nothing here imports :mod:`repro`; the workload modules do, after
:mod:`run` has put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test, imported from source.
SRC = ROOT / "src"
#: Scratch space for traces, spans and reports (git-ignored).  Every
#: run empties its own subdirectory first, so no run inherits an
#: earlier run's captures.
WORK = ROOT / ".bench_work"

#: Simulated CPU accesses per benchmark run.  Large enough that every
#: layer does real work per op, small enough that a figure-grid pass
#: (48 cells) takes a few seconds, so a run covers whole passes.
ACCESSES = 6000

#: The seed whose reference digests are pinned in ``refs.json``.
DEFAULT_SEED = 0

#: A tail percentile needs at least this many ops beyond it.
TAIL_BEYOND = 10

#: Cold set-ups per run: the run's own (process start to its first
#: timed op) and SETUP_ROUNDS - 1 more, each in a fresh interpreter
#: that stops where its first timed op would start.  ``setup_s`` is
#: their median.
SETUP_ROUNDS = 3

#: Worker processes that compute object-engine references after the
#: timed phase (never during it); the host has two cores.
REF_WORKERS = 2


class TailTooThin(ValueError):
    """Too few ops for any percentile with TAIL_BEYOND ops beyond it."""


def beyond_count(n: int, q: int) -> int:
    """Ops strictly beyond the nearest-rank ``q``-th percentile of ``n``."""
    rank = max(1, math.ceil(q * n / 100))
    return n - rank


def tail(values: list[float], *, beyond: int = TAIL_BEYOND) -> tuple[int, float, int]:
    """The highest percentile with at least ``beyond`` ops beyond it.

    Returns ``(percentile, value, ops_beyond)`` using nearest-rank
    percentiles over integer ``q`` in 50..99.  A tail read from fewer
    samples moves with every outlier, so it is refused outright.
    """
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 49, -1):
        extra = beyond_count(n, q)
        if extra >= beyond:
            return q, ordered[max(1, math.ceil(q * n / 100)) - 1], extra
    raise TailTooThin(
        f"{n} ops leave fewer than {beyond} beyond every percentile >= p50"
    )


#: Iterations of one yardstick slice (about 1 ms on a 2.1 GHz Xeon
#: vCPU with idle neighbours).
SLICE_ITERATIONS = 5_000


def yardstick(iterations: int = SLICE_ITERATIONS) -> float:
    """Seconds for a fixed pure-Python loop that shares no code with
    the program: the host-speed yardstick."""
    start = time.perf_counter()
    state = 12345
    buckets = [0] * 256
    words = {}
    for i in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        buckets[state & 255] += 1
        key = state >> 20
        words[key] = words.get(key, i) ^ i
    if buckets[0] < 0 or len(words) < 0:  # keeps the loop live
        raise AssertionError
    return time.perf_counter() - start


def reference_loop_s(repeats: int = 7) -> float:
    """Median time of a longer yardstick loop, reported beside the
    metrics as host-speed context."""
    return statistics.median(yardstick(60_000) for _ in range(repeats))


def process_age_s() -> float:
    """Seconds since this process started (interpreter start included).

    Reads the kernel's start stamp (clock ticks since boot) and
    compares it with ``CLOCK_BOOTTIME``; ``0.0`` where unavailable.
    """
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[19])  # field 22 of stat(5)
        return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf(
            "SC_CLK_TCK"
        )
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set of this process (or ``pid``) in MB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def drop_dir(path: Path) -> Path:
    """Delete ``path``, which must sit under WORK."""
    path = Path(path)
    if WORK not in path.parents:
        raise ValueError(f"refusing to clear {path}: not under {WORK}")
    shutil.rmtree(path, ignore_errors=True)
    return path


def fresh_dir(path: Path) -> Path:
    """Empty ``path`` (which must sit under WORK) and return it."""
    path = drop_dir(path)
    path.mkdir(parents=True)
    return path


def object_map(fn, jobs: list) -> list:
    """Run ``fn`` over ``jobs`` in fresh interpreter processes.

    Spawned (not forked) workers, all joined before returning.
    """
    if not jobs:
        return []
    ctx = multiprocessing.get_context("spawn")
    pool = ctx.Pool(min(REF_WORKERS, len(jobs)))
    try:
        out = pool.map(fn, jobs, chunksize=1)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
        # Spawned pools also start a resource-tracker process.  Release
        # the pool's semaphores while it still runs, then stop it and
        # wait for it, so the run leaves no process behind.
        del pool
        gc.collect()
        resource_tracker._resource_tracker._stop()
    return out


@dataclass
class Outcome:
    """What one workload's timed phase produced."""

    workload: str
    seed: int
    #: Cold set-up seconds, process start to the first timed op: this
    #: run's own first; ``run.py`` adds those of the fresh interpreters.
    setup_rounds: list[float]
    #: The latencies ``op_p50_s`` and ``op_tail_s`` are read from (see
    #: ``sample_note``).
    samples: list[float]
    #: Ops completed in the timed wall (``ops_per_s``).
    ops: int
    wall_s: float
    rss_mb: float
    attempted: int
    failed: int
    #: What one sample is, for the report.
    sample_note: str = "ops"
    #: End-to-end values the workload defines itself (``llc_req_per_s``).
    extra: dict[str, float] = field(default_factory=dict)
    #: Simulated statistics of the first schedule cycle.
    model: dict[str, float] = field(default_factory=dict)
    #: Traced runs only: per-layer values, and the traced phase's own
    #: end-to-end values (for the tracing overhead).
    layers: dict[str, float] = field(default_factory=dict)
    traced: dict | None = None
    notes: list[str] = field(default_factory=list)
    #: Yardstick slices timed during the timed phase (host-speed
    #: context, never applied to a metric).
    slices: list[float] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_rounds)

    def end_to_end(self) -> dict[str, float]:
        return end_to_end(
            self.samples, self.ops, self.wall_s, self.setup_s, self.rss_mb, self.extra
        )

    def tail_note(self) -> str:
        q, _, extra = tail(self.samples)
        return (f"op_p50_s and op_tail_s are over {len(self.samples)} {self.sample_note}; "
                f"op_tail_s is p{q} ({extra} beyond it)")


def end_to_end(samples, ops, wall_s, setup_s, rss_mb, extra):
    """The end-to-end metrics of one timed phase, in this host's seconds."""
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail(samples)[1],
        "ops_per_s": ops / wall_s,
        "peak_rss_mb": rss_mb,
        **extra,
    }


#: Per-layer self times of the in-process workloads; with
#: ``unattributed_s`` they partition ``op_wall_s``.
SELF_TIMES = (
    "capture.self_s", "trace.put_s", "trace.get_s", "trace.verify_s",
    "kernels.replay_self_s", "kernels.sort_s", "kernels.finalize_s",
    "core.replay_s", "obs.apply_deferred_s", "sim.publish_s",
    "sim.run_self_s", "api.run_self_s", "unattributed_s",
)


def unit_table(section: str) -> dict[str, str]:
    """``name -> unit`` for one metric section of ``BENCHMARK.json``."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in contract[section]}
