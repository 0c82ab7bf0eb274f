"""``serve_open``: open-loop traffic against ``python -m repro serve``.

One client process sends job submissions on a fixed schedule over at
most two connections at a time (the host has two cores): one thread
submits at the due times, the other polls unfinished jobs; every
result is fetched, decoded and re-checked once the schedule has
drained.  Most submissions repeat a platform already served (a
digest-cache hit) or one still in flight (an in-flight attach); the
rest are new sorter width / timeout design points of one benchmark on
traces the server captured during set-up, so the served path --
admission, digest dedup, queueing behind the worker threads, the
result codec -- does the work, not the front end.

Latency runs from each submission's *due* time to the server-stamped
``finished_at`` (same host clock), so polling does not quantize it and
a stall is charged to every later request.  ``op_p50_s`` and
``op_tail_s`` are read from the submissions that start a run
(admission, queueing and the run itself).  The median submission
overall is a cache hit: a ~1 ms round trip through two processes and
three threads whose time follows the host's thread wake-up latency,
not the program, and which spread by a third between runs on a loaded
host; it is reported per layer as ``serve.hit_p50_s``.  An in-flight
attach ends when the run it joined ends, so ranking attaches with the
runs would count every slow run twice and leave a tail of five runs.
The offered rate keeps the server well clear of saturation:
``ops_per_s`` (every submission) then sits at the offered rate and
falls only if a backlog grows.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace

from repro.errors import ReproError
from repro.perf.digest import result_digest
from repro.serve.client import ServeClient
from repro.serve.jobs import JobSpec
from repro.sim.driver import PlatformConfig

from common import (
    ROOT, SRC, TAIL_BEYOND, WORK, Outcome, drop_dir, fresh_dir, object_map, peak_rss_mb,
    process_age_s, yardstick,
)
from inproc import object_digests

#: The benchmark every timed design point replays.  A mid-cost one
#: (about 29 ms a run on a 2.1 GHz Xeon vCPU, 55-90 ms when the host is
#: loaded): with one benchmark the run median sits in the middle of one
#: dense cluster.  Runs of several benchmarks form clusters with gaps
#: between them that blur under load; a median in such a gap spread by
#: a quarter when one run's samples were resampled with replacement.
SERVE_BENCHMARK = "HPCG"
#: A light benchmark no timed slot uses: set-up runs every design point
#: on it, so the first use of each sorter width or timeout (its tables
#: and schedules) is paid in set-up, not by the first timed run that
#: uses it.
WARMUP_BENCHMARK = "MG"

#: New design points, (sorter_width, timeout_cycles), all different
#: from the default (16, 20) the set-up jobs use.  Block ``j`` runs
#: design point ``j mod 11`` on trace ``j mod trace_count``, so every
#: seed replays the same mix of design points.
DESIGN_POINTS = (
    (8, 20), (32, 20), (16, 10), (16, 40), (16, 80), (8, 10),
    (32, 80), (8, 40), (32, 10), (8, 80), (32, 40),
)
#: Traces of SERVE_BENCHMARK captured in set-up.  A run's cost depends
#: on its trace (one seed's HPCG trace costs half as much again at
#: some design points), so the runs spread over many traces and no one
#: trace decides the median.
MIN_TRACES = 10

#: Offered load: one block every BLOCK_S seconds.  Each block opens
#: with a new design point and repeats it ATTACH_GAP_S later, while it
#: is still in flight; HITS_PER_BLOCK repeats of platforms served at
#: least a block earlier follow, HIT_GAP_S apart, from HITS_AT_S on.
#: The run is normally over by then, even on a loaded host: hits find
#: an idle server, the next block's run does not race this one for the
#: interpreter lock, and the load stays far from saturation.  Half a
#: second leaves a slowed run (up to 150 ms on a loaded host) clear of
#: its hits, and the polls (POLL_S after each submission) fall in the
#: idle part of the block.  With quarter-second blocks the 100 runs of
#: a 25 s run put the tail at p90, in the stretched top tenth of the
#: run times, and it spread by 29% between runs in a slow spell of the
#: host; the 50 runs here put it at p80.
BLOCK_S = 0.5
ATTACH_GAP_S = 0.02
HITS_AT_S = 0.15
HIT_GAP_S = 0.03
HITS_PER_BLOCK = 3
TENANTS = ("t0", "t1", "t2", "t3")

SPIN_S = 0.002
#: Yardstick slices timed on each side of the timed phase (host-speed
#: context only).
BRACKET_SLICES = 50
#: Unfinished jobs are polled this often.  Latency comes from the
#: server's own stamps, so polling late costs no accuracy, and rare
#: polls keep status requests from competing with the run they ask
#: about.
POLL_S = 0.25


@dataclass
class Slot:
    """One scheduled submission."""

    index: int
    due: float  # seconds after the schedule's start
    #: (benchmark, trace seed, sorter width, timeout cycles)
    key: tuple[str, int, int, int]
    kind: str  # "new", "attach" or "hit"
    tenant: str


def platform_of(accesses: int, key) -> PlatformConfig:
    _, seed, width, timeout = key
    base = PlatformConfig(accesses=accesses, seed=seed)
    return base.with_coalescer(
        replace(base.coalescer, sorter_width=width, timeout_cycles=timeout)
    )


def blocks_of(seconds: float) -> int:
    """Blocks in a run of ``seconds``; never fewer than the tail needs
    (TAIL_BEYOND run-starting submissions beyond the median at least:
    one per block)."""
    return max(2 * TAIL_BEYOND, round(seconds / BLOCK_S))


def trace_count(blocks: int) -> int:
    """Traces to capture: at least MIN_TRACES, and enough, coprime with
    the design point count, that no (trace, design point) pair
    repeats within ``blocks``."""
    count = max(MIN_TRACES, math.ceil(blocks / len(DESIGN_POINTS)))
    while math.gcd(count, len(DESIGN_POINTS)) != 1:
        count += 1
    return count


def trace_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def setup_keys(seed: int, blocks: int) -> list[tuple[str, int, int, int]]:
    """Set-up jobs at the default design point (16, 20): they capture
    every trace the blocks replay."""
    return [(SERVE_BENCHMARK, trace_seed(seed, i), 16, 20) for i in range(trace_count(blocks))]


def design_order(seed: int, blocks: int) -> list[tuple[str, int, int, int]]:
    """The new design point of every block, in order."""
    traces = trace_count(blocks)
    return [
        (SERVE_BENCHMARK, trace_seed(seed, j % traces), *DESIGN_POINTS[j % len(DESIGN_POINTS)])
        for j in range(blocks)
    ]


def schedule(seed: int, seconds: float) -> list[Slot]:
    """The submission schedule: a pure function of seed and length."""
    rng = random.Random(seed ^ 0x5EED)
    blocks = blocks_of(seconds)
    served = setup_keys(seed, blocks)  # platforms at least a block old
    slots: list[Slot] = []

    def add(due, key, kind):
        slots.append(Slot(len(slots), due, key, kind, TENANTS[len(slots) % len(TENANTS)]))

    pending: list[tuple[str, int, int, int]] = []
    for block, key in enumerate(design_order(seed, blocks)):
        start = block * BLOCK_S
        add(start, key, "new")
        add(start + ATTACH_GAP_S, key, "attach")
        for h in range(HITS_PER_BLOCK):
            add(start + HITS_AT_S + HIT_GAP_S * h, rng.choice(served), "hit")
        served.extend(pending)
        pending = [key]
    return slots


# -- the server process ------------------------------------------------------


class Server:
    """``python -m repro serve`` on an ephemeral port."""

    def __init__(self, seed: int, accesses: int, root):
        self.traces = fresh_dir(root / "traces")
        tmp = fresh_dir(root / "tmp")
        env = dict(os.environ)
        env.update(PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1", TMPDIR=str(tmp))
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", "2",
                "--accesses", str(accesses),
                "--seed", str(seed),
                "--trace-dir", str(self.traces),
                "--queue-limit", "64",
                "--tenant-quota", "256",
                "--retention", "0",
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: list[str] = []
        ready = queue.Queue()
        self._drain = threading.Thread(target=self._read, args=(ready,), daemon=True)
        self._drain.start()
        try:
            first = ready.get(timeout=60)
        except queue.Empty:
            first = ""
        if not first.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {self.lines[-5:]}")
        self.url = first.split()[2]
        self.client = ServeClient(self.url, timeout=60)
        if not self.client.health():
            self.stop()
            raise RuntimeError("server is not healthy")

    def _read(self, ready) -> None:
        for line in self.proc.stdout:
            if not self.lines:
                ready.put(line)
            self.lines.append(line.rstrip())

    def rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(30)
        self._drain.join(10)


def spec_of(accesses: int, key, tenant: str) -> JobSpec:
    benchmark, seed, width, timeout = key
    return JobSpec(
        benchmark=benchmark,
        platform=platform_of(accesses, key),
        tenant=tenant,
        label=f"s{seed}-w{width}-t{timeout}",
    )


def _run_to_done(client: ServeClient, specs: list[JobSpec]) -> None:
    ids = [client.submit(s).job_id for s in specs]
    for job_id in ids:
        status = client.wait(job_id, timeout=120)
        if status.state != "done":
            raise RuntimeError(f"set-up job {job_id} ended {status.state}")


def boot(args, root) -> Server:
    """Start a server and make it capture every set-up trace."""
    server = Server(args.seed, args.accesses, root)
    warm = (WARMUP_BENCHMARK, trace_seed(args.seed, 0))
    try:
        _run_to_done(
            server.client,
            [
                spec_of(args.accesses, k, "setup")
                for k in setup_keys(args.seed, blocks_of(args.seconds)) + [(*warm, 16, 20)]
            ],
        )
        # Untimed warm-up: every design point once, on the warm-up trace.
        _run_to_done(
            server.client,
            [spec_of(args.accesses, (*warm, *p), "setup") for p in DESIGN_POINTS],
        )
    except BaseException:
        server.stop()
        raise
    return server


# -- the open-loop client ----------------------------------------------------


@dataclass
class OpRecord:
    slot: Slot
    due_abs: float = 0.0
    sent: float = 0.0
    submit_s: float = 0.0
    job_id: str = ""
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    cached: bool | None = None
    attached: bool = False
    fetch_s: float = 0.0
    #: (llc requests, hmc packets, coalescing efficiency, runtime ns)
    stats: tuple = ()
    digest: str = ""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.finished_at - self.due_abs


def _drive(server: Server, accesses: int, slots: list[Slot]):
    """Send every slot on time; poll unfinished jobs on a second
    connection; fetch every result once the schedule has drained.

    Fetching (the result codec plus the client's digest re-check) waits
    until then so that decoding results never holds the client's
    interpreter lock when a submission falls due.
    """
    client = server.client
    records = [OpRecord(s) for s in slots]
    handoff: queue.Queue = queue.Queue()
    t0 = time.time() + 0.2

    def submitter():
        for rec in records:
            rec.due_abs = t0 + rec.slot.due
            spec = spec_of(accesses, rec.slot.key, rec.slot.tenant)
            # Sleep to just short of the due time, then spin: a sleeping
            # thread wakes up to a scheduler tick late, and that jitter
            # would land in every op's latency.
            delay = rec.due_abs - time.time() - SPIN_S
            if delay > 0:
                time.sleep(delay)
            while time.time() < rec.due_abs:
                pass
            rec.sent = time.time()
            try:
                status = client.submit(spec)
            except ReproError as exc:
                rec.error = f"submit: {type(exc).__name__}: {exc}"
                continue
            rec.submit_s = time.time() - rec.sent
            _note(rec, status)
            if not status.terminal:
                handoff.put(rec)
        handoff.put(None)

    def poller():
        # (due, tie-break, record) of every job still in flight.
        polls: list = []
        order = itertools.count()
        feeding = True
        while feeding or polls:
            wait = max(0.0, polls[0][0] - time.time()) if polls else None
            if feeding:
                try:
                    rec = handoff.get(timeout=wait)
                except queue.Empty:
                    rec = ()
                if rec is None:
                    feeding = False
                    continue
                if rec:
                    heapq.heappush(polls, (time.time() + POLL_S, next(order), rec))
                    continue
            elif wait:
                time.sleep(wait)
            _, _, rec = heapq.heappop(polls)
            try:
                status = client.status(rec.job_id)
            except ReproError as exc:
                rec.error = f"poll: {type(exc).__name__}: {exc}"
                continue
            _note(rec, status)
            if not status.terminal:
                heapq.heappush(polls, (time.time() + POLL_S, next(order), rec))

    threads = [threading.Thread(target=submitter), threading.Thread(target=poller)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for rec in records:
        try:
            _fetch(client, rec)
        except ReproError as exc:
            rec.error = f"fetch: {type(exc).__name__}: {exc}"
    return records


def _note(rec: OpRecord, status) -> None:
    rec.job_id = status.job_id
    rec.submitted_at = status.submitted_at
    rec.started_at = status.started_at
    rec.finished_at = status.finished_at
    rec.cached = status.cached
    rec.attached = status.attached_to is not None
    if status.state in ("failed", "cancelled"):
        rec.error = f"job {status.state}: {status.error}"


def _fetch(client: ServeClient, rec: OpRecord) -> None:
    """Result GET, decode and digest re-check (``serve.fetch_s``)."""
    if rec.error:
        return
    start = time.time()
    job = client.result(rec.job_id)
    result = job.result
    rec.digest = result_digest(result)
    rec.fetch_s = time.time() - start
    if rec.digest != job.result_digest:
        rec.error = "fetched result does not match its own digest"
    rec.stats = (
        result.tracer.llc_requests,
        result.hmc.requests,
        result.coalescing_efficiency,
        result.runtime_ns,
    )


# -- references --------------------------------------------------------------


def ref_key(accesses: int, key) -> str:
    return f"{key[0]}/{platform_of(accesses, key).content_digest()}"


def serve_references(accesses: int, keys) -> dict[str, str]:
    """Object-engine digests of ``keys``; keys sharing a trace share a
    job, and so one capture."""
    by_trace: dict[tuple[str, int], list] = {}
    for key in keys:
        by_trace.setdefault(key[:2], []).append(key)
    jobs = [
        (trace[0], [platform_of(accesses, k).to_json() for k in ks])
        for trace, ks in by_trace.items()
    ]
    rows = object_map(object_digests, jobs)
    return {
        ref_key(accesses, k): d
        for ks, row in zip(by_trace.values(), rows)
        for k, d in zip(ks, row)
    }


# -- the workload ------------------------------------------------------------


def work_root(args):
    return WORK / f"serve_open-{args.seed}"


def setup_only(args) -> float:
    """One cold set-up and no timed phase (a fresh interpreter's
    ``setup_s`` round)."""
    server = boot(args, work_root(args))
    setup_s = process_age_s()
    server.stop()
    drop_dir(work_root(args))
    return setup_s


def execute(args, pinned: dict[str, str], traced: bool) -> Outcome:
    root = work_root(args)
    slots = schedule(args.seed, args.seconds)
    server = boot(args, root)
    try:
        setup_s = process_age_s()
        stats0 = server.client.stats()
        slices = [yardstick() for _ in range(BRACKET_SLICES)]
        records = _drive(server, args.accesses, slots)
        slices += [yardstick() for _ in range(BRACKET_SLICES)]
        stats1 = server.client.stats()
        rss = server.rss_mb()
    finally:
        server.stop()
        drop_dir(root)

    # Every fetched digest is checked against the object engine.
    want = {r.slot.key: ref_key(args.accesses, r.slot.key) for r in records}
    refs = dict(pinned)
    missing = sorted(k for k, ref in want.items() if ref not in refs)
    if missing:
        refs.update(serve_references(args.accesses, missing))
    errors = []
    for rec in records:
        if not rec.error and rec.digest != refs.get(want[rec.slot.key]):
            rec.error = "digest differs from reference"
        if rec.error:
            errors.append(f"slot {rec.slot.index} ({rec.slot.kind}): {rec.error}")
    ok = [r for r in records if not r.error]
    runs = [r for r in ok if r.started_at is not None]
    run_s = sum(r.finished_at - r.started_at for r in runs)
    outcome = Outcome(
        workload="serve_open",
        seed=args.seed,
        setup_rounds=[setup_s],
        samples=[r.latency for r in ok if r.slot.kind == "new"],
        ops=len(ok),
        sample_note=f"run-starting submissions ({len(ok)} submissions)",
        wall_s=max(r.finished_at for r in ok) - records[0].due_abs if ok else 0.0,
        rss_mb=rss,
        attempted=len(records),
        failed=len(records) - len(ok),
        extra={"llc_req_per_s": sum(r.stats[0] for r in runs) / run_s if run_s else 0.0},
        model=_model(ok),
        notes=errors[:5],
        slices=slices,
    )
    late = sorted(r.sent - r.due_abs for r in records)
    late_p99 = late[min(len(late) - 1, int(0.99 * len(late)))]
    depth = stats1["queued"] + stats1["inflight"]
    outcome.notes.append(
        f"generator lateness p99 {late_p99 * 1e3:.2f} ms; queue depth at end {depth}"
    )
    if traced:
        outcome.layers = _layers(records, ok, runs, stats0, stats1, late_p99)
        outcome.layers.update(outcome.model)
        # Client-side records are kept in every run, so the traced run
        # is the untraced run: its overhead is zero by construction.
        outcome.traced = {
            "samples": outcome.samples,
            "ops": outcome.ops,
            "latencies": [r.latency for r in ok],
            "wall_s": outcome.wall_s,
            "llc_req_per_s": outcome.extra["llc_req_per_s"],
            "spans": _spans(ok),
        }
    return outcome


def _model(ok: list[OpRecord]) -> dict[str, float]:
    """Simulated statistics summed over the distinct platforms served."""
    seen: dict = {}
    for r in ok:
        seen.setdefault(r.slot.key, r.stats)
    stats = [seen[k] for k in sorted(seen)]
    return {
        "model.llc_requests": sum(s[0] for s in stats),
        "model.hmc_packets": sum(s[1] for s in stats),
        "model.coalescing_efficiency": sum(s[2] for s in stats) / max(1, len(stats)),
        "model.runtime_ns": sum(s[3] for s in stats),
    }


def _segments(r: OpRecord) -> list[tuple[str, float, float]]:
    """Where one op's latency went, due -> finished_at (one host clock)."""
    out = [("serve.gen_late", r.due_abs, r.sent), ("serve.admit", r.sent, r.submitted_at)]
    if r.started_at is not None:
        out += [
            ("serve.queue_wait", r.submitted_at, r.started_at),
            ("serve.run", r.started_at, r.finished_at),
        ]
    elif r.attached:
        out.append(("serve.attach_wait", r.submitted_at, r.finished_at))
    else:
        out.append(("serve.hit_finish", r.submitted_at, r.finished_at))
    return out


def _spans(ok: list[OpRecord]) -> list[dict]:
    spans = []
    for op, r in enumerate(ok):
        root = len(spans)
        spans.append({"id": root, "name": "op", "op": op, "kind": r.slot.kind,
                      "parent": None, "start": r.due_abs, "end": r.finished_at,
                      "self_s": 0.0})
        for name, a, b in _segments(r):
            spans.append({"id": len(spans), "name": name, "op": op, "parent": root,
                          "start": a, "end": b, "self_s": b - a})
        spans[root]["self_s"] = r.latency - sum(b - a for _, a, b in _segments(r))
    return spans


def _layers(records, ok, runs, s0, s1, late_p99) -> dict[str, float]:
    c0, c1 = s0["counters"], s1["counters"]

    def delta(name):
        return c1.get(name, 0) - c0.get(name, 0)

    def mean(values):
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    n = max(1, len(ok))
    return {
        "serve.submit_s": mean(r.submit_s for r in ok),
        "serve.fetch_s": mean(r.fetch_s for r in ok),
        "serve.queue_wait_s": mean(r.started_at - r.submitted_at for r in runs),
        "serve.run_s": mean(r.finished_at - r.started_at for r in runs),
        "serve.cache_hit_ratio": sum(1 for r in ok if r.cached and not r.attached) / n,
        "serve.attached": delta("coalesced"),
        "serve.distinct_runs": delta("simulated"),
        "serve.captures": s1["trace_store"]["puts"] - s0["trace_store"]["puts"],
        "serve.rejected": sum(
            1 for r in records if "CapacityError" in r.error or "QuotaError" in r.error
        ),
        "serve.gen_late_p99_s": late_p99,
        "serve.hit_p50_s": statistics.median(
            [r.latency for r in ok if r.slot.kind == "hit"] or [0.0]
        ),
        "op_wall_s": mean(r.latency for r in ok),
    }
