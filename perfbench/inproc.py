"""The two in-process workloads: ``grid_replay`` and ``fresh_capture``.

Both drive the program only through its public API
(:class:`repro.Session` over a disk-backed trace directory) and check
every op's :func:`repro.perf.digest.result_digest` against a reference
produced by the object engine -- the executable spec.

``grid_replay``
    One op is one (benchmark, figure config) cell of the 12 x 4 grid,
    benchmark-major, as ``repro figures`` and sweeps run it on warm
    traces.  Set-up captures the 12 traces; each pass over the grid
    uses a fresh Session over that mmap trace directory, so results and
    per-buffer replay scratch never carry over between passes.  The
    object replay loop (``trace.replay_trace`` driving the ``core`` and
    ``hmc`` objects) does most of the work: ``uncoalesced`` and
    ``mshr_only`` cells delegate to it.
``fresh_capture``
    One op is one ``combined`` run of a benchmark on a fresh Session
    over a trace directory without its trace -- a new front end, as
    ``repro run --seed`` or a new sweep trace key: vector capture,
    ``TraceStore.put`` to disk, vector replay.  A round is 48 such ops
    (the 12 benchmarks at four platform seeds each) over a trace
    directory emptied before the round, so a later round captures
    everything again and nothing is shared between ops; traces are
    written, never read, and the object replay loop is absent.

Both repeat one schedule cycle (a grid pass, a capture round) of 48
distinct ops, in whole cycles, until another cycle would end past
``--seconds``.  An op's latency is its mean over the cycles, and
``op_p50_s`` / ``op_tail_s`` are read from those 48 means.  A median
or tail over raw samples of ops with very different costs moves with
the number of cycles and can fall into a gap between cost clusters;
the per-op means stay on the same ops whatever the host speed.
"""

from __future__ import annotations

import gc
import time

from repro import Session
from repro.kernels import coalesce as kcoalesce
from repro.kernels import hmc as khmc
from repro.perf.digest import result_digest
from repro.sim.driver import PlatformConfig
from repro.sim.experiments import BENCHMARK_ORDER
from repro.sim.sweep import FIGURE_CONFIGS

from common import (
    WORK, Outcome, drop_dir, fresh_dir, object_map, peak_rss_mb, process_age_s, yardstick,
)
from tracing import OP, Recorder

GRID_CONFIGS = ("uncoalesced", "mshr_only", "dmc_only", "combined")

#: Platform seeds per benchmark in a ``fresh_capture`` round: 12 x 4
#: = 48 ops, enough for a tail with ten ops beyond it (p79).
FRESH_SEEDS = 4

# -- schedules (pure functions of the workload seed) --------------------------


def grid_cells() -> list[tuple[str, str]]:
    """One pass over the figure grid, benchmark-major."""
    return [(b, c) for b in BENCHMARK_ORDER for c in GRID_CONFIGS]


def fresh_op(seed: int, index: int) -> tuple[str, int]:
    """``(benchmark, platform seed)`` of op ``index`` of a round.

    Ops cycle through the 12 benchmarks; every op of a round has its
    own platform seed, disjoint from the warm-up seeds below.
    """
    return BENCHMARK_ORDER[index % len(BENCHMARK_ORDER)], (seed + 1) * 1_000_000 + index


def fresh_round(seed: int) -> list[tuple[str, int]]:
    """The ops of one ``fresh_capture`` round, in order."""
    return [fresh_op(seed, i) for i in range(FRESH_SEEDS * len(BENCHMARK_ORDER))]


def fresh_warmup_ops(seed: int) -> list[tuple[str, int]]:
    """One untimed op per benchmark, at seeds no timed op uses."""
    base = (seed + 1) * 1_000_000 + 900_000
    return [(b, base + i) for i, b in enumerate(BENCHMARK_ORDER)]


# -- references (object engine) ------------------------------------------------


def object_digests(job) -> list[str]:
    """Object-engine digests of one benchmark on each platform document
    in ``job``; platforms sharing a front end share one capture."""
    benchmark, docs = job
    session = Session(engine="object")
    return [
        result_digest(session.run(benchmark, platform=PlatformConfig.from_json(doc)))
        for doc in docs
    ]


def grid_references(seed: int, accesses: int) -> dict[str, str]:
    base = PlatformConfig(accesses=accesses, seed=seed)
    docs = [base.with_coalescer(FIGURE_CONFIGS[c]).to_json() for c in GRID_CONFIGS]
    rows = object_map(object_digests, [(b, docs) for b in BENCHMARK_ORDER])
    return {
        f"{b}/{c}": digest
        for b, row in zip(BENCHMARK_ORDER, rows)
        for c, digest in zip(GRID_CONFIGS, row)
    }


def fresh_references(ops: list[tuple[str, int]], accesses: int) -> dict[str, str]:
    combined = FIGURE_CONFIGS["combined"]
    jobs = [
        (b, [PlatformConfig(accesses=accesses, seed=s).with_coalescer(combined).to_json()])
        for b, s in ops
    ]
    rows = object_map(object_digests, jobs)
    return {f"{b}/{s}": row[0] for (b, s), row in zip(ops, rows)}


# -- per-op bookkeeping ------------------------------------------------------


class Checker:
    """Compares each op's digest with its reference.

    Pinned references (the default seed's schedule) are checked on the
    spot; ops without one keep their digest and are checked after the
    timed phase against references computed then.
    """

    def __init__(self, pinned: dict[str, str]):
        self.pinned = pinned
        self.pending: list[tuple[str, str]] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def record(self, key: str, digest: str | None) -> None:
        self.attempted += 1
        if digest is None:
            self.failed += 1
            self.mismatches.append(f"{key}: raised")
        elif key in self.pinned:
            if digest != self.pinned[key]:
                self.failed += 1
                self.mismatches.append(f"{key}: digest differs from reference")
        else:
            self.pending.append((key, digest))

    def settle(self, references: dict[str, str]) -> None:
        for key, digest in self.pending:
            if references.get(key) != digest:
                self.failed += 1
                self.mismatches.append(f"{key}: digest differs from reference")
        self.pending = []

    def missing(self) -> list[str]:
        return sorted({key for key, _ in self.pending})


class Model:
    """Simulated statistics over the first schedule cycle: they must
    repeat exactly in every run with the same seed."""

    def __init__(self, cycle: int):
        self.cycle = cycle
        self.results = []

    def add(self, result) -> None:
        if len(self.results) < self.cycle:
            self.results.append(result)

    def metrics(self) -> dict[str, float]:
        rs = self.results
        llc = sum(r.coalescer.llc_requests for r in rs)
        packets = sum(r.hmc.requests for r in rs)
        return {
            "model.llc_requests": llc,
            "model.hmc_packets": packets,
            "model.coalescing_efficiency": sum(r.coalescing_efficiency for r in rs)
            / max(1, len(rs)),
            "model.runtime_ns": sum(r.runtime_ns for r in rs),
        }


class Counts:
    """Per-op deltas of the counters the program exposes."""

    KEYS = ("engaged", "delegated", "fallbacks")

    def __init__(self):
        self.totals = dict.fromkeys(
            ("engaged", "delegated", "fallbacks", "hits", "misses",
             "cpu_accesses", "capture_llc", "kernel_llc", "core_llc"),
            0,
        )

    @staticmethod
    def _kernels() -> dict[str, int]:
        a, b = kcoalesce.kernel_counters(), khmc.kernel_counters()
        return {k: a[k] + b[k] for k in Counts.KEYS}

    def before(self, session):
        return self._kernels(), session.trace_store.stats()

    def after(self, mark, session, result, names: set[str]) -> None:
        k0, s0 = mark
        k1, s1 = self._kernels(), session.trace_store.stats()
        engaged = k1["engaged"] - k0["engaged"]
        for key in self.KEYS:
            self.totals[key] += k1[key] - k0[key]
        self.totals["hits"] += s1["hits"] - s0["hits"]
        self.totals["misses"] += s1["misses"] - s0["misses"]
        llc = result.tracer.llc_requests
        if "capture" in names:
            self.totals["cpu_accesses"] += result.tracer.cpu_accesses
            self.totals["capture_llc"] += llc
        if engaged:
            self.totals["kernel_llc"] += llc
        if "core.replay" in names:
            self.totals["core_llc"] += llc


# -- the timed loop ----------------------------------------------------------


class Timed:
    """One timed phase: op latencies, digests, optional spans."""

    def __init__(self, checker: Checker, model: Model, recorder: Recorder | None):
        self.checker = checker
        self.model = model
        self.recorder = recorder
        self.counts = Counts()
        self.latencies: list[float] = []
        #: Latencies of each op of the schedule cycle, one per cycle.
        self.by_op: dict[str, list[float]] = {}
        self.slices: list[float] = []
        self.llc = 0
        self.check_s = 0.0

    def op(self, key: str, session: Session, benchmark: str, config) -> None:
        rec = self.recorder
        mark = self.counts.before(session) if rec else None
        if rec:
            rec.op_id = len(self.latencies)
            root = rec.open(OP)
        start = time.perf_counter()
        try:
            result = session.run(benchmark, coalescer=config)
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            result = None
        spent = time.perf_counter() - start
        if rec:
            rec.close(root)
        # Everything below -- the digest check and a host-speed yardstick
        # slice -- is the benchmark's own work, kept out of the timed wall.
        check_start = time.perf_counter()
        self.latencies.append(spent)
        self.by_op.setdefault(key, []).append(spent)
        if result is None:
            self.checker.record(key, None)
        else:
            self.checker.record(key, result_digest(result))
            self.llc += result.tracer.llc_requests
            self.model.add(result)
            if rec:
                self.counts.after(mark, session, result, rec.names_in_op(rec.op_id))
        self.slices.append(yardstick())
        self.check_s += time.perf_counter() - check_start

    def op_means(self) -> list[float]:
        """Each op's mean latency over the cycles run."""
        return [sum(v) / len(v) for v in self.by_op.values()]


class InProcess:
    """A workload driven through Session in this process."""

    name = ""
    #: Distinct ops per schedule cycle; runs measure whole cycles.
    cycle_len = 0

    def __init__(self, args):
        self.args = args
        self.traces = WORK / f"{self.name}-{args.seed}" / "traces"

    def session(self, seed: int) -> Session:
        return Session(accesses=self.args.accesses, seed=seed, trace_dir=self.traces)


class GridReplay(InProcess):
    """Set-up captures the 12 traces; a cycle is one pass over the grid
    on a fresh Session over the captured trace directory."""

    name = "grid_replay"
    cycle_len = len(BENCHMARK_ORDER) * len(GRID_CONFIGS)

    def setup_round(self) -> None:
        fresh_dir(self.traces)
        capture = self.session(self.args.seed)
        for b in BENCHMARK_ORDER:
            capture.run(b, coalescer=FIGURE_CONFIGS["combined"])
        # Untimed warm-up: one benchmark's four cells from disk, so lazy
        # tables and schedules are built before the clock starts.
        warm = self.session(self.args.seed)
        for c in GRID_CONFIGS:
            warm.run("STREAM", coalescer=FIGURE_CONFIGS[c])

    def cycle(self) -> list:
        session = self.session(self.args.seed)
        return [(f"{b}/{c}", session, b, FIGURE_CONFIGS[c]) for b, c in grid_cells()]

    def references(self, missing: list[str]) -> dict[str, str]:
        return grid_references(self.args.seed, self.args.accesses)


class FreshCapture(InProcess):
    """Set-up warms every benchmark once; a cycle is one round of 48
    ops, each on its own Session over a trace directory emptied before
    the round."""

    name = "fresh_capture"
    cycle_len = FRESH_SEEDS * len(BENCHMARK_ORDER)

    def setup_round(self) -> None:
        fresh_dir(self.traces)
        for b, s in fresh_warmup_ops(self.args.seed):
            self.session(s).run(b, coalescer=FIGURE_CONFIGS["combined"])

    def cycle(self) -> list:
        fresh_dir(self.traces)  # traces are written, never read
        ops = fresh_round(self.args.seed)
        return [(f"{b}/{s}", self.session(s), b, FIGURE_CONFIGS["combined"]) for b, s in ops]

    def references(self, missing: list[str]) -> dict[str, str]:
        ops = [(k.split("/")[0], int(k.split("/")[1])) for k in missing]
        return fresh_references(ops, self.args.accesses)


WORKLOADS = {"grid_replay": GridReplay, "fresh_capture": FreshCapture}


def run_phase(workload, pinned: dict[str, str], seconds: float, rec: Recorder | None):
    """Whole cycles until another would end past ``seconds`` (one at
    least); returns the phase and its timed wall (per-op checks taken
    out)."""
    timed = Timed(Checker(pinned), Model(workload.cycle_len), rec)
    if rec:
        rec.install()
    start = time.perf_counter()
    cycles = 0
    try:
        while True:
            for op in workload.cycle():
                timed.op(*op)
            cycles += 1
            spent = time.perf_counter() - start - timed.check_s
            if spent * (cycles + 1) / cycles > seconds:
                break
    finally:
        if rec:
            rec.uninstall()
    return timed, time.perf_counter() - start - timed.check_s


def layer_metrics(timed: Timed, rec: Recorder) -> dict[str, float]:
    """Per-layer figures of one traced phase, per op where timed."""
    n = len(timed.latencies)
    selfs = rec.self_times()
    t = timed.counts.totals

    def per_op(name):
        return selfs.get(name, 0.0) / n

    def ns_per(seconds, count):
        return seconds / count * 1e9 if count else 0.0

    kernel_s = sum(selfs.get(k, 0.0) for k in ("kernels.replay", "kernels.sort", "kernels.finalize"))
    calls = t["engaged"] + t["delegated"]
    lookups = t["hits"] + t["misses"]
    return {
        "capture.self_s": per_op("capture"),
        "capture.ns_per_cpu_access": ns_per(selfs.get("capture", 0.0), t["cpu_accesses"]),
        "capture.cpu_accesses": t["cpu_accesses"] / n,
        "capture.llc_requests": t["capture_llc"] / n,
        "trace.put_s": per_op("trace.put"),
        "trace.bytes_written": rec.counters["trace.bytes_written"] / n,
        "trace.get_s": per_op("trace.get"),
        "trace.verify_s": per_op("trace.verify"),
        "trace.bytes_read": rec.counters["trace.bytes_read"] / n,
        "trace.hit_ratio": t["hits"] / lookups if lookups else 0.0,
        "kernels.replay_self_s": per_op("kernels.replay"),
        "kernels.sort_s": per_op("kernels.sort"),
        "kernels.finalize_s": per_op("kernels.finalize"),
        "kernels.ns_per_llc_req": ns_per(kernel_s, t["kernel_llc"]),
        "kernels.engaged": t["engaged"] / n,
        "kernels.delegated": t["delegated"] / n,
        "kernels.fallbacks": t["fallbacks"] / n,
        "kernels.engagement_ratio": t["engaged"] / calls if calls else 0.0,
        "core.replay_s": per_op("core.replay"),
        "core.ns_per_llc_req": ns_per(selfs.get("core.replay", 0.0), t["core_llc"]),
        "obs.apply_deferred_s": per_op("obs.apply_deferred"),
        "sim.publish_s": per_op("sim.publish"),
        "sim.run_self_s": per_op("sim.run"),
        "api.run_self_s": per_op("api.run"),
        "unattributed_s": per_op(OP),
        "op_wall_s": rec.op_wall() / n,
    }


def set_up(name: str, args) -> tuple[InProcess, float]:
    """Set up ``name`` and return it with the process's age: the cold
    set-up time, from process start to the first timed op."""
    workload = WORKLOADS[name](args)
    workload.setup_round()
    gc.collect()
    gc.freeze()
    return workload, process_age_s()


def setup_only(name: str, args) -> float:
    """One cold set-up and no timed phase (a fresh interpreter's
    ``setup_s`` round)."""
    workload, setup_s = set_up(name, args)
    drop_dir(workload.traces.parent)
    return setup_s


def execute(name: str, args, pinned: dict[str, str], traced: bool) -> Outcome:
    """Set up, run the timed phase(s), check every op, and report."""
    workload, setup_s = set_up(name, args)
    timed, wall = run_phase(workload, pinned, args.seconds, None)
    outcome = Outcome(
        workload=name,
        seed=args.seed,
        setup_rounds=[setup_s],
        samples=timed.op_means(),
        ops=len(timed.latencies),
        sample_note=f"per-op means ({len(timed.latencies)} timed ops)",
        wall_s=wall,
        rss_mb=peak_rss_mb(),
        attempted=0,
        failed=0,
        extra={"llc_req_per_s": timed.llc / wall},
        model=timed.model.metrics(),
        slices=timed.slices,
    )
    phases = [timed]
    if traced:
        rec = Recorder()
        traced_timed, traced_wall = run_phase(workload, pinned, args.seconds, rec)
        phases.append(traced_timed)
        outcome.layers = layer_metrics(traced_timed, rec)
        outcome.layers.update(traced_timed.model.metrics())
        outcome.traced = {
            "recorder": rec,
            "spans": rec.records(),
            "samples": traced_timed.op_means(),
            "ops": len(traced_timed.latencies),
            "wall_s": traced_wall,
            "llc_req_per_s": traced_timed.llc / traced_wall,
        }
    # References for ops the pinned table does not cover are computed
    # only now, after every timed phase.
    missing = sorted({k for t in phases for k in t.checker.missing()})
    if missing:
        refs = workload.references(missing)
        for t in phases:
            t.checker.settle(refs)
    for t in phases:
        outcome.attempted += t.checker.attempted
        outcome.failed += t.checker.failed
        outcome.notes.extend(t.checker.mismatches[:5])
    drop_dir(workload.traces.parent)
    return outcome
