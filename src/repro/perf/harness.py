"""Measurement and comparison engine behind ``python -m repro perf``.

Each :class:`~repro.perf.cases.PerfCase` is run ``repeats`` times
under a fresh :class:`~repro.obs.PhaseProfiler`; the *best* wall time
is reported (interference only ever slows a run down, so min is the
most stable estimator).  Every case also records the run's
:func:`~repro.perf.digest.result_digest`, making a perf report a
bit-exactness witness at the same time.  The harness switches no
engine part on or off: a ``vector_replay`` case runs what a user run
gets, the batched coalescing kernel with the batched HMC back end
behind it wherever the back end's envelope admits the stack.

Cross-machine comparisons divide out host speed with a calibration
loop (:func:`calibration_seconds`): ``normalized_throughput`` is
simulated requests/second multiplied by the host's calibration
seconds, which cancels single-core interpreter speed to first order.
CI compares normalized throughputs against the checked-in baseline and
fails beyond the regression threshold; digests are compared exactly.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.errors import SchemaError
from repro.obs import PhaseProfiler
from repro.perf.cases import REPLAY_KINDS, SWEEP_KINDS, VECTOR_KINDS, PerfCase
from repro.perf.digest import result_digest

#: Benchmarks of the sweep-throughput mini-sweep; x the 4 figure
#: configs = 24 cells.  Deliberately the six *lightest-replay*
#: workloads: the sweep kinds measure orchestration (process reuse,
#: shared traces, grouped replay), so per-cell simulation time is
#: noise that dilutes the orchestration cost, not signal.
SWEEP_BENCHMARKS = ("STREAM", "MG", "FT", "HPCG", "Sort", "CG")

#: Report schema version (bump on incompatible layout changes).
SCHEMA = 1


def calibration_seconds(repeats: int = 3) -> float:
    """Best wall time of a fixed pure-Python workload on this host.

    The loop exercises the same primitives the simulator leans on
    (dict churn, list swaps, integer arithmetic) so its runtime tracks
    interpreter speed for our workload, not e.g. numpy throughput.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        table: dict[int, int] = {}
        data = list(range(512))
        acc = 0
        for i in range(20_000):
            key = (i * 2654435761) & 0xFFFF
            table[key] = table.get(key, 0) + 1
            lo = i & 255
            hi = 511 - lo
            if data[lo] > data[hi]:
                data[lo], data[hi] = data[hi], data[lo]
            acc += key >> 7
        if acc < 0:  # pragma: no cover - keeps the loop un-eliminable
            raise AssertionError
        best = min(best, time.perf_counter() - start)
    return best


@dataclass(slots=True)
class CaseResult:
    """Measurements for one perf case."""

    case: PerfCase
    wall_seconds: float
    wall_seconds_all: list[float]
    llc_requests: int
    cpu_accesses: int
    digest: str
    phases: dict[str, float]
    #: Kernel engagement over the measured repeats (``vector_replay``
    #: only): the coalescing kernel's engaged / delegated / fallback
    #: deltas and rates, with the HMC back end's under ``"hmc"``.
    #: ``None`` elsewhere.
    kernel: dict | None = None
    #: Sweep cells executed per attempt (sweep kinds only; 0 elsewhere,
    #: in which case neither ``cells`` nor ``cells_per_second`` appears
    #: in the report -- old baselines stay comparable).
    cells: int = 0
    #: Worker processes the sweep actually ran, after the CPU-count
    #: clamp (sweep kinds only; 0 elsewhere and then not reported).
    #: Throughput is only comparable between equal worker counts.
    effective_jobs: int = 0

    @property
    def requests_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.llc_requests / self.wall_seconds

    @property
    def cells_per_second(self) -> float:
        if self.wall_seconds <= 0 or not self.cells:
            return 0.0
        return self.cells / self.wall_seconds

    def as_dict(self) -> dict:
        return {
            "benchmark": self.case.benchmark,
            "config": self.case.config,
            "accesses": self.case.accesses,
            "seed": self.case.seed,
            "kind": self.case.kind,
            "wall_seconds": self.wall_seconds,
            "wall_seconds_all": self.wall_seconds_all,
            "llc_requests": self.llc_requests,
            "cpu_accesses": self.cpu_accesses,
            "requests_per_second": self.requests_per_second,
            "digest": self.digest,
            "phases": self.phases,
            **({"kernel": self.kernel} if self.kernel is not None else {}),
            **({"jobs": self.case.jobs} if self.case.jobs else {}),
            **(
                {"sorter_width": self.case.sorter_width}
                if self.case.sorter_width
                else {}
            ),
            **(
                {"sorter_arch": self.case.sorter_arch}
                if self.case.sorter_arch
                else {}
            ),
            **(
                {"cells": self.cells, "cells_per_second": self.cells_per_second}
                if self.cells
                else {}
            ),
            **(
                {"effective_jobs": self.effective_jobs}
                if self.effective_jobs
                else {}
            ),
        }


def _engagement(before: dict, after: dict) -> dict:
    """One kernel's engaged / delegated / fallback deltas and rates.

    ``before`` and ``after`` are its ``kernel_counters()`` snapshots
    around the measured repeats.  The fallback rate is the share of
    engaged replays that hit a verification miss and re-ran under the
    object engine: digest parity holds either way, so a rising rate is
    a perf smell, not a correctness one.
    """
    engaged = after["engaged"] - before["engaged"]
    delegated = after["delegated"] - before["delegated"]
    fallbacks = after["fallbacks"] - before["fallbacks"]
    attempts = engaged + delegated
    return {
        "engaged": engaged,
        "delegated": delegated,
        "fallbacks": fallbacks,
        "fallback_rate": (fallbacks / engaged) if engaged else 0.0,
        "engagement_rate": (engaged / attempts) if attempts else 0.0,
    }


def run_case(case: PerfCase, repeats: int = 3) -> CaseResult:
    """Run one case ``repeats`` times; keep the fastest repeat.

    The case's ``kind`` selects the measured workload (see
    :mod:`repro.perf.cases`): a plain simulation, a capture or replay
    through the trace store, or a composite (pair / 4-config sweep)
    with or without a shared trace.  A ``vector_replay`` case also
    records both kernels' engagement over its repeats (see
    :attr:`CaseResult.kernel`).  Composite kinds digest the
    concatenated per-run digests, so live and shared-trace variants of
    the same workload must report identical digests -- the perf report
    doubles as a bit-exactness witness for the trace layer.
    """
    from repro.sim.driver import (
        PlatformConfig,
        run_baseline_and_coalesced,
        run_benchmark,
    )
    from repro.sim.sweep import FIGURE_CONFIGS, SweepSpec, run_sweep
    from repro.trace import TraceStore

    coalescer = FIGURE_CONFIGS[case.config]
    if case.sorter_width:
        # The wide-sorter axis: the case's width/architecture override
        # the figure config's sorter (digest-visible, so each design
        # point replays and digests independently).
        from dataclasses import replace as dc_replace

        coalescer = dc_replace(
            coalescer,
            sorter_width=case.sorter_width,
            **(
                {"sorter_arch": case.sorter_arch} if case.sorter_arch else {}
            ),
        )
    platform = PlatformConfig(accesses=case.accesses, seed=case.seed)
    kind = case.kind
    # The sim/trace_* kinds pin the object engine: they are the
    # reference measurements the vector kinds derive speedups against,
    # and their baselines predate the kernel engine.  Composite kinds
    # run whatever the session default resolves to -- they measure
    # what users of the trace layer actually get.
    engine = "vector" if kind in VECTOR_KINDS else "object"

    warm_store: TraceStore | None = None
    if kind in REPLAY_KINDS:
        # One untimed capture; every measured repeat is a pure replay.
        warm_store = TraceStore()
        run_benchmark(
            case.benchmark,
            platform=platform,
            coalescer=coalescer,
            trace_store=warm_store,
        )

    sweep_trace_dir: str | None = None
    if kind in SWEEP_KINDS:
        # Seed one shared on-disk trace store untimed, so the pool
        # measures pure replay orchestration -- mmap traces and the
        # replay cache, not first-capture noise.
        sweep_trace_dir = tempfile.mkdtemp(prefix="repro-perf-sweep-")
        seed_store = TraceStore(sweep_trace_dir)
        for bench in SWEEP_BENCHMARKS:
            run_benchmark(
                bench,
                platform=platform,
                coalescer=coalescer,
                trace_store=seed_store,
            )

    effective_jobs = 0

    def attempt(profiler: PhaseProfiler | None):
        nonlocal effective_jobs
        if kind in SWEEP_KINDS:
            # Checkpoints go to run_sweep's own temp dir (discarded per
            # attempt).
            sweep = run_sweep(
                SweepSpec(
                    platform=platform,
                    benchmarks=SWEEP_BENCHMARKS,
                    configs=dict(FIGURE_CONFIGS),
                ),
                jobs=case.jobs or 1,
                trace_dir=sweep_trace_dir,
                executor="pool",
            )
            if sweep.failures:
                raise RuntimeError(
                    f"sweep perf case {case.name} had failures: "
                    + ", ".join(f.key.label for f in sweep.failures)
                )
            effective_jobs = sweep.metadata["effective_jobs"]
            return list(sweep.results.values())
        if kind == "sim":
            return [
                run_benchmark(
                    case.benchmark,
                    platform=platform,
                    coalescer=coalescer,
                    profiler=profiler,
                    engine=engine,
                )
            ]
        if kind in ("trace_capture", "vector_capture"):
            return [
                run_benchmark(
                    case.benchmark,
                    platform=platform,
                    coalescer=coalescer,
                    profiler=profiler,
                    trace_store=TraceStore(),
                    engine=engine,
                )
            ]
        if kind in REPLAY_KINDS:
            return [
                run_benchmark(
                    case.benchmark,
                    platform=platform,
                    coalescer=coalescer,
                    profiler=profiler,
                    trace_store=warm_store,
                    engine=engine,
                )
            ]
        if kind == "pair_live":
            return [
                run_benchmark(
                    case.benchmark,
                    platform=platform,
                    coalescer=FIGURE_CONFIGS["uncoalesced"],
                    profiler=profiler,
                ),
                run_benchmark(
                    case.benchmark,
                    platform=platform,
                    coalescer=coalescer,
                    profiler=profiler,
                ),
            ]
        if kind == "pair_shared_trace":
            return list(
                run_baseline_and_coalesced(
                    case.benchmark,
                    platform=platform.with_coalescer(coalescer),
                    profiler=profiler,
                )
            )
        # sweep_live / sweep_shared: the full 4-config figure grid.
        store = TraceStore() if kind == "sweep_shared" else None
        return [
            run_benchmark(
                case.benchmark,
                platform=platform,
                coalescer=cfg,
                trace_store=store,
                profiler=profiler,
            )
            for cfg in FIGURE_CONFIGS.values()
        ]

    kernels_before = None
    if kind == "vector_replay":
        from repro.kernels import coalesce as coalesce_kernel
        from repro.kernels import hmc as hmc_kernel

        kernels_before = (
            coalesce_kernel.kernel_counters(),
            hmc_kernel.kernel_counters(),
        )

    walls: list[float] = []
    best_profiler: PhaseProfiler | None = None
    best_results = None
    for _ in range(max(1, repeats)):
        # Every kind profiles: composites accumulate their runs'
        # phases into one profiler, so pair/sweep entries report where
        # the composite's time went, not just its total.
        profiler = PhaseProfiler()
        start = time.perf_counter()
        results = attempt(profiler)
        wall = time.perf_counter() - start
        walls.append(wall)
        if wall == min(walls):
            best_profiler = profiler
            best_results = results
    assert best_results is not None
    kernel_stats = None
    if kernels_before is not None:
        kernel_stats = _engagement(
            kernels_before[0], coalesce_kernel.kernel_counters()
        )
        kernel_stats["hmc"] = _engagement(
            kernels_before[1], hmc_kernel.kernel_counters()
        )
    if sweep_trace_dir is not None:
        shutil.rmtree(sweep_trace_dir, ignore_errors=True)
    digests = [result_digest(r) for r in best_results]
    if len(digests) == 1:
        digest = digests[0]
    else:
        digest = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    return CaseResult(
        case=case,
        wall_seconds=min(walls),
        wall_seconds_all=walls,
        llc_requests=sum(r.coalescer.llc_requests for r in best_results),
        cpu_accesses=sum(r.tracer.cpu_accesses for r in best_results),
        digest=digest,
        phases=(
            {name: best_profiler.elapsed(name) for name in best_profiler.phases()}
            if best_profiler is not None
            else {}
        ),
        kernel=kernel_stats,
        cells=len(best_results) if kind in SWEEP_KINDS else 0,
        effective_jobs=effective_jobs,
    )


def run_suite(
    cases: Iterable[PerfCase],
    repeats: int = 3,
    *,
    suite_name: str = "",
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run every case and assemble the perf report.

    Raises :class:`ValueError` on an empty case list: a filtered-down
    suite with zero matches would otherwise measure nothing and write
    an empty (but valid-looking) report, which downstream baseline
    comparisons silently accept.
    """
    cases = tuple(cases)
    if not cases:
        raise ValueError(
            "perf suite is empty: no cases to run "
            "(a --filter pattern may have matched nothing)"
        )
    calibration = calibration_seconds()
    report: dict = {
        "schema": SCHEMA,
        "generated_by": "python -m repro perf",
        "suite": suite_name,
        "repeats": repeats,
        "calibration_seconds": calibration,
        "cases": {},
    }
    for case in cases:
        measured = run_case(case, repeats=repeats)
        entry = measured.as_dict()
        entry["normalized_throughput"] = (
            measured.requests_per_second * calibration
        )
        report["cases"][case.name] = entry
        if progress is not None:
            progress(
                f"{case.name}: {measured.wall_seconds * 1e3:.1f} ms, "
                f"{measured.requests_per_second:,.0f} req/s"
            )
    derived = derive_speedups(report["cases"])
    if derived:
        report["derived"] = derived
    return report


#: (slow kind, fast kind) -> derived metric name; the metric value is
#: ``wall(slow) / wall(fast)`` for the same benchmark/config/accesses.
_SPEEDUP_PAIRS = {
    ("sim", "trace_replay"): "replay_speedup",
    ("pair_live", "pair_shared_trace"): "pair_speedup",
    ("sweep_live", "sweep_shared"): "sweep_speedup",
    ("trace_capture", "vector_capture"): "vector_capture_speedup",
    ("trace_replay", "vector_replay"): "vector_replay_speedup",
}

#: (slow kind, fast kind) -> (phase, metric): additionally derive the
#: ratio of one *phase*'s time across a pair.  The kernel-engine pairs
#: need this because the wall ratio dilutes the vectorized phase with
#: engine-invariant work, while the phase ratio isolates what the
#: engine actually replaced: the front end for capture, the sort and
#: the DMC/CRQ/MSHR/HMC machinery for replay.
_PHASE_SPEEDUP_PAIRS = {
    ("trace_capture", "vector_capture"): ("trace", "vector_capture_trace_speedup"),
    ("trace_replay", "vector_replay"): (
        "coalesce",
        "vector_replay_coalesce_speedup",
    ),
}


def derive_speedups(cases: dict) -> dict:
    """Trace-layer speedup ratios readable straight from the report.

    For every workload measured under both halves of a live/shared
    pair, emits ``<metric>:<benchmark>/<config>@<accesses>`` with the
    wall-time ratio (>1 means the trace layer is that many times
    faster) and flags ``digest_mismatch`` if the halves disagree --
    which would mean replay is not bit-exact and the ratio is
    meaningless.
    """
    by_key: dict[tuple, dict] = {}
    for entry in cases.values():
        key = (
            entry.get("kind", "sim"),
            entry.get("benchmark"),
            entry.get("config"),
            entry.get("accesses"),
            entry.get("seed"),
            entry.get("jobs"),
            entry.get("sorter_width"),
            entry.get("sorter_arch"),
        )
        by_key[key] = entry
    derived: dict = {}
    for (slow_kind, fast_kind), metric in sorted(_SPEEDUP_PAIRS.items()):
        phase_metric = _PHASE_SPEEDUP_PAIRS.get((slow_kind, fast_kind))
        for key, slow in by_key.items():
            if key[0] != slow_kind:
                continue
            fast = by_key.get((fast_kind, *key[1:]))
            if fast is None or not fast.get("wall_seconds"):
                continue
            suffix = f"{key[1]}/{key[2]}@{key[3]}"
            if key[5]:
                suffix += f"/j{key[5]}"
            if key[6]:
                suffix += f"/w{key[6]}"
            if key[7]:
                suffix += f"/{key[7]}"
            derived[f"{metric}:{suffix}"] = (
                slow["wall_seconds"] / fast["wall_seconds"]
            )
            if phase_metric is not None:
                phase, name = phase_metric
                slow_t = (slow.get("phases") or {}).get(phase)
                fast_t = (fast.get("phases") or {}).get(phase)
                if slow_t and fast_t:
                    derived[f"{name}:{suffix}"] = slow_t / fast_t
            if slow.get("digest") != fast.get("digest"):
                derived[f"{metric}:{suffix}:digest_mismatch"] = True
    return derived


def save_report(report: dict, path: str | Path) -> Path:
    """Write a report as stable, diff-friendly JSON."""
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def load_report(path: str | Path) -> dict:
    report = json.loads(Path(path).read_text())
    if report.get("schema") != SCHEMA:
        raise SchemaError(
            f"{path}: unsupported perf report schema {report.get('schema')!r}"
        )
    return report


@dataclass(slots=True)
class CaseComparison:
    """Current-vs-baseline verdict for one case."""

    name: str
    current_wall: float
    baseline_wall: float
    ratio: float  # normalized current / baseline throughput; <1 is slower
    regressed: bool
    digest_match: bool | None  # None when params differ (not comparable)
    #: False when the two runs used different worker counts; the
    #: throughput is then not gated (``regressed`` stays False).
    throughput_comparable: bool = True


def compare_reports(
    current: dict, baseline: dict, *, threshold: float = 0.25
) -> list[CaseComparison]:
    """Compare two reports case by case.

    A case regresses when its calibration-normalized throughput drops
    by more than ``threshold`` relative to the baseline.  Throughput is
    only gated between runs with the same ``effective_jobs`` (sweep
    cases record how many workers actually ran after the CPU-count
    clamp); a case recorded with another worker count is reported as
    not comparable.  Digests are compared whenever the simulation
    parameters match, regardless of speed: a mismatch means behaviour
    changed, which the perf gate treats as a failure in its own right.
    """
    out: list[CaseComparison] = []
    params = (
        "benchmark",
        "config",
        "accesses",
        "seed",
        "kind",
        "jobs",
        "sorter_width",
        "sorter_arch",
    )
    for name, base in sorted(baseline.get("cases", {}).items()):
        cur = current.get("cases", {}).get(name)
        if cur is None:
            continue
        base_norm = base.get("normalized_throughput") or 0.0
        cur_norm = cur.get("normalized_throughput") or 0.0
        ratio = (cur_norm / base_norm) if base_norm > 0 else 1.0
        same_params = all(base.get(k) == cur.get(k) for k in params)
        digest_match = (
            (base.get("digest") == cur.get("digest")) if same_params else None
        )
        comparable = base.get("effective_jobs") == cur.get("effective_jobs")
        out.append(
            CaseComparison(
                name=name,
                current_wall=cur.get("wall_seconds", 0.0),
                baseline_wall=base.get("wall_seconds", 0.0),
                ratio=ratio,
                regressed=comparable and ratio < 1.0 - threshold,
                digest_match=digest_match,
                throughput_comparable=comparable,
            )
        )
    return out
