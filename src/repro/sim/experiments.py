"""Per-figure experiment runners (Figures 1-2 and 8-15).

Each ``figN_*`` function reproduces one figure of the paper's
evaluation and returns a :class:`FigureData` with the same series the
paper plots plus derived summary statistics.  The heavyweight runners
share an :class:`EvaluationSuite`, which caches end-to-end simulation
results per (benchmark, coalescer-configuration) so a full evaluation
pass runs each simulation exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.analysis.efficiency import (
    bandwidth_efficiency_curve,
    control_overhead_sweep,
)
from repro.core.config import CoalescerConfig
from repro.hmc.packet import FLIT_BYTES
from repro.sim.driver import (
    PlatformConfig,
    SimulationResult,
    run_benchmark,
)
from repro.sim.sweep import (
    FIGURE_CONFIGS,
    SweepResult,
    SweepSpec,
    config_digest,
    run_sweep,
)
from repro.trace import TraceStore, trace_key
from repro.workloads import BENCHMARKS

#: Benchmark order used across all figures (the paper's grouping).
BENCHMARK_ORDER = tuple(BENCHMARKS)


class CachedRun(NamedTuple):
    """One entry of an :class:`EvaluationSuite`/Session result cache."""

    benchmark: str
    config: str  #: config name if known, else a digest prefix
    digest: str  #: full platform content digest (the cache key)


@dataclass
class FigureData:
    """One reproduced figure: labelled series plus summary scalars."""

    figure: str
    description: str
    headers: list[str]
    rows: list[list[object]]
    summary: dict[str, float] = field(default_factory=dict)


class EvaluationSuite:
    """Shared, cached runner for the trace-driven figures (8-15).

    The cache is keyed by the *content digest* of the full platform
    configuration, so two structurally equal configs -- however they
    were constructed or named -- share one cache (and checkpoint)
    entry.  :meth:`prefetch` populates the cache through the parallel
    sweep engine; with a ``checkpoint_dir`` the sweep's per-run files
    double as a persistent cross-process cache.
    """

    CONFIGS: dict[str, CoalescerConfig] = FIGURE_CONFIGS

    def __init__(
        self,
        platform: PlatformConfig | None = None,
        benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
        *,
        jobs: int = 1,
        checkpoint_dir: str | None = None,
        trace_dir: str | None = None,
        engine: str | None = None,
    ):
        self.platform = platform or PlatformConfig(accesses=24_000)
        self.benchmarks = benchmarks
        self.jobs = jobs
        self.checkpoint_dir = checkpoint_dir
        self.trace_dir = trace_dir
        #: Kernel engine for the suite's own runs (None = default).
        #: Purely an execution choice: results and cache keys are
        #: engine-invariant, so mixing engines across tiers is safe.
        self.engine = engine
        #: Shared LLC-trace store: each benchmark's front end (workload
        #: generation + cache filtering) runs once and all four figure
        #: configs replay the capture.  ``trace_dir`` adds a disk tier,
        #: read zero-copy (mmap) so concurrent suites and sweep workers
        #: share page-cache pages instead of private decodes.
        self.trace_store = TraceStore(trace_dir, mmap=trace_dir is not None)
        self._cache: dict[tuple[str, str], SimulationResult] = {}
        self._config_names: dict[str, str] = {}

    def _platform_for(self, config: str | CoalescerConfig) -> PlatformConfig:
        cfg = self.CONFIGS[config] if isinstance(config, str) else config
        return self.platform.with_coalescer(cfg)

    def run(
        self, benchmark: str, config: str | CoalescerConfig
    ) -> SimulationResult:
        """Run (or fetch) one benchmark under one coalescer config.

        ``config`` is a name from :data:`CONFIGS` or any
        :class:`CoalescerConfig`; structurally equal configs hit the
        same cache entry either way.
        """
        platform = self._platform_for(config)
        digest = config_digest(platform)
        if isinstance(config, str):
            self._config_names.setdefault(digest, config)
        key = (benchmark, digest)
        if key not in self._cache:
            self._cache[key] = run_benchmark(
                benchmark,
                platform=platform,
                trace_store=self.trace_store,
                engine=self.engine,
            )
        return self._cache[key]

    def run_platform(
        self, benchmark: str, platform: PlatformConfig
    ) -> SimulationResult:
        """Run (or fetch) one benchmark on an arbitrary full platform.

        Same digest-keyed cache as :meth:`run`, but the caller supplies
        the complete :class:`PlatformConfig` instead of a coalescer
        override on the suite's base platform -- the job server's path,
        where every tenant ships its own platform document.
        """
        digest = config_digest(platform)
        key = (benchmark, digest)
        if key not in self._cache:
            self._cache[key] = run_benchmark(
                benchmark,
                platform=platform,
                trace_store=self.trace_store,
                engine=self.engine,
            )
        return self._cache[key]

    def peek(self, benchmark: str, digest: str) -> SimulationResult | None:
        """The cached result for ``(benchmark, platform digest)``, or
        ``None`` -- never runs anything (the job server's admission
        check)."""
        return self._cache.get((benchmark, digest))

    def cache_keys(self) -> tuple[CachedRun, ...]:
        """Every cached run as ``(benchmark, config, digest)``, sorted."""
        return tuple(
            CachedRun(benchmark, self._config_names.get(digest, digest[:10]), digest)
            for benchmark, digest in sorted(self._cache)
        )

    def invalidate(
        self, digest: str | None = None, *, benchmark: str | None = None
    ) -> int:
        """Drop cached results and return how many entries were removed.

        ``digest`` scopes the sweep to one platform digest,
        ``benchmark`` to one benchmark; both ``None`` clears the whole
        cache.  Only the in-memory result cache is touched -- on-disk
        sweep checkpoints and stored traces are separate tiers with
        their own lifecycle (``resume`` / ``repro trace gc``).
        """
        doomed = [
            key
            for key in self._cache
            if (digest is None or key[1] == digest)
            and (benchmark is None or key[0] == benchmark)
        ]
        for key in doomed:
            del self._cache[key]
        return len(doomed)

    def adopt(self, benchmark: str, config_name: str, result: SimulationResult) -> None:
        """Seed the cache with an externally produced result.

        An empty ``config_name`` leaves the entry unnamed (it shows as
        a digest prefix in :meth:`cache_keys`).
        """
        digest = config_digest(result.platform)
        if config_name:
            self._config_names.setdefault(digest, config_name)
        self._cache[(benchmark, digest)] = result

    def prefetch(self, *, jobs: int | None = None) -> SweepResult:
        """Fill the whole figure grid through the sweep engine.

        Runs ``benchmarks x CONFIGS`` across ``jobs`` worker processes
        (default: the suite's ``jobs``), resuming from
        ``checkpoint_dir`` when one is configured, and seeds the cache
        so every figure runner afterwards is a pure lookup.
        """
        spec = SweepSpec(
            platform=self.platform,
            benchmarks=tuple(self.benchmarks),
            configs=dict(self.CONFIGS),
        )
        sweep = run_sweep(
            spec,
            jobs=self.jobs if jobs is None else jobs,
            out_dir=self.checkpoint_dir,
            resume=self.checkpoint_dir is not None,
            trace_dir=self.trace_dir,
        )
        for key, result in sweep.results.items():
            self.adopt(key.benchmark, key.config, result)
        return sweep

    def cached_runs(self):
        """Yield ``(benchmark, config_name, result)`` in sorted order."""
        for (benchmark, digest), result in sorted(self._cache.items()):
            yield benchmark, self._config_names.get(digest, digest[:10]), result

    # -- Figure 8 -------------------------------------------------------------

    def fig8_coalescing_efficiency(self) -> FigureData:
        """Coalescing efficiency per benchmark and phase combination."""
        rows = []
        sums = {"mshr_only": 0.0, "dmc_only": 0.0, "combined": 0.0}
        for name in self.benchmarks:
            vals = {
                cfg: self.run(name, cfg).coalescing_efficiency
                for cfg in ("mshr_only", "dmc_only", "combined")
            }
            for cfg, v in vals.items():
                sums[cfg] += v
            rows.append(
                [name, vals["mshr_only"], vals["dmc_only"], vals["combined"]]
            )
        n = len(self.benchmarks)
        summary = {f"avg_{cfg}": total / n for cfg, total in sums.items()}
        summary["paper_avg_mshr_only"] = 0.3153
        summary["paper_avg_dmc_only"] = 0.3813
        summary["paper_avg_combined"] = 0.4747
        return FigureData(
            figure="Figure 8",
            description="Coalescing efficiency of the memory coalescer",
            headers=["benchmark", "mshr_only", "dmc_only", "combined"],
            rows=rows,
            summary=summary,
        )

    # -- Figure 9 -------------------------------------------------------------

    def fig9_bandwidth_efficiency(self) -> FigureData:
        """Equation-1 bandwidth efficiency: raw vs coalesced requests."""
        rows = []
        raw_sum = coal_sum = 0.0
        for name in self.benchmarks:
            raw = self.run(name, "uncoalesced").bandwidth_efficiency
            coal = self.run(name, "combined").bandwidth_efficiency
            raw_sum += raw
            coal_sum += coal
            rows.append([name, raw, coal])
        n = len(self.benchmarks)
        return FigureData(
            figure="Figure 9",
            description="Bandwidth efficiency of coalesced and raw requests",
            headers=["benchmark", "raw", "coalesced"],
            rows=rows,
            summary={
                "avg_raw": raw_sum / n,
                "avg_coalesced": coal_sum / n,
                "improvement_factor": (coal_sum / raw_sum) if raw_sum else 0.0,
                "paper_avg_raw": 0.0743,
                "paper_avg_coalesced": 0.2773,
            },
        )

    # -- Figure 10 -------------------------------------------------------------

    def fig10_request_distribution(self, benchmark: str = "HPCG") -> FigureData:
        """Coalesced request-size distribution by *actual requested*
        data size (the paper plots HPCG; 16 B loads dominate)."""
        coalescer_hist: dict[tuple[int, str], int] = {}
        # Reconstruct from issued packets: bucket each packet by the
        # FLIT-rounded actually-requested payload.
        sim = self.run(benchmark, "combined")
        total = 0
        for rec in _issued_of(sim, trace_store=self.trace_store):
            req = max(
                FLIT_BYTES,
                min(
                    -(-rec.request.requested_bytes // FLIT_BYTES) * FLIT_BYTES,
                    rec.request.size,
                ),
            )
            kind = "store" if rec.request.is_store else "load"
            coalescer_hist[(req, kind)] = coalescer_hist.get((req, kind), 0) + 1
            total += 1
        rows = [
            [size, kind, count, count / total if total else 0.0]
            for (size, kind), count in sorted(coalescer_hist.items())
        ]
        top = max(coalescer_hist.items(), key=lambda kv: kv[1]) if coalescer_hist else None
        summary = {
            "total_requests": float(total),
            "paper_16B_load_share": 0.4025,
        }
        if top:
            summary["dominant_size"] = float(top[0][0])
            summary["dominant_share"] = top[1] / total
        share_16b_loads = (
            coalescer_hist.get((16, "load"), 0) / total if total else 0.0
        )
        summary["share_16B_loads"] = share_16b_loads
        return FigureData(
            figure="Figure 10",
            description=f"Coalesced HMC request distribution of {benchmark}",
            headers=["requested_bytes", "type", "count", "share"],
            rows=rows,
            summary=summary,
        )

    # -- Figure 11 -------------------------------------------------------------

    def fig11_bandwidth_saving(self) -> FigureData:
        """Control-overhead bytes saved by the coalescer per benchmark.

        The paper reports GB over full benchmark runs; our traces are
        shorter, so the absolute unit is MB -- the *relative* shape
        (LU and SP far ahead) is the reproduction target.
        """
        rows = []
        total_saved = 0
        for name in self.benchmarks:
            base = self.run(name, "uncoalesced")
            coal = self.run(name, "combined")
            saved_control = coal.control_bytes_saved_vs(base)
            saved_transfer = coal.transfer_bytes_saved_vs(base)
            total_saved += saved_transfer
            rows.append(
                [
                    name,
                    saved_control / 1e6,
                    saved_transfer / 1e6,
                ]
            )
        return FigureData(
            figure="Figure 11",
            description="Bandwidth saving (MB per trace)",
            headers=["benchmark", "control_saved_MB", "transfer_saved_MB"],
            rows=rows,
            summary={
                "avg_transfer_saved_MB": total_saved / 1e6 / len(self.benchmarks),
                "paper_avg_saved_GB": 33.25,
            },
        )

    # -- Figure 12 -------------------------------------------------------------

    def fig12_dmc_latency(self) -> FigureData:
        """Average first-phase coalescing latency in the DMC unit."""
        rows = []
        total = 0.0
        for name in self.benchmarks:
            ns = self.run(name, "combined").coalescer.dmc_latency_ns
            total += ns
            rows.append([name, ns])
        return FigureData(
            figure="Figure 12",
            description="Average latency of coalescing in the DMC unit (ns)",
            headers=["benchmark", "dmc_latency_ns"],
            rows=rows,
            summary={
                "avg_ns": total / len(self.benchmarks),
                "paper_avg_ns": 7.1,
                "paper_max_ns": 9.0,
            },
        )

    # -- Figure 13 -------------------------------------------------------------

    def fig13_crq_fill_time(self) -> FigureData:
        """Average time to fill the CRQ from empty to capacity."""
        rows = []
        total = 0.0
        for name in self.benchmarks:
            ns = self.run(name, "combined").coalescer.crq_fill_ns
            total += ns
            rows.append([name, ns])
        return FigureData(
            figure="Figure 13",
            description="Average time cost of filling up the CRQ (ns)",
            headers=["benchmark", "crq_fill_ns"],
            rows=rows,
            summary={
                "avg_ns": total / len(self.benchmarks),
                "paper_avg_ns": 15.86,
                "paper_max_ns": 34.76,
            },
        )

    # -- Figure 15 -------------------------------------------------------------

    def fig15_performance(self) -> FigureData:
        """Runtime improvement of the coalescer over the baseline."""
        rows = []
        total = 0.0
        for name in self.benchmarks:
            base = self.run(name, "uncoalesced")
            coal = self.run(name, "combined")
            imp = coal.runtime_improvement_over(base)
            total += imp
            rows.append([name, imp])
        return FigureData(
            figure="Figure 15",
            description="Performance improvement with the memory coalescer",
            headers=["benchmark", "runtime_improvement"],
            rows=rows,
            summary={
                "avg_improvement": total / len(self.benchmarks),
                "paper_avg_improvement": 0.1314,
                "paper_ft_improvement": 0.2543,
                "paper_sparselu_improvement": 0.2221,
            },
        )


def _issued_of(sim: SimulationResult, trace_store: TraceStore | None = None):
    """The issued-request records of a finished simulation.

    ``SimulationResult`` carries aggregate stats; the issued list lives
    on the coalescer object, so the stream is re-driven when
    per-request detail is needed.  With a ``trace_store`` holding the
    run's capture, only the coalescer replays (no workload generation
    or cache filtering); otherwise the full front end re-runs.
    """
    from repro.cache.hierarchy import CacheHierarchy
    from repro.cache.tracer import MemoryTracer
    from repro.core.coalescer import MemoryCoalescer
    from repro.hmc.device import HMCDevice
    from repro.sim.driver import _make_service_time, run_trace_through_coalescer
    from repro.trace import replay_trace
    from repro.workloads import get_workload

    platform = sim.platform
    device = HMCDevice(platform.hmc)
    coalescer = MemoryCoalescer(
        platform.coalescer, service_time=_make_service_time(device, platform.cycle_ns)
    )
    if trace_store is not None:
        stored = trace_store.get(trace_key(sim.benchmark, platform))
        if stored is not None:
            replay_trace(stored, coalescer=coalescer)
            return coalescer.issued
    workload = get_workload(
        sim.benchmark, num_threads=platform.num_threads, seed=platform.seed
    )
    hierarchy = CacheHierarchy(platform.hierarchy)
    tracer = MemoryTracer(hierarchy, cycles_per_access=platform.cycles_per_access)
    run_trace_through_coalescer(
        tracer.trace(workload.accesses(platform.accesses)),
        coalescer=coalescer,
    )
    return coalescer.issued


# -- Analytic figures ------------------------------------------------------------


def fig1_bandwidth_efficiency() -> FigureData:
    """Figure 1: efficiency/overhead vs HMC request size (analytic)."""
    points = bandwidth_efficiency_curve()
    return FigureData(
        figure="Figure 1",
        description="Bandwidth efficiency of HMC request packets",
        headers=["request_bytes", "efficiency", "control_overhead"],
        rows=[[p.request_bytes, p.efficiency, p.control_overhead] for p in points],
        summary={
            "efficiency_16B": points[0].efficiency,
            "efficiency_256B": points[-1].efficiency,
            "paper_efficiency_16B": 0.3333,
            "paper_efficiency_256B": 0.8889,
        },
    )


def fig2_control_overhead() -> FigureData:
    """Figure 2: control traffic vs total requested data (analytic)."""
    points = control_overhead_sweep()
    sizes = sorted(points[0].control_bytes_by_size)
    rows = [
        [p.total_requested] + [p.control_bytes_by_size[s] for s in sizes]
        for p in points
    ]
    last = points[-1]
    return FigureData(
        figure="Figure 2",
        description="Control overhead of different requested data size",
        headers=["total_requested_B"] + [f"ctl_B@{s}B" for s in sizes],
        rows=rows,
        summary={
            "ratio_16B_vs_256B": (
                last.control_bytes_by_size[16] / last.control_bytes_by_size[256]
            ),
            "paper_ratio": 16.0,
        },
    )


def fig14_timeout_sweep(
    timeouts: tuple[int, ...] = (8, 12, 16, 20, 24, 28),
    platform: PlatformConfig | None = None,
    benchmarks: tuple[str, ...] = BENCHMARK_ORDER,
    *,
    jobs: int = 1,
    trace_dir: str | None = None,
) -> FigureData:
    """Figure 14: mean coalescer latency vs sorting-buffer timeout.

    The paper sweeps 16-28 cycles and sees latency flat until the
    timeout starts to dominate.  With this stack's smooth LLC arrival
    process (one request per port cycle), a 16-wide buffer fills in
    ~15 cycles, so the regime where the timeout binds -- and latency
    climbs with it -- sits at the low end of the sweep; past the fill
    time the curves plateau.  The sweep is widened to 8-28 cycles so
    both regimes are visible.

    The ``benchmarks x timeouts`` grid runs through the sweep engine,
    so ``jobs > 1`` shards it across worker processes.
    """
    platform = platform or PlatformConfig(accesses=12_000)
    spec = SweepSpec(
        platform=platform,
        benchmarks=tuple(benchmarks),
        configs={
            f"T{t}": CoalescerConfig(timeout_cycles=t) for t in timeouts
        },
    )
    sweep = run_sweep(spec, jobs=jobs, trace_dir=trace_dir)
    rows = []
    for name in benchmarks:
        row: list[object] = [name]
        for t in timeouts:
            result = sweep.get(name, f"T{t}")
            row.append(result.coalescer.mean_coalescer_latency_ns)
        rows.append(row)
    n = len(benchmarks)
    avgs = {
        f"avg_ns_timeout_{t}": sum(r[i + 1] for r in rows) / n
        for i, t in enumerate(timeouts)
    }
    return FigureData(
        figure="Figure 14",
        description="Average coalescer latency vs timeout (ns)",
        headers=["benchmark"] + [f"T={t}" for t in timeouts],
        rows=rows,
        summary=avgs,
    )
