"""The evaluation session and the per-figure runners (Figures 1-2, 8-15).

:class:`Session` is the reproduction's one evaluation context.  It owns
a base platform and a results cache keyed by the *content digest* of
the effective platform, so structurally equal configurations --
however constructed -- run exactly once.  Its ``fig8_*``-``fig15_*``
methods read the paper's trace-driven figures off that cache, so a
full evaluation pass runs each simulation once; :meth:`Session.figures`
returns every figure in the order ``repro figures`` prints them.

Figures 1-2 are analytic and Figure 14 runs its own timeout sweep at a
shorter trace length, so those three are module functions.  Every
runner returns a :class:`FigureData` with the series the paper plots
plus derived summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from repro.analysis.efficiency import (
    bandwidth_efficiency_curve,
    control_overhead_sweep,
)
from repro.core.config import CoalescerConfig, UNCOALESCED_CONFIG
from repro.errors import ConfigError
from repro.hmc.packet import FLIT_BYTES
from repro.sim.driver import (
    PlatformConfig,
    SimulationResult,
    run_benchmark,
    runtime_improvement,
)
from repro.sim.sweep import (
    FIGURE_CONFIGS,
    Progress,
    SweepResult,
    SweepSpec,
    clamp_jobs,
    parse_config_token,
    parse_config_tokens,
    run_sweep,
)
from repro.trace import TraceStore, trace_key
from repro.workloads import BENCHMARKS

#: Benchmark order used across all figures (the paper's grouping).
BENCHMARK_ORDER = tuple(BENCHMARKS)


class CachedRun(NamedTuple):
    """One entry of a :class:`Session` result cache."""

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


class Session:
    """One configured evaluation context with a shared results cache.

    The cache is keyed by ``(benchmark, platform content digest)``.
    :meth:`run`, :meth:`sweep`, :meth:`prefetch` and the figure runners
    all read and fill it, and with a ``checkpoint_dir`` the sweep
    engine's per-run files are a persistent cross-process tier of it.

    Parameters
    ----------
    platform:
        Base platform; defaults to the paper's Section 5.2 machine.
    accesses / seed:
        Conveniences that override the corresponding platform fields
        without constructing a :class:`PlatformConfig` by hand.
    jobs:
        Default worker-process count for :meth:`sweep`,
        :meth:`figures` and :meth:`prefetch`.
    checkpoint_dir:
        Directory for the sweep engine's per-run checkpoint files.
        When set, completed runs persist across Sessions and
        interrupted sweeps resume automatically.
    trace_dir:
        Directory for the on-disk LLC trace store
        (:class:`repro.trace.TraceStore`).  Sessions always share
        captured traces in memory -- each benchmark's front end runs
        once per (geometry, pacing) key and every coalescer config
        replays it bit-identically; ``trace_dir`` additionally
        persists captures across Sessions and ships them to sweep
        worker processes.
    engine:
        Kernel execution engine for the session's in-process runs:
        ``"object"`` (the reference interpreter) or ``"vector"``
        (columnar NumPy fast paths).  ``None`` takes the library
        default (:data:`repro.kernels.DEFAULT_ENGINE`).  Engine choice
        never changes results -- the vector engine is bit-exact -- so
        it is a Session knob, not a platform parameter.
    """

    def __init__(
        self,
        platform: PlatformConfig | None = None,
        *,
        accesses: int | None = None,
        seed: int | None = None,
        jobs: int = 1,
        checkpoint_dir: str | Path | None = None,
        trace_dir: str | Path | None = None,
        engine: str | None = None,
    ):
        base = platform or PlatformConfig()
        if accesses is not None:
            base = replace(base, accesses=accesses)
        if seed is not None:
            base = replace(base, seed=seed)
        self.platform = base
        self.jobs = jobs
        self.checkpoint_dir = str(checkpoint_dir) if checkpoint_dir else None
        self.trace_dir = str(trace_dir) if trace_dir else None
        self.engine = engine
        #: The session's shared LLC-trace store.  ``trace_dir`` adds a
        #: disk tier, read zero-copy (mmap) so concurrent sessions and
        #: sweep workers share page-cache pages instead of private
        #: decodes.
        self.trace_store = TraceStore(
            self.trace_dir, mmap=self.trace_dir is not None
        )
        self._cache: dict[tuple[str, str], SimulationResult] = {}
        self._config_names: dict[str, str] = {}

    # -- single runs ---------------------------------------------------------

    def run(
        self,
        benchmark: str,
        *,
        coalescer: CoalescerConfig | None = None,
        platform: PlatformConfig | None = None,
    ) -> SimulationResult:
        """Run (or fetch) one benchmark.

        ``coalescer`` overrides the session platform's coalescer
        config; ``platform`` replaces the whole platform for this run
        (the job server's path -- tenants ship complete platform
        documents).  The two are mutually exclusive.  Results are
        cached by config digest, so repeated and structurally equal
        calls are free.
        """
        if platform is None:
            platform = (
                self.platform
                if coalescer is None
                else self.platform.with_coalescer(coalescer)
            )
        elif coalescer is not None:
            raise ConfigError(
                "pass either coalescer= or platform=, not both "
                "(a full platform already carries its coalescer)"
            )
        key = (benchmark, platform.content_digest())
        result = self._cache.get(key)
        if result is None:
            result = self._cache[key] = run_benchmark(
                benchmark,
                platform=platform,
                trace_store=self.trace_store,
                engine=self.engine,
            )
        return result

    def baseline(self, benchmark: str) -> SimulationResult:
        """The uncoalesced reference run of one benchmark."""
        return self.run(benchmark, coalescer=UNCOALESCED_CONFIG)

    def improvement(self, benchmark: str) -> float:
        """Figure 15's runtime-improvement metric for one benchmark."""
        return runtime_improvement(self.baseline(benchmark), self.run(benchmark))

    def _cell(self, benchmark: str, config: str) -> SimulationResult:
        """One figure-grid cell: ``config`` names a :data:`FIGURE_CONFIGS`
        entry, which labels the cached run in :meth:`cache_keys`."""
        platform = self.platform.with_coalescer(FIGURE_CONFIGS[config])
        self._config_names.setdefault(platform.content_digest(), config)
        return self.run(benchmark, platform=platform)

    # -- cache management ----------------------------------------------------

    def adopt(
        self, benchmark: str, result: SimulationResult, *, config_name: str = ""
    ) -> None:
        """Seed the result cache with an externally produced result.

        The entry is keyed by the digest of ``result.platform`` exactly
        as if :meth:`run` had produced it.  The job server uses this to
        fold in results computed by worker processes and restored
        checkpoints; ``config_name`` labels the entry in
        :meth:`cache_keys` (defaults to a digest prefix).
        """
        digest = result.platform.content_digest()
        if config_name:
            self._config_names.setdefault(digest, config_name)
        self._cache[(benchmark, digest)] = result

    def peek(self, benchmark: str, digest: str) -> SimulationResult | None:
        """The cached result for ``(benchmark, platform digest)``, or
        ``None`` without running anything.

        ``digest`` is a :meth:`PlatformConfig.content_digest` value (as
        reported by :meth:`cache_keys`).  The job server's admission
        path uses this to complete duplicate submissions instantly.
        """
        return self._cache.get((benchmark, digest))

    def cache_keys(self) -> tuple[CachedRun, ...]:
        """Enumerate the digest-keyed result cache, sorted.

        Each entry is a :class:`CachedRun` ``(benchmark, config,
        digest)``; ``digest`` is the platform content digest the run is
        keyed by (pass it to :meth:`invalidate`).
        """
        return tuple(
            CachedRun(benchmark, self._label(digest), digest)
            for benchmark, digest in sorted(self._cache)
        )

    def cached_runs(self):
        """Yield ``(benchmark, config, result)`` for every cached run,
        in :meth:`cache_keys` order (the job server checkpoints these
        on shutdown)."""
        for (benchmark, digest), result in sorted(self._cache.items()):
            yield benchmark, self._label(digest), result

    def _label(self, digest: str) -> str:
        return self._config_names.get(digest, digest[:10])

    def invalidate(
        self, digest: str | None = None, *, benchmark: str | None = None
    ) -> int:
        """Drop cached results, returning the number of entries removed.

        ``digest`` scopes to one platform digest, ``benchmark`` to one
        benchmark, both ``None`` clears everything.  The job server's
        result-retention sweep calls this to bound memory; a user can
        call it after changing on-disk state a cached result depended
        on.  Checkpoint files and stored traces are separate tiers
        with their own lifecycle (``resume`` / ``repro trace gc``).
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

    # -- sweeps --------------------------------------------------------------

    def sweep(
        self,
        spec: SweepSpec | None = None,
        *,
        benchmarks: tuple[str, ...] | None = None,
        configs: (
            Mapping[str, CoalescerConfig | PlatformConfig | str]
            | Sequence[str]
            | None
        ) = None,
        jobs: int | None = None,
        out_dir: str | Path | None = None,
        resume: bool = False,
        timeout: float | None = None,
        retries: int = 1,
        filter: str | None = None,
        progress: Progress | None = None,
        executor: str | None = None,
    ) -> SweepResult:
        """Run a parameter sweep and fold it into the session cache.

        Either pass a full :class:`SweepSpec`, or let the session
        build one from ``benchmarks`` x ``configs`` (defaults: all 12
        benchmarks x the paper's four figure configs) on its own
        platform.  ``configs`` also accepts sweep config *tokens* --
        a sequence like ``["combined", "combined@sorter_width=64"]``
        (each token names itself) or a mapping whose values may be
        token strings (see
        :func:`repro.sim.sweep.parse_config_token`) -- so sorter
        design-space grids need no hand-built
        :class:`~repro.core.config.CoalescerConfig` objects.  See
        :func:`repro.sim.sweep.run_sweep` for the execution knobs.
        ``jobs`` above the machine's CPU count is clamped
        (oversubscribed simulation workers only add scheduler thrash);
        the clamp is logged and visible in the result's ``metadata``.
        """
        if spec is None:
            if configs is None:
                resolved: Mapping = dict(FIGURE_CONFIGS)
            elif isinstance(configs, Mapping):
                resolved = {
                    name: (
                        parse_config_token(value)[1]
                        if isinstance(value, str)
                        else value
                    )
                    for name, value in configs.items()
                }
            else:
                resolved = parse_config_tokens(configs)
            spec = SweepSpec(
                platform=self.platform,
                benchmarks=tuple(benchmarks) if benchmarks else (),
                configs=resolved,
            )
        sweep = run_sweep(
            spec,
            jobs=clamp_jobs(self.jobs if jobs is None else jobs),
            out_dir=out_dir or self.checkpoint_dir,
            # The session's own checkpoint dir is a cache: always resume
            # from it.  An explicit out_dir honours the resume flag.
            resume=resume or (out_dir is None and self.checkpoint_dir is not None),
            timeout=timeout,
            retries=retries,
            filter=filter,
            progress=progress,
            trace_dir=self.trace_dir,
            executor=executor,
        )
        for key, result in sweep.results.items():
            self.adopt(key.benchmark, result, config_name=key.config)
        return sweep

    def prefetch(self, *, jobs: int | None = None) -> SweepResult:
        """Pre-run the full figure grid across worker processes, so
        every figure runner afterwards is a pure cache lookup."""
        return self.sweep(jobs=jobs)

    # -- figures -------------------------------------------------------------

    def figures(self, *, jobs: int | None = None) -> list[FigureData]:
        """Reproduce every paper figure (Figures 1-2 and 8-15).

        With ``jobs > 1`` the underlying simulation grid is prefetched
        through the sweep engine first, so the figure runners become
        pure cache lookups.  Figure 14 sweeps its timeouts at a third
        of the session's trace length (at least 3,000 accesses).
        """
        jobs = self.jobs if jobs is None else jobs
        if jobs > 1:
            self.prefetch(jobs=jobs)
        fig14_platform = replace(
            self.platform, accesses=max(3000, self.platform.accesses // 3)
        )
        return [
            fig1_bandwidth_efficiency(),
            fig2_control_overhead(),
            self.fig8_coalescing_efficiency(),
            self.fig9_bandwidth_efficiency(),
            self.fig10_request_distribution("HPCG"),
            self.fig11_bandwidth_saving(),
            self.fig12_dmc_latency(),
            self.fig13_crq_fill_time(),
            self.fig15_performance(),
            fig14_timeout_sweep(
                platform=fig14_platform, jobs=jobs, trace_dir=self.trace_dir
            ),
        ]

    # -- Figure 8 -------------------------------------------------------------

    def fig8_coalescing_efficiency(self) -> FigureData:
        """Coalescing efficiency per benchmark and phase combination."""
        rows = []
        sums = {"mshr_only": 0.0, "dmc_only": 0.0, "combined": 0.0}
        for name in BENCHMARK_ORDER:
            vals = {
                cfg: self._cell(name, cfg).coalescing_efficiency
                for cfg in ("mshr_only", "dmc_only", "combined")
            }
            for cfg, v in vals.items():
                sums[cfg] += v
            rows.append(
                [name, vals["mshr_only"], vals["dmc_only"], vals["combined"]]
            )
        n = len(BENCHMARK_ORDER)
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
        for name in BENCHMARK_ORDER:
            raw = self._cell(name, "uncoalesced").bandwidth_efficiency
            coal = self._cell(name, "combined").bandwidth_efficiency
            raw_sum += raw
            coal_sum += coal
            rows.append([name, raw, coal])
        n = len(BENCHMARK_ORDER)
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
        sim = self._cell(benchmark, "combined")
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
        for name in BENCHMARK_ORDER:
            base = self._cell(name, "uncoalesced")
            coal = self._cell(name, "combined")
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
                "avg_transfer_saved_MB": total_saved / 1e6 / len(BENCHMARK_ORDER),
                "paper_avg_saved_GB": 33.25,
            },
        )

    # -- Figure 12 -------------------------------------------------------------

    def fig12_dmc_latency(self) -> FigureData:
        """Average first-phase coalescing latency in the DMC unit."""
        rows = []
        total = 0.0
        for name in BENCHMARK_ORDER:
            ns = self._cell(name, "combined").coalescer.dmc_latency_ns
            total += ns
            rows.append([name, ns])
        return FigureData(
            figure="Figure 12",
            description="Average latency of coalescing in the DMC unit (ns)",
            headers=["benchmark", "dmc_latency_ns"],
            rows=rows,
            summary={
                "avg_ns": total / len(BENCHMARK_ORDER),
                "paper_avg_ns": 7.1,
                "paper_max_ns": 9.0,
            },
        )

    # -- Figure 13 -------------------------------------------------------------

    def fig13_crq_fill_time(self) -> FigureData:
        """Average time to fill the CRQ from empty to capacity."""
        rows = []
        total = 0.0
        for name in BENCHMARK_ORDER:
            ns = self._cell(name, "combined").coalescer.crq_fill_ns
            total += ns
            rows.append([name, ns])
        return FigureData(
            figure="Figure 13",
            description="Average time cost of filling up the CRQ (ns)",
            headers=["benchmark", "crq_fill_ns"],
            rows=rows,
            summary={
                "avg_ns": total / len(BENCHMARK_ORDER),
                "paper_avg_ns": 15.86,
                "paper_max_ns": 34.76,
            },
        )

    # -- Figure 15 -------------------------------------------------------------

    def fig15_performance(self) -> FigureData:
        """Runtime improvement of the coalescer over the baseline."""
        rows = []
        total = 0.0
        for name in BENCHMARK_ORDER:
            base = self._cell(name, "uncoalesced")
            coal = self._cell(name, "combined")
            imp = coal.runtime_improvement_over(base)
            total += imp
            rows.append([name, imp])
        return FigureData(
            figure="Figure 15",
            description="Performance improvement with the memory coalescer",
            headers=["benchmark", "runtime_improvement"],
            rows=rows,
            summary={
                "avg_improvement": total / len(BENCHMARK_ORDER),
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
