"""Parallel parameter-sweep engine with checkpoint/resume.

The paper's evaluation (Figures 8-15) is a grid of
``benchmark x coalescer-config`` simulations; sensitivity studies
multiply that grid by queue depths, timeouts, packet sizes and so on.
This module turns such a grid into a declarative :class:`SweepSpec`,
expands it into a deterministic list of :class:`RunKey`\\ s, shards the
runs across worker processes, and folds the shards back together:

* every completed run is checkpointed to its own JSON-lines file (see
  :mod:`repro.sim.shard`), so an interrupted sweep resumes by skipping
  already-checkpointed keys (``resume=True``);
* workers are sandboxed: a per-run ``timeout`` kills stuck shards, a
  crash or exception is retried up to ``retries`` times and then
  recorded as a structured :class:`FailedRun` -- one bad run never
  aborts the sweep;
* each worker's :class:`~repro.obs.metrics.MetricsRegistry` rides home
  inside its checkpoint and is merged -- in deterministic expansion
  order, independent of completion order -- into the sweep-level
  registry on :class:`SweepResult`.

``python -m repro sweep`` is the CLI face of this module;
:class:`repro.sim.experiments.EvaluationSuite` and
:class:`repro.api.Session` sit on top of it.
"""

from __future__ import annotations

import json
import logging
import os
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from repro.core.config import (
    CoalescerConfig,
    DMC_ONLY_CONFIG,
    MSHR_ONLY_CONFIG,
    UNCOALESCED_CONFIG,
)
from repro.obs import MetricsRegistry
from repro.sim.driver import PlatformConfig, SimulationResult
from repro.sim.pool import _mp_context, run_pool
from repro.sim.shard import (
    CHECKPOINT_SUFFIX,
    FAILED_SUFFIX,
    execute_run,
    read_checkpoint,
)
from repro.workloads import BENCHMARKS

#: The named coalescer configurations of the paper's figure grid
#: (Figures 8-15).  ``EvaluationSuite.CONFIGS`` aliases this mapping.
FIGURE_CONFIGS: dict[str, CoalescerConfig] = {
    "uncoalesced": UNCOALESCED_CONFIG,
    "mshr_only": MSHR_ONLY_CONFIG,
    "dmc_only": DMC_ONLY_CONFIG,
    "combined": CoalescerConfig(),
}

#: Coalescer fields a ``--configs`` token may override inline, e.g.
#: ``combined@sorter_width=64@sorter_arch=two_phase``.  Deliberately
#: just the sorter axes for now: they are the digest-visible design
#: space the wide-sorter study sweeps, and each override re-validates
#: through :class:`CoalescerConfig`'s constructor.
SWEEP_CONFIG_KEYS = ("sorter_width", "sorter_arch")


def parse_config_token(token: str) -> tuple[str, CoalescerConfig]:
    """Resolve one ``--configs`` token to ``(name, config)``.

    A token is a figure-config name (``combined``) optionally followed
    by ``@key=value`` overrides drawn from :data:`SWEEP_CONFIG_KEYS`
    (``combined@sorter_width=64@sorter_arch=two_phase``).  The full
    token becomes the config's sweep name, so checkpoints, labels and
    summaries carry the design point.  Raises
    :class:`~repro.errors.ConfigError` on an unknown base name,
    unknown/malformed override key, or an override combination the
    coalescer itself rejects.
    """
    from dataclasses import replace

    from repro.errors import ConfigError

    base, *parts = token.split("@")
    if base not in FIGURE_CONFIGS:
        raise ConfigError(
            f"unknown config {base!r}; options: {', '.join(FIGURE_CONFIGS)}"
        )
    updates: dict[str, object] = {}
    for part in parts:
        key, sep, value = part.partition("=")
        if not sep or key not in SWEEP_CONFIG_KEYS:
            raise ConfigError(
                f"bad override {part!r} in config token {token!r}; "
                f"expected key=value with key in {SWEEP_CONFIG_KEYS}"
            )
        if key == "sorter_width":
            try:
                updates[key] = int(value)
            except ValueError:
                raise ConfigError(
                    f"sorter_width override must be an integer, got {value!r}"
                ) from None
        else:
            updates[key] = value
    # replace() re-runs CoalescerConfig.__post_init__, so an invalid
    # width/arch combination raises ConfigError here, at parse time.
    config = FIGURE_CONFIGS[base]
    if updates:
        config = replace(config, **updates)
    return token, config


def parse_config_tokens(tokens) -> dict[str, CoalescerConfig]:
    """Parse a ``--configs`` token list into a sweep ``configs`` map."""
    from repro.errors import ConfigError

    configs: dict[str, CoalescerConfig] = {}
    for token in tokens:
        name, config = parse_config_token(token)
        if name in configs:
            raise ConfigError(f"duplicate config token {name!r}")
        configs[name] = config
    return configs


Progress = Callable[[str], None]

logger = logging.getLogger("repro.sweep")


_CLAMP_WARNED = False


def clamp_jobs(jobs: int) -> int:
    """Cap a worker count at the machine's CPU count, logging the clamp.

    Sweep workers are CPU-bound simulators: oversubscribing cores buys
    only scheduler thrash.  :func:`run_sweep` clamps the worker count
    it actually spawns (``requested_jobs`` vs ``effective_jobs`` in
    :class:`SweepResult.metadata` record both sides); the user-facing
    entry points (``repro sweep`` and :meth:`repro.api.Session.sweep`)
    clamp early as well so the log line appears where the user typed
    the number.  The warning fires once per process; later clamps log
    at debug level.
    """
    global _CLAMP_WARNED
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        if _CLAMP_WARNED:
            logger.debug(
                "clamping --jobs %d to the machine's %d CPU(s)", jobs, cpus
            )
        else:
            _CLAMP_WARNED = True
            logger.warning(
                "clamping --jobs %d to the machine's %d CPU(s)", jobs, cpus
            )
        return cpus
    return jobs


def config_digest(platform: PlatformConfig) -> str:
    """Stable content hash of a full platform configuration.

    Two structurally equal configs digest identically no matter how
    they were constructed, so cache and checkpoint keys based on the
    digest dedupe equivalent runs.  (Alias for
    :meth:`PlatformConfig.content_digest`, the canonical definition.)
    """
    return platform.content_digest()


def _safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name)


@dataclass(frozen=True, order=True)
class RunKey:
    """Deterministic identity of one sweep shard."""

    benchmark: str
    config: str
    digest: str

    @property
    def label(self) -> str:
        """Human form used by ``--filter`` and progress lines."""
        return f"{self.benchmark}/{self.config}"

    @property
    def stem(self) -> str:
        """Checkpoint filename stem (safe, collision-resistant)."""
        return f"{_safe(self.benchmark)}__{_safe(self.config)}__{self.digest[:10]}"


@dataclass
class FailedRun:
    """A shard that exhausted its retries, with full forensics."""

    key: RunKey
    error: str
    traceback: str = ""
    attempts: int = 1


@dataclass
class SweepSpec:
    """Declarative description of a sweep grid.

    ``configs`` maps a name to either a :class:`CoalescerConfig`
    (applied over the base ``platform``) or a full
    :class:`PlatformConfig` override (for sweeps that vary cache
    geometry, HMC timing, trace length, ...).  Expansion order is
    benchmarks (outer) x configs (inner), in declaration order.
    """

    platform: PlatformConfig = field(default_factory=PlatformConfig)
    benchmarks: tuple[str, ...] = ()
    configs: Mapping[str, CoalescerConfig | PlatformConfig] = field(
        default_factory=lambda: dict(FIGURE_CONFIGS)
    )

    def __post_init__(self) -> None:
        if not self.benchmarks:
            self.benchmarks = tuple(BENCHMARKS)

    @classmethod
    def figure_grid(
        cls,
        platform: PlatformConfig | None = None,
        benchmarks: tuple[str, ...] | None = None,
    ) -> "SweepSpec":
        """The paper's full evaluation grid (12 benchmarks x 4 configs)."""
        return cls(
            platform=platform or PlatformConfig(accesses=24_000),
            benchmarks=tuple(benchmarks or BENCHMARKS),
            configs=dict(FIGURE_CONFIGS),
        )

    def platform_for(self, config: str) -> PlatformConfig:
        """The full platform one named config resolves to."""
        cfg = self.configs[config]
        if isinstance(cfg, PlatformConfig):
            return cfg
        return self.platform.with_coalescer(cfg)

    def expand(
        self, *, filter: str | None = None
    ) -> list[tuple[RunKey, PlatformConfig]]:
        """The deterministic run list; ``filter`` is a substring match
        against each key's ``benchmark/config`` label."""
        out = []
        for benchmark in self.benchmarks:
            for name in self.configs:
                platform = self.platform_for(name)
                key = RunKey(benchmark, name, config_digest(platform))
                if filter is not None and filter not in key.label:
                    continue
                out.append((key, platform))
        return out


@dataclass
class SweepResult:
    """Everything a finished sweep produced.

    ``results`` is ordered by spec expansion order regardless of the
    order shards completed in, so downstream consumers (figures,
    parity checks, reports) are jobs-count-invariant.
    """

    spec: SweepSpec
    keys: list[RunKey]
    results: dict[RunKey, SimulationResult]
    failures: list[FailedRun]
    registry: MetricsRegistry
    completed: int
    skipped: int
    out_dir: Path | None
    #: Execution provenance: which executor ran the sweep
    #: (``inline``/``pool``), the multiprocessing start
    #: method (``None`` for inline), and requested vs effective jobs
    #: -- so perf numbers are interpretable after the fact.
    metadata: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def get(self, benchmark: str, config: str) -> SimulationResult:
        """Look one run up by its human key."""
        for key, result in self.results.items():
            if key.benchmark == benchmark and key.config == config:
                return result
        raise KeyError(f"{benchmark}/{config} not in sweep results")


@dataclass
class _Pending:
    key: RunKey
    platform: PlatformConfig
    checkpoint: Path
    attempts: int = 0

    @property
    def fail_path(self) -> Path:
        return self.checkpoint.with_name(self.key.stem + FAILED_SUFFIX)

    def payload(self) -> dict:
        return {
            "benchmark": self.key.benchmark,
            "config": self.key.config,
            "digest": self.key.digest,
            "platform": self.platform.to_dict(),
        }


def _say(progress: Progress | None, msg: str) -> None:
    if progress is not None:
        progress(msg)


#: Valid ``executor`` arguments of :func:`run_sweep`.
EXECUTORS = ("auto", "inline", "pool")


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    out_dir: str | Path | None = None,
    resume: bool = False,
    timeout: float | None = None,
    retries: int = 1,
    filter: str | None = None,
    progress: Progress | None = None,
    trace_dir: str | Path | None = None,
    executor: str | None = None,
) -> SweepResult:
    """Execute a sweep spec and return the merged :class:`SweepResult`.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (with no ``timeout``) runs shards
        inline in this process -- but still through the identical
        checkpoint serialization, so per-run files are byte-identical
        to a parallel sweep's.  Counts above the machine's CPU count
        are clamped (oversubscribing CPU-bound simulators only buys
        scheduler thrash); ``metadata`` records both ``requested_jobs``
        and ``effective_jobs``.
    out_dir:
        Checkpoint directory (created if missing).  ``None`` uses a
        temporary directory discarded when the sweep finishes.
    resume:
        Skip keys whose checkpoint already exists and loads cleanly;
        corrupt or truncated checkpoints are deleted and re-run.
    timeout:
        Per-run wall-clock limit in seconds; a shard past its deadline
        is terminated and counts as a failed attempt.
    retries:
        Extra attempts per key after a crash/exception/timeout before
        it is recorded as a :class:`FailedRun`.
    filter:
        Substring filter on ``benchmark/config`` labels.
    progress:
        Callback for one-line progress messages (e.g. ``print``).
    trace_dir:
        On-disk :class:`~repro.trace.TraceStore` directory.  Every
        shard sharing a (benchmark, geometry, pacing) key then shares
        one LLC capture: inline runs via an in-process store, pool
        workers via the directory's atomically-written files, mapped
        zero-copy.  ``None`` still shares captures within an inline
        sweep or a pool worker (in memory).
    executor:
        Execution strategy.  ``"auto"``/``None`` picks ``"inline"``
        for ``jobs <= 1`` without a timeout and the persistent
        ``"pool"`` otherwise; ``"inline"`` forces single-process
        execution (incompatible with ``timeout``).  Both produce
        byte-identical checkpoints.
    """
    if executor is not None and executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    mode = executor if executor not in (None, "auto") else None
    if mode is None:
        mode = "inline" if (jobs <= 1 and timeout is None) else "pool"
    if mode == "inline" and timeout is not None:
        raise ValueError("executor='inline' cannot enforce a per-run timeout")

    expanded = spec.expand(filter=filter)
    tmp_dir: tempfile.TemporaryDirectory | None = None
    if out_dir is None:
        tmp_dir = tempfile.TemporaryDirectory(prefix="repro-sweep-")
        out_path = Path(tmp_dir.name)
    else:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)

    results: dict[RunKey, SimulationResult] = {}
    failures: list[FailedRun] = []
    pending: list[_Pending] = []
    skipped = 0
    try:
        for key, platform in expanded:
            ck = out_path / (key.stem + CHECKPOINT_SUFFIX)
            if resume and ck.exists():
                try:
                    _, result = read_checkpoint(ck)
                except (ValueError, json.JSONDecodeError, KeyError, TypeError):
                    ck.unlink()
                else:
                    results[key] = result
                    skipped += 1
                    _say(progress, f"skip {key.label} (checkpointed)")
                    continue
            pending.append(_Pending(key, platform, ck))

        total = len(pending)
        effective = 1 if mode == "inline" else max(1, min(clamp_jobs(jobs), total))
        metadata = {
            "executor": mode,
            "requested_jobs": jobs,
            "effective_jobs": effective,
            "start_method": None
            if mode == "inline"
            else _mp_context().get_start_method(),
            # The sorter design point each named config resolves to,
            # so a wide-sorter sweep's artifacts are self-describing
            # without re-parsing config tokens.
            "sorter": {
                name: {
                    "width": spec.platform_for(name).coalescer.sorter_width,
                    "arch": spec.platform_for(name).coalescer.sorter_arch,
                }
                for name in spec.configs
            },
        }
        if pending:
            if mode == "inline":
                _run_inline(
                    pending, total, results, failures, retries, progress, trace_dir
                )
            else:
                run_pool(
                    pending,
                    total,
                    results,
                    failures,
                    effective,
                    timeout,
                    retries,
                    progress,
                    trace_dir,
                )
    finally:
        if tmp_dir is not None:
            tmp_dir.cleanup()

    ordered = {key: results[key] for key, _ in expanded if key in results}
    key_order = {key: i for i, (key, _) in enumerate(expanded)}
    failures.sort(key=lambda f: key_order.get(f.key, len(key_order)))

    registry = MetricsRegistry()
    for result in ordered.values():
        if result.metrics is not None:
            registry.merge(result.metrics)

    return SweepResult(
        spec=spec,
        keys=[key for key, _ in expanded],
        results=ordered,
        failures=failures,
        registry=registry,
        completed=len(ordered) - skipped,
        skipped=skipped,
        out_dir=None if tmp_dir is not None else out_path,
        metadata=metadata,
    )


def _run_inline(
    pending: list[_Pending],
    total: int,
    results: dict[RunKey, SimulationResult],
    failures: list[FailedRun],
    retries: int,
    progress: Progress | None,
    trace_dir: str | Path | None = None,
) -> None:
    """Single-process execution path (identical checkpoint writes)."""
    import traceback as tb_mod

    from repro.trace import TraceStore

    # One store for the whole inline sweep: each benchmark's front end
    # runs once and every config cell replays it.
    store = TraceStore(trace_dir)
    done = 0
    for item in pending:
        while True:
            item.attempts += 1
            try:
                results[item.key] = execute_run(
                    item.payload(), item.checkpoint, trace_store=store
                )
            except Exception as exc:  # noqa: BLE001 - shard sandbox
                if item.attempts <= retries:
                    _say(progress, f"retry {item.key.label} ({exc})")
                    continue
                failures.append(
                    FailedRun(
                        item.key,
                        f"{type(exc).__name__}: {exc}",
                        tb_mod.format_exc(),
                        item.attempts,
                    )
                )
                _say(progress, f"FAIL {item.key.label}: {exc}")
            else:
                done += 1
                _say(progress, f"[{done}/{total}] {item.key.label} done")
            break

