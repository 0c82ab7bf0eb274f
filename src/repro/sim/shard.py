"""Shard execution and checkpoint serialization for sweeps.

One sweep shard is one ``(benchmark, coalescer-config)`` simulation,
executed inline or in a worker process.  This module owns everything
that has to cross the process boundary or survive an interrupted
sweep:

* lossless JSON conversion of :class:`~repro.sim.driver.SimulationResult`
  (the platform via :meth:`~repro.sim.driver.PlatformConfig.to_dict`,
  all stage stats, plus the per-run
  :class:`~repro.obs.metrics.MetricsRegistry`);
* the checkpoint file format -- JSON lines, one file per completed run:
  a ``{"kind": "sweep-run", ...}`` header, a ``{"kind": "result", ...}``
  payload, then the registry's own self-describing metric lines (the
  same shape ``repro stats --json`` emits);
* :func:`execute_run`, which runs one shard and checkpoints it.  Worker
  processes call it from :func:`repro.sim.pool.pool_worker_main`, which
  also writes the ``*.failed.json`` sidecar of a failed run so the
  parent never has to unpickle exceptions.

Checkpoints are written atomically (temp file + ``os.replace``) and
deterministically (``sort_keys`` everywhere), so the same run produces
byte-identical files no matter which worker -- or how many -- ran it.
The scheduler that shards runs across workers lives in
:mod:`repro.sim.sweep`.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from pathlib import Path
from typing import Any

from repro.cache.tracer import TracerStats
from repro.core.coalescer import CoalescerStats
from repro.core.crq import CRQStats
from repro.core.dmc import DMCStats
from repro.core.mshr import MSHRStats
from repro.core.pipeline import SortPipelineStats
from repro.errors import CheckpointError
from repro.hmc.device import HMCStats
from repro.obs.export import registry_from_payload, registry_to_json_lines

#: Checkpoint format version, bumped on incompatible layout changes.
CHECKPOINT_VERSION = 1

#: File suffix of one completed run's checkpoint.
CHECKPOINT_SUFFIX = ".jsonl"

#: Sidecar suffix recording a worker's structured failure.
FAILED_SUFFIX = ".failed.json"


def _scalar_fields(obj) -> dict[str, Any]:
    """Flat ``{field: value}`` view of a dataclass of scalars/dicts."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _int_keyed(d: dict) -> dict[int, int]:
    """JSON stringifies int dict keys; convert them back."""
    return {int(k): v for k, v in d.items()}


# -- results -----------------------------------------------------------------


def result_to_dict(result) -> dict:
    """JSON-able view of a :class:`SimulationResult` (minus registry).

    The metrics registry is serialized separately (it has its own
    line-oriented format) so checkpoint files stay streamable.
    """
    coal = result.coalescer
    return {
        "benchmark": result.benchmark,
        "platform": result.platform.to_dict(),
        "tracer": _scalar_fields(result.tracer),
        "coalescer": {
            "llc_requests": coal.llc_requests,
            "hmc_requests": coal.hmc_requests,
            "bypassed_requests": coal.bypassed_requests,
            "pipeline": _scalar_fields(coal.pipeline),
            "dmc": _scalar_fields(coal.dmc),
            "crq": _scalar_fields(coal.crq),
            "mshr": _scalar_fields(coal.mshr),
        },
        "hmc": _scalar_fields(result.hmc),
        "secondary_misses": result.secondary_misses,
        "trace_cycles": result.trace_cycles,
        "compute_cycles_per_access": result.compute_cycles_per_access,
    }


def result_from_dict(d: dict, metrics=None):
    """Inverse of :func:`result_to_dict`."""
    from repro.sim.driver import PlatformConfig, SimulationResult

    platform = PlatformConfig.from_dict(d["platform"])
    coal = d["coalescer"]
    dmc = dict(coal["dmc"])
    dmc["packets_by_lines"] = _int_keyed(dmc["packets_by_lines"])
    hmc = dict(d["hmc"])
    hmc["size_histogram"] = _int_keyed(hmc["size_histogram"])
    return SimulationResult(
        benchmark=d["benchmark"],
        platform=platform,
        tracer=TracerStats(**d["tracer"]),
        coalescer=CoalescerStats(
            llc_requests=coal["llc_requests"],
            hmc_requests=coal["hmc_requests"],
            bypassed_requests=coal["bypassed_requests"],
            pipeline=SortPipelineStats(**coal["pipeline"]),
            dmc=DMCStats(**dmc),
            crq=CRQStats(**coal["crq"]),
            mshr=MSHRStats(**coal["mshr"]),
            config=platform.coalescer,
        ),
        hmc=HMCStats(**hmc),
        secondary_misses=d["secondary_misses"],
        trace_cycles=d["trace_cycles"],
        compute_cycles_per_access=d["compute_cycles_per_access"],
        metrics=metrics,
    )


# -- checkpoint files --------------------------------------------------------


def write_checkpoint(path: str | Path, header: dict, result) -> Path:
    """Atomically write one completed run's checkpoint file.

    ``header`` identifies the run (benchmark, config name, digest); the
    file is self-contained -- :func:`read_checkpoint` needs nothing but
    the path.
    """
    path = Path(path)
    lines = [
        json.dumps(
            {"kind": "sweep-run", "version": CHECKPOINT_VERSION, **header},
            sort_keys=True,
        ),
        json.dumps({"kind": "result", **result_to_dict(result)}, sort_keys=True),
    ]
    if result.metrics is not None:
        lines.extend(registry_to_json_lines(result.metrics))
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    tmp.write_text("\n".join(lines) + "\n")
    os.replace(tmp, path)
    return path


def read_checkpoint(path: str | Path):
    """Load a checkpoint back into ``(header, SimulationResult)``.

    Raises :class:`repro.errors.CheckpointError` (a ``ValueError``) on
    truncated or unrecognizable files so the scheduler can treat them
    as missing and re-run the key.
    """
    path = Path(path)
    header: dict | None = None
    result_doc: dict | None = None
    metric_docs: list[dict] = []
    for raw in path.read_text().splitlines():
        raw = raw.strip()
        if not raw:
            continue
        doc = json.loads(raw)
        kind = doc.get("kind")
        if kind == "sweep-run":
            header = doc
        elif kind == "result":
            result_doc = doc
        else:
            metric_docs.append(doc)
    if header is None or result_doc is None:
        raise CheckpointError(f"checkpoint {path} is missing its header or result")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {header.get('version')!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    registry = registry_from_payload(metric_docs) if metric_docs else None
    return header, result_from_dict(result_doc, metrics=registry)


# -- shard execution ---------------------------------------------------------


def execute_run(payload: dict, checkpoint_path: str | Path | None, trace_store):
    """Run one shard and checkpoint it; returns the live result.

    ``payload`` is the scheduler's run description::

        {"benchmark": ..., "config": ..., "digest": ...,
         "platform": PlatformConfig.to_dict(...)}

    ``trace_store`` is the caller's :class:`~repro.trace.TraceStore`:
    the inline executor shares one across the sweep, and each pool
    worker keeps one for its whole life.  ``checkpoint_path=None``
    writes no checkpoint: an inline sweep without an output directory
    would never read it.
    """
    from repro.sim.driver import PlatformConfig, run_benchmark

    platform = PlatformConfig.from_dict(payload["platform"])
    result = run_benchmark(
        payload["benchmark"], platform=platform, trace_store=trace_store
    )
    if checkpoint_path is not None:
        header = {k: payload[k] for k in ("benchmark", "config", "digest")}
        write_checkpoint(checkpoint_path, header, result)
    return result
