#!/usr/bin/env python
"""Verify parallel-sweep parity against serial execution.

Runs a small 2 benchmarks x 2 configs sweep with ``--jobs 2``, then
re-runs every (benchmark, config) cell serially through
:func:`repro.sim.driver.run_benchmark`, and checks:

* each per-run result matches the serial run exactly (same flat
  metrics dict, same headline statistics);
* the sweep's merged :class:`MetricsRegistry` equals the registries of
  the serial runs merged in expansion order;
* the persistent-pool executor writes byte-identical checkpoints to
  the inline (``jobs=1``) executor for the same grid.

Exit status 0 on parity, 1 on any divergence.

Usage::

    PYTHONPATH=src python scripts/check_sweep_parity.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.core.config import CoalescerConfig, UNCOALESCED_CONFIG
from repro.obs import MetricsRegistry
from repro.sim.driver import PlatformConfig, run_benchmark
from repro.sim.sweep import SweepSpec, run_sweep

ACCESSES = 3_000
SPEC = SweepSpec(
    platform=PlatformConfig(accesses=ACCESSES),
    benchmarks=("STREAM", "SG"),
    configs={"uncoalesced": UNCOALESCED_CONFIG, "combined": CoalescerConfig()},
)


def main() -> int:
    problems: list[str] = []

    with tempfile.TemporaryDirectory(prefix="sweep-parity-") as out_dir:
        sweep = run_sweep(SPEC, jobs=2, out_dir=Path(out_dir), retries=0)
    if not sweep.ok:
        for failure in sweep.failures:
            problems.append(f"sweep run failed: {failure.key.label}: {failure.error}")

    serial = MetricsRegistry()
    for key, platform in SPEC.expand():
        direct = run_benchmark(key.benchmark, platform=platform)
        serial.merge(direct.metrics)
        got = sweep.results.get(key)
        if got is None:
            problems.append(f"{key.label}: missing from sweep results")
            continue
        for field in ("runtime_ns", "coalescing_efficiency", "bandwidth_efficiency"):
            a, b = getattr(got, field), getattr(direct, field)
            if a != b:
                problems.append(f"{key.label}: {field} differs: sweep={a} serial={b}")
        if got.metrics.as_flat_dict() != direct.metrics.as_flat_dict():
            problems.append(f"{key.label}: per-run metrics registry differs")

    merged, expected = sweep.registry.as_flat_dict(), serial.as_flat_dict()
    if merged != expected:
        diff = {
            name
            for name in merged.keys() | expected.keys()
            if merged.get(name) != expected.get(name)
        }
        problems.append(
            f"merged registry differs from serial merge in {len(diff)} "
            f"metric(s), e.g. {sorted(diff)[:5]}"
        )

    with tempfile.TemporaryDirectory(prefix="sweep-parity-exec-") as root:
        pool_dir, inline_dir = Path(root, "pool"), Path(root, "inline")
        pooled = run_sweep(SPEC, jobs=2, executor="pool", out_dir=pool_dir, retries=0)
        inlined = run_sweep(
            SPEC, jobs=1, executor="inline", out_dir=inline_dir, retries=0
        )
        for s, label in ((pooled, "pool"), (inlined, "inline")):
            for failure in s.failures:
                problems.append(
                    f"{label} executor run failed: {failure.key.label}: {failure.error}"
                )
        pool_names = sorted(p.name for p in pool_dir.iterdir())
        inline_names = sorted(p.name for p in inline_dir.iterdir())
        if pool_names != inline_names:
            problems.append(
                f"executor checkpoint sets differ: pool={pool_names} "
                f"inline={inline_names}"
            )
        else:
            for name in pool_names:
                if (pool_dir / name).read_bytes() != (inline_dir / name).read_bytes():
                    problems.append(
                        f"checkpoint {name}: pool bytes differ from inline bytes"
                    )
        if pooled.registry.as_flat_dict() != expected:
            problems.append("pool-executor merged registry differs from serial merge")

    if problems:
        print("sweep parity check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1

    cells = len(sweep.results)
    print(
        f"sweep parity OK: {cells} runs with --jobs 2 match serial "
        f"execution; merged registry ({len(merged)} flat metrics) identical; "
        f"pool and inline executors wrote byte-identical checkpoints"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
