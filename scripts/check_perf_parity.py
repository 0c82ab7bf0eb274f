#!/usr/bin/env python
"""Verify the optimized hot paths are bit-identical to the reference.

Two independent parity axes are checked, both through
:func:`repro.perf.digest.result_digest` (full result serialization
plus the flattened metrics registry -- equality means the same
``SimulationResult`` and metric values, bit for bit):

1. **MSHR parity.**  The indexed :class:`repro.core.mshr.DynamicMSHRFile`
   replaced the original linear-scan implementation, retained verbatim
   as :class:`repro.core.mshr_reference.ReferenceMSHRFile`.  Each cell
   runs twice end to end on the object engine -- fast path vs reference
   swapped in through the coalescer's ``DEFAULT_MSHR_FACTORY`` hook --
   so it compares the file's own offer and merge path, not the
   coalescing kernel's lean twin of it.

2. **Replay parity.**  The trace-materialization layer
   (:mod:`repro.trace`) captures the LLC miss stream on first use and
   replays it afterwards, skipping the workload generator and cache
   hierarchy entirely.  Each cell runs live, then capture-through-store,
   then replay-from-store; all three digests must be identical, and the
   replayed run must actually have hit the store.

3. **Engine parity.**  The columnar kernel engine
   (:mod:`repro.kernels`) re-executes capture and replay as batched
   NumPy passes; the object engine is retained verbatim as the
   reference.  Each cell runs end to end under ``engine="object"`` and
   ``engine="vector"`` and the two digests must be identical, and the
   vector run must actually have engaged the coalescing kernel (its
   ``engaged`` counter grew with zero fallbacks -- otherwise the cell
   compared the object loop with itself).

4. **HMC back-end parity.**  The batched HMC timing kernel
   (:mod:`repro.kernels.hmc`) replaces the scalar device walk behind
   the coalescing kernel whenever its envelope admits the stack.  Each
   cell runs under ``engine="object"``, under ``engine="vector"`` on a
   stack outside the envelope (a trivial ``HMCDevice`` subclass
   patched in as ``repro.sim.driver.HMCDevice``, so the kernel times
   packets through the driver's ``service_time`` closure), and under
   ``engine="vector"`` on the stock stack; all three digests must be
   identical.  The HMC kernel must have counted the subclass run as
   ``delegated`` and the stock run as ``engaged``, with zero fallbacks
   -- otherwise a leg silently measured another route.

5. **Wide-sorter parity.**  The two-phase/wide sorter architectures
   (:mod:`repro.core.sorting`) widen the coalescing window past the
   paper's n=16 and split the comparator schedule into a presort plus
   merge tree.  Each cell swaps the figure config's sorter for a wide
   design point and runs end to end under ``engine="object"`` and
   ``engine="vector"`` (which takes the batched two-phase path when
   the architecture has one); the digests must be identical.

Exit status 0 on parity, 1 on any divergence.

Usage::

    PYTHONPATH=src python scripts/check_perf_parity.py
"""

from __future__ import annotations

import sys
import tempfile

import repro.core.coalescer as coalescer_module
import repro.sim.driver as driver_module
from repro.core.mshr import DynamicMSHRFile
from repro.core.mshr_reference import ReferenceMSHRFile
from repro.hmc.device import HMCDevice
from repro.perf.digest import result_digest
from repro.sim.driver import PlatformConfig, run_benchmark
from repro.sim.sweep import FIGURE_CONFIGS
from repro.trace import TraceStore

ACCESSES = 3_000
#: (benchmark, figure config) cells covering every coalescer mode:
#: SG keeps the MSHR file saturated (merge-while-full paths), STREAM
#: exercises the DMC-dominant path, MG the uncoalesced baseline, and
#: FT the conventional MSHR-only mode.
CASES = (
    ("SG", "combined"),
    ("SG", "mshr_only"),
    ("STREAM", "dmc_only"),
    ("MG", "uncoalesced"),
    ("FT", "mshr_only"),
)

#: (benchmark, figure config) cells for live-vs-replay parity:
#: SparseLU is the front-end-dominated extreme (lowest miss fraction),
#: SG the back-end saturated one, and FT the uncoalesced baseline with
#: a mid-range miss mix.
REPLAY_CASES = (
    ("SparseLU", "combined"),
    ("SG", "combined"),
    ("FT", "uncoalesced"),
)

#: (benchmark, figure config) cells for the HMC back-end axis.  The
#: back end attaches behind the batched coalescing kernel, which runs
#: every figure config: SG saturates the vault queues behind the full
#: DMC+MSHR pipeline, SparseLU's hit-heavy stream exercises the
#: open-row fast path, and FT's MSHR-only run feeds it single-line
#: packets without the DMC unit.
HMC_CASES = (
    ("SG", "combined"),
    ("SparseLU", "combined"),
    ("FT", "mshr_only"),
)

#: (benchmark, figure config, sorter_width, sorter_arch) cells for the
#: wide-sorter axis: one single-phase widening (pure width scaling of
#: the generic comparator loop) and one two-phase point (presort +
#: merge-tree vector path, exercised only when the architecture
#: carries a presort width).
SORTER_CASES = (
    ("SG", "combined", 32, "single_phase"),
    ("SparseLU", "combined", 64, "two_phase"),
)


def run_digest(benchmark: str, config_name: str, factory) -> str:
    coalescer_module.DEFAULT_MSHR_FACTORY = factory
    try:
        result = run_benchmark(
            benchmark,
            platform=PlatformConfig(accesses=ACCESSES),
            coalescer=FIGURE_CONFIGS[config_name],
            engine="object",
        )
    finally:
        coalescer_module.DEFAULT_MSHR_FACTORY = DynamicMSHRFile
    return result_digest(result)


def check_mshr_parity(problems: list[str]) -> None:
    for benchmark, config_name in CASES:
        fast = run_digest(benchmark, config_name, DynamicMSHRFile)
        reference = run_digest(benchmark, config_name, ReferenceMSHRFile)
        label = f"{benchmark}/{config_name}"
        if fast != reference:
            problems.append(
                f"{label}: digest mismatch: fast={fast} reference={reference}"
            )
        else:
            print(f"  mshr   {label}: {fast[:16]}... OK")


def check_replay_parity(problems: list[str]) -> None:
    for benchmark, config_name in REPLAY_CASES:
        platform = PlatformConfig(accesses=ACCESSES)
        coalescer = FIGURE_CONFIGS[config_name]
        label = f"{benchmark}/{config_name}"
        live = result_digest(
            run_benchmark(benchmark, platform=platform, coalescer=coalescer)
        )
        with tempfile.TemporaryDirectory() as tmp:
            store = TraceStore(tmp)
            captured = result_digest(
                run_benchmark(
                    benchmark,
                    platform=platform,
                    coalescer=coalescer,
                    trace_store=store,
                )
            )
            replayed = result_digest(
                run_benchmark(
                    benchmark,
                    platform=platform,
                    coalescer=coalescer,
                    trace_store=store,
                )
            )
            hits = store.hits
        if not (live == captured == replayed):
            problems.append(
                f"{label}: live/capture/replay digests diverge: "
                f"live={live[:16]} captured={captured[:16]} "
                f"replayed={replayed[:16]}"
            )
        elif hits < 1:
            problems.append(
                f"{label}: replay run never hit the trace store "
                "(parity was live-vs-live, not live-vs-replay)"
            )
        else:
            print(f"  replay {label}: {live[:16]}... OK")


def check_engine_parity(problems: list[str]) -> None:
    from repro.kernels.coalesce import kernel_counters

    for benchmark, config_name in CASES:
        platform = PlatformConfig(accesses=ACCESSES)
        coalescer = FIGURE_CONFIGS[config_name]
        label = f"{benchmark}/{config_name}"
        obj = result_digest(
            run_benchmark(
                benchmark,
                platform=platform,
                coalescer=coalescer,
                engine="object",
            )
        )
        before = kernel_counters()
        vec = result_digest(
            run_benchmark(
                benchmark,
                platform=platform,
                coalescer=coalescer,
                engine="vector",
            )
        )
        after = kernel_counters()
        engaged = after["engaged"] - before["engaged"]
        fallbacks = after["fallbacks"] - before["fallbacks"]
        if obj != vec:
            problems.append(
                f"{label}: engine digest mismatch: "
                f"object={obj[:16]} vector={vec[:16]}"
            )
        elif engaged < 1:
            problems.append(
                f"{label}: coalescing kernel never engaged "
                "(parity was object-vs-object, not object-vs-kernel)"
            )
        elif fallbacks:
            problems.append(
                f"{label}: coalescing kernel fell back {fallbacks}x "
                "(digests matched only via the object fallback path)"
            )
        else:
            print(f"  engine {label}: {obj[:16]}... OK (engaged={engaged})")


class OutsideEnvelopeDevice(HMCDevice):
    """A stock device by behaviour, but not the exact type the HMC back
    end's envelope admits, so the kernel delegates its timing."""


def run_vector_digest(benchmark, platform, coalescer, device_cls):
    """One vector run on ``device_cls``; returns (digest, HMC deltas)."""
    from repro.kernels.hmc import kernel_counters

    driver_module.HMCDevice = device_cls
    try:
        before = kernel_counters()
        digest = result_digest(
            run_benchmark(
                benchmark,
                platform=platform,
                coalescer=coalescer,
                engine="vector",
            )
        )
        after = kernel_counters()
    finally:
        driver_module.HMCDevice = HMCDevice
    return digest, {
        k: after[k] - before[k] for k in ("engaged", "delegated", "fallbacks")
    }


def check_hmc_parity(problems: list[str]) -> None:
    for benchmark, config_name in HMC_CASES:
        platform = PlatformConfig(accesses=ACCESSES)
        coalescer = FIGURE_CONFIGS[config_name]
        label = f"{benchmark}/{config_name}"
        obj = result_digest(
            run_benchmark(
                benchmark,
                platform=platform,
                coalescer=coalescer,
                engine="object",
            )
        )
        closure, closure_counts = run_vector_digest(
            benchmark, platform, coalescer, OutsideEnvelopeDevice
        )
        backend, backend_counts = run_vector_digest(
            benchmark, platform, coalescer, HMCDevice
        )
        fallbacks = closure_counts["fallbacks"] + backend_counts["fallbacks"]
        if not (obj == closure == backend):
            problems.append(
                f"{label}: hmc digest mismatch: object={obj[:16]} "
                f"closure={closure[:16]} backend={backend[:16]}"
            )
        elif closure_counts["delegated"] < 1:
            problems.append(
                f"{label}: the subclassed device did not delegate "
                "(the closure leg never timed packets through the closure)"
            )
        elif backend_counts["engaged"] < 1:
            problems.append(
                f"{label}: hmc back end never engaged "
                "(parity was object-vs-closure, not object-vs-kernel)"
            )
        elif fallbacks:
            problems.append(
                f"{label}: hmc back end fell back {fallbacks}x "
                "(digests matched only via the object fallback path)"
            )
        else:
            print(
                f"  hmc    {label}: {obj[:16]}... OK "
                f"(delegated={closure_counts['delegated']}, "
                f"engaged={backend_counts['engaged']})"
            )


def check_sorter_parity(problems: list[str]) -> None:
    from dataclasses import replace

    for benchmark, config_name, width, arch in SORTER_CASES:
        platform = PlatformConfig(accesses=ACCESSES)
        coalescer = replace(
            FIGURE_CONFIGS[config_name], sorter_width=width, sorter_arch=arch
        )
        label = f"{benchmark}/{config_name}/w{width}/{arch}"
        obj = result_digest(
            run_benchmark(
                benchmark,
                platform=platform,
                coalescer=coalescer,
                engine="object",
            )
        )
        vec = result_digest(
            run_benchmark(
                benchmark,
                platform=platform,
                coalescer=coalescer,
                engine="vector",
            )
        )
        if obj != vec:
            problems.append(
                f"{label}: sorter digest mismatch: "
                f"object={obj[:16]} vector={vec[:16]}"
            )
        else:
            print(f"  sorter {label}: {obj[:16]}... OK")


def main() -> int:
    problems: list[str] = []
    check_mshr_parity(problems)
    check_replay_parity(problems)
    check_engine_parity(problems)
    check_hmc_parity(problems)
    check_sorter_parity(problems)

    if problems:
        print("perf parity check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1

    print(
        f"perf parity OK: {len(CASES)} MSHR cells, "
        f"{len(REPLAY_CASES)} live-vs-replay cells, "
        f"{len(CASES)} object-vs-vector engine cells and "
        f"{len(HMC_CASES)} HMC back-end cells and "
        f"{len(SORTER_CASES)} wide-sorter cells produce "
        "bit-identical digests"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
