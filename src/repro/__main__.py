"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the 12 benchmarks and their suites.
``run BENCHMARK``
    Run one benchmark end to end (baseline vs coalesced) and print the
    headline metrics.
``figures``
    Regenerate every paper figure as text tables (the one-shot
    equivalent of ``pytest benchmarks/ --benchmark-only``).
``disasm KERNEL``
    Assemble one of the RV64IM kernels and print its disassembly.
``trace BENCHMARK FILE``
    Capture a benchmark's LLC trace to a file (or summarize an
    existing trace with ``--summary``).
``stats BENCHMARK``
    Run one benchmark and dump its full metrics registry -- every
    stage counter, gauge and histogram -- as a table or, with
    ``--json``, as self-describing JSON lines.
``profile BENCHMARK``
    Run one benchmark under a wall-clock profiler and print where the
    simulator itself spends time (trace generation vs coalescing).
``sweep``
    Run the benchmark x config evaluation grid through the parallel
    sweep engine: ``--jobs N`` worker processes, per-run checkpoints
    in ``--out DIR``, ``--resume`` to skip already-checkpointed runs,
    ``--filter``/``--timeout`` to scope and bound the shards, and
    ``--summarize DIR`` to report a checkpoint directory without
    running anything.
``perf``
    Measure the simulator's own speed: run the perf case suite
    (best-of-``--repeats`` wall time, simulated requests/second and a
    result digest per case), write the report to ``--out`` (default
    the untracked ``BENCH_perf.local.json``), and compare against the
    checked-in baseline, failing on throughput regressions
    beyond ``--threshold`` or on any digest mismatch.  ``--filter``
    scopes the suite (substring or glob over case names), ``--list``
    prints the case names instead of running.
``serve``
    Run the multi-tenant job server (``docs/serving.md``): an asyncio
    HTTP front end over a shared Session with digest-keyed result
    caching, cross-tenant trace sharing, per-tenant quotas and
    graceful-shutdown checkpointing.  ``--load-test N`` instead drives
    a private server with N concurrent clients and writes
    ``BENCH_serve.json``, gated against
    ``benchmarks/serve/baseline.json``.

``run``/``stats``/``profile`` take ``--engine object|vector`` to pick
the kernel execution engine (bit-identical results either way; see
``docs/architecture.md``).
"""

from __future__ import annotations

import argparse
import os
import sys


def _cmd_list(_args) -> int:
    from repro.analysis.report import format_table
    from repro.workloads import BENCHMARKS, get_workload

    rows = []
    for name in BENCHMARKS:
        w = get_workload(name)
        rows.append(
            [name, w.suite, w.element_size, w.compute_cycles_per_access]
        )
    print(
        format_table(
            ["benchmark", "suite", "element_B", "compute_cy/access"], rows
        )
    )
    return 0


def _cmd_run(args) -> int:
    from repro.analysis.report import format_table
    from repro.sim.driver import (
        PlatformConfig,
        run_baseline_and_coalesced,
        runtime_improvement,
    )

    platform = PlatformConfig(accesses=args.accesses, seed=args.seed)
    # Both runs share one LLC capture through the default trace store.
    base, coal = run_baseline_and_coalesced(
        args.benchmark, platform=platform, engine=args.engine
    )
    rows = [
        ["LLC requests", base.coalescer.llc_requests, coal.coalescer.llc_requests],
        ["HMC requests", base.hmc.requests, coal.hmc.requests],
        ["coalescing efficiency", "-", f"{coal.coalescing_efficiency:.2%}"],
        ["bandwidth efficiency", f"{base.bandwidth_efficiency:.2%}", f"{coal.bandwidth_efficiency:.2%}"],
        ["runtime (us)", f"{base.runtime_ns / 1e3:.1f}", f"{coal.runtime_ns / 1e3:.1f}"],
    ]
    print(format_table(["metric", "baseline", "coalesced"], rows, title=args.benchmark))
    print(f"runtime improvement: {runtime_improvement(base, coal):.2%}")
    return 0


def _cmd_figures(args) -> int:
    from repro.analysis.export import save_figure_svgs, save_figures
    from repro.analysis.report import format_figure
    from repro.api import Session

    figures = Session(
        accesses=args.accesses, jobs=args.jobs, trace_dir=args.trace_dir
    ).figures()
    for data in figures:
        print()
        print(format_figure(data))
    if args.json:
        path = save_figures(figures, args.json)
        print(f"\nwrote {path}")
    if args.svg_dir:
        paths = save_figure_svgs(figures, args.svg_dir)
        print(f"wrote {len(paths)} SVG files to {args.svg_dir}")
    return 0


def _cmd_disasm(args) -> int:
    from repro.riscv.disasm import disassemble
    from repro.riscv.programs import ALL_KERNELS

    if args.kernel not in ALL_KERNELS:
        print(
            f"unknown kernel {args.kernel!r}; options: {', '.join(ALL_KERNELS)}",
            file=sys.stderr,
        )
        return 2
    kernel = ALL_KERNELS[args.kernel]()
    words = kernel.assemble()
    for line in disassemble(words, base_addr=0x1000, with_addresses=True):
        print(line)
    return 0


def _cmd_trace_store(args) -> int:
    """The ``trace ls`` / ``trace info`` / ``trace gc`` store actions."""
    from pathlib import Path

    from repro.analysis.report import format_table
    from repro.trace import TraceBuffer, TraceError, TraceStore

    action = args.benchmark
    if action == "info":
        if not args.file:
            print("trace info requires a trace file (or name)", file=sys.stderr)
            return 2
        path = Path(args.file)
        if not path.exists() and args.trace_dir:
            path = Path(args.trace_dir) / args.file
        try:
            buf = TraceBuffer.load(path)
        except (OSError, TraceError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 1
        rows = [["records", len(buf)], ["last_cycle", buf.last_cycle]]
        for k, v in sorted(buf.meta.items()):
            if k == "key":
                continue
            rows.append([k, v])
        for k, v in sorted((buf.meta.get("key") or {}).items()):
            rows.append([f"key.{k}", v])
        print(format_table(["field", "value"], rows, title=str(path)))
        return 0

    if not args.trace_dir:
        print(f"trace {action} requires --trace-dir DIR", file=sys.stderr)
        return 2
    store = TraceStore(args.trace_dir)
    if action == "gc":
        removed = store.gc(drop_all=args.all)
        what = "entries" if args.all else "unreadable entries"
        print(f"removed {len(removed)} {what} from {args.trace_dir}")
        for path in removed:
            print(f"  {path.name}")
        return 0

    rows = []
    for path, buf in store.entries():
        if buf is None:
            rows.append([path.name, "<corrupt>", "-", "-", "-", path.stat().st_size])
        else:
            key = buf.meta.get("key") or {}
            rows.append(
                [
                    path.name,
                    buf.meta.get("benchmark", "?"),
                    len(buf),
                    key.get("accesses", "-"),
                    key.get("seed", "-"),
                    path.stat().st_size,
                ]
            )
    if not rows:
        print(f"no traces under {args.trace_dir}")
        return 0
    print(
        format_table(
            ["file", "benchmark", "records", "accesses", "seed", "bytes"],
            rows,
            title=f"trace store: {args.trace_dir}",
        )
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.analysis.report import format_table
    from repro.cache.hierarchy import CacheHierarchy
    from repro.cache.tracefile import save_trace, trace_summary
    from repro.cache.tracer import MemoryTracer
    from repro.sim.driver import PlatformConfig
    from repro.workloads import get_workload

    if args.benchmark in ("ls", "info", "gc"):
        return _cmd_trace_store(args)

    if args.file is None:
        print("trace capture requires BENCHMARK FILE", file=sys.stderr)
        return 2
    if args.summary:
        stats = trace_summary(args.file)
        print(format_table(["metric", "value"], sorted(stats.items())))
        return 0

    platform = PlatformConfig(accesses=args.accesses, seed=args.seed)
    workload = get_workload(
        args.benchmark, num_threads=platform.num_threads, seed=platform.seed
    )
    hierarchy = CacheHierarchy(platform.hierarchy)
    tracer = MemoryTracer(hierarchy, cycles_per_access=platform.cycles_per_access)
    path = save_trace(
        tracer.trace(workload.accesses(platform.accesses)), args.file
    )
    print(
        f"wrote {tracer.stats.llc_requests} LLC requests "
        f"({tracer.stats.cpu_accesses} CPU accesses) to {path}"
    )
    return 0


def _cmd_stats(args) -> int:
    from repro.obs.export import (
        format_registry_table,
        registry_to_json_lines,
        write_json_lines,
    )
    from repro.sim.driver import PlatformConfig, run_benchmark

    platform = PlatformConfig(accesses=args.accesses, seed=args.seed)
    result = run_benchmark(args.benchmark, platform=platform, engine=args.engine)
    registry = result.metrics
    assert registry is not None
    if args.out:
        path = write_json_lines(
            registry,
            args.out,
            include_timeline=not args.no_timeline,
            header={"benchmark": result.benchmark, "accesses": args.accesses},
        )
        print(f"wrote {path}")
        return 0
    if args.json:
        for line in registry_to_json_lines(
            registry, include_timeline=not args.no_timeline
        ):
            print(line)
        return 0
    print(format_registry_table(registry, title=f"{result.benchmark} metrics"))
    return 0


def _cmd_profile(args) -> int:
    from repro.obs import PhaseProfiler
    from repro.sim.driver import PlatformConfig, run_benchmark

    platform = PlatformConfig(accesses=args.accesses, seed=args.seed)
    profiler = PhaseProfiler()
    result = run_benchmark(
        args.benchmark, platform=platform, profiler=profiler, engine=args.engine
    )
    print(profiler.format_table(title=f"{result.benchmark} simulator profile"))
    print(
        f"total {profiler.total() * 1e3:.1f} ms for "
        f"{result.tracer.cpu_accesses} accesses "
        f"({result.coalescer.llc_requests} LLC requests)"
    )
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis.sweep_report import format_sweep_summary, load_sweep_dir
    from repro.api import Session
    from repro.errors import ConfigError
    from repro.sim.sweep import parse_config_tokens

    if args.summarize:
        runs = load_sweep_dir(args.summarize)
        if not runs:
            print(f"no checkpoints under {args.summarize}", file=sys.stderr)
            return 2
        print(format_sweep_summary(runs, title=f"sweep: {args.summarize}"))
        print(f"{len(runs)} checkpointed runs")
        return 0

    configs = None
    if args.configs:
        # Tokens may carry @key=value sorter overrides, e.g.
        # combined@sorter_width=64@sorter_arch=two_phase.
        try:
            configs = parse_config_tokens(args.configs.split(","))
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    session = Session(accesses=args.accesses, seed=args.seed, trace_dir=args.trace_dir)
    sweep = session.sweep(
        benchmarks=tuple(args.benchmarks.split(",")) if args.benchmarks else None,
        configs=configs,
        jobs=args.jobs,
        out_dir=args.out,
        resume=args.resume,
        timeout=args.timeout,
        retries=args.retries,
        filter=args.filter,
        progress=None if args.quiet else print,
        executor=args.sweep_executor,
    )
    runs = list(sweep.results.items())
    if runs:
        print()
        print(format_sweep_summary(runs, title="sweep results"))
    print(
        f"\n{sweep.completed} run, {sweep.skipped} resumed, "
        f"{len(sweep.failures)} failed "
        f"({len(sweep.registry.names())} merged metrics)"
    )
    if sweep.out_dir is not None:
        print(f"checkpoints in {sweep.out_dir}")
    for failure in sweep.failures:
        print(
            f"FAILED {failure.key.label} after {failure.attempts} attempt(s): "
            f"{failure.error}",
            file=sys.stderr,
        )
    return 1 if sweep.failures else 0


def _update_baseline(report: dict, args) -> int:
    """``perf --update-baseline``: merge this run into the baseline.

    The digest gate: when a case in the existing baseline was re-run
    with identical parameters but produced a *different* result
    digest, refuse to overwrite (behaviour changed, which a baseline
    refresh must not paper over) unless ``--force``.  Cases only in
    the old baseline are kept, so suites can update independently, and
    so are the file's top-level fields (suite, repeats, calibration):
    a filtered re-record of a few cases does not describe the rest.
    Each case records its own repeats and calibration-normalized
    throughput.
    """
    from repro.perf import compare_reports, derive_speedups, load_report, save_report

    merged = report
    if os.path.exists(args.baseline):
        baseline = load_report(args.baseline)
        mismatched = [
            c.name
            for c in compare_reports(report, baseline, threshold=args.threshold)
            if c.digest_match is False
        ]
        if mismatched and not args.force:
            print(
                "refusing to update baseline: result digests changed for "
                + ", ".join(mismatched)
                + "\n(simulator behaviour differs from the baseline; pass "
                "--force if this is intentional)",
                file=sys.stderr,
            )
            return 1
        cases = dict(baseline.get("cases", {}))
        cases.update(report["cases"])
        merged = {**report, **baseline, "cases": cases}
        derived = derive_speedups(cases)
        merged.pop("derived", None)
        if derived:
            merged["derived"] = derived
    path = save_report(merged, args.baseline)
    print(f"updated baseline {path}")
    return 0


def _filter_cases(cases, pattern):
    """Scope a suite to case names matching ``pattern``.

    A pattern containing glob metacharacters (``*?[``) is matched with
    :func:`fnmatch.fnmatchcase`; anything else is a plain substring
    test, so ``--filter vector_`` picks out every kernel-engine kind.
    """
    if not pattern:
        return cases
    if any(ch in pattern for ch in "*?["):
        from fnmatch import fnmatchcase

        return tuple(c for c in cases if fnmatchcase(c.name, pattern))
    return tuple(c for c in cases if pattern in c.name)


def _cmd_perf(args) -> int:
    from repro.analysis.report import format_table
    from repro.perf import (
        compare_reports,
        get_suite,
        load_report,
        run_suite,
        save_report,
    )

    try:
        cases = get_suite(args.suite)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    cases = _filter_cases(cases, args.filter)
    if not cases:
        print(
            f"--filter {args.filter!r} matches no case in suite "
            f"{args.suite!r}",
            file=sys.stderr,
        )
        return 2
    if args.list:
        for case in cases:
            print(case.name)
        return 0

    report = run_suite(
        cases,
        repeats=args.repeats,
        suite_name=args.suite,
        progress=None if args.quiet else print,
    )
    out = save_report(report, args.out)
    print(f"wrote {out}")
    if args.update_baseline:
        return _update_baseline(report, args)
    if args.no_compare:
        return 0
    if not os.path.exists(args.baseline):
        print(
            f"no baseline at {args.baseline}; run with --update-baseline "
            "to create one",
            file=sys.stderr,
        )
        return 0

    baseline = load_report(args.baseline)
    comparisons = compare_reports(
        report, baseline, threshold=args.threshold
    )
    rows = []
    failed = False
    for c in comparisons:
        if c.digest_match is None:
            parity = "n/a"
        elif c.digest_match:
            parity = "ok"
        else:
            parity = "MISMATCH"
            failed = True
        if c.regressed:
            verdict = "REGRESSED"
        elif c.throughput_comparable:
            verdict = "ok"
        else:
            verdict = "n/a (worker count differs)"
        failed = failed or c.regressed
        rows.append(
            [
                c.name,
                f"{c.baseline_wall * 1e3:.1f}",
                f"{c.current_wall * 1e3:.1f}",
                f"{c.ratio:.2f}x",
                parity,
                verdict,
            ]
        )
    print(
        format_table(
            ["case", "base_ms", "now_ms", "norm_tput", "digest", "verdict"],
            rows,
            title=f"perf vs {args.baseline} (threshold {args.threshold:.0%})",
        )
    )
    return 1 if failed else 0


def _cmd_serve_loadtest(args) -> int:
    from repro.errors import ConfigError
    from repro.serve.loadtest import (
        check_report,
        compare_serve_reports,
        load_serve_report,
        run_load_test,
        save_serve_report,
    )

    try:
        report = run_load_test(
            clients=args.load_test,
            accesses=args.accesses,
            seed=args.seed,
            tenants=args.tenants,
            workers=args.workers,
            executor=args.executor,
            run_timeout=args.run_timeout,
            progress=None if args.quiet else print,
        )
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    out = save_serve_report(report, args.out)
    print(f"wrote {out}")
    problems = check_report(report)
    if args.update_baseline:
        save_serve_report(report, args.baseline)
        print(f"updated baseline {args.baseline}")
    elif os.path.exists(args.baseline):
        baseline = load_serve_report(args.baseline)
        problems += compare_serve_reports(
            report, baseline, threshold=args.threshold
        )
    else:
        print(
            f"no baseline at {args.baseline}; run with --update-baseline "
            "to create one",
            file=sys.stderr,
        )
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_serve(args) -> int:
    if args.load_test:
        if args.accesses is None:
            args.accesses = 3000
        return _cmd_serve_loadtest(args)
    if args.accesses is None:
        args.accesses = 24_000

    import asyncio
    import signal

    from repro.api import Session
    from repro.errors import ConfigError
    from repro.serve.scheduler import JobScheduler
    from repro.serve.server import ReproServer

    try:
        scheduler = JobScheduler(
            session=Session(
                accesses=args.accesses,
                seed=args.seed,
                trace_dir=args.trace_dir,
            ),
            workers=args.workers,
            queue_limit=args.queue_limit,
            tenant_quota=args.tenant_quota,
            retention=args.retention,
            executor=args.executor,
            checkpoint_dir=args.checkpoint_dir,
            run_timeout=args.run_timeout,
        )
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    server = ReproServer(scheduler, host=args.host, port=args.port)

    async def _main() -> int:
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, shutdown.set)
        await server.start()
        print(f"serving on {server.address} ({args.executor} executor, "
              f"{scheduler.workers} workers); Ctrl-C for graceful shutdown")
        await shutdown.wait()
        print("shutting down: draining running jobs ...")
        await server.stop()
        return 0

    try:
        return asyncio.run(_main())
    finally:
        summary = scheduler.close()
        print(
            f"drained: {summary['cancelled']} queued jobs cancelled, "
            f"{summary['checkpointed']} results checkpointed"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Memory Coalescing for Hybrid Memory Cube' (ICPP 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the 12 benchmarks").set_defaults(fn=_cmd_list)

    def add_engine_flag(p):
        from repro.kernels import DEFAULT_ENGINE, ENGINES

        p.add_argument(
            "--engine",
            choices=ENGINES,
            default=None,
            help="kernel execution engine: object (reference) or "
            f"vector (columnar fast paths; default {DEFAULT_ENGINE})",
        )

    run = sub.add_parser("run", help="run one benchmark, baseline vs coalesced")
    run.add_argument("benchmark")
    run.add_argument("--accesses", type=int, default=24_000)
    run.add_argument("--seed", type=int, default=0)
    add_engine_flag(run)
    run.set_defaults(fn=_cmd_run)

    figures = sub.add_parser("figures", help="regenerate every paper figure")
    figures.add_argument("--accesses", type=int, default=12_000)
    figures.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for the simulation grid (default: one per "
        "CPU; output is identical for any value)",
    )
    figures.add_argument("--json", help="archive figure data to this JSON file")
    figures.add_argument("--svg-dir", help="render each figure as SVG into this directory")
    figures.add_argument(
        "--trace-dir",
        help="persist captured LLC traces here and replay across configs",
    )
    figures.set_defaults(fn=_cmd_figures)

    sweep = sub.add_parser(
        "sweep",
        help="run the benchmark x config grid in parallel with checkpoints",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (clamped to the machine's CPU count)",
    )
    sweep.add_argument(
        "--executor",
        dest="sweep_executor",
        choices=("auto", "inline", "pool"),
        default=None,
        help="execution strategy: auto (default) picks inline for "
        "--jobs 1 and the persistent worker pool otherwise (both "
        "byte-identical)",
    )
    sweep.add_argument("--out", help="checkpoint directory (one file per run)")
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip runs already checkpointed in --out",
    )
    sweep.add_argument(
        "--filter",
        help="only run keys whose benchmark/config label contains this substring",
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-run wall-clock limit in seconds",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts per run after a crash or timeout (default 1)",
    )
    sweep.add_argument(
        "--benchmarks", help="comma-separated benchmark subset (default: all 12)"
    )
    sweep.add_argument(
        "--configs",
        help="comma-separated config tokens: a figure config "
        "(uncoalesced,mshr_only,dmc_only,combined) optionally with "
        "@key=value sorter overrides, e.g. "
        "combined@sorter_width=64@sorter_arch=two_phase",
    )
    sweep.add_argument("--accesses", type=int, default=12_000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--trace-dir",
        help="shared LLC trace store: each benchmark's front end runs "
        "once, every config replays it (shipped to worker processes)",
    )
    sweep.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress lines"
    )
    sweep.add_argument(
        "--summarize",
        metavar="DIR",
        help="summarize an existing checkpoint directory and exit",
    )
    sweep.set_defaults(fn=_cmd_sweep)

    disasm = sub.add_parser("disasm", help="disassemble a bundled RV64IM kernel")
    disasm.add_argument("kernel")
    disasm.set_defaults(fn=_cmd_disasm)

    trace = sub.add_parser(
        "trace",
        help="capture/summarize an LLC trace, or manage a trace store "
        "(trace ls|info|gc)",
    )
    trace.add_argument(
        "benchmark",
        nargs="?",
        default="STREAM",
        help="benchmark to capture, or a store action: ls, info, gc",
    )
    trace.add_argument(
        "file", nargs="?", help="output trace file (or the file for info)"
    )
    trace.add_argument("--accesses", type=int, default=24_000)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--summary", action="store_true", help="summarize FILE instead of writing it"
    )
    trace.add_argument(
        "--trace-dir", help="trace-store directory for ls/info/gc"
    )
    trace.add_argument(
        "--all",
        action="store_true",
        help="with gc: remove every entry, not just unreadable ones",
    )
    trace.set_defaults(fn=_cmd_trace)

    stats = sub.add_parser(
        "stats", help="dump one run's full metrics registry"
    )
    stats.add_argument("benchmark")
    stats.add_argument("--accesses", type=int, default=12_000)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument(
        "--json", action="store_true", help="emit JSON lines instead of a table"
    )
    stats.add_argument("--out", help="write JSON lines to this file")
    stats.add_argument(
        "--no-timeline",
        action="store_true",
        help="omit stage-timeline events from the JSON export",
    )
    add_engine_flag(stats)
    stats.set_defaults(fn=_cmd_stats)

    profile = sub.add_parser(
        "profile", help="wall-clock profile of the simulator itself"
    )
    profile.add_argument("benchmark")
    profile.add_argument("--accesses", type=int, default=12_000)
    profile.add_argument("--seed", type=int, default=0)
    add_engine_flag(profile)
    profile.set_defaults(fn=_cmd_profile)

    perf = sub.add_parser(
        "perf", help="measure simulator speed vs the checked-in baseline"
    )
    perf.add_argument(
        "--suite",
        default="smoke",
        help="case suite to run: smoke (CI), trace (capture/replay "
        "economics), sweep (executor throughput) or full "
        "(default: smoke)",
    )
    perf.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="runs per case; the fastest is reported (default 3)",
    )
    perf.add_argument(
        "--out",
        default="BENCH_perf.local.json",
        help="report path (default: BENCH_perf.local.json, which git "
        "ignores; CI names BENCH_perf.json and uploads it as a build "
        "artifact)",
    )
    perf.add_argument(
        "--baseline",
        default="benchmarks/perf/baseline.json",
        help="checked-in baseline report to compare against",
    )
    perf.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fail when normalized throughput drops more than this "
        "fraction (default 0.25)",
    )
    perf.add_argument(
        "--update-baseline",
        action="store_true",
        help="merge this run into the baseline instead of comparing "
        "(refuses on result-digest changes unless --force)",
    )
    perf.add_argument(
        "--force",
        action="store_true",
        help="with --update-baseline: overwrite even when result "
        "digests changed",
    )
    perf.add_argument(
        "--no-compare",
        action="store_true",
        help="only measure and write the report",
    )
    perf.add_argument(
        "--filter",
        help="only run cases whose name contains this substring "
        "(or matches it as a glob when it contains *?[)",
    )
    perf.add_argument(
        "--list",
        action="store_true",
        help="print the suite's case names (after --filter) and exit",
    )
    perf.add_argument(
        "--quiet", action="store_true", help="suppress per-case progress lines"
    )
    perf.set_defaults(fn=_cmd_perf)

    serve = sub.add_parser(
        "serve", help="run the multi-tenant job server (or its load test)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642, help="0 binds an ephemeral port"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="worker pool size (default 2)"
    )
    serve.add_argument(
        "--executor",
        choices=("thread", "process"),
        default="thread",
        help="run jobs on worker threads (shared in-memory caches) or "
        "each in its own worker process (default thread)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="max distinct queued runs before submissions get 429",
    )
    serve.add_argument(
        "--tenant-quota",
        type=int,
        default=8,
        help="max in-flight jobs per tenant (default 8)",
    )
    serve.add_argument(
        "--retention",
        type=int,
        default=256,
        help="result-cache entries kept before LRU eviction (0: unbounded)",
    )
    serve.add_argument(
        "--accesses",
        type=int,
        default=None,
        help="default platform accesses (server: 24000; load test: 3000)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--trace-dir", help="persist shared LLC captures in this directory"
    )
    serve.add_argument(
        "--checkpoint-dir",
        help="restore cached results from here on boot and checkpoint "
        "them back on graceful shutdown (sweep-compatible files)",
    )
    serve.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        help="per-run wall-clock bound in seconds, for the server and "
        "--load-test alike (needs --executor process)",
    )
    serve.add_argument(
        "--load-test",
        type=int,
        metavar="N",
        default=0,
        help="instead of serving: drive a private server with N "
        "concurrent clients and write the BENCH_serve.json report",
    )
    serve.add_argument(
        "--tenants",
        type=int,
        default=32,
        help="with --load-test: tenant identities to shard clients over",
    )
    serve.add_argument(
        "--out",
        default="BENCH_serve.json",
        help="with --load-test: report path (default BENCH_serve.json)",
    )
    serve.add_argument(
        "--baseline",
        default="benchmarks/serve/baseline.json",
        help="with --load-test: checked-in baseline to gate against",
    )
    serve.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="with --load-test: normalized-throughput regression "
        "tolerance (default 0.5)",
    )
    serve.add_argument(
        "--update-baseline",
        action="store_true",
        help="with --load-test: write this run as the new baseline",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    serve.set_defaults(fn=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
