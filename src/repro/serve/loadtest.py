"""Load-test harness behind ``python -m repro serve --load-test``.

Boots a real :class:`~repro.serve.server.ReproServer` (background
event-loop thread, ephemeral port) and drives it with N concurrent
asyncio clients -- each submits one job, polls with backoff, fetches
the result and re-verifies its digest client-side.  Clients spread
over a small set of distinct platform configs, so the run exercises
exactly the serving claims this layer makes:

* **zero errors** under admission control (clients treat 429 as
  back-off-and-retry, like production clients must);
* **duplicate submissions come from the cache** -- with D distinct
  configs and N clients, at least 90% of the N-D duplicates must
  complete with ``cached=True``;
* **one front-end capture per distinct front end** -- the trace-store
  ``puts`` counter is recorded for the report;
* **bit-exact serving** -- every fetched result's digest is recomputed
  from the deserialized payload, and each distinct config is also run
  through a direct local :class:`repro.Session` and compared.

The report (``BENCH_serve.json``) mirrors ``repro perf``'s shape:
schema-versioned, calibration-normalized throughput, and a checked-in
baseline (``benchmarks/serve/baseline.json``) that CI gates against
via :func:`check_report` / :func:`compare_serve_reports`.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

from repro.api import Session
from repro.errors import CapacityError, SchemaError
from repro.perf.digest import result_digest
from repro.perf.harness import calibration_seconds
from repro.serve.client import AsyncServeClient
from repro.serve.jobs import DONE, JobSpec
from repro.serve.scheduler import JobScheduler
from repro.serve.server import running_server
from repro.sim.driver import PlatformConfig
from repro.sim.sweep import FIGURE_CONFIGS

#: Serve-report schema version (bump on incompatible layout changes).
SERVE_SCHEMA = 1

#: Default distinct-config grid: every paper figure config on a small
#: but non-trivial access count, over two differently-shaped kernels.
DEFAULT_BENCHMARKS = ("STREAM", "SG")


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = int(round(q * (len(sorted_vals) - 1)))
    return sorted_vals[min(idx, len(sorted_vals) - 1)]


def build_specs(
    benchmarks=DEFAULT_BENCHMARKS, *, accesses: int = 3000, seed: int = 42
) -> list[JobSpec]:
    """The distinct-work grid: ``benchmarks`` x the four figure configs."""
    base = PlatformConfig(accesses=accesses, seed=seed)
    return [
        JobSpec(
            benchmark=benchmark,
            platform=base.with_coalescer(coalescer),
            label=config,
        )
        for benchmark in benchmarks
        for config, coalescer in FIGURE_CONFIGS.items()
    ]


async def _client_task(
    client: AsyncServeClient,
    spec: JobSpec,
    delay: float,
    counters,
    latencies: list[float],
    errors: list[str],
):
    """One simulated tenant conversation: submit -> poll -> fetch -> verify."""
    await asyncio.sleep(delay)
    start = time.perf_counter()
    try:
        status = None
        backoff = 0.05
        for _ in range(64):  # 429s are back-pressure, not failures
            try:
                status = await client.submit(spec)
                break
            except CapacityError:
                counters["throttled"] += 1
                await asyncio.sleep(backoff)
                backoff = min(backoff * 1.5, 0.5)
        if status is None:
            raise CapacityError("still throttled after 64 retries")
        if not status.terminal:
            status = await client.wait(status.job_id)
        if status.state != DONE:
            raise RuntimeError(
                f"job {status.job_id} ended {status.state}: {status.error}"
            )
        job_result = await client.result(status.job_id)
        if result_digest(job_result.result) != job_result.result_digest:
            raise AssertionError(
                f"digest mismatch on job {status.job_id}: wire payload does "
                "not reproduce the server's result digest"
            )
        latencies.append(time.perf_counter() - start)
        counters["ok"] += 1
        if status.cached:
            counters["cached"] += 1
        counters[f"digest:{spec.benchmark}/{spec.label}"] = (
            job_result.result_digest
        )
    except Exception as exc:  # noqa: BLE001 - every failure is report data
        errors.append(f"{spec.benchmark}/{spec.label}: {type(exc).__name__}: {exc}")


async def _drive(
    server, specs: list[JobSpec], clients: int, tenants: int, ramp_seconds: float
):
    client = AsyncServeClient(server.host, server.port)
    counters: dict = {"ok": 0, "cached": 0, "throttled": 0}
    latencies: list[float] = []
    errors: list[str] = []
    tasks = []
    for i in range(clients):
        spec = specs[i % len(specs)]
        tenant_spec = JobSpec(
            benchmark=spec.benchmark,
            platform=spec.platform,
            tenant=f"tenant-{i % tenants:03d}",
            label=spec.label,
        )
        delay = (i / clients) * ramp_seconds if clients > 1 else 0.0
        tasks.append(
            _client_task(client, tenant_spec, delay, counters, latencies, errors)
        )
    start = time.perf_counter()
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - start
    return counters, latencies, errors, wall


def run_load_test(
    clients: int = 1000,
    *,
    benchmarks=DEFAULT_BENCHMARKS,
    accesses: int = 3000,
    seed: int = 42,
    tenants: int = 32,
    workers: int = 4,
    executor: str = "thread",
    run_timeout: float | None = None,
    ramp_seconds: float = 0.5,
    verify_direct: bool = True,
    progress=None,
) -> dict:
    """Run the full load test and return the ``BENCH_serve.json`` report.

    ``tenants`` shards the clients across that many tenant identities;
    the scheduler's per-tenant quota is sized so a well-behaved load
    never exhausts it (throttled submissions retry and count in the
    report, they are not errors).  ``verify_direct=True`` additionally
    runs every distinct config through a fresh local Session and
    cross-checks the served digests.  ``run_timeout`` bounds each run
    as in the server (it needs ``executor="process"``; the scheduler
    raises :class:`~repro.errors.ConfigError` otherwise).
    """

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    specs = build_specs(benchmarks, accesses=accesses, seed=seed)
    distinct = len(specs)
    quota = max(8, -(-clients // max(1, tenants)) + 8)
    scheduler = JobScheduler(
        session=Session(accesses=accesses, seed=seed),
        workers=workers,
        queue_limit=max(64, distinct * 2),
        tenant_quota=quota,
        executor=executor,
        run_timeout=run_timeout,
    )
    say(
        f"load test: {clients} clients over {distinct} distinct configs, "
        f"{tenants} tenants (quota {quota}), {workers} {executor} workers"
    )
    try:
        with running_server(scheduler) as server:
            counters, latencies, errors, wall = asyncio.run(
                _drive(server, specs, clients, tenants, ramp_seconds)
            )
        stats = scheduler.stats()
    finally:
        scheduler.close(timeout=10.0)

    served_digests = {
        key.split("digest:", 1)[1]: value
        for key, value in counters.items()
        if key.startswith("digest:")
    }
    direct_mismatches: list[str] = []
    if verify_direct:
        say("verifying served digests against a direct local Session")
        reference = Session(accesses=accesses, seed=seed)
        for spec in specs:
            name = f"{spec.benchmark}/{spec.label}"
            expected = result_digest(
                reference.run(spec.benchmark, platform=spec.platform)
            )
            served = served_digests.get(name)
            if served is not None and served != expected:
                direct_mismatches.append(name)

    latencies.sort()
    duplicates = max(0, counters["ok"] - distinct)
    hit_rate = (counters["cached"] / duplicates) if duplicates else 1.0
    throughput = (counters["ok"] / wall) if wall > 0 else 0.0
    calibration = calibration_seconds()
    report = {
        "schema": SERVE_SCHEMA,
        "generated_by": "python -m repro serve --load-test",
        "clients": clients,
        "distinct_configs": distinct,
        "benchmarks": list(benchmarks),
        "accesses": accesses,
        "seed": seed,
        "tenants": tenants,
        "workers": workers,
        "executor": executor,
        "completed": counters["ok"],
        "errors": len(errors),
        "error_samples": errors[:10],
        "throttled_retries": counters["throttled"],
        "wall_seconds": wall,
        "throughput_rps": throughput,
        "calibration_seconds": calibration,
        "normalized_throughput": throughput * calibration,
        "latency_seconds": {
            "p50": _percentile(latencies, 0.50),
            "p90": _percentile(latencies, 0.90),
            "p99": _percentile(latencies, 0.99),
            "max": latencies[-1] if latencies else 0.0,
            "mean": (sum(latencies) / len(latencies)) if latencies else 0.0,
        },
        "cache": {
            "duplicate_requests": duplicates,
            "cached_completions": counters["cached"],
            "duplicate_hit_rate": hit_rate,
        },
        "trace_store": stats.get("trace_store", {}),
        "scheduler_counters": stats.get("counters", {}),
        "result_digests": dict(sorted(served_digests.items())),
        "direct_digest_mismatches": direct_mismatches,
    }
    say(
        f"done: {counters['ok']}/{clients} ok, {len(errors)} errors, "
        f"p50 {report['latency_seconds']['p50'] * 1e3:.1f} ms, "
        f"p99 {report['latency_seconds']['p99'] * 1e3:.1f} ms, "
        f"{throughput:,.0f} req/s, hit rate {hit_rate:.1%}"
    )
    return report


# -- gating ------------------------------------------------------------------


def check_report(report: dict, *, min_hit_rate: float = 0.9) -> list[str]:
    """Self-contained acceptance checks on one serve report.

    Returns human-readable problems (empty means the report passes):
    any client error, a duplicate-cache hit rate under
    ``min_hit_rate``, or a served digest that disagrees with the
    direct-Session reference run.
    """
    problems: list[str] = []
    if report.get("errors"):
        samples = "; ".join(report.get("error_samples", [])[:3])
        problems.append(f"{report['errors']} client errors ({samples})")
    completed = report.get("completed", 0)
    if completed < report.get("clients", 0):
        problems.append(
            f"only {completed}/{report.get('clients')} clients completed"
        )
    hit_rate = report.get("cache", {}).get("duplicate_hit_rate", 0.0)
    if hit_rate < min_hit_rate:
        problems.append(
            f"duplicate-cache hit rate {hit_rate:.1%} below {min_hit_rate:.0%}"
        )
    if report.get("direct_digest_mismatches"):
        problems.append(
            "served digests diverge from direct Session runs: "
            + ", ".join(report["direct_digest_mismatches"])
        )
    return problems


def compare_serve_reports(
    current: dict, baseline: dict, *, threshold: float = 0.5
) -> list[str]:
    """Gate a serve report against the checked-in baseline.

    Digests are compared exactly whenever the workload parameters
    match (a mismatch means serving changed behaviour); throughput is
    compared calibration-normalized with a generous ``threshold`` --
    serving throughput is far noisier than the kernel perf suite.
    """
    problems: list[str] = []
    params = ("benchmarks", "accesses", "seed", "distinct_configs")
    same_params = all(current.get(k) == baseline.get(k) for k in params)
    if same_params:
        base_digests = baseline.get("result_digests", {})
        for name, digest in sorted(current.get("result_digests", {}).items()):
            expected = base_digests.get(name)
            if expected is not None and digest != expected:
                problems.append(
                    f"{name}: served digest {digest[:12]} != baseline "
                    f"{expected[:12]} (behaviour changed)"
                )
    base_norm = baseline.get("normalized_throughput") or 0.0
    cur_norm = current.get("normalized_throughput") or 0.0
    if base_norm > 0:
        ratio = cur_norm / base_norm
        if ratio < 1.0 - threshold:
            problems.append(
                f"normalized throughput {cur_norm:.4f} is {ratio:.2f}x the "
                f"baseline {base_norm:.4f} (threshold {1.0 - threshold:.2f}x)"
            )
    return problems


def save_serve_report(report: dict, path: str | Path) -> Path:
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def load_serve_report(path: str | Path) -> dict:
    report = json.loads(Path(path).read_text())
    if report.get("schema") != SERVE_SCHEMA:
        raise SchemaError(
            f"{path}: unsupported serve report schema {report.get('schema')!r}"
        )
    return report
