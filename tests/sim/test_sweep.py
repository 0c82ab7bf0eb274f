"""Tests for the parallel sweep engine (repro.sim.sweep / shard)."""

from pathlib import Path

import pytest

from repro.core.config import CoalescerConfig, UNCOALESCED_CONFIG
from repro.obs import MetricsRegistry
from repro.sim.driver import PlatformConfig, run_benchmark
from repro.sim.shard import (
    CHECKPOINT_SUFFIX,
    read_checkpoint,
    result_from_dict,
    result_to_dict,
    write_checkpoint,
)
from repro.sim.sweep import (
    FIGURE_CONFIGS,
    RunKey,
    SweepSpec,
    config_digest,
    run_sweep,
)

#: Tiny platform so the whole module stays fast.
SMALL = PlatformConfig(accesses=1_500)

#: A 2x2 grid: two benchmarks, two configs.
GRID = SweepSpec(
    platform=SMALL,
    benchmarks=("STREAM", "SG"),
    configs={"uncoalesced": UNCOALESCED_CONFIG, "combined": CoalescerConfig()},
)


@pytest.fixture(scope="module")
def stream_result():
    return run_benchmark("STREAM", platform=SMALL)


class TestSerialization:
    def test_platform_round_trip(self):
        original = PlatformConfig(
            accesses=2_000, seed=3, coalescer=CoalescerConfig(timeout_cycles=8)
        )
        assert PlatformConfig.from_dict(original.to_dict()) == original

    def test_result_round_trip_scalars(self, stream_result):
        back = result_from_dict(result_to_dict(stream_result))
        assert back.benchmark == stream_result.benchmark
        assert back.platform == stream_result.platform
        assert back.coalescing_efficiency == stream_result.coalescing_efficiency
        assert back.bandwidth_efficiency == stream_result.bandwidth_efficiency
        assert back.runtime_ns == stream_result.runtime_ns
        assert back.hmc.size_histogram == stream_result.hmc.size_histogram
        assert (
            back.coalescer.dmc.packets_by_lines
            == stream_result.coalescer.dmc.packets_by_lines
        )

    def test_checkpoint_round_trip_includes_registry(
        self, stream_result, tmp_path
    ):
        path = tmp_path / f"run{CHECKPOINT_SUFFIX}"
        header = {"benchmark": "STREAM", "config": "combined", "digest": "x" * 40}
        write_checkpoint(path, header, stream_result)
        loaded_header, loaded = read_checkpoint(path)
        assert loaded_header["benchmark"] == "STREAM"
        assert loaded.metrics is not None
        assert (
            loaded.metrics.as_flat_dict()
            == stream_result.metrics.as_flat_dict()
        )

    def test_truncated_checkpoint_rejected(self, tmp_path):
        path = tmp_path / f"bad{CHECKPOINT_SUFFIX}"
        path.write_text('{"kind": "sweep-run", "version": 1}\n')
        with pytest.raises(ValueError):
            read_checkpoint(path)


class TestSpec:
    def test_expand_is_deterministic_and_ordered(self):
        keys = [key for key, _ in GRID.expand()]
        assert keys == [key for key, _ in GRID.expand()]
        assert [k.label for k in keys] == [
            "STREAM/uncoalesced",
            "STREAM/combined",
            "SG/uncoalesced",
            "SG/combined",
        ]

    def test_filter_scopes_keys(self):
        keys = [key for key, _ in GRID.expand(filter="SG/")]
        assert [k.benchmark for k in keys] == ["SG", "SG"]

    def test_structurally_equal_configs_share_digest(self):
        a = config_digest(SMALL.with_coalescer(CoalescerConfig()))
        b = config_digest(SMALL.with_coalescer(CoalescerConfig()))
        assert a == b
        c = config_digest(SMALL.with_coalescer(CoalescerConfig(timeout_cycles=8)))
        assert a != c

    def test_figure_grid_covers_all_benchmarks_and_configs(self):
        spec = SweepSpec.figure_grid(SMALL)
        keys = [key for key, _ in spec.expand()]
        assert len(keys) == 12 * len(FIGURE_CONFIGS)


class TestInlineSweep:
    def test_matches_direct_runs(self, tmp_path):
        sweep = run_sweep(GRID, jobs=1, out_dir=tmp_path)
        assert sweep.ok and sweep.completed == 4 and sweep.skipped == 0
        direct = run_benchmark(
            "STREAM", platform=SMALL.with_coalescer(CoalescerConfig())
        )
        got = sweep.get("STREAM", "combined")
        assert got.coalescing_efficiency == direct.coalescing_efficiency
        assert got.runtime_ns == direct.runtime_ns
        assert got.metrics.as_flat_dict() == direct.metrics.as_flat_dict()

    def test_writes_one_checkpoint_per_run(self, tmp_path):
        run_sweep(GRID, jobs=1, out_dir=tmp_path)
        assert len(list(tmp_path.glob(f"*{CHECKPOINT_SUFFIX}"))) == 4

    def test_merged_registry_equals_serial_merge(self, tmp_path):
        sweep = run_sweep(GRID, jobs=1, out_dir=tmp_path)
        serial = MetricsRegistry()
        for key, platform in GRID.expand():
            serial.merge(run_benchmark(key.benchmark, platform=platform).metrics)
        assert sweep.registry.as_flat_dict() == serial.as_flat_dict()


class TestResume:
    def test_preseeded_dir_skips_everything(self, tmp_path):
        run_sweep(GRID, jobs=1, out_dir=tmp_path)
        again = run_sweep(GRID, jobs=1, out_dir=tmp_path, resume=True)
        assert again.completed == 0
        assert again.skipped == 4
        assert len(again.results) == 4

    def test_deleted_checkpoint_reruns_only_that_key(self, tmp_path):
        first = run_sweep(GRID, jobs=1, out_dir=tmp_path)
        victim = next(iter(first.results))
        (tmp_path / (victim.stem + CHECKPOINT_SUFFIX)).unlink()
        again = run_sweep(GRID, jobs=1, out_dir=tmp_path, resume=True)
        assert again.completed == 1
        assert again.skipped == 3
        assert list(again.results) == list(first.results)

    def test_corrupt_checkpoint_is_rerun(self, tmp_path):
        first = run_sweep(GRID, jobs=1, out_dir=tmp_path)
        victim = next(iter(first.results))
        (tmp_path / (victim.stem + CHECKPOINT_SUFFIX)).write_text("not json\n")
        again = run_sweep(GRID, jobs=1, out_dir=tmp_path, resume=True)
        assert again.completed == 1 and again.skipped == 3

    def test_without_resume_flag_everything_reruns(self, tmp_path):
        run_sweep(GRID, jobs=1, out_dir=tmp_path)
        again = run_sweep(GRID, jobs=1, out_dir=tmp_path)
        assert again.completed == 4 and again.skipped == 0


BROKEN = SweepSpec(
    platform=SMALL,
    benchmarks=("STREAM", "NOPE"),
    configs={"combined": CoalescerConfig()},
)


class TestFailures:
    def test_inline_exception_becomes_failed_run(self):
        sweep = run_sweep(BROKEN, jobs=1, retries=0)
        assert not sweep.ok
        [failure] = sweep.failures
        assert failure.key.label == "NOPE/combined"
        assert "UnknownBenchmark" in failure.error
        assert failure.attempts == 1
        # the healthy shard still completed
        assert sweep.get("STREAM", "combined").coalescer.llc_requests > 0

    def test_worker_exception_becomes_failed_run_with_traceback(self):
        sweep = run_sweep(BROKEN, jobs=2, retries=1)
        [failure] = sweep.failures
        assert failure.key.label == "NOPE/combined"
        assert "UnknownBenchmark" in failure.error
        assert "Traceback" in failure.traceback
        assert failure.attempts == 2
        assert len(sweep.results) == 1

    def test_timeout_terminates_stuck_worker(self):
        heavy = SweepSpec(
            platform=PlatformConfig(accesses=400_000),
            benchmarks=("STREAM",),
            configs={"combined": CoalescerConfig()},
        )
        sweep = run_sweep(heavy, jobs=1, timeout=0.2, retries=0)
        [failure] = sweep.failures
        assert "timed out" in failure.error


class TestParallelParity:
    def test_checkpoints_byte_identical_across_jobs(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_sweep(GRID, jobs=1, out_dir=serial_dir)
        run_sweep(GRID, jobs=2, out_dir=parallel_dir)
        names = sorted(p.name for p in serial_dir.iterdir())
        assert names == sorted(p.name for p in parallel_dir.iterdir())
        for name in names:
            assert (serial_dir / name).read_bytes() == (
                parallel_dir / name
            ).read_bytes()

    def test_result_order_and_registry_jobs_invariant(self):
        serial = run_sweep(GRID, jobs=1)
        parallel = run_sweep(GRID, jobs=2)
        assert list(serial.results) == list(parallel.results)
        assert (
            serial.registry.as_flat_dict() == parallel.registry.as_flat_dict()
        )


class TestSweepReport:
    def test_load_and_summarize_checkpoint_dir(self, tmp_path):
        from repro.analysis.sweep_report import (
            format_sweep_summary,
            load_sweep_dir,
            merged_sweep_registry,
        )

        sweep = run_sweep(GRID, jobs=1, out_dir=tmp_path)
        runs = load_sweep_dir(tmp_path)
        assert len(runs) == 4
        assert all(isinstance(key, RunKey) for key, _ in runs)
        table = format_sweep_summary(runs)
        assert "STREAM" in table and "combined" in table
        # Gauges are last-writer-wins and float sums depend on addition
        # order, so merge the loaded runs in the sweep's expansion order
        # and compare approximately.
        expansion = [key.label for key in sweep.results]
        ordered = sorted(runs, key=lambda kv: expansion.index(kv[0].label))
        merged = merged_sweep_registry(ordered)
        assert merged.as_flat_dict() == pytest.approx(
            sweep.registry.as_flat_dict()
        )
