"""Tests for the persistent worker pool executor (repro.sim.pool)."""

import logging
import multiprocessing
import os

import pytest

from repro.core.config import CoalescerConfig, UNCOALESCED_CONFIG
from repro.sim import pool as pool_mod
from repro.sim import shard
from repro.sim.driver import PlatformConfig
from repro.sim.pool import _mp_context, group_key_of, warn_spawn_once
from repro.sim.sweep import EXECUTORS, SweepSpec, clamp_jobs, run_sweep

SMALL = PlatformConfig(accesses=1_500)

GRID = SweepSpec(
    platform=SMALL,
    benchmarks=("STREAM", "SG"),
    configs={"uncoalesced": UNCOALESCED_CONFIG, "combined": CoalescerConfig()},
)

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="crash injection rides on fork inheritance"
)


class TestExecutorSelection:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            run_sweep(GRID, executor="bogus")
        assert EXECUTORS == ("auto", "inline", "pool")

    def test_inline_cannot_enforce_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            run_sweep(GRID, executor="inline", timeout=5.0)

    def test_auto_resolution_recorded_in_metadata(self):
        inline = run_sweep(GRID, jobs=1)
        assert inline.metadata["executor"] == "inline"
        assert inline.metadata["requested_jobs"] == 1
        assert inline.metadata["effective_jobs"] == 1
        assert inline.metadata["start_method"] is None

        pooled = run_sweep(GRID, jobs=2)
        assert pooled.metadata["executor"] == "pool"
        assert pooled.metadata["requested_jobs"] == 2
        assert pooled.metadata["start_method"] in (
            "fork",
            "spawn",
            "forkserver",
        )

    def test_timeout_forces_pool_even_single_job(self):
        sweep = run_sweep(GRID, jobs=1, timeout=300.0)
        assert sweep.metadata["executor"] == "pool"
        assert sweep.ok

    def test_effective_jobs_clamped_to_cpus(self, monkeypatch):
        monkeypatch.setattr("repro.sim.sweep.os.cpu_count", lambda: 2)
        sweep = run_sweep(GRID, jobs=64, executor="pool")
        assert sweep.metadata["requested_jobs"] == 64
        assert sweep.metadata["effective_jobs"] == 2
        assert sweep.ok


class TestClampJobs:
    def test_clamps_above_cpu_count(self, monkeypatch, caplog):
        monkeypatch.setattr("repro.sim.sweep.os.cpu_count", lambda: 2)
        monkeypatch.setattr("repro.sim.sweep._CLAMP_WARNED", False)
        with caplog.at_level(logging.WARNING, logger="repro.sweep"):
            assert clamp_jobs(8) == 2
        assert any("clamping" in r.message for r in caplog.records)

    def test_passes_through_at_or_below(self, monkeypatch):
        monkeypatch.setattr("repro.sim.sweep.os.cpu_count", lambda: 4)
        assert clamp_jobs(1) == 1
        assert clamp_jobs(4) == 4

    def test_warns_once_then_debug(self, monkeypatch, caplog):
        monkeypatch.setattr("repro.sim.sweep.os.cpu_count", lambda: 1)
        monkeypatch.setattr("repro.sim.sweep._CLAMP_WARNED", False)
        with caplog.at_level(logging.WARNING, logger="repro.sweep"):
            clamp_jobs(3)
            clamp_jobs(3)
        warnings = [
            r for r in caplog.records if r.levelno == logging.WARNING
        ]
        assert len(warnings) == 1


class TestPoolParity:
    def test_checkpoints_byte_identical_jobs_1_vs_4(self, tmp_path):
        one = tmp_path / "j1"
        four = tmp_path / "j4"
        run_sweep(GRID, jobs=1, executor="pool", out_dir=one)
        run_sweep(GRID, jobs=4, executor="pool", out_dir=four)
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in four.iterdir())
        assert names  # the grid actually ran
        for name in names:
            assert (one / name).read_bytes() == (four / name).read_bytes()

    def test_registry_and_order_jobs_invariant(self):
        one = run_sweep(GRID, jobs=1, executor="pool")
        four = run_sweep(GRID, jobs=4, executor="pool")
        assert list(one.results) == list(four.results)
        assert one.registry.as_flat_dict() == four.registry.as_flat_dict()


class TestGroupedScheduling:
    def test_same_trace_key_same_group(self):
        [(k1, p1), (k2, p2)] = [
            (k, p)
            for k, p in GRID.expand()
            if k.benchmark == "STREAM"
        ]

        class Item:
            def __init__(self, key, platform):
                self.key = key
                self.platform = platform

        assert group_key_of(Item(k1, p1)) == group_key_of(Item(k2, p2))

    def test_unknown_benchmark_groups_under_sentinel(self):
        class Key:
            benchmark = "NOPE"

        class Item:
            key = Key()
            platform = SMALL

        assert group_key_of(Item()).startswith("!ungrouped:")


@needs_fork
class TestWorkerCrash:
    def _crashing_execute_run(self, flag, crash_benchmark):
        real = shard.execute_run

        def execute_run(payload, checkpoint_path, trace_store=None):
            if payload["benchmark"] == crash_benchmark and not flag.exists():
                flag.write_text("crashed")
                os._exit(2)
            return real(payload, checkpoint_path, trace_store=trace_store)

        return execute_run

    def test_crash_mid_run_retries_on_fresh_worker(
        self, tmp_path, monkeypatch
    ):
        flag = tmp_path / "crashed-once"
        monkeypatch.setattr(
            shard,
            "execute_run",
            self._crashing_execute_run(flag, "SG"),
        )
        sweep = run_sweep(GRID, jobs=2, executor="pool", retries=1)
        assert flag.exists()  # the crash really happened
        assert sweep.ok
        assert len(sweep.results) == 4
        assert sweep.get("SG", "combined").coalescer.llc_requests > 0

    def test_crash_without_retries_is_failed_run(self, tmp_path, monkeypatch):
        flag = tmp_path / "crashed-a"
        monkeypatch.setattr(
            shard,
            "execute_run",
            self._crashing_execute_run(flag, "SG"),
        )
        sweep = run_sweep(
            SweepSpec(
                platform=SMALL,
                benchmarks=("SG",),
                configs={"combined": CoalescerConfig()},
            ),
            jobs=2,
            executor="pool",
            retries=0,
        )
        assert not sweep.ok
        [failure] = sweep.failures
        assert "worker crashed" in failure.error
        assert failure.attempts == 1


class TestSpawnFallback:
    def test_context_prefers_fork(self):
        ctx = _mp_context()
        if fork_available:
            assert ctx.get_start_method() == "fork"

    def test_spawn_warns_once(self, monkeypatch, caplog):
        class FakeCtx:
            @staticmethod
            def get_start_method():
                return "spawn"

        monkeypatch.setattr(pool_mod, "_SPAWN_WARNED", False)
        with caplog.at_level(logging.WARNING, logger="repro.sweep"):
            warn_spawn_once(FakeCtx())
            warn_spawn_once(FakeCtx())
        warnings = [
            r for r in caplog.records if "re-imports repro" in r.message
        ]
        assert len(warnings) == 1

    def test_fork_never_warns(self, monkeypatch, caplog):
        class FakeCtx:
            @staticmethod
            def get_start_method():
                return "fork"

        monkeypatch.setattr(pool_mod, "_SPAWN_WARNED", False)
        with caplog.at_level(logging.WARNING, logger="repro.sweep"):
            warn_spawn_once(FakeCtx())
        assert not caplog.records
