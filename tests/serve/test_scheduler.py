"""Tests for the job scheduler (repro.serve.scheduler)."""

import multiprocessing
import threading
import time

import pytest

from repro.api import Session
from repro.errors import (
    CapacityError,
    ConfigError,
    JobStateError,
    QuotaError,
    UnknownBenchmark,
)
from repro.perf.digest import result_digest
from repro.serve.jobs import CANCELLED, DONE, FAILED, RUNNING, JobSpec
from repro.serve.scheduler import JobScheduler
from repro.sim import shard
from repro.sim.driver import PlatformConfig
from repro.sim.sweep import FIGURE_CONFIGS

SMALL = PlatformConfig(accesses=1_200)

COMBINED = SMALL.with_coalescer(FIGURE_CONFIGS["combined"])
UNCOALESCED = SMALL.with_coalescer(FIGURE_CONFIGS["uncoalesced"])
MSHR_ONLY = SMALL.with_coalescer(FIGURE_CONFIGS["mshr_only"])


def small_session() -> Session:
    return Session(accesses=SMALL.accesses, seed=SMALL.seed)


def wait_running(sched: JobScheduler, job_id: str, timeout: float = 10.0) -> None:
    """Spin until a worker has dequeued the job (state == running)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if sched.status(job_id).state == RUNNING:
            return
        time.sleep(0.005)
    raise AssertionError(f"job {job_id} never started running")


class GatedScheduler(JobScheduler):
    """Workers block on ``gate`` before running -- deterministic tests
    of queued/running states without sleeping."""

    def __init__(self, *args, **kwargs):
        self.gate = threading.Event()
        super().__init__(*args, **kwargs)

    def _execute(self, spec):
        assert self.gate.wait(30.0), "test forgot to open the gate"
        return super()._execute(spec)


@pytest.fixture
def gated():
    sched = GatedScheduler(session=small_session(), workers=1, retention=0)
    yield sched
    sched.gate.set()
    sched.close(timeout=10.0)


class TestLifecycle:
    def test_submit_run_result(self):
        sched = JobScheduler(session=small_session(), workers=1)
        try:
            status = sched.submit(JobSpec("STREAM", COMBINED))
            status = sched.wait(status.job_id, timeout=60.0)
            assert status.state == DONE
            assert status.cached is False
            job = sched.result(status.job_id)
            assert result_digest(job.result) == job.result_digest
            # Bit-identical to a direct Session.run of the same platform.
            direct = small_session().run("STREAM", platform=COMBINED)
            assert result_digest(direct) == job.result_digest
        finally:
            sched.close(timeout=10.0)

    def test_duplicate_after_completion_is_instant_cache_hit(self):
        sched = JobScheduler(session=small_session(), workers=1)
        try:
            first = sched.wait(
                sched.submit(JobSpec("STREAM", COMBINED)).job_id, timeout=60.0
            )
            dup = sched.submit(JobSpec("STREAM", COMBINED, tenant="other"))
            assert dup.terminal and dup.state == DONE
            assert dup.cached is True
            assert (
                sched.result(dup.job_id).result_digest
                == sched.result(first.job_id).result_digest
            )
        finally:
            sched.close(timeout=10.0)

    def test_unknown_benchmark_rejected_at_submit(self, gated):
        with pytest.raises(UnknownBenchmark):
            gated.submit(JobSpec("NOT_A_BENCHMARK", SMALL))

    def test_benchmark_name_is_case_insensitive(self, gated):
        status = gated.submit(JobSpec("stream", COMBINED))
        assert status.benchmark == "STREAM"

    def test_result_before_done_is_state_error(self, gated):
        status = gated.submit(JobSpec("STREAM", COMBINED))
        with pytest.raises(JobStateError):
            gated.result(status.job_id)

    def test_failed_job_surfaces_error_string(self):
        # An in-cache poisoned platform cannot happen via submit (the
        # benchmark is validated), so force a failure through a worker
        # that always raises.
        class Exploding(JobScheduler):
            def _execute(self, spec):
                raise RuntimeError("boom")

        sched = Exploding(session=small_session(), workers=1)
        try:
            status = sched.wait(
                sched.submit(JobSpec("STREAM", COMBINED)).job_id, timeout=30.0
            )
            assert status.state == FAILED
            assert "boom" in status.error
            with pytest.raises(JobStateError, match="boom"):
                sched.result(status.job_id)
        finally:
            sched.close(timeout=10.0)

    def test_invalid_executor_rejected(self):
        with pytest.raises(ConfigError):
            JobScheduler(session=small_session(), executor="carrier-pigeon")

    def test_thread_executor_rejects_run_timeout(self):
        # A worker thread cannot be killed, so the bound would be a no-op.
        with pytest.raises(ConfigError, match="run_timeout"):
            JobScheduler(session=small_session(), run_timeout=60.0)


class TestCoalescing:
    def test_identical_inflight_submissions_attach(self, gated):
        primary = gated.submit(JobSpec("STREAM", COMBINED, tenant="a"))
        follower = gated.submit(JobSpec("STREAM", COMBINED, tenant="b"))
        assert follower.attached_to == primary.job_id
        gated.gate.set()
        done_f = gated.wait(follower.job_id, timeout=60.0)
        done_p = gated.wait(primary.job_id, timeout=60.0)
        assert done_p.state == done_f.state == DONE
        assert done_p.cached is False  # the primary simulated
        assert done_f.cached is True  # the follower rode along
        assert (
            gated.result(primary.job_id).result_digest
            == gated.result(follower.job_id).result_digest
        )
        assert gated.stats()["counters"]["simulated"] == 1

    def test_followers_never_consume_queue_slots(self):
        sched = GatedScheduler(
            session=small_session(), workers=1, queue_limit=1, retention=0
        )
        try:
            blocker = sched.submit(JobSpec("STREAM", COMBINED))
            wait_running(sched, blocker.job_id)  # off the queue, gated
            sched.submit(JobSpec("STREAM", UNCOALESCED))  # fills the queue
            for _ in range(5):  # identical duplicates attach, never 429
                sched.submit(JobSpec("STREAM", UNCOALESCED))
            with pytest.raises(CapacityError):
                sched.submit(JobSpec("STREAM", MSHR_ONLY))
        finally:
            sched.gate.set()
            sched.close(timeout=10.0)


class TestAdmission:
    def test_tenant_quota(self):
        sched = GatedScheduler(
            session=small_session(), workers=1, tenant_quota=1, retention=0
        )
        try:
            sched.submit(JobSpec("STREAM", COMBINED, tenant="greedy"))
            with pytest.raises(QuotaError):
                sched.submit(JobSpec("STREAM", UNCOALESCED, tenant="greedy"))
            # Another tenant is unaffected.
            sched.submit(JobSpec("STREAM", UNCOALESCED, tenant="polite"))
        finally:
            sched.gate.set()
            sched.close(timeout=10.0)

    def test_quota_is_a_capacity_error(self):
        assert issubclass(QuotaError, CapacityError)

    def test_closed_scheduler_rejects(self):
        sched = JobScheduler(session=small_session(), workers=1)
        sched.close(timeout=10.0)
        with pytest.raises(CapacityError):
            sched.submit(JobSpec("STREAM", COMBINED))


class TestCancel:
    def test_cancel_queued_job(self, gated):
        gated.submit(JobSpec("STREAM", COMBINED))  # running (gated)
        queued = gated.submit(JobSpec("STREAM", UNCOALESCED))
        cancelled = gated.cancel(queued.job_id)
        assert cancelled.state == CANCELLED
        with pytest.raises(JobStateError):
            gated.result(queued.job_id)

    def test_cancel_running_job_is_state_error(self, gated):
        running = gated.submit(JobSpec("STREAM", COMBINED))
        wait_running(gated, running.job_id)
        with pytest.raises(JobStateError):
            gated.cancel(running.job_id)

    def test_cancelling_primary_promotes_follower(self, gated):
        gated.submit(JobSpec("STREAM", COMBINED))  # running (gated)
        primary = gated.submit(JobSpec("STREAM", UNCOALESCED, tenant="a"))
        follower = gated.submit(JobSpec("STREAM", UNCOALESCED, tenant="b"))
        assert follower.attached_to == primary.job_id
        gated.cancel(primary.job_id)
        gated.gate.set()
        done = gated.wait(follower.job_id, timeout=60.0)
        assert done.state == DONE
        assert done.cached is False  # promoted: it ran the simulation

    def test_cancel_follower_leaves_primary(self, gated):
        gated.submit(JobSpec("STREAM", COMBINED))  # running (gated)
        primary = gated.submit(JobSpec("STREAM", UNCOALESCED, tenant="a"))
        follower = gated.submit(JobSpec("STREAM", UNCOALESCED, tenant="b"))
        gated.cancel(follower.job_id)
        gated.gate.set()
        assert gated.wait(primary.job_id, timeout=60.0).state == DONE


class TestTraceSharing:
    def test_one_capture_for_all_coalescer_configs(self):
        sched = JobScheduler(session=small_session(), workers=4)
        try:
            ids = [
                sched.submit(
                    JobSpec("STREAM", SMALL.with_coalescer(cfg), label=name)
                ).job_id
                for name, cfg in FIGURE_CONFIGS.items()
            ]
            for job_id in ids:
                assert sched.wait(job_id, timeout=120.0).state == DONE
            # Four configs differ only downstream of the LLC: exactly
            # one front-end capture no matter how workers interleaved.
            assert sched.stats()["trace_store"]["puts"] == 1
        finally:
            sched.close(timeout=10.0)


class TestRetention:
    def test_cache_is_bounded(self):
        sched = JobScheduler(session=small_session(), workers=1, retention=2)
        try:
            for cfg in ("uncoalesced", "mshr_only", "dmc_only", "combined"):
                status = sched.submit(
                    JobSpec("STREAM", SMALL.with_coalescer(FIGURE_CONFIGS[cfg]))
                )
                assert sched.wait(status.job_id, timeout=60.0).state == DONE
            assert len(sched.session.cache_keys()) <= 2
            assert sched.stats()["counters"]["retention_evicted"] >= 2
        finally:
            sched.close(timeout=10.0)


class TestShutdownCheckpointing:
    def test_close_writes_sweep_compatible_checkpoints(self, tmp_path):
        from repro.sim.shard import read_checkpoint

        sched = JobScheduler(
            session=small_session(), workers=1, checkpoint_dir=tmp_path
        )
        status = sched.submit(JobSpec("STREAM", COMBINED, label="combined"))
        assert sched.wait(status.job_id, timeout=60.0).state == DONE
        digest = sched.result(status.job_id).result_digest
        summary = sched.close(timeout=10.0)
        assert summary["checkpointed"] == 1
        files = sorted(tmp_path.glob("*.jsonl"))
        assert len(files) == 1
        _header, restored = read_checkpoint(files[0])
        assert result_digest(restored) == digest

    def test_restart_restores_checkpoints_as_cache_hits(self, tmp_path):
        first = JobScheduler(
            session=small_session(), workers=1, checkpoint_dir=tmp_path
        )
        status = first.submit(JobSpec("STREAM", COMBINED, label="combined"))
        first.wait(status.job_id, timeout=60.0)
        digest = first.result(status.job_id).result_digest
        first.close(timeout=10.0)

        second = JobScheduler(
            session=small_session(), workers=1, checkpoint_dir=tmp_path
        )
        try:
            assert second.stats()["counters"]["restored"] == 1
            dup = second.submit(JobSpec("STREAM", COMBINED))
            assert dup.terminal and dup.cached is True
            assert second.result(dup.job_id).result_digest == digest
        finally:
            second.close(timeout=10.0)

    def test_close_cancels_queued_jobs(self):
        sched = GatedScheduler(session=small_session(), workers=1, retention=0)
        blocker = sched.submit(JobSpec("STREAM", COMBINED))
        wait_running(sched, blocker.job_id)  # dequeued, gated
        queued = sched.submit(JobSpec("STREAM", UNCOALESCED))
        # close() cancels the queued job immediately, then blocks
        # draining the gated run -- so drive it from a thread.
        summary: dict = {}
        closer = threading.Thread(
            target=lambda: summary.update(sched.close(timeout=30.0))
        )
        closer.start()
        deadline = time.monotonic() + 10.0
        while sched.status(queued.job_id).state != CANCELLED:
            assert time.monotonic() < deadline, "close never cancelled the queue"
            time.sleep(0.005)
        sched.gate.set()  # let the running job drain
        closer.join(timeout=30.0)
        assert summary["cancelled"] == 1
        assert sched.status(blocker.job_id).state == DONE


class TestProcessExecutor:
    def test_process_run_matches_thread_run(self, tmp_path):
        thread_sched = JobScheduler(session=small_session(), workers=1)
        try:
            status = thread_sched.submit(JobSpec("STREAM", COMBINED))
            thread_sched.wait(status.job_id, timeout=60.0)
            expected = thread_sched.result(status.job_id).result_digest
        finally:
            thread_sched.close(timeout=10.0)

        proc_sched = JobScheduler(
            session=small_session(),
            workers=1,
            executor="process",
            checkpoint_dir=tmp_path,
        )
        try:
            status = proc_sched.submit(JobSpec("STREAM", COMBINED))
            done = proc_sched.wait(status.job_id, timeout=120.0)
            assert done.state == DONE
            assert proc_sched.result(status.job_id).result_digest == expected
        finally:
            proc_sched.close(timeout=10.0)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched execute_run reaches the worker by fork inheritance",
    )
    def test_worker_exception_fails_the_job(self, monkeypatch):
        def execute_run(*args, **kwargs):
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(shard, "execute_run", execute_run)
        sched = JobScheduler(
            session=small_session(), workers=1, executor="process"
        )
        try:
            status = sched.submit(JobSpec("STREAM", COMBINED))
            done = sched.wait(status.job_id, timeout=60.0)
            assert done.state == FAILED
            assert "injected worker failure" in done.error
        finally:
            sched.close(timeout=10.0)

    def test_run_timeout_kills_the_run(self):
        sched = JobScheduler(
            session=small_session(),
            workers=1,
            executor="process",
            run_timeout=0.3,
        )
        try:
            heavy = PlatformConfig(accesses=300_000).with_coalescer(
                FIGURE_CONFIGS["combined"]
            )
            status = sched.submit(JobSpec("SG", heavy))
            done = sched.wait(status.job_id, timeout=60.0)
            assert done.state == FAILED
            assert "timed out" in done.error
        finally:
            sched.close(timeout=10.0)
