"""Multi-tenant job scheduler: admission control, dedup, worker pool.

The scheduler sits between the HTTP layer (:mod:`repro.serve.server`)
and one shared :class:`repro.Session`.  Everything expensive is
deduplicated at two granularities:

* **Result granularity** -- a submitted :class:`~repro.serve.jobs.JobSpec`
  whose ``(benchmark, platform digest)`` is already in the Session's
  digest-keyed result cache completes instantly (``cached=True``); one
  whose identical twin is queued or running *attaches* to it as a
  follower and completes when the primary does, again without
  simulating.
* **Capture granularity** -- runs that differ only downstream of the
  LLC (coalescer/HMC config) share one front-end capture through the
  Session's :class:`~repro.trace.TraceStore`.  Worker threads
  single-flight per trace key, so two tenants submitting the same
  front-end config trigger exactly one capture no matter how their
  jobs interleave.

Admission control is layered: a per-tenant quota on in-flight jobs
(:class:`repro.errors.QuotaError`) keeps one bulk tenant from starving
interactive ones, and a global bound on the queue of *distinct* runs
(:class:`repro.errors.CapacityError`) is the backpressure valve -- the
HTTP layer maps both onto 429 so clients back off and retry.

Execution is a bounded pool of worker threads.  Each worker either
runs the simulation in-process through the shared Session
(``executor="thread"``, the default: results, trace captures and the
digest cache are shared directly) or runs it as a one-cell sweep on
the worker pool (``executor="process"``: :func:`repro.sim.pool.run_pool`
starts a fresh worker process that runs the job, writes its sweep
checkpoint and ships the result back for the scheduler to adopt;
captures are shared via the on-disk trace store, and ``run_timeout``
kills a run past its deadline).  Graceful shutdown stops admission,
drains running jobs, and checkpoints every cached result into
``checkpoint_dir`` as standard sweep checkpoint files, so a restarted
server (or ``repro sweep --resume``) reuses the work.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import Counter, OrderedDict, deque
from pathlib import Path

from repro.api import Session
from repro.errors import (
    CapacityError,
    ConfigError,
    JobNotFound,
    JobStateError,
    QuotaError,
)
from repro.perf.digest import result_digest
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobResult,
    JobSpec,
    JobStatus,
)
from repro.sim.shard import CHECKPOINT_SUFFIX, read_checkpoint, write_checkpoint
from repro.sim.sweep import RunKey, SweepSpec, run_sweep
from repro.trace.store import canonical_benchmark, trace_key

logger = logging.getLogger("repro.serve")

#: Executor kinds for the worker pool.
EXECUTORS = ("thread", "process")


class _Job:
    """Internal job record: public status + completion plumbing."""

    __slots__ = ("spec", "status", "result", "done", "followers")

    def __init__(self, spec: JobSpec, status: JobStatus):
        self.spec = spec
        self.status = status
        self.result = None  # SimulationResult once DONE
        self.done = threading.Event()
        self.followers: list["_Job"] = []


class JobScheduler:
    """Bounded multi-tenant scheduler over one shared Session.

    Parameters
    ----------
    session:
        The shared :class:`repro.Session` (result cache + trace
        store).  ``None`` builds a default one from ``platform``.
    workers:
        Worker threads draining the run queue.
    queue_limit:
        Maximum *distinct* queued runs; beyond it, submission raises
        :class:`~repro.errors.CapacityError` (HTTP 429).  Followers of
        an in-flight run never consume a slot.
    tenant_quota:
        Maximum in-flight (queued + running + attached) jobs per
        tenant; beyond it, :class:`~repro.errors.QuotaError`.
    retention:
        Result-cache retention: after each completion the scheduler
        invalidates least-recently-finished cache entries through
        :meth:`repro.Session.cache_keys` / :meth:`~repro.Session.invalidate`
        until at most this many remain.  ``0`` disables the sweep.
    executor:
        ``"thread"`` (in-process, shares everything directly) or
        ``"process"`` (each run in its own pool worker process, which
        checkpoints it and ships the result back).
    checkpoint_dir:
        When set: restored on startup (existing checkpoints are adopted
        into the cache) and written on :meth:`close` (every cached
        result becomes a standard sweep checkpoint).
    run_timeout:
        Per-run wall-clock bound in seconds: a timed-out worker is
        terminated and the job fails.  Only the process executor can
        kill a run, so a timeout with ``executor="thread"`` raises
        :class:`~repro.errors.ConfigError`.
    """

    def __init__(
        self,
        session: Session | None = None,
        *,
        platform=None,
        workers: int = 2,
        queue_limit: int = 64,
        tenant_quota: int = 8,
        retention: int = 256,
        executor: str = "thread",
        checkpoint_dir: str | Path | None = None,
        run_timeout: float | None = None,
        max_history: int = 4096,
    ):
        if executor not in EXECUTORS:
            raise ConfigError(
                f"unknown executor {executor!r}; options: {', '.join(EXECUTORS)}"
            )
        if run_timeout is not None and executor != "process":
            raise ConfigError(
                f"run_timeout needs executor='process'; the {executor!r} "
                "executor cannot stop a running simulation"
            )
        self.session = session or Session(platform=platform)
        self.workers = max(1, workers)
        self.queue_limit = queue_limit
        self.tenant_quota = tenant_quota
        self.retention = retention
        self.executor = executor
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.run_timeout = run_timeout
        #: Bound on retained job records; the oldest *terminal* jobs
        #: are forgotten beyond it (their status then reads as
        #: :class:`~repro.errors.JobNotFound`).
        self.max_history = max_history

        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._jobs: dict[str, _Job] = {}
        self._queue: deque[_Job] = deque()
        self._inflight: dict[tuple[str, str], _Job] = {}
        self._tenant_active: Counter[str] = Counter()
        #: Completion-ordered (benchmark, digest) keys for retention.
        self._finished_lru: OrderedDict[tuple[str, str], None] = OrderedDict()
        #: Per-trace-key locks so concurrent workers capture each
        #: front end exactly once (see module docstring).
        self._capture_locks: dict[str, threading.Lock] = {}
        self._next_id = 0
        self._closed = False
        self.stats_counters = Counter()

        if self.checkpoint_dir is not None:
            self._resume_from_checkpoints()

        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for t in self._threads:
            t.start()

    # -- submission / admission ----------------------------------------------

    def submit(self, spec: JobSpec) -> JobStatus:
        """Admit one job, returning its status snapshot.

        Raises :class:`~repro.errors.UnknownBenchmark` /
        :class:`~repro.errors.ConfigError` on an invalid spec,
        :class:`~repro.errors.QuotaError` when the tenant is over
        quota, and :class:`~repro.errors.CapacityError` when the run
        queue is full or the scheduler is shutting down.
        """
        # Validate the benchmark before admitting anything; the digest
        # is computed here too so a malformed platform fails the
        # submitter, not a worker.
        benchmark = canonical_benchmark(spec.benchmark)
        spec = JobSpec(
            benchmark=benchmark,
            platform=spec.platform,
            tenant=spec.tenant,
            label=spec.label,
        )
        digest = spec.digest
        with self._lock:
            if self._closed:
                raise CapacityError("server is shutting down; resubmit elsewhere")
            if self._tenant_active[spec.tenant] >= self.tenant_quota:
                raise QuotaError(
                    f"tenant {spec.tenant!r} has "
                    f"{self._tenant_active[spec.tenant]} jobs in flight "
                    f"(quota {self.tenant_quota}); retry after some finish"
                )
            job = self._new_job(spec, digest)
            key = spec.key
            cached = self._cached_result(key)
            if cached is not None:
                self.stats_counters["cache_hits"] += 1
                self._finish(job, cached, cached=True)
                return self._snapshot(job)
            primary = self._inflight.get(key)
            if primary is not None:
                self.stats_counters["coalesced"] += 1
                job.status.attached_to = primary.status.job_id
                primary.followers.append(job)
                self._tenant_active[spec.tenant] += 1
                return self._snapshot(job)
            if len(self._queue) >= self.queue_limit:
                del self._jobs[job.status.job_id]
                raise CapacityError(
                    f"run queue is full ({self.queue_limit} distinct runs "
                    "pending); back off and retry"
                )
            self._inflight[key] = job
            self._queue.append(job)
            self._tenant_active[spec.tenant] += 1
            self.stats_counters["enqueued"] += 1
            self._wakeup.notify()
            return self._snapshot(job)

    # -- polling / retrieval -------------------------------------------------

    def status(self, job_id: str) -> JobStatus:
        with self._lock:
            return self._snapshot(self._get(job_id))

    def result(self, job_id: str) -> JobResult:
        """The finished job's full result (:class:`JobResult`).

        Raises :class:`~repro.errors.JobStateError` while the job is
        still queued or running, and surfaces a failed job's error as
        :class:`~repro.errors.JobStateError` too (the status document
        carries the original error string).
        """
        with self._lock:
            job = self._get(job_id)
            state = job.status.state
            if state in (QUEUED, RUNNING):
                raise JobStateError(
                    f"job {job_id} is {state}; poll status until it is done"
                )
            if state == CANCELLED:
                raise JobStateError(f"job {job_id} was cancelled")
            if state == FAILED:
                raise JobStateError(
                    f"job {job_id} failed: {job.status.error}"
                )
            result = job.result
            assert result is not None
        digest = getattr(result, "_serve_result_digest", None)
        if digest is None:
            digest = result_digest(result)
            result._serve_result_digest = digest
        return JobResult(
            job_id=job_id,
            benchmark=job.status.benchmark,
            digest=job.status.digest,
            cached=bool(job.status.cached),
            result=result,
            result_digest=digest,
        )

    def wait(self, job_id: str, timeout: float | None = None) -> JobStatus:
        """Block until the job reaches a terminal state (in-process use)."""
        with self._lock:
            job = self._get(job_id)
        job.done.wait(timeout)
        with self._lock:
            return self._snapshot(job)

    def cancel(self, job_id: str) -> JobStatus:
        """Cancel one queued job (running/finished jobs cannot be).

        Cancelling a primary with attached followers promotes the
        oldest follower to primary so the shared work still happens.
        """
        with self._lock:
            job = self._get(job_id)
            state = job.status.state
            if state != QUEUED:
                raise JobStateError(f"job {job_id} is {state}; only queued jobs cancel")
            if job.status.attached_to is not None:
                primary = self._jobs.get(job.status.attached_to)
                if primary is not None and job in primary.followers:
                    primary.followers.remove(job)
            else:
                self._queue.remove(job)
                key = (job.status.benchmark, job.status.digest)
                promoted = None
                if job.followers:
                    promoted = job.followers.pop(0)
                    promoted.status.attached_to = None
                    promoted.followers = job.followers
                    job.followers = []
                    self._inflight[key] = promoted
                    self._queue.appendleft(promoted)
                else:
                    self._inflight.pop(key, None)
                if promoted is not None:
                    self._wakeup.notify()
            job.status.state = CANCELLED
            job.status.finished_at = time.time()
            self._tenant_active[job.status.tenant] -= 1
            self.stats_counters["cancelled"] += 1
            job.done.set()
            return self._snapshot(job)

    def jobs(self, tenant: str | None = None) -> list[JobStatus]:
        """Status snapshots of every known job (optionally one tenant's)."""
        with self._lock:
            return [
                self._snapshot(job)
                for job in self._jobs.values()
                if tenant is None or job.status.tenant == tenant
            ]

    def stats(self) -> dict:
        """Counter snapshot for the ``/v1/stats`` endpoint."""
        with self._lock:
            counters = dict(self.stats_counters)
            queued = len(self._queue)
            inflight = len(self._inflight)
            tenants = {
                t: n for t, n in sorted(self._tenant_active.items()) if n > 0
            }
        return {
            "executor": self.executor,
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "tenant_quota": self.tenant_quota,
            "queued": queued,
            "inflight": inflight,
            "tenants": tenants,
            "counters": counters,
            "result_cache_entries": len(self.session.cache_keys()),
            "trace_store": self.session.trace_store.stats(),
        }

    # -- shutdown ------------------------------------------------------------

    def close(self, timeout: float | None = 30.0) -> dict:
        """Graceful shutdown: reject, drain, checkpoint.

        Stops admission, cancels still-queued jobs, waits up to
        ``timeout`` seconds for running jobs to finish, then writes
        every cached result into ``checkpoint_dir`` (when configured)
        as standard sweep checkpoints.  Returns a summary dict.
        """
        with self._lock:
            if self._closed:
                return {"checkpointed": 0, "cancelled": 0}
            self._closed = True
            cancelled = 0
            while self._queue:
                job = self._queue.pop()
                key = (job.status.benchmark, job.status.digest)
                self._inflight.pop(key, None)
                for doomed in [job, *job.followers]:
                    doomed.status.state = CANCELLED
                    doomed.status.finished_at = time.time()
                    self._tenant_active[doomed.status.tenant] -= 1
                    doomed.done.set()
                    cancelled += 1
                job.followers = []
            self._wakeup.notify_all()
        deadline = time.monotonic() + (timeout if timeout is not None else 0)
        for t in self._threads:
            t.join(max(0.0, deadline - time.monotonic()) if timeout else None)
        checkpointed = self._write_checkpoints()
        self.stats_counters["checkpointed"] = checkpointed
        return {"checkpointed": checkpointed, "cancelled": cancelled}

    # -- internals -----------------------------------------------------------

    def _new_job(self, spec: JobSpec, digest: str) -> _Job:
        self._next_id += 1
        job_id = f"j{self._next_id:06d}"
        status = JobStatus(
            job_id=job_id,
            tenant=spec.tenant,
            benchmark=spec.benchmark,
            digest=digest,
            label=spec.label,
            state=QUEUED,
        )
        job = _Job(spec, status)
        self._jobs[job_id] = job
        self.stats_counters["submitted"] += 1
        return job

    def _get(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(f"no job {job_id!r} on this server")
        return job

    def _snapshot(self, job: _Job) -> JobStatus:
        s = job.status
        return JobStatus(
            job_id=s.job_id,
            tenant=s.tenant,
            benchmark=s.benchmark,
            digest=s.digest,
            label=s.label,
            state=s.state,
            cached=s.cached,
            attached_to=s.attached_to,
            error=s.error,
            submitted_at=s.submitted_at,
            started_at=s.started_at,
            finished_at=s.finished_at,
        )

    def _cached_result(self, key: tuple[str, str]):
        return self.session.peek(*key)

    def _finish(self, job: _Job, result, *, cached: bool) -> None:
        """Mark one job (and its followers) done.  Caller holds the lock."""
        now = time.time()
        for target, was_cached in [(job, cached), *[(f, True) for f in job.followers]]:
            target.result = result
            target.status.state = DONE
            target.status.cached = was_cached
            target.status.finished_at = now
            target.done.set()
            self.stats_counters["completed"] += 1
        # followers were counted in tenant_active at attach time; the
        # primary only if it went through the queue (not cache hits).
        for follower in job.followers:
            self._tenant_active[follower.status.tenant] -= 1
        job.followers = []
        key = (job.status.benchmark, job.status.digest)
        self._finished_lru[key] = None
        self._finished_lru.move_to_end(key)
        self._retention_sweep()
        self._trim_history()

    def _trim_history(self) -> None:
        """Forget the oldest terminal job records beyond ``max_history``."""
        excess = len(self._jobs) - self.max_history
        if excess <= 0:
            return
        doomed = [
            job_id
            for job_id, job in self._jobs.items()
            if job.status.terminal
        ][:excess]
        for job_id in doomed:
            del self._jobs[job_id]

    def _retention_sweep(self) -> None:
        """Bound the Session result cache to ``retention`` entries."""
        if not self.retention:
            return
        excess = len(self.session.cache_keys()) - self.retention
        if excess <= 0:
            return
        for key in list(self._finished_lru):
            if excess <= 0:
                break
            if key in self._inflight:
                continue
            benchmark, digest = key
            removed = self.session.invalidate(digest, benchmark=benchmark)
            del self._finished_lru[key]
            if removed:
                excess -= removed
                self.stats_counters["retention_evicted"] += removed

    # -- worker pool ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if not self._queue:
                    return  # closed and drained
                job = self._queue.popleft()
                job.status.state = RUNNING
                job.status.started_at = time.time()
            try:
                result = self._execute(job.spec)
            except Exception as exc:  # noqa: BLE001 - job sandbox
                with self._lock:
                    self._fail(job, f"{type(exc).__name__}: {exc}")
            else:
                with self._lock:
                    self.session.adopt(
                        job.status.benchmark, result, config_name=job.status.label
                    )
                    self._finish(job, result, cached=False)
                    self.stats_counters["simulated"] += 1
            finally:
                with self._lock:
                    key = (job.status.benchmark, job.status.digest)
                    self._inflight.pop(key, None)
                    self._tenant_active[job.status.tenant] -= 1

    def _fail(self, job: _Job, error: str) -> None:
        now = time.time()
        for target in [job, *job.followers]:
            target.status.state = FAILED
            target.status.error = error
            target.status.finished_at = now
            target.done.set()
            self.stats_counters["failed"] += 1
        for follower in job.followers:
            self._tenant_active[follower.status.tenant] -= 1
        job.followers = []

    def _capture_lock(self, spec: JobSpec) -> threading.Lock:
        """The single-flight lock for this spec's front-end capture."""
        digest = trace_key(spec.benchmark, spec.platform).digest
        with self._lock:
            lock = self._capture_locks.get(digest)
            if lock is None:
                lock = self._capture_locks[digest] = threading.Lock()
            return lock

    def _execute(self, spec: JobSpec):
        if self.executor == "process":
            return self._execute_in_process(spec)
        # Serialize runs that share a front-end capture so the trace
        # is captured once and every sibling replays it; runs of
        # different front ends proceed concurrently.
        with self._capture_lock(spec):
            return self.session.run(spec.benchmark, platform=spec.platform)

    def _execute_in_process(self, spec: JobSpec):
        """Run one job as a one-cell pool sweep: a fresh worker process."""
        label = spec.label or spec.digest[:10]
        sweep = run_sweep(
            SweepSpec(benchmarks=(spec.benchmark,), configs={label: spec.platform}),
            out_dir=self.checkpoint_dir,
            timeout=self.run_timeout,
            retries=0,
            trace_dir=self.session.trace_dir,
            executor="pool",
        )
        if sweep.failures:
            raise JobStateError(sweep.failures[0].error)
        return sweep.get(spec.benchmark, label)

    # -- checkpoint persistence ----------------------------------------------

    def _resume_from_checkpoints(self) -> None:
        """Adopt every readable checkpoint in ``checkpoint_dir``."""
        if not self.checkpoint_dir.exists():
            return
        restored = 0
        for path in sorted(self.checkpoint_dir.glob(f"*{CHECKPOINT_SUFFIX}")):
            try:
                header, result = read_checkpoint(path)
            except (ValueError, KeyError, TypeError) as exc:
                logger.warning("skipping unreadable checkpoint %s (%s)", path, exc)
                continue
            benchmark = header.get("benchmark", result.benchmark)
            config = header.get("config", "")
            self.session.adopt(benchmark, result, config_name=config)
            self._finished_lru[(benchmark, header.get("digest", ""))] = None
            restored += 1
        if restored:
            self.stats_counters["restored"] = restored
            logger.info(
                "restored %d checkpointed results from %s",
                restored,
                self.checkpoint_dir,
            )

    def _write_checkpoints(self) -> int:
        """Persist every cached result as a sweep checkpoint file."""
        if self.checkpoint_dir is None:
            return 0
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        written = 0
        for benchmark, config_name, result in self.session._suite.cached_runs():
            digest = result.platform.content_digest()
            stem = RunKey(benchmark, config_name, digest).stem
            path = self.checkpoint_dir / (stem + CHECKPOINT_SUFFIX)
            if path.exists():
                continue
            header = {
                "benchmark": benchmark,
                "config": config_name,
                "digest": digest,
            }
            write_checkpoint(path, header, result)
            written += 1
        return written
