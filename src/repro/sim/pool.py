"""Persistent worker pool: the one supervisor of worker processes.

Every run that leaves the parent process goes through :func:`run_pool`:
a parallel sweep (``run_sweep(executor="pool")``) and each job of
``repro serve --executor process`` (a one-cell sweep).  Starting a
process per run would pay one process start, one interpreter warm-up
and one trace read/decode per cell; long-lived workers consume a run
queue over a pipe protocol instead, so those costs amortize across
every cell a worker executes:

* each worker builds one :class:`~repro.trace.TraceStore` at startup
  (mmap-backed when the sweep has a ``trace_dir``) and keeps it for
  its whole life, so repeated trace keys hit the store's in-memory
  tier -- including the buffer's decoded-column/plan replay cache --
  instead of re-reading the file;
* the scheduler is *grouped*: pending cells are bucketed by their
  trace key and a worker drains its current bucket before taking a
  new one, so the cells that can share a capture run back-to-back on
  the same worker;
* failures are contained per run -- per-run ``timeout`` (deadline ->
  terminate -> fresh worker), bounded retry, structured
  ``*.failed.json`` sidecars, and :class:`~repro.sim.sweep.FailedRun`
  records -- and checkpoints are byte-identical to the inline
  executor's at any ``--jobs`` because the worker calls the same
  :func:`repro.sim.shard.execute_run` serializer.

A worker that dies mid-run (crash, kill, deadline) is detected as EOF
on its pipe; its in-flight cell is retried on a *fresh* worker, so one
poisoned interpreter never wedges the pool.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path

logger = logging.getLogger("repro.sweep")

_SPAWN_WARNED = False


def _mp_context():
    """The preferred multiprocessing context: ``fork`` where available.

    ``fork`` inherits the warm interpreter (imports, monkeypatches,
    copy-on-write pages); ``spawn`` re-imports ``repro`` in every
    worker, which is correct but slower to start.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def warn_spawn_once(ctx) -> None:
    """Log (once per process) that spawn replaced fork.

    Perf numbers from a spawn-backed sweep include per-worker
    re-import time; the warning plus the ``start_method`` field in
    :class:`~repro.sim.sweep.SweepResult.metadata` make that visible.
    """
    global _SPAWN_WARNED
    if ctx.get_start_method() != "fork" and not _SPAWN_WARNED:
        _SPAWN_WARNED = True
        logger.warning(
            "multiprocessing 'fork' start method unavailable; using %r "
            "(each worker re-imports repro, expect slower startup)",
            ctx.get_start_method(),
        )


# -- worker side -------------------------------------------------------------


def pool_worker_main(conn, trace_dir: str | None) -> None:
    """Process entry point of one persistent worker.

    Receives ``(payload, checkpoint_path, fail_path)`` job tuples,
    executes each through :func:`repro.sim.shard.execute_run` with a
    worker-lifetime trace store, and replies ``("done", result)`` or
    ``("failed",)`` (after writing the structured sidecar).  The live
    :class:`~repro.sim.driver.SimulationResult` rides back over the
    pipe so the parent never re-parses the checkpoint it just watched
    being written -- the file still exists, byte-identical, for resume.
    ``None`` or EOF ends the loop.  Exceptions stay inside the worker;
    only a genuine crash (signal, ``os._exit``) breaks the pipe.
    """
    import os

    from repro.sim import shard
    from repro.trace import TraceStore

    store = TraceStore(trace_dir, mmap=True) if trace_dir else TraceStore()
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg is None:
                break
            payload, checkpoint_path, fail_path = msg
            try:
                # Resolved through the module so a fork-inherited
                # monkeypatch of ``shard.execute_run`` takes effect
                # (the crash-injection tests rely on this).
                result = shard.execute_run(
                    payload, checkpoint_path, trace_store=store
                )
            except Exception as exc:  # noqa: BLE001 - shard sandbox
                record = {
                    "kind": "failed",
                    "benchmark": payload.get("benchmark"),
                    "config": payload.get("config"),
                    "digest": payload.get("digest"),
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }
                Path(fail_path).write_text(
                    json.dumps(record, sort_keys=True) + "\n"
                )
                conn.send(("failed",))
            else:
                conn.send(("done", result))
    finally:
        conn.close()
    # Checkpoints are atomically on disk and the pipe is closed;
    # interpreter finalization (GC of the warm heap, atexit) would only
    # burn CPU inside the parent's join.
    os._exit(0)


# -- parent side -------------------------------------------------------------


@dataclass
class _PoolWorker:
    proc: multiprocessing.Process
    conn: object
    group: str | None = None
    item: object | None = None
    deadline: float | None = None

    @property
    def busy(self) -> bool:
        return self.item is not None


@dataclass
class _GroupQueue:
    """Pending cells bucketed by trace key, drained bucket-at-a-time."""

    groups: dict[str, deque] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)

    def add(self, group: str, item) -> None:
        if group not in self.groups:
            self.groups[group] = deque()
            self.order.append(group)
        self.groups[group].append(item)

    def take(self, preferred: str | None):
        """Pop the next item, preferring ``preferred``'s bucket.

        Returns ``(group, item)`` or ``(None, None)`` when empty.
        """
        if preferred is not None:
            q = self.groups.get(preferred)
            if q:
                return preferred, q.popleft()
        for group in self.order:
            q = self.groups[group]
            if q:
                return group, q.popleft()
        return None, None

    def __len__(self) -> int:
        return sum(len(q) for q in self.groups.values())


def group_key_of(item) -> str:
    """The trace-key digest a pending cell would capture/replay under.

    Cells whose benchmark or platform cannot produce a key (unknown
    benchmark -- destined to fail in the worker) group under a
    sentinel so scheduling never raises in the parent.
    """
    from repro.trace import trace_key

    try:
        return trace_key(item.key.benchmark, item.platform).digest
    except Exception:  # noqa: BLE001 - grouping must never break the sweep
        return f"!ungrouped:{item.key.benchmark}"


def run_pool(
    pending: list,
    total: int,
    results: dict,
    failures: list,
    jobs: int,
    timeout: float | None,
    retries: int,
    progress,
    trace_dir: str | Path | None,
) -> None:
    """Execute ``pending`` on a persistent worker pool.

    Up to ``jobs`` long-lived workers drain the grouped queue; a run
    past its ``timeout`` is killed with its worker, failed attempts are
    retried up to ``retries`` times, and each finished run lands in
    ``results`` (keyed by ``item.key``) or ``failures``.  ``pending``
    items are :class:`repro.sim.sweep._Pending` records.
    """
    from repro.sim.shard import read_checkpoint
    from repro.sim.sweep import FailedRun, _say

    ctx = _mp_context()
    warn_spawn_once(ctx)
    queue = _GroupQueue()
    for item in pending:
        queue.add(group_key_of(item), item)

    n_workers = max(1, min(jobs, total))
    workers: list[_PoolWorker] = []
    done = 0
    trace_dir_s = str(trace_dir) if trace_dir is not None else None

    def spawn() -> _PoolWorker:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=pool_worker_main, args=(child_conn, trace_dir_s)
        )
        proc.start()
        child_conn.close()
        w = _PoolWorker(proc, parent_conn)
        workers.append(w)
        return w

    def retire(w: _PoolWorker, *, kill: bool) -> None:
        workers.remove(w)
        if kill:
            w.proc.terminate()
        else:
            try:
                w.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        w.conn.close()
        w.proc.join()

    def finish(item, *, exitcode, timed_out: bool, result=None) -> None:
        nonlocal done
        item.attempts += 1
        if not timed_out:
            # The worker ships the live result over the pipe; the
            # checkpoint re-read is only the fallback (crashed worker
            # whose file landed, or a worker that returned no result).
            if result is None and item.checkpoint.exists():
                try:
                    _, result = read_checkpoint(item.checkpoint)
                except (ValueError, json.JSONDecodeError, KeyError, TypeError):
                    item.checkpoint.unlink()
                    result = None
            if result is not None:
                results[item.key] = result
                done += 1
                _say(progress, f"[{done}/{total}] {item.key.label} done")
                return
        if timed_out:
            error, tb = f"timed out after {timeout}s", ""
        elif item.fail_path.exists():
            record = json.loads(item.fail_path.read_text())
            error, tb = record.get("error", "unknown error"), record.get(
                "traceback", ""
            )
        else:
            error, tb = f"worker crashed (exit code {exitcode})", ""
        if item.attempts <= retries:
            _say(progress, f"retry {item.key.label} ({error})")
            queue.add(group_key_of(item), item)
        else:
            failures.append(FailedRun(item.key, error, tb, item.attempts))
            _say(progress, f"FAIL {item.key.label}: {error}")

    def dispatch(w: _PoolWorker) -> bool:
        group, item = queue.take(w.group)
        if item is None:
            return False
        if item.fail_path.exists():
            item.fail_path.unlink()
        try:
            w.conn.send(
                (item.payload(), str(item.checkpoint), str(item.fail_path))
            )
        except (BrokenPipeError, OSError):
            # The idle worker died between jobs; replace it and requeue
            # the untouched item -- not an attempt against its budget.
            queue.add(group, item)
            retire(w, kill=True)
            return False
        w.group = group
        w.item = item
        w.deadline = time.monotonic() + timeout if timeout else None
        return True

    try:
        while len(queue) or any(w.busy for w in workers):
            while len(workers) < n_workers and len(queue) > sum(
                1 for w in workers if not w.busy
            ):
                spawn()
            for w in list(workers):
                if not w.busy:
                    dispatch(w)
            busy = [w for w in workers if w.busy]
            if not busy:
                if len(queue):
                    continue  # dispatch failures respawned workers
                break
            wait_for = None
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            if deadlines:
                wait_for = max(0.0, min(deadlines) - time.monotonic())
            ready = set(
                mp_connection.wait([w.conn for w in busy], timeout=wait_for)
            )
            now = time.monotonic()
            for w in busy:
                if w.conn in ready:
                    item = w.item
                    w.item = None
                    try:
                        reply = w.conn.recv()
                    except EOFError:
                        # Worker died mid-run: settle the item against
                        # its sidecar/exit code, retry on a fresh
                        # worker (spawned by the top of the loop).
                        retire(w, kill=True)
                        finish(
                            item,
                            exitcode=w.proc.exitcode,
                            timed_out=False,
                        )
                    else:
                        result = (
                            reply[1]
                            if reply[0] == "done" and len(reply) > 1
                            else None
                        )
                        finish(
                            item, exitcode=0, timed_out=False, result=result
                        )
                elif w.deadline is not None and now >= w.deadline:
                    item = w.item
                    w.item = None
                    retire(w, kill=True)
                    finish(item, exitcode=w.proc.exitcode, timed_out=True)
    finally:
        # Signal every worker first, then join: shutdowns overlap
        # instead of serializing one join at a time.
        for w in workers:
            if w.busy:
                w.proc.terminate()
            else:
                try:
                    w.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            w.conn.close()
        for w in workers:
            w.proc.join()
        workers.clear()
