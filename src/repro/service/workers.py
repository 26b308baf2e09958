"""Bridging the asyncio loop onto the existing process-pool scheduler.

Each worker slot is one asyncio task in a pull loop: take the next job
off the priority queue, hand its payload to
:func:`repro.harness.scheduler.run_jobs` on a thread (``run_jobs``
blocks), and settle the outcome back on the loop.  Every slot owns one
long-lived single-process harness pool, built on the slot's first job
(not at boot, which would put the worker's imports on the node's
start-up path) and reused by every later job, so a cold request pays
neither a fork nor a cold interpreter: imports, VM compile caches and
the trajectory memo stay warm.  Per-job state stays per job: the tuned
config, the observation session and fault sessions are scoped to the
job's call, and the process-wide caches are bounded and keyed by their
inputs.  The harness's whole failure-containment ladder still applies
per service job:

* an experiment exception comes back as a ``failed`` record, and the
  worker stays warm,
* a timeout terminates the worker process and retries on backoff in a
  rebuilt pool,
* a hard worker death (SIGKILL, OOM) surfaces as ``BrokenProcessPool``,
  consumes an attempt, and retries in a rebuilt pool — and because
  checkpoint-aware experiments persist their last snapshot under the
  job's cache key, the retry *resumes* instead of starting over,
* a preemption (hang, deadline or shutdown) rebuilds the pool, so the
  next job never lands in a stopped or wedged worker.

Every rebuild that forks a worker counts in ``service.workers.spawned``.
:meth:`WorkerPool.stop` closes every slot's pool, so a drained node
leaves no child behind; a node that dies without draining loses its
workers too, since each one exits once its parent is gone.

The thread pool is sized to the service's concurrency, so at most
``concurrency`` harness pools exist at once; queue ordering and tenant
quotas stay enforced because workers only ever pull from the queue.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

from repro.harness.jobs import STATUS_PREEMPTED
from repro.harness.scheduler import _Pool, run_jobs
from repro.service.supervisor import (
    PREEMPT_DEADLINE,
    PREEMPT_HUNG,
    PREEMPT_SHUTDOWN,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.app import Service
    from repro.service.models import ServiceJob

__all__ = ["WorkerPool"]

#: After ``drain_seconds`` expires, hung in-flight jobs are preempted
#: (cancel event → pool teardown with SIGKILL escalation); this bounds
#: how long stop() waits for that teardown to settle them.
_PREEMPT_GRACE_SECONDS = 5.0


class WorkerPool:
    """N asyncio pull-loops feeding the blocking harness scheduler."""

    def __init__(self, service: "Service"):
        self._service = service
        self._tasks: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self._pools: dict[int, _Pool] = {}  # slot -> its warm pool

    @property
    def started(self) -> bool:
        return bool(self._tasks)

    async def start(self) -> None:
        if self._tasks:
            raise RuntimeError("worker pool already started")
        concurrency = self._service.config.concurrency
        self._executor = ThreadPoolExecutor(
            max_workers=concurrency, thread_name_prefix="repro-service"
        )
        self._tasks = [
            asyncio.create_task(self._worker_loop(i), name=f"service-worker-{i}")
            for i in range(concurrency)
        ]

    async def stop(self, drain_seconds: float = 30.0) -> None:
        """Stop pulling work; wait up to ``drain_seconds`` for in-flight
        jobs; preempt whatever is still running (a hung job must not
        stall shutdown); cancel what survives even that; then close
        every slot's pool."""
        try:
            await self._drain(drain_seconds)
        finally:
            for pool in self._pools.values():
                pool.close()
            self._pools.clear()
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None

    async def _drain(self, drain_seconds: float) -> None:
        await self._service.queue.close()
        if self._tasks:
            done, pending = await asyncio.wait(
                self._tasks, timeout=drain_seconds
            )
            if pending:
                # the drain budget is spent: yank still-running jobs
                # through the scheduler's preemption path (pool teardown
                # escalates SIGTERM -> SIGKILL, so even a stopped worker
                # process cannot hold us here)
                preempted = False
                for job in self._service.jobs.values():
                    if job.cancel_event is not None and not job.terminal:
                        job.preempt_reason = (
                            job.preempt_reason or PREEMPT_SHUTDOWN
                        )
                        job.cancel_event.set()
                        preempted = True
                if preempted:
                    grace = max(1.0, min(_PREEMPT_GRACE_SECONDS, drain_seconds))
                    done, pending = await asyncio.wait(
                        pending, timeout=grace
                    )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            self._tasks = []

    async def _worker_loop(self, slot: int) -> None:
        while True:
            job = await self._service.queue.get()
            if job is None:
                return
            try:
                await self._run_one(job, slot)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # keep the loop alive; settle the job
                await self._service.settle_worker_error(job, exc)
                await self._service.queue.release(job, None)

    async def _run_one(self, job: "ServiceJob", slot: int) -> None:
        service = self._service
        if job.cancel_requested:
            # cancelled in the gap between dequeue and execution
            await service.settle_cancelled(job)
            await service.queue.release(job, None)
            return
        # Late cache check: a duplicate that queued behind its twin
        # completes from the twin's freshly cached record, not by
        # re-executing the experiment.
        cached = service.cache_lookup(job)
        if cached is not None:
            await service.finish_cached(job, cached)
            await service.queue.release(job, None)
            return

        remaining = job.deadline_remaining()
        if remaining is not None and remaining <= 0.0:
            await service.settle_deadline_missed(job)
            await service.queue.release(job, None)
            return

        await service.mark_running(job)
        config = service.config
        timeout = config.timeout
        if remaining is not None:
            timeout = remaining if timeout is None else min(timeout, remaining)
        payload = dict(job.payload)
        payload["heartbeat_path"] = str(service.heartbeat_path(job.job_id))
        job.cancel_event = threading.Event()
        pool = self._pools.get(slot)
        if pool is None:
            pool = self._pools[slot] = _Pool(1)
        call = functools.partial(
            run_jobs,
            [payload],
            timeout=timeout,
            retries=config.retries,
            backoff=config.backoff,
            cancel_event=job.cancel_event,
            pool=pool,
        )
        generation = pool.generation
        started = time.monotonic()
        loop = asyncio.get_running_loop()
        try:
            records = await loop.run_in_executor(self._executor, call)
        finally:
            service.counters.add(
                "service.workers.spawned", pool.generation - generation
            )
        seconds = time.monotonic() - started
        record = records.get(job.job_id)
        if record is None:  # pragma: no cover - run_jobs always records
            record = {
                "job_id": job.job_id,
                "experiment_id": job.experiment_id,
                "status": "failed",
                "result": None,
                "all_passed": None,
                "traceback": "scheduler returned no record for this job",
                "attempts": 0,
                "wall_seconds": seconds,
            }
        if record.get("status") == STATUS_PREEMPTED:
            await self._settle_preempted(job, record, seconds)
            return
        if (
            record.get("status") == "timeout"
            and job.preempt_reason is None
            and (job.deadline_remaining() or 1.0) <= 0.0
        ):
            # the scheduler timeout that fired was the deadline-derived
            # one, not the configured per-attempt bound
            job.preempt_reason = PREEMPT_DEADLINE
        await service.finish(job, record, seconds)
        await service.queue.release(job, seconds)

    async def _settle_preempted(
        self, job: "ServiceJob", record: dict, seconds: float
    ) -> None:
        """Route a watchdog/shutdown/deadline preemption to its outcome."""
        service = self._service
        reason = job.preempt_reason
        if reason == PREEMPT_HUNG:
            job.hang_preempts += 1
            if job.hang_preempts <= service.config.hang_retries:
                # the slot must be free before the job re-enters the queue
                await service.queue.release(job, None)
                await service.requeue_after_preempt(
                    job,
                    detail=(
                        f"stuck worker preempted (no heartbeat); requeue "
                        f"{job.hang_preempts}/{service.config.hang_retries}"
                    ),
                )
                return
            record = dict(record)
            record["traceback"] = (
                f"worker hung {job.hang_preempts} time(s) with no "
                f"heartbeat for {service.config.hang_seconds}s; "
                "hang_retries exhausted"
            )
        elif reason == PREEMPT_SHUTDOWN:
            job.cancel_requested = True  # settle as cancelled, like the
            # queued jobs the shutdown sweep cancels
        elif reason == PREEMPT_DEADLINE:
            pass  # finish() maps it to a deadline-missed failure
        await service.finish(job, record, seconds)
        await service.queue.release(job, seconds)
