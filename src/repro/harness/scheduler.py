"""Process-pool job scheduler: fan-out, timeout, retry, crash isolation.

Built on :class:`concurrent.futures.ProcessPoolExecutor`.  The roster's
jobs are independent, so they simply fan out across ``max_workers``
processes; the loop tracks a deadline per running future and a
``not_before`` per retry so bounded exponential backoff never blocks a
free slot.

Failure containment comes in three tiers:

* **Python exception in a job** — caught *inside* the worker by
  :func:`repro.harness.jobs.execute_job`; comes back as a normal
  ``failed`` record.  Other jobs are untouched.
* **Timeout** — ``concurrent.futures`` cannot interrupt a running
  worker, so the expired job is recorded (or requeued, if it has retry
  budget), the pool's processes are terminated, and a fresh pool is
  built; in-flight innocents are requeued without consuming an attempt.
* **Worker death** (hard crash / OOM-kill) — surfaces as
  ``BrokenProcessPool``; handled like a timeout except the dead job's
  attempt is consumed.

``max_workers=0`` (or ``None``) runs everything inline in the calling
process — same records, deterministic roster order, no pool; timeouts
are not enforceable inline and are ignored there.

**Pool ownership.**  By default ``run_jobs`` builds its pool and
terminates it before returning.  A caller that runs many small batches
(the service runs one job per call) passes its own ``pool=_Pool(n)``
instead and keeps the worker processes warm across calls: imports,
compile caches and the trajectory memo survive from one call to the
next.  A caller-owned pool is left alive after a clean run; it is
rebuilt after a timeout, a worker death or a ``cancel_event``
preemption, so the next call never lands in a stopped or wedged
worker.  Every pool worker exits on its own once its parent process is
gone (see :func:`_worker_init`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Mapping, Sequence

from repro.harness.jobs import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_PREEMPTED,
    STATUS_TIMEOUT,
    execute_job,
)

__all__ = ["run_jobs"]

#: Minimum poll interval while waiting on deadlines/backoff (seconds).
_MIN_WAIT = 0.05

#: Maximum poll interval while a cancel event is armed: the abort path
#: must be noticed promptly even when no future completes.
_CANCEL_POLL = 0.25

#: Grace given to SIGTERMed pool workers before escalating to SIGKILL.
_TERMINATE_GRACE = 0.5

#: How often a pool worker checks that its parent is still alive.
_PARENT_POLL = 0.25


def _exit_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL)
    os._exit(1)


def _worker_init() -> None:
    """Reset signal plumbing inherited across ``fork``; die with the parent.

    Pool workers are forked from whatever front-end drives the harness.
    An asyncio parent (e.g. ``repro.service``) registers its signal
    handlers through a wakeup fd, and that fd survives the fork — so a
    SIGTERM aimed at a *worker* (pool teardown/rebuild) would be relayed
    straight into the parent's event loop and shut the server down.

    A worker also outlives a SIGKILLed parent on its own: the forked
    child holds the write end of its own call-queue pipe, so the
    parent's death never closes it and the worker waits on the queue
    forever.  A daemon thread therefore watches ``os.getppid()`` and
    exits the worker once it is reparented.  (``PR_SET_PDEATHSIG`` would
    fire when the *forking thread* exits, and a caller such as the
    service forks from short-lived executor threads.)
    """
    signal.set_wakeup_fd(-1)
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, signal.SIG_DFL)
    threading.Thread(
        target=_exit_when_orphaned,
        args=(os.getppid(),),
        daemon=True,
        name="repro-parent-watch",
    ).start()


@dataclasses.dataclass
class _Pending:
    payload: dict[str, Any]
    attempts: int = 0
    not_before: float = 0.0


def _error_record(payload: Mapping[str, Any], status: str, message: str) -> dict[str, Any]:
    """A scheduler-side record for a job that never returned one."""
    return {
        "job_id": payload["job_id"],
        "experiment_id": payload["experiment_id"],
        "module": payload["module"],
        "func": payload["func"],
        "params": dict(payload.get("params") or {}),
        "cache_key": payload.get("cache_key"),
        "status": status,
        "result": None,
        "all_passed": None,
        "traceback": message,
        "stdout": "",
        "wall_seconds": 0.0,
        "cpu_seconds": 0.0,
    }


def _backoff_delay(
    backoff: float, attempts: int, key: str | None = None
) -> float:
    """Exponential backoff with deterministic per-job jitter.

    Jitter decorrelates retry herds when many jobs fail together, but a
    wall-clock or PRNG source would make reruns unreproducible — so it
    is derived from the job's cache key (or id) and the attempt number:
    the same job retries on the same schedule in every run.  The factor
    spreads delays over [1x, 1.5x].
    """
    delay = backoff * (2.0 ** max(0, attempts - 1))
    if key is not None:
        digest = hashlib.sha256(f"{key}:{attempts}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        delay *= 1.0 + 0.5 * fraction
    return delay


def _job_key(payload: Mapping[str, Any]) -> str:
    return str(payload.get("cache_key") or payload.get("job_id") or "")


def _preempted_record(payload: Mapping[str, Any], attempts: int) -> dict[str, Any]:
    record = _error_record(
        payload,
        STATUS_PREEMPTED,
        "preempted: the scheduler was asked to abandon this job "
        "(watchdog, deadline, or shutdown drain)",
    )
    record["attempts"] = attempts
    return record


def _run_inline(
    payloads: Sequence[Mapping[str, Any]],
    *,
    retries: int,
    backoff: float,
    execute: Callable[[Mapping[str, Any]], dict[str, Any]],
    on_record: Callable[[dict[str, Any]], None] | None,
    cancel_event: threading.Event | None = None,
) -> dict[str, dict[str, Any]]:
    records: dict[str, dict[str, Any]] = {}
    for payload in payloads:
        if cancel_event is not None and cancel_event.is_set():
            record = _preempted_record(payload, 0)
            records[payload["job_id"]] = record
            if on_record is not None:
                on_record(record)
            continue
        attempts = 0
        while True:
            attempts += 1
            try:
                record = execute(payload)
            except Exception as exc:  # execute_job shouldn't raise; belt & braces
                record = _error_record(
                    payload, STATUS_FAILED, f"scheduler-level error: {exc!r}"
                )
            record["attempts"] = attempts
            if record["status"] == STATUS_OK or attempts > retries:
                break
            if cancel_event is not None and cancel_event.is_set():
                break
            time.sleep(_backoff_delay(backoff, attempts, _job_key(payload)))
        records[payload["job_id"]] = record
        if on_record is not None:
            on_record(record)
    return records


class _Pool:
    """A replaceable ProcessPoolExecutor wrapper.

    Timeout enforcement needs to *kill* a running worker, which the
    executor API does not expose — so on timeout/crash the whole pool
    is torn down (terminating its processes) and rebuilt.  Timeouts are
    the rare path; losing in-flight sibling work is an accepted cost,
    and those siblings are requeued without consuming an attempt.

    ``generation`` counts the executors that have launched their worker
    processes (the executor forks them on its first submit), so its
    growth over a call is the number of pool spawns that call paid for.
    ``revive`` replaces a pool whose worker died between calls, which
    only a long-lived pool can see.  ``close`` is final: a closed pool
    is never rebuilt, so no later call can fork a worker from it.
    """

    def __init__(self, max_workers: int):
        self.max_workers = max_workers
        self.generation = 0
        self._closed = False
        self._build()

    def _build(self) -> None:
        self._executor = ProcessPoolExecutor(
            max_workers=self.max_workers, initializer=_worker_init
        )
        self._launched = False

    def _processes(self) -> list:
        return list((getattr(self._executor, "_processes", None) or {}).values())

    def revive(self) -> None:
        """Rebuild the pool if a worker died while it sat idle."""
        if self._launched and (
            getattr(self._executor, "_broken", False)
            or any(not proc.is_alive() for proc in self._processes())
        ):
            self.rebuild()

    def submit(self, fn: Callable, payload: Mapping[str, Any]) -> Future:
        if not self._launched:
            self._launched = True
            self.generation += 1
        return self._executor.submit(fn, payload)

    def rebuild(self) -> None:
        self.terminate()
        if not self._closed:
            self._build()

    def close(self) -> None:
        self._closed = True
        self.terminate()

    def terminate(self) -> None:
        procs = self._processes()
        for proc in procs:
            try:
                proc.terminate()
            except Exception:
                pass
        # SIGTERM cannot reach a stopped (SIGSTOPped) or wedged worker —
        # it just stays pending.  Give the polite signal a short grace,
        # then SIGKILL whatever is still alive so preemption always
        # reclaims the process.
        deadline = time.monotonic() + _TERMINATE_GRACE
        for proc in procs:
            try:
                proc.join(max(0.0, deadline - time.monotonic()))
            except Exception:
                pass
        for proc in procs:
            try:
                if proc.is_alive():
                    proc.kill()
            except Exception:
                pass
        try:
            self._executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


def run_jobs(
    payloads: Sequence[Mapping[str, Any]],
    *,
    max_workers: int | None = None,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.25,
    execute: Callable[[Mapping[str, Any]], dict[str, Any]] = execute_job,
    on_record: Callable[[dict[str, Any]], None] | None = None,
    cancel_event: threading.Event | None = None,
    pool: _Pool | None = None,
) -> dict[str, dict[str, Any]]:
    """Run every payload; return ``{job_id: record}``.

    ``retries`` is the number of *extra* attempts granted after a
    failed/timed-out one (so a job runs at most ``retries + 1`` times),
    with ``backoff * 2**(attempt-1)`` seconds between attempts.
    ``on_record`` fires once per job with its final record, in
    completion order.

    ``cancel_event`` arms external preemption: once the event is set,
    in-flight workers are terminated (SIGTERM, then SIGKILL after a
    short grace), and every unfinished job comes back as a
    ``status="preempted"`` record instead of blocking to completion.
    Completed work is still harvested and returned normally.

    ``pool`` runs the jobs on a caller-owned pool (its ``max_workers``
    replaces the argument) and leaves it alive after a clean run; it is
    rebuilt after a timeout, a worker death or a preemption.  Without
    it, ``run_jobs`` builds a pool of ``max_workers`` and terminates it
    before returning.
    """
    if not payloads:
        return {}
    if pool is not None:
        max_workers = pool.max_workers
    if not max_workers:
        return _run_inline(
            payloads,
            retries=retries,
            backoff=backoff,
            execute=execute,
            on_record=on_record,
            cancel_event=cancel_event,
        )

    records: dict[str, dict[str, Any]] = {}
    pending: deque[_Pending] = deque(_Pending(dict(p)) for p in payloads)
    running: dict[Future, tuple[_Pending, float | None]] = {}
    owned = pool is None
    if owned:
        pool = _Pool(max_workers)
    else:
        pool.revive()
    clean = False

    def finish(item: _Pending, record: dict[str, Any]) -> None:
        record["attempts"] = item.attempts
        records[item.payload["job_id"]] = record
        if on_record is not None:
            on_record(record)

    def finish_or_retry(item: _Pending, record: dict[str, Any]) -> None:
        if record["status"] != STATUS_OK and item.attempts <= retries:
            item.not_before = time.monotonic() + _backoff_delay(
                backoff, item.attempts, _job_key(item.payload)
            )
            pending.append(item)
        else:
            finish(item, record)

    def drain_running_into_pending() -> None:
        """Requeue every in-flight job (pool is about to be rebuilt).

        Completed futures are harvested first; the rest go back on the
        queue without consuming an attempt — they were innocent
        bystanders of another job's timeout or crash.
        """
        for fut in list(running):
            item, _deadline = running.pop(fut)
            if fut.done():
                try:
                    record = fut.result(timeout=0)
                except Exception:
                    pending.appendleft(item)
                else:
                    item.attempts += 1
                    finish_or_retry(item, record)
            else:
                pending.appendleft(item)

    def abort_preempted() -> None:
        """Harvest finished futures, then record everything else as
        preempted — in-flight work and queued work alike."""
        for fut in list(running):
            item, _deadline = running.pop(fut)
            if fut.done():
                try:
                    record = fut.result(timeout=0)
                except Exception:
                    item.attempts += 1
                    finish(item, _preempted_record(item.payload, item.attempts))
                else:
                    item.attempts += 1
                    finish(item, record)
            else:
                finish(item, _preempted_record(item.payload, item.attempts))
        while pending:
            item = pending.popleft()
            finish(item, _preempted_record(item.payload, item.attempts))

    try:
        while pending or running:
            if cancel_event is not None and cancel_event.is_set():
                abort_preempted()
                break
            now = time.monotonic()
            # Fill free slots with eligible (backoff-expired) jobs.
            for _ in range(len(pending)):
                if len(running) >= max_workers:
                    break
                item = pending.popleft()
                if item.not_before > now:
                    pending.append(item)
                    continue
                deadline = now + timeout if timeout else None
                running[pool.submit(execute, item.payload)] = (item, deadline)

            if not running:
                # Everything queued is backing off; sleep to the nearest.
                wake = min(item.not_before for item in pending)
                nap = max(_MIN_WAIT, wake - time.monotonic())
                if cancel_event is not None:
                    nap = min(nap, _CANCEL_POLL)
                time.sleep(nap)
                continue

            horizons = [d for _item, d in running.values() if d is not None]
            if pending:
                horizons.extend(
                    item.not_before for item in pending if item.not_before > now
                )
            wait_for = (
                max(_MIN_WAIT, min(horizons) - now) if horizons else None
            )
            if cancel_event is not None:
                # Bound the wait so a cancel request is noticed promptly
                # even when nothing completes and no deadline is near.
                wait_for = (
                    _CANCEL_POLL if wait_for is None
                    else min(wait_for, _CANCEL_POLL)
                )
            done, _not_done = wait(
                set(running), timeout=wait_for, return_when=FIRST_COMPLETED
            )

            pool_broken = False
            for fut in done:
                item, _deadline = running.pop(fut)
                item.attempts += 1
                try:
                    record = fut.result()
                except BrokenProcessPool:
                    pool_broken = True
                    record = _error_record(
                        item.payload,
                        STATUS_FAILED,
                        "worker process died before returning a record "
                        "(hard crash or kill); pool rebuilt",
                    )
                except Exception as exc:
                    record = _error_record(
                        item.payload, STATUS_FAILED, f"scheduler-level error: {exc!r}"
                    )
                finish_or_retry(item, record)
            if pool_broken:
                drain_running_into_pending()
                pool.rebuild()
                continue

            # Enforce per-job deadlines.
            now = time.monotonic()
            expired = [
                fut
                for fut, (_item, deadline) in running.items()
                if deadline is not None and deadline <= now and not fut.done()
            ]
            if expired:
                for fut in expired:
                    item, _deadline = running.pop(fut)
                    item.attempts += 1
                    record = _error_record(
                        item.payload,
                        STATUS_TIMEOUT,
                        f"job exceeded its {timeout:g}s timeout "
                        f"(attempt {item.attempts}); worker terminated",
                    )
                    finish_or_retry(item, record)
                drain_running_into_pending()
                pool.rebuild()
        else:  # no preemption broke the loop
            clean = True
    finally:
        if owned:
            pool.terminate()
        elif not clean:
            # a preempted worker may be stopped or mid-job
            pool.rebuild()
    return records
