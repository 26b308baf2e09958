"""The asyncio HTTP/JSON front-end: router, state machine, persistence.

One :class:`Service` owns the whole serving stack:

* the **experiment catalog** (the registry roster by default; tests
  inject stub specs),
* the **priority queue** (per-tenant quotas, bounded backpressure),
* the **worker pool** bridging onto the harness process-pool scheduler,
* the **run store** — every finished job's record lands in
  ``runs/<run_id>/jobs/`` under the service's boot run id, successful
  records are cached content-addressed (an identical submission is
  served instantly from cache), traces go to ``runs/<run_id>/traces/``,
* **service counters** registered in the :mod:`repro.obs` spec registry
  (``service.jobs.*`` / ``service.queue.*``), surfaced by ``/v1/stats``.

Endpoints (all JSON)::

    POST /v1/jobs                submit; 202 queued, 200 cache hit,
                                 429/503 + Retry-After on backpressure
    GET  /v1/jobs                all jobs, submission order
    GET  /v1/jobs/{id}           status document (events included)
    GET  /v1/jobs/{id}/events    chunked ndjson stream of transitions
    GET  /v1/jobs/{id}/result    ExperimentResult document
    GET  /v1/jobs/{id}/counters  hardware counters of an observed job
    GET  /v1/jobs/{id}/trace     Chrome trace document of an observed job
    POST /v1/jobs/{id}/cancel    200 cancelled (queued), 202 cancel
                                 requested (running), 409 already done
    GET  /v1/healthz             liveness
    GET  /v1/stats               queue/jobs/counters snapshot

The HTTP layer is deliberately minimal stdlib asyncio: one request per
connection (``Connection: close``), chunked transfer-encoding only for
the event stream.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import re
import time
from pathlib import Path
from typing import Any, Mapping

from repro.harness.fingerprint import code_fingerprint
from repro.harness.jobs import STATUS_OK, Job, job_cache_key
from repro.harness.store import DEFAULT_RUNS_DIR, RunStore
from repro.obs.counters import COUNTER_SPECS, CounterSet
from repro.service.durability import (
    JobJournal,
    PoisonRegistry,
    journal_dir,
    poison_path,
)
from repro.service.models import (
    STATUS_CANCELLED,
    STATUS_FAILED,
    STATUS_QUARANTINED,
    STATUS_QUEUED,
    STATUS_RUNNING,
    STATUS_SUCCEEDED,
    ServiceJob,
    SubmitRequest,
    ValidationError,
    new_job_id,
)
from repro.service.queue import PriorityJobQueue, QueueRejection
from repro.service.supervisor import (
    PREEMPT_DEADLINE,
    BreakerBoard,
    BreakerConfig,
    BreakerOpen,
    CircuitBreaker,
    Supervisor,
)
from repro.service.workers import WorkerPool

__all__ = ["ServiceConfig", "Service"]

_MAX_BODY_BYTES = 1_048_576

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service node."""

    host: str = "127.0.0.1"
    port: int = 8642  # 0 = ephemeral (bound port on Service.port)
    concurrency: int = 2
    queue_depth: int = 64
    tenant_quota: int = 8
    timeout: float | None = None  # per-attempt job timeout (seconds)
    retries: int = 1  # extra attempts after a failed/killed one
    backoff: float = 0.25
    runs_dir: str = DEFAULT_RUNS_DIR
    use_cache: bool = True
    drain_seconds: float = 30.0
    # -- durability / supervision -------------------------------------
    journal: bool = True  # WAL every accepted submission + transition
    journal_fsync: bool = True  # fsync each append (off = tests only)
    hang_seconds: float | None = 300.0  # no heartbeat this long = stuck
    hang_retries: int = 1  # requeues after a hang preempt, then fail
    quarantine_attempts: int = 3  # crashes (across restarts) to quarantine
    breaker_window: int = 8
    breaker_min_samples: int = 4
    breaker_threshold: float = 0.5
    breaker_cooldown: float = 30.0
    supervise_interval: float = 0.2

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.hang_seconds is not None and self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be > 0 (or None to disable)")
        if self.hang_retries < 0:
            raise ValueError("hang_retries must be >= 0")
        if self.quarantine_attempts < 1:
            raise ValueError("quarantine_attempts must be >= 1")


@dataclasses.dataclass(frozen=True)
class _Request:
    method: str
    path: str
    query: str
    headers: Mapping[str, str]
    body: bytes

    def json(self) -> Any:
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}")


class Service:
    """The simulation-as-a-service node."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        specs: Mapping[str, Any] | None = None,
        store: RunStore | None = None,
        fingerprint: str | None = None,
    ):
        self.config = config or ServiceConfig()
        if specs is None:
            from repro.experiments.registry import EXPERIMENTS

            specs = {spec.experiment_id: spec for spec in EXPERIMENTS}
        self.specs = dict(specs)
        self.store = store or RunStore(self.config.runs_dir)
        self.fingerprint = fingerprint or code_fingerprint()
        self.jobs: dict[str, ServiceJob] = {}  # submission order (3.7+)
        # Pre-charge every service counter with zero so /v1/stats always
        # exposes the full set, not just the ones that have fired.
        self.counters = CounterSet(
            {name: 0 for name in COUNTER_SPECS if name.startswith("service.")}
        )
        self.queue = PriorityJobQueue(
            max_depth=self.config.queue_depth,
            tenant_quota=self.config.tenant_quota,
            concurrency=self.config.concurrency,
        )
        self.workers = WorkerPool(self)
        self.journal: JobJournal | None = None
        if self.config.journal:
            self.journal = JobJournal(
                journal_dir(self.store.root),
                fsync=self.config.journal_fsync,
                on_count=self.counters.add,
            )
        self.poison = PoisonRegistry(poison_path(self.store.root))
        self.breakers = BreakerBoard(
            BreakerConfig(
                window=self.config.breaker_window,
                min_samples=self.config.breaker_min_samples,
                threshold=self.config.breaker_threshold,
                cooldown_seconds=self.config.breaker_cooldown,
            )
        )
        self.supervisor = Supervisor(
            self, interval=self.config.supervise_interval
        )
        self._events_cond = asyncio.Condition()
        self._server: asyncio.AbstractServer | None = None
        self.run_id: str | None = None
        self.port: int | None = None
        self._started_unix = time.time()
        self._started_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Open the run, replay the journal, start workers + watchdog,
        bind the listening socket."""
        self.run_id = self.store.new_run_id()
        self._started_unix = time.time()
        self._started_monotonic = time.monotonic()
        self._write_manifest()
        if self.journal is not None:
            # Replay *before* opening our own segment so the fold sees
            # only prior boots, then re-journal survivors into ours and
            # retire the old segments (now fully compacted).
            replay = self.journal.replay()
            self.journal.open_segment(self.run_id)
            await self._recover(replay.unsettled)
            self.journal.retire(replay.segments)
        await self.workers.start()
        self.supervisor.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _recover(self, unsettled: Mapping[str, Mapping[str, Any]]) -> None:
        """Re-admit every journaled-but-unsettled job from prior boots.

        Idempotent by construction: a job whose twin already completed
        replays straight from the content-addressed cache; everything
        else re-enters the queue exactly once (``requeue`` skips the
        admission checks its original 202 already passed).
        """
        for doc in unsettled.values():
            try:
                job = ServiceJob.from_journal(doc)
            except (KeyError, TypeError, ValueError):
                continue  # a half-schema entry from a torn journal tail
            if job.job_id in self.jobs:
                continue
            self.jobs[job.job_id] = job
            self.counters.add("service.journal.recovered", 1)
            self.journal.append_submit(job.to_journal())
            await self._emit(
                job, STATUS_QUEUED, detail="replayed from journal"
            )
            if self.poison.is_quarantined(job.cache_key):
                await self.settle_quarantined(
                    job, detail="quarantined (recovered from journal)"
                )
                continue
            cached = self.cache_lookup(job)
            if cached is not None:
                await self.finish_cached(job, cached)
                continue
            await self.queue.requeue(job)
            self.counters.add("service.queue.enqueued", 1)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight work, settle queued jobs."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # the watchdog must not preempt jobs the drain is waiting on
        await self.supervisor.stop()
        await self.workers.stop(drain_seconds=self.config.drain_seconds)
        for job in self.jobs.values():
            if not job.terminal:
                await self.queue.cancel(job)
                await self._settle(
                    job, STATUS_CANCELLED, detail="service shutdown"
                )
                self.counters.add("service.jobs.cancelled", 1)
        self._write_manifest()
        if self.journal is not None:
            self.journal.close()

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------------
    # submission / cancellation (the state machine's entry points)
    # ------------------------------------------------------------------

    async def submit(self, request: SubmitRequest) -> tuple[int, ServiceJob]:
        """Admit one submission; returns ``(http_status, job)``.

        Raises :exc:`ValidationError` (400 / unknown experiment) and
        :exc:`~repro.service.queue.QueueRejection` (429 / 503).
        """
        spec = self.specs.get(request.experiment)
        if spec is None:
            raise ValidationError(
                f"unknown experiment {request.experiment!r}; known: "
                + ", ".join(sorted(self.specs))
            )
        fault_plan = self._resolve_fault_plan(request.fault_plan)
        params = spec.params(
            quick=request.quick,
            fault_plan=fault_plan,
            replicas=request.replicas,
        )
        tuned_config = None
        if request.tuned:
            from repro.tune.artifact import TunedStore, merge_for_experiment

            assignment = merge_for_experiment(
                TunedStore(self.store.root),
                spec.experiment_id,
                quick=request.quick,
                code_fingerprint=self.fingerprint,
            )
            if assignment is not None and assignment.values:
                tuned_config = {
                    "values": dict(assignment.values),
                    "fingerprint": assignment.fingerprint,
                    "keys": list(assignment.keys),
                }
        harness_job = Job(
            job_id=new_job_id(),
            experiment_id=spec.experiment_id,
            module=spec.module,
            func=spec.func,
            params=params,
            observe=request.observe,
            tuned=tuned_config,
        )
        cache_key = job_cache_key(harness_job, self.fingerprint)
        payload = harness_job.payload(cache_key=cache_key)
        if getattr(spec, "accepts_checkpoint", False):
            # Injected *after* the cache key is fixed: the checkpoint
            # location is derived from the key, so identical submissions
            # share both the cache entry and the resume point, and the
            # path itself never perturbs content addressing.
            payload["params"]["checkpoint_path"] = str(
                self.store.checkpoint_path(cache_key)
            )
        job = ServiceJob(
            job_id=harness_job.job_id,
            tenant=request.tenant,
            priority=request.priority,
            experiment_id=spec.experiment_id,
            payload=payload,
            cache_key=cache_key,
            observe=request.observe,
            deadline_seconds=request.deadline_seconds,
        )
        self.counters.add("service.jobs.submitted", 1)

        cached = self.cache_lookup(job)
        if cached is not None:
            self.jobs[job.job_id] = job
            await self._emit(job, STATUS_QUEUED, detail="accepted")
            await self.finish_cached(job, cached)
            return 200, job

        if self.poison.is_quarantined(job.cache_key):
            # fast-settle instead of burning a retry budget on a job
            # whose exact content already crashed K times
            self.jobs[job.job_id] = job
            await self._emit(job, STATUS_QUEUED, detail="accepted")
            await self.settle_quarantined(
                job,
                detail=(
                    f"cache key failed {self.poison.failures(job.cache_key)} "
                    "time(s); release with 'harness quarantine release'"
                ),
            )
            return 200, job

        scenario = job.experiment_id
        try:
            job.probe = self.breakers.admit(scenario)
        except BreakerOpen:
            self.counters.add("service.breaker.fast_failed", 1)
            self.counters.add("service.jobs.rejected", 1)
            raise

        if request.deadline_seconds is not None:
            estimate = self.queue.estimated_wait_seconds()
            if estimate > request.deadline_seconds:
                self.breakers.revoke(scenario)
                self.counters.add("service.deadline.rejected", 1)
                self.counters.add("service.jobs.rejected", 1)
                raise QueueRejection(
                    f"estimated completion in ~{estimate:.1f}s already "
                    f"exceeds deadline_seconds={request.deadline_seconds}; "
                    "not admitting doomed work",
                    self.queue.retry_after(),
                )

        try:
            await self.queue.put(job)
        except QueueRejection:
            self.breakers.revoke(scenario)
            self.counters.add("service.jobs.rejected", 1)
            raise
        self.jobs[job.job_id] = job
        self.counters.add("service.queue.enqueued", 1)
        if self.journal is not None:
            # the WAL append (fsync'd) happens before the 202 leaves the
            # node: an acknowledged job survives kill -9 from here on
            self.journal.append_submit(job.to_journal())
        await self._emit(job, STATUS_QUEUED, detail="accepted")
        return 202, job

    async def cancel(self, job: ServiceJob) -> tuple[int, dict[str, Any]]:
        if job.terminal:
            return 409, {
                "error": f"job is already {job.status}",
                "job": job.to_doc(),
            }
        if await self.queue.cancel(job):
            await self._settle(job, STATUS_CANCELLED, detail="cancelled while queued")
            self.counters.add("service.jobs.cancelled", 1)
            return 200, {"cancelled": True, "job": job.to_doc()}
        # Already handed to a worker: cancellation is cooperative — the
        # record of the in-flight attempt is discarded when it returns.
        job.cancel_requested = True
        return 202, {
            "cancelled": False,
            "cancel_requested": True,
            "job": job.to_doc(),
        }

    # ------------------------------------------------------------------
    # worker-side transitions (called by WorkerPool on the loop)
    # ------------------------------------------------------------------

    def cache_lookup(self, job: ServiceJob) -> dict[str, Any] | None:
        if not self.config.use_cache:
            return None
        record = self.store.cache_get(job.cache_key)
        if record is not None and record.get("status") == STATUS_OK:
            return record
        return None

    def heartbeat_path(self, job_id: str) -> Path:
        """The file the job's worker process touches while alive."""
        return Path(self.store.root) / "service" / "heartbeats" / f"{job_id}.hb"

    def _journal_transition(self, job: ServiceJob, detail: str = "") -> None:
        if self.journal is None:
            return
        try:
            self.journal.append_transition(
                job.job_id, job.status, attempts=job.attempts, detail=detail
            )
        except (OSError, RuntimeError):
            pass  # a full disk must not wedge the state machine

    def _discard_heartbeat(self, job: ServiceJob) -> None:
        try:
            self.heartbeat_path(job.job_id).unlink()
        except OSError:
            pass

    async def mark_running(self, job: ServiceJob) -> None:
        job.status = STATUS_RUNNING
        job.started_unix = time.time()
        self.counters.add("service.queue.dequeued", 1)
        self._journal_transition(job)
        await self._emit(job, STATUS_RUNNING)

    async def finish_cached(self, job: ServiceJob, record: Mapping[str, Any]) -> None:
        replay = dict(record)
        replay["cached"] = True
        replay["job_id"] = job.job_id
        job.record = replay
        job.cached = True
        job.attempts = int(replay.get("attempts", 1) or 1)
        self.counters.add("service.jobs.cache_hits", 1)
        self.counters.add("service.jobs.completed", 1)
        self._persist(job)
        await self._settle(job, STATUS_SUCCEEDED, detail="cache hit")

    async def finish(
        self, job: ServiceJob, record: dict[str, Any], seconds: float
    ) -> None:
        record = dict(record)
        record["cached"] = False
        job.record = record
        job.attempts = int(record.get("attempts", 1) or 1)
        self.counters.add("service.jobs.attempts", max(1, job.attempts))
        if job.cancel_requested:
            status, detail = STATUS_CANCELLED, "cancelled while running"
            self.counters.add("service.jobs.cancelled", 1)
            self.store.discard_checkpoint(job.cache_key)
        elif record.get("status") == STATUS_OK:
            status = STATUS_SUCCEEDED
            detail = (
                "bands ok" if record.get("all_passed")
                else "outside paper-shape bands"
            )
            self.counters.add("service.jobs.completed", 1)
            if self.config.use_cache:
                self.store.cache_put(job.cache_key, record)
            self.store.discard_checkpoint(job.cache_key)
            self.poison.clear(job.cache_key)
            self._breaker_record(job, success=True)
        elif job.preempt_reason == PREEMPT_DEADLINE:
            # a missed client budget, not a sick job or scenario: no
            # poison count, no breaker signal
            status = STATUS_FAILED
            detail = "deadline exceeded while running"
            self.counters.add("service.deadline.missed", 1)
            self.counters.add("service.jobs.failed", 1)
        else:
            status = STATUS_FAILED
            detail = str(record.get("status", "failed"))
            self.counters.add("service.jobs.failed", 1)
            # the checkpoint (if any) survives: a resubmission resumes
            failures = self.poison.record_failure(
                job.cache_key,
                experiment=job.experiment_id,
                attempts=max(1, job.attempts),
                threshold=self.config.quarantine_attempts,
            )
            if failures >= self.config.quarantine_attempts:
                status = STATUS_QUARANTINED
                detail = (
                    f"quarantined after {failures} failed attempt(s); "
                    "release with 'harness quarantine release'"
                )
                self.counters.add("service.quarantine.added", 1)
            self._breaker_record(job, success=False)
        self._persist(job)
        await self._settle(job, status, detail=detail)

    def _breaker_record(self, job: ServiceJob, *, success: bool) -> None:
        """Feed one genuine outcome to the job's scenario breaker."""
        key = job.experiment_id
        breaker = self.breakers.breaker(key)
        prior = breaker.state
        after = self.breakers.record(key, success, probe=job.probe)
        if after == CircuitBreaker.OPEN and prior != CircuitBreaker.OPEN:
            self.counters.add("service.breaker.opened", 1)
        elif after == CircuitBreaker.CLOSED and prior != CircuitBreaker.CLOSED:
            self.counters.add("service.breaker.closed", 1)

    async def settle_quarantined(self, job: ServiceJob, detail: str = "") -> None:
        """Terminal-settle a job whose cache key is poisoned."""
        failures = self.poison.failures(job.cache_key)
        job.record = {
            "job_id": job.job_id,
            "experiment_id": job.experiment_id,
            "cache_key": job.cache_key,
            "status": STATUS_QUARANTINED,
            "result": None,
            "all_passed": None,
            "traceback": (
                f"quarantined: this exact job content failed {failures} "
                "time(s) across node restarts; an operator must release "
                "it ('harness quarantine release') before it may run again"
            ),
            "attempts": failures,
            "cached": False,
        }
        self.counters.add("service.quarantine.rejected", 1)
        self._persist(job)
        await self._settle(job, STATUS_QUARANTINED, detail=detail)

    async def requeue_after_preempt(self, job: ServiceJob, detail: str) -> None:
        """Put a watchdog-preempted job back in line (bounded attempts)."""
        job.status = STATUS_QUEUED
        job.started_unix = None
        job.cancel_event = None
        job.preempt_reason = None
        self._discard_heartbeat(job)  # the frozen attempt's beat is stale
        self.counters.add("service.supervisor.requeued", 1)
        self.counters.add("service.queue.enqueued", 1)
        self._journal_transition(job, detail=detail)
        await self._emit(job, STATUS_QUEUED, detail=detail)
        await self.queue.requeue(job)

    async def settle_cancelled(self, job: ServiceJob) -> None:
        """A dequeued-but-not-started job whose cancel raced the worker."""
        self.counters.add("service.queue.dequeued", 1)
        self.counters.add("service.jobs.cancelled", 1)
        await self._settle(job, STATUS_CANCELLED, detail="cancelled while queued")

    async def settle_deadline_missed(self, job: ServiceJob) -> None:
        """A dequeued job whose end-to-end budget ran out while queued."""
        job.record = {
            "job_id": job.job_id,
            "experiment_id": job.experiment_id,
            "cache_key": job.cache_key,
            "status": "failed",
            "result": None,
            "all_passed": None,
            "traceback": (
                f"deadline_seconds={job.deadline_seconds} expired while "
                "the job was still queued"
            ),
            "attempts": 0,
            "cached": False,
        }
        self.counters.add("service.queue.dequeued", 1)
        self.counters.add("service.deadline.missed", 1)
        self.counters.add("service.jobs.failed", 1)
        self._persist(job)
        await self._settle(job, STATUS_FAILED, detail="deadline exceeded while queued")

    async def settle_worker_error(self, job: ServiceJob, exc: Exception) -> None:
        job.record = {
            "job_id": job.job_id,
            "experiment_id": job.experiment_id,
            "status": "failed",
            "result": None,
            "all_passed": None,
            "traceback": f"service worker error: {exc!r}",
            "attempts": job.attempts,
            "cached": False,
        }
        self.counters.add("service.jobs.failed", 1)
        self._persist(job)
        await self._settle(job, STATUS_FAILED, detail=f"worker error: {exc!r}")

    async def _settle(self, job: ServiceJob, status: str, detail: str = "") -> None:
        job.status = status
        job.finished_unix = time.time()
        job.cancel_event = None
        self._discard_heartbeat(job)
        self._journal_transition(job, detail=detail)
        self._write_manifest()
        await self._emit(job, status, detail=detail)

    async def _emit(self, job: ServiceJob, status: str, detail: str = "") -> None:
        job.add_event(status, detail=detail)
        self.counters.add("service.events.emitted", 1)
        async with self._events_cond:
            self._events_cond.notify_all()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _persist(self, job: ServiceJob) -> None:
        if self.run_id is None or job.record is None:
            return
        self.store.write_job_record(self.run_id, job.record)
        if job.record.get("trace"):
            self.store.write_trace(self.run_id, job.job_id, job.record["trace"])

    def _manifest_row(self, job: ServiceJob) -> dict[str, Any]:
        record = job.record or {}
        return {
            "job_id": job.job_id,
            "experiment_id": job.experiment_id,
            "cache_key": job.cache_key,
            "status": job.status,
            "cached": job.cached,
            "attempts": job.attempts or record.get("attempts", 0),
            "wall_seconds": record.get("wall_seconds", 0.0),
            "all_passed": record.get("all_passed"),
            "tenant": job.tenant,
            "priority": job.priority,
        }

    def _write_manifest(self) -> None:
        if self.run_id is None:
            return
        done = [job for job in self.jobs.values() if job.terminal]
        manifest = {
            "run_id": self.run_id,
            "created": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(self._started_unix)
            ),
            "code_fingerprint": self.fingerprint,
            "meta": {
                "service": True,
                "host": self.config.host,
                "concurrency": self.config.concurrency,
                "queue_depth": self.config.queue_depth,
                "tenant_quota": self.config.tenant_quota,
            },
            "jobs": [self._manifest_row(job) for job in done],
            "job_count": len(done),
            "cached_count": sum(1 for job in done if job.cached),
            "not_ok_count": sum(
                1 for job in done if job.status == STATUS_FAILED
            ),
            "band_failure_count": sum(
                1
                for job in done
                if (job.record or {}).get("all_passed") is False
            ),
            "failures": sum(
                1
                for job in done
                if job.status == STATUS_FAILED
                or (job.record or {}).get("all_passed") is False
            ),
            "wall_seconds_total": self.uptime_seconds,
        }
        self.store.write_manifest(self.run_id, manifest)

    def _resolve_fault_plan(
        self, plan: str | Mapping[str, Any] | None
    ) -> dict[str, Any] | None:
        if plan is None:
            return None
        if isinstance(plan, str):
            from repro.faults import load_plan_arg

            try:
                return load_plan_arg(plan).to_dict()
            except (ValueError, OSError) as exc:
                raise ValidationError(f"bad fault_plan: {exc}")
        return dict(plan)

    # ------------------------------------------------------------------
    # documents
    # ------------------------------------------------------------------

    def health_doc(self) -> dict[str, Any]:
        return {
            "ok": True,
            "status": "serving",
            "run_id": self.run_id,
            "uptime_seconds": self.uptime_seconds,
            "workers": self.config.concurrency,
            "queue_depth": self.queue.depth,
        }

    def stats_doc(self) -> dict[str, Any]:
        by_status: dict[str, int] = {}
        for job in self.jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "run_id": self.run_id,
            "uptime_seconds": self.uptime_seconds,
            "queue": {
                "depth": self.queue.depth,
                "running": self.queue.running,
                "max_depth": self.queue.max_depth,
                "tenant_quota": self.queue.tenant_quota,
                "tenants": self.queue.tenant_loads(),
                "avg_job_seconds": self.queue.avg_job_seconds,
                "retry_after": self.queue.retry_after(),
            },
            "jobs": {"total": len(self.jobs), **dict(sorted(by_status.items()))},
            "breakers": self.breakers.snapshot(),
            "journal": {
                "enabled": self.journal is not None,
                "segment": (
                    self.journal.segment.name
                    if self.journal is not None and self.journal.segment
                    else None
                ),
            },
            "counters": self.counters.as_dict(),
        }

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is not None:
                await self._dispatch(request, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/response
        except Exception as exc:  # a handler bug must not kill the server
            try:
                self._write_json(writer, 500, {"error": f"internal error: {exc!r}"})
                await writer.drain()
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> _Request | None:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {line!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        if length > _MAX_BODY_BYTES:
            raise ValueError(f"request body too large ({length} bytes)")
        body = await reader.readexactly(length) if length > 0 else b""
        path, _, query = target.partition("?")
        return _Request(
            method=method.upper(),
            path=path,
            query=query,
            headers=headers,
            body=body,
        )

    _ROUTES: tuple[tuple[str, re.Pattern[str], str], ...] = tuple(
        (method, re.compile(pattern), handler)
        for method, pattern, handler in (
            ("GET", r"^/v1/healthz$", "_h_health"),
            ("GET", r"^/v1/stats$", "_h_stats"),
            ("GET", r"^/v1/quarantine$", "_h_quarantine"),
            ("POST", r"^/v1/jobs$", "_h_submit"),
            ("GET", r"^/v1/jobs$", "_h_list_jobs"),
            ("GET", r"^/v1/jobs/(?P<id>[\w.-]+)$", "_h_job"),
            ("GET", r"^/v1/jobs/(?P<id>[\w.-]+)/result$", "_h_result"),
            ("GET", r"^/v1/jobs/(?P<id>[\w.-]+)/counters$", "_h_counters"),
            ("GET", r"^/v1/jobs/(?P<id>[\w.-]+)/trace$", "_h_trace"),
            ("POST", r"^/v1/jobs/(?P<id>[\w.-]+)/cancel$", "_h_cancel"),
        )
    )

    async def _dispatch(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        events = re.match(r"^/v1/jobs/(?P<id>[\w.-]+)/events$", request.path)
        if events is not None:
            if request.method != "GET":
                self._write_json(writer, 405, {"error": "use GET"})
                await writer.drain()
                return
            await self._stream_events(events.group("id"), writer)
            return

        matched_path = False
        for method, pattern, handler_name in self._ROUTES:
            match = pattern.match(request.path)
            if match is None:
                continue
            matched_path = True
            if method != request.method:
                continue
            handler = getattr(self, handler_name)
            try:
                status, payload, extra = await handler(request, match)
            except ValidationError as exc:
                message = str(exc)
                code = 404 if message.startswith("unknown experiment") else 400
                status, payload, extra = code, {"error": message}, {}
            except QueueRejection as exc:
                status = exc.status_code
                payload = {
                    "error": str(exc),
                    "retry_after_seconds": exc.retry_after,
                }
                extra = {"Retry-After": str(exc.retry_after)}
            self._write_json(writer, status, payload, extra)
            await writer.drain()
            return
        if matched_path:
            self._write_json(writer, 405, {"error": "method not allowed"})
        else:
            self._write_json(
                writer, 404, {"error": f"no route for {request.path}"}
            )
        await writer.drain()

    # -- handlers ------------------------------------------------------

    def _job_or_none(self, match: re.Match[str]) -> ServiceJob | None:
        return self.jobs.get(match.group("id"))

    async def _h_health(self, request: _Request, match: re.Match[str]):
        return 200, self.health_doc(), {}

    async def _h_stats(self, request: _Request, match: re.Match[str]):
        return 200, self.stats_doc(), {}

    async def _h_quarantine(self, request: _Request, match: re.Match[str]):
        return 200, {"quarantined": self.poison.entries()}, {}

    async def _h_submit(self, request: _Request, match: re.Match[str]):
        submit = SubmitRequest.from_dict(request.json())
        status, job = await self.submit(submit)
        return status, job.to_doc(), {}

    async def _h_list_jobs(self, request: _Request, match: re.Match[str]):
        return 200, {"jobs": [job.to_doc() for job in self.jobs.values()]}, {}

    async def _h_job(self, request: _Request, match: re.Match[str]):
        job = self._job_or_none(match)
        if job is None:
            return 404, {"error": "no such job"}, {}
        return 200, job.to_doc(), {}

    async def _h_result(self, request: _Request, match: re.Match[str]):
        job = self._job_or_none(match)
        if job is None:
            return 404, {"error": "no such job"}, {}
        if not job.terminal or job.record is None:
            return 404, {
                "error": f"job is {job.status}; no result yet",
                "status": job.status,
            }, {}
        return 200, {
            "id": job.job_id,
            "status": job.status,
            "cached": job.cached,
            "result": job.record.get("result"),
            "all_passed": job.record.get("all_passed"),
            "traceback": job.record.get("traceback"),
        }, {}

    async def _h_counters(self, request: _Request, match: re.Match[str]):
        job = self._job_or_none(match)
        if job is None:
            return 404, {"error": "no such job"}, {}
        counters = ((job.record or {}).get("result") or {}).get("counters") or {}
        if not counters:
            return 404, {
                "error": "no counters recorded (submit with observe=true "
                "and wait for completion)",
                "status": job.status,
            }, {}
        return 200, {"id": job.job_id, "counters": counters}, {}

    async def _h_trace(self, request: _Request, match: re.Match[str]):
        job = self._job_or_none(match)
        if job is None:
            return 404, {"error": "no such job"}, {}
        trace = (job.record or {}).get("trace")
        if not trace:
            return 404, {
                "error": "no trace recorded (submit with observe=true "
                "and wait for completion)",
                "status": job.status,
            }, {}
        return 200, trace, {}

    async def _h_cancel(self, request: _Request, match: re.Match[str]):
        job = self._job_or_none(match)
        if job is None:
            return 404, {"error": "no such job"}, {}
        status, payload = await self.cancel(job)
        return status, payload, {}

    # -- wire helpers --------------------------------------------------

    def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Mapping[str, Any],
        extra_headers: Mapping[str, str] | None = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)

    async def _stream_events(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            self._write_json(writer, 404, {"error": "no such job"})
            await writer.drain()
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent = 0
        while True:
            while sent < len(job.events):
                data = (
                    json.dumps(job.events[sent].to_dict(), sort_keys=True)
                    + "\n"
                ).encode()
                writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
                sent += 1
            await writer.drain()
            if job.terminal and sent == len(job.events):
                break
            async with self._events_cond:
                await self._events_cond.wait_for(
                    lambda: job.terminal or len(job.events) > sent
                )
        writer.write(b"0\r\n\r\n")
        await writer.drain()
