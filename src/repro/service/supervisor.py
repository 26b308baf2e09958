"""Supervision: per-scenario circuit breakers + the stuck-worker watchdog.

Two guards that keep a long-lived node honest off the happy path:

* :class:`CircuitBreaker` / :class:`BreakerBoard` — one breaker per
  *scenario* (``experiment`` id, plus the forced device path when one
  is submitted, the closest thing a submission has to a device axis).
  A breaker tracks a sliding window of recent outcomes; past a failure
  -rate threshold it **opens** and submissions for that scenario
  fast-fail with 503 + an honest ``Retry-After`` (the remaining
  cooldown) instead of queueing work that is going to die.  After the
  cooldown one **half-open probe** job is admitted; its success closes
  the breaker, its failure re-opens it with a fresh cooldown.

* :class:`Supervisor` — an asyncio loop that watches every running
  job's worker heartbeat file (touched by a daemon thread inside the
  worker process, so a frozen/SIGSTOPped worker goes silent).  A job
  with no heartbeat for ``hang_seconds`` is preempted through the
  scheduler's pool-rebuild path and requeued with bounded attempts;
  the loop also enforces client deadlines on running jobs.

Breaker state is deliberately in-memory: a node restart is itself a
recovery action, and a still-broken scenario re-opens its breaker
within ``min_samples`` submissions.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import time
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.service.queue import QueueRejection

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.app import Service
    from repro.service.models import ServiceJob

__all__ = [
    "BreakerOpen",
    "BreakerConfig",
    "CircuitBreaker",
    "BreakerBoard",
    "Supervisor",
    "PREEMPT_HUNG",
    "PREEMPT_DEADLINE",
    "PREEMPT_SHUTDOWN",
]

#: Why a running job was preempted (set on ``ServiceJob.preempt_reason``
#: before its cancel event fires; the worker maps it to an outcome).
PREEMPT_HUNG = "hung"
PREEMPT_DEADLINE = "deadline"
PREEMPT_SHUTDOWN = "shutdown"

#: Extra slack past a client deadline before the supervisor preempts —
#: the scheduler's own per-job timeout should usually fire first.
_DEADLINE_GRACE = 0.25


class BreakerOpen(QueueRejection):
    """The scenario's circuit breaker is open; fast-fail with 503."""

    status_code = 503


@dataclasses.dataclass(frozen=True)
class BreakerConfig:
    """Tunables shared by every breaker on a board."""

    window: int = 8  # outcomes in the sliding window
    min_samples: int = 4  # no verdict before this many outcomes
    threshold: float = 0.5  # failure rate that opens the breaker
    cooldown_seconds: float = 30.0  # open -> half-open delay

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if self.cooldown_seconds <= 0:
            raise ValueError("cooldown_seconds must be > 0")


class CircuitBreaker:
    """closed -> open -> half-open -> closed, per scenario.

    Time is injected (``now``) everywhere so tests drive transitions
    with a fake clock.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, config: BreakerConfig):
        self.config = config
        self.state = self.CLOSED
        self._outcomes: deque[bool] = deque(maxlen=config.window)
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.opened_total = 0

    @property
    def failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(1 for ok in self._outcomes if not ok) / len(self._outcomes)

    def retry_after(self, now: float) -> int:
        remaining = self.config.cooldown_seconds - (now - self._opened_at)
        return max(1, int(math.ceil(remaining)))

    def admit(self, now: float) -> tuple[bool, bool]:
        """May a submission for this scenario enter the queue?

        Returns ``(allowed, is_probe)``.  In the open state, the first
        admission after the cooldown becomes the half-open probe; every
        other submission fast-fails until the probe settles.
        """
        if self.state == self.CLOSED:
            return True, False
        if self.state == self.OPEN:
            if now - self._opened_at < self.config.cooldown_seconds:
                return False, False
            self.state = self.HALF_OPEN
            self._probe_in_flight = False
        # half-open: exactly one probe at a time
        if self._probe_in_flight:
            return False, False
        self._probe_in_flight = True
        return True, True

    def record(self, success: bool, now: float, *, probe: bool = False) -> str:
        """Feed one settled outcome; returns the state afterwards."""
        if probe or self.state == self.HALF_OPEN:
            self._probe_in_flight = False
            if success:
                self.state = self.CLOSED
                self._outcomes.clear()
            else:
                self._open(now)
            return self.state
        self._outcomes.append(success)
        if (
            self.state == self.CLOSED
            and len(self._outcomes) >= self.config.min_samples
            and self.failure_rate >= self.config.threshold
        ):
            self._open(now)
        return self.state

    def _open(self, now: float) -> None:
        self.state = self.OPEN
        self._opened_at = now
        self._probe_in_flight = False
        self.opened_total += 1

    def snapshot(self, now: float) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "state": self.state,
            "failure_rate": round(self.failure_rate, 4),
            "samples": len(self._outcomes),
            "opened_total": self.opened_total,
        }
        if self.state == self.OPEN:
            doc["retry_after_seconds"] = self.retry_after(now)
        return doc


class BreakerBoard:
    """All of a node's breakers, keyed by scenario."""

    def __init__(self, config: BreakerConfig | None = None):
        self.config = config or BreakerConfig()
        self._breakers: dict[str, CircuitBreaker] = {}

    @staticmethod
    def scenario_key(experiment_id: str, force_path: str | None = None) -> str:
        return f"{experiment_id}/{force_path}" if force_path else experiment_id

    def breaker(self, key: str) -> CircuitBreaker:
        if key not in self._breakers:
            self._breakers[key] = CircuitBreaker(self.config)
        return self._breakers[key]

    def admit(self, key: str, now: float | None = None) -> bool:
        """Admit or raise :class:`BreakerOpen`; True when it's the probe."""
        now = time.monotonic() if now is None else now
        breaker = self.breaker(key)
        allowed, probe = breaker.admit(now)
        if not allowed:
            raise BreakerOpen(
                f"circuit breaker for scenario {key!r} is open "
                f"(failure rate {breaker.failure_rate:.0%} over the last "
                f"{len(breaker._outcomes) or breaker.config.window} job(s)); "
                "fast-failing instead of queueing doomed work",
                breaker.retry_after(now),
            )
        return probe

    def revoke(self, key: str) -> None:
        """Give back a probe slot whose job never made it into the
        queue (a later admission check rejected it)."""
        breaker = self._breakers.get(key)
        if breaker is not None:
            breaker._probe_in_flight = False

    def record(
        self, key: str, success: bool, *,
        probe: bool = False, now: float | None = None,
    ) -> str:
        now = time.monotonic() if now is None else now
        return self.breaker(key).record(success, now, probe=probe)

    def snapshot(self, now: float | None = None) -> dict[str, Any]:
        now = time.monotonic() if now is None else now
        return {
            key: breaker.snapshot(now)
            for key, breaker in sorted(self._breakers.items())
        }


class Supervisor:
    """The watchdog loop over running jobs' heartbeats and deadlines."""

    def __init__(self, service: "Service", *, interval: float = 0.2):
        self._service = service
        self.interval = interval
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("supervisor already started")
        self._task = asyncio.create_task(self._loop(), name="service-supervisor")

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _loop(self) -> None:
        while True:
            await asyncio.sleep(self.interval)
            try:
                self.scan()
            except Exception:  # pragma: no cover - the watchdog must survive
                continue

    def heartbeat_age(self, job: "ServiceJob", now_unix: float) -> float:
        """Seconds since the job's worker last proved it is alive."""
        path = self._service.heartbeat_path(job.job_id)
        try:
            beat = path.stat().st_mtime
        except OSError:
            beat = None
        # A beat older than this attempt's start is an earlier attempt's;
        # with no beat yet, measure from when the job started running.
        last = max(beat or 0.0, job.started_unix or 0.0) or now_unix
        return max(0.0, now_unix - last)

    def scan(self, now_unix: float | None = None) -> list[str]:
        """One watchdog pass; returns the job ids preempted this pass."""
        service = self._service
        now_unix = time.time() if now_unix is None else now_unix
        hang_seconds = service.config.hang_seconds
        preempted: list[str] = []
        for job in list(service.jobs.values()):
            if job.status != "running" or job.cancel_event is None:
                continue
            if job.preempt_reason is not None:
                continue  # already being torn down
            if (
                job.deadline_unix is not None
                and now_unix > job.deadline_unix + _DEADLINE_GRACE
            ):
                self._preempt(job, PREEMPT_DEADLINE)
                preempted.append(job.job_id)
            elif (
                hang_seconds is not None
                and self.heartbeat_age(job, now_unix) > hang_seconds
            ):
                self._preempt(job, PREEMPT_HUNG)
                preempted.append(job.job_id)
        return preempted

    def _preempt(self, job: "ServiceJob", reason: str) -> None:
        job.preempt_reason = reason
        self._service.counters.add("service.supervisor.preempted", 1)
        if job.cancel_event is not None:
            job.cancel_event.set()
