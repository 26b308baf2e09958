"""Typed request/response models for ``repro.service``.

Everything that crosses the HTTP boundary is described here as a
dataclass with an explicit JSON-native projection, so the server, the
client, and the tests all agree on one wire contract:

* :class:`SubmitRequest` — the ``POST /v1/jobs`` body, validated field
  by field (:exc:`ValidationError` carries a client-readable message).
* :class:`JobEvent` — one status transition; the ordered event list is
  both the audit log and the payload of the ``/events`` stream.
* :class:`ServiceJob` — the server-side job object: submission data,
  the harness payload it resolves to, and the lifecycle bookkeeping.

Job lifecycle::

    queued ──► running ──► succeeded | failed
       │                       ▲
       └──► cancelled ◄────────┘  (cancel of a running job applies
                                   when its worker returns)

A cache hit at submission time short-circuits straight to
``succeeded`` (with ``cached=true``) without ever entering the queue.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import uuid
from typing import Any, Mapping

__all__ = [
    "STATUS_QUEUED",
    "STATUS_RUNNING",
    "STATUS_SUCCEEDED",
    "STATUS_FAILED",
    "STATUS_CANCELLED",
    "STATUS_QUARANTINED",
    "TERMINAL_STATUSES",
    "DEFAULT_PRIORITY",
    "MIN_PRIORITY",
    "MAX_PRIORITY",
    "DEFAULT_TENANT",
    "ValidationError",
    "SubmitRequest",
    "JobEvent",
    "ServiceJob",
    "new_job_id",
]

STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_SUCCEEDED = "succeeded"
STATUS_FAILED = "failed"
STATUS_CANCELLED = "cancelled"
#: The job's cache key crashed too many times (across node restarts);
#: the poison registry holds it until an operator releases it.
STATUS_QUARANTINED = "quarantined"

#: Statuses a job never leaves.
TERMINAL_STATUSES = frozenset(
    {STATUS_SUCCEEDED, STATUS_FAILED, STATUS_CANCELLED, STATUS_QUARANTINED}
)

#: Smaller numbers run sooner (``0`` is the most urgent slot).
MIN_PRIORITY = 0
MAX_PRIORITY = 99
DEFAULT_PRIORITY = 10

DEFAULT_TENANT = "default"


class ValidationError(ValueError):
    """A submission body the service refuses; message is client-facing."""


def new_job_id() -> str:
    return f"job-{uuid.uuid4().hex[:12]}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


@dataclasses.dataclass(frozen=True)
class SubmitRequest:
    """The validated body of ``POST /v1/jobs``."""

    experiment: str
    tenant: str = DEFAULT_TENANT
    priority: int = DEFAULT_PRIORITY
    quick: bool = False
    fault_plan: str | Mapping[str, Any] | None = None
    replicas: int | None = None
    observe: bool = False
    #: auto-load persisted tuned configs matching the experiment (the
    #: service-side analogue of the CLI's ``--tuned/--no-tuned``)
    tuned: bool = True
    #: end-to-end budget in seconds, measured from admission: the job is
    #: rejected up front if the queue's wait estimate already exceeds
    #: it, and preempted/failed if it is still running past it
    deadline_seconds: float | None = None

    _KNOWN_FIELDS = frozenset(
        {
            "experiment",
            "tenant",
            "priority",
            "quick",
            "fault_plan",
            "replicas",
            "observe",
            "tuned",
            "deadline_seconds",
        }
    )

    @classmethod
    def from_dict(cls, data: Any) -> "SubmitRequest":
        _require(isinstance(data, Mapping), "request body must be a JSON object")
        unknown = sorted(set(data) - cls._KNOWN_FIELDS)
        _require(not unknown, f"unknown field(s): {', '.join(unknown)}")

        experiment = data.get("experiment")
        _require(
            isinstance(experiment, str) and bool(experiment),
            "'experiment' is required and must be a non-empty string",
        )

        tenant = data.get("tenant", DEFAULT_TENANT)
        _require(
            isinstance(tenant, str) and bool(tenant.strip()),
            "'tenant' must be a non-empty string",
        )

        priority = data.get("priority", DEFAULT_PRIORITY)
        _require(
            isinstance(priority, int) and not isinstance(priority, bool),
            "'priority' must be an integer",
        )
        _require(
            MIN_PRIORITY <= priority <= MAX_PRIORITY,
            f"'priority' must be in [{MIN_PRIORITY}, {MAX_PRIORITY}] "
            "(smaller runs sooner)",
        )

        quick = data.get("quick", False)
        _require(isinstance(quick, bool), "'quick' must be a boolean")
        observe = data.get("observe", False)
        _require(isinstance(observe, bool), "'observe' must be a boolean")
        tuned = data.get("tuned", True)
        _require(isinstance(tuned, bool), "'tuned' must be a boolean")

        fault_plan = data.get("fault_plan")
        _require(
            fault_plan is None
            or isinstance(fault_plan, (str, Mapping)),
            "'fault_plan' must be 'storm', 'none', or a plan object",
        )

        replicas = data.get("replicas")
        if replicas is not None:
            _require(
                isinstance(replicas, int)
                and not isinstance(replicas, bool)
                and replicas >= 1,
                "'replicas' must be an integer >= 1",
            )

        deadline_seconds = data.get("deadline_seconds")
        if deadline_seconds is not None:
            _require(
                isinstance(deadline_seconds, (int, float))
                and not isinstance(deadline_seconds, bool)
                and float(deadline_seconds) > 0.0,
                "'deadline_seconds' must be a number > 0",
            )
            deadline_seconds = float(deadline_seconds)

        return cls(
            experiment=experiment,
            tenant=tenant.strip(),
            priority=priority,
            quick=quick,
            fault_plan=fault_plan,
            replicas=replicas,
            observe=observe,
            tuned=tuned,
            deadline_seconds=deadline_seconds,
        )


@dataclasses.dataclass(frozen=True)
class JobEvent:
    """One status transition of one job."""

    seq: int
    status: str
    at_unix: float
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "seq": self.seq,
            "status": self.status,
            "at_unix": self.at_unix,
        }
        if self.detail:
            doc["detail"] = self.detail
        return doc


@dataclasses.dataclass
class ServiceJob:
    """Server-side state of one submitted job."""

    job_id: str
    tenant: str
    priority: int
    experiment_id: str
    #: the harness payload shipped to worker processes (already carries
    #: the content-addressed ``cache_key`` and any checkpoint path)
    payload: dict[str, Any]
    cache_key: str
    observe: bool = False
    status: str = STATUS_QUEUED
    cached: bool = False
    cancel_requested: bool = False
    attempts: int = 0
    created_unix: float = dataclasses.field(default_factory=time.time)
    started_unix: float | None = None
    finished_unix: float | None = None
    #: the full harness record once the job finishes (or replays)
    record: dict[str, Any] | None = None
    events: list[JobEvent] = dataclasses.field(default_factory=list)
    #: end-to-end budget, counted from ``created_unix``
    deadline_seconds: float | None = None
    #: how many times the stuck-worker watchdog preempted this job
    hang_preempts: int = 0
    # -- runtime-only (never journaled/serialized) --------------------
    #: armed while the job runs; the supervisor sets it to preempt
    cancel_event: threading.Event | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    #: why the cancel event fired ("hung" | "deadline" | "shutdown")
    preempt_reason: str | None = None
    #: this job is a circuit breaker's half-open probe
    probe: bool = False

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @property
    def deadline_unix(self) -> float | None:
        if self.deadline_seconds is None:
            return None
        return self.created_unix + self.deadline_seconds

    def deadline_remaining(self, now: float | None = None) -> float | None:
        """Seconds of budget left; ``None`` when no deadline was set."""
        if self.deadline_unix is None:
            return None
        return self.deadline_unix - (time.time() if now is None else now)

    def add_event(self, status: str, detail: str = "") -> JobEvent:
        event = JobEvent(
            seq=len(self.events), status=status, at_unix=time.time(),
            detail=detail,
        )
        self.events.append(event)
        return event

    def to_doc(self) -> dict[str, Any]:
        """The ``GET /v1/jobs/{id}`` status document."""
        record = self.record or {}
        doc: dict[str, Any] = {
            "id": self.job_id,
            "experiment": self.experiment_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "status": self.status,
            "cached": self.cached,
            "cancel_requested": self.cancel_requested,
            "cache_key": self.cache_key,
            "attempts": self.attempts or record.get("attempts", 0),
            "created_unix": self.created_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "events": [event.to_dict() for event in self.events],
        }
        if self.deadline_seconds is not None:
            doc["deadline_seconds"] = self.deadline_seconds
        if self.hang_preempts:
            doc["hang_preempts"] = self.hang_preempts
        if self.terminal and record:
            doc["all_passed"] = record.get("all_passed")
            doc["wall_seconds"] = record.get("wall_seconds")
            if record.get("traceback"):
                doc["traceback"] = record["traceback"]
        return doc

    def to_journal(self) -> dict[str, Any]:
        """The WAL ``submit`` document: everything replay needs to
        rebuild and re-enqueue this job on a restarted node."""
        doc: dict[str, Any] = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "experiment_id": self.experiment_id,
            "payload": dict(self.payload),
            "cache_key": self.cache_key,
            "observe": self.observe,
            "created_unix": self.created_unix,
        }
        if self.deadline_seconds is not None:
            doc["deadline_seconds"] = self.deadline_seconds
        return doc

    @classmethod
    def from_journal(cls, doc: Mapping[str, Any]) -> "ServiceJob":
        """Rebuild a queued job from its journaled submit document."""
        deadline = doc.get("deadline_seconds")
        return cls(
            job_id=str(doc["job_id"]),
            tenant=str(doc.get("tenant", DEFAULT_TENANT)),
            priority=int(doc.get("priority", DEFAULT_PRIORITY)),
            experiment_id=str(doc.get("experiment_id", "")),
            payload=dict(doc.get("payload") or {}),
            cache_key=str(doc.get("cache_key", "")),
            observe=bool(doc.get("observe", False)),
            created_unix=float(doc.get("created_unix") or time.time()),
            deadline_seconds=float(deadline) if deadline is not None else None,
        )
