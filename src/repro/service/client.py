"""A small synchronous Python client for ``repro.service``.

Stdlib only (:mod:`http.client`): one connection per request, matching
the server's ``Connection: close`` policy.  The event stream is exposed
as a generator — ``http.client`` dechunks transparently, so iteration
yields one decoded status-transition dict per line as it arrives.

    >>> client = ServiceClient(port=8642)
    >>> job = client.submit("fig5", quick=True, tenant="ci")
    >>> final = client.wait(job["id"])
    >>> final["status"]
    'succeeded'

Backpressure surfaces as typed exceptions carrying the server's
``Retry-After`` estimate, so callers can implement honest retry loops::

    try:
        client.submit("table1", tenant="burst")
    except QuotaExceeded as exc:
        time.sleep(exc.retry_after)
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "ServiceError",
    "QuotaExceeded",
    "ServiceUnavailable",
    "JobNotFound",
    "WaitTimeout",
    "RetriesExhausted",
    "ServiceClient",
]

#: Every status a job never leaves (mirrors the server's model).
TERMINAL_STATUSES = ("succeeded", "failed", "cancelled", "quarantined")


def _parse_retry_after(value: Any) -> int:
    """A malformed ``Retry-After`` must degrade to a sane wait, not a
    crash in the error path (the header is attacker/bug-controlled)."""
    try:
        return max(1, int(float(str(value).strip())))
    except (TypeError, ValueError):
        return 1


class ServiceError(RuntimeError):
    """A non-2xx response; carries status code and decoded payload."""

    def __init__(self, status: int, payload: Any):
        message = payload.get("error") if isinstance(payload, Mapping) else None
        super().__init__(message or f"service returned HTTP {status}")
        self.status = status
        self.payload = payload


class _Backpressure(ServiceError):
    def __init__(self, status: int, payload: Any, retry_after: int):
        super().__init__(status, payload)
        self.retry_after = retry_after


class QuotaExceeded(_Backpressure):
    """HTTP 429 — the tenant is at its in-flight quota."""


class ServiceUnavailable(_Backpressure):
    """HTTP 503 — the queue is full; the node is shedding load."""


class JobNotFound(ServiceError):
    """HTTP 404 for a job id (or a not-yet-available artifact)."""


class WaitTimeout(TimeoutError):
    """``wait`` ran out of time before the job reached a terminal state."""


class RetriesExhausted(ServiceError):
    """``submit_with_retry`` gave up; carries the last rejection."""

    def __init__(self, attempts: int, last: _Backpressure):
        super().__init__(last.status, last.payload)
        self.attempts = attempts
        self.last = last


class ServiceClient:
    """Blocking client; safe to use from scripts, tests, and CI."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        timeout: float = 60.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------

    def _connection(self, timeout: float | None = None) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )

    def _raise_for_status(self, status: int, payload: Any, headers) -> None:
        if 200 <= status < 300:
            return
        retry_after = _parse_retry_after(headers.get("Retry-After", "1"))
        if status == 429:
            raise QuotaExceeded(status, payload, retry_after)
        if status == 503:
            raise ServiceUnavailable(status, payload, retry_after)
        if status == 404:
            raise JobNotFound(status, payload)
        raise ServiceError(status, payload)

    def _request(self, method: str, path: str, body: Any = None) -> Any:
        conn = self._connection()
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            decoded = json.loads(raw) if raw else {}
            self._raise_for_status(response.status, decoded, response.headers)
            return decoded
        finally:
            conn.close()

    # -- job lifecycle -------------------------------------------------

    def submit(
        self,
        experiment: str,
        *,
        tenant: str = "default",
        priority: int = 10,
        quick: bool = False,
        fault_plan: str | Mapping[str, Any] | None = None,
        replicas: int | None = None,
        observe: bool = False,
        tuned: bool = True,
        deadline_seconds: float | None = None,
    ) -> dict[str, Any]:
        """Submit one job; returns its status document.

        A submission that hits the content-addressed cache comes back
        already ``succeeded`` with ``cached: true``.  ``tuned=False``
        opts the job out of persisted tuned configs.
        ``deadline_seconds`` is an end-to-end budget: the server rejects
        up front when its wait estimate already exceeds it and preempts
        the job if it is still running past it.
        """
        body: dict[str, Any] = {
            "experiment": experiment,
            "tenant": tenant,
            "priority": priority,
            "quick": quick,
            "observe": observe,
            "tuned": tuned,
        }
        if fault_plan is not None:
            body["fault_plan"] = fault_plan
        if replicas is not None:
            body["replicas"] = replicas
        if deadline_seconds is not None:
            body["deadline_seconds"] = deadline_seconds
        return self._request("POST", "/v1/jobs", body)

    def submit_with_retry(
        self,
        experiment: str,
        *,
        max_attempts: int = 5,
        honor_retry_after: bool = True,
        max_sleep_seconds: float = 60.0,
        seed: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
        **submit_kwargs: Any,
    ) -> dict[str, Any]:
        """:meth:`submit`, retrying through backpressure (429/503).

        Honors the server's ``Retry-After`` estimate (with seeded
        decorrelating jitter so a burst of identical clients doesn't
        re-stampede in lockstep); with ``honor_retry_after=False`` it
        falls back to bounded exponential backoff.  Raises
        :exc:`RetriesExhausted` after ``max_attempts`` rejections.
        Validation errors and other non-backpressure failures raise
        immediately — retrying cannot fix them.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        rng = random.Random(seed)
        last: _Backpressure | None = None
        for attempt in range(max_attempts):
            try:
                return self.submit(experiment, **submit_kwargs)
            except _Backpressure as exc:
                last = exc
                if attempt == max_attempts - 1:
                    break
                if honor_retry_after:
                    base = float(exc.retry_after)
                else:
                    base = min(max_sleep_seconds, 0.5 * (2.0 ** attempt))
                # full jitter on [base/2, base]: spread, never sooner
                # than half the server's own estimate
                delay = base / 2.0 + rng.random() * (base / 2.0)
                sleep(min(max_sleep_seconds, delay))
        assert last is not None
        raise RetriesExhausted(max_attempts, last)

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def result(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def counters(self, job_id: str) -> dict[str, float]:
        return self._request("GET", f"/v1/jobs/{job_id}/counters")["counters"]

    def trace(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}/trace")

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/v1/stats")

    # -- streaming -----------------------------------------------------

    def events(
        self, job_id: str, timeout: float | None = None
    ) -> Iterator[dict[str, Any]]:
        """Stream a job's status transitions as they happen.

        Replays every past event first, then yields live ones; the
        stream ends when the job reaches a terminal status.
        """
        conn = self._connection(timeout=timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read()
                decoded = json.loads(raw) if raw else {}
                self._raise_for_status(
                    response.status, decoded, response.headers
                )
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: float = 120.0) -> dict[str, Any]:
        """Block until the job is terminal; returns its final document."""
        deadline = time.monotonic() + timeout
        doc = self.job(job_id)
        while doc["status"] not in TERMINAL_STATUSES:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WaitTimeout(
                    f"job {job_id} still {doc['status']} after {timeout:g}s"
                )
            try:
                for _event in self.events(job_id, timeout=remaining):
                    pass  # the stream closes itself at a terminal status
            except (http.client.HTTPException, OSError):
                time.sleep(min(0.2, max(0.0, deadline - time.monotonic())))
            doc = self.job(job_id)
        return doc
