"""The service-mix workload: boot a node, drive an open loop, read back.

One single-threaded generator (this process) holds at most one HTTP
connection at a time.  Request ``i`` is due at ``t0 + i / RATE`` whether
or not earlier ones finished (an open loop: independent users), and its
latency runs from that due time to the server's terminal event stamp,
so a stall is charged to every request it delays.

Every request is a quick ``faults`` job under a zero-rate fault plan.
Requests alternate: the even ones carry a fresh plan seed, so their
cache key is new and they run in the pool (cold); the odd ones resubmit
one of eight primed plans (cache hits).  At ``RATE`` a cold request is
due every 500 ms and takes about 110 ms, so requests seldom wait for
each other, and the fixed alternation gives every cold request the same
neighbours whatever the seed.  Waiting is kept out because it grows
faster than the host slows, which the speed correction cannot undo.
Zero-rate plans are used because seeded storm
plans fail deterministically for some seeds, which would make the
failure count depend on the seed draw.

The node and its one pool worker run on the one CPU the benchmark pins
them to, next to the generator, whose speed probes therefore sample
the CPU the program runs on (see ``hostspeed``).
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from hostspeed import INTERVAL, HostSpeed
from metrics import finite, latency_summary, tail

RATE = 4.0  # requests per second
CONCURRENCY = 1  # pool workers in the node: one CPU, one worker
HIT_KEYS = 8
LATENCY_LIMIT_MS = 1000.0  # on the cold tail
LATENESS_LIMIT_MS = 20.0  # on the generator's tail lateness
BACKLOG_LIMIT = 2.0  # last-quarter over first-quarter cold median
#: What a run spends outside the open loop: boot-only set-up samples,
#: priming, settling and verification.
OVERHEAD_S = 7.0
MIN_LOOP_S = 2.0
BOOT_TIMEOUT = 60.0
SETTLE_TIMEOUT = 60.0
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class Node:
    """One ``python -m repro.service`` process in its own session."""

    def __init__(self, work: Path, env: dict[str, str]) -> None:
        self.work = work
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.client: Any = None

    def start(self, speed: HostSpeed) -> None:
        """Boot the node and wait until ``/v1/healthz`` answers, sampling
        the CPU's speed meanwhile."""
        from repro.service.client import ServiceClient

        log = open(self.work / "node.log", "wb")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--port", "0",
                 "--concurrency", str(CONCURRENCY),
                 "--runs-dir", str(self.work / "runs")],
                cwd=self.work, env=self.env, stdout=subprocess.PIPE,
                stderr=log, start_new_session=True,
            )
        finally:
            log.close()
        deadline = time.monotonic() + BOOT_TIMEOUT
        ready = False
        while not ready and time.monotonic() < deadline:
            speed.sample()
            ready = bool(select.select([self.proc.stdout], [], [], INTERVAL)[0])
        line = self.proc.stdout.readline().decode() if ready else ""
        match = _LISTENING.search(line)
        if match is None:
            raise RuntimeError(f"service did not boot: {line!r}; see {self.work}/node.log")
        self.client = ServiceClient(port=int(match.group(1)), timeout=30.0)
        self.client.healthz()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole group is gone."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass  # the group kill below ends it
        kill_group(self.proc)
        self.proc.stdout.close()
        self.proc = None

    # -- host readings of the node process --------------------------------

    def peak_rss_mb(self) -> float:
        return read_peak_rss_mb(Path(f"/proc/{self.proc.pid}/status"))

    def tree_cpu_s(self) -> float:
        """CPU seconds of the node, its live children and its reaped ones."""
        tick = os.sysconf("SC_CLK_TCK")
        node = _stat_fields(self.proc.pid)
        total = sum(int(node[i]) for i in (13, 14, 15, 16))
        for pid in _children(self.proc.pid):
            fields = _stat_fields(pid)
            if fields is not None:
                total += int(fields[13]) + int(fields[14])
        return total / tick


def kill_group(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """SIGKILL what is left of ``proc``'s process group (it leads one) and
    wait until the group is empty."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        proc.poll()  # reap the leader, or its zombie keeps the group alive
        time.sleep(0.05)
    raise RuntimeError(f"process group {proc.pid} survived SIGKILL")


def read_peak_rss_mb(status: Path) -> float:
    """``VmHWM`` (peak resident set) from a ``/proc/<pid>/status`` file."""
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM line in {status}")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name may hold spaces; fields resume after its ')'
    return [""] * 2 + raw[raw.rindex(")") + 2 :].split()


def _children(pid: int) -> list[int]:
    out = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat_fields(int(entry.name))
            if fields is not None and int(fields[3]) == pid:
                out.append(int(entry.name))
    return out


# -- the open loop ---------------------------------------------------------------


def loop_seconds(seconds: float) -> float:
    """How long the open loop of a run of ``seconds`` lasts."""
    return max(MIN_LOOP_S, seconds - OVERHEAD_S)


@dataclasses.dataclass
class Request:
    kind: str  # "cold" | "hit"
    plan: dict[str, Any]
    due: float = 0.0  # unix seconds
    sent: float = 0.0
    admit_s: float = 0.0
    job_id: str | None = None
    error: str | None = None
    doc: dict[str, Any] | None = None  # final job document

    @property
    def latency_ms(self) -> float:
        """Due time to terminal event; a failed request counts as +inf."""
        if self.doc is None or self.doc.get("status") != "succeeded":
            return float("inf")
        return (self.doc["events"][-1]["at_unix"] - self.due) * 1e3

    def corrected_latency_ms(self, speed: HostSpeed, unix_offset: float) -> float:
        """``latency_ms`` corrected by the host speed sampled while the
        request was open; ``unix_offset`` is unix minus monotonic time."""
        latency = self.latency_ms
        if math.isinf(latency):
            return latency
        start = self.due - unix_offset
        return speed.corrected(latency, start, start + latency / 1e3)


def plan_requests(seed: int, seconds: float) -> tuple[list[dict], list[Request]]:
    """The primed plans and the request schedule drawn from ``seed``."""
    from repro.faults import FaultPlan

    rng = random.Random(f"service-mix:{seed}")
    pairs = max(1, int(RATE * seconds) // 2)
    plan_seeds = rng.sample(range(1, 2**31), HIT_KEYS + pairs)
    primed = [FaultPlan.none(seed=s).to_dict() for s in plan_seeds[:HIT_KEYS]]
    requests: list[Request] = []
    for fresh in plan_seeds[HIT_KEYS:]:
        requests.append(Request(kind="cold", plan=FaultPlan.none(seed=fresh).to_dict()))
        requests.append(Request(kind="hit", plan=rng.choice(primed)))
    return primed, requests


def drive(node: Node, seed: int, seconds: float, speed: HostSpeed) -> dict[str, Any]:
    """Prime, run the open loop (sampling the CPU's speed while idle),
    settle, and read everything back."""
    from repro.service.client import ServiceError

    client = node.client
    primed_plans, requests = plan_requests(seed, seconds)
    primed = []
    for plan in primed_plans:
        doc = client.submit("faults", quick=True, fault_plan=plan, tenant="prime")
        primed.append(client.wait(doc["id"], timeout=SETTLE_TIMEOUT)["id"])

    cpu_before = node.tree_cpu_s()
    counters_before = client.stats()["counters"]
    loop_start = time.monotonic()
    unix_offset = time.time() - loop_start
    t0 = time.time() + 0.05
    for i, req in enumerate(requests):
        req.due = t0 + i / RATE
        speed.idle(req.due - time.time())
        req.sent = time.time()
        try:
            doc = client.submit("faults", quick=True, fault_plan=req.plan,
                                tenant=f"user{i % 4}")
            req.job_id = doc["id"]
        except (ServiceError, OSError) as exc:
            req.error = repr(exc)
        req.admit_s = time.time() - req.sent
    for req in requests:
        if req.job_id is not None:
            try:
                req.doc = client.wait(req.job_id, timeout=SETTLE_TIMEOUT)
            except (ServiceError, OSError, TimeoutError) as exc:
                req.error = repr(exc)
    loop = (loop_start, time.monotonic())
    cpu_s = node.tree_cpu_s() - cpu_before
    counters_after = client.stats()["counters"]
    peak_rss_mb = node.peak_rss_mb()

    def result_of(job_id: str) -> dict[str, Any]:
        doc = client.result(job_id)
        return {
            "job_id": job_id,
            "experiment_id": "faults",
            "status": "ok" if doc["status"] == "succeeded" else doc["status"],
            "result": doc.get("result"),
            "traceback": doc.get("traceback"),
        }

    primed_records = {
        plan["seed"]: result_of(job_id) for plan, job_id in zip(primed_plans, primed)
    }
    records = [
        result_of(req.job_id) if req.doc is not None else None for req in requests
    ]
    return {
        "requests": requests,
        "records": records,
        "primed_records": primed_records,
        "loop": loop,  # monotonic start and end of the loop and its settling
        "unix_offset": unix_offset,  # unix minus monotonic time
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "counters": {
            key: counters_after.get(key, 0.0) - counters_before.get(key, 0.0)
            for key in ("service.jobs.cache_hits", "service.journal.appended")
        },
    }


def summarize(data: dict[str, Any], speed: HostSpeed) -> tuple[dict[str, float], list[str]]:
    """The service's per-layer metrics, and why the sample is invalid.

    Times are corrected for host speed: a request's latency by the speed
    sampled while it was open, the other times by the speed over the
    loop.  The generator's lateness is its own, and stays as measured.
    """
    requests = data["requests"]
    loop_speed = speed.factor(*data["loop"])
    cold = [req for req in requests if req.kind == "cold"]
    cold_ms = [req.corrected_latency_ms(speed, data["unix_offset"]) for req in cold]
    hit_ms = [req.corrected_latency_ms(speed, data["unix_offset"])
              for req in requests if req.kind == "hit"]
    lateness_ms = [(req.sent - req.due) * 1e3 for req in requests]
    quarter = max(1, len(cold_ms) // 4)
    first = finite(statistics.median(cold_ms[:quarter]))
    last = finite(statistics.median(cold_ms[-quarter:]))
    values = {
        **{f"service.{k}": v for k, v in latency_summary("cold", cold_ms).items()},
        **{f"service.{k}": v for k, v in latency_summary("hit", hit_ms).items()},
        "service.lateness_tail_ms": (tail(lateness_ms) or (0.0, max(lateness_ms)))[1],
        "service.backlog_ratio": last / first,
        "service.admit_ms": statistics.median(req.admit_s for req in requests) * 1e3
        * loop_speed,
        **data["counters"],
    }
    ran = [req.doc for req in cold if req.doc and req.doc.get("started_unix")]
    if ran:
        exec_ms = [(d["finished_unix"] - d["started_unix"]) * 1e3 * loop_speed for d in ran]
        job_ms = [d["wall_seconds"] * 1e3 * loop_speed for d in ran]
        values.update({
            "service.queue_wait_ms": statistics.median(
                (d["started_unix"] - d["created_unix"]) * 1e3 for d in ran) * loop_speed,
            "service.exec_ms": statistics.median(exec_ms),
            "harness.job_ms": statistics.median(job_ms),
            "service.dispatch_ms": statistics.median(e - j for e, j in zip(exec_ms, job_ms)),
            "service.attempts_per_job": statistics.mean(d["attempts"] for d in ran),
        })
    invalid = []
    if values["service.lateness_tail_ms"] > LATENESS_LIMIT_MS:
        invalid.append(f"generator lateness {values['service.lateness_tail_ms']:.1f} ms")
    if values["service.backlog_ratio"] > BACKLOG_LIMIT:
        invalid.append(f"backlog ratio {values['service.backlog_ratio']:.2f}")
    if values["service.cold_tail_ms"] > LATENCY_LIMIT_MS:
        invalid.append(f"cold tail {values['service.cold_tail_ms']:.0f} ms over the limit")
    return values, invalid
