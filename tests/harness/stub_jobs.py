"""Module-level stub experiments for harness tests.

These must live at module scope with an importable dotted path —
worker processes resolve them by ``(module, func)`` name, exactly like
the real experiment registry entries.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

from repro.experiments.common import ExperimentResult, ShapeCheck
from repro.harness.jobs import Job

# how long gated_job waits for its release file before failing
GATE_TIMEOUT_S = 60.0


def make_result(
    experiment_id: str = "stub", measured: float = 1.0, value: float = 42.0
) -> ExperimentResult:
    """A tiny deterministic result; band 0.5..1.5 around ``measured``."""
    check = ShapeCheck(
        key="stub_band",
        measured=measured,
        low=0.5,
        high=1.5,
        paper_value=1.0,
        description="stub shape check",
    )
    return ExperimentResult(
        experiment_id=experiment_id,
        title="stub experiment",
        headers=("quantity", "value"),
        rows=(("x", value),),
        checks=(check,),
        notes=("stub note",),
    )


def ok_job(measured: float = 1.0, value: float = 42.0) -> ExperimentResult:
    print("stub stdout line")
    return make_result(measured=measured, value=value)


def napping_job(seconds: float = 0.2, value: float = 0.0) -> ExperimentResult:
    time.sleep(seconds)
    return make_result(value=value)


def gated_job(release_path: str = "") -> ExperimentResult:
    """Runs until ``release_path`` exists, polled every 10 ms.

    Holds a job in flight for exactly as long as a test needs it, with
    no wall-clock nap; a test that never releases it fails after
    ``GATE_TIMEOUT_S`` instead of hanging.
    """
    deadline = time.monotonic() + GATE_TIMEOUT_S
    while not Path(release_path).exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"{release_path} not released in {GATE_TIMEOUT_S} s")
        time.sleep(0.01)
    return make_result()


def boom_job(message: str = "kaboom") -> ExperimentResult:
    raise RuntimeError(message)


def flaky_job(counter_path: str = "", fail_times: int = 0) -> ExperimentResult:
    """Fails its first ``fail_times`` invocations, then succeeds.

    Cross-process attempt counting goes through a file so retries in
    pool workers see earlier attempts.
    """
    path = Path(counter_path)
    seen = int(path.read_text()) if path.exists() else 0
    path.write_text(str(seen + 1))
    if seen < fail_times:
        raise RuntimeError(f"transient failure #{seen + 1}")
    return make_result()


def stalled_job(touch_path: str = "", value: float = 0.0) -> ExperimentResult:
    """Freezes its own worker process with SIGSTOP.

    This is how tests inject a genuinely *stuck* worker: the heartbeat
    thread stops beating (the whole process is stopped), so the service
    watchdog must detect it by heartbeat staleness and tear the pool
    down — SIGTERM alone cannot kill a stopped process.  ``touch_path``
    marks that the job really started before freezing.
    """
    if touch_path:
        Path(touch_path).parent.mkdir(parents=True, exist_ok=True)
        Path(touch_path).touch()
    os.kill(os.getpid(), signal.SIGSTOP)
    return make_result(value=value)  # pragma: no cover - only after SIGCONT


def stall_once_job(marker_path: str = "", value: float = 7.0) -> ExperimentResult:
    """SIGSTOPs itself the first time, succeeds on any later attempt.

    Exercises the watchdog's preempt-and-requeue path end to end: the
    first run hangs and is preempted, the requeued run completes.
    """
    marker = Path(marker_path)
    if not marker.exists():
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.touch()
        os.kill(os.getpid(), signal.SIGSTOP)
    return make_result(value=value)


def stub_job(
    job_id: str,
    func: str = "ok_job",
    **params: object,
) -> Job:
    return Job(
        job_id=job_id,
        experiment_id=job_id,
        module=__name__,
        func=func,
        params=params,
    )
