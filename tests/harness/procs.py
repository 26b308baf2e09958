"""Process-liveness helpers for tests that kill or stop pool workers."""

from __future__ import annotations

import time
from pathlib import Path

#: how long a test waits for a killed or stopped process to be gone
GONE_TIMEOUT = 15.0


def alive(pid: int) -> bool:
    """True while ``pid`` runs.

    A zombie awaiting its reaper counts as gone, but only once all its
    threads have exited: a killed process's leader turns zombie while
    its other threads are still being torn down, and until then its
    parent cannot reap it.
    """
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    fields = dict(line.split(":", 1) for line in status.splitlines() if ":" in line)
    zombie = fields["State"].strip().startswith("Z")
    return not (zombie and int(fields["Threads"]) == 1)


def wait_gone(pid: int, timeout: float = GONE_TIMEOUT) -> bool:
    """Poll until ``pid`` is gone; False if it outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    while alive(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True
