"""Ambient tuned-config application: apply many knobs without plumbing.

Mirrors :mod:`repro.obs.context`: :func:`applied` pushes a tuned-value
mapping onto a module-level stack, and every knob consumer asks
:func:`tuned_value` for its knob once per run, when the run starts: the
Cell row partition and the MTA stream model in the device's
``prepare``.  A device built outside an :func:`applied` block and run
inside it therefore runs tuned.  With no config active — the default —
every lookup returns ``None`` and the consumer keeps its own hard-coded
default, so inactive tuning is byte-for-byte the pre-tuner behavior.

Values are scoped ``"<device>/<knob>"`` (e.g. ``"cell/cell.partition"``)
so one experiment that runs several device models can tune each
independently; a bare ``"<knob>"`` key applies to every device.  Inner
:func:`applied` blocks shadow outer ones key-by-key.

The stack is intentionally not thread- or task-local, same as the
observation stack: simulators are single-threaded and harness workers
are separate processes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from typing import Any, Iterator, Mapping

__all__ = ["active_values", "applied", "config_fingerprint", "tuned_value"]

_ACTIVE: list[dict[str, Any]] = []


@contextlib.contextmanager
def applied(values: Mapping[str, Any]) -> Iterator[dict[str, Any]]:
    """Apply a tuned-value mapping to every consumer inside the block."""
    from repro.tune.spec import validate_values

    frame = dict(values)
    validate_values(frame)
    _ACTIVE.append(frame)
    try:
        yield frame
    finally:
        _ACTIVE.remove(frame)


def active_values() -> dict[str, Any]:
    """The merged mapping currently in effect (inner frames win)."""
    merged: dict[str, Any] = {}
    for frame in _ACTIVE:
        merged.update(frame)
    return merged


def tuned_value(name: str, device: str | None = None) -> Any:
    """The active value for knob ``name`` on ``device``, or ``None``.

    Innermost frame wins; within a frame a device-scoped key beats a
    bare one.  ``None`` means "not tuned — use your own default".
    """
    for frame in reversed(_ACTIVE):
        if device is not None:
            scoped = f"{device}/{name}"
            if scoped in frame:
                return frame[scoped]
        if name in frame:
            return frame[name]
    return None


def config_fingerprint(values: Mapping[str, Any]) -> str:
    """Content address of one tuned-value mapping (sorted-JSON sha256)."""
    payload = json.dumps(dict(values), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()
