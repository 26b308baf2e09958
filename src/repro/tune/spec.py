"""Typed declaration of every tunable knob in the system.

Each backend declares its knobs *where they live* — the Cell
partitioner declares ``cell.partition``, the MTA stream model
``mta.streams`` — by calling :func:`register_tunable` at import time.
The tuner then has one place to ask "what can I turn, between which
bounds, and what should it do?".

Every knob moves only the simulated clock: it is read by a device
model's pricing, never by the force path, so a tuned run integrates the
untuned trajectory and differs only in its modeled seconds.  The
registry also rejects a knob declared ``affects_physics=True`` (dtype,
cutoff radius, dt, ...) at registration.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Mapping

__all__ = [
    "TunableSpec",
    "all_tunables",
    "ensure_declared",
    "register_tunable",
    "tunable",
    "validate_values",
]

_KINDS = ("int", "float", "choice")

#: modules that declare knobs at import time (lazy — no import cycles:
#: this module imports nothing from the rest of repro)
_DECLARING_MODULES = ("repro.cell.partition", "repro.mta.streams")


@dataclasses.dataclass(frozen=True)
class TunableSpec:
    """One knob: name, home backend, bounds, and the probe grid."""

    #: dotted name, ``<family>.<knob>`` (e.g. ``cell.partition``)
    name: str
    #: backend family that consumes it (cell/mta)
    backend: str
    #: value kind: ``int``, ``float``, or ``choice``
    kind: str
    #: the untuned value every consumer falls back to
    default: Any
    #: the grid the tuner probes (always contains ``default``)
    candidates: tuple[Any, ...]
    #: inclusive bounds for numeric kinds (``None`` for choices)
    low: Any = None
    high: Any = None
    description: str = ""
    #: one line on the expected direction of the effect (docs + reports)
    effect: str = ""
    #: declared-but-forbidden marker; registration refuses these so the
    #: tuner can never trade accuracy for speed silently
    affects_physics: bool = False

    def validate(self, value: Any) -> None:
        """Raise ``ValueError`` unless ``value`` is legal for this knob."""
        if self.kind == "choice":
            if value not in self.candidates:
                raise ValueError(
                    f"{self.name}: {value!r} not one of {self.candidates!r}"
                )
            return
        if self.kind == "int" and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValueError(f"{self.name}: {value!r} is not an int")
        if self.kind == "float" and not isinstance(value, (int, float)):
            raise ValueError(f"{self.name}: {value!r} is not a number")
        if self.low is not None and value < self.low:
            raise ValueError(f"{self.name}: {value!r} < low bound {self.low!r}")
        if self.high is not None and value > self.high:
            raise ValueError(f"{self.name}: {value!r} > high bound {self.high!r}")


TUNABLES: dict[str, TunableSpec] = {}

_declared = False


def register_tunable(spec: TunableSpec) -> TunableSpec:
    """Add one knob to the registry (idempotent for identical respecs).

    Raises ``ValueError`` for physics-affecting knobs, duplicate names
    with different specs, malformed kinds/bounds, or a candidate grid
    that violates the spec's own bounds or omits the default.
    """
    if spec.affects_physics:
        raise ValueError(
            f"tunable {spec.name!r} affects physics (trajectories would "
            "change); only knobs of the simulated clock are tunable"
        )
    if spec.kind not in _KINDS:
        raise ValueError(f"tunable {spec.name!r}: unknown kind {spec.kind!r}")
    if not spec.candidates:
        raise ValueError(f"tunable {spec.name!r}: empty candidate grid")
    if spec.default not in spec.candidates:
        raise ValueError(
            f"tunable {spec.name!r}: default {spec.default!r} not in "
            f"candidates {spec.candidates!r}"
        )
    for value in spec.candidates:
        spec.validate(value)
    existing = TUNABLES.get(spec.name)
    if existing is not None:
        if existing != spec:
            raise ValueError(f"tunable {spec.name!r} already registered differently")
        return existing
    TUNABLES[spec.name] = spec
    return spec


def ensure_declared() -> None:
    """Import every knob-declaring backend module exactly once."""
    global _declared
    if _declared:
        return
    _declared = True
    for module in _DECLARING_MODULES:
        importlib.import_module(module)


def all_tunables() -> tuple[TunableSpec, ...]:
    """Every declared knob, name-sorted (imports backends on demand)."""
    ensure_declared()
    return tuple(TUNABLES[name] for name in sorted(TUNABLES))


def tunable(name: str) -> TunableSpec:
    """Look up one knob by dotted name (imports backends on demand)."""
    ensure_declared()
    try:
        return TUNABLES[name]
    except KeyError:
        raise KeyError(
            f"unknown tunable {name!r}; declared: {sorted(TUNABLES)}"
        ) from None


def validate_values(values: Mapping[str, Any]) -> None:
    """Check a scoped ``{"<device>/<knob>": value}`` mapping.

    Keys may also be bare knob names (apply to every device).  Raises
    ``ValueError``/``KeyError`` on unknown knobs or out-of-bounds
    values — the artifact loader calls this so a hand-edited tuned
    config can never smuggle an illegal value into a run.
    """
    for key, value in values.items():
        name = key.rsplit("/", 1)[-1] if "/" in key else key
        tunable(name).validate(value)
