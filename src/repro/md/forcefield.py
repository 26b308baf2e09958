"""The force-backend registry: select a force path by name.

Every force formulation in the repo — the nested-loop executable
specification, the paper's all-pairs kernels, the Verlet list, the
linked-cell list — is registered here under a short name, so
:class:`repro.md.simulation.MDSimulation`, the device models, the
ablations, and the fig9 sweep can all select one with a string instead
of hand-wiring closures.  A factory receives ``(box, potential)`` plus
keyword options and returns a ``ForceBackend`` callable
(``positions -> ForceResult``).

Stateful backends (Verlet, cell) return fresh objects per call to
:func:`make_force_backend`, so two simulations never share a list.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from repro.md.box import PeriodicBox
from repro.md.celllist import CellListForceBackend
from repro.md.forces import (
    ForceResult,
    compute_forces,
    compute_forces_27image,
    compute_forces_reference,
)
from repro.md.lj import LennardJones
from repro.md.neighborlist import NeighborList, compute_forces_neighborlist
from repro.tune.context import tuned_value
from repro.tune.spec import TunableSpec, register_tunable

__all__ = [
    "BackendFactory",
    "TUNED_OPTION_MAP",
    "VerletListForceBackend",
    "available_backends",
    "make_force_backend",
    "register_backend",
    "tuned_backend_options",
]


class BackendFactory(Protocol):
    def __call__(
        self,
        box: PeriodicBox,
        potential: LennardJones,
        dtype: np.dtype,
        **options: object,
    ) -> Callable[[np.ndarray], ForceResult]: ...


_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(name: str) -> Callable[[BackendFactory], BackendFactory]:
    """Decorator: register a force-backend factory under ``name``."""

    def decorate(factory: BackendFactory) -> BackendFactory:
        if name in _REGISTRY:
            raise ValueError(f"force backend {name!r} is already registered")
        _REGISTRY[name] = factory
        return factory

    return decorate


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_force_backend(
    name: str,
    box: PeriodicBox,
    potential: LennardJones,
    dtype: np.dtype | type = np.float64,
    **options: object,
) -> Callable[[np.ndarray], ForceResult]:
    """Instantiate the named backend for one simulation.

    ``options`` are backend-specific (e.g. ``skin`` for ``"verlet"``,
    ``buffer``/``rebuild_check_delay`` for ``"cell"``); unknown names
    raise with the list of registered ones.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown force backend {name!r}; registered: "
            f"{', '.join(available_backends())}"
        ) from None
    return factory(box, potential, np.dtype(dtype), **options)


class VerletListForceBackend:
    """``ForceBackend`` adapter over a self-maintaining Verlet list.

    The Verlet sibling of
    :class:`repro.md.celllist.CellListForceBackend`, with the same
    rebuild/reuse counters so reports can compare list reuse across the
    two structures.
    """

    def __init__(
        self,
        box: PeriodicBox,
        potential: LennardJones,
        skin: float = 0.3,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        self.nlist = NeighborList(box, potential, skin=skin)
        self.dtype = np.dtype(dtype)
        self.reuse_count = 0

    @property
    def rebuild_count(self) -> int:
        return self.nlist.rebuild_count

    @property
    def reuse_fraction(self) -> float:
        """Share of force evaluations served by an already-built list."""
        total = self.rebuild_count + self.reuse_count
        return self.reuse_count / total if total else 0.0

    def __call__(self, positions: np.ndarray) -> ForceResult:
        before = self.nlist.rebuild_count
        result = compute_forces_neighborlist(positions, self.nlist, dtype=self.dtype)
        if self.nlist.rebuild_count == before:
            self.reuse_count += 1
        return result


@register_backend("reference")
def _reference(box, potential, dtype, **options):
    if options:
        raise TypeError(f"'reference' takes no options, got {sorted(options)}")

    def backend(positions: np.ndarray) -> ForceResult:
        return compute_forces_reference(positions, box, potential)

    return backend


@register_backend("all-pairs")
def _all_pairs(box, potential, dtype, **options):
    block = int(options.pop("block", 256))
    if options:
        raise TypeError(f"'all-pairs' got unknown options {sorted(options)}")

    def backend(positions: np.ndarray) -> ForceResult:
        return compute_forces(positions, box, potential, dtype=dtype, block=block)

    return backend


@register_backend("27image")
def _27image(box, potential, dtype, **options):
    block = int(options.pop("block", 64))
    if options:
        raise TypeError(f"'27image' got unknown options {sorted(options)}")

    def backend(positions: np.ndarray) -> ForceResult:
        return compute_forces_27image(
            positions, box, potential, dtype=dtype, block=block
        )

    return backend


@register_backend("verlet")
def _verlet(box, potential, dtype, **options):
    skin = float(options.pop("skin", 0.3))
    if options:
        raise TypeError(f"'verlet' got unknown options {sorted(options)}")
    return VerletListForceBackend(box, potential, skin=skin, dtype=dtype)


@register_backend("cell")
def _cell(box, potential, dtype, **options):
    buffer = float(options.pop("buffer", 0.3))
    rebuild_check_delay = int(options.pop("rebuild_check_delay", 1))
    check_dist = bool(options.pop("check_dist", True))
    if options:
        raise TypeError(f"'cell' got unknown options {sorted(options)}")
    return CellListForceBackend(
        box,
        potential,
        buffer=buffer,
        dtype=dtype,
        rebuild_check_delay=rebuild_check_delay,
        check_dist=check_dist,
    )


# -- tunable knobs -----------------------------------------------------
#
# Declared here, consumed by Device.functional_backend: each backend's
# scheduling options map to a dotted knob name the tuner may search.
# None of these change the physics — block sizes only re-chunk the dense
# pair scans (reordering float energy reductions within shape-band
# tolerance; accelerations are blocked by row and do not move), and
# skin/buffer/rebuild-delay only trade list rebuilds against extra
# candidate pairs; every neighbor inside the cutoff is still found.

register_tunable(TunableSpec(
    name="md.block",
    backend="md",
    kind="int",
    default=256,
    candidates=(64, 128, 256, 512, 1024),
    low=16,
    high=8192,
    description="row-block size of the dense all-pairs branch and the "
                "27image scan; the all-pairs kernel's cell-column branch "
                "(>= 4 cutoff-wide cells per side) blocks by cell instead",
    effect="re-chunks only the dense scans: larger blocks amortize Python "
           "loop overhead until the (block x N) distance matrix falls out "
           "of cache; no effect where the all-pairs kernel scans cells",
))
register_tunable(TunableSpec(
    name="md.skin",
    backend="md",
    kind="float",
    default=0.3,
    candidates=(0.1, 0.2, 0.3, 0.45, 0.6),
    low=0.01,
    high=2.0,
    description="Verlet neighbor-list skin radius (sigma units)",
    effect="thicker skin -> fewer rebuilds but more candidate pairs "
           "per force evaluation",
))
register_tunable(TunableSpec(
    name="md.cell_buffer",
    backend="md",
    kind="float",
    default=0.3,
    candidates=(0.1, 0.2, 0.3, 0.45, 0.6),
    low=0.01,
    high=2.0,
    description="linked-cell list buffer width (sigma units)",
    effect="wider buffer -> fewer cell rebuilds but larger cells to scan",
))
register_tunable(TunableSpec(
    name="md.rebuild_delay",
    backend="md",
    kind="int",
    default=1,
    candidates=(1, 2, 4, 8),
    low=1,
    high=64,
    description="steps between linked-cell displacement checks",
    effect="longer delay skips distance checks; the buffer still "
           "guarantees correctness between rebuilds",
))

#: force-backend name -> {factory option: knob name}; the hook
#: :func:`tuned_backend_options` uses to translate active tuned values
#: into factory keyword options.
TUNED_OPTION_MAP: dict[str, dict[str, str]] = {
    "all-pairs": {"block": "md.block"},
    "27image": {"block": "md.block"},
    "verlet": {"skin": "md.skin"},
    "cell": {"buffer": "md.cell_buffer", "rebuild_check_delay": "md.rebuild_delay"},
}


def tuned_backend_options(name: str, device: str | None = None) -> dict[str, object]:
    """Factory options for ``name`` from the active tuned config.

    Only knobs with an active tuned value appear; with no tuning in
    effect this is ``{}`` and every factory keeps its own defaults.
    """
    options: dict[str, object] = {}
    for option, knob in TUNED_OPTION_MAP.get(name, {}).items():
        value = tuned_value(knob, device)
        if value is not None:
            options[option] = value
    return options
