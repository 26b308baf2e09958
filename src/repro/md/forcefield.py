"""The force-backend registry: select a force path by name.

Every force formulation in the repo — the nested-loop executable
specification, the paper's all-pairs kernels, the pair list — is
registered here under a short name, so
:class:`repro.md.simulation.MDSimulation`, the device models, the
ablations, and the fig9 sweep can all select one with a string instead
of hand-wiring closures.  A factory receives ``(box, potential)`` plus
keyword options and returns a ``ForceBackend`` callable
(``positions -> ForceResult``).

The pair list is served under two names, ``verlet`` and ``cell``: both
build the same linked-cell :class:`repro.md.celllist.CellList` and take
one option, ``skin``.  Each call to :func:`make_force_backend` returns a
fresh list, so two simulations never share one.
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

__all__ = [
    "BackendFactory",
    "available_backends",
    "make_force_backend",
    "register_backend",
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

    ``options`` are backend-specific (``block`` for the dense scans,
    ``skin`` for the pair list); unknown names raise with the list of
    registered ones.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown force backend {name!r}; registered: "
            f"{', '.join(available_backends())}"
        ) from None
    return factory(box, potential, np.dtype(dtype), **options)


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
@register_backend("cell")
def _pair_list(box, potential, dtype, **options):
    skin = float(options.pop("skin", 0.3))
    if options:
        raise TypeError(f"the pair list got unknown options {sorted(options)}")
    return CellListForceBackend(box, potential, skin=skin, dtype=dtype)
