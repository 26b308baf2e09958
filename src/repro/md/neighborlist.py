"""Verlet neighbor (pair) lists — the optimization the paper skips.

Section 3.4 notes that "one of the most common techniques is the
neighboring atom pairlist construction, which is updated every few
simulation time steps", and that the paper's kernels deliberately do
*not* use it.  This module implements the technique so the ablation
benchmark (``abl-nlist`` in DESIGN.md) can quantify exactly what the
paper left on the table for the cache-based baseline.

The list stores, for every atom, all partners within ``rcut + skin``.
It remains valid until some atom has moved more than ``skin / 2`` since
the last rebuild; :class:`NeighborList` tracks displacements and
rebuilds automatically.
"""

from __future__ import annotations

import numpy as np

from repro.md.box import PeriodicBox
from repro.md.forces import ForceResult, compute_pair_forces
from repro.md.lj import LennardJones

__all__ = ["NeighborList", "build_pairs", "compute_forces_neighborlist"]


def validate_list_radius(radius: float, box: PeriodicBox) -> None:
    """Raise if a pair-list radius is unusable for minimum-image searches.

    Shared by :class:`NeighborList` and :class:`repro.md.celllist.CellList`
    so the ``rcut + skin`` contract is checked once at construction *and*
    again on every update — a box swapped mid-run can silently shrink
    below an already-validated radius otherwise.
    """
    if radius > box.half_length:
        raise ValueError(
            f"list radius {radius} exceeds half the box length "
            f"{box.half_length}; shrink rcut + skin or enlarge the box"
        )


def build_pairs(
    positions: np.ndarray,
    box: PeriodicBox,
    radius: float,
    block: int = 512,
) -> np.ndarray:
    """Return all unordered pairs (i < j) within ``radius``, shape (m, 2)."""
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    validate_list_radius(radius, box)
    radius2 = radius * radius
    chunks: list[np.ndarray] = []
    for start in range(0, n, block):
        stop = min(start + block, n)
        delta = positions[start:stop, None, :] - positions[None, :, :]
        delta -= box.length * np.round(delta / box.length)
        r2 = np.einsum("bjk,bjk->bj", delta, delta)
        rows, cols = np.nonzero(r2 < radius2)
        rows = rows + start
        keep = rows < cols
        if np.any(keep):
            chunks.append(np.column_stack((rows[keep], cols[keep])))
    if not chunks:
        return np.empty((0, 2), dtype=np.intp)
    return np.concatenate(chunks, axis=0)


class NeighborList:
    """Self-maintaining Verlet pair list.

    Parameters
    ----------
    box, potential:
        The periodic cell and the potential whose cutoff the list serves.
    skin:
        Extra shell thickness beyond the cutoff.  Larger skins rebuild
        less often but visit more non-interacting pairs per step.
    """

    def __init__(
        self,
        box: PeriodicBox,
        potential: LennardJones,
        skin: float = 0.3,
    ) -> None:
        if skin < 0.0:
            raise ValueError(f"skin must be non-negative, got {skin}")
        validate_list_radius(potential.rcut + skin, box)
        self.box = box
        self.potential = potential
        self.skin = skin
        self.pairs = np.empty((0, 2), dtype=np.intp)
        self.rebuild_count = 0
        self._reference_positions: np.ndarray | None = None

    def needs_rebuild(self, positions: np.ndarray) -> bool:
        """True if any atom moved more than skin/2 since the last build."""
        if self._reference_positions is None:
            return True
        delta = np.asarray(positions, dtype=np.float64) - self._reference_positions
        delta -= self.box.length * np.round(delta / self.box.length)
        max_disp2 = float(np.max(np.einsum("ij,ij->i", delta, delta)))
        return max_disp2 > (0.5 * self.skin) ** 2

    @property
    def radius(self) -> float:
        """The list radius, ``rcut + skin``."""
        return self.potential.rcut + self.skin

    def update(self, positions: np.ndarray) -> bool:
        """Rebuild the list if stale; returns True when a rebuild happened.

        Re-validates ``rcut + skin`` against the *current* box on every
        call: a box swapped mid-run must fail loudly here, not silently
        serve a stale list between rebuilds.
        """
        validate_list_radius(self.radius, self.box)
        if not self.needs_rebuild(positions):
            return False
        positions = np.asarray(positions, dtype=np.float64)
        self.pairs = build_pairs(positions, self.box, self.potential.rcut + self.skin)
        self._reference_positions = positions.copy()
        self.rebuild_count += 1
        return True


def compute_forces_neighborlist(
    positions: np.ndarray,
    nlist: NeighborList,
    dtype: np.dtype | type = np.float64,
) -> ForceResult:
    """Force evaluation over a pair list instead of all pairs.

    While the list is fresh, accelerations and pair counts equal
    :func:`repro.md.forces.compute_forces` bit for bit.
    """
    nlist.update(positions)
    return compute_pair_forces(
        positions, nlist.pairs, nlist.box, nlist.potential, dtype=dtype
    )
