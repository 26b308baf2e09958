"""The O(N^2) reference pair search.

:func:`build_pairs` scans every row block of atoms against all atoms
and keeps the pairs within a radius.  Like
:func:`repro.md.forces.compute_forces_reference`, it is the reference,
not a production path: the pair list
(:class:`repro.md.celllist.CellList`) searches with the O(N) linked-cell
:func:`repro.md.celllist.build_pairs_cells`, and the tests, the
list-build scaling benchmark and ``abl-nlist``'s static cross-check hold
that search to this one, array for array.
"""

from __future__ import annotations

import numpy as np

from repro.md.box import PeriodicBox

__all__ = ["build_pairs", "validate_list_radius"]


def validate_list_radius(radius: float, box: PeriodicBox) -> None:
    """Raise if a pair-list radius is unusable for minimum-image searches.

    Shared by both pair searches and :class:`repro.md.celllist.CellList`,
    which checks the ``rcut + skin`` contract once at construction *and*
    again on every update — a box swapped mid-run can silently shrink
    below an already-validated radius otherwise.  Every radius it admits
    leaves at least two cells per side for the linked-cell search.
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
    block: int = 128,
) -> np.ndarray:
    """Return all unordered pairs (i < j) within ``radius``, shape (m, 2).

    Rows are scanned ``block`` at a time against all atoms.  128 rows
    keep each float64 temporary at 1.5 MB for 512 atoms; with 512-row
    blocks (6.3 MB each) heap layout alone moved the quick roster's
    peak RSS between 62 and 70 MB, through ``abl-nlist``'s static check.
    """
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
