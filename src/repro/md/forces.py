"""Lennard-Jones force evaluation — step 2 of the paper's kernel.

The paper deliberately avoids pairlist construction and "calculate[s]
the distances on the fly" (section 3.4): every time step each atom's
distance to all other N-1 atoms is computed, atoms inside the cutoff
contribute a force and a potential-energy term.  This module provides

* :func:`compute_forces_reference` — straight nested Python loops,
  the executable specification, for small N and cross-checking;
* :func:`compute_forces` — the vectorized O(N²) scan of the dense
  ``all-pairs`` path: the paper's kernel, the oracle the pair list is
  tested against, and every device's functional path in boxes of fewer
  than three list-radius-wide cells per side (see
  :func:`repro.arch.device._functional_backend`);
* :func:`compute_forces_27image` — same physics with the minimum image
  obtained by the explicit 27-image search the Cell kernel uses;
* :func:`compute_pair_forces` — the same physics over a pair list's
  CSR partner table, the kernel of the pair-list backend
  (``verlet``/``cell``) and of every device's functional path in
  larger boxes.

All of them return a :class:`ForceResult` carrying the accelerations,
the potential energy and the interacting-pair count that the device
cost models consume.

One row-by-column kernel
------------------------
Every vectorized kernel — :func:`compute_forces`, the pair-list and
27-image kernels — evaluates the LJ terms in one private routine,
:func:`_lj_terms`: a block of rows against columns in
ascending global order, with one fixed expression sequence (cutoff
mask, LJ terms, ``einsum`` reductions).  Two facts make the column set
free to choose without changing a bit of the accelerations:

1. ``np.einsum("bj,bjk->bk", ...)`` (no ``optimize``) reduces the
   column axis in order, so dropping columns that contribute an exact
   ``±0.0`` leaves every partial sum unchanged (signed zeros aside,
   which ``np.array_equal`` treats as equal);
2. every column outside the cutoff contributes exactly ``±0.0`` force
   and ``0.0`` energy — its LJ terms are never evaluated, so its
   entries stay exact zeros.

So all columns and a row's partners in a fresh pair list give the same
acceleration rows, interacting counts and per-row interacting tallies.
Energy needs one more step: pairwise ``.sum()`` is *not* invariant
under dropping zero positions, while a strict left-to-right prefix sum
is (:func:`_prefix_pe`).

:func:`compute_forces` scans 256-row blocks against all columns and
reduces energy pairwise per block, which keeps small-box energies on
the bits the benchmark references pin.  The pair-list kernel gathers
blocks of consecutive rows from the list's partner table, scans each
row against its ascending partners, padded with its own index, and
prefix-sums each row's energy: on a list that holds every partner
inside the cutoff its accelerations and tallies are
:func:`compute_forces`'s bit for bit, and its energy is that of the
all-columns scan with per-row prefix sums.  The device cost models are
not affected either way: they price the paper's O(N²) scan from the
interacting-pair count.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.md.box import IMAGE_OFFSETS, PeriodicBox
from repro.md.lj import LennardJones

if TYPE_CHECKING:
    from repro.md.celllist import PairTable

__all__ = [
    "ForceResult",
    "compute_forces",
    "compute_forces_reference",
    "compute_forces_27image",
    "compute_pair_forces",
]

#: Row-block size of :func:`compute_forces`.  256 rows x 8192 cols x 3
#: dims of float64 is ~50 MB of transient working set, comfortably
#: in-memory while keeping each BLAS-free NumPy op long enough to
#: amortize dispatch.
_DENSE_BLOCK = 256

#: Rows per block of the pair-list kernel: 64 rows of ~90 partners keep
#: its transient working set near 150 kB.
_LIST_BLOCK = 64

#: Row-block size of :func:`compute_forces_27image`, whose 27 candidate
#: images per pair make each row 27 times wider than the dense scan's.
_IMAGE_BLOCK = 64


@dataclasses.dataclass(frozen=True)
class ForceResult:
    """The outcome of one force evaluation.

    Attributes
    ----------
    accelerations:
        Per-atom acceleration vectors, shape ``(n, 3)``; equal to forces
        because the reduced mass is 1.
    potential_energy:
        Total LJ potential energy of the configuration.
    interacting_pairs:
        Number of unordered pairs inside the cutoff — the quantity that
        drives the "interacting" branch of every device cost model.
    pairs_examined:
        Number of unordered candidate pairs whose distance the kernel
        computed: ``n * (n - 1) / 2`` for the all-pairs scans, the
        list length for the pair-list kernel.
    """

    accelerations: np.ndarray
    potential_energy: float
    interacting_pairs: int
    pairs_examined: int
    #: per-atom interacting-partner counts (ordered view: row i's scan);
    #: None only from :func:`compute_forces_reference`.  Drives the
    #: load-balance analysis of the Cell partitioning strategies.
    row_interacting: np.ndarray | None = None

    @property
    def interacting_fraction(self) -> float:
        """Share of examined pairs that fell inside the cutoff."""
        if self.pairs_examined == 0:
            return 0.0
        return self.interacting_pairs / self.pairs_examined


def _validate(positions: np.ndarray, box: PeriodicBox, potential: LennardJones) -> np.ndarray:
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError(f"positions must have shape (n, 3), got {positions.shape}")
    if potential.rcut > box.half_length:
        raise ValueError(
            f"cutoff {potential.rcut} exceeds half the box length "
            f"{box.half_length}; minimum image would be ambiguous"
        )
    return positions


def compute_forces_reference(
    positions: np.ndarray,
    box: PeriodicBox,
    potential: LennardJones,
) -> ForceResult:
    """Nested-loop reference kernel; O(N^2) in pure Python, small N only."""
    positions = _validate(positions, box, potential)
    n = positions.shape[0]
    acc = np.zeros((n, 3))
    pe = 0.0
    interacting = 0
    rcut2 = potential.rcut2
    for i in range(n):
        for j in range(i + 1, n):
            delta = box.minimum_image(positions[i] - positions[j])
            r2 = float(delta @ delta)
            if r2 < rcut2:
                interacting += 1
                f_over_r = float(potential.force_over_r(np.array([r2]))[0])
                force = f_over_r * delta
                acc[i] += force
                acc[j] -= force
                pe += float(potential.energy(np.array([np.sqrt(r2)]))[0])
    return ForceResult(
        accelerations=acc,
        potential_energy=pe,
        interacting_pairs=interacting,
        pairs_examined=n * (n - 1) // 2,
    )


def _lj_rows(
    pos_rows: np.ndarray,
    pos_cols: np.ndarray,
    skip: np.ndarray,
    box: PeriodicBox,
    potential: LennardJones,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum image of a block of rows against ascending column sets,
    then :func:`_lj_terms`.

    Positions are already cast to the arithmetic dtype.  ``pos_cols`` is
    one column set (k, 3) shared by the ``pos_rows`` (b, 3), holding row
    b at column ``skip[b]``, or one set per row (b, k, 3) with ``skip``
    a (b, k) mask of the self and padding entries.
    """
    if pos_cols.ndim == 2:
        pos_cols = pos_cols[None]
        skip = (np.arange(pos_rows.shape[0]), skip)
    length = pos_rows.dtype.type(box.length)
    # delta[b, j, :] = minimum image of row b - column j
    delta = pos_rows[:, None, :] - pos_cols
    delta -= length * np.round(delta / length)
    r2 = np.einsum("bjk,bjk->bj", delta, delta)
    # Mask out the self pair (r2 == 0) and any padding.
    r2[skip] = np.inf
    return _lj_terms(delta, r2, potential)


def _lj_terms(
    delta: np.ndarray, r2: np.ndarray, potential: LennardJones
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one LJ term evaluation of every vectorized kernel.

    ``delta`` (b, k, 3) holds minimum-image separations of b rows from
    k columns in ascending global order, ``r2`` (b, k) their squared
    lengths with the self and padding entries set to ``inf``.  Returns
    the rows' accelerations (b, 3), the per-pair energies (b, k) in
    column order, and each row's interacting-partner count (b,).  See
    the module docstring for why the column set cannot change a bit of
    the accelerations.
    """
    dtype = delta.dtype
    rcut2 = dtype.type(potential.rcut2)
    sigma2 = dtype.type(potential.sigma * potential.sigma)
    eps24 = dtype.type(24.0 * potential.epsilon)
    eps4 = dtype.type(4.0 * potential.epsilon)
    shift = dtype.type(potential.shift_energy)

    within = r2 < rcut2
    # The LJ terms are evaluated only inside the cutoff; every other
    # entry of f_over_r and pair_pe is an exact +0.0.
    r2_in = r2[within]
    inv_r2 = sigma2 / r2_in
    sr6 = inv_r2 * inv_r2 * inv_r2
    sr12 = sr6 * sr6
    f_over_r = np.zeros_like(r2)
    f_over_r[within] = (
        eps24 * (dtype.type(2.0) * sr12 - sr6) * (dtype.type(1.0) / r2_in)
    )
    acc = np.einsum("bj,bjk->bk", f_over_r, delta)
    pair_pe = np.zeros_like(r2)
    pair_pe[within] = eps4 * (sr12 - sr6) - shift
    return acc, pair_pe, within.sum(axis=1)


def _prefix_pe(pair_pe: np.ndarray) -> np.ndarray:
    """Per-row energy by a strict left-to-right prefix sum.

    Unlike ``.sum()`` (pairwise, with several accumulator lanes), the
    last element of ``np.add.accumulate`` is invariant under dropping
    the exact ``+0.0`` terms of out-of-cutoff columns: surviving terms
    keep their global column order and nothing else is added.
    """
    return np.add.accumulate(pair_pe, axis=1, dtype=pair_pe.dtype)[:, -1]


def compute_forces(
    positions: np.ndarray,
    box: PeriodicBox,
    potential: LennardJones,
    dtype: np.dtype | type = np.float64,
) -> ForceResult:
    """Vectorized O(N²) kernel: row blocks against every column.

    Parameters
    ----------
    dtype:
        Arithmetic precision.  The paper runs float32 on Cell/GPU and
        float64 on Opteron/MTA-2; passing ``np.float32`` makes this
        kernel reproduce the single-precision arithmetic bit-for-bit at
        the NumPy level.
    """
    positions = _validate(positions, box, potential)
    n = positions.shape[0]
    dtype = np.dtype(dtype)
    pos = positions.astype(dtype)
    acc = np.zeros((n, 3), dtype=dtype)
    pe = dtype.type(0.0)
    row_interacting = np.zeros(n, dtype=np.int64)
    for start in range(0, n, _DENSE_BLOCK):
        stop = min(start + _DENSE_BLOCK, n)
        tile_acc, pair_pe, row_interacting[start:stop] = _lj_rows(
            pos[start:stop], pos, np.arange(start, stop), box, potential
        )
        acc[start:stop] += tile_acc
        pe += pair_pe.sum(dtype=dtype)

    # Every unordered pair was visited twice (once from each row), so
    # halve the tallies; the force accumulation is already one-sided
    # per row and needs no halving.
    return ForceResult(
        accelerations=acc.astype(np.float64),
        potential_energy=0.5 * float(pe),
        interacting_pairs=int(row_interacting.sum()) // 2,
        pairs_examined=n * (n - 1) // 2,
        row_interacting=row_interacting,
    )


def compute_pair_forces(
    positions: np.ndarray,
    table: PairTable,
    box: PeriodicBox,
    potential: LennardJones,
    dtype: np.dtype | type = np.float64,
) -> ForceResult:
    """Force evaluation over a pair list's partner table.

    The kernel of the pair list (:class:`repro.md.celllist.PairTable`):
    blocks of :data:`_LIST_BLOCK` consecutive rows, each row against its
    ascending partners padded with its own index (see the module
    docstring).  Partners outside the cutoff contribute nothing;
    ``pairs_examined`` reports the table's unordered pair count.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    dtype = np.dtype(dtype)
    pos = positions.astype(dtype)
    counts = np.diff(table.indptr)

    acc = np.zeros((n, 3), dtype=dtype)
    pe_rows = np.zeros(n, dtype=dtype)
    row_interacting = np.zeros(n, dtype=np.int64)
    for start in range(0, n, _LIST_BLOCK):
        stop = min(start + _LIST_BLOCK, n)
        rows = table.rows[start:stop]
        row_counts = counts[start:stop]
        # listed[b, k]: entry k of row b is a partner, not padding
        listed = np.arange(max(1, int(row_counts.max()))) < row_counts[:, None]
        cols = np.repeat(rows[:, None], listed.shape[1], axis=1)
        cols[listed] = table.partners[table.indptr[start] : table.indptr[stop]]
        tile_acc, pair_pe, row_interacting[rows] = _lj_rows(
            pos[rows], pos[cols], ~listed, box, potential
        )
        acc[rows] = tile_acc
        pe_rows[rows] = _prefix_pe(pair_pe)
    return ForceResult(
        accelerations=acc.astype(np.float64),
        potential_energy=0.5 * float(pe_rows.sum(dtype=dtype)),
        interacting_pairs=int(row_interacting.sum()) // 2,
        pairs_examined=table.n_pairs,
        row_interacting=row_interacting,
    )


def compute_forces_27image(
    positions: np.ndarray,
    box: PeriodicBox,
    potential: LennardJones,
    dtype: np.dtype | type = np.float64,
) -> ForceResult:
    """All-pairs kernel with minimum image by explicit 27-image search.

    Functionally identical to :func:`compute_forces`; exists so tests can
    certify that the formulation the Cell/GPU kernels use agrees with the
    closed-form wrap, and to serve as the executable specification for
    the "SIMD unit cell reflection" optimization of Figure 5.
    """
    positions64 = _validate(positions, box, potential)
    n = positions64.shape[0]
    dtype = np.dtype(dtype)
    pos = positions64.astype(dtype)
    offsets = (IMAGE_OFFSETS * box.length).astype(dtype)

    acc = np.zeros((n, 3), dtype=dtype)
    pe = dtype.type(0.0)
    row_interacting = np.zeros(n, dtype=np.int64)

    for start in range(0, n, _IMAGE_BLOCK):
        stop = min(start + _IMAGE_BLOCK, n)
        raw = pos[start:stop, None, :] - pos[None, :, :]
        # candidates[b, j, m, :] = raw + offset_m ; pick the shortest image.
        candidates = raw[:, :, None, :] + offsets[None, None, :, :]
        norms2 = np.einsum("bjmk,bjmk->bjm", candidates, candidates)
        best = np.argmin(norms2, axis=2)
        b_idx, j_idx = np.indices(best.shape)
        delta = candidates[b_idx, j_idx, best]
        r2 = norms2[b_idx, j_idx, best]
        r2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        tile_acc, pair_pe, row_interacting[start:stop] = _lj_terms(delta, r2, potential)
        acc[start:stop] += tile_acc
        pe += pair_pe.sum(dtype=dtype)

    return ForceResult(
        accelerations=acc.astype(np.float64),
        potential_energy=0.5 * float(pe),
        interacting_pairs=int(row_interacting.sum()) // 2,
        pairs_examined=n * (n - 1) // 2,
        row_interacting=row_interacting,
    )
