"""The pair list: linked-cell search plus a self-maintaining list.

Section 3.4 of the paper names the neighbouring-atom pair list,
"updated every few simulation time steps", as the optimisation its
kernels deliberately skip.  This module is the repo's one
implementation of it.  Both list backends of the force registry
(``verlet`` and ``cell``) run it, and so does every fast-mode device
once the box is large enough (see :mod:`repro.arch.device`); the device
cost models still price the paper's O(N^2) scan.

The one pair search, :func:`_pair_table`, bins atoms into a cubic grid
of cells at least ``radius`` wide and scans each unordered pair of
neighbouring cells once (a half shell: each cell against itself and
its neighbours with a higher id), so each atom only examines the cells
around its own: O(N) total work at fixed density.  Every close pair is
written to both of its ends, and one in-place sort of integer keys
turns them into a :class:`PairTable`, every atom's partners in CSR
form.  :func:`build_pairs_cells` derives the half list from that table,
exactly the array, order included, of
:func:`repro.md.neighborlist.build_pairs`, the O(N^2) reference scan
the tests hold it to.  The structure is the one HOOMD-blue's
``NList``/``CellList`` pair uses (see SNIPPETS.md) and the one the GPU
N-body literature identifies as the step that unlocks large-N MD.

:class:`CellList` keeps the table of every pair within ``rcut + skin``
and stays valid until some atom has moved more than ``skin / 2`` since
the last build; it checks displacements on every update and rebuilds
when they exceed that.  Its builds go through a small process-wide
memo of read-only tables (:data:`_tables`), so identical builds, such
as the float32 and float64 trajectories of one lattice start, share one
table.  :class:`CellListForceBackend` wraps the list
into the ``ForceBackend`` callable shape that
:class:`repro.md.simulation.MDSimulation` and the device models consume,
and exposes rebuild/reuse counters for the experiment reports.
:func:`default_skin` is the skin the registry and the devices use: 0.3σ,
shrunk to what the box leaves beyond the cutoff.
"""

from __future__ import annotations

import collections
import dataclasses
import threading

import numpy as np

from repro.md.box import PeriodicBox
from repro.md.forces import ForceResult, compute_pair_forces
from repro.md.lj import LennardJones
from repro.md.neighborlist import validate_list_radius

__all__ = [
    "CellGrid",
    "CellList",
    "CellListForceBackend",
    "PairTable",
    "build_pairs_cells",
    "cells_per_side",
    "default_skin",
]

#: Most row x column entries one step of the pair search holds.  One row
#: against its ~440 half-shell columns (2048 atoms) is ~10 kB of float64
#: separations, so chunks of ~4096 entries keep the search's transient
#: working set near 100 kB however many rows a cell holds; unchunked, one
#: 2048-atom rebuild plus evaluation peaked at 4.7 MB under tracemalloc.
_CHUNK_ENTRIES = 4096

#: Keys mirrored per step at the end of the pair search (256 kB of
#: int32), so the mirror's temporaries stay small next to the keys.
_MIRROR_BLOCK = 1 << 16


def cells_per_side(box: PeriodicBox, radius: float) -> int:
    """Cells per box edge for a search ``radius``; each cell >= radius wide."""
    if radius <= 0.0:
        raise ValueError(f"search radius must be positive, got {radius}")
    return int(np.floor(box.length / radius))


def default_skin(box: PeriodicBox, potential: LennardJones) -> float:
    """The list skin when none is given: 0.3σ, or what the half box
    leaves beyond the cutoff if that is less (skin 0 rebuilds every
    step and stays correct)."""
    return min(0.3, box.half_length - potential.rcut)


class CellGrid:
    """A cubic binning of the periodic box into ``m**3`` cells.

    Precomputes each cell's periodic neighbourhood — the flat ids of the
    cells at most one step away along every axis, the "cell adjacency"
    the pair search walks.  With ``m >= 3`` that is the 27 offsets in
    ``{-1, 0, 1}**3``, all distinct.  With ``m == 2`` the offsets -1 and
    +1 name the same cell, so each cell lists the 8 distinct cells
    ``{0, 1}**3`` away: the whole box, each cell once.  ``m < 2`` means
    a radius beyond half the box, which no minimum-image search admits.
    The half-shell search walks :attr:`forward`, each cell's neighbours
    with a higher flat id.
    """

    def __init__(self, box: PeriodicBox, radius: float) -> None:
        m = cells_per_side(box, radius)
        if m < 2:
            raise ValueError(
                f"box of length {box.length} holds only {m} cells of width "
                f">= {radius} per side; need >= 2 for a linked-cell search"
            )
        self.box = box
        self.radius = radius
        self.m = m
        self.n_cells = m**3
        self.cell_width = box.length / m
        steps = (-1, 0, 1) if m >= 3 else (0, 1)
        offsets = np.array(
            [(dx, dy, dz) for dx in steps for dy in steps for dz in steps],
            dtype=np.int64,
        )
        grid = np.indices((m, m, m)).reshape(3, -1).T  # (m^3, 3) cell coords
        neighbor_coords = (grid[:, None, :] + offsets[None, :, :]) % m
        #: (n_cells, 27) flat ids of each cell's periodic neighborhood
        #: (n_cells, 8) when m == 2
        self.neighbors = (
            neighbor_coords[:, :, 0] * m * m
            + neighbor_coords[:, :, 1] * m
            + neighbor_coords[:, :, 2]
        )
        # Each row of ``neighbors`` is distinct for both m == 2 and
        # m >= 3, so the cells above a cell's own id name every
        # unordered pair of neighbouring cells exactly once.
        #: per cell, its neighbours with a higher flat id
        self.forward = [
            row[row > cell] for cell, row in enumerate(self.neighbors)
        ]

    def assign(self, positions: np.ndarray) -> np.ndarray:
        """Flat cell id of each atom (positions are wrapped first)."""
        wrapped = self.box.wrap(np.asarray(positions, dtype=np.float64))
        coords = np.floor(wrapped / self.cell_width).astype(np.int64)
        # wrap() keeps positions in [0, L), but L/width * (L - eps) can
        # still floor to m for coordinates within one ulp of L.
        np.clip(coords, 0, self.m - 1, out=coords)
        return coords[:, 0] * self.m * self.m + coords[:, 1] * self.m + coords[:, 2]


@dataclasses.dataclass(frozen=True)
class PairTable:
    """Every atom's partners within a radius, in CSR form.

    Row ``k`` is atom ``rows[k]``; its partners are
    ``partners[indptr[k] : indptr[k + 1]]``, in ascending order.  Rows
    run in cell-major order (ascending atom index within a cell), so a
    block of consecutive rows is a spatially compact set of atoms.  The
    table is symmetric: ``j`` is a partner of ``i`` exactly when ``i``
    is one of ``j``.
    """

    #: (n,) int32 atom index of each row
    rows: np.ndarray
    #: (n + 1,) int64 offsets of each row's partners
    indptr: np.ndarray
    #: (nnz,) int32 partner indices
    partners: np.ndarray

    @property
    def n_pairs(self) -> int:
        """Unordered pairs in the table (each is listed from both ends)."""
        return int(self.indptr[-1]) // 2

    def half_pairs(self) -> np.ndarray:
        """The unordered pairs (i < j), shape (m, 2), sorted by i then j:
        the order of the reference scan."""
        owners = np.repeat(self.rows, np.diff(self.indptr))
        keep = self.partners > owners
        i, j = owners[keep], self.partners[keep]
        # Each row's partners ascend, so a stable sort by row finishes it.
        order = np.argsort(i, kind="stable")
        return np.column_stack((i[order], j[order])).astype(np.intp)


def _key_dtype(n: int) -> np.dtype:
    """Integer dtype of the pair search's ``row * n + column`` keys."""
    return np.dtype(np.int32 if n * n < 2**31 else np.int64)


def _pair_table(positions: np.ndarray, box: PeriodicBox, radius: float) -> PairTable:
    """Linked-cell search for every partner within ``radius`` of each atom.

    A half-shell scan: each cell's rows are scanned, in chunks of at
    most :data:`_CHUNK_ENTRIES` row x column entries, against the later
    members of their own cell and all members of the cell's forward
    neighbours (:attr:`CellGrid.forward`), so every unordered pair of
    atoms in neighbouring cells is examined exactly once.  The
    separations use the reference scan's minimum-image arithmetic;
    since ``pj - pi`` is bitwise ``-(pi - pj)``, the scan direction
    cannot change which pairs fall inside ``radius``.  Within a cell
    the self entry and the earlier rows are dropped by position, so two
    distinct atoms at one position stay partners.

    Each close pair is kept as one integer key ``rowpos[i] * n + j``
    (``rowpos[i]`` is atom ``i``'s row in the table), mirrored to
    ``rowpos[j] * n + i`` at the end, and the keys are sorted in place:
    the sorted keys run row by row with each row's partners ascending,
    so ``indptr`` is where each row's key range starts and the partners
    are the keys modulo ``n``.  The keys are int32 while ``n**2 < 2**31``.
    """
    positions = np.asarray(positions, dtype=np.float64)
    validate_list_radius(radius, box)
    grid = CellGrid(box, radius)
    n = positions.shape[0]
    cell_of = grid.assign(positions)
    order = np.argsort(cell_of, kind="stable").astype(np.int32)
    # first row of each cell, then the end of the table
    bounds = np.zeros(grid.n_cells + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell_of, minlength=grid.n_cells), out=bounds[1:])
    members = np.split(order, bounds[1:-1])
    key_dtype = _key_dtype(n)
    row_keys = np.arange(n, dtype=key_dtype) * key_dtype.type(n)

    radius2 = radius * radius
    half: list[np.ndarray] = []
    for cell, rows in enumerate(members):
        if rows.size == 0:
            continue
        cols = np.concatenate([rows, *(members[c] for c in grid.forward[cell])])
        pos_cols = positions[cols]
        step = max(1, _CHUNK_ENTRIES // cols.size)
        for start in range(0, rows.size, step):
            stop = min(start + step, rows.size)
            # columns from the chunk's first row on: own-cell rows before
            # it have already scanned this chunk
            delta = positions[rows[start:stop]][:, None, :] - pos_cols[start:]
            delta -= box.length * np.round(delta / box.length)
            close = np.einsum("bjk,bjk->bj", delta, delta) < radius2
            # own-cell entries on or below the diagonal: self, or seen
            close[:, : stop - start][np.tri(stop - start, dtype=bool)] = False
            b, k = np.nonzero(close)
            half.append(row_keys[bounds[cell] + start + b] + cols[start + k])

    n_half = sum(keys.size for keys in half)
    keys = np.empty(2 * n_half, dtype=key_dtype)
    if half:
        np.concatenate(half, out=keys[:n_half])
    del half
    rowpos = np.empty(n, dtype=key_dtype)
    rowpos[order] = np.arange(n, dtype=key_dtype)
    # key (rowpos[i] * n + j) -> its mirror (rowpos[j] * n + i)
    for start in range(0, n_half, _MIRROR_BLOCK):
        stop = min(start + _MIRROR_BLOCK, n_half)
        block = keys[start:stop]
        keys[n_half + start : n_half + stop] = (
            row_keys[rowpos[block % n]] + order[block // n]
        )
    keys.sort()
    # bounds in the keys' own dtype: int64 bounds would cast every key
    starts = np.arange(n + 1, dtype=key_dtype) * key_dtype.type(n)
    indptr = np.searchsorted(keys, starts)
    np.remainder(keys, n, out=keys)
    partners = keys.astype(np.int32, copy=False)
    # read-only, so one table can serve every list that asks for it
    for array in (order, indptr, partners):
        array.flags.writeable = False
    return PairTable(rows=order, indptr=indptr, partners=partners)


class _TableMemo:
    """The last pair tables built in this process, under a byte budget.

    Identical builds are common: every run starts from
    :func:`repro.md.lattice.cubic_lattice`, so the float32 and float64
    trajectories of one configuration build the same first table.  A
    table is looked up by the exact position bytes, their shape, the box
    length and the radius; :func:`_pair_table` is a function of those
    alone, and its tables are read-only.  Tables and key bytes together
    stay within ``budget`` bytes, least recently used first out; a table
    larger than the whole budget is built but not kept.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        #: key -> (table, bytes held), least recently used first
        self._entries: collections.OrderedDict[tuple, tuple[PairTable, int]] = (
            collections.OrderedDict()
        )
        self._bytes = 0
        self._lock = threading.Lock()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def table(
        self, positions: np.ndarray, box: PeriodicBox, radius: float
    ) -> PairTable:
        """The pair table of ``positions`` (float64), built on a miss."""
        key = (positions.tobytes(), positions.shape, box.length, radius)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
        table = _pair_table(positions, box, radius)
        size = len(key[0]) + sum(
            a.nbytes for a in (table.rows, table.indptr, table.partners)
        )
        if size <= self.budget:
            with self._lock:
                if key not in self._entries:
                    self._entries[key] = (table, size)
                    self._bytes += size
                while self._bytes > self.budget:
                    _, (_, dropped) = self._entries.popitem(last=False)
                    self._bytes -= dropped
        return table


#: Byte budget of the shared tables: one 2048-atom table (~0.7 MB with
#: its key) and a few smaller ones.
_MEMO_BYTES = 1 << 20

#: The process-wide table memo :meth:`CellList.update` builds through.
_tables = _TableMemo(_MEMO_BYTES)


def build_pairs_cells(
    positions: np.ndarray,
    box: PeriodicBox,
    radius: float,
) -> np.ndarray:
    """All unordered pairs (i < j) within ``radius``, by linked-cell search.

    Exactly the array :func:`repro.md.neighborlist.build_pairs` returns
    — same pairs, same row-major order — built in O(N) instead of
    O(N^2), by the same search that fills :class:`CellList`.
    """
    return _pair_table(positions, box, radius).half_pairs()


class CellList:
    """Self-maintaining pair list built by linked-cell binning.

    Parameters
    ----------
    box, potential:
        The periodic cell and the potential whose cutoff the list serves.
    skin:
        Extra shell thickness beyond the cutoff (HOOMD's ``buffer``).  A
        built list stays valid until an atom moves more than
        ``skin / 2``; larger skins rebuild less often but visit more
        non-interacting pairs per step.
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
        #: every atom's partners within ``rcut + skin`` at the last build
        self.table = PairTable(
            rows=np.empty(0, dtype=np.int32),
            indptr=np.zeros(1, dtype=np.int64),
            partners=np.empty(0, dtype=np.int32),
        )
        self.rebuild_count = 0
        self.reuse_count = 0
        self._reference_positions: np.ndarray | None = None

    @property
    def radius(self) -> float:
        """The list radius, ``rcut + skin``."""
        return self.potential.rcut + self.skin

    @property
    def pairs(self) -> np.ndarray:
        """The listed unordered pairs (i < j) in row-major order, derived
        from :attr:`table` on each access."""
        return self.table.half_pairs()

    def needs_rebuild(self, positions: np.ndarray) -> bool:
        """True if any atom moved more than ``skin / 2`` since the last
        build (minimum-image displacement)."""
        if self._reference_positions is None:
            return True
        delta = np.asarray(positions, dtype=np.float64) - self._reference_positions
        delta -= self.box.length * np.round(delta / self.box.length)
        max_disp = float(np.sqrt(np.max(np.einsum("ij,ij->i", delta, delta))))
        return max_disp > 0.5 * self.skin

    def update(self, positions: np.ndarray) -> bool:
        """Rebuild the list if stale; returns True when a rebuild happened.

        Re-validates ``rcut + skin`` against the *current* box on every
        call: a box swapped mid-run must fail loudly here, not silently
        serve a stale list between rebuilds.
        """
        validate_list_radius(self.radius, self.box)
        if not self.needs_rebuild(positions):
            self.reuse_count += 1
            return False
        positions = np.asarray(positions, dtype=np.float64)
        self.table = _tables.table(positions, self.box, self.radius)
        self._reference_positions = positions.copy()
        self.rebuild_count += 1
        return True


class CellListForceBackend:
    """``ForceBackend`` adapter: the pair list + the shared pair kernel.

    The one list backend; the registry serves it under both ``verlet``
    and ``cell``.  Plugs into :class:`repro.md.simulation.MDSimulation`
    (and the device models) anywhere ``compute_forces`` does.  The
    ``rebuild_count`` / ``reuse_count`` properties feed the list-reuse
    statistics the ablation report prints.
    """

    def __init__(
        self,
        box: PeriodicBox,
        potential: LennardJones,
        skin: float = 0.3,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        self.cell_list = CellList(box, potential, skin=skin)
        self.dtype = np.dtype(dtype)

    @property
    def rebuild_count(self) -> int:
        return self.cell_list.rebuild_count

    @property
    def reuse_count(self) -> int:
        return self.cell_list.reuse_count

    @property
    def reuse_fraction(self) -> float:
        """Share of force evaluations served by an already-built list."""
        total = self.rebuild_count + self.reuse_count
        return self.reuse_count / total if total else 0.0

    def __call__(self, positions: np.ndarray) -> ForceResult:
        self.cell_list.update(positions)
        return compute_pair_forces(
            positions,
            self.cell_list.table,
            self.cell_list.box,
            self.cell_list.potential,
            dtype=self.dtype,
        )
