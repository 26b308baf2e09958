"""Tests for the linked-cell pair search and its skin-reuse semantics."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.md import MDConfig, MDSimulation, celllist, make_force_backend
from repro.md.box import PeriodicBox
from repro.md.celllist import (
    CellGrid,
    CellList,
    CellListForceBackend,
    _pair_table,
    _TableMemo,
    build_pairs_cells,
    cells_per_side,
    default_skin,
)
from repro.md.forces import compute_forces
from repro.md.lattice import cubic_lattice
from repro.md.lj import LennardJones
from repro.md.neighborlist import build_pairs


def _system(n=96, density=0.6, seed=3, rcut=2.0):
    box = PeriodicBox.from_density(n, density)
    potential = LennardJones(rcut=rcut)
    rng = np.random.default_rng(seed)
    positions = box.wrap(cubic_lattice(n, box) + rng.normal(0, 0.05, (n, 3)))
    return box, potential, positions


def _awkward(n, density, radius, seed=0):
    """Positions that stress the search: half the box left empty along x
    (so m >= 3 grids have empty cells), atoms exactly on cell faces
    (box faces included), two distinct atoms at one position, and atoms
    outside ``[0, L)`` on both sides."""
    box = PeriodicBox.from_density(n, density)
    length = box.length
    width = length / cells_per_side(box, radius)
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, length, (n, 3))
    positions[:, 0] *= 0.5
    positions[:6] = rng.integers(0, cells_per_side(box, radius) + 1, (6, 3)) * width
    positions[6] = positions[7]
    positions[8:14] += rng.choice([-2.0, -1.0, 1.0], (6, 1)) * length
    return box, positions


#: (n, density, radius, cells per side) of the search grids under test
SEARCH_GRIDS = [(40, 0.3, 2.3, 2), (300, 0.8442, 2.3, 3), (500, 0.8442, 2.0, 4),
                (600, 0.5, 1.5, 7)]


def _assert_layout(table, positions, box, radius):
    """Every atom once, in cell-major order, each row's partners
    ascending and without the atom itself, each pair from both ends."""
    n = positions.shape[0]
    assert table.rows.dtype == table.partners.dtype == np.int32
    assert table.indptr.dtype == np.int64 and table.indptr.shape == (n + 1,)
    assert sorted(table.rows) == list(range(n))
    cell_of = CellGrid(box, radius).assign(positions)[table.rows]
    assert np.all(np.diff(cell_of) >= 0)
    entries = set()
    for k, atom in enumerate(table.rows):
        row = table.partners[table.indptr[k] : table.indptr[k + 1]]
        assert np.all(np.diff(row) > 0) and atom not in row
        entries.update((int(atom), int(j)) for j in row)
    assert entries == {(j, i) for i, j in entries}
    assert table.n_pairs == len(entries) // 2


@pytest.fixture
def fresh_tables(monkeypatch):
    """A private, empty table memo for :meth:`CellList.update`, and the
    list of every pair search it runs."""
    memo = _TableMemo(celllist._MEMO_BYTES)
    monkeypatch.setattr(celllist, "_tables", memo)
    searches = []

    def counted(positions, box, radius):
        searches.append(radius)
        return _pair_table(positions, box, radius)

    monkeypatch.setattr(celllist, "_pair_table", counted)
    return memo, searches


class TestHalfShellSearch:
    """The half-shell search against the O(N^2) reference scan."""

    @pytest.mark.parametrize("n,density,radius,m", SEARCH_GRIDS)
    def test_awkward_positions_match_reference_scan(self, n, density, radius, m):
        box, positions = _awkward(n, density, radius, seed=n)
        assert cells_per_side(box, radius) == m
        counts = np.bincount(
            CellGrid(box, radius).assign(positions), minlength=m**3
        )
        if m >= 3:
            assert np.any(counts == 0)  # empty cells are part of the case
        pairs = build_pairs_cells(positions, box, radius)
        assert pairs.shape[0] > 0
        np.testing.assert_array_equal(pairs, build_pairs(positions, box, radius))

    @pytest.mark.parametrize("n,density,radius,m", SEARCH_GRIDS)
    def test_layout(self, n, density, radius, m):
        box, positions = _awkward(n, density, radius, seed=n)
        _assert_layout(_pair_table(positions, box, radius), positions, box, radius)

    def test_coincident_atoms_stay_partners(self):
        box = PeriodicBox(length=10.0)
        positions = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [6.0, 6.0, 6.0]])
        table = _pair_table(positions, box, radius=2.0)
        np.testing.assert_array_equal(table.half_pairs(), [[0, 1]])
        np.testing.assert_array_equal(
            build_pairs(positions, box, 2.0), table.half_pairs()
        )

    def test_no_atoms_no_pairs(self):
        box = PeriodicBox(length=10.0)
        table = _pair_table(np.empty((0, 3)), box, radius=2.0)
        assert table.rows.shape == table.partners.shape == (0,)
        np.testing.assert_array_equal(table.indptr, [0])

    def test_int64_keys_give_the_same_table(self, monkeypatch):
        """Past ``n**2 >= 2**31`` the keys are int64; forced at a small
        size, that path must give the int32 path's table."""
        box, positions = _awkward(500, 0.8442, 2.0, seed=5)
        narrow = _pair_table(positions, box, 2.0)
        monkeypatch.setattr(celllist, "_key_dtype", lambda n: np.dtype(np.int64))
        wide = _pair_table(positions, box, 2.0)
        for name in ("rows", "indptr", "partners"):
            a, b = getattr(narrow, name), getattr(wide, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_key_dtype_widens_past_int32(self):
        assert celllist._key_dtype(46340) == np.int32  # 46340**2 < 2**31
        assert celllist._key_dtype(46341) == np.int64

    def test_search_at_8192_atoms_stays_small(self):
        """One 8192-atom lattice search allocates at most 6 MB at its peak
        (about 4.2 MB measured, 2.6 MB of it the table it returns): each
        pair is held as one int32 key until the keys are mirrored in
        place, a block at a time."""
        config = MDConfig(n_atoms=8192)
        box, potential = config.make_box(), config.make_potential()
        positions = cubic_lattice(config.n_atoms, box)
        radius = potential.rcut + default_skin(box, potential)
        tracemalloc.start()
        try:
            table = _pair_table(positions, box, radius)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.n_pairs > 0
        assert peak <= 6e6


class TestTableMemo:
    """The shared tables :meth:`CellList.update` builds through."""

    def _case(self):
        box, _potential, positions = _system()
        return box, positions, 2.4

    def test_hit_returns_the_same_read_only_table_until_cleared(self):
        box, positions, radius = self._case()
        memo = _TableMemo(1 << 20)
        table = memo.table(positions, box, radius)
        assert memo.table(positions.copy(), box, radius) is table
        for array in (table.rows, table.indptr, table.partners):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        memo.clear()
        assert memo.table(positions, box, radius) is not table

    def test_any_key_difference_misses(self):
        box, positions, radius = self._case()
        memo = _TableMemo(1 << 20)
        table = memo.table(positions, box, radius)
        flipped = positions.copy()
        flipped.view(np.uint64)[5, 1] ^= 1  # one bit of one coordinate
        assert memo.table(flipped, box, radius) is not table
        assert memo.table(positions, box, np.nextafter(radius, 0.0)) is not table
        wider = PeriodicBox(length=np.nextafter(box.length, np.inf))
        assert memo.table(positions, wider, radius) is not table
        assert memo.table(positions, box, radius) is table

    def test_table_over_budget_is_built_not_kept(self):
        box, positions, radius = self._case()
        memo = _TableMemo(1000)
        table = memo.table(positions, box, radius)
        assert table.partners.nbytes > 1000
        assert memo.table(positions, box, radius) is not table

    def test_least_recently_used_table_leaves_first(self):
        box, positions, radius = self._case()
        size = positions.nbytes + sum(
            a.nbytes for a in vars(_pair_table(positions, box, radius)).values()
        )
        memo = _TableMemo(2 * size + size // 2)  # room for two tables
        a, b, c = (box.wrap(positions + shift) for shift in (0.0, 0.01, 0.02))
        table_a, table_b = memo.table(a, box, radius), memo.table(b, box, radius)
        assert memo.table(a, box, radius) is table_a  # b is now the oldest
        memo.table(c, box, radius)
        assert memo.table(a, box, radius) is table_a
        assert memo.table(b, box, radius) is not table_b

    def test_hit_still_counts_as_a_rebuild(self, fresh_tables):
        """A list served from the memo reports a rebuild, so the
        tracer's reuse ratio and ``abl-nlist``'s statistics keep their
        meaning."""
        _memo, searches = fresh_tables
        box, potential, positions = _system()
        first, second = (CellList(box, potential, skin=0.4) for _ in range(2))
        assert first.update(positions)
        assert second.update(positions)
        assert second.rebuild_count == 1 and second.reuse_count == 0
        assert second.table is first.table
        assert len(searches) == 1

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_run_from_shared_tables_is_bitwise_a_fresh_run(self, dtype, fresh_tables):
        _memo, searches = fresh_tables
        config = MDConfig(n_atoms=1024, dtype=dtype)
        box, potential = config.make_box(), config.make_potential()

        def run():
            backend = make_force_backend("cell", box, potential, dtype=config.np_dtype)
            sim = MDSimulation(config, force_backend=backend)
            sim.run(20)
            return sim, backend.rebuild_count

        fresh, fresh_rebuilds = run()
        built = len(searches)
        shared, shared_rebuilds = run()
        assert len(searches) == built == fresh_rebuilds == shared_rebuilds >= 2
        assert shared.records == fresh.records
        for name in ("positions", "velocities", "accelerations"):
            assert np.array_equal(
                getattr(shared.state, name), getattr(fresh.state, name)
            )


class TestBuildPairsCells:
    @pytest.mark.parametrize(
        "n,density,radius",
        [(96, 0.6, 2.0), (300, 0.8442, 2.8), (77, 0.2, 1.5), (500, 1.2, 2.8)],
    )
    def test_matches_blocked_scan_exactly(self, n, density, radius):
        box = PeriodicBox.from_density(n, density)
        rng = np.random.default_rng(n)
        positions = box.wrap(cubic_lattice(n, box) + rng.normal(0, 0.15, (n, 3)))
        reference = build_pairs(positions, box, radius)
        cells = build_pairs_cells(positions, box, radius)
        assert {tuple(p) for p in cells} == {tuple(p) for p in reference}
        # no duplicates, deterministic row-major order
        assert cells.shape == reference.shape
        np.testing.assert_array_equal(cells, reference)

    def test_pairs_are_ordered_i_less_than_j(self):
        box, _potential, positions = _system()
        pairs = build_pairs_cells(positions, box, radius=2.0)
        assert np.all(pairs[:, 0] < pairs[:, 1])

    def test_two_cells_per_side_matches_reference(self):
        # radius > length/3 leaves two cells per side: each cell's
        # neighbourhood is the whole box, each cell listed once
        box, _potential, positions = _system(n=32, density=0.3)
        radius = 0.45 * box.length
        assert cells_per_side(box, radius) == 2
        cells = build_pairs_cells(positions, box, radius)
        reference = build_pairs(positions, box, radius)
        np.testing.assert_array_equal(cells, reference)

    def test_rejects_radius_beyond_half_box(self):
        box, _potential, positions = _system()
        with pytest.raises(ValueError):
            build_pairs_cells(positions, box, radius=box.length)

    def test_empty_when_radius_small_but_griddable(self):
        box, _potential, positions = _system(n=64, density=0.05)
        radius = box.length / 4.0
        pairs = build_pairs_cells(positions[:2] * 0.0 + [[0.0, 0.0, 0.0],
                                                         [0.45 * box.length] * 3],
                                  box, radius)
        assert pairs.shape == (0, 2)


class TestCellGrid:
    def test_requires_two_cells_per_side(self):
        box = PeriodicBox(length=6.0)
        with pytest.raises(ValueError):
            CellGrid(box, radius=3.5)  # only 1 cell per side

    def test_two_cells_per_side_lists_each_cell_once(self):
        box = PeriodicBox(length=6.0)
        grid = CellGrid(box, radius=2.5)
        assert grid.m == 2
        assert grid.neighbors.shape == (8, 8)
        for c in range(grid.n_cells):
            # with m == 2 every cell neighbors every cell exactly once
            assert sorted(grid.neighbors[c]) == list(range(8))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_forward_names_each_neighbouring_pair_once(self, m):
        grid = CellGrid(PeriodicBox(length=float(m)), radius=1.0)
        assert grid.m == m
        forward = [
            (cell, int(other))
            for cell in range(grid.n_cells)
            for other in grid.forward[cell]
        ]
        touching = {
            (min(cell, int(other)), max(cell, int(other)))
            for cell in range(grid.n_cells)
            for other in grid.neighbors[cell]
            if other != cell
        }
        assert len(forward) == len(set(forward)) == len(touching)
        assert set(forward) == touching

    def test_neighbors_are_distinct_and_cover_27(self):
        box = PeriodicBox(length=9.0)
        grid = CellGrid(box, radius=3.0)
        assert grid.m == 3
        for c in range(grid.n_cells):
            # with m == 3 every cell neighbors every cell exactly once
            assert sorted(grid.neighbors[c]) == list(range(27))

    def test_assign_handles_positions_at_box_edge(self):
        box = PeriodicBox(length=10.0)
        grid = CellGrid(box, radius=2.0)
        edge = np.array([[np.nextafter(10.0, 0.0)] * 3, [0.0, 5.0, 9.999999]])
        ids = grid.assign(edge)
        assert np.all((0 <= ids) & (ids < grid.n_cells))


class TestPairTable:
    """The list's CSR partner table: every atom once, in cell-major
    order, each row's partners ascending, each pair from both ends."""

    def test_layout(self):
        box, potential, positions = _system(n=300, density=0.8442, rcut=2.5)
        clist = CellList(box, potential, skin=0.3)
        clist.update(positions)
        _assert_layout(clist.table, positions, box, clist.radius)
        assert clist.table.n_pairs == clist.pairs.shape[0]

    def test_pairs_are_the_reference_scan(self):
        box, potential, positions = _system()
        clist = CellList(box, potential, skin=0.4)
        clist.update(positions)
        assert np.array_equal(
            clist.pairs, build_pairs(positions, box, clist.radius)
        )

    def test_rebuild_and_evaluation_stay_small(self, fresh_tables):
        """One list rebuild plus one evaluation at 2048 atoms allocate at
        most 2.5 MB at their peak (about 1.6 MB measured): the search and
        the kernel both work in bounded chunks of rows.  The memo starts
        empty, so the rebuild is a real search, not a shared table."""
        config = MDConfig(n_atoms=2048)
        box, potential = config.make_box(), config.make_potential()
        positions = cubic_lattice(config.n_atoms, box)
        backend = make_force_backend("cell", box, potential, dtype=np.float64)
        _memo, searches = fresh_tables
        tracemalloc.start()
        try:
            backend(positions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert backend.rebuild_count == len(searches) == 1
        assert peak <= 2.5e6


class TestCellListSkinReuse:
    def test_drift_under_half_buffer_reuses(self):
        box, potential, positions = _system()
        clist = CellList(box, potential, skin=0.4)
        clist.update(positions)
        assert clist.rebuild_count == 1
        # drift every atom by just under skin/2 in one axis
        drift = np.zeros_like(positions)
        drift[:, 0] = 0.19
        assert not clist.update(box.wrap(positions + drift))
        assert clist.rebuild_count == 1
        assert clist.reuse_count == 1

    def test_drift_over_half_buffer_rebuilds(self):
        box, potential, positions = _system()
        clist = CellList(box, potential, skin=0.4)
        clist.update(positions)
        drift = np.zeros_like(positions)
        drift[0, 0] = 0.21  # one atom crossing the threshold suffices
        assert clist.update(box.wrap(positions + drift))
        assert clist.rebuild_count == 2
        assert clist.reuse_count == 0

    def test_box_shrunk_mid_run_fails_loudly(self):
        box, potential, positions = _system()
        clist = CellList(box, potential, skin=0.3)
        clist.update(positions)
        clist.box = PeriodicBox(length=potential.rcut)  # half_length < rcut
        with pytest.raises(ValueError, match="exceeds half the box"):
            clist.update(positions)

    def test_validates_radius_at_construction(self):
        box = PeriodicBox(length=5.0)
        with pytest.raises(ValueError):
            CellList(box, LennardJones(rcut=2.4), skin=0.2)

    def test_rejects_bad_parameters(self):
        box, potential, _positions = _system()
        with pytest.raises(ValueError):
            CellList(box, potential, skin=-0.1)


class TestCellListForceBackend:
    def test_matches_all_pairs_kernel(self):
        box, potential, positions = _system()
        backend = CellListForceBackend(box, potential, skin=0.4)
        direct = compute_forces(positions, box, potential)
        listed = backend(positions)
        assert np.array_equal(listed.accelerations, direct.accelerations)
        assert np.array_equal(listed.row_interacting, direct.row_interacting)
        assert listed.potential_energy == pytest.approx(
            direct.potential_energy, abs=1e-9
        )
        assert listed.interacting_pairs == direct.interacting_pairs

    def test_counters_and_reuse_fraction(self):
        box, potential, positions = _system()
        backend = CellListForceBackend(box, potential, skin=0.4)
        backend(positions)
        backend(box.wrap(positions + 0.01))
        backend(box.wrap(positions + 0.02))
        assert backend.rebuild_count == 1
        assert backend.reuse_count == 2
        assert backend.reuse_fraction == pytest.approx(2.0 / 3.0)

    def test_float32_dtype_respected(self):
        box, potential, positions = _system()
        backend = CellListForceBackend(box, potential, skin=0.4, dtype=np.float32)
        f32 = backend(positions)
        f64 = compute_forces(positions, box, potential, dtype=np.float64)
        scale = float(np.max(np.abs(f64.accelerations)))
        assert np.max(np.abs(f32.accelerations - f64.accelerations)) < 1e-4 * scale
