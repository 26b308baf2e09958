"""Tests for the pair list (the paper's skipped optimization): the O(N^2)
reference search, and the self-maintaining list both list backend names
run."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.box import PeriodicBox
from repro.md.celllist import CellList, CellListForceBackend, default_skin
from repro.md.forcefield import make_force_backend
from repro.md.forces import compute_forces
from repro.md.lattice import cubic_lattice
from repro.md.lj import LennardJones
from repro.md.neighborlist import build_pairs
from repro.md.simulation import MDConfig, MDSimulation


def _system(n=96, density=0.6, seed=3):
    box = PeriodicBox.from_density(n, density)
    potential = LennardJones(rcut=2.0)
    rng = np.random.default_rng(seed)
    positions = box.wrap(cubic_lattice(n, box) + rng.normal(0, 0.05, (n, 3)))
    return box, potential, positions


class TestBuildPairs:
    def test_finds_all_pairs_within_radius(self):
        box, _potential, positions = _system()
        pairs = build_pairs(positions, box, radius=2.0)
        # brute-force check
        n = positions.shape[0]
        expected = set()
        for i in range(n):
            for j in range(i + 1, n):
                if box.distance(positions[i], positions[j]) < 2.0:
                    expected.add((i, j))
        assert {tuple(p) for p in pairs} == expected

    def test_pairs_are_ordered_i_less_than_j(self):
        box, _potential, positions = _system()
        pairs = build_pairs(positions, box, radius=2.0)
        assert np.all(pairs[:, 0] < pairs[:, 1])

    def test_empty_when_radius_small(self):
        box, _potential, positions = _system()
        pairs = build_pairs(positions, box, radius=1e-6)
        assert pairs.shape == (0, 2)

    def test_rejects_radius_beyond_half_box(self):
        box, _potential, positions = _system()
        with pytest.raises(ValueError):
            build_pairs(positions, box, radius=box.length)

    def test_radius_exactly_half_box_is_allowed(self):
        # regression: the guard is a strict >, so the largest meaningful
        # radius — exactly half the box — must build, not raise
        box, _potential, positions = _system()
        pairs = build_pairs(positions, box, radius=box.half_length)
        assert pairs.shape[0] > 0
        with pytest.raises(ValueError):
            build_pairs(
                positions, box, radius=np.nextafter(box.half_length, np.inf)
            )


class TestNeighborList:
    def test_forces_match_all_pairs_when_fresh(self):
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

    def test_no_rebuild_for_small_moves(self):
        box, potential, positions = _system()
        clist = CellList(box, potential, skin=0.4)
        clist.update(positions)
        assert clist.rebuild_count == 1
        nudged = box.wrap(positions + 0.01)
        clist.update(nudged)
        assert clist.rebuild_count == 1  # within skin/2

    def test_rebuild_after_large_move(self):
        box, potential, positions = _system()
        clist = CellList(box, potential, skin=0.4)
        clist.update(positions)
        moved = positions.copy()
        moved[0] = box.wrap(moved[0] + 0.5)
        clist.update(moved)
        assert clist.rebuild_count == 2

    def test_stale_list_still_correct_within_skin(self):
        """The key Verlet-list invariant: until an atom moves skin/2 the
        stale list still covers every interacting pair."""
        box, potential, positions = _system()
        backend = CellListForceBackend(box, potential, skin=0.6)
        backend(positions)
        rng = np.random.default_rng(5)
        drift = rng.normal(0, 0.05, positions.shape)
        drift = np.clip(drift, -0.25, 0.25)  # < skin/2
        moved = box.wrap(positions + drift)
        assert not backend.cell_list.needs_rebuild(moved)
        direct = compute_forces(moved, box, potential)
        listed = backend(moved)
        assert backend.rebuild_count == 1
        assert np.array_equal(listed.accelerations, direct.accelerations)

    def test_rejects_negative_skin(self):
        box, potential, _positions = _system()
        with pytest.raises(ValueError):
            CellList(box, potential, skin=-0.1)

    def test_rejects_list_radius_beyond_half_box(self):
        box = PeriodicBox(length=4.2)
        with pytest.raises(ValueError):
            CellList(box, LennardJones(rcut=2.0), skin=0.5)

    def test_box_shrunk_mid_run_fails_loudly(self):
        # rcut + skin is validated at construction, but a box swapped
        # mid-run could silently invalidate it between rebuilds; every
        # update must re-check against the *current* box.
        box, potential, positions = _system()
        clist = CellList(box, potential, skin=0.4)
        clist.update(positions)
        clist.box = PeriodicBox(length=potential.rcut)
        with pytest.raises(ValueError, match="exceeds half the box"):
            clist.update(positions)  # even though no rebuild would be due

    def test_radius_property(self):
        box, potential, _positions = _system()
        clist = CellList(box, potential, skin=0.4)
        assert clist.radius == pytest.approx(potential.rcut + 0.4)


class TestTrajectoryEquivalence:
    def test_md_run_identical_with_and_without_list(self):
        # lower density so rcut + skin fits inside the half box
        config = MDConfig(n_atoms=128, density=0.6, dt=0.004)
        box = config.make_box()
        potential = config.make_potential()
        with_list = MDSimulation(
            config, force_backend=CellListForceBackend(box, potential, skin=0.3)
        )
        without = MDSimulation(config)
        with_list.run(25)
        without.run(25)
        assert np.array_equal(with_list.state.positions, without.state.positions)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_property_list_completeness_random_configs(self, seed):
        box = PeriodicBox(length=9.0)
        potential = LennardJones(rcut=2.0)
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0, box.length, size=(40, 3))
        backend = CellListForceBackend(box, potential, skin=0.3)
        direct = compute_forces(positions, box, potential)
        listed = backend(positions)
        assert listed.interacting_pairs == direct.interacting_pairs
        assert np.array_equal(listed.accelerations, direct.accelerations)

    @pytest.mark.parametrize("name", ["verlet", "cell"])
    def test_default_skin_follows_a_small_box(self, name):
        # At 128 atoms rcut + 0.3 exceeds half the box: the default skin
        # shrinks to what the box leaves, and the list stays exact.
        config = MDConfig(n_atoms=128)
        box, potential = config.make_box(), config.make_potential()
        backend = make_force_backend(name, box, potential)
        assert backend.cell_list.skin == default_skin(box, potential)
        assert 0.0 < backend.cell_list.skin < 0.3
        assert backend.cell_list.radius <= box.half_length
        listed = MDSimulation(config, force_backend=backend)
        listed.run(10)
        dense = MDSimulation(config)
        dense.run(10)
        assert np.array_equal(listed.state.positions, dense.state.positions)
        assert np.array_equal(listed.state.velocities, dense.state.velocities)
        assert backend.rebuild_count >= 1
        # an explicit skin still wins
        with pytest.raises(ValueError, match="exceeds half the box"):
            make_force_backend(name, box, potential, skin=0.3)

    def test_verlet_and_cell_names_run_one_list(self):
        # Both registry names build the same list object: the same
        # trajectory bit for bit, and the same rebuild/reuse tallies.
        config = MDConfig(n_atoms=256, dt=0.004)
        box = config.make_box()
        potential = config.make_potential()
        runs = {}
        for name in ("verlet", "cell"):
            backend = make_force_backend(name, box, potential, skin=0.3)
            assert type(backend) is CellListForceBackend
            sim = MDSimulation(config, force_backend=backend)
            sim.run(30)
            runs[name] = (sim.state, backend)
        (verlet_state, verlet), (cell_state, cell) = runs["verlet"], runs["cell"]
        assert np.array_equal(verlet_state.positions, cell_state.positions)
        assert np.array_equal(verlet_state.velocities, cell_state.velocities)
        assert verlet.rebuild_count == cell.rebuild_count > 1
        assert verlet.reuse_count == cell.reuse_count > 0
