"""Property-based equivalence net over the whole force stack.

Every force backend — the nested-loop executable specification, the
paper's two all-pairs kernels, and the pair list (registered as both
``verlet`` and ``cell``) — must produce the same physics for arbitrary (valid) systems.
Hypothesis drives random system sizes, densities, jitters, and cutoffs
through every registered backend and asserts forces, energies, and
interacting-pair counts agree to tight tolerances, plus the structural
invariants: Newton's third law and NVE energy conservation.  Three more
nets hold the linked-cell pair search to the O(N^2) reference scan, the
list backends to ``compute_forces``, and its cell-column branch to the
all-columns scan, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import (
    MDConfig,
    MDSimulation,
    available_backends,
    make_force_backend,
)
from repro.md.box import PeriodicBox
from repro.md.celllist import build_pairs_cells, cells_per_side
from repro.md.forces import (
    _lj_rows,
    compute_forces,
    compute_forces_27image,
    compute_forces_reference,
)
from repro.md.lattice import cubic_lattice
from repro.md.lj import LennardJones
from repro.md.neighborlist import build_pairs

#: Backend names exercised by the sweep tests (all of them, by
#: construction — if a future backend registers itself, it is tested).
ALL_BACKENDS = available_backends()


def _make_system(n, density, jitter, seed, rcut_fraction):
    """A jittered lattice whose cutoff always fits the box."""
    box = PeriodicBox.from_density(n, density)
    rcut = max(0.8, rcut_fraction * box.half_length)
    potential = LennardJones(rcut=rcut)
    rng = np.random.default_rng(seed)
    positions = box.wrap(cubic_lattice(n, box) + rng.normal(0, jitter, (n, 3)))
    return box, potential, positions


def _backend_options(name, box, potential):
    """Options keeping list radii inside the box for any geometry."""
    if name in ("verlet", "cell"):
        room = box.half_length - potential.rcut
        return {"skin": min(0.3, 0.5 * room)}
    return {}


system_strategy = st.tuples(
    st.integers(min_value=24, max_value=120),  # n atoms
    st.floats(min_value=0.2, max_value=1.1),  # density
    st.floats(min_value=0.0, max_value=0.15),  # lattice jitter
    st.integers(min_value=0, max_value=2**31),  # seed
    st.floats(min_value=0.4, max_value=0.95),  # rcut / half_length
)


def _face_system(cells, length, ulps, n, seed, straddle):
    """Atoms in a box of ``length`` holding ``cells`` search radii per
    side, the radius nudged by ``ulps`` units in the last place so the
    cell width may round to either side of it, and every atom moved by
    whole box lengths out of ``[0, L)``.  With ``straddle`` the first
    atoms sit in pairs a hair inside the radius apart, astride a cell
    face or the periodic boundary, so that a rounding slip in the
    binning would drop them."""
    box = PeriodicBox(length=length)
    radius = min(length / cells * (1.0 + ulps * np.finfo(float).eps), box.half_length)
    width = length / cells_per_side(box, radius)
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, length, size=(n, 3))
    if straddle:
        for k in range(cells):
            gap = radius * (1.0 - rng.choice([1e-13, 1e-12, 1e-11]))
            centre = k * width + 1e-3 * rng.uniform(-1.0, 1.0) * width
            y, z = rng.uniform(0.0, length, size=2)
            positions[2 * k] = (centre - 0.5 * gap, y, z)
            positions[2 * k + 1] = (centre + 0.5 * gap, y, z)
    positions += length * rng.integers(-2, 3, size=(n, 3))
    return box, radius, positions


class TestPairSearchEquivalence:
    """The linked-cell search returns the O(N^2) reference scan's array
    exactly: the same pairs in the same order (``abl-cache`` permutes
    ``pairs[:, 1]`` with a seeded RNG, so order is output)."""

    @given(params=system_strategy)
    @settings(max_examples=30, deadline=None)
    def test_cell_search_finds_exactly_the_blocked_scan_pairs(self, params):
        n, density, jitter, seed, rfrac = params
        box, potential, positions = _make_system(n, density, jitter, seed, rfrac)
        radius = potential.rcut
        reference = build_pairs(positions, box, radius)
        cells = build_pairs_cells(positions, box, radius)
        assert np.array_equal(cells, reference)

    @given(
        params=st.tuples(
            st.integers(min_value=2, max_value=6),  # radii per side
            st.floats(min_value=2.0, max_value=12.0),  # box length
            st.integers(min_value=-3, max_value=3),  # radius nudge, ulps
            st.integers(min_value=16, max_value=160),  # n atoms
            st.integers(min_value=0, max_value=2**31),  # seed
            st.booleans(),  # pairs straddling cell faces
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_cell_faces_and_out_of_box_positions(self, params):
        cells, length, ulps, n, seed, straddle = params
        box, radius, positions = _face_system(cells, length, ulps, n, seed, straddle)
        assert cells_per_side(box, radius) in (cells - 1, cells)
        reference = build_pairs(positions, box, radius)
        found = build_pairs_cells(positions, box, radius)
        assert np.array_equal(found, reference)
        if straddle:
            straddling = {(2 * k, 2 * k + 1) for k in range(cells)}
            assert straddling <= {tuple(p) for p in reference}


class TestForceEquivalence:
    @given(params=system_strategy)
    @settings(max_examples=20, deadline=None)
    def test_all_registered_backends_agree(self, params):
        n, density, jitter, seed, rfrac = params
        box, potential, positions = _make_system(n, density, jitter, seed, rfrac)
        config = MDConfig(n_atoms=n, density=density, rcut=potential.rcut)
        assert config.make_box().length == pytest.approx(box.length)

        results = {}
        for name in ALL_BACKENDS:
            backend = make_force_backend(
                name, box, potential, **_backend_options(name, box, potential)
            )
            results[name] = backend(positions)

        reference = results["reference"]
        scale = max(1.0, float(np.max(np.abs(reference.accelerations))))
        for name, result in results.items():
            np.testing.assert_allclose(
                result.accelerations,
                reference.accelerations,
                atol=1e-8 * scale,
                err_msg=f"backend {name!r} disagrees with the specification",
            )
            assert result.potential_energy == pytest.approx(
                reference.potential_energy, abs=1e-8 * max(1.0, abs(reference.potential_energy))
            ), name
            assert result.interacting_pairs == reference.interacting_pairs, name

    @given(params=system_strategy)
    @settings(max_examples=20, deadline=None)
    def test_newtons_third_law_for_every_backend(self, params):
        n, density, jitter, seed, rfrac = params
        box, potential, positions = _make_system(n, density, jitter, seed, rfrac)
        for name in ALL_BACKENDS:
            backend = make_force_backend(
                name, box, potential, **_backend_options(name, box, potential)
            )
            acc = backend(positions).accelerations
            scale = max(1.0, float(np.max(np.abs(acc))))
            np.testing.assert_allclose(
                acc.sum(axis=0),
                np.zeros(3),
                atol=1e-9 * scale * n,
                err_msg=f"backend {name!r} violates Newton's third law",
            )

    def test_direct_kernels_agree_on_dense_random_gas(self):
        # Uniform random positions (not a jittered lattice): close
        # approaches produce huge forces, and the kernels must still
        # agree relative to that scale.
        box = PeriodicBox.from_density(64, 0.5)
        potential = LennardJones(rcut=0.9 * box.half_length)
        rng = np.random.default_rng(7)
        positions = box.random_positions(64, rng)
        reference = compute_forces_reference(positions, box, potential)
        blocked = compute_forces(positions, box, potential)
        image27 = compute_forces_27image(positions, box, potential)
        scale = float(np.max(np.abs(reference.accelerations)))
        for other in (blocked, image27):
            np.testing.assert_allclose(
                other.accelerations, reference.accelerations, atol=1e-9 * scale
            )
            assert other.interacting_pairs == reference.interacting_pairs


class TestEnergyConservation:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_short_nve_run_conserves_energy(self, name):
        config = MDConfig(n_atoms=256, dt=0.002)
        if name == "reference":
            config = MDConfig(n_atoms=64, dt=0.002, rcut=1.8)
        sim = MDSimulation(config, force_backend=name)
        sim.run(25)
        # the repo-wide velocity-Verlet drift bound (see test_simulation)
        assert sim.energy_drift() < 2e-3, name

    @pytest.mark.parametrize("name", sorted(set(ALL_BACKENDS) - {"reference"}))
    def test_backends_track_the_same_trajectory(self, name):
        config = MDConfig(n_atoms=256)
        reference = MDSimulation(config)
        reference.run(10)
        sim = MDSimulation(config, force_backend=name)
        sim.run(10)
        if name in ("verlet", "cell"):
            # The lists are built once and reused across the ten steps.
            assert np.array_equal(sim.state.positions, reference.state.positions)
            assert np.array_equal(sim.state.velocities, reference.state.velocities)
        else:
            np.testing.assert_allclose(
                sim.state.positions, reference.state.positions, atol=1e-7
            )
        assert sim.records[-1].total_energy == pytest.approx(
            reference.records[-1].total_energy, rel=1e-9
        )


class TestListBackendsAreAllPairs:
    """On a fresh list the Verlet- and cell-list backends scan each row's
    listed partners through the all-pairs kernel's own row-by-column
    routine: accelerations and pair tallies equal ``compute_forces`` bit
    for bit, and energy too wherever that kernel scans cells."""

    @given(
        params=st.tuples(
            # 2 to 4 cutoff-wide cells per side at the paper's density,
            # so both branches of compute_forces are in play
            st.integers(min_value=256, max_value=1400),  # n atoms
            st.floats(min_value=0.0, max_value=0.2),  # lattice jitter
            st.integers(min_value=0, max_value=2**31),  # seed
            st.sampled_from(["verlet", "cell"]),
            st.sampled_from([np.float32, np.float64]),
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_fresh_list_matches_all_pairs_bitwise(self, params):
        n, jitter, seed, name, dtype = params
        config = MDConfig(n_atoms=n)
        box, potential = config.make_box(), config.make_potential()
        rng = np.random.default_rng(seed)
        positions = box.wrap(cubic_lattice(n, box) + rng.normal(0, jitter, (n, 3)))
        listed = make_force_backend(name, box, potential, dtype=dtype)(positions)
        direct = compute_forces(positions, box, potential, dtype=dtype)
        assert np.array_equal(listed.accelerations, direct.accelerations)
        assert np.array_equal(listed.row_interacting, direct.row_interacting)
        assert listed.interacting_pairs == direct.interacting_pairs
        if direct.pairs_examined < n * (n - 1) // 2:  # the cell branch ran
            assert listed.potential_energy == direct.potential_energy
        else:
            assert listed.potential_energy == pytest.approx(
                direct.potential_energy, rel=1e-5 if dtype is np.float32 else 1e-12
            )


def _all_columns(positions, box, potential, dtype):
    """Every row against every column, in row blocks of the shared
    row-by-column routine: the dense branch's arithmetic, reached
    without a switch on the public kernel.  Also returns the energy
    scale ``0.5 * sum |e_ij|`` the PE tolerance is relative to."""
    pos = np.asarray(positions, dtype=np.float64).astype(dtype)
    n = pos.shape[0]
    acc = np.zeros((n, 3), dtype=dtype)
    row_interacting = np.zeros(n, dtype=np.int64)
    pe = dtype(0.0)
    scale = 0.0
    for start in range(0, n, 256):
        stop = min(start + 256, n)
        tile_acc, pair_pe, row_interacting[start:stop] = _lj_rows(
            pos[start:stop], pos, np.arange(start, stop), box, potential
        )
        acc[start:stop] += tile_acc
        pe += pair_pe.sum(dtype=dtype)
        scale += float(np.abs(pair_pe).sum(dtype=np.float64))
    return acc.astype(np.float64), 0.5 * float(pe), row_interacting, 0.5 * scale


def _pe_tolerance(dtype, row_interacting, n, scale):
    """DESIGN.md's cell-vs-dense PE bound: one prefix sum per row plus
    two pairwise sums, ``(c_max + 4 log2 n + 16) * eps * 0.5 sum |e_ij|``."""
    terms = int(row_interacting.max(initial=0)) + 4 * np.log2(n) + 16
    return terms * float(np.finfo(dtype).eps) * scale


def _sparse_system(n, density, cells, tight, slack, jitter, seed):
    """A jittered lattice whose box holds ``cells`` cells of width just
    above ``rcut``, with every atom moved by whole box lengths out of
    ``[0, L)``.  ``tight`` puts the cell width within one float32 eps
    of the cutoff and two atoms a hair more than one cell width apart
    across two cell faces: binned two cells apart, yet close enough for
    float32 rounding to put them inside the cutoff.  Only the kernel's
    guard band keeps such a partner in the neighbourhood."""
    box = PeriodicBox.from_density(n, density)
    width = box.length / cells
    eps32 = float(np.finfo(np.float32).eps)
    rcut = width * (1.0 - slack * eps32) if tight else width * (0.6 + 0.39 * slack)
    rng = np.random.default_rng(seed)
    positions = box.wrap(cubic_lattice(n, box) + rng.normal(0, jitter, (n, 3)))
    if tight:
        # y = z = 0 lies between lattice planes, away from other atoms.
        face = width * rng.integers(1, cells)
        positions[0] = (face - 1e-9 * width, 0.0, 0.0)
        positions[1] = (face + width + 1e-9 * width, 0.0, 0.0)
    positions += box.length * rng.integers(-2, 3, size=(n, 3))
    return box, LennardJones(rcut=rcut), positions


def _assert_cell_branch_is_the_dense_scan(params):
    n, density, cells, tight, slack, jitter, seed, dtype = params
    box, potential, positions = _sparse_system(
        n, density, cells, tight, slack, jitter, seed
    )
    result = compute_forces(positions, box, potential, dtype=dtype)
    acc, pe, row_interacting, scale = _all_columns(positions, box, potential, dtype)
    assert result.pairs_examined < n * (n - 1) // 2  # the cell branch ran
    assert np.array_equal(result.accelerations, acc)
    assert np.array_equal(result.row_interacting, row_interacting)
    assert result.interacting_pairs == int(row_interacting.sum()) // 2
    assert abs(result.potential_energy - pe) <= _pe_tolerance(
        dtype, row_interacting, n, scale
    )


def _sparse_strategy(max_atoms):
    # Five or more cells per side, so that the guard band of a tight
    # cutoff (one cell fewer) still leaves the cell branch in play.
    return st.tuples(
        st.integers(min_value=150, max_value=max_atoms),  # n atoms
        st.floats(min_value=0.3, max_value=1.1),  # density
        st.integers(min_value=5, max_value=6),  # cells per side
        st.booleans(),  # tight: cell width within a float32 eps of rcut
        st.floats(min_value=0.0, max_value=1.0),  # slack inside that margin
        st.floats(min_value=0.0, max_value=0.2),  # lattice jitter
        st.integers(min_value=0, max_value=2**31),  # seed
        st.sampled_from([np.float32, np.float64]),
    )


class TestCellColumnBranch:
    """``compute_forces`` scans cell neighbourhoods once the box holds
    four or more cells per side; dropping the exact-zero columns must
    not move a bit of the accelerations or the pair tallies."""

    @given(params=_sparse_strategy(max_atoms=600))
    @settings(max_examples=25, deadline=None)
    def test_matches_all_columns_bitwise(self, params):
        _assert_cell_branch_is_the_dense_scan(params)

    @pytest.mark.slow
    @given(params=_sparse_strategy(max_atoms=2500))
    @settings(max_examples=40, deadline=None)
    def test_matches_all_columns_bitwise_at_larger_n(self, params):
        _assert_cell_branch_is_the_dense_scan(params)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_paper_workload_scans_a_fraction_of_the_pairs(self, dtype):
        config = MDConfig(n_atoms=1024)  # 4 cells of width >= rcut per side
        box, potential = config.make_box(), config.make_potential()
        positions = cubic_lattice(config.n_atoms, box)
        result = compute_forces(positions, box, potential, dtype=dtype)
        acc, _, row_interacting, _ = _all_columns(positions, box, potential, dtype)
        assert result.pairs_examined < 0.5 * config.n_atoms * (config.n_atoms - 1) / 2
        assert np.array_equal(result.accelerations, acc)
        assert np.array_equal(result.row_interacting, row_interacting)

    def test_non_finite_positions_take_the_dense_scan(self):
        """A diverged state cannot be binned; it must still reach the
        caller as non-finite forces, as the dense scan delivers them."""
        config = MDConfig(n_atoms=1024)
        box, potential = config.make_box(), config.make_potential()
        positions = cubic_lattice(config.n_atoms, box)
        positions[7] = np.nan
        result = compute_forces(positions, box, potential)
        assert result.pairs_examined == 1024 * 1023 // 2
        assert not np.isfinite(result.accelerations).all()

    def test_three_cells_per_side_scans_all_pairs(self):
        config = MDConfig(n_atoms=512)  # the 27-cell neighbourhood is the box
        box, potential = config.make_box(), config.make_potential()
        result = compute_forces(cubic_lattice(512, box), box, potential)
        assert result.pairs_examined == 512 * 511 // 2
