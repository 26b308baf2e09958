"""Tests for the all-pairs force kernels — the heart of the reproduction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.box import PeriodicBox
from repro.md.forces import (
    compute_forces,
    compute_forces_27image,
    compute_forces_reference,
)
from repro.md.lattice import cubic_lattice
from repro.md.lj import LennardJones


def _system(n=64, density=0.6, rcut=2.0, seed=7):
    box = PeriodicBox.from_density(n, density)
    potential = LennardJones(rcut=rcut)
    rng = np.random.default_rng(seed)
    positions = box.wrap(
        cubic_lattice(n, box) + rng.normal(0, 0.05, size=(n, 3))
    )
    return box, potential, positions


class TestAgreementAcrossKernels:
    def test_vectorized_matches_reference(self):
        box, potential, positions = _system()
        ref = compute_forces_reference(positions, box, potential)
        vec = compute_forces(positions, box, potential)
        np.testing.assert_allclose(vec.accelerations, ref.accelerations, atol=1e-9)
        assert vec.potential_energy == pytest.approx(ref.potential_energy, abs=1e-9)
        assert vec.interacting_pairs == ref.interacting_pairs
        assert vec.pairs_examined == ref.pairs_examined

    def test_27image_matches_reference(self):
        box, potential, positions = _system()
        ref = compute_forces_reference(positions, box, potential)
        img = compute_forces_27image(positions, box, potential)
        np.testing.assert_allclose(img.accelerations, ref.accelerations, atol=1e-9)
        assert img.interacting_pairs == ref.interacting_pairs

    def test_block_size_does_not_change_result(self):
        box, potential, positions = _system(n=50)
        a = compute_forces(positions, box, potential, block=7)
        b = compute_forces(positions, box, potential, block=512)
        np.testing.assert_allclose(a.accelerations, b.accelerations, atol=1e-12)
        assert a.potential_energy == pytest.approx(b.potential_energy)

    def test_float32_close_to_float64(self):
        box, potential, positions = _system(n=100)
        f32 = compute_forces(positions, box, potential, dtype=np.float32)
        f64 = compute_forces(positions, box, potential, dtype=np.float64)
        scale = np.max(np.abs(f64.accelerations))
        np.testing.assert_allclose(
            f32.accelerations / scale, f64.accelerations / scale, atol=1e-5
        )


class TestPhysics:
    def test_forces_sum_to_zero(self):
        box, potential, positions = _system(n=80)
        result = compute_forces(positions, box, potential)
        np.testing.assert_allclose(
            result.accelerations.sum(axis=0), 0.0, atol=1e-9
        )

    def test_two_atoms_at_minimum_feel_no_force(self):
        box = PeriodicBox(length=10.0)
        potential = LennardJones(rcut=2.5)
        positions = np.array([[1.0, 1.0, 1.0], [1.0 + potential.minimum(), 1.0, 1.0]])
        result = compute_forces(positions, box, potential)
        np.testing.assert_allclose(result.accelerations, 0.0, atol=1e-10)
        assert result.interacting_pairs == 1

    def test_two_atoms_repel_when_close(self):
        box = PeriodicBox(length=10.0)
        potential = LennardJones(rcut=2.5)
        positions = np.array([[1.0, 1.0, 1.0], [1.9, 1.0, 1.0]])
        result = compute_forces(positions, box, potential)
        assert result.accelerations[0, 0] < 0.0  # pushed away from neighbor
        assert result.accelerations[1, 0] > 0.0

    def test_interaction_across_periodic_boundary(self):
        box = PeriodicBox(length=10.0)
        potential = LennardJones(rcut=2.5)
        positions = np.array([[0.2, 5.0, 5.0], [9.8, 5.0, 5.0]])  # 0.4 apart
        result = compute_forces(positions, box, potential)
        assert result.interacting_pairs == 1
        assert result.accelerations[0, 0] > 0.0  # pushed inward, away from wall

    def test_no_interactions_beyond_cutoff(self):
        box = PeriodicBox(length=20.0)
        potential = LennardJones(rcut=2.0)
        positions = np.array([[1.0, 1.0, 1.0], [8.0, 8.0, 8.0]])
        result = compute_forces(positions, box, potential)
        assert result.interacting_pairs == 0
        assert result.potential_energy == 0.0
        np.testing.assert_allclose(result.accelerations, 0.0)

    def test_interacting_fraction(self):
        box, potential, positions = _system(n=100)
        result = compute_forces(positions, box, potential)
        assert 0.0 < result.interacting_fraction < 1.0
        assert result.interacting_fraction == pytest.approx(
            result.interacting_pairs / result.pairs_examined
        )


class TestValidation:
    def test_rejects_bad_shape(self):
        box = PeriodicBox(length=10.0)
        with pytest.raises(ValueError):
            compute_forces(np.zeros((4, 2)), box, LennardJones())

    def test_rejects_cutoff_larger_than_half_box(self):
        box = PeriodicBox(length=4.0)
        with pytest.raises(ValueError, match="minimum image"):
            compute_forces(np.zeros((4, 3)), box, LennardJones(rcut=2.5))


class TestPropertyBased:
    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_property_momentum_conservation_random_configs(self, n, seed):
        box = PeriodicBox(length=12.0)
        potential = LennardJones(rcut=2.5)
        rng = np.random.default_rng(seed)
        positions = box.wrap(cubic_lattice(n, box) + rng.normal(0, 0.2, (n, 3)))
        result = compute_forces(positions, box, potential)
        np.testing.assert_allclose(result.accelerations.sum(axis=0), 0.0, atol=1e-8)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_property_translation_invariance(self, seed):
        box = PeriodicBox(length=12.0)
        potential = LennardJones(rcut=2.5)
        rng = np.random.default_rng(seed)
        positions = box.wrap(cubic_lattice(27, box) + rng.normal(0, 0.2, (27, 3)))
        shift = rng.uniform(0, box.length, size=3)
        base = compute_forces(positions, box, potential)
        moved = compute_forces(box.wrap(positions + shift), box, potential)
        np.testing.assert_allclose(
            moved.accelerations, base.accelerations, atol=1e-8
        )
        assert moved.potential_energy == pytest.approx(
            base.potential_energy, abs=1e-8
        )


class TestBlockSize:
    def test_block_rechunk_preserves_forces(self):
        # the block size only re-chunks rows, and each row is reduced in one
        # ordered pass: forces and tallies are bitwise block-invariant;
        # only the dense branch's pairwise per-block PE sum may move
        from repro.experiments.common import paper_config
        from repro.md.forcefield import make_force_backend

        for n_atoms in (256, 1024):  # dense scan, cell branch
            config = paper_config(n_atoms)  # box must exceed twice the cutoff
            box = config.make_box()
            rng = np.random.default_rng(7)
            positions = rng.uniform(0.0, box.length, size=(n_atoms, 3))
            for dtype, pe_rel in ((np.float32, 1e-5), (np.float64, 1e-12)):
                first, *others = (
                    make_force_backend(
                        "all-pairs", box, LennardJones(), dtype=dtype, block=block
                    )(positions)
                    for block in (16, 64, 256, 1024)
                )
                for other in others:
                    assert np.array_equal(other.accelerations, first.accelerations)
                    assert np.array_equal(
                        other.row_interacting, first.row_interacting
                    )
                    assert other.interacting_pairs == first.interacting_pairs
                    assert other.potential_energy == pytest.approx(
                        first.potential_energy, rel=pe_rel
                    )
