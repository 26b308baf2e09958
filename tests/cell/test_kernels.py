"""Tests for the six Figure-5 SPE kernel variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cell.kernels import (
    OPT_LEVELS,
    OptimizationFlags,
    build_spe_kernel,
    kernel_constants,
)
from repro.cell.spe import SPE_COST_TABLE
from repro.md import MDConfig, compute_forces
from repro.md.lattice import cubic_lattice
from repro.vm.schedule import estimate_cycles
from repro.vm.sweep import PairSweep


@pytest.fixture(scope="module")
def system():
    config = MDConfig(n_atoms=128)
    box = config.make_box()
    potential = config.make_potential()
    positions = cubic_lattice(config.n_atoms, box)
    reference = compute_forces(positions, box, potential, dtype=np.float32)
    return box, potential, positions, reference


class TestFlags:
    def test_ladder_is_cumulative(self):
        previous_on = 0
        for level in OPT_LEVELS:
            flags = OptimizationFlags.for_level(level)
            on = sum(
                [
                    flags.branchless_select,
                    flags.simd_reflection,
                    flags.simd_direction,
                    flags.simd_length,
                    flags.simd_acceleration,
                ]
            )
            assert on >= previous_on
            previous_on = on

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            OptimizationFlags.for_level("turbo")
        with pytest.raises(ValueError):
            build_spe_kernel("turbo", 10.0)


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("level", OPT_LEVELS)
    def test_every_level_computes_reference_forces(self, system, level):
        box, potential, positions, reference = system
        program = build_spe_kernel(level, box.length)
        sweep = PairSweep(program)
        acc, pe = sweep.run(positions, kernel_constants(potential))
        scale = np.max(np.abs(reference.accelerations))
        np.testing.assert_allclose(
            acc / scale, reference.accelerations / scale, atol=2e-5
        )
        assert 0.5 * pe.sum() == pytest.approx(
            reference.potential_energy, rel=1e-3
        )

    def test_partial_row_sweep(self, system):
        box, potential, positions, reference = system
        program = build_spe_kernel("simd_acceleration", box.length)
        sweep = PairSweep(program)
        rows = np.arange(10, 30)
        acc, _pe = sweep.run(positions, kernel_constants(potential), rows=rows)
        scale = np.max(np.abs(reference.accelerations))
        np.testing.assert_allclose(
            acc / scale, reference.accelerations[rows] / scale, atol=2e-5
        )


class TestCycleLadder:
    @pytest.fixture(scope="class")
    def cycles(self, system):
        box, _potential, _positions, reference = system
        metrics = {
            "pairs": 2048 * 2047,
            "interacting_fraction": 2.0 * reference.interacting_pairs
            / (128 * 127),
            "reflect_take": 0.05,
            "atoms": 2048,
        }
        return {
            level: estimate_cycles(
                build_spe_kernel(level, box.length), SPE_COST_TABLE, metrics
            ).total_cycles
            for level in OPT_LEVELS
        }

    def test_ladder_is_monotone_improving(self, cycles):
        ordered = [cycles[level] for level in OPT_LEVELS]
        assert all(b <= a for a, b in zip(ordered, ordered[1:]))

    def test_reflection_is_the_big_win(self, cycles):
        gains = {
            level: cycles[OPT_LEVELS[i]] / cycles[level]
            for i, level in enumerate(OPT_LEVELS[1:])
        }
        assert max(gains, key=gains.get) == "simd_reflection"

    def test_total_speedup_in_paper_ballpark(self, cycles):
        total = cycles["original"] / cycles["simd_acceleration"]
        assert 1.8 <= total <= 3.2  # paper: ~2.2x

    def test_branch_probability_affects_original_only_weakly_when_zero(self, system):
        box, _p, _pos, _ref = system
        program = build_spe_kernel("simd_acceleration", box.length)
        m0 = {"pairs": 1.0, "interacting_fraction": 0.0, "reflect_take": 0.0}
        m1 = {"pairs": 1.0, "interacting_fraction": 0.0, "reflect_take": 1.0}
        c0 = estimate_cycles(program, SPE_COST_TABLE, m0).total_cycles
        c1 = estimate_cycles(program, SPE_COST_TABLE, m1).total_cycles
        # the branchless SIMD kernel has no reflect branch at all
        assert c0 == c1


class TestConstants:
    def test_kernel_constants_cover_program_inputs(self, system):
        _box, potential, _pos, _ref = system
        constants = kernel_constants(potential)
        program = build_spe_kernel("original", 10.0)
        missing = (
            set(program.inputs) - set(constants) - {"xi", "xj", "self_flag"}
        )
        assert not missing
