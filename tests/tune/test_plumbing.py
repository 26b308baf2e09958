"""Knob consumers: tuned values reach backends, physics stays put.

Covers the resolution priority every consumer promises (explicit
argument > env > tuned > default) and the bit-identity contract —
scheduling knobs may only re-chunk or re-bucket work, so flipping them
must leave the computed physics within (or exactly at) the untuned
result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import paper_config
from repro.tune.context import applied


class TestTunedBackendOptions:
    def test_inactive_config_yields_no_options(self):
        from repro.md.forcefield import tuned_backend_options

        assert tuned_backend_options("all-pairs") == {}
        assert tuned_backend_options("cell", device="opteron") == {}

    def test_knobs_map_to_factory_options(self):
        from repro.md.forcefield import tuned_backend_options

        with applied({"md.block": 64, "md.skin": 0.45}):
            assert tuned_backend_options("all-pairs") == {"block": 64}
            assert tuned_backend_options("verlet") == {"skin": 0.45}
            assert tuned_backend_options("cell") == {"skin": 0.45}

    def test_device_scoped_value_only_applies_to_that_device(self):
        from repro.md.forcefield import tuned_backend_options

        with applied({"opteron/md.block": 64}):
            assert tuned_backend_options("all-pairs", device="opteron") == {
                "block": 64
            }
            assert tuned_backend_options("all-pairs", device="cell") == {}

    def test_block_rechunk_preserves_forces(self):
        # md.block only re-chunks rows, and each row is reduced in one
        # ordered pass: forces and tallies are bitwise block-invariant;
        # only the dense branch's pairwise per-block PE sum may move
        from repro.md.forcefield import make_force_backend
        from repro.md.lj import LennardJones

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


class TestCellPartition:
    def test_tuned_partition_resolves_at_prepare(self):
        from repro.cell.device import CellDevice
        from repro.cell.partition import RowPartition

        device = CellDevice()
        config = paper_config(64)
        with applied({"cell/cell.partition": "cyclic"}):
            device.prepare(config)
            assert device.partition is RowPartition.CYCLIC
        device.prepare(config)  # config popped -> back to the default
        assert device.partition is RowPartition.BLOCK

    def test_explicit_partition_beats_tuned(self):
        from repro.cell.device import CellDevice
        from repro.cell.partition import RowPartition

        device = CellDevice(partition="block")
        with applied({"cell/cell.partition": "cyclic"}):
            device.prepare(paper_config(64))
        assert device.partition is RowPartition.BLOCK

    def test_partition_strategies_are_bit_identical(self):
        # every pair is still examined by exactly one SPE, so the
        # trajectory must match to the last bit
        from repro.cell.device import CellDevice

        config = paper_config(256)  # box must exceed twice the LJ cutoff
        energies = {}
        for strategy in ("block", "cyclic"):
            result = CellDevice(partition=strategy).run(config, 2)
            energies[strategy] = [r.total_energy for r in result.records]
        assert energies["block"] == energies["cyclic"]


class TestGpuRowBlock:
    def test_resolution_priority(self):
        from repro.gpu.device import gpu_row_block

        assert gpu_row_block() == 128
        with applied({"gpu/gpu.row_block": 256}):
            assert gpu_row_block() == 256

    @pytest.mark.parametrize("kernel", ["gpu:md_shader", "spe:original"])
    def test_widths_are_bit_identical(self, kernel):
        from repro.cell.kernels import build_spe_kernel, kernel_constants
        from repro.gpu.kernels import build_md_shader, shader_constants
        from repro.md.lj import LennardJones
        from repro.vm.sweep import PairSweep

        n = 96
        config = paper_config(n)
        box_length = config.make_box().length
        family, name = kernel.split(":")
        if family == "gpu":
            program = build_md_shader(box_length).program
            constants = shader_constants(LennardJones(), box_length)
        else:
            program = build_spe_kernel(name, box_length)
            constants = kernel_constants(LennardJones())
        sweep = PairSweep(program)
        rng = np.random.default_rng(3)
        positions = rng.uniform(0.0, box_length, size=(n, 3)).astype(np.float32)
        acc_a, pe_a = sweep.run(positions, constants, row_block=32)
        acc_b, pe_b = sweep.run(positions, constants, row_block=128)
        assert np.array_equal(acc_a, acc_b)
        assert np.array_equal(pe_a, pe_b)


class TestMtaStreams:
    def test_tuned_stream_request_reaches_the_model(self):
        from repro.mta.device import MTADevice

        device = MTADevice()
        with applied({"mta/mta.streams": 32}):
            device.run(paper_config(256), 1)
        assert device.streams.n_streams == 32

    def test_explicit_argument_beats_tuned(self):
        from repro.mta.device import MTADevice

        with applied({"mta/mta.streams": 32}):
            device = MTADevice(n_streams=64)
        assert device.streams.n_streams == 64

    def test_untuned_default_is_the_calibrated_count(self):
        from repro.arch import calibration as cal
        from repro.mta.device import MTADevice

        assert MTADevice().streams.n_streams == cal.MTA_N_STREAMS

