"""Tests for the GPU device model: pipelines, PCIe accounting, physics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu.device import GpuDevice, make_pcie_bus
from repro.gpu.kernels import build_md_shader, shader_constants
from repro.gpu.pipelines import PipelineArray
from repro.md import MDConfig, compute_forces
from repro.md.lattice import cubic_lattice
from repro.vm.sweep import PairSweep


@pytest.fixture(scope="module")
def system():
    config = MDConfig(n_atoms=128)
    box = config.make_box()
    potential = config.make_potential()
    positions = cubic_lattice(config.n_atoms, box)
    reference = compute_forces(positions, box, potential, dtype=np.float32)
    return box, potential, positions, reference


class TestPipelineArray:
    def test_issue_rate(self):
        array = PipelineArray(n_pipelines=24, efficiency=0.5)
        assert array.issue_rate == pytest.approx(24 * array.clock.hz * 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineArray(n_pipelines=0)
        with pytest.raises(ValueError):
            PipelineArray(efficiency=0.0)
        with pytest.raises(ValueError):
            PipelineArray(efficiency=1.5)

    def test_execute_seconds_scales_with_pairs(self):
        array = PipelineArray()
        shader = build_md_shader(10.0)
        t1 = array.execute_seconds(shader, {"pairs": 1000.0})
        t2 = array.execute_seconds(shader, {"pairs": 2000.0})
        assert t2 == pytest.approx(2 * t1)


class TestShaderSweep:
    def test_shader_reproduces_reference_forces(self, system):
        box, potential, positions, reference = system
        sweep = PairSweep(build_md_shader(box.length).program)
        acc, pe = sweep.run(positions, shader_constants(potential, box.length))
        scale = np.max(np.abs(reference.accelerations))
        np.testing.assert_allclose(
            acc / scale, reference.accelerations / scale, atol=2e-5
        )
        assert 0.5 * pe.sum() == pytest.approx(
            reference.potential_energy, rel=1e-3
        )

    def test_pe_rides_in_fourth_component(self, system):
        """The paper's trick: one output array carries (fx, fy, fz, pe)."""
        box, potential, positions, _reference = system
        shader = build_md_shader(box.length)
        machine_width = PairSweep(shader.program).machine.width
        assert machine_width == 4
        # the shader's only output is acc_out; no second array exists
        assert shader.output_register == "acc_out"


class TestGpuDevice:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            GpuDevice(mode="quantum")

    def test_breakdown_components(self):
        result = GpuDevice().run(MDConfig(n_atoms=128), 2)
        for key in ("shader", "pcie_upload", "pcie_readback", "driver", "host"):
            assert key in result.breakdown

    def test_setup_excluded_from_totals(self):
        result = GpuDevice().run(MDConfig(n_atoms=128), 2)
        assert result.setup_seconds > 0.0
        assert result.total_seconds_with_setup == pytest.approx(
            result.total_seconds + result.setup_seconds
        )

    def test_pcie_costs_paid_every_step(self):
        r2 = GpuDevice().run(MDConfig(n_atoms=128), 2)
        r4 = GpuDevice().run(MDConfig(n_atoms=128), 4)
        assert r4.component("pcie_upload") == pytest.approx(
            2 * r2.component("pcie_upload")
        )

    def test_vm_mode_matches_fast_mode_physics(self):
        cfg = MDConfig(n_atoms=128)
        fast = GpuDevice(mode="fast").run(cfg, 2)
        vm = GpuDevice(mode="vm").run(cfg, 2)
        np.testing.assert_allclose(
            vm.final_positions, fast.final_positions, atol=1e-4
        )

    def test_readback_sync_dominates_small_systems(self):
        bus = make_pcie_bus()
        assert bus.readback_time(16) > 10 * bus.upload_time(16)

    def test_float32_enforced(self):
        result = GpuDevice().run(MDConfig(n_atoms=128), 1)
        assert result.config.dtype == "float32"
