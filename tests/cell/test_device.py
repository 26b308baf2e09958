"""Tests for the Cell device: scheduler, DMA plan, device orchestration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.memory import LocalStoreOverflow
from repro.cell.device import CellDevice, PPEOnlyDevice
from repro.cell.dma import MDTrafficPlan, make_dma_engine
from repro.cell.mailbox import Mailbox
from repro.cell.ppe import PPE
from repro.cell.scheduler import LaunchStrategy, SpeThreadScheduler
from repro.cell.spe import SPE
from repro.md import MDConfig, compute_forces
from repro.md.lattice import cubic_lattice


class TestScheduler:
    def test_respawn_charges_every_step(self):
        s = SpeThreadScheduler(n_spes=8, strategy=LaunchStrategy.RESPAWN_PER_STEP)
        assert s.launch_seconds(0) == s.launch_seconds(5) > 0.0

    def test_launch_once_charges_first_step_only(self):
        s = SpeThreadScheduler(n_spes=8, strategy=LaunchStrategy.LAUNCH_ONCE)
        assert s.launch_seconds(0) > 0.0
        assert s.launch_seconds(1) == 0.0

    def test_launch_scales_with_spes(self):
        one = SpeThreadScheduler(n_spes=1)
        eight = SpeThreadScheduler(n_spes=8)
        assert eight.launch_seconds(0) == pytest.approx(8 * one.launch_seconds(0))

    def test_mailbox_signals_after_first_step(self):
        s = SpeThreadScheduler(n_spes=4, strategy=LaunchStrategy.LAUNCH_ONCE)
        assert s.signal_seconds(0) == 0.0
        assert s.signal_seconds(1) > 0.0
        assert s.mailbox.sends == 4
        assert s.mailbox.receives == 4

    def test_respawn_needs_no_mailboxes(self):
        s = SpeThreadScheduler(n_spes=4, strategy=LaunchStrategy.RESPAWN_PER_STEP)
        assert s.signal_seconds(3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SpeThreadScheduler(n_spes=0)
        s = SpeThreadScheduler(n_spes=1)
        with pytest.raises(ValueError):
            s.launch_seconds(-1)


class TestMailbox:
    def test_costs_scale_with_words(self):
        mb = Mailbox(transfer_s=1e-6)
        assert mb.send_seconds(3) == pytest.approx(3e-6)
        assert mb.receive_seconds() == pytest.approx(1e-6)
        with pytest.raises(ValueError):
            mb.send_seconds(0)


class TestTrafficPlan:
    def test_bytes_accounting(self):
        plan = MDTrafficPlan(n_atoms=2048, n_spes=8)
        assert plan.bytes_in == 2048 * 16
        assert plan.rows_per_spe == 256
        assert plan.bytes_out == 256 * 16

    def test_fits_paper_workload_in_local_store(self):
        plan = MDTrafficPlan(n_atoms=2048, n_spes=1)
        plan.check_local_store(SPE(index=0).local_store)

    def test_overflow_detected_for_huge_systems(self):
        plan = MDTrafficPlan(n_atoms=20000, n_spes=1)
        with pytest.raises(LocalStoreOverflow):
            plan.check_local_store(SPE(index=0).local_store)

    def test_transfer_time_positive(self):
        plan = MDTrafficPlan(n_atoms=2048, n_spes=8)
        assert plan.step_transfer_seconds(make_dma_engine()) > 0.0


class TestCellDevice:
    def test_validation(self):
        with pytest.raises(ValueError):
            CellDevice(n_spes=0)
        with pytest.raises(ValueError):
            CellDevice(n_spes=9)
        with pytest.raises(ValueError):
            CellDevice(opt_level="warp")
        with pytest.raises(ValueError):
            CellDevice(mode="sideways")

    def test_run_produces_breakdown(self):
        result = CellDevice(n_spes=2).run(MDConfig(n_atoms=128), 2)
        for key in ("spe_kernel", "dma", "thread_launch", "ppe_host"):
            assert key in result.breakdown

    def test_more_spes_is_faster_amortized(self):
        # enough atoms/steps that compute dominates the one-time launch
        cfg = MDConfig(n_atoms=1024)
        t1 = CellDevice(n_spes=1).run(cfg, 10).total_seconds
        t8 = CellDevice(n_spes=8).run(cfg, 10).total_seconds
        assert t8 < t1

    def test_optimized_kernel_faster_than_original(self):
        cfg = MDConfig(n_atoms=256)
        orig = CellDevice(n_spes=1, opt_level="original").run(cfg, 2)
        best = CellDevice(n_spes=1, opt_level="simd_acceleration").run(cfg, 2)
        assert best.component("spe_kernel") < orig.component("spe_kernel")

    def test_vm_mode_matches_fast_mode_physics(self):
        cfg = MDConfig(n_atoms=128)
        fast = CellDevice(n_spes=1, mode="fast").run(cfg, 2)
        vm = CellDevice(n_spes=1, mode="vm").run(cfg, 2)
        np.testing.assert_allclose(
            vm.final_positions, fast.final_positions, atol=1e-4
        )
        assert vm.records[-1].potential_energy == pytest.approx(
            fast.records[-1].potential_energy, rel=1e-3
        )

    @pytest.mark.xfail(
        strict=True,
        reason="vm mode averages the interacting fraction over all n "
        "lanes per row, self lanes included, then scales by n(n-1)/2: "
        "the count is (n-1)/n of the reference",
    )
    def test_vm_mode_counts_interacting_pairs(self):
        cfg = MDConfig(n_atoms=256)
        box = cfg.make_box()
        potential = cfg.make_potential()
        positions = cubic_lattice(cfg.n_atoms, box)
        backend = CellDevice(n_spes=1, mode="vm").force_backend(box, potential)
        reference = compute_forces(positions, box, potential, dtype=np.float32)
        assert backend(positions).interacting_pairs == reference.interacting_pairs

    def test_float32_precision_enforced(self):
        result = CellDevice(n_spes=1).run(MDConfig(n_atoms=128), 1)
        assert result.config.dtype == "float32"


class TestPPEOnly:
    def test_much_slower_than_spes(self):
        cfg = MDConfig(n_atoms=1024)
        ppe = PPEOnlyDevice().run(cfg, 5)
        spe8 = CellDevice(n_spes=8).run(cfg, 5)
        assert ppe.total_seconds > spe8.total_seconds

    def test_integration_cost_linear(self):
        ppe = PPE()
        assert ppe.integration_seconds(2000) == pytest.approx(
            2 * ppe.integration_seconds(1000)
        )
        with pytest.raises(ValueError):
            ppe.integration_seconds(-1)
