"""Regression net for the BranchStat-window fix in ``cell/device.py``.

The device caches one :class:`~repro.vm.sweep.PairSweep` per box, so
its VM machine lives across ``run()`` calls, and the machine's
``BranchStat`` tallies accumulate for its whole lifetime.  The device
therefore snapshots the stats around each step and charges only the
*window* — so a second run on the same device must charge exactly the
same ``vm.*`` counters as a first run on a fresh device, and physics
must not depend on how many runs came before.
"""

import numpy as np
import pytest

from repro.cell.device import CellDevice
from repro.md.simulation import MDConfig
from repro.obs.observe import Observation

CONFIG = MDConfig(n_atoms=128)


def vm_run(device, n_steps=1):
    return device.run(
        CONFIG, n_steps, observe=Observation(device.name)
    )


class TestBranchWindowReset:
    def test_second_run_charges_identical_vm_counters(self):
        device = CellDevice(n_spes=1, mode="vm")
        first = vm_run(device)
        second = vm_run(device)
        fresh = vm_run(CellDevice(n_spes=1, mode="vm"))
        assert second.counters == first.counters
        assert second.counters == fresh.counters

    def test_branch_samples_do_not_accumulate_across_runs(self):
        device = CellDevice(n_spes=1, mode="vm")
        first = vm_run(device)
        samples = first.counters["vm.branch.interacting_fraction.samples"]
        for _ in range(3):
            again = vm_run(device)
            assert again.counters["vm.branch.interacting_fraction.samples"] == samples

    def test_unobserved_runs_do_not_poison_a_later_observed_run(self):
        device = CellDevice(n_spes=1, mode="vm")
        device.run(CONFIG, 2)  # unobserved: no window recording at all
        observed = vm_run(device)
        fresh = vm_run(CellDevice(n_spes=1, mode="vm"))
        assert observed.counters == fresh.counters

    def test_cached_sweep_reuse_keeps_physics_identical(self):
        device = CellDevice(n_spes=1, mode="vm")
        first = device.run(CONFIG, 2)
        second = device.run(CONFIG, 2)
        assert first.step_seconds == second.step_seconds
        assert np.array_equal(first.final_positions, second.final_positions)

    def test_window_state_survives_interleaved_box_sizes(self):
        # switching configs swaps cached sweeps; windows must not bleed
        device = CellDevice(n_spes=1, mode="vm")
        other = MDConfig(n_atoms=200)
        baseline = vm_run(device)
        device.run(other, 1, observe=Observation(device.name))
        again = vm_run(device)
        assert again.counters == baseline.counters
