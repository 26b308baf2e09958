"""Observation is strictly zero-cost when disabled.

Two claims: an unobserved run allocates no tracer/observation objects
at all, and observing a run changes nothing about its physics or its
simulated timings.
"""

import numpy as np
import pytest

from repro.cell.device import CellDevice, PPEOnlyDevice
from repro.gpu.device import GpuDevice
from repro.gpu.nextgen import NextGenGpuDevice
from repro.md.simulation import MDConfig
from repro.mta.device import MTADevice
from repro.mta.xmt import XMTDevice
from repro.obs.observe import Observation
from repro.opteron.device import OpteronDevice

CONFIG = MDConfig(n_atoms=128)


class TestNoAllocationWhenDisabled:
    @pytest.fixture
    def poisoned_observation(self, monkeypatch):
        def boom(self, device="device"):
            raise AssertionError(
                "Observation was constructed during an unobserved run"
            )

        monkeypatch.setattr(Observation, "__init__", boom)

    def test_default_run_never_constructs_an_observation(
        self, poisoned_observation
    ):
        result = OpteronDevice().run(CONFIG, 2)
        assert result.counters == {}

    def test_observe_false_never_constructs_an_observation(
        self, poisoned_observation
    ):
        result = CellDevice(n_spes=2).run(CONFIG, 1, observe=False)
        assert result.counters == {}

    def test_tracer_not_constructed_either(self, monkeypatch):
        from repro.obs.trace import Tracer

        def boom(self):
            raise AssertionError("Tracer constructed during unobserved run")

        monkeypatch.setattr(Tracer, "__init__", boom)
        OpteronDevice().run(CONFIG, 1)


class TestObservationChangesNothing:
    @pytest.mark.parametrize(
        "make",
        [OpteronDevice, lambda: CellDevice(n_spes=8),
         lambda: CellDevice(n_spes=1, mode="vm"), PPEOnlyDevice, GpuDevice,
         lambda: GpuDevice(mode="vm"), NextGenGpuDevice,
         lambda: MTADevice(fully_multithreaded=True),
         lambda: MTADevice(fully_multithreaded=False),
         lambda: XMTDevice(n_processors=8)],
        ids=["opteron", "cell-8spe", "cell-vm", "ppe-only", "gpu", "gpu-vm",
             "gpu-nextgen", "mta-fully", "mta-partially", "xmt"],
    )
    def test_observed_run_is_byte_identical(self, make):
        plain = make().run(CONFIG, 2, observe=False)
        observed = make().run(CONFIG, 2, observe=Observation("check"))
        assert plain.step_seconds == observed.step_seconds
        assert plain.step_breakdowns == observed.step_breakdowns
        assert plain.setup_seconds == observed.setup_seconds
        assert np.array_equal(plain.final_positions, observed.final_positions)
        assert np.array_equal(plain.final_velocities, observed.final_velocities)
        assert plain.counters == {}
        assert observed.counters != {}
