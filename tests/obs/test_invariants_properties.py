"""Property tests over the observability invariants.

Two layers: hypothesis-generated synthetic timelines exercise the
checkers themselves (they must accept every law-abiding timeline and
flag every violation we can construct), and fixed-size real device runs
pin the conservation laws to the actual models.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell.device import CellDevice
from repro.md.simulation import MDConfig
from repro.obs.invariants import (
    dma_conservation_problems,
    monotonic_step_problems,
    pcie_conservation_problems,
    span_nesting_problems,
)
from repro.obs.observe import Observation

CONFIG = MDConfig(n_atoms=128)

#: positive, well-scaled simulated durations (seconds)
durations = st.floats(
    min_value=1e-6, max_value=10.0, allow_nan=False, allow_infinity=False
)
#: per-step part breakdowns: lane name -> duration
parts_dicts = st.dictionaries(
    st.sampled_from(["dma", "exec", "mailbox", "host"]),
    durations,
    min_size=1,
    max_size=4,
)


def emit_steps(obs: Observation, steps: list[dict]) -> None:
    """Lay out synthetic steps the way Device._observe_step does:
    one ``step`` envelope per step, children end-to-end per lane."""
    for index, parts in enumerate(steps):
        total = sum(parts.values())
        obs.span_at("step", "step", 0.0, total, args={"step": index})
        offset = 0.0
        for name, seconds in parts.items():
            obs.span_at(name, name, offset, seconds)
            offset += seconds
        obs.advance(total)


class TestSyntheticTimelines:
    @given(steps=st.lists(parts_dicts, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_lawful_timelines_pass_both_checkers(self, steps):
        obs = Observation("synthetic")
        emit_steps(obs, steps)
        assert span_nesting_problems(obs.tracer) == []
        assert monotonic_step_problems(obs.tracer) == []

    @given(steps=st.lists(parts_dicts, min_size=1, max_size=4),
           data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_inflated_child_is_flagged(self, steps, data):
        obs = Observation("synthetic")
        emit_steps(obs, steps)
        # inflate one lane beyond its step's envelope
        victim = data.draw(st.integers(0, len(steps) - 1))
        start = sum(sum(p.values()) for p in steps[:victim])
        total = sum(steps[victim].values())
        obs.tracer.add("rogue", "dma", start, total * 2.0)
        assert span_nesting_problems(obs.tracer) != []

    @given(steps=st.lists(parts_dicts, min_size=2, max_size=4),
           gap=durations)
    @settings(max_examples=50, deadline=None)
    def test_gap_between_steps_is_flagged(self, steps, gap):
        obs = Observation("synthetic")
        emit_steps(obs, steps[:-1])
        obs.advance(gap)  # simulated time the step spans don't cover
        emit_steps(obs, steps[-1:])
        assert monotonic_step_problems(obs.tracer) != []

    @given(first=durations, second=durations)
    @settings(max_examples=50, deadline=None)
    def test_overlapping_steps_are_flagged(self, first, second):
        obs = Observation("synthetic")
        obs.span_at("step", "step", 0.0, first)
        # second step starts inside the first instead of at its end
        obs.span_at("step", "step", first * 0.5, second)
        assert monotonic_step_problems(obs.tracer) != []


class TestRealDeviceConservation:
    @given(n_spes=st.sampled_from([1, 3, 8]), n_steps=st.integers(1, 3))
    @settings(max_examples=6, deadline=None)
    def test_cell_dma_bytes_conserved(self, n_spes, n_steps):
        device = CellDevice(n_spes=n_spes)
        obs = Observation(device.name)
        result = device.run(CONFIG, n_steps, observe=obs)
        assert dma_conservation_problems(
            result.counters, CONFIG.n_atoms, n_spes, n_steps
        ) == []
        assert span_nesting_problems(obs.tracer) == []
        assert monotonic_step_problems(obs.tracer) == []

    @given(n_steps=st.integers(1, 3))
    @settings(max_examples=3, deadline=None)
    def test_gpu_pcie_bytes_conserved(self, n_steps):
        from repro.gpu.device import GpuDevice

        device = GpuDevice()
        result = device.run(CONFIG, n_steps, observe=Observation(device.name))
        assert pcie_conservation_problems(
            result.counters, CONFIG.n_atoms, n_steps
        ) == []

    def test_dma_checker_detects_a_ten_percent_leak(self):
        device = CellDevice(n_spes=8)
        result = device.run(CONFIG, 2, observe=Observation(device.name))
        leaky = dict(result.counters)
        leaky["cell.dma.bytes_in"] = math.floor(
            leaky["cell.dma.bytes_in"] * 1.10
        )
        assert dma_conservation_problems(leaky, CONFIG.n_atoms, 8, 2) != []


class TestBackendCounterIdentity:
    """interp and fused VM backends must charge identical counters."""

    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_cell_vm_counters_backend_independent(self, n_steps, monkeypatch):
        import functools

        import repro.cell.device as cell_device
        from repro.cell.spe import SpePairSweep

        snapshots = {}
        for backend in ("interp", "fused"):
            # the device builds its sweeps itself: hand it the backend
            monkeypatch.setattr(
                cell_device, "SpePairSweep",
                functools.partial(SpePairSweep, exec_backend=backend),
            )
            device = CellDevice(n_spes=1, mode="vm")
            result = device.run(
                CONFIG, n_steps, observe=Observation(device.name)
            )
            snapshots[backend] = result.counters
        assert snapshots["interp"] == snapshots["fused"]
        assert any(k.startswith("vm.") for k in snapshots["interp"])
