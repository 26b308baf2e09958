"""Per-device counter semantics and timeline lane structure."""

import pytest

from repro.md.simulation import MDConfig
from repro.obs.goldens import GOLDEN_DEVICES
from repro.obs.invariants import (
    monotonic_step_problems,
    span_nesting_problems,
)
from repro.obs.observe import Observation
from repro.obs.trace import validate_chrome_trace

CONFIG = MDConfig(n_atoms=128)
STEPS = 2


def observed_run(name):
    device = GOLDEN_DEVICES[name]()
    obs = Observation(device.name)
    result = device.run(CONFIG, STEPS, observe=obs)
    return device, obs, result


@pytest.mark.parametrize("name", sorted(GOLDEN_DEVICES))
def test_every_device_timeline_is_structurally_sound(name):
    _device, obs, result = observed_run(name)
    assert span_nesting_problems(obs.tracer) == []
    assert monotonic_step_problems(obs.tracer) == []
    assert result.counters["step.count"] == STEPS
    # the step envelope tiles the whole simulated run
    assert result.counters["sim.seconds"] == pytest.approx(
        result.total_seconds
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_DEVICES))
def test_component_spans_follow_the_declared_timeline(name):
    device, obs, result = observed_run(name)
    steps = {s.args["step"]: s for s in obs.tracer.spans if s.name == "step"}
    expected = set()
    for step, parts in enumerate(result.step_breakdowns):
        components = device.timeline(parts)
        # the declaration covers the whole breakdown
        assert set(parts) <= {c.part for c in components}
        for i, component in enumerate(components):
            seconds = parts.get(component.part, 0.0)
            if seconds <= 0.0:
                continue
            before = sum(parts.get(c.part, 0.0) for c in components[:i])
            args = tuple(sorted({"step": step, **component.args}.items()))
            for lane in component.lanes:
                expected.add((
                    component.span or component.part, lane,
                    steps[step].start_s + before, seconds, args,
                ))
    emitted = {
        (s.name, s.lane, s.start_s, s.duration_s, tuple(sorted(s.args.items())))
        for s in obs.tracer.spans
        if s.name != "step"
    }
    assert emitted == expected
    assert validate_chrome_trace(obs.chrome_trace()) == []


@pytest.mark.parametrize("name", sorted(GOLDEN_DEVICES))
def test_pair_counters_scale_with_examined_pairs(name):
    _device, _obs, result = observed_run(name)
    examined = result.counters["pairs.examined"]
    interacting = result.counters["pairs.interacting"]
    assert examined > 0
    assert 0 <= interacting < examined


class TestCellLanes:
    def test_one_lane_per_spe_plus_ppe(self):
        device, obs, _result = observed_run("cell-8spe")
        lanes = obs.tracer.lanes
        assert "ppe" in lanes
        for i in range(device.n_spes):
            assert f"spe{i}" in lanes

    def test_mailbox_round_trips_follow_launch_once(self):
        _device, _obs, result = observed_run("cell-8spe")
        # LAUNCH_ONCE: threads spawn on step 0, mailbox sync every later step
        assert result.counters["cell.spe.launches"] == 8
        assert result.counters["cell.mailbox.round_trips"] == 8 * (STEPS - 1)
        assert result.counters["cell.mailbox.words"] == 2 * 8 * (STEPS - 1)

    def test_dma_transactions_respect_the_transfer_cap(self):
        from repro.cell.dma import MDTrafficPlan

        device, _obs, result = observed_run("cell-8spe")
        traffic = MDTrafficPlan(
            n_atoms=CONFIG.n_atoms, n_spes=device.n_spes
        )
        per_spe = traffic.transactions_per_spe(
            traffic.layout(device.spes[0].local_store)
        )
        assert result.counters["cell.dma.transactions"] == (
            STEPS * device.n_spes * per_spe
        )

    def test_vm_mode_charges_vm_counters(self):
        _device, _obs, result = observed_run("cell-1spe-vm")
        assert result.counters["vm.segments"] > 0
        assert result.counters["vm.branch.interacting_fraction.samples"] > 0


class TestGpuLanes:
    def test_one_lane_per_pipeline(self):
        device, obs, _result = observed_run("gpu-7900gtx")
        lanes = obs.tracer.lanes
        assert "pcie" in lanes and "host" in lanes
        for i in range(device.pipelines.n_pipelines):
            assert f"pipe{i}" in lanes

    def test_shader_pass_accounting(self):
        _device, _obs, result = observed_run("gpu-7900gtx")
        n = CONFIG.n_atoms
        assert result.counters["gpu.shader.passes"] == STEPS
        assert result.counters["gpu.shader.invocations"] == STEPS * n
        assert result.counters["gpu.shader.pair_trips"] == STEPS * n * n

    def test_nextgen_uses_single_gpu_lane(self):
        _device, obs, result = observed_run("gpu-nextgen")
        lanes = obs.tracer.lanes
        assert "gpu" in lanes and "pcie" in lanes
        assert not any(lane.startswith("pipe") for lane in lanes)
        assert result.counters["gpu.shader.issues"] > 0


class TestMtaLanes:
    def test_fully_multithreaded_charges_fullempty_chain(self):
        _device, _obs, result = observed_run("mta2-fully")
        assert result.counters["mta.fullempty.updates"] == (
            STEPS * CONFIG.n_atoms
        )
        assert result.counters["mta.issues.total"] == pytest.approx(
            result.counters["mta.issues.parallel"]
            + result.counters["mta.issues.serial"]
        )

    def test_partially_multithreaded_serializes_the_pair_loop(self):
        _device, _obs, result = observed_run("mta2-partially")
        assert "mta.fullempty.updates" not in result.counters
        # the refused loop dominates: serial issues dwarf parallel ones
        assert (result.counters["mta.issues.serial"]
                > result.counters["mta.issues.parallel"])

    def test_utilization_samples_land_in_the_trace(self):
        _device, obs, _result = observed_run("mta2-fully")
        assert any(
            s.name == "mta.stream.utilization" for s in obs.tracer.samples
        )

    def test_xmt_uses_aggregate_stream_lane(self):
        _device, obs, result = observed_run("xmt-8p")
        assert "streams" in obs.tracer.lanes
        assert result.counters["mta.streams.slots"] > 0


class TestOpteron:
    def test_cache_counters_scale_to_the_workload(self):
        _device, _obs, result = observed_run("opteron")
        assert result.counters["opteron.cache.l1_accesses"] > 0
        assert (result.counters["opteron.cache.l1_hits"]
                <= result.counters["opteron.cache.l1_accesses"])
        assert result.counters["opteron.kernel.cycles"] > 0
