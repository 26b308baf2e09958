"""The trajectory memo under ``Device._run`` against the live loop.

A plain fast-mode run takes its physics from the process-wide
:func:`repro.arch.device._trajectory` memo and prices it per device.  A
run under a zero-rate fault plan steps a live ``MDSimulation`` and is
documented as bit-identical to a plain run, so it is the oracle here:
the first (miss) and second (hit) memoised runs must equal it bit for
bit, and observed hit runs must charge the same counters and lay out
the same spans as observed live runs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.arch import device as device_module
from repro.cell.device import CellDevice, PPEOnlyDevice
from repro.cell.scheduler import LaunchStrategy
from repro.faults.plan import FaultPlan
from repro.gpu.device import GpuDevice
from repro.gpu.nextgen import NextGenGpuDevice
from repro.md.simulation import MDConfig
from repro.mta.device import MTADevice
from repro.mta.xmt import XMTDevice
from repro.obs.observe import Observation
from repro.opteron.device import OpteronDevice
from repro.tune.context import applied

CONFIG = MDConfig(n_atoms=256)
STEPS = 3

#: The functional force path runs the dense scan below three
#: list-radius-wide cells per box side and the pair list from there on
#: (512 atoms and up at the default density and cutoff); the memo must
#: match the live loop on both branches.
BRANCH_CONFIGS = {
    "dense": CONFIG,
    "list": MDConfig(n_atoms=1024),
}

MODELS = {
    "opteron": lambda **kw: OpteronDevice(**kw),
    "cell-1spe": lambda **kw: CellDevice(n_spes=1, **kw),
    "cell-8spe": lambda **kw: CellDevice(n_spes=8, **kw),
    "cell-8spe-respawn": lambda **kw: CellDevice(
        n_spes=8, strategy=LaunchStrategy.RESPAWN_PER_STEP, **kw
    ),
    "ppe-only": lambda **kw: PPEOnlyDevice(**kw),
    "gpu": lambda **kw: GpuDevice(**kw),
    "gpu-nextgen": lambda **kw: NextGenGpuDevice(**kw),
    "mta": lambda **kw: MTADevice(**kw),
    "xmt": lambda **kw: XMTDevice(**kw),
}


def make(name: str, **kwargs):
    return MODELS[name](**kwargs)


def fingerprint(result) -> tuple:
    """Every simulated output of a run, floats as hex and arrays as bytes."""

    def hexed(value):
        return float(value).hex() if isinstance(value, float) else value

    return (
        tuple(s.hex() for s in result.step_seconds),
        tuple(
            tuple((k, v.hex()) for k, v in parts.items())
            for parts in result.step_breakdowns
        ),
        tuple(
            tuple(hexed(getattr(r, f)) for f in (
                "step", "time", "kinetic_energy", "potential_energy",
                "interacting_pairs",
            ))
            for r in result.records
        ),
        result.final_positions.dtype.str,
        result.final_positions.tobytes(),
        result.final_velocities.tobytes(),
    )


def spans(obs: Observation) -> set[tuple]:
    return {
        (s.name, s.lane, s.start_s.hex(), s.duration_s.hex(),
         tuple(sorted(s.args.items())))
        for s in obs.tracer.spans
    }


@pytest.fixture(autouse=True)
def fresh_memo():
    device_module._trajectory.cache_clear()
    yield
    device_module._trajectory.cache_clear()


@pytest.mark.parametrize("branch", sorted(BRANCH_CONFIGS))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_miss_and_hit_equal_the_live_run(name, branch):
    config = BRANCH_CONFIGS[branch]
    live = make(name).run(config, STEPS, faults=FaultPlan.none())
    before = device_module._trajectory.cache_info()
    miss = make(name).run(config, STEPS)
    middle = device_module._trajectory.cache_info()
    hit = make(name).run(config, STEPS)
    after = device_module._trajectory.cache_info()
    assert middle.misses == before.misses + 1
    assert after.hits == middle.hits + 1
    assert fingerprint(miss) == fingerprint(live)
    assert fingerprint(hit) == fingerprint(live)


def test_step_count_is_part_of_the_key():
    short = make("opteron").run(CONFIG, STEPS)
    longer = make("opteron").run(CONFIG, STEPS + 1)
    info = device_module._trajectory.cache_info()
    assert (info.misses, info.hits) == (2, 0)
    assert len(longer.records) == len(short.records) + 1
    # the longer trajectory starts as the shorter one does
    assert fingerprint(longer)[2][: len(short.records)] == fingerprint(short)[2]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_no_device_takes_a_force_path(name):
    # every device runs the one functional force path: no constructor
    # offers another
    with pytest.raises(TypeError, match="force_path"):
        make(name, force_path="all-pairs")


@pytest.mark.parametrize("name", sorted(MODELS))
def test_observed_hit_matches_observed_live_run(name):
    live_obs = Observation(name)
    live = make(name).run(
        CONFIG, STEPS, faults=FaultPlan.none(), observe=live_obs
    )
    make(name).run(CONFIG, STEPS)  # fill the memo
    hit_obs = Observation(name)
    hit = make(name).run(CONFIG, STEPS, observe=hit_obs)
    assert device_module._trajectory.cache_info().hits == 1
    assert hit.counters == live.counters
    assert spans(hit_obs) == spans(live_obs)


def test_results_never_alias_the_memo():
    first = make("gpu").run(CONFIG, STEPS)
    positions = first.final_positions.copy()
    velocities = first.final_velocities.copy()
    first.final_positions[:] = 0.0
    first.final_velocities[:] += 1.0
    second = make("gpu").run(CONFIG, STEPS)
    assert device_module._trajectory.cache_info().hits == 1
    assert second.final_positions.tobytes() == positions.tobytes()
    assert second.final_velocities.tobytes() == velocities.tobytes()
    # what the memo itself holds cannot be written through
    _, memo_positions, memo_velocities = device_module._trajectory(
        dataclasses.replace(CONFIG, dtype="float32"), STEPS
    )
    assert device_module._trajectory.cache_info().hits == 2
    assert not memo_positions.flags.writeable
    assert not memo_velocities.flags.writeable


def test_a_tuned_run_reuses_the_untuned_trajectory():
    # knobs move only the simulated clock, so the tuned run is a memo hit
    untuned = make("cell-8spe").run(CONFIG, STEPS)
    with applied({"cell/cell.partition": "cyclic"}):
        tuned = make("cell-8spe").run(CONFIG, STEPS)
    info = device_module._trajectory.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert fingerprint(tuned)[2:] == fingerprint(untuned)[2:]


class _OverriddenBackend(OpteronDevice):
    def force_backend(self, sim_box, potential):
        return super().force_backend(sim_box, potential)


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(
            lambda: CellDevice(n_spes=1, mode="vm").run(CONFIG, 1), id="cell-vm"
        ),
        pytest.param(lambda: GpuDevice(mode="vm").run(CONFIG, 1), id="gpu-vm"),
        pytest.param(
            lambda: OpteronDevice().run(CONFIG, STEPS, faults=FaultPlan.none()),
            id="fault-session",
        ),
        pytest.param(
            lambda: _OverriddenBackend().run(CONFIG, STEPS),
            id="overridden-force-backend",
        ),
    ],
)
def test_live_paths_never_reach_the_memo(run, monkeypatch):
    calls = []
    memo = device_module._trajectory

    def counting(*args):
        calls.append(args)
        return memo(*args)

    monkeypatch.setattr(device_module, "_trajectory", counting)
    result = run()
    assert calls == []
    assert len(result.step_seconds) == result.n_steps
    assert np.isfinite(result.final_positions).all()
    OpteronDevice().run(CONFIG, STEPS)  # the counter does see a plain run
    assert len(calls) == 1
