"""Counter additivity across the replica batch axis.

The observability contract for batched execution: how work was batched
must never change what the counters say about it.  A fused R-replica
``run_program`` call charges exactly what R sequential single-replica
runs charge — ``vm.replicas`` and every ``vm.branch.*`` stat merge to
identical totals.  The one deliberate exception is ``vm.programs``,
which counts *dispatches*: batching exists to reduce it (1 vs R), so
it is excluded from the additivity property and pinned by its own
directed test instead.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell.kernels import build_spe_timestep_kernel, timestep_constants
from repro.experiments.ensemble import _vm_counters
from repro.md.lj import LennardJones
from repro.obs.counters import CounterSet, spec_for
from repro.vm.machine import EXEC_BACKENDS, Machine

BOX_LENGTH = 8.0
PROGRAM = build_spe_timestep_kernel("simd_acceleration", BOX_LENGTH)
CONSTANTS = timestep_constants(LennardJones(), dt=0.005)


def _timestep_env(machine: Machine, batch: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    xi = rng.uniform(0.0, BOX_LENGTH, size=(batch, 3)).astype(np.float32)
    xj = (xi + rng.uniform(-1.5, 1.5, size=(batch, 3))).astype(np.float32)
    vi = rng.uniform(-0.1, 0.1, size=(batch, 3)).astype(np.float32)
    env = {
        "xi": machine.load_vec3(xi),
        "xj": machine.load_vec3(xj),
        "vi": machine.load_vec3(vi),
    }
    for name, value in CONSTANTS.items():
        env[name] = machine.make_register(batch, float(value))
    env["zero"] = machine.make_register(batch, 0.0)
    env["self_flag"] = machine.make_register(batch, 0.0)
    return env


class TestRegistry:
    def test_replica_counters_are_registered_and_exact(self):
        assert spec_for("vm.programs").exact
        assert spec_for("vm.replicas").exact
        assert spec_for("vm.programs").device == "vm"
        assert spec_for("vm.replicas").device == "vm"


class TestBatchedAdditivity:
    @given(
        replicas=st.integers(1, 5),
        rows=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        backend=st.sampled_from(EXEC_BACKENDS),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_counters_merge_to_sequential_totals(
        self, replicas, rows, seed, backend
    ):
        batch = replicas * rows

        batched = Machine(width=4, dtype=np.float32, exec_backend=backend)
        env = _timestep_env(batched, batch, seed)
        base = {name: reg.copy() for name, reg in env.items()}
        batched.run_program(PROGRAM, env, replicas=replicas)
        batched_counters = _vm_counters(batched)

        merged = CounterSet()
        for index in range(replicas):
            window = Machine(width=4, dtype=np.float32, exec_backend=backend)
            sub = {
                name: reg[index * rows : (index + 1) * rows].copy()
                for name, reg in base.items()
            }
            window.run_program(PROGRAM, sub, replicas=1)
            merged.merge(_vm_counters(window))

        keys = set(batched_counters.as_dict()) | set(merged.as_dict())
        keys.discard("vm.programs")  # dispatches: reduced by design
        assert keys, "expected vm.replicas and vm.branch.* counters"
        for key in sorted(keys):
            assert batched_counters.get(key) == merged.get(key), (
                f"{key}: batched {batched_counters.get(key)!r} != "
                f"merged sequential {merged.get(key)!r}"
            )

    @given(replicas=st.integers(1, 5), seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_vm_programs_counts_dispatches_not_replicas(self, replicas, seed):
        """The counter batching exists to reduce: 1 dispatch vs R."""
        machine = Machine(width=4, dtype=np.float32, exec_backend="fused")
        env = _timestep_env(machine, replicas * 2, seed)
        machine.run_program(PROGRAM, env, replicas=replicas)
        counters = _vm_counters(machine)
        assert counters.get("vm.programs") == 1.0
        assert counters.get("vm.replicas") == float(replicas)

    def test_counterset_merge_is_associative_over_windows(self):
        """Merging windows pairwise or all-at-once gives the same totals."""
        windows = []
        for index in range(4):
            machine = Machine(width=4, dtype=np.float32, exec_backend="fused")
            env = _timestep_env(machine, 3, seed=index)
            machine.run_program(PROGRAM, env, replicas=1)
            windows.append(_vm_counters(machine))

        left = CounterSet()
        for window in windows:
            left.merge(window)
        right_a, right_b = CounterSet(), CounterSet()
        for window in windows[:2]:
            right_a.merge(window)
        for window in windows[2:]:
            right_b.merge(window)
        right_a.merge(right_b)
        assert left.as_dict() == right_a.as_dict()
