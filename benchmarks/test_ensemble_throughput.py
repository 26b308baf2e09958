"""Batched-replica ensemble throughput: fused-batched vs fused-sequential.

The acceptance gate for replica batching: running R replicas through
one call of the whole-timestep closure must beat R single-replica calls
of the same closure by >= 2x replicas-per-second once the ensemble is
large enough to amortize the dispatch (R >= 8).  Uses the same measurement that writes
BENCH_vm2.json (``scripts/record_bench.py --ensemble``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cell.kernels import build_spe_timestep_kernel, timestep_constants
from repro.md.lj import LennardJones
from repro.vm.bench import (
    BOX_LENGTH,
    ENSEMBLE_GATE_REPLICAS,
    ENSEMBLE_MIN_SPEEDUP,
    bench_ensemble,
    ensemble_speedups,
    timestep_env,
)
from repro.vm.machine import Machine


def test_fused_batched_speedup_at_gate_replicas():
    """Acceptance gate: >= 2x replicas/sec for fused-batched at R >= 8."""
    results = bench_ensemble(
        replica_counts=(ENSEMBLE_GATE_REPLICAS,), rows_per_replica=256, repeats=5
    )
    ratios = ensemble_speedups(results)
    assert set(ratios) == {ENSEMBLE_GATE_REPLICAS}
    ratio = ratios[ENSEMBLE_GATE_REPLICAS]
    assert ratio >= ENSEMBLE_MIN_SPEEDUP, (
        f"fused-batched only {ratio:.2f}x fused-sequential replicas/sec "
        f"at R={ENSEMBLE_GATE_REPLICAS} (required >= {ENSEMBLE_MIN_SPEEDUP:.2f}x)"
    )


@pytest.mark.parametrize("backend", ["interp", "fused"])
def test_bench_whole_timestep_replicas(benchmark, backend):
    """pytest-benchmark statistics for one R=8 whole-timestep batch."""
    replicas, rows = 8, 256
    program = build_spe_timestep_kernel("simd_acceleration", BOX_LENGTH)
    constants = timestep_constants(LennardJones(), dt=0.005)
    machine = Machine(width=4, dtype=np.float32, exec_backend=backend)
    env = timestep_env(machine, replicas * rows, constants)

    def run():
        return machine.run_program(program, dict(env), replicas=replicas)

    out = benchmark(run)
    assert np.isfinite(out["xi_out"]).all()
