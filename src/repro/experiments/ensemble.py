"""Batched multi-replica ensemble through the fused VM backend.

Ensemble methods (replica exchange, independent-seed sampling) run R
copies of the same kernel over different state.  The fused backend
stacks the R replicas along the VM's batch axis and executes the whole
timestep — every force segment plus integration — as *one* compiled
closure call per step, where running the replicas one by one costs R
calls of the same closure.

The experiment certifies the three claims that make that optimization
safe to use:

* **throughput** — fused-batched execution beats fused-sequential on
  replicas-per-second (the strict ≥2x-at-R≥8 gate lives in
  ``scripts/record_bench.py --ensemble --check`` / ``BENCH_vm2.json``;
  the roster check uses a looser band so a loaded CI box cannot flake
  the whole run),
* **bit-identity** — a batched run of R replicas produces, replica by
  replica, exactly the outputs of R sequential runs, under both
  execution backends,
* **counter additivity** — branch statistics and replica-step counters
  from the batched run merge to exactly the sequential totals, so
  observability never depends on how work was batched.
"""

from __future__ import annotations

import numpy as np

from repro.cell.kernels import build_spe_timestep_kernel, timestep_constants
from repro.experiments.common import ExperimentResult, ShapeCheck
from repro.md.lj import LennardJones
from repro.obs.counters import CounterSet
from repro.vm.bench import (
    BOX_LENGTH,
    bench_ensemble,
    ensemble_speedups,
    timestep_env,
)
from repro.vm.machine import Machine

__all__ = ["DESCRIPTION", "run"]

#: One-line roster description (``--list`` / harness job metadata).
DESCRIPTION = "batched replica ensemble: fused-VM throughput, bit-identity, counters"

#: Every execution backend the differential sweep compares.
_BACKENDS = ("interp", "fused")


def _replica_ladder(replicas: int) -> tuple[int, ...]:
    """1, 2, 4, ... up to (and always including) ``replicas``."""
    ladder = []
    r = 1
    while r < replicas:
        ladder.append(r)
        r *= 2
    ladder.append(replicas)
    return tuple(ladder)


def _vm_counters(machine: Machine) -> CounterSet:
    """The machine's accumulated state as additive ``vm.*`` counters."""
    counters = CounterSet()
    counters.add("vm.programs", machine.programs_run)
    counters.add("vm.replicas", machine.replicas_run)
    for key, stat in machine.branch_stats.items():
        counters.add(f"vm.branch.{key}.samples", stat.count)
        counters.add(f"vm.branch.{key}.taken_mass", stat.total)
    return counters


def run(n_rows: int = 256, replicas: int = 8, repeats: int = 3) -> ExperimentResult:
    """Throughput ladder + differential net at ``replicas`` replicas.

    ``n_rows`` is the dimer-pair batch per replica; the workload is the
    whole SPE timestep program (fully SIMDized force + integration).
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    program = build_spe_timestep_kernel("simd_acceleration", BOX_LENGTH)
    constants = timestep_constants(LennardJones(), dt=0.005)
    ladder = _replica_ladder(replicas)

    # -- throughput ladder ----------------------------------------------
    bench = bench_ensemble(
        replica_counts=ladder, rows_per_replica=n_rows, repeats=repeats
    )
    by_key = {(b.replicas, b.mode): b for b in bench}
    ratios = ensemble_speedups(bench)
    rows = []
    for r in ladder:
        seq = by_key[(r, "fused-sequential")]
        fused = by_key[(r, "fused-batched")]
        rows.append((
            r,
            n_rows,
            round(seq.best_seconds * 1e3, 4),
            round(fused.best_seconds * 1e3, 4),
            round(seq.replicas_per_second, 1),
            round(fused.replicas_per_second, 1),
            round(ratios[r], 3),
        ))

    # -- differential net: batched vs sequential, all backends ----------
    batch = replicas * n_rows
    reference = Machine(width=4, dtype=np.float32)
    base_env = timestep_env(reference, batch, constants)
    fused_out = reference.run_program(program, dict(base_env), replicas=replicas)
    batched_counters = _vm_counters(reference)

    max_deviation = 0.0
    for backend in _BACKENDS:
        machine = Machine(width=4, dtype=np.float32, exec_backend=backend)
        for index in range(replicas):
            sub = {
                name: reg[index * n_rows : (index + 1) * n_rows]
                for name, reg in base_env.items()
            }
            out = machine.run_program(program, dict(sub), replicas=1)
            for name in program.outputs:
                expect = fused_out[name][index * n_rows : (index + 1) * n_rows]
                delta = np.abs(out[name] - expect)
                if delta.size:
                    max_deviation = max(max_deviation, float(delta.max()))

    # -- counter additivity: merge R per-replica windows ----------------
    merged_counters = CounterSet()
    for index in range(replicas):
        sub = {
            name: reg[index * n_rows : (index + 1) * n_rows]
            for name, reg in base_env.items()
        }
        window = Machine(width=4, dtype=np.float32)
        window.run_program(program, dict(sub), replicas=1)
        merged_counters.merge(_vm_counters(window))

    # vm.programs measures dispatches, which batching *reduces* (1 vs R)
    # — it is excluded from the additivity comparison by design.
    counter_mismatch = 0.0
    keys = set(batched_counters.as_dict()) | set(merged_counters.as_dict())
    keys.discard("vm.programs")
    for key in sorted(keys):
        counter_mismatch = max(
            counter_mismatch,
            abs(batched_counters.get(key) - merged_counters.get(key)),
        )

    checks = (
        ShapeCheck(
            key="ensemble_speedup",
            measured=ratios[replicas],
            low=1.2,
            high=1.0e3,
            paper_value=2.0,
            description=f"fused-batched over fused-sequential replicas/sec "
            f"at R={replicas} (strict >=2x gate: BENCH_vm2.json)",
        ),
        ShapeCheck(
            key="ensemble_bit_identity",
            measured=max_deviation,
            low=0.0,
            high=0.0,
            paper_value=0.0,
            description="batched replicas bit-identical to sequential runs "
            "under the interp and fused backends (max |delta|)",
        ),
        ShapeCheck(
            key="ensemble_counter_additivity",
            measured=counter_mismatch,
            low=0.0,
            high=0.0,
            paper_value=0.0,
            description="vm.replicas + vm.branch.* counters of one batched "
            "run merge to exactly the R sequential totals",
        ),
    )
    dispatches = int(batched_counters.get("vm.programs"))
    return ExperimentResult(
        experiment_id="ensemble",
        title=f"batched replica ensemble ({replicas} replicas x {n_rows} "
        f"dimer rows, whole-timestep program)",
        headers=(
            "replicas",
            "rows/replica",
            "seq_ms",
            "fused_ms",
            "seq_rps",
            "fused_rps",
            "speedup",
        ),
        rows=tuple(rows),
        checks=checks,
        notes=(
            "Workload: spe_md_timestep_simd_acceleration — pair forces + "
            "integration fused into one closure, no per-segment dispatch.",
            f"The batched run used {dispatches} program dispatch(es) where "
            f"sequential execution uses {replicas}; vm.programs records the "
            "reduction and is excluded from the additivity check.",
        ),
    )


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
