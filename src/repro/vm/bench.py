"""Kernel-throughput measurement for the VM execution backends.

One shared implementation feeds both the pytest microbenchmarks
(``benchmarks/test_kernel_throughput.py``) and the machine-readable
perf trajectory (``scripts/record_bench.py`` -> ``BENCH_vm.json``), so
the numbers in CI artifacts and local runs come from the same code.

The measured quantity is *pairs per second through the VM executor*:
``Machine.run_segment`` on a prepared pair batch, which isolates the
execution backend from the driver-side batch materialization (building
``xi``/``xj`` is identical work under either backend).  The batch is
sized like an SPE-resident tile (1024 pairs) — the regime the paper's
kernels actually run in — rather than a whole-sweep mega-batch, where
any executor is memory-bandwidth-bound.  Every kernel is measured
under both backends on identical inputs; since the backends are
bit-identical (see ``tests/vm/test_compile.py``), any throughput
difference is pure executor speed.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable

import numpy as np

from repro.cell.kernels import (
    OPT_LEVELS,
    build_spe_kernel,
    build_spe_timestep_kernel,
    kernel_constants,
    timestep_constants,
)
from repro.gpu.kernels import build_md_shader, shader_constants
from repro.md.lj import LennardJones
from repro.vm.machine import Machine
from repro.vm.sweep import input_registers

__all__ = [
    "EnsembleBench",
    "KernelBench",
    "bench_ensemble",
    "bench_kernels",
    "default_kernels",
    "ensemble_speedups",
    "speedups",
    "timestep_env",
]

BOX_LENGTH = 8.0

#: Kernel ids: the fig5 optimization ladder plus the GPU pair shader.
SPE_KERNELS = tuple(f"spe:{level}" for level in OPT_LEVELS)
GPU_KERNELS = ("gpu:md_shader",)


def default_kernels() -> tuple[str, ...]:
    return SPE_KERNELS + GPU_KERNELS


@dataclasses.dataclass(frozen=True)
class KernelBench:
    """One (kernel, backend) measurement."""

    kernel: str
    backend: str
    pairs: int
    repeats: int
    best_seconds: float

    @property
    def pairs_per_second(self) -> float:
        return self.pairs / self.best_seconds

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "backend": self.backend,
            "pairs": self.pairs,
            "repeats": self.repeats,
            "best_seconds": self.best_seconds,
            "pairs_per_second": self.pairs_per_second,
        }


def _make_runner(kernel: str, backend: str, batch: int):
    """A zero-argument callable executing one pair segment of ``batch`` pairs."""
    potential = LennardJones()
    if kernel.startswith("spe:"):
        level = kernel.split(":", 1)[1]
        program = build_spe_kernel(level, box_length=BOX_LENGTH)
        constants = kernel_constants(potential)
    elif kernel == "gpu:md_shader":
        program = build_md_shader(box_length=BOX_LENGTH).program
        constants = shader_constants(potential, BOX_LENGTH)
    else:
        raise ValueError(f"unknown benchmark kernel {kernel!r}")
    machine = Machine(width=4, dtype=np.float32, exec_backend=backend)
    rng = np.random.default_rng(0)
    xi = rng.uniform(0.0, BOX_LENGTH, size=(batch, 3)).astype(np.float32)
    xj = rng.uniform(0.0, BOX_LENGTH, size=(batch, 3)).astype(np.float32)
    env = {"xi": machine.load_vec3(xi), "xj": machine.load_vec3(xj)}
    env.update(input_registers(machine, program, batch, constants))

    def run():
        # Fresh dict per call (interp writes every register into it);
        # the arrays themselves are shared — neither backend mutates
        # its inputs in place.
        return machine.run_segment(program, "pair", dict(env))

    return run


def bench_kernels(
    kernels: Iterable[str] | None = None,
    backends: Iterable[str] = ("interp", "fused"),
    batch: int = 1024,
    repeats: int = 3,
) -> list[KernelBench]:
    """Best-of-``repeats`` wall time per (kernel, backend), same inputs.

    The first (untimed) call absorbs one-time costs — segment
    compilation, buffer-pool population — so the steady state is what
    gets measured, mirroring how the drivers amortize those costs over
    a sweep.
    """
    results = []
    for kernel in kernels if kernels is not None else default_kernels():
        for backend in backends:
            run = _make_runner(kernel, backend, batch)
            run()  # warm-up: compile + allocate outside the timed region
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                run()
                best = min(best, time.perf_counter() - start)
            results.append(KernelBench(
                kernel=kernel,
                backend=backend,
                pairs=batch,
                repeats=repeats,
                best_seconds=best,
            ))
    return results


@dataclasses.dataclass(frozen=True)
class EnsembleBench:
    """One (replica count, execution mode) whole-timestep measurement."""

    mode: str  # "fused-sequential" | "fused-batched"
    replicas: int
    rows_per_replica: int
    repeats: int
    best_seconds: float

    @property
    def replicas_per_second(self) -> float:
        return self.replicas / self.best_seconds

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "replicas": self.replicas,
            "rows_per_replica": self.rows_per_replica,
            "repeats": self.repeats,
            "best_seconds": self.best_seconds,
            "replicas_per_second": self.replicas_per_second,
        }


def timestep_env(
    machine: Machine, batch: int, constants: dict[str, float]
) -> dict[str, np.ndarray]:
    """A whole-timestep env: ``batch`` independent dimer-pair rows."""
    rng = np.random.default_rng(1)
    xi = rng.uniform(0.0, BOX_LENGTH, size=(batch, 3)).astype(np.float32)
    xj = (xi + rng.uniform(-1.5, 1.5, size=(batch, 3))).astype(np.float32)
    vi = rng.uniform(-0.1, 0.1, size=(batch, 3)).astype(np.float32)
    env = {
        "xi": machine.load_vec3(xi),
        "xj": machine.load_vec3(xj),
        "vi": machine.load_vec3(vi),
    }
    for name, value in constants.items():
        env[name] = machine.make_register(batch, float(value))
    env["zero"] = machine.make_register(batch, 0.0)
    env["self_flag"] = machine.make_register(batch, 0.0)
    return env


#: Execution modes the ensemble benchmark compares: R single-replica
#: ``run_program`` calls, vs one call over the replica-stacked batch.
#: Both run the same fused whole-program closure, so the ratio measures
#: replica batching alone.
ENSEMBLE_MODES = ("fused-sequential", "fused-batched")

#: The ensemble acceptance bound: fused-batched reaches at least
#: ``ENSEMBLE_MIN_SPEEDUP`` x fused-sequential replicas/sec at every
#: replica count >= ``ENSEMBLE_GATE_REPLICAS``, where the batch is large
#: enough to amortize the dispatch.
ENSEMBLE_GATE_REPLICAS = 8
ENSEMBLE_MIN_SPEEDUP = 2.0


def bench_ensemble(
    replica_counts: Iterable[int] = (1, 2, 4, 8, 16),
    rows_per_replica: int = 256,
    repeats: int = 3,
) -> list[EnsembleBench]:
    """Replicas/sec through one whole SPE timestep, per execution mode.

    Each replica is ``rows_per_replica`` independent dimer systems; the
    batch stacks R replicas along the row axis.  ``fused-sequential``
    is R calls of :meth:`Machine.run_program` with ``replicas=1``, one
    per replica's row slice; ``fused-batched`` runs the whole batch
    through one call.  Outputs are bit-identical
    (``tests/vm/test_fused.py``), so the ratio is pure batching win.
    """
    program = build_spe_timestep_kernel("simd_acceleration", BOX_LENGTH)
    constants = timestep_constants(LennardJones(), dt=0.005)
    results = []
    for replicas in replica_counts:
        batch = replicas * rows_per_replica
        for mode in ENSEMBLE_MODES:
            machine = Machine(width=4, dtype=np.float32)
            env = timestep_env(machine, batch, constants)
            # Fresh dicts per call: outputs rebind names; the input
            # arrays themselves are never mutated.
            if mode == "fused-batched":
                def run():
                    machine.run_program(program, dict(env), replicas=replicas)
            else:
                rows = rows_per_replica
                slices = [
                    {name: reg[i * rows : (i + 1) * rows] for name, reg in env.items()}
                    for i in range(replicas)
                ]

                def run():
                    for sub in slices:
                        machine.run_program(program, dict(sub))

            run()  # warm-up: compile + pool allocation untimed
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                run()
                best = min(best, time.perf_counter() - start)
            results.append(EnsembleBench(
                mode=mode,
                replicas=replicas,
                rows_per_replica=rows_per_replica,
                repeats=repeats,
                best_seconds=best,
            ))
    return results


def ensemble_speedups(results: Iterable[EnsembleBench]) -> dict[int, float]:
    """fused-batched / fused-sequential replicas-per-second, per R."""
    by_key = {(r.replicas, r.mode): r for r in results}
    ratios = {}
    for (replicas, mode), result in by_key.items():
        if mode != "fused-batched":
            continue
        baseline = by_key.get((replicas, "fused-sequential"))
        if baseline is not None:
            ratios[replicas] = (
                result.replicas_per_second / baseline.replicas_per_second
            )
    return ratios


def speedups(results: Iterable[KernelBench]) -> dict[str, float]:
    """fused/interp throughput ratio per kernel (where both ran)."""
    by_key = {(r.kernel, r.backend): r for r in results}
    ratios = {}
    for (kernel, backend), result in by_key.items():
        if backend != "fused":
            continue
        interp = by_key.get((kernel, "interp"))
        if interp is not None:
            ratios[kernel] = result.pairs_per_second / interp.pairs_per_second
    return ratios
