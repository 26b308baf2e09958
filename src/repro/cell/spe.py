"""The SPE machine model: cost table, local store, and the pair-kernel driver.

The SPE (section 3.1 of the paper) is a dual-issue in-order core:
arithmetic goes down the *even* pipe, loads/stores/shuffles/branches
down the *odd* pipe, one instruction per pipe per cycle.  There is no
branch prediction (taken branches flush ~18 cycles) and no FP
divide/sqrt hardware — kernels use reciprocal/rsqrt estimates plus
Newton refinement.  Latencies below are the published SPU figures
(Flachs et al., IEEE JSSC 41(1), cited as [13] by the paper).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.arch import calibration as cal
from repro.arch.clock import Clock
from repro.arch.memory import LocalStore
from repro.vm.isa import EVEN, ODD, CostTable, OpCost
from repro.vm.machine import Machine
from repro.vm.program import Program
from repro.vm.schedule import estimate_cycles

__all__ = ["SPE_COST_TABLE", "SPE", "SpePairSweep"]

#: SPU instruction costs: (latency, pipe).  Single-precision FP is the
#: 6-cycle fully-pipelined FPU; estimates are 4-cycle lookups; the
#: interpolate step is 7 cycles; loads/stores hit the fixed-latency
#: local store in 6 cycles; shuffles/rotates are 4-cycle odd-pipe ops.
SPE_COST_TABLE = CostTable(
    name="spe",
    issue_width=2,
    costs={
        "fa": OpCost(6, EVEN),
        "fs": OpCost(6, EVEN),
        "fm": OpCost(6, EVEN),
        "fma": OpCost(6, EVEN),
        "fms": OpCost(6, EVEN),
        "fnms": OpCost(6, EVEN),
        "frest": OpCost(4, EVEN),
        "frsqest": OpCost(4, EVEN),
        "fi": OpCost(7, EVEN),
        "fabs": OpCost(2, EVEN),
        "fneg": OpCost(2, EVEN),
        "fmin": OpCost(2, EVEN),
        "fmax": OpCost(2, EVEN),
        "fround": OpCost(8, EVEN),  # no native round: synthesized
        "cpsgn": OpCost(2, EVEN),
        "fcgt": OpCost(2, EVEN),
        "fclt": OpCost(2, EVEN),
        "fceq": OpCost(2, EVEN),
        "and_": OpCost(2, EVEN),
        "or_": OpCost(2, EVEN),
        "il": OpCost(2, EVEN),
        "ilv": OpCost(2, EVEN),
        "selb": OpCost(2, ODD),
        "mov": OpCost(2, ODD),
        "splat": OpCost(4, ODD),
        "shufb": OpCost(4, ODD),
        "rotqbyi": OpCost(4, ODD),
        "lqd": OpCost(6, ODD),
        "stqd": OpCost(6, ODD),
    },
)


@dataclasses.dataclass
class SPE:
    """One Synergistic Processing Element."""

    index: int
    clock: Clock = dataclasses.field(
        default_factory=lambda: Clock(cal.SPE_CLOCK_HZ, "spe")
    )
    local_store: LocalStore = dataclasses.field(
        default_factory=lambda: LocalStore(
            capacity_bytes=cal.SPE_LOCAL_STORE_BYTES,
            reserved_bytes=cal.SPE_LOCAL_STORE_RESERVED_BYTES,
        )
    )

    def kernel_seconds(self, program: Program, metrics: dict[str, float]) -> float:
        """Simulated seconds for this SPE to execute ``program``."""
        report = estimate_cycles(program, SPE_COST_TABLE, metrics)
        return self.clock.seconds(report.total_cycles)


class SpePairSweep:
    """Functional execution of a per-pair SPE kernel over an atom range.

    Models one SPE thread's job: for each atom ``i`` in ``rows``, scan
    *all* atoms ``j != i`` (the paper's kernel checks all N-1 partners),
    accumulating the acceleration of atom ``i`` and the per-atom PE
    contribution.  Arithmetic is float32 throughout, as on hardware.

    Runs on the default ``fused`` VM backend (the sweep only reads the
    kernel's declared outputs, so the interpreter's full-env
    side-effects buy nothing here); pass ``exec_backend="interp"`` for
    the reference interpreter.  Constant registers, ``zero``,
    and the ``self_flag`` buffer are built once per batch size and
    reused across row blocks instead of being re-materialized as fresh
    ``(batch, width)`` arrays for every block.
    """

    def __init__(
        self,
        program: Program,
        width: int = 4,
        exec_backend: str = "fused",
    ) -> None:
        self.program = program
        self.machine = Machine(
            width=width, dtype=np.float32, exec_backend=exec_backend
        )
        self._env_cache: dict[int, dict[str, np.ndarray]] = {}
        self._env_constants: tuple | None = None

    def _block_env(self, batch: int, constants: dict[str, float]) -> dict[str, np.ndarray]:
        """Constant/zero/self_flag registers for ``batch``, cached.

        The returned dict is the cache entry itself — callers copy it
        into a fresh env (cheap; the arrays are shared) and may mutate
        only ``self_flag``, which is re-zeroed on every block.
        """
        key = tuple(sorted(constants.items()))
        if key != self._env_constants:
            self._env_cache.clear()
            self._env_constants = key
        cached = self._env_cache.get(batch)
        if cached is None:
            machine = self.machine
            cached = {
                name: machine.make_register(batch, float(value))
                for name, value in constants.items()
            }
            cached["zero"] = machine.make_register(batch, 0.0)
            cached["self_flag"] = machine.make_register(batch, 0.0)
            if len(self._env_cache) > 8:
                self._env_cache.clear()
            self._env_cache[batch] = cached
        return cached

    def run(
        self,
        positions: np.ndarray,
        rows: np.ndarray,
        constants: dict[str, float],
        row_block: int = 128,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Returns (accelerations[rows], pe_contribution[rows])."""
        positions32 = np.asarray(positions, dtype=np.float32)
        n = positions32.shape[0]
        rows = np.asarray(rows, dtype=np.intp)
        acc = np.zeros((rows.size, 3), dtype=np.float32)
        pe = np.zeros(rows.size, dtype=np.float32)
        machine = self.machine

        for start in range(0, rows.size, row_block):
            block = rows[start : start + row_block]
            # batch = (block rows) x (all j): flatten to pairs
            xi = np.repeat(positions32[block], n, axis=0)
            xj = np.tile(positions32, (block.size, 1))
            # Displace self-pairs far outside the cutoff so the rsqrt
            # estimate never sees r2 == 0 (they are excluded by
            # self_flag regardless; this only silences inf/nan lanes).
            j_index = np.tile(np.arange(n), block.size)
            i_index = np.repeat(block, n)
            self_rows = i_index == j_index
            xj[self_rows, 0] += 1.0e3
            env: dict[str, np.ndarray] = {
                "xi": machine.load_vec3(xi),
                "xj": machine.load_vec3(xj),
            }
            batch = env["xi"].shape[0]
            env.update(self._block_env(batch, constants))
            self_flag = env["self_flag"]
            self_flag.fill(0.0)
            self_flag[self_rows] = 1.0

            machine.run_segment(self.program, "pair", env)

            fvec = env["acc_out"].reshape(block.size, n, machine.width)
            pe_pair = env["pe_out"].reshape(block.size, n, machine.width)
            acc[start : start + block.size] = fvec[:, :, :3].sum(
                axis=1, dtype=np.float32
            )
            pe[start : start + block.size] = pe_pair[:, :, 0].sum(
                axis=1, dtype=np.float32
            )
        return acc, pe

    def run_replicas(
        self,
        positions: np.ndarray,
        rows: np.ndarray,
        constants: dict[str, float],
        row_block: int = 128,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched multi-replica sweep: R position sets, one VM program run.

        ``positions`` is (R, n, 3) — R independent replicas (different
        seeds/temperatures; the box and potential are shared, since the
        SPE kernels bake the box length into their reflection
        immediates).  Replica r occupies rows ``r*B .. (r+1)*B-1`` of
        the pair batch, so under the ``fused`` backend all replicas
        execute through one closure call per block; ``interp`` falls
        back to a per-replica loop inside :meth:`Machine.run_program`
        with bit-identical results.  Returns ``(acc (R, rows, 3),
        pe (R, rows))``, each replica's slice bit-identical to a
        single-replica :meth:`run`.
        """
        positions32 = np.asarray(positions, dtype=np.float32)
        if positions32.ndim != 3:
            raise ValueError(
                f"expected (replicas, n, 3) positions, got {positions32.shape}"
            )
        replicas, n, _ = positions32.shape
        rows = np.asarray(rows, dtype=np.intp)
        acc = np.zeros((replicas, rows.size, 3), dtype=np.float32)
        pe = np.zeros((replicas, rows.size), dtype=np.float32)
        machine = self.machine

        for start in range(0, rows.size, row_block):
            block = rows[start : start + row_block]
            # Per replica: (block rows) x (all j) pairs; replicas stack
            # along the row axis in replica order.
            xi = np.concatenate(
                [np.repeat(positions32[r, block], n, axis=0) for r in range(replicas)]
            )
            xj = np.concatenate(
                [np.tile(positions32[r], (block.size, 1)) for r in range(replicas)]
            )
            j_index = np.tile(np.arange(n), block.size)
            i_index = np.repeat(block, n)
            self_rows = np.tile(i_index == j_index, replicas)
            xj[self_rows, 0] += 1.0e3
            env: dict[str, np.ndarray] = {
                "xi": machine.load_vec3(xi),
                "xj": machine.load_vec3(xj),
            }
            batch = env["xi"].shape[0]
            env.update(self._block_env(batch, constants))
            self_flag = env["self_flag"]
            self_flag.fill(0.0)
            self_flag[self_rows] = 1.0

            machine.run_program(self.program, env, replicas=replicas)

            fvec = env["acc_out"].reshape(replicas, block.size, n, machine.width)
            pe_pair = env["pe_out"].reshape(replicas, block.size, n, machine.width)
            acc[:, start : start + block.size] = fvec[:, :, :, :3].sum(
                axis=2, dtype=np.float32
            )
            pe[:, start : start + block.size] = pe_pair[:, :, :, 0].sum(
                axis=2, dtype=np.float32
            )
        return acc, pe
