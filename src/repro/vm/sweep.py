"""The pair-sweep driver shared by the SPE kernels and the GPU shader.

Both ports in the paper (sections 5.1 and 5.2) run one formulation:
each output atom ``i`` scans *all* N partners ``j``, with x, y, z in
the first three lanes of a 4-wide register.  :class:`PairSweep`
materializes the (i, j) pair batch for a block of output rows, runs the
program's ``pair`` segment over it, and sums each row's contributions
(on the GPU, the sum the shader's single-output loop accumulates).

The register contract is read from the program:

* ``xi``/``xj`` hold the two positions of each pair;
* ``self_flag`` (1.0 on i == j lanes), ``zero`` (0.0) and ``tiny``
  (1e-12) are filled by the sweep, when the program declares them;
* every other declared input comes from the caller's ``constants``;
* ``acc_out`` lanes 0-2 carry the pair acceleration; the PE
  contribution is ``pe_out`` lane 0 when declared, else ``acc_out``
  lane 3 (the GPU's one-output-array trick).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.vm.machine import Machine
from repro.vm.program import Program

__all__ = ["DRIVER_REGISTERS", "PairSweep", "input_registers"]

#: Inputs the sweep fills itself when a program declares them.
DRIVER_REGISTERS = {"self_flag": 0.0, "zero": 0.0, "tiny": 1.0e-12}


def input_registers(
    machine: Machine,
    program: Program,
    batch: int,
    constants: Mapping[str, float],
) -> dict[str, np.ndarray]:
    """A ``(batch, width)`` register for every declared input of
    ``program`` except ``xi``/``xj``: :data:`DRIVER_REGISTERS` first,
    then ``constants``.  A declared input neither fills raises."""
    registers = {}
    for name in program.inputs:
        if name in ("xi", "xj"):
            continue
        if name in DRIVER_REGISTERS:
            value = DRIVER_REGISTERS[name]
        elif name in constants:
            value = constants[name]
        else:
            raise ValueError(
                f"program {program.name!r} declares input {name!r}, "
                "which neither the sweep nor the constants fill"
            )
        registers[name] = machine.make_register(batch, float(value))
    return registers


class PairSweep:
    """Functional execution of a per-pair kernel over a set of output rows.

    Arithmetic is float32 throughout, as on hardware.  Runs on the
    default ``fused`` VM backend; pass ``exec_backend="interp"`` for the
    reference interpreter.  Input registers are built once per batch
    size and reused across row blocks.
    """

    def __init__(self, program: Program, exec_backend: str = "fused") -> None:
        self.program = program
        self.machine = Machine(width=4, dtype=np.float32, exec_backend=exec_backend)
        self._pe_register, self._pe_lane = (
            ("pe_out", 0) if "pe_out" in program.outputs else ("acc_out", 3)
        )
        self._env_cache: dict[int, dict[str, np.ndarray]] = {}
        self._env_constants: tuple | None = None

    def _block_env(
        self, batch: int, constants: Mapping[str, float]
    ) -> dict[str, np.ndarray]:
        """Input registers for ``batch``, cached.

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
            cached = input_registers(self.machine, self.program, batch, constants)
            if len(self._env_cache) > 8:
                self._env_cache.clear()
            self._env_cache[batch] = cached
        return cached

    def run(
        self,
        positions: np.ndarray,
        constants: Mapping[str, float],
        rows: np.ndarray | None = None,
        row_block: int = 128,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Returns (accelerations[rows], pe_contribution[rows]).

        ``rows`` defaults to every atom.  ``row_block`` output rows are
        materialized per dispatch; every pair contributes exactly once,
        so results are bit-identical across block sizes.
        """
        positions32 = np.asarray(positions, dtype=np.float32)
        n = positions32.shape[0]
        rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
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
            self_rows = np.repeat(block, n) == np.tile(np.arange(n), block.size)
            xj[self_rows, 0] += 1.0e3
            env: dict[str, np.ndarray] = {
                "xi": machine.load_vec3(xi),
                "xj": machine.load_vec3(xj),
            }
            env.update(self._block_env(xi.shape[0], constants))
            self_flag = env.get("self_flag")
            if self_flag is not None:
                self_flag.fill(0.0)
                self_flag[self_rows] = 1.0

            machine.run_segment(self.program, "pair", env)

            stop = start + block.size
            fvec = env["acc_out"].reshape(block.size, n, machine.width)
            acc[start:stop] = fvec[:, :, :3].sum(axis=1, dtype=np.float32)
            pe_pair = env[self._pe_register].reshape(block.size, n, machine.width)
            pe[start:stop] = pe_pair[:, :, self._pe_lane].sum(
                axis=1, dtype=np.float32
            )
        return acc, pe
