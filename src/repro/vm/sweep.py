"""The pair-sweep driver shared by the SPE kernels and the GPU shader.

Both ports in the paper (sections 5.1 and 5.2) run one formulation:
each output atom ``i`` scans *all* N partners ``j``, with x, y, z in
the first three lanes of a 4-wide register.  :class:`PairSweep`
materializes the (i, j) pairs of a block of output rows, chunk by
cache-sized chunk, runs the program's ``pair`` segment over each chunk,
and sums each row's contributions (on the GPU, the sum the shader's
single-output loop accumulates).

The register contract is read from the program:

* ``xi``/``xj`` hold the two positions of each pair;
* ``self_flag`` (1.0 on i == j lanes), ``zero`` (0.0) and ``tiny``
  (1e-12) are filled by the sweep, when the program declares them;
* every other declared input comes from the caller's ``constants``;
* ``acc_out`` lanes 0-2 carry the pair acceleration; the PE
  contribution is ``pe_out`` lane 0 when declared, else ``acc_out``
  lane 3 (the GPU's one-output-array trick).

Every input but ``xi``/``xj`` holds one value per row, so the sweep
declares them lane-uniform (:func:`uniform_inputs`) and the fused
backend reads one lane of each.  :meth:`PairSweep.run` fills ``xi`` per
chunk but ``xj`` once per chunk size: every chunk of a size sees the
same ``xj`` but for its self lanes, so a chunk restores the previous
chunk's self lanes and displaces only its own.  The closure writes each
chunk's outputs in place into the block's registers.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.vm.machine import Machine
from repro.vm.program import Program

__all__ = [
    "CHUNK_PAIRS",
    "DRIVER_REGISTERS",
    "PairSweep",
    "input_registers",
    "uniform_inputs",
]

#: Inputs the sweep fills itself when a program declares them.
DRIVER_REGISTERS = {"self_flag": 0.0, "zero": 0.0, "tiny": 1.0e-12}

#: Pairs per executed chunk: ``max(1, CHUNK_PAIRS // n)`` rows of a
#: block run per segment call.  A 16K-pair register is 256 KB — the
#: size of an SPE's local store, the blocking the Cell port uses — so a
#: kernel's live registers stay near the host's caches instead of
#: streaming 2 MB registers (128 rows x 1024 atoms) through memory.
CHUNK_PAIRS = 16384


def input_registers(
    machine: Machine,
    program: Program,
    batch: int,
    constants: Mapping[str, float],
) -> dict[str, np.ndarray]:
    """A ``(batch, width)`` register for every declared input of
    ``program`` except ``xi``/``xj``: :data:`DRIVER_REGISTERS` first,
    then ``constants``.  A declared input neither fills raises.

    Every lane of a row holds one value, so all of them are lane-uniform
    inputs (:func:`uniform_inputs`), which the fused backend reads
    through their lane-0 column.  The registers are column-major, so
    that column is contiguous.
    """
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
        registers[name] = np.full(
            (batch, machine.width), float(value), dtype=machine.dtype, order="F"
        )
    return registers


def uniform_inputs(program: Program) -> frozenset[str]:
    """The inputs the sweep fills with one value per row: every declared
    input except ``xi``/``xj``, which the fused backend may read as one
    lane (see :mod:`repro.vm.compile`)."""
    return frozenset(name for name in program.inputs if name not in ("xi", "xj"))


class PairSweep:
    """Functional execution of a per-pair kernel over a set of output rows.

    Arithmetic is float32 throughout, as on hardware.  Runs on the
    default ``fused`` VM backend; pass ``exec_backend="interp"`` for the
    reference interpreter.

    Each block of ``row_block`` output rows is the unit of observation:
    one :meth:`Machine.block <repro.vm.machine.Machine.block>`, so one
    branch sample per probe and one fault draw per block.  The block
    executes in chunks of :data:`CHUNK_PAIRS` pairs, whose registers
    stay cache-sized; the chunk size moves no result.  Chunk registers
    are built once per chunk size and refilled in place: ``xi`` per
    chunk, ``xj`` once per chunk size and run (a chunk then only
    restores the previous chunk's self lanes and displaces its own), and
    each chunk's outputs land in place in the block's registers.
    """

    def __init__(self, program: Program, exec_backend: str = "fused") -> None:
        self.program = program
        self.machine = Machine(width=4, dtype=np.float32, exec_backend=exec_backend)
        self._pe_register, self._pe_lane = (
            ("pe_out", 0) if "pe_out" in program.outputs else ("acc_out", 3)
        )
        self._uniform = uniform_inputs(program)
        self._env_cache: dict[int, dict[str, np.ndarray]] = {}
        self._env_constants: tuple | None = None
        #: chunk size -> (run, self lanes, their rows): the lanes its
        #: registers displace and flag, and the run whose positions its
        #: ``xj`` holds
        self._displaced: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}
        self._runs = 0
        self._block_cache: dict[int, dict[str, np.ndarray]] = {}

    def _chunk_env(self, batch: int) -> dict[str, np.ndarray]:
        """Input registers for a ``batch``-pair chunk, cached by size."""
        cached = self._env_cache.get(batch)
        if cached is None:
            machine = self.machine
            cached = {
                "xi": machine.make_register(batch),
                "xj": machine.make_register(batch),
            }
            cached.update(input_registers(
                machine, self.program, batch, dict(self._env_constants)
            ))
            if len(self._env_cache) > 8:
                self._env_cache.clear()
                self._displaced.clear()
            self._env_cache[batch] = cached
        return cached

    def _block_registers(self, batch: int) -> dict[str, np.ndarray]:
        """Block-sized declared output registers, cached by size and
        rewritten by every block's chunks."""
        registers = self._block_cache.get(batch)
        if registers is None:
            if len(self._block_cache) > 8:
                self._block_cache.clear()
            registers = self._block_cache[batch] = {
                name: self.machine.make_register(batch)
                for name in self.program.outputs
            }
        return registers

    def run(
        self,
        positions: np.ndarray,
        constants: Mapping[str, float],
        rows: np.ndarray | None = None,
        row_block: int = 128,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Returns (accelerations[rows], pe_contribution[rows]).

        ``rows`` defaults to every atom.  ``row_block`` output rows form
        one block; every pair contributes exactly once, so forces are
        bit-identical across block sizes (branch samples are per block).
        """
        positions32 = np.asarray(positions, dtype=np.float32)
        n = positions32.shape[0]
        rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
        acc = np.zeros((rows.size, 3), dtype=np.float32)
        pe = np.zeros(rows.size, dtype=np.float32)
        machine = self.machine
        width = machine.width
        program = self.program
        chunk_rows = max(1, CHUNK_PAIRS // max(n, 1))
        key = tuple(sorted(constants.items()))
        if key != self._env_constants:
            self._env_cache.clear()
            self._displaced.clear()
            self._env_constants = key
        self._runs += 1

        for start in range(0, rows.size, row_block):
            block = rows[start : start + row_block]
            outputs = self._block_registers(block.size * n)
            with machine.block(program, outputs):
                for lo in range(0, block.size, chunk_rows):
                    chunk = block[lo : lo + chunk_rows]
                    batch = chunk.size * n
                    registers = self._chunk_env(batch)
                    # (chunk rows) x (all j), flattened to pairs, one lane
                    # at a time: each lane write is one long strided loop.
                    xi = registers["xi"].reshape(chunk.size, n, width)
                    for lane in range(3):
                        xi[:, :, lane] = positions32[chunk, lane][:, None]
                    # Displace self-pairs far outside the cutoff so the
                    # rsqrt estimate never sees r2 == 0 (they are excluded
                    # by self_flag regardless; this only silences inf/nan
                    # lanes).  ``xj`` is the same for every chunk of a
                    # size but for these lanes, so only they are redone.
                    xj = registers["xj"]
                    self_flag = registers.get("self_flag")
                    previous = self._displaced.get(batch)
                    if previous is None or previous[0] != self._runs:
                        by_row = xj.reshape(chunk.size, n, width)
                        for lane in range(3):
                            by_row[:, :, lane] = positions32[:, lane]
                    else:
                        xj[previous[1], 0] = positions32[previous[2], 0]
                    if self_flag is not None and previous is not None:
                        self_flag[previous[1]] = 0.0
                    self_lanes = np.arange(chunk.size) * n + chunk
                    xj[self_lanes, 0] += 1.0e3
                    if self_flag is not None:
                        self_flag[self_lanes] = 1.0
                    self._displaced[batch] = (self._runs, self_lanes, chunk)

                    rows_out = slice(lo * n, (lo + chunk.size) * n)
                    machine.run_segment(
                        program, "pair", dict(registers), self._uniform,
                        out={name: reg[rows_out] for name, reg in outputs.items()},
                    )

            stop = start + block.size
            # Sum over j with j outermost: each (row, lane) accumulates
            # j = 0, 1, ... in order, as the strided ``sum(axis=1)`` does,
            # but over contiguous rows of chunk * width floats instead of
            # a 3-float inner loop.  The transposed copy of each chunk
            # goes into that chunk's ``xi`` register, which every chunk
            # rewrites before use, so the reduction allocates nothing.
            # ``pe`` stays on its strided sum, which is pairwise over j:
            # a sequential sum changes its bits.
            fvec = outputs["acc_out"].reshape(block.size, n, width)
            for lo in range(0, block.size, chunk_rows):
                part = fvec[lo : lo + chunk_rows]
                size = part.shape[0]
                by_j = self._chunk_env(size * n)["xi"]
                np.copyto(by_j.reshape(n, size, width), part.transpose(1, 0, 2))
                acc[start + lo : start + lo + size] = np.add.reduce(
                    by_j.reshape(n, -1), axis=0
                ).reshape(size, width)[:, :3]
            pe_pair = outputs[self._pe_register].reshape(block.size, n, width)
            pe[start:stop] = pe_pair[:, :, self._pe_lane].sum(
                axis=1, dtype=np.float32
            )
        return acc, pe
