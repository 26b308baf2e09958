"""The pair-sweep driver shared by the SPE kernels and the GPU shader.

* the sweep's self-pair displacement (``xj[self, 0] += 1e3``) is
  bitwise-neutral for the GPU shader, whose self lanes are masked by
  ``self_flag``: the sweep equals one direct ``run_segment`` over the
  undisplaced pair batch;
* a ``rows=`` subset equals those rows of a full sweep (the Cell
  calibration path sweeps 16 rows);
* the register contract comes from the program: a declared input that
  neither the sweep nor the constants fill raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cell.kernels import build_spe_kernel, kernel_constants
from repro.gpu.kernels import build_md_shader, shader_constants
from repro.md.box import PeriodicBox
from repro.md.lattice import cubic_lattice
from repro.md.lj import LennardJones
from repro.vm.builder import Asm
from repro.vm.machine import EXEC_BACKENDS, Machine
from repro.vm.program import Program, Segment
from repro.vm.sweep import PairSweep, input_registers

BOX_LENGTH = 6.0


def _random_positions(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, BOX_LENGTH, size=(n, 3)).astype(np.float32)


def _lattice_positions(n: int) -> np.ndarray:
    return cubic_lattice(n, PeriodicBox(BOX_LENGTH)).astype(np.float32)


class TestGpuSelfPairNeutrality:
    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    @pytest.mark.parametrize("layout", ["lattice", "random"])
    def test_sweep_equals_undisplaced_segment(self, backend, layout):
        n = 64
        positions = (
            _lattice_positions(n) if layout == "lattice"
            else _random_positions(n, seed=5)
        )
        program = build_md_shader(BOX_LENGTH).program
        constants = shader_constants(LennardJones(), BOX_LENGTH)

        acc, pe = PairSweep(program, exec_backend=backend).run(
            positions, constants, row_block=n
        )

        machine = Machine(width=4, dtype=np.float32, exec_backend=backend)
        env = {
            "xi": machine.load_vec3(np.repeat(positions, n, axis=0)),
            "xj": machine.load_vec3(np.tile(positions, (n, 1))),
        }
        env.update(input_registers(machine, program, n * n, constants))
        env["self_flag"][:: n + 1] = 1.0
        machine.run_segment(program, "pair", env)
        out = env["acc_out"].reshape(n, n, 4)
        assert acc.tobytes() == out[:, :, :3].sum(axis=1, dtype=np.float32).tobytes()
        assert pe.tobytes() == out[:, :, 3].sum(axis=1, dtype=np.float32).tobytes()


class TestRowSubset:
    def test_rows_equal_full_sweep_rows(self):
        positions = _random_positions(48, seed=9)
        program = build_spe_kernel("original", BOX_LENGTH)
        constants = kernel_constants(LennardJones())
        full_acc, full_pe = PairSweep(program).run(positions, constants)
        rows = np.array([40, 3, 17, 5, 46])
        acc, pe = PairSweep(program).run(positions, constants, rows=rows)
        assert acc.tobytes() == full_acc[rows].tobytes()
        assert pe.tobytes() == full_pe[rows].tobytes()


class TestRegisterContract:
    @staticmethod
    def _program(inputs: tuple[str, ...]) -> Program:
        a = Asm()
        body = (a.fa("acc_out", "xi", "xj"), a.fa("pe_out", "xi", "xj"))
        return Program(
            name="contract",
            segments=(Segment("pair", "pairs", body),),
            inputs=inputs,
            outputs=("acc_out", "pe_out"),
        )

    def test_unfilled_input_raises(self):
        sweep = PairSweep(self._program(("xi", "xj", "mystery")))
        with pytest.raises(ValueError, match="mystery"):
            sweep.run(_random_positions(4, seed=1), {"rc": 2.5})

    def test_only_declared_inputs_are_built(self):
        machine = Machine(width=4)
        registers = input_registers(
            machine, self._program(("xi", "xj", "tiny", "rc")), 3,
            {"rc": 2.5, "unused": 1.0},
        )
        assert set(registers) == {"tiny", "rc"}
        assert registers["tiny"][0, 0] == np.float32(1.0e-12)
        assert registers["rc"][0, 0] == np.float32(2.5)
