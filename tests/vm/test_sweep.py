"""The pair-sweep driver shared by the SPE kernels and the GPU shader.

* the sweep's self-pair displacement (``xj[self, 0] += 1e3``) is
  bitwise-neutral for the GPU shader, whose self lanes are masked by
  ``self_flag``: the sweep equals one direct ``run_segment`` over the
  undisplaced pair batch;
* a ``rows=`` subset equals those rows of a full sweep (the Cell
  calibration path sweeps 16 rows);
* the register contract comes from the program: a declared input that
  neither the sweep nor the constants fill raises;
* chunking is bitwise-neutral: a block executed in ``CHUNK_PAIRS``-sized
  chunks equals the block executed as one chunk — forces, PE and branch
  samples, on both VM backends, and through a whole vm-mode Cell run.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.vm.sweep as sweep_module
from repro.cell.device import CellDevice
from repro.cell.kernels import build_spe_kernel, kernel_constants
from repro.gpu.kernels import build_md_shader, shader_constants
from repro.md.box import PeriodicBox
from repro.md.lattice import cubic_lattice
from repro.md.lj import LennardJones
from repro.md.simulation import MDConfig
from repro.obs.observe import Observation
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


def _one_chunk_per_block(monkeypatch) -> None:
    monkeypatch.setattr(sweep_module, "CHUNK_PAIRS", 1 << 40)


def _sweep_digest(program, constants, positions, rows, backend):
    sweep = PairSweep(program, exec_backend=backend)
    acc, pe = sweep.run(positions, constants, rows=rows)
    stats = {
        key: (stat.total.hex(), stat.count)
        for key, stat in sweep.machine.branch_stats.items()
    }
    return acc.tobytes(), pe.tobytes(), stats


_SWEEP_CASES = [
    pytest.param(kernel, backend, id=f"spe:{kernel}-{backend}")
    for kernel in ("original", "simd_acceleration")
    for backend in EXEC_BACKENDS
] + [pytest.param("shader", "fused", id="gpu:shader-fused")]


class TestChunking:
    """The sweep's last two blocks: at 1000 atoms 128 + 104 rows, the
    second ending in a ragged chunk (104 = 6 x 16 + 8); at 1024 atoms
    two blocks of 8 whole 16-row chunks each."""

    @pytest.mark.parametrize("n", [1000, 1024])
    @pytest.mark.parametrize("kernel, backend", _SWEEP_CASES)
    def test_chunked_equals_one_chunk_per_block(
        self, kernel, backend, n, monkeypatch
    ):
        box_length = 11.0
        if kernel == "shader":
            program = build_md_shader(box_length).program
            constants = shader_constants(LennardJones(), box_length)
        else:
            program = build_spe_kernel(kernel, box_length)
            constants = kernel_constants(LennardJones())
        rng = np.random.default_rng(n)
        positions = rng.uniform(0.0, box_length, size=(n, 3)).astype(np.float32)
        rows = np.arange(128 * ((n - 1) // 128 - 1), n)

        assert sweep_module.CHUNK_PAIRS // n == 16
        chunked = _sweep_digest(program, constants, positions, rows, backend)
        _one_chunk_per_block(monkeypatch)
        whole = _sweep_digest(program, constants, positions, rows, backend)
        assert chunked == whole
        if kernel != "shader":  # one sample per block
            assert chunked[2]["interacting_fraction"][1] == 2

    @pytest.mark.parametrize("opt_level", ["original", "simd_acceleration"])
    def test_vm_device_run_is_chunk_neutral(self, opt_level, monkeypatch):
        config = MDConfig(n_atoms=1024)

        def run():
            device = CellDevice(n_spes=1, opt_level=opt_level, mode="vm")
            result = device.run(config, 1, observe=Observation(device.name))
            return (
                [seconds.hex() for seconds in result.step_seconds],
                [record.interacting_pairs for record in result.records],
                result.counters,
                result.final_positions.tobytes(),
            )

        chunked = run()
        _one_chunk_per_block(monkeypatch)
        assert run() == chunked
        assert chunked[2]["vm.segments"] > 0
        assert chunked[2]["vm.branch.interacting_fraction.samples"] > 0


class TestRowBlock:
    @pytest.mark.parametrize("kernel", ["gpu:md_shader", "spe:original"])
    def test_widths_are_bit_identical(self, kernel):
        from repro.experiments.common import paper_config

        n = 96
        config = paper_config(n)
        box_length = config.make_box().length
        family, name = kernel.split(":")
        if family == "gpu":
            program = build_md_shader(box_length).program
            constants = shader_constants(LennardJones(), box_length)
        else:
            program = build_spe_kernel(name, box_length)
            constants = kernel_constants(LennardJones())
        sweep = PairSweep(program)
        rng = np.random.default_rng(3)
        positions = rng.uniform(0.0, box_length, size=(n, 3)).astype(np.float32)
        acc_a, pe_a = sweep.run(positions, constants, row_block=32)
        acc_b, pe_b = sweep.run(positions, constants, row_block=128)
        assert np.array_equal(acc_a, acc_b)
        assert np.array_equal(pe_a, pe_b)
