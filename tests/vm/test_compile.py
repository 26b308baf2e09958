"""Differential certification of the per-segment compiled closures.

The contract under test: for every program, the ``fused`` backend's
:meth:`Machine.run_segment` (one compiled closure per segment) produces
*bit-identical* float32 values for every declared output and records
*identical* branch-probability statistics (same totals, same counts,
same order) as the ``interp`` reference backend.  Coverage:

* every shipped kernel — the full fig5 ladder, the GPU pair shader,
  and the reduction shader at several fan-ins;
* the device drivers end to end (``PairSweep`` over both ports, ``gpu_reduce``);
* hypothesis-generated random programs over the whole ISA, with loops,
  per-iteration immediates, and nested IfBlocks;
* the compiler's own machinery — caching, slot reuse, dead-code
  elimination, constant hoisting, and error paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell.kernels import OPT_LEVELS, build_spe_kernel, kernel_constants
from repro.gpu.kernels import (
    build_md_shader,
    build_reduction_shader,
    gpu_reduce,
    shader_constants,
)
from repro.md.lj import LennardJones
from repro.vm.compile import CompiledSegment, VMCompileError, compiled_segment
from repro.vm.machine import EXEC_BACKENDS, BranchStat, Machine, MachineError
from repro.vm.program import IfBlock, Instr, Loop, Program, Segment
from repro.vm.sweep import PairSweep

BOX_LENGTH = 6.0


def _positions(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, BOX_LENGTH, size=(n, 3)).astype(np.float32)


def _stats(machine: Machine) -> dict[str, tuple[float, int]]:
    return {key: stat.snapshot() for key, stat in machine.branch_stats.items()}


def _run_both(program, segment_name, env_builder, width=4):
    """Run one segment under both backends; return per-backend (env, stats)."""
    results = {}
    for backend in EXEC_BACKENDS:
        machine = Machine(width=width, exec_backend=backend)
        env = env_builder(machine)
        machine.run_segment(program, segment_name, env)
        results[backend] = (env, _stats(machine))
    return results["interp"], results["fused"]


def _assert_outputs_identical(program, interp_result, fused_result):
    (env_i, stats_i), (env_c, stats_c) = interp_result, fused_result
    for name in program.outputs:
        assert name in env_c, f"fused backend dropped output {name!r}"
        assert env_i[name].dtype == env_c[name].dtype
        assert env_i[name].shape == env_c[name].shape
        assert env_i[name].tobytes() == env_c[name].tobytes(), (
            f"output {name!r} differs between backends"
        )
    assert stats_i == stats_c


class TestFig5LadderDifferential:
    """Every fig5 kernel variant: bit-identical outputs + branch stats."""

    @pytest.mark.parametrize("level", OPT_LEVELS)
    def test_pair_segment_bit_identical(self, level):
        program = build_spe_kernel(level, box_length=BOX_LENGTH)
        constants = kernel_constants(LennardJones())
        pos = _positions(48, seed=3)
        n = pos.shape[0]

        def build_env(machine):
            env = {
                "xi": machine.load_vec3(np.repeat(pos[:1], n, axis=0)),
                "xj": machine.load_vec3(pos),
            }
            for name, value in constants.items():
                env[name] = machine.make_register(n, float(value))
            env["zero"] = machine.make_register(n, 0.0)
            env["self_flag"] = machine.make_register(n, 0.0)
            env["self_flag"][0] = 1.0
            return env

        interp, fused = _run_both(program, "pair", build_env)
        _assert_outputs_identical(program, interp, fused)

    @pytest.mark.parametrize("level", OPT_LEVELS)
    def test_spe_sweep_driver_bit_identical(self, level):
        program = build_spe_kernel(level, box_length=BOX_LENGTH)
        constants = kernel_constants(LennardJones())
        pos = _positions(40, seed=7)
        rows = np.arange(pos.shape[0])
        outs = {}
        for backend in EXEC_BACKENDS:
            sweep = PairSweep(program, exec_backend=backend)
            acc, pe = sweep.run(pos, constants, rows=rows, row_block=16)
            outs[backend] = (acc.tobytes(), pe.tobytes(), _stats(sweep.machine))
        assert outs["interp"] == outs["fused"]


class TestGpuDifferential:
    def test_pair_shader_bit_identical(self):
        shader = build_md_shader(box_length=BOX_LENGTH)
        constants = shader_constants(LennardJones(), BOX_LENGTH)
        pos = _positions(32, seed=11)
        n = pos.shape[0]
        rows = 6

        def build_env(machine):
            env = {
                "xi": machine.load_vec3(np.repeat(pos[:rows], n, axis=0)),
                "xj": machine.load_vec3(np.tile(pos, (rows, 1))),
            }
            batch = env["xi"].shape[0]
            for name, value in constants.items():
                env[name] = machine.make_register(batch, float(value))
            env["zero"] = machine.make_register(batch, 0.0)
            env["tiny"] = machine.make_register(batch, 1.0e-12)
            env["self_flag"] = machine.make_register(batch, 0.0)
            i_index = np.repeat(np.arange(rows), n)
            j_index = np.tile(np.arange(n), rows)
            env["self_flag"][i_index == j_index] = 1.0
            return env

        interp, fused = _run_both(shader.program, "pair", build_env)
        _assert_outputs_identical(shader.program, interp, fused)

    def test_gpu_sweep_driver_bit_identical(self):
        shader = build_md_shader(box_length=BOX_LENGTH)
        constants = shader_constants(LennardJones(), BOX_LENGTH)
        pos = _positions(24, seed=13)
        outs = {}
        for backend in EXEC_BACKENDS:
            sweep = PairSweep(shader.program, exec_backend=backend)
            acc, pe = sweep.run(pos, constants, row_block=8)
            outs[backend] = (acc.tobytes(), pe.tobytes())
        assert outs["interp"] == outs["fused"]

    @pytest.mark.parametrize("fanin", [2, 4, 8])
    def test_reduction_shader_bit_identical(self, fanin):
        shader = build_reduction_shader(fanin)
        rng = np.random.default_rng(fanin)
        data = rng.uniform(-5.0, 5.0, size=(33, 4)).astype(np.float32)
        segment = shader.program.segments[0].name

        def build_env(machine):
            return {name: data.copy() for name in shader.input_arrays}

        interp, fused = _run_both(shader.program, segment, build_env)
        _assert_outputs_identical(shader.program, interp, fused)

    @pytest.mark.parametrize("size", [1, 5, 64, 1000])
    def test_gpu_reduce_matches_interp(self, size):
        rng = np.random.default_rng(size)
        values = rng.uniform(-2.0, 2.0, size=(size,)).astype(np.float32)
        total_i, passes_i = gpu_reduce(values, fanin=4, exec_backend="interp")
        total_c, passes_c = gpu_reduce(values, fanin=4)
        assert total_i == total_c
        assert passes_i == passes_c


# ---------------------------------------------------------------------------
# hypothesis: random programs over the ISA
# ---------------------------------------------------------------------------

_REGS = tuple(f"r{i}" for i in range(5))
_INPUTS = ("in0", "in1", "in2")
_NAMES = _REGS + _INPUTS
_WIDTH = 4

_names_st = st.sampled_from(_NAMES)
_dest_st = st.sampled_from(_REGS)
_scalar_st = st.one_of(
    st.integers(min_value=-8, max_value=8).map(float),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=32),
)

_BINARY_OPS = ("fa", "fs", "fm", "fdiv", "fmin", "fmax", "cpsgn",
               "and_", "or_", "fcgt", "fclt", "fceq")
_UNARY_OPS = ("fabs", "fneg", "fsqrt", "fround", "frest", "frsqest", "mov",
              "lqd", "stqd", "texfetch")
_TERNARY_OPS = ("fma", "fms", "fnms", "selb")


@st.composite
def _instr_st(draw, in_loop=False):
    kind = draw(st.sampled_from(("binary", "unary", "ternary", "lane", "imm")))
    dest = draw(_dest_st)
    if kind == "binary":
        op = draw(st.sampled_from(_BINARY_OPS))
        return Instr(op, dest, (draw(_names_st), draw(_names_st)))
    if kind == "unary":
        op = draw(st.sampled_from(_UNARY_OPS))
        return Instr(op, dest, (draw(_names_st),))
    if kind == "ternary":
        op = draw(st.sampled_from(_TERNARY_OPS))
        return Instr(op, dest, (draw(_names_st), draw(_names_st), draw(_names_st)))
    if kind == "lane":
        op = draw(st.sampled_from(("splat", "rotqbyi", "shufb")))
        if op == "splat":
            return Instr(op, dest, (draw(_names_st),),
                         imm=draw(st.integers(0, _WIDTH - 1)))
        if op == "rotqbyi":
            return Instr(op, dest, (draw(_names_st),),
                         imm=draw(st.integers(0, 2 * _WIDTH)))
        pattern = tuple(
            draw(st.lists(st.integers(0, 2 * _WIDTH - 1),
                          min_size=_WIDTH, max_size=_WIDTH))
        )
        return Instr(op, dest, (draw(_names_st), draw(_names_st)), imm=pattern)
    op = draw(st.sampled_from(("il", "ilv")))
    template = draw(_names_st)
    if op == "il":
        # a tuple immediate means "one scalar per loop iteration": only
        # valid inside a loop
        imm_st = _scalar_st
        if in_loop:
            imm_st = st.one_of(
                imm_st, st.tuples(_scalar_st, _scalar_st, _scalar_st)
            )
        return Instr(op, dest, (template,), imm=draw(imm_st))
    lane_vec = st.tuples(_scalar_st, _scalar_st, _scalar_st, _scalar_st)
    imm_st = lane_vec
    if in_loop:  # tuple-of-vectors = one lane vector per iteration
        imm_st = st.one_of(imm_st, st.tuples(lane_vec, lane_vec))
    return Instr(op, dest, (template,), imm=draw(imm_st))


@st.composite
def _body_st(draw, depth, in_loop=False):
    nodes = []
    for _ in range(draw(st.integers(1, 5 if depth else 8))):
        choice = draw(st.integers(0, 9))
        if choice == 0 and depth < 2:
            nodes.append(Loop(
                count=draw(st.integers(1, 3)),
                body=tuple(draw(_body_st(depth=depth + 1, in_loop=True))),
            ))
        elif choice == 1 and depth < 2:
            nodes.append(IfBlock(
                cond=draw(_names_st),
                body=tuple(draw(_body_st(depth=depth + 1, in_loop=in_loop))),
                prob_key=f"branch{draw(st.integers(0, 3))}",
            ))
        else:
            nodes.append(draw(_instr_st(in_loop=in_loop)))
    return nodes


@st.composite
def _program_st(draw):
    body = tuple(draw(_body_st(depth=0)))
    return Program(
        name="random",
        segments=(Segment("main", trips_key="trips", body=body),),
        inputs=_INPUTS,
        outputs=_REGS + _INPUTS,
    )


class TestRandomProgramsDifferential:
    @given(program=_program_st(), seed=st.integers(0, 2**16),
           batch=st.integers(1, 9))
    @settings(max_examples=120, deadline=None)
    def test_random_program_bit_identical(self, program, seed, batch):
        rng = np.random.default_rng(seed)
        draws = {
            name: np.asarray(
                rng.uniform(-4.0, 4.0, size=(batch, _WIDTH)), dtype=np.float32
            )
            for name in _NAMES
        }

        def build_env(machine):
            return {name: value.copy() for name, value in draws.items()}

        interp, fused = _run_both(program, "main", build_env)
        _assert_outputs_identical(program, interp, fused)
        # The fused backend must never mutate caller arrays in place:
        # a changed env entry must be a rebound output array.
        env_c = fused[0]
        for name in _NAMES:
            if env_c[name].tobytes() != draws[name].tobytes():
                assert name in program.outputs


class TestIfSemantics:
    """Directed coverage of the IfBlock merge paths."""

    def _prog(self, body, outputs):
        return Program(
            name="ifsem",
            segments=(Segment("main", "trips", tuple(body)),),
            inputs=("cond", "x"),
            outputs=outputs,
        )

    def _env(self, machine, cond_rows):
        batch = len(cond_rows)
        env = {
            "cond": machine.make_register(batch, 0.0),
            "x": machine.make_register(batch, 2.0),
        }
        env["cond"][np.asarray(cond_rows, dtype=bool)] = 1.0
        return env

    def test_first_defined_inside_if_zeroes_untaken(self):
        body = [IfBlock("cond", (Instr("fa", "y", ("x", "x")),), "p")]
        program = self._prog(body, outputs=("y",))
        interp, fused = _run_both(
            program, "main", lambda m: self._env(m, [True, False, True])
        )
        _assert_outputs_identical(program, interp, fused)
        assert fused[0]["y"][1, 0] == 0.0
        assert fused[0]["y"][0, 0] == 4.0

    def test_nested_if_restores_per_level(self):
        body = [
            Instr("mov", "y", ("x",)),
            IfBlock("cond", (
                Instr("fa", "y", ("y", "x")),
                IfBlock("y", (Instr("fm", "y", ("y", "y")),), "inner"),
            ), "outer"),
        ]
        program = self._prog(body, outputs=("y",))
        interp, fused = _run_both(
            program, "main", lambda m: self._env(m, [True, False])
        )
        _assert_outputs_identical(program, interp, fused)

    def test_all_lanes_false_condition_records_zero_sample(self):
        body = [IfBlock("cond", (Instr("fa", "x", ("x", "x")),), "p")]
        program = self._prog(body, outputs=("x",))
        interp, fused = _run_both(
            program, "main", lambda m: self._env(m, [False, False])
        )
        _assert_outputs_identical(program, interp, fused)
        assert fused[1]["p"] == (0.0, 1)


class TestBranchStat:
    def test_running_pair_matches_list_mean(self):
        stat = BranchStat()
        samples = [0.25, 0.5, 1.0, 0.0, 0.125]
        for s in samples:
            stat.add(s)
        assert stat.count == len(samples)
        assert stat.mean == pytest.approx(np.mean(samples))

    def test_memory_is_constant_not_linear(self):
        stat = BranchStat()
        for _ in range(100_000):
            stat.add(0.5)
        assert stat.count == 100_000
        assert stat.snapshot() == (50_000.0, 100_000)
        assert not hasattr(stat, "__dict__")  # __slots__: two fields, ever

    def test_machine_accumulates_across_runs(self):
        body = [IfBlock("cond", (Instr("fa", "x", ("x", "x")),), "p")]
        program = Program(
            "acc", (Segment("main", "trips", tuple(body)),),
            inputs=("cond", "x"), outputs=("x",),
        )
        machine = Machine(width=4)
        for _ in range(3):
            env = {
                "cond": machine.make_register(2, 1.0),
                "x": machine.make_register(2, 1.0),
            }
            machine.run_segment(program, "main", env)
        assert machine.branch_stats["p"].snapshot() == (3.0, 3)
        assert machine.measured_probability("p") == 1.0

    def test_measured_probability_unknown_key_raises(self):
        machine = Machine()
        with pytest.raises(KeyError):
            machine.measured_probability("never")

    def test_branch_snapshot_unseen_is_zero(self):
        assert Machine().branch_snapshot("never") == (0.0, 0)


class TestBackendSelection:
    def test_explicit_wins_over_env(self, monkeypatch):
        # The backend is an explicit argument and nothing else: the
        # environment variable older releases read is ignored.
        monkeypatch.setenv("REPRO_VM_EXEC", "interp")
        assert Machine().exec_backend == "fused"
        monkeypatch.setenv("REPRO_VM_EXEC", "fused")
        assert Machine(exec_backend="interp").exec_backend == "interp"

    def test_default_when_unset(self):
        assert EXEC_BACKENDS == ("interp", "fused")
        assert Machine().exec_backend == "fused"

    def test_unknown_backend_rejected(self):
        for name in ("compiled", "turbo", None):
            with pytest.raises(ValueError):
                Machine(exec_backend=name)

    def test_drivers_default_to_compiled(self, monkeypatch):
        # The drivers' default backend is fused, which runs each segment
        # through its compiled closure rather than the interpreter.
        import repro.vm.compile as vm_compile

        units = []

        def counting(program, segment_name, width, dtype):
            units.append(segment_name)
            return compiled_segment(program, segment_name, width, dtype)

        monkeypatch.setattr(vm_compile, "compiled_segment", counting)
        program = build_spe_kernel("simd_acceleration", BOX_LENGTH)
        sweep = PairSweep(program)
        assert sweep.machine.exec_backend == "fused"
        sweep.run(_positions(8), kernel_constants(LennardJones()))
        assert units == ["pair"]


class TestCompilerMachinery:
    def test_cache_returns_same_object(self):
        program = build_spe_kernel("simd_acceleration", BOX_LENGTH)
        a = compiled_segment(program, "pair", 4, np.float32)
        b = compiled_segment(program, "pair", 4, np.float32)
        assert a is b
        assert isinstance(a, CompiledSegment)

    def test_cache_distinguishes_negative_zero_immediates(self):
        # 0.0 == -0.0 (and 1 == 1.0 == True), so two programs differing
        # only in an immediate's zero sign are equal as frozen
        # dataclasses and would share one lru_cache entry — while the
        # interpreter reads the actual imm and produces different bytes.
        def prog(imm):
            return Program(
                name="zsign",
                segments=(Segment("main", "trips", (
                    Instr("il", "y", ("x",), imm=imm),
                )),),
                inputs=("x",),
                outputs=("y",),
            )

        pos_zero, neg_zero = prog(0.0), prog(-0.0)
        assert pos_zero == neg_zero  # the collision this guards against
        for program, want in ((neg_zero, -0.0), (pos_zero, 0.0)):
            interp, fused = _run_both(
                program, "main",
                lambda m: {"x": m.make_register(3, 1.0)},
            )
            _assert_outputs_identical(program, interp, fused)
            got = fused[0]["y"]
            assert got.tobytes() == np.full_like(got, want).tobytes()

    def test_cache_distinguishes_width_and_dtype(self):
        program = build_spe_kernel("simd_acceleration", BOX_LENGTH)
        a = compiled_segment(program, "pair", 4, np.float32)
        b = compiled_segment(program, "pair", 4, np.float64)
        assert a is not b
        assert b.dtype == np.float64

    def test_only_declared_outputs_written_back(self):
        program = build_spe_kernel("simd_acceleration", BOX_LENGTH)
        constants = kernel_constants(LennardJones())
        machine = Machine(width=4)
        pos = _positions(8)
        env = {
            "xi": machine.load_vec3(np.repeat(pos[:1], 8, axis=0)),
            "xj": machine.load_vec3(pos),
        }
        for name, value in constants.items():
            env[name] = machine.make_register(8, float(value))
        env["zero"] = machine.make_register(8, 0.0)
        env["self_flag"] = machine.make_register(8, 0.0)
        before = set(env)
        machine.run_segment(program, "pair", env)
        assert set(env) == before | set(program.outputs)

    def test_missing_input_raises_machine_error(self):
        program = build_spe_kernel("simd_acceleration", BOX_LENGTH)
        machine = Machine(width=4)
        env = {"xi": machine.make_register(4, 0.0)}
        with pytest.raises(MachineError):
            machine.run_segment(program, "pair", env)

    def test_slots_fewer_than_registers(self):
        # Liveness-based reuse: the fused kernel needs far fewer scratch
        # buffers than the program names registers.
        program = build_spe_kernel("original", BOX_LENGTH)
        seg = compiled_segment(program, "pair", 4, np.float32)
        assert 0 < seg.n_float_slots < len(program.registers()) / 2

    def test_constants_hoisted_out_of_source(self):
        # il/ilv never materialize at run time: no np.full in the body.
        program = build_spe_kernel("simd_acceleration", BOX_LENGTH)
        seg = compiled_segment(program, "pair", 4, np.float32)
        assert "np.full" not in seg.source
        assert "_load(env" in seg.source

    def test_renames_emit_no_code(self):
        program = Program(
            "renames",
            (Segment("main", "t", (
                Instr("mov", "a", ("x",)),
                Instr("lqd", "b", ("a",), imm=0),
                Instr("stqd", "c", ("b",), imm=0),
            )),),
            inputs=("x",), outputs=("c",),
        )
        seg = compiled_segment(program, "main", 4, np.float32)
        assert seg.n_kernel_calls == 0  # pure renames: only the writeback
        machine = Machine(width=4)
        env = {"x": machine.make_register(3, 7.0)}
        machine.run_segment(program, "main", env)
        assert env["c"].tobytes() == env["x"].tobytes()
        assert env["c"] is not env["x"]

    def test_dead_code_eliminated(self):
        program = Program(
            "dead",
            (Segment("main", "t", (
                Instr("fa", "waste", ("x", "x")),
                Instr("fm", "waste2", ("waste", "waste")),
                Instr("fs", "live", ("x", "x")),
            )),),
            inputs=("x",), outputs=("live",),
        )
        seg = compiled_segment(program, "main", 4, np.float32)
        assert seg.n_kernel_calls == 1  # just the fs

    def test_bad_shufb_pattern_rejected(self):
        program = Program(
            "badshufb",
            (Segment("main", "t", (
                Instr("shufb", "y", ("x", "x"), imm=(0, 1)),  # width 4 program
            )),),
            inputs=("x",), outputs=("y",),
        )
        with pytest.raises(VMCompileError):
            compiled_segment(program, "main", 4, np.float32)

    def test_buffer_pool_reused_across_calls(self):
        program = build_spe_kernel("simd_acceleration", BOX_LENGTH)
        seg = compiled_segment(program, "pair", 4, np.float32)
        pool_a = seg._pool(16)
        pool_b = seg._pool(16)
        assert pool_a is pool_b
        assert seg._pool(32) is not pool_a

    def test_empty_env_batch_zero(self):
        program = Program(
            "consts",
            (Segment("main", "t", (Instr("il", "y", ("x",), imm=3.0),)),),
            outputs=("y",),
        )
        machine = Machine(width=4)
        env: dict[str, np.ndarray] = {}
        machine.run_segment(program, "main", env)
        assert env["y"].shape == (0, 4)

    def test_loop_immediates_pre_resolved(self):
        # il with a per-iteration tuple: each unrolled copy bakes in its
        # own scalar, exactly like the interpreter's _resolve_imm.
        program = Program(
            "loopimm",
            (Segment("main", "t", (
                Instr("il", "acc", ("pad",), imm=0.0),
                Loop(3, (
                    Instr("il", "step", ("pad",), imm=(1.0, 10.0, 100.0)),
                    Instr("fa", "acc", ("acc", "step")),
                )),
            )),),
            outputs=("acc",),
        )
        for backend in EXEC_BACKENDS:
            machine = Machine(width=4, exec_backend=backend)
            env = {"pad": machine.make_register(2, 0.0)}
            machine.run_segment(program, "main", env)
            assert env["acc"][0, 0] == 111.0
