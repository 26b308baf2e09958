"""Differential certification of the fused whole-program VM backend.

The contract under test, extending ``test_compile.py``'s per-segment
net to whole programs and the replica axis.  Three executors run every
program: the ``interp`` oracle, the per-segment compiled closures
(``run_segment`` on each segment in turn, replica by replica), and the
whole-program closure (``run_program``).

* for every program, all three produce bit-identical declared outputs
  and identical branch statistics — including multi-segment programs,
  where the whole-program closure carries values across segment
  boundaries as SSA instead of env writebacks;
* a batched run of R replicas (stacked along the row axis) is
  bit-identical, replica by replica, to R sequential runs — outputs
  *and* branch-stat accumulation order;
* a single-segment program's per-segment and whole-program units are
  one cache entry;
* ``run_program`` error paths (replicas < 1, non-divisible batch).

Coverage runs over hypothesis-generated random multi-segment programs,
replica counts, both dtypes, and the three shipped whole-timestep
kernels (SPE, GPU, MTA).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell.kernels import (
    build_spe_timestep_kernel,
    kernel_constants,
    timestep_constants,
)
from repro.gpu.kernels import (
    build_gpu_timestep_shader,
    shader_constants,
)
from repro.md.lj import LennardJones
from repro.mta.kernels import build_mta_timestep_program
from repro.vm.compile import (
    CompiledSegment,
    compiled_program,
    compiled_segment,
)
from repro.vm.machine import EXEC_BACKENDS, Machine, MachineError
from repro.vm.program import IfBlock, Instr, Program, Segment

BOX_LENGTH = 6.0
#: interp, the per-segment compiled closures, the whole-program closure
EXECUTORS = ("interp", "segments", "fused")

DT = 0.005


def _stats(machine: Machine) -> dict[str, tuple[float, int]]:
    return {key: stat.snapshot() for key, stat in machine.branch_stats.items()}


def _run_segments(machine, program, env, replicas):
    """Each replica's row slice through every segment's own closure."""
    rows = next(iter(env.values())).shape[0] // replicas
    merged = {name: [] for name in program.outputs}
    for index in range(replicas):
        sub = {
            name: reg[index * rows : (index + 1) * rows]
            for name, reg in env.items()
        }
        for segment in program.segments:
            machine.run_segment(program, segment.name, sub)
        for name in program.outputs:
            merged[name].append(sub[name])
    for name, parts in merged.items():
        env[name] = np.concatenate(parts, axis=0)


def _run_program_all_backends(program, env_builder, width=4, dtype=np.float32,
                              replicas=1):
    """The program under every executor; return {executor: (env, stats)}."""
    results = {}
    for executor in EXECUTORS:
        machine = Machine(
            width=width, dtype=dtype,
            exec_backend="interp" if executor == "interp" else "fused",
        )
        env = env_builder(machine)
        if executor == "segments":
            _run_segments(machine, program, env, replicas)
        else:
            machine.run_program(program, env, replicas=replicas)
        results[executor] = (env, _stats(machine))
    return results


def _assert_all_identical(program, results):
    (env_ref, stats_ref) = results["interp"]
    for backend in ("segments", "fused"):
        env_b, stats_b = results[backend]
        for name in program.outputs:
            assert name in env_b, f"{backend} dropped output {name!r}"
            assert env_ref[name].dtype == env_b[name].dtype
            assert env_ref[name].shape == env_b[name].shape
            assert env_ref[name].tobytes() == env_b[name].tobytes(), (
                f"output {name!r} differs between interp and {backend}"
            )
        assert stats_ref == stats_b, f"branch stats differ for {backend}"


# ---------------------------------------------------------------------------
# the shipped whole-timestep programs
# ---------------------------------------------------------------------------


def _dimer_rows(rng, batch):
    xi = rng.uniform(0.0, BOX_LENGTH, size=(batch, 3)).astype(np.float32)
    xj = (xi + rng.uniform(-1.5, 1.5, size=(batch, 3))).astype(np.float32)
    vi = rng.uniform(-0.1, 0.1, size=(batch, 3)).astype(np.float32)
    return xi, xj, vi


def _spe_timestep_env(machine, batch, seed=5):
    xi, xj, vi = _dimer_rows(np.random.default_rng(seed), batch)
    env = {
        "xi": machine.load_vec3(xi),
        "xj": machine.load_vec3(xj),
        "vi": machine.load_vec3(vi),
    }
    for name, value in timestep_constants(LennardJones(), dt=DT).items():
        env[name] = machine.make_register(batch, float(value))
    env["zero"] = machine.make_register(batch, 0.0)
    env["self_flag"] = machine.make_register(batch, 0.0)
    return env


def _gpu_timestep_env(machine, batch, seed=6):
    xi, xj, vi = _dimer_rows(np.random.default_rng(seed), batch)
    env = {
        "xi": machine.load_vec3(xi),
        "xj": machine.load_vec3(xj),
        "vi": machine.load_vec3(vi),
    }
    for name, value in shader_constants(LennardJones(), BOX_LENGTH).items():
        env[name] = machine.make_register(batch, float(value))
    env["dt"] = machine.make_register(batch, DT)
    env["zero"] = machine.make_register(batch, 0.0)
    env["tiny"] = machine.make_register(batch, 1.0e-12)
    env["self_flag"] = machine.make_register(batch, 0.0)
    return env


def _mta_timestep_env(machine, batch, seed=7):
    rng = np.random.default_rng(seed)
    xi, xj, vel = _dimer_rows(rng, batch)
    posn = rng.uniform(0.0, BOX_LENGTH, size=(batch, 3)).astype(np.float64)
    env = {
        "xi": machine.load_vec3(xi.astype(np.float64)),
        "xj": machine.load_vec3(xj.astype(np.float64)),
        "vel": machine.load_vec3(vel.astype(np.float64)),
        "posn": machine.load_vec3(posn),
    }
    for name, value in kernel_constants(LennardJones()).items():
        env[name] = machine.make_register(batch, float(value))
    env["dt"] = machine.make_register(batch, DT)
    env["zero"] = machine.make_register(batch, 0.0)
    env["self_flag"] = machine.make_register(batch, 0.0)
    return env


TIMESTEP_CASES = (
    (
        "spe",
        lambda: build_spe_timestep_kernel("simd_acceleration", BOX_LENGTH),
        _spe_timestep_env,
        np.float32,
    ),
    (
        "gpu",
        lambda: build_gpu_timestep_shader(BOX_LENGTH),
        _gpu_timestep_env,
        np.float32,
    ),
    (
        "mta",
        lambda: build_mta_timestep_program(BOX_LENGTH),
        _mta_timestep_env,
        np.float64,
    ),
)


class TestTimestepProgramsDifferential:
    @pytest.mark.parametrize("label,build,env_fn,dtype", TIMESTEP_CASES)
    def test_whole_timestep_three_backends(self, label, build, env_fn, dtype):
        program = build()
        results = _run_program_all_backends(
            program, lambda m: env_fn(m, 24), dtype=dtype
        )
        _assert_all_identical(program, results)

    @pytest.mark.parametrize("label,build,env_fn,dtype", TIMESTEP_CASES)
    @pytest.mark.parametrize("replicas", [2, 3, 8])
    def test_batched_equals_sequential(self, label, build, env_fn, dtype,
                                       replicas):
        """R replicas in one fused batch == R sequential runs, bit for bit."""
        program = build()
        rows = 8
        batch = replicas * rows

        fused = Machine(width=4, dtype=dtype, exec_backend="fused")
        env = env_fn(fused, batch)
        base = {name: reg.copy() for name, reg in env.items()}
        fused.run_program(program, env, replicas=replicas)

        sequential = Machine(width=4, dtype=dtype)
        for index in range(replicas):
            sub = {
                name: reg[index * rows : (index + 1) * rows].copy()
                for name, reg in base.items()
            }
            sequential.run_program(sub_program := program, sub, replicas=1)
            for name in sub_program.outputs:
                expect = env[name][index * rows : (index + 1) * rows]
                assert sub[name].tobytes() == expect.tobytes(), (
                    f"{label}: replica {index} output {name!r} differs "
                    "between batched and sequential execution"
                )
        assert _stats(fused) == _stats(sequential), (
            f"{label}: branch stats differ between batched and sequential"
        )

    @pytest.mark.parametrize("label,build,env_fn,dtype", TIMESTEP_CASES)
    def test_batched_replica_loop_on_compiled_backend(self, label, build,
                                                      env_fn, dtype):
        """replicas>1 looped replica by replica — through the per-segment
        compiled closures and through interp's sequential reference
        inside run_program — matches the fused batched result."""
        program = build()
        replicas, rows = 4, 6
        results = _run_program_all_backends(
            program, lambda m: env_fn(m, replicas * rows), dtype=dtype,
            replicas=replicas,
        )
        outs = {
            executor: (
                {name: env[name].tobytes() for name in program.outputs},
                stats,
            )
            for executor, (env, stats) in results.items()
        }
        assert outs["interp"] == outs["segments"] == outs["fused"]


# ---------------------------------------------------------------------------
# hypothesis: random multi-segment programs x replicas x dtypes
# ---------------------------------------------------------------------------

_REGS = tuple(f"r{i}" for i in range(4))
_INPUTS = ("in0", "in1")
_NAMES = _REGS + _INPUTS
_WIDTH = 4

_names_st = st.sampled_from(_NAMES)
_dest_st = st.sampled_from(_REGS)

_BINARY_OPS = ("fa", "fs", "fm", "fmin", "fmax", "and_", "or_",
               "fcgt", "fclt", "fceq")
_UNARY_OPS = ("fabs", "fneg", "fround", "mov", "lqd", "stqd")
_TERNARY_OPS = ("fma", "fms", "fnms", "selb")


@st.composite
def _instr_st(draw):
    kind = draw(st.sampled_from(("binary", "unary", "ternary", "lane")))
    dest = draw(_dest_st)
    if kind == "binary":
        op = draw(st.sampled_from(_BINARY_OPS))
        return Instr(op, dest, (draw(_names_st), draw(_names_st)))
    if kind == "unary":
        op = draw(st.sampled_from(_UNARY_OPS))
        return Instr(op, dest, (draw(_names_st),))
    if kind == "ternary":
        op = draw(st.sampled_from(_TERNARY_OPS))
        return Instr(op, dest,
                     (draw(_names_st), draw(_names_st), draw(_names_st)))
    op = draw(st.sampled_from(("splat", "shufb")))
    if op == "splat":
        return Instr(op, dest, (draw(_names_st),),
                     imm=draw(st.integers(0, _WIDTH - 1)))
    pattern = tuple(draw(st.lists(st.integers(0, 2 * _WIDTH - 1),
                                  min_size=_WIDTH, max_size=_WIDTH)))
    return Instr(op, dest, (draw(_names_st), draw(_names_st)), imm=pattern)


@st.composite
def _body_st(draw, depth=0):
    nodes = []
    for _ in range(draw(st.integers(1, 4 if depth else 6))):
        if depth < 1 and draw(st.booleans()) and draw(st.booleans()):
            nodes.append(IfBlock(
                cond=draw(_names_st),
                body=tuple(draw(_body_st(depth=depth + 1))),
                prob_key=f"branch{draw(st.integers(0, 2))}",
            ))
        else:
            nodes.append(draw(_instr_st()))
    return nodes


@st.composite
def _multi_segment_program_st(draw):
    """1-3 segments; cross-segment values flow via declared outputs
    (every register is declared, matching the driver programs' shape)."""
    n_segments = draw(st.integers(1, 3))
    segments = tuple(
        Segment(f"seg{i}", trips_key="trips",
                body=tuple(draw(_body_st())))
        for i in range(n_segments)
    )
    return Program(
        name="random_multi",
        segments=segments,
        inputs=_INPUTS,
        outputs=_REGS + _INPUTS,
    )


class TestRandomProgramsFusedDifferential:
    @given(program=_multi_segment_program_st(), seed=st.integers(0, 2**16),
           rows=st.integers(1, 3), replicas=st.integers(1, 4),
           dtype=st.sampled_from((np.float32, np.float64)))
    @settings(max_examples=80, deadline=None)
    def test_three_backends_and_replica_batching(self, program, seed, rows,
                                                 replicas, dtype):
        batch = rows * replicas
        rng = np.random.default_rng(seed)
        draws = {
            name: np.asarray(rng.uniform(-4.0, 4.0, size=(batch, _WIDTH)),
                             dtype=dtype)
            for name in _NAMES
        }

        def build_env(machine):
            return {name: value.copy() for name, value in draws.items()}

        # executors agree on the whole program, batched
        results = _run_program_all_backends(
            program, build_env, dtype=dtype, replicas=replicas
        )
        _assert_all_identical(program, results)

        # batched == sequential, replica by replica, stats included
        env_fused, stats_fused = results["fused"]
        sequential = Machine(width=_WIDTH, dtype=dtype)
        for index in range(replicas):
            sub = {
                name: value[index * rows : (index + 1) * rows].copy()
                for name, value in draws.items()
            }
            sequential.run_program(program, sub, replicas=1)
            for name in program.outputs:
                expect = env_fused[name][index * rows : (index + 1) * rows]
                assert sub[name].tobytes() == expect.tobytes()
        assert _stats(sequential) == stats_fused


class TestReplicaChunksWithWideConstants:
    """Per-batch constant arrays under replica batching and ragged chunks."""

    def _program(self) -> Program:
        pair = (
            Instr("ilv", "off", ("xi",), imm=(1.0, -0.0, 2.0, 0.0)),
            Instr("il", "half", ("xi",), imm=0.5),
            Instr("fa", "d", ("xi", "off")),
            Instr("splat", "d", ("d",), imm=2),
            Instr("fclt", "near", ("d", "xj")),
            IfBlock("near", (Instr("fm", "acc_out", ("d", "half")),), "near"),
            Instr("fcgt", "far", ("xj", "off")),
            Instr("selb", "acc_out", ("acc_out", "off", "far")),
        )
        integrate = (
            Instr("fma", "xi_out", ("acc_out", "off", "xi")),
        )
        return Program(
            name="wide_consts",
            segments=(
                Segment("pair", "trips", pair),
                Segment("integrate", "trips", integrate),
            ),
            inputs=("xi", "xj"),
            outputs=("acc_out", "xi_out"),
        )

    def test_ragged_last_chunk_bit_identical(self):
        # Replica-stacked chunks of 3 x 5 rows, then a ragged 2 x 3-row
        # last chunk: the fused unit builds its constant arrays once per
        # batch size and must match interp on every chunk.
        program = self._program()
        rng = np.random.default_rng(9)
        chunks = [(3, 5), (3, 5), (2, 3)]
        machines = {
            backend: Machine(width=4, exec_backend=backend)
            for backend in EXEC_BACKENDS
        }
        for replicas, rows in chunks:
            batch = replicas * rows
            draws = {
                name: rng.uniform(-3.0, 3.0, size=(batch, 4)).astype(np.float32)
                for name in ("xi", "xj")
            }
            draws["xj"][0, :2] = np.nan
            outs = {}
            for backend, machine in machines.items():
                env = {name: value.copy() for name, value in draws.items()}
                machine.run_program(program, env, replicas=replicas)
                outs[backend] = {name: env[name].tobytes() for name in program.outputs}
            assert outs["interp"] == outs["fused"]
        assert _stats(machines["interp"]) == _stats(machines["fused"])
        unit = compiled_program(program, 4, np.float32)
        assert len(unit.wide_consts) == 1
        assert {15, 6} <= set(unit._pools)


# ---------------------------------------------------------------------------
# cache keying: one entry per (program, segment names, width, dtype)
# ---------------------------------------------------------------------------


def _single_segment_program(segment_name: str) -> Program:
    return Program(
        name="alias_probe",
        segments=(Segment(segment_name, "trips", (
            Instr("fa", "y", ("x", "x")),
        )),),
        inputs=("x",),
        outputs=("y",),
    )


class TestCompileCacheScoping:
    def test_single_segment_program_shares_one_cache_entry(self):
        # Both granularities of a single-segment program are the same
        # _compile_unit(program, (name,)) call, so they are one entry and
        # run_segment / run_program agree byte for byte, branch stats
        # included.  A segment named "program" is just another name.
        for name in ("main", "program"):
            program = Program(
                name="alias_probe",
                segments=(Segment(name, "trips", (
                    Instr("fa", "y", ("x", "x")),
                    IfBlock("x", (Instr("fm", "y", ("y", "x")),), "p"),
                )),),
                inputs=("x",),
                outputs=("y",),
            )
            seg = compiled_segment(program, name, 4, np.float32)
            assert isinstance(seg, CompiledSegment)
            assert compiled_program(program, 4, np.float32) is seg
            outs = []
            for run in ("segment", "program"):
                machine = Machine(width=4)
                env = {"x": machine.make_register(3, 2.0)}
                env["x"][1] = 0.0
                if run == "segment":
                    machine.run_segment(program, name, env)
                else:
                    machine.run_program(program, env)
                outs.append((env["y"].tobytes(), _stats(machine)))
            assert outs[0] == outs[1]

    def test_fused_backend_run_segment_falls_back_to_segment_unit(self):
        # run_segment under "fused" executes the per-segment compiled
        # closure — granularities only diverge at run_program.
        program = build_spe_timestep_kernel("simd_acceleration", BOX_LENGTH)
        outs = {}
        for run in ("unit", "fused", "interp"):
            machine = Machine(
                width=4, exec_backend="interp" if run == "interp" else "fused"
            )
            env = _spe_timestep_env(machine, 12)
            if run == "unit":
                compiled_segment(program, "pair", 4, np.float32)(env, machine)
            else:
                machine.run_segment(program, "pair", env)
            outs[run] = {
                name: env[name].tobytes()
                for name in ("acc_out", "pe_out")
            }
        assert outs["unit"] == outs["fused"] == outs["interp"]

    def test_whole_program_cache_returns_same_object(self):
        program = build_spe_timestep_kernel("simd_acceleration", BOX_LENGTH)
        a = compiled_program(program, 4, np.float32)
        b = compiled_program(program, 4, np.float32)
        assert a is b
        assert a.segment_names == ("pair", "integrate")

    def test_whole_program_cache_distinguishes_dtype(self):
        program = build_spe_timestep_kernel("simd_acceleration", BOX_LENGTH)
        a = compiled_program(program, 4, np.float32)
        b = compiled_program(program, 4, np.float64)
        assert a is not b


# ---------------------------------------------------------------------------
# run_program error paths
# ---------------------------------------------------------------------------


class TestRunProgramErrors:
    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    def test_replicas_below_one_rejected(self, backend):
        program = _single_segment_program("main")
        machine = Machine(width=4, exec_backend=backend)
        env = {"x": machine.make_register(4, 1.0)}
        with pytest.raises(MachineError, match="replicas"):
            machine.run_program(program, env, replicas=0)

    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    def test_non_divisible_batch_rejected(self, backend):
        program = _single_segment_program("main")
        machine = Machine(width=4, exec_backend=backend)
        env = {"x": machine.make_register(5, 1.0)}
        with pytest.raises(MachineError, match="divisible"):
            machine.run_program(program, env, replicas=3)

    def test_replica_tallies_accumulate(self):
        program = _single_segment_program("main")
        machine = Machine(width=4)
        env = {"x": machine.make_register(6, 1.0)}
        machine.run_program(program, dict(env), replicas=3)
        machine.run_program(program, dict(env), replicas=1)
        assert machine.programs_run == 2
        assert machine.replicas_run == 4
