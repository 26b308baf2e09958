"""Tests for the batched SPMD interpreter."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.builder import Asm
from repro.vm.machine import EXEC_BACKENDS, Machine, MachineError, taken_rows
from repro.vm.program import Program, Segment

A = Asm()


def _program(body, inputs, outputs):
    prog = Program(
        "t", (Segment("main", "trips", tuple(body)),), inputs=inputs, outputs=outputs
    )
    prog.validate()
    return prog


def _run(machine, body, env, inputs, outputs):
    prog = _program(body, inputs, outputs)
    return machine.run_segment(prog, "main", env)


class TestBasics:
    def test_elementwise_over_batch(self):
        m = Machine(width=4, dtype=np.float32, exec_backend="interp")
        x = m.load_vec3(np.arange(30, dtype=np.float32).reshape(10, 3))
        env = {"x": x}
        _run(m, [A.fa("y", "x", "x")], env, ("x",), ("y",))
        np.testing.assert_allclose(env["y"], 2 * x)

    def test_load_vec3_pads_fourth_lane(self):
        m = Machine(width=4, exec_backend="interp")
        reg = m.load_vec3(np.ones((3, 3)), batch_pad=7.0)
        np.testing.assert_allclose(reg[:, 3], 7.0)

    def test_load_vec3_rejects_too_wide(self):
        m = Machine(width=4, exec_backend="interp")
        with pytest.raises(MachineError):
            m.load_vec3(np.ones((3, 5)))

    def test_rejects_width_below_one(self):
        with pytest.raises(ValueError):
            Machine(width=0)

    def test_undefined_register_raises(self):
        m = Machine(exec_backend="interp")
        with pytest.raises(MachineError):
            m._exec_instr(A.fa("y", "x", "x"), {}, [])

    def test_inconsistent_batch_raises(self):
        m = Machine(exec_backend="interp")
        env = {"a": m.make_register(4), "b": m.make_register(5)}
        prog = _program([A.fa("y", "a", "a")], ("a", "b"), ("y",))
        with pytest.raises(MachineError):
            m.run_segment(prog, "main", env)


class TestLoops:
    def test_loop_accumulates(self):
        m = Machine(width=4, exec_backend="interp")
        env = {"acc": m.make_register(3, 0.0), "one": m.make_register(3, 1.0)}
        _run(
            m,
            [A.loop(5, [A.fa("acc", "acc", "one")])],
            env,
            ("acc", "one"),
            ("acc",),
        )
        np.testing.assert_allclose(env["acc"], 5.0)

    def test_per_iteration_scalar_immediates(self):
        m = Machine(width=4, exec_backend="interp")
        env = {"acc": m.make_register(2, 0.0)}
        body = [
            A.il("k", "acc", (1.0, 10.0, 100.0)),
            A.fa("acc", "acc", "k"),
        ]
        _run(m, [A.loop(3, body)], env, ("acc",), ("acc",))
        np.testing.assert_allclose(env["acc"], 111.0)

    def test_per_iteration_vector_immediates(self):
        m = Machine(width=4, exec_backend="interp")
        env = {"acc": m.make_register(1, 0.0)}
        body = [
            A.ilv("k", "acc", ((1.0, 0.0, 0.0, 0.0), (0.0, 2.0, 0.0, 0.0))),
            A.fa("acc", "acc", "k"),
        ]
        _run(m, [A.loop(2, body)], env, ("acc",), ("acc",))
        np.testing.assert_allclose(env["acc"], [[1.0, 2.0, 0.0, 0.0]])


class TestPredication:
    def test_if_selects_lanewise(self):
        m = Machine(width=4, exec_backend="interp")
        env = {
            "x": m.make_register(2, 1.0),
            "m": m.make_register(2, 0.0),
        }
        env["m"][0] = 1.0  # row 0 taken, row 1 not
        _run(
            m,
            [A.if_("m", [A.fa("x", "x", "x")], prob_key="p")],
            env,
            ("x", "m"),
            ("x",),
        )
        np.testing.assert_allclose(env["x"][0], 2.0)
        np.testing.assert_allclose(env["x"][1], 1.0)

    def test_if_zeroes_registers_first_defined_inside(self):
        m = Machine(width=4, exec_backend="interp")
        env = {
            "x": m.make_register(2, 3.0),
            "m": m.make_register(2, 0.0),
        }
        env["m"][1] = 1.0
        _run(
            m,
            [A.if_("m", [A.fm("y", "x", "x")], prob_key="p")],
            env,
            ("x", "m"),
            ("x",),
        )
        np.testing.assert_allclose(env["y"][0], 0.0)  # untaken: additive identity
        np.testing.assert_allclose(env["y"][1], 9.0)

    def test_branch_probability_measured(self):
        m = Machine(width=4, exec_backend="interp")
        env = {
            "x": m.make_register(4, 1.0),
            "m": m.make_register(4, 0.0),
        }
        env["m"][:1] = 1.0  # 25% taken
        _run(
            m,
            [A.if_("m", [A.fa("x", "x", "x")], prob_key="pk")],
            env,
            ("x", "m"),
            ("x",),
        )
        assert m.measured_probability("pk") == pytest.approx(0.25)

    def test_measured_probability_requires_samples(self):
        m = Machine(exec_backend="interp")
        with pytest.raises(KeyError):
            m.measured_probability("never")

    @pytest.mark.parametrize("width", [1, 3, 4, 8])
    @pytest.mark.parametrize("rows", [0, 1, 37])
    def test_taken_rows_matches_any(self, width, rows):
        mask = np.random.default_rng(width * 100 + rows).random((rows, width)) < 0.2
        np.testing.assert_array_equal(taken_rows(mask), mask.any(axis=-1))
        # a strided 4-lane view takes the fallback
        strided = np.repeat(mask, 2, axis=1)[:, ::2]
        np.testing.assert_array_equal(taken_rows(strided), mask.any(axis=-1))


class TestBlocks:
    """Chunks run inside ``Machine.block`` observe like one call over the
    whole batch: one branch sample per probe, not one per chunk."""

    @staticmethod
    def _env(m, batch):
        env = {"x": m.make_register(batch, 1.0), "m": m.make_register(batch, 0.0)}
        env["m"][::3, 1] = 1.0  # rows 0, 3, 6, ... taken
        return env

    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    def test_chunks_record_the_block_sample(self, backend):
        program = Program(
            "blk",
            (Segment("main", "t", (
                A.if_("m", [A.fa("x", "x", "x")], prob_key="pk"),
                A.if_("m", [A.fm("x", "x", "x")], prob_key="pk"),
            )),),
            inputs=("x", "m"), outputs=("x",),
        )
        whole = Machine(width=4, exec_backend=backend)
        whole.run_segment(program, "main", self._env(whole, 10))
        chunked = Machine(width=4, exec_backend=backend)
        env = self._env(chunked, 10)
        with chunked.block(program, {}):
            for lo in (0, 4, 8):
                chunked.run_segment(
                    program, "main", {k: v[lo : lo + 4] for k, v in env.items()}
                )
            assert chunked.branch_stats == {}  # recorded when the block ends
        assert chunked.branch_snapshot("pk") == whole.branch_snapshot("pk")
        assert chunked.branch_snapshot("pk") == (0.8, 2)

    def test_blocks_do_not_nest_or_run_programs(self):
        m = Machine(width=4)
        program = Program(
            "p", (Segment("main", "t", (A.fa("y", "x", "x"),)),),
            inputs=("x",), outputs=("y",),
        )
        with m.block(program, {}):
            with pytest.raises(MachineError):
                with m.block(program, {}):
                    pass
            with pytest.raises(MachineError):
                m.run_program(program, {"x": m.make_register(2)})


class TestComposites:
    def test_hsum3(self):
        m = Machine(width=4, exec_backend="interp")
        env = {"v": m.load_vec3(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))}
        _run(m, A.hsum3("s", "v", tmp="t"), env, ("v",), ("s",))
        np.testing.assert_allclose(env["s"][:, 0], [6.0, 15.0])
        # splatted across lanes
        np.testing.assert_allclose(env["s"], env["s"][:, :1] * np.ones(4))

    def test_rsqrt_refined(self):
        m = Machine(width=4, dtype=np.float64, exec_backend="interp")
        env = {
            "x": m.make_register(1, 16.0),
            "half": m.make_register(1, 0.5),
            "three": m.make_register(1, 3.0),
        }
        _run(
            m,
            A.rsqrt_refined("y", "x", tmp="t", half="half", three="three"),
            env,
            ("x", "half", "three"),
            ("y",),
        )
        np.testing.assert_allclose(env["y"], 0.25, rtol=1e-12)

    def test_recip_refined(self):
        m = Machine(width=4, dtype=np.float64, exec_backend="interp")
        env = {"x": m.make_register(1, 8.0), "two": m.make_register(1, 2.0)}
        _run(
            m,
            A.recip_refined("y", "x", tmp="t", two="two"),
            env,
            ("x", "two"),
            ("y",),
        )
        np.testing.assert_allclose(env["y"], 0.125, rtol=1e-12)

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property_hsum3_matches_numpy(self, coords):
        m = Machine(width=4, dtype=np.float64, exec_backend="interp")
        env = {"v": m.load_vec3(np.array([coords]))}
        _run(m, A.hsum3("s", "v", tmp="t"), env, ("v",), ("s",))
        assert env["s"][0, 0] == pytest.approx(sum(coords), rel=1e-12, abs=1e-9)
