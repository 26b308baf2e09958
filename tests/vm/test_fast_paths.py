"""Guard the fused backend's codegen against NumPy's slow paths.

The differential suites prove the compiled closures are bit-identical
to the interpreter; they do not notice when the emitted code gets slow
again.  These checks read the generated source of every shipped program
for the three patterns that once dominated the Figure-5 kernels' run
time (each costs several times the arithmetic it wraps on a 16K-pair
chunk):

* a broadcast splat ``d[...] = s[..., k:k+1]`` instead of one column
  extract;
* a ufunc, ``copyto`` or ``where=`` operand that is a ``(width,)`` row,
  which NumPy broadcasts with a ``width``-element inner loop, instead of
  a scalar or a full ``(batch, width)`` array;
* a compare whose float 0/1 result only feeds a ``!= 0`` mask, instead
  of writing the bool mask slot directly.

The scalar Figure-5 levels splat every component into all four lanes;
compiled as the pair sweep runs them (every input but ``xi``/``xj``
declared lane-uniform), their splat chains must stay in ``(batch,)``
slots, no ufunc may mix a ``(batch,)`` operand with a wide one (NumPy
broadcasts that several times slower than either shape alone), and a
uniform value is widened at most once.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.cell.kernels import (
    OPT_LEVELS,
    build_spe_kernel,
    build_spe_timestep_kernel,
)
from repro.gpu.kernels import (
    build_gpu_timestep_shader,
    build_md_shader,
    build_reduction_shader,
)
from repro.mta.kernels import (
    build_mta_integration_program,
    build_mta_pair_program,
    build_mta_timestep_program,
)
from repro.vm.compile import compiled_program, compiled_segment
from repro.vm.sweep import uniform_inputs

BOX_LENGTH = 6.0
WIDTH = 4

SHIPPED = {
    **{
        f"spe_md_{level}": (lambda level=level: build_spe_kernel(level, BOX_LENGTH))
        for level in OPT_LEVELS
    },
    **{
        f"spe_md_timestep_{level}": (
            lambda level=level: build_spe_timestep_kernel(level, BOX_LENGTH)
        )
        for level in OPT_LEVELS
    },
    "gpu_md_shader": lambda: build_md_shader(BOX_LENGTH).program,
    "gpu_md_timestep": lambda: build_gpu_timestep_shader(BOX_LENGTH),
    "gpu_reduce_4": lambda: build_reduction_shader(4).program,
    "mta_pair": lambda: build_mta_pair_program(BOX_LENGTH),
    "mta_integration": build_mta_integration_program,
    "mta_md_timestep": lambda: build_mta_timestep_program(BOX_LENGTH),
}

_BROADCAST_SPLAT = re.compile(r"\[\.\.\., *\d+ *: *\d+\]")
_NAME = re.compile(r"\b_[A-Za-z]+\d*\b")
_COMPARE = re.compile(r"^np\.(greater|less|equal)\(.*out=(_u?f\d+)\)$")
_MASK = re.compile(r"^np\.not_equal\((_u?f\d+), 0, out=_u?b\d+\)$")
#: ``(batch,)`` operands: uniform slots and declared inputs' lane-0 columns
_NARROW = re.compile(r"^(_u[fb]\d+|_in\d+c)$")
#: ``(batch, width)`` operands: wide slots, wide constants, env registers
_WIDE = re.compile(r"^(_[fbwm]\d+|_in\d+)$")
_UFUNC_CALL = re.compile(r"^np\.\w+\((.*)\)$")
_LANE_WRITE = re.compile(r"^(_[fb]\d+)\[\.\.\., (\d+)\] = (\S+)$")


def _body(source: str) -> list[str]:
    """The statements inside the closure's ``errstate`` block."""
    lines = source.splitlines()
    start = next(i for i, line in enumerate(lines) if "np.errstate" in line)
    return [line.strip() for line in lines[start + 1 :]]


def _compiled(name: str):
    """The whole-program unit, at the dtype the program's device runs."""
    dtype = np.float64 if name.startswith("mta") else np.float32
    return compiled_program(SHIPPED[name](), WIDTH, dtype)


@pytest.mark.parametrize("name", sorted(SHIPPED))
class TestShippedProgramsAvoidSlowPaths:
    def test_no_broadcast_splat(self, name):
        unit = _compiled(name)
        assert _BROADCAST_SPLAT.search(unit.source) is None, unit.source

    def test_no_lane_row_operands(self, name):
        unit = _compiled(name)
        namespace = unit._fn.__globals__
        operand_lines = [
            line for line in unit.source.splitlines()
            if (line.strip().startswith("np.") and "np.tile(" not in line)
            or "env.get(" in line
        ]
        for line in operand_lines:
            for var in _NAME.findall(line):
                value = namespace.get(var)
                assert not (isinstance(value, np.ndarray) and value.ndim < 2), (
                    f"{name}: {var} is a {getattr(value, 'shape', None)} row "
                    f"operand in {line.strip()!r}"
                )

    def test_no_mixed_operand_shapes(self, name):
        for line in _body(_compiled(name).source):
            assert len(_operand_shapes(line)) <= 1, f"{name}: {line}"

    def test_mask_only_compares_write_bool_slots(self, name):
        body = _body(_compiled(name).source)
        for index, line in enumerate(body):
            compare = _COMPARE.match(line)
            if compare is None:
                continue
            slot = compare.group(2)
            mentions = [
                i for i in range(index + 1, len(body))
                if re.search(rf"\b{slot}\b", body[i])
            ]
            if not mentions or not _MASK.match(body[mentions[0]]):
                continue
            # The compare feeds a mask: it needed its float result only
            # if the slot is read again before being overwritten.
            rest = mentions[1:]
            read_again = rest and not _overwrites(body[rest[0]], slot)
            assert read_again, (
                f"{name}: {line!r} only feeds {body[mentions[0]]!r}; "
                "it should write the bool mask directly"
            )


def _overwrites(line: str, slot: str) -> bool:
    """True when ``line`` writes ``slot`` without reading it first."""
    if line.startswith(f"{slot}[..., 0] = "):
        return True  # a lane op writes every lane of a dest it never reads
    if line.endswith(f"out={slot})"):
        return re.search(rf"\b{slot}\b", line.split("out=")[0]) is None
    return re.match(rf"^np\.copyto\({slot}, [^,]+\)$", line) is not None


def test_spe_kernels_fuse_their_reflection_compares():
    # The guard above is vacuous if no kernel has a fusable compare: the
    # scalar Figure-5 levels' image-reflection branches all do.
    for level in ("original", "copysign"):
        body = _body(_compiled(f"spe_md_{level}").source)
        into_masks = [
            line for line in body if re.match(r"^np\.less\(.*out=_u?b\d+\)$", line)
        ]
        assert len(into_masks) == 9


def _sweep_unit(program):
    """The ``pair`` unit as :class:`~repro.vm.sweep.PairSweep` compiles it."""
    return compiled_segment(
        program, "pair", WIDTH, np.float32, uniform_inputs(program)
    )


def test_uniform_constants_are_scalars():
    # The reflection offsets (-L, 0, +L) are uniform: scalar operands,
    # no per-batch arrays.
    unit = _compiled("spe_md_original")
    assert unit.wide_consts == ()
    assert re.search(r"np\.add\(_uf\d+, _c\d+, out=_uf\d+\)", unit.source)
    # The shader's constants are inputs the sweep fills with one value
    # per row: its pair unit reads each through its lane-0 column and
    # never reads the wide register itself.
    program = build_md_shader(BOX_LENGTH).program
    unit = _sweep_unit(program)
    assert unit.wide_consts == ()
    body = "\n".join(_body(unit.source))
    for index, name in enumerate(sorted(program.inputs)):
        if name in ("xi", "xj"):
            assert re.search(rf"\b_in{index}\b", body), name
            continue
        assert f"    _in{index}c = _in{index}[..., 0]\n" in unit.source, name
        assert re.search(rf"\b_in{index}\b", body) is None, name


def _operand_shapes(line: str) -> set[str]:
    """``narrow``/``wide`` for each slot or register a ufunc call names."""
    call = _UFUNC_CALL.match(line)
    if call is None:
        return set()
    shapes = set()
    for token in re.split(r"[,=]\s*", call.group(1)):
        token = token.strip()
        if _NARROW.match(token):
            shapes.add("narrow")
        elif _WIDE.match(token):
            shapes.add("wide")
    return shapes


@pytest.mark.parametrize("program", [
    *(pytest.param(build_spe_kernel(level, BOX_LENGTH), id=f"spe:{level}")
      for level in OPT_LEVELS),
    pytest.param(build_md_shader(BOX_LENGTH).program, id="gpu:shader"),
])
def test_sweep_units_never_mix_operand_shapes(program):
    for line in _body(_sweep_unit(program).source):
        assert len(_operand_shapes(line)) <= 1, line


@pytest.mark.parametrize("level", ["original", "copysign"])
class TestScalarLevelsRunNarrow:
    """The scalar levels splat x, y and z of both positions and then do
    every step of the pair on those splats; only the final lane shuffles
    and the masked stores of the two outputs are wide."""

    def test_splat_chains_stay_narrow(self, level):
        body = _body(_sweep_unit(build_spe_kernel(level, BOX_LENGTH)).source)
        splats = [line for line in body if line.startswith("np.copyto(_uf")
                  and re.search(r"_in\d+\[\.\.\., [0-2]\]\)$", line)]
        assert len(splats) == 6  # x, y, z of xi and xj: one column each
        arithmetic = [
            line for line in body
            if _UFUNC_CALL.match(line) and not line.startswith("np.copyto(")
        ]
        assert arithmetic
        for line in arithmetic:
            assert _operand_shapes(line) == {"narrow"}, line

    def test_widens_each_value_at_most_once(self, level):
        body = _body(_sweep_unit(build_spe_kernel(level, BOX_LENGTH)).source)
        version = {}  # narrow slot -> times written so far
        widened = set()
        for index, line in enumerate(body):
            # A widen: lanes 0..width-1 of one wide slot copied from one
            # narrow value, on consecutive lines.
            group = [_LANE_WRITE.match(row) for row in body[index : index + WIDTH]]
            if (
                all(group)
                and [m.group(2) for m in group] == [str(k) for k in range(WIDTH)]
                and len({(m.group(1), m.group(3)) for m in group}) == 1
                and _NARROW.match(group[0].group(3))
            ):
                source = group[0].group(3)
                value = (source, version.get(source, 0))
                assert value not in widened, f"{source} widened twice"
                widened.add(value)
            written = re.search(r"out=(_u[fb]\d+)\)$", line) or re.match(
                r"^np\.copyto\((_u[fb]\d+),", line
            )
            if written:
                slot = written.group(1)
                version[slot] = version.get(slot, 0) + 1
        assert widened  # the masked stores read widened values
