"""Guard the fused backend's codegen against NumPy's slow paths.

The differential suites prove the compiled closures are bit-identical
to the interpreter; they do not notice when the emitted code gets slow
again.  These checks read the generated source of every shipped program
for the three patterns that once dominated the Figure-5 kernels' run
time (each costs several times the arithmetic it wraps on a 16K-pair
chunk):

* a broadcast splat ``d[...] = s[..., k:k+1]`` instead of ``width``
  strided lane copies;
* a ufunc, ``copyto`` or ``where=`` operand that is a ``(width,)`` row,
  which NumPy broadcasts with a ``width``-element inner loop, instead of
  a scalar or a full ``(batch, width)`` array;
* a compare whose float 0/1 result only feeds a ``!= 0`` mask, instead
  of writing the bool mask slot directly.
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
from repro.vm.compile import compiled_program

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
_COMPARE = re.compile(r"^np\.(greater|less|equal)\(.*out=(_f\d+)\)$")
_MASK = re.compile(r"^np\.not_equal\((_f\d+), 0, out=_b\d+\)$")


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
            line for line in body if re.match(r"^np\.less\(.*out=_b\d+\)$", line)
        ]
        assert len(into_masks) == 9


def test_uniform_constants_are_scalars():
    # The reflection offsets (-L, 0, +L) are uniform: scalar operands,
    # no per-batch arrays.
    unit = _compiled("spe_md_original")
    assert unit.wide_consts == ()
    assert re.search(r"np\.add\(_f\d+, _c\d+, out=_f\d+\)", unit.source)
