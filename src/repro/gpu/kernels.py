"""The MD acceleration shader (paper section 5.2) and the reduction
alternative it avoided.

One shader invocation computes the acceleration of one atom: it "scans
the entire input array, i.e. all the atom positions, for atoms close
enough to interact, and accumulates their contributed forces into a
single acceleration value".  Because fragment programs of that era had
no usable dynamic branching, the cutoff is applied with selects — the
force math runs for every pair and is masked, so the shader's cost is
data-independent.

The per-atom potential-energy contribution rides in the fourth
component of the output ("we can simply store each atom's PE
contribution in the fourth component, and when we read back the
accelerations these values are retrieved for free").
"""

from __future__ import annotations

import math

from repro.gpu.shader import ShaderProgram
from repro.md.lj import LennardJones
from repro.vm.builder import Asm
from repro.vm.program import Node, Program, Segment

__all__ = [
    "build_md_shader",
    "build_gpu_timestep_shader",
    "shader_constants",
    "reduction_pass_count",
    "build_reduction_shader",
    "gpu_reduce",
]


def shader_constants(potential: LennardJones, box_length: float) -> dict[str, float]:
    """Constants compiled into the shader ("constants were compiled into
    the shader program source using the provided JIT compiler")."""
    return {
        "rc2": potential.rcut2,
        "sigma2": potential.sigma * potential.sigma,
        "c24eps": 24.0 * potential.epsilon,
        "c4eps": 4.0 * potential.epsilon,
        "shiftE": potential.shift_energy,
        "one": 1.0,
        "two": 2.0,
        "boxL": box_length,
        "invL": 1.0 / box_length,
    }


_CONSTS = ("rc2", "sigma2", "c24eps", "c4eps", "shiftE", "one", "two", "boxL", "invL")


def _pair_body(a: Asm) -> list[Node]:
    """The per-pair force body shared by the MD shader and the
    whole-timestep shader."""
    return [
        a.texfetch("pj", "xj"),
        a.fs("d", "xi", "pj"),
        # minimum image, closed form: d -= L * round(d * (1/L))
        a.fm("dl", "d", "invL"),
        a.fround("rnd", "dl"),
        a.fnms("d", "rnd", "boxL", "d"),
        # squared distance via multiply + horizontal sum (DP3-style)
        a.fm("sq", "d", "d"),
        *a.hsum3("r2", "sq", tmp="ht"),
        # cutoff + self-pair mask, branchless
        a.fclt("mwithin", "r2", "rc2"),
        a.fs("notself", "one", "self_flag"),
        a.and_("mask", "mwithin", "notself"),
        # force math runs unconditionally; results are masked at the end
        a.fmax("r2safe", "r2", "tiny"),
        a.frest("inv_r2", "r2safe"),
        a.fm("s2", "sigma2", "inv_r2"),
        a.fm("s4", "s2", "s2"),
        a.fm("sr6", "s4", "s2"),
        a.fm("sr12", "sr6", "sr6"),
        a.fms("tt", "sr12", "two", "sr6"),
        a.fm("fmag", "c24eps", "tt"),
        a.fm("fr", "fmag", "inv_r2"),
        a.fm("fvec", "fr", "d"),
        a.selb("fvec", "zero", "fvec", "mask"),
        a.fs("pdiff", "sr12", "sr6"),
        a.fm("pen", "c4eps", "pdiff"),
        a.fs("pe", "pen", "shiftE"),
        a.selb("pe", "zero", "pe", "mask"),
        # PE rides in the fourth component of the output
        a.shufb("acc_out", "fvec", "pe", (0, 1, 2, 4)),
    ]


def build_md_shader(box_length: float) -> ShaderProgram:
    """The per-pair body of the MD fragment program.

    Register contract (see :class:`repro.gpu.device.GpuPairSweep`):
    ``xi`` is the output atom's position, ``xj`` the scanned partner
    (fetched from the position texture), ``self_flag`` marks the
    self-pair; the output ``acc_out`` carries (fx, fy, fz, pe).
    """
    a = Asm()
    program = Program(
        name="gpu_md_shader",
        segments=(Segment("pair", "pairs", tuple(_pair_body(a))),),
        inputs=("xi", "xj", "self_flag", "zero", "tiny") + _CONSTS,
        outputs=("acc_out",),
    )
    program.validate()
    return ShaderProgram(
        program=program,
        input_arrays=("xj",),
        output_register="acc_out",
    )


def build_gpu_timestep_shader(box_length: float) -> Program:
    """The whole-timestep GPU program: pair force pass + integration pass.

    The two render passes of a GPU timestep (force shader, then the
    pointwise integration shader over the acceleration texture) become
    two segments of one program.  ``acc_out`` carries (fx, fy, fz, pe);
    the integrator masks the PE lane to zero before the kick so the
    velocity's padding lane stays clean, then ``vi' = vi + a*dt`` and
    ``xi' = xi + vi'*dt``.  Under the ``fused`` backend the acceleration
    never round-trips through a render target — the exact dispatch the
    whole-timestep fusion removes.
    """
    a = Asm()
    integrate: list[Node] = [
        a.shufb("facc", "acc_out", "zero", (0, 1, 2, 4)),
        a.fma("vi_out", "facc", "dt", "vi"),
        a.fma("xi_out", "vi_out", "dt", "xi"),
    ]
    program = Program(
        name="gpu_md_timestep",
        segments=(
            Segment("pair", "pairs", tuple(_pair_body(a))),
            Segment("integrate", "pairs", tuple(integrate)),
        ),
        inputs=("xi", "xj", "self_flag", "vi", "dt", "zero", "tiny") + _CONSTS,
        outputs=("acc_out", "xi_out", "vi_out"),
    )
    program.validate()
    return program


def reduction_pass_count(n_elements: int, fanin: int = 4) -> int:
    """Gather passes needed to sum ``n_elements`` values on the GPU.

    This is the multi-pass reduction the paper rejected for the PE sum
    ("this method introduces significant overheads"); the ablation
    benchmark prices it against the PE-in-w trick.
    """
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    if fanin < 2:
        raise ValueError("fanin must be >= 2")
    passes = 0
    remaining = n_elements
    while remaining > 1:
        remaining = math.ceil(remaining / fanin)
        passes += 1
    return passes


def build_reduction_shader(fanin: int = 4) -> ShaderProgram:
    """One gather pass: each output element sums ``fanin`` inputs.

    Each input register ``src<i>`` is the same source texture sampled at
    a different coordinate (the driver materializes the strided views);
    the shader itself only gathers and adds, as the streaming model
    requires.
    """
    if fanin < 2:
        raise ValueError("fanin must be >= 2")
    a = Asm()
    sources = tuple(f"src{i}" for i in range(fanin))
    body: list[Node] = [a.texfetch("acc", sources[0])]
    for i in range(1, fanin):
        body.append(a.texfetch(f"v{i}", sources[i]))
        body.append(a.fa("acc", "acc", f"v{i}"))
    body.append(a.mov("red_out", "acc"))
    program = Program(
        name=f"gpu_reduce_{fanin}",
        segments=(Segment("element", "elements", tuple(body)),),
        inputs=sources,
        outputs=("red_out",),
    )
    program.validate()
    return ShaderProgram(
        program=program, input_arrays=sources, output_register="red_out"
    )


def gpu_reduce(
    values, fanin: int = 4, exec_backend: str = "fused"
) -> tuple[float, int]:
    """Sum ``values`` through actual multi-pass gather shader executions.

    Returns (total, n_passes).  Functional counterpart of
    :func:`reduction_pass_count`: each pass runs the reduction shader on
    the batched VM over strided views of the previous pass's output,
    exactly as the ping-pong render-target scheme would.  Runs on the
    default ``fused`` VM backend unless overridden.
    """
    import numpy as np

    from repro.vm.machine import Machine

    values = np.asarray(values, dtype=np.float32).ravel()
    if values.size == 0:
        raise ValueError("cannot reduce an empty array")
    shader = build_reduction_shader(fanin)
    machine = Machine(width=4, dtype=np.float32, exec_backend=exec_backend)
    passes = 0
    current = values
    while current.size > 1:
        padded_size = -(-current.size // fanin) * fanin
        padded = np.zeros(padded_size, dtype=np.float32)
        padded[: current.size] = current
        n_out = padded_size // fanin
        env = {
            f"src{i}": machine.load_vec3(padded[i::fanin, None])
            for i in range(fanin)
        }
        machine.run_segment(shader.program, "element", env)
        current = env["red_out"][:, 0].copy()
        assert current.size == n_out
        passes += 1
    return float(current[0]), passes
