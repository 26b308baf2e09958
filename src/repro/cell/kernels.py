"""The six SPE kernel variants of the paper's Figure 5.

Section 5.1 describes an optimization ladder for the acceleration
kernel, applied cumulatively:

1. ``original``           — the scalar port of the CPU code: component-
   wise direction/length math, a branchy per-axis minimum-image search.
2. ``copysign``           — "replace an if test in that section with
   extra math": the search's compare-and-keep becomes branchless selects.
3. ``simd_reflection``    — "all three axes could be searched
   simultaneously using the SIMD intrinsics": the per-axis scalar search
   loops collapse into one 3-iteration SIMD search.
4. ``simd_direction``     — the 3-component direction-vector subtraction
   becomes one SIMD subtract.
5. ``simd_length``        — the length calculation (dot product + rsqrt)
   becomes SIMD + horizontal sum.
6. ``simd_acceleration``  — converting the scalar force into the 3D
   acceleration vector becomes SIMD (inside the rarely-taken interacting
   branch, hence the paper's mere 3% gain).

Each variant is a complete, runnable VM program: the functional tests
execute all six over real configurations and assert they produce the
reference forces; the cycle model schedules the exact instruction
streams to produce Figure 5's runtimes.

Register convention (driver contract, see
:class:`repro.cell.spe.SpePairSweep`): inputs ``xi``/``xj`` hold the two
positions as (x, y, z, 0) vectors; ``self_flag`` is 1.0 on self-pairs;
constants are preloaded registers; outputs are ``acc_out`` (force
contribution as (fx, fy, fz, junk)) and ``pe_out`` (PE contribution in
lane 0).
"""

from __future__ import annotations

import dataclasses

from repro.md.lj import LennardJones
from repro.vm.builder import Asm
from repro.vm.program import Node, Program, Segment

__all__ = [
    "OPT_LEVELS",
    "OptimizationFlags",
    "build_spe_kernel",
    "build_spe_timestep_kernel",
    "kernel_constants",
    "timestep_constants",
]

#: The Figure-5 ladder, in paper order.
OPT_LEVELS = (
    "original",
    "copysign",
    "simd_reflection",
    "simd_direction",
    "simd_length",
    "simd_acceleration",
)


@dataclasses.dataclass(frozen=True)
class OptimizationFlags:
    """Which SIMDizations are applied (cumulative along the ladder)."""

    branchless_select: bool = False
    simd_reflection: bool = False
    simd_direction: bool = False
    simd_length: bool = False
    simd_acceleration: bool = False

    @classmethod
    def for_level(cls, level: str) -> "OptimizationFlags":
        if level not in OPT_LEVELS:
            raise ValueError(f"unknown optimization level {level!r}")
        index = OPT_LEVELS.index(level)
        return cls(
            branchless_select=index >= 1,
            simd_reflection=index >= 2,
            simd_direction=index >= 3,
            simd_length=index >= 4,
            simd_acceleration=index >= 5,
        )


def kernel_constants(potential: LennardJones) -> dict[str, float]:
    """The constant registers every kernel variant expects preloaded."""
    return {
        "rc": potential.rcut,
        "sigma2": potential.sigma * potential.sigma,
        "c24eps": 24.0 * potential.epsilon,
        "c4eps": 4.0 * potential.epsilon,
        "shiftE": potential.shift_energy,
        "half": 0.5,
        "three": 3.0,
        "two": 2.0,
        "one": 1.0,
    }


_CONSTANT_REGS = (
    "rc",
    "sigma2",
    "c24eps",
    "c4eps",
    "shiftE",
    "half",
    "three",
    "two",
    "one",
)

_AXES = ("x", "y", "z")


def _scalar_direction(a: Asm) -> list[Node]:
    """Component-wise direction: extract lanes, subtract per component.

    The scalar path pays the cost real scalar SPE code paid: each
    component is extracted into the preferred slot and the result is
    round-tripped through the local store (the 4.x-era SPE compilers
    materialized element accesses as memory traffic — section 3.1.1
    notes they were "unable to perform significant code optimization").
    """
    nodes: list[Node] = []
    for lane, axis in enumerate(_AXES):
        nodes.append(a.splat(f"xi{axis}", "xi", lane))
        nodes.append(a.splat(f"xj{axis}", "xj", lane))
        nodes.append(a.fs(f"d{axis}", f"xi{axis}", f"xj{axis}"))
        nodes.append(a.stqd(f"dspill{axis}", f"d{axis}"))
    return nodes


def _simd_direction(a: Asm) -> list[Node]:
    """One SIMD subtract yields all three components at once."""
    return [a.fs("d", "xi", "xj")]


def _pack3(a: Asm, dest: str, x: str, y: str, z: str, tmp: str) -> list[Node]:
    """Pack three splatted scalars into one (x, y, z, z) vector."""
    return [
        a.shufb(tmp, x, y, (0, 4, 0, 4)),
        a.shufb(dest, tmp, z, (0, 1, 4, 4)),
    ]


def _scalar_reflection(a: Asm, branchless: bool, box_length: float) -> list[Node]:
    """Per-axis minimum-image search: 3 axes x 3 candidate offsets.

    The branchy form keeps the better candidate with an if (penalized —
    the SPE has no branch prediction); the copysign form does it with
    compare + two selects, the paper's "extra math".
    """
    nodes: list[Node] = []
    offsets = (-box_length, 0.0, box_length)
    for axis in _AXES:
        d = f"d{axis}"
        best = f"b{axis}"
        bestabs = f"ba{axis}"
        nodes.append(a.mov(best, d))
        nodes.append(a.fabs(bestabs, d))
        keep = [
            a.mov(best, f"cand{axis}"),
            a.mov(bestabs, f"candabs{axis}"),
            # the kept candidate is written back to its stack slot
            a.stqd(f"bspill{axis}", best),
        ]
        body: list[Node] = [
            a.il(f"off{axis}", d, offsets),
            a.fa(f"cand{axis}", d, f"off{axis}"),
            a.fabs(f"candabs{axis}", f"cand{axis}"),
            a.fclt(f"m{axis}", f"candabs{axis}", bestabs),
        ]
        if branchless:
            body.append(a.selb(best, best, f"cand{axis}", f"m{axis}"))
            body.append(a.selb(bestabs, bestabs, f"candabs{axis}", f"m{axis}"))
        else:
            body.append(a.if_(f"m{axis}", keep, prob_key="reflect_take"))
        # overhead 4: counter update, stack-slot address, compare, loop branch
        nodes.append(a.loop(3, body, overhead=4))
    return nodes


def _simd_reflection(a: Asm, box_length: float, d_reg: str) -> list[Node]:
    """All three axes searched simultaneously: one 3-iteration SIMD loop."""
    vec = lambda v: (v, v, v, 0.0)  # noqa: E731 - tiny local helper
    offsets = (vec(-box_length), vec(0.0), vec(box_length))
    body: list[Node] = [
        a.ilv("offv", d_reg, offsets),
        a.fa("candv", d_reg, "offv"),
        a.fabs("candabsv", "candv"),
        a.fclt("mv", "candabsv", "bestabsv"),
        a.selb("bestv", "bestv", "candv", "mv"),
        a.selb("bestabsv", "bestabsv", "candabsv", "mv"),
    ]
    return [
        a.mov("bestv", d_reg),
        a.fabs("bestabsv", d_reg),
        a.loop(3, body, overhead=0),  # hand-unrolled intrinsics: no loop tax
    ]


def _scalar_length(a: Asm) -> list[Node]:
    """Component-wise dot product + rsqrt refinement; r and 1/r out.

    Like real scalar SPE code, each squared component takes a trip
    through the local store before the serial accumulation — this is
    the traffic the "SIMD length calculation" optimization removes.
    """
    nodes: list[Node] = []
    for axis in _AXES:
        nodes.append(a.fm(f"t2{axis}", f"b{axis}", f"b{axis}"))
        nodes.append(a.stqd(f"t2spill{axis}", f"t2{axis}"))
        nodes.append(a.lqd(f"t2l{axis}", f"t2spill{axis}"))
    nodes += [
        a.fa("r2s", "t2lx", "t2ly"),
        a.fa("r2s", "r2s", "t2lz"),
        *a.rsqrt_refined("rinv", "r2s", tmp="rtmp", half="half", three="three"),
        a.fm("rlen", "r2s", "rinv"),  # r = r2 * (1/sqrt(r2))
    ]
    return nodes


def _simd_length(a: Asm) -> list[Node]:
    """SIMD square + horizontal sum + rsqrt refinement."""
    return [
        a.fm("sqv", "bestv", "bestv"),
        *a.hsum3("r2s", "sqv", tmp="htmp"),
        *a.rsqrt_refined("rinv", "r2s", tmp="rtmp", half="half", three="three"),
        a.fm("rlen", "r2s", "rinv"),
    ]


def _extract_best(a: Asm) -> list[Node]:
    """Unpack the SIMD search result into scalar components."""
    return [
        a.splat("bx", "bestv", 0),
        a.splat("by", "bestv", 1),
        a.splat("bz", "bestv", 2),
    ]


def _force_common(a: Asm) -> list[Node]:
    """sr6/sr12 powers and the scalar force magnitude over r."""
    return [
        a.fm("inv_r2", "rinv", "rinv"),
        a.fm("s2", "sigma2", "inv_r2"),
        a.fm("s4", "s2", "s2"),
        a.fm("sr6", "s4", "s2"),
        a.fm("sr12", "sr6", "sr6"),
        a.fms("tt", "sr12", "two", "sr6"),  # 2*sr12 - sr6
        a.fm("fmag", "c24eps", "tt"),
        a.fm("fr", "fmag", "inv_r2"),
    ]


def _scalar_acceleration(a: Asm) -> list[Node]:
    """Component-wise force vector with read-modify-write accumulation.

    Scalar stores into the acceleration array are load-modify-store
    sequences on the 16-byte-granular local store; the SIMD version
    (one multiply, one aligned store) eliminates all of it.
    """
    nodes: list[Node] = []
    for axis in _AXES:
        nodes.append(a.fm(f"f{axis}", "fr", f"b{axis}"))
        nodes.append(a.lqd(f"aold{axis}", f"f{axis}"))
        nodes.append(a.shufb(f"amix{axis}", f"aold{axis}", f"f{axis}", (4, 1, 2, 3)))
        nodes.append(a.stqd(f"aspill{axis}", f"amix{axis}"))
    nodes += _pack3(a, "acc_out", "fx", "fy", "fz", tmp="ptmp")
    return nodes


def _simd_acceleration(a: Asm) -> list[Node]:
    """One SIMD multiply produces the whole acceleration contribution."""
    return [a.fm("acc_out", "fr", "bestv")]


def _pe_contribution(a: Asm) -> list[Node]:
    return [
        a.fs("pdiff", "sr12", "sr6"),
        a.fm("pen", "c4eps", "pdiff"),
        a.fs("pe_out", "pen", "shiftE"),
    ]


def timestep_constants(potential: LennardJones, dt: float) -> dict[str, float]:
    """Constant registers for the whole-timestep kernels: the pair-force
    constants plus the integration step size."""
    constants = kernel_constants(potential)
    constants["dt"] = float(dt)
    return constants


def _pair_body(
    flags: OptimizationFlags,
    box_length: float,
    branch_penalty: int,
) -> list[Node]:
    """The per-pair force body shared by the pair-only and whole-timestep
    kernels."""
    a = Asm()
    body: list[Node] = []

    # -- per-pair prologue: fetch the partner position from local store ----
    body.append(a.lqd("xj", "xj"))

    # -- direction vector -------------------------------------------------
    if flags.simd_direction:
        body += _simd_direction(a)
        d_reg = "d"
    else:
        body += _scalar_direction(a)
        d_reg = None

    # -- minimum image (unit-cell reflection) -----------------------------
    if flags.simd_reflection:
        if d_reg is None:
            # scalar direction feeding the SIMD search: pack components
            body += _pack3(a, "d", "dx", "dy", "dz", tmp="dtmp")
            d_reg = "d"
        body += _simd_reflection(a, box_length, d_reg)
        have_vector_best = True
    else:
        body += _scalar_reflection(a, flags.branchless_select, box_length)
        have_vector_best = False

    # -- length ------------------------------------------------------------
    if flags.simd_length:
        if not have_vector_best:  # pragma: no cover - ladder never hits this
            body += _pack3(a, "bestv", "bx", "by", "bz", tmp="dtmp")
        body += _simd_length(a)
    else:
        if have_vector_best:
            body += _extract_best(a)
        body += _scalar_length(a)

    # -- cutoff test (on r, as the pseudo code computes distances) ---------
    body += [
        a.fclt("mwithin", "rlen", "rc"),
        a.fs("notself", "one", "self_flag"),
        a.and_("mcut", "mwithin", "notself"),
    ]

    # -- interacting branch -------------------------------------------------
    interacting: list[Node] = list(_force_common(a))
    if flags.simd_acceleration:
        if not have_vector_best:  # pragma: no cover - ladder never hits this
            interacting += _pack3(a, "bestv", "bx", "by", "bz", tmp="dtmp")
        interacting += _simd_acceleration(a)
    else:
        if have_vector_best and flags.simd_length:
            # SIMD search + SIMD length left no scalar components around
            interacting += _extract_best(a)
        interacting += _scalar_acceleration(a)
    interacting += _pe_contribution(a)
    body.append(
        a.if_(
            "mcut",
            interacting,
            prob_key="interacting_fraction",
            penalty=branch_penalty,
        )
    )
    return body


def build_spe_kernel(
    level: str,
    box_length: float,
    branch_penalty: int = 18,
) -> Program:
    """Build the per-pair SPE kernel at one Figure-5 optimization level."""
    flags = OptimizationFlags.for_level(level)
    body = _pair_body(flags, box_length, branch_penalty)
    program = Program(
        name=f"spe_md_{level}",
        segments=(Segment("pair", "pairs", tuple(body)),),
        inputs=("xi", "xj", "self_flag") + _CONSTANT_REGS,
        outputs=("acc_out", "pe_out"),
    )
    program.validate()
    return program


def _integrate_body(a: Asm) -> list[Node]:
    """Leapfrog update of one row's own atom from its pair force.

    ``acc_out`` carries (fx, fy, fz, junk); the junk lane is zeroed so
    the velocity's padding lane stays clean, then one kick + one drift:
    ``vi' = vi + a*dt``, ``xi' = xi + vi'*dt``.
    """
    return [
        a.shufb("facc", "acc_out", "zero", (0, 1, 2, 4)),
        a.fma("vi_out", "facc", "dt", "vi"),
        a.fma("xi_out", "vi_out", "dt", "xi"),
    ]


def build_spe_timestep_kernel(
    level: str,
    box_length: float,
    branch_penalty: int = 18,
) -> Program:
    """The whole-timestep SPE program: force segment + integration segment.

    Each batch row is one independent pair system: the ``pair`` segment
    computes its interaction force exactly as :func:`build_spe_kernel`,
    and the ``integrate`` segment advances the row's own atom with it.
    The force flows to the integrator through the ``acc_out`` register —
    an SSA value under the ``fused`` backend (no ``env`` round trip), a
    declared-output handoff under ``interp`` or ``run_segment`` — which is
    what makes this the cross-segment-fusion workload.
    """
    flags = OptimizationFlags.for_level(level)
    a = Asm()
    program = Program(
        name=f"spe_md_timestep_{level}",
        segments=(
            Segment("pair", "pairs", tuple(_pair_body(flags, box_length, branch_penalty))),
            Segment("integrate", "pairs", tuple(_integrate_body(a))),
        ),
        inputs=("xi", "xj", "self_flag", "vi", "dt", "zero") + _CONSTANT_REGS,
        outputs=("acc_out", "pe_out", "xi_out", "vi_out"),
    )
    program.validate()
    return program
