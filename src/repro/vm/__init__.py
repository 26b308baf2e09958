"""The batched SIMD virtual machine: ISA, programs, scheduler, executors.

Execution comes in two bit-identical backends, chosen per
:class:`Machine`: the default ``fused`` backend, which runs segments and
whole programs as NumPy closures built by :mod:`repro.vm.compile` (with
replica batching), and the reference interpreter ``interp``.
"""

from repro.vm.builder import Asm
from repro.vm.compile import (
    CompiledSegment,
    VMCompileError,
    compiled_program,
    compiled_segment,
)
from repro.vm.isa import EVEN, ODD, OPS, CostTable, OpCost, OpSpec
from repro.vm.machine import (
    EXEC_BACKENDS,
    BranchStat,
    Machine,
    MachineError,
)
from repro.vm.program import IfBlock, Instr, Loop, Program, Segment
from repro.vm.schedule import (
    CycleReport,
    SegmentCycles,
    estimate_cycles,
    straightline_cycles,
)

__all__ = [
    "Asm",
    "BranchStat",
    "CompiledSegment",
    "CostTable",
    "CycleReport",
    "EVEN",
    "EXEC_BACKENDS",
    "IfBlock",
    "Instr",
    "Loop",
    "Machine",
    "MachineError",
    "ODD",
    "OPS",
    "OpCost",
    "OpSpec",
    "Program",
    "Segment",
    "SegmentCycles",
    "VMCompileError",
    "compiled_program",
    "compiled_segment",
    "estimate_cycles",
    "straightline_cycles",
]
