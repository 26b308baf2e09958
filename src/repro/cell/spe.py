"""The SPE machine model: cost table and local store.

The SPE (section 3.1 of the paper) is a dual-issue in-order core:
arithmetic goes down the *even* pipe, loads/stores/shuffles/branches
down the *odd* pipe, one instruction per pipe per cycle.  There is no
branch prediction (taken branches flush ~18 cycles) and no FP
divide/sqrt hardware — kernels use reciprocal/rsqrt estimates plus
Newton refinement.  Latencies below are the published SPU figures
(Flachs et al., IEEE JSSC 41(1), cited as [13] by the paper).
"""

from __future__ import annotations

import dataclasses

from repro.arch import calibration as cal
from repro.arch.clock import Clock
from repro.arch.memory import LocalStore
from repro.vm.isa import EVEN, ODD, CostTable, OpCost
from repro.vm.program import Program
from repro.vm.schedule import estimate_cycles

__all__ = ["SPE_COST_TABLE", "SPE"]

#: SPU instruction costs: (latency, pipe).  Single-precision FP is the
#: 6-cycle fully-pipelined FPU; estimates are 4-cycle lookups; the
#: interpolate step is 7 cycles; loads/stores hit the fixed-latency
#: local store in 6 cycles; shuffles/rotates are 4-cycle odd-pipe ops.
SPE_COST_TABLE = CostTable(
    name="spe",
    issue_width=2,
    costs={
        "fa": OpCost(6, EVEN),
        "fs": OpCost(6, EVEN),
        "fm": OpCost(6, EVEN),
        "fma": OpCost(6, EVEN),
        "fms": OpCost(6, EVEN),
        "fnms": OpCost(6, EVEN),
        "frest": OpCost(4, EVEN),
        "frsqest": OpCost(4, EVEN),
        "fi": OpCost(7, EVEN),
        "fabs": OpCost(2, EVEN),
        "fneg": OpCost(2, EVEN),
        "fmin": OpCost(2, EVEN),
        "fmax": OpCost(2, EVEN),
        "fround": OpCost(8, EVEN),  # no native round: synthesized
        "cpsgn": OpCost(2, EVEN),
        "fcgt": OpCost(2, EVEN),
        "fclt": OpCost(2, EVEN),
        "fceq": OpCost(2, EVEN),
        "and_": OpCost(2, EVEN),
        "or_": OpCost(2, EVEN),
        "il": OpCost(2, EVEN),
        "ilv": OpCost(2, EVEN),
        "selb": OpCost(2, ODD),
        "mov": OpCost(2, ODD),
        "splat": OpCost(4, ODD),
        "shufb": OpCost(4, ODD),
        "rotqbyi": OpCost(4, ODD),
        "lqd": OpCost(6, ODD),
        "stqd": OpCost(6, ODD),
    },
)


@dataclasses.dataclass
class SPE:
    """One Synergistic Processing Element."""

    index: int
    clock: Clock = dataclasses.field(
        default_factory=lambda: Clock(cal.SPE_CLOCK_HZ, "spe")
    )
    local_store: LocalStore = dataclasses.field(
        default_factory=lambda: LocalStore(
            capacity_bytes=cal.SPE_LOCAL_STORE_BYTES,
            reserved_bytes=cal.SPE_LOCAL_STORE_RESERVED_BYTES,
        )
    )

    def kernel_seconds(self, program: Program, metrics: dict[str, float]) -> float:
        """Simulated seconds for this SPE to execute ``program``."""
        report = estimate_cycles(program, SPE_COST_TABLE, metrics)
        return self.clock.seconds(report.total_cycles)

