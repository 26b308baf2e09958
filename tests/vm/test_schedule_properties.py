"""Property-based tests on the pipeline scheduler's invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell.kernels import OPT_LEVELS, build_spe_kernel
from repro.cell.spe import SPE_COST_TABLE
from repro.vm.builder import Asm
from repro.vm.isa import EVEN, ODD, CostTable, OpCost
from repro.vm.schedule import (
    count_issues,
    estimate_cycles,
    issue_stats,
    straightline_cycles,
)

A = Asm()

#: A pool of instructions over a small register set, so random programs
#: form real dependency chains.
_REGS = ("r0", "r1", "r2", "r3")


@st.composite
def instruction_sequences(draw, min_size=1, max_size=25):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    seq = []
    for _ in range(n):
        kind = draw(st.sampled_from(["fa", "fm", "mov", "lqd"]))
        dest = draw(st.sampled_from(_REGS))
        a = draw(st.sampled_from(_REGS))
        b = draw(st.sampled_from(_REGS))
        if kind == "fa":
            seq.append(A.fa(dest, a, b))
        elif kind == "fm":
            seq.append(A.fm(dest, a, b))
        elif kind == "mov":
            seq.append(A.mov(dest, a))
        else:
            seq.append(A.lqd(dest, a))
    return seq


def _table(fa=6, fm=6, mov=2, lqd=6, width=2):
    return CostTable(
        name="t",
        issue_width=width,
        costs={
            "fa": OpCost(fa, EVEN),
            "fm": OpCost(fm, EVEN),
            "mov": OpCost(mov, ODD),
            "lqd": OpCost(lqd, ODD),
        },
    )


class TestSchedulerInvariants:
    @given(instruction_sequences())
    @settings(max_examples=150, deadline=None)
    def test_appending_an_instruction_never_reduces_cycles(self, seq):
        table = _table()
        base = straightline_cycles(seq, table)
        extended = straightline_cycles(seq + [A.fa("r0", "r1", "r2")], table)
        assert extended >= base

    @given(instruction_sequences())
    @settings(max_examples=150, deadline=None)
    def test_lower_latency_never_increases_cycles(self, seq):
        slow = straightline_cycles(seq, _table(fa=8, fm=8))
        fast = straightline_cycles(seq, _table(fa=4, fm=4))
        assert fast <= slow

    @given(instruction_sequences())
    @settings(max_examples=150, deadline=None)
    def test_dual_issue_never_slower_than_single(self, seq):
        dual = straightline_cycles(seq, _table(width=2))
        single = straightline_cycles(seq, _table(width=1))
        assert dual <= single

    @given(instruction_sequences())
    @settings(max_examples=100, deadline=None)
    def test_cycles_bounded_below_by_issue_limit(self, seq):
        """At width w, n instructions need at least ceil(n/w) - 1 issue
        cycles plus one latency."""
        table = _table(width=2)
        cycles = straightline_cycles(seq, table)
        assert cycles >= (len(seq) + 1) // 2

    @given(instruction_sequences())
    @settings(max_examples=100, deadline=None)
    def test_cycles_bounded_above_by_serial_chain(self, seq):
        """Never worse than executing each instruction back to back."""
        table = _table()
        serial_bound = sum(table.cost(i.op).latency for i in seq)
        assert straightline_cycles(seq, table) <= serial_bound

    @given(instruction_sequences(min_size=2))
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, seq):
        table = _table()
        assert straightline_cycles(seq, table) == straightline_cycles(seq, table)


class TestKnownSchedules:
    def test_perfectly_paired_dual_issue(self):
        # alternating even/odd independent ops: one cycle each pair
        seq = []
        for i in range(4):
            seq.append(A.fa(f"e{i}", "r0", "r1"))
            seq.append(A.mov(f"o{i}", "r0"))
        table = CostTable(
            name="t",
            issue_width=2,
            costs={"fa": OpCost(6, EVEN), "mov": OpCost(2, ODD)},
        )
        # hack registers into the pool: build via raw Instr instead
        cycles = straightline_cycles(seq, table)
        # 4 issue cycles, last fa completes at 3 + 6
        assert cycles == pytest.approx(9.0)


_FIG5_KERNELS = {level: build_spe_kernel(level, 10.0) for level in OPT_LEVELS}
_PROBABILITY = st.floats(min_value=0.0, max_value=1.0)


class TestOneWalk:
    """``issue_stats`` reports the very numbers that price a step."""

    @settings(max_examples=300, deadline=None)
    @given(
        level=st.sampled_from(OPT_LEVELS),
        pairs=st.floats(min_value=0.0, max_value=1.0e7),
        interacting=_PROBABILITY,
        reflect=_PROBABILITY,
    )
    def test_stats_equal_the_pricing_walks(self, level, pairs, interacting, reflect):
        program = _FIG5_KERNELS[level]
        metrics = {
            "atoms": 1.0,
            "pairs": pairs,
            "interacting": pairs * interacting,
            "interacting_fraction": interacting,
            "one": 1.0,
            "reflect_take": reflect,
        }
        stats = issue_stats(program, SPE_COST_TABLE, metrics)
        report = estimate_cycles(program, SPE_COST_TABLE, metrics)
        assert stats.cycles == report.total_cycles
        assert stats.instructions == count_issues(program, metrics)
