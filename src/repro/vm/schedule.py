"""Cycle estimation: an in-order, dual-issue pipeline model.

Given a :class:`~repro.vm.program.Program`, a per-machine
:class:`~repro.vm.isa.CostTable` and a metrics mapping (trip counts and
branch probabilities), this module produces a :class:`CycleReport` with
per-segment cycle totals.

The model is the classic in-order issue model:

* instructions issue in program order, at most ``issue_width`` per
  cycle and at most one per pipe per cycle;
* an instruction issues no earlier than the ready time of its operands
  (issue time + latency of the producer);
* loop iterations do not overlap (no software pipelining / no modulo
  scheduling) — deliberately conservative, matching the paper's note
  that the 2006 GNU toolchain was "unable to perform significant code
  optimization" for the SPEs;
* an :class:`IfBlock` charges its compare-and-branch always, its body
  and a taken-branch penalty weighted by the measured probability.

Because programs are data-independent apart from branch probabilities,
one scheduling pass per program gives exact per-trip cycle counts; the
device models then scale by trip counts that the functional MD run
measures.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, NamedTuple

from repro.vm.isa import CostTable
from repro.vm.program import IfBlock, Instr, Loop, Metrics, Node, Program

__all__ = [
    "SegmentCycles",
    "CycleReport",
    "IssueStats",
    "estimate_cycles",
    "issue_stats",
    "straightline_cycles",
    "count_issues",
]


@dataclasses.dataclass(frozen=True)
class SegmentCycles:
    """Cycle accounting for one program segment."""

    name: str
    trips: float
    cycles_per_trip: float
    total: float


@dataclasses.dataclass(frozen=True)
class CycleReport:
    """Cycle accounting for a whole program on one machine."""

    program: str
    machine: str
    segments: tuple[SegmentCycles, ...]

    @property
    def total_cycles(self) -> float:
        return sum(seg.total for seg in self.segments)

    def segment(self, name: str) -> SegmentCycles:
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise KeyError(f"no segment {name!r} in report for {self.program!r}")


class _PipelineState:
    """In-order issue bookkeeping for one straight-line run."""

    def __init__(self, table: CostTable) -> None:
        self.table = table
        self.ready: dict[str, int] = {}
        self.last_issue_cycle = -1
        self.pipes_at_last: set[str] = set()
        self.completion = 0
        #: cycles in which more than one instruction issued (observability
        #: tally only; never feeds back into the schedule)
        self.dual_issue_cycles = 0

    def issue(self, instr: Instr) -> None:
        cost = self.table.cost(instr.op)
        operands_ready = max(
            (self.ready.get(src, 0) for src in instr.srcs), default=0
        )
        t = max(operands_ready, self.last_issue_cycle)
        # In-order multi-issue: share a cycle with the previous
        # instruction only if width allows and the pipe is free.
        if t == self.last_issue_cycle and (
            len(self.pipes_at_last) >= self.table.issue_width
            or cost.pipe in self.pipes_at_last
        ):
            t += 1
        if t == self.last_issue_cycle and len(self.pipes_at_last) == 1:
            self.dual_issue_cycles += 1
        if t > self.last_issue_cycle:
            self.pipes_at_last = set()
        self.last_issue_cycle = t
        self.pipes_at_last.add(cost.pipe)
        finish = t + cost.latency
        if instr.dest is not None:
            self.ready[instr.dest] = finish
        self.completion = max(self.completion, finish)


def straightline_cycles(instrs: list[Instr], table: CostTable) -> float:
    """Cycles to fully execute a straight-line instruction run."""
    if not instrs:
        return 0.0
    state = _PipelineState(table)
    for instr in instrs:
        state.issue(instr)
    return float(state.completion)


class _Tally(NamedTuple):
    """Per-trip totals of one node sequence, from :func:`_walk`."""

    cycles: float
    issues: float
    dual_issue_cycles: float
    branch_evals: float
    branch_taken: float
    branch_flush_cycles: float


def _walk(
    nodes: tuple[Node, ...],
    table: CostTable | None,
    metrics: Metrics,
    issue_slots: Mapping[str, float],
) -> _Tally:
    """The one schedule walk: every per-trip tally of a node sequence.

    Maximal straight-line runs are scheduled on ``table`` (skipped when
    it is ``None``); loops and conditionals compose additively, with the
    pipeline flushed at region boundaries — the conservative in-order
    assumption.  ``issues`` counts ``issue_slots`` per instruction
    (one for unlisted opcodes) plus one compare-and-branch per IfBlock.
    """
    cycles = issues = dual = evals = taken = flushed = 0.0
    run: list[Instr] = []
    for node in nodes:
        if isinstance(node, Instr):
            issues += float(issue_slots.get(node.op, 1.0))
            if table is not None:
                run.append(node)
            continue
        if run:
            cycles, dual = _add_run(run, table, cycles, dual)
            run = []
        if isinstance(node, Loop):
            body = _walk(node.body, table, metrics, issue_slots)
            count = node.count
            overhead = float(node.overhead_instrs)
            cycles += count * (body.cycles + overhead)
            issues += count * (body.issues + overhead)
            dual += count * body.dual_issue_cycles
            evals += count * body.branch_evals
            taken += count * body.branch_taken
            flushed += count * body.branch_flush_cycles
        elif isinstance(node, IfBlock):
            prob = float(metrics.get(node.prob_key, 0.0))
            if not 0.0 <= prob <= 1.0:
                raise ValueError(
                    f"branch probability {node.prob_key}={prob} outside [0, 1]"
                )
            body = _walk(node.body, table, metrics, issue_slots)
            penalty = float(node.penalty)
            # one cycle for the branch, a fetch stall on every evaluation,
            # and body + flush penalty when taken
            cycles += 1.0 + float(node.fetch_stall) + prob * (body.cycles + penalty)
            issues += 1.0 + prob * body.issues
            dual += prob * body.dual_issue_cycles
            evals = (evals + 1.0) + prob * body.branch_evals
            taken = (taken + prob) + prob * body.branch_taken
            flushed = (flushed + prob * penalty) + prob * body.branch_flush_cycles
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown node type {type(node)!r}")
    if run:
        cycles, dual = _add_run(run, table, cycles, dual)
    return _Tally(cycles, issues, dual, evals, taken, flushed)


def _add_run(
    run: list[Instr], table: CostTable, cycles: float, dual: float
) -> tuple[float, float]:
    """``(cycles, dual)`` plus one scheduled straight-line run's share."""
    state = _PipelineState(table)
    for instr in run:
        state.issue(instr)
    return cycles + float(state.completion), dual + float(state.dual_issue_cycles)


def _segment_walks(
    program: Program,
    table: CostTable | None,
    metrics: Metrics,
    issue_slots: Mapping[str, float] | None = None,
) -> list[tuple[str, float, _Tally]]:
    """``(segment name, trips, per-trip tally)`` for every segment."""
    slots = issue_slots or {}
    walks = []
    for seg in program.segments:
        if seg.trips_key not in metrics:
            raise KeyError(
                f"metrics missing trip key {seg.trips_key!r} for segment "
                f"{seg.name!r} of program {program.name!r}"
            )
        trips = float(metrics[seg.trips_key])
        if trips < 0:
            raise ValueError(f"trip count {seg.trips_key}={trips} negative")
        walks.append((seg.name, trips, _walk(seg.body, table, metrics, slots)))
    return walks


def count_issues(
    program: Program,
    metrics: Metrics,
    issue_slots: Mapping[str, float] | None = None,
) -> float:
    """Total instruction-issue slots a program consumes.

    This is the cost measure for latency-tolerant machines (the MTA-2):
    with enough concurrent streams, per-instruction latency is hidden
    and throughput is one issue per cycle, so time = issues / rate.
    ``issue_slots`` maps opcodes that decompose into multi-instruction
    sequences (software divide/sqrt) to their slot counts; unlisted
    opcodes cost one slot.
    """
    total = 0.0
    for _, trips, tally in _segment_walks(program, None, metrics, issue_slots):
        total += trips * tally.issues
    return total


@dataclasses.dataclass(frozen=True)
class IssueStats:
    """Hardware-counter-grade statistics of one scheduled program run.

    All fields are expectations over the measured branch probabilities
    (an ``IfBlock`` body counts weighted by P(taken)), scaled by the
    segment trip counts — the same accounting :func:`estimate_cycles`
    uses, broken out for observability instead of summed into seconds.
    """

    #: instructions issued (IfBlock compare-and-branch included;
    #: identical to ``count_issues()`` with one slot per instruction)
    instructions: float
    #: scheduled cycles (identical to ``estimate_cycles().total_cycles``)
    cycles: float
    #: cycles that retired two instructions (even+odd pipe together)
    dual_issue_cycles: float
    #: data-dependent branch evaluations
    branch_evals: float
    #: expected taken branches (evals weighted by measured P(taken))
    branch_taken: float
    #: expected pipeline-flush cycles from taken branches
    branch_flush_cycles: float


def issue_stats(
    program: Program, table: CostTable, metrics: Metrics
) -> IssueStats:
    """Full issue statistics for ``program`` over the given workload.

    One walk yields every field: ``.cycles`` is
    :func:`estimate_cycles`' total and ``.instructions`` is
    :func:`count_issues` with one slot per instruction, to the bit.  The
    other fields expose what that model knows but the seconds-only path
    discards — the dual-issue rate and the branch-miss machinery of the
    paper's Figure 5 analysis.
    """
    totals = dict.fromkeys(_Tally._fields, 0.0)
    for _, trips, tally in _segment_walks(program, table, metrics):
        for name, value in tally._asdict().items():
            totals[name] += value * trips
    return IssueStats(
        instructions=totals["issues"],
        cycles=totals["cycles"],
        dual_issue_cycles=totals["dual_issue_cycles"],
        branch_evals=totals["branch_evals"],
        branch_taken=totals["branch_taken"],
        branch_flush_cycles=totals["branch_flush_cycles"],
    )


def estimate_cycles(
    program: Program, table: CostTable, metrics: Metrics
) -> CycleReport:
    """Cycle report for ``program`` on the machine described by ``table``.

    ``metrics`` must contain every segment trip key and every IfBlock
    probability key the program references.
    """
    segments = tuple(
        SegmentCycles(
            name=name,
            trips=trips,
            cycles_per_trip=tally.cycles,
            total=trips * tally.cycles,
        )
        for name, trips, tally in _segment_walks(program, table, metrics)
    )
    return CycleReport(program=program.name, machine=table.name, segments=segments)
