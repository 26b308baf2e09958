"""Functional execution of the batched SIMD VM.

:class:`Machine` executes a program's segment bodies over a *batch*:
every register is an ``(batch, width)`` array and each instruction is
applied elementwise, so one architectural instruction performs the work
of ``batch`` iterations.  This gives real numerics (the device tests
compare VM force output against the NumPy reference kernels) while the
instruction stream stays exact for the cycle model.

Two execution backends share the instruction semantics:

* ``fused`` (the default) — :mod:`repro.vm.compile` lowers the code once
  to a straight-line NumPy closure (loops unrolled, constants hoisted,
  register slots liveness-reused via ``out=`` kernels) and caches it.
  :meth:`Machine.run_segment` runs one segment's closure;
  :meth:`Machine.run_program` runs every segment through one closure
  with no per-segment dispatch, and with ``replicas=R`` executes R
  independent replicas in a single vectorized call.  Only the program's
  *declared outputs* are written back to ``env``.
* ``interp`` — the per-instruction interpreter below: one dict dispatch
  and one fresh result array per instruction.  Every register the
  program writes lands in ``env``, and ``run_program(replicas=R)``
  loops replica by replica over row slices.  It is the oracle the
  ``fused`` backend is tested against and the backend to debug with;
  it is chosen only by an explicit ``exec_backend="interp"``.

Outputs and branch statistics are bit-identical between the two.
Cycle estimation (:mod:`repro.vm.schedule`) reads the instruction
stream, never the executor, so timing results do not depend on the
backend either.

Predication: an :class:`IfBlock` executes its body unconditionally,
then lane-wise selects the new values where the condition register is
nonzero and restores the old values elsewhere — the standard SPMD
treatment of divergent branches.  While doing so the machine *measures*
P(taken) into :attr:`Machine.branch_stats`, which is where the cost
model's branch probabilities come from.

Blocks: a caller may execute one logical batch as several smaller
``run_segment`` calls inside :meth:`Machine.block`.  The block is the
unit of observation — each probe records one sample over all of the
block's rows, and the fault hook fires once, on the block's assembled
outputs — so the chunk size is a host-side choice that moves no
result.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.vm.isa import OPS
from repro.vm.program import IfBlock, Instr, Loop, Node, Program, Segment

__all__ = [
    "BranchStat",
    "EXEC_BACKENDS",
    "Machine",
    "MachineError",
    "taken_rows",
]

#: Recognized execution backends; ``fused`` is the default.
EXEC_BACKENDS = ("interp", "fused")


class MachineError(RuntimeError):
    """Raised for malformed programs or register-file misuse."""


class BranchStat:
    """Running (weighted_sum, count) accumulator of one branch's P(taken).

    One sample is recorded per :class:`IfBlock` evaluation.  A run of a
    long simulation evaluates each branch millions of times, so the
    stats are folded into a running pair instead of an append-only list
    (the list grew one float per segment execution, without bound).
    """

    __slots__ = ("total", "count")

    def __init__(self, total: float = 0.0, count: int = 0) -> None:
        self.total = float(total)
        self.count = int(count)

    def add(self, sample: float) -> None:
        self.total += float(sample)
        self.count += 1

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ZeroDivisionError("no branch samples recorded")
        return self.total / self.count

    def snapshot(self) -> tuple[float, int]:
        """An immutable (total, count) view, for before/after deltas."""
        return (self.total, self.count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BranchStat(total={self.total!r}, count={self.count!r})"


def taken_rows(mask: np.ndarray) -> np.ndarray:
    """Per-row OR of a ``(batch, width)`` bool mask: the rows a branch takes.

    A ``(batch,)`` mask is a lane-uniform one (see :mod:`repro.vm.compile`)
    and is the taken rows itself.  A C-contiguous 4-lane mask is read as
    one ``uint32`` per row, which is two orders of magnitude cheaper than
    ``any(axis=-1)`` over the short lane axis; any other shape falls back
    to ``any``.
    """
    if mask.ndim == 1:
        return mask
    if mask.ndim == 2 and mask.shape[1] == 4 and mask.flags.c_contiguous:
        return mask.view(np.uint32).reshape(-1) != 0
    return mask.any(axis=-1)


class _ProbeTally:
    """Integer ``(taken, rows)`` per probe ordinal across a block's chunks.

    Every chunk replays the same probe sequence, so the n-th probe of
    each chunk adds to ordinal n; the block records ``taken / rows`` per
    ordinal, which equals the bool mean over the whole block bit for bit.
    """

    __slots__ = ("keys", "taken", "rows", "cursor")

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.taken: list[int] = []
        self.rows: list[int] = []
        self.cursor = 0

    def add(self, key: str, taken: int, rows: int) -> None:
        index = self.cursor
        if index == len(self.keys):
            self.keys.append(key)
            self.taken.append(0)
            self.rows.append(0)
        elif self.keys[index] != key:
            raise MachineError(
                f"probe {index} of a block chunk is {key!r}, "
                f"expected {self.keys[index]!r}"
            )
        self.taken[index] += taken
        self.rows[index] += rows
        self.cursor = index + 1


class Machine:
    """A batched SPMD executor with a ``(batch, width)`` register file."""

    def __init__(
        self,
        width: int = 4,
        dtype: np.dtype | type = np.float32,
        exec_backend: str = "fused",
    ) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if exec_backend not in EXEC_BACKENDS:
            raise ValueError(
                f"unknown VM execution backend {exec_backend!r}; "
                f"expected one of {EXEC_BACKENDS}"
            )
        self.width = width
        self.dtype = np.dtype(dtype)
        self.exec_backend = exec_backend
        #: measured P(taken) per IfBlock prob_key, accumulated over runs
        self.branch_stats: dict[str, BranchStat] = {}
        #: whole-program executions / replica-steps, accumulated over
        #: :meth:`run_program` calls — the obs layer charges these to the
        #: additive ``vm.programs`` / ``vm.replicas`` counters
        self.programs_run = 0
        self.replicas_run = 0
        #: optional fault session corrupting declared outputs post-segment
        self._fault_session = None
        #: when set (batched fused runs), probes append
        #: ``(prob_key, per-replica samples)`` here instead of recording
        #: immediately; ``run_program`` replays the buffer replica-major
        self._probe_buffer: list[tuple[str, list[float]]] | None = None
        #: inside :meth:`block`, probes tally here instead of recording
        self._tally: _ProbeTally | None = None

    # -- register helpers ------------------------------------------------

    def make_register(self, batch: int, fill: float = 0.0) -> np.ndarray:
        """A fresh (batch, width) register filled with ``fill``."""
        return np.full((batch, self.width), fill, dtype=self.dtype)

    def load_vec3(self, values: np.ndarray, batch_pad: float = 0.0) -> np.ndarray:
        """Pack (batch, 3) vectors into registers, 4th lane = ``batch_pad``.

        This mirrors the paper's layout choice: "use the first three
        components of the inherent SIMD data types for the x, y, and z
        components" (section 5.1).
        """
        values = np.asarray(values, dtype=self.dtype)
        if values.ndim != 2 or values.shape[1] > self.width:
            raise MachineError(
                f"expected (batch, <= {self.width}) array, got {values.shape}"
            )
        reg = self.make_register(values.shape[0], batch_pad)
        reg[:, : values.shape[1]] = values
        return reg

    # -- execution -------------------------------------------------------

    def run_segment(
        self,
        program: Program,
        segment_name: str,
        env: dict[str, np.ndarray],
        uniform_inputs: frozenset[str] = frozenset(),
        out: dict[str, np.ndarray] | None = None,
    ) -> dict[str, np.ndarray]:
        """Execute one segment body over the batch described by ``env``.

        ``env`` maps register names to (batch, width) arrays; it is
        mutated in place and also returned.  Registers referenced before
        definition raise :class:`MachineError`.

        Backend contract: the ``interp`` backend stores every written
        register into ``env``; the ``fused`` backend runs the segment's
        compiled closure and stores only the program's declared outputs
        (intermediates live in reused buffer slots).  Declared outputs
        and branch statistics are bit-identical between the two.

        ``uniform_inputs`` names inputs whose lanes are equal in every
        row of ``env``; the ``fused`` backend then reads one lane of
        them (it is part of the compiled unit's cache key).  With
        ``out``, every declared output the segment writes is copied in
        place into ``out[name]`` instead of being stored into ``env``.

        Inside :meth:`block` the call is one chunk of the block: its
        probes tally into the block's samples and the fault hook waits
        for the block's end.
        """
        segment = program.segment(segment_name)
        self._check_env(env)
        tally = self._tally
        if tally is not None:
            tally.cursor = 0
        if self.exec_backend == "fused":
            from repro.vm.compile import compiled_segment

            compiled_segment(
                program, segment_name, self.width, self.dtype, uniform_inputs
            )(env, self, out=out)
        else:
            self._exec_nodes(segment.body, env, loop_indices=[])
            if out is not None:
                written = self._written_registers(segment.body)
                for name in program.outputs:
                    if name in written:
                        np.copyto(out[name], env.pop(name))
        if self._fault_session is not None and tally is None:
            self._fault_session.machine_bitflip(
                self, program.outputs, env if out is None else out
            )
        return env

    @contextlib.contextmanager
    def block(self, program: Program, outputs: dict[str, np.ndarray]):
        """Run the enclosed :meth:`run_segment` calls as one logical batch.

        The enclosed calls are chunks of the block: each probe ordinal
        accumulates integer ``(taken, rows)`` over the chunks and records
        one sample when the block ends.  Then the fault hook fires once
        on ``outputs``, which the caller fills with the block-sized
        declared output registers it assembled from the chunks.  Results,
        branch samples and fault draws therefore match one
        ``run_segment`` call over the whole block, whatever the chunks.
        """
        if self._tally is not None:
            raise MachineError("machine blocks do not nest")
        tally = self._tally = _ProbeTally()
        try:
            yield
        finally:
            self._tally = None
        for key, taken, rows in zip(tally.keys, tally.taken, tally.rows):
            self._record_branch(key, taken / rows if rows else 0.0)
        if self._fault_session is not None:
            self._fault_session.machine_bitflip(self, program.outputs, outputs)

    def run_program(
        self,
        program: Program,
        env: dict[str, np.ndarray],
        replicas: int = 1,
    ) -> dict[str, np.ndarray]:
        """Execute *every* segment of ``program`` over the batch in ``env``.

        Under the ``fused`` backend the whole program runs as one
        compiled closure (no per-segment dispatch); under ``interp`` the
        segments execute sequentially over the shared ``env`` — same
        results, reference semantics.

        ``replicas=R`` declares that the batch rows are R independent
        replicas stacked along the row axis (row ``r*B .. (r+1)*B-1`` is
        replica ``r``).  The ``fused`` backend executes all replicas in
        one vectorized call; ``interp`` loops replica by replica on row
        slices — the sequential reference the batched path must match
        bit for bit, branch statistics included.  With
        ``replicas > 1`` only the program's declared outputs are merged
        back into ``env``.

        An armed fault session fires once, after the whole program —
        one potential bitflip per ``run_program`` call, landing in
        exactly one replica's rows.
        """
        self._check_env(env)
        if replicas < 1:
            raise MachineError(f"replicas must be >= 1, got {replicas}")
        if self._tally is not None:
            raise MachineError("run_program cannot run inside a machine block")
        batch = next(iter(env.values())).shape[0] if env else 0
        if env and batch % replicas:
            raise MachineError(
                f"batch {batch} is not divisible into {replicas} replicas"
            )
        if replicas == 1 or self.exec_backend == "fused":
            if replicas > 1:
                # The closure fires probes in program order, each with all
                # replicas' samples at once; the sequential reference
                # accumulates replica-major.  When IfBlocks share a
                # prob_key the two orders sum differently in float, so
                # buffer and replay replica-major to stay bit-identical.
                self._probe_buffer = []
                try:
                    self._run_program_once(program, env, replicas)
                finally:
                    buffered, self._probe_buffer = self._probe_buffer, None
                for index in range(replicas):
                    for key, samples in buffered:
                        self._record_branch(key, samples[index])
            else:
                self._run_program_once(program, env, replicas)
        else:
            rows = batch // replicas
            merged: dict[str, list[np.ndarray]] = {
                name: [] for name in program.outputs
            }
            for index in range(replicas):
                sub = {
                    name: reg[index * rows : (index + 1) * rows]
                    for name, reg in env.items()
                }
                self._run_program_once(program, sub, 1)
                for name in program.outputs:
                    merged[name].append(sub[name])
            for name, parts in merged.items():
                env[name] = np.concatenate(parts, axis=0)
        self.programs_run += 1
        self.replicas_run += replicas
        if self._fault_session is not None:
            self._fault_session.machine_bitflip(self, program.outputs, env)
        return env

    def _run_program_once(
        self,
        program: Program,
        env: dict[str, np.ndarray],
        replicas: int,
    ) -> None:
        """All segments, no fault hook (``run_program`` applies it once)."""
        if self.exec_backend == "fused":
            from repro.vm.compile import compiled_program

            compiled_program(program, self.width, self.dtype)(
                env, self, replicas=replicas
            )
        else:
            for segment in program.segments:
                self._exec_nodes(segment.body, env, loop_indices=[])

    def install_fault_session(self, session) -> None:
        """Arm instruction-level fault injection (``vm.bitflip``).

        After every segment execution the session may corrupt one
        element of a declared output register — the VM-mode analogue of
        an SEU in an SPE's local store or a GPU render target.
        """
        self._fault_session = session

    def measured_probability(self, prob_key: str) -> float:
        """Mean measured P(taken) for a branch key across all runs so far."""
        stat = self.branch_stats.get(prob_key)
        if stat is None or stat.count == 0:
            raise KeyError(f"no measurements recorded for branch {prob_key!r}")
        return stat.mean

    def branch_snapshot(self, prob_key: str) -> tuple[float, int]:
        """(total, count) for a branch key right now (zeros if unseen).

        Callers that need the probability over a *window* of executions
        snapshot before, run, and difference after — the running-pair
        equivalent of slicing the old per-run sample list.
        """
        stat = self.branch_stats.get(prob_key)
        return stat.snapshot() if stat is not None else (0.0, 0)

    def _record_branch(self, prob_key: str, sample: float) -> None:
        """Fold one P(taken) sample into the running stats."""
        stat = self.branch_stats.get(prob_key)
        if stat is None:
            stat = self.branch_stats[prob_key] = BranchStat()
        stat.add(sample)

    def _probe(self, prob_key: str, mask: np.ndarray, replicas: int = 1) -> None:
        """Record an IfBlock's P(taken) from its ``(batch, width)`` mask.

        A row is taken when any lane is.  With ``replicas == 1`` this is
        one sample, ``taken / rows`` (the bool mean, bit for bit), or a
        tally inside :meth:`block`.  With R replicas stacked along the
        row axis each replica's rows give their own sample, in replica
        order, so the per-key sample sequence (and the float
        accumulation order in ``BranchStat``) is that of R sequential
        runs; a batched ``run_program`` buffers them for replica-major
        replay.
        """
        taken = taken_rows(mask)
        if replicas == 1:
            self._probe_count(prob_key, int(np.count_nonzero(taken)), taken.size)
            return
        rows = taken.size // replicas
        self._probe_samples(prob_key, [
            int(np.count_nonzero(taken[index * rows : (index + 1) * rows])) / rows
            if rows else 0.0
            for index in range(replicas)
        ])

    def _probe_const(
        self, prob_key: str, taken: bool, batch: int, replicas: int = 1
    ) -> None:
        """A constant-condition probe: every row taken, or none."""
        if replicas == 1:
            self._probe_count(prob_key, batch if taken else 0, batch)
            return
        rows = batch // replicas
        sample = 1.0 if taken and rows else 0.0
        self._probe_samples(prob_key, [sample] * replicas)

    def _probe_count(self, prob_key: str, taken: int, rows: int) -> None:
        if self._tally is not None:
            self._tally.add(prob_key, taken, rows)
        else:
            self._record_branch(prob_key, taken / rows if rows else 0.0)

    def _probe_samples(self, prob_key: str, samples: list[float]) -> None:
        if self._probe_buffer is not None:
            self._probe_buffer.append((prob_key, samples))
        else:
            for sample in samples:
                self._record_branch(prob_key, sample)

    # -- internals -------------------------------------------------------

    def _check_env(self, env: dict[str, np.ndarray]) -> None:
        batches = set()
        for name, reg in env.items():
            if reg.ndim != 2 or reg.shape[1] != self.width:
                raise MachineError(
                    f"register {name!r} has shape {reg.shape}, expected "
                    f"(batch, {self.width})"
                )
            batches.add(reg.shape[0])
        if len(batches) > 1:
            raise MachineError(f"inconsistent batch sizes in env: {batches}")

    def _exec_nodes(
        self,
        nodes: tuple[Node, ...],
        env: dict[str, np.ndarray],
        loop_indices: list[int],
    ) -> None:
        for node in nodes:
            if isinstance(node, Instr):
                self._exec_instr(node, env, loop_indices)
            elif isinstance(node, Loop):
                for index in range(node.count):
                    self._exec_nodes(node.body, env, loop_indices + [index])
            elif isinstance(node, IfBlock):
                self._exec_if(node, env, loop_indices)
            else:  # pragma: no cover - defensive
                raise MachineError(f"unknown node type {type(node)!r}")

    def _exec_instr(
        self,
        instr: Instr,
        env: dict[str, np.ndarray],
        loop_indices: list[int],
    ) -> None:
        spec = OPS[instr.op]
        if spec.func is None:  # nop
            return
        try:
            srcs = [env[name] for name in instr.srcs]
        except KeyError as exc:
            raise MachineError(
                f"instruction {instr.op} reads undefined register {exc}"
            ) from exc
        imm = self._resolve_imm(instr, loop_indices)
        # Garbage lanes (padding, excluded self-pairs) legitimately hit
        # inf/nan in estimate ops, exactly as idle SIMD lanes do on
        # hardware; they are masked out downstream, so keep NumPy quiet.
        with np.errstate(all="ignore"):
            if spec.uses_imm:
                result = spec.func(*srcs, imm)
            else:
                result = spec.func(*srcs)
        if instr.dest is not None:
            env[instr.dest] = np.asarray(result, dtype=self.dtype)

    @staticmethod
    def _resolve_imm(instr: Instr, loop_indices: list[int]) -> object | None:
        """Resolve per-loop-iteration immediates.

        Convention: for ``il`` a tuple immediate holds one scalar per
        iteration of the innermost enclosing loop; for ``ilv`` a tuple of
        tuples holds one lane vector per iteration.  Anything else is
        passed through unchanged.
        """
        imm = instr.imm
        if not loop_indices or not isinstance(imm, tuple) or not imm:
            return imm
        index = loop_indices[-1] % len(imm)
        if instr.op == "il" and isinstance(imm[0], (float, int)):
            return imm[index]
        if instr.op == "ilv" and isinstance(imm[0], tuple):
            return imm[index]
        return imm

    def _exec_if(
        self,
        node: IfBlock,
        env: dict[str, np.ndarray],
        loop_indices: list[int],
    ) -> None:
        if node.cond not in env:
            raise MachineError(f"IfBlock condition {node.cond!r} undefined")
        mask = env[node.cond] != 0
        self._probe(node.prob_key, mask)
        written = self._written_registers(node.body)
        saved = {name: env[name].copy() for name in written if name in env}
        self._exec_nodes(node.body, env, loop_indices)
        for name in written:
            if name in saved:
                env[name] = np.where(mask, env[name], saved[name])
            elif name in env:
                # First defined inside the If: zero out untaken lanes so
                # untaken iterations contribute the additive identity.
                env[name] = np.where(mask, env[name], self.dtype.type(0.0))

    @staticmethod
    def _written_registers(nodes: tuple[Node, ...]) -> list[str]:
        written: list[str] = []
        stack: list[Node] = list(nodes)
        while stack:
            node = stack.pop()
            if isinstance(node, Instr):
                if node.dest is not None and node.dest not in written:
                    written.append(node.dest)
            elif isinstance(node, (Loop, IfBlock)):
                stack.extend(node.body)
        return written
