"""Codegen execution backend: lower a VM segment to one fused NumPy closure.

The interpreter in :mod:`repro.vm.machine` pays per-instruction costs
that have nothing to do with the arithmetic: a dict dispatch per
opcode, a fresh ``(batch, width)`` allocation per result, and full
register copies around every :class:`~repro.vm.program.IfBlock`.  This
module removes all of it by *compiling* a segment once:

1. **Flatten** the node tree to SSA straight-line form — loops are
   unrolled with their ``il``/``ilv`` per-iteration immediates resolved
   at compile time, and value-identity opcodes (``mov``, ``lqd``,
   ``stqd``, ``texfetch``, ``fi``) become pure renames that emit no
   code at all.
2. **Hoist constants** — ``il``/``ilv`` results (and anything computed
   only from them) fold at compile time instead of per-call ``np.full``
   materializations.  A ufunc or ``copyto`` never reads a ``(width,)``
   row (broadcasting one runs a ``width``-element inner loop): a
   constant whose lanes are byte-identical and not NaN is passed as a
   ``dtype`` scalar, any other one as a ``(batch, width)`` array built
   once per batch size with the slot pool.  Lane ops (``splat``,
   ``shufb``, ``rotqbyi``) and constant writebacks index the row.
3. **Lower predication** — an ``IfBlock`` becomes one boolean mask, a
   branch-probability probe feeding ``Machine.branch_stats`` exactly as
   the interpreter does, and per-register masked selects over only the
   registers the body actually redefines (the SSA form *is* the saved
   copy, so nothing is copied up front).
4. **Eliminate dead code** — values that never reach a declared output
   or a probe are dropped (the scalar Figure-5 kernels' local-store
   spill traffic exists purely for the cycle model, so it vanishes
   here while still being charged by :mod:`repro.vm.schedule`).
5. **Split lane-uniform values** — a value whose lanes are equal in
   every row (a ``splat``, a scalar constant, an input the caller
   declares uniform, or an elementwise op, mask or select whose sources
   all are) lives in a ``(batch,)`` slot and costs a quarter of the wide
   work.  A ``splat`` of a wide value is one column extract, of a
   uniform one a rename; a declared input is read through its lane-0
   column view; lane ops read a uniform source as that column.  A wide
   op or a writeback reads a uniform value widened once, by ``width``
   strided lane copies, so no ufunc ever broadcasts a ``(batch,)``
   operand against a ``(batch, width)`` one, and a probe reads a
   ``(batch,)`` mask as the taken rows.
6. **Assign buffer slots by liveness** — a linear scan reuses a small
   pool of ``(batch, width)`` and ``(batch,)`` scratch buffers via
   in-place ``out=`` ufunc kernels; steady-state execution allocates
   nothing.  A compare whose float 0/1 result only feeds an
   ``IfBlock``/``selb`` mask writes that bool mask directly.
7. **Emit Python source** for the whole segment body and ``exec`` it
   once; the closure is cached per ``(program, segment names, width,
   dtype, uniform inputs)``.  Declared outputs go to ``env`` as fresh
   arrays, or in place into caller-owned ones (``out=``).

Two compilation granularities share this pipeline, both run by the
``fused`` backend:

* :func:`compile_segment` lowers one named segment — the unit
  :meth:`Machine.run_segment` dispatches.
* :func:`compile_program` feeds *every* segment of a program through
  one :class:`_Flattener` in declaration order, so values flow across
  segment boundaries in SSA form (a force segment's ``acc_out`` is
  consumed by the integration segment without ever touching ``env``)
  and the liveness scan reuses buffer slots across those boundaries.
  This is :meth:`Machine.run_program`'s whole-timestep unit: one
  closure, zero per-segment dispatch.  For a single-segment program the
  two units, with no inputs declared uniform, are the same
  ``_compile_unit(program, (name,))`` call, so they share one cache
  entry.

Replica batching: the emitted closure takes a ``replicas`` count.  The
arithmetic needs nothing special — every operation is elementwise along
the row axis, so R replicas stacked along rows compute exactly what R
sequential runs compute — but branch-probability *probes* must stay
per-replica: the closure records one P(taken) sample per replica, in
replica order, so ``Machine.branch_stats`` after a batched run is
bit-identical to R sequential runs.

The compiled closure is bit-identical to the interpreter on every
declared output and records the same branch-probability samples in the
same order (the differential suites in ``tests/vm/test_compile.py``
and ``tests/vm/test_fused.py`` enforce both).  Contract difference:
only the program's *declared outputs* are written back to ``env``;
interpreter intermediates stay in reused slots.  The cycle model is
untouched — it reads the instruction stream, not the executor.
"""

from __future__ import annotations

import collections
import functools
import itertools
import weakref

import numpy as np

from repro.vm.isa import OPS
from repro.vm.machine import Machine, MachineError
from repro.vm.program import IfBlock, Instr, Loop, Node, Program

__all__ = [
    "VMCompileError",
    "CompiledSegment",
    "compiled_segment",
    "compile_segment",
    "compiled_program",
    "compile_program",
]


class VMCompileError(MachineError):
    """Raised when a program cannot be lowered to straight-line NumPy."""


#: Opcodes whose result is value-identical to one source: compiled away
#: to SSA renames.  The index is the source that carries the value.
_RENAME_OPS = {"mov": 0, "lqd": 0, "stqd": 0, "texfetch": 0, "fi": 1}

#: Binary elementwise opcodes -> ufunc (dest may alias either source).
_BINARY_UFUNCS = {
    "fa": "np.add",
    "fs": "np.subtract",
    "fm": "np.multiply",
    "fdiv": "np.divide",
    "fmin": "np.minimum",
    "fmax": "np.maximum",
    "cpsgn": "np.copysign",
    "and_": "np.multiply",  # mask conjunction, as in the ISA
    "or_": "np.maximum",  # mask disjunction
    "fcgt": "np.greater",  # bool result cast into the out= buffer
    "fclt": "np.less",
    "fceq": "np.equal",
}

#: Compare opcodes: their 1.0/0.0 result may be written as a bool mask.
_COMPARES = frozenset(("fcgt", "fclt", "fceq"))

#: Unary elementwise opcodes -> ufunc (dest may alias the source).
_UNARY_UFUNCS = {"fsqrt": "np.sqrt", "fabs": "np.abs", "fneg": "np.negative"}

_ELEMENTWISE_MULTI = {"fma", "fms", "fnms", "frest", "frsqest", "fround"}

#: src positions the dest buffer may alias, per opcode.
_ALIAS_SAFE = {
    **{op: (0, 1) for op in _BINARY_UFUNCS},
    **{op: (0,) for op in _UNARY_UFUNCS},
    "fma": (0, 1),
    "fms": (0, 1),
    "fnms": (0, 1),
    "frest": (0,),
    "frsqest": (0,),
    "fround": (0,),
    "splat": (),
    "shufb": (),
    "rotqbyi": (),
}

_uid = itertools.count()


class _Val:
    """One SSA value: an env input, a hoisted constant, or a slot temp.

    A ``uniform`` value holds one number per row, the value of every
    lane: a temp or mask in a ``(batch,)`` slot, or a declared input's
    lane-0 ``column``.
    """

    __slots__ = ("kind", "name", "const", "uid", "uniform")

    def __init__(self, kind: str, name: str | None = None, const=None) -> None:
        self.kind = kind  # "input" | "column" | "maybe" | "const" | "temp" | "mask"
        self.name = name
        self.const = const
        self.uid = next(_uid)
        self.uniform = False

    @property
    def pool(self) -> str:
        pool = "b" if self.kind == "mask" else "f"
        return "u" + pool if self.uniform else pool

    @property
    def slotted(self) -> bool:
        return self.kind in ("temp", "mask")


class _Op:
    """One lowered operation in the straight-line stream."""

    __slots__ = ("kind", "opname", "dest", "srcs", "imm", "prob_key", "taken", "alias_pos")

    def __init__(self, kind, dest=None, srcs=(), opname=None, imm=None,
                 prob_key=None, taken=None):
        self.kind = kind  # "compute" | "mask" | "select" | "probe"
        self.opname = opname
        self.dest = dest
        self.srcs = tuple(srcs)
        self.imm = imm
        self.prob_key = prob_key
        self.taken = taken  # a constant probe's condition, else None
        self.alias_pos = None

    def alias_safe(self) -> tuple[int, ...]:
        if self.kind == "compute":
            return _ALIAS_SAFE.get(self.opname, ())
        if self.kind == "select":  # srcs = (mask, taken, untaken)
            return (2,)
        return ()


class _Flattener:
    """Unroll, rename, fold, and predicate a segment body into _Ops."""

    def __init__(self, width: int, dtype: np.dtype) -> None:
        self.width = width
        self.dtype = dtype
        self.ops: list[_Op] = []
        self.env_vals: dict[str, _Val] = {}
        self.inputs: dict[str, _Val] = {}
        self._mask_memo: dict[int, _Val] = {}
        self._maybe_memo: dict[str, _Val] = {}

    # -- value helpers ---------------------------------------------------

    def read(self, name: str) -> _Val:
        val = self.env_vals.get(name)
        if val is None:
            val = self.inputs.get(name)
            if val is None:
                val = _Val("input", name=name)
                self.inputs[name] = val
            self.env_vals[name] = val
        return val

    def const(self, array: np.ndarray) -> _Val:
        return _Val("const", const=array)

    def maybe_input(self, name: str) -> _Val:
        """A register whose presence in ``env`` is only known at run time.

        Interpreter rule for a register first written inside an IfBlock:
        untaken lanes restore the caller-provided value when ``env``
        holds one, else the additive identity.  ``env.get(name, zeros)``
        in the prologue reproduces that exactly.
        """
        memo = self._maybe_memo.get(name)
        if memo is None:
            memo = self._maybe_memo[name] = _Val("maybe", name=name)
        return memo

    def mask_of(self, cond: _Val) -> _Val:
        """The boolean ``cond != 0`` mask, memoized per source value."""
        memo = self._mask_memo.get(cond.uid)
        if memo is not None:
            return memo
        if cond.kind == "const":
            mask = self.const(cond.const != 0)
        else:
            mask = _Val("mask")
            self.ops.append(_Op("mask", dest=mask, srcs=(cond,)))
        self._mask_memo[cond.uid] = mask
        return mask

    # -- node lowering ---------------------------------------------------

    def flatten(self, nodes: tuple[Node, ...], loop_indices: list[int]) -> None:
        for node in nodes:
            if isinstance(node, Instr):
                self._flatten_instr(node, loop_indices)
            elif isinstance(node, Loop):
                for index in range(node.count):
                    self.flatten(node.body, loop_indices + [index])
            elif isinstance(node, IfBlock):
                self._flatten_if(node, loop_indices)
            else:  # pragma: no cover - defensive
                raise VMCompileError(f"unknown node type {type(node)!r}")

    def _flatten_instr(self, instr: Instr, loop_indices: list[int]) -> None:
        spec = OPS[instr.op]
        if spec.func is None:  # nop
            return
        srcs = [self.read(name) for name in instr.srcs]
        imm = Machine._resolve_imm(instr, loop_indices)

        rename = _RENAME_OPS.get(instr.op)
        if rename is not None:
            if instr.dest is not None:
                self.env_vals[instr.dest] = srcs[rename]
            return

        if instr.op in ("il", "ilv"):
            self.env_vals[instr.dest] = self.const(self._immediate_const(instr.op, imm))
            return

        if instr.op == "selb":
            self._lower_select(instr.dest, srcs[2], srcs[1], srcs[0])
            return

        self._validate_lane_imm(instr.op, imm)
        if all(s.kind == "const" for s in srcs):
            self.env_vals[instr.dest] = self.const(
                self._fold(spec, [s.const for s in srcs], imm)
            )
            return
        dest = _Val("temp")
        self.ops.append(_Op("compute", dest=dest, srcs=srcs, opname=instr.op, imm=imm))
        if instr.dest is not None:
            self.env_vals[instr.dest] = dest

    def _lower_select(self, dest_name: str, cond: _Val, taken: _Val, untaken: _Val) -> _Val:
        """``where(cond != 0, taken, untaken)`` as mask + masked copies."""
        mask = self.mask_of(cond)
        if mask.kind == "const" and taken.kind == "const" and untaken.kind == "const":
            dest = self.const(
                np.where(mask.const, taken.const, untaken.const).astype(
                    self.dtype, copy=False
                )
            )
        else:
            dest = _Val("temp")
            self.ops.append(_Op("select", dest=dest, srcs=(mask, taken, untaken)))
        if dest_name is not None:
            self.env_vals[dest_name] = dest
        return dest

    def _flatten_if(self, node: IfBlock, loop_indices: list[int]) -> None:
        cond = self.read(node.cond)
        mask = self.mask_of(cond)
        taken = bool(np.any(mask.const)) if mask.kind == "const" else None
        self.ops.append(_Op("probe", srcs=(mask,), prob_key=node.prob_key, taken=taken))
        before = dict(self.env_vals)
        self.flatten(node.body, loop_indices)
        # Registers the body redefined get lane-selected against their
        # pre-branch value — the interpreter's save/restore without the
        # copies.  A register first touched inside the body falls back
        # to its env input (created by a read in the body) or, when the
        # segment never reads it at all, to a runtime env.get lookup.
        for name in list(self.env_vals):
            new = self.env_vals[name]
            old = before.get(name)
            if old is new:
                continue
            if old is None:
                old = self.inputs.get(name) or self.maybe_input(name)
                if old is new:
                    continue
            merged = self._lower_if_merge(mask, new, old)
            self.env_vals[name] = merged

    def _lower_if_merge(self, mask: _Val, taken: _Val, untaken: _Val) -> _Val:
        if mask.kind == "const" and taken.kind == "const" and untaken.kind == "const":
            return self.const(
                np.where(mask.const, taken.const, untaken.const).astype(
                    self.dtype, copy=False
                )
            )
        dest = _Val("temp")
        self.ops.append(_Op("select", dest=dest, srcs=(mask, taken, untaken)))
        return dest

    # -- immediates and folding ------------------------------------------

    def _immediate_const(self, op: str, imm) -> np.ndarray:
        """Evaluate il/ilv to a (width,) broadcast constant."""
        try:
            if op == "il":
                return np.full((self.width,), imm, dtype=self.dtype)
            lanes = np.zeros((self.width,), dtype=self.dtype)
            values = tuple(imm)
            if len(values) > self.width:
                raise ValueError(
                    f"{len(values)} lanes exceed width {self.width}"
                )
            for lane, value in enumerate(values):
                lanes[lane] = value
            return lanes
        except (TypeError, ValueError) as exc:
            raise VMCompileError(f"bad {op} immediate {imm!r}: {exc}") from exc

    def _validate_lane_imm(self, op: str, imm) -> None:
        width = self.width
        if op == "splat":
            if not isinstance(imm, (int, np.integer)) or not 0 <= imm < width:
                raise VMCompileError(f"splat lane {imm!r} outside [0, {width})")
        elif op == "shufb":
            pattern = tuple(imm) if isinstance(imm, (tuple, list)) else None
            if pattern is None or len(pattern) != width or not all(
                isinstance(i, (int, np.integer)) and 0 <= i < 2 * width
                for i in pattern
            ):
                raise VMCompileError(
                    f"shufb pattern {imm!r} must hold {width} lane indices "
                    f"in [0, {2 * width})"
                )
        elif op == "rotqbyi":
            if not isinstance(imm, (int, np.integer)):
                raise VMCompileError(f"rotqbyi amount {imm!r} is not an integer")

    def _fold(self, spec, consts: list[np.ndarray], imm) -> np.ndarray:
        """Apply an opcode to (width,) constants — identical per-lane
        arithmetic to applying it to every row of a (batch, width) batch."""
        with np.errstate(all="ignore"):
            result = spec.func(*consts, imm) if spec.uses_imm else spec.func(*consts)
        result = np.asarray(result, dtype=self.dtype)
        if result.shape != (self.width,):
            raise VMCompileError(
                f"{spec.name} folded to shape {result.shape}, "
                f"expected ({self.width},)"
            )
        return result


# ---------------------------------------------------------------------------
# dead-code elimination, liveness, slot assignment
# ---------------------------------------------------------------------------


def _eliminate_dead(ops: list[_Op], live_out: set[int]) -> list[_Op]:
    """Keep probes (side effects) and everything a live value depends on."""
    needed = set(live_out)
    keep = [False] * len(ops)
    for i in range(len(ops) - 1, -1, -1):
        op = ops[i]
        if op.kind == "probe" or (op.dest is not None and op.dest.uid in needed):
            keep[i] = True
            for src in op.srcs:
                needed.add(src.uid)
    return [op for i, op in enumerate(ops) if keep[i]]


def _fuse_compare_masks(ops: list[_Op], writeback_vals: list[_Val]) -> list[_Op]:
    """Drop each ``cond != 0`` op whose ``cond`` is a compare read nowhere else.

    The compare then writes the bool mask itself (``np.less(a, b,
    out=mask)``): the same truth values as the float 1.0/0.0 it would
    have written, NaN operands included, without the float buffer or
    the second pass.  A compare whose float result is also read or
    written back keeps both ops.
    """
    uses = collections.Counter(src.uid for op in ops for src in op.srcs)
    uses.update(val.uid for val in writeback_vals)
    compares = {
        op.dest.uid: op
        for op in ops
        if op.kind == "compute" and op.opname in _COMPARES
    }
    fused = []
    for op in ops:
        if op.kind == "mask":
            cond = op.srcs[0]
            producer = compares.get(cond.uid)
            if producer is not None and uses[cond.uid] == 1:
                producer.dest = op.dest
                continue
        fused.append(op)
    return fused


#: Slot pools: wide float and bool, then uniform (``(batch,)``) ones.
_POOLS = ("f", "b", "uf", "ub")


def _scalar_const(row: np.ndarray):
    """The lanes' common value as a ``dtype`` scalar, or ``None``.

    Lanes must match byte for byte, so a ``0.0``/``-0.0`` mix stays
    wide, and must not be NaN: ``np.add``/``np.multiply`` with a NaN
    scalar can return the other operand's NaN payload where a full array
    returns its own.  A non-NaN scalar gives every ufunc here the same
    bytes as the full array the interpreter reads.
    """
    first = row[:1]
    if row.tobytes() != first.tobytes() * row.size:
        return None
    if row.dtype.kind == "f" and np.isnan(first[0]):
        return None
    return first[0]


def _split_uniform(
    ops: list[_Op],
    writebacks: list[tuple[str, _Val]],
    uniform_inputs: frozenset[str],
) -> tuple[list[_Op], list[tuple[str, _Val]]]:
    """Move lane-uniform values into ``(batch,)`` slots.

    A value is uniform when each row's lanes all hold one number: a
    ``splat``, a constant passed as a scalar, an input the caller
    declares uniform, or an elementwise op, mask or select whose sources
    are all uniform.  Such an op runs on ``(batch,)`` slots, a quarter
    of the wide work.  A splat of a wide value is one column extract; a
    splat of a uniform one is a rename.  A declared input is read as its
    lane-0 column, a view.  Lane ops read a uniform source as the column
    it is.  Any other wide op, and a writeback, reads a uniform value
    widened once into a wide slot, so no ufunc broadcasts a column
    against a wide operand.
    """
    lowered: list[_Op] = []
    renamed: dict[int, _Val] = {}
    columns: dict[int, _Val] = {}
    widened: dict[int, _Val] = {}

    def narrow(val: _Val) -> _Val | None:
        """``val`` as a uniform value, or ``None`` if it is not one."""
        if val.kind == "input":
            if val.name not in uniform_inputs:
                return None
            column = columns.get(val.uid)
            if column is None:
                column = columns[val.uid] = _Val("column", name=val.name)
                column.uniform = True
            return column
        if val.kind == "const":
            return val if _scalar_const(val.const) is not None else None
        return val if val.uniform else None

    def wide(val: _Val) -> _Val:
        if val.kind == "input" and val.name in uniform_inputs:
            val = narrow(val)
        if not val.uniform:
            return val
        copy = widened.get(val.uid)
        if copy is None:
            copy = widened[val.uid] = _Val("mask" if val.kind == "mask" else "temp")
            lowered.append(_Op("widen", dest=copy, srcs=(val,)))
        return copy

    for op in ops:
        srcs = tuple(renamed.get(v.uid, v) for v in op.srcs)
        narrowed = tuple(narrow(v) for v in srcs)
        if op.kind == "probe":
            pass
        elif op.opname in ("shufb", "rotqbyi"):
            srcs = tuple(n or v for n, v in zip(narrowed, srcs))
        elif op.opname == "splat":
            if narrowed[0] is not None:
                renamed[op.dest.uid] = narrowed[0]
                continue
            op.dest.uniform = True
        elif all(n is not None for n in narrowed):
            op.dest.uniform = True
            srcs = narrowed
        else:
            srcs = tuple(wide(v) for v in srcs)
        op.srcs = srcs
        lowered.append(op)
    writebacks = [
        (name, wide(renamed.get(val.uid, val))) for name, val in writebacks
    ]
    return lowered, writebacks


def _assign_slots(ops: list[_Op], writeback_vals: list[_Val]) -> tuple[dict[int, tuple[str, int]], dict[str, int]]:
    """Linear-scan slot allocation with alias-aware ``out=`` reuse."""
    last_use: dict[int, int] = {}
    for i, op in enumerate(ops):
        for src in op.srcs:
            if src.slotted:
                last_use[src.uid] = i
    for val in writeback_vals:
        if val.slotted:
            last_use[val.uid] = len(ops)

    slots: dict[int, tuple[str, int]] = {}
    free: dict[str, list[int]] = {pool: [] for pool in _POOLS}
    counts: dict[str, int] = {pool: 0 for pool in _POOLS}

    for i, op in enumerate(ops):
        aliased_src = None
        if op.dest is not None:
            pool = op.dest.pool
            safe = op.alias_safe()
            for pos in safe:
                src = op.srcs[pos]
                if (
                    src.slotted
                    and src.pool == pool
                    and last_use.get(src.uid) == i
                    and not any(
                        op.srcs[q] is src
                        for q in range(len(op.srcs))
                        if q not in safe
                    )
                ):
                    slots[op.dest.uid] = slots[src.uid]
                    op.alias_pos = pos
                    aliased_src = src
                    break
            if aliased_src is None:
                if free[pool]:
                    slots[op.dest.uid] = (pool, free[pool].pop())
                else:
                    slots[op.dest.uid] = (pool, counts[pool])
                    counts[pool] += 1
        freed = set()
        for src in op.srcs:
            if (
                src.slotted
                and src is not aliased_src
                and src.uid not in freed
                and last_use.get(src.uid) == i
            ):
                pool, index = slots[src.uid]
                free[pool].append(index)
                freed.add(src.uid)
    return slots, counts


# ---------------------------------------------------------------------------
# code emission
# ---------------------------------------------------------------------------


def _emit_compute(op: _Op, expr, lane, width: int) -> list[str]:
    d = expr(op.dest)
    name = op.opname
    if name == "splat":  # into a uniform dest: one column
        return [f"np.copyto({d}, {lane(op.srcs[0], int(op.imm))})"]
    if name == "shufb":
        return [
            f"{d}[..., {k}] = "
            + (lane(op.srcs[0], index) if index < width else lane(op.srcs[1], index - width))
            for k, index in enumerate(op.imm)
        ]
    if name == "rotqbyi":
        shift = int(op.imm)
        return [
            f"{d}[..., {k}] = {lane(op.srcs[0], (k + shift) % width)}"
            for k in range(width)
        ]
    s = [expr(v) for v in op.srcs]
    if name in _BINARY_UFUNCS:
        return [f"{_BINARY_UFUNCS[name]}({s[0]}, {s[1]}, out={d})"]
    if name in _UNARY_UFUNCS:
        return [f"{_UNARY_UFUNCS[name]}({s[0]}, out={d})"]
    if name == "fma":
        return [f"np.multiply({s[0]}, {s[1]}, out={d})",
                f"np.add({d}, {s[2]}, out={d})"]
    if name == "fms":
        return [f"np.multiply({s[0]}, {s[1]}, out={d})",
                f"np.subtract({d}, {s[2]}, out={d})"]
    if name == "fnms":  # c - a*b
        return [f"np.multiply({s[0]}, {s[1]}, out={d})",
                f"np.subtract({s[2]}, {d}, out={d})"]
    if name == "frest":
        return [f"np.divide(_one, {s[0]}, out={d})"]
    if name == "frsqest":
        return [f"np.sqrt({s[0]}, out={d})",
                f"np.divide(_one, {d}, out={d})"]
    if name == "fround":
        return [f"np.round({s[0]}, 0, {d})"]
    raise VMCompileError(f"no codegen for opcode {name!r}")  # pragma: no cover


def _emit_op(op: _Op, expr, lane, width: int) -> list[str]:
    if op.kind == "compute":
        return _emit_compute(op, expr, lane, width)
    if op.kind == "widen":
        return [f"{expr(op.dest)}[..., {k}] = {expr(op.srcs[0])}" for k in range(width)]
    if op.kind == "mask":
        return [f"np.not_equal({expr(op.srcs[0])}, 0, out={expr(op.dest)})"]
    if op.kind == "select":
        mask, taken, untaken = (expr(v) for v in op.srcs)
        d = expr(op.dest)
        lines = [] if op.alias_pos == 2 else [f"np.copyto({d}, {untaken})"]
        lines.append(f"np.copyto({d}, {taken}, where={mask})")
        return lines
    if op.kind == "probe":
        if op.taken is not None:  # constant condition, batch-independent
            return [
                f"machine._probe_const({op.prob_key!r}, {op.taken!r}, "
                f"batch, replicas)"
            ]
        return [
            f"machine._probe({op.prob_key!r}, {expr(op.srcs[0])}, replicas)",
        ]
    raise VMCompileError(f"no codegen for op kind {op.kind!r}")  # pragma: no cover


def _load(env: dict, name: str) -> np.ndarray:
    try:
        return env[name]
    except KeyError:
        raise MachineError(
            f"compiled segment reads undefined register {name!r}"
        ) from None


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class CompiledSegment:
    """One compilation unit lowered to a fused closure plus its buffers.

    The unit is either a single segment (:meth:`Machine.run_segment`) or
    a whole program's segments fused end to end
    (:meth:`Machine.run_program`); :attr:`segment_names` lists what went
    in, :attr:`segment_name` is the ``+``-joined display form.
    """

    def __init__(
        self,
        program_name: str,
        segment_name: str,
        width: int,
        dtype: np.dtype,
        fn,
        source: str,
        slot_counts: dict[str, int],
        input_names: tuple[str, ...],
        n_kernel_calls: int,
        segment_names: tuple[str, ...] | None = None,
        wide_consts: tuple[np.ndarray, ...] = (),
    ) -> None:
        self.program_name = program_name
        self.segment_name = segment_name
        self.segment_names = segment_names if segment_names is not None else (segment_name,)
        self.width = width
        self.dtype = dtype
        self.source = source
        #: buffer slots per pool (see ``_POOLS``)
        self.slot_counts = dict(slot_counts)
        self.input_names = input_names
        self.n_kernel_calls = n_kernel_calls
        #: ``(width,)`` rows of the constants ufuncs read as full arrays
        self.wide_consts = wide_consts
        self._fn = fn
        self._pools: dict[int, tuple[tuple[np.ndarray, ...], ...]] = {}

    @property
    def n_float_slots(self) -> int:
        return self.slot_counts["f"] + self.slot_counts["uf"]

    @property
    def n_bool_slots(self) -> int:
        return self.slot_counts["b"] + self.slot_counts["ub"]

    def _pool(self, batch: int):
        pool = self._pools.get(batch)
        if pool is None:
            if len(self._pools) > 8:  # drivers cycle over at most two sizes
                self._pools.clear()
            pool = tuple(
                tuple(
                    np.empty(
                        (batch,) if name.startswith("u") else (batch, self.width),
                        dtype=bool if name.endswith("b") else self.dtype,
                    )
                    for _ in range(self.slot_counts[name])
                )
                for name in _POOLS
            ) + (
                tuple(_read_only(np.tile(row, (batch, 1))) for row in self.wide_consts),
            )
            self._pools[batch] = pool
        return pool

    def __call__(
        self,
        env: dict[str, np.ndarray],
        machine,
        replicas: int = 1,
        out: dict[str, np.ndarray] | None = None,
    ) -> dict[str, np.ndarray]:
        """Run the closure over ``env``'s batch.

        Declared outputs go to ``env`` as fresh arrays, or, when ``out``
        is given, are copied in place into ``out[name]``.
        """
        batch = next(iter(env.values())).shape[0] if env else 0
        self._fn(env, machine, *self._pool(batch), batch, replicas, out)
        return env


def compile_segment(
    program: Program,
    segment_name: str,
    width: int,
    dtype: np.dtype | type = np.float32,
    uniform_inputs: frozenset[str] = frozenset(),
) -> CompiledSegment:
    """Lower one segment to a :class:`CompiledSegment` (uncached).

    ``uniform_inputs`` names inputs whose lanes the caller guarantees
    equal in every row; the code reads one lane of them.
    """
    program.segment(segment_name)  # raise early on unknown names
    return _compile_unit(
        program, (segment_name,), width, np.dtype(dtype), frozenset(uniform_inputs)
    )


def compile_program(
    program: Program,
    width: int,
    dtype: np.dtype | type = np.float32,
) -> CompiledSegment:
    """Fuse *every* segment of ``program`` into one closure (uncached).

    Segments flatten through one shared :class:`_Flattener` in
    declaration order, so a register written by an earlier segment is
    consumed by a later one as an SSA value — no ``env`` round trip, no
    per-segment dispatch — and buffer slots are reused across segment
    boundaries by the same liveness scan.  Declared outputs are written
    back once, at the end of the whole program.
    """
    names = tuple(segment.name for segment in program.segments)
    return _compile_unit(program, names, width, np.dtype(dtype), frozenset())


def _compile_unit(
    program: Program,
    segment_names: tuple[str, ...],
    width: int,
    dtype: np.dtype,
    uniform_inputs: frozenset[str],
) -> CompiledSegment:
    flat = _Flattener(width, dtype)
    for name in segment_names:
        flat.flatten(program.segment(name).body, loop_indices=[])

    writebacks: list[tuple[str, _Val]] = []
    for name in program.outputs:
        val = flat.env_vals.get(name)
        if val is None or (val.kind == "input" and val.name == name):
            continue
        writebacks.append((name, val))

    ops = _eliminate_dead(flat.ops, {val.uid for _n, val in writebacks})
    ops = _fuse_compare_masks(ops, [val for _n, val in writebacks])
    ops, writebacks = _split_uniform(ops, writebacks, uniform_inputs)
    slots, counts = _assign_slots(ops, [val for _n, val in writebacks])

    # -- name every value ------------------------------------------------
    input_vars: dict[int, str] = {}
    input_names: list[str] = []
    column_vars: dict[str, str] = {}
    used_inputs = {v.name for op in ops for v in op.srcs if v.kind in ("input", "column")}
    used_inputs |= {v.name for _n, v in writebacks if v.kind == "input"}
    for index, (name, val) in enumerate(sorted(flat.inputs.items())):
        if name in used_inputs:
            input_vars[val.uid] = f"_in{index}"
            input_names.append(name)
            column_vars[name] = f"_in{index}c"

    maybe_vars: dict[int, tuple[str, str]] = {}
    for op in ops:
        for val in op.srcs:
            if val.kind == "maybe" and val.uid not in maybe_vars:
                maybe_vars[val.uid] = (f"_m{len(maybe_vars)}", val.name)

    # A constant is named up to twice: as an operand (``_cN``, a scalar
    # in the namespace, or ``_wN``, a full array from the per-batch
    # pool) and as a lane row (``_rN``, the folded ``(width,)`` row).
    const_vars: dict[int, str] = {}
    row_vars: dict[int, str] = {}
    wide_consts: list[np.ndarray] = []
    n_scalars = itertools.count()
    namespace: dict[str, object] = {
        "np": np,
        "_load": _load,
        "_one": dtype.type(1.0),
        "_zero": dtype.type(0.0),
    }

    def expr(val: _Val) -> str:
        if val.kind == "input":
            return input_vars[val.uid]
        if val.kind == "column":
            return column_vars[val.name]
        if val.kind == "maybe":
            return maybe_vars[val.uid][0]
        if val.kind == "const":
            var = const_vars.get(val.uid)
            if var is None:
                scalar = _scalar_const(val.const)
                if scalar is None:
                    var = f"_w{len(wide_consts)}"
                    wide_consts.append(val.const)
                else:
                    var = f"_c{next(n_scalars)}"
                    namespace[var] = scalar
                const_vars[val.uid] = var
            return var
        pool, index = slots[val.uid]
        return f"_{pool}{index}"

    def row(val: _Val) -> str:
        var = row_vars.get(val.uid)
        if var is None:
            var = row_vars[val.uid] = f"_r{len(row_vars)}"
            namespace[var] = val.const
        return var

    def lane(val: _Val, k: int) -> str:
        """Lane ``k`` of a value, one element per row."""
        if val.kind == "const":
            return f"{row(val)}[..., {k}]"
        if val.uniform:
            return expr(val)
        return f"{expr(val)}[..., {k}]"

    # -- assemble source -------------------------------------------------
    body: list[str] = []
    n_kernel_calls = 0
    for op in ops:
        emitted = _emit_op(op, expr, lane, width)
        n_kernel_calls += len(emitted)
        body.extend(emitted)
    if writebacks:
        to_env, to_out = [], []
        for name, val in writebacks:
            if val.kind == "const":
                to_env.append(f"env[{name!r}] = np.tile({row(val)}, (batch, 1))")
                to_out.append(f"out[{name!r}][...] = {row(val)}")
            else:
                to_env.append(f"env[{name!r}] = {expr(val)}.copy()")
                to_out.append(f"np.copyto(out[{name!r}], {expr(val)})")
        body.append("if out is None:")
        body.extend("    " + line for line in to_env)
        body.append("else:")
        body.extend("    " + line for line in to_out)
    if not body:
        body.append("pass")

    pools = ", ".join(f"_{name}pool" for name in _POOLS)
    lines = [f"def _kernel(env, machine, {pools}, _wpool, batch, replicas, out):"]
    for name in _POOLS:
        for index in range(counts[name]):
            lines.append(f"    _{name}{index} = _{name}pool[{index}]")
    for index in range(len(wide_consts)):
        lines.append(f"    _w{index} = _wpool[{index}]")
    columns = {v.name for op in ops for v in op.srcs if v.kind == "column"}
    for val_uid, var in input_vars.items():
        name = next(n for n, v in flat.inputs.items() if v.uid == val_uid)
        lines.append(f"    {var} = _load(env, {name!r})")
        if name in columns:
            lines.append(f"    {column_vars[name]} = {var}[..., 0]")
    for var, name in maybe_vars.values():
        lines.append(f"    {var} = env.get({name!r}, _zero)")
    lines.append("    with np.errstate(all='ignore'):")
    lines.extend("        " + line for line in body)
    source = "\n".join(lines) + "\n"

    display = "+".join(segment_names)
    filename = f"<vm-compile:{program.name}/{display}>"
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102 - own codegen
    return CompiledSegment(
        program_name=program.name,
        segment_name=display,
        width=width,
        dtype=dtype,
        fn=namespace["_kernel"],
        source=source,
        slot_counts=counts,
        input_names=tuple(input_names),
        n_kernel_calls=n_kernel_calls,
        segment_names=tuple(segment_names),
        wide_consts=tuple(wide_consts),
    )


@functools.lru_cache(maxsize=256)
def _compiled_unit_cached(
    program: Program, fingerprint: str, segment_names: tuple[str, ...],
    width: int, dtype_str: str, uniform_inputs: frozenset[str],
) -> CompiledSegment:
    return _compile_unit(
        program, segment_names, width, np.dtype(dtype_str), uniform_inputs
    )


#: id(program) -> (weakref, fingerprint, {(segment names, width, dtype,
#: uniform inputs): unit}), identity-keyed so a cache hit neither hashes
#: nor reprs the program.
_by_program: dict[int, tuple] = {}


def _program_entry(program: Program) -> tuple:
    """This program object's fingerprint and the units compiled for it.

    The fingerprint is a cache key component stricter than dataclass
    equality.  Frozen-dataclass ``==`` uses Python value equality, under
    which ``0.0 == -0.0 == False`` and ``1 == 1.0 == True`` — so two
    programs whose immediates differ only in zero sign (or int/float
    type) would share one ``lru_cache`` entry while the interpreter,
    reading the actual ``imm`` objects, distinguishes them
    (``np.full_like(t, -0.0)`` is not byte-identical to
    ``np.full_like(t, 0.0)``).  ``repr`` preserves those distinctions;
    computing it once per program *object* keeps it off the hot path.
    """
    key = id(program)
    entry = _by_program.get(key)
    if entry is not None and entry[0]() is program:
        return entry
    ref = weakref.ref(program, lambda _r, _k=key: _by_program.pop(_k, None))
    entry = _by_program[key] = (ref, repr(program), {})
    return entry


def _cached_unit(
    program: Program,
    segment_names: tuple[str, ...],
    width: int,
    dtype: np.dtype,
    uniform_inputs: frozenset[str],
) -> CompiledSegment:
    """The compiled unit, looked up by program identity first.

    A miss goes to the shared ``lru_cache`` (keyed by the program and its
    fingerprint, so equal programs share a unit) and is remembered for
    this program object.  Programs are frozen dataclasses, hence
    hashable; an exotic unhashable immediate falls back to a one-off
    compile that is not remembered.
    """
    _ref, fingerprint, units = _program_entry(program)
    unit_key = (segment_names, width, dtype.str, uniform_inputs)
    unit = units.get(unit_key)
    if unit is None:
        try:
            unit = _compiled_unit_cached(
                program, fingerprint, segment_names, width, dtype.str, uniform_inputs
            )
        except TypeError:
            return _compile_unit(program, segment_names, width, dtype, uniform_inputs)
        units[unit_key] = unit
    return unit


def compiled_segment(
    program: Program,
    segment_name: str,
    width: int,
    dtype: np.dtype | type = np.float32,
    uniform_inputs: frozenset[str] = frozenset(),
) -> CompiledSegment:
    """The cached entry point :class:`~repro.vm.machine.Machine` uses.

    ``uniform_inputs`` is part of the cache key: see
    :func:`compile_segment`.
    """
    return _cached_unit(
        program, (segment_name,), width, np.dtype(dtype), frozenset(uniform_inputs)
    )


def compiled_program(
    program: Program,
    width: int,
    dtype: np.dtype | type = np.float32,
) -> CompiledSegment:
    """The cached whole-program entry point :meth:`Machine.run_program` uses."""
    names = tuple(segment.name for segment in program.segments)
    return _cached_unit(program, names, width, np.dtype(dtype), frozenset())
