"""One-time lowering of a :class:`Program` to bound per-instruction closures.

This is how :class:`~repro.sass.interpreter.SassKernel` executes a program:
every SASS instruction maps onto the corresponding
:class:`~repro.sim.context.KernelContext` primitive.  For campaign workloads
the same static program runs tens of thousands of times, so all dispatch and
name resolution happens once per :class:`Program`:

* every mnemonic/modifier is dispatched at *compile* time — each instruction
  becomes one closure over pre-bound context primitives,
* register/predicate/buffer names become dense slot indices into per-run
  lists (no per-operand dict hashing),
* immediate operands cache their lane array per run (re-materialized Val
  wrappers keep injection semantics: a const is never a live register),
* ``LOOP`` bodies compile once and replay per iteration,
* per-mnemonic telemetry keys (``sass.instructions.<mnemonic>``) are
  precomputed instead of f-string-built per run.

The order of context emissions (and therefore traces, injection-stream
ordinals, and RNG draws) follows the program text; ``tests/sass`` pins the
outputs, traces and telemetry of a kitchen-sink program, clean and injected.
Compiled programs are cached on the :class:`Program` instance and dropped on
pickling (closures don't cross process boundaries; workers recompile once
per process).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.dtypes import DType
from repro.common.errors import SimulationError
from repro.sass.program import Instruction, Operand, OperandKind, Program
from repro.sim.values import Val

_SPECIAL_ATTRS = {"%tid": "thread_idx", "%bid": "block_idx", "%gid": "global_id"}


class CompiledState:
    """Per-run mutable state for a compiled program (slot-indexed)."""

    __slots__ = ("ctx", "regs", "preds", "bufs", "consts", "counts")

    def __init__(self, ctx, compiled: "CompiledProgram", kernel) -> None:
        self.ctx = ctx
        self.regs: List[Optional[Val]] = [None] * compiled.n_regs
        self.preds: List[Optional[Val]] = [None] * compiled.n_preds
        self.consts: List[Optional[np.ndarray]] = [None] * compiled.n_consts
        self.counts = [0] * len(compiled.slot_mnemonics)
        # allocation order is declaration order: global buffers, then
        # shared ones (memory pool layout decides wild-access behavior)
        bufs = []
        for name in compiled.buffer_names:
            dtype = kernel.buffer_dtype(name)
            canonical = kernel.canonical_input(name)
            if canonical is not None:
                bufs.append(ctx.alloc(name, canonical, dtype))
            else:
                bufs.append(ctx.alloc_zeros(name, kernel.shapes[name], dtype))
        for name, elements in compiled.shared_decls:
            dtype = kernel.dtypes.get(name, DType.FP32)
            bufs.append(ctx.shared_alloc(name, elements, dtype))
        self.bufs = bufs


class CompiledProgram:
    """The product of :func:`compile_program` (cached on the Program)."""

    __slots__ = (
        "fns",
        "n_regs",
        "n_preds",
        "n_consts",
        "buffer_names",
        "shared_decls",
        "buffer_slots",
        "slot_mnemonics",
        "slot_keys",
    )

    def run(self, state: CompiledState) -> None:
        for fn in self.fns:
            fn(state)


class _Compiler:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.reg_slots: Dict[str, int] = {}
        self.pred_slots: Dict[str, int] = {}
        self.buf_slots: Dict[str, int] = {}
        self.n_consts = 0
        self.slot_mnemonics: List[str] = []
        for index, name in enumerate(program.buffers):
            self.buf_slots[name] = index
        for name, _ in program.shared:
            self.buf_slots[name] = len(self.buf_slots)

    # -- slot allocation ----------------------------------------------------
    def _reg(self, name: str) -> int:
        slot = self.reg_slots.get(name)
        if slot is None:
            slot = self.reg_slots[name] = len(self.reg_slots)
        return slot

    def _pred(self, name: str) -> int:
        slot = self.pred_slots.get(name)
        if slot is None:
            slot = self.pred_slots[name] = len(self.pred_slots)
        return slot

    def _const(self) -> int:
        slot = self.n_consts
        self.n_consts += 1
        return slot

    # -- operand readers ----------------------------------------------------
    def _reader(self, op: Operand, dtype: DType) -> Callable:
        """value(op, dtype) resolved once; returns read(state) -> Val."""
        kind = op.kind
        if kind is OperandKind.REGISTER:
            slot = self._reg(op.name)

            def read(state, _slot=slot, _dtype=dtype):
                val = state.regs[_slot]
                if val.dtype is not _dtype:
                    # registers are untyped storage on real hardware; reading
                    # at a different width reinterprets via convert
                    return state.ctx.cvt(val, _dtype)
                return val

            return read
        if kind is OperandKind.IMMEDIATE:
            slot = self._const()
            value = int(op.value) if dtype is DType.INT32 else op.value
            np_dtype = dtype.np_dtype

            def read(state, _slot=slot, _value=value, _np=np_dtype, _dtype=dtype):
                arr = state.consts[_slot]
                if arr is None:
                    arr = state.consts[_slot] = np.full(
                        state.ctx.num_lanes, _value, dtype=_np
                    )
                return Val(arr, _dtype, -1)

            return read
        if kind is OperandKind.SPECIAL:
            attr = _SPECIAL_ATTRS[op.name]

            def read(state, _attr=attr):
                return getattr(state.ctx, _attr)()

            return read
        raise SimulationError(f"operand {op} cannot be read as a value")

    def _store_reader(self, op: Operand) -> Callable:
        """Like :meth:`_reader` but the expected dtype is the destination
        buffer's, known only at run time; returns read(state, buf) -> Val."""
        kind = op.kind
        if kind is OperandKind.REGISTER:
            slot = self._reg(op.name)

            def read(state, buf, _slot=slot):
                val = state.regs[_slot]
                if val.dtype is not buf.dtype:
                    return state.ctx.cvt(val, buf.dtype)
                return val

            return read
        if kind is OperandKind.IMMEDIATE:
            slot = self._const()
            raw = op.value

            def read(state, buf, _slot=slot, _raw=raw):
                arr = state.consts[_slot]
                if arr is None:
                    dtype = buf.dtype
                    value = int(_raw) if dtype is DType.INT32 else _raw
                    arr = state.consts[_slot] = np.full(
                        state.ctx.num_lanes, value, dtype=dtype.np_dtype
                    )
                return Val(arr, buf.dtype, -1)

            return read
        if kind is OperandKind.SPECIAL:
            attr = _SPECIAL_ATTRS[op.name]

            def read(state, buf, _attr=attr):
                return getattr(state.ctx, _attr)()

            return read
        raise SimulationError(f"operand {op} cannot be read as a value")

    def _address(self, op: Operand) -> Tuple[int, Callable]:
        """Memory operand → (buffer slot, addr(state) -> index Val)."""
        buf_slot = self.buf_slots[op.name]
        if op.index_register is None:
            const_slot = self._const()
            offset = int(op.index_offset)

            def addr(state, _slot=const_slot, _offset=offset):
                arr = state.consts[_slot]
                if arr is None:
                    arr = state.consts[_slot] = np.full(
                        state.ctx.num_lanes, _offset, dtype=DType.INT32.np_dtype
                    )
                return Val(arr, DType.INT32, -1)

            return buf_slot, addr
        reg_slot = self._reg(op.index_register)
        offset = op.index_offset
        if offset:

            def addr(state, _slot=reg_slot, _offset=offset):
                idx = state.regs[_slot]
                if idx.dtype is not DType.INT32:
                    idx = state.ctx.cvt(idx, DType.INT32)
                return state.ctx.add(idx, _offset)

            return buf_slot, addr

        def addr(state, _slot=reg_slot):
            idx = state.regs[_slot]
            if idx.dtype is not DType.INT32:
                idx = state.ctx.cvt(idx, DType.INT32)
            return idx

        return buf_slot, addr

    # -- instruction lowering ------------------------------------------------
    def _lower(self, instr: Instruction) -> Callable:
        """The execute() arm for one instruction, dispatch-free."""
        m = instr.mnemonic
        dtype = instr.dtype or DType.FP32

        if m in ("LDG", "LDS"):
            buf_slot, addr = self._address(instr.sources[0])
            dest = self._reg(instr.dest.name)

            def fn(state, _buf=buf_slot, _addr=addr, _dest=dest):
                buf = state.bufs[_buf]
                state.regs[_dest] = state.ctx.ld(buf, _addr(state))

            return fn
        if m in ("STG", "STS"):
            buf_slot, addr = self._address(instr.dest)
            read = self._store_reader(instr.sources[0])

            def fn(state, _buf=buf_slot, _addr=addr, _read=read):
                buf = state.bufs[_buf]
                idx = _addr(state)
                state.ctx.st(buf, idx, _read(state, buf))

            return fn
        if m == "BAR":
            return lambda state: state.ctx.bar()
        if m == "NOP":
            return lambda state: state.ctx.nop()
        if m == "SETP":
            read_a = self._reader(instr.sources[0], dtype)
            read_b = self._reader(instr.sources[1], dtype)
            dest = self._pred(instr.dest.name)
            cmp = instr.modifier.lower()

            def fn(state, _a=read_a, _b=read_b, _dest=dest, _cmp=cmp):
                a = _a(state)
                b = _b(state)
                state.preds[_dest] = state.ctx.setp(a, _cmp, b)

            return fn
        if m == "SEL":
            pred = self._pred(instr.sources[0].name)
            read_a = self._reader(instr.sources[1], dtype)
            read_b = self._reader(instr.sources[2], dtype)
            dest = self._reg(instr.dest.name)

            def fn(state, _p=pred, _a=read_a, _b=read_b, _dest=dest):
                p = state.preds[_p]
                a = _a(state)
                b = _b(state)
                state.regs[_dest] = state.ctx.where(p, a, b)

            return fn
        if m == "MOV":
            src = instr.sources[0]
            dest = self._reg(instr.dest.name)
            if src.kind in (OperandKind.SPECIAL, OperandKind.IMMEDIATE):
                read = self._reader(src, dtype)

                def fn(state, _read=read, _dest=dest):
                    # immediates/specials land in the register file with no
                    # extra MOV emission (a special read emits its own)
                    state.regs[_dest] = _read(state)

                return fn
            src_slot = self._reg(src.name)

            def fn(state, _src=src_slot, _dest=dest):
                state.regs[_dest] = state.ctx.mov(state.regs[_src])

            return fn
        if m == "CVT":
            src_slot = self._reg(instr.sources[0].name)
            dest = self._reg(instr.dest.name)

            def fn(state, _src=src_slot, _dest=dest, _dtype=dtype):
                state.regs[_dest] = state.ctx.cvt(state.regs[_src], _dtype)

            return fn
        if m == "MUFU":
            read = self._reader(instr.sources[0], dtype)
            dest = self._reg(instr.dest.name)
            modifier = instr.modifier
            if modifier == "RCP":
                one_slot = self._const()

                def fn(state, _read=read, _dest=dest, _one=one_slot, _dtype=dtype):
                    a = _read(state)
                    ctx = state.ctx
                    arr = state.consts[_one]
                    if arr is None:
                        arr = state.consts[_one] = np.full(
                            ctx.num_lanes, 1.0, dtype=_dtype.np_dtype
                        )
                    state.regs[_dest] = ctx.div(Val(arr, _dtype, -1), a)

                return fn
            if modifier == "SQRT":

                def fn(state, _read=read, _dest=dest):
                    state.regs[_dest] = state.ctx.sqrt(_read(state))

                return fn
            if modifier == "EX2":

                def fn(state, _read=read, _dest=dest):
                    state.regs[_dest] = state.ctx.exp(_read(state))

                return fn
            raise SimulationError(f"unhandled MUFU modifier {modifier!r}")

        # ---- plain arithmetic ------------------------------------------------
        dest = self._reg(instr.dest.name)
        if m == "SHF":
            read = self._reader(instr.sources[0], dtype)
            amount = int(instr.sources[1].value)
            method = "shl" if instr.modifier == "L" else "shr"

            def fn(state, _read=read, _dest=dest, _amount=amount, _method=method):
                state.regs[_dest] = getattr(state.ctx, _method)(_read(state), _amount)

            return fn

        if m in ("IADD", "FADD", "HADD", "DADD"):
            method = "add"
        elif m in ("ISUB", "FSUB"):
            method = "sub"
        elif m in ("IMUL", "FMUL", "HMUL", "DMUL"):
            method = "mul"
        elif m in ("IMAD", "FFMA", "HFMA", "DFMA"):
            method = "fma"
        elif m == "LOP":
            method = {"AND": "bit_and", "OR": "bit_or", "XOR": "bit_xor"}[instr.modifier]
        elif m in ("IMNMX", "FMNMX"):
            method = "minimum" if instr.modifier == "MIN" else "maximum"
        else:  # pragma: no cover - assembler rejects unknown mnemonics
            raise SimulationError(f"unhandled mnemonic {m}")

        readers = tuple(self._reader(s, dtype) for s in instr.sources)
        if len(readers) == 2:
            read_a, read_b = readers

            def fn(state, _a=read_a, _b=read_b, _dest=dest, _method=method):
                a = _a(state)
                b = _b(state)
                state.regs[_dest] = getattr(state.ctx, _method)(a, b)

            return fn
        read_a, read_b, read_c = readers

        def fn(state, _a=read_a, _b=read_b, _c=read_c, _dest=dest, _method=method):
            a = _a(state)
            b = _b(state)
            c = _c(state)
            state.regs[_dest] = getattr(state.ctx, _method)(a, b, c)

        return fn

    def _finalize(self, instr: Instruction, execute: Callable) -> Callable:
        """Wrap with retired accounting and (optional) guard semantics."""
        slot = len(self.slot_mnemonics)
        self.slot_mnemonics.append(instr.mnemonic)
        if instr.guard is None:

            def fn(state, _slot=slot, _execute=execute):
                state.counts[_slot] += 1
                _execute(state)

            return fn
        guard = self._pred(instr.guard)
        dest = instr.dest
        table_name = None
        dest_slot = -1
        if dest is not None and dest.kind is OperandKind.REGISTER:
            table_name, dest_slot = "regs", self._reg(dest.name)
        elif dest is not None and dest.kind is OperandKind.PREDICATE:
            table_name, dest_slot = "preds", self._pred(dest.name)
        if table_name is None:

            def fn(state, _slot=slot, _guard=guard, _execute=execute):
                state.counts[_slot] += 1
                ctx = state.ctx
                ctx.push_mask(state.preds[_guard])
                try:
                    _execute(state)
                finally:
                    ctx.pop_mask()

            return fn

        def fn(
            state,
            _slot=slot,
            _guard=guard,
            _execute=execute,
            _table=table_name,
            _dest=dest_slot,
        ):
            state.counts[_slot] += 1
            ctx = state.ctx
            ctx.push_mask(state.preds[_guard])
            try:
                table = getattr(state, _table)
                old = table[_dest]
                _execute(state)
                if old is not None:
                    # predicated execution: a masked-off lane keeps its old
                    # register value, as real predication does
                    new = table[_dest]
                    mask = ctx.mask
                    old_data = (
                        old.data
                        if old.dtype is new.dtype or new.dtype is None
                        else old.data.astype(new.dtype.np_dtype)
                    )
                    new.data = np.where(mask, new.data, old_data)
            finally:
                ctx.pop_mask()

        return fn

    def _compile_block(self, block: Sequence[Instruction]) -> Tuple[Callable, ...]:
        fns = []
        for instr in block:
            if instr.mnemonic == "LOOP":
                body = self._compile_block(instr.body)
                count = instr.loop_count

                def fn(state, _body=body, _count=count):
                    for _ in state.ctx.range(_count):
                        for f in _body:
                            f(state)

                fns.append(fn)
                continue
            fns.append(self._finalize(instr, self._lower(instr)))
        return tuple(fns)

    def compile(self) -> CompiledProgram:
        compiled = CompiledProgram()
        compiled.fns = self._compile_block(self.program.instructions)
        compiled.n_regs = len(self.reg_slots)
        compiled.n_preds = len(self.pred_slots)
        compiled.n_consts = self.n_consts
        compiled.buffer_names = tuple(self.program.buffers)
        compiled.shared_decls = tuple(self.program.shared)
        compiled.buffer_slots = dict(self.buf_slots)
        compiled.slot_mnemonics = tuple(self.slot_mnemonics)
        compiled.slot_keys = tuple(f"sass.instructions.{m}" for m in self.slot_mnemonics)
        return compiled


def compile_program(program: Program) -> CompiledProgram:
    """Lower ``program`` to closures (no caching; see :func:`compiled_for`)."""
    program.validate()
    return _Compiler(program).compile()


def compiled_for(program: Program) -> CompiledProgram:
    """The compiled form, cached on the Program instance.

    Programs are treated as immutable once assembled (the assembler and
    :meth:`Program.listing` round-trip assume the same); mutating
    ``program.instructions`` after the first run requires clearing
    ``program._compiled`` manually.  The cache is dropped on pickling via
    :meth:`Program.__getstate__`.
    """
    compiled = getattr(program, "_compiled", None)
    if compiled is None:
        compiled = program._compiled = compile_program(program)
    return compiled
