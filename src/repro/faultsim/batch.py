"""Batched fault evaluation: resolve whole injection chunks on the tape.

A SASS-level campaign spends almost all of its time re-executing the
workload once per injection, even though the vast majority of injected
runs are *structurally trivial*: one register value changes, the change
propagates (or dies) through a handful of consuming instructions, and the
run either matches the golden output bit for bit or differs in exactly
the cells the fault reached.  The :class:`BatchEvaluator` exploits that:
it indexes the replay session's golden tape (payload v3 records every
call's argument/return value wiring and per-emission value ordinals) and
classifies injections *without executing anything*, in three phases:

1. **fire replication** — binary-search the group's emission schedule for
   the claimed emission, replicate the plan's fire draw-for-draw (same
   RNG consumption, same lane/bit selection, same flip arithmetic as
   :meth:`KernelContext._fire_on_output`), producing the faulty value;
2. **cone propagation** — walk the consuming calls of every dirty value
   in ascending tape order, recomputing each visited call *vectorized
   across the chunk* (one ufunc pass per call covers every (injection,
   lane) row that reaches it) with the exact numpy expressions the
   simulator uses.  An injection's fault cone is a set of faulty lane
   values per tape ordinal (one scalar while every one sits on the fire
   lane) plus faulty cells (*deltas*) per global buffer, and it flows
   through memory: a store records a delta in each
   cell whose last active writer is a dirty lane, a later golden store to
   the cell retires the delta, and a later load makes exactly the lanes
   that read a delta cell dirty.  Loads and stores with corrupted indices
   replicate the mapped-span address resolution, including the
   ``IllegalAddressError`` DUE, and read or redirect into the buffer's
   golden contents at that call, rebuilt from the nearest tape snapshot
   (or host readback, or ``alloc_zeros``) plus the taped stores since;
3. **classification** — an injection whose cone never reaches a
   host-visible output is MASKED; the deltas alive in buffers the pure
   readback tail copies to the host, applied to the golden outputs those
   copies are (same dtype, size and bytes, and no other buffer's), give
   the faulty outputs, which the workload's compare judges (bitwise: any
   changed byte is an SDC); a replicated illegal address is a DUE with
   the same cause string.

Divergent kernels index too.  The simulator computes arithmetic on every
lane whatever the mask; only the fire lane, loads and stores read it.  So
the index replays the tape's ``push_mask``/``pop_mask`` calls into a
per-call active-lane mask: the fire lane is the ``offset``-th *active*
lane, an inactive lane loads 0 and never faults, stores nothing, and
"last writer wins" counts active lanes only.

A workload with its own ``compare`` rule is settled through that rule on
the rebuilt faulty outputs; the caller guarantees that the rule calls the
golden outputs a match.

The contract is the replay contract: **bit-identical or hands off**.  Any
injection the index cannot prove safe is returned unclassified with a
:class:`FallbackReason` — control faults, a dirty predicate reaching the
mask stack or the host (``push_mask``/``any``/``count``/``read``), a
delta meeting a host readback before the tail, tile values, atomics,
shared-memory planes, wild stores, buffer contents the tape cannot
rebuild, unknown call types, or a cone wider than
:data:`MAX_DIRTY_ROWS` — and falls back to the ordinary per-injection
execution path (restoring any RNG draws made here, so the fallback
consumes its substream exactly like a vanilla run).  A dirty value is
dropped once its last reader has been visited, so a cone's cost follows
its live width, not its history.

Records carry the same group/op/bit/detail/due_cause fields and the same
per-run telemetry (a classified run counts ``count_run_telemetry`` on the
golden trace, exactly as the replayed run's identical trace would; a DUE
counts nothing, as a raising run counts nothing).

One hazard the tape cannot encode: a kernel whose *Python body* branches
on ambient state — ``ctx.plan``, module globals, wall clock — behaves
differently under arming than the recorded golden run.  The first chunk
against every captured tape is therefore held provisional behind a
**canary** (:class:`PendingValidation`): one tape-classified injection is
re-run through the vanilla path and its record compared with the tape's
prediction.  A mismatch retracts the whole chunk and permanently disables
the evaluator for that workload, degrading the campaign to the vanilla
path with bit-identical results.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import os
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.isa import OpClass
from repro.faultsim.outcomes import InjectionRecord, Outcome
from repro.sim.injection import FaultModel, InjectionMode
from repro.sim.launch import KernelRun, count_run_telemetry
from repro.sim.memory import MemoryPool
from repro.telemetry import get_logger

_log = get_logger("faultsim.batch")

_PAGE = MemoryPool.PAGE_BYTES

#: the most rows one injection may carry: its faulty buffer cells, plus
#: its faulty lane values once the cone leaves the fire lane; a cone wider
#: than this is cheaper to replay
MAX_DIRTY_ROWS = 64

#: status codes for one in-flight injection
_LIVE, _RESIDUAL, _DUE = 0, 1, 2

#: calls that never influence values and are safe to ignore entirely
_INERT = frozenset(("bar", "nop", "__step__"))

#: calls that write buffer contents
_BUF_WRITERS = frozenset(("st", "st_tile", "atomic_add"))
#: buffer accesses no delta is tracked through
_BUF_TILED = frozenset(("ld_tile", "st_tile", "atomic_add"))

_CMP = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}


class FallbackReason(enum.Enum):
    """Why the tape left an injection to the per-injection path."""

    #: a canary mismatch turned the evaluator off for the workload
    DISABLED = "disabled"
    #: no tape, or one with calls the index cannot analyze
    NO_TAPE = "no_tape"
    #: held back to validate the chunk's tape verdicts
    CANARY = "canary"
    #: a canary mismatch retracted the verdict
    RETRACTED = "retracted"
    #: not a single-bit OUTPUT_VALUE flip (RF strikes, address faults, ...)
    FAULT_MODEL = "fault_model"
    #: the site group's population does not match the tape's emissions
    SCHEDULE = "schedule"
    #: the target lies past the stream: the vanilla path raises
    NEVER_FIRES = "never_fires"
    #: a control fault, a result-free or a weighted emission
    CONTROL = "control"
    #: a tile value, or a dirty operand reaching a tile call
    TILE = "tile"
    #: a ``from_array`` value, which may alias a host array
    HOST_ALIAS = "host_alias"
    #: a flipped intermediate consumed inside its call
    INTERMEDIATE = "intermediate"
    #: an opaque operand, an unknown call or a handler that cannot recompute
    OPAQUE = "opaque"
    #: a dirty predicate reaching ``push_mask``
    DIRTY_MASK = "dirty_mask"
    #: a dirty value reaching the host mid-run (read/any/count/read_buffer)
    HOST_READ = "host_read"
    #: a dirty operand reaching an atomic
    ATOMIC = "atomic"
    #: a dirty index reaching a shared-memory access
    SHARED_MEMORY = "shared_memory"
    #: a store whose faulty index leaves its buffer inside the mapped span
    WILD_STORE = "wild_store"
    #: a dirty-index access whose buffer content the tape cannot give
    UNKNOWN_CONTENT = "unknown_content"
    #: a delta in a buffer whose output mapping the tape cannot see through
    OUTPUT_UNTRACKED = "output_untracked"
    #: more faulty rows than :data:`MAX_DIRTY_ROWS`
    ROW_CAP = "row_cap"


#: calls that end tracking when they meet a faulty operand, or a buffer
#: holding deltas (host readbacks before the readback tail, tile and
#: atomic accesses), by the reason they give
_GUARDS = {
    "read_buffer": FallbackReason.HOST_READ,
    "ld_tile": FallbackReason.TILE,
    "st_tile": FallbackReason.TILE,
    "atomic_add": FallbackReason.ATOMIC,
}
#: calls without a handler that a faulty operand may reach, by the reason
#: they give; any other unhandled call is OPAQUE
_HANDS_OFF = {
    "push_mask": FallbackReason.DIRTY_MASK,
    "read": FallbackReason.HOST_READ,
    "any": FallbackReason.HOST_READ,
    "count": FallbackReason.HOST_READ,
    "mma": FallbackReason.TILE,
}


class _Inj:
    """One injection's in-flight evaluation state."""

    __slots__ = (
        "j", "group", "lane", "op", "bit", "call", "dirty", "wide", "deltas",
        "width", "guarded", "status", "due_cause", "reason", "rng", "saved_rng",
        "seen",
    )

    def __init__(self, j: int, group, rng) -> None:
        self.j = j
        self.group = group
        self.lane = -1
        self.op: Optional[OpClass] = None
        self.bit = 0
        #: call index of the fired emission (-1: not located)
        self.call = -1
        #: tape ordinal -> faulty numpy scalar at ``lane`` (differs from
        #: golden) while the cone is narrow; once a fault reaches another
        #: lane (``wide``): tape ordinal -> {lane -> faulty numpy scalar}
        self.dirty: Dict[int, Any] = {}
        self.wide = False
        #: buffer name -> {flat cell -> faulty numpy scalar (differs from
        #: the golden content at the same point of the run)}
        self.deltas: Dict[str, Dict[int, Any]] = {}
        #: live rows: faulty buffer cells, plus faulty lane values once the
        #: cone is wide (a narrow cone costs one row per call)
        self.width = 0
        #: buffers whose guard calls are already scheduled (None: none)
        self.guarded: Optional[set] = None
        self.status = _LIVE
        self.due_cause = ""
        self.reason: Optional[FallbackReason] = None
        self.rng = rng
        self.saved_rng = None
        self.seen = -1  # last visited call index (dedupes bucket entries)


def _bits(value, np_dtype) -> bytes:
    return np.asarray(value, dtype=np_dtype).tobytes()


class _CellMap:
    """Which lanes of which ``ld``/``st`` calls touch each cell of one
    global buffer at their golden index, active lanes only.

    Keys are ``cell * calls + call``, sorted; read keys repeat once per
    reading lane (``read_lanes`` runs parallel, ascending per key)."""

    def __init__(self, read_keys, read_lanes, write_keys, ncalls: int) -> None:
        self.read_keys = read_keys
        self.read_lanes = read_lanes
        self.write_keys = write_keys
        self.ncalls = ncalls

    def next_write(self, cell: int, ci: int) -> int:
        """The first call after ``ci`` that stores to ``cell`` (-1: none)."""
        keys = self.write_keys
        k = int(np.searchsorted(keys, cell * self.ncalls + ci + 1))
        if k < len(keys) and int(keys[k]) // self.ncalls == cell:
            return int(keys[k]) % self.ncalls
        return -1

    def reads_between(self, cell: int, lo: int, hi: int) -> np.ndarray:
        """Calls in ``(lo, hi)`` that load ``cell``, ascending."""
        base = cell * self.ncalls
        keys = self.read_keys
        a, b = np.searchsorted(keys, np.array((base + lo + 1, base + hi), dtype=keys.dtype))
        return np.unique(keys[a:b]) - base

    def readers(self, cells: np.ndarray, ci: int) -> List[np.ndarray]:
        """Per cell, the lanes that load it at call ``ci``."""
        keys = (cells * self.ncalls + ci).astype(self.read_keys.dtype)
        lo = np.searchsorted(self.read_keys, keys, side="left")
        hi = np.searchsorted(self.read_keys, keys, side="right")
        return [self.read_lanes[a:b] for a, b in zip(lo, hi)]


class _TapeIndex:
    """Static per-tape index: emission schedule, value wiring, buffers.

    Built for each chunk and dropped with it: an engine cache holds many
    evaluators, and a kept index would keep its arrays alive as long.
    """

    def __init__(self, tape) -> None:
        self.tape = tape
        self.ok = True
        calls = tape.calls
        self.names: List[str] = [c[0] for c in calls]
        #: per call: return ordinal (-1 when the call returns no register)
        self.ret_ordinal = np.full(len(calls), -1, dtype=np.int64)
        #: ordinal -> sorted call indices whose args reference it
        self.readers: Dict[int, List[int]] = {}
        #: buffer name -> (space, shape, dtype, elements, alloc call index)
        self.buffers: Dict[str, tuple] = {}
        self.buf_loads: Dict[str, List[int]] = {}      # ld
        self.buf_stores: Dict[str, List[int]] = {}     # st
        self.buf_writers: Dict[str, List[int]] = {}    # st/st_tile/atomic_add
        self.buf_readbacks: Dict[str, List[int]] = {}  # read_buffer calls
        #: buffer name -> calls that end a delta's tracking: tile and
        #: atomic accesses, and host readbacks before the readback tail
        self.buf_guards: Dict[str, List[int]] = {}
        #: buffer name -> host array of the LAST read_buffer (golden final)
        self.final_host: Dict[str, np.ndarray] = {}
        #: the active-lane mask from call ``mask_starts[k]`` on is
        #: ``masks[k]`` (None: every lane active), replayed from the tape's
        #: push_mask/pop_mask calls
        self.mask_starts: List[int] = [0]
        self.masks: List[Optional[np.ndarray]] = [None]
        self._active: Dict[int, np.ndarray] = {}
        self._schedules: Dict[str, Any] = {}
        self._argdata: Dict[int, tuple] = {}
        self._freed: Dict[int, tuple] = {}
        self._plans: Dict[int, Any] = {}
        self._lane_index: Dict[int, Optional[np.ndarray]] = {}
        self._written: Dict[int, frozenset] = {}
        self._cells: Dict[str, Optional[_CellMap]] = {}
        #: buffer name -> (writes applied, flat contents) of the last
        #: content_at answer
        self._content: Dict[str, Tuple[int, np.ndarray]] = {}
        self._copy_list: Dict[str, List[Tuple[int, np.ndarray]]] = {}
        self._last_writers: Dict[int, np.ndarray] = {}
        self._last_access: Dict[str, int] = {}
        self._outputs: Dict[str, Optional[str]] = {}

        stack: List[Optional[np.ndarray]] = [None]
        ops: List[OpClass] = []
        counts: List[float] = []
        ordinals: List[int] = []
        weights: List[int] = []
        call_of: List[int] = []
        for ci, (name, ret_spec, emits, _state, args_spec) in enumerate(calls):
            if args_spec is None:
                # kwargs: the call's operands are unknown — disable the tape
                self.ok = False
                return
            if name == "push_mask" or name == "pop_mask":
                if name == "pop_mask":
                    stack.pop()
                else:
                    pred = self._predicate(args_spec)
                    if pred is None:
                        self.ok = False
                        return
                    top = stack[-1]
                    if top is None:
                        top = np.ones(len(pred), dtype=bool)
                    stack.append(top & pred)
                self.mask_starts.append(ci + 1)
                self.masks.append(stack[-1])
            if ret_spec[0] == "v":
                self.ret_ordinal[ci] = ret_spec[1]
            elif ret_spec[0] == "b":
                _, bname, space, shape, dtype = ret_spec
                self.buffers[bname] = (
                    space, shape, dtype, int(np.prod(shape)), ci
                )
            for spec in args_spec:
                kind = spec[0]
                if kind == "v":
                    self.readers.setdefault(spec[1], []).append(ci)
                elif kind == "b":
                    bname = spec[1]
                    if name == "ld":
                        self.buf_loads.setdefault(bname, []).append(ci)
                    elif name == "st":
                        self.buf_stores.setdefault(bname, []).append(ci)
                    if name in _BUF_WRITERS:
                        self.buf_writers.setdefault(bname, []).append(ci)
                    if name in _BUF_TILED:
                        self.buf_guards.setdefault(bname, []).append(ci)
                    if name == "read_buffer":
                        self.buf_readbacks.setdefault(bname, []).append(ci)
                        if ret_spec[0] == "h":
                            self.final_host[bname] = tape.arrays[ret_spec[1]]
            for (op, n, _issue, ordinal, weight) in emits:
                ops.append(op)
                counts.append(float(n))
                ordinals.append(int(ordinal))
                weights.append(int(weight))
                call_of.append(ci)
        self.emit_ops = ops
        self.emit_op_index = np.fromiter(
            (op.op_index for op in ops), dtype=np.int64, count=len(ops)
        )
        self.emit_counts = np.array(counts, dtype=np.float64)
        self.emit_ordinals = np.array(ordinals, dtype=np.int64)
        self.emit_weights = np.array(weights, dtype=np.int64)
        self.emit_call = np.array(call_of, dtype=np.int64)
        #: first call index from which the tape is pure host readback
        #: (read_buffer/read/bar/nop): a delta alive there is what the
        #: host's final copies see
        tail = len(calls)
        while tail > 0 and calls[tail - 1][0] in ("read_buffer", "read", "bar", "nop"):
            tail -= 1
        self.tail_start = tail
        for bname, reads in self.buf_readbacks.items():
            early = [ci for ci in reads if ci < tail]
            if early:
                self.buf_guards[bname] = sorted(self.buf_guards.get(bname, []) + early)
        #: global-buffer page footprint in alloc order, for the mapped-span
        #: bound at any call index (replicates MemoryPool.mapped_span_bytes)
        self._page_allocs = sorted(
            (alloc_ci, (int(np.prod(shape)) * dtype.bytes + _PAGE - 1) // _PAGE)
            for space, shape, dtype, _elems, alloc_ci in self.buffers.values()
            if space == "global"
        )

    def _predicate(self, args_spec) -> Optional[np.ndarray]:
        """The lane data of a push_mask predicate operand (None: opaque)."""
        if len(args_spec) != 1 or args_spec[0][0] not in ("v", "c"):
            return None
        kind, ref = args_spec[0]
        val = self.tape.newvals[ref] if kind == "v" else self.tape.consts[ref]
        if val.dtype is not None or val.data.ndim != 1:
            return None
        return val.data

    def mask_at(self, ci: int) -> Optional[np.ndarray]:
        """The active-lane mask call ``ci`` executes under (None: all lanes)."""
        return self.masks[bisect.bisect_right(self.mask_starts, ci) - 1]

    def active_at(self, ci: int) -> Optional[np.ndarray]:
        """Active lane numbers at call ``ci``, ascending (None: all lanes)."""
        k = bisect.bisect_right(self.mask_starts, ci) - 1
        mask = self.masks[k]
        if mask is None:
            return None
        active = self._active.get(k)
        if active is None:
            active = self._active[k] = np.flatnonzero(mask)
        return active

    def span_at(self, ci: int) -> int:
        """Mapped global span in bytes as of call ``ci`` (allocs precede it)."""
        pages = sum(p for alloc_ci, p in self._page_allocs if alloc_ci < ci)
        return max(1, pages) * _PAGE

    def recompute_plan(self, ci: int):
        """How to recompute call ``ci`` over (injection, lane) rows: its
        handler, operands, return ordinal and golden return, and per
        register operand (argument key, golden lane data, ordinal, last
        read: the final position of an ordinal whose last reader is
        ``ci``).  None when nothing reads the result; a
        :class:`FallbackReason` when the call cannot be recomputed."""
        got = self._plans.get(ci, False)
        if got is not False:
            return got
        name = self.names[ci]
        args = self.arg_arrays(ci)
        handler = _HANDLERS.get(name)
        ret_o = int(self.ret_ordinal[ci])
        plan: Any
        if args is None:
            plan = FallbackReason.OPAQUE
        elif handler is None:
            # the mask stack, host reads and reductions, tiles, anything
            # unrecognized: hands off
            plan = _HANDS_OFF.get(name, FallbackReason.OPAQUE)
        elif ret_o < 0:
            plan = FallbackReason.OPAQUE
        elif self.tape.newvals[ret_o].data.ndim != 1:
            plan = FallbackReason.TILE
        elif ret_o not in self.readers:
            plan = None
        else:
            operands = []
            last: Dict[int, int] = {}
            for pos, spec in enumerate(self.tape.calls[ci][4]):
                if spec[0] == "v":
                    last[spec[1]] = len(operands)
                    operands.append((id(args[pos]), args[pos][1], spec[1], False))
            for ordinal, i in last.items():
                if self.readers[ordinal][-1] == ci:
                    operands[i] = operands[i][:3] + (True,)
            plan = (handler, args, ret_o, self.tape.newvals[ret_o], operands)
        self._plans[ci] = plan
        return plan

    def value_args(self, ci: int) -> List[int]:
        """Ordinals of call ``ci``'s register operands."""
        return [spec[1] for spec in self.tape.calls[ci][4] if spec[0] == "v"]

    def freed_at(self, ci: int) -> tuple:
        """Ordinals whose last reader is call ``ci``."""
        got = self._freed.get(ci)
        if got is None:
            got = self._freed[ci] = tuple(
                ordinal for ordinal in self.value_args(ci) if self.readers[ordinal][-1] == ci
            )
        return got

    def lane_index(self, ci: int) -> Optional[np.ndarray]:
        """Golden per-lane index of memory call ``ci`` (None: opaque)."""
        got = self._lane_index.get(ci, False)
        if got is not False:
            return got
        args = self.arg_arrays(ci)
        lanes: Optional[np.ndarray] = None
        if args is not None and len(args) >= 2:
            if self.names[ci] == "ld":
                ret_o = int(self.ret_ordinal[ci])
                n = len(self.tape.newvals[ret_o].data) if ret_o >= 0 else 0
            else:
                n = len(args[2][1]) if len(args) == 3 and args[2][0] == "a" else 0
            entry = args[1]
            if n and entry[0] == "a" and entry[1].ndim == 1:
                lanes = entry[1]
            elif n and entry[0] == "s" and type(entry[1]) is int:
                # as KernelContext._index_array broadcasts an immediate
                lanes = np.full(n, entry[1], dtype=np.int32)
        self._lane_index[ci] = lanes
        return lanes

    def written_cells(self, ci: int) -> frozenset:
        """Cells an ``st`` call writes at its golden index, active lanes."""
        got = self._written.get(ci)
        if got is None:
            lanes = self.lane_index(ci)
            mask = self.mask_at(ci)
            if lanes is None:
                got = frozenset()
            else:
                got = frozenset((lanes if mask is None else lanes[mask]).tolist())
            self._written[ci] = got
        return got

    def last_writers(self, ci: int) -> np.ndarray:
        """Per lane of an ``st`` call: whether it is the last active writer
        of its cell (numpy fancy assignment keeps the last one)."""
        got = self._last_writers.get(ci)
        if got is None:
            lanes = self.lane_index(ci)
            active = self.active_at(ci)
            order = np.arange(len(lanes))[::-1] if active is None else active[::-1]
            _cells, first = np.unique(lanes[order], return_index=True)
            got = self._last_writers[ci] = np.zeros(len(lanes), dtype=bool)
            got[order[first]] = True
        return got

    def last_access(self, bname: str) -> int:
        """The last call that loads, writes or guards a buffer (-1: none)."""
        got = self._last_access.get(bname)
        if got is None:
            got = self._last_access[bname] = max(
                self.buf_loads.get(bname, [-1])[-1],
                self.buf_writers.get(bname, [-1])[-1],
                self.buf_guards.get(bname, [-1])[-1],
            )
        return got

    def cell_map(self, bname: str) -> Optional[_CellMap]:
        """The buffer's :class:`_CellMap` (None: some access is opaque)."""
        got = self._cells.get(bname, False)
        if got is not False:
            return got
        ncalls = len(self.names)
        elements = self.buffers[bname][3]
        # the smallest key type that holds every in-buffer (cell, call)
        key_type = np.int32 if (elements + 1) * ncalls < 2**31 else np.int64
        parts: Dict[str, Tuple[list, list]] = {"ld": ([], []), "st": ([], [])}
        cmap: Optional[_CellMap] = None
        for ci in self.buf_loads.get(bname, []) + self.buf_stores.get(bname, []):
            lanes = self.lane_index(ci)
            if lanes is None:
                break
            active = self.active_at(ci)
            cells = lanes if active is None else lanes[active]
            owners = np.arange(len(lanes)) if active is None else active
            inside = (cells >= 0) & (cells < elements)  # where deltas can be
            keys, lane_parts = parts[self.names[ci]]
            keys.append(cells[inside].astype(key_type) * key_type(ncalls) + key_type(ci))
            lane_parts.append(owners[inside].astype(np.int32))
        else:
            empty = [np.zeros(0, key_type)]
            read_keys = np.concatenate(parts["ld"][0] or empty)
            # lanes ascend within each call, so a stable sort by key keeps
            # each (cell, call)'s lanes ascending
            order = np.argsort(read_keys, kind="stable")
            read_lanes = np.concatenate(parts["ld"][1] or [np.zeros(0, np.int32)])[order]
            write_keys = np.unique(np.concatenate(parts["st"][0] or empty))
            cmap = _CellMap(read_keys[order], read_lanes, write_keys, ncalls)
        self._cells[bname] = cmap
        return cmap

    def content_at(self, bname: str, ci: int) -> Optional[np.ndarray]:
        """Golden flat contents of a global buffer at the entry of call
        ``ci`` (None: the tape cannot tell).

        Starts from the latest taped copy — a snapshot, a host readback, or
        the zeros of ``alloc_zeros`` — taken before the buffer's next write
        after ``ci``, and replays the taped ``st`` calls between that copy
        and ``ci``.  A tile store or an atomic in between leaves the
        contents unknown.
        """
        writers = self.buf_writers.get(bname, [])
        # the contents at ci are those after the first k writes, and stay
        # so up to the entry of the next write (``until``)
        k = bisect.bisect_left(writers, ci)
        cached = self._content.get(bname)
        if cached is not None and cached[0] == k:
            return cached[1]
        until = writers[k] if k < len(writers) else len(self.names)
        done, base = 0, None
        for entry, flat in self._copies(bname):
            if entry > until:
                break
            done, base = bisect.bisect_left(writers, entry), flat
        if cached is not None and done <= cached[0] < k:
            done, base = cached
        if base is None:
            return None
        if done < k:
            base = base.copy()
            for w in writers[done:k]:
                if not self._replay_store(base, w):
                    return None
        self._content[bname] = (k, base)
        return base

    def _copies(self, bname: str) -> List[Tuple[int, np.ndarray]]:
        """(call index, flat contents at its entry) of every taped copy of
        a buffer, ascending."""
        got = self._copy_list.get(bname)
        if got is not None:
            return got
        copies: List[Tuple[int, np.ndarray]] = []
        info = self.buffers.get(bname)
        if info is not None and self.names[info[4]] == "alloc_zeros":
            _space, _shape, dtype, elements, alloc_ci = info
            copies.append((alloc_ci + 1, np.zeros(elements, dtype=dtype.np_dtype)))
        for snap in self.tape.snapshots:
            for name, frozen in snap.buffers:
                if name == bname:
                    copies.append((snap.call_index, frozen.reshape(-1)))
                    break
        for r in self.buf_readbacks.get(bname, ()):
            spec = self.tape.calls[r][1]
            if spec[0] == "h":
                copies.append((r, self.tape.arrays[spec[1]].reshape(-1)))
        copies.sort(key=lambda copy: copy[0])
        self._copy_list[bname] = copies
        return copies

    def _replay_store(self, flat: np.ndarray, w: int) -> bool:
        """Apply the golden ``st`` call ``w`` to ``flat`` (False: cannot)."""
        lanes = self.lane_index(w) if self.names[w] == "st" else None
        if lanes is None:
            return False
        mask = self.mask_at(w)
        data = self.arg_arrays(w)[2][1]
        if mask is not None:
            lanes, data = lanes[mask], data[mask]
        if len(lanes) and (int(lanes.min()) < 0 or int(lanes.max()) >= len(flat)):
            return False
        flat[lanes] = data
        return True

    def output_of(self, bname: str, outputs: Dict[str, np.ndarray]) -> Optional[str]:
        """The golden output a buffer's final readback is, cell for cell:
        the one output with its dtype, size and bytes, provided no other
        read-back buffer has them too (None: ambiguous or not an output)."""
        got = self._outputs.get(bname, False)
        if got is not False:
            return got
        host = self.final_host.get(bname)
        if host is None:
            self._outputs[bname] = None
            return None
        payload = host.tobytes()

        def same(arr: np.ndarray) -> bool:
            return arr.dtype == host.dtype and arr.size == host.size and arr.tobytes() == payload

        names = [name for name, arr in outputs.items() if same(arr)]
        twins = sum(1 for arr in self.final_host.values() if same(arr))
        got = self._outputs[bname] = names[0] if len(names) == 1 and twins == 1 else None
        return got

    def schedule(self, group, trace) -> Optional[tuple]:
        """(emission indices, cumulative claim counts) for one site group.

        Validated against ``group.size(trace)``: the cumulative total must
        equal the population the campaign sampled targets from, else the
        group is untrackable (None → fallback for its injections).
        """
        got = self._schedules.get(group.name, False)
        if got is not False:
            return got
        stream = group.stream
        covered = np.array([bool(stream(op)) for op in OpClass], dtype=bool)
        sel = np.flatnonzero(covered[self.emit_op_index])
        sched: Optional[tuple] = None
        if len(sel):
            cum = np.cumsum(self.emit_counts[sel])
            if float(cum[-1]) == float(group.size(trace)):
                sched = (sel, cum)
        self._schedules[group.name] = sched
        return sched

    def arg_arrays(self, ci: int) -> Optional[tuple]:
        """Golden per-lane data for each Val argument of call ``ci``.

        Returns a tuple of (kind, payload) entries: ("a", array, dtype,
        ordinal_or_-1) for register/const operands, ("s", scalar) for
        python immediates, ("b", name) for buffers, or None when any
        operand is opaque or not 1-D.
        """
        got = self._argdata.get(ci, False)
        if got is not False:
            return got
        tape = self.tape
        resolved: Optional[tuple] = []
        for spec in tape.calls[ci][4]:
            kind = spec[0]
            if kind == "v":
                val = tape.newvals[spec[1]]
                if val.data.ndim != 1:
                    resolved = None
                    break
                resolved.append(("a", val.data, val.dtype, spec[1]))
            elif kind == "c":
                val = tape.consts[spec[1]]
                if val.data.ndim != 1:
                    resolved = None
                    break
                resolved.append(("a", val.data, val.dtype, -1))
            elif kind == "s":
                resolved.append(("s", spec[1]))
            elif kind == "b":
                resolved.append(("b", spec[1]))
            else:
                # opaque operand (DType tokens, host objects): kept as a
                # marker — handlers that can ignore it (cvt) do, the rest
                # bail out when they touch it
                resolved.append(("x",))
        if resolved is not None:
            resolved = tuple(resolved)
        self._argdata[ci] = resolved
        return resolved


def _flip_scalar(data: np.ndarray, dtype, lane: int, bit: int):
    """One element of ``data`` with ``bit`` flipped — the exact arithmetic
    of :meth:`Val.flip_bit` (bits-view XOR) on a 1-element copy."""
    cell = data[lane:lane + 1].copy()
    bits = dtype.np_bits_dtype
    view = cell.view(bits)
    view[0] ^= bits.type(1) << bits.type(bit)
    return cell[0]


class BatchEvaluator:
    """Classifies injection chunks against one workload's golden tape."""

    def __init__(self, golden: KernelRun, session) -> None:
        self.golden = golden
        self.session = session
        #: the tape that survived canary validation (see
        #: :class:`PendingValidation`); a session's tape is fixed once set,
        #: so this is that tape or None.  Scoped to the validating
        #: *process*: kernels can observe ambient per-process state (pids,
        #: globals), and worker state is inherited across fork — each
        #: process must earn its own validation.
        self._validated_tape = None
        self._validated_pid = -1
        #: a failed validation disables the evaluator for good: the kernel's
        #: Python body observes something the tape cannot record
        self._disabled = False
        #: same spirit as ReplaySession.stats: observability without
        #: touching the telemetry stream (which must stay bit-identical
        #: between the batched and per-injection paths); ``fallback``
        #: splits ``residual`` by :class:`FallbackReason`
        self.stats: Dict[str, Any] = {
            "classified": 0, "residual": 0, "due": 0, "fallback": Counter(),
        }

    def _tape_index(self) -> Optional[_TapeIndex]:
        self.session.ensure_capture()
        tape = getattr(self.session, "_tape", None)
        if tape is None:
            return None
        # built per chunk (a few ms even for YOLO's tape) rather than kept
        index = _TapeIndex(tape)
        if not index.ok:
            _log.debug("tape not batch-analyzable; chunk falls back")
            return None
        return index

    # -- entry point -----------------------------------------------------------
    def classify(
        self,
        groups: Dict[str, Any],
        tasks: Sequence[Any],
        rngs: Sequence[np.random.Generator],
        records: List[Optional[InjectionRecord]],
        verdict: Optional[Callable[[Dict[str, np.ndarray]], Outcome]] = None,
    ) -> Optional["PendingValidation"]:
        """Fill ``records[j]`` for every injection resolvable on the tape.

        Unresolvable entries are left ``None`` (with their RNG streams
        untouched) for the caller's per-injection fallback.  ``verdict``
        judges a run's faulty outputs under a workload's own compare rule;
        without one the compare is bitwise, so a run whose output bytes
        change is an SDC.  The caller guarantees that the rule calls the
        golden outputs a match, so byte-identical outputs are MASKED.

        The tape only records what the kernel routed through the context,
        so a kernel whose Python body branches on ambient state (``ctx.plan``,
        module globals...) can behave differently under arming than the tape
        predicts.  The first chunk against each captured tape therefore
        returns a :class:`PendingValidation` canary: the caller must run the
        canary injection through the vanilla path and call
        :meth:`PendingValidation.resolve` with the actual record before
        trusting (or discarding) this chunk's tape verdicts.
        """
        if self._disabled:
            self._residual(FallbackReason.DISABLED, len(tasks))
            return None
        index = self._tape_index()
        if index is None:
            self._residual(FallbackReason.NO_TAPE, len(tasks))
            return None
        with np.errstate(all="ignore"):
            injs = self._fire_phase(index, groups, tasks, rngs)
            self._propagate(index, injs)
            filled, classified_runs = self._finalize(index, injs, records, verdict)
        if self._validated_tape is index.tape and self._validated_pid == os.getpid():
            self._count_classified(classified_runs)
            return None
        if not filled:
            return None  # nothing trusted, nothing to validate
        # demote the first tape-classified injection to a canary: the caller
        # re-runs it vanilla and resolve() compares against our prediction
        canary_j, canary_inj = filled[0]
        predicted = records[canary_j]
        records[canary_j] = None
        self._untrust(canary_inj)  # restores the canary's RNG substream
        if predicted.outcome is Outcome.DUE:
            self.stats["due"] -= 1
        else:
            self.stats["classified"] -= 1
            classified_runs -= 1
        self._residual(FallbackReason.CANARY)
        return PendingValidation(self, index, canary_j, predicted, filled[1:], classified_runs)

    def _count_classified(self, classified_runs: int) -> None:
        if classified_runs:
            # each classified run's trace IS the golden trace (value-only
            # faults don't change the executed stream): one batched update,
            # numerically identical to per-run calls
            count_run_telemetry(self.golden.trace, classified_runs)

    def _residual(self, reason: FallbackReason, n: int = 1) -> None:
        self.stats["residual"] += n
        self.stats["fallback"][reason] += n

    # -- phase 1: fire replication ----------------------------------------------
    def _fire_phase(
        self, index: _TapeIndex, groups, tasks, rngs
    ) -> List[_Inj]:
        tape = index.tape
        trace = self.golden.trace
        injs: List[_Inj] = []
        for j, task in enumerate(tasks):
            group = groups[task.group]
            inj = _Inj(j, group, rngs[j])
            injs.append(inj)
            if (
                group.mode is not InjectionMode.OUTPUT_VALUE
                or group.fault_model is not FaultModel.SINGLE_BIT
            ):
                self._fallback(inj, FallbackReason.FAULT_MODEL)
                continue
            sched = index.schedule(group, trace)
            if sched is None:
                self._fallback(inj, FallbackReason.SCHEDULE)
                continue
            sel, cum = sched
            target = float(task.target_index)
            if target >= float(cum[-1]):
                # vanilla raises "never fired" — reproduce it there
                self._fallback(inj, FallbackReason.NEVER_FIRES)
                continue
            k = int(np.searchsorted(cum, target, side="right"))
            e = int(sel[k])
            ci = inj.call = int(index.emit_call[e])
            op = inj.op = index.emit_ops[e]
            ordinal = int(index.emit_ordinals[e])
            if op is OpClass.BRA or ordinal < 0 or int(index.emit_weights[e]) != 1:
                self._fallback(inj, FallbackReason.CONTROL)
                continue
            val = tape.newvals[ordinal]
            if val.data.ndim != 1:
                self._fallback(inj, FallbackReason.TILE)  # draws an element
                continue
            if index.names[ci] == "from_array":
                # may alias a host array the kernel re-wraps
                self._fallback(inj, FallbackReason.HOST_ALIAS)
                continue
            start = float(cum[k - 1]) if k else 0.0
            offset = int(target - start)
            # the offset-th active lane, as KernelContext._fire_on_output
            active = index.active_at(ci)
            lane = inj.lane = offset if active is None else int(active[offset])
            if val.dtype is None:
                # predicate: flip truth of the lane, bit 0, no RNG draw
                faulty = np.logical_not(val.data[lane])
            else:
                # the state getter returns a fresh dict of immutable leaves,
                # so a plain reference is enough to restore (no deepcopy)
                rng = inj.rng
                inj.saved_rng = rng.bit_generator.state
                inj.bit = int(rng.integers(0, val.dtype.bits))
                faulty = _flip_scalar(val.data, val.dtype, lane, inj.bit)
            ret_o = int(index.ret_ordinal[ci])
            if ordinal == ret_o:
                self._set_dirty(index, inj, ordinal, lane, faulty)
            elif index.names[ci] == "div" and ordinal == ret_o - 1:
                # fired on the MUFU reciprocal: the nested multiply consumes
                # it before the call returns — finish the call by hand
                if not self._div_fixup(index, ci, lane, faulty, ret_o, inj):
                    self._fallback(inj, FallbackReason.INTERMEDIATE)
            elif index.readers.get(ordinal):
                # a consumed intermediate we can't model
                self._fallback(inj, FallbackReason.INTERMEDIATE)
            # else: dead intermediate (loop counter, dead-code arith, dead
            # load copy) — flipping it provably changes nothing
        return injs

    def _div_fixup(
        self, index: _TapeIndex, ci: int, lane: int, recip_f, ret_o: int, inj: _Inj
    ) -> bool:
        """Recompute a div call's return from its flipped reciprocal."""
        args = index.arg_arrays(ci)
        if args is None or len(args) != 2 or args[0][0] != "a":
            return False
        x_data, dtype = args[0][1], args[0][2]
        ret_val = index.tape.newvals[ret_o]
        if dtype is None or ret_val.data.ndim != 1:
            return False
        out = (x_data[lane:lane + 1] * recip_f).astype(dtype.np_dtype, copy=False)
        golden_cell = ret_val.data[lane:lane + 1]
        if out.view(dtype.np_bits_dtype)[0] != golden_cell.view(dtype.np_bits_dtype)[0]:
            self._set_dirty(index, inj, ret_o, lane, out[0])
        return True

    @staticmethod
    def _set_dirty(index: _TapeIndex, inj: _Inj, ordinal: int, lane: int, value) -> bool:
        """Record a faulty lane value; False when nothing ever reads it."""
        if ordinal not in index.readers:
            return False
        dirty = inj.dirty
        if not inj.wide:
            if lane == inj.lane:
                dirty[ordinal] = value
                return True
            # the cone leaves the fire lane: one lane map per ordinal
            inj.wide = True
            inj.width += len(dirty)
            for key in dirty:
                dirty[key] = {inj.lane: dirty[key]}
        lanes = dirty.get(ordinal)
        if lanes is None:
            dirty[ordinal] = {lane: value}
            inj.width += 1
            return True
        if lane not in lanes:
            inj.width += 1
        lanes[lane] = value
        return True

    # -- phase 2: vectorized propagation ------------------------------------------
    def _propagate(self, index: _TapeIndex, injs: List[_Inj]) -> None:
        heap: List[int] = []
        buckets: Dict[int, List[_Inj]] = {}

        def schedule_at(inj: _Inj, ci: int) -> None:
            bucket = buckets.get(ci)
            if bucket is None:
                buckets[ci] = bucket = []
                heapq.heappush(heap, ci)
            bucket.append(inj)

        def schedule(inj: _Inj, ordinal: int) -> None:
            for ci in index.readers.get(ordinal, ()):
                bucket = buckets.get(ci)
                if bucket is None:
                    buckets[ci] = bucket = []
                    heapq.heappush(heap, ci)
                bucket.append(inj)

        for inj in injs:
            if inj.status == _LIVE:
                for ordinal in inj.dirty:
                    schedule(inj, ordinal)
        while heap:
            ci = heapq.heappop(heap)
            pending = buckets.pop(ci)
            live = []
            for inj in pending:
                if inj.status == _LIVE and inj.seen != ci:
                    inj.seen = ci
                    live.append(inj)
            if not live:
                continue
            if self._visit(index, ci, live, schedule, schedule_at):
                continue  # operands released and the cap checked there
            freed = index.freed_at(ci)
            for inj in live:
                if freed:
                    dirty = inj.dirty
                    for ordinal in freed:
                        got = dirty.pop(ordinal, None)
                        if got is not None and inj.wide:
                            inj.width -= len(got)
                if inj.width > MAX_DIRTY_ROWS:
                    self._fallback(inj, FallbackReason.ROW_CAP)

    def _visit(
        self, index: _TapeIndex, ci: int, injs: List[_Inj], schedule, schedule_at
    ) -> bool:
        """Visit call ``ci`` for the injections scheduled there; True when
        the visit released the operands it read last and checked the row
        cap itself."""
        name = index.names[ci]
        if name in _INERT:
            return False
        guard = _GUARDS.get(name)
        if guard is not None:
            # reached through a dirty operand, or guarding a buffer that
            # holds deltas (a pre-tail readback, a tile or atomic access)
            bname = next((a[1] for a in index.tape.calls[ci][4] if a[0] == "b"), None)
            for inj in injs:
                if bname is None or inj.deltas.get(bname) or self._reads_dirty(index, ci, inj):
                    self._fallback(inj, guard)
            return False
        if name == "ld" or name == "st":
            args = index.arg_arrays(ci)
            if args is None:
                self._fallback_all(injs, FallbackReason.OPAQUE)
            elif name == "ld":
                self._visit_ld(index, ci, args, injs, schedule)
            else:
                self._visit_st(index, ci, args, injs, schedule_at)
            return False
        plan = index.recompute_plan(ci)
        if plan is None:
            return False  # a result nothing reads: the fault dies here
        if type(plan) is FallbackReason:
            self._fallback_all(injs, plan)
            return False
        handler, args, ret_o, ret_val, operands = plan
        # one row per (injection, faulty lane).  A narrow injection has
        # exactly one, at its fire lane (it was scheduled here through a
        # faulty operand, which is still live); a wide one has a row per
        # lane any operand of this call is faulty at.  An operand read for
        # the last time here is released as it is read
        narrow = [inj for inj in injs if not inj.wide]
        row_injs: List[_Inj] = list(narrow)
        row_lanes: List[int] = [inj.lane for inj in narrow]
        #: operand key -> (rows, faulty values) of the wide injections
        spread: Dict[int, Tuple[List[int], List[Any]]] = {}
        for inj in injs if len(narrow) < len(injs) else ():
            if not inj.wide:
                continue
            dirty = inj.dirty
            slot: Dict[int, int] = {}
            for key, _data, ordinal, release in operands:
                got = dirty.pop(ordinal, None) if release else dirty.get(ordinal)
                if got is None:
                    continue
                if release:
                    inj.width -= len(got)
                at, values = spread.setdefault(key, ([], []))
                for lane, value in got.items():
                    row = slot.get(lane)
                    if row is None:
                        row = slot[lane] = len(row_injs)
                        row_injs.append(inj)
                        row_lanes.append(lane)
                    at.append(row)
                    values.append(value)
        if not row_injs:
            return True
        lanes = np.array(row_lanes, dtype=np.int64)
        # each register operand gathered at the rows' lanes, faulty values in
        gathered: Dict[int, np.ndarray] = {}
        for key, data, ordinal, release in operands:
            out = gathered[key] = data[lanes]
            for row, inj in enumerate(narrow):
                if release:
                    value = inj.dirty.pop(ordinal, None)
                else:
                    value = inj.dirty.get(ordinal)
                if value is not None:
                    out[row] = value
            got = spread.get(key)
            if got is not None:
                for row, value in zip(*got):
                    out[row] = value
        try:
            result = handler(self, args, gathered, lanes, ret_val)
        except Exception:
            result = None
        if result is None:
            self._fallback_all(injs, FallbackReason.OPAQUE)
            return True
        golden = ret_val.data[lanes]
        if ret_val.dtype is None:
            diff = result != golden
        else:
            bits = ret_val.dtype.np_bits_dtype
            diff = np.ascontiguousarray(result).view(bits) != np.ascontiguousarray(golden).view(bits)
        wide_from = len(narrow)
        for i in np.flatnonzero(diff).tolist():
            inj = row_injs[i]
            if i < wide_from:
                inj.dirty[ret_o] = result[i]
                schedule(inj, ret_o)
                continue
            inj.width += 1
            lanes = inj.dirty.get(ret_o)
            if lanes is None:
                inj.dirty[ret_o] = {row_lanes[i]: result[i]}
                schedule(inj, ret_o)
            else:
                lanes[row_lanes[i]] = result[i]  # each row is a distinct lane
            if inj.width > MAX_DIRTY_ROWS:
                self._fallback(inj, FallbackReason.ROW_CAP)
        return True

    @staticmethod
    def _reads_dirty(index: _TapeIndex, ci: int, inj: _Inj) -> bool:
        return any(inj.dirty.get(ordinal) is not None for ordinal in index.value_args(ci))

    @staticmethod
    def _gather(entry, gathered, lanes: np.ndarray, dtype):
        """Per-row operand values at each row's lane: the register operands
        ``_visit`` gathered with their faulty values, golden data for the
        rest.  Mirrors ``_coerce``: python immediates become 0-d arrays of
        the operand dtype (broadcast by the ufunc, value-identical to the
        simulator's scalar cache)."""
        if entry[0] == "s":
            return np.asarray(entry[1], dtype=dtype.np_dtype)
        got = gathered.get(id(entry))
        return entry[1][lanes] if got is None else got

    @staticmethod
    def _first_dtype(args) -> Optional[Any]:
        for entry in args:
            if entry[0] == "a":
                return entry[2]
        return None

    # -- loads/stores -------------------------------------------------------------
    @staticmethod
    def _dirty_active(inj: _Inj, ordinal: int, mask: Optional[np.ndarray]) -> Dict[int, Any]:
        """The injection's faulty values of ``ordinal`` at active lanes.

        An inactive lane's load returns 0 whatever its address (and never
        faults), and its store writes nothing: a faulty operand there
        changes nothing.
        """
        got = inj.dirty.get(ordinal) if ordinal >= 0 else None
        if got is None:
            return {}
        if not inj.wide:
            got = {inj.lane: got}
        if mask is None:
            return got
        return {lane: value for lane, value in got.items() if mask[lane]}

    def _visit_ld(self, index, ci, args, injs, schedule) -> None:
        if len(args) != 2 or args[0][0] != "b":
            self._fallback_all(injs, FallbackReason.OPAQUE)
            return
        bname = args[0][1]
        info = index.buffers.get(bname)
        ret_o = int(index.ret_ordinal[ci])
        if info is None or ret_o < 0:
            self._fallback_all(injs, FallbackReason.OPAQUE)
            return
        space, _shape, dtype, elements, _alloc = info
        ret_val = index.tape.newvals[ret_o]
        if ret_val.data.ndim != 1:
            self._fallback_all(injs, FallbackReason.TILE)
            return
        idx_entry = args[1]
        idx_ordinal = idx_entry[3] if idx_entry[0] == "a" else -1
        mask = index.mask_at(ci)
        # lanes whose faulty index moves the load, over every injection
        rows: List[Tuple[_Inj, int, int]] = []
        for inj in injs if idx_ordinal >= 0 else ():
            got = inj.dirty.get(idx_ordinal)
            if got is None:
                continue
            if not inj.wide:
                if mask is not None and not mask[inj.lane]:
                    continue
                moved = [(inj, inj.lane, int(got))]
            else:
                moved = [
                    (inj, lane, int(f)) for lane, f in got.items()
                    if mask is None or mask[lane]
                ]
                if not moved:
                    continue
            if space != "global":
                self._fallback(inj, FallbackReason.SHARED_MEMORY)
                continue
            rows += moved
        golden = ret_val.data
        np_dtype = dtype.np_dtype
        touched: List[_Inj] = []
        #: moved lanes of the injections with deltas in this buffer
        moved_lanes: Dict[_Inj, set] = {}
        if rows:
            fidx = np.array([f for _inj, _lane, f in rows], dtype=np.int64)
            lanes = np.array([lane for _inj, lane, _f in rows], dtype=np.int64)
            in_buf = (fidx >= 0) & (fidx < elements)
            content = index.content_at(bname, ci) if in_buf.any() else None
            if in_buf.all():
                values = content[fidx] if content is not None else np.zeros(len(rows), np_dtype)
            else:
                # exact _resolve_global arithmetic: byte addresses in int64,
                # the mapped span from the allocations live at this call
                byte = fidx * np.int64(dtype.bytes)
                fatal = ~in_buf & ((byte < 0) | (byte >= index.span_at(ci)))
                values = np.zeros(len(rows), dtype=np_dtype)
                if content is not None:
                    values[in_buf] = content[fidx[in_buf]]
                wild = ~in_buf
                garbage = (byte[wild] * 2654435761) & 0x7FFFFFFF
                values[wild] = garbage.astype(dtype.np_bits_dtype).view(np_dtype)
                for i in np.flatnonzero(fatal).tolist():
                    # a lane dereferences an unmapped address: the simulator
                    # raises IllegalAddressError(cause="illegal_address") here
                    inj = rows[i][0]
                    if inj.status == _LIVE:
                        inj.status = _DUE
                        inj.due_cause = "illegal_address"
            bits = dtype.np_bits_dtype
            same = (values.view(bits) == golden[lanes].view(bits)).tolist()
            inside = in_buf.tolist()
            for i, (inj, lane, f) in enumerate(rows):
                if inj.status != _LIVE:
                    continue
                if inside[i] and content is None:
                    self._fallback(inj, FallbackReason.UNKNOWN_CONTENT)
                    continue
                deltas = inj.deltas.get(bname)
                if not deltas and same[i]:
                    continue
                value = values[i]
                if deltas:
                    moved_lanes.setdefault(inj, set()).add(lane)
                    if inside[i] and f in deltas:
                        value = deltas[f]
                        if _bits(value, np_dtype) == golden[lane:lane + 1].tobytes():
                            continue
                    elif same[i]:
                        continue
                if self._set_dirty(index, inj, ret_o, lane, value):
                    touched.append(inj)
        for inj in injs:
            deltas = inj.deltas.get(bname)
            if not deltas or inj.status != _LIVE:
                continue
            cmap = index.cell_map(bname)
            if cmap is None:
                self._fallback(inj, FallbackReason.OPAQUE)
                continue
            moved = moved_lanes.get(inj, ())
            cells = list(deltas)
            for cell, readers in zip(cells, cmap.readers(np.array(cells, dtype=np.int64), ci)):
                value = deltas[cell]
                for lane in readers.tolist():
                    if lane in moved or _bits(value, np_dtype) == golden[lane:lane + 1].tobytes():
                        continue
                    if self._set_dirty(index, inj, ret_o, lane, value):
                        touched.append(inj)
        for inj in dict.fromkeys(touched):
            if inj.status == _LIVE:
                schedule(inj, ret_o)

    def _visit_st(self, index, ci, args, injs, schedule_at) -> None:
        if len(args) != 3 or args[0][0] != "b" or args[2][0] != "a":
            self._fallback_all(injs, FallbackReason.OPAQUE)
            return
        bname = args[0][1]
        info = index.buffers.get(bname)
        idx_entry, val_entry = args[1], args[2]
        lanes_idx = index.lane_index(ci)
        if info is None or lanes_idx is None:
            self._fallback_all(injs, FallbackReason.OPAQUE)
            return
        space, _shape, dtype, elements, _alloc = info
        np_dtype = dtype.np_dtype
        val_data = val_entry[1]
        val_ordinal = val_entry[3]
        idx_ordinal = idx_entry[3] if idx_entry[0] == "a" else -1
        mask = index.mask_at(ci)
        for inj in injs:
            stored = self._dirty_active(inj, val_ordinal, mask)
            moved = self._dirty_active(inj, idx_ordinal, mask)
            deltas = inj.deltas.get(bname)
            if space != "global":
                if stored or moved:
                    self._fallback(inj, FallbackReason.SHARED_MEMORY)
                continue
            if not moved and not deltas:
                # the common case: faulty values at golden addresses into
                # cells without deltas — a cell takes the faulty value of
                # its last active writer, which differs from the golden one
                last = index.last_writers(ci)
                for lane, value in stored.items():
                    if last[lane]:
                        cell = int(lanes_idx[lane])
                        deltas = inj.deltas.setdefault(bname, {})
                        deltas[cell] = value
                        inj.width += 1
                        if not self._track_cell(index, ci, inj, bname, cell, schedule_at):
                            break
                continue
            # a faulty index redirects its lane's write: replicate st's
            # global address resolution (an unmapped address is the
            # illegal-address DUE; one inside the mapped span but outside
            # the buffer corrupts a foreign page — hands off)
            targets: Dict[int, int] = {}
            cells = set()
            for lane, f in moved.items():
                f = int(f)
                if f < 0 or f >= elements:
                    byte = f * dtype.bytes
                    if byte < 0 or byte >= index.span_at(ci):
                        inj.status = _DUE
                        inj.due_cause = "illegal_address"
                    else:
                        self._fallback(inj, FallbackReason.WILD_STORE)
                    break
                targets[lane] = f
                cells.add(f)
                cells.add(int(lanes_idx[lane]))
            if inj.status != _LIVE:
                continue
            cells.update(int(lanes_idx[lane]) for lane in stored if lane not in targets)
            if deltas:
                written = index.written_cells(ci)
                cells.update(cell for cell in deltas if cell in written)
            for cell in sorted(cells):
                if not self._store_cell(
                    index, ci, inj, bname, cell, lanes_idx, mask, val_data,
                    stored, targets, np_dtype, schedule_at,
                ):
                    break

    def _store_cell(
        self, index, ci, inj, bname, cell, lanes_idx, mask, val_data,
        stored, moved, np_dtype, schedule_at,
    ) -> bool:
        """Settle one cell a store touches in the faulty run or the golden
        one: numpy fancy assignment keeps the LAST active writer, and a
        cell nobody writes keeps its content.  False after a fallback."""
        hits = lanes_idx == cell
        if mask is not None:
            hits &= mask
        golden_writers = np.flatnonzero(hits).tolist()
        faulty_writers = [lane for lane in golden_writers if moved.get(lane, cell) == cell]
        faulty_writers += [lane for lane, f in moved.items() if f == cell and not hits[lane]]
        deltas = inj.deltas.get(bname)
        pre = None
        if not golden_writers or not faulty_writers:
            content = index.content_at(bname, ci)
            if content is None:
                self._fallback(inj, FallbackReason.UNKNOWN_CONTENT)
                return False
            pre = content[cell]
        golden_post = val_data[golden_writers[-1]] if golden_writers else pre
        if faulty_writers:
            last = max(faulty_writers)
            faulty_post = stored.get(last, val_data[last])
        else:
            faulty_post = deltas.get(cell, pre) if deltas else pre
        if _bits(faulty_post, np_dtype) == _bits(golden_post, np_dtype):
            if deltas and deltas.pop(cell, None) is not None:
                inj.width -= 1
            return True
        if deltas is None:
            deltas = inj.deltas[bname] = {}
        if cell not in deltas:
            inj.width += 1
        deltas[cell] = faulty_post
        return self._track_cell(index, ci, inj, bname, cell, schedule_at)

    def _track_cell(self, index, ci, inj, bname, cell, schedule_at) -> bool:
        """Schedule the calls that observe a delta landed at call ``ci``:
        every load of the cell until the next store to it, that store, and
        the buffer's guard calls."""
        if ci >= index.last_access(bname):
            return True  # nothing after this call touches the buffer
        cmap = index.cell_map(bname)
        if cmap is None:
            self._fallback(inj, FallbackReason.OPAQUE)
            return False
        stop = cmap.next_write(cell, ci)
        for reader in cmap.reads_between(cell, ci, stop if stop >= 0 else cmap.ncalls).tolist():
            schedule_at(inj, reader)
        if stop >= 0:
            schedule_at(inj, stop)
        if inj.guarded is None:
            inj.guarded = set()
        if bname not in inj.guarded:
            inj.guarded.add(bname)
            guards = index.buf_guards.get(bname, ())
            for guard in guards[bisect.bisect_right(guards, ci):]:
                schedule_at(inj, guard)
        return True

    # -- phase 3: classification ---------------------------------------------------
    def _finalize(
        self, index: _TapeIndex, injs: List[_Inj], records: List, verdict,
    ) -> Tuple[List[Tuple[int, _Inj]], int]:
        """Write records for every resolved injection.

        Returns ``(filled, classified_runs)``: the ``(j, inj)`` pairs whose
        records were written (needed to retract them if canary validation
        fails) and how many of those are MASKED/SDC verdicts owing run
        telemetry (DUEs raise mid-run and count nothing).  The caller emits
        the telemetry — after validation, never before.
        """
        filled: List[Tuple[int, _Inj]] = []
        classified_runs = 0
        for inj in injs:
            if inj.status == _LIVE:
                outcome = self._classify_live(index, inj, verdict)
                if isinstance(outcome, FallbackReason):
                    self._fallback(inj, outcome)
            if inj.status == _RESIDUAL:
                self._residual(inj.reason)
                continue
            if inj.status == _DUE:
                # raising runs emit no post-run telemetry
                self.stats["due"] += 1
                records[inj.j] = InjectionRecord(
                    group=inj.group.name,
                    outcome=Outcome.DUE,
                    op=inj.op,
                    bit=inj.bit,
                    due_cause=inj.due_cause,
                    contained=False,
                )
                filled.append((inj.j, inj))
                continue
            self.stats["classified"] += 1
            classified_runs += 1
            records[inj.j] = InjectionRecord(
                group=inj.group.name,
                outcome=outcome,
                op=inj.op,
                bit=inj.bit,
                detail="",
            )
            filled.append((inj.j, inj))
        return filled, classified_runs

    def _classify_live(self, index: _TapeIndex, inj: _Inj, verdict):
        """MASKED/SDC for an injection whose propagation ran dry, or the
        reason host visibility cannot be proven.

        A delta alive at the end of the tape reaches the host only through
        a readback in the pure readback tail (an earlier readback of a
        buffer holding deltas is a guard, see :meth:`_track_cell`), and
        that readback's golden copy plus the deltas is the faulty copy.
        """
        golden_outputs = self.golden.outputs
        faulty: Dict[str, np.ndarray] = {}
        for bname, cells in inj.deltas.items():
            if not cells:
                continue
            readbacks = index.buf_readbacks.get(bname, ())
            if not readbacks or readbacks[-1] < index.tail_start:
                continue  # never copied to the host after the store
            name = index.output_of(bname, golden_outputs)
            if name is None:
                return FallbackReason.OUTPUT_UNTRACKED  # host post-processing
            if verdict is None:
                flat = golden_outputs[name].reshape(-1)
                for cell, value in cells.items():
                    if _bits(value, flat.dtype) != flat[cell:cell + 1].tobytes():
                        return Outcome.SDC  # the bitwise compare flips
                continue
            out = faulty.get(name)
            if out is None:
                out = faulty[name] = golden_outputs[name].copy()
            flat = out.reshape(-1)
            for cell, value in cells.items():
                flat[cell] = value
        if not faulty:
            return Outcome.MASKED
        return verdict({**golden_outputs, **faulty})

    # -- helpers -------------------------------------------------------------------
    def _fallback(self, inj: _Inj, reason: FallbackReason) -> None:
        if inj.status == _LIVE:
            inj.status = _RESIDUAL
            inj.reason = reason
            if inj.saved_rng is not None:
                # hand the substream back exactly as the vanilla path
                # expects to find it
                inj.rng.bit_generator.state = inj.saved_rng

    def _fallback_all(self, injs: Sequence[_Inj], reason: FallbackReason) -> None:
        for inj in injs:
            self._fallback(inj, reason)

    def _untrust(self, inj: _Inj) -> None:
        """Retract a resolved verdict: back to residual, RNG rewound."""
        inj.status = _RESIDUAL
        if inj.saved_rng is not None:
            inj.rng.bit_generator.state = inj.saved_rng


class PendingValidation:
    """One chunk's tape verdicts, held until a canary confirms the tape.

    The evaluator's soundness rests on the kernel being a pure function of
    its recorded context operations.  That cannot be checked statically, so
    the first chunk against each tape keeps its verdicts provisional: the
    caller replays ONE tape-classified injection through the vanilla path
    and hands the actual record to :meth:`resolve`.  A match validates the
    tape (verdicts stand, their telemetry is emitted); a mismatch retracts
    every verdict — records cleared, RNG substreams rewound — and disables
    the evaluator permanently, so the whole campaign degrades to the
    vanilla path with bit-identical results.
    """

    def __init__(
        self,
        evaluator: "BatchEvaluator",
        index: _TapeIndex,
        canary: int,
        predicted: InjectionRecord,
        filled: List[Tuple[int, _Inj]],
        classified_runs: int,
    ) -> None:
        self.evaluator = evaluator
        self.index = index
        #: chunk-local index of the injection the caller must run vanilla
        self.canary = canary
        self.predicted = predicted
        self._filled = filled
        self._classified_runs = classified_runs

    def resolve(self, actual: InjectionRecord, records: List) -> bool:
        """Compare the canary's vanilla record against the tape prediction."""
        evaluator = self.evaluator
        if actual == self.predicted:
            evaluator._validated_tape = self.index.tape
            evaluator._validated_pid = os.getpid()
            evaluator._count_classified(self._classified_runs)
            return True
        _log.warning(
            "batch canary mismatch (predicted %s, got %s): kernel behaves "
            "plan-dependently — disabling batched evaluation for this workload",
            self.predicted, actual,
        )
        stats = evaluator.stats
        for j, inj in self._filled:
            records[j] = None
            if inj.status == _DUE:
                stats["due"] -= 1
            else:
                stats["classified"] -= 1
            evaluator._residual(FallbackReason.RETRACTED)
            evaluator._untrust(inj)
        evaluator._disabled = True
        return False


# -- per-call recompute handlers ----------------------------------------------------
# Each replicates the exact numpy expression of the corresponding
# KernelContext method, applied to (k,)-shaped operand gathers over the
# call's (injection, lane) rows instead of per-lane arrays (``over`` holds
# the register operands gathered with their faulty values); returning None
# means "fall back".

def _h_add(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], over, lanes, dt)
    y = ev._gather(args[1], over, lanes, dt)
    return (x + y).astype(dt.np_dtype, copy=False)


def _h_sub(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], over, lanes, dt)
    y = ev._gather(args[1], over, lanes, dt)
    return (x - y).astype(dt.np_dtype, copy=False)


def _h_mul(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], over, lanes, dt)
    y = ev._gather(args[1], over, lanes, dt)
    return (x * y).astype(dt.np_dtype, copy=False)


def _h_fma(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 3:
        return None
    x = ev._gather(args[0], over, lanes, dt)
    y = ev._gather(args[1], over, lanes, dt)
    z = ev._gather(args[2], over, lanes, dt)
    return (np.multiply(x, y) + z).astype(dt.np_dtype, copy=False)


def _h_div(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], over, lanes, dt)
    y = ev._gather(args[1], over, lanes, dt)
    recip = (1.0 / y.astype(np.float64)).astype(dt.np_dtype)
    return (x * recip).astype(dt.np_dtype, copy=False)


def _h_idiv(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], over, lanes, dt)
    y = ev._gather(args[1], over, lanes, dt)
    safe = np.where(y == 0, 1, y)
    return (x // safe).astype(dt.np_dtype)


def _h_imod(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], over, lanes, dt)
    y = ev._gather(args[1], over, lanes, dt)
    safe = np.where(y == 0, 1, y)
    return (x % safe).astype(dt.np_dtype)


def _h_sqrt(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 1:
        return None
    x = ev._gather(args[0], over, lanes, dt)
    return np.sqrt(np.abs(x.astype(np.float64))).astype(dt.np_dtype)


def _h_exp(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 1:
        return None
    x = ev._gather(args[0], over, lanes, dt)
    return np.exp(x.astype(np.float64)).astype(dt.np_dtype)


def _h_neg(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 1:
        return None
    x = ev._gather(args[0], over, lanes, dt)
    return (-x).astype(dt.np_dtype)


def _h_abs(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 1:
        return None
    return np.abs(ev._gather(args[0], over, lanes, dt))


def _h_minimum(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], over, lanes, dt)
    y = ev._gather(args[1], over, lanes, dt)
    return np.minimum(x, y)


def _h_maximum(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], over, lanes, dt)
    y = ev._gather(args[1], over, lanes, dt)
    return np.maximum(x, y)


def _h_bit_and(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    return ev._gather(args[0], over, lanes, dt) & ev._gather(args[1], over, lanes, dt)


def _h_bit_or(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    return ev._gather(args[0], over, lanes, dt) | ev._gather(args[1], over, lanes, dt)


def _h_bit_xor(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    return ev._gather(args[0], over, lanes, dt) ^ ev._gather(args[1], over, lanes, dt)


def _h_shl(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2 or args[1][0] != "s":
        return None
    return ev._gather(args[0], over, lanes, dt) << np.int32(args[1][1])


def _h_shr(ev, args, over, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2 or args[1][0] != "s":
        return None
    return ev._gather(args[0], over, lanes, dt) >> np.int32(args[1][1])


def _h_mov(ev, args, over, lanes, ret_val):
    if len(args) != 1 or args[0][0] != "a":
        return None
    return ev._gather(args[0], over, lanes, args[0][2])


def _h_cvt(ev, args, over, lanes, ret_val):
    # target dtype travels as the return value's dtype (the DType argument
    # itself encodes as opaque); predicates cast like data (same branch in
    # KernelContext.cvt)
    if len(args) != 2 or args[0][0] != "a" or ret_val.dtype is None:
        return None
    return ev._gather(args[0], over, lanes, None).astype(ret_val.dtype.np_dtype)


def _h_setp(ev, args, over, lanes, ret_val):
    if len(args) != 3 or args[1][0] != "s":
        return None
    fn = _CMP.get(args[1][1])
    dt = ev._first_dtype((args[0], args[2]))
    if fn is None or dt is None:
        return None
    x = ev._gather(args[0], over, lanes, dt)
    y = ev._gather(args[2], over, lanes, dt)
    return fn(x, y)


def _h_pred_and(ev, args, over, lanes, ret_val):
    if len(args) != 2 or args[0][0] != "a" or args[1][0] != "a":
        return None
    return ev._gather(args[0], over, lanes, None) & ev._gather(args[1], over, lanes, None)


def _h_pred_or(ev, args, over, lanes, ret_val):
    if len(args) != 2 or args[0][0] != "a" or args[1][0] != "a":
        return None
    return ev._gather(args[0], over, lanes, None) | ev._gather(args[1], over, lanes, None)


def _h_pred_not(ev, args, over, lanes, ret_val):
    if len(args) != 1 or args[0][0] != "a":
        return None
    return ~ev._gather(args[0], over, lanes, None)


def _h_where(ev, args, over, lanes, ret_val):
    if len(args) != 3 or args[0][0] != "a":
        return None
    dt = ev._first_dtype((args[1], args[2]))
    if dt is None:
        return None
    pred = ev._gather(args[0], over, lanes, None)
    x = ev._gather(args[1], over, lanes, dt)
    y = ev._gather(args[2], over, lanes, dt)
    return np.where(pred, x, y).astype(dt.np_dtype)


_HANDLERS = {
    "add": _h_add,
    "sub": _h_sub,
    "mul": _h_mul,
    "fma": _h_fma,
    "mad": _h_fma,
    "div": _h_div,
    "idiv": _h_idiv,
    "imod": _h_imod,
    "sqrt": _h_sqrt,
    "exp": _h_exp,
    "neg": _h_neg,
    "abs": _h_abs,
    "minimum": _h_minimum,
    "maximum": _h_maximum,
    "bit_and": _h_bit_and,
    "bit_or": _h_bit_or,
    "bit_xor": _h_bit_xor,
    "shl": _h_shl,
    "shr": _h_shr,
    "mov": _h_mov,
    "cvt": _h_cvt,
    "setp": _h_setp,
    "pred_and": _h_pred_and,
    "pred_or": _h_pred_or,
    "pred_not": _h_pred_not,
    "where": _h_where,
}
