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
2. **plane propagation** — walk the consuming calls of every dirty value
   in ascending tape order, recomputing each visited call *vectorized
   across the chunk's injections* (one ufunc pass per call covers every
   injection that reaches it) with the exact numpy expressions the
   simulator uses; loads and stores with corrupted indices replicate the
   mapped-span address resolution, including the ``IllegalAddressError``
   DUE, and an in-buffer misdirected store is resolved exactly when its
   target is a zero-initialized buffer with no other writer;
3. **classification** — an injection whose dirtiness never reaches a
   host-visible output is MASKED; one whose dirty store deltas land in a
   buffer the kernel returns (and that nothing re-reads afterwards) is an
   SDC; a replicated illegal address is a DUE with the same cause string.

Divergent kernels index too.  The simulator computes arithmetic on every
lane whatever the mask; only the fire lane, loads and stores read it.  So
the index replays the tape's ``push_mask``/``pop_mask`` calls into a
per-call active-lane mask: the fire lane is the ``offset``-th *active*
lane, an inactive lane loads 0 and never faults, stores nothing, and
"last writer wins" counts active lanes only.

A workload with its own ``compare`` rule is settled only where the rule
cannot matter: a run whose output bytes equal the golden run's is MASKED
(provided the rule calls the golden run a match), and a replicated illegal
address is a DUE.  Every run whose output bytes change falls back.

The contract is the replay contract: **bit-identical or hands off**.  Any
injection the index cannot prove safe — control faults, a dirty predicate
reaching the mask stack or the host (``push_mask``/``any``/``count``),
tile values, unknown call types, dirty addresses feeding later writes — is
returned unclassified and falls back to the ordinary per-injection
execution path (restoring any RNG draws made here, so the fallback
consumes its substream exactly like a vanilla run).
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
import heapq
import os
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.isa import OpClass
from repro.faultsim.outcomes import InjectionRecord, Outcome
from repro.sim.injection import FaultModel, InjectionMode
from repro.sim.launch import KernelRun, count_run_telemetry
from repro.sim.memory import MemoryPool
from repro.telemetry import get_logger

_log = get_logger("faultsim.batch")

#: calls whose handlers recompute outputs exactly (see _visit); anything
#: else that consumes a dirty value sends the injection to the fallback
_PAGE = MemoryPool.PAGE_BYTES

#: status codes for one in-flight injection
_LIVE, _RESIDUAL, _DUE = 0, 1, 2

#: calls that never influence values and are safe to ignore entirely
_INERT = frozenset(("bar", "nop", "__step__"))

#: calls that read a buffer's contents (any one after a store delta makes
#: the delta's downstream effects untrackable → fallback)
_BUF_READERS = frozenset(("ld", "ld_tile", "atomic_add"))
#: calls that write buffer contents
_BUF_WRITERS = frozenset(("st", "st_tile", "atomic_add"))

_CMP = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}


class _Inj:
    """One injection's in-flight evaluation state."""

    __slots__ = (
        "j", "group", "lane", "op", "bit", "dirty", "deltas",
        "status", "due_cause", "rng", "saved_rng", "seen",
    )

    def __init__(self, j: int, group, lane: int, op: OpClass, bit: int, rng) -> None:
        self.j = j
        self.group = group
        self.lane = lane
        self.op = op
        self.bit = bit
        #: tape ordinal -> faulty numpy scalar (differs from golden)
        self.dirty: Dict[int, Any] = {}
        #: buffer name -> {flat cell -> faulty numpy scalar}
        self.deltas: Dict[str, Dict[int, Any]] = {}
        self.status = _LIVE
        self.due_cause = ""
        self.rng = rng
        self.saved_rng = None
        self.seen = -1  # last visited call index (dedupes bucket entries)


class _TapeIndex:
    """Static per-tape index: emission schedule, value wiring, buffers.

    Built for each chunk and dropped with it: an evaluator holds no
    index, so it keeps no tape alive once a recapture (``ensure_ticks``)
    replaces it.
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
        self.buf_consumers: Dict[str, List[int]] = {}  # ld/ld_tile/atomic_add
        self.buf_writers: Dict[str, List[int]] = {}    # st/st_tile/atomic_add
        self.buf_readbacks: Dict[str, List[int]] = {}  # read_buffer calls
        #: buffer name -> host array of the LAST read_buffer (golden final)
        self.final_host: Dict[str, np.ndarray] = {}
        #: the active-lane mask from call ``mask_starts[k]`` on is
        #: ``masks[k]`` (None: every lane active), replayed from the tape's
        #: push_mask/pop_mask calls
        self.mask_starts: List[int] = [0]
        self.masks: List[Optional[np.ndarray]] = [None]
        self._active: Dict[int, np.ndarray] = {}
        self._frozen: Dict[str, Optional[np.ndarray]] = {}
        self._schedules: Dict[str, Any] = {}
        self._argdata: Dict[int, tuple] = {}

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
                    if name in _BUF_READERS:
                        self.buf_consumers.setdefault(bname, []).append(ci)
                    if name in _BUF_WRITERS:
                        self.buf_writers.setdefault(bname, []).append(ci)
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
        self.emit_counts = np.array(counts, dtype=np.float64)
        self.emit_ordinals = np.array(ordinals, dtype=np.int64)
        self.emit_weights = np.array(weights, dtype=np.int64)
        self.emit_call = np.array(call_of, dtype=np.int64)
        #: first call index from which the tape is pure host readback
        #: (read_buffer/read/bar/nop): a store delta is host-visible as-is
        #: only when nothing but readbacks follow it
        tail = len(calls)
        while tail > 0 and calls[tail - 1][0] in ("read_buffer", "read", "bar", "nop"):
            tail -= 1
        self.tail_start = tail
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

    def frozen_content(self, bname: str) -> Optional[np.ndarray]:
        """Initial (= any-time) flat contents of a never-written buffer."""
        got = self._frozen.get(bname, False)
        if got is not False:
            return got
        content: Optional[np.ndarray] = None
        if bname not in self.buf_writers:
            for snap in self.tape.snapshots:
                for name, frozen in snap.buffers:
                    if name == bname:
                        content = frozen.reshape(-1)
                        break
                if content is not None:
                    break
        self._frozen[bname] = content
        return content

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
        covered = {op: bool(stream(op)) for op in set(self.emit_ops)}
        mask = np.fromiter(
            (covered[op] for op in self.emit_ops), dtype=bool, count=len(self.emit_ops)
        )
        sel = np.flatnonzero(mask)
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
        #: weak reference to the tape that survived canary validation (see
        #: :class:`PendingValidation`): a tape superseded by a recapture
        #: must be freed, not kept alive here.  Scoped to the validating
        #: *process*: kernels can observe ambient per-process state (pids,
        #: globals), and worker state is inherited across fork — each
        #: process must earn its own validation.
        self._validated_tape: Optional[weakref.ref] = None
        self._validated_pid = -1
        #: a failed validation disables the evaluator for good: the kernel's
        #: Python body observes something the tape cannot record
        self._disabled = False
        #: same spirit as ReplaySession.stats: observability without
        #: touching the telemetry stream (which must stay bit-identical
        #: between the batched and per-injection paths)
        self.stats = {"classified": 0, "residual": 0, "due": 0}

    def _tape_index(self) -> Optional[_TapeIndex]:
        self.session.ensure_capture()
        tape = getattr(self.session, "_tape", None)
        if tape is None:
            return None
        # built per chunk (a few ms even for YOLO's tape) rather than kept:
        # an engine cache holds many evaluators, and a kept index would
        # keep its tape alive after a recapture
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
        bitwise: bool,
    ) -> Optional["PendingValidation"]:
        """Fill ``records[j]`` for every injection resolvable on the tape.

        Unresolvable entries are left ``None`` (with their RNG streams
        untouched) for the caller's per-injection fallback.  ``bitwise``
        says the workload uses the default bitwise compare, so a run whose
        output bytes change is an SDC.  Otherwise such a run falls back,
        and the caller guarantees that the workload's compare calls the
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
            self.stats["residual"] += len(tasks)
            return None
        index = self._tape_index()
        if index is None:
            self.stats["residual"] += len(tasks)
            return None
        with np.errstate(all="ignore"):
            injs = self._fire_phase(index, groups, tasks, rngs)
            self._propagate(index, injs)
            filled, classified_runs = self._finalize(index, injs, records, bitwise)
        validated = self._validated_tape
        if (
            validated is not None
            and validated() is index.tape
            and self._validated_pid == os.getpid()
        ):
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
        self.stats["residual"] += 1
        return PendingValidation(self, index, canary_j, predicted, filled[1:], classified_runs)

    def _count_classified(self, classified_runs: int) -> None:
        if classified_runs:
            # each classified run's trace IS the golden trace (value-only
            # faults don't change the executed stream): one batched update,
            # numerically identical to per-run calls
            count_run_telemetry(self.golden.trace, classified_runs)

    # -- phase 1: fire replication ----------------------------------------------
    def _fire_phase(
        self, index: _TapeIndex, groups, tasks, rngs
    ) -> List[Optional[_Inj]]:
        tape = index.tape
        trace = self.golden.trace
        injs: List[Optional[_Inj]] = [None] * len(tasks)
        for j, task in enumerate(tasks):
            group = groups[task.group]
            if (
                group.mode is not InjectionMode.OUTPUT_VALUE
                or group.fault_model is not FaultModel.SINGLE_BIT
            ):
                continue
            sched = index.schedule(group, trace)
            if sched is None:
                continue
            sel, cum = sched
            target = float(task.target_index)
            if target >= float(cum[-1]):
                continue  # vanilla raises "never fired" — reproduce it there
            k = int(np.searchsorted(cum, target, side="right"))
            e = int(sel[k])
            op = index.emit_ops[e]
            ordinal = int(index.emit_ordinals[e])
            if op is OpClass.BRA or ordinal < 0 or int(index.emit_weights[e]) != 1:
                continue  # control faults / result-free claims: fallback
            val = tape.newvals[ordinal]
            if val.data.ndim != 1:
                continue  # tile values draw an element — fallback
            ci = int(index.emit_call[e])
            if index.names[ci] == "from_array":
                continue  # may alias a host array the kernel re-wraps
            start = float(cum[k - 1]) if k else 0.0
            offset = int(target - start)
            # the offset-th active lane, as KernelContext._fire_on_output
            active = index.active_at(ci)
            lane = offset if active is None else int(active[offset])
            rng = rngs[j]
            inj = _Inj(j, group, lane, op, 0, rng)
            if val.dtype is None:
                # predicate: flip truth of the lane, bit 0, no RNG draw
                faulty = np.logical_not(val.data[lane])
            else:
                # the state getter returns a fresh dict of immutable leaves,
                # so a plain reference is enough to restore (no deepcopy)
                inj.saved_rng = rng.bit_generator.state
                inj.bit = int(rng.integers(0, val.dtype.bits))
                faulty = _flip_scalar(val.data, val.dtype, lane, inj.bit)
            ret_o = int(index.ret_ordinal[ci])
            if ordinal == ret_o:
                inj.dirty[ordinal] = faulty
            elif index.names[ci] == "div" and ordinal == ret_o - 1:
                # fired on the MUFU reciprocal: the nested multiply consumes
                # it before the call returns — finish the call by hand
                if not self._div_fixup(index, ci, lane, faulty, ret_o, inj):
                    self._fallback(inj)
                    injs[j] = inj
                    continue
            elif index.readers.get(ordinal):
                self._fallback(inj)  # consumed intermediate we can't model
                injs[j] = inj
                continue
            # else: dead intermediate (loop counter, dead-code arith, dead
            # load copy) — flipping it provably changes nothing
            injs[j] = inj
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
            inj.dirty[ret_o] = out[0]
        inj.dirty[ret_o - 1] = recip_f  # no depth-0 readers; kept for completeness
        return True

    # -- phase 2: vectorized propagation ------------------------------------------
    def _propagate(self, index: _TapeIndex, injs: List[Optional[_Inj]]) -> None:
        heap: List[int] = []
        buckets: Dict[int, List[_Inj]] = {}

        def schedule(inj: _Inj, ordinal: int) -> None:
            for ci in index.readers.get(ordinal, ()):
                bucket = buckets.get(ci)
                if bucket is None:
                    buckets[ci] = bucket = []
                    heapq.heappush(heap, ci)
                bucket.append(inj)

        for inj in injs:
            if inj is not None and inj.status == _LIVE:
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
            if live:
                self._visit(index, ci, live, schedule)

    def _visit(self, index: _TapeIndex, ci: int, injs: List[_Inj], schedule) -> None:
        name = index.names[ci]
        if name in _INERT:
            return
        args = index.arg_arrays(ci)
        if args is None:
            self._fallback_all(injs)
            return
        if name == "ld":
            self._visit_ld(index, ci, args, injs, schedule)
            return
        if name == "st":
            self._visit_st(index, ci, args, injs)
            return
        handler = _HANDLERS.get(name)
        if handler is None:
            # read/any/count escape to the host or reductions; atomics,
            # tiles and anything unrecognized: hands off
            self._fallback_all(injs)
            return
        ret_o = int(index.ret_ordinal[ci])
        if ret_o < 0:
            self._fallback_all(injs)
            return
        ret_val = index.tape.newvals[ret_o]
        if ret_val.data.ndim != 1:
            self._fallback_all(injs)
            return
        lanes = np.array([inj.lane for inj in injs], dtype=np.int64)
        try:
            result = handler(self, args, injs, lanes, ret_val)
        except Exception:
            result = None
        if result is None:
            self._fallback_all(injs)
            return
        golden = ret_val.data[lanes]
        if ret_val.dtype is None:
            diff = result != golden
        else:
            bits = ret_val.dtype.np_bits_dtype
            diff = np.ascontiguousarray(result).view(bits) != np.ascontiguousarray(golden).view(bits)
        for i, inj in enumerate(injs):
            if diff[i]:
                inj.dirty[ret_o] = result[i]
                schedule(inj, ret_o)

    def _gather(self, entry, injs: List[_Inj], lanes: np.ndarray, dtype):
        """Per-injection operand values at each injection's lane, with the
        injection's dirty overrides applied.  Mirrors ``_coerce``: python
        immediates become 0-d arrays of the operand dtype (broadcast by
        the ufunc, value-identical to the simulator's scalar cache)."""
        kind = entry[0]
        if kind == "s":
            return np.asarray(entry[1], dtype=dtype.np_dtype)
        data, _dt, ordinal = entry[1], entry[2], entry[3]
        out = data[lanes]
        if ordinal >= 0:
            for i, inj in enumerate(injs):
                dirty = inj.dirty.get(ordinal)
                if dirty is not None:
                    out[i] = dirty
        return out

    @staticmethod
    def _first_dtype(args) -> Optional[Any]:
        for entry in args:
            if entry[0] == "a":
                return entry[2]
        return None

    # -- loads/stores -------------------------------------------------------------
    @staticmethod
    def _active_only(index: _TapeIndex, ci: int, injs: List[_Inj]) -> List[_Inj]:
        """The injections whose lane is active at memory call ``ci``.

        An inactive lane's load returns 0 whatever its address (and never
        faults), and its store writes nothing: a dirty operand there
        changes nothing, so the injection simply moves on.
        """
        mask = index.mask_at(ci)
        if mask is None:
            return injs
        return [inj for inj in injs if mask[inj.lane]]

    @staticmethod
    def _writers(idx_data: np.ndarray, cell: int, mask: Optional[np.ndarray]) -> np.ndarray:
        """Lanes that store to ``cell``, ascending: active lanes only."""
        hits = idx_data == cell
        if mask is not None:
            hits &= mask
        return np.flatnonzero(hits)

    def _visit_ld(self, index, ci, args, injs, schedule) -> None:
        injs = self._active_only(index, ci, injs)
        if not injs:
            return
        if len(args) != 2 or args[0][0] != "b":
            self._fallback_all(injs)
            return
        bname = args[0][1]
        info = index.buffers.get(bname)
        ret_o = int(index.ret_ordinal[ci])
        if info is None or ret_o < 0:
            self._fallback_all(injs)
            return
        space, _shape, dtype, elements, _alloc = info
        ret_val = index.tape.newvals[ret_o]
        idx_entry = args[1]
        if (
            space != "global"
            or ret_val.data.ndim != 1
            or idx_entry[0] != "a"
            or idx_entry[3] < 0
        ):
            self._fallback_all(injs)
            return
        idx_ordinal = idx_entry[3]
        live: List[_Inj] = []
        for inj in injs:
            if bname in inj.deltas or idx_ordinal not in inj.dirty:
                # a load from a delta'd buffer is guarded at delta creation;
                # anything slipping through (or a clean-index visit) falls back
                self._fallback(inj)
            else:
                live.append(inj)
        if not live:
            return
        frozen = index.frozen_content(bname)
        if frozen is None:
            self._fallback_all(live)
            return
        fidx = np.array([int(inj.dirty[idx_ordinal]) for inj in live], dtype=np.int64)
        in_buf = (fidx >= 0) & (fidx < elements)
        # exact _resolve_global arithmetic: byte addresses in int64, the
        # mapped span from the allocations live at this call
        byte = fidx * np.int64(dtype.bytes)
        span = index.span_at(ci)
        fatal = ~in_buf & ((byte < 0) | (byte >= span))
        values = np.zeros(len(live), dtype=dtype.np_dtype)
        if in_buf.any():
            values[in_buf] = frozen[fidx[in_buf]]
        wild = ~in_buf & ~fatal
        if wild.any():
            garbage = (byte[wild] * 2654435761) & 0x7FFFFFFF
            values[wild] = garbage.astype(dtype.np_bits_dtype).view(dtype.np_dtype)
        lanes = np.array([inj.lane for inj in live], dtype=np.int64)
        golden = ret_val.data[lanes]
        bits = dtype.np_bits_dtype
        diff = np.ascontiguousarray(values).view(bits) != np.ascontiguousarray(golden).view(bits)
        for i, inj in enumerate(live):
            if fatal[i]:
                # the lane dereferences an unmapped address: the simulator
                # raises IllegalAddressError(cause="illegal_address") here
                inj.status = _DUE
                inj.due_cause = "illegal_address"
            elif diff[i]:
                inj.dirty[ret_o] = values[i]
                schedule(inj, ret_o)

    def _visit_st(self, index, ci, args, injs) -> None:
        injs = self._active_only(index, ci, injs)
        if not injs:
            return
        if len(args) != 3 or args[0][0] != "b":
            self._fallback_all(injs)
            return
        bname = args[0][1]
        info = index.buffers.get(bname)
        idx_entry, val_entry = args[1], args[2]
        if info is None or info[0] != "global" or val_entry[0] != "a":
            self._fallback_all(injs)
            return
        _space, _shape, dtype, elements, alloc_ci = info
        val_ordinal = val_entry[3]
        idx_ordinal = idx_entry[3] if idx_entry[0] == "a" else -1
        # any later access that could observe or overwrite the delta makes
        # its final value untrackable (read_buffer is handled in phase 3)
        later_access = any(
            t > ci for t in index.buf_consumers.get(bname, ())
        ) or any(t > ci for t in index.buf_writers.get(bname, ()))
        # a misdirected store is only trackable when this call is the sole
        # writer of a zero-initialized buffer: every cell's pre-store
        # content is known (zero) and no other write can interfere
        fresh_zero = (
            list(index.buf_writers.get(bname, ())) == [ci]
            and index.names[alloc_ci] == "alloc_zeros"
        )
        mask = index.mask_at(ci)
        for inj in injs:
            if val_ordinal < 0:
                self._fallback(inj)
                continue
            if later_access:
                self._fallback(inj)
                continue
            if idx_ordinal >= 0 and idx_ordinal in inj.dirty:
                self._misdirected_store(
                    index, ci, inj, bname, idx_entry, val_entry,
                    dtype, elements, fresh_zero, mask,
                )
                continue
            faulty = inj.dirty.get(val_ordinal)
            if faulty is None:
                self._fallback(inj)  # visited without a dirty operand?
                continue
            if idx_entry[0] == "a":
                idx_data = idx_entry[1]
                cell = int(idx_data[inj.lane])
                # duplicate store indices: numpy fancy assignment keeps the
                # LAST active writer — the delta only lands if this lane is it
                last = int(self._writers(idx_data, cell, mask)[-1])
            else:  # python immediate index: every active lane writes the same cell
                cell = int(idx_entry[1])
                active = index.active_at(ci)
                if active is None:
                    last = len(index.tape.newvals[val_ordinal].data) - 1
                else:
                    last = int(active[-1])
            if last == inj.lane:
                inj.deltas.setdefault(bname, {})[cell] = faulty
            # an earlier lane's write is overwritten by the golden last
            # writer: the faulty value never lands — nothing to record

    def _misdirected_store(
        self, index, ci, inj, bname, idx_entry, val_entry, dtype, elements,
        fresh_zero, mask,
    ) -> None:
        """A store whose *address* operand carries the fault.

        Replicates ``st``'s global address resolution exactly: an in-buffer
        faulty index redirects the lane's write (numpy fancy assignment,
        last-numbered active lane wins each cell), an index whose byte address
        leaves the mapped span raises the ``illegal_address`` DUE, and an
        in-span out-of-buffer index corrupts a foreign mapped page — hands
        off, the pool-level damage is outside the tape's model.
        """
        f = int(inj.dirty[idx_entry[3]])
        if f < 0 or f >= elements:
            byte = np.int64(f) * np.int64(dtype.bytes)
            if byte < 0 or byte >= index.span_at(ci):
                inj.status = _DUE
                inj.due_cause = "illegal_address"
            else:
                self._fallback(inj)  # wild store into a foreign mapped page
            return
        if not fresh_zero or idx_entry[0] != "a":
            self._fallback(inj)
            return
        idx_data = idx_entry[1]
        val_data = val_entry[1]
        lane = inj.lane
        g = int(idx_data[lane])
        dirty_val = inj.dirty.get(val_entry[3])
        lane_val = dirty_val if dirty_val is not None else val_data[lane]
        deltas = inj.deltas.setdefault(bname, {})
        # cell g loses this lane's write: the remaining golden writers (or
        # the zero initialization) decide its final content
        writers_g = self._writers(idx_data, g, mask)
        remaining = writers_g[writers_g != lane]
        deltas[g] = (
            val_data[int(remaining[-1])] if remaining.size
            else dtype.np_dtype.type(0)
        )
        # cell f gains this lane's write; it only survives when no golden
        # writer with a higher lane number overwrites it
        writers_f = self._writers(idx_data, f, mask)
        if writers_f.size == 0 or int(writers_f[-1]) < lane:
            deltas[f] = lane_val

    # -- phase 3: classification ---------------------------------------------------
    def _finalize(
        self, index: _TapeIndex, injs: List[Optional[_Inj]], records: List,
        bitwise: bool,
    ) -> Tuple[List[Tuple[int, _Inj]], int]:
        """Write records for every resolved injection (an SDC only when the
        compare is ``bitwise``; otherwise it falls back).

        Returns ``(filled, classified_runs)``: the ``(j, inj)`` pairs whose
        records were written (needed to retract them if canary validation
        fails) and how many of those are MASKED/SDC verdicts owing run
        telemetry (DUEs raise mid-run and count nothing).  The caller emits
        the telemetry — after validation, never before.
        """
        golden_outputs = self.golden.outputs
        filled: List[Tuple[int, _Inj]] = []
        classified_runs = 0
        for inj in injs:
            if inj is None:
                self.stats["residual"] += 1
                continue
            if inj.status == _RESIDUAL:
                self.stats["residual"] += 1
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
            outcome = self._classify_live(index, inj, golden_outputs)
            if outcome is None or (outcome is Outcome.SDC and not bitwise):
                self._fallback(inj)
                self.stats["residual"] += 1
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

    def _classify_live(
        self, index: _TapeIndex, inj: _Inj, golden_outputs
    ) -> Optional[Outcome]:
        """MASKED/SDC for an injection whose propagation ran dry, or None
        when host visibility cannot be proven."""
        changed = False
        for bname, cells in inj.deltas.items():
            readbacks = index.buf_readbacks.get(bname, ())
            if not readbacks:
                continue  # never copied to the host: invisible
            # _visit_st only records deltas when nothing re-reads or
            # re-writes the buffer, so its content at every readback is
            # golden-final + deltas; the readbacks must sit in the pure
            # readback tail or ordering gets murky — hands off then
            if readbacks[0] < index.tail_start:
                return None
            final = index.final_host.get(bname)
            if final is None:
                return None
            if not _is_output(final, golden_outputs):
                return None  # host post-processing we cannot see through
            flat = final.reshape(-1)
            for cell, value in cells.items():
                g = flat[cell:cell + 1]
                f = np.array([value], dtype=flat.dtype)
                if f.tobytes() != g.tobytes():
                    changed = True
                    break
            if changed:
                break
        return Outcome.SDC if changed else Outcome.MASKED

    # -- helpers -------------------------------------------------------------------
    def _fallback(self, inj: _Inj) -> None:
        if inj.status == _LIVE:
            inj.status = _RESIDUAL
            if inj.saved_rng is not None:
                # hand the substream back exactly as the vanilla path
                # expects to find it
                inj.rng.bit_generator.state = inj.saved_rng

    def _fallback_all(self, injs: Sequence[_Inj]) -> None:
        for inj in injs:
            self._fallback(inj)

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
            evaluator._validated_tape = weakref.ref(self.index.tape)
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
            stats["residual"] += 1
            evaluator._untrust(inj)
        evaluator._disabled = True
        return False


def _is_output(host: np.ndarray, outputs: Dict[str, np.ndarray]) -> bool:
    """Whether some golden output carries exactly ``host``'s bytes.

    The default compare is exact binary equality per array, so a buffer
    whose readback bytes ARE an output's bytes has a one-to-one cell→byte
    mapping: a byte-changing delta flips the compare, a byte-preserving
    one cannot.  Reshapes on the host keep the bytes; any transform that
    re-orders or recodes them breaks the match and forces a fallback.
    """
    payload = host.tobytes()
    return any(arr.tobytes() == payload for arr in outputs.values())


# -- per-call recompute handlers ----------------------------------------------------
# Each replicates the exact numpy expression of the corresponding
# KernelContext method, applied to per-injection (k,)-shaped operand
# gathers instead of per-lane arrays; returning None means "fall back".

def _h_add(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], injs, lanes, dt)
    y = ev._gather(args[1], injs, lanes, dt)
    return (x + y).astype(dt.np_dtype, copy=False)


def _h_sub(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], injs, lanes, dt)
    y = ev._gather(args[1], injs, lanes, dt)
    return (x - y).astype(dt.np_dtype, copy=False)


def _h_mul(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], injs, lanes, dt)
    y = ev._gather(args[1], injs, lanes, dt)
    return (x * y).astype(dt.np_dtype, copy=False)


def _h_fma(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 3:
        return None
    x = ev._gather(args[0], injs, lanes, dt)
    y = ev._gather(args[1], injs, lanes, dt)
    z = ev._gather(args[2], injs, lanes, dt)
    return (np.multiply(x, y) + z).astype(dt.np_dtype, copy=False)


def _h_div(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], injs, lanes, dt)
    y = ev._gather(args[1], injs, lanes, dt)
    recip = (1.0 / y.astype(np.float64)).astype(dt.np_dtype)
    return (x * recip).astype(dt.np_dtype, copy=False)


def _h_idiv(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], injs, lanes, dt)
    y = ev._gather(args[1], injs, lanes, dt)
    safe = np.where(y == 0, 1, y)
    return (x // safe).astype(dt.np_dtype)


def _h_imod(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], injs, lanes, dt)
    y = ev._gather(args[1], injs, lanes, dt)
    safe = np.where(y == 0, 1, y)
    return (x % safe).astype(dt.np_dtype)


def _h_sqrt(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 1:
        return None
    x = ev._gather(args[0], injs, lanes, dt)
    return np.sqrt(np.abs(x.astype(np.float64))).astype(dt.np_dtype)


def _h_exp(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 1:
        return None
    x = ev._gather(args[0], injs, lanes, dt)
    return np.exp(x.astype(np.float64)).astype(dt.np_dtype)


def _h_neg(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 1:
        return None
    x = ev._gather(args[0], injs, lanes, dt)
    return (-x).astype(dt.np_dtype)


def _h_abs(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 1:
        return None
    return np.abs(ev._gather(args[0], injs, lanes, dt))


def _h_minimum(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], injs, lanes, dt)
    y = ev._gather(args[1], injs, lanes, dt)
    return np.minimum(x, y)


def _h_maximum(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    x = ev._gather(args[0], injs, lanes, dt)
    y = ev._gather(args[1], injs, lanes, dt)
    return np.maximum(x, y)


def _h_bit_and(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    return ev._gather(args[0], injs, lanes, dt) & ev._gather(args[1], injs, lanes, dt)


def _h_bit_or(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    return ev._gather(args[0], injs, lanes, dt) | ev._gather(args[1], injs, lanes, dt)


def _h_bit_xor(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2:
        return None
    return ev._gather(args[0], injs, lanes, dt) ^ ev._gather(args[1], injs, lanes, dt)


def _h_shl(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2 or args[1][0] != "s":
        return None
    return ev._gather(args[0], injs, lanes, dt) << np.int32(args[1][1])


def _h_shr(ev, args, injs, lanes, ret_val):
    dt = ev._first_dtype(args)
    if dt is None or len(args) != 2 or args[1][0] != "s":
        return None
    return ev._gather(args[0], injs, lanes, dt) >> np.int32(args[1][1])


def _h_mov(ev, args, injs, lanes, ret_val):
    if len(args) != 1 or args[0][0] != "a":
        return None
    return ev._gather(args[0], injs, lanes, args[0][2])


def _h_cvt(ev, args, injs, lanes, ret_val):
    # target dtype travels as the return value's dtype (the DType argument
    # itself encodes as opaque); predicates cast like data (same branch in
    # KernelContext.cvt)
    if len(args) != 2 or args[0][0] != "a" or ret_val.dtype is None:
        return None
    entry = args[0]
    src = entry[1][lanes]
    for i, inj in enumerate(injs):
        if entry[3] >= 0:
            dirty = inj.dirty.get(entry[3])
            if dirty is not None:
                src[i] = dirty
    return src.astype(ret_val.dtype.np_dtype)


def _h_setp(ev, args, injs, lanes, ret_val):
    if len(args) != 3 or args[1][0] != "s":
        return None
    fn = _CMP.get(args[1][1])
    dt = ev._first_dtype((args[0], args[2]))
    if fn is None or dt is None:
        return None
    x = ev._gather(args[0], injs, lanes, dt)
    y = ev._gather(args[2], injs, lanes, dt)
    return fn(x, y)


def _h_pred_and(ev, args, injs, lanes, ret_val):
    if len(args) != 2 or args[0][0] != "a" or args[1][0] != "a":
        return None
    return ev._gather(args[0], injs, lanes, None) & ev._gather(args[1], injs, lanes, None)


def _h_pred_or(ev, args, injs, lanes, ret_val):
    if len(args) != 2 or args[0][0] != "a" or args[1][0] != "a":
        return None
    return ev._gather(args[0], injs, lanes, None) | ev._gather(args[1], injs, lanes, None)


def _h_pred_not(ev, args, injs, lanes, ret_val):
    if len(args) != 1 or args[0][0] != "a":
        return None
    return ~ev._gather(args[0], injs, lanes, None)


def _h_where(ev, args, injs, lanes, ret_val):
    if len(args) != 3 or args[0][0] != "a":
        return None
    dt = ev._first_dtype((args[1], args[2]))
    if dt is None:
        return None
    pred = ev._gather(args[0], injs, lanes, None)
    x = ev._gather(args[1], injs, lanes, dt)
    y = ev._gather(args[2], injs, lanes, dt)
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
