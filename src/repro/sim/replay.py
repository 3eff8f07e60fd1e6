"""Checkpoint/replay for the functional simulator.

Every injection re-executes its workload from tick 0, yet everything before
the fault site is *identical to the golden run* — the single-fault regime
guarantees it.  This module removes that redundancy, mirroring DAVOS's
``ColdRestore``/``startpoint.sim`` checkpoint design:

1. **Capture** — :class:`RecordingContext` runs the kernel once (fault-free)
   and records a *tape*: the sequence of DSL calls with their return values,
   plus :class:`SimSnapshot` checkpoints of complete simulator state at K
   evenly-spaced ticks.  The kernel's start is boundary zero: a fault at
   or before the first snapshot replays from there.

2. **Replay** — :class:`ReplayContext` re-runs the same kernel function, but
   every DSL call before the chosen restore point is *skipped*: the recorded
   return value is handed back without computing anything.  At the restore
   point the snapshot is written into the context (memory planes, register
   ring, mask stack, trace accounting, tick), the injection plan/strikes are
   armed with their stream counters preset, and execution goes *live* — the
   post-fault suffix runs through the ordinary (vanilla) code paths.  From
   the kernel's start nothing is skipped or restored: the faults are armed
   before the first call, as :func:`~repro.sim.launch.run_kernel` arms them.

3. **Golden forwarding** — once every fault has landed (the plan fired,
   every strike applied), a suffix call whose arguments the fault cone never
   touched would recompute exactly its golden value, so it is *served* from
   the tape instead: the recorded return comes back and the call's logged
   trace side effects (per-class emission counts, tick, byte/barrier/sync
   counters, register pressure) are replicated verbatim.  Only the fault's
   dynamic forward slice — values derived from corrupted registers, reads
   of written-to planes — executes for real.  The moment a dirty value
   reaches host Python or the mask stack (control flow could diverge from
   the tape), forwarding is abandoned and the rest of the run executes
   live, which is always correct.

The bit-identical contract is non-negotiable: a replayed run must produce
the same outputs, the same trace, the same telemetry, and consume its RNG
streams identically to a from-scratch ``run_kernel``.  Everything here is
arranged around that: snapshots restore *all* accounting the suffix can
observe, plan stream counters are preset to exactly the value the skipped
prefix would have accumulated, and any unexpected condition raises
:class:`ReplayError`, which :class:`ReplaySession` converts into a silent
fall back to the vanilla path (after restoring the fault RNG states).

Skipping works because kernels are deterministic Python against the ctx
DSL: given identical return values for every ctx call, the kernel makes
identical host-side decisions (loop trip counts, ``read_buffer`` driven
fixed points), so the call sequence replayed matches the tape until the
restore point — and from there real execution continues naturally, with
faults applied, possibly diverging from the tape (which is no longer
consulted).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.devices import DeviceSpec
from repro.arch.dtypes import DType
from repro.arch.ecc import EccMode, SecdedModel
from repro.arch.isa import OP_COUNT, OpClass
from repro.common.errors import ConfigurationError, SimulationError
from repro.sim.context import _REGISTER_TABLE_CAP, KernelContext
from repro.sim.exceptions import GpuDeviceException
from repro.sim.injection import FiredRecord, InjectionMode, InjectionPlan, StorageStrike
from repro.sim.launch import KernelRun, LaunchConfig, count_run_telemetry, run_kernel
from repro.sim.memory import DeviceBuffer, SharedBuffer
from repro.sim.values import Val


class CaptureError(SimulationError):
    """The recording pass met state it cannot checkpoint."""


class ReplayError(SimulationError):
    """A replay diverged from its tape (the session falls back to vanilla)."""


#: DSL methods recorded on capture and skipped on replay.  ``range`` and
#: ``masked`` are intentionally absent: ``range`` has its own override (it
#: must interleave snapshot points with its bookkeeping emissions) and
#: ``masked`` delegates to the wrapped ``push_mask``/``pop_mask``.
_TAPED = (
    "const", "from_array", "thread_idx", "block_idx", "global_id",
    "add", "sub", "mul", "fma", "mad", "div", "idiv", "imod",
    "sqrt", "exp", "neg", "abs", "minimum", "maximum",
    "bit_and", "bit_or", "bit_xor", "shl", "shr", "mov", "cvt",
    "setp", "pred_and", "pred_or", "pred_not", "where",
    "alloc", "alloc_zeros", "shared_alloc",
    "ld", "st", "atomic_add", "ld_tile", "st_tile", "mma", "zeros_tile",
    "bar", "nop", "read", "read_buffer", "any", "count",
    "push_mask", "pop_mask",
)

#: calls that advance the ADDRESS-mode sampling stream (see
#: ``KernelContext._maybe_corrupt_address``: exactly ``ld`` and ``st`` claim,
#: one instance per active lane; tile and atomic ops never do)
_LDST = frozenset(("ld", "st"))

#: marker for the loop bookkeeping step emitted by :meth:`KernelContext.range`
_STEP = "__step__"

#: encoded spec for a ``None`` return
_RET_NONE = ("n",)

# -- golden forwarding (forward-slice replay) --------------------------------
# Once every fault has landed, a call whose arguments the fault never touched
# recomputes exactly its golden value — so it is served from the tape instead
# of executed, and only the fault's dynamic forward slice runs for real.
# Per-name static classification:
#
#: calls that must always execute live: they mutate context state a served
#: return cannot carry (buffer registration/contents, the mask stack)
_FS_LIVE_ONLY = frozenset(
    ("alloc", "alloc_zeros", "shared_alloc", "st", "st_tile", "atomic_add",
     "push_mask", "pop_mask")
)
#: calls that write memory planes: executing one with dirty arguments makes
#: the written buffer dirty
_FS_WRITERS = frozenset(("st", "st_tile", "atomic_add"))
#: calls whose result feeds host-side Python control flow (or the mask
#: stack): executing one with dirty arguments means the kernel's subsequent
#: call sequence can no longer be trusted to match the tape
_FS_BREAKERS = frozenset(("push_mask", "read", "read_buffer", "any", "count"))

#: _fs_mode values: tracking (live, faults still pending), serving (all
#: faults landed — clean calls come from the tape), broken (tape abandoned,
#: everything executes live to completion)
_FS_TRACKING, _FS_SERVING, _FS_BROKEN = 0, 1, 2


# --------------------------------------------------------------------- state
@dataclass
class SimSnapshot:
    """Complete simulator state at one call boundary of the golden run.

    Captured at the *entry* of call ``call_index`` (i.e. the state after
    call ``call_index - 1`` finished).  Arrays are frozen copies; restore
    copies buffer planes back in and shares the read-only register data
    (copy-on-write in :class:`~repro.sim.values.Val` protects the tape if a
    strike later flips bits in a restored register).
    """

    call_index: int
    tick: float
    vreg_counter: int
    arith_since_deadcode: int
    #: (name, frozen full copy) per pool buffer, in registration order
    buffers: List[Tuple[str, np.ndarray]]
    #: frozen mask arrays, root first (masks are never mutated in place)
    mask_stack: List[np.ndarray]
    #: live-register ring as (slot, tape ordinal) pairs
    ring: List[Tuple[int, int]]
    # -- trace accounting ---------------------------------------------------
    global_bytes: int
    shared_bytes: int
    barriers: int
    host_syncs: int
    # -- batched trace accumulators -------------------------------------------
    # (all the trace accounting there is: capture refuses a boundary after
    # the kernel flushed the trace, see RecordingContext._rc_capture_state)
    inst_acc: List[float]
    issue_acc: List[float]
    touched: List[OpClass]
    act_acc: float
    launch_acc: float
    # -- sampling-stream cursors -------------------------------------------
    #: cumulative lane-instances per op class up to this boundary (presets
    #: OUTPUT_VALUE plan stream counters; integral floats, order-safe)
    cum_ops: Dict[OpClass, float]
    #: cumulative ADDRESS-stream claims (one per active lane per ld/st)
    cum_addr: float


@dataclass
class ReplayTape:
    """One golden execution, recorded for replay."""

    #: one entry per depth-0 DSL call:
    #: ``(name, return spec, emission log, post-call counter state, arg
    #: spec)`` where the emission log is ``((op, lane_instances,
    #: issue_slots, result_ordinal, weight), ...)`` for every emission the
    #: call performed (nested and dead-code ones included), the counter
    #: state is the 9-tuple built by :meth:`RecordingContext._rc_state` —
    #: everything golden forwarding needs to replicate the call's trace
    #: side effects without running it — and the arg spec is the encoded
    #: argument list (:meth:`RecordingContext._rc_encode_args`) the batched
    #: evaluator uses for dirtiness propagation
    calls: List[tuple]
    #: every Val the run created, in creation order (ordinal = index)
    newvals: List[Val]
    #: constant Vals (vreg == -1) returned by calls, by first appearance
    consts: List[Val]
    #: frozen ndarray returns (host readbacks), by appearance
    arrays: List[np.ndarray]
    #: snapshots in capture (= tick) order
    snapshots: List[SimSnapshot]
    final_tick: float


# ----------------------------------------------------------------- recording
class RecordingContext(KernelContext):
    """A KernelContext that records a :class:`ReplayTape` while executing.

    Fault-free by construction: callers never arm plans or strikes on it.
    The recorded run is therefore the golden run, bit-identical to what
    ``run_kernel`` without faults produces (wrappers add bookkeeping around
    the base methods but never change computation order).
    """

    def __init__(self, *args, thresholds: Sequence[float] = (), **kwargs) -> None:
        # recording state must exist before any base machinery runs
        self._rc_depth = 1
        self._rc_log: Optional[List[tuple]] = None
        self._rc_calls: List[tuple] = []
        self._rc_newvals: List[Val] = []
        self._rc_ordinals: Dict[int, int] = {}
        self._rc_consts: List[Val] = []
        self._rc_arrays: List[np.ndarray] = []
        self._rc_snapshots: List[SimSnapshot] = []
        self._rc_thresholds: List[float] = sorted(float(t) for t in thresholds)
        self._rc_tidx = 0
        self._rc_cum_addr = 0.0
        super().__init__(*args, **kwargs)
        self._rc_depth = 0

    # every register the run creates gets a tape ordinal — including ones
    # born inside nested calls (div → mul, cuda7 dead code), because the
    # live-register ring can hold them at snapshot time
    def _new_val(self, data: np.ndarray, dtype: Optional[DType]) -> Val:
        val = KernelContext._new_val(self, data, dtype)
        self._rc_ordinals[id(val)] = len(self._rc_newvals)
        self._rc_newvals.append(val)
        return val

    def _emit(self, op: OpClass, result: Optional[Val] = None, weight: int = 1):
        """Log every effective emission into the current call's record.

        The log is what lets golden forwarding replicate a served call's
        per-class trace accounting without executing it; zero-active
        emissions are no-ops in the base implementation and are not logged.
        Since payload v3 each entry also carries the emitted value's tape
        ordinal (-1 when the emission has no register result, e.g. stores
        and branches) and the emission weight — the site schedule the
        batched evaluator (:mod:`repro.faultsim.batch`) indexes to map a
        plan's target instance back to a value without executing anything.
        """
        log = self._rc_log
        if log is not None:
            n = self._active_count * weight
            if n > 0:
                ordinal = -1 if result is None else self._rc_ordinals.get(id(result), -1)
                log.append(
                    (op, n, n if self.warp_lanes else n / self._warp_size, ordinal, weight)
                )
        return KernelContext._emit(self, op, result, weight)

    def _rc_state(self) -> tuple:
        """Post-call scalar counter state (tape layout, 9 fields).

        Golden forwarding *sets* these after serving a call — exact by
        construction, no re-accumulation — so the layout pairs with
        :meth:`ReplayContext._fs_sync`.  Fields 7/8 hold the batched
        activity accumulators.
        """
        trace = self._trace
        return (
            self.tick,
            self._vreg_counter,
            trace.global_bytes,
            trace.shared_bytes,
            trace.barriers,
            trace.host_syncs,
            self._arith_since_deadcode,
            self._act_acc,
            self._launch_acc,
        )

    def _rc_maybe_snapshot(self) -> None:
        """Checkpoint at a depth-0 call entry once a threshold is crossed.

        Multiple thresholds crossed by one long emission batch merge into a
        single snapshot (they would be byte-identical anyway).
        """
        thresholds = self._rc_thresholds
        i = self._rc_tidx
        if i >= len(thresholds) or self.tick < thresholds[i]:
            return
        while i < len(thresholds) and self.tick >= thresholds[i]:
            i += 1
        self._rc_tidx = i
        self._rc_snapshots.append(self._rc_capture_state())

    def _rc_capture_state(self) -> SimSnapshot:
        buffers = []
        for buf in self.pool.buffers:
            frozen = buf.data.copy()
            frozen.setflags(write=False)
            buffers.append((buf.name, frozen))
        mask_stack = []
        for mask in self._mask_stack:
            frozen = mask.copy()
            frozen.setflags(write=False)
            mask_stack.append(frozen)
        ring = []
        for slot in range(_REGISTER_TABLE_CAP):
            val = self._reg_ring[slot]
            if val is None:
                continue
            ordinal = self._rc_ordinals.get(id(val))
            if ordinal is None:
                raise CaptureError(f"live register without tape ordinal (vreg {val.vreg})")
            ring.append((slot, ordinal))
        trace = self._trace
        if trace.instances or trace.issues or trace.launched_lane_sum:
            # the kernel read ctx.trace before this boundary; snapshots
            # restore only the batched accumulators, so refuse to capture
            # (the session then runs every injection vanilla)
            raise CaptureError("trace flushed before a snapshot boundary")
        # cumulative per-op counts, read from the accumulators WITHOUT
        # flushing (a flush would reorder Counter insertion relative to the
        # vanilla once-per-run flush)
        inst = self._inst_acc
        cum_ops = {op: float(inst[op.op_index]) for op in self._touched}
        return SimSnapshot(
            call_index=len(self._rc_calls),
            tick=self.tick,
            vreg_counter=self._vreg_counter,
            arith_since_deadcode=self._arith_since_deadcode,
            buffers=buffers,
            mask_stack=mask_stack,
            ring=ring,
            global_bytes=trace.global_bytes,
            shared_bytes=trace.shared_bytes,
            barriers=trace.barriers,
            host_syncs=trace.host_syncs,
            inst_acc=list(self._inst_acc),
            issue_acc=list(self._issue_acc),
            touched=list(self._touched),
            act_acc=self._act_acc,
            launch_acc=self._launch_acc,
            cum_ops=cum_ops,
            cum_addr=self._rc_cum_addr,
        )

    def _rc_encode(self, ret: Any) -> tuple:
        """Encode a call's return value as a tape spec."""
        if ret is None:
            return _RET_NONE
        if type(ret) is Val:
            ordinal = self._rc_ordinals.get(id(ret))
            if ordinal is not None:
                return ("v", ordinal)
            # register-free constant (ctx.const): keep the Val itself
            index = len(self._rc_consts)
            self._rc_consts.append(ret)
            return ("c", index)
        if isinstance(ret, SharedBuffer):
            return ("b", ret.name, "shared", ret.data.shape, ret.dtype)
        if isinstance(ret, DeviceBuffer):
            return ("b", ret.name, "global", ret.data.shape, ret.dtype)
        if isinstance(ret, np.ndarray):
            frozen = ret.copy()
            frozen.setflags(write=False)
            index = len(self._rc_arrays)
            self._rc_arrays.append(frozen)
            return ("h", index)
        if isinstance(ret, (bool, int, float, str)):
            return ("s", ret)
        raise CaptureError(f"cannot record return of type {type(ret).__name__}")

    def _rc_encode_args(self, args: tuple, kwargs: dict) -> Optional[tuple]:
        """Encode a call's arguments as a tape spec (payload v3).

        The batched evaluator walks these specs to propagate fault dirtiness
        through the golden call stream without executing it.  Encoding is
        best-effort: anything it cannot name precisely becomes an opaque
        ``("x",)`` entry, and kwargs collapse the whole spec to None — the
        evaluator treats either as "cannot analyze" and falls back to real
        execution for affected injections, never to a wrong answer.
        """
        if kwargs:
            return None
        spec = []
        for a in args:
            cls = type(a)
            if cls is Val:
                ordinal = self._rc_ordinals.get(id(a))
                if ordinal is not None:
                    spec.append(("v", ordinal))
                else:
                    index = len(self._rc_consts)
                    self._rc_consts.append(a)
                    spec.append(("c", index))
            elif cls is DeviceBuffer or cls is SharedBuffer:
                spec.append(("b", a.name))
            elif isinstance(a, (bool, int, float, str)):
                spec.append(("s", a))
            else:
                spec.append(("x",))
        return tuple(spec)

    def range(self, count: int, unroll: int = 1):
        """Recording version of :meth:`KernelContext.range`.

        Replicates the base generator exactly (same emissions, same shared
        loop-counter reuse) while inserting a snapshot opportunity and a
        ``__step__`` tape marker per bookkeeping step.
        """
        if count < 0:
            raise SimulationError("loop count cannot be negative")
        step = max(1, unroll) if self.backend == "cuda10" else 1
        for i in range(count):
            if i % step == 0:
                self._rc_maybe_snapshot()
                log: List[tuple] = []
                self._rc_log = log
                self._emit(OpClass.IADD, self._loop_counter_val(i))
                self._emit(OpClass.BRA, None)
                self._rc_log = None
                self._rc_calls.append((_STEP, _RET_NONE, tuple(log), self._rc_state(), ()))
            yield i

    def finish(self) -> ReplayTape:
        """Freeze recorded data and package the tape.

        Freezing makes every array the tape shares with replayed runs
        read-only; :class:`~repro.sim.values.Val` copies on write, so later
        strikes on restored registers cannot corrupt the tape.
        """
        for val in self._rc_newvals:
            val.data.setflags(write=False)
        for val in self._rc_consts:
            val.data.setflags(write=False)
        return ReplayTape(
            calls=self._rc_calls,
            newvals=self._rc_newvals,
            consts=self._rc_consts,
            arrays=self._rc_arrays,
            snapshots=self._rc_snapshots,
            final_tick=self.tick,
        )


def _make_recording_method(name: str, base_fn, is_ldst: bool):
    def method(self, *args, **kwargs):
        if self._rc_depth:  # nested DSL call (div → mul, mad → fma): no tape entry
            return base_fn(self, *args, **kwargs)
        self._rc_maybe_snapshot()
        if is_ldst:
            # mirrors _maybe_corrupt_address's claim of one ADDRESS-stream
            # instance per active lane, counted whether or not a plan is
            # armed (recording never arms one)
            self._rc_cum_addr += self._active_count
        self._rc_depth = 1
        log: list = []
        self._rc_log = log
        try:
            ret = base_fn(self, *args, **kwargs)
        finally:
            self._rc_depth = 0
            self._rc_log = None
        self._rc_calls.append(
            (name, self._rc_encode(ret), tuple(log), self._rc_state(),
             self._rc_encode_args(args, kwargs))
        )
        return ret

    method.__name__ = name
    method.__qualname__ = f"RecordingContext.{name}"
    return method


for _name in _TAPED:
    setattr(
        RecordingContext,
        _name,
        _make_recording_method(_name, getattr(KernelContext, _name), _name in _LDST),
    )


# ------------------------------------------------------------------- replay
class ReplayContext(KernelContext):
    """A KernelContext that skips the tape prefix, then runs live.

    Until ``restore_at`` tape calls have been consumed, every DSL call
    returns its recorded value without computing.  At call ``restore_at``
    the snapshot is restored, faults are armed, and the call — plus the
    whole suffix — executes through the unmodified base implementation.
    """

    def __init__(
        self,
        *args,
        tape: ReplayTape,
        restore_at: int,
        snapshot: SimSnapshot,
        plan: Optional[InjectionPlan] = None,
        strikes: Sequence[StorageStrike] = (),
        stream_preset: float = 0.0,
        **kwargs,
    ) -> None:
        self._rp_live = False
        self._rp_idx = 0
        self._rp_depth = 0
        # golden forwarding: ids of Vals the fault cone reached, names of
        # buffers it wrote, and the current tracking/serving/broken mode
        self._fs_dirty: set = set()
        self._fs_dirty_bufs: set = set()
        self._fs_mode = _FS_TRACKING
        super().__init__(*args, **kwargs)
        self._rp_tape = tape
        self._rp_restore_at = restore_at
        self._rp_snapshot = snapshot
        self._rp_plan = plan
        self._rp_strikes = list(strikes)
        self._rp_preset = stream_preset
        self._rp_vals: Dict[int, Val] = {}
        if restore_at <= 0:  # the kernel's start: arm as run_kernel does
            self._rp_arm()
            self._rp_live = True
        elif plan is not None:
            # vanilla run_kernel arms before the kernel body runs, so kernels
            # may introspect ``ctx.plan`` from their first statement (the
            # chaos suite's crashing workloads do).  Expose the attribute as
            # a preview; the real arming — coverage table, stream preset —
            # happens at the restore point (see _rp_arm).
            self.plan = plan

    # -- skip machinery -----------------------------------------------------
    def _rp_skip(self, name: str):
        tape = self._rp_tape
        idx = self._rp_idx
        if idx >= len(tape.calls):
            raise ReplayError(f"replay ran past the tape at call {idx} ({name})")
        entry = tape.calls[idx]
        if entry[0] != name:
            raise ReplayError(
                f"replay diverged at call {idx}: recorded {entry[0]!r}, got {name!r}"
            )
        self._rp_idx = idx + 1
        return self._rp_value(entry[1])

    def _rp_value(self, spec: tuple):
        """Materialize a recorded return spec (registers most common)."""
        kind = spec[0]
        if kind == "v":
            return self._rp_val(spec[1])
        if kind == "n":
            return None
        if kind == "c":
            const = self._rp_tape.consts[spec[1]]
            return Val(const.data, const.dtype, const.vreg)
        if kind == "b":
            _, bname, space, shape, dtype = spec
            data = np.empty(shape, dtype=dtype.np_dtype)
            buf = (SharedBuffer if space == "shared" else DeviceBuffer)(
                bname, data, dtype
            )
            return self.pool.register(buf)
        if kind == "h":
            return self._rp_tape.arrays[spec[1]].copy()
        if kind == "s":
            return spec[1]
        raise ReplayError(f"unknown tape spec {spec!r}")  # pragma: no cover

    def _rp_val(self, ordinal: int) -> Val:
        """Materialize a recorded register, memoized per replay.

        The memo preserves aliasing: the kernel's variable and the restored
        ring slot resolve to the *same* Val object, so an RF strike on the
        ring is observed by the kernel exactly as in a vanilla run.  The
        fresh wrapper shares the tape's frozen data — a strike triggers
        Val's copy-on-write, leaving the tape untouched.
        """
        got = self._rp_vals.get(ordinal)
        if got is None:
            recorded = self._rp_tape.newvals[ordinal]
            got = Val(recorded.data, recorded.dtype, recorded.vreg)
            self._rp_vals[ordinal] = got
        return got

    def _rp_go_live(self) -> None:
        """Restore the snapshot into this context and arm the faults."""
        snap = self._rp_snapshot
        for name, frozen in snap.buffers:
            np.copyto(self.pool.get(name).data, frozen)
        self._mask_stack = list(snap.mask_stack)
        self._refresh_mask_cache()
        self.tick = snap.tick
        self._vreg_counter = snap.vreg_counter
        self._arith_since_deadcode = snap.arith_since_deadcode
        ring: List[Optional[Val]] = [None] * _REGISTER_TABLE_CAP
        for slot, ordinal in snap.ring:
            ring[slot] = self._rp_val(ordinal)
        self._reg_ring = ring
        trace = self._trace
        trace.global_bytes = snap.global_bytes
        trace.shared_bytes = snap.shared_bytes
        trace.barriers = snap.barriers
        trace.host_syncs = snap.host_syncs
        self._inst_acc = list(snap.inst_acc)
        self._issue_acc = list(snap.issue_acc)
        self._touched = list(snap.touched)
        flags = bytearray(OP_COUNT)
        for op in self._touched:
            flags[op.op_index] = 1
        self._touched_flags = flags
        self._act_acc = snap.act_acc
        self._launch_acc = snap.launch_acc
        self._rp_arm()
        self._rp_live = True
        self._fs_check_ready()

    def _rp_arm(self) -> None:
        plan = self._rp_plan
        if plan is not None:
            self.plan = None  # drop the introspection preview; arm() re-sets it
            self.arm(plan)
            # the skipped prefix would have advanced the sampling stream by
            # exactly this much (cum_ops/cum_addr at the boundary)
            plan.stream_count = self._rp_preset
        for strike in self._rp_strikes:
            self.schedule_strike(strike)

    # -- golden forwarding ----------------------------------------------------
    # Everything below implements forward-slice replay for the live suffix:
    # the bit-identical contract still holds because a call is only ever
    # served when (a) no future fault event can occur, (b) its arguments are
    # provably untouched by the fault cone, and (c) the mask stack still
    # equals the golden run's — under which the base implementation would
    # compute exactly the taped value with exactly the logged trace effects.
    # Any doubt (tape misalignment, a dirty host-visible value, a dirty mask
    # predicate) degrades to plain live execution, never to a wrong answer.

    def _pick_register(self, rng):
        # called exactly when a control fault or RF strike corrupts a live
        # register: whatever it picks joins the dirty cone
        val = KernelContext._pick_register(self, rng)
        if val is not None:
            self._fs_dirty.add(id(val))
        return val

    def _apply_fault_model(self, plan, val, lane, element) -> None:
        self._fs_dirty.add(id(val))
        KernelContext._apply_fault_model(self, plan, val, lane, element)

    def _wild_store(self, byte_addr: int, rng_like: int) -> None:
        # the victim word may sit in any global plane, not only the store's
        # own buffer argument: later clean reads of it must not be served
        victim = self.pool.wild_store(byte_addr, rng_like)
        if victim is not None:
            self._fs_dirty_bufs.add(victim.name)

    def _fs_check_ready(self) -> None:
        """Switch to serving once no further fault event can occur."""
        plan = self._rp_plan
        if plan is not None and not plan.fired and plan.stream_count <= plan.target_index:
            return  # the plan can still fire on a later emission
        if self._next_strike_tick != math.inf:
            return  # a scheduled strike has not landed yet
        if self._rp_tape.final_tick > self._watchdog:
            # the golden tail would cross the watchdog: only live emission
            # raises the timeout at the right instruction, so never serve
            self._fs_mode = _FS_BROKEN
            return
        self._fs_mode = _FS_SERVING
        if any(s.space != "rf" for s in self._rp_strikes):
            # memory strikes corrupt a plane chosen inside the pool; be
            # conservative and treat every plane as fault-touched
            for buf in self.pool.buffers:
                self._fs_dirty_bufs.add(buf.name)

    def _fs_call(self, name, base_fn, live_only, breaker, writer, args, kwargs):
        """One live-phase DSL call: serve it from the tape or execute it.

        Also the bookkeeping spine of the live phase — it keeps the tape
        cursor aligned with the call stream and propagates fault dirtiness
        through values and buffers, in every mode short of broken.
        """
        calls = self._rp_tape.calls
        idx = self._rp_idx
        if idx >= len(calls) or calls[idx][0] != name:
            # the kernel's call sequence left the tape (possible only after
            # a dirty host-visible value steered Python control flow, or on
            # a watchdog shorter than the golden run): abandon forwarding
            self._fs_mode = _FS_BROKEN
            return base_fn(self, *args, **kwargs)
        entry = calls[idx]
        dirty = self._fs_dirty
        is_dirty = False
        for a in args:
            cls = type(a)
            if cls is Val:
                if id(a) in dirty:
                    is_dirty = True
                    break
            elif cls is DeviceBuffer or cls is SharedBuffer:
                if a.name in self._fs_dirty_bufs:
                    is_dirty = True
                    break
        if not is_dirty and kwargs:
            for a in kwargs.values():
                cls = type(a)
                if cls is Val:
                    if id(a) in dirty:
                        is_dirty = True
                        break
                elif cls is DeviceBuffer or cls is SharedBuffer:
                    if a.name in self._fs_dirty_bufs:
                        is_dirty = True
                        break
        if not is_dirty and not live_only and self._fs_mode == _FS_SERVING:
            self._rp_idx = idx + 1
            self._fs_sync(entry)
            return self._rp_value(entry[1])
        # execute live, keeping alignment and tracking the fault cone
        self._rp_idx = idx + 1
        plan = self._rp_plan
        fired_before = True if plan is None else plan.fired
        self._rp_depth = 1
        try:
            ret = base_fn(self, *args, **kwargs)
        finally:
            self._rp_depth = 0
        if not fired_before and plan.fired:
            # the fault landed inside this call (covers ADDRESS-mode
            # corruption, which rewrites an effective address rather than a
            # register the hooks above would see)
            is_dirty = True
        if is_dirty:
            if type(ret) is Val:
                dirty.add(id(ret))
            if writer:
                for a in args:
                    cls = type(a)
                    if cls is DeviceBuffer or cls is SharedBuffer:
                        self._fs_dirty_bufs.add(a.name)
            if breaker:
                # a dirty value reached host Python (or the mask stack):
                # subsequent control flow may diverge from the tape
                self._fs_mode = _FS_BROKEN
                return ret
        if self._fs_mode == _FS_TRACKING:
            self._fs_check_ready()
        return ret

    def _fs_sync(self, entry) -> None:
        """Replicate a served call's trace side effects exactly.

        Per-class accounting replays the call's emission log (preserving
        first-touch flush order); scalar counters are *set* to the recorded
        post-call values — bit-identical by construction, since the live
        trajectory up to this call equals the golden one.
        """
        trace = self._trace
        emits = entry[2]
        if emits:
            inst = self._inst_acc
            issue_acc = self._issue_acc
            flags = self._touched_flags
            for op, n, issue, _ordinal, _weight in emits:
                index = op.op_index
                if not flags[index]:
                    flags[index] = 1
                    self._touched.append(op)
                inst[index] += n
                issue_acc[index] += issue
        state = entry[3]
        self.tick = state[0]
        self._vreg_counter = state[1]
        trace.global_bytes = state[2]
        trace.shared_bytes = state[3]
        trace.barriers = state[4]
        trace.host_syncs = state[5]
        self._arith_since_deadcode = state[6]
        self._act_acc = state[7]
        self._launch_acc = state[8]

    # -- range: per-iteration mode check (the generator spans the crossover)
    def range(self, count: int, unroll: int = 1):
        if count < 0:
            raise SimulationError("loop count cannot be negative")
        step = max(1, unroll) if self.backend == "cuda10" else 1
        for i in range(count):
            if i % step == 0:
                if self._rp_live:
                    self._fs_step(i)
                elif self._rp_idx == self._rp_restore_at:
                    self._rp_go_live()
                    self._fs_step(i)
                else:
                    self._rp_skip(_STEP)
            yield i

    def _fs_step(self, i: int) -> None:
        """Live loop bookkeeping, served from the tape when possible.

        The step's counter register is dead on arrival and its two
        emissions are input-independent, so while forwarding is healthy the
        whole step is a pure counter sync; corruption hooks still see any
        plan that fires on the live-executed IADD/BRA."""
        mode = self._fs_mode
        if mode == _FS_BROKEN:
            self._rp_step(i)
            return
        calls = self._rp_tape.calls
        idx = self._rp_idx
        if idx >= len(calls) or calls[idx][0] != _STEP:
            self._fs_mode = _FS_BROKEN
            self._rp_step(i)
            return
        self._rp_idx = idx + 1
        if mode == _FS_SERVING:
            self._fs_sync(calls[idx])
            return
        self._rp_step(i)
        self._fs_check_ready()

    def _rp_step(self, i: int) -> None:
        """Live loop bookkeeping, identical to the base generator's body."""
        self._emit(OpClass.IADD, self._loop_counter_val(i))
        self._emit(OpClass.BRA, None)


def _make_replay_method(name: str, base_fn):
    live_only = name in _FS_LIVE_ONLY
    breaker = name in _FS_BREAKERS
    writer = name in _FS_WRITERS

    def method(self, *args, **kwargs):
        if self._rp_live:
            if self._rp_depth or self._fs_mode == _FS_BROKEN:
                # nested DSL call (div → mul) — the tape has no entry for
                # it — or forwarding already abandoned: plain execution
                return base_fn(self, *args, **kwargs)
            return self._fs_call(name, base_fn, live_only, breaker, writer, args, kwargs)
        if self._rp_idx == self._rp_restore_at:
            self._rp_go_live()
            return self._fs_call(name, base_fn, live_only, breaker, writer, args, kwargs)
        return self._rp_skip(name)

    method.__name__ = name
    method.__qualname__ = f"ReplayContext.{name}"
    return method


for _name in _TAPED:
    setattr(ReplayContext, _name, _make_replay_method(_name, getattr(KernelContext, _name)))


# ------------------------------------------------------------------ session
def _rng_states(plan: Optional[InjectionPlan], strikes: Sequence[StorageStrike]):
    """Snapshot the bit-generator states of every fault RNG (deduplicated —
    campaign plans and strikes may share one generator)."""
    rngs: list = []
    seen: set = set()
    candidates = ([plan.rng] if plan is not None else []) + [s.rng for s in strikes]
    for rng in candidates:
        if id(rng) not in seen:
            seen.add(id(rng))
            rngs.append(rng)
    return [(rng, copy.deepcopy(rng.bit_generator.state)) for rng in rngs]


def _restore_rng_states(saved) -> None:
    for rng, state in saved:
        rng.bit_generator.state = copy.deepcopy(state)


#: the kernel's start: boundary zero, below every fault site.  A replay
#: from it skips and restores nothing (:class:`ReplayContext` arms the
#: faults before the first call), so only its call index and its zero
#: stream cursors are read
_KERNEL_START = SimSnapshot(
    call_index=0, tick=0.0, vreg_counter=0, arith_since_deadcode=0,
    buffers=[], mask_stack=[], ring=[],
    global_bytes=0, shared_bytes=0, barriers=0, host_syncs=0,
    inst_acc=[], issue_acc=[], touched=[], act_acc=0.0, launch_acc=0.0,
    cum_ops={}, cum_addr=0.0,
)


def _reset_faults(plan: Optional[InjectionPlan], strikes: Sequence[StorageStrike]) -> None:
    """Return plan/strikes to their pre-run condition for a vanilla rerun."""
    if plan is not None:
        plan.fired = False
        plan.stream_count = 0.0
        plan.record = FiredRecord()
    for strike in strikes:
        strike.applied = False


class ReplaySession:
    """Capture-once, replay-many driver for one (kernel, launch, ecc) tuple.

    Engines construct one session per workload configuration, then call
    :meth:`run` instead of :func:`run_kernel` for each faulty execution.
    Every run replays from the nearest boundary below its fault sites —
    the kernel's start when no snapshot qualifies.  The session runs
    vanilla only without a tape (the capture failed) or when a replay
    breaks its contract, restoring fault RNG states first, so the fallback
    run is bit-identical to a never-attempted replay.  ``expected_ticks``
    is the golden run's tick count, which places the snapshots.
    """

    def __init__(
        self,
        device: DeviceSpec,
        kernel,
        launch: LaunchConfig,
        ecc: EccMode = EccMode.ON,
        backend: str = "cuda10",
        snapshots_per_run: int = 16,
        *,
        expected_ticks: float,
    ) -> None:
        self.device = device
        self.kernel = kernel
        self.launch = launch
        self.ecc = ecc
        self.backend = backend
        self.snapshots_per_run = max(1, int(snapshots_per_run))
        self._expected_ticks = expected_ticks
        self._tape: Optional[ReplayTape] = None
        self._failed = False
        self._preset_cache: Dict[tuple, float] = {}
        self.stats = {"captures": 0, "replays": 0, "vanilla": 0, "fallbacks": 0}

    # -- capture ------------------------------------------------------------
    def _thresholds(self) -> Tuple[float, ...]:
        """K evenly-spaced snapshot ticks over the golden run."""
        total = float(self._expected_ticks)
        if total <= 0:
            return ()
        k = self.snapshots_per_run
        return tuple(total * (j + 1) / (k + 1) for j in range(k))

    def _capture(self, thresholds: Sequence[float]) -> ReplayTape:
        ctx = RecordingContext(
            self.device,
            self.launch.grid_blocks,
            self.launch.threads_per_block,
            SecdedModel(mode=self.ecc),
            backend=self.backend,
            warp_lanes=self.launch.warp_lanes,
            thresholds=thresholds,
        )
        with np.errstate(all="ignore"):
            outputs = self.kernel(ctx)
        if not isinstance(outputs, dict):
            raise ConfigurationError("kernels must return a dict of named outputs")
        return ctx.finish()

    def ensure_capture(self) -> None:
        """Record the tape once; any failure disables replay permanently
        (the session keeps working through the vanilla path)."""
        if self._tape is not None or self._failed:
            return
        try:
            self._tape = self._capture(self._thresholds())
            self.stats["captures"] += 1
        except Exception:
            self._failed = True

    # -- boundary selection ---------------------------------------------------
    def _preset(self, snap: SimSnapshot, plan: InjectionPlan) -> float:
        """OUTPUT_VALUE stream count the skipped prefix would accumulate."""
        key = (snap.call_index, plan.stream)
        got = self._preset_cache.get(key)
        if got is None:
            got = 0.0
            for op, count in snap.cum_ops.items():
                if plan.covers(op):
                    got += count
            self._preset_cache[key] = got
        return got

    def _select(
        self,
        plan: Optional[InjectionPlan],
        strikes: Sequence[StorageStrike],
        watchdog_limit: Optional[float],
    ) -> SimSnapshot:
        """Latest snapshot strictly before every fault site, else the
        kernel's start.

        Strikes apply at the first emission where ``tick >= strike.tick``,
        so the boundary tick must be strictly below the earliest strike; a
        plan must not have fired in the skipped prefix, i.e. the prefix
        stream count must not exceed the target index.  All conditions are
        monotone in tick, so scan until the first violation.
        """
        earliest_strike = min((s.tick for s in strikes), default=math.inf)
        best = _KERNEL_START
        for snap in self._tape.snapshots:
            if snap.tick >= earliest_strike:
                break
            if watchdog_limit is not None and snap.tick > watchdog_limit:
                break
            if plan is not None:
                if plan.mode is InjectionMode.ADDRESS:
                    if snap.cum_addr > plan.target_index:
                        break
                elif plan.mode is InjectionMode.OUTPUT_VALUE:
                    if self._preset(snap, plan) > plan.target_index:
                        break
            best = snap
        return best

    # -- execution ------------------------------------------------------------
    def run(
        self,
        plan: Optional[InjectionPlan] = None,
        strikes: Sequence[StorageStrike] = (),
        watchdog_limit: Optional[float] = None,
    ) -> KernelRun:
        """Execute one (possibly faulty) run from its nearest boundary."""
        self.ensure_capture()
        strikes = list(strikes)
        if self._tape is None:
            self.stats["vanilla"] += 1
            return self._vanilla(plan, strikes, watchdog_limit)
        boundary = self._select(plan, strikes, watchdog_limit)
        saved = _rng_states(plan, strikes)
        try:
            run = self._replay(boundary, plan, strikes, watchdog_limit)
        except GpuDeviceException:
            # a legitimate simulated DUE — exactly what a vanilla run would
            # raise (and like it, before any telemetry tail is emitted)
            self.stats["replays"] += 1
            raise
        except Exception:
            # anything else means replay broke its contract: restore the
            # fault RNGs and plan state, then rerun through the vanilla path
            self.stats["fallbacks"] += 1
            _restore_rng_states(saved)
            _reset_faults(plan, strikes)
            return self._vanilla(plan, strikes, watchdog_limit)
        self.stats["replays"] += 1
        return run

    def _vanilla(self, plan, strikes, watchdog_limit) -> KernelRun:
        return run_kernel(
            self.device,
            self.kernel,
            self.launch,
            ecc=self.ecc,
            backend=self.backend,
            plan=plan,
            strikes=strikes,
            watchdog_limit=watchdog_limit,
        )

    def _replay(self, boundary, plan, strikes, watchdog_limit) -> KernelRun:
        preset = 0.0
        if plan is not None:
            if plan.mode is InjectionMode.ADDRESS:
                preset = boundary.cum_addr
            else:
                preset = self._preset(boundary, plan)
        ctx = ReplayContext(
            self.device,
            self.launch.grid_blocks,
            self.launch.threads_per_block,
            SecdedModel(mode=self.ecc),
            backend=self.backend,
            warp_lanes=self.launch.warp_lanes,
            watchdog_limit=watchdog_limit,
            tape=self._tape,
            restore_at=boundary.call_index,
            snapshot=boundary,
            plan=plan,
            strikes=strikes,
            stream_preset=preset,
        )
        with np.errstate(all="ignore"):
            outputs = self.kernel(ctx)
        if not ctx._rp_live:
            raise ReplayError("restore point was never reached")
        if not isinstance(outputs, dict):
            raise ConfigurationError("kernels must return a dict of named outputs")
        trace = ctx.trace  # flushes batched accounting, as run_kernel does
        count_run_telemetry(trace)
        return KernelRun(outputs=outputs, trace=trace, ticks=ctx.tick, context=ctx)

    # -- store integration ------------------------------------------------------
    def export_state(self) -> Optional[dict]:
        """Picklable payload for the content-addressed store (or None)."""
        if self._tape is None:
            return None
        tape = self._tape
        return {
            # version 3: emission-log entries carry result ordinals and
            # weights, and call entries carry argument specs (the batched
            # evaluator's site schedule); older payloads are re-captured
            "version": 3,
            # every tape is recorded with batched trace accounting
            "fast": True,
            "final_tick": tape.final_tick,
            "expected_ticks": self._expected_ticks,
            "calls": tape.calls,
            "newvals": tape.newvals,
            "consts": tape.consts,
            "arrays": tape.arrays,
            "snapshots": tape.snapshots,
        }

    def import_state(self, payload) -> bool:
        """Adopt a previously exported tape; False (and no change) on any
        mismatch — unpickled arrays come back writable, so everything the
        tape shares with replays is re-frozen here.  Every snapshot in the
        payload is a boundary, including those an older session mined at
        fault sites (its ``extra_ticks`` field is ignored)."""
        try:
            if not isinstance(payload, dict) or payload.get("version") != 3:
                return False
            if payload["fast"] is not True:
                # recorded by the per-emit simulator path, since removed: its
                # snapshots carry no batched accumulators, so re-capture
                return False
            tape = ReplayTape(
                calls=payload["calls"],
                newvals=payload["newvals"],
                consts=payload["consts"],
                arrays=payload["arrays"],
                snapshots=payload["snapshots"],
                final_tick=float(payload["final_tick"]),
            )
            for val in tape.newvals:
                val.data.setflags(write=False)
            for val in tape.consts:
                val.data.setflags(write=False)
            for array in tape.arrays:
                array.setflags(write=False)
            for snap in tape.snapshots:
                for _, data in snap.buffers:
                    data.setflags(write=False)
                for mask in snap.mask_stack:
                    mask.setflags(write=False)
        except Exception:
            return False
        self._tape = tape
        self._failed = False
        self._preset_cache.clear()
        return True


__all__ = [
    "CaptureError",
    "RecordingContext",
    "ReplayContext",
    "ReplayError",
    "ReplaySession",
    "ReplayTape",
    "SimSnapshot",
]
