"""The kernel execution context — a warp-vectorized CUDA-like DSL.

A kernel is a Python function ``kernel(ctx)`` written against this class.
Every operation (``ctx.add``, ``ctx.ld``, ``ctx.fma``...) executes for *all*
launched threads at once as a NumPy lane operation and:

1. computes the functional result,
2. records the instruction in the execution trace (profiling),
3. advances the execution "tick" (the time axis for storage strikes and the
   watchdog), and
4. offers the result to an armed :class:`InjectionPlan` (fault injection).

Divergence is modeled with explicit predication: ``ctx.masked(pred)`` scopes
operations to lanes where ``pred`` holds, as warp-synchronous GPU code does
with predicated execution.  Data-dependent loops use host-side readbacks
(``ctx.read``/``ctx.any``), mirroring host-controlled iteration, plus
:meth:`KernelContext.range` which emits realistic loop-overhead instructions.

Compiler backends
-----------------
``backend="cuda10"`` (default) models a modern NVCC: honors unroll hints,
emits no redundant code.  ``backend="cuda7"`` models the older SASSIFI-era
toolchain: ignores unrolling and emits redundant loads/dead moves and
address recomputations.  Those dead destinations are *real injectable
sites whose corruption is architecturally masked*, which is the mechanism
behind the paper's ~18% SASSIFI-vs-NVBitFI AVF gap (§VI).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator, List, Optional, Union

import numpy as np

from repro.arch.devices import DeviceSpec
from repro.arch.dtypes import DType
from repro.arch.ecc import EccOutcome, SecdedModel
from repro.arch.isa import OP_COUNT, OpClass, arith_op
from repro.common.errors import ConfigurationError, SimulationError
from repro.sim.exceptions import (
    EccDoubleBitError,
    IllegalAddressError,
    WatchdogTimeout,
)
from repro.sim.injection import (
    FaultModel,
    InjectionMode,
    InjectionPlan,
    StorageStrike,
)
from repro.sim.memory import DeviceBuffer, MemoryPool, SharedBuffer
from repro.sim.values import Val, bitcast_random_value

Scalar = Union[int, float]
Operand = Union[Val, int, float]

#: Outcome mixture for corrupted branch instructions (BRA).  Per-lane control
#: flow cannot be re-simulated in a warp-synchronous model, so a corrupted
#: branch is resolved stochastically: reconverged/masked, a wrong-path data
#: effect (modeled as corruption of a random live register, which then
#: propagates mechanistically), or a wild jump (illegal address → DUE).
CONTROL_FAULT_MASKED = 0.40
CONTROL_FAULT_DATA = 0.35
CONTROL_FAULT_DUE = 0.25

#: Live-register table capacity (matches max registers per thread).
_REGISTER_TABLE_CAP = 256

#: unsigned view dtype for the single-reduction global bounds check
_UINT32 = np.dtype(np.uint32)

#: memo of scalar → read-only lane-constant coercions (see ``_coerce``)
_SCALAR_CACHE: dict = {}
_SCALAR_CACHE_LIMIT = 4096

#: cuda7 emits one dead address-recomputation IADD every N arithmetic ops.
_CUDA7_DEADCODE_PERIOD = 6

#: members in definition order, aligned with ``OpClass.op_index``
_OPS = tuple(OpClass)


def _arith_table(kind: str) -> dict:
    table = {}
    for dtype in DType:
        try:
            table[dtype] = arith_op(kind, dtype)
        except ValueError:
            continue  # unsupported pairs keep raising through arith_op
    return table


#: (kind -> dtype -> OpClass) lookup for the hot arithmetic resolvers; a
#: miss falls through to :func:`arith_op` so the error message is unchanged
_ARITH_OPS = {kind: _arith_table(kind) for kind in ("ADD", "MUL", "FMA")}

# Attach the resolved opcodes to the DType members themselves: an attribute
# read beats a dict probe (Enum.__hash__ is a Python-level call) in the
# per-instruction resolvers below.  ``None`` marks unsupported pairs, which
# still raise through arith_op.
for _dtype in DType:
    _dtype._add_op = _ARITH_OPS["ADD"].get(_dtype)
    _dtype._mul_op = _ARITH_OPS["MUL"].get(_dtype)
    _dtype._fma_op = _ARITH_OPS["FMA"].get(_dtype)


class KernelContext:
    """Execution context handed to kernels; see module docstring."""

    def __init__(
        self,
        device: DeviceSpec,
        grid_blocks: int,
        threads_per_block: int,
        ecc: SecdedModel,
        rng: Optional[np.random.Generator] = None,
        backend: str = "cuda10",
        warp_lanes: bool = False,
        watchdog_limit: Optional[float] = None,
    ) -> None:
        if grid_blocks <= 0 or threads_per_block <= 0:
            raise ConfigurationError("grid and block sizes must be positive")
        if backend not in ("cuda7", "cuda10"):
            raise ConfigurationError(f"unknown compiler backend {backend!r}")
        self.device = device
        self.grid_blocks = grid_blocks
        self.threads_per_block = threads_per_block
        self.warp_lanes = warp_lanes
        if warp_lanes:
            if threads_per_block % device.warp_size:
                raise ConfigurationError("warp-lane kernels need whole warps per block")
            self.num_lanes = grid_blocks * threads_per_block // device.warp_size
            self.lanes_per_block = threads_per_block // device.warp_size
        else:
            self.num_lanes = grid_blocks * threads_per_block
            self.lanes_per_block = threads_per_block
        self.backend = backend
        self.ecc = ecc
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.pool = MemoryPool(ecc)

        from repro.sim.trace import ExecutionTrace

        self._trace = ExecutionTrace()
        self.tick: float = 0.0
        self.watchdog_limit = watchdog_limit
        self._watchdog = math.inf if watchdog_limit is None else watchdog_limit

        self._mask_stack: list = [np.ones(self.num_lanes, dtype=bool)]
        self._active_idx: Optional[np.ndarray] = None  # lazily computed
        self._active_count: float = float(self.num_lanes)
        self._all_active: bool = True
        # a warp is occupied if any of its lanes is active (warp-lane
        # launches: every lane is its own warp)
        self._lanes_per_warp = 1 if warp_lanes else min(device.warp_size, self.num_lanes)
        self._total_warps = self.num_lanes / self._lanes_per_warp
        self._active_warps: float = self._total_warps

        self._vreg_counter = 0
        # live-register window: a fixed-size ring over the last
        # _REGISTER_TABLE_CAP virtual registers (slot = vreg % cap), the
        # candidate pool for RF strikes and wrong-path corruption
        self._reg_ring: List[Optional[Val]] = [None] * _REGISTER_TABLE_CAP
        #: shared loop-counter lane array (see :meth:`range`)
        self._loop_counter: Optional[np.ndarray] = None
        self._arith_since_deadcode = 0
        self._deadcode = backend == "cuda7"
        self._warp_size = device.warp_size

        self.plan: Optional[InjectionPlan] = None
        self._strikes: list = []
        self._strike_cursor = 0
        self._next_strike_tick: float = math.inf

        # -- batched trace accounting --------------------------------------
        # Int-indexed per-op accumulators flushed once per run (through the
        # .trace property), in first-touch order, so Counter insertion order
        # — and every order-dependent float sum downstream — is the order
        # in which the kernel first emitted each op class.
        self._inst_acc: List[float] = [0.0] * OP_COUNT
        self._issue_acc: List[float] = [0.0] * OP_COUNT
        self._touched: List[OpClass] = []
        self._touched_flags = bytearray(OP_COUNT)
        self._act_acc: float = 0.0
        self._launch_acc: float = 0.0
        #: per-op coverage of the armed OUTPUT_VALUE plan (None = no plan
        #: offers; entries resolve lazily on first emission of each class)
        self._covers: Optional[List[Optional[bool]]] = None
        self._addr_plan = False
        self._block_of_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ trace
    @property
    def trace(self):
        """The execution trace; flushes any batched accounting."""
        self._flush_trace()
        return self._trace

    def _flush_trace(self) -> None:
        """Drain the per-op accumulators into the trace (idempotent)."""
        trace = self._trace
        if self._touched:
            inst, issue = self._inst_acc, self._issue_acc
            flags = self._touched_flags
            for op in self._touched:
                index = op.op_index
                trace.record(op, inst[index], issue[index])
                inst[index] = 0.0
                issue[index] = 0.0
                flags[index] = 0
            self._touched.clear()
        if self._launch_acc:
            trace.record_activity(self._act_acc, self._launch_acc)
            self._act_acc = 0.0
            self._launch_acc = 0.0
        trace.registers_written = self._vreg_counter
        trace.validate()

    @property
    def _block_of(self) -> np.ndarray:
        """lane → block index map for shared-memory accesses (cached)."""
        if self._block_of_cache is None:
            self._block_of_cache = np.arange(self.num_lanes) // self.lanes_per_block
        return self._block_of_cache

    # ------------------------------------------------------------------ masks
    @property
    def mask(self) -> np.ndarray:
        return self._mask_stack[-1]

    def _refresh_mask_cache(self) -> None:
        mask = self._mask_stack[-1]
        self._active_count = float(mask.sum())
        self._all_active = bool(self._active_count == self.num_lanes)
        self._active_idx = None
        if self._all_active:
            self._active_warps = self._total_warps
        else:
            lpw = self._lanes_per_warp
            full = (self.num_lanes // lpw) * lpw
            warps = float(mask[:full].reshape(-1, lpw).any(axis=1).sum())
            if full < self.num_lanes and mask[full:].any():
                warps += 1.0
            self._active_warps = warps

    def _active_indices(self) -> np.ndarray:
        if self._active_idx is None:
            self._active_idx = np.flatnonzero(self._mask_stack[-1])
        return self._active_idx

    def push_mask(self, pred: Val) -> None:
        if not pred.is_predicate:
            raise SimulationError("push_mask expects a predicate value")
        self._mask_stack.append(self._mask_stack[-1] & pred.data)
        self._refresh_mask_cache()

    def pop_mask(self) -> None:
        if len(self._mask_stack) == 1:
            raise SimulationError("cannot pop the root mask")
        self._mask_stack.pop()
        self._refresh_mask_cache()

    @contextmanager
    def masked(self, pred: Val):
        """Scope operations to lanes where ``pred`` holds."""
        self.push_mask(pred)
        try:
            yield
        finally:
            self.pop_mask()

    # ------------------------------------------------------------- registers
    def _new_val(self, data: np.ndarray, dtype: Optional[DType]) -> Val:
        counter = self._vreg_counter + 1
        self._vreg_counter = counter
        val = Val(data, dtype, counter)
        self._reg_ring[counter % _REGISTER_TABLE_CAP] = val
        # registers_written (== the counter) is synced at trace flush
        return val

    def _pick_register(self, rng: np.random.Generator) -> Optional[Val]:
        """Uniform draw over the live-register window, oldest-first indexed
        (draw ``i`` selects the i-th oldest live vreg, matching the ordered
        insertion table this ring replaced)."""
        counter = self._vreg_counter
        count = min(counter, _REGISTER_TABLE_CAP)
        if count == 0:
            return None
        vreg = counter - count + 1 + int(rng.integers(0, count))
        return self._reg_ring[vreg % _REGISTER_TABLE_CAP]

    # ----------------------------------------------------------------- fault
    def arm(self, plan: InjectionPlan) -> None:
        if self.plan is not None:
            raise ConfigurationError("a plan is already armed (single-fault regime)")
        self.plan = plan
        # Pre-arm table: each emission's offer is an int-indexed load
        # instead of a predicate call chain (covers → stream → writes-reg).
        # Entries fill lazily on first emission of each op class, so a run
        # only ever resolves the handful of classes its kernel emits.
        if plan.mode is InjectionMode.OUTPUT_VALUE and not plan.fired:
            self._covers = [None] * OP_COUNT
        self._addr_plan = plan.mode is InjectionMode.ADDRESS

    def schedule_strike(self, strike: StorageStrike) -> None:
        self._strikes.append(strike)
        self._strikes.sort(key=lambda s: s.tick)
        self._strike_cursor = 0
        self._next_strike_tick = self._strikes[0].tick

    def _apply_due_strikes(self) -> None:
        while self._strike_cursor < len(self._strikes):
            strike = self._strikes[self._strike_cursor]
            if strike.tick > self.tick:
                break
            self._strike_cursor += 1
            if strike.applied:
                continue
            strike.applied = True
            if strike.space == "rf":
                self._strike_register_file(strike.rng)
            else:
                self.pool.strike(strike.rng, space=strike.space)
        self._next_strike_tick = (
            self._strikes[self._strike_cursor].tick
            if self._strike_cursor < len(self._strikes)
            else math.inf
        )

    def _strike_register_file(self, rng: np.random.Generator) -> None:
        outcome = self.ecc.strike(rng)
        if outcome is EccOutcome.DETECTED_DUE:
            raise EccDoubleBitError("register_file")
        if outcome is EccOutcome.CORRECTED:
            return
        val = self._pick_register(rng)
        if val is None:
            return
        lane = int(rng.integers(0, val.lanes))
        tile = int(np.prod(val.tile_shape)) if val.tile_shape else 1
        element = int(rng.integers(0, tile))
        if val.is_predicate:
            val.flip_bit(lane, 0, element)
        else:
            val.flip_bit(lane, int(rng.integers(0, val.dtype.bits)), element)

    def _apply_fault_model(self, plan: InjectionPlan, val: Val, lane: int, element: int) -> None:
        model = plan.fault_model
        if val.is_predicate:
            val.flip_bit(lane, 0, element)
            plan.record.bit = 0
            return
        if model is FaultModel.SINGLE_BIT:
            bit = plan.choose_bit(val.dtype.bits)
            val.flip_bit(lane, bit, element)
            plan.record.bit = bit
        elif model is FaultModel.DOUBLE_BIT:
            first = plan.choose_bit(val.dtype.bits)
            second = (first + 1 + plan.choose_bit(val.dtype.bits - 1)) % val.dtype.bits
            val.flip_bit(lane, first, element)
            val.flip_bit(lane, second, element)
            plan.record.bit = first
        elif model is FaultModel.RANDOM_VALUE:
            val.set_value(lane, bitcast_random_value(val.dtype, plan.rng), element)
        elif model is FaultModel.ZERO_VALUE:
            val.set_value(lane, val.dtype.np_dtype.type(0), element)
        else:  # pragma: no cover - enum exhaustive
            raise ConfigurationError(f"unhandled fault model {model}")

    def _fire_on_output(self, plan: InjectionPlan, op: OpClass, result: Val, offset: float, weight: int) -> None:
        plan.fired = True
        plan.record.op = op
        active = self._active_indices()
        lane = int(active[int(offset) // weight]) if len(active) else 0
        tile = int(np.prod(result.tile_shape)) if result.tile_shape else 1
        if tile > 1:
            element = int(plan.rng.integers(0, tile))
        else:
            element = 0
        plan.record.lane = lane
        plan.record.element = element
        if op is OpClass.BRA:
            self._fire_control_fault(plan, lane)
            return
        self._apply_fault_model(plan, result, lane, element)

    def _fire_control_fault(self, plan: InjectionPlan, lane: int) -> None:
        """Resolve a corrupted branch stochastically (see module constants)."""
        draw = plan.rng.random()
        if draw < CONTROL_FAULT_MASKED:
            plan.record.detail = "control:reconverged"
            return
        if draw < CONTROL_FAULT_MASKED + CONTROL_FAULT_DATA:
            plan.record.detail = "control:wrong_path"
            val = self._pick_register(plan.rng)
            if val is not None:
                tile = int(np.prod(val.tile_shape)) if val.tile_shape else 1
                element = int(plan.rng.integers(0, tile))
                self._apply_fault_model(plan, val, min(lane, val.lanes - 1), element)
            return
        plan.record.detail = "control:wild_jump"
        raise IllegalAddressError("instruction", address=-1, limit=0)

    # ------------------------------------------------------------------ emit
    def _emit(self, op: OpClass, result: Optional[Val] = None, weight: int = 1) -> Optional[Val]:
        n = self._active_count * weight
        if n <= 0:
            return result
        # accumulate trace counts int-indexed (flushed once through
        # .trace), check strikes/watchdog against precomputed thresholds,
        # and offer to the armed plan via the covers table
        index = op.op_index
        inst = self._inst_acc
        if not self._touched_flags[index]:
            self._touched_flags[index] = 1
            self._touched.append(op)
        inst[index] += n
        self._issue_acc[index] += n if self.warp_lanes else n / self._warp_size
        self._act_acc += self._active_warps
        self._launch_acc += self._total_warps
        self.tick += n
        if self.tick >= self._next_strike_tick:
            self._apply_due_strikes()
        if self.tick > self._watchdog:
            raise WatchdogTimeout(int(self.tick), int(self.watchdog_limit))
        covers = self._covers
        if covers is not None:
            covered = covers[index]
            if covered is None:
                covered = covers[index] = self.plan.covers(op)
            if covered:
                plan = self.plan
                start = plan.stream_count
                plan.stream_count = start + n
                if start <= plan.target_index < start + n:
                    self._fire_claimed(
                        plan, op, result, float(plan.target_index - start), weight
                    )
                    if plan.fired:
                        self._covers = None
        return result

    def _fire_claimed(self, plan: InjectionPlan, op: OpClass, result: Optional[Val], offset: float, weight: int) -> None:
        """Fire a claimed OUTPUT_VALUE plan on the emitted instruction."""
        if result is None:
            # stores/branches carry no destination register; branches
            # go through the control-fault model, stores are claimed
            # here but a store's "output" is the memory word, which
            # the ADDRESS mode and MEMORY strikes cover.
            if op is OpClass.BRA:
                plan.fired = True
                plan.record.op = op
                active = self._active_indices()
                lane = int(active[int(offset) // weight]) if len(active) else 0
                self._fire_control_fault(plan, lane)
            return
        self._fire_on_output(plan, op, result, offset, weight)

    def _emit_deadcode_arith(self) -> None:
        """cuda7 backend: periodically emit a dead address recomputation."""
        if not self._deadcode:
            return
        self._arith_since_deadcode += 1
        if self._arith_since_deadcode >= _CUDA7_DEADCODE_PERIOD:
            self._arith_since_deadcode = 0
            dead = self._new_val(
                np.zeros(self.num_lanes, dtype=DType.INT32.np_dtype), DType.INT32
            )
            self._emit(OpClass.IADD, dead)

    # ----------------------------------------------------------- construction
    def const(self, value: Scalar, dtype: DType) -> Val:
        """Immediate operand — free, like a SASS immediate."""
        data = np.full(self.num_lanes, value, dtype=dtype.np_dtype)
        return Val(data, dtype, -1)

    def from_array(self, array: np.ndarray, dtype: DType) -> Val:
        """Wrap a host array (one entry per lane) as a register value."""
        if array.shape[0] != self.num_lanes:
            raise ConfigurationError(
                f"lane axis {array.shape[0]} != launched lanes {self.num_lanes}"
            )
        return self._new_val(np.ascontiguousarray(array, dtype=dtype.np_dtype), dtype)

    def thread_idx(self) -> Val:
        data = (np.arange(self.num_lanes, dtype=np.int32) % self.lanes_per_block)
        return self._emit(OpClass.MOV, self._new_val(data, DType.INT32))

    def block_idx(self) -> Val:
        data = (np.arange(self.num_lanes, dtype=np.int32) // self.lanes_per_block)
        return self._emit(OpClass.MOV, self._new_val(data, DType.INT32))

    def global_id(self) -> Val:
        data = np.arange(self.num_lanes, dtype=np.int32)
        return self._emit(OpClass.MOV, self._new_val(data, DType.INT32))

    # ------------------------------------------------------------- arithmetic
    def _coerce(self, operand: Operand, dtype: DType) -> np.ndarray:
        if type(operand) is Val:
            if operand.dtype is not dtype:
                raise SimulationError(
                    f"operand dtype {operand.dtype} != expected {dtype}; use ctx.cvt"
                )
            return operand.data
        # Kernels re-coerce the same Python constants thousands of times per
        # campaign; memoize the 0-d results read-only (every consumer is a
        # ufunc input, never a mutation target).
        try:
            return _SCALAR_CACHE[(dtype.label, operand)]
        except KeyError:
            array = np.asarray(operand, dtype=dtype.np_dtype)
            array.setflags(write=False)
            if len(_SCALAR_CACHE) < _SCALAR_CACHE_LIMIT:
                _SCALAR_CACHE[(dtype.label, operand)] = array
            return array
        except TypeError:  # unhashable operand (e.g. a raw ndarray)
            return np.asarray(operand, dtype=dtype.np_dtype)

    def _dtype_of(self, *operands: Operand) -> DType:
        for operand in operands:
            if type(operand) is Val:
                if operand.dtype is None:
                    raise SimulationError("predicate used as arithmetic operand")
                return operand.dtype
        raise SimulationError("at least one operand must be a Val")

    def _binary(self, kind: str, a: Operand, b: Operand) -> Val:
        dtype = a.dtype if type(a) is Val and a.dtype is not None else self._dtype_of(a, b)
        op = (dtype._add_op if kind == "ADD" else dtype._mul_op) or arith_op(kind, dtype)
        x = a.data if type(a) is Val and a.dtype is dtype else self._coerce(a, dtype)
        y = b.data if type(b) is Val and b.dtype is dtype else self._coerce(b, dtype)
        if kind == "ADD":
            data = x + y
        elif kind == "MUL":
            data = x * y
        else:  # pragma: no cover - guarded by callers
            raise SimulationError(f"unknown binary kind {kind}")
        result = self._new_val(data.astype(dtype.np_dtype, copy=False), dtype)
        if self._deadcode:
            self._emit_deadcode_arith()
        return self._emit(op, result)

    def add(self, a: Operand, b: Operand) -> Val:
        return self._binary("ADD", a, b)

    def sub(self, a: Operand, b: Operand) -> Val:
        dtype = self._dtype_of(a, b)
        x = self._coerce(a, dtype)
        y = self._coerce(b, dtype)
        result = self._new_val((x - y).astype(dtype.np_dtype, copy=False), dtype)
        if self._deadcode:
            self._emit_deadcode_arith()
        return self._emit(dtype._add_op or arith_op("ADD", dtype), result)

    def mul(self, a: Operand, b: Operand) -> Val:
        return self._binary("MUL", a, b)

    def fma(self, a: Operand, b: Operand, c: Operand) -> Val:
        """Fused multiply-add: a*b + c in one instruction (FFMA/DFMA/HFMA
        for floats, IMAD for integers)."""
        dtype = a.dtype if type(a) is Val and a.dtype is not None else self._dtype_of(a, b, c)
        op = dtype._fma_op or arith_op("FMA", dtype)
        x = a.data if type(a) is Val and a.dtype is dtype else self._coerce(a, dtype)
        y = b.data if type(b) is Val and b.dtype is dtype else self._coerce(b, dtype)
        z = c.data if type(c) is Val and c.dtype is dtype else self._coerce(c, dtype)
        # multiply then add at the operand precision (the model's established
        # FMA semantics); the product is a fresh temporary, so the add can
        # reuse it in place instead of allocating a second lane array
        data = np.multiply(x, y)
        if data.shape == z.shape:
            np.add(data, z, out=data)
        else:  # scalar/broadcast addend: let the ufunc allocate the result
            data = data + z
        result = self._new_val(data.astype(dtype.np_dtype, copy=False), dtype)
        if self._deadcode:
            self._emit_deadcode_arith()
        return self._emit(op, result)

    def mad(self, a: Operand, b: Operand, c: Operand) -> Val:
        """Alias for integer multiply-accumulate (IMAD)."""
        return self.fma(a, b, c)

    def div(self, a: Operand, b: Operand) -> Val:
        """Float division: MUFU.RCP followed by a multiply (SASS idiom)."""
        dtype = self._dtype_of(a, b)
        if not dtype.is_float:
            raise SimulationError("integer division: use idiv")
        x = self._coerce(a, dtype)
        y = self._coerce(b, dtype)
        recip = self._new_val((1.0 / y.astype(np.float64)).astype(dtype.np_dtype), dtype)
        self._emit(OpClass.MUFU, recip)
        return self.mul(Val(x, dtype, -1), recip)

    def idiv(self, a: Operand, b: Operand) -> Val:
        """Integer division (SASS expands it to a multi-instruction sequence;
        we charge one MUFU + one IMAD)."""
        dtype = self._dtype_of(a, b)
        x = self._coerce(a, dtype)
        y = self._coerce(b, dtype)
        safe = np.where(y == 0, 1, y)
        data = (x // safe).astype(dtype.np_dtype)
        quotient = self._new_val(data, dtype)
        self._emit(OpClass.MUFU, quotient)
        return self._emit(OpClass.IMAD, quotient)

    def imod(self, a: Operand, b: Operand) -> Val:
        dtype = self._dtype_of(a, b)
        x = self._coerce(a, dtype)
        y = self._coerce(b, dtype)
        safe = np.where(y == 0, 1, y)
        data = (x % safe).astype(dtype.np_dtype)
        result = self._new_val(data, dtype)
        self._emit(OpClass.MUFU, result)
        return self._emit(OpClass.IMAD, result)

    def sqrt(self, a: Operand) -> Val:
        dtype = self._dtype_of(a)
        x = self._coerce(a, dtype)
        data = np.sqrt(np.abs(x.astype(np.float64))).astype(dtype.np_dtype)
        return self._emit(OpClass.MUFU, self._new_val(data, dtype))

    def exp(self, a: Operand) -> Val:
        dtype = self._dtype_of(a)
        x = self._coerce(a, dtype)
        with np.errstate(over="ignore"):
            data = np.exp(x.astype(np.float64)).astype(dtype.np_dtype)
        return self._emit(OpClass.MUFU, self._new_val(data, dtype))

    def neg(self, a: Val) -> Val:
        dtype = self._dtype_of(a)
        return self._emit(OpClass.MOV, self._new_val((-a.data).astype(dtype.np_dtype), dtype))

    def abs(self, a: Val) -> Val:
        dtype = self._dtype_of(a)
        return self._emit(OpClass.MOV, self._new_val(np.abs(a.data), dtype))

    def minimum(self, a: Operand, b: Operand) -> Val:
        dtype = self._dtype_of(a, b)
        x, y = self._coerce(a, dtype), self._coerce(b, dtype)
        op = OpClass.IMNMX if dtype is DType.INT32 else OpClass.SEL
        return self._emit(op, self._new_val(np.minimum(x, y), dtype))

    def maximum(self, a: Operand, b: Operand) -> Val:
        dtype = self._dtype_of(a, b)
        x, y = self._coerce(a, dtype), self._coerce(b, dtype)
        op = OpClass.IMNMX if dtype is DType.INT32 else OpClass.SEL
        return self._emit(op, self._new_val(np.maximum(x, y), dtype))

    def bit_and(self, a: Operand, b: Operand) -> Val:
        dtype = self._dtype_of(a, b)
        x, y = self._coerce(a, dtype), self._coerce(b, dtype)
        return self._emit(OpClass.LOP, self._new_val(x & y, dtype))

    def bit_or(self, a: Operand, b: Operand) -> Val:
        dtype = self._dtype_of(a, b)
        x, y = self._coerce(a, dtype), self._coerce(b, dtype)
        return self._emit(OpClass.LOP, self._new_val(x | y, dtype))

    def bit_xor(self, a: Operand, b: Operand) -> Val:
        dtype = self._dtype_of(a, b)
        x, y = self._coerce(a, dtype), self._coerce(b, dtype)
        return self._emit(OpClass.LOP, self._new_val(x ^ y, dtype))

    def shl(self, a: Operand, bits: int) -> Val:
        dtype = self._dtype_of(a)
        x = self._coerce(a, dtype)
        return self._emit(OpClass.SHF, self._new_val(x << np.int32(bits), dtype))

    def shr(self, a: Operand, bits: int) -> Val:
        dtype = self._dtype_of(a)
        x = self._coerce(a, dtype)
        return self._emit(OpClass.SHF, self._new_val(x >> np.int32(bits), dtype))

    def mov(self, a: Val) -> Val:
        return self._emit(OpClass.MOV, self._new_val(a.data.copy(), a.dtype))

    def cvt(self, a: Val, dtype: DType) -> Val:
        if a.is_predicate:
            data = a.data.astype(dtype.np_dtype)
        else:
            data = a.data.astype(dtype.np_dtype)
        return self._emit(OpClass.CVT, self._new_val(data, dtype))

    # -------------------------------------------------------------- predicates
    _CMP = {
        "lt": np.less,
        "le": np.less_equal,
        "gt": np.greater,
        "ge": np.greater_equal,
        "eq": np.equal,
        "ne": np.not_equal,
    }

    def setp(self, a: Operand, cmp: str, b: Operand) -> Val:
        """Set a predicate register from a comparison."""
        try:
            fn = self._CMP[cmp]
        except KeyError as exc:
            raise SimulationError(f"unknown comparison {cmp!r}") from exc
        dtype = self._dtype_of(a, b)
        x, y = self._coerce(a, dtype), self._coerce(b, dtype)
        result = self._new_val(fn(x, y), None)
        return self._emit(OpClass.SETP, result)

    def pred_and(self, a: Val, b: Val) -> Val:
        if not (a.is_predicate and b.is_predicate):
            raise SimulationError("pred_and expects predicates")
        return self._emit(OpClass.SETP, self._new_val(a.data & b.data, None))

    def pred_or(self, a: Val, b: Val) -> Val:
        if not (a.is_predicate and b.is_predicate):
            raise SimulationError("pred_or expects predicates")
        return self._emit(OpClass.SETP, self._new_val(a.data | b.data, None))

    def pred_not(self, a: Val) -> Val:
        if not a.is_predicate:
            raise SimulationError("pred_not expects a predicate")
        return self._emit(OpClass.SETP, self._new_val(~a.data, None))

    def where(self, pred: Val, a: Operand, b: Operand) -> Val:
        """Predicated select (SEL): lanes take ``a`` where pred else ``b``."""
        if not pred.is_predicate:
            raise SimulationError("where expects a predicate")
        dtype = self._dtype_of(a, b)
        x, y = self._coerce(a, dtype), self._coerce(b, dtype)
        result = self._new_val(np.where(pred.data, x, y).astype(dtype.np_dtype), dtype)
        return self._emit(OpClass.SEL, result)

    # ------------------------------------------------------------------ memory
    def alloc(
        self,
        name: str,
        init: np.ndarray,
        dtype: DType,
    ) -> DeviceBuffer:
        """Allocate + copy-in a global buffer (cudaMalloc + cudaMemcpy)."""
        np_dtype = dtype.np_dtype
        if (
            isinstance(init, np.ndarray)
            and init.dtype == np_dtype
            and init.flags.c_contiguous
        ):
            # interned/canonical inputs: one copy-in, no convert pass
            data = init.copy()
        else:
            data = np.ascontiguousarray(init, dtype=np_dtype).copy()
        return self.pool.register(DeviceBuffer(name, data, dtype))

    def alloc_zeros(self, name: str, shape, dtype: DType) -> DeviceBuffer:
        return self.pool.register(
            DeviceBuffer(name, np.zeros(shape, dtype=dtype.np_dtype), dtype)
        )

    def shared_alloc(self, name: str, per_block_shape, dtype: DType) -> SharedBuffer:
        """Allocate per-block shared memory (zeroed)."""
        shape = (self.grid_blocks, *(
            per_block_shape if isinstance(per_block_shape, tuple) else (per_block_shape,)
        ))
        buf = SharedBuffer(name, np.zeros(shape, dtype=dtype.np_dtype), dtype)
        if buf.bytes_per_block > self.device.shared_memory_per_sm:
            raise ConfigurationError(
                f"shared allocation {buf.bytes_per_block}B exceeds per-SM capacity"
            )
        return self.pool.register(buf)

    def _index_array(self, idx: Operand) -> np.ndarray:
        if isinstance(idx, Val):
            if idx.dtype is not DType.INT32:
                raise SimulationError("memory indices must be int32 values")
            return idx.data
        return np.full(self.num_lanes, int(idx), dtype=np.int32)

    def _maybe_corrupt_address(
        self, op: OpClass, idx: np.ndarray, itemsize: int
    ) -> np.ndarray:
        """ADDRESS-mode injection hook: flip a bit of one lane's byte address."""
        plan = self.plan
        if plan is None or plan.fired or plan.mode is not InjectionMode.ADDRESS:
            return idx
        n = self._active_count
        offset = plan.claim(op, n)
        if offset is None:
            return idx
        plan.fired = True
        plan.record.op = op
        active = self._active_indices()
        lane = int(active[int(offset)]) if len(active) else 0
        plan.record.lane = lane
        byte_addr = np.int64(idx[lane]) * itemsize
        # NVIDIA GPUs use a 49-bit unified virtual address space: a flip in
        # any of the upper bits lands far outside every allocation, which is
        # why corrupted addresses are mostly invalid (paper §V-B)
        bit = plan.choose_bit(49)
        plan.record.bit = bit
        corrupted = int(byte_addr) ^ (1 << bit)
        idx = idx.copy()
        # saturate instead of wrapping: a huge address must stay illegal
        new_elem = corrupted // itemsize
        idx[lane] = np.int32(min(new_elem, 2**31 - 1))
        plan.record.detail = f"address:{int(byte_addr)}->{corrupted}"
        return idx

    def _bounds_check(self, buf: DeviceBuffer, idx: np.ndarray, limit: int) -> None:
        mask = self._mask_stack[-1]
        if self._all_active:
            bad = (idx < 0) | (idx >= limit)
        else:
            bad = ((idx < 0) | (idx >= limit)) & mask
        if bad.any():
            lane = int(np.flatnonzero(bad)[0])
            raise IllegalAddressError(
                buf.space, address=int(idx[lane]) * buf.dtype.bytes, limit=buf.nbytes
            )

    def _resolve_global(self, buf: DeviceBuffer, indices: np.ndarray):
        """Mapped-span address resolution for global accesses.

        An index outside the buffer but inside the pool's mapped span hits
        a foreign mapped page (returns/corrupts garbage — SDC territory, as
        on real hardware where allocations are padded to large pages and
        neighbors are mapped); an address beyond the span — e.g. a flipped
        high address bit — raises the illegal-address DUE.

        Returns (gather-safe indices, wild-lane mask or None, byte addrs).
        """
        if self._all_active:
            # common case: every lane in bounds — one scalar reduction
            # instead of three lane-wide boolean passes.  Viewed as uint32,
            # negative indices wrap above 2**31 > elements, so a single max
            # catches both out-of-range directions.
            if int(indices.view(_UINT32).max()) < buf.elements:
                return indices, None, None
        mask = self._mask_stack[-1]
        in_buf = (indices >= 0) & (indices < buf.elements)
        bad = mask & ~in_buf
        if not bad.any():
            return indices, None, None
        byte = indices.astype(np.int64) * buf.dtype.bytes
        span = self.pool.mapped_span_bytes
        fatal = bad & ((byte < 0) | (byte >= span))
        if fatal.any():
            lane = int(np.flatnonzero(fatal)[0])
            raise IllegalAddressError(buf.space, address=int(byte[lane]), limit=buf.nbytes)
        return np.where(bad, 0, indices), bad, byte

    def ld(self, buf: DeviceBuffer, idx: Operand) -> Val:
        """Load one element per lane (LDG for global, LDS for shared)."""
        indices = self._index_array(idx)
        # dedicated fast route: global load, every lane active, no address
        # plan, all indices in bounds — a bare gather with one scalar
        # reduction for the bounds proof (uint32 view: negatives wrap high)
        if (
            self._all_active
            and not self._addr_plan
            and buf.space == "global"
            and int(np.maximum.reduce(indices.view(_UINT32))) < buf.elements
        ):
            dtype = buf.dtype
            data = buf.flat()[indices]
            self._trace.global_bytes += int(self._active_count) * dtype.bytes
            out = self._emit(OpClass.LDG, self._new_val(data, dtype))
            if self._deadcode:
                self._emit(OpClass.MOV, self._new_val(data.copy(), dtype))
            return out
        op = OpClass.LDS if buf.space == "shared" else OpClass.LDG
        if self._addr_plan:
            indices = self._maybe_corrupt_address(op, indices, buf.dtype.bytes)
        mask = self._mask_stack[-1]
        # all lanes active: the mask blends below are identities — skip the
        # lane-wide np.where passes (values are unchanged, so bit-identical)
        all_active = self._all_active
        if buf.space == "shared":
            # a wild shared-memory index wraps within the SM's shared array
            # (shared addressing cannot reach global space, so no DUE)
            wrapped = np.mod(indices, buf.elements_per_block)
            flat = buf.data.reshape(buf.blocks, -1)
            if all_active:
                data = flat[self._block_of, wrapped]
            else:
                data = flat[self._block_of, np.where(mask, wrapped, 0)]
            self._trace.shared_bytes += int(self._active_count) * buf.dtype.bytes
        else:
            safe, wild, byte = self._resolve_global(buf, indices)
            if all_active:
                data = buf.flat()[safe]
            else:
                data = buf.flat()[np.where(mask, safe, 0)]
            if wild is not None:
                garbage = self.pool.wild_read_bits(byte[wild])
                bits = garbage.astype(buf.dtype.np_bits_dtype)
                data = data.copy()
                data[wild] = bits.view(buf.dtype.np_dtype)
            self._trace.global_bytes += int(self._active_count) * buf.dtype.bytes
        if not all_active:
            data = np.where(mask, data, buf.dtype.np_dtype.type(0))
        result = self._new_val(data.astype(buf.dtype.np_dtype, copy=False), buf.dtype)
        out = self._emit(op, result)
        if self._deadcode:
            # older toolchain: un-eliminated register copy of every load
            self._emit(OpClass.MOV, self._new_val(data.copy(), buf.dtype))
        return out

    def _wild_store(self, byte_addr: int, rng_like: int) -> None:
        """One store lane landing on a foreign mapped page (a hook: replay
        tracks the victim plane as fault-touched)."""
        self.pool.wild_store(byte_addr, rng_like)

    def st(self, buf: DeviceBuffer, idx: Operand, val: Val) -> None:
        """Store one element per lane (STG/STS)."""
        if val.dtype is not buf.dtype:
            raise SimulationError(f"store dtype {val.dtype} != buffer {buf.dtype}")
        indices = self._index_array(idx)
        # dedicated fast route, mirroring :meth:`ld`
        if (
            self._all_active
            and not self._addr_plan
            and buf.space == "global"
            and int(np.maximum.reduce(indices.view(_UINT32))) < buf.elements
        ):
            buf.flat()[indices] = val.data
            self._trace.global_bytes += int(self._active_count) * buf.dtype.bytes
            self._emit(OpClass.STG, None)
            return
        op = OpClass.STS if buf.space == "shared" else OpClass.STG
        if self._addr_plan:
            indices = self._maybe_corrupt_address(op, indices, buf.dtype.bytes)
        mask = self._mask_stack[-1]
        all_active = self._all_active
        if buf.space == "shared":
            wrapped = np.mod(indices, buf.elements_per_block)
            flat = buf.data.reshape(buf.blocks, -1)
            if all_active:
                flat[self._block_of, wrapped] = val.data
            else:
                flat[self._block_of[mask], wrapped[mask]] = val.data[mask]
            self._trace.shared_bytes += int(self._active_count) * buf.dtype.bytes
        else:
            safe, wild, byte = self._resolve_global(buf, indices)
            if wild is not None:
                store_mask = mask & ~wild
                for lane in np.flatnonzero(wild):
                    self._wild_store(int(byte[lane]), val.vreg)
                buf.flat()[safe[store_mask]] = val.data[store_mask]
            elif all_active:
                buf.flat()[safe] = val.data
            else:
                buf.flat()[safe[mask]] = val.data[mask]
            self._trace.global_bytes += int(self._active_count) * buf.dtype.bytes
        self._emit(op, None)

    def atomic_add(self, buf: DeviceBuffer, idx: Operand, val: Val) -> None:
        """Atomic add to global memory (ATOM)."""
        if buf.space != "global":
            raise SimulationError("atomics supported on global memory only")
        indices = self._index_array(idx)
        self._bounds_check(buf, indices, buf.elements)
        mask = self._mask_stack[-1]
        np.add.at(buf.flat(), indices[mask], val.data[mask])
        self._trace.global_bytes += int(self._active_count) * buf.dtype.bytes
        self._emit(OpClass.ATOM, None)

    # ------------------------------------------------------------ tensor core
    def ld_tile(self, buf: DeviceBuffer, base: Operand, rows: int, cols: int, row_stride: int) -> Val:
        """Warp-cooperative tile load for MMA kernels (lane == warp).

        Each lane loads a ``rows × cols`` tile starting at its ``base``
        element with the given row stride.  Loads are charged at 128-bit
        vector width, as LDG.128 would issue.
        """
        if not self.warp_lanes:
            raise SimulationError("ld_tile requires a warp-lane launch")
        bases = self._index_array(base)
        offsets = (np.arange(rows)[:, None] * row_stride + np.arange(cols)[None, :]).astype(np.int32)
        indices = bases[:, None, None] + offsets[None, :, :]
        flat_idx = indices.reshape(self.num_lanes, -1)
        self._bounds_check(buf, flat_idx.min(axis=1).astype(np.int32), buf.elements)
        self._bounds_check(buf, flat_idx.max(axis=1).astype(np.int32), buf.elements)
        mask = self._mask_stack[-1]
        safe = np.where(mask[:, None], flat_idx, 0)
        data = buf.flat()[safe].reshape(self.num_lanes, rows, cols)
        data = np.where(mask[:, None, None], data, buf.dtype.np_dtype.type(0))
        self._trace.global_bytes += int(self._active_count) * rows * cols * buf.dtype.bytes
        vector_elems = max(1, 16 // buf.dtype.bytes)
        weight = max(1, (rows * cols) // vector_elems // self.device.warp_size) or 1
        result = self._new_val(data.astype(buf.dtype.np_dtype, copy=False), buf.dtype)
        return self._emit(OpClass.LDG, result, weight=max(1, weight))

    def st_tile(self, buf: DeviceBuffer, base: Operand, val: Val, row_stride: int) -> None:
        """Warp-cooperative tile store (counterpart of :meth:`ld_tile`)."""
        if not self.warp_lanes:
            raise SimulationError("st_tile requires a warp-lane launch")
        rows, cols = val.tile_shape
        bases = self._index_array(base)
        offsets = (np.arange(rows)[:, None] * row_stride + np.arange(cols)[None, :]).astype(np.int32)
        indices = (bases[:, None, None] + offsets[None, :, :]).reshape(self.num_lanes, -1)
        self._bounds_check(buf, indices.min(axis=1).astype(np.int32), buf.elements)
        self._bounds_check(buf, indices.max(axis=1).astype(np.int32), buf.elements)
        mask = self._mask_stack[-1]
        flat = buf.flat()
        flat[indices[mask].ravel()] = val.data[mask].reshape(-1).astype(buf.dtype.np_dtype)
        self._trace.global_bytes += int(self._active_count) * rows * cols * buf.dtype.bytes
        vector_elems = max(1, 16 // buf.dtype.bytes)
        weight = max(1, (rows * cols) // vector_elems // self.device.warp_size)
        self._emit(OpClass.STG, None, weight=weight)

    #: SASS HMMA instructions issued per 16×16×16 warp-level MMA (paper §V-B:
    #: "64 MMA instructions are required to multiply two 16x16 matrices").
    MMA_INSTRUCTIONS_PER_TILE = 64

    def mma(self, a: Val, b: Val, acc: Val) -> Val:
        """Tensor-core matrix-multiply-accumulate on 16×16 tiles.

        ``a``/``b`` are FP16 tiles; ``acc`` decides the class: FP16
        accumulate → HMMA, FP32 accumulate (inputs cast from FP32) → FMMA.
        """
        if not self.warp_lanes:
            raise SimulationError("mma requires a warp-lane launch")
        if not self.device.has_tensor_cores:
            raise ConfigurationError(f"{self.device.name} has no tensor cores")
        if a.dtype is not DType.FP16 or b.dtype is not DType.FP16:
            raise SimulationError("mma inputs must be FP16 tiles")
        if a.tile_shape != (16, 16) or b.tile_shape != (16, 16):
            raise SimulationError("mma operates on 16x16 tiles")
        from repro.arch.isa import mma_op

        op = mma_op(acc.dtype)
        # Tensor cores multiply FP16 inputs with FP32 internal accumulation.
        prod = np.einsum(
            "lij,ljk->lik",
            a.data.astype(np.float32),
            b.data.astype(np.float32),
        )
        data = (prod + acc.data.astype(np.float32)).astype(acc.dtype.np_dtype)
        result = self._new_val(data, acc.dtype)
        return self._emit(op, result, weight=self.MMA_INSTRUCTIONS_PER_TILE)

    def zeros_tile(self, rows: int, cols: int, dtype: DType) -> Val:
        data = np.zeros((self.num_lanes, rows, cols), dtype=dtype.np_dtype)
        return self._new_val(data, dtype)

    # ----------------------------------------------------------------- control
    def bar(self) -> None:
        """Block-wide barrier (__syncthreads)."""
        self._trace.barriers += 1
        self._emit(OpClass.BAR, None)

    def nop(self) -> None:
        """Idle cycle — advances execution time without touching state
        (the RF micro-benchmark's exposure window)."""
        self._emit(OpClass.NOP, None)

    def range(self, count: int, unroll: int = 1) -> Iterator[int]:
        """Loop helper emitting realistic loop-overhead instructions.

        Per (non-unrolled) iteration: the counter increment (IADD, whose
        destination is dead once the loop exits — an architecturally
        maskable site) and the back-edge branch (BRA, resolved through the
        control-fault model if corrupted).  ``unroll`` is honored only by
        the cuda10 backend, mirroring newer NVCC's aggressive unrolling.
        """
        if count < 0:
            raise SimulationError("loop count cannot be negative")
        step = max(1, unroll) if self.backend == "cuda10" else 1
        for i in range(count):
            if i % step == 0:
                self._emit(OpClass.IADD, self._loop_counter_val(i))
                self._emit(OpClass.BRA, None)
            yield i

    def _loop_counter_val(self, i: int) -> Val:
        """Loop counter register for iteration ``i``.

        The counter is dead the moment it is emitted (nothing reads it
        back; it only exists as an injectable/maskable site), so every
        iteration refills one shared lane array instead of allocating a
        fresh one.  Corruption of a stale counter is unobservable.
        """
        shared = self._loop_counter
        if shared is None:
            shared = self._loop_counter = np.empty(self.num_lanes, dtype=np.int32)
        shared.fill(i)
        return self._new_val(shared, DType.INT32)

    # ------------------------------------------------------------------- host
    def read(self, val: Val) -> np.ndarray:
        """Host-side readback (cudaMemcpy D2H) — free of device instructions
        but counted as a host synchronization (exposes the host interface)."""
        self._trace.host_syncs += 1
        return val.data.copy()

    def read_buffer(self, buf: DeviceBuffer) -> np.ndarray:
        """Host copy of a device buffer (cudaMemcpy D2H) — free of device
        instructions; kernels use this to return their outputs.  Counted as
        a host synchronization like :meth:`read`."""
        self._trace.host_syncs += 1
        return buf.data.copy()

    def any(self, pred: Val) -> bool:
        if not pred.is_predicate:
            raise SimulationError("any expects a predicate")
        return bool((pred.data & self._mask_stack[-1]).any())

    def count(self, pred: Val) -> int:
        if not pred.is_predicate:
            raise SimulationError("count expects a predicate")
        return int((pred.data & self._mask_stack[-1]).sum())
