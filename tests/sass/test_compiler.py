"""Compiled SASS dispatch: pinned outputs, traces, telemetry and faults.

``SassKernel.__call__`` runs every program through the closure compiler
in :mod:`repro.sass.compiler`.  The literals below were computed on a
kitchen-sink program when a tree-walking interpreter still existed next
to the compiler, and both engines produced every one of them: outputs,
traces, per-mnemonic telemetry and injected runs are held to those
values.  The compile-once / cache-on-program contract is checked too.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.arch.devices import KEPLER_K40C
from repro.arch.isa import OpClass
from repro.sass import SassKernel, assemble
from repro.sass.compiler import compiled_for
from repro.sim import LaunchConfig, run_kernel
from repro.sim.injection import FaultModel, InjectionMode, InjectionPlan, opclass_stream
from repro.telemetry import capture

#: one program exercising every interpreter feature class: specials,
#: loads/stores, loops, shared memory + barriers, predication (guarded
#: register and store writes), SEL, CVT, MUFU, logic/shift/minmax, FFMA
_KITCHEN_SINK = """
.kernel sink
.buffer a
.buffer c
.shared tile 32
MOV        r0, %gid
MOV        r9, %tid
LDG.F32    r1, [a + r0]
STS.F32    [tile + r9], r1
BAR
LDS.F32    r2, [tile + r9]
FMUL.F32   r3, r2, 2.0
FFMA.F32   r3, r3, 1.5, r1
.loop 4
FADD.F32   r3, r3, 0.25
.endloop
SETP.LT.F32 p0, r3, 8.0
@p0 FADD.F32 r3, r3, 100.0
SEL.F32    r4, p0, r3, r1
MUFU.SQRT  r5, r1
FADD.F32   r4, r4, r5
CVT.S32    r6, r0
LOP.XOR    r6, r6, 5
SHF.L      r6, r6, 1
IMNMX.MIN  r6, r6, 90
CVT.F32    r7, r6
FADD.F32   r4, r4, r7
STG.F32    [c + r0], r4
SETP.GE.S32 p1, r0, 48
@p1 STG.F32 [c + r0], r1
"""

_LAUNCH = LaunchConfig(2, 32)


def _kernel(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 4.0, size=64).astype(np.float32)
    return SassKernel(assemble(_KITCHEN_SINK), {"a": a}, ("c",), {"c": (64,)})


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _observe(plan=None, seed=0):
    with capture() as registry:
        run = run_kernel(KEPLER_K40C, _kernel(seed), _LAUNCH, plan=plan)
    snapshot = registry.snapshot()
    return run, snapshot["counters"]


#: SHA-256 of the float32 ``c`` output of clean runs, per input seed
_OUTPUT_PINS = {
    0: "b9d7c72ec39bb1ef0e3ea5283bb3377e0a8c5f49b424de6584b0bf7fb71d64bc",
    1: "215d0a93d2fdeac74641bf287478d3238c615fc29f7bbac994999ba60db96ac2",
    2: "fb5ee983dafc60eb946f5d835c99d17f528fa107a5968f787061b5423f54c927",
    3: "68508cf68ce70f809d63181b9f7e7a138fb39945accef660ac87fef97b2b68ec",
}

#: seed-0 trace: per-class lane instances and issue slots in first-emission
#: order (the order downstream float sums run in), then the scalar totals
_TRACE_INSTANCES = [
    ("MOV", 128.0), ("LDG", 64.0), ("STS", 64.0), ("BAR", 64.0), ("LDS", 64.0),
    ("FMUL", 64.0), ("FFMA", 64.0), ("IADD", 256.0), ("BRA", 256.0),
    ("FADD", 407.0), ("SETP", 128.0), ("SEL", 64.0), ("MUFU", 64.0),
    ("CVT", 128.0), ("LOP", 64.0), ("SHF", 64.0), ("IMNMX", 64.0), ("STG", 80.0),
]
_TRACE_ISSUES = [
    ("MOV", 4.0), ("LDG", 2.0), ("STS", 2.0), ("BAR", 2.0), ("LDS", 2.0),
    ("FMUL", 2.0), ("FFMA", 2.0), ("IADD", 8.0), ("BRA", 8.0),
    ("FADD", 12.71875), ("SETP", 4.0), ("SEL", 2.0), ("MUFU", 2.0),
    ("CVT", 4.0), ("LOP", 2.0), ("SHF", 2.0), ("IMNMX", 2.0), ("STG", 2.5),
]
_TRACE_TOTALS = {
    "global_bytes": 576,
    "shared_bytes": 512,
    "barriers": 1,
    "active_lane_sum": 67.0,
    "launched_lane_sum": 68.0,
    "registers_written": 26,
    "ticks": 2087,
}

#: warp-instructions retired per mnemonic (the same for every input seed:
#: predication masks lanes, it never skips an instruction)
_RETIRED = {
    "MOV": 2.0, "LDG": 1.0, "STS": 1.0, "BAR": 1.0, "LDS": 1.0, "FMUL": 1.0,
    "FFMA": 1.0, "FADD": 7.0, "SETP": 2.0, "SEL": 1.0, "MUFU": 1.0, "CVT": 2.0,
    "LOP": 1.0, "SHF": 1.0, "IMNMX": 1.0, "STG": 2.0,
}

#: (op class, target instance) → (plan fired, SHA-256 of the ``c`` output)
_INJECTION_PINS = {
    (OpClass.FFMA, 0): (True, "ac133f0859b1915ccd182d0dc2e4c85cf0e5b7b2e9d6e65ffd6d06a19c9ad96c"),
    (OpClass.FFMA, 3): (True, "1c0bdc850bb84f18ca7e6fbc8c2ea467ca615776c6f5424bead742d22a560366"),
    (OpClass.FFMA, 17): (True, "b9d7c72ec39bb1ef0e3ea5283bb3377e0a8c5f49b424de6584b0bf7fb71d64bc"),
    (OpClass.LDG, 0): (True, "8682546e74dbf838148b27dc7f3a65a3de0150f26ff8131621f7b9484901bce0"),
    (OpClass.LDG, 3): (True, "1c0bdc850bb84f18ca7e6fbc8c2ea467ca615776c6f5424bead742d22a560366"),
    (OpClass.LDG, 17): (True, "4793c585aecc038815cf0ad666842b5e10c3fb812aa74959c61aeb1d0df8fc59"),
    (OpClass.FADD, 0): (True, "b4c16135dadfca4663e8cb78602adf8a060b6fdf279c94e75617239375664b12"),
    (OpClass.FADD, 3): (True, "bb625547375b7ac45e85cc2858ebd6240a2c62610c85a2e5c92ab6a50185a0a4"),
    (OpClass.FADD, 17): (True, "b9d7c72ec39bb1ef0e3ea5283bb3377e0a8c5f49b424de6584b0bf7fb71d64bc"),
}


class TestEngineEquivalence:
    def test_outputs_trace_and_telemetry_match(self):
        run, counters = _observe()
        assert run.outputs["c"].dtype == np.float32
        assert _digest(run.outputs["c"]) == _OUTPUT_PINS[0]
        trace = run.trace
        assert [(op.name, v) for op, v in trace.instances.items()] == _TRACE_INSTANCES
        assert [(op.name, v) for op, v in trace.issues.items()] == _TRACE_ISSUES
        assert {
            "global_bytes": trace.global_bytes,
            "shared_bytes": trace.shared_bytes,
            "barriers": trace.barriers,
            "active_lane_sum": trace.active_lane_sum,
            "launched_lane_sum": trace.launched_lane_sum,
            "registers_written": trace.registers_written,
            "ticks": int(run.ticks),
        } == _TRACE_TOTALS
        # the simulator's per-class counters mirror the trace
        assert counters["sim.instructions_total"] == float(_TRACE_TOTALS["ticks"])

    def test_multiple_seeds(self):
        for seed in range(4):
            run, counters = _observe(seed=seed)
            assert _digest(run.outputs["c"]) == _OUTPUT_PINS[seed], seed
            retired = {
                key[len("sass.instructions."):]: value
                for key, value in counters.items()
                if key.startswith("sass.instructions.")
            }
            assert retired == _RETIRED, seed


class TestInjectionEquivalence:
    @pytest.mark.parametrize("opclass", [OpClass.FFMA, OpClass.LDG, OpClass.FADD])
    @pytest.mark.parametrize("target", [0, 3, 17])
    def test_injected_runs_match(self, opclass, target):
        """An armed fault fires at its pinned site with its pinned
        corruption (its own RNG stream, program-order offers)."""
        plan = InjectionPlan(
            mode=InjectionMode.OUTPUT_VALUE,
            stream=opclass_stream(opclass),
            target_index=target,
            fault_model=FaultModel.SINGLE_BIT,
            rng=np.random.default_rng(100 * target + 7),
        )
        run, _ = _observe(plan=plan)
        assert (plan.fired, _digest(run.outputs["c"])) == _INJECTION_PINS[opclass, target]

    def test_injection_perturbs_output(self):
        """Sanity: the sweep above pins *faulty* runs, not only goldens."""
        golden, _ = _observe()
        plan = InjectionPlan(
            mode=InjectionMode.OUTPUT_VALUE,
            stream=opclass_stream(OpClass.FFMA),
            target_index=3,
            fault_model=FaultModel.SINGLE_BIT,
            rng=np.random.default_rng(307),
        )
        faulty, _ = _observe(plan=plan)
        assert plan.fired
        assert (faulty.outputs["c"] != golden.outputs["c"]).any()


class TestCompileCaching:
    def test_compiled_once_per_program(self):
        program = assemble(_KITCHEN_SINK)
        assert compiled_for(program) is compiled_for(program)
        assert getattr(program, "_compiled", None) is not None

    def test_pickle_drops_compiled_cache(self):
        """Compiled closures bind module state and must not travel to
        worker processes; the clone recompiles on first use."""
        program = assemble(_KITCHEN_SINK)
        compiled_for(program)
        clone = pickle.loads(pickle.dumps(program))
        assert getattr(clone, "_compiled", None) is None
        # and the recompiled clone still runs identically
        rng = np.random.default_rng(0)
        a = rng.uniform(0.5, 4.0, size=64).astype(np.float32)
        original = run_kernel(
            KEPLER_K40C, SassKernel(program, {"a": a}, ("c",), {"c": (64,)}), _LAUNCH
        )
        recompiled = run_kernel(
            KEPLER_K40C, SassKernel(clone, {"a": a}, ("c",), {"c": (64,)}), _LAUNCH
        )
        np.testing.assert_array_equal(
            original.outputs["c"], recompiled.outputs["c"]
        )
