"""Checkpoint/replay ≡ vanilla-execution equivalence suite.

Replay forks every injected run from the nearest golden snapshot (the
kernel's start when none lies below the fault) and executes only the
post-fault suffix; the contract is that nothing
observable changes.  These tests pin it end to end: campaign records, DUE
breakdowns, beam tallies/FITs, uncore and CAROL-FI records and captured
telemetry are bit-identical with replay on or off, serial or parallel, ECC
on or off, on more than one workload.

The same ``span.*`` histogram exemption as the fast-path suite applies —
they record wall-clock seconds, the one thing replay is supposed to
change.  ``store.*`` / ``exec.*`` bookkeeping is absent here because no
test in this module uses a store.
"""

import numpy as np
import pytest

from repro.api import ExecutionPolicy, get_workload, run_beam, run_campaign
from repro.arch.devices import KEPLER_K40C
from repro.arch.dtypes import DType
from repro.arch.ecc import EccMode
from repro.arch.isa import OpClass
from repro.experiments.fig4 import FIG4_KEPLER
from repro.faultsim.carolfi import CarolFi
from repro.faultsim.uncore import UncoreInjector
from repro.sim.exceptions import GpuDeviceException
from repro.sim.injection import (
    FaultModel,
    InjectionMode,
    InjectionPlan,
    StorageStrike,
    opclass_stream,
)
from repro.sim.launch import LaunchConfig, run_kernel
from repro.sim.replay import ReplaySession
from repro.store.codec import decode_results, encode_results
from repro.telemetry import capture

#: (replay, workers) grid; the first entry — vanilla execution, serial —
#: is the baseline every other mode must equal
MODES = [
    (False, 1),
    (True, 1),
    (True, 2),
    (False, 2),
]


def _observable(snapshot):
    """Counters plus non-span histograms (span.* observes wall-clock)."""
    histograms = {
        name: data
        for name, data in snapshot["histograms"].items()
        if not name.startswith("span.")
    }
    return snapshot["counters"], histograms


def _policy(replay):
    return ExecutionPolicy(replay=replay)


class TestCampaignEquivalence:
    @pytest.mark.parametrize("code", ["FMXM", "FGAUSSIAN"])
    @pytest.mark.parametrize("ecc", [EccMode.ON, EccMode.OFF])
    def test_records_due_breakdown_and_telemetry_identical(self, code, ecc):
        def observe(replay, workers):
            workload = get_workload("kepler", code, seed=5)
            with capture() as registry:
                result = run_campaign(
                    workload,
                    device="k40c",
                    framework="nvbitfi",
                    injections=12,
                    seed=5,
                    ecc=ecc,
                    workers=workers,
                    policy=_policy(replay),
                )
            records = [
                (r.outcome, r.group, r.op, r.bit, r.detail, r.due_cause, r.contained)
                for r in result.records
            ]
            return records, result.due_breakdown(), _observable(registry.snapshot())

        reference = observe(*MODES[0])
        for mode in MODES[1:]:
            observed = observe(*mode)
            assert observed[0] == reference[0], mode
            assert observed[1] == reference[1], mode
            assert observed[2] == reference[2], mode

    def test_sassifi_backend_identical(self):
        """The cuda7 model replays bit-identically too (SASSIFI driver)."""

        def observe(replay):
            workload = get_workload("kepler", "FMXM", seed=9)
            with capture() as registry:
                result = run_campaign(
                    workload,
                    device="k40c",
                    framework="sassifi",
                    injections=12,
                    seed=9,
                    policy=_policy(replay),
                )
            records = [
                (r.outcome, r.group, r.op, r.bit, r.detail, r.due_cause)
                for r in result.records
            ]
            return records, _observable(registry.snapshot())

        assert observe(True) == observe(False)


class TestBeamEquivalence:
    @pytest.mark.parametrize("ecc", [EccMode.ON, EccMode.OFF])
    def test_tallies_fits_and_telemetry_identical(self, ecc):
        def observe(replay, workers):
            workload = get_workload("kepler", "FMXM", seed=7)
            with capture() as registry:
                result = run_beam(
                    workload,
                    device="k40c",
                    ecc=ecc,
                    max_fault_evals=18,
                    seed=7,
                    workers=workers,
                    policy=_policy(replay),
                )
            tallies = {
                name: (t.faults, t.sdc, t.due) for name, t in result.tallies.items()
            }
            estimates = (result.fit_sdc, result.fit_due, result.fluence_n_cm2)
            return tallies, estimates, _observable(registry.snapshot())

        reference = observe(*MODES[0])
        for mode in MODES[1:]:
            observed = observe(*mode)
            assert observed[0] == reference[0], mode
            assert observed[1] == reference[1], mode
            assert observed[2] == reference[2], mode


class TestUncoreEquivalence:
    @pytest.mark.parametrize("code", ["FMXM", "FGAUSSIAN"])
    def test_records_identical(self, code):
        def observe(replay):
            workload = get_workload("kepler", code, seed=3)
            with capture() as registry:
                injector = UncoreInjector(KEPLER_K40C, seed=3, policy=_policy(replay))
                result = injector.run(workload, 12)
            records = [
                (r.outcome, r.group, r.detail, r.due_cause) for r in result.records
            ]
            return records, _observable(registry.snapshot())

        assert observe(True) == observe(False)


class TestCarolFiEquivalence:
    @pytest.mark.parametrize("code", FIG4_KEPLER)
    def test_records_identical(self, code):
        def observe(replay):
            workload = get_workload("kepler", code, seed=3)
            with capture() as registry:
                result = CarolFi(KEPLER_K40C, seed=3, policy=_policy(replay)).run(workload, 12)
            records = [
                (r.outcome, r.group, r.detail, r.due_cause, r.contained)
                for r in result.records
            ]
            return records, _observable(registry.snapshot())

        assert observe(True) == observe(False)


def _wild_store_kernel(ctx):
    """40 iterations of ``ld a`` / ``st a`` / ``ld b`` over 64 lanes.

    An ADDRESS fault on an ``st a`` can land in the mapped span outside
    ``a``: the store then flips a victim word of whichever plane the
    address selects, ``b`` included, and every later ``ld b`` reads it."""
    a = ctx.alloc("a", np.arange(64, dtype=np.float32), DType.FP32)
    b = ctx.alloc("b", np.linspace(1.0, 2.0, 64, dtype=np.float32), DType.FP32)
    out = ctx.alloc_zeros("out", 64, DType.FP32)
    gid = ctx.global_id()
    one = ctx.const(1.0, DType.FP32)
    acc = ctx.const(0.0, DType.FP32)
    for _ in ctx.range(40):
        ctx.st(a, gid, ctx.add(ctx.ld(a, gid), one))
        acc = ctx.add(acc, ctx.ld(b, gid))
    ctx.st(out, gid, acc)
    return {"a": ctx.read_buffer(a), "out": ctx.read_buffer(out)}


class TestWildStoreForwarding:
    def test_replay_sees_wild_store_victim_planes(self):
        """Golden forwarding must treat a wild store's victim plane as
        fault-touched: serving a later clean ``ld b`` from the tape would
        hand back the value the flip already corrupted in a vanilla run."""
        launch = LaunchConfig(grid_blocks=2, threads_per_block=32)
        golden = run_kernel(KEPLER_K40C, _wild_store_kernel, launch)
        session = ReplaySession(
            KEPLER_K40C, _wild_store_kernel, launch,
            snapshots_per_run=8, expected_ticks=golden.ticks,
        )

        def plan(target, seed):
            return InjectionPlan(
                mode=InjectionMode.ADDRESS,
                stream=opclass_stream(OpClass.STG),
                target_index=target,
                fault_model=FaultModel.SINGLE_BIT,
                rng=np.random.default_rng(seed),
            )

        def observe(run):
            try:
                outputs = run()
            except GpuDeviceException as exc:
                return type(exc).__name__
            return {name: data.tobytes() for name, data in outputs.outputs.items()}

        mismatches = []
        # 192 address-stream instances per iteration (3 ld/st × 64 lanes):
        # both targets are lane 0 of an ``st a`` (iterations 8 and 10)
        for target in (1600, 1984):
            for seed in range(400):
                vanilla_plan, replay_plan = plan(target, seed), plan(target, seed)
                vanilla = observe(
                    lambda: run_kernel(KEPLER_K40C, _wild_store_kernel, launch, plan=vanilla_plan)
                )
                assert vanilla_plan.record.op is OpClass.STG
                replayed = observe(lambda: session.run(plan=replay_plan))
                if replayed != vanilla:
                    mismatches.append((target, seed))
        assert session.stats["replays"] > 0
        assert mismatches == []


class TestKernelStartBoundary:
    @pytest.mark.parametrize("case", ["output_value", "address", "strike", "watchdog"])
    def test_faults_before_the_first_snapshot_replay_from_the_start(self, case):
        """The kernel's start is boundary zero: a fault at or before the
        first snapshot replays from there, with golden forwarding, and
        gives exactly what ``run_kernel`` gives — outputs, trace, ticks,
        DUE class and the fault RNG's state after the run."""
        launch = LaunchConfig(grid_blocks=2, threads_per_block=32)
        golden = run_kernel(KEPLER_K40C, _wild_store_kernel, launch)
        session = ReplaySession(
            KEPLER_K40C, _wild_store_kernel, launch,
            snapshots_per_run=1, expected_ticks=golden.ticks,
        )
        session.ensure_capture()
        watchdog = golden.ticks / 4
        assert watchdog < session._tape.snapshots[0].tick

        def faults(seed):
            rng = np.random.default_rng(seed)
            if case == "output_value":
                plan = InjectionPlan(
                    mode=InjectionMode.OUTPUT_VALUE,
                    stream=opclass_stream(OpClass.FADD),
                    target_index=0,
                    fault_model=FaultModel.SINGLE_BIT,
                    rng=rng,
                )
                return rng, {"plan": plan}
            if case == "address":
                plan = InjectionPlan(
                    mode=InjectionMode.ADDRESS,
                    stream=opclass_stream(OpClass.LDG, OpClass.STG),
                    target_index=0,
                    fault_model=FaultModel.SINGLE_BIT,
                    rng=rng,
                )
                return rng, {"plan": plan}
            if case == "strike":
                return rng, {"strikes": (StorageStrike(tick=0.0, space="global", rng=rng),)}
            return rng, {"watchdog_limit": watchdog}

        def observe(run, seed):
            rng, kwargs = faults(seed)
            try:
                result = run(**kwargs)
            except GpuDeviceException as exc:
                observed = type(exc).__name__
            else:
                trace = result.trace
                observed = (
                    {name: data.tobytes() for name, data in result.outputs.items()},
                    dict(trace.instances),
                    dict(trace.issues),
                    trace.active_lane_sum,
                    trace.launched_lane_sum,
                    trace.global_bytes,
                    result.ticks,
                )
            return observed, rng.bit_generator.state

        seeds = range(12)
        for seed in seeds:
            vanilla = observe(
                lambda **kw: run_kernel(KEPLER_K40C, _wild_store_kernel, launch, **kw), seed
            )
            assert observe(session.run, seed) == vanilla, seed
        assert session.stats["vanilla"] == 0
        assert session.stats["replays"] == len(seeds)


def _trace_reading_kernel(ctx):
    """Reads ``ctx.trace`` halfway through the loop, which flushes the
    batched per-op accounting into the trace mid-run."""
    a = ctx.alloc("a", np.arange(64, dtype=np.float32), DType.FP32)
    out = ctx.alloc_zeros("out", 64, DType.FP32)
    gid = ctx.global_id()
    one = ctx.const(1.0, DType.FP32)
    acc = ctx.ld(a, gid)
    for i in ctx.range(40):
        acc = ctx.add(acc, one)
        ctx.st(a, gid, acc)
        if i == 20:
            ctx.trace
    ctx.st(out, gid, acc)
    return {"out": ctx.read_buffer(out)}


class TestMidRunTraceRead:
    def test_runs_match_vanilla(self):
        """Snapshots hold only the batched accumulators, not flushed trace
        contents: a kernel that reads ``ctx.trace`` mid-run must still give
        the outputs and trace a vanilla run gives, for faults on either
        side of the read."""
        launch = LaunchConfig(grid_blocks=2, threads_per_block=32)
        golden = run_kernel(KEPLER_K40C, _trace_reading_kernel, launch)
        session = ReplaySession(
            KEPLER_K40C, _trace_reading_kernel, launch,
            snapshots_per_run=8, expected_ticks=golden.ticks,
        )

        def observe(run):
            trace = run.trace
            return (
                {name: data.tobytes() for name, data in run.outputs.items()},
                dict(trace.instances),
                dict(trace.issues),
                trace.active_lane_sum,
                trace.launched_lane_sum,
                run.ticks,
            )

        for tick in np.linspace(0.1, 0.9, 9) * golden.ticks:
            def strike():
                return StorageStrike(
                    tick=float(int(tick)), space="global", rng=np.random.default_rng(7)
                )

            vanilla = run_kernel(KEPLER_K40C, _trace_reading_kernel, launch, strikes=(strike(),))
            assert observe(session.run(strikes=(strike(),))) == observe(vanilla)


class TestSessionCodecRoundTrip:
    def test_export_import_state_preserves_replay(self):
        """A session's tape + snapshots survive the store codec: a fresh
        session importing the encoded state replays the same strike
        bit-identically without re-capturing the golden run."""
        workload = get_workload("kepler", "FMXM", seed=13)
        golden = run_kernel(KEPLER_K40C, workload.kernel, workload.sim_launch())

        def build():
            return ReplaySession(
                KEPLER_K40C,
                workload.kernel,
                workload.sim_launch(),
                ecc=EccMode.ON,
                backend="cuda10",
                snapshots_per_run=8,
                expected_ticks=golden.ticks,
            )

        def strike():
            rng = np.random.default_rng(42)
            return StorageStrike(
                tick=float(int(golden.ticks) // 2), space="global", rng=rng
            )

        first = build()
        run_a = first.run(strikes=(strike(),), watchdog_limit=10 * golden.ticks)
        payload = first.export_state()
        assert payload is not None

        decoded = decode_results(encode_results([payload]))[0]
        second = build()
        assert second.import_state(decoded)
        run_b = second.run(strikes=(strike(),), watchdog_limit=10 * golden.ticks)

        assert second.stats["captures"] == 0  # golden came from the import
        assert sorted(run_a.outputs) == sorted(run_b.outputs)
        for name in run_a.outputs:
            np.testing.assert_array_equal(run_a.outputs[name], run_b.outputs[name])

    def test_import_rejects_a_per_emit_tape(self):
        """A payload marked ``"fast": False`` was recorded by the removed
        per-emit simulator path; its snapshots lack the batched
        accumulators, so it is refused and the session keeps its state
        (a campaign then re-captures instead of adopting the tape)."""
        workload = get_workload("kepler", "FMXM", seed=13)
        golden = run_kernel(KEPLER_K40C, workload.kernel, workload.sim_launch())

        def build():
            return ReplaySession(
                KEPLER_K40C,
                workload.kernel,
                workload.sim_launch(),
                snapshots_per_run=8,
                expected_ticks=golden.ticks,
            )

        source = build()
        source.ensure_capture()
        payload = source.export_state()
        assert payload["fast"] is True
        assert build().import_state(payload)

        session = build()
        session.ensure_capture()
        before = session.export_state()
        stale = dict(payload, fast=False, expected_ticks=1.0, extra_ticks=[5.0])
        assert not session.import_state(stale)
        after = session.export_state()
        assert after["expected_ticks"] == before["expected_ticks"] == golden.ticks
        assert after["snapshots"] is before["snapshots"]
        assert session.stats["captures"] == 1

    def test_import_rejects_garbage(self):
        workload = get_workload("kepler", "FMXM", seed=13)
        golden = run_kernel(KEPLER_K40C, workload.kernel, workload.sim_launch())
        session = ReplaySession(
            KEPLER_K40C,
            workload.kernel,
            workload.sim_launch(),
            ecc=EccMode.ON,
            backend="cuda10",
            snapshots_per_run=8,
            expected_ticks=golden.ticks,
        )
        assert not session.import_state({"bogus": True})
        assert session.export_state() is None  # nothing captured yet
