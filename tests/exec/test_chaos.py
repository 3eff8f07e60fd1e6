"""Chaos suite: campaigns over workloads that crash, wedge, or kill their
worker must classify — never die — and stay bit-identical.

Hostile workloads (module-level so they pickle into worker processes)
exercise the containment stack end to end:

* :class:`RecursionCrashWorkload` / :class:`MemoryCrashWorkload` — the
  golden run is healthy, but every *injected* run (``ctx.plan`` armed)
  crashes with a non-device exception.  Under ``on_crash="due"`` the
  sandbox classifies each crash as a contained DUE, identically for
  ``workers=1/2/4`` and both store backends; under ``"quarantine"`` the
  chunk goes straight to the store's quarantine without burning retries.
* :class:`ArmedCrashWorkload` — crashes whenever a fault is armed, by plan
  or by storage strike, so every engine's injected runs — campaign,
  CAROL-FI, uncore, beam op strikes — must come back as contained DUEs.
* :class:`KamikazeWorkload` — SIGKILLs the first worker process that
  executes it (never the parent), breaking the process pool mid-chunk.
  The engine rebuilds the pool, resubmits, and the finished campaign —
  and a subsequent resume from the store — is bit-identical to an
  undisturbed serial run.
"""

import os
import signal

import numpy as np
import pytest

import repro.api as api
from repro.arch.devices import KEPLER_K40C
from repro.arch.dtypes import DType
from repro.arch.ecc import EccMode
from repro.arch.isa import OpClass
from repro.arch.uncore import UncoreFitTable, UncoreUnitRates
from repro.beam.cross_sections import KEPLER_CATALOG
from repro.beam.engine import BeamEngine
from repro.common.errors import ChunkQuarantinedError, InjectionCrashError
from repro.faultsim.carolfi import CarolFi
from repro.faultsim.outcomes import Outcome
from repro.faultsim.uncore import UNCORE_EXCEPTIONS, UncoreInjector
from repro.sim.launch import LaunchConfig
from repro.store import ExecutionPolicy, open_store
from repro.telemetry import telemetry_session
from repro.workloads.base import Workload, WorkloadSpec

INJECTIONS = 8

#: engine/store bookkeeping; everything else must match across runs
_BOOKKEEPING = ("store.", "exec.chunk_retries", "span.checkpoint.", "service.")


def _domain(counters):
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith(_BOOKKEEPING)
    }


def _signature(result):
    return [
        (r.group, r.outcome, r.op, r.bit, r.detail, r.due_cause, r.contained)
        for r in result.records
    ]


class _CrashingWorkload(Workload):
    """Healthy golden run; every armed (injected) run raises ``crash_exc``."""

    crash_exc = RuntimeError  # overridden by subclasses

    def __init__(self, seed: int = 0) -> None:
        super().__init__(
            WorkloadSpec(name=type(self).__name__, base="chaos", dtype=DType.FP32),
            seed=seed,
        )

    def _generate_inputs(self, rng) -> None:
        self.x = rng.random(32).astype(np.float32)

    def sim_launch(self) -> LaunchConfig:
        return LaunchConfig(1, 32)

    def kernel(self, ctx):
        self.prepare()
        if ctx.plan is not None:
            raise self.crash_exc("injected run wedged the interpreter")
        x = ctx.alloc("x", self.x, DType.FP32)
        out = ctx.alloc_zeros("out", (32,), DType.FP32)
        gid = ctx.global_id()
        v = ctx.ld(x, gid)
        ctx.st(out, gid, ctx.fma(v, v, v))
        return {"out": ctx.read_buffer(out)}


class RecursionCrashWorkload(_CrashingWorkload):
    crash_exc = RecursionError


class MemoryCrashWorkload(_CrashingWorkload):
    crash_exc = MemoryError


class ArmedCrashWorkload(_CrashingWorkload):
    """Raises RecursionError whenever a fault is armed, by plan or by strike.

    A replayed run holds its strikes until it goes live, so those count
    as armed too."""

    crash_exc = RecursionError

    def kernel(self, ctx):
        if ctx._strikes or getattr(ctx, "_rp_strikes", None):
            raise self.crash_exc("injected run wedged the interpreter")
        return super().kernel(ctx)


class KamikazeWorkload(Workload):
    """SIGKILLs the first *worker* process that executes it, exactly once.

    The parent pid is recorded at construction time and the kill is gated
    on an O_EXCL marker file, so the pytest process is never the victim
    and the pool loses exactly one worker.
    """

    def __init__(self, marker: str, seed: int = 0) -> None:
        super().__init__(
            WorkloadSpec(name="KAMIKAZE", base="chaos", dtype=DType.FP32), seed=seed
        )
        self.marker = marker
        self.parent_pid = os.getpid()

    def _generate_inputs(self, rng) -> None:
        self.x = rng.random(32).astype(np.float32)

    def sim_launch(self) -> LaunchConfig:
        return LaunchConfig(1, 32)

    def kernel(self, ctx):
        self.prepare()
        if os.getpid() != self.parent_pid:
            try:
                fd = os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        x = ctx.alloc("x", self.x, DType.FP32)
        out = ctx.alloc_zeros("out", (32,), DType.FP32)
        gid = ctx.global_id()
        v = ctx.ld(x, gid)
        ctx.st(out, gid, ctx.add(v, v))
        return {"out": ctx.read_buffer(out)}


def _run(workload, *, workers=1, store=None, on_crash="due", retries=0):
    policy = ExecutionPolicy(
        store=open_store(store) if store is not None else None,
        on_crash=on_crash,
        retries=retries,
    )
    with telemetry_session() as telemetry:
        result = api.run_campaign(
            workload,
            device="kepler",
            injections=INJECTIONS,
            seed=1,
            workers=workers,
            policy=policy,
        )
        counters = dict(telemetry.registry.counters)
    return result, counters


class TestDueContainment:
    @pytest.mark.parametrize(
        "workload_cls", [RecursionCrashWorkload, MemoryCrashWorkload]
    )
    def test_every_injection_contained_as_due(self, workload_cls):
        result, counters = _run(workload_cls())
        assert result.injections == INJECTIONS
        assert result.avf(Outcome.DUE) == 1.0
        assert result.contained_count() == INJECTIONS
        cause = f"contained:{workload_cls.crash_exc.__name__}"
        assert result.due_breakdown() == {cause: INJECTIONS}
        assert counters["sandbox.contained"] == INJECTIONS
        assert counters["sandbox.contained.due"] == INJECTIONS
        assert counters[f"sandbox.cause.{workload_cls.crash_exc.__name__}"] == INJECTIONS

    @pytest.mark.parametrize("workers", [2, 4])
    def test_bit_identical_across_worker_counts(self, workers):
        serial, serial_counters = _run(RecursionCrashWorkload())
        parallel, parallel_counters = _run(RecursionCrashWorkload(), workers=workers)
        assert _signature(parallel) == _signature(serial)
        assert _domain(parallel_counters) == _domain(serial_counters)

    @pytest.mark.parametrize("backend", ["sqlite", "jsonl"])
    def test_bit_identical_across_store_backends(self, tmp_path, backend):
        baseline, _ = _run(MemoryCrashWorkload())
        store_path = str(tmp_path / f"chaos.{backend}")
        stored, _ = _run(MemoryCrashWorkload(), store=store_path)
        assert _signature(stored) == _signature(baseline)
        replayed, counters = _run(MemoryCrashWorkload(), store=store_path)
        assert _signature(replayed) == _signature(baseline)
        assert counters.get("store.misses", 0) == 0


#: every uncore fault leaks into architectural state, so every injection
#: re-executes the kernel
_ALWAYS_LEAKS = UncoreFitTable(
    architecture="kepler",
    units={
        unit: UncoreUnitRates(fit_per_instance=1.0, p_due=0.0, p_sdc=1.0)
        for unit in UNCORE_EXCEPTIONS
    },
)


def _campaign(workload):
    return api.run_campaign(workload, device="kepler", injections=INJECTIONS, seed=1).records


def _carolfi(workload):
    return CarolFi(KEPLER_K40C, seed=1).run(workload, INJECTIONS).records


def _uncore(workload):
    injector = UncoreInjector(KEPLER_K40C, seed=1, table=_ALWAYS_LEAKS)
    return injector.run(workload, INJECTIONS).records


def _beam_op_strikes(workload):
    engine = BeamEngine(KEPLER_K40C, workload, KEPLER_CATALOG, EccMode.OFF)
    rng = np.random.default_rng(1)
    return [engine.op_fault_eval(OpClass.FFMA, rng) for _ in range(INJECTIONS)]


ENGINES = {
    "campaign": _campaign,
    "carolfi": _carolfi,
    "uncore": _uncore,
    "beam": _beam_op_strikes,
}


class TestContainmentInEveryEngine:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_armed_runs_are_contained_dues(self, engine):
        with telemetry_session() as telemetry:
            verdicts = ENGINES[engine](ArmedCrashWorkload())
            counters = dict(telemetry.registry.counters)
        assert [(v.outcome, v.due_cause, v.contained) for v in verdicts] == [
            (Outcome.DUE, "contained:RecursionError", True)
        ] * INJECTIONS
        assert counters["sandbox.contained"] == INJECTIONS
        assert counters["sandbox.contained.due"] == INJECTIONS
        assert counters["sandbox.cause.RecursionError"] == INJECTIONS


class TestQuarantine:
    def test_storeless_quarantine_propagates_crash(self):
        with pytest.raises(InjectionCrashError):
            _run(RecursionCrashWorkload(), on_crash="quarantine")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_store_quarantines_without_burning_retries(self, tmp_path, workers):
        """InjectionCrashError is non_retryable: the chunk is deterministic,
        so the engine must skip the retry budget and quarantine directly."""
        store_path = str(tmp_path / "quarantine.sqlite")
        with telemetry_session() as telemetry:
            with pytest.raises(ChunkQuarantinedError):
                api.run_campaign(
                    RecursionCrashWorkload(),
                    device="kepler",
                    injections=INJECTIONS,
                    seed=1,
                    workers=workers,
                    policy=ExecutionPolicy(
                        store=open_store(store_path), on_crash="quarantine", retries=3
                    ),
                )
            counters = dict(telemetry.registry.counters)
        assert counters.get("exec.chunk_retries", 0) == 0

    def test_raise_policy_propagates_original(self):
        with pytest.raises(RecursionError):
            _run(RecursionCrashWorkload(), on_crash="raise")


class TestWorkerDeath:
    def test_sigkilled_worker_is_replaced_and_run_completes(self, tmp_path):
        marker = str(tmp_path / "killed")
        baseline, baseline_counters = _run(KamikazeWorkload(marker))

        store_path = str(tmp_path / "kamikaze.sqlite")
        chaos, _ = _run(KamikazeWorkload(marker), workers=2, store=store_path, retries=3)
        assert os.path.exists(marker), "the kamikaze never fired"
        assert _signature(chaos) == _signature(baseline)

        # resume from the store: pure replay, still bit-identical
        resumed, counters = _run(
            KamikazeWorkload(marker), workers=2, store=store_path, retries=3
        )
        assert _signature(resumed) == _signature(baseline)
        assert counters.get("store.misses", 0) == 0
        assert _domain(counters) == _domain(baseline_counters)
