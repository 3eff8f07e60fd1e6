"""The injection sandbox: policies, guards, telemetry, and the exact
tick-watchdog boundary.

The sandbox is the simulated counterpart of the beam setup's DUT
supervisor (§VII-B): injected runs may hang, leak, or crash the
interpreter, and the campaign must classify — never die.  These tests pin
the containment contract:

* ``on_crash="due"`` turns any unexpected exception into a
  :class:`ContainedCrashError` (a :class:`GpuDeviceException`, so the
  normal DUE path classifies it) with ``cause="contained:<Type>"``,
* ``"quarantine"`` raises the non-retryable :class:`InjectionCrashError`,
* ``"raise"`` propagates unchanged,
* modeled device failures and operator interrupts always pass through,
* every containment increments the ``sandbox.*`` counters and emits a
  ``sandbox.containment`` point event,
* the tick watchdog fires strictly *past* its limit: a run of exactly
  ``watchdog_limit`` ticks completes, one tick more is a DUE.
"""

import inspect
import pickle
import signal
import threading
import time

import pytest

import repro.faultsim.sandbox as sandbox_mod
from repro.arch.devices import KEPLER_K40C
from repro.common.errors import ConfigurationError, InjectionCrashError
from repro.faultsim.sandbox import (
    DEFAULT_LIMITS,
    WATCHDOG_FACTOR,
    InjectionSandbox,
    SandboxLimits,
)
from repro.sim.exceptions import (
    ContainedCrashError,
    GpuDeviceException,
    IllegalAddressError,
    MemoryGuardError,
    WallclockExceededError,
    WatchdogTimeout,
)
from repro.sim.launch import run_kernel
from repro.telemetry import MemorySink, telemetry_session
from repro.workloads.registry import get_workload


class TestPolicies:
    def test_result_passes_through(self):
        assert InjectionSandbox("due").run(lambda a, b: a + b, 40, b=2) == 42

    def test_due_contains_as_device_exception(self):
        sandbox = InjectionSandbox("due")

        def wedged():
            raise RecursionError("decoder ate its own tail")

        with pytest.raises(ContainedCrashError) as excinfo:
            sandbox.run(wedged)
        contained = excinfo.value
        assert isinstance(contained, GpuDeviceException)
        assert contained.cause == "contained:RecursionError"
        assert isinstance(contained.__cause__, RecursionError)

    def test_modeled_due_passes_through_uncontained(self):
        """A GpuDeviceException IS the modeled outcome, not a crash."""
        sandbox = InjectionSandbox("due")
        fault = IllegalAddressError("global", 4096, 1024)

        def faulting():
            raise fault

        with pytest.raises(IllegalAddressError) as excinfo:
            sandbox.run(faulting)
        assert excinfo.value is fault

    def test_quarantine_raises_non_retryable(self):
        sandbox = InjectionSandbox("quarantine")
        with pytest.raises(InjectionCrashError) as excinfo:
            sandbox.run(self._crash)
        error = excinfo.value
        assert error.non_retryable is True
        assert not isinstance(error, GpuDeviceException)
        assert "ZeroDivisionError" in str(error)

    def test_quarantine_error_survives_pickling(self):
        """The engine ships chunk errors across the worker→parent process
        boundary; the quarantine signal must arrive intact."""
        sandbox = InjectionSandbox("quarantine")
        with pytest.raises(InjectionCrashError) as excinfo:
            sandbox.run(self._crash)
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert isinstance(clone, InjectionCrashError)
        assert clone.non_retryable is True
        assert str(clone) == str(excinfo.value)

    def test_raise_propagates_unchanged(self):
        with pytest.raises(ZeroDivisionError):
            InjectionSandbox("raise").run(self._crash)

    def test_operator_interrupt_outranks_sandbox(self):
        def interrupted():
            raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            InjectionSandbox("due").run(interrupted)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            InjectionSandbox("explode")

    @staticmethod
    def _crash():
        return 1 // 0


class TestLimits:
    def test_defaults_are_generous(self):
        assert DEFAULT_LIMITS.wallclock_seconds == 60.0
        assert DEFAULT_LIMITS.memory_growth_bytes == 256 * 1024 * 1024

    @pytest.mark.parametrize(
        "kwargs",
        [{"wallclock_seconds": -1.0}, {"memory_growth_bytes": -1}],
    )
    def test_negative_limits_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SandboxLimits(**kwargs)

    def test_wallclock_guard_fires(self):
        sandbox = InjectionSandbox(
            "due", SandboxLimits(wallclock_seconds=0.05, memory_growth_bytes=0)
        )

        def hang():
            time.sleep(5.0)

        started = time.monotonic()
        # a GpuDeviceException, so it passes through — NOT ContainedCrashError
        with pytest.raises(WallclockExceededError):
            sandbox.run(hang)
        assert time.monotonic() - started < 4.0
        # the timer and handler are restored afterwards
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_wallclock_disarmed_after_fast_run(self):
        sandbox = InjectionSandbox(
            "due", SandboxLimits(wallclock_seconds=30.0, memory_growth_bytes=0)
        )
        assert sandbox.run(lambda: "ok") == "ok"
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_wallclock_skipped_off_main_thread(self):
        """setitimer only works in the main thread; elsewhere the deadline
        is silently skipped rather than crashing the worker."""
        sandbox = InjectionSandbox(
            "due", SandboxLimits(wallclock_seconds=0.01, memory_growth_bytes=0)
        )
        outcome = {}

        def worker():
            try:
                time.sleep(0.05)
                outcome["value"] = sandbox.run(lambda: "survived")
            except BaseException as exc:  # pragma: no cover - failure path
                outcome["error"] = exc

        thread = threading.Thread(target=lambda: worker())
        thread.start()
        thread.join()
        assert outcome == {"value": "survived"}

    def test_memory_guard_fires_on_growth(self, monkeypatch):
        samples = iter([100 * 1024 * 1024, 100 * 1024 * 1024 + 4097])
        monkeypatch.setattr(sandbox_mod, "_rss_bytes", lambda: next(samples))
        sandbox = InjectionSandbox(
            "due", SandboxLimits(wallclock_seconds=0, memory_growth_bytes=4096)
        )
        with pytest.raises(MemoryGuardError) as excinfo:
            sandbox.run(lambda: "leaky")
        assert isinstance(excinfo.value, GpuDeviceException)
        assert excinfo.value.cause == "memory_guard"

    def test_memory_guard_tolerates_growth_within_limit(self, monkeypatch):
        samples = iter([100 * 1024 * 1024, 100 * 1024 * 1024 + 4096])
        monkeypatch.setattr(sandbox_mod, "_rss_bytes", lambda: next(samples))
        sandbox = InjectionSandbox(
            "due", SandboxLimits(wallclock_seconds=0, memory_growth_bytes=4096)
        )
        assert sandbox.run(lambda: "fine") == "fine"

    def test_memory_guard_disabled_by_zero(self, monkeypatch):
        monkeypatch.setattr(
            sandbox_mod, "_rss_bytes", lambda: pytest.fail("guard should be off")
        )
        sandbox = InjectionSandbox(
            "due", SandboxLimits(wallclock_seconds=0, memory_growth_bytes=0)
        )
        assert sandbox.run(lambda: "fine") == "fine"


class TestTelemetry:
    def test_containment_counts_and_point_event(self):
        sink = MemorySink()
        with telemetry_session(sink=sink) as telemetry:
            with pytest.raises(ContainedCrashError):
                InjectionSandbox("due").run(self._recurse)
            counters = telemetry.registry.counters
            assert counters["sandbox.contained"] == 1
            assert counters["sandbox.contained.due"] == 1
            assert counters["sandbox.cause.RecursionError"] == 1
        points = [e for e in sink.events if e.get("name") == "sandbox.containment"]
        assert len(points) == 1
        assert points[0]["exc_type"] == "RecursionError"
        assert points[0]["policy"] == "due"

    def test_policies_count_separately(self):
        with telemetry_session() as telemetry:
            with pytest.raises(ContainedCrashError):
                InjectionSandbox("due").run(self._recurse)
            with pytest.raises(InjectionCrashError):
                InjectionSandbox("quarantine").run(self._recurse)
            counters = telemetry.registry.counters
            assert counters["sandbox.contained"] == 2
            assert counters["sandbox.contained.due"] == 1
            assert counters["sandbox.contained.quarantine"] == 1
            assert counters["sandbox.cause.RecursionError"] == 2

    def test_clean_run_counts_nothing(self):
        with telemetry_session() as telemetry:
            InjectionSandbox("due").run(lambda: None)
            assert "sandbox.contained" not in telemetry.registry.counters

    @staticmethod
    def _recurse():
        raise RecursionError("contained twice, counted twice")


class TestWatchdogBoundary:
    """Satellite: the tick watchdog is strict-greater-than.

    A healthy run executes exactly its golden tick count; setting
    ``watchdog_limit`` to that count must therefore complete (else every
    fault-free re-execution would be a false DUE), while any budget that
    cannot cover the full run fires :class:`WatchdogTimeout`.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        workload = get_workload("kepler", "FMXM", seed=0)
        return workload, run_kernel(KEPLER_K40C, workload.kernel, workload.sim_launch())

    def test_exactly_at_limit_is_not_due(self, golden):
        workload, reference = golden
        run = run_kernel(
            KEPLER_K40C,
            workload.kernel,
            workload.sim_launch(),
            watchdog_limit=reference.ticks,
        )
        assert run.ticks == reference.ticks

    def test_one_past_limit_is_due(self, golden):
        workload, reference = golden
        with pytest.raises(WatchdogTimeout) as excinfo:
            run_kernel(
                KEPLER_K40C,
                workload.kernel,
                workload.sim_launch(),
                watchdog_limit=reference.ticks - 1,
            )
        assert excinfo.value.cause == "watchdog"

    def test_watchdog_factor_single_source(self):
        """The shared injected-run path is the one place that applies the
        sandbox module's budget constant; no engine applies (or copies) it."""
        from repro.beam import engine
        from repro.exec import worker
        from repro.faultsim import campaign, carolfi, target, uncore

        assert WATCHDOG_FACTOR == 8.0
        assert target.WATCHDOG_FACTOR is sandbox_mod.WATCHDOG_FACTOR
        for module in (campaign, carolfi, uncore, engine, worker):
            assert "WATCHDOG_FACTOR" not in inspect.getsource(module), module.__name__
