"""The parallel execution engine's core contract: bit-identical results
for any worker count, chunking, or scheduling (repro.exec)."""

import io
import os

import pytest

from repro.arch.devices import KEPLER_K40C
from repro.arch.ecc import EccMode
from repro.arch.uncore import UncoreFitTable, UncoreUnitRates
from repro.beam.experiment import BeamExperiment
from repro.common.errors import ConfigurationError
from repro.exec.engine import (
    ProcessExecutor,
    SerialExecutor,
    default_chunksize,
    get_executor,
)
from repro.exec.progress import ProgressMeter
from repro.faultsim.campaign import CampaignRunner
from repro.faultsim.frameworks import NvBitFi
from repro.faultsim.uncore import UNCORE_EXCEPTIONS, UncoreInjector
from repro.predict.model import measure_memory_avf
from repro.telemetry import telemetry_session
from repro.workloads.registry import get_workload

#: most uncore faults leak into architectural state, so most injections
#: re-execute the kernel (in the pool workers, at workers=2)
_LEAKY = UncoreFitTable(
    architecture="kepler",
    units={
        unit: UncoreUnitRates(fit_per_instance=1.0, p_due=0.2, p_sdc=0.6)
        for unit in UNCORE_EXCEPTIONS
    },
)


@pytest.fixture(scope="module")
def workload():
    return get_workload("kepler", "FMXM", seed=5)


# -- executor resolution ----------------------------------------------------------


def test_get_executor_defaults_to_serial():
    assert isinstance(get_executor(None), SerialExecutor)
    assert isinstance(get_executor(1), SerialExecutor)


def test_get_executor_builds_pool_for_many_workers():
    executor = get_executor(3)
    assert isinstance(executor, ProcessExecutor)
    assert executor.workers == 3
    executor.close()


def test_get_executor_autosizes_workers_zero():
    executor = get_executor(0)
    expected = os.cpu_count() or 1
    if expected == 1:
        assert isinstance(executor, SerialExecutor)
    else:
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == expected
    executor.close()


def test_get_executor_explicit_executor_wins():
    shared = SerialExecutor()
    assert get_executor(8, shared) is shared


def test_get_executor_rejects_negative():
    with pytest.raises(ConfigurationError):
        get_executor(-2)


def test_default_chunksize_targets_four_chunks_per_worker():
    assert default_chunksize(200, 2) == 25
    assert default_chunksize(1, 8) == 1
    assert default_chunksize(0, 4) == 1
    # every task is covered: ceil division never under-allocates
    for n in (1, 7, 33, 100):
        for w in (1, 2, 5):
            size = default_chunksize(n, w)
            assert size * (-(-n // size)) >= n


def test_process_executor_preserves_task_order(workload):
    """Results come back in task order even when chunks finish out of order."""
    runner_serial = CampaignRunner(KEPLER_K40C, NvBitFi(), seed=11)
    serial = runner_serial.run(workload, 16)
    with ProcessExecutor(2, chunksize=3) as executor:
        runner_odd = CampaignRunner(KEPLER_K40C, NvBitFi(), seed=11, executor=executor)
        odd_chunks = runner_odd.run(workload, 16)
    assert serial.records == odd_chunks.records


# -- determinism: serial ≡ parallel -----------------------------------------------


def test_campaign_bit_identical_across_worker_counts(workload):
    serial = CampaignRunner(KEPLER_K40C, NvBitFi(), seed=3).run(workload, 30)
    parallel = CampaignRunner(KEPLER_K40C, NvBitFi(), seed=3, workers=2).run(workload, 30)
    assert serial.records == parallel.records
    assert serial.workload == parallel.workload
    assert serial.framework == parallel.framework


def test_beam_bit_identical_across_worker_counts(workload):
    kwargs = dict(ecc=EccMode.OFF, beam_hours=24, mode="montecarlo", max_fault_evals=40)
    serial = BeamExperiment(KEPLER_K40C, seed=9).run(workload, **kwargs)
    parallel = BeamExperiment(KEPLER_K40C, seed=9, workers=2).run(workload, **kwargs)
    assert serial.tallies == parallel.tallies
    assert serial.fit_sdc == parallel.fit_sdc
    assert serial.fit_due == parallel.fit_due


def test_beam_expected_mode_bit_identical(workload):
    kwargs = dict(ecc=EccMode.ON, beam_hours=24, mode="expected", max_fault_evals=40)
    serial = BeamExperiment(KEPLER_K40C, seed=2).run(workload, **kwargs)
    parallel = BeamExperiment(KEPLER_K40C, seed=2, workers=2).run(workload, **kwargs)
    assert serial.tallies == parallel.tallies
    assert serial.fit_sdc == parallel.fit_sdc


def test_memory_avf_bit_identical_across_worker_counts(workload):
    serial = measure_memory_avf(KEPLER_K40C, workload, strikes=12, seed=4)
    parallel = measure_memory_avf(KEPLER_K40C, workload, strikes=12, seed=4, workers=2)
    assert serial == parallel


def test_uncore_bit_identical_across_worker_counts(workload):
    def run(workers):
        with telemetry_session() as telemetry:
            injector = UncoreInjector(KEPLER_K40C, seed=6, table=_LEAKY, workers=workers)
            try:
                result = injector.run(workload, 16)
            finally:
                injector.executor.close()
            counters = telemetry.registry.counters
        return result.records, {
            name: value for name, value in counters.items() if not name.startswith("span.")
        }

    serial_records, serial_counters = run(1)
    parallel_records, parallel_counters = run(2)
    assert parallel_records == serial_records
    assert parallel_counters == serial_counters
    assert serial_counters["uncore.injections"] == 16


# -- observability hook -----------------------------------------------------------


def test_on_result_called_once_per_injection(workload):
    seen = []
    result = CampaignRunner(KEPLER_K40C, NvBitFi(), seed=1).run(
        workload, 12, on_result=seen.append
    )
    assert len(seen) == 12
    assert seen == result.records


def test_progress_meter_counts_and_reports():
    now = [0.0]
    stream = io.StringIO()
    meter = ProgressMeter(total=10, label="evals", interval=5.0, stream=stream, clock=lambda: now[0])
    for _ in range(4):
        meter(None)
        now[0] += 1.0
    assert meter.count == 4
    assert meter.rate == pytest.approx(4 / 4.0)
    assert meter.eta_seconds == pytest.approx(6 / meter.rate)
    meter.finish()
    out = stream.getvalue()
    assert "evals: 4/10" in out


def test_progress_meter_respects_interval():
    now = [0.0]
    stream = io.StringIO()
    meter = ProgressMeter(label="x", interval=100.0, stream=stream, clock=lambda: now[0])
    for _ in range(50):
        meter(None)
        now[0] += 0.01
    # only the first result crosses the (infinite) interval threshold
    assert stream.getvalue().count("\n") == 1


def test_progress_meter_zero_results_still_reports():
    """Regression: finish() on an empty run must emit the terminal line
    (it used to bail out when no result had ever arrived)."""
    stream = io.StringIO()
    meter = ProgressMeter(label="evals", stream=stream)
    meter.finish()
    assert "evals: 0 done, 0.0/s" in stream.getvalue()


def test_progress_meter_finish_is_idempotent():
    stream = io.StringIO()
    meter = ProgressMeter(label="evals", interval=1e9, stream=stream)
    meter.finish()
    meter.finish()
    meter.close()  # EventSink close also routes to finish()
    assert stream.getvalue().count("\n") == 1


def test_progress_meter_consumes_task_events():
    """As an EventSink the meter counts only ``task`` completions."""
    stream = io.StringIO()
    meter = ProgressMeter(label="evals", interval=1e9, stream=stream)
    meter.emit({"kind": "task", "name": "task"})
    meter.emit({"kind": "span_start", "name": "campaign"})
    meter.emit({"kind": "task", "name": "task"})
    assert meter.count == 2
    meter.close()
    assert "evals: 2 done" in stream.getvalue()
