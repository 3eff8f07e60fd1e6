"""Simulator fast path: serial ≡ parallel, and a pinned golden run.

The simulator has one execution path — batched trace accounting, the
pre-arm quiet mode, compiled SASS dispatch.  These tests pin two of its
contracts end to end.  Campaign records, beam outcomes and memory-AVF
rates are bit-identical serial or parallel, ECC on or off, on both
injector backends (SASSIFI drives the ``cuda7`` model, NVBitFI drives
``cuda10``).  And the golden run's outputs, trace totals and telemetry
equal literals recorded when a per-emit reference path still existed
next to it (both paths produced them); ``tests/test_golden_corpus.py``
holds every Figure 4/5 cell to the same standard.

Telemetry is held to the same bar as results: captured counters must
match exactly across every configuration.  Only ``span.*`` histograms are
exempt — they record wall-clock seconds.
"""

import hashlib

import numpy as np
import pytest

from repro.api import get_workload, run_beam, run_campaign
from repro.arch.devices import KEPLER_K40C
from repro.arch.ecc import EccMode
from repro.predict.model import measure_memory_avf
from repro.telemetry import capture

#: worker counts every observation is repeated over; the first (serial)
#: is the baseline the others must equal
WORKERS = [1, 2]


def _observable(snapshot):
    """Counters plus non-span histograms from a registry snapshot.

    ``span.*`` histograms observe wall-clock seconds.
    """
    histograms = {
        name: data
        for name, data in snapshot["histograms"].items()
        if not name.startswith("span.")
    }
    return snapshot["counters"], histograms


class TestCampaignEquivalence:
    @pytest.mark.parametrize("framework", ["sassifi", "nvbitfi"])
    @pytest.mark.parametrize("ecc", [EccMode.ON, EccMode.OFF])
    def test_records_and_telemetry_identical(self, framework, ecc):
        def observe(workers):
            workload = get_workload("kepler", "FMXM", seed=5)
            with capture() as registry:
                result = run_campaign(
                    workload,
                    device="k40c",
                    framework=framework,
                    injections=14,
                    seed=5,
                    ecc=ecc,
                    workers=workers,
                )
            records = [
                (r.outcome, r.group, r.op, r.bit, r.detail, r.due_cause)
                for r in result.records
            ]
            return records, _observable(registry.snapshot())

        reference = observe(WORKERS[0])
        for workers in WORKERS[1:]:
            observed = observe(workers)
            assert observed[0] == reference[0], workers
            assert observed[1] == reference[1], workers


class TestBeamEquivalence:
    def test_outcomes_and_telemetry_identical(self):
        def observe(workers):
            workload = get_workload("kepler", "FMXM", seed=7)
            with capture() as registry:
                result = run_beam(
                    workload,
                    device="k40c",
                    ecc=EccMode.ON,
                    max_fault_evals=24,
                    seed=7,
                    workers=workers,
                )
            tallies = {
                name: (t.faults, t.sdc, t.due) for name, t in result.tallies.items()
            }
            estimates = (result.fit_sdc, result.fit_due, result.fluence_n_cm2)
            return tallies, estimates, _observable(registry.snapshot())

        reference = observe(WORKERS[0])
        for workers in WORKERS[1:]:
            observed = observe(workers)
            assert observed[0] == reference[0], workers
            assert observed[1] == reference[1], workers
            assert observed[2] == reference[2], workers


class TestMemoryAvfEquivalence:
    @pytest.mark.parametrize("backend", ["cuda7", "cuda10"])
    def test_rates_and_telemetry_identical(self, backend):
        def observe(workers):
            workload = get_workload("kepler", "FMXM", seed=3)
            with capture() as registry:
                rates = measure_memory_avf(
                    KEPLER_K40C,
                    workload,
                    backend=backend,
                    strikes=10,
                    seed=3,
                    workers=workers,
                )
            return rates, _observable(registry.snapshot())

        reference = observe(WORKERS[0])
        for workers in WORKERS[1:]:
            observed = observe(workers)
            assert observed[0] == reference[0], workers
            assert observed[1] == reference[1], workers


#: FMXM (Kepler, seed 11) golden run: per-class lane instances and issue
#: slots in first-emission order (the order downstream float sums run in)
_GOLDEN_INSTANCES = [
    ("MOV", 576.0), ("MUFU", 1152.0), ("IMAD", 15552.0), ("IADD", 17280.0),
    ("BRA", 3456.0), ("LDG", 27648.0), ("FFMA", 13824.0), ("STG", 576.0),
]
_GOLDEN_ISSUES = [
    ("MOV", 18.0), ("MUFU", 36.0), ("IMAD", 486.0), ("IADD", 540.0),
    ("BRA", 108.0), ("LDG", 864.0), ("FFMA", 432.0), ("STG", 18.0),
]
_GOLDEN_TOTALS = {
    "global_bytes": 112896,
    "shared_bytes": 0,
    "active_lane_sum": 2502.0,
    "launched_lane_sum": 2502.0,
    "registers_written": 130,
    "barriers": 0,
    "host_syncs": 1,
    "ticks": 80064,
}
#: SHA-256 of the float32 (24, 24) ``c`` output
_GOLDEN_OUTPUT = "d057e982cdba059db39f9b379503932634389a592bb4f85de09a2eb8d67340be"


class TestGoldenRunEquivalence:
    def test_outputs_trace_and_ticks_identical(self):
        """The golden (fault-free) run itself: outputs, dynamic instruction
        counts, and the trace totals the batched accounting accumulates."""
        from repro.sim.launch import run_kernel

        workload = get_workload("kepler", "FMXM", seed=11)
        with capture() as registry:
            run = run_kernel(KEPLER_K40C, workload.kernel, workload.sim_launch())
        assert sorted(run.outputs) == ["c"]
        output = run.outputs["c"]
        assert (output.dtype, output.shape) == (np.float32, (24, 24))
        assert hashlib.sha256(output.tobytes()).hexdigest() == _GOLDEN_OUTPUT
        trace = run.trace
        assert [(op.name, v) for op, v in trace.instances.items()] == _GOLDEN_INSTANCES
        assert [(op.name, v) for op, v in trace.issues.items()] == _GOLDEN_ISSUES
        assert {
            "global_bytes": trace.global_bytes,
            "shared_bytes": trace.shared_bytes,
            "active_lane_sum": trace.active_lane_sum,
            "launched_lane_sum": trace.launched_lane_sum,
            "registers_written": trace.registers_written,
            "barriers": trace.barriers,
            "host_syncs": trace.host_syncs,
            "ticks": int(run.ticks),
        } == _GOLDEN_TOTALS
        counters, histograms = _observable(registry.snapshot())
        assert histograms == {}
        assert counters == {
            "sim.kernel_runs": 1.0,
            **{f"sim.instructions.{name}": value for name, value in _GOLDEN_INSTANCES},
            "sim.instructions_total": 80064.0,
        }
