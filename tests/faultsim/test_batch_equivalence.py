"""Batched fault evaluation ≡ per-injection execution equivalence suite.

The :class:`~repro.faultsim.batch.BatchEvaluator` classifies most of a
chunk's injections on the golden tape without executing anything; the
contract (like replay's) is that nothing observable changes.  These tests
pin it end to end: campaign records, DUE breakdowns, beam tallies/FITs
and captured telemetry are bit-identical with batched evaluation on or
off, replay on or off, serial or parallel, ECC on or off — and the batch
path demonstrably resolves injections without falling through to
per-injection execution (so the equivalence is not vacuous).

The same ``span.*`` histogram exemption as the fast-path and replay
suites applies — those record wall-clock seconds, the one thing a faster
evaluation strategy is supposed to change.
"""

import numpy as np
import pytest

from repro.api import ExecutionPolicy, get_workload, run_beam, run_campaign
from repro.arch.devices import KEPLER_K40C, VOLTA_V100
from repro.arch.dtypes import DType
from repro.arch.ecc import EccMode
from repro.faultsim.target import InjectionTarget
from repro.sim.launch import LaunchConfig
from repro.store.codec import decode_results, encode_results
from repro.telemetry import capture
from repro.workloads.base import CompareResult, Workload, WorkloadSpec

#: (batch_eval, replay, workers) grid; the first entry — per-injection
#: vanilla execution, serial — is the baseline every other mode must equal.
#: batch_eval=True with replay=False pins that the knob is inert without a
#: replay session to supply the tape.
MODES = [
    (False, False, 1),
    (False, True, 1),
    (True, False, 1),
    (True, True, 1),
    (True, True, 2),
    (False, True, 2),
]


def _observable(snapshot):
    """Counters plus non-span histograms (span.* observes wall-clock)."""
    histograms = {
        name: data
        for name, data in snapshot["histograms"].items()
        if not name.startswith("span.")
    }
    return snapshot["counters"], histograms


def _policy(batch_eval, replay):
    return ExecutionPolicy(replay=replay, batch_eval=batch_eval)


class TestCampaignEquivalence:
    @pytest.mark.parametrize(
        # NVBitFI reaches YOLO's proprietary libraries on Volta only
        "arch,code",
        [("kepler", "FMXM"), ("kepler", "FGAUSSIAN"), ("kepler", "NW"), ("volta", "FYOLOV3")],
    )
    @pytest.mark.parametrize("ecc", [EccMode.ON, EccMode.OFF])
    def test_records_due_breakdown_and_telemetry_identical(self, arch, code, ecc):
        def observe(batch_eval, replay, workers):
            workload = get_workload(arch, code, seed=11)
            with capture() as registry:
                result = run_campaign(
                    workload,
                    device=arch,
                    framework="nvbitfi",
                    injections=16,
                    seed=11,
                    ecc=ecc,
                    workers=workers,
                    policy=_policy(batch_eval, replay),
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


class TestBeamEquivalence:
    @pytest.mark.parametrize("code", ["FMXM", "NW", "FYOLOV2"])
    @pytest.mark.parametrize("ecc", [EccMode.ON, EccMode.OFF])
    def test_tallies_fits_and_telemetry_identical(self, code, ecc):
        def observe(batch_eval, replay, workers):
            workload = get_workload("kepler", code, seed=7)
            with capture() as registry:
                result = run_beam(
                    workload,
                    device="k40c",
                    ecc=ecc,
                    max_fault_evals=18,
                    seed=7,
                    workers=workers,
                    policy=_policy(batch_eval, replay),
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


class TestBatchPathEngages:
    @pytest.mark.parametrize(
        "arch,code,at_most",
        # divergent NW and custom-compare YOLO settle less of the chunk
        [("kepler", "FMXM", 12), ("kepler", "NW", 16), ("volta", "FYOLOV3", 21)],
    )
    def test_most_injections_skip_per_injection_execution(
        self, monkeypatch, arch, code, at_most
    ):
        """With batched evaluation on, the per-injection path (``_attempt``)
        runs only for the canary and the residual minority — guaranteeing
        the equivalence suite above compares two genuinely different
        evaluation strategies."""
        from repro.faultsim import campaign as campaign_mod

        calls = {"n": 0}
        original = campaign_mod.CampaignRunner._attempt

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(campaign_mod.CampaignRunner, "_attempt", counting)

        def run(batch_eval):
            calls["n"] = 0
            workload = get_workload(arch, code, seed=23)
            run_campaign(
                workload,
                device=arch,
                injections=24,
                seed=23,
                policy=_policy(batch_eval, True),
            )
            return calls["n"]

        assert run(False) == 24  # every injection executes individually
        assert run(True) < at_most  # the tape resolves part of the chunk

    def test_beam_op_strikes_settle_on_the_tape(self, monkeypatch):
        """Beam functional-unit strikes go through the same evaluator:
        fewer of them reach an injected execution with batch_eval on."""
        calls = {"n": 0}
        original = InjectionTarget.inject

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(InjectionTarget, "inject", counting)

        def run(batch_eval):
            calls["n"] = 0
            run_beam(
                get_workload("kepler", "NW", seed=7),
                device="k40c",
                ecc=EccMode.ON,
                max_fault_evals=18,
                seed=7,
                policy=_policy(batch_eval, True),
            )
            return calls["n"]

        assert run(True) < run(False)


class _Scaled(Workload):
    """out = 3·x over 32 lanes: most faults land straight in the output."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(
            WorkloadSpec(name=type(self).__name__, base="custom-compare", dtype=DType.FP32),
            seed=seed,
        )

    def _generate_inputs(self, rng) -> None:
        self.x = rng.random(32).astype(np.float32)

    def sim_launch(self) -> LaunchConfig:
        return LaunchConfig(1, 32)

    def kernel(self, ctx):
        self.prepare()
        x = ctx.alloc("x", self.x, DType.FP32)
        out = ctx.alloc_zeros("out", (32,), DType.FP32)
        gid = ctx.global_id()
        ctx.st(out, gid, ctx.mul(ctx.ld(x, gid), 3.0))
        return {"out": ctx.read_buffer(out)}


class _RejectsAll(_Scaled):
    """A compare rule that calls every run an SDC, the golden one included."""

    def compare(self, golden, observed):
        return CompareResult.SDC


class _Tolerant(_Scaled):
    """A compare rule that forgives small deviations, as YOLO's does."""

    def compare(self, golden, observed):
        close = np.allclose(golden["out"], observed["out"], rtol=1e-3)
        return CompareResult.MATCH if close else CompareResult.SDC


class TestCustomCompareGuard:
    @staticmethod
    def _observe(workload_cls, batch_eval):
        with capture() as registry:
            result = run_campaign(
                workload_cls(seed=3), device="k40c", injections=64, seed=3,
                ecc=EccMode.OFF, policy=_policy(batch_eval, True),
            )
        records = [
            (r.outcome, r.group, r.op, r.bit, r.detail, r.due_cause, r.contained)
            for r in result.records
        ]
        return records, _observable(registry.snapshot())

    @pytest.fixture
    def settled(self, monkeypatch):
        """How many records BatchEvaluator.classify filled."""
        from repro.faultsim.batch import BatchEvaluator

        count = {"n": 0}
        original = BatchEvaluator.classify

        def counting(self, groups, tasks, rngs, records, *args):
            validation = original(self, groups, tasks, rngs, records, *args)
            count["n"] += sum(record is not None for record in records)
            return validation

        monkeypatch.setattr(BatchEvaluator, "classify", counting)
        return count

    def test_compare_rejecting_the_golden_run_keeps_the_tape_off(self, settled):
        assert self._observe(_RejectsAll, True) == self._observe(_RejectsAll, False)
        assert settled["n"] == 0

    def test_tolerant_compare_settles_only_byte_identical_runs(self, settled):
        """The tape would call most of these runs SDC by their bytes; the
        tolerant rule forgives many, so the tape must judge the rebuilt
        outputs by that rule."""
        assert self._observe(_Tolerant, True) == self._observe(_Tolerant, False)
        assert settled["n"] > 0

    @pytest.mark.parametrize(
        "device,arch,code",
        [
            (KEPLER_K40C, "kepler", "FYOLOV2"),
            (KEPLER_K40C, "kepler", "FYOLOV3"),
            (VOLTA_V100, "volta", "FYOLOV3"),
            (VOLTA_V100, "volta", "HYOLOV3"),
        ],
    )
    def test_yolo_calls_its_golden_run_a_match(self, device, arch, code):
        workload = get_workload(arch, code, seed=0)
        golden = InjectionTarget(device, workload, EccMode.ON, "cuda10").golden.outputs
        assert workload.compare(golden, golden) is CompareResult.MATCH


class TestRecordCodecRoundTrip:
    def test_batch_produced_records_round_trip(self):
        """Records emitted by the batched evaluator survive the store codec
        field for field (group/outcome/op/bit/detail/due_cause/contained)."""
        workload = get_workload("kepler", "FMXM", seed=29)
        result = run_campaign(
            workload,
            device="k40c",
            injections=16,
            seed=29,
            policy=_policy(True, True),
        )
        decoded = decode_results(encode_results(result.records))
        assert decoded == result.records
