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

import pytest

from repro.api import ExecutionPolicy, get_workload, run_beam, run_campaign
from repro.arch.ecc import EccMode
from repro.store.codec import decode_results, encode_results
from repro.telemetry import capture

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
    @pytest.mark.parametrize("code", ["FMXM", "FGAUSSIAN"])
    @pytest.mark.parametrize("ecc", [EccMode.ON, EccMode.OFF])
    def test_records_due_breakdown_and_telemetry_identical(self, code, ecc):
        def observe(batch_eval, replay, workers):
            workload = get_workload("kepler", code, seed=11)
            with capture() as registry:
                result = run_campaign(
                    workload,
                    device="k40c",
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
    @pytest.mark.parametrize("ecc", [EccMode.ON, EccMode.OFF])
    def test_tallies_fits_and_telemetry_identical(self, ecc):
        def observe(batch_eval, replay, workers):
            workload = get_workload("kepler", "FMXM", seed=7)
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
    def test_most_injections_skip_per_injection_execution(self, monkeypatch):
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
            workload = get_workload("kepler", "FMXM", seed=23)
            run_campaign(
                workload,
                device="k40c",
                injections=24,
                seed=23,
                policy=_policy(batch_eval, True),
            )
            return calls["n"]

        assert run(False) == 24  # every injection executes individually
        assert run(True) < 12  # the tape resolves the bulk of the chunk


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
