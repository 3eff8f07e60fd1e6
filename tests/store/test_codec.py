"""Codec round-trips for every stored result type (the resume contract),
plus the PR-5 salt bump that keeps stale chunks from replaying.

The store's payloads must round-trip *exactly*: a replayed chunk has to be
indistinguishable from a re-executed one.  InjectionRecord gained
``contained`` and chunk results gained :class:`StrikeEval` when the
injection sandbox landed; the fingerprint salt moved to ``repro-store/2``
at the same time so chunks written by the previous schema never replay
into the new one.
"""

import pytest

from repro.arch.devices import KEPLER_K40C
from repro.arch.isa import OpClass
from repro.exec.tasks import CampaignContext, InjectionTask, WorkloadHandle
from repro.faultsim.frameworks import NvBitFi
from repro.faultsim.outcomes import InjectionRecord, Outcome, StrikeEval
from repro.store.codec import decode_results, decode_value, encode_results, encode_value
from repro.store.fingerprint import STORE_SALT, chunk_fingerprint
from repro.store.policy import ExecutionPolicy
from repro.workloads.registry import get_workload


class TestRoundTrips:
    def test_outcome(self):
        for outcome in Outcome:
            assert decode_value(encode_value(outcome)) is outcome

    @pytest.mark.parametrize(
        "record",
        [
            InjectionRecord(group="gpr_output", outcome=Outcome.SDC, op=OpClass.FFMA, bit=17),
            InjectionRecord(group="address", outcome=Outcome.DUE, due_cause="illegal_address"),
            InjectionRecord(
                group="gpr_output",
                outcome=Outcome.DUE,
                due_cause="contained:RecursionError",
                contained=True,
            ),
            InjectionRecord(
                group="uncore:scheduler", outcome=Outcome.DUE, due_cause="scheduler_hang"
            ),
        ],
    )
    def test_injection_record(self, record):
        assert decode_value(encode_value(record)) == record

    @pytest.mark.parametrize(
        "evaluation",
        [
            StrikeEval(outcome=Outcome.MASKED),
            StrikeEval(outcome=Outcome.SDC),
            StrikeEval(outcome=Outcome.DUE, due_cause="ecc_dbe"),
            StrikeEval(outcome=Outcome.DUE, due_cause="contained:MemoryError", contained=True),
        ],
    )
    def test_strike_eval(self, evaluation):
        encoded = encode_value(evaluation)
        assert encoded["t"] == "strike_eval"
        assert decode_value(encoded) == evaluation

    def test_strike_eval_is_json_greppable(self):
        encoded = encode_value(StrikeEval(outcome=Outcome.DUE, due_cause="scheduler_hang"))
        # explicit JSON encoding, not the opaque pickle fallback
        assert encoded == {
            "t": "strike_eval",
            "outcome": "due",
            "due_cause": "scheduler_hang",
            "contained": False,
        }

    def test_mixed_sequence(self):
        values = [
            Outcome.MASKED,
            InjectionRecord(group="address", outcome=Outcome.DUE, due_cause="watchdog"),
            StrikeEval(outcome=Outcome.SDC),
            42,
            None,
            {"free": "form"},  # exercises the pickle fallback
        ]
        assert decode_results(encode_results(values)) == values

    def test_pre_contained_payload_decodes(self):
        """A record written before the ``contained`` field existed (or by a
        hand-edited store) still decodes, defaulting to not-contained."""
        legacy = {
            "t": "injection_record",
            "group": "address",
            "outcome": "due",
            "op": None,
            "bit": -1,
            "detail": "",
            "due_cause": "illegal_address",
        }
        record = decode_value(legacy)
        assert record.contained is False
        assert record.due_cause == "illegal_address"


class TestSaltBump:
    def test_salt_is_v5(self):
        """The salt moved with the schema: the store grew the campaign
        service's coordination record kinds (lease / heartbeat / tombstone
        / campaign registry rows) and chunk records gained lease
        provenance in their meta, so service-era stores must never be
        silently resumed by pre-service code that would misread (or
        clobber) the coordination rows."""
        assert STORE_SALT == "repro-store/5"

    def test_old_fingerprints_never_match(self):
        """Exactly the same chunk fingerprinted under a previous salt
        yields a different key, so an old store reads as all-misses."""
        context = CampaignContext(
            device=KEPLER_K40C,
            framework=NvBitFi(),
            ecc="on",
            root_seed=0,
            workload=WorkloadHandle.wrap(get_workload("kepler", "FMXM", seed=0)),
        )
        tasks = [
            InjectionTask(
                index=0, group="gpr_output", target_index=0, root_seed=0,
                rng_path=("campaign", "task", 0),
            )
        ]
        current = chunk_fingerprint(context, tasks)
        v1 = chunk_fingerprint(context, tasks, salt="repro-store/1")
        assert current != v1

    def test_on_crash_enters_fingerprint(self):
        """on_crash changes how crashing runs classify, so it must key the
        cache: the same tasks under a different policy are different chunks."""
        workload = WorkloadHandle.wrap(get_workload("kepler", "FMXM", seed=0))
        tasks = [
            InjectionTask(
                index=0, group="gpr_output", target_index=0, root_seed=0,
                rng_path=("campaign", "task", 0),
            )
        ]
        fingerprints = {
            chunk_fingerprint(
                CampaignContext(
                    device=KEPLER_K40C, framework=NvBitFi(), ecc="on", root_seed=0,
                    workload=workload, policy=ExecutionPolicy(on_crash=policy),
                ),
                tasks,
            )
            for policy in ("due", "quarantine", "raise")
        }
        assert len(fingerprints) == 3
