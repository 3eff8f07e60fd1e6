"""Pinned chunk fingerprints: existing stores must keep hitting.

A fingerprint is the content address of a stored chunk, so any change to
how contexts and tasks are canonicalised or encoded silently turns every
existing store into a cache miss.  The hex literals below were computed
by the per-chunk ``json.dumps`` of the whole document, before the batch
form (context encoded once, task lists spliced in) replaced it; they
cover the three engine contexts — campaigns under both injectors, a beam
run with the default Kepler cross-section catalog, a memory-AVF sweep —
and the replay-session descriptor a campaign stores its tape under.
"""

import pytest

from repro.arch.devices import KEPLER_K40C
from repro.beam.cross_sections import catalog_for
from repro.exec.tasks import (
    BeamEvalContext,
    BeamEvalTask,
    CampaignContext,
    InjectionTask,
    MemoryAvfContext,
    StrikeTask,
    WorkloadHandle,
)
from repro.faultsim.campaign import CampaignRunner
from repro.faultsim.frameworks import NvBitFi, Sassifi
from repro.store.fingerprint import STORE_SALT, chunk_fingerprint, chunk_fingerprints
from repro.workloads.registry import get_workload


def _fmxm():
    return WorkloadHandle.wrap(get_workload("kepler", "FMXM", seed=0))


def _campaign_context(framework):
    return CampaignContext(
        device=KEPLER_K40C, framework=framework, ecc="on", root_seed=0, workload=_fmxm()
    )


def _injection_chunks():
    tasks = [
        InjectionTask(
            index=i,
            group="op:FFMA" if i % 2 else "gpr_output",
            target_index=37 * i,
            root_seed=0,
            rng_path=("faultsim", "NVBitFI", "K40c", "FMXM", "task", i),
        )
        for i in range(7)
    ]
    return [tasks[0:3], tasks[3:6], tasks[6:7]]


def _beam_context():
    return BeamEvalContext(
        device=KEPLER_K40C,
        ecc="off",
        backend="cuda10",
        catalog=catalog_for(KEPLER_K40C),
        catalog_tag="default",
        workload=_fmxm(),
    )


def _beam_chunks():
    tasks = [
        BeamEvalTask(
            index=i,
            resource=("op:FFMA", "mem:global", "rf")[i % 3],
            root_seed=0,
            rng_path=("beam", "K40c", "FMXM", "strike", i),
        )
        for i in range(5)
    ]
    return [tasks[0:2], tasks[2:4], tasks[4:5]]


def _mem_avf_context():
    return MemoryAvfContext(device=KEPLER_K40C, backend="cuda10", workload=_fmxm())


def _strike_chunks():
    tasks = [
        StrikeTask(
            index=i,
            space=("rf", "global")[i % 2],
            tick=12.5 * i,
            root_seed=0,
            rng_path=("mem_avf", "K40c", "FMXM", i),
        )
        for i in range(4)
    ]
    return [tasks[0:2], tasks[2:4]]


CASES = {
    "campaign-sassifi": (
        lambda: _campaign_context(Sassifi()),
        _injection_chunks,
        [
            "9b38f8168142260a19e77c2a572d8ad8e984bb6aa88cf3c1c175d51de84c2931",
            "712114a552f24c3e4bf337ab5a0d024fe3377c476b72d4f9658356c4522d5268",
            "e1afeeef1fc35a60ac8e29b4201fdc282c4c1e53f6e8822b6caf153f77e096d4",
        ],
    ),
    "campaign-nvbitfi": (
        lambda: _campaign_context(NvBitFi()),
        _injection_chunks,
        [
            "c59f7bb6d646b312f90075dbaf896a6961d7cc0289988c2d05e5daf44f91de61",
            "cf49beb09f76b136b40a140755914add6464fef2071d6626fbb2bb6160688ed6",
            "90650d1edd9fbd4e0e846abc7f741409c76a9873915b9a1fcceff54d8507cc70",
        ],
    ),
    "beam-kepler-default-catalog": (
        _beam_context,
        _beam_chunks,
        [
            "359a62a07e553b78898de44d8a23841e483c5ef8221b5bdf7f22993384dfcd44",
            "c96b52b99ac6840345dbba0f6a2a85ab43eb6b7229799c0507c5aef2568b5356",
            "d7a309cb23e64aea4f199eb5e680262d003ab2ba1fa53f689108f712a2fac9b2",
        ],
    ),
    "mem-avf": (
        _mem_avf_context,
        _strike_chunks,
        [
            "75f2917cb5c477d046e90c7bf34e929ef1d1b3542f6a09fa459073b82c96311e",
            "6c5abc0cc27bc11595f6c872588d8cb15cab384f187635488c86f31ee22103e1",
        ],
    ),
}

SESSION_PIN = "4435047d219117c3786342f56e11fdea5b7a9e5cf56f663893fdb04f7d0b2520"


def test_salt_is_unchanged():
    assert STORE_SALT == "repro-store/5"


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_form_matches_pins(name):
    context, chunks, pins = CASES[name]
    assert chunk_fingerprints(context(), chunks()) == pins


@pytest.mark.parametrize("name", sorted(CASES))
def test_per_chunk_form_matches_batch_form(name):
    context, chunks, pins = CASES[name]
    ctx = context()
    assert [chunk_fingerprint(ctx, chunk) for chunk in chunks()] == pins


def test_replay_session_descriptor_pin():
    descriptor = {"replay_session": "FMXM", "fast_path": True, "snapshots_per_run": 16}
    context = _campaign_context(NvBitFi())
    assert chunk_fingerprint(context, [descriptor]) == SESSION_PIN
    # the key a campaign runner stores (and looks up) its replay tape under
    runner = CampaignRunner(KEPLER_K40C, NvBitFi(), seed=0)
    workload = get_workload("kepler", "FMXM", seed=0)
    assert runner._session_fingerprint(runner.campaign_context(workload), workload) == (
        SESSION_PIN
    )
