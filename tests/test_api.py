"""The ``repro`` facade: top-level surface, argument resolution, and the
single ``seed=`` RNG spelling."""

import warnings

import pytest

import repro
from repro.arch.devices import KEPLER_K40C, VOLTA_V100
from repro.arch.ecc import EccMode
from repro.beam.experiment import BeamExperiment
from repro.common.errors import ConfigurationError
from repro.faultsim.campaign import CampaignRunner
from repro.faultsim.frameworks import NvBitFi, Sassifi
from repro.workloads.base import Workload


# -- surface ----------------------------------------------------------------------


def test_facade_exports_the_blessed_surface():
    for name in (
        "run_campaign",
        "run_beam",
        "profile",
        "predict",
        "Session",
        "Config",
        "EccMode",
        "Outcome",
        "get_workload",
        "KEPLER_K40C",
    ):
        assert name in repro.__all__
        assert hasattr(repro, name)


def test_facade_matches_api_module():
    import repro.api

    for name in repro.api.__all__:
        assert getattr(repro, name) is getattr(repro.api, name)


# -- argument resolvers -----------------------------------------------------------


def test_as_device_accepts_names_and_specs():
    assert repro.as_device("kepler") is KEPLER_K40C
    assert repro.as_device("volta") is VOLTA_V100
    assert repro.as_device(VOLTA_V100) is VOLTA_V100


def test_as_device_falls_back_to_catalog():
    assert repro.as_device("K40c") is KEPLER_K40C


def test_as_workload_resolves_registry_codes():
    workload = repro.as_workload("FMXM", KEPLER_K40C, seed=3)
    assert isinstance(workload, Workload)
    assert workload.name == "FMXM"
    assert repro.as_workload(workload, KEPLER_K40C, seed=0) is workload


def test_as_framework_accepts_names_and_instances():
    assert isinstance(repro.as_framework("sassifi"), Sassifi)
    framework = NvBitFi()
    assert repro.as_framework(framework) is framework


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("on", EccMode.ON),
        ("OFF", EccMode.OFF),
        (True, EccMode.ON),
        (False, EccMode.OFF),
        (EccMode.OFF, EccMode.OFF),
    ],
)
def test_as_ecc_spellings(raw, expected):
    assert repro.as_ecc(raw) is expected


def test_as_ecc_rejects_nonsense():
    with pytest.raises(ConfigurationError):
        repro.as_ecc("sometimes")


# -- operations (smoke) -----------------------------------------------------------


def test_run_campaign_from_the_top_level():
    campaign = repro.run_campaign("FMXM", device="kepler", injections=20, seed=1)
    assert campaign.injections == 20
    assert campaign.workload == "FMXM"
    total = sum(campaign.avf(o) for o in repro.Outcome)
    assert total == pytest.approx(1.0)


def test_run_campaign_is_seed_deterministic():
    a = repro.run_campaign("FMXM", injections=15, seed=8)
    b = repro.run_campaign("FMXM", injections=15, seed=8)
    assert a.records == b.records


def test_run_beam_from_the_top_level():
    result = repro.run_beam(
        "FMXM", device="kepler", ecc="off", beam_hours=24, max_fault_evals=30, seed=2
    )
    assert result.workload == "FMXM"
    assert result.fit_sdc.value >= 0
    assert result.fluence_n_cm2 > 0


def test_profile_from_the_top_level():
    metrics = repro.profile("FMXM", device="kepler")
    assert 0 < metrics.achieved_occupancy <= 1.0
    assert metrics.phi > 0


def test_predict_from_the_top_level():
    session = repro.Session(
        repro.Config(injections=40, beam_fault_evals=40, memory_avf_strikes=8)
    )
    prediction, note = repro.predict("FMXM", device="kepler", ecc="on", session=session)
    assert prediction.fit_sdc >= 0
    assert isinstance(note, str)


def test_predict_rejects_workload_instances():
    workload = repro.get_workload("kepler", "FMXM", seed=0)
    with pytest.raises(ConfigurationError):
        repro.predict(workload)


def test_session_facade_is_experiment_session():
    from repro.experiments.session import ExperimentSession

    assert repro.Session is ExperimentSession
    session = repro.Session(repro.Config(injections=25))
    campaign = session.campaign("kepler", "nvbitfi", "FMXM")
    assert campaign.injections == 25


# -- seed unification -------------------------------------------------------------


def test_seed_only_emits_no_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        CampaignRunner(KEPLER_K40C, NvBitFi(), seed=3)
        BeamExperiment(KEPLER_K40C, seed=3)
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
