"""The resume contract: a campaign killed after K chunks and resumed is
byte-identical — records and domain telemetry — to an uninterrupted run,
for both backends, serial and process execution, ECC on and off."""

import pytest

import repro.api as api
import repro.faultsim.campaign as campaign_mod
from repro.arch.ecc import EccMode
from repro.store import ExecutionPolicy, open_store
from repro.telemetry import telemetry_session

INJECTIONS = 24
#: bookkeeping the store/engine adds; everything else ("domain" telemetry:
#: campaign.*, sim.*, beam.*, ...) must be bit-identical under resume
_BOOKKEEPING = ("store.", "exec.chunk_retries", "span.checkpoint.")


def _domain(counters):
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith(_BOOKKEEPING)
    }


def _signature(result):
    return [
        (r.group, r.outcome, r.op, r.bit, r.detail, r.due_cause)
        for r in result.records
    ]


def _policy(store, refresh=False):
    if store is None:
        return None
    return ExecutionPolicy(store=open_store(store), refresh=refresh)


def _run(store=None, *, seed=1, workers=1, ecc="on", on_result=None, refresh=False, **kwargs):
    with telemetry_session() as telemetry:
        result = api.run_campaign(
            "FMXM",
            device="kepler",
            injections=INJECTIONS,
            seed=seed,
            ecc=ecc,
            workers=workers,
            policy=_policy(store, refresh),
            on_result=on_result,
            **kwargs,
        )
        counters = dict(telemetry.registry.counters)
    return result, counters


class _Interrupt(RuntimeError):
    """Stands in for SIGKILL/Ctrl-C at a deterministic point."""


@pytest.mark.parametrize("backend", ["sqlite", "jsonl"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("ecc", ["on", "off"])
def test_interrupted_campaign_resumes_bit_identical(tmp_path, backend, workers, ecc):
    store_path = str(tmp_path / f"campaign.{'jsonl' if backend == 'jsonl' else 'sqlite'}")

    # ground truth: one uninterrupted, storeless run
    baseline, baseline_counters = _run(workers=workers, ecc=ecc)

    # "crash" partway through: abort after K completed evaluations
    seen = {"n": 0}

    def killer(_record):
        seen["n"] += 1
        if seen["n"] >= INJECTIONS // 3:
            raise _Interrupt("simulated crash")

    with pytest.raises(_Interrupt):
        _run(store_path, workers=workers, ecc=ecc, on_result=killer)

    # resume: completed chunks replay from the store, the rest execute
    resumed, resumed_counters = _run(store_path, workers=workers, ecc=ecc)
    assert _signature(resumed) == _signature(baseline)
    assert resumed_counters.get("store.hits", 0) >= 1
    assert _domain(resumed_counters) == _domain(baseline_counters)

    # a second warm pass is a pure replay, still bit-identical
    replayed, replay_counters = _run(store_path, workers=workers, ecc=ecc)
    assert _signature(replayed) == _signature(baseline)
    assert replay_counters.get("store.misses", 0) == 0
    assert replay_counters.get("store.commits", 0) == 0
    assert _domain(replay_counters) == _domain(baseline_counters)


@pytest.mark.parametrize("backend", ["sqlite", "jsonl"])
def test_warm_cache_makes_zero_simulator_invocations(tmp_path, backend, monkeypatch):
    store_path = str(tmp_path / f"warm.{'jsonl' if backend == 'jsonl' else 'sqlite'}")
    first, _ = _run(store_path)

    def forbidden(*args, **kwargs):
        raise AssertionError("chunk evaluated despite a warm cache")

    monkeypatch.setattr(campaign_mod, "run_injection_chunk", forbidden)
    warm, counters = _run(store_path)
    assert _signature(warm) == _signature(first)
    assert counters.get("store.misses", 0) == 0
    assert counters.get("store.commits", 0) == 0
    assert counters["store.tasks_replayed"] == INJECTIONS


def test_changed_seed_and_config_miss(tmp_path):
    store_path = str(tmp_path / "miss.sqlite")
    _run(store_path, seed=1)

    _, other_seed = _run(store_path, seed=2)
    assert other_seed.get("store.hits", 0) == 0
    assert other_seed.get("store.misses", 0) >= 1

    _, other_ecc = _run(store_path, seed=1, ecc="off")
    assert other_ecc.get("store.hits", 0) == 0

    _, other_fw = _run(store_path, seed=1, framework="sassifi")
    assert other_fw.get("store.hits", 0) == 0


def test_refresh_forces_recompute(tmp_path):
    store_path = str(tmp_path / "refresh.sqlite")
    first, _ = _run(store_path)
    refreshed, counters = _run(store_path, refresh=True)
    assert _signature(refreshed) == _signature(first)
    assert counters.get("store.hits", 0) == 0
    assert counters["store.commits"] >= 1
    # the refreshed entries serve the next warm read
    _, warm = _run(store_path)
    assert warm.get("store.misses", 0) == 0


def test_resume_without_store_is_rejected(tmp_path):
    from repro.common.errors import ConfigurationError

    # resuming and refreshing both act on a store: a storeless policy
    # never reads one, and refresh without a store is a configuration error
    assert not ExecutionPolicy().read_allowed
    with pytest.raises(ConfigurationError, match="requires a store"):
        ExecutionPolicy(refresh=True)
    refreshing = ExecutionPolicy(store=open_store(tmp_path / "r.sqlite"), refresh=True)
    assert refreshing.write_allowed and not refreshing.read_allowed


def test_beam_run_resumes_from_store(tmp_path):
    store_path = str(tmp_path / "beam.sqlite")

    def beam(**kwargs):
        with telemetry_session() as telemetry:
            result = api.run_beam(
                "FMXM", device="kepler", ecc="off", beam_hours=4.0,
                mode="expected", max_fault_evals=24, seed=3, **kwargs,
            )
            return result, dict(telemetry.registry.counters)

    baseline, _ = beam()
    first, cold = beam(policy=_policy(store_path))
    assert cold["store.commits"] >= 1
    warm, counters = beam(policy=_policy(store_path))
    assert counters.get("store.misses", 0) == 0
    assert warm.fit_sdc.value == baseline.fit_sdc.value == first.fit_sdc.value
    assert warm.fit_due.value == baseline.fit_due.value
    assert {r: (t.faults, t.sdc, t.due) for r, t in warm.tallies.items()} == {
        r: (t.faults, t.sdc, t.due) for r, t in baseline.tallies.items()
    }


def test_memory_avf_resumes_from_store(tmp_path):
    from repro.arch.devices import KEPLER_K40C
    from repro.predict.model import measure_memory_avf
    from repro.workloads.registry import get_workload

    store_path = str(tmp_path / "avf.jsonl")
    workload = get_workload("kepler", "FMXM", seed=4)
    baseline = measure_memory_avf(KEPLER_K40C, workload, strikes=16, seed=4)
    with telemetry_session():
        cold = measure_memory_avf(
            KEPLER_K40C, workload, strikes=16, seed=4, policy=_policy(store_path)
        )
    with telemetry_session() as telemetry:
        warm = measure_memory_avf(
            KEPLER_K40C, workload, strikes=16, seed=4, policy=_policy(store_path)
        )
        counters = telemetry.registry.counters
    assert cold == warm == baseline
    assert counters.get("store.misses", 0) == 0
    assert counters["store.tasks_replayed"] == 16.0


def test_session_threads_policy_through_config(tmp_path):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.session import ExperimentSession

    config = ExperimentConfig(
        seed=5, injections=INJECTIONS, policy=_policy(str(tmp_path / "sess.sqlite"))
    )
    with telemetry_session() as t1:
        first = ExperimentSession(config).campaign("kepler", "nvbitfi", "FMXM")
        cold = dict(t1.registry.counters)
    assert cold["store.commits"] >= 1
    with telemetry_session() as t2:
        second = ExperimentSession(config).campaign("kepler", "nvbitfi", "FMXM")
        warm = dict(t2.registry.counters)
    assert _signature(first) == _signature(second)
    assert warm.get("store.misses", 0) == 0


class _Kill(BaseException):
    """Stands in for SIGKILL inside a chunk: no retry or quarantine sees it."""


def _uncore(store=None, **kwargs):
    from repro.arch.devices import KEPLER_K40C
    from repro.arch.uncore import UncoreFitTable, UncoreUnitRates
    from repro.faultsim.uncore import UNCORE_EXCEPTIONS, UncoreInjector

    # most faults leak into architectural state, so most injections execute
    table = UncoreFitTable(
        architecture="kepler",
        units={
            unit: UncoreUnitRates(fit_per_instance=1.0, p_due=0.2, p_sdc=0.6)
            for unit in UNCORE_EXCEPTIONS
        },
    )
    workload = api.get_workload("kepler", "FMXM", seed=2)
    with telemetry_session() as telemetry:
        injector = UncoreInjector(
            KEPLER_K40C, seed=2, table=table, policy=_policy(store), **kwargs
        )
        result = injector.run(workload, INJECTIONS)
        counters = dict(telemetry.registry.counters)
    return result, counters


@pytest.mark.parametrize("backend", ["sqlite", "jsonl"])
def test_interrupted_uncore_run_resumes_bit_identical(tmp_path, backend, monkeypatch):
    import repro.faultsim.uncore as uncore_mod

    store_path = str(tmp_path / f"uncore.{backend}")
    baseline, baseline_counters = _uncore()

    real_chunk = uncore_mod.run_uncore_chunk
    calls = {"n": 0}

    def dies_at_the_third_chunk(context, tasks):
        calls["n"] += 1
        if calls["n"] == 3:
            raise _Kill()
        return real_chunk(context, tasks)

    monkeypatch.setattr(uncore_mod, "run_uncore_chunk", dies_at_the_third_chunk)
    with pytest.raises(_Kill):
        _uncore(store_path)

    monkeypatch.setattr(uncore_mod, "run_uncore_chunk", real_chunk)
    resumed, counters = _uncore(store_path)
    assert _signature(resumed) == _signature(baseline)
    assert counters["store.hits"] == 2
    assert _domain(counters) == _domain(baseline_counters)

    def forbidden(*args, **kwargs):
        raise AssertionError("chunk evaluated despite a warm cache")

    monkeypatch.setattr(uncore_mod, "run_uncore_chunk", forbidden)
    warm, warm_counters = _uncore(store_path)
    assert _signature(warm) == _signature(baseline)
    assert warm_counters.get("store.misses", 0) == 0
    assert warm_counters["store.tasks_replayed"] == INJECTIONS
    assert _domain(warm_counters) == _domain(baseline_counters)
