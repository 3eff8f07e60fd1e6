"""ExecutionPolicy: the one run-shaping object, with one spelling per knob.

``run_campaign``/``run_beam``/``predict``, the engines, the memory-AVF and
micro-benchmark sweeps and ``ExperimentConfig`` take exactly one
``policy=ExecutionPolicy(...)``.  These tests pin that contract:

* the fields have plain defaults and validate in ``__post_init__``;
* no surface still accepts a removed per-knob kwarg or ``rngs=``;
* replay sessions persist into the content-addressed store; a later
  serial run against the same store loads one only when a chunk misses,
  a parallel one before its pool forks, and either imports it instead of
  re-capturing;
* a runner the worker state cache keeps for a repeated context loads and
  saves its tape through the store of the run it currently serves.
"""

import dataclasses
import inspect
import multiprocessing
import os

import pytest

import repro.api as api
import repro.exec.worker as worker_mod
from repro.api import ExecutionPolicy, get_workload, predict
from repro.arch.devices import KEPLER_K40C
from repro.beam.engine import BeamEngine
from repro.beam.experiment import BeamExperiment
from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.session import ExperimentSession
from repro.faultsim import campaign as campaign_mod
from repro.faultsim.campaign import CampaignRunner
from repro.faultsim.carolfi import CarolFi
from repro.faultsim.frameworks import NvBitFi
from repro.faultsim.uncore import UncoreInjector
from repro.predict.model import measure_memory_avf, measure_microbench_fits
from repro.sim.replay import ReplaySession
from repro.store import ServicePolicy, open_store

#: the per-knob kwargs that ExecutionPolicy replaced
POLICY_KWARGS = {"store", "resume", "refresh", "retries", "backoff", "on_crash"}


class TestExecutionPolicy:
    def test_replay_defaults_to_auto(self):
        # "auto": replay on, with the per-run vanilla fallback built in
        policy = ExecutionPolicy()
        assert policy.replay is True
        assert policy.batch_eval is True
        assert policy.snapshots_per_run == 16
        assert policy.on_crash == "due"
        assert policy.service == ServicePolicy()

    def test_snapshots_per_run_validates(self):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(snapshots_per_run=0)


class TestOneSpelling:
    @pytest.mark.parametrize(
        "surface, removed",
        [
            pytest.param(api.run_campaign, POLICY_KWARGS, id="api.run_campaign"),
            pytest.param(api.run_beam, POLICY_KWARGS, id="api.run_beam"),
            pytest.param(api.predict, POLICY_KWARGS, id="api.predict"),
            pytest.param(campaign_mod.run_campaign, POLICY_KWARGS, id="faultsim.run_campaign"),
            pytest.param(CampaignRunner, POLICY_KWARGS | {"rngs"}, id="CampaignRunner"),
            pytest.param(BeamExperiment, POLICY_KWARGS | {"rngs"}, id="BeamExperiment"),
            pytest.param(measure_memory_avf, POLICY_KWARGS, id="measure_memory_avf"),
            pytest.param(measure_microbench_fits, POLICY_KWARGS, id="measure_microbench_fits"),
            pytest.param(CarolFi, {"rngs", "batch_eval"}, id="CarolFi"),
            pytest.param(UncoreInjector, {"rngs", "batch_eval"}, id="UncoreInjector"),
            pytest.param(BeamEngine, {"batch_eval"}, id="BeamEngine"),
        ],
    )
    def test_removed_names_are_not_accepted(self, surface, removed):
        assert not removed & set(inspect.signature(surface).parameters)

    def test_config_and_policy_carry_no_legacy_fields(self):
        config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert not POLICY_KWARGS & config_fields
        assert "resume" not in {f.name for f in dataclasses.fields(ExecutionPolicy)}

    def test_campaign_runner_takes_ecc_third(self):
        from repro.arch.ecc import EccMode

        runner = CampaignRunner(KEPLER_K40C, NvBitFi(), EccMode.OFF, seed=2)
        assert runner.ecc is EccMode.OFF
        assert runner.rngs.root_seed == 2

    def test_experiment_config_accepts_policy(self):
        config = ExperimentConfig(policy=ExecutionPolicy(on_crash="quarantine"))
        session = ExperimentSession(config)
        assert session.policy.on_crash == "quarantine"

    def test_predict_rejects_policy_with_session(self):
        with pytest.raises(ConfigurationError):
            predict("FMXM", session=ExperimentSession(), policy=ExecutionPolicy())


def _sessions(runner):
    """The replay sessions a runner's injection targets have created."""
    return [t.session for t in runner._targets.values() if t.session is not None]


class TestReplaySessionPersistence:
    def test_session_snapshot_round_trips_through_store(self, tmp_path, monkeypatch):
        workload = get_workload("kepler", "FMXM", seed=4)
        store_path = str(tmp_path / "replay.sqlite")

        cold_policy = ExecutionPolicy(store=open_store(store_path))
        runner = CampaignRunner(KEPLER_K40C, NvBitFi(), seed=4, policy=cold_policy)
        cold = runner.run(workload, 10)

        backend = cold_policy.store.backend
        kinds = {fp: backend.get(fp).kind for fp in backend.fingerprints()}
        assert list(kinds.values()).count("replay_session") == 1

        imports = []
        real_import = ReplaySession.import_state

        def counting_import(session, payload):
            imports.append(session)
            return real_import(session, payload)

        monkeypatch.setattr(ReplaySession, "import_state", counting_import)

        def rerun():
            # a fresh process: no runner (nor its session) survives in the
            # worker state cache from the run before
            worker_mod._STATE_CACHE.clear()
            policy = ExecutionPolicy(store=open_store(store_path))
            rerunner = CampaignRunner(KEPLER_K40C, NvBitFi(), seed=4, policy=policy)
            result = rerunner.run(workload, 10)
            assert [r.outcome for r in result.records] == [r.outcome for r in cold.records]
            return rerunner

        # fully warm: every chunk is served, so no session is ever created
        # and the stored tape is never loaded
        warm_runner = rerun()
        assert _sessions(warm_runner) == []
        assert imports == []

        # one chunk missing: the session created to evaluate it imports the
        # stored tape instead of capturing the golden run again
        victim = next(fp for fp, kind in kinds.items() if kind == "campaign")
        cold_policy.store.quarantine(victim, "campaign", "knocked out", attempts=1)
        partial_runner = rerun()
        sessions = _sessions(partial_runner)
        assert len(sessions) == 1 and imports == sessions
        assert sessions[0].stats["captures"] == 0
        assert sessions[0].export_state() is not None

    def test_repeated_context_saves_its_tape_to_each_store(self, tmp_path, monkeypatch):
        """A second same-context campaign in one process evaluates on the
        runner the first one left in the state cache.  That runner's tape
        must reach the second run's store too, without being captured
        again."""
        workload = get_workload("kepler", "FMXM", seed=4)
        worker_mod._STATE_CACHE.clear()
        captures = []
        real_capture = ReplaySession._capture

        def counting_capture(session, thresholds):
            captures.append(session)
            return real_capture(session, thresholds)

        monkeypatch.setattr(ReplaySession, "_capture", counting_capture)
        tapes = []
        for name in ("first.sqlite", "second.sqlite"):
            policy = ExecutionPolicy(store=open_store(str(tmp_path / name)))
            CampaignRunner(KEPLER_K40C, NvBitFi(), seed=4, policy=policy).run(workload, 10)
            backend = policy.store.backend
            tapes.append(
                [backend.get(fp).kind for fp in backend.fingerprints()].count("replay_session")
            )
            if name == "first.sqlite":
                first_captures = len(captures)
        assert tapes == [1, 1]
        assert first_captures >= 1 and len(captures) == first_captures

    def test_cached_runner_loads_its_tape_through_the_current_store(
        self, tmp_path, monkeypatch
    ):
        """A runner cached by a fully warm run (no session yet) that later
        evaluates a missing chunk imports the tape through *that* run's
        store, not the earlier run's closed handle."""
        workload = get_workload("kepler", "FMXM", seed=4)
        store_path = str(tmp_path / "replay.sqlite")
        worker_mod._STATE_CACHE.clear()
        cold = ExecutionPolicy(store=open_store(store_path))
        CampaignRunner(KEPLER_K40C, NvBitFi(), seed=4, policy=cold).run(workload, 10)
        worker_mod._STATE_CACHE.clear()
        warm = ExecutionPolicy(store=open_store(store_path))
        warm_runner = CampaignRunner(KEPLER_K40C, NvBitFi(), seed=4, policy=warm)
        warm_runner.run(workload, 10)
        assert _sessions(warm_runner) == []
        warm.store.close()

        backend = cold.store.backend
        victim = next(fp for fp in backend.fingerprints() if backend.get(fp).kind == "campaign")
        cold.store.quarantine(victim, "campaign", "knocked out", attempts=1)
        captures = []
        real_capture = ReplaySession._capture

        def counting_capture(session, thresholds):
            captures.append(session)
            return real_capture(session, thresholds)

        monkeypatch.setattr(ReplaySession, "_capture", counting_capture)
        CampaignRunner(
            KEPLER_K40C, NvBitFi(), seed=4,
            policy=ExecutionPolicy(store=open_store(store_path)),
        ).run(workload, 10)
        (session,) = _sessions(warm_runner)  # the cached runner evaluated
        assert captures == [] and session.stats["captures"] == 0

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers inherit the parent's session only when forked",
    )
    def test_parallel_resume_imports_the_tape_before_the_pool_forks(
        self, tmp_path, monkeypatch
    ):
        workload = get_workload("kepler", "FMXM", seed=4)
        store_path = str(tmp_path / "replay.sqlite")
        # a serial run stores the tape (a parallel one captures it in its
        # workers, where it cannot be saved)
        cold = CampaignRunner(
            KEPLER_K40C, NvBitFi(), seed=4,
            policy=ExecutionPolicy(store=open_store(store_path)),
        ).run(workload, 16)

        # _capture runs in whichever process records a tape, so log the pid
        log = tmp_path / "captures.log"
        real_capture = ReplaySession._capture

        def logged_capture(session, thresholds):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return real_capture(session, thresholds)

        monkeypatch.setattr(ReplaySession, "_capture", logged_capture)
        worker_mod._STATE_CACHE.clear()
        # workers=2 partitions the tasks differently, so every chunk misses
        runner = CampaignRunner(
            KEPLER_K40C, NvBitFi(), seed=4, workers=2,
            policy=ExecutionPolicy(store=open_store(store_path)),
        )
        try:
            resumed = runner.run(workload, 16)
        finally:
            runner.executor.close()
        assert [r.outcome for r in resumed.records] == [r.outcome for r in cold.records]
        assert not log.exists()  # no process captured the golden run again
        (session,) = _sessions(runner)
        assert session.stats["captures"] == 0
        assert session.export_state() is not None
