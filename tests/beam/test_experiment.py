"""Beam experiment protocol: fluence accounting, modes, FIT estimates."""

import pytest

from repro.arch.devices import KEPLER_K40C
from repro.arch.ecc import EccMode
from repro.beam.experiment import BeamExperiment
from repro.common.errors import ConfigurationError
from repro.faultsim.outcomes import Outcome
from repro.microbench.registry import get_microbench
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def experiment():
    return BeamExperiment(KEPLER_K40C, seed=0)


class TestExpectedMode:
    def test_deterministic(self, experiment):
        wl = get_microbench("kepler", "FADD", seed=0)
        a = experiment.run(wl, beam_hours=72, mode="expected", max_fault_evals=60)
        b = experiment.run(
            get_microbench("kepler", "FADD", seed=0),
            beam_hours=72, mode="expected", max_fault_evals=60,
        )
        assert a.fit_sdc.value == pytest.approx(b.fit_sdc.value)
        assert a.fit_due.value == pytest.approx(b.fit_due.value)

    def test_fit_independent_of_beam_hours(self, experiment):
        """FIT = errors/fluence must not depend on exposure length (§III-C)."""
        wl = get_microbench("kepler", "IADD", seed=0)
        short = experiment.run(wl, beam_hours=10, mode="expected", max_fault_evals=60)
        long = experiment.run(wl, beam_hours=100, mode="expected", max_fault_evals=60)
        assert short.fit_sdc.value == pytest.approx(long.fit_sdc.value, rel=1e-6)

    def test_breakdown_normalized(self, experiment):
        wl = get_workload("kepler", "FMXM", seed=0)
        result = experiment.run(wl, ecc=EccMode.OFF, beam_hours=72, mode="expected", max_fault_evals=80)
        shares = result.breakdown(Outcome.SDC)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_memory_dominates_ecc_off(self, experiment):
        """§VII: with ECC disabled the memory contribution dominates."""
        wl = get_workload("kepler", "FMXM", seed=0)
        result = experiment.run(wl, ecc=EccMode.OFF, beam_hours=72, mode="expected", max_fault_evals=80)
        shares = result.breakdown(Outcome.SDC)
        mem_share = sum(v for k, v in shares.items() if k.startswith("mem:"))
        assert mem_share > 0.5

    def test_ecc_cuts_sdc(self, experiment):
        wl = get_workload("kepler", "FHOTSPOT", seed=0)
        off = experiment.run(wl, ecc=EccMode.OFF, beam_hours=72, mode="expected", max_fault_evals=80)
        on = experiment.run(wl, ecc=EccMode.ON, beam_hours=72, mode="expected", max_fault_evals=80)
        assert off.fit_sdc.value > 2.0 * on.fit_sdc.value


class TestMonteCarloMode:
    def test_counts_within_interval(self, experiment):
        wl = get_workload("kepler", "FMXM", seed=0)
        result = experiment.run(wl, ecc=EccMode.ON, beam_hours=72, mode="montecarlo", max_fault_evals=120)
        assert result.fit_sdc.lower <= result.fit_sdc.value <= result.fit_sdc.upper
        assert result.errors >= 0

    def test_mc_tracks_expected(self, experiment):
        wl = get_workload("kepler", "FMXM", seed=0)
        expected = experiment.run(wl, ecc=EccMode.ON, beam_hours=72, mode="expected", max_fault_evals=100)
        mc = experiment.run(wl, ecc=EccMode.ON, beam_hours=72, mode="montecarlo", max_fault_evals=150)
        # same order of magnitude
        assert mc.fit_sdc.value == pytest.approx(expected.fit_sdc.value, rel=2.0)

    def test_single_fault_regime_reported(self, experiment):
        wl = get_microbench("kepler", "FADD", seed=0)
        result = experiment.run(wl, beam_hours=72, mode="montecarlo", max_fault_evals=60)
        assert isinstance(result.single_fault_regime, bool)


class TestValidation:
    def test_bad_hours(self, experiment):
        with pytest.raises(ConfigurationError):
            experiment.run(get_microbench("kepler", "FADD"), beam_hours=0)

    def test_bad_mode(self, experiment):
        with pytest.raises(ConfigurationError):
            experiment.run(get_microbench("kepler", "FADD"), mode="exact")

    def test_result_metadata(self, experiment):
        wl = get_microbench("kepler", "LDST", seed=0)
        result = experiment.run(wl, beam_hours=24, mode="expected", max_fault_evals=60)
        assert result.workload == "LDST"
        assert result.device == KEPLER_K40C.name
        assert result.beam_hours == 24
        assert result.fluence_n_cm2 > 0


class TestGoldenLifetime:
    def test_cached_engine_keeps_no_golden_context(self, experiment):
        """The engine a run leaves in the worker state cache keeps its
        golden outputs and trace, not the golden run's memory pool and
        register ring: the footprint bits are read once, then dropped."""
        from repro.beam.engine import BeamEngine
        from repro.exec.worker import _STATE_CACHE

        wl = get_workload("kepler", "FMXM", seed=2)
        experiment.run(wl, ecc=EccMode.OFF, beam_hours=4, mode="expected", max_fault_evals=8)
        (engine,) = [
            state for state in _STATE_CACHE.values()
            if isinstance(state, BeamEngine) and state.workload is wl
        ]
        assert engine.golden.context is None
        assert engine.golden.ticks > 0
        assert engine.target.footprint_bits["global"] > 0
