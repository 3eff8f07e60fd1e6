"""Beam engine: per-resource outcome evaluation."""

import numpy as np
import pytest

from repro.arch.devices import KEPLER_K40C
from repro.arch.ecc import EccMode
from repro.arch.isa import OpClass
from repro.arch.units import UnitKind
from repro.beam.cross_sections import KEPLER_CATALOG
from repro.beam.engine import BeamEngine
from repro.common.errors import ConfigurationError
from repro.faultsim.outcomes import Outcome
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def engine_on():
    return BeamEngine(KEPLER_K40C, get_workload("kepler", "FMXM", seed=1), KEPLER_CATALOG, EccMode.ON)


@pytest.fixture(scope="module")
def engine_off():
    return BeamEngine(KEPLER_K40C, get_workload("kepler", "FMXM", seed=1), KEPLER_CATALOG, EccMode.OFF)


class TestOpFaults:
    def test_ffma_faults_often_sdc(self, engine_on):
        rng = np.random.default_rng(0)
        outcomes = [engine_on.op_fault_eval(OpClass.FFMA, rng).outcome for _ in range(30)]
        assert outcomes.count(Outcome.SDC) > 5

    def test_never_executed_op_rejected(self, engine_on):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            engine_on.op_fault_eval(OpClass.HMMA, rng)

    def test_lsu_faults_mix_addresses_and_values(self, engine_on):
        rng = np.random.default_rng(2)
        outcomes = [engine_on.op_fault_eval(OpClass.LDG, rng).outcome for _ in range(40)]
        assert Outcome.DUE in outcomes  # wild/illegal addresses


class TestStorageFaults:
    def test_ecc_on_short_circuits(self, engine_on):
        rng = np.random.default_rng(3)
        outcomes = [engine_on.storage_fault_eval(UnitKind.REGISTER_FILE, rng).outcome for _ in range(300)]
        due = outcomes.count(Outcome.DUE)
        assert outcomes.count(Outcome.SDC) == 0       # corrected, never delivered
        assert 0 < due < 30                            # ~2% MBU detections

    def test_ecc_off_mechanistic(self, engine_off):
        rng = np.random.default_rng(4)
        outcomes = [engine_off.storage_fault_eval(UnitKind.DEVICE_MEMORY, rng).outcome for _ in range(25)]
        assert Outcome.SDC in outcomes  # input corruption reaches C

    def test_non_storage_rejected(self, engine_on):
        with pytest.raises(ConfigurationError):
            engine_on.storage_fault_eval(UnitKind.FP32, np.random.default_rng(0))


class TestHiddenFaults:
    def test_mixture_statistics(self, engine_on):
        rng = np.random.default_rng(5)
        outcomes = [engine_on.hidden_fault_eval(UnitKind.SCHEDULER, rng).outcome for _ in range(1000)]
        model = KEPLER_CATALOG.hidden_outcomes[UnitKind.SCHEDULER]
        assert outcomes.count(Outcome.DUE) / 1000 == pytest.approx(model.p_due, abs=0.05)
        assert outcomes.count(Outcome.SDC) / 1000 == pytest.approx(model.p_sdc, abs=0.03)

    def test_non_hidden_rejected(self, engine_on):
        with pytest.raises(ConfigurationError):
            engine_on.hidden_fault_eval(UnitKind.FP32, np.random.default_rng(0))


class TestDispatch:
    def test_resource_keys(self, engine_on):
        rng = np.random.default_rng(6)
        assert engine_on.evaluate_detailed("op:FFMA", rng).outcome in Outcome
        assert engine_on.evaluate_detailed("mem:register_file", rng).outcome in Outcome
        assert engine_on.evaluate_detailed("hidden:scheduler", rng).outcome in Outcome

    def test_unknown_key(self, engine_on):
        with pytest.raises(ConfigurationError):
            engine_on.evaluate_detailed("bogus:thing", np.random.default_rng(0))

    def test_golden_cached(self, engine_on):
        assert engine_on.golden is engine_on.golden
