"""Exposure profiles: reference-scale resource accounting."""

import pytest

from repro.arch.devices import KEPLER_K40C, VOLTA_V100
from repro.arch.ecc import EccMode
from repro.arch.isa import OpClass, unit_for, unit_throughput
from repro.arch.units import UnitKind
from repro.beam.cross_sections import catalog_for
from repro.beam.engine import BeamEngine
from repro.beam.exposure import compute_exposure
from repro.microbench.registry import get_microbench
from repro.workloads.registry import get_workload


def _profile(arch, code, device, microbench=False, ecc=EccMode.ON):
    wl = get_microbench(arch, code) if microbench else get_workload(arch, code)
    catalog = catalog_for(device)
    engine = BeamEngine(device, wl, catalog, ecc)
    profile = compute_exposure(
        device, wl, engine.golden, catalog, engine.target.footprint_bits
    )
    return profile, wl, catalog


class TestStructure:
    def test_all_sections_positive(self):
        profile, _, _ = _profile("kepler", "FMXM", KEPLER_K40C)
        assert all(v > 0 for v in profile.op_sigma_eff.values())
        assert all(v > 0 for v in profile.storage_sigma_eff.values())
        assert all(v > 0 for v in profile.hidden_sigma_eff.values())
        assert profile.total_sigma == pytest.approx(sum(profile.as_rates().values()))

    def test_exec_seconds_positive(self):
        profile, _, _ = _profile("kepler", "CCL", KEPLER_K40C)
        assert profile.exec_seconds > 0

    def test_flat_keys_parse(self):
        profile, _, _ = _profile("kepler", "FMXM", KEPLER_K40C)
        for key in profile.as_rates():
            kind, _, name = key.partition(":")
            assert kind in ("op", "mem", "hidden")
            assert name


class TestCaps:
    def test_inflight_capped_by_pipeline_capacity(self):
        """No code can keep more lane-ops in flight than the pipelines of
        the physically present units can hold."""
        profile, wl, catalog = _profile("kepler", "FMXM", KEPLER_K40C)
        for op, sigma_eff in profile.op_sigma_eff.items():
            inflight = sigma_eff / catalog.sigma_for_op(op)
            unit = unit_for(op, "kepler")
            residency = 32.0 if op.is_memory else 8.0
            capacity = unit_throughput(unit, "kepler") * KEPLER_K40C.sm_count * residency
            assert inflight <= capacity + 1e-6

    def test_rf_bits_capped_by_device(self):
        profile, _, catalog = _profile("volta", "DLAVA", VOLTA_V100)
        rf_bits = profile.storage_sigma_eff[UnitKind.REGISTER_FILE] / catalog.bit_sigma[UnitKind.REGISTER_FILE]
        assert rf_bits <= VOLTA_V100.storage_bits(UnitKind.REGISTER_FILE)

    def test_rf_microbench_fills_register_file(self):
        """The RF benchmark is designed to expose ~the whole RF (§V-A)."""
        profile, wl, catalog = _profile("kepler", "RF", KEPLER_K40C, microbench=True)
        rf_bits = profile.storage_sigma_eff[UnitKind.REGISTER_FILE] / catalog.bit_sigma[UnitKind.REGISTER_FILE]
        # pattern registers per thread × resident threads
        assert rf_bits == pytest.approx(wl.beam_rf_registers * 3840 * 32, rel=0.1)


class TestParallelismSensitivity:
    def test_mxm_keeps_more_ops_in_flight_than_nw(self):
        """§III-C / §IV-B: parallel, saturated codes keep far more
        operations simultaneously in flight than wavefront codes (the
        σ-free utilization claim; NW's higher per-op INT sensitivity is a
        separate, orthogonal effect)."""
        mxm, _, catalog = _profile("kepler", "FMXM", KEPLER_K40C)
        nw, _, _ = _profile("kepler", "NW", KEPLER_K40C)

        def total_inflight(profile):
            return sum(
                v / catalog.sigma_for_op(op) for op, v in profile.op_sigma_eff.items()
            )

        assert total_inflight(mxm) > 2.0 * total_inflight(nw)

    def test_host_chatty_code_exposes_host_interface_more(self):
        """BFS reads back a flag every level; MxM syncs once."""
        bfs, _, _ = _profile("kepler", "BFS", KEPLER_K40C)
        mxm, _, _ = _profile("kepler", "FMXM", KEPLER_K40C)
        assert (
            bfs.hidden_sigma_eff[UnitKind.HOST_INTERFACE]
            > mxm.hidden_sigma_eff[UnitKind.HOST_INTERFACE]
        )

    def test_tensor_code_exposes_tensor_ops(self):
        profile, _, _ = _profile("volta", "HGEMM-MMA", VOLTA_V100)
        assert OpClass.HMMA in profile.op_sigma_eff
        assert profile.op_sigma_eff[OpClass.HMMA] > profile.op_sigma_eff.get(OpClass.IADD, 0.0)
