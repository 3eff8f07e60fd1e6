"""Exposure profile: how much of each resource a running code presents
to the beam, per unit fluence.

For every resource class the *effective cross-section* is

    Σ_eff(r) = σ(r) × exposure(r)

where exposure is a dimensionless count: average in-flight lane-operations
for functional-unit datapaths (lane-ops ÷ total cycles — this is where the
paper's observation that parallel work raises the FIT while sequential work
does not, §III-C, becomes arithmetic), allocated bits for storage, and
activity-scaled instance counts for hidden resources.

Expected faults in resource r over a fluence Φ:  N_r = Φ × Σ_eff(r).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.arch.devices import DeviceSpec
from repro.arch.isa import OpClass, unit_for, unit_throughput
from repro.arch.units import UnitKind
from repro.beam.cross_sections import CrossSectionCatalog
from repro.common.errors import ConfigurationError
from repro.sim.launch import KernelRun
from repro.sim.timing import TimingModel
from repro.telemetry import get_logger
from repro.workloads.base import Workload

_log = get_logger("beam.exposure")


@dataclass(frozen=True)
class ExposureProfile:
    """Effective cross-sections (cm²) for one running workload."""

    #: per instruction class (functional-unit datapaths)
    op_sigma_eff: Mapping[OpClass, float]
    #: per storage structure
    storage_sigma_eff: Mapping[UnitKind, float]
    #: per hidden resource
    hidden_sigma_eff: Mapping[UnitKind, float]
    #: total device time per execution, seconds (for facility accounting)
    exec_seconds: float

    @property
    def total_sigma(self) -> float:
        return (
            sum(self.op_sigma_eff.values())
            + sum(self.storage_sigma_eff.values())
            + sum(self.hidden_sigma_eff.values())
        )

    def as_rates(self) -> Dict[str, float]:
        """Flat view keyed by resource name (for reports/tests)."""
        flat: Dict[str, float] = {}
        for op, sigma in self.op_sigma_eff.items():
            flat[f"op:{op.name}"] = sigma
        for unit, sigma in self.storage_sigma_eff.items():
            flat[f"mem:{unit.value}"] = sigma
        for unit, sigma in self.hidden_sigma_eff.items():
            flat[f"hidden:{unit.value}"] = sigma
        return flat


def compute_exposure(
    device: DeviceSpec,
    workload: Workload,
    golden: KernelRun,
    catalog: CrossSectionCatalog,
    footprint_bits: Mapping[str, int],
) -> ExposureProfile:
    """Build the exposure profile from a golden run's trace and its
    allocated bits per memory space (``"shared"``, ``"global"``;
    :attr:`InjectionTarget.footprint_bits
    <repro.faultsim.target.InjectionTarget.footprint_bits>`)."""
    trace = golden.trace
    if trace.total_instances <= 0:
        raise ConfigurationError(f"{workload.name}: empty trace has no exposure")

    launch = workload.sim_launch()
    occ_inputs = workload.reference_occupancy_inputs(device)
    from repro.arch.occupancy import occupancy as occupancy_fn

    occ = occupancy_fn(device, activity_factor=trace.activity_factor, **occ_inputs)
    timing = TimingModel(device).estimate(
        trace,
        grid_blocks=occ_inputs["grid_blocks"],
        active_warps_per_sm=max(1.0, occ.achieved * device.max_warps_per_sm),
        ilp=workload.spec.ilp,
    )
    cycles = timing.cycles
    exec_seconds = cycles / (device.clock_mhz * 1e6)

    # The functional simulation runs a scaled-down instance; the beam sees
    # the *reference* (paper-scale) launch.  Scale exposures by the number
    # of resident threads the reference launch keeps on the device, capped
    # by what the hardware physically offers — more parallel work means
    # more simultaneously exposed resources (§III-C), never more than
    # exist.
    sms_busy = max(1.0, min(float(device.sm_count), float(occ_inputs["grid_blocks"])))
    resident_threads = (
        occ.achieved * device.max_warps_per_sm * device.warp_size * sms_busy
    )
    scale = max(1.0, resident_threads / launch.total_threads)

    # -- functional-unit datapaths: average in-flight lane-ops -----------------
    # Little's law at reference scale: lane-ops in flight = retire rate ×
    # pipeline residency.  The retire rate is the per-SM IPC (warp
    # instructions/cycle) × warp width × busy SMs, apportioned over the
    # instruction mix; residency is the class latency.  Codes with high
    # occupancy *and* high IPC therefore expose the most functional-unit
    # area — Eq. 4's φ seen from the physics side.
    retire_rate = timing.ipc * device.warp_size * sms_busy
    total_instances = trace.total_instances
    op_sigma_eff: Dict[OpClass, float] = {}
    for op, instances in trace.instances.items():
        sigma = catalog.sigma_for_op(op)
        if sigma <= 0 or instances <= 0:
            continue
        unit = unit_for(op, device.architecture)
        # residency in the *vulnerable datapath*: arithmetic pipelines are
        # a handful of stages regardless of class (the per-class σ already
        # encodes datapath size); memory ops occupy the LSU/AGU longer but
        # a load waiting on DRAM parks in MSHRs, not in LSU logic
        residency = 32.0 if op.is_memory or op is OpClass.ATOM else 8.0
        # a pipelined unit holds up to `residency` operations per lane
        pipeline_capacity = unit_throughput(unit, device.architecture) * sms_busy * residency
        mix = instances / total_instances
        inflight = min(retire_rate * mix * residency, max(1.0, pipeline_capacity))
        op_sigma_eff[op] = sigma * inflight

    # -- storage: allocated bits at reference scale --------------------------------
    # codes expose their compiled register allocation; the RF micro-benchmark
    # overrides with its deliberately live pattern registers
    rf_regs = getattr(workload, "beam_rf_registers", None) or occ_inputs["registers_per_thread"]
    rf_bits = min(
        rf_regs * resident_threads * 32,
        float(device.storage_bits(UnitKind.REGISTER_FILE)),
    )
    storage_sigma_eff = {
        UnitKind.REGISTER_FILE: catalog.bit_sigma[UnitKind.REGISTER_FILE] * rf_bits,
    }
    shared_bits = footprint_bits["shared"]
    if shared_bits:
        storage_sigma_eff[UnitKind.SHARED_MEMORY] = catalog.bit_sigma[
            UnitKind.SHARED_MEMORY
        ] * min(shared_bits * scale, float(device.storage_bits(UnitKind.SHARED_MEMORY)))
    global_bits = footprint_bits["global"]
    if global_bits:
        storage_sigma_eff[UnitKind.DEVICE_MEMORY] = catalog.bit_sigma[
            UnitKind.DEVICE_MEMORY
        ] * min(global_bits * scale, float(device.storage_bits(UnitKind.DEVICE_MEMORY)))

    # -- hidden resources ----------------------------------------------------------
    warp_activity = occ.achieved                      # scheduler stress
    issue_activity = min(1.0, timing.ipc / device.issue_width_per_sm)
    mem_intensity = min(1.0, trace.global_bytes * scale / max(1.0, cycles) / 512.0)
    hidden_sigma_eff = {
        UnitKind.SCHEDULER: catalog.hidden_sigma[UnitKind.SCHEDULER] * sms_busy * max(0.05, warp_activity),
        UnitKind.INSTRUCTION_PIPELINE: catalog.hidden_sigma[UnitKind.INSTRUCTION_PIPELINE]
        * sms_busy
        * max(0.05, issue_activity),
        UnitKind.MEMORY_CONTROLLER: catalog.hidden_sigma[UnitKind.MEMORY_CONTROLLER]
        * max(0.05, mem_intensity)
        * device.sm_count / 10.0,
        # host-chatty codes (per-level readbacks, multi-phase pipelines)
        # spend a larger share of their life in device-host synchronization,
        # the DUE source injectors can least observe (§VII-B)
        UnitKind.HOST_INTERFACE: catalog.hidden_sigma[UnitKind.HOST_INTERFACE]
        * (1.0 + trace.host_syncs / 4.0),
    }

    profile = ExposureProfile(
        op_sigma_eff=op_sigma_eff,
        storage_sigma_eff=storage_sigma_eff,
        hidden_sigma_eff=hidden_sigma_eff,
        exec_seconds=exec_seconds,
    )
    _log.debug(
        "exposure profile %s on %s: Σ_eff=%.3g cm² over %d resources, exec=%.3g s",
        workload.name, device.name, profile.total_sigma,
        len(op_sigma_eff) + len(storage_sigma_eff) + len(hidden_sigma_eff),
        exec_seconds,
    )
    return profile
