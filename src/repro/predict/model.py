"""Equations 1–4: predicting a code's FIT from injection AVFs, profiling,
and beam-measured micro-benchmark FITs.

Construction (§IV, §VII):

* **FIT(INST_i)** comes from the micro-benchmark beam measurements.  A
  micro-benchmark's measured FIT embeds its own instruction share, chain
  masking and parallelism, so the model de-embeds them —
  ``unit_fit = FIT_µb / (f_µb · AVF_µb · φ_µb)`` — before applying the
  code's own ``f · AVF · φ`` (the paper performs the analogous correction
  when it multiplies the micro-benchmark FIT by the simulation-measured
  AVF, §V-A).
* **AVF(INST_i)** comes from an injector campaign, aggregated per Figure 1
  instruction category for statistical strength.
* **φ** is the profiler's achieved-occupancy × IPC (Eq. 4).
* Only the categories the paper models (FMA/MUL/ADD/INT/MMA/LDST) enter
  the sum — "OTHERS" and every hidden resource are structurally absent,
  which is the designed-in source of under-prediction (§VII).
* With ECC disabled the memory term (Eq. 3) adds
  ``bits · AVF_mem · unit_fit_per_bit`` using the RF micro-benchmark's
  per-bit FIT.

Documented fallbacks, as in the paper: FP16 instruction AVFs are taken
from the FP32 variant of the same code (NVBitFI cannot inject FP16), and
proprietary-library codes on Kepler reuse the Volta NVBitFI AVFs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.arch.devices import DeviceSpec
from repro.arch.ecc import EccMode
from repro.arch.isa import OpCategory, OpClass
from repro.arch.occupancy import occupancy as occupancy_fn
from repro.arch.units import UnitKind
from repro.beam.experiment import BeamExperiment
from repro.common.errors import ConfigurationError
from repro.common.rng import RngFactory
from repro.exec.engine import Executor, get_executor
from repro.exec.tasks import MemoryAvfContext, StrikeTask, WorkloadHandle
from repro.exec.worker import dispatch, memory_avf_target, run_strike_chunk
from repro.faultsim.outcomes import CampaignResult, Outcome
from repro.profiling.metrics import KernelMetrics
from repro.profiling.profiler import Profiler
from repro.sim.launch import run_kernel
from repro.store.policy import STORELESS, ExecutionPolicy
from repro.telemetry import get_logger, get_telemetry
from repro.workloads.base import Workload

_log = get_logger("predict.model")

#: floor for the de-embedding denominator, guarding degenerate traces
_DENOM_FLOOR = 1e-3


@dataclass(frozen=True)
class UnitFit:
    """One micro-benchmark's de-embedded unit FIT rates."""

    fit_sdc: float                 # raw measured micro-benchmark FIT (SDC)
    fit_due: float
    denom_sdc: float               # f_µb × AVF_µb × φ_µb
    denom_due: float

    @property
    def unit_sdc(self) -> float:
        return self.fit_sdc / max(self.denom_sdc, _DENOM_FLOOR)

    @property
    def unit_due(self) -> float:
        return self.fit_due / max(self.denom_due, _DENOM_FLOOR)


@dataclass(frozen=True)
class MicrobenchFits:
    """Beam-measured micro-benchmark FITs for one device."""

    device: str
    units: Mapping[str, UnitFit]            # key: µbench name ("FADD", "LDST"...)
    rf_fit_per_bit_sdc: float               # RF µbench FIT / exposed bits (ECC OFF)
    rf_fit_per_bit_due: float

    def unit_for(self, key: str) -> UnitFit:
        try:
            return self.units[key]
        except KeyError as exc:
            raise ConfigurationError(f"no micro-benchmark FIT for {key!r} on {self.device}") from exc


#: instruction class → micro-benchmark key (None = unmodeled, like the
#: paper's "OTHERS": transcendental, branch, barrier, predicate...)
def ubench_key(op: OpClass) -> Optional[str]:
    if op.category is OpCategory.LDST:
        return "LDST"
    if op in (OpClass.LOP, OpClass.SHF, OpClass.IMNMX):
        return "IADD"  # generic integer datapath
    if op.is_arithmetic:
        return op.name
    return None


@dataclass
class FitPrediction:
    """Predicted FIT rates plus the per-term breakdown.

    ``fit_due`` is the paper's Eq. 2 term alone — injectable instruction
    sites plus, with ECC off, the memory term — and *stays* the
    under-prediction §VII-B measures.  ``fit_due_uncore`` is the second
    term of the two-term model: the uncore fault domains (scheduler,
    instruction pipeline, memory controller, host interface) no injector
    can reach, priced from :func:`repro.arch.uncore.uncore_table`.
    """

    workload: str
    device: str
    ecc: EccMode
    fit_sdc: float = 0.0
    fit_due: float = 0.0
    fit_due_uncore: float = 0.0
    terms_sdc: Dict[str, float] = field(default_factory=dict)
    terms_due: Dict[str, float] = field(default_factory=dict)
    terms_due_uncore: Dict[str, float] = field(default_factory=dict)
    #: dynamic-instruction fraction the model could cover (paper: >70%)
    covered_fraction: float = 0.0

    @property
    def fit_due_total(self) -> float:
        """The two-term DUE prediction: Eq. 2 plus the uncore FIT term."""
        return self.fit_due + self.fit_due_uncore


def avf_by_category(
    campaign: CampaignResult, outcome: Outcome = Outcome.SDC, min_samples: int = 5
) -> Dict[OpCategory, float]:
    """Category-level AVFs from a campaign (robust per-class aggregation)."""
    hits: Dict[OpCategory, list] = {}
    for record in campaign.records:
        if record.op is not None:
            hits.setdefault(record.op.category, []).append(record.outcome)
    return {
        cat: sum(1 for o in outcomes if o is outcome) / len(outcomes)
        for cat, outcomes in hits.items()
        if len(outcomes) >= min_samples
    }


def measure_memory_avf(
    device: DeviceSpec,
    workload: Workload,
    backend: str = "cuda10",
    strikes: int = 60,
    seed: int = 0,
    *,
    workers: int = 1,
    executor: Optional[Executor] = None,
    on_result: Optional[Callable] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> Tuple[float, float]:
    """AVF of a memory bit for Eq. 3: fraction of ECC-OFF storage strikes
    that corrupt the output (SDC) or crash the code (DUE).

    Strike ticks are sampled up front from one parent stream; each strike
    then perturbs its re-execution with a private substream, so results are
    bit-identical for any ``workers=`` setting.
    """
    if strikes <= 0:
        raise ConfigurationError("need at least one strike")
    policy = policy or STORELESS
    telemetry = get_telemetry()
    with telemetry.span(
        "memory_avf", workload=workload.name, device=device.name, strikes=strikes
    ):
        names = (device.name, workload.name)
        rng = RngFactory(seed).stream("mem_avf", *names)
        context = MemoryAvfContext(
            device=device, backend=backend, workload=WorkloadHandle.wrap(workload),
            policy=policy.without_store(),
        )
        target = memory_avf_target(context)
        ticks = rng.integers(0, max(1, int(target.golden.ticks)), size=strikes)
        tasks = [
            StrikeTask(
                index=i,
                space="rf" if i % 2 == 0 else "global",
                tick=float(ticks[i]),
                root_seed=seed,
                rng_path=("mem_avf", *names, "strike", i),
            )
            for i in range(strikes)
        ]
        # reuse this golden run in the serial path and fork-spawned children
        _, outcomes = dispatch(
            get_executor(workers, executor), run_strike_chunk, context, tasks,
            target, policy, on_result=on_result,
        )
    sdc = sum(1 for o in outcomes if o is Outcome.SDC)
    due = sum(1 for o in outcomes if o is Outcome.DUE)
    _log.debug(
        "memory AVF %s on %s: sdc=%.3f due=%.3f over %d strikes",
        workload.name, device.name, sdc / strikes, due / strikes, strikes,
    )
    return sdc / strikes, due / strikes


def measure_microbench_fits(
    device: DeviceSpec,
    seed: int = 0,
    beam_hours: float = 72.0,
    max_fault_evals: int = 150,
    *,
    workers: int = 1,
    executor: Optional[Executor] = None,
    on_result: Optional[Callable] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> MicrobenchFits:
    """Run the full micro-benchmark suite under the beam and build the
    per-unit FIT table the prediction consumes."""
    from repro.microbench.registry import MICROBENCH_BUILDERS, get_microbench

    arch = device.architecture
    exp = BeamExperiment(
        device, seed=seed, workers=workers, executor=executor, policy=policy,
    )
    prof = Profiler(device)
    units: Dict[str, UnitFit] = {}
    rf_sdc_per_bit = rf_due_per_bit = 0.0
    telemetry = get_telemetry()

    for name in MICROBENCH_BUILDERS[arch]:
        wl = get_microbench(arch, name, seed=seed)
        ecc = EccMode.OFF if name == "RF" else EccMode.ON
        telemetry.count("predict.microbench_runs")
        _log.debug("micro-benchmark %s under the beam on %s (ecc=%s)", name, device.name, ecc.value)
        beam = exp.run(
            wl,
            ecc=ecc,
            beam_hours=beam_hours,
            mode="expected",
            max_fault_evals=max_fault_evals,
            on_result=on_result,
        )
        if name == "RF":
            engine, profile = exp.exposure(wl, ecc)
            rf_bits = profile.storage_sigma_eff[UnitKind.REGISTER_FILE] / exp.catalog.bit_sigma[UnitKind.REGISTER_FILE]
            rf_sdc_per_bit = beam.fit_sdc.value / rf_bits
            rf_due_per_bit = beam.fit_due.value / rf_bits
            continue
        metrics = prof.metrics(wl)
        if name == "LDST":
            ops = (OpClass.LDG, OpClass.STG, OpClass.LDS, OpClass.STS)
            frac = sum(metrics.instruction_mix.get(op, 0.0) for op in ops)
        else:
            ops = (OpClass[name],)
            frac = metrics.instruction_mix.get(ops[0], 0.0)
        avf_sdc, avf_due = _tally_avf(beam, ops)
        # DUE: only the instruction-attributable share of the measured FIT.
        # The micro-benchmark's *total* DUE also contains ECC detections and
        # hidden-resource crashes — faults an architecture-level injector
        # cannot represent, which is precisely what the prediction must not
        # silently absorb (§VII-B).
        fit_due_op = _op_attributed_fit(beam, ops, "due")
        units[name] = UnitFit(
            fit_sdc=beam.fit_sdc.value,
            fit_due=fit_due_op,
            denom_sdc=frac * max(avf_sdc, 0.05) * max(metrics.phi, 1e-3),
            denom_due=frac * max(avf_due, 0.05) * max(metrics.phi, 1e-3),
        )
    return MicrobenchFits(
        device=device.name,
        units=units,
        rf_fit_per_bit_sdc=rf_sdc_per_bit,
        rf_fit_per_bit_due=rf_due_per_bit,
    )


def _op_attributed_fit(beam_result, ops, kind: str) -> float:
    """FIT contribution of specific instruction-class resources within a
    beam result (errors in those resources / fluence, terrestrial-scaled)."""
    from repro.common.units import FIT_SCALE_HOURS, TERRESTRIAL_FLUX_N_CM2_H

    count = 0.0
    for op in ops:
        tally = beam_result.tallies.get(f"op:{op.name}")
        if tally is not None:
            count += getattr(tally, kind)
    return count / beam_result.fluence_n_cm2 * TERRESTRIAL_FLUX_N_CM2_H * FIT_SCALE_HOURS


def _tally_avf(beam_result, ops) -> Tuple[float, float]:
    """Chain AVFs of the targeted instruction class, from beam tallies."""
    faults = sdc = due = 0.0
    for op in ops:
        tally = beam_result.tallies.get(f"op:{op.name}")
        if tally is not None and tally.faults > 0:
            faults += tally.faults
            sdc += tally.sdc
            due += tally.due
    if faults <= 0:
        return 1.0, 1.0
    return sdc / faults, due / faults


class PredictionModel:
    """The paper's Eq. 1–4 predictor for one device."""

    def __init__(self, device: DeviceSpec, fits: MicrobenchFits) -> None:
        self.device = device
        self.fits = fits

    def predict(
        self,
        workload: Workload,
        metrics: KernelMetrics,
        avf_sdc: Mapping[OpCategory, float],
        avf_due: Mapping[OpCategory, float],
        ecc: EccMode,
        mem_avf: Tuple[float, float] = (0.0, 0.0),
        memory_bits: Optional[Mapping[str, float]] = None,
    ) -> FitPrediction:
        """Predict SDC and DUE FITs for one code.

        ``avf_sdc``/``avf_due`` are the injector campaign's category AVFs —
        possibly a fallback campaign's, per the paper's substitution rules.
        ``memory_bits`` (Eq. 3's f(MEM)) defaults to the code's register +
        buffer footprint at reference scale.
        """
        pred = FitPrediction(workload=workload.name, device=self.device.name, ecc=ecc)
        phi = max(metrics.phi, 1e-6)

        for op, frac in sorted(metrics.instruction_mix.items(), key=lambda kv: kv[0].name):
            key = ubench_key(op)
            if key is None or key not in self.fits.units:
                continue
            if op.category not in avf_sdc:
                continue  # the injector never hit this category: not modelable
            unit = self.fits.unit_for(key)
            term_sdc = frac * avf_sdc[op.category] * unit.unit_sdc * phi
            term_due = frac * avf_due.get(op.category, 0.0) * unit.unit_due * phi
            pred.terms_sdc[op.name] = pred.terms_sdc.get(op.name, 0.0) + term_sdc
            pred.terms_due[op.name] = pred.terms_due.get(op.name, 0.0) + term_due
            pred.covered_fraction += frac

        if ecc is EccMode.OFF:
            bits = memory_bits if memory_bits is not None else self.memory_footprint_bits(workload)
            m_sdc, m_due = mem_avf
            for name, nbits in bits.items():
                pred.terms_sdc[f"mem:{name}"] = nbits * m_sdc * self.fits.rf_fit_per_bit_sdc
                pred.terms_due[f"mem:{name}"] = nbits * m_due * self.fits.rf_fit_per_bit_due

        pred.fit_sdc = sum(pred.terms_sdc.values())
        pred.fit_due = sum(pred.terms_due.values())
        pred.terms_due_uncore = self.uncore_due_terms(workload)
        pred.fit_due_uncore = sum(pred.terms_due_uncore.values())
        return pred

    def uncore_due_terms(self, workload: Workload) -> Dict[str, float]:
        """The second term of the two-term DUE model — see
        :func:`uncore_due_fits`."""
        return uncore_due_fits(self.device, workload)

    def memory_footprint_bits(self, workload: Workload) -> Dict[str, float]:
        """Eq. 3's f(MEM): bits instantiated at reference scale.

        Mirrors how the paper counts the memory used for computation —
        register allocation × resident threads, plus the data buffers."""
        occ_inputs = workload.reference_occupancy_inputs(self.device)
        golden = run_kernel(self.device, workload.kernel, workload.sim_launch(), ecc=EccMode.ON)
        occ = occupancy_fn(
            self.device, activity_factor=golden.trace.activity_factor, **occ_inputs
        )
        sms_busy = max(1.0, min(float(self.device.sm_count), float(occ_inputs["grid_blocks"])))
        resident = occ.achieved * self.device.max_warps_per_sm * self.device.warp_size * sms_busy
        scale = max(1.0, resident / workload.sim_launch().total_threads)
        rf_bits = min(
            occ_inputs["registers_per_thread"] * resident * 32,
            float(self.device.storage_bits(UnitKind.REGISTER_FILE)),
        )
        bits = {"register_file": rf_bits}
        pool = golden.context.pool
        shared = pool.footprint_bits("shared")
        if shared:
            bits["shared_memory"] = min(
                shared * scale, float(self.device.storage_bits(UnitKind.SHARED_MEMORY))
            )
        global_bits = pool.footprint_bits("global")
        if global_bits:
            bits["device_memory"] = min(
                global_bits * scale, float(self.device.storage_bits(UnitKind.DEVICE_MEMORY))
            )
        return bits


def uncore_due_fits(device: DeviceSpec, workload: Workload) -> Dict[str, float]:
    """Per-unit uncore DUE FITs: the second term of the two-term DUE model.

    Eq. 2 sums only injectable instruction sites, so every DUE born in
    the scheduler, the instruction pipeline, the memory controller or
    the host interface is structurally absent from ``fit_due`` — the
    paper's §VII-B gap.  This term prices those domains from the
    architecture-level uncore table (:func:`repro.arch.uncore.uncore_table`),
    driving each unit's FIT-per-instance with the same activity model the
    beam exposure uses (:func:`repro.beam.exposure.compute_exposure`), so
    closing the gap is a statement about the *fault model*, not about
    mismatched activity accounting.
    """
    from repro.arch.uncore import uncore_table
    from repro.sim.timing import TimingModel

    table = uncore_table(device.architecture)
    occ_inputs = workload.reference_occupancy_inputs(device)
    golden = run_kernel(device, workload.kernel, workload.sim_launch(), ecc=EccMode.ON)
    trace = golden.trace
    occ = occupancy_fn(device, activity_factor=trace.activity_factor, **occ_inputs)
    timing = TimingModel(device).estimate(
        trace,
        grid_blocks=occ_inputs["grid_blocks"],
        active_warps_per_sm=max(1.0, occ.achieved * device.max_warps_per_sm),
        ilp=workload.spec.ilp,
    )
    sms_busy = max(1.0, min(float(device.sm_count), float(occ_inputs["grid_blocks"])))
    resident = occ.achieved * device.max_warps_per_sm * device.warp_size * sms_busy
    scale = max(1.0, resident / workload.sim_launch().total_threads)
    warp_activity = max(0.05, occ.achieved)
    issue_activity = max(0.05, min(1.0, timing.ipc / device.issue_width_per_sm))
    mem_intensity = max(
        0.05, min(1.0, trace.global_bytes * scale / max(1.0, timing.cycles) / 512.0)
    )
    per_unit = {
        UnitKind.SCHEDULER: table.fit_due(UnitKind.SCHEDULER, sms_busy, warp_activity),
        UnitKind.INSTRUCTION_PIPELINE: table.fit_due(
            UnitKind.INSTRUCTION_PIPELINE, sms_busy, issue_activity
        ),
        UnitKind.MEMORY_CONTROLLER: table.fit_due(
            UnitKind.MEMORY_CONTROLLER, device.sm_count / 10.0, mem_intensity
        ),
        UnitKind.HOST_INTERFACE: table.fit_due(
            UnitKind.HOST_INTERFACE, 1.0, 1.0 + trace.host_syncs / 4.0
        ),
    }
    return {f"uncore:{unit.value}": fit for unit, fit in per_unit.items()}
