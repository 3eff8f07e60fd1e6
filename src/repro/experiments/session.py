"""Shared, memoized experiment state.

Figures 4, 5, 6 and the DUE table reuse the same campaigns, beam runs,
profiles and micro-benchmark FIT tables; the session computes each at most
once per (configuration, seed).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.arch.devices import DeviceSpec, KEPLER_K40C, VOLTA_V100
from repro.arch.ecc import EccMode
from repro.beam.experiment import BeamExperiment, BeamResult
from repro.common.errors import ConfigurationError
from repro.exec.engine import Executor, get_executor
from repro.experiments.config import ExperimentConfig
from repro.faultsim.campaign import CampaignRunner
from repro.faultsim.frameworks import FrameworkCapabilityError, InjectorFramework, NvBitFi, Sassifi
from repro.faultsim.outcomes import CampaignResult, Outcome
from repro.predict.model import (
    MicrobenchFits,
    PredictionModel,
    avf_by_category,
    measure_memory_avf,
    measure_microbench_fits,
)
from repro.profiling.metrics import KernelMetrics
from repro.profiling.profiler import Profiler
from repro.store.policy import ExecutionPolicy
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload


class ExperimentSession:
    """Caches every expensive artifact for one configuration.

    ``config.workers`` selects the parallel fan-out for every campaign,
    beam run and strike sweep the session computes; one executor (and so
    one process pool) is shared across all of them.  ``on_result`` is an
    optional observability hook — e.g. a
    :class:`repro.exec.progress.ProgressMeter` — called once per completed
    fault evaluation.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        *,
        on_result: Optional[Callable] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        self.config = config if config is not None else ExperimentConfig()
        self.executor = get_executor(self.config.workers, executor)
        self.on_result = on_result
        #: one shared ExecutionPolicy (and so one store connection) for
        #: every campaign, beam run and strike sweep the session computes
        self.policy: Optional[ExecutionPolicy] = self.config.policy
        self.devices: Dict[str, DeviceSpec] = {"kepler": KEPLER_K40C, "volta": VOLTA_V100}
        self._workloads: Dict[Tuple[str, str], Workload] = {}
        self._profilers: Dict[str, Profiler] = {}
        self._metrics: Dict[Tuple[str, str], KernelMetrics] = {}
        self._campaigns: Dict[Tuple[str, str, str], CampaignResult] = {}
        self._beam: Dict[Tuple[str, str, str], BeamResult] = {}
        self._ubench_fits: Dict[str, MicrobenchFits] = {}
        self._mem_avf: Dict[Tuple[str, str], Tuple[float, float]] = {}

    # -- building blocks ------------------------------------------------------
    def device(self, arch: str) -> DeviceSpec:
        try:
            return self.devices[arch]
        except KeyError as exc:
            raise ConfigurationError(f"unknown architecture {arch!r}") from exc

    def workload(self, arch: str, code: str) -> Workload:
        key = (arch, code)
        if key not in self._workloads:
            self._workloads[key] = get_workload(arch, code, seed=self.config.seed)
        return self._workloads[key]

    def profiler(self, arch: str) -> Profiler:
        if arch not in self._profilers:
            self._profilers[arch] = Profiler(self.device(arch))
        return self._profilers[arch]

    def metrics(self, arch: str, code: str) -> KernelMetrics:
        key = (arch, code)
        if key not in self._metrics:
            self._metrics[key] = self.profiler(arch).metrics(self.workload(arch, code))
        return self._metrics[key]

    # -- fault injection ----------------------------------------------------------
    def framework(self, name: str) -> InjectorFramework:
        return Sassifi() if name.lower() == "sassifi" else NvBitFi()

    def campaign(self, arch: str, framework: str, code: str) -> CampaignResult:
        """Injection campaign; raises FrameworkCapabilityError when the
        (framework, device, code) combination is impossible (§III-D)."""
        key = (arch, framework.lower(), code)
        if key not in self._campaigns:
            runner = CampaignRunner(
                self.device(arch),
                self.framework(framework),
                seed=self.config.seed,
                executor=self.executor,
                policy=self.policy,
            )
            self._campaigns[key] = runner.run(
                self.workload(arch, code), self.config.injections, on_result=self.on_result
            )
        return self._campaigns[key]

    def avf_source_campaign(self, arch: str, framework: str, code: str) -> Tuple[CampaignResult, str]:
        """Campaign providing AVFs for prediction, applying the paper's
        substitution rules when the injector cannot see the code:

        * proprietary code on Kepler → Volta NVBitFI campaign (§III-D);
        * FP16 code under NVBitFI → the FP32 variant's campaign (§VII-A).

        Returns (campaign, note) where the note records any substitution.
        """
        workload = self.workload(arch, code)
        try:
            return self.campaign(arch, framework, code), ""
        except FrameworkCapabilityError:
            pass
        if workload.spec.proprietary and arch == "kepler":
            volta_code = code if code in _volta_codes() else None
            if volta_code is None:
                raise ConfigurationError(f"no Volta analogue for proprietary code {code}")
            campaign, note = self.avf_source_campaign("volta", "nvbitfi", volta_code)
            return campaign, (note + "; " if note else "") + "AVF from Volta NVBitFI"
        raise ConfigurationError(f"no AVF source for {framework}/{arch}/{code}")

    def category_avfs(self, arch: str, framework: str, code: str):
        """(avf_sdc, avf_due, note) per category, with the FP16 fallback."""
        workload = self.workload(arch, code)
        campaign, note = self.avf_source_campaign(arch, framework, code)
        avf_sdc = avf_by_category(campaign, Outcome.SDC)
        avf_due = avf_by_category(campaign, Outcome.DUE)
        from repro.arch.dtypes import DType
        from repro.arch.isa import OpCategory

        if workload.spec.dtype is DType.FP16:
            # NVBitFI cannot inject FP16: reuse the FP32 variant's AVFs for
            # the float categories (exactly the paper's HHotspot caveat)
            f_code = "F" + code[1:]
            try:
                f_campaign, _ = self.avf_source_campaign(arch, framework, f_code)
            except ConfigurationError:
                f_campaign = None
            if f_campaign is not None:
                f_sdc = avf_by_category(f_campaign, Outcome.SDC)
                f_due = avf_by_category(f_campaign, Outcome.DUE)
                for cat in (OpCategory.FMA, OpCategory.MUL, OpCategory.ADD, OpCategory.MMA):
                    if cat not in avf_sdc and cat in f_sdc:
                        avf_sdc[cat] = f_sdc[cat]
                        avf_due[cat] = f_due.get(cat, 0.0)
                note = (note + "; " if note else "") + "FP16 AVFs from FP32 variant"
        return avf_sdc, avf_due, note

    # -- beam -------------------------------------------------------------------------
    def beam_experiment(self, arch: str) -> BeamExperiment:
        return BeamExperiment(
            self.device(arch), seed=self.config.seed, executor=self.executor,
            policy=self.policy,
        )

    def beam(self, arch: str, code: str, ecc: EccMode, microbench: bool = False) -> BeamResult:
        key = (arch, code if not microbench else f"ub:{code}", ecc.value)
        if key not in self._beam:
            if microbench:
                from repro.microbench.registry import get_microbench

                wl = get_microbench(arch, code, seed=self.config.seed)
            else:
                wl = self.workload(arch, code)
            self._beam[key] = self.beam_experiment(arch).run(
                wl,
                ecc=ecc,
                beam_hours=self.config.beam_hours,
                mode=self.config.beam_mode,
                max_fault_evals=self.config.beam_fault_evals,
                on_result=self.on_result,
            )
        return self._beam[key]

    # -- prediction ----------------------------------------------------------------------
    def microbench_fits(self, arch: str) -> MicrobenchFits:
        if arch not in self._ubench_fits:
            self._ubench_fits[arch] = measure_microbench_fits(
                self.device(arch),
                seed=self.config.seed,
                beam_hours=self.config.beam_hours,
                max_fault_evals=self.config.beam_fault_evals,
                executor=self.executor,
                on_result=self.on_result,
                policy=self.policy,
            )
        return self._ubench_fits[arch]

    def prediction_model(self, arch: str) -> PredictionModel:
        return PredictionModel(self.device(arch), self.microbench_fits(arch))

    def memory_avf(self, arch: str, code: str) -> Tuple[float, float]:
        key = (arch, code)
        if key not in self._mem_avf:
            self._mem_avf[key] = measure_memory_avf(
                self.device(arch),
                self.workload(arch, code),
                strikes=self.config.memory_avf_strikes,
                seed=self.config.seed,
                executor=self.executor,
                on_result=self.on_result,
                policy=self.policy,
            )
        return self._mem_avf[key]

    def predict(self, arch: str, framework: str, code: str, ecc: EccMode):
        """Full Eq. 1–4 prediction for one (code, framework, ECC) setup."""
        workload = self.workload(arch, code)
        metrics = self.metrics(arch, code)
        avf_sdc, avf_due, note = self.category_avfs(arch, framework, code)
        mem_avf = self.memory_avf(arch, code) if ecc is EccMode.OFF else (0.0, 0.0)
        prediction = self.prediction_model(arch).predict(
            workload, metrics, avf_sdc, avf_due, ecc=ecc, mem_avf=mem_avf
        )
        return prediction, note


def _volta_codes():
    from repro.workloads.registry import WORKLOAD_BUILDERS

    return WORKLOAD_BUILDERS["volta"]
