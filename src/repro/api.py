"""The blessed top-level surface: one facade over the whole pipeline.

Every operation the library offers — run a fault-injection campaign,
expose a code to the simulated beam, profile it, predict its FIT rates —
is reachable from here with consistent, keyword-only parameters:

* ``seed=`` — int root seed (the only RNG spelling),
* ``ecc=`` — :class:`~repro.arch.ecc.EccMode`, ``"on"``/``"off"``, or bool,
* ``workers=`` — parallel fan-out degree (1 = in-process serial,
  0 = one per CPU), optionally with ``executor=`` to share one pool,
* ``injections=`` — campaign size,
* ``policy=`` — one :class:`~repro.store.policy.ExecutionPolicy` carrying
  every run-shaping knob: durability (``store``/``refresh``), failure
  handling (``retries``/``backoff``/``on_crash``) and execution strategy
  (``replay``/``snapshots_per_run``/``batch_eval``) — ``docs/API.md``.

Devices and workloads accept either library objects or names:
``device="kepler"`` / ``"volta"`` pick the paper's Tesla K40c / V100, and a
string workload is resolved through the registry for that device.

    >>> import repro
    >>> campaign = repro.run_campaign("FMXM", device="kepler", injections=200, seed=1)
    >>> beam = repro.run_beam("FMXM", device="kepler", ecc="off", workers=4)
    >>> metrics = repro.profile("FMXM", device="kepler")
    >>> prediction, note = repro.predict("FMXM", device="kepler", ecc="off")

:class:`Session` (the memoizing :class:`~repro.experiments.session.ExperimentSession`)
is the facade for multi-artifact studies that reuse campaigns and beams.

The fault-tolerant campaign service rides the same surface:
:func:`~repro.service.coordinator.submit_campaign` /
:func:`~repro.service.coordinator.serve_campaigns` /
:func:`~repro.service.coordinator.campaign_status` /
:func:`~repro.service.coordinator.cancel_campaign` manage named campaigns
over a shared durable store, and ``ExecutionPolicy.service`` (a
:class:`~repro.store.policy.ServicePolicy`) carries the lease/heartbeat
knobs — see ``docs/SERVICE.md``.

Observability rides along: wrap any of the above in
:func:`~repro.telemetry.telemetry_session` to collect metrics, spans and a
JSONL event trace (``docs/OBSERVABILITY.md`` documents the schema), and
opt in to library logging with :func:`~repro.telemetry.configure_logging`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

from repro.arch.devices import (
    DEVICES,
    DeviceSpec,
    KEPLER_K40C,
    VOLTA_TITAN_V,
    VOLTA_V100,
    get_device,
)
from repro.arch.dtypes import DType
from repro.arch.ecc import EccMode
from repro.beam.cross_sections import CrossSectionCatalog
from repro.beam.experiment import BeamExperiment, BeamResult
from repro.beam.facility import CHIPIR, Facility
from repro.common.errors import (
    CampaignCancelledError,
    ChunkQuarantinedError,
    ConfigurationError,
    StoreError,
)
from repro.common.rng import RngFactory
from repro.exec.engine import (
    Executor,
    LeaseExecutor,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
)
from repro.exec.progress import ProgressMeter
from repro.experiments.config import ExperimentConfig, get_preset
from repro.experiments.session import ExperimentSession
from repro.arch.uncore import UncoreFitTable, UncoreUnitRates, uncore_table
from repro.faultsim.campaign import CampaignRunner
from repro.faultsim.frameworks import InjectorFramework, NvBitFi, Sassifi, get_framework
from repro.faultsim.outcomes import CampaignResult, InjectionRecord, Outcome, StrikeEval
from repro.faultsim.sandbox import InjectionSandbox, SandboxLimits
from repro.faultsim.uncore import UncoreInjector
from repro.predict.model import FitPrediction
from repro.profiling.metrics import KernelMetrics
from repro.profiling.profiler import Profiler
from repro.sass.assembler import assemble
from repro.sass.interpreter import SassKernel
from repro.sim.launch import LaunchConfig, run_kernel
from repro.service import (
    campaign_status,
    cancel_campaign,
    serve_campaigns,
    submit_campaign,
)
from repro.store import (
    CampaignStore,
    ExecutionPolicy,
    ServicePolicy,
    open_store,
)
from repro.telemetry import (
    FileSink,
    MemorySink,
    Registry,
    StreamSink,
    TeeSink,
    Telemetry,
    configure_logging,
    get_logger,
    get_telemetry,
    read_trace,
    telemetry_session,
)
from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.registry import get_workload

#: the memoizing multi-artifact session, re-exported as the facade name
Session = ExperimentSession

#: experiment configuration, re-exported for Session construction
Config = ExperimentConfig

#: paper-arch shorthand accepted wherever a device is expected
_ARCH_DEVICES = {"kepler": KEPLER_K40C, "volta": VOLTA_V100}

DeviceLike = Union[str, DeviceSpec]
WorkloadLike = Union[str, Workload]
FrameworkLike = Union[str, InjectorFramework]
EccLike = Union[str, bool, EccMode]


# -- argument resolution --------------------------------------------------------


def as_device(device: DeviceLike) -> DeviceSpec:
    """Resolve ``"kepler"``/``"volta"``, a catalog key, or a DeviceSpec."""
    if isinstance(device, DeviceSpec):
        return device
    key = device.lower()
    if key in _ARCH_DEVICES:
        return _ARCH_DEVICES[key]
    return get_device(key)


def as_workload(workload: WorkloadLike, device: DeviceSpec, seed: int) -> Workload:
    """Resolve a registry code name against the device's architecture, or
    pass a ready :class:`Workload` through unchanged."""
    if isinstance(workload, Workload):
        return workload
    return get_workload(device.architecture, workload, seed=seed)


def as_framework(framework: FrameworkLike) -> InjectorFramework:
    if isinstance(framework, InjectorFramework):
        return framework
    return get_framework(framework)


def as_ecc(ecc: EccLike) -> EccMode:
    if isinstance(ecc, EccMode):
        return ecc
    if isinstance(ecc, bool):
        return EccMode.from_flag(ecc)
    try:
        return EccMode(ecc.lower())
    except (ValueError, AttributeError) as exc:
        raise ConfigurationError(f"ecc must be 'on', 'off', a bool or EccMode, not {ecc!r}") from exc


# -- the blessed operations ------------------------------------------------------


def run_campaign(
    workload: WorkloadLike,
    *,
    device: DeviceLike = "kepler",
    framework: FrameworkLike = "nvbitfi",
    injections: int = 200,
    seed: int = 0,
    ecc: EccLike = EccMode.ON,
    workers: int = 1,
    executor: Optional[Executor] = None,
    on_result: Optional[Callable[[InjectionRecord], None]] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> CampaignResult:
    """Run a SASSIFI/NVBitFI-style fault-injection campaign.

    ``injections`` single faults are sampled over the framework's site
    groups and each is evaluated by re-executing the workload; records come
    back in sampling order, bit-identical for any ``workers=``.

    ``policy=`` (an :class:`ExecutionPolicy`) carries every run-shaping
    knob in one object: durability (``store``/``refresh``), failure
    handling (``retries``/``backoff``/``on_crash``) and execution strategy
    (``replay``/``snapshots_per_run``/``batch_eval``).  Checkpoint/replay is on
    by default — injections fork from the nearest golden snapshot and
    execute only the post-fault suffix, bit-identical to a full
    re-execution (``docs/PERFORMANCE.md``); ``ExecutionPolicy(replay=False)``
    forces the vanilla path.  With a store, completed task chunks are
    checkpointed and an interrupted campaign resumes where it left off
    (``docs/STORAGE.md``); ``on_crash`` is the sandbox containment policy
    for unexpected crashes (``docs/ROBUSTNESS.md``).  ``policy=None``
    means no store and no retries.
    """
    dev = as_device(device)
    runner = CampaignRunner(
        dev,
        as_framework(framework),
        as_ecc(ecc),
        seed=seed,
        workers=workers,
        executor=executor,
        policy=policy,
    )
    return runner.run(as_workload(workload, dev, seed), injections, on_result=on_result)


def run_beam(
    workload: WorkloadLike,
    *,
    device: DeviceLike = "kepler",
    ecc: EccLike = EccMode.ON,
    beam_hours: float = 72.0,
    mode: str = "montecarlo",
    max_fault_evals: int = 400,
    seed: int = 0,
    workers: int = 1,
    executor: Optional[Executor] = None,
    facility: Facility = CHIPIR,
    catalog: Optional[CrossSectionCatalog] = None,
    on_result: Optional[Callable] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> BeamResult:
    """Expose one code to the simulated accelerated neutron beam and
    measure its SDC/DUE FIT rates (§III-C protocol).

    ``policy=`` works as in :func:`run_campaign` — one
    :class:`ExecutionPolicy` for durability, failure handling and
    checkpoint/replay; the mechanistic fault evaluations (the wall-clock
    bulk of a beam run) replay from golden snapshots and, with a store,
    checkpoint chunk by chunk."""
    dev = as_device(device)
    experiment = BeamExperiment(
        dev, facility=facility, catalog=catalog, seed=seed, workers=workers,
        executor=executor, policy=policy,
    )
    return experiment.run(
        as_workload(workload, dev, seed),
        ecc=as_ecc(ecc),
        beam_hours=beam_hours,
        mode=mode,
        max_fault_evals=max_fault_evals,
        on_result=on_result,
    )


def profile(
    workload: WorkloadLike,
    *,
    device: DeviceLike = "kepler",
    seed: int = 0,
) -> KernelMetrics:
    """NVPROF-style metrics (Table I / Figure 1) for one code.

    Profiling is deterministic and single-process: it is one analytical
    pass over the golden trace, so it takes no ``workers=`` and no
    ``policy=`` — there is nothing to checkpoint, retry or replay."""
    dev = as_device(device)
    return Profiler(dev).metrics(as_workload(workload, dev, seed))


def predict(
    workload: str,
    *,
    device: DeviceLike = "kepler",
    framework: FrameworkLike = "nvbitfi",
    ecc: EccLike = EccMode.ON,
    seed: int = 0,
    injections: int = 200,
    workers: int = 1,
    session: Optional[ExperimentSession] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> Tuple[FitPrediction, str]:
    """Eq. 1–4 FIT prediction for one registry code.

    Builds (or reuses, via ``session=``) a memoized
    :class:`Session` holding the campaign, profile, memory-AVF and
    micro-benchmark FIT inputs.  Returns ``(prediction, note)`` where the
    note records any of the paper's AVF substitution fallbacks.

    ``policy=`` (an :class:`ExecutionPolicy`) shapes every campaign, beam
    run and strike sweep the prediction computes, exactly as in
    :func:`run_campaign`.
    """
    if isinstance(workload, Workload):
        raise ConfigurationError(
            "predict() resolves its campaign/profiling inputs through the "
            "workload registry; pass the code name (e.g. 'FMXM'), or drive "
            "PredictionModel directly for a custom workload"
        )
    dev = as_device(device)
    fw = as_framework(framework)
    if session is None:
        session = ExperimentSession(
            ExperimentConfig(
                seed=seed, injections=injections, workers=workers, policy=policy
            )
        )
    elif policy is not None:
        raise ConfigurationError(
            "policy= configures a new session; with session= it belongs in "
            "that session's ExperimentConfig"
        )
    return session.predict(dev.architecture, fw.name.lower(), workload, as_ecc(ecc))


__all__ = [
    # operations
    "run_campaign",
    "run_beam",
    "profile",
    "predict",
    "Session",
    "Config",
    "get_preset",
    # argument resolvers (useful for tooling built on the facade)
    "as_device",
    "as_workload",
    "as_framework",
    "as_ecc",
    # devices and registries
    "DEVICES",
    "DeviceSpec",
    "KEPLER_K40C",
    "VOLTA_V100",
    "VOLTA_TITAN_V",
    "get_device",
    "get_workload",
    "get_framework",
    # core types needed to author workloads and consume results
    "Workload",
    "WorkloadSpec",
    "LaunchConfig",
    "DType",
    "EccMode",
    "Outcome",
    "CampaignResult",
    "InjectionRecord",
    "StrikeEval",
    "BeamResult",
    "KernelMetrics",
    "FitPrediction",
    "RngFactory",
    "run_kernel",
    # injector frontends
    "NvBitFi",
    "Sassifi",
    "InjectorFramework",
    # uncore fault domains + injection sandboxing (see docs/ROBUSTNESS.md)
    "UncoreInjector",
    "InjectionSandbox",
    "SandboxLimits",
    "UncoreFitTable",
    "UncoreUnitRates",
    "uncore_table",
    # beam facilities
    "CHIPIR",
    "Facility",
    # SASS authoring
    "SassKernel",
    "assemble",
    # execution engine
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "LeaseExecutor",
    "get_executor",
    "ProgressMeter",
    # durable store + run shaping (see docs/STORAGE.md, docs/API.md)
    "CampaignStore",
    "open_store",
    "ExecutionPolicy",
    "StoreError",
    "ChunkQuarantinedError",
    # fault-tolerant campaign service (see docs/SERVICE.md)
    "ServicePolicy",
    "CampaignCancelledError",
    "submit_campaign",
    "serve_campaigns",
    "campaign_status",
    "cancel_campaign",
    # observability (see docs/OBSERVABILITY.md)
    "telemetry_session",
    "get_telemetry",
    "Telemetry",
    "Registry",
    "MemorySink",
    "FileSink",
    "StreamSink",
    "TeeSink",
    "read_trace",
    "get_logger",
    "configure_logging",
]
