"""Uncore fault injector: the domain hardware injectors cannot reach.

SASSIFI/NVBitFI corrupt architecturally visible state — instruction
outputs, registers, addresses — and therefore never see the warp
scheduler, instruction fetch/decode, memory-controller transactions, or
the host interface.  The paper attributes the bulk of beam-measured DUEs
to exactly those structures (§VII-B, Fig. 6 and the NSREC'21 follow-up).
:class:`UncoreInjector` makes them injectable in simulation:

* fault *sites* are uncore units, weighted by their per-unit FIT
  contribution on the running workload
  (:func:`repro.arch.uncore.uncore_table` × the unit's activity),
* each injected fault draws its manifestation from the unit's outcome
  mixture (the same splits the beam catalog uses):

  - **DUE** — the record carries the ``cause`` of the unit's
    :class:`~repro.sim.exceptions.GpuDeviceException` subclass
    (``SchedulerHangError``, ``InstructionDecodeError``,
    ``MemoryControllerError``, ``HostInterfaceError``) as its
    machine-readable ``due_cause``; nothing is re-executed,
  - **SDC** — the fault leaks into architectural state and is replayed
    *mechanistically*: a corrupted memory-controller transaction becomes a
    global-memory strike, corrupted scheduler state a register-file strike,
    a decode fault a wrong instruction output; the workload's own
    comparison rule then decides SDC vs masked,
  - **masked** — the corrupted state was never consumed; no re-execution.

Every mechanistic replay is an injected run of the shared
:class:`~repro.faultsim.target.InjectionTarget`, so it is sandboxed,
watchdog-limited and classified like any other injection.

Campaigns are dispatched through :mod:`repro.exec` like the SASSIFI/NVBitFI
ones: the units are drawn up front from one parent stream, and each
injection draws the rest from a private substream named after its ordinal,
so results are bit-identical for any ``workers=`` setting and resume from
a store.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.arch.devices import DeviceSpec
from repro.arch.ecc import EccMode
from repro.arch.uncore import UncoreFitTable, uncore_table
from repro.arch.units import UnitKind
from repro.common.errors import InjectionError
from repro.common.rng import RngFactory
from repro.exec.engine import Executor, get_executor
from repro.exec.tasks import InjectionTask, UncoreContext, WorkloadHandle
from repro.exec.worker import dispatch, run_uncore_chunk
from repro.faultsim.outcomes import CampaignResult, InjectionRecord, Outcome
from repro.faultsim.target import InjectionTarget
from repro.sim.exceptions import (
    GpuDeviceException,
    HostInterfaceError,
    InstructionDecodeError,
    MemoryControllerError,
    SchedulerHangError,
)
from repro.sim.injection import (
    FaultModel,
    InjectionMode,
    InjectionPlan,
    StorageStrike,
    gpr_write_stream,
)
from repro.sim.launch import KernelRun
from repro.store.policy import STORELESS, ExecutionPolicy
from repro.telemetry import get_telemetry
from repro.workloads.base import Workload

#: the device exception a DUE-manifesting fault in each unit stands for
#: (its ``cause`` is the record's ``due_cause``); lives here (not
#: repro.arch) so the arch layer stays below repro.sim
UNCORE_EXCEPTIONS: Dict[UnitKind, Type[GpuDeviceException]] = {
    UnitKind.SCHEDULER: SchedulerHangError,
    UnitKind.INSTRUCTION_PIPELINE: InstructionDecodeError,
    UnitKind.MEMORY_CONTROLLER: MemoryControllerError,
    UnitKind.HOST_INTERFACE: HostInterfaceError,
}

#: where an SDC-manifesting uncore fault leaks into architectural state
_SDC_SPACE = {
    UnitKind.SCHEDULER: "rf",        # stale operand read from a mis-scheduled warp
    UnitKind.MEMORY_CONTROLLER: "global",  # corrupted write-back transaction
    UnitKind.HOST_INTERFACE: "global",     # corrupted DMA / copy-engine word
}

_UNITS = tuple(UNCORE_EXCEPTIONS)
_GROUP_NAMES = {unit: f"uncore:{unit.value}" for unit in _UNITS}
_GROUP_UNITS = {name: unit for unit, name in _GROUP_NAMES.items()}


def uncore_due_cause(unit: UnitKind) -> str:
    """The machine-readable ``due_cause`` a DUE in this unit carries."""
    return UNCORE_EXCEPTIONS[unit].cause


class UncoreInjector:
    """Simulated injector for warp-scheduler / ipipe / memctl / host-if faults."""

    name = "UNCORE"
    #: simulation backend: these faults are toolchain-independent, use the
    #: modern compiler like the other high-level tools
    backend = "cuda10"
    supported_architectures = ("kepler", "volta")

    def __init__(
        self,
        device: DeviceSpec,
        *,
        seed: int = 0,
        ecc: EccMode = EccMode.ON,
        table: Optional[UncoreFitTable] = None,
        workers: int = 1,
        executor: Optional[Executor] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        self.device = device
        self.rngs = RngFactory(seed)
        self.ecc = ecc
        self.table = table if table is not None else uncore_table(device.architecture)
        self.executor = get_executor(workers, executor)
        self.policy = policy or STORELESS
        self._targets: Dict[str, InjectionTarget] = {}

    # -- golden ---------------------------------------------------------------
    def _target(self, workload: Workload) -> InjectionTarget:
        target = self._targets.get(workload.name)
        if target is None:
            target = self._targets[workload.name] = InjectionTarget(
                self.device, workload, self.ecc, self.backend, self.policy
            )
        return target

    def golden(self, workload: Workload) -> KernelRun:
        return self._target(workload).golden

    # -- site weighting -------------------------------------------------------
    def unit_weights(self, workload: Workload) -> Dict[UnitKind, float]:
        """Per-unit FIT contribution of the running workload.

        The same activity scaling the beam's exposure profile applies:
        per-SM units (scheduler, ipipe) count once per busy SM, the
        memory-controller cluster scales with device size, the host
        interface with how chatty the code is.  Faults are then sampled
        proportionally, so campaign AVFs weight units like the field does.
        """
        golden = self.golden(workload)
        occ_inputs = workload.reference_occupancy_inputs(self.device)
        sms_busy = max(1.0, min(float(self.device.sm_count), float(occ_inputs["grid_blocks"])))
        activity = {
            UnitKind.SCHEDULER: sms_busy,
            UnitKind.INSTRUCTION_PIPELINE: sms_busy,
            UnitKind.MEMORY_CONTROLLER: self.device.sm_count / 10.0,
            UnitKind.HOST_INTERFACE: 1.0 + golden.trace.host_syncs / 4.0,
        }
        return {
            unit: self.table.rates_for(unit).fit_per_instance * activity[unit]
            for unit in _UNITS
        }

    # -- one chunk ------------------------------------------------------------
    def inject_tasks(
        self, workload: Workload, tasks: Sequence[InjectionTask], rngs: Sequence
    ) -> List[InjectionRecord]:
        """Planned injections, each into the unit its group names."""
        telemetry = get_telemetry()
        records = []
        for task, rng in zip(tasks, rngs):
            unit = _GROUP_UNITS[task.group]
            record = self._inject_once(workload, unit, rng)
            telemetry.count("uncore.injections")
            telemetry.count(f"uncore.outcome.{record.outcome.value}")
            telemetry.count(f"uncore.unit.{unit.value}")
            records.append(record)
        return records

    def _inject_once(
        self, workload: Workload, unit: UnitKind, rng: np.random.Generator
    ) -> InjectionRecord:
        target = self._target(workload)
        golden = target.golden
        group = _GROUP_NAMES[unit]
        rates = self.table.rates_for(unit)
        draw = float(rng.random())
        if draw >= rates.p_due + rates.p_sdc:
            # the corrupted state was flushed / never consumed
            return InjectionRecord(group=group, outcome=Outcome.MASKED, detail="absorbed")
        if draw < rates.p_due:
            # the unit's own device exception: nothing is re-executed
            return InjectionRecord(
                group=group, outcome=Outcome.DUE, due_cause=uncore_due_cause(unit)
            )
        # SDC branch: replay the leak mechanistically
        plan = None
        strikes: Tuple[StorageStrike, ...] = ()
        if unit is UnitKind.INSTRUCTION_PIPELINE:
            plan = self._decode_plan(golden, rng)
        if plan is None:
            tick = float(rng.integers(0, max(1, int(golden.ticks))))
            strikes = (StorageStrike(tick=tick, space=_SDC_SPACE.get(unit, "global"), rng=rng),)
        verdict = target.inject(plan, strikes)
        if verdict.outcome is Outcome.DUE:
            return InjectionRecord(
                group=group,
                outcome=Outcome.DUE,
                due_cause=verdict.due_cause,
                contained=verdict.contained,
            )
        return InjectionRecord(group=group, outcome=verdict.outcome, detail=f"{unit.value}_leak")

    def _decode_plan(
        self, golden: KernelRun, rng: np.random.Generator
    ) -> Optional[InjectionPlan]:
        """A decode fault executes the *wrong* instruction: model it as a
        randomly corrupted output of a random dynamic GPR write."""
        writes = golden.trace.instances_of(
            op for op in golden.trace.instances if gpr_write_stream(op)
        )
        if writes < 1:
            return None
        return InjectionPlan(
            mode=InjectionMode.OUTPUT_VALUE,
            stream=gpr_write_stream,
            target_index=int(rng.integers(0, int(writes))),
            fault_model=FaultModel.RANDOM_VALUE,
            rng=rng,
        )

    # -- campaign -------------------------------------------------------------
    def run(self, workload: Workload, injections: int) -> CampaignResult:
        if injections <= 0:
            raise InjectionError("campaign needs at least one injection")
        weights = self.unit_weights(workload)
        units = list(weights)
        p = np.array([weights[u] for u in units], dtype=np.float64)
        if not (p > 0).any():
            raise InjectionError(f"no active uncore units for {workload.name}")
        p = p / p.sum()
        names = ("uncore", self.device.name, workload.name)
        choices = self.rngs.stream(*names).choice(len(units), size=injections, p=p)
        tasks = [
            InjectionTask(
                index=i,
                group=_GROUP_NAMES[units[int(choices[i])]],
                target_index=0,
                root_seed=self.rngs.root_seed,
                rng_path=(*names, "task", i),
            )
            for i in range(injections)
        ]
        context = UncoreContext(
            device=self.device,
            ecc=self.ecc.value,
            table=self.table,
            workload=WorkloadHandle.wrap(workload),
            policy=self.policy.without_store(),
        )
        _, records = dispatch(
            self.executor, run_uncore_chunk, context, tasks, (self, workload), self.policy
        )
        result = CampaignResult(
            workload=workload.name, framework=self.name, device=self.device.name
        )
        for record in records:
            result.add(record)
        return result
