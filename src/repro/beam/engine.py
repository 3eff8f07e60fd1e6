"""Beam outcome engine: classify one sampled particle strike.

Faults in *architecturally visible* resources are evaluated mechanistically
— the fault is injected into a re-execution of the workload through the
injectors' own :class:`~repro.faultsim.target.InjectionTarget`, and the
run's outcome is observed.  Faults in *storage under ECC* short-circuit
analytically (corrected, or a detected uncorrectable → DUE), and faults in
*hidden* resources draw from the catalog's outcome mixtures (the one
modeled element; see DESIGN.md §5.4).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.arch.devices import DeviceSpec
from repro.arch.ecc import EccMode, EccOutcome, SecdedModel
from repro.arch.isa import OpClass
from repro.arch.units import UnitKind
from repro.beam.cross_sections import CrossSectionCatalog
from repro.common.errors import ConfigurationError
from repro.faultsim.frameworks import SiteGroup
from repro.faultsim.outcomes import InjectionRecord, Outcome, StrikeEval
from repro.faultsim.target import InjectionTarget
from repro.faultsim.uncore import UNCORE_EXCEPTIONS
from repro.sim.exceptions import EccDoubleBitError
from repro.sim.injection import (
    FaultModel,
    InjectionMode,
    InjectionPlan,
    StorageStrike,
    opclass_stream,
)
from repro.sim.launch import KernelRun
from repro.store.policy import ExecutionPolicy
from repro.telemetry import get_telemetry
from repro.workloads.base import Workload

_ADDRESSABLE = (OpClass.LDG, OpClass.STG, OpClass.LDS, OpClass.STS)

#: telemetry keys precomputed over the closed (kind, outcome) space —
#: ``evaluate_detailed`` runs once per sampled strike, so no f-strings there;
#: DUE causes are an open set, memoized on first sight
_EVAL_KEYS = {kind: f"beam.eval.{kind}" for kind in ("op", "mem", "hidden")}
_OUTCOME_KEYS = {
    (kind, outcome): f"beam.outcome.{kind}.{outcome.value}"
    for kind in ("op", "mem", "hidden")
    for outcome in Outcome
}
_CAUSE_KEYS: dict = {}


class _OpStrike(NamedTuple):
    """An op strike as the batched evaluator sees a task: a site group and
    a target index."""

    group: str
    target_index: int


class BeamEngine:
    """Evaluates strike outcomes for one (device, workload, ECC) setup."""

    def __init__(
        self,
        device: DeviceSpec,
        workload: Workload,
        catalog: CrossSectionCatalog,
        ecc: EccMode,
        backend: str = "cuda10",
        *,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        self.device = device
        self.workload = workload
        self.catalog = catalog
        self.ecc = ecc
        self.backend = backend
        self.secded = SecdedModel(mode=ecc)
        #: the mechanistic re-executions: sandboxed like the injection
        #: campaigns (the beam supervisor never dies with the DUT)
        self.target = InjectionTarget(device, workload, ecc, backend, policy)
        #: one OUTPUT_VALUE site group per struck op class, for the tape
        self._op_groups: Dict[OpClass, SiteGroup] = {}

    @property
    def golden(self) -> KernelRun:
        return self.target.golden

    # -- strike evaluators ------------------------------------------------------------
    def _op_group(self, op: OpClass) -> SiteGroup:
        group = self._op_groups.get(op)
        if group is None:
            group = self._op_groups[op] = SiteGroup(
                f"op:{op.name}", InjectionMode.OUTPUT_VALUE, opclass_stream(op)
            )
        return group

    def _op_plan(self, op: OpClass, rng: np.random.Generator) -> InjectionPlan:
        """A functional-unit strike's plan: the strike's first draws pick
        the target instance, then (for LD/ST) the mode."""
        instances = self.golden.trace.instances.get(op, 0)
        if instances <= 0:
            raise ConfigurationError(f"{self.workload.name} never executes {op}")
        target = int(rng.integers(0, int(instances)))
        mode = InjectionMode.OUTPUT_VALUE
        if op in _ADDRESSABLE and rng.random() < self.catalog.lsu_address_fraction:
            mode = InjectionMode.ADDRESS
        return InjectionPlan(
            mode=mode,
            stream=self._op_group(op).stream,
            target_index=target,
            fault_model=FaultModel.SINGLE_BIT,
            rng=rng,
        )

    def op_fault_eval(self, op: OpClass, rng: np.random.Generator) -> StrikeEval:
        """A strike on a functional-unit datapath while ``op`` is in flight."""
        return self.target.inject(self._op_plan(op, rng))

    def storage_fault_eval(self, unit: UnitKind, rng: np.random.Generator) -> StrikeEval:
        """A strike on a storage bit (RF / shared / device memory)."""
        if not unit.is_storage:
            raise ConfigurationError(f"{unit} is not storage")
        if self.ecc is EccMode.ON:
            # analytic short-circuit: SECDED corrects single-bit upsets and
            # escalates the MBU fraction to a driver-level DUE
            outcome = self.secded.strike(rng)
            if outcome is EccOutcome.DETECTED_DUE:
                return StrikeEval(outcome=Outcome.DUE, due_cause=EccDoubleBitError.cause)
            return StrikeEval(outcome=Outcome.MASKED)
        space = {
            UnitKind.REGISTER_FILE: "rf",
            UnitKind.SHARED_MEMORY: "shared",
            UnitKind.DEVICE_MEMORY: "global",
            UnitKind.L2_CACHE: "global",
        }[unit]
        strike = StorageStrike(tick=self._strike_tick(rng), space=space, rng=rng)
        return self.target.inject(strikes=(strike,))

    def _strike_tick(self, rng: np.random.Generator) -> float:
        """An unprotected storage strike's first draw: its tick."""
        return float(rng.integers(0, max(1, int(self.golden.ticks))))

    def hidden_fault_eval(self, unit: UnitKind, rng: np.random.Generator) -> StrikeEval:
        """A strike on a resource no injector can reach: outcome mixture.

        Exactly one RNG draw, as before cause tracking (numeric
        compatibility); a DUE carries the unit's uncore cause — the same
        ``GpuDeviceException.cause`` the :class:`UncoreInjector` raises, so
        beam and injector DUE provenance share one vocabulary.
        """
        if not unit.is_hidden:
            raise ConfigurationError(f"{unit} is not a hidden resource")
        model = self.catalog.hidden_outcomes[unit]
        draw = rng.random()
        if draw < model.p_due:
            return StrikeEval(outcome=Outcome.DUE, due_cause=UNCORE_EXCEPTIONS[unit].cause)
        if draw < model.p_due + model.p_sdc:
            return StrikeEval(outcome=Outcome.SDC)
        return StrikeEval(outcome=Outcome.MASKED)

    # -- resource dispatch ----------------------------------------------------------------
    def evaluate_detailed(self, resource: str, rng: np.random.Generator) -> StrikeEval:
        """Evaluate by flat resource key ("op:FFMA", "mem:register_file",
        "hidden:scheduler"), with DUE provenance."""
        kind, _, name = resource.partition(":")
        if kind == "op":
            evaluation = self.op_fault_eval(OpClass[name], rng)
        elif kind == "mem":
            evaluation = self.storage_fault_eval(UnitKind(name), rng)
        elif kind == "hidden":
            evaluation = self.hidden_fault_eval(UnitKind(name), rng)
        else:
            raise ConfigurationError(f"unknown resource key {resource!r}")
        return self._tally(kind, evaluation)

    def evaluate_chunk(
        self, resources: Sequence[str], rngs: Sequence[np.random.Generator]
    ) -> List[StrikeEval]:
        """Evaluate a chunk of strikes: the same results, RNG draws and
        telemetry as :meth:`evaluate_detailed` per strike.

        Functional-unit strikes draw their plans first.  The OUTPUT_VALUE
        ones go to the golden tape, one site group per op class.  Each
        strike the tape does not settle then runs on its own, replayed from
        its nearest boundary, with its RNG as the draws left it.
        """
        plans: Dict[int, Tuple[OpClass, InjectionPlan]] = {}
        for j, resource in enumerate(resources):
            kind, _, name = resource.partition(":")
            if kind == "op":
                op = OpClass[name]
                plans[j] = op, self._op_plan(op, rngs[j])
        settled = self._settle_on_tape(plans)
        evaluations = []
        for j, resource in enumerate(resources):
            if j not in plans:
                evaluations.append(self.evaluate_detailed(resource, rngs[j]))
                continue
            evaluation = settled.get(j)
            if evaluation is None:
                evaluation = self.target.inject(plans[j][1])
            evaluations.append(self._tally("op", evaluation))
        return evaluations

    def _settle_on_tape(
        self, plans: Dict[int, Tuple[OpClass, InjectionPlan]]
    ) -> Dict[int, StrikeEval]:
        """The evaluations of the OUTPUT_VALUE op strikes the tape settles,
        by position."""
        batched = [
            j for j, (_, plan) in plans.items() if plan.mode is InjectionMode.OUTPUT_VALUE
        ]
        if not batched:
            return {}
        groups = {}
        tasks = []
        for j in batched:
            op, plan = plans[j]
            group = self._op_group(op)
            groups[group.name] = group
            tasks.append(_OpStrike(group.name, plan.target_index))

        def run_canary(i: int) -> InjectionRecord:
            plan = plans[batched[i]][1]
            evaluation = self.target.inject(plan)
            return InjectionRecord(
                group=tasks[i].group,
                outcome=evaluation.outcome,
                op=plan.record.op,
                bit=plan.record.bit,
                detail=plan.record.detail,
                due_cause=evaluation.due_cause,
                contained=evaluation.contained,
            )

        records: List[Optional[InjectionRecord]] = [None] * len(batched)
        self.target.settle_on_tape(
            groups, tasks, [plans[j][1].rng for j in batched], records, run_canary
        )
        return {
            j: StrikeEval(record.outcome, record.due_cause, record.contained)
            for j, record in zip(batched, records)
            if record is not None
        }

    @staticmethod
    def _tally(kind: str, evaluation: StrikeEval) -> StrikeEval:
        # per-provenance-bucket tallies; captured per task in worker chunks,
        # so the merged aggregate is identical for any workers= setting
        telemetry = get_telemetry()
        telemetry.count("beam.evals")
        telemetry.count(_EVAL_KEYS[kind])
        telemetry.count(_OUTCOME_KEYS[kind, evaluation.outcome])
        if evaluation.outcome is Outcome.DUE:
            cause_key = _CAUSE_KEYS.get(evaluation.due_cause)
            if cause_key is None:
                cause_key = _CAUSE_KEYS[evaluation.due_cause] = (
                    f"beam.due_cause.{evaluation.due_cause or 'unknown'}"
                )
            telemetry.count(cause_key)
        return evaluation
