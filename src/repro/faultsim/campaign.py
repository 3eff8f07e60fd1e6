"""Campaign runner: golden run, N injections, outcome classification.

One injection = one full re-execution of the workload with a single armed
fault (the single-fault regime of §IV-A), classified against the golden
output with the workload's comparison rule:

* simulated device exception → **DUE**,
* output differs             → **SDC**,
* otherwise                  → **Masked**.

Runs exceeding a fixed multiple of the golden instruction count are hung
and killed by the simulated watchdog (→ DUE), like a real campaign's
timeout supervisor.  The golden run, replay, sandbox, watchdog and verdict
are the shared :class:`~repro.faultsim.target.InjectionTarget`; the runner
keeps its fault sampling, the ECC-ON register-file shortcut, the batch
tier and the batched output comparison.

Campaigns are dispatched through :mod:`repro.exec`: the runner samples
every fault site up front (one parent RNG stream), then fans the
re-executions out over the configured executor.  Each injection draws its
corruption randomness from a private substream named after the campaign
and the injection ordinal, so results are bit-identical for any
``workers=`` setting.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.devices import DeviceSpec
from repro.arch.ecc import EccMode, EccOutcome, SecdedModel
from repro.common.errors import InjectionError
from repro.common.rng import RngFactory
from repro.exec.engine import Executor, get_executor
from repro.exec.tasks import CampaignContext, InjectionTask, WorkloadHandle
from repro.exec.worker import dispatch, run_injection_chunk
from repro.faultsim.frameworks import InjectorFramework, SiteGroup
from repro.faultsim.outcomes import CampaignResult, InjectionRecord, Outcome, StrikeEval
from repro.faultsim.target import InjectionTarget, outcome_of
from repro.sim.injection import InjectionMode, InjectionPlan, StorageStrike
from repro.sim.launch import KernelRun, count_run_telemetry
from repro.sim.replay import ReplaySession
from repro.store.backends import DONE, ChunkRecord
from repro.store.codec import decode_results, encode_results
from repro.store.fingerprint import chunk_fingerprints
from repro.store.policy import STORELESS, ExecutionPolicy
from repro.telemetry import get_telemetry
from repro.workloads.base import CompareResult, Workload

#: telemetry keys precomputed outside the per-injection path; outcomes are a
#: closed enum, group names are memoized on first sight
_OUTCOME_KEYS = {outcome: f"campaign.outcome.{outcome.value}" for outcome in Outcome}
_GROUP_KEYS: Dict[str, str] = {}


def _batched_compare(
    golden_outputs: Dict[str, np.ndarray],
    faulty_outputs: Sequence[Dict[str, np.ndarray]],
) -> List[CompareResult]:
    """One vectorized pass of the default output comparison over N runs.

    Exactly replicates :meth:`Workload.compare`'s default — key-set, shape
    and dtype checks, then bitwise equality (uint8 views are NaN-safe for
    floats and value-exact for ints) — so it is only used when the workload
    has not overridden ``compare``.
    """
    names = sorted(golden_outputs)
    verdicts = [CompareResult.MATCH] * len(faulty_outputs)
    comparable: List[int] = []
    for i, outputs in enumerate(faulty_outputs):
        if sorted(outputs) != names or any(
            outputs[n].shape != golden_outputs[n].shape
            or outputs[n].dtype != golden_outputs[n].dtype
            for n in names
        ):
            verdicts[i] = CompareResult.SDC
        else:
            comparable.append(i)
    if not comparable:
        return verdicts
    mismatch = np.zeros(len(comparable), dtype=bool)
    for name in names:
        golden = np.ascontiguousarray(golden_outputs[name])
        stacked = np.stack(
            [np.ascontiguousarray(faulty_outputs[i][name]) for i in comparable]
        )
        rows = stacked.view(np.uint8).reshape(len(comparable), -1)
        mismatch |= (rows != golden.view(np.uint8).reshape(1, -1)).any(axis=1)
    for row, i in enumerate(comparable):
        if mismatch[row]:
            verdicts[i] = CompareResult.SDC
    return verdicts


def _count(records) -> None:
    """The per-injection telemetry trio: total, outcome, site group."""
    telemetry = get_telemetry()
    for record in records:
        telemetry.count("campaign.injections")
        telemetry.count(_OUTCOME_KEYS[record.outcome])
        group_key = _GROUP_KEYS.get(record.group)
        if group_key is None:
            group_key = _GROUP_KEYS[record.group] = f"campaign.group.{record.group}"
        telemetry.count(group_key)


class _TapeStore:
    """The store a runner's replay tapes load from and save to: the one of
    the run it currently serves.  A runner the worker state cache keeps
    serves every later run of its context in this process, and each run
    points it at its own store (:meth:`serve`)."""

    def __init__(self, policy: ExecutionPolicy) -> None:
        self.serve(policy)

    def serve(self, policy: ExecutionPolicy) -> None:
        self.policy = policy
        #: the process that owns the policy's store handle: a pool worker
        #: forked with the runner in its state cache must not read through
        #: the inherited handle (a SQLite connection does not survive fork)
        self.pid = os.getpid()


class CampaignRunner:
    """Runs fault-injection campaigns for one (device, framework) pair."""

    def __init__(
        self,
        device: DeviceSpec,
        framework: InjectorFramework,
        ecc: EccMode = EccMode.ON,
        *,
        seed: int = 0,
        workers: int = 1,
        executor: Optional[Executor] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        self.device = device
        self.framework = framework
        self.rngs = RngFactory(seed)
        self.ecc = ecc
        self.executor = get_executor(workers, executor)
        self.policy = policy or STORELESS
        #: one injection target per workload name
        self._targets: Dict[str, InjectionTarget] = {}
        self._secded = SecdedModel(mode=ecc)
        self._tapes = _TapeStore(self.policy)

    # -- injection targets ------------------------------------------------------
    def _target(self, workload: Workload) -> InjectionTarget:
        """The workload's injection target.

        Its replay session is seeded, when first created, from the tape a
        previous run stored.  A serial run first creates it when some chunk
        actually evaluates, so a fully warm serial campaign never loads (or
        unpickles) a tape; a parallel run creates it before dispatch."""
        target = self._targets.get(workload.name)
        if target is None:
            target = self._targets[workload.name] = InjectionTarget(
                self.device,
                workload,
                self.ecc,
                self.framework.backend,
                self.policy,
                # no reference back to the runner: one the worker state
                # cache evicts is freed at once, golden run and all
                on_session=functools.partial(
                    self._load_session_state, self._tapes, self.campaign_context(workload)
                ),
            )
        return target

    def golden(self, workload: Workload) -> KernelRun:
        return self._target(workload).golden

    # -- one injection -----------------------------------------------------------
    def inject_once(
        self,
        workload: Workload,
        group: SiteGroup,
        target_index: int,
        rng: np.random.Generator,
    ) -> InjectionRecord:
        record = self._inject_once(workload, group, target_index, rng)
        _count((record,))
        return record

    def _inject_once(
        self,
        workload: Workload,
        group: SiteGroup,
        target_index: int,
        rng: np.random.Generator,
    ) -> InjectionRecord:
        record, outputs, plan = self._attempt(workload, group, target_index, rng)
        if record is not None:
            return record
        compare = workload.compare(self.golden(workload).outputs, outputs)
        return self._classify(group, plan, compare)

    def _attempt(
        self,
        workload: Workload,
        group: SiteGroup,
        target_index: int,
        rng: np.random.Generator,
    ) -> Tuple[Optional[InjectionRecord], Optional[Dict[str, np.ndarray]], Optional[InjectionPlan]]:
        """Run one injection up to (but excluding) the output comparison.

        Returns ``(record, outputs, plan)``: a complete record when the run
        ends without outputs to compare (DUE, or the analytic ECC-ON RF
        shortcut), else ``None`` plus the surviving run's outputs.
        """
        target = self._target(workload)
        plan = None
        strikes: Sequence[StorageStrike] = ()
        if group.mode is InjectionMode.REGISTER_FILE:
            if self.policy.replay and self.ecc is EccMode.ON:
                # Analytic shortcut: an ECC-ON RF strike never needs a
                # re-execution.  SECDED either corrects the flip (the run is
                # then the golden run, bit for bit) or detects a double-bit
                # upset and kills the context before any output exists.
                return self._analytic_rf_strike(target.golden, group, target_index, rng), None, None
            strikes = (StorageStrike(tick=float(target_index), space="rf", rng=rng),)
        else:
            plan = InjectionPlan(
                mode=group.mode,
                stream=group.stream,
                target_index=target_index,
                fault_model=group.fault_model,
                rng=rng,
            )
        run = target.execute(plan, strikes)
        if isinstance(run, StrikeEval):
            return InjectionRecord(
                group=group.name,
                outcome=Outcome.DUE,
                op=plan.record.op if plan else None,
                bit=plan.record.bit if plan else -1,
                due_cause=run.due_cause,
                contained=run.contained,
            ), None, None
        # outside the sandbox: a plan that never fired is a campaign setup
        # bug, not an outcome of the run
        if plan is not None and not plan.fired:
            raise InjectionError(
                f"{workload.name}: plan targeting index {target_index} in group "
                f"{group.name!r} never fired — target beyond the stream?"
            )
        return None, run.outputs, plan

    def _classify(
        self,
        group: SiteGroup,
        plan: Optional[InjectionPlan],
        compare: CompareResult,
    ) -> InjectionRecord:
        return InjectionRecord(
            group=group.name,
            outcome=outcome_of(compare),
            op=plan.record.op if plan else None,
            bit=plan.record.bit if plan else -1,
            detail=plan.record.detail if plan else "rf_strike",
        )

    def _analytic_rf_strike(
        self,
        golden: KernelRun,
        group: SiteGroup,
        target_index: int,
        rng: np.random.Generator,
    ) -> InjectionRecord:
        """Classify an ECC-ON RF strike without re-executing the kernel.

        Draw-for-draw identical to the mechanistic path: a strike past the
        last emission never lands (no draw); otherwise SECDED samples the
        bit multiplicity with exactly one ``rng.random()`` call and either
        corrects (→ golden run) or raises the double-bit DUE.
        """
        if float(target_index) >= golden.ticks:
            # lands after the final tick: the strike never applies and the
            # run completes as the golden run
            count_run_telemetry(golden.trace)
            return InjectionRecord(
                group=group.name, outcome=Outcome.MASKED, op=None, bit=-1,
                detail="rf_strike",
            )
        if self._secded.strike(rng) is EccOutcome.DETECTED_DUE:
            # context killed mid-run: no outputs, no post-run telemetry
            # (matches the EccDoubleBitError path through a re-execution)
            return InjectionRecord(
                group=group.name, outcome=Outcome.DUE, op=None, bit=-1,
                due_cause="ecc_dbe", contained=False,
            )
        # corrected: the rest of the run is bit-for-bit the golden run
        count_run_telemetry(golden.trace)
        return InjectionRecord(
            group=group.name, outcome=Outcome.MASKED, op=None, bit=-1,
            detail="rf_strike",
        )

    # -- one chunk ---------------------------------------------------------------
    def inject_batch(
        self,
        workload: Workload,
        groups: Dict[str, SiteGroup],
        tasks: Sequence[InjectionTask],
        rngs: Sequence[np.random.Generator],
    ) -> List[InjectionRecord]:
        """Evaluate one chunk of injections against shared replay state.

        Bit-identical to calling :meth:`inject_once` per task: evaluation
        happens in the same group-sorted order, records come back in
        submission order, and each record counts the same telemetry trio.
        Batching buys two things — most injections resolve on the golden
        tape without executing anything (:class:`BatchEvaluator`; every
        task has a private RNG substream, so classification order cannot
        perturb the draws), and output comparison for the *residual* runs,
        each replayed from its nearest boundary, is one vectorized numpy
        pass instead of N scalar ones.
        """
        target = self._target(workload)
        golden = target.golden
        order = sorted(range(len(tasks)), key=lambda j: (tasks[j].group, j))
        records: List[Optional[InjectionRecord]] = [None] * len(tasks)
        pending: List[tuple] = []
        batched_compare = type(workload).compare is Workload.compare
        target.settle_on_tape(
            groups, tasks, rngs, records,
            lambda j: self._inject_once(
                workload, groups[tasks[j].group], tasks[j].target_index, rngs[j]
            ),
        )
        for j in order:
            if records[j] is not None:
                continue
            task = tasks[j]
            group = groups[task.group]
            record, outputs, plan = self._attempt(
                workload, group, task.target_index, rngs[j]
            )
            if record is not None:
                records[j] = record
            elif batched_compare:
                pending.append((j, group, plan, outputs))
            else:
                compare = workload.compare(golden.outputs, outputs)
                records[j] = self._classify(group, plan, compare)
        if pending:
            verdicts = _batched_compare(golden.outputs, [p[3] for p in pending])
            for (j, group, plan, _), compare in zip(pending, verdicts):
                records[j] = self._classify(group, plan, compare)
        _count(records[j] for j in order)
        return records

    # -- durable replay-session state ----------------------------------------------
    #
    # The recorded tape + snapshots are themselves content-addressed: keyed
    # by the campaign context (device, framework, ECC, workload, seed salt)
    # plus the snapshot density, under STORE_SALT.  They ride in the same
    # store as chunk results but talk to the backend directly — session
    # records are bookkeeping, not campaign results, so they must not
    # perturb the store.hits / store.tasks_replayed / store.commits
    # accounting the resume contract pins down.
    @staticmethod
    def _session_fingerprint(context: CampaignContext, workload: Workload) -> str:
        descriptor = {
            "replay_session": workload.name,
            # a constant: kept so stored tapes keep their fingerprints
            "fast_path": True,
            "snapshots_per_run": context.policy.snapshots_per_run,
        }
        return chunk_fingerprints(context, [[descriptor]])[0]

    @staticmethod
    def _load_session_state(
        tapes: "_TapeStore", context: CampaignContext, session: ReplaySession
    ) -> None:
        policy = tapes.policy
        if not policy.read_allowed or os.getpid() != tapes.pid:
            return
        workload = context.workload.workload
        fingerprint = CampaignRunner._session_fingerprint(context, workload)
        try:
            record = policy.store.backend.get(fingerprint)
            if record is None or record.status != DONE or not record.payload:
                return
            payload = decode_results(record.payload)[0]
        except Exception:
            return  # unreadable session state: recapture from scratch
        session.import_state(payload)

    def _save_session_state(self, context: CampaignContext, workload: Workload) -> None:
        policy = self._tapes.policy
        if not policy.write_allowed:
            return
        session = self._target(workload).session
        if session is None:
            return  # every evaluation ran in spawned workers or vanilla
        payload = session.export_state()
        if payload is None:
            return
        fingerprint = self._session_fingerprint(context, workload)
        if not policy.refresh and policy.store.backend.get(fingerprint) is not None:
            return
        policy.store.backend.put(
            ChunkRecord(
                fingerprint=fingerprint,
                kind="replay_session",
                status=DONE,
                payload=encode_results([payload]),
                telemetry=None,
                meta={"workload": workload.name},
                created=time.time(),
            )
        )

    # -- campaign -------------------------------------------------------------------
    def plan_tasks(self, workload: Workload, injections: int) -> List[InjectionTask]:
        """Sample every fault site for a campaign up front.

        Sites are drawn over the framework's site groups proportionally to
        their dynamic size (so the aggregate AVF reflects a uniform fault
        over executed state), from one parent stream; each task then names
        its own private substream for the corruption draws.  The task list
        is a pure function of (device, framework, workload, seed).
        """
        if injections <= 0:
            raise InjectionError("campaign needs at least one injection")
        self.framework.check_supported(workload, self.device)
        golden = self.golden(workload)
        groups = self.framework.site_groups(workload)
        sizes = np.array([g.size(golden.trace) for g in groups], dtype=np.float64)
        live = sizes > 0
        if not live.any():
            raise InjectionError(
                f"{self.framework.name} has no reachable fault sites in {workload.name}"
            )
        groups = [g for g, ok in zip(groups, live) if ok]
        sizes = sizes[live]
        weights = sizes / sizes.sum()

        names = (self.framework.name, self.device.name, workload.name)
        rng = self.rngs.stream("faultsim", *names)
        group_choices = rng.choice(len(groups), size=injections, p=weights)
        targets = rng.integers(0, sizes[group_choices].astype(np.int64))
        return [
            InjectionTask(
                index=i,
                group=groups[int(group_choices[i])].name,
                target_index=int(targets[i]),
                root_seed=self.rngs.root_seed,
                rng_path=("faultsim", *names, "task", i),
            )
            for i in range(injections)
        ]

    def campaign_context(self, workload: Workload) -> CampaignContext:
        """The durable chunk context a campaign over ``workload`` runs under.

        Exposed so out-of-band planners (the campaign service coordinator)
        can fingerprint a campaign's chunks — identically to the run
        itself — before dispatching it."""
        return CampaignContext(
            device=self.device,
            framework=self.framework,
            ecc=self.ecc.value,
            root_seed=self.rngs.root_seed,
            workload=WorkloadHandle.wrap(workload),
            policy=self.policy.without_store(),
        )

    def run(
        self,
        workload: Workload,
        injections: int,
        on_result: Optional[Callable[[InjectionRecord], None]] = None,
    ) -> CampaignResult:
        """Run a full campaign of ``injections`` faults.

        Evaluations are dispatched through the runner's executor;
        ``on_result`` observes each completed injection (completion order).
        The returned record list is in sampling order regardless of worker
        scheduling.
        """
        telemetry = get_telemetry()
        with telemetry.span(
            "campaign",
            workload=workload.name,
            framework=self.framework.name,
            device=self.device.name,
            injections=injections,
            workers=self.executor.workers,
        ):
            tasks = self.plan_tasks(workload, injections)
            context = self.campaign_context(workload)
            groups = {g.name: g for g in self.framework.site_groups(workload)}

            def prepare(state) -> None:
                # the runner that evaluates (one an earlier run of this
                # context left cached keeps serving, tape and all) loads
                # and saves its tape through this run's store
                runner = state[0]
                runner._tapes.serve(self.policy)
                if self.policy.replay and self.executor.workers > 1:
                    # pool workers fork with this runner but may not read
                    # the store: import a stored tape here, before the pool
                    # starts, so a partial resume does not re-capture it in
                    # every worker
                    runner._target(workload).replay_session()

            (runner, _, _), records = dispatch(
                self.executor, run_injection_chunk, context, tasks,
                (self, workload, groups), self.policy,
                on_result=on_result, prepare=prepare,
            )
            if self.policy.replay:
                runner._save_session_state(context, workload)
            result = CampaignResult(
                workload=workload.name, framework=self.framework.name, device=self.device.name
            )
            for record in records:
                result.add(record)
            telemetry.count("campaign.runs")
            telemetry.point(
                "campaign.result",
                workload=workload.name,
                framework=self.framework.name,
                injections=result.injections,
                outcomes={o.value: result.count(o) for o in Outcome},
                due_breakdown=result.due_breakdown(),
                contained=result.contained_count(),
            )
        return result


def run_campaign(
    device: DeviceSpec,
    framework: InjectorFramework,
    workload: Workload,
    injections: int,
    seed: int = 0,
    ecc: EccMode = EccMode.ON,
    *,
    workers: int = 1,
    executor: Optional[Executor] = None,
    on_result: Optional[Callable[[InjectionRecord], None]] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> CampaignResult:
    """One-shot campaign convenience wrapper."""
    runner = CampaignRunner(
        device, framework, ecc, seed=seed, workers=workers, executor=executor,
        policy=policy,
    )
    return runner.run(workload, injections, on_result=on_result)
