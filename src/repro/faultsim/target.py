"""One injected-run path, shared by every engine.

The paper classifies every injected run the same way, whether the fault
comes from SASSIFI/NVBitFI, CAROL-FI, the uncore injector or a beam strike
(§III-D, §IV-A): the kernel runs again with a single fault armed; a device
exception or a hang is a **DUE**, an output that differs from the golden
run's is an **SDC**, anything else is **Masked**.

:class:`InjectionTarget` is that path, written once.  For one (device,
workload, ECC, backend, :class:`~repro.store.policy.ExecutionPolicy`) it
owns

* the golden run, computed on first use, and its allocated bits per
  memory space (:attr:`InjectionTarget.footprint_bits`) — read once, so
  the golden run's context (memory pool, register ring) is then dropped;
* the :class:`~repro.sim.replay.ReplaySession` and the batched evaluator
  over its tape, created on first use (an ``on_session`` hook lets the
  campaign seed a new session from a stored tape, so a fully warm run
  never creates one);
* the :class:`~repro.faultsim.sandbox.InjectionSandbox` and the
  ``WATCHDOG_FACTOR ×`` golden-ticks watchdog budget;
* the injected execution: replayed from the nearest boundary below the
  fault, the kernel's start included, or vanilla (``run_kernel``) when
  ``replay`` is off;
* the DUE/SDC/Masked verdict, with ``due_cause`` and ``contained``;
* settling a chunk of injections on the golden tape, canary included
  (:meth:`InjectionTarget.settle_on_tape`).

Engines keep only what is their own: how they sample a fault, and how
they turn a verdict into a record.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.arch.devices import DeviceSpec
from repro.arch.ecc import EccMode
from repro.faultsim.batch import BatchEvaluator
from repro.faultsim.outcomes import InjectionRecord, Outcome, StrikeEval
from repro.faultsim.sandbox import WATCHDOG_FACTOR, InjectionSandbox
from repro.sim.exceptions import ContainedCrashError, GpuDeviceException
from repro.sim.injection import InjectionPlan, StorageStrike
from repro.sim.launch import KernelRun, run_kernel
from repro.sim.replay import ReplaySession
from repro.store.policy import STORELESS, ExecutionPolicy
from repro.telemetry import get_logger
from repro.workloads.base import CompareResult, Workload

_log = get_logger("faultsim.target")


def outcome_of(compare: CompareResult) -> Outcome:
    """The outcome of a completed run, from its output comparison."""
    return Outcome.SDC if compare is CompareResult.SDC else Outcome.MASKED


class InjectionTarget:
    """Golden run, replay session, sandbox and verdict for one setup.

    ``ecc`` is the mode injected runs execute under; ``golden_ecc`` (default:
    the same) the mode of the golden run they are compared against.
    """

    def __init__(
        self,
        device: DeviceSpec,
        workload: Workload,
        ecc: EccMode,
        backend: str,
        policy: Optional[ExecutionPolicy] = None,
        *,
        golden_ecc: Optional[EccMode] = None,
        on_session: Optional[Callable[[ReplaySession], None]] = None,
    ) -> None:
        self.device = device
        self.workload = workload
        self.ecc = ecc
        self.backend = backend
        self.policy = policy or STORELESS
        self.sandbox = InjectionSandbox(self.policy.on_crash)
        self.golden_ecc = ecc if golden_ecc is None else golden_ecc
        self._on_session = on_session
        self._golden: Optional[KernelRun] = None
        #: allocated bits per memory space ("shared", "global") of the
        #: golden run; filled with it
        self.footprint_bits: Dict[str, int] = {}
        #: the replay session; None until an injected run first needs it
        self.session: Optional[ReplaySession] = None
        self._batch: Optional[BatchEvaluator] = None

    @property
    def golden(self) -> KernelRun:
        if self._golden is None:
            _log.debug(
                "computing golden run: %s on %s (ecc=%s)",
                self.workload.name, self.device.name, self.golden_ecc.value,
            )
            golden = run_kernel(
                self.device,
                self.workload.kernel,
                self.workload.sim_launch(),
                ecc=self.golden_ecc,
                backend=self.backend,
            )
            pool = golden.context.pool
            self.footprint_bits = {
                space: pool.footprint_bits(space) for space in ("shared", "global")
            }
            golden.context = None  # the only later reader was the footprint
            self._golden = golden
        return self._golden

    def replay_session(self) -> ReplaySession:
        """The replay session, created (and handed to ``on_session``) on
        first use.  Without a fault the executed stream — and so the golden
        tick count that places its snapshots — does not depend on ECC."""
        session = self.session
        if session is None:
            golden = self.golden
            session = self.session = ReplaySession(
                self.device,
                self.workload.kernel,
                self.workload.sim_launch(),
                ecc=self.ecc,
                backend=self.backend,
                snapshots_per_run=self.policy.snapshots_per_run,
                expected_ticks=golden.ticks,
            )
            if self._on_session is not None:
                self._on_session(session)
        return session

    def batch_evaluator(self) -> BatchEvaluator:
        """The batched evaluator over the replay session's tape."""
        if self._batch is None:
            self._batch = BatchEvaluator(self.golden, self.replay_session())
        return self._batch

    @functools.cached_property
    def _tape_compare(self) -> Optional[bool]:
        """How the golden tape judges a run: by output bytes (True) when
        the workload compares bitwise; by the workload's own rule on the
        rebuilt outputs (False) when that rule calls the golden outputs a
        match; not at all (None) otherwise.  YOLO's rule calls non-finite
        outputs an SDC, so a golden NaN would keep it off."""
        workload = self.workload
        if type(workload).compare is Workload.compare:
            return True
        golden = self.golden.outputs
        if workload.compare(golden, golden) is CompareResult.MATCH:
            return False
        return None

    def _verdict(self, outputs: Dict[str, np.ndarray]) -> Outcome:
        """The outcome of a completed run with these outputs."""
        return outcome_of(self.workload.compare(self.golden.outputs, outputs))

    def settle_on_tape(
        self,
        groups: Dict[str, Any],
        tasks: Sequence[Any],
        rngs: Sequence[np.random.Generator],
        records: List[Optional[InjectionRecord]],
        run_canary: Callable[[int], InjectionRecord],
    ) -> None:
        """Fill ``records[j]`` for every injection the golden tape settles.

        Needs ``replay`` and ``batch_eval``.  Entries left None, with their
        RNG streams untouched, are for the caller to run.  The first chunk
        against a tape holds a canary: ``run_canary(j)`` runs injection
        ``j`` the ordinary way, and its record confirms or retracts the
        chunk's tape verdicts.
        """
        policy = self.policy
        if not (policy.replay and policy.batch_eval) or self._tape_compare is None:
            return
        evaluator = self.batch_evaluator()
        validation = evaluator.classify(
            groups, tasks, rngs, records, None if self._tape_compare else self._verdict
        )
        if validation is not None:
            j = validation.canary
            records[j] = run_canary(j)
            validation.resolve(records[j], records)

    def execute(
        self,
        plan: Optional[InjectionPlan] = None,
        strikes: Sequence[StorageStrike] = (),
    ) -> Union[KernelRun, StrikeEval]:
        """One injected execution: the run, or its DUE verdict.

        The sandbox wraps only the execution.  A contained crash arrives as
        a DUE (``on_crash="due"``), propagates as
        :class:`~repro.common.errors.InjectionCrashError`
        (``"quarantine"``) or unchanged (``"raise"``).
        """
        watchdog = WATCHDOG_FACTOR * self.golden.ticks
        try:
            if self.policy.replay:
                # fork from the nearest boundary below the fault site (the
                # kernel's start at worst) and execute only the post-fault
                # suffix, bit-identical to the full run; the session falls
                # back to vanilla on its own
                return self.sandbox.run(
                    self.replay_session().run,
                    plan=plan,
                    strikes=strikes,
                    watchdog_limit=watchdog,
                )
            return self.sandbox.run(
                run_kernel,
                self.device,
                self.workload.kernel,
                self.workload.sim_launch(),
                ecc=self.ecc,
                backend=self.backend,
                plan=plan,
                strikes=strikes,
                watchdog_limit=watchdog,
            )
        except GpuDeviceException as exc:
            return StrikeEval(
                outcome=Outcome.DUE,
                due_cause=exc.cause,
                contained=isinstance(exc, ContainedCrashError),
            )

    def inject(
        self,
        plan: Optional[InjectionPlan] = None,
        strikes: Sequence[StorageStrike] = (),
    ) -> StrikeEval:
        """One injected execution, classified DUE, SDC or Masked."""
        run = self.execute(plan, strikes)
        if isinstance(run, StrikeEval):
            return run
        compare = self.workload.compare(self.golden.outputs, run.outputs)
        return StrikeEval(outcome=outcome_of(compare))
