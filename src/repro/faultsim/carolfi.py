"""CAROL-FI-style high-level fault injector.

The paper rejects CAROL-FI/GPU-Qin-class tools for its study because they
"do not allow to inject faults at the SASS level" (§III-D) — they corrupt
*program variables* at source level instead of dynamic instruction
destinations.  We implement that class of injector anyway, for the
cross-accuracy comparison the paper's reference [4] (Wei et al., DSN'14)
performs between high-level and instruction-level injection:

* the injection site is a random element of a random *live device buffer*
  at a random execution point (what a debugger-based injector can reach),
* register state, predicates and addresses are invisible to it,
* one fault model: bit flip in the chosen variable.

:func:`compare_with_sass_level` quantifies how far this vantage point's
AVFs drift from the SASS-level ones on the same codes.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.arch.devices import DeviceSpec
from repro.arch.ecc import EccMode
from repro.common.errors import InjectionError
from repro.common.rng import RngFactory
from repro.faultsim.outcomes import CampaignResult, InjectionRecord, Outcome
from repro.faultsim.sandbox import WATCHDOG_FACTOR, InjectionSandbox
from repro.sim.exceptions import ContainedCrashError, GpuDeviceException
from repro.sim.injection import StorageStrike
from repro.sim.launch import KernelRun, run_kernel
from repro.sim.replay import ReplaySession
from repro.workloads.base import CompareResult, Workload


class CarolFi:
    """Source/variable-level injector: corrupts device buffer contents."""

    name = "CAROL-FI"
    #: debugger-based tools work on whatever toolchain the app shipped with
    backend = "cuda10"
    supported_architectures = ("kepler", "volta")

    def __init__(
        self,
        device: DeviceSpec,
        *,
        seed: int = 0,
        on_crash: str = "due",
        replay: bool = True,
        snapshots_per_run: int = 16,
    ) -> None:
        self.device = device
        self.rngs = RngFactory(seed)
        self.sandbox = InjectionSandbox(on_crash)
        self.replay_enabled = replay
        self.snapshots_per_run = snapshots_per_run
        self._golden: Dict[str, KernelRun] = {}
        self._sessions: Dict[str, ReplaySession] = {}

    def _session(self, workload: Workload) -> ReplaySession:
        # the injected runs execute ECC OFF (the debugger writes around
        # ECC), so the session captures ECC OFF too; without a strike the
        # executed stream — and therefore golden.ticks — is ECC-invariant
        session = self._sessions.get(workload.name)
        if session is None:
            golden = self.golden(workload)
            session = ReplaySession(
                self.device,
                workload.kernel,
                workload.sim_launch(),
                ecc=EccMode.OFF,
                backend=self.backend,
                snapshots_per_run=self.snapshots_per_run,
                expected_ticks=golden.ticks,
            )
            self._sessions[workload.name] = session
        return session

    def golden(self, workload: Workload) -> KernelRun:
        if workload.name not in self._golden:
            self._golden[workload.name] = run_kernel(
                self.device,
                workload.kernel,
                workload.sim_launch(),
                ecc=EccMode.ON,
                backend=self.backend,
            )
        return self._golden[workload.name]

    def inject_once(self, workload: Workload, rng: np.random.Generator) -> InjectionRecord:
        """One variable-level fault: flip a bit of a random buffer word at a
        random execution tick (ECC is bypassed — the injector writes the
        corrupted value through the memory hierarchy, as ptrace-style tools
        do)."""
        golden = self.golden(workload)
        tick = float(rng.integers(0, max(1, int(golden.ticks))))
        strike = StorageStrike(tick=tick, space="global", rng=rng)
        try:
            if self.replay_enabled:
                run = self.sandbox.run(
                    self._session(workload).run,
                    strikes=(strike,),
                    watchdog_limit=WATCHDOG_FACTOR * golden.ticks,
                )
            else:
                run = self.sandbox.run(
                    run_kernel,
                    self.device,
                    workload.kernel,
                    workload.sim_launch(),
                    ecc=EccMode.OFF,  # the debugger writes around ECC
                    backend=self.backend,
                    strikes=(strike,),
                    watchdog_limit=WATCHDOG_FACTOR * golden.ticks,
                )
        except GpuDeviceException as exc:
            return InjectionRecord(
                group="variable",
                outcome=Outcome.DUE,
                due_cause=exc.cause,
                contained=isinstance(exc, ContainedCrashError),
            )
        compare = workload.compare(golden.outputs, run.outputs)
        outcome = Outcome.SDC if compare is CompareResult.SDC else Outcome.MASKED
        return InjectionRecord(group="variable", outcome=outcome, detail="buffer_flip")

    def run(self, workload: Workload, injections: int) -> CampaignResult:
        if injections <= 0:
            raise InjectionError("campaign needs at least one injection")
        rng = self.rngs.stream("carolfi", self.device.name, workload.name)
        result = CampaignResult(
            workload=workload.name, framework=self.name, device=self.device.name
        )
        for _ in range(injections):
            result.add(self.inject_once(workload, rng))
        return result


def compare_with_sass_level(
    device: DeviceSpec,
    workloads: List[Workload],
    injections: int = 150,
    seed: int = 0,
) -> List[dict]:
    """AVF_SDC from variable-level vs SASS-level injection, per code.

    Returns rows with both AVFs and their ratio — the quantity Wei et
    al. [4] call the accuracy of high-level injection.
    """
    from repro.faultsim.campaign import CampaignRunner
    from repro.faultsim.frameworks import NvBitFi

    carol = CarolFi(device, seed=seed)
    sass_runner = CampaignRunner(device, NvBitFi(), seed=seed)
    rows = []
    for workload in workloads:
        high = carol.run(workload, injections)
        low = sass_runner.run(workload, injections)
        high_avf = high.avf(Outcome.SDC)
        low_avf = low.avf(Outcome.SDC)
        rows.append(
            {
                "code": workload.name,
                "variable-level AVF": high_avf,
                "SASS-level AVF": low_avf,
                "ratio": high_avf / low_avf if low_avf > 0 else float("inf"),
            }
        )
    return rows
