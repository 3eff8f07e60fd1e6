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

from typing import Dict, List, Optional

import numpy as np

from repro.arch.devices import DeviceSpec
from repro.arch.ecc import EccMode
from repro.common.errors import InjectionError
from repro.common.rng import RngFactory
from repro.faultsim.outcomes import CampaignResult, InjectionRecord, Outcome
from repro.faultsim.target import InjectionTarget
from repro.sim.injection import StorageStrike
from repro.sim.launch import KernelRun
from repro.store.policy import ExecutionPolicy
from repro.workloads.base import Workload


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
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        self.device = device
        self.rngs = RngFactory(seed)
        self.policy = policy
        self._targets: Dict[str, InjectionTarget] = {}

    def _target(self, workload: Workload) -> InjectionTarget:
        # the golden run keeps ECC ON, like the application; the injected
        # runs execute ECC OFF, because the debugger writes around ECC
        target = self._targets.get(workload.name)
        if target is None:
            target = self._targets[workload.name] = InjectionTarget(
                self.device, workload, EccMode.OFF, self.backend, self.policy,
                golden_ecc=EccMode.ON,
            )
        return target

    def golden(self, workload: Workload) -> KernelRun:
        return self._target(workload).golden

    def inject_once(self, workload: Workload, rng: np.random.Generator) -> InjectionRecord:
        """One variable-level fault: flip a bit of a random buffer word at a
        random execution tick (ECC is bypassed — the injector writes the
        corrupted value through the memory hierarchy, as ptrace-style tools
        do)."""
        target = self._target(workload)
        tick = float(rng.integers(0, max(1, int(target.golden.ticks))))
        verdict = target.inject(strikes=(StorageStrike(tick=tick, space="global", rng=rng),))
        if verdict.outcome is Outcome.DUE:
            return InjectionRecord(
                group="variable",
                outcome=Outcome.DUE,
                due_cause=verdict.due_cause,
                contained=verdict.contained,
            )
        return InjectionRecord(group="variable", outcome=verdict.outcome, detail="buffer_flip")

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
