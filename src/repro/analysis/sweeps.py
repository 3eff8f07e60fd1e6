"""Seed sweeps and method-agreement statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.arch.devices import DeviceSpec
from repro.arch.ecc import EccMode
from repro.beam.experiment import BeamExperiment
from repro.common.errors import ConfigurationError
from repro.faultsim.campaign import CampaignRunner
from repro.faultsim.frameworks import InjectorFramework
from repro.faultsim.outcomes import Outcome


@dataclass(frozen=True)
class AvfSweep:
    """AVF of one (code, framework) pair measured under several seeds."""

    workload: str
    framework: str
    outcome: Outcome
    values: Tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values, ddof=1)) if len(self.values) > 1 else 0.0

    @property
    def spread(self) -> float:
        """max - min across seeds: the reproducibility half of the paper's
        '95% intervals lower than 5%' campaign-sizing criterion."""
        return float(max(self.values) - min(self.values))

    def stable_within(self, tolerance: float) -> bool:
        return self.spread <= tolerance


def seed_sweep_campaign(
    device: DeviceSpec,
    framework: InjectorFramework,
    workload_builder,
    injections: int,
    seeds: Sequence[int],
    outcome: Outcome = Outcome.SDC,
) -> AvfSweep:
    """Run the same campaign under several seeds; ``workload_builder(seed)``
    must return a fresh workload (inputs are re-seeded too, so the sweep
    covers both sampling and input variation)."""
    if not seeds:
        raise ConfigurationError("need at least one seed")
    values: List[float] = []
    name = framework_name = ""
    for seed in seeds:
        workload = workload_builder(seed)
        runner = CampaignRunner(device, framework, seed=seed)
        result = runner.run(workload, injections)
        values.append(result.avf(outcome))
        name, framework_name = result.workload, result.framework
    return AvfSweep(workload=name, framework=framework_name, outcome=outcome, values=tuple(values))


@dataclass(frozen=True)
class BeamModeAgreement:
    """Monte Carlo vs expected-value beam FITs for one configuration."""

    workload: str
    expected_fit: float
    montecarlo_fits: Tuple[float, ...]

    @property
    def mc_mean(self) -> float:
        return float(np.mean(self.montecarlo_fits))

    @property
    def ratio(self) -> float:
        """MC mean / expected — 1.0 when the estimators agree."""
        if self.expected_fit <= 0:
            return float("inf") if self.mc_mean > 0 else 1.0
        return self.mc_mean / self.expected_fit


def beam_mode_agreement(
    device: DeviceSpec,
    workload_builder,
    ecc: EccMode = EccMode.ON,
    beam_hours: float = 72.0,
    mc_seeds: Sequence[int] = (0, 1, 2),
    max_fault_evals: int = 120,
) -> BeamModeAgreement:
    """The two beam estimators target the same quantity; their agreement is
    a consistency check on the fluence accounting."""
    expected = BeamExperiment(device, seed=0).run(
        workload_builder(0), ecc=ecc, beam_hours=beam_hours,
        mode="expected", max_fault_evals=max_fault_evals,
    )
    mc_values = []
    for seed in mc_seeds:
        result = BeamExperiment(device, seed=seed).run(
            workload_builder(0), ecc=ecc, beam_hours=beam_hours,
            mode="montecarlo", max_fault_evals=max_fault_evals,
        )
        mc_values.append(result.fit_sdc.value)
    return BeamModeAgreement(
        workload=expected.workload,
        expected_fit=expected.fit_sdc.value,
        montecarlo_fits=tuple(mc_values),
    )


def rank_correlation(ours: Sequence[float], reference: Sequence[float]) -> float:
    """Spearman rank correlation — used to score how well our Table I /
    Figure 5 orderings track the paper's published columns."""
    if len(ours) != len(reference) or len(ours) < 3:
        raise ConfigurationError("need two equal series of length >= 3")
    # scipy.stats is imported here, not at module scope: loading it costs
    # about half a second that every other caller of the package would pay
    from scipy.stats import spearmanr

    return float(spearmanr(ours, reference).statistic)
