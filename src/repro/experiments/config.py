"""Experiment configuration and quality presets.

The paper's campaign sizes (≥4,000 injections per code with NVBitFI,
10,000 with SASSIFI; ≥72 beam hours per code) are wall-clock weeks on real
hardware.  The presets trade statistical tightness for turn-around on the
simulator; ``paper`` approaches the published campaign sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.store.policy import ExecutionPolicy


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment runner."""

    seed: int = 0
    #: injections per (code, framework) campaign — Figure 4 / predictions
    injections: int = 200
    #: beam exposure per code, accelerated hours
    beam_hours: float = 72.0
    #: cap on mechanistic fault evaluations per beam run
    beam_fault_evals: int = 150
    #: beam sampling mode: "expected" (stratified, low variance) or
    #: "montecarlo" (faithful Poisson counting statistics)
    beam_mode: str = "expected"
    #: storage strikes for the Eq. 3 memory AVF
    memory_avf_strikes: int = 40
    #: parallel fault-evaluation workers (1 = in-process serial, 0 = one per
    #: CPU); results are bit-identical for any setting (repro.exec)
    workers: int = 1
    #: one :class:`~repro.store.policy.ExecutionPolicy` shaping every
    #: campaign, beam run and strike sweep the session computes —
    #: durability, failure handling and checkpoint/replay.  None: no store
    #: and no retries (docs/API.md)
    policy: Optional[ExecutionPolicy] = None

    def __post_init__(self) -> None:
        if self.injections <= 0 or self.beam_fault_evals <= 0:
            raise ConfigurationError("campaign sizes must be positive")
        if self.beam_hours <= 0:
            raise ConfigurationError("beam_hours must be positive")
        if self.beam_mode not in ("expected", "montecarlo"):
            raise ConfigurationError(f"unknown beam mode {self.beam_mode!r}")
        if self.workers < 0:
            raise ConfigurationError("workers must be >= 0 (0 = one per CPU)")


PRESETS = {
    "smoke": ExperimentConfig(injections=60, beam_fault_evals=60, memory_avf_strikes=16),
    "quick": ExperimentConfig(),
    "full": ExperimentConfig(injections=600, beam_fault_evals=300, memory_avf_strikes=80),
    "paper": ExperimentConfig(injections=4000, beam_fault_evals=1000, memory_avf_strikes=200),
}


def get_preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError as exc:
        raise ConfigurationError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from exc
