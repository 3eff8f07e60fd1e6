"""Kernel launch driver.

:func:`run_kernel` is the single entry point every higher layer uses: the
profiler (golden run + trace), the injectors (golden + faulty runs), and the
beam engine (strike-bearing runs).  It builds the context, executes the
kernel function, and packages outputs + trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.arch.devices import DeviceSpec
from repro.arch.ecc import EccMode, SecdedModel
from repro.arch.isa import OpClass
from repro.common.errors import ConfigurationError
from repro.sim.context import KernelContext
from repro.sim.injection import InjectionPlan, StorageStrike
from repro.sim.trace import ExecutionTrace
from repro.telemetry import get_telemetry

#: a kernel: consumes a context, returns host copies of its outputs by name
KernelFn = Callable[[KernelContext], Dict[str, np.ndarray]]

#: retired-instruction telemetry keys, built once instead of per run
_SIM_INSTR_KEYS = {op: f"sim.instructions.{op.name}" for op in OpClass}


@dataclass(frozen=True)
class LaunchConfig:
    """Simulation-scale launch geometry."""

    grid_blocks: int
    threads_per_block: int
    warp_lanes: bool = False

    def __post_init__(self) -> None:
        if self.grid_blocks <= 0 or self.threads_per_block <= 0:
            raise ConfigurationError("grid and block sizes must be positive")

    @property
    def total_threads(self) -> int:
        return self.grid_blocks * self.threads_per_block


@dataclass
class KernelRun:
    """Result of one simulated kernel execution."""

    outputs: Dict[str, np.ndarray]
    trace: ExecutionTrace
    #: the run's final tick (its length in emitted lane-operations)
    ticks: float = 0.0
    #: the finished context, memory pool and registers included; a holder
    #: that keeps the run may drop it once it has read what it needs
    context: Optional[KernelContext] = field(repr=False, default=None)


def run_kernel(
    device: DeviceSpec,
    kernel: KernelFn,
    launch: LaunchConfig,
    ecc: EccMode = EccMode.ON,
    backend: str = "cuda10",
    plan: Optional[InjectionPlan] = None,
    strikes: Sequence[StorageStrike] = (),
    watchdog_limit: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
) -> KernelRun:
    """Execute ``kernel`` once on ``device`` and return its outputs + trace.

    Simulated device failures (:class:`GpuDeviceException`) propagate to the
    caller — the reliability engines catch them and record a DUE.
    """
    ctx = KernelContext(
        device=device,
        grid_blocks=launch.grid_blocks,
        threads_per_block=launch.threads_per_block,
        ecc=SecdedModel(mode=ecc),
        rng=rng,
        backend=backend,
        warp_lanes=launch.warp_lanes,
        watchdog_limit=watchdog_limit,
    )
    if plan is not None:
        ctx.arm(plan)
    for strike in strikes:
        ctx.schedule_strike(strike)
    # Lane operations evaluate every lane including predicated-off ones, so
    # div-by-zero / overflow in dead lanes is expected — hardware does the
    # same and simply never writes those lanes back.
    with np.errstate(all="ignore"):
        outputs = kernel(ctx)
    if not isinstance(outputs, dict):
        raise ConfigurationError("kernels must return a dict of named outputs")
    trace = ctx.trace  # flushes the batched trace accounting
    count_run_telemetry(trace)
    return KernelRun(outputs=outputs, trace=trace, ticks=ctx.tick, context=ctx)


def count_run_telemetry(trace: ExecutionTrace, runs: int = 1) -> None:
    """Retired-instruction telemetry for one completed kernel execution.

    One registry update per *run*, not per instruction, so instrumentation
    cost is invisible next to simulation.  The per-opcode-class counters
    double as a cross-check of the Figure 1 instruction-mix profiler (see
    repro.telemetry.report).  Shared by :func:`run_kernel` and the
    checkpoint/replay engine (:mod:`repro.sim.replay`), which must emit the
    exact same counters for a replayed execution.

    ``runs`` batches N identical executions of the same trace into one
    registry update (instance counts are integers, so ``runs * instances``
    is exact in the float counters — identical to N separate calls).
    """
    telemetry = get_telemetry()
    telemetry.count("sim.kernel_runs", runs)
    for op, instances in trace.instances.items():
        telemetry.count(_SIM_INSTR_KEYS[op], runs * instances)
    telemetry.count("sim.instructions_total", runs * trace.total_instances)
