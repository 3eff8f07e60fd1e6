"""Parallel campaign execution engine.

Fault-injection campaigns, beam fault evaluations, memory-AVF strike
sweeps and uncore campaigns are embarrassingly parallel: every evaluation
re-executes the workload with one armed fault and classifies the outcome
independently.  This package fans those evaluations out over worker
processes (CAROL-FI, whose injections share one sequential stream, is
the one engine that runs serially on its own):

* :mod:`repro.exec.tasks` — picklable task descriptions.  A task names the
  fault site (group + target index, beam resource, or storage strike) and
  carries the *name path* of its private RNG substream, so the drawn random
  numbers depend only on the root seed and the task identity — never on
  worker count, chunking, or scheduling order.  Serial and parallel runs
  are therefore bit-identical (asserted by ``tests/exec``).
* :mod:`repro.exec.engine` — the executors.  :class:`SerialExecutor` runs
  chunks in-process (the default, and what tests use);
  :class:`ProcessExecutor` dispatches chunks over a
  ``concurrent.futures.ProcessPoolExecutor``.
* :mod:`repro.exec.worker` — worker-side chunk evaluators with a
  per-process cache, so each worker computes the golden
  :class:`~repro.sim.launch.KernelRun` once per workload instead of once
  per task, and :func:`~repro.exec.worker.dispatch`, the one call every
  engine drives the executor and the store through.  Evaluators capture their tasks' telemetry into a local
  :class:`~repro.telemetry.metrics.Registry` and ship it back inside a
  :class:`~repro.exec.tasks.ChunkResult`; the executors merge snapshots in
  chunk order, so ``workers=N`` aggregates exactly match a serial run.
* :mod:`repro.exec.progress` — an ``on_result`` rate/ETA meter for long
  campaigns (used by the ``repro.experiments`` CLI), also consumable as a
  telemetry :class:`~repro.telemetry.events.EventSink`.

Durability is layered on through ``run_chunks(..., policy=ExecutionPolicy)``:
completed chunks checkpoint to a :mod:`repro.store` backend and replay on
resume, failing chunks retry with backoff and quarantine — see
``docs/STORAGE.md``.
"""

from repro.exec.engine import Executor, ProcessExecutor, SerialExecutor, get_executor
from repro.exec.progress import ProgressMeter
from repro.exec.tasks import (
    BeamEvalContext,
    BeamEvalTask,
    CampaignContext,
    ChunkResult,
    InjectionTask,
    MemoryAvfContext,
    StrikeTask,
    UncoreContext,
    WorkloadHandle,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
    "ProgressMeter",
    "ChunkResult",
    "WorkloadHandle",
    "CampaignContext",
    "InjectionTask",
    "BeamEvalContext",
    "BeamEvalTask",
    "MemoryAvfContext",
    "StrikeTask",
    "UncoreContext",
]
