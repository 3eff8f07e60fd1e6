"""Worker-side chunk evaluators with a per-process golden-run cache.

Each function is a module-level callable (picklable by reference) that
evaluates one chunk of tasks against its context.  Expensive per-campaign
state — the golden :class:`~repro.sim.launch.KernelRun`, the rebuilt site
groups, the :class:`~repro.beam.engine.BeamEngine` — is memoized in a
process-local cache keyed by the context's fingerprint, so a worker pays
for it once per campaign rather than once per task.

The same functions serve the :class:`~repro.exec.engine.SerialExecutor`;
in that case the "worker" cache lives in the driving process and plays the
role the engines' own golden caches played before the redesign.

Telemetry contract: per-campaign state (golden runs, rebuilt site groups)
is materialized inside a *discarded* :func:`repro.telemetry.capture` scope,
separate from the captured per-task window — so the redundant state
rebuild is invisible to metrics whether the evaluator runs in a worker
process or in the driving one.  Only per-task metrics travel back, which
is what makes ``workers=N`` aggregates identical to serial runs (the
parent's own golden, counted once during task planning, is the same in
both modes).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Sequence

from repro.common.rng import RngFactory
from repro.exec.tasks import (
    BeamEvalContext,
    BeamEvalTask,
    CampaignContext,
    ChunkResult,
    InjectionTask,
    MemoryAvfContext,
    StrikeTask,
)
from repro.telemetry import capture, get_telemetry

#: process-local memo of per-campaign state, evicted least-recently-used so
#: interleaved campaigns (e.g. a combined-analysis sweep alternating between
#: two workloads) never thrash the whole cache the way clear-on-overflow did
_STATE_CACHE: "OrderedDict[tuple, Any]" = OrderedDict()
_STATE_CACHE_LIMIT = 32


def _cached_state(key: tuple, build: Callable[[], Any]) -> Any:
    state = _STATE_CACHE.get(key)
    if state is None:
        while len(_STATE_CACHE) >= _STATE_CACHE_LIMIT:
            _STATE_CACHE.popitem(last=False)
        _STATE_CACHE[key] = state = build()
    else:
        _STATE_CACHE.move_to_end(key)
    return state


#: memo of memory-AVF outcome → telemetry key (Outcome is imported lazily in
#: the strike evaluator, so the table fills on first sight instead of at import)
_MEM_AVF_OUTCOME_KEYS: Dict[Any, str] = {}


def _rng_factories(tasks: Sequence[Any]) -> Dict[int, RngFactory]:
    """One RngFactory per distinct root seed in the chunk (hoisted out of
    the per-task loop; the substream derivation itself stays per task)."""
    return {seed: RngFactory(seed) for seed in {task.root_seed for task in tasks}}


# -- injection campaigns ----------------------------------------------------------


def _campaign_state(ctx: CampaignContext):
    from repro.arch.ecc import EccMode
    from repro.faultsim.campaign import CampaignRunner
    from repro.store.policy import ExecutionPolicy

    def build():
        runner = CampaignRunner(
            ctx.device, ctx.framework, seed=ctx.root_seed, ecc=EccMode(ctx.ecc),
            policy=ExecutionPolicy(
                on_crash=ctx.on_crash,
                replay=ctx.replay,
                snapshots_per_run=ctx.snapshots_per_run,
                batch_eval=ctx.batch_eval,
            ),
        )
        workload = ctx.workload.workload
        groups = {g.name: g for g in ctx.framework.site_groups(workload)}
        runner.golden(workload)  # materialize before any capture window
        return runner, workload, groups

    return _cached_state(ctx.cache_key(), build)


def run_injection_chunk(ctx: CampaignContext, tasks: Sequence[InjectionTask]) -> ChunkResult:
    """Evaluate a chunk of campaign injections; returns InjectionRecords."""
    with capture():  # state rebuild must not pollute the shipped snapshot
        runner, workload, groups = _campaign_state(ctx)
    factories = _rng_factories(tasks)
    with capture() as registry:
        # evaluated in group-sorted order (the same site machinery stays
        # hot), shipped in submission order; with replay on, also tape
        # classification, snapshot mining and one vectorized output compare
        rngs = [factories[t.root_seed].stream(*t.rng_path) for t in tasks]
        records = runner.inject_batch(workload, groups, list(tasks), rngs)
    return ChunkResult(records, registry.snapshot())


# -- beam fault evaluations -------------------------------------------------------


def _beam_state(ctx: BeamEvalContext):
    from repro.arch.ecc import EccMode
    from repro.beam.engine import BeamEngine
    from repro.store.policy import ExecutionPolicy

    def build():
        engine = BeamEngine(
            ctx.device,
            ctx.workload.workload,
            ctx.catalog,
            EccMode(ctx.ecc),
            backend=ctx.backend,
            policy=ExecutionPolicy(
                on_crash=ctx.on_crash,
                replay=ctx.replay,
                snapshots_per_run=ctx.snapshots_per_run,
                batch_eval=ctx.batch_eval,
            ),
        )
        engine.golden  # materialize before any capture window
        return engine

    return _cached_state(ctx.cache_key(), build)


def run_beam_chunk(ctx: BeamEvalContext, tasks: Sequence[BeamEvalTask]) -> ChunkResult:
    """Evaluate a chunk of sampled beam strikes; returns StrikeEvals."""
    with capture():  # state rebuild must not pollute the shipped snapshot
        engine = _beam_state(ctx)
    factories = _rng_factories(tasks)
    with capture() as registry:
        # functional-unit strikes go to the golden tape first (with replay
        # and batch_eval on); the rest run one at a time
        rngs = [factories[t.root_seed].stream(*t.rng_path) for t in tasks]
        evals = engine.evaluate_chunk([t.resource for t in tasks], rngs)
    return ChunkResult(evals, registry.snapshot())


# -- memory-AVF storage strikes ----------------------------------------------------


def memory_avf_target(ctx: MemoryAvfContext) -> "InjectionTarget":
    """The injection target of a memory-AVF sweep: ECC OFF strikes, run on
    the vanilla path."""
    from repro.arch.ecc import EccMode
    from repro.faultsim.target import InjectionTarget
    from repro.store.policy import ExecutionPolicy

    return InjectionTarget(
        ctx.device,
        ctx.workload.workload,
        EccMode.OFF,
        ctx.backend,
        ExecutionPolicy(on_crash=ctx.on_crash, replay=False),
    )


def _memory_avf_state(ctx: MemoryAvfContext):
    def build():
        target = memory_avf_target(ctx)
        target.golden  # materialize before any capture window
        return target

    return _cached_state(ctx.cache_key(), build)


def run_strike_chunk(ctx: MemoryAvfContext, tasks: Sequence[StrikeTask]) -> ChunkResult:
    """Evaluate a chunk of ECC-OFF storage strikes; returns Outcomes."""
    from repro.sim.injection import StorageStrike

    with capture():  # state rebuild must not pollute the shipped snapshot
        target = _memory_avf_state(ctx)
    factories = _rng_factories(tasks)
    outcomes = []
    with capture() as registry:
        telemetry = get_telemetry()
        for task in tasks:
            rng = factories[task.root_seed].stream(*task.rng_path)
            strike = StorageStrike(tick=task.tick, space=task.space, rng=rng)
            outcome = target.inject(strikes=(strike,)).outcome
            telemetry.count("mem_avf.strikes")
            key = _MEM_AVF_OUTCOME_KEYS.get(outcome)
            if key is None:
                key = _MEM_AVF_OUTCOME_KEYS[outcome] = f"mem_avf.outcome.{outcome.value}"
            telemetry.count(key)
            outcomes.append(outcome)
    return ChunkResult(outcomes, registry.snapshot())
