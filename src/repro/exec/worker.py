"""Worker-side chunk evaluators with a per-process golden-run cache.

Each ``run_*_chunk`` function is a module-level callable (picklable by
reference) that evaluates one chunk of tasks against its context; all four
share one body (:func:`_run_chunk`) and differ only in how they build
their state and evaluate a task.  Expensive per-campaign state — the
golden :class:`~repro.sim.launch.KernelRun`, the rebuilt site groups, the
:class:`~repro.beam.engine.BeamEngine` — is memoized in a process-local
cache keyed by the context's cache key, so a worker pays for it once per
campaign rather than once per task.

The same functions serve the :class:`~repro.exec.engine.SerialExecutor`;
in that case the "worker" cache lives in the driving process, and every
engine dispatches through :func:`dispatch`, which pre-seeds it with the
state the engine already built.

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
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.ecc import EccMode
from repro.common.rng import RngFactory
from repro.exec.tasks import (
    BeamEvalContext,
    BeamEvalTask,
    CampaignContext,
    ChunkResult,
    InjectionTask,
    MemoryAvfContext,
    StrikeTask,
    UncoreContext,
)
from repro.store.policy import ExecutionPolicy
from repro.telemetry import capture, get_telemetry

if TYPE_CHECKING:
    from repro.exec.engine import Executor
    from repro.faultsim.target import InjectionTarget

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


def dispatch(
    executor: "Executor",
    fn: Callable[[Any, Sequence[Any]], ChunkResult],
    context: Any,
    tasks: Sequence[Any],
    built: Any,
    policy: ExecutionPolicy,
    *,
    on_result: Optional[Callable[[Any], None]] = None,
    prepare: Optional[Callable[[Any], None]] = None,
) -> Tuple[Any, List[Any]]:
    """Run ``tasks`` through ``executor``; returns (state, results).

    ``built`` is the state ``fn`` would build from ``context``, built by
    the driver while planning.  It pre-seeds this process's state cache,
    so the serial path and fork-started workers reuse it.  A context
    already cached keeps its entry, golden run and replay tape included:
    that state evaluates, goes to ``prepare`` before dispatch, and is
    returned."""
    state = _cached_state(context.cache_key(), lambda: built)
    if prepare is not None:
        prepare(state)
    return state, executor.run_chunks(fn, context, tasks, on_result=on_result, policy=policy)


def _run_chunk(
    ctx: Any,
    tasks: Sequence[Any],
    build: Callable[[Any], Any],
    evaluate: Callable[[Any, Sequence[Any], List[Any]], List[Any]],
) -> ChunkResult:
    """The one chunk body: ``evaluate(state, tasks, rngs)`` against the
    context's cached state (``build(ctx)`` on a miss), each task on its
    own RNG substream, with only the evaluation's telemetry shipped."""
    with capture():  # state rebuild must not pollute the shipped snapshot
        state = _cached_state(ctx.cache_key(), lambda: build(ctx))
    # one RngFactory per distinct root seed; the substream derivation
    # itself stays per task
    factories = {seed: RngFactory(seed) for seed in {task.root_seed for task in tasks}}
    with capture() as registry:
        rngs = [factories[t.root_seed].stream(*t.rng_path) for t in tasks]
        results = evaluate(state, tasks, rngs)
    return ChunkResult(results, registry.snapshot())


# -- injection campaigns ----------------------------------------------------------


def _campaign_state(ctx: CampaignContext):
    from repro.faultsim.campaign import CampaignRunner

    runner = CampaignRunner(
        ctx.device, ctx.framework, seed=ctx.root_seed, ecc=EccMode(ctx.ecc),
        policy=ctx.policy,
    )
    workload = ctx.workload.workload
    groups = {g.name: g for g in ctx.framework.site_groups(workload)}
    runner.golden(workload)  # materialize before any capture window
    return runner, workload, groups


def run_injection_chunk(ctx: CampaignContext, tasks: Sequence[InjectionTask]) -> ChunkResult:
    """Evaluate a chunk of campaign injections; returns InjectionRecords.

    Evaluated in group-sorted order (the same site machinery stays hot),
    shipped in submission order; with replay on, also tape classification
    and one vectorized output compare."""
    return _run_chunk(
        ctx, tasks, _campaign_state,
        lambda state, tasks, rngs: state[0].inject_batch(state[1], state[2], list(tasks), rngs),
    )


# -- beam fault evaluations -------------------------------------------------------


def _beam_state(ctx: BeamEvalContext):
    from repro.beam.engine import BeamEngine

    engine = BeamEngine(
        ctx.device, ctx.workload.workload, ctx.catalog, EccMode(ctx.ecc),
        backend=ctx.backend, policy=ctx.policy,
    )
    engine.golden  # materialize before any capture window
    return engine


def run_beam_chunk(ctx: BeamEvalContext, tasks: Sequence[BeamEvalTask]) -> ChunkResult:
    """Evaluate a chunk of sampled beam strikes; returns StrikeEvals.

    Functional-unit strikes go to the golden tape first (with replay and
    batch_eval on); the rest run one at a time."""
    return _run_chunk(
        ctx, tasks, _beam_state,
        lambda engine, tasks, rngs: engine.evaluate_chunk([t.resource for t in tasks], rngs),
    )


# -- memory-AVF storage strikes ----------------------------------------------------

#: memo of memory-AVF outcome → telemetry key (Outcome is imported lazily in
#: the strike evaluator, so the table fills on first sight instead of at import)
_MEM_AVF_OUTCOME_KEYS: Dict[Any, str] = {}


def memory_avf_target(ctx: MemoryAvfContext) -> "InjectionTarget":
    """The injection target of a memory-AVF sweep: ECC OFF strikes, run on
    the vanilla path."""
    from repro.faultsim.target import InjectionTarget

    return InjectionTarget(
        ctx.device, ctx.workload.workload, EccMode.OFF, ctx.backend,
        replace(ctx.policy, replay=False),
    )


def _memory_avf_state(ctx: MemoryAvfContext):
    target = memory_avf_target(ctx)
    target.golden  # materialize before any capture window
    return target


def _strike_outcomes(target, tasks: Sequence[StrikeTask], rngs) -> list:
    from repro.sim.injection import StorageStrike

    telemetry = get_telemetry()
    outcomes = []
    for task, rng in zip(tasks, rngs):
        strike = StorageStrike(tick=task.tick, space=task.space, rng=rng)
        outcome = target.inject(strikes=(strike,)).outcome
        telemetry.count("mem_avf.strikes")
        key = _MEM_AVF_OUTCOME_KEYS.get(outcome)
        if key is None:
            key = _MEM_AVF_OUTCOME_KEYS[outcome] = f"mem_avf.outcome.{outcome.value}"
        telemetry.count(key)
        outcomes.append(outcome)
    return outcomes


def run_strike_chunk(ctx: MemoryAvfContext, tasks: Sequence[StrikeTask]) -> ChunkResult:
    """Evaluate a chunk of ECC-OFF storage strikes; returns Outcomes."""
    return _run_chunk(ctx, tasks, _memory_avf_state, _strike_outcomes)


# -- uncore injections ---------------------------------------------------------------


def _uncore_state(ctx: UncoreContext):
    from repro.faultsim.uncore import UncoreInjector

    injector = UncoreInjector(
        ctx.device, ecc=EccMode(ctx.ecc), table=ctx.table, policy=ctx.policy
    )
    workload = ctx.workload.workload
    injector.golden(workload)  # materialize before any capture window
    return injector, workload


def run_uncore_chunk(ctx: UncoreContext, tasks: Sequence[InjectionTask]) -> ChunkResult:
    """Evaluate a chunk of uncore injections; returns InjectionRecords."""
    return _run_chunk(
        ctx, tasks, _uncore_state,
        lambda state, tasks, rngs: state[0].inject_tasks(state[1], tasks, rngs),
    )
