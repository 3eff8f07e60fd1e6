"""The campaign coordinator: registry in, finished campaigns out.

:class:`CampaignCoordinator` is the serve-side of the service.  One
coordinator process (per host) drains the campaign registry in schedule
order: claim the highest-priority pending entry, plan its tasks, record
the chunk fingerprints on the entry (so ``status`` can report progress
without re-planning), then dispatch the campaign through a
:class:`~repro.exec.engine.LeaseExecutor` — which is where the fault
tolerance lives: N lease-coordinated workers, worker-death recovery, and
cooperative cancellation.  Multiple coordinators pointed at the same
store cooperate for free, because every piece of shared state (the
registry, the leases, the chunks) lives in the store.

The module-level helpers (:func:`submit_campaign`,
:func:`serve_campaigns`, :func:`campaign_status`, :func:`cancel_campaign`)
are the library face of the CLI's ``submit`` / ``serve`` / ``status`` /
``cancel`` verbs — each opens the store, acts, and returns plain data.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.common.errors import CampaignCancelledError, ChunkQuarantinedError
from repro.faultsim.outcomes import Outcome
from repro.service.records import (
    CANCELLED,
    COMPLETE,
    CampaignEntry,
    FAILED,
    MODE_CLEAN,
    RUNNING,
    TombstoneRecord,
)
from repro.service.registry import CampaignRegistry
from repro.store.policy import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    ExecutionPolicy,
    ServicePolicy,
)
from repro.store.store import CampaignStore, StoreLike, open_store
from repro.telemetry import get_telemetry


class CampaignCoordinator:
    """Drains the campaign registry of one store (see module doc)."""

    def __init__(
        self,
        store: CampaignStore,
        workers: int = 1,
        service: Optional[ServicePolicy] = None,
        clock: Callable[[], float] = time.time,
        chaos_kill_after: Optional[int] = None,
        chaos_worker: int = 0,
    ) -> None:
        self.store = store
        self.workers = workers
        self.service = service if service is not None else ServicePolicy()
        self.registry = CampaignRegistry(store, clock=clock)
        self.chaos_kill_after = chaos_kill_after
        self.chaos_worker = chaos_worker

    def serve(self, max_campaigns: Optional[int] = None) -> List[Dict[str, object]]:
        """Run claimable campaigns in schedule order until none remain
        (or ``max_campaigns`` were run).  Returns one summary row each."""
        rows: List[Dict[str, object]] = []
        while max_campaigns is None or len(rows) < max_campaigns:
            self.store.refresh()
            claimable = self.registry.claimable()
            if not claimable:
                break
            rows.append(self.run_entry(claimable[0]))
        return rows

    def run_entry(self, entry: CampaignEntry) -> Dict[str, object]:
        """Run one registered campaign through the lease executor."""
        from repro.api import as_device, as_ecc, as_framework, as_workload
        from repro.exec.engine import LeaseExecutor, _chunked, default_chunksize
        from repro.faultsim.campaign import CampaignRunner
        from repro.store.fingerprint import chunk_fingerprints

        telemetry = get_telemetry()
        spec = entry.spec
        policy = ExecutionPolicy(
            store=self.store,
            # DAVOS-style clean mode: recompute everything (the lease
            # executor turns refresh into a staleness watermark)
            refresh=(entry.mode == MODE_CLEAN),
            retries=int(spec.get("retries", DEFAULT_RETRIES)),
            backoff=float(spec.get("backoff", DEFAULT_BACKOFF)),
            on_crash=spec.get("on_crash", "due"),
            service=self.service,
        )
        executor = LeaseExecutor(
            workers=self.workers,
            service=self.service,
            campaign=entry.name,
            chaos_kill_after=self.chaos_kill_after,
            chaos_worker=self.chaos_worker,
        )
        device = as_device(str(spec.get("device", "kepler")))
        seed = int(spec.get("seed", 0))
        runner = CampaignRunner(
            device,
            as_framework(str(spec.get("framework", "nvbitfi"))),
            seed=seed,
            ecc=as_ecc(spec.get("ecc", "on")),
            executor=executor,
            policy=policy,
        )
        workload = as_workload(str(spec["workload"]), device, seed)
        injections = int(spec.get("injections", 200))

        # plan before running: the entry's recorded fingerprints are what
        # `status` reports progress against while workers are mid-campaign
        tasks = runner.plan_tasks(workload, injections)
        context = runner.campaign_context(workload)
        chunks = _chunked(tasks, default_chunksize(len(tasks), 1))
        fingerprints = chunk_fingerprints(context, chunks)
        self.registry.transition(entry.name, RUNNING, chunks=fingerprints)
        telemetry.count("service.campaigns.started")

        row: Dict[str, object] = {
            "name": entry.name,
            "workload": workload.name,
            "injections": injections,
            "chunks": len(fingerprints),
        }
        try:
            result = runner.run(workload, injections)
        except CampaignCancelledError as exc:
            self.registry.transition(entry.name, CANCELLED, error=exc.reason)
            telemetry.count("service.campaigns.cancelled_runs")
            row.update(
                state=CANCELLED, committed=exc.committed, total=exc.total,
                reason=exc.reason,
            )
            return row
        except ChunkQuarantinedError as exc:
            self.registry.transition(entry.name, FAILED, error=str(exc))
            telemetry.count("service.campaigns.failed")
            row.update(state=FAILED, error=str(exc))
            return row
        self.registry.transition(entry.name, COMPLETE)
        telemetry.count("service.campaigns.completed")
        row.update(
            state=COMPLETE,
            outcomes={o.value: result.count(o) for o in Outcome},
        )
        return row


# -- library face of the CLI verbs ------------------------------------------------


def _with_store(spec: StoreLike):
    """(store, owned) — close only handles this call opened."""
    store = open_store(spec)
    return store, store is not spec


def submit_campaign(
    store: StoreLike,
    name: str,
    workload: str,
    *,
    device: str = "kepler",
    framework: str = "nvbitfi",
    injections: int = 200,
    seed: int = 0,
    ecc: str = "on",
    priority: int = 0,
    mode: str = "continue",
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    on_crash: Optional[str] = None,
) -> CampaignEntry:
    """Register a named campaign in the store (CLI ``submit``)."""
    spec: Dict[str, object] = {
        "workload": workload,
        "device": device,
        "framework": framework,
        "injections": int(injections),
        "seed": int(seed),
        "ecc": ecc,
    }
    if retries is not None:
        spec["retries"] = int(retries)
    if backoff is not None:
        spec["backoff"] = float(backoff)
    if on_crash is not None:
        spec["on_crash"] = on_crash
    handle, owned = _with_store(store)
    try:
        return CampaignRegistry(handle).submit(
            name, spec, priority=priority, mode=mode
        )
    finally:
        if owned:
            handle.close()


def serve_campaigns(
    store: StoreLike,
    *,
    workers: int = 1,
    service: Optional[ServicePolicy] = None,
    max_campaigns: Optional[int] = None,
    chaos_kill_after: Optional[int] = None,
    chaos_worker: int = 0,
) -> List[Dict[str, object]]:
    """Drain the registry's claimable campaigns (CLI ``serve``)."""
    handle, owned = _with_store(store)
    try:
        coordinator = CampaignCoordinator(
            handle,
            workers=workers,
            service=service,
            chaos_kill_after=chaos_kill_after,
            chaos_worker=chaos_worker,
        )
        return coordinator.serve(max_campaigns=max_campaigns)
    finally:
        if owned:
            handle.close()


def campaign_status(
    store: StoreLike, name: Optional[str] = None
) -> List[Dict[str, object]]:
    """Status rows for one campaign (or all of them) plus worker census."""
    handle, owned = _with_store(store)
    try:
        handle.refresh()
        registry = CampaignRegistry(handle)
        if name is not None:
            return [registry.status(name)]
        return [registry.status(entry.name) for entry in registry.entries()]
    finally:
        if owned:
            handle.close()


def cancel_campaign(
    store: StoreLike, name: str, reason: str = ""
) -> TombstoneRecord:
    """Write a campaign's cancellation tombstone (CLI ``cancel``)."""
    handle, owned = _with_store(store)
    try:
        return CampaignRegistry(handle).cancel(name, reason=reason)
    finally:
        if owned:
            handle.close()
