"""Executors: in-process serial fallback and a process-pool fan-out.

Both expose one method, :meth:`run_chunks`: evaluate ``fn(context, chunk)``
for every chunk of ``tasks`` and return the per-task results *in task
order*, regardless of completion order.  ``fn`` must be a module-level
function (picklable by reference); the context and tasks come from
:mod:`repro.exec.tasks`.

Because every task owns a private RNG substream, result values are
identical across executors and worker counts — the executor choice is
purely a wall-clock decision.

Durability rides on the ``policy=`` argument (a
:class:`~repro.store.policy.ExecutionPolicy`):

* with a store, every chunk is fingerprinted
  (:func:`repro.store.fingerprint.chunk_fingerprints`); completed chunks
  replay from the store (results + telemetry snapshot) and only missing
  chunks execute, each committed atomically on completion — so a killed
  campaign resumes from its last checkpoint, bit-identical to an
  uninterrupted run;
* failing chunks are retried with exponential backoff (safe: a chunk's
  randomness is a pure function of its tasks); a chunk that exhausts its
  retries is quarantined in the store and reported via
  :class:`~repro.common.errors.ChunkQuarantinedError` — committed chunks
  stay durable, so a rerun re-attempts only the poison chunk;
* a worker crash that breaks the process pool (``BrokenProcessPool``)
  rebuilds the pool and resubmits the surviving chunks.

The policy defaults to :data:`~repro.store.policy.STORELESS`, what an
engine's ``policy=None`` stands for: no store, one attempt per chunk, and
a failing chunk re-raises its own exception.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.common.errors import (
    CampaignCancelledError,
    ChunkQuarantinedError,
    ConfigurationError,
)
from repro.exec.tasks import ChunkResult
from repro.store.fingerprint import chunk_fingerprints, context_kind, context_payload
from repro.store.policy import STORELESS, ExecutionPolicy
from repro.telemetry import get_telemetry
from repro.telemetry.metrics import Snapshot

#: fn(context, chunk_of_tasks) -> list of per-task results, optionally
#: wrapped in a ChunkResult carrying the chunk's telemetry snapshot
ChunkFn = Callable[[Any, Sequence[Any]], List[Any]]

#: called once per completed task result (observability hook)
ResultHook = Optional[Callable[[Any], None]]


def _chunked(tasks: Sequence[Any], chunksize: int) -> List[Sequence[Any]]:
    return [tasks[i : i + chunksize] for i in range(0, len(tasks), chunksize)]


def _unwrap(chunk_results: Any) -> Tuple[List[Any], Optional[Snapshot]]:
    """Split a chunk evaluation into (results, telemetry snapshot)."""
    if isinstance(chunk_results, ChunkResult):
        return chunk_results.results, chunk_results.telemetry
    return chunk_results, None


def default_chunksize(n_tasks: int, workers: int) -> int:
    """~4 chunks per worker: large enough to amortise pickling the context,
    small enough to keep the pool busy when task costs are skewed."""
    return max(1, -(-n_tasks // max(1, workers * 4)))


# -- store plumbing shared by both executors ---------------------------------------


def _fingerprints(
    policy: ExecutionPolicy, context: Any, chunks: Sequence[Sequence[Any]]
) -> Tuple[List[Optional[str]], Optional[dict], str]:
    """Chunk fingerprints, the context payload they hash and the record
    kind when a store is in force, else ``([None, ...], None, "")``.

    The payload is built once per call and reused for the record kind and
    every committed chunk's meta.  Fingerprints depend on the chunk
    *partition* (the tasks in each chunk), so a resumed run must use the
    same workers/chunksize to hit — the trade-off documented in
    docs/STORAGE.md.
    """
    if policy.store is None:
        return [None] * len(chunks), None, ""
    payload = context_payload(context)
    fingerprints = chunk_fingerprints(context, chunks, payload=payload)
    return fingerprints, payload, context_kind(context, payload)


def _load_cached(
    policy: ExecutionPolicy, fingerprint: Optional[str]
) -> Optional[Tuple[List[Any], Optional[Snapshot]]]:
    """Replay one completed chunk from the store, when allowed and present."""
    if fingerprint is None or not policy.read_allowed:
        return None
    record = policy.store.get(fingerprint)
    if record is None:
        return None
    return policy.store.load_chunk(record)


def chunk_meta(payload: dict, chunk: Sequence[Any], sequence: int) -> dict:
    """Durable, report-facing description of one committed chunk.

    Besides the task count, the meta records the chunk's *context payload*
    ``payload`` (the same durable description the fingerprint hashes —
    workload, device, ECC, framework, seed) and its ``sequence`` position in the
    chunk partition, so the read side (:mod:`repro.report`) can group a
    store's chunks back into campaigns and restore record order without
    re-deriving anything from live objects.  Beam chunks additionally
    record a run-length encoding of their tasks' resources: results pair
    1:1 with tasks in chunk order, so per-resource tallies stay
    reconstructible post hoc.  None of this enters the fingerprint — old
    stores (without the extra keys) stay valid and merely report less.
    """
    meta: dict = {"tasks": len(chunk), "sequence": sequence, "context": payload}
    indices = [task.index for task in chunk if hasattr(task, "index")]
    if indices:
        meta["task_range"] = [min(indices), max(indices)]
    if chunk and hasattr(chunk[0], "resource"):
        runs: List[list] = []
        for task in chunk:
            if runs and runs[-1][0] == task.resource:
                runs[-1][1] += 1
            else:
                runs.append([task.resource, 1])
        meta["resources"] = runs
    return meta


def _commit(
    policy: ExecutionPolicy,
    fingerprint: Optional[str],
    kind: str,
    payload: Optional[dict],
    chunk: Sequence[Any],
    chunk_index: int,
    results: List[Any],
    snapshot: Optional[Snapshot],
    attempts: int,
) -> None:
    if fingerprint is None:  # no store
        return
    policy.store.put_chunk(
        fingerprint,
        kind,
        results,
        snapshot,
        meta=chunk_meta(payload, chunk, chunk_index),
        attempts=attempts,
    )


def _quarantine(
    policy: ExecutionPolicy,
    fingerprint: Optional[str],
    kind: str,
    error: BaseException,
    attempts: int,
) -> None:
    if fingerprint is None:  # no store
        return
    policy.store.quarantine(
        fingerprint, kind, f"{type(error).__name__}: {error}", attempts
    )


def _evaluate_with_retry(
    fn: ChunkFn,
    context: Any,
    chunk: Sequence[Any],
    policy: ExecutionPolicy,
    fingerprint: Optional[str],
    kind: str,
    chunk_index: int,
) -> Tuple[List[Any], Optional[Snapshot], int]:
    """Run one chunk in-process, retrying per the policy.

    Returns (results, snapshot, attempts).  After the retry budget is
    spent the chunk is quarantined (store runs raise
    :class:`ChunkQuarantinedError`; storeless runs re-raise the original
    exception, preserving the historical contract).
    """
    max_attempts = 1 + policy.retries
    telemetry = get_telemetry()
    for attempt in range(1, max_attempts + 1):
        try:
            results, snapshot = _unwrap(fn(context, chunk))
            return results, snapshot, attempt
        except Exception as exc:
            # deterministic failures (e.g. a sandboxed crash under
            # on_crash="quarantine") mark themselves non-retryable: the
            # chunk would fail identically every time, so skip the budget
            if attempt >= max_attempts or getattr(exc, "non_retryable", False):
                _quarantine(policy, fingerprint, kind, exc, attempt)
                if policy.store is not None:
                    raise ChunkQuarantinedError(
                        [(chunk_index, fingerprint, f"{type(exc).__name__}: {exc}")]
                    ) from exc
                raise
            telemetry.count("exec.chunk_retries")
            if policy.backoff:
                time.sleep(policy.backoff * (2 ** (attempt - 1)))
    raise AssertionError("unreachable")  # pragma: no cover


def _worker_telemetry_reset() -> None:
    """Pool-worker initializer: install a fresh sinkless telemetry context.

    Fork-started pool workers inherit the parent's active context — under a
    ``telemetry_session`` that includes the parent's *live trace-file sink*,
    so anything a worker emitted outside a ``capture()`` scope would
    interleave into the parent's trace (and double once more via the
    shipped chunk snapshots).  A fresh sinkless context keeps worker-side
    telemetry exactly where the aggregation story expects it: in captured
    snapshots, merged by the parent in chunk order.
    """
    from repro.telemetry.core import Telemetry, set_telemetry

    set_telemetry(Telemetry())


class Executor(Protocol):
    """Minimal executor interface the reliability engines program against."""

    workers: int

    def run_chunks(
        self,
        fn: ChunkFn,
        context: Any,
        tasks: Sequence[Any],
        on_result: ResultHook = None,
        policy: ExecutionPolicy = STORELESS,
    ) -> List[Any]:
        ...

    def close(self) -> None:
        ...


class SerialExecutor:
    """Deterministic in-process executor (``workers=1`` and tests)."""

    workers = 1

    def run_chunks(
        self,
        fn: ChunkFn,
        context: Any,
        tasks: Sequence[Any],
        on_result: ResultHook = None,
        policy: ExecutionPolicy = STORELESS,
    ) -> List[Any]:
        telemetry = get_telemetry()
        chunks = _chunked(tasks, default_chunksize(len(tasks), self.workers))
        fingerprints, payload, kind = _fingerprints(policy, context, chunks)
        results: List[Any] = []
        for index, chunk in enumerate(chunks):
            fingerprint = fingerprints[index]
            cached = _load_cached(policy, fingerprint)
            if cached is not None:
                chunk_results, snapshot = cached
            else:
                chunk_results, snapshot, attempts = _evaluate_with_retry(
                    fn, context, chunk, policy, fingerprint, kind, index
                )
                _commit(
                    policy, fingerprint, kind, payload, chunk, index,
                    chunk_results, snapshot, attempts,
                )
            telemetry.registry.merge(snapshot)
            for result in chunk_results:
                results.append(result)
                telemetry.task_done()
                if on_result is not None:
                    on_result(result)
        return results

    def close(self) -> None:  # nothing to release
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ProcessExecutor:
    """Fan tasks out over a ``ProcessPoolExecutor``.

    The pool is created lazily on first use and reused across calls, so a
    session-scale sequence of campaigns pays the worker start-up cost once.
    Close explicitly or use as a context manager; an unclosed pool is torn
    down by the interpreter at exit.  A pool broken by a worker crash is
    rebuilt transparently and the in-flight chunks resubmitted (counted
    against their retry budget, since the chunk that killed the worker is
    indistinguishable from its innocent neighbours).

    Workloads are pickled per chunk: anything importable (registry
    workloads, module-level custom workloads) always works; classes defined
    in a ``__main__`` script additionally require the ``fork`` start method
    (the Linux default).
    """

    def __init__(self, workers: int, chunksize: Optional[int] = None) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers
        self.chunksize = chunksize
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # the initializer rides through _rebuild_pool too: a pool
            # rebuilt after a worker crash re-registers the same worker
            # telemetry isolation as the original
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_worker_telemetry_reset
            )
        return self._pool

    def _rebuild_pool(self) -> ProcessPoolExecutor:
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        return self._ensure_pool()

    def run_chunks(
        self,
        fn: ChunkFn,
        context: Any,
        tasks: Sequence[Any],
        on_result: ResultHook = None,
        policy: ExecutionPolicy = STORELESS,
    ) -> List[Any]:
        if not tasks:
            return []
        telemetry = get_telemetry()
        chunksize = self.chunksize or default_chunksize(len(tasks), self.workers)
        chunks = _chunked(tasks, chunksize)
        fingerprints, payload, kind = _fingerprints(policy, context, chunks)
        by_chunk: List[Optional[List[Any]]] = [None] * len(chunks)
        snapshots: List[Optional[Snapshot]] = [None] * len(chunks)

        def deliver(chunk_results: List[Any]) -> None:
            for result in chunk_results:
                telemetry.task_done()
                if on_result is not None:
                    on_result(result)

        to_submit: List[int] = []
        for index in range(len(chunks)):
            cached = _load_cached(policy, fingerprints[index])
            if cached is not None:
                by_chunk[index], snapshots[index] = cached
                deliver(by_chunk[index])
            else:
                to_submit.append(index)

        max_attempts = 1 + policy.retries
        attempts: Dict[int, int] = {index: 0 for index in to_submit}
        quarantined: List[Tuple[int, Optional[str], str]] = []
        if to_submit:
            pool = self._ensure_pool()
            pending = {pool.submit(fn, context, chunks[i]): i for i in to_submit}
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                retry_indices: List[int] = []
                pool_broken = False
                for future in done:
                    index = pending.pop(future)
                    try:
                        chunk_results, snapshots[index] = _unwrap(future.result())
                    except Exception as exc:
                        attempts[index] += 1
                        pool_broken = pool_broken or isinstance(exc, BrokenProcessPool)
                        if attempts[index] >= max_attempts or getattr(
                            exc, "non_retryable", False
                        ):
                            fingerprint = fingerprints[index]
                            _quarantine(policy, fingerprint, kind, exc, attempts[index])
                            if policy.store is None:
                                # storeless runs keep the historical contract:
                                # the worker exception propagates directly
                                for other in pending:
                                    other.cancel()
                                raise
                            quarantined.append(
                                (index, fingerprint, f"{type(exc).__name__}: {exc}")
                            )
                        else:
                            telemetry.count("exec.chunk_retries")
                            retry_indices.append(index)
                    else:
                        by_chunk[index] = chunk_results
                        _commit(
                            policy, fingerprints[index], kind, payload, chunks[index],
                            index, chunk_results, snapshots[index],
                            attempts.get(index, 0) + 1,
                        )
                        deliver(chunk_results)
                if pool_broken:
                    # the surviving futures of the broken pool will drain
                    # through the next wait() iterations; new submissions
                    # must go to a fresh pool
                    pool = self._rebuild_pool()
                for index in sorted(retry_indices):
                    if policy.backoff:
                        time.sleep(policy.backoff * (2 ** (attempts[index] - 1)))
                    pending[pool.submit(fn, context, chunks[index])] = index
        # merge worker metrics in chunk order (not completion order), so the
        # aggregate is a pure function of the task list — scheduling-free
        for snapshot in snapshots:
            telemetry.registry.merge(snapshot)
        if quarantined:
            # completed chunks are already committed to the store; report the
            # poison ones instead of returning a silently incomplete merge
            raise ChunkQuarantinedError(quarantined)
        results: List[Any] = []
        for chunk_results in by_chunk:
            results.extend(chunk_results or ())
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessExecutor(workers={self.workers})"


class LeaseExecutor:
    """Crash-tolerant executor: N workers coordinate through the store.

    Where :class:`ProcessExecutor` pushes chunks to a pool over pipes,
    ``LeaseExecutor`` publishes nothing — workers *pull*: each claims
    chunks from the shared store via the lease table
    (:mod:`repro.service.lease`), evaluates them with the normal
    retry/quarantine machinery, and commits idempotently.  Any worker —
    including one started tomorrow on another host pointing at the same
    store — can finish a campaign another worker died in the middle of,
    which is the property the direct executors cannot offer.

    * ``workers=1`` drains in the calling process (no fork; the bench's
      measure of pure lease overhead).
    * ``workers>1`` forks that many child processes, each draining with
      its own store handle, while the parent supervises: it delivers
      results in sequence order as chunks become terminal, counts worker
      deaths (``service.workers.died``), and — if every child dies with
      work remaining — drains the remainder itself, so a campaign always
      completes as long as *some* process survives.

    The chunk partition is always the **serial** partition
    (:func:`default_chunksize` with ``workers=1``) regardless of the
    worker count: fingerprints, committed chunks, and the extracted
    report are then bit-identical to a ``SerialExecutor`` run — the
    service's headline invariant — and any worker fleet resumes any
    other fleet's store.

    ``policy.refresh=True`` (the registry's ``clean`` mode) is honoured
    with a *staleness watermark*: records committed before the run
    started are treated as absent (everything re-executes), while commits
    landing during the run still coordinate normally.

    Requires a policy with a store — the store *is* the coordination
    medium.  Cooperative cancellation (``campaign=`` + a tombstone in the
    store) raises :class:`~repro.common.errors.CampaignCancelledError`
    after in-flight chunks drain.
    """

    def __init__(
        self,
        workers: int = 1,
        service: Optional["ServicePolicy"] = None,
        campaign: Optional[str] = None,
        chaos_kill_after: Optional[int] = None,
        chaos_worker: int = 0,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if chaos_kill_after is not None and workers < 2:
            raise ConfigurationError(
                "chaos_kill_after SIGKILLs a worker process; it needs "
                "workers >= 2 so the kill hits a child, not the caller"
            )
        self.workers = workers
        self.service = service
        self.campaign = campaign
        self.chaos_kill_after = chaos_kill_after
        self.chaos_worker = chaos_worker

    def run_chunks(
        self,
        fn: ChunkFn,
        context: Any,
        tasks: Sequence[Any],
        on_result: ResultHook = None,
        policy: ExecutionPolicy = STORELESS,
    ) -> List[Any]:
        from repro.service.registry import CampaignRegistry
        from repro.service.worker import ServiceWorker
        from repro.store.backends import DONE, QUARANTINED

        if not tasks:
            return []
        if policy.store is None:
            raise ConfigurationError(
                "LeaseExecutor requires a policy with a store: the store is "
                "the coordination medium workers claim chunks through"
            )
        telemetry = get_telemetry()
        store = policy.store
        service = self.service if self.service is not None else policy.service
        # always the serial partition — see class docstring
        chunks = _chunked(tasks, default_chunksize(len(tasks), 1))
        fingerprints, _, _ = _fingerprints(policy, context, chunks)
        stale_before = time.time() if policy.refresh else None

        by_chunk: List[Optional[List[Any]]] = [None] * len(chunks)
        snapshots: List[Optional[Snapshot]] = [None] * len(chunks)
        #: chunks an *in-process* worker evaluated this run: results handed
        #: over directly, sparing deliver_ready a store read-back + decode
        #: (and matching SerialExecutor, which also delivers from memory)
        evaluated: Dict[int, Tuple[List[Any], Optional[Snapshot]]] = {}
        #: terminal status per chunk as observed during delivery — saves
        #: the epilogue a full record read per settled chunk
        statuses: List[Optional[str]] = [None] * len(chunks)
        delivered = 0

        def fresh(fingerprint: str):
            """The chunk's terminal record, ignoring stale (clean-mode) ones."""
            record = store.backend.get(fingerprint)
            if record is None:
                return None
            if stale_before is not None and record.created < stale_before:
                return None
            return record

        def deliver_ready() -> None:
            """Advance the sequence pointer over terminal chunks, merging
            snapshots and delivering results in chunk order (the same
            order a serial run produces them in)."""
            nonlocal delivered
            while delivered < len(chunks):
                cached = evaluated.pop(delivered, None)
                if cached is not None:
                    chunk_results, snapshot = cached
                else:
                    record = fresh(fingerprints[delivered])
                    if record is None:
                        return
                    if record.status == QUARANTINED:
                        statuses[delivered] = QUARANTINED
                        delivered += 1
                        continue
                    loaded = store.get(fingerprints[delivered])
                    if loaded is None:
                        return
                    chunk_results, snapshot = store.load_chunk(loaded)
                statuses[delivered] = DONE
                by_chunk[delivered] = chunk_results
                snapshots[delivered] = snapshot
                telemetry.registry.merge(snapshot)
                for result in chunk_results:
                    telemetry.task_done()
                    if on_result is not None:
                        on_result(result)
                delivered += 1

        def on_worker_chunk(
            index: int,
            chunk_results: List[Any],
            snapshot: Optional[Snapshot],
        ) -> None:
            evaluated[index] = (chunk_results, snapshot)
            deliver_ready()

        cancelled = False
        if self.workers == 1:
            worker = ServiceWorker(
                store,
                policy,
                service,
                campaign=self.campaign,
                stale_before=stale_before,
                on_chunk=on_worker_chunk,
            )
            cancelled = worker.drain(fn, context, chunks, fingerprints).cancelled
        else:
            cancelled = self._supervise(
                fn, context, chunks, fingerprints, policy, service,
                stale_before, fresh, deliver_ready, on_worker_chunk,
            )

        store.refresh()
        deliver_ready()
        registry = CampaignRegistry(store)
        quarantined: List[Tuple[int, Optional[str], str]] = []
        committed = 0
        for index, fingerprint in enumerate(fingerprints):
            status = statuses[index]
            if status is None:
                record = fresh(fingerprint)
                if record is None:
                    continue
                status = record.status
            if status == QUARANTINED:
                record = fresh(fingerprint)  # only for the error message
                quarantined.append(
                    (index, fingerprint,
                     (record.error if record is not None else None) or "quarantined")
                )
            else:
                committed += 1
        if cancelled:
            stone = registry.tombstone(self.campaign) if self.campaign else None
            raise CampaignCancelledError(
                self.campaign or "<anonymous>",
                committed=committed,
                total=len(chunks),
                reason=stone.reason if stone is not None else "",
            )
        if quarantined:
            raise ChunkQuarantinedError(quarantined)
        results: List[Any] = []
        for chunk_results in by_chunk:
            results.extend(chunk_results or ())
        return results

    def _supervise(
        self,
        fn: ChunkFn,
        context: Any,
        chunks: Sequence[Sequence[Any]],
        fingerprints: Sequence[str],
        policy: ExecutionPolicy,
        service: "ServicePolicy",
        stale_before: Optional[float],
        fresh,
        deliver_ready,
        on_worker_chunk,
    ) -> bool:
        """Fork N drain children and watch them; returns the cancelled flag.

        The parent is the supervisor: it reaps dead children (a non-zero /
        signalled exit counts ``service.workers.died``), and if the whole
        fleet dies with chunks outstanding it becomes the worker of last
        resort and drains the remainder in-process.
        """
        import multiprocessing

        from repro.service.liveness import default_worker_id
        from repro.service.registry import CampaignRegistry
        from repro.service.worker import ServiceWorker, service_child_main
        from repro.store.backends import DONE, JsonlBackend, QUARANTINED

        telemetry = get_telemetry()
        store = policy.store
        backend_name = "jsonl" if isinstance(store.backend, JsonlBackend) else "sqlite"
        base_id = default_worker_id()
        # with a kill armed, the chaos worker's peers hold until it has
        # claimed a lease (the supervisor opens the gate should it exit
        # first), so the kill cannot miss by finding every chunk drained
        armed = self.chaos_kill_after is not None and 0 <= self.chaos_worker < self.workers
        gate = multiprocessing.Event() if armed else None
        procs = []
        for index in range(self.workers):
            chaos = (
                self.chaos_kill_after if index == self.chaos_worker else None
            )
            procs.append(
                multiprocessing.Process(
                    target=service_child_main,
                    args=(
                        str(store.path),
                        backend_name,
                        policy.without_store(),
                        service,
                        fn,
                        context,
                        list(chunks),
                        list(fingerprints),
                        f"{base_id}.w{index}",
                        self.campaign,
                        chaos,
                        stale_before,
                        gate,
                    ),
                    daemon=True,
                )
            )
        for proc in procs:
            proc.start()
        registry = CampaignRegistry(store)
        reaped = set()
        cancelled = False

        def fresh_terminal(fingerprint: str) -> bool:
            record = fresh(fingerprint)
            return record is not None and record.status in (DONE, QUARANTINED)

        try:
            while True:
                store.refresh()
                deliver_ready()
                if all(fresh_terminal(fp) for fp in fingerprints):
                    break
                if self.campaign and registry.cancelled(self.campaign):
                    cancelled = True
                for index, proc in enumerate(procs):
                    if index in reaped or proc.is_alive():
                        continue
                    proc.join()
                    reaped.add(index)
                    if proc.exitcode != 0:
                        telemetry.count("service.workers.died")
                    if gate is not None and index == self.chaos_worker:
                        gate.set()
                if len(reaped) == len(procs):
                    if cancelled:
                        break
                    # the whole fleet is gone with work remaining: the
                    # supervisor drains the rest itself — crash recovery's
                    # last line
                    telemetry.count("service.supervisor.takeovers")
                    worker = ServiceWorker(
                        store,
                        policy,
                        service,
                        worker_id=f"{base_id}.supervisor",
                        campaign=self.campaign,
                        stale_before=stale_before,
                        on_chunk=on_worker_chunk,
                    )
                    cancelled = worker.drain(
                        fn, context, chunks, fingerprints
                    ).cancelled
                    continue
                time.sleep(service.poll_interval)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.join()
        return cancelled

    def close(self) -> None:  # workers are per-run, nothing persists
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LeaseExecutor(workers={self.workers}, campaign={self.campaign!r})"
        )


def get_executor(
    workers: Optional[int] = None, executor: Optional[Executor] = None
) -> Executor:
    """Resolve the ``workers=`` / ``executor=`` pair every engine accepts.

    An explicit executor wins (lets callers share one pool across engines);
    otherwise ``workers=1`` (or None) is serial and ``workers>1`` builds a
    fresh process pool.  ``workers=0`` auto-sizes to the machine.
    """
    if executor is not None:
        return executor
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers is not None and workers < 0:
        raise ConfigurationError("workers must be >= 0")
    return SerialExecutor() if workers in (None, 1) else ProcessExecutor(workers)
