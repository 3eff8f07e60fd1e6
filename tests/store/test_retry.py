"""Crash tolerance: per-chunk retry with backoff, poison-chunk quarantine,
and process-pool rebuild after a worker crash.

The chunk functions live at module level so the process executor can pickle
them by reference; cross-process "flakiness" is coordinated through marker
files in a directory carried by the (picklable, fingerprintable) context.
"""

import os
import pathlib
from dataclasses import dataclass

import pytest

from repro.common.errors import ChunkQuarantinedError, ConfigurationError
from repro.exec.engine import ProcessExecutor, SerialExecutor
from repro.store import QUARANTINED, ExecutionPolicy, open_store
from repro.telemetry import telemetry_session


@dataclass(frozen=True)
class MarkerContext:
    """Tiny picklable context: a scratch dir + a salt for fingerprints."""

    marker_dir: str
    salt: int = 0


def _marker(context, chunk):
    return pathlib.Path(context.marker_dir) / f"chunk-{chunk[0]}.attempted"


def flaky_chunk(context, chunk):
    """Fails the first time each chunk is seen, succeeds on retry."""
    marker = _marker(context, chunk)
    if not marker.exists():
        marker.write_text("1")
        raise RuntimeError(f"transient failure on {chunk}")
    return [x * 10 for x in chunk]


def poison_chunk(context, chunk):
    if 3 in chunk:
        raise RuntimeError("permanently poisoned")
    return [x * 10 for x in chunk]


def crashing_chunk(context, chunk):
    """First attempt per chunk kills the worker process outright."""
    marker = _marker(context, chunk)
    if not marker.exists():
        marker.write_text("1")
        os._exit(1)
    return [x * 10 for x in chunk]


def well_behaved_chunk(context, chunk):
    return [x * 10 for x in chunk]


TASKS = list(range(12))
EXPECTED = [x * 10 for x in TASKS]


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        ExecutionPolicy(retries=-1)
    with pytest.raises(ConfigurationError):
        ExecutionPolicy(backoff=-0.5)
    with pytest.raises(ConfigurationError):
        ExecutionPolicy(on_crash="ignore")
    # retry-only policy: no store, still retries
    policy = ExecutionPolicy(retries=2, backoff=0.0)
    assert policy.store is None and policy.retries == 2
    assert not policy.read_allowed and not policy.write_allowed


def test_serial_retry_recovers_and_counts(tmp_path):
    context = MarkerContext(str(tmp_path))
    policy = ExecutionPolicy(retries=2, backoff=0.0)
    with telemetry_session() as telemetry:
        results = SerialExecutor().run_chunks(flaky_chunk, context, TASKS, policy=policy)
        counters = telemetry.registry.counters
    assert results == EXPECTED
    assert counters["exec.chunk_retries"] >= 1


def test_serial_exhausted_retries_without_store_reraise(tmp_path):
    context = MarkerContext(str(tmp_path))
    with pytest.raises(RuntimeError, match="permanently poisoned"):
        SerialExecutor().run_chunks(
            poison_chunk, context, TASKS, policy=ExecutionPolicy(retries=1, backoff=0.0)
        )


def test_serial_quarantine_with_store(tmp_path):
    context = MarkerContext(str(tmp_path), salt=1)
    store = open_store(tmp_path / "q.sqlite")
    policy = ExecutionPolicy(store=store, retries=1, backoff=0.0)
    with telemetry_session() as telemetry:
        with pytest.raises(ChunkQuarantinedError) as excinfo:
            SerialExecutor().run_chunks(poison_chunk, context, TASKS, policy=policy)
        counters = telemetry.registry.counters
    (chunk_index, fingerprint, error) = excinfo.value.failures[0]
    assert "permanently poisoned" in error
    record = store.backend.get(fingerprint)
    assert record.status == QUARANTINED
    assert record.attempts == 2  # 1 try + 1 retry
    assert counters["store.quarantined"] == 1.0
    # chunks before the poison one were committed and stay durable
    assert store.count("done") >= 1


def test_process_retry_recovers(tmp_path):
    context = MarkerContext(str(tmp_path), salt=2)
    policy = ExecutionPolicy(retries=2, backoff=0.0)
    with ProcessExecutor(workers=2) as executor:
        results = executor.run_chunks(flaky_chunk, context, TASKS, policy=policy)
    assert results == EXPECTED


def test_process_quarantine_keeps_other_chunks(tmp_path):
    context = MarkerContext(str(tmp_path), salt=3)
    store = open_store(tmp_path / "pq.jsonl")
    policy = ExecutionPolicy(store=store, retries=1, backoff=0.0)
    with ProcessExecutor(workers=2) as executor:
        with pytest.raises(ChunkQuarantinedError) as excinfo:
            executor.run_chunks(poison_chunk, context, TASKS, policy=policy)
    assert len(excinfo.value.failures) == 1
    assert store.count(QUARANTINED) == 1
    # every healthy chunk was still evaluated and committed
    from repro.exec.engine import default_chunksize

    size = default_chunksize(len(TASKS), 2)
    n_chunks = -(-len(TASKS) // size)
    assert store.count("done") == n_chunks - 1


def test_process_quarantined_rerun_reattempts_only_poison(tmp_path):
    context = MarkerContext(str(tmp_path), salt=4)
    store = open_store(tmp_path / "rq.sqlite")
    policy = ExecutionPolicy(store=store, retries=0, backoff=0.0)
    with ProcessExecutor(workers=2) as executor:
        with pytest.raises(ChunkQuarantinedError):
            executor.run_chunks(poison_chunk, context, TASKS, policy=policy)
        done_before = store.count("done")
        # the poison is "fixed": rerun replays the healthy chunks and
        # re-attempts only the quarantined one
        with telemetry_session() as telemetry:
            results = executor.run_chunks(well_behaved_chunk, context, TASKS, policy=policy)
            counters = telemetry.registry.counters
    assert results == EXPECTED
    assert counters["store.hits"] == done_before
    assert counters["store.commits"] == 1.0  # just the previously poisoned chunk
    assert store.count(QUARANTINED) == 0  # its record was overwritten to done
    assert store.count("done") == done_before + 1


def test_broken_pool_is_rebuilt_and_chunks_retried(tmp_path):
    context = MarkerContext(str(tmp_path), salt=5)
    # generous retry budget: every pool break charges all in-flight chunks
    # a failed attempt, and each of the 6 chunks crashes its first worker
    policy = ExecutionPolicy(retries=8, backoff=0.0)
    with ProcessExecutor(workers=2) as executor:
        results = executor.run_chunks(crashing_chunk, context, TASKS, policy=policy)
        # the rebuilt pool keeps serving later calls
        again = executor.run_chunks(well_behaved_chunk, context, TASKS)
    assert results == EXPECTED
    assert again == EXPECTED


def test_storeless_process_failure_propagates(tmp_path):
    context = MarkerContext(str(tmp_path), salt=6)
    with ProcessExecutor(workers=2) as executor:
        with pytest.raises(RuntimeError, match="permanently poisoned"):
            executor.run_chunks(
                poison_chunk, context, TASKS, policy=ExecutionPolicy(retries=0, backoff=0.0)
            )
