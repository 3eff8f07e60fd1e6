"""Pool-worker telemetry isolation, including across a pool rebuild.

Fork-started pool workers inherit the parent's active telemetry context —
under a ``telemetry_session`` that includes the parent's *open trace-file
sink*, so an uninitialised worker would interleave events straight into
the parent's trace and leak the parent's counters into chunk evaluation.
``ProcessExecutor`` installs :func:`_worker_telemetry_reset` as the pool
initializer; these tests pin that contract and its hardest corner: a pool
*rebuilt* after a worker crash (``BrokenProcessPool``) must re-register
the same isolation, because ``initializer=`` only helps if it rides
through ``_rebuild_pool`` too."""

import os
import signal

from repro.exec.engine import ProcessExecutor
from repro.store.policy import ExecutionPolicy
from repro.telemetry import get_telemetry, telemetry_session
from repro.telemetry.events import NULL_SINK

TASKS = list(range(8))


def probe_chunk(context, tasks):
    """Report, from inside the worker, what telemetry context it sees."""
    telemetry = get_telemetry()
    telemetry.count("probe.ran")
    telemetry.point("probe.leak")  # must die in NULL_SINK, never hit a trace
    return [
        (
            os.getpid(),
            telemetry.sink is NULL_SINK,
            telemetry.registry.counters.get("parent.marker", 0),
        )
        for _ in tasks
    ]


def suicide_chunk(context, tasks):
    """SIGKILL the first worker that runs this (never the parent)."""
    marker, parent_pid = context
    if os.getpid() != parent_pid:
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
    return [index for index in tasks]


def _assert_isolated(probes, parent_pid):
    assert len(probes) == len(TASKS)
    for pid, sink_is_null, parent_marker in probes:
        assert pid != parent_pid, "a chunk ran in the parent process"
        assert sink_is_null, "worker inherited the parent's live sink"
        assert parent_marker == 0, "worker inherited the parent's counters"


def test_pool_workers_get_fresh_sinkless_telemetry(tmp_path):
    trace = tmp_path / "trace.jsonl"
    with ProcessExecutor(workers=2) as executor:
        with telemetry_session(trace_path=str(trace)) as telemetry:
            telemetry.count("parent.marker")
            probes = executor.run_chunks(probe_chunk, None, TASKS)
            _assert_isolated(probes, os.getpid())
            # nothing the workers counted bleeds into the parent registry
            # (chunk metrics only travel via explicitly captured snapshots)
            assert "probe.ran" not in telemetry.registry.counters
    assert "probe.leak" not in trace.read_text()


def test_rebuilt_pool_reinstalls_worker_isolation(tmp_path):
    """The regression case: after a SIGKILLed worker breaks the pool, the
    transparently rebuilt pool must run the telemetry initializer again."""
    trace = tmp_path / "trace.jsonl"
    marker = str(tmp_path / "killed")
    with ProcessExecutor(workers=2) as executor:
        with telemetry_session(trace_path=str(trace)) as telemetry:
            telemetry.count("parent.marker")
            # storeless + retries: the broken pool is rebuilt and the
            # in-flight chunks resubmitted against the retry budget
            results = executor.run_chunks(
                suicide_chunk, (marker, os.getpid()), TASKS,
                policy=ExecutionPolicy(retries=2),
            )
            assert os.path.exists(marker), "the kamikaze chunk never fired"
            assert sorted(results) == TASKS
            assert telemetry.registry.counters["exec.chunk_retries"] >= 1

            # same executor, post-rebuild pool: isolation still holds
            probes = executor.run_chunks(probe_chunk, None, TASKS)
            _assert_isolated(probes, os.getpid())
    assert "probe.leak" not in trace.read_text()
