"""One benchmark repeat in a fresh interpreter.

``run.py`` spawns this script once per repeat, so no repeat inherits the
per-process caches an earlier one filled.  It builds the workload's
inputs, opens the store, issues the call list, and prints one JSON line:
timings, counts and the call digests.  Set-up time runs from the spawn
timestamp the parent passes (``--spawned-at``, on the shared monotonic
clock) to the first timed call.  With ``--trace-out`` the repeat also
records layer spans and reports the per-layer metrics.

    python3 perfbench/repeat.py --workload tape --seed 0 \\
        --store perfbench/_work/s.sqlite --spawned-at 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def store_bytes(path: str) -> int:
    """On-disk size of a SQLite store, its write-ahead log included."""
    return sum(
        os.path.getsize(path + suffix)
        for suffix in ("", "-wal", "-shm")
        if os.path.exists(path + suffix)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    if not workloads.use_source_tree():
        print(f"perfbench: no repro package under {workloads.SRC}", file=sys.stderr)
        return 2
    from repro.api import ExecutionPolicy, get_telemetry, open_store

    calls = workloads.WORKLOADS[args.workload]
    inputs = workloads.build_inputs(calls, args.seed)
    bytes_before = store_bytes(args.store)
    store = open_store(args.store)
    policy = ExecutionPolicy(store=store)
    tracer = None
    if args.trace_out is not None:
        from tracing import Tracer

        tracer = Tracer().install()
    evals = 0

    def on_result(_result) -> None:
        nonlocal evals
        evals += 1

    cpu_before = _cpu_seconds()
    started = time.monotonic()
    results = workloads.run_calls(
        calls, inputs, args.seed, policy, on_result,
        around=tracer.call if tracer is not None else None,
    )
    wall_s = time.monotonic() - started
    cpu_s = _cpu_seconds() - cpu_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    store.close()
    if tracer is not None:
        tracer.uninstall()

    counters = get_telemetry().registry.counters
    out = {
        "workload": args.workload,
        "traced": tracer is not None,
        "setup_s": started - args.spawned_at,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "evals": evals,
        "calls": len(calls),
        "chunks": int(counters.get("store.hits", 0) + counters.get("store.misses", 0)),
        "failed_calls": sum(result is None for result in results),
        "chunk_retries": int(counters.get("exec.chunk_retries", 0)),
        "quarantined": int(counters.get("store.quarantined", 0)),
        "call_digests": [
            "failed" if result is None else workloads.result_digest(call, result)
            for call, result in zip(calls, results)
        ],
    }
    if tracer is not None:
        from tracing import layer_metrics

        # closing checkpoints the write-ahead log into the database file
        written = store_bytes(args.store) - bytes_before
        out["layers"] = layer_metrics(tracer.spans, wall_s, written)
        tracer.write_jsonl(args.trace_out, started)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
