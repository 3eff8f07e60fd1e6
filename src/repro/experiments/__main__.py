"""CLI entry point: regenerate any paper artifact.

    python -m repro.experiments all --preset quick
    python -m repro.experiments fig6 --preset full --seed 7 --out results/
    python -m repro.experiments fig4 --preset paper --workers 8 --progress
    python -m repro.experiments fig1 --telemetry --trace-out trace.jsonl
    python -m repro.experiments telemetry-report trace.jsonl
    python -m repro.experiments all --preset full --store results/campaigns.sqlite

With ``--store``, completed task chunks are checkpointed as they finish:
an interrupted run resumes where it left off, and a re-run regenerates
figures incrementally from cache (see docs/STORAGE.md).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from dataclasses import replace
from typing import Optional

from repro.cli import cli_policy
from repro.common.atomicio import atomic_write_text
from repro.common.tables import render_csv
from repro.exec.progress import ProgressMeter
from repro.experiments.config import get_preset
from repro.experiments.session import ExperimentSession
from repro.telemetry import (
    FileSink,
    MemorySink,
    TeeSink,
    configure_logging,
    telemetry_session,
)
from repro.telemetry.report import render_report

_RUNNERS = {}


def _register_runners() -> None:
    from repro.experiments.due import run_due
    from repro.experiments.fig1 import run_fig1
    from repro.experiments.fig3 import run_fig3
    from repro.experiments.fig4 import run_fig4
    from repro.experiments.fig5 import run_fig5
    from repro.experiments.fig6 import run_fig6
    from repro.experiments.table1 import run_table1

    _RUNNERS.update(
        table1=run_table1,
        fig1=run_fig1,
        fig3=run_fig3,
        fig4=run_fig4,
        fig5=run_fig5,
        fig6=run_fig6,
        due=run_due,
    )


def _flatten(rows) -> Optional[list]:
    """Rows may be a list or an {arch: rows} dict; flatten for CSV."""
    if isinstance(rows, dict):
        flat = []
        for arch, arch_rows in rows.items():
            for row in arch_rows:
                flat.append({"arch": arch, **row})
        return flat
    return list(rows)


def _run_experiments(names, session, args, config) -> None:
    for name in names:
        started = time.time()
        rows, report = _RUNNERS[name](session=session)
        elapsed = time.time() - started
        print(report)
        print(f"[{name}] regenerated in {elapsed:.1f}s (preset={args.preset}, seed={config.seed})\n")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            flat = _flatten(rows)
            atomic_write_text(args.out / f"{name}.csv", render_csv(flat))


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "telemetry-report":
        from repro.telemetry.report import main as report_main

        return report_main(argv[1:])

    _register_runners()
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the simulated substrate. "
        "The `telemetry-report TRACE` subcommand summarizes a trace written with --trace-out.",
    )
    parser.add_argument("experiments", nargs="+", choices=[*_RUNNERS, "all"])
    parser.add_argument("--preset", default="quick", help="smoke | quick | full | paper")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=pathlib.Path, default=None, help="also write CSVs here")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel fault-evaluation workers (1 = serial, 0 = one per CPU); "
        "results are bit-identical for any setting",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="log fault-evaluation throughput (rate/ETA) to stderr",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="collect metrics and spans; without --trace-out the aggregate "
        "summary is printed at the end of the run",
    )
    parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        help="write the JSONL telemetry event trace here (implies --telemetry); "
        "summarize it later with `telemetry-report`",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        help="enable library logging on stderr at this level (DEBUG, INFO, ...)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="durable campaign store path; completed task chunks are "
        "checkpointed and figure pipelines regenerate incrementally "
        "(suffix .jsonl selects the JSONL backend, else SQLite)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay completed chunks from --store (the default when a "
        "store is given; spelled out for scripts)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything, overwriting cached chunks in --store",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help="per-chunk retries (with backoff) before a failing chunk is "
        "quarantined",
    )
    parser.add_argument(
        "--on-crash",
        choices=("due", "quarantine", "raise"),
        default=None,
        help="injection-sandbox policy for unexpected crashes in injected "
        "runs: classify as DUE (default), quarantine the chunk, or raise "
        "(debugging) — see docs/ROBUSTNESS.md",
    )
    args = parser.parse_args(argv)

    if args.log_level is not None:
        configure_logging(args.log_level.upper())

    if args.resume and args.no_cache:
        parser.error("--resume and --no-cache conflict: pick one")
    if (args.resume or args.no_cache) and args.store is None:
        parser.error("--resume/--no-cache require --store")
    if args.retries is not None and args.retries < 0:
        parser.error("--retries must be >= 0")

    config = get_preset(args.preset)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    policy = cli_policy(args)
    if policy is not None:
        config = replace(config, policy=policy)

    telemetrize = args.telemetry or args.trace_out is not None
    meter = ProgressMeter(label="fault evals", interval=2.0) if args.progress else None
    names = list(_RUNNERS) if "all" in args.experiments else args.experiments

    if telemetrize:
        # One shared event stream: the trace file (or an in-memory buffer for
        # the end-of-run summary) plus, with --progress, the meter consuming
        # the same ``task`` events — so on_result stays free for user hooks
        # and evaluations are never double-counted.
        memory = None if args.trace_out is not None else MemorySink()
        sinks = [FileSink(args.trace_out) if args.trace_out is not None else memory]
        if meter is not None:
            sinks.append(meter)
        sink = sinks[0] if len(sinks) == 1 else TeeSink(*sinks)
        session = ExperimentSession(config)
        with telemetry_session(sink=sink):
            _run_experiments(names, session, args, config)
        if memory is not None:
            print(render_report(memory.events))
        if args.trace_out is not None:
            print(f"telemetry trace written to {args.trace_out}", file=sys.stderr)
    else:
        session = ExperimentSession(config, on_result=meter)
        _run_experiments(names, session, args, config)
        if meter is not None:
            meter.finish()
    return 0


if __name__ == "__main__":
    sys.exit(main())
