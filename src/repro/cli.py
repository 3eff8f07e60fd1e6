"""Repo-level command line — ``python -m repro.cli <command>``.

``campaign``
    Run one fault-injection campaign from the shell::

        python -m repro.cli campaign FMXM --device kepler --injections 500 \\
            --store results/campaigns.sqlite --retries 2

    ``--store`` checkpoints completed task chunks as they finish; rerunning
    the same command resumes an interrupted campaign (or serves the whole
    result from cache) bit-identically.  ``--no-cache`` forces recompute.
    ``--on-crash`` picks the injection sandbox's containment policy for
    unexpected crashes in injected runs (docs/ROBUSTNESS.md).
    Configuration errors (bad workload, conflicting flags, missing store
    directory) exit with status 2; a quarantined chunk exits 3.

``submit`` / ``serve`` / ``status`` / ``cancel``
    The fault-tolerant campaign service (docs/SERVICE.md): named
    campaigns registered in a shared durable store, drained by any number
    of lease-coordinated worker processes on any number of hosts ::

        python -m repro.cli submit nightly FMXM --store results/fleet.sqlite \\
            --injections 500 --priority 10 --mode continue
        python -m repro.cli serve  --store results/fleet.sqlite --workers 4
        python -m repro.cli status --store results/fleet.sqlite nightly
        python -m repro.cli cancel nightly --store results/fleet.sqlite --reason "wrong seed"

    ``serve`` claims pending campaigns in priority order and runs each
    through the lease executor: workers heartbeat, dead workers' chunk
    leases expire and are reclaimed by survivors, and the final records
    are bit-identical to a serial run.  ``cancel`` writes a cooperative
    tombstone that workers observe between chunks; resubmitting the name
    revives it.  ``--mode clean`` recomputes everything (DAVOS ``clean``),
    ``--mode continue`` (default) resumes from committed chunks.
    Exit codes follow ``campaign``: configuration problems (unknown name,
    missing store) exit 2; a served campaign that failed exits 3.

``due-report``
    DUE provenance for one code: which fault domain each detected/
    unrecoverable error came from, on every leg of the methodology ::

        python -m repro.cli due-report FMXM --device kepler --ecc on

    The JSON report carries the beam run's DUE breakdown by cause with
    per-cause cross-sections and FITs, the injection campaign's DUE
    breakdown (including sandbox-contained crashes), and the uncore FIT
    term of the two-term DUE prediction — the quantity that closes the
    paper's §VII-B beam-vs-injector DUE gap.

``report``
    Render a deterministic static-HTML dashboard from one or more durable
    campaign stores — no re-execution, no JavaScript, byte-identical
    output for identical store content regardless of backend or the
    worker count that produced it ::

        python -m repro.cli report --store results/campaigns.sqlite --out report.html
        python -m repro.cli report --diff run_a.sqlite jsonl:run_b.jsonl --tolerance 0.05

    The dashboard shows per-run AVF/outcome tables, DUE provenance by
    cause and fault domain, fault-site and instruction-class breakdowns,
    sandbox activity, paper reference values, and (with ``--bench`` /
    ``BENCH_history.jsonl``) the perf baseline and its trajectory.
    ``--diff`` aligns two stores by durable run identity and exits 1 when
    any metric delta exceeds ``--tolerance`` — see docs/REPORTING.md.

``bench``
    Measure simulator throughput layer by layer and write a
    machine-readable perf baseline (``BENCH_simulator.json``).  All
    measured work is deterministic — fixed seeds, fixed workloads, warmup
    iterations discarded — so two runs on the same machine time the same
    instruction stream.  Timings use process CPU time (the work is
    single-threaded and compute-bound), which is insensitive to other
    tenants on a shared machine.

    Six layers are timed.  The first three time one arm each ("fast");
    the next two toggle one execution knob each ("fast" on, "reference"
    off); the last swaps the executor itself:

    * ``sim``      — golden DSL kernel executions (runs/sec and simulated
      instructions issued per second),
    * ``sass``     — SASS-program executions through the interpreter,
    * ``campaign`` — end-to-end fault-injection campaign throughput
      (injections/sec, replay off), the number the paper-scale
      experiments multiply,
    * ``replay``   — the same campaign with snapshot replay on ("fast")
      vs vanilla full re-execution ("reference") — docs/PERFORMANCE.md,
    * ``batch``    — replay-enabled campaign with batched tape evaluation
      on vs off; the fast arm is additionally held to an absolute floor
      (``target_injections_per_sec``) under ``--check``,
    * ``service``  — the same campaign through the campaign service
      (lease executor, one in-process worker, durable store) vs the plain
      serial executor over an identical store — pure coordination
      overhead, held to ``max_overhead`` (10%) under ``--check``.

    With ``--baseline-ref`` the same campaign measurement is repeated
    against a pristine checkout of that git ref (via a temporary
    worktree), recording the pre-optimization baseline the headline
    speedup is computed against.

    With ``--check``, the fresh measurement is compared against the
    committed baseline (``--out``, default ``BENCH_simulator.json``)
    instead of overwriting it: any layer's "fast" throughput more than
    ``--tolerance`` (default 25%) below the baseline exits non-zero — a
    perf regression gate for CI.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import subprocess
import sys
import time
from typing import Callable, Dict, Iterator, Optional

_SASS_TEXT = """
.kernel bench_chain
.buffer a
.buffer c
MOV        r0, %gid
LDG.F32    r1, [a + r0]
FMUL.F32   r2, r1, 3.0
FFMA.F32   r2, r2, 1.5, r1
FADD.F32   r2, r2, 1.0
STG.F32    [c + r0], r2
"""


#: each timed measurement is repeated this many times and the best (minimum
#: CPU time) kept — the standard defense against scheduler noise; the work
#: itself is identical across repeats, so "best" is the least-disturbed one
_REPEATS = 3


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """Collect once, then keep the cyclic collector off for the timed
    region — its pauses burn CPU time inside the measurement and are the
    dominant run-to-run noise at campaign scale."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _time_runs(fn: Callable[[], object], runs: int, warmup: int) -> float:
    """Best per-iteration CPU time of ``fn``, warmup iterations discarded."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(_REPEATS):
        with _gc_paused():
            t0 = time.process_time()
            for _ in range(runs):
                fn()
            best = min(best, (time.process_time() - t0) / runs)
    return best


def _bench_sim(runs: int, warmup: int, seed: int) -> Dict[str, object]:
    from repro.arch.devices import KEPLER_K40C
    from repro.sim.launch import run_kernel
    from repro.workloads.registry import get_workload

    workload = get_workload("kepler", "FMXM", seed=seed)
    workload.prepare()

    def one():
        return run_kernel(KEPLER_K40C, workload.kernel, workload.sim_launch())

    ticks = int(one().ticks)
    per_run = _time_runs(one, runs, warmup)
    return {
        "runs_per_sec": {"fast": round(1.0 / per_run, 1)},
        "ops_per_sec": {"fast": round(ticks / per_run, 1)},
        "ticks_per_run": ticks,
    }


def _bench_sass(runs: int, warmup: int) -> Dict[str, object]:
    import numpy as np

    from repro.arch.devices import KEPLER_K40C
    from repro.sass import SassKernel, assemble
    from repro.sim.launch import LaunchConfig, run_kernel

    program = assemble(_SASS_TEXT)
    a = np.linspace(0.0, 1.0, 4096, dtype=np.float32)
    kernel = SassKernel(program, {"a": a}, ("c",), {"c": a.shape})
    launch = LaunchConfig(grid_blocks=32, threads_per_block=128)

    def one():
        return run_kernel(KEPLER_K40C, kernel, launch)

    per_run = _time_runs(one, runs, warmup)
    return {"runs_per_sec": {"fast": round(1.0 / per_run, 1)}}


def _clear_worker_state() -> None:
    """Drop the process-local campaign state cache before a bench arm, so
    the arm builds (and warms up) its own runner instead of timing one an
    earlier arm left cached."""
    from repro.exec.worker import _STATE_CACHE

    _STATE_CACHE.clear()


def _campaign_rate(policy, injections: int, warmup: int, seed: int) -> float:
    """FMXM/K40c NVBitFI campaign throughput under ``policy``: injections
    per process-CPU second, best of ``_REPEATS`` after one warm-up."""
    from repro.api import get_workload, run_campaign

    workload = get_workload("kepler", "FMXM", seed=3)
    run_campaign(
        workload, device="k40c", framework="nvbitfi", injections=warmup,
        seed=seed, policy=policy,
    )
    elapsed = float("inf")
    for _ in range(_REPEATS):
        with _gc_paused():
            t0 = time.process_time()
            run_campaign(
                workload,
                device="k40c",
                framework="nvbitfi",
                injections=injections,
                seed=seed + 1,
                policy=policy,
            )
            elapsed = min(elapsed, time.process_time() - t0)
    return round(injections / elapsed, 1)


def _bench_campaign(injections: int, warmup: int, seed: int) -> Dict[str, object]:
    from repro.api import ExecutionPolicy

    # replay off: this layer times every injection as a full re-execution
    # (replay's own win is the `replay` layer, batched evaluation's the
    # `batch` layer)
    _clear_worker_state()
    rate = _campaign_rate(ExecutionPolicy(replay=False), injections, warmup, seed)
    return {"injections_per_sec": {"fast": rate}}


def _bench_replay(injections: int, warmup: int, seed: int) -> Dict[str, object]:
    """Campaign throughput with checkpoint/replay on ("fast") vs off
    ("reference") — isolates the replay win the equivalence suite pins to
    bit-identical records."""
    from repro.api import ExecutionPolicy

    rates = {
        label: _campaign_rate(ExecutionPolicy(replay=enabled), injections, warmup, seed)
        for label, enabled in (("fast", True), ("reference", False))
    }
    return {
        "injections_per_sec": rates,
        "speedup": round(rates["fast"] / rates["reference"], 3),
    }


#: absolute floor for the batch layer's fast arm: 10x the 1391 inj/s the
#: pre-replay reference measurement recorded (docs/PERFORMANCE.md)
_BATCH_TARGET_INJ_PER_SEC = 13910.0


def _bench_batch(injections: int, warmup: int, seed: int) -> Dict[str, object]:
    """Campaign throughput with batched tape evaluation on ("fast") vs off
    ("reference"), checkpoint/replay enabled in both — isolates the win of
    classifying injections on the golden tape without executing them."""
    from repro.api import ExecutionPolicy

    rates = {}
    for label, enabled in (("fast", True), ("reference", False)):
        _clear_worker_state()
        rates[label] = _campaign_rate(
            ExecutionPolicy(batch_eval=enabled), injections, warmup, seed
        )
    return {
        "injections_per_sec": rates,
        "speedup": round(rates["fast"] / rates["reference"], 3),
        "target_injections_per_sec": _BATCH_TARGET_INJ_PER_SEC,
    }


#: ceiling on service-mode coordination overhead: the lease-executor arm
#: must stay within this fraction of the plain serial-executor arm
_SERVICE_MAX_OVERHEAD = 0.10


def _bench_service(injections: int, warmup: int, seed: int) -> Dict[str, object]:
    """Campaign throughput through the campaign service ("fast": a
    LeaseExecutor with one in-process worker over a durable store) vs the
    plain serial executor over an identical store ("reference") — isolates
    pure coordination cost: lease claims, heartbeats, cancellation checks
    and idempotent-commit verification.  Every timed run gets a *fresh*
    store, so no arm ever serves cached chunks."""
    import shutil
    import tempfile

    from repro.api import ExecutionPolicy, as_device, as_framework, get_workload, open_store
    from repro.exec.engine import LeaseExecutor
    from repro.faultsim.campaign import CampaignRunner

    out: Dict[str, Dict[str, float]] = {"injections_per_sec": {}}
    tmp = tempfile.mkdtemp(prefix="repro-bench-service-")
    sequence = [0]

    def one_run(workload, use_service: bool, run_injections: int, run_seed: int) -> None:
        sequence[0] += 1
        store = open_store(os.path.join(tmp, f"bench-{sequence[0]}.sqlite"))
        try:
            runner = CampaignRunner(
                as_device("k40c"),
                as_framework("nvbitfi"),
                seed=run_seed,
                executor=LeaseExecutor(workers=1) if use_service else None,
                policy=ExecutionPolicy(store=store),
            )
            runner.run(workload, run_injections)
        finally:
            store.close()

    try:
        for label, enabled in (("fast", True), ("reference", False)):
            workload = get_workload("kepler", "FMXM", seed=3)
            _clear_worker_state()
            one_run(workload, enabled, warmup, seed)
            elapsed = float("inf")
            for _ in range(_REPEATS):
                with _gc_paused():
                    t0 = time.process_time()
                    one_run(workload, enabled, injections, seed + 1)
                    elapsed = min(elapsed, time.process_time() - t0)
            out["injections_per_sec"][label] = round(injections / elapsed, 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out["overhead"] = round(
        1.0
        - out["injections_per_sec"]["fast"] / out["injections_per_sec"]["reference"],
        3,
    )
    out["max_overhead"] = _SERVICE_MAX_OVERHEAD
    return out


_BASELINE_SCRIPT = """
import time
from repro.api import get_workload, run_campaign

warmup, injections, seed, repeats = {warmup}, {injections}, {seed}, {repeats}
workload = get_workload("kepler", "FMXM", seed=3)
run_campaign(workload, device="k40c", framework="nvbitfi", injections=warmup, seed=seed)
elapsed = float("inf")
for _ in range(repeats):
    t0 = time.process_time()
    run_campaign(workload, device="k40c", framework="nvbitfi", injections=injections, seed=seed + 1)
    elapsed = min(elapsed, time.process_time() - t0)
print("BASELINE_INJ_PER_SEC", injections / elapsed)
"""


def _bench_baseline(
    ref: str, injections: int, warmup: int, seed: int
) -> Optional[Dict[str, object]]:
    """Measure campaign throughput of a pristine checkout of ``ref``.

    Uses a temporary git worktree inside the repository so the comparison
    runs the committed code, not the working tree.  Returns ``None`` (with
    a note on stderr) when not in a git checkout.
    """
    repo_root = pathlib.Path(__file__).resolve().parents[2]
    if not (repo_root / ".git").exists():
        print(f"bench: not a git checkout, skipping baseline ({repo_root})", file=sys.stderr)
        return None
    worktree = repo_root / f".bench-baseline-{os.getpid()}"
    git = ["git", "-C", str(repo_root)]
    sha = subprocess.run(
        git + ["rev-parse", ref], check=True, capture_output=True, text=True
    ).stdout.strip()
    subprocess.run(
        git + ["worktree", "add", "--detach", str(worktree), sha],
        check=True,
        capture_output=True,
    )
    try:
        env = dict(os.environ, PYTHONPATH=str(worktree / "src"))
        script = _BASELINE_SCRIPT.format(
            warmup=warmup, injections=injections, seed=seed, repeats=_REPEATS
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True
        )
        for line in proc.stdout.splitlines():
            if line.startswith("BASELINE_INJ_PER_SEC"):
                return {"ref": sha, "injections_per_sec": round(float(line.split()[1]), 1)}
        raise RuntimeError("baseline measurement produced no result line")
    finally:
        subprocess.run(
            git + ["worktree", "remove", "--force", str(worktree)], capture_output=True
        )


def check_regression(
    report: Dict[str, object], baseline: Dict[str, object], tolerance: float
) -> list:
    """Compare a fresh bench report against a committed baseline.

    Pure: returns a list of human-readable regression strings, one per
    layer metric whose "fast" throughput fell more than ``tolerance``
    (a fraction, e.g. 0.25) below the baseline.  Layers or metrics absent
    from either report are skipped — a new layer can't fail the gate
    before its baseline is committed.

    Two absolute gates ride along, *declared by the baseline* (so a
    downsized smoke bench against a synthetic baseline doesn't trip them):
    when a baseline layer records ``target_injections_per_sec`` (the
    ``batch`` layer in the committed baseline), the fresh fast arm must
    stay at or above that floor; and when a baseline layer records
    ``max_overhead`` (the ``service`` layer), the fresh fast arm must stay
    within that fraction of its *own* reference arm — the service's
    coordination overhead ceiling.
    """
    regressions = []
    base_layers = baseline.get("layers", {})
    for layer, metrics in report.get("layers", {}).items():
        base_metrics = base_layers.get(layer)
        if not isinstance(base_metrics, dict):
            continue
        target = base_metrics.get("target_injections_per_sec")
        if target is not None:
            fast = metrics.get("injections_per_sec", {}).get("fast")
            if fast is not None and float(fast) < float(target):
                regressions.append(
                    f"{layer}.injections_per_sec: {float(fast):.1f}/s is below "
                    f"the absolute target {float(target):.1f}/s"
                )
        max_overhead = base_metrics.get("max_overhead")
        if max_overhead is not None:
            values = metrics.get("injections_per_sec", {})
            fast, reference = values.get("fast"), values.get("reference")
            if (
                fast is not None
                and reference is not None
                and float(reference) > 0
                and float(fast) < float(reference) * (1.0 - float(max_overhead))
            ):
                overhead = (1.0 - float(fast) / float(reference)) * 100.0
                regressions.append(
                    f"{layer}.injections_per_sec: the service arm "
                    f"{float(fast):.1f}/s runs {overhead:.0f}% behind its own "
                    f"reference arm {float(reference):.1f}/s (ceiling "
                    f"{float(max_overhead) * 100.0:.0f}%)"
                )
        for metric, values in metrics.items():
            if not isinstance(values, dict) or "fast" not in values:
                continue
            base_values = base_metrics.get(metric)
            if not isinstance(base_values, dict) or "fast" not in base_values:
                continue
            current, reference = float(values["fast"]), float(base_values["fast"])
            if reference <= 0:
                continue
            if current < reference * (1.0 - tolerance):
                regressions.append(
                    f"{layer}.{metric}: {current:.1f}/s is "
                    f"{(1.0 - current / reference) * 100.0:.0f}% below the "
                    f"baseline {reference:.1f}/s (tolerance {tolerance * 100.0:.0f}%)"
                )
    return regressions


def cli_policy(args: argparse.Namespace):
    """The ExecutionPolicy both command lines (this one and
    ``python -m repro.experiments``) build from their run-shaping flags,
    or None — no store, no retries — when none was given.  A flag the
    command does not define counts as not given."""
    from repro.store import ExecutionPolicy, open_store

    fields = {}
    if getattr(args, "store", None) is not None:
        fields["store"] = open_store(args.store)
        fields["refresh"] = getattr(args, "no_cache", False)
    for name in ("retries", "on_crash", "snapshots_per_run"):
        if getattr(args, name, None) is not None:
            fields[name] = getattr(args, name)
    if getattr(args, "no_replay", False):
        fields["replay"] = False
    if getattr(args, "no_batch_eval", False):
        fields["batch_eval"] = False
    return ExecutionPolicy(**fields) if fields else None


def run_campaign_cmd(args: argparse.Namespace) -> int:
    from repro.api import as_device, as_ecc, as_framework, run_campaign
    from repro.common.errors import ChunkQuarantinedError, ReproError
    from repro.faultsim.outcomes import Outcome
    from repro.telemetry import telemetry_session

    try:
        with telemetry_session() as telemetry:
            result = run_campaign(
                args.workload,
                device=as_device(args.device),
                framework=as_framework(args.framework),
                injections=args.injections,
                seed=args.seed,
                ecc=as_ecc(args.ecc),
                workers=args.workers,
                policy=cli_policy(args),
            )
            counters = telemetry.registry.counters
    except ChunkQuarantinedError as exc:
        print(f"campaign failed: {exc}", file=sys.stderr)
        return 3
    except ReproError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    summary = {
        "workload": result.workload,
        "device": result.device,
        "framework": result.framework,
        "injections": result.injections,
        "outcomes": {o.value: result.count(o) for o in Outcome},
        "avf_sdc": round(result.avf(Outcome.SDC), 4),
        "avf_due": round(result.avf(Outcome.DUE), 4),
        "due_breakdown": result.due_breakdown(),
        "contained_crashes": result.contained_count(),
    }
    if args.store is not None:
        summary["store"] = {
            "path": args.store,
            "hits": int(counters.get("store.hits", 0)),
            "misses": int(counters.get("store.misses", 0)),
            "commits": int(counters.get("store.commits", 0)),
            "tasks_replayed": int(counters.get("store.tasks_replayed", 0)),
        }
    text = json.dumps(summary, indent=2) + "\n"
    if args.out is not None:
        from repro.common.atomicio import atomic_write_text

        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _checked_extract(spec: str, role: str = "store") -> "object":
    """Open and extract a store for read-side commands, or fail loudly.

    Returns a StoreExtract, or ``None`` after printing the reason (missing
    file, unreadable backend, or a store with no campaign content) —
    callers translate ``None`` into exit status 2.  The existence check
    happens *before* open_store because the SQLite backend would silently
    create an empty database at a mistyped path.
    """
    from repro.common.errors import StoreError
    from repro.report import extract_store

    path = spec
    for prefix in ("sqlite:", "jsonl:"):
        if path.startswith(prefix):
            path = path[len(prefix):]
            break
    if not pathlib.Path(path).exists():
        print(f"report: no {role} at {path}", file=sys.stderr)
        return None
    try:
        extract = extract_store(spec)
    except StoreError as exc:
        print(f"report: cannot read {role} {spec}: {exc}", file=sys.stderr)
        return None
    if extract.chunks == 0:
        print(f"report: {role} {spec} is empty (no chunk records)", file=sys.stderr)
        return None
    return extract


def run_report_cmd(args: argparse.Namespace) -> int:
    from repro.common.atomicio import atomic_write_text, read_jsonl
    from repro.report import (
        diff_stores,
        render_diff_html,
        render_diff_text,
        render_report,
    )

    if args.diff:
        extract_a = _checked_extract(args.diff[0], "store A")
        extract_b = _checked_extract(args.diff[1], "store B")
        if extract_a is None or extract_b is None:
            return 2
        diff = diff_stores(extract_a, extract_b)
        print(render_diff_text(diff, args.tolerance), end="")
        if args.out is not None:
            atomic_write_text(args.out, render_diff_html(diff, args.tolerance))
            print(f"wrote {args.out}")
        return 1 if diff.violations(args.tolerance) else 0

    extracts = []
    for spec in args.store:
        extract = _checked_extract(spec)
        if extract is None:
            return 2
        extracts.append(extract)

    bench = None
    if args.bench is not None:
        bench_path = pathlib.Path(args.bench)
        if not bench_path.exists():
            print(f"report: no bench baseline at {bench_path}", file=sys.stderr)
            return 2
        bench = json.loads(bench_path.read_text())
    history_path = pathlib.Path(
        args.history if args.history is not None else "BENCH_history.jsonl"
    )
    history = read_jsonl(history_path) if history_path.exists() else None
    if args.history is not None and not history_path.exists():
        print(f"report: no bench history at {history_path}", file=sys.stderr)
        return 2

    html = render_report(extracts, bench=bench, history=history, title=args.title)
    out = pathlib.Path(args.out if args.out is not None else "report.html")
    atomic_write_text(out, html)
    runs = sum(len(e.slices) for e in extracts)
    tasks = sum(e.tasks for e in extracts)
    print(f"wrote {out} ({runs} run(s), {tasks} task(s), {len(extracts)} store(s))")
    return 0


def run_due_report_store(args: argparse.Namespace) -> int:
    from repro.common.atomicio import atomic_write_text
    from repro.report import extract_due_report, format_due_rows

    extract = _checked_extract(args.from_store)
    if extract is None:
        return 2
    rows = extract_due_report(extract)
    if args.workload is not None:
        rows = [row for row in rows if row["workload"] == args.workload]
    if not rows:
        scope = f" for workload {args.workload}" if args.workload else ""
        print(
            f"due-report: store {args.from_store} holds no campaign records{scope}",
            file=sys.stderr,
        )
        return 2
    text = format_due_rows(rows, args.format)
    if args.out is not None:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def run_due_report_cmd(args: argparse.Namespace) -> int:
    from repro.api import as_device, as_ecc, run_beam, run_campaign
    from repro.common.errors import ReproError
    from repro.faultsim.outcomes import Outcome
    from repro.predict.model import uncore_due_fits

    if args.from_store is not None:
        return run_due_report_store(args)
    if args.workload is None:
        print(
            "due-report: a workload is required unless --from-store is given",
            file=sys.stderr,
        )
        return 2
    try:
        device = as_device(args.device)
        ecc = as_ecc(args.ecc)
        policy = cli_policy(args)
        beam = run_beam(
            args.workload,
            device=device,
            ecc=ecc,
            beam_hours=args.beam_hours,
            mode="expected",
            max_fault_evals=args.max_fault_evals,
            seed=args.seed,
            workers=args.workers,
            policy=policy,
        )
        campaign = run_campaign(
            args.workload,
            device=device,
            framework=args.framework,
            injections=args.injections,
            seed=args.seed,
            ecc=ecc,
            workers=args.workers,
            policy=policy,
        )
        from repro.workloads.registry import get_workload

        uncore_terms = uncore_due_fits(
            device, get_workload(device.architecture, args.workload, seed=args.seed)
        )
    except ReproError as exc:
        print(f"due-report: {exc}", file=sys.stderr)
        return 2
    report = {
        "workload": beam.workload,
        "device": beam.device,
        "ecc": beam.ecc.value,
        "beam": {
            "fit_due": beam.fit_due.value,
            "due_breakdown": beam.due_breakdown(),
            "due_cross_sections_cm2": beam.due_cross_sections(),
            "fit_due_by_cause": beam.fit_due_by_cause(),
        },
        "campaign": {
            "framework": campaign.framework,
            "injections": campaign.injections,
            "avf_due": round(campaign.avf(Outcome.DUE), 4),
            "due_breakdown": campaign.due_breakdown(),
            "contained_crashes": campaign.contained_count(),
        },
        "uncore_prediction": {
            "terms_due_uncore": uncore_terms,
            "fit_due_uncore": sum(uncore_terms.values()),
        },
    }
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        # same row model the store-driven path uses (repro.report.format)
        from repro.report import format_due_rows

        beam_breakdown = beam.due_breakdown()
        rows = [
            {
                "kind": "beam",
                "workload": beam.workload,
                "label": f"{beam.workload} · {beam.device} · ecc={beam.ecc.value}",
                "due": sum(beam_breakdown.values()),
                "due_breakdown": beam_breakdown,
            },
            {
                "kind": "campaign",
                "workload": campaign.workload,
                "label": f"{campaign.workload} · {campaign.device} · "
                         f"{campaign.framework} · ecc={beam.ecc.value}",
                "evaluations": campaign.injections,
                "due": campaign.count(Outcome.DUE),
                "avf_due": round(campaign.avf(Outcome.DUE), 4),
                "due_breakdown": campaign.due_breakdown(),
                "contained": campaign.contained_count(),
            },
        ]
        text = format_due_rows(rows, args.format)
    if args.out is not None:
        from repro.common.atomicio import atomic_write_text

        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _service_store_path(spec: str, command: str) -> Optional[pathlib.Path]:
    """The filesystem path behind a store spec, or ``None`` (reason on
    stderr) when nothing exists there — the same typo guard
    ``_checked_extract`` applies, because open_store would silently create
    an empty store at a mistyped path."""
    path = spec
    for prefix in ("sqlite:", "jsonl:"):
        if path.startswith(prefix):
            path = path[len(prefix):]
            break
    resolved = pathlib.Path(path)
    if not resolved.exists():
        print(f"{command}: no store at {resolved}", file=sys.stderr)
        return None
    return resolved


def _cli_service_policy(args: argparse.Namespace):
    """Fold the serve knob flags into a ServicePolicy (None = defaults)."""
    from repro.store.policy import ServicePolicy

    overrides = {}
    for field in ("lease_ttl", "heartbeat_interval", "max_lease_epochs"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    return ServicePolicy(**overrides) if overrides else None


def run_submit_cmd(args: argparse.Namespace) -> int:
    from repro.api import submit_campaign
    from repro.common.errors import ReproError

    try:
        entry = submit_campaign(
            args.store,
            args.name,
            args.workload,
            device=args.device,
            framework=args.framework,
            injections=args.injections,
            seed=args.seed,
            ecc=args.ecc,
            priority=args.priority,
            mode=args.mode,
            retries=args.retries,
            backoff=args.backoff,
            on_crash=args.on_crash,
        )
    except ReproError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(
        {
            "name": entry.name,
            "state": entry.state,
            "mode": entry.mode,
            "priority": entry.priority,
            "spec": entry.spec,
        },
        indent=2,
    ))
    return 0


def run_serve_cmd(args: argparse.Namespace) -> int:
    from repro.api import serve_campaigns
    from repro.common.errors import ReproError
    from repro.service.records import FAILED
    from repro.telemetry import telemetry_session

    if _service_store_path(args.store, "serve") is None:
        return 2
    try:
        with telemetry_session():
            rows = serve_campaigns(
                args.store,
                workers=args.workers,
                service=_cli_service_policy(args),
                max_campaigns=args.max_campaigns,
                chaos_kill_after=args.chaos_kill_after,
                chaos_worker=args.chaos_worker,
            )
    except ReproError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(rows, indent=2))
    return 3 if any(row.get("state") == FAILED for row in rows) else 0


def run_status_cmd(args: argparse.Namespace) -> int:
    from repro.api import campaign_status
    from repro.common.errors import ReproError

    if _service_store_path(args.store, "status") is None:
        return 2
    try:
        rows = campaign_status(args.store, args.name)
    except ReproError as exc:
        print(f"status: {exc}", file=sys.stderr)
        return 2
    if args.name is not None and rows and rows[0].get("state") == "unknown":
        print(f"status: campaign {args.name!r} was never submitted", file=sys.stderr)
        return 2
    print(json.dumps(rows, indent=2))
    return 0


def run_cancel_cmd(args: argparse.Namespace) -> int:
    from repro.api import campaign_status, cancel_campaign
    from repro.common.errors import ReproError

    if _service_store_path(args.store, "cancel") is None:
        return 2
    try:
        rows = campaign_status(args.store, args.name)
        if rows and rows[0].get("state") == "unknown":
            # a tombstone for a never-submitted name would be a silent no-op
            # forever — far more likely a typo than an intent
            print(
                f"cancel: campaign {args.name!r} was never submitted",
                file=sys.stderr,
            )
            return 2
        stone = cancel_campaign(args.store, args.name, reason=args.reason)
    except ReproError as exc:
        print(f"cancel: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(
        {"name": stone.campaign, "state": "cancelled", "reason": stone.reason},
        indent=2,
    ))
    return 0


def run_bench(args: argparse.Namespace) -> Dict[str, object]:
    report: Dict[str, object] = {
        "schema": "repro-bench-simulator/1",
        "generated_by": "python -m repro.cli bench",
        "config": {
            "clock": "process_cpu",
            "repeats": _REPEATS,
            "seed": args.seed,
            "warmup": args.warmup,
            "sim_runs": args.sim_runs,
            "sass_runs": args.sass_runs,
            "injections": args.injections,
            "batch_injections": args.batch_injections,
        },
        "layers": {
            "sim": _bench_sim(args.sim_runs, args.warmup, args.seed),
            "sass": _bench_sass(args.sass_runs, args.warmup),
            "campaign": _bench_campaign(args.injections, args.warmup, args.seed),
            "replay": _bench_replay(args.injections, args.warmup, args.seed),
            "batch": _bench_batch(args.batch_injections, args.warmup, args.seed),
            "service": _bench_service(args.injections, args.warmup, args.seed),
        },
    }
    if args.baseline_ref:
        baseline = _bench_baseline(args.baseline_ref, args.injections, args.warmup, args.seed)
        if baseline is not None:
            fast = report["layers"]["campaign"]["injections_per_sec"]["fast"]
            baseline["campaign_speedup_vs_baseline"] = round(
                fast / baseline["injections_per_sec"], 3
            )
            report["baseline"] = baseline
    return report


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.cli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    campaign_p = sub.add_parser(
        "campaign", help="run one fault-injection campaign, optionally checkpointed"
    )
    campaign_p.add_argument("workload", help="registry code name, e.g. FMXM")
    campaign_p.add_argument("--device", default="kepler", help="kepler | volta | catalog key")
    campaign_p.add_argument("--framework", default="nvbitfi", help="nvbitfi | sassifi")
    campaign_p.add_argument("--injections", type=int, default=200)
    campaign_p.add_argument("--seed", type=int, default=0)
    campaign_p.add_argument("--ecc", default="on", help="on | off")
    campaign_p.add_argument("--workers", type=int, default=1)
    campaign_p.add_argument(
        "--store",
        default=None,
        help="durable store path; chunks checkpoint as they finish and an "
        "interrupted campaign resumes bit-identically (.jsonl → JSONL backend)",
    )
    campaign_p.add_argument(
        "--resume",
        action="store_true",
        help="replay completed chunks from --store (default with a store)",
    )
    campaign_p.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything, overwriting cached chunks in --store",
    )
    campaign_p.add_argument(
        "--retries", type=int, default=None,
        help="per-chunk retries before a failing chunk is quarantined",
    )
    campaign_p.add_argument(
        "--on-crash",
        choices=("due", "quarantine", "raise"),
        default=None,
        help="sandbox policy for unexpected crashes in injected runs: "
        "classify as DUE (default), quarantine the chunk, or raise "
        "(debugging) — see docs/ROBUSTNESS.md",
    )
    campaign_p.add_argument(
        "--no-replay",
        action="store_true",
        help="disable checkpoint/replay and re-execute every injection from "
        "tick 0 (bit-identical, just slower — docs/PERFORMANCE.md)",
    )
    campaign_p.add_argument(
        "--no-batch-eval",
        action="store_true",
        help="disable batched tape evaluation and execute every injection "
        "individually (bit-identical, just slower — docs/PERFORMANCE.md)",
    )
    campaign_p.add_argument(
        "--snapshots-per-run",
        type=int,
        default=None,
        metavar="K",
        help="evenly-spaced snapshots per golden capture (default 16)",
    )
    campaign_p.add_argument("--out", default=None, help="write the JSON summary here")

    submit_p = sub.add_parser(
        "submit",
        help="register a named campaign in a shared store for `serve` to run",
    )
    submit_p.add_argument("name", help="campaign name (no ':' or '/')")
    submit_p.add_argument("workload", help="registry code name, e.g. FMXM")
    submit_p.add_argument(
        "--store", required=True,
        help="shared durable store (created on first submit; .jsonl → JSONL)",
    )
    submit_p.add_argument("--device", default="kepler", help="kepler | volta | catalog key")
    submit_p.add_argument("--framework", default="nvbitfi", help="nvbitfi | sassifi")
    submit_p.add_argument("--injections", type=int, default=200)
    submit_p.add_argument("--seed", type=int, default=0)
    submit_p.add_argument("--ecc", default="on", help="on | off")
    submit_p.add_argument(
        "--priority", type=int, default=0,
        help="higher runs first; ties break by submission time (default 0)",
    )
    submit_p.add_argument(
        "--mode", choices=("continue", "clean"), default="continue",
        help="continue: resume from committed chunks (default); "
        "clean: recompute everything (DAVOS clean semantics)",
    )
    submit_p.add_argument(
        "--retries", type=int, default=None,
        help="per-chunk retries before quarantine (default: policy default)",
    )
    submit_p.add_argument(
        "--backoff", type=float, default=None,
        help="base retry backoff in seconds (default: policy default)",
    )
    submit_p.add_argument(
        "--on-crash", choices=("due", "quarantine", "raise"), default=None,
        help="sandbox policy for unexpected crashes (docs/ROBUSTNESS.md)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="drain pending campaigns from a shared store with lease-coordinated workers",
    )
    serve_p.add_argument("--store", required=True, help="shared durable store")
    serve_p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per campaign (1 = in-process; N>1 forks N "
        "lease-coordinated workers)",
    )
    serve_p.add_argument(
        "--max-campaigns", type=int, default=None, metavar="N",
        help="stop after running N campaigns (default: drain the registry)",
    )
    serve_p.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="chunk lease time-to-live (default 30)",
    )
    serve_p.add_argument(
        "--heartbeat-interval", type=float, default=None, metavar="SECONDS",
        help="worker heartbeat cadence; a worker missing 3 beats is dead "
        "(default 5)",
    )
    serve_p.add_argument(
        "--max-lease-epochs", type=int, default=None, metavar="N",
        help="quarantine a chunk whose lease epoch exceeds N (default 5)",
    )
    # fault-injection hooks for the chaos suite and the CI forced-death
    # scenario: worker --chaos-worker SIGKILLs itself mid-lease after
    # claiming --chaos-kill-after chunks
    serve_p.add_argument("--chaos-kill-after", type=int, default=None, help=argparse.SUPPRESS)
    serve_p.add_argument("--chaos-worker", type=int, default=0, help=argparse.SUPPRESS)

    status_p = sub.add_parser(
        "status", help="report campaign states and chunk progress from a shared store"
    )
    status_p.add_argument(
        "name", nargs="?", default=None,
        help="campaign name (default: every registered campaign)",
    )
    status_p.add_argument("--store", required=True, help="shared durable store")

    cancel_p = sub.add_parser(
        "cancel",
        help="cooperatively cancel a campaign: workers finish in-flight "
        "chunks, claim nothing new",
    )
    cancel_p.add_argument("name", help="campaign name")
    cancel_p.add_argument("--store", required=True, help="shared durable store")
    cancel_p.add_argument("--reason", default="", help="recorded on the tombstone")

    due_p = sub.add_parser(
        "due-report",
        help="DUE provenance report: beam, campaign and uncore-term breakdowns by cause",
    )
    due_p.add_argument(
        "workload",
        nargs="?",
        default=None,
        help="registry code name, e.g. FMXM (optional with --from-store: "
        "acts as a filter)",
    )
    due_p.add_argument(
        "--from-store",
        default=None,
        metavar="STORE",
        help="read DUE provenance out of a durable campaign store instead of "
        "re-running anything (exits 2 if the store is missing or empty)",
    )
    due_p.add_argument(
        "--format",
        choices=("text", "json", "md"),
        default="json",
        help="output format (default json; text/md use the shared row model)",
    )
    due_p.add_argument("--device", default="kepler", help="kepler | volta | catalog key")
    due_p.add_argument("--framework", default="nvbitfi", help="nvbitfi | sassifi")
    due_p.add_argument("--ecc", default="on", help="on | off")
    due_p.add_argument("--seed", type=int, default=0)
    due_p.add_argument("--injections", type=int, default=200)
    due_p.add_argument("--beam-hours", type=float, default=72.0)
    due_p.add_argument("--max-fault-evals", type=int, default=150)
    due_p.add_argument("--workers", type=int, default=1)
    due_p.add_argument("--store", default=None, help="durable store path (see campaign)")
    due_p.add_argument(
        "--on-crash",
        choices=("due", "quarantine", "raise"),
        default=None,
        help="sandbox policy for unexpected crashes (docs/ROBUSTNESS.md)",
    )
    due_p.add_argument("--out", default=None, help="write the report here")

    report_p = sub.add_parser(
        "report",
        help="render a static HTML dashboard (or a diff) from durable stores",
        description="Render deterministic dashboards and cross-campaign diffs "
        "from campaign stores alone — no re-execution (docs/REPORTING.md).",
    )
    report_p.add_argument(
        "--store",
        action="append",
        default=[],
        metavar="STORE",
        help="campaign store to report on (repeatable; sqlite:/jsonl: prefixes "
        "as in campaign --store)",
    )
    report_p.add_argument(
        "--diff",
        nargs=2,
        default=None,
        metavar=("STORE_A", "STORE_B"),
        help="compare two stores instead of rendering a dashboard: prints the "
        "delta report, exits 1 if any metric delta exceeds --tolerance",
    )
    report_p.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="allowed relative metric drift under --diff (fraction, default 0: "
        "exact match required)",
    )
    report_p.add_argument(
        "--bench",
        default=None,
        metavar="JSON",
        help="BENCH_*.json baseline to include in the dashboard",
    )
    report_p.add_argument(
        "--history",
        default=None,
        metavar="JSONL",
        help="bench history log for the trajectory sparkline "
        "(default: BENCH_history.jsonl when present)",
    )
    report_p.add_argument(
        "--title", default="Campaign store report", help="dashboard title"
    )
    report_p.add_argument(
        "--out",
        default=None,
        help="output HTML path (default report.html; with --diff, also write "
        "the HTML diff here)",
    )

    bench = sub.add_parser("bench", help="measure simulator throughput, write a JSON baseline")
    bench.add_argument("--out", default="BENCH_simulator.json", help="output path")
    bench.add_argument("--seed", type=int, default=0, help="root seed for measured work")
    bench.add_argument("--warmup", type=int, default=15, help="discarded warmup iterations")
    bench.add_argument("--sim-runs", type=int, default=40, help="timed DSL kernel runs")
    bench.add_argument("--sass-runs", type=int, default=80, help="timed SASS kernel runs")
    bench.add_argument("--injections", type=int, default=200, help="timed campaign injections")
    bench.add_argument(
        "--batch-injections",
        type=int,
        default=2000,
        metavar="N",
        help="timed injections for the batch layer (larger: batched "
        "evaluation amortizes per-chunk overhead across the chunk)",
    )
    bench.add_argument(
        "--baseline-ref",
        default=None,
        metavar="REF",
        help="also measure this git ref's campaign throughput via a temporary worktree",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline at --out instead of "
        "overwriting it; exit 1 on a regression beyond --tolerance",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional throughput drop under --check (default 0.25)",
    )
    bench.add_argument(
        "--append-history",
        action="store_true",
        help="also append this measurement to BENCH_history.jsonl (next to "
        "--out) — the trajectory `report` renders as a sparkline",
    )
    args = parser.parse_args(argv)

    if args.command == "campaign":
        if args.resume and args.no_cache:
            parser.error("--resume and --no-cache conflict: pick one")
        if (args.resume or args.no_cache) and args.store is None:
            parser.error("--resume/--no-cache require --store")
        if args.retries is not None and args.retries < 0:
            parser.error("--retries must be >= 0")
        return run_campaign_cmd(args)

    if args.command == "submit":
        if args.injections <= 0:
            parser.error("--injections must be > 0")
        if args.retries is not None and args.retries < 0:
            parser.error("--retries must be >= 0")
        return run_submit_cmd(args)

    if args.command == "serve":
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        if args.chaos_kill_after is not None and args.workers < 2:
            parser.error("--chaos-kill-after needs --workers >= 2")
        return run_serve_cmd(args)

    if args.command == "status":
        return run_status_cmd(args)

    if args.command == "cancel":
        return run_cancel_cmd(args)

    if args.command == "due-report":
        return run_due_report_cmd(args)

    if args.command == "report":
        if not args.diff and not args.store:
            parser.error("report needs --store (repeatable) or --diff A B")
        if args.diff and args.store:
            parser.error("--diff and --store conflict: pick one mode")
        if args.tolerance < 0:
            parser.error("--tolerance must be >= 0")
        return run_report_cmd(args)

    if args.command == "bench":
        if args.check:
            baseline_path = pathlib.Path(args.out)
            if not baseline_path.exists():
                print(f"bench --check: no baseline at {baseline_path}", file=sys.stderr)
                return 2
            baseline = json.loads(baseline_path.read_text())
            report = run_bench(args)
            if args.append_history:
                # the measurement happened either way: record it (a dip
                # shows up in the trajectory sparkline next to the gate)
                from repro.common.atomicio import append_jsonl

                history_path = baseline_path.parent / "BENCH_history.jsonl"
                append_jsonl(history_path, report)
                print(f"appended to {history_path}")
            regressions = check_regression(report, baseline, args.tolerance)
            if regressions:
                for line in regressions:
                    print(f"bench regression: {line}", file=sys.stderr)
                return 1
            print(f"bench --check: no regression beyond {args.tolerance * 100.0:.0f}%")
            return 0
        from repro.common.atomicio import atomic_write_text

        report = run_bench(args)
        out = pathlib.Path(args.out)
        atomic_write_text(out, json.dumps(report, indent=2, sort_keys=False) + "\n")
        if args.append_history:
            from repro.common.atomicio import append_jsonl

            history_path = out.parent / "BENCH_history.jsonl"
            append_jsonl(history_path, report)
            print(f"appended to {history_path}")
        campaign = report["layers"]["campaign"]
        replay = report["layers"]["replay"]
        batch = report["layers"]["batch"]
        service = report["layers"]["service"]
        print(f"wrote {out}")
        print("campaign: {fast} inj/s".format(fast=campaign["injections_per_sec"]["fast"]))
        print(
            "replay:   on {fast} inj/s vs off {ref} inj/s (x{speedup})".format(
                fast=replay["injections_per_sec"]["fast"],
                ref=replay["injections_per_sec"]["reference"],
                speedup=replay["speedup"],
            )
        )
        print(
            "batch:    on {fast} inj/s vs off {ref} inj/s (x{speedup}, "
            "target {target})".format(
                fast=batch["injections_per_sec"]["fast"],
                ref=batch["injections_per_sec"]["reference"],
                speedup=batch["speedup"],
                target=batch["target_injections_per_sec"],
            )
        )
        print(
            "service:  lease {fast} inj/s vs serial {ref} inj/s "
            "(overhead {ovh:.1f}%, ceiling {cap:.0f}%)".format(
                fast=service["injections_per_sec"]["fast"],
                ref=service["injections_per_sec"]["reference"],
                ovh=service["overhead"] * 100.0,
                cap=service["max_overhead"] * 100.0,
            )
        )
        if "baseline" in report:
            baseline = report["baseline"]
            print(
                "baseline {ref}: {ips} inj/s -> x{speedup} vs this tree".format(
                    ref=baseline["ref"][:12],
                    ips=baseline["injections_per_sec"],
                    speedup=baseline["campaign_speedup_vs_baseline"],
                )
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
