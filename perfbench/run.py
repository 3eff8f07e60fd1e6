"""The benchmark of record: end-to-end and per-layer metrics of repro.

Runs each workload as fresh-process repeats (``repeat.py``), round-robin
across workloads, checks every repeat's result digest, and reports each
end-to-end metric over the untraced repeats: timings as the best repeat,
the rest as the median, each printed with the median, IQR and count.
With ``--trace 1`` a traced repeat follows each untraced one, and the
traced repeats' medians give the per-layer table.

    python3 perfbench/run.py --seed 0                     # all workloads
    python3 perfbench/run.py --workload tape --seed 3 --seconds 20 --trace 0

With ``--seconds`` rounds go on until that much time has passed (at
least three rounds); otherwise ``--repeats`` rounds run.  With
a single ``--workload``, the last line of standard output is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The exit code is 0 only when every digest matched
and nothing failed.  ``README.md`` documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

import workloads

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORK = HERE / "_work"

#: (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("evals_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: timings reported as their best repeat rather than the median: noise
#: from other tenants of a shared host only ever slows a repeat down, so
#: the best repeat is the steadiest estimate of the program's own cost
BEST_OF = ("wall_s", "evals_per_s", "cpu_s")

#: rounds a time-bounded run makes at least, so several repeats back each value
MIN_ROUNDS = 3
#: a run must end within this many seconds of its start
DEADLINE_S = 170.0
PROBE_ITERATIONS = 800_000


def probe() -> float:
    """Time a fixed pure-Python loop (~0.1 s), a gauge of host noise."""
    started = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - started


def reported(name: str, better: str, values: List[float]) -> float:
    """The value a run reports for an end-to-end metric (0 without data)."""
    if not values:
        return 0.0
    if name in BEST_OF:
        return min(values) if better == "lower" else max(values)
    return statistics.median(values)


def spread(values: List[float]) -> float:
    """Interquartile range (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


class Bench:
    """Spawns repeats and keeps their reports, per workload."""

    def __init__(self, seed: int, work: pathlib.Path, trace_dir: pathlib.Path,
                 deadline: Optional[float]) -> None:
        self.seed = seed
        self.work = work
        self.trace_dir = trace_dir
        self.deadline = deadline
        self.reports: Dict[str, List[dict]] = {}
        self.probes: List[float] = []
        self.errors: List[str] = []
        self._stores = 0

    def fresh_store(self) -> str:
        self._stores += 1
        return str(self.work / f"store-{self._stores}.sqlite")

    def repeat(self, workload: str, store: str, traced: bool = False) -> Optional[dict]:
        """One fresh-process repeat; None (and an error) if it failed."""
        self.probes.append(probe())
        print(
            f"perfbench: {workload}{' traced' if traced else ''} "
            f"repeat, probe {self.probes[-1]:.4f} s",
            file=sys.stderr, flush=True,
        )
        command = [
            sys.executable, str(HERE / "repeat.py"), "--workload", workload,
            "--seed", str(self.seed), "--store", store,
        ]
        if traced:
            command += ["--trace-out", str(self.trace_dir / f"{workload}.jsonl")]
        timeout = None
        if self.deadline is not None:
            timeout = max(1.0, self.deadline - time.monotonic())
        try:
            spawned = time.monotonic()
            proc = subprocess.run(
                command + ["--spawned-at", repr(spawned)],
                stdout=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"{workload}: repeat passed the deadline")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"{workload}: repeat exited with {proc.returncode}")
            return None
        report = json.loads(lines[-1])
        self.reports.setdefault(workload, []).append(report)
        return report

    def discard(self, store: str) -> None:
        for suffix in ("", "-wal", "-shm"):
            path = pathlib.Path(store + suffix)
            if path.exists():
                path.unlink()


def run_rounds(bench: Bench, names: List[str], repeats: int, seconds: Optional[float],
               trace: bool) -> None:
    """Round-robin rounds: one untraced repeat per workload, each followed
    by a traced one when ``trace`` is set, so both meet the same host."""
    warm_store = None
    if "warm" in names:
        # populate once, untimed: the warm call list against an empty store
        # is the cold call lists in order, so it must reproduce their digests
        warm_store = bench.fresh_store()
        populate = bench.repeat("warm", warm_store)
        if populate is not None:
            populate["populate"] = True

    def one_round() -> None:
        for name in names:
            for traced in (False, True)[: 1 + trace]:
                if name == "warm":
                    bench.repeat(name, warm_store, traced)
                else:
                    store = bench.fresh_store()
                    bench.repeat(name, store, traced)
                    bench.discard(store)

    started = time.monotonic()
    rounds = 0
    while (
        (rounds < repeats) if seconds is None
        else (rounds < MIN_ROUNDS or time.monotonic() - started < seconds)
    ):
        if rounds and bench.deadline is not None:
            # on a slow host, stop early rather than overrun the deadline
            per_round = (time.monotonic() - started) / rounds
            if time.monotonic() + 1.5 * per_round > bench.deadline:
                break
        one_round()
        rounds += 1


# -- checking ---------------------------------------------------------------------


def exact_counts(layers: Dict[str, float]) -> List[str]:
    """The per-layer counts a deterministic program repeats exactly."""
    return [
        name for name in layers
        if name.endswith(".calls") or name in ("batch.coverage", "store.hit_ratio")
    ]


def check(bench: Bench, names: List[str], expected: Dict[str, str]) -> Dict[str, dict]:
    """Per workload: digest agreement plus attempted/failed operations."""
    verdicts = {}
    digests = {
        name: [r["call_digests"] for r in bench.reports.get(name, [])] for name in names
    }
    for name in names:
        reports = bench.reports.get(name, [])
        attempted = failed = 0
        reference = digests[name][0] if reports else None
        want = expected.get(name)
        for report, calls in zip(reports, digests[name]):
            attempted += report["calls"] + report["chunks"]
            failed += report["failed_calls"] + report["chunk_retries"] + report["quarantined"]
            folded = workloads.fold(calls)
            if calls != reference or (want is not None and folded != want):
                print(f"perfbench: {name} digest {folded} does not match "
                      f"{want or 'the first repeat'}", file=sys.stderr)
                failed += 1
        traced = [r["layers"] for r in reports if r["traced"]]
        if any(t[m] != traced[0][m] for t in traced for m in exact_counts(traced[0])):
            print(f"perfbench: {name} layer counts differ between traced repeats",
                  file=sys.stderr)
            failed += 1
        if name == "warm" and reference is not None:
            cold = [digests[s][0] for s in workloads.WARM_SOURCES if digests.get(s)]
            if len(cold) == len(workloads.WARM_SOURCES) and sum(cold, []) != reference:
                print("perfbench: warm digests differ from the cold workloads", file=sys.stderr)
                failed += 1
        errors = [e for e in bench.errors if e.startswith(name + ":")]
        attempted += len(errors)
        failed += len(errors)
        verdicts[name] = {
            "attempted": max(1, attempted),
            "failed": failed,
            "digest": workloads.fold(reference) if reference is not None else None,
            "correct": failed == 0 and bool(reports),
        }
    return verdicts


# -- aggregation ------------------------------------------------------------------


def end_to_end(reports: List[dict]) -> Dict[str, List[float]]:
    plain = [r for r in reports if not r["traced"] and not r.get("populate")]
    values: Dict[str, List[float]] = {name: [] for name, _, _ in END_TO_END}
    for r in plain:
        values["setup_s"].append(r["setup_s"])
        values["wall_s"].append(r["wall_s"])
        values["evals_per_s"].append(r["evals"] / r["wall_s"])
        values["cpu_s"].append(r["cpu_s"])
        values["peak_rss_mb"].append(r["peak_rss_mb"])
    return values


def per_layer(reports: List[dict]) -> Dict[str, float]:
    """Each per-layer metric's median over the traced repeats."""
    traced = [r for r in reports if r["traced"]]
    if not traced:
        return {}
    layers = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    plain_wall = end_to_end(reports)["wall_s"]
    if plain_wall:
        # best against best, like the wall_s the untraced repeats report
        layers["trace.overhead"] = min(r["wall_s"] for r in traced) / min(plain_wall) - 1.0
    return layers


def print_tables(bench: Bench, names: List[str], verdicts: Dict[str, dict]) -> None:
    from tracing import PER_LAYER

    print(f"{'workload':<8} {'metric':<12} {'unit':<5} {'reported':>12} "
          f"{'median':>12} {'IQR':>10} {'n':>3}")
    for name in names:
        values = end_to_end(bench.reports.get(name, []))
        for metric, unit, better in END_TO_END:
            v = values[metric]
            median = statistics.median(v) if v else float("nan")
            print(f"{name:<8} {metric:<12} {unit:<5} {reported(metric, better, v):>12.4f} "
                  f"{median:>12.4f} {spread(v):>10.4f} {len(v):>3}")
        verdict = verdicts[name]
        print(
            f"{name:<8} {'fail_frac':<12} {'ratio':<5} "
            f"{verdict['failed'] / verdict['attempted']:>12.4f} "
            f"{'':>12} {'':>10} {verdict['attempted']:>3}  digest {verdict['digest']}"
        )
    layers = {name: per_layer(bench.reports.get(name, [])) for name in names}
    if any(layers.values()):
        print()
        print(f"{'per-layer metric':<32} {'unit':<6}" + "".join(f"{n:>14}" for n in names))
        for metric, unit, _ in PER_LAYER:
            cells = "".join(
                f"{layers[n][metric]:>14.4f}" if metric in layers[n] else f"{'-':>14}"
                for n in names
            )
            print(f"{metric:<32} {unit:<6}{cells}")
    if bench.probes:
        median = statistics.median(bench.probes)
        swing = (max(bench.probes) - min(bench.probes)) / median
        print(f"\nprobe: median {median:.4f} s, swing {swing:.1%} over {len(bench.probes)} repeats")


def result_line(bench: Bench, name: str, verdict: dict, trace: bool) -> dict:
    reports = bench.reports.get(name, [])
    if trace:
        from tracing import PER_LAYER

        layers = per_layer(reports)
        metrics = {m: {"value": layers.get(m, 0.0), "unit": u} for m, u, _ in PER_LAYER}
    else:
        values = end_to_end(reports)
        metrics = {
            m: {"value": reported(m, better, values[m]), "unit": u}
            for m, u, better in END_TO_END
        }
    return {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure untraced repeats for this long")
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced rounds when --seconds is not given")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: follow each repeat with a traced one "
                             "(default: 1 for several workloads)")
    parser.add_argument("--out", default=None,
                        help="directory for the trace JSONL (default: perfbench/_work/traces)")
    parser.add_argument("--update-digests", action="store_true",
                        help="record this seed's digests in digests.json")
    args = parser.parse_args(argv)

    if not workloads.use_source_tree():
        print(f"perfbench: no repro package under {workloads.SRC}", file=sys.stderr)
        return 2
    names = args.workload or list(workloads.WORKLOADS)
    single = len(names) == 1
    trace = bool(args.trace) if args.trace is not None else not single
    committed = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    expected = {}
    if committed.get("seed") == args.seed and not args.update_digests:
        expected = committed.get("digests", {})

    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    trace_dir = pathlib.Path(args.out) if args.out else WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    deadline = started + DEADLINE_S if args.seconds is not None else None
    bench = Bench(args.seed, work, trace_dir, deadline)
    try:
        # --trace 1 keeps the untraced repeats: trace.overhead compares to them
        run_rounds(bench, names, args.repeats, args.seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    verdicts = check(bench, names, expected)
    for error in bench.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    print_tables(bench, names, verdicts)
    correct = all(v["correct"] for v in verdicts.values())
    if args.update_digests and correct:
        digests = committed.get("digests", {}) if committed.get("seed") == args.seed else {}
        digests.update({name: verdicts[name]["digest"] for name in names})
        DIGESTS.write_text(json.dumps({"seed": args.seed, "digests": digests}, indent=2) + "\n")
    if single:
        print(json.dumps(result_line(bench, names[0], verdicts[names[0]], trace)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
