"""Outside-in span tracing of the program's layers.

:class:`Tracer` wraps public layer functions from the benchmark's side —
nothing under ``src/`` changes.  Each wrapped call records one span
(name, start, end, parent, call id); spans stay in memory and are written
as JSONL when the repeat ends.  A boundary that no longer exists is
reported absent with a warning instead of failing the run; untraced
repeats never import this module.

Module-level functions are rebound in every loaded ``repro`` module that
holds them (``run_kernel`` is imported by name all over repro), so a
caller that binds the function under its own name is still traced.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (layer name, module, attribute path) of every traced boundary; the
#: layer names follow the modules they live in
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("sim.run_kernel", "repro.sim.launch", "run_kernel"),
    ("replay.ensure_capture", "repro.sim.replay", "ReplaySession.ensure_capture"),
    ("replay.ensure_ticks", "repro.sim.replay", "ReplaySession.ensure_ticks"),
    ("replay.run", "repro.sim.replay", "ReplaySession.run"),
    ("replay.import_state", "repro.sim.replay", "ReplaySession.import_state"),
    ("batch.classify", "repro.faultsim.batch", "BatchEvaluator.classify"),
    ("sandbox.run", "repro.faultsim.sandbox", "InjectionSandbox.run"),
    ("campaign.plan_tasks", "repro.faultsim.campaign", "CampaignRunner.plan_tasks"),
    ("campaign.inject_batch", "repro.faultsim.campaign", "CampaignRunner.inject_batch"),
    ("campaign.run", "repro.faultsim.campaign", "CampaignRunner.run"),
    ("beam.exposure", "repro.beam.experiment", "BeamExperiment.exposure"),
    ("beam.run", "repro.beam.experiment", "BeamExperiment.run"),
    ("beam.evaluate_detailed", "repro.beam.engine", "BeamEngine.evaluate_detailed"),
    ("exec.run_chunks", "repro.exec.engine", "SerialExecutor.run_chunks"),
    ("exec.chunk", "repro.exec.worker", "run_injection_chunk"),
    ("exec.chunk", "repro.exec.worker", "run_beam_chunk"),
    ("store.get", "repro.store.store", "CampaignStore.get"),
    ("store.load_chunk", "repro.store.store", "CampaignStore.load_chunk"),
    ("store.put_chunk", "repro.store.store", "CampaignStore.put_chunk"),
)

#: the root span the harness opens around each facade call
CALL = "call"

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in BOUNDARIES))

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    metric
    for layer in LAYERS
    for metric in ((f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower"))
) + (
    ("replay.run.p50_ms", "ms", "lower"),
    ("replay.run.p90_ms", "ms", "lower"),
    ("replay.vanilla.calls", "count", "lower"),
    ("batch.coverage", "ratio", "higher"),
    ("beam.evaluate_detailed.p50_ms", "ms", "lower"),
    ("beam.evaluate_detailed.p99_ms", "ms", "lower"),
    ("exec.chunk.p50_ms", "ms", "lower"),
    ("exec.chunk.p90_ms", "ms", "lower"),
    ("store.bytes", "bytes", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    call: int
    name: str
    start: float
    end: float
    info: Any = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs.get(name)


def _classify_info(args: tuple, kwargs: dict, result: Any) -> Tuple[int, int]:
    """(tasks passed, records ``classify`` filled)."""
    tasks = _arg(args, kwargs, 2, "tasks")
    records = _arg(args, kwargs, 4, "records")
    return len(tasks), sum(record is not None for record in records)


def _get_info(args: tuple, kwargs: dict, result: Any) -> bool:
    return result is not None


#: per-layer extractors of the counts a span carries beyond its timing
_INFO: Dict[str, Callable[[tuple, dict, Any], Any]] = {
    "batch.classify": _classify_info,
    "store.get": _get_info,
}


class Tracer:
    """Records spans around the :data:`BOUNDARIES` while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._next_id = 1
        self._call = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def _open(self) -> Tuple[int, Optional[int], float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.monotonic()

    def _close(self, span_id, parent, start, name, info=None, attrs=None) -> None:
        end = time.monotonic()
        self._stack.pop()
        self.spans.append(Span(span_id, parent, self._call, name, start, end, info, attrs or {}))

    def call(self, fn: Callable[[], Any], **attrs: Any) -> Any:
        """Run one facade call under a fresh call id and root span."""
        self._call += 1
        span_id, parent, start = self._open()
        try:
            return fn()
        finally:
            self._close(span_id, parent, start, CALL, attrs=attrs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        info_of = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, start = tracer._open()
            info = None
            try:
                result = fn(*args, **kwargs)
                if info_of is not None:
                    info = info_of(args, kwargs, result)
                return result
            finally:
                tracer._close(span_id, parent, start, name, info)

        traced.__perfbench_original__ = fn
        return traced

    # -- patching --------------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, boundaries: Iterable[Tuple[str, str, str]] = BOUNDARIES) -> "Tracer":
        for name, module_name, path in boundaries:
            try:
                module = importlib.import_module(module_name)
                owner: Any = module
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                print(
                    f"perfbench: boundary {module_name}.{path} is absent; "
                    f"{name} is reported without it",
                    file=sys.stderr,
                )
                continue
            wrapped = self.wrap(name, original)
            self._set(owner, attr, wrapped)
            if owner is module:
                for other, other_attr in bindings_of(original):
                    self._set(other, other_attr, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------------
    def write_jsonl(self, path, origin: float) -> None:
        """One JSON object per span, times in seconds since ``origin``."""
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.id):
                row = {
                    "id": span.id, "parent": span.parent, "call": span.call,
                    "name": span.name, "start": span.start - origin,
                    "end": span.end - origin,
                }
                if span.info is not None:
                    row["info"] = span.info
                if span.attrs:
                    row["attrs"] = span.attrs
                out.write(json.dumps(row) + "\n")


def bindings_of(fn: Any) -> List[Tuple[Any, str]]:
    """(module, name) of every loaded ``repro`` module attribute holding ``fn``."""
    return [
        (module, attr)
        for module_name, module in list(sys.modules.items())
        if module is not None and module_name.split(".")[0] == "repro"
        for attr, value in list(vars(module).items())
        if value is fn
    ]


# -- per-layer metrics ------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def percentile_ms(durations: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``durations`` (s), in ms."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, -(-len(ordered) * q // 100))
    return 1000.0 * ordered[int(rank) - 1]


def layer_metrics(spans: Sequence[Span], wall_s: float, store_bytes: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``trace.overhead``, which
    needs an untraced repeat to compare against."""
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        group = by_name.get(layer, [])
        metrics[f"{layer}.calls"] = float(len(group))
        metrics[f"{layer}.self_s"] = sum((own[span.id] for span in group), 0.0)

    def durations(layer: str) -> List[float]:
        return [span.duration for span in by_name.get(layer, [])]

    names = {span.id: span.name for span in spans}
    classify = [span.info for span in by_name.get("batch.classify", []) if span.info]
    passed = sum(n for n, _ in classify)
    gets = [span.info for span in by_name.get("store.get", [])]
    attributed = sum(
        span.duration for span in spans if names.get(span.parent) == CALL
    )
    metrics.update({
        "replay.run.p50_ms": percentile_ms(durations("replay.run"), 50),
        "replay.run.p90_ms": percentile_ms(durations("replay.run"), 90),
        "replay.vanilla.calls": float(sum(
            1 for span in by_name.get("sim.run_kernel", [])
            if names.get(span.parent) == "replay.run"
        )),
        "batch.coverage": sum(f for _, f in classify) / passed if passed else 0.0,
        "beam.evaluate_detailed.p50_ms": percentile_ms(durations("beam.evaluate_detailed"), 50),
        "beam.evaluate_detailed.p99_ms": percentile_ms(durations("beam.evaluate_detailed"), 99),
        "exec.chunk.p50_ms": percentile_ms(durations("exec.chunk"), 50),
        "exec.chunk.p90_ms": percentile_ms(durations("exec.chunk"), 90),
        "store.bytes": float(store_bytes),
        "store.hit_ratio": sum(gets) / len(gets) if gets else 0.0,
        "trace.unattributed_s": wall_s - attributed,
    })
    return metrics
