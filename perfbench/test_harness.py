"""Tests of the benchmark harness itself (not of repro).

    PYTHONPATH=src python3 -m pytest perfbench/test_harness.py -q

They run a tiny call list, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Call  # noqa: E402

pytestmark = pytest.mark.bench
workloads.use_source_tree()

#: one call per mechanism: batch on the tape (FMXM), replay with snapshot
#: mining (NW), and per-strike beam evaluation
TINY = [
    Call("kepler", "FMXM", "nvbitfi", injections=200),
    Call("kepler", "NW", "nvbitfi", injections=24),
    Call("kepler", "FMXM", ecc="off", max_fault_evals=8),
]


def _run_tiny(store: str, around=None) -> list:
    from repro.api import ExecutionPolicy, open_store

    with open_store(store) as opened:
        policy = ExecutionPolicy(store=opened)
        inputs = workloads.build_inputs(TINY, seed=0)
        results = workloads.run_calls(TINY, inputs, 0, policy, lambda _r: None, around)
    return [workloads.result_digest(c, r) for c, r in zip(TINY, results)]


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(1, None, 1, tracing.CALL, 0.0, 10.0),
        Span(2, 1, 1, "campaign.run", 1.0, 9.0),
        Span(3, 2, 1, "exec.chunk", 2.0, 4.0),
        Span(4, 2, 1, "exec.chunk", 3.0, 6.0),  # overlaps its sibling
        Span(5, 3, 1, "sim.run_kernel", 2.5, 3.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 2.0, 2: 4.0, 3: 1.5, 4: 3.0, 5: 0.5})
    metrics = layer_metrics(spans, wall_s=12.0, store_bytes=0)
    assert metrics["exec.chunk.calls"] == 2
    assert metrics["exec.chunk.self_s"] == pytest.approx(4.5)
    assert metrics["trace.unattributed_s"] == pytest.approx(4.0)


def test_every_boundary_sees_a_call(tmp_path):
    store = str(tmp_path / "tiny.sqlite")
    tracer = Tracer().install()
    try:
        originals = [
            fn.__perfbench_original__
            for name, module, path in tracing.BOUNDARIES
            if "." not in path
            for fn in [getattr(sys.modules[module], path)]
        ]
        # a binding the tracer missed would still call the original
        assert not any(tracing.bindings_of(fn) for fn in originals)
        _run_tiny(store, around=tracer.call)  # cold: evaluates and commits
        _run_tiny(store, around=tracer.call)  # warm: served from the store
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    metrics = layer_metrics(tracer.spans, wall_s=1.0, store_bytes=0)
    unseen = [layer for layer in tracing.LAYERS if metrics[f"{layer}.calls"] < 1]
    assert unseen == []
    assert 0 < metrics["batch.coverage"] <= 1
    assert metrics["store.hit_ratio"] == pytest.approx(0.5)


def test_fresh_processes_agree_on_digests(tmp_path):
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import test_harness as t; "
        "print(json.dumps(t._run_tiny(sys.argv[2])))"
    )
    digests = []
    for n in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(HERE), str(tmp_path / f"s{n}.sqlite")],
            stdout=subprocess.PIPE, text=True, check=True, timeout=120,
        )
        digests.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert digests[0] == digests[1]
    assert _run_tiny(str(tmp_path / "in-process.sqlite")) == digests[0]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == set(run.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == list(tracing.PER_LAYER)
    for name, _, _ in run.END_TO_END + tracing.PER_LAYER:
        assert pattern.fullmatch(name), name
    produced = set(layer_metrics([], wall_s=1.0, store_bytes=0)) | {"trace.overhead"}
    assert produced == {name for name, _, _ in tracing.PER_LAYER}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
