"""Fault deltas that travel through global memory, settled on the tape.

The batched evaluator carries each injection's faulty values per lane and
its faulty buffer cells per store, so a value that is stored and read
again, overwritten, redirected or read back under a custom compare rule
settles without a replay.  The unit cases each drive one of those paths
with hand-picked fault sites and check three things: the records and the
non-span telemetry equal those of per-injection execution, the tape
settled the injections (so the comparison is not vacuous), and no canary
retracted a verdict (a retraction would hide a wrong tape verdict behind
the vanilla fallback).  The campaign cases repeat the comparison on the
paper's codes whose faults most often reach memory.
"""

import numpy as np
import pytest

from repro.api import ExecutionPolicy, get_workload, run_beam, run_campaign
from repro.arch.devices import KEPLER_K40C
from repro.arch.dtypes import DType
from repro.arch.ecc import EccMode
from repro.arch.isa import OpClass
from repro.exec.tasks import InjectionTask
from repro.faultsim.batch import MAX_DIRTY_ROWS, BatchEvaluator, FallbackReason
from repro.faultsim.campaign import CampaignRunner
from repro.faultsim.frameworks import NvBitFi, SiteGroup
from repro.faultsim.outcomes import Outcome
from repro.sim.injection import InjectionMode, opclass_stream
from repro.sim.launch import LaunchConfig
from repro.store.codec import encode_results
from repro.telemetry import capture
from repro.workloads.base import CompareResult, Workload, WorkloadSpec

LANES = 32


def _observable(snapshot):
    """Counters plus non-span histograms (span.* observes wall-clock)."""
    histograms = {
        name: data
        for name, data in snapshot["histograms"].items()
        if not name.startswith("span.")
    }
    return snapshot["counters"], histograms


class _Ops(NvBitFi):
    """NVBitFI restricted to one group of op classes, so every fault site
    sits where the test wants it."""

    name = "NVBitFI-ops"

    def __init__(self, *ops: OpClass) -> None:
        self.group = SiteGroup("ops", InjectionMode.OUTPUT_VALUE, opclass_stream(*ops))

    def site_groups(self, workload):
        return [self.group]


class _Kernel(Workload):
    """A one-block FP32 kernel over one input vector; subclasses write the body."""

    lanes = LANES

    def __init__(self, seed: int = 0) -> None:
        super().__init__(
            WorkloadSpec(name=type(self).__name__, base="memory", dtype=DType.FP32),
            seed=seed,
        )

    def _generate_inputs(self, rng) -> None:
        self.x = (rng.random(self.lanes) + 0.5).astype(np.float32)

    def sim_launch(self) -> LaunchConfig:
        return LaunchConfig(1, self.lanes)

    def kernel(self, ctx):
        self.prepare()
        return self.body(ctx, ctx.alloc("x", self.x, DType.FP32), ctx.global_id())


class StoreReload(_Kernel):
    """Lane i stores 3·x[i]; after a barrier lane i reads its neighbour's
    cell.  A faulty product reaches the output only through the reload."""

    def body(self, ctx, x, gid):
        tmp = ctx.alloc_zeros("tmp", (self.lanes,), DType.FP32)
        out = ctx.alloc_zeros("out", (self.lanes,), DType.FP32)
        ctx.st(tmp, gid, ctx.mul(ctx.ld(x, gid), 3.0))
        ctx.bar()
        neighbour = ctx.imod(ctx.add(gid, 1), self.lanes)
        ctx.st(out, gid, ctx.add(ctx.ld(tmp, neighbour), 1.0))
        return {"out": ctx.read_buffer(out)}


class GoldenOverwrite(_Kernel):
    """A faulty product lands in ``buf``, then a clean store overwrites
    it before the readback: every product fault is masked."""

    def body(self, ctx, x, gid):
        buf = ctx.alloc_zeros("buf", (self.lanes,), DType.FP32)
        v = ctx.ld(x, gid)
        ctx.st(buf, gid, ctx.mul(v, 3.0))
        ctx.bar()
        ctx.st(buf, gid, v)
        return {"buf": ctx.read_buffer(buf)}


class SharedWriters(_Kernel):
    """Lanes 4m..4m+3 all reload cell 4m, then lanes 2c-1 and 2c store to
    cell c: one faulty cell makes four lanes dirty, and of the cells they
    store to, one has a dirty last writer among two dirty writers, one a
    dirty last writer after a clean one, one a clean last writer."""

    def body(self, ctx, x, gid):
        tmp = ctx.alloc_zeros("tmp", (self.lanes,), DType.FP32)
        out = ctx.alloc_zeros("out", (self.lanes // 2 + 1,), DType.FP32)
        ctx.st(tmp, gid, ctx.mul(ctx.ld(x, gid), 3.0))
        ctx.bar()
        w = ctx.ld(tmp, ctx.bit_and(gid, ~3))
        lane = ctx.cvt(gid, DType.FP32)
        ctx.st(out, ctx.shr(ctx.add(gid, 1), 1), ctx.add(w, lane))
        return {"out": ctx.read_buffer(out)}


class DirtyIndexLoad(_Kernel):
    """Lane i reads ``tmp`` at a computed index after ``tmp`` was written:
    a faulty index reads the buffer's contents at that point of the run."""

    def body(self, ctx, x, gid):
        tmp = ctx.alloc_zeros("tmp", (self.lanes,), DType.FP32)
        out = ctx.alloc_zeros("out", (self.lanes,), DType.FP32)
        ctx.st(tmp, gid, ctx.mul(ctx.ld(x, gid), 3.0))
        ctx.bar()
        ctx.st(tmp, ctx.imod(ctx.add(gid, 7), self.lanes), ctx.ld(x, gid))
        ctx.bar()
        index = ctx.bit_and(ctx.add(gid, 5), self.lanes - 1)
        ctx.st(out, gid, ctx.ld(tmp, index))
        return {"out": ctx.read_buffer(out)}


class Tolerant(_Kernel):
    """out = 3·x under a compare rule that forgives small deviations."""

    def body(self, ctx, x, gid):
        out = ctx.alloc_zeros("out", (self.lanes,), DType.FP32)
        ctx.st(out, gid, ctx.mul(ctx.ld(x, gid), 3.0))
        return {"out": ctx.read_buffer(out)}

    def compare(self, golden, observed):
        close = np.allclose(golden["out"], observed["out"], rtol=1e-3)
        return CompareResult.MATCH if close else CompareResult.SDC


class Broadcast(_Kernel):
    """Every lane reads cell 0 and stores it on: a fault in lane 0's
    product makes more lanes dirty than the row cap allows."""

    lanes = 2 * MAX_DIRTY_ROWS

    def body(self, ctx, x, gid):
        tmp = ctx.alloc_zeros("tmp", (self.lanes,), DType.FP32)
        out = ctx.alloc_zeros("out", (self.lanes,), DType.FP32)
        ctx.st(tmp, gid, ctx.mul(ctx.ld(x, gid), 3.0))
        ctx.bar()
        ctx.st(out, gid, ctx.add(ctx.ld(tmp, 0), 1.0))
        return {"out": ctx.read_buffer(out)}


def _settle(workload_cls, ops, targets, batch_eval):
    """Run one chunk with a fault at each target instance of ``ops``."""
    framework = _Ops(*ops)
    runner = CampaignRunner(
        KEPLER_K40C, framework, EccMode.OFF, seed=5,
        policy=ExecutionPolicy(batch_eval=batch_eval),
    )
    workload = workload_cls(seed=2)
    tasks = [
        InjectionTask(index=i, group="ops", target_index=t, root_seed=5, rng_path=("t", i))
        for i, t in enumerate(targets)
    ]
    rngs = [np.random.default_rng(1000 + i) for i in range(len(tasks))]
    with capture() as registry:
        records = runner.inject_batch(workload, {"ops": framework.group}, tasks, rngs)
    stats = runner._targets[workload.name].batch_evaluator().stats
    return records, _observable(registry.snapshot()), stats


def _differential(workload_cls, ops, targets):
    """Per-injection and tape records of the same faults; the tape's stats."""
    records_off, telemetry_off, _ = _settle(workload_cls, ops, targets, False)
    records_on, telemetry_on, stats = _settle(workload_cls, ops, targets, True)
    assert encode_results(records_on) == encode_results(records_off)
    assert telemetry_on == telemetry_off
    fallback = stats["fallback"]
    assert fallback[FallbackReason.RETRACTED] == 0 and fallback[FallbackReason.DISABLED] == 0
    return records_off, stats


def _settled(stats):
    """Injections the tape settled (the canary ran vanilla, as a check)."""
    return stats["classified"] + stats["due"]


def test_store_then_reload_across_lanes():
    records, stats = _differential(StoreReload, (OpClass.FMUL,), range(LANES))
    assert _settled(stats) == LANES - 1
    assert Outcome.SDC in {r.outcome for r in records}


def test_golden_overwrite_retires_the_delta():
    records, stats = _differential(GoldenOverwrite, (OpClass.FMUL,), range(LANES))
    assert _settled(stats) == LANES - 1
    assert all(r.outcome is Outcome.MASKED for r in records)


def test_last_writer_among_several_dirty_lanes():
    records, stats = _differential(SharedWriters, (OpClass.FMUL,), range(LANES))
    assert _settled(stats) == LANES - 1
    # faults in the cells nobody reloads are masked; the others reach out
    assert {r.outcome for r in records} == {Outcome.MASKED, Outcome.SDC}


def test_dirty_index_load_from_a_written_buffer():
    # the IADD instances of ``add(gid, 5)``: the second add, lanes 0..31
    records, stats = _differential(DirtyIndexLoad, (OpClass.IADD,), range(32, 64))
    assert stats["fallback"][FallbackReason.UNKNOWN_CONTENT] == 0
    assert _settled(stats) == LANES - 1
    assert Outcome.SDC in {r.outcome for r in records}


def test_custom_compare_settles_sdc_and_masked_from_rebuilt_outputs():
    records, stats = _differential(Tolerant, (OpClass.FMUL,), range(LANES))
    assert _settled(stats) == LANES - 1
    assert {r.outcome for r in records} == {Outcome.MASKED, Outcome.SDC}


def test_injection_past_the_row_cap_goes_to_replay():
    records, stats = _differential(Broadcast, (OpClass.FMUL,), (5, 0, 9))
    # lane 0's fault spreads to every lane; lanes 5 and 9 stay narrow
    assert stats["fallback"][FallbackReason.ROW_CAP] == 1
    assert _settled(stats) == 1  # one narrow fault settles, one is the canary
    assert [r.outcome for r in records] == [Outcome.MASKED, Outcome.SDC, Outcome.MASKED]


def test_every_fallback_is_named():
    _, stats = _differential(Broadcast, (OpClass.FMUL,), (5, 0, 9))
    assert sum(stats["fallback"].values()) == stats["residual"]
    assert all(isinstance(reason, FallbackReason) for reason in stats["fallback"])


# -- campaigns --------------------------------------------------------------------


@pytest.fixture
def evaluators(monkeypatch):
    """Every BatchEvaluator created while the test runs."""
    created = []
    original = BatchEvaluator.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(BatchEvaluator, "__init__", init)
    return created


def _no_retraction(evaluators):
    for evaluator in evaluators:
        fallback = evaluator.stats["fallback"]
        assert fallback[FallbackReason.RETRACTED] == 0
        assert fallback[FallbackReason.DISABLED] == 0


@pytest.mark.parametrize(
    "arch,code",
    [
        ("kepler", "NW"), ("kepler", "BFS"), ("kepler", "CCL"),
        ("kepler", "FGAUSSIAN"), ("kepler", "FLUD"), ("volta", "FYOLOV3"),
    ],
)
@pytest.mark.parametrize("seed", [0, 7])
def test_campaign_batched_equals_per_injection(arch, code, seed, evaluators):
    def observe(batch_eval):
        with capture() as registry:
            result = run_campaign(
                get_workload(arch, code, seed=seed), device=arch, framework="nvbitfi",
                injections=40, seed=seed, ecc=EccMode.OFF,
                policy=ExecutionPolicy(batch_eval=batch_eval),
            )
        return encode_results(result.records), _observable(registry.snapshot())[0]

    assert observe(True) == observe(False)
    _no_retraction(evaluators)
    assert sum(e.stats["classified"] + e.stats["due"] for e in evaluators) > 0


@pytest.mark.parametrize("seed", [0, 7])
def test_yolo_beam_batched_equals_per_injection(seed, evaluators):
    def observe(batch_eval):
        with capture() as registry:
            result = run_beam(
                get_workload("volta", "FYOLOV3", seed=seed), device="volta", ecc="off",
                max_fault_evals=40, seed=seed, policy=ExecutionPolicy(batch_eval=batch_eval),
            )
        tallies = {
            name: (t.faults, t.sdc, t.due, t.due_causes) for name, t in result.tallies.items()
        }
        estimates = (result.fit_sdc, result.fit_due)
        return tallies, estimates, _observable(registry.snapshot())[0]

    assert observe(True) == observe(False)
    _no_retraction(evaluators)
