"""Batched evaluation of divergent kernels ≡ per-injection execution.

The golden-tape index replays ``push_mask``/``pop_mask`` into a per-call
active-lane mask.  The small kernels below each stress one place that
mask matters — nested masks, a dirty operand reaching a load or a store
at an inactive lane, the "last writer wins" rule when one of two lanes
sharing a cell is inactive, a dirty predicate reaching ``push_mask``, a
misdirected store under a mask.  In each, records and non-span telemetry
with ``batch_eval`` on equal those with it off, and the tape settles
some injections, so the comparison is not vacuous.  The last test checks
the index's mask against the recording context's live mask at every call
of every catalog code.
"""

import numpy as np
import pytest

from repro.arch.devices import KEPLER_K40C, VOLTA_V100
from repro.arch.dtypes import DType
from repro.arch.ecc import EccMode, SecdedModel
from repro.arch.isa import OpClass
from repro.faultsim.batch import _TapeIndex
from repro.faultsim.campaign import CampaignRunner
from repro.faultsim.frameworks import NvBitFi, SiteGroup
from repro.sim.injection import InjectionMode, opclass_stream
from repro.sim.launch import LaunchConfig
from repro.sim.replay import RecordingContext
from repro.store.policy import ExecutionPolicy
from repro.telemetry import capture
from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.registry import get_workload, kepler_codes, volta_codes

LANES = 32


class _PredicateNvBitFi(NvBitFi):
    """NVBitFI plus a predicate-output group, so SETP results are struck
    too and dirty predicates reach ``push_mask``."""

    name = "NVBitFI+pred"

    def site_groups(self, workload):
        return super().site_groups(workload) + [
            SiteGroup("pred", InjectionMode.OUTPUT_VALUE, opclass_stream(OpClass.SETP))
        ]


class _Masked(Workload):
    """A 32-lane FP32 kernel over one input vector; subclasses write the body."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(
            WorkloadSpec(name=type(self).__name__, base="divergence", dtype=DType.FP32),
            seed=seed,
        )

    def _generate_inputs(self, rng) -> None:
        self.x = rng.random(LANES).astype(np.float32)

    def sim_launch(self) -> LaunchConfig:
        return LaunchConfig(1, LANES)

    def kernel(self, ctx):
        self.prepare()
        return self.body(ctx, ctx.alloc("x", self.x, DType.FP32), ctx.global_id())


class NestedMasks(_Masked):
    """Two nested masks, a store under each, then a store after both pop."""

    def body(self, ctx, x, gid):
        outer = ctx.alloc_zeros("outer", (LANES,), DType.FP32)
        inner = ctx.alloc_zeros("inner", (LANES,), DType.FP32)
        after = ctx.alloc_zeros("after", (LANES,), DType.FP32)
        v = ctx.ld(x, gid)
        with ctx.masked(ctx.setp(v, "gt", 0.3)):
            w = ctx.fma(v, v, v)
            with ctx.masked(ctx.setp(w, "lt", 1.0)):
                ctx.st(inner, gid, ctx.mul(w, 2.0))
            ctx.st(outer, gid, ctx.add(w, 1.0))
        ctx.st(after, gid, ctx.sub(v, 0.5))
        return {
            "outer": ctx.read_buffer(outer),
            "inner": ctx.read_buffer(inner),
            "after": ctx.read_buffer(after),
        }


class InactiveLoadStore(_Masked):
    """An index and a value computed before the mask, consumed by a load
    and a store inside it: at lanes 16-31 both are inactive."""

    def body(self, ctx, x, gid):
        loaded = ctx.alloc_zeros("loaded", (LANES,), DType.FP32)
        stored = ctx.alloc_zeros("stored", (LANES,), DType.FP32)
        shifted = ctx.imod(ctx.add(gid, 3), LANES)
        scaled = ctx.mul(ctx.ld(x, gid), 3.0)
        with ctx.masked(ctx.setp(gid, "lt", 16)):
            ctx.st(loaded, gid, ctx.ld(x, shifted))
            ctx.st(stored, gid, scaled)
        return {"loaded": ctx.read_buffer(loaded), "stored": ctx.read_buffer(stored)}


class SharedCell(_Masked):
    """Lanes 2k and 2k+1 store to cell k; every lane 4m+3 is inactive, so
    lane 4m+2 is the last *active* writer of its cell."""

    def body(self, ctx, x, gid):
        out = ctx.alloc_zeros("out", (LANES // 2,), DType.FP32)
        w = ctx.mul(ctx.ld(x, gid), 3.0)
        with ctx.masked(ctx.setp(ctx.bit_and(gid, 3), "ne", 3)):
            ctx.st(out, ctx.shr(gid, 1), w)
        return {"out": ctx.read_buffer(out)}


class DirtyPredicate(_Masked):
    """Predicates that feed the mask stack, a select and a lane count."""

    def body(self, ctx, x, gid):
        out = ctx.alloc_zeros("out", (LANES,), DType.FP32)
        v = ctx.ld(x, gid)
        big = ctx.setp(v, "gt", 0.5)
        picked = ctx.where(big, v, ctx.neg(v))
        with ctx.masked(ctx.pred_not(big)):
            ctx.st(out, gid, ctx.add(picked, 1.0))
        return {"big": np.array([ctx.count(big)]), "out": ctx.read_buffer(out)}


class MisdirectedStore(_Masked):
    """A store whose index comes from an integer add, under a mask that
    leaves lanes 24-31 inactive, into a zeroed buffer it alone writes."""

    def body(self, ctx, x, gid):
        out = ctx.alloc_zeros("out", (LANES,), DType.FP32)
        v = ctx.ld(x, gid)
        cell = ctx.add(gid, 0)
        with ctx.masked(ctx.setp(gid, "lt", 24)):
            ctx.st(out, cell, ctx.mul(v, 2.0))
        return {"out": ctx.read_buffer(out)}


def _observable(snapshot):
    histograms = {
        name: data
        for name, data in snapshot["histograms"].items()
        if not name.startswith("span.")
    }
    return snapshot["counters"], histograms


def _campaign(workload, batch_eval, injections=48):
    runner = CampaignRunner(
        KEPLER_K40C, _PredicateNvBitFi(), EccMode.OFF, seed=5,
        policy=ExecutionPolicy(batch_eval=batch_eval),
    )
    with capture() as registry:
        result = runner.run(workload, injections)
    records = [
        (r.outcome, r.group, r.op, r.bit, r.detail, r.due_cause, r.contained)
        for r in result.records
    ]
    return runner, records, _observable(registry.snapshot())


@pytest.mark.parametrize(
    "kernel",
    [NestedMasks, InactiveLoadStore, SharedCell, DirtyPredicate, MisdirectedStore],
)
def test_masked_kernel_batched_equals_per_injection(kernel):
    _, records_off, telemetry_off = _campaign(kernel(seed=2), batch_eval=False)
    runner, records_on, telemetry_on = _campaign(kernel(seed=2), batch_eval=True)
    assert records_on == records_off
    assert telemetry_on == telemetry_off
    stats = runner._targets[kernel.__name__].batch_evaluator().stats
    assert stats["classified"] + stats["due"] > 0


class _MaskProbe(RecordingContext):
    """Records the live mask at the entry of every taped call."""

    def __init__(self, *args, **kwargs) -> None:
        self.probed = []
        super().__init__(*args, **kwargs)

    def _rc_maybe_snapshot(self) -> None:
        self.probed.append((len(self._rc_calls), self._mask_stack[-1].copy()))
        super()._rc_maybe_snapshot()


def _probe_tape(device, workload):
    launch = workload.sim_launch()
    ctx = _MaskProbe(
        device,
        launch.grid_blocks,
        launch.threads_per_block,
        SecdedModel(mode=EccMode.ON),
        backend="cuda10",
        warp_lanes=launch.warp_lanes,
    )
    with np.errstate(all="ignore"):
        workload.kernel(ctx)
    return ctx.finish(), ctx.probed


@pytest.mark.parametrize(
    "arch,code",
    [("kepler", code) for code in kepler_codes()]
    + [("volta", code) for code in volta_codes()],
)
def test_index_mask_matches_live_mask_at_every_call(arch, code):
    device = KEPLER_K40C if arch == "kepler" else VOLTA_V100
    tape, probed = _probe_tape(device, get_workload(arch, code, seed=0))
    index = _TapeIndex(tape)
    assert index.ok
    assert [ci for ci, _ in probed] == list(range(len(tape.calls)))
    for ci, live in probed:
        mask = index.mask_at(ci)
        expected = np.ones_like(live) if mask is None else mask
        assert np.array_equal(expected, live), (code, ci)
        active = index.active_at(ci)
        assert np.array_equal(
            np.arange(len(live)) if active is None else active, np.flatnonzero(live)
        ), (code, ci)
