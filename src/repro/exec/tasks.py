"""Picklable task descriptions for the parallel execution engine.

A *context* describes everything a worker needs to evaluate a whole chunk
of tasks for one campaign / beam run / strike sweep / uncore campaign —
the device, the workload, the ECC mode, the root seed, and the run's
:class:`~repro.store.policy.ExecutionPolicy` without its store.  It is
pickled once per chunk, and its ``store_payload()`` is the durable
description the store fingerprints (:mod:`repro.store.fingerprint`).  A
*task* is one fault evaluation within that context; it is tiny (a site
reference plus an RNG name path) so dispatch overhead stays small.

Determinism contract: a task's randomness comes exclusively from
``RngFactory(root_seed).stream(*task.rng_path)``.  The name path encodes
the task's identity (campaign names + task ordinal), so the substream —
and therefore the evaluation outcome — is a pure function of the root seed
and the task, independent of which worker runs it, in which chunk, in
which order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.store.fingerprint import canonical, canonical_json
from repro.store.policy import STORELESS, ExecutionPolicy
from repro.telemetry.metrics import Snapshot

if TYPE_CHECKING:  # domain types only; runtime imports would be circular
    from repro.arch.devices import DeviceSpec
    from repro.arch.uncore import UncoreFitTable
    from repro.beam.cross_sections import CrossSectionCatalog
    from repro.faultsim.frameworks import InjectorFramework
    from repro.workloads.base import Workload

#: RNG substream name path, fed to ``RngFactory.stream(*path)``
RngPath = Tuple[object, ...]


@dataclass
class ChunkResult:
    """Per-task results plus the chunk's captured telemetry snapshot.

    The worker-side chunk evaluators wrap their results in this so the
    parent can merge each chunk's metrics into its own registry — the
    wire format of the deterministic cross-process aggregation (see
    :mod:`repro.telemetry`).  Executors transparently unwrap it; chunk
    functions returning a plain list (tests, custom fns) still work.
    """

    results: List
    telemetry: Optional[Snapshot] = None


@dataclass(frozen=True)
class WorkloadHandle:
    """A workload plus a stable identity for worker-side caches.

    Each chunk pickles the workload independently, so two chunks of the
    same campaign deserialize to two distinct instances in a worker; the
    fingerprint lets the worker recognise them as the same workload and
    reuse its cached golden run.
    """

    workload: Workload
    fingerprint: Tuple[str, str, int]

    @classmethod
    def wrap(cls, workload: Workload) -> "WorkloadHandle":
        cls_path = f"{type(workload).__module__}.{type(workload).__qualname__}"
        return cls(workload, (cls_path, workload.spec.name, workload.seed))


class _ChunkContext:
    """What the engine contexts share: a device, a workload and the run's
    policy without its store.  Every policy knob the worker-cached state is
    built with keys the cache (a runner cached replay-off must not serve a
    replay-on chunk); only ``on_crash`` enters the store payload, because
    the others give bit-identical results."""

    def _key(self, kind: str, *fields) -> tuple:
        policy = self.policy
        return (
            kind, self.device.name, *fields, self.workload.fingerprint,
            policy.on_crash, policy.replay, policy.snapshots_per_run, policy.batch_eval,
        )

    def _payload(self, kind: str, **fields) -> dict:
        return {
            "kind": kind,
            "device": self.device.name,
            "arch": self.device.architecture,
            "workload": list(self.workload.fingerprint),
            "on_crash": self.policy.on_crash,
            **fields,
        }


@dataclass(frozen=True)
class CampaignContext(_ChunkContext):
    """Chunk context for injection-campaign tasks."""

    device: DeviceSpec
    framework: InjectorFramework
    ecc: str                       # EccMode.value
    root_seed: int
    workload: WorkloadHandle
    policy: ExecutionPolicy = STORELESS

    def cache_key(self) -> tuple:
        return self._key("campaign", self.framework.name, self.ecc)

    def store_payload(self) -> dict:
        return self._payload(
            "campaign", framework=self.framework.name, backend=self.framework.backend,
            ecc=self.ecc, root_seed=self.root_seed,
        )


@dataclass(frozen=True)
class InjectionTask:
    """One architecture-level injection within a campaign.

    The site group is referenced by *name* (SiteGroup stream predicates are
    closures and do not pickle); the worker rebuilds the framework's groups
    and resolves the name locally.  Uncore tasks name the struck unit
    (``uncore:<unit>``) and leave ``target_index`` at 0.
    """

    index: int                     # ordinal within the campaign
    group: str                     # SiteGroup name
    target_index: int              # dynamic instance within the group
    root_seed: int
    rng_path: RngPath


@dataclass(frozen=True)
class BeamEvalContext(_ChunkContext):
    """Chunk context for beam fault evaluations."""

    device: DeviceSpec
    ecc: str                       # EccMode.value
    backend: str
    catalog: CrossSectionCatalog
    catalog_tag: str               # distinguishes non-default catalogs
    workload: WorkloadHandle
    policy: ExecutionPolicy = STORELESS

    def cache_key(self) -> tuple:
        return self._key("beam", self.ecc, self.backend, self.catalog_tag)

    def store_payload(self) -> dict:
        return self._payload(
            "beam", ecc=self.ecc, backend=self.backend, catalog=canonical(self.catalog)
        )


@dataclass(frozen=True)
class BeamEvalTask:
    """One sampled particle strike, evaluated by the BeamEngine."""

    index: int
    resource: str                  # flat resource key ("op:FFMA", "mem:...")
    root_seed: int
    rng_path: RngPath


@dataclass(frozen=True)
class MemoryAvfContext(_ChunkContext):
    """Chunk context for Eq. 3 memory-AVF storage strikes (ECC OFF)."""

    device: DeviceSpec
    backend: str
    workload: WorkloadHandle
    policy: ExecutionPolicy = STORELESS

    def cache_key(self) -> tuple:
        return self._key("mem_avf", self.backend)

    def store_payload(self) -> dict:
        return self._payload("mem_avf", backend=self.backend)


@dataclass(frozen=True)
class StrikeTask:
    """One storage strike of the memory-AVF sweep."""

    index: int
    space: str                     # "rf" | "global" | "shared"
    tick: float
    root_seed: int
    rng_path: RngPath


@dataclass(frozen=True)
class UncoreContext(_ChunkContext):
    """Chunk context for uncore-injector tasks (:class:`InjectionTask` s
    whose group names the unit, ``uncore:<unit>``)."""

    device: DeviceSpec
    ecc: str                       # EccMode.value
    table: UncoreFitTable
    workload: WorkloadHandle
    policy: ExecutionPolicy = STORELESS

    def cache_key(self) -> tuple:
        return self._key("uncore", self.ecc, canonical_json(self.table))

    def store_payload(self) -> dict:
        return self._payload("uncore", ecc=self.ecc, table=canonical(self.table))


def catalog_tag(catalog: "CrossSectionCatalog", device: "DeviceSpec") -> str:
    """Stable-within-a-run tag identifying a catalog for worker caches."""
    from repro.beam.cross_sections import catalog_for

    try:
        default = catalog_for(device)
    except Exception:
        default = None
    if catalog is default:
        return "default"
    return f"custom-{id(catalog):x}"
