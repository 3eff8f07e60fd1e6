"""Execution policy: how a run uses the store, handles failure and executes.

One small frozen object, :class:`ExecutionPolicy`, threads the whole
durability and execution-strategy story from the facade through
``run_chunks``; its docstring lists the fields.

Retrying is always safe: a chunk's randomness comes exclusively from its
tasks' named RNG substreams, so a retry evaluates exactly the same work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.store.store import CampaignStore

#: default per-chunk retry budget when a policy is in force
DEFAULT_RETRIES = 2
#: default base backoff (seconds); attempt ``k`` sleeps ``backoff * 2**(k-1)``
DEFAULT_BACKOFF = 0.05

#: what the injection sandbox does with an unexpected (non-device) exception
#: inside an injected run — see docs/ROBUSTNESS.md:
#:
#: * ``"due"``        — contain and classify the run as a DUE with
#:   ``due_cause="contained:<ExcType>"`` (the default: campaigns are
#:   crash-proof, like the paper's beam supervisor),
#: * ``"quarantine"`` — contain but treat the chunk as poisoned: it goes
#:   straight to the store's quarantine without burning retries,
#: * ``"raise"``      — let the exception propagate (debugging).
ON_CRASH_POLICIES = ("due", "quarantine", "raise")


@dataclass(frozen=True)
class ServicePolicy:
    """Coordination knobs for lease-based multi-worker campaigns.

    Carried as :attr:`ExecutionPolicy.service` and consumed by
    :mod:`repro.service` / :class:`~repro.exec.engine.LeaseExecutor`:

    * ``lease_ttl`` — seconds a claimed chunk's lease stays valid without
      being committed or renewed; an expired lease is reclaimable by any
      live worker (at-least-once execution — duplicate commits are
      byte-verified no-ops, see docs/SERVICE.md),
    * ``heartbeat_interval`` — seconds between a worker's liveness
      heartbeats; a worker that misses ``miss_factor`` intervals is
      presumed dead/stalled and its chunks go back to the pool,
    * ``max_lease_epochs`` — hard cap on how many times one chunk may be
      claimed before it is quarantined as poison,
    * ``victim_threshold`` — a chunk whose lease expired under this many
      *distinct dead* workers escalates straight to quarantine (it is
      killing workers, not merely unlucky),
    * ``poll_interval`` — how long an idle worker sleeps between scans for
      reclaimable work.
    """

    lease_ttl: float = 30.0
    heartbeat_interval: float = 5.0
    max_lease_epochs: int = 5
    victim_threshold: int = 2
    poll_interval: float = 0.05
    #: heartbeat staleness multiplier: a worker is presumed dead after
    #: ``miss_factor * heartbeat_interval`` seconds of silence
    miss_factor: int = 3

    def __post_init__(self) -> None:
        if self.lease_ttl <= 0:
            raise ConfigurationError("lease_ttl must be > 0")
        if self.heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be > 0")
        if self.max_lease_epochs < 1:
            raise ConfigurationError("max_lease_epochs must be >= 1")
        if self.victim_threshold < 1:
            raise ConfigurationError("victim_threshold must be >= 1")
        if self.poll_interval <= 0:
            raise ConfigurationError("poll_interval must be > 0")
        if self.miss_factor < 1:
            raise ConfigurationError("miss_factor must be >= 1")

    @property
    def dead_after(self) -> float:
        """Seconds of heartbeat silence after which a worker is presumed
        dead (and its expired leases count it as a chunk victim)."""
        return self.miss_factor * self.heartbeat_interval


@dataclass(frozen=True)
class ExecutionPolicy:
    """Every run-shaping knob of one engine run, in one object.

    The facade entry points (``run_campaign``/``run_beam``/``predict``),
    the engines (``CampaignRunner``/``BeamExperiment``/``UncoreInjector``),
    the experiment session and both command lines take exactly one
    ``policy=ExecutionPolicy(...)``; ``policy=None`` stands for
    :data:`STORELESS` (no store, no retries, every other field at its
    default), and the executors default to it too.

    * ``store`` — the :class:`~repro.store.store.CampaignStore` completed
      chunks are replayed from and committed to (None: no caching),
    * ``refresh`` — ignore existing entries and recompute everything,
      overwriting the store (the CLI's ``--no-cache``; needs a store),
    * ``retries`` / ``backoff`` — per-chunk retry with exponential backoff;
      a chunk that still fails is quarantined (with a store) or re-raised,
    * ``on_crash`` — the injection sandbox's crash policy
      (:data:`ON_CRASH_POLICIES`),
    * ``replay`` — checkpoint/replay: forked injections with a per-run
      fallback to the vanilla path whenever no usable snapshot precedes a
      fault site; False forces the vanilla path everywhere,
    * ``snapshots_per_run`` — evenly-spaced snapshots per golden capture,
    * ``batch_eval`` — the vectorized batched fault evaluator
      (:mod:`repro.faultsim.batch`) for campaign injections and beam
      functional-unit strikes, with a per-injection fallback for
      injections outside the analyzable population; False forces
      per-injection evaluation,
    * ``service`` — lease/heartbeat knobs of the fault-tolerant campaign
      service (:mod:`repro.service`, docs/SERVICE.md), inert unless a
      service-mode executor is in force.
    """

    store: Optional[CampaignStore] = None
    refresh: bool = False
    retries: int = DEFAULT_RETRIES
    backoff: float = DEFAULT_BACKOFF
    on_crash: str = "due"
    replay: bool = True
    snapshots_per_run: int = 16
    batch_eval: bool = True
    service: ServicePolicy = ServicePolicy()

    def __post_init__(self) -> None:
        if self.refresh and self.store is None:
            raise ConfigurationError(
                "refresh requires a store: it recomputes the store's entries"
            )
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.backoff < 0:
            raise ConfigurationError("backoff must be >= 0")
        if self.on_crash not in ON_CRASH_POLICIES:
            raise ConfigurationError(
                f"on_crash must be one of {ON_CRASH_POLICIES}, got {self.on_crash!r}"
            )
        if self.snapshots_per_run < 1:
            raise ConfigurationError("snapshots_per_run must be >= 1")

    @property
    def read_allowed(self) -> bool:
        """May completed chunks be replayed from the store?"""
        return self.store is not None and not self.refresh

    @property
    def write_allowed(self) -> bool:
        return self.store is not None

    def without_store(self) -> "ExecutionPolicy":
        """This policy as a chunk context carries it to the evaluators: the
        store handle stays with the driving process (a connection neither
        pickles nor survives a fork)."""
        return replace(self, store=None, refresh=False)


#: the policy ``policy=None`` stands for: no store, one attempt per chunk (a
#: failing chunk re-raises its own exception), every other field at its default
STORELESS = ExecutionPolicy(retries=0)
