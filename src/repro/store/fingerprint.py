"""Deterministic, durable fingerprints for task chunks.

A fingerprint identifies one unit of resumable work — a chunk of tasks
evaluated against a chunk context — across process restarts and machines.
It is the SHA-256 of a *canonical JSON* document derived from:

* a code-version salt (:data:`STORE_SALT`, bumped whenever evaluation
  semantics change, so stale caches can never leak across releases),
* the durable description of the chunk context: workload fingerprint
  (class path, code name, input seed), device, ECC mode, injector
  framework + compiler backend (campaigns), the full cross-section
  catalog (beam runs), and the root seed,
* the task descriptors themselves (site group, target index, RNG name
  path, ...), which makes the fingerprint automatically sensitive to the
  seed, campaign size, and chunk partition.

Because every task carries its private RNG substream name, a chunk's
evaluation outcome is a pure function of exactly the inputs hashed here —
the property that makes replaying a stored chunk bit-identical to
re-executing it (``tests/store/test_resume.py``).

Canonicalisation handles the value shapes that appear in contexts and
tasks: dataclasses, mappings with enum keys, enums, tuples, numpy
scalars/arrays.  Anything else (closures, open handles) raises
:class:`~repro.common.errors.StoreError` — better an explicit "this run is
not durable" than a cache key that silently collides.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import StoreError

#: bump when a change to the simulator / evaluators makes previously
#: stored chunk results stale (they will simply miss and recompute)
#: — /2: InjectionRecord gained `contained`, contexts gained `on_crash`,
#:   and the sandbox changed how crashing runs classify (PR 5)
#: — /3: checkpoint/replay engine landed; replay-session state joins the
#:   store ("replay_session" records) and must not mix with older caches
#:   (PR 6)
#: — /4: replay tape payload v3 (emission ordinals/weights + call arg
#:   specs for the batched evaluator); exported sessions must not mix
#:   with v2 caches (PR 8)
#: — /5: the campaign service landed; coordination records (lease /
#:   heartbeat / tombstone / campaign registry kinds) join the store and
#:   chunk meta gains lease provenance — stores from older code must not
#:   serve service-mode runs (PR 9)
STORE_SALT = "repro-store/5"


#: field names per dataclass type, filled on first sight (``dataclasses.fields``
#: re-filters the class's field table on every call)
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-safe structure with a unique encoding."""
    # exact-type dispatch for the shapes task descriptors are made of; any
    # subclass (IntEnum, numpy float64, ...) takes the isinstance chain below
    cls = type(value)
    if cls is str or cls is int or cls is float or cls is bool or value is None:
        return value
    if cls is tuple or cls is list:
        return [canonical(v) for v in value]
    names = _FIELD_NAMES.get(cls)
    if names is not None:
        return {
            "__dataclass__": cls.__name__,
            "fields": {name: canonical(getattr(value, name)) for name in names},
        }
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "name": value.name}
    if isinstance(value, np.generic):
        return canonical(value.item())
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return {
            "__ndarray__": str(arr.dtype),
            "shape": list(arr.shape),
            "sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
        }
    if isinstance(value, Mapping):
        pairs = [[canonical(k), canonical(v)] for k, v in value.items()]
        pairs.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True, default=str))
        return {"__map__": pairs}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # only types that fall through every branch above reach here, so the
        # memoised fast path at the top cannot shadow an earlier branch
        _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(value))
        return canonical(value)
    raise StoreError(
        f"cannot canonicalise {type(value).__name__} for a durable fingerprint; "
        f"give the context a store_payload() method or use plain data"
    )


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    return _dumps(canonical(value))


def context_payload(context: Any) -> dict:
    """The durable description of a chunk context.

    The engine contexts (:mod:`repro.exec.tasks`) name, in their
    ``store_payload()``, exactly the inputs that determine an evaluation:
    live objects that don't affect results (executors, open pools) never
    enter the hash.  Other contexts either provide ``store_payload()`` too
    or are canonicalised whole.
    """
    if hasattr(context, "store_payload"):
        payload = dict(context.store_payload())
        payload.setdefault("kind", type(context).__name__)
        return payload
    if dataclasses.is_dataclass(context) and not isinstance(context, type):
        return {"kind": type(context).__name__, "context": canonical(context)}
    raise StoreError(
        f"context {type(context).__name__} has no durable fingerprint; "
        f"add a store_payload() method returning plain data"
    )


def context_kind(context: Any, payload: Optional[dict] = None) -> str:
    """Short record-kind label ("campaign", "beam", ...) for store metadata.

    ``payload`` is the context's :func:`context_payload` when the caller
    already has it."""
    if payload is None:
        payload = context_payload(context)
    return str(payload.get("kind", type(context).__name__))


def chunk_fingerprints(
    context: Any,
    chunks: Sequence[Sequence[Any]],
    salt: str = STORE_SALT,
    payload: Optional[dict] = None,
) -> List[str]:
    """SHA-256 fingerprints of several chunks evaluated against one context.

    Each hashes the canonical JSON document
    ``{"context": …, "salt": …, "tasks": […]}``.  Under ``sort_keys`` those
    are the document's keys in order, so the context and salt are encoded
    (and hashed) once and every chunk's task list is spliced after them —
    byte for byte the ``json.dumps`` of the whole document.  ``payload``
    is the context's :func:`context_payload` when the caller already has
    it; ``salt`` defaults to the current code-version salt, and passing an
    older value reproduces that version's keys (used by tests to prove
    stale chunks can never replay)."""
    if payload is None:
        payload = context_payload(context)
    head = '{"context":' + _dumps(payload) + ',"salt":' + _dumps(salt) + ',"tasks":'
    prefix = hashlib.sha256(head.encode("utf-8"))
    fingerprints = []
    for tasks in chunks:
        digest = prefix.copy()
        digest.update(_dumps([canonical(task) for task in tasks]).encode("utf-8"))
        digest.update(b"}")
        fingerprints.append(digest.hexdigest())
    return fingerprints


def chunk_fingerprint(context: Any, tasks: Sequence[Any], salt: str = STORE_SALT) -> str:
    """SHA-256 fingerprint of one (context, task chunk) evaluation
    (:func:`chunk_fingerprints` of a single chunk)."""
    return chunk_fingerprints(context, [tasks], salt)[0]
