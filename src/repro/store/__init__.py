"""Durable campaign store: content-addressed caching + crash-tolerant resume.

The paper's statistics come from campaigns of thousands of injections and
beam exposures per code; the large real-world studies it builds on (the
~20k-GPU MemtestG80 survey, the ChipIR DUE-source logs) only got theirs by
durably accumulating results over long windows.  This package gives the
reproduction the same property:

* every task chunk the execution engine evaluates gets a deterministic
  :mod:`fingerprint <repro.store.fingerprint>` — a pure function of the
  workload, device, ECC mode, injector configuration, seed and the tasks
  themselves, salted with a code version;
* completed chunks (results + their telemetry snapshot) are committed
  atomically to a pluggable backend — SQLite in WAL mode (default) or an
  append-only JSONL log (:mod:`repro.store.backends`);
* on restart, an :class:`~repro.store.policy.ExecutionPolicy` with a
  store makes ``run_chunks`` replay completed chunks and execute only the
  missing ones — the merged records and domain telemetry are
  bit-identical to an uninterrupted run for any ``workers=`` setting
  (``tests/store/test_resume.py``);
* failing chunks are retried with exponential backoff and, when they keep
  failing, quarantined in the store without corrupting committed work.

See ``docs/STORAGE.md`` for the schema, the fingerprint definition, the
resume contract, and the backend trade-offs.
"""

from repro.store.backends import ChunkRecord, DONE, JsonlBackend, QUARANTINED, SQLiteBackend
from repro.store.codec import decode_results, encode_results
from repro.store.fingerprint import (
    STORE_SALT,
    canonical,
    canonical_json,
    chunk_fingerprint,
    chunk_fingerprints,
    context_kind,
    context_payload,
)
from repro.store.policy import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    ExecutionPolicy,
    ServicePolicy,
)
from repro.store.store import CampaignStore, open_store

__all__ = [
    "CampaignStore",
    "open_store",
    "ExecutionPolicy",
    "ServicePolicy",
    "DEFAULT_RETRIES",
    "DEFAULT_BACKOFF",
    "ChunkRecord",
    "SQLiteBackend",
    "JsonlBackend",
    "DONE",
    "QUARANTINED",
    "chunk_fingerprint",
    "chunk_fingerprints",
    "context_payload",
    "context_kind",
    "canonical",
    "canonical_json",
    "STORE_SALT",
    "encode_results",
    "decode_results",
]
