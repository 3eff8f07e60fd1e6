"""Pluggable persistence backends for the campaign store.

Two backends, one contract — atomically durable chunk records keyed by
fingerprint, last write wins:

* :class:`SQLiteBackend` (default): a single file in WAL mode.  Each
  ``put`` is one transaction, so a crash can never leave a torn record;
  WAL keeps concurrent readers (e.g. a dashboard tailing the store) from
  blocking the writer.
* :class:`JsonlBackend`: an append-only JSONL log, one full record per
  line, fsync'd per commit.  Crash tolerance comes from the read side: a
  torn final line (the only kind of corruption an append-only writer can
  produce) is detected and skipped on load.  Greppable, diffable, and
  trivially mergeable across machines with ``cat``.

Both backends additionally expose :meth:`refresh`, the primitive the
campaign service's coordination records (leases, heartbeats, tombstones —
see :mod:`repro.service`) are built on: it makes records committed by
*other* processes since the last read visible.  SQLite reads are live
(WAL readers always see committed transactions), so its refresh is a
no-op; the JSONL backend tails the log from its last consumed offset,
applying only complete lines — a torn tail (a peer caught mid-append) is
left unconsumed and retried on the next refresh.

Records never store live objects — payloads are the codec's JSON
encodings — so either backend can be read by a process that has not
imported the simulation stack.
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from repro.common.errors import StoreError

PathLike = Union[str, os.PathLike]

#: record status values
DONE = "done"
QUARANTINED = "quarantined"


@dataclass
class ChunkRecord:
    """One durable unit of campaign work: a chunk's results + telemetry."""

    fingerprint: str
    kind: str                               # "campaign" | "beam" | "mem_avf" | custom
    status: str = DONE                      # DONE | QUARANTINED
    payload: Optional[List[dict]] = None    # codec-encoded per-task results
    telemetry: Optional[dict] = None        # the chunk's metrics Snapshot
    meta: Dict[str, object] = field(default_factory=dict)
    attempts: int = 1
    error: str = ""
    created: float = 0.0                    # wall-clock commit time

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(data: dict) -> "ChunkRecord":
        return ChunkRecord(
            fingerprint=data["fingerprint"],
            kind=data.get("kind", ""),
            status=data.get("status", DONE),
            payload=data.get("payload"),
            telemetry=data.get("telemetry"),
            meta=data.get("meta") or {},
            attempts=int(data.get("attempts", 1)),
            error=data.get("error", ""),
            created=float(data.get("created", 0.0)),
        )


def _require_parent(path: pathlib.Path) -> None:
    parent = path.resolve().parent
    if not parent.is_dir():
        raise StoreError(
            f"store directory does not exist: {parent} (create it first, or "
            f"point --store at an existing directory)"
        )


class SQLiteBackend:
    """Single-file SQLite store, WAL journal, one transaction per commit."""

    name = "sqlite"

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS chunks (
        fingerprint TEXT PRIMARY KEY,
        kind        TEXT NOT NULL,
        status      TEXT NOT NULL,
        attempts    INTEGER NOT NULL,
        error       TEXT NOT NULL,
        payload     TEXT,
        telemetry   TEXT,
        meta        TEXT NOT NULL,
        created     REAL NOT NULL
    )
    """

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)
        _require_parent(self.path)
        try:
            # check_same_thread=False: the service's in-process worker loop
            # may drain from a helper thread; access is sequential per handle
            self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        except sqlite3.Error as exc:  # pragma: no cover - OS-dependent
            raise StoreError(f"cannot open sqlite store at {self.path}: {exc}") from exc
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        # multi-worker campaigns (repro.service) have several processes
        # committing to one store; WAL serializes the writers, and the busy
        # timeout makes a briefly-locked commit wait instead of raising
        self._conn.execute("PRAGMA busy_timeout=10000")
        with self._conn:
            self._conn.execute(self._SCHEMA)

    _SELECT = (
        "SELECT fingerprint, kind, status, attempts, error, payload, telemetry, "
        "meta, created FROM chunks"
    )

    @staticmethod
    def _record(row) -> ChunkRecord:
        return ChunkRecord(
            fingerprint=row[0],
            kind=row[1],
            status=row[2],
            attempts=row[3],
            error=row[4],
            payload=json.loads(row[5]) if row[5] is not None else None,
            telemetry=json.loads(row[6]) if row[6] is not None else None,
            meta=json.loads(row[7]),
            created=row[8],
        )

    def get(self, fingerprint: str) -> Optional[ChunkRecord]:
        row = self._conn.execute(
            self._SELECT + " WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return None if row is None else self._record(row)

    def put(self, record: ChunkRecord) -> None:
        with self._conn:  # one transaction: commit is atomic
            self._conn.execute(
                "INSERT OR REPLACE INTO chunks "
                "(fingerprint, kind, status, attempts, error, payload, telemetry, meta, created) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.fingerprint,
                    record.kind,
                    record.status,
                    record.attempts,
                    record.error,
                    json.dumps(record.payload) if record.payload is not None else None,
                    json.dumps(record.telemetry) if record.telemetry is not None else None,
                    json.dumps(record.meta),
                    record.created or time.time(),
                ),
            )

    def count(self, status: Optional[str] = None) -> int:
        if status is None:
            return self._conn.execute("SELECT COUNT(*) FROM chunks").fetchone()[0]
        return self._conn.execute(
            "SELECT COUNT(*) FROM chunks WHERE status = ?", (status,)
        ).fetchone()[0]

    def fingerprints(self) -> Iterator[str]:
        for (fp,) in self._conn.execute("SELECT fingerprint FROM chunks"):
            yield fp

    def records(self) -> Iterator[ChunkRecord]:
        """All records, ordered by fingerprint (deterministic across
        backends — SQLite's natural row order is insertion-dependent)."""
        for row in self._conn.execute(self._SELECT + " ORDER BY fingerprint"):
            yield self._record(row)

    def refresh(self) -> int:
        """Make peer commits visible.  WAL readers already see every
        committed transaction, so this is a no-op; returns 0 for symmetry
        with :meth:`JsonlBackend.refresh`."""
        return 0

    def close(self) -> None:
        self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SQLiteBackend({str(self.path)!r})"


class JsonlBackend:
    """Append-only JSONL log; last record per fingerprint wins on load.

    Appends go through one ``os.write`` of the whole encoded line against
    an ``O_APPEND`` descriptor, so concurrent writers (the service's
    multi-worker campaigns) interleave at record granularity, never inside
    a record.  :meth:`refresh` tails the log from the last consumed byte
    offset, applying only complete lines — the read-side half of the
    multi-process coordination contract.
    """

    name = "jsonl"

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)
        _require_parent(self.path)
        self._index: Dict[str, ChunkRecord] = {}
        self._offset = 0
        self._fd: Optional[int] = None
        self.refresh()

    def _ensure_fd(self) -> int:
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
            )
            # heal a torn tail before the first append: a crashed writer
            # (SIGKILLed worker, power loss) can leave a half line, and
            # appending straight after it would merge our record into the
            # garbage — terminating the tear instead turns it into one
            # complete unparseable line refresh() already knows to skip.
            # Live peers never tear (appends are single O_APPEND writes),
            # so a non-newline tail always means a dead writer.
            size = os.fstat(self._fd).st_size
            if size:
                with open(self.path, "rb") as fh:
                    fh.seek(size - 1)
                    if fh.read(1) != b"\n":
                        os.write(self._fd, b"\n")
        return self._fd

    def refresh(self) -> int:
        """Consume records appended (by this or any other process) since
        the last read; returns how many were applied.  Only complete lines
        are consumed: a torn tail — a peer caught mid-append, or the stub
        left by a crash — stays unconsumed and is retried next time."""
        if not self.path.exists():
            return 0
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            data = fh.read()
        end = data.rfind(b"\n")
        if end < 0:
            return 0
        applied = 0
        for raw in data[: end + 1].splitlines():
            line = raw.strip()
            if not line:
                continue
            try:
                record = ChunkRecord.from_json(json.loads(line.decode("utf-8")))
            except (ValueError, KeyError, UnicodeDecodeError):
                # a torn line from a crashed writer, buried by later healthy
                # appends: skip it — the record it described never committed
                continue
            self._index[record.fingerprint] = record
            applied += 1
        self._offset += end + 1
        return applied

    def get(self, fingerprint: str) -> Optional[ChunkRecord]:
        return self._index.get(fingerprint)

    def put(self, record: ChunkRecord) -> None:
        if not record.created:
            record.created = time.time()
        encoded = (json.dumps(record.to_json(), sort_keys=True) + "\n").encode("utf-8")
        fd = self._ensure_fd()
        os.write(fd, encoded)
        os.fsync(fd)
        self._index[record.fingerprint] = record

    def count(self, status: Optional[str] = None) -> int:
        if status is None:
            return len(self._index)
        return sum(1 for r in self._index.values() if r.status == status)

    def fingerprints(self) -> Iterator[str]:
        return iter(list(self._index))

    def records(self) -> Iterator[ChunkRecord]:
        """All records, ordered by fingerprint (matches SQLiteBackend, so
        the two backends present identical read-side views of one run)."""
        for fingerprint in sorted(self._index):
            yield self._index[fingerprint]

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JsonlBackend({str(self.path)!r})"
