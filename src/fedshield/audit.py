"""Hash-chained append-only audit log.

One canonical JSON entry per line. Each entry hash covers the previous
entry hash and the canonical encoding of the entry body (sequence number,
timestamp, kind, payload), so editing any byte of any line breaks the
chain exactly at that entry. Sequence numbers start at 0 and must be
gapless.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from .encoding import canonical_bytes, canonical_loads, sha256, unhex
from .errors import DecodeError, InvalidInputError

GENESIS = b"\x00" * 32


def _entry_hash(prev_hash: bytes, seq: int, timestamp: float, kind: str,
                payload: dict) -> bytes:
    body = canonical_bytes({"kind": kind, "payload": payload, "seq": seq,
                            "timestamp": timestamp})
    return sha256(prev_hash + body)


@dataclass(frozen=True)
class AuditEntry:
    seq: int
    timestamp: float
    kind: str
    payload: dict
    prev_hash: bytes
    entry_hash: bytes

    def to_line(self) -> bytes:
        return canonical_bytes({
            "entry_hash": self.entry_hash.hex(),
            "kind": self.kind,
            "payload": self.payload,
            "prev_hash": self.prev_hash.hex(),
            "seq": self.seq,
            "timestamp": self.timestamp,
        }) + b"\n"


@dataclass(frozen=True)
class AuditVerdict:
    ok: bool
    entries: int
    first_break: int | None = None
    reason: str = ""


class AuditLog:
    """Append-only writer. Reopening an existing log continues its chain; an
    unterminated last line was never acknowledged (a line and its LF are one
    write, then fsync), so opening cuts it off."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._seq = 0
        self._prev = GENESIS
        data = self.path.read_bytes() if self.path.exists() else b""
        whole = data.rfind(b"\n") + 1
        if whole < len(data):
            os.truncate(self.path, whole)
        entries = [_parse_line(line) for line in data[:whole].split(b"\n") if line]
        if entries:
            self._seq = entries[-1].seq + 1
            self._prev = entries[-1].entry_hash

    def append(self, kind: str, payload: dict) -> AuditEntry:
        timestamp = time.time()
        entry = AuditEntry(
            seq=self._seq,
            timestamp=timestamp,
            kind=kind,
            payload=payload,
            prev_hash=self._prev,
            entry_hash=_entry_hash(self._prev, self._seq, timestamp, kind, payload),
        )
        with open(self.path, "ab", buffering=0) as fh:  # one write per line
            fh.write(entry.to_line())
            os.fsync(fh.fileno())
        self._seq += 1
        self._prev = entry.entry_hash
        return entry


def _parse_line(line: bytes) -> AuditEntry:
    doc = canonical_loads(line)
    if not isinstance(doc, dict):
        raise DecodeError("audit entry is not an object")
    try:
        entry = AuditEntry(
            seq=int(doc["seq"]),
            timestamp=float(doc["timestamp"]),
            kind=str(doc["kind"]),
            payload=doc["payload"],
            prev_hash=unhex(doc["prev_hash"], 32),
            entry_hash=unhex(doc["entry_hash"], 32),
        )
        canonical = entry.to_line()
    except (KeyError, TypeError, ValueError, OverflowError, InvalidInputError) as exc:
        raise DecodeError(f"malformed audit entry: {exc}") from exc
    if canonical != line + b"\n":  # the hashes do not cover e.g. hex case
        raise DecodeError("audit entry is not in canonical form")
    return entry


def read_entries(path: str | Path) -> list[AuditEntry]:
    """Parse all entries without verifying the chain."""
    return [_parse_line(line) for line in Path(path).read_bytes().split(b"\n") if line]


def verify_audit(path: str | Path) -> AuditVerdict:
    """Walk the chain from genesis; report the first broken entry index."""
    lines = [line for line in Path(path).read_bytes().split(b"\n") if line]
    prev = GENESIS
    for index, line in enumerate(lines):
        try:
            entry = _parse_line(line)
        except DecodeError as exc:
            return AuditVerdict(False, len(lines), index, f"decode: {exc}")
        if entry.seq != index:
            return AuditVerdict(False, len(lines), index,
                                f"sequence gap: expected {index}, found {entry.seq}")
        if entry.prev_hash != prev:
            return AuditVerdict(False, len(lines), index, "previous-hash mismatch")
        expected = _entry_hash(entry.prev_hash, entry.seq, entry.timestamp,
                               entry.kind, entry.payload)
        if entry.entry_hash != expected:
            return AuditVerdict(False, len(lines), index, "entry-hash mismatch")
        prev = entry.entry_hash
    return AuditVerdict(True, len(lines))
