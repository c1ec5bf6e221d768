"""Signed monotonic counter service with write-ahead durability.

Increments are acknowledged asynchronously: the caller gets a signed
provisional token immediately, and the new value becomes *stable* once the
write-ahead record has been flushed by the stabilization step. Stable reads
never go backwards, across any interleaving and across crash-and-restart,
because a value is only served as stable after its record is durable.

The write-ahead log is append-only. Each record is
``counter_id 16B | value u64 BE | crc32 u32 BE`` (28 bytes); replay stops
at the first corrupt or truncated record. Token wire format:
``counter_id 16B | value u64 BE | stable u8 | signature 64B``.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from .enclave import public_key_bytes, verify_signature
from .errors import DecodeError, NotFoundError

COUNTER_ID_LEN = 16
_RECORD_LEN = COUNTER_ID_LEN + 8 + 4
TOKEN_LEN = COUNTER_ID_LEN + 8 + 1 + 64


@dataclass(frozen=True)
class CounterToken:
    """Signed statement that a counter holds (or will hold) a value."""

    counter_id: bytes
    value: int
    stable: bool
    signature: bytes

    def signed_payload(self) -> bytes:
        return self.counter_id + struct.pack(">Q", self.value) + bytes([int(self.stable)])

    def to_bytes(self) -> bytes:
        return self.signed_payload() + self.signature

    @classmethod
    def from_bytes(cls, data: bytes) -> "CounterToken":
        if len(data) != TOKEN_LEN:
            raise DecodeError(f"counter token must be {TOKEN_LEN} bytes")
        counter_id = data[:COUNTER_ID_LEN]
        (value,) = struct.unpack(">Q", data[COUNTER_ID_LEN:COUNTER_ID_LEN + 8])
        stable = data[COUNTER_ID_LEN + 8] == 1
        return cls(counter_id, value, stable, data[COUNTER_ID_LEN + 9:])


def verify_token(token: CounterToken, service_public_key: bytes) -> bool:
    """Consumer-side check that a token was issued by the counter service."""
    return verify_signature(service_public_key, token.signature, token.signed_payload())


def _record(counter_id: bytes, value: int) -> bytes:
    body = counter_id + struct.pack(">Q", value)
    return body + struct.pack(">I", zlib.crc32(body))


class CounterService:
    """Single-instance trusted counter store.

    Mutations are serialized per service; reads may come from any thread.
    ``auto_stabilize=True`` (the default) flushes every increment before the
    acknowledgment returns, which collapses the provisional window; tests of
    the asynchronous semantics turn it off and drive ``stabilize`` manually.
    ``use_fsync=False`` models a process kill rather than power loss: data
    flushed to the OS survives, buffered data does not.
    """

    def __init__(self, wal_path: str | Path, signing_key: Ed25519PrivateKey,
                 *, auto_stabilize: bool = True, use_fsync: bool = True):
        self._path = Path(wal_path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._key = signing_key
        self._auto = auto_stabilize
        self._fsync = use_fsync
        self._lock = threading.RLock()
        self._stable: dict[bytes, int] = {}
        self._latest: dict[bytes, int] = {}
        self._buffer: list[tuple[bytes, int]] = []
        self._replay()
        self._fh = open(self._path, "ab")

    @property
    def public_key(self) -> bytes:
        return public_key_bytes(self._key)

    def _replay(self) -> None:
        self._stable.clear()
        if not self._path.exists():
            self._path.touch()
            return
        data = self._path.read_bytes()
        usable = 0
        for off in range(0, len(data) - _RECORD_LEN + 1, _RECORD_LEN):
            rec = data[off:off + _RECORD_LEN]
            body, (crc,) = rec[:-4], struct.unpack(">I", rec[-4:])
            if zlib.crc32(body) != crc:
                break  # torn tail from a crash; everything before it is good
            counter_id = body[:COUNTER_ID_LEN]
            (value,) = struct.unpack(">Q", body[COUNTER_ID_LEN:])
            self._stable[counter_id] = max(self._stable.get(counter_id, 0), value)
            usable = off + _RECORD_LEN
        if usable < len(data):
            with open(self._path, "r+b") as fh:
                fh.truncate(usable)
        self._latest = dict(self._stable)

    def _token(self, counter_id: bytes, value: int, stable: bool) -> CounterToken:
        payload = CounterToken(counter_id, value, stable, b"").signed_payload()
        return CounterToken(counter_id, value, stable, self._key.sign(payload))

    def create_counter(self) -> bytes:
        """New counter with stable value 1. Returns its id."""
        with self._lock:
            counter_id = os.urandom(COUNTER_ID_LEN)
            while counter_id in self._latest:
                counter_id = os.urandom(COUNTER_ID_LEN)
            self._latest[counter_id] = 1
            self._buffer.append((counter_id, 1))
            self._flush()  # creation is synchronous
            return counter_id

    def increment_async(self, counter_id: bytes) -> CounterToken:
        """Acknowledge an increment with a provisional token.

        The returned value becomes stable once the pending record is
        flushed; after that point no stable read returns anything lower.
        """
        with self._lock:
            if counter_id not in self._latest:
                raise NotFoundError("unknown counter")
            value = self._latest[counter_id] + 1
            self._latest[counter_id] = value
            self._buffer.append((counter_id, value))
            if self._auto:
                self._flush()
            return self._token(counter_id, value, stable=False)

    def read_stable(self, counter_id: bytes) -> CounterToken:
        """Signed token for the latest durably persisted value."""
        with self._lock:
            if counter_id not in self._latest:
                raise NotFoundError("unknown counter")
            if counter_id not in self._stable:
                # created but not yet flushed; creation flushes, so this
                # only happens if the buffer write itself failed
                raise NotFoundError("counter has no stable value yet")
            return self._token(counter_id, self._stable[counter_id], stable=True)

    def stable_value(self, counter_id: bytes) -> int:
        with self._lock:
            if counter_id not in self._stable:
                raise NotFoundError("unknown counter")
            return self._stable[counter_id]

    def _flush(self) -> None:
        if not self._buffer:
            return
        pending, self._buffer = self._buffer, []
        self._fh.write(b"".join(_record(cid, value) for cid, value in pending))
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())
        for counter_id, value in pending:
            self._stable[counter_id] = max(self._stable.get(counter_id, 0), value)

    def stabilize(self) -> None:
        """Make all acknowledged increments durable and therefore stable."""
        with self._lock:
            self._flush()

    def simulate_crash(self) -> None:
        """Drop unstabilized state and reload from the write-ahead log."""
        with self._lock:
            self._buffer.clear()
            self._fh.close()
            self._replay()
            self._fh = open(self._path, "ab")

    def close(self) -> None:
        with self._lock:
            self._flush()
            self._fh.close()
