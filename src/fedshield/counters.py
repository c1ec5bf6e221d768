"""Signed monotonic counter service with write-ahead durability.

A mutation is acknowledged only after its write-ahead record is flushed and
fsynced, so every value the service acknowledges is durable: a read returns
the last acknowledged value, across any interleaving and across
crash-and-restart.

The write-ahead log is append-only. Each record is
``counter_id 16B | value u64 BE | crc32 u32 BE`` (28 bytes); replay stops
at the first corrupt or truncated record. Token wire format:
``counter_id 16B | value u64 BE | 0x01 | signature 64B``; the byte 0x01
says the value is durable, which every value the service signs is, and a
token with any other byte there does not decode.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from .enclave import SIGNATURE_LEN, public_key_bytes, verify_signature
from .errors import DecodeError, NotFoundError

COUNTER_ID_LEN = 16
_RECORD_LEN = COUNTER_ID_LEN + 8 + 4
TOKEN_LEN = COUNTER_ID_LEN + 8 + 1 + SIGNATURE_LEN


@dataclass(frozen=True)
class CounterToken:
    """Signed statement that a counter holds a durable value."""

    counter_id: bytes
    value: int
    signature: bytes

    def signed_payload(self) -> bytes:
        return self.counter_id + struct.pack(">Q", self.value) + b"\x01"

    def to_bytes(self) -> bytes:
        return self.signed_payload() + self.signature

    @classmethod
    def from_bytes(cls, data: bytes) -> "CounterToken":
        if len(data) != TOKEN_LEN:
            raise DecodeError(f"counter token must be {TOKEN_LEN} bytes")
        counter_id = data[:COUNTER_ID_LEN]
        (value,) = struct.unpack(">Q", data[COUNTER_ID_LEN:COUNTER_ID_LEN + 8])
        if data[COUNTER_ID_LEN + 8] != 1:
            raise DecodeError("counter token's durability byte is not 1")
        return cls(counter_id, value, data[COUNTER_ID_LEN + 9:])


def verify_token(token: CounterToken, service_public_key: bytes) -> bool:
    """Consumer-side check that a token was issued by the counter service."""
    return verify_signature(service_public_key, token.signature, token.signed_payload())


def _record(counter_id: bytes, value: int) -> bytes:
    body = counter_id + struct.pack(">Q", value)
    return body + struct.pack(">I", zlib.crc32(body))


class CounterService:
    """Single-instance trusted counter store.

    Mutations are serialized per service; reads may come from any thread.
    Each mutation appends, flushes and fsyncs its record before it
    returns.
    """

    def __init__(self, wal_path: str | Path, signing_key: Ed25519PrivateKey):
        self._path = Path(wal_path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._key = signing_key
        self._lock = threading.Lock()
        self._values: dict[bytes, int] = {}
        self._replay()
        self._fh = open(self._path, "ab")

    @property
    def public_key(self) -> bytes:
        return public_key_bytes(self._key)

    def _replay(self) -> None:
        data = self._path.read_bytes() if self._path.exists() else b""
        usable = 0
        for off in range(0, len(data) - _RECORD_LEN + 1, _RECORD_LEN):
            rec = data[off:off + _RECORD_LEN]
            body, (crc,) = rec[:-4], struct.unpack(">I", rec[-4:])
            if zlib.crc32(body) != crc:
                break  # torn tail from a crash; everything before it is good
            counter_id = body[:COUNTER_ID_LEN]
            (value,) = struct.unpack(">Q", body[COUNTER_ID_LEN:])
            self._values[counter_id] = max(self._values.get(counter_id, 0), value)
            usable = off + _RECORD_LEN
        if usable < len(data):
            with open(self._path, "r+b") as fh:
                fh.truncate(usable)

    def _append(self, counter_id: bytes, value: int) -> None:
        """Make ``value`` durable, then current. The caller holds the lock."""
        self._fh.write(_record(counter_id, value))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._values[counter_id] = value

    def _value(self, counter_id: bytes) -> int:
        if counter_id not in self._values:
            raise NotFoundError("unknown counter")
        return self._values[counter_id]

    def _token(self, counter_id: bytes, value: int) -> CounterToken:
        payload = CounterToken(counter_id, value, b"").signed_payload()
        return CounterToken(counter_id, value, self._key.sign(payload))

    def create_counter(self) -> bytes:
        """New counter at value 1, durable on return. Returns its id."""
        with self._lock:
            counter_id = os.urandom(COUNTER_ID_LEN)
            while counter_id in self._values:
                counter_id = os.urandom(COUNTER_ID_LEN)
            self._append(counter_id, 1)
            return counter_id

    def increment_async(self, counter_id: bytes) -> CounterToken:
        """Increment a counter and sign the new value.

        Despite the name, the increment is durable before the token is
        returned; no later read, after a restart either, returns less.
        """
        with self._lock:
            value = self._value(counter_id) + 1
            self._append(counter_id, value)
            return self._token(counter_id, value)

    def read_stable(self, counter_id: bytes) -> CounterToken:
        """Signed token for the counter's value, the last acknowledged one."""
        with self._lock:
            return self._token(counter_id, self._value(counter_id))

    def close(self) -> None:
        with self._lock:
            self._fh.close()
