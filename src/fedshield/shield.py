"""Authenticated-encryption file container with counter-bound freshness.

Header layout (big-endian, 59 bytes):

    magic "SFL1" 4B | version u16 | aead_alg u8 | key_id 16B |
    counter_id 16B | counter_value u64 | nonce 12B

The body is AES-256-GCM ciphertext+tag over the payload with the exact
header bytes as associated data, so any header mutation fails
authentication before freshness is even considered. Decryption succeeds
only when the embedded counter value equals the stable counter value:
strict equality detects both rollback and forward-dating, since every
authorized overwrite increments the counter by one.

A file binds a plain (counter id, value); counter tokens are verified where
they arrive (``services.ManagerChannel``), and this module never sees one.

File extension: ``.sfl``. This module is the only one that writes or opens
a ``.sfl``: ``write_shielded`` replaces it all or nothing (``replace_file``:
a temporary ``.{name}.*`` file beside it, renamed over it), and
``open_shielded`` reads and decrypts it. Neither fsyncs, and neither copies a
whole file: the header and the body are written one after the other, and the
body is taken by one exact-size unbuffered ``read``, so opening an N-byte file
holds about N bytes of body and N of plaintext. ``ShieldedFile.to_bytes`` and
``from_bytes`` give the same layout in memory. This module never stores keys.
``key_id`` is authenticated and checked by no reader: a role's file carries
``secret_key_id(policy hash, secret name)``.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .counters import COUNTER_ID_LEN
from .enclave import AEAD_AES_256_GCM, AEAD_KEY_LEN, AEAD_NONCE_LEN
from .errors import (
    DecodeError,
    IntegrityError,
    InvalidInputError,
    RollbackDetectedError,
)

MAGIC = b"SFL1"
VERSION = 1
KEY_ID_LEN = 16
HEADER_LEN = 4 + 2 + 1 + KEY_ID_LEN + COUNTER_ID_LEN + 8 + AEAD_NONCE_LEN


@dataclass(frozen=True)
class ShieldHeader:
    key_id: bytes
    counter_id: bytes
    counter_value: int
    nonce: bytes

    def to_bytes(self) -> bytes:
        return (MAGIC + struct.pack(">HB", VERSION, AEAD_AES_256_GCM)
                + self.key_id + self.counter_id
                + struct.pack(">Q", self.counter_value) + self.nonce)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShieldHeader":
        if len(data) < HEADER_LEN:
            raise DecodeError("shielded file shorter than header")
        if data[:4] != MAGIC:
            raise DecodeError("bad shielded-file magic")
        version, aead_alg = struct.unpack(">HB", data[4:7])
        if version != VERSION:
            raise DecodeError(f"unsupported shielded-file version {version}")
        if aead_alg != AEAD_AES_256_GCM:
            raise DecodeError(f"unsupported shielded-file algorithm {aead_alg}")
        off = 7
        key_id = data[off:off + KEY_ID_LEN]; off += KEY_ID_LEN
        counter_id = data[off:off + COUNTER_ID_LEN]; off += COUNTER_ID_LEN
        (counter_value,) = struct.unpack(">Q", data[off:off + 8]); off += 8
        nonce = data[off:off + AEAD_NONCE_LEN]
        return cls(key_id, counter_id, counter_value, nonce)


@dataclass(frozen=True)
class ShieldedFile:
    header: ShieldHeader
    body: bytes  # ciphertext + tag

    def to_bytes(self) -> bytes:
        return self.header.to_bytes() + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShieldedFile":
        header = ShieldHeader.from_bytes(data)
        return cls(header, data[HEADER_LEN:])


def shield_encrypt(plaintext: bytes, key: bytes, key_id: bytes,
                   counter_id: bytes, counter_value: int,
                   *, nonce: bytes | None = None) -> ShieldedFile:
    """Seal a payload under a key and bind it to a counter's positive
    value, which readers require to be the counter's stable value."""
    if len(key) != AEAD_KEY_LEN:
        raise InvalidInputError(f"shield key must be {AEAD_KEY_LEN} bytes")
    if len(key_id) != KEY_ID_LEN:
        raise InvalidInputError("key_id must be 16 bytes")
    if len(counter_id) != COUNTER_ID_LEN:
        raise InvalidInputError("counter_id must be 16 bytes")
    if counter_value < 1:
        raise InvalidInputError("counter value must be positive")
    if nonce is None:
        nonce = os.urandom(AEAD_NONCE_LEN)
    elif len(nonce) != AEAD_NONCE_LEN:
        raise InvalidInputError("nonce must be 12 bytes")
    header = ShieldHeader(key_id, counter_id, counter_value, nonce)
    header_bytes = header.to_bytes()
    body = AESGCM(key).encrypt(nonce, plaintext, header_bytes)
    return ShieldedFile(header, body)


def shield_decrypt(shielded: ShieldedFile, key: bytes,
                   freshness_check: Callable[[bytes], int]) -> bytes:
    """Open a shielded file iff the tag verifies and the file is current.

    ``freshness_check(counter_id) -> stable value`` is the caller's counter
    lookup, typically a stable read verified where it arrived. Stale or
    forward-dated files raise ``RollbackDetectedError`` after the tag check;
    its message says which of the two the file is.
    """
    if len(key) != AEAD_KEY_LEN:
        raise InvalidInputError(f"shield key must be {AEAD_KEY_LEN} bytes")
    header_bytes = shielded.header.to_bytes()
    try:
        plaintext = AESGCM(key).decrypt(shielded.header.nonce, shielded.body, header_bytes)
    except InvalidTag as exc:
        raise IntegrityError("shielded file failed authentication") from exc
    written = shielded.header.counter_value
    stable = freshness_check(shielded.header.counter_id)
    if written < stable:
        raise RollbackDetectedError(
            f"file written at counter {written} is older than the stable "
            f"value {stable}: a replay")
    if written > stable:
        raise RollbackDetectedError(
            f"file written at counter {written} is newer than the stable "
            f"value {stable}: the counter never made that value stable")
    return plaintext


def replace_file(path, *chunks: bytes) -> None:
    """Replace ``path`` with the ``chunks`` one after the other, all or
    nothing: the bytes go to a temporary file beside it, which is renamed
    over it. On any failure the temporary file is removed and ``path`` keeps
    its old bytes, or stays absent."""
    path = Path(path)
    fd, staged = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(staged, path)
    except BaseException:
        os.unlink(staged)
        raise


def write_shielded(path, shielded: ShieldedFile) -> None:
    """Replace ``path`` with ``shielded`` through ``replace_file``."""
    replace_file(path, shielded.header.to_bytes(), shielded.body)


def read_shielded(path) -> ShieldedFile:
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        header = ShieldHeader.from_bytes(fh.read(HEADER_LEN))
        return ShieldedFile(header, fh.read(size - HEADER_LEN))


def open_shielded(path, key: bytes, freshness_check: Callable[[bytes], int]
                  ) -> tuple[ShieldHeader, bytes]:
    """The header and plaintext of the file at ``path``, under the checks of
    ``shield_decrypt``."""
    shielded = read_shielded(path)
    return shielded.header, shield_decrypt(shielded, key, freshness_check)

