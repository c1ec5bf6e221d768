"""Deterministic canonical encoding used for hashing and wire payloads.

Canonical form is UTF-8 JSON with lexicographically sorted keys and no
insignificant whitespace. Any two documents that parse to the same value
canonicalize to identical bytes, which is what makes content hashes
(policy hashes, audit entry hashes, payload hashes) meaningful.
"""

from __future__ import annotations

import base64
import hashlib
import json

from .errors import DecodeError, InvalidInputError


def canonical_bytes(value) -> bytes:
    """Encode a JSON-compatible value into canonical bytes."""
    try:  # UnicodeEncodeError (a lone surrogate) is a ValueError too
        return json.dumps(value, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False, allow_nan=False).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"value is not canonically encodable: {exc}") from exc


def canonical_loads(data: bytes | str):
    """Parse canonical (or any) JSON text."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"payload is not UTF-8: {exc}") from exc
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:  # also too deep, too many digits
        raise DecodeError(f"payload is not valid JSON: {exc}") from exc


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def unb64(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise DecodeError(f"invalid base64 payload: {exc}") from exc


def unhex(text: str, length: int | None = None) -> bytes:
    try:
        raw = bytes.fromhex(text)
    except (ValueError, TypeError) as exc:
        raise DecodeError(f"invalid hex string: {exc}") from exc
    if length is not None and len(raw) != length:
        raise DecodeError(f"expected {length} bytes of hex, got {len(raw)}")
    return raw
