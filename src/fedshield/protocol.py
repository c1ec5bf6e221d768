"""Message types and canonical-payload helpers for the attested protocols.

Every message travelling inside a secure channel is ``u8 type | canonical
JSON body``. Request types 10-12 belong to the policy manager, 20-22 to the
counter service, 30-34 to the round protocol; 100/101 are the generic
response types.
"""

from __future__ import annotations

from .encoding import canonical_bytes, canonical_loads
from .errors import DecodeError, ServiceError

UPLOAD_POLICY = 10
GENERATE = 11
REQUEST_SECRETS = 12

COUNTER_CREATE = 20
COUNTER_INC = 21
COUNTER_READ = 22

JOIN = 30
MODEL_BROADCAST = 31
UPDATE_SUBMIT = 32
ROUND_COMMIT = 33
SESSION_END = 34

RESPONSE_OK = 100
RESPONSE_ERR = 101

REQUEST_TIMEOUT = 30.0  # seconds a request waits for its response


def encode_message(mtype: int, body: dict) -> bytes:
    if not 0 <= mtype <= 255:
        raise DecodeError(f"message type {mtype} out of range")
    return bytes([mtype]) + canonical_bytes(body)


def decode_message(data: bytes) -> tuple[int, dict]:
    if len(data) < 1:
        raise DecodeError("empty message")
    body = canonical_loads(data[1:]) if len(data) > 1 else {}
    if not isinstance(body, dict):
        raise DecodeError("message body must be an object")
    return data[0], body


def send_message(channel, mtype: int, body: dict) -> None:
    channel.send(encode_message(mtype, body))


def recv_message(channel, timeout: float | None = None) -> tuple[int, dict]:
    return decode_message(channel.recv(timeout=timeout))


def send_ok(channel, body: dict | None = None) -> None:
    send_message(channel, RESPONSE_OK, body or {})


def send_err(channel, kind: str, detail: str = "", **extra) -> None:
    body = {"error": kind, "detail": detail}
    body.update(extra)
    send_message(channel, RESPONSE_ERR, body)


def request(channel, mtype: int, body: dict) -> dict:
    """Send a request and return the OK body; ERR raises ServiceError."""
    send_message(channel, mtype, body)
    rtype, rbody = recv_message(channel, timeout=REQUEST_TIMEOUT)
    if rtype == RESPONSE_OK:
        return rbody
    if rtype == RESPONSE_ERR:
        error = ServiceError(rbody.get("error", "unknown"), rbody.get("detail", ""))
        error.body = rbody  # e.g. the failing attestation check on denials
        raise error
    raise DecodeError(f"unexpected response type {rtype}")
