"""Message types and canonical-payload helpers for the attested protocols.

Every message travelling inside a secure channel is ``u8 type | u32 BE head
length | canonical JSON object | trailer``; only types 31, 32 and 34 may
carry a trailer, the raw ``fl.serialize_params`` bytes of a parameter
vector, which ``decode_message`` returns as a read-only view of the message.
An UPDATE_SUBMIT head is ``{"client_id", "num_examples", "round"}``; it
declares no hash, since the coordinator hashes the trailer it receives, and a
field it does not read is ignored. A message in the older ``u8 type | JSON``
layout reads a head length of at least 0x7B000000, past any frame, so it
fails to decode. Request types 10-12 belong to the policy manager, 20-22 to
the counter service, 30-32 and 34 to the round protocol; 100/101 are the
generic response types. Type 33 is unassigned: a round peer that receives it
ends in DecodeError. The coordinator caps the frame of a JOIN or an
UPDATE_SUBMIT at ``round_frame_max``, so a larger one is refused from its
header, before its body is read.
"""

from __future__ import annotations

import struct

from .attestation import CHANNEL_OVERHEAD
from .encoding import canonical_bytes, canonical_loads
from .errors import DecodeError, ServiceError
from .transport import MAX_FRAME

UPLOAD_POLICY = 10
GENERATE = 11
REQUEST_SECRETS = 12

COUNTER_CREATE = 20
COUNTER_INC = 21
COUNTER_READ = 22

JOIN = 30
MODEL_BROADCAST = 31
UPDATE_SUBMIT = 32
SESSION_END = 34

RESPONSE_OK = 100
RESPONSE_ERR = 101

PARAMS_TYPES = frozenset({MODEL_BROADCAST, UPDATE_SUBMIT, SESSION_END})

REQUEST_TIMEOUT = 30.0  # seconds a request waits for its response

_PREFIX = struct.Struct(">BI")  # type, head length
# The largest JSON head of a JOIN or an UPDATE_SUBMIT, client id included:
# a client whose id does not fit is refused at its JOIN.
ROUND_HEAD_MAX = 4096


def round_frame_max(trailer: int = 0) -> int:
    """The largest channel frame of a round message with a head of at most
    ``ROUND_HEAD_MAX`` bytes and a trailer of ``trailer`` bytes."""
    return CHANNEL_OVERHEAD + _PREFIX.size + ROUND_HEAD_MAX + trailer


def encode_message(mtype: int, body: dict, params: bytes = b"") -> bytes:
    if not 0 <= mtype <= 255:
        raise DecodeError(f"message type {mtype} out of range")
    head = canonical_bytes(body)
    return _PREFIX.pack(mtype, len(head)) + head + params


def decode_message(data: bytes) -> tuple[int, dict, memoryview | bytes]:
    """``(type, head, trailer)`` of one message; DecodeError if malformed.

    The trailer is a read-only view of ``data``, not a copy, or ``b""`` when
    the message has none; it holds ``data`` alive while it is referenced."""
    if len(data) < _PREFIX.size:
        raise DecodeError("message shorter than its prefix")
    mtype, head_len = _PREFIX.unpack_from(data)
    end = _PREFIX.size + head_len
    if end > len(data):
        raise DecodeError("message head runs past the frame")
    body = canonical_loads(data[_PREFIX.size:end])
    if not isinstance(body, dict):
        raise DecodeError("message head must be a JSON object")
    if end == len(data):
        return mtype, body, b""
    if mtype not in PARAMS_TYPES:
        raise DecodeError(f"message type {mtype} carries no parameter trailer")
    return mtype, body, memoryview(data).toreadonly()[end:]


def send_message(channel, mtype: int, body: dict, params: bytes = b"") -> None:
    channel.send(encode_message(mtype, body, params))


def recv_message(channel, timeout: float | None = None, max_size: int = MAX_FRAME
                 ) -> tuple[int, dict, memoryview | bytes]:
    """The next message; a frame announcing more than ``max_size`` bytes is
    refused from its header with DecodeError."""
    return decode_message(channel.recv(timeout=timeout, max_size=max_size))


def send_ok(channel, body: dict | None = None) -> None:
    send_message(channel, RESPONSE_OK, body or {})


def send_err(channel, kind: str, detail: str = "", check: str | None = None) -> None:
    body = {"error": kind, "detail": detail}
    if check is not None:
        body["check"] = check
    send_message(channel, RESPONSE_ERR, body)


def request(channel, mtype: int, body: dict) -> dict:
    """Send a request and return the OK body; ERR raises ServiceError."""
    send_message(channel, mtype, body)
    rtype, rbody, _ = recv_message(channel, timeout=REQUEST_TIMEOUT)
    if rtype == RESPONSE_OK:
        return rbody
    if rtype == RESPONSE_ERR:
        raise ServiceError(rbody.get("error", "unknown"), rbody.get("detail", ""),
                           rbody.get("check"))
    raise DecodeError(f"unexpected response type {rtype}")
