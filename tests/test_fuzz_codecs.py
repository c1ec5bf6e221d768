"""Property tests: the message, parameter and audit decoders on arbitrary bytes.

Whatever bytes arrive, decoding either succeeds or raises a FedShieldError;
audit verification always returns a verdict.
"""

import struct

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fedshield import protocol  # noqa: E402
from fedshield.audit import AuditLog, verify_audit  # noqa: E402
from fedshield.errors import FedShieldError  # noqa: E402
from fedshield.fl import deserialize_params  # noqa: E402

FUZZ = settings(max_examples=100, deadline=None, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**63, 2**63)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=6)
bodies = st.dictionaries(st.text(max_size=8), json_values, max_size=6)


def framed(mtype: int, head: bytes, trailer: bytes) -> bytes:
    return struct.pack(">BI", mtype, len(head)) + head + trailer


# raw bytes, and bytes whose head length fits the frame so the JSON and
# trailer checks are reached
message_bytes = st.binary(max_size=200) | st.builds(
    framed, st.integers(0, 255), st.binary(max_size=64), st.binary(max_size=64))


@FUZZ
@given(message_bytes)
@example(framed(100, b"[" * 100_000, b""))  # nesting deeper than the parser's stack
@example(framed(100, b'{"a":' + b"1" * 5000 + b"}", b""))  # past the int digit limit
def test_decode_message_refuses_only_with_fedshield_error(data):
    try:
        mtype, body, params = protocol.decode_message(data)
    except FedShieldError:
        return
    assert isinstance(body, dict)
    assert not params or mtype in protocol.PARAMS_TYPES


@FUZZ
@given(st.integers(0, 255), bodies, st.binary(max_size=128))
def test_encode_decode_round_trip(mtype, body, trailer):
    params = trailer if mtype in protocol.PARAMS_TYPES else b""
    message = protocol.encode_message(mtype, body, params)
    assert protocol.decode_message(message) == (mtype, body, params)


# raw bytes, and a dimension prefix followed by a body of any length
param_bytes = st.binary(max_size=100) | st.builds(
    lambda dim, body: struct.pack(">I", dim) + body,
    st.integers(0, 12), st.binary(max_size=100))


@FUZZ
@given(param_bytes)
def test_deserialize_params_refuses_only_with_fedshield_error(data):
    try:
        vec = deserialize_params(data)
    except FedShieldError:
        return
    assert vec.shape == (struct.unpack(">I", data[:4])[0],)
    assert len(data) == 4 + 8 * vec.size


@FUZZ
@given(st.binary(max_size=200))
@example(b'{"seq":1e400}')  # a sequence number that overflows to infinity
@example(b'{"entry_hash":"00","kind":"k","payload":{},"prev_hash":"00","seq":1,'
         b'"timestamp":' + b"1" * 401 + b"}")  # a timestamp past the float range
def test_verify_audit_always_gives_a_verdict(tmp_path_factory, tail):
    path = tmp_path_factory.mktemp("audit") / "audit.log"
    AuditLog(path).append("session-start", {"round": 0})
    with open(path, "ab") as fh:
        fh.write(tail)
    verdict = verify_audit(path)
    assert verdict.ok or verdict.first_break >= 1
    try:
        AuditLog(path)
    except FedShieldError:
        pass
