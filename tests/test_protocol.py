"""Message layout: golden bytes, trailers, and refusal of malformed frames;
the manager stub's checks on the replies it decodes."""

import struct

import numpy as np
import pytest

from fedshield import protocol
from fedshield.attestation import AttestationPolicy
from fedshield.counters import CounterService
from fedshield.enclave import (
    generate_platform,
    generate_signing_key,
    public_key_bytes,
    spawn_enclave,
)
from fedshield.encoding import b64, canonical_bytes
from fedshield.errors import DecodeError, FreshnessTokenError
from fedshield.fl import serialize_params
from fedshield.policy import InjectionBundle
from fedshield.services import ManagerChannel, ServiceEndpoint, connect_manager
from fedshield.transport import Hub

HEAD = {"client_id": "client-1", "round": 1, "num_examples": 60,
        "params_hash": "ab" * 32}
PARAMS = serialize_params(np.array([1.0, -0.0, 2.5]))

# u8 type 32 | u32 BE head length 0x85 | canonical JSON head | parameter bytes
UPDATE_SUBMIT_GOLDEN = (
    "20000000857b22636c69656e745f6964223a22636c69656e742d31222c226e75"
    "6d5f6578616d706c6573223a36302c22706172616d735f68617368223a226162"
    "6162616261626162616261626162616261626162616261626162616261626162"
    "616261626162616261626162616261626162616261626162616261626162222c"
    "22726f756e64223a317d000000033ff000000000000080000000000000004004"
    "000000000000"
)

NON_PARAMS_TYPES = [protocol.UPLOAD_POLICY, protocol.GENERATE, protocol.REQUEST_SECRETS,
                    protocol.COUNTER_CREATE, protocol.COUNTER_INC, protocol.COUNTER_READ,
                    protocol.JOIN, 33, protocol.RESPONSE_OK, protocol.RESPONSE_ERR]


def test_update_submit_golden_bytes():
    message = protocol.encode_message(protocol.UPDATE_SUBMIT, HEAD, PARAMS)
    assert message.hex() == UPDATE_SUBMIT_GOLDEN
    assert protocol.decode_message(message) == (protocol.UPDATE_SUBMIT, HEAD, PARAMS)


@pytest.mark.parametrize("mtype", NON_PARAMS_TYPES)
def test_trailer_on_other_types_is_refused(mtype):
    message = protocol.encode_message(mtype, {}) + b"\x00"
    with pytest.raises(DecodeError, match="trailer"):
        protocol.decode_message(message)


def test_previous_layout_is_refused():
    with pytest.raises(DecodeError):
        protocol.decode_message(bytes([protocol.UPDATE_SUBMIT]) + canonical_bytes(HEAD))


@pytest.mark.parametrize("data", [
    b"",
    b"\x20\x00\x00\x00",  # shorter than the prefix
    struct.pack(">BI", 100, 3) + b"{}",  # head runs past the frame
    struct.pack(">BI", 100, 3) + b"[1]",  # head is not an object
    struct.pack(">BI", 100, 0),  # empty head
    struct.pack(">BI", 100, 2) + b"\xff\xfe",  # head is not UTF-8
])
def test_malformed_messages_are_refused(data):
    with pytest.raises(DecodeError):
        protocol.decode_message(data)


class ReplyChannel:
    """A channel that answers every request with one fixed OK body."""

    def __init__(self, body):
        self.reply = protocol.encode_message(protocol.RESPONSE_OK, body)

    def send(self, frame):
        pass

    def recv(self, timeout=None, max_size=None):
        return self.reply


def manager(body) -> ManagerChannel:
    return ManagerChannel(ReplyChannel(body), counter_public_key=b"")


CALLS = {
    "upload_policy": lambda body: manager(body).upload_policy("{}"),
    "counter_create": lambda body: manager(body).counter_create(),
    "request_secrets": lambda body: manager(body).request_secrets(b"\x00" * 32, "client"),
    "from_dict": InjectionBundle.from_dict,
}


@pytest.mark.parametrize("call,body", [
    ("upload_policy", {}),
    ("upload_policy", {"policy_hash": 5}),
    ("counter_create", {}),
    ("counter_create", {"token": ["AA=="]}),
    ("request_secrets", {}),
    ("request_secrets", {"bundle": []}),
    ("request_secrets", {"bundle": {"role": 1, "environment": 5}}),
    ("from_dict", []),
    ("from_dict", {}),
    ("from_dict", {"role": "client", "arguments": "ab"}),
    ("from_dict", {"role": "client", "arguments": [1]}),
    ("from_dict", {"role": "client", "environment": []}),
    ("from_dict", {"role": "client", "environment": {"KEY": 1}}),
    ("from_dict", {"role": "client", "files": {1: "a"}}),  # not expressible in JSON
])
def test_malformed_manager_reply_is_decode_error(call, body):
    with pytest.raises(DecodeError):
        CALLS[call](body)


@pytest.fixture
def endpoint(tmp_path):
    """A live manager endpoint, and a client's ``connect(counter_public_key)``
    that attests it and returns a ``ManagerChannel``."""
    platform = generate_platform()
    manager_enclave = spawn_enclave(platform, b"manager program", b"cfg\n")
    client_enclave = spawn_enclave(platform, b"client program", b"cfg\n")
    hub = Hub()
    service = ServiceEndpoint(hub.listen("manager"), tmp_path, manager_enclave,
                              platform.root_public_key, generate_signing_key())
    service.start()
    pin = AttestationPolicy(platform.root_public_key, manager_enclave.measurement)

    def connect(counter_public_key):
        return connect_manager(client_enclave, hub.connect("manager"), pin,
                               "client", counter_public_key)
    yield service, connect
    service.stop()


def test_tokens_under_another_counter_key_are_refused(endpoint):
    service, connect = endpoint
    honest = connect(service.counters.public_key)
    counter_id = honest.counter_create().counter_id
    pinned_elsewhere = connect(public_key_bytes(generate_signing_key()))
    for call in (pinned_elsewhere.counter_create,
                 lambda: pinned_elsewhere.counter_increment(counter_id),
                 lambda: pinned_elsewhere.counter_read(counter_id)):
        with pytest.raises(FreshnessTokenError, match="does not verify"):
            call()
    # the refused increment still moved the counter; the honest stub sees it
    assert honest.counter_read(counter_id).value == 2
    honest.close()
    pinned_elsewhere.close()


def test_a_signed_token_for_another_counter_is_refused(tmp_path):
    counters = CounterService(tmp_path / "wal", generate_signing_key())
    asked, other = counters.create_counter(), counters.create_counter()
    token = counters.read_stable(other)
    counters.close()
    stub = ManagerChannel(ReplyChannel({"token": b64(token.to_bytes())}),
                          counters.public_key)
    for call in (stub.counter_increment, stub.counter_read, stub.stable_value):
        with pytest.raises(FreshnessTokenError, match="different counter"):
            call(asked)
    assert stub.counter_read(other) == token
    assert stub.counter_create() == token  # a create asks for no counter
