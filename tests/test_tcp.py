"""Service and session flows over real TCP sockets, and the listener
contract both networks share."""

import hashlib
import logging
import socket
import struct
import threading
import time

import numpy as np
import pytest

from fedshield import protocol
from fedshield.attestation import ROLE_COORDINATOR, AttestationPolicy, attested_handshake
from fedshield.demo import CLIENT_BUNDLE, ROLE_CONFIG, Deployment
from fedshield.enclave import spawn_enclave
from fedshield.errors import (
    DecodeError,
    InvalidInputError,
    ServiceError,
    TransportClosedError,
)
from fedshield.fl import synthetic_dataset
from fedshield.policy import SessionConfig
from fedshield import transport as transport_module
from fedshield.transport import CaptureLog, Hub, TcpNetwork, transport_pair


def test_manager_and_counters_over_tcp(tmp_path):
    dep = Deployment(tmp_path, {"client-1": synthetic_dataset(30, 3, seed=1)},
                     synthetic_dataset(30, 3, seed=2), SessionConfig(rng_seed=4),
                     network=TcpNetwork())
    try:
        client_enclave = spawn_enclave(dep.platform, CLIENT_BUNDLE, ROLE_CONFIG)
        channel = dep.connect_manager(client_enclave, role="client")
        bundle = channel.request_secrets(dep.policy_hash, "client")
        assert len(bytes.fromhex(bundle.environment["DATASET_KEY"])) == 32
        # a second GENERATE, as a re-run upload sends it, keeps the secrets
        channel.generate_secrets(dep.policy_hash)
        assert channel.request_secrets(dep.policy_hash, "client") == bundle

        # an unpinned enclave attests the channel but is denied its secrets,
        # and the failing check crosses the wire with the error
        unpinned = spawn_enclave(dep.platform, CLIENT_BUNDLE + b" modified",
                                 ROLE_CONFIG)
        denied = dep.connect_manager(unpinned, role="client")
        with pytest.raises(ServiceError, match="access-denied") as err:
            denied.request_secrets(dep.policy_hash, "client")
        assert err.value.check == "measurement"
        denied.close()

        token = channel.counter_create()
        assert token.value == 1
        inc = channel.counter_increment(token.counter_id)
        assert inc.value == 2
        assert channel.counter_read(token.counter_id).value == 2
        channel.close()
    finally:
        dep.close()


def test_out_of_range_policy_numbers_get_a_reply(tmp_path):
    dep = Deployment(tmp_path, {"client-1": synthetic_dataset(30, 3, seed=1)},
                     synthetic_dataset(30, 3, seed=2), SessionConfig(rng_seed=4),
                     network=TcpNetwork())
    try:
        client_enclave = spawn_enclave(dep.platform, CLIENT_BUNDLE, ROLE_CONFIG)
        channel = dep.connect_manager(client_enclave, role="client")
        document = dep.policy.document
        assert '"rng_seed":4' in document
        for bad in ('"rng_seed":1e400', '"rng_seed":NaN'):
            with pytest.raises(ServiceError, match="policy-invalid"):
                channel.upload_policy(document.replace('"rng_seed":4', bad))
        # the connection thread survived and serves the next request
        assert channel.upload_policy(document) == dep.policy_hash
        channel.close()
    finally:
        dep.close()


def test_handler_fault_gets_an_internal_reply(tmp_path, monkeypatch, caplog):
    dep = Deployment(tmp_path, {"client-1": synthetic_dataset(30, 3, seed=1)},
                     synthetic_dataset(30, 3, seed=2), SessionConfig(rng_seed=4),
                     network=TcpNetwork())
    try:
        client_enclave = spawn_enclave(dep.platform, CLIENT_BUNDLE, ROLE_CONFIG)
        channel = dep.connect_manager(client_enclave, role="client")

        def faulty_upload(document):
            raise ValueError("handler secret")

        monkeypatch.setattr(dep.endpoint.manager, "upload_policy", faulty_upload)
        started = time.monotonic()
        with caplog.at_level(logging.ERROR, logger="fedshield.services"):
            with pytest.raises(ServiceError) as err:
                channel.upload_policy(dep.policy.document)
        assert time.monotonic() - started < 5.0  # not the 30 s request timeout
        # the class name crosses the wire, the exception text does not
        assert (err.value.kind, err.value.detail) == ("internal", "ValueError")
        assert [r.exc_info[0] for r in caplog.records] == [ValueError]
        # the connection thread survived and serves the next request
        monkeypatch.undo()
        assert channel.upload_policy(dep.policy.document) == dep.policy_hash
        channel.close()
    finally:
        dep.close()


def test_oversized_handshake_frame_is_refused_after_its_header(platform, enclave_a):
    listener = TcpNetwork().listen("coordinator")
    peer = socket.create_connection(listener.address)
    try:
        transport = listener.accept(timeout=5.0)
        peer.sendall(struct.pack(">I", 1 << 20))  # a 1 MiB HELLO whose body never comes
        start = time.monotonic()
        with pytest.raises(DecodeError, match="exceeds"):
            attested_handshake(enclave_a, transport,
                               AttestationPolicy(platform.root_public_key, None),
                               ROLE_COORDINATOR, timeout=3.0)
        assert time.monotonic() - start < 1.0
    finally:
        peer.close()
        listener.close()


def test_oversized_update_frame_is_refused_after_its_header(tmp_path):
    client_ids = ["client-1", "client-2", "client-3"]
    datasets = {cid: synthetic_dataset(30, 3, seed=i) for i, cid in enumerate(client_ids)}
    dep = Deployment(tmp_path, datasets, synthetic_dataset(30, 3, seed=9),
                     SessionConfig(min_clients=2, rng_seed=3),
                     network=TcpNetwork(), round_deadline=5.0)
    try:
        agents = [dep.make_agent(cid) for cid in client_ids]
        dep.join_all(agents)
        dep.start_agents(agents[:2])
        # client-3 announces one byte more than an update of dimension 3 + 1
        # may take, and never sends the body
        cap = protocol.round_frame_max(4 + 8 * (3 + 1))
        agents[2].channel._transport._sock.sendall(struct.pack(">I", cap + 1))
        coordinator = dep.coordinator
        coordinator._broadcast(protocol.MODEL_BROADCAST, {"round": 1},
                               coordinator.model.blob)
        start = time.monotonic()
        updates, dropped = coordinator._collect_updates(1)
        elapsed = time.monotonic() - start
    finally:
        dep.close()
    assert dropped == {"client-3": "DecodeError"}
    assert sorted(updates) == ["client-1", "client-2"]
    assert elapsed < 1.0


@pytest.fixture
def tcp_pair():
    """A ``TcpTransport`` and the plain socket at its other end."""
    listener = TcpNetwork().listen("probe")
    peer = socket.create_connection(listener.address, timeout=10.0)
    try:
        yield listener.accept(timeout=5.0), peer
    finally:
        peer.close()
        listener.close()


FRAME_32_MIB = bytes(range(256)) * (1 << 17)


def test_send_is_not_bounded_by_the_last_receive_timeout(tcp_pair):
    transport, peer = tcp_pair
    with pytest.raises(TimeoutError):
        transport.recv_frame(timeout=0.01)
    received = {}

    def read_later():
        time.sleep(0.5)
        digest, total, buf = hashlib.sha256(), 0, bytearray(1 << 20)
        while total < 4 + len(FRAME_32_MIB):
            n = peer.recv_into(buf)
            if not n:
                break
            digest.update(memoryview(buf)[:n])
            total += n
        received.update(total=total, digest=digest.digest())

    reader = threading.Thread(target=read_later)
    reader.start()
    try:
        transport.send_frame(FRAME_32_MIB)
    finally:
        reader.join(timeout=30.0)
    wire = hashlib.sha256(struct.pack(">I", len(FRAME_32_MIB)) + FRAME_32_MIB)
    assert received == {"total": 4 + len(FRAME_32_MIB), "digest": wire.digest()}
    transport.close()


def test_send_to_a_peer_that_never_reads_ends_within_its_bound(tcp_pair, monkeypatch):
    # raising=False: without the bound the send below blocks, and the test
    # fails on its duration rather than on the missing constant
    monkeypatch.setattr(transport_module, "SEND_TIMEOUT", 0.2, raising=False)
    transport, peer = tcp_pair
    outcome = []

    def send():
        start = time.monotonic()
        try:
            transport.send_frame(FRAME_32_MIB)
        except TransportClosedError:
            outcome.append(time.monotonic() - start)

    sender = threading.Thread(target=send)
    sender.start()
    sender.join(timeout=5.0)
    if sender.is_alive():  # unbounded: end the send by closing its peer
        peer.close()
        sender.join(timeout=5.0)
    assert len(outcome) == 1 and outcome[0] < 2.0
    # part of the frame may have gone out, so the stream is closed
    with pytest.raises(TransportClosedError):
        transport.send_frame(b"next")


@pytest.mark.parametrize("cut", [500, 2], ids=["in-body", "in-header"])
def test_receive_timed_out_mid_frame_resumes_that_frame(tcp_pair, cut):
    transport, peer = tcp_pair
    body = b"A" * 1000
    wire = struct.pack(">I", len(body)) + body
    peer.sendall(wire[:cut])
    with pytest.raises(TimeoutError):
        transport.recv_frame(timeout=0.1)
    peer.sendall(wire[cut:] + struct.pack(">I", 3) + b"end")
    assert transport.recv_frame(timeout=5.0) == body
    assert transport.recv_frame(timeout=5.0) == b"end"
    transport.close()


def test_small_session_over_tcp(tmp_path):
    client_ids = ["client-1", "client-2"]
    datasets = {cid: synthetic_dataset(40, 3, seed=i, separation=4.0)
                for i, cid in enumerate(client_ids)}
    session = SessionConfig(min_clients=2, max_rounds=2, target_accuracy=0.999,
                            learning_rate=0.2, local_epochs=1, batch_size=16,
                            rng_seed=2)
    dep = Deployment(tmp_path, datasets,
                     synthetic_dataset(80, 3, seed=9, separation=4.0), session,
                     network=TcpNetwork(), round_deadline=10.0)
    try:
        agents = [dep.make_agent(cid) for cid in client_ids]
        dep.join_all(agents)
        dep.start_agents(agents)
        model = dep.coordinator.run_session()
    finally:
        dep.close()

    assert model.round_index == 2
    assert all(agent.result is not None for agent in agents)
    assert all(np.array_equal(agent.params, model.params) for agent in agents)


@pytest.mark.parametrize("network", [Hub, TcpNetwork])
def test_closed_listener_refuses_accept_and_connect(network):
    net = network()
    listener = net.listen("service")
    listener.close()
    for _ in range(2):
        with pytest.raises(TransportClosedError):
            listener.accept(timeout=0.5)
    with pytest.raises(TransportClosedError):
        net.connect("service")


@pytest.mark.parametrize("captured", [False, True], ids=["bare", "captured"])
def test_in_process_send_past_max_frame_is_refused(monkeypatch, captured):
    # refused at the sender, as a TCP send is, whether or not a capture log
    # is attached; recv_frame's max_size default was bound at import
    monkeypatch.setattr(transport_module, "MAX_FRAME", 16)
    sender, receiver = transport_pair(CaptureLog() if captured else None)
    with pytest.raises(InvalidInputError):
        sender.send_frame(bytes(17))
    sender.send_frame(bytes(16))
    assert receiver.recv_frame(timeout=1.0) == bytes(16)
