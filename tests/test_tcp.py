"""Service and session flows over real TCP sockets."""

import threading

import numpy as np
import pytest

from fedshield.counters import CounterService
from fedshield.demo import (
    CLIENT_BUNDLE,
    COORDINATOR_BUNDLE,
    MANAGER_BUNDLE,
    ROLE_CONFIG,
    author_policy,
    role_measurements,
)
from fedshield.enclave import generate_platform, generate_signing_key, spawn_enclave
from fedshield.encoding import sha256
from fedshield.errors import ServiceError
from fedshield.fl import dataset_to_csv_bytes, synthetic_dataset
from fedshield.orchestrator import ClientAgent, Coordinator
from fedshield.policy import PolicyManager, SessionConfig, parse_policy
from fedshield.services import ServiceEndpoint, connect_manager
from fedshield.transport import TcpListener, tcp_connect


@pytest.fixture
def tcp_stack(tmp_path):
    platform = generate_platform()
    root = platform.root_public_key
    manager_enclave = spawn_enclave(platform, MANAGER_BUNDLE, ROLE_CONFIG)
    counters = CounterService(tmp_path / "manager" / "counters.wal",
                              generate_signing_key(), use_fsync=False)
    manager = PolicyManager(tmp_path / "manager", manager_enclave, root)
    listener = TcpListener("127.0.0.1", 0)
    endpoint = ServiceEndpoint(listener, manager, counters, manager_enclave, root)
    endpoint.start()
    yield platform, manager, counters, listener.address, endpoint
    endpoint.stop()
    counters.close()


def test_manager_and_counters_over_tcp(tcp_stack, tmp_path):
    platform, _, counters, (host, port), _ = tcp_stack
    measurements = role_measurements()
    client_enclave = spawn_enclave(platform, CLIENT_BUNDLE, ROLE_CONFIG)

    dataset = synthetic_dataset(30, 3, seed=1)
    roster = [("client-1", sha256(dataset_to_csv_bytes(dataset)))]
    document = author_policy("tcp-session", measurements, roster,
                             SessionConfig(rng_seed=4))
    manager_policy = parse_policy(document).pin("policy_manager_self",
                                                platform.root_public_key)

    channel = connect_manager(client_enclave, tcp_connect(host, port),
                              manager_policy, "client", counters.public_key)
    policy_hash = channel.upload_policy(document)
    channel.generate_secrets(policy_hash)
    with pytest.raises(ServiceError, match="already-generated"):
        channel.generate_secrets(policy_hash)
    bundle = channel.request_secrets(policy_hash, "client")
    assert len(bytes.fromhex(bundle.environment["DATASET_KEY"])) == 32

    # a corrupted in-band quote is denied and the failing check crosses
    # the wire with the error
    bad_quote = bytearray(channel.channel.local_quote_bytes)
    bad_quote[-1] ^= 0x01
    with pytest.raises(ServiceError, match="access-denied") as err:
        channel.request_secrets(policy_hash, "client", bytes(bad_quote))
    assert err.value.body["check"] == "signature"

    token = channel.counter_create()
    assert token.value == 1 and token.stable
    inc = channel.counter_increment(token.counter_id)
    assert inc.value == 2
    assert channel.counter_read(token.counter_id).value == 2
    channel.close()


def test_small_session_over_tcp(tcp_stack, tmp_path):
    platform, manager, counters, (host, port), _ = tcp_stack
    root = platform.root_public_key
    measurements = role_measurements()
    coordinator_enclave = spawn_enclave(platform, COORDINATOR_BUNDLE, ROLE_CONFIG)

    client_ids = ["client-1", "client-2"]
    datasets = {cid: synthetic_dataset(40, 3, seed=i, separation=4.0)
                for i, cid in enumerate(client_ids)}
    validation = synthetic_dataset(80, 3, seed=9, separation=4.0)
    session = SessionConfig(min_clients=2, max_rounds=2, target_accuracy=0.999,
                            learning_rate=0.2, local_epochs=1, batch_size=16,
                            rng_seed=2)
    roster = [(cid, sha256(dataset_to_csv_bytes(datasets[cid])))
              for cid in client_ids]
    document = author_policy("tcp-live", measurements, roster, session)
    policy = parse_policy(document)
    manager_policy = policy.pin("policy_manager_self", root)
    coordinator_policy = policy.pin("coordinator", root)

    mgr = connect_manager(coordinator_enclave, tcp_connect(host, port),
                          manager_policy, "coordinator", counters.public_key)
    policy_hash = mgr.upload_policy(document)
    mgr.generate_secrets(policy_hash)
    bundle = mgr.request_secrets(policy_hash, "coordinator")
    checkpoint_key = bytes.fromhex(bundle.environment["CHECKPOINT_KEY"])

    coordinator = Coordinator(manager.get_policy(policy_hash),
                              coordinator_enclave, tmp_path / "coordinator",
                              root, validation, checkpoint_key, mgr,
                              round_deadline=10.0)
    coord_listener = TcpListener("127.0.0.1", 0)
    chost, cport = coord_listener.address
    accept = threading.Thread(
        target=coordinator.accept_clients,
        kwargs={"listener": coord_listener, "deadline": 15.0, "expected": 2},
        daemon=True)
    accept.start()

    agents = []
    for cid in client_ids:
        enclave = spawn_enclave(platform, CLIENT_BUNDLE, ROLE_CONFIG)
        agent = ClientAgent(cid, enclave, datasets[cid],
                            roster[client_ids.index(cid)][1], session,
                            coordinator_policy)
        agent.join(tcp_connect(chost, cport))
        agents.append(agent)
    accept.join(timeout=15)

    threads = [threading.Thread(target=agent.run, daemon=True)
               for agent in agents]
    for thread in threads:
        thread.start()
    model = coordinator.run_session()
    for thread in threads:
        thread.join(timeout=15)
    coord_listener.close()
    mgr.close()

    assert model.round_index == 2
    assert all(agent.result is not None for agent in agents)
    assert all(np.array_equal(agent.params, model.params) for agent in agents)
