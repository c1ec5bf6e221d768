"""Service and session flows over real TCP sockets, and the listener
contract both networks share."""

import logging
import time

import numpy as np
import pytest

from fedshield.demo import CLIENT_BUNDLE, ROLE_CONFIG, Deployment
from fedshield.enclave import spawn_enclave
from fedshield.errors import ServiceError, TransportClosedError
from fedshield.fl import synthetic_dataset
from fedshield.policy import SessionConfig
from fedshield.transport import Hub, TcpNetwork


def test_manager_and_counters_over_tcp(tmp_path):
    dep = Deployment(tmp_path, {"client-1": synthetic_dataset(30, 3, seed=1)},
                     synthetic_dataset(30, 3, seed=2), SessionConfig(rng_seed=4),
                     network=TcpNetwork())
    try:
        client_enclave = spawn_enclave(dep.platform, CLIENT_BUNDLE, ROLE_CONFIG)
        channel = dep.connect_manager(client_enclave, role="client")
        with pytest.raises(ServiceError, match="already-generated"):
            channel.generate_secrets(dep.policy_hash)
        bundle = channel.request_secrets(dep.policy_hash, "client")
        assert len(bytes.fromhex(bundle.environment["DATASET_KEY"])) == 32

        # an unpinned enclave attests the channel but is denied its secrets,
        # and the failing check crosses the wire with the error
        unpinned = spawn_enclave(dep.platform, CLIENT_BUNDLE + b" modified",
                                 ROLE_CONFIG)
        denied = dep.connect_manager(unpinned, role="client")
        with pytest.raises(ServiceError, match="access-denied") as err:
            denied.request_secrets(dep.policy_hash, "client")
        assert err.value.body["check"] == "measurement"
        denied.close()

        token = channel.counter_create()
        assert token.value == 1 and token.stable
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
