"""Coordinator rounds, admission gating, crash recovery, determinism."""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from fedshield import demo, protocol
from fedshield.attestation import ROLE_CLIENT, ROLE_COORDINATOR, attested_handshake
from fedshield.audit import read_entries, verify_audit
from fedshield.demo import CLIENT_BUNDLE, ROLE_CONFIG, run_demo
from fedshield.counters import COUNTER_ID_LEN
from fedshield.enclave import spawn_enclave
from fedshield.encoding import canonical_bytes, sha256
from fedshield.errors import (
    ChannelIntegrityError,
    DecodeError,
    FedShieldError,
    RollbackDetectedError,
    ServiceError,
    SessionFailedError,
    TransportClosedError,
)
from fedshield.fl import dataset_to_csv_bytes, serialize_params, synthetic_dataset
from fedshield.orchestrator import Coordinator, derive_training_seed
from fedshield.policy import SessionConfig
from fedshield.transport import CaptureLog, Hub


def make_deployment(tmp_path, num_clients=3, session=None, capture=None,
                    round_deadline=5.0) -> demo.Deployment:
    """The library deployment over small fixed datasets, driven by tests."""
    client_ids = [f"client-{i + 1}" for i in range(num_clients)]
    session = session or SessionConfig(
        min_clients=num_clients, max_rounds=4, target_accuracy=0.999,
        convergence_epsilon=1e-12, patience=3, learning_rate=0.2,
        local_epochs=1, batch_size=16, clone_count=0, clone_subset_size=0,
        rng_seed=5)
    datasets = {cid: synthetic_dataset(60, 4, seed=i + 1)
                for i, cid in enumerate(client_ids)}
    return demo.Deployment(tmp_path, datasets, synthetic_dataset(120, 4, seed=88),
                           session, network=Hub(capture),
                           round_deadline=round_deadline)


def validation_csv(deployment) -> bytes:
    """The validation CSV the deployment's policy hashes."""
    return dataset_to_csv_bytes(deployment.coordinator.validation)


# Rounds go ahead with two of the three clients.
QUORUM_OF_TWO = SessionConfig(min_clients=2, max_rounds=4, target_accuracy=0.999,
                              learning_rate=0.2, local_epochs=1, batch_size=16,
                              rng_seed=5)


def run_round_with_saboteur(deployment, sabotage):
    """Round 1 with client-1 and client-2 honest; ``sabotage(channel)``
    answers client-3's broadcast in its place."""
    agents = [deployment.make_agent(cid) for cid in deployment.client_ids[:2]]
    saboteur = deployment.make_agent("client-3")
    deployment.join_all(agents + [saboteur])
    deployment.start_agents(agents)
    record_holder = {}

    def drive():
        record_holder["record"] = deployment.coordinator.run_round(1)

    driver = threading.Thread(target=drive)
    driver.start()
    saboteur.channel.recv(timeout=5)  # consume MODEL_BROADCAST
    sabotage(saboteur.channel)
    driver.join(timeout=15)
    return record_holder["record"], saboteur


def submission(client_id="client-3", round_index=1, dim=5, num_examples=60,
               blob=None):
    """UPDATE_SUBMIT (type, head, trailer) with the trailer's true hash."""
    blob = serialize_params(np.zeros(dim)) if blob is None else blob
    return (protocol.UPDATE_SUBMIT,
            {"client_id": client_id, "round": round_index,
             "num_examples": num_examples, "params_hash": sha256(blob).hex()},
            blob)


REJECTED_UPDATES = {
    "wrong-client-id": submission(client_id="client-1"),
    "future-round": submission(round_index=2),
    "hash-mismatch": (protocol.UPDATE_SUBMIT,
                      {**submission()[1], "params_hash": "00" * 32}, submission()[2]),
    "malformed-params": submission(blob=b"\x00\x00"),
    "zero-examples": submission(num_examples=0),
    "dimension-mismatch": submission(dim=7),
    "wrong-message-type": (protocol.JOIN, submission()[1], b""),
}

# Coordinator messages a client agent must refuse with DecodeError.
MALFORMED_COORDINATOR_MESSAGES = {
    "no-round": (protocol.MODEL_BROADCAST, {}, serialize_params(np.zeros(5))),
    "non-integer-round": (protocol.MODEL_BROADCAST, {"round": "one"},
                          serialize_params(np.zeros(5))),
    "malformed-broadcast-params": (protocol.MODEL_BROADCAST, {"round": 1}, b"\x00\x00"),
    "retired-commit-type": (33, {"round": 1}, b""),
    "malformed-end-params": (protocol.SESSION_END, {"status": "converged"}, b"\x00"),
}


def wal_counter_ids(dep) -> set[bytes]:
    """The counter ids the counter service's write-ahead log holds."""
    wal = (dep.manager_dir / "counters.wal").read_bytes()
    record = COUNTER_ID_LEN + 8 + 4  # counter id, u64 value, crc32
    return {wal[i:i + COUNTER_ID_LEN] for i in range(0, len(wal), record)}


class RawPeer:
    """A refused peer for ``Deployment.join_all`` that acts on its raw
    connection instead of joining."""

    def __init__(self, client_id, act):
        self.client_id = client_id
        self.join = act


@pytest.fixture
def deployment(tmp_path):
    dep = make_deployment(tmp_path)
    yield dep
    dep.close()


class TestAdmission:
    def test_pinned_client_with_matching_hash_admitted(self, deployment):
        agents = [deployment.make_agent(cid) for cid in deployment.client_ids]
        deployment.join_all(agents)
        assert sorted(deployment.coordinator.admitted) == deployment.client_ids

    def test_swapped_dataset_rejected(self, deployment):
        # roster client whose (decrypted) dataset is another client's data
        agent = deployment.make_agent(
            "client-1", dataset=deployment.datasets["client-2"])
        rejected = deployment.join_all([], refused=[agent])
        with pytest.raises(ServiceError, match="dataset-hash"):
            raise rejected["client-1"]
        assert "client-1" not in deployment.coordinator.admitted
        entries = [e for e in read_entries(deployment.state_dir / "audit.log")
                   if e.kind == "admission"]
        assert entries[-1].payload == {
            "client_id": "client-1", "admitted": False, "reason": "dataset-hash"}

    def test_non_roster_id_rejected(self, deployment):
        agent = deployment.make_agent("intruder",
                                      dataset=deployment.datasets["client-1"])
        rejected = deployment.join_all([], refused=[agent])
        with pytest.raises(ServiceError, match="roster"):
            raise rejected["intruder"]

    def test_refused_only_join_leaves_the_listener_open(self, deployment):
        intruder = deployment.make_agent("intruder",
                                         dataset=deployment.datasets["client-1"])
        start = time.monotonic()
        rejected = deployment.join_all([], refused=[intruder])
        assert time.monotonic() - start < demo.JOIN_DEADLINE / 10
        assert list(rejected) == ["intruder"]
        deployment.join_all([deployment.make_agent("client-1")])
        assert list(deployment.coordinator.admitted) == ["client-1"]

    def test_undecodable_hello_does_not_stop_admission(self, deployment):
        rogue = RawPeer("rogue", lambda transport: transport.send_frame(
            bytes([1]) + bytes(32) + bytes([2]) + b"\xff\xfe"))
        deployment.join_all([deployment.make_agent("client-1")], refused=[rogue])
        assert list(deployment.coordinator.admitted) == ["client-1"]
        admissions = [e.payload for e in read_entries(deployment.state_dir / "audit.log")
                      if e.kind == "admission"]
        assert admissions[0] == {"client_id": None, "admitted": False,
                                 "reason": "attestation", "detail": "decode"}
        assert admissions[1]["admitted"] is True

    def test_attested_peer_closing_before_join_is_audited(self, deployment):
        silent = deployment.make_agent("client-1")
        closer = RawPeer("silent", lambda transport: attested_handshake(
            silent.enclave, transport, silent.coordinator_policy, role=ROLE_CLIENT,
            expected_peer_role=ROLE_COORDINATOR).close())
        deployment.join_all([deployment.make_agent("client-1")], refused=[closer])
        assert list(deployment.coordinator.admitted) == ["client-1"]
        admissions = [e.payload for e in read_entries(deployment.state_dir / "audit.log")
                      if e.kind == "admission"]
        assert admissions[0] == {"client_id": None, "admitted": False,
                                 "reason": "roster", "detail": "TransportClosedError"}
        assert admissions[1]["admitted"] is True

    def test_unpinned_measurement_never_gets_model_bytes(self, tmp_path):
        capture = CaptureLog()
        dep = make_deployment(tmp_path, capture=capture)
        try:
            bad_enclave = spawn_enclave(dep.platform, CLIENT_BUNDLE + b"x",
                                        ROLE_CONFIG)
            agent = dep.make_agent("client-1", enclave=bad_enclave)
            rejected = dep.join_all([], refused=[agent])
            with pytest.raises(FedShieldError):
                raise rejected["client-1"]
            assert "client-1" not in dep.coordinator.admitted
            for _, wire in capture.frames("client:client-1"):
                assert wire[4] in (1, 2, 3, 4)  # handshake types only
        finally:
            dep.close()


class TestRounds:
    def test_honest_round_record(self, deployment):
        agents = [deployment.make_agent(cid) for cid in deployment.client_ids]
        deployment.join_all(agents)
        deployment.start_agents(agents)
        record = deployment.coordinator.run_round(1)
        assert record.round_index == 1
        assert record.admitted == deployment.client_ids
        assert len(record.update_hashes) == 3
        assert record.flags == []
        assert record.counter_value == 2  # creation was 1, one increment
        second = deployment.coordinator.run_round(2)
        assert second.counter_value == 3
        # committed hash equals the hash of the persisted checkpoint plaintext
        plaintext = deployment.coordinator.manager.open_shielded(
            deployment.state_dir / "checkpoint-a.sfl",
            deployment.coordinator.checkpoint_key)
        assert sha256(plaintext) == second.committed_hash

    def test_corrupted_frame_drops_client_only(self, tmp_path):
        deployment = make_deployment(tmp_path, session=QUORUM_OF_TWO)
        # the saboteur answers its broadcast with a frame whose tag cannot
        # verify: in-sequence counter (JOIN consumed 0), garbage ciphertext
        record, _ = run_round_with_saboteur(
            deployment, lambda channel: channel._transport.send_frame(
                (1).to_bytes(8, "big") + b"\xde\xad" * 16))
        assert sorted(record.update_hashes) == ["client-1", "client-2"]
        assert record.dropped == {"client-3": "ChannelIntegrityError"}
        assert "client-3" not in deployment.coordinator.admitted
        assert verify_audit(deployment.state_dir / "audit.log").ok
        deployment.close()

    @pytest.mark.parametrize("case", sorted(REJECTED_UPDATES))
    def test_rejected_update_drops_and_evicts(self, tmp_path, case):
        deployment = make_deployment(tmp_path, session=QUORUM_OF_TWO)
        try:
            record, saboteur = run_round_with_saboteur(
                deployment, lambda channel: protocol.send_message(
                    channel, *REJECTED_UPDATES[case]))
            assert sorted(record.update_hashes) == ["client-1", "client-2"]
            assert record.dropped == {"client-3": "DecodeError"}
            assert "client-3" not in deployment.coordinator.admitted
            with pytest.raises(TransportClosedError):
                saboteur.channel.recv(timeout=5)
        finally:
            deployment.close()

    def test_guard_falls_back_to_leave_one_out_over_the_responders(self, tmp_path):
        session = replace(QUORUM_OF_TWO, clone_count=3, clone_subset_size=2)
        deployment = make_deployment(tmp_path, session=session)
        try:
            record, _ = run_round_with_saboteur(
                deployment, lambda channel: protocol.send_message(
                    channel, *REJECTED_UPDATES["hash-mismatch"]))
            assert record.dropped == {"client-3": "DecodeError"}
            # two responders cannot fill subsets of two: one clone leaves
            # out each responder instead
            entry = read_entries(deployment.state_dir / "audit.log")[-1]
            assert entry.kind == "round"
            assert sorted(clone["subset"] for clone in entry.payload["clone"]["clones"]) \
                == [["client-1"], ["client-2"]]
        finally:
            deployment.close()

    @pytest.mark.parametrize("case", sorted(MALFORMED_COORDINATOR_MESSAGES))
    def test_agent_refuses_malformed_coordinator_message(self, deployment, case):
        agent = deployment.make_agent("client-1")
        deployment.join_all([agent])
        protocol.send_message(deployment.coordinator.admitted["client-1"],
                              *MALFORMED_COORDINATOR_MESSAGES[case])
        with pytest.raises(DecodeError):
            agent.run()

    def test_client_late_for_one_round_stays_admitted(self, tmp_path):
        dep = make_deployment(tmp_path, session=QUORUM_OF_TWO, round_deadline=2.0)
        released = threading.Event()

        def late_in_round_1(update):
            if update.round_index == 1:
                released.wait(timeout=30)
            return update

        try:
            agents = [dep.make_agent(cid) for cid in dep.client_ids[:2]]
            agents.append(dep.make_agent("client-3", update_transform=late_in_round_1))
            dep.join_all(agents)
            dep.start_agents(agents)
            first = dep.coordinator.run_round(1)
            released.set()  # its round-1 update now reaches round 2 first
            second = dep.coordinator.run_round(2)
            assert first.dropped == {"client-3": "timeout"}
            assert second.admitted == dep.client_ids
            assert second.dropped == {}
            assert sorted(dep.coordinator.admitted) == dep.client_ids
        finally:
            dep.close()

    def test_quorum_failure_aborts_session(self, tmp_path):
        session = SessionConfig(min_clients=3, max_rounds=3,
                                target_accuracy=0.999, learning_rate=0.1,
                                local_epochs=1, batch_size=16, rng_seed=1)
        dep = make_deployment(tmp_path, session=session, round_deadline=0.4)
        try:
            agents = [dep.make_agent(cid) for cid in dep.client_ids]
            dep.join_all(agents)
            dep.start_agents(agents[:2])  # third never answers
            with pytest.raises(SessionFailedError):
                dep.coordinator.run_session()
            entries = read_entries(dep.state_dir / "audit.log")
            assert entries[-1].kind == "session-failed"
            assert verify_audit(dep.state_dir / "audit.log").ok
            for thread in dep.threads:
                thread.join(timeout=10)
            # round 1 never committed: both hold the model it was broadcast
            for agent in agents[:2]:
                assert np.array_equal(agent.params, dep.coordinator.model.params)
        finally:
            dep.close()

    def test_any_round_failure_ends_session(self, deployment):
        agents = [deployment.make_agent(cid) for cid in deployment.client_ids]
        deployment.join_all(agents)
        deployment.start_agents(agents)
        deployment.coordinator.manager.channel.close()  # checkpoint cannot commit
        with pytest.raises(SessionFailedError) as failure:
            deployment.coordinator.run_session()
        assert isinstance(failure.value.__cause__, ChannelIntegrityError)
        # the model stays at the last committed round, not the failed one
        model = deployment.coordinator.model
        assert model.round_index == 0 and model.history == []
        assert not np.any(model.params)
        entries = read_entries(deployment.state_dir / "audit.log")
        assert entries[-1].kind == "session-failed"
        assert deployment.coordinator.admitted == {}
        for thread in deployment.threads:
            thread.join(timeout=10)
        assert [agent.result["status"] for agent in agents] == ["failed"] * 3


class TestCrashRecovery:
    def test_resume_from_stable_checkpoint(self, tmp_path):
        dep = make_deployment(tmp_path)
        try:
            agents = [dep.make_agent(cid) for cid in dep.client_ids]
            dep.join_all(agents)
            dep.start_agents(agents)
            dep.coordinator.run_round(1)
            dep.coordinator.run_round(2)
            history_before = list(dep.coordinator.model.history)
            params_before = dep.coordinator.model.params.copy()
            dep.coordinator._close_clients()  # simulated kill

            mgr = dep.connect_manager(dep.coordinator_enclave, role="coordinator")
            revived = Coordinator(dep.policy, dep.coordinator_enclave,
                                  dep.state_dir, dep.platform.root_public_key,
                                  validation_csv(dep), mgr, round_deadline=5.0)
            assert revived.model.round_index == 2
            assert revived.model.history == history_before
            assert np.array_equal(revived.model.params, params_before)

            # clients reconnect and the session continues unbroken
            dep.coordinator = revived
            fresh_agents = [dep.make_agent(cid) for cid in dep.client_ids]
            dep.join_all(fresh_agents)
            dep.start_agents(fresh_agents)
            record = revived.run_round(3)
            assert record.round_index == 3
            verdict = verify_audit(dep.state_dir / "audit.log")
            assert verdict.ok
            kinds = [e.kind for e in read_entries(dep.state_dir / "audit.log")]
            assert "resume" in kinds
        finally:
            dep.close()

    def test_resume_reuses_the_shielded_datasets(self, tmp_path):
        dep = make_deployment(tmp_path)
        try:
            agents = [dep.make_agent(cid) for cid in dep.client_ids]
            dep.join_all(agents)
            dep.start_agents(agents)
            dep.coordinator.run_round(1)
            dep.coordinator.run_round(2)
            dep.coordinator._close_clients()  # simulated kill
            counters = wal_counter_ids(dep)
            validation_sfl = (dep.state_dir / "validation.sfl").read_bytes()

            mgr = dep.connect_manager(dep.coordinator_enclave, role="coordinator")
            dep.coordinator = Coordinator(
                dep.policy, dep.coordinator_enclave, dep.state_dir,
                dep.platform.root_public_key, validation_csv(dep), mgr,
                round_deadline=5.0)
            assert dep.coordinator.model.round_index == 2
            assert wal_counter_ids(dep) == counters
            assert (dep.state_dir / "validation.sfl").read_bytes() == validation_sfl

            # a client's rerun takes the same path; other bytes are shielded anew
            data_sfl = tmp_path / "clients" / "client-1" / "data.sfl"
            shielded = data_sfl.read_bytes()
            client = dep.connect_manager(dep.client_enclaves["client-1"], role="client")
            own = dataset_to_csv_bytes(dep.datasets["client-1"])
            assert client.provision(dep.policy_hash, "client", data_sfl, own)[0] == own
            assert data_sfl.read_bytes() == shielded
            assert wal_counter_ids(dep) == counters
            other = dataset_to_csv_bytes(dep.datasets["client-2"])
            assert client.provision(dep.policy_hash, "client", data_sfl, other)[0] == other
            assert len(wal_counter_ids(dep) - counters) == 1
            client.close()
        finally:
            dep.close()

    def test_revival_before_the_first_commit_creates_no_counter(self, tmp_path):
        dep = make_deployment(tmp_path)
        try:
            counters = wal_counter_ids(dep)
            for _ in range(2):  # killed before round 1 committed, twice
                mgr = dep.connect_manager(dep.coordinator_enclave, role="coordinator")
                dep.coordinator = Coordinator(
                    dep.policy, dep.coordinator_enclave, dep.state_dir,
                    dep.platform.root_public_key, validation_csv(dep), mgr,
                    round_deadline=5.0)
                assert dep.coordinator.model.round_index == 0
                assert wal_counter_ids(dep) == counters

            # the first commit creates the checkpoint counter, and only it
            agents = [dep.make_agent(cid) for cid in dep.client_ids]
            dep.join_all(agents)
            dep.start_agents(agents)
            assert dep.coordinator.run_round(1).counter_value == 2
            assert dep.coordinator.run_round(2).counter_value == 3
            assert len(wal_counter_ids(dep) - counters) == 1
        finally:
            dep.close()

    def test_replayed_stale_checkpoint_refused(self, tmp_path):
        dep = make_deployment(tmp_path)
        try:
            agents = [dep.make_agent(cid) for cid in dep.client_ids]
            dep.join_all(agents)
            dep.start_agents(agents)
            dep.coordinator.run_round(1)
            stale = (dep.state_dir / "checkpoint-b.sfl").read_bytes()  # round 1
            dep.coordinator.run_round(2)
            dep.coordinator._close_clients()
            # attacker rolls the storage back to the round-1 state
            (dep.state_dir / "checkpoint-a.sfl").write_bytes(stale)
            (dep.state_dir / "checkpoint-b.sfl").write_bytes(stale)
            mgr = dep.connect_manager(dep.coordinator_enclave, role="coordinator")
            with pytest.raises(RollbackDetectedError):
                Coordinator(dep.policy, dep.coordinator_enclave, dep.state_dir,
                            dep.platform.root_public_key, validation_csv(dep),
                            mgr, round_deadline=5.0)
        finally:
            dep.close()


class TestSessionRegression:
    def test_separable_fixture_converges_at_frozen_round(self, tmp_path):
        # run once with these exact seeds during development; the observed
        # stopping round is frozen here as a regression value
        session = SessionConfig(
            min_clients=3, max_rounds=10, target_accuracy=0.9,
            convergence_epsilon=1e-12, patience=5, learning_rate=0.5,
            local_epochs=2, batch_size=16, clone_count=0, clone_subset_size=0,
            rng_seed=77)
        result = run_demo(tmp_path, num_clients=3, rows_per_client=80, dim=4,
                          seed=123, separation=6.0, session=session)
        entries = read_entries(result.audit_paths["coordinator"])
        end = [e for e in entries if e.kind == "session-end"][0]
        assert end.payload["reason"] == "target-reached"
        assert end.payload["round"] == result.model.round_index
        assert result.model.round_index == FROZEN_CONVERGENCE_ROUND
        assert result.model.history[-1][1] >= 0.9

    def test_plateau_fixture_stops_at_frozen_round(self, tmp_path):
        session = SessionConfig(
            min_clients=3, max_rounds=30, target_accuracy=0.999,
            convergence_epsilon=4e-3, patience=3, learning_rate=0.02,
            local_epochs=1, batch_size=16, rng_seed=21)
        result = run_demo(tmp_path, num_clients=3, rows_per_client=80, dim=4,
                          seed=55, session=session)
        entries = read_entries(result.audit_paths["coordinator"])
        end = [e for e in entries if e.kind == "session-end"][0]
        assert end.payload["reason"] == "loss-plateau"
        assert result.model.round_index == FROZEN_PLATEAU_ROUND

    def test_unreachable_target_stops_at_max_rounds(self, tmp_path):
        session = SessionConfig(
            min_clients=3, max_rounds=3, target_accuracy=1.0,
            convergence_epsilon=1e-15, patience=10, learning_rate=0.05,
            local_epochs=1, batch_size=16, rng_seed=3)
        result = run_demo(tmp_path, num_clients=3, rows_per_client=60, dim=4,
                          seed=9, session=session)
        entries = read_entries(result.audit_paths["coordinator"])
        end = [e for e in entries if e.kind == "session-end"][0]
        assert end.payload["reason"] == "max-rounds"
        assert result.model.round_index == 3


FROZEN_CONVERGENCE_ROUND = 1  # strongly separated fixture: one round suffices
FROZEN_PLATEAU_ROUND = 24


class TestAdmissionSoundness:
    def test_failed_client_absent_from_records_and_wire(self, tmp_path):
        capture = CaptureLog()
        result = run_demo(tmp_path, rows_per_client=60, dim=4, seed=13,
                          capture=capture, unpinned_client_id="mallet")
        assert result.rejected and "mallet" in result.rejected
        # never in any round record or audit payload
        for record in result.coordinator.records:
            assert "mallet" not in record.admitted
            assert "mallet" not in record.update_hashes
        entries = read_entries(result.audit_paths["coordinator"])
        round_payloads = [e.payload for e in entries if e.kind == "round"]
        assert all("mallet" not in p["admitted"] for p in round_payloads)
        # its connection carried handshake frames only: no model material
        rogue_frames = capture.frames("client:mallet")
        assert rogue_frames
        for _, wire in rogue_frames:
            assert wire[4] in (1, 2, 3, 4)


class TestDeterminism:
    def test_two_runs_identical_audit_payload_hashes(self, tmp_path):
        def payload_hashes(workdir):
            result = run_demo(workdir, seed=31)
            return [sha256(canonical_bytes(e.payload)).hex()
                    for e in read_entries(result.audit_paths["coordinator"])]

        first = payload_hashes(tmp_path / "run1")
        second = payload_hashes(tmp_path / "run2")
        assert first == second and len(first) > 5


def test_training_seed_derivation_is_stable():
    a = derive_training_seed(7, "client-1", 3)
    b = derive_training_seed(7, "client-1", 3)
    c = derive_training_seed(7, "client-2", 3)
    d = derive_training_seed(7, "client-1", 4)
    assert a == b
    assert len({a, c, d}) == 3
