"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance and runtime bound is pinned here; a criterion fails
loudly rather than being skipped or loosened.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fedshield import protocol
from fedshield.attestation import (
    MSG_HELLO,
    MSG_KEYSHARE,
    MSG_QUOTE,
    ROLE_POLICY_MANAGER,
    attested_handshake,
)
from fedshield.audit import read_entries, verify_audit
from fedshield.counters import CounterService
from fedshield.demo import (
    CLIENT_BUNDLE,
    ROLE_CONFIG,
    _partition_seeds,
    run_demo,
    scan_capture,
    scan_tree,
)
from fedshield.enclave import Quote, generate_signing_key, spawn_enclave
from fedshield.encoding import b64
from fedshield.errors import FedShieldError, RollbackDetectedError, ServiceError
from fedshield.fl import (
    Dataset,
    aggregate,
    evaluate,
    gradient,
    local_train,
    logistic_loss,
    make_update,
    synthetic_dataset,
)
from fedshield.orchestrator import SENT_TAIL_BYTES
from fedshield.outliers import clone_aggregate, flag_outliers, score_clients
from fedshield.policy import SessionConfig
from fedshield.services import ManagerChannel
from fedshield.shield import shield_decrypt, shield_encrypt
from fedshield.transport import CaptureLog, transport_pair

from test_counters import run_random_schedule
from test_orchestrator import make_deployment


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    start = time.monotonic()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.monotonic() - start
        status = "PASS" if failed is None and elapsed < limit_seconds else "FAIL"
        print(f"\nACCEPTANCE {number} [{name}]: {status} "
              f"({elapsed:.2f}s, limit {limit_seconds:.0f}s)")
        if failed is None:
            assert elapsed < limit_seconds, (
                f"criterion {number} exceeded its {limit_seconds}s budget")


def test_criterion_1_utility_parity(tmp_path):
    """Federated accuracy within 2 points of matched-epoch centralized SGD."""
    with criterion(1, "utility-parity", 30.0):
        seed = 42
        session = SessionConfig(
            min_clients=3, max_rounds=30, target_accuracy=0.995,
            convergence_epsilon=1e-12, patience=5, learning_rate=0.1,
            local_epochs=2, batch_size=32, clone_count=0, clone_subset_size=0,
            rng_seed=seed)
        result = run_demo(tmp_path, num_clients=3, rows_per_client=200, dim=8,
                          seed=seed, session=session)
        rounds = result.model.round_index
        assert rounds <= 30

        seeds = _partition_seeds(seed, ["client-1", "client-2", "client-3"])
        parts = [synthetic_dataset(200, 8, seeds[f"client-{i + 1}"])
                 for i in range(3)]
        pooled = Dataset(np.vstack([p.features for p in parts]),
                         np.concatenate([p.labels for p in parts]))
        centralized_cfg = SessionConfig(learning_rate=0.1,
                                        local_epochs=rounds * 2,
                                        batch_size=32, rng_seed=0)
        centralized = local_train(np.zeros(9), pooled, centralized_cfg, seed=4242)

        test_set = synthetic_dataset(600, 8, seed=777777)
        acc_federated, _ = evaluate(result.model.params, test_set)
        acc_centralized, _ = evaluate(centralized.params, test_set)
        gap = abs(acc_federated - acc_centralized)
        print(f"  federated={acc_federated:.4f} centralized={acc_centralized:.4f} "
              f"gap={gap:.4f}")
        assert gap <= 0.02


def test_criterion_2_attestation_gating(tmp_path):
    """Exhaustive quote matrix: release and admission only in the good cell."""
    with criterion(2, "attestation-gating", 5.0):
        dep = make_deployment(tmp_path, num_clients=1)
        try:
            good_enclave = spawn_enclave(dep.platform, CLIENT_BUNDLE, ROLE_CONFIG)
            bad_enclave = spawn_enclave(dep.platform, CLIENT_BUNDLE + b" evil",
                                        ROLE_CONFIG)
            # learn the secret bytes from a direct (off-wire) reference release
            reference = dep.endpoint.manager.release_secrets(
                dep.policy_hash, "client",
                good_enclave.generate_quote(b"\x00" * 64, b"\x01" * 32),
                b"\x01" * 32)
            secret_hex = reference.environment["DATASET_KEY"].encode()
            secret_raw = bytes.fromhex(reference.environment["DATASET_KEY"])

            released_cells = []
            admitted_cells = []
            for pinned in (True, False):
                for valid_sig in (True, False):
                    for fresh in (True, False):
                        cell = (pinned, valid_sig, fresh)
                        enclave = good_enclave if pinned else bad_enclave

                        # both legs gate on the handshake quote
                        def provider(e, report_data, issued_nonce,
                                     _cell=cell, _enclave=enclave):
                            n = issued_nonce if _cell[2] else bytes(32)
                            q = bytearray(
                                _enclave.generate_quote(report_data, n).to_bytes())
                            if not _cell[1]:
                                q[-3] ^= 0x20
                            return bytes(q)

                        # release leg
                        capture = CaptureLog()
                        dep.network.capture = capture
                        try:
                            mgr = ManagerChannel(attested_handshake(
                                good_enclave, dep.network.connect("manager"),
                                dep.manager_policy, role="client",
                                quote_provider=provider), b"")
                            try:
                                bundle = mgr.request_secrets(dep.policy_hash,
                                                             "client")
                            finally:
                                mgr.close()
                            released_cells.append(cell)
                            assert bundle.environment["DATASET_KEY"]
                        except FedShieldError:
                            pass
                        if cell != (True, True, True):
                            assert scan_capture(capture, {"secret-hex": secret_hex,
                                                          "secret-raw": secret_raw}) == []

                        # admission leg
                        capture2 = CaptureLog()
                        dep.network.capture = capture2
                        agent = dep.make_agent(dep.client_ids[0],
                                               enclave=good_enclave,
                                               quote_provider=provider)
                        if not dep.join_all([], refused=[agent]):
                            admitted_cells.append(cell)
                        if cell != (True, True, True):
                            for _, wire in capture2.frames(f"client:{agent.client_id}"):
                                assert wire[4] in (1, 2, 3, 4), "non-handshake frame leaked"
                            assert dep.coordinator.admitted == {}
                        else:
                            dep.coordinator._close_clients()

            assert released_cells == [(True, True, True)]
            assert admitted_cells == [(True, True, True)]
        finally:
            dep.close()


def test_relayed_quote_releases_nothing(tmp_path):
    """A quote relayed in a request body does not stand in for the channel's.

    A peer on an unpinned enclave learns the endpoint's nonce from its own
    handshake, poses as the manager to an honest client enclave to get that
    enclave's quote over the nonce, and relays it in REQUEST_SECRETS."""
    dep = make_deployment(tmp_path, num_clients=1)
    try:
        relay = spawn_enclave(dep.platform, CLIENT_BUNDLE + b" relay", ROLE_CONFIG)
        issued = []

        def record(enclave, report_data, nonce):
            issued.append(nonce)
            return enclave.generate_quote(report_data, nonce).to_bytes()

        channel = attested_handshake(relay, dep.network.connect("manager"),
                                     dep.manager_policy, role="client",
                                     expected_peer_role=ROLE_POLICY_MANAGER,
                                     quote_provider=record)
        victim_end, relay_end = transport_pair()
        relay_end.send_frame(bytes([MSG_HELLO]) + issued[0]
                             + bytes([len(ROLE_POLICY_MANAGER)])
                             + ROLE_POLICY_MANAGER.encode())
        relay_end.send_frame(bytes([MSG_KEYSHARE]) + bytes(32))
        relay_end.close()  # the victim fails once it has sent its quote
        with pytest.raises(FedShieldError):
            attested_handshake(dep.agents[dep.client_ids[0]].enclave, victim_end,
                               dep.manager_policy, role="client")
        frames = [relay_end.recv_frame(timeout=1.0) for _ in range(3)]
        assert frames[2][0] == MSG_QUOTE
        assert Quote.from_bytes(frames[2][1:]).nonce == issued[0]

        with pytest.raises(ServiceError, match="access-denied") as err:
            protocol.request(channel, protocol.REQUEST_SECRETS, {
                "policy_hash": dep.policy_hash.hex(),
                "role": "client",
                "quote": b64(frames[2][1:]),
            })
        assert err.value.check == "measurement"
        assert read_entries(dep.manager_dir / "audit.log")[-1].kind == "secrets-denied"
        channel.close()
    finally:
        dep.close()


def test_criterion_3_fedavg_oracle():
    """Aggregation matches a brute-force weighted mean to 1e-12 relative."""
    with criterion(3, "fedavg-oracle", 1.0):
        rng = np.random.default_rng(20250809)
        for case in range(100):
            n_clients = int(rng.integers(1, 11))
            dim = int(rng.integers(1, 65))
            counts = [int(rng.integers(1, 1001)) for _ in range(n_clients)]
            vectors = [rng.standard_normal(dim) * rng.uniform(0.1, 100)
                       for _ in range(n_clients)]
            updates = [make_update(f"client-{i:02d}", case, v, n)
                       for i, (v, n) in enumerate(zip(vectors, counts))]
            result = aggregate(updates)

            expected = [0.0] * dim  # independent scalar accumulation
            for v, n in zip(vectors, counts):
                for j in range(dim):
                    expected[j] += float(n) * float(v[j])
            total = float(sum(counts))
            expected = [e / total for e in expected]

            for j in range(dim):
                denom = max(abs(expected[j]), 1e-300)
                assert abs(result[j] - expected[j]) / denom <= 1e-12


def test_criterion_4_gradient_correctness():
    """Analytic gradient vs central finite differences at 20 random points."""
    with criterion(4, "gradient-correctness", 1.0):
        rng = np.random.default_rng(1789)
        h = 1e-6
        for _ in range(20):
            n = int(rng.integers(5, 40))
            d = int(rng.integers(1, 10))
            features = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0)
            labels = rng.integers(0, 2, n).astype(np.float64)
            params = rng.standard_normal(d + 1)
            analytic = gradient(params, features, labels)
            numeric = np.zeros(d + 1)
            for i in range(d + 1):
                hi, lo = params.copy(), params.copy()
                hi[i] += h
                lo[i] -= h
                numeric[i] = (logistic_loss(hi, features, labels)
                              - logistic_loss(lo, features, labels)) / (2 * h)
            rel = (np.linalg.norm(analytic - numeric)
                   / max(np.linalg.norm(analytic), 1e-12))
            assert rel <= 1e-5


def test_criterion_5_rollback_freshness(tmp_path):
    """Only the latest write decrypts; a read returns the last acknowledged value."""
    with criterion(5, "rollback-freshness", 30.0):
        service = CounterService(tmp_path / "wal", generate_signing_key())
        key = b"\x5a" * 32

        def lookup(counter_id):
            return service.read_stable(counter_id).value

        for length in range(1, 11):
            counter_id = service.create_counter()
            versions = []
            for i in range(length):
                if i > 0:
                    service.increment_async(counter_id)
                versions.append(shield_encrypt(
                    f"write {i}".encode(), key, b"\x00" * 16,
                    counter_id, lookup(counter_id)))
            assert shield_decrypt(versions[-1], key, lookup) \
                == f"write {length - 1}".encode()
            for stale in versions[:-1]:
                with pytest.raises(RollbackDetectedError):
                    shield_decrypt(stale, key, lookup)
        service.close()

        for seed in range(1000):
            run_random_schedule(tmp_path, seed, f"acc-{seed}")


def test_criterion_6_poisoning_detection():
    """8 honest + 1 attacker at -10x: flagged >=18/20; control clean >=18/20."""
    with criterion(6, "poisoning-detection", 60.0):
        def one_seed(seed, with_attacker):
            cfg = SessionConfig(learning_rate=0.1, local_epochs=2,
                                batch_size=32, clone_count=9,
                                clone_subset_size=8, outlier_threshold=0.02,
                                rng_seed=seed)
            validation = synthetic_dataset(300, 8, seed=seed * 1000 + 999)
            updates = []
            for i in range(9):
                data = synthetic_dataset(100, 8, seed=seed * 1000 + i)
                update = local_train(np.zeros(9), data, cfg, seed=seed * 7 + i,
                                     client_id=f"client-{i}", round_index=1)
                if with_attacker and i == 0:
                    update = make_update(update.client_id, 1,
                                         update.params * -10.0,
                                         update.num_examples)
                updates.append(update)
            runs = clone_aggregate(updates, validation, cfg, round_seed=1)
            scores = score_clients(runs, [u.client_id for u in updates])
            return flag_outliers(scores, cfg.outlier_threshold)

        attacker_flagged = sum(
            1 for seed in range(20) if "client-0" in one_seed(seed, True))
        control_clean = sum(
            1 for seed in range(20) if not one_seed(seed, False))
        print(f"  attacker flagged {attacker_flagged}/20, "
              f"control clean {control_clean}/20")
        assert attacker_flagged >= 18
        assert control_clean >= 18


def test_criterion_7_confidentiality_scan(tmp_path):
    """Full demo under capture: no rows, updates, or secrets outside enclaves."""
    with criterion(7, "confidentiality-scan", 60.0):
        capture = CaptureLog()
        result = run_demo(tmp_path, capture=capture, seed=11)
        assert result.model is not None
        patterns = result.sensitive
        assert len(patterns) >= 10
        for pattern in patterns.values():
            assert len(pattern) >= 16
        # Each sent update is kept as a bounded tail, not as the whole blob.
        tails = [p for name, p in patterns.items() if name.startswith("update:")]
        assert tails and all(len(p) == SENT_TAIL_BYTES for p in tails)
        tree_findings = scan_tree(tmp_path, patterns)
        wire_findings = scan_capture(capture, patterns)
        print(f"  scanned {len(patterns)} patterns over "
              f"{len(capture.frames())} frames and the workspace tree")
        assert tree_findings == []
        assert wire_findings == []
        with pytest.raises(ValueError, match="too short"):
            scan_tree(tmp_path, {"short": b"y" * 15})
        with pytest.raises(ValueError, match="too short"):
            scan_capture(capture, {"short": b"y" * 15})


def test_criterion_8_audit_integrity(tmp_path):
    """Untouched demo log verifies; any single-byte tamper is localized."""
    with criterion(8, "audit-integrity", 5.0):
        result = run_demo(tmp_path, rows_per_client=60, dim=4, seed=5)
        log_path = result.audit_paths["coordinator"]
        assert verify_audit(log_path).ok
        original = log_path.read_bytes()
        lines = original.splitlines(keepends=True)
        starts, pos = [], 0
        for line in lines:
            starts.append(pos)
            pos += len(line)
        rng = random.Random(88)
        for _ in range(50):
            offset = rng.randrange(len(original))
            replacement = rng.randrange(256)
            while replacement == original[offset]:
                replacement = rng.randrange(256)
            tampered = bytearray(original)
            tampered[offset] = replacement
            log_path.write_bytes(bytes(tampered))
            expected_entry = max(i for i, s in enumerate(starts) if s <= offset)
            verdict = verify_audit(log_path)
            assert not verdict.ok
            assert verdict.first_break == expected_entry
        log_path.write_bytes(original)
        assert verify_audit(log_path).ok
