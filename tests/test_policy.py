"""Policy canonicalization, secret generation, and the release gate."""

import errno
import json
import os
import random

import pytest

from fedshield import demo, shield
from fedshield.demo import author_policy, role_measurements
from fedshield.enclave import generate_platform, generate_signing_key, spawn_enclave
from fedshield.errors import (
    AccessDeniedError,
    KeyResolutionError,
    NotFoundError,
    PolicyInvalidError,
    RoleUnknownError,
)
from fedshield.policy import (
    DATASET_KEY,
    DATASET_SECRET,
    PolicyManager,
    SessionConfig,
    parse_policy,
    secret_key_id,
)
from fedshield.services import ServiceEndpoint, connect_manager
from fedshield.transport import Hub

MANAGER_BUNDLE = b"policy manager program"
COORD_BUNDLE = b"coordinator program"
CLIENT_BUNDLE = b"client program"
CONFIG = b"cfg\n"
NONCE = b"\x33" * 32
RD = b"\x00" * 64


def policy_doc(name="pact", extra_secret=None, extra_injection=None,
               measurements=None):
    doc = {
        "name": name,
        "allowed_measurements": measurements or {
            "policy_manager_self": "11" * 32,
            "coordinator": "22" * 32,
            "client": "33" * 32,
        },
        "client_roster": [
            {"client_id": "alice", "dataset_hash": "aa" * 32},
            {"client_id": "bob", "dataset_hash": "bb" * 32},
        ],
        "session": SessionConfig(clone_count=2, clone_subset_size=1).to_dict(),
        "secrets": [
            {"secret_name": "data-key", "kind": "symmetric-key-256"},
            {"secret_name": "model-key", "kind": "symmetric-key-256"},
        ] + ([extra_secret] if extra_secret else []),
        "injection": [
            {"role": "client", "mechanism": "environment-variable",
             "name": "DATA_KEY", "template": "$$data-key$$"},
            {"role": "coordinator", "mechanism": "environment-variable",
             "name": "MODEL_KEY", "template": "$$model-key$$"},
        ] + ([extra_injection] if extra_injection else []),
    }
    return doc


def standard_policy():
    return json.loads(author_policy("standard", role_measurements(),
                                    [("alice", bytes(32))], SessionConfig()))


def provided_key_policy(key_hex):
    """The standard policy with its dataset key provided in the document."""
    doc = standard_policy()
    for spec in doc["secrets"]:
        if spec["secret_name"] == DATASET_SECRET:
            spec.update(kind="provided-value", value=key_hex)
    return json.dumps(doc)


def templated_rule_policy():
    """The standard policy with text around its client rule's token."""
    doc = standard_policy()
    doc["injection"][0]["template"] = "key=$$dataset-key$$"
    return json.dumps(doc)


def shuffled_json(doc, rng):
    """Re-serialize with randomized key order everywhere."""
    def shuffle(value):
        if isinstance(value, dict):
            items = [(k, shuffle(v)) for k, v in value.items()]
            rng.shuffle(items)
            return dict(items)
        if isinstance(value, list):
            return [shuffle(v) for v in value]
        return value

    return json.dumps(shuffle(doc))


class TestCanonicalization:
    def test_hash_invariant_under_key_reordering(self):
        doc = policy_doc()
        rng = random.Random(31)
        reference = parse_policy(json.dumps(doc)).policy_hash
        for _ in range(20):
            assert parse_policy(shuffled_json(doc, rng)).policy_hash == reference

    def test_different_content_different_hash(self):
        a = policy_doc()
        b = policy_doc()
        b["session"]["max_rounds"] += 1
        assert (parse_policy(json.dumps(a)).policy_hash
                != parse_policy(json.dumps(b)).policy_hash)

    def test_parse_round_trips_canonical_document(self):
        policy = parse_policy(json.dumps(policy_doc()))
        again = parse_policy(policy.document)
        assert again.policy_hash == policy.policy_hash
        assert again.session == SessionConfig(clone_count=2, clone_subset_size=1)


class TestPin:
    def test_pin_is_the_measurement_of_the_role(self):
        policy = parse_policy(json.dumps(policy_doc()))
        pin = policy.pin("coordinator", b"\x07" * 32)
        assert pin.trusted_root == b"\x07" * 32
        assert pin.measurement == bytes.fromhex("22" * 32)

    def test_role_the_policy_does_not_pin_is_unknown(self):
        policy = parse_policy(json.dumps(policy_doc(measurements={"client": "33" * 32})))
        assert policy.pin("client", b"\x07" * 32).measurement == bytes.fromhex("33" * 32)
        for role in ("coordinator", "policy_manager_self", "auditor"):
            with pytest.raises(RoleUnknownError, match=role):
                policy.pin(role, b"\x07" * 32)


class TestValidation:
    def test_undeclared_secret_reference_rejected(self):
        doc = policy_doc(extra_injection={
            "role": "client", "mechanism": "environment-variable",
            "name": "X", "template": "$$no-such-secret$$"})
        with pytest.raises(PolicyInvalidError):
            parse_policy(json.dumps(doc))

    def test_duplicate_secret_names_rejected(self):
        doc = policy_doc(extra_secret={"secret_name": "data-key",
                                       "kind": "symmetric-key-256"})
        with pytest.raises(PolicyInvalidError):
            parse_policy(json.dumps(doc))

    def test_empty_roster_rejected(self):
        doc = policy_doc()
        doc["client_roster"] = []
        with pytest.raises(PolicyInvalidError):
            parse_policy(json.dumps(doc))

    @pytest.mark.parametrize("extra_secret, extra_injection, named", [
        ({"secret_name": "salt", "kind": "provided-value", "value": "ab" * 32},
         None, "'salt'"),
        ({"secret_name": "salt", "kind": "random-hex-64"}, None, "'salt'"),
        ({"secret_name": "salt", "kind": "symmetric-key-256", "value": "ab" * 32},
         None, "'salt'"),
        (None, {"role": "client", "mechanism": "argument", "name": "",
                "template": "--key=$$data-key$$"}, "injection rule 2"),
        (None, {"role": "coordinator", "mechanism": "file-template",
                "name": "key.txt", "template": "$$model-key$$"}, "injection rule 2"),
        (None, {"role": "client", "mechanism": "environment-variable",
                "name": "", "template": "$$data-key$$"}, "injection rule 2"),
        (None, {"role": "client", "mechanism": "environment-variable",
                "name": "X", "template": "key=$$data-key$$"}, "injection rule 2"),
        (None, {"role": "client", "mechanism": "environment-variable",
                "name": "X", "template": "$$data-key$$$$model-key$$"},
         "injection rule 2"),
    ], ids=["provided-value", "random-hex", "key-with-value", "argument",
            "file-template", "unnamed-variable", "text-around-token", "two-tokens"])
    def test_removed_feature_is_refused(self, extra_secret, extra_injection, named):
        doc = policy_doc(extra_secret=extra_secret, extra_injection=extra_injection)
        with pytest.raises(PolicyInvalidError, match=named):
            parse_policy(json.dumps(doc))

    def test_clone_subset_bounded_by_roster(self):
        doc = policy_doc()
        doc["session"]["clone_subset_size"] = 3  # roster has 2
        with pytest.raises(PolicyInvalidError):
            parse_policy(json.dumps(doc))

    def test_bad_target_accuracy(self):
        doc = policy_doc()
        doc["session"]["target_accuracy"] = 1.5
        with pytest.raises(PolicyInvalidError):
            parse_policy(json.dumps(doc))

    def test_session_field_missing_or_non_numeric(self):
        missing, non_numeric = policy_doc(), policy_doc()
        del missing["session"]["patience"]
        non_numeric["session"]["learning_rate"] = "fast"
        for doc in (missing, non_numeric):
            with pytest.raises(PolicyInvalidError, match="bad session config"):
                parse_policy(json.dumps(doc))


@pytest.fixture
def manager_setup(tmp_path):
    platform = generate_platform()
    manager_enclave = spawn_enclave(platform, MANAGER_BUNDLE, CONFIG)
    manager = PolicyManager(tmp_path / "store", manager_enclave,
                            platform.root_public_key)
    coordinator = spawn_enclave(platform, COORD_BUNDLE, CONFIG)
    client = spawn_enclave(platform, CLIENT_BUNDLE, CONFIG)
    doc = policy_doc(measurements={
        "policy_manager_self": manager_enclave.measurement.hex(),
        "coordinator": coordinator.measurement.hex(),
        "client": client.measurement.hex(),
    })
    return platform, manager, coordinator, client, doc


class TestPolicyStore:
    def test_upload_is_idempotent(self, manager_setup):
        _, manager, _, _, doc = manager_setup
        first = manager.upload_policy(json.dumps(doc))
        second = manager.upload_policy(json.dumps(doc))
        assert first == second
        stored = list((manager.store_dir / "policies").glob("*.pol"))
        assert len(stored) == 1

    def test_key_order_does_not_duplicate(self, manager_setup):
        _, manager, _, _, doc = manager_setup
        rng = random.Random(77)
        first = manager.upload_policy(json.dumps(doc))
        second = manager.upload_policy(shuffled_json(doc, rng))
        assert first == second

    def test_documents_sharing_a_name_are_two_policies(self, manager_setup):
        _, manager, _, _, doc = manager_setup
        first = manager.upload_policy(json.dumps(doc))
        doc["session"]["max_rounds"] += 5  # same name, different content
        second = manager.upload_policy(json.dumps(doc))
        assert first != second
        assert manager.get_policy(first).name == manager.get_policy(second).name
        assert len(list((manager.store_dir / "policies").glob("*.pol"))) == 2

    def test_reopened_store_serves_every_policy(self, manager_setup):
        platform, manager, _, _, doc = manager_setup
        first = manager.upload_policy(json.dumps(doc))
        doc["session"]["max_rounds"] += 5
        second = manager.upload_policy(json.dumps(doc))
        reopened = PolicyManager(manager.store_dir, manager.enclave,
                                 platform.root_public_key)
        for policy_hash in (first, second):
            assert reopened.get_policy(policy_hash).document == \
                manager.get_policy(policy_hash).document
            assert reopened.upload_policy(
                manager.get_policy(policy_hash).document) == policy_hash
        with pytest.raises(NotFoundError):
            reopened.get_policy(b"\x00" * 32)

    def test_provided_key_is_refused_and_never_stored(self, manager_setup):
        _, manager, _, _, _ = manager_setup
        key_hex = "5e" * 32
        with pytest.raises(PolicyInvalidError, match=DATASET_SECRET):
            manager.upload_policy(provided_key_policy(key_hex))
        assert list((manager.store_dir / "policies").iterdir()) == []
        for path in manager.store_dir.rglob("*"):
            if path.is_file():
                assert key_hex.encode() not in path.read_bytes()
                assert bytes.fromhex(key_hex) not in path.read_bytes()

    @pytest.mark.parametrize("stored", [provided_key_policy("5e" * 32).encode(),
                                        templated_rule_policy().encode(),
                                        b"\xff\xfe not UTF-8"],
                             ids=["provided-key", "templated-rule", "not-utf-8"])
    def test_stored_policy_the_manager_refuses_is_named(self, manager_setup, stored):
        platform, manager, _, _, _ = manager_setup
        (manager.store_dir / "policies" / "old.pol").write_bytes(stored)
        with pytest.raises(PolicyInvalidError, match="old.pol"):
            PolicyManager(manager.store_dir, manager.enclave, platform.root_public_key)

    def test_invalid_document_rejected(self, manager_setup):
        _, manager, _, _, _ = manager_setup
        with pytest.raises(PolicyInvalidError):
            manager.upload_policy("{\"name\": \"x\"}")

    def test_torn_policy_write_leaves_no_policy_file(self, manager_setup, monkeypatch):
        platform, manager, _, _, doc = manager_setup
        real_fdopen = os.fdopen

        class TornFile:
            """Writes 40 bytes of the document, then fails as a full disk."""

            def __init__(self, fd, mode):
                self.fh = real_fdopen(fd, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:40])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(shield.os, "fdopen", TornFile)
        with pytest.raises(OSError, match="No space left"):
            manager.upload_policy(json.dumps(doc))
        monkeypatch.undo()
        assert list((manager.store_dir / "policies").iterdir()) == []
        reopened = PolicyManager(manager.store_dir, manager.enclave,
                                 platform.root_public_key)
        policy_hash = reopened.upload_policy(json.dumps(doc))
        assert reopened.get_policy(policy_hash).name == doc["name"]


class TestSecretGeneration:
    def test_generated_secrets_are_sealed_and_unreadable(self, manager_setup):
        _, manager, coordinator, client, doc = manager_setup
        policy_hash = manager.upload_policy(json.dumps(doc))
        manager.generate_secrets(policy_hash)
        quote = client.generate_quote(RD, NONCE)
        bundle = manager.release_secrets(policy_hash, "client", quote, NONCE)
        key_hex = bundle.environment["DATA_KEY"]
        key_bytes = bytes.fromhex(key_hex)
        assert len(key_bytes) == 32
        # neither the raw key nor its hex form may appear anywhere on disk
        for path in manager.store_dir.rglob("*"):
            if path.is_file():
                blob = path.read_bytes()
                assert key_bytes not in blob
                assert key_hex.encode() not in blob

    def test_second_generation_changes_nothing(self, manager_setup):
        _, manager, _, _, doc = manager_setup
        policy_hash = manager.upload_policy(json.dumps(doc))
        manager.generate_secrets(policy_hash)
        files = sorted(manager.store_dir.rglob("*"))
        before = {path: path.read_bytes() for path in files if path.is_file()}
        manager.generate_secrets(policy_hash)
        assert sorted(manager.store_dir.rglob("*")) == files
        assert {path: path.read_bytes() for path in before} == before

    def test_generation_killed_midway_is_completed_by_a_retry(self, manager_setup,
                                                              monkeypatch):
        platform, manager, _, client, doc = manager_setup
        policy_hash = manager.upload_policy(json.dumps(doc))
        real_seal = manager.enclave.seal
        sealed = []

        def seal_then_die(raw):
            if sealed:  # the first sealed secret is on disk
                raise KeyboardInterrupt("killed")
            sealed.append(raw)
            return real_seal(raw)

        monkeypatch.setattr(manager.enclave, "seal", seal_then_die)
        with pytest.raises(KeyboardInterrupt):
            manager.generate_secrets(policy_hash)
        monkeypatch.undo()
        assert len(list(manager._secret_dir(policy_hash).iterdir())) == 1

        restarted = PolicyManager(manager.store_dir, manager.enclave,
                                  platform.root_public_key)
        quote = client.generate_quote(RD, NONCE)
        with pytest.raises(NotFoundError):
            restarted.release_secrets(policy_hash, "client", quote, NONCE)
        restarted.generate_secrets(policy_hash)
        bundle = restarted.release_secrets(policy_hash, "client", quote, NONCE)
        assert len(bytes.fromhex(bundle.environment["DATA_KEY"])) == 32
        restarted.generate_secrets(policy_hash)  # a completed set is kept
        again = restarted.release_secrets(policy_hash, "client", quote, NONCE)
        assert again.environment == bundle.environment

    def test_release_before_generation_rejected(self, manager_setup):
        _, manager, _, client, doc = manager_setup
        policy_hash = manager.upload_policy(json.dumps(doc))
        with pytest.raises(NotFoundError):
            manager.release_secrets(policy_hash, "client",
                                    client.generate_quote(RD, NONCE), NONCE)


class TestReleaseGate:
    def test_exhaustive_release_matrix(self, manager_setup):
        """Secrets flow in exactly the (pinned, valid, fresh) cell."""
        platform, manager, _, client, doc = manager_setup
        policy_hash = manager.upload_policy(json.dumps(doc))
        manager.generate_secrets(policy_hash)
        unpinned = spawn_enclave(platform, CLIENT_BUNDLE + b" modified", CONFIG)

        for pinned in (True, False):
            for valid_sig in (True, False):
                for fresh in (True, False):
                    enclave = client if pinned else unpinned
                    nonce = NONCE if fresh else b"\x00" * 32
                    quote_bytes = bytearray(
                        enclave.generate_quote(RD, nonce).to_bytes())
                    if not valid_sig:
                        quote_bytes[-5] ^= 0x40
                    should_release = pinned and valid_sig and fresh
                    if should_release:
                        bundle = manager.release_secrets(
                            policy_hash, "client", bytes(quote_bytes), NONCE)
                        assert "DATA_KEY" in bundle.environment
                    else:
                        with pytest.raises(AccessDeniedError) as err:
                            manager.release_secrets(
                                policy_hash, "client", bytes(quote_bytes), NONCE)
                        expected = ("signature" if not valid_sig
                                    else "nonce" if not fresh else "measurement")
                        assert err.value.check == expected

    def test_role_scoping(self, manager_setup):
        # a genuine coordinator asking for the coordinator bundle gets only
        # coordinator-injected material; asking for client material fails
        # because its measurement is not pinned for that role
        _, manager, coordinator, _, doc = manager_setup
        policy_hash = manager.upload_policy(json.dumps(doc))
        manager.generate_secrets(policy_hash)
        quote = coordinator.generate_quote(RD, NONCE)
        bundle = manager.release_secrets(policy_hash, "coordinator", quote, NONCE)
        assert "DATA_KEY" not in bundle.environment
        with pytest.raises(AccessDeniedError) as err:
            manager.release_secrets(policy_hash, "client", quote, NONCE)
        assert err.value.check == "measurement"

    def test_release_unseals_only_the_secrets_the_role_reads(self, tmp_path, monkeypatch):
        # the standard policy: the client reads the dataset key, the
        # coordinator the checkpoint and validation keys
        platform = generate_platform()
        manager = PolicyManager(
            tmp_path / "store",
            spawn_enclave(platform, demo.MANAGER_BUNDLE, demo.ROLE_CONFIG),
            platform.root_public_key)
        policy_hash = manager.upload_policy(author_policy(
            "std", role_measurements(), [("alice", bytes(32))], SessionConfig()))
        manager.generate_secrets(policy_hash)
        unsealed = []
        unseal = manager.enclave.unseal
        monkeypatch.setattr(manager.enclave, "unseal",
                            lambda blob: unsealed.append(blob) or unseal(blob))

        def release(role, bundle):
            unsealed.clear()
            enclave = spawn_enclave(platform, bundle, demo.ROLE_CONFIG)
            manager.release_secrets(policy_hash, role,
                                    enclave.generate_quote(RD, NONCE), NONCE)
            return len(unsealed)

        assert release("client", demo.CLIENT_BUNDLE) == 1
        assert release("coordinator", demo.COORDINATOR_BUNDLE) == 2
        with pytest.raises(AccessDeniedError):
            release("client", demo.COORDINATOR_BUNDLE)
        assert unsealed == []

    def test_unknown_role(self, manager_setup):
        _, manager, _, client, doc = manager_setup
        policy_hash = manager.upload_policy(json.dumps(doc))
        manager.generate_secrets(policy_hash)
        with pytest.raises(RoleUnknownError):
            manager.release_secrets(policy_hash, "auditor",
                                    client.generate_quote(RD, NONCE), NONCE)


def test_secret_key_id_is_deterministic():
    a = secret_key_id(b"\x01" * 32, "data-key")
    b = secret_key_id(b"\x01" * 32, "data-key")
    c = secret_key_id(b"\x01" * 32, "other-key")
    assert a == b and a != c and len(a) == 16


class TestKeyResolution:
    def test_injected_key_resolves(self, manager_setup):
        _, manager, _, client, doc = manager_setup
        policy_hash = manager.upload_policy(json.dumps(doc))
        manager.generate_secrets(policy_hash)
        bundle = manager.release_secrets(policy_hash, "client",
                                         client.generate_quote(RD, NONCE), NONCE)
        assert len(bundle.key_bytes("DATA_KEY")) == 32

    def test_unknown_key_id_upstream(self, manager_setup):
        _, manager, _, client, doc = manager_setup
        policy_hash = manager.upload_policy(json.dumps(doc))
        manager.generate_secrets(policy_hash)
        bundle = manager.release_secrets(policy_hash, "client",
                                         client.generate_quote(RD, NONCE), NONCE)
        with pytest.raises(KeyResolutionError):
            bundle.key_bytes("NO_SUCH_KEY")


class ServedStore:
    """A manager endpoint over one store, which ``serve`` starts anew, with
    a client enclave the standard policy pins and a modified one it does
    not: any peer may attest the endpoint and send it requests."""

    def __init__(self, store):
        self.platform = generate_platform()
        self.store = store
        self.counter_key = generate_signing_key()
        self.enclave = spawn_enclave(self.platform, demo.MANAGER_BUNDLE, demo.ROLE_CONFIG)
        self.pinned = spawn_enclave(self.platform, demo.CLIENT_BUNDLE, demo.ROLE_CONFIG)
        self.unpinned = spawn_enclave(self.platform, demo.CLIENT_BUNDLE + b" modified",
                                      demo.ROLE_CONFIG)
        self.pin = parse_policy(json.dumps(standard_policy())).pin(
            "policy_manager_self", self.platform.root_public_key)
        self.serve()

    def serve(self):
        self.hub = Hub()
        self.endpoint = ServiceEndpoint(self.hub.listen("manager"), self.store,
                                        self.enclave, self.platform.root_public_key,
                                        self.counter_key)
        self.endpoint.start()

    def connect(self, enclave):
        return connect_manager(enclave, self.hub.connect("manager"), self.pin, "client",
                               self.endpoint.counters.public_key)


@pytest.fixture
def served(tmp_path):
    served = ServedStore(tmp_path / "store")
    yield served
    served.endpoint.stop()


class TestNoFirstWriterRule:
    """What an unpinned peer uploads or generates first cannot make the
    honest set-up fail."""

    def test_a_squatted_name_does_not_stop_the_honest_upload(self, served):
        squat = standard_policy()  # the honest name, the peer's own measurement
        squat["allowed_measurements"]["client"] = served.unpinned.measurement.hex()
        peer = served.connect(served.unpinned)
        squat_hash = peer.upload_policy(json.dumps(squat))
        peer.generate_secrets(squat_hash)
        peer.close()
        document = json.dumps(standard_policy())
        for restarted in (False, True):
            if restarted:
                served.endpoint.stop()
                served.serve()
            honest = served.connect(served.pinned)
            policy_hash = honest.upload_policy(document)
            honest.generate_secrets(policy_hash)
            bundle = honest.request_secrets(policy_hash, "client")
            assert len(bundle.key_bytes(DATASET_KEY)) == 32
            honest.close()
            assert policy_hash != squat_hash
            assert served.endpoint.manager.get_policy(squat_hash).name == "standard"

    def test_a_peer_generating_first_does_not_stop_the_honest_generation(self, served):
        document = json.dumps(standard_policy())
        peer = served.connect(served.unpinned)
        policy_hash = peer.upload_policy(document)
        peer.generate_secrets(policy_hash)
        peer.close()
        secret_dir = served.store / "secrets" / policy_hash.hex()
        sealed = {path.name: path.read_bytes() for path in secret_dir.iterdir()}
        honest = served.connect(served.pinned)
        assert honest.upload_policy(document) == policy_hash
        honest.generate_secrets(policy_hash)
        assert {path.name: path.read_bytes() for path in secret_dir.iterdir()} == sealed
        bundle = honest.request_secrets(policy_hash, "client")
        assert len(bundle.key_bytes(DATASET_KEY)) == 32
        honest.close()
