"""Policy canonicalization, secret generation, and the release gate."""

import json
import random

import pytest

from fedshield.enclave import generate_platform, spawn_enclave
from fedshield.errors import (
    AccessDeniedError,
    KeyResolutionError,
    AlreadyGeneratedError,
    NotFoundError,
    PolicyConflictError,
    PolicyInvalidError,
    RoleUnknownError,
    TemplateError,
)
from fedshield.policy import (
    PolicyManager,
    SessionConfig,
    parse_policy,
    render_template,
    secret_key_id,
)

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
            {"secret_name": "api-token", "kind": "random-hex-32"},
            {"secret_name": "motd", "kind": "provided-value",
             "value": "agreed banner text"},
        ] + ([extra_secret] if extra_secret else []),
        "injection": [
            {"role": "client", "mechanism": "environment-variable",
             "name": "DATA_KEY", "template": "$$data-key$$"},
            {"role": "client", "mechanism": "argument", "name": "",
             "template": "--token=$$api-token$$"},
            {"role": "coordinator", "mechanism": "file-template",
             "name": "banner.txt", "template": "motd: $$motd$$\n"},
        ] + ([extra_injection] if extra_injection else []),
    }
    return doc


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
        assert pin.expected_measurements == frozenset({bytes.fromhex("22" * 32)})

    def test_role_the_policy_does_not_pin_is_unknown(self):
        policy = parse_policy(json.dumps(policy_doc(measurements={"client": "33" * 32})))
        assert policy.pin("client", b"\x07" * 32).min_svn == 0
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

    def test_provided_value_requires_value(self):
        doc = policy_doc(extra_secret={"secret_name": "oops",
                                       "kind": "provided-value"})
        with pytest.raises(PolicyInvalidError):
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

    def test_random_hex_length_is_ascii_and_bounded(self):
        for kind in ("random-hex-\u0662\u0662", "random-hex-10000", "random-hex-" + "2" * 5000):
            doc = policy_doc(extra_secret={"secret_name": "salt", "kind": kind})
            with pytest.raises(PolicyInvalidError, match="unknown kind"):
                parse_policy(json.dumps(doc))
        doc = policy_doc(extra_secret={"secret_name": "salt", "kind": "random-hex-9998"})
        assert parse_policy(json.dumps(doc)).secrets[-1].kind == "random-hex-9998"

    def test_session_field_missing_or_non_numeric(self):
        missing, non_numeric = policy_doc(), policy_doc()
        del missing["session"]["patience"]
        non_numeric["session"]["learning_rate"] = "fast"
        for doc in (missing, non_numeric):
            with pytest.raises(PolicyInvalidError, match="bad session config"):
                parse_policy(json.dumps(doc))


class TestRenderTemplate:
    def test_simple_substitution(self):
        assert render_template("key=$$K$$", {"K": "abc"}) == "key=abc"

    def test_no_tokens_is_identity(self):
        text = "plain text with $ and $$ but no full token"
        assert render_template(text, {}) == text

    def test_multi_occurrence(self):
        assert render_template("a=$$X$$ b=$$X$$", {"X": "7"}) == "a=7 b=7"

    def test_unresolvable_token_named(self):
        with pytest.raises(TemplateError, match="MISSING"):
            render_template("v=$$MISSING$$", {"OTHER": "1"})

    def test_non_token_text_untouched(self):
        text = "prefix $$A$$ middle $$B$$ suffix"
        assert render_template(text, {"A": "1", "B": "2"}) == "prefix 1 middle 2 suffix"


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

    def test_name_conflict_rejected(self, manager_setup):
        _, manager, _, _, doc = manager_setup
        manager.upload_policy(json.dumps(doc))
        doc["session"]["max_rounds"] += 5  # same name, different content
        with pytest.raises(PolicyConflictError):
            manager.upload_policy(json.dumps(doc))

    def test_reopened_store_serves_policies_and_guards_names(self, manager_setup):
        platform, manager, _, _, doc = manager_setup
        policy_hash = manager.upload_policy(json.dumps(doc))
        reopened = PolicyManager(manager.store_dir, manager.enclave,
                                 platform.root_public_key)
        assert reopened.get_policy(policy_hash).document == \
            manager.get_policy(policy_hash).document
        doc["session"]["max_rounds"] += 5
        with pytest.raises(PolicyConflictError):
            reopened.upload_policy(json.dumps(doc))
        with pytest.raises(NotFoundError):
            reopened.get_policy(b"\x00" * 32)

    def test_invalid_document_rejected(self, manager_setup):
        _, manager, _, _, _ = manager_setup
        with pytest.raises(PolicyInvalidError):
            manager.upload_policy("{\"name\": \"x\"}")


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

    def test_provided_value_round_trips(self, manager_setup):
        _, manager, coordinator, _, doc = manager_setup
        policy_hash = manager.upload_policy(json.dumps(doc))
        manager.generate_secrets(policy_hash)
        quote = coordinator.generate_quote(RD, NONCE)
        bundle = manager.release_secrets(policy_hash, "coordinator", quote, NONCE)
        assert bundle.files["banner.txt"] == "motd: agreed banner text\n"

    def test_double_generation_rejected(self, manager_setup):
        _, manager, _, _, doc = manager_setup
        policy_hash = manager.upload_policy(json.dumps(doc))
        manager.generate_secrets(policy_hash)
        with pytest.raises(AlreadyGeneratedError):
            manager.generate_secrets(policy_hash)

    def test_release_before_generation_rejected(self, manager_setup):
        _, manager, _, client, doc = manager_setup
        policy_hash = manager.upload_policy(json.dumps(doc))
        with pytest.raises(NotFoundError):
            manager.release_secrets(policy_hash, "client",
                                    client.generate_quote(RD, NONCE), NONCE)

    def test_random_hex_secret_has_requested_length(self, manager_setup):
        _, manager, _, client, doc = manager_setup
        policy_hash = manager.upload_policy(json.dumps(doc))
        manager.generate_secrets(policy_hash)
        quote = client.generate_quote(RD, NONCE)
        bundle = manager.release_secrets(policy_hash, "client", quote, NONCE)
        token_arg = [a for a in bundle.arguments if a.startswith("--token=")][0]
        token = token_arg.split("=", 1)[1]
        assert len(token) == 32
        int(token, 16)  # parses as hex


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
                        assert err.value.verdict.check == expected

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
        assert not bundle.arguments
        with pytest.raises(AccessDeniedError) as err:
            manager.release_secrets(policy_hash, "client", quote, NONCE)
        assert err.value.verdict.check == "measurement"

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
