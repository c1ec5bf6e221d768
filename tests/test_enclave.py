"""Measurement, quote, and sealing behavior of the simulated runtime."""

import random
import shutil
import struct
import subprocess

import pytest

from fedshield.enclave import (
    QUOTE_LEN,
    Quote,
    SealedBlob,
    generate_platform,
    load_platform,
    measure,
    save_platform,
    spawn_enclave,
    verify_signature,
)
from fedshield.errors import (
    DecodeError,
    IntegrityError,
    InvalidInputError,
    QuoteDecodeError,
    SealAuthenticationError,
)

from conftest import BUNDLE_A, CONFIG

# Computed with an independent tool over the exact length-prefixed
# concatenation: sha256sum of u64be(len(b)) || b || u64be(len(c)) || c.
FIXTURE_BUNDLE = b"federated training bundle v1: train.py module bytes"
FIXTURE_CONFIG = b"learning_rate=0.1\nlocal_epochs=2\n"
FIXTURE_DIGEST = "3fadef1b0e869f86c51b679a488fb81205542caa0c23fe6111b82b3bca20f060"


class TestMeasure:
    def test_deterministic(self):
        assert measure(BUNDLE_A, CONFIG) == measure(BUNDLE_A, CONFIG)

    def test_single_byte_flip_changes_digest(self):
        flipped = bytes([BUNDLE_A[0] ^ 0x01]) + BUNDLE_A[1:]
        assert measure(flipped, CONFIG) != measure(BUNDLE_A, CONFIG)

    def test_known_vector_from_independent_hash_tool(self):
        assert measure(FIXTURE_BUNDLE, FIXTURE_CONFIG).hex() == FIXTURE_DIGEST

    @pytest.mark.skipif(shutil.which("sha256sum") is None,
                        reason="sha256sum not available")
    def test_live_against_sha256sum(self, tmp_path):
        blob = (struct.pack(">Q", len(FIXTURE_BUNDLE)) + FIXTURE_BUNDLE
                + struct.pack(">Q", len(FIXTURE_CONFIG)) + FIXTURE_CONFIG)
        path = tmp_path / "concat.bin"
        path.write_bytes(blob)
        out = subprocess.run(["sha256sum", str(path)], capture_output=True,
                             text=True, check=True)
        assert measure(FIXTURE_BUNDLE, FIXTURE_CONFIG).hex() == out.stdout.split()[0]

    def test_empty_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            measure(b"", CONFIG)
        with pytest.raises(InvalidInputError):
            measure(BUNDLE_A, b"")

    def test_no_collisions_over_random_mutations(self):
        rng = random.Random(20240811)
        base = measure(BUNDLE_A, CONFIG)
        seen = {base}
        for _ in range(1000):
            data = bytearray(BUNDLE_A)
            pos = rng.randrange(len(data))
            data[pos] ^= rng.randrange(1, 256)
            digest = measure(bytes(data), CONFIG)
            assert digest != base
            seen.add(digest)
        # every mutated bundle got its own digest
        assert len(seen) == len({bytes(d) for d in seen})

    def test_length_prefix_prevents_boundary_shifts(self):
        # moving a byte across the bundle/config boundary must not collide
        assert measure(b"ab", b"c") != measure(b"a", b"bc")


class TestSpawn:
    def test_same_bundle_same_platform_equal_identity(self, platform):
        e1 = spawn_enclave(platform, BUNDLE_A, CONFIG)
        e2 = spawn_enclave(platform, BUNDLE_A, CONFIG)
        assert e1.identity == e2.identity

    def test_same_bundle_two_platforms(self):
        p1, p2 = generate_platform(), generate_platform()
        e1 = spawn_enclave(p1, BUNDLE_A, CONFIG)
        e2 = spawn_enclave(p2, BUNDLE_A, CONFIG)
        assert e1.measurement == e2.measurement
        assert e1.identity.platform_id != e2.identity.platform_id

    def test_modified_config_changes_measurement(self, platform):
        e1 = spawn_enclave(platform, BUNDLE_A, CONFIG)
        e2 = spawn_enclave(platform, BUNDLE_A, CONFIG + b"extra=1\n")
        assert e1.measurement != e2.measurement


class TestQuote:
    def test_round_trip_verifies(self, platform, enclave_a):
        rd, nonce = b"\x11" * 64, b"\x22" * 32
        quote = enclave_a.generate_quote(rd, nonce)
        assert quote.identity == enclave_a.identity
        assert verify_signature(platform.root_public_key, quote.signature,
                                quote.signed_payload())
        parsed = Quote.from_bytes(quote.to_bytes())
        assert parsed == quote

    def test_every_signature_byte_matters(self, platform, enclave_a):
        quote = enclave_a.generate_quote(b"\x00" * 64, b"\x01" * 32)
        for pos in range(0, 64, 7):
            bad = bytearray(quote.signature)
            bad[pos] ^= 0x80
            assert not verify_signature(platform.root_public_key, bytes(bad),
                                        quote.signed_payload())

    def test_distinct_nonces_distinct_bytes(self, enclave_a, platform):
        rd = b"\x05" * 64
        q1 = enclave_a.generate_quote(rd, b"\x01" * 32)
        q2 = enclave_a.generate_quote(rd, b"\x02" * 32)
        assert q1.to_bytes() != q2.to_bytes()
        for q in (q1, q2):
            assert verify_signature(platform.root_public_key, q.signature,
                                    q.signed_payload())

    def test_round_trip_property(self, platform):
        rng = random.Random(99)
        for _ in range(100):
            bundle = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
            enclave = spawn_enclave(platform, bundle, CONFIG)
            rd = bytes(rng.randrange(256) for _ in range(64))
            nonce = bytes(rng.randrange(256) for _ in range(32))
            quote = Quote.from_bytes(enclave.generate_quote(rd, nonce).to_bytes())
            assert quote.identity.measurement == enclave.measurement
            assert quote.report_data == rd and quote.nonce == nonce
            assert verify_signature(platform.root_public_key, quote.signature,
                                    quote.signed_payload())

    def test_wrong_report_data_length(self, enclave_a):
        with pytest.raises(InvalidInputError):
            enclave_a.generate_quote(b"short", b"\x00" * 32)

    def test_malformed_bytes(self):
        with pytest.raises(QuoteDecodeError):
            Quote.from_bytes(b"\x00" * (QUOTE_LEN - 1))
        with pytest.raises(QuoteDecodeError):
            Quote.from_bytes(b"\xff" * QUOTE_LEN)  # bad version

    def test_wire_layout_field_offsets(self, platform, enclave_a):
        rd = bytes(range(64))
        nonce = bytes(range(64, 96))
        blob = enclave_a.generate_quote(rd, nonce).to_bytes()
        assert len(blob) == QUOTE_LEN == 214
        assert blob[0:2] == b"\x00\x01"          # version u16 BE
        assert blob[2] == 1 and blob[3] == 1     # hash_alg, sig_alg
        assert blob[4:36] == enclave_a.measurement
        assert blob[36:52] == platform.platform_id
        assert blob[52:54] == struct.pack(">H", platform.svn)
        assert blob[54:118] == rd
        assert blob[118:150] == nonce
        assert verify_signature(platform.root_public_key, blob[150:], blob[:150])


class TestSealing:
    @pytest.mark.parametrize("size", [0, 1, 1024, 1 << 20])
    def test_round_trip_sizes(self, enclave_a, size):
        payload = random.Random(size).randbytes(size)
        assert enclave_a.unseal(enclave_a.seal(payload)) == payload

    def test_other_measurement_rejected(self, enclave_a, enclave_b):
        blob = enclave_a.seal(b"state")
        with pytest.raises(SealAuthenticationError):
            enclave_b.unseal(blob)

    def test_other_platform_rejected(self):
        p1, p2 = generate_platform(), generate_platform()
        e1 = spawn_enclave(p1, BUNDLE_A, CONFIG)
        e2 = spawn_enclave(p2, BUNDLE_A, CONFIG)
        with pytest.raises(SealAuthenticationError):
            e2.unseal(e1.seal(b"state"))

    def test_ciphertext_bit_flip_rejected(self, enclave_a):
        blob = enclave_a.seal(b"some sealed state bytes")
        tampered = bytearray(blob.ciphertext)
        tampered[3] ^= 0x10
        blob_t = SealedBlob(nonce=blob.nonce, ciphertext=bytes(tampered))
        with pytest.raises(IntegrityError):
            enclave_a.unseal(blob_t)

    def test_serialization_round_trip(self, enclave_a):
        blob = enclave_a.seal(b"persisted secret material")
        parsed = SealedBlob.from_bytes(blob.to_bytes())
        assert enclave_a.unseal(parsed) == b"persisted secret material"

    @pytest.mark.parametrize("offset, value", [(4, 9), (5, 7)])
    def test_unimplemented_algorithm_id_is_refused(self, enclave_a, offset, value):
        # the algorithm bytes are outside the seal's associated data, so only
        # the decoder can refuse a host's edit of them
        raw = bytearray(enclave_a.seal(b"state").to_bytes())
        assert raw[4:6] == b"\x01\x01"  # hash_alg SHA-256, aead_alg AES-256-GCM
        raw[offset] = value
        with pytest.raises(DecodeError, match="algorithm"):
            SealedBlob.from_bytes(bytes(raw))

    def test_other_measurement_rejected_after_a_round_trip(self, enclave_a, enclave_b):
        # the blob on disk carries no identity: the tag alone refuses it
        blob = SealedBlob.from_bytes(enclave_a.seal(b"state").to_bytes())
        with pytest.raises(SealAuthenticationError):
            enclave_b.unseal(blob)

    def test_ciphertext_is_not_plaintext(self, enclave_a):
        payload = b"super secret training key material, 48 bytes...."
        assert payload not in enclave_a.seal(payload).to_bytes()


class TestKeyFiles:
    def test_platform_save_load_round_trip(self, tmp_path, platform):
        path = tmp_path / "platform.json"
        save_platform(platform, path)
        loaded = load_platform(path)
        assert loaded.platform_id == platform.platform_id
        assert loaded.svn == platform.svn
        assert loaded.root_public_key == platform.root_public_key
        e1 = spawn_enclave(platform, BUNDLE_A, CONFIG)
        e2 = spawn_enclave(loaded, BUNDLE_A, CONFIG)
        assert e2.unseal(e1.seal(b"cross-load")) == b"cross-load"
