"""Shielded-file codec: round trips, header authentication, freshness."""

import random
import struct

import pytest

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from fedshield.counters import CounterService, CounterToken
from fedshield.enclave import generate_signing_key, public_key_bytes
from fedshield.errors import (
    FreshnessTokenError,
    IntegrityError,
    InvalidInputError,
    RollbackDetectedError,
)
from fedshield.shield import (
    HEADER_LEN,
    ShieldedFile,
    ShieldHeader,
    open_shielded,
    shield_decrypt,
    shield_encrypt,
    verified_stable_lookup,
    write_shielded,
)

# Frozen bytes of a fixture file built from all-fixed inputs; guards the
# bit-exact big-endian header layout across platforms.
GOLDEN_HEX = (
    "53464c31000101000102030405060708090a0b0c0d0e0f6465666768696a6b6c"
    "6d6e6f707172730000000000000003c8c9cacbcccdcecfd0d1d2d376170dbfe3"
    "a2db461d446bcb6c63cb6481fe80c7650fea2ae8bc81b5b05bcc257ec49c1e4c"
    "f8"
)


@pytest.fixture
def service(tmp_path):
    svc = CounterService(tmp_path / "wal", generate_signing_key(),
                         use_fsync=False)
    yield svc
    svc.close()


def fresh_file(service, payload, key):
    cid = service.create_counter()
    token = service.read_stable(cid)
    shielded = shield_encrypt(payload, key, b"\x01" * 16, token,
                              service.public_key)
    lookup = verified_stable_lookup(service.read_stable, service.public_key)
    return shielded, lookup, cid


class TestRoundTrip:
    @pytest.mark.parametrize("size", [0, 1, 4096, 4 << 20])
    def test_sizes_with_random_keys(self, service, size):
        rng = random.Random(size)
        payload = rng.randbytes(size)
        for _ in range(25):
            key = rng.randbytes(32)
            shielded, lookup, _ = fresh_file(service, payload, key)
            assert shield_decrypt(shielded, key, lookup) == payload

    def test_serialization_round_trip(self, service):
        shielded, lookup, _ = fresh_file(service, b"payload", b"\x02" * 32)
        parsed = ShieldedFile.from_bytes(shielded.to_bytes())
        assert parsed.header == shielded.header
        assert shield_decrypt(parsed, b"\x02" * 32, lookup) == b"payload"

    def test_plaintext_absent_from_file_bytes(self, service):
        payload = b"rows of very sensitive training data here"
        shielded, _, _ = fresh_file(service, payload, b"\x03" * 32)
        assert payload not in shielded.to_bytes()


class TestFiles:
    def test_write_replaces_and_open_returns_header_and_plaintext(self, service, tmp_path):
        key = b"\x05" * 32
        out = tmp_path / "out"
        out.mkdir()
        first, _, _ = fresh_file(service, b"version 1", key)
        write_shielded(out / "data.sfl", first)
        second, lookup, cid = fresh_file(service, b"version 2", key)
        write_shielded(out / "data.sfl", second)
        header, plaintext = open_shielded(out / "data.sfl", key, lookup)
        assert (header, header.counter_id, plaintext) == (second.header, cid, b"version 2")
        assert [p.name for p in out.iterdir()] == ["data.sfl"]  # nothing staged

    def test_failed_write_keeps_the_old_file(self, service, tmp_path):
        class Unserializable(ShieldedFile):
            def to_bytes(self):
                raise OSError("no space left")

        out = tmp_path / "out"
        out.mkdir()
        shielded, _, _ = fresh_file(service, b"version 1", b"\x05" * 32)
        write_shielded(out / "data.sfl", shielded)
        old = (out / "data.sfl").read_bytes()
        with pytest.raises(OSError, match="no space left"):
            write_shielded(out / "data.sfl",
                           Unserializable(shielded.header, shielded.body))
        assert (out / "data.sfl").read_bytes() == old
        assert [p.name for p in out.iterdir()] == ["data.sfl"]  # nothing staged


class TestGoldenFile:
    def test_bytes_reparse_to_identical_fields(self):
        blob = bytes.fromhex(GOLDEN_HEX)
        header = ShieldHeader.from_bytes(blob)
        assert header.version == 1
        assert header.aead_alg == 1
        assert header.key_id == bytes(range(16))
        assert header.counter_id == bytes(range(100, 116))
        assert header.counter_value == 3
        assert header.nonce == bytes(range(200, 212))
        assert blob[:HEADER_LEN] == header.to_bytes()

    def test_fixture_reproduces_bit_exactly(self):
        svc_key = Ed25519PrivateKey.from_private_bytes(b"\x07" * 32)
        counter_id = bytes(range(100, 116))
        payload = counter_id + struct.pack(">Q", 3) + b"\x01"
        token = CounterToken(counter_id, 3, svc_key.sign(payload))
        shielded = shield_encrypt(b"golden fixture payload", bytes(range(32)),
                                  bytes(range(16)), token,
                                  public_key_bytes(svc_key),
                                  nonce=bytes(range(200, 212)))
        assert shielded.to_bytes().hex() == GOLDEN_HEX

    def test_golden_decrypts(self):
        blob = ShieldedFile.from_bytes(bytes.fromhex(GOLDEN_HEX))
        assert shield_decrypt(blob, bytes(range(32)), lambda cid: 3) \
            == b"golden fixture payload"


class TestIntegrity:
    def test_ciphertext_flip(self, service):
        shielded, lookup, _ = fresh_file(service, b"data", b"\x04" * 32)
        body = bytearray(shielded.body)
        body[0] ^= 0x01
        with pytest.raises(IntegrityError):
            shield_decrypt(ShieldedFile(shielded.header, bytes(body)),
                           b"\x04" * 32, lookup)

    def test_header_counter_value_flip(self, service):
        # forged forward-dated header: authenticated data catches it before
        # any freshness decision
        shielded, lookup, _ = fresh_file(service, b"data", b"\x05" * 32)
        forged = ShieldHeader(
            shielded.header.version, shielded.header.aead_alg,
            shielded.header.key_id, shielded.header.counter_id,
            shielded.header.counter_value + 1, shielded.header.nonce)
        with pytest.raises(IntegrityError):
            shield_decrypt(ShieldedFile(forged, shielded.body), b"\x05" * 32, lookup)

    def test_header_key_id_flip(self, service):
        shielded, lookup, _ = fresh_file(service, b"data", b"\x06" * 32)
        forged = ShieldHeader(
            shielded.header.version, shielded.header.aead_alg,
            b"\xff" * 16, shielded.header.counter_id,
            shielded.header.counter_value, shielded.header.nonce)
        with pytest.raises(IntegrityError):
            shield_decrypt(ShieldedFile(forged, shielded.body), b"\x06" * 32, lookup)

    def test_wrong_key(self, service):
        shielded, lookup, _ = fresh_file(service, b"data", b"\x07" * 32)
        with pytest.raises(IntegrityError):
            shield_decrypt(shielded, b"\x08" * 32, lookup)


class TestFreshness:
    def test_invalid_token_rejected_at_encrypt(self, service):
        cid = service.create_counter()
        token = service.read_stable(cid)
        forged = CounterToken(cid, token.value + 1, token.signature)
        with pytest.raises(FreshnessTokenError):
            shield_encrypt(b"x", b"\x00" * 32, b"\x00" * 16, forged,
                           service.public_key)

    def test_stale_file_raises_rollback(self, service):
        key = b"\x09" * 32
        cid = service.create_counter()
        old = shield_encrypt(b"version 1", key, b"\x00" * 16,
                             service.read_stable(cid), service.public_key)
        service.increment_async(cid)
        new = shield_encrypt(b"version 2", key, b"\x00" * 16,
                             service.read_stable(cid), service.public_key)
        lookup = verified_stable_lookup(service.read_stable, service.public_key)
        assert shield_decrypt(new, key, lookup) == b"version 2"
        with pytest.raises(RollbackDetectedError):
            shield_decrypt(old, key, lookup)

    def test_refusal_says_whether_the_file_is_older_or_newer(self, tmp_path):
        signing_key = generate_signing_key()
        svc = CounterService(tmp_path / "wal2", signing_key, use_fsync=False)
        key = b"\x0a" * 32
        cid = svc.create_counter()
        old = shield_encrypt(b"version 1", key, b"\x00" * 16,
                             svc.read_stable(cid), svc.public_key)
        svc.increment_async(cid)
        # a token above the stable value, signed with the service's own key
        payload = CounterToken(cid, 3, b"").signed_payload()
        ahead = CounterToken(cid, 3, signing_key.sign(payload))
        newer = shield_encrypt(b"version 3", key, b"\x00" * 16, ahead,
                               svc.public_key)
        lookup = verified_stable_lookup(svc.read_stable, svc.public_key)
        with pytest.raises(RollbackDetectedError,
                           match="counter 1 is older than the stable value 2: a replay"):
            shield_decrypt(old, key, lookup)
        with pytest.raises(RollbackDetectedError,
                           match="counter 3 is newer than the stable value 2: "
                                 "the counter never made that value stable"):
            shield_decrypt(newer, key, lookup)
        svc.close()

    @pytest.mark.parametrize("writes", range(1, 11))
    def test_only_last_write_decrypts(self, service, writes):
        key = b"\x0b" * 32
        cid = service.create_counter()
        versions = []
        for i in range(writes):
            if i > 0:
                service.increment_async(cid)
            versions.append(shield_encrypt(f"v{i}".encode(), key, b"\x00" * 16,
                                           service.read_stable(cid),
                                           service.public_key))
        lookup = verified_stable_lookup(service.read_stable, service.public_key)
        assert shield_decrypt(versions[-1], key, lookup) == f"v{writes - 1}".encode()
        for stale in versions[:-1]:
            with pytest.raises(RollbackDetectedError):
                shield_decrypt(stale, key, lookup)


class TestValidation:
    def test_key_length_enforced(self, service):
        cid = service.create_counter()
        token = service.read_stable(cid)
        with pytest.raises(InvalidInputError):
            shield_encrypt(b"x", b"short", b"\x00" * 16, token, service.public_key)

    def test_nonces_never_repeat_per_key(self, service):
        # AEAD discipline: fresh random 96-bit nonce on every encryption
        cid = service.create_counter()
        token = service.read_stable(cid)
        key = b"\x0c" * 32
        nonces = {shield_encrypt(b"p", key, b"\x00" * 16, token,
                                 service.public_key).header.nonce
                  for _ in range(1000)}
        assert len(nonces) == 1000
