"""Shielded-file codec: round trips, header authentication, freshness."""

import io
import os
import random
import tracemalloc
from dataclasses import replace

import pytest

from fedshield.counters import CounterService
from fedshield.enclave import generate_signing_key
from fedshield.errors import (
    DecodeError,
    IntegrityError,
    InvalidInputError,
    RollbackDetectedError,
)
from fedshield.shield import (
    HEADER_LEN,
    ShieldedFile,
    ShieldHeader,
    open_shielded,
    read_shielded,
    shield_decrypt,
    shield_encrypt,
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
    svc = CounterService(tmp_path / "wal", generate_signing_key())
    yield svc
    svc.close()


def stable_lookup(service):
    return lambda cid: service.read_stable(cid).value


def fresh_file(service, payload, key):
    cid = service.create_counter()
    shielded = shield_encrypt(payload, key, b"\x01" * 16, cid,
                              service.read_stable(cid).value)
    return shielded, stable_lookup(service), cid


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
        assert (out / "data.sfl").read_bytes() == second.to_bytes()
        assert [p.name for p in out.iterdir()] == ["data.sfl"]  # nothing staged

    def test_failed_write_keeps_the_old_file(self, service, tmp_path, monkeypatch):
        class FullDisk(io.FileIO):
            """A disk with room for the header only."""
            def write(self, data):
                if self.tell() + len(data) > HEADER_LEN:
                    raise OSError("no space left")
                return super().write(data)

        out = tmp_path / "out"
        out.mkdir()
        shielded, _, _ = fresh_file(service, b"version 1", b"\x05" * 32)
        write_shielded(out / "data.sfl", shielded)
        old = (out / "data.sfl").read_bytes()
        monkeypatch.setattr(os, "fdopen", lambda fd, mode: FullDisk(fd, mode))
        with pytest.raises(OSError, match="no space left"):
            write_shielded(out / "data.sfl", shielded)
        assert (out / "data.sfl").read_bytes() == old
        assert [p.name for p in out.iterdir()] == ["data.sfl"]  # nothing staged

    def test_write_and_open_hold_the_body_once(self, service, tmp_path):
        # writing makes no whole-file copy; reading holds the body once, and
        # opening the body and the plaintext
        payload = random.Random(5).randbytes(8 << 20)
        shielded, lookup, _ = fresh_file(service, payload, b"\x05" * 32)
        path = tmp_path / "data.sfl"
        size = HEADER_LEN + len(shielded.body)

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: write_shielded(path, shielded)) < 0.1 * size
        assert peak(lambda: read_shielded(path)) < 1.1 * size
        assert peak(lambda: open_shielded(path, b"\x05" * 32, lookup)) < 2.2 * size


class TestGoldenFile:
    def test_bytes_reparse_to_identical_fields(self):
        blob = bytes.fromhex(GOLDEN_HEX)
        header = ShieldHeader.from_bytes(blob)
        assert header.key_id == bytes(range(16))
        assert header.counter_id == bytes(range(100, 116))
        assert header.counter_value == 3
        assert header.nonce == bytes(range(200, 212))
        assert blob[:HEADER_LEN] == header.to_bytes()

    def test_fixture_reproduces_bit_exactly(self):
        shielded = shield_encrypt(b"golden fixture payload", bytes(range(32)),
                                  bytes(range(16)), bytes(range(100, 116)), 3,
                                  nonce=bytes(range(200, 212)))
        assert shielded.to_bytes().hex() == GOLDEN_HEX

    def test_golden_decrypts(self):
        blob = ShieldedFile.from_bytes(bytes.fromhex(GOLDEN_HEX))
        assert shield_decrypt(blob, bytes(range(32)), lambda cid: 3) \
            == b"golden fixture payload"

    @pytest.mark.parametrize("aead_alg", [0, 2, 255])
    def test_unimplemented_algorithm_id_is_refused(self, aead_alg):
        raw = bytearray(bytes.fromhex(GOLDEN_HEX))
        raw[6] = aead_alg
        with pytest.raises(DecodeError, match="algorithm"):
            ShieldedFile.from_bytes(bytes(raw))


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
        forged = replace(shielded.header,
                         counter_value=shielded.header.counter_value + 1)
        with pytest.raises(IntegrityError):
            shield_decrypt(ShieldedFile(forged, shielded.body), b"\x05" * 32, lookup)

    def test_header_key_id_flip(self, service):
        shielded, lookup, _ = fresh_file(service, b"data", b"\x06" * 32)
        forged = replace(shielded.header, key_id=b"\xff" * 16)
        with pytest.raises(IntegrityError):
            shield_decrypt(ShieldedFile(forged, shielded.body), b"\x06" * 32, lookup)

    def test_wrong_key(self, service):
        shielded, lookup, _ = fresh_file(service, b"data", b"\x07" * 32)
        with pytest.raises(IntegrityError):
            shield_decrypt(shielded, b"\x08" * 32, lookup)


class TestFreshness:
    def test_stale_file_raises_rollback(self, service):
        key = b"\x09" * 32
        cid = service.create_counter()
        old = shield_encrypt(b"version 1", key, b"\x00" * 16, cid,
                             service.read_stable(cid).value)
        new = shield_encrypt(b"version 2", key, b"\x00" * 16, cid,
                             service.increment_async(cid).value)
        lookup = stable_lookup(service)
        assert shield_decrypt(new, key, lookup) == b"version 2"
        with pytest.raises(RollbackDetectedError):
            shield_decrypt(old, key, lookup)

    def test_refusal_says_whether_the_file_is_older_or_newer(self, service):
        key = b"\x0a" * 32
        cid = service.create_counter()
        old = shield_encrypt(b"version 1", key, b"\x00" * 16, cid, 1)
        service.increment_async(cid)
        # bound to a value the counter never reached
        newer = shield_encrypt(b"version 3", key, b"\x00" * 16, cid, 3)
        lookup = stable_lookup(service)
        with pytest.raises(RollbackDetectedError,
                           match="counter 1 is older than the stable value 2: a replay"):
            shield_decrypt(old, key, lookup)
        with pytest.raises(RollbackDetectedError,
                           match="counter 3 is newer than the stable value 2: "
                                 "the counter never made that value stable"):
            shield_decrypt(newer, key, lookup)

    @pytest.mark.parametrize("writes", range(1, 11))
    def test_only_last_write_decrypts(self, service, writes):
        key = b"\x0b" * 32
        cid = service.create_counter()
        versions = []
        for i in range(writes):
            if i > 0:
                service.increment_async(cid)
            versions.append(shield_encrypt(f"v{i}".encode(), key, b"\x00" * 16,
                                           cid, service.read_stable(cid).value))
        lookup = stable_lookup(service)
        assert shield_decrypt(versions[-1], key, lookup) == f"v{writes - 1}".encode()
        for stale in versions[:-1]:
            with pytest.raises(RollbackDetectedError):
                shield_decrypt(stale, key, lookup)


class TestValidation:
    def test_key_length_enforced(self):
        with pytest.raises(InvalidInputError):
            shield_encrypt(b"x", b"short", b"\x00" * 16, b"\x01" * 16, 1)

    @pytest.mark.parametrize("counter_id,value,match", [
        (b"\x01" * 15, 1, "counter_id must be 16 bytes"),
        (b"\x01" * 17, 1, "counter_id must be 16 bytes"),
        (b"\x01" * 16, 0, "counter value must be positive"),
        (b"\x01" * 16, -1, "counter value must be positive"),
    ])
    def test_counter_binding_checked(self, counter_id, value, match):
        with pytest.raises(InvalidInputError, match=match):
            shield_encrypt(b"x", b"\x00" * 32, b"\x00" * 16, counter_id, value)

    def test_nonces_never_repeat_per_key(self):
        # AEAD discipline: fresh random 96-bit nonce on every encryption
        key = b"\x0c" * 32
        nonces = {shield_encrypt(b"p", key, b"\x00" * 16, b"\x01" * 16, 1).header.nonce
                  for _ in range(1000)}
        assert len(nonces) == 1000
