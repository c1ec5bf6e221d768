"""Monotonic counter semantics: durable acknowledgment, replay, tokens."""

import random
import threading

import pytest

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from fedshield.counters import COUNTER_ID_LEN, CounterService, CounterToken, verify_token
from fedshield.enclave import generate_signing_key, public_key_bytes
from fedshield.errors import DecodeError, NotFoundError

# One token's bytes under a fixed Ed25519 key: counter_id | value 3 | 0x01 |
# signature. Guards the token layout the shielded files are bound to.
GOLDEN_TOKEN_HEX = (
    "6465666768696a6b6c6d6e6f707172730000000000000003011d131d74c621415f"
    "53e24cdd636ddbf11c6deb3c358fc37fb0ea5eaa7dc31a16932b59f020df81a628da"
    "1ee8bbe8f009b4f860d62811a6652127020870b06e02"
)


@pytest.fixture
def service(tmp_path):
    svc = CounterService(tmp_path / "wal", generate_signing_key())
    yield svc
    svc.close()


class TestBasics:
    def test_create_reads_one(self, service):
        cid = service.create_counter()
        token = service.read_stable(cid)
        assert token.value == 1

    def test_two_creates_distinct(self, service):
        assert service.create_counter() != service.create_counter()

    def test_created_token_verifies(self, service):
        cid = service.create_counter()
        assert verify_token(service.read_stable(cid), service.public_key)

    def test_unknown_counter(self, service):
        with pytest.raises(NotFoundError):
            service.increment_async(b"\x00" * 16)
        with pytest.raises(NotFoundError):
            service.read_stable(b"\x00" * 16)

    def test_token_serialization_round_trip(self, service):
        cid = service.create_counter()
        token = service.increment_async(cid)
        parsed = CounterToken.from_bytes(token.to_bytes())
        assert parsed == token

    def test_tampered_token_fails_at_consumer(self, service):
        cid = service.create_counter()
        token = service.read_stable(cid)
        forged = CounterToken(token.counter_id, token.value + 1, token.signature)
        assert not verify_token(forged, service.public_key)
        assert verify_token(token, service.public_key)

    def test_golden_token_bytes(self):
        key = Ed25519PrivateKey.from_private_bytes(b"\x07" * 32)
        counter_id = bytes(range(100, 116))
        payload = CounterToken(counter_id, 3, b"").signed_payload()
        token = CounterToken(counter_id, 3, key.sign(payload))
        assert token.to_bytes().hex() == GOLDEN_TOKEN_HEX
        assert CounterToken.from_bytes(bytes.fromhex(GOLDEN_TOKEN_HEX)) == token
        assert verify_token(token, public_key_bytes(key))

    @pytest.mark.parametrize("byte", [0, 2])
    def test_durability_byte_other_than_one_does_not_decode(self, byte):
        data = bytearray.fromhex(GOLDEN_TOKEN_HEX)
        data[COUNTER_ID_LEN + 8] = byte
        with pytest.raises(DecodeError):
            CounterToken.from_bytes(bytes(data))


class TestAsyncSemantics:
    """`increment_async`: the increment is durable when acknowledged."""

    def test_sequential_increments(self, service):
        cid = service.create_counter()
        service.increment_async(cid)
        service.increment_async(cid)
        assert service.read_stable(cid).value == 3

    def test_concurrent_increments_exactly_once(self, service):
        # oracle: final stable value = acknowledged increments + 1
        cid = service.create_counter()
        acknowledged = []
        lock = threading.Lock()

        def worker():
            token = service.increment_async(cid)
            with lock:
                acknowledged.append(token.value)

        threads = [threading.Thread(target=worker) for _ in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert service.read_stable(cid).value == len(acknowledged) + 1 == 11
        assert sorted(acknowledged) == list(range(2, 12))


class TestCrashSafety:
    def test_restart_preserves_persisted_value(self, tmp_path):
        key = generate_signing_key()
        svc = CounterService(tmp_path / "wal", key)
        cid = svc.create_counter()
        svc.increment_async(cid)
        svc.close()
        svc2 = CounterService(tmp_path / "wal", key)
        assert svc2.read_stable(cid).value == 2
        svc2.close()

    def test_torn_tail_is_discarded(self, tmp_path):
        key = generate_signing_key()
        svc = CounterService(tmp_path / "wal", key)
        cid = svc.create_counter()
        svc.increment_async(cid)
        svc.close()
        with open(tmp_path / "wal", "ab") as fh:
            fh.write(b"\x01\x02\x03")  # partial record from a crash
        svc2 = CounterService(tmp_path / "wal", key)
        assert svc2.read_stable(cid).value == 2
        svc2.close()


def run_random_schedule(tmp_path, seed: int, tag: str) -> None:
    """One randomized schedule of creates, increments, restarts, torn-tail
    restarts and reads; every read must equal the last acknowledged value."""
    rng = random.Random(seed)
    key = generate_signing_key()
    path = tmp_path / f"wal-{tag}"
    svc = CounterService(path, key)
    acknowledged = {svc.create_counter(): 1}
    killed = []
    for _ in range(rng.randrange(4, 12)):
        op = rng.randrange(5)
        if op == 0:
            acknowledged[svc.create_counter()] = 1
        elif op == 1:
            cid = rng.choice(list(acknowledged))
            acknowledged[cid] = svc.increment_async(cid).value
        elif op in (2, 3):
            if op == 3:  # the kill tore the record being written
                with open(path, "ab") as fh:
                    fh.write(rng.randbytes(rng.randrange(1, 28)))
            # a restart on the same log; the killed service is not closed
            killed.append(svc)
            svc = CounterService(path, key)
        else:
            cid = rng.choice(list(acknowledged))
            assert svc.read_stable(cid).value == acknowledged[cid], \
                f"read lost an acknowledged increment (seed {seed})"
    for cid, value in acknowledged.items():
        assert svc.read_stable(cid).value == value, f"seed {seed}"
    for service in [*killed, svc]:
        service.close()


def test_monotonicity_over_randomized_schedules(tmp_path):
    for seed in range(1000):
        run_random_schedule(tmp_path, seed, str(seed))
