"""A checkpoint bound to a monotonic counter: rollback is detectable.

A counter protects state that is overwritten, such as the coordinator's
checkpoint; a dataset file is written once and binds no counter.

Run with: python demos/04_rollback_protection.py
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from fedshield import CounterService, shield_decrypt, shield_encrypt
from fedshield.enclave import generate_signing_key
from fedshield.errors import IntegrityError, RollbackDetectedError
from fedshield.shield import ShieldedFile

with tempfile.TemporaryDirectory() as d:
    service = CounterService(Path(d) / "counters.wal", generate_signing_key())
    key = bytes(range(32))
    key_id = b"\x01" * 16

    # The service runs in this process, so its stable values need no
    # signature check; a role verifies tokens from a remote service.
    def lookup(cid):
        return service.read_stable(cid).value

    # The checkpoint gets its own counter; each authorized overwrite (one
    # per committed round) increments it, and the header embeds the value
    # at write time.
    counter_id = service.create_counter()
    v1 = shield_encrypt(b"checkpoint, round 1", key, key_id, counter_id,
                        lookup(counter_id))
    print("v1 header counter value:", v1.header.counter_value)
    print("v1 decrypts:", shield_decrypt(v1, key, lookup))

    # The next commit: increment, then overwrite with round 2.
    token = service.increment_async(counter_id)
    v2 = shield_encrypt(b"checkpoint, round 2", key, key_id, counter_id,
                        token.value)
    print("\nv2 decrypts:", shield_decrypt(v2, key, lookup))

    # A host that swaps the round-1 checkpoint back gets caught: the header
    # says counter 1 but the stable counter says 2.
    try:
        shield_decrypt(v1, key, lookup)
    except RollbackDetectedError as exc:
        print("rolled-back v1:", exc)

    # The header is authenticated as associated data, so forging the
    # counter value in the header breaks the tag before freshness is
    # even consulted.
    forged_header = replace(v1.header, counter_value=2)
    try:
        shield_decrypt(ShieldedFile(forged_header, v1.body), key, lookup)
    except IntegrityError as exc:
        print("forged header:", exc)

    # The counter log survives restarts; stable values never regress.
    service.close()
    revived = CounterService(Path(d) / "counters.wal", generate_signing_key())
    print("\nstable value after restart:", revived.read_stable(counter_id).value)
    revived.close()
