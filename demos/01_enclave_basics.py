"""Measurement, identity, quotes, and sealing on the simulated platform.

Run with: python demos/01_enclave_basics.py
"""

from fedshield import generate_platform, measure, spawn_enclave, verify_quote
from fedshield.attestation import AttestationPolicy
from fedshield.errors import HandshakeError, SealAuthenticationError

# A code bundle is just bytes: program text, a wheel, a container image.
# Its measurement is a digest over the bundle plus its canonical config.
bundle = b"def train(model, rows): ...  # the agreed training program"
config = b"learning_rate=0.1\nepochs=2\n"

digest = measure(bundle, config)
print("measurement:", digest.hex())
print("same inputs, same digest:", measure(bundle, config) == digest)
print("one flipped byte changes it:",
      measure(bundle.replace(b"0.1", b"0.2"), config) != digest)

# A platform holds the signing root and sealing secret. Spawning an enclave
# binds the bundle measurement to this platform's identity.
platform = generate_platform()
enclave = spawn_enclave(platform, bundle, config)
print("\nplatform id:", enclave.identity.platform_id.hex())
print("enclave measurement:", enclave.measurement.hex())

# Quotes are signed evidence. The verifier issues a fresh nonce, pins the
# measurement it trusts, and checks the quote against both; a refused quote
# raises HandshakeError naming the first failing check.
nonce = b"\x01" * 32
quote = enclave.generate_quote(report_data=b"\x00" * 64, nonce=nonce)
policy = AttestationPolicy(trusted_root=platform.root_public_key,
                           measurement=digest)


def outcome(quote):
    try:
        verify_quote(quote, policy, nonce)
    except HandshakeError as exc:
        return f"refused ({exc.check})"
    return "accepted"


print("\ngenuine quote:", outcome(quote))

replayed = enclave.generate_quote(b"\x00" * 64, b"\x02" * 32)
print("replayed-nonce quote:", outcome(replayed))

rogue = spawn_enclave(platform, bundle + b" # patched", config)
rogue_quote = rogue.generate_quote(b"\x00" * 64, nonce)
print("modified-code quote:", outcome(rogue_quote))

# Sealing binds persisted state to (measurement, platform). The same
# enclave unseals it; a different program on the same machine cannot.
blob = enclave.seal(b"optimizer state: step=1942")
print("\nsealed blob bytes:", len(blob.to_bytes()))
print("unsealed by owner:", enclave.unseal(blob))
try:
    rogue.unseal(blob)
except SealAuthenticationError as exc:
    print("unseal by modified code:", exc)
