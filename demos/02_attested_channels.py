"""Mutually attested channels: handshake, binding, and AEAD framing.

Run with: python demos/02_attested_channels.py
"""

import os
import threading

from fedshield import attested_handshake, generate_platform, spawn_enclave
from fedshield.attestation import AttestationPolicy, binding_report_data
from fedshield.demo import scan_capture
from fedshield.errors import ChannelReplayError, HandshakeError
from fedshield.transport import CaptureLog, transport_pair

platform = generate_platform()
client = spawn_enclave(platform, b"client agent program", b"cfg\n")
coordinator = spawn_enclave(platform, b"coordinator program", b"cfg\n")

pin_coordinator = AttestationPolicy(platform.root_public_key, coordinator.measurement)
pin_client = AttestationPolicy(platform.root_public_key, client.measurement)


def handshake_both(quote_provider_client=None):
    """Drive both ends on two threads; return what each side got."""
    a, b = transport_pair(capture)
    out = [None, None]

    def run(i, enclave, transport, policy, role, provider):
        try:
            out[i] = attested_handshake(enclave, transport, policy, role,
                                        quote_provider=provider)
        except Exception as exc:
            out[i] = exc

    threads = [
        threading.Thread(target=run, args=(0, client, a, pin_coordinator,
                                           "client", quote_provider_client)),
        threading.Thread(target=run, args=(1, coordinator, b, pin_client,
                                           "coordinator", None)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out


# Honest handshake: both quotes verify, ephemeral keys are bound into the
# report data, and the channel carries AEAD frames with counter nonces.
capture = CaptureLog()
chan_client, chan_coordinator = handshake_both()
secret = b"model update weights: " + os.urandom(16)
chan_client.send(secret)
print("received intact:", chan_coordinator.recv(timeout=5) == secret)
print("plaintext on the wire?", scan_capture(capture, {"secret": secret}) != [])

# Replaying a captured ciphertext frame trips the per-direction counter.
replay = capture.frames()[-1][1][4:]
chan_client._transport.send_frame(replay)
try:
    chan_coordinator.recv(timeout=5)
except ChannelReplayError as exc:
    print("replayed frame:", exc)

# An active man-in-the-middle substitutes its own ephemeral key; the quote
# binding no longer matches and the verifier aborts before any payload.
def mitm_quote(enclave, report_data, nonce):
    forged = binding_report_data(os.urandom(32), "client", nonce)
    return enclave.generate_quote(forged, nonce).to_bytes()

results = handshake_both(quote_provider_client=mitm_quote)
refusals = [r for r in results if isinstance(r, HandshakeError)]
print("MITM simulation aborted with check:",
      refusals[0].check if refusals else "??")
