"""Quote verification and the mutually attested channel handshake.

The handshake binds an ephemeral X25519 key exchange to remote attestation:
each side issues a fresh 32-byte nonce, and the peer's quote must embed that
nonce and carry report data tying the peer's ephemeral public key and role to
it. Nonce freshness replaces wall-clock quote expiry, so there is no clock
assumption anywhere in verification.

Handshake wire messages (inside plain frames): ``u8 message-type | payload``
with HELLO(1) = nonce32 + role, KEYSHARE(2) = ephemeral key, QUOTE(3) =
serialized quote, FINISH(4) = transcript MAC. Established channels exchange
``u64 BE per-direction counter | AEAD ciphertext`` frames.

Rejections surface the first failing check only, in the fixed order
decode, signature, nonce, measurement, svn, binding.
"""

from __future__ import annotations

import hmac as hmac_mod
import os
import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .enclave import (
    QUOTE_NONCE_LEN,
    REPORT_DATA_LEN,
    Enclave,
    Quote,
    verify_signature,
)
from .encoding import sha256
from .errors import (
    ChannelIntegrityError,
    ChannelReplayError,
    DecodeError,
    HandshakeError,
    InvalidInputError,
    QuoteDecodeError,
)

MSG_HELLO = 1
MSG_KEYSHARE = 2
MSG_QUOTE = 3
MSG_FINISH = 4

ROLE_CLIENT = "client"
ROLE_COORDINATOR = "coordinator"
ROLE_POLICY_MANAGER = "policy-manager"


@dataclass(frozen=True)
class AttestationPolicy:
    """What a verifier requires of a peer's quote.

    ``expected_measurements`` of ``None`` pins nothing and is reserved for
    listeners that accept any attested code (the policy manager's upload
    endpoint, where the client attests the manager rather than vice versa).
    Quote age is bounded structurally by the handshake nonce, so there is
    no wall-clock freshness field.
    """

    trusted_root: bytes
    expected_measurements: frozenset[bytes] | None
    min_svn: int = 0

    def __post_init__(self):
        if len(self.trusted_root) != 32:
            raise InvalidInputError("trusted_root must be a raw 32-byte public key")
        if self.expected_measurements is not None:
            object.__setattr__(self, "expected_measurements",
                               frozenset(self.expected_measurements))
            if not self.expected_measurements:
                raise InvalidInputError("expected_measurements must be non-empty")


@dataclass(frozen=True)
class AttestationVerdict:
    accepted: bool
    check: str | None = None  # first failing check when rejected
    detail: str = ""

    @classmethod
    def ok(cls) -> "AttestationVerdict":
        return cls(True)

    @classmethod
    def reject(cls, check: str, detail: str = "") -> "AttestationVerdict":
        return cls(False, check, detail)


def binding_report_data(ephemeral_public_key: bytes, role: str,
                        session_nonce: bytes) -> bytes:
    """Report data tying an ephemeral channel key to a role within one
    attested session."""
    digest = sha256(ephemeral_public_key + role.encode("utf-8") + session_nonce)
    return digest.ljust(REPORT_DATA_LEN, b"\x00")


def verify_quote(quote: Quote | bytes, policy: AttestationPolicy,
                 expected_nonce: bytes) -> AttestationVerdict:
    """Check a quote against a policy and a freshness nonce.

    Pure function: same inputs always yield the same verdict. Malformed
    serialized quotes raise ``QuoteDecodeError`` rather than returning a
    rejection.
    """
    if isinstance(quote, (bytes, bytearray)):
        quote = Quote.from_bytes(bytes(quote))
    if not verify_signature(policy.trusted_root, quote.signature, quote.signed_payload()):
        return AttestationVerdict.reject("signature", "signature does not verify under trusted root")
    if quote.nonce != expected_nonce:
        return AttestationVerdict.reject("nonce", "quote nonce does not match the issued challenge")
    if (policy.expected_measurements is not None
            and quote.identity.measurement not in policy.expected_measurements):
        return AttestationVerdict.reject("measurement", "measurement is not pinned by policy")
    if quote.identity.svn < policy.min_svn:
        return AttestationVerdict.reject("svn", f"svn {quote.identity.svn} below minimum {policy.min_svn}")
    return AttestationVerdict.ok()


def _hkdf(shared: bytes, salt: bytes, info: bytes, length: int = 32) -> bytes:
    return HKDF(algorithm=hashes.SHA256(), length=length, salt=salt, info=info).derive(shared)


def _counter_nonce(counter: int) -> bytes:
    return b"\x00\x00\x00\x00" + struct.pack(">Q", counter)


class SecureChannel:
    """AEAD-framed duplex channel with per-direction monotone counters.

    One logical user per direction; concurrent sends must be serialized by
    the caller. Any authentication failure closes the channel. ``peer_quote``
    verified over ``local_nonce`` and binds the peer's channel key.
    """

    def __init__(self, transport, send_key: bytes, recv_key: bytes,
                 local_nonce: bytes, peer_quote: Quote):
        self._transport = transport
        self._send = AESGCM(send_key)
        self._recv = AESGCM(recv_key)
        self._send_counter = 0
        self._recv_counter = 0
        self.local_nonce = local_nonce
        self.peer_quote = peer_quote
        self.closed = False

    def send(self, payload: bytes) -> None:
        if self.closed:
            raise ChannelIntegrityError("channel is closed")
        counter = self._send_counter
        self._send_counter += 1
        header = struct.pack(">Q", counter)
        ciphertext = self._send.encrypt(_counter_nonce(counter), payload, header)
        self._transport.send_frame(header + ciphertext)

    def recv(self, timeout: float | None = None) -> bytes:
        if self.closed:
            raise ChannelIntegrityError("channel is closed")
        body = self._transport.recv_frame(timeout=timeout)
        if len(body) < 8 + 16:
            self.close()
            raise DecodeError("channel frame too short")
        header, ciphertext = body[:8], body[8:]
        (counter,) = struct.unpack(">Q", header)
        if counter != self._recv_counter:
            self.close()
            raise ChannelReplayError(
                f"frame counter {counter}, expected {self._recv_counter}")
        try:
            payload = self._recv.decrypt(_counter_nonce(counter), ciphertext, header)
        except InvalidTag as exc:
            self.close()
            raise ChannelIntegrityError("channel frame failed authentication") from exc
        self._recv_counter += 1
        return payload

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._transport.close()


def _encode_hello(nonce: bytes, role: str) -> bytes:
    role_bytes = role.encode("utf-8")
    return bytes([MSG_HELLO]) + nonce + bytes([len(role_bytes)]) + role_bytes


def _expect(transport, expected_type: int, timeout: float | None) -> bytes:
    body = transport.recv_frame(timeout=timeout)
    if not body:
        raise DecodeError("empty handshake frame")
    if body[0] != expected_type:
        raise HandshakeError("decode", f"unexpected handshake message type {body[0]}")
    return body[1:]


def attested_handshake(enclave: Enclave, transport, policy: AttestationPolicy,
                       role: str, *, expected_peer_role: str | None = None,
                       quote_provider=None, timeout: float | None = 30.0
                       ) -> SecureChannel:
    """Run the mutual attested handshake over a frame transport.

    Both peers call this. On success each side holds direction keys derived
    from an ephemeral X25519 exchange whose public keys were bound into the
    verified quotes. On failure the transport is closed and a
    ``HandshakeError`` carrying the failing check is raised.

    ``quote_provider(enclave, report_data, nonce) -> bytes`` substitutes the
    local quote generation; tests use it to present corrupted evidence.
    """
    if quote_provider is None:
        quote_provider = lambda e, rd, n: e.generate_quote(rd, n).to_bytes()

    local_nonce = os.urandom(QUOTE_NONCE_LEN)
    private = X25519PrivateKey.generate()
    local_eph = private.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)

    try:
        hello = _encode_hello(local_nonce, role)
        transport.send_frame(hello)
        peer_hello_body = _expect(transport, MSG_HELLO, timeout)
        if len(peer_hello_body) < QUOTE_NONCE_LEN + 1:
            raise HandshakeError("decode", "short HELLO")
        challenge = peer_hello_body[:QUOTE_NONCE_LEN]
        role_len = peer_hello_body[QUOTE_NONCE_LEN]
        try:
            peer_role = peer_hello_body[QUOTE_NONCE_LEN + 1:QUOTE_NONCE_LEN + 1 + role_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise HandshakeError("decode", "HELLO role is not UTF-8") from exc
        if peer_role == role:
            raise HandshakeError("binding", f"peer claims the same role {role!r}")
        if expected_peer_role is not None and peer_role != expected_peer_role:
            raise HandshakeError("binding", f"peer role {peer_role!r}, expected {expected_peer_role!r}")

        keyshare = bytes([MSG_KEYSHARE]) + local_eph
        transport.send_frame(keyshare)
        peer_eph = _expect(transport, MSG_KEYSHARE, timeout)
        if len(peer_eph) != 32:
            raise HandshakeError("decode", "ephemeral key must be 32 bytes")

        local_rd = binding_report_data(local_eph, role, challenge)
        local_quote = quote_provider(enclave, local_rd, challenge)
        transport.send_frame(bytes([MSG_QUOTE]) + local_quote)
        peer_quote_raw = _expect(transport, MSG_QUOTE, timeout)

        try:
            peer_quote = Quote.from_bytes(peer_quote_raw)
        except QuoteDecodeError as exc:
            raise HandshakeError("decode", str(exc)) from exc
        verdict = verify_quote(peer_quote, policy, expected_nonce=local_nonce)
        if not verdict.accepted:
            raise HandshakeError(verdict.check, verdict.detail)
        expected_rd = binding_report_data(peer_eph, peer_role, local_nonce)
        if peer_quote.report_data != expected_rd:
            raise HandshakeError("binding", "quote does not bind the presented ephemeral key")

        shared = private.exchange(X25519PublicKey.from_public_bytes(peer_eph))
        # Transcript in role order so both sides hash identical bytes.
        local_msgs = hello + keyshare + bytes([MSG_QUOTE]) + local_quote
        peer_msgs = (_encode_hello(challenge, peer_role)
                     + bytes([MSG_KEYSHARE]) + peer_eph
                     + bytes([MSG_QUOTE]) + peer_quote_raw)
        if role < peer_role:
            transcript = sha256(local_msgs + peer_msgs)
        else:
            transcript = sha256(peer_msgs + local_msgs)

        send_key = _hkdf(shared, transcript, b"chan:" + f"{role}>{peer_role}".encode())
        recv_key = _hkdf(shared, transcript, b"chan:" + f"{peer_role}>{role}".encode())
        finish_key = _hkdf(shared, transcript, b"fin:" + role.encode())
        peer_finish_key = _hkdf(shared, transcript, b"fin:" + peer_role.encode())

        transport.send_frame(bytes([MSG_FINISH])
                             + hmac_mod.new(finish_key, transcript, "sha256").digest())
        peer_finish = _expect(transport, MSG_FINISH, timeout)
        expected_finish = hmac_mod.new(peer_finish_key, transcript, "sha256").digest()
        if not hmac_mod.compare_digest(peer_finish, expected_finish):
            raise HandshakeError("binding", "transcript confirmation failed")
    except Exception:
        transport.close()
        raise

    return SecureChannel(transport, send_key, recv_key, local_nonce, peer_quote)
