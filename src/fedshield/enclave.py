"""Software-simulated enclave runtime.

Provides code measurement, enclave identity, signed attestation quotes,
and measurement-bound sealed storage. The trust boundary is a simulation:
platform keys live in an operator-readable key file and nothing prevents
a root user from inspecting process memory. The formats, derivations and
checks are real; only the hardware isolation is pretend.

Serialized quote layout (big-endian, 214 bytes total):

    version u16 | hash_alg u8 | sig_alg u8 | measurement 32B |
    platform_id 16B | svn u16 | report_data 64B | nonce 32B |
    signature 64B (Ed25519, over all preceding bytes)

Sealed blob layout: magic "SSB1" | hash_alg u8 | aead_alg u8 | nonce 12B |
u64 ciphertext length | ciphertext+tag.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
)

from .encoding import sha256
from .errors import DecodeError, IntegrityError, InvalidInputError, QuoteDecodeError, SealAuthenticationError

HASH_SHA256 = 1
SIG_ED25519 = 1
AEAD_AES_256_GCM = 1

MEASUREMENT_LEN = 32
PLATFORM_ID_LEN = 16
REPORT_DATA_LEN = 64
QUOTE_NONCE_LEN = 32
SIGNATURE_LEN = 64
QUOTE_VERSION = 1
QUOTE_LEN = 2 + 1 + 1 + MEASUREMENT_LEN + PLATFORM_ID_LEN + 2 + REPORT_DATA_LEN + QUOTE_NONCE_LEN + SIGNATURE_LEN

SEALED_MAGIC = b"SSB1"
AEAD_NONCE_LEN = 12
AEAD_KEY_LEN = 32


def measure(code_bundle: bytes, config: bytes) -> bytes:
    """Digest identifying a code bundle together with its configuration.

    The measurement is SHA-256 over the length-prefixed concatenation
    ``u64be(len(bundle)) || bundle || u64be(len(config)) || config``.
    Identical inputs always yield identical digests.
    """
    if not code_bundle:
        raise InvalidInputError("code bundle must be non-empty")
    if not config:
        raise InvalidInputError("config must be non-empty")
    blob = struct.pack(">Q", len(code_bundle)) + code_bundle + struct.pack(">Q", len(config)) + config
    return sha256(blob)


@dataclass(frozen=True)
class EnclaveIdentity:
    """Identity of a running enclave: code measurement plus platform."""

    measurement: bytes
    platform_id: bytes
    svn: int

    def __post_init__(self):
        if len(self.measurement) != MEASUREMENT_LEN:
            raise InvalidInputError("measurement must be 32 bytes")
        if len(self.platform_id) != PLATFORM_ID_LEN:
            raise InvalidInputError("platform_id must be 16 bytes")
        if not 0 <= self.svn <= 0xFFFF:
            raise InvalidInputError("svn must fit in 16 bits")


@dataclass(frozen=True)
class Quote:
    """Signed attestation evidence produced by a platform for an enclave.

    ``report_data`` is caller-supplied and opaque to the runtime; channel
    handshakes use it to bind ephemeral keys to the attested identity.
    """

    version: int
    hash_alg: int
    sig_alg: int
    identity: EnclaveIdentity
    report_data: bytes
    nonce: bytes
    signature: bytes

    def signed_payload(self) -> bytes:
        """All fields preceding the signature, in wire order."""
        return struct.pack(
            ">HBB", self.version, self.hash_alg, self.sig_alg
        ) + self.identity.measurement + self.identity.platform_id + struct.pack(
            ">H", self.identity.svn
        ) + self.report_data + self.nonce

    def to_bytes(self) -> bytes:
        return self.signed_payload() + self.signature

    @classmethod
    def from_bytes(cls, data: bytes) -> "Quote":
        if len(data) != QUOTE_LEN:
            raise QuoteDecodeError(f"quote must be {QUOTE_LEN} bytes, got {len(data)}")
        version, hash_alg, sig_alg = struct.unpack(">HBB", data[:4])
        if version != QUOTE_VERSION:
            raise QuoteDecodeError(f"unsupported quote version {version}")
        if hash_alg != HASH_SHA256 or sig_alg != SIG_ED25519:
            raise QuoteDecodeError("unsupported algorithm identifier")
        off = 4
        meas = data[off:off + MEASUREMENT_LEN]; off += MEASUREMENT_LEN
        pid = data[off:off + PLATFORM_ID_LEN]; off += PLATFORM_ID_LEN
        (svn,) = struct.unpack(">H", data[off:off + 2]); off += 2
        rd = data[off:off + REPORT_DATA_LEN]; off += REPORT_DATA_LEN
        nonce = data[off:off + QUOTE_NONCE_LEN]; off += QUOTE_NONCE_LEN
        sig = data[off:]
        return cls(version, hash_alg, sig_alg, EnclaveIdentity(meas, pid, svn), rd, nonce, sig)


@dataclass
class SealedBlob:
    """Measurement-bound AEAD envelope for persisted enclave state.

    The serialized form carries no identity fields: only an enclave with
    the same measurement on the same platform derives the right key. The
    ``sealing_measurement``/``sealing_platform_id`` hints exist in memory
    only (populated by ``seal``) so that unsealing in the wrong enclave
    reports a seal-authentication error instead of a bare tag failure.
    """

    nonce: bytes
    ciphertext: bytes
    hash_alg: int = HASH_SHA256
    aead_alg: int = AEAD_AES_256_GCM
    sealing_measurement: bytes | None = field(default=None, repr=False)
    sealing_platform_id: bytes | None = field(default=None, repr=False)

    def to_bytes(self) -> bytes:
        return (SEALED_MAGIC + struct.pack(">BB", self.hash_alg, self.aead_alg)
                + self.nonce + struct.pack(">Q", len(self.ciphertext)) + self.ciphertext)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SealedBlob":
        if len(data) < 4 + 2 + AEAD_NONCE_LEN + 8 or data[:4] != SEALED_MAGIC:
            raise DecodeError("not a sealed blob")
        hash_alg, aead_alg = struct.unpack(">BB", data[4:6])
        nonce = data[6:6 + AEAD_NONCE_LEN]
        (ct_len,) = struct.unpack(">Q", data[18:26])
        ct = data[26:]
        if len(ct) != ct_len:
            raise DecodeError("sealed blob length mismatch")
        return cls(nonce=nonce, ciphertext=ct, hash_alg=hash_alg, aead_alg=aead_alg)


@dataclass
class Platform:
    """A simulated platform instance: identity, signing root, seal secret."""

    platform_id: bytes
    svn: int
    signing_key: Ed25519PrivateKey
    platform_secret: bytes

    @property
    def root_public_key(self) -> bytes:
        return self.signing_key.public_key().public_bytes(
            Encoding.Raw, PublicFormat.Raw)

    def sign(self, payload: bytes) -> bytes:
        return self.signing_key.sign(payload)


def generate_platform(svn: int = 1) -> Platform:
    return Platform(
        platform_id=os.urandom(PLATFORM_ID_LEN),
        svn=svn,
        signing_key=Ed25519PrivateKey.generate(),
        platform_secret=os.urandom(32),
    )


def save_platform(platform: Platform, path: str | Path) -> None:
    """Write the platform key file. Operator-readable by design."""
    seed = platform.signing_key.private_bytes(
        Encoding.Raw, PrivateFormat.Raw, NoEncryption())
    doc = {
        "kind": "platform",
        "platform_id": platform.platform_id.hex(),
        "svn": platform.svn,
        "signing_key": seed.hex(),
        "platform_secret": platform.platform_secret.hex(),
        "root_public_key": platform.root_public_key.hex(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _load_key_file(path: str | Path, kind: str, parse):
    """``parse(doc)`` of a ``kind`` key file; any other file is ``InvalidInputError``."""
    try:
        doc = json.loads(Path(path).read_text())
        if doc.get("kind") == kind:
            return parse(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path} is not a valid {kind} key file: {exc!r}") from exc
    raise InvalidInputError(f"{path} is not a {kind} key file")


def load_platform(path: str | Path) -> Platform:
    return _load_key_file(path, "platform", lambda doc: Platform(
        platform_id=bytes.fromhex(doc["platform_id"]),
        svn=int(doc["svn"]),
        signing_key=Ed25519PrivateKey.from_private_bytes(bytes.fromhex(doc["signing_key"])),
        platform_secret=bytes.fromhex(doc["platform_secret"]),
    ))


def _sealing_key(platform_secret: bytes, measurement: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(),
        length=AEAD_KEY_LEN,
        salt=b"fedshield-seal-v1",
        info=measurement,
    ).derive(platform_secret)


class Enclave:
    """Handle to a spawned enclave. Immutable and safe for concurrent use."""

    def __init__(self, platform: Platform, measurement: bytes):
        self._platform = platform
        self.identity = EnclaveIdentity(measurement, platform.platform_id, platform.svn)

    @property
    def measurement(self) -> bytes:
        return self.identity.measurement

    def generate_quote(self, report_data: bytes, nonce: bytes) -> Quote:
        """Produce signed attestation evidence embedding caller data."""
        if len(report_data) != REPORT_DATA_LEN:
            raise InvalidInputError(f"report_data must be {REPORT_DATA_LEN} bytes")
        if len(nonce) != QUOTE_NONCE_LEN:
            raise InvalidInputError(f"nonce must be {QUOTE_NONCE_LEN} bytes")
        unsigned = Quote(QUOTE_VERSION, HASH_SHA256, SIG_ED25519, self.identity,
                         report_data, nonce, b"")
        signature = self._platform.sign(unsigned.signed_payload())
        return Quote(QUOTE_VERSION, HASH_SHA256, SIG_ED25519, self.identity,
                     report_data, nonce, signature)

    def seal(self, plaintext: bytes) -> SealedBlob:
        """Encrypt state so only a same-measurement enclave on this platform
        can recover it."""
        key = _sealing_key(self._platform.platform_secret, self.measurement)
        nonce = os.urandom(AEAD_NONCE_LEN)
        ad = self.measurement + self._platform.platform_id
        ct = AESGCM(key).encrypt(nonce, plaintext, ad)
        return SealedBlob(nonce=nonce, ciphertext=ct,
                          sealing_measurement=self.measurement,
                          sealing_platform_id=self._platform.platform_id)

    def unseal(self, blob: SealedBlob) -> bytes:
        if blob.sealing_measurement is not None and blob.sealing_measurement != self.measurement:
            raise SealAuthenticationError("blob sealed under a different measurement")
        if blob.sealing_platform_id is not None and blob.sealing_platform_id != self._platform.platform_id:
            raise SealAuthenticationError("blob sealed on a different platform")
        key = _sealing_key(self._platform.platform_secret, self.measurement)
        ad = self.measurement + self._platform.platform_id
        try:
            return AESGCM(key).decrypt(blob.nonce, blob.ciphertext, ad)
        except InvalidTag as exc:
            raise IntegrityError("sealed blob failed authentication") from exc


def spawn_enclave(platform: Platform, code_bundle: bytes, config: bytes) -> Enclave:
    """Launch a simulated enclave; its identity is the bundle measurement."""
    return Enclave(platform, measure(code_bundle, config))


def verify_signature(public_key: bytes, signature: bytes, payload: bytes) -> bool:
    """Ed25519 verification against a raw 32-byte public key."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, payload)
        return True
    except (InvalidSignature, ValueError):
        return False


def generate_signing_key() -> Ed25519PrivateKey:
    return Ed25519PrivateKey.generate()


def save_signing_key(key: Ed25519PrivateKey, path: str | Path) -> None:
    seed = key.private_bytes(Encoding.Raw, PrivateFormat.Raw, NoEncryption())
    doc = {
        "kind": "signing",
        "signing_key": seed.hex(),
        "public_key": key.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw).hex(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_signing_key(path: str | Path) -> Ed25519PrivateKey:
    return _load_key_file(path, "signing", lambda doc: (
        Ed25519PrivateKey.from_private_bytes(bytes.fromhex(doc["signing_key"]))))


def public_key_bytes(key: Ed25519PrivateKey) -> bytes:
    return key.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
