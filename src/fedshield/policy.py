"""Security policies and the attested secret-provisioning manager.

A policy is the pre-agreed contract between all parties: which code
measurements may act in which role, which clients participate with which
dataset hashes, the session hyperparameters, which secrets exist, and how
they are injected into attested computations. Policy identity is the
SHA-256 hash of the canonical encoding (sorted keys, UTF-8, no
insignificant whitespace), so the hash is invariant under key reordering
of the source document. Policies are immutable once uploaded.

Every secret is a ``symmetric-key-256`` the manager generates (a ``value``
in the document is refused, so no key is stored in clear), and every
injection rule sets a named ``environment-variable`` whose template is one
``$$NAME$$`` token: on release to an attested computation the variable
holds that secret's hex, the 32-byte key every role reads. Generated
secrets exist on disk only as sealed blobs under the manager's enclave.

Persistence layout: ``policies/<hash>.pol``, ``secrets/<hash>/<name>.sealed``,
append-only ``audit.log``. Each file is replaced all or nothing, and a
policy's secrets are generated once all their sealed files exist.
"""

from __future__ import annotations

import re
import threading
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from secrets import token_bytes

from .attestation import AttestationPolicy, verify_quote
from .audit import AuditLog
from .enclave import AEAD_KEY_LEN, Enclave, Quote, SealedBlob
from .encoding import canonical_bytes, canonical_loads, sha256
from .errors import (
    AccessDeniedError,
    AlreadyGeneratedError,
    DecodeError,
    HandshakeError,
    InvalidInputError,
    KeyResolutionError,
    NotFoundError,
    PolicyConflictError,
    PolicyInvalidError,
    RoleUnknownError,
)
from .shield import KEY_ID_LEN, replace_file

ROLES = ("coordinator", "client", "policy_manager_self")
# The one secret kind and the one injection mechanism.
SYMMETRIC_KEY_256 = "symmetric-key-256"
ENVIRONMENT_VARIABLE = "environment-variable"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")

# Secrets of the standard deployment; their names also derive shield key ids.
DATASET_SECRET = "dataset-key"
CHECKPOINT_SECRET = "checkpoint-key"
VALIDATION_SECRET = "validation-key"
# The environment variables those secrets are injected as.
DATASET_KEY = "DATASET_KEY"
CHECKPOINT_KEY = "CHECKPOINT_KEY"
VALIDATION_KEY = "VALIDATION_KEY"
# Per role: the variable holding the key that shields its dataset, and the
# secret whose name derives that file's key id.
ROLE_DATASET_KEYS = {
    "client": (DATASET_KEY, DATASET_SECRET),
    "coordinator": (VALIDATION_KEY, VALIDATION_SECRET),
}


@dataclass(frozen=True)
class InjectionRule:
    role: str
    name: str  # the environment variable
    secret: str  # the secret whose hex it holds


@dataclass(frozen=True)
class SessionConfig:
    """Hyperparameters and guard settings agreed in the policy."""

    min_clients: int = 1
    max_rounds: int = 10
    target_accuracy: float = 0.95
    convergence_epsilon: float = 1e-4
    patience: int = 3
    learning_rate: float = 0.1
    local_epochs: int = 1
    batch_size: int = 32
    clone_count: int = 0  # 0 disables the outlier guard
    clone_subset_size: int = 0
    outlier_threshold: float = 0.02
    rng_seed: int = 0

    def validate(self, roster_size: int) -> None:
        if self.min_clients < 1:
            raise PolicyInvalidError("min_clients must be >= 1")
        if self.max_rounds < 1:
            raise PolicyInvalidError("max_rounds must be >= 1")
        if not 0.0 < self.target_accuracy <= 1.0:
            raise PolicyInvalidError("target_accuracy must be in (0, 1]")
        if self.convergence_epsilon <= 0:
            raise PolicyInvalidError("convergence_epsilon must be positive")
        if self.patience < 1:
            raise PolicyInvalidError("patience must be >= 1")
        if self.learning_rate <= 0:
            raise PolicyInvalidError("learning_rate must be positive")
        if self.local_epochs < 1:
            raise PolicyInvalidError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise PolicyInvalidError("batch_size must be >= 1")
        if self.clone_count < 0 or self.clone_subset_size < 0:
            raise PolicyInvalidError("clone settings must be non-negative")
        if self.clone_subset_size > roster_size:
            raise PolicyInvalidError("clone_subset_size exceeds roster size")
        if self.outlier_threshold <= 0:
            raise PolicyInvalidError("outlier_threshold must be positive")
        if not 0 <= self.rng_seed < 2 ** 64:
            raise PolicyInvalidError("rng_seed must fit in 64 bits")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "SessionConfig":
        """Every field is required and coerced to the type of its default."""
        try:
            return cls(**{f.name: type(f.default)(doc[f.name]) for f in fields(cls)})
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise PolicyInvalidError(f"bad session config: {exc}") from exc


@dataclass(frozen=True)
class RosterEntry:
    client_id: str
    dataset_hash: bytes


@dataclass(frozen=True)
class Policy:
    name: str
    allowed_measurements: dict[str, bytes]
    roster: tuple[RosterEntry, ...]
    session: SessionConfig
    secrets: tuple[str, ...]  # the declared secret names
    injection: tuple[InjectionRule, ...]
    policy_hash: bytes
    document: str  # canonical text
    validation_dataset_hash: bytes | None = None

    def roster_hash(self, client_id: str) -> bytes | None:
        for entry in self.roster:
            if entry.client_id == client_id:
                return entry.dataset_hash
        return None

    def pin(self, role: str, trusted_root: bytes) -> AttestationPolicy:
        """What a peer acting in ``role`` must attest: the measurement this
        policy pins for the role, under ``trusted_root``."""
        if role not in self.allowed_measurements:
            raise RoleUnknownError(f"role {role!r} not declared in policy")
        return AttestationPolicy(trusted_root, self.allowed_measurements[role])


def _hex32(doc: dict, key: str, context: str) -> bytes:
    value = doc.get(key)
    if not isinstance(value, str):
        raise PolicyInvalidError(f"{context}: missing {key}")
    try:
        raw = bytes.fromhex(value)
    except ValueError as exc:
        raise PolicyInvalidError(f"{context}: {key} is not hex") from exc
    if len(raw) != 32:
        raise PolicyInvalidError(f"{context}: {key} must be 32 bytes of hex")
    return raw


def parse_policy(document_text: str | bytes) -> Policy:
    """Parse and validate a policy document; raises PolicyInvalidError."""
    try:
        doc = canonical_loads(document_text)
    except Exception as exc:
        raise PolicyInvalidError(f"document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PolicyInvalidError("policy document must be an object")

    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise PolicyInvalidError("policy needs a non-empty name")

    measurements_doc = doc.get("allowed_measurements")
    if not isinstance(measurements_doc, dict) or not measurements_doc:
        raise PolicyInvalidError("allowed_measurements must be a non-empty object")
    allowed: dict[str, bytes] = {}
    for role, value in measurements_doc.items():
        if role not in ROLES:
            raise PolicyInvalidError(f"unknown role {role!r} in allowed_measurements")
        allowed[role] = _hex32({"m": value}, "m", f"allowed_measurements[{role}]")

    roster_doc = doc.get("client_roster")
    if not isinstance(roster_doc, list) or not roster_doc:
        raise PolicyInvalidError("client_roster must be a non-empty list")
    roster = []
    seen_ids = set()
    for i, entry in enumerate(roster_doc):
        if not isinstance(entry, dict) or not isinstance(entry.get("client_id"), str):
            raise PolicyInvalidError(f"roster entry {i} is malformed")
        client_id = entry["client_id"]
        if client_id in seen_ids:
            raise PolicyInvalidError(f"duplicate roster client {client_id!r}")
        seen_ids.add(client_id)
        roster.append(RosterEntry(client_id, _hex32(entry, "dataset_hash", f"roster[{i}]")))

    session = SessionConfig.from_dict(doc.get("session") or {})
    session.validate(roster_size=len(roster))

    secrets_doc = doc.get("secrets", [])
    if not isinstance(secrets_doc, list):
        raise PolicyInvalidError("secrets must be a list")
    names: list[str] = []
    for i, entry in enumerate(secrets_doc):
        if not isinstance(entry, dict):
            raise PolicyInvalidError(f"secret {i} is malformed")
        sname = entry.get("secret_name")
        kind = entry.get("kind")
        if not isinstance(sname, str) or not _NAME_RE.match(sname):
            raise PolicyInvalidError(f"secret {i}: bad secret_name")
        if sname in names:
            raise PolicyInvalidError(f"duplicate secret name {sname!r}")
        if kind != SYMMETRIC_KEY_256:
            raise PolicyInvalidError(
                f"secret {sname!r}: kind {kind!r} is not {SYMMETRIC_KEY_256}")
        if "value" in entry:
            raise PolicyInvalidError(f"secret {sname!r}: a {kind} takes no value")
        names.append(sname)

    injection_doc = doc.get("injection", [])
    if not isinstance(injection_doc, list):
        raise PolicyInvalidError("injection must be a list")
    rules = []
    for i, entry in enumerate(injection_doc):
        if not isinstance(entry, dict):
            raise PolicyInvalidError(f"injection rule {i} is malformed")
        role = entry.get("role")
        mechanism = entry.get("mechanism")
        rule_name = entry.get("name")
        template = entry.get("template")
        if role not in ROLES:
            raise PolicyInvalidError(f"injection rule {i}: unknown role {role!r}")
        if mechanism != ENVIRONMENT_VARIABLE:
            raise PolicyInvalidError(
                f"injection rule {i}: mechanism {mechanism!r} is not {ENVIRONMENT_VARIABLE}")
        if not isinstance(rule_name, str) or not rule_name:
            raise PolicyInvalidError(f"injection rule {i}: needs a variable name")
        secret = template[2:-2] if isinstance(template, str) else None
        if template != f"$${secret}$$" or secret not in names:
            raise PolicyInvalidError(f"injection rule {i}: template {template!r} "
                                     "is not one $$secret$$ token of a declared secret")
        rules.append(InjectionRule(role, rule_name, secret))

    validation_hash = None
    if doc.get("validation_dataset_hash") is not None:
        validation_hash = _hex32(doc, "validation_dataset_hash", "policy")

    try:  # NaN and infinities parse but have no canonical form
        canonical = canonical_bytes(doc)
    except InvalidInputError as exc:
        raise PolicyInvalidError(str(exc)) from exc
    return Policy(
        name=name,
        allowed_measurements=allowed,
        roster=tuple(roster),
        session=session,
        secrets=tuple(names),
        injection=tuple(rules),
        policy_hash=sha256(canonical),
        document=canonical.decode("utf-8"),
        validation_dataset_hash=validation_hash,
    )


def secret_key_id(policy_hash: bytes, secret_name: str) -> bytes:
    """Deterministic key id for a policy secret, used by the file shield so
    writer and reader derive the same id without a registry."""
    return sha256(policy_hash + secret_name.encode("utf-8"))[:KEY_ID_LEN]


@dataclass(frozen=True)
class InjectionBundle:
    """The environment rendered for one attested role."""

    role: str
    environment: dict[str, str]

    def key_bytes(self, variable: str) -> bytes:
        """Resolve an injected hex key by environment-variable name."""
        value = self.environment.get(variable)
        if value is None:
            raise KeyResolutionError(
                f"no key material injected as {variable!r} for role {self.role!r}")
        try:
            return bytes.fromhex(value)
        except ValueError as exc:
            raise KeyResolutionError(
                f"injected value for {variable!r} is not a hex key") from exc

    def to_dict(self) -> dict:
        return {"role": self.role, "environment": dict(self.environment)}

    @classmethod
    def from_dict(cls, doc) -> "InjectionBundle":
        """Parse a bundle from its wire form, the keys ``role`` and
        ``environment`` and no other; DecodeError if malformed."""
        if not isinstance(doc, dict) or set(doc) != {"role", "environment"}:
            raise DecodeError("injection bundle must hold a role and an environment only")
        role, environment = doc["role"], doc["environment"]
        if not isinstance(role, str):
            raise DecodeError("injection bundle needs a string role")
        if not isinstance(environment, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in environment.items()):
            raise DecodeError("bundle environment must map strings to strings")
        return cls(role, dict(environment))


class PolicyManager:
    """The trusted policy store and secret-release gate.

    Lives inside its own simulated enclave; generated secrets are sealed to
    that enclave's measurement and never persisted or logged in plaintext.
    Uploads do not attest the uploader (clients attest the manager instead);
    attestation happens at release time, against the per-policy measurement
    pinned for the requested role.
    """

    def __init__(self, store_dir: str | Path, enclave: Enclave,
                 trusted_root: bytes):
        self.store_dir = Path(store_dir)
        self.enclave = enclave
        self.trusted_root = trusted_root
        (self.store_dir / "policies").mkdir(parents=True, exist_ok=True)
        (self.store_dir / "secrets").mkdir(parents=True, exist_ok=True)
        self.audit = AuditLog(self.store_dir / "audit.log")
        self._policies = {}
        for path in (self.store_dir / "policies").glob("*.pol"):
            try:  # a refused policy stops the manager, named so it can be removed
                policy = parse_policy(path.read_bytes())
            except PolicyInvalidError as exc:
                raise PolicyInvalidError(f"stored policy {path}: {exc}") from exc
            self._policies[policy.policy_hash] = policy
        self._write_lock = threading.Lock()  # single-writer store

    # -- policy store ------------------------------------------------------

    def upload_policy(self, document_text: str) -> bytes:
        """Validate and store a policy; idempotent for identical content."""
        policy = parse_policy(document_text)
        with self._write_lock:
            if policy.policy_hash in self._policies:
                return policy.policy_hash
            if any(p.name == policy.name for p in self._policies.values()):
                raise PolicyConflictError(
                    f"policy name {policy.name!r} already bound to different content")
            replace_file(self.store_dir / "policies" / f"{policy.policy_hash.hex()}.pol",
                         policy.document.encode())
            self._policies[policy.policy_hash] = policy
            self.audit.append("policy-upload", {
                "name": policy.name,
                "policy_hash": policy.policy_hash.hex(),
            })
            return policy.policy_hash

    def get_policy(self, policy_hash: bytes) -> Policy:
        try:
            return self._policies[policy_hash]
        except KeyError:
            raise NotFoundError(f"no policy {policy_hash.hex()}") from None

    # -- secrets -----------------------------------------------------------

    def _secret_dir(self, policy_hash: bytes) -> Path:
        return self.store_dir / "secrets" / policy_hash.hex()

    def _sealed_path(self, policy_hash: bytes, secret: str) -> Path:
        return self._secret_dir(policy_hash) / f"{secret}.sealed"

    def generate_secrets(self, policy_hash: bytes) -> None:
        """Seal every declared secret; a partial set left by a killed run is
        regenerated in full, and none of it was released."""
        policy = self.get_policy(policy_hash)
        with self._write_lock:
            if self.secrets_generated(policy_hash):
                raise AlreadyGeneratedError(
                    f"secrets for {policy_hash.hex()} already generated")
            self._secret_dir(policy_hash).mkdir(parents=True, exist_ok=True)
            for secret in policy.secrets:
                blob = self.enclave.seal(token_bytes(AEAD_KEY_LEN))
                replace_file(self._sealed_path(policy_hash, secret), blob.to_bytes())
            self.audit.append("secrets-generated", {
                "policy_hash": policy_hash.hex(),
                "names": sorted(policy.secrets),
            })

    def secrets_generated(self, policy_hash: bytes) -> bool:
        """Whether the sealed file of every declared secret exists."""
        return self._secret_dir(policy_hash).is_dir() and all(
            self._sealed_path(policy_hash, secret).exists()
            for secret in self.get_policy(policy_hash).secrets)

    def release_secrets(self, policy_hash: bytes, role: str, quote: Quote | bytes,
                        expected_nonce: bytes) -> InjectionBundle:
        """Release the role's environment rules iff its quote verifies.

        The quote must verify under the manager's trusted root, embed the
        expected freshness nonce, and carry the measurement the policy pins
        for the role. Denials carry the first failing check and release
        zero secret bytes.
        """
        policy = self.get_policy(policy_hash)
        gate = policy.pin(role, self.trusted_root)
        if not self.secrets_generated(policy_hash):
            raise NotFoundError("secrets have not been generated for this policy")
        try:
            verify_quote(quote, gate, expected_nonce)
        except HandshakeError as exc:
            self.audit.append("secrets-denied", {
                "policy_hash": policy_hash.hex(),
                "role": role,
                "check": exc.check,
            })
            raise AccessDeniedError(exc.check) from exc
        keys = {}  # each named secret is unsealed once, and no other
        environment = {}
        for rule in policy.injection:
            if rule.role != role:
                continue
            if rule.secret not in keys:
                path = self._sealed_path(policy_hash, rule.secret)
                keys[rule.secret] = self.enclave.unseal(
                    SealedBlob.from_bytes(path.read_bytes())).hex()
            environment[rule.name] = keys[rule.secret]
        self.audit.append("secrets-released", {
            "policy_hash": policy_hash.hex(),
            "role": role,
        })
        return InjectionBundle(role, environment)
