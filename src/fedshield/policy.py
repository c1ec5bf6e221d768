"""Security policies and the attested secret-provisioning manager.

A policy is the pre-agreed contract between all parties: which code
measurements may act in which role, which clients participate with which
dataset hashes, the session hyperparameters, which secrets exist, and how
they are injected into attested computations. Policy identity is the
SHA-256 hash of the canonical encoding (sorted keys, UTF-8, no
insignificant whitespace), so the hash is invariant under key reordering
of the source document. Policies are immutable once uploaded.

Secret references inside injection templates are written ``$$NAME$$`` and
are replaced by the secret value when the bundle is rendered for an
attested computation. Generated secrets exist on disk only as sealed
blobs under the manager's enclave.

Persistence layout: ``policies/<hash>.pol``, ``secrets/<hash>/<name>.sealed``,
append-only ``audit.log``.
"""

from __future__ import annotations

import re
import secrets as secrets_mod
import threading
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Mapping

from .attestation import AttestationPolicy, verify_quote
from .audit import AuditLog
from .enclave import Enclave, Quote, SealedBlob
from .encoding import canonical_bytes, canonical_loads, sha256
from .errors import (
    AccessDeniedError,
    AlreadyGeneratedError,
    DecodeError,
    InvalidInputError,
    KeyResolutionError,
    NotFoundError,
    PolicyConflictError,
    PolicyInvalidError,
    RoleUnknownError,
    TemplateError,
)

ROLES = ("coordinator", "client", "policy_manager_self")
MECHANISMS = ("argument", "environment-variable", "file-template")

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_TOKEN_RE = re.compile(r"\$\$([A-Za-z_][A-Za-z0-9_-]*)\$\$")
_RANDOM_HEX_RE = re.compile(r"^random-hex-([0-9]{1,4})$")  # ASCII, under 10,000

SYMMETRIC_KEY_256 = "symmetric-key-256"
PROVIDED_VALUE = "provided-value"

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
class SecretSpec:
    secret_name: str
    kind: str
    value: str | None = None


@dataclass(frozen=True)
class InjectionRule:
    role: str
    mechanism: str
    name: str  # argument position label, variable name, or file path
    template: str


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
    secrets: tuple[SecretSpec, ...]
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
        return AttestationPolicy(
            trusted_root=trusted_root,
            expected_measurements=frozenset({self.allowed_measurements[role]}))


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


def parse_policy(document_text: str) -> Policy:
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
    specs = []
    seen_names = set()
    for i, entry in enumerate(secrets_doc):
        if not isinstance(entry, dict):
            raise PolicyInvalidError(f"secret {i} is malformed")
        sname = entry.get("secret_name")
        kind = entry.get("kind")
        if not isinstance(sname, str) or not _NAME_RE.match(sname):
            raise PolicyInvalidError(f"secret {i}: bad secret_name")
        if sname in seen_names:
            raise PolicyInvalidError(f"duplicate secret name {sname!r}")
        seen_names.add(sname)
        value = entry.get("value")
        if kind == PROVIDED_VALUE:
            if not isinstance(value, str):
                raise PolicyInvalidError(f"secret {sname!r}: provided-value needs a value")
        elif kind == SYMMETRIC_KEY_256:
            if value is not None:
                raise PolicyInvalidError(f"secret {sname!r}: value only allowed for provided-value")
        elif isinstance(kind, str) and _RANDOM_HEX_RE.match(kind):
            hex_len = int(_RANDOM_HEX_RE.match(kind).group(1))
            if hex_len < 2 or hex_len % 2 != 0:
                raise PolicyInvalidError(f"secret {sname!r}: random-hex length must be even and >= 2")
            if value is not None:
                raise PolicyInvalidError(f"secret {sname!r}: value only allowed for provided-value")
        else:
            raise PolicyInvalidError(f"secret {sname!r}: unknown kind {kind!r}")
        specs.append(SecretSpec(sname, kind, value))

    injection_doc = doc.get("injection", [])
    if not isinstance(injection_doc, list):
        raise PolicyInvalidError("injection must be a list")
    rules = []
    for i, entry in enumerate(injection_doc):
        if not isinstance(entry, dict):
            raise PolicyInvalidError(f"injection rule {i} is malformed")
        role = entry.get("role")
        mechanism = entry.get("mechanism")
        rule_name = entry.get("name", "")
        template = entry.get("template")
        if role not in ROLES:
            raise PolicyInvalidError(f"injection rule {i}: unknown role {role!r}")
        if mechanism not in MECHANISMS:
            raise PolicyInvalidError(f"injection rule {i}: unknown mechanism {mechanism!r}")
        if not isinstance(rule_name, str):
            raise PolicyInvalidError(f"injection rule {i}: name must be a string")
        if mechanism in ("environment-variable", "file-template") and not rule_name:
            raise PolicyInvalidError(f"injection rule {i}: {mechanism} needs a name")
        if not isinstance(template, str):
            raise PolicyInvalidError(f"injection rule {i}: missing template")
        for token in _TOKEN_RE.findall(template):
            if token not in seen_names:
                raise PolicyInvalidError(
                    f"injection rule {i} references undeclared secret {token!r}")
        rules.append(InjectionRule(role, mechanism, rule_name, template))

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
        secrets=tuple(specs),
        injection=tuple(rules),
        policy_hash=sha256(canonical),
        document=canonical.decode("utf-8"),
        validation_dataset_hash=validation_hash,
    )


def render_template(template_text: str, secret_environment: Mapping[str, str]) -> str:
    """Replace every ``$$NAME$$`` token; all other text is untouched.

    Pure function. An unresolvable token raises ``TemplateError`` naming it.
    """
    def substitute(match: re.Match) -> str:
        token = match.group(1)
        if token not in secret_environment:
            raise TemplateError(f"unresolvable secret token {token!r}")
        return secret_environment[token]

    return _TOKEN_RE.sub(substitute, template_text)


def secret_key_id(policy_hash: bytes, secret_name: str) -> bytes:
    """Deterministic 16-byte key id for a policy secret, used by the file
    shield so writer and reader derive the same id without a registry."""
    return sha256(policy_hash + secret_name.encode("utf-8"))[:16]


@dataclass(frozen=True)
class InjectionBundle:
    """Rendered secrets and configuration for one attested role."""

    role: str
    arguments: tuple[str, ...]
    environment: dict[str, str]
    files: dict[str, str]

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
        return {
            "role": self.role,
            "arguments": list(self.arguments),
            "environment": dict(self.environment),
            "files": dict(self.files),
        }

    @classmethod
    def from_dict(cls, doc) -> "InjectionBundle":
        """Parse a bundle from its wire form; DecodeError if malformed."""
        if not isinstance(doc, dict) or not isinstance(doc.get("role"), str):
            raise DecodeError("injection bundle needs a string role")
        arguments = doc.get("arguments", [])
        if not isinstance(arguments, list) or not all(isinstance(a, str) for a in arguments):
            raise DecodeError("bundle arguments must be a list of strings")
        environment, files = doc.get("environment", {}), doc.get("files", {})
        for name, table in (("environment", environment), ("files", files)):
            if not isinstance(table, dict) or not all(
                    isinstance(k, str) and isinstance(v, str) for k, v in table.items()):
                raise DecodeError(f"bundle {name} must map strings to strings")
        return cls(doc["role"], tuple(arguments), dict(environment), dict(files))


def _materialize(spec: SecretSpec) -> bytes:
    if spec.kind == SYMMETRIC_KEY_256:
        return secrets_mod.token_bytes(32)
    if spec.kind == PROVIDED_VALUE:
        return spec.value.encode("utf-8")
    match = _RANDOM_HEX_RE.match(spec.kind)
    hex_len = int(match.group(1))
    return secrets_mod.token_hex(hex_len // 2).encode("ascii")


def _render_value(spec: SecretSpec, raw: bytes) -> str:
    if spec.kind == SYMMETRIC_KEY_256:
        return raw.hex()
    return raw.decode("utf-8")


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
        self._policies = {policy.policy_hash: policy for policy in (
            parse_policy(path.read_text())
            for path in (self.store_dir / "policies").glob("*.pol"))}
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
            path = self.store_dir / "policies" / f"{policy.policy_hash.hex()}.pol"
            path.write_text(policy.document)
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

    def generate_secrets(self, policy_hash: bytes) -> None:
        """Materialize every declared secret into sealed storage."""
        policy = self.get_policy(policy_hash)
        with self._write_lock:
            sdir = self._secret_dir(policy_hash)
            if sdir.exists():
                raise AlreadyGeneratedError(
                    f"secrets for {policy_hash.hex()} already generated")
            sdir.mkdir(parents=True)
            for spec in policy.secrets:
                raw = _materialize(spec)
                blob = self.enclave.seal(raw)
                (sdir / f"{spec.secret_name}.sealed").write_bytes(blob.to_bytes())
            self.audit.append("secrets-generated", {
                "policy_hash": policy_hash.hex(),
                "names": sorted(s.secret_name for s in policy.secrets),
            })

    def secrets_generated(self, policy_hash: bytes) -> bool:
        return self._secret_dir(policy_hash).exists()

    def _secret_environment(self, policy: Policy) -> dict[str, str]:
        sdir = self._secret_dir(policy.policy_hash)
        env = {}
        for spec in policy.secrets:
            path = sdir / f"{spec.secret_name}.sealed"
            blob = SealedBlob.from_bytes(path.read_bytes())
            raw = self.enclave.unseal(blob)
            env[spec.secret_name] = _render_value(spec, raw)
        return env

    def release_secrets(self, policy_hash: bytes, role: str, quote: Quote | bytes,
                        expected_nonce: bytes) -> InjectionBundle:
        """Render the injection bundle for a role iff its quote verifies.

        The quote must verify under the manager's trusted root, embed the
        expected freshness nonce, and carry the measurement the policy pins
        for the role. Denials carry the first failing check and release
        zero secret bytes.
        """
        policy = self.get_policy(policy_hash)
        gate = policy.pin(role, self.trusted_root)
        if not self.secrets_generated(policy_hash):
            raise NotFoundError("secrets have not been generated for this policy")
        verdict = verify_quote(quote, gate, expected_nonce)
        if not verdict.accepted:
            self.audit.append("secrets-denied", {
                "policy_hash": policy_hash.hex(),
                "role": role,
                "check": verdict.check,
            })
            raise AccessDeniedError(verdict)
        env = self._secret_environment(policy)
        arguments, environment, files = [], {}, {}
        for rule in policy.injection:
            if rule.role != role:
                continue
            rendered = render_template(rule.template, env)
            if rule.mechanism == "argument":
                arguments.append(rendered)
            elif rule.mechanism == "environment-variable":
                environment[rule.name] = rendered
            else:
                files[rule.name] = rendered
        self.audit.append("secrets-released", {
            "policy_hash": policy_hash.hex(),
            "role": role,
        })
        return InjectionBundle(role, tuple(arguments), environment, files)
