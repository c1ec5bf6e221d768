"""Attested service endpoint hosting the policy manager and counter service.

One listener serves both components: request types 10-12 dispatch to the
policy manager, 20-22 to the counter service. They remain distinct trust
anchors (the counter service signs tokens with its own key); co-hosting is
purely a deployment convenience. Inbound handshakes pin no measurement:
callers attest the service, and the service gates secret release on the
quote that opened the request's channel, which the handshake verified over
this endpoint's nonce and bound to the channel's keys. No policy request
depends on an earlier one from another peer: an upload of a stored
document and a GENERATE for a generated policy succeed and change nothing.
An error reply's kind is ``policy-invalid``, ``role-unknown``,
``not-found``, ``decode``, ``access-denied``, ``unknown-request`` or
``internal``. On the caller side, ``ManagerChannel`` verifies every counter
token it receives under the counter service's key, and that an increment or
read names the counter asked for; only the checkpoint uses counters. Its
``provision``, every role's one set-up step, is one secret release, then the
role's dataset shielded as a file that binds no counter and read back.
"""

from __future__ import annotations

import logging
import threading
from pathlib import Path

from . import protocol
from .attestation import AttestationPolicy, ROLE_POLICY_MANAGER, attested_handshake
from .counters import COUNTER_ID_LEN, CounterService, CounterToken, verify_token
from .enclave import Enclave
from .encoding import b64, unb64, unhex
from .errors import (
    AccessDeniedError,
    DecodeError,
    FedShieldError,
    FreshnessTokenError,
    IntegrityError,
    NotFoundError,
    PolicyInvalidError,
    RoleUnknownError,
    TransportClosedError,
)
from .policy import ROLE_DATASET_KEYS, InjectionBundle, PolicyManager, secret_key_id
from .shield import NO_COUNTER, open_shielded, shield_encrypt, write_shielded

logger = logging.getLogger(__name__)

_ERROR_KINDS = [
    (PolicyInvalidError, "policy-invalid"),
    (RoleUnknownError, "role-unknown"),
    (NotFoundError, "not-found"),
    (DecodeError, "decode"),
]


def _error_kind(exc: FedShieldError) -> str:
    for klass, kind in _ERROR_KINDS:
        if isinstance(exc, klass):
            return kind
    return "internal"


class ServiceEndpoint:
    """Accept loop for the manager/counter endpoint; owns both services."""

    def __init__(self, listener, store_dir, enclave: Enclave,
                 trusted_root: bytes, counter_key):
        self.listener = listener
        self.counters = CounterService(Path(store_dir) / "counters.wal", counter_key)
        self.manager = PolicyManager(store_dir, enclave, trusted_root)
        self.enclave = enclave
        # Any attested peer may connect; release decisions happen per request.
        self.handshake_policy = AttestationPolicy(trusted_root, None)

    def start(self) -> threading.Thread:
        thread = threading.Thread(target=self._accept_loop, daemon=True,
                                  name="service-endpoint")
        thread.start()
        return thread

    def stop(self) -> None:
        self.listener.close()
        self.counters.close()

    def _accept_loop(self) -> None:
        while True:  # a closed listener's accept raises TransportClosedError
            try:
                transport = self.listener.accept(timeout=0.2)
            except TimeoutError:
                continue
            except TransportClosedError:
                return
            threading.Thread(target=self._serve_connection, args=(transport,),
                             daemon=True).start()

    def _serve_connection(self, transport) -> None:
        try:
            channel = attested_handshake(
                self.enclave, transport, self.handshake_policy,
                role=ROLE_POLICY_MANAGER)
        except (FedShieldError, TimeoutError) as exc:
            logger.info("service handshake failed: %s", exc)
            return
        try:
            while True:
                mtype, body, _ = protocol.recv_message(channel, timeout=None)
                self._dispatch(channel, mtype, body)
        except (TransportClosedError, FedShieldError):
            channel.close()

    def _dispatch(self, channel, mtype: int, body: dict) -> None:
        try:
            if mtype == protocol.UPLOAD_POLICY:
                policy_hash = self.manager.upload_policy(str(body.get("document", "")))
                protocol.send_ok(channel, {"policy_hash": policy_hash.hex()})
            elif mtype == protocol.GENERATE:
                self.manager.generate_secrets(unhex(body.get("policy_hash", ""), 32))
                protocol.send_ok(channel)
            elif mtype == protocol.REQUEST_SECRETS:
                self._handle_request_secrets(channel, body)
            elif mtype == protocol.COUNTER_CREATE:
                token = self.counters.read_stable(self.counters.create_counter())
                protocol.send_ok(channel, {"token": b64(token.to_bytes())})
            elif mtype in (protocol.COUNTER_INC, protocol.COUNTER_READ):
                counter_id = unhex(body.get("counter_id", ""), COUNTER_ID_LEN)
                token = (self.counters.increment_async(counter_id)
                         if mtype == protocol.COUNTER_INC
                         else self.counters.read_stable(counter_id))
                protocol.send_ok(channel, {"token": b64(token.to_bytes())})
            else:
                protocol.send_err(channel, "unknown-request", f"type {mtype}")
        except AccessDeniedError as exc:
            protocol.send_err(channel, "access-denied", str(exc), check=exc.check)
        except FedShieldError as exc:
            protocol.send_err(channel, _error_kind(exc), str(exc))
        except Exception as exc:  # a handler fault must not end the service loop
            logger.exception("service request type %d failed", mtype)
            protocol.send_err(channel, "internal", type(exc).__name__)

    def _handle_request_secrets(self, channel, body: dict) -> None:
        policy_hash = unhex(body.get("policy_hash", ""), 32)
        role = str(body.get("role", ""))
        bundle = self.manager.release_secrets(
            policy_hash, role, channel.peer_quote, expected_nonce=channel.local_nonce)
        protocol.send_ok(channel, {"bundle": bundle.to_dict()})


class ManagerChannel:
    """Caller-side stub for the manager/counter endpoint over one channel."""

    def __init__(self, channel, counter_public_key: bytes):
        self.channel = channel
        self.counter_public_key = counter_public_key

    def upload_policy(self, document_text: str) -> bytes:
        body = protocol.request(self.channel, protocol.UPLOAD_POLICY,
                                {"document": document_text})
        return unhex(body.get("policy_hash"), 32)

    def generate_secrets(self, policy_hash: bytes) -> None:
        protocol.request(self.channel, protocol.GENERATE,
                         {"policy_hash": policy_hash.hex()})

    def request_secrets(self, policy_hash: bytes, role: str) -> InjectionBundle:
        """The role's bundle, released on this channel's handshake quote."""
        body = protocol.request(self.channel, protocol.REQUEST_SECRETS,
                                {"policy_hash": policy_hash.hex(), "role": role})
        return InjectionBundle.from_dict(body.get("bundle"))

    def _token(self, body: dict, counter_id: bytes | None = None) -> CounterToken:
        """The reply's verified token, which must name ``counter_id`` if given."""
        token = CounterToken.from_bytes(unb64(body.get("token")))
        if not verify_token(token, self.counter_public_key):
            raise FreshnessTokenError("counter token signature does not verify")
        if counter_id is not None and token.counter_id != counter_id:
            raise FreshnessTokenError("counter token is for a different counter")
        return token

    def counter_create(self) -> CounterToken:
        return self._token(protocol.request(self.channel, protocol.COUNTER_CREATE, {}))

    def counter_increment(self, counter_id: bytes) -> CounterToken:
        return self._token(protocol.request(self.channel, protocol.COUNTER_INC,
                                            {"counter_id": counter_id.hex()}),
                           counter_id)

    def counter_read(self, counter_id: bytes) -> CounterToken:
        return self._token(protocol.request(self.channel, protocol.COUNTER_READ,
                                            {"counter_id": counter_id.hex()}),
                           counter_id)

    def stable_value(self, counter_id: bytes) -> int:
        return self.counter_read(counter_id).value

    def provision(self, policy_hash: bytes, role: str, path,
                  plaintext: bytes) -> tuple[bytes, InjectionBundle]:
        """Request ``role``'s secrets, shield ``plaintext`` at ``path`` under
        the role's dataset key as a file that binds no counter, and read it
        back: ``IntegrityError`` unless it holds exactly ``plaintext``, which
        is returned with the bundle."""
        bundle = self.request_secrets(policy_hash, role)
        variable, secret_name = ROLE_DATASET_KEYS[role]
        key = bundle.key_bytes(variable)
        shielded = shield_encrypt(plaintext, key, secret_key_id(policy_hash, secret_name),
                                  NO_COUNTER, 0)
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        write_shielded(path, shielded)
        del shielded  # the ciphertext, before the file's own copy is read
        if open_shielded(path, key)[1] != plaintext:
            raise IntegrityError(f"{path} does not read back the dataset written to it")
        return plaintext, bundle

    def close(self) -> None:
        self.channel.close()


def connect_manager(enclave: Enclave, transport, manager_policy: AttestationPolicy,
                    role: str, counter_public_key: bytes) -> ManagerChannel:
    """Attest the manager endpoint and wrap the channel in a stub."""
    channel = attested_handshake(enclave, transport, manager_policy, role=role,
                                 expected_peer_role=ROLE_POLICY_MANAGER)
    return ManagerChannel(channel, counter_public_key)
