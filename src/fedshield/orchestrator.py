"""Coordinator service, client agent, and the attested round protocol.

The coordinator drives rounds: broadcast the global parameters, collect
client updates until the deadline, run the clone-and-sample guard,
aggregate what survives, evaluate on the policy-declared validation set,
seal a rollback-protected checkpoint and append the round record to the
hash-chained audit log. The committed parameters reach the clients with the
next round's broadcast, or with SESSION_END after the last round. Clients
that fail admission receive no model material at all.

Each role provisions itself: the coordinator refuses a validation CSV whose
hash differs from the policy's and takes that set and its checkpoint key from
one secret release; a client agent pins the coordinator the policy declares.

Round protocol message types: JOIN(30), MODEL_BROADCAST(31),
UPDATE_SUBMIT(32), SESSION_END(34). Parameter vectors travel raw as the
message trailer (empty on a failed SESSION_END); a broadcast is encoded once
and sent on every channel under its own key.
"""

from __future__ import annotations

import logging
import struct
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import protocol
from .attestation import ROLE_CLIENT, ROLE_COORDINATOR, attested_handshake
from .audit import AuditLog
from .enclave import Enclave
from .encoding import b64, canonical_bytes, canonical_loads, sha256, unb64, unhex
from .errors import (
    DecodeError,
    FedShieldError,
    InvalidInputError,
    RollbackDetectedError,
    RoundQuorumError,
    SessionFailedError,
    TransportClosedError,
)
from .fl import (
    Dataset,
    GlobalModel,
    ModelUpdate,
    aggregate,
    converged,
    dataset_from_csv_bytes,
    deserialize_params,
    evaluate,
    local_train,
    serialize_params,
)
from .outliers import clone_aggregate, flag_outliers, score_clients
from .policy import CHECKPOINT_KEY, CHECKPOINT_SECRET, Policy, secret_key_id
from .services import ManagerChannel
from .shield import read_shielded, shield_decrypt, shield_encrypt, write_shielded

logger = logging.getLogger(__name__)

_SLOTS = ("checkpoint-a.sfl", "checkpoint-b.sfl")
AGENT_RECV_TIMEOUT = 120.0  # seconds a client waits for the next coordinator message
SENT_TAIL_BYTES = 64  # a client keeps this tail of each sent update, for leak scans


def _int_field(body: dict, key: str) -> int:
    """A JSON integer field of a round message; DecodeError otherwise."""
    value = body.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise DecodeError(f"round message field {key!r} is not an integer")
    return value


def _params_of(trailer: bytes) -> np.ndarray:
    """The parameter vector a round message carries; DecodeError otherwise."""
    try:
        return deserialize_params(trailer)
    except InvalidInputError as exc:
        raise DecodeError(f"malformed parameter trailer: {exc}") from exc


def derive_training_seed(rng_seed: int, client_id: str, round_index: int) -> int:
    """Per-(client, round) seed, stable across platforms."""
    digest = sha256(canonical_bytes([rng_seed, client_id, round_index]))
    return struct.unpack(">Q", digest[:8])[0]


@dataclass
class RoundRecord:
    round_index: int
    admitted: list[str]
    update_hashes: dict[str, str]
    committed_hash: bytes
    accuracy: float
    loss: float
    counter_value: int
    flags: list[str] = field(default_factory=list)
    clone: dict | None = None
    dropped: dict[str, str] = field(default_factory=dict)

    def payload(self) -> dict:
        """The audit payload of this round."""
        doc = asdict(self)
        doc["round"] = doc.pop("round_index")
        doc["committed_hash"] = self.committed_hash.hex()
        return doc


class ClientAgent:
    """One participant: joins over an attested channel, trains on demand.

    ``update_transform`` lets tests and demos model a malicious client that
    tampers with its update before submission. ``quote_provider`` feeds the
    handshake, so corrupted evidence can be presented end to end.
    """

    def __init__(self, client_id: str, enclave: Enclave, dataset: Dataset,
                 dataset_hash: bytes, policy: Policy, trusted_root: bytes,
                 *, update_transform=None, quote_provider=None):
        self.client_id = client_id
        self.enclave = enclave
        self.dataset = dataset
        self.dataset_hash = dataset_hash
        self.cfg = policy.session
        self.coordinator_policy = policy.pin("coordinator", trusted_root)
        self.update_transform = update_transform
        self.quote_provider = quote_provider
        self.channel = None
        self.params: np.ndarray | None = None  # the latest global model received
        self.sent_update_tails: list[bytes] = []  # see SENT_TAIL_BYTES
        self.result: dict | None = None

    def join(self, transport) -> None:
        """Attest the coordinator, present identity and dataset hash."""
        self.channel = attested_handshake(
            self.enclave, transport, self.coordinator_policy,
            role=ROLE_CLIENT, expected_peer_role=ROLE_COORDINATOR,
            quote_provider=self.quote_provider)
        protocol.request(self.channel, protocol.JOIN, {
            "client_id": self.client_id,
            "dataset_hash": self.dataset_hash.hex(),
        })

    def run(self) -> dict:
        """Participate until the coordinator ends the session."""
        if self.channel is None:
            raise InvalidInputError("join before running")
        while True:
            mtype, body, params = protocol.recv_message(
                self.channel, timeout=AGENT_RECV_TIMEOUT)
            if mtype == protocol.MODEL_BROADCAST:
                round_index = _int_field(body, "round")
                self.params = _params_of(params)
                self._train_and_submit(round_index, self.params)
            elif mtype == protocol.SESSION_END:
                if params:
                    self.params = _params_of(params)
                self.result = body
                self.channel.close()
                return body
            else:
                raise DecodeError(f"unexpected coordinator message {mtype}")

    def _train_and_submit(self, round_index: int, start: np.ndarray) -> None:
        seed = derive_training_seed(self.cfg.rng_seed, self.client_id, round_index)
        update = local_train(start, self.dataset, self.cfg, seed,
                             client_id=self.client_id, round_index=round_index)
        if self.update_transform is not None:
            update = self.update_transform(update)
        blob = serialize_params(update.params)
        self.sent_update_tails.append(blob[-SENT_TAIL_BYTES:])
        protocol.send_message(self.channel, protocol.UPDATE_SUBMIT, {
            "client_id": update.client_id,
            "round": update.round_index,
            "num_examples": update.num_examples,
            "params_hash": update.params_hash.hex(),
        }, blob)


class Coordinator:
    """Round driver and checkpoint owner for one federated session."""

    def __init__(self, policy: Policy, enclave: Enclave, state_dir: str | Path,
                 trusted_root: bytes, validation_csv: bytes, manager: ManagerChannel,
                 *, round_deadline: float = 30.0):
        if policy.validation_dataset_hash not in (None, sha256(validation_csv)):
            raise InvalidInputError(
                f"validation set hashes to {sha256(validation_csv).hex()}, not to "
                f"the policy's {policy.validation_dataset_hash.hex()}")
        self.policy = policy
        self.cfg = policy.session
        self.enclave = enclave
        self.state_dir = Path(state_dir)
        plaintext, self.secrets = manager.provision(
            policy.policy_hash, "coordinator", self.state_dir / "validation.sfl",
            validation_csv)
        self.validation = dataset_from_csv_bytes(plaintext)
        self.checkpoint_key = self.secrets.key_bytes(CHECKPOINT_KEY)
        self.checkpoint_key_id = secret_key_id(policy.policy_hash, CHECKPOINT_SECRET)
        self.manager = manager
        self.round_deadline = round_deadline
        self.client_policy = policy.pin("client", trusted_root)
        self.audit = AuditLog(self.state_dir / "audit.log")
        self.records: list[RoundRecord] = []
        self.admitted: dict[str, object] = {}
        self.counter_id: bytes | None = None
        self.model = GlobalModel(0, np.zeros(self.validation.dim + 1))
        self._resume_or_init()

    # -- checkpointing -----------------------------------------------------

    def _slot_path(self, round_index: int) -> Path:
        return self.state_dir / _SLOTS[round_index % 2]

    def _checkpoint_plaintext(self, model: GlobalModel) -> bytes:
        return canonical_bytes({
            "history": [[r, acc, loss] for r, acc, loss in model.history],
            "params": b64(serialize_params(model.params)),
            "policy_hash": self.policy.policy_hash.hex(),
            "round": model.round_index,
        })

    def _write_checkpoint(self, model: GlobalModel) -> tuple[bytes, int]:
        if self.counter_id is None:  # the session's first commit
            self.counter_id = self.manager.counter_create().counter_id
        token = self.manager.counter_increment(self.counter_id)
        plaintext = self._checkpoint_plaintext(model)
        shielded = shield_encrypt(plaintext, self.checkpoint_key,
                                  self.checkpoint_key_id, token,
                                  self.manager.counter_public_key)
        write_shielded(self._slot_path(model.round_index), shielded)
        stable = self.manager.stable_value(self.counter_id)
        if stable != token.value:
            raise RollbackDetectedError(
                f"checkpoint counter did not stabilize at {token.value}")
        return sha256(plaintext), token.value

    def _resume_or_init(self) -> None:
        existing = [p for p in (self.state_dir / s for s in _SLOTS) if p.exists()]
        if not existing:
            return  # the checkpoint counter is created at the first commit
        rollbacks = 0
        for path in existing:
            shielded = read_shielded(path)
            try:
                plaintext = shield_decrypt(shielded, self.checkpoint_key,
                                           self.manager.stable_value)
            except RollbackDetectedError:
                rollbacks += 1
                continue
            doc = canonical_loads(plaintext)
            if doc["policy_hash"] != self.policy.policy_hash.hex():
                raise InvalidInputError("checkpoint belongs to a different policy")
            self.model = GlobalModel(
                round_index=int(doc["round"]),
                params=deserialize_params(unb64(doc["params"])),
                history=[(int(r), float(a), float(l)) for r, a, l in doc["history"]],
            )
            self.counter_id = shielded.header.counter_id
            self.audit.append("resume", {"round": self.model.round_index})
            return
        if rollbacks:
            raise RollbackDetectedError(
                "every checkpoint candidate is stale; refusing to resume")
        raise InvalidInputError("no decryptable checkpoint found")

    # -- admission ---------------------------------------------------------

    def handle_join(self, transport) -> None:
        """Admit or reject one connecting client and audit the decision.
        Rejected clients get an error response (or a closed transport) and
        never any model bytes."""
        try:
            channel = attested_handshake(
                self.enclave, transport, self.client_policy,
                role=ROLE_COORDINATOR, expected_peer_role=ROLE_CLIENT)
        except (FedShieldError, TimeoutError) as exc:
            self.audit.append("admission", {
                "client_id": None, "admitted": False, "reason": "attestation",
                "detail": getattr(exc, "check", str(exc)),
            })
            return
        try:
            mtype, body, _ = protocol.recv_message(channel, timeout=self.round_deadline)
        except (FedShieldError, TimeoutError) as exc:
            channel.close()
            self.audit.append("admission", {
                "client_id": None, "admitted": False, "reason": "roster",
                "detail": type(exc).__name__,
            })
            return
        client_id = str(body.get("client_id", "")) if mtype == protocol.JOIN else None
        reason = None
        if (not client_id or self.policy.roster_hash(client_id) is None
                or client_id in self.admitted):
            reason = "roster"
        else:
            try:
                presented = unhex(body.get("dataset_hash", ""), 32)
            except DecodeError:
                presented = b""
            if presented != self.policy.roster_hash(client_id):
                reason = "dataset-hash"
        if reason is not None:
            protocol.send_err(channel, "admission-rejected", reason)
            channel.close()
        else:
            self.admitted[client_id] = channel
            protocol.send_ok(channel, {"admitted": True})
        self.audit.append("admission", {
            "client_id": client_id,
            "admitted": reason is None,
            "reason": reason,
        })

    def accept_clients(self, listener, *, connections: int | None = None,
                       deadline: float = 30.0) -> None:
        """Handle ``connections`` joins, admitted or not, or with no count
        until the roster is admitted; stop at ``deadline`` or a closed listener."""
        end, handled = time.time() + deadline, 0
        while time.time() < end and (handled < connections if connections is not None
                                     else len(self.admitted) < len(self.policy.roster)):
            try:
                transport = listener.accept(timeout=0.2)
            except TimeoutError:
                continue
            except TransportClosedError:
                return
            self.handle_join(transport)
            handled += 1

    # -- rounds ------------------------------------------------------------

    def _broadcast(self, mtype: int, body: dict, params: bytes = b"") -> None:
        message = protocol.encode_message(mtype, body, params)
        for client_id, channel in sorted(self.admitted.items()):
            try:
                channel.send(message)
            except FedShieldError:
                logger.info("broadcast to %s failed", client_id)

    def _collect_updates(self, round_index: int
                         ) -> tuple[dict[str, ModelUpdate], dict[str, str]]:
        updates: dict[str, ModelUpdate] = {}
        dropped: dict[str, str] = {}
        deadline = time.time() + self.round_deadline
        for client_id in sorted(self.admitted):
            channel = self.admitted[client_id]
            try:
                updates[client_id] = self._next_update(channel, client_id,
                                                       round_index, deadline)
            except TimeoutError:
                dropped[client_id] = "timeout"
            except FedShieldError as exc:  # a bad frame or update evicts
                dropped[client_id] = type(exc).__name__
                self.admitted.pop(client_id).close()
        return updates, dropped

    def _next_update(self, channel, client_id: str, round_index: int,
                     deadline: float) -> ModelUpdate:
        """Read until the client's update for this round arrives. A late
        update for a past round is discarded; reading never goes past the
        deadline, apart from the short first wait every client gets."""
        budget = max(deadline - time.time(), 0.05)
        while budget > 0:
            mtype, body, params = protocol.recv_message(channel, timeout=budget)
            update = self._parse_update(client_id, round_index, mtype, body, params)
            if update is not None:
                return update
            budget = deadline - time.time()
        raise TimeoutError("only stale updates before the round deadline")

    def _parse_update(self, client_id: str, round_index: int, mtype: int,
                      body: dict, trailer: bytes) -> ModelUpdate | None:
        """The update in a message, or None for a late one from a past round."""
        if mtype != protocol.UPDATE_SUBMIT:
            raise DecodeError(f"expected update, got message type {mtype}")
        if body.get("client_id") != client_id:
            raise DecodeError("update claims a different client id")
        round_claim = _int_field(body, "round")
        num_examples = _int_field(body, "num_examples")
        if round_claim < round_index:
            return None
        if round_claim != round_index:
            raise DecodeError("update is for a different round")
        if num_examples < 1:
            raise DecodeError("update num_examples must be >= 1")
        params = _params_of(trailer)
        declared = unhex(body.get("params_hash", ""), 32)
        if sha256(trailer) != declared:
            raise DecodeError("update hash mismatch")
        if params.shape != (self.validation.dim + 1,):
            raise DecodeError("update dimension mismatch")
        return ModelUpdate(client_id, round_index, params, num_examples, declared)

    def _run_guard(self, round_index: int, updates: dict[str, ModelUpdate]
                   ) -> tuple[set[str], dict | None]:
        if self.cfg.clone_count < 1 or len(updates) < 2:
            return set(), None
        k, m = self.cfg.clone_count, self.cfg.clone_subset_size
        if m < 1 or m >= len(updates):
            # attendance shrank below the configured subset size; fall back
            # to exhaustive leave-one-out over whoever responded
            k, m = len(updates), len(updates) - 1
        cfg = replace(self.cfg, clone_count=k, clone_subset_size=m)
        runs = clone_aggregate(list(updates.values()), self.validation, cfg,
                               round_seed=round_index)
        scores = score_clients(runs, sorted(updates))
        flags = flag_outliers(scores, self.cfg.outlier_threshold)
        payload = {
            "clones": [
                {"subset": sorted(run.subset), "utility": run.utility}
                for run in runs
            ],
            "scores": {
                s.client_id: s.score for s in scores
            },
            "flags": sorted(flags),
            "seed": [self.cfg.rng_seed, round_index],
        }
        return flags, payload

    def run_round(self, round_index: int) -> RoundRecord:
        """One broadcast-train-collect-aggregate-commit cycle."""
        self._broadcast(protocol.MODEL_BROADCAST, {"round": round_index},
                        serialize_params(self.model.params))
        updates, dropped = self._collect_updates(round_index)
        if len(updates) < self.cfg.min_clients:
            raise RoundQuorumError(
                f"round {round_index}: {len(updates)} updates, "
                f"need {self.cfg.min_clients}")
        flags, clone_payload = self._run_guard(round_index, updates)
        kept = [updates[cid] for cid in sorted(updates) if cid not in flags]
        if not kept:
            raise RoundQuorumError(f"round {round_index}: every update was flagged")
        new_params = aggregate(kept)
        accuracy, loss = evaluate(new_params, self.validation)
        # the model advances only once the checkpoint and the audit entry hold it
        candidate = GlobalModel(round_index, new_params,
                                self.model.history + [(round_index, accuracy, loss)])
        committed_hash, counter_value = self._write_checkpoint(candidate)
        record = RoundRecord(
            round_index=round_index,
            admitted=sorted(updates),
            update_hashes={cid: updates[cid].params_hash.hex()
                           for cid in sorted(updates)},
            committed_hash=committed_hash,
            accuracy=accuracy,
            loss=loss,
            counter_value=counter_value,
            flags=sorted(flags),
            clone=clone_payload,
            dropped=dropped,
        )
        self.audit.append("round", record.payload())
        self.records.append(record)
        self.model = candidate
        return record

    def run_session(self) -> GlobalModel:
        """Loop rounds until the stop rule fires; audit everything."""
        self.audit.append("session-start", {
            "policy_hash": self.policy.policy_hash.hex(),
            "starting_round": self.model.round_index,
        })
        try:
            while True:
                record = self.run_round(self.model.round_index + 1)
                reason = converged(self.model.history, self.cfg)
                if reason:
                    break
        except FedShieldError as exc:  # any failed round ends the session
            self.audit.append("session-failed", {"reason": str(exc)})
            self._broadcast(protocol.SESSION_END,
                            {"status": "failed", "reason": str(exc)})
            self._close_clients()
            raise SessionFailedError(str(exc)) from exc
        self.audit.append("session-end", {
            "reason": reason,
            "round": record.round_index,
            "committed_hash": record.committed_hash.hex(),
        })
        self._broadcast(protocol.SESSION_END, {
            "status": "converged", "reason": reason, "round": record.round_index,
        }, serialize_params(self.model.params))
        self._close_clients()
        return self.model

    def _close_clients(self) -> None:
        for channel in self.admitted.values():
            channel.close()
        self.admitted.clear()
