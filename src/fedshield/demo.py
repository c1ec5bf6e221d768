"""Desk-scale deployment wiring every component together.

``Deployment`` builds a simulated platform, spawns manager/coordinator/client
enclaves on a ``Hub`` or a ``TcpNetwork``, uploads a policy and generates its
secrets. Each role then provisions itself as its CLI verb does: each client
through ``orchestrator.start_client``, the coordinator through
``Deployment.start_coordinator``, which each test revival calls too.
``Deployment.join_all`` is the one join path: it joins the agents expected to
be refused first, then the roster agents. ``run_demo``
runs a full federated session on a ``Hub`` through it, optionally records
every wire frame in a capture log and collects the sensitive byte patterns
(dataset rows, the tail of each update vector, released secrets) that
confidentiality scans search for.

All plaintext staging happens in memory: the only artifacts that reach
disk are sealed blobs, shielded files, policy documents, key files, and
the audit logs.
"""

from __future__ import annotations

import logging
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .enclave import (
    Enclave,
    generate_platform,
    generate_signing_key,
    measure,
    spawn_enclave,
)
from .encoding import canonical_bytes, sha256
from .errors import FedShieldError
from .fl import (
    Dataset,
    GlobalModel,
    dataset_to_csv_bytes,
    make_update,
    synthetic_dataset,
)
from .orchestrator import ROUND_DEADLINE, ClientAgent, Coordinator, start_client
from .policy import (
    CHECKPOINT_KEY,
    CHECKPOINT_SECRET,
    DATASET_KEY,
    DATASET_SECRET,
    VALIDATION_KEY,
    VALIDATION_SECRET,
    InjectionBundle,
    SessionConfig,
    parse_policy,
)
from .services import ManagerChannel, ServiceEndpoint, connect_manager
from .transport import CaptureLog, Hub, TcpNetwork

MANAGER_BUNDLE = b"fedshield service bundle: policy manager + counter service"
COORDINATOR_BUNDLE = b"fedshield service bundle: session coordinator"
CLIENT_BUNDLE = b"fedshield service bundle: client training agent"
ROLE_CONFIG = b"profile=desk-scale\n"
JOIN_DEADLINE = 60.0  # seconds for admission and for thread joins
ATTACK_FACTOR = -10.0  # how the demo's poisoning client rescales its update

logger = logging.getLogger(__name__)


def role_measurements() -> dict[str, bytes]:
    return {
        "policy_manager_self": measure(MANAGER_BUNDLE, ROLE_CONFIG),
        "coordinator": measure(COORDINATOR_BUNDLE, ROLE_CONFIG),
        "client": measure(CLIENT_BUNDLE, ROLE_CONFIG),
    }


def author_policy(name: str, measurements: dict[str, bytes],
                  roster: list[tuple[str, bytes]], session: SessionConfig,
                  validation_hash: bytes | None = None) -> str:
    """Compose a policy document for the standard three-secret deployment."""
    doc = {
        "name": name,
        "allowed_measurements": {role: m.hex() for role, m in measurements.items()},
        "client_roster": [
            {"client_id": cid, "dataset_hash": h.hex()} for cid, h in roster
        ],
        "session": session.to_dict(),
        "secrets": [
            {"secret_name": DATASET_SECRET, "kind": "symmetric-key-256"},
            {"secret_name": CHECKPOINT_SECRET, "kind": "symmetric-key-256"},
            {"secret_name": VALIDATION_SECRET, "kind": "symmetric-key-256"},
        ],
        "injection": [
            {"role": "client", "mechanism": "environment-variable",
             "name": DATASET_KEY, "template": f"$${DATASET_SECRET}$$"},
            {"role": "coordinator", "mechanism": "environment-variable",
             "name": CHECKPOINT_KEY, "template": f"$${CHECKPOINT_SECRET}$$"},
            {"role": "coordinator", "mechanism": "environment-variable",
             "name": VALIDATION_KEY, "template": f"$${VALIDATION_SECRET}$$"},
        ],
    }
    if validation_hash is not None:
        doc["validation_dataset_hash"] = validation_hash.hex()
    return canonical_bytes(doc).decode("utf-8")


def scaling_attack(factor: float):
    """Update transform modeling a poisoning client that rescales its
    trained parameters before submission."""
    def transform(update):
        return make_update(update.client_id, update.round_index,
                           update.params * factor, update.num_examples)
    return transform


@dataclass
class DemoResult:
    workdir: Path
    model: GlobalModel | None
    policy_hash: bytes
    coordinator: Coordinator
    audit_paths: dict[str, Path]
    sensitive: dict[str, bytes] = field(default_factory=dict)
    rejected: dict[str, str] = field(default_factory=dict)

    def flags_by_round(self) -> dict[int, list[str]]:
        return {rec.round_index: rec.flags for rec in self.coordinator.records}


def _partition_seeds(seed: int, labels: list[str]) -> dict[str, int]:
    return {
        label: int.from_bytes(sha256(canonical_bytes([seed, label]))[:4], "big")
        for label in labels
    }


class Deployment:
    """Manager and counter service, coordinator and roster client enclaves
    on one network, an in-process ``Hub`` unless another is given.
    Construction runs the whole set-up; tests and ``run_demo`` admit clients
    and run rounds through the helpers below.
    """

    def __init__(self, workdir: str | Path, datasets: dict[str, Dataset],
                 validation: Dataset, session: SessionConfig, *,
                 network: Hub | TcpNetwork | None = None,
                 round_deadline: float = ROUND_DEADLINE):
        workdir = Path(workdir)
        self.manager_dir = workdir / "manager"
        self.state_dir = workdir / "coordinator"
        self.round_deadline = round_deadline
        self.threads: list[threading.Thread] = []

        self.platform = generate_platform()
        root = self.platform.root_public_key
        manager_enclave = spawn_enclave(self.platform, MANAGER_BUNDLE, ROLE_CONFIG)
        self.coordinator_enclave = spawn_enclave(self.platform, COORDINATOR_BUNDLE,
                                                 ROLE_CONFIG)
        self.network = Hub() if network is None else network
        self.endpoint = ServiceEndpoint(self.network.listen("manager"),
                                        self.manager_dir, manager_enclave, root,
                                        generate_signing_key())
        self.endpoint.start()

        self.client_ids = list(datasets)
        csv_blobs = {cid: dataset_to_csv_bytes(ds) for cid, ds in datasets.items()}
        validation_csv = dataset_to_csv_bytes(validation)
        measurements = role_measurements()
        roster = [(cid, sha256(csv_blobs[cid])) for cid in self.client_ids]
        document = author_policy("desk-scale-session", measurements, roster, session,
                                 validation_hash=sha256(validation_csv))
        self.policy = parse_policy(document)
        self.policy_hash = self.policy.policy_hash
        self.manager_policy = self.policy.pin("policy_manager_self", root)

        # Client platforms share the deployment root in this desk simulation.
        enclaves = {cid: spawn_enclave(self.platform, CLIENT_BUNDLE, ROLE_CONFIG)
                    for cid in self.client_ids}
        uploader = self.connect_manager(enclaves[self.client_ids[0]], role="client")
        uploader.upload_policy(document)
        uploader.generate_secrets(self.policy_hash)
        uploader.close()

        # Each roster client as run-client sets it up; make_agent builds more.
        # The rows a leak scan looks for are cut from the files, not
        # re-encoded. Each file is released once its client is set up and
        # its rows are cut, so set-up holds one client's CSV at a time, not
        # all four of wide-model's: that cut 23-30 MB from set-up's peak RSS
        # there (seed 7), which fell below that of the rounds.
        self.agents: dict[str, ClientAgent] = {}
        self.client_bundles: dict[str, InjectionBundle] = {}
        self.leak_rows: dict[str, bytes] = {}
        for cid in self.client_ids:
            csv = csv_blobs.pop(cid)
            self.agents[cid], self.client_bundles[cid] = start_client(
                self.connect_manager(enclaves[cid], role="client"), cid, enclaves[cid],
                self.policy, root, workdir / "clients" / cid / "data.sfl", csv)
            first, last = _first_and_last_rows(csv)
            self.leak_rows[f"dataset-row:{cid}"] = first
            self.leak_rows[f"dataset-tail:{cid}"] = last
        del csv

        validation_row = _first_and_last_rows(validation_csv)[0]  # kept last in leak_rows
        self.coordinator = self.start_coordinator(validation_csv)
        self.leak_rows["validation-row"] = validation_row
        self.listener = self.network.listen("coordinator")

    def connect_manager(self, enclave: Enclave, role: str) -> ManagerChannel:
        return connect_manager(enclave, self.network.connect("manager"),
                               self.manager_policy, role,
                               self.endpoint.counters.public_key)

    def start_coordinator(self, validation_csv: bytes) -> Coordinator:
        """A coordinator over the state directory on a new manager channel:
        the one at set-up, and each revival over the same directory."""
        return Coordinator(self.policy, self.coordinator_enclave, self.state_dir,
                           self.platform.root_public_key, validation_csv,
                           self.connect_manager(self.coordinator_enclave, role="coordinator"),
                           round_deadline=self.round_deadline)

    def make_agent(self, client_id: str, *, enclave: Enclave | None = None,
                   dataset_of: str | None = None, **kwargs) -> ClientAgent:
        """A fresh agent on the dataset and hash roster client ``dataset_of``
        (by default ``client_id``) was provisioned with, in that client's
        enclave unless another is given. Extra keyword arguments go to
        ``ClientAgent``."""
        source = self.agents[dataset_of or client_id]
        return ClientAgent(client_id, enclave or source.enclave, source.dataset,
                           source.dataset_hash, self.policy,
                           self.platform.root_public_key, **kwargs)

    def join_all(self, agents: Sequence[ClientAgent],
                 refused: Sequence[ClientAgent] = ()) -> dict[str, FedShieldError]:
        """Join the refused agents, then the agents, while the coordinator
        handles that many connections; the listener stays open. Returns each
        refused agent's join error by client id (none if it was admitted)."""
        accept = threading.Thread(
            target=self.coordinator.accept_clients, args=(self.listener,),
            kwargs={"connections": len(refused) + len(agents), "deadline": JOIN_DEADLINE},
            daemon=True)
        accept.start()
        rejected = {}
        for agent in [*refused, *agents]:
            try:
                agent.join(self.network.connect(self.listener.name,
                                                label=f"client:{agent.client_id}"))
            except FedShieldError as exc:
                if agent in agents:
                    raise
                rejected[agent.client_id] = exc
        accept.join(timeout=JOIN_DEADLINE)
        return rejected

    def start_agents(self, agents: list[ClientAgent]) -> None:
        for agent in agents:
            thread = threading.Thread(target=_run_agent, args=(agent,), daemon=True)
            thread.start()
            self.threads.append(thread)

    def close(self) -> None:
        self.listener.close()
        self.coordinator._close_clients()
        for thread in self.threads:
            thread.join(timeout=JOIN_DEADLINE)
        self.coordinator.manager.close()
        self.endpoint.stop()


def _run_agent(agent: ClientAgent) -> None:
    # a coordinator silent for AGENT_RECV_TIMEOUT ends the agent like any
    # other stop, not as a bare traceback from the thread
    try:
        agent.run()
    except (FedShieldError, TimeoutError) as exc:
        logger.info("agent %s stopped: %s", agent.client_id, exc)


def run_demo(workdir: str | Path, *, num_clients: int = 3,
             rows_per_client: int = 200, dim: int = 8, seed: int = 7,
             separation: float = 2.0, session: SessionConfig | None = None,
             capture: CaptureLog | None = None,
             attacker_id: str | None = None,
             unpinned_client_id: str | None = None) -> DemoResult:
    """Stand up the full deployment in one process and run the session.

    ``attacker_id`` makes that client submit updates scaled by
    ``ATTACK_FACTOR``; ``unpinned_client_id`` adds an extra, non-roster
    participant running a modified code bundle (its admission must fail).
    """
    client_ids = [f"client-{i + 1}" for i in range(num_clients)]
    data_seeds = _partition_seeds(seed, client_ids + ["validation"])
    datasets = {cid: synthetic_dataset(rows_per_client, dim, data_seeds[cid],
                                       separation=separation)
                for cid in client_ids}
    validation = synthetic_dataset(rows_per_client * 2, dim,
                                   data_seeds["validation"],
                                   separation=separation)
    if session is None:
        session = SessionConfig(
            min_clients=min(2, num_clients), max_rounds=5,
            target_accuracy=0.99, convergence_epsilon=1e-9, patience=3,
            learning_rate=0.1, local_epochs=2, batch_size=32,
            clone_count=num_clients, clone_subset_size=num_clients - 1,
            outlier_threshold=0.02, rng_seed=seed)
    dep = Deployment(workdir, datasets, validation, session, network=Hub(capture))
    # The agents and the coordinator hold decoded copies; dropping these cut
    # 8-10 MB from wide-model's peak RSS in the rounds (seed 7).
    del datasets, validation

    sensitive: dict[str, bytes] = dict(dep.leak_rows)
    dataset_key = dep.client_bundles[client_ids[0]].key_bytes(DATASET_KEY)
    for name, key in (("dataset-key", dataset_key),
                      ("checkpoint-key", dep.coordinator.checkpoint_key)):
        sensitive[f"secret:{name}"] = key
        sensitive[f"secret:{name}-hex"] = key.hex().encode("ascii")
    sensitive["secret:validation-key"] = dep.coordinator.secrets.key_bytes(VALIDATION_KEY)

    agents = [dep.make_agent(cid, update_transform=(scaling_attack(ATTACK_FACTOR)
                                                    if cid == attacker_id else None))
              for cid in client_ids]
    refused = []
    if unpinned_client_id is not None:
        bad_enclave = spawn_enclave(dep.platform, CLIENT_BUNDLE + b" (modified)",
                                    ROLE_CONFIG)
        refused.append(dep.make_agent(unpinned_client_id, enclave=bad_enclave,
                                      dataset_of=client_ids[0]))
    rejected = dep.join_all(agents, refused=refused)

    dep.start_agents(agents)
    model = dep.coordinator.run_session()
    dep.close()

    for agent in agents:
        for i, tail in enumerate(agent.sent_update_tails):
            sensitive[f"update:{agent.client_id}:{i}"] = tail

    return DemoResult(
        workdir=Path(workdir),
        model=model,
        policy_hash=dep.policy_hash,
        coordinator=dep.coordinator,
        audit_paths={
            "coordinator": dep.state_dir / "audit.log",
            "manager": dep.manager_dir / "audit.log",
        },
        sensitive=sensitive,
        rejected={cid: type(exc).__name__ for cid, exc in rejected.items()},
    )


def _first_and_last_rows(csv: bytes) -> tuple[bytes, bytes]:
    """The first and the last data line of a dataset file, which ends in LF.
    Each is a copy, so neither keeps the file alive."""
    first = csv.index(b"\n") + 1
    last = csv.rfind(b"\n", 0, len(csv) - 1) + 1
    return csv[first:csv.index(b"\n", first)], csv[last:-1]


def _matches(blob: bytes, patterns: dict[str, bytes]) -> list[str]:
    """Names of the patterns found in ``blob``. Patterns shorter than 16
    bytes are rejected because short strings can collide by chance."""
    for name, pattern in patterns.items():
        if len(pattern) < 16:
            raise ValueError(f"pattern {name!r} is too short to scan for")
    return [name for name, pattern in patterns.items() if pattern in blob]


def scan_tree(root: str | Path, patterns: dict[str, bytes]) -> list[str]:
    """Find any sensitive pattern in any file under ``root``.

    Returns ``file:pattern-name`` findings; an empty list means the scan
    is clean.
    """
    findings = []
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            findings += [f"{path}:{name}"
                         for name in _matches(path.read_bytes(), patterns)]
    return findings


def scan_capture(capture: CaptureLog, patterns: dict[str, bytes]) -> list[str]:
    """Find any sensitive pattern in the recorded wire traffic."""
    return [f"wire:{name}" for name in _matches(capture.all_bytes(), patterns)]
