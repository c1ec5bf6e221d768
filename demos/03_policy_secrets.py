"""The policy manager: pre-agreed policies gate every secret release.

Run with: python demos/03_policy_secrets.py
"""

import json
import tempfile

from fedshield import PolicyManager, SessionConfig, generate_platform, spawn_enclave
from fedshield.errors import AccessDeniedError, PolicyInvalidError

platform = generate_platform()
manager_enclave = spawn_enclave(platform, b"policy manager program", b"cfg\n")
coordinator = spawn_enclave(platform, b"coordinator program", b"cfg\n")
client = spawn_enclave(platform, b"client agent program", b"cfg\n")

# The policy is the whole agreement: who may run what, with which data,
# which secrets exist, and where they are injected. Its identity is the
# hash of the canonical encoding, so key order in the source is irrelevant.
# Every secret is a 256-bit key the manager generates, and every injection
# rule hands one role an environment variable holding a key's hex: its
# template is one $$secret-name$$ token, and any other template is refused.
policy = {
    "name": "hospital-study-7",
    "allowed_measurements": {
        "policy_manager_self": manager_enclave.measurement.hex(),
        "coordinator": coordinator.measurement.hex(),
        "client": client.measurement.hex(),
    },
    "client_roster": [
        {"client_id": "clinic-north", "dataset_hash": "aa" * 32},
        {"client_id": "clinic-south", "dataset_hash": "bb" * 32},
    ],
    "session": SessionConfig(min_clients=2, clone_count=2,
                             clone_subset_size=1).to_dict(),
    "secrets": [
        {"secret_name": "dataset-key", "kind": "symmetric-key-256"},
        {"secret_name": "checkpoint-key", "kind": "symmetric-key-256"},
    ],
    "injection": [
        {"role": "client", "mechanism": "environment-variable",
         "name": "DATASET_KEY", "template": "$$dataset-key$$"},
        {"role": "coordinator", "mechanism": "environment-variable",
         "name": "CHECKPOINT_KEY", "template": "$$checkpoint-key$$"},
    ],
}
document = json.dumps(policy)

with tempfile.TemporaryDirectory() as store:
    manager = PolicyManager(store, manager_enclave, platform.root_public_key)
    policy_hash = manager.upload_policy(document)
    print("policy hash:", policy_hash.hex())
    print("re-upload is idempotent:",
          manager.upload_policy(document) == policy_hash)

    # A key written into the document would sit in clear in the manager's
    # store, so a policy may not provide one: it is refused before anything
    # is stored.
    provided = dict(policy, name="hospital-study-8", secrets=[
        {"secret_name": "dataset-key", "kind": "provided-value", "value": "ab" * 32},
        {"secret_name": "checkpoint-key", "kind": "symmetric-key-256"},
    ])
    try:
        manager.upload_policy(json.dumps(provided))
    except PolicyInvalidError as exc:
        print("policy with a provided key refused:", exc)

    # Secrets materialize inside the manager enclave and are persisted only
    # as sealed blobs; no human (and no storage scan) sees their values.
    manager.generate_secrets(policy_hash)
    sealed = list((manager.store_dir / "secrets").rglob("*.sealed"))
    print("sealed secrets on disk:", sorted(p.name for p in sealed))

    # Release requires a verifying quote carrying the measurement the
    # policy pins for the requested role, bound to a fresh nonce.
    nonce = b"\x09" * 32
    good = client.generate_quote(b"\x00" * 64, nonce)
    bundle = manager.release_secrets(policy_hash, "client", good, nonce)
    print("\nclient bundle env:", sorted(bundle.environment))
    print("client dataset key bytes:", len(bundle.key_bytes("DATASET_KEY")))

    patched = spawn_enclave(platform, b"client agent program v2", b"cfg\n")
    evil = patched.generate_quote(b"\x00" * 64, nonce)
    try:
        manager.release_secrets(policy_hash, "client", evil, nonce)
    except AccessDeniedError as exc:
        print("patched client denied:", exc.check)

    coord_quote = coordinator.generate_quote(b"\x00" * 64, nonce)
    coord_bundle = manager.release_secrets(policy_hash, "coordinator",
                                           coord_quote, nonce)
    print("coordinator bundle env:", sorted(coord_bundle.environment))
    print("coordinator sees dataset key?",
          "DATASET_KEY" in coord_bundle.environment)
