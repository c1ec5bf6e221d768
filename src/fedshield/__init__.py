"""Confidential federated learning on simulated enclaves.

Local and global training run inside software-simulated trusted-execution
enclaves; a policy manager releases secrets only to attested code; all
model exchange travels over mutually attested encrypted channels; sealed
storage is rollback-protected by a signed monotonic counter service; and a
clone-and-sample guard flags poisoning clients by their influence on
validation utility.
"""

import os

# BLAS on one thread per calling thread. Each role runs on its own thread (in
# SecFL, in its own enclave), so parallelism comes from the roles, not from
# inside one BLAS call. numpy's bundled OpenBLAS otherwise keeps a pool of one
# thread per core, and after any matvec of at least about 460,800 values (the
# coordinator's `evaluate` on a 16 x 50,000 validation set) its idle worker
# busy-waits about 130 ms of CPU, taking a core from the next round's
# `local_train` threads. This must run before the first submodule import,
# which loads numpy; an operator's explicit value is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .attestation import (
    AttestationPolicy,
    SecureChannel,
    attested_handshake,
    binding_report_data,
    verify_quote,
)
from .audit import AuditLog, verify_audit
from .counters import CounterService, CounterToken, verify_token
from .enclave import (
    Enclave,
    EnclaveIdentity,
    Platform,
    Quote,
    SealedBlob,
    generate_platform,
    measure,
    spawn_enclave,
)
from .fl import (
    Dataset,
    GlobalModel,
    ModelUpdate,
    aggregate,
    converged,
    evaluate,
    local_train,
    synthetic_dataset,
)
from .orchestrator import ClientAgent, Coordinator, RoundRecord
from .outliers import CloneRun, InfluenceScore, clone_aggregate, flag_outliers, score_clients
from .policy import (
    InjectionBundle,
    InjectionRule,
    Policy,
    PolicyManager,
    SessionConfig,
    parse_policy,
)
from .shield import ShieldedFile, shield_decrypt, shield_encrypt

__version__ = "0.1.0"

__all__ = [
    "AttestationPolicy",
    "AuditLog",
    "ClientAgent",
    "CloneRun",
    "Coordinator",
    "CounterService",
    "CounterToken",
    "Dataset",
    "Enclave",
    "EnclaveIdentity",
    "GlobalModel",
    "InfluenceScore",
    "InjectionBundle",
    "InjectionRule",
    "ModelUpdate",
    "Platform",
    "Policy",
    "PolicyManager",
    "Quote",
    "RoundRecord",
    "SealedBlob",
    "SecureChannel",
    "SessionConfig",
    "ShieldedFile",
    "aggregate",
    "attested_handshake",
    "binding_report_data",
    "clone_aggregate",
    "converged",
    "evaluate",
    "flag_outliers",
    "generate_platform",
    "local_train",
    "measure",
    "parse_policy",
    "score_clients",
    "shield_decrypt",
    "shield_encrypt",
    "spawn_enclave",
    "synthetic_dataset",
    "verify_audit",
    "verify_quote",
    "verify_token",
]
