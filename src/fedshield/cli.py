"""Operator command line.

Verbs: keygen, measure, policy new|upload, run-manager, run-coordinator,
run-client, audit verify, demo.
Service verbs run one role each over TCP, and each role provisions itself:
`run-client` sets up through `orchestrator.start_client`, as `Deployment`
does, and `run-coordinator` builds the `Coordinator` that
`Deployment.start_coordinator` builds. `demo` spins the whole desk-scale
session inside one process.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .audit import verify_audit
from .demo import JOIN_DEADLINE, author_policy, run_demo, scan_capture, scan_tree
from .enclave import (
    generate_platform,
    generate_signing_key,
    load_platform,
    load_signing_key,
    measure,
    public_key_bytes,
    save_platform,
    save_signing_key,
    spawn_enclave,
)
from .encoding import sha256, unhex
from .errors import FedShieldError, InvalidInputError
from .orchestrator import ROUND_DEADLINE, Coordinator, start_client
from .policy import SessionConfig, parse_policy
from .services import ServiceEndpoint, connect_manager
from .transport import CaptureLog, TcpNetwork


def _apply_session_file(args, keys: tuple[str, ...]) -> None:
    """Fill missing flags from the session file (keys match flag dests)."""
    if not getattr(args, "session_file", None):
        return
    try:
        doc = json.loads(Path(args.session_file).read_text())
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
    except ValueError as exc:
        raise InvalidInputError(f"session file {args.session_file}: {exc}") from exc
    for key in keys:
        if not getattr(args, key, None) and key in doc:
            if not isinstance(doc[key], str):
                raise InvalidInputError(f"session file {args.session_file}: {key} is not a string")
            setattr(args, key, doc[key])


def _require(args, *keys) -> None:
    missing = [k for k in keys if not getattr(args, k, None)]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise FedShieldError(f"missing {flags} (flag or session file)")


def cmd_keygen(args) -> int:
    if args.kind == "platform":
        platform = generate_platform()
        save_platform(platform, args.out)
        print(f"platform key file written to {args.out}")
        print(f"platform_id: {platform.platform_id.hex()}")
        print(f"root_public_key: {platform.root_public_key.hex()}")
    else:
        key = generate_signing_key()
        save_signing_key(key, args.out)
        print(f"signing key file written to {args.out}")
        print(f"public_key: {public_key_bytes(key).hex()}")
    return 0


def cmd_measure(args) -> int:
    bundle = Path(args.bundle).read_bytes()
    config = Path(args.config).read_bytes()
    print(measure(bundle, config).hex())
    return 0


def cmd_policy_new(args) -> int:
    session = SessionConfig.from_dict(vars(args))
    roster = []
    for item in args.client:
        client_id, _, dataset = item.partition("=")
        if not dataset:
            print(f"--client must look like id=dataset.csv, got {item!r}",
                  file=sys.stderr)
            return 2
        roster.append((client_id, sha256(Path(dataset).read_bytes())))
    measurements = {
        "policy_manager_self": unhex(args.manager_measurement),
        "coordinator": unhex(args.coordinator_measurement),
        "client": unhex(args.client_measurement),
    }
    validation_hash = (sha256(Path(args.validation).read_bytes())
                       if args.validation else None)
    document = author_policy(args.name, measurements, roster, session,
                             validation_hash=validation_hash)
    policy = parse_policy(document)
    Path(args.out).write_text(document + "\n")
    print(f"policy written to {args.out}")
    print(f"policy_hash: {policy.policy_hash.hex()}")
    return 0


def _role_enclave(args):
    """The platform from ``--key-file`` and this role process's one enclave."""
    platform = load_platform(args.key_file)
    return platform, spawn_enclave(platform, Path(args.bundle).read_bytes(),
                                   Path(args.config).read_bytes())


def _manager_pin(args, platform):
    """The policy file and the manager pin it declares, under this platform's root."""
    policy = parse_policy(Path(args.policy).read_text())
    pinned = getattr(args, "policy_hash", None)
    if pinned and policy.policy_hash.hex() != pinned:
        raise FedShieldError(
            f"policy file hashes to {policy.policy_hash.hex()}, "
            f"session file pins {pinned}")
    return policy, policy.pin("policy_manager_self", platform.root_public_key)


def _manager_channel(args, enclave, manager_pin, role):
    """An attested channel to the pinned manager."""
    transport = TcpNetwork().connect(args.manager)
    return connect_manager(enclave, transport, manager_pin, role,
                           unhex(args.counter_public_key))


def cmd_policy_upload(args) -> int:
    platform, enclave = _role_enclave(args)
    _, manager_pin = _manager_pin(args, platform)
    manager = _manager_channel(args, enclave, manager_pin, role="client")
    document = Path(args.policy).read_text()
    policy_hash = manager.upload_policy(document)
    print(f"uploaded: {policy_hash.hex()}")
    if args.generate:
        manager.generate_secrets(policy_hash)
        print("secrets generated")
    manager.close()
    return 0


def cmd_run_manager(args) -> int:
    platform, enclave = _role_enclave(args)
    listener = TcpNetwork().listen(args.listen)
    endpoint = ServiceEndpoint(listener, args.store_dir, enclave,
                               platform.root_public_key,
                               load_signing_key(args.counter_key))
    print(f"manager measurement: {enclave.measurement.hex()}")
    print(f"counter service public key: {endpoint.counters.public_key.hex()}")
    print(f"listening on {listener.address[0]}:{listener.address[1]}")
    thread = endpoint.start()
    try:
        thread.join()
    except KeyboardInterrupt:
        endpoint.stop()
    return 0


def cmd_run_coordinator(args) -> int:
    _apply_session_file(args, ("manager", "policy", "policy_hash",
                               "counter_public_key", "validation", "state_dir"))
    _require(args, "manager", "policy", "counter_public_key", "validation",
             "state_dir")
    platform, enclave = _role_enclave(args)
    policy, manager_pin = _manager_pin(args, platform)
    # a missing input file fails before the manager is contacted
    validation_csv = Path(args.validation).read_bytes()
    manager = _manager_channel(args, enclave, manager_pin, role="coordinator")
    coordinator = Coordinator(policy, enclave, args.state_dir,
                              platform.root_public_key, validation_csv, manager,
                              round_deadline=args.round_deadline)
    listener = TcpNetwork().listen(args.listen)
    print(f"coordinator measurement: {enclave.measurement.hex()}")
    print(f"listening on {listener.address[0]}:{listener.address[1]}")
    coordinator.accept_clients(listener, deadline=args.join_deadline)
    model = coordinator.run_session()
    listener.close()
    manager.close()
    print(f"session finished at round {model.round_index}")
    for round_index, accuracy, loss in model.history:
        print(f"  round {round_index}: accuracy={accuracy:.4f} loss={loss:.4f}")
    return 0


def cmd_run_client(args) -> int:
    _apply_session_file(args, ("manager", "coordinator", "policy",
                               "policy_hash", "counter_public_key"))
    _require(args, "manager", "coordinator", "policy", "counter_public_key")
    platform, enclave = _role_enclave(args)
    policy, manager_pin = _manager_pin(args, platform)
    # a missing input file fails before the manager is contacted
    plaintext = Path(args.data).read_bytes()
    agent, _ = start_client(_manager_channel(args, enclave, manager_pin, role="client"),
                            args.client_id, enclave, policy, platform.root_public_key,
                            Path(args.data).with_suffix(".sfl"), plaintext)
    agent.join(TcpNetwork().connect(args.coordinator))
    print(f"{args.client_id}: admitted")
    result = agent.run()
    print(f"{args.client_id}: session ended ({result.get('reason', result.get('status'))})")
    return 0


def cmd_audit_verify(args) -> int:
    verdict = verify_audit(args.log)
    if verdict.ok:
        print(f"accepted: {verdict.entries} entries, chain verifies from genesis")
        return 0
    print(f"BROKEN at entry {verdict.first_break}: {verdict.reason}")
    return 1


def cmd_demo(args) -> int:
    capture = CaptureLog() if args.capture else None
    result = run_demo(args.workdir, num_clients=args.clients,
                      rows_per_client=args.rows, dim=args.dim, seed=args.seed,
                      capture=capture, attacker_id=args.attacker or None)
    model = result.model
    print(f"policy: {result.policy_hash.hex()}")
    print(f"session finished at round {model.round_index}")
    for round_index, accuracy, loss in model.history:
        flags = result.flags_by_round().get(round_index, [])
        suffix = f"  flagged={flags}" if flags else ""
        print(f"  round {round_index}: accuracy={accuracy:.4f} loss={loss:.4f}{suffix}")
    failed = False
    for name, path in result.audit_paths.items():
        verdict = verify_audit(path)
        failed |= not verdict.ok
        status = "ok" if verdict.ok else f"BROKEN at {verdict.first_break}"
        print(f"audit[{name}]: {verdict.entries} entries, {status}")
    if capture is not None:
        findings = (scan_capture(capture, result.sensitive)
                    + scan_tree(result.workdir, result.sensitive))
        failed |= bool(findings)
        label = "clean" if not findings else f"LEAKED {findings}"
        print(f"confidentiality scan (wire + storage): {label}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedshield", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # The flag group of every verb that runs inside an enclave.
    role_enclave = argparse.ArgumentParser(add_help=False)
    for flag in ("--key-file", "--bundle", "--config"):
        role_enclave.add_argument(flag, required=True)

    p = sub.add_parser("keygen", help="generate a platform or signing key file")
    p.add_argument("--out", required=True, help="a new file; an existing one is refused")
    p.add_argument("--kind", choices=["platform", "signing"], default="platform")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("measure", help="print the measurement of a code bundle")
    p.add_argument("bundle")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_measure)

    policy = sub.add_parser("policy", help="author or upload policies")
    policy_sub = policy.add_subparsers(dest="policy_command", required=True)

    p = policy_sub.add_parser("new", help="write a policy document")
    p.add_argument("--out", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--manager-measurement", required=True)
    p.add_argument("--coordinator-measurement", required=True)
    p.add_argument("--client-measurement", required=True)
    p.add_argument("--client", action="append", default=[],
                   metavar="ID=DATASET.CSV", required=True)
    p.add_argument("--validation")
    for f in fields(SessionConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                       default=f.default)
    p.set_defaults(func=cmd_policy_new)

    p = policy_sub.add_parser("upload", parents=[role_enclave],
                              help="upload a policy over an attested channel")
    p.add_argument("--policy", required=True)
    p.add_argument("--manager", required=True, metavar="HOST:PORT")
    p.add_argument("--counter-public-key", required=True)
    p.add_argument("--generate", action="store_true")
    p.set_defaults(func=cmd_policy_upload)

    p = sub.add_parser("run-manager", parents=[role_enclave],
                       help="serve the policy manager + counter service")
    p.add_argument("--listen", required=True, metavar="HOST:PORT")
    p.add_argument("--store-dir", required=True)
    p.add_argument("--counter-key", required=True)
    p.set_defaults(func=cmd_run_manager)

    p = sub.add_parser("run-coordinator", parents=[role_enclave],
                       help="serve one federated session")
    p.add_argument("--listen", required=True, metavar="HOST:PORT")
    p.add_argument("--manager", metavar="HOST:PORT")
    p.add_argument("--policy")
    p.add_argument("--state-dir")
    p.add_argument("--validation", help="validation dataset CSV")
    p.add_argument("--counter-public-key")
    p.add_argument("--round-deadline", type=float, default=ROUND_DEADLINE)
    p.add_argument("--join-deadline", type=float, default=JOIN_DEADLINE)
    p.add_argument("--session-file")
    p.set_defaults(func=cmd_run_coordinator)

    p = sub.add_parser("run-client", parents=[role_enclave],
                       help="join a session as one client")
    p.add_argument("--coordinator", metavar="HOST:PORT")
    p.add_argument("--manager", metavar="HOST:PORT")
    p.add_argument("--policy")
    p.add_argument("--client-id", required=True)
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--counter-public-key")
    p.add_argument("--session-file")
    p.set_defaults(func=cmd_run_client)

    audit = sub.add_parser("audit", help="audit log tools")
    audit_sub = audit.add_subparsers(dest="audit_command", required=True)
    p = audit_sub.add_parser("verify", help="verify a hash-chained audit log")
    p.add_argument("log")
    p.set_defaults(func=cmd_audit_verify)

    p = sub.add_parser("demo", help="run the desk-scale session in one process")
    p.add_argument("--workdir", required=True)
    p.add_argument("--clients", type=int, default=3)
    p.add_argument("--rows", type=int, default=200)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--attacker", default="")
    p.add_argument("--capture", action="store_true")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FedShieldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
